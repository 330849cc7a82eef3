"""Uniform time grids from t = 0 shared by noise synthesis, waveform compilation and
simulation, and the one CSV writer every exported table goes through."""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BathforgeError, ConfigError, ValidationError, require_int

# rows formatted per write: large enough that one % amortizes the per-call
# cost, small enough that a long table's text never sits in memory at once
_ROW_BLOCK = 4096

# the paths output_file finished inside the innermost removed_on_failure block
_finished = contextvars.ContextVar("finished_outputs", default=None)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid from t = 0: ``n`` samples at ``k*dt`` for k = 0..n-1.

    The sample at ``n*dt`` is excluded, so a grid spanning exactly one
    period of a periodic signal contains each phase point once.
    """

    dt: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"grid dt must be finite and positive, got {self.dt}")
        require_int("grid n", self.n, 1)

    @property
    def duration(self) -> float:
        return self.n * self.dt

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n)

    @classmethod
    def periods_of(cls, omega0: float, k: int, samples_per_period: int) -> "TimeGrid":
        """Grid covering exactly ``k`` base periods 2*pi/omega0.

        Snapping records to whole periods keeps comb waveforms continuous
        across the record boundary and puts every tooth on an FFT bin.
        """
        if omega0 <= 0:
            raise ValidationError("omega0 must be positive")
        if k < 1 or samples_per_period < 2:
            raise ValidationError("need k >= 1 periods and >= 2 samples per period")
        period = 2.0 * math.pi / omega0
        n = k * samples_per_period
        return cls(dt=k * period / n, n=n)


@contextlib.contextmanager
def output_file(path, mode: str = "w"):
    """Open ``path`` for writing; a file that cannot be written is a config error."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finished = _finished.get()
    if finished is not None:
        finished.add(path)


@contextlib.contextmanager
def removed_on_failure():
    """Remove every file ``output_file`` finished inside the block if the block
    raises a BathforgeError.  A path that failed to open is never touched: it
    may be a user's file or a directory."""
    finished = set()
    token = _finished.set(finished)
    try:
        yield
    except BathforgeError:
        for path in finished:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    finally:
        _finished.reset(token)


def write_csv(path, columns, header: str, footer: str = "") -> None:
    """Write equal-length ``columns`` as comma-separated ``%.17g`` rows.

    The ``header`` line comes first and the ``footer`` line, if any, last.
    ``%.17g`` reads back to the same float64.  Each block of ``_ROW_BLOCK``
    rows is one ``%`` of the row template over the block's values: the same
    conversion as one ``%`` per row, in far fewer Python-level calls.  Only one
    block is ever stacked, so a long table is never copied whole.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValidationError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with output_file(path) as fh:
        fh.write(header + "\n")
        for start in range(0, n, _ROW_BLOCK):
            block = np.column_stack([col[start:start + _ROW_BLOCK] for col in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
        if footer:
            fh.write(footer + "\n")
