"""The one CSV writer against numpy's per-row text writer, byte for byte."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bathforge import grid
from bathforge.errors import ValidationError

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
           2.225073858507201e-308, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
           1 + 2**-17, 1 - 2**-17, 2**-17, 0.1, 1.0, 3.0]
# any float64, from its raw bit pattern, or one of the hard cases above
FLOATS = st.one_of(st.sampled_from(SPECIAL),
                   st.integers(0, 2**64 - 1).map(
                       lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))))
LINES = st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
                 min_size=1, max_size=3).map("\n".join).filter(bool)


@st.composite
def tables(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 20)))
    values = draw(st.lists(FLOATS, min_size=nrows * ncols, max_size=nrows * ncols))
    return [np.array(values[k::ncols], dtype=float) for k in range(ncols)]


class TestWriteCsv:
    """``write_csv`` with a row block of 3, so that tables cross block
    boundaries, must write the bytes ``np.savetxt`` writes with ``%.17g``."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=tables(), header=LINES, footer=st.one_of(st.just(""), LINES))
    def test_bytes_match_savetxt(self, tmp_path, columns, header, footer):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_ROW_BLOCK", 3)
            grid.write_csv(ours, columns, header, footer=footer)
        np.savetxt(ref, np.column_stack(columns), fmt="%.17g", delimiter=",", comments="",
                   header=header, footer=footer)
        assert ours.read_bytes() == ref.read_bytes()

    def test_long_table_is_never_stacked_whole(self, tmp_path):
        # only one block of rows is stacked at a time, so the peak stays far
        # below the n x k x 8 bytes of the whole stacked table
        columns = [np.linspace(0.0, 1.0, 200_000) * k for k in (1.0, np.pi, np.e)]
        tracemalloc.start()
        try:
            grid.write_csv(tmp_path / "long.csv", columns, "a,b,c")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 200_000 * 3 * 8

    def test_unequal_columns_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValidationError, match="differ in length"):
            grid.write_csv(tmp_path / "bad.csv", [np.zeros(3), np.zeros(2)], "a,b")
        assert not (tmp_path / "bad.csv").exists()
