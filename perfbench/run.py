"""bathforge benchmark: one workload per invocation.

    python3 perfbench/run.py --workload ramsey_t2 --seed 1 --seconds 30 --trace 0

Runs from any directory; bathforge is imported from ``src/`` next to this
directory and nowhere else.  One process, no worker pool, BLAS pinned to one
thread.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced passes interleaved with
untraced ones.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5


def _pin_threads():
    # before numpy is imported: a single BLAS thread keeps reductions in a
    # fixed order (exact work counts) and keeps timings on a shared machine steadier
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads():
    """Thread count read back from numpy's bundled OpenBLAS, else the pinned setting."""
    import ctypes
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        if hasattr(dll, "scipy_openblas_get_num_threads64_"):
            return dll.scipy_openblas_get_num_threads64_()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (pinned; not read back)"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted((SRC / "bathforge").rglob("*.py"))
    tree = hashlib.sha256()
    for f in files:
        tree.update(str(f.relative_to(SRC)).encode())
        tree.update(f.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "src_sha256": tree.hexdigest()[:16],
            "src_lines": sum(len(f.read_text().splitlines()) for f in files)}


def measure_setup(workload_cls, seed, size, workdir):
    """Median over SETUP_REPS of a fresh-interpreter ``import bathforge`` plus
    building the workload's inputs; returns it with the last built workload."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import bathforge"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        t1 = perf_counter()
        wl = workload_cls(seed, size, workdir)
        wl.build()
        times.append(perf_counter() - t1 + (t1 - t0))
    return statistics.median(times), wl


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def timed_pass(wl, ops, tracer=None):
    """One pass, with its work counts and output digest taken before the next
    pass can overwrite the outputs."""
    import spans
    with spans.traced(tracer) if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        out = wl.run_pass(ops)
        wall = perf_counter() - t0
    return {"wall": wall, "out": out, "work": wl.work(out), "digest": wl.digest(out),
            "tracer": tracer}


def run_passes(wl, ops, seconds, trace):
    """Untraced passes, or untraced/traced pairs, until the time budget is spent."""
    import spans
    plain, traced = [], []
    t_start = perf_counter()
    while True:
        plain.append(timed_pass(wl, ops))
        if trace:
            traced.append(timed_pass(wl, ops, spans.Tracer()))
        round_s = sum(statistics.median(p["wall"] for p in kind) for kind in (plain, traced) if kind)
        enough = trace or len(plain) >= wl.min_passes
        if enough and perf_counter() - t_start + round_s > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke run")
    args = parser.parse_args(argv)

    if not (SRC / "bathforge" / "__init__.py").is_file():
        print(f"error: no bathforge sources under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))
    import bathforge
    if Path(bathforge.__file__).resolve().parent != (SRC / "bathforge").resolve():
        print(f"error: bathforge imported from {bathforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS, Ops
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        env = environment()
        setup_s, wl = measure_setup(WORKLOADS[args.workload], args.seed, args.size, workdir)
        ops = Ops()
        wl.warm_up(ops)
        plain, traced = run_passes(wl, ops, args.seconds, args.trace)
        passes = plain + traced
        wl.check(passes[-1]["out"], ops)
        digests = [p["digest"] for p in passes]
        works = [p["work"] for p in passes]
        ops.check("outputs identical across passes",
                  (len(set(digests)) == 1, f"{len(digests)} passes, digest {digests[0]}"))
        ops.check("work counts repeat exactly",
                  (all(w == works[0] for w in works), f"{len(works)} passes"))
        walls = [p["wall"] for p in plain]
        wall = statistics.median(walls)
        metrics = {}
        if args.trace:
            layers = [spans.layer_metrics(p["tracer"], p["wall"]) for p in traced]
            counted = [{k: v for k, v in row.items() if spans.LAYER_UNITS[k] != "s"}
                       for row in layers]
            ops.check("traced counts repeat exactly",
                      (all(c == counted[0] for c in counted), f"{len(counted)} traced passes"))
            ops.check("traced counts match outputs", _counts_match(layers[0], works[0]))
            for name, unit in spans.LAYER_UNITS.items():
                if name != "trace.overhead_s":
                    metrics[name] = {"value": statistics.median(r[name] for r in layers),
                                     "unit": unit}
            traced_wall = statistics.median(p["wall"] for p in traced)
            metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
            accounted = sum(metrics[n]["value"] for n in spans.SELF_TIMES)
            summary = [f"traced wall_s {traced_wall:.4f} s median over {len(traced)} traced "
                       f"passes, untraced {wall:.4f} s over {len(plain)}; "
                       f"layer self times + unattributed = {accounted:.4f} s",
                       "traced counts " + json.dumps(counted[0], sort_keys=True)]
        else:
            items = wl.items(works[0])
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            metrics["wall_s"] = {"value": wall, "unit": "s"}
            metrics["items_per_s"] = {"value": items / wall, "unit": "items/s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
            q1, q3 = quartiles(walls)
            summary = [f"setup_s {setup_s:.4f} s (median of {SETUP_REPS}: fresh-interpreter "
                       f"import bathforge + building inputs)",
                       f"wall_s {wall:.4f} s median, quartiles {q1:.4f} .. {q3:.4f} s, "
                       f"{len(walls)} passes",
                       f"items_per_s {items / wall:.6g} {wl.item_unit} ({items} per pass)",
                       f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB"]
        print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        print("work " + json.dumps(works[0], sort_keys=True))
        for line in summary + ops.log:
            print(line)
        print(f"fail_frac {ops.failed / ops.attempted:.6g} "
              f"({ops.failed} of {ops.attempted} operations failed)")
        print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def _counts_match(layer, work):
    """Counts seen at the layer boundaries equal those derived from the outputs."""
    pairs = [("noise.draw.rows", "draw_rows"), ("qubit.steps", "realization_steps")]
    bad = [f"{a}={layer[a]} vs {b}={work[b]}" for a, b in pairs
           if b in work and layer[a] != work[b]]
    return not bad, "; ".join(bad) or "draw rows and steps agree"


if __name__ == "__main__":
    sys.exit(main())
