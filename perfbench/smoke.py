"""Smoke run of the benchmark at tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
asserts that the result line has exactly the contract's keys, that every
metric named in BENCHMARK.json is emitted with its declared unit and nothing
else, and that every operation and output check passed.  It runs the traced
workload twice with one seed and asserts that the work counts repeat
exactly, and it asserts that the benchmark refuses to run without the
bathforge sources.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def counts_lines(stdout):
    return [ln for ln in stdout.splitlines() if ln.startswith(("work ", "traced counts "))]


def main() -> int:
    failures = []
    for wl in SPEC["workloads"]:
        name = wl["name"]
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run(name, trace)
            if proc.returncode != 0:
                failures.append(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if got != units:
                problems.append(f"metric units differ: {sorted(set(got.items()) ^ set(units.items()))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append("non-numeric metric value")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append("failed operations:\n" + "\n".join(
                    ln for ln in proc.stdout.splitlines() if ln.startswith("FAIL")))
            if trace == 1:
                again = run(name, 1)
                if counts_lines(again.stdout) != counts_lines(proc.stdout):
                    problems.append("work counts differ between two runs with one seed")
            status = "ok  " if not problems else "FAIL"
            print(f"{status} {name} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
            failures += [f"{name} trace {trace}: {p}" for p in problems]

    # a directory holding only BENCHMARK.json and the benchmark must refuse to run
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare, script=bare / "perfbench" / "run.py")
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        print(f"{'ok  ' if refused else 'FAIL'} without sources: exit {proc.returncode}")
        if not refused:
            failures.append("benchmark ran without the bathforge sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
