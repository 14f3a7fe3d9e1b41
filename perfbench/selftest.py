"""Self-test of the benchmark (takes about two minutes).

    python3 perfbench/selftest.py

Runs every workload for one round, untraced and traced, and checks that
each metric of BENCHMARK.json is printed with its unit and that no check
failed.  Then it injects two known faults, a tampered reference digest and
a mutated gradient, and requires the benchmark to count them as failures.
Last, it requires a run without memseg's sources to fail without printing
a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, "perfbench/run.py"]


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def result_of(workload: str, trace: int, *extra: str) -> dict:
    code, last, err = bench(workload, trace, *extra)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}: {err}")
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise AssertionError(f"{workload}: attempted {result['attempted']}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(wl, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise AssertionError(f"{wl} trace={trace}: metrics {got} != {want}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                raise AssertionError(f"{wl} trace={trace}: a value is not a number")
            if result["failed"] or not result["correct"]:
                raise AssertionError(f"{wl} trace={trace}: {result['failed']} failed")
            print(f"ok   {wl} trace={trace}: {len(got)} metrics, 0 of"
                  f" {result['attempted']} failed")

    for wl, sentinel in (("episode_default", "digest"), ("gradcheck", "gradient")):
        result = result_of(wl, 0, "--sentinel", sentinel)
        if result["failed"] == 0 or result["correct"]:
            raise AssertionError(f"sentinel {sentinel} on {wl} was not detected")
        print(f"ok   sentinel {sentinel} on {wl}: failed_frac"
              f" {result['failed'] / result['attempted']:.3f}")

    bare = Path(tempfile.mkdtemp(prefix=".scratch-selftest-", dir=BENCH_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".scratch-*", "__pycache__"))
        code, last, _ = bench("episode_default", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or last.startswith("{"):
        raise AssertionError(f"run without sources exited {code}, last line {last!r}")
    print(f"ok   run without memseg sources exits {code} with no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
