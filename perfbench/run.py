"""memseg benchmark: one workload per process.

    python3 perfbench/run.py --workload episode_default --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; memseg is imported from its
``src/`` directory, and the run fails (exit 1, no result) without it.
With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs the workload untraced for half
the time, then the same rounds again with spans around every layer, and
reports the per-layer metrics.  Metric names, units and directions are
read from BENCHMARK.json.

Earlier lines of standard output are for people: the environment, one
line per round and a metric table.  The last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("episode_default", "episode_saturated", "gradcheck", "memory_io")
SETUP_SAMPLES = 5  # child processes timed from start to ready; setup_s is their median
SENTINELS = ("digest", "gradient")  # deliberate faults the self-test injects


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; at least one round always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sentinel", choices=SENTINELS,
                    help="inject a known fault so the checks must report it")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (a setup_s sample)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def import_memseg():
    """Import memseg from this checkout's src/, never from elsewhere."""
    if not (SRC / "memseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no memseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import memseg

    if Path(memseg.__file__).resolve().parent != SRC / "memseg":
        sys.exit(f"perfbench: imported memseg from {memseg.__file__}, not {SRC}")


def make_workload(args, workdir: Path):
    import workloads as w

    if args.workload.startswith("episode_"):
        saturated = args.workload == "episode_saturated"
        reference = None
        if args.seed == w.DEFAULT_SEED:
            reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]
            if args.sentinel == "digest":
                reference = {s: "0" * 64 for s in reference}
        return w.Episode(args.seed, 10 if saturated else 2, reference)
    if args.workload == "gradcheck":
        return w.GradCheck(args.seed, "adapter.w_up" if args.sentinel == "gradient" else None)
    return w.MemoryIO(args.seed, workdir)


def measure_setup(args) -> list[tuple[float, float]]:
    """(wall, CPU) seconds from starting a fresh interpreter to the workload
    being ready for its first timed call, once per child process."""
    from workloads import cpu_time

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        c0 = cpu_time()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up child exited {code} after {line!r}")
        samples.append((wall, cpu_time() - c0))
    return samples


def run_rounds(workload, seconds: float, count: int | None = None):
    """Run rounds until ``seconds`` of wall time have passed (or exactly
    ``count`` rounds), at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rd = workload.run_round(len(rounds))
        rounds.append(rd)
        for note in rd.notes:
            print(f"# {note}")
        if count is not None:
            if len(rounds) >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return rounds


def environment(workload_name: str) -> dict:
    import numpy as np

    from tracing import MEMORY_SIZES

    src_hash = hashlib.sha256()
    for p in sorted((SRC / "memseg").glob("*.py")):
        src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload_name,
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        "embedding_bytes": {f"n{n}": n * 16 * 8 * 8 * 8 for n in MEMORY_SIZES},
    }


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_sizes() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            out[f"L{level}"] = int(size.rstrip("KM")) * mult
    return out


def end_to_end(args, build, spec) -> tuple[dict, list]:
    setup = measure_setup(args)
    workload = build()
    rounds = run_rounds(workload, args.seconds)
    cpus = [r.cpu_seconds for r in rounds]
    values = {
        "setup_s": statistics.median(cpu for _, cpu in setup),
        "items_per_cpu_s": sum(r.items for r in rounds) / sum(cpus),
        "round_cpu_s_p50": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {len(rounds)} rounds of {rounds[0].items} {workload.item}(s);"
          f" CPU s {fmt(cpus)}; wall s {fmt(r.seconds for r in rounds)}")
    print(f"# setup CPU s {fmt(cpu for _, cpu in setup)}; wall s {fmt(w for w, _ in setup)}")
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}, rounds


def fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def per_layer(args, build, spec) -> tuple[dict, list]:
    import tracing

    plain = run_rounds(build(), args.seconds / 2)
    # replay the same rounds on freshly built inputs, with spans on
    workload = build()
    tracer = tracing.Tracer()
    workload.calls = tracing.install(tracer, workload.calls)
    try:
        traced = run_rounds(workload, 0.0, count=len(plain))
    finally:
        tracer.restore()
    for p, t in zip(plain, traced):
        if p.fingerprint != t.fingerprint:
            t.failed = max(t.failed, 1)
            print(f"# FAILED: traced round output differs: {t.fingerprint} != {p.fingerprint}")
    for name in tracer.missing:
        print(f"# trace: {name} not found, no spans recorded for it")
    extra = workload.extra_metrics()
    traced_s = sum(r.seconds for r in traced)
    extra["trace.overhead_frac"] = (
        sum(r.cpu_seconds for r in traced) / sum(r.cpu_seconds for r in plain) - 1.0
    )
    extra["trace.rounds"] = float(len(traced))
    extra["trace.wall_s"] = traced_s
    values = tracing.layer_metrics(tracer, extra)
    shares = sorted(
        ((row["busy_s"] / traced_s, name) for name, row in tracer.summary().items()),
        reverse=True,
    )
    print("# busy share of traced time: " + ", ".join(f"{n} {s:.3f}" for s, n in shares))
    return {m["name"]: values[m["name"]] for m in spec["per_layer"]}, plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS to one thread before numpy loads, so results do not depend on
    # what else shares the cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_memseg()
    sys.path.insert(0, str(BENCH_DIR))
    workdir = Path(tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR))
    try:
        if args.setup_only:
            make_workload(args, workdir)
            print("ready", flush=True)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        print("# env " + json.dumps(environment(args.workload), sort_keys=True))
        measure = per_layer if args.trace else end_to_end
        values, rounds = measure(args, lambda: make_workload(args, workdir), spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for name, value in values.items():
        unit, better = units[name]
        print(f"# {name:48s} {value:14.6g} {unit:8s} ({better} is better)")
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
