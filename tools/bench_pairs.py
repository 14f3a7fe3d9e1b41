"""Paired perfbench runs of two commits, written to one BENCH_*.json file.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --out BENCH_6.json \\
        --pairs 10 --workloads gradcheck episode_default --seeds 0

Each side is exported with ``git archive`` into a scratch directory, so
both run their committed files with their own copy of perfbench.  Pair i
runs ``perfbench/run.py --trace 0`` once per side at BENCHMARK.json's
``run_seconds`` and seed ``seeds[i % len(seeds)]``; the base runs first
in even pairs and the head in odd ones, so a drift in machine load hits
both sides alike.  For each workload and end-to-end metric the file holds
both sides' median and quartiles (inclusive method), the pairs the head
won, the ratio of medians, whether their difference exceeds the base's
interquartile distance, ``claim_rule_met``: the head won at least
0.9 x pairs and its median is better than the base's by more than the
base's interquartile distance, and ``within_bound``: the head's median is
worse than the base's by no more than the metric's BENCHMARK.json
``bound``, a fraction of the base's median.  It also holds every run's
values and failure count, the seed-0 episode digests, both git shas and
the machine, and one summary line per workload is printed.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^# episode seed (\d+): digest ([0-9a-f]+)$")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = next(json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env "))
    digests = dict(m.groups() for m in map(DIGEST.match, lines) if m)
    return {
        "seed": seed,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digests": digests,
        "env": env,
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        base = [r["metrics"][name] for r in runs["base"]]
        head = [r["metrics"][name] for r in runs["head"]]
        b, h = spread(base), spread(head)
        wins = sum((hv > bv) if higher else (hv < bv) for bv, hv in zip(base, head))
        gain = (h["median"] - b["median"]) * (1 if higher else -1)
        iqr = b["q3"] - b["q1"]
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "base": b,
            "head": h,
            "head_wins": wins,
            "head_over_base": h["median"] / b["median"],
            "exceeds_base_iqr": abs(h["median"] - b["median"]) > iqr,
            "claim_rule_met": wins >= 0.9 * len(base) and gain > iqr,
            "within_bound": -gain <= m["bound"] * b["median"],
        }
    return metrics


def summary_line(workload: str, metrics: dict, pairs: int) -> str:
    return f"{workload}: " + "; ".join(
        f"{name} {m['base']['median']:.4g} -> {m['head']['median']:.4g}"
        f" (x{m['head_over_base']:.3f}, head wins {m['head_wins']}/{pairs},"
        f" claim {'met' if m['claim_rule_met'] else 'not met'},"
        f" {'within' if m['within_bound'] else 'beyond'} bound {m['bound']})"
        for name, m in metrics.items()
    )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--head", default="HEAD", help="git revision of the change side")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--workdir", help="where the two exports go (default: a temporary dir)")
    args = ap.parse_args(argv)
    # the quartiles of a side need two runs
    if args.pairs < 2 or min(args.seeds) < 0:
        ap.error("--pairs must be >= 2 and --seeds non-negative")

    sides = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    seconds = spec["run_seconds"]
    out = {
        # the settings that shape the result; --out by file name and no
        # --workdir, so the file names no path of the machine that ran it
        "command": " ".join([
            "python3 tools/bench_pairs.py", "--base", args.base, "--head", args.head,
            "--out", Path(args.out).name, "--pairs", str(args.pairs),
            "--workloads", *args.workloads, "--seeds", *map(str, args.seeds),
        ]),
        "run_seconds": seconds,
        "pairs": args.pairs,
        "git_sha": sides,
        "machine": None,
        "workloads": {},
    }
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        checkouts = {side: Path(tmp) / side for side in sides}
        for side, sha in sides.items():
            export(sha, checkouts[side])
        for workload in args.workloads:
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            seeds = [args.seeds[i % len(args.seeds)] for i in range(args.pairs)]
            for i, seed in enumerate(seeds):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    run = run_once(checkouts[side], workload, seed, seconds)
                    runs[side].append(run)
                    print(f"{workload} pair {i} {side} seed {seed}: "
                          + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items())
                          + f", failed {run['failed']}", flush=True)
            metrics = summarize(runs, spec)
            print(summary_line(workload, metrics, args.pairs), flush=True)
            env = runs["base"][0]["env"]
            out["machine"] = {k: env[k] for k in ("nproc", "python", "numpy", "blas")}
            out["workloads"][workload] = {
                "seeds": seeds,
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
                "seed0_digests": {
                    side: {s: d for r in rs if r["seed"] == 0 for s, d in r["digests"].items()}
                    for side, rs in runs.items()
                },
                "metrics": metrics,
                "runs": {side: [{k: r[k] for k in ("seed", "failed", "metrics")} for r in rs]
                         for side, rs in runs.items()},
            }
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
