"""Command-line interface.

Subcommands: gradcheck (adapter-block gradients vs complex-step derivatives),
simulate (episode runs), ablate (CSV sweep over capacity, retrieval rule and
adapter), mem-export and mem-import (memory file round-trip).

Exit codes: 0 success, 1 property violation, 2 usage/config error.
Commands raise on bad input and ``main`` reports it as one stderr line,
then exits 2: ``config error: <message>`` for a bad config key or value,
``<command>: <message>`` for any other ValueError, OSError or MemoryError
(a bad option value, memory file or output path, or an allocation numpy refuses).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adapter import block_params, grad_check
from .config import KEYS, ConfigError, load_config, parse_override_pairs
from .episode import RETRIEVAL_MODES, run_episode
from .memory import (
    MemoryEntry,
    insert_or_replace,
    load_base,
    new_base,
    save_base,
    stats,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    # the rest (bottleneck, heads, tol, mutate) is checked by the
    # parameter classes and grad_check
    if min(args.shape) < 1:
        raise ValueError(f"--shape extents must be positive, got {args.shape}")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.report and not Path(args.report).parent.is_dir():
        raise ValueError(f"--report directory {Path(args.report).parent} does not exist")
    b, h, w, c, r = args.shape
    results = []
    worst = 0.0
    failed = False
    for i in range(args.trials):
        seed = args.seed + i
        rng = np.random.default_rng(seed)
        params = block_params(rng, c, bottleneck=r, num_heads=args.heads)
        x = rng.normal(size=(b, h, w, c))
        report = grad_check(params, x, tol=args.tol, mutate=args.mutate)
        worst = max(worst, report.max_rel_err)
        failed = failed or not report.passed
        results.append(
            {
                "seed": seed,
                "max_rel_err": report.max_rel_err,
                "passed": report.passed,
                "failing": report.failing(),
            }
        )
        status = "ok" if report.passed else "FAIL"
        print(f"trial seed={seed}: max_rel_err={report.max_rel_err:.3e} {status}")
    print(f"gradcheck: {args.trials} trials, worst max_rel_err={worst:.3e}, tol={args.tol}")
    if args.report:
        payload = {
            "trials": args.trials,
            "shape": {"B": b, "H": h, "W": w, "C": c, "r": r},
            "tol": args.tol,
            "mutate": args.mutate,
            "worst_max_rel_err": worst,
            "results": results,
        }
        Path(args.report).write_text(json.dumps(payload, sort_keys=True, indent=2))
        print(f"wrote {args.report}")
    return EXIT_VIOLATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# simulate / ablate


def _config_from_args(args):
    return load_config(args.config, parse_override_pairs(args.set or []))


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_episode(cfg.tasks(), cfg.memory, cfg.seeds, cfg.settings)
    for row in report.per_seed:
        path = out_dir / f"episode_seed{row['seed']}.json"
        path.write_text(
            json.dumps({"config": report.config, "result": row}, sort_keys=True, indent=2)
        )
    agg_path = out_dir / "aggregate.json"
    agg_path.write_text(report.to_json())
    print(
        f"simulate: {len(report.per_seed)} seed(s), mean DSC"
        f" {report.aggregate['mean_dsc']:.4f}, mean forgetting"
        f" {report.aggregate['mean_forgetting']:.4f}"
    )
    print(f"wrote {agg_path}")
    return EXIT_OK


# The sweep's axes, in CSV column order.  The .meta.json lists each axis's
# values as given here; the CSV rows run through them sorted.
ABLATION_AXES = {
    "capacity": (0, 16, 640),
    "retrieval": RETRIEVAL_MODES,
    "adapter": ("on", "off"),
}


def _ablate_cell(payload):
    cfg, cell = payload
    row = dict(zip(ABLATION_AXES, cell))
    mem = replace(cfg.memory, capacity=row["capacity"], retrieval=row["retrieval"])
    settings = replace(cfg.settings, adapter_enabled=row["adapter"] == "on")
    report = run_episode(cfg.tasks(), mem, cfg.seeds, settings)
    row["seeds"] = len(cfg.seeds)
    for key in ("mean_dsc", "std_dsc", "mean_stream_dsc", "mean_forgetting"):
        row[key] = report.aggregate[key]
    return row


def cmd_ablate(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    cfg = _config_from_args(args)
    cells = [(cfg, cell) for cell in itertools.product(*map(sorted, ABLATION_AXES.values()))]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once: no more than there are cells
        with ProcessPoolExecutor(max_workers=min(args.workers, len(cells))) as pool:
            rows = list(pool.map(_ablate_cell, cells))
    else:
        rows = [_ablate_cell(c) for c in cells]
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    meta = out.with_suffix(out.suffix + ".meta.json")
    meta.write_text(
        json.dumps(
            {
                "effective_config": cfg.flat(),
                "axes": {axis: list(values) for axis, values in ABLATION_AXES.items()},
            },
            sort_keys=True,
            indent=2,
        )
    )
    print(f"ablate: wrote {len(rows)} cells to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# memory file round-trip


def cmd_mem_export(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    rng = np.random.default_rng(args.seed)
    shape = tuple(args.shape)
    base = new_base(args.capacity, shape)
    for i in range(min(args.count, args.capacity)):  # each entry draws F, PE, y, then E
        f, pe, y = rng.normal(size=shape), rng.normal(size=shape), rng.normal()
        insert_or_replace(base, MemoryEntry(f, pe, y, rng.normal(size=shape), f"export/{i}"))
    save_base(base, args.out)
    print(f"mem-export: wrote {len(base)} entries (capacity {args.capacity}) to {args.out}")
    return EXIT_OK


def cmd_mem_import(args) -> int:
    base = load_base(args.path)
    if args.out:
        save_base(base, args.out)
    s = stats(base)
    print(
        f"mem-import: {s.count}/{s.capacity} entries, feature shape"
        f" {base.feature_shape}"
    )
    if s.count:
        print(
            f"  y_hat min={s.min_y_hat:.4f} max={s.max_y_hat:.4f} mean={s.mean_y_hat:.4f}"
        )
    if s.mean_pairwise_similarity is not None:
        print(f"  mean pairwise embedding similarity {s.mean_pairwise_similarity:.4f}")
    if args.out:
        print(f"  re-exported to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memseg",
        description="Confidence-driven memory simulator: gradient checks,"
        " episodes, ablation sweeps, and memory file round trips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "gradcheck",
        help="verify block gradients against complex-step derivatives",
        description="Compare the block's hand-written backward, under a seeded"
        " random upstream gradient, with complex-step derivatives: one complex128"
        " forward per input and parameter element.  Exits 1 if a gradient's worst"
        " relative error exceeds --tol.",
    )
    g.add_argument("--trials", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--shape", type=int, nargs=5, default=[3, 4, 4, 8, 4],
                   metavar=("B", "H", "W", "C", "r"))
    g.add_argument("--heads", type=int, default=2)
    g.add_argument("--tol", type=float, default=1e-9)
    g.add_argument("--mutate", type=str, default=None,
                   help="gradient name to perturb by +10%% (failure demo)")
    g.add_argument("--report", type=str, default=None, help="write a JSON report here")
    g.set_defaults(func=cmd_gradcheck)

    s = sub.add_parser("simulate", help="run a continual-learning episode")
    s.add_argument("config", nargs="?", default=None, help="JSON config of flat dotted keys")
    s.add_argument("--out", type=str, default="reports")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("ablate", help="sweep capacity, retrieval rule and adapter to CSV")
    a.add_argument("config", nargs="?", default=None)
    a.add_argument("--out", type=str, default="ablation.csv")
    a.add_argument("--workers", type=int, default=1)
    a.add_argument("--set", action="append", metavar="KEY=VALUE")
    a.set_defaults(func=cmd_ablate)

    e = sub.add_parser("mem-export", help="write a seeded demo memory file")
    e.add_argument("--capacity", type=int, default=640)
    e.add_argument("--count", type=int, default=640)
    e.add_argument("--shape", type=int, nargs=3, default=[16, 8, 8], metavar=("C", "H", "W"))
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", type=str, required=True)
    e.set_defaults(func=cmd_mem_export)

    i = sub.add_parser("mem-import", help="load a memory file and print stats")
    i.add_argument("path")
    i.add_argument("--out", type=str, default=None, help="re-export here (round trip)")
    i.set_defaults(func=cmd_mem_import)

    return parser


def _expand_shorthands(argv: list[str]) -> tuple[list[str], list[str]]:
    """Rewrite each ``--<config-key> value`` or ``--<config-key>=value``
    shorthand into ``--set key=value`` in place, so the later of any two
    overrides of a key wins however each is spelled; any key from the
    config schema works (``--memory.capacity 0``, ``--retrieval random``).
    No flag has a dot in its name, so a dotted one that is not in the
    schema is rewritten too, for load_config to reject as an unknown key.
    Returns the new argv and the shorthand keys found."""
    out: list[str] = []
    keys: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        key, eq, val = tok[2:].partition("=")
        if not tok.startswith("--") or (key not in KEYS and "." not in key):
            out.append(tok)
            continue
        if not eq:
            val = next(tokens, None)
            if val is None:
                raise ConfigError(f"flag {tok} is missing a value")
        out += ["--set", f"{key}={val}"]
        keys.append(key)
    return out, keys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        rewritten, shorthands = _expand_shorthands(argv)
        # only simulate and ablate take --set; the subcommand comes first
        if shorthands and argv[:1] not in (["simulate"], ["ablate"]):
            raise ConfigError(
                f"config overrides are only valid after simulate or ablate:"
                f" {' '.join(shorthands)}"
            )
        try:
            args = parser.parse_args(rewritten)
        except SystemExit as exc:  # argparse exits 2 on usage errors
            return int(exc.code or 0)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
