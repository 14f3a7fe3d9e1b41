"""Recompute perfbench/reference.json: the prediction digest of every
episode seed that workload seed 0 runs, for both episode workloads.

    python3 perfbench/make_reference.py

Only run this when a change of behaviour is intended and explained; the
benchmark counts every digest that differs from this file as a failure.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    run.import_memseg()
    import workloads as w

    out = {}
    for name, volumes in (("episode_default", 2), ("episode_saturated", 10)):
        ep = w.Episode(w.DEFAULT_SEED, volumes, reference=None)
        digests = {}
        for r in range(w.SEED_POOL):
            rd = ep.run_round(r)
            if rd.failed:
                sys.exit(f"{name} round {r} failed its invariants: {rd.notes}")
            digests[str(ep.episode_seeds[r])] = rd.fingerprint
            print(name, ep.episode_seeds[r], rd.fingerprint, flush=True)
        out[name] = digests
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
