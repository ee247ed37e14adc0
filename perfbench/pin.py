"""Pin the expected outputs of every workload at the current commit.

    python3 perfbench/pin.py --seeds 0-9,11 --default 0 --held-out 11

For each seed and workload this runs one pass and stores, in ``pins.json``,
the sha256 of every document and the exit code and output digest of every
job and every ``verify``. It refuses to pin a pass in which any check
failed. Run it only at a commit whose outputs are the reference; a later
commit must reproduce them. Counters are not pinned: the work a solver does
may change as long as its outputs do not.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from measure import seed_list


def pin(workload, seed: int) -> dict:
    bench = run.Bench(workload, seed, None)
    bench.setup(traced=False)
    bench.run_pass()
    if bench.failures or bench.problems:
        raise SystemExit(f"{workload.name} seed {seed}: refusing to pin: {bench.failures + bench.problems}")
    return {
        "documents": bench.doc_digests,
        "outputs": {op: list(value) for op, value in sorted(bench.reference.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Pin job outputs for seeds.")
    parser.add_argument("--seeds", required=True, help="seed list such as 0-9,11")
    parser.add_argument("--default", type=int, required=True, help="the seed a change is developed on")
    parser.add_argument("--held-out", dest="held_out", type=int, required=True,
                        help="a pinned seed on which a claimed gain must also hold")
    args = parser.parse_args(argv)
    if run.IMPORT_ERROR is not None:
        print(f"error: {run.IMPORT_ERROR}", file=sys.stderr)
        return 2
    seeds = seed_list(args.seeds)
    if not {args.default, args.held_out} <= set(seeds):
        print("error: the default and held-out seeds must be among --seeds", file=sys.stderr)
        return 2
    pins = {"default_seed": args.default, "held_out_seed": args.held_out, "seeds": {}}
    for seed in seeds:
        pins["seeds"][str(seed)] = {name: pin(w, seed) for name, w in run.WORKLOADS.items()}
        print(f"pinned seed {seed}", file=sys.stderr)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
