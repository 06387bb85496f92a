"""Where the full (generation-2) GC collections of one benchmark unit start.

Usage (from the repository root):

    python3 tools/gc_probe.py WORKLOAD SEED UNIT

Runs ``bench/worker.py``'s ``run_unit`` for one unit, untraced, with a
``gc.callbacks`` hook, and prints one line per full collection: in set-up,
in calibration reading k (of n), in an item (by its id), between items,
or in the checks after the timed loop.  A unit's times are scaled by the
median of its calibration readings, and a full collection inside a reading
inflates it, so an engine change that moves one into or out of a reading
rescales the whole unit at equal raw time.  Compare the output on both
sides of such a change.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import worker  # noqa: E402  (puts the repository's src/ on sys.path)

def probe(workload: str, seed: int, unit: int) -> tuple[list[str], int]:
    """The place of each full collection in the unit, and its reading count."""
    where, readings, found = "set-up", 0, []

    # fixed signatures: a wrapper that packed *args would allocate a tuple
    # per call and so move the collections it is looking for
    calibrate, run, check = worker.calibrate, worker.checks.Context.run, worker.checks.Context.check

    def calibrate_probed():
        nonlocal where, readings
        readings += 1
        where = f"calibration reading {readings}"
        try:
            return calibrate()
        finally:
            where = "between items"

    def run_probed(ctx, item, prep):
        nonlocal where
        where = item["id"]
        try:
            return run(ctx, item, prep)
        finally:
            where = "between items"

    def check_probed(ctx, item, prep, out):
        nonlocal where
        where = "checks"
        return check(ctx, item, prep, out)

    def hook(phase, info):
        if phase == "start" and info["generation"] == 2:
            found.append(where)

    worker.calibrate, worker.checks.Context.run, worker.checks.Context.check = (
        calibrate_probed, run_probed, check_probed)
    gc.callbacks.append(hook)
    try:
        worker.run_unit({"workload": workload, "seed": seed, "unit": unit, "trace": 0})
    finally:
        gc.callbacks.remove(hook)
        worker.calibrate, worker.checks.Context.run, worker.checks.Context.check = calibrate, run, check
    return found, readings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="where a benchmark unit's full GC collections start")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("unit", type=int)
    args = parser.parse_args(argv)
    found, readings = probe(args.workload, args.seed, args.unit)
    print(f"{args.workload} seed {args.seed} unit {args.unit}: {len(found)} full collections, "
          f"{readings} calibration readings")
    for place in found:
        suffix = " (final)" if place == f"calibration reading {readings}" else ""
        print(f"  {place}{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
