"""One unit of a workload, in a fresh interpreter.

Usage: python3 bench/worker.py '{"workload": ..., "seed": ..., "unit": ..., "trace": 0|1}'

Set-up (imports and input generation) ends at ``ready_at``, a
``time.monotonic()`` reading the parent compares with its own spawn time.
Then the unit's items run, each timed on its own; checks run afterwards,
outside the timed region and with tracing removed.  The result is one
JSON object on stdout.

Before, between (at most ``CAL_EVERY_S`` apart) and after the items, the
worker times a fixed piece of pure-Python work (``calibrate``).  The
median of these readings, ``cal``, lets the parent express the unit's
times at a reference machine speed; a median, because a short burst of
load that hits one reading must not rescale a whole unit.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402  (imports monocat, its parser and numpy)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CAL_EVERY_S = 0.5


def _calibration_work() -> list:
    seen: dict = {}
    for k in range(15_000):
        key = (k % 97, k % 89, k & 7)
        seen[key] = seen.get(key, 0) + 1
    return sorted(seen.items())


def calibrate() -> float:
    """Mean of three timings of a fixed tuple/dict/sort workload, after one
    untimed run."""
    _calibration_work()
    t0 = time.perf_counter()
    for _ in range(3):
        _calibration_work()
    return (time.perf_counter() - t0) / 3


def run_unit(spec: dict) -> dict:
    """Run one unit of ``spec["workload"]`` and check its outputs."""
    items, units = workloads.build(spec["workload"], spec["seed"])
    ctx = checks.Context()
    chosen = [items[k] for k in units[spec["unit"]]]
    prepared = [ctx.prepare(item) for item in chosen]
    ready_at = time.monotonic()

    cals = [calibrate()]
    last_cal = time.perf_counter()
    tracer = Tracer() if spec.get("trace") else None
    if tracer:
        tracer.install()
    results = []
    try:
        for item, prep in zip(chosen, prepared):
            if time.perf_counter() - last_cal > CAL_EVERY_S:
                cals.append(calibrate())
                last_cal = time.perf_counter()
            t0 = time.perf_counter()
            try:
                out, err = ctx.run(item, prep), None
            except Exception:  # a crashing op is a failed op, not a crashed run
                out, err = None, traceback.format_exc(limit=3)
            results.append((time.perf_counter() - t0, out, err))
    finally:
        if tracer:
            tracer.uninstall()
    cals.append(calibrate())

    records = []
    for item, prep, (dt, out, err) in zip(chosen, prepared, results):
        rec = {"id": item["id"], "t": dt, "probe": item.get("probe", False)}
        if err is not None:
            rec.update(ok=False, error=err, ops=1, out=None)
        else:
            rec.update(ctx.check(item, prep, out))
        records.append(rec)
    checks.check_groups(chosen, records)
    return {
        "ready_at": ready_at,
        "cal": statistics.median(cals),
        "records": records,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": tracer.counters() if tracer else None,
        "absent": tracer.absent if tracer else [],
    }


if __name__ == "__main__":
    print(json.dumps(run_unit(json.loads(sys.argv[1]))))
