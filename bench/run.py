"""monocat benchmark: closed-loop workloads, one client, one process at a time.

Usage (from the repository root):

    python3 bench/run.py --workload word_problem --seed 1 --seconds 12 --trace 0

A run repeats whole passes over the workload until ``--seconds`` have
passed, and makes at least two; each item counts with its median time
over the passes.  A pass runs every unit of the workload,
each in a fresh interpreter (``bench/worker.py``), one after the other:
the engine's ``lru_cache``s make a warm second pass faster, and every
command-line user pays the cold cost.  With ``--trace 1`` each unit runs
twice per pass, untraced and then traced, and the per-layer metrics come
from the traced copy; one pass is enough there.

The last line of stdout is the result object; the line before it is a
report with the outputs digest and the metrics that only some workloads
have (see bench/NOTES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import per_layer  # noqa: E402

CHILD_TIMEOUT_S = 150
# no pass starts once a run could overrun this
RUN_LIMIT_S = 150
# The host this was sized on alternates between two speeds, about 1.6x
# apart, for tens of seconds to minutes at a time.  A unit's times are
# scaled by REF_CAL_S over its worker's calibration reading (REF_CAL_S is
# the reading on that host at its faster speed), and each item counts with
# its median over at least two passes.  See bench/NOTES.md.
MIN_PASSES = 2
REF_CAL_S = 0.012

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MONOCAT_MAX_STATES", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, env: dict) -> dict:
    """Run one unit; a crash or timeout comes back as ``{"error": ...}``."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"unit {spec['unit']} timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"unit {spec['unit']} exited {proc.returncode}: {proc.stderr[-2000:]}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_at"] - t0
    return out


def tail(samples: list) -> tuple:
    """(percentile, value): the highest percentile with ten samples beyond
    it, i.e. the eleventh largest sample; the median below 20 samples."""
    n = len(samples)
    if n < 20:
        return 50.0, statistics.median(samples)
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def latency_metrics(times: dict) -> dict:
    """Throughput and latency quantiles from {item: ([time per pass], ops)};
    an item's median time over the passes is spread evenly over its ops."""
    samples = [statistics.median(ts) / ops for ts, ops in times.values() for _ in range(ops)]
    if not samples:
        return {"samples": 0, "ops_per_s": 0.0, "op_p50_s": 0.0, "op_tail_s": 0.0,
                "tail_percentile": None, "tail_beyond": None}
    p, v = tail(samples)
    return {
        "samples": len(samples),
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": v,
        "tail_percentile": p,
        "tail_beyond": round(len(samples) * (1 - p / 100)),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    items, units = workloads.build(workload, seed)
    env = child_env()
    min_passes = 1 if trace else MIN_PASSES
    start = time.monotonic()
    passes = []  # per pass: list of (unit, untraced result, traced result or None)
    while True:
        done = []
        for u in range(len(units)):
            spec = {"workload": workload, "seed": seed, "unit": u, "trace": 0}
            plain = run_child(spec, env)
            traced = run_child(dict(spec, trace=1), env) if trace else None
            done.append((u, plain, traced))
        passes.append(done)
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and (
            elapsed >= seconds or elapsed * (len(passes) + 1) / len(passes) > RUN_LIMIT_S
        ):
            break

    errors, setups, raw_setups, rss, speeds = [], [], [], [], []
    scaled: dict = {}  # item id -> ([scaled time per pass], ops)
    unscaled: dict = {}
    first: dict = {}  # item id -> record of the first pass (digest, checks)
    attempted = failed = 0
    traced_t = untraced_t = 0.0
    counters: dict = {}
    absent: set = set()
    for pi, done in enumerate(passes):
        for u, plain, traced in done:
            for res in (plain, traced):
                if res is None:
                    continue
                if "error" in res:
                    errors.append(res["error"])
                    lost = sum(1 for k in units[u] if not items[k].get("probe"))
                    attempted += lost
                    failed += lost
                    continue
                scale = REF_CAL_S / res["cal"]
                setups.append(res["setup_s"] * scale)
                raw_setups.append(res["setup_s"])
                speeds.append(scale)
                rss.append(res["rss_kb"])
                real = [r for r in res["records"] if not r["probe"]]
                attempted += sum(r["ops"] for r in real)
                failed += sum(r["ops"] for r in real if not r["ok"])
                op_time = sum(r["t"] for r in res["records"]) * scale
                if res is traced:
                    traced_t += op_time
                    for key, v in res["counters"].items():
                        v = v * scale if key.endswith("_s") else v
                        counters[key] = counters.get(key, 0) + v
                    absent.update(res["absent"])
                    continue
                untraced_t += op_time
                for rec in res["records"]:
                    if pi == 0:
                        first[rec["id"]] = rec
                    elif rec.get("out") != first.get(rec["id"], {}).get("out"):
                        errors.append(f"{rec['id']}: output changed between passes")
                    if not rec["probe"]:
                        scaled.setdefault(rec["id"], ([], rec["ops"]))[0].append(rec["t"] * scale)
                        unscaled.setdefault(rec["id"], ([], rec["ops"]))[0].append(rec["t"])

    timing = latency_metrics(scaled)
    records = [first[it["id"]] for it in items if it["id"] in first]
    real = [r for r in records if not r["probe"]]
    probes = [r for r in records if r["probe"]]
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "units_per_pass": len(units),
        "digest": hashlib.sha256(json.dumps(
            [[r["id"], r["ok"], r.get("out")] for r in records], sort_keys=True
        ).encode()).hexdigest(),
        "failed_share": failed / attempted if attempted else None,
        "op_samples": timing["samples"],
        "tail_percentile": timing["tail_percentile"],
        "tail_samples_beyond": timing["tail_beyond"],
        "speed_median": statistics.median(speeds) if speeds else None,
        "unscaled": dict(latency_metrics(unscaled),
                         setup_s=statistics.median(raw_setups) if raw_setups else None),
        "errors": errors[:5] + [r["id"] + ": " + r["error"] for r in real if not r["ok"]][:10],
    }
    if workload == "word_problem":
        decided = [r["decided"] for r in real if "decided" in r]
        report["decided_share"] = sum(decided) / len(decided)
    if workload == "homset":
        report["unresolved_pairs"] = sum(r.get("unresolved", 0) for r in real)
    if probes:
        report["known_defect_probe"] = {
            "checked": len(probes), "wrong": sum(not r["ok"] for r in probes)}

    if trace:
        metrics = per_layer(counters, len(passes))
        metrics["trace.overhead_ratio"] = traced_t / untraced_t if untraced_t else 0.0
        report["absent"] = sorted(absent)
        named = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "ops_per_s": timing["ops_per_s"],
            "op_p50_s": timing["op_p50_s"],
            "op_tail_s": timing["op_tail_s"],
            "peak_rss_mb": max(rss) / 1024 if rss else 0.0,
        }
        named = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": not errors and failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": named,
    }
    return report, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "monocat" / "__init__.py").is_file():
        print(f"no monocat sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
