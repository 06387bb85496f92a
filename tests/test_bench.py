"""The benchmark harness's own tests (``bench/selftest.py``), run with the
engine's tests so that an engine change that breaks the harness fails here."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gc_probe_names_the_place_of_each_full_collection():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gc_probe.py"), "word_problem", "1", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    head, *places = proc.stdout.splitlines()
    found = re.fullmatch(
        r"word_problem seed 1 unit 0: (\d+) full collections, (\d+) calibration readings", head
    )
    assert found and int(found[1]) == len(places)
    readings = int(found[2])
    known = {"set-up", "between items", "checks", "explore:zigzag"}
    known |= {f"calibration reading {k}" for k in range(1, readings)}
    known.add(f"calibration reading {readings} (final)")
    assert {place.strip() for place in places} <= known
