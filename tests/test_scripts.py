"""Smoke tests for the measurement scripts under scripts/, run as a user
runs them, in a child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_dim_sweep_flags_are_true():
    done = run_script("scripts/dim_sweep.py", "8", "12")
    assert done.returncode == 0, done.stderr
    sweep = json.loads(done.stdout)["sweep"]
    assert set(sweep) == {"8", "12"}
    for row in sweep.values():
        flags = {k: v for k, v in row.items() if k.endswith("_ok")}
        assert len(flags) == 8 and all(flags.values()), flags
        layers = [row[k] for k in ("rays_s", "hits_s", "measure_s")]
        assert all(isinstance(t, float) and t >= 0 for t in layers), row


def test_same_outputs_finds_no_difference_between_equal_trees():
    done = run_script("scripts/same_outputs.py", "src", "src", "--seeds", "5",
                      "--rounds", "certify=0,probe=1,search=0")
    assert done.returncode == 0, done.stdout + done.stderr
    *streams, total = done.stdout.splitlines()
    assert [line.split(":")[0] for line in streams] == [
        "seed 5 certify", "seed 5 probe", "seed 5 search"]
    assert all(line.endswith(" 0 differ") for line in streams), streams
    assert total.startswith("real differences: 0; witness-only differences: 0,")


def test_decompose_sweep_reports_every_signature():
    done = run_script("scripts/decompose_sweep.py", "--lo", "8", "--hi", "10")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    # Four complete or near-complete signatures per max, then the random ones.
    assert report["signatures"] == report["finished"] == 3 * 4 + 120
    assert report["budget"] == 10 and report["unfinished"] == []
    assert 0 < report["p50_s"] <= report["p90_s"] <= report["worst"]["seconds"]
    assert report["worst"]["signature"].startswith("{0,")
