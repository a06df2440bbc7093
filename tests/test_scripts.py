"""Smoke tests: the scripts in scripts/ run to completion at depth 1, and
report a depth or a q they cannot build in one line."""

import os
import re
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, timeout=300):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_smp_survey_runs():
    proc = _run_script("smp_survey.py", "--max-q", "4", "--depth", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # the 37 sigma_3 rotational sets with q <= 4, one line each, then the tally
    assert proc.stdout.splitlines()[-4:] == [
        "",
        "type A -> RotationalInsideQuadraticGap: 10",
        "type B -> RotationalInsideQuadraticGap: 11",
        "type D -> CanonicalTypeD: 16",
    ]


def test_gap_gallery_runs(tmp_path):
    proc = _run_script("gap_gallery.py", "--depth", "1", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"{name}.svg" for name in (
        "diameter", "regular_critical", "period3_gap", "fingap1", "fingap2",
        "fingap3", "rabbit_d2"))
    assert all((tmp_path / n).read_text().startswith("<svg") for n in names)


def test_rotational_census_runs_past_the_old_walk():
    # sigma_3 up to q = 20, past the q = 14 where a walk over every point of
    # period q stopped: q + 1 cycles and q two-orbit unions per p/q
    proc = _run_script("rotational_census.py", "--max-q", "20", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    heads = [ln for ln in lines if ln.startswith("rho = ")]
    assert len(heads) == sum(1 for q in range(2, 21) for p in range(1, q) if gcd(p, q) == 1)
    for ln in heads:
        q, n = re.fullmatch(r"rho = \d+/(\d+): (\d+) sets", ln).groups()
        assert int(n) == 2 * int(q) + 1, ln
    totals = dict(t.split("=") for t in lines[-1].removeprefix("totals: ").split())
    assert sum(map(int, totals.values())) == len(lines) - len(heads) - 1


def test_depth_probe_runs():
    proc = _run_script("depth_probe.py", "fingap1", "--depth", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["recipe: fingap1 depth=2", "leaves: 54", "check_ok: true"]
    assert [ln.split()[0] for ln in lines[3:]] == [
        "build_s:", "check_s:", "dumps_s:", "total_s:", "dumps_sha256:", "loads_s:",
        "loads_equal:"]
    assert all(lines[i].split()[2] == "rss_mb:" for i in (3, 4, 5, 8))
    assert len(lines[7].split()[1]) == 64
    assert lines[9] == "loads_equal: true"


def test_depth_probe_past_the_leaf_budget_is_usage_error():
    proc = _run_script("depth_probe.py", "diameter", "--depth", "20")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("usage error: depth 20 may build up to 5230176601 leaves, "
                           "over the leaf budget of 5000000\n")


@pytest.mark.parametrize("script, args, err", [
    ("gap_gallery.py", ("--depth", "20"),
     "depth 20 may build up to 5230176601 leaves, over the leaf budget of 5000000"),
    ("gap_gallery.py", ("--depth", "-1"), "depth must be >= 0, got -1"),
    ("smp_survey.py", ("--max-q", "3", "--depth", "20"),
     "depth 20 may build up to 20920706404 leaves, over the leaf budget of 5000000"),
    ("smp_survey.py", ("--max-q", "3", "--depth", "-1"), "depth must be >= 0, got -1"),
    # the diameter and regular-critical recipes fit at depth 13 and come
    # first, as do the one-seed sets with q = 2; nothing is built or written
    ("gap_gallery.py", ("--depth", "13"),
     "depth 13 may build up to 7174452 leaves, over the leaf budget of 5000000"),
    ("smp_survey.py", ("--max-q", "3", "--orbits", "1", "--depth", "13"),
     "depth 13 may build up to 7174452 leaves, over the leaf budget of 5000000"),
    # every q below the largest fits; none of them is scanned or printed
    ("rotational_census.py", ("--max-q", "128"),
     "q = 128 may scan up to 1073280 points, over the point budget of 1048576"),
    ("rotational_census.py", ("--max-q", "1000000000"),
     "q = 1000000000 may scan up to 500000001500000001000000000 points, "
     "over the point budget of 1048576"),
    ("rotational_census.py", ("--d", "2", "--max-q", "1024"),
     "q = 1024 may scan up to 1049600 points, over the point budget of 1048576"),
], ids=["gallery-20", "gallery-negative", "survey-20", "survey-negative", "gallery-13",
        "survey-13", "census-128", "census-10**9", "census-d2-1024"])
def test_building_scripts_report_a_bad_depth_in_one_line(tmp_path, script, args, err):
    out_dir = tmp_path / "gallery"
    if script == "gap_gallery.py":
        args += ("--out-dir", str(out_dir))
    proc = _run_script(script, *args, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"usage error: {err}\n")
    assert not out_dir.exists()
