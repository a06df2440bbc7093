import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trilam.chords import Chord
from trilam.cli import main
from trilam.lamination import (
    canonical_diameter,
    canonical_of_quadratic_gap,
    canonical_of_rotational,
    dumps,
    quadratic_canonical,
    read_lamination,
    write_lamination,
)
from trilam.lamsets import parse_lamset
from trilam.quadgap import build_gap


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_classify_critical_leaf_diameter_gap(capsys):
    code, out, _ = run(capsys, "classify-critical-leaf", "1/12-5/12")
    assert code == 0
    assert "PeriodicType n_c=1 major=1/2-0" in out


def test_classify_critical_leaf_regular(capsys):
    code, out, _ = run(capsys, "classify-critical-leaf", "1/3-2/3")
    assert code == 0
    assert "RegularCritical" in out


def test_classify_critical_leaf_caterpillar_names_its_periodic_end(capsys):
    code, out, _ = run(capsys, "classify-critical-leaf", "0-1/3")
    assert code == 0
    assert out.splitlines()[1:] == ["tag: Caterpillar", "major: 0-1/2", "major_period: 1",
                                    "periodic_endpoint: 0", "image_in_basis: true"]


def test_classify_critical_leaf_rejects_non_critical(capsys):
    code, _, err = run(capsys, "classify-critical-leaf", "0-1/2")
    assert code == 1
    assert "error" in err


def test_classify_critical_leaf_bad_syntax(capsys):
    code, _, err = run(capsys, "classify-critical-leaf", "banana")
    assert code == 2
    assert "usage error" in err


def test_build_gap(capsys):
    code, out, _ = run(capsys, "build-gap", "145/156-41/156", "--depth", "2")
    assert code == 0
    assert "kind=periodic-type" in out
    assert "major=7/26-12/13" in out
    assert "hole=12/13,7/26" in out


def test_build_gap_rejects_caterpillar(capsys):
    code, _, err = run(capsys, "build-gap", "0-1/3")
    assert code == 1
    assert err == "error: caterpillar critical chords do not span a plain quadratic gap\n"


def test_vassal(capsys):
    code, out, _ = run(capsys, "vassal", "1/12-5/12", "--depth", "2")
    assert code == 0
    assert "co_major: 1/6-1/3" in out
    assert "arcs: [0,1/6] [1/3,1/2]" in out


def test_build_canonical_and_check(capsys, tmp_path):
    path = str(tmp_path / "diam.lam")
    code, out, _ = run(capsys, "build-canonical", "diameter",
                       "--depth", "4", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "check-invariance", "--in", path)
    assert code == 0
    assert "ok: true" in out


def test_build_canonical_missing_argument(capsys):
    code, _, err = run(capsys, "build-canonical", "rotational")
    assert code == 2
    assert "usage error" in err


def test_full_pipeline(capsys, tmp_path):
    path = str(tmp_path / "fg1.lam")
    code, _, _ = run(capsys, "build-canonical", "rotational",
                     "--set", "7/26,4/13,11/26,10/13,21/26,12/13",
                     "--depth", "4", "--out", path)
    assert code == 0

    code, out, _ = run(capsys, "check-invariance", "--in", path)
    assert code == 0 and "ok: true" in out

    code, out, _ = run(capsys, "classify-smp", "--in", path)
    assert code == 0 and "case=2 type=D" in out

    code, out, _ = run(capsys, "core-report", "--in", path)
    assert code == 0 and "summary: SinglePoint" in out

    code, out, _ = run(capsys, "clean", "--in", path)
    assert code == 0 and "whole_disk: true" in out

    svg = str(tmp_path / "fg1.svg")
    code, out, _ = run(capsys, "render", "--in", path, "--out", svg)
    assert code == 0
    assert open(svg).read().startswith("<svg")


def test_find_rotational(capsys):
    code, out, _ = run(capsys, "find-rotational", "--rho", "1/3", "--orbits", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "1/26,3/26,9/26 type=A" in lines
    assert len(lines) == 4


def test_find_rotational_d2(capsys):
    code, out, _ = run(capsys, "find-rotational", "--d", "2", "--rho", "1/3",
                       "--orbits", "1")
    assert code == 0
    assert out.strip() == "1/7,2/7,4/7 type=A"


def test_project(capsys, tmp_path):
    path = str(tmp_path / "diam.lam")
    run(capsys, "build-canonical", "diameter", "--depth", "3", "--out", path)
    out_path = str(tmp_path / "proj.lam")
    code, _, _ = run(capsys, "project", "--in", path,
                     "--critical", "7/12-11/12", "--out", out_path)
    assert code == 0
    P = read_lamination(out_path)
    assert P.d == 2


def test_clean_rejects_partial_registry(capsys, tmp_path):
    path = str(tmp_path / "bare.lam")
    with open(path, "w") as fh:
        fh.write("d=3 depth=0 recipe=manual\nregistry=partial\n"
                 "[leaves]\n0-1/2 0\n[gaps]\n")
    code, _, err = run(capsys, "clean", "--in", path)
    assert code == 1
    assert "registry" in err


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "check-invariance", "--in", "/nonexistent.lam")
    assert code == 1


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_render_requires_source(capsys):
    code, _, err = run(capsys, "render", "--out", "/tmp/x.svg")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("build-canonical", "diameter", "--out"),
    ("build-canonical", "rotational", "--set", "1/26,3/26,9/26", "--out"),
    ("build-gap", "145/156-41/156"),
    ("vassal", "1/12-5/12"),
])
def test_negative_depth_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "neg.lam"
    if argv[-1] == "--out":
        argv += (str(path),)
    code, out, err = run(capsys, *argv, "--depth", "-1")
    assert code == 2
    assert out == ""
    assert err == "usage error: --depth must be >= 0, got -1\n"
    assert not path.exists()


@pytest.mark.parametrize("argv, bound", [
    (("diameter", "--depth", "20"), "up to 5230176601"),
    (("diameter", "--depth", "1000000000000"), "more than 141214768240"),
], ids=["depth-20", "depth-10**12"])
def test_build_canonical_past_the_leaf_budget_is_usage_error(tmp_path, argv, bound):
    # a subprocess with a timeout: without the budget, depth 20 runs until
    # the memory runs out
    path = tmp_path / "deep.lam"
    proc = subprocess.run(
        [sys.executable, "-m", "trilam.cli", "build-canonical", *argv, "--out", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"usage error: depth {argv[-1]} may build {bound} leaves, "
                           f"over the leaf budget of 5000000\n")
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    (("build-gap", "145/156-41/156", "--depth", "20"), "scan up to 5230176580"),
    (("build-gap", "145/156-41/156", "--depth", "1000000000000"), "scan more than 15690529782"),
    (("vassal", "1/12-5/12", "--depth", "20"), "return up to 2097152"),
    (("vassal", "1/12-5/12", "--depth", "1000000000000"), "return more than 4194304"),
], ids=["build-gap-20", "build-gap-10**12", "vassal-20", "vassal-10**12"])
def test_vertex_lists_past_the_point_budget_are_usage_errors(argv, message):
    # a subprocess with a timeout: without the budget, build-gap at depth 20
    # scans 5 * 10**9 points, and vassal lists 2 * 10**6 of them
    proc = subprocess.run(
        [sys.executable, "-m", "trilam.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"usage error: depth {argv[-1]} may {message} points, "
                           f"over the point budget of 1048576\n")


@pytest.mark.parametrize("argv, message", [
    (("--rho", "1/128"), "q = 128 may scan up to 1073280"),
    (("--rho", "1/1000000000"), "q = 1000000000 may scan up to 500000001500000001000000000"),
    (("--d", "2", "--rho", "1/1024"), "q = 1024 may scan up to 1049600"),
], ids=["q-128", "q-10**9", "d2-q-1024"])
def test_find_rotational_past_the_point_budget_is_usage_error(argv, message):
    # a subprocess with a timeout and 1 GiB of address space: the scan's
    # count, C(q + d - 1, d - 1) digit words of q points, is held before any
    # word is read, and without the budget q = 10**9 would never end
    proc = subprocess.run(
        [sys.executable, "-c", "import resource, sys; "
         "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from trilam.cli import main; sys.exit(main(sys.argv[1:]))",
         "find-rotational", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"usage error: {message} points, over the point budget of 1048576\n"


@pytest.mark.parametrize("argv, count, types", [
    (("--rho", "1/16"), 33, {"type=A": 2, "type=B": 15, "type=D": 16}),
    (("--d", "2", "--rho", "1/23"), 1, {"type=A": 1}),
], ids=["q-16", "d2-q-23"])
def test_find_rotational_answers_past_the_old_walk(argv, count, types):
    # a walk over the d^q - 1 points of period q stopped here: q + 1 cycles
    # and q two-orbit unions for sigma_3, the one cycle of 1/(2^23 - 1) for
    # sigma_2
    proc = subprocess.run(
        [sys.executable, "-m", "trilam.cli", "find-rotational", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == count
    assert {t: sum(ln.endswith(" " + t) for ln in lines) for t in types} == types
    if argv[1] == "2":
        assert lines == [",".join(f"{2 ** k}/8388607" for k in range(23)) + " type=A"]


@pytest.mark.parametrize("command", ["core-report", "classify-smp"])
@pytest.mark.parametrize("bound", ["-5", "-1", "0"])
def test_period_bound_below_one_is_usage_error(capsys, tmp_path, command, bound):
    # a quadratic-gap file, which classify-smp would otherwise call in_smp
    path = str(tmp_path / "reg.lam")
    run(capsys, "build-canonical", "quadratic-gap", "--critical", "1/3-2/3",
        "--depth", "1", "--out", path)
    code, out, err = run(capsys, command, "--in", path, "--period-bound", bound)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --period-bound must be >= 1, got {bound}\n"
    code, out, _ = run(capsys, command, "--in", path, "--period-bound", "1")
    assert code == 0
    assert "period_bound: 1\n" in out


def test_classify_smp_does_not_read_the_recipe(capsys, tmp_path):
    # one leaf that is not invariant, labelled with a canonical recipe
    path = tmp_path / "probe.lam"
    path.write_text("d=3 depth=1 recipe=diameter\nregistry=partial\n"
                    "[leaves]\n1/5-2/7 0\n[gaps]\n")
    code, out, err = run(capsys, "classify-smp", "--in", str(path))
    assert (code, err) == (0, "")
    assert out == ("in_smp: false\nverdict: NotSMP\nperiod_bound: 6\n"
                   "certified: false (period bound may be insufficient)\n"
                   "note: no periodic rotational class found up to the period bound\n")


def test_classify_smp_is_inconclusive_without_a_containing_gap(capsys, tmp_path):
    # a type B set of rotation 1/12: one rotational class, and no quadratic
    # gap of period <= 6 holds it
    path = str(tmp_path / "q12.lam")
    code, out, _ = run(capsys, "build-canonical", "rotational", "--set",
                       "1/1456,3/1456,9/1456,27/1456,81/1456,243/1456,729/1456,731/1456,"
                       "737/1456,755/1456,809/1456,971/1456", "--depth", "1", "--out", path)
    assert (code, out) == (0, f"36 leaves -> {path}\n")
    code, out, _ = run(capsys, "check-invariance", "--in", path)
    assert code == 0 and "ok: true" in out
    code, out, err = run(capsys, "classify-smp", "--in", path)
    assert (code, err) == (0, "")
    assert out == ("in_smp: false\nverdict: NotSMP\nperiod_bound: 6\n"
                   "certified: false (period bound may be insufficient)\n"
                   "note: single rotational class but no containing quadratic gap "
                   "found within the period bound; inconclusive\n")


@pytest.mark.parametrize("index", ["-5", "-1", "1"])
def test_project_gap_index_out_of_range(capsys, tmp_path, index):
    path = str(tmp_path / "p3.lam")
    run(capsys, "build-canonical", "quadratic-gap", "--critical",
        "145/156-41/156", "--depth", "1", "--out", path)
    code, out, err = run(capsys, "project", "--in", path, "--gap-index", index)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --gap-index must be in 0..0, got {index}\n"


def test_project_default_gap_index(capsys, tmp_path):
    path = str(tmp_path / "reg.lam")
    run(capsys, "build-canonical", "quadratic-gap", "--critical", "1/3-2/3",
        "--depth", "2", "--out", path)
    code, out, _ = run(capsys, "project", "--in", path)
    assert code == 0
    assert out.startswith("d=2 depth=2 recipe=projected:quadratic-gap:1/3-2/3\n")


@pytest.mark.parametrize("rho", ["3/2", "4/3", "1", "0", "-1/3", "1/0", "half"])
def test_find_rotational_rejects_bad_rho(capsys, rho):
    code, out, err = run(capsys, "find-rotational", f"--rho={rho}")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_find_rotational_rejects_degree_below_two(capsys, d):
    code, out, err = run(capsys, "find-rotational", "--rho", "1/3", "--d", d)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --d must be >= 2, got {d}\n"


@pytest.mark.parametrize("d", ["4", "5"])
def test_find_rotational_rejects_degree_above_three(capsys, d):
    # at d >= 4 a rotational cycle can have up to d - 1 majors, and the
    # classifier would drop some of Goldberg's C(d + 1, 3) cycles for 1/3
    code, out, err = run(capsys, "find-rotational", "--rho", "1/3", "--d", d,
                         "--orbits", "1")
    assert code == 2
    assert out == ""
    assert err == f"usage error: --d must be 2 or 3, got {d}\n"


@pytest.mark.parametrize("text, err", [
    ("depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n", "line 1: missing field d="),
    ("", "line 1: empty lamination file"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\nG0 kind=attached\n",
     "line 5: missing field set="),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\nG0\n",
     "line 5: gap line without a spec"),
    ("d=3 depth=1 recipe=x\n[leaves]\n1/3-2/3 zz\n[gaps]\n",
     "line 3: level must be an integer, got 'zz'"),
    ("d=7 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n",
     "line 1: degree must be 2 or 3, got d=7"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 9\n[gaps]\n",
     "line 3: level 9 is outside 0..1"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 -3\n[gaps]\n",
     "line 3: level -3 is outside 0..1"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=bogus major=0-1/2 hole=0,1/2 period=1 critical=-\n",
     "line 5: unknown gap kind 'bogus'"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=finite degree=2 vertices=1/3,2/3\n",
     "line 5: gap degree 2 does not match d=3"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=attached degree=3 set=7/26,11/26,21/26 index=3\n",
     "line 5: attached gap index 3 is not an edge of a 3-vertex set"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal-image major=7/26-12/13 hole=12/13,7/26 period=3\n",
     "line 5: missing field power="),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=periodic-type major=7/26-12/13 hole=12/13,7/26 period=3\n",
     "line 5: missing field critical="),
    ("d=2 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal major=7/26-12/13 hole=12/13,7/26 period=3 critical=10/39-73/78\n",
     "line 5: a vassal gap needs d=3, got d=2"),
    ("d=2 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal-image power=1 major=7/26-12/13 hole=12/13,7/26 period=3 "
     "critical=10/39-73/78\n",
     "line 5: a vassal-image gap needs d=3, got d=2"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=periodic-type major=7/26-12/13 hole=12/13,7/26 period=q critical=-\n",
     "line 5: period must be an integer, got 'q'"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=periodic-type major=7/26-12/13 hole=12/13,7/26 period=-3 critical=-\n",
     "line 5: period must be >= 1, got -3"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal major=7/26-12/13 hole=12/13,7/26 period=-2 critical=10/39-73/78\n",
     "line 5: period must be >= 1, got -2"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal-image power=-5 major=7/26-12/13 hole=12/13,7/26 period=0 "
     "critical=10/39-73/78\n",
     "line 5: period must be >= 1, got 0"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal-image power=3 major=7/26-12/13 hole=12/13,7/26 period=3 "
     "critical=10/39-73/78\n",
     "line 5: vassal-image power 3 is outside 1..2"),
    ("d=3 depth=1 recipe=x\n[leaves]\n1/3-2/3 0\n[gaps]\n"
     "G0 kind=regular-critical major=0-1/2 hole=1/3,2/3 period=- critical=1/3-2/3\n",
     "line 5: major 0-1/2 does not join the hole ends 1/3,2/3"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal major=7/26-12/13 hole=12/13,7/26 period=3 critical=1/3-2/3\n",
     "line 5: critical 1/3-2/3 is not the co-major 10/39-73/78 of the hole"),
    ("d=3 depth=1 recipe=x\n[leaves]\n0-1/2 0\n[gaps]\n"
     "G0 kind=vassal-image power=1 major=7/26-12/13 hole=12/13,7/26 period=3 "
     "critical=-\n",
     "line 5: critical - is not the co-major 10/39-73/78 of the hole"),
], ids=["no-degree", "empty", "attached-no-fields", "gap-no-spec", "bad-level", "d7",
        "level-above-depth", "level-negative", "bogus-kind", "degree-mismatch",
        "attached-bad-index", "image-no-power", "gap-no-critical", "d2-vassal", "d2-image",
        "period-not-integer", "gap-period-negative", "vassal-period-negative",
        "image-period-zero", "image-power-at-period", "major-off-hole", "vassal-critical",
        "image-critical"])
def test_malformed_lam_file_is_usage_error(capsys, tmp_path, text, err):
    path = tmp_path / "bad.lam"
    path.write_text(text)
    code, out, got = run(capsys, "check-invariance", "--in", str(path))
    assert code == 2
    assert out == ""
    assert got == f"usage error: {err}\n"


@pytest.mark.parametrize("argv", [
    ("quadratic-d2", "--set", "1/7,2/7,4/7"),
    ("rotational", "--set", "1/26,3/26,9/26"),
])
def test_build_canonical_at_depth_one(capsys, argv):
    # both used to fail here with PullbackAmbiguityError, though deeper
    # builds succeeded
    code, out, err = run(capsys, "build-canonical", *argv, "--depth", "1")
    assert code == 0
    assert err == ""
    assert out.startswith(f"d={2 if argv[0] == 'quadratic-d2' else 3} depth=1 ")


@pytest.mark.parametrize("size", ["-5", "0"])
def test_render_rejects_non_positive_size(capsys, tmp_path, size):
    path = tmp_path / "x.svg"
    code, out, err = run(capsys, "render", "--chord", "1/3-2/3", "--size", size,
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"usage error: --size must be > 0, got {size}\n"
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    (("quadratic-gap",), "variant quadratic-gap needs --critical CHORD"),
    (("quadratic-d2",), "variant quadratic-d2 needs --set ANGLES"),
    (("rotational", "--set", "1/26,x"), "bad angle syntax: 'x'"),
], ids=["no-critical", "no-set", "bad-set"])
def test_build_canonical_without_its_input_is_usage_error(capsys, tmp_path, argv, message):
    path = tmp_path / "x.lam"
    code, out, err = run(capsys, "build-canonical", *argv, "--out", str(path))
    assert (code, out, err) == (2, "", f"usage error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("d", ["1", "0"])
def test_render_rejects_degree_below_two(capsys, tmp_path, d):
    path = tmp_path / "x.svg"
    code, out, err = run(capsys, "render", "--set", "1/3,2/3", "--d", d,
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"usage error: --d must be >= 2, got {d}\n"
    assert not path.exists()


# ---------------------------------------------------------------------------
# input-contract fuzzing: mutated .lam files through every reading command

_FUZZ_BASES = [dumps(L).splitlines() for L in (
    canonical_of_quadratic_gap(build_gap(Chord(F(145, 156), F(41, 156)), depth=0)[0], 2),
    canonical_of_rotational(parse_lamset("7/26,11/26,21/26"), 2),
    canonical_diameter(2),
    quadratic_canonical(parse_lamset("1/7,2/7,4/7", 2), 2),
)]
_MALFORMED = [
    # headers and section markers
    "d=3 depth=2", "d=2 depth=2 recipe=x", "d=3 depth=-1 recipe=x", "d=x depth=2 recipe=x",
    "d=3 depth=7 recipe=x", "d=4 depth=2 recipe=x", "d=3 d=3 depth=2 recipe=x",
    "registry=complete", "registry=partial", "registry=", "[leaves]", "[gaps]", "[other]",
    "", "garbage", "=", "d=", "depth=2",
    # leaves and levels
    "0-1/2 0", "1/3-2/3 1", "1/3-2/3", "1/3 2/3 0", "1/0-1/2 0", "a-b 0", "0-0 0",
    "1/2-1/2 1", "-1/3-1/3 0", "5/4-1/3 0", "1/3-2/3 x", "1/3-2/3 2 extra", "1/7-2/7 2",
    "1/9-4/9 2", "0-1/3 -1", "1/3-2/3 3", "1/3-2/3 99999999999999999999", "1/3--2/3 0",
    "1/3-2/3-1/2 0", "0.5-1/3 0", "1/3-2/3 1.5",
    # gap specs
    "G0", "G0 kind=", "G0 kind=bogus", "G0 kind=finite degree=3 vertices=",
    "G0 kind=finite degree=3 vertices=1/3", "G0 kind=finite degree=3 vertices=1/3,1/3",
    "G0 kind=finite degree=2 vertices=1/3,2/3", "G0 kind=finite degree=x vertices=1/3,2/3",
    "G0 kind=attached set=7/26,11/26", "G0 kind=attached set=1/0",
    "G0 kind=periodic-type major=1/3-2/3 hole=1/3,2/3 period=1 critical=1/3-2/3",
    "G0 kind=periodic-type major=0-1/2 hole=0,1/2 period=0 critical=-",
    "G0 kind=periodic-type major=7/26-12/13 hole=12/13,7/26 period=x critical=-",
    "G0 kind=vassal major=0-1/2 hole=0,1/2 period=1 critical=1/6-1/3",
    "G0 kind=vassal major=0-1/2 hole=1/2,0 period=2 critical=-",
    "G0 kind=vassal-image power=-1 major=0-1/2 hole=0,1/2 period=1 critical=1/6-1/3",
    "G0 kind=vassal-image power=x major=0-1/2 hole=0,1/2 period=1 critical=1/6-1/3",
    "G0 kind=regular-critical major=1/3-2/3 hole=2/3,1/3 period=- critical=1/3-2/3",
    "G0 kind=regular-critical major=1/3-2/3",
]
_FUZZ_POOL = _MALFORMED + sorted({ln for base in _FUZZ_BASES for ln in base})


@st.composite
def _mutated_lam(draw):
    """A depth-2 .lam file with 1-4 lines replaced, inserted or deleted."""
    lines = list(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        i = draw(st.integers(0, len(lines)))
        if op == "insert":
            lines.insert(i, draw(st.sampled_from(_FUZZ_POOL)))
        elif i < len(lines):
            if op == "replace":
                lines[i] = draw(st.sampled_from(_FUZZ_POOL))
            else:
                del lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(_mutated_lam())
def test_mutated_lam_files_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.lam")
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (["check-invariance"], ["core-report"], ["classify-smp"], ["project"],
                     ["render", "--out", os.path.join(tmp, "fuzz.svg")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--in", path])
            assert code in (0, 1, 2), (argv, code)


@pytest.mark.parametrize("chord, segment", [
    # 3^-20 wide: the float geodesic's radicand rounds below 0
    ("1/3-1162261468/3486784401", " A 0.000000 0.000000 0 0 1 "),
    # 3^-20 off a diameter: the endpoints' float dot product is exactly -1
    ("0-3486784403/6973568802", " L "),
], ids=["thin", "near-diameter"])
def test_render_chords_floats_cannot_resolve(capsys, tmp_path, chord, segment):
    path = tmp_path / "x.svg"
    code, out, err = run(capsys, "render", "--chord", chord, "--out", str(path))
    assert (code, out, err) == (0, f"wrote {path}\n", "")
    (p,) = re.findall(r'<path d="([^"]+)"', path.read_text())
    assert segment in p


# ---------------------------------------------------------------------------
# argv fuzzing: every subcommand with drawn flags, values and stray tokens

# denominators whose sigma_3-orbits stay short: small ones, and 3-powers up
# to 3^20 for angles far closer together than a pixel
_DENS = [1, 2, 3, 4, 6, 7, 12, 26, 156, 3 ** 10, 2 * 3 ** 10, 3 ** 20, 2 * 3 ** 20]
_THIN = F(1, 3 ** 30)
# offsets b - a: critical chords of sigma_3 (so gap commands get past their
# check), and chords 3^-30 wide or 3^-30 off a diameter, which floats blur
_OFFSETS = [F(1, 3), F(2, 3), _THIN, F(1, 2) + _THIN]
_STRAY = ["", "-", "--", "--bogus", "x", "1/0", "-1", "0-1/2-1", "--depth", "--out", "-h"]


@st.composite
def _angle(draw):
    q = draw(st.sampled_from(_DENS))
    return F(draw(st.integers(-1, q + 1)), q)


def _fmt_angle(x):
    return f"{x.numerator}/{x.denominator}"


def _token(made, fixed):
    """Mostly a made-up value, else a known-good one or a stray token."""
    return st.one_of(made, made, st.sampled_from(fixed), st.sampled_from(_STRAY))


@st.composite
def _made_chord(draw):
    a = draw(_angle())
    b = a + draw(st.sampled_from(_OFFSETS)) if draw(st.booleans()) else draw(_angle())
    return f"{_fmt_angle(a)}-{_fmt_angle(b)}"


@st.composite
def _made_set(draw):
    pts = draw(st.lists(_angle(), min_size=1, max_size=4))
    pts += [pts[0] + off for off in draw(st.lists(st.sampled_from(_OFFSETS), max_size=2))]
    return ",".join(map(_fmt_angle, pts))


_CHORD = _token(_made_chord(), ["1/3-2/3", "145/156-41/156", "1/12-5/12", "0-1/2"])
_SET = _token(_made_set(), ["1/26,3/26,9/26", "7/26,11/26,21/26", "1/7,2/7,4/7", "1/3,2/3"])


def _ints(*values):
    return st.sampled_from([str(v) for v in values] + ["x"])


@st.composite
def _argv(draw, tmp):
    """A command line for `trilam`: a subcommand, its required flags, some of
    its other flags, bounded values and at times a stray token.  Files are
    only under `tmp`; render gets one of its three sources."""
    path = st.sampled_from([os.path.join(tmp, name) for name in ("in.lam", "none.lam")])
    out = st.sampled_from([os.path.join(tmp, name) for name in ("out.lam", "out.svg", "")])
    depth = _ints(-1, 0, 1, 2)
    rho = st.builds(lambda p, q: f"{p}/{q}", st.integers(-1, 7), st.integers(0, 6))
    period_bound = _ints(-1, 0, 1, 6)
    source = draw(st.sampled_from([{"--in": path}, {"--set": _SET}, {"--chord": _CHORD}]))
    # subcommand -> (flags always given, flags given at random)
    commands = {
        "classify-critical-leaf": ({}, {}),
        "build-gap": ({}, {"--depth": depth}),
        "vassal": ({}, {"--depth": depth}),
        "build-canonical": ({}, {"--critical": _CHORD, "--set": _SET, "--depth": depth,
                                 "--out": out}),
        "find-rotational": ({"--rho": rho}, {"--d": _ints(-1, 1, 2, 3, 4),
                                             "--orbits": _ints(0, 1, 2)}),
        "check-invariance": ({"--in": path}, {}),
        "clean": ({"--in": path}, {}),
        "classify-smp": ({"--in": path}, {"--period-bound": period_bound}),
        "core-report": ({"--in": path}, {"--period-bound": period_bound}),
        "project": ({"--in": path}, {"--critical": _CHORD, "--gap-index": _ints(-1, 0, 1, 5),
                                     "--out": out}),
        "render": ({"--out": out, **source}, {"--d": _ints(1, 2, 3), "--size": _ints(-1, 1, 64),
                                              "--labels": st.none()}),
    }
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    if command in ("classify-critical-leaf", "build-gap", "vassal"):
        argv.append(draw(_CHORD))
    elif command == "build-canonical":
        argv.append(draw(st.sampled_from(["quadratic-gap", "diameter", "rotational",
                                          "quadratic-d2", "bogus"])))
    always, sometimes = commands[command]
    for flag, values in [*always.items(), *sometimes.items()]:
        if flag in always or draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_STRAY)))
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_argv_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "in.lam"), "w") as fh:
            fh.write("\n".join(data.draw(st.sampled_from(_FUZZ_BASES))) + "\n")
        argv = data.draw(_argv(tmp))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)


def _outcomes(argvs, out_dir):
    """Exit code, stdout, stderr and the bytes of every file written, for
    each command line run in turn in this process."""
    results = {}
    for argv in argvs:
        for f in out_dir.iterdir():
            f.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        written = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        results[argv] = (code, out.getvalue(), err.getvalue(), written)
    return results


def test_parser_reuse_leaks_nothing_between_calls(tmp_path):
    """Every subcommand, a usage error, an unknown subcommand and --help
    give the same outcome whichever command lines ran before them in the
    process: run forwards, then backwards, so that a flag or default left
    over from one call would change the next."""
    rot, gap = str(tmp_path / "rot.lam"), str(tmp_path / "gap.lam")
    write_lamination(canonical_of_rotational(parse_lamset("1/26,3/26,9/26"), 2), rot)
    write_lamination(canonical_of_quadratic_gap(
        build_gap(Chord(F(1, 3), F(2, 3)), depth=0)[0], 2), gap)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir)
    argvs = [tuple(a) for a in (
        ["classify-critical-leaf", "145/156-41/156"],
        ["build-gap", "1/3-2/3", "--depth", "2"],
        ["vassal", "1/12-5/12", "--depth", "1"],
        ["build-canonical", "diameter", "--depth", "2", "--out", f"{out}/d.lam"],
        ["build-canonical", "rotational", "--set", "7/26,11/26,21/26", "--depth", "1"],
        ["find-rotational", "--rho", "1/3"],
        ["find-rotational", "--d", "2", "--rho", "2/5", "--orbits", "1"],
        ["check-invariance", "--in", rot],
        ["clean", "--in", gap],
        ["classify-smp", "--in", rot],
        ["core-report", "--in", rot, "--period-bound", "2"],
        ["core-report", "--in", rot],
        ["project", "--in", gap, "--out", f"{out}/p.lam"],
        ["render", "--set", "1/26,3/26,9/26", "--out", f"{out}/r.svg", "--labels"],
        ["render", "--set", "1/26,3/26,9/26", "--out", f"{out}/r.svg"],
        ["render", "--in", gap, "--size", "64", "--out", f"{out}/g.svg"],
        ["build-gap", "1/3-2/3", "--depth", "x"],
        ["bogus"],
        ["--help"],
        ["core-report", "--help"],
    )]
    forwards = _outcomes(argvs, out_dir)
    assert _outcomes(argvs[::-1], out_dir) == forwards
    # the pairs that a leak would merge do differ
    labels, plain = forwards[argvs[13]], forwards[argvs[14]]
    assert labels[3]["r.svg"] != plain[3]["r.svg"]
    assert forwards[argvs[10]][1].startswith("period_bound: 2\n")
    assert forwards[argvs[11]][1].startswith("period_bound: 6\n")
    assert [forwards[a][0] for a in argvs[-4:]] == [2, 2, 0, 0]
    assert all(forwards[a][0] == 0 for a in argvs[:-4])
