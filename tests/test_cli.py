import pytest

from trilam.cli import main
from trilam.lamination import read_lamination


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
    assert "build_caterpillar" in err or "caterpillar" in err


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
], ids=["no-degree", "empty", "attached-no-fields", "gap-no-spec", "bad-level", "d7",
        "level-above-depth", "level-negative", "bogus-kind", "degree-mismatch"])
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


@pytest.mark.parametrize("d", ["1", "0"])
def test_render_rejects_degree_below_two(capsys, tmp_path, d):
    path = tmp_path / "x.svg"
    code, out, err = run(capsys, "render", "--set", "1/3,2/3", "--d", d,
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"usage error: --d must be >= 2, got {d}\n"
    assert not path.exists()
