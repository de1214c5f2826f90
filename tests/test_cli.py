import hashlib
import json
import os
import subprocess
import sys

import pytest

from multifan import cli

_SQUARE = """
{
  "rank": 2,
  "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
  "cones": [
    {"rays": [1, 2], "weight": 1},
    {"rays": [2, 3], "weight": 1},
    {"rays": [3, 4], "weight": 1},
    {"rays": [1, 4], "weight": 1}
  ],
  "supports": {"unit": [1, 1, 1, 1], "skew": [-1, 2, 3, 2]}
}
"""

_WEIGHTED_PLANE = """
{
  "rank": 2,
  "rays": [[1, 0], [0, 1], [-1, -2]],
  "cones": [{"rays": [1, 2]}, {"rays": [2, 3]}, {"rays": [1, 3]}],
  "supports": {"unit": [1, 1, 1], "corner": [1, 0, 0]}
}
"""

_HALF_LINE = '{"rank": 1, "rays": [[1]], "cones": [{"rays": [1]}]}'


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(_SQUARE)
    return str(path)


@pytest.fixture
def weighted(tmp_path):
    path = tmp_path / "weighted.json"
    path.write_text(_WEIGHTED_PLANE)
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _report(capsys, argv, expect=0):
    code, out, err = _run(capsys, argv)
    assert code == expect, (code, err)
    return json.loads(out)


def test_validate_square(capsys, square):
    report = _report(capsys, ["validate", square])
    results = report["results"]
    assert results["complete"] is True
    assert results["degree"] == 1
    assert results["faces_per_cardinality"] == {"1": 4, "2": 4}
    assert results["supports"] == ["skew", "unit"]
    assert report["input_sha256"]


def test_validate_half_line(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(_HALF_LINE)
    report = _report(capsys, ["validate", str(path)])
    assert report["results"]["pre_complete"] is False
    assert report["results"]["degree"] is None


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 2, "rays": [[1, 0]], "cones": [{"rays": [1, 9]}]}')
    code, out, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "cones[0].rays[1]" in err


def test_ehrhart_polynomial_mode(capsys, square):
    report = _report(capsys, ["ehrhart", square, "unit", "--nu-check", "5"])
    assert report["results"]["mode"] == "polynomial"
    assert report["results"]["coefficients"] == [4, 4, 1]
    assert len(report["checks"]) == 5
    assert all(c["ok"] for c in report["checks"])


def test_ehrhart_quasi_polynomial_fallback(capsys, weighted):
    report = _report(capsys, ["ehrhart", weighted, "corner", "--nu-check", "4"])
    assert report["results"]["mode"] == "per-dilation-counts"
    counts = [entry["count"] for entry in report["results"]["dilations"]]
    assert counts == [2, 4, 6, 9]
    assert "warning" in report["results"]


def test_ehrhart_nu_check_zero_runs_no_brute_force_in_either_mode(capsys, weighted):
    # [1, 0, 0] on P(1,1,2) has a fractional vertex; its double is integral
    report = _report(capsys, ["ehrhart", weighted, "corner", "--nu-check", "0"])
    assert report["results"]["mode"] == "per-dilation-counts"
    assert [d["count"] for d in report["results"]["dilations"]] == [2, 4, 6]
    assert report["checks"] == []
    assert report["arguments"]["nu_check"] == 0
    report = _report(capsys, ["ehrhart", weighted, "corner", "--nu-check", "2"])
    assert [d["count"] for d in report["results"]["dilations"]] == [2, 4]
    assert [c["bruteforce"] for c in report["checks"]] == [2, 4]
    report = _report(capsys, ["ehrhart", weighted, "2,0,0", "--nu-check", "0"])
    assert report["results"]["mode"] == "polynomial"
    assert report["checks"] == []
    report = _report(capsys, ["ehrhart", weighted, "2,0,0", "--nu-check", "2"])
    assert [c["counted"] for c in report["checks"]] == [4, 9]


def test_count_and_face_count(capsys, square):
    report = _report(capsys, ["count", square, "skew"])
    assert report["results"]["formula"] == 15
    assert report["results"]["bruteforce"] == 15
    report = _report(capsys, ["count", square, "unit", "--face", "1"])
    assert report["results"]["formula"] == 3
    report = _report(capsys, ["count", square, "2,1,1,1"])
    assert report["results"]["formula"] == 12


def test_count_refuses_a_brute_force_box_over_the_budget(capsys, square):
    # the square [-600, 600]^2 needs a box of 1203^2 points
    code, out, err = _run(capsys, ["count", square, "600,600,600,600"])
    assert code == 2
    assert out == ""
    assert "box of 1447209 points exceeds the budget of 1000000 points" in err


def test_volume(capsys, square):
    report = _report(capsys, ["volume", square, "unit"])
    assert report["results"]["volume"] == 4
    report = _report(capsys, ["volume", square, "unit", "--face", "2"])
    assert report["results"]["volume"] == 2


def test_todd_genus_report(capsys, tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(
        '{"rank": 1, "rays": [[1], [-1]],'
        ' "cones": [{"rays": [1], "weight": 2}, {"rays": [2], "weight": 2}]}'
    )
    report = _report(capsys, ["todd", str(path)])
    assert report["results"]["genus"] == 2
    assert report["results"]["degree"] == 2
    names = [c["name"] for c in report["checks"]]
    assert "genus-equals-degree" in names


def test_morelli_face_classes(capsys, weighted):
    report = _report(
        capsys,
        ["morelli", weighted, "--k", "1", "--planes", "2", "--xs", "faces", "--seed", "5"],
    )
    plane = report["results"]["planes"][0]
    assert plane["certificates"] == [
        "rank-one-face-intersections",
        "nonzero-line-pairings",
        "nonzero-wedge-pairings",
        "face-covector-surjectivity",
    ]
    assert plane["mu"]["x1"] == {"{1}": 1, "{2}": 0, "{3}": 0}
    assert all(v == 0 for v in plane["residuals"].values())


def test_morelli_cohomology_mode(capsys, square):
    report = _report(
        capsys, ["morelli", square, "--k", "2", "--planes", "1", "--cohomology"]
    )
    for plane in report["results"]["planes"]:
        for residual in plane["residuals"].values():
            assert all(x == 0 for x in residual)


def test_morelli_reports_are_reproducible(capsys, square):
    argv = ["morelli", square, "--k", "1", "--planes", "3", "--seed", "7"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    _, third, _ = _run(capsys, ["morelli", square, "--k", "1", "--planes", "3", "--seed", "8"])
    assert third != first


def test_morelli_refuses_incomplete_fans(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(_HALF_LINE)
    for extra in ([], ["--cohomology"]):
        code, out, err = _run(capsys, ["morelli", str(path), "--k", "1", "--xi", "1", *extra])
        assert code == 2
        assert out == ""
        assert "complete multi-fan" in err


# sha256 of json.dumps(report["results"], sort_keys=True), pinned so that a
# change to how the coefficients or residuals are computed keeps every number
_MORELLI_GOLDEN = [
    ("square", ["--k", "1", "--xi", "unit", "--seed", "1"],
     "1ce35b523dda1cc2f162aa267b30bad668deee80b842670f88e8762c6386e5b5"),
    ("square", ["--k", "2", "--xi", "unit", "--seed", "2"],
     "462780a064cd510a98388c752fa0fbbc8f3dee384fabc95a4fff007b8b155a5c"),
    ("square", ["--k", "1", "--xs", "faces", "--seed", "11"],
     "02ca62374f149e342243efa7522a827a5531b8c795a13716fb4a515958dabd00"),
    ("square", ["--k", "2", "--xs", "faces", "--seed", "12"],
     "a38ebe51d7e4f84c48743197b90b7ae74f8d570d44e59ca27751834514af6667"),
    ("square", ["--k", "1", "--cohomology", "--seed", "21"],
     "071ef42a8ec28546ff48abee1f05820afb84a561b46a5804c7e54139e89d4d5c"),
    ("square", ["--k", "2", "--cohomology", "--seed", "22"],
     "5d29fc2c640a8de56e04190e7cbf16bb68b5ea4cb2b96ea4ed80844e1e694573"),
    ("weighted", ["--k", "1", "--xi", "unit", "--seed", "1"],
     "d8835e8432c58b3db3be5d3dd3a7b77d99616653e3b3e044618786e3b8d87cff"),
    ("weighted", ["--k", "2", "--xi", "unit", "--seed", "2"],
     "0c8f460d6bcd700fc74019bd36a3885f06fdc2b4d75472bb97a1762a72422b15"),
    ("weighted", ["--k", "1", "--xs", "faces", "--seed", "11"],
     "53fecf445c7c1972f15cceabf39c8c363660c9cc181f7ff3ed033cc53091580e"),
    ("weighted", ["--k", "2", "--xs", "faces", "--seed", "12"],
     "bb6d6b589164652652124320fbf8d3b812a49cb6eca06593c08ab2648a2d8b0f"),
    ("weighted", ["--k", "1", "--cohomology", "--seed", "21"],
     "65acb895dd5ac23067d915b0a9d9d82ddd42e9ada0cea2927956a1e3311b0219"),
    ("weighted", ["--k", "2", "--cohomology", "--seed", "22"],
     "4ea473af6176a38fcb696c7c80ee416b854eb52395b68c08b5718223d8d0c758"),
]


@pytest.mark.parametrize("fixture, args, digest", _MORELLI_GOLDEN)
def test_morelli_golden_reports(capsys, request, fixture, args, digest):
    path = request.getfixturevalue(fixture)
    report = _report(capsys, ["morelli", path, "--planes", "2", *args])
    text = json.dumps(report["results"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_subdivide_check_document_mode(capsys, square):
    report = _report(capsys, ["subdivide-check", square, "--ray", "1,1"])
    assert len(report["results"]["children"]) == 2
    assert all(c["ok"] for c in report["checks"])


def test_subdivide_check_inline_and_noop(capsys):
    report = _report(capsys, ["subdivide-check", "1,0;0,1", "--ray", "2,1"])
    sample = report["results"]["samples"][0]
    assert set(sample["residual"]) == {"-2", "-1", "0", "1", "2"}
    assert all(v == 0 for v in sample["residual"].values())
    report = _report(capsys, ["subdivide-check", "1,0;0,1"])
    assert report["results"]["children"] == [report["results"]["parent"]]


def test_subdivide_check_echoes_the_samples_and_the_lowest_order(capsys):
    argv = ["subdivide-check", "1,0;0,1", "--ray", "2,1", "--samples", "2", "--orders", "-2"]
    report = _report(capsys, argv)
    assert report["arguments"]["samples"] == 2
    assert [s["residual"] for s in report["results"]["samples"]] == [{"-2": 0}] * 2


@pytest.mark.parametrize("argv, message", [
    (["morelli", "<square>", "--k", "1", "--planes", "0"], "--planes must be at least 1"),
    (["subdivide-check", "1,0;0,1", "--samples", "0"], "--samples must be at least 1"),
    (["subdivide-check", "1,0;0,1", "--samples", "-3"], "--samples must be at least 1"),
    (["ehrhart", "<square>", "unit", "--nu-check", "-1"], "--nu-check must be at least 0"),
    (["subdivide-check", "1,0;0,1", "--orders", "-3"], "--orders must be at least -2"),
], ids=["planes", "samples-zero", "samples-negative", "nu-check", "orders"])
def test_count_flags_below_their_bounds_are_refused(capsys, square, argv, message):
    # a count that leaves a report without checks would read "ok": true, and
    # the residual window of a rank-2 cone starts at t^-2
    code, out, err = _run(capsys, [square if a == "<square>" else a for a in argv])
    assert (code, out) == (2, "")
    assert message in err


def test_subdivide_check_rejects_outside_rays(capsys):
    code, _, err = _run(capsys, ["subdivide-check", "1,0;0,1", "--ray=-1,2"])
    assert code == 2
    assert "not strictly inside" in err


def test_unknown_support_fails(capsys, square):
    code, _, err = _run(capsys, ["count", square, "nosuch"])
    assert code == 2
    assert "unknown support" in err


def test_failed_check_exits_one(capsys, square, monkeypatch):
    monkeypatch.setattr(cli, "count_bruteforce", lambda P: 999)
    code, out, _ = _run(capsys, ["count", square, "unit"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_one_process_prints_what_fresh_processes_print(capsys, square, weighted):
    # the parser is built once per process and serves every subcommand
    runs = [
        ["validate", square],
        ["ehrhart", weighted, "corner", "--nu-check", "2"],
        ["count", square, "unit", "--face", "1"],
        ["volume", square, "unit", "--face", "2"],
        ["todd", weighted, "--seed", "3"],
        ["morelli", square, "--k", "1", "--cohomology"],
        ["subdivide-check", "1,0;0,1", "--ray", "2,1"],
        ["count", square, "nosuch"],
        ["validate", weighted],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in runs:
        fresh = subprocess.run(
            [sys.executable, "-m", "multifan.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert _run(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._parser() is cli._parser()


_DEMO_SQUARE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "fans", "square.json"
)


@pytest.mark.parametrize("args", [["--k", "1"], ["--k", "2", "--cohomology"]])
def test_morelli_residuals_build_no_sum_class(capsys, monkeypatch, args):
    # the residuals are linear functionals on the face classes: no
    # residual adds classes to form sum_J mu_J x_J
    from multifan.facering import EquivariantClass

    def refuse(*_):
        raise AssertionError("a residual added two classes")

    monkeypatch.setattr(EquivariantClass, "__add__", refuse)
    monkeypatch.setattr(EquivariantClass, "__radd__", refuse)
    report = _report(capsys, ["morelli", _DEMO_SQUARE, "--planes", "2", *args])
    assert all(c["ok"] for c in report["checks"])


def test_morelli_pushes_each_face_class_forward_once(capsys, monkeypatch):
    from multifan import todd

    pushed = {}
    residual_of = []
    real_p_star, real_residual = todd.p_star, cli.face_decomposition_residual

    def residual(fan, cls, support, mu):
        residual_of.append(cls)
        return real_residual(fan, cls, support, mu)

    def counted(fan, cls, support=None, rng=None):
        if cls is not residual_of[-1]:  # a face class, not the class x itself
            key = (id(fan), support, frozenset(cls.terms))
            pushed[key] = pushed.get(key, 0) + 1
        return real_p_star(fan, cls, support=support, rng=rng)

    monkeypatch.setattr(cli, "face_decomposition_residual", residual)
    monkeypatch.setattr(todd, "p_star", counted)
    report = _report(capsys, ["morelli", _DEMO_SQUARE, "--k", "1", "--planes", "3"])
    assert all(c["ok"] for c in report["checks"])
    assert len(residual_of) == 3 * len(report["results"]["classes"])
    assert len(pushed) == len(report["results"]["faces"])
    assert set(pushed.values()) == {1}
