"""The ``--format json`` report schema, pinned by key order.

A report is ``{command, inputs, outputs, checks, passed}``; each input is
``{name, path, sha256}``, each check ``{name, passed, residual, tolerance}``
and each document a ``-o`` run writes ``{path, sha256}``, in that order.  The
outputs of each command are pinned by name as well.  Reports are strict
JSON: a non-finite residual is written "infinite".
"""

import json
import math

import pytest

from cpmean.cli import main
from cpmean.cpmaps import depolarizing, identity
from cpmean.report import Report

from conftest import write_channel

REPORT_KEYS = ["command", "inputs", "outputs", "checks", "passed"]
INPUT_KEYS = ["name", "path", "sha256"]
CHECK_KEYS = ["name", "passed", "residual", "tolerance"]
WRITTEN_KEYS = ["path", "sha256"]


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, chan in (("a", identity(2)), ("b", depolarizing(2))):
        paths[name] = str(tmp_path / f"{name}.json")
        write_channel(chan, paths[name], name=name)
    return paths


def _assert_report(rep: dict, n_inputs: int) -> None:
    assert list(rep) == REPORT_KEYS
    assert isinstance(rep["command"], str) and isinstance(rep["outputs"], dict)
    assert len(rep["inputs"]) == n_inputs
    for entry in rep["inputs"]:
        assert list(entry) == INPUT_KEYS
        assert all(isinstance(v, str) for v in entry.values())
    for check in rep["checks"]:
        assert list(check) == CHECK_KEYS
        assert isinstance(check["name"], str) and isinstance(check["passed"], bool)
        assert all(isinstance(check[k], float) for k in ("residual", "tolerance"))
    assert rep["passed"] is all(c["passed"] for c in rep["checks"])


def _strict(text: str):
    """text parsed as strict JSON (RFC 8259): the tokens Infinity and NaN raise."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _run(argv: list[str], capsys):
    assert main(["--format", "json", *argv]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    return _strict(out)


@pytest.mark.parametrize("kind", ["geo", "harm", "parallel", "log", "power:0.3"])
@pytest.mark.parametrize("out", [False, True], ids=["report", "-o"])
def test_mean(docs, tmp_path, capsys, kind, out):
    extra = ["-o", str(tmp_path / "m.json")] if out else []
    rep = _run(["mean", "--kind", kind, docs["a"], docs["b"], *extra], capsys)
    _assert_report(rep, 2)
    assert list(rep["outputs"]) == ["dim_in", "dim_out", "written" if out else "choi"]
    if out:
        assert list(rep["outputs"]["written"]) == WRITTEN_KEYS
    names = [c["name"] for c in rep["checks"]]
    chain = {"log": ["chain geo - harm >= 0", "chain log - geo >= 0", "chain arith - log >= 0"],
             "power:0.3": ["chain power:0.3 - harm:0.3 >= 0", "chain arith:0.3 - power:0.3 >= 0"]}
    assert names == (["block certificate [[A,G],[G,B]] PSD"] if kind == "geo" else []) + (
        chain.get(kind, ["chain geo - harm >= 0", "chain arith - geo >= 0"]))


@pytest.mark.parametrize("argv, n_inputs, outputs, checks", [
    (["order", "a", "b"], 2, ["order", "tolerance"], []),
    (["index", "b"], 1, ["index"], []),
    (["verify", "b"], 1, ["flags"], ["completely positive", "unital", "trace preserving"]),
], ids=["order", "index", "verify"])
def test_order_index_verify(docs, capsys, argv, n_inputs, outputs, checks):
    rep = _run([docs.get(arg, arg) for arg in argv], capsys)
    _assert_report(rep, n_inputs)
    assert list(rep["outputs"]) == outputs
    assert [c["name"] for c in rep["checks"]] == checks
    if argv[0] == "verify":
        assert list(rep["outputs"]["flags"]) == [
            "is_cp", "is_unital", "is_trace_preserving", "tolerance"]


@pytest.mark.parametrize("out", [False, True], ids=["report", "-o"])
def test_lebesgue(docs, tmp_path, capsys, out):
    extra = ["-o", str(tmp_path / "split")] if out else []
    rep = _run(["lebesgue", docs["a"], docs["b"], *extra], capsys)
    _assert_report(rep, 2)
    assert list(rep["outputs"]) == ["alpha_min", *(["written"] if out else ["ac_choi", "sing_choi"])]
    if out:
        assert [list(entry) for entry in rep["outputs"]["written"]] == [WRITTEN_KEYS] * 2
    assert [c["name"] for c in rep["checks"]] == [
        "ac + sing = psi", "sing is phi-singular", "ac is phi-absolutely continuous",
        "ac = Ando closed form"]


def test_example_all(capsys):
    reps = _run(["example", "--all"], capsys)
    assert isinstance(reps, list) and len(reps) == 9
    for rep in reps:
        _assert_report(rep, 0)
        assert rep["outputs"] == {} and rep["checks"]


def test_non_finite_residual_is_written_infinite(capsys):
    # the index of this mean reads inf on rounding noise (ROADMAP item 13)
    code = main(["--format", "json", "example", "ce-tensor", "rho=1e-7,1"])
    rep = _strict(capsys.readouterr().out)
    assert code == (0 if rep["passed"] else 3)
    assert list(rep) == REPORT_KEYS and all(list(c) == CHECK_KEYS for c in rep["checks"])
    assert [c["residual"] for c in rep["checks"]
            if not isinstance(c["residual"], float)] == ["infinite"]


def test_report_keeps_its_residuals_and_writes_them_strictly():
    rep = Report("planted")
    rep.check("finite", 0.5, 1.0)
    rep.check("infinite", math.inf, 1.0)
    assert [c["residual"] for c in _strict(rep.to_json())["checks"]] == [0.5, "infinite"]
    assert rep.checks[1]["residual"] == math.inf and not rep.passed
    assert "residual inf (tol" in rep.to_text()
