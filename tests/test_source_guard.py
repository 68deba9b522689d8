"""Source guard: one rank cutoff, one route to eigendecompositions, one verdict rule.

The support cutoff ``RANK_RTOL * max(...)`` is computed only in
``hermlinalg``, and raw ``numpy.linalg.eigh``/``eigvalsh`` calls sit only in
``hermlinalg`` and in two independent checks that must not share its code.
Reports take checks only through ``Report.check``, which passes a check iff
its residual is within its tolerance: no ``.record(`` call outside
``report.py`` can pass a verdict of its own.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cpmean"

# (file, top-level function) outside hermlinalg allowed a raw eigensolver call.
RAW_EIG_ALLOWED = {
    ("registry.py", "_direct_ac"),    # raw-numpy oracle of the ac part
    ("cli.py", "_chain_checks"),      # harmonic <= geometric <= arithmetic check
}


def _sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(p.name, p.read_text(encoding="utf-8")) for p in paths]


def _is_raw_eig(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.linalg" and any(
            a.name in ("eigh", "eigvalsh") for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")


def _raw_eig_sites(name: str, text: str) -> set[tuple[str, str]]:
    """(file, enclosing top-level function or class, or '<module>') of each call."""
    sites = set()
    for top in ast.parse(text).body:
        owner = getattr(top, "name", "<module>")
        if any(_is_raw_eig(node) for node in ast.walk(top)):
            sites.add((name, owner))
    return sites


def _record_calls(text: str) -> int:
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "record" for node in ast.walk(ast.parse(text)))


def test_rank_cutoff_only_in_hermlinalg():
    offenders = [name for name, text in _sources()
                 if "RANK_RTOL * max(" in text and name != "hermlinalg.py"]
    assert offenders == []


def test_raw_eigensolvers_only_in_hermlinalg_and_the_oracles():
    sites = set()
    for name, text in _sources():
        if name != "hermlinalg.py":
            sites |= _raw_eig_sites(name, text)
    assert sites <= RAW_EIG_ALLOWED, sites - RAW_EIG_ALLOWED


def test_guard_sees_a_copy():
    """The scan finds a raw call or import and names where it sits."""
    text = "import numpy as np\n\ndef f(c):\n    return np.linalg.eigh(c)\n"
    assert _raw_eig_sites("x.py", text) == {("x.py", "f")}
    assert _raw_eig_sites("y.py", "from numpy.linalg import eigvalsh\n") == {("y.py", "<module>")}
    assert _raw_eig_sites("z.py", "from numpy.linalg import norm\n") == set()


def test_checks_recorded_only_by_report_check():
    offenders = [name for name, text in _sources()
                 if name != "report.py" and _record_calls(text)]
    assert offenders == []


def test_record_guard_sees_a_call():
    assert _record_calls("rep.record('x', True, 0.0, 0.0)\n") == 1
    assert _record_calls("rep.check('x', 0.0, 0.0)\nrecord = 1\n") == 0
