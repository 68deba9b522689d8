"""Source guard: one rank rule, one route to eigendecompositions, one
spectral pair, one owner of cross-call state, one verdict rule, one
Hermiticity rule, numpy as the only dependency, and a pinned public surface.

Every rank, range and kernel decision sits in ``hermlinalg``, the one module
that reads ``RANK_RTOL``: the support cutoff ``HermitianMatrix.support``, the
index's range test ``HermitianMatrix.pinv_form`` and the kernel of Ando's
closed form ``_ando_part``; a zero operand gives exact zero connections and an
exact zero split.  Raw ``numpy.linalg.eigh``/``eigvalsh``/``svd``/``cholesky``
calls sit only in ``hermlinalg``.  A ``SpectralPair`` is built only by
``hermlinalg._shared_pair``, which keeps the last one in the run and which
every connection and the Lebesgue split call in one place each.  Every
connection is taken by ``opmeans._connect``, which only ``mean`` and
``geometric_mean`` call.  No module defines a pseudo-inverse helper: the one
pseudo-inverse is that of the reference formula ``opmeans.parallel_sum``,
which inverts ``support()`` in place.  No command runs the parallel-sum limit
``ac_part_oracle``: ``cpmean lebesgue`` and the ``ando-recovery`` example check
the split against Ando's closed form ``hermlinalg._ando_part``, and
``parallel_sum`` has no caller but the limit.
Outside Choi data is admitted by ``from_choi`` only where it comes in (a
document, an action, an example's random matrices), the public matrix
constructors, the one door of outside data, are called only by
``hermlinalg.as_psd`` and ``is_psd`` (every other matrix enters by
``_trusted``, or, Hermitian bit for bit by construction, by ``_exact``, each at
pinned sites), and ``TOL_HERM``, the Hermiticity rule of that door, is read
nowhere else.  The scale rule sits in ``hermlinalg`` alone: no other module reads
``ldexp`` or ``frexp``.  Every verdict is bounded by tol times ``hermlinalg._max_abs`` of its
operands, floored at a rounding unit per dimension (``hermlinalg._bound``): no
module has a ``max(1, ...)`` floor or a scale function of its own, and the
norm is read only by the two oracle bounds and the rank and range decisions.
Only ``hermlinalg`` places a factored pair's complement R: no other module
reads the pair's ``y()`` or ``_xp``.
State that calls keep for later calls has one owner, the run
``hermlinalg._RUN``: no other module-level name is bound to a mutable value
but the constant tables ``opmeans._SIGMA`` and ``registry.REGISTRY``, and only
``channeldoc`` reads the run's document slots ``docs`` or calls the two
functions that keep them.  No module reads the environment: ``--tol`` alone
sets the tolerance.
Reports take checks only through ``Report.check``, which passes a check iff
its residual is within its tolerance: no ``.record(`` call outside
``report.py`` can pass a verdict of its own.  No module imports a third-party
package but numpy, at module or function level, and every module-level import
is used.  The public names of ``import cpmean`` and the parameter names of each
are pinned, as are those of ``Report.add_input``, the slots of
``HermitianMatrix`` and ``SpectralPair`` and the functions that
``functools.lru_cache`` keeps (the CLI parser), so adding or removing a
name, a knob, a field or a cache shows in this file; README's list of the
public names is checked against the pinned one.
"""

import ast
import inspect
import pathlib
import re
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cpmean"

# (file, top-level function) outside hermlinalg allowed a raw eigensolver call.
RAW_EIG_ALLOWED = set()
# the numpy.linalg factorizations that decide a spectrum, a rank or a range
RAW_SOLVERS = ("eigh", "eigvalsh", "svd", "cholesky")


def _sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(p.name, p.read_text(encoding="utf-8")) for p in paths]


def _is_raw_eig(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.linalg" and any(
            a.name in RAW_SOLVERS for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in RAW_SOLVERS
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


def test_guard_sees_a_copy_of_svd_or_cholesky():
    """The scan counts the SVD and the Cholesky factorization as raw solvers."""
    text = "import numpy as np\n\nclass P:\n    def f(self, m):\n        return np.linalg.svd(m)\n"
    assert _raw_eig_sites("x.py", text) == {("x.py", "P")}
    assert _raw_eig_sites("y.py", "from numpy.linalg import cholesky\n") == {("y.py", "<module>")}
    assert _raw_eig_sites("z.py", "import numpy as np\nq = np.linalg.qr\n") == set()


# callee -> the (file, top-level function) allowed to call it
CALL_SITES = {
    "SpectralPair": {("hermlinalg.py", "_shared_pair")},
    "_connect": {("opmeans.py", "mean"), ("opmeans.py", "geometric_mean")},
    "_shared_pair": {("opmeans.py", "_connect"), ("lebesgue.py", "_pair")},
    "ac_part_oracle": set(),
    "parallel_sum": {("lebesgue.py", "ac_part_oracle")},
    "_ando_part": {("cli.py", "cmd_lebesgue"), ("registry.py", "example_ando_recovery")},
    "from_choi": {("channeldoc.py", "doc_to_channel"), ("cpmaps.py", "choi_from_action"),
                  ("registry.py", "example_ando_recovery")},
    # the PSD admission runs only in as_psd (see below): a sum or product the
    # library built enters as trusted
    "PsdMatrix": {("hermlinalg.py", "as_psd")},
    # a norm bounds no verdict: it scales the two oracle bounds and the range
    # decisions, all in hermlinalg (the index's range test in
    # HermitianMatrix.pinv_form, the snap); Ando's kernel reads C_G's unit-scale eig
    "norm": {("opmeans.py", "parallel_sum"), ("lebesgue.py", "ac_part_oracle"),
             ("hermlinalg.py", "HermitianMatrix"), ("hermlinalg.py", "SpectralPair")},
}


def _call_sites(name: str, text: str, callee: str) -> set[tuple[str, str]]:
    """(file, enclosing top-level function or class, or '<module>') of each
    call of ``callee``, by plain or attribute name."""
    sites = set()
    for top in ast.parse(text).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == callee:
                    sites.add((name, owner))
    return sites


@pytest.mark.parametrize("callee", sorted(CALL_SITES))
def test_pair_and_pseudo_inverse_have_one_caller_each(callee):
    sites = set()
    for name, text in _sources():
        sites |= _call_sites(name, text, callee)
    assert sites == CALL_SITES[callee]


def _constructor_sites(name: str, text: str) -> set[tuple[str, str]]:
    """Sites of each call of the public matrix constructors, by plain or
    attribute name, and of ``cls(...)`` in hermlinalg, where cls is one of them."""
    callees = ("HermitianMatrix", "PsdMatrix", *(("cls",) if name == "hermlinalg.py" else ()))
    return set().union(*(_call_sites(name, text, callee) for callee in callees))


def test_outside_data_enters_only_through_as_psd_and_is_psd():
    """``as_psd`` and ``is_psd`` alone call ``HermitianMatrix(...)`` or
    ``PsdMatrix(...)``, the door of outside data: every matrix the library
    makes itself enters by ``_trusted``."""
    sites = set()
    for name, text in _sources():
        sites |= _constructor_sites(name, text)
    assert sites == {("hermlinalg.py", "as_psd"), ("hermlinalg.py", "is_psd")}


def test_constructor_guard_sees_a_planted_call():
    text = "def f(x):\n    return hermlinalg.HermitianMatrix(x @ x)\n"
    assert _constructor_sites("cli.py", text) == {("cli.py", "f")}
    text = "class P:\n    @classmethod\n    def g(cls, x):\n        return cls(x)\n"
    assert _constructor_sites("hermlinalg.py", text) == {("hermlinalg.py", "P")}
    assert _constructor_sites("opmeans.py", text) == set()  # MeanKind's own cls
    text = "def psd_sqrt(a):\n    return PsdMatrix(a)\n"  # a side door beside as_psd
    assert _constructor_sites("hermlinalg.py", text) == {("hermlinalg.py", "psd_sqrt")}


def test_call_guard_sees_a_planted_call():
    text = ("from .hermlinalg import SpectralPair, pinv_psd\n\n"
            "def harmonic_mean(a, b):\n    return a @ pinv_psd(a + b).entries @ b\n\n"
            "class X:\n    def f(self, a, b):\n        return hermlinalg.SpectralPair(a, b)\n")
    assert _call_sites("x.py", text, "pinv_psd") == {("x.py", "harmonic_mean")}
    assert _call_sites("x.py", text, "SpectralPair") == {("x.py", "X")}
    assert _call_sites("x.py", "pinv = pinv_psd\n", "pinv_psd") == set()


# callee -> the (file, function or Class.method) allowed to call it.  A product,
# Hermitian only to its rounding, enters by _trusted, whose test symmetrizes it;
# a sum, real scaling, difference, block, permuted tensor product, transpose
# or eye/d of admitted matrices, Hermitian bit for bit, enters by _exact, which
# skips that test.  A new site of either shows here, so that a product cannot
# take _exact unseen.
TRUSTED_SITES = {
    "_trusted": {("hermlinalg.py", "PsdMatrix._gram"), ("hermlinalg.py", "_ando_part"),
                 ("opmeans.py", "parallel_sum"), ("cpmaps.py", "compose")},
    "_exact": {("hermlinalg.py", "PsdMatrix.clamped"), ("hermlinalg.py", "SpectralPair._eigh"),
               ("opmeans.py", "parallel_sum"), ("opmeans.py", "mean"),
               ("lebesgue.py", "ac_part_oracle"), ("cpmaps.py", "CpMap.__add__"),
               ("cpmaps.py", "CpMap.__rmul__"), ("cpmaps.py", "order_cp"),
               ("cpmaps.py", "geo_certificate"), ("cpmaps.py", "tensor"),
               ("cpmaps.py", "depolarizing"), ("cpmaps.py", "schur"),
               ("cpmaps.py", "functional"), ("cli.py", "cmd_mean")},
}


def _qualified_call_sites(name: str, text: str, callee: str) -> set[tuple[str, str]]:
    """(file, enclosing top-level function, ``Class.method`` or '<module>') of
    each call of ``callee``, by plain or attribute name."""
    owners = []
    for top in ast.parse(text).body:
        if isinstance(top, ast.ClassDef):
            owners += [(f"{top.name}.{getattr(node, 'name', '<class>')}", node)
                       for node in top.body]
        else:
            owners.append((getattr(top, "name", "<module>"), top))
    return {(name, owner) for owner, tree in owners for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == callee}


@pytest.mark.parametrize("callee", sorted(TRUSTED_SITES))
def test_products_take_trusted_and_exact_arithmetic_takes_exact(callee):
    sites = set()
    for name, text in _sources():
        sites |= _qualified_call_sites(name, text, callee)
    assert sites == TRUSTED_SITES[callee]


def test_trusted_guard_sees_a_planted_call():
    text = ("class CpMap:\n    def __matmul__(self, other):\n"
            "        return PsdMatrix._exact(self.choi.entries @ other.choi.entries)\n\n"
            "def compose(a, b):\n    return hermlinalg.PsdMatrix._exact(a @ b)\n\n"
            "x = HermitianMatrix._exact(np.eye(2))\n")
    assert _qualified_call_sites("cpmaps.py", text, "_exact") == {
        ("cpmaps.py", "CpMap.__matmul__"), ("cpmaps.py", "compose"), ("cpmaps.py", "<module>")}
    assert _qualified_call_sites("cpmaps.py", text, "_trusted") == set()
    text = "def f(m):\n    exact = PsdMatrix._exact\n    return m  # _exact(m @ m)\n"
    assert _qualified_call_sites("x.py", text, "_exact") == set()


def _pseudo_inverse_helpers(name: str, text: str) -> set[tuple[str, str]]:
    """(file, what) of each function or method named for a pseudo-inverse
    (``pinv`` or ``pseudo`` in its name) but the index's range test
    ``pinv_form``, and of each ``numpy.linalg.pinv`` used or imported by name."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.FunctionDef) and node.name != "pinv_form"
                and ("pinv" in node.name.lower() or "pseudo" in node.name.lower())):
            found.add((name, node.name))
        elif ((isinstance(node, ast.Attribute) and node.attr == "pinv"
               and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")
              or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                  and any(a.name == "pinv" for a in node.names))):
            found.add((name, "linalg.pinv"))
    return found


def test_no_pseudo_inverse_helper():
    found = set()
    for name, text in _sources():
        found |= _pseudo_inverse_helpers(name, text)
    assert found == set()


def test_pseudo_inverse_guard_sees_a_planted_helper():
    text = ("def pinv_psd(a):\n    w, u = a.support()\n    return (u / w) @ u.conj().T\n\n"
            "class H:\n    def pinv_form(self, v):\n        return v\n\n"
            "    def _pseudo_inverse(self):\n        return np.linalg.pinv(self._m)\n")
    assert _pseudo_inverse_helpers("x.py", text) == {
        ("x.py", "pinv_psd"), ("x.py", "_pseudo_inverse"), ("x.py", "linalg.pinv")}
    assert _pseudo_inverse_helpers("y.py", "from numpy.linalg import pinv\n") == {
        ("y.py", "linalg.pinv")}
    assert _pseudo_inverse_helpers("z.py", "x = 'pinv_psd'  # np.linalg.pinv\n") == set()


def _reads(text: str, name: str) -> bool:
    """Whether a source imports or reads ``name``, plainly or as an attribute."""
    return any((isinstance(node, ast.Name) and node.id == name)
               or (isinstance(node, ast.Attribute) and node.attr == name)
               or (isinstance(node, ast.alias) and node.name == name)
               for node in ast.walk(ast.parse(text)))


def _floors_and_scales(name: str, text: str) -> set[tuple[str, str]]:
    """(file, what) of each ``max(1...`` floor and each definition of a
    ``_max_abs`` outside hermlinalg: a verdict scale of a module's own."""
    found = {(name, "max(1") for _ in re.finditer(r"max\(1(\.0*)?,", text)}
    if name != "hermlinalg.py":
        found |= {(name, "_max_abs") for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.FunctionDef) and node.name == "_max_abs"}
    return found


def test_every_verdict_scale_is_hermlinalgs_largest_entry():
    assert set().union(*(_floors_and_scales(name, text) for name, text in _sources())) == set()


def test_scale_guard_sees_a_planted_floor_and_copy():
    text = "def _max_abs(a):\n    return abs(a).max()\n\nb = 1e-9 * max(1.0, n)\n"
    assert _floors_and_scales("x.py", text) == {("x.py", "max(1"), ("x.py", "_max_abs")}
    assert _floors_and_scales("hermlinalg.py", text) == {("hermlinalg.py", "max(1")}
    assert _floors_and_scales("y.py", "b = max(10.0, n) + max(abs(w))\n") == set()


def test_hermiticity_rule_read_only_in_hermlinalg():
    offenders = [name for name, text in _sources()
                 if name != "hermlinalg.py" and _reads(text, "TOL_HERM")]
    assert offenders == []


def test_rank_cutoff_only_in_hermlinalg():
    offenders = [name for name, text in _sources()
                 if name != "hermlinalg.py" and _reads(text, "RANK_RTOL")]
    assert offenders == []


def test_rank_guard_sees_a_planted_copy():
    assert _reads("from .hermlinalg import RANK_RTOL, HermitianMatrix\n", "RANK_RTOL")
    text = "def f(w, u):\n    return u[:, w <= hermlinalg.RANK_RTOL * w[-1]]\n"
    assert _reads(text, "RANK_RTOL")
    assert not _reads("TOL = 1e-10  # RANK_RTOL\nx = 'RANK_RTOL * max('\n", "RANK_RTOL")


def test_the_scale_rule_only_in_hermlinalg():
    # a matrix's scale is 2^e, e the frexp exponent of its largest entry
    # modulus, and it is folded by ldexp: every other module takes both through
    # hermlinalg's helpers and methods
    sources = dict(_sources())
    offenders = [(name, fn) for name, text in sources.items() for fn in ("ldexp", "frexp")
                 if name != "hermlinalg.py" and _reads(text, fn)]
    assert offenders == []
    assert all(_reads(sources["hermlinalg.py"], fn) for fn in ("ldexp", "frexp"))


def test_scale_rule_guard_sees_a_planted_copy():
    assert _reads("from numpy import ldexp\n", "ldexp")
    assert _reads("def f(s):\n    return math.frexp(s)[1]\n", "frexp")
    assert _reads("fold = np.ldexp\n", "ldexp")
    assert not _reads("y = _ldexp(x, -1)  # np.ldexp(x, -1)\nz = 'frexp'\n", "ldexp")
    assert not _reads("y = _ldexp(x, -1)  # np.ldexp(x, -1)\nz = 'frexp'\n", "frexp")


def test_hermiticity_guard_sees_a_planted_copy():
    assert _reads("from .hermlinalg import TOL_HERM\n", "TOL_HERM")
    assert _reads("def f(m):\n    return hermlinalg.TOL_HERM * abs(m).max()\n", "TOL_HERM")
    assert not _reads("TOL = 1e-10  # TOL_HERM\nx = 'TOL_HERM'\n", "TOL_HERM")


# (file, name) of each module-level name bound to a mutable value: the one
# run and two constant tables
MUTABLE_GLOBALS = {("hermlinalg.py", "_RUN"), ("opmeans.py", "_SIGMA"),
                   ("registry.py", "REGISTRY")}
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = ("dict", "list", "set", "Lock", "_Run")


def _is_mutable(value) -> bool:
    """Whether an expression is a dict, list or set display or comprehension,
    a call of one of ``MUTABLE_CALLS`` by plain or attribute name, or a tuple
    holding one."""
    if isinstance(value, ast.Tuple):
        return any(map(_is_mutable, value.elts))
    func = getattr(value, "func", None)
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return isinstance(value, MUTABLE_DISPLAYS) or called in MUTABLE_CALLS


def _mutable_globals(name: str, text: str) -> set[tuple[str, str]]:
    """(file, name) of each name a module-level assignment of a mutable value binds."""
    found = set()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_mutable(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {(name, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return found


def test_the_run_is_the_only_module_level_mutable_state():
    found = set()
    for name, text in _sources():
        found |= _mutable_globals(name, text)
    assert found == MUTABLE_GLOBALS


def test_mutable_state_guard_sees_a_planted_global():
    text = ("import threading\n\n_memo: dict[str, int] = {}\n_lock = threading.Lock()\n"
            "_seen = set()\n_RUN2 = hermlinalg._Run()\n_SLOTS = 3\n_KINDS = ('a', 'b')\n"
            "class X:\n    cache = {}\n")
    assert _mutable_globals("x.py", text) == {("x.py", n) for n in ("_memo", "_lock", "_seen",
                                                                     "_RUN2")}
    assert _mutable_globals("y.py", "a, b = [], 0\n") == {("y.py", "a"), ("y.py", "b")}
    assert _mutable_globals("z.py", "def f():\n    memo = {}\n    return memo\n") == set()


def _reads_attribute(text: str, attr: str) -> bool:
    """Whether a source reads ``.attr`` of any object."""
    return any(isinstance(node, ast.Attribute) and node.attr == attr
               and isinstance(node.ctx, ast.Load) for node in ast.walk(ast.parse(text)))


def test_document_slots_used_only_in_channeldoc():
    offenders = [name for name, text in _sources()
                 if name != "channeldoc.py"
                 and (_reads_attribute(text, "docs")
                      or any(_reads(text, n) for n in ("_recall", "_remember")))]
    assert offenders == []


def test_document_slots_guard_sees_a_planted_read():
    assert _reads_attribute("def f(h):\n    return hermlinalg._RUN.docs.get(h)\n", "docs")
    assert _reads_attribute("def f(run, h):\n    del run.docs[h]\n", "docs")
    assert not _reads_attribute("def f(self):\n    self.docs = {}\n", "docs")
    assert not _reads_attribute("docs = 'run.docs'\n", "docs")
    assert _reads("from .channeldoc import _remember\n", "_remember")
    assert _reads("def f(h):\n    return _recall(h)\n", "_recall")


# the complement R of a factored spectral pair, which ``hermlinalg`` alone
# places: its readers weigh the pair's parts through ``gram``
PAIR_INTERNALS = ("tp", "_xp")


def test_only_hermlinalg_reads_the_pairs_complement():
    offenders = [(name, attr) for name, text in _sources() if name != "hermlinalg.py"
                 for attr in PAIR_INTERNALS if _reads_attribute(text, attr)]
    assert offenders == []


def test_complement_guard_sees_a_planted_read():
    assert _reads_attribute("def f(p):\n    return p.sb if p.tp == 0.0 else 0.0\n", "tp")
    assert _reads_attribute("def f(p):\n    x, q = p._xp\n", "_xp")


# What a module other than hermlinalg may read of a SpectralPair: its t, 1 - t,
# Z and exponents, the kernel's arguments at ``midpoint``, and sums of its parts
# through ``gram``, their one reader.
PAIR_READS = {"t", "tc", "z", "ea", "eb", "midpoint", "gram"}


def _pair_reads(text: str) -> set[str]:
    """Each attribute read of a spectral pair: of a call of ``SpectralPair``,
    ``_shared_pair`` or a function of the module annotated to return a
    SpectralPair, or of a name that a function assigns such a call."""
    tree = ast.parse(text)
    makers = {"SpectralPair", "_shared_pair"} | {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        and isinstance(node.returns, ast.Name) and node.returns.id == "SpectralPair"}

    def made(node) -> bool:
        return isinstance(node, ast.Call) and (
            node.func.id if isinstance(node.func, ast.Name)
            else getattr(node.func, "attr", None)) in makers

    reads = set()
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        pairs = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and made(node.value) for target in node.targets
                 if isinstance(target, ast.Name)}
        reads |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and (made(node.value) or isinstance(node.value, ast.Name)
                       and node.value.id in pairs)}
    return reads


def test_pairs_are_read_only_through_their_reader_surface():
    reads = {name: _pair_reads(text) for name, text in _sources() if name != "hermlinalg.py"}
    assert {name: found - PAIR_READS for name, found in reads.items()
            if found - PAIR_READS} == {}
    # the guard sees the readers there are: the connections' and the split's
    assert {"midpoint", "gram", "z"} <= reads["opmeans.py"]
    assert {"t", "tc", "ea", "eb", "gram"} <= reads["lebesgue.py"]


def test_pair_reader_guard_sees_a_planted_read():
    text = ("def _pair(f, g) -> SpectralPair:\n    return _shared_pair(f.choi, g.choi)\n\n"
            "def split(f, g):\n    p = _pair(f, g)\n    return p.gram(p.t) + p.y()\n\n"
            "def connect(a, b):\n    q = hermlinalg._shared_pair(a, b)\n"
            "    return q.product(q.tc), SpectralPair(a, b).mass(1.0)\n\n"
            "def other(p):\n    r = p.rep()\n    return p.y(), r.y()\n")
    assert _pair_reads(text) == {"gram", "t", "y", "product", "tc", "mass"}
    assert _pair_reads("def f(a, b):\n    p = _pair(a, b)\n    return p.y()\n") == set()


# os.environ and os.getenv, used or imported by name
ENV_READS = ("environ", "getenv")


def test_no_module_reads_the_environment():
    offenders = {name: found for name, text in _sources()
                 if (found := [n for n in ENV_READS if _reads(text, n)])}
    assert offenders == {}


def test_environment_guard_sees_a_planted_read():
    assert _reads('def _tol():\n    return os.environ.get("CPMEAN_DEFAULT_TOL")\n', "environ")
    assert _reads('tol = os.getenv("CPMEAN_DEFAULT_TOL", "1e-9")\n', "getenv")
    assert _reads("from os import environ\n", "environ")
    assert not _reads("import os\nx = 'os.environ'  # getenv\n", "environ")


# (file, top-level function) of each functools cache in src/: the parser
LRU_CACHE_SITES = {("cli.py", "_build_parser")}


def _cache_sites(name: str, text: str) -> set[tuple[str, str]]:
    """(file, enclosing top-level function or class, or '<module>') of each
    ``functools.lru_cache`` or ``functools.cache``, used or imported by name."""
    caches = ("lru_cache", "cache")
    sites = set()
    for top in ast.parse(text).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr in caches
                 and isinstance(node.value, ast.Name) and node.value.id == "functools")
                    or (isinstance(node, ast.ImportFrom) and node.module == "functools"
                        and any(a.name in caches for a in node.names))):
                sites.add((name, owner))
    return sites


def test_every_functools_cache_is_pinned():
    sites = set()
    for name, text in _sources():
        sites |= _cache_sites(name, text)
    assert sites == LRU_CACHE_SITES


def test_cache_guard_sees_a_planted_cache():
    text = "import functools\n\n@functools.lru_cache(maxsize=2)\ndef _text(h):\n    return h\n"
    assert _cache_sites("x.py", text) == {("x.py", "_text")}
    assert _cache_sites("y.py", "from functools import cache\n") == {("y.py", "<module>")}
    assert _cache_sites("z.py", "cache = {}\n\ndef f(k):\n    return cache[k]\n") == set()


def test_checks_recorded_only_by_report_check():
    offenders = [name for name, text in _sources()
                 if name != "report.py" and _record_calls(text)]
    assert offenders == []


def test_record_guard_sees_a_call():
    assert _record_calls("rep.record('x', True, 0.0, 0.0)\n") == 1
    assert _record_calls("rep.check('x', 0.0, 0.0)\nrecord = 1\n") == 0


def _third_party_imports(text: str) -> set[str]:
    """Top-level packages of the absolute imports anywhere in the source that
    are neither in the standard library nor numpy."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"numpy"}


def test_numpy_is_the_only_third_party_import():
    offenders = {name: found for name, text in _sources()
                 if (found := _third_party_imports(text))}
    assert offenders == {}


def test_import_guard_sees_a_copy():
    text = "import json\n\ndef f():\n    from scipy.special import roots_jacobi\n"
    assert _third_party_imports(text) == {"scipy"}
    assert _third_party_imports("import scipy.linalg as sl\n") == {"scipy"}
    clean = "from __future__ import annotations\nimport numpy.linalg\nfrom . import cpmaps\n"
    assert _third_party_imports(clean) == set()


def _unused_imports(text: str) -> set[str]:
    """Names bound by the module-level imports of a source that it never reads."""
    tree = ast.parse(text)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_level_import_is_used():
    # __init__.py imports to re-export
    offenders = {name: found for name, text in _sources()
                 if name != "__init__.py" and (found := _unused_imports(text))}
    assert offenders == {}


def test_unused_import_guard_sees_a_copy():
    text = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
            "from .hermlinalg import TOL_PSD, is_psd, psd_signs as signs\n\n"
            "def f(h: np.ndarray, tol=TOL_PSD):\n    return os.path.sep, is_psd(h, tol)\n")
    assert _unused_imports(text) == {"signs"}
    assert _unused_imports("import numpy.linalg\n") == {"numpy"}


# The oracles ac_part_oracle, NonConvergence and the pseudo-inverse reference
# parallel_sum import from their modules (cpmean.lebesgue, cpmean.errors,
# cpmean.opmeans) only; the one public parallel sum is mean(PARALLEL, ...).
PUBLIC_NAMES = [
    "ConnectionRep", "CpMap", "CpMeanError", "DomainError",
    "HermitianMatrix", "InvalidInput", "LebesgueSplit", "MeanKind",
    "NotCompletelyPositive", "ParseError", "PsdMatrix", "ShapeError",
    "UnknownExample", "adjoint_rep", "choi_from_action", "compose",
    "cond_exp_diag", "cond_exp_rotated", "cond_exp_tensor", "decompose",
    "depolarizing", "dual_rep", "from_choi", "from_kraus", "functional",
    "geo_certificate", "geometric_mean", "identity", "index_cp",
    "is_abs_continuous", "is_psd", "is_singular", "kraus_decompose", "mean",
    "mean_cp", "order_cp", "power_rep", "psd_sqrt", "read_doc",
    "save_channel", "schur", "state_mean_quantities", "tensor",
    "transpose_rep", "unitary_conj",
]


# parameter names of each public name, and of PsdMatrix.clamped; None for an
# exception that takes the built-in ``*args``
SIGNATURES = {
    "ConnectionRep": ("a", "b", "atoms", "transposed", "adjoint", "power"),
    "CpMap": ("dim_in", "dim_out", "choi"),
    "CpMeanError": None, "DomainError": None,
    "HermitianMatrix": ("entries",),
    "InvalidInput": None,
    "LebesgueSplit": ("ac", "sing", "alpha_min", "recon"),
    "MeanKind": ("tag", "alpha", "rep"),
    "NotCompletelyPositive": None, "ParseError": None,
    "PsdMatrix": ("entries",),
    "PsdMatrix.clamped": ("entries", "bound"),
    "Report.add_input": ("self", "name", "path", "sha256"),
    "ShapeError": None, "UnknownExample": None,
    "adjoint_rep": ("rep",),
    "choi_from_action": ("dim_in", "dim_out", "action"),
    "compose": ("after", "first"),
    "cond_exp_diag": ("d",),
    "cond_exp_rotated": ("theta",),
    "cond_exp_tensor": ("factor", "weights"),
    "decompose": ("f", "g"),
    "depolarizing": ("d",),
    "dual_rep": ("rep",),
    "from_choi": ("dim_in", "dim_out", "choi"),
    "from_kraus": ("ops", "dim_in", "dim_out"),
    "functional": ("rho",),
    "geo_certificate": ("f", "g", "theta", "tol"),
    "geometric_mean": ("a", "b"),
    "identity": ("d",),
    "index_cp": ("f",),
    "is_abs_continuous": ("g", "f"),
    "is_psd": ("h", "tol"),
    "is_singular": ("f", "g"),
    "kraus_decompose": ("f",),
    "mean": ("kind", "a", "b"),
    "mean_cp": ("kind", "f", "g"),
    "order_cp": ("f", "g", "tol"),
    "power_rep": ("alpha",),
    "psd_sqrt": ("a",),
    "read_doc": ("path",),
    "save_channel": ("f", "path", "name"),
    "schur": ("a",),
    "state_mean_quantities": ("rho", "sigma"),
    "tensor": ("f", "g"),
    "transpose_rep": ("rep",),
    "unitary_conj": ("u",),
}


def _params(obj) -> tuple[str, ...] | None:
    """Parameter names of a callable; None where Python gives no signature."""
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_public_names_are_pinned():
    import cpmean

    # submodules become attributes as they are imported, so they are left out
    names = sorted(n for n, v in vars(cpmean).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC_NAMES


def test_public_signatures_are_pinned():
    import cpmean
    from cpmean.report import Report

    found = {name: _params(getattr(cpmean, name)) for name in PUBLIC_NAMES}
    found["PsdMatrix.clamped"] = _params(cpmean.PsdMatrix.clamped)
    found["Report.add_input"] = _params(Report.add_input)
    assert found == SIGNATURES


def test_hermitian_matrix_caches_only_its_eig():
    import cpmean

    # and its largest entry modulus, the scale of every bound on it, which its
    # entries fix as they fix the eig; the eig is kept at unit scale, as (w, U,
    # e) with e the frexp exponent of that modulus, and no second copy of the
    # entries is kept
    assert cpmean.HermitianMatrix.__slots__ == ("_m", "_eig", "_amax")


def test_spectral_pair_keeps_only_its_factorization():
    from cpmean.hermlinalg import SpectralPair

    # (e_A, e_B, t, 1 - t, Z): the operands' integer exponents, which fold them
    # by 2^-e exactly (no scale is kept as a float), t and 1 - t with R's entry
    # last on a factored pair, and the factors (X, P) of the complement R: U, w,
    # V and R itself are locals of the construction or of its readers
    assert SpectralPair.__slots__ == ("ea", "eb", "t", "tc", "z", "_xp")


README = SRC.parent.parent / "README.md"


def _readme_public_list(text: str) -> set[str]:
    """The backticked spans of the list that follows the README line
    "`import cpmean` exposes", up to the list's first blank line."""
    body = text[text.index("`import cpmean` exposes"):].split("\n\n")[1]
    return set(re.findall(r"`([^`]+)`", body))


def _defined_public_names() -> set[str]:
    """Public names that a module of the package defines at its top level."""
    names = set()
    for _, text in _sources():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def test_readme_lists_exactly_the_public_names():
    listed = _readme_public_list(README.read_text(encoding="utf-8"))
    assert set(PUBLIC_NAMES) - listed == set()
    assert (listed & _defined_public_names()) - set(PUBLIC_NAMES) == set()


def test_readme_guard_sees_a_planted_name():
    text = ("`import cpmean` exposes:\n\n* matrices: `ac_part_oracle`, `is_psd(h, tol)`,\n"
            "  `ac`;\n\nLater, `mean`.\n")
    listed = _readme_public_list(text)
    assert listed == {"ac_part_oracle", "is_psd(h, tol)", "ac"}
    assert listed & _defined_public_names() == {"ac_part_oracle"}


def test_signature_guard_sees_a_planted_knob():
    def is_psd(h, tol=1e-9, scale=None):
        return h

    class Planted(Exception):
        pass

    assert _params(is_psd) == ("h", "tol", "scale") != SIGNATURES["is_psd"]
    assert _params(Planted) is None
