import json

import numpy as np
import pytest

from cpmean import channeldoc, hermlinalg
from cpmean.cpmaps import CpMap, from_choi, from_kraus

# Reconstruction budget of the tests' residual checks, relative to max(1, norm).
TOL_RECON = 1e-8
# Rank cutoff of the raw-numpy range oracles, relative to the largest eigenvalue.
RANK_CUT = 1e-10


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng, dim, rank=None, lo=0.25, hi=4.0):
    """Random PSD matrix with eigenvalues drawn from [lo, hi] on a random frame."""
    rank = dim if rank is None else rank
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    q = random_unitary(rng, dim)[:, :rank]
    w = rng.uniform(lo, hi, size=rank)
    m = (q * w) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = random_psd(rng, dim)
    return m / np.trace(m).real


def random_cp(rng, m, n, rank=None, lo=0.25, hi=4.0) -> CpMap:
    return from_choi(m, n, random_psd(rng, m * n, rank=rank, lo=lo, hi=hi))


def gaussian_kraus(rng, m, n, scale=1.0) -> list[np.ndarray]:
    """Kraus operators of a map m -> n, of rank uniform on 0..mn: complex
    Gaussian times sqrt(scale), so their Choi matrix is a Wishart matrix,
    often ill-conditioned."""
    rank = int(rng.integers(0, m * n + 1))
    return list(np.sqrt(scale) * (rng.normal(size=(rank, n, m))
                                  + 1j * rng.normal(size=(rank, n, m))))


def gaussian_cp(rng, m, n, scale=1.0) -> CpMap:
    """The map of ``gaussian_kraus(rng, m, n, scale)``."""
    return from_kraus(gaussian_kraus(rng, m, n, scale), dim_in=m, dim_out=n)


def max_abs(a):
    return float(np.abs(np.asarray(a)).max())


def clamp_psd(x, tol=hermlinalg.TOL_PSD) -> hermlinalg.PsdMatrix:
    """``PsdMatrix.clamped`` at the bound ``tol * max(1, ||x||)``, for a
    product that is PSD up to its round-off."""
    h = hermlinalg.HermitianMatrix._trusted(x)
    return hermlinalg.PsdMatrix.clamped(h, tol * max(1.0, h.norm()))


def min_eig(a):
    a = np.asarray(a)
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])


def support_proj(a):
    """Raw-numpy projection onto ran A: eigenvectors above RANK_CUT * lambda_max."""
    a = np.asarray(a)
    w, u = np.linalg.eigh(0.5 * (a + a.conj().T))
    us = u[:, w > RANK_CUT * max(float(w[-1]), 0.0)]
    return us @ us.conj().T


def meet_proj(p, q):
    """Raw-numpy projection onto ran P ∩ ran Q for orthogonal projections P, Q:
    the zero eigenspace of (I - P) + (I - Q)."""
    p, q = np.asarray(p), np.asarray(q)
    eye = np.eye(len(p))
    w, u = np.linalg.eigh((eye - p) + (eye - q))
    us = u[:, w <= RANK_CUT * max(1.0, float(w[-1]))]
    return us @ us.conj().T


def write_kraus(ops, path, dim_in: int, dim_out: int, name: str | None = None) -> None:
    """Write the kraus document of the operators ops (each dim_out x dim_in):
    ``json.dumps`` of its object and a newline, the form ``save_channel``
    gives choi documents.  Pass the operators a map was built from, or
    ``kraus_decompose`` of it."""
    data = [np.ascontiguousarray(k, dtype=np.complex128).view(np.float64)
            .reshape(dim_out, dim_in, 2).tolist() for k in ops]
    doc = {"dim_in": dim_in, "dim_out": dim_out, "repr": "kraus", "data": data}
    if name is not None:
        doc["name"] = name
    with open(path, "wb") as fh:
        fh.write((json.dumps(doc) + "\n").encode("utf-8"))


def write_channel(f: CpMap, path, name: str | None = None, kraus=None) -> None:
    """``save_channel`` of f, or with kraus, f's operators, ``write_kraus`` of
    them; then start a fresh run: the next load of path decodes and admits its
    bytes, as it would for a file another process wrote."""
    if kraus is None:
        channeldoc.save_channel(f, path, name=name)
    else:
        write_kraus(kraus, path, f.dim_in, f.dim_out, name)
    hermlinalg._RUN = hermlinalg._Run()


def generic_pairs(seed, paths, mix=None, count=300):
    """Write count generic pairs of maps m -> n to paths in turn, yielding
    (i, m, n) after each: m and n uniform on 1-3, ``gaussian_kraus`` operators
    at log10 scales independent on [-12, 12], each in choi or kraus form.  With
    mix, also write there, beside each pair, a convex combination of 1-4
    random unitary conjugations of M_n, drawn from a stream of its own, so the
    pairs are those the seed always drew."""
    rng, mix_rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    for i in range(count):
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        for path in paths:
            ops = gaussian_kraus(rng, m, n, 10.0 ** rng.uniform(-12.0, 12.0))
            write_channel(from_kraus(ops, dim_in=m, dim_out=n), path,
                          kraus=ops if rng.integers(2) else None)
        if mix is not None:
            p = mix_rng.dirichlet(np.ones(int(mix_rng.integers(1, 5))))
            ops = [np.sqrt(w) * random_unitary(mix_rng, n) for w in p]
            write_channel(from_kraus(ops, dim_in=n, dim_out=n), mix,
                          kraus=ops if mix_rng.integers(2) else None)
        yield i, m, n


def read_channel(path) -> CpMap:
    """``read_doc(path)[0]`` in a fresh run: the map decoded and admitted from
    the file's bytes, not one kept from its save."""
    hermlinalg._RUN = hermlinalg._Run()
    return channeldoc.read_doc(path)[0]


@pytest.fixture(autouse=True)
def _fresh_run(monkeypatch):
    """Every test starts on a fresh run, with no spectral pair and no document
    kept, so what it computes does not depend on the tests run before it; the
    default run is put back afterwards."""
    monkeypatch.setattr(hermlinalg, "_RUN", hermlinalg._Run())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def exact_guard(monkeypatch):
    """Patch ``HermitianMatrix._exact``, and so ``PsdMatrix._exact``, to assert
    that each array it receives equals its conjugate transpose, the test that
    ``_exact`` skips; returns the list of the shapes it saw, so a test can tell
    that its calls reached it."""
    exact = hermlinalg.HermitianMatrix.__dict__["_exact"].__func__
    seen = []

    def guarded(cls, entries, e=0):
        m = np.asarray(entries)
        assert (m == m.conj().T).all(), f"_exact took a non-Hermitian {m.shape} array"
        seen.append(m.shape)
        return exact(cls, entries, e)

    monkeypatch.setattr(hermlinalg.HermitianMatrix, "_exact", classmethod(guarded))
    return seen


def count_calls(monkeypatch, call, warm=None) -> tuple[int, ...]:
    """The (eigh, eigvalsh) calls into numpy.linalg that call() makes on a fresh run,
    after warm(), if given, has run uncounted, and its svd calls as a third count where
    it makes any, so a 2-tuple says no svd ran; the counters are set and undone with
    monkeypatch.  Without warm the count is a cold one."""
    monkeypatch.setattr(hermlinalg, "_RUN", hermlinalg._Run())
    if warm is not None:
        warm()
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    with monkeypatch.context() as m:
        for name in calls:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            m.setattr(np.linalg, name, counting)
        call()
    return (calls["eigh"], calls["eigvalsh"]) + ((calls["svd"],) if calls["svd"] else ())


@pytest.fixture
def eigh_calls(monkeypatch):
    """``count(call, warm=None)``: ``count_calls`` of call with this test's monkeypatch."""
    return lambda call, warm=None: count_calls(monkeypatch, call, warm)
