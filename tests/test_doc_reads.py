"""The two reads of a channel document give the same bits.

``channeldoc.read_doc`` reads a document in the layout ``json.dumps`` writes
as one flat array of its cells' parts (``_flat_doc``), and any other
document, or one whose flat read fails, as nested lists, the one read that
raises.  Here each document is read twice, in a fresh run each time: as
``read_doc`` reads it, and with the flat read off (``_flat_doc`` giving None),
which is the nested read alone.  The two must agree on the Choi bytes, the
dimensions, the name and the SHA-256, or on the exit code and the error line
of ``cpmean verify``; a spy on ``doc_to_channel`` tells which read took each
document.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from cpmean import channeldoc, cpmaps, hermlinalg
from cpmean.channeldoc import channel_to_doc, save_channel
from cpmean.cli import main

from conftest import gaussian_kraus, generic_pairs, random_unitary, write_kraus

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def read(monkeypatch):
    """``read(path, flat=True)``: ``(read_doc(path), took_flat)`` in a fresh run, the
    flat read off without flat; took_flat says the flat read gave the map."""

    def run(path, flat=True):
        taken = []
        real = channeldoc.doc_to_channel

        def spy(doc, flat=False):
            chan = real(doc, flat)
            taken.append(flat)
            return chan

        with monkeypatch.context() as m:
            m.setattr(hermlinalg, "_RUN", hermlinalg._Run())
            m.setattr(channeldoc, "doc_to_channel", spy)
            if not flat:
                m.setattr(channeldoc, "_flat_doc", lambda raw: None)
            got = channeldoc.read_doc(path)
        assert taken in ([True], [False])
        return got, taken == [True]

    return run


def _same(got, want):
    (f, name, sha), (g, name_g, sha_g) = got, want
    assert (f.dim_in, f.dim_out, name, sha) == (g.dim_in, g.dim_out, name_g, sha_g)
    assert f.choi.entries.tobytes() == g.choi.entries.tobytes()


def _reads_alike(read, path, flat=True):
    """Both reads give the same map, name and hash; the first takes the flat read iff flat."""
    got, took_flat = read(path)
    _same(got, read(path, flat=False)[0])
    assert took_flat == flat, path
    return got


@pytest.mark.parametrize("seed", [7, 8])
def test_every_generic_document_reads_alike(tmp_path, read, seed):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for _ in generic_pairs(seed, paths):
        for path in paths:
            empty = json.loads(pathlib.Path(path).read_text())["data"] == []
            _reads_alike(read, path, flat=not empty)  # an empty Kraus list reads nested


@pytest.mark.parametrize("chan", [
    cpmaps.identity(3), cpmaps.depolarizing(2), cpmaps.cond_exp_diag(3),
    cpmaps.cond_exp_rotated(0.3), cpmaps.cond_exp_tensor(2, [0.25, 0.75]),
    cpmaps.unitary_conj(random_unitary(np.random.default_rng(5), 3)),
], ids=["identity", "depolarizing", "cond_exp_diag", "cond_exp_rotated", "cond_exp_tensor",
        "unitary_conj"])
def test_zoo_documents_read_alike(tmp_path, read, chan):
    p = tmp_path / "zoo.json"
    save_channel(chan, p, name="zoo")
    _reads_alike(read, p)


def _extreme(d: int, k: int) -> np.ndarray:
    """A Hermitian PSD d x d matrix times 2^k: diagonal 1..d, off-diagonal parts of
    about 1e-15 / d (subnormal at k = -1000) and its last row and column -0.0 off the
    diagonal, in both parts."""
    rng = np.random.default_rng(d)
    up = np.triu(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 1) * 1e-15 / d
    c = np.diag(np.arange(1.0, d + 1)) + up + up.conj().T
    c[-1, :-1] = c[:-1, -1] = complex(-0.0, -0.0)
    out = np.empty_like(c)
    out.real, out.imag = np.ldexp(c.real, k), np.ldexp(c.imag, k)  # signs kept
    return out


@pytest.mark.parametrize("k", [-1000, -1, 1, 1000])
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_choi_documents_at_extreme_scales_read_alike(tmp_path, read, dim, k):
    p = tmp_path / "c.json"
    save_channel(cpmaps.from_choi(dim, dim, _extreme(dim * dim, k)), p)
    text = p.read_text()
    if dim > 1:
        assert "-0.0" in text and (k != -1000 or "e-31" in text)  # signed zeros; subnormals
    _reads_alike(read, p)


def test_integer_cells_read_alike(tmp_path, read):
    big = 2 ** 70 + 1  # beyond 64 bits: taken as the nearest double
    choi = [[[big if i == j else 0, 0] for j in range(4)] for i in range(4)]
    choi[0][0] = [big, 0.0]
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"dim_in": 2, "dim_out": 2, "repr": "choi", "data": choi}) + "\n")
    assert _reads_alike(read, p)[0].choi.entries[1, 1] == float(big)
    kraus = [[[[1, 0], [0, -3]], [[2 ** 64, 1], [5, 0]]]]
    p.write_text(json.dumps({"dim_in": 2, "dim_out": 2, "repr": "kraus", "data": kraus}))
    _reads_alike(read, p)


@pytest.mark.parametrize("name", ['say "hi"', "back\\slash\\", "café ☃ \U0001F600",
                                  "", "tab\there"])
def test_names_read_alike(tmp_path, read, name):
    p = tmp_path / "n.json"
    save_channel(cpmaps.depolarizing(2), p, name=name)
    assert _reads_alike(read, p)[1] == (name or None)
    write_kraus([np.eye(2)], p, 2, 2, name=name)
    _reads_alike(read, p)
    doc = {**channel_to_doc(cpmaps.depolarizing(2)), "name": name}
    p.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))  # raw UTF-8
    _reads_alike(read, p)


def test_a_name_with_a_closing_bracket_reads_nested(tmp_path, read):
    p = tmp_path / "n.json"
    save_channel(cpmaps.depolarizing(2), p, name="a]b")
    assert _reads_alike(read, p, flat=False)[1] == "a]b"


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2)])
def test_kraus_documents_of_every_count_read_alike(tmp_path, read, m, n):
    rng = np.random.default_rng(m * 10 + n)
    p = tmp_path / "k.json"
    for k in range(1, m * n + 1):
        write_kraus(rng.normal(size=(k, n, m)) + 1j * rng.normal(size=(k, n, m)), p, m, n,
                    name=str(k))
        assert _reads_alike(read, p)[0].dim_in == m


def _layouts(doc):
    yield json.dumps(doc, indent=1)
    yield json.dumps(doc, separators=(",", ":"))
    yield json.dumps(doc, sort_keys=True)  # "data" first
    yield json.dumps(dict(reversed(list(doc.items()))))
    yield json.dumps(doc) + "  "
    yield json.dumps(doc) + "\n "
    yield json.dumps(doc) + "\n\n"
    yield " " + json.dumps(doc)


@pytest.mark.parametrize("form", ["choi", "kraus"])
def test_other_layouts_read_nested_and_alike(tmp_path, read, form):
    f = cpmaps.from_kraus(gaussian_kraus(np.random.default_rng(3), 2, 2) or [np.eye(2)])
    p = tmp_path / "f.json"
    if form == "choi":
        save_channel(f, p, name="f")
    else:
        write_kraus(cpmaps.kraus_decompose(f), p, 2, 2, name="f")
    _reads_alike(read, p)
    doc = json.loads(p.read_text())
    for text in _layouts(doc):
        p.write_text(text)
        _reads_alike(read, p, flat=False)


# the text of the first two cells of the document of identity(2), and what each
# malformed document has in its place
CELL = "[[[1.0, 0.0], [0.0, 0.0]"
MALFORMED = {
    "ragged": "[[[1.0], [0.0, 0.0]",
    "null": "[[[null, 0.0], [0.0, 0.0]",
    "true": "[[[true, 0.0], [0.0, 0.0]",
    "string": '[[["1.0", 0.0], [0.0, 0.0]',
    "NaN": "[[[NaN, 0.0], [0.0, 0.0]",
    "Infinity": "[[[Infinity, 0.0], [0.0, 0.0]",
    "1e999": "[[[1e999, 0.0], [0.0, 0.0]",
    "10^400": "[[[1" + "0" * 400 + ", 0.0], [0.0, 0.0]",
    "+1": "[[[+1, 0.0], [0.0, 0.0]",
    "01": "[[[01, 0.0], [0.0, 0.0]",
    ".5": "[[[.5, 0.0], [0.0, 0.0]",
    "1.": "[[[1., 0.0], [0.0, 0.0]",
    "1-2": "[[[1-2, 0.0], [0.0, 0.0]",
    "empty cell": "[[[, 0.0], [0.0, 0.0]",
    "extra bracket": "[[[[1.0, 0.0], [0.0, 0.0]",
    # a number off its cell: it joins a neighbour where brackets vanish, and where the
    # cell beside it is empty it is a valid flat array, but never a valid document
    "joined after ]": "[[[1.0, 0.0]0, [0.0, 0.0]",  # 0.00 joined
    "joined before [": "[[[1.0, 0.0], -[0.0, 0.0]",  # -0.0 joined
    "after ]": "[[[1.0, ]0.0, [0.0, 0.0]",
    "before [": "[[1.0[, 0.0], [0.0, 0.0]",
    "inside , ": "[[[1.0, 0.0],0.0 [, 0.0]",
}


def _verify(path, capsys):
    hermlinalg._RUN = hermlinalg._Run()
    code = main(["--format", "json", "verify", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _fails_alike(path, monkeypatch, capsys):
    """``cpmean verify`` of path exits 2 with one error line, the nested read's."""
    got = _verify(path, capsys)
    monkeypatch.setattr(channeldoc, "_flat_doc", lambda raw: None)
    assert got == _verify(path, capsys)
    assert got[0] == 2 and got[2].startswith("error: ") and got[2].count("\n") == 1


@pytest.mark.parametrize("bad", MALFORMED)
def test_a_malformed_document_gives_the_nested_reads_error(tmp_path, monkeypatch, capsys, bad):
    text = json.dumps(channel_to_doc(cpmaps.identity(2), "i")) + "\n"
    assert text.count(CELL) == 1
    p = tmp_path / "bad.json"
    p.write_text(text.replace(CELL, MALFORMED[bad]))
    _fails_alike(p, monkeypatch, capsys)


@pytest.mark.parametrize("doc", [
    {"dim_in": 2, "dim_out": 2, "repr": "choi", "data": [[[1.0, 0.0]] * 3] * 3},
    {"dim_in": 2, "dim_out": 2, "repr": "kraus", "data": [[[1.0, 0.0]] * 2] * 2},
    {"dim_in": 10 ** 12, "dim_out": 1, "repr": "choi", "data": [[[1.0, 0.0]]]},
    {"dim_in": 10 ** 12, "dim_out": 10 ** 12, "repr": "kraus", "data": [[[[1.0, 0.0]]]]},
    {"dim_in": 0, "dim_out": 1, "repr": "choi", "data": [[[1.0, 0.0]]]},
    {"dim_in": 1, "dim_out": 1, "repr": "choi", "data": [[[-1.0, 0.0]]]},  # not PSD
    {"dim_in": 2, "dim_out": 1, "repr": "choi", "data": [[[1.0, 0.0], [1.0, 0.0]],
                                                         [[0.0, 0.0], [1.0, 0.0]]]},
], ids=["choi 3x3 for 4x4", "kraus 2x1 for 2x2", "dims 1e12 choi", "dims 1e12 kraus",
        "dim 0", "not PSD", "not Hermitian"])
def test_a_wrong_shape_or_map_gives_the_nested_reads_error(tmp_path, monkeypatch, capsys,
                                                          doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc) + "\n")
    _fails_alike(p, monkeypatch, capsys)


def test_an_empty_kraus_list_reads_nested_and_alike(tmp_path, read):
    p = tmp_path / "k.json"
    write_kraus([], p, 2, 3)
    assert _reads_alike(read, p, flat=False)[0].choi.entries.shape == (6, 6)


def test_cli_docs_inputs_read_flat_and_alike(tmp_path, read):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS["cli-docs"]
    cases = workload.make_cases(np.random.default_rng(1), str(tmp_path))[:2]
    forms = set()
    for case in cases:
        for path in (case.path_a, case.path_b):
            forms.add(json.loads(pathlib.Path(path).read_text())["repr"])
            _reads_alike(read, path)
    assert forms == {"choi", "kraus"}
