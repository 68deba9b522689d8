"""Channel serialization: JSON documents holding a Choi matrix or Kraus list.

Schema (all complex scalars are two-element arrays [re, im]; no NaN/Inf):

    {
      "dim_in": m, "dim_out": n,
      "repr": "choi" | "kraus",
      "data": choi rows (mn x mn)            for "choi"
              list of operators (n x m each) for "kraus",
      "name": optional string
    }

A document in the layout ``json.dumps`` writes (keys in the order above, ", " and ": "
between items, an optional newline) is read flat (``_flat_doc``): its data, number bytes
removed, must be its shape's bracket skeleton with no cell empty, and one ``json.loads``
parses the numbers.  Any other, or one whose flat read fails, is parsed as nested lists,
the read that raises.  Both convert all cells in one ``hermlinalg._as_array`` call, a
Kraus list as one (k, n, m) stack: a ragged, null, string, boolean, non-finite or too
large cell is a ParseError; a float64 comes through bit for bit.  The form written is
choi, whose floats are Python's shortest round-trip repr, so a document of an exactly
Hermitian matrix survives save/load bit-exactly, signed zeros included.  ``save_channel``
writes the ``json.dumps`` bytes from the upper triangle, one ``float.__repr__`` per part
modulus (``_data_text``), and returns their SHA-256, by which a ``-o`` report names them.

Each document is decoded and admitted once per process.  The last three
documents read or written are kept as (map, name) by the SHA-256 of their
bytes, in the slots ``docs`` of the run ``hermlinalg._RUN`` under its lock:
``read_doc`` reads a file once and hashes it, and decodes only bytes it has
not seen lately; ``save_channel`` keeps the map it wrote, which a fresh parse
would rebuild bit for bit.  A document that fails to parse is never kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np

from . import hermlinalg
from .cpmaps import CpMap, from_choi, from_kraus
from .errors import CpMeanError, DomainError, ParseError

_DOC_SLOTS = 3
_HEAD = re.compile(rb'\{"dim_in": ([1-9][0-9]*), "dim_out": ([1-9][0-9]*), '
                   rb'"repr": "(choi|kraus)", "data": ')  # the json.dumps layout up to the data
_TAIL = re.compile(rb'(?:, "name": ("(?:[^"\\]|\\.)*"))?\}\n?')  # after its last "]"


def _remember(sha256: str, chan: CpMap, name: str | None) -> tuple[CpMap, str | None]:
    """Keep (chan, name) for the bytes of hash sha256, dropping the least
    recently used entry beyond ``_DOC_SLOTS``; an empty name is kept as None."""
    entry = (chan, name or None)
    run = hermlinalg._RUN
    with run.lock:
        run.docs.pop(sha256, None)
        run.docs[sha256] = entry
        while len(run.docs) > _DOC_SLOTS:
            del run.docs[next(iter(run.docs))]
    return entry


def _recall(sha256: str) -> tuple[CpMap, str | None] | None:
    """The kept (map, name) of the bytes of hash sha256, now the most recently
    used, or None."""
    run = hermlinalg._RUN
    with run.lock:
        entry = run.docs.pop(sha256, None)
        if entry is not None:
            run.docs[sha256] = entry
    return entry


def _to_pairs(a) -> list:
    """Nested lists of [re, im] floats, one pair per entry of a complex array."""
    a = np.asarray(a, dtype=np.complex128)
    return np.ascontiguousarray(a).view(np.float64).reshape(*a.shape, 2).tolist()


def _data_text(a: np.ndarray) -> str:
    """``json.dumps(_to_pairs(a))`` of a square complex array by one ``float.__repr__`` per part
    modulus of its upper triangle: a cell below writes its mirror's with its own sign bits."""
    v, n = np.ascontiguousarray(a).view(np.float64).reshape(*a.shape, 2), len(a)
    i, j = np.triu_indices(n)
    up, lo = v[i, j], v[j, i]
    text = np.array(list(map(float.__repr__, np.abs(up).ravel().tolist())), dtype=object)
    (text, neg), cells = (x.reshape(-1, 2) for x in (text, "-" + text)), np.empty_like(v, object)
    cells[j, i] = np.where(np.signbit(lo), neg, text)
    cells[i, j] = np.where(np.signbit(up), neg, text)
    r, p = np.nonzero(np.abs(lo) != np.abs(up))  # moduli unlike its mirror's: none if Hermitian
    cells[j[r], i[r], p] = list(map(float.__repr__, lo[r, p].tolist()))
    row = "[" + ", ".join(["[%s, %s]"] * n) + "]"
    return ("[" + ", ".join([row] * n) + "]") % tuple(cells.ravel().tolist())


def _rows_to_matrix(rows, shape: tuple[int, ...], flat: bool = False) -> np.ndarray:
    """Complex array of shape (mn, mn) or (k, n, m) from nested [re, im] pairs or flat parts."""
    arr = hermlinalg._as_array(rows, np.float64, ParseError)
    arr = arr.reshape(*shape, 2) if flat else arr
    if arr.shape != (*shape, 2):
        raise ParseError(f"expected shape {(*shape, 2)} of [re, im] pairs, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParseError("non-finite entries are not permitted in documents")
    return arr.view(np.complex128)[..., 0]


def channel_to_doc(f: CpMap, name: str | None = None) -> dict:
    """Serialize a CpMap to a JSON-ready choi document."""
    doc = {"dim_in": f.dim_in, "dim_out": f.dim_out, "repr": "choi",
           "data": _to_pairs(f.choi.entries)}
    if name is not None:
        doc["name"] = name
    return doc


def _flat_doc(raw: bytes) -> dict:
    """The document of bytes in the layout ``json.dumps`` writes, its data the flat list of
    its cells' parts; ValueError for any other layout, or where a number does not parse."""
    head, end = _HEAD.match(raw), raw.rfind(b"]") + 1
    if not (head and (tail := _TAIL.fullmatch(raw, end))):
        raise ValueError("not the json.dumps layout")
    m, n, kind, span = int(head[1]), int(head[2]), head[3].decode(), raw[head.end():end]
    bare, size, skeleton = span.translate(None, b"0123456789+-.eE"), 0, b""
    shape = (m * n, m * n, 2) if kind == "choi" else (len(bare) // (n * (6 * m + 2) + 2), n, m, 2)
    for d in reversed(shape):  # the skeleton's length, n(6m + 2) for an n x m operator's
        size = d * (size + 2)
    for d in reversed(shape) if size == len(bare) else ():  # none longer than bare is built
        skeleton = b"[" + b", ".join([skeleton] * d) + b"]"
    c = np.frombuffer(span, np.uint8)  # an empty cell ("[," or " ]") lets a stray number parse
    if bare != skeleton or ((c[:-1] == 91) & (c[1:] == 44) | (c[:-1] == 32) & (c[1:] == 93)).any():
        raise ValueError("not the json.dumps layout")
    name = tail[1] and json.loads(tail[1].decode())
    return {"dim_in": m, "dim_out": n, "repr": kind, "name": name,
            "data": json.loads(b"[" + span.translate(bytes.maketrans(b"[]", b"  ")) + b"]")}


def doc_to_channel(doc, flat: bool = False) -> CpMap:
    """Parse a document object, with flat one of ``_flat_doc``, into a verified CpMap."""
    if not isinstance(doc, dict):
        raise ParseError("channel document must be a JSON object")
    try:
        m = doc["dim_in"]
        n = doc["dim_out"]
        kind = doc["repr"]
        data = doc["data"]
    except KeyError as exc:
        raise ParseError(f"missing document field {exc}") from exc
    if not (hermlinalg._is_whole(m) and hermlinalg._is_whole(n)):
        raise ParseError("dim_in and dim_out must be positive integers")
    if kind == "choi":
        return from_choi(m, n, _rows_to_matrix(data, (m * n, m * n), flat))
    if kind == "kraus":
        if not isinstance(data, list):
            raise ParseError("kraus data must be a list of operators")
        k = len(data) // (2 * m * n) if flat else len(data)
        ops = _rows_to_matrix(data, (k, n, m), flat) if data else []
        return from_kraus(ops, dim_in=m, dim_out=n)
    raise ParseError(f"unknown representation {kind!r}")


def save_channel(f: CpMap, path: str | os.PathLike, name: str | None = None) -> str:
    """Write the choi document of f, the text of ``channel_to_doc``, and
    return the SHA-256 of the bytes written.  The map, admitted as every CpMap
    is, is kept in the memo under that hash, as reading the bytes back gives its
    Choi matrix bit for bit.  A name must be a string; a path that cannot be written
    raises DomainError."""
    if name is not None and not isinstance(name, str):
        raise DomainError(f"document name must be a string, got {type(name).__name__}")
    head = f'{{"dim_in": {f.dim_in}, "dim_out": {f.dim_out}, "repr": "choi", "data": '
    tail = "" if name is None else f', "name": {json.dumps(name)}'
    raw = (head + _data_text(f.choi.entries) + tail + "}\n").encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(raw)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    sha256 = hashlib.sha256(raw).hexdigest()
    _remember(sha256, f, name)
    return sha256


def read_doc(path: str | os.PathLike) -> tuple[CpMap, str | None, str]:
    """The verified map of a channel document file, its name (None when the
    document has none) and the SHA-256 of its bytes.  The file is read once;
    its bytes are decoded and admitted only when the memo does not hold them."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    sha256 = hashlib.sha256(raw).hexdigest()
    entry = _recall(sha256)
    if entry is None:
        try:  # the flat read; a document it does not take is parsed, which raises each error
            chan = doc_to_channel(doc := _flat_doc(raw), flat=True)
        except (ValueError, CpMeanError):
            doc = None
        if doc is None:
            try:
                doc = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise ParseError(f"malformed JSON in {path}: {exc}") from exc
            chan = doc_to_channel(doc)
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise ParseError(f"document name must be a string, got {type(name).__name__}")
        entry = _remember(sha256, chan, name)
    return (*entry, sha256)
