"""`cpmean lebesgue` on generic document pairs.

Each pair is drawn once per seed and run as drawn: dimensions 1-3 on each side,
ranks uniform on 0..mn, Gaussian Kraus operators, choi or kraus form, and
log10 scales independent on [-12, 12].  Every run must exit 0 with every check
passed; no input is dropped, rescaled or redrawn.  Each document is decoded
and admitted from its file, not taken from the memo its save fills.
"""

import json

import numpy as np
import pytest

from cpmean.cli import main

from conftest import gaussian_cp, write_channel


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lebesgue_passes_on_generic_document_pairs(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    paths = [str(tmp_path / "phi.json"), str(tmp_path / "psi.json")]
    failures = []
    for i in range(300):
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        for path in paths:
            f = gaussian_cp(rng, m, n, 10.0 ** rng.uniform(-12.0, 12.0))
            write_channel(f, path, repr_kind=("choi", "kraus")[int(rng.integers(2))])
        code = main(["--format", "json", "lebesgue", *paths])
        out, err = capsys.readouterr()
        checks = json.loads(out)["checks"] if out else []
        failed = [c["name"] for c in checks if not c["passed"]]
        if code or failed:
            failures.append((i, code, failed or err))
    assert failures == []
