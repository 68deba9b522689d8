import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cpmean import channeldoc, cli, hermlinalg, lebesgue, registry
from cpmean.channeldoc import (
    channel_to_doc,
    doc_to_channel,
    read_doc,
    save_channel,
)
from cpmean.cli import main
from cpmean.cpmaps import (
    depolarizing,
    from_choi,
    from_kraus,
    identity,
    kraus_decompose,
    unitary_conj,
)
from cpmean.errors import DomainError, NotCompletelyPositive, ParseError
from cpmean.hermlinalg import PsdMatrix, Verdict
from cpmean.opmeans import MeanKind
from cpmean.registry import run_example

from conftest import (
    TOL_RECON,
    gaussian_cp,
    gaussian_kraus,
    max_abs,
    random_cp,
    random_unitary,
    read_channel,
    write_channel,
    write_kraus,
)


@pytest.fixture
def channel_files(tmp_path):
    paths = {}
    for name, chan in [
        ("id2", identity(2)),
        ("dep2", depolarizing(2)),
        ("dep3", depolarizing(3)),
        ("half_id2", 0.5 * identity(2)),
    ]:
        p = tmp_path / f"{name}.json"
        write_channel(chan, p, name=name)
        paths[name] = str(p)
    return paths


class TestChannelDoc:
    def test_choi_round_trip_bit_exact(self, tmp_path, rng):
        f = random_cp(rng, 2, 3)
        p = tmp_path / "chan.json"
        write_channel(f, p, name="random")
        g = read_doc(p)[0]
        assert np.array_equal(g.choi.entries, f.choi.entries)
        # a second hop stays byte-identical
        p2 = tmp_path / "chan2.json"
        save_channel(g, p2, name="random")
        assert json.loads(p.read_text())["data"] == json.loads(p2.read_text())["data"]

    def test_kraus_round_trip_same_choi(self, tmp_path, rng):
        u = random_unitary(rng, 2)
        f = unitary_conj(u)
        p = tmp_path / "kraus.json"
        write_kraus([u], p, 2, 2, name="conj")
        g = read_doc(p)[0]
        scale = max(1.0, f.choi.norm())
        assert max_abs(g.choi.entries - f.choi.entries) <= TOL_RECON * scale

    def test_hand_written_kraus_doc(self, tmp_path):
        doc = {
            "dim_in": 2, "dim_out": 2, "repr": "kraus",
            "data": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
        }
        f = doc_to_channel(doc)
        w, _ = f.choi.eig()
        assert sum(w > 1e-10) == 1  # rank-one Choi for a single Kraus operator
        want = from_kraus([np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert max_abs(f.choi.entries - want.choi.entries) < 1e-14

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "trunc.json"
        p.write_text('{"dim_in": 2, "dim_out": 2, "repr": "choi", "data": [[[1')
        with pytest.raises(ParseError):
            read_doc(p)[0]

    def test_missing_field(self):
        with pytest.raises(ParseError):
            doc_to_channel({"dim_in": 2, "repr": "choi", "data": []})

    def test_bad_complex_entry(self):
        doc = channel_to_doc(identity(2))
        doc["data"][0][0] = [1.0]
        with pytest.raises(ParseError):
            doc_to_channel(doc)

    def test_non_finite_rejected(self):
        doc = channel_to_doc(identity(2))
        doc["data"][0][0] = [float("inf"), 0.0]
        with pytest.raises(ParseError):
            doc_to_channel(doc)

    def test_non_hermitian_rejected(self):
        # the Hermiticity rule of every outside matrix, applied by from_choi
        doc = channel_to_doc(identity(2))
        doc["data"][0][1] = [0.7, 0.0]
        with pytest.raises(NotCompletelyPositive, match="not Hermitian"):
            doc_to_channel(doc)

    def test_non_psd_rejected(self):
        doc = channel_to_doc(identity(2))
        doc["data"][0][0] = [-2.0, 0.0]
        with pytest.raises(NotCompletelyPositive):
            doc_to_channel(doc)

    def test_unknown_repr(self):
        doc = channel_to_doc(identity(2))
        doc["repr"] = "superop"
        with pytest.raises(ParseError):
            doc_to_channel(doc)

    @pytest.mark.parametrize("cell", [
        "1.0", None, [1.0, None], ["1", 0.0], [1.0, 0.0, 0.0], [[1.0, 0.0]],
        {"re": 1.0}, [10**400, 0.0], [float("nan"), 0.0], [0.0, float("-inf")],
        [1.0, False], [True, 0.0],
    ])
    def test_bad_cell_rejected(self, cell):
        doc = channel_to_doc(identity(2))
        doc["data"][1][2] = cell
        with pytest.raises(ParseError):
            doc_to_channel(doc)

    @pytest.mark.parametrize("mutate", [
        lambda data: data[0].pop(),                          # ragged rows
        lambda data: data.pop(),                             # a row missing
        lambda data: data.append(data[0]),                   # a row too many
        lambda data: data.__setitem__(0, [data[0]]),         # nesting too deep
        lambda data: data[0].__setitem__(0, [[1.0, 0.0]] * 2),  # two pairs in a cell
    ])
    def test_bad_shape_rejected(self, mutate):
        doc = channel_to_doc(identity(2))
        mutate(doc["data"])
        with pytest.raises(ParseError):
            doc_to_channel(doc)

    def test_bad_data_container_rejected(self):
        for kind, data in (("choi", "[[1, 0]]"), ("choi", {"0": []}),
                           ("kraus", "ops"), ("kraus", {"0": []})):
            with pytest.raises(ParseError):
                doc_to_channel({"dim_in": 1, "dim_out": 1, "repr": kind, "data": data})

    def test_kraus_operator_of_wrong_shape_rejected(self):
        doc = {"dim_in": 2, "dim_out": 2, "repr": "kraus",
               "data": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
        doc_to_channel(doc)
        doc["data"].append([[[1.0, 0.0], [0.0, 0.0]]])  # 1 x 2 instead of 2 x 2
        with pytest.raises(ParseError):
            doc_to_channel(doc)

    def test_empty_kraus_list_is_the_zero_map(self):
        f = doc_to_channel({"dim_in": 2, "dim_out": 3, "repr": "kraus", "data": []})
        assert (f.dim_in, f.dim_out) == (2, 3)
        assert not f.choi.entries.any()

    def test_integer_and_boolean_cells(self):
        # 10**20 is beyond 64-bit integers but within a double; a boolean is
        # not a number, even beside integers that would absorb it
        doc = {"dim_in": 1, "dim_out": 2, "repr": "choi",
               "data": [[[10**20, 0], [1, 0]], [[1, 0], [3, 0]]]}
        got = doc_to_channel(doc).choi.entries
        assert np.array_equal(got, np.array([[1e20, 1.0], [1.0, 3.0]]))
        doc["data"][0][1] = [True, False]
        with pytest.raises(ParseError, match="boolean"):
            doc_to_channel(doc)

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # an exactly Hermitian choi document is kept as parsed, so the whole
        # codec shows here, the sign of each zero included
        doc = {"dim_in": 1, "dim_out": 3, "repr": "choi", "data": [
            [[1.2345678901234567e100, -0.0], [5e-324, -5e-324], [-0.0, 0.30000000000000004]],
            [[5e-324, 5e-324], [0.12345678901234568, 0.0], [-5e-324, -0.0]],
            [[-0.0, -0.30000000000000004], [-5e-324, 0.0], [0.30000000000000004, -0.0]]]}
        assert json.dumps(channel_to_doc(doc_to_channel(doc))) == json.dumps(doc)
        # a choi document goes through the Hermitian symmetrization and back
        c = np.diag([1.0, 0.12345678901234568, 2.0]).astype(np.complex128)
        c[0, 1] = complex(5e-324, -0.30000000000000004)
        c[0, 2] = complex(0.30000000000000004, 5e-324)
        c[1, 0], c[2, 0] = c[0, 1].conjugate(), c[0, 2].conjugate()
        f = from_choi(1, 3, c)
        assert f.choi.entries.tobytes() == c.tobytes()
        p, p2 = tmp_path / "tricky.json", tmp_path / "tricky2.json"
        write_channel(f, p)
        g = read_doc(p)[0]
        assert g.choi.entries.tobytes() == c.tobytes()
        save_channel(g, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_unwritable_path_raises_domain_error(self, tmp_path):
        with pytest.raises(DomainError, match="cannot write"):
            save_channel(identity(2), tmp_path)
        with pytest.raises(DomainError, match="cannot write"):
            save_channel(identity(2), tmp_path / "missing" / "x.json")

    def test_choi_round_trip_keeps_signed_zeros(self):
        doc = {"dim_in": 1, "dim_out": 2, "repr": "choi",
               "data": [[[1.0, 0.0], [-0.0, -0.001]], [[-0.0, 0.001], [1.0, -0.0]]]}
        assert json.dumps(channel_to_doc(doc_to_channel(doc))) == json.dumps(doc)

    def test_saved_text_matches_cell_oracle(self, tmp_path, rng):
        f = random_cp(rng, 2, 3)
        p = tmp_path / "chan.json"
        save_channel(f, p, name="random")
        text = p.read_text()
        assert text == json.dumps(channel_to_doc(f, name="random")) + "\n"
        want = [[[float(z.real), float(z.imag)] for z in row] for row in f.choi.entries]
        assert json.loads(text)["data"] == want

    # the bad operator of a kraus document of five, and its fault
    BAD_OPERATOR = {
        "wrong shape": lambda op: op.pop(),
        "boolean": lambda op: op[1].__setitem__(0, [True, 0.0]),
        "string": lambda op: op[0].__setitem__(1, ["0.5", 0.0]),
        "null": lambda op: op[1].__setitem__(1, [0.5, None]),
        "NaN": lambda op: op[0].__setitem__(0, [float("nan"), 0.0]),
    }

    @pytest.mark.parametrize("fault", BAD_OPERATOR)
    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    def test_a_bad_kraus_operator_exits_2(self, tmp_path, capsys, rng, at, fault):
        ops = [(random_unitary(rng, 2) / 5.0).view(np.float64).reshape(2, 2, 2).tolist()
               for _ in range(5)]
        self.BAD_OPERATOR[fault](ops[at])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim_in": 2, "dim_out": 2, "repr": "kraus", "data": ops}))
        assert main(["verify", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_kraus_document_converts_its_cells_once(self, tmp_path, rng, monkeypatch):
        calls = []
        real = channeldoc._rows_to_matrix
        monkeypatch.setattr(channeldoc, "_rows_to_matrix",
                            lambda rows, shape: calls.append(shape) or real(rows, shape))
        p = tmp_path / "k.json"
        write_kraus([random_unitary(rng, 3) / 3.0 for _ in range(7)], p, 3, 3)
        read_doc(p)
        assert calls == [(7, 3, 3)]

    def test_kraus_decode_matches_cell_oracle(self, tmp_path, rng):
        for m, n, k in ((2, 3, 1), (3, 2, 4), (2, 2, 7)):
            p = tmp_path / f"k{m}{n}{k}.json"
            write_kraus([rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
                         for _ in range(k)], p, m, n)
            cells = json.loads(p.read_text())["data"]
            ops = [np.array([[complex(re, im) for re, im in row] for row in op]) for op in cells]
            got = read_doc(p)[0].choi.entries
            assert got.tobytes() == from_kraus(ops).choi.entries.tobytes()


# each subcommand's argv and the indices where a global flag can sit: before
# the subcommand, between its options and after its positionals
GLOBAL_SITES = {
    "mean": (["mean", "--kind", "geo", "@id2", "@dep2", "-o", "{tmp}/m.json"],
             [0, 1, 3, 4, 5, 7]),
    "order": (["order", "@half_id2", "@id2"], [0, 1, 2, 3]),
    "index": (["index", "@dep3"], [0, 1, 2]),
    "verify": (["verify", "@half_id2"], [0, 1, 2]),
    "lebesgue": (["lebesgue", "@id2", "@dep2", "-o", "{tmp}/split"], [0, 1, 2, 3, 5]),
    "example": (["example", "rotation", "theta=0.5"], [0, 1, 3]),
}


class TestCliCommands:
    def test_mean_geo_writes_output(self, channel_files, tmp_path, capsys):
        out = str(tmp_path / "geo.json")
        code = main(["mean", "--kind", "geo", channel_files["id2"],
                     channel_files["dep2"], "-o", out])
        assert code == 0
        got = read_channel(out)
        want = identity(2).choi.entries / 2.0
        assert max_abs(got.choi.entries - want) < 1e-10
        text = capsys.readouterr().out
        assert "block certificate" in text and "all checks passed" in text

    def test_mean_power_half_equals_geo(self, channel_files, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert main(["mean", "--kind", "power:0.5", channel_files["id2"],
                     channel_files["dep2"], "-o", out_a]) == 0
        assert main(["mean", "--kind", "geo", channel_files["id2"],
                     channel_files["dep2"], "-o", out_b]) == 0
        a = read_channel(out_a).choi.entries
        b = read_channel(out_b).choi.entries
        assert max_abs(a - b) < 1e-7

    def test_mean_harm_value(self, channel_files, tmp_path):
        out = str(tmp_path / "h.json")
        assert main(["mean", "--kind", "harm", channel_files["id2"],
                     channel_files["dep2"], "-o", out]) == 0
        got = read_channel(out).choi.entries
        assert max_abs(got - 0.4 * identity(2).choi.entries) < 1e-10

    def test_order(self, channel_files, capsys):
        assert main(["order", channel_files["half_id2"], channel_files["id2"]]) == 0
        assert "<=cp" in capsys.readouterr().out
        assert main(["order", channel_files["id2"], channel_files["dep2"]]) == 0
        assert "incomparable" in capsys.readouterr().out
        assert main(["order", channel_files["id2"], channel_files["id2"]]) == 0
        assert "equal" in capsys.readouterr().out

    def test_index(self, channel_files, capsys):
        assert main(["index", channel_files["dep3"]]) == 0
        out = capsys.readouterr().out
        assert "9" in out

    def test_index_infinite(self, tmp_path, capsys):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        p = tmp_path / "conj.json"
        write_channel(unitary_conj(h), p)
        assert main(["index", str(p)]) == 0
        assert "infinite" in capsys.readouterr().out

    def test_verify(self, channel_files, capsys):
        assert main(["verify", channel_files["dep2"]]) == 0
        out = capsys.readouterr().out
        assert "completely positive" in out and "trace preserving" in out

    def test_verify_json_schema(self, channel_files, capsys):
        assert main(["--format", "json", "verify", channel_files["dep2"]]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"command", "inputs", "outputs", "checks", "passed"}
        assert obj["outputs"]["flags"]["is_unital"] is True
        for check in obj["checks"]:
            assert set(check) == {"name", "passed", "residual", "tolerance"}

    # the mean, then the chain's other means: parallel's harm is twice the
    # result, and power's chain has its own ends, its weighted harmonic mean a
    # custom connection and its weighted arithmetic mean a plain sum
    @pytest.mark.parametrize("kind, calls", [
        ("geo", ["geo", "harm", "arith"]), ("harm", ["harm", "geo", "arith"]),
        ("arith", ["arith", "harm", "geo"]), ("parallel", ["parallel", "geo", "arith"]),
        ("power:0.3", ["power", "custom"])], ids=["geo", "harm", "arith", "parallel", "power"])
    def test_mean_chain_checks_reuse_the_result(self, channel_files, monkeypatch,
                                                 capsys, kind, calls):
        seen = []
        real_mean_cp = cli.mean_cp

        def counting(kind, f, g, **kwargs):
            seen.append(kind.tag)
            return real_mean_cp(kind, f, g, **kwargs)

        monkeypatch.setattr(cli, "mean_cp", counting)
        assert main(["mean", "--kind", kind, channel_files["id2"],
                     channel_files["dep2"]]) == 0
        assert seen == calls

    def test_json_reports_are_single_lines(self, channel_files, capsys):
        assert main(["--format", "json", "verify", channel_files["dep2"]]) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and json.loads(text)["command"] == "verify"
        assert main(["--format", "json", "example", "--all"]) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and len(json.loads(text)) >= 9

    def test_lebesgue_writes_parts(self, tmp_path, capsys):
        phi = tmp_path / "phi.json"
        psi = tmp_path / "psi.json"
        from cpmean.cpmaps import functional
        write_channel(functional(np.diag([1.0, 0.0])), phi, name="phi")
        write_channel(functional(np.diag([0.5, 0.5])), psi, name="psi")
        prefix = str(tmp_path / "split")
        assert main(["lebesgue", str(phi), str(psi), "-o", prefix]) == 0
        ac = read_channel(prefix + ".ac.json").choi.entries
        sing = read_channel(prefix + ".sing.json").choi.entries
        assert max_abs(ac - np.diag([0.5, 0.0])) < 1e-10
        assert max_abs(sing - np.diag([0.0, 0.5])) < 1e-10
        assert "alpha_min" in capsys.readouterr().out

    def test_lebesgue_passes_where_the_limit_oracle_stalls(self, tmp_path, capsys):
        # a direction where C_F has eigenvalue 1e-8 and C_G weight 1: n F : G is
        # still far from its limit at n = 2^20, so the parallel-sum oracle raises
        # NonConvergence; the closed form takes no limit, and ac = I passes
        u = random_unitary(np.random.default_rng(5), 4)
        phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
        write_channel(from_choi(2, 2, (u * np.array([1e-8, 0.5, 1.0, 2.0])) @ u.conj().T),
                      phi, name="phi")
        write_channel(from_choi(2, 2, np.eye(4)), psi, name="psi")
        prefix = str(tmp_path / "split")
        assert main(["--format", "json", "lebesgue", str(phi), str(psi), "-o", prefix]) == 0
        out = json.loads(capsys.readouterr().out)
        checks = {c["name"]: c for c in out["checks"]}
        assert all(c["passed"] for c in checks.values())
        assert checks["ac = Ando closed form"]["residual"] <= 1e-14
        assert max_abs(read_channel(prefix + ".ac.json").choi.entries - np.eye(4)) < 1e-14

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_lebesgue_checks_are_scale_free(self, tmp_path, capsys, monkeypatch, s):
        rng = np.random.default_rng(11)
        phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
        write_channel(s * random_cp(rng, 2, 2, rank=3), phi, name="phi")
        write_channel(s * random_cp(rng, 2, 2, rank=3), psi, name="psi")
        argv = ["--format", "json", "lebesgue", str(phi), str(psi)]
        assert main(argv) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        ac = checks["ac is phi-absolutely continuous"]
        assert ac["passed"] and ac["tolerance"] == 1e-8 and ac["residual"] <= 1e-12
        # a closed form off by a factor 2 fails at every scale, and only it fails
        real = cli.hermlinalg._ando_part
        monkeypatch.setattr(cli.hermlinalg, "_ando_part",
                            lambda cf, cg: PsdMatrix._trusted(2.0 * real(cf, cg).entries))
        assert main(argv) == 3
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == [
            "ac = Ando closed form"]

    def test_example_all_passes(self, capsys):
        assert main(["example", "--all"]) == 0
        out = capsys.readouterr().out
        assert out.count("==") >= 9

    @pytest.mark.parametrize("args", [["rotation"], ["rotation", "theta=1"]], ids=" ".join)
    def test_example_all_with_a_name_exits_2(self, capsys, args):
        assert main(["example", "--all", *args]) == 2
        assert capsys.readouterr() == ("", "error: --all takes no name or parameters\n")

    def test_a_repeated_example_parameter_exits_2(self, capsys):
        assert main(["example", "rotation", "theta=1", "theta=2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: example parameter 'theta' is given twice")

    def test_example_with_params(self, capsys):
        assert main(["example", "quantum-channels", "d=3"]) == 0
        assert "d=3" in capsys.readouterr().out

    def test_unknown_example(self, capsys):
        assert main(["example", "nope"]) == 2

    def test_unknown_example_parameter(self):
        assert main(["example", "rotation", "bogus=1"]) == 2

    @pytest.mark.parametrize("name", ["non-unital", "adjoint-maps"])
    def test_an_example_without_parameters_rejects_every_key(self, capsys, name):
        assert main(["example", name, "_=3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: example {name!r} rejects parameters")
        assert main(["example", name]) == 0

    @pytest.mark.parametrize("argv", [
        ["states", "seed=-1"], ["states", "seed=2.5"],
        ["quantum-channels", "d=-1"], ["quantum-channels", "d=0"],
        ["quantum-channels", "d=2.5"],
        ["schur-multiplier", "count=0"], ["schur-multiplier", "count=-3"],
        ["schur-multiplier", "count=2.5"], ["schur-multiplier", "seed=-1"],
        ["kosaki-fidelity", "count=0"], ["kosaki-fidelity", "seed=-2"],
        ["ando-recovery", "count=0"], ["ando-recovery", "seed=0.5"],
    ], ids=" ".join)
    def test_bad_count_dimension_or_seed_exits_2(self, capsys, argv):
        # a DomainError, not a numpy ValueError escaping as an internal error
        key = argv[1].partition("=")[0]
        assert main(["example", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be an integer")

    def test_smallest_count_dimension_and_seed_pass(self):
        for name, params in (("quantum-channels", {"d": 1}), ("states", {"seed": 0}),
                             ("schur-multiplier", {"seed": 0, "count": 1}),
                             ("kosaki-fidelity", {"seed": 0, "count": 1}),
                             ("ando-recovery", {"seed": 0, "count": 1})):
            assert run_example(name, **params).passed

    @pytest.mark.parametrize("argv", [
        ["ce-tensor", "rho=0.5", "sigma=0.2,0.3,0.5"],
        ["ce-tensor", "rho=0.5,0.5", "sigma=0.2,0.3,0.5"],
        ["rotation", "theta=inf"], ["rotation", "theta=-inf"], ["rotation", "theta=nan"],
        ["ce-tensor", "sigma=inf,1"], ["ce-tensor", "sigma=nan,1"],
        ["ce-tensor", "rho=0.5,-inf"],
        # finite weights whose sum or sum of reciprocals is not
        ["ce-tensor", "rho=1e-320,1"], ["ce-tensor", "sigma=1,5e-324"],
        ["ce-tensor", "rho=1e308,1e308", "sigma=1e308,1e308"],
    ], ids=" ".join)
    def test_bad_weights_or_angle_exit_2_with_one_error_line(self, capsys, argv):
        # a numpy warning raised as an error would escape as an internal error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["example", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("weights", ["1e100", "1e160", "1e200"])
    def test_ce_tensor_passes_at_extreme_weight_scales(self, capsys, weights):
        # closed forms relative to their scale, square roots before products
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["example", "ce-tensor", f"rho={weights},{weights}",
                         f"sigma={weights},{weights}"])
        assert (code, capsys.readouterr().err) == (0, "")

    @pytest.mark.parametrize("params", [["theta"], ["theta=abc"]], ids=" ".join)
    def test_malformed_example_parameter_exits_2(self, capsys, params):
        assert main(["example", "rotation", *params]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unexpected_exception_exits_3_with_one_internal_error_line(
            self, channel_files, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("broken command")

        monkeypatch.setattr(cli, "cmd_index", broken)
        assert main(["index", channel_files["dep3"]]) == 3
        assert capsys.readouterr() == ("", "internal error: broken command\n")

    @pytest.mark.parametrize("argv", [
        ["mean", "--kind", "geo", "A", "B", "-o", "{tmp}/missing/x.json"],
        ["lebesgue", "A", "B", "-o", "{tmp}/missing/p"],
        ["mean", "--kind", "geo", "A", "B", "-o", "{tmp}"],
    ], ids=["mean-missing-dir", "lebesgue-missing-dir", "mean-to-a-directory"])
    def test_unwritable_output_exits_2_with_one_error_line(self, channel_files, tmp_path,
                                                           capsys, argv):
        docs = {"A": channel_files["id2"], "B": channel_files["dep2"]}
        assert main([docs.get(a) or a.format(tmp=tmp_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write ") and err.count("\n") == 1

    def test_lebesgue_leaves_no_half_split_when_a_part_cannot_be_written(
            self, channel_files, tmp_path, capsys):
        (tmp_path / "q.sing.json").mkdir()
        prefix = str(tmp_path / "q")
        argv = ["lebesgue", channel_files["id2"], channel_files["dep2"], "-o", prefix]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write ") and err.count("\n") == 1
        assert not (tmp_path / "q.ac.json").exists()

    @pytest.mark.parametrize("swap", [False, True], ids=["small-large", "large-small"])
    @pytest.mark.parametrize("command", [["mean", "--kind", "log"], ["lebesgue"]],
                             ids=["mean-log", "lebesgue"])
    def test_scale_ratio_beyond_the_double_range_is_answered(self, tmp_path, capsys, command,
                                                             swap):
        # scales 1e310 apart: the log mean (1.4e297) is a double, and so is the
        # split's alpha_min of 1e-10 I against 1e300 I (1e-310), while that of
        # 1e300 I against 1e-10 I (1e310) is not: one error line, exit 2
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_channel(from_choi(1, 2, 1e-10 * np.eye(2)), a)
        write_channel(from_choi(1, 2, 1e300 * np.eye(2)), b)
        fails = command == ["lebesgue"] and not swap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, *((b, a) if swap else (a, b))]) == (2 if fails else 0)
        err = capsys.readouterr().err
        assert err == ("error: alpha_min is beyond double range\n" if fails else "")

    @pytest.mark.parametrize("command", [["index"], ["lebesgue", "b"]],
                             ids=["index", "lebesgue"])
    def test_a_result_beyond_the_double_range_exits_2(self, tmp_path, capsys, rng, command):
        # finite index and alpha_min beyond DBL_MAX, at scales 1e308 apart
        u = random_unitary(rng, 4)
        a, b = ((u * w) @ u.conj().T for w in ([1.0, 1.0, 1.0, 0.1], [0.5, 0.5, 0.5, 1.0]))
        paths = {"a": str(tmp_path / "a.json"), "b": str(tmp_path / "b.json")}
        write_channel(from_choi(2, 2, 1e-308 * a), paths["a"])
        write_channel(from_choi(2, 2, b), paths["b"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command[0], paths["a"], *(paths[x] for x in command[1:])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond double range" in err
        assert err.count("\n") == 1 and "scale ratio" not in err

    @pytest.mark.parametrize("k", [1018, 1020])
    @pytest.mark.parametrize("command", [["index"], ["lebesgue", "b"]],
                             ids=["index", "lebesgue"])
    def test_a_largest_eigenvalue_beyond_the_double_range_is_read_at_unit_scale(
            self, tmp_path, capsys, command, k):
        # 5 J + I, full rank, has entries up to 6 and largest eigenvalue 21:
        # times 2^1020 its entries are finite and that eigenvalue is not, but
        # the eig is kept at unit scale, so the index and the split are doubles
        paths = {"a": str(tmp_path / "a.json"), "b": str(tmp_path / "b.json")}
        write_channel(from_choi(2, 2, 2.0 ** k * (5.0 * np.ones((4, 4)) + np.eye(4))),
                      paths["a"])
        write_channel(depolarizing(2), paths["b"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--format", "json", command[0], paths["a"],
                         *(paths[x] for x in command[1:])]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        value = json.loads(out)["outputs"]["index" if command == ["index"] else "alpha_min"]
        # (5J + I)^-1 = I - 5J/21: the index <v, C^-1 v> of v = vec(1) is 2^-k 22/21,
        # and alpha_min of G = I/2 is 2^-k/2, half the largest eigenvalue of C^-1
        want = 22.0 / 21.0 if command == ["index"] else 0.5
        assert value == pytest.approx(2.0 ** -k * want, rel=1e-12)

    def test_a_subnormal_document_has_its_geometric_mean(self, tmp_path, capsys):
        # 1/5e-324 overflows: the fold divides by the scale itself
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"dim_in": 1, "dim_out": 1, "repr": "choi",
                                 "data": [[[5e-324, 0.0]]]}))
        assert main(["--format", "json", "mean", "--kind", "geo", str(p), str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["choi"] == [[[5e-324, 0.0]]]

    @pytest.mark.parametrize("command", [
        *(["mean", "--kind", kind] for kind in
          ("arith", "geo", "harm", "parallel", "log", "power:0.3")), ["lebesgue"]],
        ids=lambda c: c[-1])
    def test_the_smallest_subnormal_document_passes_every_check(self, tmp_path, capsys, command):
        # TOL * 5e-324 rounds to 0, while the parallel sum's chain doubles a
        # result one rounding left at 5e-324: no bound is below a rounding unit
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"dim_in": 1, "dim_out": 1, "repr": "choi",
                                 "data": [[[5e-324, 0.0]]]}))
        assert main(["--format", "json", *command, str(p), str(p)]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks and all(c["tolerance"] >= 5e-324 for c in checks)

    def test_text_report_of_a_huge_matrix_is_finite(self, tmp_path, capsys):
        # rounding 1e300 to 10 decimals would overflow: a warning and "inf"
        a = str(tmp_path / "a.json")
        write_channel(from_choi(1, 2, 1e300 * np.eye(2)), a)
        assert main(["mean", "--kind", "arith", a, a]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "inf" not in out and "1.e+300" in out

    @pytest.mark.parametrize("command", GLOBAL_SITES)
    def test_globals_anywhere(self, channel_files, tmp_path, capsys, command):
        # a global flag before the subcommand, between its options or after its
        # positionals gives the same run; given twice, the last value wins
        argv, sites = GLOBAL_SITES[command]
        argv = [channel_files.get(a[1:]) or a.format(tmp=tmp_path) for a in argv]

        def run(*placed):  # (site, flag, value), inserted from the last site back
            line = list(argv)
            for site, *flag in sorted(placed, key=lambda p: p[0], reverse=True):
                line[site:site] = flag
            return main(line), capsys.readouterr().out

        for flag, first, last in (("--format", "text", "json"), ("--tol", "10", "1e-9")):
            want = run((0, flag, last))
            if flag == "--format" or command in ("order", "verify"):
                assert run((0, flag, first)) != want
            for i in sites:
                assert run((i, flag, last)) == want, (flag, i)
                for j in sites[sites.index(i):]:
                    # at one site, the first value goes before the last
                    assert run((j, flag, last), (i, flag, first)) == want, (flag, i, j)

    @pytest.mark.parametrize("command", GLOBAL_SITES)
    def test_every_subcommand_help_lists_the_global_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--format {text,json}" in out and "--tol TOL" in out

    def test_global_sites_cover_every_subcommand(self):
        assert set(GLOBAL_SITES) == {name[4:] for name in dir(cli) if name.startswith("cmd_")}

    def test_example_reports_are_named_by_registry_key(self, capsys):
        assert main(["--format", "json", "example", "--all"]) == 0
        names = [rep["command"] for rep in json.loads(capsys.readouterr().out)]
        assert names == [f"example {key}" for key in registry.REGISTRY]
        assert run_example("rotation", theta=0.5).command == "example rotation"

    @pytest.mark.parametrize("value", ["-0.0", "-0", "0"])
    def test_a_zero_tol_is_echoed_as_zero(self, channel_files, capsys, value):
        order = ["order", channel_files["id2"], channel_files["id2"], "--tol", value]
        verify = ["verify", channel_files["id2"], "--tol", value]
        assert main(order) == 0
        assert "\ntolerance: 0\n" in capsys.readouterr().out
        assert main(verify) == 0
        text = capsys.readouterr().out
        assert "'tolerance': 0.0}" in text and "(tol -" not in text
        for argv in (order, verify):
            assert main(["--format", "json", *argv]) == 0
            out = capsys.readouterr().out
            assert '"tolerance": 0.0' in out and '"tolerance": -0.0' not in out

    def test_tol_flag_changes_order(self, channel_files, capsys):
        # with a coarse tolerance everything collapses to "equal"
        assert main(["order", channel_files["half_id2"], channel_files["id2"],
                     "--tol", "10.0"]) == 0
        assert "equal" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
    def test_bad_tol_exits_2(self, channel_files, capsys, value):
        assert main(["order", channel_files["id2"], channel_files["id2"], "--tol", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--tol must be a finite number >= 0, got '{value}'" in captured.err


def _reports_keeping_the_rule(text):
    """The JSON reports of one run, each check passed iff residual <= tolerance."""
    reports = json.loads(text)
    reports = reports if isinstance(reports, list) else [reports]
    for rep in reports:
        for c in rep["checks"]:
            assert c["passed"] == (c["residual"] <= c["tolerance"]), (rep["command"], c)
        assert rep["passed"] == all(c["passed"] for c in rep["checks"])
    return reports


class TestVerdictRule:
    @pytest.mark.parametrize("argv", [
        ["mean", "--kind", "geo", "{id2}", "{dep2}"],
        ["mean", "--kind", "harm", "{id2}", "{dep2}"],
        ["verify", "{dep2}"],
        ["verify", "{half_id2}"],
        ["order", "{half_id2}", "{id2}"],
        ["index", "{dep3}"],
        ["example", "--all"],
    ])
    def test_every_check(self, channel_files, capsys, argv):
        code = main(["--format", "json", *(a.format(**channel_files) for a in argv)])
        reports = _reports_keeping_the_rule(capsys.readouterr().out)
        assert code == (0 if all(r["passed"] for r in reports) else 3)

    def test_verify_reports_the_bound_it_decides_with(self, tmp_path, capsys):
        # within the admission bound 1e-9 * ||C|| = 1e-7, far outside a bare 1e-9
        p = tmp_path / "c.json"
        write_channel(from_choi(2, 2, np.diag([-5e-8, 1.0, 10.0, 100.0])), p)
        assert main(["--format", "json", "verify", str(p)]) == 3  # not unital
        (rep,) = _reports_keeping_the_rule(capsys.readouterr().out)
        cp = rep["checks"][0]
        assert cp["name"] == "completely positive" and rep["outputs"]["flags"]["is_cp"]
        assert (cp["residual"], cp["tolerance"]) == (5e-8, 1e-9 * 100.0)

    def test_lebesgue(self, tmp_path, capsys, monkeypatch):
        # each pair as it is and with a closed form off by a factor 2, which
        # fails wherever the ac part is not 0
        rng = np.random.default_rng(7)
        phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
        real, failed = cli.hermlinalg._ando_part, 0
        for _ in range(6):
            d = int(rng.integers(2, 4))
            write_channel(random_cp(rng, d, d, rank=int(rng.integers(1, d * d + 1))), phi)
            write_channel(random_cp(rng, d, d, rank=int(rng.integers(1, d * d + 1))), psi)
            for factor in (1.0, 2.0):
                monkeypatch.setattr(cli.hermlinalg, "_ando_part", lambda cf, cg, c=factor:
                                    PsdMatrix._trusted(c * real(cf, cg).entries))
                code = main(["--format", "json", "lebesgue", str(phi), str(psi)])
                (rep,) = _reports_keeping_the_rule(capsys.readouterr().out)
                assert code == (0 if rep["passed"] else 3)
                assert rep["passed"] or factor == 2.0
                failed += not rep["passed"]
        assert failed >= 3


def _failed_checks(out: str) -> list[str]:
    (rep,) = _reports_keeping_the_rule(out)
    return [c["name"] for c in rep["checks"] if not c["passed"]]


class TestChecksAtJointScale:
    """Admission, mean and Lebesgue checks are relative to the operands at every scale."""

    @pytest.fixture
    def scaled_files(self, tmp_path):
        def write(s, f, g):
            paths = [str(tmp_path / "f.json"), str(tmp_path / "g.json")]
            write_channel(s * f, paths[0])
            write_channel(s * g, paths[1])
            return paths
        return write

    @pytest.mark.parametrize("s", [1e-12, 1e-8, 1.0, 1e12])
    def test_geo_certificate_rejects_twice_the_mean(self, scaled_files, capsys, monkeypatch, s):
        rng = np.random.default_rng(44)
        argv = ["--format", "json", "mean", "--kind", "geo",
                *scaled_files(s, random_cp(rng, 2, 2), random_cp(rng, 2, 2))]
        assert main(argv) == 0
        assert _failed_checks(capsys.readouterr().out) == []
        real = cli.mean_cp
        monkeypatch.setattr(cli, "mean_cp", lambda kind, f, g: 2.0 * real(kind, f, g))
        assert main(argv) == 3
        assert _failed_checks(capsys.readouterr().out) == [
            "block certificate [[A,G],[G,B]] PSD"]

    @pytest.mark.parametrize("s", [1e-12, 1e-8, 1.0, 1e12])
    def test_chain_check_rejects_twice_the_harmonic_mean(self, scaled_files, capsys,
                                                         monkeypatch, s):
        rng = np.random.default_rng(45)
        argv = ["--format", "json", "mean", "--kind", "geo",
                *scaled_files(s, random_cp(rng, 2, 2), random_cp(rng, 2, 2))]
        real = cli.mean_cp

        def doubled_harm(kind, f, g):
            return (2.0 if kind.tag == "harm" else 1.0) * real(kind, f, g)

        monkeypatch.setattr(cli, "mean_cp", doubled_harm)
        assert main(argv) == 3
        assert _failed_checks(capsys.readouterr().out) == ["chain geo - harm >= 0"]

    @pytest.mark.parametrize("kind, factor, failed", [
        ("geo", 2.0, ["block certificate [[A,G],[G,B]] PSD", "chain arith - geo >= 0"]),
        ("harm", 2.0, ["chain geo - harm >= 0"]),
        ("parallel", 2.0, ["chain geo - harm >= 0"]),
        ("log", 2.0, ["chain arith - log >= 0"]),
        ("power:0.3", 2.0, ["chain arith:0.3 - power:0.3 >= 0"]),
        # arith tops its chain: only a result below geo can fail it
        ("arith", 0.5, ["chain arith - geo >= 0"]),
    ])
    @pytest.mark.parametrize("rank", [4, 2])
    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e6, 1e12])
    def test_chain_checks_read_the_mean_computed(self, scaled_files, capsys, monkeypatch,
                                                 s, rank, kind, factor, failed):
        # every kind's chain holds the mean itself, so a scaled result fails a
        # step, on full-rank and rank-deficient operands alike
        rng = np.random.default_rng(47)
        argv = ["--format", "json", "mean", "--kind", kind,
                *scaled_files(s, random_cp(rng, 2, 2), random_cp(rng, 2, 2, rank=rank))]
        assert main(argv) == 0
        assert _failed_checks(capsys.readouterr().out) == []
        real, want = cli.mean_cp, MeanKind.parse(kind)

        def scaled(k, f, g):
            return (factor if k == want else 1.0) * real(k, f, g)

        monkeypatch.setattr(cli, "mean_cp", scaled)
        assert main(argv) == 3
        assert _failed_checks(capsys.readouterr().out) == failed

    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1.0, 1e6])
    def test_verify_rejects_an_anti_hermitian_choi_at_every_scale(self, tmp_path, capsys, s):
        # C[1, 0] = -C[0, 1] is wholly anti-Hermitian off the diagonal; the
        # Hermiticity defect is bounded relative to the largest entry
        for sign, herm in ((-1.0, False), (1.0, True)):
            c = s * np.eye(4, dtype=complex)
            c[0, 1], c[1, 0] = 0.5 * s, sign * 0.5 * s
            path = tmp_path / f"c{sign:+.0f}.json"
            data = np.stack([c.real, c.imag], axis=-1).tolist()
            path.write_text(json.dumps(
                {"dim_in": 2, "dim_out": 2, "repr": "choi", "data": data}))
            code = main(["--format", "json", "verify", str(path)])
            out, err = capsys.readouterr()
            if herm:
                assert code == 3  # loaded; F(1) = s [[2, 1/2], [1/2, 2]] is not unital
                assert json.loads(out)["outputs"]["flags"]["is_cp"] is True
            else:
                assert code == 2 and "not Hermitian" in err

    def test_lebesgue_reports_a_missed_sum_as_a_failed_check(self, tmp_path, capsys):
        from test_lebesgue import nearly_parallel_pair
        phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
        f, g = nearly_parallel_pair(np.random.default_rng(7), 1e-6)
        write_channel(f, phi)
        write_channel(g, psi)
        assert main(["--format", "json", "lebesgue", str(phi), str(psi)]) == 3
        out, err = capsys.readouterr()
        assert "ac + sing = psi" in _failed_checks(out)
        assert "numeric failure" not in err


class TestCliErrorPaths:
    def test_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["index", str(tmp_path / "missing.json")]) == 2

    def test_non_psd_doc_exits_2(self, tmp_path):
        doc = channel_to_doc(identity(2))
        doc["data"][0][0] = [-3.0, 0.0]
        p = tmp_path / "npsd.json"
        p.write_text(json.dumps(doc))
        assert main(["verify", str(p)]) == 2

    def test_oversized_integer_cell_exits_2(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        text = json.dumps(channel_to_doc(identity(2)))
        p.write_text(text.replace("[1.0, 0.0]", "[1" + "0" * 400 + ", 0]", 1))
        assert main(["verify", str(p)]) == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"dim_in": True, "dim_out": 2, "repr": "choi",
         "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"dim_in": 1, "dim_out": 2, "repr": "choi",
         "data": [[[True, False], [False, False]], [[False, False], [True, False]]]},
        {"dim_in": 1, "dim_out": 2, "repr": "choi",
         "data": [[[1, 0], [0, False]], [[0, 0], [1, 0]]]},
    ], ids=["boolean-dim", "boolean-cells", "boolean-beside-numbers"])
    def test_boolean_document_exits_2(self, tmp_path, capsys, doc):
        with pytest.raises(ParseError):
            doc_to_channel(doc)
        p = tmp_path / "bool.json"
        p.write_text(json.dumps(doc))
        assert main(["verify", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_dim_mismatch_exits_2(self, channel_files):
        assert main(["order", channel_files["id2"], channel_files["dep3"]]) == 2

    def test_bad_kind_exits_2(self, channel_files):
        assert main(["mean", "--kind", "nope", channel_files["id2"],
                     channel_files["dep2"]]) == 2

    def test_bad_power_weight_exits_2(self, channel_files):
        assert main(["mean", "--kind", "power:2.0", channel_files["id2"],
                     channel_files["dep2"]]) == 2

    def test_nodes_flag_is_gone(self, channel_files, capsys):
        # the log mean has no quadrature left for --nodes to set
        with pytest.raises(SystemExit) as exc:
            main(["mean", "--kind", "log", "--nodes", "8", channel_files["id2"],
                  channel_files["dep2"]])
        assert exc.value.code == 2
        assert "unrecognized arguments: --nodes" in capsys.readouterr().err

    def test_failing_checks_exit_3(self, monkeypatch, capsys):
        # a registry entry whose check fails must drive the exit code to 3
        def failing(rep):
            rep.check("impossible", residual=1.0, tolerance=1e-9)

        monkeypatch.setitem(registry.REGISTRY, "broken", failing)
        assert main(["example", "broken"]) == 3
        assert "CHECKS FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["example", "--all"], 0),
        (["--format", "json", "example", "--all"], 0),
        (["verify", "twice.json"], 3),
    ], ids=["text", "json", "failed check"])
    def test_a_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(self, tmp_path, argv, code):
        # the reader closes its end before the command writes, as `| head -n 1`
        # may: the command exits as if its output had been read, and says nothing
        save_channel(2.0 * identity(2), tmp_path / "twice.json")  # not unital
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "cpmean.cli", *argv], cwd=tmp_path,
                                  env=env, stdout=write_end, stderr=subprocess.PIPE,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (code, "")


def _tricky_map(d: int, rng, shift: float = 0.0):
    """A d -> d map whose Choi matrix holds -0.0 and 5e-324 entries, PSD by
    diagonal dominance and kept bit for bit by its admission."""
    n = d * d
    c = np.diag(n + shift + rng.uniform(0.0, 1.0, n)).astype(np.complex128)
    upper = np.triu_indices(n, 1)
    c[upper] = rng.normal(size=upper[0].size) + 1j * rng.normal(size=upper[0].size)
    c[0, 1], c[0, 2] = complex(5e-324, -0.0), complex(-0.0, 5e-324)
    c[np.tril_indices(n, -1)] = c.T.conj()[np.tril_indices(n, -1)]
    return from_choi(d, d, c)


class TestEncodeOnce:
    """Each result matrix is encoded once: with ``-o`` into its document, which
    the report names by path and SHA-256; without ``-o`` into the report.
    Documents and reports keep the bytes of ``json.dumps``."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        reports = []
        real = cli._emit

        def keep(reps, fmt):
            reports.extend(reps)
            real(reps, fmt)

        monkeypatch.setattr(cli, "_emit", keep)
        return reports

    def _docs(self, tmp_path, d, rng):
        paths = [str(tmp_path / "f.json"), str(tmp_path / "g.json")]
        write_channel(random_cp(rng, d, d), paths[0], name="f")
        write_channel(random_cp(rng, d, d, rank=d), paths[1], name="g")
        return paths

    @staticmethod
    def _assert_names_its_document(written, path, capsys):
        """The report's entry for a written document gives its path and the
        SHA-256 of its bytes, the hash ``verify`` reports for the same file."""
        sha256 = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert written == {"path": path, "sha256": sha256}
        main(["--format", "json", "verify", path])
        assert json.loads(capsys.readouterr().out)["inputs"][0]["sha256"] == sha256

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_mean_document_and_report_keep_the_json_dumps_bytes(
            self, tmp_path, rng, monkeypatch, capsys, emitted, d):
        a, b = self._docs(tmp_path, d, rng)
        result = _tricky_map(d, rng)
        monkeypatch.setattr(cli, "mean_cp", lambda kind, f, g: result)
        out = str(tmp_path / "geo.json")
        main(["--format", "json", "mean", "--kind", "geo", a, b, "-o", out])
        text = (tmp_path / "geo.json").read_text()
        assert text == json.dumps(channel_to_doc(result, name="geo(f,g)")) + "\n"
        assert '[5e-324, -0.0]' in text and '[-0.0, 5e-324]' in text
        report = capsys.readouterr().out
        assert report == json.dumps(emitted[0].to_obj()) + "\n"
        outputs = json.loads(report)["outputs"]
        assert sorted(outputs) == ["dim_in", "dim_out", "written"]
        self._assert_names_its_document(outputs["written"], out, capsys)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_lebesgue_documents_and_report_keep_the_json_dumps_bytes(
            self, tmp_path, rng, monkeypatch, capsys, emitted, d):
        phi, psi = self._docs(tmp_path, d, rng)
        ac, sing = _tricky_map(d, rng), _tricky_map(d, rng, shift=1.0)
        split = lebesgue.LebesgueSplit(ac, sing, 1.0, Verdict(0.0, 1.0))
        monkeypatch.setattr(cli.lebesgue, "decompose", lambda f, g: split)
        monkeypatch.setattr(cli.hermlinalg, "_ando_part", lambda cf, cg: ac.choi)
        prefix = str(tmp_path / "split")
        main(["--format", "json", "lebesgue", phi, psi, "-o", prefix])
        report = capsys.readouterr().out
        assert report == json.dumps(emitted[0].to_obj()) + "\n"
        outputs = json.loads(report)["outputs"]
        assert sorted(outputs) == ["alpha_min", "written"]
        for written, (part, chan) in zip(outputs["written"], (("ac", ac), ("sing", sing)),
                                         strict=True):
            path = f"{prefix}.{part}.json"
            text = Path(path).read_text()
            assert text == json.dumps(channel_to_doc(chan, name=f"{part}(g|f)")) + "\n"
            self._assert_names_its_document(written, path, capsys)
        main(["--format", "json", "lebesgue", phi, psi])
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs["ac_choi"] == channel_to_doc(ac)["data"]
        assert outputs["sing_choi"] == channel_to_doc(sing)["data"]

    def test_results_in_a_row_each_get_their_own_text(self, tmp_path, rng, monkeypatch,
                                                       capsys, emitted):
        a, b = self._docs(tmp_path, 2, rng)
        for i in range(3):
            result = _tricky_map(2, rng, shift=float(i))
            monkeypatch.setattr(cli, "mean_cp", lambda kind, f, g: result)
            out = tmp_path / f"mean{i}.json"
            main(["--format", "json", "mean", "--kind", "harm", a, b, "-o", str(out)])
            doc = channel_to_doc(result, name="harm(f,g)")
            assert out.read_text() == json.dumps(doc) + "\n"
            written = json.loads(capsys.readouterr().out)["outputs"]["written"]
            assert written["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
            main(["--format", "json", "mean", "--kind", "harm", a, b])
            report = capsys.readouterr().out
            assert report == json.dumps(emitted[-1].to_obj()) + "\n"
            assert json.loads(report)["outputs"]["choi"] == doc["data"]

    def test_save_channel_after_another_matrix(self, tmp_path, rng):
        f, g = _tricky_map(2, rng), _tricky_map(2, rng, shift=1.0)
        for i, chan in enumerate((f, g, f, g)):
            p = tmp_path / f"{i}.json"
            sha256 = save_channel(chan, p)
            assert p.read_text() == json.dumps(channel_to_doc(chan)) + "\n"
            assert sha256 == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_example_list_is_the_json_dumps_of_its_reports(self, capsys, emitted):
        assert main(["--format", "json", "example", "--all"]) == 0
        assert capsys.readouterr().out == json.dumps([r.to_obj() for r in emitted]) + "\n"


class TestReusedParsers:
    ARGVS = [
        ["verify", "@id2"],
        ["--format", "json", "order", "@id2", "@dep2"],
        ["mean", "--kind", "geo", "@id2", "@nope", "--bogus"],  # argparse: exit 2
        ["index", "@dep3"],                                      # text again
        ["--tol", "1e-3", "verify", "@half_id2"],
        ["verify", "@half_id2", "--format", "json"],             # default tol again
        ["mean", "--kind", "harm", "@id2", "@dep2"],
        ["example"],                                             # no name: exit 2
        ["--format", "json", "example", "rotation", "theta=0.5"],
    ]

    def _run(self, channel_files, capsys):
        runs = []
        for argv in self.ARGVS:
            argv = [channel_files[a[1:]] if a[:1] == "@" and a[1:] in channel_files else a
                    for a in argv]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            runs.append((code, *capsys.readouterr()))
        return runs

    def test_repeated_main_calls_match_fresh_parsers(self, channel_files, capsys, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        reused = self._run(channel_files, capsys)
        assert [r[0] for r in reused] == [0, 0, ("exit", 2), 0, 3, 3, 0, 2, 0]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        assert self._run(channel_files, capsys) == reused

    def test_a_patched_command_runs_through_the_kept_parser(self, channel_files,
                                                           monkeypatch, capsys):
        assert main(["index", channel_files["dep3"]]) == 0
        seen = []
        real = cli.cmd_index

        def spy(args):
            seen.append(args.path)
            return real(args)

        monkeypatch.setattr(cli, "cmd_index", spy)
        assert main(["index", channel_files["dep3"]]) == 0
        assert seen == [channel_files["dep3"]]


class TestInputHash:
    def test_hash_is_of_the_bytes_that_were_parsed(self, channel_files, tmp_path,
                                                   monkeypatch, capsys):
        import hashlib

        paths = [channel_files["id2"], channel_files["dep2"]]
        before = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
        loads = []
        real = cli.read_doc

        def read_then_rewrite(path):
            got = real(path)
            loads.append(path)
            save_channel(identity(2), path, name="rewritten")
            return got

        monkeypatch.setattr(cli, "read_doc", read_then_rewrite)
        assert main(["--format", "json", "order", *paths]) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert loads == paths  # one read per input
        assert [e["name"] for e in inputs] == ["id2", "dep2"]
        assert [e["sha256"] for e in inputs] == before
        after = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
        assert after[1] != before[1]

    def test_invalid_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(json.dumps(channel_to_doc(identity(2), name="x")).encode()
                      .replace(b'"x"', b'"\xe9"'))
        assert main(["verify", str(p)]) == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err and "internal error" not in err


def _memo_free_read(path):
    hermlinalg._RUN = hermlinalg._Run()
    return read_doc(path)


def _assert_same_load(got, want):
    """Two ``read_doc`` results give the same Choi bits, dimensions, name and hash."""
    (f, name, sha), (g, name_g, sha_g) = got, want
    assert (f.dim_in, f.dim_out, name, sha) == (g.dim_in, g.dim_out, name_g, sha_g)
    assert f.choi.entries.tobytes() == g.choi.entries.tobytes()


@pytest.fixture
def decodes(monkeypatch):
    """The documents decoded from here on, one entry per ``doc_to_channel`` call."""
    seen = []
    real = channeldoc.doc_to_channel

    def counting(doc):
        seen.append(doc.get("name") if isinstance(doc, dict) else None)
        return real(doc)

    monkeypatch.setattr(channeldoc, "doc_to_channel", counting)
    return seen


class TestDocumentMemo:
    def test_a_choi_save_is_kept_and_reads_as_a_fresh_parse(self, tmp_path, rng):
        f = gaussian_cp(rng, 2, 3)
        p = tmp_path / "f.json"
        save_channel(f, p, name="f")
        hit = read_doc(p)
        assert hit[0] is f  # the map written, not a decode
        _assert_same_load(hit, _memo_free_read(p))

    def test_a_kraus_load_is_kept_and_reads_as_a_fresh_parse(self, tmp_path, rng, decodes):
        p = tmp_path / "f.json"
        write_kraus(gaussian_kraus(rng, 3, 2), p, 3, 2, name="f")
        first = read_doc(p)  # a file the library did not write: this decodes
        hit = read_doc(p)
        assert hit[0] is first[0] and decodes == ["f"]
        _assert_same_load(hit, _memo_free_read(p))

    def test_a_document_without_a_name_is_named_by_its_path(self, tmp_path, channel_files,
                                                            capsys):
        p = tmp_path / "anonymous.json"
        save_channel(identity(2), p)
        copy = tmp_path / "copy.json"
        copy.write_bytes(p.read_bytes())
        assert read_doc(p)[1] is None
        assert main(["--format", "json", "order", str(p), str(copy)]) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert [e["name"] for e in inputs] == ["anonymous.json", "copy.json"]
        empty = tmp_path / "empty.json"
        save_channel(identity(2), empty, name="")
        assert read_doc(empty)[1] is None

    @pytest.mark.parametrize("name", [[1, {"a": 2}], 7, True, {"n": "x"}],
                             ids=["list", "int", "bool", "object"])
    def test_a_non_string_name_exits_2_and_is_never_kept(self, tmp_path, capsys, name):
        p = tmp_path / "named.json"
        p.write_text(json.dumps({**channel_to_doc(identity(2)), "name": name}))
        for _ in range(2):  # a second read finds no memo entry to hit
            with pytest.raises(ParseError, match="name must be a string"):
                read_doc(p)
        assert hermlinalg._RUN.docs == {}
        assert main(["--format", "json", "index", str(p)]) == 2
        err = capsys.readouterr().err
        assert "name must be a string" in err and "internal error" not in err

    def test_save_rejects_a_non_string_name(self, tmp_path):
        p = tmp_path / "f.json"
        with pytest.raises(DomainError, match="name must be a string"):
            save_channel(identity(2), p, name=[1, {"a": 2}])
        assert not p.exists() and hermlinalg._RUN.docs == {}

    @pytest.mark.parametrize("make", [
        *(["mean", "--kind", kind] for kind in ("arith", "harm", "parallel", "geo",
                                                "power:0.3", "log")),
        ["lebesgue"],
    ], ids=lambda argv: argv[-1])
    def test_reports_on_written_documents_do_not_depend_on_the_memo(
            self, tmp_path, rng, capsys, make):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_channel(random_cp(rng, 3, 3, rank=5), a, name="a")
        write_kraus(gaussian_kraus(rng, 3, 3), b, 3, 3, name="b")
        if make[0] == "lebesgue":
            outs = [str(tmp_path / "split.ac.json"), str(tmp_path / "split.sing.json")]
            write = [*make, a, b, "-o", str(tmp_path / "split")]
        else:
            outs = [str(tmp_path / "mean.json")]
            write = [*make, a, b, "-o", outs[0]]
        argvs = [write] + [[cmd, out] for out in outs for cmd in ("verify", "index")] + [
            ["order", out, a] for out in outs]

        def run(clear_each):
            hermlinalg._RUN = hermlinalg._Run()
            got = []
            for argv in argvs:
                if clear_each:
                    hermlinalg._RUN = hermlinalg._Run()
                code = main(["--format", "json", *argv])
                got.append((code, capsys.readouterr().out))
            return got, [Path(out).read_bytes() for out in outs]

        assert run(clear_each=False) == run(clear_each=True)

    def test_a_rewritten_file_is_parsed_afresh(self, tmp_path):
        p = tmp_path / "chan.json"
        save_channel(identity(2), p, name="first")
        assert read_doc(p)[1] == "first"
        p.write_text(json.dumps(channel_to_doc(depolarizing(2), name="second")))
        chan, name, sha = read_doc(p)
        assert name == "second"
        assert np.array_equal(chan.choi.entries, depolarizing(2).choi.entries)
        assert sha == hashlib.sha256(p.read_bytes()).hexdigest()

    @pytest.mark.parametrize("text", [
        '{"dim_in": 2,',
        json.dumps({**channel_to_doc(identity(2)), "data": [[[-5.0, 0.0]] * 4] * 4}),
        json.dumps({"dim_in": 2, "dim_out": 2, "repr": "kraus", "data": [[[1, 0]]]}),
        "[1, 2]",
    ], ids=["json", "not-cp", "shape", "not-an-object"])
    def test_a_malformed_document_exits_2_every_time(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        hermlinalg._RUN = hermlinalg._Run()
        for _ in range(3):
            assert main(["verify", str(p)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert hermlinalg._RUN.docs == {}

    def test_the_memo_keeps_the_last_three_documents(self, tmp_path, decodes):
        paths = [tmp_path / f"{i}.json" for i in range(5)]
        for i, p in enumerate(paths):
            write_kraus(kraus_decompose((i + 1.0) * identity(2)), p, 2, 2, name=str(i))
        hermlinalg._RUN = hermlinalg._Run()
        for p in paths:
            read_doc(p)
            assert len(hermlinalg._RUN.docs) <= 3
        assert decodes == ["0", "1", "2", "3", "4"]
        for p in paths[2:]:  # the last three are hits
            read_doc(p)
        assert len(decodes) == 5
        read_doc(paths[0])  # evicted, so decoded again
        assert decodes[5:] == ["0"]
        for i, p in enumerate(paths):  # choi saves are kept under the same bound
            save_channel((i + 1.0) * depolarizing(2), p)
            assert len(hermlinalg._RUN.docs) <= 3

    def test_mean_verify_index_order_decode_two_documents(self, tmp_path, rng, decodes,
                                                           capsys):
        a, b, m = (str(tmp_path / f"{tag}.json") for tag in ("a", "b", "mean"))
        save_channel(random_cp(rng, 3, 3), a, name="a")
        write_kraus(gaussian_kraus(rng, 3, 3), b, 3, 3, name="b")
        hermlinalg._RUN = hermlinalg._Run()
        for argv in (["mean", "--kind", "geo", a, b, "-o", m], ["verify", m],
                     ["index", a], ["order", a, b]):
            assert main(["--format", "json", *argv]) in (0, 3)
        capsys.readouterr()
        assert decodes == ["a", "b"]
