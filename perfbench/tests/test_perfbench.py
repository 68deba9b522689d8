"""The benchmark's own checks: references, outcome checks, tracer, metric lists."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cpmean import cpmaps, lebesgue, opmeans  # noqa: E402
from cpmean.opmeans import MeanKind  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _pair(rng, d, rank_g):
    f0 = workloads.random_psd(rng, d * d, d * d)
    g0 = workloads.random_psd(rng, d * d, rank_g)
    return f0, g0, cpmaps.from_choi(d, d, f0), cpmaps.from_choi(d, d, g0)


@pytest.mark.parametrize("rank_g", [3, 16])
def test_mean_references_match_program_at_unit_scale(rng, rank_g):
    f0, g0, f, g = _pair(rng, 4, rank_g)
    basis = refs.PowerBasis(f0, g0)
    cases = [
        (MeanKind("harm"), refs.harmonic_mean(f0, g0)),
        (MeanKind("geo"), refs.power_mean(basis, 0.5)),
        (MeanKind.power(0.3), refs.power_mean(basis, 0.3)),
        (MeanKind("log"), refs.log_mean(basis)),
    ]
    for kind, ref in cases:
        out = cpmaps.mean_cp(kind, f, g).choi.entries
        assert refs.rel_err(out, ref) < 1e-12, kind


def test_scaled_references_follow_homogeneity(rng):
    f0, g0, _, _ = _pair(rng, 3, 9)
    sa, sb = 1e-3, 1e4
    basis = refs.PowerBasis(f0, g0)
    direct = refs.PowerBasis(sa * f0, sb * g0)
    assert refs.rel_err(refs.power_mean(basis, 0.3, sa, sb), direct.power(0.3)) < 1e-12
    assert refs.rel_err(refs.harmonic_mean(f0, g0, sa, sb),
                        refs.harmonic_mean(sa * f0, sb * g0)) < 1e-12


def test_connection_references_match_power_rep(rng):
    f0, g0, f, g = _pair(rng, 3, 9)
    basis = refs.PowerBasis(f0, g0)
    rep = opmeans.power_rep(0.3)
    out = cpmaps.mean_cp(MeanKind.custom(rep), f, g).choi.entries
    assert refs.rel_err(out, basis.power(0.3)) < 1e-10
    out = cpmaps.mean_cp(MeanKind.custom(opmeans.transpose_rep(rep)), f, g).choi.entries
    assert refs.rel_err(out, basis.power(0.7)) < 1e-10


@pytest.mark.parametrize("ranks", [(16, 5), (5, 16), (5, 5), (10, 10), (3, 14)])
def test_ac_part_reference_matches_decompose(rng, ranks):
    f0 = workloads.random_psd(rng, 16, ranks[0])
    g0 = workloads.random_psd(rng, 16, ranks[1])
    split = lebesgue.decompose(cpmaps.from_choi(4, 4, f0), cpmaps.from_choi(4, 4, g0))
    ac = refs.ac_part(f0, g0)
    assert refs.rel_err(split.ac.choi.entries, ac, np.linalg.norm(g0)) < 1e-12
    assert abs(split.alpha_min - refs.alpha_min(f0, ac)) < 1e-10 * max(1.0, split.alpha_min)


def test_index_reference_matches_program(rng):
    f0, _, f, _ = _pair(rng, 3, 1)
    assert abs(cpmaps.index_cp(f) - refs.pimsner_popa_index(f0, 3)) < 1e-12 * cpmaps.index_cp(f)


def _shifted(cp_map, shift):
    """The map with shift * identity added to its Choi matrix."""
    entries = cp_map.choi.entries + shift * np.eye(cp_map.choi.dim)
    return cpmaps.CpMap(cp_map.dim_in, cp_map.dim_out, cpmaps.PsdMatrix(entries))


@pytest.mark.parametrize("name", ["lib-means", "lib-connections", "lib-lebesgue"])
def test_library_checks_pass_and_flag_a_perturbation(rng, name):
    wl = workloads.WORKLOADS[name]
    # Full-rank G first: the known defects spare those pairs most often.
    cases = sorted(wl.make_cases(rng, None), key=lambda c: -np.linalg.matrix_rank(c.g0))
    case, outs = next((c, o) for c in cases for o in [wl.run(c)] if wl.check(c, o))
    shift = 1e-4 * np.linalg.norm(outs[-1].choi.entries + case.g0)
    bad = list(outs)
    bad[-1] = _shifted(bad[-1], shift)
    assert not wl.check(case, bad)


def test_cli_checks_pass_and_flag_a_perturbed_document(rng, tmp_path):
    wl = workloads.CliDocs()
    case = wl.make_cases(rng, str(tmp_path))[0]
    outs = wl.run(case)
    assert wl.check(case, outs)
    with open(case.path_mean, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["data"][0][0][0] *= 1.0 + 1e-4
    with open(case.path_mean, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert not wl.check(case, outs)


def test_scale_ratios_are_the_triangular_law():
    u = (np.arange(10000) + 0.5) / 10000
    d = workloads.scale_ratios(u)
    assert d[0] > -24.0 and d[-1] < 24.0 and abs(np.median(d)) < 1e-9
    # P(|eG - eF| < 6) for independent uniforms on [-12, 12] is 1 - (18/24)^2.
    assert abs(np.mean(np.abs(d) < 6.0) - (1.0 - (18.0 / 24.0) ** 2)) < 1e-3


def test_tracer_counts_eigh_and_restores_every_patch(rng):
    _, _, f, g = _pair(rng, 3, 9)
    originals = (np.linalg.eigh, opmeans.parallel_sum, lebesgue.parallel_sum)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        assert lebesgue.parallel_sum is opmeans.parallel_sum is not originals[1]
        cpmaps.mean_cp(MeanKind("geo"), f, g)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert (np.linalg.eigh, opmeans.parallel_sum, lebesgue.parallel_sum) == originals
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["hermlinalg.eigh_per_op"] == 4
    assert metrics["cpmaps.mean_cp_per_op"] == 1
    assert metrics["opmeans.kernel_ms_per_op"] > 0.0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
