"""Ensemble sampling, spectra, product law, spacing statistics.

The package takes spectra from numpy.linalg.eigvalsh; the tests pin them
by closed forms, trace identities, unitary invariance and a direct
eigvalsh call on the raw array.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from zlab.errors import InsufficientData, InvalidSpec, NonConvergence, NonFinite
from zlab.numerics.quadrature import EXTENDED
from zlab.randmat import (
    HermitianMatrix,
    SpectralSample,
    compare_zero_spacings,
    diag_matrix,
    eigenvalues,
    empirical_char_fn,
    gue_surmise_cdf,
    ks_distance,
    matrix_unit,
    poisson_cdf,
    product_char_fn,
    sample_gue,
    sample_spectra,
    spacing_report_to_json,
    spacing_stats,
    unfolded_spacings,
)
from zlab.rho import gue_spec
from zlab.ztransform import ZSpec, ZeroTable, Zero, find_real_zeros


def test_hermitian_validation():
    with pytest.raises(InvalidSpec):
        HermitianMatrix(np.zeros((2, 3), dtype=complex))
    with pytest.raises(InvalidSpec):
        HermitianMatrix(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))
    with pytest.raises(InvalidSpec):
        HermitianMatrix(np.array([[1j]], dtype=complex))
    with pytest.raises(InvalidSpec):
        HermitianMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex))


def test_helper_constructors():
    e = matrix_unit(3, 1)
    assert e.entries[1, 1] == 1.0 and np.sum(np.abs(e.entries)) == 1.0
    d = diag_matrix([1.0, 2.0], n=4)
    assert d.n == 4 and np.trace(d.entries) == 3.0
    with pytest.raises(InvalidSpec):
        diag_matrix([1.0, 2.0], n=1)


def test_sampler_determinism():
    a = sample_gue(5, 17, index=3)
    b = sample_gue(5, 17, index=3)
    c = sample_gue(5, 17, index=4)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_spectra_size_caps():
    # refused before a matrix or a sample loop starts
    with pytest.raises(InvalidSpec, match="cap"):
        sample_gue(10 ** 9, 0)
    with pytest.raises(InvalidSpec, match="cap"):
        sample_spectra(4, 10 ** 9, 0)
    spectra = sample_spectra(5, 3, 17)
    assert spectra[2] == eigenvalues(sample_gue(5, 17, index=2))


def test_sampler_entry_statistics():
    # (1,1) entry over 1e5 independent draws: standard normal
    vals = np.array([sample_gue(2, 42, index=k).entries[0, 0].real
                     for k in range(100_000)])
    assert abs(vals.mean()) < 0.01
    assert abs(vals.var() - 1.0) < 0.02


def test_sampler_n1_is_scalar_normal():
    m = sample_gue(1, 99)
    rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0,)))
    assert m.entries[0, 0] == rng.standard_normal(1)[0]


def test_eigenvalues_closed_forms():
    assert eigenvalues(diag_matrix([3.0, 1.0, 2.0])).eigenvalues == (1.0, 2.0, 3.0)
    flip = HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    lam = eigenvalues(flip).eigenvalues
    assert abs(lam[0] + 1.0) < 1e-14 and abs(lam[1] - 1.0) < 1e-14
    cx = HermitianMatrix(np.array([[2.0, 1j], [-1j, 2.0]]))
    lam = eigenvalues(cx).eigenvalues
    assert abs(lam[0] - 1.0) < 1e-14 and abs(lam[1] - 3.0) < 1e-14


def test_eigenvalues_match_external_oracle():
    rng = np.random.default_rng(7)
    for n in (3, 17, 60):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (m + m.conj().T) / 2
        lam = np.array(eigenvalues(HermitianMatrix(a)).eigenvalues)
        ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(lam - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_trace_identities_random_sample():
    h = sample_gue(50, 12345)
    lam = eigenvalues(h).eigenvalues
    scale = max(1.0, float(np.max(np.abs(h.entries))))
    trace = np.trace(h.entries).real
    square = np.sum(np.abs(h.entries) ** 2)  # tr(A^2) for Hermitian A
    assert abs(math.fsum(lam) - trace) < 1e-8 * 50 * scale
    assert abs(math.fsum(x * x for x in lam) - square) \
        < 1e-8 * 50 * scale * scale


def test_trace_identity_failure_raises(monkeypatch):
    h = sample_gue(6, 21)
    true = np.linalg.eigvalsh(h.entries)
    shifted = true + 1e-3  # breaks the sum
    spread = true + 1e-3 * np.array([-1, 0, 0, 0, 0, 1])  # keeps the sum
    for bad in (shifted, spread):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, bad=bad: bad)
        with pytest.raises(NonConvergence):
            eigenvalues(h)
    # a NaN spectrum passes no identity
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: np.full(6, math.nan))
    with pytest.raises(NonFinite):
        eigenvalues(h)


@pytest.mark.parametrize("diag", [[1e308], [1e308, 1e308], [1e200, -1e200]])
def test_trace_identities_checked_past_the_square_overflow(diag):
    # tr(A^2), or fsum's partial sums, would leave the float range; the
    # identities are checked on the exactly scaled matrix and spectrum
    assert eigenvalues(diag_matrix(diag)).eigenvalues == tuple(sorted(diag))


def test_infinite_spectrum_raises_non_finite():
    # finite entries whose largest eigenvalue, 2e308, is past the range
    big = HermitianMatrix(np.full((2, 2), 1e308, dtype=complex))
    with pytest.raises(NonFinite):
        eigenvalues(big)


def test_unitary_invariance_of_spectrum():
    rng = np.random.default_rng(3)
    h = sample_gue(30, 8)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30))
                        + 1j * rng.standard_normal((30, 30)))
    r = q @ h.entries @ q.conj().T
    rotated = HermitianMatrix((r + r.conj().T) / 2)
    lam_r = np.array(eigenvalues(rotated).eigenvalues)
    lam_h = np.array(eigenvalues(h).eigenvalues)
    assert np.max(np.abs(lam_r - lam_h)) < 1e-8


def test_char_fn_single_entry():
    mean, se = empirical_char_fn(10, matrix_unit(10, 0), 100_000, rng_seed=5)
    assert abs(mean - math.exp(-0.5)) < 3.0 * se


def test_char_fn_two_entries():
    x = diag_matrix([1.0, 1.0], n=10)
    mean, se = empirical_char_fn(10, x, 100_000, rng_seed=6)
    assert abs(mean - math.exp(-1.0)) < 3.0 * se
    # and the reference itself is the spectral product law
    assert abs(product_char_fn(x) - math.exp(-1.0)) < 1e-14


def test_char_fn_zero_matrix_exact():
    x = HermitianMatrix(np.zeros((3, 3), dtype=complex))
    mean, se = empirical_char_fn(3, x, 100, rng_seed=1)
    assert mean == 1.0 + 0.0j and se == 0.0


def test_char_fn_monte_carlo_rate():
    _, se_a = empirical_char_fn(4, matrix_unit(4, 0), 1000, rng_seed=3)
    _, se_b = empirical_char_fn(4, matrix_unit(4, 0), 16_000, rng_seed=3)
    assert 3.0 < se_a / se_b < 5.0


def test_char_fn_work_cap():
    # refused before the first chunk is drawn
    from zlab import randmat
    with pytest.raises(InvalidSpec, match="cap"):
        empirical_char_fn(2, matrix_unit(2, 0),
                          randmat._MAX_CHAR_WORK // 16 + 1, rng_seed=0)


# (args, repr of (mean, se)) recorded from the unblocked estimator, which
# drew each 4096-sample stream whole and summed with math.fsum
_PINNED_CHAR = [
    # 49 streams, the last one partial; several streams to a block
    ((2, diag_matrix([1.0, 1.0]), 200_000, 7),
     "((0.3682915921204441+0.000626862224690556j), 0.0020789002285382767)"),
    # each stream cut into sub-blocks
    ((32, diag_matrix(np.linspace(-1.0, 1.0, 32)), 5000, 2),
     "((-0.0001516117872419001+0.0013403513853980698j), "
     "0.01414353718216241)"),
    # sub-blocks again, with off-diagonal complex entries, so the h draws
    # (read only off the diagonal) reach the result
    ((5, HermitianMatrix(np.array(
        [[0, 0.3 + 0.2j, 0, 0, 0], [0.3 - 0.2j, 0, 0, 0, 0],
         [0, 0, 0.5, 0, 0], [0, 0, 0, 0, -0.4j], [0, 0, 0, 0.4j, 0]])),
      5000, 3),
     "((0.6553678725307072-0.011138248563935846j), 0.010681600888172492)"),
    ((1, HermitianMatrix(np.array([[1.0]])), 2000, 5),
     "((0.6242622644099257+0.0033906169406173244j), 0.017472699049698007)"),
    ((3, HermitianMatrix(np.zeros((3, 3), dtype=complex)), 100, 1),
     "((1+0j), 0.0)"),
]


def test_char_fn_pinned_bit_for_bit():
    for args, expected in _PINNED_CHAR:
        assert repr(empirical_char_fn(*args)) == expected


@pytest.mark.parametrize("block", [2 ** 6, 2 ** 10, 2 ** 16])
def test_char_fn_block_size_invariance(monkeypatch, block):
    # every lane of a block does the same operations whatever the block
    # holds, so the draw block size never reaches the result
    from zlab import randmat
    monkeypatch.setattr(randmat, "_BLOCK", block)
    for args, expected in _PINNED_CHAR:
        assert repr(empirical_char_fn(*args)) == expected


def test_char_fn_memory_is_bounded():
    # the unblocked estimator peaked at 411 MB RSS on this call, with its
    # six (2000, 64, 64) arrays per stream
    import zlab
    code = ("import resource\n"
            "from zlab.randmat import diag_matrix, empirical_char_fn\n"
            "empirical_char_fn(64, diag_matrix([0.1] * 64), 2000, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(zlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert int(out.split()[-1]) < 150 * 1024  # ru_maxrss is in KiB


def _fsum_by_parts(values, block=2 ** 16):
    from zlab import randmat
    v = np.asarray(values, dtype=float)
    return randmat._fsum(v[s:s + block] for s in range(0, len(v), block))


@pytest.mark.parametrize("name", ["wide", "subnormal", "alternating",
                                  "single"])
def test_exact_block_sums_equal_fsum(name):
    rng = np.random.default_rng(17)
    if name == "wide":
        # 1e-300 to 1 with heavy cancellation: every value and its negation
        # times (1 + 2^-52), across three blocks
        mags = 10.0 ** rng.uniform(-300.0, 0.0, 70_000)
        signs = rng.choice([-1.0, 1.0], len(mags))
        v = np.concatenate([mags * signs,
                            -mags * signs * (1.0 + 2.0 ** -52)])
        v = v[rng.permutation(len(v))]
    elif name == "subnormal":
        tiny = 5e-324 * rng.integers(1, 2 ** 20, 5000).astype(float)
        v = np.concatenate([tiny, -tiny[::2], [0.0, -0.0, 2.2e-308],
                            np.full(7, -0.0)])
    elif name == "alternating":
        # one block whose exact sum is 1 + 2^-53 + 3e-300: the tiny term
        # breaks the tie, so the correctly rounded sum is 1 + 2^-52
        v = np.tile([1.0, -1.0], 2 ** 15)
        v[0], v[-2], v[-1] = 2.0, 2.0 ** -53, 3e-300
    else:
        v = np.array([0.1])
    assert repr(_fsum_by_parts(v)) == repr(math.fsum(v.tolist()))
    assert repr(_fsum_by_parts(v, block=97)) == repr(math.fsum(v.tolist()))


def test_exact_block_sums_keep_fsum_signs_of_zero():
    for v in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]):
        assert repr(_fsum_by_parts(v)) == repr(math.fsum(v))


def test_exact_block_sums_pass_non_finite_and_huge_values_to_fsum():
    for v in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 0.5, 2.0],
              [2.0 ** 1010, 1.0, -(2.0 ** 1010)], [1e305, -1e305, 3.0]):
        assert repr(_fsum_by_parts(v)) == repr(math.fsum(v))


def test_spacing_stats_ensemble():
    samples = [eigenvalues(sample_gue(80, 2025, index=k)) for k in range(120)]
    rep = spacing_stats(samples, bulk_fraction=0.5)
    assert rep.ks_distance < 0.08
    assert abs(rep.raw_mean - 1.0) < 0.05
    assert abs(float(np.mean(rep.spacings)) - 1.0) < 1e-12
    assert rep.reference == "gue_surmise"
    # same spectra are far from exponential gaps
    rep_p = spacing_stats(samples, bulk_fraction=0.5, reference="poisson")
    assert rep_p.ks_distance > 0.15


def test_spacing_stats_poisson_control():
    rng = np.random.default_rng(11)
    width = 2.0 * math.sqrt(200) * 0.5
    ctrl = [SpectralSample(tuple(sorted(width * (2.0 * rng.random(200) - 1.0))))
            for _ in range(60)]
    rep = spacing_stats(ctrl, bulk_fraction=0.5)
    assert rep.ks_distance > 0.15


def test_spacing_stats_insufficient_data():
    samples = [eigenvalues(sample_gue(20, 1, index=k)) for k in range(3)]
    with pytest.raises(InsufficientData):
        spacing_stats(samples, bulk_fraction=0.5)
    with pytest.raises(InvalidSpec):
        spacing_stats(samples, bulk_fraction=1.5)


def test_ks_distance_on_exact_quantiles():
    q = (np.arange(1, 2001) - 0.5) / 2000
    exp_samples = -np.log1p(-q)  # exact Poisson-law quantiles
    assert ks_distance(exp_samples, poisson_cdf) < 0.01
    assert ks_distance(exp_samples, gue_surmise_cdf) > 0.2


def test_compare_zero_spacings_arithmetic_progression():
    zeros = [Zero(index=k, z=float(k + 1), residual=0.0, derivative=1.0)
             for k in range(50)]
    zt = ZeroTable(b=0.0, z_max=50.0, step=0.1, mode="native",
                   zeros=zeros, noise_regions=[], notes=[])
    rep = compare_zero_spacings(zt, "poisson")
    assert np.allclose(rep.spacings, 1.0)
    assert rep.ks_distance > 0.5  # degenerate gaps vs exponential law
    assert any("small sample" in s for s in rep.notes)


def test_compare_zero_spacings_insufficient():
    zt = ZeroTable(b=0.0, z_max=6.0, step=0.1, mode="native",
                   zeros=[Zero(0, 2.449, 0.0, -1.0)], noise_regions=[],
                   notes=[])
    with pytest.raises(InsufficientData):
        compare_zero_spacings(zt, "gue_surmise")


def test_compare_zero_spacings_quartic_member():
    # exploratory: gaps of the quartic-weight transform's zeros against
    # both references; values recorded, no law asserted
    table = find_real_zeros(ZSpec(gue_spec()), 45.0, pc=EXTENDED)
    assert len(table.zeros) >= 20
    rep_g = compare_zero_spacings(table, "gue_surmise")
    rep_p = compare_zero_spacings(table, "poisson")
    doc = spacing_report_to_json(rep_g)
    assert set(doc) >= {"reference", "ks_distance", "sample_size",
                        "histogram", "notes"}
    assert 0.0 <= rep_g.ks_distance <= 1.0
    assert 0.0 <= rep_p.ks_distance <= 1.0


def test_two_sample_comparison():
    samples = [eigenvalues(sample_gue(60, 77, index=k)) for k in range(40)]
    zeros = [Zero(index=k, z=float(k + 1), residual=0.0, derivative=1.0)
             for k in range(30)]
    zt = ZeroTable(b=0.0, z_max=30.0, step=0.1, mode="native",
                   zeros=zeros, noise_regions=[], notes=[])
    rep = compare_zero_spacings(zt, samples)
    assert rep.reference == "spectra[40]"
    assert 0.0 <= rep.ks_distance <= 1.0


def test_unfolded_spacings_shape():
    samples = [eigenvalues(sample_gue(40, 4, index=k)) for k in range(5)]
    sp = unfolded_spacings(samples, bulk_fraction=0.5)
    assert len(sp) == 5 * (40 - 2 * 10 - 1)
    assert np.all(sp >= 0.0)
