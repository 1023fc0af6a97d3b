"""Finite-N Hermitian ensemble: sampling, spectra, and spacing statistics.

The sampler draws from density proportional to exp(-tr(A^2)/2): diagonal
entries standard normal, off-diagonal real and imaginary parts each of
variance 1/2.  Spectra come from LAPACK's Hermitian eigenvalue solver
through numpy.linalg.eigvalsh; every spectrum is checked against the trace
identities sum(lambda) = tr(A) and sum(lambda^2) = tr(A^2) before it is
returned.

empirical_char_fn Monte-Carlo-checks the product law: the ensemble average
of e^{i tr(XA)} equals prod_j p(t_j) over the eigenvalues t_j of the test
matrix X, with p the single-entry characteristic function e^{-t^2/2}.
Sample k comes from stream k // 4096; the draws run in blocks of at most
2^16 matrix entries per array, and the sums are exact block by block and
rounded once, so memory is 16 bytes per sample plus one block and the
estimate does not depend on the block size.

spacing_stats unfolds bulk eigenvalues by the exact semicircle cumulative
law and measures Kolmogorov-Smirnov distance to a named reference;
compare_zero_spacings applies the same machinery to a ZeroTable so zero
gaps and eigenvalue gaps can be compared descriptively.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, InvalidSpec, NonConvergence, NonFinite
from .schoenberg import SchoenbergParams, eval_p
from .ztransform import ZeroTable

# single-entry characteristic function of the ensemble: e^{-t^2/2}
ENTRY_PARAMS = SchoenbergParams(d=0.5)


@dataclass(frozen=True)
class HermitianMatrix:
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidSpec("entries must be a square matrix, n >= 1")
        if not np.all(np.isfinite(a)):
            raise InvalidSpec("entries must be finite")
        if not np.array_equal(a, a.conj().T):
            raise InvalidSpec("entries must be exactly Hermitian")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def matrix_unit(n: int, i: int) -> HermitianMatrix:
    """Diagonal matrix unit E_ii."""
    if not 0 <= i < n:
        raise InvalidSpec("index out of range")
    a = np.zeros((n, n), dtype=complex)
    a[i, i] = 1.0
    return HermitianMatrix(a)


def diag_matrix(values, n: int | None = None) -> HermitianMatrix:
    """diag(values), zero-padded to n when requested."""
    v = [float(x) for x in values]
    n = len(v) if n is None else n
    if n < len(v):
        raise InvalidSpec("n smaller than the number of diagonal values")
    a = np.zeros((n, n), dtype=complex)
    a[range(len(v)), range(len(v))] = v
    return HermitianMatrix(a)


@dataclass(frozen=True)
class SpectralSample:
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if any(b < a for a, b in zip(self.eigenvalues,
                                     self.eigenvalues[1:])):
            raise InvalidSpec("eigenvalues must be sorted ascending")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass
class SpacingReport:
    spacings: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray
    ks_distance: float
    reference: str
    sample_size: int
    raw_mean: float
    notes: list[str]


# ---------- sampling ----------


def _matrix_rng(seed: int, index: int) -> np.random.Generator:
    # one independent stream per matrix (per 4096 samples in
    # empirical_char_fn): replayable at any index without generating
    # earlier draws
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(index,)))


# Largest matrix a draw may build: one n = 2000 draw and its eigvalsh take
# 3.7 s and 224 MB peak RSS on a 2-vCPU Xeon
_MAX_N = 2000

# samples * max(n, 128)**3 per call of sample_spectra.  Spectra of size
# below 128 count as 128: their per-draw overhead and CSV rows would
# otherwise let the sample count grow without bound.  Just under the cap,
# gue-sample took about 20 s (172 MB) for 4768 spectra at n = 128, the
# costliest size per unit, and 14 s for 1250 at n = 200 on a 2-vCPU Xeon.
_MAX_SPECTRA_WORK = 10 ** 10

# samples * max(n, 4)**2 per call of empirical_char_fn, refused before the
# first block is drawn.  Sizes below 4 count as 4: the per-sample overhead
# and the sample array would otherwise let the count grow without bound.
# Just under the cap, 250 000 samples at n = 32 took 14-16 s at 44 MB peak
# RSS on a shared 2-vCPU Xeon; 2 * 10**6 samples at n = 2 are an eighth of
# the work and took 0.5-0.7 s at 71 MB.
_MAX_CHAR_WORK = 256 * 10 ** 6


def sample_gue(n: int, rng_seed: int, index: int = 0) -> HermitianMatrix:
    """One draw from density 1/z * exp(-tr(A^2)/2) on n x n Hermitians."""
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    if n > _MAX_N:
        raise InvalidSpec(f"n = {n} is past the cap of {_MAX_N}")
    if rng_seed < 0:
        raise InvalidSpec("seed must be nonnegative")
    rng = _matrix_rng(rng_seed, index)
    a = np.zeros((n, n), dtype=complex)
    a[np.diag_indices(n)] = rng.standard_normal(n)
    if n > 1:
        iu = np.triu_indices(n, k=1)
        k = len(iu[0])
        re = rng.standard_normal(k) * math.sqrt(0.5)
        im = rng.standard_normal(k) * math.sqrt(0.5)
        a[iu] = re + 1j * im
        a[(iu[1], iu[0])] = re - 1j * im
    return HermitianMatrix(a)


# ---------- spectra ----------


def sample_spectra(n: int, samples: int, rng_seed: int) -> list[SpectralSample]:
    """Spectra of the draws with index 0..samples-1."""
    work = samples * max(n, 128) ** 3
    if work > _MAX_SPECTRA_WORK:
        raise InvalidSpec(f"samples * max(n, 128)^3 = {work:.3g} is past "
                          f"the cap of {_MAX_SPECTRA_WORK:.3g}")
    return [eigenvalues(sample_gue(n, rng_seed, index=k))
            for k in range(samples)]


def eigenvalues(h: HermitianMatrix) -> SpectralSample:
    """Spectrum via LAPACK eigvalsh (numpy), trace-identity checked."""
    n = h.n
    lam = np.linalg.eigvalsh(h.entries)
    if not np.all(np.isfinite(lam)):
        raise NonFinite("the spectrum is not finite")
    # both identities are checked on A 2^-k and lambda 2^-k with
    # 2^k >= max|a_ij|: the scaling is exact, and no square sum overflows
    # (tr(A^2) is the squared Frobenius norm for Hermitian A)
    mag = np.abs(h.entries)
    amax = float(np.max(mag))
    f = 2.0 ** -max(0, math.frexp(amax)[1])
    ls = lam * f
    scale = max(1.0, amax) * f
    trace = float(np.sum(np.real(np.diagonal(h.entries)) * f))
    sums = (math.fsum(ls), trace, math.fsum(ls * ls),
            float(np.sum((mag * f) ** 2)))
    if not abs(sums[0] - sums[1]) <= 1e-8 * n * scale:
        raise NonConvergence("eigenvalue sum fails the trace identity")
    if not abs(sums[2] - sums[3]) <= 1e-8 * n * scale * scale:
        raise NonConvergence("eigenvalue square sum fails tr(A^2)")
    return SpectralSample(tuple(float(x) for x in lam))


# ---------- product-law Monte Carlo ----------


def product_char_fn(x: HermitianMatrix) -> complex:
    """prod_j p(t_j) over the spectrum of X, p(t) = e^{-t^2/2}."""
    vals = [complex(eval_p(ENTRY_PARAMS, t)) for t
            in eigenvalues(x).eigenvalues]
    out = complex(1.0)
    for v in vals:
        out *= v
    return out

_CHUNK = 4096  # samples per generator stream: part of every result

# Matrix entries per drawn array.  Draws are made in blocks of at most this
# many entries of g and of h, so memory does not grow with n^2 * samples.
_BLOCK = 1 << 16

# Values per exact-sum block: each is scaled below 2^35, so 2^16 of them
# add to an integer below 2^51, exact in any order.
_SUM_BLOCK = 1 << 16
_SUM_BITS = 35


def _char_draws(n: int, seed: int, samples: int):
    """Yield (start, g, h) for consecutive runs of samples, in order.

    Stream k // _CHUNK draws all of its g entries, (count, n, n) standard
    normals, and then all of its h entries.  A stream that fits in one
    block is drawn whole.  A larger one is cut into sub-blocks, and its h
    entries come from a copy of its generator that first discards the
    stream's g entries: the ziggurat's word count per normal is not fixed,
    so PCG64.advance cannot find that offset.  g and h are views of two
    reused buffers, valid until the next step.
    """
    per = max(1, _BLOCK // (n * n))
    g = np.empty((min(per, _CHUNK, samples), n, n))
    h = np.empty_like(g)
    for stream, lo in enumerate(range(0, samples, _CHUNK)):
        count = min(_CHUNK, samples - lo)
        rng = rng_h = _matrix_rng(seed, stream)
        if count > per:
            rng_h = copy.deepcopy(rng)
            for off in range(0, count, per):
                rng_h.standard_normal(out=h[:min(per, count - off)])
        for off in range(0, count, per):
            m = min(per, count - off)
            rng.standard_normal(out=g[:m])
            rng_h.standard_normal(out=h[:m])
            yield lo + off, g[:m], h[:m]


def _exact_parts(v: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of v (at most 2^16 values).

    Each pass scales v by 2^k so that every |v 2^k| < 2^35, rounds to
    integers hi, adds them exactly with np.sum and keeps the residual
    v - hi 2^-k, which is exact; it stops when the residual is all zero.
    A block of zeros gives its IEEE sum, -0.0 only if every zero is -0.0.
    A block holding a non-finite value or one of magnitude 2^1000 or more
    is returned as it stands, so math.fsum sees those values themselves.
    """
    m = float(np.max(np.abs(v)))
    if m == 0.0:
        return [float(np.sum(v))]
    if not m < 2.0 ** 1000:
        return v.tolist()
    parts = []
    while m > 0.0:
        k = _SUM_BITS - math.frexp(m)[1]
        hi = np.rint(np.ldexp(v, k))
        parts.append(math.ldexp(float(np.sum(hi)), -k))
        v = v - np.ldexp(hi, -k)
        m = float(np.max(np.abs(v)))
    return parts


def _fsum(blocks) -> float:
    """math.fsum over every value of the blocks, without a Python float
    per value: both are the correctly rounded exact sum."""
    return math.fsum(p for b in blocks for p in _exact_parts(b))


def _sum_blocks(a: np.ndarray):
    return (a[s:s + _SUM_BLOCK] for s in range(0, len(a), _SUM_BLOCK))


def empirical_char_fn(n: int, x: HermitianMatrix, samples: int,
                      rng_seed: int) -> tuple[complex, float]:
    """Monte Carlo mean of e^{i tr(XA)} with its 1-sigma standard error.

    Sample k comes from stream k // 4096, whose generator draws the
    stream's g entries and then its h entries.  The draws run in blocks of
    at most 2^16 matrix entries per array, and each block's values go into
    one complex array, so memory is 16 bytes per sample plus one block.
    The mean and the squared deviations are summed exactly, block by
    block, and rounded once, as math.fsum would.  The estimate is the same
    bit for bit at any block size.  An estimate that is not finite (tr(XA)
    overflowed) raises NonFinite.
    """
    if x.n != n:
        raise InvalidSpec("test matrix size must match n")
    if rng_seed < 0:
        raise InvalidSpec("seed must be nonnegative")
    if samples < 2:
        raise InsufficientData("need at least 2 samples")
    work = samples * max(n, 4) ** 2
    if work > _MAX_CHAR_WORK:
        raise InvalidSpec(f"samples * max(n, 4)^2 = {work:.3g} is past the "
                          f"cap of {_MAX_CHAR_WORK:.3g}")
    xa = np.asarray(x.entries)
    vals = np.empty(samples, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for start, g, h in _char_draws(n, rng_seed, samples):
            # A = (G + G^T)/2 + i (H - H^T)/2: diagonal variance 1,
            # off-diagonal parts variance 1/2 each, matching the entrywise
            # sampler's law
            re = 0.5 * (g + np.transpose(g, (0, 2, 1)))
            im = 0.5 * (h - np.transpose(h, (0, 2, 1)))
            tr = np.einsum("ij,kji->k", xa, re + 1j * im)
            vals[start:start + len(g)] = np.exp(1j * np.real(tr))
    mean = complex(_fsum(_sum_blocks(vals.real)),
                   _fsum(_sum_blocks(vals.imag))) / samples
    var = _fsum(np.abs(b - mean) ** 2 for b in _sum_blocks(vals)) \
        / (samples - 1)
    if math.isnan(var):  # a NaN value: some tr(XA) overflowed
        raise NonFinite("tr(XA) overflows: the estimate is not finite")
    return mean, math.sqrt(var / samples)


# ---------- spacing statistics ----------


def _semicircle_unfold(lam: np.ndarray, n: int) -> np.ndarray:
    """Expected index count below each level under the semicircle law."""
    x = np.clip(lam / (2.0 * math.sqrt(n)), -1.0, 1.0)
    return n * (0.5 + (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / math.pi)


def gue_surmise_cdf(s: np.ndarray) -> np.ndarray:
    """CDF of the spacing density (32/pi^2) s^2 e^{-4 s^2 / pi}."""
    s = np.asarray(s, dtype=float)
    from math import erf
    erfs = np.vectorize(erf)(2.0 * s / math.sqrt(math.pi))
    return erfs - (4.0 * s / math.pi) * np.exp(-4.0 * s * s / math.pi)


def poisson_cdf(s: np.ndarray) -> np.ndarray:
    return 1.0 - np.exp(-np.asarray(s, dtype=float))


_REFERENCE_CDFS = {"gue_surmise": gue_surmise_cdf, "poisson": poisson_cdf}


def ks_distance(spacings: np.ndarray, cdf) -> float:
    """sup-norm distance between the empirical CDF and a reference CDF."""
    s = np.sort(np.asarray(spacings, dtype=float))
    f = cdf(s)
    n = len(s)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(np.max(hi), np.max(lo)))


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    allv = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), allv, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), allv, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def _report(spacings: np.ndarray, reference, sample_size: int,
            notes: list[str]) -> SpacingReport:
    raw_mean = float(np.mean(spacings))
    spacings = spacings / raw_mean  # pin mean exactly to 1
    if isinstance(reference, str):
        if reference not in _REFERENCE_CDFS:
            raise InvalidSpec(f"unknown reference {reference!r}")
        ks = ks_distance(spacings, _REFERENCE_CDFS[reference])
        ref_name = reference
    else:
        other = unfolded_spacings(reference)
        ks = _two_sample_ks(spacings, other / np.mean(other))
        ref_name = f"spectra[{len(reference)}]"
    counts, edges = np.histogram(spacings, bins=np.arange(0.0, 4.01, 0.1))
    return SpacingReport(spacings=spacings, bin_edges=edges, counts=counts,
                         ks_distance=ks, reference=ref_name,
                         sample_size=sample_size, raw_mean=raw_mean,
                         notes=notes)


def unfolded_spacings(samples: list[SpectralSample],
                      bulk_fraction: float = 0.5) -> np.ndarray:
    """Pooled bulk spacings of semicircle-unfolded spectra."""
    if not samples:
        raise InsufficientData("no spectra given")
    n = samples[0].n
    if any(s.n != n for s in samples):
        raise InvalidSpec("all spectra must share the same n")
    if not 0.0 < bulk_fraction <= 1.0:
        raise InvalidSpec("bulk_fraction must lie in (0, 1]")
    k0 = int(math.floor(n * (1.0 - bulk_fraction) / 2.0))
    k1 = max(k0 + 2, n - k0)
    out = []
    for s in samples:
        e = _semicircle_unfold(np.asarray(s.eigenvalues), n)
        out.append(np.diff(e[k0:k1]))
    return np.concatenate(out)


def spacing_stats(samples: list[SpectralSample],
                  bulk_fraction: float = 0.5,
                  reference: str = "gue_surmise") -> SpacingReport:
    """Unfold, keep the central bulk, and compare with a reference law."""
    sp = unfolded_spacings(samples, bulk_fraction)
    if len(sp) < 1000:
        raise InsufficientData(
            f"{len(sp)} spacings < 1000; add samples or widen the bulk")
    return _report(sp, reference, sample_size=len(samples), notes=[])


def compare_zero_spacings(zt: ZeroTable, reference) -> SpacingReport:
    """Descriptive KS comparison of zero gaps after local unfolding.

    reference: 'gue_surmise', 'poisson', or a list of SpectralSample for
    a two-sample comparison.  Output is a measurement, not a verdict.
    """
    zs = np.array([zr.z for zr in zt.zeros], dtype=float)
    if len(zs) < 20:
        raise InsufficientData(f"{len(zs)} zeros < 20")
    gaps = np.diff(zs)
    # local unfolding: divide by a sliding-window mean gap (window 7,
    # clipped at the ends) to flatten the slow density drift
    w = 7
    kernel = np.ones(w)
    local = np.convolve(gaps, kernel, mode="same") \
        / np.convolve(np.ones_like(gaps), kernel, mode="same")
    sp = gaps / local
    notes = []
    if len(sp) < 100:
        notes.append(f"small sample: {len(sp)} spacings")
    return _report(sp, reference, sample_size=len(zs), notes=notes)


def spacing_report_to_json(rep: SpacingReport) -> dict:
    return {
        "reference": rep.reference,
        "ks_distance": rep.ks_distance,
        "sample_size": rep.sample_size,
        "raw_mean": rep.raw_mean,
        "n_spacings": int(len(rep.spacings)),
        "histogram": {"bin_edges": [float(x) for x in rep.bin_edges],
                      "counts": [int(c) for c in rep.counts]},
        "notes": list(rep.notes),
    }
