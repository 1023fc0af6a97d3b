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

spacing_stats unfolds bulk eigenvalues by the exact semicircle cumulative
law and measures Kolmogorov-Smirnov distance to a named reference;
compare_zero_spacings applies the same machinery to a ZeroTable so zero
gaps and eigenvalue gaps can be compared descriptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, InvalidSpec, NonConvergence
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

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def trace_sq(self) -> float:
        # tr(A^2) = squared Frobenius norm for Hermitian A
        return float(np.sum(np.abs(self.entries) ** 2))


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
    # one independent stream per matrix: replayable at any index without
    # generating earlier draws
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(index,)))


def sample_gue(n: int, rng_seed: int, index: int = 0) -> HermitianMatrix:
    """One draw from density 1/z * exp(-tr(A^2)/2) on n x n Hermitians."""
    if n < 1:
        raise InvalidSpec("n must be >= 1")
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


def eigenvalues(h: HermitianMatrix) -> SpectralSample:
    """Spectrum via LAPACK eigvalsh (numpy), trace-identity checked."""
    n = h.n
    lam = np.linalg.eigvalsh(h.entries)
    scale = max(1.0, float(np.max(np.abs(h.entries))))
    if abs(math.fsum(lam) - h.trace()) > 1e-8 * n * scale:
        raise NonConvergence("eigenvalue sum fails the trace identity")
    if abs(math.fsum(x * x for x in lam) - h.trace_sq()) \
            > 1e-8 * n * scale * scale:
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

_CHUNK = 4096  # fixed per-stream block so results are thread-count free


def _char_chunk(n: int, x: np.ndarray, seed: int, chunk_idx: int,
                count: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(chunk_idx,)))
    g = rng.standard_normal((count, n, n))
    hmat = rng.standard_normal((count, n, n))
    # A = (G + G^T)/2 + i (H - H^T)/2: diagonal variance 1, off-diagonal
    # parts variance 1/2 each, matching the entrywise sampler's law
    re = 0.5 * (g + np.transpose(g, (0, 2, 1)))
    im = 0.5 * (hmat - np.transpose(hmat, (0, 2, 1)))
    tr = np.einsum("ij,kji->k", x, re + 1j * im)
    return np.exp(1j * np.real(tr))


def empirical_char_fn(n: int, x: HermitianMatrix, samples: int,
                      rng_seed: int, threads: int = 1
                      ) -> tuple[complex, float]:
    """Monte Carlo mean of e^{i tr(XA)} with its 1-sigma standard error.

    Sample index k always lives in stream k // 4096, so the estimate is
    bit-identical for any thread count.
    """
    if x.n != n:
        raise InvalidSpec("test matrix size must match n")
    if samples < 2:
        raise InsufficientData("need at least 2 samples")
    xa = np.asarray(x.entries)
    chunks = [(ci, min(_CHUNK, samples - ci * _CHUNK))
              for ci in range((samples + _CHUNK - 1) // _CHUNK)]

    def run(job):
        ci, cnt = job
        return _char_chunk(n, xa, rng_seed, ci, cnt)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = [run(job) for job in chunks]
    vals = np.concatenate(parts)
    # order-independent aggregation: exact compensated sums per component
    mean = complex(math.fsum(vals.real), math.fsum(vals.imag)) / samples
    var = math.fsum(np.abs(vals - mean) ** 2) / (samples - 1)
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
