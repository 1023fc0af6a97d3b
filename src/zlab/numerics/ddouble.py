"""Compensated double-double arithmetic (~31 significant digits).

A value is an unevaluated sum hi + lo of two IEEE doubles with
|lo| <= ulp(hi)/2.  Everything is built from the error-free transforms
two_sum / two_prod; products use Dekker splitting because math.fma is not
available on this interpreter.  All operations accept either Python floats
or numpy arrays in the hi/lo slots and stay elementwise, so integrands can
run vectorized.

Elementary functions follow the classic double-double recipes: exp reduces
by k*ln2 (Cody-Waite pieces, exact for |k| < 2**26) plus a 512-fold halving
before the Taylor core; sin/cos reduce modulo pi/2 the same way.  The
reductions keep the absolute argument error near 1e-33, which the Gaussian
closed-form regression test exercises at full stretch.

Constants were frozen offline at 60 significant digits and are validated
against in-repo identities in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant

# ---------- error-free transforms ----------


def two_sum(a, b):
    """a + b = s + err exactly, no ordering assumption."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    """a + b = s + err exactly, requires |a| >= |b| elementwise."""
    s = a + b
    return s, b - (s - a)


def split(a):
    """a = hi + lo with hi, lo both 26-bit representable."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """a * b = p + err exactly (Dekker)."""
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


# ---------- the pair type ----------


class DD:
    """Normalized double-double; hi/lo are floats or same-shape ndarrays."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi=0.0, lo=0.0):
        self.hi = hi
        self.lo = lo

    @classmethod
    def from_product(cls, a, b):
        p, e = two_prod(a, b)
        return cls(p, e)

    # -- ring operations --

    def __add__(self, other):
        if isinstance(other, DD):
            s1, s2 = two_sum(self.hi, other.hi)
            t1, t2 = two_sum(self.lo, other.lo)
            s2 = s2 + t1
            s1, s2 = quick_two_sum(s1, s2)
            s2 = s2 + t2
            hi, lo = quick_two_sum(s1, s2)
            return DD(hi, lo)
        s1, s2 = two_sum(self.hi, other)
        s2 = s2 + self.lo
        hi, lo = quick_two_sum(s1, s2)
        return DD(hi, lo)

    __radd__ = __add__

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, DD):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, DD):
            p1, p2 = two_prod(self.hi, other.hi)
            p2 = p2 + (self.hi * other.lo + self.lo * other.hi)
            hi, lo = quick_two_sum(p1, p2)
            return DD(hi, lo)
        p1, p2 = two_prod(self.hi, other)
        p2 = p2 + self.lo * other
        hi, lo = quick_two_sum(p1, p2)
        return DD(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DD):
            other = DD(other, np.zeros_like(other) if isinstance(other, np.ndarray) else 0.0)
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        q3 = r.hi / other.hi
        s, e = quick_two_sum(q1, q2)
        e = e + q3
        hi, lo = quick_two_sum(s, e)
        return DD(hi, lo)

    def __rtruediv__(self, other):
        return DD(other, 0.0 * other) / self

    # -- order; lexicographic on (hi, lo), elementwise for arrays --

    def __lt__(self, other):
        o = other if isinstance(other, DD) else DD(other)
        return (self.hi < o.hi) | ((self.hi == o.hi) & (self.lo < o.lo))

    def __le__(self, other):
        o = other if isinstance(other, DD) else DD(other)
        return (self.hi < o.hi) | ((self.hi == o.hi) & (self.lo <= o.lo))

    def __gt__(self, other):
        o = other if isinstance(other, DD) else DD(other)
        return (self.hi > o.hi) | ((self.hi == o.hi) & (self.lo > o.lo))

    def __ge__(self, other):
        o = other if isinstance(other, DD) else DD(other)
        return (self.hi > o.hi) | ((self.hi == o.hi) & (self.lo >= o.lo))

    def __eq__(self, other):  # noqa: D105
        o = other if isinstance(other, DD) else DD(other)
        return (self.hi == o.hi) & (self.lo == o.lo)

    def __ne__(self, other):
        return ~(self == other) if isinstance(self.hi, np.ndarray) else not (self == other)

    def __hash__(self):
        return hash((float(self.hi), float(self.lo)))

    # -- conveniences --

    def __abs__(self):
        neg = self.hi < 0
        if isinstance(neg, np.ndarray):
            return DD(np.where(neg, -self.hi, self.hi), np.where(neg, -self.lo, self.lo))
        return -self if neg else self

    def to_float(self):
        return self.hi + self.lo

    def __float__(self):
        return float(self.hi + self.lo)

    def scale2(self, f):
        """Multiply by an exact power of two."""
        return DD(self.hi * f, self.lo * f)

    def sqr(self):
        p1, p2 = two_prod(self.hi, self.hi)
        p2 = p2 + 2.0 * (self.hi * self.lo)
        hi, lo = quick_two_sum(p1, p2)
        return DD(hi, lo)

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"


def where(mask, a: DD, b: DD) -> DD:
    """Elementwise select preserving the pair structure."""
    return DD(np.where(mask, a.hi, b.hi), np.where(mask, a.lo, b.lo))


def from_array(x) -> DD:
    x = np.asarray(x, dtype=float)
    return DD(x, np.zeros_like(x))


def reduce_sum(v: DD, lengths=None) -> DD:
    """Sum an array-valued DD along its last axis by pairwise folding.

    Deterministic and independent of numpy reduction internals; every fold
    is a full double-double addition, so the result carries no summation
    error beyond the representation of the addends.  A scalar or 1-D
    input gives a scalar DD.  With lengths (each >= 1), the last axis is
    cut into consecutive segments of those lengths and the result holds
    one sum per segment, each folded exactly as reduce_sum folds that
    segment alone.
    """
    hi = np.atleast_1d(np.asarray(v.hi, dtype=float))
    lo = np.atleast_1d(np.asarray(v.lo, dtype=float))
    if lengths is not None:
        return _reduce_segments(hi.copy(), lo.copy(), np.asarray(lengths))
    while hi.shape[-1] > 1:
        k = hi.shape[-1] // 2
        head = DD(hi[..., :k], lo[..., :k]) + DD(hi[..., k:2 * k], lo[..., k:2 * k])
        if hi.shape[-1] % 2:
            # an odd element out rides along to the next fold
            hi = np.concatenate([head.hi, hi[..., -1:]], axis=-1)
            lo = np.concatenate([head.lo, lo[..., -1:]], axis=-1)
        else:
            hi, lo = head.hi, head.lo
    if hi.ndim == 1:
        return DD(float(hi[0]), float(lo[0]))
    return DD(hi[..., 0], lo[..., 0])


def _reduce_segments(hi, lo, n) -> DD:
    # every segment folds in place from its start: its k = n // 2 heads
    # are element j plus element j + k, and an odd element out moves to
    # just after the heads, as in reduce_sum's fold of the segment alone
    start = np.cumsum(n) - n
    while n.max() > 1:
        k = n // 2
        a = np.arange(k.sum()) + np.repeat(start - (np.cumsum(k) - k), k)
        b = a + np.repeat(k, k)
        head = DD(hi[..., a], lo[..., a]) + DD(hi[..., b], lo[..., b])
        hi[..., a], lo[..., a] = head.hi, head.lo
        odd = (n % 2 == 1) & (k > 0)
        src, dst = start[odd] + n[odd] - 1, start[odd] + k[odd]
        hi[..., dst], lo[..., dst] = hi[..., src], lo[..., src]
        n = k + n % 2
    return DD(hi[..., start], lo[..., start])


def dot(w, v: DD) -> DD:
    """Exact-product dot of a float weight vector with an array DD."""
    return reduce_sum(v * w)


# ---------- frozen constants (60-digit values, split offline) ----------

PI = DD(3.141592653589793, 1.2246467991473532e-16)
TWO_PI = DD(6.283185307179586, 2.4492935982947064e-16)
HALF_PI = DD(1.5707963267948966, 6.123233995736766e-17)
LN2 = DD(0.6931471805599453, 2.3190468138462996e-17)
SQRT2 = DD(1.4142135623730951, -9.667293313452913e-17)
SQRT_PI = DD(1.772453850905516, -7.666586499825799e-17)
SQRT_2PI = DD(2.5066282746310007, -1.8328579980459167e-16)
GAMMA_1_4 = DD(3.625609908221908, 1.0555907647086408e-16)
GAMMA_3_4 = DD(1.2254167024651776, 2.151319998296141e-18)
ONE = DD(1.0, 0.0)
ZERO = DD(0.0, 0.0)

# Cody-Waite pieces: the first two have 27 trailing zero bits, so k*piece is
# exact for |k| < 2**26 and the reduction argument loses no precision.
_LN2_CW = (0.6931471675634384, 1.2996506759677118e-08,
           1.3421277060097865e-16, -2.510717067177956e-33)
_HALF_PI_CW = (1.5707963109016418, 1.5893254712295857e-08,
               6.123233995736766e-17, -1.4973849048591698e-33)
_INV_LN2 = 1.4426950408889634
_INV_HALF_PI = 0.6366197723675814

# 1/k! for k = 2..40
_INV_FACT = [
    (0.5, 0.0),
    (0.16666666666666666, 9.25185853854297e-18),
    (0.041666666666666664, 2.3129646346357427e-18),
    (0.008333333333333333, 1.1564823173178714e-19),
    (0.001388888888888889, -5.300543954373577e-20),
    (0.0001984126984126984, 1.7209558293420705e-22),
    (2.48015873015873e-05, 2.1511947866775882e-23),
    (2.7557319223985893e-06, -1.858393274046472e-22),
    (2.755731922398589e-07, 2.3767714622250297e-23),
    (2.505210838544172e-08, -1.448814070935912e-24),
    (2.08767569878681e-09, -1.20734505911326e-25),
    (1.6059043836821613e-10, 1.2585294588752098e-26),
    (1.1470745597729725e-11, 2.0655512752830745e-28),
    (7.647163731819816e-13, 7.03872877733453e-30),
    (4.779477332387385e-14, 4.399205485834081e-31),
    (2.8114572543455206e-15, 1.6508842730861433e-31),
    (1.5619206968586225e-16, 1.1910679660273754e-32),
    (8.22063524662433e-18, 2.2141894119604265e-34),
    (4.110317623312165e-19, 1.4412973378659527e-36),
    (1.9572941063391263e-20, -1.3643503830087908e-36),
    (8.896791392450574e-22, -7.911402614872376e-38),
    (3.868170170630684e-23, -8.843177655482344e-40),
    (1.6117375710961184e-24, -3.6846573564509766e-41),
    (6.446950284384474e-26, -1.9330404233703465e-42),
    (2.4795962632247976e-27, -1.2953730964765229e-43),
    (9.183689863795546e-29, 1.4303150396787322e-45),
    (3.279889237069838e-30, 1.5117542744029879e-46),
    (1.1309962886447716e-31, 1.0498015412959506e-47),
    (3.7699876288159054e-33, 2.5870347832750324e-49),
]


def _horner(s: DD, coeffs) -> DD:
    """Evaluate sum coeffs[k] * s**k with dd coefficients, highest first."""
    acc = DD(coeffs[-1][0], coeffs[-1][1])
    for c in coeffs[-2::-1]:
        acc = acc * s + DD(c[0], c[1])
    return acc


# ---------- elementary functions ----------


def exp(a: DD) -> DD:
    """exp of a double-double, elementwise; ~1-2 dd-ulp.

    Range reduction: a = k*ln2 + 512*r with |r| <= ln2/1024, Taylor on r,
    then nine squarings in the e^x - 1 form to avoid the 1 + tiny
    cancellation, finally an exact 2**k scaling.
    """
    hi = np.asarray(a.hi, dtype=float)
    lo = np.asarray(a.lo, dtype=float)
    k = np.rint(hi * _INV_LN2)
    # r = a - k*ln2 across four Cody-Waite pieces; the first product and
    # subtraction are exact, the rest is folded in dd.
    t = hi - k * _LN2_CW[0]
    s, e = two_sum(t, -k * _LN2_CW[1])
    p2, p2e = two_prod(k, _LN2_CW[2])
    r = DD(s, e) - DD(p2, p2e)
    r = r + lo
    r = r + (-k * _LN2_CW[3])
    r = r.scale2(1.0 / 512.0)
    # y = e^r - 1
    s2 = r.sqr()
    tail = s2 * _horner(r, _INV_FACT[:11])
    y = r + tail
    for _ in range(9):  # e^{2x}-1 = (e^x-1)^2 + 2(e^x-1)
        y = y.sqr() + y.scale2(2.0)
    out = y + 1.0
    ki = k.astype(np.int64)
    with np.errstate(over="ignore", under="ignore"):
        out = DD(np.ldexp(out.hi, ki), np.ldexp(out.lo, ki))
    # saturate far outside the double range
    out = where(hi > 710.0, DD(np.inf, 0.0), out)
    out = where(hi < -746.0, ZERO, out)
    if np.ndim(a.hi) == 0:
        return DD(float(out.hi), float(out.lo))
    return out


def log(a: DD) -> DD:
    """Natural log via Newton on exp; two corrections from the float seed."""
    hi = np.asarray(a.hi, dtype=float)
    if np.any(hi <= 0.0):
        raise DomainError("log requires a positive argument")
    x = DD(np.log(hi), np.zeros_like(hi))
    for _ in range(2):
        x = x + a * exp(-x) - 1.0
    if np.ndim(a.hi) == 0:
        return DD(float(x.hi), float(x.lo))
    return x


def sqrt(a: DD) -> DD:
    """Square root (Karp's trick); zero passes through, negatives raise."""
    hi = np.asarray(a.hi, dtype=float)
    if np.any(hi < 0.0):
        raise DomainError("sqrt requires a nonnegative argument")
    safe = np.where(hi == 0.0, 1.0, hi)
    x = 1.0 / np.sqrt(safe)
    ax = safe * x
    err = a - DD.from_product(ax, ax)
    out = DD(*quick_two_sum(ax, err.hi * (x * 0.5)))
    out = where(hi == 0.0, ZERO, out)
    if np.ndim(a.hi) == 0:
        return DD(float(out.hi), float(out.lo))
    return out


_SIN_COEFFS = [((-1.0) ** (k + 1) * c[0], (-1.0) ** (k + 1) * c[1])
               for k, c in enumerate(_INV_FACT[1::2])]  # -1/3!, +1/5!, ...
_COS_COEFFS = [((-1.0) ** (k + 1) * c[0], (-1.0) ** (k + 1) * c[1])
               for k, c in enumerate(_INV_FACT[0::2])]  # -1/2!, +1/4!, ...


def _reduce_half_pi(a: DD):
    """(r, q) with a = k pi/2 + r, |r| <= pi/4 and q = k mod 4; |k| < 2**26."""
    hi = np.asarray(a.hi, dtype=float)
    lo = np.asarray(a.lo, dtype=float)
    k = np.rint(hi * _INV_HALF_PI)
    t = hi - k * _HALF_PI_CW[0]
    s, e = two_sum(t, -k * _HALF_PI_CW[1])
    p2, p2e = two_prod(k, _HALF_PI_CW[2])
    r = DD(s, e) - DD(p2, p2e)
    r = r + lo
    r = r + (-k * _HALF_PI_CW[3])
    return r, np.asarray(np.mod(k.astype(np.int64), 4))


def _sin_chain(r: DD, s2: DD) -> DD:
    return r + (r * s2) * _horner(s2, _SIN_COEFFS)


def _cos_chain(r: DD, s2: DD) -> DD:
    return s2 * _horner(s2, _COS_COEFFS) + 1.0


def sincos(a: DD):
    """(sin a, cos a) elementwise; reduction modulo pi/2, |k| < 2**26."""
    r, q = _reduce_half_pi(a)
    s2 = r.sqr()
    sin_r = _sin_chain(r, s2)
    cos_r = _cos_chain(r, s2)
    sin_out = where(q == 0, sin_r,
                    where(q == 1, cos_r,
                          where(q == 2, -sin_r, -cos_r)))
    cos_out = where(q == 0, cos_r,
                    where(q == 1, -sin_r,
                          where(q == 2, -cos_r, sin_r)))
    if np.ndim(a.hi) == 0:
        return (DD(float(sin_out.hi), float(sin_out.lo)),
                DD(float(cos_out.hi), float(cos_out.lo)))
    return sin_out, cos_out


def sin(a: DD) -> DD:
    return sincos(a)[0]


def cos(a: DD) -> DD:
    """cos a elementwise, equal bit for bit to sincos(a)[1]: one Taylor
    chain per lane, cos r on the even quadrants and sin r on the odd."""
    r, q = _reduce_half_pi(a)
    hi, lo = np.broadcast_arrays(r.hi, r.lo)
    out = DD(np.empty(q.shape), np.empty(q.shape))
    for odd, chain in ((False, _cos_chain), (True, _sin_chain)):
        lanes = q % 2 == odd
        rl = DD(hi[lanes], lo[lanes])
        v = chain(rl, rl.sqr())
        # cos a is cos r, -sin r, -cos r, sin r in quadrants 0..3
        v = where((q[lanes] == 1) | (q[lanes] == 2), -v, v)
        out.hi[lanes], out.lo[lanes] = v.hi, v.lo
    if np.ndim(a.hi) == 0:
        return DD(float(out.hi), float(out.lo))
    return out


def powi(a: DD, n: int) -> DD:
    """Integer power by binary exponentiation."""
    if n == 0:
        one = np.ones_like(np.asarray(a.hi, dtype=float))
        return DD(one if np.ndim(a.hi) else 1.0, 0.0 * one if np.ndim(a.hi) else 0.0)
    neg = n < 0
    n = abs(n)
    base = a
    acc = None
    while True:
        if n & 1:
            acc = base if acc is None else acc * base
        n >>= 1
        if not n:
            break
        # only square while more bits remain: one step further can
        # overflow even when the requested power is representable
        base = base.sqr()
    return 1.0 / acc if neg else acc


# ---------- complex pairs ----------


class DDComplex:
    """Complex number with double-double real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: DD, im: DD):
        self.re = re
        self.im = im

    def __add__(self, other):
        if isinstance(other, DDComplex):
            return DDComplex(self.re + other.re, self.im + other.im)
        return DDComplex(self.re + other, self.im)

    __radd__ = __add__

    def __neg__(self):
        return DDComplex(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, DDComplex):
            return DDComplex(self.re - other.re, self.im - other.im)
        return DDComplex(self.re - other, self.im)

    def __mul__(self, other):
        if isinstance(other, DDComplex):
            return DDComplex(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re)
        return DDComplex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DDComplex):
            return DDComplex(self.re / other, self.im / other)
        d = other.re.sqr() + other.im.sqr()
        re = (self.re * other.re + self.im * other.im) / d
        im = (self.im * other.re - self.re * other.im) / d
        return DDComplex(re, im)

    def conj(self):
        return DDComplex(self.re, -self.im)

    def __repr__(self):
        return f"DDComplex({self.re!r}, {self.im!r})"


def exp_i(theta: DD) -> DDComplex:
    """e^{i theta} as a DDComplex."""
    s, c = sincos(theta)
    return DDComplex(c, s)


def cexp(z: DDComplex) -> DDComplex:
    """Complex exponential."""
    m = exp(z.re)
    s, c = sincos(z.im)
    return DDComplex(m * c, m * s)
