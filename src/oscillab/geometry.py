"""Pointwise geometry of the unit disc.

Moebius automorphisms that exchange 0 with an interior point, the
pseudo-hyperbolic and hyperbolic metrics, the Poisson kernel, and the
boundary arc attached to an interior point.  Points are plain complex
numbers; the kernels (``moebius``, ``rho``, ``tau``, ``poisson_kernel``)
accept scalars or numpy arrays and broadcast.

Arc angles are stored in *turns* (fractions of a full revolution) as exact
rationals so the dyadic set machinery can do exact measure arithmetic on
them; they are converted to radians only when boundary points are sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: default clip value for the (unbounded) hyperbolic metric inside integrals
DEFAULT_TAU_CAP = 50.0

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Raised for points or arcs outside the supported domain."""


# ---------------------------------------------------------------------------
# metric and kernel primitives (array friendly)
# ---------------------------------------------------------------------------

def moebius(a: complex, z):
    """sigma_a(z) = (a - z)/(1 - conj(a) z), the self-inverse automorphism
    exchanging 0 and ``a``.  ``z`` may be an array."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise GeometryError(f"moebius parameter must be interior, got |a| = {abs(a)}")
    z = np.asarray(z, dtype=complex) if not np.isscalar(z) else z
    return (a - z) / (1.0 - np.conj(a) * z)


def rho(z, w):
    """Pseudo-hyperbolic distance |z-w| / |1 - conj(w) z|, clipped to [0, 1].

    Assembled from symmetric real expressions, so swapping the arguments
    gives the bit-identical result.  The boundary degeneracy is resolved
    the standard way: coincident points give 0 (even on the circle),
    distinct points with vanishing denominator give 1.  Computed by
    ``rho_parts`` on contiguous real and imaginary parts.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return rho_parts(z.real.copy(), z.imag.copy(), w.real.copy(), w.imag.copy())


def rho_parts(zr, zi, wr, wi):
    """``rho`` from the real and imaginary parts of z and w: float arrays,
    the two parts of a point of one shape, that broadcast together.

    Per element the arithmetic is fixed: num2 = (zr-wr)^2 + (zi-wi)^2,
    cross = zr wr + zi wi, mod2 = |z|^2 |w|^2, den2 = 1 - 2 cross + mod2,
    then sqrt(num2/den2) clipped to 1.  The L sweep takes an argmax over
    values that tie up to rounding, so any other order of operations moves
    its results.  The work is done in place in three full-size buffers, and
    ``den2 > 0`` is tested elementwise only when some entry fails it.
    """
    shape = np.broadcast_shapes(np.shape(zr), np.shape(wr))
    num2, tmp, buf = np.empty(shape), np.empty(shape), np.empty(shape)
    np.square(np.subtract(zr, wr, out=num2), out=num2)
    num2 += np.square(np.subtract(zi, wi, out=tmp), out=tmp)
    den2 = np.multiply(zr, wr, out=tmp)
    np.multiply(zi, wi, out=buf)
    den2 += buf
    den2 *= 2.0
    np.subtract(1.0, den2, out=den2)
    den2 += np.multiply(zr * zr + zi * zi, wr * wr + wi * wi, out=buf)
    # min propagates NaN, so a NaN entry takes the masked route too
    if den2.size and den2.min() > 0.0:
        np.divide(num2, den2, out=num2)
        np.sqrt(num2, out=num2)
    else:
        ok = den2 > 0.0
        bad = ~ok
        fallback = np.where(num2[bad] == 0.0, 0.0, 1.0)
        np.divide(num2, den2, out=num2, where=ok)
        np.sqrt(num2, out=num2, where=ok)
        num2[bad] = fallback
    # num2/den2 >= 0, so only the upper clip can act
    return np.minimum(num2, 1.0, out=num2)[()]


def tau_from_rho(r):
    """Hyperbolic metric as a function of the pseudo-hyperbolic one:
    tau = (1/2) log((1+rho)/(1-rho)) = atanh(rho); +inf at rho = 1."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return np.arctanh(np.minimum(r, 1.0))


def tau(z, w):
    """Hyperbolic distance; +inf for distinct points touching the boundary."""
    return tau_from_rho(rho(z, w))


def tau_capped(rho_values, cap: float = DEFAULT_TAU_CAP, power: float = 1.0, axis=None):
    """Clipped powers of the hyperbolic metric for use inside integrals.

    Returns ``(min(tau, cap) ** power, hits)`` where ``hits`` counts the
    integrand evaluations that were clipped at the cap: in total, or along
    ``axis`` (an array, one count per row for ``axis=1``).
    """
    t = tau_from_rho(rho_values)
    hits = np.count_nonzero(t > cap, axis=axis)
    hits = int(hits) if axis is None else hits
    t = np.minimum(t, cap)
    if power != 1.0:
        t = t ** power
    return t, hits


def poisson_kernel(a: complex, zeta):
    """Poisson kernel P_a(zeta) = (1 - |a|^2)/|zeta - a|^2 for interior ``a``.

    Integrates to 1 against the normalized arc-length measure on the circle.
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise GeometryError(f"Poisson kernel needs an interior point, got |a| = {abs(a)}")
    zeta = np.asarray(zeta, dtype=complex)
    return (1.0 - abs(a) ** 2) / np.abs(zeta - a) ** 2


# ---------------------------------------------------------------------------
# arcs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """A circle arc described by exact rational midpoint and length in turns.

    The arc is the set of boundary points with angular distance at most
    ``length/2`` turns from the midpoint angle.
    """

    center: Fraction
    length: Fraction

    def __post_init__(self):
        center = Fraction(self.center)
        length = Fraction(self.length)
        if not (0 <= center < 1):
            center = center % 1
        if not (0 < length <= 1):
            raise GeometryError(f"arc length must lie in (0, 1], got {length}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "length", length)

    def span(self) -> tuple[Fraction, Fraction]:
        """Half-open angular interval (lo, hi) in turns, hi - lo = length.
        ``lo`` may be negative / ``hi`` may exceed 1 (wrap handled by callers)."""
        lo = self.center - self.length / 2
        return lo, lo + self.length

    def sample_points(self, m: int) -> np.ndarray:
        """``m`` midpoint-rule boundary samples inside the arc."""
        return _midpoint_samples(float(self.center), float(self.length), m)


def _midpoint_samples(center, length, m: int) -> np.ndarray:
    """exp(2 pi i t) at t = lo + length (k + 1/2) / m for k < m, where lo =
    center - length / 2 (turns).  ``center`` and ``length`` are floats, or
    columns that give one row of samples per arc."""
    if m < 1:
        raise GeometryError("need at least one sample")
    lo = center - length / 2.0
    t = lo + length * (np.arange(m) + 0.5) / m
    return np.exp(2j * math.pi * t)


def _arc_turns(a: complex) -> tuple[float, float]:
    """Midpoint angle and length, in turns, of the arc of ``a``."""
    r = abs(a)
    if r >= 1.0:
        raise GeometryError(f"arc_of needs an interior point, got |a| = {r}")
    if r == 0.0:
        return 0.0, 1.0
    theta = math.atan2(a.imag, a.real) / TWO_PI
    if theta < 0.0:
        theta += 1.0
    if theta >= 1.0:
        theta = 0.0
    return theta, 1.0 - r


def arc_of(a: complex) -> Arc:
    """The boundary arc with midpoint a/|a| and normalized length 1 - |a|.

    For a = 0 the whole circle is returned.  Angles are converted to exact
    (binary) rationals of the floating point data, so round trips through
    ``center_of`` reproduce the input to floating precision.
    """
    center, length = _arc_turns(complex(a))
    return Arc(Fraction(center), Fraction(length))


def arc_sample_points(points, m: int) -> np.ndarray:
    """``arc_of(a).sample_points(m)`` for every a in ``points``, one row per
    point, computed as one (points x m) array."""
    turns = np.array([_arc_turns(complex(a)) for a in np.ravel(points)]).reshape(-1, 2)
    return _midpoint_samples(turns[:, :1], turns[:, 1:], m)


def center_of(arc: Arc) -> complex:
    """The unique interior point whose arc is ``arc`` (inverse of arc_of)."""
    r = 1.0 - float(arc.length)
    angle = TWO_PI * float(arc.center)
    z = r * complex(math.cos(angle), math.sin(angle))
    if abs(z) >= 1.0:
        raise GeometryError(f"not an interior point: |{z}| = {abs(z)} >= 1")
    return z


# ---------------------------------------------------------------------------
# sharp constants
# ---------------------------------------------------------------------------

#: infimum over interior points a and zeta in I(a) of P_a(zeta) * |I(a)|;
#: attained in the limit |a| -> 1 at the arc endpoints.
POISSON_ARC_RATIO_MIN = 2.0 / (1.0 + math.pi ** 2)


def golden_max(f, lo: float, hi: float, tol: float) -> float:
    """The maximizer of a unimodal f on [lo, hi] by golden-section search."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def min_tau_over_rho_sq() -> float:
    """The best constant c with tau >= c * rho^2 on [0, 1).

    tau/rho^2 diverges at both ends of (0, 1), so the minimum is interior;
    it is located by golden-section search.
    """
    def f(r: float) -> float:
        return math.atanh(r) / (r * r)

    return f(golden_max(lambda r: -f(r), 1e-6, 1.0 - 1e-12, 1e-12))
