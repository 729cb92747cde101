"""Test functions sigma_b - b and the inductive c0-type selection.

For f = sigma_b - b the oscillation has the closed form
gamma(f, a) = sqrt(1 - |sigma_b(a)|^2), because sigma_b . sigma_a is an
inner function.  The inductive selection picks base points (|b| increasing
to 1) and radii r_k realizing, for each k,

    ||f_{n_k}||_{H^2} < 2^-(k+1),
    sup_{|a| <= r_k}     gamma(f_{n_k}, a) < 2^-(k+1),
    sup_{|a| >= r_{k+1}} gamma(f_{n_k}, a) < 2^-(k+1).

The bounds cascade brutally: each step forces the next base point's gap
1 - |b| below gap(r_k) / 4^(k+2) and the next radius gap below
(1 - |b|) / 4^(k+2), so a depth-K selection from the 1 - 2^-n ladder needs
n of order 2 K^2.  Points that deep are not representable as doubles, so
the whole module works in *gap coordinates* (1 - |a|, angle): every formula
below is arranged so that quantities like 1 - conj(b) a are assembled from
exact gaps without cancellation.

Combinations sum(lambda_k f_{n_k}) are handled the same way: gamma of a
combination is evaluated in closed form from pairwise Poisson integrals of
sigma_b conj(sigma_c), which reduces to geometric series.  On representable
inputs this closed form is cross-checked against the quadrature route in
the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import hardy
from .symbols import Moebius

TWO_PI = 2.0 * math.pi

#: the gap grid of ``combination_seminorm`` and the slack of its upper window
SEMINORM_DEPTH = 12
SEMINORM_ANGLES = 64
SEMINORM_TOL = 1e-6


class SelectionError(RuntimeError):
    """The base-point list cannot support the requested selection depth."""


class CombinationBoundError(RuntimeError):
    """A combination seminorm left the guaranteed window."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# gap coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapPoint:
    """An interior point (1 - gap) * exp(2 pi i turns), stored by its gap.

    Gaps down to the double-precision floor stay meaningful even when the
    complex value itself would round to a unimodular number.
    """

    gap: float
    turns: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.gap <= 1.0):
            raise ValueError(f"gap must lie in (0, 1], got {self.gap}")
        object.__setattr__(self, "turns", float(self.turns) % 1.0)
        object.__setattr__(self, "gap", float(self.gap))

    @staticmethod
    def from_complex(a: complex) -> "GapPoint":
        a = complex(a)
        if a == 0:
            return GapPoint(1.0, 0.0)
        gap = 1.0 - abs(a)
        if gap <= 0.0:
            raise ValueError(f"point must be interior, |a| = {abs(a)}")
        return GapPoint(gap, math.atan2(a.imag, a.real) / TWO_PI)

    @property
    def value(self) -> complex:
        """Float complex value; lossy for gaps below machine epsilon."""
        return (1.0 - self.gap) * cmath.exp(2j * math.pi * self.turns)


def _as_gap(p) -> GapPoint:
    return p if isinstance(p, GapPoint) else GapPoint.from_complex(complex(p))


def _phase(turns: float) -> complex:
    return cmath.exp(2j * math.pi * turns)


def _one_minus_unimodular(turns: float) -> complex:
    """1 - exp(2 pi i t) without cancellation: -2i sin(pi t) e^(i pi t)."""
    return -2j * math.sin(math.pi * turns) * cmath.exp(1j * math.pi * turns)


def one_minus_product(e1: float, e2: float, rel_turns: float) -> complex:
    """1 - (1-e1)(1-e2) exp(2 pi i t), assembled from the gaps.

    Writing the product's gap s = e1 + e2 - e1 e2 keeps everything additive:
    the result is (1 - w) + w s with w the unimodular phase.
    """
    w = _phase(rel_turns)
    s = e1 + e2 - e1 * e2
    return _one_minus_unimodular(rel_turns) + w * s


def _sigma_over(b: GapPoint, a: GapPoint, den: complex) -> complex:
    """sigma_b(a) from its denominator den = 1 - conj(b) a."""
    psi = a.turns - b.turns
    num = _one_minus_unimodular(psi) + _phase(psi) * a.gap - b.gap
    return _phase(b.turns) * num / den


def gap_sigma(b: GapPoint, a: GapPoint) -> complex:
    """sigma_b(a) = (b - a)/(1 - conj(b) a) in gap-stable form."""
    return _sigma_over(b, a, one_minus_product(b.gap, a.gap, a.turns - b.turns))


def gamma_gap(b: GapPoint, a: GapPoint) -> float:
    """gamma(sigma_b - b, a) = sqrt((1-|b|^2)(1-|a|^2)) / |1 - conj(b) a|."""
    num = b.gap * (2.0 - b.gap) * a.gap * (2.0 - a.gap)
    den = abs(one_minus_product(b.gap, a.gap, a.turns - b.turns)) ** 2
    return math.sqrt(max(num / den, 0.0))


def gamma_closed_form(b, a) -> float:
    """gamma(sigma_b - b, a) for interior points given as complex or GapPoint."""
    return gamma_gap(_as_gap(b), _as_gap(a))


def _base_terms(bases: tuple) -> tuple:
    """The a-independent terms of ``pair_integral`` for every pair of bases:
    gb = 1 - |b|^2, b, conj(b) and the table 1 - conj(b_j) b_k."""
    gb = [b.gap * (2.0 - b.gap) for b in bases]
    bv = [(1.0 - b.gap) * _phase(b.turns) for b in bases]
    bv_conj = [np.conj(v) for v in bv]
    one_m_bc = [[one_minus_product(b.gap, c.gap, c.turns - b.turns) for c in bases]
                for b in bases]
    return gb, bv, bv_conj, one_m_bc


def _point_terms(bases: tuple, a: GapPoint) -> tuple:
    """The terms of ``pair_integral`` at a: a, conj(a), and for every base b
    1 - conj(b) a, 1 - b conj(a) and the geometric sums
    1 + conj(b) a / (1 - conj(b) a) and b conj(a) / (1 - b conj(a))."""
    av = (1.0 - a.gap) * _phase(a.turns)
    one_m_ba = [one_minus_product(b.gap, a.gap, a.turns - b.turns) for b in bases]
    one_m_ca = [one_minus_product(c.gap, a.gap, c.turns - a.turns) for c in bases]
    geo_ba = [1.0 + (1.0 - b.gap) * (1.0 - a.gap) * _phase(a.turns - b.turns) / d
              for b, d in zip(bases, one_m_ba)]
    geo_ca = [(1.0 - c.gap) * (1.0 - a.gap) * _phase(c.turns - a.turns) / d
              for c, d in zip(bases, one_m_ca)]
    return av, np.conj(av), one_m_ba, one_m_ca, geo_ba, geo_ca


def _pair(base: tuple, point: tuple, j: int, k: int) -> complex:
    """``pair_integral(b_j, b_k, a)`` from the terms of ``_base_terms`` and
    ``_point_terms``."""
    gb, bv, bv_conj, one_m_bc = base
    av, av_conj, one_m_ba, one_m_ca, geo_ba, geo_ca = point
    return (bv[j] * bv_conj[k]
            - bv[j] * gb[k] * av_conj / one_m_ca[k]
            - bv_conj[k] * gb[j] * av / one_m_ba[j]
            + gb[j] * gb[k] * (geo_ba[j] + geo_ca[k]) / one_m_bc[j][k])


def pair_integral(b: GapPoint, c: GapPoint, a: GapPoint) -> complex:
    """Poisson integral of sigma_b conj(sigma_c) at a, in closed form.

    Expanding both factors in geometric series and integrating monomials
    against the Poisson kernel leaves three geometric sums:

      I = b conj(c) - b gc conj(a)/(1 - c conj(a)) - conj(c) gb a/(1 - conj(b) a)
          + gb gc [1 + conj(b) a/(1 - conj(b) a) + c conj(a)/(1 - c conj(a))]
            / (1 - conj(b) c)

    with gb = 1 - |b|^2, gc = 1 - |c|^2.  Every denominator is assembled
    from gaps, so the formula survives base points far beyond double
    resolution.
    """
    bases = (b, c)
    return _pair(_base_terms(bases), _point_terms(bases, a), 0, 1)


def gamma_combination(bases: tuple, lam: tuple, a: GapPoint,
                      terms: tuple | None = None) -> float:
    """gamma(sum lambda_k (sigma_{b_k} - b_k), a) in closed form.

    Uses gamma(g, a)^2 = ||g . sigma_a||^2 - |g(a)|^2 for g = sum lambda_k
    sigma_{b_k} (additive constants do not change gamma).  ``terms`` is
    ``_base_terms(bases)``, passed by callers that evaluate many points.
    """
    if terms is None:
        terms = _base_terms(bases)
    point = _point_terms(bases, a)
    sigmas = [_sigma_over(b, a, den) for b, den in zip(bases, point[2])]
    ga = sum(l * s for l, s in zip(lam, sigmas))
    lam_conj = [np.conj(lk) for lk in lam]
    total = 0.0
    for j, lj in enumerate(lam):
        for k, lk_conj in enumerate(lam_conj):
            total += (lj * lk_conj * _pair(terms, point, j, k)).real
    return math.sqrt(max(total - abs(ga) ** 2, 0.0))


# ---------------------------------------------------------------------------
# test sequences and circle suprema
# ---------------------------------------------------------------------------

def test_function(b) -> hardy.LinearCombination:
    """The normalized test function sigma_b - b (vanishes at the origin)."""
    b = complex(b)
    return hardy.LinearCombination(((1 + 0j, Moebius(b)),), shift=-b)


@dataclass(frozen=True)
class TestSequence:
    """Base points with strictly increasing moduli, stored as GapPoints."""

    base_points: tuple

    def __post_init__(self):
        pts = tuple(_as_gap(b) for b in self.base_points)
        gaps = [p.gap for p in pts]
        if any(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:])):
            raise ValueError("base point moduli must strictly increase toward 1")
        object.__setattr__(self, "base_points", pts)

    @staticmethod
    def geometric(count: int = 130) -> "TestSequence":
        """The canonical ladder b_n = 1 - 2^-n (exact gaps)."""
        return TestSequence(tuple(GapPoint(2.0 ** -n) for n in range(1, count + 1)))

    def function(self, i: int) -> hardy.LinearCombination:
        return test_function(self.base_points[i].value)


def circle_sup_gamma(b, radius_gap: float) -> float:
    """sup over |a| = 1 - radius_gap of gamma(sigma_b - b, a).

    gamma = sqrt((1 - |b|^2)(1 - |a|^2)) / |1 - conj(b) a|, and on the
    circle |1 - conj(b) a| is smallest at the angle aligned with b, so the
    supremum is the aligned value.
    """
    b = _as_gap(b)
    return gamma_gap(b, GapPoint(radius_gap, b.turns))


# ---------------------------------------------------------------------------
# the inductive selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionCertificate:
    """Indices, radii (as gaps) and the verified 2^-(k+1) bounds."""

    base_points: tuple      # chosen GapPoints b_{n_k}
    indices: tuple          # positions n_k in the originating sequence
    radius_gaps: tuple      # gaps of r_1 = 1/2 < r_2 < ... < r_{K+1}
    h2_norms: tuple
    inside_sups: tuple      # sup_{|a| <= r_k} gamma(f_{n_k}, a)
    outside_sups: tuple     # sup_{|a| >= r_{k+1}} gamma(f_{n_k}, a)

    @property
    def depth(self) -> int:
        return len(self.indices)

    def verified(self) -> bool:
        for k in range(self.depth):
            bound = 2.0 ** -(k + 2)
            if not (self.h2_norms[k] < bound
                    and self.inside_sups[k] < bound
                    and self.outside_sups[k] < bound):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "base_gaps": [b.gap for b in self.base_points],
            "base_turns": [b.turns for b in self.base_points],
            "radius_gaps": list(self.radius_gaps),
            "h2_norms": list(self.h2_norms),
            "inside_sups": list(self.inside_sups),
            "outside_sups": list(self.outside_sups),
            "verified": self.verified(),
        }


def _radius_gap_for_outside_bound(b: GapPoint, bound: float) -> float:
    """Largest radius gap delta < gap(b) with sup_{|a| >= r} gamma < bound.

    The aligned value sqrt(gb * d(2-d)) / (gap + d - gap d) increases in d
    below gap(b), so bisection on log2(d) converges.
    """
    lo_exp, hi_exp = -980.0, math.log2(b.gap)

    def ok(exp: float) -> bool:
        return circle_sup_gamma(b, 2.0 ** exp) < bound

    if not ok(lo_exp):
        raise SelectionError(
            f"outside supremum cannot be pushed below {bound} for gap {b.gap}")
    for _ in range(120):
        mid = 0.5 * (lo_exp + hi_exp)
        if ok(mid):
            lo_exp = mid
        else:
            hi_exp = mid
    return 2.0 ** lo_exp


def select_subsequence(seq: TestSequence, depth: int) -> SelectionCertificate:
    """Greedy inductive selection realizing all 2^-(k+1) bounds up to ``depth``,
    from the first radius r_1 = 1/2.

    Region suprema come from the analytic closed form (the aligned value
    on circles), never from grid sampling, so the certificate is
    airtight down to gap scales far below double resolution.  A base point
    outside |a| < r_k has inner supremum 1 and is skipped.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    chosen, radius_gaps = [], [0.5]
    h2_norms, inside_sups, outside_sups = [], [], []
    candidates = enumerate(seq.base_points)
    for k in range(1, depth + 1):
        bound = 2.0 ** -(k + 1)
        gap_k = radius_gaps[-1]
        for idx, b in candidates:
            h2 = math.sqrt(b.gap * (2.0 - b.gap))
            if h2 >= bound or b.gap >= gap_k:
                continue
            inside = circle_sup_gamma(b, gap_k)
            if inside < bound:
                break
        else:
            raise SelectionError(
                f"base-point list exhausted at step {k}: no point satisfies the"
                f" H^2 and inner-region bounds {bound}")
        # gap_next < b.gap, so b lies inside |a| < 1 - gap_next
        gap_next = _radius_gap_for_outside_bound(b, bound)
        chosen.append((idx, b))
        radius_gaps.append(min(gap_next, gap_k / 2.0))
        h2_norms.append(h2)
        inside_sups.append(inside)
        outside_sups.append(circle_sup_gamma(b, gap_next))
    return SelectionCertificate(
        tuple(b for _, b in chosen),
        tuple(idx for idx, _ in chosen),
        tuple(radius_gaps),
        tuple(h2_norms),
        tuple(inside_sups),
        tuple(outside_sups),
    )


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------

def standard_gap_grid(depth: int = 12, angles: int = 64) -> tuple:
    """The standard seminorm grid as GapPoints (exact gaps 2^-k)."""
    return tuple(GapPoint(2.0 ** -k, j / angles)
                 for k in range(1, depth + 1) for j in range(angles))


def combination_seminorm(cert: SelectionCertificate, lam) -> hardy.SeminormEstimate:
    """Seminorm estimate of sum(lambda_k f_{n_k}) over the augmented grid:
    ``standard_gap_grid(SEMINORM_DEPTH, SEMINORM_ANGLES)`` plus every base
    point b_{n_k}.

    The base points make the lower bound ||lambda||_inf / 4 a certainty
    rather than a sampling accident; the estimate must land in
    [max/4, 2 max + SEMINORM_TOL] or a CombinationBoundError carrying the
    witnessing point is raised.
    """
    lam = tuple(complex(c) for c in lam)
    if len(lam) > cert.depth:
        raise ValueError("more coefficients than selected functions")
    sup = max((abs(c) for c in lam), default=0.0)
    if sup == 0.0:
        raise ValueError("combination needs a nonzero coefficient sequence")
    bases = cert.base_points[: len(lam)]
    grid = standard_gap_grid(SEMINORM_DEPTH, SEMINORM_ANGLES) + tuple(cert.base_points)
    terms = _base_terms(bases)
    best, arg = -1.0, grid[0]
    for a in grid:
        val = gamma_combination(bases, lam, a, terms)
        if val > best:
            best, arg = val, a
    est = hardy.SeminormEstimate(
        best, f"standard gap grid depth={SEMINORM_DEPTH} angles={SEMINORM_ANGLES}"
        " + base points", True, arg.value)
    if not (0.25 * sup <= est.value <= 2.0 * sup + SEMINORM_TOL):
        raise CombinationBoundError(
            f"seminorm {est.value} escapes [{0.25 * sup}, {2.0 * sup + SEMINORM_TOL}]",
            witness=est.argmax)
    return est
