"""Nevanlinna counting function for rational self-maps.

Every supported symbol tree lowers exactly to a rational function p/q with
no poles on the closed disc.  Preimages of an interior value w are the
roots of p - w q inside the disc, found as the eigenvalues of
``numpy.roots``'s companion matrix and polished by Newton iteration;
N(psi, w) then sums log(1/|z|) over them with multiplicity.  The boundary-approach statistic
maximizes |w|^2 N(sigma_phi(a) . phi . sigma_a, w) over a deterministic
w-grid with local stencil refinement around the argmax, for many points a
at once, and never lowers the composite: sigma_a and sigma_b are
involutions, so its preimages of w are sigma_a(z) for the roots z of
p - sigma_b(w) q.  The roots of all (point x w) rows come from the
quadratic formula when phi has degree <= 2, and otherwise from one
eigenvalue call on stacked companion matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import symbols as sym

DEGREE_CAP = 64

#: roots this close to the unit circle are flagged boundary-ambiguous
BOUNDARY_AMBIGUITY = 1e-8

#: a lowered denominator must have every root of modulus above 1 + this
POLE_CLEARANCE = 1e-9


class RationalFormError(ValueError):
    """Lowering failed: degree cap exceeded or poles touch the closed disc."""


def _trim(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return coeffs[: nz[-1] + 1]


@dataclass(frozen=True)
class RationalForm:
    """p/q with ascending coefficient tuples; q zero-free on the closed disc."""

    num: tuple
    den: tuple

    def __post_init__(self):
        num = tuple(complex(c) for c in _trim(np.asarray(self.num, dtype=complex)))
        den = tuple(complex(c) for c in _trim(np.asarray(self.den, dtype=complex)))
        if den == (0j,):
            raise RationalFormError("zero denominator")
        if len(num) - 1 > DEGREE_CAP or len(den) - 1 > DEGREE_CAP:
            raise RationalFormError(
                f"degree cap {DEGREE_CAP} exceeded: deg p = {len(num) - 1}, deg q = {len(den) - 1}")
        scale = max(max(abs(c) for c in num), max(abs(c) for c in den))
        if scale == 0:
            scale = 1.0
        num = tuple(c / scale for c in num)
        den = tuple(c / scale for c in den)
        # top coefficients below 1e-13 of the largest, as ``preimages`` drops
        # them, only carry roots far outside the disc, but left in they
        # scale the companion matrix so that the other roots are lost
        mods = np.abs(den)
        den_top = int(np.nonzero(mods >= 1e-13 * max(mods))[0][-1]) + 1
        if den_top > 1:
            roots = np.roots(np.asarray(den[:den_top][::-1]))
            if len(roots) and float(np.min(np.abs(roots))) <= 1.0 + POLE_CLEARANCE:
                raise RationalFormError(
                    f"denominator root of modulus {float(np.min(np.abs(roots)))} inside the closed disc")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        return npoly.polyval(z, np.asarray(self.num)) / npoly.polyval(z, np.asarray(self.den))

    def at_zero(self) -> complex:
        return complex(self.num[0] / self.den[0])


def _compose_fractions(po, qo, pi, qi):
    """(po/qo) . (pi/qi) via homogenization with qi^deg."""
    po, qo, pi, qi = (np.asarray(c, dtype=complex) for c in (po, qo, pi, qi))
    d = max(len(po), len(qo)) - 1
    qi_pows = [np.array([1 + 0j])]
    pi_pows = [np.array([1 + 0j])]
    for _ in range(d):
        qi_pows.append(npoly.polymul(qi_pows[-1], qi))
        pi_pows.append(npoly.polymul(pi_pows[-1], pi))
    num = np.array([0j])
    den = np.array([0j])
    for j in range(d + 1):
        term = npoly.polymul(pi_pows[j], qi_pows[d - j])
        if j < len(po):
            num = npoly.polyadd(num, po[j] * term)
        if j < len(qo):
            den = npoly.polyadd(den, qo[j] * term)
    return num, den


def to_rational(phi: sym.Symbol) -> RationalForm:
    """Exact symbolic lowering of a symbol tree to a rational form."""
    if isinstance(phi, sym.Constant):
        return RationalForm((phi.value,), (1 + 0j,))
    if isinstance(phi, sym.Identity):
        return RationalForm((0j, 1 + 0j), (1 + 0j,))
    if isinstance(phi, sym.Polynomial):
        return RationalForm(phi.coefficients, (1 + 0j,))
    if isinstance(phi, sym.Moebius):
        return RationalForm((phi.a, -1 + 0j), (1 + 0j, -np.conj(phi.a)))
    if isinstance(phi, sym.Blaschke):
        num = np.array([phi.factor])
        den = np.array([1 + 0j])
        for w in phi.zeros:
            num = npoly.polymul(num, np.array([w, -1 + 0j]))
            den = npoly.polymul(den, np.array([1 + 0j, -np.conj(w)]))
        return RationalForm(tuple(num), tuple(den))
    if isinstance(phi, sym.Scale):
        inner = to_rational(phi.inner)
        return RationalForm(tuple(phi.factor * c for c in inner.num), inner.den)
    if isinstance(phi, sym.Compose):
        outer = to_rational(phi.outer)
        inner = to_rational(phi.inner)
        num, den = _compose_fractions(outer.num, outer.den, inner.num, inner.den)
        return RationalForm(tuple(num), tuple(den))
    raise RationalFormError(f"cannot lower symbol node {type(phi).__name__}")


# ---------------------------------------------------------------------------
# preimages and the counting function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preimages:
    roots: tuple            # interior roots, multiplicity = repetition
    boundary_ambiguous: bool
    residual: float         # worst polished |F(z)| / scale


#: companion-matrix entries per ``eigvals`` call of ``_polished_roots``
EIGVALS_BLOCK = 2 ** 20

#: most Newton steps ``_polished_roots`` takes on a row
POLISH_STEPS = 40


def _polished_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of equal-degree polynomials, one row of ascending
    coefficients each, the leading one nonzero: ``numpy.roots``'s companion
    matrices stacked into one ``eigvals`` call (per ``EIGVALS_BLOCK``
    entries), then Newton steps on every row at once.  A row stops once its
    largest step is below 1e-16, so its roots do not depend on the other
    rows."""
    n, e = coeffs.shape[0], coeffs.shape[1] - 1
    z = np.empty((n, e), dtype=complex)
    block = max(1, EIGVALS_BLOCK // (e * e))
    for start in range(0, n, block):
        c = coeffs[start:start + block]
        comp = np.zeros((len(c), e, e), dtype=complex)
        comp[:, 0, :] = -c[:, -2::-1] / c[:, -1, None]
        comp[:, np.arange(1, e), np.arange(e - 1)] = 1.0
        z[start:start + block] = np.linalg.eigvals(comp)
    dcoeffs = coeffs[:, 1:] * np.arange(1, e + 1)
    active = np.arange(n)
    for _ in range(POLISH_STEPS):
        za = z[active]
        # tensor=False evaluates row i's polynomial at row i's roots only
        f = npoly.polyval(za, coeffs[active].T[..., None], tensor=False)
        df = npoly.polyval(za, dcoeffs[active].T[..., None], tensor=False)
        ok = np.abs(df) > 1e-300
        step = np.where(ok, f / np.where(ok, df, 1.0), 0.0)
        z[active] = za - step
        active = active[np.max(np.abs(step), axis=1) >= 1e-16]
        if len(active) == 0:
            break
    return z


def preimages(psi: RationalForm, w: complex) -> Preimages:
    """Disc preimages of w under psi, multiplicities included."""
    w = complex(w)
    coeffs = npoly.polysub(np.asarray(psi.num), w * np.asarray(psi.den))
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise RationalFormError("psi is identically w; preimage set is the whole disc")
    coeffs = coeffs / scale
    # drop trailing coefficients lost to cancellation before building the companion matrix
    top = len(coeffs)
    while top > 1 and abs(coeffs[top - 1]) < 1e-13:
        top -= 1
    coeffs = coeffs[:top]
    if len(coeffs) == 1:
        return Preimages((), False, 0.0)
    roots = _polished_roots(coeffs[None])[0]
    residual = float(np.max(np.abs(npoly.polyval(roots, coeffs)))) if len(roots) else 0.0
    mods = np.abs(roots)
    ambiguous = bool(np.any(np.abs(mods - 1.0) <= BOUNDARY_AMBIGUITY))
    inside = roots[mods < 1.0]
    order = np.lexsort((np.angle(inside), np.abs(inside)))
    return Preimages(tuple(complex(z) for z in inside[order]), ambiguous, residual)


def counting_function(psi: RationalForm, w: complex) -> float:
    """N(psi, w) = sum of log(1/|z|) over disc preimages of w.

    Requires 0 < |w| < 1 and w != psi(0) (where the sum would diverge).
    """
    w = complex(w)
    if not (0.0 < abs(w) < 1.0):
        raise ValueError(f"counting function needs 0 < |w| < 1, got |w| = {abs(w)}")
    if abs(psi.at_zero() - w) < 1e-14:
        raise ValueError("w coincides with psi(0); the counting function diverges there")
    pre = preimages(psi, w)
    return float(sum(-math.log(abs(z)) for z in pre.roots))


# ---------------------------------------------------------------------------
# the boundary-approach statistic
# ---------------------------------------------------------------------------

#: points per batch of the stacked S1 pass: 64 points x the 512-point w-grid
#: keeps each (points x w) temporary at 2^15 elements
S1_CHUNK = 64

#: rounds of the shrinking 9-point stencil that refine the grid argmax
S1_REFINE_ROUNDS = 3


def _quadratic_roots(c, b, a):
    """Both roots of c + b z + a z^2, elementwise, each from its stable
    formula; a root lost to a coefficient below 1e-13 is inf, and where
    b = c = 0 both roots are 0."""
    tiny = 1e-13
    lead_ok = np.abs(a) > tiny
    disc = np.sqrt(b * b - 4.0 * a * c)
    q = -0.5 * (b + np.where(np.real(np.conj(b) * disc) >= 0, disc, -disc))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(lead_ok, q / np.where(lead_ok, a, 1.0), np.inf)
        r2 = np.where(q != 0, c / np.where(q != 0, q, 1.0), 0.0)
        lin = np.where(np.abs(b) > tiny, -c / np.where(np.abs(b) > tiny, b, 1.0), np.inf)
    return np.where(lead_ok, r1, lin), np.where(lead_ok, r2, np.inf)


@functools.lru_cache(maxsize=1)
def default_w_grid() -> np.ndarray:
    """Deterministic grid covering 0 < |w| < 1: 32 angles on each of the
    radii 2^-k and 1 - 2^-k, k = 1..8.

    Built once and returned read-only, so no caller can change the cached
    grid.
    """
    radii = sorted({2.0 ** -k for k in range(1, 9)} | {1.0 - 2.0 ** -k for k in range(1, 9)})
    thetas = 2.0 * math.pi * np.arange(32) / 32
    grid = np.array([r * complex(math.cos(t), math.sin(t))
                     for r in radii for t in thetas])
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class S1Value:
    value: float
    argmax_w: complex
    flagged: bool           # some root was boundary-ambiguous


def _padded(form: RationalForm) -> np.ndarray:
    """p and q of a rational form as two coefficient rows of width
    degree + 1."""
    rows = np.zeros((2, form.degree + 1), dtype=complex)
    rows[0, : len(form.num)] = form.num
    rows[1, : len(form.den)] = form.den
    return rows


def _pullback_counts(lowered: RationalForm, points: np.ndarray, images: np.ndarray,
                     cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N(sigma_b . phi . sigma_a, w) for each point a (b = phi(a), given in
    ``images``) and each w in that point's row of ``cand``, with each
    point's flag, through the preimages of phi = p/q itself.

    sigma_a and sigma_b are involutions, so the composite's preimages of w
    are u = sigma_a(z) for the roots z of p - sigma_b(w) q, that is of
    (1 - conj(b) w) p - (b - w) q.  Each (point x w) row is scaled by its
    largest coefficient.  Rows of degree <= 2 take their roots from
    ``_quadratic_roots``, higher degrees from ``_polished_roots``; both lose
    a root to a top coefficient below 1e-13, as ``preimages`` does: where
    sigma_b(w) = phi(infinity) it sits at infinity and counts nothing.  A
    root counts log(1/|u|) when |u| < 1 and flags its point when ||u| - 1|
    is within ``BOUNDARY_AMBIGUITY``.
    """
    m, k = cand.shape
    p, q = _padded(lowered)
    b = images[:, None]
    u, v = 1.0 - np.conj(b) * cand, b - cand
    coeffs = [pj * u - qj * v for pj, qj in zip(p, q)]
    scale = functools.reduce(np.maximum, [np.abs(c) for c in coeffs])
    scale[scale == 0] = 1.0
    coeffs = [c / scale for c in coeffs]
    d = len(coeffs) - 1
    if d <= 2:
        z = np.stack(_quadratic_roots(*coeffs, *[0.0] * (2 - d)), axis=-1)[..., :d]
    else:
        rows = np.stack(coeffs, axis=-1).reshape(m * k, d + 1)
        kept = np.abs(rows) >= 1e-13
        degree = np.where(kept.any(axis=1), d - np.argmax(kept[:, ::-1], axis=1), 0)
        z = np.full((m * k, d), np.inf, dtype=complex)
        for e in np.unique(degree[degree > 0]):
            sel = degree == e
            z[sel, :e] = _polished_roots(rows[sel, : e + 1])
        z = z.reshape(m, k, d)
    a = points[:, None, None]
    finite = np.isfinite(z)
    z = np.where(finite, z, 0.0)
    mods = np.where(finite, np.abs(a - z) / np.abs(1.0 - np.conj(a) * z), np.inf)
    counts = -np.log(np.where(mods < 1.0, mods, 1.0)).sum(axis=-1)
    return counts, np.any(np.abs(mods - 1.0) <= BOUNDARY_AMBIGUITY, axis=(1, 2))


def _s1_chunk(phi: sym.Symbol, lowered: RationalForm, points: np.ndarray) -> list[S1Value]:
    """S1 at each point of one chunk, all points maximised together."""
    ws = default_w_grid()
    m = len(points)
    images = phi.eval(points)
    outside = ~((np.abs(points) < 1.0) & (np.abs(images) < 1.0))
    for a, b in zip(points[outside], images[outside]):
        sym.Moebius(complex(b))             # raises sigma_b's or sigma_a's SymbolError
        sym.Moebius(complex(a))

    def weighted_counts(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|w|^2 N(psi_i, w) for row i of the candidates, and each row's flag."""
        vals, flags = _pullback_counts(lowered, points, images, cand)
        return np.abs(cand) ** 2 * vals, flags

    rows = np.arange(m)
    vals, flagged = weighted_counts(np.broadcast_to(ws, (m, len(ws))))
    best = np.argmax(vals, axis=1)
    best_w, best_v = ws[best], vals[rows, best]
    dr = 0.25 * np.minimum(np.abs(best_w), 1.0 - np.abs(best_w))
    dt = math.pi / 32.0
    for _ in range(S1_REFINE_ROUNDS):
        cand = _stencils(best_w, dr, dt)
        cvals, cflag = weighted_counts(cand)
        flagged |= cflag
        k = np.argmax(cvals, axis=1)
        better = cvals[rows, k] > best_v
        best_v = np.where(better, cvals[rows, k], best_v)
        best_w = np.where(better, cand[rows, k], best_w)
        dr /= 3.0
        dt /= 3.0
    return [S1Value(float(v), complex(w), bool(f))
            for v, w, f in zip(best_v, best_w, flagged)]


def _stencils(centers: np.ndarray, dr: np.ndarray, dt: float) -> np.ndarray:
    """The 9-point polar stencil around each center, radius step dr[i] and
    angle step dt, one row per center.  numpy's abs, angle, cos and sin may
    differ from scalar ``math`` calls in the last bit; near a critical value
    of a higher-degree composite that moves S1 by up to about 1e-10."""
    steps = np.array([-1.0, 0.0, 1.0])
    radii = np.clip(np.abs(centers)[:, None] + np.repeat(steps, 3) * dr[:, None],
                    1e-9, 1.0 - 1e-9)
    angles = np.angle(centers)[:, None] + np.tile(steps, 3) * dt
    return radii * (np.cos(angles) + 1j * np.sin(angles))


def s1_statistics(phi: sym.Symbol, points) -> list[S1Value]:
    """sup over the w-grid of |w|^2 N(sigma_phi(a) . phi . sigma_a, w), for
    every a in ``points``.

    The composite fixes the origin, so the excluded base point is w = 0 and
    the grid (which avoids 0) is admissible.  Three rounds of a shrinking
    9-point stencil refine the grid argmax; ties break toward smaller
    (|w|, arg w) through the deterministic grid order.

    phi is lowered once to p/q, and the points are counted ``S1_CHUNK`` at a
    time over (points x w) through phi's own preimages
    (``_pullback_counts``); no composite is lowered.  A phi that does not
    lower raises its RationalFormError, whatever the points.
    """
    sym.certificate(phi)
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    lowered = to_rational(phi)
    out = []
    for start in range(0, len(points), S1_CHUNK):
        out += _s1_chunk(phi, lowered, points[start:start + S1_CHUNK])
    return out


def s1_statistic(phi: sym.Symbol, a: complex) -> S1Value:
    """S1 at one point: the one-point case of ``s1_statistics``."""
    return s1_statistics(phi, [complex(a)])[0]
