"""Nevanlinna counting function for rational self-maps.

Every supported symbol tree lowers exactly to a rational function p/q with
no poles on the closed disc.  Preimages of an interior value w are the
roots of p - w q inside the disc, found by companion-matrix eigenvalues
(``numpy.roots``) and polished by Newton iteration; N(psi, w) then sums
log(1/|z|) over them with multiplicity.  The boundary-approach statistic
maximizes |w|^2 N(sigma_phi(a) . phi . sigma_a, w) over a deterministic
w-grid with local stencil refinement around the argmax, for many points a
at once: for degree <= 2 the composites are stacked coefficient rows and
N has a closed form.
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
        if len(den) > 1:
            roots = np.roots(np.asarray(den[::-1]))
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


def _newton_polish(coeffs: np.ndarray, roots: np.ndarray, steps: int = 40) -> np.ndarray:
    dcoeffs = npoly.polyder(coeffs)
    z = roots.copy()
    for _ in range(steps):
        f = npoly.polyval(z, coeffs)
        df = npoly.polyval(z, dcoeffs)
        ok = np.abs(df) > 1e-300
        step = np.where(ok, f / np.where(ok, df, 1.0), 0.0)
        z = z - step
        if float(np.max(np.abs(step))) < 1e-16:
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
    roots = np.roots(coeffs[::-1])
    roots = _newton_polish(coeffs, roots)
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

#: stacked rows whose smallest denominator root lies within this of
#: RationalForm's closed-disc test are lowered point by point, so that its
#: own check decides them; the margin covers the ~sqrt(eps) spread that root
#: finders show on a double pole such as (1 - conj(a) z)^2, on either side
POLE_MARGIN = 5e-8


def _quadratic_roots(c, b, a):
    """Both roots of c + b z + a z^2, elementwise, each from its stable
    formula; a root lost to a coefficient below 1e-13 is inf."""
    tiny = 1e-13
    lead_ok = np.abs(a) > tiny
    disc = np.sqrt(b * b - 4.0 * a * c)
    q = -0.5 * (b + np.where(np.real(np.conj(b) * disc) >= 0, disc, -disc))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(lead_ok, q / np.where(lead_ok, a, 1.0), np.inf)
        r2 = np.where(np.abs(q) > tiny, c / np.where(np.abs(q) > tiny, q, 1.0), np.inf)
        lin = np.where(np.abs(b) > tiny, -c / np.where(np.abs(b) > tiny, b, 1.0), np.inf)
    return np.where(lead_ok, r1, lin), np.where(lead_ok, r2, np.inf)


def _closed_form_counts(num: np.ndarray, den: np.ndarray,
                        ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N(p/q, w) for degree <= 2, one row per rational form.

    ``num`` and ``den`` hold ascending coefficients, one row per form,
    padded to a common width of at most 3; ``ws`` is an array of w values,
    either shared by every row or one row of w values per form.  Returns
    the counts (forms x w) and, per form, whether some root was
    boundary-ambiguous.
    """
    deg = num.shape[1] - 1
    c = num[:, 0, None] - ws * den[:, 0, None]
    b = (num[:, 1, None] - ws * den[:, 1, None]) if deg >= 1 else np.zeros_like(c)
    a = (num[:, 2, None] - ws * den[:, 2, None]) if deg >= 2 else np.zeros_like(c)
    mods = np.abs(np.stack(_quadratic_roots(c, b, a)))
    ambiguous = np.any(np.abs(mods - 1.0) <= BOUNDARY_AMBIGUITY, axis=(0, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(mods < 1.0, -np.log(np.where(mods > 0, mods, 1.0)), 0.0)
    return logs.sum(axis=0), ambiguous


def _counting_batch(psi: RationalForm, ws: np.ndarray) -> tuple[np.ndarray, bool]:
    """N(psi, w) for an array of w; closed forms for degree <= 2."""
    width = max(len(psi.num), len(psi.den))
    if width <= 3:
        num = np.zeros((1, width), dtype=complex)
        den = np.zeros((1, width), dtype=complex)
        num[0, : len(psi.num)] = psi.num
        den[0, : len(psi.den)] = psi.den
        values, ambiguous = _closed_form_counts(num, den, ws)
        return values[0], bool(ambiguous[0])
    values = np.empty(len(ws))
    ambiguous = False
    for i, w in enumerate(ws):
        pre = preimages(psi, complex(w))
        ambiguous = ambiguous or pre.boundary_ambiguous
        values[i] = sum(-math.log(abs(z)) for z in pre.roots)
    return values, ambiguous


@functools.lru_cache(maxsize=8)
def default_w_grid(radial_depth: int = 8, angles: int = 32) -> np.ndarray:
    """Deterministic grid covering 0 < |w| < 1: radii 2^-k and 1 - 2^-k.

    Built once per shape and returned read-only, so no caller can change
    the cached grid.
    """
    radii = sorted({2.0 ** -k for k in range(1, radial_depth + 1)}
                   | {1.0 - 2.0 ** -k for k in range(1, radial_depth + 1)})
    thetas = 2.0 * math.pi * np.arange(angles) / angles
    grid = np.array([r * complex(math.cos(t), math.sin(t))
                     for r in radii for t in thetas])
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class S1Value:
    value: float
    argmax_w: complex
    flagged: bool           # some root was boundary-ambiguous


def _composite_form(phi: sym.Symbol, a: complex) -> RationalForm:
    """sigma_phi(a) . phi . sigma_a lowered as one symbol tree (the per-point
    path: any degree, and every error RationalForm raises)."""
    b = complex(phi.eval(a))
    return to_rational(sym.Compose(sym.Moebius(b), sym.Compose(phi, sym.Moebius(a))))


def _times_linear(rows: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Coefficient rows times (c0 + c1 z), one factor per row."""
    out = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=complex)
    out[:, :-1] = rows * c0[:, None]
    out[:, 1:] += rows * c1[:, None]
    return out


def _normalized(num: np.ndarray, den: np.ndarray):
    """RationalForm's scale normalisation row by row (rows of width <= 3),
    plus the smallest denominator root modulus of each row (inf when the
    row is constant)."""
    scale = np.maximum(np.max(np.abs(num), axis=1), np.max(np.abs(den), axis=1))
    scale = np.where(scale == 0, 1.0, scale)[:, None]
    num, den = num / scale, den / scale
    coeffs = np.zeros((3, len(den)), dtype=complex)
    coeffs[: den.shape[1]] = den.T
    r1, r2 = _quadratic_roots(*coeffs)
    return num, den, np.minimum(np.abs(r1), np.abs(r2))


def _stacked_composites(lowered: RationalForm, points: np.ndarray, images: np.ndarray):
    """Coefficient rows of sigma_b . phi . sigma_a for every point a with
    b = phi(a), phi = p/q of degree d <= 2 lowered once.

    Homogenising with (1 - conj(a) z)^d, as ``_compose_fractions`` does,
    gives p(sigma_a) -> sum_j p_j (a - z)^j (1 - conj(a) z)^(d - j); the outer
    sigma_b then maps (P, Q) to (b Q - P, Q - conj(b) P).  Both stages are
    scale-normalised like RationalForm.  Returns (num, den, ok): rows with
    ok False fail, or nearly fail, a check of the per-point lowering and
    must be lowered point by point.
    """
    d = lowered.degree
    p = np.zeros(d + 1, dtype=complex)
    q = np.zeros(d + 1, dtype=complex)
    p[: len(lowered.num)] = lowered.num
    q[: len(lowered.den)] = lowered.den
    ones = np.ones(len(points), dtype=complex)
    basis = np.empty((len(points), d + 1, d + 1), dtype=complex)
    for j in range(d + 1):
        row = ones[:, None]
        for _ in range(j):
            row = _times_linear(row, points, -ones)
        for _ in range(d - j):
            row = _times_linear(row, ones, -np.conj(points))
        basis[:, j] = row
    inner_num, inner_den, inner_root = _normalized(p @ basis, q @ basis)
    b = images[:, None]
    num, den, root = _normalized(b * inner_den - inner_num, inner_den - np.conj(b) * inner_num)
    edge = 1.0 + POLE_CLEARANCE + POLE_MARGIN
    # the Moebius factors' own poles 1/conj(a), 1/conj(b) must clear the disc too
    ok = ((np.maximum(np.abs(points), np.abs(images)) * edge < 1.0)
          & (inner_root > edge) & (root > edge))
    return num, den, ok


def _s1_chunk(phi: sym.Symbol, lowered: RationalForm | None,
              points: np.ndarray) -> list[S1Value]:
    """S1 at each point of one chunk, all points maximised together."""
    ws = default_w_grid()
    m = len(points)
    batched = np.zeros(m, dtype=bool)
    if lowered is not None:
        num, den, batched = _stacked_composites(lowered, points, phi.eval(points))
        num, den = num[batched], den[batched]
    forms = {i: _composite_form(phi, complex(points[i])) for i in np.nonzero(~batched)[0]}

    def weighted_counts(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|w|^2 N(psi_i, w) for row i of the candidates, and each row's flag."""
        vals = np.empty(cand.shape)
        flags = np.zeros(m, dtype=bool)
        if np.any(batched):
            vals[batched], flags[batched] = _closed_form_counts(num, den, cand[batched])
        for i, psi in forms.items():
            vals[i], flags[i] = _counting_batch(psi, cand[i])
        return np.abs(cand) ** 2 * vals, flags

    rows = np.arange(m)
    vals, flagged = weighted_counts(np.broadcast_to(ws, (m, len(ws))))
    best = np.argmax(vals, axis=1)
    best_w, best_v = ws[best], vals[rows, best]
    dr = [0.25 * min(abs(w), 1.0 - abs(w)) for w in best_w.tolist()]
    dt = math.pi / 32.0
    for _ in range(S1_REFINE_ROUNDS):
        cand = _stencils(best_w, dr, dt)
        cvals, cflag = weighted_counts(cand)
        flagged |= cflag
        k = np.argmax(cvals, axis=1)
        better = cvals[rows, k] > best_v
        best_v = np.where(better, cvals[rows, k], best_v)
        best_w = np.where(better, cand[rows, k], best_w)
        dr = [step / 3.0 for step in dr]
        dt /= 3.0
    return [S1Value(float(v), complex(w), bool(f))
            for v, w, f in zip(best_v, best_w, flagged)]


def _stencils(centers: np.ndarray, dr: list, dt: float) -> np.ndarray:
    """The 9-point polar stencil around each center, radius step dr[i] and
    angle step dt, one row per center.  Built with Python's scalar abs,
    atan2, cos and sin: the counting function of a higher-degree composite
    can move by 1e-10 under a one-ulp shift of w near a critical value."""
    out = []
    for w, step in zip(centers.tolist(), dr):
        r0, t0 = abs(w), math.atan2(w.imag, w.real)
        out.append([min(max(r0 + i * step, 1e-9), 1.0 - 1e-9)
                    * complex(math.cos(t0 + j * dt), math.sin(t0 + j * dt))
                    for i in (-1, 0, 1) for j in (-1, 0, 1)])
    return np.array(out)


def s1_statistics(phi: sym.Symbol, points) -> list[S1Value]:
    """sup over the w-grid of |w|^2 N(sigma_phi(a) . phi . sigma_a, w), for
    every a in ``points``.

    The composite fixes the origin, so the excluded base point is w = 0 and
    the grid (which avoids 0) is admissible.  Three rounds of a shrinking
    9-point stencil refine the grid argmax; ties break toward smaller
    (|w|, arg w) through the deterministic grid order.

    When phi lowers to degree <= 2, phi is lowered once and the composites
    of all points are built as stacked coefficient rows and counted in
    closed form over (points x w), ``S1_CHUNK`` points at a time.  Higher
    degrees, and rows at the edge of a lowering check, are lowered point by
    point and counted through ``preimages``.
    """
    sym.certificate(phi)
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    try:
        lowered = to_rational(phi)
    except RationalFormError:
        lowered = None      # each point's lowering raises it, as for any degree
    if lowered is not None and lowered.degree > 2:
        lowered = None
    out = []
    for start in range(0, len(points), S1_CHUNK):
        out += _s1_chunk(phi, lowered, points[start:start + S1_CHUNK])
    return out


def s1_statistic(phi: sym.Symbol, a: complex) -> S1Value:
    """S1 at one point: the one-point case of ``s1_statistics``."""
    return s1_statistics(phi, [complex(a)])[0]
