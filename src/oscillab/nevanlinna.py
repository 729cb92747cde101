"""Nevanlinna counting function for rational self-maps.

Every supported symbol tree lowers exactly to a rational function p/q with
no poles on the closed disc.  Preimages of an interior value w are the
roots of p - w q inside the disc, found by companion-matrix eigenvalues
(``numpy.roots``) and polished by Newton iteration; N(psi, w) then sums
log(1/|z|) over them with multiplicity.  The boundary-approach statistic
maximizes |w|^2 N(sigma_phi(a) . phi . sigma_a, w) over a deterministic
w-grid with local stencil refinement around the argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import symbols as sym

DEGREE_CAP = 64

#: roots this close to the unit circle are flagged boundary-ambiguous
BOUNDARY_AMBIGUITY = 1e-8


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
            if len(roots) and float(np.min(np.abs(roots))) <= 1.0 + 1e-9:
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

def _counting_batch(psi: RationalForm, ws: np.ndarray) -> tuple[np.ndarray, bool]:
    """N(psi, w) for an array of w; closed forms for degree <= 2."""
    num = np.asarray(psi.num)
    den = np.zeros(max(len(psi.num), len(psi.den)), dtype=complex)
    den[: len(psi.den)] = psi.den
    num_p = np.zeros_like(den)
    num_p[: len(num)] = num
    deg = len(den) - 1
    if deg <= 2:
        c = num_p[0] - ws * den[0]
        b = (num_p[1] - ws * den[1]) if deg >= 1 else np.zeros_like(ws)
        a = (num_p[2] - ws * den[2]) if deg >= 2 else np.zeros_like(ws)
        roots = []
        tiny = 1e-13
        lead_ok = np.abs(a) > tiny
        disc = np.sqrt(b * b - 4.0 * a * c)
        q = -0.5 * (b + np.where(np.real(np.conj(b) * disc) >= 0, disc, -disc))
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(lead_ok, q / np.where(lead_ok, a, 1.0), np.inf)
            r2 = np.where(np.abs(q) > tiny, c / np.where(np.abs(q) > tiny, q, 1.0), np.inf)
            lin = np.where(np.abs(b) > tiny, -c / np.where(np.abs(b) > tiny, b, 1.0), np.inf)
        r1 = np.where(lead_ok, r1, lin)
        r2 = np.where(lead_ok, r2, np.inf)
        roots = np.stack([r1, r2])
        mods = np.abs(roots)
        ambiguous = bool(np.any(np.abs(mods - 1.0) <= BOUNDARY_AMBIGUITY))
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(mods < 1.0, -np.log(np.where(mods > 0, mods, 1.0)), 0.0)
        return logs.sum(axis=0), ambiguous
    values = np.empty(len(ws))
    ambiguous = False
    for i, w in enumerate(ws):
        pre = preimages(psi, complex(w))
        ambiguous = ambiguous or pre.boundary_ambiguous
        values[i] = sum(-math.log(abs(z)) for z in pre.roots)
    return values, ambiguous


def default_w_grid(radial_depth: int = 8, angles: int = 32) -> np.ndarray:
    """Deterministic grid covering 0 < |w| < 1: radii 2^-k and 1 - 2^-k."""
    radii = sorted({2.0 ** -k for k in range(1, radial_depth + 1)}
                   | {1.0 - 2.0 ** -k for k in range(1, radial_depth + 1)})
    thetas = 2.0 * math.pi * np.arange(angles) / angles
    grid = np.array([r * complex(math.cos(t), math.sin(t))
                     for r in radii for t in thetas])
    return grid


@dataclass(frozen=True)
class S1Value:
    value: float
    argmax_w: complex
    flagged: bool           # some root was boundary-ambiguous


def s1_statistic(phi: sym.Symbol, a: complex, w_grid: np.ndarray | None = None,
                 refine_rounds: int = 3) -> S1Value:
    """sup over the w-grid of |w|^2 N(sigma_phi(a) . phi . sigma_a, w).

    The composite fixes the origin, so the excluded base point is w = 0 and
    the grid (which avoids 0) is admissible.  Three rounds of a shrinking
    9-point stencil refine the grid argmax; ties break toward smaller
    (|w|, arg w) through the deterministic grid order.
    """
    sym.certificate(phi)
    a = complex(a)
    b = complex(phi.eval(a))
    composite = sym.Compose(sym.Moebius(b), sym.Compose(phi, sym.Moebius(a)))
    psi = to_rational(composite)
    ws = default_w_grid() if w_grid is None else np.asarray(w_grid, dtype=complex)
    vals, flagged = _counting_batch(psi, ws)
    vals = np.abs(ws) ** 2 * vals
    best = int(np.argmax(vals))
    best_w, best_v = complex(ws[best]), float(vals[best])
    dr, dt = 0.25 * min(abs(best_w), 1.0 - abs(best_w)), math.pi / 32.0
    for _ in range(refine_rounds):
        r0, t0 = abs(best_w), math.atan2(best_w.imag, best_w.real)
        cand = []
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                r = min(max(r0 + i * dr, 1e-9), 1.0 - 1e-9)
                cand.append(r * complex(math.cos(t0 + j * dt), math.sin(t0 + j * dt)))
        cand = np.asarray(cand)
        cvals, cflag = _counting_batch(psi, cand)
        cvals = np.abs(cand) ** 2 * cvals
        flagged = flagged or cflag
        k = int(np.argmax(cvals))
        if float(cvals[k]) > best_v:
            best_v, best_w = float(cvals[k]), complex(cand[k])
        dr /= 3.0
        dt /= 3.0
    return S1Value(best_v, best_w, flagged)
