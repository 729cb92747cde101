"""H^2 norms and mean-oscillation machinery on the circle.

Everything is built on spectrally accurate equal-weight quadrature at roots
of unity.  The central quantity is the oscillation

    gamma(f, a) = || f . sigma_a - f(a) ||_{H^2},

computed two independent ways by the one pointwise kernel ``route_means``:
directly from samples of f . sigma_a, and after the change of variable as
the Poisson-weighted mean of |f - f(a)|^2.  With rho^2 in place of
|u - c|^2 the same kernel gives L(a) = gamma(sigma_phi(a) . phi, a).  The
dual-route residual is used as a free error indicator: grids double in the
one refinement loop ``symbols.refine`` until the two routes agree
(``agreed_routes``), and every swept maximum is re-checked at its argmax
that way (``_anchored_max``).  Suprema of gamma over finite point grids give
certified *lower* bounds for the BMOA seminorm; no finite grid can certify
the supremum from above, and estimates are flagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import symbols as sym
from .geometry import moebius, poisson_kernel
from .symbols import QuadratureError

MAX_GRID = 2 ** 20

#: the starting boundary grid of every quadrature
BASE_N = 4096

#: boundary grids are sized so that n * (1 - |a|) >= this decay exponent
POLE_CLEARANCE = 23.0

GAMMA_TOL = 1e-8


@dataclass(frozen=True)
class LinearCombination:
    """shift + sum of coeff * symbol; the affine span needed for test functions."""

    terms: tuple            # ((coeff, Symbol), ...)
    shift: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple((complex(c), phi) for c, phi in self.terms))
        object.__setattr__(self, "shift", complex(self.shift))

    def eval(self, z):
        scalar = np.isscalar(z) or isinstance(z, complex)
        arr = np.asarray(z, dtype=complex)
        out = np.full(arr.shape, self.shift, dtype=complex)
        for c, phi in self.terms:
            out = out + c * phi.eval(arr)
        return complex(out) if scalar and out.ndim == 0 else out


def sample_boundary(f, n: int) -> np.ndarray:
    """Boundary samples at the n-th roots of unity (cached for symbols).

    No self-map gate here: the H^2 layer handles arbitrary bounded
    analytic functions, not only disc self-maps.
    """
    if isinstance(f, sym.Symbol):
        return sym.raw_boundary_values(f, n)
    return np.asarray(f.eval(sym.roots_of_unity(n)), dtype=complex)


def grid_size_for(a: complex, base: int) -> int:
    """Power-of-two grid size clearing the Poisson pole at a.

    The smallest power of two n >= max(base, 64) with n (1 - |a|) >=
    POLE_CLEARANCE, capped at MAX_GRID.
    """
    gap = 1.0 - abs(a)
    need = max(float(base), POLE_CLEARANCE / max(gap, 1e-9))
    n = 64
    while n < need:
        n *= 2
    return min(n, MAX_GRID)


def _h2_settled(prev, cur) -> bool:
    return prev is not None and abs(cur - prev) <= 1e-12 * (1.0 + cur)


def h2_norm(f) -> float:
    """Hardy-space norm of a Symbol or any boundary function, from its
    boundary samples.

    The grid doubles from BASE_N until the value stabilizes; QuadratureError
    is raised when it has not by 2^18.
    """
    return sym.refined("H^2 norm",
                       lambda n: float(np.sqrt(np.mean(np.abs(sample_boundary(f, n)) ** 2))),
                       BASE_N, 2 ** 18, _h2_settled)


def h2_norm_coefficients(phi: sym.Symbol) -> float:
    """Coefficient route sqrt(sum |c_k|^2); doubles the order until stable,
    and raises QuadratureError when it has not by order 2^17."""
    return sym.refined("H^2 norm coefficients",
                       lambda m: float(np.sqrt(np.sum(np.abs(sym.taylor(phi, m)) ** 2))),
                       255, 2 ** 17, _h2_settled)


def modulus2(u, c):
    """|u - c|^2, the integrand of gamma."""
    return np.abs(u - c) ** 2


def route_means(f, a: complex, center: complex, dist2, n: int) -> tuple[float, float]:
    """The pair (mean of ``dist2(f(sigma_a zeta), center)``, mean of
    ``dist2(f(zeta), center)`` times the Poisson kernel P_a(zeta)) over the
    n-th roots of unity zeta: the direct and the Poisson route to one
    integral, related by the change of variable zeta -> sigma_a(zeta)."""
    zeta = sym.roots_of_unity(n)
    direct = float(np.mean(dist2(f.eval(moebius(a, zeta)), center)))
    weighted = dist2(sample_boundary(f, n), center) * poisson_kernel(a, zeta)
    return direct, float(np.mean(weighted))


def agreed_routes(what: str, f, a: complex, center: complex, dist2,
                  base_n: int) -> tuple[float, float]:
    """The square roots of ``route_means`` on the first grid from
    ``grid_size_for(a, base_n)`` on where the two agree within GAMMA_TOL;
    disagreement at MAX_GRID raises QuadratureError naming ``what`` and a."""

    def evaluate(n):
        direct, poisson = route_means(f, a, center, dist2, n)
        return math.sqrt(direct), math.sqrt(max(poisson, 0.0))

    (direct, poisson), n, agreed = sym.refine(
        evaluate, grid_size_for(a, base_n), MAX_GRID,
        lambda prev, cur: abs(cur[0] - cur[1]) <= GAMMA_TOL)
    if not agreed:
        raise QuadratureError(
            f"{what} routes disagree by {abs(direct - poisson):.3e} at n = {n}, "
            f"a = {a!r}", direct=direct, poisson=poisson, n=n, point=a)
    return direct, poisson


def garsia_gamma(f, a: complex, n: int = BASE_N) -> float:
    """gamma(f, a) with the dual-route agreement guarantee.

    Route one samples f . sigma_a directly; route two integrates
    |f - f(a)|^2 against the Poisson kernel.  Grids double until the two
    square roots agree within GAMMA_TOL; disagreement at the cap raises
    QuadratureError carrying both values (``agreed_routes``).
    """
    a = complex(a)
    return agreed_routes("gamma", f, a, complex(f.eval(a)), modulus2, n)[0]


def ring_grid(radii: Sequence[float], angles: int) -> np.ndarray:
    """Points r e^{2 pi i j / angles}, one row per radius r."""
    thetas = np.exp(2j * math.pi * np.arange(angles) / angles)
    return np.asarray(radii, dtype=float)[:, None] * thetas


def _standard_radii(depth: int) -> np.ndarray:
    return 1.0 - 2.0 ** -np.arange(1, depth + 1)


def standard_grid(depth: int = 12, angles: int = 64) -> np.ndarray:
    """Geometric radii 1 - 2^-k (k = 1..depth) times equispaced angles."""
    if depth < 1 or angles < 1:
        raise ValueError("grid needs depth >= 1 and angles >= 1")
    return ring_grid(_standard_radii(depth), angles).ravel()


@dataclass(frozen=True)
class SeminormEstimate:
    """A certified lower bound for sup_a gamma(f, a)."""

    value: float
    grid: str               # human-readable description of the a-sample set
    lower_bound: bool
    argmax: complex


#: a boundary grid of n points resolves the spectrum of |f|^2 when every
#: Fourier coefficient with |k| >= n/4 is at most this multiple of c_0
SPECTRUM_TAIL = 1e-15

#: elements per chunk of the dense Poisson sweeps (rows x boundary grid).  It
#: bounds the memory of a chunk's temporaries (several MiB, more than a
#: core's L2 cache) and amortizes the per-chunk overhead; 2^15 and 2^16 were
#: measured slower and 2^18 no faster
SWEEP_CHUNK = 2 ** 17


def poisson_sweep(points: np.ndarray, centers: np.ndarray, boundary, dist2,
                  base_n: int) -> np.ndarray:
    """sqrt of the Poisson mean of ``dist2(boundary(zeta), c)`` at every a in
    ``points``, where c is the matching entry of ``centers``.

    ``boundary`` is the function whose boundary samples enter the mean.
    Points are grouped by the grid size their radius demands; each group is
    processed in chunks of ``SWEEP_CHUNK`` elements to bound memory.
    """
    out = np.empty(len(points))
    sizes = np.array([grid_size_for(a, base_n) for a in points])
    for size in np.unique(sizes):
        idx = np.nonzero(sizes == size)[0]
        fv = sample_boundary(boundary, int(size))
        zeta = sym.roots_of_unity(int(size))
        rows = max(1, int(SWEEP_CHUNK // size))
        for start in range(0, len(idx), rows):
            sel = idx[start:start + rows]
            aa = points[sel][:, None]
            # the Poisson factor (1 - |a|^2) / |zeta - a|^2, in place
            pk = np.abs(zeta[None, :] - aa)
            np.square(pk, out=pk)
            np.divide(1.0 - np.abs(aa) ** 2, pk, out=pk)
            pk *= dist2(fv[None, :], centers[sel][:, None])
            out[sel] = np.sqrt(np.maximum(np.mean(pk, axis=1), 0.0))
    return out


def poisson_gamma_sweep(f, points: np.ndarray, base_n: int = BASE_N) -> np.ndarray:
    """Poisson-route gamma(f, a) for every a in ``points`` (vectorized)."""
    points = np.asarray(points, dtype=complex)
    return poisson_sweep(points, np.asarray(f.eval(points), dtype=complex), f,
                         modulus2, base_n)


def ring_gamma_sweep(f, radii: Sequence[float], angles: int,
                     base_n: int = BASE_N) -> np.ndarray:
    """gamma(f, a) at every point of ``ring_grid(radii, angles)``, ring by ring.

    Uses the Garsia identity gamma(f, a)^2 = P[|f|^2](a) - |f(a)|^2.  On a
    ring |a| = r the Poisson integral is a convolution: the Fourier
    coefficients of |f|^2 on the boundary grid, weighted by r^|k| and folded
    by k mod ``angles``, give P[|f|^2] at every angle of the ring through one
    inverse FFT of length ``angles``.  One FFT of |f|^2 serves every ring
    that needs the same grid size (``grid_size_for``), taken in ascending
    order.  The weights r^|k| are applied exactly, so the grid only has to
    resolve the spectrum of |f|^2: once a grid's spectrum is resolved (see
    ``SPECTRUM_TAIL``) it serves every remaining ring, and no larger grid
    is sampled.  The subtraction cancels where gamma is small next to
    |f(a)|, so callers anchor the maximum with ``garsia_gamma``.  Returns
    shape (len(radii), angles).
    """
    radii = np.asarray(radii, dtype=float)
    points = ring_grid(radii, angles)
    fa = np.asarray(f.eval(points), dtype=complex)
    modulus2 = fa.real ** 2 + fa.imag ** 2
    out = np.empty(points.shape)
    sizes = np.array([grid_size_for(r, base_n) for r in radii])
    for size in np.unique(sizes):
        n = int(size)
        fv = sample_boundary(f, n)
        coeffs = np.fft.fft(fv.real ** 2 + fv.imag ** 2, norm="forward")
        freqs = np.fft.fftfreq(n, 1.0 / n)          # k in [-n/2, n/2)
        folds = freqs.astype(np.int64) % angles
        tail = np.abs(coeffs[np.abs(freqs) >= n // 4])
        resolved = bool(np.all(tail <= SPECTRUM_TAIL * coeffs[0].real))
        for i in np.nonzero(sizes >= size if resolved else sizes == size)[0]:
            weighted = coeffs * radii[i] ** np.abs(freqs)
            folded = (np.bincount(folds, weighted.real, angles)
                      + 1j * np.bincount(folds, weighted.imag, angles))
            poisson = np.fft.ifft(folded, norm="forward").real
            out[i] = np.sqrt(np.maximum(poisson - modulus2[i], 0.0))
        if resolved:
            break
    return out


def _anchored_max(evaluate, values: np.ndarray,
                  points: np.ndarray) -> tuple[float, complex]:
    """The largest swept value and its point, re-evaluated there by the
    dual-route ``evaluate(a)``; the sweep's value stands when the
    re-evaluation is lower by at most GAMMA_TOL."""
    k = int(np.argmax(values))
    a = complex(points[k])
    return max(evaluate(a), float(values[k]) - GAMMA_TOL), a


def bmoa_seminorm(f, depth: int = 12, angles: int = 64, base_n: int = BASE_N,
                  extra_points: Sequence[complex] = ()) -> SeminormEstimate:
    """Lower-bound estimate of the BMOA seminorm over the standard grid.

    Every ring is swept at once by ``ring_gamma_sweep``; any
    ``extra_points`` go through the pointwise ``poisson_gamma_sweep``.  The
    winning point is then re-evaluated with the dual-route gamma so the
    reported maximum carries the agreement guarantee.
    """
    grid = standard_grid(depth, angles)
    values = ring_gamma_sweep(f, _standard_radii(depth), angles, base_n).ravel()
    desc = f"standard grid depth={depth} angles={angles}"
    extra = np.asarray(extra_points, dtype=complex)
    if len(extra):
        grid = np.concatenate([grid, extra])
        values = np.concatenate([values, poisson_gamma_sweep(f, extra, base_n)])
        desc += f" plus {len(extra)} points"
    best, argmax = _anchored_max(lambda a: garsia_gamma(f, a, base_n), values, grid)
    return SeminormEstimate(best, desc, True, argmax)


def vmoa_profile(f, radii: Sequence[float],
                 angular_count: int = 64) -> list[tuple[float, float]]:
    """Per-radius angular maxima of gamma(f, a); decay to 0 signals VMOA.

    All rings are swept at once by ``ring_gamma_sweep``; each ring's maximum
    is then anchored by the dual-route ``garsia_gamma``.
    """
    for r in radii:
        if not (0.0 < r < 1.0):
            raise ValueError(f"profile radii must lie in (0, 1), got {r}")
    values = ring_gamma_sweep(f, radii, angular_count)
    rings = ring_grid(radii, angular_count)
    return [(float(r), _anchored_max(lambda a: garsia_gamma(f, a), vals, ring)[0])
            for r, vals, ring in zip(radii, values, rings)]
