"""Compactness statistics for composition operators and their sweep profiles.

The normalized composite sigma_phi(a) . phi . sigma_a is the common thread:
its H^2 norm, the boundary-approach statistic L(a), is the oscillation
gamma(sigma_phi(a) . phi, a).  It runs on hardy's one dual-route kernel
(``hardy.route_means`` under ``hardy.agreed_routes``) with the
pseudo-hyperbolic rho^2 as integrand, so this module does no boundary
quadrature of its own; the swept maxima of L and VMOA-iii are re-checked
by the same anchor rule as every seminorm sweep (``hardy._anchored_max``).
``composite_norm_routes`` checks both routes against the sum of the
composite's squared Taylor coefficients in closed form.  Around
it sit the arc-average reformulations (single and double, pseudo-hyperbolic
or capped-hyperbolic metric), the power statistic |phi^n|_*, the
shifted-seminorm statistic |sigma_b . phi|_*, the level-set measure
statistic, and the counting statistic from :mod:`oscillab.nevanlinna`.

Profiles sweep each statistic along its boundary-approach ladder.  Level
sets that are empty because the symbol's modulus never reaches the level
are *vacuously* vanishing (the underlying quantifier ranges over the whole
disc and is satisfied emptily); level sets the finite grid merely fails to
populate are dropped from the profile and recorded as unresolved.
Verdicts look at the final ladder values plus a monotone-decay check of
the tail, and the equivalence family {L, S1, A-double, A-prime, W2} must
agree; disagreement is reported as an inconsistency, which the CLI turns
into exit code 3.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import hardy
from . import nevanlinna as nev
from . import symbols as sym
from .geometry import (DEFAULT_TAU_CAP, Arc, arc_sample_points, center_of, moebius, rho,
                       rho_parts, tau_capped)

STRICT_FAMILY = ("L", "S1", "A-double", "A-prime", "W2")

#: the measure statistic's thresholds are t_k = 1 - 2^-k for k = S2_LEVEL_START..depth
S2_LEVEL_START = 4

#: midpoint-rule samples per arc of the arc averages
ARC_SAMPLES = 128

#: boundary grid of the level-set measure statistic
S2_BOUNDARY_N = 8192


class ConfigError(ValueError):
    """Invalid sweep settings, sweep configuration or CLI input."""


#: the deepest ladder (levels 1 - 2^-k, k <= depth) a sweep or the gallery accepts
MAX_DEPTH = 24


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A real number in the float range: NaN, the infinities and integers
    beyond the float range fail."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and -sys.float_info.max <= x <= sys.float_info.max)


#: the check each scalar field must pass, by its declared type
_TYPE_CHECKS = {"int": _is_int, "float": _is_real, "str": lambda x: isinstance(x, str),
                "bool": lambda x: isinstance(x, bool),
                "tuple": lambda x: isinstance(x, (list, tuple))}


@dataclass(frozen=True)
class SweepSettings:
    """Grid geometry, ladders and thresholds shared by all profiles.

    Every field is checked on construction, its type by the declared type
    (a subclass's fields too) and its range below; a bad value raises
    ConfigError.
    """

    depth: int = 12             # ladder levels s_k = 1 - 2^-k, k <= depth
    angles: int = 64            # angular resolution of the a-grid
    base_n: int = hardy.BASE_N  # starting boundary grid for quadratures
    arc_samples: int = ARC_SAMPLES
    epsilon: float = 0.15       # "vanishing" final-level threshold
    delta: float = 0.1          # "bounded below" threshold
    s2_epsilon: float = 0.05    # final-level threshold for the measure statistic
    tau_cap: float = DEFAULT_TAU_CAP
    tau_power: float = 1.0
    s2_radii: tuple = (0.25, 0.5, 0.75)
    s2_boundary_n: int = S2_BOUNDARY_N
    w1_powers: tuple = (1, 2, 4, 8, 16, 32, 64, 128)
    w2_angles: int = 16         # angular resolution of the w2 seminorm grid
    level_start: int = 4        # first ladder level reported in profiles

    def __post_init__(self):
        for f in fields(self):
            check = _TYPE_CHECKS.get(f.type)
            if check is not None and not check(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be of type {f.type}, "
                                  f"got {getattr(self, f.name)!r}")
        if not self.w1_powers or not all(_is_int(n) and 1 <= n <= 1024 for n in self.w1_powers):
            raise ConfigError(f"w1_powers must be a nonempty list of integers in 1..1024, "
                              f"got {list(self.w1_powers)}")
        if not self.s2_radii or not all(_is_real(r) and 0.0 < r < 1.0 for r in self.s2_radii):
            raise ConfigError(f"s2_radii must be a nonempty list of numbers in (0, 1), "
                              f"got {list(self.s2_radii)}")
        object.__setattr__(self, "s2_radii", tuple(float(r) for r in self.s2_radii))
        if len(set(self.s2_radii)) < len(self.s2_radii):
            raise ConfigError(f"s2_radii must be distinct, got {list(self.s2_radii)}")
        object.__setattr__(self, "w1_powers", tuple(int(n) for n in self.w1_powers))
        if not 1 <= self.level_start <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"need 1 <= level_start <= depth <= {MAX_DEPTH}, got "
                              f"{self.level_start}, {self.depth}")
        for name in ("angles", "w2_angles"):
            if not 4 <= getattr(self, name) <= 4096:
                raise ConfigError(f"{name} must lie in 4..4096, got {getattr(self, name)}")
        if not 64 <= self.base_n <= hardy.MAX_GRID or self.base_n & (self.base_n - 1):
            raise ConfigError(f"base_n must be a power of two in 64..{hardy.MAX_GRID}, "
                              f"got {self.base_n}")
        if not 64 <= self.arc_samples <= 1024:
            raise ConfigError(f"arc_samples must lie in 64..1024, got {self.arc_samples}")
        if not 64 <= self.s2_boundary_n <= hardy.MAX_GRID:
            raise ConfigError(f"s2_boundary_n must lie in 64..{hardy.MAX_GRID}, "
                              f"got {self.s2_boundary_n}")
        if not 0.0 < self.delta <= self.epsilon < 1.0:
            raise ConfigError(f"need 0 < delta <= epsilon < 1, got "
                              f"{self.delta}, {self.epsilon}")
        if not 0.0 < self.s2_epsilon < 1.0:
            raise ConfigError(f"s2_epsilon must lie in (0, 1), got {self.s2_epsilon}")
        if self.tau_cap <= 0 or self.tau_power <= 0:
            raise ConfigError("tau_cap and tau_power must be positive")

    def levels(self) -> list[tuple[int, float]]:
        return [(k, 1.0 - 2.0 ** -k) for k in range(self.level_start, self.depth + 1)]

    def grid(self) -> np.ndarray:
        return hardy.standard_grid(self.depth, self.angles)


@dataclass(frozen=True)
class CriterionProfile:
    """One statistic swept along its approach ladder.

    ``points`` are (approach, value) pairs with the approach coordinate
    strictly increasing toward the limit; metadata carries grid sizes per
    point, hyperbolic-cap activations and the vacuity bookkeeping.
    """

    kind: str
    points: tuple
    metadata: dict = field(default_factory=dict)

    def values(self) -> list[float]:
        return [v for _, v in self.points]


def s2_label(profile: CriterionProfile) -> str:
    """The name of an S2 profile in verdict keys and CSV rows: ``repr`` of
    its cutoff radius R, so that distinct radii get distinct names."""
    return f"S2[R={profile.metadata['R']!r}]"


# ---------------------------------------------------------------------------
# the normalized composite and its three norm routes
# ---------------------------------------------------------------------------

def _rho2(u, c):
    """rho(u, c)^2, the integrand of the boundary-approach statistic."""
    return np.square(rho(u, c))


def l_statistic(phi: sym.Symbol, a: complex, base_n: int = hardy.BASE_N) -> float:
    """||sigma_phi(a) . phi . sigma_a||_{H^2} = gamma(sigma_phi(a) . phi, a)
    by the rho^2-Poisson route of ``hardy.agreed_routes``.

    The direct-sample route runs alongside as the error indicator; the grid
    doubles until both square roots agree within ``hardy.GAMMA_TOL``.
    """
    sym.certificate(phi)
    a = complex(a)
    b = complex(phi.eval(a))
    return hardy.agreed_routes("l-statistic", phi, a, b, _rho2, base_n)[1]


@dataclass(frozen=True)
class NormRoutes:
    """The squared composite norm by three independent routes.

    ``settled`` is false when the direct/Poisson grid stopped at its cap
    unsettled or the coefficient sum ran out of squarings."""

    direct: float
    poisson: float
    taylor: float
    grid_n: int
    settled: bool

    def spread(self) -> float:
        vals = (self.direct, self.poisson, self.taylor)
        return max(vals) - min(vals)


#: squarings of the Taylor route's doubling; 64 cover 2^64 coefficients
TAYLOR_SQUARINGS = 64


def _taylor_route(lowered: nev.RationalForm, a: complex, b: complex) -> tuple[float, bool]:
    """sum_k |c_k|^2 over the Taylor coefficients c_k of sigma_b . phi . sigma_a
    in closed form, with whether the doubling settled.

    h = sigma_b . phi = P/Q (Q(0) = 1) has h_k = e1' A^(k-1) v0 for k >= 1,
    A the companion matrix of Q.  The Moebius change w = sigma_a(z) maps A
    to F = (I - aA)^-1 (conj(a) I - A), whose eigenvalues (1 - conj(a) z_j) /
    (a - z_j) lie in the disc for the poles z_j of h, so c_k = e1' F^(k-1) w
    and the tail is the [0, 0] entry of sum_j F^j w w* F^j*, summed by
    squared doubling: every added term is positive semidefinite.  Repeated
    poles, a pole sent to infinity (inner phi) and b = 0 need no special case.

    The error grows like (1 - |a|)^-2.  On inner symbols (Blaschke products
    of degree 1 to 5, 34 phases per radius) it is at most 1.4e-10 at
    1 - 2^-10, 2.8e-9 at 1 - 2^-12, 2.5e-8 at 1 - 2^-14 and 1.3e-4 at
    1 - 2^-20: the route serves |a| <= 1 - 2^-10, not deep L ladders.
    """
    p, q = nev._padded(lowered)
    num, den = b * q - p, q - np.conj(b) * p
    num, den = num / den[0], den / den[0]
    h0, d = num[0], len(den) - 1
    if d == 0:
        return float(abs(h0) ** 2), True
    A = np.eye(d, k=1, dtype=complex)
    A[:, 0] = -den[1:]
    E = np.eye(d) - a * A
    F = np.linalg.solve(E, np.conj(a) * np.eye(d) - A)
    v = np.linalg.solve(E, num[1:] - den[1:] * h0)
    w = a * (F @ v) - v
    S, M = np.outer(w, np.conj(w)), F
    settled = False
    for _ in range(TAYLOR_SQUARINGS):
        step = M @ S @ M.conj().T
        S += step
        M = M @ M
        if abs(step[0, 0]) <= 1e-18 * abs(S[0, 0]) and np.max(np.abs(M)) < 1e-9:
            settled = True
            break
    return float(abs(h0 + a * v[0]) ** 2 + S[0, 0].real), settled


def composite_norm_routes(phi: sym.Symbol, a: complex,
                          base_n: int = hardy.BASE_N) -> NormRoutes:
    """Three independent routes to the squared H^2 norm of the normalized
    composite sigma_b . phi . sigma_a, b = phi(a): the two rho^2 means of
    ``hardy.route_means``, over direct boundary samples and as the Poisson
    integral of phi's own boundary values (refined on one grid until each
    settles or the grid reaches ``hardy.MAX_GRID``), and the sum of the
    squared Taylor coefficients in closed form from phi's rational form
    (``_taylor_route``, no grid), good to 1e-9 for |a| <= 1 - 2^-10.  A phi
    that does not lower raises its RationalFormError.
    """
    sym.certificate(phi)
    lowered = nev.to_rational(phi)
    a = complex(a)
    b = complex(phi.eval(a))
    (direct, poisson), size, grid_settled = sym.refine(
        lambda n: hardy.route_means(phi, a, b, _rho2, n), hardy.grid_size_for(a, base_n),
        hardy.MAX_GRID,
        lambda prev, cur: (prev is not None and abs(cur[0] - prev[0]) < 1e-10
                           and abs(cur[1] - prev[1]) < 1e-10))
    taylor, sum_settled = _taylor_route(lowered, a, b)
    return NormRoutes(direct, poisson, taylor, size, grid_settled and sum_settled)


# ---------------------------------------------------------------------------
# arc statistics
# ---------------------------------------------------------------------------

def _arc_values(phi: sym.Symbol, arc: Arc, samples: int) -> np.ndarray:
    """phi at the midpoint-rule samples of the arc; arc averages need phi
    certified and at least 64 samples per arc."""
    if samples < 64:
        raise ValueError(f"arc under-resolved: need >= 64 samples, got {samples}")
    sym.certificate(phi)
    return phi.eval(arc.sample_points(samples))


def arc_mean(phi: sym.Symbol, arc: Arc, samples: int = ARC_SAMPLES) -> complex:
    """Integral average of the boundary values over the arc (midpoint rule)."""
    return complex(np.mean(_arc_values(phi, arc, samples)))


@dataclass(frozen=True)
class ArcAverage:
    value: float
    cap_hits: int
    evaluations: int


def _metric_terms(r: np.ndarray, metric, cap: float, axis=None):
    """The metric at the pseudo-hyperbolic distances r, with its cap hits
    (in total, or per row for ``axis=1``)."""
    if metric == "rho2":
        return r ** 2, 0
    if isinstance(metric, tuple) and metric[0] == "tau":
        if not float(metric[1]) > 0:
            raise ValueError(f"tau power must be > 0, got {metric[1]!r}")
        return tau_capped(r, cap=cap, power=float(metric[1]), axis=axis)
    raise ValueError(f"unknown metric {metric!r}; use 'rho2' or ('tau', p)")


def _row_averages(r: np.ndarray, metric, cap: float) -> list[ArcAverage]:
    """Mean of the metric over each row of the pseudo-hyperbolic distances r.

    The row means of a C-contiguous array are the same sums as the means of
    the rows taken one by one, so every value equals its 1-D average.
    """
    terms, hits = _metric_terms(r, metric, cap, axis=1)
    means = np.mean(terms, axis=1)
    return [ArcAverage(float(v), int(h), r.shape[1])
            for v, h in zip(means, np.broadcast_to(hits, means.shape))]


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an n x n matrix."""
    pairs = np.triu_indices(n, 1)
    for idx in pairs:
        idx.setflags(write=False)
    return pairs


def _double_averages(vals: np.ndarray, metrics, cap: float) -> dict:
    """The I x I double average of each metric between the arc samples vals.

    rho is symmetric with a zero diagonal (where rho^2 and every tau power
    > 0 vanish), so
    it is built on the strict upper triangle only: each mean over the n^2
    pairs is 2 sum / n^2, and each clipped pair is hit twice.
    """
    n = len(vals)
    rows, cols = _upper_pairs(n)
    re, im = vals.real.copy(), vals.imag.copy()
    r = rho_parts(re[rows], im[rows], re[cols], im[cols])
    out = {}
    for metric in metrics:
        terms, hits = _metric_terms(r, metric, cap)
        out[metric] = ArcAverage(2.0 * float(np.sum(terms)) / (n * n), 2 * hits, n * n)
    return out


def arc_double_average(phi: sym.Symbol, arc: Arc, metric="rho2",
                       samples: int = ARC_SAMPLES,
                       tau_cap: float = DEFAULT_TAU_CAP) -> ArcAverage:
    """|I|^-2 double integral of the metric between boundary values over I x I."""
    return _double_averages(_arc_values(phi, arc, samples), [metric], tau_cap)[metric]


def arc_center_average(phi: sym.Symbol, arc: Arc, metric="rho2",
                       samples: int = ARC_SAMPLES, tau_cap: float = DEFAULT_TAU_CAP,
                       center: complex | None = None) -> ArcAverage:
    """|I|^-1 integral over I of the metric against the value at the arc center."""
    vals = _arc_values(phi, arc, samples)
    c = center_of(arc) if center is None else complex(center)
    return _row_averages(rho(vals[None, :], complex(phi.eval(c))), metric, tau_cap)[0]


# ---------------------------------------------------------------------------
# scalar statistics
# ---------------------------------------------------------------------------

def w1_statistic(phi: sym.Symbol, n: int, settings: SweepSettings | None = None) -> float:
    """Grid lower bound for the seminorm of the pointwise power phi^n."""
    settings = settings or SweepSettings()
    sym.certificate(phi)
    f = sym.power(phi, n)
    est = hardy.bmoa_seminorm(f, depth=settings.depth, angles=settings.w2_angles,
                              base_n=settings.base_n)
    return est.value


def w2_statistic(phi: sym.Symbol, b: complex, settings: SweepSettings | None = None,
                 extra_points: tuple = ()) -> float:
    """Grid lower bound for |sigma_b . phi|_*.

    The sweep grid always contains b itself plus any ``extra_points`` (the
    dominance over the boundary-approach statistic needs the preimage point
    in the grid).
    """
    settings = settings or SweepSettings()
    sym.certificate(phi)
    b = complex(b)
    f = sym.Compose(sym.Moebius(b), phi)
    est = hardy.bmoa_seminorm(f, depth=settings.depth, angles=settings.w2_angles,
                              base_n=settings.base_n,
                              extra_points=[b] + [complex(p) for p in extra_points])
    return est.value


def s2_statistic(phi: sym.Symbol, a: complex, t: float, n: int = S2_BOUNDARY_N) -> float:
    """Normalized measure of {zeta : |phi(sigma_a(zeta))| > t} by grid counting."""
    sym.certificate(phi)
    if not (0.0 < t < 1.0):
        raise ValueError(f"threshold t must lie in (0, 1), got {t}")
    a = complex(a)
    moved = np.abs(phi.eval(moebius(a, sym.roots_of_unity(n))))
    return float(np.count_nonzero(moved > t)) / n


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class CriterionSweep:
    """Shared grid state for computing several profiles of one symbol."""

    def __init__(self, phi: sym.Symbol, settings: SweepSettings | None = None):
        self.phi = phi
        self.settings = settings or SweepSettings()
        self.cert = sym.certificate(phi)
        self.grid = self.settings.grid()
        self.phi_at_grid = np.asarray(phi.eval(self.grid), dtype=complex)
        self._l_values: np.ndarray | None = None
        self._arc_values: np.ndarray | None = None
        self._doubles: dict[tuple, ArcAverage] = {}
        self._center_rho: np.ndarray | None = None
        self._centered: dict = {}

    # -- cached sweeps -------------------------------------------------------

    def l_values(self) -> np.ndarray:
        """Poisson-route composite norm at every grid point (fast sweep)."""
        if self._l_values is None:
            self._l_values = hardy.poisson_sweep(
                self.grid, self.phi_at_grid, self.phi, _rho2, self.settings.base_n)
        return self._l_values

    def arc_values(self) -> np.ndarray:
        """phi on the arc samples of I(a), one row per grid point a."""
        if self._arc_values is None:
            self._arc_values = self.phi.eval(
                arc_sample_points(self.grid, self.settings.arc_samples))
        return self._arc_values

    def arc_means(self) -> np.ndarray:
        """phi_I for the arc I(a) of every grid point."""
        return np.mean(self.arc_values(), axis=1)

    # -- the ladder ---------------------------------------------------------------

    def _ladder(self, kind: str, witnesses, evaluate, **meta) -> CriterionProfile:
        """One point per ladder level k whose witnesses are the grid indices
        ``witnesses(k, s_k)``; ``evaluate(idx)`` gives the level's (value,
        grid size, cap hits).

        A level without witnesses is "vacuous" when no point of the whole
        disc reaches it (it exceeds the boundary sup) and scores 0; otherwise
        the grid merely has no witnesses, and the level is "unresolved" and
        dropped.
        """
        points, sizes, hits, levels = [], [], [], []
        for k, s in self.settings.levels():
            idx = witnesses(k, s)
            if len(idx):
                status, (value, size, hit) = "ok", evaluate(idx)
            elif s >= self.cert.sup - 1e-12:
                status, value, size, hit = "vacuous", 0.0, 0, 0
            else:
                status = "unresolved"
            levels.append({"k": k, "level": s, "status": status,
                           "witnesses": int(len(idx))})
            if status != "unresolved":
                points.append((s, value))
                sizes.append(size)
                hits.append(hit)
        return CriterionProfile(kind, tuple(points), {
            "levels": levels, "grid_sizes": sizes, "tau_cap_hits": hits, **meta})

    @staticmethod
    def _level_sets(magnitudes: np.ndarray):
        """Witnesses of level s: the grid points whose magnitude reaches s."""
        return lambda k, s: np.nonzero(magnitudes >= s)[0]

    def _ring(self, k: int, s: float) -> np.ndarray:
        """Witnesses of level k: the grid ring |a| = 1 - 2^-k."""
        return np.arange((k - 1) * self.settings.angles, k * self.settings.angles)

    # -- shared evaluators --------------------------------------------------------

    def _l_ladder(self, kind: str, witnesses) -> CriterionProfile:
        """The largest swept composite norm over each level's witnesses,
        anchored at its argmax by the dual-route ``l_statistic``, with that
        point's grid size and no cap hits."""
        lv, base_n = self.l_values(), self.settings.base_n

        def anchored(idx):
            value, a = hardy._anchored_max(lambda a: l_statistic(self.phi, a, base_n),
                                           lv[idx], self.grid[idx])
            return value, hardy.grid_size_for(a, base_n), 0

        return self._ladder(kind, witnesses, anchored, lower_bound=True)

    def _arc_double(self, i: int, metric) -> ArcAverage:
        """Double arc average at grid point i.  The rho values of each arc are
        built once and reduced to the rho^2 mean, to the capped tau mean when
        A-hyp-double reads the arc (its rings k >= level_start), and to the
        requested metric; only those scalars are kept."""
        if (i, metric) not in self._doubles:
            s = self.settings
            metrics = [metric, "rho2"]
            if i >= (s.level_start - 1) * s.angles:
                metrics.append(("tau", s.tau_power))
            averages = _double_averages(self.arc_values()[i], dict.fromkeys(metrics), s.tau_cap)
            self._doubles.update({(i, m): avg for m, avg in averages.items()})
        return self._doubles[(i, metric)]

    def _arc_center(self, i: int, metric) -> ArcAverage:
        """Centered arc average at grid point i.  One rho array, between the
        arc samples of every grid point a and phi(a), serves every metric,
        and each metric is reduced for all grid points at once."""
        if self._center_rho is None:
            # phi at each scalar a, as arc_center_average takes it: the array
            # values in phi_at_grid can differ in the last bits
            centers = np.array([complex(self.phi.eval(complex(a))) for a in self.grid])
            self._center_rho = rho(self.arc_values(), centers[:, None])
        if metric not in self._centered:
            self._centered[metric] = _row_averages(self._center_rho, metric,
                                                   self.settings.tau_cap)
        return self._centered[metric][i]

    def _arc_envelope(self, kind: str, average, per_arc: int) -> CriterionProfile:
        """Largest rho^2 arc average over the level sets |phi_I| >= s_k."""
        return self._ladder(kind, self._level_sets(np.abs(self.arc_means())),
                            lambda idx: (max(average(int(i), "rho2").value for i in idx),
                                         per_arc, 0))

    def _arc_ladder(self, kind: str, average, per_arc: int, metric) -> CriterionProfile:
        """Largest arc average on each ring |a| = 1 - 2^-k, with its cap hits."""
        s = self.settings
        metric = metric if metric is not None else ("tau", s.tau_power)

        def ring_max(idx):
            avgs = [average(int(i), metric) for i in idx]
            return (max([-1.0] + [avg.value for avg in avgs]), per_arc,
                    sum(avg.cap_hits for avg in avgs))

        prof = self._ladder(kind, self._ring, ring_max, metric=_metric_name(metric))
        total = s.angles * per_arc
        prof.metadata["cap_fraction"] = [h / total for h in prof.metadata["tau_cap_hits"]]
        return prof

    # -- individual profiles ----------------------------------------------------

    def profile_l(self) -> CriterionProfile:
        """Envelope of the composite norm over level sets |phi(a)| >= s_k."""
        return self._l_ladder("L", self._level_sets(np.abs(self.phi_at_grid)))

    def profile_vmoa_iii(self) -> CriterionProfile:
        """Per-radius sup of the composite norm (the |a| -> 1 flavor)."""
        return self._l_ladder("VMOA-iii", self._ring)

    def profile_s1(self) -> CriterionProfile:
        """Envelope of the counting statistic over level sets |phi(a)| >= s_k.

        The level sets are nested, so the statistic is computed once at the
        witnesses of the first level, and every level takes its maximum from
        those values.
        """
        level_sets = self._level_sets(np.abs(self.phi_at_grid))
        first = level_sets(*self.settings.levels()[0])
        results = nev.s1_statistics(self.phi, self.grid[first]) if len(first) else []
        values = np.full(len(self.grid), -1.0)
        values[first] = [r.value for r in results]
        prof = self._ladder("S1", level_sets,
                            lambda idx: (float(np.max(values[idx])), len(idx), 0))
        prof.metadata["flagged"] = any(r.flagged for r in results)
        return prof

    def profile_a_double(self) -> CriterionProfile:
        """Double arc average of rho^2 over level sets |phi_I| >= s_k."""
        return self._arc_envelope("A-double", self._arc_double, self.settings.arc_samples ** 2)

    def profile_a_prime(self) -> CriterionProfile:
        """Centered arc average of rho^2 over level sets |phi_I| >= s_k."""
        return self._arc_envelope("A-prime", self._arc_center, self.settings.arc_samples)

    def profile_a_hyp_double(self, metric=None) -> CriterionProfile:
        """Double arc average on the shrinking-arc ladder |I| = 2^-k."""
        return self._arc_ladder("A-hyp-double", self._arc_double,
                                self.settings.arc_samples ** 2, metric)

    def profile_a_hyp_center(self) -> CriterionProfile:
        """Centered arc average on the radius ladder |a| = 1 - 2^-k."""
        return self._arc_ladder("A-hyp-center", self._arc_center,
                                self.settings.arc_samples, None)

    def profile_w1(self) -> CriterionProfile:
        """The power statistic |phi^n|_* along the geometric power ladder."""
        s = self.settings
        points = [(float(n), w1_statistic(self.phi, n, s)) for n in s.w1_powers]
        return CriterionProfile("W1", tuple(points), {
            "grid_sizes": [s.depth * s.w2_angles] * len(points),
            "lower_bound": True, "tau_cap_hits": [0] * len(points)})

    def profile_w2(self) -> CriterionProfile:
        """|sigma_b . phi|_* at image points b = phi(a*) of level argmaxes.

        By the corollary mechanism the statistic dominates the composite
        norm at the preimage, so these sampled lower bounds co-fail with
        the L-profile; for compact symbols they decay along with it.
        """
        lv = self.l_values()
        s = self.settings

        @functools.cache    # nested level sets share their argmax points
        def w2_at(i: int) -> float:
            a_star = complex(self.grid[i])
            b = complex(self.phi.eval(a_star))
            return w2_statistic(self.phi, b, s, extra_points=(a_star,))

        return self._ladder(
            "W2", self._level_sets(np.abs(self.phi_at_grid)),
            lambda idx: (w2_at(int(idx[np.argmax(lv[idx])])), s.depth * s.w2_angles + 2, 0),
            lower_bound=True)

    def profile_s2(self) -> list[CriterionProfile]:
        """Level-set measure profiles, one per cutoff radius R.

        The a-sweep always contains the origin: the natural base point must
        be eligible whenever |phi(0)| <= R, and the standard grid starts at
        radius 1/2.
        """
        s = self.settings
        sweep = np.concatenate([np.asarray([0j]), self.grid])
        phi_at = np.concatenate([np.asarray([complex(self.phi.eval(0j))]),
                                 self.phi_at_grid])
        t_levels = [1.0 - 2.0 ** -k for k in range(S2_LEVEL_START, s.depth + 1)]
        zeta = sym.roots_of_unity(s.s2_boundary_n)
        # the s2_statistic count above every level, once per point eligible
        # for some R; the levels increase, so the higher ones are counted
        # among the values above the first
        moduli = np.abs(phi_at)
        fractions = np.zeros((len(sweep), len(t_levels)))
        reach = max(s.s2_radii, default=-1.0) if t_levels else -1.0
        for i in np.nonzero(moduli <= reach)[0]:
            moved = np.abs(self.phi.eval(moebius(complex(sweep[i]), zeta)))
            above = moved[moved > t_levels[0]]
            fractions[i] = [np.count_nonzero(above > t) for t in t_levels]
        fractions /= s.s2_boundary_n
        profiles = []
        for R in s.s2_radii:
            eligible = moduli <= R
            best = np.max(fractions[eligible], axis=0, initial=0.0)
            points = [(t, float(v)) for t, v in zip(t_levels, best)]
            profiles.append(CriterionProfile("S2", tuple(points), {
                "R": float(R), "grid_sizes": [s.s2_boundary_n] * len(points),
                "eligible_points": int(np.count_nonzero(eligible)),
                "tau_cap_hits": [0] * len(points)}))
        return profiles

    # -- dispatch -----------------------------------------------------------------

    #: profile kind -> (method, the cached sweep state it reads or None);
    #: kinds that read one state are cheapest on one sweep object
    PROFILES = {"L": (profile_l, "l_values"),
                "VMOA-iii": (profile_vmoa_iii, "l_values"),
                "S1": (profile_s1, None),
                "A-double": (profile_a_double, "arc_values"),
                "A-prime": (profile_a_prime, "arc_values"),
                "A-hyp-double": (profile_a_hyp_double, "arc_values"),
                "A-hyp-center": (profile_a_hyp_center, "arc_values"),
                "W1": (profile_w1, None),
                "W2": (profile_w2, "l_values"),
                "S2": (profile_s2, None)}

    def profile(self, kind: str):
        """The profile of one kind (a list of profiles for S2)."""
        if kind not in self.PROFILES:
            raise ValueError(f"unknown criterion kind {kind!r}")
        return self.PROFILES[kind][0](self)


PROFILE_KINDS = tuple(CriterionSweep.PROFILES)


def _metric_name(metric) -> str:
    if metric == "rho2":
        return "rho2"
    return f"tau^{metric[1]:g}"


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def classify_profile(profile: CriterionProfile, epsilon: float, delta: float) -> str:
    """vanishing / failing / inconclusive from the final levels.

    Vanishing needs the final value below epsilon and a nonincreasing tail
    over the last four levels; failing needs the final value at or above
    delta.  Values between delta and epsilon with a decaying tail count as
    vanishing (the trend wins).
    """
    vals = profile.values()
    if not vals:
        return "inconclusive"
    tail_vals = vals[-4:]
    monotone = all(x >= y - 1e-9 for x, y in zip(tail_vals, tail_vals[1:]))
    final = vals[-1]
    if final < epsilon and monotone:
        return "vanishing"
    if final >= delta:
        return "failing"
    return "inconclusive"


@dataclass(frozen=True)
class VerdictReport:
    classification: str     # compact-evidence | non-compact-evidence | inconclusive | inconsistent
    consistent: bool
    sub_verdicts: dict
    s2_flag: str | None     # satisfied | not-satisfied | None
    reasons: tuple
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "consistent": self.consistent,
            "sub_verdicts": dict(sorted(self.sub_verdicts.items())),
            "s2": self.s2_flag,
            "reasons": list(self.reasons),
            "diagnostics": self.diagnostics,
        }


def verdict(phi: sym.Symbol, profiles: dict,
            settings: SweepSettings | None = None) -> VerdictReport:
    """Combine criterion profiles into a classification report.

    ``profiles`` maps kind keys to CriterionProfile (the S2 entry may be a
    list, one profile per cutoff radius).  The equivalence family
    {L, S1, A-double, A-prime, W2} drives the classification and must be
    unanimous; the remaining kinds are reported as advisory sub-verdicts
    (their finite-ladder decay rates differ, so they carry no veto).
    """
    settings = settings or SweepSettings()
    if "L" not in profiles:
        raise ValueError("verdict needs at least the L profile")
    cert = sym.certificate(phi)
    sub: dict[str, str] = {}
    diagnostics: dict[str, dict] = {}
    reasons: list[str] = []

    def handle(key: str, profile: CriterionProfile):
        eps = settings.s2_epsilon if profile.kind == "S2" else settings.epsilon
        delta = settings.s2_epsilon if profile.kind == "S2" else settings.delta
        cls = classify_profile(profile, eps, delta)
        cap_note = {}
        fractions = profile.metadata.get("cap_fraction")
        if fractions and max(fractions) > 0.01 and cls == "vanishing":
            # a heavily clipped integrand cannot certify smallness
            cls = "inconclusive"
            cap_note = {"cap_fraction": max(fractions)}
        sub[key] = cls
        diagnostics[key] = {
            "final": profile.points[-1][1] if profile.points else None,
            "points": len(profile.points), **cap_note}

    for key, prof in profiles.items():
        if isinstance(prof, list):
            for p in prof:
                handle(s2_label(p), p)
        else:
            handle(key, prof)

    strict = {k: v for k, v in sub.items() if k in STRICT_FAMILY}
    vanish = [k for k, v in sorted(strict.items()) if v == "vanishing"]
    failing = [k for k, v in sorted(strict.items()) if v == "failing"]
    inconclusive = [k for k, v in sorted(strict.items()) if v == "inconclusive"]
    consistent = not (vanish and failing)

    if cert.strict:
        reasons.append(f"sup|phi| = {cert.sup:.6f} < 1; boundary-approach criteria are vacuous")
    if not consistent:
        classification = "inconsistent"
        reasons.append(f"equivalence family split: vanishing={vanish} failing={failing}")
    elif inconclusive:
        classification = "inconclusive"
        reasons.append(f"inconclusive criteria: {inconclusive}")
    elif failing:
        classification = "non-compact-evidence"
    elif vanish:
        classification = "compact-evidence"
    else:
        classification = "inconclusive"
        reasons.append("no criterion from the equivalence family was computed")

    s2_flag = None
    s2_keys = [k for k in sub if k.startswith("S2")]
    if s2_keys:
        s2_flag = "satisfied" if all(sub[k] == "vanishing" for k in s2_keys) else "not-satisfied"
    return VerdictReport(classification, consistent, sub, s2_flag,
                         tuple(reasons), diagnostics)
