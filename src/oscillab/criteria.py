"""Compactness statistics for composition operators and their sweep profiles.

The normalized composite sigma_phi(a) . phi . sigma_a is the common thread:
its H^2 norm (the boundary-approach statistic) is computed both from direct
samples and through the Poisson-weighted pseudo-hyperbolic integral, with
grid doubling until the two routes agree.  Around it sit the arc-average
reformulations (single and double, pseudo-hyperbolic or capped-hyperbolic
metric), the power statistic |phi^n|_*, the shifted-seminorm statistic
|sigma_b . phi|_*, the level-set measure statistic, and the counting
statistic from :mod:`oscillab.nevanlinna`.

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

import math
from dataclasses import dataclass, field

import numpy as np

from . import hardy
from . import nevanlinna as nev
from . import symbols as sym
from .geometry import Arc, arc_of, center_of, poisson_kernel, rho, tau_capped

STRICT_FAMILY = ("L", "S1", "A-double", "A-prime", "W2")

PROFILE_KINDS = ("L", "VMOA-iii", "S1", "A-double", "A-prime",
                 "A-hyp-double", "A-hyp-center", "W1", "W2", "S2")


@dataclass(frozen=True)
class SweepSettings:
    """Grid geometry, ladders and thresholds shared by all profiles."""

    depth: int = 12             # ladder levels s_k = 1 - 2^-k, k <= depth
    angles: int = 64            # angular resolution of the a-grid
    base_n: int = 4096          # starting boundary grid for quadratures
    arc_samples: int = 128      # per-arc samples for arc averages
    epsilon: float = 0.15       # "vanishing" final-level threshold
    delta: float = 0.1          # "bounded below" threshold
    s2_epsilon: float = 0.05    # final-level threshold for the measure statistic
    tau_cap: float = 50.0
    tau_power: float = 1.0
    s2_radii: tuple = (0.25, 0.5, 0.75)
    s2_boundary_n: int = 8192
    s2_level_start: int = 4     # t_k = 1 - 2^-k for k = s2_level_start..depth
    w1_powers: tuple = (1, 2, 4, 8, 16, 32, 64, 128)
    w2_angles: int = 16         # angular resolution of the w2 seminorm grid
    level_start: int = 4        # first ladder level reported in profiles
    gamma_tol: float = 1e-8

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

    def final_value(self) -> float:
        if not self.points:
            raise ValueError(f"profile {self.kind} has no resolved levels")
        return self.points[-1][1]

    def values(self) -> list[float]:
        return [v for _, v in self.points]


class InconsistentCriteriaError(RuntimeError):
    """Equivalent criteria produced contradictory sub-verdicts."""


# ---------------------------------------------------------------------------
# the normalized composite and its three norm routes
# ---------------------------------------------------------------------------

def composite_symbol(phi: sym.Symbol, a: complex) -> sym.Symbol:
    """sigma_phi(a) . phi . sigma_a as a symbol tree (fixes the origin)."""
    a = complex(a)
    b = complex(phi.eval(a))
    return sym.Compose(sym.Moebius(b), sym.Compose(phi, sym.Moebius(a)))


def l_statistic(phi: sym.Symbol, a: complex, base_n: int = 4096,
                tol: float = 1e-8, max_n: int = hardy.MAX_GRID) -> float:
    """||sigma_phi(a) . phi . sigma_a||_{H^2} by the rho^2-Poisson route.

    The direct-sample route runs alongside as the error indicator; the grid
    doubles until both square roots agree within ``tol``.
    """
    sym.certificate(phi)
    a = complex(a)
    b = complex(phi.eval(a))
    size = hardy.grid_size_for(a, base_n)
    while True:
        zeta = sym.roots_of_unity(size)
        boundary = hardy.sample_boundary(phi, size)
        weighted = float(np.mean(rho(boundary, b) ** 2 * poisson_kernel(a, zeta)))
        poisson = math.sqrt(max(weighted, 0.0))
        moved = phi.eval((a - zeta) / (1.0 - np.conj(a) * zeta))
        composite = (b - moved) / (1.0 - np.conj(b) * moved)
        direct = math.sqrt(float(np.mean(np.abs(composite) ** 2)))
        if abs(direct - poisson) <= tol:
            return poisson
        if size >= max_n:
            raise hardy.QuadratureError(
                f"l-statistic routes disagree by {abs(direct - poisson):.3e} at n = {size}",
                direct=direct, poisson=poisson, n=size)
        size *= 2


@dataclass(frozen=True)
class NormRoutes:
    """The squared composite norm by three independent routes."""

    direct: float
    poisson: float
    taylor: float
    grid_n: int
    taylor_n: int

    def spread(self) -> float:
        vals = (self.direct, self.poisson, self.taylor)
        return max(vals) - min(vals)


def composite_norm_routes(phi: sym.Symbol, a: complex, base_n: int = 4096,
                          max_n: int = hardy.MAX_GRID,
                          max_taylor_n: int = 2 ** 22) -> NormRoutes:
    """Direct-sample, Poisson-integral and Taylor-coefficient routes to the
    squared H^2 norm of the normalized composite, each refined until its
    own stability indicator settles.

    The Taylor route keeps the coefficient order at a quarter of its FFT
    grid, so it never degenerates into the direct route's Parseval sum.
    """
    sym.certificate(phi)
    a = complex(a)
    b = complex(phi.eval(a))
    g = composite_symbol(phi, a)

    size = hardy.grid_size_for(a, base_n)
    prev_d = prev_p = None
    while True:
        zeta = sym.roots_of_unity(size)
        direct = float(np.mean(np.abs(hardy.sample_boundary(g, size)) ** 2))
        boundary = hardy.sample_boundary(phi, size)
        poisson = float(np.mean(rho(boundary, b) ** 2 * poisson_kernel(a, zeta)))
        if (prev_d is not None and abs(direct - prev_d) < 1e-10
                and abs(poisson - prev_p) < 1e-10):
            break
        if size >= max_n:
            break
        prev_d, prev_p = direct, poisson
        size *= 2

    tn = max(4096, base_n)
    prev_sum = None
    taylor = 0.0
    while True:
        coeffs = np.fft.fft(hardy.sample_boundary(g, tn)) / tn
        taylor = float(np.sum(np.abs(coeffs[: tn // 4]) ** 2))
        if prev_sum is not None and abs(taylor - prev_sum) < 1e-10:
            break
        if tn >= max_taylor_n:
            break
        prev_sum = taylor
        tn *= 2
    return NormRoutes(direct, poisson, taylor, size, tn)


# ---------------------------------------------------------------------------
# arc statistics
# ---------------------------------------------------------------------------

def arc_mean(phi: sym.Symbol, arc: Arc, samples: int = 128) -> complex:
    """Integral average of the boundary values over the arc (midpoint rule)."""
    if samples < 64:
        raise ValueError(f"arc under-resolved: need >= 64 samples, got {samples}")
    sym.certificate(phi)
    return complex(np.mean(phi.eval(arc.sample_points(samples))))


@dataclass(frozen=True)
class ArcAverage:
    value: float
    cap_hits: int
    evaluations: int


def _metric_values(u, v, metric, cap: float):
    r = rho(u, v)
    if metric == "rho2":
        return r ** 2, 0
    if isinstance(metric, tuple) and metric[0] == "tau":
        return tau_capped(r, cap=cap, power=float(metric[1]))
    raise ValueError(f"unknown metric {metric!r}; use 'rho2' or ('tau', p)")


def arc_double_average(phi: sym.Symbol, arc: Arc, metric="rho2",
                       samples: int = 128, tau_cap: float = 50.0) -> ArcAverage:
    """|I|^-2 double integral of the metric between boundary values over I x I."""
    if samples < 64:
        raise ValueError(f"arc under-resolved: need >= 64 samples, got {samples}")
    sym.certificate(phi)
    vals = phi.eval(arc.sample_points(samples))
    m, hits = _metric_values(vals[:, None], vals[None, :], metric, tau_cap)
    return ArcAverage(float(np.mean(m)), hits, samples * samples)


def arc_center_average(phi: sym.Symbol, arc: Arc, metric="rho2",
                       samples: int = 128, tau_cap: float = 50.0,
                       center: complex | None = None) -> ArcAverage:
    """|I|^-1 integral over I of the metric against the value at the arc center."""
    if samples < 64:
        raise ValueError(f"arc under-resolved: need >= 64 samples, got {samples}")
    sym.certificate(phi)
    c = center_of(arc).value if center is None else complex(center)
    vals = phi.eval(arc.sample_points(samples))
    m, hits = _metric_values(vals, np.asarray(complex(phi.eval(c))), metric, tau_cap)
    return ArcAverage(float(np.mean(m)), hits, samples)


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


def s2_statistic(phi: sym.Symbol, a: complex, t: float, n: int = 8192) -> float:
    """Normalized measure of {zeta : |phi(sigma_a(zeta))| > t} by grid counting."""
    sym.certificate(phi)
    if not (0.0 < t < 1.0):
        raise ValueError(f"threshold t must lie in (0, 1), got {t}")
    a = complex(a)
    zeta = sym.roots_of_unity(n)
    moved = np.abs(phi.eval((a - zeta) / (1.0 - np.conj(a) * zeta)))
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
        self._arc_means: np.ndarray | None = None

    # -- cached sweeps -------------------------------------------------------

    def l_values(self) -> np.ndarray:
        """Poisson-route composite norm at every grid point (fast sweep)."""
        if self._l_values is None:
            s = self.settings
            out = np.empty(len(self.grid))
            sizes = np.array([hardy.grid_size_for(a, s.base_n) for a in self.grid])
            for size in np.unique(sizes):
                idx = np.nonzero(sizes == size)[0]
                boundary = hardy.sample_boundary(self.phi, int(size))
                zeta = sym.roots_of_unity(int(size))
                rows = max(1, int(hardy.SWEEP_CHUNK // size))
                for start in range(0, len(idx), rows):
                    sel = idx[start:start + rows]
                    aa = self.grid[sel][:, None]
                    bb = self.phi_at_grid[sel][:, None]
                    pk = (1.0 - np.abs(aa) ** 2) / np.abs(zeta[None, :] - aa) ** 2
                    rr = rho(boundary[None, :], bb) ** 2
                    out[sel] = np.sqrt(np.maximum(np.mean(rr * pk, axis=1), 0.0))
            self._l_values = out
        return self._l_values

    def arc_means(self) -> np.ndarray:
        """phi_I for the arc I(a) of every grid point."""
        if self._arc_means is None:
            s = self.settings
            out = np.empty(len(self.grid), dtype=complex)
            for i, a in enumerate(self.grid):
                out[i] = arc_mean(self.phi, arc_of(complex(a)), s.arc_samples)
            self._arc_means = out
        return self._arc_means

    # -- level bookkeeping ----------------------------------------------------

    def _level_split(self, magnitudes: np.ndarray):
        """Classify each ladder level against the available magnitudes.

        Returns (k, s, indices, status) with status "ok", "vacuous" (no
        point of the whole disc reaches the level: the level exceeds the
        boundary sup) or "unresolved" (the grid merely has no witnesses).
        """
        out = []
        sup = self.cert.sup
        for k, s in self.settings.levels():
            idx = np.nonzero(magnitudes >= s)[0]
            if len(idx):
                out.append((k, s, idx, "ok"))
            elif s >= sup - 1e-12:
                out.append((k, s, idx, "vacuous"))
            else:
                out.append((k, s, idx, "unresolved"))
        return out

    def _level_envelope(self, kind: str, magnitudes: np.ndarray, evaluate,
                        size_of) -> CriterionProfile:
        """Shared machinery for level-set envelope profiles."""
        points, sizes, meta_levels = [], [], []
        for k, s, idx, status in self._level_split(magnitudes):
            if status == "ok":
                points.append((s, evaluate(idx)))
                sizes.append(size_of(idx))
            elif status == "vacuous":
                points.append((s, 0.0))
                sizes.append(0)
            meta_levels.append({"k": k, "level": s, "status": status,
                                "witnesses": int(len(idx))})
        return CriterionProfile(kind, tuple(points), {
            "levels": meta_levels, "grid_sizes": sizes,
            "tau_cap_hits": [0] * len(points)})

    # -- individual profiles ----------------------------------------------------

    def profile_l(self) -> CriterionProfile:
        """Envelope of the composite norm over level sets |phi(a)| >= s_k."""
        lv = self.l_values()
        s = self.settings

        def evaluate(idx):
            best = idx[int(np.argmax(lv[idx]))]
            value = l_statistic(self.phi, complex(self.grid[best]), s.base_n, s.gamma_tol)
            return max(value, float(np.max(lv[idx])) - s.gamma_tol)

        prof = self._level_envelope(
            "L", np.abs(self.phi_at_grid), evaluate,
            lambda idx: int(hardy.grid_size_for(self.grid[idx[int(np.argmax(lv[idx]))]], s.base_n)))
        prof.metadata["lower_bound"] = True
        return prof

    def profile_vmoa_iii(self) -> CriterionProfile:
        """Per-radius sup of the composite norm (the |a| -> 1 flavor)."""
        lv = self.l_values()
        s = self.settings
        n_ang = s.angles
        points, sizes = [], []
        for k, lev in s.levels():
            idx = np.arange((k - 1) * n_ang, k * n_ang)
            best = idx[int(np.argmax(lv[idx]))]
            value = l_statistic(self.phi, complex(self.grid[best]), s.base_n, s.gamma_tol)
            points.append((lev, max(value, float(np.max(lv[idx])) - s.gamma_tol)))
            sizes.append(int(hardy.grid_size_for(self.grid[best], s.base_n)))
        return CriterionProfile("VMOA-iii", tuple(points), {
            "grid_sizes": sizes, "lower_bound": True,
            "tau_cap_hits": [0] * len(points)})

    def profile_s1(self) -> CriterionProfile:
        """Envelope of the counting statistic over level sets |phi(a)| >= s_k."""
        cache: dict[int, nev.S1Value] = {}
        flagged = [False]

        def evaluate(idx):
            best = -1.0
            for i in idx:
                if int(i) not in cache:
                    cache[int(i)] = nev.s1_statistic(self.phi, complex(self.grid[i]))
                v = cache[int(i)]
                flagged[0] = flagged[0] or v.flagged
                best = max(best, v.value)
            return best

        prof = self._level_envelope("S1", np.abs(self.phi_at_grid), evaluate,
                                    lambda idx: len(idx))
        prof.metadata["flagged"] = flagged[0]
        return prof

    def profile_a_double(self) -> CriterionProfile:
        """Double arc average of rho^2 over level sets |phi_I| >= s_k."""
        s = self.settings
        cache: dict[int, float] = {}

        def evaluate(idx):
            best = -1.0
            for i in idx:
                if int(i) not in cache:
                    cache[int(i)] = arc_double_average(
                        self.phi, arc_of(complex(self.grid[i])), "rho2",
                        s.arc_samples, s.tau_cap).value
                best = max(best, cache[int(i)])
            return best

        return self._level_envelope("A-double", np.abs(self.arc_means()),
                                    evaluate, lambda idx: s.arc_samples ** 2)

    def profile_a_prime(self) -> CriterionProfile:
        """Centered arc average of rho^2 over level sets |phi_I| >= s_k."""
        s = self.settings
        cache: dict[int, float] = {}

        def evaluate(idx):
            best = -1.0
            for i in idx:
                if int(i) not in cache:
                    cache[int(i)] = arc_center_average(
                        self.phi, arc_of(complex(self.grid[i])), "rho2",
                        s.arc_samples, s.tau_cap,
                        center=complex(self.grid[i])).value
                best = max(best, cache[int(i)])
            return best

        return self._level_envelope("A-prime", np.abs(self.arc_means()),
                                    evaluate, lambda idx: s.arc_samples)

    def profile_a_hyp_double(self, metric=None) -> CriterionProfile:
        """Double arc average on the shrinking-arc ladder |I| = 2^-k."""
        s = self.settings
        metric = metric if metric is not None else ("tau", s.tau_power)
        points, hits_list, sizes = [], [], []
        for k, lev in s.levels():
            ring = self.grid[(k - 1) * s.angles: k * s.angles]
            best, hits = -1.0, 0
            for a in ring:
                avg = arc_double_average(self.phi, arc_of(complex(a)), metric,
                                         s.arc_samples, s.tau_cap)
                hits += avg.cap_hits
                best = max(best, avg.value)
            points.append((lev, best))
            hits_list.append(hits)
            sizes.append(s.arc_samples ** 2)
        total = s.angles * s.arc_samples ** 2
        return CriterionProfile("A-hyp-double", tuple(points), {
            "metric": _metric_name(metric), "grid_sizes": sizes,
            "tau_cap_hits": hits_list,
            "cap_fraction": [h / total for h in hits_list]})

    def profile_a_hyp_center(self, metric=None) -> CriterionProfile:
        """Centered arc average on the radius ladder |a| = 1 - 2^-k."""
        s = self.settings
        metric = metric if metric is not None else ("tau", s.tau_power)
        points, hits_list, sizes = [], [], []
        for k, lev in s.levels():
            ring = self.grid[(k - 1) * s.angles: k * s.angles]
            best, hits = -1.0, 0
            for a in ring:
                avg = arc_center_average(self.phi, arc_of(complex(a)), metric,
                                         s.arc_samples, s.tau_cap, center=complex(a))
                hits += avg.cap_hits
                best = max(best, avg.value)
            points.append((lev, best))
            hits_list.append(hits)
            sizes.append(s.arc_samples)
        total = s.angles * s.arc_samples
        return CriterionProfile("A-hyp-center", tuple(points), {
            "metric": _metric_name(metric), "grid_sizes": sizes,
            "tau_cap_hits": hits_list,
            "cap_fraction": [h / total for h in hits_list]})

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
        cache: dict[int, float] = {}

        def evaluate(idx):
            best = int(idx[int(np.argmax(lv[idx]))])
            if best not in cache:
                a_star = complex(self.grid[best])
                b = complex(self.phi.eval(a_star))
                cache[best] = w2_statistic(self.phi, b, s, extra_points=(a_star,))
            return cache[best]

        prof = self._level_envelope("W2", np.abs(self.phi_at_grid), evaluate,
                                    lambda idx: s.depth * s.w2_angles + 2)
        prof.metadata["lower_bound"] = True
        return prof

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
        t_levels = [(k, 1.0 - 2.0 ** -k) for k in range(s.s2_level_start, s.depth + 1)]
        moduli: dict[int, np.ndarray] = {}
        zeta = sym.roots_of_unity(s.s2_boundary_n)
        profiles = []
        for R in s.s2_radii:
            eligible = np.nonzero(np.abs(phi_at) <= R)[0]
            points = []
            for k, t in t_levels:
                best = 0.0
                for i in eligible:
                    if int(i) not in moduli:
                        a = complex(sweep[i])
                        moved = (a - zeta) / (1.0 - np.conj(a) * zeta)
                        moduli[int(i)] = np.abs(self.phi.eval(moved))
                    frac = float(np.count_nonzero(moduli[int(i)] > t)) / s.s2_boundary_n
                    best = max(best, frac)
                points.append((t, best))
            profiles.append(CriterionProfile("S2", tuple(points), {
                "R": float(R), "grid_sizes": [s.s2_boundary_n] * len(points),
                "eligible_points": int(len(eligible)),
                "tau_cap_hits": [0] * len(points)}))
        return profiles

    # -- dispatch -----------------------------------------------------------------

    def profile(self, kind: str, metric=None):
        if kind == "L":
            return self.profile_l()
        if kind == "VMOA-iii":
            return self.profile_vmoa_iii()
        if kind == "S1":
            return self.profile_s1()
        if kind == "A-double":
            return self.profile_a_double()
        if kind == "A-prime":
            return self.profile_a_prime()
        if kind == "A-hyp-double":
            return self.profile_a_hyp_double(metric)
        if kind == "A-hyp-center":
            return self.profile_a_hyp_center(metric)
        if kind == "W1":
            return self.profile_w1()
        if kind == "W2":
            return self.profile_w2()
        if kind == "S2":
            return self.profile_s2()
        raise ValueError(f"unknown criterion kind {kind!r}")


def _metric_name(metric) -> str:
    if metric == "rho2":
        return "rho2"
    return f"tau^{metric[1]:g}"


def criterion_profile(phi: sym.Symbol, kind: str,
                      settings: SweepSettings | None = None, metric=None):
    """One-shot profile computation (see CriterionSweep for batch use)."""
    return CriterionSweep(phi, settings).profile(kind, metric)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def classify_profile(profile: CriterionProfile, epsilon: float, delta: float,
                     tail: int = 4) -> str:
    """vanishing / failing / inconclusive from the final levels.

    Vanishing needs the final value below epsilon and a nonincreasing tail;
    failing needs the final value at or above delta.  Values between delta
    and epsilon with a decaying tail count as vanishing (the trend wins).
    """
    vals = profile.values()
    if not vals:
        return "inconclusive"
    tail_vals = vals[-min(tail, len(vals)):]
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
                handle(f"{key}[R={p.metadata.get('R')}]", p)
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
