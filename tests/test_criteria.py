import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import criteria as cr
from oscillab import gallery
from oscillab import hardy
from oscillab import nevanlinna as nev
from oscillab import symbols as s
from oscillab.geometry import Arc, arc_of, moebius, rho, tau_capped

RNG = np.random.default_rng(977)

FAST = cr.SweepSettings(depth=8, angles=16, w2_angles=8, s2_boundary_n=1024,
                        arc_samples=64, w1_powers=(1, 2, 4, 8))


def half_shift_l_exact(a: float) -> float:
    # for phi = (1+z)/2 and real a the normalized composite is
    # C z / (1 - D z) with C = 2(1+a)/(3+a), D = -(1-a)/(3+a)
    C = 2 * (1 + a) / (3 + a)
    D = (1 - a) / (3 + a)
    return math.sqrt(C * C / (1 - D * D))


class TestLStatistic:
    def test_constant_composite_vanishes(self):
        assert cr.l_statistic(s.Constant(0.3), 0.9) == 0.0

    def test_identity_composite_is_unit(self):
        assert cr.l_statistic(s.Identity(), 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_half_shift_ladder_increases_to_one(self):
        phi = s.Polynomial((0.5, 0.5))
        values = []
        for k in range(4, 13):
            a = 1.0 - 2.0 ** -k
            got = cr.l_statistic(phi, a)
            assert got == pytest.approx(half_shift_l_exact(a), abs=1e-9)
            values.append(got)
        assert all(x < y for x, y in zip(values, values[1:]))
        assert values[-1] > 0.8

    def test_three_routes_agree(self):
        for phi in (s.Polynomial((0.5, 0.5)), s.Moebius(0.4), s.Polynomial((0, 0, 1))):
            for a in (0.3, 0.9j, -0.7 + 0.2j):
                routes = cr.composite_norm_routes(phi, a)
                assert routes.spread() < 1e-10

    @pytest.mark.parametrize("entry", gallery.GALLERY, ids=lambda e: e.name)
    def test_is_gamma_of_the_shifted_symbol(self, entry):
        # L(a) = gamma(sigma_phi(a) . phi, a)
        phi = entry.symbol
        rng = np.random.default_rng(41)
        for r, t in zip(rng.uniform(0, 0.99, 6), rng.uniform(0, 1, 6)):
            a = r * np.exp(2j * math.pi * t)
            shifted = s.Compose(s.Moebius(complex(phi.eval(a))), phi)
            assert abs(cr.l_statistic(phi, a) - hardy.garsia_gamma(shifted, a)) <= 1e-10

    @pytest.mark.parametrize("name, a, grid_n", [
        ("square", 1 - 2.0 ** -9, 32768),
        ("half-shift", 0.9, 8192),
        ("nested-scale", 0.97, 8192),
    ])
    def test_route_stop_grids(self, name, a, grid_n):
        # the stop grid of the direct/Poisson refinement; an off-by-one
        # doubling or a reordered stop rule moves it
        routes = cr.composite_norm_routes(gallery.entry_by_name(name).symbol, a)
        assert routes.grid_n == grid_n and routes.settled


def fft_taylor_route(phi, a, base_n=4096):
    """The squared Taylor coefficients of sigma_b . phi . sigma_a summed from
    FFTs of its boundary values, the coefficient order at a quarter of the
    grid, the grid doubled until the sum moves by less than 1e-10 or reaches
    2^22: the reference for the closed-form route."""
    a = complex(a)
    b = complex(phi.eval(a))

    def taylor_route(n):
        composite = s.Compose(s.Moebius(b), phi).eval(moebius(a, s.roots_of_unity(n)))
        coeffs = np.fft.fft(composite) / n
        return float(np.sum(np.abs(coeffs[: n // 4]) ** 2))

    return s.refine(taylor_route, max(4096, base_n), 2 ** 22,
                    lambda prev, cur: prev is not None and abs(cur - prev) < 1e-10)[0]


ROUTE_SYMBOLS = {**{e.name: e.symbol for e in gallery.GALLERY},
                 "blaschke-3": s.Blaschke(1.0, (0.5, 0.3j, -0.6 + 0.2j)),
                 "blaschke-5": s.Blaschke(1.0, (0.5, 0.5j, -0.5, -0.5j, 0.3))}
INNER = {name: ROUTE_SYMBOLS[name]
         for name in ("identity", "square", "moebius-0.5", "blaschke-3", "blaschke-5")}


class TestTaylorRoute:
    @pytest.mark.parametrize("name", sorted(ROUTE_SYMBOLS))
    def test_matches_the_fft_route(self, name):
        phi = ROUTE_SYMBOLS[name]
        rng = np.random.default_rng(31)
        for k in (1, 3, 6):
            a = (1 - 2.0 ** -k) * np.exp(2j * math.pi * rng.uniform())
            routes = cr.composite_norm_routes(phi, a)
            assert abs(routes.taylor - fft_taylor_route(phi, a)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(INNER))
    def test_inner_symbols_read_one_at_1_minus_2_to_the_minus_10(self, name):
        rng = np.random.default_rng(32)
        for t in rng.uniform(0, 1, 8):
            a = (1 - 2.0 ** -10) * np.exp(2j * math.pi * t)
            routes = cr.composite_norm_routes(INNER[name], a)
            assert abs(routes.taylor - 1.0) <= 1e-9 and routes.settled

    @pytest.mark.parametrize("a", [0.0, 1e-8])
    def test_b_zero_and_tiny(self, a):
        # b = phi(a) = a^2 is 0 or 1e-16: h = sigma_b . phi is square itself
        square = INNER["square"]
        routes = cr.composite_norm_routes(square, a)
        assert abs(routes.taylor - 1.0) <= 1e-12
        assert abs(routes.taylor - fft_taylor_route(square, a)) <= 1e-12

    def test_quad_touch_near_minus_one(self):
        routes = cr.composite_norm_routes(gallery.entry_by_name("quad-touch").symbol, -0.999)
        assert routes.spread() <= 1e-12 and routes.settled

    def test_constant_reads_zero(self):
        assert cr.composite_norm_routes(s.Constant(0.3 - 0.2j), 0.7j).taylor == 0.0

    def test_composite_beyond_the_degree_cap_raises(self):
        phi = s.Compose(s.Blaschke(1.0, (0j,) * 9), s.Blaschke(1.0, (0.1,) * 8))
        with pytest.raises(nev.RationalFormError):
            cr.composite_norm_routes(phi, 0.3)

    def test_unsettled_doubling_is_reported(self, monkeypatch):
        monkeypatch.setattr(cr, "TAYLOR_SQUARINGS", 2)
        routes = cr.composite_norm_routes(INNER["square"], 0.9)
        assert not routes.settled

    @pytest.mark.parametrize("k", [9, 10])
    def test_square_settles_without_large_grids(self, k):
        # the FFT route stopped unconverged at 2^22 points here, 7e-8 to
        # 3e-7 short; one 2^22-point complex FFT alone is 64 MB
        a = (1.0 - 2.0 ** -k) * complex(math.cos(0.2 * math.pi), math.sin(0.2 * math.pi))
        tracemalloc.start()
        try:
            routes = cr.composite_norm_routes(INNER["square"], a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert routes.spread() <= 1e-8 and routes.settled
        assert peak < 16 * 2 ** 20


class TestArcStatistics:
    def test_identity_mean_over_full_circle_vanishes(self):
        val = cr.arc_mean(s.Identity(), Arc(Fraction(0), Fraction(1)))
        assert abs(val) < 1e-14

    def test_constant_mean(self):
        val = cr.arc_mean(s.Constant(0.2 + 0.1j), Arc(Fraction(1, 3), Fraction(1, 8)))
        assert val == pytest.approx(0.2 + 0.1j)

    def test_half_shift_means_approach_one(self):
        phi = s.Polynomial((0.5, 0.5))
        mags = [abs(cr.arc_mean(phi, arc_of(1 - 2.0 ** -k))) for k in (2, 5, 8, 11)]
        assert all(x < y for x, y in zip(mags, mags[1:]))
        assert mags[-1] > 0.999

    def test_under_resolved_arc_rejected(self):
        with pytest.raises(ValueError):
            cr.arc_mean(s.Identity(), Arc(Fraction(0), Fraction(1, 4)), samples=32)

    def test_double_average_constant(self):
        avg = cr.arc_double_average(s.Constant(0.5), arc_of(0.9))
        assert avg.value == 0.0

    def test_double_average_inner_map_near_one(self):
        sq = s.Blaschke(1.0, (0, 0))
        avg = cr.arc_double_average(sq, arc_of(0.75), samples=128)
        assert abs(avg.value - 1.0) <= 1.0 / 128 + 1e-12

    def test_center_average_identity_is_one(self):
        # rho between a boundary point and an interior point is exactly 1
        avg = cr.arc_center_average(s.Identity(), arc_of(0.9))
        assert avg.value == pytest.approx(1.0, abs=1e-12)

    def test_center_average_dominated_by_composite_norm(self):
        # |I|^-1 int_I rho^2 <= C int rho^2 P_a with C = 1/min(P|I|) < 5.44
        for phi in (s.Polynomial((0.5, 0.5)), s.Moebius(0.5), s.Scale(0.5, s.Identity())):
            for k in (2, 4, 6):
                a = 1 - 2.0 ** -k
                lhs = cr.arc_center_average(phi, arc_of(a), center=a).value
                rhs = cr.l_statistic(phi, a) ** 2
                assert lhs <= 5.44 * rhs + 1e-9

    @pytest.mark.parametrize("phi, a", [(s.Polynomial((0, 0.5, 0.5)), 1 - 2.0 ** -6),
                                        (s.Blaschke(1.0, (0, 0)), 0.9),
                                        (s.Moebius(0.5), 0.7j)])
    def test_double_average_matches_full_matrix(self, phi, a):
        arc = arc_of(a)
        vals = phi.eval(arc.sample_points(128))
        full = rho(vals[:, None], vals[None, :])
        rho2 = cr.arc_double_average(phi, arc, "rho2", 128)
        assert abs(rho2.value - np.mean(full ** 2)) <= 1e-14
        t, hits = tau_capped(full, cap=50.0, power=1.0)
        tau = cr.arc_double_average(phi, arc, ("tau", 1.0), 128, 50.0)
        assert abs(tau.value - np.mean(t)) <= 1e-14 * max(1.0, np.mean(t))
        assert tau.cap_hits == hits
        # tau^p with p <= 0 does not vanish on the diagonal the triangle omits
        for power in (0.0, -1.0):
            with pytest.raises(ValueError, match="tau power"):
                cr.arc_double_average(phi, arc, ("tau", power), 128, 50.0)

    def test_tau_metric_reports_caps(self):
        sq = s.Blaschke(1.0, (0, 0))
        avg = cr.arc_double_average(sq, arc_of(0.9), metric=("tau", 1.0), samples=64)
        assert avg.value > 10.0
        assert avg.cap_hits >= 0


class TestScalarStatistics:
    def test_w1_constant_is_null(self):
        assert cr.w1_statistic(s.Constant(0.0), 3, FAST) == pytest.approx(0.0, abs=1e-12)

    def test_w1_contraction_decays_geometrically(self):
        phi = s.Scale(0.5, s.Identity())
        vals = [cr.w1_statistic(phi, n, FAST) for n in (1, 2, 4)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[2] < 0.1
        # |(z/2)^n|_* = 2^-n sqrt(1 - |a|^(2n)) maximized on the grid
        assert vals[0] == pytest.approx(0.5 * math.sqrt(0.75), abs=1e-6)

    def test_w1_identity_stays_at_one(self):
        # grid lower bound: the true seminorm 1 is approached from radius 1/2
        assert cr.w1_statistic(s.Identity(), 8, FAST) == pytest.approx(1.0, abs=1e-4)

    def test_w2_constant_is_null(self):
        assert cr.w2_statistic(s.Constant(0.4), 0.7, FAST) == pytest.approx(0.0, abs=1e-12)

    def test_w2_dominates_l(self):
        grid = FAST.grid()
        for phi in (s.Identity(), s.Polynomial((0.5, 0.5)), s.Moebius(0.5)):
            for a in (grid[3], grid[40], grid[100]):
                a = complex(a)
                b = complex(phi.eval(a))
                lhs = cr.w2_statistic(phi, b, FAST, extra_points=(a,))
                assert lhs >= cr.l_statistic(phi, a) - 1e-10

    def test_w2_identity_at_deep_point(self):
        assert cr.w2_statistic(s.Identity(), 0.9, FAST) >= 1.0 - 1e-8

    def test_s2_constant(self):
        assert cr.s2_statistic(s.Constant(0.3), 0.5, 0.5) == 0.0

    def test_s2_identity_everything_above_threshold(self):
        assert cr.s2_statistic(s.Identity(), 0.0, 0.99) == 1.0

    def test_s2_threshold_guard(self):
        with pytest.raises(ValueError):
            cr.s2_statistic(s.Identity(), 0.0, 1.0)


_angles = st.floats(0.0, 2.0 * math.pi)
_points = st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.9), _angles)


@st.composite
def _polynomials(draw):
    """Polynomials with sum |c_k| <= 1: self-maps, some touching the circle."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    phases = draw(st.lists(_angles, min_size=len(weights), max_size=len(weights)))
    total = draw(st.floats(0.0, 1.0)) / max(sum(weights), 1e-12)
    return s.Polynomial(tuple(w * total * cmath.exp(1j * t) for w, t in zip(weights, phases)))


def _grow(inner):
    return st.one_of(inner, st.builds(s.Scale, st.floats(0.0, 1.0, exclude_min=True), inner),
                     st.builds(s.Compose, inner, inner))


#: valid self-maps: unimodular Blaschke factors, points |a| <= 0.9, and
#: scale and compose nodes to depth 2
self_maps = _grow(_grow(st.one_of(
    st.just(s.Identity()), st.builds(s.Constant, _points), _polynomials(),
    st.builds(s.Moebius, _points),
    st.builds(lambda t, zeros: s.Blaschke(cmath.exp(1j * t), tuple(zeros)),
              _angles, st.lists(_points, min_size=1, max_size=2)))))


class TestSelfMapBounds:
    """L <= 1 and S1 <= 1/(2e) for every self-map: the normalized composite
    fixes the origin and maps the disc into itself."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(self_maps, _angles)
    def test_l_and_s1_bounds(self, phi, angle):
        points = [r * cmath.exp(1j * angle) for r in (0.5, 0.9, 1.0 - 2.0 ** -8)]
        for a in points:
            assert cr.l_statistic(phi, a) <= 1.0 + hardy.GAMMA_TOL
        try:
            values = [v.value for v in nev.s1_statistics(phi, points)]
        except nev.RationalFormError:
            return
        assert max(values) <= 1.0 / (2.0 * math.e) + 1e-12


class TestProfiles:
    def test_constant_profiles_all_vacuous(self):
        sweep = cr.CriterionSweep(s.Constant(0.3), FAST)
        for kind in ("L", "S1", "A-double", "A-prime", "W2"):
            prof = sweep.profile(kind)
            assert all(v == 0.0 for v in prof.values())
            assert all(m["status"] == "vacuous" for m in prof.metadata["levels"])

    def test_identity_l_profile_pins_at_one(self):
        prof = cr.CriterionSweep(s.Identity(), FAST).profile("L")
        assert all(v == pytest.approx(1.0, abs=1e-7) for v in prof.values())

    def test_scaled_identity_profile_vacuous(self):
        prof = cr.CriterionSweep(s.Scale(0.5, s.Identity()), FAST).profile("L")
        assert all(v == 0.0 for v in prof.values())

    def test_approach_coordinates_increase(self):
        sweep = cr.CriterionSweep(s.Polynomial((0.5, 0.5)), FAST)
        for kind in ("L", "VMOA-iii", "S1", "A-double", "A-prime",
                     "A-hyp-double", "A-hyp-center", "W1", "W2"):
            prof = sweep.profile(kind)
            approaches = [a for a, _ in prof.points]
            assert all(x < y for x, y in zip(approaches, approaches[1:]))
            assert all(np.isfinite(v) for v in prof.values())

    def test_table_dispatches_every_kind(self):
        assert cr.PROFILE_KINDS == tuple(cr.CriterionSweep.PROFILES)
        sweep = cr.CriterionSweep(s.Scale(0.5, s.Identity()), FAST)
        for kind in cr.PROFILE_KINDS:
            prof = sweep.profile(kind)
            if kind == "S2":
                assert [p.kind for p in prof] == ["S2"] * len(FAST.s2_radii)
            else:
                assert prof.kind == kind

    def test_rho_kind_values_within_unit_range(self):
        sweep = cr.CriterionSweep(s.Moebius(0.5), FAST)
        for kind in ("A-double", "A-prime"):
            prof = sweep.profile(kind)
            assert all(0.0 <= v <= 1.0 + 1e-12 for v in prof.values())

    def test_unresolved_levels_are_dropped(self):
        # z(1+z)/2 cannot reach the deepest level on this grid: the level is
        # recorded as unresolved and contributes no point
        prof = cr.CriterionSweep(s.Polynomial((0, 0.5, 0.5)),
                                 cr.SweepSettings(depth=12, angles=16, w2_angles=8,
                                                  s2_boundary_n=1024)).profile("L")
        statuses = [m["status"] for m in prof.metadata["levels"]]
        assert statuses[-1] == "unresolved"
        assert len(prof.points) == statuses.count("ok") + statuses.count("vacuous")

    def test_l_values_bit_identical_to_row_by_row(self):
        # nested-scale's composite norm is constant on each ring, so the grid
        # points of a ring tie up to rounding, and W2 evaluates
        # sigma_{phi(a*)} . phi at whichever tied point a* wins the argmax.
        # A rewrite of the sweep that moved values by 6.5e-10 flipped that
        # argmax and moved the depth-11 W2 value at level 0.9375 from 0.67640
        # to 0.65446; chunking may change, the per-row arithmetic may not
        phi = s.Compose(s.Moebius(0.7), s.Scale(0.9, s.Identity()))
        sweep = cr.CriterionSweep(phi, cr.SweepSettings(depth=9, angles=16))
        expected = np.empty(len(sweep.grid))
        for i, (a, b) in enumerate(zip(sweep.grid, sweep.phi_at_grid)):
            size = hardy.grid_size_for(a, sweep.settings.base_n)
            boundary = hardy.sample_boundary(phi, size)
            zeta = s.roots_of_unity(size)
            aa, bb = np.array([[a]]), np.array([[b]])
            pk = (1.0 - np.abs(aa) ** 2) / np.abs(zeta[None, :] - aa) ** 2
            rr = rho(boundary[None, :], bb) ** 2
            expected[i] = np.sqrt(np.maximum(np.mean(rr * pk, axis=1), 0.0))[0]
        assert np.array_equal(sweep.l_values(), expected)

    def test_w2_memo_shares_argmax_points(self, monkeypatch):
        calls = []
        real = cr.w2_statistic

        def counting(phi, b, settings=None, extra_points=()):
            calls.append(extra_points)
            return real(phi, b, settings, extra_points)

        monkeypatch.setattr(cr, "w2_statistic", counting)
        # every level of (1+z)/2 has its largest composite norm at the same
        # deepest-ring point near 1, so the five levels need one statistic
        prof = cr.CriterionSweep(s.Polynomial((0.5, 0.5)), FAST).profile("W2")
        assert len(prof.points) == 5
        assert len(calls) == 1

    @pytest.mark.parametrize("phi", [s.Polynomial((0, 0.5, 0.5)),
                                     s.Blaschke(1.0, (0.3, -0.5j, 0.4 + 0.4j))],
                             ids=["touching", "blaschke-3"])
    def test_sweep_arc_averages_equal_public_functions(self, phi):
        # the sweep samples each arc once and reduces it in place; every
        # per-point value must stay == to the public arc functions.  The
        # centre value is phi at the scalar a: the array evaluation behind
        # phi_at_grid differs in the last bits for Blaschke products
        sweep = cr.CriterionSweep(phi, FAST)
        for i, a in enumerate(sweep.grid):
            arc = arc_of(complex(a))
            assert sweep.arc_means()[i] == cr.arc_mean(phi, arc, FAST.arc_samples)
            for metric in ("rho2", ("tau", FAST.tau_power)):
                assert sweep._arc_double(i, metric) == cr.arc_double_average(
                    phi, arc, metric, FAST.arc_samples, FAST.tau_cap)
                assert sweep._arc_center(i, metric) == cr.arc_center_average(
                    phi, arc, metric, FAST.arc_samples, FAST.tau_cap, center=a)

    def test_double_kinds_share_each_arc_rho_matrix(self, monkeypatch):
        matrices = []
        real = cr.rho_parts
        pairs = FAST.arc_samples * (FAST.arc_samples - 1) // 2

        def counting(zr, zi, wr, wi):
            out = real(zr, zi, wr, wi)
            if np.size(out) > FAST.arc_samples:
                matrices.append(out.shape)
            return out

        monkeypatch.setattr(cr, "rho_parts", counting)
        sweep = cr.CriterionSweep(s.Polynomial((0, 0.5, 0.5)), FAST)
        sweep.profile("A-double")
        from_a_double = len(matrices)
        sweep.profile("A-hyp-double")
        first_level = FAST.levels()[0][1]
        witnesses = set(np.nonzero(np.abs(sweep.arc_means()) >= first_level)[0].tolist())
        rings = set(range((FAST.level_start - 1) * FAST.angles, FAST.depth * FAST.angles))
        assert 0 < from_a_double < len(matrices)
        assert len(matrices) == len(witnesses | rings)
        assert set(matrices) == {(pairs,)}

    def test_tau_means_only_on_the_hyp_double_rings(self, monkeypatch):
        calls = []
        real = cr.tau_capped

        def counting(r, cap, power, axis=None):
            calls.append(np.size(r))
            return real(r, cap=cap, power=power, axis=axis)

        monkeypatch.setattr(cr, "tau_capped", counting)
        sweep = cr.CriterionSweep(s.Polynomial((0, 0.5, 0.5)), FAST)
        sweep.profile("A-double")
        first_level = FAST.levels()[0][1]
        witnesses = set(np.nonzero(np.abs(sweep.arc_means()) >= first_level)[0].tolist())
        rings = set(range((FAST.level_start - 1) * FAST.angles, FAST.depth * FAST.angles))
        assert len(calls) == len(witnesses & rings) > 0
        sweep.profile("A-hyp-double")
        assert len(calls) == len(rings)

    def test_s1_profile_calls_in_chunks(self, monkeypatch):
        sizes = []
        real_chunk = nev._s1_chunk

        def counting(phi, lowered, points):
            sizes.append(len(points))
            return real_chunk(phi, lowered, points)

        monkeypatch.setattr(nev, "_s1_chunk", counting)
        settings = cr.SweepSettings(depth=8, angles=32)
        sweep = cr.CriterionSweep(s.Identity(), settings)
        prof = sweep.profile("S1")
        first = np.nonzero(np.abs(sweep.phi_at_grid) >= settings.levels()[0][1])[0]
        assert len(sizes) > 1 and max(sizes) <= nev.S1_CHUNK
        assert sum(sizes) == len(first)
        values = [v.value for v in nev.s1_statistics(sweep.phi, sweep.grid[first])]
        for level, value in prof.points:
            on_level = np.abs(sweep.phi_at_grid[first]) >= level
            assert value == max(np.asarray(values)[on_level])

    def test_settings_without_ladder_levels_are_rejected(self):
        # depth < level_start would leave every profile without a level
        with pytest.raises(cr.ConfigError, match="level_start <= depth"):
            cr.SweepSettings(depth=3, angles=8)

    @pytest.mark.parametrize("phi", [s.Polynomial((0.5, 0.5)), s.Polynomial((0, 0.5, 0.5))],
                             ids=["half-shift", "quad-touch"])
    def test_s2_profile_is_the_pointwise_maximum(self, phi):
        # every level of every R is the largest s2_statistic over the points
        # with |phi(a)| <= R, the origin among them
        sweep = cr.CriterionSweep(phi, FAST)
        points = np.concatenate([[0j], sweep.grid])
        moduli = np.abs(phi.eval(points))
        profiles = sweep.profile("S2")
        assert [p.metadata["R"] for p in profiles] == list(FAST.s2_radii)
        for prof in profiles:
            eligible = points[moduli <= prof.metadata["R"]]
            assert prof.metadata["eligible_points"] == len(eligible)
            assert len(prof.points) == FAST.depth - cr.S2_LEVEL_START + 1
            for t, value in prof.points:
                assert value == max([0.0] + [cr.s2_statistic(phi, a, t, FAST.s2_boundary_n)
                                             for a in eligible])

    def test_ring_kinds_record_their_levels(self):
        sweep = cr.CriterionSweep(s.Polynomial((0.5, 0.5)), FAST)
        for kind in ("VMOA-iii", "A-hyp-double", "A-hyp-center"):
            levels = sweep.profile(kind).metadata["levels"]
            assert [m["k"] for m in levels] == [k for k, _ in FAST.levels()]
            assert all(m["status"] == "ok" and m["witnesses"] == FAST.angles
                       for m in levels)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cr.CriterionSweep(s.Identity(), FAST).profile("Q")


class TestVerdict:
    def test_strict_map_shortcut_reason(self):
        sweep = cr.CriterionSweep(s.Scale(0.5, s.Identity()), FAST)
        report = cr.verdict(s.Scale(0.5, s.Identity()),
                            {"L": sweep.profile("L")}, FAST)
        assert report.classification == "compact-evidence"
        assert any("vacuous" in r for r in report.reasons)

    def test_identity_fails(self):
        sweep = cr.CriterionSweep(s.Identity(), FAST)
        report = cr.verdict(s.Identity(), {"L": sweep.profile("L")}, FAST)
        assert report.classification == "non-compact-evidence"

    def test_half_shift_s2_flag(self):
        phi = s.Polynomial((0.5, 0.5))
        settings = cr.SweepSettings(depth=12, angles=32, w2_angles=8)
        sweep = cr.CriterionSweep(phi, settings)
        report = cr.verdict(phi, {"L": sweep.profile("L"), "S2": sweep.profile("S2")},
                            settings)
        assert report.classification == "non-compact-evidence"
        assert report.s2_flag == "satisfied"

    def test_requires_l_profile(self):
        with pytest.raises(ValueError):
            cr.verdict(s.Identity(), {}, FAST)

    def test_contradiction_reported_as_inconsistent(self):
        fake_vanish = cr.CriterionProfile("L", ((0.9, 0.2), (0.95, 0.1), (0.975, 0.01)))
        fake_fail = cr.CriterionProfile("W2", ((0.9, 0.9), (0.95, 0.9), (0.975, 0.9)))
        report = cr.verdict(s.Identity(), {"L": fake_vanish, "W2": fake_fail}, FAST)
        assert report.classification == "inconsistent"
        assert not report.consistent

    def test_classify_profile_rules(self):
        vanish = cr.CriterionProfile("L", ((0.9, 0.4), (0.95, 0.2), (0.975, 0.1), (0.99, 0.05)))
        fail = cr.CriterionProfile("L", ((0.9, 0.4), (0.95, 0.5), (0.975, 0.6), (0.99, 0.7)))
        bumpy = cr.CriterionProfile("L", ((0.9, 0.01), (0.95, 0.05), (0.975, 0.01), (0.99, 0.04)))
        assert cr.classify_profile(vanish, 0.15, 0.1) == "vanishing"
        assert cr.classify_profile(fail, 0.15, 0.1) == "failing"
        assert cr.classify_profile(bumpy, 0.15, 0.1) == "inconclusive"
