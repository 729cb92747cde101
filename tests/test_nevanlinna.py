import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import criteria as cr
from oscillab import nevanlinna as nv
from oscillab import symbols as s
from oscillab.gallery import GALLERY

RNG = np.random.default_rng(16180)


class TestToRational:
    def test_identity(self):
        r = nv.to_rational(s.Identity())
        assert r.num == (0j, 1 + 0j) and r.den == (1 + 0j,)

    def test_moebius(self):
        r = nv.to_rational(s.Moebius(0.5))
        z = 0.3 - 0.2j
        assert r.eval(z) == pytest.approx((0.5 - z) / (1 - 0.5 * z))

    def test_composition_substitutes(self):
        phi = s.Compose(s.Moebius(0.5), s.Polynomial((0, 0, 1)))
        r = nv.to_rational(phi)
        z = RNG.uniform(-0.7, 0.7, 1000) + 1j * RNG.uniform(-0.5, 0.5, 1000)
        z = z[np.abs(z) < 0.97]
        assert np.max(np.abs(r.eval(z) - phi.eval(z))) < 1e-10

    def test_blaschke_and_scale(self):
        phi = s.Scale(0.8, s.Blaschke(1j, (0.2, -0.4j)))
        r = nv.to_rational(phi)
        z = 0.55 * np.exp(2j * np.pi * RNG.uniform(0, 1, 100))
        assert np.max(np.abs(r.eval(z) - phi.eval(z))) < 1e-12

    def test_degree_cap(self):
        with pytest.raises(nv.RationalFormError):
            nv.to_rational(s.Polynomial(tuple([0.0] * 65 + [0.5])))

    def test_pole_in_disc_rejected(self):
        with pytest.raises(nv.RationalFormError):
            nv.RationalForm((1,), (1, -2))  # pole at 1/2

    def test_negligible_leading_denominator_coefficient(self):
        # the zero 1e-43 puts a denominator root at 1e43; left in the
        # companion matrix, it scatters the triple root at 2 into the disc
        phi = s.Blaschke(1, (0.5, 0.5, 0.5, 1e-43))
        r = nv.to_rational(phi)
        z = 0.6 * np.exp(2j * np.pi * RNG.uniform(0, 1, 50))
        assert np.max(np.abs(r.eval(z) - phi.eval(z))) < 1e-12


class TestPreimages:
    def test_square_root_pair(self):
        pre = nv.preimages(nv.to_rational(s.Polynomial((0, 0, 1))), 0.25)
        assert sorted(z.real for z in pre.roots) == pytest.approx([-0.5, 0.5], abs=1e-12)

    def test_moebius_single_root(self):
        psi = nv.to_rational(s.Moebius(0.4))
        w = 0.3 + 0.1j
        pre = nv.preimages(psi, w)
        assert len(pre.roots) == 1
        expected = (0.4 - w) / (1 - 0.4 * w)
        assert pre.roots[0] == pytest.approx(expected, abs=1e-12)

    def test_constant_has_no_preimages(self):
        pre = nv.preimages(nv.to_rational(s.Constant(0.3)), 0.5)
        assert pre.roots == ()

    def test_boundary_ambiguity_flag(self):
        psi = nv.to_rational(s.Polynomial((0, 0, 1)))
        pre = nv.preimages(psi, 1.0 - 1e-9)
        assert pre.boundary_ambiguous

    def test_residuals_are_polished(self):
        psi = nv.to_rational(s.power(s.Identity(), 6))
        pre = nv.preimages(psi, 0.4 + 0.1j)
        assert pre.residual < 1e-12


class TestCountingFunction:
    def test_power_closed_form(self):
        for n in range(1, 9):
            psi = nv.to_rational(s.power(s.Identity(), n))
            for _ in range(10):
                w = (0.05 + 0.9 * RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform())
                val = nv.counting_function(psi, complex(w))
                assert abs(val - math.log(1 / abs(w))) < 1e-10

    def test_moebius_closed_form(self):
        psi = nv.to_rational(s.Moebius(0.4))
        w = 0.3
        expected = math.log(1 / abs((0.4 - 0.3) / (1 - 0.12)))
        assert nv.counting_function(psi, w) == pytest.approx(expected, abs=1e-12)

    def test_empty_sum_is_zero(self):
        psi = nv.to_rational(s.Constant(0.3))
        assert nv.counting_function(psi, 0.6) == 0.0

    def test_domain_guards(self):
        psi = nv.to_rational(s.Identity())
        with pytest.raises(ValueError):
            nv.counting_function(psi, 0.0)
        with pytest.raises(ValueError):
            nv.counting_function(psi, 1.2)
        with pytest.raises(ValueError):
            nv.counting_function(nv.to_rational(s.Constant(0.3)), 0.3)

    def test_littlewood_bound(self):
        # N(psi, w) <= log |1 - conj(w) psi(0)| - log |psi(0) - w|
        symbols = [s.Polynomial((0.1, 0.5, 0.3)), s.Moebius(0.6),
                   s.Compose(s.Moebius(0.5), s.Polynomial((0, 0, 1)))]
        for phi in symbols:
            psi = nv.to_rational(phi)
            p0 = psi.at_zero()
            for _ in range(30):
                w = 0.9 * math.sqrt(RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform())
                w = complex(w)
                if abs(w) < 1e-3 or abs(w - p0) < 1e-3:
                    continue
                bound = math.log(abs(1 - np.conj(w) * p0)) - math.log(abs(p0 - w))
                assert nv.counting_function(psi, w) <= bound + 1e-9

    def test_stability_under_perturbation(self):
        psi = nv.to_rational(s.Compose(s.Moebius(0.5), s.Polynomial((0, 0, 1))))
        for _ in range(20):
            w = complex(0.7 * math.sqrt(RNG.uniform())
                        * np.exp(2j * np.pi * RNG.uniform()))
            if abs(w) < 1e-3 or abs(w - psi.at_zero()) < 1e-2:
                continue
            base = nv.counting_function(psi, w)
            moved = nv.counting_function(psi, w + 1e-10)
            assert abs(base - moved) < 1e-6


class TestS1Statistic:
    def test_identity_optimizes_w2_log(self):
        # composite is a rotation: sup |w|^2 log(1/|w|) = 1/(2e) at |w| = e^(-1/2)
        for a in (0.3, 0.8j, -0.6 + 0.3j):
            out = nv.s1_statistic(s.Identity(), a)
            assert out.value == pytest.approx(1.0 / (2 * math.e), abs=1e-4)
            assert abs(out.argmax_w) == pytest.approx(math.exp(-0.5), abs=1e-2)

    def test_constant_vanishes(self):
        out = nv.s1_statistic(s.Constant(0.3), 0.5)
        assert out.value == 0.0

    def test_grid_is_deterministic(self):
        g1, g2 = nv.default_w_grid(), nv.default_w_grid()
        assert np.array_equal(g1, g2)
        assert np.all((np.abs(g1) > 0) & (np.abs(g1) < 1))

    def test_half_shift_stays_bounded_below_on_ladder(self):
        phi = s.Polynomial((0.5, 0.5))
        values = [nv.s1_statistic(phi, 1 - 2.0 ** -k).value for k in (4, 8, 12)]
        assert all(v > 0.1 for v in values)
        # composite tends to a rotation, so the statistic approaches 1/(2e)
        assert values[-1] == pytest.approx(1.0 / (2 * math.e), abs=5e-3)


class TestBatchedS1:
    @pytest.mark.parametrize("entry", GALLERY, ids=[e.name for e in GALLERY])
    def test_batch_matches_per_point_lowering(self, entry, monkeypatch):
        sweep = cr.CriterionSweep(entry.symbol, cr.SweepSettings(depth=8, angles=16))
        first = sweep.settings.levels()[0][1]
        points = sweep.grid[np.abs(sweep.phi_at_grid) >= first]
        batch = nv.s1_statistics(entry.symbol, points)

        def per_point(lowered, chunk, images, cand):
            # every count from the preimages of each point's lowered composite
            rows = [composite_counts(entry.symbol, complex(a), ws) for a, ws in zip(chunk, cand)]
            return np.array([v for v, _ in rows]).reshape(cand.shape), np.array([f for _, f in rows])

        monkeypatch.setattr(nv, "_pullback_counts", per_point)
        single = [nv.s1_statistic(entry.symbol, a) for a in points]
        assert len(batch) == len(points)
        for got, want in zip(batch, single):
            assert abs(got.value - want.value) <= 1e-12
            assert got.flagged == want.flagged

    @pytest.mark.parametrize("phi", [s.Identity(), s.Polynomial((0, 0, 1)), s.Moebius(0.5),
                                     s.Blaschke(1.0, (0.3, -0.4j, 0.5 + 0.2j))],
                             ids=["identity", "square", "moebius", "blaschke-3"])
    def test_inner_symbols_give_frostman_value(self, phi):
        # sigma_phi(a) . phi . sigma_a is inner and fixes 0, and for every
        # such psi sup |w|^2 N(psi, w) = 1/(2e) (Shapiro, Ann. of Math. 1987)
        points = [0.0, 0.5, 0.9j, -0.6 + 0.3j, 1 - 2.0 ** -8]
        for value in nv.s1_statistics(phi, points):
            assert value.value == pytest.approx(1.0 / (2 * math.e), abs=1e-4)

    def test_w_grid_is_cached_and_read_only(self):
        grid = nv.default_w_grid()
        assert grid is nv.default_w_grid()
        before = grid.copy()
        with pytest.raises(ValueError):
            grid[0] = 0.0
        assert np.array_equal(nv.default_w_grid(), before)

    def test_points_spanning_chunks_match_one_chunk(self):
        phi = s.Polynomial((0, 0.5, 0.5))
        points = 0.9 * np.exp(2j * np.pi * np.arange(nv.S1_CHUNK + 5) / (nv.S1_CHUNK + 5))
        tail = slice(nv.S1_CHUNK - 5, None)
        assert nv.s1_statistics(phi, points)[tail] == nv.s1_statistics(phi, points[tail])

    def test_lowering_errors_surface_per_point(self):
        with pytest.raises(s.SymbolError):
            nv.s1_statistics(s.Identity(), [0.5, 1.0])


FROSTMAN = 1.0 / (2 * math.e)

#: degree 1-6 symbols: inner, touching, strict, composed, and two whose
#: phi(infinity) = 0.4 * sigma_0.5(infinity) = 0.8 lies in the disc
PULLBACK_SYMBOLS = {
    "square": s.Polynomial((0, 0, 1)),
    "half-shift": s.Polynomial((0.5, 0.5)),
    "quad-touch": s.Polynomial((0, 0.5, 0.5)),
    "moebius-0.5": s.Moebius(0.5),
    "nested-scale": s.Compose(s.Moebius(0.7), s.Scale(0.9, s.Identity())),
    "drop-1": s.Scale(0.4, s.Moebius(0.5)),
    "blaschke-3": s.Blaschke(1.0, (0.3, -0.4j, 0.5 + 0.2j)),
    "blaschke-5": s.Blaschke(1j, (0.5, 0.5j, -0.5, -0.5j, 0.3)),
    "touch-4": s.Polynomial((0, 0.25, 0.25, 0.25, 0.25)),
    "moebius-touch-6": s.Compose(s.Moebius(0.3 + 0.2j),
                                 s.Polynomial((0.1, 0.2, 0, 0.3, 0, 0, 0.4))),
    "drop-3": s.Compose(s.Scale(0.4, s.Moebius(0.5)), s.Polynomial((0, 1 / 3, 1 / 3, 1 / 3))),
}


def composite_form(phi, a):
    """sigma_phi(a) . phi . sigma_a lowered as one symbol tree."""
    b = complex(phi.eval(a))
    return nv.to_rational(s.Compose(s.Moebius(b), s.Compose(phi, s.Moebius(a))))


def composite_counts(phi, a, ws):
    """N and the boundary flag through the per-point lowering of the
    composite: the rows p - w q of ``preimages``, each scaled by its largest
    coefficient and cut below its last coefficient of at least 1e-13, with
    the rows of each degree solved by one ``_polished_roots`` call."""
    psi = composite_form(phi, a)
    p = np.zeros(psi.degree + 1, dtype=complex)
    q = np.zeros(psi.degree + 1, dtype=complex)
    p[: len(psi.num)], q[: len(psi.den)] = psi.num, psi.den
    rows = p - np.asarray(ws, dtype=complex)[:, None] * q
    rows /= np.max(np.abs(rows), axis=1, keepdims=True)
    kept = np.abs(rows) >= 1e-13
    degree = len(p) - 1 - np.argmax(kept[:, ::-1], axis=1)
    values = np.zeros(len(rows))
    flagged = False
    for e in np.unique(degree[degree > 0]):
        sel = degree == e
        mods = np.abs(nv._polished_roots(rows[sel, : e + 1]))
        values[sel] = -np.log(np.where(mods < 1.0, mods, 1.0)).sum(axis=1)
        flagged |= bool(np.any(np.abs(mods - 1.0) <= nv.BOUNDARY_AMBIGUITY))
    return values, flagged


def unit(angle):
    return complex(math.cos(angle), math.sin(angle))


class TestPullbackS1:
    @pytest.mark.parametrize("k", [8, 12, 16])
    def test_degree5_blaschke_gives_frostman_value_near_the_circle(self, k):
        # the composite's own lowering gets a denominator root inside the
        # disc here; the pullback never builds it
        phi = s.Blaschke(1, (0.5, 0.5j, -0.5, -0.5j, 0.3))
        assert nv.s1_statistic(phi, 1.0 - 2.0 ** -k).value == pytest.approx(FROSTMAN, abs=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 2 * math.pi)),
                    min_size=1, max_size=6),
           st.floats(0.0, 2 * math.pi), st.sampled_from([0.0, 0.5, 0.9, 1 - 2.0 ** -8,
                                                         1 - 2.0 ** -13]),
           st.floats(0.0, 2 * math.pi))
    def test_blaschke_products_give_frostman_value(self, zeros, turn, radius, angle):
        phi = s.Blaschke(unit(turn), tuple(r * unit(t) for r, t in zeros))
        value = nv.s1_statistic(phi, radius * unit(angle)).value
        assert value == pytest.approx(FROSTMAN, abs=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), st.floats(0.05, 1.0),
           st.sampled_from([0.5, 0.9, 1 - 2.0 ** -8, 1 - 2.0 ** -13]),
           st.floats(-0.5, 0.5))
    def test_touching_polynomials_obey_littlewood(self, weights, top, radius, angle):
        # N(psi, w) <= log 1/|w| for every self-map psi with psi(0) = 0
        weights = [*weights, top]
        phi = s.Polynomial(tuple(c / sum(weights) for c in weights))
        value = nv.s1_statistic(phi, radius * unit(angle)).value
        assert 0.0 <= value <= FROSTMAN + 1e-12

    @pytest.mark.parametrize("name", sorted(PULLBACK_SYMBOLS))
    def test_counts_match_the_composite_lowering(self, name):
        phi = PULLBACK_SYMBOLS[name]
        points = np.array([0.4 - 0.3j, 0.7j, -0.6 + 0.1j])
        ws = nv.default_w_grid()
        counts, flags = nv._pullback_counts(nv.to_rational(phi), points, phi.eval(points),
                                            np.broadcast_to(ws, (len(points), len(ws))))
        for i, a in enumerate(points):
            values, flagged = composite_counts(phi, complex(a), ws)
            assert np.max(np.abs(counts[i] - values)) <= 1e-9
            assert flags[i] == flagged

    @pytest.mark.parametrize("name", sorted(PULLBACK_SYMBOLS))
    def test_reference_counts_match_preimages(self, name):
        phi = PULLBACK_SYMBOLS[name]
        ws = nv.default_w_grid()[::8]
        for a in (0.4 - 0.3j, -0.6 + 0.1j):
            pres = [nv.preimages(composite_form(phi, a), complex(w)) for w in ws]
            values, flagged = composite_counts(phi, a, ws)
            want = [sum(-math.log(abs(z)) for z in pre.roots) for pre in pres]
            assert np.max(np.abs(values - want)) <= 1e-13
            assert flagged == any(pre.boundary_ambiguous for pre in pres)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degree_drop_at_phi_of_infinity(self):
        # the lost root sits at infinity and counts nothing, without a NaN
        for name, degree in (("drop-1", 1), ("drop-3", 3)):
            phi = PULLBACK_SYMBOLS[name]
            lowered = nv.to_rational(phi)
            assert lowered.degree == degree
            assert lowered.num[-1] / lowered.den[-1] == pytest.approx(0.8, abs=1e-14)
            for a in (0.0, 0.3 + 0.2j, -0.5j):
                b = complex(phi.eval(a))
                w = (b - 0.8) / (1 - np.conj(b) * 0.8)     # sigma_b(w) = phi(infinity)
                counts, _ = nv._pullback_counts(lowered, np.array([a]), np.array([b]),
                                                np.array([[w]]))
                values, _ = composite_counts(phi, a, [w])
                assert abs(counts[0, 0] - values[0]) <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_square_at_the_origin_raises_no_warning(self):
        assert nv.s1_statistic(PULLBACK_SYMBOLS["square"], 0.0).value == pytest.approx(
            FROSTMAN, abs=1e-4)

    def test_linear_roots_match_the_quadratic_formula(self):
        # degree-1 rows skip _quadratic_roots; its root for a zero leading
        # coefficient is the same, bit for bit
        rng = np.random.default_rng(41)
        c0, c1 = (rng.normal(size=(2, 400)) + 1j * rng.normal(size=(2, 400))) / 2
        c1[:100] *= 10.0 ** rng.uniform(-16, -11, 100)
        c1[:10] = 0.0
        first, second = nv._quadratic_roots(c0, c1, 0.0)
        assert np.array_equal(nv._linear_roots(c0, c1), first)
        assert np.all(np.isinf(second))

    def test_double_root_at_the_origin_counts_twice(self):
        # w = phi(a) = 1/4 on the w-grid: p - sigma_b(w) q = z^2 has the
        # double root 0, the preimage sigma_a(0) = a = 1/2 counted twice
        phi = PULLBACK_SYMBOLS["square"]
        counts, _ = nv._pullback_counts(nv.to_rational(phi), np.array([0.5 + 0j]),
                                        np.array([0.25 + 0j]), np.array([[0.25 + 0j]]))
        assert counts[0, 0] == pytest.approx(2 * math.log(2), abs=1e-14)

    @pytest.mark.parametrize("name", ["blaschke-5", "moebius-touch-6"])
    def test_chunk_equals_point_by_point(self, name):
        phi = PULLBACK_SYMBOLS[name]
        points = [0.2, 0.6 - 0.3j, 0.9j, (1 - 2.0 ** -10) * unit(1.0), 1 - 2.0 ** -6]
        assert nv.s1_statistics(phi, points) == [nv.s1_statistic(phi, a) for a in points]

    def test_point_errors_surface(self):
        phi = PULLBACK_SYMBOLS["blaschke-3"]
        with pytest.raises(s.SymbolError):
            nv.s1_statistics(phi, [0.5, 1.0])
        for points in ([0.5], []):
            with pytest.raises(nv.RationalFormError):
                nv.s1_statistics(s.power(s.Identity(), nv.DEGREE_CAP + 1), points)
