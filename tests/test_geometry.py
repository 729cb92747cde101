import math
from fractions import Fraction

import numpy as np
import pytest

from oscillab import geometry as g

RNG = np.random.default_rng(20260810)


def random_interior(n, radius=0.99):
    r = radius * np.sqrt(RNG.uniform(0, 1, n))
    th = 2 * np.pi * RNG.uniform(0, 1, n)
    return r * np.exp(1j * th)


class TestMoebius:
    def test_exchanges_zero_and_base_point(self):
        assert g.moebius(0.5, 0.0) == pytest.approx(0.5)
        assert g.moebius(0.5, 0.5) == pytest.approx(0.0)
        assert g.moebius(0.5, -0.5) == pytest.approx(0.8)

    def test_rejects_non_interior_parameter(self):
        with pytest.raises(g.GeometryError):
            g.moebius(1.0, 0.2)

    def test_involution(self):
        a = random_interior(1000)
        z = random_interior(1000)
        back = g.moebius(0, 0)  # warm scalar path
        for ai, zi in zip(a[:1000], z[:1000]):
            back = g.moebius(ai, g.moebius(ai, zi))
            assert abs(back - zi) < 1e-12

    def test_maps_circle_to_circle(self):
        zeta = np.exp(2j * np.pi * RNG.uniform(0, 1, 200))
        out = g.moebius(0.3 - 0.4j, zeta)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12


class TestPseudoHyperbolic:
    def test_center_distance_is_modulus(self):
        assert float(g.rho(0.0, 0.7)) == pytest.approx(0.7)

    def test_coincident_boundary_points_give_zero(self):
        zeta = np.exp(1j * np.pi / 3)
        assert float(g.rho(zeta, zeta)) == 0.0

    def test_distinct_boundary_points_give_one(self):
        assert float(g.rho(1.0, 1j)) == pytest.approx(1.0)

    def test_symmetry_and_triangle(self):
        pts = random_interior(300)
        for z, w, v in zip(pts[:100], pts[100:200], pts[200:]):
            assert float(g.rho(z, w)) == float(g.rho(w, z))
            lhs = float(g.rho(z, v))
            rhs = float(g.rho(z, w)) + float(g.rho(w, v))
            assert lhs <= rhs + 1e-12

    def test_moebius_invariance(self):
        pts = random_interior(300)
        for a, z, w in zip(pts[:100], pts[100:200], pts[200:]):
            d0 = float(g.rho(z, w))
            d1 = float(g.rho(g.moebius(a, z), g.moebius(a, w)))
            assert abs(d0 - d1) < 1e-12

    def test_range(self):
        z = random_interior(500)
        w = random_interior(500)
        vals = g.rho(z, w)
        assert np.all(vals >= 0) and np.all(vals <= 1)


def rho_oracle(z, w):
    # the pseudo-hyperbolic expression as first written; the L sweep's argmax
    # over rounding ties depends on these exact per-element operations
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    num2 = (zr - wr) ** 2 + (zi - wi) ** 2
    cross = zr * wr + zi * wi
    mod2 = (zr * zr + zi * zi) * (wr * wr + wi * wi)
    den2 = 1.0 - 2.0 * cross + mod2
    safe = np.where(den2 > 0.0, den2, 1.0)
    out = np.where(den2 > 0.0, np.sqrt(num2 / safe),
                   np.where(num2 == 0.0, 0.0, 1.0))
    return np.clip(out, 0.0, 1.0)


class TestRhoKernel:
    @staticmethod
    def assert_bits(z, w):
        with np.errstate(all="ignore"):
            want = rho_oracle(z, w)
            got, swapped = g.rho(z, w), g.rho(w, z)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(swapped, got, equal_nan=True)

    def test_random_interior_pairs(self):
        self.assert_bits(random_interior(5000), random_interior(5000))

    def test_row_by_column_broadcast(self):
        # the shape of the L sweep: boundary values by a column of centres
        boundary = random_interior(4096, radius=1.0)
        self.assert_bits(boundary[None, :], random_interior(32)[:, None])

    def test_zero_dimensional(self):
        z, w = random_interior(2)
        self.assert_bits(z, w)
        self.assert_bits(np.asarray(z), 0.5)
        assert isinstance(g.rho(z, w), np.float64)

    def test_unimodular_points(self):
        # den2 <= 0 on the circle: coincident points give 0, distinct ones 1
        zeta = np.exp(2j * np.pi * RNG.uniform(0, 1, 64))
        self.assert_bits(zeta, zeta)
        self.assert_bits(zeta, zeta[::-1])
        self.assert_bits(zeta[:, None], zeta[None, :])
        self.assert_bits(zeta, random_interior(64))

    def test_nan_and_huge_input(self):
        z = np.array([np.nan, 0.5, np.nan * 1j, 1e200, np.inf, 0.3j])
        w = np.array([0.5, complex(np.nan, 0.1), 0.2, 0.3, 0.1j, 1e300])
        self.assert_bits(z, w)
        self.assert_bits(z[:, None], w[None, :])

    def test_parts_entry_point(self):
        z, w = random_interior(300), random_interior(300)
        got = g.rho_parts(z.real.copy(), z.imag.copy(), w.real.copy(), w.imag.copy())
        assert np.array_equal(got, rho_oracle(z, w))


class TestHyperbolic:
    def test_half_log_three(self):
        assert float(g.tau(0.0, 0.5)) == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_zero_on_diagonal(self):
        assert float(g.tau(0.3 + 0.2j, 0.3 + 0.2j)) == 0.0

    def test_infinite_between_distinct_boundary_points(self):
        assert float(g.tau(1.0, -1.0)) == math.inf

    def test_cap_counts_activations(self):
        r = np.array([0.1, 1.0, 0.5, 1.0])
        vals, hits = g.tau_capped(r, cap=50.0)
        assert hits == 2
        assert np.max(vals) == 50.0

    def test_tau_from_rho_matches_the_guarded_expression(self):
        # arctanh(min(r, 1)) is +inf at r >= 1 and NaN at NaN, as the
        # expression with an explicit r >= 1 branch was
        r = np.concatenate([RNG.uniform(0, 1, 2000), [0.0, -0.0, 0.5, 1.0 - 2.0 ** -53,
                                                       1.0, 1.0 + 2.0 ** -52, 7.0,
                                                       np.inf, np.nan]])
        with np.errstate(divide="ignore"):
            want = np.where(r >= 1.0, np.inf, np.arctanh(np.minimum(r, 1.0 - 1e-17)))
        assert np.array_equal(g.tau_from_rho(r), want, equal_nan=True)
        assert g.tau_from_rho(1.0) == math.inf

    def test_cap_hits_per_row(self):
        r = np.array([[0.1, 1.0, 1.0], [0.5, 0.2, 1.0]])
        vals, hits = g.tau_capped(r, cap=50.0, power=2.0, axis=1)
        assert hits.tolist() == [2, 1]
        assert np.array_equal(vals, g.tau_capped(r, cap=50.0, power=2.0)[0])

    def test_dominates_rho_squared_with_sharp_constant(self):
        c = g.min_tau_over_rho_sq()
        assert c == pytest.approx(1.7164937, abs=1e-6)
        r = RNG.uniform(1e-6, 1 - 1e-9, 2000)
        assert np.all(g.tau_from_rho(r) >= c * r * r - 1e-12)


class TestPoissonKernel:
    def test_center_is_constant_one(self):
        zeta = np.exp(2j * np.pi * RNG.uniform(0, 1, 50))
        assert np.max(np.abs(g.poisson_kernel(0.0, zeta) - 1.0)) < 1e-14

    def test_value_at_half(self):
        assert g.poisson_kernel(0.5, 1.0) == pytest.approx(3.0)

    def test_normalization(self):
        n = 4096
        zeta = np.exp(2j * np.pi * np.arange(n) / n)
        for a in (0.0, 0.5j, -0.9, 0.99 * np.exp(0.3j)):
            total = float(np.mean(g.poisson_kernel(a, zeta)))
            assert abs(total - 1.0) < 1e-10

    def test_arc_sandwich_sharp_constants(self):
        # min over the arc of P * |I| tends to 2/(1+pi^2); the max is (1+r).
        lo = g.POISSON_ARC_RATIO_MIN
        for k in range(1, 13):
            r = 1.0 - 2.0 ** -k
            arc = g.arc_of(r)
            zeta = arc.sample_points(200)
            ratio = g.poisson_kernel(r, zeta) * float(arc.length)
            assert np.min(ratio) >= lo - 1e-12
            assert np.max(ratio) <= 2.0


class TestArcs:
    def test_arc_of_half_is_exact(self):
        arc = g.arc_of(0.5)
        assert arc.center == 0 and arc.length == Fraction(1, 2)

    def test_origin_gives_full_circle(self):
        arc = g.arc_of(0.0)
        assert arc.length == 1

    def test_center_of_inverts_arc_of(self):
        pts = random_interior(200, radius=0.999)
        for a in pts:
            back = g.center_of(g.arc_of(a))
            assert abs(back - a) < 1e-12

    def test_arc_of_inverts_center_of(self):
        for num in range(0, 16):
            arc = g.Arc(Fraction(num, 16), Fraction(3, 16))
            again = g.arc_of(g.center_of(arc))
            assert abs(float(again.center - arc.center)) < 1e-12
            assert abs(float(again.length - arc.length)) < 1e-12

    def test_center_of_is_interior(self):
        assert type(g.center_of(g.Arc(Fraction(1, 4), Fraction(1, 2)))) is complex
        # 1 - 2^-60 rounds to 1, so this arc has no interior center in floats
        with pytest.raises(g.GeometryError):
            g.center_of(g.Arc(Fraction(0), Fraction(1, 2 ** 60)))

    def test_length_matches_gap(self):
        a = 0.75 * np.exp(0.4j)
        assert float(g.arc_of(a).length) == pytest.approx(0.25, abs=1e-15)

    def test_samples_lie_inside(self):
        arc = g.Arc(Fraction(1, 8), Fraction(1, 16))
        pts = arc.sample_points(64)
        angles = np.angle(pts) / (2 * np.pi) % 1.0
        lo, hi = arc.span()
        assert np.all(angles >= float(lo)) and np.all(angles <= float(hi))

    def test_whole_grid_samples_equal_each_arc(self):
        pts = np.concatenate([[0.0], random_interior(50, radius=0.999), [0.5, -0.25]])
        rows = g.arc_sample_points(pts, 128)
        assert rows.shape == (len(pts), 128)
        for a, row in zip(pts, rows):
            assert np.array_equal(row, g.arc_of(a).sample_points(128))
        with pytest.raises(g.GeometryError):
            g.arc_sample_points([0.5, 1.0], 64)

    def test_degenerate_length_rejected(self):
        with pytest.raises(g.GeometryError):
            g.Arc(Fraction(0), Fraction(0))

