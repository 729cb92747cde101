import math
import pickle

import numpy as np
import pytest

from oscillab import hardy as h
from oscillab import symbols as s
from oscillab.geometry import moebius, poisson_kernel, rho
from oscillab.leibov import test_function as moebius_test_function

RNG = np.random.default_rng(27182)


def random_interior(n, radius=0.95):
    r = radius * np.sqrt(RNG.uniform(0, 1, n))
    return r * np.exp(2j * np.pi * RNG.uniform(0, 1, n))


class TestH2Norm:
    def test_monomials_are_unit_vectors(self):
        for k in (1, 3, 7):
            assert h.h2_norm(s.power(s.Identity(), k)) == pytest.approx(1.0, abs=1e-12)

    def test_one_plus_z(self):
        assert h.h2_norm(s.Polynomial((1, 1))) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_inner_functions_have_unit_norm_both_routes(self):
        for a in (0.5, 0.9, -0.3 + 0.6j):
            phi = s.Moebius(a)
            assert h.h2_norm(phi) == pytest.approx(1.0, abs=1e-10)
            assert h.h2_norm_coefficients(phi) == pytest.approx(1.0, abs=1e-10)

    def test_unsettled_refinement_raises(self):
        phi = s.Compose(s.Moebius(0.99999), s.Scale(0.99999, s.Identity()))
        with pytest.raises(h.QuadratureError) as info:
            h.h2_norm(phi)
        assert info.value.n == 2 ** 18
        with pytest.raises(h.QuadratureError):
            h.h2_norm_coefficients(phi)
        assert h.QuadratureError is s.QuadratureError

    def test_coefficient_route_agrees(self):
        for phi in (s.Polynomial((0.2, 0.3, 0.1j)), s.Moebius(0.7)):
            assert abs(h.h2_norm(phi) - h.h2_norm_coefficients(phi)) < 1e-10


class TestGarsiaGamma:
    def test_constants_have_no_oscillation(self):
        assert h.garsia_gamma(s.Constant(0.4 + 0.1j), 0.3 - 0.5j) == pytest.approx(0.0, abs=1e-12)

    def test_identity_closed_form(self):
        assert h.garsia_gamma(s.Identity(), 0.6) == pytest.approx(0.8, abs=1e-10)
        a = 0.35 - 0.52j
        assert h.garsia_gamma(s.Identity(), a) == pytest.approx(
            math.sqrt(1 - abs(a) ** 2), abs=1e-10)

    def test_moebius_test_function_value(self):
        # || sigma_b . sigma_0 - sigma_b(0) || = sqrt(1 - |sigma_b(0)|^2)
        assert h.garsia_gamma(moebius_test_function(0.5), 0.0) == pytest.approx(
            math.sqrt(0.75), abs=1e-10)

    def test_identity_closed_form_at_gap_2_to_the_minus_14(self):
        a = 1.0 - 2.0 ** -14
        assert abs(h.garsia_gamma(s.Identity(), a) - math.sqrt(1 - a * a)) <= 1e-12

    def test_unresolved_point_raises(self):
        # the routes still disagree at MAX_GRID; there is no radius guard
        with pytest.raises(h.QuadratureError):
            h.garsia_gamma(s.Identity(), 0.99999)

    def test_change_of_variable_identity(self):
        # mean of |f . sigma_a|^2 equals the Poisson-weighted boundary mean
        phi = s.Polynomial((0.1, 0.5, 0.3))
        n = 4096
        zeta = s.roots_of_unity(n)
        for a in (0.3, 0.77j, -0.6 + 0.2j):
            lhs = np.mean(np.abs(phi.eval(moebius(a, zeta))) ** 2)
            rhs = np.mean(np.abs(phi.eval(zeta)) ** 2 * poisson_kernel(a, zeta))
            assert abs(lhs - rhs) < 1e-8

    def test_gamma_is_seminorm_in_f(self):
        a = 0.4 + 0.3j
        for _ in range(20):
            c1 = RNG.normal(size=4) + 1j * RNG.normal(size=4)
            c2 = RNG.normal(size=4) + 1j * RNG.normal(size=4)
            f1, f2 = s.Polynomial(tuple(c1)), s.Polynomial(tuple(c2))
            fsum = s.Polynomial(tuple(c1 + c2))
            scaled = s.Polynomial(tuple(3.7 * c1))
            g1, g2 = h.garsia_gamma(f1, a), h.garsia_gamma(f2, a)
            assert h.garsia_gamma(scaled, a) == pytest.approx(3.7 * g1, abs=1e-10)
            assert h.garsia_gamma(fsum, a) <= g1 + g2 + 1e-10

    def test_ratio_to_h2_increases_with_radius(self):
        # empirical version of gamma(f, a) <= c_a ||f||_H2 with c_a increasing:
        # the near-extremal family sigma_r - r gives gamma = 1 at a = r while
        # its H^2 norm shrinks, so the witnessed ratio grows with the radius
        radii = [0.1, 0.3, 0.5, 0.7, 0.9]
        ratios = []
        for r in radii:
            f = moebius_test_function(r)
            ratios.append(h.garsia_gamma(f, r) / h.h2_norm(f))
        assert all(r2 >= r1 - 1e-10 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0 / math.sqrt(1 - 0.81), abs=1e-6)


class TestQuadratureError:
    def test_errors_carry_their_witness_point(self, monkeypatch):
        from oscillab import criteria as cr
        monkeypatch.setattr(h, "GAMMA_TOL", 1e-30)
        monkeypatch.setattr(h, "MAX_GRID", 64)
        phi = s.Polynomial((0, 0.5, 0.5))
        a = 1 - 2.0 ** -12
        for compute in (lambda: cr.l_statistic(phi, a, 64),
                        lambda: h.garsia_gamma(phi, a, 64)):
            with pytest.raises(h.QuadratureError) as info:
                compute()
            assert info.value.point == a and repr(a) in str(info.value)
            copy = pickle.loads(pickle.dumps(info.value))
            assert (copy.point, copy.n, str(copy)) == (a, info.value.n, str(info.value))


class TestSeminorm:
    def test_constant_is_null(self):
        est = h.bmoa_seminorm(s.Constant(0.3), depth=6, angles=8)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.lower_bound

    def test_test_function_attains_one_at_base_point(self):
        b = 1.0 - 2.0 ** -3  # on the standard grid
        est = h.bmoa_seminorm(moebius_test_function(b), depth=8, angles=16)
        assert est.value == pytest.approx(1.0, abs=1e-8)
        assert est.argmax == pytest.approx(b)

    def test_identity_maximum_at_smallest_radius(self):
        est = h.bmoa_seminorm(s.Identity(), depth=6, angles=8)
        assert est.value == pytest.approx(math.sqrt(1 - 0.25), abs=1e-8)

    def test_argmax_beyond_0_9999_is_anchored(self, monkeypatch):
        # gamma(sigma_b, a) peaks at a = b, on the ring |a| = 1 - 2^-14
        b = 1.0 - 2.0 ** -14
        anchors = []
        real = h.garsia_gamma

        def spy(f, a, n):
            anchors.append(a)
            return real(f, a, n)

        monkeypatch.setattr(h, "garsia_gamma", spy)
        est = h.bmoa_seminorm(s.Moebius(b), depth=14, angles=4)
        assert anchors == [b] and est.argmax == b
        assert est.value == pytest.approx(1.0, abs=1e-8)


class TestRingGammaSweep:
    """The ring route (Garsia identity, one FFT per grid size) against the
    pointwise Poisson sweep and against closed forms."""

    @staticmethod
    def both_routes(f, depth, angles):
        radii = 1.0 - 2.0 ** -np.arange(1, depth + 1)
        ring = h.ring_gamma_sweep(f, radii, angles).ravel()
        direct = h.poisson_gamma_sweep(f, h.standard_grid(depth, angles))
        return ring, direct

    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_identity_powers_match_direct_sweep(self, k):
        ring, direct = self.both_routes(s.power(s.Identity(), k), depth=8, angles=16)
        assert np.max(np.abs(ring - direct)) < 1e-10

    @pytest.mark.parametrize("angles", [16, 12])
    def test_test_function_matches_direct_sweep(self, angles):
        # 12 angles do not divide any boundary grid size: the fold by k mod
        # angles has to take every residue class
        ring, direct = self.both_routes(moebius_test_function(0.5), depth=8, angles=angles)
        assert np.max(np.abs(ring - direct)) < 1e-10

    def test_rows_follow_ring_grid(self):
        radii = [0.3, 0.9, 0.6]
        values = h.ring_gamma_sweep(s.Identity(), radii, 12)
        assert values.shape == (3, 12)
        for r, row in zip(radii, values):
            assert row == pytest.approx(np.full(12, math.sqrt(1 - r * r)), abs=1e-12)

    def test_inner_map_with_pole_near_circle(self):
        # |sigma_b|^2 = 1 on the circle, so gamma(sigma_b, a)^2 = 1 - |sigma_b(a)|^2;
        # the pointwise sweep, whose grid only clears the pole of the Poisson
        # kernel and not the pole of f at 1/conj(b), is off by up to 6e-5 here
        b = (1.0 - 2.0 ** -9) * np.exp(0.3j)
        f = s.Moebius(b)
        radii = 1.0 - 2.0 ** -np.arange(1, 9)
        points = h.ring_grid(radii, 12)
        exact = np.sqrt(1.0 - np.abs(f.eval(points)) ** 2)
        assert np.max(np.abs(h.ring_gamma_sweep(f, radii, 12) - exact)) < 1e-12

    def test_constant_is_exactly_null(self):
        values = h.ring_gamma_sweep(s.Constant(0.3 - 0.2j), [0.5, 0.99], 12)
        assert np.all(values == 0.0)

    @staticmethod
    def recorded_sizes(monkeypatch):
        """Grid sizes passed to ``hardy.sample_boundary`` from now on."""
        sizes = []
        real = h.sample_boundary

        def recording(f, n):
            sizes.append(n)
            return real(f, n)

        monkeypatch.setattr(h, "sample_boundary", recording)
        return sizes

    def test_resolved_spectrum_serves_the_outer_rings(self, monkeypatch):
        # |phi^8|^2 is a trigonometric polynomial of degree 16: the first
        # grid resolves it, although the pole-sized grid of the outer ring
        # |a| = 1 - 2^-12 is 2^17
        f = s.power(s.Polynomial((0, 0.5, 0.5)), 8)
        radii = 1.0 - 2.0 ** -np.arange(1, 13)
        sizes = self.recorded_sizes(monkeypatch)
        ring = h.ring_gamma_sweep(f, radii, 16)
        assert sizes and max(sizes) <= 4096
        monkeypatch.undo()
        direct = h.poisson_gamma_sweep(f, h.ring_grid(radii, 16).ravel())
        assert np.max(np.abs(ring.ravel() - direct)) < 1e-10

    def test_unresolved_spectrum_keeps_pole_sized_grids(self, monkeypatch):
        # sigma_b . half-shift has its pole about 2^-11 outside the circle, so
        # no grid up to the ring's own resolves |f|^2 and every ring takes
        # the spectrum of its pole-sized grid, as a per-ring loop does
        half_shift = s.Polynomial((0.5, 0.5))
        f = s.Compose(s.Moebius(complex(half_shift.eval(1.0 - 2.0 ** -11))), half_shift)
        radii = 1.0 - 2.0 ** -np.arange(1, 13)
        angles = 16
        sizes = self.recorded_sizes(monkeypatch)
        ring = h.ring_gamma_sweep(f, radii, angles)
        assert max(sizes) == h.grid_size_for(radii[-1], 4096)
        monkeypatch.undo()
        points = h.ring_grid(radii, angles)
        reference = np.empty(points.shape)
        for i, r in enumerate(radii):
            n = h.grid_size_for(r, 4096)
            fv = h.sample_boundary(f, n)
            coeffs = np.fft.fft(fv.real ** 2 + fv.imag ** 2, norm="forward")
            freqs = np.fft.fftfreq(n, 1.0 / n)
            weighted = coeffs * r ** np.abs(freqs)
            folds = freqs.astype(np.int64) % angles
            folded = (np.bincount(folds, weighted.real, angles)
                      + 1j * np.bincount(folds, weighted.imag, angles))
            fa = np.asarray(f.eval(points[i]), dtype=complex)
            reference[i] = np.sqrt(np.maximum(
                np.fft.ifft(folded, norm="forward").real - (fa.real ** 2 + fa.imag ** 2), 0.0))
        assert np.array_equal(ring, reference)

    def test_sparse_radii_request_only_ring_grids(self, monkeypatch):
        # no doubling ladder between the rings' own grid sizes
        radii = (0.5, 0.9999)
        sizes = self.recorded_sizes(monkeypatch)
        h.vmoa_profile(s.Polynomial((0, 0.5, 0.5)), radii, angular_count=8)
        assert sizes and set(sizes) <= {h.grid_size_for(r, 4096) for r in radii}


class TestVmoaProfile:
    def test_constant_profile_is_zero(self):
        rows = h.vmoa_profile(s.Constant(0.2), [0.5, 0.9], angular_count=8)
        assert all(v == pytest.approx(0.0, abs=1e-12) for _, v in rows)

    def test_identity_profile_closed_form(self):
        radii = [0.5, 0.75, 0.9]
        rows = h.vmoa_profile(s.Identity(), radii, angular_count=8)
        for (r, v) in rows:
            assert v == pytest.approx(math.sqrt(1 - r * r), abs=1e-8)

    def test_test_function_profile_decays(self):
        rows = h.vmoa_profile(moebius_test_function(0.5), [1 - 2.0 ** -k for k in range(1, 8)],
                              angular_count=16)
        values = [v for _, v in rows]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert values[-1] < 0.25
        # closed form sup_{|a|=r} sqrt(1-|sigma_b(a)|^2) at the aligned angle
        for (r, v) in rows:
            expected = math.sqrt((1 - 0.25) * (1 - r * r)) / (1 - 0.5 * r)
            assert v == pytest.approx(expected, abs=1e-7)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            h.vmoa_profile(s.Identity(), [1.0])


class TestLinearCombination:
    def test_affine_evaluation(self):
        f = h.LinearCombination(((2.0, s.Identity()), (1j, s.Constant(0.5))), shift=1.0)
        assert f.eval(0.25) == pytest.approx(1.0 + 0.5 + 0.5j)

    def test_array_shape(self):
        f = h.LinearCombination(((1.0, s.Moebius(0.3)),), shift=-0.3)
        z = random_interior(10)
        assert f.eval(z).shape == (10,)
        assert f.eval(0j) == pytest.approx(0.0)
