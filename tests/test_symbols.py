import math

import numpy as np
import pytest

from oscillab import geometry as g
from oscillab import symbols as s

RNG = np.random.default_rng(31415)


def random_interior(n, radius=0.95):
    r = radius * np.sqrt(RNG.uniform(0, 1, n))
    return r * np.exp(2j * np.pi * RNG.uniform(0, 1, n))


class TestEval:
    def test_identity(self):
        assert s.Identity().eval(0.3j) == 0.3j

    def test_half_shift_fixes_one(self):
        phi = s.Polynomial((0.5, 0.5))
        assert phi.eval(1.0) == pytest.approx(1.0)

    def test_moebius_self_inverse_composition(self):
        a = 0.4 - 0.3j
        phi = s.Compose(s.Moebius(a), s.Moebius(a))
        z = random_interior(200)
        assert np.max(np.abs(phi.eval(z) - z)) < 1e-12

    def test_scale_and_blaschke(self):
        sq = s.Blaschke(1.0, (0, 0))
        z = random_interior(50)
        assert np.max(np.abs(sq.eval(z) - z * z)) < 1e-14
        half = s.Scale(0.5, s.Identity())
        assert half.eval(0.4) == pytest.approx(0.2)

    def test_vectorized_matches_scalar(self):
        phi = s.Compose(s.Moebius(0.3 + 0.2j), s.Polynomial((0, 0.4, 0.4)))
        z = random_interior(64)
        vec = phi.eval(z)
        for i in range(64):
            assert abs(vec[i] - phi.eval(complex(z[i]))) < 1e-15


class TestBoundarySamples:
    def test_quarter_points_of_identity(self):
        grid = s.boundary_samples(s.Identity(), 64)
        quarters = grid.values[[0, 16, 32, 48]]
        assert np.max(np.abs(quarters - np.array([1, 1j, -1, -1j]))) < 1e-14

    def test_constant_grid(self):
        grid = s.boundary_samples(s.Constant(0.3), 64)
        assert np.all(grid.values == 0.3)

    def test_blaschke_samples_unimodular(self):
        grid = s.boundary_samples(s.Blaschke(1.0, (0, 0)), 64)
        assert np.max(np.abs(np.abs(grid.values) - 1.0)) < 1e-12

    def test_grid_size_validation(self):
        with pytest.raises(s.SymbolError):
            s.boundary_samples(s.Identity(), 4)
        with pytest.raises(s.SymbolError):
            s.boundary_samples(s.Identity(), 96)

    def test_rejects_non_self_map(self):
        with pytest.raises(s.NotSelfMapError):
            s.boundary_samples(s.Polynomial((0, 2)), 64)


class TestTaylor:
    def test_polynomial_passthrough(self):
        coeffs = s.taylor(s.Polynomial((0.5, 0.5)), 3)
        assert np.allclose(coeffs, [0.5, 0.5, 0, 0], atol=0)

    def test_moebius_expansion(self):
        # sigma_a(z) = a - (1-|a|^2) sum conj(a)^(k-1) z^k
        coeffs = s.taylor(s.Moebius(0.5), 2)
        assert np.max(np.abs(coeffs - np.array([0.5, -0.75, -0.375]))) < 1e-12

    def test_moebius_against_small_circle_contour(self):
        # independent oracle: 32-point contour means on |z| = 0.3 alias only
        # coefficients 32 orders up, so they recover c_0..c_3 to machine level
        phi = s.Moebius(0.3 + 0.4j)
        coeffs = s.taylor(phi, 3)
        ring = 0.3 * np.exp(2j * np.pi * np.arange(32) / 32)
        vals = phi.eval(ring)
        for k in range(4):
            fd = np.mean(vals * ring ** -k) if k else np.mean(vals)
            assert abs(fd - coeffs[k]) < 1e-12

    def test_constant(self):
        coeffs = s.taylor(s.Constant(0.2 + 0.1j), 5)
        assert coeffs[0] == 0.2 + 0.1j and np.all(coeffs[1:] == 0)

    def test_insufficient_grid_rejected(self):
        with pytest.raises(s.SymbolError):
            s.taylor(s.Moebius(0.5), 40, n=128)

    def test_parseval_consistency(self):
        for phi in (s.Polynomial((0.1, 0.3, 0.2j, 0.25)), s.Moebius(0.6),
                    s.Moebius(-0.35 + 0.2j)):
            coeffs = s.taylor(phi, 255)
            grid = s.boundary_samples(phi, 2048)
            lhs = float(np.sum(np.abs(coeffs) ** 2))
            rhs = float(np.mean(np.abs(grid.values) ** 2))
            assert abs(lhs - rhs) < 1e-10


class TestRefine:
    @staticmethod
    def run(settled, n=64, max_n=1024, value=lambda k: float(k)):
        grids = []

        def evaluate(k):
            grids.append(k)
            return value(k)

        return s.refine(evaluate, n, max_n, settled), grids

    def test_agreement_on_first_grid_evaluates_once(self):
        result, grids = self.run(lambda prev, cur: True)
        assert result == (64.0, 64, True) and grids == [64]

    def test_stability_needs_two_grids(self):
        result, grids = self.run(lambda prev, cur: prev is not None, value=lambda k: 1.0)
        assert result == (1.0, 128, True) and grids == [64, 128]

    def test_grids_double_and_prev_is_the_previous_value(self):
        seen = []

        def settled(prev, cur):
            seen.append((prev, cur))
            return cur >= 512

        result, grids = self.run(settled)
        assert grids == [64, 128, 256, 512] and result == (512.0, 512, True)
        assert seen == [(None, 64.0), (64.0, 128.0), (128.0, 256.0), (256.0, 512.0)]

    def test_cap_returns_last_value_unsettled(self):
        result, grids = self.run(lambda prev, cur: False)
        assert result == (1024.0, 1024, False) and grids == [64, 128, 256, 512, 1024]

    def test_settled_is_checked_before_the_cap(self):
        result, grids = self.run(lambda prev, cur: cur >= 1024)
        assert result == (1024.0, 1024, True) and grids == [64, 128, 256, 512, 1024]

    def test_start_beyond_cap_evaluates_once(self):
        result, grids = self.run(lambda prev, cur: False, n=131072, max_n=64)
        assert result == (131072.0, 131072, False) and grids == [131072]


class TestCompose:
    def test_identity_neutral(self):
        psi = s.Polynomial((0, 0.4, 0.4))
        phi = s.compose(s.Identity(), psi)
        z = random_interior(100)
        assert np.max(np.abs(phi.eval(z) - psi.eval(z))) == 0.0

    def test_normalized_composite_matches_direct_formula(self):
        phi = s.Polynomial((0.5, 0.5))
        a = 0.37 - 0.22j
        b = complex(phi.eval(a))
        tree = s.Compose(s.Moebius(b), s.Compose(phi, s.Moebius(a)))
        z = random_interior(1000)
        direct_inner = (a - z) / (1 - np.conj(a) * z)
        direct = (b - phi.eval(direct_inner)) / (1 - np.conj(b) * phi.eval(direct_inner))
        assert np.max(np.abs(tree.eval(z) - direct)) < 1e-14


class TestPower:
    def test_polynomial_power_is_exact(self):
        phi = s.Polynomial((0.5, 0.5))
        p4 = s.power(phi, 4)
        assert isinstance(p4, s.Polynomial)
        z = random_interior(50)
        assert np.max(np.abs(p4.eval(z) - phi.eval(z) ** 4)) < 1e-14

    def test_rational_power_uses_composition(self):
        phi = s.Moebius(0.5)
        p3 = s.power(phi, 3)
        z = random_interior(50)
        assert np.max(np.abs(p3.eval(z) - phi.eval(z) ** 3)) < 1e-13

    def test_rejects_bad_exponent(self):
        with pytest.raises(s.SymbolError):
            s.power(s.Identity(), 0)


class TestValidation:
    def test_doubling_rejected_with_witness(self):
        with pytest.raises(s.NotSelfMapError) as err:
            s.validate_self_map(s.Polynomial((0, 2)))
        assert abs(err.value.witness) == pytest.approx(1.0)
        assert err.value.sup == pytest.approx(2.0)

    def test_half_shift_touches_at_one(self):
        cert = s.validate_self_map(s.Polynomial((0.5, 0.5)))
        assert cert.kind == "boundary-touching"
        assert cert.contact == pytest.approx(1.0)

    def test_strict_contraction(self):
        cert = s.validate_self_map(s.Scale(0.5, s.Identity()))
        assert cert.kind == "strict"
        assert cert.sup == pytest.approx(0.5)

    def test_unimodular_constant_rejected(self):
        with pytest.raises(s.NotSelfMapError):
            s.validate_self_map(s.Constant(1.0))

    @pytest.mark.parametrize("phi", [s.Polynomial((math.nan, 0.5)), s.Constant(complex(math.nan))])
    def test_nan_boundary_values_rejected(self, phi):
        with pytest.raises(s.NotSelfMapError):
            s.validate_self_map(phi)

    def test_schwarz_pick(self):
        from oscillab.geometry import rho
        pairs = random_interior(20000)
        z, w = pairs[:10000], pairs[10000:]
        for phi in (s.Polynomial((0.5, 0.5)), s.Moebius(0.3 - 0.1j),
                    s.Compose(s.Moebius(0.7), s.Scale(0.9, s.Identity()))):
            lhs = rho(phi.eval(z), phi.eval(w))
            rhs = rho(z, w)
            assert np.max(lhs - rhs) < 1e-12


class TestJsonCodec:
    def test_round_trips(self):
        trees = [
            s.Constant(0.3),
            s.Identity(),
            s.Polynomial((0.5, 0.5)),
            s.Moebius(0.4 - 0.1j),
            s.Blaschke(1j, (0.2, -0.3j)),
            s.Compose(s.Moebius(0.7), s.Scale(0.9, s.Identity())),
        ]
        for phi in trees:
            again = s.symbol_from_json(s.symbol_to_json(phi))
            assert again == phi

    def test_bad_descriptions(self):
        with pytest.raises(s.SymbolError):
            s.symbol_from_json({"kind": "warp"})
        with pytest.raises(s.SymbolError):
            s.symbol_from_json({"kind": "moebius"})
        with pytest.raises(s.SymbolError):
            s.symbol_from_json({"kind": "const", "value": [1, 2, 3]})
        with pytest.raises(s.SymbolError):
            s.symbol_from_json(["const"])

    def test_nesting_depth_is_bounded(self):
        def nested(nodes):
            data = {"kind": "identity"}
            for _ in range(nodes - 1):
                data = {"kind": "scale", "factor": 1.0, "inner": data}
            return data

        phi = s.symbol_from_json(nested(s.MAX_SYMBOL_DEPTH))
        assert phi.eval(0.5) == 0.5 and hash(phi) == hash(phi)
        with pytest.raises(s.SymbolError, match="nests deeper"):
            s.symbol_from_json(nested(s.MAX_SYMBOL_DEPTH + 1))


class TestInvariantGuards:
    def test_blaschke_factor_must_be_unimodular(self):
        with pytest.raises(s.SymbolError):
            s.Blaschke(0.9, (0,))

    def test_blaschke_zero_must_be_interior(self):
        with pytest.raises(s.SymbolError):
            s.Blaschke(1.0, (1.0,))

    def test_scale_range(self):
        with pytest.raises(s.SymbolError):
            s.Scale(1.5, s.Identity())

    def test_moebius_base_interior(self):
        with pytest.raises(s.SymbolError):
            s.Moebius(1.0)
