import math

import numpy as np
import pytest

from oscillab import hardy
from oscillab import leibov as lb
from oscillab.symbols import Moebius

RNG = np.random.default_rng(41421)


def random_interior(n, radius=0.95):
    r = radius * np.sqrt(RNG.uniform(0, 1, n))
    return r * np.exp(2j * np.pi * RNG.uniform(0, 1, n))


class TestClosedForm:
    def test_base_values(self):
        assert lb.gamma_closed_form(0.5, 0.0) == pytest.approx(math.sqrt(0.75), abs=1e-15)
        assert lb.gamma_closed_form(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_vanishes_toward_boundary(self):
        vals = [lb.gamma_closed_form(0.5, 1 - 2.0 ** -k) for k in range(1, 12)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0.06

    def test_matches_quadrature(self):
        bs = random_interior(200)
        points = random_interior(200)
        for b, a in zip(bs, points):
            cf = lb.gamma_closed_form(b, a)
            quad = hardy.garsia_gamma(lb.test_function(b), complex(a))
            assert abs(cf - quad) < 1e-8

    def test_gap_point_round_trip(self):
        p = lb.GapPoint.from_complex(0.3 - 0.4j)
        assert p.value == pytest.approx(0.3 - 0.4j, abs=1e-15)
        assert lb.GapPoint(2.0 ** -60).modulus == 1.0  # below double resolution

    def test_pair_integral_diagonal_is_one(self):
        b = lb.GapPoint.from_complex(0.7 + 0.1j)
        for a in (0j, 0.5, 0.2 - 0.6j):
            val = lb.pair_integral(b, b, lb.GapPoint.from_complex(a))
            assert val == pytest.approx(1.0, abs=1e-14)

    def test_combination_matches_quadrature(self):
        bases = (lb.GapPoint.from_complex(0.6), lb.GapPoint.from_complex(0.9 + 0.05j))
        lam = (1.0 + 0.5j, -0.7)
        f = hardy.LinearCombination(
            tuple((l, Moebius(b.value)) for l, b in zip(lam, bases)),
            shift=-sum(l * b.value for l, b in zip(lam, bases)))
        for a in (0j, 0.5, 0.3 + 0.6j, -0.8j):
            cf = lb.gamma_combination(bases, lam, lb.GapPoint.from_complex(a))
            assert abs(cf - hardy.garsia_gamma(f, complex(a))) < 1e-8


class TestTestSequence:
    def test_functions_vanish_at_origin_with_expected_norm(self):
        seq = lb.TestSequence.geometric(8)
        for i in range(4):
            f = seq.function(i)
            assert abs(f.eval(0j)) < 1e-15
            b = seq.base_points[i]
            expected = math.sqrt(b.gap * (2 - b.gap))
            assert hardy.h2_norm(f) == pytest.approx(expected, abs=1e-10)

    def test_requires_increasing_moduli(self):
        with pytest.raises(ValueError):
            lb.TestSequence((0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            lb.TestSequence((0.9, 0.5))


class TestSelection:
    def test_depth_zero_is_empty(self):
        cert = lb.select_subsequence(lb.TestSequence.geometric(10), 0)
        assert cert.depth == 0 and cert.radius_gaps == (0.5,)

    def test_depth_three_on_geometric_ladder(self):
        cert = lb.select_subsequence(lb.TestSequence.geometric(60), 3)
        assert cert.verified()
        assert cert.depth == 3
        gaps = [b.gap for b in cert.base_points]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_depth_six_needs_gap_coordinates(self):
        cert = lb.select_subsequence(lb.TestSequence.geometric(130), 6)
        assert cert.verified()
        # the bound cascade forces roughly 2k^2-deep base points
        assert cert.base_points[-1].gap < 2.0 ** -100

    def test_exhaustion_raises(self):
        with pytest.raises(lb.SelectionError):
            lb.select_subsequence(lb.TestSequence.geometric(12), 3)

    def test_bounded_sequence_cannot_start(self):
        seq = lb.TestSequence(tuple(0.4 - 2.0 ** -n for n in range(2, 12)))
        with pytest.raises(lb.SelectionError):
            lb.select_subsequence(seq, 2)

    def test_one_spike_bound(self):
        cert = lb.select_subsequence(lb.TestSequence.geometric(130), 6)
        grid = lb.standard_gap_grid(12, 16) + tuple(cert.base_points)
        for a in grid:
            gammas = [lb.gamma_gap(b, a) for b in cert.base_points]
            spikes = sum(1 for k, v in enumerate(gammas) if v >= 2.0 ** -(k + 2))
            assert spikes <= 1
            assert sum(gammas) < 1.5

    def test_lower_bound_witness(self):
        cert = lb.select_subsequence(lb.TestSequence.geometric(130), 6)
        for k, b in enumerate(cert.base_points):
            assert lb.gamma_gap(b, b) == pytest.approx(1.0, abs=1e-12)
            assert 1.0 >= 0.75  # the witness value clears the 3/4 mechanism


@pytest.fixture(scope="module")
def cert():
    return lb.select_subsequence(lb.TestSequence.geometric(130), 6)


class TestCombination:
    def test_unit_coordinate(self, cert):
        est = lb.combination_seminorm(cert, (1.0,))
        assert 0.25 <= est.value <= 2.0 + 1e-6
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_zero_vector_rejected(self, cert):
        with pytest.raises(ValueError):
            lb.combination_seminorm(cert, (0.0, 0.0))

    def test_ones_vector(self, cert):
        est = lb.combination_seminorm(cert, (1.0, 1.0, 1.0))
        assert 0.25 <= est.value <= 2.0 + 1e-6

    def test_too_many_coefficients(self, cert):
        with pytest.raises(ValueError):
            lb.combination_seminorm(cert, (1.0,) * 7)

    def test_random_windows(self, cert):
        for _ in range(10):
            size = int(RNG.integers(1, 7))
            lam = tuple(RNG.normal() + 1j * RNG.normal() for _ in range(size))
            sup = max(abs(c) for c in lam)
            est = lb.combination_seminorm(cert, lam)
            assert 0.25 * sup <= est.value <= 2.0 * sup + 1e-6


def reference_pair_integral(b, c, a):
    """The pair integral as one scalar expression: the reference that the
    shared per-base / per-point kernel behind ``lb.pair_integral`` must
    reproduce bit for bit."""
    gb = b.gap * (2.0 - b.gap)
    gc = c.gap * (2.0 - c.gap)
    bv = (1.0 - b.gap) * lb._phase(b.turns)
    cv = (1.0 - c.gap) * lb._phase(c.turns)
    av = (1.0 - a.gap) * lb._phase(a.turns)
    ba = (1.0 - b.gap) * (1.0 - a.gap) * lb._phase(a.turns - b.turns)
    ca = (1.0 - c.gap) * (1.0 - a.gap) * lb._phase(c.turns - a.turns)
    one_m_ba = lb.one_minus_product(b.gap, a.gap, a.turns - b.turns)
    one_m_ca = lb.one_minus_product(c.gap, a.gap, c.turns - a.turns)
    one_m_bc = lb.one_minus_product(b.gap, c.gap, c.turns - b.turns)
    return (bv * np.conj(cv)
            - bv * gc * np.conj(av) / one_m_ca
            - np.conj(cv) * gb * av / one_m_ba
            + gb * gc * (1.0 + ba / one_m_ba + ca / one_m_ca) / one_m_bc)


def reference_gap_sigma(b, a):
    """sigma_b(a) as one scalar expression: the reference for ``lb.gap_sigma``
    and for the sigma_b(a) terms inside ``lb.gamma_combination``."""
    psi = a.turns - b.turns
    num = lb._one_minus_unimodular(psi) + lb._phase(psi) * a.gap - b.gap
    return lb._phase(b.turns) * num / lb.one_minus_product(b.gap, a.gap, psi)


def oracle_gamma_combination(bases, lam, a):
    """gamma of the combination by the double loop over ``pair_integral``."""
    sigmas = [reference_gap_sigma(b, a) for b in bases]
    ga = sum(l * s for l, s in zip(lam, sigmas))
    total = 0.0
    for j, lj in enumerate(lam):
        for k, lk in enumerate(lam):
            total += (lj * np.conj(lk) * lb.pair_integral(bases[j], bases[k], a)).real
    return math.sqrt(max(total - abs(ga) ** 2, 0.0))


class TestKernelBitIdentity:
    """The kernels on the depth-6 certificate equal their scalar references
    exactly (``==``), not within a tolerance."""

    @pytest.fixture(scope="class")
    def lams(self):
        rng = np.random.default_rng(20260813)
        return [tuple(complex(rng.normal(), rng.normal()) for _ in range(1 + i % 6))
                for i in range(20)]

    @pytest.fixture(scope="class")
    def grid(self, cert):
        return lb.standard_gap_grid(12, 64) + tuple(cert.base_points)

    def test_pair_integral_is_the_scalar_formula(self, cert, grid):
        for a in grid[::31]:
            for b in cert.base_points:
                for c in cert.base_points:
                    assert lb.pair_integral(b, c, a) == reference_pair_integral(b, c, a)

    def test_gap_sigma_is_the_scalar_formula(self, cert, grid):
        for a in grid[::7]:
            for b in cert.base_points:
                assert lb.gap_sigma(b, a) == reference_gap_sigma(b, a)

    def test_gamma_combination_is_the_double_loop(self, cert, grid, lams):
        for i, lam in enumerate(lams):
            bases = cert.base_points[: len(lam)]
            points = grid if i == 5 else grid[i::13]
            for a in points:
                assert lb.gamma_combination(bases, lam, a) == oracle_gamma_combination(
                    bases, lam, a)

    @pytest.mark.parametrize("index", [2, 5])
    def test_seminorm_value_and_argmax(self, cert, grid, lams, index):
        lam = lams[index]
        bases = cert.base_points[: len(lam)]
        best, arg = -1.0, grid[0]
        for a in grid:
            val = oracle_gamma_combination(bases, lam, a)
            if val > best:
                best, arg = val, a
        est = lb.combination_seminorm(cert, lam)
        assert est.value == best
        assert est.argmax == arg.value
