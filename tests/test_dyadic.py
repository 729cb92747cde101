import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oscillab import dyadic as dy

F = Fraction


def dyadic_fraction(max_level=10):
    return st.integers(0, max_level).flatmap(
        lambda k: st.integers(0, 2 ** k).map(lambda n: F(n, 2 ** k)))


arc_sets = st.lists(
    st.tuples(dyadic_fraction(), dyadic_fraction()).map(lambda p: tuple(sorted(p))),
    min_size=0, max_size=8,
).map(lambda pairs: dy.ArcSet.from_pairs([p for p in pairs if p[0] < p[1]]))


class TestArcSet:
    def test_merges_touching_intervals(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 4)), (F(1, 4), F(1, 2))])
        assert e.intervals == ((F(0), F(1, 2)),)

    def test_measure_and_complement(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 8)), (F(1, 2), F(5, 8))])
        assert e.measure == F(1, 4)
        assert e.complement().measure == F(3, 4)
        assert e.union(e.complement()).measure == 1

    def test_difference(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 2))])
        f = dy.ArcSet.from_pairs([(F(1, 4), F(3, 4))])
        assert e.difference(f).intervals == ((F(0), F(1, 4)),)

    def test_json_round_trip(self):
        e = dy.ArcSet.from_pairs([(F(1, 3), F(2, 3)), (0, F(1, 8))])
        assert dy.ArcSet.from_json(e.to_json()) == e

    def test_wraparound_arc(self):
        e = dy.ArcSet.from_arc((F(-1, 8), F(1, 8)))
        assert e.measure == F(1, 4)
        assert e.contains_angle(F(15, 16)) and e.contains_angle(F(1, 16))

    def test_snap_reports_change(self):
        e = dy.ArcSet.from_pairs([(F(1, 3), F(2, 3))])
        snapped, changed = e.snapped()
        assert changed
        assert snapped.measure.denominator <= 2 ** dy.SNAP_LEVEL
        same, changed2 = snapped.snapped()
        assert not changed2 and same == snapped


class TestIntersectMeasure:
    def test_full_circle(self):
        e = dy.ArcSet.full()
        q = dy.DyadicArc(3, 5)
        assert dy.intersect_measure(e, q) == q.measure

    def test_empty_set(self):
        assert dy.intersect_measure(dy.ArcSet(), dy.DyadicArc(0, 0)) == 0

    def test_quarter_in_half(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 4))])
        assert dy.intersect_measure(e, dy.DyadicArc(1, 0)) == F(1, 4)

    def test_empty_query_at_a_whole_turn(self):
        # [0, 0) is empty; it used to wrap to the whole circle
        assert dy.intersect_measure(dy.ArcSet.full(), (0, 0)) == 0
        assert dy.ArcSet.from_arc((1, 1)).is_empty()


def naive_intersect_measure(e, lo, hi):
    """|E ∩ ([lo, hi) mod 1)| by overlapping every interval of E, shifted by
    every whole turn the query spans, with the query."""
    lo, hi = F(lo), F(hi)
    if hi - lo >= 1:
        return e.measure
    total = F(0)
    for shift in range(math.floor(lo) - 1, math.ceil(hi) + 1):
        for a, b in e.intervals:
            overlap = min(b + shift, hi) - max(a + shift, lo)
            if overlap > 0:
                total += overlap
    return total


def mixed_fraction(lo=0, hi=1):
    """Rationals in [lo, hi] over dyadic, third, fifth and other denominators."""
    return st.sampled_from([2 ** 10, 2 ** 20, 3, 5, 6, 15, 7 * 2 ** 5]).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda n: F(n, d)))


mixed_arc_sets = st.lists(
    st.tuples(mixed_fraction(), mixed_fraction()).map(lambda p: tuple(sorted(p))),
    min_size=0, max_size=8,
).map(lambda pairs: dy.ArcSet.from_pairs([p for p in pairs if p[0] < p[1]]))


class TestIntersectMeasureOracle:
    @settings(max_examples=300, deadline=None)
    @given(mixed_arc_sets, mixed_fraction(-2, 2), mixed_fraction(0, 3))
    def test_pairs_match_the_naive_overlap_sum(self, e, lo, length):
        # covers wrapping past 0 and queries of length >= 1
        naive = naive_intersect_measure(e, lo, lo + length)
        assert dy.intersect_measure(e, (lo, lo + length)) == naive
        assert e.intersect(dy.ArcSet.from_arc((lo, lo + length))).measure == naive

    @settings(max_examples=300, deadline=None)
    @given(mixed_arc_sets, st.integers(0, dy.MAX_DEPTH).flatmap(
        lambda k: st.integers(0, 2 ** k - 1).map(lambda i: dy.DyadicArc(k, i))))
    def test_dyadic_arcs_match_the_naive_overlap_sum(self, e, q):
        assert dy.intersect_measure(e, q) == naive_intersect_measure(e, q.low, q.high)

    def test_deep_arc_inside_a_third(self):
        e = dy.ArcSet.from_pairs([(F(1, 3), F(2, 3))])
        q = dy.DyadicArc(dy.MAX_DEPTH, 2 ** dy.MAX_DEPTH // 3)   # straddles 1/3
        assert dy.intersect_measure(e, q) == naive_intersect_measure(e, q.low, q.high)
        assert 0 < dy.intersect_measure(e, q) < q.measure


class TestDyadicArc:
    def test_nesting_dichotomy(self):
        rng = random.Random(7)
        arcs = [dy.DyadicArc(rng.randint(0, 7), 0) for _ in range(40)]
        arcs = [dy.DyadicArc(a.level, rng.randint(0, 2 ** a.level - 1)) for a in arcs]
        for p in arcs:
            for q in arcs:
                nested = p.contains(q) or q.contains(p)
                disjoint = p.high <= q.low or q.high <= p.low
                assert nested or disjoint

    def test_children_partition(self):
        q = dy.DyadicArc(2, 3)
        left, right = q.children()
        assert left.low == q.low and right.high == q.high and left.high == right.low


class TestWik:
    def test_empty_set(self):
        res = dy.wik_decomposition(dy.ArcSet(), F(1, 2))
        assert res.arcs == () and res.residue == 0

    def test_quarter_at_half_selects_root(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 4))])
        res = dy.wik_decomposition(e, F(1, 2))
        assert res.arcs == (dy.DyadicArc(0, 0),)
        ver = dy.verify_wik(res)
        assert ver["sandwich_ok"] and ver["residue_zero"] and ver["interiors_disjoint"]

    def test_two_arcs_cover_exactly(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 8)), (F(1, 2), F(5, 8))])
        res = dy.wik_decomposition(e, F(1, 2))
        ver = dy.verify_wik(res)
        assert ver["sandwich_ok"] and ver["residue_zero"] and ver["interiors_disjoint"]
        covered = dy.ArcSet.from_pairs([(q.low, q.high) for q in res.arcs])
        assert e.difference(covered).measure == 0

    def test_precondition(self):
        e = dy.ArcSet.from_pairs([(0, F(3, 4))])
        with pytest.raises(ValueError):
            dy.wik_decomposition(e, F(1, 2))
        with pytest.raises(ValueError):
            dy.wik_decomposition(e, F(3, 2))

    @settings(max_examples=120, deadline=None)
    @given(arc_sets)
    def test_fuzz_sandwich_and_coverage(self, e):
        if e.measure == 1:
            return  # no admissible threshold: |E| <= lambda < 1 is impossible
        lam = (1 + e.measure) / 2
        res = dy.wik_decomposition(e, lam)
        assert res.residue == 0
        for q in res.arcs:
            inter = dy.intersect_measure(res.source, q)
            assert lam * q.measure / 2 <= inter <= lam * q.measure

    def test_maximality(self):
        # no selected arc's parent could have been selected instead
        e = dy.ArcSet.from_pairs([(0, F(1, 16)), (F(3, 8), F(7, 16))])
        lam = F(1, 2)
        res = dy.wik_decomposition(e, lam)
        for q in res.arcs:
            if q.level == 0:
                continue
            parent = dy.DyadicArc(q.level - 1, q.index // 2)
            assert dy.intersect_measure(res.source, parent) < lam * parent.measure / 2


class TestDensityCore:
    def test_full_circle_has_no_stopping_family(self):
        res = dy.density_core(dy.ArcSet.full())
        assert res.stopping == () and res.core.measure == 1

    def test_half_circle(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 2))])
        res = dy.density_core(e)
        assert res.core.measure > 0
        checks = dy.verify_density_bound(res, max_k=12, points=16)
        assert checks and all(c["ok"] for c in checks)

    def test_small_arc(self):
        e = dy.ArcSet.from_pairs([(0, F(1, 64))])
        res = dy.density_core(e)
        assert res.core.measure > 0
        # target ratio is |E|/8 = 2^-9
        checks = dy.verify_density_bound(res, max_k=12, points=16)
        assert all(c["ok"] for c in checks)

    def test_requires_positive_measure(self):
        with pytest.raises(ValueError):
            dy.density_core(dy.ArcSet())

    @settings(max_examples=60, deadline=None)
    @given(arc_sets)
    def test_fuzz_core_density(self, e):
        if e.measure == 0:
            return
        res = dy.density_core(e)
        assert res.core.measure > 0
        checks = dy.verify_density_bound(res, max_k=8, points=6)
        assert all(c["ok"] for c in checks)
