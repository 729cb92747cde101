"""Exact arc-set algebra on the circle and two stopping-time decompositions.

Sets are finite unions of half-open angle intervals ``[lo, hi)`` measured in
turns with exact rational endpoints, so every measure below is an exact
``Fraction``.  Two constructions are provided:

* ``density_core`` removes the maximal dyadic arcs where the complement is
  too dense and returns a positive-measure core on which every centered arc
  sees at least ``|E|/8`` of E;
* ``wik_decomposition`` covers E (up to exact measure zero) by maximal
  dyadic arcs on which the relative measure of E is pinched between
  ``lambda/2`` and ``lambda``.

Both traversals terminate exactly because inputs are snapped to a dyadic
grid first; the snap, when it changes anything, is reported.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from numbers import Integral
from typing import Iterable, Sequence

from .geometry import Arc

#: inputs are snapped to multiples of 2**-SNAP_LEVEL before decomposing
SNAP_LEVEL = 20

#: hard cap on dyadic descent depth.  A safety net: on a set snapped to
#: 2**-SNAP_LEVEL every level-SNAP_LEVEL arc has relative measure 0 or 1, so
#: both traversals stop by level SNAP_LEVEL < MAX_DEPTH
MAX_DEPTH = 40

ZERO = Fraction(0)
ONE = Fraction(1)


class DepthCapError(RuntimeError):
    """Raised when a stopping-time traversal fails to stabilize above MAX_DEPTH."""

    def __init__(self, unresolved):
        self.unresolved = tuple(unresolved)
        super().__init__(
            f"dyadic descent hit depth {MAX_DEPTH} with "
            f"{len(self.unresolved)} unresolved arcs"
        )


@dataclass(frozen=True)
class DyadicArc:
    """The dyadic arc [index/2^level, (index+1)/2^level) in turns."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0 or not (0 <= self.index < 2 ** self.level):
            raise ValueError(f"bad dyadic arc ({self.level}, {self.index})")

    @property
    def low(self) -> Fraction:
        return Fraction(self.index, 2 ** self.level)

    @property
    def high(self) -> Fraction:
        return Fraction(self.index + 1, 2 ** self.level)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 2 ** self.level)

    def children(self) -> tuple["DyadicArc", "DyadicArc"]:
        return (DyadicArc(self.level + 1, 2 * self.index),
                DyadicArc(self.level + 1, 2 * self.index + 1))

    def contains(self, other: "DyadicArc") -> bool:
        return self.low <= other.low and other.high <= self.high


def _wrapped_spans(q) -> tuple[int, list[tuple[int, int]]]:
    """(d, spans): the [lo, hi) pieces inside [0, 1) of an Arc / DyadicArc /
    pair taken mod 1, as integer spans in units of 1/d: none, one, or two
    when it wraps past 0."""
    if isinstance(q, DyadicArc):   # never wraps
        return 1 << q.level, [(q.index, q.index + 1)]
    lo, hi = (Fraction(t) for t in (q.span() if isinstance(q, Arc) else q))
    d = lcm(lo.denominator, hi.denominator)
    lo, hi = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    if hi == lo:
        return d, []
    if hi - lo >= d:
        return d, [(0, d)]
    lo, hi = lo % d, hi % d or d
    if lo < hi:
        return d, [(lo, hi)]
    if lo == hi:
        return d, []
    return d, [(lo, d), (0, hi)]


@dataclass(frozen=True)
class ArcSet:
    """Sorted, disjoint, merged half-open intervals inside [0, 1)."""

    intervals: tuple[tuple[Fraction, Fraction], ...] = field(default=())

    @staticmethod
    def from_pairs(pairs: Iterable[Sequence]) -> "ArcSet":
        """Normalize arbitrary [lo, hi) pairs with 0 <= lo < hi <= 1."""
        cleaned = []
        for lo, hi in pairs:
            lo, hi = Fraction(lo), Fraction(hi)
            if hi <= lo:
                continue
            if lo < 0 or hi > 1:
                raise ValueError(f"interval [{lo}, {hi}) outside [0, 1]")
            cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return ArcSet(tuple(merged))

    @staticmethod
    def from_arc(arc) -> "ArcSet":
        """Wrap-aware conversion of an Arc / DyadicArc / pair into a set."""
        d, spans = _wrapped_spans(arc)
        return ArcSet.from_pairs((Fraction(lo, d), Fraction(hi, d)) for lo, hi in spans)

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet(((ZERO, ONE),))

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), ZERO)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(S, lows, highs, cum): S is the LCM of the endpoint denominators,
        lows and highs are the endpoints in units of 1/S, and cum[i] is the
        total length of the first i intervals in the same units."""
        scale = lcm(*(t.denominator for pair in self.intervals for t in pair))
        lows = tuple(lo.numerator * (scale // lo.denominator) for lo, _ in self.intervals)
        highs = tuple(hi.numerator * (scale // hi.denominator) for _, hi in self.intervals)
        cum = tuple(accumulate((hi - lo for lo, hi in zip(lows, highs)), initial=0))
        return scale, lows, highs, cum

    def _scaled_measure_below(self, n: int, d: int) -> int:
        """S * d * |E ∩ [0, n/d)| for 0 <= n/d <= 1, as an exact integer."""
        scale, lows, highs, cum = self._scaled
        x = n * scale
        # lows are integers, so low <= x/d exactly when low <= floor(x/d)
        i = bisect_right(lows, x // d) - 1
        if i < 0:
            return 0
        return cum[i] * d + min(x, highs[i] * d) - lows[i] * d

    def is_empty(self) -> bool:
        return not self.intervals

    def complement(self) -> "ArcSet":
        out = []
        cursor = ZERO
        for lo, hi in self.intervals:
            if cursor < lo:
                out.append((cursor, lo))
            cursor = hi
        if cursor < ONE:
            out.append((cursor, ONE))
        return ArcSet(tuple(out))

    def intersect(self, other: "ArcSet") -> "ArcSet":
        """One merge pass over the two sorted interval lists."""
        out = []
        mine, theirs = self.intervals, other.intervals
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a, b), (c, d) = mine[i], theirs[j]
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
            if b <= d:
                i += 1
            else:
                j += 1
        return ArcSet.from_pairs(out)

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet.from_pairs(list(self.intervals) + list(other.intervals))

    def difference(self, other: "ArcSet") -> "ArcSet":
        return self.intersect(other.complement())

    def contains_angle(self, t) -> bool:
        t = Fraction(t) % 1
        return any(lo <= t < hi for lo, hi in self.intervals)

    def snapped(self) -> tuple["ArcSet", bool]:
        """Round endpoints to the nearest multiple of 2**-SNAP_LEVEL."""
        scale = 2 ** SNAP_LEVEL
        pairs = []
        changed = False
        for lo, hi in self.intervals:
            slo = Fraction(round(lo * scale), scale)
            shi = Fraction(round(hi * scale), scale)
            if slo != lo or shi != hi:
                changed = True
            if slo < shi:
                pairs.append((slo, shi))
            else:
                changed = True
        return ArcSet.from_pairs(pairs), changed

    def interior_sample_angles(self, limit: int = 16) -> tuple[Fraction, ...]:
        """Deterministic interior points (midpoints, then quartiles)."""
        out = []
        for lo, hi in self.intervals:
            out.append((lo + hi) / 2)
        for lo, hi in self.intervals:
            out.append((3 * lo + hi) / 4)
            out.append((lo + 3 * hi) / 4)
        seen, uniq = set(), []
        for t in out:
            if t not in seen:
                seen.add(t)
                uniq.append(t)
            if len(uniq) >= limit:
                break
        return tuple(uniq)

    def to_json(self) -> list[list[int]]:
        return [[lo.numerator, lo.denominator, hi.numerator, hi.denominator]
                for lo, hi in self.intervals]

    @staticmethod
    def from_json(rows) -> "ArcSet":
        """The set of rows [num_lo, den_lo, num_hi, den_hi] of integers with
        nonzero denominators; anything else raises ValueError."""
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"an arc set is a list of rows, got {rows!r}")
        pairs = []
        for row in rows:
            if not (isinstance(row, (list, tuple)) and len(row) == 4
                    and all(isinstance(x, Integral) for x in row) and row[1] and row[3]):
                raise ValueError(f"ArcSet row must be [num_lo, den_lo, num_hi, den_hi], "
                                 f"integers with nonzero denominators, got {row!r}")
            pairs.append((Fraction(row[0], row[1]), Fraction(row[2], row[3])))
        return ArcSet.from_pairs(pairs)


def intersect_measure(E: ArcSet, q) -> Fraction:
    """Exact measure of the intersection of E with a dyadic arc / arc / pair.

    Each piece [lo, hi) of q is F(hi) - F(lo) for the cumulative measure
    F(t) = |E ∩ [0, t)|, one bisection each; everything stays in integers
    over a common denominator until the one Fraction returned.
    """
    d, spans = _wrapped_spans(q)
    total = sum(E._scaled_measure_below(hi, d) - E._scaled_measure_below(lo, d)
                for lo, hi in spans)
    return Fraction(total, E._scaled[0] * d)


def _stopping_arcs(E: ArcSet, stop, descend) -> list[DyadicArc]:
    """The maximal dyadic arcs q with ``stop(num, den)``, found by descending
    from the whole circle into the children of every arc that does not stop
    but satisfies ``descend(num, den)``; sorted by (level, index).  Both
    predicates see the relative measure |q ∩ E| / |q| = num / den as two
    integers, so they compare cross-multiplied.  Raises DepthCapError when
    some arc still descends at MAX_DEPTH."""
    stopping: list[DyadicArc] = []
    unresolved: list[DyadicArc] = []
    stack = [DyadicArc(0, 0)]
    while stack:
        q = stack.pop()
        inter = intersect_measure(E, q)
        num, den = inter.numerator << q.level, inter.denominator
        if stop(num, den):
            stopping.append(q)
        elif descend(num, den):
            if q.level >= MAX_DEPTH:
                unresolved.append(q)
            else:
                stack.extend(q.children())
    if unresolved:
        raise DepthCapError(unresolved)
    stopping.sort(key=lambda q: (q.level, q.index))
    return stopping


# ---------------------------------------------------------------------------
# density core (stopping arcs where the complement dominates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityCoreResult:
    source: ArcSet          # the (snapped) set the construction ran on
    core: ArcSet            # E' = E minus the stopping arcs
    stopping: tuple[DyadicArc, ...]
    lam: Fraction           # density threshold 1 - |E|/2
    snapped: bool


def density_core(E: ArcSet) -> DensityCoreResult:
    """Remove the maximal dyadic arcs I with |I ∩ E^c| > lam |I|, lam = 1 - |E|/2,
    from E snapped to 2**-SNAP_LEVEL.

    The remaining core E' has positive exact measure, and every point of it
    sees density at least |E|/8 of E in every centered arc (see
    ``verify_density_bound``).
    """
    E, changed = E.snapped()
    if E.measure == 0:
        snap_note = f" after the snap to multiples of 2^-{SNAP_LEVEL}" if changed else ""
        raise ValueError(f"density_core needs a set of positive measure, got |E| = 0{snap_note}")
    share = E.measure / 2
    lam = 1 - share
    # the complement's share of q exceeds lam |q| exactly when E's is below share |q|
    stopping = _stopping_arcs(E, lambda num, den: num * share.denominator < share.numerator * den,
                              lambda num, den: num < den)
    removed = ArcSet.from_pairs([(q.low, q.high) for q in stopping])
    core = E.difference(removed)
    if core.measure <= 0:
        raise RuntimeError("density core came out empty; this contradicts the construction")
    return DensityCoreResult(E, core, tuple(stopping), lam, changed)


def verify_density_bound(result: DensityCoreResult, max_k: int = 12,
                         points: int = 16) -> list[dict]:
    """Exact checks of |I(r zeta) ∩ E| / |I(r zeta)| >= |E|/8 on a ladder.

    Arcs of length 2**-k (k = 1..max_k) are centered at sampled core points;
    all comparisons are exact, in integers cross-multiplied.
    """
    E = result.source
    target = E.measure
    checks = []
    for zeta in result.core.interior_sample_angles(points):
        for k in range(1, max_k + 1):
            # I = zeta -+ 2^-(k+1), over the denominator of zeta times 2^(k+1)
            den = zeta.denominator << (k + 1)
            mid = zeta.numerator << (k + 1)
            inter = intersect_measure(E, (Fraction(mid - zeta.denominator, den),
                                          Fraction(mid + zeta.denominator, den)))
            # 8 |I ∩ E| >= |E| |I| with |I| = 2^-k
            ok = (8 * inter.numerator * target.denominator << k
                  >= target.numerator * inter.denominator)
            checks.append({
                "zeta": [zeta.numerator, zeta.denominator],
                "k": k,
                "ratio_num": [inter.numerator, inter.denominator],
                "ok": bool(ok),
            })
    return checks


# ---------------------------------------------------------------------------
# Wik-style stopping time covering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WikResult:
    source: ArcSet
    lam: Fraction
    arcs: tuple[DyadicArc, ...]
    residue: Fraction       # |E \ union of arcs|, exactly 0 on success
    snapped: bool


def wik_decomposition(E: ArcSet, lam) -> WikResult:
    """Maximal dyadic arcs Q with |Q ∩ E| >= (lam/2)|Q|, for E snapped to
    2**-SNAP_LEVEL.

    Requires |E| <= lam.  Every selected arc then satisfies the exact
    sandwich (lam/2)|Q| <= |Q ∩ E| <= lam|Q| (the upper bound is inherited
    from the non-selected parent, or from the precondition at the root), the
    interiors are pairwise disjoint, and the selected arcs cover E exactly.
    """
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    E, changed = E.snapped()
    if E.measure > lam:
        raise ValueError(f"need |E| <= lambda, got |E| = {E.measure} > {lam}")
    half = lam / 2
    selected = _stopping_arcs(E, lambda num, den: num * half.denominator >= half.numerator * den,
                              lambda num, den: num > 0)
    covered = ArcSet.from_pairs([(q.low, q.high) for q in selected])
    residue = E.difference(covered).measure
    return WikResult(E, lam, tuple(selected), residue, changed)


def verify_wik(result: WikResult) -> dict:
    """Exact re-check of the sandwich, disjointness and coverage."""
    E, lam = result.source, result.lam
    sandwich = []
    for q in result.arcs:
        inter = intersect_measure(E, q)
        sandwich.append(bool(lam * q.measure / 2 <= inter <= lam * q.measure))
    disjoint = True
    spans = sorted((q.low, q.high) for q in result.arcs)
    for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
        if l2 < h1:
            disjoint = False
    return {
        "sandwich_ok": all(sandwich),
        "per_arc": sandwich,
        "interiors_disjoint": disjoint,
        "residue_zero": result.residue == 0,
    }
