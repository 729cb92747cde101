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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import Arc

#: inputs are snapped to multiples of 2**-SNAP_LEVEL before decomposing
SNAP_LEVEL = 20

#: hard cap on dyadic descent depth
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


def _as_interval(q) -> tuple[Fraction, Fraction]:
    if isinstance(q, DyadicArc):
        return q.low, q.high
    if isinstance(q, Arc):
        lo, hi = q.span()
        return Fraction(lo), Fraction(hi)
    lo, hi = q
    return Fraction(lo), Fraction(hi)


def _wrapped_pieces(q) -> list[tuple[Fraction, Fraction]]:
    """The [lo, hi) pieces inside [0, 1) of an Arc / DyadicArc / pair taken
    mod 1: none, one, or two when it wraps past 0."""
    lo, hi = _as_interval(q)
    if hi - lo >= 1:
        return [(ZERO, ONE)]
    lo = lo % 1
    hi = hi % 1
    if hi == 0:
        hi = ONE
    if lo < hi:
        return [(lo, hi)]
    if lo == hi:
        return []
    return [(lo, ONE), (ZERO, hi)]


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
        return ArcSet.from_pairs(_wrapped_pieces(arc))

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet(((ZERO, ONE),))

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), ZERO)

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

    def intersect_interval(self, lo, hi) -> "ArcSet":
        lo, hi = Fraction(lo), Fraction(hi)
        out = []
        for a, b in self.intervals:
            c, d = max(a, lo), min(b, hi)
            if c < d:
                out.append((c, d))
        return ArcSet(tuple(out))

    def intersect(self, other: "ArcSet") -> "ArcSet":
        out = []
        for lo, hi in other.intervals:
            out.extend(self.intersect_interval(lo, hi).intervals)
        return ArcSet.from_pairs(out)

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet.from_pairs(list(self.intervals) + list(other.intervals))

    def difference(self, other: "ArcSet") -> "ArcSet":
        return self.intersect(other.complement())

    def contains_angle(self, t) -> bool:
        t = Fraction(t) % 1
        return any(lo <= t < hi for lo, hi in self.intervals)

    def snapped(self, level: int = SNAP_LEVEL) -> tuple["ArcSet", bool]:
        """Round endpoints to the nearest multiple of 2**-level."""
        scale = 2 ** level
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
        snapped = ArcSet.from_pairs(pairs)
        return snapped, changed

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
        pairs = []
        for row in rows:
            if len(row) != 4:
                raise ValueError(f"ArcSet row must be [num_lo, den_lo, num_hi, den_hi], got {row}")
            pairs.append((Fraction(row[0], row[1]), Fraction(row[2], row[3])))
        return ArcSet.from_pairs(pairs)


def intersect_measure(E: ArcSet, q) -> Fraction:
    """Exact measure of the intersection of E with a dyadic arc / arc / pair."""
    return sum((E.intersect_interval(lo, hi).measure for lo, hi in _wrapped_pieces(q)),
               ZERO)


def _stopping_arcs(E: ArcSet, stop, descend) -> list[DyadicArc]:
    """The maximal dyadic arcs q with ``stop(q, |q ∩ E|)``, found by descending
    from the whole circle into the children of every arc that does not stop
    but satisfies ``descend(q, |q ∩ E|)``; sorted by (level, index).  Raises
    DepthCapError when some arc still descends at MAX_DEPTH."""
    stopping: list[DyadicArc] = []
    unresolved: list[DyadicArc] = []
    stack = [DyadicArc(0, 0)]
    while stack:
        q = stack.pop()
        inter = intersect_measure(E, q)
        if stop(q, inter):
            stopping.append(q)
        elif descend(q, inter):
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


def density_core(E: ArcSet, snap: bool = True) -> DensityCoreResult:
    """Remove the maximal dyadic arcs I with |I ∩ E^c| > lam |I|, lam = 1 - |E|/2.

    The remaining core E' has positive exact measure, and every point of it
    sees density at least |E|/8 of E in every centered arc (see
    ``verify_density_bound``).
    """
    changed = False
    if snap:
        E, changed = E.snapped()
    if E.measure == 0:
        raise ValueError("density_core needs a set of positive measure")
    lam = 1 - E.measure / 2
    # the complement's share of q is q.measure - inter
    stopping = _stopping_arcs(E, lambda q, inter: q.measure - inter > lam * q.measure,
                              lambda q, inter: inter < q.measure)
    removed = ArcSet.from_pairs([(q.low, q.high) for q in stopping])
    core = E.difference(removed)
    if core.measure <= 0:
        raise RuntimeError("density core came out empty; this contradicts the construction")
    return DensityCoreResult(E, core, tuple(stopping), lam, changed)


def verify_density_bound(result: DensityCoreResult, max_k: int = 12,
                         points: int = 16) -> list[dict]:
    """Exact checks of |I(r zeta) ∩ E| / |I(r zeta)| >= |E|/8 on a ladder.

    Arcs of length 2**-k (k = 1..max_k) are centered at sampled core points;
    all comparisons are exact rational arithmetic.
    """
    E = result.source
    target = E.measure  # compare 8*|I∩E| >= |E|*|I| cross-multiplied
    checks = []
    for zeta in result.core.interior_sample_angles(points):
        for k in range(1, max_k + 1):
            length = Fraction(1, 2 ** k)
            lo = zeta - length / 2
            inter = intersect_measure(E, (lo, lo + length))
            ok = 8 * inter >= target * length
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


def wik_decomposition(E: ArcSet, lam, snap: bool = True) -> WikResult:
    """Maximal dyadic arcs Q with |Q ∩ E| >= (lam/2)|Q|.

    Requires |E| <= lam.  Every selected arc then satisfies the exact
    sandwich (lam/2)|Q| <= |Q ∩ E| <= lam|Q| (the upper bound is inherited
    from the non-selected parent, or from the precondition at the root), the
    interiors are pairwise disjoint, and the selected arcs cover E exactly.
    """
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    changed = False
    if snap:
        E, changed = E.snapped()
    if E.measure > lam:
        raise ValueError(f"need |E| <= lambda, got |E| = {E.measure} > {lam}")
    half = lam / 2
    selected = _stopping_arcs(E, lambda q, inter: inter >= half * q.measure,
                              lambda q, inter: inter > 0)
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
