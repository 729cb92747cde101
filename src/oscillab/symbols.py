"""Analytic self-maps of the unit disc as small expression trees.

Supported node kinds (constants, the identity, polynomials, disc
automorphisms, finite Blaschke products, composition and scaling) all
evaluate exactly on the closed disc, so boundary values are genuine point
evaluations rather than radial limits.  The family is closed under the
constructions the rest of the package needs: ``compose`` for
sigma_b . phi . sigma_a normalizations and ``power`` for phi^n.

Validation estimates the sup norm on a fine boundary grid and classifies a
map as ``strict`` (sup bounded away from 1) or ``boundary-touching``; maps
whose boundary modulus exceeds 1 beyond rounding are rejected with the
witnessing point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

#: tolerated overshoot of |phi| beyond 1 before a map is rejected
REJECT_MARGIN = 1e-9

#: sup values within this distance of 1 classify as boundary-touching
TOUCH_MARGIN = 1e-6

VALIDATION_GRID = 8192


class NotSelfMapError(ValueError):
    """A symbol failed validation as an analytic self-map of the disc."""

    def __init__(self, message: str, witness: complex | None = None,
                 sup: float | None = None):
        super().__init__(message)
        self.witness = witness
        self.sup = sup


class SymbolError(ValueError):
    """Malformed symbol construction or JSON description."""


class Symbol:
    """Base class; concrete nodes are frozen dataclasses below."""

    def eval(self, z):
        """Evaluate at a scalar or ndarray of points of the closed disc."""
        scalar = np.isscalar(z) or isinstance(z, complex)
        arr = np.asarray(z, dtype=complex)
        out = self._ev(arr)
        return complex(out) if scalar and out.ndim == 0 else out

    def _ev(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, z):
        return self.eval(z)


@dataclass(frozen=True)
class Constant(Symbol):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _ev(self, z):
        return np.full_like(z, self.value)


@dataclass(frozen=True)
class Identity(Symbol):
    def _ev(self, z):
        return z


@dataclass(frozen=True)
class Polynomial(Symbol):
    """Coefficients in ascending order: c0 + c1 z + ..."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs:
            raise SymbolError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    def _ev(self, z):
        return npoly.polyval(z, np.asarray(self.coefficients))


@dataclass(frozen=True)
class Moebius(Symbol):
    """sigma_a(z) = (a - z)/(1 - conj(a) z); exchanges 0 and a."""

    a: complex

    def __post_init__(self):
        a = complex(self.a)
        if abs(a) >= 1.0:
            raise SymbolError(f"Moebius base point must be interior, |a| = {abs(a)}")
        object.__setattr__(self, "a", a)

    def _ev(self, z):
        return (self.a - z) / (1.0 - np.conj(self.a) * z)


@dataclass(frozen=True)
class Blaschke(Symbol):
    """factor * prod_k (z_k - z)/(1 - conj(z_k) z) with |factor| = 1."""

    factor: complex
    zeros: tuple

    def __post_init__(self):
        u = complex(self.factor)
        if abs(abs(u) - 1.0) > 1e-12:
            raise SymbolError(f"Blaschke factor must be unimodular, |u| = {abs(u)}")
        u /= abs(u)
        zeros = tuple(complex(w) for w in self.zeros)
        for w in zeros:
            if abs(w) >= 1.0:
                raise SymbolError(f"Blaschke zero must be interior, |w| = {abs(w)}")
        object.__setattr__(self, "factor", u)
        object.__setattr__(self, "zeros", zeros)

    def _ev(self, z):
        out = np.full_like(z, self.factor)
        for w in self.zeros:
            out = out * (w - z) / (1.0 - np.conj(w) * z)
        return out


@dataclass(frozen=True)
class Compose(Symbol):
    """outer . inner (apply inner first)."""

    outer: Symbol
    inner: Symbol

    def _ev(self, z):
        return self.outer._ev(np.asarray(self.inner._ev(z), dtype=complex))


@dataclass(frozen=True)
class Scale(Symbol):
    """factor * inner with 0 < factor <= 1 (keeps self-maps self-maps)."""

    factor: float
    inner: Symbol

    def __post_init__(self):
        f = float(self.factor)
        if not (0.0 < f <= 1.0):
            raise SymbolError(f"scale factor must lie in (0, 1], got {f}")
        object.__setattr__(self, "factor", f)

    def _ev(self, z):
        return self.factor * self.inner._ev(z)


def compose(phi: Symbol, psi: Symbol) -> Symbol:
    """phi . psi as a tree node; evaluation is exact by construction."""
    return Compose(phi, psi)


def as_polynomial(phi: Symbol) -> Optional[tuple]:
    """Ascending coefficients when the tree is exactly a polynomial, else None."""
    if isinstance(phi, Constant):
        return (phi.value,)
    if isinstance(phi, Identity):
        return (0j, 1 + 0j)
    if isinstance(phi, Polynomial):
        return phi.coefficients
    if isinstance(phi, Scale):
        inner = as_polynomial(phi.inner)
        if inner is None:
            return None
        return tuple(phi.factor * c for c in inner)
    if isinstance(phi, Moebius):
        if phi.a == 0:
            return (0j, -1 + 0j)
        return None
    if isinstance(phi, Blaschke):
        if all(w == 0 for w in phi.zeros):
            n = len(phi.zeros)
            return tuple([0j] * n + [phi.factor * (-1 + 0j) ** n])
        return None
    if isinstance(phi, Compose):
        outer = as_polynomial(phi.outer)
        inner = as_polynomial(phi.inner)
        if outer is None or inner is None:
            return None
        acc = np.array([0j])
        zpow = np.array([1 + 0j])
        inner_arr = np.asarray(inner)
        for c in outer:
            acc = npoly.polyadd(acc, c * zpow)
            zpow = npoly.polymul(zpow, inner_arr)
        return tuple(complex(c) for c in acc)
    return None


def power(phi: Symbol, n: int) -> Symbol:
    """The pointwise power phi**n (exact Polynomial when phi is one)."""
    if n < 1:
        raise SymbolError(f"power exponent must be >= 1, got {n}")
    coeffs = as_polynomial(phi)
    if coeffs is not None:
        acc = np.array([1 + 0j])
        base = np.asarray(coeffs)
        k = n
        while k:
            if k & 1:
                acc = npoly.polymul(acc, base)
            base = npoly.polymul(base, base)
            k >>= 1
        return Polynomial(tuple(complex(c) for c in acc))
    monomial = Polynomial(tuple([0j] * n + [1 + 0j]))
    return Compose(monomial, phi)


# ---------------------------------------------------------------------------
# boundary grids and Taylor coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryGrid:
    """Samples of a self-map at the n-th roots of unity."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 64 or self.n & (self.n - 1):
            raise SymbolError(f"boundary grid size must be a power of two >= 64, got {self.n}")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.n,):
            raise SymbolError("boundary grid shape mismatch")
        top = float(np.max(np.abs(values)))
        if top > 1.0 + 1e-10:
            raise NotSelfMapError(
                f"boundary modulus {top} exceeds 1", sup=top,
                witness=complex(values[int(np.argmax(np.abs(values)))]))
        object.__setattr__(self, "values", values)


@functools.lru_cache(maxsize=48)
def _cached_roots(n: int) -> np.ndarray:
    out = np.exp(2j * math.pi * np.arange(n) / n)
    out.setflags(write=False)
    return out


def roots_of_unity(n: int) -> np.ndarray:
    # grids beyond 2^18 are too large to keep around; recompute those
    if n <= 2 ** 18:
        return _cached_roots(n)
    return np.exp(2j * math.pi * np.arange(n) / n)


def refine(evaluate, n: int, max_n: int, settled) -> tuple:
    """The package's one grid-refinement loop: ``evaluate`` on the grids n,
    2n, 4n, ... until ``settled(prev, cur)`` holds (``prev`` is the previous
    grid's value, None on the first) or the grid reaches ``max_n``.  Returns
    (value, n, settled) of the last grid evaluated."""
    prev = None
    while True:
        cur = evaluate(n)
        if settled(prev, cur):
            return cur, n, True
        if n >= max_n:
            return cur, n, False
        prev = cur
        n *= 2


@functools.lru_cache(maxsize=64)
def _cached_values(phi: Symbol, n: int) -> np.ndarray:
    values = np.asarray(phi.eval(roots_of_unity(n)), dtype=complex)
    values.setflags(write=False)
    return values


def raw_boundary_values(phi: Symbol, n: int) -> np.ndarray:
    """Boundary values without the self-map gate (any bounded symbol tree)."""
    if n <= 2 ** 18:
        return _cached_values(phi, n)
    return np.asarray(phi.eval(roots_of_unity(n)), dtype=complex)


def boundary_samples(phi: Symbol, n: int) -> BoundaryGrid:
    """Boundary values of a validated self-map on the n-th roots of unity."""
    certificate(phi)
    return BoundaryGrid(n, raw_boundary_values(phi, n))


def taylor(phi: Symbol, m: int, n: int | None = None) -> np.ndarray:
    """First m+1 Taylor coefficients at the origin.

    Polynomial trees are passed through exactly.  Otherwise the
    coefficients come from inverting a boundary grid of size n >= 4(m+1);
    when n is not given the grid is doubled until the coefficients
    stabilize.
    """
    if m < 0:
        raise SymbolError("taylor order must be >= 0")
    coeffs = as_polynomial(phi)
    if coeffs is not None:
        out = np.zeros(m + 1, dtype=complex)
        take = min(m + 1, len(coeffs))
        out[:take] = coeffs[:take]
        return out
    if n is not None:
        if n < 4 * (m + 1):
            raise SymbolError(f"grid of {n} samples cannot resolve order {m}; need >= {4 * (m + 1)}")
        if n < 64 or n & (n - 1):
            raise SymbolError("taylor grid size must be a power of two >= 64")
        values = boundary_samples(phi, n).values
        return np.fft.fft(values)[: m + 1] / n
    size = 256
    while size < 4 * (m + 1):
        size *= 2
    return refine(
        lambda k: np.fft.fft(boundary_samples(phi, k).values)[: m + 1] / k, size, 2 ** 20,
        lambda prev, cur: prev is not None and np.max(np.abs(cur - prev))
        < 1e-13 * max(1.0, float(np.max(np.abs(cur)))))[0]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfMapCertificate:
    kind: str               # "strict" or "boundary-touching"
    sup: float              # boundary sup-norm estimate
    contact: complex | None  # argmax boundary point when touching
    grid_n: int

    @property
    def strict(self) -> bool:
        return self.kind == "strict"


def validate_self_map(phi: Symbol, n: int = VALIDATION_GRID) -> SelfMapCertificate:
    """Classify a symbol as a self-map or reject it with a witness."""
    zeta = roots_of_unity(n)
    values = phi.eval(zeta)
    mods = np.abs(values)
    idx = int(np.argmax(mods))
    sup = float(mods[idx])
    # negated comparisons, so that NaN boundary values are rejected too
    if not sup <= 1.0 + REJECT_MARGIN:
        raise NotSelfMapError(
            f"sup |phi| = {sup} on the boundary is not at most 1", witness=complex(zeta[idx]), sup=sup)
    center = abs(complex(phi.eval(0j)))
    if not center < 1.0:
        raise NotSelfMapError(
            f"|phi(0)| = {center} is not interior; the map does not send the disc into itself",
            witness=0j, sup=sup)
    if sup >= 1.0 - TOUCH_MARGIN:
        return SelfMapCertificate("boundary-touching", sup, complex(zeta[idx]), n)
    return SelfMapCertificate("strict", sup, None, n)


@functools.lru_cache(maxsize=512)
def certificate(phi: Symbol) -> SelfMapCertificate:
    """Cached validation; everything that evaluates symbols goes through here."""
    return validate_self_map(phi)


# ---------------------------------------------------------------------------
# JSON description codec
# ---------------------------------------------------------------------------

def _cx_to_json(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _cx_from_json(v) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SymbolError(f"complex values are [re, im] pairs, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def symbol_to_json(phi: Symbol) -> dict:
    if isinstance(phi, Constant):
        return {"kind": "const", "value": _cx_to_json(phi.value)}
    if isinstance(phi, Identity):
        return {"kind": "identity"}
    if isinstance(phi, Polynomial):
        return {"kind": "poly", "coefficients": [_cx_to_json(c) for c in phi.coefficients]}
    if isinstance(phi, Moebius):
        return {"kind": "moebius", "a": _cx_to_json(phi.a)}
    if isinstance(phi, Blaschke):
        return {"kind": "blaschke", "factor": _cx_to_json(phi.factor),
                "zeros": [_cx_to_json(w) for w in phi.zeros]}
    if isinstance(phi, Compose):
        return {"kind": "compose", "outer": symbol_to_json(phi.outer),
                "inner": symbol_to_json(phi.inner)}
    if isinstance(phi, Scale):
        return {"kind": "scale", "factor": phi.factor, "inner": symbol_to_json(phi.inner)}
    raise SymbolError(f"unknown symbol node {type(phi).__name__}")


#: deepest nesting of nodes accepted from a JSON description; Python's
#: recursion limit bounds how deep a frozen tree can be hashed or evaluated
MAX_SYMBOL_DEPTH = 64


def symbol_from_json(data: dict) -> Symbol:
    return _node_from_json(data, 1)


def _node_from_json(data: dict, depth: int) -> Symbol:
    if depth > MAX_SYMBOL_DEPTH:
        raise SymbolError(f"symbol description nests deeper than {MAX_SYMBOL_DEPTH} nodes")
    if not isinstance(data, dict) or "kind" not in data:
        raise SymbolError(f"symbol description must be an object with a 'kind', got {data!r}")
    kind = data["kind"]
    try:
        if kind == "const":
            return Constant(_cx_from_json(data["value"]))
        if kind == "identity":
            return Identity()
        if kind == "poly":
            return Polynomial(tuple(_cx_from_json(c) for c in data["coefficients"]))
        if kind == "moebius":
            return Moebius(_cx_from_json(data["a"]))
        if kind == "blaschke":
            return Blaschke(_cx_from_json(data["factor"]),
                            tuple(_cx_from_json(w) for w in data["zeros"]))
        if kind == "compose":
            return Compose(_node_from_json(data["outer"], depth + 1),
                           _node_from_json(data["inner"], depth + 1))
        if kind == "scale":
            return Scale(float(data["factor"]), _node_from_json(data["inner"], depth + 1))
    except KeyError as exc:
        raise SymbolError(f"symbol description of kind {kind!r} is missing {exc}") from exc
    except SymbolError:
        raise
    except (TypeError, ValueError) as exc:
        raise SymbolError(f"malformed symbol description of kind {kind!r}: {exc}") from exc
    raise SymbolError(f"unknown symbol kind {kind!r}")
