"""Finite-rank truncations of the locally finite root systems A, B, C, D, BC.

Roots are stored literally as integer vectors in the epsilon basis; the
symmetric form is (e_i, e_j) = delta_ij.  The ``n`` of a generated system
is the truncation size |I| (the docs never call it the rank of the root
system, since the classical conventions differ per type).
"""

from __future__ import annotations

from typing import Iterable, Mapping

FAMILIES = ("A", "B", "C", "D", "BC")

SHORT = "short"
LONG = "long"
EXTRALONG = "extralong"


class Root:
    """Sparse integer vector over the index universe (epsilon coordinates)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Mapping[int, int]):
        self.coords = {i: int(c) for i, c in coords.items() if c != 0}

    @staticmethod
    def eps(i: int, coeff: int = 1) -> "Root":
        return Root({i: coeff})

    @staticmethod
    def zero() -> "Root":
        return Root({})

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "Root") -> "Root":
        out = dict(self.coords)
        for i, c in other.coords.items():
            out[i] = out.get(i, 0) + c
        return Root(out)

    def __sub__(self, other: "Root") -> "Root":
        return self + other.scale(-1)

    def scale(self, k: int) -> "Root":
        return Root({i: k * c for i, c in self.coords.items()})

    def __neg__(self) -> "Root":
        return self.scale(-1)

    def dot(self, other: "Root") -> int:
        small, big = self.coords, other.coords
        if len(big) < len(small):
            small, big = big, small
        return sum(c * big.get(i, 0) for i, c in small.items())

    def norm(self) -> int:
        return self.dot(self)

    def key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.coords.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Root) and self.coords == other.coords

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other: "Root") -> bool:
        return self.key() < other.key()

    def __repr__(self):
        return root_str(self)


def root_str(r: Root) -> str:
    """Canonical text form, e.g. "e1-e2", "2e3", "0"."""
    if r.is_zero():
        return "0"
    parts = []
    for i, c in sorted(r.coords.items()):
        mag = "" if abs(c) == 1 else str(abs(c))
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign}{mag}e{i}")
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


def root_pairs(r: Root) -> list[list[int]]:
    return [[i, c] for i, c in sorted(r.coords.items())]


class RootSystem:
    __slots__ = ("family", "n", "roots")

    def __init__(self, family: str, n: int, roots: Iterable[Root]):
        self.family = family
        self.n = n
        self.roots = frozenset(roots)

    def nonzero(self) -> list[Root]:
        return sorted(r for r in self.roots if not r.is_zero())

    def sorted_roots(self) -> list[Root]:
        return sorted(self.roots)

    def __contains__(self, r: Root) -> bool:
        return r in self.roots

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and self.roots == other.roots

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        return f"RootSystem({self.family}, n={self.n}, |R|={len(self.roots)})"


def generate(family: str, n: int) -> RootSystem:
    """The finite-rank instance of the family on indices 1..n, zero included."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    idx = range(1, n + 1)
    roots: set[Root] = {Root.zero()}
    a_part = {Root.eps(i) - Root.eps(j) for i in idx for j in idx if i != j}
    d_extra = {
        (Root.eps(i) + Root.eps(j)).scale(s)
        for i in idx
        for j in idx
        if i < j
        for s in (1, -1)
    }
    b_extra = {Root.eps(i, s) for i in idx for s in (1, -1)}
    c_extra = {Root.eps(i, 2 * s) for i in idx for s in (1, -1)}
    if family == "A":
        roots |= a_part
    elif family == "D":
        roots |= a_part | d_extra
    elif family == "B":
        roots |= a_part | d_extra | b_extra
    elif family == "C":
        roots |= a_part | d_extra | c_extra
    else:  # BC
        roots |= a_part | d_extra | b_extra | c_extra
    return RootSystem(family, n, roots)


def classify_lengths(system: RootSystem) -> dict[Root, str]:
    """Partition of the nonzero roots into short / long / extra-long."""
    nz = system.nonzero()
    if not nz:
        return {}
    min_norm = min(r.norm() for r in nz)
    out = {}
    for r in nz:
        if r.norm() == min_norm:
            out[r] = SHORT
    for r in nz:
        if r in out:
            continue
        half = Root({i: c // 2 for i, c in r.coords.items()})
        if all(c % 2 == 0 for c in r.coords.values()) and out.get(half) == SHORT:
            out[r] = EXTRALONG
        else:
            out[r] = LONG
    return out


def is_full_subsystem(subset: Iterable[Root], system: RootSystem) -> bool:
    """Whether ``subset`` is a full subsystem S of ``system`` R: every root
    of R in span(S) is in S.  Raises ValueError if S is not inside R.

    Precondition: R is a root system with 0, as ``generate`` builds it.
    Then 0, which lies in every span, must be in S, and S is closed under
    its reflections with nothing more to check: for a, b in S, a nonzero,
    s_a(b) = b - <b, a^vee> a is a root of R in span(S), so it is in S."""
    sub = set(subset)
    if not sub <= system.roots:
        raise ValueError("subset is not contained in the root system")
    from .exactla import BasedSpace, rref

    space = BasedSpace(sorted({i for r in system.roots for i in r.coords}))
    span = rref([r.coords for r in sorted(sub)], space)
    return not any(span.contains(r.coords) for r in system.roots - sub)


def connected_components(system: RootSystem) -> list[list[Root]]:
    """Equivalence classes of chain-connectedness on the nonzero roots."""
    nz = system.nonzero()
    seen: set[Root] = set()
    comps: list[list[Root]] = []
    for start in nz:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for other in nz:
                if other not in seen and cur.dot(other) != 0:
                    seen.add(other)
                    stack.append(other)
        comps.append(sorted(comp))
    return comps


def roots_json(system: RootSystem) -> dict:
    lengths = classify_lengths(system)
    return {
        "family": system.family,
        "rank": system.n,
        "roots": [root_pairs(r) for r in system.sorted_roots()],
        "lengths": {root_str(r): lengths[r] for r in sorted(lengths)},
    }
