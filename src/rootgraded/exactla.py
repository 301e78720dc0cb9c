"""Exact rational sparse linear algebra over based vector spaces.

Everything downstream (root systems, matrix Lie algebras, coordinate
algebras, graded models) is built on the types here.  Scalars are
exact rationals: ``int`` when integral, ``fractions.Fraction`` otherwise;
no floats.  ``scalar`` is the one normalizer every stored entry passes
through, so a Fraction with denominator 1 never stays one.  All values are
immutable after construction and all operations are pure, so they can be
shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

Q = Fraction

class ShapeError(ValueError):
    """Operands live in incompatible based spaces."""


def scalar(val) -> int | Fraction:
    """The exact rational ``val`` as stored: an int stays an int, an
    integral Fraction becomes its numerator, any other Fraction is kept.
    A float is refused, since its binary expansion is not the rational it
    was meant to be."""
    if type(val) is not Fraction:
        if type(val) is int:
            return val
        if isinstance(val, float):
            raise ShapeError(f"float scalar {val!r}: scalars are exact rationals")
        val = Fraction(val)
    return val.numerator if val.denominator == 1 else val


def q_str(x: int | Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def q_parse(s: str) -> int | Fraction:
    return scalar(Fraction(s))


class BasedSpace:
    """A finite-dimensional vector space with a fixed ordered basis.

    Basis labels are opaque hashable values: strings for the spaces a user
    names, (x, y) pairs for tensor and gl coordinates, integers for index
    spaces.  The canonical order used for pivot selection and serialization
    is the construction order of ``labels``; ``label_text`` prints a label.
    """

    __slots__ = ("labels", "_pos")

    def __init__(self, labels: Sequence[Hashable]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        self.labels = labels
        self._pos = {lab: i for i, lab in enumerate(labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def pos(self, label: Hashable) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ShapeError(f"label {label!r} not in space") from None

    def __contains__(self, label: Hashable) -> bool:
        return label in self._pos

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, BasedSpace) and self.labels == other.labels
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"BasedSpace(dim={self.dim})"

    def basis_vector(self, label: Hashable) -> "SparseVector":
        self.pos(label)
        return SparseVector(self, {label: 1})


def tensor_space(u: BasedSpace, v: BasedSpace) -> BasedSpace:
    """Tensor product realized concretely with pair labels (a, b)."""
    return BasedSpace([(a, b) for a in u.labels for b in v.labels])


def label_text(lab: Hashable) -> str:
    """The printed form of a basis label; a pair (a, b) reads "a⊗b"."""
    if isinstance(lab, tuple):
        return f"{lab[0]}⊗{lab[1]}"
    return str(lab)


class SparseVector:
    """Finitely supported mapping from the hashable labels of a based space
    to Fractions; no explicit zeros."""

    __slots__ = ("space", "entries")

    def __init__(self, space: BasedSpace, entries: Mapping[Hashable, Fraction]):
        clean = {}
        pos = space._pos
        for lab, val in entries.items():
            if lab not in pos:
                raise ShapeError(f"label {lab!r} not in space")
            v = val if type(val) is int else scalar(val)
            if v:
                clean[lab] = v
        self.space = space
        self.entries = clean

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "SparseVector") -> "SparseVector":
        if self.space != other.space:
            raise ShapeError("vector spaces differ")
        return SparseVector(self.space, _merged(self.entries, other.entries, False))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        if self.space != other.space:
            raise ShapeError("vector spaces differ")
        return SparseVector(self.space, _merged(self.entries, other.entries, True))

    def scale(self, c: Fraction) -> "SparseVector":
        c = scalar(c)
        if c == 0:
            return SparseVector(self.space, {})
        return SparseVector(self.space, {lab: c * v for lab, v in self.entries.items()})

    def __neg__(self) -> "SparseVector":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and self.space == other.space
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.entries.items())))

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda kv: self.space.pos(kv[0]))

    def __repr__(self):
        parts = [f"{q_str(v)}*{label_text(lab)}" for lab, v in self.items_sorted()]
        return " + ".join(parts) if parts else "0"


def apply(m: Mapping, v: Mapping) -> dict:
    """The entries of m v, for a matrix m and a vector v given by their
    entry dicts {(row, col): value} and {label: value}."""
    out: dict[Hashable, Fraction] = {}
    for (r, c), x in m.items():
        if c in v:
            add_scaled(out, {r: x}, v[c])
    return {r: scalar(s) for r, s in out.items()}


def columns(entries: Mapping) -> dict:
    """Column label -> {row label: entry} of a matrix's entry dict, in
    entry order."""
    cols: dict[Hashable, dict] = {}
    for (r, c), v in entries.items():
        cols.setdefault(c, {})[r] = v
    return cols


def _merged(a: Mapping, b: Mapping, subtract: bool) -> dict:
    """The entries of a + b, or of a - b, in one pass: a's keys in order,
    then b's new ones, dropping the entries that cancel."""
    out = dict(a)
    for key, val in b.items():
        s = out.get(key, 0) - val if subtract else out.get(key, 0) + val
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


class SparseMatrix:
    """Finitely supported linear map; entries keyed by (row, col) labels.

    Rows are labels of the codomain, columns labels of the domain, so
    ``(m @ v)[r] = sum_c m[r, c] * v[c]``.
    """

    __slots__ = ("domain", "codomain", "entries")

    def __init__(
        self,
        domain: BasedSpace,
        codomain: BasedSpace,
        entries: Mapping[tuple[Hashable, Hashable], Fraction],
    ):
        clean = {}
        rows, cols = codomain._pos, domain._pos
        for (r, c), val in entries.items():
            if r not in rows or c not in cols:
                raise ShapeError(f"entry ({r!r}, {c!r}) outside matrix shape")
            v = val if type(val) is int else scalar(val)
            if v:
                clean[(r, c)] = v
        self.domain = domain
        self.codomain = codomain
        self.entries = clean

    @staticmethod
    def zero(domain: BasedSpace, codomain: BasedSpace) -> "SparseMatrix":
        return SparseMatrix(domain, codomain, {})

    @staticmethod
    def identity(space: BasedSpace) -> "SparseMatrix":
        return SparseMatrix(space, space, {(lab, lab): 1 for lab in space.labels})

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, v: SparseVector) -> SparseVector:
        if v.space != self.domain:
            raise ShapeError("matrix domain does not match vector space")
        return SparseVector(self.codomain, apply(self.entries, v.entries))

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if other.codomain != self.domain:
            raise ShapeError("composition shapes disagree")
        cols: dict[Hashable, list[tuple[Hashable, Fraction]]] = {}
        for (r, c), v in other.entries.items():
            cols.setdefault(r, []).append((c, v))
        out: dict[tuple[Hashable, Hashable], Fraction] = {}
        for (r, mid), v in self.entries.items():
            for c, w in cols.get(mid, ()):
                key = (r, c)
                s = out.get(key, 0) + v * w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return SparseMatrix(other.domain, self.codomain, out)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError("matrix shapes differ")
        out = _merged(self.entries, other.entries, False)
        return SparseMatrix(self.domain, self.codomain, out)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError("matrix shapes differ")
        out = _merged(self.entries, other.entries, True)
        return SparseMatrix(self.domain, self.codomain, out)

    def scale(self, c: Fraction) -> "SparseMatrix":
        c = scalar(c)
        if c == 0:
            return SparseMatrix.zero(self.domain, self.codomain)
        return SparseMatrix(
            self.domain, self.codomain, {k: c * v for k, v in self.entries.items()}
        )

    def __neg__(self) -> "SparseMatrix":
        return self.scale(-1)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.codomain, self.domain, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def trace(self) -> Fraction:
        if self.domain != self.codomain:
            raise ShapeError("trace needs domain = codomain")
        return sum((v for (r, c), v in self.entries.items() if r == c), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, frozenset(self.entries.items())))

    def __repr__(self):
        n = len(self.entries)
        return f"SparseMatrix({self.codomain.dim}x{self.domain.dim}, nnz={n})"


class Subspace:
    """Span of vectors, stored as a reduced row-echelon basis.

    The RREF is canonical given the ambient label order, so two subspaces
    are equal iff their ``rows`` lists are equal.
    """

    __slots__ = ("ambient", "rows", "pivots", "_row_of_pivot")

    def __init__(self, ambient: BasedSpace, rows: Sequence[SparseVector], pivots: Sequence[int]):
        self.ambient = ambient
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self._row_of_pivot = {ambient.labels[p]: i for i, p in enumerate(self.pivots)}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _eliminate(self, entries: Mapping[Hashable, Fraction]):
        """The entries minus their projection onto the span, as a dict, and
        the (row index, coefficient) pairs of that projection."""
        out = dict(entries)
        hits = _pivot_coefficients(out, self._row_of_pivot)
        for i, coeff in hits:
            add_scaled(out, self.rows[i].entries, -coeff)
        return out, hits

    def _check_space(self, v: SparseVector) -> None:
        if v.space != self.ambient:
            raise ShapeError("vector not in ambient space")

    def reduce(self, v: SparseVector) -> SparseVector:
        """Subtract the projection onto the span; residual has no pivot support."""
        self._check_space(v)
        return SparseVector(self.ambient, self._eliminate(v.entries)[0])

    def contains(self, v: SparseVector) -> bool:
        return self.reduce(v).is_zero()

    def coordinates(self, v: SparseVector) -> dict[int, Fraction]:
        """The nonzero coefficients of v over the rref basis rows, as
        {row index: coefficient}; raises if v is outside."""
        self._check_space(v)
        return dict(self.entry_coordinates(v.entries))

    def entry_coordinates(self, entries: Mapping[Hashable, Fraction]) -> list[tuple[int, Fraction]]:
        """The (row index, coefficient) pairs, in row order, of the vector
        with these nonzero entries; raises if it is outside the span.  A
        label outside the ambient space is never a pivot, so it is left in
        the residual and raises too."""
        residual, hits = self._eliminate(entries)
        if residual:
            raise ShapeError("vector not in subspace")
        return hits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient.dim})"


def add_scaled(acc: dict, row: Mapping, c: Fraction = 1) -> None:
    """acc += c * row in place, dropping the entries that cancel."""
    for k, v in row.items():
        s = acc.get(k, 0) + c * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def _pivot_coefficients(
    cur: Mapping[Hashable, Fraction], row_of_pivot: Mapping[Hashable, int]
):
    """(row index, coefficient) for the pivots cur holds, in row order.

    The rows are fully reduced (each is zero on every other pivot column),
    so subtracting one never changes cur at another pivot: the coefficients
    can be read off cur once, and only the pivots it holds need a visit.
    """
    return sorted([(row_of_pivot[lab], c) for lab, c in cur.items() if lab in row_of_pivot])


def rref(vectors: Sequence[SparseVector], space: BasedSpace | None = None) -> Subspace:
    """Reduced row-echelon basis of the span, pivots in ambient label order."""
    if space is None:
        if not vectors:
            raise ShapeError("empty vector list needs an explicit ambient space")
        space = vectors[0].space
    rows: list[dict[Hashable, Fraction]] = []
    pivots: list[int] = []
    row_of_pivot: dict[Hashable, int] = {}
    pos = space._pos
    for v in vectors:
        if v.space != space:
            raise ShapeError("mixed ambient spaces")
        if len(rows) == space.dim:
            continue  # the rows span the whole space, so v lies in it
        cur = dict(v.entries)
        for i, coeff in _pivot_coefficients(cur, row_of_pivot):
            add_scaled(cur, rows[i], -coeff)
        if not cur:
            continue
        lab_p = min(cur, key=pos.__getitem__)
        if cur[lab_p] != 1:
            inv = Q(1, cur[lab_p])
            cur = {lab: scalar(inv * val) for lab, val in cur.items()}
        # eliminate the new pivot from existing rows
        for i, row in enumerate(rows):
            coeff = row.get(lab_p)
            if coeff:
                new = dict(row)
                add_scaled(new, cur, -coeff)
                rows[i] = new
        row_of_pivot[lab_p] = len(rows)
        rows.append(cur)
        pivots.append(pos[lab_p])
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return Subspace(
        space,
        [SparseVector(space, rows[i]) for i in order],
        [pivots[i] for i in order],
    )


def kernel(m: SparseMatrix) -> Subspace:
    """Exact nullspace basis of a sparse matrix, via RREF on the rows."""
    # the rows of m, the columns of its transpose, as vectors over the domain
    rows = columns(m.transpose().entries)
    row_vecs = [SparseVector(m.domain, rows[r]) for r in m.codomain.labels if r in rows]
    return kernel_of_rows(row_vecs, m.domain)


def kernel_of_rows(rows: Sequence[SparseVector], space: BasedSpace) -> Subspace:
    """Common nullspace of a family of linear functionals given as row vectors."""
    rs = rref(list(rows), space)
    labels = space.labels
    # free label -> the pivot entries of its kernel vector, in pivot order
    free_col: dict[Hashable, list[tuple[Hashable, Fraction]]] = {}
    for p, row in zip(rs.pivots, rs.rows):
        for lab, coeff in row.entries.items():
            free_col.setdefault(lab, []).append((labels[p], -coeff))
    pivot_set = set(rs.pivots)
    basis = []
    for j, lab in enumerate(labels):
        if j in pivot_set:
            continue
        entries = {lab: 1}
        entries.update(free_col.get(lab, ()))
        basis.append(SparseVector(space, entries))
    return rref(basis, space)


class QuotientSpace:
    """Ambient space modulo a subspace of relations.

    Coset coordinates are taken over the non-pivot labels of the relation
    RREF; projection is exact and canonical.
    """

    __slots__ = ("ambient", "relations", "coset_labels", "coset_space", "_annihilator")

    def __init__(self, ambient: BasedSpace, relations: Subspace):
        if relations.ambient != ambient:
            raise ShapeError("relations not in ambient space")
        self.ambient = ambient
        self.relations = relations
        pivot_set = set(relations.pivots)
        self.coset_labels = tuple(
            lab for j, lab in enumerate(ambient.labels) if j not in pivot_set
        )
        self.coset_space = BasedSpace(self.coset_labels)
        self._annihilator = None

    @property
    def dim(self) -> int:
        return len(self.coset_labels)

    def project(self, v: SparseVector) -> SparseVector:
        """Canonical coset representative, as a vector over the coset space."""
        red = self.relations.reduce(v)
        return SparseVector(self.coset_space, dict(red.entries))

    def lift(self, w: SparseVector) -> SparseVector:
        """The canonical ambient representative of a coset vector."""
        if w.space != self.coset_space:
            raise ShapeError("vector not in coset space")
        return SparseVector(self.ambient, dict(w.entries))

    def annihilator(self) -> dict[Hashable, dict[Hashable, Fraction]]:
        """The functionals that vanish on the relations, in the basis dual to
        the coset labels: {f: pi_f}, built on first use.

        Each relation row is g_p = e_p + sum_f c_pf e_f over the coset
        labels f, so pi_f = e_f* - sum_p c_pf e_p* kills every g_p, and
        pi_f(e_f') = delta_ff'.  There is one pi_f per coset label, as many
        as the codimension of the relations: they are a basis.
        """
        if self._annihilator is None:
            pis = {f: {f: 1} for f in self.coset_labels}
            labels = self.ambient.labels
            for p, row in zip(self.relations.pivots, self.relations.rows):
                for f, c in row.entries.items():
                    if f != labels[p]:
                        pis[f][labels[p]] = -c
            self._annihilator = pis
        return self._annihilator

    def first_escape(self, pull_back: Callable[[dict], dict]) -> int | None:
        """The index of the first relation row that a linear map A of the
        ambient space takes outside the relations, or None when A keeps
        them.  ``pull_back(phi)`` is phi o A as a new {label: coefficient}
        dict, for a functional phi given the same way.

        A functional psi vanishes on the relations iff it equals
        sum_f psi(e_f) pi_f, and the residual psi - sum_f psi(e_f) pi_f is
        zero on every e_f and reads psi(g_p) at each pivot p.  With psi =
        pi_f o A for every f, the residuals are nonzero at p exactly when
        A g_p lies outside the relations: codim^2 residuals, no reduction.
        """
        pis = self.annihilator()
        row_of_pivot = self.relations._row_of_pivot
        escapes = set()
        for pi in pis.values():
            psi = pull_back(pi)
            for f, v in [(lab, v) for lab, v in psi.items() if lab in pis]:
                add_scaled(psi, pis[f], -v)
            escapes.update(row_of_pivot[lab] for lab in psi)
        return min(escapes, default=None)
