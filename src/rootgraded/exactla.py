"""Exact rational sparse linear algebra over based vector spaces.

Everything downstream (root systems, matrix Lie algebras, coordinate
algebras, graded models) is built on the types here.  Scalars are
exact rationals: ``int`` when integral, ``fractions.Fraction`` otherwise;
no floats.  ``scalar`` is the one normalizer every stored entry passes
through, so a Fraction with denominator 1 never stays one.  A vector is
its entry dict {label: value} over a ``BasedSpace``, with no zero
entries, and a matrix is its entry dict {(row, col): value}, which
``apply`` applies to a vector.  The package's two matrix kernels live
here: ``products`` multiplies lists of matrices, and ``outer`` forms
x (x) y.  No operation but ``add_scaled`` changes a dict it is given, so
results can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

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


def tensor_space(u: BasedSpace, v: BasedSpace) -> BasedSpace:
    """Tensor product realized concretely with pair labels (a, b)."""
    return BasedSpace([(a, b) for a in u.labels for b in v.labels])


def label_text(lab: Hashable) -> str:
    """The printed form of a basis label; a pair (a, b) reads "a⊗b"."""
    if isinstance(lab, tuple):
        return f"{lab[0]}⊗{lab[1]}"
    return str(lab)


def clean(space: BasedSpace, entries: Mapping) -> dict:
    """The entries of a vector over ``space`` as stored: every label must
    lie in the space, every value passes through ``scalar`` (which refuses
    a float), and the zeros are dropped."""
    out = {}
    pos = space._pos
    for lab, val in entries.items():
        if lab not in pos:
            raise ShapeError(f"label {lab!r} not in space")
        v = val if type(val) is int else scalar(val)
        if v:
            out[lab] = v
    return out


def vector_text(space: BasedSpace, entries: Mapping) -> str:
    """A vector's entries in the space's label order, as "1*x + -1/2*y",
    or "0"."""
    items = sorted(entries.items(), key=lambda kv: space.pos(kv[0]))
    return " + ".join(f"{q_str(v)}*{label_text(lab)}" for lab, v in items) or "0"


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


def outer(x: Mapping, y: Mapping) -> dict:
    """The outer product x (x) y of two vectors' entry dicts, as the matrix
    entry dict {(r, c): x_r y_c}; it has no zero entry, as x and y have none."""
    return {(r, c): scalar(vr * vc) for r, vr in x.items() for c, vc in y.items()}


def products(mats1: list[dict], mats2: list[dict]) -> dict:
    """{(i, j): entry dict of x_i y_j} for x_i in ``mats1`` and y_j in
    ``mats2``, with no key where the product is 0: one join of each x_i's
    entries, by column, with ``mats2`` indexed by row (Gustavson, ACM TOMS
    4(3), 1978), so a pair whose supports do not meet costs nothing."""
    by_row: dict = {}  # mid -> {j: [(col, entry of y_j)]}
    for j, y in enumerate(mats2):
        for (mid, c), w in y.items():
            by_row.setdefault(mid, {}).setdefault(j, []).append((c, w))
    out: dict = {}
    for i, x in enumerate(mats1):
        cols: dict = {}
        for (r, mid), v in x.items():
            cols.setdefault(mid, []).append((r, v))
        for mid, xs in cols.items():
            for j, ys in by_row.get(mid, {}).items():
                xy = out.setdefault((i, j), {})
                for r, v in xs:
                    for c, w in ys:
                        s = xy.get((r, c), 0) + v * w
                        if s:
                            xy[r, c] = s
                        else:
                            del xy[r, c]
    return {ij: xy for ij, xy in out.items() if xy}


# the package multiplies with ``products``; this class stays as the
# boundary bench/tracing.py traces as exactla.matmul
class SparseMatrix:
    """A matrix's entry dict checked against its shape, for one operation:
    the composition ``m @ p``, (m @ p)[r, c] = sum_t m[r, t] * p[t, c].

    Rows are labels of the codomain, columns labels of the domain.
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

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if other.codomain != self.domain:
            raise ShapeError("composition shapes disagree")
        out = products([self.entries], [other.entries]).get((0, 0), {})
        return SparseMatrix(other.domain, self.codomain, out)


class Subspace:
    """Span of vectors, stored as a reduced row-echelon basis whose rows
    are entry dicts.

    The RREF is canonical given the ambient label order, so two subspaces
    are equal iff their ``rows`` lists are equal.
    """

    __slots__ = ("ambient", "rows", "pivots", "_row_of_pivot")

    def __init__(self, ambient: BasedSpace, rows: Sequence[dict], pivots: Sequence[int]):
        self.ambient = ambient
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self._row_of_pivot = {ambient.labels[p]: i for i, p in enumerate(self.pivots)}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _eliminate(self, entries: Mapping[Hashable, Fraction]):
        """The nonzero entries minus their projection onto the span, as a
        dict, and the (row index, coefficient) pairs of that projection."""
        out = {lab: c for lab, c in entries.items() if c}
        hits = _pivot_coefficients(out, self._row_of_pivot)
        for i, coeff in hits:
            add_scaled(out, self.rows[i], -coeff)
        return out, hits

    def reduce(self, v: Mapping[Hashable, Fraction]) -> dict:
        """The nonzero entries v has once its projection onto the span is
        subtracted, each through ``scalar``; the residual has no pivot
        support."""
        return {lab: scalar(c) for lab, c in self._eliminate(v)[0].items()}

    def contains(self, v: Mapping[Hashable, Fraction]) -> bool:
        return not self._eliminate(v)[0]

    def coordinates(self, v: Mapping[Hashable, Fraction]) -> dict[int, Fraction]:
        """The coefficients over the rref rows, in row order, of the vector
        with these entries, as {row index: coefficient}; raises if
        it is outside the span.  A label outside the ambient space is never
        a pivot, so it is left in the residual and raises too."""
        residual, hits = self._eliminate(v)
        if residual:
            raise ShapeError("vector not in subspace")
        return dict(hits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

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


def rref(vectors: Sequence[Mapping], space: BasedSpace) -> Subspace:
    """Reduced row-echelon basis of the span of the entry dicts ``vectors``
    over ``space`` (each read through ``clean``), pivots in ambient label
    order.

    A column index, {non-pivot label: indices of the rows holding it},
    names the rows a new pivot must be eliminated from, so no row that
    lacks it is visited; an entry that cancels leaves its label's set."""
    rows: list[dict[Hashable, Fraction]] = []
    pivots: list[int] = []
    row_of_pivot: dict[Hashable, int] = {}
    holders: dict[Hashable, set[int]] = {}
    pos = space._pos
    for v in vectors:
        cur = clean(space, v)
        if len(rows) == space.dim:
            continue  # the rows span the whole space, so v lies in it
        for i, coeff in _pivot_coefficients(cur, row_of_pivot):
            add_scaled(cur, rows[i], -coeff)
        if not cur:
            continue
        lab_p = min(cur, key=pos.__getitem__)
        if cur[lab_p] != 1:
            inv = Q(1, cur[lab_p])
            cur = {lab: scalar(inv * val) for lab, val in cur.items()}
        # eliminate the new pivot from the rows that hold it
        for i in holders.pop(lab_p, ()):
            new = dict(rows[i])
            add_scaled(new, cur, -new[lab_p])
            rows[i] = new
            for lab in cur:
                if lab in new:
                    holders.setdefault(lab, set()).add(i)
                elif lab in holders:
                    holders[lab].discard(i)
        for lab in cur:
            if lab != lab_p:
                holders.setdefault(lab, set()).add(len(rows))
        row_of_pivot[lab_p] = len(rows)
        rows.append(cur)
        pivots.append(pos[lab_p])
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return Subspace(
        space,
        [{lab: scalar(val) for lab, val in rows[i].items()} for i in order],
        [pivots[i] for i in order],
    )


def kernel_of_rows(rows: Sequence[Mapping], space: BasedSpace) -> Subspace:
    """Common nullspace of a family of linear functionals given as the
    entry dicts of row vectors over ``space``."""
    rs = rref(rows, space)
    labels = space.labels
    # free label -> the pivot entries of its kernel vector, in pivot order
    free_col: dict[Hashable, list[tuple[Hashable, Fraction]]] = {}
    for p, row in zip(rs.pivots, rs.rows):
        for lab, coeff in row.items():
            free_col.setdefault(lab, []).append((labels[p], -coeff))
    pivot_set = set(rs.pivots)
    basis = []
    for j, lab in enumerate(labels):
        if j in pivot_set:
            continue
        entries = {lab: 1}
        entries.update(free_col.get(lab, ()))
        basis.append(entries)
    return rref(basis, space)


class QuotientSpace:
    """Ambient space modulo a subspace of relations.

    The coset labels are the non-pivot labels of the relation RREF.  A
    coset's canonical representative, ``relations.reduce`` of any vector
    in it, has entries at coset labels only, so one entry dict is both the
    coset vector and its ambient representative.
    """

    __slots__ = ("ambient", "relations", "coset_labels", "coset_space")

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

    @property
    def dim(self) -> int:
        return len(self.coset_labels)
