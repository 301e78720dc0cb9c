"""Finite truncations of the classical split simple Lie algebras.

sl, o_B, o_D and sp are constructed as exact kernels of their defining
linear conditions (trace zero, or skew-adjointness for the family's
bilinear form), then split into simultaneous ad-eigenspaces of the
standard Cartan.  The classical spanning-vector formulas are used as
cross-checks in the test suite, not as the construction; the eigenvalue
equation [h, x] = alpha(h) x is the ground truth for every root space.

The bilinear forms keep their factor 2 verbatim; the bracket tables of
the graded construction depend on those constants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Container

from .exactla import (
    BasedSpace,
    Q,
    ShapeError,
    SparseMatrix,
    SparseVector,
    Subspace,
    add_scaled,
    apply,
    kernel_of_rows,
    rref,  # not called here, but bench/tracing.py traces liealg.rref
    scalar,
)
from .rootsys import Root, generate  # likewise liealg.generate

ALGEBRA_FAMILIES = ("A", "B", "C", "D")


class DegenerateInputError(ValueError):
    """Truncation too small to host the family's nonzero roots."""


# ---------------------------------------------------------------------------
# based spaces, forms and gl coordinates


def natural_labels(family: str, n: int) -> list[str]:
    if family == "A":
        return [f"v:{i}" for i in range(1, n + 1)]
    labels = []
    if family == "B":
        labels.append("v:0")
    labels += [f"v:{i}" for i in range(1, n + 1)]
    labels += [f"vb:{i}" for i in range(1, n + 1)]
    return labels


def label_weight(lab: str) -> Root:
    kind, _, num = lab.partition(":")
    i = int(num)
    if i == 0:
        return Root.zero()
    return Root.eps(i) if kind == "v" else Root.eps(i, -1)


class FormedSpace:
    """A based space carrying the family's distinguished bilinear form."""

    __slots__ = ("family", "n", "space", "gram")

    def __init__(self, family: str, n: int):
        self.family = family
        self.n = n
        self.space = BasedSpace(natural_labels(family, n))
        entries: dict[tuple[str, str], Fraction] = {}
        if family == "A":
            self.gram = None
            return
        for i in range(1, n + 1):
            vi, vbi = f"v:{i}", f"vb:{i}"
            if family in ("B", "D"):
                entries[(vi, vbi)] = 2
                entries[(vbi, vi)] = 2
            else:  # C and the BC construction share the symplectic form
                entries[(vi, vbi)] = 2
                entries[(vbi, vi)] = -2
        if family == "B":
            entries[("v:0", "v:0")] = 2
        self.gram = SparseMatrix(self.space, self.space, entries)

    def form(self, u: dict, w: dict) -> Fraction:
        fu = self.functional(u)
        return sum((c * fu.get(lab, 0) for lab, c in w.items()), 0)

    def functional(self, u: dict) -> dict[str, Fraction]:
        """The form (u, -) of an entry dict u as {label: (u, basis vector)}, read off G^T u."""
        if self.gram is None:
            raise ShapeError("type A space carries no form")
        out: dict[str, Fraction] = {}
        for (r, c), g in self.gram.entries.items():
            cu = u.get(r)
            if cu is not None:
                out[c] = out.get(c, 0) + cu * g
        return out


def gl_space(space: BasedSpace) -> BasedSpace:
    """gl(V) with the (row, col) labels of matrix entries: the entry dict of
    a matrix on V is its coordinate vector."""
    return BasedSpace([(r, c) for r in space.labels for c in space.labels])


def matrix_unit(j: str, k: str, space: BasedSpace) -> SparseMatrix:
    """e_{j,k}: v_i -> delta_{k,i} v_j."""
    space.pos(j), space.pos(k)
    return SparseMatrix(space, space, {(j, k): 1})


def gl_coord_weight(lab: tuple[str, str]) -> Root:
    r, c = lab
    return label_weight(r) - label_weight(c)


# ---------------------------------------------------------------------------
# weight-adapted subspace machinery


class WeightedBasis:
    """A subspace of gl coordinates organized by ad-weights of the Cartan.

    The basis ``basis_mats`` is the rows of ``full``, the span as a canonical
    rref ``Subspace`` (as ``kernel_of_rows`` returns it), as matrices on
    ``space``, grouped by the weight of their pivot label: the weight-zero
    block first, then nonzero weights in sorted order, each block in pivot
    order.  Used for
    both the algebras and the symmetric module.  The span must be graded
    by the weights, i.e. each row of ``full`` lies in one weight space.
    Coordinates are read from a matrix's entry dict through ``full``,
    whose row k is basis vector ``_basis_of_row[k]``.
    """

    __slots__ = (
        "basis_mats",
        "weight_of_basis",
        "zero_block",
        "root_space_index",
        "full",
        "_basis_of_row",
    )

    def __init__(self, space: BasedSpace, full: Subspace):
        self.full = full
        glsp = full.ambient
        weights = []
        for p, row in zip(self.full.pivots, self.full.rows):
            w = gl_coord_weight(glsp.labels[p])
            if any(gl_coord_weight(lab) != w for lab in row.entries):
                raise ShapeError("span is not graded by the Cartan weights")
            weights.append(w)
        # a stable sort keeps pivot order within a weight; Root.zero().key()
        # is (), so the weight-zero block comes first
        order = sorted(range(len(weights)), key=lambda k: weights[k].key())
        self.basis_mats = [SparseMatrix(space, space, self.full.rows[k].entries) for k in order]
        self.weight_of_basis = [weights[k] for k in order]
        self.root_space_index: dict[Root, list[int]] = {}
        self._basis_of_row = [0] * len(order)
        for i, k in enumerate(order):
            self._basis_of_row[k] = i
            if not weights[k].is_zero():
                self.root_space_index.setdefault(weights[k], []).append(i)
        self.zero_block = sum(w.is_zero() for w in weights)

    @property
    def dim(self) -> int:
        return len(self.basis_mats)

    def coords(self, entries: dict[tuple[str, str], Fraction]) -> dict[int, Fraction]:
        """Coefficients over the weight-adapted basis of the matrix with
        these {(row, col): value} entries; raises ShapeError if it lies
        outside the span."""
        basis_of_row = self._basis_of_row
        return {basis_of_row[k]: c for k, c in self.full.entry_coordinates(entries)}


# ---------------------------------------------------------------------------
# the classical algebras


class MatrixLieAlgebra:
    __slots__ = ("family", "n", "nat", "glsp", "wb", "cartan")

    def __init__(self, family: str, n: int):
        if family not in ALGEBRA_FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        min_n = 1 if family == "B" else 2
        if n < min_n:
            raise DegenerateInputError(
                f"family {family} needs truncation size >= {min_n} to host nonzero roots"
            )
        self.family = family
        self.n = n
        self.nat = FormedSpace(family, n)
        space = self.nat.space
        self.glsp = gl_space(space)
        rows = defining_condition_rows(self.nat)
        ker = kernel_of_rows(rows, self.glsp)
        self.wb = WeightedBasis(space, ker)
        if family == "A":
            self.cartan = [
                matrix_unit(f"v:{i}", f"v:{i}", space)
                - matrix_unit(f"v:{i+1}", f"v:{i+1}", space)
                for i in range(1, n)
            ]
        else:
            self.cartan = [
                matrix_unit(f"v:{i}", f"v:{i}", space)
                - matrix_unit(f"vb:{i}", f"vb:{i}", space)
                for i in range(1, n + 1)
            ]

    @property
    def dim(self) -> int:
        return self.wb.dim

    @property
    def space(self) -> BasedSpace:
        return self.nat.space

    def root_vector(self, alpha: Root) -> SparseMatrix:
        positions = self.wb.root_space_index[alpha]
        if len(positions) != 1:
            raise ShapeError(f"root space of {alpha} is not one dimensional")
        return self.wb.basis_mats[positions[0]]


def defining_condition_rows(nat: FormedSpace) -> list[SparseVector]:
    """Linear conditions cutting the algebra out of gl, as rows over gl coords."""
    glsp = gl_space(nat.space)
    if nat.family == "A":
        return [_trace_row(nat, glsp)]
    # phi^T G + G phi = 0  <=>  (phi v, w) = -(v, phi w)
    return _form_rows(nat, glsp, 1)


def _trace_row(nat: FormedSpace, glsp: BasedSpace) -> SparseVector:
    return SparseVector(glsp, {(l, l): 1 for l in nat.space.labels})


def _form_rows(nat: FormedSpace, glsp: BasedSpace, sign: Fraction) -> list[SparseVector]:
    """The nonzero entries (u, w) of phi^T G + sign * G phi, as rows over gl
    coordinates, for the Gram matrix G of the natural module."""
    labels = nat.space.labels
    cols: dict[str, list[tuple[str, Fraction]]] = {}
    rows_g: dict[str, list[tuple[str, Fraction]]] = {}
    for (r, c), v in nat.gram.entries.items():
        rows_g.setdefault(r, []).append((c, v))
        cols.setdefault(c, []).append((r, v))
    out = []
    for u in labels:
        for w in labels:
            # (phi^T G)[u, w] = sum_t phi[t,u] G[t,w], (G phi)[u, w] = sum_t G[u,t] phi[t,w]
            entries: dict[tuple[str, str], Fraction] = {}
            for t, val in cols.get(w, ()):
                entries[t, u] = entries.get((t, u), 0) + val
            for t, val in rows_g.get(u, ()):
                entries[t, w] = entries.get((t, w), 0) + sign * val
            if entries:
                out.append(SparseVector(glsp, entries))
    return out


def build_algebra(family: str, n: int) -> MatrixLieAlgebra:
    return MatrixLieAlgebra(family, n)


def expected_dimension(family: str, n: int) -> int:
    return {
        "A": n * n - 1,
        "B": 2 * n * n + n,
        "C": 2 * n * n + n,
        "D": 2 * n * n - n,
    }[family]


# ---------------------------------------------------------------------------
# modules


def build_module(algebra: MatrixLieAlgebra) -> WeightedBasis:
    """The weighted basis of the symmetric module S of family C: the traceless
    form-symmetric maps, solved from their defining linear conditions."""
    if algebra.family != "C":
        raise ValueError("the symmetric module is only defined for family C")
    nat, glsp = algebra.nat, algebra.glsp
    # traceless, and phi^T G - G phi = 0  <=>  (phi v, w) = (v, phi w)
    rows = [_trace_row(nat, glsp)] + _form_rows(nat, glsp, -1)
    return WeightedBasis(nat.space, kernel_of_rows(rows, glsp))


# ---------------------------------------------------------------------------
# truncation idempotents and the pair operators


def truncation_idempotent(nat_space: BasedSpace, subset: Container[int]) -> SparseMatrix:
    """J_subset: the projection onto the basis vectors indexed by the
    subset, and onto v:0 (type B) always."""
    entries = {}
    for lab in nat_space.labels:
        i = int(lab.partition(":")[2])
        if i == 0 or i in subset:
            entries[(lab, lab)] = 1
    return SparseMatrix(nat_space, nat_space, entries)


def v_ops(u: dict, v: dict, nat: FormedSpace, j0: dict, m0: int, variant: str) -> dict:
    """The level-normalized pair operators on the natural space, on entry
    dicts: of the vectors u, v, and of J_0 on m0 indices, j0."""
    half = Q(1, 2)
    if variant not in ("circ", "bracket_ell"):
        raise ValueError(f"unknown variant {variant!r}")
    vw = nat.functional(v)
    # (u, w) for circ; (w, u) = (G u)[w] for bracket_ell, whose order flips
    uw = nat.functional(u) if variant == "circ" else apply(nat.gram.entries, u)
    entries: dict[tuple[str, str], Fraction] = {}
    for w_lab in nat.space.labels:
        # column w: (1/2)(v, w) u + (1/2) uw[w] v
        col: dict[str, Fraction] = {}
        for vec, c in ((u, vw.get(w_lab)), (v, uw.get(w_lab))):
            if c:
                add_scaled(col, vec, scalar(half * c))
        entries.update(((r, w_lab), c) for r, c in col.items())
    uv = 0 if variant == "circ" else nat.form(u, v)
    if uv:
        add_scaled(entries, j0, scalar(uv / Q(2 * m0)))
    return {key: scalar(c) for key, c in entries.items()}


def d_uw(nat: FormedSpace, u: dict, w: dict) -> dict:
    """The Jordan derivation D_{u,w}: z -> (u, z) w - (w, z) u on the natural
    module, on entry dicts; for type B these span o_B."""
    uz, wz = nat.functional(u), nat.functional(w)
    entries = {}
    for z in nat.space.labels:
        col: dict[str, Fraction] = {}
        add_scaled(col, w, uz.get(z, 0))
        add_scaled(col, u, -wz.get(z, 0))
        entries.update(((r, z), scalar(val)) for r, val in col.items())
    return entries

