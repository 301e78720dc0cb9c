"""Assembly of the root-graded Lie algebra L(b, K) for all five families.

The model is the direct sum of tensor components (G (x) A), (S (x) B),
(V (x) C) and the quotient {b,b}_ell / K, with the family's full bracket
table.  Structure constants over the assembled basis are computed once,
exactly; the Jacobi, grading and subsystem checks run off that table,
and antisymmetry is proved from the terms' parities.

Levels: the parameter ``ell`` is always the level parameter of the
derivations; the induced index-subset size is m0 = ell for families
B/C/BC and m0 = ell + 1 for A/D.  The matrix side binds its
normalizations to m0 (the truncated products, with the extra factor 2 in
the A/D symmetric product, and the level operator).  The coordinate side
binds them to ell through one constant, kappa = ``coord.inner_scale``,
which only ``coord`` reads: each coset label's kappa beta* comes from
``BBQuotient.inner_of``, so every bracket-term scale is a plain
constant.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, NamedTuple

from .coord import (
    CoordinateQuadruple,
    _bilinear,
    build_bb,
    check_uniform,
    full_homology,
)
from .exactla import (
    BasedSpace,
    Q,
    add_scaled,
    apply,
    clean,
    label_text,
    outer,
    products,
    rref,
    scalar,
)
from .liealg import (
    build_algebra,
    build_module,
    d_uw,
    label_weight,
    truncation_idempotent,
    v_ops,
)
from .rootsys import (
    Root,
    RootSystem,
    classify_lengths,
    connected_components,
    generate,
    is_full_subsystem,
    root_str,
)

RANK_BOUNDS = {"BC": 3, "B": 4, "C": 4, "A": 4, "D": 4}
# A/D bound is on ell with m0 = ell + 1 > 5, i.e. ell > 4

UNDERLYING = {"A": "A", "B": "B", "C": "C", "D": "D", "BC": "C"}


class ModelError(ValueError):
    pass


def subset_size(family: str, ell: int) -> int:
    return ell + 1 if family in ("A", "D") else ell


# ---------------------------------------------------------------------------
# the bracket as a table of terms
#
# A basis element is a matrix-side object times a coordinate-side object:
# x (x) a in G (x) A, s (x) b in S (x) B, u (x) c in V (x) C, and for a coset
# <k> of the D-part the pair (J_0, <k>).  The bracket of two basis elements
# is bilinear in both sides (Allison-Benkart-Gao, Memoirs AMS 158, 2002;
# Benkart-Zelmanov, Invent. Math. 126, 1996): a sum of terms
#     scale * mat(x, y) (x) coord(a, a')
# each placed in a target kind.  TERMS holds these terms per family and per
# pair of kinds, in basis order (g < s < v < d), so the d-rows give
# [e, <k>] = -[<k>, e].


class Term(NamedTuple):
    target: str  # kind of the result: "g", "s", "v" or "d"
    mat: Callable  # (model, x, y) -> matrix, natural-module vector or scalar
    coord: Callable  # (model, a, a') -> entry dict over a or C, or a b (x) b tensor
    scale: Fraction = 1


# matrix side.  Each operand and each result is an entry dict, {(row, col):
# value} of a matrix or {label: value} of a natural-module vector, or a
# scalar.  The product ops read the pair's two products (xy, yx), and run
# only on pairs with one of them nonzero.  The other ops read (x, y).


def _lie(m, xy, yx):
    out = dict(xy)
    add_scaled(out, yx, -1)
    return out


def _jordan(m, xy, yx):
    out = dict(xy)
    add_scaled(out, yx)
    return out


def _trace(m, xy, yx):
    return sum(v for (r, c), v in xy.items() if r == c)


def _circ(m, xy, yx):
    """The family-normalized symmetric product xy + yx - (f tr(xy)/|I_0|) J_0,
    f = 2 on A and D and 1 on the others."""
    out = _jordan(m, xy, yx)
    t = _trace(m, xy, yx)
    if t:
        f = 2 if m.family in ("A", "D") else 1
        add_scaled(out, m.idem0, scalar(Q(-f * t, m.m0)))
    return out


# each product op's sign when x and y swap, (xy, yx) -> (yx, xy); a test pins it
_PRODUCTS = {_lie: -1, _circ: 1, _jordan: 1, _trace: 1}


def _act(m, x, u):
    return apply(x, u)


def _acted_on(m, u, x):
    return apply(x, u)


def _first(m, x, y):
    return x


def _one(m, x, y):
    return 1


def _form(m, u, w):
    return m.G.nat.form(u, w)


def _d_uw(m, u, w):
    return d_uw(m.G.nat, u, w)


def _v_op(variant: str) -> Callable:
    def op(m, u, w):
        return v_ops(u, w, m.G.nat, m.idem0, m.m0, variant)

    return op


# coordinate side.  An element of a or of C is its entry dict over b's
# labels, and every product is one of b (``q.b_table``): a a', a.c, and
# f(c, c') = c c'.  A coset <e1, e2> is its tensor label (e1, e2).


def _prod(m, x, y):
    return _bilinear(m.quadruple.b_table, x, y)


def _circle(m, x, y):
    return _jordan(m, _prod(m, x, y), _prod(m, y, x))


def _bracket(m, x, y):
    return _lie(m, _prod(m, x, y), _prod(m, y, x))


def _pair(m, x, y):
    return outer(x, y)


def _inner(m, lab):
    """kappa beta* of the coset label (e1, e2), as an entry dict."""
    return m.bb.inner_of({lab: 1})


def _with_inner(op: Callable) -> Callable:
    def coord(m, a, lab):
        return op(m, a, _inner(m, lab))

    return coord


def _inner_act(m, c, lab):
    return _prod(m, _inner(m, lab), c)


def _deriv(m, x, lab):
    """The part of d_lab that is not inner, ``q.label_part(lab)``, applied
    to x: all of d_lab on type B, minus half the f-term on C for BC."""
    return apply(m.quadruple.label_part(lab), x)


def _coset_act(m, lab, other):
    """[<lab>, <other>] of {b,b}_ell, as its canonical tensor."""
    return m.bb.bracket_cosets({lab: 1}, {other: 1})


_DD = (Term("d", _one, _coset_act),)
_TYPE_C = {
    "gg": (
        Term("g", _lie, _circle, Q(1, 2)),
        Term("s", _circ, _bracket, Q(1, 2)),
        Term("d", _trace, _pair),
    ),
    "gs": (Term("g", _circ, _bracket, Q(1, 2)), Term("s", _lie, _circle, Q(1, 2))),
    "gd": (
        Term("g", _jordan, _with_inner(_bracket), Q(1, 2)),
        Term("s", _lie, _with_inner(_circle), Q(1, 2)),
    ),
    "sd": (
        Term("g", _lie, _with_inner(_circle), Q(1, 2)),
        Term("s", _circ, _with_inner(_bracket), Q(1, 2)),
        Term("d", _trace, _with_inner(_pair)),
    ),
    "dd": _DD,
}
_TYPE_C["ss"] = _TYPE_C["gg"]

TERMS: dict[str, dict[str, tuple[Term, ...]]] = {
    "A": {
        "gg": (
            Term("g", _lie, _circle, Q(1, 2)),
            Term("g", _circ, _bracket, Q(1, 2)),
            Term("d", _trace, _pair),
        ),
        "gd": (
            Term("g", _circ, _with_inner(_bracket), Q(1, 2)),
            Term("g", _lie, _with_inner(_circle), Q(1, 2)),
            Term("d", _trace, _with_inner(_pair)),
        ),
        "dd": _DD,
    },
    "B": {
        "gg": (Term("g", _lie, _prod), Term("d", _trace, _pair)),
        "gs": (Term("s", _act, _prod),),
        "ss": (Term("g", _d_uw, _prod), Term("d", _form, _pair)),
        # no "gd": [g (x) a, <x, y>] = -g (x) d_{x,y}(a) is 0 for a in A.
        # Split x and y into A- and W-parts; d_{x,y}(a) = y(xa) - x(ya)
        # then vanishes by commutativity and by associativity on the AAA,
        # AAB and ABB triples, which ``validate_quadruple`` checks
        "sd": (Term("s", _first, _deriv, -1),),
        "dd": _DD,
    },
    "C": _TYPE_C,
    "BC": {
        **_TYPE_C,
        "gv": (Term("v", _act, _prod),),
        "sv": (Term("v", _act, _prod),),
        # c diamond c' = [c, c']/2 and c heart c' = (c o c')/2, the two
        # parts of f, as f(c, c') = c c' in b
        "vv": (
            Term("g", _v_op("circ"), _bracket, Q(1, 2)),
            Term("s", _v_op("bracket_ell"), _circle, Q(1, 2)),
            Term("d", _form, _pair),
        ),
        "vd": (
            Term("v", _acted_on, _inner_act, -1),
            Term("v", _first, _deriv, -1),
        ),
    },
    # the D-part of type D is central
    "D": {"gg": (Term("g", _lie, _prod), Term("d", _trace, _pair))},
}


def _scalar_coords(val) -> dict[int, Fraction]:
    return {0: val} if val else {}


def _label_coords(space: BasedSpace) -> Callable:
    """The reader of entry dicts {label: value} over ``space`` as {label
    position: coefficient}."""
    return lambda entries: {space.pos(lab): c for lab, c in entries.items()}


def _coset_coords(dpart) -> Callable:
    """The reader of b (x) b tensors as coset coordinates in the D-part."""
    read = _label_coords(dpart.coset_space)
    return lambda t: read(dpart.relations.reduce(t))


class _Kind(NamedTuple):
    """A kind of basis element, laid out by ``GradedModel._assemble_basis``:
    element (i, p) sits at offset + i * width + p, width being the number of
    coordinate-side objects.  The two readers give the coordinates, in the
    kind's matrix-side and coordinate-side objects, of the factors of a
    term that lands in this kind."""

    offset: int
    width: int
    mats: list  # matrix-side objects, as entry dicts
    coords: list  # coordinate-side objects
    read_mat: Callable
    read_coord: Callable


# the named forms of K (``--k``), each read off the full homology as the
# spanning vectors of K
K_FORMS = {"zero": lambda fh: [], "fh": lambda fh: list(fh.rows)}


class GradedModel:
    def __init__(
        self,
        family: str,
        n: int,
        ell: int,
        quadruple: CoordinateQuadruple,
        k_span="zero",
        override_bounds: bool = False,
    ):
        if family not in RANK_BOUNDS:
            raise ModelError(f"unknown family {family!r}")
        if quadruple.qtype != family:
            raise ModelError(
                f"quadruple of type {quadruple.qtype} cannot coordinatize a"
                f" family-{family} model"
            )
        m0 = subset_size(family, ell)
        if ell <= RANK_BOUNDS[family] and not override_bounds:
            raise ModelError(
                f"level ell={ell} is below the proof bound for family {family}"
                " (pass --override-bounds, or override_bounds=True in the API,"
                " to experiment below it)"
            )
        if m0 > n:
            raise ModelError(f"subset size {m0} exceeds truncation size {n}")
        self.family = family
        self.n = n
        self.ell = ell
        self.m0 = m0
        self.sub_bound = ell <= RANK_BOUNDS[family]
        self.quadruple = quadruple
        self.roots = generate(family, n)
        self.lengths = classify_lengths(self.roots)

        # coordinate side
        self.bb = build_bb(quadruple, ell)
        self.fh = full_homology(self.bb)
        named = isinstance(k_span, str)
        if named and k_span not in K_FORMS:
            raise ModelError(f"unknown K form {k_span!r}: expected one of {list(K_FORMS)}")
        csp = self.bb.quotient.coset_space
        k_vectors = K_FORMS[k_span](self.fh) if named else [clean(csp, v) for v in k_span]
        # the spanning vectors of K as entry dicts over the coset labels,
        # read again by the CLI's uniform suite
        self.k_vectors = k_vectors
        uniform = check_uniform(self.bb, k_vectors, fh=self.fh)
        if not uniform["uniform"]:
            raise ModelError(
                f"K does not satisfy the uniform property: witness {uniform['witness']}"
            )
        self.dpart = self.bb.d_part(k_vectors)

        # matrix side
        self.G = build_algebra(UNDERLYING[family], n)
        # the weighted basis of the symmetric module S of C and BC
        self.smod = build_module(self.G) if family in ("C", "BC") else None
        self.idem0 = truncation_idempotent(self.G.space, range(1, m0 + 1))  # J_0

        # the coordinate-side bases of A, B and C, as entry dicts
        q = quadruple
        self.a_basis = list(q.a_part_sub.rows)
        self.b_basis = list(q.b_part_sub.rows)
        self.c_basis = [{l: 1} for l in q.c_space.labels]

        self._assemble_basis()
        self._build_table()

    # -- basis bookkeeping -------------------------------------------------

    def _assemble_basis(self):
        """Lay the basis out kind by kind (g, s, v, d), each a ``_Kind``.
        The natural module (V of BC, S of B) and C are read by label
        position, A and B through the rref of the *-eigenspace, G and the
        S of C/BC through their weighted bases; the d-part is J_0 times the
        coset labels, read by reduction modulo the D-part's relations."""
        q = self.quadruple
        nat = self.G.space

        def natural(coords, read_coord):
            vecs = [{l: 1} for l in nat.labels]
            weights = [label_weight(l) for l in nat.labels]
            return vecs, weights, coords, _label_coords(nat), read_coord

        def weighted(wb, coords, read_coord):
            return wb.basis_mats, wb.weight_of_basis, coords, wb.coords, read_coord

        # kind -> (matrix-side objects, their weights, coordinate-side
        # objects, the two readers)
        kinds = {"g": weighted(self.G.wb, self.a_basis, q.a_part_sub.coordinates)}
        if self.family == "B":
            kinds["s"] = natural(self.b_basis, q.b_part_sub.coordinates)
        elif self.smod is not None:
            kinds["s"] = weighted(self.smod, self.b_basis, q.b_part_sub.coordinates)
        if self.family == "BC":
            kinds["v"] = natural(self.c_basis, _label_coords(q.c_space))
        kinds["d"] = (
            [self.idem0], [Root.zero()], list(self.dpart.coset_labels),
            _scalar_coords, _coset_coords(self.dpart),
        )

        self.basis: list[tuple[str, tuple]] = []
        self.weight_of: list[Root] = []
        self.index_of: dict[tuple[str, tuple], int] = {}
        self._kinds: dict[str, _Kind] = {}
        for kind, (mats, weights, coords, read_mat, read_coord) in kinds.items():
            self._kinds[kind] = _Kind(
                len(self.basis), len(coords), mats, coords, read_mat, read_coord
            )
            for i, w in enumerate(weights):
                for p in range(len(coords)):
                    key = (p,) if kind == "d" else (i, p)
                    self.index_of[(kind, key)] = len(self.basis)
                    self.basis.append((kind, key))
                    self.weight_of.append(w)
        self._indices = frozenset(range(len(self.basis)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_label(self, i: int) -> str:
        kind, key = self.basis[i]
        if kind == "d":
            return f"d[{label_text(self.dpart.coset_space.labels[key[0]])}]"
        coord = {"g": "a", "s": "b", "v": "c"}[kind]
        return f"{kind}{key[0]}[{root_str(self.weight_of[i])}]⊗{coord}{key[1]}"

    def indices_by_weight(self) -> dict[Root, list[int]]:
        out: dict[Root, list[int]] = {}
        for i, w in enumerate(self.weight_of):
            out.setdefault(w, []).append(i)
        return out

    # -- bracket table ------------------------------------------------------

    def _block(self, k1: str, k2: str, keep: dict) -> dict:
        """Rows [e, f] for all basis pairs e < f with e of kind k1 and f of
        kind k2, evaluated from the family's terms.  Each factor is computed
        once per matrix-side pair (i <= j within a kind) and once per
        coordinate-side pair, the coordinate factors first: a term with
        none is dead, and its matrix side is skipped.  When some product
        term is live, ``products`` forms every nonzero product of the two
        kinds' matrices once, and the product ops read (xy, yx) on each
        pair with one of them nonzero; the other ops run on every pair.
        ``keep`` receives the matrix-side factors of each term whose key
        (k1 + k2, target, mat) it holds, {} for a dead term.  Rows are
        summed at ``denom`` times their value, ``denom`` clearing the
        denominators of the term scales, and divided once per entry at the
        end: integral factors cost int arithmetic only, and an integral
        quotient stays an int."""
        off1, w1, mats1, coords1 = self._kinds[k1][:4]
        off2, w2, mats2, coords2 = self._kinds[k2][:4]
        same = k1 == k2
        terms = TERMS[self.family].get(k1 + k2, ())
        coords = []
        for term in terms:
            read = self._kinds[term.target].read_coord
            coords.append([
                (p, t, list(f.items()))
                for p, a in enumerate(coords1)
                for t, b in enumerate(coords2)
                if (f := read(term.coord(self, a, b)))
            ])
        both = {}  # (i, j) -> (x_i y_j, y_j x_i)
        if any(coord and term.mat in _PRODUCTS for term, coord in zip(terms, coords)):
            xy = products(mats1, mats2)
            if same:
                yx, pairs = xy, {(i, j) if i <= j else (j, i) for i, j in xy}
            else:
                yx = products(mats2, mats1)  # keyed (j, i)
                pairs = xy.keys() | {(i, j) for j, i in yx}
            both = {(i, j): (xy.get((i, j), {}), yx.get((j, i), {})) for i, j in sorted(pairs)}
            # the rows are summed without the join's containers: peak memory
            del xy, yx, pairs
        denom = lcm(*(term.scale.denominator for term in terms))
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        for term, coord in zip(terms, coords):
            off_t, w_t, _mats, _coords, mat_coords = self._kinds[term.target][:5]
            mat = {}
            if coord and term.mat in _PRODUCTS:
                for ij, (p1, p2) in both.items():
                    f = mat_coords(term.mat(self, p1, p2))
                    if f:
                        mat[ij] = f
            elif coord:
                for i, x in enumerate(mats1):
                    for j in range(i if same else 0, len(mats2)):
                        f = mat_coords(term.mat(self, x, mats2[j]))
                        if f:
                            mat[i, j] = f
            if (k1 + k2, term.target, term.mat) in keep:
                keep[k1 + k2, term.target, term.mat] = mat
            mult = scalar(term.scale * denom)
            for (i, j), mf in mat.items():
                e0, f0 = off1 + i * w1, off2 + j * w2
                scaled = [(off_t + mi * w_t, mult * cm) for mi, cm in mf.items()]
                diagonal = same and i == j
                for p, t, cf in coord:
                    if diagonal and p >= t:
                        continue
                    row = rows.setdefault((e0 + p, f0 + t), {})
                    get = row.get
                    for base, c0 in scaled:
                        for ci, cc in cf:
                            idx = base + ci
                            s = get(idx, 0) + c0 * cc
                            if s:
                                row[idx] = s
                            else:
                                del row[idx]
        # one quotient per distinct summed value
        quotients = {}
        for row in rows.values():
            for idx, c in row.items():
                quo = quotients.get(c)
                if quo is None:
                    if type(c) is int:
                        quo, rem = divmod(c, denom)
                        quo = Q(c, denom) if rem else quo
                    else:
                        quo = scalar(Q(c, denom))
                    quotients[c] = quo
                row[idx] = quo
        return {key: row for key, row in rows.items() if row}

    def _build_table(self):
        rows = {}
        # only the grading check's factors, [x_i, x_j] in G for i <= j, are kept
        kept = {("gg", "g", _lie): {}}
        for pair in TERMS[self.family]:
            rows.update(self._block(pair[0], pair[1], kept))
        self.table = {key: rows[key] for key in sorted(rows)}
        self._g_lie = kept["gg", "g", _lie]

    def bracket_indices(self, i: int, j: int) -> dict[int, Fraction]:
        if i < j:
            return self.table.get((i, j), {})
        row = self.table.get((j, i), {})
        return {m: -c for m, c in row.items()}

    def bracket(
        self, x: dict[int, Fraction], y: dict[int, Fraction]
    ) -> dict[int, Fraction]:
        """[x, y] for model elements given as {basis index: coefficient}."""
        if not (x.keys() <= self._indices and y.keys() <= self._indices):
            bad = sorted(map(repr, (x.keys() | y.keys()) - self._indices))
            raise ModelError(f"basis indices outside 0..{self.dim - 1}: {', '.join(bad)}")
        out: dict[int, Fraction] = {}
        for i, ci in x.items():
            for j, cj in y.items():
                add_scaled(out, self.bracket_indices(i, j), ci * cj)
        return {idx: scalar(c) for idx, c in out.items()}


def build_model(
    family: str,
    n: int,
    ell: int,
    quadruple: CoordinateQuadruple,
    k_span="zero",
    override_bounds: bool = False,
) -> GradedModel:
    return GradedModel(family, n, ell, quadruple, k_span, override_bounds)


# ---------------------------------------------------------------------------
# verification suites


def _parity(m: GradedModel, objs: list, op: Callable, read: Callable, sign=0) -> tuple:
    """(s, None) when read(op(y, x)) = s * read(op(x, y)) for all x, y in
    ``objs``, s being ``sign`` unless a pair with op nonzero decides it;
    (None, [i, j]) for the first pair, i <= j, that rules out every sign."""
    for i, x in enumerate(objs):
        for j in range(i, len(objs)):
            xy, yx = read(op(m, x, objs[j])), read(op(m, objs[j], x))
            if xy or yx:
                s = 1 if yx == xy else -1 if yx == {k: -c for k, c in xy.items()} else None
                if s is None or sign == -s:
                    return None, [i, j]
                sign = s
    return sign, None


def verify_antisymmetry(m: GradedModel) -> dict:
    """[f, e] = -[e, f] for all basis pairs, by the parity lemma (README): a
    same-kind term whose factors change by opposite signs when the arguments
    swap, or that has one identically 0, is antisymmetric; cross-kind pairs
    are stored once.  The product ops' signs are given (``_PRODUCTS``), each
    other factor's is found by ``_parity`` at each run; the table is unread.
    A witness: block, term index, factor, and the pair of objects breaking it."""
    failures = []
    checked = 0
    for kind, (_off, width, mats, coords, *_readers) in m._kinds.items():
        size = len(mats) * width
        checked += size * (size - 1) // 2
        for t, term in enumerate(TERMS[m.family].get(kind + kind, ())):
            target = m._kinds[term.target]
            factor, sign, pair = "mat", _PRODUCTS.get(term.mat), None
            if sign is None:
                sign, pair = _parity(m, mats, term.mat, target.read_mat)
            if sign:
                factor = "coord"
                sign, pair = _parity(m, coords, term.coord, target.read_coord, -sign)
            if sign is None:
                failures.append({"block": kind + kind, "term": t, "factor": factor, "pair": pair})
    return {
        "name": "antisymmetry",
        "status": "pass" if not failures else "fail",
        "pairs_checked": checked,
        "pairs_structural": m.dim * (m.dim - 1) // 2 - checked,
        "witnesses": failures[:5],
    }


def _adjacency(m: GradedModel) -> tuple[list, list]:
    """The table as ``_anchor_defects`` reads it, built per call from
    ``sorted(m.table)`` with every coefficient times the lcm of all
    denominators, as flat int lists.  For each index a: the nonzero entries
    of [x_a, x_y] as parallel lists (y, idx, c), ascending in y (a pair
    (a, b) adds its row at a and minus its row at b, and the pairs (y, a)
    with y < a sort before the pairs (a, z)); and the pairs j < k whose row
    holds x_a at c, as parallel lists ((j * dim + k) * dim, c) in (j, k)
    order."""
    dim = m.dim
    denom = lcm(*{c.denominator for row in m.table.values() for c in row.values()})
    near = [([], [], []) for _ in range(dim)]
    reverse = [([], []) for _ in range(dim)]
    for (a, b), row in sorted(m.table.items()):
        base = (a * dim + b) * dim
        ya, ia, ca = near[a]
        yb, ib, cb = near[b]
        for idx, c in row.items():
            c = c.numerator * (denom // c.denominator)
            ya.append(b)
            ia.append(idx)
            ca.append(c)
            yb.append(a)
            ib.append(idx)
            cb.append(-c)
            bases, vals = reverse[idx]
            bases.append(base)
            vals.append(c)
    return near, reverse


def _anchor_defects(adj, i: int, lo: int) -> dict[tuple[int, int], dict[int, int]]:
    """{(j, k): integer coordinates of the nonzero [x_i, [x_j, x_k]] +
    [x_j, [x_k, x_i]] + [x_k, [x_i, x_j]]} for lo <= j < k (a repeated index
    gives zero, as a pair's two directions hold a row and its negative).
    Each term walks the nonzero brackets it is built from, over ranges
    found by bisection: the first the pairs j >= lo that hold a neighbour
    of i, the others, read as -[x_j, [x_i, x_k]] and -[[x_i, x_j], x_k], the
    neighbours x >= lo of i.  Each walk is one zip over slices of the flat
    lists."""
    near, reverse = adj
    dim = len(near)
    out: dict[int, int] = {}  # key (j * dim + k) * dim + idx
    get = out.get
    ys, idxs, cs = near[i]
    dd = dim * dim
    first = lo * dd
    for mid, idx, v in zip(ys, idxs, cs):
        bases, rcs = reverse[mid]
        t = bisect_left(bases, first)
        for base, c in zip(bases[t:], rcs[t:]):
            key = base + idx
            out[key] = get(key, 0) + c * v
    start = bisect_left(ys, lo)
    for x, mid, c in zip(ys[start:], idxs[start:], cs[start:]):
        mys, midxs, mcs = near[mid]
        # k = x: -[x_j, x_mid] c = [x_mid, x_j] c for lo <= j < x
        low, hi = bisect_left(mys, lo), bisect_left(mys, x)
        xd = x * dim
        for j, idx, v in zip(mys[low:hi], midxs[low:hi], mcs[low:hi]):
            key = j * dd + xd + idx
            out[key] = get(key, 0) + c * v
        # j = x: -[x_mid, x_k] c for k > x
        low = bisect_right(mys, x, hi)
        xbase, c = x * dd, -c
        for k, idx, v in zip(mys[low:], midxs[low:], mcs[low:]):
            key = xbase + k * dim + idx
            out[key] = get(key, 0) + c * v
    defects: dict[tuple[int, int], dict[int, int]] = {}
    for key, v in out.items():
        if v:
            defects.setdefault(divmod(key // dim, dim), {})[key % dim] = v
    return defects


def _candidates(m: GradedModel) -> list[dict]:
    """The candidate generators, signed permutations {label: (label',
    sign)} of the natural labels (README, "exhaustive Jacobi").  The
    permutations leave index n out on A, C and BC, whose Cartan bases
    e_ii - e_nn and e_ii + e_i'i' - e_nn - e_n'n' (v:i' = vb:i) are not
    monomial once n moves, and keep it on B and D (e_ii - e_i'i').  The sign
    change at each block's first index, n included, fixes e_nn + e_n'n'."""
    kinds = ("v",) if m.family == "A" else ("v", "vb")
    eps = -1 if m.family in ("C", "BC") else 1
    out = []
    for block in (range(1, m.m0 + 1), range(m.m0 + 1, m.n + 1)):
        b = [i for i in block if i != m.n or m.family in ("B", "D")]
        perms = [dict(zip(b[:2], b[1::-1])), dict(zip(b, b[1:] + b[:1]))][: max(0, len(b) - 1)]
        out += [{f"{k}:{i}": (f"{k}:{j}", 1) for k in kinds for i, j in p.items()} for p in perms]
        if m.family != "A":
            out += [{f"v:{i}": (f"vb:{i}", 1), f"vb:{i}": (f"v:{i}", eps)} for i in block[:1]]
    return out


def _signed_map(m: GradedModel, relabel: dict):
    """(sigma, lam), e_a -> lam[a] e_sigma[a], induced by ``relabel`` on G,
    S and V (the coordinates and the D-part fixed); None where some basis
    object is not sent to plus or minus one basis object."""
    sigma, lam = list(range(m.dim)), [1] * m.dim
    image_of = {lab: relabel.get(lab, (lab, 1)) for lab in m.G.space.labels}

    def move(key):  # a matrix entry (row, col), or a natural-module label
        if type(key) is not tuple:
            return image_of[key]
        (r, sr), (c, sc) = image_of[key[0]], image_of[key[1]]
        return (r, c), sr * sc

    for kind, (off, width, mats, *_readers) in m._kinds.items():
        if kind == "d":
            continue
        position = {frozenset(x.items()): i for i, x in enumerate(mats)}
        for i, x in enumerate(mats):
            image = [(k, s * v) for k, v in x.items() for k, s in [move(k)]]
            for sign in (1, -1):
                j = position.get(frozenset((k, sign * v) for k, v in image))
                if j is not None:
                    break
            else:
                return None
            at, to = off + i * width, off + j * width
            sigma[at : at + width] = range(to, to + width)
            lam[at : at + width] = [sign] * width
    return sigma, lam


def _preserves(adj, entries: dict, sigma: list, lam: list) -> bool:
    """Whether e_a -> lam[a] e_sigma[a] maps each entry of ``_adjacency``'s
    [x_a, x_y], a < y, to its image in ``entries`` ({(a * dim + y) * dim +
    idx: c}, a < y); as a bijection on keys, it then keeps zero brackets."""
    near = adj[0]
    dim = len(near)
    get = entries.get
    for a, (ys, idxs, cs) in enumerate(near):
        sa, la = sigma[a], lam[a]
        t = bisect_right(ys, a)
        for y, idx, c in zip(ys[t:], idxs[t:], cs[t:]):
            sy, c = sigma[y], la * lam[y] * lam[idx] * c
            key = (sa * dim + sy if sa < sy else sy * dim + sa) * dim + sigma[idx]
            if get(key) != (c if sa < sy else -c):
                return False
    return True


def _jacobi_anchors(m: GradedModel, adj) -> list[int] | None:
    """The anchors X of a proof of Jacobi from the index symmetries, or None
    where one of its premises fails.

    Lemma (Humphreys, GTM 9, 10.3 and 12.1): given antisymmetry, the x with
    ad x a derivation form a subalgebra D, which automorphisms keep.  With
    README's five premises (pairs stored as a < b; kept generators preserve
    the table; each nonzero-weight orbit holds an anchor or is reached by a
    row of proved orbits with one entry outside them; grading (iii); no
    defect J(x, y, z), x an anchor, y < z), D holds every index."""
    if any(a >= b for a, b in m.table):
        return None
    entries = {b + idx: c for idx, (bases, cs) in enumerate(adj[1]) for b, c in zip(bases, cs)}
    root = list(range(m.dim))  # union-find over the orbits, rooted at their least index

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    for relabel in _candidates(m):
        mapped = _signed_map(m, relabel)
        if mapped and _preserves(adj, entries, *mapped):
            for a, b in enumerate(mapped[0]):
                ra, rb = find(a), find(b)
                root[max(ra, rb)] = min(ra, rb)
    del entries
    by_weight = m.indices_by_weight()
    zero_space, span, _ = _zero_weight_span(m, by_weight, [w for w in by_weight if not w.is_zero()])
    if span.dim != zero_space.dim:
        return None
    orbit = [find(a) if not w.is_zero() else -1 for a, w in enumerate(m.weight_of)]
    # the rows [x_r, x_y] of each orbit's least index r, y of nonzero weight,
    # as (r, y's orbit, the orbits of the entries): the generators carry
    # them onto the rows of every other index of the orbit
    rows = set()
    for r in set(orbit) - {-1}:
        by_y: dict[int, list] = {}
        for y, t, c in zip(*adj[0][r]):
            if c:  # an entry stored as 0 is no entry
                by_y.setdefault(y, []).append(orbit[t])
        rows.update((r, orbit[y], tuple(sorted(ts))) for y, ts in by_y.items() if orbit[y] >= 0)
    proved, anchors = set(), []
    for x in sorted(set(orbit) - {-1}):
        if x in proved:
            continue
        if _anchor_defects(adj, x, 0):
            return None
        anchors.append(x)
        proved.add(x)
        while reached := {
            left[0]
            for a, b, ts in rows
            if a in proved and b in proved
            and len(left := [t for t in ts if t not in proved]) == 1 and left[0] >= 0
        }:
            proved |= reached
    return anchors


def _triple_defect(table: dict, i: int, j: int, k: int) -> dict[int, Fraction]:
    """The Jacobi defect of (i, j, k) in exact rationals, read off ``table``
    with one lookup per bracket."""
    out: dict[int, Fraction] = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for mid, x in table.get((b, c) if b < c else (c, b), {}).items():
            across = table.get((a, mid) if a < mid else (mid, a), {})
            add_scaled(out, across, x if (b < c) == (a < mid) else -x)
    return out


def verify_jacobi(m: GradedModel, strategy: dict) -> dict:
    """strategy: {"kind": "exhaustive_basis"} or {"kind": "random", "samples": n, "seed": s}.

    Exhaustive first tries the proof from the index symmetries
    (``_jacobi_anchors``); where it does not close, it runs
    ``_anchor_defects`` once per index i over the triples i < j < k.
    Random runs ``_triple_defect`` once per draw.  ``triples`` counts the
    triples proved, or covered up to the fifth witness."""
    dim = m.dim
    kind = strategy.get("kind")
    if kind == "exhaustive_basis":
        count = total = dim * (dim + 1) * (dim + 2) // 6
        adj = _adjacency(m)
        # covered: all but the triples with i' > i, with (i, j' > j), with (i, j, k' > k)
        found = () if _jacobi_anchors(m, adj) is not None else (
            ((i, j, k), d, total - (dim - i - 1) * (dim - i) * (dim - i + 1) // 6
             - (dim - j - 1) * (dim - j) // 2 - (dim - 1 - k))
            for i in range(dim) for (j, k), d in sorted(_anchor_defects(adj, i, i + 1).items()))
    elif kind == "random":
        count = int(strategy["samples"])
        # no seed is needed when no triple is drawn
        rng = random.Random(int(strategy["seed"])) if count else None
        draws = ((rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)) for _ in range(count))
        found = ((ijk, d, t + 1) for t, ijk in enumerate(draws) if (d := _triple_defect(m.table, *ijk)))
    else:
        raise ValueError(
            f"unknown Jacobi strategy kind {kind!r}: expected 'exhaustive_basis' or 'random'"
        )
    failures = []
    for triple, defect, covered in found:
        labels = [m.basis_label(t) for t in triple]
        failures.append({"triple": labels, "defect_indices": sorted(defect)})
        if len(failures) == 5:
            count = covered
            break
    return {
        "name": f"jacobi[{kind}]",
        "status": "pass" if not failures else "fail",
        "triples": count,
        "witnesses": failures,
    }


def _check(name: str, passed: bool, witnesses=()) -> dict:
    status = "pass" if passed else "fail"
    return {"name": name, "status": status, "witnesses": list(witnesses)[:5]}


def _suite(name: str, checks: list[dict]) -> dict:
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"name": name, "status": status, "checks": checks}


def verify_grading(m: GradedModel) -> dict:
    """The grading axioms for the assembled model: grading pair, weights, L_0."""
    checks = []
    unit_coords = m.quadruple.a_part_sub.coordinates(m.quadruple.unit)

    # (i) x -> x (x) 1 is an injective Lie homomorphism on the split algebra
    hom_fail = []
    units = [
        {m.index_of[("g", (gi, ai))]: c for ai, c in unit_coords.items()}
        for gi in range(len(m.G.wb.basis_mats))
    ]
    for i, xi in enumerate(units):
        for j in range(i + 1, len(units)):
            lhs = m.bracket(xi, units[j])
            expected: dict[int, Fraction] = {}
            for gk, c in m._g_lie.get((i, j), {}).items():
                add_scaled(expected, units[gk], c)
            if lhs != expected:
                hom_fail.append([m.basis_label(min(xi)), m.basis_label(min(units[j]))])
    checks.append(
        _check("grading-pair: x -> x(x)1 is a Lie homomorphism", not hom_fail, hom_fail)
    )

    # (ii) every basis vector is a simultaneous ad-eigenvector for the
    # Cartan with eigenvalue tuple equal to its designed weight
    eig_fail = []
    # ad_h[hpos][e] = [h (x) 1, x_e], read off the table in one pass
    in_cartan: dict[int, list[tuple[int, Fraction]]] = {}
    for hpos, h in enumerate(m.G.cartan):
        for gi, cg in m.G.wb.coords(h).items():
            for ai, ca in unit_coords.items():
                in_cartan.setdefault(m.index_of[("g", (gi, ai))], []).append((hpos, cg * ca))
    ad_h: list[dict[int, dict[int, Fraction]]] = [{} for _ in m.G.cartan]
    for (a, b), row in m.table.items():
        for hpos, c in in_cartan.get(a, ()):
            add_scaled(ad_h[hpos].setdefault(b, {}), row, c)
        for hpos, c in in_cartan.get(b, ()):
            add_scaled(ad_h[hpos].setdefault(a, {}), row, -c)
    for e_idx in range(m.dim):
        w = m.weight_of[e_idx]
        for hpos, ad in enumerate(ad_h):
            acc = ad.get(e_idx, {})
            lam = _cartan_eigenvalue(m, w, hpos)
            expected = {e_idx: lam} if lam else {}
            if acc != expected:
                eig_fail.append([m.basis_label(e_idx), hpos])
                break
    checks.append(
        _check("weight decomposition: ad-eigenvector check", not eig_fail, eig_fail)
    )

    # weight table: weights lie in R and the per-root dimensions match
    by_weight = m.indices_by_weight()
    dims = {w: len(indices) for w, indices in by_weight.items()}
    table_fail = []
    in_r_fail = [root_str(w) for w in dims if w not in m.roots.roots]
    for alpha in m.roots.nonzero():
        expected = _expected_weight_dim(m, alpha)
        if dims.get(alpha, 0) != expected:
            table_fail.append(
                {"root": root_str(alpha), "dim": dims.get(alpha, 0), "expected": expected}
            )
    checks.append(
        _check(
            "weight table: weights in R and dimensions match",
            not (table_fail or in_r_fail),
            in_r_fail + table_fail,
        )
    )

    # (iii) L_0 = sum over alpha of [L_alpha, L_-alpha]
    zero_space, span, stray = _zero_weight_span(
        m, by_weight, [alpha for alpha in by_weight if not alpha.is_zero()]
    )
    l0_fail = [f"opposite-root bracket has nonzero weight part at {bad}" for bad in stray]
    if span.dim != zero_space.dim:
        l0_fail.append(f"span dim {span.dim} < zero-weight dim {zero_space.dim}")
    checks.append(_check("L_0 = sum of [L_alpha, L_-alpha]", not l0_fail, l0_fail))
    return _suite("grading", checks)


def _zero_weight_span(m: GradedModel, by_weight: dict, roots: Iterable[Root]):
    """The span of the brackets [x_i, x_j], x_i of weight alpha and x_j of
    weight -alpha for each alpha in ``roots``, in the zero-weight space
    labelled by the model's basis indices.  Returns that space, the span as
    a Subspace, and for each bracket with a part of nonzero weight the first
    three indices of that part (such a bracket is left out of the span).
    Each pair {alpha, -alpha} is visited once, from the first of the two in
    ``roots``: [x_j, x_i] = -[x_i, x_j] adds nothing to the span."""
    zero_space = BasedSpace(by_weight.get(Root.zero(), []))
    vecs, stray = [], []
    seen = set()
    for alpha in roots:
        if -alpha in seen:
            continue
        seen.add(alpha)
        for i in by_weight.get(alpha, []):
            for j in by_weight.get(-alpha, []):
                row = m.bracket_indices(i, j)
                if not row:
                    continue
                bad = [idx for idx in row if not m.weight_of[idx].is_zero()]
                if bad:
                    stray.append(bad[:3])
                    continue
                vecs.append(row)
    return zero_space, rref(vecs, zero_space), stray


def _cartan_eigenvalue(m: GradedModel, w: Root, hpos: int) -> int:
    if m.family == "A":
        return w.coords.get(hpos + 1, 0) - w.coords.get(hpos + 2, 0)
    return w.coords.get(hpos + 1, 0)


def _expected_weight_dim(m: GradedModel, alpha: Root) -> int:
    da = len(m.a_basis)
    db = len(m.b_basis)
    dc = len(m.c_basis)
    cls = m.lengths[alpha]
    fam = m.family
    if fam in ("A", "D"):
        return da
    if fam in ("B", "C"):
        return da + db if cls == "short" else da
    # BC
    if cls == "short":
        return dc
    if cls == "long":
        return da + db
    return da


# ---------------------------------------------------------------------------
# subsystem subalgebras of the model


class SubModel:
    def __init__(self, model: GradedModel, s_roots: Iterable[Root]):
        self.model = model
        s_set = {r for r in s_roots if not r.is_zero()}
        if not is_full_subsystem(s_set | {Root.zero()}, model.roots):
            raise ModelError("S is not a full subsystem of the model's root system")
        comps = connected_components(
            RootSystem(model.family, model.n, s_set | {Root.zero()})
        )
        if len(comps) != 1:
            raise ModelError("S is not irreducible")
        self.s_roots = s_set
        by_weight = model.indices_by_weight()
        self.nonzero_indices = sorted(
            i for alpha in s_set for i in by_weight.get(alpha, [])
        )
        self.zero_space, self.zero_part, _ = _zero_weight_span(
            model, by_weight, sorted(s_set)
        )

    @property
    def dim(self) -> int:
        return len(self.nonzero_indices) + self.zero_part.dim

    def verify(self) -> dict:
        m = self.model
        checks = []
        closure_fail = []
        basis_rows: list[dict[int, Fraction]] = [
            {i: 1} for i in self.nonzero_indices
        ] + list(self.zero_part.rows)
        # each basis index's weight, classified once: 0 zero, 1 in S, 2 other
        where = [0 if w.is_zero() else 1 if w in self.s_roots else 2 for w in m.weight_of]
        indices = self.nonzero_indices
        single = len(indices)
        # [x_y, z] for each zero-weight row z and each index y of weight in
        # S, summed from the table rows [x_y, x_t] = s * row in the order
        # ``GradedModel.bracket`` sums them
        by_t: dict[int, list] = {t: [] for t in self.zero_space.labels}
        for (a, b), row in m.table.items():
            for t, y, s in ((b, a, 1), (a, b, -1)):
                if t in by_t and where[y] == 1:
                    by_t[t].append((y, row, s))
        ads: list[dict[int, dict]] = [{} for _ in self.zero_part.rows]
        for ad, z in zip(ads, self.zero_part.rows):
            for t, c in z.items():
                for y, row, s in by_t[t]:
                    add_scaled(ad.setdefault(y, {}), row, s * c)
        for a_pos, xa in enumerate(basis_rows):
            for b_pos, xb in enumerate(basis_rows[a_pos:], a_pos):
                # [x_i, x_j] of two basis indices i <= j is their table row
                if b_pos < single:
                    acc = m.table.get((indices[a_pos], indices[b_pos]), {})
                elif a_pos < single:
                    acc = ads[b_pos - single].get(indices[a_pos], {})
                else:
                    acc = m.bracket(xa, xb)
                zero_piece: dict[int, Fraction] = {}
                for idx, c in acc.items():
                    if where[idx] == 0:
                        zero_piece[idx] = c
                    elif where[idx] == 2:
                        w = m.weight_of[idx]
                        closure_fail.append(f"bracket leaves S at weight {root_str(w)}")
                        zero_piece = None
                        break
                if zero_piece is None:
                    continue
                if zero_piece and not self.zero_part.contains(zero_piece):
                    closure_fail.append("zero-weight part escapes the subalgebra")
        checks.append(
            _check("subalgebra closed under bracket", not closure_fail, closure_fail)
        )
        # grading pair: G^S root spaces present for the semi-divisible part
        s_sdiv = {r for r in self.s_roots if r.scale(2) not in self.s_roots}
        missing = [root_str(alpha) for alpha in s_sdiv if alpha not in m.G.wb.root_space_index]
        checks.append(
            _check(
                "grading pair root spaces present (S semi-divisible part)",
                not missing,
                missing,
            )
        )
        return _suite("subsystem", checks)


def subalgebra(model: GradedModel, s_roots: Iterable[Root]) -> SubModel:
    return SubModel(model, s_roots)


# ---------------------------------------------------------------------------
# level transitions


# the kind the level correction lands in; B and D have none, as beta*
# vanishes on their commutative coordinates
_LEVEL_TARGET = {"A": "g", "C": "s", "BC": "s"}


def level_coset(
    m: GradedModel, lam_subset: Iterable[int], x: dict, y: dict
) -> dict[int, Fraction]:
    """The lambda-level coset <x, y>_lambda as a model element
    {basis index: coefficient}: the level-0 coset {x, y} plus
    ``_level_op`` (x) kappa beta*(x, y), for the entry dicts x, y of
    elements of b (an element of a or C is one of b)."""
    lam = frozenset(lam_subset)
    if not set(range(1, m.m0 + 1)) <= lam:
        raise ModelError("lambda must contain the base subset I_0")
    if not lam <= set(range(1, m.n + 1)):
        raise ModelError("lambda exceeds the model truncation")
    tensor = outer(x, y)
    dcoset = m._kinds["d"].read_coord(tensor)
    coeffs = {m.index_of[("d", (di,))]: c for di, c in dcoset.items()}
    target = _LEVEL_TARGET.get(m.family)
    if target is not None:
        inner = m.bb.inner_of(tensor)
        if inner:
            kind = m._kinds[target]
            coord = kind.read_coord(inner)
            for mi, cm in kind.read_mat(_level_op(m, lam, m.G.space)).items():
                base = kind.offset + mi * kind.width
                add_scaled(coeffs, {base + ci: cc for ci, cc in coord.items()}, cm)
    return {idx: scalar(c) for idx, c in coeffs.items()}


def _level_op(m: GradedModel, lam: frozenset, space) -> dict:
    """(m0/|I_lambda|) J_lambda - J_0 on the given natural space, as its
    entry dict."""
    out = dict.fromkeys(truncation_idempotent(space, lam), scalar(Q(m.m0, len(lam))))
    add_scaled(out, truncation_idempotent(space, range(1, m.m0 + 1)), -1)
    return out


def verify_level_transition(m: GradedModel, added: int) -> dict:
    """The verdict {"status": "pass", "lambda_size": |lambda|, "witnesses":
    []} for lambda = I_0 plus ``added`` >= 1 fresh indices, which the lemma
    below proves for every model the build accepts.

    Lemma.  On the natural space of any truncation n >= |lambda|, the level
    operator (m0/|lambda|) J_lambda - J_0 (``_level_op``) is 0 at lambda =
    I_0, and at every lambda past I_0 it is nonzero, traceless and form-
    compatible (op^T G = G op).  On B and D, beta* is 0.  Proof: J_lambda is
    the diagonal projection onto the labels indexed in lambda (and v:0 on
    B), a set closed under v:i <-> vb:i, the only pairs the Gram matrix G
    links; so J_lambda^T G = G J_lambda (A has no form).  tr J_lambda = c
    |lambda|, c = 1 on A and 2 on C and BC, so the operator's trace is
    (m0/|lambda|) c |lambda| - c m0 = 0.  At lambda = I_0 it is J_0 - J_0;
    at a fresh index its diagonal entry is m0/|lambda| != 0.  On B and D, a
    is commutative (the Jordan law on B; on D, star = id is an
    antiautomorphism) and C = 0, so beta*(x, y) = ([x, y] + [x*, y*])/2 is 0
    and ``bb.beta_rows`` is empty.  The kernel needs no check: beta* is 0 on
    the relation space by the uniform verdict the build enforces.
    """
    if added < 1:
        raise ModelError(f"a level transition adds at least one index, got {added}")
    return {"status": "pass", "lambda_size": m.m0 + added, "witnesses": []}
