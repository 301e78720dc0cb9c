"""Coordinate quadruples (a, *, C, f) and the Lie algebra {b, b}_ell.

A quadruple is stored by structure constants over fixed bases of the
star algebra and the module.  The derived algebra b = a + C carries the
structured product; the relation space K, the derivations d^{ell,b}, the
quotient {b,b}_ell with its bracket, the full skew-dihedral homology and
the uniform property are all computed exactly.

Every claim the construction depends on (associativity, the involution
laws, well-definedness of the bracket on the quotient, centrality of the
homology) is checked mechanically rather than assumed; failures raise
``InternalConsistencyError`` with a witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactla import (
    BasedSpace,
    Q,
    QuotientSpace,
    SparseMatrix,
    SparseVector,
    Subspace,
    add_scaled,
    apply,
    columns,
    kernel,
    kernel_of_rows,
    label_text,
    q_parse,
    q_str,
    rref,
    scalar,
    tensor_space,
)
from .rootsys import FAMILIES

class InternalConsistencyError(RuntimeError):
    """A structural identity the construction relies on failed to verify."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CoordinateQuadruple:
    """(a, *, C, f) with structure constants over explicit bases."""

    __slots__ = (
        "qtype",
        "name",
        "a_space",
        "mult",
        "unit",
        "star",
        "c_space",
        "action",
        "f_table",
        "b_space",
        "b_table",
        "bb_space",
        "a_part_sub",
        "b_part_sub",
        "_ad",
        "_parts",
    )

    def __init__(
        self,
        qtype: str,
        a_labels: Sequence[str],
        mult: dict[tuple[str, str], dict[str, Fraction]],
        unit: dict[str, Fraction],
        star: dict[tuple[str, str], Fraction],
        c_labels: Sequence[str] = (),
        action: dict[tuple[str, str], dict[str, Fraction]] | None = None,
        f_table: dict[tuple[str, str], dict[str, Fraction]] | None = None,
        name: str = "",
    ):
        if qtype not in FAMILIES:
            raise ValueError(f"unknown quadruple type {qtype!r}")
        self.qtype = qtype
        self.name = name or qtype
        self.a_space = BasedSpace(a_labels)
        # the structure constants, each product of two basis elements as
        # its entry dict
        self.mult = {key: SparseVector(self.a_space, val).entries for key, val in mult.items()}
        self.unit = SparseVector(self.a_space, unit)
        self.star = SparseMatrix(self.a_space, self.a_space, star)
        self.c_space = BasedSpace(c_labels)
        self.action = {
            key: SparseVector(self.c_space, val).entries for key, val in (action or {}).items()
        }
        self.f_table = {
            key: SparseVector(self.a_space, val).entries for key, val in (f_table or {}).items()
        }
        self.b_space = BasedSpace(list(a_labels) + list(c_labels))
        # b's product, one entry dict per pair of basis labels of b = a (+) C
        # (the labels of a and of C are disjoint): a a' is ``mult``, f(c, c')
        # is ``f_table``, a.c is ``action`` and c a = a*.c
        self.b_table = {**self.mult, **self.f_table, **self.action}
        star_cols = columns(self.star.entries)
        for a in self.a_space.labels:
            for c in self.c_space.labels:
                self.b_table[c, a] = _bilinear(self.action, star_cols.get(a, {}), {c: 1})
        # b (x) b, shared by K, beta* and every {b,b}_ell built on q
        self.bb_space = tensor_space(self.b_space, self.b_space)
        ident = SparseMatrix.identity(self.a_space)
        self.a_part_sub = kernel(self.star - ident)
        self.b_part_sub = kernel(self.star + ident)
        self._ad = None
        self._parts: dict[tuple[str, str], dict] = {}

    def ad_basis(self) -> dict[str, dict[tuple[str, str], Fraction]]:
        """{r: the entries of ad(e_r) on b} for each basis label r of a with
        ad(e_r) nonzero: a' -> [e_r, a'] on a and c -> e_r.c on C.  Built
        on first use, so every derivation of q reads one copy."""
        if self._ad is None:
            t = self.b_table
            self._ad = {}
            for r in self.a_space.labels:
                ad = {}
                for lab in self.b_space.labels:
                    img = dict(t.get((r, lab), {}))
                    if lab in self.a_space:
                        add_scaled(img, t.get((lab, r), {}), -1)
                    ad.update(((row, lab), v) for row, v in img.items())
                if ad:
                    self._ad[r] = ad
        return self._ad

    def label_part(self, lab: tuple[str, str]) -> dict[tuple[str, str], Fraction]:
        """The entries of the part of d^ell_{x,y} that is not inner, for the
        b (x) b label (x, y), formed on first use; it does not depend on
        ell: the Jordan derivation [L_y, L_x] on a for B; for x, y in C (BC)
        minus half the f-term c -> x f(c, y) + y f(c, x) on C, which is
        c -> (c y) x + (c x) y in b; nothing otherwise."""
        part = self._parts.get(lab)
        if part is None:
            part = self._parts[lab] = {}
            t, (x, y) = self.b_table, lab
            # the image of e_l is the sum of c (u v) over the (u, v, c) of terms(l)
            if self.qtype == "B":
                space, terms = self.a_space, lambda l: (
                    ({y: 1}, t.get((x, l), {}), 1), ({x: 1}, t.get((y, l), {}), -1)
                )
            elif x in self.c_space and y in self.c_space:
                space, terms = self.c_space, lambda l: (
                    (t.get((l, y), {}), {x: 1}, Q(-1, 2)), (t.get((l, x), {}), {y: 1}, Q(-1, 2))
                )
            else:
                return part
            for l in space.labels:
                img: dict[str, Fraction] = {}
                for u, v, c in terms(l):
                    add_scaled(img, _bilinear(t, u, v), c)
                part.update(((r, l), scalar(w)) for r, w in img.items())
        return part

    @property
    def a_dim(self) -> int:
        return self.a_space.dim

    @property
    def c_dim(self) -> int:
        return self.c_space.dim

    def __repr__(self):
        return f"CoordinateQuadruple({self.name}, type {self.qtype})"


def _bilinear(table: dict, x: dict, y: dict) -> dict:
    """The bilinear map with basis values the entry dicts ``table[(i, j)]``,
    applied to the entry dicts x and y."""
    out: dict[str, Fraction] = {}
    for i, ci in x.items():
        for j, cj in y.items():
            term = table.get((i, j))
            if term:
                add_scaled(out, term, ci * cj)
    return out


# ---------------------------------------------------------------------------
# operations on b


def beta_star(q, x: SparseVector, y: SparseVector) -> SparseVector:
    """([a1, a2] + [a1*, a2*])/2 - c1 heart c2 for x = a1 + c1, y = a2 + c2,
    heart being the symmetric part (f(c1, c2) + f(c2, c1))/2 of f: the
    reference for the rows of ``beta_star_map_rows``."""
    t = q.b_table
    a1, a2 = ({l: v for l, v in z.entries.items() if l in q.a_space} for z in (x, y))
    c1, c2 = ({l: v for l, v in z.entries.items() if l in q.c_space} for z in (x, y))
    s1, s2 = (apply(q.star.entries, a) for a in (a1, a2))
    out: dict[str, Fraction] = {}
    for u, v, sign in ((a1, a2, 1), (s1, s2, 1), (c1, c2, -1)):
        add_scaled(out, _bilinear(t, u, v), sign)
        add_scaled(out, _bilinear(t, v, u), -1)
    return SparseVector(q.a_space, out).scale(Q(1, 2))


def inner_scale(qtype: str, ell: int) -> Fraction:
    """kappa: for types A, C and BC the derivation d^ell_{x,y} is the inner
    derivation of kappa beta*(x, y), less the f-term for BC.  kappa is
    1/(ell + 1) = 1/m0 for A and 1/(2 ell) for C and BC.  B and D have no
    inner part (beta* vanishes on their commutative coordinates): 0.  Every
    path to kappa comes here, so a level below 1 is refused here only."""
    if ell < 1:
        raise ValueError(f"the level ell must be a positive integer, got {ell}")
    if qtype == "A":
        return Q(1, ell + 1)
    if qtype in ("C", "BC"):
        return Q(1, 2 * ell)
    return 0


# ---------------------------------------------------------------------------
# validation


def validate_quadruple(q: CoordinateQuadruple) -> dict:
    """Check every defining law on basis tuples; returns a report dict.

    Each law reads the products of basis elements from the structure
    constants (``q.mult``, ``q.action``, ``q.f_table``) and the columns of
    ``q.star``, on entry dicts: (e_i e_j) e_k, say, is sum_l c_ij^l (e_l e_k).
    """
    checks = []

    def record(law: str, failures: list):
        checks.append(
            {
                "law": law,
                "status": "pass" if not failures else "fail",
                "witnesses": failures[:3],
            }
        )

    alabs, clabs = q.a_space.labels, q.c_space.labels
    mult, act, f = q.mult, q.action, q.f_table
    e = {l: {l: 1} for l in q.b_space.labels}
    unit = q.unit.entries
    star = q.star.entries
    cols = columns(star)
    e_star = {l: cols.get(l, {}) for l in alabs}  # e_l*, column l of star

    def noncommuting(fmt: str) -> list:
        return [
            fmt.format(i=i, j=j)
            for i in alabs
            for j in alabs
            if mult.get((i, j), {}) != mult.get((j, i), {})
        ]

    if q.qtype == "B":
        # the type-B star algebra is a Clifford Jordan algebra: commutative
        # with unit, not associative in general
        record("a commutative (Jordan)", noncommuting("{i}.{j} != {j}.{i}"))
        # Clifford structure: associativity on triples with at most one
        # skew factor (A associative, A-module law on B, form A-bilinear)
        rows = {"A": [r.entries for r in q.a_part_sub.rows],
                "B": [r.entries for r in q.b_part_sub.rows]}
        record("Clifford Jordan structure", [
            f"associator nonzero on {tag} triple"
            for tag in ("AAA", "AAB", "ABB")
            for x in rows[tag[0]]
            for y in rows[tag[1]]
            for z in rows[tag[2]]
            if _bilinear(mult, _bilinear(mult, x, y), z)
            != _bilinear(mult, x, _bilinear(mult, y, z))
        ])
    else:
        record("a associative", [
            f"({i}.{j}).{k} != {i}.({j}.{k})"
            for i in alabs
            for j in alabs
            for k in alabs
            if _bilinear(mult, mult.get((i, j), {}), e[k])
            != _bilinear(mult, e[i], mult.get((j, k), {}))
        ])
    record("unit law", [
        lab
        for lab in alabs
        if _bilinear(mult, unit, e[lab]) != e[lab] or _bilinear(mult, e[lab], unit) != e[lab]
    ])
    # on a = 0 the unit law holds vacuously, but 1 = 0 makes x -> x (x) 1
    # fail to be injective
    record("unit is nonzero", [] if unit else ["unit is 0"])
    record("star is an involution (star^2 = id)", [
        lab for lab in alabs if apply(star, e_star[lab]) != e[lab]
    ])
    if q.qtype in ("C", "BC", "B"):
        record("star antiautomorphism ((xy)* = y*x*)", [
            f"({i}.{j})*"
            for i in alabs
            for j in alabs
            if apply(star, mult.get((i, j), {})) != _bilinear(mult, e_star[j], e_star[i])
        ])
    if q.qtype in ("A", "D"):
        identity = {(l, l): 1 for l in alabs}
        record("star = id", [] if star == identity else ["star differs from identity"])
    if q.qtype == "D":
        record("a commutative", noncommuting("{i}.{j}"))
    if q.qtype in ("A", "B", "C", "D"):
        record("module part trivial", [] if q.c_dim == 0 else ["C is nonzero"])
    if q.qtype == "BC":
        record("module unital", [l for l in clabs if _bilinear(act, unit, e[l]) != e[l]])
        record("module associative ((xy).c = x.(y.c))", [
            f"({i}.{j}).{l}"
            for i in alabs
            for j in alabs
            for l in clabs
            if _bilinear(act, mult.get((i, j), {}), e[l])
            != _bilinear(act, e[i], act.get((j, l), {}))
        ])
        record("f skew-hermitian (f(c,c')* = -f(c',c))", [
            f"f({l},{m})"
            for l in clabs
            for m in clabs
            if apply(star, f.get((l, m), {})) != {a: -v for a, v in f.get((m, l), {}).items()}
        ])
        record("f left semilinear (f(x.c, c') = x f(c, c'))", [
            f"f({i}.{l},{m})"
            for i in alabs
            for l in clabs
            for m in clabs
            if _bilinear(f, act.get((i, l), {}), e[m])
            != _bilinear(mult, e[i], f.get((l, m), {}))
        ])
    record(
        "a = A (+) B eigenspace split",
        []
        if q.a_part_sub.dim + q.b_part_sub.dim == q.a_dim
        else [f"dim A + dim B = {q.a_part_sub.dim}+{q.b_part_sub.dim} != {q.a_dim}"],
    )
    ok = all(c["status"] == "pass" for c in checks)
    return {"quadruple": q.name, "type": q.qtype, "valid": ok, "checks": checks}


# ---------------------------------------------------------------------------
# the relation space K and the quotient {b,b}_ell


def relation_generators(q: CoordinateQuadruple) -> list[SparseVector]:
    """The seven generator families of K, instantiated over basis tuples.

    A generator that is zero, or equal to one emitted before it, is left
    out: it adds nothing to the span, and the rref of the list is the same
    row for row.  The symmetric pairs (x, y) and (y, x), and the three
    rotations of a cyclic triple, give equal generators, so only x <= y and
    the first rotation in loop order are formed."""
    gens: list[SparseVector] = []
    seen: set[frozenset] = set()

    def tens(*pairs: tuple[dict, dict]) -> None:
        """Emit the sum of x (x) y over the given pairs of entry dicts (x, y)."""
        entries: dict[tuple[str, str], Fraction] = {}
        for x, y in pairs:
            for lx, vx in x.items():
                add_scaled(entries, {(lx, ly): vy for ly, vy in y.items()}, vx)
        key = frozenset(entries.items())
        if entries and key not in seen:
            seen.add(key)
            gens.append(SparseVector(q.bb_space, entries))

    t = q.b_table
    alabs, clabs = q.a_space.labels, q.c_space.labels
    e = {l: {l: 1} for l in q.b_space.labels}
    for a in alabs:
        for c in clabs:
            tens((e[a], e[c]))
            tens((e[c], e[a]))
    for a in q.a_part_sub.rows:
        for b in q.b_part_sub.rows:
            tens((a.entries, b.entries))
    for i, x in enumerate(alabs):
        for y in alabs[i:]:
            tens((e[x], e[y]), (e[y], e[x]))
    for i, c in enumerate(clabs):
        for cp in clabs[i + 1 :]:
            tens((e[c], e[cp]), ({cp: -1}, e[c]))
    n = len(alabs)
    for i, x in enumerate(alabs):
        for j in range(i, n):
            for k in range(i, n):
                # the first of the three rotations in loop order has the
                # least index first; of (i, j, i) and (i, i, j) it is the latter
                if k == i < j:
                    continue
                y, z = alabs[j], alabs[k]
                xy, zx, yz = (t.get(pair, {}) for pair in ((x, y), (z, x), (y, z)))
                tens((xy, e[z]), (zx, e[y]), (yz, e[x]))
    # f(c, c') (x) a + (a*.c') (x) c - (a.c) (x) c', that is
    # (c c') (x) a + (c' a) (x) c - (a c) (x) c' in b
    for c in clabs:
        for cp in clabs:
            for a in alabs:
                ccp, cpa, ac = (t.get(pair, {}) for pair in ((c, cp), (cp, a), (a, c)))
                tens((ccp, e[a]), (cpa, e[c]), (ac, {cp: -1}))
    return gens


class BBQuotient:
    """{b, b}_ell = (b (x) b)/K with the derivation-induced bracket.

    ``beta_rows`` is the beta* map b (x) b -> a as rows,
    ``beta_star_map_rows(q)``; like K it does not depend on ell.  ``kappa``
    is ``inner_scale`` at ell, formed when ell is set: a level below 1 fails
    there.  ``derivations`` is {coset label f: d^ell_f}, formed once when
    ell is set; every derivation a coset acts by is read from there.
    """

    __slots__ = ("q", "ell", "kappa", "tensor", "relations", "quotient", "beta_rows", "derivations")

    def __init__(self, q: CoordinateQuadruple, ell: int):
        self.q = q
        self.ell = ell
        self.kappa = inner_scale(q.qtype, ell)
        self.tensor = q.bb_space
        self.relations = rref(relation_generators(q), self.tensor)
        self.quotient = QuotientSpace(self.tensor, self.relations)
        self.beta_rows = beta_star_map_rows(q)
        self.derivations = self._coset_derivations()
        self._verify_well_defined()

    def at_ell(self, ell: int) -> "BBQuotient":
        """The same quotient at another ell, not re-verified.

        Neither K (with the quotient) nor the beta* rows depend on ell, so
        they are shared; kappa and the coset derivations do, so the result
        forms its own.
        """
        other = object.__new__(BBQuotient)
        for name in ("q", "tensor", "relations", "quotient", "beta_rows"):
            setattr(other, name, getattr(self, name))
        other.ell = ell
        other.kappa = inner_scale(self.q.qtype, ell)
        other.derivations = other._coset_derivations()
        return other

    def _coset_derivations(self) -> dict[tuple[str, str], dict]:
        return {f: self.derivation_of({f: 1}) for f in self.quotient.coset_labels}

    def derivation_of(self, t: dict) -> dict[tuple[str, str], Fraction]:
        """The derivation d^ell_t of b that the tensor t acts by, both entry
        dicts, formed from t itself.  d_t is linear in t (Allison-Benkart-Gao,
        Memoirs AMS 158, 2002): the inner derivation sum_r z_r ad(e_r) of
        z = kappa beta*(t) (``inner_of``, ``q.ad_basis()``), plus each label's
        ``q.label_part``: less half the f-term F(t) of t's C (x) C entries
        for BC, the Jordan derivations for B (where z = 0); 0 for D."""
        q = self.q
        d: dict[tuple[str, str], Fraction] = {}
        for r, zr in self.inner_of(t).items():
            add_scaled(d, q.ad_basis().get(r, {}), zr)
        for lab, coeff in t.items():
            add_scaled(d, q.label_part(lab), coeff)
        return {key: scalar(v) for key, v in d.items()}

    def inner_of(self, t: dict) -> dict[str, Fraction]:
        """kappa beta* of the tensor t, both entry dicts, one dot product of
        t with each ``beta_rows`` row, kappa = ``inner_scale``: for x (x) y,
        the element of a whose inner derivation d^ell_{x,y} is, less the BC
        f-term.  A dot is formed only when kappa is nonzero."""
        z: dict[str, Fraction] = {}
        for r, row in self.beta_rows.items():
            dot = self.kappa and sum(row[lab] * c for lab, c in t.items() if lab in row)
            if dot:
                z[r] = scalar(self.kappa * dot)
        return z

    def _verify_well_defined(self):
        """The two facts that make {b,b}_ell = (b (x) b)/K well defined: every
        relation vector has total derivation 0, and each coset derivation d
        keeps K, (d (x) 1 + 1 (x) d)K in K.  The second is decided in the
        dual, against the basis of the annihilator of K dual to the coset
        labels (``QuotientSpace.first_escape``); it names the first
        relation row that leaves K, as reducing each image would."""
        for g in self.relations.rows:
            if self.derivation_of(g.entries):
                raise InternalConsistencyError(
                    "total derivation of a relation vector is nonzero", witness=g
                )
        for lab, d in self.derivations.items():
            if not d:
                continue
            # phi o (d (x) 1 + 1 (x) d) is the action of the transpose of
            # d, whose columns are the rows of d
            rows = columns({(c, r): v for (r, c), v in d.items()})
            i = self.quotient.first_escape(lambda phi: _pair_action(rows, phi))
            if i is not None:
                raise InternalConsistencyError(
                    "bracket does not preserve the relation space",
                    witness=(label_text(lab), self.relations.rows[i]),
                )

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def pair_tensor(self, x: dict, y: dict) -> SparseVector:
        """x (x) y in b (x) b, for the entry dicts x, y of elements of b."""
        entries = {(lx, ly): vx * vy for lx, vx in x.items() for ly, vy in y.items()}
        return SparseVector(self.tensor, entries)

    def bracket_cosets(self, u: SparseVector, v: SparseVector) -> SparseVector:
        """[u, v] of two coset vectors (coset-space coordinates): lift(v) under
        d (x) 1 + 1 (x) d, projected back, where d = sum_f u_f d_f over the
        stored ``derivations``; by linearity d is ``derivation_of`` lift(u)."""
        d: dict[tuple[str, str], Fraction] = {}
        for f, c in u.entries.items():
            add_scaled(d, self.derivations[f], c)
        img = _pair_action(columns(d), self.quotient.lift(v).entries)
        return self.quotient.project(SparseVector(self.tensor, img))

    def d_part(self, k_span: Sequence[SparseVector]) -> QuotientSpace:
        """The D-part (b (x) b)/(relations + lift(K)) of a model whose K is
        spanned by the coset vectors ``k_span``.

        On C, the derivation of a tensor t is c -> kappa beta*(t).c -
        F(t)(c) / 2, F the BC f-term (``derivation_of``), linear in t.  The
        build checks that every relation has derivation 0, FH is the exact
        kernel of the derivation (``full_homology``), and the uniform
        verdict says beta* is 0 on relations + lift(K).  So F is 0 on the
        whole relation space and the module rows of the model are well
        defined.
        """
        if not k_span:
            return self.quotient
        lifts = [self.quotient.lift(v) for v in k_span]
        return QuotientSpace(self.tensor, rref([*self.relations.rows, *lifts], self.tensor))


def _pair_action(cols, t: dict) -> dict:
    """(d (x) 1 + 1 (x) d) on the entries of a tensor, with d given by its
    columns, ``columns(d)``: each entry of t at (u, v) walks columns u and v
    of d."""
    out: dict[tuple[str, str], Fraction] = {}
    for (u, v), w in t.items():
        for left, col in ((True, cols.get(u, {})), (False, cols.get(v, {}))):
            for z, x in col.items():
                key = (z, v) if left else (u, z)
                s = out.get(key, 0) + w * x
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def build_bb(q: CoordinateQuadruple, ell: int) -> BBQuotient:
    return BBQuotient(q, ell)


def full_homology(bb: BBQuotient) -> Subspace:
    """FH as a subspace of the coset space: the kernel of coset -> total
    derivation; verified central in {b,b}_ell."""
    csp = bb.quotient.coset_space
    # (row, col) of the derivation -> {coset label: entry}
    rows_by_pos: dict[tuple[str, str], dict[tuple[str, str], Fraction]] = {}
    for lab, d in bb.derivations.items():
        for pos, v in d.items():
            rows_by_pos.setdefault(pos, {})[lab] = v
    rows = [SparseVector(csp, entries) for entries in rows_by_pos.values()]
    # the exact kernel of these rows: every vector of FH has derivation 0
    fh = kernel_of_rows(rows, csp)
    live = [lab for lab, d in bb.derivations.items() if d]
    for f in fh.rows:
        for lab in live:
            if not bb.bracket_cosets(csp.basis_vector(lab), f).is_zero():
                raise InternalConsistencyError(
                    "homology element is not central", witness=(label_text(lab), f)
                )
    return fh


def beta_star_map_rows(q: CoordinateQuadruple) -> dict[str, dict]:
    """The linear map b(x)b -> a sending x(x)y to beta*_{x,y}, as entry dicts
    {r: row r}.  On
    basis labels it is ([x, y] + [x*, y*])/2 for x, y in a, minus the
    symmetric part (x y + y x)/2 of f for x, y in C, and 0 on a (x) C and
    C (x) a; every product is b's."""
    t, half = q.b_table, Q(1, 2)
    star = columns(q.star.entries)
    rows: dict[str, dict[tuple[str, str], Fraction]] = {}
    for l1 in q.b_space.labels:
        for l2 in q.b_space.labels:
            e1, e2 = {l1: 1}, {l2: 1}
            if l1 in q.a_space and l2 in q.a_space:
                s1, s2 = star.get(l1, {}), star.get(l2, {})
                terms = ((e1, e2, half), (e2, e1, -half), (s1, s2, half), (s2, s1, -half))
            elif l1 in q.c_space and l2 in q.c_space:
                terms = ((e1, e2, -half), (e2, e1, -half))
            else:
                continue
            val: dict[str, Fraction] = {}
            for x, y, c in terms:
                add_scaled(val, _bilinear(t, x, y), c)
            for r, v in val.items():
                rows.setdefault(r, {})[l1, l2] = scalar(v)
    return rows


def check_uniform(
    bb: BBQuotient,
    k_span: Sequence[SparseVector],
    fh: Subspace,
    cross_check_ell: int | None = None,
) -> dict:
    """Decide the uniform property for span(k_span) inside FH =
    ``full_homology(bb)``; exact.

    The condition collapses to: the beta* map vanishes on the preimage
    K + lift(span(k_span)) of the span.  Neither K nor beta* depends on
    ell, so neither does the verdict; the optional cross-check recomputes
    FH at a second ell value and checks that the span still lies in it.
    """
    for v in k_span:
        if not fh.contains(v):
            raise ValueError("spanning vector lies outside the full homology group")
    verdict, witness = _uniform_verdict(bb, k_span)
    report = {
        "ell": bb.ell,
        "k_dim": rref(list(k_span), bb.quotient.coset_space).dim if k_span else 0,
        "uniform": verdict,
        "witness": witness,
    }
    if cross_check_ell is not None and cross_check_ell != bb.ell:
        fh2 = full_homology(bb.at_ell(cross_check_ell))
        for v in k_span:
            if not fh2.contains(v):
                raise InternalConsistencyError(
                    "homology membership changed with ell", witness=v
                )
        report["cross_check"] = {"ell": cross_check_ell, "uniform": verdict}
    return report


def _uniform_verdict(bb: BBQuotient, k_span: Sequence[SparseVector]):
    preimage = list(bb.relations.rows) + [bb.quotient.lift(v) for v in k_span]
    rows = list(bb.beta_rows.values())
    for t in preimage:
        for row in rows:
            val = sum((row[lab] * c for lab, c in t.entries.items() if lab in row), 0)
            if val:
                return False, repr(t)
    return True, None


# ---------------------------------------------------------------------------
# presets and JSON files


def _matrix_algebra_tables(k: int):
    labels = [f"m:{i},{j}" for i in range(k) for j in range(k)]
    mult = {
        (f"m:{i},{j}", f"m:{j},{s}"): {f"m:{i},{s}": 1}
        for i in range(k)
        for j in range(k)
        for s in range(k)
    }
    unit = {f"m:{i},{i}": 1 for i in range(k)}
    return labels, mult, unit


def _standard_skew(m: int) -> list[list[Fraction]]:
    g = [[0] * m for _ in range(m)]
    for b in range(m // 2):
        g[2 * b][2 * b + 1] = 1
        g[2 * b + 1][2 * b] = -1
    return g


def clifford_quadruple(
    w_labels: Sequence[str], form: dict[tuple[str, str], Fraction], name: str
) -> CoordinateQuadruple:
    """The type-B quadruple F1 + W, the Clifford Jordan algebra of the
    symmetric form on W with nonzero values ``form[(u, w)]``: w.w' = (w, w')1,
    with * fixing 1 and negating W."""
    labels = ["one"] + list(w_labels)
    mult = {}
    for l in labels:
        mult[("one", l)] = {l: 1}
        mult[(l, "one")] = {l: 1}
    for u in w_labels:
        for w in w_labels:
            mult[(u, w)] = {"one": form.get((u, w), 0)}
    star = {("one", "one"): 1, **{(w, w): -1 for w in w_labels}}
    return CoordinateQuadruple("B", labels, mult, unit={"one": 1}, star=star, name=name)


def _transpose(k: int) -> dict[tuple[str, str], Fraction]:
    return {(f"m:{j},{i}", f"m:{i},{j}"): 1 for i in range(k) for j in range(k)}


def _matrix(name: str, k: int) -> CoordinateQuadruple:
    labels, mult, unit = _matrix_algebra_tables(k)
    star = {(l, l): 1 for l in labels}
    return CoordinateQuadruple("A", labels, mult, unit, star, name=name)


def _group_ring(name: str, m: int) -> CoordinateQuadruple:
    labels = [f"g:{i}" for i in range(m)]
    mult = {
        (f"g:{i}", f"g:{j}"): {f"g:{(i + j) % m}": 1} for i in range(m) for j in range(m)
    }
    star = {(l, l): 1 for l in labels}
    return CoordinateQuadruple("D", labels, mult, unit={"g:0": 1}, star=star, name=name)


def _clifford(name: str, d: int) -> CoordinateQuadruple:
    w_labels = [f"w:{i}" for i in range(1, d + 1)]
    return clifford_quadruple(w_labels, {(w, w): 1 for w in w_labels}, name)


def _matrix_transpose(name: str, k: int) -> CoordinateQuadruple:
    labels, mult, unit = _matrix_algebra_tables(k)
    return CoordinateQuadruple("C", labels, mult, unit, _transpose(k), name=name)


def _symplectic(name: str, m: int) -> CoordinateQuadruple:
    if m % 2:
        raise ValueError("symplectic preset needs even m")
    c_labels = [f"c:{i}" for i in range(m)]
    action = {("one", c): {c: 1} for c in c_labels}
    g = _standard_skew(m)
    f_table = {
        (f"c:{i}", f"c:{j}"): ({"one": g[i][j]} if g[i][j] else {})
        for i in range(m)
        for j in range(m)
    }
    return CoordinateQuadruple(
        "BC",
        ["one"],
        {("one", "one"): {"one": 1}},
        {"one": 1},
        {("one", "one"): 1},
        c_labels,
        action,
        f_table,
        name=name,
    )


def _matrix_hermitian(name: str, k: int, m: int) -> CoordinateQuadruple:
    if m % 2:
        raise ValueError("matrix_hermitian preset needs even m")
    a_labels, mult, unit = _matrix_algebra_tables(k)
    c_labels = [f"c:{i},{j}" for i in range(k) for j in range(m)]
    action = {
        (f"m:{i},{j}", f"c:{j},{s}"): {f"c:{i},{s}": 1}
        for i in range(k)
        for j in range(k)
        for s in range(m)
    }
    g = _standard_skew(m)
    # f(c, c') = c G c'^T: entry (i, r) gets G[j][s]
    f_table = {
        (f"c:{i},{j}", f"c:{r},{s}"): {f"m:{i},{r}": g[j][s]}
        for i in range(k)
        for j in range(m)
        for r in range(k)
        for s in range(m)
        if g[j][s]
    }
    return CoordinateQuadruple(
        "BC", a_labels, mult, unit, _transpose(k), c_labels, action, f_table, name=name
    )


# the minimal faithful instances of the five quadruple types: preset name ->
# (builder, {size parameter: default}), the parameters in the order the
# preset's name prints them
PRESETS = {
    "matrix": (_matrix, {"k": 2}),
    "group_ring": (_group_ring, {"m": 3}),
    "clifford": (_clifford, {"d": 2}),
    "matrix_transpose": (_matrix_transpose, {"k": 2}),
    "symplectic": (_symplectic, {"m": 2}),
    "matrix_hermitian": (_matrix_hermitian, {"k": 2, "m": 2}),
}


def preset_quadruple(name: str, **params) -> CoordinateQuadruple:
    """The preset ``name`` at the given sizes, the table's defaults for the
    rest, named by all of them ("matrix_hermitian:k=2,m=2")."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    build, defaults = PRESETS[name]
    for key in params:
        if key not in defaults:
            raise ValueError(f"preset {name} takes no parameter {key!r}")
    sizes = {key: int(params.get(key, default)) for key, default in defaults.items()}
    for key, val in sizes.items():
        if val < 1:
            raise ValueError(f"preset parameter {key}={val} must be at least 1")
    return build(f"{name}:" + ",".join(f"{key}={val}" for key, val in sizes.items()), **sizes)


def parse_preset_spec(spec: str) -> CoordinateQuadruple:
    """Parse "name" or "name:k=2,m=4" into a validated preset quadruple."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for piece in rest.split(","):
            key, _, val = piece.partition("=")
            key = key.strip()
            if key in params:
                raise ValueError(f"preset parameter {key!r} is given twice in {spec!r}")
            try:
                params[key] = int(val)
            except ValueError:
                raise ValueError(
                    f"preset parameter {key!r} in {spec!r} needs an integer value, not {val!r}"
                ) from None
    q = preset_quadruple(name.strip(), **params)
    report = validate_quadruple(q)
    if not report["valid"]:
        raise InternalConsistencyError(f"preset {spec} failed validation", report)
    return q


def quadruple_to_json(q: CoordinateQuadruple) -> dict:
    """File form: all tables indexed over integer basis positions."""
    apos = {lab: i for i, lab in enumerate(q.a_space.labels)}
    cpos = {lab: i for i, lab in enumerate(q.c_space.labels)}

    def table3(tab, left, right, out_pos):
        out = []
        for (i, j), vec in tab.items():
            for lab, val in vec.items():
                out.append([left[i], right[j], out_pos[lab], q_str(val)])
        out.sort(key=lambda row: row[:3])
        return out

    star_entries = sorted(
        [apos[r], apos[c], q_str(v)] for (r, c), v in q.star.entries.items()
    )
    return {
        "type": q.qtype,
        "name": q.name,
        "a_dim": q.a_dim,
        "structure_constants": table3(q.mult, apos, apos, apos),
        "unit": sorted([apos[lab], q_str(v)] for lab, v in q.unit.entries.items()),
        "star": star_entries,
        "c_dim": q.c_dim,
        "action": table3(q.action, apos, cpos, cpos),
        "f": table3(q.f_table, cpos, cpos, apos),
    }


def quadruple_from_json(data: dict) -> CoordinateQuadruple:
    """The inverse of ``quadruple_to_json``; malformed data raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a quadruple must be a JSON object")
    for key in ("type", "a_dim", "structure_constants", "unit", "star"):
        if key not in data:
            raise ValueError(f"quadruple has no {key!r} field")
    if not isinstance(data.get("name", ""), str):
        raise ValueError(f"quadruple field 'name' must be a string, not {data['name']!r}")
    a_labels = [f"a:{i}" for i in range(_json_dim(data, "a_dim"))]
    c_labels = [f"c:{i}" for i in range(_json_dim(data, "c_dim"))]

    def untable(key, left, right, out):
        table: dict[tuple[str, str], dict[str, Fraction]] = {}
        for i, j, k, val in _json_rows(data, key, 4):
            pair = (_json_label(key, left, i), _json_label(key, right, j))
            _json_put(key, table.setdefault(pair, {}), _json_label(key, out, k), val, [i, j, k])
        return table

    unit, star = {}, {}
    for i, val in _json_rows(data, "unit", 2):
        _json_put("unit", unit, _json_label("unit", a_labels, i), val, [i])
    for r, c, val in _json_rows(data, "star", 3):
        pair = (_json_label("star", a_labels, r), _json_label("star", a_labels, c))
        _json_put("star", star, pair, val, [r, c])
    return CoordinateQuadruple(
        data["type"],
        a_labels,
        untable("structure_constants", a_labels, a_labels, a_labels),
        unit,
        star,
        c_labels,
        untable("action", a_labels, c_labels, c_labels),
        untable("f", c_labels, c_labels, a_labels),
        name=data.get("name", data["type"]),
    )


def _json_dim(data: dict, key: str) -> int:
    dim = data.get(key, 0)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ValueError(f"quadruple field {key!r} must be a nonnegative integer, not {dim!r}")
    return dim


def _json_rows(data: dict, key: str, width: int) -> list[list]:
    rows = data.get(key, [])
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == width for row in rows
    ):
        raise ValueError(f"quadruple field {key!r} must be a list of rows of length {width}")
    return rows


def _json_label(key: str, labels: Sequence[str], i) -> str:
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < len(labels):
        raise ValueError(
            f"quadruple field {key!r}: basis index {i!r} is outside 0..{len(labels) - 1}"
        )
    return labels[i]


def _json_put(key: str, table: dict, lab, val, index: list) -> None:
    """table[lab] = the scalar val of the row at ``index``; a second row at
    the same index is refused rather than read over the first."""
    if lab in table:
        raise ValueError(f"quadruple field {key!r} gives the entry at {index} twice")
    table[lab] = _json_scalar(key, val)


def _json_scalar(key: str, val) -> Fraction:
    if not isinstance(val, (str, int)) or isinstance(val, bool):
        raise ValueError(f"quadruple field {key!r}: {val!r} is not a rational string")
    try:
        return q_parse(val)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"quadruple field {key!r}: {val!r} is not a rational") from None
