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
    kernel,
    kernel_of_rows,
    label_text,
    q_parse,
    q_str,
    rref,
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
        "bb_space",
        "a_part_sub",
        "b_part_sub",
        "_ad",
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
        self.mult = {
            key: SparseVector(self.a_space, val) for key, val in mult.items()
        }
        self.unit = SparseVector(self.a_space, unit)
        self.star = SparseMatrix(self.a_space, self.a_space, star)
        self.c_space = BasedSpace(c_labels)
        self.action = {
            key: SparseVector(self.c_space, val) for key, val in (action or {}).items()
        }
        self.f_table = {
            key: SparseVector(self.a_space, val) for key, val in (f_table or {}).items()
        }
        self.b_space = BasedSpace(list(a_labels) + list(c_labels))
        # b (x) b, shared by K, beta* and every {b,b}_ell built on q
        self.bb_space = tensor_space(self.b_space, self.b_space)
        ident = SparseMatrix.identity(self.a_space)
        self.a_part_sub = kernel(self.star - ident)
        self.b_part_sub = kernel(self.star + ident)
        self._ad = None

    # -- products ---------------------------------------------------------

    def a_mul(self, x: SparseVector, y: SparseVector) -> SparseVector:
        return _bilinear(self.mult, x, y, self.a_space)

    def a_star(self, x: SparseVector) -> SparseVector:
        return self.star.apply(x)

    def c_act(self, a: SparseVector, c: SparseVector) -> SparseVector:
        return _bilinear(self.action, a, c, self.c_space)

    def f_val(self, c: SparseVector, cp: SparseVector) -> SparseVector:
        return _bilinear(self.f_table, c, cp, self.a_space)

    def ad_basis(self) -> dict[str, dict[tuple[str, str], Fraction]]:
        """{r: the entries of ad(e_r) on b} for each basis label r of a with
        ad(e_r) nonzero: a' -> [e_r, a'] on a and c -> e_r.c on C.  Built
        on first use, so every derivation of q reads one copy."""
        if self._ad is None:
            self._ad = {}
            for r in self.a_space.labels:
                e = self.a_space.basis_vector(r)
                ad = {}
                for lab in self.a_space.labels:
                    x = self.a_space.basis_vector(lab)
                    for row, v in (self.a_mul(e, x) - self.a_mul(x, e)).entries.items():
                        ad[row, lab] = v
                for lab in self.c_space.labels:
                    for row, v in self.c_act(e, self.c_space.basis_vector(lab)).entries.items():
                        ad[row, lab] = v
                if ad:
                    self._ad[r] = ad
        return self._ad

    # -- b = a (+) C ------------------------------------------------------

    def split_b(self, x: SparseVector) -> tuple[SparseVector, SparseVector]:
        a = {l: v for l, v in x.entries.items() if l in self.a_space}
        c = {l: v for l, v in x.entries.items() if l in self.c_space}
        return SparseVector(self.a_space, a), SparseVector(self.c_space, c)

    def join_b(self, a: SparseVector, c: SparseVector) -> SparseVector:
        return SparseVector(self.b_space, {**a.entries, **c.entries})

    def lift_b(self, v: SparseVector) -> SparseVector:
        """An element of a or of C, as an element of b."""
        return SparseVector(self.b_space, v.entries)

    @property
    def a_dim(self) -> int:
        return self.a_space.dim

    @property
    def c_dim(self) -> int:
        return self.c_space.dim

    def __repr__(self):
        return f"CoordinateQuadruple({self.name}, type {self.qtype})"


def _bilinear(table, x: SparseVector, y: SparseVector, space: BasedSpace) -> SparseVector:
    """The bilinear map with basis values ``table[(i, j)]``, applied to x, y."""
    out: dict[str, Fraction] = {}
    for i, ci in x.entries.items():
        for j, cj in y.entries.items():
            term = table.get((i, j))
            if term is not None:
                add_scaled(out, term.entries, ci * cj)
    return SparseVector(space, out)


# ---------------------------------------------------------------------------
# operations on b


def b_mul(q: CoordinateQuadruple, x: SparseVector, y: SparseVector) -> SparseVector:
    """(a1 + c1).(a2 + c2) = a1 a2 + f(c1, c2) + a1.c2 + a2*.c1."""
    a1, c1 = q.split_b(x)
    a2, c2 = q.split_b(y)
    a_out = q.a_mul(a1, a2) + q.f_val(c1, c2)
    c_out = q.c_act(a1, c2) + q.c_act(q.a_star(a2), c1)
    return q.join_b(a_out, c_out)


def diamond_heart(q, c: SparseVector, cp: SparseVector) -> tuple[SparseVector, SparseVector]:
    """diamond = antisymmetric part of f (lands in the *-fixed points),
    heart = symmetric part (lands in the *-skew points)."""
    if q.c_dim == 0:
        raise ValueError(f"type {q.qtype} quadruple has no module part")
    f1 = q.f_val(c, cp)
    f2 = q.f_val(cp, c)
    half = Q(1, 2)
    return (f1 - f2).scale(half), (f1 + f2).scale(half)


def beta_star(q, x: SparseVector, y: SparseVector) -> SparseVector:
    """([a1, a2] + [a1*, a2*])/2 - c1 heart c2 for x = a1 + c1, y = a2 + c2."""
    return _beta_star_of_parts(q, _beta_parts(q, x), _beta_parts(q, y))


def _beta_parts(q, x: SparseVector):
    """x in b split as (a, a*, c): its a part, the image of that under *,
    and its C part."""
    a, c = q.split_b(x)
    return a, q.a_star(a), c


def _beta_star_of_parts(q, parts1, parts2) -> SparseVector:
    """beta* of two elements of b given by their ``_beta_parts``."""
    a1, s1, c1 = parts1
    a2, s2, c2 = parts2
    out = (
        q.a_mul(a1, a2)
        - q.a_mul(a2, a1)
        + q.a_mul(s1, s2)
        - q.a_mul(s2, s1)
    ).scale(Q(1, 2))
    if q.c_dim:
        out = out - diamond_heart(q, c1, c2)[1]
    return out


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


def f_action(q, c: SparseVector, c1: SparseVector, c2: SparseVector) -> SparseVector:
    """c1 f(c, c2) + c2 f(c, c1): the module part of <c1, c2> acting on c."""
    return q.c_act(q.f_val(c, c2), c1) + q.c_act(q.f_val(c, c1), c2)


def derivation(
    q, ell: int, x: SparseVector, y: SparseVector, inner: SparseVector | None = None
) -> SparseMatrix:
    """The derivation d^ell_{x,y} of b that {x, y} acts by.

    For A, C and BC it is the inner derivation of z = kappa beta*(x, y),
    kappa = ``inner_scale``: a' -> [z, a'] on a and c -> z.c on C, that is
    sum_r z_r ad(e_r) over ``q.ad_basis()``, less half of ``f_action`` of
    the module parts of x and y on C (nonzero for BC only).  ``inner`` is
    z where the caller has it already.  For B it is the Jordan derivation
    [L_a2, L_a1]; for D it is 0.
    """
    cols: dict[tuple[str, str], Fraction] = {}

    def add_col(lab: str, vec: SparseVector):
        add_scaled(cols, {(r, lab): v for r, v in vec.entries.items()})

    if q.qtype == "B":
        a1, a2 = q.split_b(x)[0], q.split_b(y)[0]
        for lab in q.a_space.labels:
            e = q.a_space.basis_vector(lab)
            add_col(lab, q.a_mul(a2, q.a_mul(a1, e)) - q.a_mul(a1, q.a_mul(a2, e)))
    elif q.qtype != "D":
        if inner is None:
            inner = beta_star(q, x, y).scale(inner_scale(q.qtype, ell))
        ad = q.ad_basis()
        for r, zr in inner.entries.items():
            add_scaled(cols, ad.get(r, {}), zr)
        c1, c2 = q.split_b(x)[1], q.split_b(y)[1]
        if not (c1.is_zero() or c2.is_zero()):
            for lab in q.c_space.labels:
                e = q.c_space.basis_vector(lab)
                add_col(lab, f_action(q, e, c1, c2).scale(Q(-1, 2)))
    return SparseMatrix(q.b_space, q.b_space, cols)


# ---------------------------------------------------------------------------
# validation


def validate_quadruple(q: CoordinateQuadruple) -> dict:
    """Check every defining law on basis tuples; returns a report dict."""
    checks = []

    def record(law: str, failures: list):
        checks.append(
            {
                "law": law,
                "status": "pass" if not failures else "fail",
                "witnesses": failures[:3],
            }
        )

    alabs = q.a_space.labels
    avecs = {l: q.a_space.basis_vector(l) for l in alabs}
    if q.qtype == "B":
        # the type-B star algebra is a Clifford Jordan algebra: commutative
        # with unit, not associative in general
        record("a commutative (Jordan)", [
            f"{i}.{j} != {j}.{i}"
            for i in alabs
            for j in alabs
            if q.a_mul(avecs[i], avecs[j]) != q.a_mul(avecs[j], avecs[i])
        ])
        # Clifford structure: associativity on triples with at most one
        # skew factor (A associative, A-module law on B, form A-bilinear)
        apart, bpart = q.a_part_sub.rows, q.b_part_sub.rows
        cj_fails = []
        for tag, pool in (("AAA", (apart, apart, apart)),
                          ("AAB", (apart, apart, bpart)),
                          ("ABB", (apart, bpart, bpart))):
            for x in pool[0]:
                for y in pool[1]:
                    for z in pool[2]:
                        if q.a_mul(q.a_mul(x, y), z) != q.a_mul(x, q.a_mul(y, z)):
                            cj_fails.append(f"associator nonzero on {tag} triple")
        record("Clifford Jordan structure", cj_fails)
    else:
        record("a associative", [
            f"({i}.{j}).{k} != {i}.({j}.{k})"
            for i in alabs
            for j in alabs
            for k in alabs
            if q.a_mul(q.a_mul(avecs[i], avecs[j]), avecs[k])
            != q.a_mul(avecs[i], q.a_mul(avecs[j], avecs[k]))
        ])
    record(
        "unit law",
        [
            lab
            for lab in alabs
            if q.a_mul(q.unit, avecs[lab]) != avecs[lab]
            or q.a_mul(avecs[lab], q.unit) != avecs[lab]
        ],
    )
    # on a = 0 the unit law holds vacuously, but 1 = 0 makes x -> x (x) 1
    # fail to be injective
    record("unit is nonzero", ["unit is 0"] if q.unit.is_zero() else [])
    record(
        "star is an involution (star^2 = id)",
        [
            lab
            for lab in alabs
            if q.a_star(q.a_star(avecs[lab])) != avecs[lab]
        ],
    )
    if q.qtype in ("C", "BC", "B"):
        record(
            "star antiautomorphism ((xy)* = y*x*)",
            [
                f"({i}.{j})*"
                for i in alabs
                for j in alabs
                if q.a_star(q.a_mul(avecs[i], avecs[j]))
                != q.a_mul(q.a_star(avecs[j]), q.a_star(avecs[i]))
            ],
        )
    if q.qtype in ("A", "D"):
        ident = SparseMatrix.identity(q.a_space)
        record("star = id", [] if q.star == ident else ["star differs from identity"])
    if q.qtype in ("D",):
        record(
            "a commutative",
            [
                f"{i}.{j}"
                for i in alabs
                for j in alabs
                if q.a_mul(avecs[i], avecs[j]) != q.a_mul(avecs[j], avecs[i])
            ],
        )
    if q.qtype in ("A", "B", "C", "D"):
        record("module part trivial", [] if q.c_dim == 0 else ["C is nonzero"])
    if q.qtype == "BC":
        clabs = q.c_space.labels
        cvecs = {l: q.c_space.basis_vector(l) for l in clabs}
        record(
            "module unital",
            [l for l in clabs if q.c_act(q.unit, cvecs[l]) != cvecs[l]],
        )
        record(
            "module associative ((xy).c = x.(y.c))",
            [
                f"({i}.{j}).{l}"
                for i in alabs
                for j in alabs
                for l in clabs
                if q.c_act(q.a_mul(avecs[i], avecs[j]), cvecs[l])
                != q.c_act(avecs[i], q.c_act(avecs[j], cvecs[l]))
            ],
        )
        record(
            "f skew-hermitian (f(c,c')* = -f(c',c))",
            [
                f"f({l},{m})"
                for l in clabs
                for m in clabs
                if q.a_star(q.f_val(cvecs[l], cvecs[m]))
                != -q.f_val(cvecs[m], cvecs[l])
            ],
        )
        record(
            "f left semilinear (f(x.c, c') = x f(c, c'))",
            [
                f"f({i}.{l},{m})"
                for i in alabs
                for l in clabs
                for m in clabs
                if q.f_val(q.c_act(avecs[i], cvecs[l]), cvecs[m])
                != q.a_mul(avecs[i], q.f_val(cvecs[l], cvecs[m]))
            ],
        )
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
    tsp = q.bb_space
    gens: list[SparseVector] = []
    seen: set[frozenset] = set()

    def tens(*pairs: tuple[SparseVector, SparseVector]) -> None:
        """Emit the sum of x (x) y over the given pairs (x, y)."""
        entries: dict[tuple[str, str], Fraction] = {}
        for x, y in pairs:
            for lx, vx in x.entries.items():
                row = {(lx, ly): vy for ly, vy in y.entries.items()}
                add_scaled(entries, row, vx)
        key = frozenset(entries.items())
        if entries and key not in seen:
            seen.add(key)
            gens.append(SparseVector(tsp, entries))

    avecs = [q.b_space.basis_vector(l) for l in q.a_space.labels]
    cvecs = [q.b_space.basis_vector(l) for l in q.c_space.labels]
    apart = [q.lift_b(r) for r in q.a_part_sub.rows]
    bpart = [q.lift_b(r) for r in q.b_part_sub.rows]
    for al in avecs:
        for c in cvecs:
            tens((al, c))
            tens((c, al))
    for a in apart:
        for b in bpart:
            tens((a, b))
    for i, x in enumerate(avecs):
        for y in avecs[i:]:
            tens((x, y), (y, x))
    for i, c in enumerate(cvecs):
        for cp in cvecs[i + 1 :]:
            tens((c, cp), (-cp, c))
    # each product below is used by several generators: compute it once
    a_only = [q.a_space.basis_vector(l) for l in q.a_space.labels]
    c_only = [q.c_space.basis_vector(l) for l in q.c_space.labels]
    prod = [[q.lift_b(q.a_mul(x, y)) for y in a_only] for x in a_only]
    n = len(avecs)
    for i in range(n):
        for j in range(i, n):
            for k in range(i, n):
                # the first of the three rotations in loop order has the
                # least index first; of (i, j, i) and (i, i, j) it is the latter
                if k == i < j:
                    continue
                tens((prod[i][j], avecs[k]), (prod[k][i], avecs[j]), (prod[j][k], avecs[i]))
    act = [[q.lift_b(q.c_act(x, c)) for c in c_only] for x in a_only]
    star_act = [[q.lift_b(q.c_act(q.a_star(x), c)) for c in c_only] for x in a_only]
    for i, c in enumerate(cvecs):
        for j, cp in enumerate(cvecs):
            f_ccp = q.lift_b(q.f_val(c_only[i], c_only[j]))
            for k, al in enumerate(avecs):
                tens((f_ccp, al), (star_act[k][j], c), (-act[k][i], cp))
    return gens


class BBQuotient:
    """{b, b}_ell = (b (x) b)/K with the derivation-induced bracket.

    ``beta_rows`` is the beta* map b (x) b -> a as rows,
    ``beta_star_map_rows(q)``; like K it does not depend on ell.  ``kappa``
    is ``inner_scale`` at ell, formed when ell is set: a level below 1 fails there.
    """

    __slots__ = ("q", "ell", "kappa", "tensor", "relations", "quotient", "beta_rows", "_pairs")

    def __init__(self, q: CoordinateQuadruple, ell: int):
        self.q = q
        self.ell = ell
        self.kappa = inner_scale(q.qtype, ell)
        self.tensor = q.bb_space
        self.relations = rref(relation_generators(q), self.tensor)
        self.quotient = QuotientSpace(self.tensor, self.relations)
        self.beta_rows = beta_star_map_rows(q)
        self._pairs: dict[tuple[str, str], tuple[SparseVector, SparseMatrix]] = {}
        self._verify_well_defined()

    def at_ell(self, ell: int) -> "BBQuotient":
        """The same quotient at another ell, not re-verified.

        Neither K (with the quotient) nor the beta* rows depend on ell, so
        they are shared; kappa and the derivations do, so the result
        computes its own.
        """
        other = object.__new__(BBQuotient)
        other.q = self.q
        other.ell = ell
        other.kappa = inner_scale(self.q.qtype, ell)
        other.tensor = self.tensor
        other.relations = self.relations
        other.quotient = self.quotient
        other.beta_rows = self.beta_rows
        other._pairs = {}
        return other

    # derivation attached to a tensor vector, by bilinearity
    def derivation_of(self, t: SparseVector) -> SparseMatrix:
        acc: dict[tuple[str, str], Fraction] = {}
        for lab, coeff in t.entries.items():
            add_scaled(acc, self.pair_derivation(lab).entries, coeff)
        return SparseMatrix(self.q.b_space, self.q.b_space, acc)

    def inner_of(self, t: SparseVector) -> SparseVector:
        """kappa beta* of a tensor vector, by linearity, kappa =
        ``inner_scale``: for x (x) y, the element of a whose inner
        derivation d^ell_{x,y} is, less the BC f-term."""
        acc: dict[str, Fraction] = {}
        for lab, coeff in t.entries.items():
            add_scaled(acc, self._pair(lab)[0].entries, coeff)
        return SparseVector(self.q.a_space, acc)

    def pair_derivation(self, lab: tuple[str, str]) -> SparseMatrix:
        """d^ell_{x,y} for the tensor label (x, y)."""
        return self._pair(lab)[1]

    def _pair(self, lab: tuple[str, str]) -> tuple[SparseVector, SparseMatrix]:
        """kappa beta*(x, y) and d^ell_{x,y} for the tensor label (x, y),
        computed once, with beta*(x, y) read off ``beta_rows``; the build
        computes them for every label, each being a relation pivot or a
        coset label."""
        pair = self._pairs.get(lab)
        if pair is None:
            q = self.q
            beta = {r: row.entries[lab] for r, row in self.beta_rows.items() if lab in row.entries}
            inner = SparseVector(q.a_space, beta).scale(self.kappa)
            x, y = (q.b_space.basis_vector(l) for l in lab)
            pair = self._pairs[lab] = (inner, derivation(q, self.ell, x, y, inner))
        return pair

    def apply_pair_action(self, d: SparseMatrix, t: SparseVector) -> SparseVector:
        """(d (x) 1 + 1 (x) d) applied to a tensor vector."""
        cols = _columns(d)
        out: dict[tuple[str, str], Fraction] = {}
        for (l1, l2), coeff in t.entries.items():
            add_scaled(out, {(r, l2): v for r, v in cols.get(l1, ())}, coeff)
            add_scaled(out, {(l1, r): v for r, v in cols.get(l2, ())}, coeff)
        return SparseVector(self.tensor, out)

    def _verify_well_defined(self):
        """The two facts that make {b,b}_ell = (b (x) b)/K well defined: every
        relation vector has total derivation 0, and each coset derivation d
        keeps K, (d (x) 1 + 1 (x) d)K in K.  The second is decided in the
        dual, against the basis of the annihilator of K dual to the coset
        labels (``QuotientSpace.first_escape``); it names the first
        relation row that leaves K, as reducing each image would."""
        for g in self.relations.rows:
            if not self.derivation_of(g).is_zero():
                raise InternalConsistencyError(
                    "total derivation of a relation vector is nonzero", witness=g
                )
        for lab in self.quotient.coset_labels:
            d = self.pair_derivation(lab)
            if d.is_zero():
                continue
            rows = _columns(d.transpose())
            i = self.quotient.first_escape(lambda phi: _pull_back(rows, phi))
            if i is not None:
                raise InternalConsistencyError(
                    "bracket does not preserve the relation space",
                    witness=(label_text(lab), self.relations.rows[i]),
                )

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def pair_tensor(self, x: SparseVector, y: SparseVector) -> SparseVector:
        """x (x) y in b (x) b, for x, y in b (or in a or C, lifted into b)."""
        entries = {
            (lx, ly): vx * vy
            for lx, vx in x.entries.items()
            for ly, vy in y.entries.items()
        }
        return SparseVector(self.tensor, entries)

    def bracket_cosets(self, u: SparseVector, v: SparseVector) -> SparseVector:
        """Bracket of two coset vectors (coset-space coordinates)."""
        d = self.derivation_of(self.quotient.lift(u))
        img = self.apply_pair_action(d, self.quotient.lift(v))
        return self.quotient.project(img)

    def d_part(self, k_span: Sequence[SparseVector]) -> QuotientSpace:
        """The D-part (b (x) b)/(relations + lift(K)) of a model whose K is
        spanned by the coset vectors ``k_span``.

        On C, the derivation of a tensor t is c -> kappa beta*(t).c -
        F(t)(c) / 2, F the BC f-term (``derivation``), linear in t.  The
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


def _columns(d: SparseMatrix) -> dict[str, list[tuple[str, Fraction]]]:
    """Column label -> [(row label, entry)] of d, in entry order."""
    cols: dict[str, list[tuple[str, Fraction]]] = {}
    for (r, c), v in d.entries.items():
        cols.setdefault(c, []).append((r, v))
    return cols


def _pull_back(rows, phi: dict) -> dict:
    """phi o (d (x) 1 + 1 (x) d) for a functional phi on b (x) b, with d given
    by its rows, ``_columns(d.transpose())``: each entry of phi at (u, v)
    walks rows u and v of d."""
    psi: dict[tuple[str, str], Fraction] = {}
    for (u, v), w in phi.items():
        add_scaled(psi, {(a, v): x for a, x in rows.get(u, ())}, w)
        add_scaled(psi, {(u, b): x for b, x in rows.get(v, ())}, w)
    return psi


def build_bb(q: CoordinateQuadruple, ell: int) -> BBQuotient:
    return BBQuotient(q, ell)


def full_homology(bb: BBQuotient) -> Subspace:
    """FH as a subspace of the coset space: the kernel of coset -> total
    derivation; verified central in {b,b}_ell."""
    csp = bb.quotient.coset_space
    derivs = {lab: bb.pair_derivation(lab) for lab in csp.labels}
    # (row, col) of the derivation -> {coset label: entry}
    rows_by_pos: dict[tuple[str, str], dict[tuple[str, str], Fraction]] = {}
    for lab, d in derivs.items():
        for pos, v in d.entries.items():
            rows_by_pos.setdefault(pos, {})[lab] = v
    rows = [SparseVector(csp, entries) for entries in rows_by_pos.values()]
    # the exact kernel of these rows: every vector of FH has derivation 0
    fh = kernel_of_rows(rows, csp)
    live = [(lab, d) for lab, d in derivs.items() if not d.is_zero()]
    for f in fh.rows:
        lifted = bb.quotient.lift(f)
        for lab, d in live:
            if not bb.quotient.project(bb.apply_pair_action(d, lifted)).is_zero():
                raise InternalConsistencyError(
                    "homology element is not central", witness=(label_text(lab), f)
                )
    return fh


def beta_star_map_rows(q: CoordinateQuadruple) -> dict[str, SparseVector]:
    """The linear map b(x)b -> a sending x(x)y to beta*_{x,y}, as rows."""
    tsp = q.bb_space
    parts = {l: _beta_parts(q, q.b_space.basis_vector(l)) for l in q.b_space.labels}
    rows: dict[str, dict[tuple[str, str], Fraction]] = {}
    for l1, p1 in parts.items():
        for l2, p2 in parts.items():
            val = _beta_star_of_parts(q, p1, p2)
            for r, v in val.entries.items():
                rows.setdefault(r, {})[l1, l2] = v
    return {r: SparseVector(tsp, entries) for r, entries in rows.items()}


def check_uniform(
    bb: BBQuotient,
    k_span: Sequence[SparseVector],
    fh: Subspace | None = None,
    cross_check_ell: int | None = None,
) -> dict:
    """Decide the uniform property for span(k_span) inside FH; exact.

    The condition collapses to: the beta* map vanishes on the preimage
    K + lift(span(k_span)) of the span.  Neither K nor beta* depends on
    ell, so neither does the verdict; the optional cross-check recomputes
    FH at a second ell value and checks that the span still lies in it.
    """
    if fh is None:
        fh = full_homology(bb)
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
    rows = [row.entries for row in bb.beta_rows.values()]
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
            for lab, val in vec.items_sorted():
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
    a_labels = [f"a:{i}" for i in range(_json_dim(data, "a_dim"))]
    c_labels = [f"c:{i}" for i in range(_json_dim(data, "c_dim"))]

    def untable(key, left, right, out):
        table: dict[tuple[str, str], dict[str, Fraction]] = {}
        for i, j, k, val in _json_rows(data, key, 4):
            pair = (_json_label(key, left, i), _json_label(key, right, j))
            table.setdefault(pair, {})[_json_label(key, out, k)] = _json_scalar(key, val)
        return table

    unit = {}
    for i, val in _json_rows(data, "unit", 2):
        unit[_json_label("unit", a_labels, i)] = _json_scalar("unit", val)
    star = {}
    for r, c, val in _json_rows(data, "star", 3):
        pair = (_json_label("star", a_labels, r), _json_label("star", a_labels, c))
        star[pair] = _json_scalar("star", val)
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


def _json_scalar(key: str, val) -> Fraction:
    if not isinstance(val, (str, int)) or isinstance(val, bool):
        raise ValueError(f"quadruple field {key!r}: {val!r} is not a rational string")
    try:
        return q_parse(val)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"quadruple field {key!r}: {val!r} is not a rational") from None
