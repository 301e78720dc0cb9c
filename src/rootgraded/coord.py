"""Coordinate quadruples (a, *, C, f) and the Lie algebra {b, b}_ell.

A quadruple keeps one product table, b's, over the basis of b = a + C:
a's structure constants, the action and f are its (a, a), (a, C) and
(C, C) blocks, and c a = a*.c fills the fourth.  The relation space K,
the derivations d^{ell,b}, the quotient {b,b}_ell with its bracket, the
full skew-dihedral homology and the uniform property are all computed
exactly from it.

Every claim the construction depends on (associativity, which for a,
the module and f is one law, b associative on a.a.a, a.a.C and a.C.C;
the involution laws; well-definedness of the bracket on the quotient;
centrality of the homology) is checked mechanically rather than assumed;
failures raise ``InternalConsistencyError`` with a witness.  The bracket
is well defined because every relation has derivation 0 and each coset
derivation keeps K, which follows from three facts on it checked here:
it keeps a and C, commutes with *, and satisfies the derivation law on b.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactla import (
    BasedSpace,
    Q,
    QuotientSpace,
    Subspace,
    add_scaled,
    apply,
    clean,
    columns,
    kernel_of_rows,
    label_text,
    q_parse,
    q_str,
    rref,
    scalar,
    tensor_space,
    vector_text,
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
        "unit",
        "star",
        "c_space",
        "b_space",
        "b_table",
        "denom",
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
        # b's product, q's only product table: an entry dict per pair of basis
        # labels of b = a (+) C (a's and C's are disjoint), a a' from ``mult``,
        # f(c, c') from ``f_table``, a.c from ``action`` and c a = a*.c
        t = self.b_table = {key: clean(self.a_space, val) for key, val in mult.items()}
        self.unit = clean(self.a_space, unit)
        # the involution's entry dict {(row, col): value} on a
        self.star = clean(tensor_space(self.a_space, self.a_space), star)
        self.c_space = BasedSpace(c_labels)
        action = {key: clean(self.c_space, val) for key, val in (action or {}).items()}
        t.update((key, clean(self.a_space, val)) for key, val in (f_table or {}).items())
        t.update(action)
        self.b_space = BasedSpace(list(a_labels) + list(c_labels))
        star_cols = columns(self.star)
        for a in self.a_space.labels:
            for c in self.c_space.labels:
                t[c, a] = _bilinear(action, star_cols.get(a, {}), {c: 1})
        # 2 m^2, m the common denominator of b's product: one of every ad(e_r)
        # and ``label_part``, whose entries are b's or halved products of two
        self.denom = 2 * lcm(*(v.denominator for row in self.b_table.values() for v in row.values())) ** 2
        # b (x) b, shared by K, beta* and every {b,b}_ell built on q
        self.bb_space = tensor_space(self.b_space, self.b_space)
        # A and B, the (+1)- and (-1)-eigenspaces of star on a: the kernels
        # of star -+ 1, from their nonzero rows
        star_rows = columns({(c, r): v for (r, c), v in self.star.items()})
        parts = []
        for sign in (1, -1):
            rows = []
            for r in self.a_space.labels:
                row = dict(star_rows.get(r, {}))
                add_scaled(row, {r: -sign})
                if row:
                    rows.append(row)
            parts.append(kernel_of_rows(rows, self.a_space))
        self.a_part_sub, self.b_part_sub = parts
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

    Each law reads the products of basis elements from b's product table
    ``q.b_table``, with ``q.unit`` and the columns of ``q.star``, on entry
    dicts: (e_i e_j) e_k, say, is sum_l c_ij^l (e_l e_k).  "a associative",
    "module associative" and "f left semilinear" are one law, b associative
    on the triples a.a.a, a.a.C and a.C.C, and the Clifford structure is the
    same law on triples of A and B; ``_associator_faults`` checks each.
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
    t = q.b_table
    ea, ec = ({l: {l: 1} for l in labs} for labs in (alabs, clabs))
    unit, star = q.unit, q.star
    cols = columns(star)
    e_star = {l: cols.get(l, {}) for l in alabs}  # e_l*, column l of star

    def noncommuting(fmt: str) -> list:
        return [
            fmt.format(i=i, j=j)
            for i in alabs
            for j in alabs
            if t.get((i, j), {}) != t.get((j, i), {})
        ]

    def associative(law: str, fmt: str, xs: dict, ys: dict, zs: dict):
        record(law, [fmt.format(*key) for key in _associator_faults(t, xs, ys, zs)])

    if q.qtype == "B":
        # the type-B star algebra is a Clifford Jordan algebra: commutative
        # with unit, not associative in general
        record("a commutative (Jordan)", noncommuting("{i}.{j} != {j}.{i}"))
        # Clifford structure: associativity on triples with at most one
        # skew factor (A associative, A-module law on B, form A-bilinear)
        rows = {p: dict(enumerate(s.rows)) for p, s in (("A", q.a_part_sub), ("B", q.b_part_sub))}
        record("Clifford Jordan structure", [
            f"associator nonzero on {tag} triple"
            for tag in ("AAA", "AAB", "ABB")
            for _ in _associator_faults(t, *(rows[part] for part in tag))
        ])
    else:
        associative("a associative", "({0}.{1}).{2} != {0}.({1}.{2})", ea, ea, ea)
    record("unit law", [
        lab
        for lab in alabs
        if _bilinear(t, unit, ea[lab]) != ea[lab] or _bilinear(t, ea[lab], unit) != ea[lab]
    ])
    # on a = 0 the unit law holds vacuously, but 1 = 0 makes x -> x (x) 1
    # fail to be injective
    record("unit is nonzero", [] if unit else ["unit is 0"])
    record("star is an involution (star^2 = id)", [
        lab for lab in alabs if apply(star, e_star[lab]) != ea[lab]
    ])
    if q.qtype in ("C", "BC", "B"):
        record("star antiautomorphism ((xy)* = y*x*)", [
            f"({i}.{j})*"
            for i in alabs
            for j in alabs
            if apply(star, t.get((i, j), {})) != _bilinear(t, e_star[j], e_star[i])
        ])
    if q.qtype in ("A", "D"):
        identity = {(l, l): 1 for l in alabs}
        record("star = id", [] if star == identity else ["star differs from identity"])
    if q.qtype == "D":
        record("a commutative", noncommuting("{i}.{j}"))
    if q.qtype in ("A", "B", "C", "D"):
        record("module part trivial", [] if q.c_dim == 0 else ["C is nonzero"])
    if q.qtype == "BC":
        record("module unital", [l for l in clabs if _bilinear(t, unit, ec[l]) != ec[l]])
        associative("module associative ((xy).c = x.(y.c))", "({0}.{1}).{2}", ea, ea, ec)
        record("f skew-hermitian (f(c,c')* = -f(c',c))", [
            f"f({l},{m})"
            for l in clabs
            for m in clabs
            if apply(star, t.get((l, m), {})) != {a: -v for a, v in t.get((m, l), {}).items()}
        ])
        associative("f left semilinear (f(x.c, c') = x f(c, c'))", "f({0}.{1},{2})", ea, ec, ec)
    record(
        "a = A (+) B eigenspace split",
        []
        if q.a_part_sub.dim + q.b_part_sub.dim == q.a_dim
        else [f"dim A + dim B = {q.a_part_sub.dim}+{q.b_part_sub.dim} != {q.a_dim}"],
    )
    ok = all(c["status"] == "pass" for c in checks)
    return {"quadruple": q.name, "type": q.qtype, "valid": ok, "checks": checks}


def _associator_faults(t: dict, xs: dict, ys: dict, zs: dict):
    """The keys (i, j, k), in loop order, of the triples x = xs[i],
    y = ys[j], z = zs[k] of entry dicts with (xy)z != x(yz) in the product
    table t.  Both sides are 0 where xy and yz are, so a triple is formed
    only where xy or yz is nonzero."""
    yz = {j: {k: p for k, z in zs.items() if (p := _bilinear(t, y, z))} for j, y in ys.items()}
    for i, x in xs.items():
        for j, y in ys.items():
            xy = _bilinear(t, x, y)
            for k in zs if xy else yz[j]:
                if _bilinear(t, xy, zs[k]) != _bilinear(t, x, yz[j].get(k, {})):
                    yield i, j, k


# ---------------------------------------------------------------------------
# the relation space K and the quotient {b,b}_ell


def relation_generators(q: CoordinateQuadruple) -> list[dict]:
    """The seven generator families of K, instantiated over basis tuples.

    A generator that is zero, or equal to one emitted before it, is left
    out: it adds nothing to the span, and the rref of the list is the same
    row for row.  The symmetric pairs (x, y) and (y, x), and the three
    rotations of a cyclic triple, give equal generators, so only x <= y and
    the first rotation in loop order are formed; a cyclic or f-family triple
    whose three products are 0 is skipped.  The binomial families are written
    out, a (x) C and C (x) a with no repeat test: no other family meets them."""
    gens: list[dict] = []
    seen: set[frozenset] = set()

    def keep(entries: dict) -> None:
        key = frozenset(entries.items())
        if entries and key not in seen:
            seen.add(key)
            gens.append(entries)

    def tens(*terms: tuple[dict, str, int]) -> None:
        """Keep the sum of s p (x) e_l over the terms (p, l, s), p an entry dict."""
        entries: dict[tuple[str, str], Fraction] = {}
        for p, l, s in terms:
            for o, v in p.items():
                entries[o, l] = entries.get((o, l), 0) + s * v
        keep({key: v for key, v in entries.items() if v})

    t = q.b_table
    alabs, clabs = q.a_space.labels, q.c_space.labels
    for a in alabs:
        for c in clabs:
            gens += ({(a, c): 1}, {(c, a): 1})
    for a in q.a_part_sub.rows:
        for b in q.b_part_sub.rows:
            keep({(x, y): vx * vy for x, vx in a.items() for y, vy in b.items()})
    for i, x in enumerate(alabs):
        for y in alabs[i:]:
            keep({(x, y): 1, (y, x): 1} if x != y else {(x, x): 2})
    for i, c in enumerate(clabs):
        for cp in clabs[i + 1 :]:
            keep({(c, cp): 1, (cp, c): -1})
    for i, x in enumerate(alabs):
        for j, y in enumerate(alabs[i:], i):
            xy = t.get((x, y), {})
            for k, z in enumerate(alabs[i:], i):
                # the first of the three rotations in loop order has the
                # least index first; of (i, j, i) and (i, i, j) it is the latter
                if k == i < j:
                    continue
                zx, yz = t.get((z, x), {}), t.get((y, z), {})
                if xy or zx or yz:
                    tens((xy, z, 1), (zx, y, 1), (yz, x, 1))
    # f(c, c') (x) a + (a*.c') (x) c - (a.c) (x) c', that is
    # (c c') (x) a + (c' a) (x) c - (a c) (x) c' in b
    for c in clabs:
        for cp in clabs:
            for a in alabs:
                ccp, cpa, ac = t.get((c, cp), {}), t.get((cp, a), {}), t.get((a, c), {})
                if ccp or cpa or ac:
                    tens((ccp, a, 1), (cpa, c, 1), (ac, cp, -1))
    return gens


class BBQuotient:
    """{b, b}_ell = (b (x) b)/K with the derivation-induced bracket.

    ``beta_rows`` is the beta* map b (x) b -> a as rows,
    ``beta_star_map_rows(q)``, and ``beta_cols`` the same entries by tensor
    label, {label: {row: entry}}, each times ``beta_denom``, their common
    denominator, so an int.  ``beta_witness`` is the first relation row
    beta* is nonzero on, or None.  Like K, these do not depend on ell
    (``_shared``).  ``kappa`` is ``inner_scale`` at ell, formed when ell is
    set: a level below 1 fails there.  ``derivations`` is {coset label f:
    d^ell_f}, formed once when ell is set; every derivation a coset acts by
    is read from there.
    """

    _shared = ("q", "tensor", "relations", "quotient", "beta_rows", "beta_cols", "beta_denom", "beta_witness")
    __slots__ = ("ell", "kappa", "derivations", *_shared)

    def __init__(self, q: CoordinateQuadruple, ell: int):
        self.q = q
        self.ell = ell
        self.kappa = inner_scale(q.qtype, ell)
        self.tensor = q.bb_space
        self.relations = rref(relation_generators(q), self.tensor)
        self.quotient = QuotientSpace(self.tensor, self.relations)
        self.beta_rows = rows = beta_star_map_rows(q)
        self.beta_denom = d = lcm(*(v.denominator for row in rows.values() for v in row.values()))
        self.beta_cols = columns({(r, lab): v.numerator * (d // v.denominator)
                                  for r, row in rows.items() for lab, v in row.items()})
        self.derivations = self._coset_derivations()
        self._verify_well_defined()

    def at_ell(self, ell: int) -> "BBQuotient":
        """The same quotient at another ell, not re-verified.

        Neither K (with the quotient) nor beta* depends on ell, so what is
        formed from them is shared; kappa and the coset derivations do, so
        the result forms its own.
        """
        other = object.__new__(BBQuotient)
        for name in self._shared:
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
        for BC, the Jordan derivations for B (where z = 0); 0 for D.  Summed
        in ints times G L den, G the common denominator of t, L ``q.denom``
        and num / den = kappa / beta_denom; only nonzero sums are divided."""
        q, k, g = self.q, self.kappa, lcm(*(v.denominator for v in t.values()))
        u = t if g == 1 else {lab: v.numerator * (g // v.denominator) for lab, v in t.items()}
        num, den = q.denom * k.numerator, q.denom * k.denominator * self.beta_denom
        walk = self.beta_walk(u) if num else {}
        terms = [(num * w, q.ad_basis().get(r, {})) for r, w in walk.items() if w]
        terms += [(den * c, q.label_part(lab)) for lab, c in u.items()]
        d: dict[tuple[str, str], int] = {}
        for c, row in terms:
            for key, x in row.items():
                s = d.get(key, 0) + c * x.numerator // x.denominator
                if s:
                    d[key] = s
                else:
                    d.pop(key, None)
        return {key: scalar(Q(n, den * g)) for key, n in d.items()}

    def beta_walk(self, t: dict) -> dict[str, Fraction]:
        """beta_denom beta*(t) of the tensor t, an entry dict that may hold
        zeros, from the entries of t at the labels of ``beta_cols`` only."""
        acc: dict[str, Fraction] = {}
        for lab, c in t.items():
            for r, w in self.beta_cols.get(lab, {}).items():
                acc[r] = acc.get(r, 0) + w * c
        return acc

    def inner_of(self, t: dict) -> dict[str, Fraction]:
        """kappa beta* of the tensor t, both entry dicts, in ``beta_rows``
        order, kappa = ``inner_scale``: for x (x) y, the element of a whose
        inner derivation d^ell_{x,y} is, less the BC f-term.  It is t's
        ``beta_walk`` times kappa / beta_denom, and is formed only when
        kappa is nonzero."""
        if not self.kappa:
            return {}
        walk = self.beta_walk(t)
        scale = self.kappa * Q(1, self.beta_denom)
        return {r: scalar(scale * walk[r]) for r in self.beta_rows if walk.get(r)}

    def _verify_well_defined(self):
        """The two facts that make {b,b}_ell = (b (x) b)/K well defined: every
        relation vector has total derivation 0, and each coset derivation d
        keeps K, (d (x) 1 + 1 (x) d)K in K.  The second follows from three
        facts on d, checked by ``_fact_check``: (i) d maps a into a and C
        into C; (ii) d commutes with * on a; (iii) d(xy) = d(x)y + x d(y) on
        every pair of basis labels of b.  For then D = d (x) 1 + 1 (x) d maps
        each family of ``relation_generators`` into its own span: by (i)
        a (x) C, C (x) a, x (x) y + y (x) x and c (x) c' - c' (x) c; by (i)
        and (ii), which make d keep A and B, A (x) B; by (iii) the cyclic
        family and the f-relation, since both are trilinear.  (ii) holds on
        valid input: beta*(x, y)* = -beta*(x, y) by the antiautomorphism
        law, so ad(kappa beta*(t)) commutes with *; on type B the mixed A/B
        part of a label lies in K, so its derivation is 0, and [L_y, L_x]
        with x, y both in A or both in B commutes with *.

        d_g of a relation row g is formed only where beta*(g) or a label
        part of g is nonzero, for d_g is 0 otherwise; beta*(g) also finds
        ``beta_witness``, the relation half of the uniform verdict."""
        self.beta_witness = None
        for g in self.relations.rows:
            inner = any(self.beta_walk(g).values())
            if self.beta_witness is None and inner:
                self.beta_witness = g
            if (inner or any(map(self.q.label_part, g))) and self.derivation_of(g):
                raise InternalConsistencyError(
                    "total derivation of a relation vector is nonzero",
                    witness=vector_text(self.tensor, g),
                )
        check = _fact_check(self.q)
        for f, d in self.derivations.items():
            fault = d and check(d)
            if fault:
                fact, text, labels = fault
                raise InternalConsistencyError(
                    f"coset derivation fails {text}", witness=f"{fact} {(label_text(f), *labels)!r}"
                )

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def pair_tensor(self, x: dict, y: dict) -> dict:
        """x (x) y in b (x) b, for the entry dicts x, y of elements of b."""
        return {(lx, ly): scalar(vx * vy) for lx, vx in x.items() for ly, vy in y.items()}

    def bracket_cosets(self, u: dict, v: dict) -> dict:
        """[u, v] of two coset vectors, entry dicts over the coset labels: v
        under d (x) 1 + 1 (x) d, reduced modulo the relations, where d =
        sum_f u_f d_f over the stored ``derivations``; by linearity d is
        ``derivation_of`` u."""
        d: dict[tuple[str, str], Fraction] = {}
        for f, c in u.items():
            add_scaled(d, self.derivations[f], c)
        return self.relations.reduce(_pair_action(columns(d), v))

    def d_part(self, k_span: Sequence[dict]) -> QuotientSpace:
        """The D-part (b (x) b)/(relations + K) of a model whose K is
        spanned by the coset vectors ``k_span``.

        On C, the derivation of a tensor t is c -> kappa beta*(t).c -
        F(t)(c) / 2, F the BC f-term (``derivation_of``), linear in t.  The
        build checks that every relation has derivation 0, FH is the exact
        kernel of the derivation (``full_homology``), and the uniform
        verdict says beta* is 0 on relations + K.  So F is 0 on the
        whole relation space and the module rows of the model are well
        defined.
        """
        if not k_span:
            return self.quotient
        return QuotientSpace(self.tensor, rref([*self.relations.rows, *k_span], self.tensor))


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


def _fact_check(q: CoordinateQuadruple):
    """The check of a derivation d of b, an entry dict, for the three facts
    of ``BBQuotient._verify_well_defined``: the first fact d fails, its
    text, and the first label or pair of labels of b it fails at, in label
    order; or None."""
    a, pos = q.a_space, q.b_space.pos
    # b's product by the label of the product, of the left and of the right factor
    into, left, right = {}, {}, {}
    for (x, y), xy in q.b_table.items():
        for o, w in xy.items():
            into.setdefault(o, []).append((x, y, w))
            left.setdefault(x, []).append((y, o, w))
            right.setdefault(y, []).append((x, o, w))

    def check(d):
        # each fact is homogeneous in d, so d times its common denominator
        # has the same verdict and witness, in int arithmetic
        denom = lcm(*(v.denominator for v in d.values()))
        d = {k: v.numerator * (denom // v.denominator) for k, v in d.items()}
        crossing = [c for r, c in d if (r in a) != (c in a)]
        if crossing:
            return "(i)", "d(a) in a, d(C) in C", (min(crossing, key=pos),)
        for c in a.labels:
            if apply(d, apply(q.star, {c: 1})) != apply(q.star, apply(d, {c: 1})):
                return "(ii)", "d(x*) = d(x)*", (c,)
        # the defect d(xy) - d(x)y - x d(y) at (o, x, y), in one walk: an
        # entry d[r, c] = v adds v (xy)_c at r, and takes v (e_r y)_o from
        # (c, y) and v (x e_r)_o from (x, c)
        defect = {}
        for (r, c), v in d.items():
            for x, y, w in into.get(c, ()):
                defect[r, x, y] = defect.get((r, x, y), 0) + v * w
            for y, o, w in left.get(r, ()):
                defect[o, c, y] = defect.get((o, c, y), 0) - v * w
            for x, o, w in right.get(r, ()):
                defect[o, x, c] = defect.get((o, x, c), 0) - v * w
        bad = [(x, y) for (_, x, y), s in defect.items() if s]
        if bad:
            return "(iii)", "d(xy) = d(x)y + x d(y)", min(bad, key=lambda p: (pos(p[0]), pos(p[1])))

    return check


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
    # the exact kernel of these rows: every vector of FH has derivation 0
    fh = kernel_of_rows(list(rows_by_pos.values()), csp)
    live = [lab for lab, d in bb.derivations.items() if d]
    for f in fh.rows:
        for lab in live:
            if bb.bracket_cosets({lab: 1}, f):
                raise InternalConsistencyError(
                    "homology element is not central",
                    witness=f"({label_text(lab)!r}, {vector_text(csp, f)})",
                )
    return fh


def beta_star_map_rows(q: CoordinateQuadruple) -> dict[str, dict]:
    """The linear map b(x)b -> a sending x(x)y to beta*_{x,y}, as entry dicts
    {r: row r}.  On basis labels it is ([x, y] + [x*, y*])/2 for x, y in a,
    minus the symmetric part (x y + y x)/2 of f for x, y in C, and 0 on
    a (x) C and C (x) a; every product is b's.  Each entry is formed twice
    over, from the table and star's columns in their own arithmetic (ints
    when integral), and halved once."""
    t, star = q.b_table, columns(q.star)
    alabs, clabs = q.a_space.labels, q.c_space.labels
    rows: dict[str, dict[tuple[str, str], Fraction]] = {}
    for l1, l2 in [(x, y) for x in alabs for y in alabs] + [(x, y) for x in clabs for y in clabs]:
        twice: dict[str, Fraction] = {}
        sign = 1 if l1 in q.a_space else -1
        add_scaled(twice, t.get((l1, l2), {}), sign)
        add_scaled(twice, t.get((l2, l1), {}), -1)
        if sign == 1:
            s1, s2 = star.get(l1, {}), star.get(l2, {})
            add_scaled(twice, _bilinear(t, s1, s2))
            add_scaled(twice, _bilinear(t, s2, s1), -1)
        for r, v in twice.items():
            half = v >> 1 if type(v) is int and not v & 1 else scalar(Q(v, 2))
            rows.setdefault(r, {})[l1, l2] = half
    return rows


def check_uniform(
    bb: BBQuotient,
    k_span: Sequence[dict],
    fh: Subspace,
    cross_check_ell: int | None = None,
) -> dict:
    """Decide the uniform property for span(k_span) inside FH =
    ``full_homology(bb)``; exact.

    The condition collapses to: the beta* map vanishes on the preimage
    K + span(k_span) of the span.  Neither K nor beta* depends on
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
                    "homology membership changed with ell",
                    witness=vector_text(bb.quotient.coset_space, v),
                )
        report["cross_check"] = {"ell": cross_check_ell, "uniform": verdict}
    return report


def _uniform_verdict(bb: BBQuotient, k_span: Sequence[dict]):
    """(verdict, witness): the first of the relation rows, then k_span, that
    beta* is nonzero on.  The build found the relation row, ``beta_witness``,
    so only k_span is walked here."""
    if bb.beta_witness is not None:
        return False, vector_text(bb.tensor, bb.beta_witness)
    for t in k_span:
        if any(bb.beta_walk(t).values()):
            return False, vector_text(bb.tensor, t)
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

    def table3(left, right, out_pos):
        # the (left, right) block of b's product
        out = []
        for (i, j), vec in q.b_table.items():
            if i in left and j in right:
                for lab, val in vec.items():
                    out.append([left[i], right[j], out_pos[lab], q_str(val)])
        out.sort(key=lambda row: row[:3])
        return out

    star_entries = sorted(
        [apos[r], apos[c], q_str(v)] for (r, c), v in q.star.items()
    )
    return {
        "type": q.qtype,
        "name": q.name,
        "a_dim": q.a_dim,
        "structure_constants": table3(apos, apos, apos),
        "unit": sorted([apos[lab], q_str(v)] for lab, v in q.unit.items()),
        "star": star_entries,
        "c_dim": q.c_dim,
        "action": table3(apos, cpos, cpos),
        "f": table3(cpos, cpos, apos),
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


# a rational as ``q_str`` writes it: "p" or "p/q", in ASCII digits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_scalar(key: str, val) -> Fraction:
    """An integer, or a string in the form ``_RATIONAL``.  Any other string
    is refused before it is parsed: Fraction would read "1e99999999" by
    forming 10^99999999."""
    is_int = isinstance(val, int) and not isinstance(val, bool)
    if not (is_int or isinstance(val, str) and _RATIONAL.fullmatch(val)):
        raise ValueError(f"quadruple field {key!r}: {val!r} is not a rational string")
    try:
        return q_parse(val)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"quadruple field {key!r}: {val!r} is not a rational") from None
