import json
import random

import pytest

from fractions import Fraction as Q

import rootgraded.coord as coord
from rootgraded.cli import load_quadruple
from rootgraded.coord import (
    BBQuotient,
    CoordinateQuadruple,
    PRESETS,
    InternalConsistencyError,
    beta_star,
    beta_star_map_rows,
    build_bb,
    check_uniform,
    clifford_quadruple,
    full_homology,
    parse_preset_spec,
    preset_quadruple,
    quadruple_from_json,
    quadruple_to_json,
    relation_generators,
    validate_quadruple,
)
from rootgraded.exactla import (
    QuotientSpace,
    SparseMatrix,
    SparseVector,
    columns,
    rref,
    tensor_space,
)
from rootgraded.liealg import FormedSpace

PRESET_SPECS = [
    "matrix:k=2",
    "group_ring:m=3",
    "clifford:d=2",
    "matrix_transpose:k=2",
    "symplectic:m=2",
    "matrix_hermitian:k=2,m=2",
]

# the benchmark's seven coordinate presets
COORDINATE_PRESETS = [
    "matrix:k=4", "matrix_transpose:k=4", "matrix_hermitian:k=3,m=4",
    "matrix_hermitian:k=4,m=2", "clifford:d=6", "group_ring:m=8", "symplectic:m=8",
]

_QUADS = {}
_BBS = {}


def quad(spec):
    if spec not in _QUADS:
        _QUADS[spec] = parse_preset_spec(spec)
    return _QUADS[spec]


def bb_for(spec, ell=4):
    key = (spec, ell)
    if key not in _BBS:
        _BBS[key] = build_bb(quad(spec), ell)
    return _BBS[key]


def on_b(q, entries):
    """The linear map of b with these entries."""
    return SparseMatrix(q.b_space, q.b_space, entries)


def derivation(spec, ell, x, y):
    """d^ell_{x,y}: the derivation that {b,b}_ell forms for the tensor x (x) y."""
    bb = bb_for(spec, ell)
    return on_b(bb.q, bb.derivation_of(bb.pair_tensor(x.entries, y.entries).entries))


# products read off the structure constants ``mult``, ``action`` and
# ``f_table``, independent of b's product table; b_mul reads that table
def a_mul(q, x, y):
    return SparseVector(q.a_space, coord._bilinear(q.mult, x.entries, y.entries))


def c_act(q, a, c):
    return SparseVector(q.c_space, coord._bilinear(q.action, a.entries, c.entries))


def f_val(q, c, cp):
    return SparseVector(q.a_space, coord._bilinear(q.f_table, c.entries, cp.entries))


def b_mul(q, x, y):
    return SparseVector(q.b_space, coord._bilinear(q.b_table, x.entries, y.entries))


def split_b(q, x):
    """x in b as its a part and its C part."""
    return tuple(
        SparseVector(space, {l: v for l, v in x.entries.items() if l in space})
        for space in (q.a_space, q.c_space)
    )


def lift_b(q, v):
    """An element of a or of C, as an element of b."""
    return SparseVector(q.b_space, v.entries)


def diamond_heart(q, c, cp):
    """diamond = antisymmetric part of f, heart = symmetric part."""
    f1, f2 = f_val(q, c, cp), f_val(q, cp, c)
    return (f1 - f2).scale(Q(1, 2)), (f1 + f2).scale(Q(1, 2))


def scalar_quadruple(qtype):
    return CoordinateQuadruple(
        qtype,
        ["one"],
        {("one", "one"): {"one": Q(1)}},
        {"one": Q(1)},
        {("one", "one"): Q(1)},
        name=f"F-as-{qtype}",
    )


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_presets_validate(spec):
    report = validate_quadruple(quad(spec))
    assert report["valid"], report


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_quadruple_of_the_o_b_form_validates(n):
    # the form of o_B(n) pairs v:i with vb:i, so its Clifford algebra is not
    # the diagonal one of the preset
    nat = FormedSpace("B", n)
    q = clifford_quadruple(nat.space.labels, nat.gram.entries, name="o_B")
    assert validate_quadruple(q)["valid"]
    v1, vb1 = (q.a_space.basis_vector(l) for l in ("v:1", "vb:1"))
    assert a_mul(q, v1, vb1) == q.unit.scale(Q(2))
    assert a_mul(q, v1, v1).is_zero()


@pytest.mark.parametrize("qtype", ["A", "C", "D"])
def test_scalar_quadruple_valid_as_a_c_d(qtype):
    assert validate_quadruple(scalar_quadruple(qtype))["valid"]


def test_matrix_transpose_split_dims():
    q = quad("matrix_transpose:k=2")
    assert q.a_dim == 4
    assert q.a_part_sub.dim == 3
    assert q.b_part_sub.dim == 1


def test_validation_failure_names_law():
    # (y.y).y = z.y = 0 while y.(y.y) = y.z = x: genuinely non-associative
    q = CoordinateQuadruple(
        "A",
        ["x", "y", "z"],
        {("x", "x"): {"x": Q(1)}, ("x", "y"): {"y": Q(1)}, ("x", "z"): {"z": Q(1)},
         ("y", "x"): {"y": Q(1)}, ("z", "x"): {"z": Q(1)},
         ("y", "y"): {"z": Q(1)}, ("y", "z"): {"x": Q(1)},
         ("z", "y"): {}, ("z", "z"): {}},
        {"x": Q(1)},
        {("x", "x"): Q(1), ("y", "y"): Q(1), ("z", "z"): Q(1)},
        name="broken",
    )
    report = validate_quadruple(q)
    assert not report["valid"]
    failed = [c["law"] for c in report["checks"] if c["status"] == "fail"]
    assert "a associative" in failed


# the laws validate_quadruple checks for each type, in report order
_LAWS = {
    "A": ["a associative", "unit law", "unit is nonzero",
          "star is an involution (star^2 = id)", "star = id", "module part trivial",
          "a = A (+) B eigenspace split"],
    "B": ["a commutative (Jordan)", "Clifford Jordan structure", "unit law",
          "unit is nonzero", "star is an involution (star^2 = id)",
          "star antiautomorphism ((xy)* = y*x*)", "module part trivial",
          "a = A (+) B eigenspace split"],
    "C": ["a associative", "unit law", "unit is nonzero",
          "star is an involution (star^2 = id)", "star antiautomorphism ((xy)* = y*x*)",
          "module part trivial", "a = A (+) B eigenspace split"],
    "D": ["a associative", "unit law", "unit is nonzero",
          "star is an involution (star^2 = id)", "star = id", "a commutative",
          "module part trivial", "a = A (+) B eigenspace split"],
    "BC": ["a associative", "unit law", "unit is nonzero",
           "star is an involution (star^2 = id)", "star antiautomorphism ((xy)* = y*x*)",
           "module unital", "module associative ((xy).c = x.(y.c))",
           "f skew-hermitian (f(c,c')* = -f(c',c))",
           "f left semilinear (f(x.c, c') = x f(c, c'))", "a = A (+) B eigenspace split"],
}


def expected_report(name, qtype, failures):
    """The report of a quadruple that fails exactly the laws in ``failures``
    ({law: witnesses}) and passes every other law of its type."""
    checks = [
        {"law": law, "status": "fail" if law in failures else "pass",
         "witnesses": failures.get(law, [])}
        for law in _LAWS[qtype]
    ]
    return {"quadruple": name, "type": qtype, "valid": not failures, "checks": checks}


@pytest.mark.parametrize("spec", PRESET_SPECS + COORDINATE_PRESETS)
def test_preset_validation_report(spec):
    q = quad(spec)
    assert validate_quadruple(q) == expected_report(spec, q.qtype, {})


def _broken(qtype, a_labels, mult, unit, star, c_labels=(), action=None, f=None):
    return CoordinateQuadruple(
        qtype, a_labels, mult, unit, star, c_labels, action, f, name="broken"
    )


def _ident(labels):
    return {(l, l): 1 for l in labels}


_M2 = [f"m:{i},{j}" for i in range(2) for j in range(2)]
_M2_MULT = {
    (f"m:{i},{j}", f"m:{j},{s}"): {f"m:{i},{s}": 1}
    for i in range(2) for j in range(2) for s in range(2)
}
_M2_UNIT = {"m:0,0": 1, "m:1,1": 1}
_F = {("one", "one"): {"one": 1}}
# F[x]/(x^2)
_DUAL = {("one", "one"): {"one": 1}, ("one", "x"): {"x": 1}, ("x", "one"): {"x": 1}}
_MAT_COMMUTATORS = ["m:0,0.m:0,1", "m:0,0.m:1,0", "m:0,1.m:0,0"]
_MAT_ANTI = ["(m:0,0.m:0,1)*", "(m:0,0.m:1,0)*", "(m:0,1.m:0,0)*"]
_ANTI = "star antiautomorphism ((xy)* = y*x*)"
_INVOLUTION = "star is an involution (star^2 = id)"
_SPLIT = "a = A (+) B eigenspace split"

# one quadruple per law that it breaks: (the quadruple, {law: witnesses})
# for every law it fails
_BROKEN = {
    "jordan-commutative": (
        lambda: _broken("B", _M2, _M2_MULT, _M2_UNIT, _ident(_M2)),
        {"a commutative (Jordan)": [f"{w} != {'.'.join(w.split('.')[::-1])}"
                                    for w in _MAT_COMMUTATORS],
         _ANTI: _MAT_ANTI},
    ),
    # u.u = v, u.v = v.u = u, all of it fixed by star: (u.u).v = 0, u.(u.v) = v
    "clifford-aaa": (
        lambda: _broken("B", ["one", "u", "v"], {
            **{(l, "one"): {l: 1} for l in ("one", "u", "v")},
            **{("one", l): {l: 1} for l in ("u", "v")},
            ("u", "u"): {"v": 1}, ("u", "v"): {"u": 1}, ("v", "u"): {"u": 1},
        }, {"one": 1}, _ident(["one", "u", "v"])),
        {"Clifford Jordan structure": ["associator nonzero on AAA triple"] * 3},
    ),
    # u.u = 0, u.w = w.u = w, w.w = u with star -1 on w: (u.u).w = 0 but
    # u.(u.w) = w, and (u.w).w = u but u.(w.w) = 0
    "clifford-aab-abb": (
        lambda: _broken("B", ["one", "u", "w"], {
            **{(l, "one"): {l: 1} for l in ("one", "u", "w")},
            **{("one", l): {l: 1} for l in ("u", "w")},
            ("u", "w"): {"w": 1}, ("w", "u"): {"w": 1}, ("w", "w"): {"u": 1},
        }, {"one": 1}, {("one", "one"): 1, ("u", "u"): 1, ("w", "w"): -1}),
        {"Clifford Jordan structure": ["associator nonzero on AAB triple",
                                       "associator nonzero on ABB triple"]},
    ),
    # (y.y).y = z.y = 0 but y.(y.y) = y.z = x
    "associative": (
        lambda: _broken("A", ["x", "y", "z"], {
            ("x", "x"): {"x": 1}, ("x", "y"): {"y": 1}, ("x", "z"): {"z": 1},
            ("y", "x"): {"y": 1}, ("z", "x"): {"z": 1},
            ("y", "y"): {"z": 1}, ("y", "z"): {"x": 1},
        }, {"x": 1}, _ident("xyz")),
        {"a associative": ["(y.y).y != y.(y.y)", "(y.y).z != y.(y.z)",
                           "(y.z).y != y.(z.y)"]},
    ),
    "unit-law": (
        lambda: _broken("C", ["one"], _F, {"one": 2}, _ident(["one"])),
        {"unit law": ["one"]},
    ),
    "unit-nonzero": (
        lambda: _broken("A", [], {}, {}, {}),
        {"unit is nonzero": ["unit is 0"]},
    ),
    # three orthogonal idempotents, permuted cyclically by star
    "involution": (
        lambda: _broken("C", ["e1", "e2", "e3"], {(e, e): {e: 1} for e in ("e1", "e2", "e3")},
                        {"e1": 1, "e2": 1, "e3": 1},
                        {("e2", "e1"): 1, ("e3", "e2"): 1, ("e1", "e3"): 1}),
        {_INVOLUTION: ["e1", "e2", "e3"], _SPLIT: ["dim A + dim B = 1+0 != 3"]},
    ),
    "antiautomorphism": (
        lambda: _broken("C", _M2, _M2_MULT, _M2_UNIT, _ident(_M2)),
        {_ANTI: _MAT_ANTI},
    ),
    "star-id": (
        lambda: _broken("A", _M2, _M2_MULT, _M2_UNIT,
                        {(f"m:{j},{i}", f"m:{i},{j}"): 1 for i in range(2) for j in range(2)}),
        {"star = id": ["star differs from identity"]},
    ),
    "d-commutative": (
        lambda: _broken("D", _M2, _M2_MULT, _M2_UNIT, _ident(_M2)),
        {"a commutative": _MAT_COMMUTATORS},
    ),
    "module-trivial": (
        lambda: _broken("A", ["one"], _F, {"one": 1}, _ident(["one"]),
                        ["c"], {("one", "c"): {"c": 1}}),
        {"module part trivial": ["C is nonzero"]},
    ),
    "module-unital": (
        lambda: _broken("BC", ["one"], _F, {"one": 1}, _ident(["one"]),
                        ["c:0", "c:1"], {("one", "c:0"): {"c:0": 1}}),
        {"module unital": ["c:1"]},
    ),
    # x.c = c, so (x.x).c = 0 but x.(x.c) = c
    "module-associative": (
        lambda: _broken("BC", ["one", "x"], _DUAL, {"one": 1}, _ident(["one", "x"]),
                        ["c"], {("one", "c"): {"c": 1}, ("x", "c"): {"c": 1}}),
        {"module associative ((xy).c = x.(y.c))": ["(x.x).c"]},
    ),
    "skew-hermitian": (
        lambda: _broken("BC", ["one"], _F, {"one": 1}, _ident(["one"]), ["c:0", "c:1"],
                        {("one", "c:0"): {"c:0": 1}, ("one", "c:1"): {"c:1": 1}},
                        {("c:0", "c:1"): {"one": 1}, ("c:1", "c:0"): {"one": 1}}),
        {"f skew-hermitian (f(c,c')* = -f(c',c))": ["f(c:0,c:1)", "f(c:1,c:0)"]},
    ),
    # x.c = 0 but x f(c:0, c:1) = x
    "semilinear": (
        lambda: _broken("BC", ["one", "x"], _DUAL, {"one": 1}, _ident(["one", "x"]),
                        ["c:0", "c:1"],
                        {("one", "c:0"): {"c:0": 1}, ("one", "c:1"): {"c:1": 1}},
                        {("c:0", "c:1"): {"one": 1}, ("c:1", "c:0"): {"one": -1}}),
        {"f left semilinear (f(x.c, c') = x f(c, c'))": ["f(x.c:0,c:1)", "f(x.c:1,c:0)"]},
    ),
    # star = [[1, 1], [0, 1]] has no -1 eigenvector and fixes only one
    "eigenspace-split": (
        lambda: _broken("A", ["one", "x"], _DUAL, {"one": 1},
                        {("one", "one"): 1, ("x", "x"): 1, ("x", "one"): 1}),
        {_INVOLUTION: ["one"], "star = id": ["star differs from identity"],
         _SPLIT: ["dim A + dim B = 1+0 != 2"]},
    ),
}


@pytest.mark.parametrize("case", list(_BROKEN))
def test_validation_report_of_each_broken_law(case):
    build, failures = _BROKEN[case]
    q = build()
    assert validate_quadruple(q) == expected_report("broken", q.qtype, failures)


def test_b_mul_restricts_to_a_product():
    q = quad("matrix:k=2")
    e11 = q.b_space.basis_vector("m:0,0")
    e12 = q.b_space.basis_vector("m:0,1")
    assert b_mul(q, e11, e12) == e12
    assert b_mul(q, e12, e11).is_zero()


def test_b_mul_pure_module_inputs():
    q = quad("symplectic:m=2")
    c0 = q.b_space.basis_vector("c:0")
    c1 = q.b_space.basis_vector("c:1")
    # f((1,0),(0,1)) = 1, the unit of a = F
    assert b_mul(q, c0, c1) == q.b_space.basis_vector("one")
    assert b_mul(q, c1, c0) == q.b_space.basis_vector("one").scale(Q(-1))


def test_b_circ_brk():
    # the circle and bracket products of b, read through b_mul
    q = quad("matrix:k=2")
    e11 = q.b_space.basis_vector("m:0,0")
    e12 = q.b_space.basis_vector("m:0,1")
    assert b_mul(q, e11, e11) == e11
    xy, yx = b_mul(q, e11, e12), b_mul(q, e12, e11)
    assert yx.is_zero()  # e12 e11 = 0 in M2
    assert xy + yx == e12  # e11 o e12 = e12
    assert xy - yx == e12  # [e11, e12] = e12


def _table_quadruple(source):
    """A preset; the Clifford quadruple of o_B(3)'s form; or, for "json:"
    and a preset, that preset read back from its JSON form."""
    if source == "o_B(3)":
        nat = FormedSpace("B", 3)
        return clifford_quadruple(nat.space.labels, nat.gram.entries, name=source)
    if source.startswith("json:"):
        return quadruple_from_json(quadruple_to_json(quad(source[5:])))
    return quad(source)


_TABLE_SOURCES = PRESET_SPECS + COORDINATE_PRESETS + ["o_B(3)", "json:matrix_hermitian:k=2,m=2"]


@pytest.mark.parametrize("source", _TABLE_SOURCES)
def test_b_table_is_the_structured_product(source):
    # e_x e_y for every pair of basis labels of b = a (+) C, against
    # (a1 + c1)(a2 + c2) = a1 a2 + f(c1, c2) + a1.c2 + a2*.c1 written out
    # block by block from mult, f_table, action and the columns of star
    q = _table_quadruple(source)
    a, c = q.a_space, q.c_space
    for x in q.b_space.labels:
        for y in q.b_space.labels:
            if x in a and y in a:
                expected = q.mult.get((x, y), {})
            elif x in c and y in c:
                expected = q.f_table.get((x, y), {})
            elif x in a:
                expected = q.action.get((x, y), {})
            else:
                # e_x e_y = e_y*.e_x, e_y* being column y of star
                star_y = SparseVector(a, {r: v for (r, l), v in q.star.entries.items() if l == y})
                expected = c_act(q, star_y, c.basis_vector(x)).entries
            assert q.b_table.get((x, y), {}) == expected, (x, y)


@pytest.mark.parametrize("source", _TABLE_SOURCES)
def test_beta_star_rows_equal_beta_star_on_every_pair(source):
    # beta_star_map_rows(q)[r] at (x, y) is the r entry of beta*(e_x, e_y),
    # for every pair of basis labels of b
    q = _table_quadruple(source)
    rows = beta_star_map_rows(q)
    for x in q.b_space.labels:
        for y in q.b_space.labels:
            expected = beta_star(q, q.b_space.basis_vector(x), q.b_space.basis_vector(y))
            at_xy = {r: row[x, y] for r, row in rows.items() if (x, y) in row}
            assert at_xy == expected.entries, (x, y)


@pytest.mark.parametrize("spec", ["symplectic:m=2", "matrix_hermitian:k=2,m=2"])
def test_diamond_heart_containment(spec):
    q = quad(spec)
    for lc in q.c_space.labels:
        for lcp in q.c_space.labels:
            c = q.c_space.basis_vector(lc)
            cp = q.c_space.basis_vector(lcp)
            dia, heart = diamond_heart(q, c, cp)
            assert q.star.apply(dia) == dia  # lands in the fixed points
            assert q.star.apply(heart) == heart.scale(Q(-1))  # skew points
            dia2, heart2 = diamond_heart(q, cp, c)
            assert dia2 == dia.scale(Q(-1))
            assert heart2 == heart
    c = q.c_space.basis_vector(q.c_space.labels[0])
    dia, heart = diamond_heart(q, c, c)
    assert dia.is_zero()
    assert heart == f_val(q, c, c)


def test_heart_vanishes_for_symplectic_preset():
    q = quad("symplectic:m=2")
    for lc in q.c_space.labels:
        for lcp in q.c_space.labels:
            _, heart = diamond_heart(
                q, q.c_space.basis_vector(lc), q.c_space.basis_vector(lcp)
            )
            assert heart.is_zero()


def test_derivation_type_d_is_zero():
    spec = "group_ring:m=3"
    q = quad(spec)
    for l1 in q.b_space.labels:
        for l2 in q.b_space.labels:
            d = derivation(spec, 4, q.b_space.basis_vector(l1), q.b_space.basis_vector(l2))
            assert d.is_zero()


def test_derivation_type_a_example():
    # d_{e11,e12}(e21) = (1/6)[[e11,e12],e21] = (1/6)(e11 - e22) at ell = 5
    q = quad("matrix:k=2")
    x, y = q.b_space.basis_vector("m:0,0"), q.b_space.basis_vector("m:0,1")
    d = derivation("matrix:k=2", 5, x, y)
    out = d.apply(q.b_space.basis_vector("m:1,0"))
    expected = (
        q.b_space.basis_vector("m:0,0") - q.b_space.basis_vector("m:1,1")
    ).scale(Q(1, 6))
    assert out == expected


@pytest.mark.parametrize("spec", ["matrix:k=2", "matrix_transpose:k=2", "symplectic:m=2"])
def test_derivation_vanishes_on_equal_a_inputs(spec):
    q = quad(spec)
    for lab in q.a_space.labels:
        v = q.b_space.basis_vector(lab)
        assert derivation(spec, 4, v, v).is_zero()


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_derivation_is_a_derivation_of_b(spec):
    q = quad(spec)
    labs = q.b_space.labels
    pairs = [(l1, l2) for l1 in labs for l2 in labs]
    for l1, l2 in pairs:
        d = derivation(spec, 4, q.b_space.basis_vector(l1), q.b_space.basis_vector(l2))
        if d.is_zero():
            continue
        for x_lab in labs:
            for y_lab in labs:
                x = q.b_space.basis_vector(x_lab)
                y = q.b_space.basis_vector(y_lab)
                lhs = d.apply(b_mul(q, x, y))
                rhs = b_mul(q, d.apply(x), y) + b_mul(q, x, d.apply(y))
                assert lhs == rhs, (spec, l1, l2, x_lab, y_lab)


def _explicit_derivation(q, ell, x, y):
    """d^ell_{x,y} by the per-family formula, written out without beta* or
    kappa: ad([a1, a2])/(ell + 1) for A; ad([a1, a2] + [a1*, a2*])/(4 ell),
    acting on C too, for C and BC; for BC also ad(heart(c1, c2))/(-2 ell)
    on a and C and the f-terms -(c1 f(c, c2) + c2 f(c, c1))/2 on C; the
    Jordan derivation [L_a2, L_a1] for B; zero for D."""
    a1, c1 = split_b(q, x)
    a2, c2 = split_b(q, y)
    cols = {}

    def add_col(lab, vec):
        for r, v in vec.entries.items():
            cols[r, lab] = cols.get((r, lab), 0) + v

    def add_ad(z, scale):
        for lab in q.a_space.labels:
            e = q.a_space.basis_vector(lab)
            add_col(lab, (a_mul(q, z, e) - a_mul(q, e, z)).scale(scale))
        for lab in q.c_space.labels:
            add_col(lab, c_act(q, z, q.c_space.basis_vector(lab)).scale(scale))

    def comm(u, v):
        return a_mul(q, u, v) - a_mul(q, v, u)

    if q.qtype == "A":
        add_ad(comm(a1, a2), Q(1, ell + 1))
    elif q.qtype == "B":
        for lab in q.a_space.labels:
            e = q.a_space.basis_vector(lab)
            add_col(lab, a_mul(q, a2, a_mul(q, a1, e)) - a_mul(q, a1, a_mul(q, a2, e)))
    elif q.qtype in ("C", "BC"):
        add_ad(comm(a1, a2) + comm(q.star.apply(a1), q.star.apply(a2)), Q(1, 4 * ell))
    if q.qtype == "BC":
        heart = (f_val(q, c1, c2) + f_val(q, c2, c1)).scale(Q(1, 2))
        add_ad(heart, Q(-1, 2 * ell))
        for lab in q.c_space.labels:
            c = q.c_space.basis_vector(lab)
            f_terms = c_act(q, f_val(q, c, c2), c1) + c_act(q, f_val(q, c, c1), c2)
            add_col(lab, f_terms.scale(Q(-1, 2)))
    return SparseMatrix(q.b_space, q.b_space, cols)


@pytest.mark.parametrize("spec", PRESET_SPECS + ["matrix_hermitian:k=2,m=4"])
def test_derivation_matches_the_explicit_formula(spec):
    # the quotient's derivation reads kappa from inner_scale and beta* from
    # beta_rows; the oracle writes each family's constants out
    q = quad(spec)
    labs = q.b_space.labels
    for ell in (1, 4, 7):
        for l1 in labs:
            for l2 in labs:
                x, y = q.b_space.basis_vector(l1), q.b_space.basis_vector(l2)
                assert derivation(spec, ell, x, y) == _explicit_derivation(q, ell, x, y), (
                    ell, l1, l2,
                )


@pytest.mark.parametrize(
    "spec",
    [
        "matrix:k=2",
        "clifford:d=2",
        "matrix_transpose:k=2",
        "matrix_hermitian:k=2,m=2",
        "group_ring:m=3",
    ],
)
def test_tensor_derivation_is_the_sum_of_the_pair_derivations(spec):
    # the lemma the build reads: d_t = ad(kappa beta*(t)) - F(t)/2 is linear
    # in t.  On every relation row and on seeded random tensors, the
    # derivation and kappa beta* formed from t itself equal the sums over
    # t's labels of the written-out formula and of beta* itself, and each
    # label's pair derivation is the written-out formula
    q = quad(spec)
    bb = bb_for(spec)
    kappa = coord.inner_scale(q.qtype, bb.ell)
    labels = bb.tensor.labels
    rng = random.Random(7)
    randoms = [
        SparseVector(bb.tensor, {lab: rng.randint(-3, 3) for lab in rng.sample(labels, 6)})
        for _ in range(4)
    ]
    live = False
    for t in [*bb.relations.rows, *randoms]:
        d_sum = SparseMatrix.zero(q.b_space, q.b_space)
        z_sum = SparseVector(q.a_space, {})
        for lab, coeff in t.entries.items():
            x, y = (q.b_space.basis_vector(l) for l in lab)
            d = _explicit_derivation(q, bb.ell, x, y)
            assert bb.derivation_of({lab: 1}) == d.entries, lab
            d_sum = d_sum + d.scale(coeff)
            z_sum = z_sum + beta_star(q, x, y).scale(kappa * coeff)
        assert bb.derivation_of(t.entries) == d_sum.entries, repr(t)
        assert bb.inner_of(t.entries) == z_sum.entries, repr(t)
        live = live or not d_sum.is_zero()
    assert live == (q.qtype != "D")


@pytest.mark.parametrize(
    "spec",
    [
        "matrix:k=2",
        "clifford:d=2",
        "matrix_transpose:k=2",
        "matrix_hermitian:k=2,m=2",
        "group_ring:m=3",
    ],
)
def test_coset_derivations_cover_every_tensor_label(spec):
    # the lemma the derivation suite reads: each tensor is its projection,
    # a combination of coset labels, plus a relation part that d kills, so
    # d of every label is that combination of the stored coset derivations
    bb = bb_for(spec)
    q = bb.q
    assert list(bb.derivations) == list(bb.quotient.coset_labels)
    for f, d in bb.derivations.items():
        assert d == _explicit_derivation(q, bb.ell, *(q.b_space.basis_vector(l) for l in f)).entries
    for lab in bb.tensor.labels:
        e = bb.tensor.basis_vector(lab)
        combination = SparseMatrix.zero(q.b_space, q.b_space)
        for f, c in bb.quotient.project(e).entries.items():
            combination = combination + on_b(q, bb.derivations[f]).scale(c)
        assert bb.derivation_of(e.entries) == combination.entries, lab


def test_relation_generators_scalar_type_a():
    q = scalar_quadruple("A")
    gens = relation_generators(q)
    tsp = tensor_space(q.b_space, q.b_space)
    span = rref(gens, tsp)
    assert span.dim == 1  # K = span{1 (x) 1}, quotient is zero
    bb = build_bb(q, 3)
    assert bb.dim == 0


def _unpruned_relation_generators(q):
    """The seven generator families of K over every basis tuple, zeros and
    repeats kept: every ordered pair (x, y) and every rotation of a cyclic
    triple."""

    def tens(*pairs):
        entries = {}
        for x, y in pairs:
            for lx, vx in x.entries.items():
                for ly, vy in y.entries.items():
                    entries[lx, ly] = entries.get((lx, ly), 0) + vx * vy
        return SparseVector(q.bb_space, entries)

    avecs = [q.b_space.basis_vector(l) for l in q.a_space.labels]
    cvecs = [q.b_space.basis_vector(l) for l in q.c_space.labels]
    a_only = [q.a_space.basis_vector(l) for l in q.a_space.labels]
    c_only = [q.c_space.basis_vector(l) for l in q.c_space.labels]
    gens = [tens(p) for al in avecs for c in cvecs for p in ((al, c), (c, al))]
    gens += [
        tens((lift_b(q, a), lift_b(q, b))) for a in q.a_part_sub.rows for b in q.b_part_sub.rows
    ]
    gens += [tens((x, y), (y, x)) for x in avecs for y in avecs]
    gens += [tens((c, cp), (-cp, c)) for i, c in enumerate(cvecs) for cp in cvecs[i + 1 :]]
    prod = [[lift_b(q, a_mul(q, x, y)) for y in a_only] for x in a_only]
    n = len(avecs)
    gens += [
        tens((prod[i][j], avecs[k]), (prod[k][i], avecs[j]), (prod[j][k], avecs[i]))
        for i in range(n) for j in range(n) for k in range(n)
    ]
    act = [[lift_b(q, c_act(q, x, c)) for c in c_only] for x in a_only]
    star_act = [[lift_b(q, c_act(q, q.star.apply(x), c)) for c in c_only] for x in a_only]
    for i, c in enumerate(cvecs):
        for j, cp in enumerate(cvecs):
            f_ccp = lift_b(q, f_val(q, c_only[i], c_only[j]))
            for k, al in enumerate(avecs):
                gens.append(tens((f_ccp, al), (star_act[k][j], c), (-act[k][i], cp)))
    return gens


@pytest.mark.parametrize("spec", PRESET_SPECS + ["symplectic:m=4"])
def test_relation_generators_are_nonzero_and_distinct(spec):
    # no generator is zero or a repeat, and the list is the unpruned one
    # with its zeros and repeats dropped, the first copy kept: so the
    # relation rref is the same row for row, each row in the same order
    q = quad(spec)
    gens = relation_generators(q)
    assert gens and not any(g.is_zero() for g in gens)
    keys = [tuple(g.entries.items()) for g in gens]
    assert len(set(map(frozenset, keys))) == len(gens)
    first = {}
    for g in _unpruned_relation_generators(q):
        if not g.is_zero():
            first.setdefault(frozenset(g.entries.items()), tuple(g.entries.items()))
    assert keys == list(first.values())


def test_relation_generators_include_ab_family():
    q = quad("matrix_transpose:k=2")
    gens = relation_generators(q)
    tsp = tensor_space(q.b_space, q.b_space)
    span = rref(gens, tsp)
    apart = q.a_part_sub.rows[0]
    bpart = q.b_part_sub.rows[0]
    entries = {}
    for l1, v1 in apart.entries.items():
        for l2, v2 in bpart.entries.items():
            entries[l1, l2] = v1 * v2
    assert span.contains(SparseVector(tsp, entries))


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_bb_bracket_is_lie(spec):
    bb = bb_for(spec)
    csp = bb.quotient.coset_space
    basis = [csp.basis_vector(l) for l in csp.labels]
    table = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            table[(i, j)] = bb.bracket_cosets(u, v)
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert table[(i, j)] == table[(j, i)].scale(Q(-1))
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            for k, w in enumerate(basis):
                lhs = bb.bracket_cosets(u, table[(j, k)])
                rhs = bb.bracket_cosets(table[(i, j)], w) + bb.bracket_cosets(
                    v, table[(i, k)]
                )
                assert lhs == rhs, (spec, i, j, k)


def test_bb_type_d_abelian():
    bb = bb_for("group_ring:m=3")
    csp = bb.quotient.coset_space
    for l1 in csp.labels:
        for l2 in csp.labels:
            assert bb.bracket_cosets(csp.basis_vector(l1), csp.basis_vector(l2)).is_zero()


def test_bb_antisymmetry_of_cosets_in_a():
    bb = bb_for("matrix:k=2")
    q = bb.q
    for l1 in q.a_space.labels:
        for l2 in q.a_space.labels:
            x, y = q.b_space.basis_vector(l1), q.b_space.basis_vector(l2)
            u = bb.quotient.project(bb.pair_tensor(x.entries, y.entries))
            v = bb.quotient.project(bb.pair_tensor(y.entries, x.entries))
            assert u == v.scale(Q(-1))


def _assert_first_relation_row_fails(q, witness):
    with pytest.raises(InternalConsistencyError) as exc:
        build_bb(q, 4)
    assert str(exc.value) == "total derivation of a relation vector is nonzero"
    assert repr(exc.value.witness) == witness


def test_well_defined_check_catches_a_derivation_that_misses_k(monkeypatch):
    # the beta* entry at the pivot label of the second relation row, doubled:
    # no other relation row has an entry at a pivot label, so the rows
    # before it keep total derivation 0 and it gets ad(kappa e_01)
    q = quad("matrix:k=2")
    real = coord.beta_star_map_rows
    lab = ("m:0,0", "m:0,1")

    def doubled(q):
        rows = real(q)
        row = rows["m:0,1"]
        rows["m:0,1"] = {**row, lab: 2 * row[lab]}
        return rows

    monkeypatch.setattr(coord, "beta_star_map_rows", doubled)
    _assert_first_relation_row_fails(q, "1*m:0,0⊗m:0,1 + 1*m:1,1⊗m:0,1")


def test_well_defined_check_catches_an_f_term_that_misses_k(monkeypatch):
    # the BC f-term of the pivot label of the fifth relation row, doubled:
    # F is symmetric, so the row c0 (x) c1 - c1 (x) c0 had F = 0 and now
    # has F(c0, c1) != 0
    q = quad("symplectic:m=2")
    real = CoordinateQuadruple.label_part

    def doubled(q, lab):
        part = real(q, lab)
        return {pos: 2 * v for pos, v in part.items()} if lab == ("c:0", "c:1") else part

    monkeypatch.setattr(CoordinateQuadruple, "label_part", doubled)
    _assert_first_relation_row_fails(q, "1*c:0⊗c:1 + -1*c:1⊗c:0")


def _fewer_relations(real):
    """relation_generators replaced by the rows of their rref whose pivot
    label (x, y) has odd position sum in b: a rule on labels, so the rows
    kept do not depend on the order the generators are emitted in."""

    def rows(q):
        k = rref(real(q), q.bb_space)
        pos, labels = q.b_space.pos, q.bb_space.labels
        return [g for p, g in zip(k.pivots, k.rows) if sum(map(pos, labels[p])) % 2]

    return rows


@pytest.mark.parametrize(
    "spec,witness",
    [
        ("matrix_hermitian:k=2,m=2", ("m:0,0⊗m:1,0", "1*m:0,0⊗m:0,1 + 1*c:1,1⊗c:0,0")),
        ("symplectic:m=4", ("c:0⊗c:0", "1*c:1⊗c:2 + -1*c:2⊗c:1")),
    ],
)
def test_well_defined_check_catches_a_relation_space_not_kept(spec, witness, monkeypatch):
    # a smaller K that the derivations still kill but no longer keep: the
    # witness is the coset label of the derivation and the first relation
    # row it moves outside K
    q = quad(spec)
    build_bb(q, 4)
    monkeypatch.setattr(coord, "relation_generators", _fewer_relations(coord.relation_generators))
    with pytest.raises(InternalConsistencyError) as exc:
        build_bb(q, 4)
    assert str(exc.value) == "bracket does not preserve the relation space"
    lab, g = exc.value.witness
    assert (lab, repr(g)) == witness


@pytest.mark.parametrize("spec", ["matrix_hermitian:k=2,m=2", "symplectic:m=4", "matrix:k=2"])
def test_dual_stability_matches_image_and_reduce(spec):
    # for each coset derivation d and a relation space K that d may leave,
    # the first relation row found in the dual is the first row g whose
    # image (d (x) 1 + 1 (x) d)g does not reduce to 0 modulo K
    q = quad(spec)
    bb = build_bb(q, 4)
    for k in (bb.relations, rref(_fewer_relations(relation_generators)(q), bb.tensor)):
        quotient = QuotientSpace(bb.tensor, k)
        for lab in quotient.coset_labels:
            d = on_b(q, bb.derivation_of({lab: 1}))
            rows = columns(d.transpose().entries)
            dual = quotient.first_escape(lambda phi: coord._pair_action(rows, phi))
            cols = columns(d.entries)
            images = (SparseVector(bb.tensor, coord._pair_action(cols, g.entries)) for g in k.rows)
            reference = next((i for i, img in enumerate(images) if not k.contains(img)), None)
            assert dual == reference, lab


def test_full_homology_type_d_is_everything():
    bb = bb_for("group_ring:m=3")
    fh = full_homology(bb)
    assert fh.dim == bb.dim


def test_full_homology_catches_a_noncentral_homology_element(monkeypatch):
    # no quadruple here has FH != 0 beside a nonzero coset derivation, so a
    # mutant shows the centrality check can fail: with the identity as
    # every coset derivation, FH is the cosets of coefficient sum 0, and the
    # identity acts on each of them by 2, not 0
    bb = bb_for("matrix:k=2")
    ident = SparseMatrix.identity(bb.q.b_space).entries
    monkeypatch.setattr(bb, "derivations", {lab: ident for lab in bb.derivations})
    with pytest.raises(InternalConsistencyError) as exc:
        full_homology(bb)
    assert str(exc.value) == "homology element is not central"
    lab, f = exc.value.witness
    assert (lab, repr(f)) == ("m:1,0⊗m:0,1", "1*m:1,0⊗m:0,1 + -1*m:1,1⊗m:1,0")


def test_full_homology_matrix_oracle():
    # oracle: for a = M2 of type A, the total derivation of sum {x_i, y_i}
    # is ad(sum [x_i, y_i]); it vanishes iff sum [x_i, y_i] is central,
    # and central + traceless forces zero.  So FH = kernel of the induced
    # commutator map, computed independently below.
    bb = bb_for("matrix:k=2")
    q = bb.q
    csp = bb.quotient.coset_space
    rows_by_a: dict[str, dict[str, Q]] = {}
    for lab in csp.labels:
        lift = bb.quotient.lift(csp.basis_vector(lab))
        total = SparseVector(q.a_space, {})
        for (l1, l2), coeff in lift.entries.items():
            x = q.a_space.basis_vector(l1)
            y = q.a_space.basis_vector(l2)
            total = total + (a_mul(q, x, y) - a_mul(q, y, x)).scale(coeff)
        for r, v in total.entries.items():
            rows_by_a.setdefault(r, {})[lab] = v
    from rootgraded.exactla import kernel_of_rows

    oracle = kernel_of_rows(
        [SparseVector(csp, e) for e in rows_by_a.values()], csp
    )
    fh = full_homology(bb)
    assert fh == oracle


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_full_homology_central(spec):
    # full_homology raises InternalConsistencyError if centrality fails
    fh = full_homology(bb_for(spec))
    assert fh.dim >= 0


def test_beta_star_values():
    q = quad("matrix_hermitian:k=2,m=2")
    a = q.b_space.basis_vector("m:0,0") + q.b_space.basis_vector("m:1,1")  # in A
    c = q.b_space.basis_vector("c:0,0")
    assert beta_star(q, a, c).is_zero()
    xb = q.b_space.basis_vector("m:0,0")
    yb = q.b_space.basis_vector("m:0,1")
    # pure-a pair through the projections: beta* = [P_A x, P_A y] + [P_B x, P_B y]
    x = q.a_space.basis_vector("m:0,0")
    y = q.a_space.basis_vector("m:0,1")

    def fixed(v):  # projection onto the *-fixed points
        return (v + q.star.apply(v)).scale(Q(1, 2))

    def skew(v):  # projection onto the *-skew points
        return (v - q.star.apply(v)).scale(Q(1, 2))

    ax, bx = fixed(x), skew(x)
    ay, by = fixed(y), skew(y)
    expected = (
        a_mul(q, ax, ay) - a_mul(q, ay, ax) + a_mul(q, bx, by) - a_mul(q, by, bx)
    )
    assert beta_star(q, xb, yb) == expected


def test_beta_star_symplectic_pure_c():
    q = quad("symplectic:m=2")
    c0 = q.b_space.basis_vector("c:0")
    c1 = q.b_space.basis_vector("c:1")
    assert beta_star(q, c0, c1).is_zero()  # -heart = 0 in this preset


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_beta_star_vanishes_on_relation_generators(spec):
    q = quad(spec)
    gens = relation_generators(q)
    rows = beta_star_map_rows(q)
    for g in gens:
        for r, row in rows.items():
            val = sum(
                (row.get(lab, 0) * c for lab, c in g.entries.items()), Q(0)
            )
            assert val == 0, (spec, r)


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_uniform_k_zero_with_remark_cross_check(spec):
    bb = bb_for(spec)
    report = check_uniform(bb, [], fh=full_homology(bb), cross_check_ell=7)
    assert report["uniform"] is True
    assert report["cross_check"]["uniform"] is True


def test_uniform_k_fh_type_d():
    bb = bb_for("group_ring:m=3")
    fh = full_homology(bb)
    report = check_uniform(bb, list(fh.rows), fh=fh, cross_check_ell=7)
    assert report["uniform"] is True


def test_check_uniform_rejects_non_homology_span():
    bb = bb_for("matrix:k=2")
    fh = full_homology(bb)
    csp = bb.quotient.coset_space
    outside = None
    for lab in csp.labels:
        if not fh.contains(csp.basis_vector(lab)):
            outside = csp.basis_vector(lab)
            break
    assert outside is not None
    with pytest.raises(ValueError):
        check_uniform(bb, [outside], fh=fh)


def test_quadruple_json_roundtrip(tmp_path):
    q = quad("matrix_hermitian:k=2,m=2")
    data = quadruple_to_json(q)
    q2 = quadruple_from_json(data)
    assert validate_quadruple(q2)["valid"]
    assert q2.qtype == "BC" and q2.a_dim == 4 and q2.c_dim == 4
    # same f table after relabeling positions
    c0 = q2.c_space.basis_vector("c:0")
    c1 = q2.c_space.basis_vector("c:1")
    assert not f_val(q2, c0, c1).is_zero()
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(data))
    # the command line's loader reads the file and checks every law
    assert quadruple_to_json(load_quadruple(str(path))) == data


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_names_round_trip(name):
    # a preset's name enters every report: parsed back, it names the same
    # preset, at its defaults and at a size off them (+2 keeps m even)
    _, defaults = PRESETS[name]
    for sizes in ({}, {key: val + 2 for key, val in defaults.items()}):
        q = preset_quadruple(name, **sizes)
        assert parse_preset_spec(q.name).name == q.name
        assert q.name.startswith(f"{name}:") and all(f"{key}=" in q.name for key in defaults)


def test_group_ring_m1_is_scalar_type_d():
    q = preset_quadruple("group_ring", m=1)
    assert q.a_dim == 1
    assert validate_quadruple(q)["valid"]


@pytest.mark.parametrize(
    "spec",
    [
        "matrix:k=2",
        "clifford:d=2",
        "matrix_transpose:k=2",
        "symplectic:m=2",
        "group_ring:m=3",
    ],
)
def test_relation_space_does_not_depend_on_ell(spec):
    # one preset of each type A, B, C, BC, D: what BBQuotient.at_ell shares
    q = quad(spec)
    bb4, bb7 = BBQuotient(q, 4), BBQuotient(q, 7)
    assert bb4.tensor == bb7.tensor
    assert bb4.relations == bb7.relations
    assert bb4.quotient.coset_labels == bb7.quotient.coset_labels


@pytest.mark.parametrize(
    "spec", ["matrix_transpose:k=2", "matrix_hermitian:k=2,m=2", "matrix:k=2"]
)
def test_cross_check_uses_derivations_at_second_ell(spec, monkeypatch):
    q = quad(spec)
    bb = BBQuotient(q, 4)
    fh = full_homology(bb)
    seen = []
    real_full_homology = coord.full_homology

    def recording_full_homology(b):
        seen.append(b)
        return real_full_homology(b)

    monkeypatch.setattr(coord, "full_homology", recording_full_homology)
    report = check_uniform(bb, [], fh=fh, cross_check_ell=7)
    assert report["cross_check"]["ell"] == 7
    assert [b.ell for b in seen] == [7]
    bb7 = seen[0]
    assert bb7.relations is bb.relations
    differs = False
    for lab, d7 in bb7.derivations.items():
        x, y = (q.b_space.basis_vector(l) for l in lab)
        assert d7 == _explicit_derivation(q, 7, x, y).entries
        differs |= d7 != bb.derivations[lab]
    assert differs
