import functools
import hashlib
import inspect
import itertools
import json
import random

import pytest
from dictmat import lin
from oracles import beta_star, dense_associativity_faults

from fractions import Fraction as Q

import rootgraded.coord as coord
from rootgraded.cli import load_quadruple
from rootgraded.coord import (
    BBQuotient,
    CoordinateQuadruple,
    PRESETS,
    InternalConsistencyError,
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
    ShapeError,
    apply,
    columns,
    q_str,
    rref,
    scalar,
    tensor_space,
    vector_text,
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


def ev(lab):
    """The basis vector of a label, as its entry dict."""
    return {lab: 1}


def derivation(spec, ell, x, y):
    """d^ell_{x,y}: the derivation that {b,b}_ell forms for the tensor x (x) y."""
    bb = bb_for(spec, ell)
    return bb.derivation_of(bb.pair_tensor(x, y))


@functools.cache
def block(q, left, right):
    """The (left, right) block of b's product table, each of left and right
    "a" or "C": a's product is (a, a), the action (a, C) and f (C, C)."""
    spaces = {"a": q.a_space, "C": q.c_space}
    return {(x, y): v for (x, y), v in q.b_table.items() if x in spaces[left] and y in spaces[right]}


# a's product, the action and f, each read off its own block of b's product
# table, so the C part of an argument of a_mul, say, is not read; b_mul
# reads the whole table.  An element of a or of C is an element of b with
# the same entry dict
def a_mul(q, x, y):
    return lin((1, coord._bilinear(block(q, "a", "a"), x, y)))


def c_act(q, a, c):
    return lin((1, coord._bilinear(block(q, "a", "C"), a, c)))


def f_val(q, c, cp):
    return lin((1, coord._bilinear(block(q, "C", "C"), c, cp)))


def b_mul(q, x, y):
    return lin((1, coord._bilinear(q.b_table, x, y)))


def star(q, v):
    return apply(q.star, v)


def split_b(q, x):
    """x in b as its a part and its C part."""
    return tuple({l: v for l, v in x.items() if l in space} for space in (q.a_space, q.c_space))


def diamond_heart(q, c, cp):
    """diamond = antisymmetric part of f, heart = symmetric part."""
    f1, f2 = f_val(q, c, cp), f_val(q, cp, c)
    return lin((Q(1, 2), f1), (Q(-1, 2), f2)), lin((Q(1, 2), f1), (Q(1, 2), f2))


def scalar_quadruple(qtype):
    return CoordinateQuadruple(
        qtype,
        ["one"],
        {("one", "one"): {"one": Q(1)}},
        {"one": Q(1)},
        {("one", "one"): Q(1)},
        name=f"F-as-{qtype}",
    )


def test_star_is_read_on_a_only():
    # star is an entry dict over a x a: a label outside a is refused, and
    # an integral Fraction is stored as an int
    args = ("A", ["one"], {("one", "one"): {"one": 1}}, {"one": 1})
    with pytest.raises(ShapeError, match="not in space"):
        CoordinateQuadruple(*args, {("one", "c:0"): 1})
    with pytest.raises(ShapeError, match="not in space"):
        CoordinateQuadruple(*args, {("two", "one"): 1})
    q = CoordinateQuadruple(*args, {("one", "one"): Q(2, 2)})
    assert q.star == {("one", "one"): 1} and type(q.star["one", "one"]) is int


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_presets_validate(spec):
    report = validate_quadruple(quad(spec))
    assert report["valid"], report


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_quadruple_of_the_o_b_form_validates(n):
    # the form of o_B(n) pairs v:i with vb:i, so its Clifford algebra is not
    # the diagonal one of the preset
    nat = FormedSpace("B", n)
    q = clifford_quadruple(nat.space.labels, nat.gram, name="o_B")
    assert validate_quadruple(q)["valid"]
    v1, vb1 = ev("v:1"), ev("vb:1")
    assert a_mul(q, v1, vb1) == lin((2, q.unit))
    assert a_mul(q, v1, v1) == {}


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
    # u.w = w and every other product of u and w 0: the one fault,
    # (u.u).w = 0 but u.(u.w) = w, has xy = 0 and yz nonzero
    "associative-left-zero": (
        lambda: _broken("A", ["one", "u", "w"], {
            **{(l, "one"): {l: 1} for l in ("one", "u", "w")},
            **{("one", l): {l: 1} for l in ("u", "w")},
            ("u", "w"): {"w": 1},
        }, {"one": 1}, _ident(["one", "u", "w"])),
        {"a associative": ["(u.u).w != u.(u.w)"]},
    ),
    # w.u = w and every other product of u and w 0: the one fault,
    # (w.u).u = w but w.(u.u) = 0, has yz = 0 and xy nonzero
    "associative-right-zero": (
        lambda: _broken("A", ["one", "u", "w"], {
            **{(l, "one"): {l: 1} for l in ("one", "u", "w")},
            **{("one", l): {l: 1} for l in ("u", "w")},
            ("w", "u"): {"w": 1},
        }, {"one": 1}, _ident(["one", "u", "w"])),
        {"a associative": ["(w.u).u != w.(u.u)"]},
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
    e11, e12 = ev("m:0,0"), ev("m:0,1")
    assert b_mul(q, e11, e12) == e12
    assert b_mul(q, e12, e11) == {}


def test_b_mul_pure_module_inputs():
    q = quad("symplectic:m=2")
    c0, c1 = ev("c:0"), ev("c:1")
    # f((1,0),(0,1)) = 1, the unit of a = F
    assert b_mul(q, c0, c1) == ev("one")
    assert b_mul(q, c1, c0) == lin((-1, ev("one")))


def test_b_circ_brk():
    # the circle and bracket products of b, read through b_mul
    q = quad("matrix:k=2")
    e11, e12 = ev("m:0,0"), ev("m:0,1")
    assert b_mul(q, e11, e11) == e11
    xy, yx = b_mul(q, e11, e12), b_mul(q, e12, e11)
    assert yx == {}  # e12 e11 = 0 in M2
    assert lin((1, xy), (1, yx)) == e12  # e11 o e12 = e12
    assert lin((1, xy), (-1, yx)) == e12  # [e11, e12] = e12


def _halved(spec):
    """The preset read back from its JSON form with its second basis
    element of a, a:1, replaced by half of it, every table rewritten in the
    new basis: a product x y = sum v_o e_o of basis elements scaled by s_x,
    s_y has entries s_x s_y v_o / s_o, so b's product (and star, when it
    moves a:1) holds Fractions.  The laws do not depend on the basis, so
    the result still validates."""
    data = quadruple_to_json(quad(spec))
    s = [Q(1), Q(1, 2)] + [Q(1)] * (data["a_dim"] - 2)  # s[i] scales a:i; C is kept

    def rewrite(key, scale):
        data[key] = [[*row[:-1], q_str(scalar(scale(*row[:-1]) * Q(row[-1])))] for row in data[key]]

    rewrite("structure_constants", lambda i, j, k: s[i] * s[j] / s[k])
    rewrite("unit", lambda i: 1 / s[i])
    rewrite("star", lambda r, c: s[c] / s[r])
    rewrite("action", lambda i, j, k: s[i])
    rewrite("f", lambda i, j, k: 1 / s[k])
    q = quadruple_from_json(data)
    assert validate_quadruple(q)["valid"], spec
    return q


def _table_quadruple(source):
    """A preset; the Clifford quadruple of o_B(3)'s form; for "json:" and a
    preset, that preset read back from its JSON form; for "halved:" and a
    preset, ``_halved`` of it."""
    if source == "o_B(3)":
        nat = FormedSpace("B", 3)
        return clifford_quadruple(nat.space.labels, nat.gram, name=source)
    if source.startswith("json:"):
        return quadruple_from_json(quadruple_to_json(quad(source[5:])))
    if source.startswith("halved:"):
        return _halved(source[7:])
    return quad(source)


# quadruples whose structure constants are not all integers
_HALVED = ["halved:matrix:k=2", "halved:matrix_hermitian:k=2,m=2"]
_TABLE_SOURCES = (
    PRESET_SPECS + COORDINATE_PRESETS + ["o_B(3)", "json:matrix_hermitian:k=2,m=2"] + _HALVED
)


@pytest.mark.parametrize("source", _HALVED)
def test_halved_quadruples_hold_fractions(source):
    q = _table_quadruple(source)
    b_values = [v for row in q.b_table.values() for v in row.values()]
    assert any(type(v) is Q for v in b_values)
    assert q.denom == 8  # 2 m^2, m = 2 the common denominator of b's product
    assert any(type(v) is Q for v in q.star.values()) == (source != "halved:matrix:k=2")


def _built_from(source):
    """``_table_quadruple(source)`` built afresh (a preset is not read from
    the cache), and the arguments its constructor was given."""
    init, given = CoordinateQuadruple.__init__, []

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        given.append(inspect.signature(init).bind(self, *args, **kwargs).arguments)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoordinateQuadruple, "__init__", spy)
        fresh = source in PRESET_SPECS + COORDINATE_PRESETS
        q = parse_preset_spec(source) if fresh else _table_quadruple(source)
    return q, given[-1]


@pytest.mark.parametrize("source", _TABLE_SOURCES)
def test_b_table_is_the_structured_product(source):
    # e_x e_y for every pair of basis labels of b = a (+) C, against
    # (a1 + c1)(a2 + c2) = a1 a2 + f(c1, c2) + a1.c2 + a2*.c1 written out
    # block by block: a1 a2, f and a1.c2 from the tables the constructor
    # was given (a preset's, or a JSON file's rows), a2*.c1 from the
    # (a, C) block and the columns of star
    q, given = _built_from(source)
    a, c = q.a_space, q.c_space
    for x in q.b_space.labels:
        for y in q.b_space.labels:
            if x in a and y in a:
                table = given["mult"]
            elif x in c and y in c:
                table = given.get("f_table") or {}
            elif x in a:
                table = given.get("action") or {}
            else:
                # e_x e_y = e_y*.e_x, e_y* being column y of star
                star_y = {r: v for (r, l), v in q.star.items() if l == y}
                assert q.b_table.get((x, y), {}) == c_act(q, star_y, ev(x)), (x, y)
                continue
            expected = {l: v for l, v in table.get((x, y), {}).items() if v}
            assert q.b_table.get((x, y), {}) == expected, (x, y)


# sha256 of json.dumps(quadruple_to_json(q)) for each of _TABLE_SOURCES
_JSON_SHA256 = {
    "matrix:k=2": "5fff5076d4710d0021b3adea1432b1b4a3710c878645041c8ff5dc80292ea171",
    "group_ring:m=3": "4cdb94622986be00991ff2b79692d4c96d0fed6cee676f2bdfb28b66947c98f2",
    "clifford:d=2": "a02dd27b53e58f5223df0aac0139a53978ecd507eb67d5aecc47ac0a97b1298c",
    "matrix_transpose:k=2": "8604531653cdfa7e36018699231e124cfe46fa831fbb4bcefb3e948e5ce6f955",
    "symplectic:m=2": "a76460a867f6a8043d1a91fa13e224f0c852a7fd888b4c5756f1adb5b0f646f2",
    "matrix_hermitian:k=2,m=2": "5b9d9dd5fa41eec785fc9db78242e00fd9ad13bddadc2f0d563a527bbc6ab23c",
    "matrix:k=4": "8f88163d4342b396e62901d53057ac953711f0e22e233bf54fd006d936df1363",
    "matrix_transpose:k=4": "08fdd9822035264df8fd8ea99150b8a463fb38f6f2c08a74f5cddaad426d806b",
    "matrix_hermitian:k=3,m=4": "ef5598e8dfc773aab404fc23d4e06961ce5e8179e163572d69fe8352849b84f4",
    "matrix_hermitian:k=4,m=2": "67d819e46f0392cb48ebac67bf01309c5ecb674c6c9f5b0e3501d7a32d61c5dd",
    "clifford:d=6": "f9ad8194a243cfa9bc16c93e79e63e8831b1eed1cd220c435fa3449c202d152f",
    "group_ring:m=8": "605d41dfa1bb1ad1be25d7bdf3e8f4372c3f4bd2db5234820a75a62a2741c901",
    "symplectic:m=8": "c27aaa3b92278a15659691382cb0fbdf0e6e9640664013ef0883c1614d587410",
    "o_B(3)": "93c935329cea4bc1145fdeff8664c8156de35a18d777ce75fd5ccf73cfd7d0dd",
    "json:matrix_hermitian:k=2,m=2": "5b9d9dd5fa41eec785fc9db78242e00fd9ad13bddadc2f0d563a527bbc6ab23c",
    "halved:matrix:k=2": "313f8f59e6f613b40cafac7788fe9ed51a5556190fe50fa38655573c53603582",
    "halved:matrix_hermitian:k=2,m=2": "c6417cab7aff887b3ba2c2aefe24883e8606ba485d66d9c377ceba0a64370530",
}


@pytest.mark.parametrize("source", _TABLE_SOURCES)
def test_quadruple_json_bytes_are_pinned(source):
    text = json.dumps(quadruple_to_json(_table_quadruple(source)))
    assert hashlib.sha256(text.encode()).hexdigest() == _JSON_SHA256[source]


def _walked_faults(q):
    """The four associativity laws of ``dense_associativity_faults``, every
    failure of each, from ``coord._associator_faults`` on the triples
    ``validate_quadruple`` hands it."""
    t = q.b_table
    ea, ec = ({l: {l: 1} for l in labs} for labs in (q.a_space.labels, q.c_space.labels))
    rows = {p: dict(enumerate(s.rows)) for p, s in (("A", q.a_part_sub), ("B", q.b_part_sub))}

    def walk(fmt, *spaces):
        return [fmt.format(*key) for key in coord._associator_faults(t, *spaces)]

    return {
        "Clifford Jordan structure": [
            w
            for tag in ("AAA", "AAB", "ABB")
            for w in walk(f"associator nonzero on {tag} triple", *(rows[p] for p in tag))
        ],
        "a associative": walk("({0}.{1}).{2} != {0}.({1}.{2})", ea, ea, ea),
        "module associative ((xy).c = x.(y.c))": walk("({0}.{1}).{2}", ea, ea, ec),
        "f left semilinear (f(x.c, c') = x f(c, c'))": walk("f({0}.{1},{2})", ea, ec, ec),
    }


@pytest.mark.parametrize("case", _TABLE_SOURCES + [f"broken:{case}" for case in _BROKEN])
def test_associator_walk_finds_every_dense_fault(case):
    # every failure in order, not only the three a report keeps; and the
    # report's witnesses of each law it checks are the first three
    if case.startswith("broken:"):
        q = _BROKEN[case[7:]][0]()
    else:
        q = _table_quadruple(case)
    dense = dense_associativity_faults(q)
    assert _walked_faults(q) == dense
    for check in validate_quadruple(q)["checks"]:
        if check["law"] in dense:
            assert check["witnesses"] == dense[check["law"]][:3], check["law"]


@pytest.mark.parametrize("source", _TABLE_SOURCES)
def test_beta_star_rows_equal_beta_star_on_every_pair(source):
    # beta_star_map_rows(q)[r] at (x, y) is the r entry of beta*(e_x, e_y),
    # for every pair of basis labels of b
    q = _table_quadruple(source)
    rows = beta_star_map_rows(q)
    for x in q.b_space.labels:
        for y in q.b_space.labels:
            expected = beta_star(q, ev(x), ev(y))
            at_xy = {r: row[x, y] for r, row in rows.items() if (x, y) in row}
            assert at_xy == expected, (x, y)


@pytest.mark.parametrize("spec", ["symplectic:m=2", "matrix_hermitian:k=2,m=2"])
def test_diamond_heart_containment(spec):
    q = quad(spec)
    for lc in q.c_space.labels:
        for lcp in q.c_space.labels:
            c, cp = ev(lc), ev(lcp)
            dia, heart = diamond_heart(q, c, cp)
            assert star(q, dia) == dia  # lands in the fixed points
            assert star(q, heart) == lin((-1, heart))  # skew points
            dia2, heart2 = diamond_heart(q, cp, c)
            assert dia2 == lin((-1, dia))
            assert heart2 == heart
    c = ev(q.c_space.labels[0])
    dia, heart = diamond_heart(q, c, c)
    assert dia == {}
    assert heart == f_val(q, c, c)


def test_heart_vanishes_for_symplectic_preset():
    q = quad("symplectic:m=2")
    for lc in q.c_space.labels:
        for lcp in q.c_space.labels:
            _, heart = diamond_heart(q, ev(lc), ev(lcp))
            assert heart == {}


def test_derivation_type_d_is_zero():
    spec = "group_ring:m=3"
    q = quad(spec)
    for l1 in q.b_space.labels:
        for l2 in q.b_space.labels:
            assert derivation(spec, 4, ev(l1), ev(l2)) == {}


def test_derivation_type_a_example():
    # d_{e11,e12}(e21) = (1/6)[[e11,e12],e21] = (1/6)(e11 - e22) at ell = 5
    q = quad("matrix:k=2")
    x, y = ev("m:0,0"), ev("m:0,1")
    d = derivation("matrix:k=2", 5, x, y)
    out = apply(d, ev("m:1,0"))
    expected = lin((Q(1, 6), ev("m:0,0")), (Q(-1, 6), ev("m:1,1")))
    assert out == expected


@pytest.mark.parametrize("spec", ["matrix:k=2", "matrix_transpose:k=2", "symplectic:m=2"])
def test_derivation_vanishes_on_equal_a_inputs(spec):
    q = quad(spec)
    for lab in q.a_space.labels:
        v = ev(lab)
        assert derivation(spec, 4, v, v) == {}


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_derivation_is_a_derivation_of_b(spec):
    q = quad(spec)
    labs = q.b_space.labels
    pairs = [(l1, l2) for l1 in labs for l2 in labs]
    for l1, l2 in pairs:
        d = derivation(spec, 4, ev(l1), ev(l2))
        if not d:
            continue
        for x_lab in labs:
            for y_lab in labs:
                x, y = ev(x_lab), ev(y_lab)
                lhs = apply(d, b_mul(q, x, y))
                dx, dy = apply(d, x), apply(d, y)
                rhs = lin((1, b_mul(q, dx, y)), (1, b_mul(q, x, dy)))
                assert lhs == rhs, (spec, l1, l2, x_lab, y_lab)


@pytest.mark.parametrize("spec", ["matrix:k=2", "clifford:d=2", "symplectic:m=2"])
def test_fact_check_finds_the_first_pair_the_derivation_law_fails_at(spec):
    # the build's one walk over the entries of d against the law checked
    # pair by pair, as above, on each coset derivation with up to 3 seeded
    # random entries added inside a or inside C, which keeps fact (i).  On
    # these presets star is diagonal, so an entry at (r, c) whose labels
    # star fixes up to the same sign keeps fact (ii)
    q = quad(spec)
    check = coord._fact_check(q)
    labs = q.b_space.labels
    blocks = [[l for l in labs if l in space] for space in (q.a_space, q.c_space)]
    rng = random.Random(11)
    failing = 0
    for d in bb_for(spec).derivations.values():
        for extra in range(4):
            e = dict(d)
            for _ in range(extra):
                block = rng.choice([b for b in blocks if b])
                r, c = rng.choice(block), rng.choice(block)
                if q.star.get((r, r)) == q.star.get((c, c)):
                    e = lin((1, e), (rng.choice([1, -2]), {(r, c): 1}))
            reference = [
                (x, y)
                for x in labs
                for y in labs
                if apply(e, b_mul(q, ev(x), ev(y)))
                != lin((1, b_mul(q, apply(e, ev(x)), ev(y))), (1, b_mul(q, ev(x), apply(e, ev(y)))))
            ]
            expected = ("(iii)", "d(xy) = d(x)y + x d(y)", reference[0]) if reference else None
            assert check(e) == expected, (e, reference[:3])
            failing += bool(reference)
    assert failing


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
        for r, v in vec.items():
            cols[r, lab] = cols.get((r, lab), 0) + v

    def add_ad(z, scale):
        for lab in q.a_space.labels:
            e = ev(lab)
            add_col(lab, lin((scale, a_mul(q, z, e)), (-scale, a_mul(q, e, z))))
        for lab in q.c_space.labels:
            add_col(lab, lin((scale, c_act(q, z, ev(lab)))))

    def comm(u, v):
        return lin((1, a_mul(q, u, v)), (-1, a_mul(q, v, u)))

    if q.qtype == "A":
        add_ad(comm(a1, a2), Q(1, ell + 1))
    elif q.qtype == "B":
        for lab in q.a_space.labels:
            e = ev(lab)
            add_col(lab, lin((1, a_mul(q, a2, a_mul(q, a1, e))), (-1, a_mul(q, a1, a_mul(q, a2, e)))))
    elif q.qtype in ("C", "BC"):
        add_ad(lin((1, comm(a1, a2)), (1, comm(star(q, a1), star(q, a2)))), Q(1, 4 * ell))
    if q.qtype == "BC":
        heart = lin((Q(1, 2), f_val(q, c1, c2)), (Q(1, 2), f_val(q, c2, c1)))
        add_ad(heart, Q(-1, 2 * ell))
        for lab in q.c_space.labels:
            c = ev(lab)
            f_terms = lin((1, c_act(q, f_val(q, c, c2), c1)), (1, c_act(q, f_val(q, c, c1), c2)))
            add_col(lab, lin((Q(-1, 2), f_terms)))
    return lin((1, cols))


@pytest.mark.parametrize("spec", PRESET_SPECS + ["matrix_hermitian:k=2,m=4"])
def test_derivation_matches_the_explicit_formula(spec):
    # the quotient's derivation reads kappa from inner_scale and beta* from
    # beta_rows; the oracle writes each family's constants out
    q = quad(spec)
    labs = q.b_space.labels
    for ell in (1, 4, 7):
        for l1 in labs:
            for l2 in labs:
                x, y = ev(l1), ev(l2)
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
        lin((1, {lab: rng.randint(-3, 3) for lab in rng.sample(labels, 6)})) for _ in range(4)
    ]
    live = False
    for t in [*bb.relations.rows, *randoms]:
        d_sum, z_sum = {}, {}
        for lab, coeff in t.items():
            x, y = (ev(l) for l in lab)
            d = _explicit_derivation(q, bb.ell, x, y)
            assert bb.derivation_of({lab: 1}) == d, lab
            d_sum = lin((1, d_sum), (coeff, d))
            z_sum = lin((1, z_sum), (kappa * coeff, beta_star(q, x, y)))
        assert bb.derivation_of(t) == d_sum, t
        assert bb.inner_of(t) == z_sum, t
        live = live or d_sum != {}
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
        assert d == _explicit_derivation(q, bb.ell, *(ev(l) for l in f))
    for lab in bb.tensor.labels:
        e = ev(lab)
        combination = lin(
            *((c, bb.derivations[f]) for f, c in bb.quotient.relations.reduce(e).items())
        )
        assert bb.derivation_of(e) == combination, lab


def _fraction_derivation(bb, t):
    """d_t summed in Fractions: sum_r z_r ad(e_r) over z = kappa beta*(t),
    in beta_rows order, then t_lab times each label's label_part."""
    q = bb.q
    terms = [(z, q.ad_basis().get(r, {})) for r, z in bb.inner_of(t).items()]
    return lin(*terms, *((c, q.label_part(lab)) for lab, c in t.items()))


@pytest.mark.parametrize("source", PRESET_SPECS + COORDINATE_PRESETS + _HALVED)
def test_derivation_in_ints_agrees_with_the_fraction_sum(source):
    # derivation_of sums in ints at a common denominator.  On every relation
    # row it agrees with the sum in Fractions: both are 0, which is what the
    # build checks; and a row the check passes over, with beta* and every
    # label part 0, has derivation 0.  On each coset label (the stored
    # derivations) the two agree in values, types and key order, and on
    # seeded random tensors in values and types
    bb = build_bb(_table_quadruple(source), 4)
    q = bb.q
    for g in bb.relations.rows:
        assert bb.derivation_of(g) == {} == _fraction_derivation(bb, g), g
    rng = random.Random(11)
    labels = bb.tensor.labels
    randoms = [
        {lab: Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2, 3])) for lab in rng.sample(labels, 5)}
        for _ in range(6)
    ]
    live = False
    for t in [*({f: 1} for f in bb.quotient.coset_labels), *randoms]:
        d, expected = bb.derivation_of(t), _fraction_derivation(bb, t)
        typed = sorted((repr(k), v, type(v)) for k, v in d.items())
        assert typed == sorted((repr(k), v, type(v)) for k, v in expected.items()), t
        if len(t) == 1:
            assert list(d) == list(expected) == list(bb.derivations[next(iter(t))])
        live = live or d != {}
    assert live == (q.qtype != "D")


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
            for lx, vx in x.items():
                for ly, vy in y.items():
                    entries[lx, ly] = entries.get((lx, ly), 0) + vx * vy
        return lin((1, entries))

    avecs = [ev(l) for l in q.a_space.labels]
    cvecs = [ev(l) for l in q.c_space.labels]
    gens = [tens(p) for al in avecs for c in cvecs for p in ((al, c), (c, al))]
    gens += [tens((a, b)) for a in q.a_part_sub.rows for b in q.b_part_sub.rows]
    gens += [tens((x, y), (y, x)) for x in avecs for y in avecs]
    gens += [
        tens((c, cp), (lin((-1, cp)), c)) for i, c in enumerate(cvecs) for cp in cvecs[i + 1 :]
    ]
    prod = [[a_mul(q, x, y) for y in avecs] for x in avecs]
    n = len(avecs)
    gens += [
        tens((prod[i][j], avecs[k]), (prod[k][i], avecs[j]), (prod[j][k], avecs[i]))
        for i in range(n) for j in range(n) for k in range(n)
    ]
    act = [[c_act(q, x, c) for c in cvecs] for x in avecs]
    star_act = [[c_act(q, star(q, x), c) for c in cvecs] for x in avecs]
    for i, c in enumerate(cvecs):
        for j, cp in enumerate(cvecs):
            f_ccp = f_val(q, c, cp)
            for k, al in enumerate(avecs):
                gens.append(tens((f_ccp, al), (star_act[k][j], c), (lin((-1, act[k][i])), cp)))
    return gens


@pytest.mark.parametrize("source", PRESET_SPECS + ["symplectic:m=4"] + _HALVED)
def test_relation_generators_are_nonzero_and_distinct(source):
    # no generator is zero or a repeat, and the list is the unpruned one
    # with its zeros and repeats dropped, the first copy kept: so the
    # relation rref is the same row for row, each row in the same order
    q = _table_quadruple(source)
    gens = relation_generators(q)
    assert gens and all(gens) and 0 not in (v for g in gens for v in g.values())
    keys = [tuple(g.items()) for g in gens]
    assert len(set(map(frozenset, keys))) == len(gens)
    first = {}
    for g in _unpruned_relation_generators(q):
        if g:
            first.setdefault(frozenset(g.items()), tuple(g.items()))
    assert keys == list(first.values())


def test_relation_generators_include_ab_family():
    q = quad("matrix_transpose:k=2")
    gens = relation_generators(q)
    tsp = tensor_space(q.b_space, q.b_space)
    span = rref(gens, tsp)
    apart = q.a_part_sub.rows[0]
    bpart = q.b_part_sub.rows[0]
    entries = {}
    for l1, v1 in apart.items():
        for l2, v2 in bpart.items():
            entries[l1, l2] = v1 * v2
    assert span.contains(entries)


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_bb_bracket_is_lie(spec):
    bb = bb_for(spec)
    csp = bb.quotient.coset_space
    basis = [ev(l) for l in csp.labels]
    table = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            table[(i, j)] = bb.bracket_cosets(u, v)
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert table[(i, j)] == lin((-1, table[(j, i)]))
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            for k, w in enumerate(basis):
                lhs = bb.bracket_cosets(u, table[(j, k)])
                rhs = lin(
                    (1, bb.bracket_cosets(table[(i, j)], w)),
                    (1, bb.bracket_cosets(v, table[(i, k)])),
                )
                assert lhs == rhs, (spec, i, j, k)


def test_bb_type_d_abelian():
    bb = bb_for("group_ring:m=3")
    csp = bb.quotient.coset_space
    for l1 in csp.labels:
        for l2 in csp.labels:
            assert bb.bracket_cosets(ev(l1), ev(l2)) == {}


def test_bb_antisymmetry_of_cosets_in_a():
    bb = bb_for("matrix:k=2")
    q = bb.q
    for l1 in q.a_space.labels:
        for l2 in q.a_space.labels:
            x, y = ev(l1), ev(l2)
            u = bb.relations.reduce(bb.pair_tensor(x, y))
            v = bb.relations.reduce(bb.pair_tensor(y, x))
            assert u == lin((-1, v))


def _assert_first_relation_row_fails(q, witness):
    with pytest.raises(InternalConsistencyError) as exc:
        build_bb(q, 4)
    assert str(exc.value) == "total derivation of a relation vector is nonzero"
    assert exc.value.witness == witness


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
        ("matrix_hermitian:k=2,m=2", ("m:0,0⊗m:1,0", "1*m:0,0⊗m:0,0")),
        ("symplectic:m=4", ("c:1⊗c:0", "1*one⊗c:1")),
    ],
)
def test_well_defined_check_catches_a_relation_space_not_kept(spec, witness, monkeypatch):
    # a smaller K that the derivations still kill but no longer keep.  The
    # three facts on each coset derivation do not read K, so the build
    # passes it: the lemma that they make d keep K needs K spanned by all
    # seven families.  The bracket is then no Lie bracket, and the
    # centrality check of FH fails it; the witness is the coset label of
    # the derivation and the FH vector it moves
    q = quad(spec)
    monkeypatch.setattr(coord, "relation_generators", _fewer_relations(coord.relation_generators))
    bb = build_bb(q, 4)
    with pytest.raises(InternalConsistencyError) as exc:
        full_homology(bb)
    assert str(exc.value) == "homology element is not central"
    # the label prints quoted, the vector as it reads
    assert exc.value.witness == "({!r}, {})".format(*witness)


def _exterior(d):
    """exterior:d=D (type C): the exterior algebra of F^D, basis the subsets
    of {1..D}, with x_i -> -x_i extended as an antiautomorphism, so a
    monomial of degree r has the sign (-1)^r (-1)^(r(r-1)/2)."""
    subsets = [s for r in range(d + 1) for s in itertools.combinations(range(1, d + 1), r)]
    name = {s: "x" + "".join(map(str, s)) for s in subsets}
    mult = {}
    for s in subsets:
        for t in subsets:
            if not set(s) & set(t):
                sign = (-1) ** sum(i > j for i in s for j in t)
                mult[name[s], name[t]] = {name[tuple(sorted(s + t))]: sign}
    star = {(name[s], name[s]): (-1) ** (len(s) + len(s) * (len(s) - 1) // 2) for s in subsets}
    return CoordinateQuadruple(
        "C", list(name.values()), mult, {"x": 1}, star, name=f"exterior:d={d}"
    )


def _dual(m, qtype):
    """dual:m=M (type A or D): F[x_1..x_M]/(x)^2, basis 1, x_1..x_M, with
    the identity as involution."""
    labels = ["1"] + [f"x{i}" for i in range(1, m + 1)]
    mult = {("1", l): {l: 1} for l in labels} | {(l, "1"): {l: 1} for l in labels}
    star = {(l, l): 1 for l in labels}
    return CoordinateQuadruple(qtype, labels, mult, {"1": 1}, star, name=f"dual:m={m}")


def _hand_made(source):
    from test_graded import _dual_clifford_quadruple, nilpotent_pair_quadruple

    made = {
        "exterior:d=2": lambda: _exterior(2),
        "exterior:d=3": lambda: _exterior(3),
        "dual:m=2 (A)": lambda: _dual(2, "A"),
        "dual:m=3 (A)": lambda: _dual(3, "A"),
        "dual:m=2 (D)": lambda: _dual(2, "D"),
        "dual:m=3 (D)": lambda: _dual(3, "D"),
        "dual_clifford": _dual_clifford_quadruple,
        "nilpotent_pair": nilpotent_pair_quadruple,
    }
    if source not in made:
        return quad(source)
    q = made[source]()
    assert validate_quadruple(q)["valid"], source
    return q


@pytest.mark.parametrize(
    "source",
    PRESET_SPECS
    + ["symplectic:m=4", "exterior:d=2", "exterior:d=3", "dual:m=2 (A)", "dual:m=3 (A)"]
    + ["dual:m=2 (D)", "dual:m=3 (D)", "dual_clifford", "nilpotent_pair"],
)
def test_coset_derivations_keep_the_relation_space(source):
    # the conclusion of the lemma the build checks three facts for: every
    # coset derivation d keeps K, so the image of every relation row under
    # d (x) 1 + 1 (x) d, formed here entry by entry, reduces to 0 modulo K.
    # Where some d is nonzero, some image is nonzero too; on the quadruples
    # with FH = {b,b}_ell every coset derivation is 0
    bb = build_bb(_hand_made(source), 4)
    moved = False
    for f, d in bb.derivations.items():
        cols = columns(d)
        for g in bb.relations.rows:
            image = {}
            for (u, v), w in g.items():
                for z, x in cols.get(u, {}).items():
                    image = lin((1, image), (w * x, {(z, v): 1}))
                for z, x in cols.get(v, {}).items():
                    image = lin((1, image), (w * x, {(u, z): 1}))
            assert bb.relations.contains(image), (f, g)
            moved = moved or image != {}
    assert moved == any(bb.derivations.values())


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
    ident = {(lab, lab): 1 for lab in bb.q.b_space.labels}
    monkeypatch.setattr(bb, "derivations", {lab: ident for lab in bb.derivations})
    with pytest.raises(InternalConsistencyError) as exc:
        full_homology(bb)
    assert str(exc.value) == "homology element is not central"
    assert exc.value.witness == "('m:1,0⊗m:0,1', 1*m:1,0⊗m:0,1 + -1*m:1,1⊗m:1,0)"


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
        # the coset label x (x) y is its own tensor; its commutator [x, y]
        x, y = (ev(l) for l in lab)
        for r, v in lin((1, a_mul(q, x, y)), (-1, a_mul(q, y, x))).items():
            rows_by_a.setdefault(r, {})[lab] = v
    from rootgraded.exactla import kernel_of_rows

    oracle = kernel_of_rows(list(rows_by_a.values()), csp)
    fh = full_homology(bb)
    assert fh == oracle


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_full_homology_central(spec):
    # full_homology raises InternalConsistencyError if centrality fails
    fh = full_homology(bb_for(spec))
    assert fh.dim >= 0


def test_beta_star_values():
    q = quad("matrix_hermitian:k=2,m=2")
    a = lin((1, ev("m:0,0")), (1, ev("m:1,1")))  # in A
    c = ev("c:0,0")
    assert beta_star(q, a, c) == {}
    # pure-a pair through the projections: beta* = [P_A x, P_A y] + [P_B x, P_B y]
    x, y = ev("m:0,0"), ev("m:0,1")

    def fixed(v):  # projection onto the *-fixed points
        return lin((Q(1, 2), v), (Q(1, 2), star(q, v)))

    def skew(v):  # projection onto the *-skew points
        return lin((Q(1, 2), v), (Q(-1, 2), star(q, v)))

    ax, bx = fixed(x), skew(x)
    ay, by = fixed(y), skew(y)
    expected = lin(
        (1, a_mul(q, ax, ay)), (-1, a_mul(q, ay, ax)), (1, a_mul(q, bx, by)), (-1, a_mul(q, by, bx))
    )
    assert beta_star(q, x, y) == expected


def test_beta_star_symplectic_pure_c():
    q = quad("symplectic:m=2")
    assert beta_star(q, ev("c:0"), ev("c:1")) == {}  # -heart = 0 in this preset


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_beta_star_vanishes_on_relation_generators(spec):
    q = quad(spec)
    gens = relation_generators(q)
    rows = beta_star_map_rows(q)
    for g in gens:
        for r, row in rows.items():
            val = sum(
                (row.get(lab, 0) * c for lab, c in g.items()), Q(0)
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
        if not fh.contains(ev(lab)):
            outside = ev(lab)
            break
    assert outside is not None
    with pytest.raises(ValueError):
        check_uniform(bb, [outside], fh=fh)


def test_check_uniform_reads_an_explicit_zero_as_no_entry():
    # {f: 0} is the zero vector, which lies in FH: K is 0, as for K = []
    bb = bb_for("matrix:k=2")
    fh = full_homology(bb)
    zero = {bb.quotient.coset_labels[0]: 0}
    assert check_uniform(bb, [zero], fh=fh) == check_uniform(bb, [], fh=fh)


def _row_dots(bb, t):
    """{r: the dot of t with beta_rows[r]} in row order, zeros left out:
    beta*(t), one row at a time."""
    dots = {}
    for r, row in bb.beta_rows.items():
        dot = sum((row[lab] * c for lab, c in t.items() if lab in row), 0)
        if dot:
            dots[r] = dot
    return dots


@pytest.mark.parametrize(
    "source",
    COORDINATE_PRESETS
    + ["exterior:d=2", "exterior:d=3", "dual:m=2 (A)", "dual:m=3 (A)", "dual:m=2 (D)", "dual:m=3 (D)"],
)
def test_beta_walk_equals_the_row_wise_dot(source):
    # inner_of and the uniform verdict walk beta_cols from t's entries, in
    # ints at beta_denom; on every coset label and every relation row they
    # agree with the dot of t with each row, values, types and key order
    bb = build_bb(_hand_made(source), 4)
    for t in [*({f: 1} for f in bb.quotient.coset_labels), *bb.relations.rows]:
        dots = _row_dots(bb, t)
        walk = {r: v for r, v in bb.beta_walk(t).items() if v}
        assert walk == {r: bb.beta_denom * v for r, v in dots.items()}, t
        z = bb.inner_of(t)
        expected = {r: scalar(bb.kappa * v) for r, v in dots.items() if bb.kappa}
        assert [(r, v, type(v)) for r, v in z.items()] == [
            (r, v, type(v)) for r, v in expected.items()
        ], t
    assert all(type(w) is int for col in bb.beta_cols.values() for w in col.values())
    # the build enforces the uniform verdict on K = 0: beta* is 0 on K
    assert bb.beta_witness is None
    bb7 = bb.at_ell(7)
    assert bb7.beta_cols is bb.beta_cols and bb7.beta_denom == bb.beta_denom
    assert bb7.beta_witness is bb.beta_witness


def _with_unit_beta_rows(real):
    """beta_star_map_rows with the unit added on every basis pair, so beta*
    is nonzero on x (x) x + x (x) x in K and on every tensor label."""

    def rows_with_unit(q):
        rows = real(q)
        for r, u in q.unit.items():
            row = rows.get(r, {})
            shifted = {lab: row.get(lab, 0) + u for lab in q.bb_space.labels}
            rows[r] = {lab: v for lab, v in shifted.items() if v}
        return rows

    return rows_with_unit


def test_uniform_witness_is_a_relation_row_before_k_span(monkeypatch):
    # a relation row with nonzero beta* and k_span vectors that fail too:
    # the relation row is the witness, found once by the build and shared
    # by at_ell; without it, the first failing k_span vector is
    monkeypatch.setattr(coord, "beta_star_map_rows", _with_unit_beta_rows(beta_star_map_rows))
    bb = build_bb(parse_preset_spec("matrix:k=2"), 5)
    k_span = [{f: 1} for f in bb.quotient.coset_labels]
    assert all(_row_dots(bb, t) for t in k_span)
    first = next(g for g in bb.relations.rows if _row_dots(bb, g))
    assert bb.beta_witness is first
    bb7 = bb.at_ell(7)
    assert bb7.beta_witness is first and bb7.beta_cols is bb.beta_cols
    for b in (bb, bb7):
        assert coord._uniform_verdict(b, k_span) == (False, "1*m:0,0⊗m:0,0")
    monkeypatch.undo()
    bb = build_bb(parse_preset_spec("matrix:k=2"), 5)
    assert bb.beta_witness is None
    g = bb.relations.rows[0]
    for span in ([g, *k_span], [g, *k_span[::-1]]):
        assert coord._uniform_verdict(bb, span) == (False, vector_text(bb.tensor, span[1]))
    assert coord._uniform_verdict(bb, [g]) == (True, None)


def test_quadruple_json_roundtrip(tmp_path):
    q = quad("matrix_hermitian:k=2,m=2")
    data = quadruple_to_json(q)
    q2 = quadruple_from_json(data)
    assert validate_quadruple(q2)["valid"]
    assert q2.qtype == "BC" and q2.a_dim == 4 and q2.c_dim == 4
    # same f table after relabeling positions
    assert f_val(q2, ev("c:0"), ev("c:1")) != {}
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
        x, y = (ev(l) for l in lab)
        assert d7 == _explicit_derivation(q, 7, x, y)
        differs |= d7 != bb.derivations[lab]
    assert differs
