import math
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest
from dictmat import commutator, lin, product, trace, transpose, unit
from oracles import derivation_span_equals_oB, expected_dimension

from rootgraded import graded
from rootgraded.coord import build_bb, parse_preset_spec
from rootgraded.exactla import (
    BasedSpace,
    ShapeError,
    add_scaled,
    apply,
    kernel_of_rows,
    rref,
    scalar,
)
from rootgraded.liealg import (
    DegenerateInputError,
    FormedSpace,
    WeightedBasis,
    build_algebra,
    build_module,
    d_uw,
    label_weight,
    truncation_idempotent,
    v_ops,
)
from rootgraded.rootsys import Root, generate

ALGEBRAS = {}


def neg(v):
    return {lab: -c for lab, c in v.items()}


def alg(family, n):
    key = (family, n)
    if key not in ALGEBRAS:
        ALGEBRAS[key] = build_algebra(family, n)
    return ALGEBRAS[key]


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_dimensions(family, n):
    assert alg(family, n).dim == expected_dimension(family, n)


@pytest.mark.parametrize("which", ["A", "B", "C", "D", "S"])
def test_weighted_basis_coordinates(which):
    # the reader must refuse a matrix outside the span; correct bracket
    # tables never leave it, so the digest tests cannot show this
    g = alg("C" if which == "S" else which, 3)
    wb = build_module(g) if which == "S" else g.wb
    for k, mat in enumerate(wb.basis_mats):
        assert wb.coords(mat) == {k: Q(1)}
    rng = random.Random(6)
    coeffs = {k: Q(rng.randint(-3, 3)) for k in range(wb.dim)}
    combo = lin(*((c, wb.basis_mats[k]) for k, c in coeffs.items()))
    assert wb.coords(combo) == {k: c for k, c in coeffs.items() if c}
    if which == "A":
        outside = {(lab, lab): 1 for lab in g.space.labels}
    elif which == "S":
        outside = g.wb.basis_mats[0]
    else:
        outside = unit("v:1", "v:1")
    with pytest.raises(ShapeError):
        wb.coords(outside)


def test_entry_dict_read_refuses_an_off_span_dict():
    # the build reads each product's entry dict through the rref of G; a
    # dict outside G must raise, the membership check the build relies on
    g = alg("C", 3)
    with pytest.raises(ShapeError):
        g.wb.coords({("v:1", "v:1"): 1})
    with pytest.raises(ShapeError):
        g.wb.coords({("v:9", "v:9"): 1})
    h = {("v:1", "v:1"): 1, ("vb:1", "vb:1"): -1}
    ((k, _),) = g.wb.coords(h).items()
    assert k < g.wb.zero_block


def test_weighted_basis_rejects_a_row_mixing_weights():
    # e_{v:1,v:2} + e_{v:2,v:1} has the weights e1-e2 and e2-e1, so its span
    # is not graded by the Cartan weights
    g = alg("A", 3)
    mixed = lin((1, unit("v:1", "v:2")), (1, unit("v:2", "v:1")))
    with pytest.raises(ShapeError):
        WeightedBasis(rref([mixed], g.glsp))
    # a weight basis in another order gives back the same basis, in order
    again = WeightedBasis(rref(g.wb.full.rows[::-1], g.glsp))
    assert again.basis_mats == g.wb.basis_mats
    assert again.weight_of_basis == g.wb.weight_of_basis


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        build_algebra("A", 1)
    assert build_algebra("B", 1).dim == 3


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_defining_conditions_on_basis(family):
    a = alg(family, 3)
    gram = a.nat.gram
    for m in a.wb.basis_mats:
        if family == "A":
            assert trace(m) == 0
        else:
            assert lin((1, product(transpose(m), gram)), (1, product(gram, m))) == {}


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_closure_under_commutator(family):
    a = alg(family, 2)
    for i, x in enumerate(a.wb.basis_mats):
        for y in a.wb.basis_mats[i:]:
            assert a.wb.full.contains(commutator(x, y))


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
@pytest.mark.parametrize("n", [2, 3])
def test_root_space_eigenvalue_equation(family, n):
    a = alg(family, n)
    for alpha, positions in a.wb.root_space_index.items():
        assert len(positions) == 1
        x = a.wb.basis_mats[positions[0]]
        for i, h in enumerate(a.cartan):
            if family == "A":
                val = Q(alpha.coords.get(i + 1, 0) - alpha.coords.get(i + 2, 0))
            else:
                val = Q(alpha.coords.get(i + 1, 0))
            assert commutator(h, x) == lin((val, x))


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_root_sets_match_generated_systems(family):
    a = alg(family, 3)
    assert set(a.wb.root_space_index) == set(generate(family, 3).nonzero())


def test_classical_root_space_formulas():
    # sl: G_{e1-e2} = F e_{1,2}
    a3 = alg("A", 3)
    assert a3.root_vector(Root.eps(1) - Root.eps(2)) == unit("v:1", "v:2")
    # sp: G_{2e1} = F e_{1,1bar};  G_{e1+e2} = F(e_{1,2bar} + e_{2,1bar})
    c2 = alg("C", 2)
    assert c2.root_vector(Root.eps(1, 2)) == unit("v:1", "vb:1")
    x = c2.root_vector(Root.eps(1) + Root.eps(2))
    expected = lin((1, unit("v:1", "vb:2")), (1, unit("v:2", "vb:1")))
    assert x in (expected, lin((-1, expected)))
    # o_B: G_{e1} = F(e_{1,0} - e_{0,1bar}); dim o_B(2) = 10
    b2 = alg("B", 2)
    x = b2.root_vector(Root.eps(1))
    expected = lin((1, unit("v:1", "v:0")), (-1, unit("v:0", "vb:1")))
    assert x in (expected, lin((-1, expected)))
    assert b2.dim == 10
    # o_B, e_i+e_j space: derived from the eigenvalue equation, which
    # gives e_{i,jbar} - e_{j,ibar}, the same pattern as type D.
    x = b2.root_vector(Root.eps(1) + Root.eps(2))
    expected = lin((1, unit("v:1", "vb:2")), (-1, unit("v:2", "vb:1")))
    assert x in (expected, lin((-1, expected)))
    # o_D: G_{e1-e2} = F(e_{1,2} - e_{2bar,1bar})
    d2 = alg("D", 2)
    x = d2.root_vector(Root.eps(1) - Root.eps(2))
    expected = lin((1, unit("v:1", "v:2")), (-1, unit("vb:2", "vb:1")))
    assert x in (expected, lin((-1, expected)))


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_truncation_embedding(family):
    small = alg(family, 2)
    big = alg(family, 3)
    # gl coordinates are labelled by the (row, col) pairs of matrix entries
    for v in small.wb.full.rows:
        assert big.wb.full.contains(v)
    for alpha in small.wb.root_space_index:
        assert alpha in big.wb.root_space_index


def test_natural_module_weights():
    # the natural module's weights are those of its labels
    labels = alg("C", 3).space.labels
    weights = [label_weight(l) for l in labels]
    assert set(weights) == {Root.eps(i, s) for i in (1, 2, 3) for s in (1, -1)}
    assert [l for l, w in zip(labels, weights) if w == Root.eps(2)] == ["v:2"]
    b2 = alg("B", 2).space.labels
    assert [l for l in b2 if label_weight(l).is_zero()] == ["v:0"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_module_dimension(n):
    assert build_module(alg("C", n)).dim == 2 * n * n - n - 1


def _s_weights(wb, mat):
    """The weights of the S basis vectors that a matrix of S has
    coordinates on; raises ShapeError if it lies outside S."""
    return {wb.weight_of_basis[k] for k in wb.coords(mat)}


def test_symmetric_module_weight_vectors():
    # Prop 2.20(b)(i) spanning vectors as cross-checks of the kernel build.
    a = alg("C", 2)
    wb = build_module(a)
    plus = lin((1, unit("v:1", "vb:2")), (-1, unit("v:2", "vb:1")))
    assert _s_weights(wb, plus) == {Root.eps(1) + Root.eps(2)}
    mixed = lin((1, unit("v:1", "v:2")), (1, unit("vb:2", "vb:1")))
    assert _s_weights(wb, mixed) == {Root.eps(1) - Root.eps(2)}
    assert wb.zero_block == 1  # n - 1
    half = Q(1, 2)
    h_like = {("v:1", "v:1"): half, ("vb:1", "vb:1"): half, ("v:2", "v:2"): -half, ("vb:2", "vb:2"): -half}
    assert _s_weights(wb, h_like) == {Root.zero()}


def test_kind_s_requires_family_c():
    with pytest.raises(ValueError):
        build_module(alg("B", 2))


def s_action(wb, x):
    """The matrix of x acting on S by commutators, read in S's basis."""
    cols = {}
    for k, s in enumerate(wb.basis_mats):
        for r, c in wb.coords(commutator(x, s)).items():
            cols[(r, k)] = c
    return cols


@pytest.mark.parametrize(
    "family,kind,n", [("C", "V", 2), ("C", "S", 2), ("B", "V", 2)]
)
def test_module_axiom_on_basis_triples(family, kind, n):
    a = alg(family, n)
    mats = a.wb.basis_mats
    if kind == "V":
        sp, act = a.space, lambda x: x
    else:
        wb = build_module(a)
        sp = BasedSpace(range(wb.dim))
        act = lambda x: s_action(wb, x)
    vecs = [{l: 1} for l in sp.labels]
    for x in mats:
        for y in mats:
            act_xy = act(commutator(x, y))
            act_x, act_y = act(x), act(y)
            for v in vecs:
                lhs = apply(act_xy, v)
                rhs = apply(act_x, apply(act_y, v))
                add_scaled(rhs, apply(act_y, apply(act_x, v)), -1)
                assert lhs == rhs


class DecompositionError(ValueError):
    pass


def weight_decompose(space, cartan_actions) -> dict:
    """Weight oracle: the simultaneous eigenspaces of commuting integer
    actions, given as entry dicts, keyed by their eigenvalue tuples, found
    by scanning every integer up to the Gershgorin bound, on the BasedSpace
    ``space``.
    Raises DecompositionError when the eigenspaces do not fill the space."""
    pieces = [((), rref([{l: 1} for l in space.labels], space))]
    for h in cartan_actions:
        row_sums = {}
        for (r, _c), v in h.items():
            row_sums[r] = row_sums.get(r, Q(0)) + abs(v)
        bound = math.ceil(max(row_sums.values(), default=0))
        new_pieces = []
        for tag, sub in pieces:
            dim_found = 0
            images = [apply(h, v) for v in sub.rows]
            coeff_space = BasedSpace(range(sub.dim))
            for lam in range(-bound, bound + 1):
                # row i of h - lam on the subspace: coordinate i of the
                # image of each basis row j
                op_rows = [{} for _ in range(sub.dim)]
                for j, (img, v) in enumerate(zip(images, sub.rows)):
                    shifted = dict(img)
                    add_scaled(shifted, v, -lam)
                    try:
                        coords = sub.coordinates(shifted)
                    except ShapeError:
                        raise DecompositionError("the action does not preserve the subspace")
                    for i, c in coords.items():
                        op_rows[i][j] = c
                ker = kernel_of_rows(op_rows, coeff_space)
                vecs = []
                for kv in ker.rows:
                    acc = {}
                    for j, c in kv.items():
                        add_scaled(acc, sub.rows[j], c)
                    vecs.append(acc)
                if vecs:
                    eig = rref(vecs, space)
                    dim_found += eig.dim
                    new_pieces.append((tag + (lam,), eig))
            if dim_found != sub.dim:
                raise DecompositionError("the action is not diagonalizable")
        pieces = new_pieces
    return dict(pieces)


def _weight_tag(w: Root, n: int) -> tuple:
    """The Cartan eigenvalues of weight w (families B, C, D)."""
    return tuple(w.coords.get(i, 0) for i in range(1, n + 1))


def test_weight_decompose_sp2_natural():
    a = alg("C", 2)
    sp = a.space
    dec = weight_decompose(sp, a.cartan)
    assert set(dec) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert all(sub.dim == 1 for sub in dec.values())
    assert dec == {
        _weight_tag(label_weight(l), 2): rref([{l: 1}], sp) for l in sp.labels
    }


def test_weight_decompose_adjoint_sl3():
    a = alg("A", 3)
    coords = BasedSpace([f"g:{i}" for i in range(a.dim)])
    ad_mats = []
    for h in a.cartan:
        entries = {}
        for j, x in enumerate(a.wb.basis_mats):
            img = a.wb.coords(commutator(h, x))
            for i, c in img.items():
                entries[(f"g:{i}", f"g:{j}")] = c
        ad_mats.append(entries)
    dec = weight_decompose(coords, ad_mats)
    expected_tags = set()
    for alpha in generate("A", 3).nonzero():
        c = alpha.coords
        expected_tags.add((c.get(1, 0) - c.get(2, 0), c.get(2, 0) - c.get(3, 0)))
    assert {t for t in dec if t != (0, 0)} == expected_tags
    assert dec[(0, 0)].dim == 2
    assert all(sub.dim == 1 for t, sub in dec.items() if t != (0, 0))
    assert sum(sub.dim for sub in dec.values()) == a.dim


def test_weight_decompose_trivial_module():
    sp = BasedSpace(["t"])
    dec = weight_decompose(sp, [{}])
    assert set(dec) == {(0,)} and dec[(0,)].dim == 1


def test_jordan_derivation_basics():
    q = parse_preset_spec("clifford:d=2")
    bb = build_bb(q, 1)
    one, w1, w2 = ({l: 1} for l in ("one", "w:1", "w:2"))

    def derivation(x, y):
        return bb.derivation_of(bb.pair_tensor(x, y))

    assert derivation(one, w1) == {}
    assert derivation(w1, w1) == {}
    # D_{w1,w2} on W is u -> g(w1,u) w2 - g(w2,u) w1
    d = derivation(w1, w2)
    assert apply(d, w1) == w2
    assert apply(d, w2) == neg(w1)
    assert apply(d, one) == {}


@pytest.mark.parametrize("n,dim", [(1, 3), (2, 10), (3, 21)])
def test_derivation_span_equals_oB(n, dim):
    ok, span_dim, alg_dim = derivation_span_equals_oB(n)
    assert ok
    assert span_dim == dim and alg_dim == dim


@pytest.mark.parametrize("factor", [2, -1])
def test_derivation_span_binds_the_bracket_d_uw(monkeypatch, factor):
    # the check compares the Jordan derivation with the D_{u,w} the type-B ss
    # bracket term runs, so a rescaled d_uw must fail it
    def scaled(nat, u, w):
        return {key: factor * v for key, v in d_uw(nat, u, w).items()}

    monkeypatch.setattr(graded, "d_uw", scaled)
    assert not derivation_span_equals_oB(2)[0]


def _circ(x, y, j0, m0, family):
    """graded._circ of x and y, its products formed here."""
    m = SimpleNamespace(family=family, idem0=j0, m0=m0)
    return graded._circ(m, product(x, y), product(y, x))


def test_circ_trunc():
    c2 = alg("C", 2)
    sp = c2.space
    j0 = truncation_idempotent(sp, {1, 2})
    x = unit("v:1", "vb:1")
    # tr(x^2) = 0 and x^2 = 0, so x o x = 0
    assert _circ(x, x, j0, 2, "C") == {}
    y = unit("vb:1", "v:1")
    xy = _circ(x, y, j0, 2, "C")
    yx = _circ(y, x, j0, 2, "C")
    assert xy == yx
    # tr(xy) = 1, so the correction is -(1/2) J_0 here
    assert xy == lin((1, product(x, y)), (1, product(y, x)), (Q(-1, 2), j0))


def test_circ_trunc_type_a_factor_two():
    a3 = alg("A", 3)
    sp = a3.space
    j0 = truncation_idempotent(sp, {1, 2, 3})
    x = unit("v:1", "v:2")
    y = unit("v:2", "v:1")
    out = _circ(x, y, j0, 3, "A")
    assert trace(out) == 0
    # tr(xy) = 1 and |I_0| = 3, so the correction is -(2/3) J_0
    assert out == lin((1, product(x, y)), (1, product(y, x)), (Q(-2, 3), j0))


def test_v_ops():
    c2 = alg("C", 2)
    nat = c2.nat
    sp = nat.space
    ell = 2
    j0 = truncation_idempotent(sp, {1, 2})
    v1, vb1 = {"v:1": 1}, {"vb:1": 1}
    # u = v: circ maps w to (u, w) u
    m = v_ops(v1, v1, nat, j0, ell, "circ")
    assert apply(m, vb1) == {"v:1": nat.form(v1, vb1)}
    # (v1, vb1) = 2 per the symplectic form; evaluated by hand:
    # bracket_ell(v1, vb1)(v1) = 1/2*(vb1,v1)*v1 + (1/2*ell)*2*v1 = -v1 + (1/ell)v1
    out = apply(v_ops(v1, vb1, nat, j0, ell, "bracket_ell"), v1)
    assert out == {"v:1": scalar(Q(-1) + Q(1, ell))}
    # circ output is form-skew, bracket output is form-symmetric
    g = nat.gram
    circ = v_ops(v1, vb1, nat, j0, ell, "circ")
    brk = v_ops(v1, vb1, nat, j0, ell, "bracket_ell")
    assert lin((1, product(transpose(circ), g)), (1, product(g, circ))) == {}
    assert lin((1, product(transpose(brk), g)), (-1, product(g, brk))) == {}


def test_v_ops_span_g_and_s():
    # pair-operator spans: u o v lands in G, [u, v] lands in S
    c2 = alg("C", 2)
    nat = c2.nat
    sp = nat.space
    j0 = truncation_idempotent(sp, {1, 2})
    smod = build_module(c2)
    for u_lab in sp.labels:
        for v_lab in sp.labels:
            u, v = {u_lab: 1}, {v_lab: 1}
            c2.wb.coords(v_ops(u, v, nat, j0, 2, "circ"))  # raises if outside
            smod.coords(v_ops(u, v, nat, j0, 2, "bracket_ell"))  # raises if outside


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_functional_is_the_form_against_each_basis_vector(family):
    # (u, -) is G^T u: at each label w, the form of u with e_w.  With u's
    # entries halves against the Gram matrix's 2s, the integral values come
    # back as ints
    nat = FormedSpace(family, 2)
    labels = nat.space.labels
    u = {lab: Q(i + 1, 2) for i, lab in enumerate(labels)}
    expected = {}
    for w in labels:
        val = sum((u[r] * g for (r, col), g in nat.gram.items() if col == w), 0)
        if val:
            expected[w] = val
    fu = nat.functional(u)
    assert fu == expected
    assert all(type(c) is int or c.denominator > 1 for c in fu.values())
    assert any(type(c) is int for c in fu.values())
    assert nat.form(u, {labels[0]: 1}) == expected.get(labels[0], 0)
    with pytest.raises(ShapeError):
        FormedSpace("A", 2).functional({"v:1": 1})


def test_truncation_idempotent_is_idempotent():
    sp = FormedSpace("B", 3).space
    j = truncation_idempotent(sp, {1, 2})
    assert product(j, j) == j
    assert apply(j, {"v:3": 1}) == {}
    assert apply(j, {"v:0": 1}) == {"v:0": 1}


def test_weight_decompose_non_diagonalizable_errors():
    sp = BasedSpace(["x", "y"])
    nilp = {("x", "y"): 1}  # Jordan block, not diagonalizable
    with pytest.raises(DecompositionError):
        weight_decompose(sp, [nilp])


def test_weight_decompose_accepts_module():
    a = alg("C", 2)
    wb = build_module(a)
    sp = BasedSpace(range(wb.dim))
    dec = weight_decompose(sp, [s_action(wb, h) for h in a.cartan])
    assert sum(sub.dim for sub in dec.values()) == wb.dim
    assert dec[(0, 0)].dim == 1
    assert dec[(1, 1)].dim == 1  # weight e1 + e2
    by_weight = {}
    for k, w in enumerate(wb.weight_of_basis):
        by_weight.setdefault(_weight_tag(w, 2), []).append({k: 1})
    assert dec == {tag: rref(vs, sp) for tag, vs in by_weight.items()}
