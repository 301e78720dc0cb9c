import math
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from rootgraded import graded
from rootgraded.coord import build_bb, parse_preset_spec
from rootgraded.exactla import (
    BasedSpace,
    ShapeError,
    SparseMatrix,
    SparseVector,
    add_scaled,
    kernel_of_rows,
    rref,
)
from rootgraded.graded import derivation_span_equals_oB
from rootgraded.liealg import (
    DegenerateInputError,
    FormedSpace,
    WeightedBasis,
    build_algebra,
    build_module,
    d_uw,
    expected_dimension,
    label_weight,
    matrix_unit,
    truncation_idempotent,
    v_ops,
)
from rootgraded.rootsys import Root, generate

ALGEBRAS = {}


def commutator(x, y):
    return x @ y - y @ x


def alg(family, n):
    key = (family, n)
    if key not in ALGEBRAS:
        ALGEBRAS[key] = build_algebra(family, n)
    return ALGEBRAS[key]


def test_matrix_unit():
    sp = BasedSpace(["v:1", "v:2"])
    e11 = matrix_unit("v:1", "v:1", sp)
    e12 = matrix_unit("v:1", "v:2", sp)
    e21 = matrix_unit("v:2", "v:1", sp)
    v1, v2 = sp.basis_vector("v:1"), sp.basis_vector("v:2")
    assert e11.apply(v1) == v1
    assert e12.apply(v2) == v1
    assert e12.apply(v1).is_zero()
    assert commutator(e12, e21) == e11 - matrix_unit("v:2", "v:2", sp)


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
        assert wb.coords(mat.entries) == {k: Q(1)}
    rng = random.Random(6)
    coeffs = {k: Q(rng.randint(-3, 3)) for k in range(wb.dim)}
    combo = SparseMatrix.zero(g.space, g.space)
    for k, c in coeffs.items():
        combo = combo + wb.basis_mats[k].scale(c)
    assert wb.coords(combo.entries) == {k: c for k, c in coeffs.items() if c}
    if which == "A":
        outside = SparseMatrix.identity(g.space)
    elif which == "S":
        outside = g.wb.basis_mats[0]
    else:
        outside = matrix_unit("v:1", "v:1", g.space)
    with pytest.raises(ShapeError):
        wb.coords(outside.entries)


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
    mixed = matrix_unit("v:1", "v:2", g.space) + matrix_unit("v:2", "v:1", g.space)
    with pytest.raises(ShapeError):
        WeightedBasis(g.space, rref([SparseVector(g.glsp, mixed.entries)], g.glsp))
    # a weight basis in another order gives back the same basis, in order
    again = WeightedBasis(g.space, rref(g.wb.full.rows[::-1], g.glsp))
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
            assert m.trace() == 0
        else:
            assert (m.transpose() @ gram + gram @ m).is_zero()


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_closure_under_commutator(family):
    a = alg(family, 2)
    for i, x in enumerate(a.wb.basis_mats):
        for y in a.wb.basis_mats[i:]:
            assert a.wb.full.contains(SparseVector(a.glsp, commutator(x, y).entries))


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
            assert commutator(h, x) == x.scale(val)


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_root_sets_match_generated_systems(family):
    a = alg(family, 3)
    assert set(a.wb.root_space_index) == set(generate(family, 3).nonzero())


def test_classical_root_space_formulas():
    # sl: G_{e1-e2} = F e_{1,2}
    a3 = alg("A", 3)
    sp = a3.space
    assert a3.root_vector(Root.eps(1) - Root.eps(2)) == matrix_unit("v:1", "v:2", sp)
    # sp: G_{2e1} = F e_{1,1bar};  G_{e1+e2} = F(e_{1,2bar} + e_{2,1bar})
    c2 = alg("C", 2)
    sp = c2.space
    assert c2.root_vector(Root.eps(1, 2)) == matrix_unit("v:1", "vb:1", sp)
    x = c2.root_vector(Root.eps(1) + Root.eps(2))
    expected = matrix_unit("v:1", "vb:2", sp) + matrix_unit("v:2", "vb:1", sp)
    assert x == expected or x == expected.scale(Q(-1))
    # o_B: G_{e1} = F(e_{1,0} - e_{0,1bar}); dim o_B(2) = 10
    b2 = alg("B", 2)
    sp = b2.space
    x = b2.root_vector(Root.eps(1))
    expected = matrix_unit("v:1", "v:0", sp) - matrix_unit("v:0", "vb:1", sp)
    assert x == expected or x == expected.scale(Q(-1))
    assert b2.dim == 10
    # o_B, e_i+e_j space: derived from the eigenvalue equation, which
    # gives e_{i,jbar} - e_{j,ibar}, the same pattern as type D.
    x = b2.root_vector(Root.eps(1) + Root.eps(2))
    expected = matrix_unit("v:1", "vb:2", sp) - matrix_unit("v:2", "vb:1", sp)
    assert x == expected or x == expected.scale(Q(-1))
    # o_D: G_{e1-e2} = F(e_{1,2} - e_{2bar,1bar})
    d2 = alg("D", 2)
    sp = d2.space
    x = d2.root_vector(Root.eps(1) - Root.eps(2))
    expected = matrix_unit("v:1", "v:2", sp) - matrix_unit("vb:2", "vb:1", sp)
    assert x == expected or x == expected.scale(Q(-1))


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_truncation_embedding(family):
    small = alg(family, 2)
    big = alg(family, 3)
    # gl coordinates are labelled by the (row, col) pairs of matrix entries
    for v in small.wb.full.rows:
        assert big.wb.full.contains(SparseVector(big.glsp, v.entries))
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
    return {wb.weight_of_basis[k] for k in wb.coords(mat.entries)}


def test_symmetric_module_weight_vectors():
    # Prop 2.20(b)(i) spanning vectors as cross-checks of the kernel build.
    a = alg("C", 2)
    wb = build_module(a)
    sp = a.space
    plus = matrix_unit("v:1", "vb:2", sp) - matrix_unit("v:2", "vb:1", sp)
    assert _s_weights(wb, plus) == {Root.eps(1) + Root.eps(2)}
    mixed = matrix_unit("v:1", "v:2", sp) + matrix_unit("vb:2", "vb:1", sp)
    assert _s_weights(wb, mixed) == {Root.eps(1) - Root.eps(2)}
    assert wb.zero_block == 1  # n - 1
    h_like = (
        matrix_unit("v:1", "v:1", sp)
        + matrix_unit("vb:1", "vb:1", sp)
        - matrix_unit("v:2", "v:2", sp)
        - matrix_unit("vb:2", "vb:2", sp)
    )
    assert _s_weights(wb, h_like.scale(Q(1, 2))) == {Root.zero()}


def test_kind_s_requires_family_c():
    with pytest.raises(ValueError):
        build_module(alg("B", 2))


def s_action(wb, x, sp):
    """The matrix of x acting on S by commutators, read in S's basis, on
    the coordinate space ``sp`` of S."""
    cols = {}
    for k, s in enumerate(wb.basis_mats):
        for r, c in wb.coords(commutator(x, s).entries).items():
            cols[(r, k)] = c
    return SparseMatrix(sp, sp, cols)


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
        act = lambda x: s_action(wb, x, sp)
    vecs = [sp.basis_vector(l) for l in sp.labels]
    for x in mats:
        for y in mats:
            act_xy = act(commutator(x, y))
            act_x, act_y = act(x), act(y)
            for v in vecs:
                lhs = act_xy.apply(v)
                rhs = act_x.apply(act_y.apply(v)) - act_y.apply(act_x.apply(v))
                assert lhs == rhs


class DecompositionError(ValueError):
    pass


def weight_decompose(space, cartan_actions) -> dict:
    """Weight oracle: the simultaneous eigenspaces of commuting integer
    actions, keyed by their eigenvalue tuples, found by scanning every
    integer up to the Gershgorin bound, on the BasedSpace ``space``.
    Raises DecompositionError when the eigenspaces do not fill the space."""
    pieces = [((), rref([space.basis_vector(l) for l in space.labels], space))]
    for h in cartan_actions:
        row_sums = {}
        for (r, _c), v in h.entries.items():
            row_sums[r] = row_sums.get(r, Q(0)) + abs(v)
        bound = math.ceil(max(row_sums.values(), default=0))
        new_pieces = []
        for tag, sub in pieces:
            dim_found = 0
            images = [h.apply(v) for v in sub.rows]
            coeff_space = BasedSpace(range(sub.dim))
            for lam in range(-bound, bound + 1):
                # row i of h - lam on the subspace: coordinate i of the
                # image of each basis row j
                op_rows = [{} for _ in range(sub.dim)]
                for j, (img, v) in enumerate(zip(images, sub.rows)):
                    try:
                        coords = sub.coordinates(img - v.scale(Q(lam)))
                    except ShapeError:
                        raise DecompositionError("the action does not preserve the subspace")
                    for i, c in coords.items():
                        op_rows[i][j] = c
                ker = kernel_of_rows([SparseVector(coeff_space, r) for r in op_rows], coeff_space)
                vecs = []
                for kv in ker.rows:
                    acc = {}
                    for j, c in kv.entries.items():
                        add_scaled(acc, sub.rows[j].entries, c)
                    vecs.append(SparseVector(space, acc))
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
        _weight_tag(label_weight(l), 2): rref([sp.basis_vector(l)], sp) for l in sp.labels
    }


def test_weight_decompose_adjoint_sl3():
    a = alg("A", 3)
    coords = BasedSpace([f"g:{i}" for i in range(a.dim)])
    ad_mats = []
    for h in a.cartan:
        entries = {}
        for j, x in enumerate(a.wb.basis_mats):
            img = a.wb.coords(commutator(h, x).entries)
            for i, c in img.items():
                entries[(f"g:{i}", f"g:{j}")] = c
        ad_mats.append(SparseMatrix(coords, coords, entries))
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
    dec = weight_decompose(sp, [SparseMatrix.zero(sp, sp)])
    assert set(dec) == {(0,)} and dec[(0,)].dim == 1


def test_jordan_derivation_basics():
    q = parse_preset_spec("clifford:d=2")
    bb = build_bb(q, 1)
    one, w1, w2 = (q.b_space.basis_vector(l) for l in ("one", "w:1", "w:2"))

    def derivation(x, y):
        d = bb.derivation_of(bb.pair_tensor(x.entries, y.entries).entries)
        return SparseMatrix(q.b_space, q.b_space, d)

    assert derivation(one, w1).is_zero()
    assert derivation(w1, w1).is_zero()
    # D_{w1,w2} on W is u -> g(w1,u) w2 - g(w2,u) w1
    d = derivation(w1, w2)
    assert d.apply(w1) == w2
    assert d.apply(w2) == -w1
    assert d.apply(one).is_zero()


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
    """graded._circ of x and y, its products formed by ``@``, as a matrix."""
    m = SimpleNamespace(family=family, idem0=j0.entries, m0=m0)
    sp = j0.domain
    return SparseMatrix(sp, sp, graded._circ(m, (x @ y).entries, (y @ x).entries))


def test_circ_trunc():
    c2 = alg("C", 2)
    sp = c2.space
    j0 = truncation_idempotent(sp, {1, 2})
    x = matrix_unit("v:1", "vb:1", sp)
    # tr(x^2) = 0 and x^2 = 0, so x o x = 0
    assert _circ(x, x, j0, 2, "C").is_zero()
    y = matrix_unit("vb:1", "v:1", sp)
    xy = _circ(x, y, j0, 2, "C")
    yx = _circ(y, x, j0, 2, "C")
    assert xy == yx
    # tr(xy) = 1, so the correction is -(1/2) J_0 here
    assert xy == x @ y + y @ x - j0.scale(Q(1, 2))


def test_circ_trunc_type_a_factor_two():
    a3 = alg("A", 3)
    sp = a3.space
    j0 = truncation_idempotent(sp, {1, 2, 3})
    x = matrix_unit("v:1", "v:2", sp)
    y = matrix_unit("v:2", "v:1", sp)
    out = _circ(x, y, j0, 3, "A")
    assert out.trace() == 0
    # tr(xy) = 1 and |I_0| = 3, so the correction is -(2/3) J_0
    assert out == x @ y + y @ x - j0.scale(Q(2, 3))


def _v_ops(u, v, nat, j0, m0, variant):
    """v_ops of the vectors u, v with J_0 the matrix j0, as a matrix."""
    entries = v_ops(u.entries, v.entries, nat, j0.entries, m0, variant)
    return SparseMatrix(nat.space, nat.space, entries)


def test_v_ops():
    c2 = alg("C", 2)
    nat = c2.nat
    sp = nat.space
    ell = 2
    j0 = truncation_idempotent(sp, {1, 2})
    v1 = sp.basis_vector("v:1")
    vb1 = sp.basis_vector("vb:1")
    # u = v: circ maps w to (u, w) u
    m = _v_ops(v1, v1, nat, j0, ell, "circ")
    assert m.apply(vb1) == v1.scale(nat.form(v1.entries, vb1.entries))
    # (v1, vb1) = 2 per the symplectic form; evaluated by hand:
    # bracket_ell(v1, vb1)(v1) = 1/2*(vb1,v1)*v1 + (1/2*ell)*2*v1 = -v1 + (1/ell)v1
    out = _v_ops(v1, vb1, nat, j0, ell, "bracket_ell").apply(v1)
    assert out == v1.scale(Q(-1) + Q(1, ell))
    # circ output is form-skew, bracket output is form-symmetric
    g = nat.gram
    circ = _v_ops(v1, vb1, nat, j0, ell, "circ")
    brk = _v_ops(v1, vb1, nat, j0, ell, "bracket_ell")
    assert (circ.transpose() @ g + g @ circ).is_zero()
    assert (brk.transpose() @ g - g @ brk).is_zero()


def test_v_ops_span_g_and_s():
    # pair-operator spans: u o v lands in G, [u, v] lands in S
    c2 = alg("C", 2)
    nat = c2.nat
    sp = nat.space
    j0 = truncation_idempotent(sp, {1, 2})
    smod = build_module(c2)
    for u_lab in sp.labels:
        for v_lab in sp.labels:
            u, v = sp.basis_vector(u_lab), sp.basis_vector(v_lab)
            c2.wb.coords(_v_ops(u, v, nat, j0, 2, "circ").entries)  # raises if outside
            smod.coords(_v_ops(u, v, nat, j0, 2, "bracket_ell").entries)  # raises if outside


def test_truncation_idempotent_is_idempotent():
    sp = FormedSpace("B", 3).space
    j = truncation_idempotent(sp, {1, 2})
    assert j @ j == j
    assert j.apply(sp.basis_vector("v:3")).is_zero()
    assert j.apply(sp.basis_vector("v:0")) == sp.basis_vector("v:0")


def test_weight_decompose_non_diagonalizable_errors():
    sp = BasedSpace(["x", "y"])
    nilp = SparseMatrix(sp, sp, {("x", "y"): Q(1)})  # Jordan block, not diagonalizable
    with pytest.raises(DecompositionError):
        weight_decompose(sp, [nilp])


def test_weight_decompose_accepts_module():
    a = alg("C", 2)
    wb = build_module(a)
    sp = BasedSpace(range(wb.dim))
    dec = weight_decompose(sp, [s_action(wb, h, sp) for h in a.cartan])
    assert sum(sub.dim for sub in dec.values()) == wb.dim
    assert dec[(0, 0)].dim == 1
    assert dec[(1, 1)].dim == 1  # weight e1 + e2
    by_weight = {}
    for k, w in enumerate(wb.weight_of_basis):
        by_weight.setdefault(_weight_tag(w, 2), []).append(sp.basis_vector(k))
    assert dec == {tag: rref(vs, sp) for tag, vs in by_weight.items()}
