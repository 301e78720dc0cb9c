from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootgraded.exactla import (
    BasedSpace,
    QuotientSpace,
    ShapeError,
    SparseMatrix,
    SparseVector,
    apply,
    kernel,
    kernel_of_rows,
    q_parse,
    q_str,
    rref,
    scalar,
    tensor_space,
)

S2 = BasedSpace(["x", "y"])
S3 = BasedSpace(["x", "y", "z"])


def vec(space, *coords):
    return SparseVector(space, dict(zip(space.labels, map(Q, coords))))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(rationals, rationals, rationals)
def test_field_axioms_spot_checks(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if c != 0:
        assert (a / c) * c == a


def test_q_str_roundtrip():
    assert q_str(Q(3, 4)) == "3/4"
    assert q_str(Q(-5)) == "-5"
    assert q_parse("3/4") == Q(3, 4)
    assert q_parse("-5") == Q(-5)


def normalized(v):
    """Every entry of v is stored as ``scalar`` stores it: an int, or a
    Fraction whose denominator is above 1."""
    return all(
        type(c) is int or (type(c) is Q and c.denominator > 1) for c in v.entries.values()
    )


def test_scalar_keeps_ints_and_proper_fractions():
    assert type(scalar(3)) is int
    assert type(scalar(Q(6, 3))) is int and scalar(Q(6, 3)) == 2
    assert scalar(Q(1, 2)) == Q(1, 2) and type(scalar(Q(1, 2))) is Q
    assert type(scalar(True)) is int
    assert type(q_parse("-4/2")) is int
    v = SparseVector(S3, {"x": Q(4, 2), "y": Q(-3, 4), "z": 5})
    assert normalized(v) and v.entries["x"] == 2
    assert normalized(v.scale(Q(4, 3))) and v.scale(Q(4, 3)).entries["y"] == -1
    assert normalized(-v)
    # m v on entry dicts: 2 * (1/2) and 1/2 + 1/2 come back as ints, 1 - 1 not at all
    m = {("x", "x"): 2, ("y", "x"): 1, ("y", "y"): Q(1, 2), ("z", "x"): 2, ("z", "y"): -1}
    out = apply(m, {"x": Q(1, 2), "y": 1})
    assert out == {"x": 1, "y": 1} and all(type(c) is int for c in out.values())


@pytest.mark.parametrize(
    "make",
    [
        lambda: SparseVector(S2, {"x": 0.5}),
        lambda: SparseVector(S2, {"x": 1.0}),
        lambda: SparseMatrix(S2, S2, {("x", "y"): 2.0}),
        lambda: vec(S2, 1, 2).scale(0.5),
        lambda: SparseMatrix.identity(S2).scale(1.0),
    ],
    ids=["vector entry", "integral vector entry", "matrix entry", "vector scale", "matrix scale"],
)
def test_float_scalars_are_refused(make):
    # a float's binary expansion is not the rational it was meant to be
    with pytest.raises(ShapeError, match="float"):
        make()


def test_rref_pivot_inverse_is_exact():
    # int rows with a pivot of 3: the scaled row holds Fractions, not floats
    sub = rref([SparseVector(S2, {"x": 3, "y": 1}), SparseVector(S2, {"x": 6, "y": 6})])
    assert [r.entries for r in sub.rows] == [{"x": 1}, {"y": 1}]
    sub = rref([SparseVector(S2, {"x": 3, "y": 1})])
    assert sub.rows[0].entries == {"x": 1, "y": Q(1, 3)}
    assert all(normalized(r) for r in sub.rows)


def test_rref_empty_span():
    sub = rref([], S2)
    assert sub.dim == 0
    assert sub.contains(SparseVector(S2, {}))


def test_rref_full_space():
    sub = rref([vec(S2, 1, 0), vec(S2, 0, 1), vec(S2, 1, 1)])
    assert sub.dim == 2


def test_rref_rank_two_rows():
    # r3 = r1 + r2, reduced by hand: pivots x, y; rank 2.
    r1 = vec(S3, 1, 2, 3)
    r2 = vec(S3, 0, 1, 1)
    r3 = vec(S3, 1, 3, 4)
    sub = rref([r1, r2, r3])
    assert sub.dim == 2
    assert sub.contains(r3)
    assert not sub.contains(vec(S3, 0, 0, 1))


def test_rref_mixed_spaces_error():
    with pytest.raises(ShapeError):
        rref([vec(S2, 1, 0), vec(S3, 1, 0, 0)])


def test_rref_stops_reducing_at_full_rank():
    # once the rows span the space every later vector lies in the span: the
    # result is the rref of the whole list, and a later vector of another
    # space still raises
    spanning = [vec(S3, 1, 2, 0), vec(S3, 0, 1, 1), vec(S3, 1, 0, 3)]
    extra = [vec(S3, 5, Q(1, 2), -1), vec(S3, 0, 0, 7), SparseVector(S3, {})]
    whole = rref(spanning + extra)
    assert whole == rref(spanning) and whole.dim == 3
    assert [r.entries for r in whole.rows] == [{"x": 1}, {"y": 1}, {"z": 1}]
    # a prefix short of full rank still reduces what follows
    assert rref(spanning[:2] + extra).dim == 3
    with pytest.raises(ShapeError):
        rref(spanning + [vec(S2, 1, 0)])


def test_rref_is_canonical():
    a = rref([vec(S3, 2, 4, 6), vec(S3, 0, 3, 3)])
    b = rref([vec(S3, 1, 5, 6), vec(S3, 1, 2, 3)])
    assert a == b


def test_kernel_identity_and_zero():
    ident = SparseMatrix.identity(S3)
    assert kernel(ident).dim == 0
    zero = SparseMatrix.zero(S3, S3)
    assert kernel(zero).dim == 3


def test_kernel_sum_map():
    # (x, y) |-> x + y on Q^2, kernel = span{(1, -1)} solved by hand.
    cod = BasedSpace(["t"])
    m = SparseMatrix(S2, cod, {("t", "x"): Q(1), ("t", "y"): Q(1)})
    k = kernel(m)
    assert k.dim == 1
    assert k.contains(vec(S2, 1, -1))


def test_rank_nullity_and_kernel_exactness():
    entries = {
        ("x", "x"): Q(1), ("x", "y"): Q(2), ("x", "z"): Q(3),
        ("y", "x"): Q(2), ("y", "y"): Q(4), ("y", "z"): Q(6),
        ("z", "x"): Q(0), ("z", "y"): Q(1), ("z", "z"): Q(1),
    }
    m = SparseMatrix(S3, S3, entries)
    k = kernel(m)
    row_rank = rref(
        [SparseVector(S3, {c: v for (r2, c), v in entries.items() if r2 == r}) for r in S3.labels]
    ).dim
    assert row_rank + k.dim == 3
    for b in k.rows:
        assert m.apply(b).is_zero()


def test_quotient_projects_relations_to_zero():
    rel = rref([vec(S2, 1, 1)])
    q = QuotientSpace(S2, rel)
    assert q.dim == 1
    assert q.project(vec(S2, 1, 1)).is_zero()
    assert q.project(vec(S2, 2, 0)) == q.project(vec(S2, 0, -2))


def test_quotient_trivial_relations():
    q = QuotientSpace(S3, rref([], S3))
    v = vec(S3, 1, 2, 3)
    assert dict(q.project(v).entries) == dict(v.entries)


def test_quotient_project_idempotent_and_linear():
    rel = rref([vec(S3, 1, 1, 0), vec(S3, 0, 1, 1)])
    q = QuotientSpace(S3, rel)
    v = vec(S3, 3, 1, 4)
    w = vec(S3, -1, 5, 9)
    pv = q.project(v)
    assert q.project(q.lift(pv)) == pv
    assert q.project(v + w) == q.project(v) + q.project(w)
    assert q.project(v.scale(Q(7, 2))) == pv.scale(Q(7, 2))


@settings(max_examples=25)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_trace_ab_equals_trace_ba(a, b, c, d):
    m1 = SparseMatrix(S2, S2, {("x", "x"): Q(a), ("x", "y"): Q(b), ("y", "x"): Q(c), ("y", "y"): Q(d)})
    m2 = SparseMatrix(S2, S2, {("x", "x"): Q(d), ("x", "y"): Q(a), ("y", "x"): Q(b), ("y", "y"): Q(c)})
    assert (m1 @ m2).trace() == (m2 @ m1).trace()


def test_matrix_apply_and_compose():
    m = SparseMatrix(S2, S3, {("x", "x"): Q(1), ("z", "y"): Q(2)})
    v = vec(S2, 5, 7)
    assert m.apply(v) == vec(S3, 5, 0, 14)
    back = SparseMatrix(S3, S2, {("x", "x"): Q(1), ("y", "z"): Q(1)})
    comp = back @ m
    assert comp.apply(v) == vec(S2, 5, 14)


def test_tensor_space_labels():
    t = tensor_space(S2, S2)
    assert t.dim == 4
    assert ("x", "y") in t


def test_subspace_coordinates():
    sub = rref([vec(S3, 1, 0, 1), vec(S3, 0, 1, 1)])
    v = vec(S3, 2, 3, 5)
    coords = sub.coordinates(v)
    assert coords == {0: Q(2), 1: Q(3)}
    assert sub.coordinates(vec(S3, 2, 0, 2)) == {0: Q(2)}
    with pytest.raises(ShapeError):
        sub.coordinates(vec(S3, 0, 0, 1))
    # the same read from a bare entry dict, as (row, coefficient) pairs
    assert sub.entry_coordinates(v.entries) == [(0, 2), (1, 3)]
    with pytest.raises(ShapeError):
        sub.entry_coordinates({"z": 1})
    # a label outside the ambient space is never a pivot: it is left over
    with pytest.raises(ShapeError):
        sub.entry_coordinates({"x": 1, "z": 1, "w": 1})


# -- dense oracle ------------------------------------------------------------


def dense_rref(rows, n):
    """Plain Gauss-Jordan over Fraction: (pivot columns, reduced rows)."""
    work = [list(r) for r in rows]
    pivots, out = [], []
    for col in range(n):
        hit = next((r for r in work if r[col] != 0), None)
        if hit is None:
            continue
        work.remove(hit)
        hit = [x / hit[col] for x in hit]
        work = [[x - r[col] * h for x, h in zip(r, hit)] for r in work]
        out = [[x - r[col] * h for x, h in zip(r, hit)] for r in out]
        pivots.append(col)
        out.append(hit)
    return pivots, out


def dense(v, space):
    return [v.entries.get(lab, 0) for lab in space.labels]


def sparse(row, space):
    return SparseVector(space, dict(zip(space.labels, row)))


def combine(coeffs, rows, n):
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), Q(0)) for j in range(n)]


def in_dense_span(rows, row, n):
    return len(dense_rref(rows + [row], n)[0]) == len(dense_rref(rows, n)[0])


def dense_null(pivots, reduced, n):
    """The nullspace of a dense rref, one vector per free column."""
    null = []
    for j in range(n):
        if j in pivots:
            continue
        k = [Q(0)] * n
        k[j] = Q(1)
        for p, r in zip(pivots, reduced):
            k[p] = -r[j]
        null.append(k)
    return null


small_q = st.sampled_from([Q(0)] * 6 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(5, 3)])


@st.composite
def redundant_rows(draw):
    """Sparse rows over n labels, at most 3 of them independent, and at
    least 10/3 as many rows as that: an rref yield of at most 0.3."""
    n = draw(st.integers(1, 8))
    space = BasedSpace([f"u{i}" for i in range(n)])
    base = draw(st.lists(st.lists(small_q, min_size=n, max_size=n), min_size=1, max_size=3))
    total = -(-len(base) * 10 // 3) + draw(st.integers(0, 6))
    rows = list(base)
    for _ in range(total - len(base)):
        coeffs = draw(st.lists(small_q, min_size=len(base), max_size=len(base)))
        rows.append(combine(coeffs, base, n))
    rows = draw(st.permutations(rows))
    probe = draw(st.lists(small_q, min_size=n, max_size=n))
    mix = draw(st.lists(small_q, min_size=len(rows), max_size=len(rows)))
    return space, rows, probe, mix


@settings(max_examples=200, deadline=None)
@given(redundant_rows())
def test_sparse_elimination_matches_dense_oracle(case):
    space, rows, probe, mix = case
    n = space.dim
    pivots, reduced = dense_rref(rows, n)
    assert len(pivots) <= 0.3 * len(rows)
    sub = rref([sparse(r, space) for r in rows], space)
    assert list(sub.pivots) == pivots
    assert [dense(r, space) for r in sub.rows] == reduced
    assert all(normalized(r) for r in sub.rows)

    # reduce: the unique representative of probe + span with no pivot support
    residual = dense(sub.reduce(sparse(probe, space)), space)
    assert all(residual[p] == 0 for p in pivots)
    diff = [a - b for a, b in zip(probe, residual)]
    assert in_dense_span(reduced, diff, n)
    inside = in_dense_span(reduced, probe, n)
    assert sub.contains(sparse(probe, space)) == inside

    # coordinates of a vector of the span, and refusal outside it
    member = combine(mix, rows, n)
    coords = sub.coordinates(sparse(member, space))
    assert all(coords.values())
    assert combine([coords.get(i, Q(0)) for i in range(len(reduced))], reduced, n) == member
    if not inside:
        with pytest.raises(ShapeError):
            sub.coordinates(sparse(probe, space))

    # kernel_of_rows: the rref of the dense nullspace
    null = dense_null(pivots, reduced, n)
    ker = kernel_of_rows([sparse(r, space) for r in rows], space)
    null_pivots, null_rows = dense_rref(null, n)
    assert list(ker.pivots) == null_pivots
    assert [dense(r, space) for r in ker.rows] == null_rows
    assert all(normalized(r) for r in ker.rows)
    for k in ker.rows:
        for r in rows:
            assert sum((a * b for a, b in zip(dense(k, space), r)), Q(0)) == 0


@st.composite
def subspace_and_map(draw):
    """Sparse rows spanning K over n labels, and a map M of the space built
    to keep K: lam*I, plus terms u (x) phi with u in K, plus terms u (x) psi
    with psi vanishing on K.  Two times in three one more term u (x) phi
    may move K: phi arbitrary, or phi = psi + c e_p* for one pivot p, which
    moves only the relation row of pivot p."""
    n = draw(st.integers(1, 6))
    space = BasedSpace([f"u{i}" for i in range(n)])
    rows = draw(st.lists(st.lists(small_q, min_size=n, max_size=n), min_size=1, max_size=4))
    pivots, reduced = dense_rref(rows, n)
    annihilator = dense_null(pivots, reduced, n)

    def anything():
        return draw(st.lists(small_q, min_size=n, max_size=n))

    def inside(basis):
        return combine(draw(st.lists(small_q, min_size=len(basis), max_size=len(basis))), basis, n)

    terms = [(inside(reduced), anything()) for _ in range(draw(st.integers(0, 2)))]
    terms += [(anything(), inside(annihilator)) for _ in range(draw(st.integers(0, 2)))]
    breaker = draw(st.sampled_from(["none", "arbitrary", "one row"]))
    if breaker == "arbitrary":
        terms.append((anything(), anything()))
    elif breaker == "one row" and pivots:
        phi = inside(annihilator)
        phi[draw(st.sampled_from(pivots))] += draw(st.sampled_from([Q(1), Q(-2), Q(1, 3)]))
        terms.append((anything(), phi))
    lam = draw(small_q)
    labels = space.labels
    entries = {
        (labels[r], labels[c]): (lam if r == c else 0) + sum(u[r] * phi[c] for u, phi in terms)
        for r in range(n)
        for c in range(n)
    }
    return space, rows, SparseMatrix(space, space, entries)


@settings(max_examples=200, deadline=None)
@given(subspace_and_map())
def test_dual_stability_matches_image_and_reduce(case):
    space, rows, m = case
    k = rref([sparse(r, space) for r in rows], space)
    quotient = QuotientSpace(space, k)
    # the reference: reduce the image of each relation row in turn
    reference = next((i for i, g in enumerate(k.rows) if not k.contains(m.apply(g))), None)
    mt = m.transpose()
    dual = quotient.first_escape(lambda phi: dict(mt.apply(SparseVector(space, phi)).entries))
    assert dual == reference

    # one functional per coset label, dual to the coset labels, killing K
    pis = quotient.annihilator()
    assert list(pis) == list(quotient.coset_labels)
    for f, pi in pis.items():
        assert all(pi.get(e, 0) == (e == f) for e in quotient.coset_labels)
        for g in k.rows:
            assert sum((pi.get(lab, 0) * g.entries.get(lab, 0) for lab in space.labels), 0) == 0
