from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dictmat import lin, product, trace

from rootgraded.exactla import (
    BasedSpace,
    QuotientSpace,
    ShapeError,
    SparseMatrix,
    apply,
    clean,
    kernel_of_rows,
    outer,
    products,
    q_parse,
    q_str,
    rref,
    scalar,
    tensor_space,
    vector_text,
)

S2 = BasedSpace(["x", "y"])
S3 = BasedSpace(["x", "y", "z"])


def vec(space, *coords):
    """The entry dict of the vector with these coordinates, zeros left out."""
    return {lab: scalar(Q(c)) for lab, c in zip(space.labels, coords) if c}


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
        type(c) is int or (type(c) is Q and c.denominator > 1) for c in v.values()
    )


def test_scalar_keeps_ints_and_proper_fractions():
    assert type(scalar(3)) is int
    assert type(scalar(Q(6, 3))) is int and scalar(Q(6, 3)) == 2
    assert scalar(Q(1, 2)) == Q(1, 2) and type(scalar(Q(1, 2))) is Q
    assert type(scalar(True)) is int
    assert type(q_parse("-4/2")) is int
    v = clean(S3, {"x": Q(4, 2), "y": Q(-3, 4), "z": 5})
    assert normalized(v) and v == {"x": 2, "y": Q(-3, 4), "z": 5}
    # m v on entry dicts: 2 * (1/2) and 1/2 + 1/2 come back as ints, 1 - 1 not at all
    m = {("x", "x"): 2, ("y", "x"): 1, ("y", "y"): Q(1, 2), ("z", "x"): 2, ("z", "y"): -1}
    out = apply(m, {"x": Q(1, 2), "y": 1})
    assert out == {"x": 1, "y": 1} and all(type(c) is int for c in out.values())


def _one_dim_quadruple(**tables):
    """The type-A quadruple F, with some of its tables replaced."""
    from rootgraded.coord import CoordinateQuadruple

    args = {"mult": {("one", "one"): {"one": 1}}, "unit": {"one": 1}, "star": {("one", "one"): 1}}
    return CoordinateQuadruple("A", ["one"], **{**args, **tables})


@pytest.mark.parametrize(
    "make",
    [
        lambda: _one_dim_quadruple(unit={"one": 0.5}),
        lambda: _one_dim_quadruple(mult={("one", "one"): {"one": 1.0}}),
        lambda: rref([{"x": 1, "y": 0.5}], S2),
        lambda: SparseMatrix(S2, S2, {("x", "y"): 2.0}),
        lambda: _one_dim_quadruple(star={("one", "one"): 1.0}),
    ],
    ids=["vector entry", "integral vector entry", "rref row", "matrix entry", "star entry"],
)
def test_float_scalars_are_refused(make):
    # a float's binary expansion is not the rational it was meant to be
    with pytest.raises(ShapeError, match="float"):
        make()


def test_clean_checks_labels_and_drops_zeros():
    assert clean(S3, {"x": 0, "y": Q(3, 3), "z": Q(1, 2)}) == {"y": 1, "z": Q(1, 2)}
    with pytest.raises(ShapeError, match="'w' not in space"):
        clean(S3, {"w": 1})


def test_rref_pivot_inverse_is_exact():
    # int rows with a pivot of 3: the scaled row holds Fractions, not floats
    sub = rref([{"x": 3, "y": 1}, {"x": 6, "y": 6}], S2)
    assert list(sub.rows) == [{"x": 1}, {"y": 1}]
    sub = rref([{"x": 3, "y": 1}], S2)
    assert sub.rows[0] == {"x": 1, "y": Q(1, 3)}
    assert all(normalized(r) for r in sub.rows)


def test_rref_rows_are_stored_values():
    # integral Fractions come back as ints, and a row is a plain dict
    sub = rref([{"x": Q(2), "y": Q(4, 2)}, {"z": Q(6, 3)}], S3)
    assert list(sub.rows) == [{"x": 1, "y": 1}, {"z": 1}]
    assert all(type(r) is dict and normalized(r) for r in sub.rows)


def test_rref_skips_zero_entries():
    # an explicit zero is no entry: it is never a pivot, and a vector of
    # zeros adds nothing
    sub = rref([{"x": 0, "y": 2, "z": 0}, {"x": 0}, {}], S3)
    assert list(sub.pivots) == [1] and list(sub.rows) == [{"y": 1}]
    assert sub == rref([{"y": 1}], S3)


def test_rref_empty_span():
    sub = rref([], S2)
    assert sub.dim == 0
    assert sub.contains({})


def test_rref_full_space():
    sub = rref([vec(S2, 1, 0), vec(S2, 0, 1), vec(S2, 1, 1)], S2)
    assert sub.dim == 2


def test_rref_rank_two_rows():
    # r3 = r1 + r2, reduced by hand: pivots x, y; rank 2.
    r1 = vec(S3, 1, 2, 3)
    r2 = vec(S3, 0, 1, 1)
    r3 = vec(S3, 1, 3, 4)
    sub = rref([r1, r2, r3], S3)
    assert sub.dim == 2
    assert sub.contains(r3)
    assert not sub.contains(vec(S3, 0, 0, 1))


def test_rref_mixed_spaces_error():
    # z is a label of S3, not of S2
    with pytest.raises(ShapeError, match="'z' not in space"):
        rref([vec(S2, 1, 0), vec(S3, 0, 0, 1)], S2)


def test_rref_stops_reducing_at_full_rank():
    # once the rows span the space every later vector lies in the span: the
    # result is the rref of the whole list, and a later vector with a label
    # outside the space still raises
    spanning = [vec(S3, 1, 2, 0), vec(S3, 0, 1, 1), vec(S3, 1, 0, 3)]
    extra = [vec(S3, 5, Q(1, 2), -1), vec(S3, 0, 0, 7), {}]
    whole = rref(spanning + extra, S3)
    assert whole == rref(spanning, S3) and whole.dim == 3
    assert list(whole.rows) == [{"x": 1}, {"y": 1}, {"z": 1}]
    # a prefix short of full rank still reduces what follows
    assert rref(spanning[:2] + extra, S3).dim == 3
    with pytest.raises(ShapeError):
        rref(spanning + [{"w": 1}], S3)


def test_rref_is_canonical():
    a = rref([vec(S3, 2, 4, 6), vec(S3, 0, 3, 3)], S3)
    b = rref([vec(S3, 1, 5, 6), vec(S3, 1, 2, 3)], S3)
    assert a == b


def test_kernel_identity_and_zero():
    # the kernel of a matrix is the common nullspace of its rows
    assert kernel_of_rows([{lab: 1} for lab in S3.labels], S3).dim == 0
    assert kernel_of_rows([], S3).dim == 3
    assert kernel_of_rows([{}, {"x": 0}], S3).dim == 3


def test_kernel_sum_map():
    # (x, y) |-> x + y on Q^2, kernel = span{(1, -1)} solved by hand.
    k = kernel_of_rows([{"x": 1, "y": 1}], S2)
    assert k.dim == 1
    assert k.contains(vec(S2, 1, -1))


def test_rank_nullity_and_kernel_exactness():
    entries = {
        ("x", "x"): Q(1), ("x", "y"): Q(2), ("x", "z"): Q(3),
        ("y", "x"): Q(2), ("y", "y"): Q(4), ("y", "z"): Q(6),
        ("z", "x"): Q(0), ("z", "y"): Q(1), ("z", "z"): Q(1),
    }
    rows = [{c: v for (r2, c), v in entries.items() if r2 == r} for r in S3.labels]
    k = kernel_of_rows(rows, S3)
    assert rref(rows, S3).dim + k.dim == 3
    for b in k.rows:
        assert apply(entries, b) == {}


def test_quotient_projects_relations_to_zero():
    rel = rref([vec(S2, 1, 1)], S2)
    q = QuotientSpace(S2, rel)
    assert q.dim == 1
    assert q.relations.reduce(vec(S2, 1, 1)) == {}
    assert q.relations.reduce(vec(S2, 2, 0)) == q.relations.reduce(vec(S2, 0, -2))


def test_quotient_trivial_relations():
    q = QuotientSpace(S3, rref([], S3))
    v = vec(S3, 1, 2, 3)
    assert q.relations.reduce(v) == v


def test_quotient_project_idempotent_and_linear():
    rel = rref([vec(S3, 1, 1, 0), vec(S3, 0, 1, 1)], S3)
    q = QuotientSpace(S3, rel)
    v = vec(S3, 3, 1, 4)
    w = vec(S3, -1, 5, 9)
    project = q.relations.reduce
    pv = project(v)
    # the representative lies on the coset labels, and is its own
    assert pv.keys() <= set(q.coset_labels) and project(pv) == pv
    assert project(lin((1, v), (1, w))) == lin((1, pv), (1, project(w)))
    assert project(lin((Q(7, 2), v))) == lin((Q(7, 2), pv))
    assert all(normalized(project(x)) for x in (v, lin((Q(1, 2), w))))


@settings(max_examples=25)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_trace_ab_equals_trace_ba(a, b, c, d):
    m1 = SparseMatrix(S2, S2, {("x", "x"): Q(a), ("x", "y"): Q(b), ("y", "x"): Q(c), ("y", "y"): Q(d)})
    m2 = SparseMatrix(S2, S2, {("x", "x"): Q(d), ("x", "y"): Q(a), ("y", "x"): Q(b), ("y", "y"): Q(c)})
    assert trace((m1 @ m2).entries) == trace((m2 @ m1).entries)


def test_matrix_apply_and_compose():
    m = SparseMatrix(S2, S3, {("x", "x"): Q(1), ("z", "y"): Q(2)})
    v = vec(S2, 5, 7)
    assert apply(m.entries, v) == vec(S3, 5, 0, 14)
    back = SparseMatrix(S3, S2, {("x", "x"): Q(1), ("y", "z"): Q(1)})
    comp = back @ m
    assert apply(comp.entries, v) == vec(S2, 5, 14)
    with pytest.raises(ShapeError, match="composition shapes disagree"):
        m @ m


# entries that cancel in pairs, ints and Fractions both
_entry = st.sampled_from([1, -1, 2, -2, Q(1, 2), Q(-1, 2), Q(3, 2)])
ROWS, MIDS, COLS = BasedSpace("abc"), BasedSpace("pqrs"), BasedSpace("xyz")


def _matrices(rows, cols):
    """Lists of up to four matrices' entry dicts with rows and columns
    drawn from these labels, the empty list included."""
    keys = st.tuples(st.sampled_from(rows), st.sampled_from(cols))
    return st.lists(st.dictionaries(keys, _entry, max_size=5), max_size=4)


@st.composite
def product_cases(draw):
    """(mats1, mats2) over ROWS x MIDS and MIDS x COLS; the second list's
    rows meet the first's columns p, q fully, in part, or not at all."""
    mids2 = draw(st.sampled_from(["pq", "pqr", "rs"]))
    return draw(_matrices("abc", "pq")), draw(_matrices(mids2, "xyz"))


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_products_match_the_dictmat_oracle(case):
    # every pair's product is dictmat's, keyed only where it is nonzero,
    # with no zero entry; all-int inputs give ints
    mats1, mats2 = case
    joined = products(mats1, mats2)
    expected = {
        (i, j): xy for i, x in enumerate(mats1) for j, y in enumerate(mats2) if (xy := product(x, y))
    }
    assert joined == expected
    assert all(xy and 0 not in xy.values() for xy in joined.values())
    if all(type(v) is int for m in mats1 + mats2 for v in m.values()):
        assert all(type(v) is int for xy in joined.values() for v in xy.values())
    # the traced composition is the same join, behind its shape check
    for x in mats1:
        for y in mats2:
            composed = SparseMatrix(MIDS, ROWS, x) @ SparseMatrix(COLS, MIDS, y)
            assert composed.entries == product(x, y)


def test_products_edge_cases():
    x = {("a", "p"): 1, ("a", "q"): Q(1, 2)}
    # a sum that cancels leaves no key; supports that do not meet cost none
    assert products([x], [{("p", "x"): 1, ("q", "x"): -2}]) == {}
    assert products([x], [{("r", "x"): 1}]) == {}
    assert products([], [x]) == {} and products([x], []) == {}
    assert products([x, {}], [{("q", "y"): 2}]) == {(0, 0): {("a", "y"): 1}}


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from("abc"), _entry), st.dictionaries(st.sampled_from("xy"), _entry))
def test_outer_is_the_scalar_comprehension(x, y):
    out = outer(x, y)
    expected = {(r, c): scalar(vr * vc) for r, vr in x.items() for c, vc in y.items()}
    assert out == expected
    assert all(type(out[key]) is type(val) for key, val in expected.items())


def test_vector_text_reads_in_label_order():
    t = tensor_space(S2, S2)
    assert vector_text(t, {("y", "x"): -1, ("x", "y"): Q(1, 2)}) == "1/2*x⊗y + -1*y⊗x"
    assert vector_text(S3, {"z": 3, "x": 1}) == "1*x + 3*z"
    assert vector_text(S3, {}) == "0"


def test_tensor_space_labels():
    t = tensor_space(S2, S2)
    assert t.dim == 4
    assert ("x", "y") in t


def test_subspace_coordinates():
    sub = rref([vec(S3, 1, 0, 1), vec(S3, 0, 1, 1)], S3)
    v = vec(S3, 2, 3, 5)
    coords = sub.coordinates(v)
    # in row order
    assert coords == {0: Q(2), 1: Q(3)} and list(coords) == [0, 1]
    assert sub.coordinates(vec(S3, 2, 0, 2)) == {0: Q(2)}
    assert list(sub.coordinates({"y": 3, "z": 5, "x": 2})) == [0, 1]
    with pytest.raises(ShapeError):
        sub.coordinates(vec(S3, 0, 0, 1))
    # a label outside the ambient space is never a pivot: it is left over
    with pytest.raises(ShapeError):
        sub.coordinates({"x": 1, "z": 1, "w": 1})


def test_subspace_reads_an_explicit_zero_as_no_entry():
    # {x: 1, y: 0} is the vector x: it lies in span{x}, has residual 0 and
    # coordinate 1; a zero at a pivot label is no coordinate either
    sub = rref([{"x": 1}], S2)
    assert sub.contains({"x": 1, "y": 0})
    assert sub.reduce({"x": 1, "y": 0}) == {} and sub.reduce({"y": 0}) == {}
    assert sub.coordinates({"x": 1, "y": 0}) == {0: 1}
    assert sub.coordinates({"x": 0}) == {}


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
    return [v.get(lab, 0) for lab in space.labels]


def sparse(row, space):
    return {lab: scalar(c) for lab, c in zip(space.labels, row) if c}


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


@st.composite
def heavy_fill_rows(draw):
    """Rows over n <= 12 labels of rank up to n, where a new pivot meets
    many earlier rows and entries cancel: besides the drawn rows, each
    extra row is a drawn row a less the multiple of another drawn row b
    that zeroes a column both hold, a - (a_j / b_j) b."""
    n = draw(st.integers(1, 12))
    space = BasedSpace([f"u{i}" for i in range(n)])
    r = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(small_q, min_size=n, max_size=n), min_size=r, max_size=r))
    pick = st.integers(0, len(rows) - 1)
    for _ in range(draw(st.integers(0, n))):
        a, b, j = rows[draw(pick)], rows[draw(pick)], draw(st.integers(0, n - 1))
        if b[j]:
            rows.append([x - a[j] / b[j] * y for x, y in zip(a, b)])
    rows = draw(st.permutations(rows))
    probe = draw(st.lists(small_q, min_size=n, max_size=n))
    mix = draw(st.lists(small_q, min_size=len(rows), max_size=len(rows)))
    return space, rows, probe, mix


@settings(max_examples=200, deadline=None)
@given(redundant_rows())
def test_sparse_elimination_matches_dense_oracle(case):
    space, rows = case[:2]
    assert len(dense_rref(rows, space.dim)[0]) <= 0.3 * len(rows)
    _check_against_dense(*case)


@settings(max_examples=200, deadline=None)
@given(heavy_fill_rows())
def test_sparse_elimination_matches_dense_oracle_under_fill_in(case):
    # rref's column index: a new pivot is eliminated from the rows that
    # hold its label, and a label that cancels in a row leaves its set
    _check_against_dense(*case)


def _check_against_dense(space, rows, probe, mix):
    n = space.dim
    pivots, reduced = dense_rref(rows, n)
    # the rows as given, zeros and all: rref drops the zeros
    sub = rref([dict(zip(space.labels, r)) for r in rows], space)
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
    ker = kernel_of_rows([dict(zip(space.labels, r)) for r in rows], space)
    null_pivots, null_rows = dense_rref(null, n)
    assert list(ker.pivots) == null_pivots
    assert [dense(r, space) for r in ker.rows] == null_rows
    assert all(normalized(r) for r in ker.rows)
    for k in ker.rows:
        for r in rows:
            assert sum((a * b for a, b in zip(dense(k, space), r)), Q(0)) == 0
