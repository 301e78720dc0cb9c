import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations

import pytest
from dictmat import lin
from oracles import beta_star, level_lemma_faults

import rootgraded.graded as graded
from rootgraded import cli
from rootgraded.coord import (
    CoordinateQuadruple,
    _bilinear,
    clifford_quadruple,
    inner_scale,
    parse_preset_spec,
    validate_quadruple,
)
from rootgraded.exactla import SparseMatrix, apply, q_str
from rootgraded.graded import (
    ModelError,
    build_model,
    level_coset,
    subalgebra,
    verify_antisymmetry,
    verify_grading,
    verify_jacobi,
    verify_level_transition,
)
from rootgraded.liealg import build_algebra, d_uw, truncation_idempotent, v_ops
from rootgraded.rootsys import Root, generate, root_str

_CACHE = {}


def model(family, n, ell, preset, k="zero", override=False):
    key = (family, n, ell, preset, k, override)
    if key not in _CACHE:
        _CACHE[key] = build_model(
            family, n, ell, parse_preset_spec(preset), k, override_bounds=override
        )
    return _CACHE[key]


def nilpotent_pair_quadruple():
    """F[x,y]/(x,y)^2: commutative with nonzero cyclic homology (x wedge y)."""
    labels = ["n:1", "n:x", "n:y"]
    mult = {}
    for l1 in labels:
        for l2 in labels:
            if l1 == "n:1":
                mult[(l1, l2)] = {l2: Q(1)}
            elif l2 == "n:1":
                mult[(l1, l2)] = {l1: Q(1)}
            else:
                mult[(l1, l2)] = {}
    return CoordinateQuadruple(
        "D", labels, mult, {"n:1": Q(1)}, {(l, l): Q(1) for l in labels},
        name="nilpotent_pair",
    )


def _kinds(m, x):
    """The basis kinds ("g", "s", "v", "d") of the indices of an element."""
    return {m.basis[i][0] for i in x}


def test_build_model_dimensions():
    m = model("BC", 5, 4, "symplectic:m=2")
    assert len(m.G.wb.basis_mats) == 55  # sp(5)
    v_part = [b for b in m.basis if b[0] == "v"]
    assert len(v_part) == 20  # dim V * dim C = 10 * 2
    assert m.dim == 55 + 44 * 0 + 20 + m.dpart.dim


def test_type_mismatch_error():
    with pytest.raises(ModelError):
        build_model("A", 6, 5, parse_preset_spec("symplectic:m=2"))


def test_rank_bound_enforced_with_override():
    q = parse_preset_spec("symplectic:m=2")
    with pytest.raises(ModelError):
        build_model("BC", 4, 3, q)
    m = build_model("BC", 4, 3, q, override_bounds=True)
    assert m.sub_bound


def test_k_span_outside_homology_rejected():
    q = parse_preset_spec("matrix:k=2")
    import rootgraded.coord as coord

    bb = coord.build_bb(q, 5)
    fh = coord.full_homology(bb)
    csp = bb.quotient.coset_space
    outside = next({l: 1} for l in csp.labels if not fh.contains({l: 1}))
    with pytest.raises(ValueError):
        build_model("A", 6, 5, q, [outside])


def test_uniform_verdict_fails_when_beta_star_misses_a_relation(monkeypatch):
    # with the unit added to the beta* rows on every basis pair, beta* is
    # 2 * unit on the generator x(x)x + x(x)x of K, so K = 0 is no longer
    # uniform
    import rootgraded.coord as coord

    real = coord.beta_star_map_rows

    def with_unit(q):
        rows = real(q)
        for r, u in q.unit.items():
            row = rows.get(r, {})
            shifted = {lab: row.get(lab, 0) + u for lab in q.bb_space.labels}
            rows[r] = {lab: v for lab, v in shifted.items() if v}
        return rows

    monkeypatch.setattr(coord, "beta_star_map_rows", with_unit)
    q = parse_preset_spec("matrix:k=2")
    bb = coord.build_bb(q, 5)
    report = coord.check_uniform(bb, [], fh=coord.full_homology(bb), cross_check_ell=7)
    assert report["uniform"] is False
    # the witness prints the pair label of the relation as "x⊗y"
    assert report["witness"] == "1*m:0,0⊗m:0,0"
    assert report["cross_check"] == {"ell": 7, "uniform": False}
    with pytest.raises(ModelError, match="uniform property: witness 1\\*m:0,0⊗m:0,0$"):
        build_model("A", 6, 5, q)


def test_dpart_basis_label_prints_the_coset_pair():
    m = model("A", 6, 5, "matrix:k=2")
    d_labels = [m.basis_label(i) for i, (kind, _) in enumerate(m.basis) if kind == "d"]
    assert d_labels[0] == "d[m:1,0⊗m:0,1]"
    assert len(d_labels) == m.dpart.dim == 3


def test_unit_row_bracket():
    # [x (x) 1, y (x) 1] = [x, y] (x) 1 (the 1(x)1 coset dies in the quotient)
    m = model("BC", 4, 4, "symplectic:m=2")
    unit_coords = m.quadruple.a_part_sub.coordinates(m.quadruple.unit)
    assert unit_coords == {0: Q(1)}
    gdim = len(m.G.wb.basis_mats)
    for i in range(0, gdim, 7):
        for j in range(0, gdim, 11):
            xi = m.index_of[("g", (i, 0))]
            xj = m.index_of[("g", (j, 0))]
            row = m.bracket_indices(xi, xj)
            expected = {
                m.index_of[("g", (k, 0))]: c
                for k, c in m._g_lie.get((min(i, j), max(i, j)), {}).items()
            }
            if i > j:
                expected = {k: -c for k, c in expected.items()}
            if i == j:
                expected = {}
            assert row == expected


def test_type_d_dpart_abelian_and_central():
    m = build_model("D", 6, 5, nilpotent_pair_quadruple(), "zero")
    d_idx = [i for i, (k, _) in enumerate(m.basis) if k == "d"]
    assert len(d_idx) == 1  # HC1 of F[x,y]/(x,y)^2 is one dimensional
    for i in d_idx:
        for j in range(m.dim):
            assert not m.bracket_indices(i, j)


def test_type_d_k_fh_quotients_everything():
    m = build_model("D", 6, 5, nilpotent_pair_quadruple(), "fh")
    assert m.dpart.dim == 0
    assert m.dim == len(m.G.wb.basis_mats) * 3


def test_k_vectors_given_as_entry_dicts_are_stored_clean():
    # a K vector from the API is read like any input vector: zeros dropped,
    # integral Fractions made ints, and a label outside the coset space refused
    q = nilpotent_pair_quadruple()
    (lab,) = build_model("D", 6, 5, q, "zero").dpart.coset_labels
    m = build_model("D", 6, 5, q, [{lab: Q(4, 2)}, {lab: 0}])
    assert m.k_vectors == [{lab: 2}, {}] and type(m.k_vectors[0][lab]) is int
    assert m.dpart.dim == 0
    # 1 (x) 1 lies in the relation space: it is no coset label
    with pytest.raises(ValueError, match="not in space"):
        build_model("D", 6, 5, q, [{("n:1", "n:1"): 1}])


def test_bc_symplectic_orthogonal_vectors_row():
    # (u, v) = 0 and heart = 0: [u(x)c, v(x)c'] = (u o v)(x) (c diamond c')
    m = model("BC", 4, 4, "symplectic:m=2")
    i = m.G.space.pos("v:1")
    j = m.G.space.pos("v:2")
    xi = m.index_of[("v", (i, 0))]
    xj = m.index_of[("v", (j, 1))]
    row = m.bracket_indices(xi, xj)
    assert row
    kinds = {m.basis[idx][0] for idx in row}
    assert kinds == {"g"}  # only the circ (x) diamond term survives
    nat = m.G.nat
    u, w = {"v:1": 1}, {"v:2": 1}
    q = m.quadruple
    # f(c, c') is the (C, C) block of b's product
    f01, f10 = (q.b_table.get(l, {}) for l in [("c:0", "c:1"), ("c:1", "c:0")])
    dia = lin((Q(1, 2), f01), (Q(-1, 2), f10))
    expected = {}
    for gi, cg in m.G.wb.coords(v_ops(u, w, nat, m.idem0, m.m0, "circ")).items():
        for ai, ca in m.quadruple.a_part_sub.coordinates(dia).items():
            expected[m.index_of[("g", (gi, ai))]] = cg * ca
    assert row == expected


def test_exhaustive_antisymmetry_and_jacobi_small_bc():
    m = model("BC", 4, 4, "symplectic:m=2")
    ra = verify_antisymmetry(m)
    assert ra["status"] == "pass"
    sizes = Counter(kind for kind, _ in m.basis)
    assert len(sizes) == 3  # g, v and d
    assert ra["pairs_checked"] == sum(n * (n - 1) // 2 for n in sizes.values())
    assert ra["pairs_structural"] == sum(a * b for a, b in combinations(sizes.values(), 2))
    rj = verify_jacobi(m, {"kind": "exhaustive_basis"})
    assert rj["status"] == "pass"
    assert rj["triples"] == sum(
        1
        for i in range(m.dim)
        for j in range(i, m.dim)
        for k in range(j, m.dim)
    )


def _naive_witness(m, i, j, k):
    """The report witness of the triple (i, j, k) when its Jacobi defect
    over ``bracket_indices`` is nonzero, else None."""
    defect = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for mid, x in m.bracket_indices(b, c).items():
            for idx, y in m.bracket_indices(a, mid).items():
                defect[idx] = defect.get(idx, 0) + x * y
    defect = sorted(idx for idx, v in defect.items() if v)
    if defect:
        labels = [m.basis_label(t) for t in (i, j, k)]
        return {"triple": labels, "defect_indices": defect}
    return None


def _naive_jacobi(m):
    """Every triple i <= j <= k, in lexicographic order, whose Jacobi defect
    is nonzero, with the number of triples up to and including it and its
    report witness."""
    count, out = 0, []
    for i in range(m.dim):
        for j in range(i, m.dim):
            for k in range(j, m.dim):
                count += 1
                w = _naive_witness(m, i, j, k)
                if w:
                    out.append((count, (i, j, k), w))
    return out


def _mutated_model(config, seed, mutation):
    """A fresh model whose ``table`` has one coefficient flipped or tripled,
    or a zero bracket given the value of a nonzero one (appended last, out
    of index order); or, for the ``fraction_*`` mutations, its first
    non-integral coefficient in table order flipped or divided by 3."""
    m = build_model(*config[:3], parse_preset_spec(config[3]))
    rng = random.Random(seed)
    a, b = rng.choice(sorted(m.table))
    if mutation.startswith("fraction"):
        (a, b), idx = next(
            (key, idx)
            for key, row in sorted(m.table.items())
            for idx in sorted(row)
            if type(row[idx]) is not int
        )
        m.table[a, b][idx] *= -1 if mutation == "fraction_flip" else Q(1, 3)
    elif mutation == "insert":
        zero = [(c, d) for c in range(m.dim) for d in range(c + 1, m.dim) if (c, d) not in m.table]
        c, d = rng.choice(zero)
        m.table[c, d] = dict(m.table[a, b])
    else:
        idx = rng.choice(sorted(m.table[a, b]))
        m.table[a, b][idx] *= -1 if mutation == "flip" else 3
    return m


MUTANT_CONFIGS = pytest.mark.parametrize(
    "config", [("BC", 5, 4, "symplectic:m=2"), ("B", 6, 5, "clifford:d=2")],
    ids=lambda c: " ".join(map(str, c)),
)
MUTATIONS = pytest.mark.parametrize("seed,mutation", [(1, "flip"), (2, "triple"), (3, "insert")])


@MUTANT_CONFIGS
@MUTATIONS
def test_exhaustive_jacobi_matches_naive_on_mutants(config, seed, mutation):
    # the anchor pass must neither miss the fault nor change which triples
    # report it
    m = _mutated_model(config, seed, mutation)
    r = verify_jacobi(m, {"kind": "exhaustive_basis"})
    bad = _naive_jacobi(m)
    assert r["status"] == "fail"
    assert r["triples"] == bad[4][0]
    assert r["witnesses"] == [w for _, _, w in bad[:5]]
    # beyond the fifth witness too, the anchor pass reports every faulty
    # triple, and only those, with its defect indices
    adj = graded._adjacency(m)
    found = {
        (i, j, k): sorted(defect)
        for i in range(m.dim)
        for (j, k), defect in graded._anchor_defects(adj, i, i + 1).items()
    }
    assert found == {ijk: w["defect_indices"] for _, ijk, w in bad}


@pytest.mark.parametrize("mutation", ["fraction_flip", "fraction_third"])
def test_exhaustive_jacobi_matches_naive_on_a_fraction_mutant(mutation):
    # a fault on a coefficient of 1/2, one of 20 among 858 entries: the
    # flat lists hold it as an integer over the lcm of the denominators,
    # which dividing by 3 moves from 2 to 6
    test_exhaustive_jacobi_matches_naive_on_mutants(("BC", 5, 4, "symplectic:m=2"), 0, mutation)


EXHAUSTIVE = {"kind": "exhaustive_basis"}
# the four models of the benchmark's jacobi_exhaustive workload
JACOBI_MODELS = [
    ("BC", 5, 4, "symplectic:m=2"),
    ("B", 6, 5, "clifford:d=2"),
    ("A", 6, 5, "matrix:k=2"),
    ("D", 7, 5, "group_ring:m=3"),
]


def _scan_report(m):
    """The exhaustive report of the bounded scan over every anchor: the
    defects of i < j < k from ``_anchor_defects(adj, i, i + 1)``, in order,
    and ``triples`` the position of the fifth in the lexicographic order of
    the triples i <= j <= k, or all of them."""
    adj = graded._adjacency(m)
    dim = m.dim
    count, witnesses = dim * (dim + 1) * (dim + 2) // 6, []
    for i in range(dim):
        for (j, k), defect in sorted(graded._anchor_defects(adj, i, i + 1).items()):
            witnesses.append(
                {"triple": [m.basis_label(t) for t in (i, j, k)], "defect_indices": sorted(defect)}
            )
            if len(witnesses) == 5:
                count = (
                    sum((dim - a) * (dim - a + 1) // 2 for a in range(i))
                    + sum(dim - b for b in range(i, j))
                    + k - j + 1
                )
                break
        if len(witnesses) == 5:
            break
    status = "fail" if witnesses else "pass"
    name = "jacobi[exhaustive_basis]"
    return {"name": name, "status": status, "triples": count, "witnesses": witnesses}


TABLE_FAULTS = [
    (config, seed, mutation)
    for config in JACOBI_MODELS
    for seed, mutation in [
        (1, "flip"), (2, "triple"), (3, "insert"), (0, "fraction_flip"), (0, "fraction_third")
    ]
    # B and D tables are integral: a fraction mutant needs a non-integral entry
    if not (mutation.startswith("fraction") and config[0] in ("B", "D"))
]


def _param_id(v):
    return " ".join(map(str, v)) if isinstance(v, tuple) else str(v)


@pytest.mark.parametrize("config,seed,mutation", TABLE_FAULTS, ids=_param_id)
def test_exhaustive_jacobi_matches_the_scan_on_a_table_fault(config, seed, mutation):
    # where the proof from the symmetries does not close, the report is the
    # scan's, failing witnesses and ``triples`` included
    m = _mutated_model(config, seed, mutation)
    assert graded._jacobi_anchors(m, graded._adjacency(m)) is None
    r = verify_jacobi(m, EXHAUSTIVE)
    assert r["status"] == "fail"
    assert r == _scan_report(m)


DOUBLINGS = [
    (config, block, t)
    for config in JACOBI_MODELS
    for block, terms in graded.TERMS[config[0]].items()
    for t in range(len(terms))
]


@pytest.mark.parametrize(
    "config,block,t", DOUBLINGS, ids=[f"{c[0]}-{block}-{t}" for c, block, t in DOUBLINGS]
)
def test_exhaustive_jacobi_matches_the_scan_on_a_doubled_term(monkeypatch, config, block, t):
    # one term scaled by 2: a no-op, a rescaling, or a table that fails
    # Jacobi (16 of the 37); in each case the report is the scan's, and the
    # proof from the symmetries closes exactly where Jacobi holds
    family = config[0]
    terms = list(graded.TERMS[family][block])
    terms[t] = terms[t]._replace(scale=terms[t].scale * 2)
    monkeypatch.setitem(graded.TERMS[family], block, tuple(terms))
    m = build_model(*config[:3], parse_preset_spec(config[3]))
    r = verify_jacobi(m, EXHAUSTIVE)
    assert r == _scan_report(m)
    assert (graded._jacobi_anchors(m, graded._adjacency(m)) is None) == (r["status"] == "fail")


@pytest.mark.parametrize(
    "config,anchors",
    [
        # the six headline models, the first, third, fourth and fifth also
        # the jacobi_exhaustive models
        (("BC", 5, 4, "symplectic:m=2"), 5),
        (("BC", 5, 4, "matrix_hermitian:k=2,m=2"), 9),
        (("A", 6, 5, "matrix:k=2"), 7),
        (("D", 7, 5, "group_ring:m=3"), 3),
        (("B", 6, 5, "clifford:d=2"), 4),
        (("C", 6, 5, "matrix_transpose:k=2"), 7),
    ],
    ids=_param_id,
)
def test_exhaustive_jacobi_is_proved_from_the_anchors(monkeypatch, config, anchors):
    # the proof closes: every walk is an anchor's, over all y < z, and
    # there are few of them; the report is the scan's pass
    m = model(*config)
    walks = []
    walk = graded._anchor_defects
    monkeypatch.setattr(
        graded, "_anchor_defects", lambda adj, i, lo: walks.append((i, lo)) or walk(adj, i, lo)
    )
    r = verify_jacobi(m, EXHAUSTIVE)
    assert r == {
        "name": "jacobi[exhaustive_basis]",
        "status": "pass",
        "triples": m.dim * (m.dim + 1) * (m.dim + 2) // 6,
        "witnesses": [],
    }
    assert [lo for _, lo in walks] == [0] * anchors
    # every candidate generator is kept
    adj = graded._adjacency(m)
    entries = {b + idx: c for idx, (bases, cs) in enumerate(adj[1]) for b, c in zip(bases, cs)}
    for relabel in graded._candidates(m):
        mapped = graded._signed_map(m, relabel)
        assert mapped and graded._preserves(adj, entries, *mapped)


def test_jacobi_anchors_need_each_premise(monkeypatch):
    m = model("BC", 5, 4, "symplectic:m=2")
    adj = graded._adjacency(m)
    assert graded._jacobi_anchors(m, adj) is not None
    # (i): a key (b, a) with b > a, even with an empty row, which leaves
    # the walks as they were, is not a table stored once per pair a < b
    (a, b), _row = next(iter(m.table.items()))
    m2 = build_model("BC", 5, 4, parse_preset_spec("symplectic:m=2"))
    m2.table[b, a] = {}
    assert graded._jacobi_anchors(m2, graded._adjacency(m2)) is None
    # (iv): brackets of opposite weights that miss part of the zero-weight space
    span = graded._zero_weight_span

    def short(*args):
        zero_space, sub, stray = span(*args)
        return zero_space, graded.rref(list(sub.rows)[1:], zero_space), stray

    monkeypatch.setattr(graded, "_zero_weight_span", short)
    assert graded._jacobi_anchors(m, adj) is None


def test_generators_that_move_the_cartan_off_the_basis_are_dropped():
    # type C moves index n out of S's Cartan basis, so a relabelling that
    # moves n has no signed map; _candidates leaves n out on C and BC
    m = model("BC", 7, 4, "matrix_hermitian:k=2,m=2")

    def cycle(*idx):
        return {f"{k}:{i}": (f"{k}:{j}", 1) for k in ("v", "vb") for i, j in zip(idx, idx[1:] + idx[:1])}

    # I \\ I_0 = 5..7: (5 6) is kept, (5 6 7), which moves 7, is dropped
    assert graded._signed_map(m, cycle(5, 6)) is not None
    assert graded._signed_map(m, cycle(5, 6, 7)) is None
    assert cycle(5, 6, 7) not in graded._candidates(m)
    a = model("A", 6, 5, "matrix:k=2")
    moved = {int(lab.partition(":")[2]) for relabel in graded._candidates(a) for lab in relabel}
    assert moved == {1, 2, 3, 4, 5}


@pytest.mark.parametrize(
    "config,moved",
    [
        # A, C and BC leave index n out of the permutations, B and D keep it
        (("A", 6, 5, "matrix:k=2"), (1, 2, 3, 4, 5)),
        (("B", 6, 5, "clifford:d=2"), (1, 2, 3, 4, 5, 6)),
        (("C", 6, 5, "matrix_transpose:k=2"), (1, 2, 3, 4, 5, 6)),
        (("D", 7, 5, "group_ring:m=3"), (1, 2, 3, 4, 5, 6, 7)),
        (("BC", 7, 4, "matrix_hermitian:k=2,m=2"), (1, 2, 3, 4, 5, 6)),
    ],
    ids=_param_id,
)
def test_every_candidate_generator_is_kept(config, moved):
    # each candidate sends every basis object to plus or minus one; on C
    # and BC the sign change at a block's first index may be at n (C n6:
    # I_0 = 1..5, I \\ I_0 = {6}, and 6 moves only under the sign change)
    m = model(*config)
    cands = graded._candidates(m)
    assert cands and all(cands)
    assert all(graded._signed_map(m, relabel) is not None for relabel in cands)
    assert {int(lab.partition(":")[2]) for relabel in cands for lab in relabel} == set(moved)


@pytest.mark.parametrize(
    "config,ns,anchors",
    [
        (("C", 5, "matrix_transpose:k=2"), (8, 9), 14),
        (("BC", 4, "matrix_hermitian:k=2,m=2"), (7, 8), 16),
    ],
    ids=_param_id,
)
def test_anchor_count_does_not_grow_with_n(config, ns, anchors):
    # with index n out of the permutations on C and BC, one more index of
    # I \\ I_0 adds no orbit
    family, ell, preset = config
    counts = []
    for n in ns:
        m = build_model(family, n, ell, parse_preset_spec(preset))
        counts.append(len(graded._jacobi_anchors(m, graded._adjacency(m))))
    assert counts == [anchors, anchors]


@MUTANT_CONFIGS
@MUTATIONS
def test_random_jacobi_matches_naive_on_mutants(config, seed, mutation):
    # the same seeded draws, evaluated naively, give the same witnesses and
    # the same ``triples``; about 1 in 2,000 to 4,000 draws hits the fault
    m = _mutated_model(config, seed, mutation)
    samples = 50000
    r = verify_jacobi(m, {"kind": "random", "samples": samples, "seed": seed})
    rng = random.Random(seed)
    count, witnesses = samples, []
    for t in range(samples):
        i, j, k = rng.randrange(m.dim), rng.randrange(m.dim), rng.randrange(m.dim)
        w = _naive_witness(m, i, j, k)
        if w:
            witnesses.append(w)
            if len(witnesses) == 5:
                count = t + 1
                break
    assert witnesses, "no draw reaches the fault"
    assert r["status"] == "fail"
    assert r["triples"] == count
    assert r["witnesses"] == witnesses


@pytest.mark.parametrize("mutation", [None, "flip"])
def test_exhaustive_jacobi_ignores_table_order(mutation):
    # the report depends on the table's contents, not on the order its
    # pairs and row entries were inserted in
    config = ("B", 6, 5, "clifford:d=2")
    if mutation:
        m = _mutated_model(config, 1, mutation)
    else:
        m = build_model(*config[:3], parse_preset_spec(config[3]))
    exhaustive = {"kind": "exhaustive_basis"}
    before = json.dumps(verify_jacobi(m, exhaustive))
    m.table = {key: dict(reversed(row.items())) for key, row in reversed(m.table.items())}
    assert json.dumps(verify_jacobi(m, exhaustive)) == before
    assert (json.loads(before)["status"] == "fail") == bool(mutation)


def test_verify_jacobi_keeps_no_state_on_the_model():
    m = model("BC", 5, 4, "symplectic:m=2")
    before = dict(vars(m))
    table = {key: dict(row) for key, row in m.table.items()}
    for strategy in (
        {"kind": "exhaustive_basis"},
        {"kind": "random", "samples": 500, "seed": 3},
    ):
        assert verify_jacobi(m, strategy)["status"] == "pass"
        assert vars(m) == before
        assert m.table == table


@pytest.mark.parametrize(
    "strategy", [{"kind": "exhaustive"}, {"kind": "exhaustive", "samples": 10, "seed": 1}, {}]
)
def test_verify_jacobi_rejects_an_unknown_kind(strategy):
    m = model("BC", 5, 4, "symplectic:m=2")
    with pytest.raises(ValueError, match="'exhaustive_basis' or 'random'"):
        verify_jacobi(m, strategy)


def test_unknown_k_form_is_a_model_error():
    with pytest.raises(ModelError, match="unknown K form 'max'"):
        build_model("BC", 5, 4, parse_preset_spec("symplectic:m=2"), "max")


def test_random_jacobi_type_a():
    m = model("A", 6, 5, "matrix:k=2")
    r = verify_jacobi(m, {"kind": "random", "samples": 500, "seed": 42})
    assert r["status"] == "pass" and r["triples"] == 500


@pytest.mark.parametrize(
    "family,n,ell,preset",
    [
        ("BC", 4, 4, "symplectic:m=2"),
        ("A", 6, 5, "matrix:k=2"),
        ("B", 5, 5, "clifford:d=2"),
        ("C", 5, 5, "matrix_transpose:k=2"),
    ],
)
def test_grading_small_models(family, n, ell, preset):
    r = verify_grading(model(family, n, ell, preset))
    assert r["status"] == "pass", r


def test_grading_type_d():
    m = build_model("D", 6, 5, nilpotent_pair_quadruple(), "zero")
    r = verify_grading(m)
    assert r["status"] == "pass", r


def test_weight_table_dimensions_bc():
    m = model("BC", 4, 4, "symplectic:m=2")
    dims = {}
    for w in m.weight_of:
        dims[w] = dims.get(w, 0) + 1
    assert dims[Root.eps(1)] == 2  # dim C
    assert dims[Root.eps(1) + Root.eps(2)] == 1  # dim A + dim B = 1 + 0
    assert dims[Root.eps(1, 2)] == 1  # dim A


def test_subalgebra_full_system_is_whole_model():
    m = model("BC", 4, 4, "symplectic:m=2")
    sub = subalgebra(m, generate("BC", 4).nonzero())
    assert sub.dim == m.dim
    assert sub.verify()["status"] == "pass"


def test_subalgebra_proper_subsystem():
    m = model("BC", 5, 4, "symplectic:m=2")
    sub = subalgebra(m, generate("BC", 4).nonzero())
    r = sub.verify()
    assert r["status"] == "pass"
    assert sub.dim < m.dim


def test_subalgebra_rejects_bad_subsets():
    m = model("BC", 4, 4, "symplectic:m=2")
    with pytest.raises(ModelError):
        subalgebra(m, [Root.eps(1) - Root.eps(2)])  # not reflection closed
    disconnected = [
        Root.eps(1, 2), Root.eps(1, -2), Root.eps(1), Root.eps(1, -1),
        Root.eps(2, 2), Root.eps(2, -2), Root.eps(2), Root.eps(2, -1),
    ]
    with pytest.raises(ModelError):
        subalgebra(m, disconnected)


FAULT_MODELS = [("BC", 4, 4, "symplectic:m=2"), ("A", 6, 5, "matrix:k=2")]


def _check_status(report: dict) -> dict[str, str]:
    return {c["name"]: c["status"] for c in report["checks"]}


@pytest.mark.parametrize("config", FAULT_MODELS, ids=lambda c: " ".join(map(str, c)))
def test_grading_fails_on_a_tripled_g_row(config):
    # the row [h (x) a, x (x) a] for a Cartan vector h and a root vector x,
    # a in the support of the unit, tripled: x -> x (x) 1 stops being a
    # homomorphism and x (x) a stops being an ad-eigenvector
    m = model(*config)
    q = m.quadruple
    p = min(q.a_part_sub.coordinates(q.unit))
    g_unit = [i for i, (kind, key) in enumerate(m.basis) if kind == "g" and key[1] == p]
    key = next(
        (min(h, x), max(h, x))
        for h in g_unit
        if m.weight_of[h].is_zero()
        for x in g_unit
        if (min(h, x), max(h, x)) in m.table and not m.weight_of[x].is_zero()
    )
    table = m.table
    try:
        m.table = dict(table)
        m.table[key] = {idx: 3 * c for idx, c in table[key].items()}
        status = _check_status(verify_grading(m))
    finally:
        m.table = table
    assert status["grading-pair: x -> x(x)1 is a Lie homomorphism"] == "fail"
    assert status["weight decomposition: ad-eigenvector check"] == "fail"
    assert verify_grading(m)["status"] == "pass"


@pytest.mark.parametrize("fault", ["non-root weight", "opposite rows deleted", "stray entry"])
@pytest.mark.parametrize("config", FAULT_MODELS, ids=lambda c: " ".join(map(str, c)))
def test_grading_weight_table_and_l0_fail(config, fault):
    # one index's weight moved out of R, every [x_alpha, x_-alpha] row
    # deleted, or an index of nonzero weight added to one such row: the weight
    # table or the L_0 check fails with its witness, also once flattened
    m = model(*config)
    table, weight_of = m.table, m.weight_of
    by_weight = m.indices_by_weight()
    opposite = [k for k in table if weight_of[k[0]] == -weight_of[k[1]] != Root.zero()]
    i = next(i for i, w in enumerate(weight_of) if not w.is_zero())
    name = "L_0 = sum of [L_alpha, L_-alpha]"
    m.table, m.weight_of = dict(table), list(weight_of)
    try:
        if fault == "non-root weight":
            m.weight_of[i] = Root.eps(1, 3)
            name = "weight table: weights in R and dimensions match"
            dim = len(by_weight[weight_of[i]])
            expected = ["3e1", {"root": root_str(weight_of[i]), "dim": dim - 1, "expected": dim}]
        elif fault == "opposite rows deleted":
            for key in opposite:
                del m.table[key]
            expected = [f"span dim 0 < zero-weight dim {len(by_weight[Root.zero()])}"]
        else:
            m.table[opposite[0]] = {**table[opposite[0]], i: Q(1)}
            # the bracket is met once, not once in each order
            expected = [f"opposite-root bracket has nonzero weight part at {[i]}"]
        report = verify_grading(m)
    finally:
        m.table, m.weight_of = table, weight_of
    check = {c["name"]: c for c in report["checks"]}[name]
    assert check["status"] == "fail" and check["witnesses"] == expected
    flat = cli._flatten(report)
    assert flat["status"] == "fail"
    assert {"check": name, "witnesses": expected} in flat["witnesses"]
    assert verify_grading(m)["status"] == "pass"


@pytest.mark.parametrize(
    "config", FAULT_MODELS + [("C", 5, 5, "matrix_transpose:k=2")], ids=lambda c: " ".join(map(str, c))
)
def test_grading_homomorphism_fails_on_a_scaled_root_row(config):
    # the row [x (x) a, y (x) a] of two root vectors x, y whose bracket is
    # nonzero, a in the support of the unit, doubled: x -> x (x) 1 stops
    # being a homomorphism at exactly that pair, while no Cartan row changes
    m = model(*config)
    q = m.quadruple
    p = min(q.a_part_sub.coordinates(q.unit))
    g_roots = [
        i
        for i, (kind, key) in enumerate(m.basis)
        if kind == "g" and key[1] == p and not m.weight_of[i].is_zero()
    ]
    key = next((x, y) for x in g_roots for y in g_roots if (x, y) in m.table)
    table = m.table
    try:
        m.table = dict(table)
        m.table[key] = {idx: 2 * c for idx, c in table[key].items()}
        checks = {c["name"]: c for c in verify_grading(m)["checks"]}
    finally:
        m.table = table
    hom = checks["grading-pair: x -> x(x)1 is a Lie homomorphism"]
    assert hom["status"] == "fail"
    assert hom["witnesses"] == [[m.basis_label(key[0]), m.basis_label(key[1])]]
    assert checks["weight decomposition: ad-eigenvector check"]["status"] == "pass"
    assert verify_grading(m)["status"] == "pass"


@pytest.mark.parametrize("config", FAULT_MODELS, ids=lambda c: " ".join(map(str, c)))
def test_subsystem_closure_fails_on_a_stray_index(config):
    # a basis index of a weight outside S added to the bracket of two
    # elements of S: the subalgebra is no longer closed
    m = model(*config)
    sub = subalgebra(m, generate(m.family, m.n - 1).nonzero())
    a, b = sub.nonzero_indices[:2]
    stray = next(
        i for i, w in enumerate(m.weight_of) if not w.is_zero() and w not in sub.s_roots
    )
    table = m.table
    try:
        m.table = dict(table)
        m.table[a, b] = {**table.get((a, b), {}), stray: Q(1)}
        status = _check_status(sub.verify())
    finally:
        m.table = table
    assert status["subalgebra closed under bracket"] == "fail"
    assert sub.verify()["status"] == "pass"


@pytest.mark.parametrize("config", FAULT_MODELS, ids=lambda c: " ".join(map(str, c)))
def test_subsystem_closure_fails_on_an_escaping_zero_weight_index(config):
    # a zero-weight basis index outside the subalgebra's zero part added to
    # the bracket of two elements of S: the zero-weight part escapes
    m = model(*config)
    sub = subalgebra(m, generate(m.family, m.n - 1).nonzero())
    a, b = sub.nonzero_indices[:2]
    escaping = next(
        i
        for i, w in enumerate(m.weight_of)
        if w.is_zero() and not sub.zero_part.contains({i: 1})
    )
    table = m.table
    try:
        m.table = dict(table)
        m.table[a, b] = {**table.get((a, b), {}), escaping: Q(1)}
        checks = {c["name"]: c for c in sub.verify()["checks"]}
    finally:
        m.table = table
    closure = checks["subalgebra closed under bracket"]
    assert closure["status"] == "fail"
    assert closure["witnesses"] == ["zero-weight part escapes the subalgebra"]
    assert checks["grading pair root spaces present (S semi-divisible part)"]["status"] == "pass"
    assert sub.verify()["status"] == "pass"


def test_subsystem_brackets_a_zero_weight_row_by_linearity():
    # a stray entry u_t in each [x_y, x_t], u orthogonal to every zero row z
    # of the subalgebra, cancels in every [x_y, z]: the subalgebra stays
    # closed; with any one of them left out it leaves S
    m = model("A", 6, 5, "matrix:k=2")
    sub = subalgebra(m, generate(m.family, m.n - 1).nonzero())
    rows = sub.zero_part.rows
    pivots = [sub.zero_space.labels[p] for p in sub.zero_part.pivots]
    free = max(t for z in rows for t in z if t not in pivots)
    # row z is 1 at its pivot, so u is 1 at ``free`` and -z[free] there
    u = {free: 1, **{p: -z[free] for p, z in zip(pivots, rows) if free in z}}
    y = sub.nonzero_indices[0]
    # both storage directions of the pair (y, t) are met
    assert len(u) > 2 and min(u) < y < max(u)
    stray = next(i for i, w in enumerate(m.weight_of) if not w.is_zero() and w not in sub.s_roots)
    table = m.table

    def closure(faults):
        m.table = dict(table)
        for t, ut in faults.items():
            key, sign = ((y, t), 1) if y < t else ((t, y), -1)
            m.table[key] = {**table.get(key, {}), stray: sign * ut}
        try:
            return _check_status(sub.verify())["subalgebra closed under bracket"]
        finally:
            m.table = table

    assert closure(u) == "pass"
    for t in u:
        assert closure({s: ut for s, ut in u.items() if s != t}) == "fail"


def test_level_coset_at_base_subset_is_plain():
    m = model("BC", 5, 4, "symplectic:m=2")
    b = m.quadruple.b_space
    c0, c1 = {"c:0": 1}, {"c:1": 1}
    lc = level_coset(m, range(1, 5), c0, c1)
    assert lc and _kinds(m, lc) == {"d"}
    cosets = m.dpart.coset_space
    direct = m.dpart.relations.reduce(m.bb.pair_tensor(c0, c1))
    assert lc == {m.index_of[("d", (cosets.pos(l),))]: v for l, v in direct.items()}


def test_level_coset_correction_nonzero_type_a():
    m = model("A", 7, 5, "matrix:k=2")
    e01, e10 = {"m:0,1": 1}, {"m:1,0": 1}
    lc = level_coset(m, range(1, 8), e01, e10)
    assert "g" in _kinds(m, lc)  # [a, a'] != 0 so the correction appears
    lc0 = level_coset(m, range(1, 7), e01, e10)
    assert "g" not in _kinds(m, lc0)


def test_level_coset_type_d_level_independent():
    m = build_model("D", 7, 5, nilpotent_pair_quadruple(), "zero")
    x, y = {"n:x": 1}, {"n:y": 1}
    lc6 = level_coset(m, range(1, 7), x, y)
    lc7 = level_coset(m, range(1, 8), x, y)
    assert lc6 == lc7


def test_level_coset_validates_subset():
    m = model("BC", 5, 4, "symplectic:m=2")
    c0 = {"c:0": 1}
    with pytest.raises(ModelError):
        level_coset(m, [2, 3, 4, 5], c0, c0)  # misses I_0
    with pytest.raises(ModelError):
        level_coset(m, range(1, 7), c0, c0)  # exceeds truncation


@pytest.mark.parametrize("added", [1, 2])
def test_level_transition_bc(added):
    # the entry the CLI prints: the lemma's verdict, and the size of lambda
    r = verify_level_transition(model("BC", 5, 4, "symplectic:m=2"), added)
    assert r == {"status": "pass", "lambda_size": 4 + added, "witnesses": []}


@pytest.mark.parametrize("added", [1, 2])
def test_level_transition_type_a(added):
    r = verify_level_transition(model("A", 6, 5, "matrix:k=2"), added)
    assert r == {"status": "pass", "lambda_size": 6 + added, "witnesses": []}


def test_level_transition_refuses_no_added_index():
    with pytest.raises(ModelError):
        verify_level_transition(model("BC", 5, 4, "symplectic:m=2"), 0)


# the models of the level lemma: the A, C and BC headline models (and A at
# n = 7, where lambda past I_0 fits the truncation), every B and D preset,
# and the nilpotent pair
LEVEL_MODELS = [
    ("BC", 5, 4, "symplectic:m=2"),
    ("BC", 5, 4, "matrix_hermitian:k=2,m=2"),
    ("A", 6, 5, "matrix:k=2"),
    ("A", 7, 5, "matrix:k=2"),
    ("C", 6, 5, "matrix_transpose:k=2"),
    *(("B", 6, 5, f"clifford:d={d}") for d in (1, 2, 6)),
    *(("D", 7, 5, f"group_ring:m={k}") for k in (1, 3, 8)),
    ("D", 6, 5, "nilpotent_pair"),
]


@pytest.mark.parametrize("config", LEVEL_MODELS, ids=lambda c: " ".join(map(str, c)))
def test_level_lemma(config):
    # the lemma verify_level_transition reports, on real operators
    if config[3] == "nilpotent_pair":
        m = build_model(*config[:3], nilpotent_pair_quadruple(), "zero")
    else:
        m = model(*config)
    assert level_lemma_faults(m, graded._level_op) == []


def _level_op_without_factor(m, lam, space):
    # J_lambda - J_0: the m0/|lambda| factor dropped
    j_lam = truncation_idempotent(space, lam)
    return lin((1, j_lam), (-1, truncation_idempotent(space, range(1, m.m0 + 1))))


def _level_op_j0_on_all_indices(m, lam, space):
    # J_0 built on all n indices instead of I_0
    j_lam = truncation_idempotent(space, lam)
    j_0 = truncation_idempotent(space, range(1, m.n + 1))
    return lin((Q(m.m0, len(lam)), j_lam), (-1, j_0))


_LEVEL_OP = graded._level_op


def _level_op_not_form_compatible(m, lam, space):
    # plus e_{v:1,v:2}: still traceless, but op^T G = G op fails, and it
    # is no longer 0 at I_0
    return lin((1, _LEVEL_OP(m, lam, space)), (1, {("v:1", "v:2"): 1}))


@pytest.mark.parametrize("added", [1, 2])
@pytest.mark.parametrize(
    "mutant",
    [_level_op_without_factor, _level_op_j0_on_all_indices, _level_op_not_form_compatible],
    ids=["no-factor", "j0-on-all-n", "not-form-compatible"],
)
def test_level_transition_checks_can_fail(mutant, added):
    # the lemma's facts fail for each wrong formula, at lambda = I_0 plus
    # ``added``.  BC n5 l4 has n > m0, so J_0 on all n indices differs from
    # J_0 on I_0.  _level_op x 7 still satisfies the lemma: it stays
    # traceless, form-compatible and 0 at I_0; only the comparison of
    # values in ROADMAP item 7 can see a scale
    m = model("BC", 5, 4, "symplectic:m=2")
    assert level_lemma_faults(m, mutant, added=(added,)) != []


@pytest.mark.parametrize(
    "config",
    [("BC", 5, 4, "symplectic:m=2"), ("A", 6, 5, "matrix:k=2"), ("C", 5, 5, "matrix_transpose:k=2")],
    ids=lambda c: " ".join(map(str, c)),
)
def test_projection_kernel_is_the_relation_space(config):
    # why the transition suite has no kernel comparison: ker(projection) is
    # the relation space itself, and beta* vanishes on it (uniform property)
    m = model(*config)
    relations = m.dpart.relations
    assert relations.dim + m.dpart.dim == m.bb.tensor.dim
    for t in relations.rows:
        assert m.dpart.relations.reduce(t) == {}
        for row in m.bb.beta_rows.values():
            assert sum((row.get(lab, 0) * c for lab, c in t.items()), 0) == 0


@pytest.mark.parametrize("preset", ["symplectic:m=2", "matrix_hermitian:k=2,m=2"])
def test_bc_f_term_vanishes_on_the_relation_space(preset):
    # the lemma beside the D-part build: on C the derivation of a tensor t
    # is c -> kappa beta*(t).c - F(t)(c)/2, and F(t) = 0 for t in the
    # relation space, though not for every t
    m = model("BC", 5, 4, preset)
    q = m.quadruple
    kappa = inner_scale("BC", m.ell)
    c_basis = m.c_basis

    # a in a and c, c' in C, so b's product reads its (a, C) block for a.c
    # and its (C, C) block for f(c, c')
    def c_act(a, c):
        return lin((1, _bilinear(q.b_table, a, c)))

    def f_val(c, cp):
        return lin((1, _bilinear(q.b_table, c, cp)))

    def f_term(t, c):
        # c1 f(c, c2) + c2 f(c, c1) over the C (x) C entries c1 (x) c2 of t
        acc = {}
        for (l1, l2), coeff in t.items():
            if l1 in q.c_space and l2 in q.c_space:
                c1, c2 = {l1: 1}, {l2: 1}
                acc = lin((1, acc), (coeff, c_act(f_val(c, c2), c1)), (coeff, c_act(f_val(c, c1), c2)))
        return acc

    live = False
    for lab in m.bb.tensor.labels:
        t = {lab: 1}
        z = lin((kappa, beta_star(q, *({l: 1} for l in lab))))
        d = m.bb.derivation_of(t)
        for c in c_basis:
            f = f_term(t, c)
            live = live or f != {}
            # c is an element of b with the same entry dict
            assert apply(d, c) == lin((1, c_act(z, c)), (Q(-1, 2), f))
    assert live
    for t in m.dpart.relations.rows:
        for c in c_basis:
            assert f_term(t, c) == {}


def _dual_clifford_quadruple():
    """The rank-2 Clifford quadruple over A = F[t]/(t^2): basis 1, t, w1,
    w2, tw1, tw2 with wi.wj = delta_ij, * fixing A and negating W."""
    # t^p w_i as (p, i), w_0 = 1
    name = {(0, 0): "1", (1, 0): "t", (0, 1): "w:1", (0, 2): "w:2", (1, 1): "tw:1", (1, 2): "tw:2"}
    elems = list(name)
    mult = {}
    for p, i in elems:
        for r, j in elems:
            zero = p + r > 1 or (i and j and i != j)
            mult[name[p, i], name[r, j]] = {} if zero else {name[p + r, 0 if i and j else i or j]: 1}
    star = {(name[e], name[e]): -1 if e[1] else 1 for e in elems}
    return CoordinateQuadruple(
        "B", [name[e] for e in elems], mult, {"1": 1}, star, name="dual_clifford"
    )


def _type_b_quadruple(spec):
    if spec == "dual_clifford":
        return _dual_clifford_quadruple()
    if spec.startswith("o_B"):
        nat = build_algebra("B", int(spec[4:-1])).nat
        return clifford_quadruple(nat.space.labels, nat.gram, name=spec)
    return parse_preset_spec(spec)


@pytest.mark.parametrize(
    "spec",
    ["clifford:d=1", "clifford:d=2", "clifford:d=3", "o_B(1)", "o_B(2)", "o_B(3)", "dual_clifford"],
)
def test_type_b_derivations_kill_the_a_part(monkeypatch, spec):
    # why TERMS["B"] has no "gd": every pair derivation kills the A-part,
    # so the term -x (x) d(a), put back here, adds nothing to the table
    q = _type_b_quadruple(spec)
    assert validate_quadruple(q)["valid"]
    m = build_model("B", 5, 5, q)
    for lab in m.bb.tensor.labels:
        d = m.bb.derivation_of({lab: 1})
        assert all(apply(d, a) == {} for a in q.a_part_sub.rows)
    monkeypatch.setitem(
        graded.TERMS["B"], "gd", (graded.Term("g", graded._first, graded._deriv, -1),)
    )
    assert m._block("g", "d", {}) == {}
    if spec == "dual_clifford":
        # A is 2-dimensional and the D-part acts on S (x) B: not vacuous
        assert len(m.a_basis) == 2 and m.dpart.dim == 2 and m._block("s", "d", {})


def _basis_key(m, i):
    kind, key = m.basis[i]
    if kind == "g":
        return ("g", tuple(sorted(m.G.wb.basis_mats[key[0]].items())), key[1])
    if kind == "s":
        return ("s", tuple(sorted(m.smod.basis_mats[key[0]].items())), key[1])
    if kind == "v":
        return ("v", m.G.space.labels[key[0]], key[1])
    return ("d", m.dpart.coset_space.labels[key[0]])


def test_truncation_coherence():
    m4 = model("BC", 4, 4, "symplectic:m=2")
    m5 = model("BC", 5, 4, "symplectic:m=2")
    m5_index = {_basis_key(m5, i): i for i in range(m5.dim)}
    embed = {}
    for i in range(m4.dim):
        k = _basis_key(m4, i)
        assert k in m5_index
        embed[i] = m5_index[k]
    for i in embed:
        for j in embed:
            row4 = m4.bracket_indices(i, j)
            mapped = {m5_index[_basis_key(m4, idx)]: c for idx, c in row4.items()}
            assert mapped == m5.bracket_indices(embed[i], embed[j])


def test_lambda_subalgebra_closure_intermediate():
    # L^lambda with I_0 proper in lambda proper in I is bracket closed
    m = model("BC", 6, 4, "symplectic:m=2")
    lam = set(range(1, 6))
    keep = []
    for i, (kind, key) in enumerate(m.basis):
        if kind == "d":
            keep.append(i)
            continue
        if kind == "g":
            labs = {lab for pair in m.G.wb.basis_mats[key[0]] for lab in pair}
        elif kind == "s":
            labs = {lab for pair in m.smod.basis_mats[key[0]] for lab in pair}
        else:
            labs = {m.G.space.labels[key[0]]}
        if {int(l.split(":")[1]) for l in labs} <= lam:
            keep.append(i)
    keep_set = set(keep)
    assert len(keep) < m.dim
    for a in keep:
        for b in keep:
            assert all(i in keep_set for i in m.bracket_indices(a, b))


def test_graded_element_parts_and_arithmetic():
    # a model element is {basis index: coefficient}; its parts are read
    # through the basis, and ``bracket`` extends the table bilinearly
    m = model("BC", 4, 4, "symplectic:m=2")
    gi = m.index_of[("g", (0, 0))]
    vi = m.index_of[("v", (0, 0))]
    x = {gi: Q(2), vi: Q(1, 3)}
    assert [m.basis[i] for i in x] == [("g", (0, 0)), ("v", (0, 0))]
    assert m.bracket(x, x) == {}
    for i in range(m.dim):
        for j in range(m.dim):
            assert m.bracket({i: Q(1)}, {j: Q(1)}) == m.bracket_indices(i, j)
    rng = random.Random(5)

    def combination():
        return {rng.randrange(m.dim): Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)}

    def add(u, v, c=Q(1)):
        out = dict(u)
        for k, val in v.items():
            out[k] = out.get(k, Q(0)) + c * val
        return {k: val for k, val in out.items() if val}

    for _ in range(20):
        u, v, w = combination(), combination(), combination()
        c = Q(rng.randint(-3, 3), rng.randint(1, 4))
        assert m.bracket(add(u, v, c), w) == add(m.bracket(u, w), m.bracket(v, w), c)
        assert m.bracket(w, add(u, v, c)) == add(m.bracket(w, u), m.bracket(w, v), c)
        assert m.bracket(u, u) == {}
    for bad in (-1, m.dim, "g0"):
        with pytest.raises(ModelError):
            m.bracket({bad: Q(1)}, {gi: Q(1)})
        with pytest.raises(ModelError):
            m.bracket({gi: Q(1)}, {bad: Q(1)})


def _assert_exhaustive_jacobi_passes(m):
    """Every basis triple, those with a D-part slot among them, has a zero
    Jacobi defect."""
    r = verify_jacobi(m, {"kind": "exhaustive_basis"})
    assert r["status"] == "pass", r["witnesses"]
    assert r["triples"] == m.dim * (m.dim + 1) * (m.dim + 2) // 6


@pytest.mark.parametrize(
    "family,n,ell,preset",
    [
        ("BC", 4, 4, "matrix_hermitian:k=2,m=2"),
        ("A", 6, 5, "matrix:k=2"),
        ("C", 5, 5, "matrix_transpose:k=2"),
    ],
)
def test_jacobi_exhaustive_against_dpart(family, n, ell, preset):
    # random sampling rarely hits the low-dimensional D-part of the big
    # models, so run every triple, those with a D-part slot among them
    m = model(family, n, ell, preset)
    assert any(kind == "d" for kind, _ in m.basis)
    _assert_exhaustive_jacobi_passes(m)


def test_jacobi_type_d_with_nonzero_dpart():
    # the group-ring preset has a zero-dimensional D-part, so Jacobi there
    # never exercises the tr(xy)<a,a'> term of the type-D bracket; this
    # quadruple has a one-dimensional D-part
    m = build_model("D", 6, 5, nilpotent_pair_quadruple(), "zero")
    assert m.dpart.dim == 1
    r = verify_jacobi(m, {"kind": "random", "samples": 1500, "seed": 7})
    assert r["status"] == "pass"
    _assert_exhaustive_jacobi_passes(m)


def test_subalgebra_type_a_on_three_of_six_indices():
    # the handle's matrix part is a full sl(3) tensor A copy:
    # 6 roots x dim A = 24 nonzero-weight vectors, plus a zero part of
    # 2*4 = 8 (Cartan tensor A) + 3 (the whole D-part, reached through
    # tr(xy)<a,a'> with x, y in opposite root spaces) = 11
    m = model("A", 6, 5, "matrix:k=2")
    sub = subalgebra(m, generate("A", 3).nonzero())
    assert len(sub.nonzero_indices) == 24
    assert sub.zero_part.dim == 11
    assert sub.dim == 35
    assert sub.verify()["status"] == "pass"


@pytest.mark.parametrize(
    "preset", ["symplectic:m=4", "matrix_hermitian:k=2,m=4"]
)
def test_wider_module_presets(preset):
    # m = 4 exercises the two-block standard skew form
    m = model("BC", 4, 4, preset)
    assert verify_jacobi(m, {"kind": "random", "samples": 800, "seed": 11})["status"] == "pass"
    assert verify_grading(m)["status"] == "pass"
    _assert_exhaustive_jacobi_passes(m)


def test_level_coset_mixed_pair_is_zero():
    # pairs mixing the fixed and skew parts carry no coset and no correction
    m = model("C", 5, 5, "matrix_transpose:k=2")
    q = m.quadruple
    a = {"m:0,0": 1, "m:1,1": 1}
    b = {"m:0,1": 1, "m:1,0": -1}
    lc = level_coset(m, range(1, 6), a, b)
    assert lc == {}


# sha256 of each table, computed before the bracket formulas moved into the
# term tables; any change of a structure constant changes the digest
TABLE_DIGESTS = {
    ("BC", 4, 4, "symplectic:m=2"): (
        "2be6b16d29a28185b864565af709236a75af5f51610594269f81cb39db03f903"
    ),
    ("A", 6, 5, "matrix:k=2"): (
        "b3b19b1db14676f7753def63ec22d52c5f31046dee79ce3f1d5cf6c53cd1991e"
    ),
    ("B", 5, 5, "clifford:d=2"): (
        "6716d4d3918895a4ae9bbc3dff5f98cc478a44fb2bf5b4c47679059d1ab37f96"
    ),
    ("C", 5, 5, "matrix_transpose:k=2"): (
        "a0dc8f99d62c77dbd31b9ab2bdb465df652d9fc68d1355a9c24703b0b2b9cf3c"
    ),
    ("D", 6, 5, "group_ring:m=3"): (
        "c7096940d5f19d58b8b421cf828f9392aa56683bbf65f3cd76e84f12106e3ab1"
    ),
}


@pytest.mark.parametrize("config", list(TABLE_DIGESTS), ids=lambda c: " ".join(map(str, c)))
def test_bracket_table_digest(config):
    m = model(*config)
    text = repr(
        [
            (key, sorted((idx, q_str(c)) for idx, c in row.items()))
            for key, row in sorted(m.table.items())
        ]
    )
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[config]


def _is_stored_scalar(c) -> bool:
    """An int, or a Fraction whose denominator is above 1: never a
    Fraction equal to an integer, never a float."""
    return type(c) is int or (type(c) is Q and c.denominator > 1)


@pytest.mark.parametrize("config", list(TABLE_DIGESTS), ids=lambda c: " ".join(map(str, c)))
def test_integral_scalars_are_ints(monkeypatch, config):
    # every structure constant, every entry of a basis matrix and every
    # entry of an rref row the build computes is an int when integral;
    # test_bracket_table_digest shows the values themselves are unchanged
    import rootgraded.coord as coord
    import rootgraded.exactla as exactla
    import rootgraded.liealg as liealg

    rows = []
    plain = exactla.rref

    def recording(*args, **kwargs):
        sub = plain(*args, **kwargs)
        rows.extend(sub.rows)
        return sub

    for mod in (exactla, coord, liealg, graded):
        monkeypatch.setattr(mod, "rref", recording)
    m = build_model(*config[:3], parse_preset_spec(config[3]))
    assert rows
    assert all(type(r) is dict and _is_stored_scalar(c) for r in rows for c in r.values())
    assert all(_is_stored_scalar(c) for row in m.table.values() for c in row.values())
    mats = [x for kind in _matrix_kinds(m).values() for x in kind.mats]
    assert mats
    assert all(_is_stored_scalar(c) for x in mats for c in x.values())
    # every matrix the build holds is a plain entry dict of nonzero stored
    # values: the basis matrices, the Cartan, the Gram matrix, J_0, star and
    # the level operator, at a lambda one index past I_0
    lam = frozenset(range(1, m.m0 + 2))
    held = [*m.G.wb.basis_mats, *m.G.cartan, m.idem0, m.quadruple.star]
    held += [graded._level_op(m, lam, m.G.space)]
    held += [m.G.nat.gram] if m.G.nat.gram is not None else []
    held += m.smod.basis_mats if m.smod is not None else []
    assert all(
        type(x) is dict and all(_is_stored_scalar(c) and c != 0 for c in x.values())
        for x in held
    )
    assert any(type(c) is int for row in m.table.values() for c in row.values())
    # the entry dicts {b,b}_ell forms, and the outputs of the matrix-side ops
    # other than the products (d_uw on B, v_ops on BC), hold no 0 either
    bb = m.bb
    dicts = [*bb.derivations.values(), *bb.beta_rows.values()]
    dicts += [bb.inner_of({f: 1}) for f in bb.quotient.coset_labels]
    dicts += [bb.inner_of(g) for g in bb.relations.rows]
    # and where the products come out integral: kappa times multiples of
    # its denominator, and (1/2) u against 2 w
    k = Q(bb.kappa).denominator
    dicts += [bb.inner_of({f: k}) for f in bb.quotient.coset_labels]
    dicts += [bb.derivation_of({f: c}) for f in bb.quotient.coset_labels for c in range(1, k + 1)]
    nat = m.G.nat
    if nat.gram is not None:
        u, w = {nat.space.labels[0]: Q(1, 2)}, {nat.space.labels[1]: 2}
        dicts.append(d_uw(nat, u, w))
        dicts += [v_ops(u, w, nat, m.idem0, m.m0, variant) for variant in ("circ", "bracket_ell")]
    dicts += [
        out
        for pair, terms in graded.TERMS[m.family].items()
        for term in terms
        if term.mat not in graded._PRODUCTS
        for x in m._kinds[pair[0]].mats
        for y in m._kinds[pair[1]].mats
        if isinstance(out := term.mat(m, x, y), dict)
    ]
    assert all(_is_stored_scalar(c) and c != 0 for d in dicts for c in d.values())


def test_bracket_and_level_coset_return_stored_scalars():
    # [sum of x_i / 2, sum of 2 x_j] sums products of Fractions; the
    # integral ones come back as ints
    m = model("C", 5, 5, "matrix_transpose:k=2")
    out = m.bracket({i: Q(1, 2) for i in range(40)}, {j: 2 for j in range(40, 80)})
    assert out and all(_is_stored_scalar(c) for c in out.values())
    assert any(type(c) is int for c in out.values())
    m = model("A", 7, 5, "matrix:k=2")
    lc = level_coset(m, range(1, 8), {"m:0,1": Q(1, 2)}, {"m:1,0": 1})
    assert lc and all(_is_stored_scalar(c) for c in lc.values())


def _d_uw_at_first(m, u, w):
    """D_{u, e} for the first natural-module vector e: no parity in (u, w)."""
    return graded._d_uw(m, u, m._kinds["s"].mats[0])


_A_GG = ("A", 6, 5, "matrix:k=2", "gg")


@pytest.mark.parametrize(
    "config,term,field,op,factor,pair",
    [
        # [x, y] (x) (a a' + a' a) becomes (x o y) (x) (a a' + a' a)
        pytest.param(_A_GG, 0, "mat", graded._circ, "coord", [0, 0], id="0-mat-_circ"),
        # (x o y) (x) (a a' - a' a) becomes (x o y) (x) (a a' + a' a)
        pytest.param(_A_GG, 1, "coord", graded._circle, "coord", [0, 0], id="1-coord-_circle"),
        # [x, y] (x) (a a' + a' a) becomes [x, y] (x) a a', of no parity on
        # the noncommutative matrix:k=2
        pytest.param(_A_GG, 0, "coord", graded._prod, "coord", [0, 1], id="A-gg-0-coord-_prod"),
        # (u, w) (x) {c, c'} on V (x) C becomes 1 (x) {c, c'}: the symplectic
        # form is antisymmetric, so {c, c'} is symmetric on C, and so is 1
        pytest.param(
            ("BC", 4, 4, "symplectic:m=2", "vv"), 2, "mat", graded._one, "coord", [0, 0],
            id="BC-vv-2-mat-_one",
        ),
        # D_{u,w} (x) b b' on S (x) B becomes D_{u,e} (x) b b'
        pytest.param(
            ("B", 5, 5, "clifford:d=2", "ss"), 0, "mat", _d_uw_at_first, "mat", [0, 1],
            id="B-ss-0-mat-_d_uw_at_first",
        ),
    ],
)
def test_antisymmetry_fails_on_symmetric_term(monkeypatch, config, term, field, op, factor, pair):
    # a term whose two factors are both symmetric under swapping the
    # arguments, or one of whose factors has no parity, must be caught, and
    # the witness names the block, the term, the factor and the pair
    family, n, ell, preset, block = config
    terms = list(graded.TERMS[family][block])
    terms[term] = terms[term]._replace(**{field: op})
    monkeypatch.setitem(graded.TERMS[family], block, tuple(terms))
    m = build_model(family, n, ell, parse_preset_spec(preset))
    r = verify_antisymmetry(m)
    assert r["status"] == "fail"
    assert r["witnesses"] == [{"block": block, "term": term, "factor": factor, "pair": pair}]


def _matrix_kinds(m):
    """The kinds whose matrix-side objects are matrices: all but the
    natural-module kinds, V of BC and S of B."""
    return {k: kind for k, kind in m._kinds.items() if k != "v" and (k, m.family) != ("s", "B")}


def _as_matrix(m, x):
    """The matrix on the natural space with the entry dict x."""
    return SparseMatrix(m.G.space, m.G.space, x)


def _reference_table(m):
    """The bracket table by the unpruned all-pairs loop: every term on every
    matrix-side pair, with the products formed afresh for each term by
    ``SparseMatrix.__matmul__``, not by the build's ``_products``."""
    rows = {}
    for pair, terms in graded.TERMS[m.family].items():
        k1, k2 = m._kinds[pair[0]], m._kinds[pair[1]]
        same = pair[0] == pair[1]
        for term in terms:
            kt = m._kinds[term.target]
            scale = term.scale
            coord = [
                (p, t, kt.read_coord(term.coord(m, a, b)))
                for p, a in enumerate(k1.coords)
                for t, b in enumerate(k2.coords)
            ]
            for i, x in enumerate(k1.mats):
                for j, y in enumerate(k2.mats):
                    if same and j < i:
                        continue
                    if term.mat in graded._PRODUCTS:
                        xm, ym = _as_matrix(m, x), _as_matrix(m, y)
                        mf = kt.read_mat(term.mat(m, (xm @ ym).entries, (ym @ xm).entries))
                    else:
                        mf = kt.read_mat(term.mat(m, x, y))
                    for p, t, cf in coord:
                        if same and i == j and p >= t:
                            continue
                        key = (k1.offset + i * k1.width + p, k2.offset + j * k2.width + t)
                        row = rows.setdefault(key, {})
                        for mi, cm in mf.items():
                            for ci, cc in cf.items():
                                idx = kt.offset + mi * kt.width + ci
                                row[idx] = row.get(idx, 0) + scale * cm * cc
    out = {}
    for key, row in rows.items():
        row = {idx: c for idx, c in row.items() if c}
        if row:
            out[key] = row
    return out


@pytest.mark.parametrize("config", list(TABLE_DIGESTS), ids=lambda c: " ".join(map(str, c)))
def test_support_index_is_sound(config):
    # every pair the join leaves out has xy = 0, for every ordered pair of
    # matrix kinds; and the pruned, product-sharing build equals the
    # unpruned loop
    m = model(*config)
    kinds = _matrix_kinds(m)
    assert kinds.keys() >= {"g", "d"}
    for k1 in kinds.values():
        for k2 in kinds.values():
            products = graded._products(k1.mats, k2.mats)
            assert all(products.values())
            for i, x in enumerate(k1.mats):
                for j, y in enumerate(k2.mats):
                    if (i, j) not in products:
                        assert (_as_matrix(m, x) @ _as_matrix(m, y)).entries == {}
    assert m.table == _reference_table(m)


@pytest.mark.parametrize("config", list(TABLE_DIGESTS), ids=lambda c: " ".join(map(str, c)))
def test_product_kernel_is_matmul(config):
    # the join's entry-dict products equal SparseMatrix products, for every
    # ordered pair of matrices of every pair of matrix kinds; and each product
    # op changes by its parity in _PRODUCTS when (xy, yx) is read as (yx, xy),
    # which verify_antisymmetry takes as given
    m = model(*config)
    kinds = _matrix_kinds(m).values()
    for k1 in kinds:
        for k2 in kinds:
            products = graded._products(k1.mats, k2.mats)
            for i, x in enumerate(k1.mats):
                for j, y in enumerate(k2.mats):
                    xm, ym = _as_matrix(m, x), _as_matrix(m, y)
                    xy, yx = (xm @ ym).entries, (ym @ xm).entries
                    assert products.get((i, j), {}) == xy
                    assert all(
                        op(m, yx, xy) == (f if sign == 1 else {k: -c for k, c in f.items()})
                        for op, sign in graded._PRODUCTS.items()
                        for f in [op(m, xy, yx)]
                    )


@pytest.mark.parametrize(
    "config",
    [
        ("A", 6, 5, "matrix:k=2"),
        ("C", 5, 5, "matrix_transpose:k=2"),
        ("BC", 4, 4, "matrix_hermitian:k=2,m=2"),
    ],
    ids=lambda c: " ".join(map(str, c)),
)
def test_inner_scale_is_pinned(monkeypatch, config):
    # kappa doubled where it is read changes the brackets [<k>, e] of the
    # D-part cosets but not the D-part of [e, f]: exhaustive Jacobi must see
    # it.  coord is the one module that reads kappa
    import rootgraded.coord as coord

    real = coord.inner_scale
    readers = [
        mod for name, mod in sys.modules.items()
        if name.startswith("rootgraded") and getattr(mod, "inner_scale", None) is real
    ]
    assert readers == [coord]
    monkeypatch.setattr(coord, "inner_scale", lambda qtype, ell: 2 * real(qtype, ell))
    family, n, ell, preset = config
    m = build_model(family, n, ell, parse_preset_spec(preset))
    assert verify_jacobi(m, {"kind": "exhaustive_basis"})["status"] == "fail"
