"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with -s / -rA) and enforces
the stated runtime budget.  Zero-tolerance: every identity is checked
with exact rationals, no approximate comparisons anywhere.
"""

import json
import time
from fractions import Fraction as Q

import pytest
from dictmat import commutator, lin, product, trace, transpose, unit
from oracles import (
    derivation_span_equals_oB,
    expected_dimension,
    level_lemma_faults,
    validate_root_system,
)

import rootgraded.graded as graded
from rootgraded.coord import (
    _bilinear,
    build_bb,
    check_uniform,
    full_homology,
    parse_preset_spec,
    relation_generators,
    beta_star_map_rows,
    validate_quadruple,
)
from rootgraded.exactla import apply
from rootgraded.graded import (
    build_model,
    subalgebra,
    verify_antisymmetry,
    verify_grading,
    verify_jacobi,
    verify_level_transition,
)
from rootgraded.liealg import (
    build_algebra,
    build_module,
    label_weight,
)
from rootgraded.rootsys import (
    Root,
    classify_lengths,
    generate,
)


PRESETS = [
    "matrix:k=2",
    "group_ring:m=3",
    "clifford:d=2",
    "matrix_transpose:k=2",
    "symplectic:m=2",
    "matrix_hermitian:k=2,m=2",
]

MODEL_CONFIGS = [
    ("BC", 5, 4, "symplectic:m=2"),
    ("BC", 5, 4, "matrix_hermitian:k=2,m=2"),
    ("A", 6, 5, "matrix:k=2"),
    ("D", 7, 5, "group_ring:m=3"),
    ("B", 6, 5, "clifford:d=2"),
    ("C", 6, 5, "matrix_transpose:k=2"),
]

JACOBI_SEED = 42
JACOBI_SAMPLES = 2000
EXHAUSTIVE_MAX_DIM = 300

_models = {}
_quads = {}


def get_quad(preset):
    if preset not in _quads:
        _quads[preset] = parse_preset_spec(preset)
    return _quads[preset]


def get_model(config):
    if config not in _models:
        fam, n, ell, preset = config
        _models[config] = build_model(fam, n, ell, get_quad(preset), "zero")
    return _models[config]


def report_line(num, label, elapsed, budget):
    print(f"ACCEPTANCE {num}: PASS  {label}  ({elapsed:.2f}s < {budget}s)")


def count_oracle(family, n):
    pairs = n * (n - 1)
    return {
        "A": pairs,
        "D": 2 * pairs,
        "B": 2 * pairs + 2 * n,
        "C": 2 * pairs + 2 * n,
        "BC": 2 * pairs + 4 * n,
    }[family]


def test_criterion_1_root_systems():
    t0 = time.monotonic()
    for family in ("A", "B", "C", "D", "BC"):
        for n in range(1, 9):
            system = generate(family, n)
            assert len(system.nonzero()) == count_oracle(family, n)
            assert validate_root_system(system) == []
    elapsed = time.monotonic() - t0
    report_line(1, "root-system axioms and counts, n=1..8", elapsed, 1)
    assert elapsed < 1.0


def test_criterion_2_algebras():
    t0 = time.monotonic()
    for family in ("A", "B", "C", "D"):
        for n in range(2, 7):
            alg = build_algebra(family, n)
            assert alg.dim == expected_dimension(family, n)
            gram = alg.nat.gram
            wb = alg.wb
            for m in wb.basis_mats:
                if family == "A":
                    assert trace(m) == 0
                else:
                    assert lin((1, product(transpose(m), gram)), (1, product(gram, m))) == {}
            # closure: brackets land back in the algebra (per-weight solve)
            mats = wb.basis_mats
            for i, x in enumerate(mats):
                for y in mats[i + 1 :]:
                    wb.coords(commutator(x, y))  # raises if outside
            # root spaces: one dimensional, [h, x] = alpha(h) x exactly
            assert set(wb.root_space_index) == set(generate(family, n).nonzero())
            for alpha, positions in wb.root_space_index.items():
                assert len(positions) == 1
                x = mats[positions[0]]
                for pos, h in enumerate(alg.cartan):
                    if family == "A":
                        lam = Q(alpha.coords.get(pos + 1, 0) - alpha.coords.get(pos + 2, 0))
                    else:
                        lam = Q(alpha.coords.get(pos + 1, 0))
                    assert commutator(h, x) == lin((lam, x))
            _check_classical_span_formulas(alg, family, n)
    elapsed = time.monotonic() - t0
    report_line(2, "algebra conditions, closure, dims, root spaces, n=2..6", elapsed, 10)
    assert elapsed < 10.0


def _check_classical_span_formulas(alg, family, n):
    """The classical root-space spanning vectors, up to scalar."""
    def spans(alpha, *terms):
        # the sum of the (sign, matrix unit) terms spans the root space
        x = alg.root_vector(alpha)
        coords = alg.wb.coords(lin(*terms))
        (pos, coeff), = coords.items()
        assert alg.wb.basis_mats[pos] == x and coeff != 0

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            eij = Root.eps(i) - Root.eps(j)
            if family == "A":
                spans(eij, (1, unit(f"v:{i}", f"v:{j}")))
                continue
            spans(eij, (1, unit(f"v:{i}", f"v:{j}")), (-1, unit(f"vb:{j}", f"vb:{i}")))
            if i < j:
                plus = Root.eps(i) + Root.eps(j)
                sign = 1 if family == "C" else -1
                spans(plus, (1, unit(f"v:{i}", f"vb:{j}")), (sign, unit(f"v:{j}", f"vb:{i}")))
        if family == "B":
            spans(Root.eps(i), (1, unit(f"v:{i}", "v:0")), (-1, unit("v:0", f"vb:{i}")))
        if family == "C":
            spans(Root.eps(i, 2), (1, unit(f"v:{i}", f"vb:{i}")))


def test_criterion_3_clifford_jordan():
    t0 = time.monotonic()
    for n, dim in ((1, 3), (2, 10), (3, 21)):
        ok, span_dim, alg_dim = derivation_span_equals_oB(n)
        assert ok and span_dim == dim and alg_dim == dim
    elapsed = time.monotonic() - t0
    report_line(3, "D_{V,V} = o_B as subspaces, n=1..3", elapsed, 5)
    assert elapsed < 5.0


def test_criterion_4_modules():
    t0 = time.monotonic()
    for n in range(2, 6):
        for family in ("B", "C"):
            alg = build_algebra(family, n)
            mats = alg.wb.basis_mats
            # V: the natural module, its weights those of its labels
            weights = {}
            for lab in alg.space.labels:
                weights.setdefault(label_weight(lab), []).append(lab)
            expect = {Root.eps(i, s) for i in range(1, n + 1) for s in (1, -1)}
            if family == "B":
                expect.add(Root.zero())
                assert weights[Root.zero()] == ["v:0"]
            assert set(weights) == expect
            for i in range(1, n + 1):
                assert weights[Root.eps(i)] == [f"v:{i}"]
                assert weights[Root.eps(i, -1)] == [f"vb:{i}"]
            # module axiom via action matrices, M([x,y]) = [M(x), M(y)]: on V
            # M(x) = x, on S the commutator action read in S's basis
            actions = [mats]
            if family == "C":
                wb = build_module(alg)
                assert wb.dim == 2 * n * n - n - 1
                expect = {Root.zero()}
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i != j:
                            expect.add(Root.eps(i) - Root.eps(j))
                        if i < j:
                            expect.add(Root.eps(i) + Root.eps(j))
                            expect.add(-(Root.eps(i) + Root.eps(j)))
                assert set(wb.weight_of_basis) == expect
                assert wb.zero_block == n - 1
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        pl = lin((1, unit(f"v:{i}", f"vb:{j}")), (-1, unit(f"v:{j}", f"vb:{i}")))
                        in_weights = {wb.weight_of_basis[k] for k in wb.coords(pl)}
                        assert in_weights == {Root.eps(i) + Root.eps(j)}
                s_acts = []
                for x in mats:
                    cols = {}
                    for k, s in enumerate(wb.basis_mats):
                        for r, c in wb.coords(commutator(x, s)).items():
                            cols[(r, k)] = c
                    s_acts.append(cols)
                actions.append(s_acts)
            for i, x in enumerate(mats):
                for j in range(i + 1, len(mats)):
                    xy = alg.wb.coords(commutator(x, mats[j]))
                    for acts in actions:
                        acc = lin(
                            (-1, commutator(acts[i], acts[j])),
                            *((c, acts[pos]) for pos, c in xy.items()),
                        )
                        assert acc == {}
    elapsed = time.monotonic() - t0
    report_line(4, "module weight tables and module axiom, n=2..5", elapsed, 30)
    assert elapsed < 30.0


@pytest.mark.parametrize("preset", PRESETS)
def test_criterion_5_coordinate_suite(preset):
    t0 = time.monotonic()
    q = get_quad(preset)
    assert validate_quadruple(q)["valid"]

    def b_mul(q, x, y):
        return lin((1, _bilinear(q.b_table, x, y)))

    bb = build_bb(q, 4)  # raises on any well-definedness failure
    labs = q.b_space.labels
    for l1 in labs:
        for l2 in labs:
            d = bb.derivation_of({(l1, l2): 1})
            if not d:
                continue
            for xl in labs:
                for yl in labs:
                    x, y = {xl: 1}, {yl: 1}
                    assert apply(d, b_mul(q, x, y)) == lin(
                        (1, b_mul(q, apply(d, x), y)), (1, b_mul(q, x, apply(d, y)))
                    )
    csp = bb.quotient.coset_space
    basis = [{l: 1} for l in csp.labels]
    table = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            table[(i, j)] = bb.bracket_cosets(u, v)
            if j < i:
                assert table[(i, j)] == lin((-1, table[(j, i)]))
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            for k, w in enumerate(basis):
                lhs = bb.bracket_cosets(u, table[(j, k)])
                rhs = lin(
                    (1, bb.bracket_cosets(table[(i, j)], w)), (1, bb.bracket_cosets(v, table[(i, k)]))
                )
                assert lhs == rhs
    fh = full_homology(bb)  # raises if FH is not central
    assert fh.dim <= bb.dim
    if q.c_dim:
        for lc in q.c_space.labels:
            for lcp in q.c_space.labels:
                # diamond and heart, the antisymmetric and symmetric parts of f
                # f is the (C, C) block of b's product
                f1, f2 = (q.b_table.get(l, {}) for l in [(lc, lcp), (lcp, lc)])
                dia = lin((Q(1, 2), f1), (Q(-1, 2), f2))
                heart = lin((Q(1, 2), f1), (Q(1, 2), f2))
                assert apply(q.star, dia) == dia
                assert apply(q.star, heart) == lin((-1, heart))
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 5[{preset}]: PASS  coordinate suite at ell=4  ({elapsed:.2f}s < 60s)")
    assert elapsed < 60.0


def test_criterion_6_uniform_and_remark():
    t0 = time.monotonic()
    for preset in PRESETS:
        q = get_quad(preset)
        gens = relation_generators(q)
        rows = beta_star_map_rows(q)
        for g in gens:
            for row in rows.values():
                val = sum((row.get(lab, 0) * c for lab, c in g.items()), Q(0))
                assert val == 0
        bb = build_bb(q, 4)
        report = check_uniform(bb, [], fh=full_homology(bb), cross_check_ell=7)
        assert report["uniform"] is True
        assert report["cross_check"]["uniform"] is True
    elapsed = time.monotonic() - t0
    report_line(6, "beta* vanishes on generators; verdicts agree at ell=4,7", elapsed, 30)
    assert elapsed < 30.0


def _criterion_7_report() -> tuple[str, float]:
    t0 = time.monotonic()
    results = []
    for config in MODEL_CONFIGS:
        fam, n, ell, preset = config
        model = build_model(fam, n, ell, get_quad(preset), "zero")
        checks = [verify_antisymmetry(model)]
        checks.append(
            verify_jacobi(
                model, {"kind": "random", "samples": JACOBI_SAMPLES, "seed": JACOBI_SEED}
            )
        )
        if model.dim <= EXHAUSTIVE_MAX_DIM:
            checks.append(verify_jacobi(model, {"kind": "exhaustive_basis"}))
        checks.append(verify_grading(model))
        results.append(
            {
                "model": {"family": fam, "n": n, "ell": ell, "preset": preset},
                "dim": model.dim,
                "checks": checks,
            }
        )
    report = json.dumps(results, sort_keys=True, indent=2, default=str)
    return report, time.monotonic() - t0


_c7_cache = {}


def test_criterion_7_graded_construction():
    report, elapsed = _criterion_7_report()
    _c7_cache["report"] = report
    _c7_cache["elapsed"] = elapsed
    data = json.loads(report)
    exhaustive_seen = 0
    for entry in data:
        for check in entry["checks"]:
            assert check["status"] == "pass", (entry["model"], check)
            if check["name"] == "jacobi[exhaustive_basis]":
                exhaustive_seen += 1
    assert exhaustive_seen == 6  # every model has dim <= EXHAUSTIVE_MAX_DIM
    report_line(7, "six models: antisymmetry, Jacobi, grading", elapsed, 600)
    assert elapsed < 600.0


def test_criterion_8_subsystems():
    t0 = time.monotonic()
    for config in MODEL_CONFIGS:
        fam, n, ell, preset = config
        model = get_model(config)
        s_roots = generate(fam, n - 1).nonzero()
        sub = subalgebra(model, s_roots)
        r = sub.verify()
        assert r["status"] == "pass", (config, r)
        assert sub.dim < model.dim
    elapsed = time.monotonic() - t0
    report_line(8, "proper full subsystem handles pass S-grading", elapsed, 120)
    assert elapsed < 120.0


def test_criterion_9_level_transitions():
    t0 = time.monotonic()
    for config in MODEL_CONFIGS:
        fam = config[0]
        if fam not in ("BC", "A"):
            continue
        model = get_model(config)
        for added in (1, 2):
            r = verify_level_transition(model, added)
            assert r == {"status": "pass", "lambda_size": model.m0 + added, "witnesses": []}
            # the lemma the suite reports: the operator is 0 at I_0, and at
            # lambda nonzero, traceless, form-compatible and in its kind's span
            faults = level_lemma_faults(model, graded._level_op, added=(added,))
            assert faults == [], (config, added, faults)
    elapsed = time.monotonic() - t0
    report_line(9, "level-transition lemma facts, +1 and +2 indices", elapsed, 120)
    assert elapsed < 120.0


def test_criterion_10_determinism():
    if "report" not in _c7_cache:
        _c7_cache["report"], _c7_cache["elapsed"] = _criterion_7_report()
    t0 = time.monotonic()
    second, _ = _criterion_7_report()
    assert second == _c7_cache["report"]
    elapsed = time.monotonic() - t0
    report_line(10, "criterion-7 report bytes identical across runs", elapsed, 600)
