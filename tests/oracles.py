"""Reference facts the tests compare the package against.

Each is an independent statement of something the package's own checks
rely on (a dimension formula, the root-system axioms with the reflection
test, that every pairing <b, a^vee> is integral and every s_a(b) a root,
the semidivisible part of BC, the type-B derivation span, the level
operator's lemma, beta* on two elements of b, the associativity laws of a
quadruple), read only by tests.
"""

from fractions import Fraction as Q

from dictmat import lin, product, trace, transpose

from rootgraded import graded
from rootgraded.coord import _bilinear, clifford_quadruple
from rootgraded.exactla import ShapeError, apply, rref
from rootgraded.liealg import FormedSpace, build_algebra
from rootgraded.rootsys import Root, RootSystem


def expected_dimension(family: str, n: int) -> int:
    return {
        "A": n * n - 1,
        "B": 2 * n * n + n,
        "C": 2 * n * n + n,
        "D": 2 * n * n - n,
    }[family]


def semidivisible(system: RootSystem) -> RootSystem:
    """Drop every root whose double is also a root; keep zero."""
    kept = {r for r in system.roots if r.is_zero() or r.scale(2) not in system.roots}
    kept.add(Root.zero())
    family = "C" if system.family == "BC" else system.family
    return RootSystem(family, system.n, kept)


def _reflection_faults(roots):
    """Yield a message for each pair (a, b) of ``roots``, a nonzero, whose
    pairing <b, a^vee> = 2(b, a)/(a, a) is not integral or whose reflection
    s_a(b) = b - <b, a^vee> a is not in ``roots``; on raw coordinate dicts,
    so that no Root is built or hashed unless a message names it."""
    roots = list(roots)
    keys = {r.key() for r in roots}
    for a in roots:
        ca = a.coords
        norm_a = sum(c * c for c in ca.values())
        if not norm_a:
            continue
        for b in roots:
            cb = b.coords
            num = 2 * sum(c * cb.get(i, 0) for i, c in ca.items())
            if num % norm_a:
                yield f"non-integral pairing <{b}, {a}^>"
                continue
            k = num // norm_a
            image = {i: cb.get(i, 0) - k * ca.get(i, 0) for i in ca.keys() | cb.keys()}
            if tuple(sorted((i, v) for i, v in image.items() if v)) not in keys:
                yield f"reflection s_{a}({b}) leaves the system"


def validate_root_system(system: RootSystem) -> list[str]:
    """Check the root-system axioms; returns human-readable failures."""
    failures = []
    if Root.zero() not in system.roots:
        failures.append("zero root missing")
    for r in system.roots:
        if -r not in system.roots:
            failures.append(f"not closed under negation at {r}")
    return failures + list(_reflection_faults(system.roots))


def derivation_span_equals_oB(n: int) -> tuple[bool, int, int]:
    """D_{V,V} = o_B(n), read off the two Jordan derivations the type-B
    bracket runs: for each pair u < w of basis vectors of V, the derivation
    of the Clifford quadruple of V's form (its ``label_part`` (u, w), all
    of it on type B) leaves the unit out and is ``d_uw`` on V, read where
    the bracket reads it (``graded.d_uw``), and these span o_B(n) inside
    gl(V)."""
    G = build_algebra("B", n)
    nat = G.nat
    q = clifford_quadruple(nat.space.labels, nat.gram, name=f"o_B({n})")
    labels = nat.space.labels
    ok = True
    span_vecs = []
    for i, u in enumerate(labels):
        for w in labels[i + 1 :]:
            on_v = graded.d_uw(nat, {u: 1}, {w: 1})
            # equal entries: d is d_uw on V and has no row or column at the unit
            ok = ok and q.label_part((u, w)) == on_v
            span_vecs.append(on_v)
    span = rref(span_vecs, G.glsp)
    return ok and span == G.wb.full, span.dim, G.dim


def level_lemma_faults(m, level_op, added=None) -> list[str]:
    """The facts of the lemma in ``graded.verify_level_transition`` that
    fail for the level operator function ``level_op`` (model, lambda,
    natural space) on the model m.  On the natural space at n, n + 1 and
    n + 2 the operator must be 0 at lambda = I_0; at lambda = I_0 plus each
    of ``added`` fresh indices (all of them by default) that the space
    holds, it must be nonzero, traceless and form-compatible, and at n lie
    in the span ``level_coset`` reads it from.  On B and D, beta* must have
    no row."""
    if m.family not in graded._LEVEL_TARGET:
        return [f"beta* has a row {r!r}" for r in m.bb.beta_rows]
    kind = m._kinds[graded._LEVEL_TARGET[m.family]]
    faults = []
    for size in (m.n, m.n + 1, m.n + 2):
        nat = FormedSpace(m.G.family, size)
        if level_op(m, frozenset(range(1, m.m0 + 1)), nat.space):
            faults.append(f"n={size}: nonzero at I_0")
        for k in added or range(1, size - m.m0 + 1):
            if m.m0 + k > size:
                continue
            op = level_op(m, frozenset(range(1, m.m0 + k + 1)), nat.space)
            where = f"n={size}, |lambda|={m.m0 + k}"
            if not op:
                faults.append(f"{where}: zero")
            if trace(op):
                faults.append(f"{where}: trace {trace(op)}")
            if nat.gram is not None and product(transpose(op), nat.gram) != product(nat.gram, op):
                faults.append(f"{where}: not form-compatible")
            if size == m.n:
                try:
                    coords = kind.read_mat(op)
                except ShapeError:
                    coords = {}
                if lin(*((c, kind.mats[i]) for i, c in coords.items())) != op:
                    faults.append(f"{where}: outside the span level_coset reads")
    return faults


def beta_star(q, x: dict, y: dict) -> dict:
    """([a1, a2] + [a1*, a2*])/2 - c1 heart c2 for x = a1 + c1, y = a2 + c2,
    heart being the symmetric part (f(c1, c2) + f(c2, c1))/2 of f, all
    entry dicts, every product read off ``q.b_table``: the reference for
    the rows of ``coord.beta_star_map_rows``."""

    def prod(u, v):
        return lin(*((cu * cv, q.b_table.get((i, j), {})) for i, cu in u.items() for j, cv in v.items()))

    a1, a2 = ({l: v for l, v in z.items() if l in q.a_space} for z in (x, y))
    c1, c2 = ({l: v for l, v in z.items() if l in q.c_space} for z in (x, y))
    s1, s2 = (apply(q.star, a) for a in (a1, a2))
    terms = []
    for u, v, sign in ((a1, a2, 1), (s1, s2, 1), (c1, c2, -1)):
        terms += [(Q(sign, 2), prod(u, v)), (Q(-1, 2), prod(v, u))]
    return lin(*terms)


def dense_associativity_faults(q) -> dict[str, list[str]]:
    """Every failure, not only the first three, of the four associativity
    laws ``coord.validate_quadruple`` reports, formed on every basis triple,
    zero products included, each law over its own table: a's product, the
    action and f are the (a, a), (a, C) and (C, C) blocks of ``q.b_table``.
    The reference for ``coord._associator_faults``, which forms only the
    triples with a nonzero inner product."""
    alabs, clabs = q.a_space.labels, q.c_space.labels
    mult, act, f = (
        {(i, j): v for (i, j), v in q.b_table.items() if i in left and j in right}
        for left, right in ((q.a_space, q.a_space), (q.a_space, q.c_space), (q.c_space, q.c_space))
    )
    e = {l: {l: 1} for l in q.b_space.labels}
    rows = {"A": q.a_part_sub.rows, "B": q.b_part_sub.rows}
    return {
        "Clifford Jordan structure": [
            f"associator nonzero on {tag} triple"
            for tag in ("AAA", "AAB", "ABB")
            for x in rows[tag[0]]
            for y in rows[tag[1]]
            for z in rows[tag[2]]
            if _bilinear(mult, _bilinear(mult, x, y), z)
            != _bilinear(mult, x, _bilinear(mult, y, z))
        ],
        "a associative": [
            f"({i}.{j}).{k} != {i}.({j}.{k})"
            for i in alabs
            for j in alabs
            for k in alabs
            if _bilinear(mult, mult.get((i, j), {}), e[k])
            != _bilinear(mult, e[i], mult.get((j, k), {}))
        ],
        "module associative ((xy).c = x.(y.c))": [
            f"({i}.{j}).{l}"
            for i in alabs
            for j in alabs
            for l in clabs
            if _bilinear(act, mult.get((i, j), {}), e[l])
            != _bilinear(act, e[i], act.get((j, l), {}))
        ],
        "f left semilinear (f(x.c, c') = x f(c, c'))": [
            f"f({i}.{l},{m})"
            for i in alabs
            for l in clabs
            for m in clabs
            if _bilinear(f, act.get((i, l), {}), e[m])
            != _bilinear(mult, e[i], f.get((l, m), {}))
        ],
    }
