import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import semidivisible, validate_root_system

from rootgraded.rootsys import (
    EXTRALONG,
    LONG,
    SHORT,
    Root,
    RootSystem,
    classify_lengths,
    connected_components,
    generate,
    is_full_subsystem,
    root_str,
)


def coroot_pairing(beta: Root, alpha: Root) -> int:
    """<beta, alpha^vee> = 2(beta, alpha)/(alpha, alpha); exact, must be integral."""
    if alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    num = 2 * beta.dot(alpha)
    den = alpha.norm()
    if num % den:
        raise ValueError(f"non-integral pairing <{beta}, {alpha}^> = {num}/{den}")
    return num // den


def reflect(alpha: Root, beta: Root) -> Root:
    """s_alpha(beta) = beta - <beta, alpha^vee> alpha."""
    return beta - alpha.scale(coroot_pairing(beta, alpha))


def count_oracle(family: str, n: int) -> int:
    """Nonzero root count by direct enumeration of the defining lists."""
    pairs = n * (n - 1)  # ordered (i, j), i != j
    if family == "A":
        return pairs
    if family == "D":
        return 2 * pairs
    if family in ("B", "C"):
        return 2 * pairs + 2 * n
    if family == "BC":
        return 2 * pairs + 4 * n
    raise AssertionError


def test_generate_examples():
    assert len(generate("A", 3).roots) == 7
    assert len(generate("BC", 2).roots) == 13
    b1 = generate("B", 1)
    assert b1.roots == frozenset({Root.zero(), Root.eps(1), Root.eps(1, -1)})


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
@pytest.mark.parametrize("n", range(1, 9))
def test_counts_match_enumeration_oracle(family, n):
    assert len(generate(family, n).nonzero()) == count_oracle(family, n)


def test_reflect_examples():
    a = Root.eps(1) - Root.eps(2)
    assert reflect(a, a) == -a
    assert reflect(a, Root.eps(2) - Root.eps(3)) == Root.eps(1) - Root.eps(3)
    assert reflect(Root.eps(1), Root.eps(1, 2)) == Root.eps(1, -2)
    with pytest.raises(ValueError):
        reflect(Root.zero(), a)


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_axioms_hold_for_generated_systems(family, n):
    assert validate_root_system(generate(family, n)) == []


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["A", "B", "C", "D", "BC"]),
    n=st.integers(2, 5),
    data=st.data(),
)
def test_reflection_closure_and_integrality(family, n, data):
    system = generate(family, n)
    nz = system.nonzero()
    a = data.draw(st.sampled_from(nz))
    b = data.draw(st.sampled_from(sorted(system.roots)))
    assert reflect(a, b) in system.roots
    assert isinstance(coroot_pairing(b, a), int)


def _axiom_faults(system: RootSystem) -> list[str]:
    """The failures ``validate_root_system`` names, found root by root with
    ``reflect``, in the order it names them."""
    out = [] if Root.zero() in system.roots else ["zero root missing"]
    out += [f"not closed under negation at {r}" for r in system.roots if -r not in system.roots]
    for a in system.roots:
        if a.is_zero():
            continue
        for b in system.roots:
            try:
                image = reflect(a, b)
            except ValueError:
                out.append(f"non-integral pairing <{b}, {a}^>")
                continue
            if image not in system.roots:
                out.append(f"reflection s_{a}({b}) leaves the system")
    return out


@pytest.mark.parametrize(
    "roots",
    [
        # B2 without e1: neither negation- nor reflection-closed
        generate("B", 2).roots - {Root.eps(1)},
        # (e1, e1+e2+e3) has pairing 2/3
        [Root.zero(), Root.eps(1), Root.eps(1, -1), Root({1: 1, 2: 1, 3: 1}), Root({1: -1, 2: -1, 3: -1})],
        # no zero root
        generate("A", 3).roots - {Root.zero()},
    ],
    ids=["missing-root", "non-integral", "no-zero"],
)
def test_validate_root_system_names_each_fault(roots):
    system = RootSystem("B", 3, roots)
    faults = validate_root_system(system)
    assert faults and faults == _axiom_faults(system)
    # a set that fails the reflection axioms is no full subsystem of itself
    if "zero root missing" not in faults:
        assert not is_full_subsystem(system.roots, system)


def test_classify_lengths_bc2():
    lengths = classify_lengths(generate("BC", 2))
    assert lengths[Root.eps(1)] == SHORT
    assert lengths[Root.eps(1) + Root.eps(2)] == LONG
    assert lengths[Root.eps(1, 2)] == EXTRALONG


def test_classify_lengths_a3_all_short():
    lengths = classify_lengths(generate("A", 3))
    assert set(lengths.values()) == {SHORT}


def test_classify_lengths_b3():
    lengths = classify_lengths(generate("B", 3))
    assert lengths[Root.eps(1)] == SHORT
    assert lengths[Root.eps(1) - Root.eps(2)] == LONG
    assert EXTRALONG not in lengths.values()


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
def test_extralong_iff_half_is_short_root(family):
    system = generate(family, 3)
    lengths = classify_lengths(system)
    for r, cls in lengths.items():
        half_in = all(c % 2 == 0 for c in r.coords.values()) and (
            Root({i: c // 2 for i, c in r.coords.items()}) in system.roots
        )
        assert (cls == EXTRALONG) == half_in


def test_semidivisible():
    assert semidivisible(generate("BC", 2)).roots == generate("C", 2).roots
    assert semidivisible(generate("A", 3)).roots == generate("A", 3).roots
    assert semidivisible(generate("B", 2)).roots == generate("B", 2).roots


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
def test_semidivisible_is_valid_system(family):
    assert validate_root_system(semidivisible(generate(family, 3))) == []


def test_full_subsystem():
    bc4 = generate("BC", 4)
    assert is_full_subsystem(bc4.roots, bc4)
    assert is_full_subsystem({Root.zero()}, bc4)
    sub = {r for r in bc4.roots if set(r.coords) <= {1, 2}}
    assert is_full_subsystem(sub, bc4)
    # dropping the divisible roots breaks fullness: span recovers them
    non_full = {r for r in sub if r.is_zero() or r not in (Root.eps(1), -Root.eps(1))}
    non_full -= {Root.eps(1, 2), Root.eps(1, -2)}
    assert not is_full_subsystem(non_full, bc4)
    with pytest.raises(ValueError):
        is_full_subsystem({Root.eps(9)}, bc4)


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
def test_generated_families_connected(family):
    comps = connected_components(generate(family, 3))
    assert len(comps) == 1


def test_disjoint_union_two_components():
    a = generate("A", 2).roots
    shifted = {Root({i + 10: c for i, c in r.coords.items()}) for r in a}
    system = RootSystem("A", 4, a | shifted)
    assert len(connected_components(system)) == 2


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
def test_truncation_inclusion_commutes(family):
    small = generate(family, 3)
    big = generate(family, 5)
    assert small.roots <= big.roots
    small_lengths = classify_lengths(small)
    big_lengths = classify_lengths(big)
    for r, cls in small_lengths.items():
        assert big_lengths[r] == cls
    assert semidivisible(small).roots <= semidivisible(big).roots


def test_root_str():
    assert root_str(Root.zero()) == "0"
    assert root_str(Root.eps(1) - Root.eps(2)) == "e1-e2"
    assert root_str(Root.eps(3, 2)) == "2e3"
    assert root_str(-Root.eps(1) - Root.eps(2)) == "-e1-e2"


def test_generate_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate("E", 8)
    with pytest.raises(ValueError):
        generate("A", 0)
