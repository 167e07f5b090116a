"""Permutation algebra, conjugacy classes, and the realizability oracle."""

import functools
import gc
import importlib
import json
import math
import pkgutil
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conecover import (
    REALIZABLE,
    UNKNOWN,
    UNREALIZABLE,
    BranchDatum,
    MonodromyWitness,
    Permutation,
    canonical_of_type,
    class_size,
    classify,
    enumerate_data,
    find_witness,
    format_cycles,
    parse_cycles,
    parse_datum,
    search_certificate,
    verify_witness,
)
import conecover
from conecover import counting, monodromy
from conecover.branch_data import partitions_of
from conecover.counting import TupleCounts

from oracles import (
    REFERENCE_CYCLE_TEXT,
    all_partitions,
    _type_of,
    count_by_cycle_type,
    cycle_lengths,
    reference_class_images,
    reference_find_witness,
    reference_transitive_count,
)

KLEIN = parse_datum("4: 2,2 | 2,2 | 2,2")
PAIR = parse_datum("2: 2 | 2")
D4 = parse_datum("4: 3,1 | 2,2 | 2,2")
D9 = BranchDatum(9, ((2, 2, 2, 2, 1), (3, 3, 3), (3, 3, 3)))
# Unrealizable, with more nodes than the count probe: settled by the count.
D10 = parse_datum("10: 3,3,3,1 | 3,3,3,1 | 3,3,3,1")
D8 = parse_datum("8: 5,1,1,1 | 2,2,2,2 | 2,2,2,2 | 2,2,1,1,1,1")


# ------------------------------------------------------------ permutations


def test_permutation_basics():
    p = Permutation((2, 1, 3))
    assert p.degree == 3
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_cycle_text_round_trip():
    p = Permutation((2, 1, 4, 3))
    assert format_cycles(p) == "(1 2)(3 4)"
    assert parse_cycles("(1 2)(3 4)", 4) == p
    assert format_cycles(Permutation((1, 2, 3))) == "()"
    assert parse_cycles("()", 3) == Permutation((1, 2, 3))
    assert parse_cycles("", 3) == Permutation((1, 2, 3))
    assert parse_cycles("( 1 2 3 )", 3) == Permutation((2, 3, 1))
    for bad in ("(1 2", "(1 2)(2 3)", "(0 1)", "(1 5)", "(1; 2)"):
        with pytest.raises(ValueError):
            parse_cycles(bad, 4)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="() 0123456789x", max_size=14))
@example("(1 2)(3 4)")
@example(" ( 12  3 )() ")
@example("(1 2")
def test_cycle_text_pattern_matches_reference(text):
    assert bool(monodromy._CYCLE_TEXT.match(text)) == bool(REFERENCE_CYCLE_TEXT.match(text))


def test_cycle_text_rejects_long_malformed_input_fast():
    # The old pattern took 2.3 s on 24 digits and 4 times longer per 2 more.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bad cycle notation"):
        parse_cycles("(" + "1" * 5000 + "x", 10)
    assert time.perf_counter() - start < 1.0


def test_cycle_type():
    assert cycle_lengths(parse_cycles("(1 2 3)(4 5)", 5).images) == (3, 2)


def test_canonical_of_type():
    p = canonical_of_type((3, 2), 5)
    assert format_cycles(p) == "(1 2 3)(4 5)"
    assert cycle_lengths(p.images) == (3, 2)
    assert canonical_of_type((1, 1), 2) == Permutation((1, 2))
    assert str(p) == format_cycles(p)


# ------------------------------------------------------- conjugacy classes


def test_class_size_matches_exhaustive_tally():
    for d in range(1, 7):
        counts = count_by_cycle_type(d)
        assert sum(counts.values()) == math.factorial(d)
        for t in all_partitions(d):
            assert class_size(t, d) == counts.get(t, 0)


def class_members(t, d):
    # The oracle rewrites one list in place for each member.
    return [tuple(images) for images in monodromy._class_images(t, d)]


def test_class_iteration_is_exact_and_duplicate_free():
    got = [format_cycles(Permutation(p)) for p in class_members((2, 2), 4)]
    assert got == ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]
    for d in range(1, 7):
        for t in all_partitions(d):
            members = class_members(t, d)
            assert len(members) == class_size(t, d)
            assert len(set(members)) == len(members)
            assert all(cycle_lengths(p) == t for p in members)


def test_class_order_matches_reference():
    # Witness JSON depends on this order, and the outer enumerated slots
    # walk it unpruned.
    for d in range(1, 8):
        for t in all_partitions(d):
            assert class_members(t, d) == list(reference_class_images(t, d))


def test_class_functions_reject_a_type_of_another_degree():
    with pytest.raises(ValueError, match="does not partition"):
        canonical_of_type((3, 1), 5)
    with pytest.raises(ValueError, match="does not partition"):
        class_size((3, 1), 5)
    with pytest.raises(ValueError, match="does not partition"):
        monodromy._class_images((3, 1), 5)
    # Parts that sum to the degree but are not positive ints.
    for t in ((4, -1), (3, 0), (2, 1.0)):
        for function in (class_size, canonical_of_type, monodromy._class_images):
            with pytest.raises((ValueError, TypeError)):
                function(t, 3)


# ------------------------------------------------------------------ oracle


def test_oracle_frozen_results():
    r = find_witness(KLEIN)
    assert r.status == REALIZABLE
    assert r.nodes == 2
    assert [format_cycles(p) for p in r.witness.perms] == [
        "(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)"]
    assert verify_witness(KLEIN, r.witness.perms)

    r = find_witness(PAIR)
    assert r.status == REALIZABLE and r.nodes == 1
    assert [format_cycles(p) for p in r.witness.perms] == ["(1 2)", "(1 2)"]

    r = find_witness(D4)
    assert r.status == UNREALIZABLE and r.nodes == 3 and r.witness is None

    r = find_witness(D9)
    assert r.status == UNREALIZABLE and r.nodes == 945

    r = find_witness(parse_datum("5: 5 | 5"))
    assert r.status == REALIZABLE and r.nodes == 1
    assert [format_cycles(p) for p in r.witness.perms] == [
        "(1 2 3 4 5)", "(1 5 4 3 2)"]


def test_oracle_budget_semantics():
    assert find_witness(D9, budget=None).status == UNREALIZABLE
    r = find_witness(D9, budget=0)
    assert r.status == UNKNOWN and r.nodes == 1 and r.witness is None
    r = find_witness(D9, budget=1)
    assert r.status == UNKNOWN and r.nodes == 2
    # a budget big enough to finish changes nothing
    assert find_witness(D9, budget=10**6).status == UNREALIZABLE


def test_oracle_fills_many_rows_without_recursion():
    # 598 enumerated transposition rows: their class generators wait on a
    # list, so the budget ends the search, not the recursion limit
    datum = BranchDatum(301, ((2,) + (1,) * 299,) * 600)
    start = time.perf_counter()
    result = find_witness(datum, budget=1000)
    assert (result.status, result.nodes, result.witness) == (UNKNOWN, 1001, None)
    assert time.perf_counter() - start < 5


def test_package_keeps_one_cache():
    # the grid search's table is the only lru_cache; the character count
    # keeps its own table, shapes included
    caches = []
    for info in pkgutil.iter_modules(conecover.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"conecover.{info.name}")
        caches += [f"{info.name}.{name}" for name, obj in vars(module).items()
                   if isinstance(obj, functools._lru_cache_wrapper)
                   and obj.__module__ == module.__name__]
    assert caches == ["lift._grid"]
    result = find_witness(parse_datum("10: 6,2,2 | 6,1,1,1,1 | 4,2,2,2"))
    assert result.status == UNREALIZABLE
    assert counting._TABLES[10][0] == partitions_of(10)


def test_oracle_is_row_order_invariant():
    import itertools

    base = D9
    for order in itertools.permutations(range(3)):
        datum = BranchDatum(base.degree, tuple(base.rows[i] for i in order))
        r = find_witness(datum)
        assert r.status == UNREALIZABLE

    for order in itertools.permutations(range(3)):
        datum = BranchDatum(4, tuple(KLEIN.rows[i] for i in order))
        r = find_witness(datum)
        assert r.status == REALIZABLE
        assert verify_witness(datum, r.witness.perms)
        for p, row in zip(r.witness.perms, datum.rows):
            assert cycle_lengths(p.images) == row.parts


def test_oracle_leaves_no_cyclic_garbage():
    enabled = gc.isenabled()
    gc.disable()
    try:
        for datum in (KLEIN, D9, D10):
            gc.collect()
            find_witness(datum)
            assert gc.collect() == 0
        list(enumerate_data(7, 3))
        assert gc.collect() == 0
        assert search_certificate(KLEIN) is None  # the whole grid, no certificate
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_oracle_rejects_invalid_datum():
    with pytest.raises(ValueError):
        find_witness(BranchDatum(4, ((3, 1), (2, 2))))


def test_oracle_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        find_witness(KLEIN, budget=-1)


def _outcome(result):
    witness = None if result.witness is None else json.dumps(result.witness.to_json())
    return result.status, result.nodes, witness


def _spy_on_counts(monkeypatch):
    # The degree of every transitive count taken from now on.
    counted = []

    class Spy(TupleCounts):
        def transitive(self, degree, rows):
            counted.append(degree)
            return super().transitive(degree, rows)

    monkeypatch.setattr(counting, "TupleCounts", Spy)
    return counted


def test_oracle_matches_reference(monkeypatch):
    data = [datum for degree in range(2, 10) for datum in enumerate_data(degree, 3)]
    data += [datum for degree in range(4, 8) for datum in enumerate_data(degree, 4)]
    # two outer levels of enumeration
    data += [datum for degree in range(3, 7) for datum in enumerate_data(degree, 5)]
    for datum in data:
        assert _outcome(find_witness(datum)) == _outcome(reference_find_witness(datum))

    counted = _spy_on_counts(monkeypatch)
    for datum, space in ((D10, 22400), (D8, 11025)):
        counted.clear()
        expected = reference_find_witness(datum)
        assert _outcome(expected) == (UNREALIZABLE, space, None)
        assert _outcome(find_witness(datum)) == _outcome(expected)
        assert counted and counted[0] == datum.degree
        # one node short of the space, the count still settles it
        counted.clear()
        expected = reference_find_witness(datum, budget=space - 1)
        assert _outcome(expected) == (UNREALIZABLE, space, None)
        assert _outcome(find_witness(datum, budget=space - 1)) == _outcome(expected)
        assert counted and counted[0] == datum.degree


def test_count_needs_the_probe_and_the_degree_cap(monkeypatch):
    # A count of zero settles this datum at the default budget, as test_cli
    # checks; no count runs under a budget below the probe, and above the
    # cap only one that is None or covers the space still counts.
    datum = parse_datum("20: 11,9 | 2,2,2,2,2,2,2,2,2,2 | 2,2,2,2,2,2,2,2,2,2")
    space = 654729075
    counted = _spy_on_counts(monkeypatch)
    assert _outcome(find_witness(datum, budget=999)) == (UNKNOWN, 1000, None)
    monkeypatch.setattr(monodromy, "_COUNT_MAX_DEGREE", 19)
    assert _outcome(find_witness(datum, budget=5000)) == (UNKNOWN, 5001, None)
    assert not counted
    for budget in (None, space):
        assert _outcome(find_witness(datum, budget=budget)) == (UNREALIZABLE, space, None)
        assert counted == [20]
        counted.clear()


BUDGET_DATA = [datum for points, top in ((3, 8), (4, 7), (5, 6))
               for degree in range(2, top + 1) for datum in enumerate_data(degree, points)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUDGET_DATA), st.integers(-8, 7), st.floats(0, 1))
@example(D9, 2, 0.0)  # one node short of the space: unknown
@example(D9, 3, 0.0)  # exactly the space: unrealizable
def test_oracle_budgets_match_reference(datum, pick, share):
    # Budgets where a skipped run of nodes or the end of a class meets the
    # budget: one node short of, at and past the stopping node, and around
    # the count probe; or, for a negative pick, a draw up to twice the space.
    nodes = find_witness(datum, budget=None).nodes
    space = math.prod(sorted(class_size(row, datum.degree) for row in datum.rows)[:-2])
    budgets = (0, 1, nodes - 1, nodes, nodes + 1, 999, 1000, 1001)
    budget = budgets[pick] if pick >= 0 else int(share * 2 * space)
    expected = reference_find_witness(datum, budget=budget)
    assert _outcome(find_witness(datum, budget=budget)) == _outcome(expected)


def test_last_slot_walk_prunes(monkeypatch):
    # Most members of the last class are ruled out before they are built,
    # and skipped members still count as nodes.
    leaves = []
    real = monodromy._has_type

    def spy(*args):
        leaves.append(1)
        return real(*args)

    monkeypatch.setattr(monodromy, "_has_type", spy)
    datum = parse_datum("10: 6,2,2 | 5,2,1,1,1 | 4,2,2,2")
    result = find_witness(datum)
    assert result.status == REALIZABLE and result.nodes == 5325
    assert verify_witness(datum, result.witness.perms)
    assert 0 < len(leaves) < result.nodes // 2

    # A skip that carries the position past the count probe still counts.
    counted = []
    real_count = monodromy._transitive_count
    monkeypatch.setattr(monodromy, "_transitive_count",
                        lambda degree, rows: counted.append(degree) or real_count(degree, rows))
    result = find_witness(parse_datum("10: 6,2,2 | 6,1,1,1,1 | 4,2,2,2"))
    assert _outcome(result) == (UNREALIZABLE, 18900, None)
    assert counted == [10]


@st.composite
def class_walks(draw):
    # A class of degree <= 8, a prefix permutation and a cycle type `need`
    # asked of x -> images[prefix[x] - 1] for each member `images`.
    degree = draw(st.integers(min_value=1, max_value=8))
    parts = draw(st.sampled_from(all_partitions(degree)))
    prefix = tuple(draw(st.permutations(range(1, degree + 1))))
    need = draw(st.sampled_from(all_partitions(degree)))
    return degree, parts, prefix, need


@settings(max_examples=200, deadline=None)
@given(class_walks())
@example((8, (4, 2, 2), (8, 7, 6, 5, 4, 3, 2, 1), (3, 3, 2)))
@example((8, (2, 2, 2, 2), (1, 2, 3, 4, 5, 6, 7, 8), (8,)))
def test_last_class_walk_matches_reference(case):
    # The pruned walk over the last class, point by point: every member is
    # a leaf or inside a skip, each leaf sits at its reference position,
    # and no member whose conjugate has the type `need` is skipped.
    degree, parts, prefix, need = case
    index = [x - 1 for x in prefix]
    back = [0] * degree
    for x, y in enumerate(index):
        back[y] = x
    counts = [0] * (degree + 1)
    for part in need:
        counts[part] += 1
    position = 0
    leaves = {}
    for item in monodromy._class_images(parts, degree, (index, back, counts, need[0])):
        if isinstance(item, int):
            position += item
        else:
            leaves[tuple(item)] = position
            position += 1
    assert position == class_size(parts, degree)
    reference = list(reference_class_images(parts, degree))
    assert all(reference[at] == images for images, at in leaves.items())
    for images in reference:
        if _type_of(tuple([images[i] - 1 for i in index])) == need:
            assert images in leaves


def test_oracle_only_data_are_pinned():
    # The degree-10 3-point data that only the oracle settles: no
    # certificate on the default grid, and exhaustion (or, for the last, a
    # count) proves them unrealizable.
    for text, space in (("10: 5,5 | 4,3,1,1,1 | 2,2,2,2,2", 945),
                        ("10: 5,4,1 | 3,3,2,2 | 2,2,2,2,2", 945),
                        ("10: 5,3,2 | 3,3,2,2 | 2,2,2,2,2", 945),
                        ("10: 3,3,3,1 | 3,3,3,1 | 3,3,3,1", 22400)):
        datum = parse_datum(text)
        expected = reference_find_witness(datum)
        assert _outcome(expected) == (UNREALIZABLE, space, None)
        assert _outcome(find_witness(datum)) == _outcome(expected)
        assert classify(datum).verdict == "EXCEPTIONAL_ORACLE"


@st.composite
def count_rows(draw):
    # 3 rows up to degree 6 or 4 rows up to degree 5, any partitions
    n = draw(st.sampled_from((3, 4)))
    degree = draw(st.integers(min_value=1, max_value=6 if n == 3 else 5))
    rows = draw(st.lists(st.sampled_from(partitions_of(degree)), min_size=n, max_size=n))
    return degree, tuple(rows)


@settings(max_examples=50, deadline=None)
@given(count_rows())
@example((4, ((3, 1), (2, 2), (2, 2))))                  # N = 0
@example((6, ((4, 2), (4, 1, 1), (2, 2, 2))))            # N = 90 > T = 0
@example((3, ((2, 1), (2, 1), (1, 1, 1), (1, 1, 1))))    # N = 3 > T = 0
@example((5, ((5,), (5,), (3, 1, 1), (2, 2, 1))))        # N = T = 2880
def test_transitive_count_matches_brute_force(case):
    degree, rows = case
    counts = TupleCounts()
    got = counts.product_one(degree, rows), counts.transitive(degree, rows)
    assert got == reference_transitive_count(degree, rows)


def test_verify_witness_negatives():
    good = find_witness(KLEIN).witness.perms
    assert verify_witness(KLEIN, good)
    # wrong count
    assert not verify_witness(KLEIN, good[:2])
    # wrong degree
    assert not verify_witness(KLEIN, (Permutation((2, 1)),) * 3)
    # wrong cycle type in one slot
    bad = (good[0], good[1], Permutation((1, 2, 3, 4)))
    assert not verify_witness(KLEIN, bad)
    # right types, non-identity product
    p = parse_cycles("(1 2)(3 4)", 4)
    q = parse_cycles("(1 3)(2 4)", 4)
    assert not verify_witness(KLEIN, (p, p, q))
    # right types and identity product, but not transitive
    two_rows = BranchDatum(4, ((2, 2), (2, 2)))
    assert not verify_witness(two_rows, (p, p))
    # each type fits into its row, but one row does not partition the degree
    assert not verify_witness(BranchDatum(4, ((2, 2, 1), (2, 2), (2, 2))), good)


def test_witness_json_round_trip():
    w = find_witness(KLEIN).witness
    blob = w.to_json()
    assert blob == {"degree": 4,
                    "perms": ["(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)"]}
    assert MonodromyWitness.from_json(blob) == w


def test_witness_json_refuses_a_non_integer_degree():
    # int() would read each of these as a degree of 4 or 1.
    blob = find_witness(KLEIN).witness.to_json()
    for degree in (4.7, 4.0, "4", True):
        with pytest.raises(TypeError, match="degree"):
            MonodromyWitness.from_json({**blob, "degree": degree})
