"""Admissibility decision, odd-lattice distance, and angle parsing."""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conecover import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASE_EMPTY,
    CASE_NONE,
    AdmissibilityVerdict,
    AngleParseError,
    BranchDatum,
    coaxial_check,
    decide_admissible,
    format_angles,
    l1_distance_to_odd_lattice,
    lift_angles,
    parse_angles,
    partitions_of,
    search_certificate,
    troyanov_admissible,
)
from conecover.angles import (
    angles_from_json,
    angles_to_json,
    as_angles,
    decide_scaled,
    parse_fraction,
    scaled_numerators,
)

from oracles import (
    gauss_bonnet_margin,
    odd_box_distance,
    rational_gcd,
    reference_admissible,
    reference_coaxial,
    strip_units,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


# ---------------------------------------------------------------- lattice


def test_lattice_frozen_values():
    r = l1_distance_to_odd_lattice((F(-1, 2), 1, 1, 1, 1, 1, 1))
    assert r.distance == F(1, 2)
    assert r.nearest == (-1, 1, 1, 1, 1, 1, 1)

    r = l1_distance_to_odd_lattice((1, 0, 0))
    assert r.distance == 0
    assert r.nearest == (1, 0, 0)

    r = l1_distance_to_odd_lattice((F(-1, 2),) * 3)
    assert r.distance == F(3, 2)
    assert r.nearest == (-1, -1, -1)

    # both flips cost the same; the lowest index moves
    r = l1_distance_to_odd_lattice((F(1, 2), F(1, 2)))
    assert r.distance == 1
    assert r.nearest == (1, 0)

    with pytest.raises(ValueError):
        l1_distance_to_odd_lattice(())


def test_lattice_result_json():
    r = l1_distance_to_odd_lattice((F(1, 2), F(1, 2)))
    blob = r.to_json()
    assert blob == {"distance": "1", "nearest": [1, 0]}


@settings(max_examples=400, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=5))
def test_lattice_matches_exhaustive_box(vec):
    r = l1_distance_to_odd_lattice(vec)
    assert r.distance == odd_box_distance(vec)
    assert len(r.nearest) == len(vec)
    assert sum(r.nearest) % 2 == 1
    assert sum(abs(F(x) - a) for x, a in zip(vec, r.nearest)) == r.distance


# small denominators reach the boundaries: units, distance exactly 1;
# larger ones leave the default grid
angle = st.one_of(
    st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6),
    st.fractions(min_value=F(1, 30), max_value=5, max_denominator=30),
)


@st.composite
def angle_vectors(draw):
    if draw(st.booleans()):
        return draw(st.lists(angle, min_size=1, max_size=8))
    # a lift through a random (possibly invalid) datum, as in the search
    degree = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.sampled_from(partitions_of(degree)),
                         min_size=1, max_size=4))
    base = draw(st.lists(angle, min_size=len(rows), max_size=len(rows)))
    return lift_angles(base, BranchDatum(degree, tuple(rows)))


@settings(max_examples=400, deadline=None)
@given(angle_vectors())
@example((1, 1))                     # EMPTY
@example((3, 1))                     # one leftover angle, at distance 1
@example((F(1, 2),) * 4)             # distance 2 but a zero margin
@example((F(1, 2),) * 3)             # A
@example((F(1, 2), F(2, 3)))         # distance 5/6
@example((F(1, 2), F(1, 2)))         # distance 1: B
@example((2, 2))                     # distance 1: C
def test_decide_matches_reference(beta):
    verdict = decide_admissible(beta)
    assert (verdict.admissible, verdict.case) == reference_admissible(beta)
    if verdict.lattice is not None:
        shifted = [F(b) - 1 for b in beta if b != 1]
        distance = verdict.lattice.distance
        nearest = verdict.lattice.nearest
        assert distance == odd_box_distance(shifted)
        assert sum(nearest) % 2 == 1
        assert sum(abs(x - a) for x, a in zip(shifted, nearest)) == distance


def check_scaled(beta, scale):
    """decide_scaled over `scale` against decide_admissible and the reference.

    Returns the verdict, or None where the odd-lattice distance is exactly
    1 and the boundary cases B, C and D decide.
    """
    verdict = decide_admissible(beta)
    assert (verdict.admissible, verdict.case) == reference_admissible(beta)
    case, lattice, coaxial, why = decide_scaled(scaled_numerators(beta, scale), scale)
    assert case == verdict.case
    assert coaxial == verdict.coaxial
    assert (None if why is None else why[0].format(F(why[1], scale))) == verdict.reason
    if lattice is None:
        assert verdict.lattice is None
        return verdict.admissible
    assert F(lattice[0], scale) == verdict.lattice.distance
    assert tuple(lattice[1]) == verdict.lattice.nearest
    return None if lattice[0] == scale else verdict.admissible


@pytest.mark.parametrize("beta, expected", [
    ((1, 1), True),                   # EMPTY
    ((3, 1), False),                  # one leftover angle, at distance 1
    ((F(1, 2),) * 4, False),          # distance 2 but a zero margin
    ((F(1, 2),) * 3, True),           # A
    ((F(1, 2), F(2, 3)), False),      # distance 5/6
    ((F(1, 2), F(1, 2)), None),       # distance 1: B
    ((2, 2), None),                   # distance 1: C
])
def test_scaled_admissible_boundaries(beta, expected):
    assert check_scaled(beta, 60) is expected


@settings(max_examples=400, deadline=None)
@given(angle_vectors(), st.integers(min_value=1, max_value=3))
def test_scaled_admissible_matches_decide(beta, factor):
    # the grid search decides over a common denominator that need not be least
    check_scaled(beta, math.lcm(*(F(b).denominator for b in beta)) * factor)


# ----------------------------------------------------------------- pieces


def test_strip_units():
    assert strip_units((1, F(1, 2), 1, 2)) == (F(1, 2), 2)
    assert strip_units((1, 1)) == ()
    got = strip_units((F(3, 2), 2))
    assert strip_units(got) == got


def test_gauss_bonnet_margin():
    assert gauss_bonnet_margin((F(1, 2),) * 3) == F(1, 2)
    assert gauss_bonnet_margin((3,)) == 4
    assert gauss_bonnet_margin((F(1, 3), F(1, 3))) == F(2, 3)


def test_rational_gcd():
    assert rational_gcd((F(1, 2),)) == F(1, 2)
    assert rational_gcd((2, 3)) == 1
    assert rational_gcd((F(1, 2), F(3, 4))) == F(1, 4)
    assert rational_gcd((3, 6)) == 3
    assert rational_gcd((F(2, 3), F(1, 2))) == F(1, 6)
    with pytest.raises(ValueError):
        rational_gcd(())
    with pytest.raises(ValueError):
        rational_gcd((F(1, 2), 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12),
                min_size=1, max_size=5))
def test_rational_gcd_divides_and_is_maximal(vals):
    g = rational_gcd(vals)
    ratios = [v / g for v in vals]
    assert all(r.denominator == 1 for r in ratios)
    assert math.gcd(*(int(r) for r in ratios)) == 1


def test_coaxial_frozen_witnesses():
    w = coaxial_check((F(1, 2), F(1, 2), 2))
    assert w is not None
    assert w.signs == (1, 1)
    assert w.k_prime == 1
    assert w.k_double_prime == 0
    assert w.eta == F(1, 2)
    assert w.b == (1, 1, 2)

    w = coaxial_check((F(1, 2), F(3, 2), 2))
    assert w is not None
    assert w.signs == (-1, 1)
    assert w.b == (1, 3, 2)

    assert coaxial_check((F(3, 2), F(3, 2), 2)) is None

    with pytest.raises(ValueError):
        coaxial_check((F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        coaxial_check((2, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
                .filter(lambda b: b.denominator != 1), min_size=1, max_size=4),
       st.lists(st.integers(min_value=2, max_value=48), min_size=1, max_size=4))
@example([F(1, 2), F(1, 2)], [2])                   # k'+k'' = 1
@example([F(1, 2), F(1, 3), F(5, 6)], [2])          # k'+k'' = 0: eta = 1/6
@example([F(3, 2), F(3, 4), F(3, 4)], [2])          # k'+k'' = 0: eta = 3/4
@example([F(1, 2), F(1, 2)], [48, 48])              # lifted angles up to 48
def test_coaxial_matches_reference(nonint, ints):
    # eta and b are built in integers; the reference builds them with
    # rational_gcd over the entries and k'+k'' ones
    beta = nonint + [F(v) for v in ints]
    assert coaxial_check(beta) == reference_coaxial(beta)


# ----------------------------------------------------------------- decide


def test_decide_frozen_verdicts():
    v = decide_admissible(())
    assert v.admissible and v.case == CASE_EMPTY

    v = decide_admissible((1, 1, 1))
    assert v.admissible and v.case == CASE_EMPTY

    v = decide_admissible((1, 2))
    assert not v.admissible and v.case == CASE_NONE
    assert "single" in v.reason

    v = decide_admissible((F(1, 6), F(1, 6), F(1, 6)))
    assert not v.admissible
    assert "Gauss-Bonnet" in v.reason

    v = decide_admissible((F(1, 5), F(1, 5)))
    assert v.admissible and v.case == CASE_B

    v = decide_admissible((F(1, 3), F(2, 3)))
    assert not v.admissible
    assert "odd-lattice distance" in v.reason

    v = decide_admissible((F(1, 2),) * 3)
    assert v.admissible and v.case == CASE_A
    assert v.lattice.distance == F(3, 2)

    v = decide_admissible((F(1, 2), F(2, 3), F(2, 3)))
    assert v.admissible and v.case == CASE_A
    assert v.lattice.distance == F(7, 6)

    v = decide_admissible((F(3, 2), F(3, 2)))
    assert v.admissible and v.case == CASE_B
    assert v.lattice.distance == 1

    v = decide_admissible((F(1, 3), F(1, 3)))
    assert v.admissible and v.case == CASE_B

    v = decide_admissible((2, 2))
    assert v.admissible and v.case == CASE_C

    v = decide_admissible((5, 5))
    assert v.admissible and v.case == CASE_C

    v = decide_admissible((2, 4))
    assert not v.admissible
    assert "2*max" in v.reason

    v = decide_admissible((F(1, 2), F(1, 2), 2))
    assert v.admissible and v.case == CASE_D
    assert v.coaxial is not None and v.coaxial.b == (1, 1, 2)

    v = decide_admissible((F(3, 2), F(3, 2), 2))
    assert not v.admissible
    assert "coaxial" in v.reason

    v = decide_admissible((F(1, 2), F(3, 2)))
    assert not v.admissible and v.case == CASE_NONE
    assert "equal pair" in v.reason


def test_decide_rejects_bad_input():
    with pytest.raises(TypeError):
        decide_admissible((0.5, 0.5))
    with pytest.raises(ValueError):
        decide_admissible((0, 1))
    with pytest.raises(ValueError):
        decide_admissible((-F(1, 2),))


def test_verdict_consistency_guard():
    with pytest.raises(ValueError):
        AdmissibilityVerdict(True, CASE_NONE)
    with pytest.raises(ValueError):
        AdmissibilityVerdict(False, CASE_A)


def test_verdict_json_round_trip():
    for beta in ((1, 1), (F(1, 2),) * 3, (2, 2), (F(1, 2), F(1, 2), 2),
                 (F(3, 2), F(3, 2), 2), (F(1, 3), F(2, 3))):
        v = decide_admissible(beta)
        blob = v.to_json()
        back = AdmissibilityVerdict.from_json(blob)
        assert back == v
        assert blob["admissible"] == v.admissible
        assert blob["case"] == v.case


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decide_is_permutation_invariant(data):
    beta = data.draw(st.lists(
        st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6),
        min_size=1, max_size=5))
    shuffled = data.draw(st.permutations(beta))
    a = decide_admissible(beta)
    b = decide_admissible(shuffled)
    assert a.admissible == b.admissible
    assert a.case == b.case
    if a.lattice is not None:
        assert a.lattice.distance == b.lattice.distance


def test_verdict_json_refuses_what_int_would_coerce():
    blob = decide_admissible((F(1, 2), F(1, 2), 2)).to_json()
    witness = blob["coaxial_witness"]
    bad = [{"nearest": [1, -1.0, -1]}, {"nearest": [True, -1, -1]}, {"case": 1},
           {"coaxial_witness": {**witness, "k_prime": "1"}},
           {"coaxial_witness": {**witness, "k_double_prime": 0.0}},
           {"coaxial_witness": {**witness, "signs": [1, True]}},
           {"coaxial_witness": {**witness, "b": [1, 1, "2"]}}]
    for change in bad:
        with pytest.raises(TypeError):
            AdmissibilityVerdict.from_json({**blob, **change})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6),
                min_size=1, max_size=5))
def test_decide_ignores_unit_angles(beta):
    with_units = tuple(beta) + (1, 1)
    a = decide_admissible(beta)
    b = decide_admissible(with_units)
    assert (a.admissible, a.case, a.reason) == (b.admissible, b.case, b.reason)


# --------------------------------------------------------------- troyanov


def test_troyanov_frozen():
    assert troyanov_admissible((F(1, 2), F(1, 2)))
    assert not troyanov_admissible((F(1, 3), F(1, 2)))
    assert troyanov_admissible((F(1, 2), F(2, 3), F(2, 3)))
    assert not troyanov_admissible((F(1, 6), F(1, 6), F(1, 6)))
    with pytest.raises(ValueError):
        troyanov_admissible((F(1, 2),))
    with pytest.raises(ValueError):
        troyanov_admissible((F(1, 2), 1))
    with pytest.raises(ValueError):
        troyanov_admissible((F(1, 2), F(3, 2)))


# ---------------------------------------------------------------- parsing


def test_parse_fraction():
    assert parse_fraction("2/3") == F(2, 3)
    assert parse_fraction("7") == 7
    assert parse_fraction(5) == 5
    assert parse_fraction("+3/6") == F(1, 2)
    assert parse_fraction("-1/2") == F(-1, 2)
    for bad in ("0.5", "a", "1/2/3", "2/0", 0.5, True, None, "2" * 5000, "1/" + "2" * 5000):
        with pytest.raises(AngleParseError):
            parse_fraction(bad)


def test_parse_and_format_angles():
    assert parse_angles("1/2, 2/3 ,2") == (F(1, 2), F(2, 3), 2)
    assert format_angles((F(1, 2), F(2, 3), 2)) == "1/2,2/3,2"
    assert parse_angles(format_angles((F(7, 6), 1))) == (F(7, 6), 1)
    for bad in ("", "0,1", "-1/2", "1/2;2", "0.5,0.5"):
        with pytest.raises(AngleParseError):
            parse_angles(bad)


def test_angles_json_round_trip():
    beta = (F(1, 2), F(2, 3), 2)
    blob = angles_to_json(beta)
    assert blob == ["1/2", "2/3", "2"]
    assert angles_from_json(blob) == beta
    with pytest.raises(AngleParseError):
        angles_from_json([])
    with pytest.raises(AngleParseError):
        angles_from_json(["-1"])


def test_as_angles_guards():
    assert as_angles(("1/2", 2)) == (F(1, 2), 2)
    with pytest.raises(TypeError):
        as_angles((0.5,))
    with pytest.raises(ValueError):
        as_angles((0,))


def test_library_reads_integers_and_p_over_q():
    datum = BranchDatum(4, ((3, 1), (2, 2), (2, 2)))
    assert as_angles(("1/2", 2, " +3/6 ")) == (F(1, 2), 2, F(1, 2))
    assert decide_admissible(("1/2", "2/3", 2)) == decide_admissible((F(1, 2), F(2, 3), 2))
    assert lift_angles(("1", "1/2", 2), datum) == lift_angles((1, F(1, 2), 2), datum)
    assert l1_distance_to_odd_lattice(("1/2", 2)) == l1_distance_to_odd_lattice((F(1, 2), 2))


# Fraction(str) reads the first two on every version and "1_0/3" as 10/3 on
# 3.11 and later, raises ZeroDivisionError on "1/0", and takes True as 1.
@pytest.mark.parametrize("bad", ["0.5", "1e-3000000", "1_0/3", "1/0", True])
def test_library_readers_refuse_what_parse_fraction_refuses(bad):
    datum = BranchDatum(4, ((2, 2), (2, 2), (2, 2)))
    readers = (as_angles, decide_admissible, l1_distance_to_odd_lattice,
               lambda beta: lift_angles(beta, datum),
               lambda beta: search_certificate(datum, extra_candidates=[beta]))
    for read in readers:
        start = time.perf_counter()
        with pytest.raises(AngleParseError):
            read(("1/2", bad, "1/2"))
        assert time.perf_counter() - start < 0.01


def test_verdict_refuses_unknown_cases_and_reasons():
    with pytest.raises(ValueError, match="unknown case 'bogus'"):
        AdmissibilityVerdict(False, "bogus")
    with pytest.raises(TypeError, match="'reason' must be a string or null, got 5"):
        AdmissibilityVerdict(False, CASE_NONE, reason=5)
    blob = {"admissible": False, "case": "bogus", "reason": 5}
    for change in ({}, {"reason": None}, {"case": CASE_NONE}):
        with pytest.raises((TypeError, ValueError)):
            AdmissibilityVerdict.from_json({**blob, **change})
    assert AdmissibilityVerdict.from_json({**blob, "case": CASE_NONE, "reason": "x"})
