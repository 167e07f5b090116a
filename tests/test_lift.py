"""Angle lifting, exceptionality certificates, and the certificate search."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conecover import (
    BranchDatum,
    CertificationRefused,
    ExceptionalityCertificate,
    certify_exceptional,
    classify,
    decide_admissible,
    enumerate_data,
    lift_angles,
    parse_datum,
    partitions_of,
    search_certificate,
    verify_certificate,
)
from conecover import lift as lift_mod
from conecover.angles import scaled_numerators

from oracles import reference_lift_decision, reference_search_certificate, reference_seeds

D4 = parse_datum("4: 3,1 | 2,2 | 2,2")
# construction order kept on purpose; parse_datum would sort the rows
D9 = BranchDatum(9, ((2, 2, 2, 2, 1), (3, 3, 3), (3, 3, 3)))
KLEIN = parse_datum("4: 2,2 | 2,2 | 2,2")
PAIR = parse_datum("2: 2 | 2")


def test_lift_frozen_values():
    assert lift_angles((F(1, 2),) * 3, D4) == (F(3, 2), F(1, 2), 1, 1, 1, 1)
    assert lift_angles((F(1, 2), F(2, 3), F(2, 3)), D9) == (
        1, 1, 1, 1, F(1, 2), 2, 2, 2, 2, 2, 2)
    assert lift_angles((1, F(1, 2), F(1, 2)), D4) == (3, 1, 1, 1, 1, 1)


def test_lift_follows_row_order():
    canonical = D9.canonical()
    assert [r.parts for r in canonical.rows] == [(3, 3, 3), (3, 3, 3), (2, 2, 2, 2, 1)]
    assert lift_angles((F(2, 3), F(2, 3), F(1, 2)), canonical) == (
        2, 2, 2, 2, 2, 2, 1, 1, 1, 1, F(1, 2))


def test_lift_rejects_length_mismatch():
    with pytest.raises(ValueError):
        lift_angles((F(1, 2),) * 2, D4)
    with pytest.raises(ValueError):
        lift_angles((F(1, 2),) * 4, D4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lift_total_angle_identity(data):
    degree = data.draw(st.integers(min_value=1, max_value=8))
    pool = partitions_of(degree)
    rows = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    datum = BranchDatum(degree, rows)
    beta = tuple(data.draw(st.lists(
        st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6),
        min_size=len(rows), max_size=len(rows))))
    lifted = lift_angles(beta, datum)
    assert len(lifted) == sum(len(r) for r in datum.rows)
    assert sum(lifted) == sum(b * r.size for b, r in zip(beta, datum.rows))


def test_certify_and_verify_round_trip():
    cert = certify_exceptional(D4, (1, F(1, 2), F(1, 2)))
    assert verify_certificate(cert)
    assert cert.witness_beta == (1, F(1, 2), F(1, 2))
    assert cert.lifted == (3, 1, 1, 1, 1, 1)
    assert cert.base_verdict.admissible
    assert not cert.lifted_verdict.admissible

    blob = cert.to_json()
    assert set(blob) == {"datum", "beta", "base_verdict", "lifted", "lifted_verdict"}
    back = ExceptionalityCertificate.from_json(blob)
    assert back == cert
    assert verify_certificate(back)


def test_certify_refusals_carry_kind():
    with pytest.raises(CertificationRefused) as err:
        certify_exceptional(D4, (F(1, 2), F(3, 2), 1))
    assert err.value.kind == "base-not-admissible"
    assert err.value.base_verdict is not None
    assert err.value.lifted_verdict is None

    with pytest.raises(CertificationRefused) as err:
        certify_exceptional(D4, (1, 1, 1))
    assert err.value.kind == "lift-admissible"
    assert err.value.lifted_verdict is not None
    assert err.value.lifted_verdict.admissible


def test_certify_rejects_bad_input():
    bad = BranchDatum(4, ((3, 1), (2, 2)))
    with pytest.raises(ValueError):
        certify_exceptional(bad, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        certify_exceptional(D4, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        certify_exceptional(D4, (F(1, 2), F(1, 2), 0))


def test_verify_rejects_tampering():
    cert = certify_exceptional(D4, (1, F(1, 2), F(1, 2)))

    wrong_beta = dataclasses.replace(cert, witness_beta=(1, 1, 1))
    assert not verify_certificate(wrong_beta)

    wrong_lift = dataclasses.replace(cert, lifted=(1, 1, 1, 1, 1, 1))
    assert not verify_certificate(wrong_lift)

    swapped = dataclasses.replace(
        cert, base_verdict=cert.lifted_verdict, lifted_verdict=cert.base_verdict)
    assert not verify_certificate(swapped)

    wrong_datum = dataclasses.replace(cert, datum=BranchDatum(4, ((3, 1), (2, 2))))
    assert not verify_certificate(wrong_datum)

    short_beta = dataclasses.replace(cert, witness_beta=(1, F(1, 2)))
    assert not verify_certificate(short_beta)

    zero_beta = dataclasses.replace(cert, witness_beta=(1, F(1, 2), F(0)))
    assert not verify_certificate(zero_beta)

    inadmissible = decide_admissible((F(1, 2), F(3, 2), 1))
    assert not inadmissible.admissible
    base_claims_no = dataclasses.replace(cert, base_verdict=inadmissible)
    assert not verify_certificate(base_claims_no)

    admissible = decide_admissible((1, 1, 1))
    assert admissible.admissible
    lift_claims_yes = dataclasses.replace(cert, lifted_verdict=admissible)
    assert not verify_certificate(lift_claims_yes)


def test_search_frozen_results():
    cert = search_certificate(D4)
    assert cert is not None
    assert cert.witness_beta == (F(1, 2), F(1, 2), F(1, 2))
    assert verify_certificate(cert)

    cert = search_certificate(D9)
    assert cert is not None
    assert cert.witness_beta == (F(1, 2), F(2, 3), F(2, 3))
    assert verify_certificate(cert)

    # the winning vector tracks the row order of the datum it was given
    cert = search_certificate(D9.canonical())
    assert cert.witness_beta == (F(2, 3), F(2, 3), F(1, 2))
    assert verify_certificate(cert)

    assert search_certificate(PAIR) is None
    assert search_certificate(KLEIN) is None


def test_search_is_deterministic():
    assert search_certificate(D4) == search_certificate(D4)
    assert search_certificate(D9) == search_certificate(D9)


def test_search_rejects_bad_input():
    with pytest.raises(ValueError):
        search_certificate(BranchDatum(4, ((3, 1), (2, 2))))
    # KLEIN has no family certificate, so the extras stage is reached
    with pytest.raises(ValueError):
        search_certificate(KLEIN, extra_candidates=[(F(1, 2), F(1, 2))])


def test_search_candidate_order(monkeypatch):
    # family seeds win over everything else
    cert = search_certificate(D4, extra_candidates=[(1, "1/2", "1/2")])
    assert cert.witness_beta == (F(1, 2), F(1, 2), F(1, 2))

    # with the family stage emptied, extras are tried before the grid
    monkeypatch.setattr(lift_mod, "_family_candidates", lambda datum: [])
    cert = search_certificate(D4, extra_candidates=[(1, "1/2", "1/2")])
    assert cert.witness_beta == (1, F(1, 2), F(1, 2))

    # and with no extras either, the grid still finds a witness
    cert = search_certificate(D4)
    assert cert is not None
    assert verify_certificate(cert)


def test_family_seeds_match_reference():
    # the seed order is frozen: every 3-point datum up to degree 10 and
    # every datum of 2-6 points up to degree 7
    data = [datum for degree in range(2, 11) for datum in enumerate_data(degree, 3)]
    data += [datum for n in (2, 4, 5, 6) for degree in range(2, 8)
             for datum in enumerate_data(degree, n)]
    for datum in data:
        assert lift_mod._family_candidates(datum) == reference_seeds(datum)


def test_family_seeds_of_many_rows_are_quick():
    # ten rows: listing every distinct row order of a seed took minutes
    datum = parse_datum("6: " + " | ".join(["2,1,1,1,1"] * 10))
    start = time.perf_counter()
    seeds = lift_mod._family_candidates(datum)
    assert time.perf_counter() - start < 0.1
    assert seeds == reference_seeds(datum) and len(seeds) == 11


def test_screen_is_only_a_filter(monkeypatch):
    # with the integer screen passing every grid lift, the certificate rule
    # alone still picks the same first certificate and still finds none; the
    # grid is built first, since building it runs the screen too
    lift_mod._admissible_grid(3, 6, 6)
    monkeypatch.setattr(lift_mod, "_lift_case", lambda *args: lift_mod.CASE_NONE)
    cert = search_certificate(parse_datum("8: 4,4 | 3,2,2,1 | 2,2,2,2"))
    assert cert is not None
    assert cert.witness_beta == (F(1, 4), F(1, 3), F(1, 2))
    assert search_certificate(KLEIN) is None


def grid_vectors(n, max_numerator, max_denominator):
    # the grid's runs (prefix, lasts) flattened into its vectors, in order
    values = lift_mod._grid(max_numerator, max_denominator)[0]
    runs = lift_mod._admissible_grid(n, max_numerator, max_denominator)
    return tuple(tuple(values[i] for i in prefix + (last,))
                 for prefix, lasts in runs for last in lasts)


def test_grid_order_is_frozen():
    # the first certificate found depends on this order
    for n, size, digest in (
        (2, 23, "c19148dd5106fa1fa6f748b334cdf66e112934512f268b67aeeb2ee755067252"),
        (3, 3360, "9efe5a23fa40841b071bc4bed60832bba37c4e9494e7c9e1b55d3e79bfb90186"),
    ):
        grid = grid_vectors(n, 6, 6)
        assert len(grid) == size
        assert hashlib.sha256(str(grid).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, max_numerator, max_denominator",
                         [(2, 12, 6), (2, 8, 10), (3, 4, 4)])
def test_grid_matches_brute_force(n, max_numerator, max_denominator):
    values = sorted({F(p, q) for p in range(1, max_numerator + 1)
                     for q in range(1, max_denominator + 1)})
    admissible = [vec for vec in itertools.product(values, repeat=n)
                  if decide_admissible(vec).admissible]
    admissible.sort(key=lambda vec: (max(v.denominator for v in vec), vec))
    assert grid_vectors(n, max_numerator, max_denominator) == tuple(admissible)


@st.composite
def grid_lifts(draw):
    # 2-4 rows of a degree <= 10 and one grid value per row, over 60 (the
    # default grid's denominator) or over lcm(1..12)
    degree = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=2, max_value=4))
    rows = tuple(draw(st.lists(st.sampled_from(partitions_of(degree)),
                               min_size=n, max_size=n)))
    scale = draw(st.sampled_from((60, math.lcm(*range(1, 13)))))
    values = [v for v in lift_mod._grid(12, 12)[0] if scale % v.denominator == 0]
    beta = tuple(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    return rows, beta, scale


@settings(max_examples=400, deadline=None)
@given(grid_lifts())
@example((((2,), (2,)), (F(1, 2), F(1, 2)), 60))         # every lifted entry a unit
@example((((2,), (2,)), (F(1), F(1)), 60))               # C: lift (2, 2)
@example((((1, 1), (2,)), (F(1, 2), F(1)), 60))          # D: lift (1/2, 1/2, 2)
@example((((3, 1), (2, 2), (2, 2)), (F(1, 2),) * 3, 60))  # NONE at distance 1
def test_row_screen_matches_full_decision(lift):
    rows, beta, scale = lift
    nums = scaled_numerators(beta, scale)
    tables = [lift_mod._row_table(parts, nums, scale) for parts in rows]
    idx = tuple(range(len(rows)))
    case, distance = reference_lift_decision(nums, rows, scale)
    assert lift_mod._lift_case(tables, idx, scale) == case
    # only lifts at distance exactly 1 fall through to boundary_scaled
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lift_mod, "boundary_scaled", lambda *args: (None,))
        screened = lift_mod._lift_case(tables, idx, scale)
    assert (screened is None) == (distance == scale)
    if screened is not None:
        assert screened == case


def certificates_digest(degrees, n):
    # every n-point datum of these degrees, the search's JSON hashed in order;
    # returns (data, certified, digest)
    digest = hashlib.sha256()
    count = certified = 0
    for degree in degrees:
        for datum in enumerate_data(degree, n):
            cert = search_certificate(datum)
            blob = None if cert is None else cert.to_json()
            digest.update(json.dumps(blob).encode() + b"\n")
            count += 1
            certified += cert is not None
    return count, certified, digest.hexdigest()


def test_search_certificates_are_frozen():
    count, _, digest = certificates_digest(range(3, 9), 3)
    assert count == 386
    assert digest == (
        "88132d22de087947f15ba66e0b0ca4a3efebba7385f27ef1fdac929195c5324b")


def test_four_point_certificates_are_frozen():
    count, certified, digest = certificates_digest(range(4, 7), 4)
    assert (count, certified) == (90, 2)
    assert digest == (
        "2ebb8cc31ed04c9dade4bd01932ea713d245591f95df0ec2e4620c91fec54bdd")


@functools.lru_cache(maxsize=None)
def valid_data(degree, n):
    return tuple(enumerate_data(degree, n))


@st.composite
def search_inputs(draw):
    # a valid datum of degree <= 8 with 1-4 rows in any row order (no
    # one-row datum is valid: its defect is below 2 * degree - 2), and
    # grid bounds <= 4/4
    degree = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=1, max_value=4))
    pool = valid_data(degree, n)
    assume(pool)
    rows = draw(st.permutations(draw(st.sampled_from(pool)).rows))
    bounds = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    return (BranchDatum(degree, tuple(rows)),) + bounds


@settings(max_examples=60, deadline=None)
@given(search_inputs())
@example((parse_datum("5: 5 | 5"), 6, 6))                        # 2 rows, exhausts
@example((parse_datum("4: 2,2 | 2,2 | 2,2"), 6, 6))              # 3 rows, exhausts
@example((parse_datum("8: 4,4 | 3,2,2,1 | 2,2,2,2"), 6, 6))      # 3 rows, grid certifies
def test_search_matches_reference(inputs):
    datum, max_numerator, max_denominator = inputs
    cert = search_certificate(datum, max_numerator, max_denominator)
    ref = reference_search_certificate(datum, max_numerator, max_denominator)
    assert (cert and cert.to_json()) == (ref and ref.to_json())


@pytest.mark.parametrize("bounds", [(6, 0), (6, -3), (0, 6)])
def test_search_rejects_empty_grid(bounds):
    with pytest.raises(ValueError, match="grid bounds"):
        search_certificate(KLEIN, *bounds)


def test_classify_orders_the_verdicts():
    # A witness decides first, then a certificate, even where the oracle's
    # budget runs out; a datum with neither is UNKNOWN.
    for text, budget, verdict, evidence in (
            ("4: 3,1 | 3,1 | 2,2", 1, "REALIZABLE", ["witness"]),
            ("4: 3,1 | 2,2 | 2,2", 1, "EXCEPTIONAL_CERTIFIED", ["certificate"]),
            ("4: 3,1 | 3,1 | 3,1", 1, "UNKNOWN", []),
            ("4: 3,1 | 3,1 | 3,1", None, "REALIZABLE", ["witness"])):
        row = classify(parse_datum(text), budget=budget)
        assert row.verdict == verdict
        blob = row.to_json()
        assert list(blob) == ["datum", "verdict", *evidence, "timings"]
        assert list(blob["timings"]) == ["certify_s", "oracle_s"]
