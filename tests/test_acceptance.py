"""Acceptance criteria for the whole package, one test per criterion.

The conftest hook prints a single `[acceptance] criterion N: PASS` or
`... FAIL` line per test here, keyed off the test names.  All numeric
checks are exact; the only tolerances are the stated wall-clock bounds
on the cheap criteria.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

from conecover import (
    VERDICT_CERTIFIED,
    VERDICT_ORACLE,
    VERDICT_REALIZABLE,
    VERDICT_UNKNOWN,
    BranchDatum,
    MonodromyWitness,
    Permutation,
    all_instances,
    certify_exceptional,
    class_size,
    classify,
    decide_admissible,
    enumerate_data,
    family_2k,
    family_2k_twos,
    family_3k,
    family_rk,
    family_rk_split,
    find_witness,
    format_datum,
    is_prime,
    l1_distance_to_odd_lattice,
    nonprime_witness,
    parse_datum,
    partitions_of,
    search_certificate,
    troyanov_admissible,
    validate_datum,
    verify_certificate,
    verify_witness,
)
from conecover import monodromy
from conftest import record_observation
from oracles import all_partitions, compose, inverse, odd_box_distance, strip_units


def _ordered_splits(total):
    return [(a, total - a) for a in range(1, total) if a != total - a]


def test_criterion_1_families_certify_instantly():
    instances = []
    for k in range(2, 6):
        for k1, k2 in _ordered_splits(2 * k):
            instances.append(family_2k(k, k1, k2))
        if k >= 3:
            for j1, j2 in _ordered_splits(k):
                instances.append(family_2k_twos(k, j1, j2))
    for k in (3, 5):
        instances.append(family_3k(k))
    for r in (2, 3):
        for k in (2, 3):
            instances.append(family_rk(r, k))
            for j1, j2 in _ordered_splits(2 * k):
                instances.append(family_rk_split(r, k, j1, j2))
    assert len(instances) > 40

    start = time.perf_counter()
    for inst in instances:
        assert validate_datum(inst.datum).ok, str(inst.datum)
        cert = inst.certificate()
        assert cert.witness_beta == inst.recommended_beta
        assert verify_certificate(cert), str(inst.datum)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"certification took {elapsed:.3f}s"


def test_criterion_2_degree_nine_lift_values():
    inst = family_3k(3)
    assert str(inst.datum) == "9: 2,2,2,2,1 | 3,3,3 | 3,3,3"
    cert = inst.certificate()
    assert cert.lifted == (1, 1, 1, 1, F(1, 2), 2, 2, 2, 2, 2, 2)
    assert strip_units(cert.lifted) == (F(1, 2), 2, 2, 2, 2, 2, 2)
    lattice = cert.lifted_verdict.lattice
    assert lattice is not None
    assert lattice.distance == F(1, 2)
    assert not cert.lifted_verdict.admissible
    assert verify_certificate(cert)


def test_criterion_3_search_and_oracle_never_disagree():
    # classify raises if a certificate ever meets a witness
    counts = {}
    for degree in range(2, 8):
        counts[degree] = Counter()
        for datum in enumerate_data(degree, 3):
            row = classify(datum, budget=None)
            assert row.verdict != VERDICT_UNKNOWN, format_datum(datum)
            counts[degree][row.verdict] += 1
            if row.certificate is not None:
                assert verify_certificate(row.certificate)
            if row.oracle.witness is not None:
                assert verify_witness(datum, row.oracle.witness.perms)
    certified = {d: c[VERDICT_CERTIFIED] for d, c in counts.items()}
    realizable = {d: c[VERDICT_REALIZABLE] for d, c in counts.items()}
    undecided = {d: c[VERDICT_ORACLE] for d, c in counts.items()}
    for degree in sorted(counts):
        tag = "prime" if is_prime(degree) else "composite"
        record_observation(
            f"[acceptance] degree {degree} ({tag}): "
            f"{certified[degree]} certified, {realizable[degree]} realizable, "
            f"{undecided[degree]} unrealizable without a certificate")
    # observed, not asserted: no certificate ever appears at prime degree
    assert certified == {2: 0, 3: 0, 4: 1, 5: 0, 6: 5, 7: 0}
    assert realizable == {2: 0, 3: 1, 4: 5, 5: 11, 6: 34, 7: 85}
    assert undecided == {2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0}


def test_criterion_4_realizable_controls():
    start = time.perf_counter()
    cases = [parse_datum(f"{d}: {d} | {d}") for d in range(2, 9)]
    cases.append(parse_datum("4: 2,2 | 2,2 | 2,2"))
    for datum in cases:
        result = find_witness(datum)
        assert result.status == "realizable", format_datum(datum)
        assert verify_witness(datum, result.witness.perms)
        assert search_certificate(datum) is None, format_datum(datum)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"controls took {elapsed:.3f}s"


def test_criterion_5_composite_degrees_have_witness_data():
    start = time.perf_counter()
    for degree in range(4, 31):
        if is_prime(degree):
            try:
                nonprime_witness(degree)
            except ValueError:
                continue
            raise AssertionError(f"prime degree {degree} was accepted")
        inst = nonprime_witness(degree)
        assert inst.datum.degree == degree
        assert validate_datum(inst.datum).ok
        assert verify_certificate(inst.certificate()), str(inst.datum)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"witness construction took {elapsed:.3f}s"


def test_criterion_6_lattice_distance_matches_exhaustive_box():
    rng = random.Random(60309)
    checked = 0
    for _ in range(1000):
        size = rng.randint(1, 6)
        vec = []
        for _ in range(size):
            den = rng.randint(1, 12)
            num = rng.randint(-4 * den, 4 * den)
            vec.append(F(num, den))
        got = l1_distance_to_odd_lattice(vec)
        assert got.distance == odd_box_distance(vec)
        assert sum(got.nearest) % 2 == 1
        assert sum(abs(x - a) for x, a in zip(vec, got.nearest)) == got.distance
        checked += 1
    assert checked == 1000


def test_criterion_7_decision_agrees_with_interval_criterion():
    values = sorted({F(p, q) for q in range(2, 9) for p in range(1, q)})
    assert len(values) == 21
    for beta in itertools.product(values, repeat=3):
        assert decide_admissible(beta).admissible == troyanov_admissible(beta), beta


def test_criterion_8_class_sizes_match_the_formula():
    for degree in range(1, 9):
        total = 0
        for t in all_partitions(degree):
            members = sum(1 for _ in monodromy._class_images(t, degree))
            assert members == class_size(t, degree), (degree, t)
            total += members
        assert total == math.factorial(degree)


def _random_angles(rng, min_size=1, max_size=6):
    size = rng.randint(min_size, max_size)
    out = []
    for _ in range(size):
        den = rng.randint(1, 6)
        num = rng.randint(1, 4 * den)
        out.append(F(num, den))
    return tuple(out)


def _witness_pool():
    pool = []
    for d in range(2, 9):
        datum = parse_datum(f"{d}: {d} | {d}")
        pool.append((datum, find_witness(datum).witness))
    for degree in range(2, 6):
        for datum in enumerate_data(degree, 3):
            result = find_witness(datum, budget=None)
            if result.status == "realizable":
                pool.append((datum, result.witness))
    return pool


def test_criterion_9_robustness_properties():
    rng = random.Random(193939)
    rounds = 10**4

    # decisions ignore the order of the angles
    for _ in range(rounds):
        beta = _random_angles(rng)
        shuffled = list(beta)
        rng.shuffle(shuffled)
        a = decide_admissible(beta)
        b = decide_admissible(shuffled)
        assert (a.admissible, a.case) == (b.admissible, b.case)
        if a.lattice is not None:
            assert a.lattice.distance == b.lattice.distance

    # stripping unit angles is idempotent and surgical
    for _ in range(rounds):
        beta = _random_angles(rng)
        if rng.random() < 0.5:
            beta = beta + (1,) * rng.randint(1, 3)
        stripped = strip_units(beta)
        assert stripped == tuple(x for x in beta if x != 1)
        assert strip_units(stripped) == stripped

    # the text format round-trips every canonical datum
    for _ in range(rounds):
        degree = rng.randint(1, 10)
        pool = partitions_of(degree)
        rows = tuple(pool[rng.randrange(len(pool))]
                     for _ in range(rng.randint(1, 4)))
        datum = BranchDatum(degree, rows).canonical()
        assert parse_datum(format_datum(datum)) == datum

    # witnesses survive simultaneous conjugation
    witnesses = _witness_pool()
    assert witnesses
    for _ in range(rounds):
        datum, witness = witnesses[rng.randrange(len(witnesses))]
        images = list(range(1, datum.degree + 1))
        rng.shuffle(images)
        g = tuple(images)
        g_inv = inverse(g)
        conjugated = tuple(Permutation(compose(compose(g_inv, p.images), g))
                           for p in witness.perms)
        assert verify_witness(datum, conjugated)

    # certificates survive any joint reordering of rows and angles
    certificates = [inst.certificate()
                    for d in range(4, 13) for inst in all_instances(d)]
    assert certificates
    for _ in range(rounds):
        cert = certificates[rng.randrange(len(certificates))]
        order = list(range(len(cert.datum.rows)))
        rng.shuffle(order)
        datum = BranchDatum(cert.datum.degree,
                            tuple(cert.datum.rows[i] for i in order))
        beta = tuple(cert.witness_beta[i] for i in order)
        assert verify_certificate(certify_exceptional(datum, beta))
