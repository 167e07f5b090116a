"""Known exceptional families and the composite-degree witness."""

from collections import Counter
from fractions import Fraction as F

import pytest

from conecover import (
    FAMILY_IDS,
    UNREALIZABLE,
    all_instances,
    family_2k,
    family_2k_twos,
    family_3k,
    family_rk,
    family_rk_split,
    find_witness,
    is_prime,
    nonprime_witness,
    validate_datum,
    verify_certificate,
)


def test_family_ids():
    assert FAMILY_IDS == ("P2K_A", "P2K_B", "P3K", "PRK_A", "PRK_B")


def test_constructors_frozen_datums():
    inst = family_2k(2, 3, 1)
    assert str(inst.datum) == "4: 3,1 | 2,2 | 2,2"
    assert inst.recommended_beta == (F(1, 2), F(1, 2), F(1, 2))
    assert inst.params == (("k", 2), ("k1", 3), ("k2", 1))

    inst = family_2k_twos(3, 1, 2)
    assert str(inst.datum) == "6: 2,2,2 | 4,2 | 2,2,2"
    assert inst.recommended_beta == (F(1, 2), F(1, 2), F(1, 2))

    inst = family_3k(3)
    assert str(inst.datum) == "9: 2,2,2,2,1 | 3,3,3 | 3,3,3"
    assert inst.recommended_beta == (F(1, 2), F(2, 3), F(2, 3))

    inst = family_rk(3, 2)
    assert str(inst.datum) == "6: 3,1,1,1 | 3,3 | 3,3"
    assert inst.recommended_beta == (1, F(1, 3), F(1, 3))

    inst = family_rk_split(2, 3, 2, 4)
    assert str(inst.datum) == "6: 4,2 | 2,2,2 | 2,2,2"
    assert inst.recommended_beta == (1, F(1, 2), F(1, 2))


def test_every_instance_validates_and_certifies():
    for inst in (family_2k(2, 3, 1), family_2k(4, 7, 1), family_2k_twos(3, 2, 1),
                 family_2k_twos(5, 1, 4), family_3k(3), family_3k(5),
                 family_rk(2, 2), family_rk(5, 3), family_rk_split(3, 2, 1, 3),
                 family_rk_split(2, 4, 3, 5)):
        assert validate_datum(inst.datum).ok
        cert = inst.certificate()
        assert cert.witness_beta == inst.recommended_beta
        assert verify_certificate(cert)


def test_constructor_parameter_guards():
    with pytest.raises(ValueError):
        family_2k(1, 1, 1)
    with pytest.raises(ValueError):
        family_2k(2, 2, 2)
    with pytest.raises(ValueError):
        family_2k(2, 4, 0)
    with pytest.raises(ValueError):
        family_2k_twos(2, 1, 1)
    with pytest.raises(ValueError):
        family_2k_twos(4, 2, 2)
    with pytest.raises(ValueError):
        family_3k(1)
    with pytest.raises(ValueError):
        family_3k(4)
    with pytest.raises(ValueError):
        family_rk(1, 2)
    with pytest.raises(ValueError):
        family_rk(2, 1)
    with pytest.raises(ValueError):
        family_rk_split(2, 3, 3, 3)
    with pytest.raises(ValueError):
        family_rk_split(2, 3, 0, 6)


def test_instance_json_shape():
    blob = family_3k(3).to_json()
    assert blob == {
        "family_id": "P3K",
        "params": {"k": 3},
        "datum": {"degree": 9, "rows": [[2, 2, 2, 2, 1], [3, 3, 3], [3, 3, 3]]},
        "recommended_beta": ["1/2", "2/3", "2/3"],
    }


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 31):
        assert is_prime(n) == (n in primes)


def test_nonprime_witness_frozen():
    assert str(nonprime_witness(4).datum) == "4: 3,1 | 2,2 | 2,2"
    assert str(nonprime_witness(6).datum) == "6: 4,2 | 2,2,2 | 2,2,2"
    assert str(nonprime_witness(9).datum) == "9: 5,1,1,1,1 | 3,3,3 | 3,3,3"
    assert str(nonprime_witness(15).datum) == (
        "15: 9,1,1,1,1,1,1 | 3,3,3,3,3 | 3,3,3,3,3")
    for d in (1, 2, 3):
        with pytest.raises(ValueError):
            nonprime_witness(d)
    for d in (5, 7, 11, 13):
        with pytest.raises(ValueError, match="is prime"):
            nonprime_witness(d)


def test_all_instances_of_degree_six():
    instances = all_instances(6)
    assert Counter(i.family_id for i in instances) == Counter(
        {"P2K_A": 2, "PRK_B": 3, "PRK_A": 2, "P2K_B": 1})
    seen = set()
    for inst in instances:
        assert inst.datum.degree == 6
        assert validate_datum(inst.datum).ok
        assert verify_certificate(inst.certificate())
        key = (inst.family_id, inst.params)
        assert key not in seen
        seen.add(key)


def test_all_instances_certify_through_degree_twelve():
    for degree in range(2, 13):
        for inst in all_instances(degree):
            assert inst.datum.degree == degree
            assert validate_datum(inst.datum).ok
            assert verify_certificate(inst.certificate())


def test_family_datums_are_unrealizable_at_small_degree():
    for degree in (4, 6):
        for inst in all_instances(degree):
            res = find_witness(inst.datum, budget=None)
            assert res.status == UNREALIZABLE, str(inst.datum)
