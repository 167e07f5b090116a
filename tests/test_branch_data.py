"""Partitions, branch data, validation, enumeration, and the text format."""

import hashlib
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conecover import (
    BranchDatum,
    DatumParseError,
    Partition,
    enumerate_data,
    format_datum,
    parse_datum,
    partitions_of,
    total_defect,
    validate_datum,
)

from oracles import all_partitions, all_valid_data, reference_parse_text


def test_partition_sorts_and_measures():
    p = Partition((1, 3, 2))
    assert p.parts == (3, 2, 1)
    assert p.size == 6
    assert p.defect == 3
    assert len(p) == 3
    assert list(p) == [3, 2, 1]
    assert str(p) == "3,2,1"


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(TypeError):
        Partition((1.5,))
    with pytest.raises(TypeError):
        Partition(("2",))
    with pytest.raises(TypeError):
        Partition((True, 1))


def test_total_defect():
    assert total_defect([Partition((3, 1)), Partition((2, 2))]) == 4
    assert total_defect([]) == 0


def test_datum_construction_and_accessors():
    d = BranchDatum(4, ((3, 1), (2, 2), (2, 2)))
    assert d.degree == 4
    assert len(d.rows) == 3
    assert d.rows[0] == Partition((3, 1))
    with pytest.raises(ValueError):
        BranchDatum(0, ((1,),))
    with pytest.raises(ValueError):
        BranchDatum(3, ())
    for degree in (True, 4.0):
        with pytest.raises(TypeError):
            BranchDatum(degree, ((1,),))


def test_canonical_sorts_rows():
    d = BranchDatum(4, ((2, 2), (3, 1), (2, 2)))
    c = d.canonical()
    assert [r.parts for r in c.rows] == [(3, 1), (2, 2), (2, 2)]
    # idempotent and row-preserving on the original
    assert c.canonical() == c
    assert d.rows[0].parts == (2, 2)


def test_json_round_trip_preserves_row_order():
    d = BranchDatum(4, ((2, 2), (3, 1), (2, 2)))
    blob = d.to_json()
    assert blob == {"degree": 4, "rows": [[2, 2], [3, 1], [2, 2]]}
    back = BranchDatum.from_json(json.loads(json.dumps(blob)))
    assert back == d
    assert [r.parts for r in back.rows] == [(2, 2), (3, 1), (2, 2)]


def test_from_json_rejects_malformed():
    for blob in (
        [],
        {"rows": [[2]]},
        {"degree": 2},
        {"degree": 2, "rows": []},
        {"degree": 2, "rows": [[]]},
        {"degree": 2, "rows": [[2.0]]},
        {"degree": 2, "rows": [[0]]},
        {"degree": 2, "rows": [2]},
        {"degree": True, "rows": [[1]]},
        {"degree": 2.0, "rows": [[2]]},
        {"degree": "2", "rows": [[2]]},
        {"degree": 2, "rows": [[True, True]]},
    ):
        with pytest.raises(DatumParseError):
            BranchDatum.from_json(blob)


def test_validate_flags_each_constraint():
    ok = validate_datum(BranchDatum(4, ((3, 1), (2, 2), (2, 2))))
    assert ok.ok and not ok.violations

    bad_sum = validate_datum(BranchDatum(4, ((3,), (2, 2), (2, 2))))
    assert not bad_sum.ok
    assert any(v.constraint == "row-sum" and v.row == 0 for v in bad_sum.violations)

    all_units = validate_datum(BranchDatum(3, ((1, 1, 1), (3,), (3,))))
    assert any(v.constraint == "has-branching-part" for v in all_units.violations)

    bad_defect = validate_datum(BranchDatum(4, ((2, 2), (2, 2))))
    assert not bad_defect.ok
    assert [v.constraint for v in bad_defect.violations] == ["defect"]


def test_validation_report_json():
    rep = validate_datum(BranchDatum(4, ((3,), (2, 2), (2, 2))))
    blob = rep.to_json()
    assert blob["ok"] is False
    assert blob["violations"][0]["constraint"] == "row-sum"


def test_partitions_of_matches_reference():
    for n in range(1, 11):
        assert partitions_of(n) == all_partitions(n)
    assert partitions_of(6)[0] == (6,)
    assert partitions_of(6)[-1] == (1,) * 6
    assert len(partitions_of(10)) == 42
    with pytest.raises(ValueError):
        partitions_of(0)


@pytest.mark.parametrize(
    "degree,branch_points",
    [(2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (4, 4), (5, 4), (3, 5), (6, 1)],
)
def test_enumerate_matches_brute_force(degree, branch_points):
    got = list(enumerate_data(degree, branch_points))
    assert len(got) == len(set(got)), "stream repeated a datum"
    for d in got:
        assert d.canonical() == d
        assert validate_datum(d).ok
    assert set(got) == all_valid_data(degree, branch_points)


def test_enumerate_two_rows_is_pair_of_full_cycles():
    # one branch point can never balance the defect count
    assert list(enumerate_data(5, 1)) == []
    for d in range(2, 9):
        assert list(enumerate_data(d, 2)) == [BranchDatum(d, ((d,), (d,)))]
    # only rows that can occur are built: degree 100 has 190,569,292 partitions
    start = time.perf_counter()
    assert list(enumerate_data(100, 2)) == [BranchDatum(100, ((100,), (100,)))]
    # at 2d - 2 points every row is a transposition
    assert list(enumerate_data(100, 198)) == [BranchDatum(100, ((2,) + (1,) * 98,) * 198)]
    assert list(enumerate_data(100, 199)) == []
    # the combinations add each row with all its copies, so 998 equal rows
    # cost one level of recursion, not 998
    assert list(enumerate_data(500, 998)) == [BranchDatum(500, ((2,) + (1,) * 498,) * 998)]
    assert time.perf_counter() - start < 1


def test_enumerate_stream_is_frozen():
    # `catalog` prints data in this order, and the realize inputs follow it
    digest = hashlib.sha256()
    count = 0
    for d in range(2, 11):
        for k in range(1, 2 * d - 1):
            for datum in enumerate_data(d, k):
                digest.update(json.dumps(datum.to_json()).encode() + b"\n")
                count += 1
    assert count == 52599
    assert digest.hexdigest() == (
        "3e84bf50f730c8b239054c08331aa2cdbd61d21c8643f72cd50aa73a5696c289")


def test_enumerated_data_share_partitions():
    # Partitions are frozen, so one stream builds each distinct row once.
    rows = [row for datum in enumerate_data(8, 3) for row in datum.rows]
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_data(1, 3))
    with pytest.raises(ValueError):
        list(enumerate_data(4, 0))


def test_parse_plain_text():
    d = parse_datum("4: 3,1 | 2,2 | 2,2")
    assert d == BranchDatum(4, ((3, 1), (2, 2), (2, 2)))
    assert parse_datum("  4 :3 , 1|2,2 | 2,2  ") == d
    # rows come back canonical no matter the input order
    assert parse_datum("4: 2,2 | 3,1 | 2,2") == d
    assert parse_datum("4: 1,3 | 2,2 | 2,2") == d


def test_parse_json_text():
    d = parse_datum('{"degree": 4, "rows": [[2, 2], [1, 3], [2, 2]]}')
    assert d == BranchDatum(4, ((3, 1), (2, 2), (2, 2)))


def test_parse_errors_carry_offsets():
    text = "4: 3,1 | 2,x"
    with pytest.raises(DatumParseError) as err:
        parse_datum(text)
    assert err.value.position == text.index("x")
    assert "offset" in str(err.value)

    with pytest.raises(DatumParseError) as err:
        parse_datum("")
    assert err.value.position == 0

    for bad in ("4", "4:", "4: 2,", "4 2,2", "0: 2", "4: 2,0,2", "-4: 2,2"):
        with pytest.raises(DatumParseError):
            parse_datum(bad)

    # A digit that is not decimal, which int() would refuse.
    with pytest.raises(DatumParseError, match="unexpected character '²'") as err:
        parse_datum("4: 2²,2 | 2,2 | 3,1")
    assert err.value.position == 4


def test_parse_refuses_overlong_numbers():
    # int() refuses more than 4,300 digits; the parser says where.
    digits = "2" * 5000
    for text, at in ((f"{digits}: 2,2 | 2,2", 0), (f"4: 2,{digits} | 2,2", 5),
                     ('{"degree": %s, "rows": [[2]]}' % digits, None)):
        with pytest.raises(DatumParseError, match="5000 digits is too long") as err:
            parse_datum(text)
        assert err.value.position == at


_NUMBERS = st.sampled_from(["0", "1", "2", "3", "4", "10", "007", "٣", "2²"])


@st.composite
def datum_texts(draw):
    # Either any text over these characters, or the grammar's tokens, spaced
    # at random, with now and then one more character spliced in.
    alphabet = "0123456789:,| x-{٣²"
    if draw(st.booleans()):
        return draw(st.text(alphabet=alphabet, max_size=20))
    tokens = [draw(_NUMBERS), ":", draw(_NUMBERS)]
    for _ in range(draw(st.integers(0, 6))):
        tokens += [draw(st.sampled_from(",|")), draw(_NUMBERS)]
    text = "".join(token + draw(st.sampled_from(["", " ", "  "])) for token in tokens)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(["", "", ""] + list(alphabet))) + text[at:]


@settings(max_examples=400, deadline=None)
@given(datum_texts())
@example("4: 2²,2 | 2,2 | 3,1")
@example("٣ : ٣|٣")
def test_parse_matches_reference_grammar(text):
    reference = reference_parse_text(text)
    if reference is not None and min(reference[0], *map(min, reference[1])) >= 1:
        assert parse_datum(text) == BranchDatum(*reference).canonical()
        return
    with pytest.raises(DatumParseError) as err:
        parse_datum(text)
    assert 0 <= err.value.position <= len(text)


def test_format_parse_round_trip():
    d = BranchDatum(4, ((3, 1), (2, 2), (2, 2)))
    assert format_datum(d) == "4: 3,1 | 2,2 | 2,2"
    assert parse_datum(format_datum(d)) == d
    assert str(d) == format_datum(d)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_round_trip_random_canonical_data(data):
    degree = data.draw(st.integers(min_value=1, max_value=9))
    pool = partitions_of(degree)
    rows = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    )
    d = BranchDatum(degree, tuple(rows)).canonical()
    assert parse_datum(format_datum(d)) == d
    assert BranchDatum.from_json(d.to_json()) == d
