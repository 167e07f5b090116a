"""End-to-end command line coverage, run in process."""

import io
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from conecover import all_instances, enumerate_data, format_datum, parse_datum
from conecover import cli, lift, monodromy
from conecover.cli import main

D4 = "4: 3,1 | 2,2 | 2,2"
D9 = "9: 2,2,2,2,1 | 3,3,3 | 3,3,3"
KLEIN = "4: 2,2 | 2,2 | 2,2"
README = Path(__file__).resolve().parents[1] / "README.md"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# ---------------------------------------------------------------- validate


def test_validate_ok(capsys):
    code, out, _ = invoke(capsys, "validate", D4)
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["datum"] == {"degree": 4, "rows": [[3, 1], [2, 2], [2, 2]]}


def test_validate_failure_lists_violations(capsys):
    code, out, _ = invoke(capsys, "validate", "4: 3,1 | 2,2")
    assert code == 1
    blob = json.loads(out)
    assert blob["ok"] is False
    assert blob["violations"]


def test_validate_parse_error(capsys):
    code, out, err = invoke(capsys, "validate", "4: 3,x")
    assert code == 2
    assert not out
    assert err.startswith("error:")


# -------------------------------------------------------------- admissible


def test_admissible_yes(capsys):
    code, out, _ = invoke(capsys, "admissible", "1/2,2/3,2/3")
    assert code == 0
    blob = json.loads(out)
    assert blob["admissible"] is True and blob["case"] == "A"


def test_admissible_no(capsys):
    code, out, _ = invoke(capsys, "admissible", "1/2,3/2")
    assert code == 1
    blob = json.loads(out)
    assert blob["admissible"] is False
    assert "reason" in blob


def test_admissible_rejects_decimals(capsys):
    code, _, err = invoke(capsys, "admissible", "0.5,0.5")
    assert code == 2 and "error:" in err


# ----------------------------------------------------------------- certify


def test_certify_with_explicit_beta(capsys):
    code, out, _ = invoke(capsys, "certify", D4, "--beta", "1,1/2,1/2")
    assert code == 0
    blob = json.loads(out)
    assert blob["beta"] == ["1", "1/2", "1/2"]
    assert blob["lifted"] == ["3", "1", "1", "1", "1", "1"]
    assert blob["base_verdict"]["admissible"] is True
    assert blob["lifted_verdict"]["admissible"] is False


def test_certify_refusals(capsys):
    code, out, _ = invoke(capsys, "certify", D4, "--beta", "1,1,1")
    assert code == 1
    blob = json.loads(out)
    assert blob == {"certified": False, "reason": "lift-admissible",
                    "base_verdict": blob["base_verdict"],
                    "lifted_verdict": blob["lifted_verdict"]}

    code, out, _ = invoke(capsys, "certify", D4, "--beta", "1/2,3/2,1")
    assert code == 1
    blob = json.loads(out)
    assert blob["reason"] == "base-not-admissible"
    assert "lifted_verdict" not in blob


def test_certify_search_modes(capsys):
    code, out, _ = invoke(capsys, "certify", D4)
    assert code == 0
    assert json.loads(out)["beta"] == ["1/2", "1/2", "1/2"]

    code, out, _ = invoke(capsys, "certify", KLEIN)
    assert code == 1
    assert json.loads(out) == {"certified": False, "reason": "no witness found"}

    code, _, err = invoke(capsys, "certify", KLEIN, "--extra", "1/2,1/2")
    assert code == 2 and "error:" in err


def test_certify_refuses_extra_with_beta(capsys):
    # --extra feeds the search, which --beta replaces; it used to be ignored
    code, out, err = invoke(capsys, "certify", D4, "--beta", "1/2,1/2,1/2",
                            "--extra", "1,1,1")
    assert (code, out) == (2, "")
    assert "error: --extra goes only with a search, not with --beta" in err


@pytest.mark.parametrize("flag, value", [("--max-denominator", "0"), ("--max-numerator", "6")])
def test_certify_refuses_grid_bounds_with_beta(capsys, flag, value):
    # the grid bounds feed the search too; with --beta they used to be ignored
    code, out, err = invoke(capsys, "certify", D4, "--beta", "1,1/2,1/2", flag, value)
    assert (code, out) == (2, "")
    assert f"error: {flag} goes only with a search, not with --beta" in err


@pytest.mark.parametrize("bounds", [
    ("--max-denominator", "0"),
    ("--max-denominator", "-3"),
    ("--max-numerator", "0"),
])
def test_certify_and_catalog_reject_empty_grids(capsys, bounds):
    for argv in (("certify", KLEIN), ("certify", D4), ("catalog", "--max-degree", "4")):
        code, out, err = invoke(capsys, *argv, *bounds)
        assert code == 2
        assert out == ""
        assert "grid bounds must be at least 1" in err


# ----------------------------------------------------------------- realize


def test_realize_found(capsys):
    code, out, _ = invoke(capsys, "realize", KLEIN)
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "realizable"
    assert blob["witness"]["perms"] == ["(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)"]
    assert blob["datum"]["degree"] == 4


def test_realize_exhausted(capsys):
    code, out, _ = invoke(capsys, "realize", D4)
    assert code == 1
    blob = json.loads(out)
    assert blob["status"] == "unrealizable" and "witness" not in blob


def test_realize_budget(capsys):
    code, out, _ = invoke(capsys, "realize", D9, "--budget", "1")
    assert code == 2
    assert json.loads(out)["status"] == "unknown"

    # budget 0 means unlimited
    code, out, _ = invoke(capsys, "realize", D9, "--budget", "0")
    assert code == 1
    assert json.loads(out)["status"] == "unrealizable"


def test_realize_and_catalog_reject_negative_budget(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "find_witness", no_work)
    monkeypatch.setattr(cli, "classify", no_work)
    for argv in (("realize", D9), ("catalog", "--max-degree", "4")):
        code, out, err = invoke(capsys, *argv, "--budget", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--budget" in err


def test_realize_counts_past_the_budget(capsys):
    # The space is 654,729,075 nodes, beyond the default budget; a count of
    # zero settles it.
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "realize",
                          "20: 11,9 | 2,2,2,2,2,2,2,2,2,2 | 2,2,2,2,2,2,2,2,2,2")
    assert time.perf_counter() - start < 1.0
    blob = json.loads(out)
    assert code == 1
    assert (blob["status"], blob["nodes"]) == ("unrealizable", 654729075)


def test_integer_options_take_ascii_digits_only(capsys):
    # every integer option reads ASCII digits after an optional '-', and
    # names no refused value whole
    options = [("realize", D4, "--budget"), ("catalog", "--max-degree"),
               ("catalog", "--max-degree", "4", "--branch-points"),
               ("catalog", "--max-degree", "4", "--budget"),
               ("certify", D4, "--max-numerator"), ("certify", D4, "--max-denominator"),
               ("enumerate", "--branch-points", "3", "--degree"),
               ("enumerate", "--degree", "4", "--branch-points"), ("families", "--degree")]
    for argv in options:
        for value in ("1_000", "+5", " 5", "5 ", "١٠", "٣", "0x10", "", "9" * 5000):
            with pytest.raises(SystemExit) as exc:
                main([*argv, value])
            assert exc.value.code == 2
            # argparse prints its usage, then one error line
            error = capsys.readouterr().err.splitlines()[-1]
            assert error.startswith(f"conecover {argv[0]}: error: argument --")
            assert len(error.encode()) < 300, (argv, value)
    assert error.endswith("an integer of 5000 digits is too long")


# --------------------------------------------------------------- enumerate


def test_enumerate_stream(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--degree", "4",
                          "--branch-points", "3")
    assert code == 0
    got = json_lines(out)
    want = [d.to_json() for d in enumerate_data(4, 3)]
    assert got == want


def test_enumerate_bad_arguments(capsys):
    code, _, err = invoke(capsys, "enumerate", "--degree", "1",
                          "--branch-points", "3")
    assert code == 2 and "error:" in err


# ----------------------------------------------------------------- catalog


def test_catalog_json_summary(capsys):
    code, out, _ = invoke(capsys, "catalog", "--max-degree", "4")
    assert code == 0
    lines = json_lines(out)
    rows = [b for b in lines if "datum" in b]
    assert len(rows) == 7  # one at degree 3, six at degree 4
    for blob in rows:
        assert blob["verdict"] in ("REALIZABLE", "EXCEPTIONAL_CERTIFIED",
                                   "EXCEPTIONAL_ORACLE", "UNKNOWN")
        assert "timings" in blob
    summary = lines[-1]["summary"]
    assert summary["3"] == {"REALIZABLE": 1}
    assert summary["4"] == {"REALIZABLE": 5, "EXCEPTIONAL_CERTIFIED": 1}


def test_catalog_budget_runs_out(capsys):
    code, out, _ = invoke(capsys, "catalog", "--max-degree", "5", "--budget", "1")
    assert code == 0
    lines = json_lines(out)
    assert sum(b.get("verdict") == "UNKNOWN" for b in lines) == 7
    assert lines[-1]["summary"] == {
        "2": {},
        "3": {"REALIZABLE": 1},
        "4": {"REALIZABLE": 3, "UNKNOWN": 2, "EXCEPTIONAL_CERTIFIED": 1},
        "5": {"REALIZABLE": 6, "UNKNOWN": 5},
    }


def test_catalog_refuses_a_certified_realizable_datum(capsys, monkeypatch):
    monkeypatch.setattr(lift, "search_certificate", lambda datum, **_: object())
    datum = format_datum(next(enumerate_data(3, 3)))
    with pytest.raises(RuntimeError, match="soundness violation") as info:
        main(["catalog", "--max-degree", "3"])
    assert datum in str(info.value)


def test_catalog_oracle_verdict(capsys, monkeypatch):
    # no grid certificate exists for this datum, but the oracle exhausts it
    datum = parse_datum("10: 3,3,3,1 | 3,3,3,1 | 3,3,3,1")
    monkeypatch.setattr(cli, "enumerate_data",
                        lambda degree, n: iter([datum] if degree == 10 else []))
    code, out, _ = invoke(capsys, "catalog", "--max-degree", "10")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 2
    row, last = lines
    assert row["datum"] == datum.to_json()
    assert row["verdict"] == "EXCEPTIONAL_ORACLE"
    assert "certificate" not in row and "witness" not in row
    summary = {str(d): {} for d in range(2, 10)}
    summary["10"] = {"EXCEPTIONAL_ORACLE": 1}
    assert last == {"summary": summary}


def test_catalog_refuses_a_degree_below_two(capsys):
    # it used to print an empty summary, or a bare table header, and exit 0
    for degree in ("1", "0", "-3"):
        for mode in ((), ("--table",)):
            code, out, err = invoke(capsys, "catalog", "--max-degree", degree, *mode)
            assert (code, out) == (2, "")
            assert f"error: degree must be at least 2, got {degree}" in err


def test_catalog_table(capsys):
    code, out, _ = invoke(capsys, "catalog", "--max-degree", "3", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[-3].split()[0] == "degree"
    assert lines[-1].split()[:2] == ["3", "1"]


# ---------------------------------------------------------------- families


def test_families_by_degree(capsys):
    code, out, _ = invoke(capsys, "families", "--degree", "6")
    assert code == 0
    blobs = json_lines(out)
    assert len(blobs) == 8
    assert all(b["datum"]["degree"] == 6 for b in blobs)


def test_families_single_instance(capsys):
    code, out, _ = invoke(capsys, "families", "--family", "P3K",
                          "--params", "k=3")
    assert code == 0
    blob = json.loads(out)
    assert blob["datum"] == {"degree": 9,
                             "rows": [[2, 2, 2, 2, 1], [3, 3, 3], [3, 3, 3]]}
    assert blob["recommended_beta"] == ["1/2", "2/3", "2/3"]


def test_families_rebuilds_every_instance(capsys):
    for degree in range(4, 13):
        for instance in all_instances(degree):
            params = ",".join(f"{name}={value}" for name, value in instance.params)
            code, out, _ = invoke(capsys, "families", "--family", instance.family_id,
                                  "--params", params)
            assert code == 0
            assert json.loads(out) == instance.to_json()


def test_families_bad_parameters(capsys):
    code, _, err = invoke(capsys, "families", "--family", "P3K",
                          "--params", "k=4")
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "families", "--family", "P3K")
    assert code == 2 and "error: family P3K takes parameters k" in err

    with pytest.raises(SystemExit) as exc:
        invoke(capsys, "families", "--family", "NOPE", "--params", "k=3")
    assert exc.value.code == 2

    code, out, err = invoke(capsys, "families", "--family", "P3K", "--params", "k=3,k=5")
    assert (code, out) == (2, "") and "error: parameter k is given twice" in err

    code, out, err = invoke(capsys, "families", "--degree", "6", "--params", "k=3")
    assert (code, out) == (2, "") and "error: --params goes only with --family" in err


def test_families_refuses_a_degree_below_two(capsys):
    for degree in ("1", "0", "-3"):
        code, out, err = invoke(capsys, "families", "--degree", degree)
        assert (code, out) == (2, "")
        assert f"error: degree must be at least 2, got {degree}" in err


def test_families_out_of_memory(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setitem(cli.FAMILIES, "P3K", (exhausted, cli.FAMILIES["P3K"][1]))
    assert invoke(capsys, "families", "--family", "P3K", "--params", "k=3") == (
        2, "", "error: out of memory\n")


def test_families_refuses_a_non_decimal_parameter(capsys):
    # `²` is a digit to str.isdigit, but not a decimal
    assert invoke(capsys, "families", "--family", "P3K", "--params", "k=²") == (
        2, "", "error: bad parameter 'k=²': expected name=integer\n")


# ------------------------------------------------------------ verification


def test_verify_certificate_round_trip(capsys, tmp_path):
    _, out, _ = invoke(capsys, "certify", D4)
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "verify-certificate", str(path))
    assert code == 0 and json.loads(out) == {"valid": True}

    blob = json.loads(path.read_text())
    blob["beta"] = ["1", "1", "1"]
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "verify-certificate", str(path))
    assert code == 1 and json.loads(out) == {"valid": False}


def test_verify_certificate_from_stdin(capsys, monkeypatch):
    _, out, _ = invoke(capsys, "certify", D4)
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = invoke(capsys, "verify-certificate", "-")
    assert code == 0 and json.loads(out) == {"valid": True}


def test_verify_certificate_rejects_a_false_distance(capsys, monkeypatch):
    # the base vector (1/2, 1/2, 1/2) is at distance 3/2: a certificate that
    # claims 5/2 is false, though its lift and admissible flags are right
    _, out, _ = invoke(capsys, "certify", D4)
    assert out.count('"distance": "3/2"') == 1
    forged = out.replace('"distance": "3/2"', '"distance": "5/2"')
    monkeypatch.setattr("sys.stdin", io.StringIO(forged))
    code, out, _ = invoke(capsys, "verify-certificate", "-")
    assert (code, out) == (1, '{"valid": false}\n')


def test_verify_witness_round_trip(capsys, tmp_path):
    _, out, _ = invoke(capsys, "realize", KLEIN)
    path = tmp_path / "witness.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "verify-witness", str(path))
    assert code == 0 and json.loads(out) == {"valid": True}

    blob = json.loads(path.read_text())
    blob["witness"]["perms"][0] = "(1 2)"
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "verify-witness", str(path))
    assert code == 1 and json.loads(out) == {"valid": False}


def test_verify_witness_rejects_a_row_larger_than_the_degree(capsys, monkeypatch):
    claim = {"datum": {"degree": 4, "rows": [[5], [2, 2], [2, 2]]},
             "witness": {"degree": 4,
                         "perms": ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(claim)))
    assert invoke(capsys, "verify-witness", "-") == (1, '{"valid": false}\n', "")


def test_verify_witness_accepts_datum_text(capsys, tmp_path):
    _, out, _ = invoke(capsys, "realize", KLEIN)
    blob = json.loads(out)
    blob["datum"] = KLEIN
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "verify-witness", str(path))
    assert code == 0 and json.loads(out) == {"valid": True}


def test_verify_witness_rejects_another_degree_unparsed(capsys, tmp_path, monkeypatch):
    _, out, _ = invoke(capsys, "realize", KLEIN)
    blob = json.loads(out)
    blob["witness"]["degree"] = 4_000_000
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(blob))
    parsed = []
    monkeypatch.setattr(monodromy, "parse_cycles",
                        lambda *args: parsed.append(args))
    code, out, _ = invoke(capsys, "verify-witness", str(path))
    assert code == 1 and json.loads(out) == {"valid": False}
    assert parsed == []


def test_verify_certificate_rejects_a_non_boolean_verdict(capsys, tmp_path):
    # "false" is a string, which bool() would read as true.
    _, out, _ = invoke(capsys, "certify", D4)
    blob = json.loads(out)
    blob["base_verdict"]["admissible"] = "false"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify-certificate", str(path))
    assert code == 2 and out == "" and "admissible" in err


def test_verify_certificate_rejects_a_non_integer_witness_entry(capsys, tmp_path):
    # The base verdict is case D; int() would read "3" as 3.
    _, out, _ = invoke(capsys, "certify", D4, "--beta", "2,1/2,1/2")
    blob = json.loads(out)
    blob["base_verdict"]["coaxial_witness"]["k_prime"] = "3"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify-certificate", str(path))
    assert code == 2 and out == "" and "k_prime" in err


def test_verify_witness_rejects_a_non_integer_degree(capsys, tmp_path):
    # int() would turn either claim into the datum's degree 4.
    _, out, _ = invoke(capsys, "realize", KLEIN)
    path = tmp_path / "witness.json"
    for degree in (4.7, "4"):
        blob = json.loads(out)
        blob["witness"]["degree"] = degree
        path.write_text(json.dumps(blob))
        code, printed, err = invoke(capsys, "verify-witness", str(path))
        assert code == 2 and printed == "" and "degree" in err


def test_verify_handles_bad_files(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = invoke(capsys, "verify-certificate", str(path))
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "verify-witness", str(tmp_path / "missing"))
    assert code == 2 and "error:" in err

    path.write_text("{}")
    code, _, err = invoke(capsys, "verify-witness", str(path))
    assert code == 2 and "error:" in err


def test_every_reader_names_an_overlong_number(capsys, tmp_path):
    # int() refuses more than 4,300 digits; each reader says what was too long.
    digits = "2" * 5000
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"datum": KLEIN, "witness": {
        "degree": 4, "perms": ["(1 %s)" % digits] * 3}}))
    cert = tmp_path / "c.json"
    _, out, _ = invoke(capsys, "certify", D4)
    assert '"nearest": [-1,' in out
    cert.write_text(out.replace('"nearest": [-1,', '"nearest": [%s,' % digits, 1))
    cases = [
        (("validate", f"4: {digits},2 | 2,2"), "a part of 5000 digits is too long (at offset 3)"),
        (("validate", '{"degree": %s, "rows": [[2]]}' % digits),
         "a JSON integer of 5000 digits is too long"),
        (("admissible", f"{digits},1/2,1/2"), "a numerator of 5000 digits is too long"),
        (("families", "--family", "P3K", "--params", f"k={digits}"),
         "parameter k of 5000 digits is too long"),
        (("verify-witness", str(witness)), "a cycle point of 5000 digits is too long"),
        (("verify-certificate", str(cert)), "a JSON integer of 5000 digits is too long"),
    ]
    for argv, message in cases:
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")


def _readme_blocks(kind):
    # The fenced blocks of one kind in the README's Command line section.
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return re.findall(rf"```{kind}\n(.*?)```", section.split("\n## ", 1)[0], re.S)


def test_readme_examples_run(capsys, tmp_path):
    lines = _readme_blocks("sh")[0].splitlines()
    assert lines
    for line in lines:
        command, _, rest = line.partition(" > ")
        argv = shlex.split(command)
        assert argv[0] == "conecover"
        code, out, err = invoke(capsys, *argv[1:])
        assert code == 0, (line, err)
        if rest:
            # `> file && conecover verify-* file`, with the file in tmp_path
            name, _, verify = rest.partition(" && ")
            argv = shlex.split(verify)
            assert argv[0] == "conecover" and argv[-1] == name
            (tmp_path / name).write_text(out)
            code, out, err = invoke(capsys, *argv[1:-1], str(tmp_path / name))
            assert (code, json.loads(out)) == (0, {"valid": True}), (line, err)
    certificate, witness = _readme_blocks("json")
    assert json.loads(certificate) == json.loads(invoke(capsys, "certify", D4)[1])
    assert json.loads(witness) == json.loads(invoke(capsys, "realize", KLEIN)[1])
