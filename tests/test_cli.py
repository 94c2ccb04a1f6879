"""Command-line surface: golden output, JSON schemas, exit codes, determinism."""

import json
from importlib.resources import files

import jsonschema

from jacverify.cli import main

SCHEMAS = files("jacverify") / "schemas"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _validate(payload: str, schema_name: str):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(json.loads(payload), schema)


def test_gens_text_golden(capsys):
    code, out = _run(capsys, ["gens", "--d", "1", "--n", "2"])
    assert code == 0
    assert out == (
        "k=0 alpha=(0,0): 1\n"
        "k=1 alpha=(0,0): -1 * a[1,1] - 1 * a[2,2]\n"
        "k=2 alpha=(0,0): -1 * a[1,2]*a[2,1] + a[1,1]*a[2,2]\n"
    )


def test_gens_json_schema(capsys):
    code, out = _run(capsys, ["gens", "--d", "2", "--n", "2", "--format", "json"])
    assert code == 0
    _validate(out, "gens.schema.json")
    data = json.loads(out)
    assert {g["k"] for g in data["generators"]} == {0, 1, 2}


def test_z_output(capsys):
    code, out = _run(capsys, ["z", "--d", "2", "--n", "2", "--u0", "1",
                              "--uk", "2", "--nu", "1;1"])
    assert code == 0
    assert out.strip() == "a[1,1]^3*a[1,2] + a[1,1]*a[1,2]*a[2,1]*a[2,2]"
    code, out = _run(capsys, ["z", "--d", "1", "--n", "2", "--u0", "1",
                              "--uk", "2", "--nu", ";", "--format", "json"])
    assert code == 0
    _validate(out, "z.schema.json")


def test_identity1_single_and_all(capsys):
    code, out = _run(capsys, ["identity1", "--d", "2", "--n", "2",
                              "--alpha", "2,0", "--u0", "1", "--un", "1"])
    assert code == 0 and "zero" in out
    code, out = _run(capsys, ["identity1", "--d", "2", "--n", "2", "--all",
                              "--format", "json"])
    assert code == 0
    _validate(out, "identity.schema.json")
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["counts"] == {"checked": 12, "failures": 0}


def test_identity1_numeric_trials(capsys):
    code, out = _run(capsys, ["identity1", "--d", "1", "--n", "2", "--all",
                              "--numeric-trials", "5", "--seed", "7",
                              "--format", "json"])
    assert code == 0
    _validate(out, "identity.schema.json")
    assert json.loads(out)["payload"]["numeric"]["ok"] is True


def test_identity2_all(capsys):
    code, out = _run(capsys, ["identity2", "--d", "2", "--n", "2", "--all",
                              "--format", "json"])
    assert code == 0
    _validate(out, "identity.schema.json")


def test_relation_reports_and_exit(capsys):
    code, out = _run(capsys, ["relation", "--d", "2", "--alpha1", "1,0",
                              "--alpha2", "1,0", "--u", "1", "--format", "json"])
    _validate(out, "relation.schema.json")
    data = json.loads(out)
    zero_found = any(e["zero"] for e in data["payload"]["entries"])
    assert code == (0 if zero_found else 1)
    assert all(e["zero"] or e["homogeneous_2d"] for e in data["payload"]["entries"])


def test_involution_with_dump(capsys, tmp_path):
    dump = tmp_path / "pairs.json"
    code, out = _run(capsys, ["involution", "--d", "2", "--n", "2",
                              "--alpha", "2,0", "--u0", "1", "--un", "2",
                              "--variant", "2", "--beta", "1",
                              "--dump", str(dump), "--format", "json"])
    assert code == 0
    _validate(out, "involution.schema.json")
    pairs = json.loads(dump.read_text())
    assert pairs and all(p["sign"] in (1, -1) for p in pairs)


def test_inverse_full_and_single(capsys):
    code, out = _run(capsys, ["inverse", "--d", "2", "--n", "2", "--Nmax", "4",
                              "--format", "json"])
    assert code == 0
    _validate(out, "inverse.schema.json")
    code, out = _run(capsys, ["inverse", "--d", "2", "--n", "2",
                              "--coeff", "1,1,1,2", "--format", "json"])
    assert code == 0
    _validate(out, "inverse.schema.json")
    assert json.loads(out)["poly"] == "2 * a[1,1]*a[1,2]"


def test_member_exit_codes(capsys):
    code, out = _run(capsys, ["member", "--d", "2", "--n", "2",
                              "--poly", "1 * a[1,1]"])
    assert code == 1 and "non-member" in out
    code, out = _run(capsys, ["member", "--d", "2", "--n", "2", "--format", "json",
                              "--poly", "a[1,1]^3*a[1,2] + a[1,1]*a[1,2]*a[2,1]*a[2,2]"])
    assert code == 0
    _validate(out, "member.schema.json")
    assert json.loads(out)["member"] is True


def test_verify_theorem_json(capsys):
    code, out = _run(capsys, ["verify-theorem", "--d", "2", "--N", "2,4",
                              "--format", "json"])
    assert code == 0
    _validate(out, "verify_theorem.schema.json")
    data = json.loads(out)
    assert any(e["exceptional"] for e in data["payload"]["entries"])


def test_usage_errors_exit_two(capsys):
    assert main(["identity1", "--d", "2", "--n", "2"]) == 2  # missing alpha
    capsys.readouterr()
    assert main(["z", "--d", "2", "--n", "2", "--u0", "1", "--uk", "2",
                 "--nu", "1,2;1"]) == 2  # wrong row width
    capsys.readouterr()
    assert main(["member", "--d", "2", "--n", "2", "--poly", "a[9,9]"]) == 2
    capsys.readouterr()


def test_out_file(capsys, tmp_path):
    target = tmp_path / "gens.json"
    code, _ = _run(capsys, ["gens", "--d", "1", "--n", "2", "--format", "json",
                            "--out", str(target)])
    assert code == 0
    _validate(target.read_text(), "gens.schema.json")


def test_repeated_runs_byte_identical(capsys):
    for argv in (
        ["gens", "--d", "2", "--n", "2", "--format", "json"],
        ["identity1", "--d", "2", "--n", "2", "--all"],
        ["verify-theorem", "--d", "2", "--N", "4", "--format", "json"],
        ["relation", "--d", "2", "--all"],
    ):
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second


def test_workers_do_not_change_output(capsys):
    _, serial = _run(capsys, ["identity1", "--d", "2", "--n", "2", "--all"])
    _, parallel = _run(capsys, ["identity1", "--d", "2", "--n", "2", "--all",
                                "--workers", "2"])
    assert serial == parallel


def test_workers_env_override(capsys, monkeypatch):
    monkeypatch.setenv("JACVERIFY_WORKERS", "2")
    _, out = _run(capsys, ["identity2", "--d", "2", "--n", "2", "--all"])
    monkeypatch.delenv("JACVERIFY_WORKERS")
    _, serial = _run(capsys, ["identity2", "--d", "2", "--n", "2", "--all"])
    assert out == serial


def test_empty_sweeps_exit_two(capsys):
    assert main(["identity2", "--d", "2", "--n", "1", "--all"]) == 2
    assert "identity 2 needs n >= 2" in capsys.readouterr().err
    assert main(["relation", "--d", "1", "--all"]) == 2
    assert capsys.readouterr().out == ""


def test_zero_denominator_exits_two(capsys):
    assert main(["member", "--d", "2", "--n", "2", "--poly", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_non_integer_N_exits_two(capsys):
    assert main(["verify-theorem", "--d", "2", "--N", "a"]) == 2
    assert "--N" in capsys.readouterr().err


def test_non_integer_workers_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("JACVERIFY_WORKERS", "abc")
    assert main(["identity1", "--d", "2", "--n", "2", "--all"]) == 2
    assert "JACVERIFY_WORKERS" in capsys.readouterr().err


def test_workers_below_one_exit_two(capsys, monkeypatch):
    assert main(["identity1", "--d", "2", "--n", "2", "--all", "--workers", "-3"]) == 2
    assert "--workers" in capsys.readouterr().err
    monkeypatch.setenv("JACVERIFY_WORKERS", "0")
    assert main(["identity1", "--d", "2", "--n", "2", "--all"]) == 2
    assert "JACVERIFY_WORKERS" in capsys.readouterr().err


def test_negative_numeric_trials_exit_two(capsys):
    assert main(["identity1", "--d", "1", "--n", "2", "--all",
                 "--numeric-trials", "-4"]) == 2
    captured = capsys.readouterr()
    assert "--numeric-trials" in captured.err
    assert captured.out == ""
