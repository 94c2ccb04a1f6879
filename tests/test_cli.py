"""Command-line surface: golden output, JSON schemas, exit codes, determinism."""

import collections
import enum
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
from functools import partial
from importlib.resources import files

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jacverify.cli as cli
import jacverify.involution as involution
import jacverify.jsonout as jsonout
from jacverify.cli import main
from jacverify.poly import Poly, a_, determinant, sum_of_products, t_, x_

SCHEMAS = files("jacverify") / "schemas"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _validate(payload: str, schema_name: str):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(json.loads(payload), schema)


# Two members of the benchmark's member pool (perfbench/expected.json,
# entries 4 and 6) summed: degree 7 at (2,3), eighteen terms that lie in six
# weight blocks, three from each entry.
POOL_SUM = (
    "3 * a[1,1]^2*a[1,2]*a[2,1]^2*a[2,3]^2"
    " + 3 * a[1,1]*a[2,1]^2*a[2,2]^2*a[2,3]^2"
    " + 3 * a[1,1]^3*a[2,2]^3*a[3,2] + 3 * a[1,1]*a[2,1]*a[2,2]^4*a[3,2]"
    " - 1 * a[1,1]*a[1,3]*a[2,1]*a[2,2]*a[2,3]^2*a[3,2]"
    " - 1 * a[2,1]*a[2,2]^2*a[2,3]^3*a[3,2]"
    " - 2 * a[1,1]*a[1,3]*a[2,1]^2*a[2,2]*a[3,1]*a[3,2]"
    " - 2 * a[2,1]^2*a[2,2]^2*a[2,3]*a[3,1]*a[3,2]"
    " - 1 * a[1,1]^3*a[1,2]*a[2,2]*a[3,2]*a[3,3]"
    " - 1 * a[1,1]*a[1,2]*a[2,1]*a[2,2]^2*a[3,2]*a[3,3]"
    " + 3 * a[1,1]*a[2,1]^2*a[2,3]^2*a[3,2]*a[3,3]"
    " + 3 * a[1,1]*a[2,2]^3*a[3,1]*a[3,2]*a[3,3]"
    " - 2 * a[1,1]*a[1,3]*a[3,1]^3*a[3,2]*a[3,3]"
    " - 2 * a[2,2]*a[2,3]*a[3,1]^3*a[3,2]*a[3,3]"
    " - 1 * a[2,1]*a[2,2]*a[2,3]^2*a[3,2]*a[3,3]^2"
    " - 1 * a[1,1]*a[1,2]*a[2,2]*a[3,1]*a[3,2]*a[3,3]^2"
    " - 2 * a[2,1]^2*a[2,2]*a[3,1]*a[3,2]*a[3,3]^2"
    " - 2 * a[3,1]^3*a[3,2]*a[3,3]^3"
)

# stdout SHA-256 of small commands of every subcommand, in text and JSON.
# Each row is (command line, text exit code, text digest, json exit code,
# json digest); a refactor that changes one output byte fails here.
GOLDEN = [
    ('gens --d 2 --n 2',
     0, "be5a2094178c86e67e225769e46f07428f37de0f1c9c5e1a703ea1fcf1c604e4",
     0, "266805fcec142c16fb979936795375455e823183fbf7f09bb35e5fcc2051e84c"),
    ('gens --d 1 --n 3',
     0, "0245cd7fd856a9c10bd9eceacdd5a7852bd2c780b034d227641926df8e6b0239",
     0, "9f2d0eac68677870a18a7d6bdc2012966b47b13b9e1d850dac3a5a852ea19969"),
    ("z --d 2 --n 2 --u0 1 --uk 2 --nu '1;1'",
     0, "05f07753ced092dee15c9887b1d3ff20885c99203068cebac1bd81004110ec87",
     0, "fb90bfa2606f327387b7e8fa9bf0db7a4568e2d94597ae51077c6fb28a808b1e"),
    ("z --d 1 --n 2 --u0 1 --uk 2 --nu ';'",
     0, "7945cc9457142c817ee9260c8b1a0d49f0134aa94d2b1038b3c471e04eb29792",
     0, "03c502afb9c91c8f620b692e30d1b3e5234800d872362a5b650ba81a9cf9d521"),
    ('identity1 --d 2 --n 2 --all',
     0, "2ed57bd4517f19c0d7d6fbfa8a59defc24206fe3c3b8089a1ddf6b0899b8c696",
     0, "25ff933724eccf83ce4beae545f4a40c489ae95972d6eb857862c205acc8a474"),
    ('identity1 --d 2 --n 2 --alpha 2,0 --u0 1 --un 1',
     0, "4b9c252460b0da057b5737430448d6deeada16d308286ba3edc5cef8cee100fb",
     0, "88d7b076f81410d951c9d99331ff8c15f41e4a33d5931a6fd39034a1a9de0b3c"),
    ('identity1 --d 1 --n 2 --all --numeric-trials 5 --seed 7',
     0, "78670a93697d061dd093fb707c92d27d3d80a3b3ccdae1305701bb2d783fe4fb",
     0, "3f2ac7e8df7b331840662eb2add2e89f35eb412269a25ca8d55afeef7e4ee146"),
    ('identity2 --d 2 --n 2 --all',
     0, "c97733c828ade5721aaa4d6b959ff10cc757798898009a63320b89b1288cd7a8",
     0, "f2a6e1bdc3f61d3be18ed105bd81674251f79ae972b3145c9e2a66cee049809b"),
    ('identity2 --d 3 --n 2 --alpha 2,2 --u0 1 --un 2 --beta 1,2',
     0, "45296fabbcc288a0ae8654949bf841100267fbcc8d48951d52b8daffbe244228",
     0, "1749d1007c72d171405414dd119e2cf0d2fbd48c218224e8c5d62efb78356410"),
    ('relation --d 2 --all',
     1, "2a3b7d315519d8340abc5c911810102b83c6cb90b73b1ff7cc712ef30e93fca6",
     1, "159bf7bc028848aea8398b83f312a6a21f56965117b7ce6cd055e4e3ff54884d"),
    ('relation --d 3 --all',
     1, "94ec55af876a51e7cf39d40737dcd8face2da803009c03292b98516ae9b869a5",
     1, "cb63045883cefc3a18176194ac02a5c34c4862cb992e56858102ec15a669b85d"),
    ('relation --d 3 --alpha1 1,1 --alpha2 2,0 --u 2',
     1, "aadd3878fbf0f9e1b61bbe6023be22eed57c5403214cc9d57ebab783ef9e40c8",
     1, "275a2daccf64b6412bd2ca3201cc138852f2ef065d37dcace01c1e429a0de8aa"),
    ('involution --d 2 --n 2 --alpha 1,1 --u0 1 --un 2 --variant 1',
     0, "63b69e96cf14af189d52b6b59f47f48e3ae7f6ac743407d33d6d4818bba5f606",
     0, "8c3a347bf7bd9cdf46a602c27d71dee15f7b6f5dcb367fcbce2b455a95f4fc3b"),
    ('involution --d 2 --n 2 --alpha 2,0 --u0 1 --un 2 --variant 2 --beta 1',
     0, "51eb897c343bea97bfef91887d614713db198163e3cfe22222daeb99304d365d",
     0, "7e684df77348bcc7d8c747fc6af42148e82961cf3538c3bb8b4d710d98a40cf8"),
    ('inverse --d 2 --n 2 --Nmax 4',
     0, "fcf397d2d2d22dc3f7ecc45e54afff21a5399d09d992b7f3c28e348b7fa099d8",
     0, "05ddb3b6f6e15a7ea07f001c8661509dffead40f6ece8c7cb7a73e0f45f5fa57"),
    ('inverse --d 2 --n 2 --coeff 1,1,1,2',
     0, "5cbedc371d71813ab2fc573507548cb465533467c7792ff6a373b1ee8b5daf09",
     0, "6605f445c49591295aa0a89f67e585b38d751c09daa64bc653ad3868f2adba43"),
    ("member --d 1 --n 2 --poly 'a[1,1]^2 + a[1,2]*a[2,1]'",
     0, "4f89b767ab1251f622ed3ed575af27f3eefffca0c61f64478b18f21f80d69aea",
     0, "9005c0eedd90b3347837ccf6ab1d9cca71a40c2a7faa13f02d7de4094b611cac"),
    ("member --d 2 --n 2 --poly '1 * a[1,1]'",
     1, "9e0cbcd984bf0ad5f11759e8d13539628e88c2a14c7d05b370439e3553ba1202",
     1, "3a16b475f53f216c89deedc4039e39b300082accc278cab0921d195d9d91b08d"),
    ("member --d 2 --n 2 --poly 'a[1,1]^3*a[1,2] + a[1,1]*a[1,2]*a[2,1]*a[2,2]'",
     0, "59fe2c0db3b92d72663695424b8cd32b1b9032dcca2ed558c34bad3734576ac3",
     0, "2f4c314135fc3a4f05fa35c4831e20c40c3c14d49b51f49591d9e9e93902bce1"),
    ('verify-theorem --d 2 --N 4',
     0, "cfb1e0c47d3370cde5a062378aa54a943b42542da6932e476ab5bb68dafca299",
     0, "d42c81b72cb38990d6beebc75866ab28a9d4fdb936d837513dc8f1dbdbc40f1f"),
    ('verify-theorem --d 2 --N 2,4',
     0, "cdd65fa55c3cfeb705496d8e77d583aaaf93589e84a6cd4c91e82ac1a5cb5870",
     0, "dd81aebff3e59d7cf68da618e67f25a9c6cfc9693ab30c79aeb1b93c49700bb7"),
    # Sizes above the benchmark's, on the inverse-series and membership path.
    ('inverse --d 2 --n 3 --Nmax 8',
     0, "1f4141a1339278d8364e6628a893f2d803bf6cb18a0fbe383d64d58e455c63c0",
     0, "1ad03d47ae9eaf60f6175ff9b07eac88e1ddeeabb3a126d1accc554fe66576f4"),
    ('inverse --d 3 --n 2 --Nmax 12',
     0, "5287ad5f95256be5abd4eef4474d7e83101ba924b8de938dc26a3ebb9a9342f0",
     0, "9fafbd8322ad62e0a64a96ea90f8ae0c6d622f65ee39b02968ea4b9858d929ee"),
    ('verify-theorem --d 2 --N 14,16',
     0, "8759f3c125d96b65991262ead98a2cc09756841cb7cb0983b9babac9c1ba1de7",
     0, "7ef0dcc0206f8fc759c0cd24757c11209b4fc9c3317eeeb6dd394d936d7dcb48"),
    # Membership at (2,3): a pure power, a member spread over several weight
    # blocks, and that member plus a power, a non-member in one more block.
    ("member --d 2 --n 3 --poly 'a[1,1]^8'",
     1, "48e80d00702e6aa4d79f8344e8dede61d3ddb5739d7918212cc19bc07a2780d5",
     1, "9f9fd0146fad73d817d81e23c70d1e594fa6a992cd1ca2317bf150173c6150a0"),
    (f"member --d 2 --n 3 --poly '{POOL_SUM}'",
     0, "3d4d83c3078f59a943ea57b01cba4853a8526850c4ee7e66a127ff3036645ea7",
     0, "eee2aaf4e16e5cc19ee62b525d3a29f8ed6ccb4010991ff2a6fe08b420dc518d"),
    (f"member --d 2 --n 3 --poly '{POOL_SUM} + a[1,1]^7'",
     1, "2e33c7b3ff85036854b1b2cbe6d5311c7f70cca2ac37535ea625bd320291d837",
     1, "dfb18b7b0adf1f6c421a1c968503f9fe7f47096984c41ad6757153a047ef11f5"),
    # Members of degree 2**63 and 2**64 + 1: the first's certificate product
    # sets the top bit of an 8-byte exponent field, the second's passes 8 bytes.
    ("member --d 1 --n 1 --poly 'a[1,1]^9223372036854775808'",
     0, "48f47f1e43a468d46b0a1369d68a257d14cf1af2a52a6362d1f6e71ff669945c",
     0, "fd51ec5685baa259ce193aee386fe893a613f64aaa7d8f594ff0e10fb2d6baf0"),
    ("member --d 1 --n 1 --poly 'a[1,1]^18446744073709551617'",
     0, "d8620a265e15f166138b3bc92cc54067be8865ef0171fc70f29a533dd937117d",
     0, "7122893ae894be16fdb7a26a0fa35187d99737511ec60516dacb6e758cf1fc38"),
    # Pairs whose sigma is not the identity, so the JSON pins its orientation.
    ('involution --d 2 --n 4 --alpha 1,1,2,0 --u0 3 --un 2 --variant 1',
     0, "8a06d032914c54eefed781a369c2545276c53b5e51a716a94147436340190563",
     0, "7d5e4308e8f112d1be0abfb71328ddcc4ade40c495f43e2569fc9c568f2e68d8"),
    # 152 KB of JSON: enough nested pairs to pin the report encoder's bytes.
    ('involution --d 3 --n 3 --alpha 2,2,2 --u0 1 --un 2 --variant 2 --beta 1,3',
     0, "0346ca122ab7b0a549b205d9cfd83f3691f46f325e7e75bec5ecc8c0151e9f58",
     0, "1a1b6588d8e0af3e172b3d012f0dd2cffed1be3d0df3350228910a42f2a64b00"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cmd,text_code,text_sha,json_code,json_sha", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_golden_stdout_digest(capsys, cmd, text_code, text_sha, json_code, json_sha, fmt):
    code, out = _run(capsys, shlex.split(cmd) + ["--format", fmt])
    expected = (text_code, text_sha) if fmt == "text" else (json_code, json_sha)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected


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
    text = dump.read_text()
    pairs = json.loads(text)
    assert pairs and all(p["sign"] in (1, -1) for p in pairs)
    # The file holds the report's pair list in the report's own bytes,
    # with no trailing newline.
    assert text == json.dumps(json.loads(out)["payload"]["pairs"], indent=2)


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


@pytest.mark.parametrize("argv,flag", [
    (["gens", "--d", "1", "--n", "1"], "--out"),
    (["involution", "--d", "2", "--n", "2", "--alpha", "2,0", "--u0", "1", "--un", "2",
      "--variant", "2", "--beta", "1"], "--dump"),
])
def test_unwritable_file_exits_two(capsys, tmp_path, argv, flag):
    path = tmp_path / "missing" / "file"
    assert main(argv + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


@pytest.mark.parametrize("argv,message,enumerated", [
    # beta's content exceeds alpha's, so the restriction leaves no state
    ("--d 2 --n 2 --alpha 2,0 --u0 1 --un 2 --variant 2 --beta 2",
     "involution d=2 n=2 alpha=(2,0) u0=1 un=2 variant=2 beta=(2): no state to check", True),
    ("--d 3 --n 2 --alpha 4,0 --u0 1 --un 2 --variant 2 --beta 2,2",
     "involution d=3 n=2 alpha=(4,0) u0=1 un=2 variant=2 beta=(2,2): no state to check", True),
    ("--d 2 --n 2 --alpha 1,1 --u0 5 --un 5 --variant 1", "u0 = 5 lies outside [1,2]", False),
    ("--d 2 --n 2 --alpha 2,0 --u0 1 --un 0 --variant 2 --beta 1",
     "un = 0 lies outside [1,2]", False),
])
def test_involution_with_no_state_or_labels_out_of_range_exits_two(
        capsys, monkeypatch, argv, message, enumerated):
    """The library rejects a label out of range before it builds any state."""
    involution = importlib.import_module("jacverify.involution")
    calls = []
    real = involution.enumerate_states

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(involution, "enumerate_states", counted)
    for fmt in ("text", "json"):
        assert main(["involution", *argv.split(), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert len(calls) == (2 if enumerated else 0)


@pytest.mark.parametrize("argv,message", [
    ("identity1 --d 2 --n 2 --alpha 3,-1 --u0 1 --un 1", "alpha (3, -1) has a negative part"),
    ("identity1 --d 2 --n 3 --alpha 1,2 --u0 1 --un 2", "alpha (1, 2) has 2 parts, not n = 3"),
    ("identity1 --d 2 --n 2 --alpha 2,1 --u0 1 --un 2", "alpha (2, 1) has weight 3, not 2"),
    ("identity1 --d 2 --n 2 --alpha '' --u0 1 --un 2", "alpha () has 0 parts, not n = 2"),
    ("identity1 --d 2 --n 2 --alpha 1,1 --u0 0 --un 2", "u0 = 0 lies outside [1,2]"),
    ("identity2 --d 2 --n 2 --alpha 1,1 --u0 1 --un 1 --beta 1",
     "beta needs u0 != un, got u0 = un = 1"),
    ("identity2 --d 3 --n 2 --alpha 2,2 --u0 1 --un 2 --beta 1",
     "beta (1,) has 1 labels, not d - 1 = 2"),
    ("identity2 --d 2 --n 2 --alpha 1,1 --u0 1 --un 2 --beta ''",
     "beta () has 0 labels, not d - 1 = 1"),
    ("identity2 --d 2 --n 2 --alpha 1,1 --u0 1 --un 2 --beta 3",
     "beta (3,) has a label outside [1,2]"),
    ("identity2 --d 2 --n 2 --alpha 1,1 --u0 1 --un 3 --beta 1", "un = 3 lies outside [1,2]"),
    ("involution --d 2 --n 2 --alpha 3,-1 --u0 1 --un 2 --variant 1",
     "alpha (3, -1) has a negative part"),
    ("involution --d 2 --n 2 --alpha 1,1,0 --u0 1 --un 2 --variant 1",
     "alpha (1, 1, 0) has 3 parts, not n = 2"),
    ("involution --d 2 --n 2 --alpha 2,1 --u0 1 --un 2 --variant 1",
     "alpha (2, 1) has weight 3, not 2"),
    ("involution --d 2 --n 2 --alpha 1,1 --u0 1 --un 1 --variant 2 --beta 1",
     "beta needs u0 != un, got u0 = un = 1"),
    ("relation --d 3 --alpha1 3,-1 --alpha2 1,1 --u 1", "alpha1 (3, -1) has a negative part"),
    ("relation --d 3 --alpha1 1,1 --alpha2 1,0,1 --u 1",
     "alpha2 (1, 0, 1) has 3 parts, not n = 2"),
    ("relation --d 3 --alpha1 2 --alpha2 1,1 --u 2", "alpha1 (2,) has 1 parts, not n = 2"),
    ("relation --d 3 --alpha1 1,0 --alpha2 1,1 --u 1", "alpha1 (1, 0) has weight 1, not 2"),
    ("z --d 2 --n 2 --u0 1 --uk 3 --nu 1", "uk = 3 lies outside [1,2]"),
    ("z --d 2 --n 2 --u0 0 --uk 1 --nu 1", "u0 = 0 lies outside [1,2]"),
    ("z --d 2 --n 2 --u0 1 --uk 2 --nu '1,2;1'", "nu row (1, 2) has 2 labels, not d - 1 = 1"),
    ("z --d 2 --n 2 --u0 1 --uk 2 --nu '1;3'", "nu row (3,) has a label outside [1,2]"),
])
def test_bad_shapes_exit_two_with_the_librarys_message(capsys, monkeypatch, argv, message):
    """The CLI only parses integers, so a bad shape reaches the library, which
    refuses it before any work starts: exit 2, no report, one error line."""
    identities = importlib.import_module("jacverify.identities")

    def never(*args):
        raise AssertionError("work started before the inputs were checked")

    for owner, name in [(cli, "generator_set"), (identities, "generator_set"),
                        (involution, "enumerate_states"), (cli, "z_fern")]:
        monkeypatch.setattr(owner, name, never)
    for fmt in ("text", "json"):
        assert main([*shlex.split(argv), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _assert_verification_error(capsys, argv):
    """A failed exact check exits 1 with one error line and prints no report."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_member_rechecks_its_certificate(capsys, monkeypatch):
    """The library re-multiplies the certificate it builds, so a term lost on
    the way out of the elimination is an error, not a wrong report."""
    membership = importlib.import_module("jacverify.membership")
    real = membership.MembershipCertificate

    def drop_one_term(target, combination, residual):
        assert combination
        return real(target, combination[1:], residual)

    monkeypatch.setattr(membership, "MembershipCertificate", drop_one_term)
    _assert_verification_error(capsys, ["member", "--d", "2", "--n", "2", "--poly",
                                        "a[1,1]^3*a[1,2] + a[1,1]*a[1,2]*a[2,1]*a[2,2]"])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("stray,error", [
    (t_(2) ** 2 * x_(2, 1) * a_(2, 1, 1) ** 2,
     "coefficient -1 at t^2 x^(1, 0) is not divisible by d^k = 2"),
    # under the head of the last key, (2, (2, 0)), whose generator prints last
    (t_(2) ** 4 * x_(2, 1) ** 2 * a_(2, 1, 1) ** 4,
     "coefficient 1 at t^4 x^(2, 0) is not divisible by d^k = 4"),
], ids=["key-1-(1,0)", "last-key"])
def test_gens_with_a_broken_determinant_exits_one(capsys, monkeypatch, fmt, stray, error):
    """The stray term of tests/test_generators.py, reached through the CLI: the
    differential becomes the diagonal matrix of the real determinant plus the
    stray term, and 1.  Every part is checked before the first generator prints,
    so even a stray term under the last key leaves stdout empty."""
    generators = importlib.import_module("jacverify.generators")
    n = 2
    real = generators.differential_matrix
    det = partial(determinant, one=Poly.one(n), dot=partial(sum_of_products, n))
    monkeypatch.setattr(generators, "differential_matrix", lambda spec: [
        [det(real(spec)) + stray, Poly.zero(n)], [Poly.zero(n), Poly.one(n)]])
    importlib.import_module("jacverify.identities").generator_set.cache_clear()
    argv = ["gens", "--d", "2", "--n", str(n), "--format", fmt]
    assert _assert_verification_error(capsys, argv) == f"error: {error}\n"


def test_gens_prints_every_generator_from_its_packed_part(capsys):
    """gens reads no generator through ``gens[key]``, so the cached set still
    holds the part of each nonzero generator after printing them all."""
    identities = importlib.import_module("jacverify.identities")
    identities.generator_set.cache_clear()
    code, out = _run(capsys, ["gens", "--d", "2", "--n", "3"])
    gens = identities.generator_set(cli.DLinearSpec(2, 3))
    assert code == 0 and out.count("\n") == len(gens.entries)
    parts = [p for p in gens.entries.values() if type(p) is not Poly]
    assert parts and all(type(p).__name__ == "PackedPart" for p in parts)


def test_gens_past_one_byte_of_exponent(capsys):
    """At d = 130 the t exponent reaches 260, so the expansion must not pack
    exponents into bytes; this output was recorded before it could."""
    code, out = _run(capsys, ["gens", "--d", "130", "--n", "2"])
    assert (code, len(out)) == (0, 1_709_675)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a74910511b9935733b4b7d9bf7c3f27cc6f3eb7273e03c1b924721875de87f9a"


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


# identity1 at (2,2) sweeps 12 instances; None means the sweep ran serially.
# A pool gets four chunks a worker: 12 tasks in chunks of ceil(12 / (4 * size)).
@pytest.mark.parametrize("workers,cpus,size,chunksize", [
    (100000, 4, 4, 1), (100000, 64, 12, 1), (3, 64, 3, 1), (12, 12, 12, 1),
    (2, 64, 2, 2), (2, 1, None, None), (100000, None, None, None), (1, 64, None, None),
])
def test_pool_is_no_larger_than_the_instances_or_the_cpus(monkeypatch, capsys,
                                                         workers, cpus, size, chunksize):
    """A pool forks all its processes at once, so the size must be bounded
    before it starts; a stand-in pool records it and its chunk size, and
    maps in this process."""
    import concurrent.futures

    _, serial = _run(capsys, ["identity1", "--d", "2", "--n", "2", "--all"])
    sizes, chunksizes = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunksizes.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out = _run(capsys, ["identity1", "--d", "2", "--n", "2", "--all",
                              "--workers", str(workers)])
    assert code == 0 and out == serial
    assert sizes == ([] if size is None else [size])
    assert chunksizes == ([] if chunksize is None else [chunksize])


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this jacverify."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _modules_after(argv) -> tuple:
    """(exit code, loaded modules) of a fresh interpreter that imports the CLI and,
    given argv, runs it; pytest itself has long since imported every module."""
    probe = ("import sys, jacverify.cli\n"
             "try:\n"
             "    code = jacverify.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "except SystemExit as exc:\n"  # --help
             "    code = exc.code\n"
             "print(code, *sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    code, *loaded = done.stderr.splitlines()[-1].split()
    return int(code), set(loaded)


def test_import_loads_no_process_pool():
    """Importing the CLI loads no library module, no process pool (only a pooled
    sweep does), and neither dataclasses nor json."""
    _, loaded = _modules_after([])
    assert {m for m in loaded if m.startswith("jacverify")} == {"jacverify", "jacverify.cli"}
    assert not {m.split(".")[0] for m in loaded} & {
        "concurrent", "multiprocessing", "dataclasses", "json"}


_EMITTER = {"json", "jacverify.jsonout"}


def test_help_loads_no_library_module_nor_json():
    code, loaded = _modules_after(["--help"])
    assert code == 0
    assert {m for m in loaded if m.startswith("jacverify")} == {"jacverify", "jacverify.cli"}
    assert not _EMITTER & loaded


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,used,unused", [
    ("involution --d 2 --n 2 --alpha 1,1 --u0 1 --un 2 --variant 1",
     {"involution", "poly"}, {"identities", "membership", "inverse", "fern", "generators"}),
    ("gens --d 2 --n 2", {"identities", "generators"}, {"involution", "membership", "inverse"}),
    ("identity1 --d 2 --n 2 --all", {"identities", "fern"},
     {"involution", "membership", "inverse"}),
    ("z --d 2 --n 2 --u0 1 --uk 2 --nu 1", {"fern"},
     {"identities", "generators", "involution", "membership", "inverse"}),
    ("relation --d 2 --all", {"identities"}, {"involution", "membership", "inverse"}),
    ("inverse --d 2 --n 2 --Nmax 4", {"inverse", "generators"},
     {"identities", "involution", "membership", "fern"}),
    ("member --d 2 --n 2 --poly 'a[1,1]^3*a[1,2] + a[1,1]*a[1,2]*a[2,1]*a[2,2]'",
     {"membership"}, {"involution"}),
    ("verify-theorem --d 2 --N 4", {"membership", "inverse"}, {"involution"}),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, argv, used, unused, fmt):
    """No command loads dataclasses, or the inspect module that it imports, and
    only JSON output loads json and the emitter module."""
    out = str(tmp_path / "out")
    code, loaded = _modules_after(shlex.split(argv) + ["--format", fmt, "--out", out])
    # relation exits 1 while no instance of the transcribed relation holds.
    assert code == (1 if argv.startswith("relation ") else 0)
    assert {f"jacverify.{m}" for m in used} <= loaded
    assert not {f"jacverify.{m}" for m in unused} & loaded
    assert not {"dataclasses", "inspect"} & loaded
    assert _EMITTER <= loaded if fmt == "json" else not _EMITTER & loaded


def test_empty_sweeps_exit_two(capsys):
    assert main(["identity2", "--d", "2", "--n", "1", "--all"]) == 2
    assert "identity 2 needs n >= 2" in capsys.readouterr().err
    assert main(["relation", "--d", "1", "--all"]) == 2
    assert capsys.readouterr().out == ""


def test_zero_denominator_exits_two(capsys):
    assert main(["member", "--d", "2", "--n", "2", "--poly", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="this interpreter reads ints of any length")
@pytest.mark.parametrize("template", ["{} * a[1,1]^2", "1/{} * a[1,1]", "a[{},1]^2",
                                      "a[1,1]^{}"],
                         ids=["coefficient", "denominator", "index", "exponent"])
def test_number_past_the_int_digit_limit_exits_two(capsys, template):
    """int() refuses text longer than the interpreter's digit limit (4300 by default)."""
    poly = template.format("1" * (_INT_DIGITS + 1))
    assert main(["member", "--d", "2", "--n", "2", "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert f"{_INT_DIGITS + 1} digits is too long" in captured.err
    assert captured.out == ""


def test_non_integer_N_exits_two(capsys):
    assert main(["verify-theorem", "--d", "2", "--N", "a"]) == 2
    assert "--N" in capsys.readouterr().err


def test_workers_below_one_exit_two(capsys):
    assert main(["identity1", "--d", "2", "--n", "2", "--all", "--workers", "-3"]) == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "gens --d 1 --n 2 --seed 1",
    "member --d 2 --n 2 --poly 'a[1,1]' --workers 2",
    "inverse --d 2 --n 2 --Nmax 2 --workers 1",
])
def test_flags_of_other_subcommands_exit_two(capsys, argv):
    """--workers belongs to the identity sweeps and --seed to identity1 only."""
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flags", [
    ("identity1 --d 2 --n 2 --all --alpha 1,1", "--alpha"),
    ("identity1 --d 2 --n 2 --all --u0 2 --un 1", "--u0, --un"),
    ("identity1 --d 2 --n 2 --all --un 1 --workers 2", "--un"),
    ("identity2 --d 2 --n 2 --all --beta 1", "--beta"),
    ("identity2 --d 2 --n 2 --all --alpha 1,1 --u0 1 --un 2 --beta 2",
     "--alpha, --u0, --un, --beta"),
    ("relation --d 2 --all --alpha1 1,0", "--alpha1"),
    ("relation --d 2 --all --alpha2 0,1 --format json", "--alpha2"),
    ("relation --d 2 --all --u 1", "--u"),
])
def test_all_refuses_a_flag_that_pins_one_instance(capsys, monkeypatch, argv, flags):
    """--all sweeps every instance: a pinning flag exits 2 before any sweep starts."""
    def never(*args):
        raise AssertionError("the sweep started")

    for name in ("identity1_instances", "identity2_instances", "relation_report"):
        monkeypatch.setattr(cli, name, never)
    assert main(shlex.split(argv)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --all sweeps every instance and takes no {flags}\n"
    assert captured.out == ""


def test_numeric_trials_checked_before_the_sweep(capsys, monkeypatch):
    def never(inst):
        raise AssertionError("the sweep ran before --numeric-trials was checked")

    monkeypatch.setattr(cli, "identity1_lhs", never)
    assert main(["identity1", "--d", "2", "--n", "2", "--all", "--numeric-trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "d=1 only" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--Nmax", "1"], ["--coeff", "1,1,0"]])
def test_inverse_degree_above_cutoff_is_the_identity(capsys, flags):
    """For d > Nmax no layer above 0 exists, so a huge d allocates nothing.

    The address space is capped 512 MB above its current size for the call,
    so a regression ends in a MemoryError, not in exhausting the host.
    """
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        pytest.skip("needs /proc/self/statm to cap the address space")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2**29
    if limits[1] != resource.RLIM_INFINITY:
        cap = min(cap, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    try:
        code, out = _run(capsys, ["inverse", "--d", "9" * 30, "--n", "1", *flags])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert code == 0
    assert out == ("g[1] N=0 alpha=(1): 1\n" if flags[0] == "--Nmax" else "1\n")


def test_inverse_coeff_with_nmax_exits_two(capsys, monkeypatch):
    """--coeff reads one coefficient, so an --Nmax beside it is an input error,
    reported before any series is built."""
    def never(*args):
        raise AssertionError("a series was built before the flags were checked")

    monkeypatch.setattr(cli, "coefficient_c", never)
    monkeypatch.setattr(cli, "inverse_series", never)
    assert main(["inverse", "--d", "2", "--n", "2", "--coeff", "1,1,1,2", "--Nmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--Nmax" in captured.err


def test_negative_numeric_trials_exit_two(capsys):
    assert main(["identity1", "--d", "1", "--n", "2", "--all",
                 "--numeric-trials", "-4"]) == 2
    captured = capsys.readouterr()
    assert "--numeric-trials" in captured.err
    assert captured.out == ""


def test_involution_json_builds_each_state_weight_once(capsys, monkeypatch):
    """The pair list reads the weights the pairing check stored."""
    calls = []
    honest = involution.state_weight

    def counted(s, *tables):
        calls.append(s)
        return honest(s, *tables)

    monkeypatch.setattr(involution, "state_weight", counted)
    monkeypatch.setattr(cli, "state_weight", counted, raising=False)
    code, out = _run(capsys, ["involution", "--d", "2", "--n", "3", "--alpha", "1,1,1",
                              "--u0", "1", "--un", "2", "--variant", "1", "--format", "json"])
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["pairs"]
    assert len(calls) == payload["states"] == len(set(calls))


def _recorded_involutions() -> list:
    """(argv, exit code, stdout SHA-256) of every involution command that the
    benchmark's perfbench/expected.json records, read without changing it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected.json")
    with open(path) as fh:
        outputs = json.load(fh)["outputs"]
    return [(cmd, want["code"], want["sha256"])
            for cmd, want in outputs.items() if cmd.startswith("involution ")]


def test_every_recorded_involution_command_keeps_its_bytes(capsys):
    """All of the benchmark's involution commands, every relabeling of its five
    instances, print their recorded bytes in-process with the recorded exit code."""
    recorded = _recorded_involutions()
    assert len(recorded) == 66
    for cmd, code, sha in recorded:
        got, out = _run(capsys, shlex.split(cmd))
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha), cmd


def test_involution_text_formats_only_the_signed_sum(capsys, monkeypatch, tmp_path):
    """Text output prints no pair, so only JSON output and --dump build the pair list,
    and they format each distinct pair monomial once."""
    argv = ["involution", "--d", "2", "--n", "3", "--alpha", "1,1,1",
            "--u0", "1", "--un", "2", "--variant", "1"]
    calls = []
    honest = cli.format_poly

    def counted(p):
        calls.append(p)
        return honest(p)

    monkeypatch.setattr(cli, "format_poly", counted)
    assert _run(capsys, argv)[0] == 0
    assert calls == [involution.verify_involution(2, 3, (1, 1, 1), 1, 2, 1).signed_sum]
    calls.clear()
    code, out = _run(capsys, argv + ["--format", "json"])
    pairs = json.loads(out)["payload"]["pairs"]
    monomials = {pair["monomial"] for pair in pairs}
    assert code == 0 and len(calls) == len(set(calls)) == 1 + len(monomials) > 1
    assert len(monomials) < len(pairs)
    calls.clear()
    dump = tmp_path / "pairs.json"
    assert _run(capsys, argv + ["--dump", str(dump)])[0] == 0
    assert len(calls) == 1 + len({pair["monomial"] for pair in json.loads(dump.read_text())})


# -- report encoder -----------------------------------------------------------
#
# ``jsonout.write_json`` must write exactly what ``json.dumps(indent=2)`` writes,
# in batches, so that no report is held in memory whole.

_JSON_STR = st.text(st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\u2028\u2029\xe9\U0001f600'),
                              st.characters()), max_size=8)
_JSON_KEY = st.one_of(st.sampled_from(["k", "state", 'a"b', "\u2028"]), _JSON_STR)
# Tuples drawn from one pool repeat, at one depth and at several, as a state's
# tuples do in an involution report; equal ones differ in their item types.
_JSON_SHARED = st.sampled_from([(1, 1), (True, 1), (1, True), (1, 2), (-3,), (2**70, 0),
                                ((1, 2), (3,)), ((1, 2), (1,)), ((1, 2), (True,)),
                                ((), (1,)), ((),), ((1, 1), [1, 1])])
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**60, 10**60), _JSON_STR, _JSON_SHARED),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(-10**60, 10**60), st.booleans()), max_size=4),
        st.lists(st.integers(-9, 9), max_size=4).map(tuple),
        st.lists(st.lists(st.integers(-9, 9), max_size=3), max_size=3),
        st.dictionaries(_JSON_KEY, inner, max_size=4)),
    max_leaves=24)


def _json_writes(value) -> list:
    writes = []
    jsonout.write_json(value, writes.append)
    return writes


def _as_iterators(value):
    """value with every list, at any depth, a generator of the same items."""
    if type(value) is list:
        return (_as_iterators(v) for v in value)
    if type(value) is tuple:
        return tuple(map(_as_iterators, value))
    if type(value) is dict:
        return {k: _as_iterators(v) for k, v in value.items()}
    return value


@settings(max_examples=400, deadline=None)
@given(value=_JSON_VALUE)
def test_json_text_equals_json_dumps(value):
    # Wrapping puts the value at depth 4 and the key "k" at two depths.
    for v in (value, {"k": [value, {"k": (value, [])}, {}], "": value}):
        assert "".join(_json_writes(v)) == json.dumps(v, indent=2)
        assert "".join(_json_writes(_as_iterators(v))) == json.dumps(v, indent=2)


@pytest.mark.parametrize("value", [[], {"k": []}, [[], [[]]], [{"k": [[], [1]]}, []]])
def test_json_writes_an_empty_iterator_as_an_empty_list(value):
    assert "".join(_json_writes(_as_iterators(value))) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {"k": [0.0]}, {1: "v"}, [{"k": {2: 3}}], {1, 2},
                                   {"k": (1, 2), "j": (1.0, 2)},
                                   {"k": ((1, 2),), "j": ((1.0, 2),)}])
def test_json_text_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        _json_writes(value)


@pytest.mark.parametrize("value", [
    {"k": (1, 1), "j": (True, 1)},
    {"k": {"k": {"k": (5, 6)}}, "j": (5, 6)},
    {"k": {"k": {"k": ((5, 6), (7,))}}, "j": ((5, 6), (7,))},
    {"k": ((1, 2), (3,)), "j": ((1, 2), (True,))},
    {"k": ((1, 2), (1,)), "j": ((1, 2), (True,))},
], ids=["bool-after-int", "depth-3-then-1", "rows-depth-3-then-1", "rows-beside-bool-row",
        "rows-then-equal-bool-row"])
def test_json_reuses_a_tuple_text_only_for_its_types_and_depth(value):
    """A tuple's text is kept per depth, keyed by the tuple; a later equal tuple
    with other item types, or the same tuple at another depth, gets its own text."""
    assert "".join(_json_writes(value)) == json.dumps(value, indent=2)


def test_json_writes_a_subclass_as_its_base():
    Pair = collections.namedtuple("Pair", "a b")
    value = {"pairs": [Pair(1, (2, 3)), Pair(True, "x")],
             "sorted": collections.OrderedDict(k=[1]), "flag": enum.IntEnum("E", "A").A}
    assert "".join(_json_writes(value)) == json.dumps(value, indent=2)


def test_json_flushes_batches_that_join_to_json_dumps():
    value = [{"i": i, "rows": [[i, i + 1], [], [i % 7]], "pair": {"s": (i, -i)}}
             for i in range(3000)]
    writes = _json_writes(value)
    assert len(writes) > 3
    assert "".join(writes) == json.dumps(value, indent=2)


@pytest.mark.parametrize("lazy", [False, True], ids=["list", "generator"])
def test_json_flushes_after_the_dict_that_brings_its_strings_past_the_bound(lazy):
    value = [{"s": "x" * 40_000, "i": i} for i in range(5)]
    writes = _json_writes(_as_iterators(value) if lazy else value)
    assert "".join(writes) == json.dumps(value, indent=2)
    assert len(writes) == 3  # after the second dict, the fourth, and at the end
    assert max(map(len, writes)) <= jsonout.BOUND + 40_100


def test_json_counts_reused_tuple_text_toward_the_bound():
    """A reused tuple text is one long chunk, so it counts toward BOUND as a string does."""
    row = tuple(range(4000))  # about 46,900 characters at depth 2
    value = [{"t": row, "i": i} for i in range(5)]
    writes = _json_writes(value)
    assert "".join(writes) == json.dumps(value, indent=2)
    assert len(writes) == 3  # after the second dict, the fourth, and at the end
    assert max(map(len, writes)) <= jsonout.BOUND + 47_000


class _Recorder:
    """A stdout that records the length of every write and the digest of them all."""

    def __init__(self):
        self.sizes = []
        self.digest = hashlib.sha256()

    def write(self, text):
        self.sizes.append(len(text))
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_involution_json_reaches_stdout_in_bounded_writes(monkeypatch):
    """A batch ends after the dict that brings it to 1,024 chunks or to 64 KiB of
    strings; this 68,106-byte report's chunks are a few dozen bytes at most, so it
    takes more than one write and none exceeds 64 KiB."""
    stdout = _Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["involution", "--d", "2", "--n", "3", "--alpha", "1,1,1", "--u0", "1",
                 "--un", "2", "--variant", "1", "--format", "json"]) == 0
    assert sum(stdout.sizes) == 68106
    assert len([size for size in stdout.sizes if size > 1]) > 1
    assert max(stdout.sizes) <= 64 * 1024


def test_gens_json_reaches_stdout_in_bounded_writes(monkeypatch):
    """Few chunks but long ones: 2.94 MB whose longest polynomial string has 46,605
    characters.  A batch ends after the generator entry that brings its strings
    past the bound, so no write exceeds the bound by more than one entry."""
    stdout = _Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["gens", "--d", "7", "--n", "3", "--format", "json"]) == 0
    assert stdout.digest.hexdigest() == \
        "856eb5703f60ca77c3501100487d66877a46f08911f5e93c27a903d2c136c7d1"
    assert sum(stdout.sizes) == 2_943_198
    assert len([size for size in stdout.sizes if size > 1]) > 1
    # Beside its polynomial, an entry's keys, numbers and indentation take under 100.
    assert max(stdout.sizes) <= jsonout.BOUND + 46_605 + 100


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gens_writes_its_first_batch_before_it_formats_its_last_generator(monkeypatch, fmt):
    """Each generator is formatted only as it is written, so the text of them
    all is never held: 165,471 bytes of JSON go out in several batches."""
    stdout = _Recorder()
    writes_before = []  # per format_poly call, the writes made before it
    format_poly = cli.format_poly
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(cli, "format_poly",
                        lambda p: writes_before.append(len(stdout.sizes)) or format_poly(p))
    assert main(["gens", "--d", "4", "--n", "3", "--format", fmt]) == 0
    assert writes_before[0] == 0 and writes_before[-1] > 0


@pytest.mark.parametrize("lines", [[], ["zero"], ["k=0 alpha=(0,0): 1", "", "pass: 2 checked"]])
@pytest.mark.parametrize("as_generator", [False, True])
def test_text_report_writes_the_joined_lines(lines, as_generator):
    """Written line by line, the text is still the joined lines and one final newline,
    so a report with no lines prints a lone newline."""
    writes = []
    cli.Report({}, (line for line in lines) if as_generator else lines).to_text(writes.append)
    assert "".join(writes) == "\n".join(lines) + "\n"


def test_gens_text_reaches_stdout_in_several_writes(capsys, monkeypatch):
    code, out = _run(capsys, ["gens", "--d", "2", "--n", "3"])
    stdout = _Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["gens", "--d", "2", "--n", "3"]) == code == 0
    assert stdout.digest.hexdigest() == hashlib.sha256(out.encode()).hexdigest()
    assert len([size for size in stdout.sizes if size > 1]) > 1


@pytest.mark.parametrize("argv", [
    "gens --d 2 --n 3 --format json",
    "gens --d 2 --n 3",
    "involution --d 2 --n 3 --alpha 1,1,1 --u0 1 --un 2 --variant 2 --format json",
])
def test_out_and_dump_files_hold_the_stdout_bytes(capsys, tmp_path, argv):
    argv = shlex.split(argv)
    code, out = _run(capsys, argv)
    target = tmp_path / "out"
    assert main(argv + ["--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()
    if argv[0] == "involution":
        dumps = [tmp_path / "stdout.pairs", tmp_path / "out.pairs"]
        code, out = _run(capsys, argv + ["--dump", str(dumps[0])])
        assert main(argv + ["--dump", str(dumps[1]), "--out", str(target)]) == code
        assert target.read_bytes() == out.encode()
        pairs = json.dumps(json.loads(out)["payload"]["pairs"], indent=2).encode()
        assert dumps[0].read_bytes() == dumps[1].read_bytes() == pairs


def _run_with_stdout(argv, stdout) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "jacverify.cli", *shlex.split(argv)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=_child_env(),
                          timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", ["gens --d 2 --n 3 --format json", "gens --d 2 --n 3"])
def test_stdout_on_a_full_device_exits_two(argv):
    with open("/dev/full", "w") as full:
        done = _run_with_stdout(argv, full)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("argv", ["gens --d 2 --n 3 --format json", "gens --d 2 --n 3"])
def test_stdout_on_a_closed_pipe_exits_two(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _run_with_stdout(argv, write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write stdout: Broken pipe\n"


# -- argv fuzzing -------------------------------------------------------------
#
# Every subcommand with random flags and values must exit 0, 1 or 2 (argparse's
# SystemExit(2) counts as 2) and never raise.  Values are mostly well formed so
# that the library runs, with malformed ones mixed in; sizes are bounded (d and
# n in -1..3, --Nmax and --N at most 8, polynomial degree at most 4) so that
# each call stays well under a second.

_SMALL = st.one_of(st.integers(1, 3), st.integers(-1, 3))
_JUNK = st.sampled_from(["", "abc", "1.5", "-", "1,,2", "0x1", "1e3"])


def _joined(xs, sep=","):
    return sep.join(map(str, xs))


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(["gens", "z", "identity1", "identity2", "relation",
                                "involution", "inverse", "member", "verify-theorem"]))
    d, n = draw(_SMALL), (2 if sub == "relation" else draw(_SMALL))
    flags = {}

    # About one draw in 25 is malformed or drops a required flag, so most
    # examples get past parsing and run the library.
    def rarely():
        return draw(st.sampled_from([False] * 24 + [True]))

    def want():
        return not rarely()

    def text(valid):
        return draw(_JUNK) if rarely() else str(valid)

    def label():
        return draw(st.one_of(st.integers(1, max(n, 1)), st.integers(-1, 4)))

    def labels(width):
        return _joined(label() for _ in range(max(width, 0)))

    def composition(weight, parts):
        if parts < 1 or weight < 0 or rarely():
            return _joined(draw(st.lists(st.integers(-1, 4), max_size=4)))
        cuts = sorted(draw(st.lists(st.integers(0, weight), min_size=parts - 1,
                                    max_size=parts - 1)))
        return _joined(b - a for a, b in zip([0] + cuts, cuts + [weight]))

    def put(flag, value, required=True):
        if want() if required else draw(st.booleans()):
            flags[flag] = value

    put("--d", text(d))
    if sub not in ("relation", "verify-theorem"):
        put("--n", text(n))
    if sub in ("identity1", "identity2", "relation") and draw(st.booleans()):
        flags["--all"] = None
    elif sub in ("identity1", "identity2", "involution", "z"):
        put("--u0", text(label()))
        put("--uk" if sub == "z" else "--un", text(label()))
        if sub != "z":
            put("--alpha", composition(n * (d - 1), n))
    if sub == "z":
        rows = draw(st.integers(0, 3))
        put("--nu", ";".join(labels(d - 1) for _ in range(rows)), required=False)
    if sub in ("identity2", "involution"):
        put("--beta", labels(d - 1), required=sub == "identity2")
    if sub == "identity1":
        put("--numeric-trials", text(draw(st.integers(-1, 3))), required=False)
        put("--seed", text(draw(st.integers(-5, 5))), required=False)
    if sub in ("identity1", "identity2"):
        if rarely():
            flags["--workers"] = draw(st.sampled_from(["-1", "0", "abc"]))
        else:
            put("--workers", draw(st.sampled_from(["1", "2"])), required=False)
    if sub == "relation" and "--all" not in flags:
        put("--alpha1", composition(d - 1, 2))
        put("--alpha2", composition(d - 1, 2))
        put("--u", text(draw(st.one_of(st.integers(1, 2), st.integers(0, 3)))))
    if sub == "involution":
        put("--variant", text(draw(st.one_of(st.integers(1, 2), st.integers(0, 3)))))
        put("--dump", "@dump", required=False)
    if sub == "inverse":
        if draw(st.booleans()):
            put("--Nmax", text(draw(st.integers(-1, 8))))
        else:
            parts = [draw(st.integers(0, n + 1))] + [
                draw(st.integers(-1, 4)) for _ in range(max(n, 0))] + [
                draw(st.integers(-1, 8))]
            put("--coeff", text(_joined(parts)))
    if sub == "member":
        degree = draw(st.integers(0, 4))
        terms = draw(st.lists(st.tuples(
            st.sampled_from(["1", "2", "1/2", "3/4"]), st.sampled_from([" + ", " - "]),
            st.lists(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))),
                     min_size=degree, max_size=degree)), min_size=1, max_size=3))
        poly = "".join(
            (sep if k else "") + "*".join([c] + [f"a[{i},{j}]" for i, j in mono])
            for k, (c, sep, mono) in enumerate(terms))
        put("--poly", text(poly))
    if sub == "verify-theorem":
        put("--N", text(_joined(draw(st.lists(
            st.one_of(st.integers(1, 4).map(lambda k: k * max(d, 1)), st.integers(-1, 8))
            .filter(lambda v: v <= 8), min_size=1, max_size=3)))))
    put("--format", "xml" if rarely() else draw(st.sampled_from(["text", "json"])),
        required=False)
    put("--out", "@out", required=False)

    argv = [sub]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_fuzzed_argv_exits_cleanly(capsys, tmp_path, argv):
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert _exit_code(argv) in (0, 1, 2), argv
    capsys.readouterr()
