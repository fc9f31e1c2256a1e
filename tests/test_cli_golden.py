"""Byte-level pins of the CLI's construct outputs and `verify` reports.

The digests were taken from a clean run of the same commands; any change
to a written record (its exponents, X, stamps or run digest) or to the
per-route lines of `verify --method all` shows up here.  Paths are
relative to a fresh working directory so the embedded run digest, which
hashes the command line and the input files, is reproducible.
"""

import hashlib
from pathlib import Path

import pytest

from paleyschemes.cli import main

CONSTRUCT = (
    ("paley", "--p", 3, "--m", 3, "--out", "paley.json"),
    ("paley", "--p", 3, "--m", 2, "--out", "paley9.json"),
    ("adp", "--p", 3, "--l", 5, "--r", 2, "--out", "adp.json"),
    ("cyclotomic", "--p", 11, "--l", 3, "--n", 7, "--X", "0",
     "--out", "cyc.json"),
    ("cyclotomic", "--p", 11, "--l", 3, "--n", 7, "--X", "1",
     "--out", "cyc1.json"),
    ("langevin", "--p", 3, "--p-prime", 11, "--out", "lang.json"),
    ("gmw-lift", "--p", 3, "--t", 1, "--s", 3, "--X", "0",
     "--out", "gmw.json"),
    ("union", "--in", "cyc.json", "--in", "cyc1.json", "--out", "union.json"),
)

SHA256 = {
    "paley.json":
        "cab609f6c736fea2b3ecf7a9e1adff0115c039e5c241198c2ecf0bc8bf4cfb37",
    "paley9.json":
        "675352b2d6adcf27c5ccbef901a9d29d5737149f6b2bc97971e75246c877e302",
    "adp.json":
        "821fb413417efbd674e6822014180bb0d282eb6c726d2a27f3bf8beb03bdb1cc",
    "cyc.json":
        "fb738641191595dfe6e66b4b00bd431a5b551e00d812b15399c00273cb427333",
    "cyc1.json":
        "60f921545343274f1175089e6efcb0b4751ddedbd0c2d1f9973a59a08c6c8884",
    "lang.json":
        "ac2dc74ceec454fc2a5420fb04299b232402909a6dc98be63030c1b39405bbde",
    "gmw-inverse.json":
        "ecd1eb11c6478f7450e36c60a5576f8576c2517e4b117d596121cee68f9f33c6",
    "gmw-square.json":
        "b903fe6081f2521c1a078b4db58da588e76c4e0ed6b26b3b7c9c7dadd8972a6a",
    "union.json":
        "70e2b3a074905bad5bf1815fdf17c84ae282ccc488d4f1a100967e48ac394475",
}

ALL_TRUE = ("additive: true\nmultiplicative: true\nquotient: true\n"
            "dual: true\n")
VERIFY_STDOUT = dict.fromkeys(SHA256, ALL_TRUE)
VERIFY_STDOUT["paley9.json"] = (
    "additive: true\n"
    "multiplicative: skipped (route needs odd l)\n"
    "quotient: skipped (X recovery needs odd l)\n"
    "dual: skipped (route needs odd l)\n")


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for argv in CONSTRUCT:
            assert main(["construct"] + [str(a) for a in argv]) == 0, argv
    return work


@pytest.mark.parametrize("name", sorted(SHA256))
def test_construct_output_bytes(built, name):
    digest = hashlib.sha256((built / name).read_bytes()).hexdigest()
    assert digest == SHA256[name]


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT))
def test_verify_all_stdout(built, name, monkeypatch, capsys):
    monkeypatch.chdir(built)
    assert main(["verify", name, "--method", "all"]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT[name]
