import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from paleyschemes import schemes
from paleyschemes.cli import main
from paleyschemes.constructions import (adp_half_power_family,
                                        adp_power_family, cyclotomic_scheme,
                                        langevin_scheme, scheme_from_adp)
from paleyschemes.errors import (InternalInconsistencyError,
                                 VerificationFailedError)
from paleyschemes.graph6 import decode_graph6
from paleyschemes.schemes import SchemeRecord, certify
from paleyschemes.search import search_all_X


def run(*argv):
    return main([str(a) for a in argv])


def load(path):
    return json.loads(path.read_text())


def make_paley27(tmp_path, name="f27.json"):
    out = tmp_path / name
    assert run("construct", "paley", "--p", 3, "--m", 3, "--out", out) == 0
    return out


# -- construct -------------------------------------------------------------------


def test_construct_paley_writes_verified_record(tmp_path):
    out = make_paley27(tmp_path)
    data = load(out)
    rec = SchemeRecord.from_json(data)
    assert rec.D == tuple(range(0, 26, 2))
    assert rec.X == tuple(range(13))
    assert set(rec.verified_by) == {"additive", "multiplicative",
                                    "quotient", "dual"}
    assert "run" in data and len(data["run"]) == 64


def test_construct_paley_even_degree(tmp_path):
    out = tmp_path / "f9.json"
    assert run("construct", "paley", "--p", 3, "--m", 2, "--out", out) == 0
    rec = SchemeRecord.from_json(load(out))
    assert rec.D == (0, 2, 4, 6)
    assert rec.verified_by == frozenset({"additive"})


def test_construct_adp_families(tmp_path):
    out = tmp_path / "s4.json"
    assert run("construct", "adp", "--p", 3, "--l", 5, "--family", "power",
               "--r", 1, "--out", out) == 0
    want = scheme_from_adp(adp_power_family(3, 1, 5, 1))
    assert SchemeRecord.from_json(load(out)).D == want.D

    out2 = tmp_path / "s2.json"
    assert run("construct", "adp", "--p", 3, "--l", 5, "--family",
               "half-power", "--r", 1, "--out", out2) == 0
    want2 = scheme_from_adp(adp_half_power_family(5, 1))
    assert SchemeRecord.from_json(load(out2)).D == want2.D


def test_construct_cyclotomic(tmp_path):
    out = tmp_path / "cyc.json"
    assert run("construct", "cyclotomic", "--p", 11, "--l", 3, "--n", 7,
               "--X", "0", "--out", out) == 0
    want = cyclotomic_scheme(11, 1, 3, 7, (0,))
    assert SchemeRecord.from_json(load(out)).D == want.D


def test_construct_langevin(tmp_path):
    out = tmp_path / "lang.json"
    assert run("construct", "langevin", "--p", 3, "--p-prime", 11,
               "--out", out) == 0
    want = langevin_scheme(3, 11)
    assert len(want.records) == 1
    assert SchemeRecord.from_json(load(out)).D == want.record.D


def test_construct_union_of_covering_pair(tmp_path):
    full = make_paley27(tmp_path, "full.json")
    empty = tmp_path / "empty.json"
    assert run("construct", "cyclotomic", "--p", 3, "--l", 3, "--n", 1,
               "--X", "", "--out", empty) == 0
    assert SchemeRecord.from_json(load(empty)).D == tuple(range(1, 26, 2))
    out = tmp_path / "union.json"
    assert run("construct", "union", "--in", full, "--in", empty,
               "--out", out) == 0
    assert SchemeRecord.from_json(load(out)).D == tuple(range(0, 26, 2))


def test_construct_union_tower_mismatch(tmp_path):
    a = make_paley27(tmp_path, "a.json")
    b = tmp_path / "b.json"
    assert run("construct", "paley", "--p", 5, "--m", 3, "--out", b) == 0
    assert run("construct", "union", "--in", a, "--in", b,
               "--out", tmp_path / "u.json") == 1


def test_construct_usage_errors(tmp_path):
    assert run("construct", "adp", "--p", 3, "--l", 5) == 1  # no --r, no --out
    assert run("construct", "sideways") == 1
    assert run("construct", "gmw-lift", "--p", 3, "--t", 3, "--s", 3,
               "--X", "0,1,2", "--out", tmp_path / "x.json") == 1


# -- verify ----------------------------------------------------------------------


def test_verify_all_routes(tmp_path, capsys):
    out = make_paley27(tmp_path)
    assert run("verify", out, "--method", "all") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(lines) == ["additive: true", "dual: true",
                             "multiplicative: true", "quotient: true"]


def test_verify_tampered_record_fails(tmp_path, capsys):
    out = make_paley27(tmp_path)
    data = load(out)
    data["D"] = [1] + data["D"][1:]  # flip one exponent, keep it sorted
    data["verified_by"] = []
    data.pop("X")
    (tmp_path / "bad.json").write_text(json.dumps(data))
    assert run("verify", tmp_path / "bad.json", "--method", "additive") == 2
    assert "additive: false" in capsys.readouterr().out


def test_route_disagreement_is_an_internal_error(tmp_path, monkeypatch):
    out = make_paley27(tmp_path)
    rec = SchemeRecord.from_json(load(out))
    monkeypatch.setattr(schemes, "verify_dual", lambda rec: False)
    with pytest.raises(InternalInconsistencyError):
        certify(rec, "all", strict=False)
    assert run("verify", out, "--method", "all") == 2


@pytest.mark.parametrize("claim", ["additive", "quotient"])
def test_stamps_on_disk_are_re_earned(tmp_path, claim):
    out = make_paley27(tmp_path)
    data = load(out)
    data["D"] = [1] + data["D"][1:]  # flip one exponent, keep it sorted
    data["verified_by"] = [claim]  # X stays as written for the old D
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(VerificationFailedError):
        SchemeRecord.from_json(data)
    assert run("classify", "--in", bad) == 2


def test_verify_refuses_bad_tower_fields(tmp_path, capsys):
    data = load(make_paley27(tmp_path))
    del data["X"]
    bad = tmp_path / "bad.json"
    for field, D in (({"e": -1, "l": -3}, data["D"]),
                     ({}, [0.5] + data["D"][1:])):
        bad.write_text(json.dumps(
            dict(data, field=dict(data["field"], **field), D=D)))
        assert run("verify", bad, "--method", "additive") == 1
        assert "error:" in capsys.readouterr().err


def test_stored_X_that_D_does_not_give_is_refused(tmp_path, capsys):
    data = load(make_paley27(tmp_path))
    data["X"] = [0, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run("verify", bad, "--method", "all") == 1
    assert run("classify", "--in", bad) == 1
    assert "parity rule" in capsys.readouterr().err


def test_verify_inapplicable_method(tmp_path, capsys):
    out = tmp_path / "f9.json"
    run("construct", "paley", "--p", 3, "--m", 2, "--out", out)
    assert run("verify", out, "--method", "quotient") == 1
    assert "not applicable" in capsys.readouterr().out
    assert run("verify", out, "--method", "all") == 0
    report = capsys.readouterr().out
    assert "additive: true" in report and "skipped" in report


def test_verify_missing_file(tmp_path):
    assert run("verify", tmp_path / "nope.json") == 1


# -- search ----------------------------------------------------------------------


def test_search_all_via_cli(tmp_path):
    out = tmp_path / "census.json"
    assert run("search", "all", "--p", 3, "--degree", 3, "--out", out) == 0
    data = load(out)
    assert data["kind"] == "all_X"
    assert len(data["found"]) == 288
    assert data["found"] == [list(x) for x in search_all_X(3, 1, 3).found]


def test_search_galois_checkpointed_and_deterministic(tmp_path):
    out1 = tmp_path / "a" / "res.json"
    out1.parent.mkdir()
    assert run("search", "galois", "--p", 5, "--degree", 3,
               "--checkpoint", tmp_path / "ck",
               "--out", out1) == 0
    out2 = tmp_path / "b" / "res.json"
    out2.parent.mkdir()
    assert run("search", "galois", "--p", 5, "--degree", 3,
               "--checkpoint", tmp_path / "ck",
               "--out", out2) == 0
    assert len(load(out1)["found"]) == 96
    assert load(out1)["found"] == load(out2)["found"]
    assert sorted(p.name for p in (tmp_path / "ck").glob("*.jsonl")) == \
        ["search.jsonl"]
    assert run("search", "galois", "--p", 5, "--degree", 3,
               "--shards", 2) == 1


def test_search_galois_refuses_a_malformed_checkpoint(tmp_path, capsys):
    ck = tmp_path / "ck"
    assert run("search", "galois", "--p", 5, "--degree", 3,
               "--checkpoint", ck, "--out", tmp_path / "res.json") == 0
    path = ck / "search.jsonl"
    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    records[0]["found"].append(["a"])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert run("search", "galois", "--p", 5, "--degree", 3,
               "--checkpoint", ck, "--out", tmp_path / "again.json") == 1
    assert "checkpoint hit" in capsys.readouterr().err


def test_search_cyclotomic_via_cli(tmp_path):
    out = tmp_path / "unions.json"
    assert run("search", "cyclotomic", "--p", 7, "--m", 2, "--classes", 4,
               "--out", out) == 0
    data = load(out)
    assert len(data["found"]) == 6
    assert data["complete"] is False and "note" in data


def test_search_budget_exit_code():
    assert run("search", "all", "--p", 5, "--degree", 3) == 3
    assert run("search", "galois", "--p", 3, "--degree", 7) == 3


def test_search_max_orbits_flag(tmp_path):
    out = tmp_path / "r.json"
    assert run("search", "galois", "--p", 5, "--degree", 3,
               "--max-orbits", 10, "--out", out) == 3
    assert run("search", "galois", "--p", 5, "--degree", 3,
               "--max-orbits", 11, "--out", out) == 0


def test_verify_rejects_field_past_the_cap(tmp_path, capsys):
    data = load(make_paley27(tmp_path))
    data["field"]["l"] = 16
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify", bad) == 1
    assert "exceeds the cap" in capsys.readouterr().err


def test_environment_does_not_configure_a_run(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    path = make_paley27(tmp_path)
    capsys.readouterr()

    def outputs():
        assert run("search", "galois", "--p", 5, "--degree", 3,
                   "--out", out) == 0
        assert run("verify", path) == 0
        return out.read_bytes(), capsys.readouterr().out

    clean = outputs()
    for name in ("PALEY_MAX_V", "PALEY_MAX_ORBITS", "PALEY_MAX_CLASSES",
                 "PALEY_CLASSIFY_BUDGET", "PALEY_MAX_FIELD_ORDER"):
        monkeypatch.setenv(name, "abc")
    assert outputs() == clean


# -- classify and export -----------------------------------------------------------


def test_classify_report_and_classes(tmp_path, capsys):
    run("construct", "paley", "--p", 3, "--m", 2, "--out", tmp_path / "f9.json")
    run("construct", "paley", "--p", 13, "--m", 1, "--out", tmp_path / "f13.json")
    out = tmp_path / "report.json"
    assert run("classify", "--in", tmp_path, "--aut", "--out", out) == 0
    report = load(out)
    by_file = {e["file"]: e for e in report["entries"]}
    assert by_file["f9.json"]["aut_order"] == 72
    assert by_file["f13.json"]["aut_order"] == 78
    assert by_file["f9.json"]["params"] == [9, 4, 1, 2]
    assert len(by_file["f9.json"]["semilinear_hash"]) == 64
    assert report["classes"] == [["f13.json"], ["f9.json"]] or \
        report["classes"] == [["f9.json"], ["f13.json"]]


def test_classify_without_aut_is_cheap(tmp_path):
    run("construct", "paley", "--p", 3, "--m", 2, "--out", tmp_path / "f9.json")
    out = tmp_path / "report.json"
    assert run("classify", "--in", tmp_path / "f9.json", "--out", out) == 0
    report = load(out)
    assert "classes" not in report
    assert "aut_order" not in report["entries"][0]
    assert "fingerprint" in report["entries"][0]


def test_classify_directory_skips_foreign_json(tmp_path):
    run("construct", "paley", "--p", 3, "--m", 2, "--out", tmp_path / "f9.json")
    run("search", "all", "--p", 3, "--degree", 3,
        "--out", tmp_path / "census.json")
    out = tmp_path / "report.json"
    assert run("classify", "--in", tmp_path, "--out", out) == 0
    assert [e["file"] for e in load(out)["entries"]] == ["f9.json"]


def test_non_scheme_files_are_refused_by_name(tmp_path, capsys):
    hits = tmp_path / "hits.json"
    run("search", "galois", "--p", 5, "--degree", 3, "--out", hits)
    for argv in (("classify", "--in", hits, "--aut"), ("verify", hits),
                 ("export", "--graph6", hits)):
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "hits.json is not a scheme file" in err
        assert "KeyError" not in err


def test_classify_budget_exit_code(tmp_path, capsys):
    # the seeded search of the 27-point Paley design visits 8 nodes
    run("construct", "paley", "--p", 3, "--m", 3, "--out", tmp_path / "f.json")
    assert run("classify", "--in", tmp_path / "f.json", "--aut",
               "--budget", 3) == 3
    capsys.readouterr()
    assert run("classify", "--in", tmp_path / "f.json", "--aut",
               "--budget", 0) == 1
    assert "error:" in capsys.readouterr().err


def test_export_graph6_round_trip(tmp_path):
    run("construct", "paley", "--p", 3, "--m", 2, "--out", tmp_path / "f9.json")
    out = tmp_path / "f9.g6"
    assert run("export", "--graph6", tmp_path / "f9.json", "--out", out) == 0
    adj = decode_graph6(out.read_text().strip())
    assert adj.shape == (9, 9)
    assert np.all(adj.sum(axis=1) == 4)


def test_export_design_json(tmp_path):
    out27 = make_paley27(tmp_path)
    out = tmp_path / "design.json"
    assert run("export", "--design-json", out27, "--out", out) == 0
    data = load(out)
    assert data["points"] == 27
    assert data["params"] == [27, 13, 6]
    assert len(data["blocks"]) == 27
    assert all(len(b) == 13 for b in data["blocks"])


def test_export_kind_mismatches(tmp_path):
    out27 = make_paley27(tmp_path)
    run("construct", "paley", "--p", 3, "--m", 2, "--out", tmp_path / "f9.json")
    assert run("export", "--graph6", out27,
               "--out", tmp_path / "x.g6") == 1
    assert run("export", "--design-json", tmp_path / "f9.json",
               "--out", tmp_path / "x.json") == 1


# -- manifests and determinism -------------------------------------------------------


def test_manifest_written_beside_output(tmp_path):
    out = make_paley27(tmp_path)
    manifest = load(tmp_path / "f27.json.manifest.json")
    assert manifest["command"][:2] == ["construct", "paley"]
    assert manifest["run"] == load(out)["run"]
    assert manifest["outputs"] == [str(out)]
    assert manifest["digests"].keys() == {"f27.json"}
    assert manifest["fields"] == [{"p": 3, "e": 1, "l": 3,
                                   "modulus": [1, 2, 0, 1]}]
    assert "wall_time_s" in manifest


def test_repeated_runs_are_byte_identical(tmp_path):
    out = make_paley27(tmp_path)
    first = out.read_bytes()
    first_manifest = load(tmp_path / "f27.json.manifest.json")
    out.unlink()
    make_paley27(tmp_path)
    assert out.read_bytes() == first
    second_manifest = load(tmp_path / "f27.json.manifest.json")
    first_manifest.pop("wall_time_s")
    second_manifest.pop("wall_time_s")
    assert first_manifest == second_manifest


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Quick start, command line", 1)[1]
    block = block.split("```", 2)[1]
    return [ln for ln in block.splitlines() if ln.startswith("paley ")]


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch):
    lines = readme_cli_lines()
    assert len(lines) >= 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_version_and_usage():
    assert run("--version") == 0
    assert run() == 1
    assert run("bogus") == 1
