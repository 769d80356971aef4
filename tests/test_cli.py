"""End-to-end tests for the command-line interface.

Each test drives ``gtl.cli.main`` with an argv list and asserts on the exit
code and captured output, so the whole argument-parsing / dispatch / exit-code
contract is exercised without spawning subprocesses.
"""

from __future__ import annotations

import json

import pytest

from gtl import stmod
from gtl.cli import PIPELINES, main
from gtl.graded import algebra_from_json, algebra_to_json
from gtl.util import canonical_json


@pytest.fixture()
def t2_path(tmp_path, t2):
    path = tmp_path / "t2.json"
    path.write_text(algebra_to_json(t2), encoding="utf-8")
    return str(path)


@pytest.fixture()
def klein_path(tmp_path, klein_alg):
    path = tmp_path / "klein.json"
    path.write_text(canonical_json(klein_alg.to_json_dict()), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# analyze: happy paths
# ---------------------------------------------------------------------------


def test_analyze_validate_passes(t2_path, capsys):
    assert main(["analyze", t2_path]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out


def test_analyze_central_by_label_and_by_coordinates(t2_path, capsys):
    assert main(["analyze", t2_path, "--check", "central", "--r", "w1"]) == 0
    assert main(["analyze", t2_path, "--check", "central", "--r", "0:0"]) == 0


def test_analyze_nondegenerate(t2_path, capsys):
    assert main(["analyze", t2_path, "--check", "nondegenerate", "--n", "-1"]) == 0


def test_analyze_find_functional_reports_hit(t2_path, capsys):
    rc = main(["analyze", t2_path, "--check", "find-functional", "--n", "-1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "functional [1] found" in out


def test_analyze_find_functional_miss_is_a_failure(t2_path, capsys):
    rc = main(["analyze", t2_path, "--check", "find-functional", "--n", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "no functional found" in out


def test_analyze_depth2_full_verification(t2_path, capsys):
    rc = main([
        "analyze", t2_path, "--check", "depth2",
        "--r", "w1", "--rt", "w2", "--n", "-1", "--lam", "1",
    ])
    assert rc == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_analyze_tor_is_informational(t2_path, capsys):
    assert main(["analyze", t2_path, "--check", "tor", "--r", "w1"]) == 0
    out = capsys.readouterr().out
    assert "torsion part" in out


def test_analyze_ideal_json_is_deterministic(t2_path, capsys):
    argv = ["analyze", t2_path, "--check", "ideal", "--n", "-1", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "ideal"
    assert payload["subspace"]["dims"]["-1"] == 1
    assert payload["subspace"]["dims"]["2"] == 0


def test_analyze_json_report_shape(t2_path, capsys):
    assert main(["analyze", t2_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "validate"
    assert payload["report"]["passed"] is True


# ---------------------------------------------------------------------------
# analyze: failures and rejections
# ---------------------------------------------------------------------------


def test_analyze_failed_check_exits_one(t2_path, capsys):
    rc = main(["analyze", t2_path, "--check", "selfdual", "--n", "0", "--lam", "1"])
    assert rc == 1
    assert "RESULT: FAIL" in capsys.readouterr().out


def test_analyze_precondition_rejection_exits_three(t2_path, capsys):
    rc = main([
        "analyze", t2_path, "--check", "depth2",
        "--r", "w1", "--rt", "w1", "--n", "-1",
    ])
    assert rc == 3
    assert "precondition rejected" in capsys.readouterr().err


def test_analyze_missing_required_flag_exits_two(t2_path, capsys):
    rc = main(["analyze", t2_path, "--check", "nondegenerate"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_unknown_element_exits_two(t2_path, capsys):
    assert main(["analyze", t2_path, "--check", "central", "--r", "zzz"]) == 2
    assert main(["analyze", t2_path, "--check", "central", "--r", "9:0"]) == 2


def test_analyze_bad_functional_text_exits_two(t2_path, capsys):
    rc = main([
        "analyze", t2_path, "--check", "selfdual", "--n", "-1", "--lam", "one",
    ])
    assert rc == 2


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# tate
# ---------------------------------------------------------------------------


def test_tate_default_window_dims(klein_path, capsys):
    assert main(["tate", klein_path]) == 0
    out = capsys.readouterr().out
    assert "stable self-extension dimensions" in out
    assert "  -3: 3" in out
    assert "  0: 1" in out
    assert "  3: 4" in out
    assert "ring axioms: PASS" in out


def test_tate_emitted_ring_reingests_identically(klein_path, klein_alg, tmp_path, capsys):
    emitted = tmp_path / "ring.json"
    rc = main(["tate", klein_path, "--window", "-2", "2", "--emit", str(emitted)])
    assert rc == 0
    text = emitted.read_text(encoding="utf-8")
    ring = algebra_from_json(text)
    direct = stmod.tate_ring(klein_alg, stmod.trivial_module(klein_alg), (-2, 2))
    assert ring == direct
    # and the emitted file is itself analyzable
    assert main(["analyze", str(emitted)]) == 0
    assert main(["analyze", str(emitted), "--check", "nondegenerate", "--n", "-1"]) == 0


def test_tate_json_byte_identical_across_runs(klein_path, capsys):
    argv = ["tate", klein_path, "--window", "-2", "2", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["dims"] == {"-2": 2, "-1": 1, "0": 1, "1": 2, "2": 3}


def test_tate_bimodule_smoke(klein_path, capsys):
    rc = main(["tate", klein_path, "--module", "bimodule", "--window", "-1", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "  0: 4" in out


def test_tate_window_out_of_bounds_exits_two(klein_path, capsys):
    assert main(["tate", klein_path, "--window", "-40", "3"]) == 2
    assert main(["tate", klein_path, "--window", "1", "3"]) == 2


def test_tate_without_symmetrizing_form_exits_three(tmp_path, klein_alg, capsys):
    payload = klein_alg.to_json_dict()
    payload.pop("symmetrizing")
    path = tmp_path / "nosym.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    rc = main(["tate", str(path)])
    assert rc == 3
    assert "precondition rejected" in capsys.readouterr().err


def test_tate_rejects_radical_basis_key(tmp_path, klein_alg, capsys):
    payload = klein_alg.to_json_dict()
    payload["radical_basis"] = payload.pop("radical")
    path = tmp_path / "oldkey.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    assert main(["tate", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"radical"' in err
    assert "Traceback" not in err


def test_tate_accepts_shorthand_payload(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(
        json.dumps({"truncated_polynomial": {"exponents": [2], "field_char": 2}}),
        encoding="utf-8",
    )
    assert main(["tate", str(path), "--window", "-2", "2"]) == 0
    out = capsys.readouterr().out
    assert "  -2: 1" in out
    assert "  2: 1" in out


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_reproduce_pipelines_pass(name, capsys):
    assert main(["reproduce", name]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert "[FAIL]" not in out


def test_reproduce_unknown_name_exits_two(capsys):
    assert main(["reproduce", "does-not-exist"]) == 2
    assert "unknown computation" in capsys.readouterr().err


def test_reproduce_with_parameters(capsys):
    rc = main(["reproduce", "hh-truncated", "--exponents", "2,2", "--p", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "expected 4, got 4" in out


def test_reproduce_json_deterministic(capsys):
    argv = ["reproduce", "ci-ext-dims", "--count", "4", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert payload["steps"][0]["expected"] == [1, 2, 3, 4]
