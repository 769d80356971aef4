"""End-to-end tests for the command-line interface.

Each test drives ``gtl.cli.main`` with an argv list and asserts on the exit
code and captured output, so the whole argument-parsing / dispatch / exit-code
contract is exercised without spawning subprocesses.  Two exceptions run a
child process: the input size caps run under a memory limit, so that a missing
cap fails cleanly instead of exhausting memory, and the module entry point
``python -m gtl.cli`` is checked against ``main`` once per command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtl
from gtl import graded, stmod
from gtl.cli import PIPELINES, main
from gtl.gallery import build_laurent, build_trivial_extension, build_truncated_ci, expected_ext_dim_ci
from gtl.graded import WindowedGradedAlgebra, algebra_from_json, algebra_to_json
from gtl.util import canonical_json

from test_duality import one_sided_ring
from test_graded import TABLE_EDIT_CHARS, edited_text, quantum_plane, w_cubed
from test_stmod import elementary_abelian_group_algebra


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


@pytest.mark.parametrize("samples", ["0", "-3", "1000001"])
def test_analyze_find_functional_samples_out_of_range_exits_two(t2_path, samples, capsys):
    rc = main(["analyze", t2_path, "--check", "find-functional", "--n", "-1", f"--samples={samples}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"input error: --samples {samples} must lie in [1, 1000000]\n"


def test_analyze_periodicity_of_a_negative_degree_element(tmp_path, capsys):
    path = tmp_path / "laurent.json"
    path.write_text(algebra_to_json(build_laurent(3, (-4, 4))), encoding="utf-8")
    rc = main(["analyze", str(path), "--check", "periodicity", "--r=w^-1"])
    assert rc == 0
    assert "RESULT: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--check", "periodicity", "--r", "-1:0"],
    ["--check", "periodicity", "--r=-1:0"],
    ["--check", "regseq2", "--r", "w^1", "--rt", "-1:0"],
])
def test_analyze_takes_a_negative_degree_index_after_a_space(tmp_path, capsys, flags):
    # argparse alone reads "-1:0" as an option and exits 2 through SystemExit
    path = tmp_path / "laurent.json"
    path.write_text(algebra_to_json(build_laurent(3, (-4, 4))), encoding="utf-8")
    rc = main(["analyze", str(path), *flags])
    out, err = capsys.readouterr()
    if "--rt" in flags:  # regseq2 read --rt as the degree -1 element, and rejects it
        assert (rc, err) == (2, "input error: regular sequence elements must have positive degree\n")
    else:
        assert rc == 0
        assert "RESULT: PASS" in out


@pytest.mark.parametrize("argv", [
    ["reproduce", "klein-four", "--json"],
    ["analyze", "RING", "--check", "central", "--r", "-1:0", "--json"],
], ids=["reproduce", "analyze"])
def test_module_entry_point_matches_main(tmp_path, capsys, argv):
    # main(argv=None) reads sys.argv, and joins "--r -1:0" there as well
    ring = tmp_path / "laurent.json"
    ring.write_text(algebra_to_json(build_laurent(3, (-4, 4))), encoding="utf-8")
    argv = [str(ring) if arg == "RING" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(gtl.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-m", "gtl.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    rc = main(argv)
    assert rc == 0
    assert (child.returncode, child.stdout) == (rc, capsys.readouterr().out)


def relabelled_laurent_path(tmp_path, renamed: dict) -> str:
    """The Laurent ring k[w, 1/w] over F_3 on [-4, 4], its degree d element
    labeled ``renamed[d]`` where given."""
    ring = build_laurent(3, (-4, 4))
    labels = {d: [renamed.get(d, names[0])] for d, names in ring.labels.items()}
    relabelled = WindowedGradedAlgebra(ring.field, ring.window, ring.dims, ring.mult, ring.unit, labels)
    path = tmp_path / "laurent.json"
    path.write_text(algebra_to_json(relabelled), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("check", ["periodicity", "regularity"])
def test_analyze_refuses_a_repeated_label(tmp_path, capsys, check):
    # "a" labels both w^-2 and w^1; the ring still loads, and an unambiguous spec still works
    path = relabelled_laurent_path(tmp_path, {-2: "a", 1: "a"})
    assert main(["analyze", path, "--check", check, "--r", "a"]) == 2
    assert capsys.readouterr().err == "input error: 'a' names 2 basis elements, at -2:0, 1:0\n"
    assert main(["analyze", path, "--check", "periodicity", "--r", "1:0"]) == 0
    with pytest.raises(ValueError, match="'a' names 2 basis elements, at -2:0, 1:0"):
        algebra_from_json(Path(path).read_text(encoding="utf-8")).element_by_label("a")


def test_analyze_refuses_a_label_that_spells_another_position(tmp_path, capsys):
    path = relabelled_laurent_path(tmp_path, {2: "1:0"})  # w^2 labeled as if it stood at degree 1
    assert main(["analyze", path, "--check", "periodicity", "--r", "1:0"]) == 2
    assert capsys.readouterr().err == "input error: '1:0' names 2 basis elements, at 2:0, 1:0\n"
    # a label that spells its own position, or a position past the window, names one element
    path = relabelled_laurent_path(tmp_path, {1: "1:0", 2: "9:0"})
    assert main(["analyze", path, "--check", "periodicity", "--r", "1:0"]) == 0
    assert main(["analyze", path, "--check", "periodicity", "--r", "9:0"]) == 0


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


def test_analyze_depth2_rejects_degenerate_products(t2_path, capsys):
    # (w1, w2) is a regular sequence; the products into degrees 0 and -2 are degenerate
    for n, degree in ((0, -3), (-2, -1)):
        rc = main(["analyze", t2_path, "--check", "depth2", "--r", "w1", "--rt", "w2", "--n", str(n)])
        assert rc == 3
        assert f"products into degree {n} are degenerate at degree {degree}" in capsys.readouterr().err


def test_analyze_depth2_rejects_a_unit_pair_on_the_laurent_line(tmp_path, capsys):
    # w is invertible, but w does not act regularly on k[w]/(w)
    path = tmp_path / "laurent.json"
    path.write_text(algebra_to_json(build_laurent(5, (-3, 3))), encoding="utf-8")
    rc = main(["analyze", str(path), "--check", "depth2", "--r", "w^1", "--rt", "w^1", "--n", "0"])
    assert rc == 3
    assert "precondition rejected" in capsys.readouterr().err


def test_analyze_missing_required_flag_exits_two(t2_path, capsys):
    rc = main(["analyze", t2_path, "--check", "nondegenerate"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_unknown_element_exits_two(t2_path, capsys):
    assert main(["analyze", t2_path, "--check", "central", "--r", "zzz"]) == 2
    assert main(["analyze", t2_path, "--check", "central", "--r", "9:0"]) == 2


def test_analyze_tor_of_a_degree_zero_element_exits_two(t2_path, capsys):
    assert main(["analyze", t2_path, "--check", "tor", "--r", "0:0"]) == 2
    assert capsys.readouterr().err == "input error: tor_part needs a positive-degree element, got degree 0\n"


def test_analyze_bad_functional_text_exits_two(t2_path, capsys):
    rc = main([
        "analyze", t2_path, "--check", "selfdual", "--n", "-1", "--lam", "one",
    ])
    assert rc == 2


@pytest.mark.parametrize("key", ["labels", "dims"])
def test_analyze_refuses_two_keys_for_one_degree(tmp_path, capsys, key):
    # "0" and "00" both name degree 0; the last one used to win silently
    ring = {"field_char": 2, "window": [0, 0], "dims": {"0": 1}, "unit": [1], "mult": []}
    ring[key] = {"labels": {"0": ["a"], "00": ["b"]}, "dims": {"0": 1, "00": 2}}[key]
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring), encoding="utf-8")
    assert main(["analyze", str(path), "--check", "validate"]) == 2
    assert capsys.readouterr().err == f"input error: {key}: keys '0' and '00' both name degree 0\n"


@pytest.mark.parametrize("command, old, new, key", [
    # json.loads alone would read the first ring over F3, and give degree 0 of the second dimension 2
    ("analyze", '"field_char":2', '"field_char":2,"field_char":3', "field_char"),
    ("analyze", '"dims":{', '"dims":{"0":1,"0":2,', "0"),
    ("tate", '"dim":4', '"dim":4,"dim":4', "dim"),
], ids=["analyze-field_char", "analyze-dims", "tate-dim"])
def test_a_key_named_twice_in_one_object_exits_two(tmp_path, t2, klein_alg, command, old, new, key, capsys):
    text = algebra_to_json(t2) if command == "analyze" else canonical_json(klein_alg.to_json_dict())
    path = tmp_path / "twice.json"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: key '{key}' appears twice in one object\n"


@pytest.mark.parametrize("flags", [
    ["--check", "selfdual"],
    ["--check", "orthogonality", "--r", "w1"],
    ["--check", "depth2", "--r", "w1", "--rt", "w2"],
], ids=["selfdual", "orthogonality", "depth2"])
def test_analyze_functional_beyond_int64_exits_two(t2_path, capsys, flags):
    rc = main(["analyze", t2_path, *flags, "--n", "-1", "--lam", "99999999999999999999999"])
    assert rc == 2
    assert "input error: malformed functional" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2


def _write_ring_payload(tmp_path, t2, edit) -> str:
    payload = json.loads(algebra_to_json(t2))
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_analyze_labels_given_as_a_list_exits_two(tmp_path, t2, capsys):
    path = _write_ring_payload(tmp_path, t2, lambda d: d.update(labels=["w1", "w2"]))
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "labels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["dims"].update({"9": 1}), "dims entry for degree 9 outside window"),
    (lambda d: d["dims"].update({"1": -1}), "negative dimension at degree 1"),
    (lambda d: d.update(unit=[1, 0]), "unit must have dims(0)=1 coefficients"),
    (lambda d: d["mult"].append({"i": 3, "j": 1, "table": [[[0]]]}), "mult block (3, 1) has degrees outside window"),
    (lambda d: d["labels"].update({"9": []}), "labels for degree 9 outside window"),
    (lambda d: d.update(window=[-4, 3, 5]), "window must be a two-element list"),
    (lambda d: d.update(field_char=[2]), "malformed field_char: expected 0 nested levels, got 1"),
], ids=["dims-entry", "negative-dim", "unit-length", "mult-block", "labels-degree", "window-length", "field-char-list"])
def test_analyze_ring_file_checks_exit_two_with_one_line(tmp_path, t2, edit, message, capsys):
    path = _write_ring_payload(tmp_path, t2, edit)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert message in err


_UNDER_MEMORY_LIMIT = """
import resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 2**31 if hard == resource.RLIM_INFINITY else min(hard, 2**31)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from gtl.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_under_memory_limit(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``gtl *argv`` in a child process whose address space is capped at 2 GiB."""
    env = dict(os.environ, PYTHONPATH=str(Path(gtl.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", _UNDER_MEMORY_LIMIT, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"dims": {"0": 1, "1": 10**8}}, "degree 1 has dimension 100000000"),
        ({"window": [-(10**8), 10**8]}, "stay within [-32, 32]"),
    ],
)
def test_analyze_size_caps_exit_two_under_a_memory_limit(tmp_path, edit, message):
    payload = {"field_char": 2, "window": [0, 1], "dims": {"0": 1}, "unit": [1], "mult": [], **edit}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = _run_under_memory_limit("analyze", str(path), "--check", "validate")
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "exponents, extra, message",
    [
        ([100000, 100000], [], "truncated polynomial algebra has dimension 10000000000, above the cap of 128"),
        ([30], ["--module", "bimodule"], "enveloping algebra has dimension 900, above the cap of 128"),
    ],
)
def test_tate_size_caps_exit_two_under_a_memory_limit(tmp_path, exponents, extra, message):
    payload = {"truncated_polynomial": {"exponents": exponents, "field_char": 2}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = _run_under_memory_limit("tate", str(path), "--window", "-1", "1", *extra)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tate_ring_of_three_variables_on_a_wide_window_under_a_memory_limit(tmp_path):
    # cost guard: (2,2,2) over F2 on [-8, 8] solves its mixed-sign products at
    # the home shift of their degree, through cosyzygies; solved at the top of
    # the tower it ran out of a 2 GiB address space
    path = tmp_path / "ci.json"
    path.write_text(json.dumps({"truncated_polynomial": {"exponents": [2, 2, 2], "field_char": 2}}), encoding="utf-8")
    proc = _run_under_memory_limit("tate", str(path), "--window", "-8", "8", "--json")
    assert proc.returncode == 0, proc.stderr
    dims = {int(d): n for d, n in json.loads(proc.stdout)["dims"].items()}
    # Tate duality: degree -1-n has the dimension of degree n
    assert dims == {d: expected_ext_dim_ci(3, d if d >= 0 else -1 - d) for d in range(-8, 9)}


def test_memory_error_exits_two_with_one_line(tmp_path, klein_alg, monkeypatch, capsys):
    def exhausted(module, window):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(stmod, "tate_ring", exhausted)
    path = tmp_path / "klein.json"
    path.write_text(canonical_json(klein_alg.to_json_dict()), encoding="utf-8")
    assert main(["tate", str(path), "--window", "-1", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: out of memory (Unable to allocate 1.00 TiB")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_analyze_validates_a_128_dimensional_ring_under_a_memory_limit(tmp_path):
    # F2[C2^7] in the group basis as a one-degree ring: a 4.2 MB file with no
    # zero product, which validate certifies in bounded memory
    alg = elementary_abelian_group_algebra(7)
    payload = {"field_char": 2, "window": [0, 0], "dims": {"0": alg.dim}, "unit": alg.unit.tolist(),
               "mult": [{"i": 0, "j": 0, "table": alg.mult.tolist()}]}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    proc = _run_under_memory_limit("analyze", str(path), "--check", "validate")
    assert proc.returncode == 0, proc.stderr


_DEEP_ARRAY = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "argv, text",
    [
        (["analyze"], _DEEP_ARRAY),
        (["analyze"], '{"field_char":2,"window":[0,0],"dims":{"0":1},"unit":[1],'
                      '"mult":[{"i":0,"j":0,"table":' + _DEEP_ARRAY + "}]}"),
        (["tate", "--window", "-1", "1"], _DEEP_ARRAY),
    ],
    ids=["analyze", "analyze-table", "tate"],
)
def test_deeply_nested_json_exits_two_within_seconds(tmp_path, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    proc = _run_under_memory_limit(argv[0], str(path), *argv[1:], timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "invalid JSON: maximum recursion depth exceeded" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "tate"])
def test_integers_past_the_digit_limit_are_invalid_json(tmp_path, t2, klein_alg, command, capsys):
    text = algebra_to_json(t2) if command == "analyze" else canonical_json(klein_alg.to_json_dict())
    path = tmp_path / "long.json"
    path.write_text(text.replace('"unit":[1', '"unit":[' + "1" * 5000, 1), encoding="utf-8")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion" in err
    assert "set_int_max_str_digits" not in err


def test_analyze_integer_beyond_int64_exits_two(tmp_path, t2, capsys):
    def enlarge(payload):
        payload["mult"][0]["table"][0][0][0] = 2**70

    path = _write_ring_payload(tmp_path, t2, enlarge)
    assert main(["analyze", path]) == 2
    assert "malformed mult entry" in capsys.readouterr().err


# sha256 of `gtl analyze --json` output followed by the text output, per ring
# and check, with the exit code.  Recorded before the per-degree reports moved
# onto CertifiedReport.sweep.  Two checks were re-recorded on purpose:
# `regularity`, whose report gained the clauses `kernels` and `central`, and
# `nondegenerate`, whose text prints one verdict per degree ("-3: PASS", not
# "-3: left PASS / right PASS") since its report became a CertifiedReport.
# The nondegenerate JSON did not move: PINNED_NONDEGENERATE_JSON pins it alone.
# Both rings search every functional at the pinned degree, so --seed and
# --samples (given here at their defaults) leave the output as it is.
ANALYZE_FLAGS = {
    "t2": {"r": "w1", "rt": "w2", "n": "-1", "lam": "1", "seed": "0", "samples": "200"},
    "quantum-plane": {"r": "x", "rt": "y", "n": "2", "lam": "1,0,1", "seed": "0", "samples": "200"},
}
# The options each check reads, written out here as the oracle of the option
# contract; OPTIONAL_FLAGS names those a check reads with a default.
CHECK_FLAGS = {
    "validate": (), "central": ("r",), "nondegenerate": ("n",), "selfdual": ("n", "lam"),
    "find-functional": ("n", "seed", "samples"), "regularity": ("r",), "tor": ("r",), "ideal": ("n",),
    "periodicity": ("r",), "depth1": ("r", "n"), "orthogonality": ("r", "n", "lam"),
    "regseq2": ("r", "rt"), "depth2": ("r", "rt", "n", "lam"),
}
OPTIONAL_FLAGS = {"find-functional": ("seed", "samples"), "depth2": ("lam",)}
ANALYZE_OPTIONS = ("n", "r", "rt", "lam", "seed", "samples")
PINNED_ANALYZE_OUTPUT = [
    ("t2", "validate", 0, "bf310f9d9d647d2100333e227df37bcd456c8a9445ce48c9a1102231c6428d2d"),
    ("t2", "central", 0, "e6b87a144280489d0926ac1fa0367256973a7eebc578c083cd8b835bfdd76f4d"),
    ("t2", "nondegenerate", 0, "8cf82eb3f8698db7ec7a03a6014a9776ff05853457d2dd6c43ad4a08d198e7e1"),
    ("t2", "selfdual", 0, "7762e7ca798ec95ddc1690429c342ad42b539a5d9d912a0ec9fe546487ac15b2"),
    ("t2", "find-functional", 0, "29bcb22bca4cc88e4e92d508394b38215b8b58c4ddc0faa7ed58ddc3d49d113b"),
    ("t2", "regularity", 0, "d7efb56a986ab3753b759b108f9c0f846bfe62eb7b8f6b759233ac92f5b1ba7e"),
    ("t2", "tor", 0, "f8eff7541ce85bfc1c378cad5b9d6347cf3df55b1ee2780c104e1be7b3f98058"),
    ("t2", "ideal", 0, "b0fec60a13e34c0b91ec6b1c52348fa2b6bcf2f5d52fb336e865f996bd5bd750"),
    ("t2", "periodicity", 1, "930a621cf55579878914d84d9e30ac409f37ddb8c5a7cc209c0c7a2c7323c3fa"),
    ("t2", "depth1", 0, "4d45c20f65810936254394f8bf19e5d3503b8d7d0780f3268e53b14066018566"),
    ("t2", "orthogonality", 0, "ed91e51e91540afe933f2fc7724bb73a6afb9356097cc1c5fc9994eb628012d0"),
    ("t2", "regseq2", 0, "298fb16ffd82f70ed7be0a077d0d6ed3c8d35351ed35f4a5b61e8c23a9ff687b"),
    ("t2", "depth2", 0, "b8004ac837cf78b88ea11fca106461b610745146e9285e675cd7649434303e54"),
    ("quantum-plane", "validate", 0, "83f73cf89df4bafb0c79d732dd63a57ef94037b3eafc3f81654bc6bfb068bab2"),
    ("quantum-plane", "central", 1, "d352d27685557703ad28b4b95cb21ce827041efbfc1645fb1722c5202b9141ae"),
    ("quantum-plane", "nondegenerate", 0, "77f657633cc2e6e74b2353650b01cd53e60d86bd4a0b2483342c17d596ec779a"),
    ("quantum-plane", "selfdual", 1, "1899a599574361b2815aec9cc971cf5daafe7aed8f9e4e9850c54613116aa53f"),
    ("quantum-plane", "find-functional", 1, "63bb59206166c20b9e77a645f7201067a73af7b671ac4f65ac507c7da182bf0a"),
    ("quantum-plane", "regularity", 1, "21f3c7ac3e3c2142b85d857d004a2da9a99e1f731b1dc0a5612bf358c75055fd"),
    ("quantum-plane", "tor", 0, "5fba455992079ec36defe5d94b45ed362140957fc3d57de13e16dd0e6b72bf28"),
    ("quantum-plane", "ideal", 0, "00e7d474b9fa6e37c4de872bd1c57409f59989f5b6f34dec8b620d6060252060"),
    ("quantum-plane", "periodicity", 1, "2d499b7b10417aa28efbb02557221da00fe6af0fa3c6ae0e04ba2b36b7dedbb8"),
    ("quantum-plane", "depth1", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("quantum-plane", "orthogonality", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("quantum-plane", "regseq2", 1, "8993ab38592a67b986be5498d021480649ebd40625c67c20e9b041fb27968548"),
    ("quantum-plane", "depth2", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("ring, check, code, digest", PINNED_ANALYZE_OUTPUT)
def test_analyze_output_bytes_are_pinned(ring, check, code, digest, tmp_path, t2, capsys):
    alg = t2 if ring == "t2" else quantum_plane(2, 5)
    path = tmp_path / f"{ring}.json"
    path.write_text(algebra_to_json(alg), encoding="utf-8")
    argv = ["analyze", str(path), "--check", check]
    for flag in CHECK_FLAGS[check]:
        argv += [f"--{flag}", ANALYZE_FLAGS[ring][flag]]
    assert main(argv + ["--json"]) == code
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The same digests for k[w]/(w^3), |w| = 2, on [-1, 4] (test_graded.w_cubed):
# the only ring here with zero-dimensional degrees, where tor_part's "zero
# degree" walk and is_regular_sequence2's empty-degree PASS run.
PINNED_ZERO_DEGREE_OUTPUT = [
    (("validate",), 0, "286c5b0395f9055006e9420af5d143503cbd10e55c29d87a846e19ce8fd5d3fc"),
    (("tor", "--r", "w"), 0, "affe9efb8926139947573f365b6894d158ed87be8ad62bfc848fcdfb90464925"),
    (("regularity", "--r", "w"), 0, "252cfe3ac803f22b400136db1fbf00fa7fa4bc565f6f56ae654cd602dbb8e039"),
    (("central", "--r", "w"), 0, "abc639dd0c5b39a274ef8408ad63ce66c2704d765dc69eee803cc3642b472ce6"),
    (("ideal", "--n", "0"), 0, "8bab9dc23ee566d8171ca7ac67fc8143ab7113cee19d41162e88ff063377af56"),
    (("periodicity", "--r", "w"), 0, "2ca4cd63a038a504191da6c868c60f608c0209103ff956d73f02b7f2c71b211e"),
    (("depth1", "--r", "w", "--n", "0"), 0, "de8f4e6a3f6b5f3fee4f5ab6ab26b6c1c7b89a46349a835a374fa52656a522ff"),
    (("regseq2", "--r", "w", "--rt", "w"), 1, "8770421a378ec25a4a7edca376f83815898301b77cf833e0ecfc7cdfaf11b27d"),
]


# sha256 of `gtl analyze --json --check nondegenerate` alone, per ring and
# pairing degree, with the exit code.  one_sided_ring fails on both sides.
PINNED_NONDEGENERATE_JSON = [
    ("t2", "-1", 0, "7d9a32e477e7f3ecd5011cc09aa534d5263164b73e18e4c5ff1d5d158887ba1f"),
    ("quantum-plane", "2", 0, "e4d3032a4757d48418dcd02783bd3a0bb9917f06718a4c7d664fcb4a910f89e6"),
    ("one-sided", "3", 1, "3b945dafd7e034224217ec92ab448e40f7b651e5952e31b9a42c2ed4b060dd56"),
]


@pytest.mark.parametrize("ring, n, code, digest", PINNED_NONDEGENERATE_JSON)
def test_nondegenerate_json_bytes_are_pinned(ring, n, code, digest, tmp_path, t2, capsys):
    alg = {"t2": t2, "quantum-plane": quantum_plane(2, 5), "one-sided": one_sided_ring()}[ring]
    path = tmp_path / f"{ring}.json"
    path.write_text(algebra_to_json(alg), encoding="utf-8")
    assert main(["analyze", str(path), "--check", "nondegenerate", "--n", n, "--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("check, code, digest", PINNED_ZERO_DEGREE_OUTPUT)
def test_analyze_output_bytes_are_pinned_on_zero_dimensional_degrees(check, code, digest, tmp_path, capsys):
    path = tmp_path / "w_cubed.json"
    path.write_text(algebra_to_json(w_cubed()), encoding="utf-8")
    argv = ["analyze", str(path), "--check", *check]
    assert main(argv + ["--json"]) == code
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _required(check: str) -> list[str]:
    return [flag for flag in CHECK_FLAGS[check] if flag not in OPTIONAL_FLAGS.get(check, ())]


def _t2_argv(path: str, check: str, flags) -> list[str]:
    argv = ["analyze", path, "--check", check]
    for flag in flags:
        argv += [f"--{flag}", ANALYZE_FLAGS["t2"][flag]]
    return argv


@pytest.mark.parametrize("check, flag", [
    (check, flag) for check in CHECK_FLAGS for flag in ANALYZE_OPTIONS if flag not in CHECK_FLAGS[check]
])
def test_analyze_option_the_check_does_not_read_exits_two(check, flag, t2_path, capsys):
    assert main(_t2_argv(t2_path, check, [*_required(check), flag])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: analyze --check {check} does not read --{flag}\n"


@pytest.mark.parametrize("check, flag", [(check, flag) for check in CHECK_FLAGS for flag in _required(check)])
def test_analyze_check_missing_a_required_option_exits_two(check, flag, t2_path, capsys):
    assert main(_t2_argv(t2_path, check, [f for f in CHECK_FLAGS[check] if f != flag])) == 2
    assert capsys.readouterr().err == f"input error: --check {check} requires --{flag}\n"


@pytest.fixture(scope="module")
def t2_file(tmp_path_factory, t2):
    path = tmp_path_factory.mktemp("contract") / "t2.json"
    path.write_text(algebra_to_json(t2), encoding="utf-8")
    return str(path)


# valid and invalid values for each option, some led by "-"
_OPTION_VALUES = {
    "n": ["-1", "0", "2", "-9"],
    "r": ["w1", "w2", "0:0", "-1:0", "zzz"],
    "rt": ["w2", "1:1", "-2:1", "9:0"],
    "lam": ["1", "-1", "1,0", "one"],
    "seed": ["0", "7"],
    "samples": ["200", "1", "0"],
}


@settings(max_examples=150)
@given(
    st.sampled_from(sorted(CHECK_FLAGS)),
    st.dictionaries(st.sampled_from(ANALYZE_OPTIONS), st.just(None)).flatmap(
        lambda chosen: st.fixed_dictionaries({opt: st.sampled_from(_OPTION_VALUES[opt]) for opt in chosen})
    ),
)
def test_analyze_option_subsets_keep_the_exit_code_contract(t2_file, check, options):
    argv = ["analyze", t2_file, "--check", check]
    for opt, value in options.items():
        argv += [f"--{opt}", value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    missing = [opt for opt in _required(check) if opt not in options]
    unread = {f"--{opt}" for opt in options if opt not in CHECK_FLAGS[check]}
    if missing:
        assert err.getvalue() == f"input error: --check {check} requires --{missing[0]}\n"
    elif unread:
        assert code == 2
        head = f"input error: analyze --check {check} does not read "
        assert err.getvalue().startswith(head)
        assert set(err.getvalue()[len(head):].rstrip("\n").split(", ")) == unread


@pytest.mark.parametrize("flags, lam", [
    (["--check", "selfdual", "--n", "-2"], "-1,1"),
    (["--check", "orthogonality", "--r", "w1", "--n", "-2"], "-1,0"),
    (["--check", "depth2", "--r", "w1", "--rt", "w2", "--n", "-1"], "-1"),
])
def test_analyze_takes_a_negative_functional_after_a_space(flags, lam, t2_path, capsys):
    # argparse alone reads "-1,1" as an option and exits 2 through SystemExit
    for json_flag in ([], ["--json"]):
        spaced = main(["analyze", t2_path, *flags, "--lam", lam, *json_flag])
        spaced_out = capsys.readouterr()
        joined = main(["analyze", t2_path, *flags, f"--lam={lam}", *json_flag])
        assert (spaced, spaced_out) == (joined, capsys.readouterr())
        assert spaced != 2


@pytest.mark.parametrize("edit", [
    lambda d: d["mult"][0]["table"][0][0].__setitem__(0, True),
    lambda d: d["dims"].__setitem__("0", 1.5),
])
def test_analyze_non_integer_number_exits_two(tmp_path, t2, edit, capsys):
    path = _write_ring_payload(tmp_path, t2, edit)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "not integers" in err
    assert "Traceback" not in err


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
    direct = stmod.tate_ring(stmod.trivial_module(klein_alg), (-2, 2))
    assert ring == direct
    # and the emitted file is itself analyzable
    assert main(["analyze", str(emitted)]) == 0
    assert main(["analyze", str(emitted), "--check", "nondegenerate", "--n", "-1"]) == 0


def test_tate_emit_failure_leaves_the_existing_file(klein_path, tmp_path, monkeypatch, capsys):
    emitted = tmp_path / "ring.json"
    emitted.write_bytes(b"an earlier ring\n")

    def out_of_memory(ring):
        raise MemoryError

    monkeypatch.setattr(gtl.cli, "algebra_to_json", out_of_memory)
    assert main(["tate", klein_path, "--window", "-2", "2", "--emit", str(emitted)]) == 2
    assert "out of memory" in capsys.readouterr().err
    assert emitted.read_bytes() == b"an earlier ring\n"


def test_tate_refuses_a_degree_above_the_ring_cap(klein_path, tmp_path, monkeypatch, capsys):
    # degree 3 of the Klein-four ring has dimension 4; the cap is read at call
    # time and stops the run before any product system is solved
    def no_products(self, d, shift, values):
        raise AssertionError("product system solved")

    monkeypatch.setattr(graded, "DIM_BOUND", 3)
    monkeypatch.setattr(stmod._TateWorkspace, "coordinates_at", no_products)
    emitted = tmp_path / "ring.json"
    assert main(["tate", klein_path, "--window", "-3", "3", "--emit", str(emitted)]) == 2
    assert capsys.readouterr().err == "input error: degree 3 has dimension 4, above the cap of 3\n"
    assert not emitted.exists()


def test_tate_ring_at_the_cap_reingests(klein_path, tmp_path, monkeypatch, capsys):
    # degree 2 has dimension 3, exactly the cap: what tate emits, analyze reads
    monkeypatch.setattr(graded, "DIM_BOUND", 3)
    emitted = tmp_path / "ring.json"
    assert main(["tate", klein_path, "--window", "-2", "2", "--emit", str(emitted)]) == 0
    assert main(["analyze", str(emitted), "--check", "validate"]) == 0


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


def test_tate_rejects_a_bad_window_before_validating(tmp_path, monkeypatch, capsys):
    def never(self):
        raise AssertionError("validate ran on an algebra whose window was already bad")

    monkeypatch.setattr(stmod.FDAlgebra, "validate", never)
    path = tmp_path / "x100.json"
    path.write_text(json.dumps({"truncated_polynomial": {"exponents": [100], "field_char": 2}}), encoding="utf-8")
    assert main(["tate", str(path), "--window", "-100", "100"]) == 2
    err = capsys.readouterr().err
    assert "stay within [-32, 32]" in err
    assert "Traceback" not in err

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


def test_tate_rejects_a_non_associative_algebra(tmp_path, cubic_alg, capsys):
    payload = cubic_alg.to_json_dict()
    payload["mult"][1][2][0] = 1  # x * x^2 = 1 while (x * x) * x stays 0
    path = tmp_path / "nonassoc.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    assert main(["tate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "associativity" in err
    assert "Traceback" not in err


def test_tate_labels_that_are_not_strings_exit_two(tmp_path, klein_alg, capsys):
    payload = klein_alg.to_json_dict()
    payload["labels"] = [[1, 2], 5, None, {"a": 1}]
    path = tmp_path / "labels.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    assert main(["tate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "labels must be a list of strings" in err
    assert "Traceback" not in err


def test_tate_integer_beyond_int64_exits_two(tmp_path, cubic_alg, capsys):
    payload = cubic_alg.to_json_dict()
    payload["mult"][0][0][0] = 2**70
    path = tmp_path / "huge.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    assert main(["tate", str(path)]) == 2
    assert "malformed mult" in capsys.readouterr().err


def test_tate_non_integer_number_exits_two(tmp_path, klein_alg, capsys):
    payload = klein_alg.to_json_dict()
    payload["mult"][0][0][0] = 1.9
    path = tmp_path / "float.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    assert main(["tate", str(path), "--window", "-1", "1"]) == 2
    assert "malformed mult: not integers: float" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [-1, 0])
def test_tate_algebra_dimension_below_one_exits_two(tmp_path, dim, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"field_char": 2, "dim": dim, "mult": [], "unit": []}), encoding="utf-8")
    assert main(["tate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"algebra has dimension {dim}, outside [1, 128]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("payload, message", [
    ({**build_truncated_ci((2, 2), 2).to_json_dict(), "labels": ["1"]}, "labels length must equal dim"),
    ({"field_char": 2, "dim": 3, "mult": [[[0] * 3] * 3] * 3, "unit": [1, 0, 0]},
     "derived character does not cut out a codimension-one radical"),
], ids=["labels-length", "zero-table"])
def test_tate_fd_file_checks_exit_two_with_one_line(tmp_path, payload, message, capsys):
    path = tmp_path / "fd.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    assert main(["tate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert message in err


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
# fuzzed payloads: every input keeps to the exit-code contract
# ---------------------------------------------------------------------------

_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutate(draw, node):
    """One random edit somewhere below ``node``; returns the edited node."""
    if isinstance(node, dict):
        children = list(node)
    else:
        children = list(range(len(node))) if isinstance(node, list) else []
    if children and draw(st.integers(0, 5)):
        key = draw(st.sampled_from(children))
        node[key] = _mutate(draw, node[key])
        return node
    edit = draw(st.sampled_from(["replace", "nudge", "nudge", "nudge", "drop", "add"]))
    if edit == "nudge" and isinstance(node, int) and not isinstance(node, bool):
        return node + draw(st.sampled_from([-1, 1, 2, -node - 1, 2**31, 2**63]))
    if edit == "drop" and children:
        del node[draw(st.sampled_from(children))]
        return node
    if edit == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(["radical", "symmetrizing", "labels", "dim", "mult", "extra"]))] = draw(_JSON_VALUES)
        return node
    if edit == "add" and isinstance(node, list):
        node.append(draw(_JSON_VALUES))
        return node
    return draw(_JSON_VALUES)


@st.composite
def _mutated(draw, base):
    payload = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        payload = _mutate(draw, payload)
    return payload


def _run_main_on(payload, command, *options) -> int:
    return _run_main_on_text(json.dumps(payload), command, *options)


def _run_main_on_text(text: str, command, *options) -> int:
    """Exit code of ``gtl command FILE options``; an escaping exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command, str(path), *options])


_FD_BASES = [
    build_truncated_ci((3,), 3).to_json_dict(),
    build_truncated_ci((2, 2), 2).to_json_dict(),
    {"truncated_polynomial": {"exponents": [2, 2], "field_char": 2}},
]
_GRADED_TEXTS = [
    algebra_to_json(ring) for ring in (build_laurent(5, (-2, 2)), build_trivial_extension(2, (-2, 2), 3))
]
_GRADED_BASES = [json.loads(text) for text in _GRADED_TEXTS]
_TEXT_EDIT_CHARS = TABLE_EDIT_CHARS + "{}:x"


@settings(max_examples=60)
@given(
    st.sampled_from(_FD_BASES).flatmap(_mutated),
    st.integers(-2, 0),
    st.integers(0, 2),
    st.sampled_from(["trivial", "bimodule"]),
)
def test_fuzzed_fd_payloads_keep_the_exit_code_contract(payload, lo, hi, module):
    code = _run_main_on(payload, "tate", "--window", str(lo), str(hi), "--module", module, "--json")
    assert code in (0, 1, 2, 3)


@settings(max_examples=60)
@given(st.sampled_from(_GRADED_BASES).flatmap(_mutated))
def test_fuzzed_graded_payloads_keep_the_exit_code_contract(payload):
    assert _run_main_on(payload, "analyze", "--check", "validate", "--json") in (0, 1, 2, 3)


@settings(max_examples=60)
@given(st.sampled_from(_GRADED_TEXTS).flatmap(lambda text: edited_text(text, [(0, len(text))], _TEXT_EDIT_CHARS)))
def test_fuzzed_graded_texts_keep_the_exit_code_contract(text):
    assert _run_main_on_text(text, "analyze", "--check", "validate", "--json") in (0, 1, 2, 3)


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


@pytest.mark.parametrize("exponents, count, expected", [
    ("2,1", 4, [1, 1, 1, 1]),  # x2 is zero: k[x1]/(x1^2), whose series is 1/(1-t)
    ("3,1,2", 3, [1, 2, 3]),
    ("1", 3, [1, 0, 0]),  # the field: k is free
])
def test_ci_ext_dims_counts_only_exponents_of_at_least_two(exponents, count, expected, capsys):
    assert main(["reproduce", "ci-ext-dims", "--exponents", exponents, "--count", str(count), "--json"]) == 0
    step = json.loads(capsys.readouterr().out)["steps"][0]
    assert step["expected"] == step["got"] == expected


@pytest.mark.parametrize("count", [0, -3, 33])
def test_ci_ext_dims_count_outside_its_range_exits_two(count, capsys):
    assert main(["reproduce", "ci-ext-dims", "--count", str(count)]) == 2
    assert f"--count {count} must lie in [1, 32]" in capsys.readouterr().err


def test_ci_ext_dims_counts_five_by_default(capsys):
    assert main(["reproduce", "ci-ext-dims", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"][0]["got"] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("name", ["hh-truncated", "ci-ext-dims"])
def test_reproduce_characteristic_zero_exits_two(name, capsys):
    assert main(["reproduce", name, "--p", "0"]) == 2
    assert "characteristic must be an integer in [2, 2**31): 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["klein-four", "--p", "5"], "--p"),
    (["klein-four", "--exponents", "3"], "--exponents"),
    (["hh-truncated", "--count", "9"], "--count"),
])
def test_reproduce_option_the_pipeline_does_not_read_exits_two(argv, option, capsys):
    assert main(["reproduce", *argv]) == 2
    assert f"input error: reproduce {argv[0]} does not read {option}" in capsys.readouterr().err


def test_reproduce_exponents_that_are_not_integers_exit_two(capsys):
    # argparse rejects the option text before main's own error handling, with its usage line
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "hh-truncated", "--exponents", "x"])
    assert exc.value.code == 2
    assert "exponents must be comma-separated integers: 'x'" in capsys.readouterr().err


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
