"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from superverma import cli
from superverma.verify import CaseResult, FAIL, ScenarioReport
from superverma.weights import verma_character


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr().err


# ---------------------------------------------------------------------------
# Plain subcommands.


def test_borels_lists_labels(capsys):
    code, out = run(capsys, "borels", "2")
    assert code == 0
    assert out.splitlines() == ["()", "(1)", "(1^2)", "(2)", "(21)", "(2^2)"]


def test_borels_dot_graph_has_twenty_vertices(capsys):
    code, out = run(capsys, "borels", "3", "--graph", "dot")
    assert code == 0
    assert out.startswith("graph ")
    lines = [ln.strip() for ln in out.splitlines()]
    edges = [ln for ln in lines if "--" in ln]
    vertices = [ln for ln in lines if ln.endswith('";') and "--" not in ln]
    assert len(vertices) == 20
    assert len(edges) == 30
    assert '"()" -- "(1)";' in out


def test_borels_json_graph_parses(capsys):
    code, out = run(capsys, "borels", "2", "--graph", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 6


def test_rho_renders_signed_coordinates(capsys):
    assert run(capsys, "rho", "2", "()") == (0, "-e2+d1\n")
    assert run(capsys, "rho", "2", "(1)") == (0, "0\n")
    assert run(capsys, "rho", "2", "(21)") == (0, "e1+e2-d1-d2\n")
    assert run(capsys, "rho", "2", "(2^2)") == (0, "2e1+e2-d1-2d2\n")
    assert run(capsys, "rho", "1", "(1)") == (0, "e1-d1\n")


def test_rho_scales_multiple_coordinates(capsys):
    code, out = run(capsys, "rho", "3", "()")
    assert code == 0
    assert out == "-e2-2e3+2d1+d2\n"


def test_aty_counts_matched_pairs(capsys):
    assert run(capsys, "aty", "2,1,1,2") == (0, "2\n")
    assert run(capsys, "aty", "1,2") == (0, "0\n")
    assert run(capsys, "aty", "(1,0,1,0)") == (0, "2\n")


def test_char_verma_matches_library_table(capsys):
    code, out = run(capsys, "char", "verma", "2", "(1)", "1,0,1,0", "--depth", "2")
    assert code == 0
    char = verma_character(2, (1,), (1, 0, 1, 0), 2)
    lines = out.splitlines()
    assert lines[0] == "# weight  even odd"
    got = {}
    for ln in lines[1:]:
        coords, e, o = ln.rsplit(maxsplit=2)
        got[tuple(int(x) for x in coords.split(","))] = (int(e), int(o))
    assert got == {w: d for w, d in char.table.items() if d != (0, 0)}


def test_char_json_round_trips(capsys):
    code, out = run(capsys, "char", "bg", "2", "()", "1,2,1,2", "--depth", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["support"]


def test_ds_census_human_and_json(capsys):
    code, out = run(capsys, "ds", "2", "(1)", "1,0,1,0", "--alpha", "1,3", "--depth", "4")
    assert code == 0
    assert out.startswith("# alpha=1,3 valid_depth=3")
    code, out = run(
        capsys, "ds", "2", "(1)", "1,0,1,0", "--alpha", "1,3", "--depth", "4", "--json"
    )
    doc = json.loads(out)
    assert set(doc) == {"alpha", "valid_region", "classes"}


def test_ds_bg_flag_uses_anchored_module(capsys):
    code, out = run(
        capsys, "ds", "2", "()", "1,2,1,2", "--alpha", "1,3", "--depth", "6", "--bg"
    )
    assert code == 0
    assert "1,2,-1,-2  0 1" in out


# ---------------------------------------------------------------------------
# Usage errors carry positions and exit code 2.


def test_malformed_tuple_reports_position(capsys):
    code, err = run_usage_error(capsys, "aty", "2,x,1")
    assert code == 2
    assert "invalid integer 'x' at position 2" in err


def test_malformed_label_reports_position(capsys):
    code, err = run_usage_error(capsys, "rho", "2", "(1@2)")
    assert code == 2
    assert "position" in err


def test_char_bg_rejects_nontrivial_label(capsys):
    code, err = run_usage_error(capsys, "char", "bg", "2", "(1)", "1,0,1,0")
    assert code == 2
    assert "label" in err


def test_char_rejects_wrong_tuple_length(capsys):
    code, err = run_usage_error(capsys, "char", "verma", "2", "()", "1,0,1")
    assert code == 2
    assert "length" in err


@pytest.mark.parametrize("kind", ["verma", "bg"])
def test_char_rejects_negative_depth(capsys, kind):
    code, err = run_usage_error(capsys, "char", kind, "2", "()", "0,0,0,0", "--depth", "-1")
    assert code == 2
    assert "depth must be nonnegative" in err
    assert "Traceback" not in err


def test_ds_rejects_even_alpha(capsys):
    code, err = run_usage_error(
        capsys, "ds", "2", "()", "1,0,1,0", "--alpha", "1,2", "--depth", "3"
    )
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _ = run_usage_error(capsys, "frobnicate")
    assert code == 2


# ---------------------------------------------------------------------------
# Verification scenarios through the CLI.


def test_verify_gl22_exits_zero(capsys):
    code, out = run(capsys, "verify", "gl22", "--depth", "6")
    assert code == 0
    assert "gl22" in out and "ok" in out


def test_verify_structure_json_schema(capsys):
    code, out = run(capsys, "verify", "structure", "--n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"scenario", "params", "cases", "wall_time_ms"}
    assert doc["wall_time_ms"] is None
    assert all(set(c) == {"key", "verdict", "detail"} for c in doc["cases"])
    code, out = run(capsys, "verify", "structure", "--n", "2", "--json", "--timing")
    assert isinstance(json.loads(out)["wall_time_ms"], int)


def test_verify_conjecture_restricted_sweep(capsys):
    code, out = run(
        capsys,
        "verify",
        "conjecture",
        "--n",
        "1",
        "--borel",
        "()",
        "--alpha",
        "1,2",
    )
    assert code == 0
    assert "conjecture: 25 cases" in out


def test_verify_mabg_runs_both_ranks(capsys):
    code, out = run(capsys, "verify", "mabg", "--n", "2,3")
    assert code == 0
    assert out.count("mabg:") == 2


def test_verify_exits_one_on_failure(capsys, monkeypatch):
    bad = ScenarioReport(
        "mabg", {}, (CaseResult("t=(0,0)", FAIL, {"mismatch": None}),), 0
    )
    monkeypatch.setattr(cli, "verify_maBG", lambda n, depth=None: bad)
    code, out = run(capsys, "verify", "mabg", "--n", "2")
    assert code == 1
    assert "FAIL" in out


def test_verify_precondition_error_is_usage_error(capsys, monkeypatch):
    def boom(n, depth=None):
        raise ValueError("tuple (1, 2, 1, 3) is not in the matched-diagonal family")

    monkeypatch.setattr(cli, "verify_maBG", boom)
    code, err = run_usage_error(capsys, "verify", "mabg", "--n", "2")
    assert code == 2
    assert "matched-diagonal" in err


def test_char_label_outside_box_is_usage_error(capsys):
    code, err = run_usage_error(capsys, "char", "verma", "2", "(9)", "1,0,1,0")
    assert code == 2
    assert "does not fit in the 2x2 box" in err
    assert "Traceback" not in err


def test_borels_unformattable_rank_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["borels", "10"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "single digits" in captured.err
    assert captured.out == ""


def test_verify_conjecture_refuses_rank_zero(capsys):
    code, err = run_usage_error(capsys, "verify", "conjecture", "--n", "0")
    assert code == 2
    assert "rank must be at least 1" in err


@pytest.mark.parametrize(
    "argv, rank",
    [
        ("borels 0", 0),
        ("borels -1", -1),
        ("rho -1 ()", -1),
        ("rho 0 ()", 0),
        ("char verma 0 () 1,0", 0),
        ("ds -2 () 1,0 --alpha 1,2", -2),
    ],
)
def test_a_rank_below_one_is_usage_error(capsys, argv, rank):
    code, err = run_usage_error(capsys, *argv.split())
    assert code == 2
    assert f"rank must be at least 1, got {rank}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "scenario, rank", [("conjecture", 4), ("mabg", 1), ("mabg", 4)]
)
def test_verify_rank_without_default_grid_is_usage_error(capsys, scenario, rank):
    code, err = run_usage_error(capsys, "verify", scenario, "--n", str(rank))
    assert code == 2
    assert f"no default grid at rank {rank}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("verify", "mabg", "--borel", "(1)"), "--borel"),
        (("verify", "gl22", "--n", "3"), "--n"),
        (("verify", "structure", "--alpha", "1,3"), "--alpha"),
        (("verify", "structure", "--depth", "9"), "--depth"),
    ],
)
def test_verify_refuses_an_option_its_scenario_does_not_take(capsys, argv, option):
    code, err = run_usage_error(capsys, *argv)
    assert code == 2
    assert f"verify {argv[1]} does not take {option}" in err
    assert "Traceback" not in err


def test_ds_bg_rejects_nontrivial_label(capsys):
    code, err = run_usage_error(capsys, "ds", "2", "(1)", "0,0,0,0", "--alpha", "2,3", "--bg")
    assert code == 2
    assert "ds --bg supports only the label '()'" in err
    assert "Traceback" not in err
