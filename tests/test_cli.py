import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catdom as cd
from catdom.cli import main

from conftest import (
    MIXED_ORDER_3X2_ROUNDS,
    PROFILE_3X2_ROWS,
    SHAPE_3X2,
    profile_of,
)


@pytest.fixture
def order_file(tmp_path, mixed_order_3x2):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(cd.order_to_json(mixed_order_3x2)))
    return str(path)


@pytest.fixture
def profile_file(tmp_path):
    profile = profile_of(SHAPE_3X2, PROFILE_3X2_ROWS)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(cd.profile_to_json(profile)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    """The pretty-printed document at the end of the output."""
    start = out.index("{\n")
    return json.loads(out[start:])


class TestRun:
    def test_mixed_run(self, capsys, order_file, profile_file):
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", "opt,opt,pess"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["bundles"] == {"1": [1, 1], "2": [2, 2], "3": [3, 3]}
        assert doc["ranks"] == {"1": 9, "2": 9, "3": 7}
        assert doc["message_count"] == 21

    def test_trace_lines(self, capsys, order_file, profile_file):
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", "opt,opt,pess", "--trace"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        first = json.loads(lines[0])
        assert first["t"] == 1
        assert first["agent"] == 1
        assert first["item"] == 1

    def test_scripted_behaviors(self, capsys, tmp_path, order_file, profile_file):
        for j, picks in ((1, [1, 1]), (2, [2, 2]), (3, [3, 3])):
            (tmp_path / f"script{j}.json").write_text(json.dumps(picks))
        behaviors = ",".join(f"script:{tmp_path}/script{j}.json" for j in (1, 2, 3))
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", behaviors],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["bundles"]["1"] == [1, 1]

    def test_behavior_count_error(self, capsys, order_file, profile_file):
        code, _ = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", "opt,opt"],
        )
        assert code == 1

    def test_missing_file_error(self, capsys, profile_file):
        code, _ = run_cli(
            capsys,
            ["run", "--order", "/nonexistent/order.json", "--profile", profile_file,
             "--behaviors", "opt,opt,pess"],
        )
        assert code == 1


class TestAnalyzeOrder:
    def test_analytics_doc(self, capsys, order_file):
        code, out = run_cli(capsys, ["analyze-order", "--order", order_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["rounds"] == [list(r) for r in MIXED_ORDER_3X2_ROUNDS]
        agent1 = doc["agents"][0]
        assert agent1["suborder"] == [1, 2]
        assert agent1["slacks"] == {"1": 3, "2": 1}
        assert agent1["uninterrupted_index"] == 2
        assert doc["message_count"] == 21


class TestBounds:
    def test_report_doc(self, capsys, order_file):
        code, out = run_cli(
            capsys, ["bounds", "--order", order_file, "--behaviors", "opt,opt,pess"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["utilitarian"] == 25
        assert doc["egalitarian"] == 9
        assert [a["bound"] for a in doc["agents"]] == [9, 9, 7]


class TestSearch:
    def test_exhaustive_small(self, capsys):
        code, out = run_cli(
            capsys,
            ["search", "--n", "2", "--p", "2", "--behaviors", "pess,pess",
             "--objective", "egalitarian"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["score"] == 3
        assert doc["objective"] == "egalitarian"

    def test_budget_exceeded_exit_code(self, capsys):
        code, _ = run_cli(
            capsys,
            ["search", "--n", "3", "--p", "3", "--behaviors", "opt,opt,opt",
             "--budget", "10"],
        )
        assert code == 2

    def test_oversized_exhaustive_search_refused(self, capsys):
        # formatting (n*p)! here used to escape as a ValueError traceback
        code = main(["search", "--n", "1", "--p", "3000", "--behaviors", "opt"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert "more than 200000 orders" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_random_mode_empty_budget_exit_code(self, capsys, budget):
        code = main(
            ["search", "--n", "2", "--p", "2", "--behaviors", "opt,opt",
             "--mode", "random", "--budget", budget]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_random_mode_empty_budget_under_optimize_flag(self):
        # the budget check must not be an assert, which python -O strips
        env = dict(os.environ, PYTHONPATH=str(Path(cd.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "catdom.cli", "search", "--n", "2", "--p", "2",
             "--behaviors", "opt,opt", "--mode", "random", "--budget", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


class TestWorstCase:
    def test_profile_written(self, capsys, tmp_path, order_file):
        out_path = tmp_path / "witness.json"
        code, out = run_cli(
            capsys,
            ["worst-case", "--order", order_file, "--behaviors", "opt,opt,pess",
             "--out", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["realized"]["ranks"] == {"1": 9, "2": 9, "3": 7}
        assert doc["near_optimal"]["ranks"] == {"1": 2, "2": 1, "3": 1}
        written = cd.profile_from_json(json.loads(out_path.read_text()))
        assert written.shape == SHAPE_3X2


class TestSpne:
    def test_equilibrium_doc(self, capsys, tmp_path, game_order_2x2, game_profile_2x2):
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(cd.order_to_json(game_order_2x2)))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(cd.profile_to_json(game_profile_2x2)))
        code, out = run_cli(
            capsys,
            ["spne", "--order", str(order_path), "--profile", str(profile_path),
             "--trace", "--states"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert json.loads(lines[0])["t"] == 1
        doc = last_json(out)
        assert doc["allocation"]["bundles"] == {"1": [1, 1], "2": [2, 2]}
        assert doc["state_space_size"] > 0

    def test_state_cap_exit_code(self, capsys, tmp_path, game_order_2x2, game_profile_2x2):
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(cd.order_to_json(game_order_2x2)))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(cd.profile_to_json(game_profile_2x2)))
        code, _ = run_cli(
            capsys,
            ["spne", "--order", str(order_path), "--profile", str(profile_path),
             "--state-cap", "2"],
        )
        assert code == 2


class TestCheckAxioms:
    def test_sd_exhaustive(self, capsys):
        code, out = run_cli(
            capsys, ["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mechanism"] == "sd[1, 2]"
        assert all(v["passed"] for v in doc["verdicts"])

    def test_bossy_sampled(self, capsys):
        code, out = run_cli(
            capsys,
            ["check-axioms", "--mechanism", "bossy-sd", "--n", "3", "--p", "2",
             "--mode", "sampled", "--count", "2000", "--seed", "0"],
        )
        assert code == 0
        doc = json.loads(out)
        by_axiom = {v["axiom"]: v["passed"] for v in doc["verdicts"]}
        assert by_axiom["non-bossiness"] is False

    def test_oversized_exhaustive_refused(self, capsys):
        # (2**14)! rankings: the budget guard must refuse without forming that count
        code = main(["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "14"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
        assert "more than 10000000 checks" in captured.err


class TestExperiment:
    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "results.csv"
        code, _ = run_cli(
            capsys,
            ["experiment", "--p", "2", "--n", "2..3", "--phi", "0.5",
             "--samples", "10", "--seed", "1", "--out", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("mechanism,behavior,")
        assert len(lines) == 1 + 4 * 2

    def test_mechanism_subset_to_stdout(self, capsys):
        code, out = run_cli(
            capsys,
            ["experiment", "--p", "2", "--n", "2", "--phi", "0.5,1.0",
             "--samples", "5", "--seed", "1", "--mechanisms", "sd:opt"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 1 * 2
        assert lines[1].split(",")[0] == "sd"

    def test_bad_phi_exit_code(self, capsys):
        code, _ = run_cli(
            capsys,
            ["experiment", "--p", "2", "--n", "2", "--phi", "1.5", "--samples", "5",
             "--seed", "1"],
        )
        assert code == 1
