"""Scenario parsing, runner, and CLI behavior tests."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from qvote import attacks
from qvote.cli import main
from qvote.runner import emit_report, execute
from qvote.scenario import ScenarioError, parse_scenario

DISTRIBUTED = """
[protocol]
scheme = distributed
D = 5
N = 4
votes = 1,0,1,1

[run]
backend = both
seed = 42
trials = 3
"""

DOLEV_BAD = """
[protocol]
scheme = dolev
D = 5
N = 3
votes = 1,0,0
"""

SWAP = """
[protocol]
scheme = distributed
D = 4
N = 3
votes = 1,0,1

[attack]
kind = swap
target = 0
pair = 0,1

[run]
backend = branch
seed = 7
trials = 2000
"""

ANTICHEAT = """
[protocol]
scheme = anticheat-distributed
D = 8
N = 3
votes = 1,1,0

[secrets]
yes_level = 1
no_level = 0
offset = 0.2

[run]
backend = branch
seed = 5
repetitions = 3
"""

CHEATER = """
[protocol]
scheme = anticheat-distributed
D = 4
N = 3
votes = 1,0

[secrets]
yes_level = 1
no_level = 0

[attack]
kind = cheater
s = 3
theta_mode = sampled

[run]
seed = 11
trials = 40
backend = branch
"""


class TestParse:
    def test_minimal_distributed(self):
        cfg = parse_scenario(DISTRIBUTED)
        assert cfg.scheme == "distributed" and cfg.D == 5 and cfg.votes == [1, 0, 1, 1]
        assert cfg.backend == "both" and cfg.seed == 42 and cfg.trials == 3

    def test_d_equal_n_rejected_with_precondition(self):
        bad = DISTRIBUTED.replace("D = 5", "D = 4")
        with pytest.raises(ScenarioError, match="requires D > N"):
            parse_scenario(bad)

    def test_dolev_dimension_rejected_with_precondition(self):
        with pytest.raises(ScenarioError, match="requires D = N\\+1"):
            parse_scenario(DOLEV_BAD)

    def test_unknown_key_reports_line(self):
        bad = DISTRIBUTED.replace("votes = 1,0,1,1", "votez = 1,0,1,1")
        with pytest.raises(ScenarioError, match="line 6: unknown key 'votez'"):
            parse_scenario(bad)

    def test_type_error_reports_line_and_field(self):
        bad = DISTRIBUTED.replace("D = 5", "D = five")
        with pytest.raises(ScenarioError, match="field 'D' has invalid value 'five'"):
            parse_scenario(bad)

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario("[newsflash]\nx = 1\n")

    def test_secrets_precondition_named(self):
        bad = ANTICHEAT.replace("yes_level = 1", "yes_level = 3")
        with pytest.raises(ScenarioError, match="yes_level - no_level"):
            parse_scenario(bad)

    def test_cheater_needs_anticheat_scheme(self):
        bad = SWAP.replace("kind = swap", "kind = cheater").replace("pair = 0,1", "s = 3")
        with pytest.raises(ScenarioError, match="anticheat"):
            parse_scenario(bad)

    def test_cheater_rejects_traveling_variant(self):
        # the cheater simulation runs the distributed ballot only
        bad = CHEATER.replace("anticheat-distributed", "anticheat-traveling")
        with pytest.raises(ScenarioError, match="requires scheme 'anticheat-distributed'"):
            parse_scenario(bad)

    def test_anticheat_without_secrets_needs_room(self):
        # drawn secrets need a level gap g with g * N < D, so D > N
        bad = "[protocol]\nscheme = anticheat-distributed\nD = 3\nN = 4\nvotes = 1,1,0,0\n"
        with pytest.raises(ScenarioError, match="requires D > N"):
            parse_scenario(bad)

    def test_votes_length_checked(self):
        bad = DISTRIBUTED.replace("votes = 1,0,1,1", "votes = 1,0")
        with pytest.raises(ScenarioError, match="expected 4 entries"):
            parse_scenario(bad)


class TestExecute:
    def test_honest_distributed_both_backends(self):
        cfg = parse_scenario(DISTRIBUTED)
        report = execute(cfg)
        assert report.passed
        assert report.summary["outcome_histogram"] == {"3": 3}
        assert report.invariants["backend_outcomes_equal"]["passed"]
        assert report.invariants["backend_amplitude_deviation"]["max_deviation"] <= 1e-12

    def test_swap_attack_statistics(self):
        cfg = parse_scenario(SWAP)
        report = execute(cfg)
        p = report.summary["detection_rate"]
        assert abs(p - 0.75) < 0.05
        assert report.summary["analytic_detection"] == pytest.approx(0.75)

    def test_anticheat_repetitions(self):
        cfg = parse_scenario(ANTICHEAT)
        report = execute(cfg)
        rec = report.trial_records[0]
        assert rec["qs"] == [2, 2, 2]
        assert rec["cheat_detected"] is False

    def test_cheater_report_includes_tv(self):
        cfg = parse_scenario(CHEATER)
        report = execute(cfg)
        assert sum(report.summary["q_histogram"]) == 40
        assert "tv_vs_analytic" in report.summary

    def test_verify_command(self):
        cfg = parse_scenario(DISTRIBUTED)
        report = execute(cfg, command="verify")
        assert report.passed
        assert report.invariants["privacy_reduced_density"]["passed"]
        assert report.invariants["tally_basis_orthonormal"]["passed"]

    def test_sweep_command(self):
        cfg = parse_scenario(DISTRIBUTED)
        report = execute(cfg, command="sweep")
        assert report.passed
        assert report.summary["cases"] == 16
        assert report.summary["failures"] == 0

    def test_vote_distribution_sampling(self):
        text = DISTRIBUTED.replace("votes = 1,0,1,1", "yes_rate = 0.5").replace(
            "trials = 3", "trials = 20"
        )
        cfg = parse_scenario(text)
        report = execute(cfg)
        assert report.passed
        for rec in report.trial_records:
            assert rec["tally"] == sum(rec["votes"])
        assert len({tuple(r["votes"]) for r in report.trial_records}) > 1

    def test_votes_and_rate_mutually_exclusive(self):
        text = DISTRIBUTED.replace("N = 4", "N = 4\nyes_rate = 0.5")
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(text)


class TestDeterminism:
    def test_json_lines_byte_identical(self):
        for text in (DISTRIBUTED, SWAP, ANTICHEAT):
            cfg1 = parse_scenario(text)
            cfg2 = parse_scenario(text)
            a = emit_report(execute(cfg1), "json-lines")
            b = emit_report(execute(cfg2), "json-lines")
            assert a == b

    def test_different_seed_changes_stream(self):
        cfg1 = parse_scenario(SWAP)
        cfg2 = parse_scenario(SWAP)
        cfg2.seed = 8
        a = emit_report(execute(cfg1), "json-lines")
        b = emit_report(execute(cfg2), "json-lines")
        assert a != b

    def test_json_lines_round_trip(self):
        cfg = parse_scenario(DISTRIBUTED)
        payload = emit_report(execute(cfg), "json-lines")
        lines = payload.decode().strip().split("\n")
        records = [json.loads(ln) for ln in lines]
        assert records[-1]["record"] == "summary"
        assert all(r["record"] == "trial" for r in records[:-1])
        # numeric fields reproduce exactly through the round trip
        assert records[-1]["summary"]["outcome_histogram"] == {"3": 3}

    def test_summary_only_stream_when_no_trials(self):
        for text in (SWAP, DISTRIBUTED):
            cfg = parse_scenario(text)
            cfg.trials = 0
            payload = emit_report(execute(cfg), "json-lines")
            lines = payload.decode().strip().split("\n")
            assert len(lines) == 1 and json.loads(lines[0])["record"] == "summary"
            assert json.loads(lines[0])["summary"]["trials"] == 0


class TestCli:
    def _write(self, tmp_path, text):
        p = tmp_path / "scenario.ini"
        p.write_text(text)
        return p

    def test_run_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, DISTRIBUTED)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outcome_histogram" in out

    def test_validation_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, DOLEV_BAD)
        assert main(["run", str(path)]) == 1
        assert "requires D = N+1" in capsys.readouterr().err

    def test_budget_exit_three(self, tmp_path, capsys):
        big = DISTRIBUTED.replace("D = 5", "D = 13").replace("N = 4", "N = 7").replace(
            "votes = 1,0,1,1", "votes = 1,0,1,1,0,0,0"
        ).replace("backend = both", "backend = dense")
        path = self._write(tmp_path, big)
        assert main(["run", str(path)]) == 3
        assert "branch" in capsys.readouterr().err  # remediation hint

    def test_budget_exit_three_on_branch_names_the_dense_step(self, tmp_path, capsys):
        votes = ",".join(["1", "0", "1", "1"] + ["0"] * 16)
        big = DISTRIBUTED.replace("D = 5", "D = 21").replace("N = 4", "N = 20").replace(
            "votes = 1,0,1,1", f"votes = {votes}"
        ).replace("backend = both", "backend = branch")
        path = self._write(tmp_path, big)
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert "verify's dense-oracle ballot checks" in err
        assert "switch to backend" not in err and "use the branch backend" not in err
        assert main(["run", str(path)]) == 0

    def test_cheater_past_the_dense_budget_runs_on_every_backend(self, tmp_path):
        # the cheater builds no backend state: D^(2N) = 8^14 amplitudes would exit 3 on dense
        big = CHEATER.replace("D = 4", "D = 8").replace("N = 3", "N = 7").replace(
            "votes = 1,0", "votes = 1,0,1,1,0,0").replace("s = 3", "s = 5")
        reports = {}
        for backend in ("branch", "dense", "both"):
            path = self._write(tmp_path, big.replace("backend = branch", f"backend = {backend}"))
            out = tmp_path / f"{backend}.jsonl"
            assert main(["attack", str(path), "--format", "json-lines", "--out", str(out)]) == 0
            reports[backend] = [json.loads(ln) for ln in out.read_text().splitlines()]
        trials = [rec for rec in reports["branch"] if "trial" in rec]
        assert len(trials) == 40
        for backend in ("dense", "both"):
            assert [rec for rec in reports[backend] if "trial" in rec] == trials

    def test_cheater_scenario_makes_one_library_call(self, tmp_path):
        path = self._write(tmp_path, CHEATER)
        with mock.patch.object(attacks, "run_cheater_attack",
                               wraps=attacks.run_cheater_attack) as run:
            assert main(["attack", str(path), "--format", "json-lines",
                         "--out", str(tmp_path / "r.jsonl")]) == 0
        assert run.call_count == 1 and run.call_args.kwargs["trials"] == 40

    def test_attack_requires_attack_section(self, tmp_path, capsys):
        path = self._write(tmp_path, DISTRIBUTED)
        assert main(["attack", str(path)]) == 1

    def test_attack_command_runs(self, tmp_path):
        small = SWAP.replace("trials = 2000", "trials = 50")
        path = self._write(tmp_path, small)
        assert main(["attack", str(path)]) == 0

    def test_out_file_and_seed_override(self, tmp_path):
        path = self._write(tmp_path, DISTRIBUTED)
        out = tmp_path / "report.jsonl"
        assert main(["run", str(path), "--out", str(out), "--format", "json-lines", "--seed", "9"]) == 0
        records = [json.loads(ln) for ln in out.read_text().strip().split("\n")]
        assert records[-1]["seed"] == 9

    def test_backend_override(self, tmp_path, capsys):
        path = self._write(tmp_path, DISTRIBUTED)
        assert main(["run", str(path), "--backend", "branch"]) == 0
        assert "branch" in capsys.readouterr().out

    def test_verify_subcommand(self, tmp_path):
        path = self._write(tmp_path, ANTICHEAT)
        assert main(["verify", str(path)]) == 0

    def test_sweep_subcommand(self, tmp_path):
        path = self._write(tmp_path, DISTRIBUTED)
        assert main(["sweep", str(path)]) == 0

    def test_sweep_without_cases_is_scenario_error(self, tmp_path, capsys):
        path = self._write(tmp_path, ANTICHEAT)
        with pytest.raises(ScenarioError, match="sweep does not support"):
            execute(parse_scenario(ANTICHEAT), command="sweep")
        assert main(["sweep", str(path)]) == 1
        assert capsys.readouterr().err.startswith("scenario error:")

    def test_cheater_on_traveling_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, CHEATER.replace("anticheat-distributed", "anticheat-traveling"))
        assert main(["attack", str(path)]) == 1
        assert capsys.readouterr().err.startswith("scenario error:")

    def test_usage_error_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, DISTRIBUTED)
        for argv in (["run", str(path), "--backend", "bogus"], ["run"], ["tally", str(path)], []):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "usage: qvote" in err

    def test_help_exit_zero(self, capsys):
        for argv in (["--help"], ["run", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage: qvote" in capsys.readouterr().out

    def test_internal_error_exit_two(self, tmp_path, capsys, monkeypatch):
        from qvote import cli
        from qvote.branches import BranchError

        def broken(cfg, command="run"):
            raise BranchError("not representable")

        monkeypatch.setattr(cli, "execute", broken)
        path = self._write(tmp_path, DISTRIBUTED)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("internal error: not representable")


def test_shipped_scenarios_run_clean(tmp_path):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "scenarios"
    files = sorted(root.glob("*.ini"))
    assert files, "shipped scenario files missing"
    for f in files:
        if f.name == "swap_attack.ini":  # trimmed here; full size runs in acceptance
            text = f.read_text().replace("trials = 100000", "trials = 500")
            f = tmp_path / f.name
            f.write_text(text)
        assert main(["run", str(f)]) == 0, f.name


LONE_VOTER = {
    "distributed": "[protocol]\nscheme = distributed\nD = 3\nN = 1\nvotes = 1\n",
    "dolev": "[protocol]\nscheme = dolev\nN = 1\nvotes = 1\n",
}


@pytest.mark.parametrize("scheme", sorted(LONE_VOTER))
def test_verify_lone_voter_is_scenario_error(tmp_path, capsys, scheme):
    """One register per voter: a lone voter's register holds the tally, so the
    privacy check cannot pass and verify refuses the scenario before running it."""
    path = tmp_path / "scenario.ini"
    path.write_text(LONE_VOTER[scheme])
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "N >= 2" in err
    assert main(["run", str(path)]) == 0  # only verify needs a second voter


def test_verify_lone_voter_traveling_passes(tmp_path):
    """The traveling ballot keeps two registers however many voters there are."""
    path = tmp_path / "scenario.ini"
    path.write_text("[protocol]\nscheme = traveling\nD = 3\nN = 1\nvotes = 1\n")
    assert main(["verify", str(path)]) == 0


def test_parser_built_once_and_reused(tmp_path):
    """The parser is built once; two calls with different argv each parse their own."""
    from qvote.cli import build_parser

    assert build_parser() is build_parser()
    path = tmp_path / "scenario.ini"
    path.write_text(DISTRIBUTED)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert main(["run", str(path), "--seed", "9", "--format", "json-lines", "--out", str(first)]) == 0
    assert main(["verify", str(path), "--backend", "branch", "--out", str(second),
                 "--format", "json-lines"]) == 0
    a = json.loads(first.read_text().strip().split("\n")[-1])
    b = json.loads(second.read_text().strip().split("\n")[-1])
    assert (a["command"], a["backend"], a["seed"]) == ("run", "both", 9)
    assert (b["command"], b["backend"], b["seed"]) == ("verify", "branch", 42)


def test_verify_runs_each_ballot_once_per_backend(monkeypatch):
    """verify records privacy and states in one run per backend and computes
    both the privacy and the amplitude check from that pair."""
    from pathlib import Path

    from qvote import protocols

    calls = []
    run = protocols.run_distributed

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return run(*args, **kwargs)

    monkeypatch.setattr(protocols, "run_distributed", counted)
    text = (Path(__file__).resolve().parent.parent / "scenarios" / "distributed.ini").read_text()
    report = execute(parse_scenario(text), command="verify")
    assert len(calls) == 2
    assert all(kw["record_privacy"] and kw["record_states"] for kw in calls)
    assert report.passed and report.invariants["backend_amplitudes"]["max_deviation"] <= 1e-12
