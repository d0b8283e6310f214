"""Honest trials played as batches, and verify's checks once per distinct state.

The runner prepares each ballot once per backend and input vector, scores a
collector's readout once and draws every trial of that vector from its own
stream. These tests keep the trial-by-trial loop (one ``protocols.run_*`` per
trial) as the reference and compare json-lines bytes; they count the
preparations, the partial traces of verify's privacy check, and the sweep
budget.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from qvote import backends, protocols, runner, scenario
from qvote.branches import MeasurementFamily, phase_family, to_dense
from qvote.cli import main
from qvote.matrices import dft_matrix, phase_vote_matrix
from qvote.runner import SWEEP_CASE_BUDGET, emit_report, execute
from qvote.scenario import SCHEMES, parse_scenario
from qvote.states import (DenseState, LocalOp, align_global_phase, cached_op, make_uniform_ghz,
                          maximally_mixed, trace_distance)

HONEST = {  # scheme: its [protocol] inputs at N = 3
    "traveling": "D = 4\nvotes = 1,0,1",
    "distributed": "D = 4\nvotes = 0,1,1",
    "dolev": "D = 4\nvotes = 1,1,0",
    "broadcast": "D = 4\nsender = 2\nmessage = 3",
    "survey": "D = 6\nsalaries = 2,0,1",
}


def _text(scheme, backend, trials, yes_rate=False):
    proto = HONEST[scheme]
    if yes_rate:
        proto = proto.split("\nvotes")[0] + "\nyes_rate = 0.5"
    return (f"[protocol]\nscheme = {scheme}\nN = 3\n{proto}\n"
            f"[run]\nbackend = {backend}\nseed = 11\ntrials = {trials}\n")


def _reference_trial(cfg, votes, backend, rng):
    """One honest trial as one library run, the record as the trial-by-trial loop made it."""
    config = cfg.protocol_config()
    if cfg.scheme == "broadcast":
        return {"reconstructed": protocols.run_broadcast(config, cfg.sender, cfg.message, backend,
                                                         rng=rng).m}
    if cfg.scheme == "survey":
        res = protocols.run_survey(config, cfg.salaries, backend, rng=rng)
        return {"total": res.m, "average": str(res.average)}
    res = getattr(protocols, f"run_{cfg.scheme}")(config, votes, backend, rng=rng)
    record = {"tally": res.m, "votes": votes}
    if cfg.scheme == "dolev":
        record["announced"] = [e["value"] for e in res.transcript.public if e["event"] == "announce"]
    return record


def _reference_records(cfg, backend):
    streams = np.random.default_rng(cfg.seed).spawn(cfg.trials)
    return [dict(_reference_trial(cfg, runner._trial_votes(cfg, rng), backend, rng), trial=i,
                 backend=backend) for i, rng in enumerate(streams)]


def _reference_bytes(monkeypatch, text, command):
    """The report of the trial-by-trial loop: every trial, sweep case and outcome check
    runs the library entry point once on its own stream."""
    with monkeypatch.context() as patch:
        patch.setattr(runner, "_trial_records", _reference_records)
        for name in HONEST:
            entry = SCHEMES[name]
            play = lambda cfg, votes, backend, rngs: [  # noqa: E731
                _reference_trial(cfg, votes, backend, rng) for rng in rngs]
            patch.setitem(SCHEMES, name, replace(entry, play=play))
        return emit_report(execute(parse_scenario(text), command), "json-lines")


CASES = [(scheme, backend, trials, yes_rate)
         for scheme in HONEST for backend in ("dense", "branch", "both") for trials in (0, 1, 5)
         for yes_rate in ((False, True) if SCHEMES[scheme].takes_votes else (False,))]


@pytest.mark.parametrize("scheme,backend,trials,yes_rate", CASES)
def test_batches_equal_the_trial_by_trial_loop(monkeypatch, scheme, backend, trials, yes_rate):
    text = _text(scheme, backend, trials, yes_rate)
    for command in ("run", "sweep", "verify") if trials == 1 else ("run", "sweep"):
        got = emit_report(execute(parse_scenario(text), command), "json-lines")
        assert got == _reference_bytes(monkeypatch, text, command), (command, text)


def _mixing_ballot(readout):
    """A D=3 ballot whose tally is random: party 0 applies the DFT, party 1 a vote
    phase, party 2 nothing; ``readout`` "full" is the phase family, "partial" its first two members (a remainder
    outcome), "announce" the announcements."""
    D, N = 3, 3
    family = phase_family(D, N)
    readout = {"full": family, "partial": MeasurementFamily((D,) * N, family.targets[:2]),
               "announce": None}[readout]
    ops = {0: None, 1: cached_op(phase_vote_matrix, D, 1), 2: LocalOp(dft_matrix(D))}
    return protocols.Ballot(D, N, [2, 1, 0], lambda k: k, ops.__getitem__, readout)


@pytest.mark.parametrize("backend", ["dense", "branch"])
@pytest.mark.parametrize("readout", ["full", "partial", "announce"])
def test_each_stream_draws_as_one_run(backend, readout):
    """A random tally: each stream's outcome, the remainder index included, and its
    announcements are those of one ``_run_ballot`` on that stream."""
    ballot, bk = _mixing_ballot(readout), backends.get_backend(backend)
    got = ballot.tallies(bk, np.random.default_rng(4).spawn(40))
    want = []
    for rng in np.random.default_rng(4).spawn(40):
        res = protocols._run_ballot(ballot, bk, rng)
        announced = [e["value"] for e in res.transcript.public if e["event"] == "announce"]
        want.append((res.m, announced if readout == "announce" else None))
    assert got == want
    assert len({m for m, _ in got}) > 1
    if readout == "partial":
        assert 2 in {m for m, _ in got}


def _count_preparations(monkeypatch) -> list:
    """Every preparation: a step-by-step one, or a label-frame build (``Ballot.labels``
    returning the coefficients rather than None)."""
    calls = []
    prepare, labels = protocols.Ballot.prepare, protocols.Ballot.labels

    def counted(self, bk, record=None):
        calls.append((bk.name, tuple(self.weights)))
        return prepare(self, bk, record)

    def counted_labels(self, bk):
        c = labels(self, bk)
        if c is not None:
            calls.append((bk.name, tuple(self.weights)))
        return c

    monkeypatch.setattr(protocols.Ballot, "prepare", counted)
    monkeypatch.setattr(protocols.Ballot, "labels", counted_labels)
    return calls


@pytest.mark.parametrize("scheme,backend,trials,yes_rate", CASES)
def test_one_preparation_per_backend_and_input_vector(monkeypatch, scheme, backend, trials, yes_rate):
    """Not counting the amplitude check of a 'both' run, which runs its own ballots."""
    monkeypatch.setattr(runner, "amplitude_agreement", lambda cfg: {"passed": True})
    cfg = parse_scenario(_text(scheme, backend, trials, yes_rate))
    streams = np.random.default_rng(cfg.seed).spawn(trials)
    inputs = {tuple(runner._trial_votes(cfg, rng) or ()) for rng in streams}
    calls = _count_preparations(monkeypatch)
    execute(cfg, "run")
    assert len(calls) == len(runner._backends(cfg)) * len(inputs)
    assert len(set(calls)) == len(calls)
    if trials == 0:
        assert calls == []


def test_many_trials_draw_from_one_scored_readout(monkeypatch):
    """2000 trials of one vote vector: one preparation and one scoring per backend
    (on branch, the label frame's build and scoring), no ``measure_targets``, and the
    records of the trial-by-trial loop."""
    text = _text("distributed", "both", 2000)
    want = _reference_records(parse_scenario(text), "dense")
    scored = []
    for cls in (backends.DenseBackend, backends.BranchBackend):
        score = cls.score_targets
        monkeypatch.setattr(cls, "score_targets",
                            lambda self, *a, score=score, **k: scored.append(self.name) or score(self, *a, **k))
        monkeypatch.setattr(cls, "measure_targets", lambda *a, **k: pytest.fail("measured a trial"))
    weights = protocols._phase_weights  # the label frame's scoring, on branch
    monkeypatch.setattr(protocols, "_phase_weights", lambda *a: scored.append("branch") or weights(*a))
    monkeypatch.setattr(runner, "amplitude_agreement", lambda cfg: {"passed": True})
    calls = _count_preparations(monkeypatch)
    report = execute(parse_scenario(text), "run")
    assert scored == ["dense", "branch"] and len(calls) == 2
    assert report.trial_records == want and report.summary["outcome_histogram"] == {"2": 2000}


# ---------------------------------------------------------------------------
# verify's checks: once per distinct state


VOTES = {"all-zero": [0, 0, 0, 0], "all-one": [1, 1, 1, 1], "mixed": [1, 0, 0, 1]}


def _privacy_reference(res, bk, D, registers):
    """The trace distances of every register at every step, computed step by step."""
    mixed = maximally_mixed(D).matrix
    steps = [s["state"] for s in res.transcript.states if s["label"] != "post-measurement"]
    return [{"step": step, "register": r, "trace_distance": trace_distance(bk.reduced(state, [r]), mixed)}
            for step, state in enumerate(steps) for r in range(registers)]


@pytest.mark.parametrize("backend", ["dense", "branch"])
@pytest.mark.parametrize("votes", sorted(VOTES))
@pytest.mark.parametrize("scheme,registers", [("distributed", 4), ("dolev", 4), ("traveling", 2)])
def test_privacy_checked_once_per_distinct_state(monkeypatch, backend, votes, scheme, registers):
    votes = VOTES[votes]
    config = protocols.ProtocolConfig(D=5, N=4)
    bk = backends.get_backend(backend)
    reduced, calls = type(bk).reduced, []
    monkeypatch.setattr(type(bk), "reduced", lambda self, *a: calls.append(1) or reduced(self, *a))
    res = getattr(protocols, f"run_{scheme}")(config, votes, backend, rng=np.random.default_rng(3),
                                              record_privacy=True, record_states=True)
    assert len(calls) == registers * (1 + sum(votes))  # the ballot, and each yes vote's state
    monkeypatch.setattr(type(bk), "reduced", reduced)
    want = _privacy_reference(res, bk, 5, registers)
    assert [(e["step"], e["register"], float(e["trace_distance"]).hex()) for e in res.transcript.privacy] \
        == [(e["step"], e["register"], float(e["trace_distance"]).hex()) for e in want]


def _deviation_reference(dense, branch) -> float:
    dev = 0.0
    for sa, sb in zip(dense.transcript.states, branch.transcript.states):
        da = align_global_phase(sa["state"].amps)
        db = align_global_phase(to_dense(sb["state"]).amps)
        dev = max(dev, float(np.max(np.abs(da - db))))
    return dev


@pytest.mark.parametrize("votes", sorted(VOTES))
@pytest.mark.parametrize("scheme", ["distributed", "dolev", "traveling"])
def test_amplitude_deviation_equals_the_all_steps_loop(votes, scheme):
    cfg = scenario.ScenarioConfig(scheme=scheme, D=5, N=4, votes=VOTES[votes], seed=1)
    dense, branch = scenario._ballot_runs(cfg, cfg.votes, record_states=True)
    got = scenario._amplitude_deviation(dense, branch)["max_deviation"]
    assert float(got).hex() == float(_deviation_reference(dense, branch)).hex()


def test_verify_dolev_traces_each_distinct_state_once(monkeypatch):
    """A D=7, N=6 dolev verify on 'both': N partial traces per distinct dense state."""
    cfg = parse_scenario("[protocol]\nscheme = dolev\nN = 6\nvotes = 1,0,1,1,0,0\n"
                         "[run]\nbackend = both\nseed = 1\n")
    reduced, calls = backends.DenseBackend.reduced, []
    monkeypatch.setattr(backends.DenseBackend, "reduced",
                        lambda self, *a: calls.append(1) or reduced(self, *a))
    assert execute(cfg, "verify").passed
    assert len(calls) == 6 * (1 + 3)


# ---------------------------------------------------------------------------
# the dense ballot and the sweep budget


def test_dense_ghz_is_the_constructor_bits():
    for D, N in [(2, 1), (2, 5), (3, 4), (5, 4), (7, 6), (11, 2), (16, 3)]:
        amps = np.zeros(D**N, dtype=complex)
        amps[np.arange(D) * ((D**N - 1) // (D - 1))] = 1.0 / np.sqrt(D)
        state = make_uniform_ghz(D, N)
        assert state.amps.tobytes() == DenseState((D,) * N, amps).amps.tobytes()
        assert not state.amps.flags.writeable and state.dims == (D,) * N


@pytest.mark.parametrize("scheme", sorted(name for name, s in SCHEMES.items() if s.sweep))
def test_case_counts_equal_the_enumerations(scheme):
    for N in range(1, 6):
        for D in range(2, 10):
            cfg = scenario.ScenarioConfig(scheme=scheme, D=D, N=N)
            assert SCHEMES[scheme].cases(cfg) == sum(1 for _ in SCHEMES[scheme].sweep(cfg)), (D, N)


def test_sweep_past_the_budget_exits_three_before_it_starts(tmp_path, capsys):
    path = tmp_path / "survey.ini"
    path.write_text("[protocol]\nscheme = survey\nD = 14\nN = 12\nsalaries = 1,0,1,0,1,0,1,0,1,0,1,0\n"
                    "[run]\nbackend = both\n")
    start = time.perf_counter()
    assert main(["sweep", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    cases = SCHEMES["survey"].cases(parse_scenario(path.read_text()))
    assert cases > SWEEP_CASE_BUDGET
    assert capsys.readouterr().err == f"budget error: sweep would run {cases} cases (budget 4096)\n"
    assert main(["run", str(path)]) == 0  # the scenario itself runs
