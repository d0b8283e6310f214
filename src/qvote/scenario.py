"""Scenario files and the registry of schemes and attack kinds.

Flat ``key = value`` lines under bracketed section headers ([protocol],
[secrets], [attack], [run]); lists are comma-separated, angles are radians.
A scenario is checked in full before any simulation. The scenario-level
rules live here: line-numbered parse errors, missing fields, 'votes' against
'yes_rate', the schemes an attack kind may target and verify's N >= 2 for one
register per voter. Every protocol rule (D > N, D = N+1, input ranges, the
secrets, the shift count) is the library entry point's own check, run on the
scenario's inputs; its ValueError becomes a :class:`ScenarioError` naming the
section or field, so the parser rejects what the library would, in its words.

:data:`SCHEMES` holds one :class:`Scheme` per scenario scheme and
:data:`ATTACKS` one :class:`AttackKind` per attack kind: how each validates,
plays its trials, verifies and sweeps. A ballot scheme plays all the trials
of one input vector from one preparation, drawing each from its own stream.
The parser and :mod:`qvote.runner` read only these entries, so adding a
scheme means adding one entry.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import anticheat, attacks, protocols
from .anticheat import AuthoritySecrets
from .backends import get_backend
from .branches import branch_inner, phase_ghz, to_dense
from .matrices import swap_pair_matrix
from .protocols import ProtocolConfig
from .states import DenseBudgetError, align_global_phase

BACKENDS = ("dense", "branch", "both")
THETA_MODES = ("sampled", "exact")


class ScenarioError(ValueError):
    """Invalid scenario document; message carries line/field context."""


@dataclass
class AttackSpec:
    kind: str
    target: int = 0
    pair: list[int] | None = None  # two registers, by attacks._check_pair
    s: int | None = None
    theta_mode: str = "sampled"
    entangler: str = "product"
    repair: bool = True


@dataclass
class SecretsSpec:
    yes_level: int
    no_level: int
    offset: float | None = None


@dataclass
class ScenarioConfig:
    scheme: str
    D: int
    N: int
    votes: list[int] | None = None
    yes_rate: float | None = None  # per-trial iid vote sampling alternative
    salaries: list[int] | None = None
    sender: int | None = None
    message: int | None = None
    secrets: SecretsSpec | None = None
    attack: AttackSpec | None = None
    backend: str = "dense"
    seed: int = 0
    trials: int = 1
    repetitions: int = 1
    raw: dict = field(default_factory=dict)

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(D=self.D, N=self.N, scheme=self.scheme, seed=self.seed)

    def authority_secrets(self, rng) -> AuthoritySecrets:
        """The [secrets] levels, or valid secrets drawn with ``rng`` without
        them; a missing offset is drawn from [0, 2*pi/D) with ``rng``."""
        if self.secrets is None:
            return anticheat.random_secrets(self.D, self.N, rng)
        offset = self.secrets.offset
        if offset is None:
            offset = float(rng.uniform(0.0, 2 * np.pi / self.D))
        return AuthoritySecrets(self.secrets.yes_level, self.secrets.no_level, offset)


# ---------------------------------------------------------------------------
# registry entries


@dataclass(frozen=True)
class Scheme:
    """What the parser and the runner know about one scenario scheme."""

    play: Callable  # (cfg, votes, backend, rngs) -> one honest trial's record per stream
    outcome_key: str  # the record field the outcome histogram counts
    checks: Callable  # (cfg) -> {name: check} for verify, in report order
    validate: Callable | None = None  # (cfg) -> None; raises ScenarioError
    expected: Callable | None = None  # (cfg) -> the outcome an honest trial must give
    sweep: Callable | None = None  # (cfg) -> field overrides, one per sweep case
    cases: Callable | None = None  # (cfg) -> how many cases sweep yields, not enumerated
    ballot: Callable | None = None  # (protocol config, votes) -> the protocols.Ballot verify runs
    takes_votes: bool = True  # a 0/1 'votes' vector or a 'yes_rate'
    d_follows_n: bool = False  # D defaults to N+1

    def trial(self, cfg, votes, backend, rng) -> dict:
        """One honest trial's record: :attr:`play` on one stream."""
        return self.play(cfg, votes, backend, [rng])[0]


@dataclass(frozen=True)
class AttackKind:
    """What the parser and the runner know about one attack kind."""

    schemes: tuple[str, ...]  # the schemes it attacks
    run: Callable  # (cfg) -> (backend, rng) -> (summary, trial records); see "attack runs"
    required: tuple[str, ...] = ()  # [attack] fields without a default


def _vote_sum(cfg: ScenarioConfig) -> int:
    return sum(cfg.votes)


def _vote_vectors(cfg: ScenarioConfig):
    return ({"votes": list(v)} for v in itertools.product((0, 1), repeat=cfg.N))


def _vote_vector_count(cfg: ScenarioConfig) -> int:
    return 2 ** cfg.N


def _orthonormal(D: int, regs: int) -> dict:
    """Gram deviation of the phase-GHZ family on ``regs`` registers."""
    targets = [phase_ghz(D, regs, 2 * np.pi * q / D) for q in range(D)]
    gram = np.array([[branch_inner(a, b) for b in targets] for a in targets])
    dev = float(np.max(np.abs(gram - np.eye(D))))
    return {"passed": dev <= 1e-12, "max_deviation": dev}


def _ballot_runs(cfg: ScenarioConfig, votes, **record) -> list:
    """One honest ballot per backend, dense first, under the scenario's seed."""
    ballot = SCHEMES[cfg.scheme].ballot(cfg.protocol_config(), votes)
    return [protocols._run_ballot(ballot, get_backend(backend), np.random.default_rng(cfg.seed), **record)
            for backend in ("dense", "branch")]


def _amplitude_deviation(dense, branch) -> dict:
    """Largest per-step amplitude gap between two runs that recorded states; a step
    whose two states are both the previous step's objects adds nothing new."""
    dev, last = 0.0, (None, None)
    for sa, sb in zip(dense.transcript.states, branch.transcript.states):
        a, b = sa["state"], sb["state"]
        if a is last[0] and b is last[1]:
            continue
        last = a, b
        da = align_global_phase(a.amps)
        db = align_global_phase(to_dense(b).amps)
        dev = max(dev, float(np.max(np.abs(da - db))))
    return {"passed": dev <= 1e-12, "max_deviation": dev}


def amplitude_agreement(cfg: ScenarioConfig) -> dict:
    """Per-step amplitude comparison of the two backends on one honest run."""
    if SCHEMES[cfg.scheme].ballot is None or cfg.votes is None:
        return {"passed": True, "max_deviation": 0.0, "note": "amplitude check not applicable"}
    try:
        return _amplitude_deviation(*_ballot_runs(cfg, cfg.votes, record_states=True))
    except DenseBudgetError:
        return {"passed": True, "max_deviation": None, "note": "dense budget exceeded"}


def _ballot(build: Callable, validate, tally_basis=False, per_voter=False, **kw) -> Scheme:
    """A quantum ballot: its trials play the :class:`~qvote.protocols.Ballot` that
    ``build(config, votes)`` makes, their records listing any announced values, and
    verify runs it once per backend; a ``per_voter`` ballot has one register per voter."""

    def play(cfg, votes, backend, rngs):
        ballot = build(cfg.protocol_config(), votes)
        return [{"tally": m, "votes": votes} | ({} if announced is None else {"announced": announced})
                for m, announced in ballot.tallies(get_backend(backend), rngs)]

    def checks(cfg):
        if per_voter and cfg.N < 2:
            raise ScenarioError(f"verify: scheme {cfg.scheme!r} checks ballot privacy, which needs "
                                f"N >= 2 (got N={cfg.N}): a lone voter's register holds the tally")
        votes = cfg.votes or [0] * cfg.N
        # One run per backend records both; recording draws no randomness.
        dense, branch = _ballot_runs(cfg, votes, record_privacy=True, record_states=True)
        worst = max(e["trace_distance"] for r in (dense, branch) for e in r.transcript.privacy)
        out = {
            "privacy_reduced_density": {"passed": worst <= 1e-12, "max_trace_distance": worst},
            "tally_correct": {"passed": branch.m == sum(votes), "tally": branch.m},
            "backend_amplitudes": _amplitude_deviation(dense, branch),
        }
        if tally_basis:
            out["tally_basis_orthonormal"] = _orthonormal(cfg.D, cfg.N)
        return out

    return Scheme(play, "tally", checks, validate, expected=_vote_sum, sweep=_vote_vectors,
                  cases=_vote_vector_count, ballot=build, **kw)


def _outcome_check(name: str):
    """Verify check: one honest trial on the branch backend gives the expected outcome."""

    def checks(cfg):
        scheme = SCHEMES[cfg.scheme]
        if scheme.takes_votes and cfg.votes is None:
            cfg = replace(cfg, votes=[0] * cfg.N, yes_rate=None)
        rng = np.random.default_rng(cfg.seed)
        got = scheme.trial(cfg, cfg.votes, "branch", rng)[scheme.outcome_key]
        return {name: {"passed": got == scheme.expected(cfg), "value": got}}

    return checks


def _per_stream(trial: Callable) -> Callable:
    """``play`` for a scheme that prepares nothing: ``trial(cfg, votes, backend, rng)`` per stream."""
    return lambda cfg, votes, backend, rngs: [trial(cfg, votes, backend, rng) for rng in rngs]


def _anticheat(variant: str) -> Scheme:
    def trial(cfg, votes, backend, rng):
        secrets = cfg.authority_secrets(rng)
        agg = anticheat.run_repeated(
            cfg.D, cfg.N, secrets, votes, cfg.repetitions, rng, backend=backend, variant=variant
        )
        return {"qs": agg.qs, "m_inferred": agg.results[0].m_inferred,
                "cheat_detected": agg.cheat_detected}

    def checks(cfg):
        rng = np.random.default_rng(cfg.seed)
        secrets = cfg.authority_secrets(rng)
        votes = cfg.votes or [0] * cfg.N
        round_ = anticheat.setup(cfg.D, cfg.N, secrets, rng, variant, backend="branch")
        res = anticheat.play(round_, votes, rng)  # step by step: the oracle reports the probability
        return {
            "honest_readout_deterministic": {
                "passed": res.q == sum(votes) * secrets.gap and res.probability > 1 - 1e-10,
                "q": res.q,
                "probability": res.probability,
            },
            "readout_basis_orthonormal": _orthonormal(cfg.D, len(round_.backend.dims(round_.state))),
        }

    return Scheme(_per_stream(trial), "qs", checks, _secrets_valid)


def _broadcast_play(cfg, votes, backend, rngs):
    ballot = protocols._broadcast_ballot(cfg.protocol_config(), cfg.sender, cfg.message)
    return [{"reconstructed": m} for m, _ in ballot.tallies(get_backend(backend), rngs)]


def _survey_play(cfg, votes, backend, rngs):
    ballot = protocols._survey_ballot(cfg.protocol_config(), cfg.salaries)
    return [{"total": m, "average": str(Fraction(m, cfg.N))}
            for m, _ in ballot.tallies(get_backend(backend), rngs)]


def _classical_trial(cfg, votes, backend, rng):
    return {"tally": protocols.run_classical_baseline(cfg.N, votes, rng).m, "votes": votes}


def _survey_cases(cfg):
    for sal in itertools.product(range(min(3, cfg.D)), repeat=cfg.N):
        if sum(sal) < cfg.D:
            yield {"salaries": list(sal)}


def _survey_case_count(cfg) -> int:
    """How many salary vectors :func:`_survey_cases` yields, N entries below
    t = min(3, D) summing to at most D-1, without enumerating them: the N-tuples
    of non-negative integers summing to at most S number C(S+N, N), and
    inclusion-exclusion removes those with j entries at t or more."""
    t, D, N = min(3, cfg.D), cfg.D, cfg.N
    return sum((-1) ** j * math.comb(N, j) * math.comb(D - 1 - j * t + N, N)
               for j in range(min(N, (D - 1) // t) + 1))


# ---------------------------------------------------------------------------
# attack runs: ``kind(cfg)`` checks what only the attack reads, then returns the run


_REPORT_FIELDS = ("kind", "trials", "detection_rate", "analytic_detection", "leak_accuracy",
                  "outcome_histogram", "statistics")


def _report(rep: attacks.AttackReport) -> tuple[dict, list]:
    records = [{"trial": None, "outcome": k, "count": v}
               for k, v in sorted(rep.outcome_histogram.items())]
    return {name: getattr(rep, name) for name in _REPORT_FIELDS}, records


def _swap(cfg):
    _votes(cfg, cfg.N)
    return lambda backend, rng: _report(attacks.run_swap_attack(
        cfg.protocol_config(), cfg.votes, cfg.attack.target, cfg.attack.pair, rng,
        trials=cfg.trials, repair=cfg.attack.repair, backend=backend, seed=cfg.seed))


def _mitm(cfg):
    _tally_room(cfg)
    _votes(cfg, cfg.N)
    return lambda backend, rng: _report(attacks.run_mitm_traveling(
        cfg.protocol_config(), cfg.votes, cfg.attack.target, rng,
        backend=backend, repair=cfg.attack.repair, trials=cfg.trials, seed=cfg.seed))


_ENTANGLERS = {
    "product": lambda D, rng: attacks.random_product_attack(D, rng),
    "swap": lambda D, rng: swap_pair_matrix(D),
    "identity": lambda D, rng: np.eye(D * D, dtype=complex),
}


def _entangling(cfg):
    _votes(cfg, cfg.N)
    return lambda backend, rng: _report(attacks.run_entangling_attack(
        cfg.protocol_config(), cfg.votes, cfg.attack.target,
        _ENTANGLERS[cfg.attack.entangler](cfg.D, rng), cfg.attack.pair, rng,
        trials=cfg.trials, backend=backend, seed=cfg.seed))


def _classical(cfg):
    _votes(cfg, cfg.N)
    return lambda backend, rng: _report(attacks.run_classical_eavesdrop(
        cfg.N, cfg.votes, cfg.attack.target, rng, trials=cfg.trials, seed=cfg.seed))


def _cheater(cfg):
    _secrets_valid(cfg)
    _votes(cfg, cfg.N - 1)  # the cheater is voter N-1; 'votes' lists the others
    return lambda backend, rng: _cheat(cfg, rng)


def _cheat(cfg, rng):
    att = cfg.attack
    secrets = cfg.authority_secrets(rng)
    fixed = (secrets.yes_angle(cfg.D), secrets.no_angle(cfg.D)) if att.theta_mode == "exact" else ()
    plan = attacks.CheaterPlan(att.s, *fixed)  # estimates left out are sampled
    run = attacks.run_cheater_attack(cfg.D, cfg.N, secrets, cfg.votes, plan, rng, trials=cfg.trials,
                                     variant=cfg.scheme.removeprefix("anticheat-"))
    counts = np.bincount(run["q"][run["q"] >= 0], minlength=cfg.D)
    records = [{"trial": i, "q": None if q < 0 else q, "r": r, "cheat_flag": flag} for i, (q, r, flag)
               in enumerate(zip(run["q"].tolist(), run["r"].tolist(), run["cheat_flag"].tolist()))]
    summary = {"kind": "cheater", "trials": cfg.trials, "q_histogram": counts.tolist(),
               "single_round_flags": int(run["cheat_flag"].sum()), "m_honest": sum(cfg.votes)}
    levels = (secrets.yes_level, secrets.no_level)
    if levels == (1, 0) and cfg.D == cfg.N + 1 and cfg.D < 2 * att.s < 2 * cfg.D and cfg.trials > 0:
        analytic = attacks.analytic_pq(cfg.D, att.s, sum(cfg.votes))
        summary["tv_vs_analytic"] = attacks.total_variation(counts, analytic)
        summary["analytic_pq"] = analytic.tolist()
    return summary, records


# ---------------------------------------------------------------------------
# validation: the library's checks, named by section or field


def _checked(where: str, check: Callable, *args) -> None:
    """Run ``check(*args)``, one of the library's input checks; its ValueError
    becomes a ScenarioError that names ``where``."""
    try:
        check(*args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _votes(cfg: ScenarioConfig, count: int) -> None:
    _checked("section [protocol]", protocols._check_votes, cfg.votes, count)


def _tally_room(cfg: ScenarioConfig) -> None:
    _checked("section [protocol]", cfg.protocol_config().require_tally_room)


def _dolev_valid(cfg: ScenarioConfig) -> None:
    _checked("section [protocol]", cfg.protocol_config().require_announcement_dim)


def _broadcast_valid(cfg: ScenarioConfig) -> None:
    if cfg.sender is None or cfg.message is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: requires 'sender' and 'message'")
    _checked("section [protocol]", protocols._check_broadcast, cfg.protocol_config(),
             cfg.sender, cfg.message)


def _survey_valid(cfg: ScenarioConfig) -> None:
    if cfg.salaries is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: missing required field 'salaries'")
    _checked("field 'salaries'", protocols._check_salaries, cfg.protocol_config(), cfg.salaries)


def _secrets_valid(cfg: ScenarioConfig) -> None:
    """The [secrets] levels (a missing offset is drawn valid), or the room to draw them."""
    if cfg.secrets is None:
        _checked("section [protocol]", anticheat.max_gap, cfg.D, cfg.N)
    else:
        levels = (cfg.secrets.yes_level, cfg.secrets.no_level, cfg.secrets.offset or 0.0)
        _checked("section [secrets]", AuthoritySecrets(*levels).validate, cfg.D, cfg.N)


def validate(cfg: ScenarioConfig) -> None:
    """Check the scenario-level rules, then run the library's checks on the
    inputs of the scheme, or of the attack when there is one."""
    scheme = SCHEMES[cfg.scheme]
    if (cfg.votes is not None or cfg.yes_rate is not None) != scheme.takes_votes:
        wanted = ("missing required field 'votes'" if scheme.takes_votes
                  else "takes no 'votes' or 'yes_rate'")
        raise ScenarioError(f"scheme {cfg.scheme!r}: {wanted}")
    if cfg.yes_rate is not None:
        if cfg.votes is not None:
            raise ScenarioError("give either 'votes' or 'yes_rate', not both")
        if not 0.0 <= cfg.yes_rate <= 1.0:
            raise ScenarioError("field 'yes_rate': requires a probability in [0, 1]")
        if cfg.attack is not None:
            raise ScenarioError("attack scenarios need explicit 'votes'")
    if cfg.attack is None:
        if cfg.votes is not None:
            _votes(cfg, cfg.N)
        if scheme.validate is not None:
            scheme.validate(cfg)
        return
    attack, kind = cfg.attack, ATTACKS[cfg.attack.kind]
    if cfg.scheme not in kind.schemes:
        wanted = " or ".join(repr(s) for s in kind.schemes)
        raise ScenarioError(f"attack {attack.kind!r}: requires scheme {wanted}")
    for name in kind.required:
        if getattr(attack, name) is None:
            raise ScenarioError(f"attack {attack.kind!r}: missing required field {name!r}")
    _checked("field 'target'", attacks._check_target, attack.target, cfg.N)
    if attack.pair is not None:
        _checked("field 'pair'", attacks._check_pair, attack.pair, cfg.N)
    if attack.s is not None:
        _checked("field 's'", attacks.CheaterPlan, attack.s)
    kind.run(cfg)


SCHEMES: dict[str, Scheme] = {
    "traveling": _ballot(protocols._traveling_ballot, _tally_room),
    "distributed": _ballot(protocols._distributed_ballot, _tally_room, tally_basis=True, per_voter=True),
    "dolev": _ballot(protocols._dolev_ballot, _dolev_valid, per_voter=True, d_follows_n=True),
    "broadcast": Scheme(
        _broadcast_play, "reconstructed", _outcome_check("message_reconstructed"),
        _broadcast_valid, expected=lambda cfg: cfg.message, takes_votes=False,
        sweep=lambda cfg: ({"sender": s, "message": m} for s in range(cfg.N) for m in range(cfg.D)),
        cases=lambda cfg: cfg.N * cfg.D,
    ),
    "survey": Scheme(
        _survey_play, "total", _outcome_check("total_correct"), _survey_valid,
        expected=lambda cfg: sum(cfg.salaries), sweep=_survey_cases, cases=_survey_case_count,
        takes_votes=False,
    ),
    "classical-baseline": Scheme(
        _per_stream(_classical_trial), "tally", _outcome_check("tally_correct"),
        expected=_vote_sum, sweep=_vote_vectors, cases=_vote_vector_count, d_follows_n=True,
    ),
    "anticheat-distributed": _anticheat("distributed"),
    "anticheat-traveling": _anticheat("traveling"),
}

ATTACKS: dict[str, AttackKind] = {
    "cheater": AttackKind(("anticheat-distributed", "anticheat-traveling"), _cheater, required=("s",)),
    "swap": AttackKind(("distributed",), _swap),
    "entangling": AttackKind(("distributed",), _entangling, required=("pair",)),
    "mitm": AttackKind(("traveling",), _mitm),
    "classical": AttackKind(("classical-baseline",), _classical),
}


# ---------------------------------------------------------------------------
# parsing


def _bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(v)


def _int_list(v: str) -> list[int]:
    if not v.strip():
        return []
    return [int(x.strip()) for x in v.split(",")]


# Keys and value types per section; defaults live on the dataclasses.
_FIELDS = {
    "protocol": {"scheme": str, "D": int, "N": int, "votes": _int_list, "yes_rate": float,
                 "salaries": _int_list, "sender": int, "message": int},
    "secrets": {"yes_level": int, "no_level": int, "offset": float},
    "attack": {"kind": str, "target": int, "pair": _int_list, "s": int, "theta_mode": str,
               "entangler": str, "repair": _bool},
    "run": {"backend": str, "seed": int, "trials": int, "repetitions": int},
}
_REQUIRED = {"protocol": ("scheme", "N"), "secrets": ("yes_level", "no_level"), "attack": ("kind",)}
_CHOICES = {"scheme": SCHEMES, "kind": ATTACKS, "theta_mode": THETA_MODES,
            "entangler": _ENTANGLERS, "backend": BACKENDS}
_MINIMUMS = {"N": 1, "D": 2, "seed": 0, "trials": 0, "repetitions": 1}


def _convert(section: str, key: str, value: str, lineno: int):
    try:
        out = _FIELDS[section][key](value)
    except ValueError:
        raise ScenarioError(f"line {lineno}: field {key!r} has invalid value {value!r}") from None
    if key in _CHOICES and out not in _CHOICES[key]:
        raise ScenarioError(
            f"line {lineno}: unknown {key} {out!r}; expected one of {', '.join(_CHOICES[key])}"
        )
    if key in _MINIMUMS and out < _MINIMUMS[key]:
        raise ScenarioError(f"line {lineno}: field {key!r}: requires {key} >= {_MINIMUMS[key]}")
    return out


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, object]]]:
    """{section: {key: (text as written, converted value)}}."""
    sections: dict[str, dict[str, tuple[str, object]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _FIELDS:
                raise ScenarioError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ScenarioError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS[current]:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = (value, _convert(current, key, value, lineno))
    if "protocol" not in sections:
        raise ScenarioError("missing required section [protocol]")
    return sections


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    sections = _parse_sections(text)
    values = {name: {k: v for k, (_, v) in kv.items()} for name, kv in sections.items()}
    for name, keys in _REQUIRED.items():
        for key in keys:
            if name in values and key not in values[name]:
                raise ScenarioError(f"missing required field {key!r} in [{name}]")
    proto = values["protocol"]
    if "D" not in proto:
        if not SCHEMES[proto["scheme"]].d_follows_n:
            raise ScenarioError("missing required field 'D' in [protocol]")
        proto["D"] = proto["N"] + 1
    cfg = ScenarioConfig(
        **proto,
        **values.get("run", {}),
        secrets=SecretsSpec(**values["secrets"]) if "secrets" in values else None,
        attack=AttackSpec(**values["attack"]) if "attack" in values else None,
        raw={name: {k: written for k, (written, _) in kv.items()} for name, kv in sections.items()},
    )
    validate(cfg)
    return cfg
