"""Scenario files and the registry of schemes and attack kinds.

Flat ``key = value`` lines under bracketed section headers ([protocol],
[secrets], [attack], [run]); lists are comma-separated, angles are radians.
Every constraint of the selected scheme is checked here, before any
simulation, and diagnostics carry the offending line or field plus the
precondition they violate.

:data:`SCHEMES` holds one :class:`Scheme` per scenario scheme and
:data:`ATTACKS` one :class:`AttackKind` per attack kind: how each validates,
runs one trial, verifies and sweeps. The parser and :mod:`qvote.runner` read
only these entries, so adding a scheme means adding one entry.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import anticheat, attacks, protocols
from .anticheat import AuthoritySecrets
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
    pair: tuple[int, int] | None = None
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

    trial: Callable  # (cfg, votes, backend, rng) -> record of one honest trial
    outcome_key: str  # the record field the outcome histogram counts
    checks: Callable  # (cfg) -> {name: check} for verify, in report order
    validate: Callable | None = None  # (cfg) -> None; raises ScenarioError
    expected: Callable | None = None  # (cfg) -> the outcome an honest trial must give
    sweep: Callable | None = None  # (cfg) -> field overrides, one per sweep case
    ballot: str | None = None  # protocols.run_* that records states and privacy
    takes_votes: bool = True  # a 0/1 'votes' vector or a 'yes_rate'
    d_follows_n: bool = False  # D defaults to N+1


@dataclass(frozen=True)
class AttackKind:
    """What the parser and the runner know about one attack kind."""

    schemes: tuple[str, ...]  # the schemes it attacks
    run: Callable  # (cfg, backend, rng) -> (summary, trial records)
    required: tuple[str, ...] = ()  # [attack] fields without a default
    casts_vote: bool = False  # the attacker is voter N-1; 'votes' lists the others
    tally_room: bool = True  # False: D <= N is allowed


def _vote_sum(cfg: ScenarioConfig) -> int:
    return sum(cfg.votes)


def _vote_vectors(cfg: ScenarioConfig):
    return ({"votes": list(v)} for v in itertools.product((0, 1), repeat=cfg.N))


def _orthonormal(D: int, regs: int) -> dict:
    """Gram deviation of the phase-GHZ family on ``regs`` registers."""
    targets = [phase_ghz(D, regs, 2 * np.pi * q / D) for q in range(D)]
    gram = np.array([[branch_inner(a, b) for b in targets] for a in targets])
    dev = float(np.max(np.abs(gram - np.eye(D))))
    return {"passed": dev <= 1e-12, "max_deviation": dev}


def _ballot_runs(cfg: ScenarioConfig, votes, **record) -> list:
    """One honest ballot per backend, dense first, under the scenario's seed."""
    run = getattr(protocols, SCHEMES[cfg.scheme].ballot)
    return [run(cfg.protocol_config(), votes, backend, rng=np.random.default_rng(cfg.seed), **record)
            for backend in ("dense", "branch")]


def _amplitude_deviation(dense, branch) -> dict:
    """Largest per-step amplitude gap between two runs that recorded states."""
    dev = 0.0
    for sa, sb in zip(dense.transcript.states, branch.transcript.states):
        da = align_global_phase(sa["state"].amps)
        db = align_global_phase(to_dense(sb["state"]).amps)
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


def _ballot(run: str, validate, announces=False, tally_basis=False, per_voter=False, **kw) -> Scheme:
    """A quantum ballot tallied by ``protocols.<run>``, looked up at call time
    so that wrappers installed on the module see every call; a ``per_voter``
    ballot has one register per voter."""

    def trial(cfg, votes, backend, rng):
        res = getattr(protocols, run)(cfg.protocol_config(), votes, backend, rng=rng)
        record = {"tally": res.m, "votes": votes}
        if announces:
            record["announced"] = [
                e["value"] for e in res.transcript.public if e["event"] == "announce"
            ]
        return record

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
            "backend_amplitudes": (amplitude_agreement(cfg) if cfg.votes is None
                                   else _amplitude_deviation(dense, branch)),
        }
        if tally_basis:
            out["tally_basis_orthonormal"] = _orthonormal(cfg.D, cfg.N)
        return out

    return Scheme(trial, "tally", checks, validate, expected=_vote_sum, sweep=_vote_vectors,
                  ballot=run, **kw)


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


def _anticheat(variant: str) -> Scheme:
    def trial(cfg, votes, backend, rng):
        secrets = cfg.authority_secrets(rng)
        agg = anticheat.run_repeated(
            cfg.D, cfg.N, secrets, votes, cfg.repetitions, rng, backend=backend, variant=variant
        )
        return {
            "qs": agg.qs,
            "m_inferred": agg.results[0].m_inferred,
            "cheat_detected": agg.cheat_detected,
        }

    def checks(cfg):
        rng = np.random.default_rng(cfg.seed)
        secrets = cfg.authority_secrets(rng)
        votes = cfg.votes or [0] * cfg.N
        res, round_ = anticheat.run_round(
            cfg.D, cfg.N, secrets, votes, rng, backend="branch", variant=variant
        )
        return {
            "honest_readout_deterministic": {
                "passed": res.q == sum(votes) * secrets.gap and res.probability > 1 - 1e-10,
                "q": res.q,
                "probability": res.probability,
            },
            "readout_basis_orthonormal": _orthonormal(cfg.D, len(round_.backend.dims(round_.state))),
        }

    return Scheme(trial, "qs", checks, _secrets_valid)


def _broadcast_trial(cfg, votes, backend, rng):
    res = protocols.run_broadcast(cfg.protocol_config(), cfg.sender, cfg.message, backend, rng=rng)
    return {"reconstructed": res.m}


def _survey_trial(cfg, votes, backend, rng):
    res = protocols.run_survey(cfg.protocol_config(), cfg.salaries, backend, rng=rng)
    return {"total": res.m, "average": str(res.average)}


def _classical_trial(cfg, votes, backend, rng):
    return {"tally": protocols.run_classical_baseline(cfg.N, votes, rng).m, "votes": votes}


def _survey_cases(cfg):
    for sal in itertools.product(range(min(3, cfg.D)), repeat=cfg.N):
        if sum(sal) < cfg.D:
            yield {"salaries": list(sal)}


# ---------------------------------------------------------------------------
# attack runs


_REPORT_FIELDS = ("kind", "trials", "detection_rate", "analytic_detection", "leak_accuracy",
                  "outcome_histogram", "statistics")


def _eavesdropper(run):
    """Attack run for the models that return an :class:`attacks.AttackReport`."""

    def summarize(cfg, backend, rng):
        rep = run(cfg, backend, rng)
        summary = {name: getattr(rep, name) for name in _REPORT_FIELDS}
        records = [
            {"trial": None, "outcome": k, "count": v}
            for k, v in sorted(rep.outcome_histogram.items())
        ]
        return summary, records

    return summarize


def _swap(cfg, backend, rng):
    att = cfg.attack
    return attacks.run_swap_attack(
        cfg.protocol_config(), cfg.votes, att.target, att.pair, rng,
        trials=cfg.trials, repair=att.repair, backend=backend, seed=cfg.seed,
    )


def _mitm(cfg, backend, rng):
    att = cfg.attack
    return attacks.run_mitm_traveling(
        cfg.protocol_config(), cfg.votes, att.target, rng,
        backend=backend, repair=att.repair, trials=cfg.trials, seed=cfg.seed,
    )


_ENTANGLERS = {
    "product": lambda D, rng: attacks.random_product_attack(D, rng),
    "swap": lambda D, rng: swap_pair_matrix(D),
    "identity": lambda D, rng: np.eye(D * D, dtype=complex),
}


def _entangling(cfg, backend, rng):
    att = cfg.attack
    U = _ENTANGLERS[att.entangler](cfg.D, rng)
    return attacks.run_entangling_attack(
        cfg.protocol_config(), cfg.votes, att.target, U, att.pair, rng,
        trials=cfg.trials, backend=backend, seed=cfg.seed,
    )


def _classical(cfg, backend, rng):
    return attacks.run_classical_eavesdrop(
        cfg.N, cfg.votes, cfg.attack.target, rng, trials=cfg.trials, seed=cfg.seed
    )


def _cheater(cfg, backend, rng):
    att = cfg.attack
    secrets = cfg.authority_secrets(rng)
    fixed = (secrets.yes_angle(cfg.D), secrets.no_angle(cfg.D)) if att.theta_mode == "exact" else ()
    plan = attacks.CheaterPlan(att.s, *fixed)  # estimates left out are sampled
    run = attacks.run_cheater_attack(cfg.D, cfg.N, secrets, cfg.votes, plan, rng, trials=cfg.trials)
    counts = np.bincount(run["q"][run["q"] >= 0], minlength=cfg.D)
    records = [{"trial": i, "q": None if q < 0 else q, "r": r, "cheat_flag": flag} for i, (q, r, flag)
               in enumerate(zip(run["q"].tolist(), run["r"].tolist(), run["cheat_flag"].tolist()))]
    summary = {
        "kind": "cheater",
        "trials": cfg.trials,
        "q_histogram": counts.tolist(),
        "single_round_flags": int(run["cheat_flag"].sum()),
        "m_honest": sum(cfg.votes),
    }
    levels = (secrets.yes_level, secrets.no_level)
    if levels == (1, 0) and cfg.D == cfg.N + 1 and cfg.D < 2 * att.s < 2 * cfg.D and cfg.trials > 0:
        analytic = attacks.analytic_pq(cfg.D, att.s, sum(cfg.votes))
        summary["tv_vs_analytic"] = attacks.total_variation(counts, analytic)
        summary["analytic_pq"] = analytic.tolist()
    return summary, records


# ---------------------------------------------------------------------------
# per-scheme validation


def _tally_room(cfg: ScenarioConfig) -> None:
    """Shift and phase tallies alias mod D unless D > N."""
    relaxed = cfg.attack is not None and not ATTACKS[cfg.attack.kind].tally_room
    if not relaxed and cfg.D <= cfg.N:
        raise ScenarioError(
            f"scheme {cfg.scheme!r}: requires D > N (got D={cfg.D}, N={cfg.N})"
        )


def _dolev_valid(cfg: ScenarioConfig) -> None:
    if cfg.D != cfg.N + 1:
        raise ScenarioError(f"scheme {cfg.scheme!r}: requires D = N+1 (got D={cfg.D}, N={cfg.N})")


def _broadcast_valid(cfg: ScenarioConfig) -> None:
    if cfg.sender is None or cfg.message is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: requires 'sender' and 'message'")
    if not 0 <= cfg.sender < cfg.N:
        raise ScenarioError(f"field 'sender': requires 0 <= sender < N (got {cfg.sender})")
    if not 0 <= cfg.message < cfg.D:
        raise ScenarioError(f"field 'message': requires 0 <= message < D (got {cfg.message})")


def _survey_valid(cfg: ScenarioConfig) -> None:
    if cfg.salaries is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: missing required field 'salaries'")
    if len(cfg.salaries) != cfg.N:
        raise ScenarioError(f"field 'salaries': expected {cfg.N} entries")
    if any(s < 0 for s in cfg.salaries):
        raise ScenarioError("field 'salaries': entries must be non-negative")
    if sum(cfg.salaries) >= cfg.D:
        raise ScenarioError(
            f"scheme {cfg.scheme!r}: requires sum of votes < D (got {sum(cfg.salaries)} >= {cfg.D})"
        )


def _secrets_valid(cfg: ScenarioConfig) -> None:
    if cfg.secrets is None:
        if cfg.D <= cfg.N:
            raise ScenarioError(
                f"scheme {cfg.scheme!r}: drawing secrets without a [secrets] section "
                f"requires D > N (got D={cfg.D}, N={cfg.N})"
            )
        return
    try:
        AuthoritySecrets(
            cfg.secrets.yes_level, cfg.secrets.no_level, cfg.secrets.offset or 0.0
        ).validate(cfg.D, cfg.N)
    except ValueError as exc:
        raise ScenarioError(f"section [secrets]: {exc}") from None


def _votes_valid(cfg: ScenarioConfig) -> None:
    if cfg.yes_rate is not None:
        if cfg.votes is not None:
            raise ScenarioError("give either 'votes' or 'yes_rate', not both")
        if not 0.0 <= cfg.yes_rate <= 1.0:
            raise ScenarioError("field 'yes_rate': requires a probability in [0, 1]")
        if cfg.attack is not None:
            raise ScenarioError("attack scenarios need explicit 'votes'")
        return
    if cfg.votes is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: missing required field 'votes'")
    count = cfg.N - (cfg.attack is not None and ATTACKS[cfg.attack.kind].casts_vote)
    if len(cfg.votes) != count:
        raise ScenarioError(f"field 'votes': expected {count} entries, got {len(cfg.votes)}")
    if any(v not in (0, 1) for v in cfg.votes):
        raise ScenarioError("field 'votes': entries must be 0 or 1")


def _attack_valid(cfg: ScenarioConfig) -> None:
    attack, N = cfg.attack, cfg.N
    kind = ATTACKS[attack.kind]
    if cfg.scheme not in kind.schemes:
        wanted = " or ".join(repr(s) for s in kind.schemes)
        raise ScenarioError(f"attack {attack.kind!r}: requires scheme {wanted}")
    for name in kind.required:
        if getattr(attack, name) is None:
            raise ScenarioError(f"attack {attack.kind!r}: missing required field {name!r}")
    if attack.s is not None and attack.s < 1:
        raise ScenarioError(f"attack {attack.kind!r}: requires s >= 1 (s = 0 is honest)")
    if not 0 <= attack.target < N:
        raise ScenarioError(f"field 'target': requires 0 <= target < N (got {attack.target})")
    if attack.pair is not None:
        i, j = attack.pair
        if i == j or not (0 <= i < N and 0 <= j < N):
            raise ScenarioError("field 'pair': requires two distinct registers below N")


def validate(cfg: ScenarioConfig) -> None:
    """Check every precondition of the scheme and attack against the fields."""
    scheme = SCHEMES[cfg.scheme]
    if cfg.attack is not None:
        _attack_valid(cfg)
    if scheme.validate is not None:
        scheme.validate(cfg)
    if scheme.takes_votes:
        _votes_valid(cfg)
    elif cfg.votes is not None or cfg.yes_rate is not None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: takes no 'votes' or 'yes_rate'")


SCHEMES: dict[str, Scheme] = {
    "traveling": _ballot("run_traveling", _tally_room),
    "distributed": _ballot("run_distributed", _tally_room, tally_basis=True, per_voter=True),
    "dolev": _ballot("run_dolev", _dolev_valid, announces=True, per_voter=True, d_follows_n=True),
    "broadcast": Scheme(
        _broadcast_trial, "reconstructed", _outcome_check("message_reconstructed"),
        _broadcast_valid, expected=lambda cfg: cfg.message, takes_votes=False,
        sweep=lambda cfg: ({"sender": s, "message": m} for s in range(cfg.N) for m in range(cfg.D)),
    ),
    "survey": Scheme(
        _survey_trial, "total", _outcome_check("total_correct"), _survey_valid,
        expected=lambda cfg: sum(cfg.salaries), sweep=_survey_cases, takes_votes=False,
    ),
    "classical-baseline": Scheme(
        _classical_trial, "tally", _outcome_check("tally_correct"),
        expected=_vote_sum, sweep=_vote_vectors, d_follows_n=True,
    ),
    "anticheat-distributed": _anticheat("distributed"),
    "anticheat-traveling": _anticheat("traveling"),
}

ATTACKS: dict[str, AttackKind] = {
    # run_cheater_attack simulates the distributed ballot only, in its label frame
    "cheater": AttackKind(("anticheat-distributed",), _cheater, required=("s",), casts_vote=True),
    "swap": AttackKind(("distributed",), _eavesdropper(_swap), tally_room=False),
    "entangling": AttackKind(
        ("distributed",), _eavesdropper(_entangling), required=("pair",), tally_room=False
    ),
    "mitm": AttackKind(("traveling",), _eavesdropper(_mitm)),
    "classical": AttackKind(("classical-baseline",), _eavesdropper(_classical)),
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


def _pair(v: str) -> tuple[int, int]:
    parts = _int_list(v)
    if len(parts) != 2:
        raise ValueError(v)
    return parts[0], parts[1]


# Keys and value types per section; defaults live on the dataclasses.
_FIELDS = {
    "protocol": {"scheme": str, "D": int, "N": int, "votes": _int_list, "yes_rate": float,
                 "salaries": _int_list, "sender": int, "message": int},
    "secrets": {"yes_level": int, "no_level": int, "offset": float},
    "attack": {"kind": str, "target": int, "pair": _pair, "s": int, "theta_mode": str,
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
