"""Seeded op lists for the three benchmark workloads, with per-op checks.

Every workload is a fixed multiset of op shapes (entry point, backend or
command, size); the seed only draws the inputs inside each shape (votes,
secrets, targets, trial counts within a narrow stratum) and the order of the
cycle. That keeps the cost mix, and so the percentiles, the same from seed to
seed while the library sees fresh inputs.

An op is a timed library call plus an untimed check of its result; the check
returns a list of failed-check descriptions (empty when all passed). Calls
look their entry point up on the qvote module each time, so the tracer's
wrappers see them. Ops reach the library only through public entry points:
``protocols``/``anticheat``/``groups`` functions for ``branch-tally``,
``cli.main`` for ``attack-trials`` and ``runner.execute`` on parsed scenario
text for ``dense-oracle``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

AMP_TOL = 1e-12           # dense-vs-branch amplitude agreement
PASS_PROB_GATE = 1 + 1e-10  # NORM_TOL in states.py; above it the op fails
SIGMAS = 5.0


@dataclass
class Op:
    label: str
    shape: str        # warm-up runs the smallest op of each shape
    size: int
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    stats: dict = field(default_factory=dict)  # facts a traced run reports


def _votes(rng, n):
    return [int(v) for v in rng.integers(0, 2, n)]


def _stratum(rng, lo, hi, i, k):
    """Log-spaced value in stratum i of k over [lo, hi], jittered by +-0.1 of
    a stratum so the cost mix stays put across seeds."""
    pos = (i + 0.5 + 0.2 * (rng.random() - 0.5)) / k
    return int(round(lo * (hi / lo) ** pos))


# ---------------------------------------------------------------------------
# branch-tally: honest rounds on the branch backend


def _tally_op(scheme, D, N, votes, seed):
    from qvote import protocols

    cfg = protocols.ProtocolConfig(D=D, N=N, scheme=scheme)

    def call():
        run = getattr(protocols, f"run_{scheme}")
        return run(cfg, votes, "branch", rng=np.random.default_rng(seed)).m

    def check(m):
        return [] if m == sum(votes) else [f"tally: {scheme} N={N} got {m}, expected {sum(votes)}"]

    return Op(f"{scheme} D={D} N={N}", f"protocols.run_{scheme}", N, call, check)


def _broadcast_op(D, N, sender, message, seed):
    from qvote import protocols

    cfg = protocols.ProtocolConfig(D=D, N=N, scheme="broadcast")

    def call():
        rng = np.random.default_rng(seed)
        return protocols.run_broadcast(cfg, sender, message, "branch", rng=rng).m

    def check(m):
        return [] if m == message else [f"broadcast: got {m}, expected {message}"]

    return Op(f"broadcast D={D} N={N}", "protocols.run_broadcast", N, call, check)


def _survey_op(D, N, salaries, seed):
    from qvote import protocols

    cfg = protocols.ProtocolConfig(D=D, N=N, scheme="survey")

    def call():
        return protocols.run_survey(cfg, salaries, "branch", rng=np.random.default_rng(seed)).m

    def check(m):
        return [] if m == sum(salaries) else [f"survey: got {m}, expected {sum(salaries)}"]

    return Op(f"survey D={D} N={N}", "protocols.run_survey", N, call, check)


def _secrets(rng, D, N):
    from qvote.anticheat import AuthoritySecrets

    gap = int(rng.integers(1, (D - 1) // N + 1))
    no_level = int(rng.integers(0, D - gap))
    return AuthoritySecrets(no_level + gap, no_level, float(rng.uniform(0.0, 2 * np.pi / D)))


def _anticheat_op(D, N, variant, secrets, votes, seed):
    from qvote import anticheat

    m = sum(votes)

    def call():
        rng = np.random.default_rng(seed)
        return anticheat.run_round(D, N, secrets, votes, rng, "branch", variant)[0]

    def check(res):
        if res.q == m * secrets.gap and res.m_inferred == m and not res.cheat_detected \
                and not res.error_outcome:
            return []
        return [f"anticheat: {variant} D={D} N={N} q={res.q} flag={res.cheat_detected}, "
                f"expected q={m * secrets.gap}"]

    return Op(f"anticheat-{variant} D={D} N={N}", f"anticheat.run_round/{variant}", D * N,
              call, check)


def _group_op(group, rep, choices, seed):
    from qvote import groups

    expected = group.identity
    for g in choices:
        expected = int(group.table[expected][g])

    def call():
        rng = np.random.default_rng(seed)
        return groups.run_group_traveling(group, rep, choices, "branch", rng=rng)

    def check(got):
        return [] if got == expected else [f"group product: got {got}, expected {expected}"]

    return Op(f"s3 traveling parties={len(choices)}", "groups.run_group_traveling",
              len(choices), call, check)


def _abelian_op(factors, choices, seed):
    from qvote import groups

    expected = tuple(sum(ch[f] for ch in choices) % d for f, d in enumerate(factors))

    def call():
        rng = np.random.default_rng(seed)
        return groups.run_abelian_distributed(factors, choices, "branch", rng=rng)

    def check(got):
        if tuple(got) == expected:
            return []
        return [f"abelian product: got {got}, expected {expected}"]

    return Op(f"abelian {factors} parties={len(choices)}", "groups.run_abelian_distributed",
              len(choices), call, check)


def branch_tally(seed: int, workdir: Path) -> list[Op]:
    from qvote.groups import regular_representation, symmetric_group_3

    rng = np.random.default_rng([seed, 1])
    s3 = symmetric_group_3()
    s3_rep = regular_representation(s3)
    ops: list[Op] = []

    def op_seed():
        return int(rng.integers(2**31))

    for scheme, sizes in (
        ("distributed", {8: 12, 16: 4, 24: 2, 32: 1, 48: 1}),
        ("traveling", {8: 8, 16: 2, 24: 1, 32: 1}),
        ("dolev", {8: 2, 12: 1}),
    ):
        for N, count in sizes.items():
            for _ in range(count):
                ops.append(_tally_op(scheme, N + 1, N, _votes(rng, N), op_seed()))
    for N in (4, 6, 8):
        D = N + 1
        ops.append(_broadcast_op(D, N, int(rng.integers(N)), int(rng.integers(D)), op_seed()))
        ops.append(_survey_op(2 * N + 1, N, [int(s) for s in rng.integers(0, 3, N)], op_seed()))
    for D, N, variants in (
        (8, 6, ("distributed", "traveling") * 2),
        (8, 7, ("distributed", "traveling") * 2),
        (12, 8, ("distributed", "traveling")),
        (16, 10, ("distributed",)),
    ):
        for variant in variants:
            ops.append(_anticheat_op(D, N, variant, _secrets(rng, D, N), _votes(rng, N), op_seed()))
    for i in range(12):
        parties = 3 + i % 4
        ops.append(_group_op(s3, s3_rep, [int(g) for g in rng.integers(0, 6, parties)], op_seed()))
        factors = ([2, 3], [3, 4, 5], [4, 4])[i % 3]
        choices = [tuple(int(rng.integers(d)) for d in factors) for _ in range(parties)]
        ops.append(_abelian_op(factors, choices, op_seed()))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# attack-trials: adversary scenarios through the CLI


def _within(rate, p, n):
    p = min(max(p, 0.0), 1.0)
    return abs(rate - p) <= SIGMAS * math.sqrt(p * (1 - p) / n) + 1e-12


def _check_attack(summary: dict, spec: dict) -> list[str]:
    """Statistical and exact checks on one attack report summary."""
    fails = []
    kind = spec["kind"]
    if kind == "cheater":
        counts = np.asarray(summary["q_histogram"], dtype=float)
        n = counts.sum()
        if n != spec["trials"]:
            fails.append(f"cheater: {int(n)} readouts for {spec['trials']} trials")
        elif "analytic_pq" in summary and n > 0:
            p = np.asarray(summary["analytic_pq"])
            dev = np.abs(counts / n - p)
            if np.any(dev > SIGMAS * np.sqrt(p * (1 - p) / n)):
                fails.append(f"cheater: q histogram {counts.astype(int).tolist()} misses "
                             f"analytic_pq {np.round(p, 4).tolist()} by more than 5 sigma")
    elif kind == "swap":
        rate, p = summary["detection_rate"], summary["analytic_detection"]
        if not _within(rate, p, summary["trials"]):
            fails.append(f"swap: detection rate {rate} vs 1 - 1/D = {p}")
    elif kind == "entangling":
        stats = summary["statistics"]
        p_pass = stats["pass_probability"]
        if p_pass > PASS_PROB_GATE:
            fails.append(f"entangling: pass_probability {p_pass!r} > 1 + 1e-10")
        if summary["analytic_detection"] is not None \
                and abs(p_pass - stats["analytic_nondetection"]) > 1e-10:
            fails.append(f"entangling: pass probability {p_pass} vs analytic "
                         f"{stats['analytic_nondetection']}")
        if not _within(summary["detection_rate"], 1 - p_pass, summary["trials"]):
            fails.append(f"entangling: detection rate {summary['detection_rate']} vs {1 - p_pass}")
    else:  # mitm, classical: the leak is perfect and the tally intact
        if summary["leak_accuracy"] != 1.0:
            fails.append(f"{kind}: leak accuracy {summary['leak_accuracy']}")
        if summary["detection_rate"] != 0.0:
            fails.append(f"{kind}: detection rate {summary['detection_rate']}")
        want = {f"tally={spec['tally']}": spec["trials"]}
        if summary["outcome_histogram"] != want:
            fails.append(f"{kind}: outcomes {summary['outcome_histogram']}, expected {want}")
    return fails


def _cli_op(path: Path, spec: dict, out: Path) -> Op:
    from qvote import cli

    ref: list[bytes] = []

    def call():
        return cli.main(["attack", str(path), "--format", "json-lines", "--out", str(out)])

    def check(code):
        if code != 0:
            return [f"cli: {path.name} exited {code}"]
        payload = out.read_bytes()
        fails = []
        if not ref:
            ref.append(payload)
        elif payload != ref[0]:
            fails.append(f"json-lines: {path.name} differs from its warm-up output")
        summary = json.loads(payload.splitlines()[-1])["summary"]
        stats = summary.get("statistics", {})
        op.stats["pass_probability_over_1"] = int(stats.get("pass_probability", 0.0) > 1.0)
        return fails + _check_attack(summary, spec)

    op = Op(path.stem, f"cli/{path.stem}", spec["trials"], call, check)
    return op


def _scenario_text(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in body.items()]
    return "\n".join(lines) + "\n"


def _attack_specs(rng):
    """(sections, spec) pairs: seeded variants of the shipped attack scenarios."""
    out = []

    def run_sec(backend, trials):
        return {"backend": backend, "seed": int(rng.integers(10**6)), "trials": trials}

    # A cheater trial's cost grows with D and varies with its sampled outcomes,
    # so larger D gets fewer trials and every cheater op stays below the two
    # costliest swap ops, whose cost is steady; p95 falls among those two.
    cheaters = [(4, 3, _stratum(rng, 4, 32, i, 4)) for i in range(4)]
    cheaters += [(D, s, _stratum(rng, lo, hi, i, 2))
                 for D, lo, hi in ((5, 8, 20), (6, 5, 10))
                 for i, s in enumerate((D // 2 + 1, D - 1))]
    for D, s, trials in cheaters:
        N = D - 1
        votes = _votes(rng, N - 1)
        out.append(({
            "protocol": {"scheme": "anticheat-distributed", "D": D, "N": N,
                         "votes": ",".join(map(str, votes))},
            "secrets": {"yes_level": 1, "no_level": 0},
            "attack": {"kind": "cheater", "s": s, "theta_mode": "sampled"},
            "run": run_sec("branch", trials),
        }, {"kind": "cheater", "trials": trials}))
    swap_trials = [_stratum(rng, 200, 10000, i, 6) for i in range(6)]
    swap_trials += [_stratum(rng, 18000, 20000, i, 2) for i in range(2)]
    for trials, (D, N) in zip(swap_trials, [(2, 3), (3, 3), (4, 3), (5, 4), (4, 4), (8, 3),
                                            (3, 2), (4, 3)]):
        target = int(rng.integers(N))
        other = int((target + 1 + rng.integers(N - 1)) % N)
        out.append(({
            "protocol": {"scheme": "distributed", "D": D, "N": N,
                         "votes": ",".join(map(str, _votes(rng, N)))},
            "attack": {"kind": "swap", "target": target, "pair": f"{target},{other}"},
            "run": run_sec("branch", trials),
        }, {"kind": "swap", "trials": trials}))
    entanglers = ["product", "swap", "product", "identity"] * 3
    for i, ent in enumerate(entanglers):
        D, N = (2, 3, 4)[i % 3], 3
        trials = _stratum(rng, 100, 10000, i, len(entanglers))
        target = int(rng.integers(N))
        pair = (target, (target + 1) % N) if i % 4 else ((target + 1) % N, (target + 2) % N)
        out.append(({
            "protocol": {"scheme": "distributed", "D": D, "N": N,
                         "votes": ",".join(map(str, _votes(rng, N)))},
            "attack": {"kind": "entangling", "entangler": ent, "target": target,
                       "pair": f"{pair[0]},{pair[1]}"},
            "run": run_sec("branch", trials),
        }, {"kind": "entangling", "trials": trials}))
    for i, (D, N, backend) in enumerate([(3, 2, "dense"), (4, 3, "dense"), (5, 4, "branch"),
                                         (4, 3, "branch"), (5, 3, "dense"), (3, 2, "branch")]):
        trials = _stratum(rng, 5, 100, i, 6)
        votes = _votes(rng, N)
        out.append(({
            "protocol": {"scheme": "traveling", "D": D, "N": N, "votes": ",".join(map(str, votes))},
            "attack": {"kind": "mitm", "target": int(rng.integers(N))},
            "run": run_sec(backend, trials),
        }, {"kind": "mitm", "trials": trials, "tally": sum(votes)}))
    for i, N in enumerate([2, 3, 4, 5, 6, 4, 3, 5]):
        trials = _stratum(rng, 100, 5000, i, 8)
        votes = _votes(rng, N)
        out.append(({
            "protocol": {"scheme": "classical-baseline", "N": N,
                         "votes": ",".join(map(str, votes))},
            "attack": {"kind": "classical", "target": int(rng.integers(N))},
            "run": {"seed": int(rng.integers(10**6)), "trials": trials},
        }, {"kind": "classical", "trials": trials, "tally": sum(votes)}))
    return out


SHIPPED_ATTACKS = {
    "cheater_attack.ini": {"kind": "cheater", "trials": 500},
    "swap_attack.ini": {"kind": "swap", "trials": 100000},
    "entangling_attack.ini": {"kind": "entangling", "trials": 1000},
    "mitm_attack.ini": {"kind": "mitm", "trials": 200, "tally": 2},
    "classical_eavesdrop.ini": {"kind": "classical", "trials": 1000, "tally": 3},
}


def attack_trials(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k, (sections, spec) in enumerate(_attack_specs(rng)):
        path = workdir / f"{spec['kind']}-{k:02d}.ini"
        path.write_text(_scenario_text(sections), encoding="utf-8")
        ops.append(_cli_op(path, spec, workdir / f"{path.stem}.jsonl"))
    return [ops[i] for i in rng.permutation(len(ops))]


def shipped_attacks(scenarios: Path, workdir: Path) -> list[Op]:
    """The shipped adversary scenarios, run as they are once per run."""
    return [_cli_op(scenarios / name, spec, workdir / f"shipped-{Path(name).stem}.jsonl")
            for name, spec in SHIPPED_ATTACKS.items()]


# ---------------------------------------------------------------------------
# dense-oracle: runner.execute on honest scenarios, dense and both backends


def _honest_sections(rng, scheme, D, N, backend, trials):
    proto = {"scheme": scheme, "D": D, "N": N}
    if scheme == "broadcast":
        proto |= {"sender": int(rng.integers(N)), "message": int(rng.integers(D))}
        expected = proto["message"]
    elif scheme == "survey":
        salaries = [int(s) for s in rng.integers(0, 2, N)]
        proto["salaries"] = ",".join(map(str, salaries))
        expected = sum(salaries)
    else:
        votes = _votes(rng, N)
        proto["votes"] = ",".join(map(str, votes))
        expected = sum(votes)
    sections = {"protocol": proto}
    if scheme.startswith("anticheat"):
        sections["secrets"] = {"yes_level": 1, "no_level": 0,
                               "offset": float(rng.uniform(0.0, 2 * np.pi / D))}
    sections["run"] = {"backend": backend, "seed": int(rng.integers(10**6)), "trials": trials}
    return sections, expected


def _check_honest(report, command: str, expected) -> list[str]:
    fails = []
    if not report.passed:
        bad = [k for k, v in report.invariants.items() if not v.get("passed")]
        fails.append(f"{command}: report not passed (invariants {bad})")
    for name in ("backend_amplitude_deviation", "backend_amplitudes"):
        dev = report.invariants.get(name, {}).get("max_deviation")
        if dev is not None and dev > AMP_TOL:
            fails.append(f"{command}: dense vs branch amplitudes differ by {dev:.3e}")
    if command == "run":
        key = report.summary["outcome_key"]
        hist = report.summary["outcome_histogram"]
        want = str([expected]) if key == "qs" else str(expected)  # one repetition
        if set(hist) != {want}:
            fails.append(f"run: outcomes {hist}, expected {want}")
    elif command == "sweep" and report.summary["failures"]:
        fails.append(f"sweep: {report.summary['failures']} failing cases")
    return fails


def _dense_op(rng, command, scheme, D, N, backend, trials=1):
    from qvote import runner, scenario

    sections, expected = _honest_sections(rng, scheme, D, N, backend, trials)
    text = _scenario_text(sections)

    def call():
        return runner.execute(scenario.parse_scenario(text), command=command)

    def check(report):
        return _check_honest(report, command, expected)

    amps = D ** (2 * N if scheme == "anticheat-distributed" else N)
    return Op(f"{command} {scheme} D={D} N={N} {backend}", f"runner.execute/{command}/{backend}",
              amps, call, check)


def dense_oracle(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for scheme in ("distributed", "traveling", "dolev"):
        for N in (3, 4, 5, 6):
            ops.append(_dense_op(rng, "run", scheme, N + 1, N, "dense", trials=2))
    ops += [
        _dense_op(rng, "run", "broadcast", 5, 4, "dense"),
        _dense_op(rng, "run", "survey", 6, 4, "dense"),
        _dense_op(rng, "run", "anticheat-distributed", 4, 3, "dense"),
        _dense_op(rng, "run", "anticheat-distributed", 5, 3, "dense"),
        _dense_op(rng, "run", "anticheat-distributed", 5, 4, "dense"),
        _dense_op(rng, "run", "anticheat-traveling", 5, 3, "dense"),
        _dense_op(rng, "run", "anticheat-traveling", 5, 4, "dense"),
    ]
    for scheme, sizes in (("distributed", (4, 5, 6)), ("traveling", (4, 6)), ("dolev", (4, 5, 6))):
        for N in sizes:
            ops.append(_dense_op(rng, "run", scheme, N + 1, N, "both"))
    ops += [_dense_op(rng, "run", "broadcast", 5, 4, "both"),
            _dense_op(rng, "run", "survey", 6, 4, "both")]
    for scheme, sizes in (("distributed", (4, 5, 6)), ("traveling", (4, 6)), ("dolev", (5, 6))):
        for N in sizes:
            ops.append(_dense_op(rng, "verify", scheme, N + 1, N, "both"))
    ops += [
        _dense_op(rng, "verify", "anticheat-distributed", 5, 3, "dense"),
        _dense_op(rng, "verify", "anticheat-traveling", 5, 4, "dense"),
        _dense_op(rng, "verify", "broadcast", 5, 4, "both"),
        _dense_op(rng, "verify", "survey", 6, 4, "both"),
    ]
    for scheme in ("distributed", "traveling", "dolev"):
        for N in (3, 4):
            ops.append(_dense_op(rng, "sweep", scheme, N + 1, N, "both"))
    ops += [_dense_op(rng, "sweep", "broadcast", 4, 3, "both"),
            _dense_op(rng, "sweep", "survey", 5, 3, "both")]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# spot cases: the ROADMAP item-1 baselines, timed once in every traced run


def spot_cases(seed: int, scenarios: Path, workdir: Path) -> list[tuple[str, float, Op]]:
    """(metric name, seconds-to-unit factor, op) for each baseline case."""
    from qvote import attacks
    from qvote.anticheat import AuthoritySecrets

    rng = np.random.default_rng([seed, 4])
    cases = [(f"protocols.distributed.N{N}.ms", 1e3,
              _tally_op("distributed", N + 1, N, _votes(rng, N), int(rng.integers(2**31))))
             for N in (16, 32, 64)]
    cases.append(("anticheat.round.D8N6.ms", 1e3,
                  _anticheat_op(8, 6, "distributed", _secrets(rng, 8, 6), _votes(rng, 6),
                                int(rng.integers(2**31)))))
    secrets = AuthoritySecrets(1, 0, float(rng.uniform(0.0, np.pi / 2)))
    honest, cheat_seed = _votes(rng, 2), int(rng.integers(2**31))

    def cheater():
        return attacks.run_cheater_attack(4, 3, secrets, honest, attacks.CheaterPlan(s=3),
                                  np.random.default_rng(cheat_seed))[0]

    def cheater_check(res):
        return [] if res.q is not None or res.error_outcome else ["cheater: no readout"]

    cases.append(("attacks.cheater.D4N3.ms", 1e3,
                  Op("cheater D=4 N=3", "attacks.run_cheater_attack", 3, cheater, cheater_check)))
    for name in ("swap_attack", "cheater_attack"):
        ini = f"{name}.ini"
        out = workdir / f"spot-{name}.jsonl"
        cases.append((f"cli.{name}.s", 1.0, _cli_op(scenarios / ini, SHIPPED_ATTACKS[ini], out)))
    return cases


BUILDERS = {"branch-tally": branch_tally, "attack-trials": attack_trials,
            "dense-oracle": dense_oracle}

# Host-speed-normalized time of one cycle at the commit that added the
# benchmark. A run times round(--seconds / CYCLE_S) cycles, so every run with
# the same --seconds times the same ops, however fast the code or the host.
CYCLE_S = {"branch-tally": 5.9, "attack-trials": 2.9, "dense-oracle": 2.9}
