"""Attack models and their detection statistics.

Cheating voter: estimates the secret voting angles with a phase-estimation
POVM (Fejer-kernel density, drawn exactly as a uniform phase followed by a
shifted Fourier measurement), votes no with the estimate, and shifts s yes
votes to no votes with a diagonal phase applied s times. The readout
index the authority measures then follows a broad distribution peaked at
(m - s) mod D, reproduced here three ways: the protocol's rounds of either
variant, run as one batch of D label coefficients per trial by the anti-cheat
round engine, a vectorized Monte Carlo over the exact per-trial amplitudes,
and the closed form valid for D = N+1, levels (1, 0), s > D/2.

Eavesdroppers: man-in-the-middle on the traveling ballot (undetectable,
leaks perfectly), the swap attack on the distributed ballot (leaks
perfectly, caught by a pair agreement check with probability 1 - 1/D), the
general entangling attack (detection probability computable from the
attack's columns; undetectable product-form attacks leave the eavesdropper
with a vote-independent reduced state), and the classical baseline
eavesdropper (perfect leak, no detection possible). Each eavesdropper
enumerates its outcome tree once; one function, ``_tree_report``, draws the
trials from it and counts each drawn leaf into the report.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .anticheat import (AuthoritySecrets, ReadoutResult, _cast_vote_on, _check_variant,
                        _label_rounds, authority_correct, setup)
from .backends import get_backend
from .branches import phase_family, shift_family
from .matrices import (
    angle_phase_matrix,
    phase_state,
    phase_vote_matrix,
    shift_matrix,
)
from .protocols import ProtocolConfig, _check_votes, _integers, sample_zero_sum_ballots
from .states import LocalOp, _inverse_cdf, cached_op, sample_index


def total_variation(p, q) -> float:
    """TV distance between two histograms or probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    if p.sum() > 0:
        p = p / p.sum()
    if q.sum() > 0:
        q = q / q.sum()
    return float(0.5 * np.sum(np.abs(p - q)))


# ---------------------------------------------------------------------------
# phase estimation


class PhasePOVM:
    """Continuous phase-estimation measurement on a phase state.

    Measuring (1/sqrt(D)) sum_j e^{ij theta}|j> yields estimates with density
    |sum_j e^{ij(x - theta)}|^2 / (2 pi D), the Fejer kernel centered at
    theta. The measurement is covariant, so a draw is exact: phi uniform in
    [0, 2 pi/D), then k from the phi-shifted Fourier basis, with weights
    |sum_j e^{ij(theta - phi - 2 pi k/D)}|^2 / D^2; the estimate is phi + 2 pi k/D.
    """

    def __init__(self, D: int, theta_true: float):
        if isinstance(D, bool) or not isinstance(D, (int, np.integer)):
            raise ValueError(f"dimension must be an integer, got {D!r}")
        if D < 1:
            raise ValueError("dimension must be >= 1")
        if not math.isfinite(theta_true):
            raise ValueError(f"angle must be finite, got {theta_true!r}")
        self.D = int(D)
        self.theta = float(theta_true) % (2 * np.pi)  # j * theta stays finite in sample

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = x - self.theta
        out = np.full_like(u, float(self.D))
        for d in range(1, self.D):
            out = out + 2 * (self.D - d) * np.cos(d * u)
        return out / (2 * np.pi * self.D)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.D * x
        for d in range(1, self.D):
            out = out + 2 * (self.D - d) / d * (np.sin(d * (x - self.theta)) + np.sin(d * self.theta))
        return out / (2 * np.pi * self.D)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """Estimates in [0, 2 pi) from two uniforms each (phi's, then k's)."""
        out = self._estimates(rng.random((1 if size is None else size, 2)))
        return float(out[0]) if size is None else out

    def _estimates(self, u: np.ndarray) -> np.ndarray:
        """The estimates drawn by the rows of an (n, 2) block of uniforms."""
        phi = u[:, 0] * (2 * np.pi / self.D)
        amps = np.exp(1j * np.outer(self.theta - phi, np.arange(self.D)))
        k = _inverse_cdf(np.abs(np.fft.fft(amps)) ** 2, u[:, 1])
        return (phi + 2 * np.pi * k / self.D) % (2 * np.pi)  # the sum can round up to 2 pi


# ---------------------------------------------------------------------------
# cheating voter


@dataclass(frozen=True)
class CheaterPlan:
    """Shift count plus (optionally fixed) angle estimates.

    Estimates left as None are measured with the phase POVM on the voting
    qudits the authority distributed.
    """

    s: int
    theta_yes_est: float | None = None
    theta_no_est: float | None = None

    def __post_init__(self):
        if isinstance(self.s, bool) or not isinstance(self.s, numbers.Integral):
            raise ValueError(f"shift count must be a positive integer, got {self.s!r}")
        if self.s == 0:
            raise ValueError(
                "s = 0 is an honest vote; run the anti-cheat protocol instead"
            )
        if self.s < 0:
            raise ValueError("shift count must be >= 1")
        _check_estimates(self.theta_yes_est, self.theta_no_est)


def _check_estimates(*estimates) -> None:
    """Fixed angle estimates (None: to be sampled) are finite numbers."""
    for est in estimates:
        if est is not None and not math.isfinite(est):
            raise ValueError(f"angle estimates must be finite, got {est!r}")


def run_cheater_attack(
    D: int,
    N: int,
    secrets: AuthoritySecrets,
    honest_votes,
    plan: CheaterPlan,
    rng: np.random.Generator,
    cheater_position: int | None = None,
    trials: int | None = None,
    variant: str = "distributed",
):
    """Rounds of either anti-cheat variant with one cheating voter (the last
    one by default).

    The cheater measures both his voting qudits with the phase POVM, votes no
    with the estimated no-angle (announcing his genuine outcome r), then
    applies the estimated yes-to-no phase shift s times to the ballot
    register he holds. The voting order does not change the outcome
    statistics; ``cheater_position`` exists to verify exactly that.

    ``trials=None`` plays one round and returns ``(ReadoutResult, info)``. An
    integer returns a dict of per-trial arrays: the readout index ``q`` (-1
    on the error outcome), the cheater's ``r``, ``cheat_flag``, the drawn
    outcome's ``probability``, ``theta_yes_est`` and ``theta_no_est``. The
    trials run 4096 at a time, each chunk from one block of uniforms whose
    columns are one round's draws in order: two per sampled estimate (yes
    first), one per voter, one for the readout.
    """
    honest_votes = _check_votes(honest_votes, N - 1)
    cheater = N - 1 if cheater_position is None else cheater_position
    if type(cheater) is bool or not isinstance(cheater, numbers.Integral) or not 0 <= cheater < N:
        raise ValueError(f"cheater position must be an integer in [0, {N}), got {cheater!r}")
    secrets.validate(D, N)
    _check_variant(variant)
    D, N, n = int(D), int(N), 1 if trials is None else trials
    _check_trials(n)
    ests = [(plan.theta_yes_est, secrets.yes_angle(D)), (plan.theta_no_est, secrets.no_angle(D))]
    povms = [PhasePOVM(D, angle) if est is None else None for est, angle in ests]
    votes = honest_votes[:cheater] + [None] + honest_votes[cheater:]  # None: the cheater's
    angles = [None if v is None else ests[1 - v][1] for v in votes]
    width, out = 2 * sum(p is not None for p in povms) + N + 1, {}
    for start in range(0, max(n, 1), _DRAW_CHUNK):
        u, col, est = rng.random((min(_DRAW_CHUNK, n - start), width)), 0, []
        for (fixed, _), povm in zip(ests, povms):
            est.append(povm._estimates(u[:, col:col + 2]) if povm else np.full(len(u), float(fixed)))
            col += 0 if povm is None else 2
        th_y, th_n = est  # the cheater votes with th_n, then shifts s times by the estimated gap
        c = np.full((len(u), D), 1.0 / np.sqrt(D), dtype=complex)  # the GHZ ballot
        rs, _, k, p = _label_rounds(c, secrets, [th_n if a is None else a for a in angles],
                                    u[:, col:], variant, plan.s * (th_n - th_y))
        chunk = {"q": np.where(k < 0, -1, k * secrets.gap), "r": rs[cheater], "probability": p,
                 "cheat_flag": (k < 0) | (k > N), "theta_yes_est": th_y, "theta_no_est": th_n}
        for key, values in chunk.items():
            out.setdefault(key, np.empty(n, values.dtype))[start:start + len(values)] = values
    if trials is not None:
        return out
    (q,), (flag,), (p,) = (out[key].tolist() for key in ("q", "cheat_flag", "probability"))
    result = ReadoutResult(None if q < 0 else q, None if flag else q // secrets.gap, flag, q < 0, p)
    est = {key: float(out[key][0]) for key in ("theta_yes_est", "theta_no_est")}
    return result, {"r": int(out["r"][0]), **est, "m_honest": sum(honest_votes)}


def conditional_pq(
    D: int,
    s: int,
    m: int,
    r: int,
    theta_yes_est: float,
    theta_no_est: float,
    secrets: AuthoritySecrets,
) -> np.ndarray:
    """Closed-form conditional readout distribution over q in [0, D).

    Probability that the corrected state lands on readout index q given the
    cheater's announced r, his angle estimates, and m honest yes votes.
    """
    _integers((D, s, m, r), "D, s, m and r")
    _check_estimates(theta_yes_est, theta_no_est)
    _check_counts(D, m, r, (D - 1) // secrets.gap)  # the most voters the secrets allow
    theta_n = secrets.no_angle(D)
    delta_angle = 2 * np.pi * secrets.gap / D
    phi = m * delta_angle - theta_n - 2 * np.pi * np.arange(D) / D
    gamma = s * (theta_no_est - theta_yes_est) + theta_no_est + phi  # per q
    j = np.arange(D)
    wrap = np.exp(1j * D * (theta_no_est - secrets.offset))
    terms = np.exp(1j * np.outer(j, gamma))  # (j, q)
    low = terms[:r].sum(axis=0) if r > 0 else 0.0
    high = terms[r:].sum(axis=0)
    return np.abs(wrap * low + high) ** 2 / D**2


def _check_counts(D: int, m: int, r: int, N: int) -> None:
    """m honest yes votes of a round with N voters, and an announced r below D."""
    if not 0 <= m <= N - 1:
        raise ValueError("m must be an honest yes-count in [0, N-1]")
    if not 0 <= r < D:
        raise ValueError("r out of range")


def cheater_conditional_distribution(
    D: int,
    N: int,
    secrets: AuthoritySecrets,
    m: int,
    s: int,
    theta_yes_est: float,
    theta_no_est: float,
    r: int,
    backend: str = "dense",
) -> np.ndarray:
    """Exact simulated counterpart of :func:`conditional_pq`.

    Runs the round's own steps with m honest yes votes, forcing every
    vote-measurement outcome (honest voters to 0, the cheater to r) by Born
    projection instead of sampling, and returns the readout distribution over
    all q in [0, D).
    """
    _integers((D, N, s, m, r), "D, N, s, m and r")
    _check_estimates(theta_yes_est, theta_no_est)
    _check_counts(D, m, r, N)
    round_ = setup(D, N, secrets, None, backend=backend)
    bk = round_.backend
    for voter in range(N - 1):
        theta = secrets.yes_angle(D) if voter < m else secrets.no_angle(D)
        round_.announced[voter] = _cast_vote_on(round_, voter, theta, None, forced=0)
    round_.announced[N - 1] = _cast_vote_on(round_, N - 1, theta_no_est, None, forced=r)
    cheat = angle_phase_matrix(D, s * (theta_no_est - theta_yes_est))  # s yes-to-no shifts
    round_.state = bk.apply_local(round_.state, N - 1, cheat)
    authority_correct(round_)
    return np.array(bk.score_targets(round_.state, phase_family(D, len(bk.dims(round_.state))))[0])


def broadness_coefficient(D: int, s: int) -> float:
    """The cosine amplitude c of the closed form; c < 1 makes every readout
    index reachable."""
    return 2 * (D - s) * ((D - 2) * (D - s - 1) + (s + 1)) / D**3


def analytic_pq(D: int, s: int, m: int, q: int | None = None):
    """Closed-form readout distribution for D = N+1, levels (1, 0), s > D/2.

    Returns p(q) for one index, or the full length-D vector when q is None.
    Outside the stated parameter regime the formula is not claimed and the
    call is rejected.
    """
    _integers((D, s, m), "D, s and m")
    if not 2 * s > D:
        raise ValueError(f"closed form requires s > D/2 (got s={s}, D={D})")
    if not s < D:
        raise ValueError(f"closed form requires s < D (got s={s}, D={D})")
    if q is not None and not 0 <= _integers((q,), "readout indices")[0] < D:
        raise ValueError("q out of range")
    c = broadness_coefficient(D, s)
    qs = np.arange(D) if q is None else np.asarray(q)
    p = (1 + c * np.cos(2 * np.pi * (m - s - qs) / D)) / D
    return p if q is None else float(p)


def monte_carlo_pq(
    D: int,
    s: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo histogram over readout indices for the cheating voter.

    Regime as :func:`analytic_pq` (D = N+1, levels (1, 0)); per trial the
    authority offset, both angle estimates, the announced r (from its exact
    protocol distribution), and the readout index are sampled. The per-trial
    readout distribution is the exact branch-amplitude expression, evaluated
    vectorized across trials, so this is the protocol simulation with the
    register bookkeeping contracted away. m enters only through its phase
    multiple, so values up to D-1 are accepted.
    """
    _integers((D, s, m), "D, s and m")
    if not 2 * s > D or not s < D:
        raise ValueError(f"Monte Carlo regime requires D/2 < s < D (got s={s}, D={D})")
    _check_trials(trials)
    counts = np.zeros(D, dtype=np.int64)
    if trials == 0:
        return counts
    kernel = PhasePOVM(D, 0.0)

    offset = rng.uniform(0.0, 2 * np.pi / D, size=trials)
    theta_y = 2 * np.pi / D + offset
    theta_n = offset
    th_y_est = theta_y + kernel.sample(rng, trials)
    th_n_est = theta_n + kernel.sample(rng, trials)

    # Announced r: the vote measurement pairs the uniform-magnitude ballot
    # branches with the uniform-magnitude estimate state, so every outcome
    # carries weight sum_j (1/D)(1/D) = 1/D; sample from that exact law.
    r = sample_index(np.full(D, 1.0 / D), rng, trials)

    alpha = s * (th_n_est - th_y_est) + m * (2 * np.pi / D) + th_n_est - theta_n
    j = np.arange(D)
    amps = np.exp(1j * np.outer(alpha, j))
    wrap = np.exp(1j * D * (th_n_est - offset))
    amps = np.where(j[None, :] < r[:, None], wrap[:, None] * amps, amps)
    probs = np.abs(np.fft.fft(amps, axis=1)) ** 2 / D**2  # <target_q|state> over q

    return np.bincount(_inverse_cdf(probs, rng.random(trials)), minlength=D)


# ---------------------------------------------------------------------------
# eavesdroppers


@dataclass
class AttackReport:
    """Aggregated attack trial statistics."""

    kind: str
    trials: int
    detected_count: int = 0
    leak_attempts: int = 0
    leak_correct: int = 0
    outcome_histogram: dict[str, int] = field(default_factory=dict)
    analytic_detection: float | None = None
    statistics: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def detection_rate(self) -> float:
        return self.detected_count / self.trials if self.trials else 0.0

    @property
    def leak_accuracy(self) -> float | None:
        return self.leak_correct / self.leak_attempts if self.leak_attempts else None

    def _bump(self, key: str, n: int = 1) -> None:
        self.outcome_histogram[key] = self.outcome_histogram.get(key, 0) + n


_DRAW_CHUNK = 4096  # trials drawn per batch; bounds the draw arrays at 32 KB


def _check_trials(trials) -> None:
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials!r}")


def _batched_counts(trials: int, draw):
    """(outcome, count) pairs over ``trials`` outcomes of ``draw(n)``, which
    returns n outcomes from n uniform draws. Outcomes come in chunks and in
    first-seen order within each, so a histogram filled from the pairs has
    the key order of a per-trial loop."""
    _check_trials(trials)
    for start in range(0, trials, _DRAW_CHUNK):
        outcomes = draw(min(_DRAW_CHUNK, trials - start))
        values, first, counts = np.unique(outcomes, return_index=True, return_counts=True)
        for i in np.argsort(first):
            yield values[i].item(), int(counts[i])


def _tree_report(kind, trials, draw, row, vote, seed, analytic_detection=None, **statistics):
    """A report over ``trials`` outcomes of ``draw(n)``, drawn by :func:`_batched_counts`:
    outcome k is the tree leaf ``row(k) = (detected, reading, histogram key)``, and a
    reading other than None is a leak attempt, correct when it equals ``vote``."""
    report = AttackReport(kind, trials, analytic_detection=analytic_detection,
                          statistics=statistics, seed=seed)
    for k, count in _batched_counts(trials, draw):
        detected, reading, key = row(k)
        report.detected_count += count if detected else 0
        if reading is not None:
            report.leak_attempts += count
            report.leak_correct += count if reading == vote else 0
        report._bump(key, count)
    return report


def _check_target(target, N: int) -> int:
    """The attacked voter: an integer in [0, N)."""
    (target,) = _integers((target,), "attack targets")
    if not 0 <= target < N:
        raise ValueError(f"target out of range [0, {N}): {target}")
    return target


def _check_pair(pair, N: int) -> tuple[int, int]:
    """The pair check's registers: two distinct integers below N."""
    regs = _integers(pair, "pair registers")
    if len(regs) != 2 or regs[0] == regs[1] or not all(0 <= r < N for r in regs):
        raise ValueError(f"pair check requires two distinct registers below {N}, got {tuple(pair)}")
    return regs[0], regs[1]


def pair_agree_mask(D: int) -> np.ndarray:
    """Diagonal mask keeping equal computational labels on two registers."""
    return np.eye(D)


def run_mitm_traveling(
    config: ProtocolConfig,
    votes,
    target: int,
    rng: np.random.Generator,
    backend: str = "dense",
    repair: bool = True,
    trials: int = 1,
    seed: int | None = None,
) -> AttackReport:
    """Man-in-the-middle on the traveling ballot.

    The interceptor keeps the real moving register when it heads to the
    target voter and substitutes a fresh |0> qudit; the target unknowingly
    votes on the decoy, which is then measured (|1| means yes) and, with
    ``repair``, the reading is forwarded onto the real ballot so the tally
    stays intact. Nothing in the scheme can flag this. The outcome tree (the
    decoy reading, the tally) is enumerated once, as in :func:`run_swap_attack`.
    """
    config.require_tally_room("traveling")
    votes, target = _check_votes(votes, config.N), _check_target(target, config.N)
    bk = get_backend(backend)
    D = config.D

    def cast(state, voters, reg=1):  # each yes vote shifts ``reg`` by one
        for v in voters:
            state = bk.apply_local(state, reg, cached_op(shift_matrix, D, 1)) if v else state
        return state

    state = bk.attach(bk.ghz(D, 2), D, 0)  # the decoy qudit, register 2
    state = cast(cast(state, votes[:target]), votes[target:target + 1], reg=2)
    probs, rows = [], []  # per leaf of the tree (decoy reading, tally)
    for leak in range(D):
        p_leak, st = bk.project_ket(state, 2, np.eye(D, dtype=complex)[leak])
        if st is not None:
            if repair and leak:
                st = bk.apply_local(st, 1, cached_op(shift_matrix, D, leak))
            st = bk.drop(cast(st, votes[target + 1:]), 2)
            probs += [p_leak * p for p in bk.score_targets(st, shift_family(D))[0]]
            rows += [(False, leak, f"tally={tally}") for tally in range(D)]
    return _tree_report("mitm-traveling", trials, lambda n: sample_index(probs, rng, n),
                        rows.__getitem__, votes[target], seed, expected_tally=sum(votes))


def run_swap_attack(
    config: ProtocolConfig,
    votes,
    target: int,
    pair_check: tuple[int, int] | None,
    rng: np.random.Generator,
    trials: int = 1,
    repair: bool = True,
    backend: str = "branch",
    seed: int | None = None,
) -> AttackReport:
    """Swap attack on the distributed ballot, with an optional pair check.

    The attacker swaps a uniform-superposition ancilla into the target's
    ballot slot before voting and swaps it back afterwards; the ancilla then
    carries the target's vote as a readable relative phase. A pair agreement
    check run on a pair containing the target before voting detects the
    broken symmetry with probability 1 - 1/D.

    The measurement-outcome tree is enumerated once with exact Born
    probabilities (pass/fail, the attacker's phase reading, the tally) and
    the requested number of trials is sampled from it.
    """
    votes, target = _check_votes(votes, config.N), _check_target(target, config.N)
    if pair_check is not None:  # run by two voters, never on the attacker's ancilla N
        pair_check = _check_pair(pair_check, config.N)
    bk = get_backend(backend)
    D, N = config.D, config.N
    ancilla = N

    state = bk.ghz(D, N)
    state = bk.attach(state, D, phase_state(D, 0.0))  # uniform ancilla
    state = bk.swap(state, ancilla, target)

    checked = pair_check is not None and target in pair_check
    if pair_check is not None:
        p_pass, passed = bk.project_diag(state, list(pair_check), pair_agree_mask(D))
    else:
        p_pass, passed = 1.0, state

    # The leaves: a failed check, then each (reading, tally) after a passed or absent one.
    probs, rows = [1.0 - p_pass], [(True, None, "detected")]
    if passed is not None:
        st2 = passed
        for voter, v in enumerate(votes):
            if v:
                st2 = bk.apply_local(st2, voter, cached_op(phase_vote_matrix, D, 1))
        st2 = bk.swap(st2, ancilla, target)
        for y in range(D):
            p_y, st_y = bk.project_ket(st2, ancilla, phase_state(D, 2 * np.pi * y / D))
            if st_y is None:
                continue
            if repair and y:
                st_y = bk.apply_local(st_y, target, cached_op(phase_vote_matrix, D, y))
            st_y = bk.drop(st_y, ancilla)
            tally_probs = bk.score_targets(st_y, phase_family(D, N))[0]
            probs.append(p_pass * p_y)
            rows.append((False, y, f"reading={y},tally={int(np.argmax(tally_probs))}"))
    # a Born sum can exceed 1 by a few ulps; the draws keep the value as it is
    return _tree_report("swap", trials, lambda n: sample_index(probs, rng, n), rows.__getitem__,
                        votes[target], seed, (1.0 - 1.0 / D) if checked else 0.0,
                        pass_probability=min(p_pass, 1.0), expected_tally=sum(votes))


def random_product_attack(D: int, rng: np.random.Generator) -> np.ndarray:
    """Entangling map sending |0>_E |j> to |eta_j>_E |j| with random eta_j.

    Built as a label-controlled block unitary, so it never disturbs the
    ballot register and is undetectable by the agreement check.
    """
    U = np.zeros((D * D, D * D), dtype=complex)
    for j in range(D):
        z = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        q, r = np.linalg.qr(z)
        V = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        proj = np.zeros((D, D))
        proj[j, j] = 1.0
        U += np.kron(V, proj)
    return U


def analytic_nondetection(U: np.ndarray, D: int) -> float:
    """(1/D) sum_j <phi_j| (I x |j><j|) |phi_j> for phi_j = U(|0>|j>)."""
    total = 0.0
    for j in range(D):
        phi = U[:, j].reshape(D, D)  # axes (ancilla, ballot register)
        total += float(np.sum(np.abs(phi[:, j]) ** 2))
    return total / D


def _entangled_ballot(config: ProtocolConfig, votes, target, U, backend):
    """The distributed ballot before voting, the ancilla |0> at register N entangled
    with the target by U: (votes, target, backend, U as a LocalOp, state)."""
    votes, target = _check_votes(votes, config.N), _check_target(target, config.N)
    bk = get_backend(backend)
    D, N = config.D, config.N
    U = LocalOp(U, D * D)
    state = bk.attach(bk.ghz(D, N), D, 0)
    return votes, target, bk, U, bk.apply_pair(state, (N, target), U)


def entangling_rho_e1(
    config: ProtocolConfig,
    votes,
    target: int,
    U: np.ndarray,
    backend: str = "branch",
) -> np.ndarray:
    """Reduced state on (ancilla, target register) after the attack and voting."""
    votes, target, bk, _, state = _entangled_ballot(config, votes, target, U, backend)
    for voter, v in enumerate(votes):
        if v:
            state = bk.apply_local(state, voter, cached_op(phase_vote_matrix, config.D, 1))
    return bk.reduced(state, [config.N, target])


def run_entangling_attack(
    config: ProtocolConfig,
    votes,
    target: int,
    U: np.ndarray,
    pair: tuple[int, int],
    rng: np.random.Generator,
    trials: int = 1,
    backend: str = "branch",
    seed: int | None = None,
) -> AttackReport:
    """General entangling attack against the distributed ballot's pair check.

    The ancilla starts in |0>, is entangled with the target register by U
    before voting, and the named pair runs the agreement check. Detection
    trials are sampled from the exactly computed pass probability, which is
    also reported against the analytic column expression.
    """
    pair = _check_pair(pair, config.N)
    votes, target, bk, U, state = _entangled_ballot(config, votes, target, U, backend)
    p_pass, _ = bk.project_diag(state, list(pair), pair_agree_mask(config.D))
    nondetection = analytic_nondetection(U.matrix, config.D)
    # a Born sum can exceed 1 by a few ulps; the draws never fire either way
    return _tree_report("entangling", trials, lambda n: rng.random(n) < 1.0 - p_pass,
                        [(False, None, "passed"), (True, None, "detected")].__getitem__,
                        votes[target], seed, 1.0 - nondetection if target in pair else None,
                        pass_probability=min(p_pass, 1.0), analytic_nondetection=nondetection)


def run_classical_eavesdrop(
    N: int,
    votes,
    target: int,
    rng: np.random.Generator,
    trials: int = 1,
    seed: int | None = None,
) -> AttackReport:
    """Eavesdropper on the classical zero-sum ballots: read the target's slip
    before and after; the difference is the vote, and nothing can notice."""
    votes, target = _check_votes(votes, N), _check_target(target, N)
    D = N + 1

    def draw(n):  # each trial's (leak, tally) as leak * D + tally
        labels = sample_zero_sum_ballots(N, n, rng)
        marked = (labels + votes) % D
        return (marked[:, target] - labels[:, target]) % D * D + marked.sum(axis=1) % D

    # the D * D leaves are made as they are drawn; D = N + 1 has no bound
    return _tree_report("classical-eavesdrop", trials, draw,
                        lambda k: (False, k // D, f"tally={k % D}"), votes[target], seed, 0.0,
                        expected_tally=sum(votes))
