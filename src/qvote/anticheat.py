"""Anti-cheating voting: secret-angle voting states with repeated readout.

The authority hands every voter two single-qudit phase states whose angles
encode yes and no; only she knows the two integer levels and the common
angle offset. A vote is cast by a two-register measurement that transfers
the chosen phase onto the ballot, the outcome r is announced publicly, and
the authority undoes the announced wrap phases afterwards. Honest runs end
in one of D orthogonal readout states whose index q is the yes-count times
the level gap; any other index, or disagreement between repeated runs,
exposes manipulation.

Both the distributed variant (one ballot register per voter, final state on
2N registers) and the traveling variant (two-register ballot, voting
register disentangled and discarded after each vote) are provided. Every
state of either is label-diagonal, sum_j c_j |j...j>, so the branch backend
plays a round as D coefficients (:func:`_label_rounds`, the cheater's engine
too), read out by the FFT helper of the phase ballots' label frame
(:func:`qvote.protocols._phase_weights`); the dense backend, the oracle, plays
each step (:func:`play`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .backends import get_backend
from .branches import BranchState, MeasurementFamily, _ghz_rows, phase_family
from .matrices import phase_state, shift_matrix
from .protocols import Transcript, _check_votes, _integers, _phase_weights, _require_room
from .states import _draw_outcome, _draw_rows, cached_op

VARIANTS = ("distributed", "traveling")


@dataclass(frozen=True)
class AuthoritySecrets:
    """Integer phase levels for yes/no plus the angle offset, authority-only."""

    yes_level: int
    no_level: int
    offset: float

    def validate(self, D: int, N: int) -> None:
        _integers((D, N, self.yes_level, self.no_level), "D, N and the secret levels")
        gap = self.yes_level - self.no_level
        if gap <= 0:
            raise ValueError("requires yes_level > no_level")
        if not (0 <= self.no_level < self.yes_level < D):
            raise ValueError("requires 0 <= no_level < yes_level < D")
        if gap * N >= D:
            raise ValueError(
                f"requires (yes_level - no_level) * N < D "
                f"(got {gap} * {N} >= {D}); tallies would not be distinguishable"
            )
        if not 0.0 <= self.offset < 2 * np.pi / D:
            raise ValueError("requires 0 <= offset < 2*pi/D")

    @property
    def gap(self) -> int:
        return self.yes_level - self.no_level

    def yes_angle(self, D: int) -> float:
        return 2 * np.pi * self.yes_level / D + self.offset

    def no_angle(self, D: int) -> float:
        return 2 * np.pi * self.no_level / D + self.offset


def max_gap(D: int, N: int) -> int:
    """The widest level gap g with g * N < D; drawn secrets need one, so D > N."""
    D, N = _integers((D, N), "D and N")
    _require_room(D, N, "drawing secrets")
    return (D - 1) // N


def random_secrets(D: int, N: int, rng: np.random.Generator) -> AuthoritySecrets:
    """Draw valid secrets; the offset is uniform on [0, 2*pi/D)."""
    gap = int(rng.integers(1, max_gap(D, N) + 1))
    no_level = int(rng.integers(0, D - gap))
    offset = float(rng.uniform(0.0, 2 * np.pi / D))
    return AuthoritySecrets(no_level + gap, no_level, offset)


@dataclass
class ReadoutResult:
    q: int | None               # readout index, None when the error outcome fired
    m_inferred: int | None      # yes-count, when q is a legal multiple of the gap
    cheat_detected: bool
    error_outcome: bool
    probability: float


@dataclass
class AntiCheatRound:
    """Mutable bookkeeping for one voting round."""

    D: int
    N: int
    variant: str
    secrets: AuthoritySecrets
    backend_name: str
    state: object
    ballot_regs: list[int]
    announced: list[int | None] = field(default_factory=list)
    corrected: bool = False
    transcript: Transcript = field(default_factory=Transcript)

    @property
    def backend(self):
        return get_backend(self.backend_name)


@lru_cache(maxsize=64)
def vote_measurement_masks(D: int) -> MeasurementFamily:
    """Diagonal masks of the two-register vote observable, one per outcome r, as a cached family.

    Outcome r keeps the (ballot, voting) label pairs with voting = ballot - r
    mod D.
    """
    eye = np.eye(D)
    return MeasurementFamily((D, D), [np.roll(eye, -r, axis=1) for r in range(D)], diagonal=True)


def wrap_correction_diag(D: int, r: int, offset: float) -> np.ndarray:
    """Diagonal removing the wrap phase for announced outcome r: labels below
    r pick up e^{-i D offset}."""
    diag = np.ones(D, dtype=complex)
    diag[:r] = np.exp(-1j * D * offset)
    return np.diag(diag)


def no_angle_removal(D: int, N: int, no_angle: float) -> np.ndarray:
    """Diagonal removing the accumulated no-angle phase e^{i j N theta_n}."""
    return np.diag(np.exp(-1j * np.arange(D) * N * no_angle))


def setup(
    D: int,
    N: int,
    secrets: AuthoritySecrets | None,
    rng: np.random.Generator,
    variant: str = "distributed",
    backend: str = "branch",
) -> AntiCheatRound:
    """Distribute the ballot state; each voter's voting qudit pair is the secrets' two angles.

    The unused voting qudit of each voter is modeled as destroyed: it is a
    product state that never touches the ballot, so it is simply never
    attached to the simulation.
    """
    _check_variant(variant)
    D, N = _integers((D, N), "D and N")
    if secrets is None:
        secrets = random_secrets(D, N, rng)
    secrets.validate(D, N)
    bk = get_backend(backend)
    regs = N if variant == "distributed" else 2
    state = bk.ghz(D, regs)
    return AntiCheatRound(
        D=D,
        N=N,
        variant=variant,
        secrets=secrets,
        backend_name=bk.name,
        state=state,
        ballot_regs=list(range(regs)),
        announced=[None] * N,
    )


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _cast_vote_on(
    round_: AntiCheatRound,
    ballot_reg: int,
    theta: float,
    rng: np.random.Generator | None,
    forced: int | None = None,
) -> int:
    """Attach a voting qudit with the given angle, measure the vote observable
    against the ballot register, shift by the outcome, and return r. With
    ``forced``, project onto that outcome instead of sampling one."""
    bk = round_.backend
    D = round_.D
    state = bk.attach(round_.state, D, phase_state(D, theta))
    v = len(bk.dims(state)) - 1
    masks = vote_measurement_masks(D)
    if forced is None:
        r, state, _ = bk.measure_diag(state, [ballot_reg, v], masks, rng)
    else:
        r = forced
        _, state = bk.project_diag(state, [ballot_reg, v], masks[r])
        if state is None:
            raise RuntimeError("forced outcome has zero probability")
    if r:
        state = bk.apply_local(state, v, cached_op(shift_matrix, D, r))
    round_.state = state
    return int(r)


def vote_distributed(
    round_: AntiCheatRound,
    voter: int,
    choice: int | str,
    rng: np.random.Generator,
) -> int:
    """One voter's step in the distributed variant; returns the announced r."""
    theta = _voting_angle(round_, "distributed", voter, choice)
    r = _cast_vote_on(round_, round_.ballot_regs[voter], theta, rng)
    return _announce(round_, voter, choice, r)


def vote_traveling(
    round_: AntiCheatRound,
    voter: int,
    choice: int | str,
    rng: np.random.Generator,
) -> int:
    """One voter's step in the traveling variant.

    After the announced outcome the authority removes the wrap phase from her
    register, and the voter disentangles and discards the voting register so
    the two-register ballot can travel on.
    """
    theta = _voting_angle(round_, "traveling", voter, choice)
    bk = round_.backend
    D = round_.D
    r = _cast_vote_on(round_, 1, theta, rng)
    # authority undoes the wrap phase on her own register right away
    wrap = cached_op(wrap_correction_diag, D, r, round_.secrets.offset)
    round_.state = bk.apply_local(round_.state, 0, wrap)
    # voter maps |j>_b |j-r>_v -> |j>_b |0>_v and the voting register leaves
    round_.state = bk.controlled_shift(round_.state, 1, 2, [(r - j) % D for j in range(D)])
    round_.state = bk.drop(round_.state, 2)
    return _announce(round_, voter, choice, r)


def _voting_angle(round_: AntiCheatRound, variant: str, voter: int, choice: int | str) -> float:
    """The angle of the voting qudit the voter's choice selects, once the
    round is of ``variant`` and the voter may still vote."""
    if round_.variant != variant:
        raise ValueError(f"round is not a {variant}-variant round")
    yes = _as_yes(choice)
    if not 0 <= voter < round_.N:
        raise ValueError(f"voter {voter} out of range")
    if round_.announced[voter] is not None:
        raise ValueError(f"voter {voter} already voted")
    secrets = round_.secrets
    return secrets.yes_angle(round_.D) if yes else secrets.no_angle(round_.D)


def _announce(round_: AntiCheatRound, voter: int, choice: int | str, r: int) -> int:
    """Record the voter's announced outcome r (public) and vote (hidden); return r."""
    round_.announced[voter] = r
    round_.transcript.public.append({"event": "announce-r", "voter": voter, "r": r})
    round_.transcript.hidden.append({"voter": voter, "vote": int(_as_yes(choice))})
    return r


def _as_yes(choice: int | str) -> bool:
    if isinstance(choice, str):
        if choice not in ("yes", "no"):
            raise ValueError(f"choice must be 'yes' or 'no', got {choice!r}")
        return choice == "yes"
    if choice not in (0, 1):
        raise ValueError("choice must be 0 (no) or 1 (yes)")
    return bool(choice)


def authority_correct(round_: AntiCheatRound, register: int = 0) -> None:
    """Undo announced wrap phases (distributed variant) and the common
    no-angle drift, applied to one register of the authority's choice."""
    if any(r is None for r in round_.announced):
        missing = [i for i, r in enumerate(round_.announced) if r is None]
        raise ValueError(f"cannot correct: voters {missing} have not announced")
    if round_.corrected:
        raise ValueError("corrections already applied")
    bk = round_.backend
    D = round_.D
    if round_.variant == "distributed":
        for r in round_.announced:
            wrap = cached_op(wrap_correction_diag, D, int(r), round_.secrets.offset)
            round_.state = bk.apply_local(round_.state, register, wrap)
    removal = cached_op(no_angle_removal, D, round_.N, round_.secrets.no_angle(D))
    round_.state = bk.apply_local(round_.state, register, removal)
    round_.corrected = True


def authority_readout(round_: AntiCheatRound, rng: np.random.Generator) -> ReadoutResult:
    """Measure in the orthogonal readout family plus the synthesized error
    outcome; flag cheating on error or on an index with no legal yes-count."""
    if not round_.corrected:
        raise ValueError("apply authority corrections before reading out")
    bk = round_.backend
    family = phase_family(round_.D, len(bk.dims(round_.state)), round_.secrets.gap)
    probs, rank, dim = bk.score_targets(round_.state, family)  # no post-state: nothing reads it
    k = _draw_outcome(probs, rank, dim, rng)  # k = len(family): the error outcome, of weight 1 - sum
    return _readout(round_, k, probs[k]) if k < len(family) else _readout(round_, None, 1.0 - sum(probs))


def _readout(round_: AntiCheatRound, m: int | None, p: float) -> ReadoutResult:
    """Record readout member m (q = m * gap; None, the error outcome), drawn with
    probability p: cheating shows as the error or as m above N."""
    legal = m is not None and m <= round_.N
    res = ReadoutResult(None if m is None else m * round_.secrets.gap, m if legal else None,
                        not legal, m is None, p)
    round_.transcript.public.append({"event": "readout", "q": res.q, "error": res.error_outcome})
    return res


def _label_rounds(c, secrets: AuthoritySecrets, angles, u: np.ndarray, variant: str, shift=None):
    """Rounds in the label frame from the (n, D) ballot coefficients ``c`` of
    sum_j c_j |j...j>, each drawn by its row of ``u``: one uniform per voter, as
    :func:`qvote.states.sample_index` compares it, then the readout's. A vote keeps
    voting label j - r, which its shift (traveling: the controlled shift to 0 and
    the drop) returns to j; every other step, and ``shift``, the cheater's angle
    per round, is diagonal. ``angles[v]``: a number or one per round. Returns each
    voter's r, the corrected ``c``, the readout member (-1: the error outcome) and
    its probability."""
    (n, D), j = c.shape, np.arange(c.shape[1])
    rows, rolled = np.arange(n), (j - j[:, None]) % D  # [r, j]: voting label j - r
    rs, known, wrap = [], {}, np.exp(-1j * D * secrets.offset)
    for voter, theta in enumerate(angles):
        key = None if np.ndim(theta) else theta  # a known angle's qudit is built once per value
        if key is None or key not in known:
            a = np.exp(1j * j * (theta[:, None] if key is None else np.full((1, 1), theta))) / np.sqrt(D)
            known[key] = a, (abs(a) ** 2)[:, rolled]  # the voting qudits, one row or one per round
        a, weights = known[key]
        p = (weights @ (abs(c) ** 2)[:, :, None])[:, :, 0]
        rs.append(_draw_rows(p, u[:, voter], complete=True))
        c = c * a[rows[:, None] % len(a), rolled[rs[-1]]] / np.sqrt(p[rows, rs[-1]])[:, None]
        if variant == "traveling":  # the authority undoes the wrap phase right away
            c = np.where(j < rs[-1][:, None], c * wrap, c)
    if shift is not None:
        c = c * np.exp(1j * j * shift[:, None])
    for r in rs if variant == "distributed" else ():  # the wrap corrections, then the no-angle removal
        c = np.where(j < r[:, None], c * wrap, c)
    c = c * np.exp(-1j * j * len(angles) * secrets.no_angle(D))
    probs = _phase_weights(c, secrets.gap)  # phase_family(D, regs, gap)
    k = _draw_rows(probs, u[:, len(angles)])
    error = k == probs.shape[1]
    return rs, c, np.where(error, -1, k), np.where(error, 1.0 - probs.cumsum(axis=1)[:, -1],
                                                   probs[rows, np.minimum(k, probs.shape[1] - 1)])


def run_round(
    D: int,
    N: int,
    secrets: AuthoritySecrets,
    votes,
    rng: np.random.Generator,
    backend: str = "branch",
    variant: str = "distributed",
) -> tuple[ReadoutResult, AntiCheatRound]:
    """Full honest round: setup, all votes, corrections, readout; played step by
    step on the dense backend, in the label frame on branch, where the corrected
    ballot is a D-row label state on 2N registers (distributed) or 2."""
    votes = _check_votes(votes, N)
    round_ = setup(D, N, secrets, rng, variant=variant, backend=backend)
    if round_.backend_name == "dense":
        return play(round_, votes, rng), round_
    D, N, secrets = round_.D, round_.N, round_.secrets  # checked, or drawn
    angles = [secrets.yes_angle(D) if v else secrets.no_angle(D) for v in votes]
    c = np.full((1, D), 1.0 / np.sqrt(D), dtype=complex)
    rs, c, (k,), (p,) = _label_rounds(c, secrets, angles, rng.random((1, N + 1)), variant)
    for voter, (v, r) in enumerate(zip(votes, rs)):
        _announce(round_, voter, v, int(r[0]))
    regs = 2 * N if variant == "distributed" else 2
    round_.state = BranchState._trusted((D,) * regs, list(zip(c[0].tolist(), _ghz_rows(D, regs))))
    round_.corrected = True
    return _readout(round_, None if k < 0 else int(k), float(p)), round_


def play(round_: AntiCheatRound, votes, rng: np.random.Generator) -> ReadoutResult:
    """Play an honest round step by step on its backend, the oracle of the label frame."""
    cast = vote_distributed if round_.variant == "distributed" else vote_traveling
    for voter, v in enumerate(votes):
        cast(round_, voter, v, rng)
    authority_correct(round_)
    return authority_readout(round_, rng)


@dataclass
class RepeatedReadout:
    results: list[ReadoutResult]
    cheat_detected: bool

    @property
    def qs(self) -> list[int | None]:
        return [r.q for r in self.results]


def run_repeated(
    D: int,
    N: int,
    secrets: AuthoritySecrets,
    votes,
    K: int,
    rng: np.random.Generator,
    backend: str = "branch",
    variant: str = "distributed",
    round_fn=None,
) -> RepeatedReadout:
    """Repeat the vote K times with identical instructions.

    A single round flag, or any disagreement between round outcomes, marks
    the aggregate as cheating (one repetition alone can only flag through
    its own round). ``round_fn(rng) -> ReadoutResult`` swaps in a different
    per-round procedure, e.g. an attacked round.
    """
    (K,) = _integers((K,), "repetition counts")
    if K < 1:
        raise ValueError("need at least one repetition")
    if round_fn is None:
        round_fn = lambda r: run_round(D, N, secrets, votes, r, backend, variant)[0]
    results = [round_fn(rng) for _ in range(K)]
    outcomes = {(res.q, res.error_outcome) for res in results}
    detected = any(res.cheat_detected for res in results) or len(outcomes) > 1
    return RepeatedReadout(results=results, cheat_detected=detected)
