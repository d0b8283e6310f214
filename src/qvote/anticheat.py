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
register disentangled and discarded after each vote) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .backends import get_backend
from .branches import MeasurementFamily, phase_family
from .matrices import phase_state, shift_matrix
from .protocols import Transcript, _check_votes, _integers, _require_room
from .states import cached_op

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
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
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
    D = round_.D
    gap = round_.secrets.gap
    family = phase_family(D, len(bk.dims(round_.state)), gap)
    outcome, _, p = bk.measure_targets(round_.state, family, rng)
    if outcome >= len(family):
        res = ReadoutResult(
            q=None, m_inferred=None, cheat_detected=True, error_outcome=True, probability=p
        )
    else:
        m = outcome  # the readout index is q = m * gap
        legal = m <= round_.N
        res = ReadoutResult(
            q=m * gap,
            m_inferred=m if legal else None,
            cheat_detected=not legal,
            error_outcome=False,
            probability=p,
        )
    round_.transcript.public.append(
        {"event": "readout", "q": res.q, "error": res.error_outcome}
    )
    return res


def run_round(
    D: int,
    N: int,
    secrets: AuthoritySecrets,
    votes,
    rng: np.random.Generator,
    backend: str = "branch",
    variant: str = "distributed",
) -> tuple[ReadoutResult, AntiCheatRound]:
    """Full honest round: setup, all votes, corrections, readout."""
    votes = _check_votes(votes, N)
    round_ = setup(D, N, secrets, rng, variant=variant, backend=backend)
    cast = vote_distributed if variant == "distributed" else vote_traveling
    for voter, v in enumerate(votes):
        cast(round_, voter, v, rng)
    authority_correct(round_)
    result = authority_readout(round_, rng)
    return result, round_


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
