"""Distributed group multiplication over entangled traveling registers.

A finite group is given by its Cayley table. Parties encode choices as unitaries
from a representation whose non-identity elements are traceless; that makes the
candidate final states exactly orthogonal, so the collector (who never learns the
individual choices) reads off the product with one projective measurement. The
regular representation always qualifies; the Klein four-group admits a dimension-2
projective representation by Pauli matrices, the dense-coding special case. Both
products run on the voting schemes' ballot body, in its label frame on branch (both
representations are monomial); voting is the Z_D case of the abelian product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .backends import get_backend
from .branches import BranchState, MeasurementFamily, VecFactor, _mark_monomial, phase_family
from .matrices import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, phase_vote_matrix
from .protocols import Ballot, _integers, _run_ballot, _weighted
from .states import LocalOp

TRACE_TOL = 1e-10
REP_TOL = 1e-10


class FiniteGroup:
    """Finite group defined by an explicit Cayley table of element indices."""

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        table = np.asarray(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("Cayley table must be square")
        n = table.shape[0]
        if table.min() < 0 or table.max() >= n:
            raise ValueError("Cayley table entries must be element indices")
        self.table = table
        self.order = n
        self.names = list(names) if names is not None else [f"g{i}" for i in range(n)]
        if len(self.names) != n:
            raise ValueError("one name per element required")

        # identity: the unique e with e*g = g*e = g for all g
        elements = np.arange(n)
        ident = np.flatnonzero((table == elements).all(axis=1) & (table.T == elements).all(axis=1))
        if len(ident) != 1:
            raise ValueError("Cayley table has no unique identity element")
        self.identity = int(ident[0])

        is_identity = table == self.identity  # [g, h]: g*h = e
        self.inverse = is_identity.argmax(axis=1)
        bad = (is_identity.sum(axis=1) != 1) | (table[self.inverse, elements] != self.identity)
        if bad.any():
            raise ValueError(f"element {bad.argmax()} has no unique two-sided inverse")

        # [a, b, c]: (a*b)*c against a*(b*c); the first hit in (a, b, c) order is reported
        bad = np.argwhere(table[table] != table[:, table])
        if len(bad):
            raise ValueError("Cayley table is not associative at ({}, {}, {})".format(*bad[0]))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a][b])

    def product(self, elements: Sequence[int]) -> int:
        p = self.identity
        for g in elements:
            p = self.mul(p, int(g))
        return p

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, names=[str(i) for i in range(n)])


def klein_four_group() -> FiniteGroup:
    # XOR on {0..3}: x_j^2 = e and the product of two distinct non-identity
    # elements is the third one.
    idx = np.arange(4)
    return FiniteGroup(idx[:, None] ^ idx[None, :], names=["e", "x1", "x2", "x3"])


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    table = (a.table[:, None, :, None] * nb + b.table[None, :, None, :]).reshape(na * nb, na * nb)
    names = [f"({a.names[i]},{b.names[j]})" for i in range(na) for j in range(nb)]
    return FiniteGroup(table, names=names)


def symmetric_group_3() -> FiniteGroup:
    perms = np.array([
        (0, 1, 2),
        (1, 0, 2),
        (2, 1, 0),
        (0, 2, 1),
        (1, 2, 0),
        (2, 0, 1),
    ])
    names = ["e", "(01)", "(02)", "(12)", "(012)", "(021)"]
    # [i, j, k]: perms[i][perms[j][k]], i.e. apply perms[j] first, then perms[i]
    composed = perms[:, perms]
    table = (composed[:, :, None] == perms).all(axis=-1).argmax(axis=-1)
    return FiniteGroup(table, names=names)


BUILTIN_GROUPS = {
    "klein4": klein_four_group,
    "s3": symmetric_group_3,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "z2xz2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
}


# ---------------------------------------------------------------------------
# representations


class Representation:
    """Per-element unitaries, ordinary or projective: checked ``ops`` and their ``matrices``."""

    def __init__(self, group: FiniteGroup, matrices: Sequence[np.ndarray], projective: bool = False):
        if len(matrices) != group.order:
            raise ValueError("one matrix per group element required")
        self.ops = [LocalOp(M) for M in matrices]
        self.dim = self.ops[0].dim
        if any(op.dim != self.dim for op in self.ops):
            raise ValueError("all representation matrices must share one dimension")
        self.group = group
        self.matrices = [op.matrix for op in self.ops]
        self.projective = projective
        self._validate_law()

    def _validate_law(self) -> None:
        n = self.group.order
        eye = np.eye(self.dim)
        for a in range(n):
            for b in range(n):
                prod = self.matrices[a] @ self.matrices[b]
                target = self.matrices[self.group.mul(a, b)]
                if self.projective:
                    # prod must equal e^{i w} * target for some real w
                    ratio = target.conj().T @ prod
                    phase = np.trace(ratio) / self.dim
                    if abs(abs(phase) - 1.0) > REP_TOL or np.max(np.abs(ratio - phase * eye)) > REP_TOL:
                        raise ValueError(
                            f"matrices violate the projective law at pair ({a}, {b})"
                        )
                else:
                    if np.max(np.abs(prod - target)) > REP_TOL:
                        raise ValueError(f"matrices violate the homomorphism law at pair ({a}, {b})")

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[int(g)]

    @cached_property
    def readiness(self) -> ReadinessReport:  # the representation is fixed once built
        return check_protocol_ready(self)

    @cached_property
    def candidate_family(self) -> MeasurementFamily:
        """The candidate final states (I x U(g))|Psi>, one per element, checked once;
        marked with their label rows when every U(g) is monomial (the rows are all labels)."""
        dims, c = (self.dim, self.dim), 1.0 / np.sqrt(self.dim)
        return _mark_monomial(MeasurementFamily(dims, [
            BranchState(dims, [(c, (j, VecFactor(M[:, j]))) for j in range(self.dim)], renormalize=False)
            for M in self.matrices
        ]))


def klein4() -> tuple[FiniteGroup, Representation]:
    """Klein four-group with its dimension-2 projective Pauli representation."""
    group = klein_four_group()
    rep = Representation(group, [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z], projective=True)
    return group, rep


def regular_representation(group: FiniteGroup) -> Representation:
    """Permutation matrices U(g_n)[j, k] = 1 iff g_j^{-1} g_k = g_n.

    Dimension equals the group order; every non-identity element is
    traceless, so the result is always protocol-ready.
    """
    quotients = group.table[group.inverse]  # [j, k]: g_j^{-1} g_k
    mats = [(quotients == gn).astype(complex) for gn in range(group.order)]
    return Representation(group, mats, projective=False)


@dataclass
class ReadinessReport:
    """Distinguishability diagnostics for a candidate representation."""

    ready: bool
    traces: list[float]            # |Tr U(g)| per element
    max_offidentity_trace: float
    max_state_overlap: float       # max |<Psi| I x U(g2^-1 g1) |Psi>| over g1 != g2
    overlaps: np.ndarray = field(repr=False)


def check_protocol_ready(rep: Representation) -> ReadinessReport:
    """Trace condition plus explicit pairwise overlaps of the candidate states."""
    n = rep.group.order
    traces = [float(abs(np.trace(M))) for M in rep.matrices]
    off = [traces[g] for g in range(n) if g != rep.group.identity]
    max_off = max(off) if off else 0.0

    # states (I x U(g)) |Psi| with |Psi> maximally correlated: overlap of a
    # pair is Tr(U(g1)^dagger U(g2)) / dim, computed explicitly.
    V = np.asarray([M.T.reshape(-1) / np.sqrt(rep.dim) for M in rep.matrices])  # sum_j |j> U|j>
    gram = V.conj() @ V.T
    offdiag = np.abs(gram - np.diag(np.diagonal(gram)))
    return ReadinessReport(
        ready=max_off <= TRACE_TOL,
        traces=traces,
        max_offidentity_trace=max_off,
        max_state_overlap=float(np.max(offdiag)) if n > 1 else 0.0,
        overlaps=gram,
    )


# ---------------------------------------------------------------------------
# protocols


def run_group_traveling(
    group: FiniteGroup,
    rep: Representation,
    choices: Sequence[int],
    backend="dense",
    rng=None,
    record_privacy: bool = False,
) -> int:
    """Travel one register through all parties; return the product of choices.

    Each party holding choice g applies U(g^{-1}); operator composition then
    accumulates U((g_a g_b ... g_n)^{-1}) regardless of group commutativity,
    and the collector inverts her measured element to report the in-order
    product g_a g_b ... g_n.
    """
    report = rep.readiness
    if not report.ready:
        raise ValueError(
            "representation is not protocol-ready: non-identity trace magnitude "
            f"{report.max_offidentity_trace:.3e} breaks state distinguishability"
        )
    choices = _integers(choices, "group choices")
    for g in choices:
        if not 0 <= g < group.order:
            raise ValueError(f"choice {g} is not a group element index")
    # Protocol-ready runs are deterministic: a fixed fallback seed suffices. Every
    # party acts, also with element index 0, which need not be the identity.
    ballot = Ballot(rep.dim, 2, choices, lambda k: 1, lambda g: rep.ops[int(group.inverse[g])],
                    rep.candidate_family)
    res = _run_ballot(ballot, get_backend(backend), np.random.default_rng(0) if rng is None else rng,
                      record_privacy)
    if res.m >= group.order:
        raise RuntimeError("measurement leaked into the residual projector")
    if any(e["trace_distance"] > 1e-12 for e in res.transcript.privacy):
        raise RuntimeError("a register was not maximally mixed during the run")
    return int(group.inverse[res.m])


def run_abelian_distributed(
    cyclic_factors: Sequence[int],
    choices: Sequence[Sequence[int]],
    backend="dense",
    rng=None,
) -> tuple[int, ...]:
    """Distributed multiplication in a product of cyclic groups.

    One shared correlated register group per cyclic factor; a party encodes
    component c by the diagonal phase of order d raised to c. The collector
    measures each factor in its phase basis and reads off the componentwise
    sum. Plain yes/no voting is the single-factor special case.
    """
    factors = _integers(cyclic_factors, "cyclic factor moduli")
    if not factors or any(d < 2 for d in factors):
        raise ValueError("cyclic factor moduli must all be >= 2")
    choices = [tuple(_integers(ch, "choice components")) for ch in choices]
    if not choices:
        raise ValueError("at least one party required")
    for ch in choices:
        if len(ch) != len(factors):
            raise ValueError("each choice needs one component per cyclic factor")
        for c, d in zip(ch, factors):
            if not 0 <= c < d:
                raise ValueError(f"component {c} out of range for modulus {d}")
    bk = get_backend(backend)
    rng = rng if rng is not None else np.random.default_rng(0)
    n = len(choices)
    return tuple(
        _run_ballot(Ballot(d, n, [ch[f] for ch in choices], lambda k: k,
                           _weighted(phase_vote_matrix, d), phase_family(d, n)), bk, rng).m
        for f, d in enumerate(factors)
    )
