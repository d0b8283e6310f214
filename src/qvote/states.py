"""Dense state vectors over multi-qudit registers.

This is the exact, brute-force backend: full complex amplitude vectors,
unitary application, partial trace, and projective measurement. Register 0
is the most significant digit of the flattened amplitude index, i.e.
``amps.reshape(dims)[j0, j1, ...]`` is the amplitude of ``|j0 j1 ...>``.

Both backends check each operator once, as a :class:`LocalOp` (the protocols'
repeated ones cached by :func:`cached_op`), and each measurement family (0/1
masks, diagonal matrices, kets) with :func:`_parse_family`. Every dense
measurement scores each member in place (masks by row norms, kets by
contraction), and :func:`_sample` expands only the drawn member. States and
post-states are renormalized by :func:`_scaled`, numpy's division to the bit; the
constructor scans the amplitudes once, for the norm, and for non-finite entries
only when the norm fails its check, to name the fault.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache

import numpy as np

# Hard cap on dense amplitude vectors; larger systems belong on the
# branch backend.
DENSE_AMP_BUDGET = 1 << 22

NORM_TOL = 1e-10
VANISHING_PROB = 1e-14  # a projection this unlikely has no post-state
UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class DenseBudgetError(ValueError):
    """Requested dense state exceeds DENSE_AMP_BUDGET amplitudes."""


class _Frozen:
    """Immutable once constructed: values are shared between states and callers."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _integers(values, what: str) -> list[int]:
    """``values`` as ints; an entry that is not an integer (Python or numpy) raises
    instead of being truncated, so a vote of 0.9 is not read as a no."""
    values = list(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return [int(v) for v in values]


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("need at least one register")
    if any(d < 2 for d in dims):
        raise ValueError(f"register dimensions must be >= 2, got {dims}")
    total = 1
    for d in dims:
        total *= d
        if total > DENSE_AMP_BUDGET:
            raise DenseBudgetError(
                f"dense state with dims {dims} exceeds the amplitude budget {DENSE_AMP_BUDGET}"
            )
    return dims


def _check_registers(registers: Sequence[int], count: int) -> list[int]:
    """``registers`` as a list of distinct register indices below ``count``."""
    registers = list(registers)
    if len(set(registers)) != len(registers):
        raise ValueError("registers must be distinct")
    for r in registers:
        if not 0 <= r < count:
            raise ValueError(f"register {r} out of range")
    return registers


def _kept_dim(keep: Sequence[int], dims: tuple[int, ...]) -> tuple[list[int], int]:
    """The validated kept registers of a reduced state and their joint dimension."""
    keep = _check_registers(keep, len(dims))
    if not keep:
        raise ValueError("keep must name at least one register")
    kdim = int(np.prod([dims[r] for r in keep]))
    if kdim * kdim > DENSE_AMP_BUDGET:
        raise DenseBudgetError("kept subspace exceeds the dense budget")
    return keep, kdim


def _scaled(x: np.ndarray, n: float) -> np.ndarray:
    """``x / n`` for a real ``n``, bit for bit: numpy divides a complex ``x`` as
    ``(re + im*0) * (1/n)``, ``(im - re*0) * (1/n)``, which is this multiply, signed
    zeros included, at three times the speed."""
    return x * complex(1.0 / n, -0.0) if x.dtype.kind == "c" else x / n


class DenseState(_Frozen):
    """Normalized pure state over an ordered list of qudit registers."""

    __slots__ = ("dims", "amps")

    def __init__(self, dims: Sequence[int], amps: np.ndarray):
        dims = _check_dims(dims)
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        expected = int(np.prod(dims))
        if amps.size != expected:
            raise ValueError(
                f"amplitude vector has length {amps.size}, dims {dims} need {expected}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN or infinite norm fails too
            if not np.all(np.isfinite(amps.view(float))):
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        # Renormalize exactly so float drift never compounds across operations.
        amps = _scaled(amps, norm)
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], amps: np.ndarray) -> DenseState:
        """A state from checked ``dims`` and amplitudes already normalized as the
        constructor leaves them, made read-only here: no norm pass."""
        amps.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "dims", dims)
        object.__setattr__(state, "amps", amps)
        return state

    @property
    def num_registers(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per register."""
        return self.amps.reshape(self.dims)

    def __repr__(self) -> str:
        return f"DenseState(dims={self.dims})"


def _as_matrix(state: DenseState, registers: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Amplitudes as a (registers, rest) matrix, and the axis permutation used."""
    registers = _check_registers(registers, state.num_registers)
    perm = registers + [r for r in range(state.num_registers) if r not in registers]
    sub = int(np.prod([state.dims[r] for r in registers]))
    return state.tensor().transpose(perm).reshape(sub, -1), perm


def _from_matrix(state: DenseState, mat: np.ndarray, perm: list[int]) -> DenseState:
    """Inverse of :func:`_as_matrix`: the state with the original register order."""
    t = mat.reshape([state.dims[r] for r in perm]).transpose(np.argsort(perm))
    return DenseState(state.dims, t.reshape(-1))


class DensityMatrix(_Frozen):
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {matrix.shape}")
        if not np.max(np.abs(matrix - matrix.conj().T)) <= HERMITIAN_TOL:  # NaN fails too
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(matrix))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        if not float(np.linalg.eigvalsh(matrix)[0]) >= -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "dim", matrix.shape[0])
        object.__setattr__(self, "matrix", matrix)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


# ---------------------------------------------------------------------------
# construction


def _initial_vector(dim: int, initial: int | np.ndarray) -> np.ndarray:
    """The checked unit vector of a register either backend attaches (a label is a basis vector)."""
    if dim < 2:
        raise ValueError(f"register dimensions must be >= 2, got {dim}")
    if isinstance(initial, (int, np.integer)):
        if not 0 <= int(initial) < dim:
            raise ValueError(f"initial label {initial} out of range for dimension {dim}")
        return np.eye(dim, dtype=complex)[int(initial)]
    amps = np.asarray(initial, dtype=complex).reshape(-1)
    if amps.size != dim:
        raise ValueError("initial vector length does not match the register dimension")
    if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise ValueError("attached register state must be normalized")
    return amps


def _check_ghz(D: int, N: int) -> tuple[int, int]:
    """A GHZ size as ints: a fractional D or N raises rather than being truncated."""
    D, N = _integers((D, N), "D and N")
    if D < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {D}")
    if N < 1:
        raise ValueError(f"register count must be >= 1, got {N}")
    return D, N


def _ghz_amps(D: int, N: int, value) -> np.ndarray:
    """Zeros, with ``value`` at each |j,j,...,j>."""
    amps = np.zeros(D**N, dtype=complex)
    stride = (D**N - 1) // (D - 1)  # index of |j,j,...,j> is j * stride
    amps[np.arange(D) * stride] = value
    return amps


@lru_cache(maxsize=64)
def _ghz_amplitude(D: int, N: int) -> complex:
    """The amplitude of each |j,j,...,j> once the constructor has normalized the
    ballot; the same at every j, and the zeros stay +0.0. Computed once per size."""
    return DenseState((D,) * N, _ghz_amps(D, N, 1.0 / np.sqrt(D))).amps[0]


def make_uniform_ghz(D: int, N: int) -> DenseState:
    """Correlated state (1/sqrt(D)) sum_j |j>^(x N), built from its normalized
    amplitude with no norm pass: the constructor's bits."""
    D, N = _check_ghz(D, N)
    return DenseState._trusted(_check_dims((D,) * N), _ghz_amps(D, N, _ghz_amplitude(D, N)))


# ---------------------------------------------------------------------------
# unitaries


class LocalOp(_Frozen):
    """A unitary checked once, when built: a read-only copy of the ``matrix``, its
    ``dim`` and, on first use, its ``monomial`` parts, for both backends' applies."""

    def __init__(self, U: np.ndarray, dim: int | None = None):
        U = np.array(U, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError(f"operator must be square, got shape {U.shape}")
        if dim is not None and U.shape[0] != dim:
            raise ValueError(f"operator dimension {U.shape[0]} does not match register dimension {dim}")
        dev = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
        if not dev <= UNITARY_TOL:  # NaN fails too
            raise ValueError(f"operator is not unitary (max deviation {dev:.3e})")
        U.flags.writeable = False
        object.__setattr__(self, "matrix", U)
        object.__setattr__(self, "dim", U.shape[0])

    @classmethod
    def of(cls, U: LocalOp | np.ndarray, dim: int) -> LocalOp:
        """``U`` as a value of dimension ``dim``: a raw matrix, or a value of
        another dimension (which raises), goes through the constructor."""
        if isinstance(U, LocalOp) and U.dim == dim:
            return U
        return cls(U.matrix if isinstance(U, LocalOp) else U, dim)

    @cached_property
    def monomial(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-only ``(perm, phases)`` with U[perm[j], j] = phases[j] and zeros
        elsewhere, or None; made on first use, which the dense backend never makes."""
        nz = np.abs(self.matrix) > 1e-12
        perm = nz.argmax(axis=0)
        if np.any(nz.sum(axis=0) != 1) or len(set(perm.tolist())) != self.dim:
            return None
        phases = self.matrix[perm, np.arange(self.dim)]
        perm = identity_perm(self.dim) if np.array_equal(perm, identity_perm(self.dim)) else perm
        perm.flags.writeable = phases.flags.writeable = False
        return perm, phases


@lru_cache(maxsize=None)
def identity_perm(dim: int) -> np.ndarray:
    """The read-only identity permutation of ``dim`` labels: one object per size, which
    every diagonal operator's ``monomial`` holds, so callers may test it by ``is``."""
    perm = np.arange(dim)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=256)
def cached_op(builder: Callable[..., np.ndarray], *args) -> LocalOp:
    """``LocalOp(builder(*args))``, cached by value: operators the protocols apply again
    and again (vote phases and shifts, wrap corrections) are checked once per argument set."""
    return LocalOp(builder(*args))


def apply_local(state: DenseState, register: int, U: LocalOp | np.ndarray) -> DenseState:
    """Apply a single-register unitary: (I x ... x U x ... x I)|state>."""
    _check_registers([register], state.num_registers)
    U = LocalOp.of(U, state.dims[register]).matrix
    t = state.tensor()
    t = np.moveaxis(np.tensordot(U, t, axes=([1], [register])), 0, register)
    return DenseState(state.dims, t.reshape(-1))


def apply_joint(state: DenseState, registers: Sequence[int], U: LocalOp | np.ndarray) -> DenseState:
    """Apply a unitary on the joint space of the listed registers."""
    mat, perm = _as_matrix(state, registers)
    return _from_matrix(state, LocalOp.of(U, mat.shape[0]).matrix @ mat, perm)


# ---------------------------------------------------------------------------
# reduced states


def partial_trace(state: DenseState, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on the kept registers, in the order given."""
    keep, _ = _kept_dim(keep, state.dims)
    mat, _ = _as_matrix(state, keep)
    return DensityMatrix(mat @ mat.conj().T)


def trace_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """(1/2)||a - b||_1 via the eigenvalues of the Hermitian difference."""
    am = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    bm = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(am - bm))))


def align_global_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate a state vector so its largest-magnitude amplitude is real positive.

    Ties are broken toward the first amplitude within a relative 1e-9 of the
    maximum, so two representations of the same state pick the same reference
    component despite last-bit magnitude noise.
    """
    amps = np.asarray(amps, dtype=complex)
    mags = np.abs(amps)
    mmax = float(mags.max(initial=0.0))
    if mmax == 0.0:
        return amps.copy()
    k = int(np.argmax(mags >= mmax * (1.0 - 1e-9)))
    a = amps[k]
    return amps * (abs(a) / a)


# ---------------------------------------------------------------------------
# measurement


def _parse_family(
    projectors: Sequence[np.ndarray], sdims: tuple[int, ...], diagonal: bool
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Check a projector family on a subspace of dims ``sdims`` and return it
    as 0/1 masks shaped ``sdims`` or as unit kets (the other list empty).

    With ``diagonal`` every projector is a mask (shaped ``sdims`` or flat).
    Otherwise a projector is a ket, or a square matrix that must be diagonal
    in the computational basis and is reduced to its diagonal.
    """
    if len(projectors) == 0:
        raise ValueError("projector list must not be empty")
    sub = int(np.prod(sdims))
    masks, kets = [], []
    for P in projectors:
        P = np.asarray(P)
        if diagonal:
            if P.size != sub:
                raise ValueError(f"mask size {P.size} does not match subspace {sub}")
            if P.shape not in (sdims, (sub,)):
                raise ValueError(f"mask shape {P.shape} does not match the registers' shape {sdims}")
            masks.append(P.reshape(sdims))
        elif P.ndim == 1:
            n = np.linalg.norm(P)
            if P.size != sub or not abs(n - 1.0) <= NORM_TOL:
                raise ValueError("rank-1 projector ket must be normalized and match the register")
            kets.append(_scaled(P, n))
        elif P.ndim == 2:
            if P.shape != (sub, sub):
                raise ValueError(f"projector shape {P.shape} does not match subspace {sub}")
            diag = np.diagonal(P)
            if not np.max(np.abs(P - np.diag(diag))) <= 1e-12:
                raise ValueError("matrix projectors must be diagonal in the computational basis")
            masks.append(diag.reshape(sdims))
        else:
            raise ValueError("unsupported projector object")
    if kets and masks:
        raise ValueError("do not mix diagonal and rank-1 projectors in one measurement")
    if masks:
        if not all(np.max(np.abs(m * (1 - m))) <= 1e-10 for m in masks):
            raise ValueError("diagonal projector entries must be 0 or 1")
        masks = [np.real(m).round() for m in masks]
        if np.max(sum(masks, np.zeros(sdims))) > 1 + 1e-9:
            raise ValueError("diagonal projectors overlap")
    else:
        V = kets[0] if len(kets) == 1 else np.asarray(kets)  # one ket's Gram is its squared norm
        gram = np.vdot(V, V) if V.ndim == 1 else V.conj() @ V.T
        if not np.max(np.abs(gram - np.eye(len(kets)))) <= NORM_TOL:
            raise ValueError("projector kets are not mutually orthogonal")
    return masks, kets


def _scored(mat: np.ndarray, masks: Sequence[np.ndarray], kets: Sequence[np.ndarray]) -> tuple:
    """Each member's Born weight scored in place on the (measured, rest) matrix ``mat``,
    and ``expand(j)``: ``mat`` projected by member j, built only when asked for."""
    if masks:
        rows = np.sum(mat.real**2 + mat.imag**2, axis=1)
        return [float(m.reshape(-1) @ rows) for m in masks], lambda j: mat * masks[j].reshape(-1, 1)
    contracted = [k.conj() @ mat for k in kets]
    return ([float(np.real(np.vdot(c, c))) for c in contracted],
            lambda j: np.outer(kets[j], contracted[j]))


def _projected(
    state: DenseState, registers: Sequence[int] | None, projectors: Sequence[np.ndarray], diagonal: bool
) -> tuple[np.ndarray, list[int], float, list[float], Callable[[int], np.ndarray]]:
    """The state as a (registers, rest) matrix (all registers when None), its axis
    permutation, the rank of the checked family, and :func:`_scored`'s results."""
    n = state.num_registers
    registers = _check_registers(range(n) if registers is None else registers, n)
    mat, perm = _as_matrix(state, registers)
    masks, kets = _parse_family(projectors, tuple(state.dims[r] for r in registers), diagonal)
    return (mat, perm, sum(map(np.sum, masks)) + len(kets), *_scored(mat, masks, kets))


def sample_index(
    probs: Sequence[float], rng: np.random.Generator, size: int | None = None
) -> int | np.ndarray:
    """Draw an index by inverse CDF, shared by both backends for seed parity:
    the first running sum of the weights (clipped at 0, in order) above u times
    their total, found in plain Python. With ``size``, an array of that many
    indices from the same stream as ``size`` single draws. A non-finite weight raises."""
    cum, total = [], 0.0
    for p in probs:
        p = float(p)
        if not -np.inf < p < np.inf:  # NaN fails too
            raise ValueError(f"outcome weights must be finite, got {list(map(float, probs))!r}")
        total += p if p > 0.0 else 0.0
        cum.append(total)
    if not total > 0.0:
        raise ValueError("all outcome probabilities vanish")
    if size is not None:
        return np.searchsorted(cum, rng.random(size) * total, side="right").clip(0, len(cum) - 1)
    u = rng.random() * total
    for i, c in enumerate(cum):
        if c > u:
            break
    return i  # the last index when no running sum is above u


def _draw_outcome(probs: list[float], rank: int, dim: int, rng: np.random.Generator) -> int:
    """Check the Born weights of a family of total rank ``rank`` on a measured
    space of dimension ``dim`` and draw an outcome for either backend; index
    ``len(probs)`` is the remainder, drawn when 1 - sum(probs) exceeds 1e-10."""
    total = sum(probs)
    if not total <= 1.0 + NORM_TOL or (rank == dim and not abs(total - 1.0) <= NORM_TOL):
        raise ValueError(f"projector family does not resolve the identity on the state "
                         f"(probabilities sum to {total!r})")
    remainder = 1.0 - total
    return sample_index(probs + ([remainder] if remainder > 1e-10 else []), rng)


def _draw_rows(probs: np.ndarray, u: np.ndarray, complete: bool = False) -> np.ndarray:
    """:func:`_draw_outcome` on each row of Born weights (a complete family's
    when ``complete``; a single row is drawn by every uniform), drawn by the
    uniforms ``u``: the same checks, and :func:`sample_index`'s rule, with row sums
    in the order ``sum`` adds. A finite sum within the bounds is checked once: it
    implies the looser bound."""
    if not np.isfinite(probs).all():
        raise ValueError("outcome weights must be finite")
    total = probs.cumsum(axis=1)[:, -1]
    if not (abs(total - 1.0) <= NORM_TOL if complete else total <= 1.0 + NORM_TOL).all():
        bad = ~(total <= 1.0 + NORM_TOL) | complete & ~(abs(total - 1.0) <= NORM_TOL)
        raise ValueError(f"projector family does not resolve the identity on the state "
                         f"(probabilities sum to {float(total[bad][0])!r})")
    if complete:  # a sum within NORM_TOL of 1 leaves no remainder to draw
        return _inverse_cdf(np.maximum(probs, 0.0), u)
    remainder = 1.0 - total
    extra = remainder > 1e-10  # the rows that draw a remainder, as the last outcome
    cum = np.maximum(probs, 0.0).cumsum(axis=1)
    k = _first_above(cum, cum[:, -1] + np.where(extra, remainder, 0.0), u)
    return np.minimum(k, probs.shape[1] - 1 + extra)  # a row without a remainder never draws it


def _inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`sample_index`'s rule on each row of non-negative weights, which need
    not sum to 1, drawn by the uniforms ``u``: the first running sum above u times
    the row's total, or the last index when none is."""
    cum = weights.cumsum(axis=1)
    return np.minimum(_first_above(cum, cum[:, -1], u), weights.shape[1] - 1)


def _first_above(cum: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the number of running sums ``cum`` at or below u times the row's
    ``total`` (the sum of its weights): the index of the first one above."""
    if not (total > 0.0).all():
        raise ValueError("all outcome probabilities vanish")
    return (cum <= (u * total)[:, None]).sum(axis=1)


def _sample(
    state: DenseState, rng: np.random.Generator, mat: np.ndarray, perm: list[int], rank: float,
    weights: list[float], expand: Callable[[int], np.ndarray],
) -> tuple[int, DenseState, float]:
    """Draw an outcome of a family scored in place on the (measured, rest)
    matrix ``mat`` and expand only it (for the remainder, ``mat`` minus every
    member in member order); report the squared norm of the projected matrix."""
    k = _draw_outcome(weights, rank, mat.shape[0], rng)
    post = expand(k) if k < len(weights) else mat - sum(map(expand, range(len(weights))))
    p = float(np.real(np.vdot(post, post)))
    return k, _from_matrix(state, _scaled(post, np.sqrt(p)), perm), p


def measure_projective(
    state: DenseState,
    projectors: Sequence[np.ndarray],
    rng: np.random.Generator,
    registers: Sequence[int] | None = None,
    *,
    diagonal: bool = False,
) -> tuple[int, DenseState, float]:
    """Sample a projective measurement with Born probabilities.

    Projectors act on the joint space of ``registers`` (all registers when
    None, in any order) and take the forms both backends accept: normalized
    kets (rank-1), square matrices diagonal in the computational basis, and
    with ``diagonal=True`` 0/1 masks of the measured registers' dims (or
    flat). They must be mutually orthogonal; if they do not sum to the
    identity a remainder projector is synthesized as the final outcome index
    ``len(projectors)``.

    Returns (outcome index, post-measurement state, outcome probability).
    """
    return _sample(state, rng, *_projected(state, registers, projectors, diagonal))


def project(
    state: DenseState, registers: Sequence[int], projector: np.ndarray, *, diagonal: bool = False
) -> tuple[float, DenseState | None]:
    """Deterministic projection onto one projector of any
    :func:`measure_projective` form: (probability, normalized post-state or
    None when the probability vanishes)."""
    _, perm, _, _, expand = _projected(state, registers, [projector], diagonal)
    post = expand(0)
    p = float(np.real(np.vdot(post, post)))
    if p <= VANISHING_PROB:
        return p, None
    return p, _from_matrix(state, _scaled(post, np.sqrt(p)), perm)


# ---------------------------------------------------------------------------
# register bookkeeping


def drop_product_register(state: DenseState, register: int) -> DenseState:
    """Remove a register that is in a product state with the rest.

    Raises if the register is entangled (Schmidt rank > 1 within tolerance).
    """
    _check_registers([register], state.num_registers)
    if state.num_registers == 1:
        raise ValueError("cannot drop the only register")
    mat, perm = _as_matrix(state, [register])
    _, svals, vh = np.linalg.svd(mat, full_matrices=False)
    if svals.size > 1 and svals[1] > 1e-10:
        raise ValueError(f"register {register} is entangled with the rest; cannot drop")
    # The dominant right singular vector is the rest factor.
    return DenseState(tuple(state.dims[r] for r in perm[1:]), vh[0])
