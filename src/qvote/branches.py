"""Structured branch representation of correlated ballot states.

Every state the ballot protocols produce is a sum of a few "branches", each a
product of per-register local states. This module keeps that structure
explicit so protocols scale past the dense amplitude budget. The operation
set is deliberately narrow: monomial local unitaries, register attachment and
swaps, label-controlled shifts, one sanctioned two-register joint unitary
(for the entangling eavesdropper), diagonal projective measurements, and
rank-1 measurements whose targets are themselves branch states. Anything
else must be routed through the dense backend.

Register conventions and tolerances match :mod:`qvote.states`; states are
compared up to a global phase throughout.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .states import (
    DENSE_AMP_BUDGET,
    NORM_TOL,
    DenseBudgetError,
    DenseState,
    DensityMatrix,
    _check_registers,
    _kept_dim,
    check_unitary,
    sample_index,
)

_ZERO_TOL = 1e-14


class BranchError(ValueError):
    """Operation would leave the branch representation; use the dense backend."""


class BasisFactor:
    __slots__ = ("label",)

    def __init__(self, label: int):
        self.label = int(label)

    def __repr__(self) -> str:
        return f"|{self.label}>"


class VecFactor:
    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        n = np.linalg.norm(amps)
        if n <= _ZERO_TOL or n > 1.0 + 1e-9:
            raise ValueError(f"local factor norm {n!r} outside (0, 1]")
        self.amps = amps

    def __repr__(self) -> str:
        return f"vec{np.round(self.amps, 3)!r}"


class JointFactor:
    """Two-register factor; ``regs`` is sorted and ``amps`` has one axis per register."""

    __slots__ = ("regs", "amps")

    def __init__(self, regs: tuple[int, int], amps: np.ndarray):
        if regs[0] >= regs[1]:
            raise ValueError("joint factor registers must be sorted and distinct")
        self.regs = (int(regs[0]), int(regs[1]))
        self.amps = np.asarray(amps, dtype=complex)
        if self.amps.ndim != 2:
            raise ValueError("joint factor amplitudes must be a 2-D array")


Factor = BasisFactor | VecFactor | JointFactor
Branch = tuple[complex, tuple[Factor, ...]]


def _factor_vector(f: Factor, dim: int) -> np.ndarray:
    if isinstance(f, BasisFactor):
        v = np.zeros(dim, dtype=complex)
        v[f.label] = 1.0
        return v
    return f.amps


def _tidy_factor(f: Factor) -> tuple[complex, Factor]:
    """Canonicalize: a one-hot vector becomes a basis factor; weight moves out."""
    if isinstance(f, VecFactor):
        nz = np.flatnonzero(np.abs(f.amps) > _ZERO_TOL)
        if nz.size == 1:
            return complex(f.amps[nz[0]]), BasisFactor(int(nz[0]))
    return 1.0 + 0.0j, f


class BranchState:
    """Superposition of product-form branches over a fixed register layout."""

    __slots__ = ("dims", "branches")

    def __init__(self, dims: Sequence[int], branches: Sequence[Branch], *, renormalize: bool = True):
        dims = tuple(int(d) for d in dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"register dimensions must be >= 2, got {dims}")
        cleaned: list[Branch] = []
        for coeff, factors in branches:
            factors = tuple(factors)
            if len(factors) != len(dims):
                raise ValueError("each branch needs one factor slot per register")
            self._validate_factors(factors, dims)
            coeff = complex(coeff)
            new_factors = []
            seen_joint: dict[int, JointFactor] = {}
            for r, f in enumerate(factors):
                if isinstance(f, JointFactor):
                    new_factors.append(seen_joint.setdefault(id(f), f))
                else:
                    w, g = _tidy_factor(f)
                    coeff *= w
                    new_factors.append(g)
            if abs(coeff) > _ZERO_TOL:
                cleaned.append((coeff, tuple(new_factors)))
        if not cleaned:
            raise ValueError("branch state must have at least one branch")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "branches", tuple(cleaned))
        if renormalize:
            n = self.norm()
            if abs(n - 1.0) > NORM_TOL:
                raise ValueError(f"branch state norm {n!r} deviates from 1 beyond {NORM_TOL}")
            if n != 1.0:
                object.__setattr__(self, "branches", tuple((c / n, fs) for c, fs in cleaned))

    def __setattr__(self, name, value):  # immutable once constructed
        raise AttributeError("BranchState is immutable")

    @staticmethod
    def _validate_factors(factors: tuple[Factor, ...], dims: tuple[int, ...]) -> None:
        for r, f in enumerate(factors):
            if isinstance(f, BasisFactor):
                if not 0 <= f.label < dims[r]:
                    raise ValueError(f"basis label {f.label} out of range for register {r}")
            elif isinstance(f, VecFactor):
                if f.amps.size != dims[r]:
                    raise ValueError(f"local factor length mismatch on register {r}")
            elif isinstance(f, JointFactor):
                if r not in f.regs:
                    raise ValueError(f"joint factor listed on register {r} it does not span")
                if factors[f.regs[0]] is not f or factors[f.regs[1]] is not f:
                    raise ValueError("joint factor must occupy both of its register slots")
                if f.amps.shape != (dims[f.regs[0]], dims[f.regs[1]]):
                    raise ValueError("joint factor shape mismatch")
            else:
                raise TypeError(f"unknown factor type {type(f)!r}")

    @property
    def num_registers(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.sqrt(max(0.0, np.real(branch_inner(self, self)))))

    def __repr__(self) -> str:
        return f"BranchState(dims={self.dims}, branches={len(self.branches)})"


# ---------------------------------------------------------------------------
# construction helpers


def ghz_branches(D: int, N: int) -> BranchState:
    """The uniform correlated ballot state as D basis branches."""
    if D < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {D}")
    if N < 1:
        raise ValueError(f"register count must be >= 1, got {N}")
    c = 1.0 / np.sqrt(D)
    return BranchState((D,) * N, [(c, tuple(BasisFactor(j) for _ in range(N))) for j in range(D)])


def phase_ghz(D: int, N: int, theta: float) -> BranchState:
    """(1/sqrt(D)) sum_j e^{i j theta} |j>^(x N)."""
    c = 1.0 / np.sqrt(D)
    return BranchState(
        (D,) * N,
        [(c * np.exp(1j * j * theta), tuple(BasisFactor(j) for _ in range(N))) for j in range(D)],
    )


def shifted_ghz(D: int, offsets: Sequence[int]) -> BranchState:
    """(1/sqrt(D)) sum_j |j+o_0> |j+o_1> ... with per-register offsets mod D."""
    c = 1.0 / np.sqrt(D)
    return BranchState(
        (D,) * len(offsets),
        [(c, tuple(BasisFactor((j + o) % D) for o in offsets)) for j in range(D)],
    )


def tensor_branches(a: BranchState, b: BranchState) -> BranchState:
    """Product of two branch states on disjoint register groups (a's first)."""
    branches = []
    for ca, fa in a.branches:
        for cb, fb in b.branches:
            shifted = []
            remap: dict[int, JointFactor] = {}
            for f in fb:
                if isinstance(f, JointFactor):
                    g = remap.setdefault(
                        id(f),
                        JointFactor((f.regs[0] + a.num_registers, f.regs[1] + a.num_registers), f.amps),
                    )
                    shifted.append(g)
                else:
                    shifted.append(f)
            branches.append((ca * cb, fa + tuple(shifted)))
    return BranchState(a.dims + b.dims, branches, renormalize=False)


# ---------------------------------------------------------------------------
# overlap machinery


def _blocks(fa: tuple[Factor, ...], fb: tuple[Factor, ...], regs: Sequence[int]) -> list[tuple[int, ...]]:
    """Partition ``regs`` into blocks closed under both branches' joint spans."""
    parent = {r: r for r in regs}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    def union(p, q):
        parent[find(p)] = find(q)

    for factors in (fa, fb):
        for r in regs:
            f = factors[r]
            if isinstance(f, JointFactor):
                p, q = f.regs
                if p in parent and q in parent:
                    union(p, q)
                elif p in parent or q in parent:
                    raise BranchError(
                        "joint factor straddles the register subset; route through the dense backend"
                    )
    groups: dict[int, list[int]] = {}
    for r in regs:
        groups.setdefault(find(r), []).append(r)
    return [tuple(sorted(g)) for g in sorted(groups.values())]


def _block_vector(
    factors: tuple[Factor, ...], block: Sequence[int], dims: tuple[int, ...], coeff: complex = 1.0 + 0.0j
) -> np.ndarray:
    """coeff times a branch's factors expanded over the block registers, axes in block order."""
    arr = np.asarray(coeff)
    axes: list[int] = []
    done: set[int] = set()
    for r in block:
        if r in done:
            continue
        f = factors[r]
        if isinstance(f, JointFactor):
            arr = np.multiply.outer(arr, f.amps)
            axes.extend(f.regs)
            done.update(f.regs)
        else:
            arr = np.multiply.outer(arr, _factor_vector(f, dims[r]))
            axes.append(r)
            done.add(r)
    order = [axes.index(r) for r in block]
    return arr.transpose(order)


def _pair_overlap(
    fa: tuple[Factor, ...], fb: tuple[Factor, ...], dims: tuple[int, ...], regs: Sequence[int]
) -> complex:
    """<fa|fb> restricted to ``regs`` (joint factors must not straddle the cut)."""
    out = 1.0 + 0.0j
    plain = []
    need_blocks = False
    for r in regs:
        a, b = fa[r], fb[r]
        if isinstance(a, JointFactor) or isinstance(b, JointFactor):
            need_blocks = True
            plain.append(r)
            continue
        if isinstance(a, BasisFactor) and isinstance(b, BasisFactor):
            if a.label != b.label:
                return 0.0
        elif isinstance(a, BasisFactor):
            out *= b.amps[a.label]
        elif isinstance(b, BasisFactor):
            out *= np.conj(a.amps[b.label])
        else:
            out *= np.vdot(a.amps, b.amps)
        if out == 0.0:
            return 0.0
    if need_blocks:
        for block in _blocks(fa, fb, plain):
            va = _block_vector(fa, block, dims).reshape(-1)
            vb = _block_vector(fb, block, dims).reshape(-1)
            out *= np.vdot(va, vb)
            if out == 0.0:
                return 0.0
    return complex(out)


def _inner(dims: tuple[int, ...], bra: Sequence[Branch], ket: Sequence[Branch]) -> complex:
    """Sum over branch pairs of conj(c_bra) c_ket <bra factors|ket factors>."""
    regs = range(len(dims))
    total = 0.0 + 0.0j
    for ca, fa in bra:
        for cb, fb in ket:
            ov = _pair_overlap(fa, fb, dims, regs)
            if ov != 0.0:
                total += np.conj(ca) * cb * ov
    return complex(total)


def branch_inner(a: BranchState, b: BranchState) -> complex:
    """Full inner product <a|b> including all cross terms."""
    if a.dims != b.dims:
        raise ValueError(f"layout mismatch: {a.dims} vs {b.dims}")
    return _inner(a.dims, a.branches, b.branches)


# ---------------------------------------------------------------------------
# dense bridge


def to_dense(state: BranchState) -> DenseState:
    """Exact expansion into the dense backend (one-way)."""
    total = 1
    for d in state.dims:
        total *= d
        if total > DENSE_AMP_BUDGET:
            raise DenseBudgetError(
                f"branch state with dims {state.dims} exceeds the dense amplitude budget"
            )
    out = np.zeros(state.dims, dtype=complex)
    for coeff, factors in state.branches:
        out += _block_vector(factors, range(len(state.dims)), state.dims, coeff)
    return DenseState(state.dims, out.reshape(-1))


# ---------------------------------------------------------------------------
# unitary-type operations


def _monomial_parts(U: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Decompose U = permutation * phases; None when U is not monomial."""
    d = U.shape[0]
    perm = np.full(d, -1, dtype=int)
    phases = np.zeros(d, dtype=complex)
    for col in range(d):
        nz = np.flatnonzero(np.abs(U[:, col]) > 1e-12)
        if nz.size != 1:
            return None
        perm[col] = nz[0]
        phases[col] = U[nz[0], col]
    if len(set(perm.tolist())) != d:
        return None
    return perm, phases


def apply_branch_local(state: BranchState, register: int, U: np.ndarray) -> BranchState:
    """Apply a single-register unitary branchwise.

    Monomial unitaries keep basis factors as basis factors; anything else
    promotes the touched factor to a small local vector.
    """
    if not 0 <= register < state.num_registers:
        raise ValueError(f"register {register} out of range")
    U = check_unitary(U, state.dims[register])
    mono = _monomial_parts(U)
    branches = []
    for coeff, factors in state.branches:
        f = factors[register]
        new = list(factors)
        if isinstance(f, BasisFactor):
            if mono is not None:
                perm, phases = mono
                coeff = coeff * phases[f.label]
                new[register] = BasisFactor(int(perm[f.label]))
            else:
                new[register] = VecFactor(U[:, f.label])
        elif isinstance(f, VecFactor):
            new[register] = VecFactor(U @ f.amps)
        else:
            axis = f.regs.index(register)
            amps = np.tensordot(U, f.amps, axes=([1], [axis]))
            if axis == 1:
                amps = amps.T
            g = JointFactor(f.regs, amps)
            new[f.regs[0]] = g
            new[f.regs[1]] = g
        branches.append((coeff, tuple(new)))
    return BranchState(state.dims, branches, renormalize=False)


def attach_register(state: BranchState, dim: int, initial: int | np.ndarray) -> BranchState:
    """Extend the layout by a fresh register in the same state on every branch."""
    if dim < 2:
        raise ValueError(f"register dimensions must be >= 2, got {dim}")
    if not state.branches:
        raise ValueError("cannot attach to an empty branch state")
    if isinstance(initial, (int, np.integer)):
        if not 0 <= int(initial) < dim:
            raise ValueError(f"initial label {initial} out of range for dimension {dim}")
        make = lambda: BasisFactor(int(initial))
    else:
        amps = np.asarray(initial, dtype=complex).reshape(-1)
        if amps.size != dim:
            raise ValueError("initial vector length does not match the register dimension")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("attached register state must be normalized")
        make = lambda: VecFactor(amps)
    branches = [(c, fs + (make(),)) for c, fs in state.branches]
    return BranchState(state.dims + (dim,), branches, renormalize=False)


def swap_registers(state: BranchState, i: int, j: int) -> BranchState:
    """Exchange two equal-dimension registers (branchwise factor swap)."""
    if i == j:
        raise ValueError("swap registers must be distinct")
    if state.dims[i] != state.dims[j]:
        raise ValueError("swap requires equal register dimensions")
    perm = {i: j, j: i}
    branches = []
    for coeff, factors in state.branches:
        new: list[Factor | None] = [None] * len(factors)
        moved: dict[int, JointFactor] = {}
        for r in range(len(factors)):
            src = perm.get(r, r)
            f = factors[src]
            if isinstance(f, JointFactor):
                if id(f) not in moved:
                    p, q = (perm.get(f.regs[0], f.regs[0]), perm.get(f.regs[1], f.regs[1]))
                    amps = f.amps if p < q else f.amps.T
                    moved[id(f)] = JointFactor((min(p, q), max(p, q)), amps)
                g = moved[id(f)]
                new[g.regs[0]] = g
                new[g.regs[1]] = g
            else:
                new[r] = f
        branches.append((coeff, tuple(new)))  # type: ignore[arg-type]
    return BranchState(state.dims, branches, renormalize=False)


def apply_controlled_shift(
    state: BranchState, control: int, target: int, shifts: Sequence[int]
) -> BranchState:
    """Cyclic-shift the target register by an amount selected by the control label.

    The control must be a basis factor on every branch (true throughout the
    ballot protocols, whose correlations live in the branch label).
    """
    if control == target:
        raise ValueError("control and target must be distinct")
    d = state.dims[target]
    if len(shifts) != state.dims[control]:
        raise ValueError("one shift per control label required")
    branches = []
    for coeff, factors in state.branches:
        c = factors[control]
        if not isinstance(c, BasisFactor):
            raise BranchError("controlled shift requires a basis-factor control register")
        s = int(shifts[c.label]) % d
        f = factors[target]
        new = list(factors)
        if isinstance(f, BasisFactor):
            new[target] = BasisFactor((f.label + s) % d)
        elif isinstance(f, VecFactor):
            new[target] = VecFactor(np.roll(f.amps, s))
        else:
            axis = f.regs.index(target)
            g = JointFactor(f.regs, np.roll(f.amps, s, axis=axis))
            new[f.regs[0]] = g
            new[f.regs[1]] = g
        branches.append((coeff, tuple(new)))
    return BranchState(state.dims, branches, renormalize=False)


def apply_pair_unitary(state: BranchState, pair: tuple[int, int], U: np.ndarray) -> BranchState:
    """Apply a joint unitary on two registers, producing (at most) one joint factor.

    This is the sanctioned two-register operation used by the entangling
    eavesdropper; ``U`` acts on the tensor space ordered as ``pair``.
    """
    i, j = pair
    if i == j:
        raise ValueError("pair registers must be distinct")
    di, dj = state.dims[i], state.dims[j]
    U = check_unitary(U, di * dj)
    lo, hi = min(i, j), max(i, j)
    branches = []
    for coeff, factors in state.branches:
        fi, fj = factors[i], factors[j]
        if isinstance(fi, JointFactor) or isinstance(fj, JointFactor):
            if not (fi is fj and isinstance(fi, JointFactor)):
                raise BranchError(
                    "a second joint factor pair is not representable; use the dense backend"
                )
            block = fi.amps if (i, j) == fi.regs else fi.amps.T
            vec = block.reshape(-1)
        else:
            vec = np.kron(_factor_vector(fi, di), _factor_vector(fj, dj))
        out = (U @ vec).reshape(di, dj)
        amps = out if i < j else out.T  # store axes in sorted register order
        new = list(factors)
        # Split back into local factors when the result is still a product.
        u, s, vh = np.linalg.svd(amps)
        if s.size == 1 or s[1] <= 1e-12:
            new[lo] = VecFactor(u[:, 0])
            new[hi] = VecFactor(vh[0])
            branches.append((coeff * s[0], tuple(new)))
        else:
            g = JointFactor((lo, hi), amps)
            new[lo] = g
            new[hi] = g
            branches.append((coeff, tuple(new)))
    return BranchState(state.dims, branches, renormalize=False)


def drop_register(state: BranchState, register: int) -> BranchState:
    """Remove a register whose factor is identical (and local) on every branch."""
    if state.num_registers == 1:
        raise ValueError("cannot drop the only register")
    d = state.dims[register]
    ref = state.branches[0][1][register]
    if isinstance(ref, JointFactor):
        raise BranchError(f"register {register} is inside a joint factor; cannot drop")
    ref_vec = _factor_vector(ref, d)
    for _, factors in state.branches:
        f = factors[register]
        if isinstance(f, JointFactor):
            raise BranchError(f"register {register} is inside a joint factor; cannot drop")
        if np.max(np.abs(_factor_vector(f, d) - ref_vec)) > 1e-10:
            raise BranchError(f"register {register} is correlated across branches; cannot drop")
    scale = np.linalg.norm(ref_vec)
    branches = [
        (c * scale, tuple(f for r, f in enumerate(fs) if r != register))
        for c, fs in state.branches
    ]
    dims = tuple(d for r, d in enumerate(state.dims) if r != register)
    return BranchState(dims, branches, renormalize=False)


# ---------------------------------------------------------------------------
# reduced density matrices


def branch_partial_trace(state: BranchState, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on the kept registers (in the order given)."""
    keep, kdim = _kept_dim(keep, state.dims)
    keep_set = set(keep)
    rho = np.zeros((kdim, kdim), dtype=complex)
    all_regs = range(state.num_registers)
    for cket, fket in state.branches:
        for cbra, fbra in state.branches:
            scale = cket * np.conj(cbra)
            mats: list[tuple[list[int], np.ndarray]] = []  # (kept regs, kept-space matrix)
            dead = False
            for block in _blocks(fket, fbra, all_regs):
                kept = [r for r in block if r in keep_set]
                if not kept:
                    ov = _pair_overlap(fbra, fket, state.dims, block)
                    if ov == 0.0:
                        dead = True
                        break
                    scale *= ov
                    continue
                traced = [r for r in block if r not in keep_set]
                order = kept + traced
                vk = _block_vector(fket, tuple(order), state.dims)
                vb = _block_vector(fbra, tuple(order), state.dims)
                kd = int(np.prod([state.dims[r] for r in kept]))
                vk = vk.reshape(kd, -1)
                vb = vb.reshape(kd, -1)
                mats.append((kept, vk @ vb.conj().T))
            if dead:
                continue
            # Assemble the tensor product of block matrices in keep order.
            arr = np.asarray(scale)
            row_axes: dict[int, int] = {}
            col_axes: dict[int, int] = {}
            pos = 0
            for kept, M in mats:
                shape = [state.dims[r] for r in kept]
                arr = np.multiply.outer(arr, M.reshape(shape + shape))
                for k, r in enumerate(kept):
                    row_axes[r] = pos + k
                    col_axes[r] = pos + len(kept) + k
                pos += 2 * len(kept)
            perm = [row_axes[r] for r in keep] + [col_axes[r] for r in keep]
            rho += arr.transpose(perm).reshape(kdim, kdim)
    return DensityMatrix(rho)


# ---------------------------------------------------------------------------
# measurement


def _apply_diag_mask(
    state: BranchState, regs: list[int], mask: np.ndarray
) -> list[Branch]:
    """Project branchwise with a diagonal (computational-basis) 0/1 mask."""
    out: list[Branch] = []
    for coeff, factors in state.branches:
        sub = mask
        free: list[tuple[str, int, int | None]] = []  # (kind, register, joint axis)
        for r in regs:
            f = factors[r]
            if isinstance(f, BasisFactor):
                sub = np.take(sub, f.label, axis=len(free))
            elif isinstance(f, VecFactor):
                free.append(("vec", r, None))
            else:
                free.append(("joint", r, f.regs.index(r)))
        # ``sub`` now has one axis per free register, in their order within regs.
        if not free:
            w = complex(sub)
            if abs(w) > _ZERO_TOL:
                out.append((coeff * w, factors))
            continue
        if len(free) == 1:
            kind, r, axis = free[0]
            weights = np.asarray(sub, dtype=complex).reshape(-1)
            new = list(factors)
            f = factors[r]
            if kind == "vec":
                amps = f.amps * weights
                if np.linalg.norm(amps) <= _ZERO_TOL:
                    continue
                w2, g = _tidy_factor(VecFactor(amps))
                new[r] = g
                out.append((coeff * w2, tuple(new)))
            else:
                shaped = [1, 1]
                shaped[axis] = weights.size
                amps = f.amps * weights.reshape(shaped)
                if np.linalg.norm(amps) <= _ZERO_TOL:
                    continue
                g = JointFactor(f.regs, amps)
                new[f.regs[0]] = g
                new[f.regs[1]] = g
                out.append((coeff, tuple(new)))
            continue
        # Two free registers are only allowed when they form one joint factor.
        if len(free) == 2 and free[0][0] == "joint" and free[1][0] == "joint":
            f0 = factors[free[0][1]]
            if f0 is factors[free[1][1]]:
                axes = (free[0][2], free[1][2])
                w2 = np.asarray(sub, dtype=complex)
                if axes == (1, 0):
                    w2 = w2.T
                amps = f0.amps * w2
                if np.linalg.norm(amps) <= _ZERO_TOL:
                    continue
                new = list(factors)
                g = JointFactor(f0.regs, amps)
                new[g.regs[0]] = g
                new[g.regs[1]] = g
                out.append((coeff, tuple(new)))
                continue
        raise BranchError(
            "diagonal projection couples two independent non-basis registers; "
            "use the dense backend"
        )
    return out


def _collapse_onto(
    state: BranchState, target: BranchState, regs: list[int]
) -> tuple[list[Branch], list[int]]:
    """Branches of <target|_regs |state>, a state over the remaining registers."""
    rest = [r for r in range(state.num_registers) if r not in regs]
    reg_set = set(regs)
    out: list[Branch] = []
    for tc, tf in target.branches:
        for f in tf:
            if isinstance(f, JointFactor):
                raise BranchError("measurement targets must have local factors only")
        for c, factors in state.branches:
            # Scalar part plus possible leftover vectors from straddling joints.
            scal = np.conj(tc) * c
            leftovers: dict[int, np.ndarray] = {}
            dead = False
            handled: set[int] = set()
            for k, r in enumerate(regs):
                if r in handled:
                    continue
                tvec = _factor_vector(tf[k], target.dims[k])
                f = factors[r]
                if isinstance(f, JointFactor):
                    other = f.regs[0] if f.regs[1] == r else f.regs[1]
                    axis = f.regs.index(r)
                    reduced = np.tensordot(np.conj(tvec), f.amps, axes=([0], [axis]))
                    if other in reg_set:
                        ko = regs.index(other)
                        scal *= np.conj(_factor_vector(tf[ko], target.dims[ko])) @ reduced
                        handled.add(other)
                    else:
                        leftovers[other] = reduced
                elif isinstance(f, BasisFactor):
                    scal *= np.conj(tvec[f.label])
                else:
                    scal *= np.vdot(tvec, f.amps)
                handled.add(r)
                if scal == 0.0:
                    dead = True
                    break
            if dead or abs(scal) <= _ZERO_TOL:
                continue
            new_factors: list[Factor] = []
            joint_remap: dict[int, JointFactor] = {}
            for r in rest:
                if r in leftovers:
                    v = leftovers[r]
                    n = np.linalg.norm(v)
                    if n <= _ZERO_TOL:
                        dead = True
                        break
                    scal *= n
                    w, g = _tidy_factor(VecFactor(v / n))
                    scal *= w
                    new_factors.append(g)
                else:
                    f = factors[r]
                    if isinstance(f, JointFactor):
                        g = joint_remap.setdefault(
                            id(f),
                            JointFactor(
                                (rest.index(f.regs[0]), rest.index(f.regs[1])), f.amps
                            ),
                        )
                        new_factors.append(g)
                    else:
                        new_factors.append(f)
            if dead:
                continue
            out.append((scal, tuple(new_factors)))
    return out, rest


def _branch_norm_sq(dims: tuple[int, ...], branches: list[Branch]) -> float:
    return max(0.0, _inner(dims, branches, branches).real)


def branch_measure(
    state: BranchState,
    projectors: Sequence[np.ndarray | BranchState],
    rng: np.random.Generator,
    registers: Sequence[int] | None = None,
) -> tuple[int, BranchState | None, float]:
    """Born-rule measurement restricted to branch-representable projectors.

    Supported projector forms, acting on ``registers`` (all when None):

    * square arrays that are diagonal in the computational basis (0/1);
    * 1-D kets when a single register is measured;
    * :class:`BranchState` targets (rank-1 onto a correlated state).

    Projectors must be mutually orthogonal; when they do not resolve the
    identity a remainder outcome with index ``len(projectors)`` is
    synthesized. The remainder's post-state may exceed the usual branch
    count; it is returned as-is (or None if it cannot be normalized).
    """
    if len(projectors) == 0:
        raise ValueError("projector list must not be empty")
    if registers is None:
        registers = range(state.num_registers)
    regs = _check_registers(registers, state.num_registers)
    if len(regs) == state.num_registers and regs != sorted(regs):
        raise ValueError("full-space measurement requires registers in ascending order")
    sdims = tuple(state.dims[r] for r in regs)
    sub = int(np.prod(sdims))

    targets: list[BranchState] = []
    masks: list[np.ndarray] = []
    for P in projectors:
        if isinstance(P, BranchState):
            if P.dims != sdims:
                raise ValueError("target state layout does not match the measured registers")
            targets.append(P)
        else:
            P = np.asarray(P, dtype=complex)
            if P.ndim == 1:
                if len(regs) != 1:
                    raise BranchError(
                        "raw kets are only supported on a single register; "
                        "pass a BranchState for multi-register targets"
                    )
                if P.size != sub or abs(np.linalg.norm(P) - 1.0) > NORM_TOL:
                    raise ValueError("rank-1 projector ket must be normalized and match the register")
                targets.append(BranchState(sdims, [(1.0, (VecFactor(P),))], renormalize=False))
            elif P.ndim == 2:
                if P.shape != (sub, sub):
                    raise ValueError(f"projector shape {P.shape} does not match subspace {sub}")
                diag = np.diagonal(P)
                if np.max(np.abs(P - np.diag(diag))) > 1e-12:
                    raise BranchError(
                        "matrix projectors must be diagonal in the computational basis"
                    )
                if np.max(np.abs(diag * (1 - diag))) > 1e-10:
                    raise ValueError("diagonal projector entries must be 0 or 1")
                masks.append(np.real(diag).round().reshape(sdims))
            else:
                raise ValueError("unsupported projector object")
    if targets and masks:
        raise ValueError("do not mix diagonal and rank-1 projectors in one measurement")

    # Orthogonality checks.
    if masks:
        tot = np.zeros(sdims)
        for m in masks:
            tot += m
        if np.max(tot) > 1 + 1e-9:
            raise ValueError("diagonal projectors overlap")
    if targets:
        for i in range(len(targets)):
            for j in range(i + 1, len(targets)):
                if abs(branch_inner(targets[i], targets[j])) > NORM_TOL:
                    raise ValueError("measurement targets are not mutually orthogonal")

    outcomes: list[tuple[list[Branch], tuple[int, ...]]] = []
    probs: list[float] = []
    if masks:
        for m in masks:
            br = _apply_diag_mask(state, regs, m)
            p = _branch_norm_sq(state.dims, br) if br else 0.0
            outcomes.append((br, state.dims))
            probs.append(p)
    else:
        for t in targets:
            if len(regs) == state.num_registers and regs == sorted(regs):
                amp = branch_inner(t, state)
                p = float(abs(amp) ** 2)
                post = [(amp * c, fs) for c, fs in t.branches] if p > 0 else []
                outcomes.append((post, state.dims))
                probs.append(p)
            else:
                chi, rest = _collapse_onto(state, t, regs)
                rdims = tuple(state.dims[r] for r in rest)
                p = _branch_norm_sq(rdims, chi) if chi else 0.0
                outcomes.append(((chi, t, rest), None))  # assembled lazily below
                probs.append(p)

    total = float(sum(probs))
    remainder = 1.0 - total
    has_remainder = remainder > 1e-10
    if total > 1.0 + 1e-8:
        raise ValueError("projector probabilities exceed 1; family is not orthogonal")
    plist = probs + ([remainder] if has_remainder else [])
    k = sample_index(plist, rng)
    if k == len(probs):
        post = _remainder_post_state(state, outcomes, regs)
        return k, post, remainder

    p = probs[k]
    payload, dims_or_none = outcomes[k]
    if dims_or_none is not None:
        branches = [(c / np.sqrt(p), fs) for c, fs in payload]
        return k, BranchState(state.dims, branches, renormalize=False), p
    chi, t, rest = payload
    rest_state = BranchState(
        tuple(state.dims[r] for r in rest),
        [(c / np.sqrt(p), fs) for c, fs in chi],
        renormalize=False,
    )
    assembled = _assemble_subset_product(t, rest_state, regs, rest, state.dims)
    return k, assembled, p


def _assemble_subset_product(
    t: BranchState,
    rest_state: BranchState,
    regs: list[int],
    rest: list[int],
    dims: tuple[int, ...],
) -> BranchState:
    """Reassemble target (on ``regs``) x rest into the full register order."""
    branches = []
    for tc, tf in t.branches:
        for rc, rf in rest_state.branches:
            slots: list[Factor | None] = [None] * len(dims)
            for k, r in enumerate(regs):
                slots[r] = tf[k]
            remap: dict[int, JointFactor] = {}
            for k, r in enumerate(rest):
                f = rf[k]
                if isinstance(f, JointFactor):
                    g = remap.setdefault(
                        id(f), JointFactor((rest[f.regs[0]], rest[f.regs[1]]), f.amps)
                    )
                    slots[r] = g
                else:
                    slots[r] = f
            branches.append((tc * rc, tuple(slots)))  # type: ignore[arg-type]
    return BranchState(dims, branches, renormalize=False)


def project_diag(
    state: BranchState, registers: Sequence[int], mask: np.ndarray
) -> tuple[float, BranchState | None]:
    """Deterministic projection onto a diagonal 0/1 mask over the registers."""
    regs = list(registers)
    sdims = tuple(state.dims[r] for r in regs)
    mask = np.asarray(mask, dtype=float).reshape(sdims)
    br_list = _apply_diag_mask(state, regs, mask)
    p = _branch_norm_sq(state.dims, br_list) if br_list else 0.0
    if p <= 1e-14:
        return p, None
    post = BranchState(
        state.dims, [(c / np.sqrt(p), fs) for c, fs in br_list], renormalize=False
    )
    return p, post


def project_ket(
    state: BranchState, register: int, ket: np.ndarray
) -> tuple[float, BranchState | None]:
    """Deterministic rank-1 projection of one register onto a normalized ket."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    target = BranchState((state.dims[register],), [(1.0, (VecFactor(ket),))], renormalize=False)
    chi, rest = _collapse_onto(state, target, [register])
    rdims = tuple(state.dims[r] for r in rest)
    p = _branch_norm_sq(rdims, chi) if chi else 0.0
    if p <= 1e-14:
        return p, None
    rest_state = BranchState(rdims, [(c / np.sqrt(p), fs) for c, fs in chi], renormalize=False)
    return p, _assemble_subset_product(target, rest_state, [register], rest, state.dims)


def _remainder_post_state(state, outcomes, regs):
    """(I - sum_k P_k)|state>, normalized; None when it is not representable."""
    try:
        branches: list[Branch] = list(state.branches)
        for payload, dims_or_none in outcomes:
            if dims_or_none is not None:
                branches.extend((-c, fs) for c, fs in payload)
            else:
                chi, t, rest = payload
                if not chi:
                    continue
                rest_state = BranchState(
                    tuple(state.dims[r] for r in rest), chi, renormalize=False
                )
                assembled = _assemble_subset_product(t, rest_state, regs, rest, state.dims)
                branches.extend((-c, fs) for c, fs in assembled.branches)
        n2 = _branch_norm_sq(state.dims, branches)
        if n2 <= _ZERO_TOL:
            return None
        n = np.sqrt(n2)
        return BranchState(state.dims, [(c / n, fs) for c, fs in branches], renormalize=False)
    except BranchError:
        return None
