"""A target family's label join, found once when the family is built: full
register scoring against it is bitwise the per-member join, a measurement
walks the state once, and both backends measure any family kind alike."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qvote import branches, groups, states
from qvote.backends import BranchBackend, DenseBackend
from qvote.branches import (
    BranchState,
    MeasurementFamily,
    apply_branch_local,
    apply_pair_unitary,
    branch_measure,
    fourier_family,
    ghz_branches,
    phase_family,
    shift_family,
    to_dense,
)
from qvote.matrices import fourier_basis_kets, phase_vote_matrix


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _per_member_inner(dims, bra, ket):
    """<bra|ket> by the join the projection ran per member before families
    kept theirs: key over the ket and this member only, each matched pair
    overlapped on its own. The reference."""
    if len(ket) * len(bra) < branches._JOIN_MIN_PAIRS:
        key = []
    else:
        key = [r for r in range(len(dims)) if all(type(fs[r]) is int for _, fs in (*ket, *bra))]
    rest = [r for r in range(len(dims)) if r not in key]
    buckets = {}
    for cb, fb in ket:
        buckets.setdefault(tuple(fb[r] for r in key), []).append((cb, fb))
    total = 0.0 + 0.0j
    for ca, fa in bra:
        for cb, fb in buckets.get(tuple(fa[r] for r in key), ()):
            if not rest:
                total += np.conj(ca) * cb
                continue
            ov = branches._pair_overlap(fa, fb, rest)
            if ov != 0.0:
                total += np.conj(ca) * cb * ov
    return complex(total)


def _branch_list_bytes(branch_list):
    return ([np.array(c).tobytes() for c, _ in branch_list],
            [branches._row_key(fs, range(len(fs))) for _, fs in branch_list])


def _random_targets(rng, draws):
    """Orthonormal multi-branch targets: a random unitary's columns over
    distinct label rows, on mixed dims, some with a local unitary applied to
    every target so that rows hold vectors."""
    dims = tuple(int(d) for d in rng.integers(2, 4, int(rng.integers(2, 4))))
    pool = sorted({tuple(int(rng.integers(d)) for d in dims) for _ in range(draws)})
    U = _unitary(rng, len(pool))
    count = int(rng.integers(1, len(pool) + 1))
    targets = [BranchState(dims, list(zip(U[:, k], pool))) for k in range(count)]
    if rng.random() < 0.5:
        r = int(rng.integers(len(dims)))
        W = _unitary(rng, dims[r])
        targets = [apply_branch_local(t, r, W) for t in targets]
    return MeasurementFamily(dims, targets)


def _family(kind, rng, big=True):
    if kind == "phase":
        D = int(rng.integers(3, 7 if big else 5))
        return phase_family(D, int(rng.integers(2, 5 if big else 4)), int(rng.integers(2, D)))
    if kind == "shift":
        return shift_family(int(rng.integers(2, 7 if big else 5)))
    if kind == "s3-vector":  # the regular representation in a random basis: vector rows
        group = groups.symmetric_group_3()
        V = _unitary(rng, group.order)
        mats = groups.regular_representation(group).matrices
        return groups.Representation(group, [V @ M @ V.conj().T for M in mats]).candidate_family
    return _random_targets(rng, 12 if big else 6)


def _state(kind, family, regs, rng, max_rows=16):
    """A state on the registers ``regs`` measures in the family's order: rows
    drawn from the targets' and random label rows, some repeated; then a
    vector shared by every row on one register, or a Schmidt-split pair."""
    dims = [0] * len(regs)
    for i, r in enumerate(regs):
        dims[r] = family.dims[i]
    slots = np.argsort(regs)
    pool = [tuple(fs[i] for i in slots) for t in family.targets for _, fs in t.branches
            if all(type(f) is int for f in fs)]
    pool += [tuple(int(rng.integers(d)) for d in dims) for _ in range(4)]
    rows = [pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(1, min(2 * len(pool), max_rows))))]
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    state = BranchState(dims, list(zip(coeffs, rows)), renormalize=False)
    if kind == "shared":
        r = int(rng.integers(len(dims)))
        v = branches.VecFactor(_unitary(rng, dims[r])[:, 0])
        return BranchState._trusted(state.dims, [(c, fs[:r] + (v,) + fs[r + 1:]) for c, fs in state.branches])
    if kind == "schmidt":
        a, b = (int(x) for x in rng.permutation(len(dims))[:2])
        return apply_pair_unitary(state, (a, b), _unitary(rng, dims[a] * dims[b]))
    return state


@settings(max_examples=240, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1),
       family_kind=hst.sampled_from(["phase", "shift", "s3-vector", "random"]),
       state_kind=hst.sampled_from(["labels", "shared", "schmidt"]))
def test_full_register_scoring_equals_the_per_member_join(seed, family_kind, state_kind):
    """Every member's Born weight and post-state from the family's kept join
    equal, to the bit, a per-member join of the state's rows permuted into
    the measured order, for registers in any order."""
    rng = np.random.default_rng(seed)
    family = _family(family_kind, rng)
    regs = [int(r) for r in rng.permutation(len(family.dims))]
    state = _state(state_kind, family, regs, rng)
    probs, post = branches._project(state, regs, family)
    ket = [(c, tuple(fs[r] for r in regs)) for c, fs in state.branches]
    amps = [_per_member_inner(family.dims, t.branches, ket) for t in family.targets]
    assert [float(p).hex() for p in probs] == [float(abs(a) ** 2).hex() for a in amps]
    slots = np.argsort(regs)
    for k, p in enumerate(probs):
        if p > 1e-12:
            n = np.sqrt(p)
            want = [((amps[k] * c) / n, tuple(tf[i] for i in slots)) for c, tf in family.targets[k].branches]
            assert _branch_list_bytes(post(k, n)) == _branch_list_bytes(want)


def _per_member_collapse(state, target, regs, rest):
    """One target's collapse with its own unmeasured rows, as the projection
    built it per member: the reference."""
    out = []
    for tc, tf in target.branches:
        tvecs = [branches._factor_vector(f, d) for f, d in zip(tf, target.dims)]
        for c, factors in state.branches:
            scal = np.conj(tc) * c
            for tvec, r in zip(tvecs, regs):
                f = factors[r]
                scal *= np.conj(tvec[f]) if type(f) is int else np.vdot(tvec, f.amps)
            if abs(scal) > branches._ZERO_TOL:
                out.append((scal, tuple(factors[r] for r in rest)))
    return out


@settings(max_examples=160, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1),
       family_kind=hst.sampled_from(["phase", "shift", "s3-vector", "random"]),
       state_kind=hst.sampled_from(["labels", "shared", "schmidt"]),
       extra=hst.sampled_from(["label", "vector", "entangled"]))
def test_subset_scoring_equals_the_per_member_collapse(seed, family_kind, state_kind, extra):
    """Measuring multi-branch targets on some of the registers: every member's
    norm from the one join of the unmeasured rows and its post-state equal,
    to the bit, a per-member collapse and pair loop."""
    rng = np.random.default_rng(seed)
    family = _family(family_kind, rng, big=False)
    regs = [int(r) for r in rng.permutation(len(family.dims))]
    state = _state(state_kind, family, regs, rng, max_rows=8)
    d = int(rng.integers(2, 4))
    state = branches.attach_register(state, d, 1 if extra == "label" else _unitary(rng, d)[:, 0])
    if extra == "entangled":
        state = apply_pair_unitary(state, (regs[0], len(regs)), _unitary(rng, state.dims[regs[0]] * d))
    rest = [len(regs)]
    rdims = (d,)
    probs, post = branches._project(state, regs, family)
    chis = [_per_member_collapse(state, t, regs, rest) for t in family.targets]
    want = [max(_per_member_inner(rdims, chi, chi).real, 0.0) for chi in chis]
    assert [float(p).hex() for p in probs] == [float(w).hex() for w in want]
    slots = np.argsort(regs + rest)
    for k, p in enumerate(probs):
        if p > 1e-12:
            n = np.sqrt(p)
            ref = [(tc * (c / n), tuple((tf + rf)[i] for i in slots))
                   for tc, tf in family.targets[k].branches for c, rf in chis[k]]
            assert _branch_list_bytes(post(k, n)) == _branch_list_bytes(ref)


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(branches, name)
    monkeypatch.setattr(branches, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_announcement_joins_the_state_once(monkeypatch):
    """Each announcement of a D=13 dolev ballot finds the join of the state's
    rows once for all 13 members."""
    D, rng = 13, np.random.default_rng(5)
    state = ghz_branches(D, D - 1)
    for k in (0, 3, 4, 9):
        state = apply_branch_local(state, k, phase_vote_matrix(D, -1))
    family = fourier_family(D)
    calls = _counting(monkeypatch, "_join_key")
    for r in range(D - 1):
        before = len(calls)
        _, state, _ = branch_measure(state, family, rng, registers=[r])
        assert len(calls) - before <= 1


def test_tally_walks_no_family_row(monkeypatch):
    """A D=49 tally hashes each state row once and walks none of the
    family's 2,401 rows: no key search, one label lookup per state row."""
    D = 49
    family = phase_family(D, D - 1)
    state = ghz_branches(D, D - 1)
    for k in range(0, D - 1, 3):
        state = apply_branch_local(state, k, phase_vote_matrix(D))
    join_keys, labels = _counting(monkeypatch, "_join_key"), _counting(monkeypatch, "_labels")
    m, _, p = BranchBackend().measure_targets(state, family, np.random.default_rng(0))
    assert (m, join_keys, len(labels)) == (16, [], len(state.branches))
    assert p == pytest.approx(1.0, abs=1e-10)


def test_fourier_family_cached_and_measured_from_its_parse():
    """The announcement family is built once, and the dense backend contracts
    the kets it holds with no second parse: outcome, probability and
    post-state are bitwise those of measuring the raw kets."""
    assert fourier_family(5) is fourier_family(5) and len(fourier_family(5)) == 5
    state = to_dense(apply_branch_local(ghz_branches(5, 3), 1, phase_vote_matrix(5, 2)))
    for r in range(3):
        want = states.measure_projective(state, fourier_basis_kets(5), np.random.default_rng(r), registers=[r])
        with mock.patch.object(states, "_parse_family", side_effect=AssertionError("parsed again")):
            got = DenseBackend().measure_local_kets(state, r, fourier_family(5), np.random.default_rng(r))
        assert got[0] == want[0] and float(got[2]).hex() == float(want[2]).hex()
        assert got[1].amps.tobytes() == want[1].amps.tobytes()


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
def test_any_family_kind_is_measured_alike(backend):
    """A mask family through measure_targets or measure_local_kets, and a
    target family through measure_diag, are measured by their kind on both
    backends, with the branch backend's outcomes and probabilities."""
    diag = [np.diag(np.eye(3)[i]) for i in range(3)]
    s = backend.from_branches(ghz_branches(3, 2))
    for seed in range(6):
        k, post, p = backend.measure_targets(s, diag, np.random.default_rng(seed), registers=[0])
        want = branch_measure(ghz_branches(3, 2), diag, np.random.default_rng(seed), registers=[0])
        assert k == want[0] < 3 and p == pytest.approx(1 / 3, abs=1e-12)
        assert np.allclose(backend.amplitudes(post), to_dense(want[1]).amps, atol=1e-12)
    s3 = backend.from_branches(ghz_branches(3, 3))
    k, _, p = backend.measure_diag(s3, [0, 1, 2], phase_family(3, 3), np.random.default_rng(0))
    assert k == 0 and p == pytest.approx(1.0, abs=1e-12)
    mask = MeasurementFamily((3,), [np.array([1.0, 1.0, 0.0])], diagonal=True)
    for seed in range(6):
        k, _, p = backend.measure_local_kets(s3, 0, mask, np.random.default_rng(seed))
        want = branch_measure(ghz_branches(3, 3), mask, np.random.default_rng(seed), registers=[0])
        assert (k, p) == pytest.approx(want[::2], abs=1e-12)


def test_announcement_looks_up_each_row_once(monkeypatch):
    """Each announcement of a D=13 dolev ballot takes one label lookup per
    state row, as the tally does."""
    D, rng = 13, np.random.default_rng(2)
    state = ghz_branches(D, D - 1)
    for k in (1, 2, 7):
        state = apply_branch_local(state, k, phase_vote_matrix(D))
    family = fourier_family(D)
    labels = _counting(monkeypatch, "_labels")
    for r in range(D - 1):
        before, rows = len(labels), len(state.branches)
        _, state, _ = branch_measure(state, family, rng, registers=[r])
        assert len(labels) - before == rows


def _pair_loop(state, regs, family):
    """``branches._project`` by the pair loops, the reference: a full-register
    family scores each member by its own join of the state's rows; a subset family
    collapses the state onto each target and pairs the collapse with itself."""
    rest = [r for r in range(state.num_registers) if r not in regs]
    if not rest:
        ket = [(c, tuple(fs[r] for r in regs)) for c, fs in state.branches]
        amps = [_per_member_inner(family.dims, t.branches, ket) for t in family.targets]
        slots = np.argsort(regs)
        return [float(abs(a) ** 2) for a in amps], lambda k, n: [
            ((amps[k] * c) / n, tuple(tf[i] for i in slots)) for c, tf in family.targets[k].branches]
    rdims = tuple(state.dims[r] for r in rest)
    chis = [_per_member_collapse(state, t, regs, rest) for t in family.targets]
    slots = np.argsort(regs + rest)
    return [max(_per_member_inner(rdims, chi, chi).real, 0.0) for chi in chis], lambda k, n: [
        (tc * (c / n), tuple((tf + rf)[i] for i in slots))
        for tc, tf in family.targets[k].branches for c, rf in chis[k]]


def _unit(dims, rows):
    """The rows as a state of norm 1."""
    n = np.sqrt(branches._branch_norm_sq(dims, rows))
    return BranchState._trusted(dims, [(c / n, fs) for c, fs in rows])


def _scoring_case(kind, rng):
    """A (state, measured registers, family) to score."""
    if kind in ("tally", "shift"):  # a full-register all-label family on distinct label rows
        D = int(rng.integers(3, 12))
        family = phase_family(D, int(rng.integers(2, 5)), int(rng.integers(1, 3))) if rng.random() < 0.5 \
            else shift_family(int(rng.integers(3, 41)))
        if kind == "shift":  # a traveling or survey readout
            family = shift_family(int(rng.choice([6, 17, 31])))
        regs = [int(r) for r in rng.permutation(len(family.dims))]
        state = _state("labels", family, regs, rng, max_rows=64)
        return _unit(state.dims, branches._merge_rows(state.branches)), regs, family
    D = int(rng.integers(2, 10))
    if kind == "mitm":  # the decoy's one-hot projection, a ket that tidies into a label
        D = int(rng.integers(2, 41))
        state = branches.attach_register(ghz_branches(D, 2), D, 0)
        state = apply_branch_local(state, 1, np.roll(np.eye(D), int(rng.integers(D)), axis=0))
        state = apply_branch_local(state, 2, np.roll(np.eye(D), int(rng.integers(2)), axis=0))
        return state, [2], MeasurementFamily((D,), [np.eye(D, dtype=complex)[int(rng.integers(2))]])
    kets = {"fourier": fourier_basis_kets(D), "unitary": list(_unitary(rng, D).T),
            "one-hot": list(np.eye(D, dtype=complex)), "sparse": [np.eye(D)[0], np.eye(D)[D - 1] * 1j]}
    family = MeasurementFamily((D,), kets[str(rng.choice(list(kets)))])
    N = int(rng.integers(2, 7))
    state = ghz_branches(D, N)
    for k in range(N):
        state = apply_branch_local(state, k, phase_vote_matrix(D, int(rng.integers(D))))
    if kind == "free":  # a register entangled row by row: per-pair overlaps
        state = branches.attach_register(state, 2, _unitary(rng, 2)[:, 0])
        state = apply_pair_unitary(state, (0, N), _unitary(rng, 2 * D))
    if rng.random() < 0.3:  # vanishing coefficients: their collapses are dropped
        state = _unit(state.dims, [(c * 1e-15 if j % 3 == 1 else c, fs) for j, (c, fs) in enumerate(state.branches)])
    order = [int(r) for r in rng.permutation(N)]
    for r in order[: int(rng.integers(N))]:  # earlier announcements: a shared vector on the rest
        _, state, _ = branch_measure(state, fourier_family(D), rng, registers=[r])
    return state, [order[-1]], family


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), kind=hst.sampled_from(["tally", "shift", "announce", "mitm", "free"]))
def test_array_scoring_equals_the_pair_loop(seed, kind):
    """Full-register tally families and one-register ket families, as the
    branch backend scores them through the family's kept join and the state's
    one rest join: the same probability bytes, post-state coefficient bytes and
    rows, drawn outcome and next draw as the per-member pair loop of
    :func:`_pair_loop`. Cases: shift families at D = 6, 17 and 31, repeated rest
    rows in one bucket (a last announcement), a shared announced vector on the
    rest, a free register entangled row by row, vanishing coefficients, one-hot
    kets."""
    rng = np.random.default_rng(seed)
    state, regs, family = _scoring_case(kind, rng)
    probs, post = branches._project(state, regs, family)
    want_probs, want_post = _pair_loop(state, regs, family)
    assert [float(p).hex() for p in probs] == [float(p).hex() for p in want_probs]
    for k, p in enumerate(probs):
        if p > 1e-12:
            n = np.sqrt(p)
            assert _branch_list_bytes(post(k, n)) == _branch_list_bytes(want_post(k, n))
    if kind == "mitm":
        return
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = branch_measure(state, family, got_rng, registers=regs)
    with mock.patch.object(branches, "_project", _pair_loop):
        want = branch_measure(state, family, want_rng, registers=regs)
    assert got[0] == want[0] and float(got[2]).hex() == float(want[2]).hex()
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert _branch_list_bytes(got[1].branches) == _branch_list_bytes(want[1].branches)
    assert got_rng.random() == want_rng.random()
