"""Checked measurement families: built and checked once, cached per size,
and still rejecting every bad family with the words of a raw list."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qvote import anticheat, branches, groups, protocols
from qvote.backends import BranchBackend, DenseBackend
from qvote.branches import (
    BranchState,
    MeasurementFamily,
    phase_family,
    phase_ghz,
    shift_family,
)

BACKENDS = [DenseBackend(), BranchBackend()]
IDS = ["dense", "branch"]


def _count_gram_checks(monkeypatch) -> list[int]:
    calls = [0]
    check = branches._check_orthonormal

    def counted(*args):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(branches, "_check_orthonormal", counted)
    return calls


@pytest.mark.parametrize("backend", ["dense", "branch"])
def test_second_round_runs_no_gram_check(monkeypatch, backend):
    """A tally, an anti-cheat round and a group product at sizes already run
    measure cached families: the second pass checks no family again."""
    group = groups.symmetric_group_3()
    rep = groups.regular_representation(group)
    secrets = anticheat.AuthoritySecrets(2, 1, 0.2)

    def rounds():
        cfg = protocols.ProtocolConfig(D=5, N=3, scheme="distributed")
        assert protocols.run_distributed(cfg, [1, 0, 1], backend, rng=np.random.default_rng(1)).m == 2
        res, _ = anticheat.run_round(7, 3, secrets, [1, 1, 0], np.random.default_rng(2), backend)
        assert res.q == 2 and not res.cheat_detected
        assert groups.run_group_traveling(group, rep, [1, 4], backend, np.random.default_rng(3)) == \
            group.product([1, 4])

    calls = _count_gram_checks(monkeypatch)
    rounds()
    first = calls[0]
    assert first >= 1  # the fresh representation's candidates are checked once
    rounds()
    assert calls[0] == first


def test_families_cached_and_read_only():
    fam = phase_family(6, 3)
    assert phase_family(6, 3) is fam
    assert shift_family(6) is shift_family(6)
    assert anticheat.vote_measurement_masks(6) is anticheat.vote_measurement_masks(6)
    assert [fam[q] for q in range(len(fam))] == [phase_ghz(6, 3, 2 * np.pi * q / 6) for q in range(6)]
    assert fam.rank == 6 and fam.masks == ()
    masks = anticheat.vote_measurement_masks(6)
    assert masks.rank == 36 and masks.targets == () and len(masks) == 6
    for m in masks:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    for name in ("dims", "masks", "targets", "rank"):
        with pytest.raises(AttributeError):
            setattr(fam, name, None)
    with pytest.raises(TypeError):
        fam.targets[0] = None


def test_vote_masks_keep_their_pairs():
    D = 5
    for r, m in enumerate(anticheat.vote_measurement_masks(D)):
        expect = np.zeros((D, D))
        for b in range(D):
            expect[b, (b - r) % D] = 1.0
        assert np.array_equal(m, expect)


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
def test_family_dims_must_match_registers(backend):
    s = backend.ghz(3, 3)
    with pytest.raises(ValueError, match="do not match the measured registers"):
        backend.measure_targets(s, phase_family(3, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="do not match the measured registers"):
        backend.measure_targets(s, shift_family(4), np.random.default_rng(0), registers=[0, 1])
    s = backend.attach(backend.ghz(3, 2), 3, 0)
    k, _, p = backend.measure_targets(s, shift_family(3), np.random.default_rng(0), registers=[0, 1])
    assert k == 0 and p == pytest.approx(1.0, abs=1e-12)


def test_branch_mask_family_dims_must_match_registers():
    s = branches.attach_register(branches.ghz_branches(3, 2), 4, 0)
    with pytest.raises(ValueError, match="do not match the measured registers"):
        BranchBackend().measure_diag(s, [0, 1], anticheat.vote_measurement_masks(4),
                                     np.random.default_rng(0))


def _bad_lists():
    """The bad families of the backends' shared check, as (dims, projectors,
    diagonal, message fragment)."""
    plus = np.ones(3) / np.sqrt(3)
    agree = np.eye(3)
    half = np.ones((3, 3)) - agree
    half[0, 1] = 0.5
    e0, e1 = np.eye(3)[:2]
    return {
        "non-diagonal matrix": ((3,), [np.outer(plus, plus)], False,
                                "must be diagonal in the computational basis"),
        "matrix and ket": ((3,), [np.diag(e0), e1], False, "do not mix diagonal and rank-1 projectors"),
        "overlap": ((3, 3), [agree, agree], True, "diagonal projectors overlap"),
        "half entry": ((3, 3), [agree, half], True, "entries must be 0 or 1"),
        "mask size": ((3, 3), [np.ones(3)], True, "mask size 3 does not match subspace 9"),
        "mask shape": ((3, 2), [np.array([[0, 0, 1], [1, 0, 0]])], True,
                       "does not match the registers' shape"),
        "non-orthogonal kets": ((3,), [e0, (e0 + e1) / np.sqrt(2)], False, "not mutually orthogonal"),
        "empty": ((3, 3), [], True, "must not be empty"),
    }


@pytest.mark.parametrize("case", sorted(_bad_lists()))
def test_building_a_bad_family_raises_the_measurement_words(case):
    """Both backends build their families with this one constructor, so a bad
    list fails here with the words test_branches.py checks on each backend."""
    dims, projectors, diagonal, fragment = _bad_lists()[case]
    with pytest.raises(ValueError, match=fragment):
        MeasurementFamily(dims, projectors, diagonal=diagonal)


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
def test_unnormalized_target_rejected_after_cached_families(backend):
    """A target of norm 0.5 is refused when its family is built, on both
    backends, even after the cached family on the same dims has been measured."""
    s = backend.ghz(3, 2)
    backend.measure_targets(s, shift_family(3), np.random.default_rng(0))
    half = BranchState((3, 3), [(0.5, (0, 0))], renormalize=False)
    with pytest.raises(ValueError, match="must be normalized"):
        MeasurementFamily((3, 3), [half])
    with pytest.raises(ValueError, match="must be normalized"):
        backend.measure_targets(s, [half], np.random.default_rng(0))
    with pytest.raises(ValueError, match="not mutually orthogonal"):
        backend.measure_targets(s, list(shift_family(3)) + [shift_family(3)[0]], np.random.default_rng(0))


def _hand_tidied_candidates(rep):
    """The candidate states with one-hot columns turned into labels by hand."""
    c = 1.0 / np.sqrt(rep.dim)
    out = []
    for M in rep.matrices:
        rows = []
        for j in range(rep.dim):
            nz = np.flatnonzero(np.abs(M[:, j]) > 1e-12)
            assert nz.size == 1
            rows.append((c * M[nz[0], j], (j, int(nz[0]))))
        out.append(BranchState((rep.dim, rep.dim), rows, renormalize=False))
    return out


@pytest.mark.parametrize("make", [groups.klein4, lambda: (None, groups.regular_representation(
    groups.symmetric_group_3()))], ids=["klein4", "s3-regular"])
def test_group_candidates_built_once_as_labels(make):
    _, rep = make()
    fam = rep.candidate_family
    assert rep.candidate_family is fam and len(fam) == len(rep.matrices)
    for got, want in zip(fam.targets, _hand_tidied_candidates(rep)):
        assert [fs for _, fs in got.branches] == [fs for _, fs in want.branches]
        assert np.array([c for c, _ in got.branches]).tobytes() == \
            np.array([c for c, _ in want.branches]).tobytes()


def _per_member_mask(state, regs, mask):
    """The reference: one member's mask projected branch by branch, as one
    pass per member did before the router."""
    out = []
    for coeff, factors in state.branches:
        sub = mask
        free = []
        for r in regs:
            f = factors[r]
            if type(f) is int:
                sub = np.take(sub, f, axis=len(free))
            else:
                free.append(r)
        if not free:
            w = complex(sub)
            if abs(w) > branches._ZERO_TOL:
                out.append((coeff * w, factors))
        elif len(free) == 1:
            r = free[0]
            on = np.flatnonzero(sub)
            if on.size == 1:
                a = factors[r].amps[on[0]]
                if abs(a) > branches._ZERO_TOL:
                    new = list(factors)
                    new[r] = int(on[0])
                    out.append((complex(coeff) * complex(a), tuple(new)))
                continue
            amps = factors[r].amps * np.asarray(sub, dtype=complex).reshape(-1)
            if np.linalg.norm(amps) <= branches._ZERO_TOL:
                continue
            new = list(factors)
            new[r] = branches.VecFactor(amps)
            out.append(branches._tidy_row(coeff, tuple(new), [r]))
        elif len(free) == 2:
            p, q = free
            block = np.multiply.outer(factors[p].amps, factors[q].amps) * sub
            out.extend(branches._schmidt_split(coeff, factors, (p, q), block))
        else:
            raise branches.BranchError("more than two vector slots")
    return out


def _pair_loop_norm_sq(dims, branch_list):
    return max(0.0, branches._inners(dims, [branch_list], branch_list)[0].real)


def _random_branches(rng, dims, vector_share):
    """1 to 9 branches (so a norm's pair count falls on both sides of the
    join threshold) of labels and vectors with zero entries, some rows repeated."""
    pool = []
    for _ in range(int(rng.integers(1, 6))):
        row = []
        for d in dims:
            if rng.random() < vector_share:
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                v[rng.random(d) < 0.3] = 0.0
                if not v.any():
                    v[int(rng.integers(d))] = 1.0
                row.append(branches.VecFactor(v / np.linalg.norm(v)))
            else:
                row.append(int(rng.integers(d)))
        pool.append(tuple(row))
    rows = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 10)))]
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return BranchState(dims, list(zip(coeffs, rows)), renormalize=False)


def _branch_bytes(branch_list):
    return ([np.array(c).tobytes() for c, _ in branch_list],
            [branches._row_key(fs, range(len(fs))) for _, fs in branch_list])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), n_regs=hst.integers(1, 4), n_measured=hst.integers(1, 3),
       members=hst.integers(1, 5), vector_share=hst.sampled_from([0.0, 0.2, 0.5]))
def test_one_routing_pass_matches_the_per_member_masks(seed, n_regs, n_measured, members,
                                                        vector_share):
    """Every member's branches from the router and their Born weights equal,
    to the bit, the per-member mask passes and the pair-loop norm."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 6, max(n_regs, n_measured)))
    state = _random_branches(rng, dims, vector_share)
    regs = [int(r) for r in rng.permutation(len(dims))[:n_measured]]
    sdims = tuple(dims[r] for r in regs)
    owner = rng.integers(-1, members, sdims)  # -1: the remainder
    masks = [(owner == k).astype(float) for k in range(members)]
    family = MeasurementFamily(sdims, masks, diagonal=True)
    assert np.array_equal(family.owner, owner)
    try:
        want = [_per_member_mask(state, regs, m) for m in masks]
    except branches.BranchError:
        with pytest.raises(branches.BranchError, match="more than two non-basis"):
            branches._route(state, regs, family)
        return
    got, _ = branches._route(state, regs, family)
    assert [_branch_bytes(g) for g in got] == [_branch_bytes(w) for w in want]
    probs, _ = branches._project(state, regs, family)
    assert [float(p).hex() for p in probs] == \
        [float(_pair_loop_norm_sq(dims, w)).hex() for w in want]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), n_regs=hst.integers(1, 4))
def test_label_norm_equals_the_pair_loop(seed, n_regs):
    """On label rows, repeated or not, the squared norm is the pair loop's to the bit."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 4, n_regs))
    state = _random_branches(rng, dims, 0.0)
    scaled = [(c * 10.0 ** rng.integers(-8, 3), fs) for c, fs in state.branches]
    for branch_list in (list(state.branches), scaled):
        assert float(branches._branch_norm_sq(dims, branch_list)).hex() == \
            float(_pair_loop_norm_sq(dims, branch_list)).hex()
