"""Checked measurement families: built and checked once, cached per size,
and still rejecting every bad family with the words of a raw list."""

from __future__ import annotations

import numpy as np
import pytest

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
