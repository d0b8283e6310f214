"""Group structure, representations, and multiplication-protocol tests."""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest

from qvote.groups import (
    FiniteGroup,
    Representation,
    check_protocol_ready,
    cyclic_group,
    direct_product,
    klein4,
    klein_four_group,
    regular_representation,
    run_abelian_distributed,
    run_group_traveling,
    symmetric_group_3,
)
from qvote.matrices import PAULI_Y
from qvote.protocols import ProtocolConfig, run_distributed
from qvote.branches import to_dense
from qvote.backends import get_backend
from qvote.states import states_close


class TestFiniteGroup:
    def test_klein_relations(self):
        g = klein_four_group()
        assert g.mul(1, 2) == 3  # x1 x2 = x3
        assert all(g.mul(j, j) == g.identity for j in range(4))

    def test_cyclic_inverses(self):
        g = cyclic_group(5)
        for a in range(5):
            assert g.mul(a, int(g.inverse[a])) == g.identity

    def test_s3_nonabelian(self):
        g = symmetric_group_3()
        assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse

    def test_nonassociative_rejected(self):
        # latin square that is not a group table
        with pytest.raises(ValueError):
            FiniteGroup(
                [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0],
                ]
            )


class TestRepresentations:
    def test_klein_pauli_rep_is_projective_and_traceless(self):
        group, rep = klein4()
        assert rep.projective and rep.dim == 2
        report = check_protocol_ready(rep)
        assert report.ready
        assert report.max_state_overlap <= 1e-12
        assert abs(np.trace(rep.matrix(1))) == 0  # Tr sigma_x = 0

    def test_regular_rep_z2_hand_expansion(self):
        rep = regular_representation(cyclic_group(2))
        assert np.allclose(rep.matrix(0), np.eye(2))
        assert np.allclose(rep.matrix(1), [[0, 1], [1, 0]])

    def test_regular_rep_identity_element(self):
        rep = regular_representation(symmetric_group_3())
        assert np.allclose(rep.matrix(rep.group.identity), np.eye(6))

    def test_s3_regular_homomorphism_all_pairs(self):
        g = symmetric_group_3()
        rep = regular_representation(g)
        for a in range(6):
            for b in range(6):
                assert (
                    np.max(np.abs(rep.matrix(a) @ rep.matrix(b) - rep.matrix(g.mul(a, b))))
                    <= 1e-12
                )

    def test_regular_rep_always_ready(self):
        for group in (cyclic_group(4), klein_four_group(), symmetric_group_3()):
            assert check_protocol_ready(regular_representation(group)).ready

    def test_trivial_rep_not_ready(self):
        g = cyclic_group(2)
        rep = Representation(g, [np.eye(1), np.eye(1)])
        report = check_protocol_ready(rep)
        assert not report.ready
        assert report.max_offidentity_trace == pytest.approx(1.0)

    def test_projective_law_violation_rejected(self):
        from qvote.matrices import PAULI_X

        g = klein_four_group()
        # x1 x2 = x3 would need sigma_x sigma_y ~ I, but it is ~ sigma_z
        with pytest.raises(ValueError):
            Representation(g, [np.eye(2), PAULI_X, PAULI_Y, np.eye(2)], projective=True)


class TestGroupTraveling:
    def test_klein_example_triples(self):
        group, rep = klein4()
        rng = np.random.default_rng(0)
        assert run_group_traveling(group, rep, [1, 2, 3], rng=rng) == 0  # x1 x2 x3 = e
        assert run_group_traveling(group, rep, [0, 0, 2], rng=rng) == 2

    def test_klein_final_state_proportional_to_pauli_y_image(self):
        group, rep = klein4()
        bk = get_backend("dense")
        state = bk.ghz(2, 2)
        for g in (0, 0, 2):
            state = bk.apply_local(state, 1, rep.matrix(int(group.inverse[g])))
        # choices (e, e, x2): the collector holds (I x sigma_y)|Psi> up to phase
        expected = bk.apply_local(bk.ghz(2, 2), 1, PAULI_Y)
        assert states_close(state.amps, expected.amps, tol=1e-12)

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_klein_exhaustive_triples(self, backend):
        group, rep = klein4()
        rng = np.random.default_rng(3)
        for choices in itertools.product(range(4), repeat=3):
            got = run_group_traveling(group, rep, choices, backend, rng=rng)
            assert got == group.product(choices)

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_s3_exhaustive_triples(self, backend):
        group = symmetric_group_3()
        rep = regular_representation(group)
        rng = np.random.default_rng(4)
        for choices in itertools.product(range(6), repeat=3):
            got = run_group_traveling(group, rep, choices, backend, rng=rng)
            assert got == group.product(choices)

    def test_all_builtin_regular_reps_exhaustive(self):
        # every ready (group, rep) pair of order <= 6: triples reproduce the
        # table product exactly
        from qvote.groups import BUILTIN_GROUPS

        rng = np.random.default_rng(5)
        for name, factory in BUILTIN_GROUPS.items():
            group = factory()
            if group.order > 6:
                continue
            rep = regular_representation(group)
            for choices in itertools.product(range(group.order), repeat=3):
                got = run_group_traveling(group, rep, choices, "branch", rng=rng)
                assert got == group.product(choices), (name, choices)

    def test_traveling_register_stays_mixed(self):
        group, rep = klein4()
        rng = np.random.default_rng(6)
        # record_privacy raises internally if the reduced state ever deviates
        run_group_traveling(group, rep, [1, 3, 2], rng=rng, record_privacy=True)

    def test_not_ready_rep_rejected(self):
        g = cyclic_group(2)
        rep = Representation(g, [np.eye(1), np.eye(1)])
        with pytest.raises(ValueError, match="not protocol-ready"):
            run_group_traveling(g, rep, [0, 1], rng=np.random.default_rng(0))

    def test_readiness_checked_once_per_representation(self):
        group = symmetric_group_3()
        rep = regular_representation(group)
        with mock.patch("qvote.groups.check_protocol_ready", wraps=check_protocol_ready) as check:
            for choices in ([1, 2, 3], [0, 4, 5], [5, 5, 1]):
                assert run_group_traveling(group, rep, choices) == group.product(choices)
            assert check.call_count == 1
        # a representation that is not ready stays rejected on every call
        g = cyclic_group(2)
        bad = Representation(g, [np.eye(1), np.eye(1)])
        for _ in range(2):
            with pytest.raises(ValueError, match="not protocol-ready"):
                run_group_traveling(g, bad, [0, 1], rng=np.random.default_rng(0))


class TestAbelianDistributed:
    def test_all_identity(self):
        rng = np.random.default_rng(0)
        assert run_abelian_distributed([2, 2], [(0, 0), (0, 0)], rng=rng) == (0, 0)

    def test_klein_as_z2xz2_componentwise_xor(self):
        rng = np.random.default_rng(1)
        got = run_abelian_distributed([2, 2], [(1, 0), (0, 1), (1, 1)], rng=rng)
        assert got == (0, 0)

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_z3xz2_exhaustive(self, backend):
        rng = np.random.default_rng(2)
        for choices in itertools.product(itertools.product(range(3), range(2)), repeat=3):
            got = run_abelian_distributed([3, 2], list(choices), backend, rng=rng)
            expect = (sum(c[0] for c in choices) % 3, sum(c[1] for c in choices) % 2)
            assert got == expect

    def test_component_out_of_range(self):
        with pytest.raises(ValueError):
            run_abelian_distributed([2, 2], [(2, 0)], rng=np.random.default_rng(0))

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_voting_special_case_matches_distributed(self, N):
        D = N + 1 if N + 1 > N else N + 1
        D = max(D, N + 1)
        rng = np.random.default_rng(7)
        cfg = ProtocolConfig(D=D, N=N, scheme="distributed", seed=13)
        for votes in itertools.product((0, 1), repeat=N):
            tally = run_distributed(cfg, votes).m
            via_group = run_abelian_distributed([D], [(v,) for v in votes], rng=rng)
            assert via_group == (tally,)


# ---------------------------------------------------------------------------
# The group tables are built with array operations; these Python loops are
# the reference they must reproduce bit for bit.


def _loop_structure(table):
    """The identity and inverses, or the first error message, as found by loops."""
    n = len(table)
    ident = [e for e in range(n) if all(table[e][g] == g and table[g][e] == g for g in range(n))]
    if len(ident) != 1:
        return "Cayley table has no unique identity element"
    identity = ident[0]
    inverse = np.full(n, -1, dtype=int)
    for g in range(n):
        inv = [h for h in range(n) if table[g][h] == identity]
        if len(inv) != 1 or table[inv[0]][g] != identity:
            return f"element {g} has no unique two-sided inverse"
        inverse[g] = inv[0]
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"Cayley table is not associative at ({a}, {b}, {c})"
    return identity, inverse


def _loop_direct_product_table(a, b):
    na, nb = a.order, b.order
    table = np.empty((na * nb, na * nb), dtype=int)
    for i, j, k, l in itertools.product(range(na), range(nb), range(na), range(nb)):
        table[i * nb + j][k * nb + l] = a.mul(i, k) * nb + b.mul(j, l)
    return table


def _loop_regular_matrices(group):
    n = group.order
    mats = []
    for gn in range(n):
        M = np.zeros((n, n), dtype=complex)
        for j, k in itertools.product(range(n), repeat=2):
            if group.mul(int(group.inverse[j]), k) == gn:
                M[j, k] = 1.0
        mats.append(M)
    return mats


def _loop_s3_table():
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    table = np.empty((6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i][j] = index[tuple(p[q[k]] for k in range(3))]
    return table


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_group_tables_match_loop_reference():
    from qvote.groups import BUILTIN_GROUPS

    assert _same_array(symmetric_group_3().table, _loop_s3_table())
    groups = [factory() for factory in BUILTIN_GROUPS.values()]
    pairs = [(symmetric_group_3(), cyclic_group(4)), (cyclic_group(3), klein_four_group())]
    for a, b in pairs + [(cyclic_group(2), cyclic_group(2))]:
        product = direct_product(a, b)
        assert _same_array(product.table, _loop_direct_product_table(a, b))
        groups.append(product)
    for group in groups:
        identity, inverse = _loop_structure(group.table)
        assert type(group.identity) is int and group.identity == identity
        assert _same_array(group.inverse, inverse)
        want = _loop_regular_matrices(group)
        got = regular_representation(group).matrices
        assert all(_same_array(g, w) for g, w in zip(got, want, strict=True))


def test_bad_tables_fail_with_the_loop_reference_message():
    """Tables with no identity, a missing inverse or a non-associative triple
    (the first one in (a, b, c) order) raise the message the loops raised."""
    rng = np.random.default_rng(11)
    tables = [[[1, 1], [1, 1]], [[0, 1], [1, 1]],
              [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]]
    for n in (3, 4, 5, 6):
        for _ in range(10):
            # identity 0; every element its own inverse unless an entry is 0
            table = rng.integers(0 if rng.random() < 0.3 else 1, n, size=(n, n))
            np.fill_diagonal(table, 0)
            table[0], table[:, 0] = np.arange(n), np.arange(n)
            tables.append(table.tolist())
    messages = []
    for table in tables:
        want = _loop_structure(table)
        if isinstance(want, tuple):
            continue
        with pytest.raises(ValueError) as exc:
            FiniteGroup(table)
        assert str(exc.value) == want
        messages.append(want)
    for kind, least in (("identity", 1), ("inverse", 5), ("associative", 10)):
        assert sum(kind in m for m in messages) >= least, kind
