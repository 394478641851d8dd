"""Partition enumeration and counting functions against frozen brute-force
values (independently recomputed with an ascending-composition enumerator
before being frozen here) and against their structural invariants."""

from collections import Counter

import pytest

from sptq import partitions as P
from sptq.series import qpoch_inf

# frozen oracle tables, n = 1..14
SPT = [1, 3, 5, 10, 14, 26, 35, 57, 80, 119, 161, 238, 315, 440]
SPT_O_PLUS = [1, 3, 5, 9, 12, 21, 25, 40, 50, 72, 86, 128, 145, 205]
SPT_O_MINUS = [1, 2, 5, 6, 12, 16, 25, 30, 50, 58, 86, 102, 145, 170]
SPT_O = [0, 1, 0, 3, 0, 5, 0, 10, 0, 14, 0, 26, 0, 35]
N2 = [0, 2, 8, 20, 42, 80, 140, 238, 380, 602, 910, 1372, 1996, 2900]
M2 = [2, 8, 18, 40, 70, 132, 210, 352, 540, 840, 1232, 1848, 2626, 3780]
T4 = [1, 4, 6, 8, 13, 12, 14, 24, 18, 20, 32]  # n = 0..10


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_enumeration_of_four():
    assert list(P.enumerate_partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumeration_edge_cases():
    assert list(P.enumerate_partitions(0)) == [()]
    assert list(P.enumerate_partitions(1)) == [(1,)]
    with pytest.raises(ValueError):
        list(P.enumerate_partitions(-1))


def test_enumeration_yields_valid_partitions():
    for n in range(16):
        seen = set()
        for pi in P.enumerate_partitions(n):
            assert sum(pi) == n
            assert all(x >= 1 for x in pi)
            assert all(pi[i] >= pi[i + 1] for i in range(len(pi) - 1))
            assert pi not in seen
            seen.add(pi)


def test_enumeration_is_lexicographically_decreasing():
    for n in range(12):
        parts = list(P.enumerate_partitions(n))
        assert parts == sorted(parts, reverse=True)


def test_enumeration_count_matches_series():
    inv = qpoch_inf(1, 1, 30).invert()
    for n in range(31):
        assert sum(1 for _ in P.enumerate_partitions(n)) == inv.coeff(n)


def test_partition_pairs_of_three():
    pairs = list(P.partition_pairs(3))
    assert pairs == [
        P.PartitionPair((2, 1), 1),
        P.PartitionPair((1, 1, 1), 1),
        P.PartitionPair((2,), 2),
    ]


def test_partition_pair_invariants():
    for n in range(1, 13):
        for pair in P.partition_pairs(n):
            s = pair.delta_index
            assert s == pair.pi[-1]
            assert sum(pair.pi) + s * (s - 1) // 2 == n


# ----------------------------------------------------------------------
# p and sigma
# ----------------------------------------------------------------------


def test_p_values():
    assert [P.p(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert P.p(6) == 11
    with pytest.raises(ValueError):
        P.p(-1)


def test_p_matches_enumeration_count():
    for n in range(25):
        assert P.p(n) == sum(1 for _ in P.enumerate_partitions(n))


def test_sigma():
    assert P.sigma(6) == 12
    assert P.sigma(0) == 0
    assert [P.sigma(n) for n in range(1, 11)] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
    with pytest.raises(ValueError):
        P.sigma(-2)


# ----------------------------------------------------------------------
# rank / crank / odd condition
# ----------------------------------------------------------------------


def test_rank():
    assert P.rank((4, 1)) == 2
    assert P.rank((2, 1, 1)) == -1
    for n in (1, 5, 9):
        assert P.rank((n,)) == n - 1
    with pytest.raises(ValueError):
        P.rank(())


def test_crank():
    assert P.crank((2,)) == 2  # no ones: largest part
    assert P.crank((1, 1)) == -2  # omega=2, mu=0
    assert P.crank((2, 1)) == 0  # omega=1, mu=1
    assert P.crank((1,)) == -1  # the adjusted count only enters through m2(1)
    with pytest.raises(ValueError):
        P.crank(())


def test_odd_condition():
    assert P.odd_condition((3, 1)) is False  # 3 > 2*1
    assert P.odd_condition((2, 1, 1)) is True
    assert P.odd_condition((3, 3)) is True  # 3 <= 2*3
    with pytest.raises(ValueError):
        P.odd_condition(())


# ----------------------------------------------------------------------
# counting functions against frozen tables
# ----------------------------------------------------------------------


def test_spt_examples():
    assert P.spt(2) == 3
    assert P.spt(4) == 10
    assert P.spt(1) == 1
    with pytest.raises(ValueError):
        P.spt(0)


def test_n2_examples():
    assert P.n2(2) == 2
    assert P.n2(3) == 8
    with pytest.raises(ValueError):
        P.n2(0)


def test_m2_examples():
    assert P.m2(1) == 2  # convention, not the bare crank of (1)
    assert P.m2(3) == 18
    assert P.m2(3) == 2 * 3 * P.p(3)
    with pytest.raises(ValueError):
        P.m2(-1)


def test_spt_o_plus_examples():
    assert P.spt_o_plus(3) == 5
    assert P.spt_o_plus(5) == 12
    # enumeration over (4),(2,2),(2,1,1),(1,1,1,1) with weights 1,2,2,4;
    # quoted worked value 7 misses (2,1,1), see README
    assert P.spt_o_plus(4) == 9


def test_spt_o_minus_examples():
    assert P.spt_o_minus(3) == 5
    assert P.spt_o_minus(5) == 12
    # quoted worked value 18 admits odd parts above twice the smallest;
    # the stated condition gives 16, see README
    assert P.spt_o_minus(6) == 16


def test_spt_o_examples():
    assert P.spt_o(4) == 3
    assert P.spt_o(6) == 5
    assert P.spt_o(1) == 0


def test_frozen_tables():
    assert [P.spt(n) for n in range(1, 15)] == SPT
    assert [P.spt_o_plus(n) for n in range(1, 15)] == SPT_O_PLUS
    assert [P.spt_o_minus(n) for n in range(1, 15)] == SPT_O_MINUS
    assert [P.spt_o(n) for n in range(1, 15)] == SPT_O
    assert [P.n2(n) for n in range(1, 15)] == N2
    assert [P.m2(n) for n in range(1, 15)] == M2


def test_t4():
    assert P.t4(0) == 1
    assert P.t4(1) == 4
    assert P.t4(2) == 6
    assert [P.t4(n) for n in range(11)] == T4
    with pytest.raises(ValueError):
        P.t4(-1)


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------


def test_rank_multiset_is_symmetric_and_n2_even():
    for n in range(1, 31):
        ranks = Counter(P.rank(pi) for pi in P.enumerate_partitions(n))
        assert ranks == Counter({-r: c for r, c in ranks.items()})
        assert P.n2(n) % 2 == 0


def test_crank_multiset_is_symmetric_and_m2_even():
    for n in range(2, 31):
        cranks = Counter(P.crank(pi) for pi in P.enumerate_partitions(n))
        assert cranks == Counter({-r: c for r, c in cranks.items()})
        assert P.m2(n) % 2 == 0
    assert P.m2(1) % 2 == 0


def test_m2_is_crank_moment_relation():
    for n in range(1, 31):
        assert P.m2(n) == 2 * n * P.p(n)


def test_spt_is_half_moment_difference():
    for n in range(1, 31):
        assert 2 * P.spt(n) == P.m2(n) - P.n2(n)
        assert P.spt(n) == n * P.p(n) - P.n2(n) // 2


def test_spt_o_doubling():
    for n in range(1, 16):
        assert P.spt_o(2 * n) == P.spt(n)


def test_parity_theorems_by_enumeration():
    for n in range(1, 16):
        assert (P.spt_o_plus(2 * n) - P.spt(n)) % 2 == 0
        assert P.spt_o_minus(2 * n) % 2 == 0


def test_odd_index_plus_equals_minus():
    for n in range(0, 15):
        assert P.spt_o_plus(2 * n + 1) == P.spt_o_minus(2 * n + 1)


def test_sigma_doubling():
    for n in range(1, 201):
        expect = 3 * P.sigma(n) - (2 * P.sigma(n // 2) if n % 2 == 0 else 0)
        assert P.sigma(2 * n) == expect


def test_sigma_odd_is_t4():
    for n in range(101):
        assert P.sigma(2 * n + 1) == P.t4(n)


# ----------------------------------------------------------------------
# sequence tables
# ----------------------------------------------------------------------


def test_sequence_tables():
    assert P.sequence("spt", 1, 4).values == (1, 3, 5, 10)
    assert P.sequence("sigma", 1, 3).values == (1, 3, 4)
    assert P.sequence("p", 0, 4).values == (1, 1, 2, 3, 5)
    assert P.sequence("t4", 0, 2).values == (1, 4, 6)


def test_sequence_errors():
    with pytest.raises(ValueError):
        P.sequence("unknown", 1, 2)
    with pytest.raises(ValueError):
        P.sequence("spt", 0, 3)  # spt starts at 1
    with pytest.raises(ValueError):
        P.sequence("p", 5, 2)  # empty range


def test_sequence_registry_is_complete():
    assert set(P.sequence_ids()) == {
        "p", "sigma", "spt", "spt_o_plus", "spt_o_minus", "spt_o", "n2", "m2", "t4",
    }
    assert P.sequence_domain_min("p") == 0
    assert P.sequence_domain_min("spt_o") == 1
    with pytest.raises(ValueError):
        P.sequence_domain_min("bogus")
