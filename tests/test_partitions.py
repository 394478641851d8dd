"""Partition enumeration and counting functions against frozen brute-force
values (independently recomputed with an ascending-composition enumerator
before being frozen here) and against their structural invariants."""

from collections import Counter
from functools import cache

import pytest

from sptq import partitions as P
from sptq.identities import ENUM_CAP, verify_all
from sptq.series import _m2_series, _spt_o_minus_series, _spt_o_plus_series, qpoch_inf

# frozen oracle tables, n = 1..30 (ENUM_CAP)
SPT = [1, 3, 5, 10, 14, 26, 35, 57, 80, 119, 161, 238, 315, 440, 589, 801, 1048,
       1407, 1820, 2399, 3087, 3998, 5092, 6545, 8263, 10486, 13165, 16562, 20630,
       25773]
SPT_O_PLUS = [1, 3, 5, 9, 12, 21, 25, 40, 50, 72, 86, 128, 145, 205, 242, 327, 375,
              510, 575, 769, 871, 1133, 1275, 1664, 1850, 2371, 2650, 3360, 3725,
              4709]
SPT_O_MINUS = [1, 2, 5, 6, 12, 16, 25, 30, 50, 58, 86, 102, 145, 170, 242, 270, 375,
               430, 575, 650, 871, 972, 1275, 1426, 1850, 2056, 2650, 2920, 3725,
               4120]
SPT_O = [0, 1, 0, 3, 0, 5, 0, 10, 0, 14, 0, 26, 0, 35, 0, 57, 0, 80, 0, 119, 0, 161,
         0, 238, 0, 315, 0, 440, 0, 589]
N2 = [0, 2, 8, 20, 42, 80, 140, 238, 380, 602, 910, 1372, 1996, 2900, 4102, 5790,
      8002, 11046, 14980, 20282, 27090, 36092, 47546, 62510, 81374, 105700, 136210,
      175084, 223510, 284694]
M2 = [2, 8, 18, 40, 70, 132, 210, 352, 540, 840, 1232, 1848, 2626, 3780, 5280, 7392,
      10098, 13860, 18620, 25080, 33264, 44088, 57730, 75600, 97900, 126672, 162540,
      208208, 264770, 336240]
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


def _reference_partitions(n):
    """The plain recursive walk: every largest next part from min(cap,
    remaining) down to 1, so partitions come lexicographically decreasing."""
    prefix = []

    def rec(remaining, cap):
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part)
            prefix.pop()

    return rec(n, n)


def test_enumeration_matches_the_recursive_walk_in_order():
    for n in range(23):
        assert list(P.enumerate_partitions(n)) == list(_reference_partitions(n))


def test_enumeration_count_matches_series():
    inv = qpoch_inf(1, 1, 30).invert()
    for n in range(31):
        assert sum(1 for _ in P.enumerate_partitions(n)) == inv.coeff(n)


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


def _literal_rank(parts):
    return parts[0] - len(parts)


def _literal_crank(parts):
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    return sum(1 for x in parts if x > ones) - ones


def _literal_odd_condition(parts):
    bound = 2 * parts[-1]
    return all(x % 2 == 0 or x <= bound for x in parts)


def test_statistics_match_their_literal_definitions():
    for n in range(1, 19):
        for pi in P.enumerate_partitions(n):
            assert P.rank(pi) == _literal_rank(pi)
            assert P.crank(pi) == _literal_crank(pi)
            assert P.odd_condition(pi) is _literal_odd_condition(pi)


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
    with pytest.raises(ValueError):
        P.m2(0)


def test_spt_o_plus_examples():
    assert P.spt_o_plus(3) == 5
    assert P.spt_o_plus(5) == 12
    # enumeration over (4),(2,2),(2,1,1),(1,1,1,1) with weights 1,2,2,4;
    # quoted worked value 7 misses (2,1,1), see README
    assert P.spt_o_plus(4) == 9
    with pytest.raises(ValueError):
        P.spt_o_plus(0)


def test_spt_o_minus_examples():
    assert P.spt_o_minus(3) == 5
    assert P.spt_o_minus(5) == 12
    # quoted worked value 18 admits odd parts above twice the smallest;
    # the stated condition gives 16, see README
    assert P.spt_o_minus(6) == 16
    with pytest.raises(ValueError):
        P.spt_o_minus(0)


def test_spt_o_examples():
    assert P.spt_o(4) == 3
    assert P.spt_o(6) == 5
    assert P.spt_o(1) == 0
    with pytest.raises(ValueError):
        P.spt_o(-1)


def test_frozen_tables():
    ns = range(1, ENUM_CAP + 1)
    assert [P.spt(n) for n in ns] == SPT
    assert [P.spt_o_plus(n) for n in ns] == SPT_O_PLUS
    assert [P.spt_o_minus(n) for n in ns] == SPT_O_MINUS
    assert [P.spt_o(n) for n in ns] == SPT_O
    assert [P.n2(n) for n in ns] == N2
    assert [P.m2(n) for n in ns] == M2


def test_statistics_per_size_match_the_listing_sums():
    # the crank moment and the odd-condition counts are counted by DPs, not
    # listed; the literal sums over a listing pin them, past ENUM_CAP so the
    # DPs are not fitted to the sizes the checks use
    for n in range(1, ENUM_CAP + 7):
        smallest = rank_sq = crank_sq = 0
        odd = [0] * (n + 1)
        for pi in P.enumerate_partitions(n):
            count = pi.count(pi[-1])
            smallest += count
            rank_sq += P.rank(pi) ** 2
            crank_sq += P.crank(pi) ** 2
            if P.odd_condition(pi):
                odd[pi[-1]] += count
        assert P._statistics(n)[n] == (smallest, rank_sq, crank_sq, tuple(odd))
        # a value does not depend on the size of the table it is read from
        assert P._tables(ENUM_CAP + 8)[n] == P._statistics(n)[n]


@cache
def _listing_sums(m):
    """Over a listing of the partitions of m: the sum of crank^2 and, by
    smallest part, the smallest-part counts of the odd-condition ones."""
    crank_sq, odd = 0, [0] * (m + 1)
    for pi in P.enumerate_partitions(m):
        crank_sq += P.crank(pi) ** 2
        if P.odd_condition(pi):
            odd[pi[-1]] += pi.count(pi[-1])
    return crank_sq, tuple(odd)


@pytest.mark.parametrize("top", [1, 2, 3, 12, ENUM_CAP + 6])
def test_each_all_size_pass_matches_the_listing_sums(top):
    # each pass alone, not through ``_tables``; tops 1 and 2 reach omega = 1
    # and s = top at once
    cranks, odd = P._crank_moments(top), P._odd_smallest_parts(top)
    assert len(cranks) == len(odd) == top + 1
    for m in range(1, top + 1):
        assert (cranks[m], odd[m]) == _listing_sums(m)


def test_all_size_passes_match_the_product_sides():
    # past any listing: the crank column is M2(n) = 2 n p(n) but at the bare
    # n = 1, the odd counts total spt_o_plus by eq. (2) and their staircase
    # sums give spt_o_minus by eq. (3), product sides built without them
    top = 150
    cranks, odd = P._crank_moments(top), P._odd_smallest_parts(top)
    assert cranks[1] == 1 and cranks[2:] == list(_m2_series(top).coeffs[2:])
    assert [sum(row) for row in odd[1:]] == list(_spt_o_plus_series(top).coeffs[1:])
    minus = [sum(odd[n - s * (s - 1) // 2][s] for s in range(1, n + 1)
                 if s * (s + 1) // 2 <= n) for n in range(1, top + 1)]
    assert minus == list(_spt_o_minus_series(top).coeffs[1:])


def test_removing_ones_reaches_every_smaller_partition_once():
    # the premise of the one walk in ``_tables``: taking r <= t of the t ones
    # off every partition of top lists each partition of each n <= top once
    for top in range(17):
        reached = Counter()
        for pi in P.enumerate_partitions(top):
            t = pi.count(1)
            reached.update(pi[: len(pi) - r] for r in range(t + 1))
        assert reached == Counter(
            pi for n in range(top + 1) for pi in P.enumerate_partitions(n))


def test_no_check_tests_partitions_one_at_a_time(cold_memos, monkeypatch):
    def refuse(parts):
        raise AssertionError("a per-partition statistic was called")

    monkeypatch.setattr(P, "crank", refuse)
    monkeypatch.setattr(P, "odd_condition", refuse)
    assert {r.status for r in verify_all(80)} == {"pass"}


@pytest.mark.parametrize(
    "statistic", [P.spt, P.n2, P.m2, P.spt_o_plus, P.spt_o_minus, P.spt_o],
    ids=["spt", "n2", "m2", "spt_o_plus", "spt_o_minus", "spt_o"])
def test_statistics_past_the_ceiling_raise_before_listing(statistic, cold_memos,
                                                          monkeypatch):
    # spt(150) would list the 4 x 10^10 partitions of 150, for about 18 h:
    # past STATISTICS_CAP each per-n statistic refuses before any listing
    def unreachable(n):
        raise AssertionError(f"listed the partitions of {n}")

    monkeypatch.setattr(P, "enumerate_partitions", unreachable)
    with pytest.raises(ValueError, match="STATISTICS_CAP = 70"):
        statistic(P.STATISTICS_CAP + 1)


def test_enumerated_statistics_walk_each_size_once(cold_memos, monkeypatch):
    walked = Counter()
    enumerate_partitions = P.enumerate_partitions

    def counting(n):
        walked[n] += 1
        return enumerate_partitions(n)

    monkeypatch.setattr(P, "enumerate_partitions", counting)
    for n in range(1, 21):
        for statistic in (P.spt, P.n2, P.m2, P.spt_o_plus, P.spt_o_minus):
            statistic(n)
    assert walked == Counter([ENUM_CAP])  # one walk at ENUM_CAP serves every n


def test_spt_o_minus_past_enum_cap_reads_the_one_table_of_its_n(cold_memos):
    # each row spt_o_minus(n) sums, n - s(s-1)/2 for s = 1, 2, ..., lies in
    # the table of n, so a cold call builds that table and no smaller one
    want = _spt_o_minus_series(40).coeffs
    for n in range(ENUM_CAP + 1, 41):
        P._tables.cache_clear()
        assert P.spt_o_minus(n) == want[n]
        assert P._tables.cache_info().misses == 1


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
    assert P.sequence("spt", 1, 4) == (1, 3, 5, 10)
    assert P.sequence("sigma", 1, 3) == (1, 3, 4)
    assert P.sequence("p", 0, 4) == (1, 1, 2, 3, 5)
    assert P.sequence("t4", 0, 2) == (1, 4, 6)


# p, sigma and t4 evaluate closed forms per n, cheap enough to check further
ORACLE_HI = {"p": 400, "sigma": 400, "t4": 400}


@pytest.mark.parametrize("name", [
    "p", "sigma", "spt", "spt_o_plus", "spt_o_minus", "spt_o", "n2", "m2", "t4"])
def test_series_routed_table_matches_enumeration(name):
    # the table is read off a generating series; the per-n function of the
    # same name enumerates partitions or evaluates a closed form term by term,
    # so the two constructions pin each other
    lo, hi = P.sequence_domain_min(name), ORACLE_HI.get(name, 30)
    oracle = getattr(P, name)
    assert P.sequence(name, lo, hi) == tuple(oracle(n) for n in range(lo, hi + 1))


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
