"""Acceptance suite: every exit criterion at its stated bound, exact
(tolerance zero), one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter

from sptq import partitions as P
from sptq import identities as I
from sptq.series import TruncatedSeries, monomial, one, qpoch_fin


def _announce(num, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:>2} {label}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label}"


def test_c01_identity_eq2_doubled_at_60(cold_memos):
    t0 = time.perf_counter()
    report = I.verify("eq2", 60)
    elapsed = time.perf_counter() - t0
    ok = report.status == "pass" and report.order == 60 and elapsed < 60
    _announce(1, "doubled spt_o_plus identity at order 60", ok,
              f"{elapsed:.2f} s incl. rank-moment enumeration")


def test_c02_identity_eq3_doubled_at_60():
    t0 = time.perf_counter()
    report = I.verify("eq3", 60)
    elapsed = time.perf_counter() - t0
    ok = report.status == "pass" and report.order == 60 and elapsed < 60
    _announce(2, "doubled spt_o_minus identity at order 60", ok,
              f"{elapsed:.2f} s")


def test_c03_identity_eq1_doubled_at_120_with_subcheck():
    # verify("eq1", N) also asserts the theta-correction term carries
    # exactly -N2(n)/2 at q^n for n <= 30 (doubled form)
    report = I.verify("eq1", 120)
    ok = report.status == "pass" and report.order == 120
    _announce(3, "doubled spt identity at order 120 + moment sub-check", ok)


def test_c04_spt_o_doubling_enumeration_and_series():
    enum_ok = all(P.spt_o(2 * n) == P.spt(n) for n in range(1, 16))
    report = I.verify("thm2", 120)
    ok = enum_ok and report.status == "pass"
    _announce(4, "spt_o(2n) = spt(n): enumeration n<=15, series order 120", ok)


def test_c05_parity_of_spt_o_plus_and_convolution_formula():
    report_parity = I.verify("thm3", 60)  # series route, n <= 30
    report_conv = I.verify("eq14", 15)
    worked = 2 * P.spt_o_plus(4) == 2 * (
        P.p(0) * P.sigma(4) + P.p(1) * P.sigma(2)
    ) - P.n2(2)
    ok = (
        report_parity.status == "pass"
        and report_conv.status == "pass"
        and P.spt_o_plus(4) == 9
        and worked
    )
    _announce(5, "spt_o_plus(2n) == spt(n) mod 2 (n<=30) and the sigma "
                 "convolution for n<=15 incl. the value 9", ok)


def test_c06_parity_of_spt_o_minus():
    report = I.verify("thm4", 60)  # series n <= 30, enumeration n <= 15
    ok = report.status == "pass"
    _announce(6, "spt_o_minus(2n) even: series n<=30 and enumeration n<=15", ok)


def test_c07_odd_coefficients_agree_and_match_product():
    r5 = I.verify("thm5", 120)  # odd exponents 1..119
    r23 = I.verify("eq23", 120)
    s2, s3, prod = I.lhs_eq2(120), I.lhs_eq3(120), I.rhs_eq23(120)
    values_ok = (
        s2.coeff(3) == s3.coeff(3) == prod.coeff(3) == 5
        and s2.coeff(5) == s3.coeff(5) == prod.coeff(5) == 12
        and all(s2.coeff(k) == prod.coeff(k) for k in range(1, 120, 2))
    )
    ok = r5.status == "pass" and r23.status == "pass" and values_ok
    _announce(7, "odd coefficients <=119 agree across both sums and the "
                 "product form (5 at q^3, 12 at q^5)", ok)


def test_c08_congruences_to_240(cold_memos):
    t0 = time.perf_counter()
    reports = [I.verify(c, 240) for c in ("cong5", "cong7", "cong13")]
    elapsed = time.perf_counter() - t0
    # every progression member with argument <= 240 is covered
    s = I.lhs_gf_note(240)
    spot = (
        s.coeff(238) % 5 == 0  # k = 23 for the mod-5 progression
        and s.coeff(234) % 7 == 0  # k = 16 for mod 7
        and s.coeff(220) % 13 == 0  # k = 8 for mod 13
    )
    ok = all(r.status == "pass" for r in reports) and spot and elapsed < 120
    _announce(8, "mod 5/7/13 congruences for all arguments <= 240", ok,
              f"{elapsed:.2f} s")


def test_c09_bailey_machinery():
    relation = [
        I.check_bailey_relation(I.bailey_pair(lbl), 8, 40) == []
        for lbl in ("C1", "C5")
    ]
    lemma = [I.verify(c, 40).status == "pass" for c in ("eq12_c1", "eq12_c5")]
    termwise = I.verify("termwise_eq2", 40).status == "pass"
    ok = all(relation) and all(lemma) and termwise
    _announce(9, "Bailey relation n<=8, differentiated lemma, and the "
                 "termwise bridge (n<=12) at order 40", ok)


def test_c10_series_vs_enumeration_to_30():
    s2 = I.lhs_eq2(30)
    s3 = I.lhs_eq3(30)
    agree = all(
        s2.coeff(n) == P.spt_o_plus(n) and s3.coeff(n) == P.spt_o_minus(n)
        for n in range(1, 31)
    )
    flagged = s2.coeff(4) == 9 and s3.coeff(6) == 16
    ok = agree and flagged
    _announce(10, "series match enumeration oracles for n<=30 incl. the "
                  "values 9 and 16", ok)


def test_c11_auxiliary_identities():
    rs = [
        I.verify("m2_is_2np", 30),
        I.verify("spt_half_diff", 30),
        I.verify("legendre_t4", 100),
        I.verify("sigma_doubling", 200),
    ]
    ok = all(r.status == "pass" for r in rs)
    _announce(11, "M2=2np (30), 2spt=M2-N2 (30), sigma(2n+1)=t4(n) (100), "
                  "sigma doubling (200)", ok)


def test_c12_property_suites():
    rng = random.Random(20260809)

    def rand_series():
        return TruncatedSeries(
            tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 9)))
        )

    cases = 0
    for _ in range(400):
        a, b, c = rand_series(), rand_series(), rand_series()
        n = min(a.order, b.order, c.order)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert (a * (b + c)).truncate(n) == (a * b + a * c).truncate(n)
        assert a * one(a.order) == a
        cases += 6

    for _ in range(100):
        u = TruncatedSeries(
            (rng.choice((1, -1)),)
            + tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 8)))
        )
        assert u * u.invert() == monomial(0, 1, u.order)
        cases += 1

    # pentagonal pattern of the stepped product (q;q)_60 to order 60
    got = qpoch_fin(1, 1, 60, 60)
    expect = [0] * 61
    expect[0] = 1
    j = 1
    while j * (3 * j - 1) // 2 <= 60:
        sign = -1 if j % 2 else 1
        expect[j * (3 * j - 1) // 2] = sign
        if j * (3 * j + 1) // 2 <= 60:
            expect[j * (3 * j + 1) // 2] = sign
        j += 1
    pentagonal_ok = list(got.coeffs) == expect

    # negation symmetry of the rank and crank multisets => even moments,
    # which is what justifies checking the half-identities doubled
    symmetric = True
    for n in range(1, 31):
        ranks = Counter(P.rank(pi) for pi in P.enumerate_partitions(n))
        symmetric &= ranks == Counter({-r: c for r, c in ranks.items()})
        symmetric &= P.n2(n) % 2 == 0
        if n >= 2:
            cranks = Counter(P.crank(pi) for pi in P.enumerate_partitions(n))
            symmetric &= cranks == Counter({-r: c for r, c in cranks.items()})
        symmetric &= P.m2(n) % 2 == 0

    ok = cases >= 1000 and pentagonal_ok and symmetric
    _announce(12, "ring axioms (>=1000 random cases), invert round-trip, "
                  "pentagonal pattern to 60, rank/crank symmetry n<=30", ok,
              f"{cases} randomized cases")


def test_c13_cli_contract():
    r = subprocess.run(
        [sys.executable, "-m", "sptq", "verify", "--all", "--order", "40"],
        capture_output=True,
        text=True,
    )
    reports = json.loads(r.stdout) if r.returncode == 0 else []
    verify_ok = r.returncode == 0 and len(reports) == 23

    ex = subprocess.run(
        [sys.executable, "-m", "sptq", "examples"],
        capture_output=True,
        text=True,
    )
    flagged = [line for line in ex.stdout.splitlines() if "disagrees" in line]
    examples_ok = (
        ex.returncode == 0
        and len(flagged) == 2
        and any("spt_o_plus(4)" in line for line in flagged)
        and any("spt_o_minus(6)" in line for line in flagged)
    )
    ok = verify_ok and examples_ok
    _announce(13, "CLI: verify --all --order 40 exits 0; examples flags "
                  "exactly the two discrepant values", ok)
