"""Seeded job lists for the four workloads, and the checks on each job's output.

A job is one ``sptq`` CLI invocation.  The seed picks orders, ranges,
formats and the job order; the program only ever sees the argv.

Sizes come in mirrored pairs ``mid - d, mid + d``, one pair per stratum of
``[0, half]``.  Job cost grows smoothly with size, so a pair costs about
twice the middle whatever ``d`` the seed draws: the job lists differ from
seed to seed while the work in them stays nearly the same.
"""

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from layers import CHECK_IDS

WORKLOADS = ("verify_high", "verify_desk", "compute_cold", "compute_warm")

# verify --all orders: (middle, half-width, pairs)
VERIFY_ORDERS = {
    "verify_high": (420, 60, 1),   # 360..480, the band where series work dominates
    "verify_desk": (50, 30, 4),    # 20..80, around the CLI default of 40
}
# compute ranges: sequence -> (middle of hi, half-width); one mirrored pair each
ENUMERATED = ("spt", "spt_o_plus", "spt_o_minus", "spt_o", "n2", "m2")
COMPUTE_HI = {
    **{name: (32, 2) for name in ENUMERATED},
    "p": (1000, 500),
    "sigma": (3000, 2000),
    "t4": (400, 200),
}
LO_MIN = {"p": 0, "sigma": 0, "t4": 0}
FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class Job:
    command: str            # "verify" or "compute"
    order: int = 0
    sequence: str = ""
    lo: int = 0
    hi: int = 0
    fmt: str = "json"

    @property
    def argv(self):
        if self.command == "verify":
            return ["verify", "--all", "--order", str(self.order)]
        return ["compute", "--sequence", self.sequence, "--lo", str(self.lo),
                "--hi", str(self.hi), "--format", self.fmt]


def mirrored(rng, mid, half, pairs):
    """``pairs`` pairs ``mid - d, mid + d``; pair i draws d from the i-th of
    ``pairs`` equal strata of [0, half]."""
    out = []
    for i in range(pairs):
        d = round(half * (i + rng.random()) / pairs)
        out += [mid - d, mid + d]
    return out


def job_list(workload, seed):
    """The workload's jobs for this seed.  compute_cold and compute_warm
    share one generator, so they replay the same requests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload in VERIFY_ORDERS:
        rng = random.Random(f"{workload}:{seed}")
        jobs = [Job("verify", order=n) for n in mirrored(rng, *VERIFY_ORDERS[workload])]
    else:
        rng = random.Random(f"compute:{seed}")
        jobs = []
        for name, (mid, half) in COMPUTE_HI.items():
            for hi in mirrored(rng, mid, half, 1):
                lo = rng.randint(LO_MIN.get(name, 1), hi // 2)
                jobs.append(Job("compute", sequence=name, lo=lo, hi=hi,
                                fmt=rng.choice(FORMATS)))
    rng.shuffle(jobs)
    return jobs


def covering_jobs(jobs):
    """One request per sequence covering every range asked of it: run once
    untimed, these fill the cache that compute_warm replays against."""
    ranges = {}
    for job in jobs:
        lo, hi = ranges.get(job.sequence, (job.lo, job.hi))
        ranges[job.sequence] = (min(lo, job.lo), max(hi, job.hi))
    return [Job("compute", sequence=name, lo=lo, hi=hi)
            for name, (lo, hi) in ranges.items()]


# ----------------------------------------------------------------------
# reference values: series route and closed forms, never enumeration
# ----------------------------------------------------------------------


def _partition_counts(n):
    """p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, acc = 1, 0
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            acc += term if k % 2 else -term
            k += 1
        p[m] = acc
    return p


def _divisor_sums(n):
    """sigma(0..n), with sigma(0) = 0."""
    s = [0] * (n + 1)
    for d in range(1, n + 1):
        for k in range(d, n + 1, d):
            s[k] += d
    return s


def references(jobs, root):
    """Reference tables, indexed by n, for every sequence the jobs request.

    spt comes from lhs_eq1, spt_o_plus / spt_o_minus from lhs_eq2 / lhs_eq3
    (spt_o is their difference), m2 = 2 n p(n), n2 = m2 - 2 spt and
    t4(n) = sigma(2n + 1).
    """
    need = {}
    for job in jobs:
        if job.command == "compute":
            need[job.sequence] = max(need.get(job.sequence, 0), job.hi)
    if not need:
        return {}
    src = str(Path(root) / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from sptq import identities

    order = max([need.get(name, 0) for name in ENUMERATED] + [1])
    p = _partition_counts(max(order, need.get("p", 0)))
    sigma = _divisor_sums(max(need.get("sigma", 0), 2 * need.get("t4", 0) + 1))
    spt = list(identities.lhs_eq1(order).coeffs)
    plus = list(identities.lhs_eq2(order).coeffs)
    minus = list(identities.lhs_eq3(order).coeffs)
    m2 = [2 * n * p[n] for n in range(order + 1)]
    tables = {
        "p": p,
        "sigma": sigma,
        "t4": [sigma[2 * n + 1] for n in range(need.get("t4", 0) + 1)],
        "spt": spt,
        "spt_o_plus": plus,
        "spt_o_minus": minus,
        "spt_o": [a - b for a, b in zip(plus, minus)],
        "m2": m2,
        "n2": [m - 2 * s for m, s in zip(m2, spt)],
    }
    return {name: tables[name] for name in need}


# ----------------------------------------------------------------------
# output checks: None when the job's output is right, else the reason
# ----------------------------------------------------------------------


def check_verify(stdout, code):
    if code != 0:
        return f"exit code {code}"
    try:
        reports = json.loads(stdout)
        ids = [r["id"] for r in reports]
        failing = [r["id"] for r in reports if r["status"] != "pass"]
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if len(ids) != len(CHECK_IDS) or set(ids) != set(CHECK_IDS):
        return f"expected the {len(CHECK_IDS)} registry checks, got {len(ids)}"
    if failing:
        return f"checks not passing: {', '.join(failing)}"
    return None


def _compute_rows(job, stdout):
    """(n, value) rows of a compute output in the job's format."""
    if job.fmt == "json":
        payload = json.loads(stdout)
        if (payload["name"], payload["lo"], payload["hi"]) != (job.sequence, job.lo, job.hi):
            raise ValueError("header does not match the request")
        return [(job.lo + i, int(v)) for i, v in enumerate(payload["values"])]
    lines = stdout.splitlines()
    if job.fmt == "csv":
        if not lines or lines[0] != "n,value":
            raise ValueError("missing csv header")
        rows = [line.split(",") for line in lines[1:]]
        return [(int(n), int(value)) for n, value in rows]
    rows = []
    for line in lines:
        label, value = line.split(" = ")
        name, n = label[:-1].split("(")
        if name != job.sequence:
            raise ValueError(f"row for {name!r}")
        rows.append((int(n), int(value)))
    return rows


def check_compute(job, stdout, code, refs):
    if code != 0:
        return f"exit code {code}"
    try:
        rows = _compute_rows(job, stdout)
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable table: {exc}"
    if len(rows) != job.hi - job.lo + 1:
        return f"{len(rows)} rows for {job.lo}..{job.hi}"
    table = refs[job.sequence]
    for want_n, (n, value) in zip(range(job.lo, job.hi + 1), rows):
        if n != want_n or value != table[n]:
            return f"row n={n}: {value}, reference {table[want_n]}"
    return None


def check(job, stdout, code, refs):
    if job.command == "verify":
        return check_verify(stdout, code)
    return check_compute(job, stdout, code, refs)
