"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import layers
from spans import Recorder, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "src"))


def sptq(*args, script=("-m", "sptq")):
    return subprocess.run([sys.executable, *script, *args], capture_output=True,
                          text=True, env=ENV, cwd=HERE, timeout=120)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def test_self_times_subtract_children_busy_time():
    spans = [
        # id, parent, name, start, end, busy
        (0, None, "cli.main", 0.0, 10.0, 10.0),
        (1, 0, "identities.check.eq1", 1.0, 5.0, 4.0),
        (2, 1, "series.mul", 2.0, 3.5, 1.5),
        (3, 0, "partitions.spt", 6.0, 9.0, 3.0),
        # a generator: busy only 0.5 s of its 2.5 s interval
        (4, 3, "partitions.enumerate", 6.2, 8.7, 0.5),
        # clock jitter: a child reading longer than its parent
        (5, 6, "series.mul", 9.1, 9.3, 0.2),
        (6, 0, "series.other", 9.1, 9.25, 0.15),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 4.0 - 3.0 - 0.15, 1: 2.5, 2: 1.5,
                                 3: 2.5, 4: 0.5, 5: 0.2, 6: 0.0})


def test_recorder_parents_generator_busy_and_counts():
    rec = Recorder()

    def items(n):
        yield from range(n)

    gen = rec.wrap_generator("gen", items, "gen.items")
    inner = rec.wrap("inner", lambda x: x + 1, work=(lambda x: 10 * x, "inner.ops"))
    outer = rec.wrap("outer", lambda n: sum(inner(x) for x in gen(n)))

    assert outer(4) == 10
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[2], []).append(span)
    (outer_span,) = by_name["outer"]
    (gen_span,) = by_name["gen"]
    assert outer_span[1] is None
    assert gen_span[1] == outer_span[0]
    # inner runs while the generator is suspended: a child of outer, not of gen
    assert [s[1] for s in by_name["inner"]] == [outer_span[0]] * 4
    assert gen_span[5] <= gen_span[4] - gen_span[3]
    assert rec.counts == {"gen.items": 4, "inner.ops": 0 + 10 + 20 + 30}


def test_mul_and_invert_ops_count_schoolbook_multiply_adds():
    from sptq.series import TruncatedSeries as S

    dense = S(range(1, 6))          # order 4, no zero coefficients
    assert layers.mul_ops(dense, dense) == 5 + 4 + 3 + 2 + 1
    sparse = S((1, 0, 3, 0, 0))     # nonzeros at 0 and 2
    assert layers.mul_ops(dense, sparse) == 5 + 3
    assert layers.mul_ops(dense, 7) == 5
    assert layers.invert_ops(sparse) == 3   # a_2 feeds k = 2, 3, 4
    assert layers.invert_ops(dense) == 4 + 3 + 2 + 1


# ----------------------------------------------------------------------
# job lists
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_repeat_for_a_seed_and_change_with_it(workload):
    assert jobs.job_list(workload, 7) == jobs.job_list(workload, 7)
    assert jobs.job_list(workload, 7) != jobs.job_list(workload, 8)


def test_job_lists_stay_in_their_bands():
    for seed in range(40):
        high = [j.order for j in jobs.job_list("verify_high", seed)]
        desk = [j.order for j in jobs.job_list("verify_desk", seed)]
        assert all(360 <= n <= 480 for n in high) and sum(high) == 2 * 420
        assert all(20 <= n <= 80 for n in desk) and sum(desk) == 8 * 50
        cold = jobs.job_list("compute_cold", seed)
        assert cold == jobs.job_list("compute_warm", seed)
        for job in cold:
            mid, half = jobs.COMPUTE_HI[job.sequence]
            assert mid - half <= job.hi <= mid + half
            assert jobs.LO_MIN.get(job.sequence, 1) <= job.lo <= job.hi


def test_covering_jobs_cover_every_request():
    requests = jobs.job_list("compute_warm", 3)
    cover = {j.sequence: j for j in jobs.covering_jobs(requests)}
    assert set(cover) == set(jobs.COMPUTE_HI)
    for job in requests:
        assert cover[job.sequence].lo <= job.lo and job.hi <= cover[job.sequence].hi


# ----------------------------------------------------------------------
# references and output checks
# ----------------------------------------------------------------------


def test_references_agree_with_enumeration():
    from sptq import partitions

    req = [jobs.Job("compute", sequence=name, lo=1, hi=18) for name in jobs.COMPUTE_HI]
    refs = jobs.references(req, ROOT)
    for name, table in refs.items():
        fn = getattr(partitions, name)
        assert table[1:19] == [fn(n) for n in range(1, 19)], name


@pytest.mark.parametrize("fmt", jobs.FORMATS)
def test_compute_check_rejects_short_and_altered_tables(fmt, tmp_path):
    job = jobs.Job("compute", sequence="spt_o", lo=2, hi=14, fmt=fmt)
    refs = jobs.references([job], ROOT)
    out = sptq(*job.argv, "--cache-dir", str(tmp_path))
    assert jobs.check(job, out.stdout, out.returncode, refs) is None

    if fmt == "json":
        payload = json.loads(out.stdout)
        values = payload["values"]
        short = json.dumps(dict(payload, values=values[:3]))
        altered = json.dumps(dict(payload, values=[values[0], str(int(values[1]) + 1),
                                                   *values[2:]]))
    else:
        lines = out.stdout.splitlines()
        short = "\n".join(lines[:-1])
        lines[2] = lines[2][:-1] + str((int(lines[2][-1]) + 1) % 10)
        altered = "\n".join(lines)
    assert "rows" in jobs.check(job, short, 0, refs)
    assert "reference" in jobs.check(job, altered, 0, refs)
    assert jobs.check(job, out.stdout, 1, refs) == "exit code 1"


def test_verify_check_rejects_one_fail_and_missing_reports():
    reports = [{"id": cid, "status": "pass"} for cid in layers.CHECK_IDS]
    job = jobs.Job("verify", order=20)
    assert jobs.check(job, json.dumps(reports), 0, {}) is None
    failing = [dict(r) for r in reports]
    failing[5]["status"] = "fail"
    assert "thm3" in jobs.check(job, json.dumps(failing), 0, {})
    assert jobs.check(job, json.dumps(reports[:-1]), 0, {}) is not None
    assert jobs.check(job, "not json", 0, {}) is not None
    assert jobs.check(job, json.dumps(reports), 1, {}) == "exit code 1"


# ----------------------------------------------------------------------
# the traced launcher and the metric list
# ----------------------------------------------------------------------


def _launch(tmp_path, name, *argv):
    path = tmp_path / f"{name}.json"
    out = sptq(str(path), *argv, script=(str(HERE / "launch.py"),))
    assert out.returncode == 0, out.stderr
    record = json.loads(path.read_text())
    record.update(argv=list(argv), stdout_bytes=len(out.stdout.encode()))
    return record


def test_launcher_records_every_layer(tmp_path):
    record = _launch(tmp_path, "verify", "verify", "--identity", "eq2",
                     "--identity", "eq12_c1", "--order", "16")
    m = layers.per_layer([record])
    for name in ("series.mul.calls", "series.mul.coeff_ops", "series.invert.calls",
                 "series.pochhammer.calls", "identities.check.eq2.s",
                 "identities.builder.eq12_lhs.s", "partitions.enumerated",
                 "partitions.n2.calls", "cli.main.self_s", "cli.output_bytes"):
        assert m[name] > 0, name
    assert m["identities.check.eq1.s"] == 0
    assert m["series.self_s"] <= sum(s[5] for s in record["spans"] if s[2] == "cli.main")


def test_cache_hit_ratio_counts_jobs_that_skip_the_sequence_layer(tmp_path):
    argv = ("compute", "--sequence", "spt", "--lo", "1", "--hi", "9",
            "--cache-dir", str(tmp_path / "cache"))
    cold = _launch(tmp_path, "cold", *argv)
    warm = _launch(tmp_path, "warm", *argv)
    assert layers.per_layer([cold])["cli.cache.hit_ratio"] == 0
    assert layers.per_layer([cold, warm])["cli.cache.hit_ratio"] == 0.5
    assert layers.per_layer([warm])["partitions.enumerated"] == 0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = list(layers.per_layer([])) + [
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_spawner_kills_a_job_at_its_timeout_and_samples_while_it_waits(tmp_path):
    import spawn

    out = tmp_path / "out"
    spawner = spawn.Spawner()
    slow = spawner.run([sys.executable, "-c", "import time; time.sleep(30)"], str(out), 1.2)
    assert slow["timed_out"] and slow["code"] != 0 and slow["wall"] < 10
    assert len(slow["samples"]) >= 1.2 / spawn.SAMPLE_EVERY_S
    assert all(s > 0 for s in slow["samples"])
    fast = spawner.run([sys.executable, "-c", "print('x' * 1000)"], str(out), 30)
    assert not fast["timed_out"] and fast["code"] == 0 and fast["rss_mb"] > 0
    assert out.read_text() == "x" * 1000 + "\n"
