"""Benchmark for the sptq command line, run the way its users run it.

    python3 perfbench/run.py --workload verify_desk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each job is one ``python -m sptq ...`` invocation in a fresh process, in a
closed loop with a single client: a job starts when the previous one has
exited.  A pass runs the workload's whole seeded job list once; passes
repeat while another one fits in ``--seconds`` (there is always at least
one).  Every job's output is checked against a reference built before
timing starts.  Set-up probes run between jobs, and the end-to-end times
are scaled by CPU-speed samples taken while the jobs run (see spawn.py).

With ``--trace 0`` nothing is wrapped and the last stdout line reports the
end-to-end metrics.  With ``--trace 1`` one extra pass runs every job
through ``launch.py``, which records spans at the layer boundaries, and
the last line reports the per-layer metrics together with the traced and
untraced pass times.  The lines before it give every metric by name and
unit, the seed, the job list and the machine.  Exit code 0 means the run
completed (``correct`` says whether every output was right); anything
else means the benchmark could not run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jobs as joblists
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 16
JOB_TIMEOUT_S = 90.0
RUN_LIMIT_S = 165.0  # a workload's jobs time out rather than run past this
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs beyond it
SETUP_CODE = "import time, sptq.cli; print(time.monotonic())"

# End-to-end times are scaled to a CPU on which spawn.py's sample loop takes
# CALIBRATION_REF_S: the samples are taken on the jobs' CPU while they run,
# so that drift of the shared host between runs does not read as a change
# of the program.  Raw times are printed beside the scaled ones.
CALIBRATION_REF_S = 0.001


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it does not import)."""


@dataclass
class Run:
    """One finished child process."""

    start: float
    wall: float
    rss_mb: float
    code: int
    timed_out: bool
    samples: list
    stdout: str


@dataclass
class Pass:
    wall: float
    runs: list
    errors: list
    records: list = field(default_factory=list)  # traced passes only


def child_env():
    """The caller's environment, minus anything that moves sptq's cache or
    stops bytecode caching (users import compiled modules), with the
    checkout's sources first on the import path."""
    drop = ("SPTQ_CACHE_DIR", "XDG_CACHE_HOME", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    """Runs children one at a time, through spawn.py, inside a scratch
    directory it owns."""

    def __init__(self, work):
        self.work = work
        self._serial = 0
        self._spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=work)

    def close(self):
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()

    def _path(self, stem):
        self._serial += 1
        return self.work / f"{stem}-{self._serial}"

    def spawn(self, cmd, timeout=JOB_TIMEOUT_S):
        """Run ``cmd`` to completion; it is killed after ``timeout`` seconds."""
        out_path = self._path("stdout")
        request = {"cmd": cmd, "stdout": str(out_path), "timeout": timeout}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        answer = self._spawner.stdout.readline()
        if not answer:
            raise BenchError("the job spawner exited")
        result = json.loads(answer)
        stdout = out_path.read_text(errors="replace")
        out_path.unlink()
        return Run(stdout=stdout, **result)

    def setup_probe(self):
        """Seconds from starting an interpreter to ``import sptq.cli``
        returning, and the CPU-speed samples taken around it."""
        run = self.spawn([sys.executable, "-c", SETUP_CODE])
        try:
            return float(run.stdout.strip()) - run.start, run.samples
        except ValueError:
            raise BenchError(f"cannot import sptq.cli from {ROOT / 'src'} "
                             f"(exit code {run.code})") from None

    def run_pass(self, jobs, refs, deadline, shared_cache=None, traced=False,
                 between=None):
        """Run every job once; the pass time is the sum of the job times.

        A job still running at ``deadline`` (or after JOB_TIMEOUT_S) is
        killed and fails.  ``between()``, if given, runs before each job,
        off the clock.  Outputs are checked after the last job.  Compute
        jobs get ``--cache-dir``: ``shared_cache`` when given, else a
        directory of their own that does not exist yet.
        """
        runs, span_paths = [], []
        for job in jobs:
            if between:
                between()
            argv = list(job.argv)
            if job.command == "compute":
                argv += ["--cache-dir", str(shared_cache or self._path("cache"))]
            if traced:
                span_paths.append(self._path("spans"))
                cmd = [sys.executable, str(HERE / "launch.py"), str(span_paths[-1]), *argv]
            else:
                cmd = [sys.executable, "-m", "sptq", *argv]
            timeout = min(JOB_TIMEOUT_S, max(deadline - time.monotonic(), 0.1))
            runs.append(self.spawn(cmd, timeout))
        result = Pass(sum(run.wall for run in runs), runs, [])
        for job, run in zip(jobs, runs):
            error = ("timed out" if run.timed_out
                     else joblists.check(job, run.stdout, run.code, refs))
            if error:
                result.errors.append(f"{' '.join(job.argv)}: {error}")
        for job, run, path in zip(jobs, runs, span_paths):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                result.errors.append(f"{' '.join(job.argv)}: no span file")
                continue
            record.update(argv=job.argv, stdout_bytes=len(run.stdout.encode()))
            result.records.append(record)
        return result


def job_tail(walls):
    """(percentile, seconds) of the highest percentile that has TAIL_BEYOND
    jobs beyond it, or None when the sample is too small for one at or
    above the median."""
    n = len(walls)
    k = n - TAIL_BEYOND
    if k < 1 or 2 * k < n:
        return None
    return 100.0 * k / n, sorted(walls)[k - 1]


def run_workload(name, seed, seconds, trace, runner):
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = joblists.job_list(name, seed)
    refs = joblists.references(jobs, ROOT)
    shared, fill = None, None
    if name == "compute_warm":
        shared = runner.work / "warm-cache"
        fill = runner.run_pass(joblists.covering_jobs(jobs), refs, deadline, shared)

    # set-up probes are spread over the run, between jobs, so that their
    # median sees the same machine as the jobs do
    setup, setup_samples = [], []
    t0 = due = time.monotonic()

    def probe(force=False):
        nonlocal due
        if force or time.monotonic() >= due:
            value, samples = runner.setup_probe()
            setup.append(value)
            setup_samples.extend(samples)
            due += seconds / SETUP_PROBES

    passes = [runner.run_pass(jobs, refs, deadline, shared, between=probe)]
    traced = (runner.run_pass(jobs, refs, deadline, shared, traced=True)
              if trace else None)
    while time.monotonic() - t0 + passes[-1].wall <= seconds:
        passes.append(runner.run_pass(jobs, refs, deadline, shared, between=probe))
    while len(setup) < SETUP_PROBES:
        probe(force=True)

    every = passes + [p for p in (fill, traced) if p]
    attempted = sum(len(p.runs) for p in every)
    errors = [e for p in every for e in p.errors]
    walls = [r.wall for p in passes for r in p.runs]
    pass_walls = [p.wall for p in passes]
    # each time is scaled by the CPU-speed samples taken around what it times
    job_samples = [s for p in passes for r in p.runs for s in r.samples]
    job_cpu = statistics.median(job_samples)
    setup_cpu = statistics.median(setup_samples or job_samples)

    def timing(raw, note, cpu=job_cpu):
        return raw * CALIBRATION_REF_S / cpu, "s", f"{note}; {raw:.6g} s raw"

    end_to_end = {
        "setup_s": timing(statistics.median(setup), f"median of {len(setup)} imports",
                          setup_cpu),
        "wall_s": timing(statistics.median(pass_walls), f"median of {len(passes)} passes"),
        "job_p50_s": timing(statistics.median(walls), f"median of {len(walls)} jobs"),
        "peak_rss_mb": (max(r.rss_mb for p in passes for r in p.runs), "MB",
                        f"largest of {len(walls)} jobs"),
    }
    tail = job_tail(walls)
    extra = {
        "job_tail_s": timing(tail[1], f"p{tail[0]:.1f} of {len(walls)} jobs") if tail
        else (None, "s", f"not reported: {len(walls)} jobs are too few"),
        "failed_ratio": (len(errors) / attempted, "ratio", f"{len(errors)} of {attempted} jobs"),
        "calibration_s": (job_cpu, "s",
                          f"median of {len(job_samples)} samples during jobs "
                          f"({setup_cpu:.4g} s over {len(setup_samples)} during "
                          f"set-up probes); times above are scaled by "
                          f"{CALIBRATION_REF_S} / this"),
    }
    per_layer = {}
    if traced:
        per_layer = layers.per_layer(traced.records)
        untraced = statistics.median(pass_walls)
        per_layer["trace.wall_s"] = traced.wall
        per_layer["trace.untraced_wall_s"] = untraced
        per_layer["trace.overhead_ratio"] = traced.wall / untraced
    return {
        "workload": name,
        "seed": seed,
        "jobs": [job.argv for job in jobs],
        "fill_jobs": [job.argv for job in joblists.covering_jobs(jobs)] if fill else [],
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": per_layer,
    }


def print_summary(res, trace):
    print(f"{res['workload']} (seed {res['seed']}): {res['attempted']} jobs, "
          f"{res['failed']} failed, {len(res['jobs'])} per pass")
    for metric, (value, unit, note) in {**res["end_to_end"], **res["extra"]}.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {metric:<14} {shown:>12} {unit:<6} {note}")
    if trace:
        for metric, value in res["per_layer"].items():
            print(f"  {metric:<40} {value:>14.6g} {layers.unit_of(metric)}")
    for error in res["errors"]:
        print(f"  FAILED {error}")


def metrics_of(res, trace):
    if trace:
        return {k: {"value": v, "unit": layers.unit_of(k)}
                for k, v in res["per_layer"].items()}
    return {k: {"value": v, "unit": unit}
            for k, (v, unit, _note) in res["end_to_end"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=joblists.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sptq" / "cli.py").is_file():
        print(f"error: no sptq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = joblists.WORKLOADS if args.workload == "all" else (args.workload,)
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    try:
        runner.setup_probe()  # untimed: compiles the sources' bytecode
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, runner)
            print_summary(res, args.trace)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    provenance = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workloads": results,
    }
    print(json.dumps(provenance, default=str))
    if len(results) == 1:
        metrics = metrics_of(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in metrics_of(r, args.trace).items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
