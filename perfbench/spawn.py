"""Job spawner: reads one JSON request per stdin line, runs it, answers with
one JSON line on stdout.

    request: {"cmd": [...], "stdout": "path", "timeout": seconds}
    answer:  {"start": t, "wall": s, "rss_mb": mb, "code": n,
              "timed_out": bool, "samples": [s, ...]}

On Linux a child's max RSS includes the memory of the process that forked
it, so jobs are forked from this small process rather than from the
benchmark, which holds references and spans.  ``start`` is
``time.monotonic()`` just before the fork.

The spawner and every job share one CPU.  Every SAMPLE_EVERY_S, while a
job runs or between jobs, the spawner times a fixed piece of Python work in
CPU seconds: on a shared host the speed of that CPU drifts, and these
samples, taken on the job's CPU while it runs, measure the drift so the
benchmark can scale it out.  A sample takes 1-2 ms, so it adds under 1 %
to a job's time.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time

SAMPLE_EVERY_S = 0.25
SAMPLE_COEFFS = [7 ** k for k in range(90)]


def _partitions(n, cap):
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def sample():
    """CPU seconds a fixed piece of work takes on this CPU now: a truncated
    big-int convolution and a tuple-yielding recursion, the two kinds of
    work sptq jobs spend their time in."""
    t0 = time.process_time()
    a = SAMPLE_COEFFS
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += ai * a[j]
    sum(1 for _ in _partitions(14, 14))
    return time.process_time() - t0


class Spawner:
    def __init__(self):
        self.next_sample = time.monotonic()
        self.samples = []

    def _sample_if_due(self):
        if time.monotonic() >= self.next_sample:
            self.samples.append(sample())
            self.next_sample = time.monotonic() + SAMPLE_EVERY_S

    def run(self, cmd, stdout, timeout):
        self.samples = []
        self._sample_if_due()
        with open(stdout, "wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.DEVNULL)
        timed_out = False
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                while True:
                    left = start + timeout - time.monotonic()
                    wait = min(left, self.next_sample - time.monotonic())
                    if select.select([fd], [], [], max(wait, 0))[0]:
                        break
                    if time.monotonic() >= start + timeout:
                        timed_out = True
                        signal.pidfd_send_signal(fd, signal.SIGKILL)
                        break
                    self._sample_if_due()
                _, status, usage = os.wait4(proc.pid, 0)  # per-child max RSS
            finally:
                os.close(fd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"start": start, "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
                "code": proc.returncode, "timed_out": timed_out,
                "samples": self.samples}


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # jobs inherit it
    spawner = Spawner()
    for line in sys.stdin:
        print(json.dumps(spawner.run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
