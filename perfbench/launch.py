"""Run one sptq CLI job with span wrappers installed, for the traced run.

    python3 perfbench/launch.py SPANS_OUT ARGV...

Imports sptq (from PYTHONPATH), wraps the layer boundaries, calls
``sptq.cli.main(ARGV)`` and, on the way out, writes the job's spans,
work counts and memo statistics to SPANS_OUT as JSON, under a job id
taken from the file name.  The exit code is the one ``main`` returned.
"""

import json
import sys
from pathlib import Path

import layers
from spans import Recorder


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import sptq.cli

    rec = Recorder()
    memo = layers.install(rec)
    code = 1
    try:
        code = rec.wrap("cli.main", sptq.cli.main)(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(out_path, "w") as fh:
            json.dump({"job": Path(out_path).stem, "spans": rec.spans,
                       "counts": rec.counts,
                       "memo": layers.memo_stats(memo)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
