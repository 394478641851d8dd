"""Command-line front end: compute sequences, verify identities, print the
worked-example table.

Exit codes: 0 all good, 1 at least one verification failed, 2 usage error
(``verify --order`` or ``compute --hi`` above ``MAX_ORDER``, or ``verify``
given both ``--all`` and ``--identity``, among them) or an output file, or
a stdout closed early by its reader, that cannot be written; a stderr so
closed drops what would go there and changes no exit code.
Big integers are serialized as decimal strings in JSON output.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__, partitions  # identities only where a command needs it

# largest verify --order and compute --hi: every route is polynomial, but grows
# about x4 per doubling (verify --all: 1.9-2.5 s at order 4000, 7.9-10.5 s at
# 10 000, on a shared 2-vCPU machine), so far past this a run takes hours
MAX_ORDER = 10_000


def _print(text: str, stream=None):
    """Print a line to ``stream``, stderr by default; once its reader has
    closed it, point the stream at os.devnull, so that later lines and the
    exit-time flush are dropped quietly, and return the BrokenPipeError."""
    stream = stream or sys.stderr
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def _above_ceiling(flag: str, value: int) -> bool:
    """Report and return True when ``value`` is past MAX_ORDER."""
    if value <= MAX_ORDER:
        return False
    _print(f"error: {flag} {value} is above the ceiling MAX_ORDER = {MAX_ORDER}")
    return True


def _cache_path(cache_dir: Path, name: str) -> Path:
    return cache_dir / f"{name}.json"


def _cache_load(cache_dir: Path, name: str, lo: int, hi: int):
    """Return cached values for lo..hi, or None when the entry is missing,
    unreadable, of another name or version, not exactly what ``_cache_store``
    writes (integer bounds and a list of decimal strings whose count matches
    the range), or does not cover the request."""
    try:
        with open(_cache_path(cache_dir, name)) as fh:
            entry = json.load(fh)
        if entry["name"] != name or entry["version"] != __version__:
            return None
        e_lo, e_hi, values = entry["lo"], entry["hi"], entry["values"]
        if type(e_lo) is not int or type(e_hi) is not int or type(values) is not list:
            return None
        if len(values) != e_hi - e_lo + 1 or not (e_lo <= lo and hi <= e_hi):
            return None
        if not all(type(v) is str and str(int(v)) == v for v in values):
            return None
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
        return None
    return tuple(int(v) for v in values[lo - e_lo : hi - e_lo + 1])


def _cache_store(cache_dir: Path, name: str, lo: int, hi: int, values):
    """Best effort; never fatal.  The table replaces whatever entry was there."""
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": name,
            "lo": lo,
            "hi": hi,
            "values": [str(v) for v in values],
            "version": __version__,
        }
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, _cache_path(cache_dir, name))  # atomic: one writer wins
        except OSError:
            os.unlink(tmp)  # a failed store leaves no temp file behind
    except OSError:
        pass


def _emit(text: str, path, code: int) -> int:
    """Write ``text`` to the file ``path``, or print it when there is none,
    and return ``code``; a file, or a stdout pipe closed early by its
    reader, that cannot be written is exit 2."""
    try:
        if path:
            Path(path).write_text(text + "\n")
        elif broken := _print(text, sys.stdout):
            raise broken  # reported below, as an unwritable file is
    except OSError as exc:
        _print(f"error: cannot write {path or 'stdout'}: {exc.strerror or exc}")
        return 2
    return code


def _cmd_compute(args) -> int:
    if _above_ceiling("--hi", args.hi):
        return 2
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    try:
        partitions.check_range(args.sequence, args.lo, args.hi)  # before the cache
        values = (_cache_load(cache_dir, args.sequence, args.lo, args.hi)
                  if cache_dir else None)
        if values is None:
            values = partitions.sequence(args.sequence, args.lo, args.hi)
            if cache_dir:
                _cache_store(cache_dir, args.sequence, args.lo, args.hi, values)
    except ValueError as exc:
        _print(f"error: {exc}")
        return 2

    if args.format == "json":
        text = json.dumps(
            {
                "name": args.sequence,
                "lo": args.lo,
                "hi": args.hi,
                "values": [str(v) for v in values],
            }
        )
    elif args.format == "csv":
        lines = ["n,value"]
        lines += [f"{n},{v}" for n, v in zip(range(args.lo, args.hi + 1), values)]
        text = "\n".join(lines)
    else:
        lines = [f"{args.sequence}({n}) = {v}"
                 for n, v in zip(range(args.lo, args.hi + 1), values)]
        text = "\n".join(lines)

    return _emit(text, args.out, 0)


def _report_payload(report) -> dict:
    return {
        "id": report.id,
        "order": report.order,
        "status": report.status,
        "mismatches": [
            {"k": m.index, "lhs": str(m.lhs), "rhs": str(m.rhs)}
            for m in report.mismatches
        ],
        "mismatch_total": report.mismatch_total,
        "elapsed_ms": round(report.elapsed * 1000, 3),
    }


def _cmd_verify(args) -> int:
    if args.order < 1:
        _print("error: --order must be >= 1")
        return 2
    if _above_ceiling("--order", args.order):
        return 2
    if args.all and args.identity:
        _print("error: give --all or --identity, not both")
        return 2
    if not (args.all or args.identity):
        _print("error: give --all or at least one --identity")
        return 2
    from . import identities  # after every check that needs no check id
    ids = list(identities.REGISTRY) if args.all else args.identity
    unknown = [i for i in ids if i not in identities.REGISTRY]
    if unknown:
        _print(f"error: unknown identity check(s): {', '.join(unknown)}")
        return 2

    reports = []
    for check_id in dict.fromkeys(ids):  # a repeated id runs and reports once
        report = identities.verify(check_id, args.order)
        reports.append(report)
        _print(f"{report.id}: {report.status} "
               f"(order {report.order}, {report.elapsed:.3f} s)")

    text = json.dumps([_report_payload(r) for r in reports], indent=2)
    passed = all(r.status == "pass" for r in reports)
    return _emit(text, args.report, 0 if passed else 1)


# quantities quoted alongside these identities in the worked examples;
# two of the quoted numbers disagree with exact enumeration (see README)
_EXAMPLE_ROWS = (
    ("spt(2)", partitions.spt, 2, 3),
    ("spt_o_plus(3)", partitions.spt_o_plus, 3, 5),
    ("spt_o_minus(3)", partitions.spt_o_minus, 3, 5),
    ("spt_o_plus(4)", partitions.spt_o_plus, 4, 7),
    ("spt_o_plus(5)", partitions.spt_o_plus, 5, 12),
    ("spt_o_minus(5)", partitions.spt_o_minus, 5, 12),
    ("spt_o_minus(6)", partitions.spt_o_minus, 6, 18),
)


def _cmd_examples(_args) -> int:
    from . import identities
    rows = []
    for label, fn, n, quoted in _EXAMPLE_ROWS:
        computed = fn(n)
        if computed == quoted:
            note = "agrees with the quoted value"
        else:
            note = f"disagrees with the quoted value {quoted} (see README notes)"
        rows.append((label, computed, note))
    width = max(len(r[0]) for r in rows)
    lines = [f"{'quantity'.ljust(width)}  computed  note"]
    lines += [f"{label.ljust(width)}  {str(computed).ljust(8)}  {note}"
              for label, computed, note in rows]
    hits, total = identities.even_parity_report(60)
    lines += ["", f"finite-range observation: spt_o_plus(2n) is even for {hits} of "
              f"the first {total} values of n (no limit claimed)"]
    return _emit("\n".join(lines), None, 0)


def _cmd_list(_args) -> int:
    from . import identities
    lines = ["sequences (compute --sequence <id>):"]
    lines += [f"  {name:<12} defined for n >= {partitions.sequence_domain_min(name)}"
              for name in partitions.sequence_ids()]
    lines += ["", "identity checks (verify --identity <id>):"]
    lines += [f"  {check.id:<14} [{check.kind}] {check.description}"
              for check in identities.REGISTRY.values()]
    return _emit("\n".join(lines), None, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sptq",
        description="Exact smallest-part counting sequences and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="tabulate a named sequence")
    p_compute.add_argument("--sequence", required=True)
    p_compute.add_argument("--lo", type=int, required=True)
    p_compute.add_argument("--hi", type=int, required=True)
    p_compute.add_argument("--format", choices=("json", "csv", "text"),
                           default="json")
    p_compute.add_argument("--out", help="write to a file instead of stdout")
    p_compute.add_argument("--cache-dir",
                           help="read and write the table's cache here "
                                "(default: no cache)")
    p_compute.set_defaults(fn=_cmd_compute)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--identity", action="append",
                          help="check id; repeatable")
    p_verify.add_argument("--order", type=int, default=40,
                          help="truncation order / index bound (default 40)")
    p_verify.add_argument("--report", help="write the JSON report to a file")
    p_verify.set_defaults(fn=_cmd_verify)

    p_examples = sub.add_parser(
        "examples", help="print the worked-example table with agreement flags")
    p_examples.set_defaults(fn=_cmd_examples)

    p_list = sub.add_parser("list", help="list sequence and identity ids")
    p_list.set_defaults(fn=_cmd_list)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
