"""Command-line front end: compute sequences, verify identities, print the
worked-example table.

``main`` reads the command line through one table of the four commands and
their flags, ``_COMMANDS``, as argparse read it (see ``_parse``); no command
imports argparse, gettext or locale.

Exit codes: 0 all good, 1 at least one verification failed, 2 usage error
(a refused command line, ``verify --order`` or ``compute --hi`` above
``partitions.MAX_ORDER``, or ``verify`` given both ``--all`` and
``--identity``, among them) or an output file, or a stdout closed early by
its reader, that cannot be written; a stderr so closed drops what would go
there and changes no exit code.  Big integers are serialized as decimal
strings in JSON output.
"""

import json
import os
import re
import sys
import tempfile
from types import SimpleNamespace

from . import __version__, partitions  # identities only where a command needs it


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
    """Report and return True when ``value`` is past partitions.MAX_ORDER."""
    if value <= partitions.MAX_ORDER:
        return False
    _print(f"error: {flag} {value} is above the ceiling "
           f"MAX_ORDER = {partitions.MAX_ORDER}")
    return True


def _cache_path(cache_dir: str, name: str) -> str:
    return os.path.join(cache_dir, f"{name}.json")


def _cache_load(cache_dir: str, name: str, lo: int, hi: int):
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


def _cache_store(cache_dir: str, name: str, lo: int, hi: int, values):
    """Best effort; never fatal.  The table replaces whatever entry was there."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
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
            with open(path, "w") as fh:
                fh.write(text + "\n")
        elif broken := _print(text, sys.stdout):
            raise broken  # reported below, as an unwritable file is
    except OSError as exc:
        _print(f"error: cannot write {path or 'stdout'}: {exc.strerror or exc}")
        return 2
    return code


def _cmd_compute(args) -> int:
    if _above_ceiling("--hi", args.hi):
        return 2
    cache_dir = args.cache_dir
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
            {"part": m.part, "k": m.index, "lhs": str(m.lhs), "rhs": str(m.rhs)}
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
    evens = partitions.sequence("spt_o_plus", 2, 60)[::2]  # spt_o_plus(2n), n = 1..30
    hits = sum(1 for v in evens if v % 2 == 0)
    lines += ["", f"finite-range observation: spt_o_plus(2n) is even for {hits} of "
              f"the first {len(evens)} values of n (no limit claimed)"]
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


# each command: its function, its help and its flags; each flag: the kind of its
# value (int, str, a tuple of choices, list: a repeatable str, bool: a switch),
# its default, whether it is required, and its help
_COMMANDS = {
    "compute": (_cmd_compute, "tabulate a named sequence", {
        "--sequence": (str, None, True, "sequence id, as `sptq list` shows them"),
        "--lo": (int, None, True, "first n"),
        "--hi": (int, None, True, f"last n, at most MAX_ORDER = {partitions.MAX_ORDER}"),
        "--format": (("json", "csv", "text"), "json", False, "output format"),
        "--out": (str, None, False, "write to a file instead of stdout"),
        "--cache-dir": (str, None, False, "read and write the table's cache here, if given"),
    }),
    "verify": (_cmd_verify, "run identity checks", {
        "--all": (bool, False, False, "run every registered check"),
        "--identity": (list, None, False, "check id; repeatable"),
        "--order": (int, 40, False, "truncation order / index bound"),
        "--report": (str, None, False, "write the JSON report to a file"),
    }),
    "examples": (_cmd_examples, "print the worked-example table with agreement flags", {}),
    "list": (_cmd_list, "list sequence and identity ids", {}),
}
_HELP = ("-h", "--help")  # the top level's one flag, and every command's


class _Refused(Exception):
    """A refused command line: its command (None: the top level), the message."""


def _help(command):
    """The help lines of ``command`` (None: the top level), usage line first."""
    if command is None:
        about = "Exact smallest-part counting sequences and identity checks."
        rows = [(name, text) for name, (_, text, _) in _COMMANDS.items()]
        usage = ["[-h]", "{" + ",".join(_COMMANDS) + "}", "..."]
    else:
        (_, about, flags), usage, rows = _COMMANDS[command], [command, "[-h]"], []
        for flag, (kind, default, required, text) in flags.items():
            left = (flag if kind is bool else f"{flag} {{{','.join(kind)}}}" if type(kind) is tuple
                    else f"{flag} {flag[2:].upper()}")
            usage.append(left if required else f"[{left}]")
            rows.append((left, text + (" (required)" if required else
                                       f" (default: {default})" if default else "")))
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows)
    return [" ".join(["usage: sptq", *usage]), "", about, "",
            *(f"  {left.ljust(width)}  {text}" for left, text in rows)]


def _classify(token, command, flags):
    """How argparse read ``token``: None for a value, else the flag it names in
    full or by a unique prefix (None: no flag) and the value after its ``=``."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[1] == "-":
        name, eq, value = token.partition("=")
        value = value if eq else None
    else:  # -h; its repeats -hh... ask for help too, and what follows them is a value
        name, value = token[:2], token[2:].lstrip("h") or None
    matches = [flag for flag in (*_HELP, *flags) if flag.startswith(name)]
    if len(matches) > 1 and name not in matches:
        raise _Refused(command, f"ambiguous option: {name} could match {', '.join(matches)}")
    if matches:
        return min(matches, key=len), value  # a full name is its shortest match
    return None if " " in token or re.match(r"-\d+$|-\d*\.\d+$", token) else (None, None)


def _parse(argv, command=None):
    """Read ``argv`` through _COMMANDS as argparse read it: the top level's
    flags up to the command's name, then the command's.  Each level classifies
    its tokens before it reads a value, and leaves over those from a ``--`` on.
    Return the command and its values by flag, None for them when help was
    asked for; raise _Refused for every command line that argparse refused."""
    flags, values, extras, i = _COMMANDS[command][2] if command else {}, {}, [], 0
    end = argv.index("--") if command and "--" in argv else len(argv)
    kinds = [_classify(t, command, flags) for t in argv[:end]] + [(None, None)] * (len(argv) - end)
    while i < len(argv):
        token, kind, i = argv[i], kinds[i], i + 1
        if kind is None and command is None:  # the command's name: it reads the rest
            if token not in _COMMANDS:
                raise _Refused(None, f"argument command: invalid choice: {token!r}")
            parsed = _parse(argv[i:], token)
            if extras and parsed[1] is not None:
                raise _Refused(None, f"unrecognized arguments: {' '.join(extras)}")
            return parsed
        if kind is None or kind[0] is None:
            extras.append(token)
        elif kind[0] in _HELP or flags[kind[0]][0] is bool:
            if kind[1] is not None:
                raise _Refused(command, f"argument {kind[0]}: ignored explicit argument {kind[1]!r}")
            if kind[0] in _HELP:
                return command, None
            values[kind[0]] = True
        else:
            (flag, value), form = kind, flags[kind[0]][0]
            if value is None:
                if i == len(argv) or kinds[i] is not None:
                    raise _Refused(command, f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            try:
                value = int(value) if form is int else value
            except ValueError:
                raise _Refused(command, f"argument {flag}: invalid int value: {value!r}") from None
            if type(form) is tuple and value not in form:
                raise _Refused(command, f"argument {flag}: invalid choice: {value!r}")
            values[flag] = [*values.get(flag, ()), value] if form is list else value
    missing = [flag for flag, entry in flags.items() if entry[2] and flag not in values]
    if command is None or missing:
        raise _Refused(command, "the following arguments are required: "
                                f"{', '.join(missing) or 'command'}")
    if extras:
        raise _Refused(command, f"unrecognized arguments: {' '.join(extras)}")
    return command, values


def main(argv=None) -> int:
    """Run the command ``argv`` (by default ``sys.argv[1:]``) names and return
    its exit code: 2 for a refused command line, after its usage line."""
    try:
        command, values = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Refused as exc:
        command, message = exc.args
        _print(_help(command)[0])
        _print(f"sptq{' ' + command if command else ''}: error: {message}")
        return 2
    if values is None:
        return _emit("\n".join(_help(command)), None, 0)
    fn, _, flags = _COMMANDS[command]
    return fn(SimpleNamespace(**{flag[2:].replace("-", "_"): values.get(flag, entry[1])
                                 for flag, entry in flags.items()}))
