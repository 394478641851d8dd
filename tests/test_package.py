"""The package's export list, what it imports, and its memoized functions."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sptq


def test_every_export_resolves_once():
    assert len(sptq.__all__) == len(set(sptq.__all__))
    missing = [name for name in sptq.__all__ if not hasattr(sptq, name)]
    assert missing == []


# ``sptq.identities`` is what only ``verify`` and ``list`` need,
# and no command needs ``dataclasses`` with its ``inspect``; with both,
# ``import sptq.cli`` took about twice as long
UNUSED_BY_COMMANDS = ("dataclasses", "inspect")
LAZY_MODULES = ("sptq.identities", *UNUSED_BY_COMMANDS)


def _python(*args, exit_code=0):
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    assert run.returncode == exit_code, run.stderr
    return run


def _imported_by(*command, exit_code=0):
    """The modules a ``python -X importtime -m sptq`` run of ``command``
    imports, and the rest of its stderr."""
    run = _python("-X", "importtime", "-m", "sptq", *command, exit_code=exit_code)
    lines = run.stderr.splitlines()
    imported = {line.rsplit("|", 1)[-1].strip() for line in lines
                if line.startswith("import time:")}
    return imported, [line for line in lines if not line.startswith("import time:")]


def test_compute_loads_neither_identities_nor_dataclasses(tmp_path):
    probe = "import sys, sptq.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    assert _python("-c", probe, *LAZY_MODULES).stdout.split() == []
    imported, _ = _imported_by("compute", "--sequence", "spt", "--lo", "1", "--hi", "40",
                               "--cache-dir", str(tmp_path))
    assert "sptq.partitions" in imported  # the listing shows the job's imports
    assert imported.isdisjoint(LAZY_MODULES)


def test_examples_loads_neither_identities_nor_dataclasses():
    # like compute, examples reads only ``partitions``: its rows off the
    # per-size tables, its parity line off the table compute serves
    imported, _ = _imported_by("examples")
    assert "sptq.partitions" in imported
    assert imported.isdisjoint(LAZY_MODULES)


@pytest.mark.parametrize("command", [("verify", "--all", "--order", "20"), ("list",)])
def test_identity_commands_load_identities_but_not_dataclasses(command):
    # the four value classes of ``identities`` take ``series._FrozenSlots``,
    # which imports ``dataclasses`` only when something reads its fields
    imported, _ = _imported_by(*command)
    assert "sptq.identities" in imported
    assert imported.isdisjoint(UNUSED_BY_COMMANDS)


@pytest.mark.parametrize("argv", [
    ["--all", "--order", "0"],
    ["--all", "--order", "10001"],  # partitions.MAX_ORDER + 1
    ["--all", "--identity", "eq2", "--order", "10"],
    ["--order", "10"],
])
def test_verify_usage_errors_exit_before_loading_identities(argv):
    from sptq import partitions

    assert partitions.MAX_ORDER == 10_000
    imported, messages = _imported_by("verify", *argv, exit_code=2)
    assert "sptq.cli" in imported and "sptq.identities" not in imported
    assert [line.split(":")[0] for line in messages] == ["error"]  # not argparse's usage


@pytest.mark.parametrize("module", ["sptq.cli", "sptq.identities"])
def test_import_loads_neither_typing_nor_pathlib(module):
    # in a virtual environment whose site hooks preload neither, typing and
    # pathlib took 7-11 ms and 4-6 ms of the 13-20 ms of import sptq.cli
    probe = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        f"import {module}",
        "added = set(sys.modules) - before",
        "print(*sorted(m for m in added if m.partition('.')[0] in sys.stdlib_module_names))",
    ])
    added = set(_python("-S", "-c", probe).stdout.split())
    assert "math" in added  # the listing sees the stdlib
    assert added.isdisjoint({"typing", "pathlib", *PARSER_MODULES})


# under python -S on a shared 2-vCPU machine, argparse took 6-7 ms of
# import sptq.cli, gettext and re (which json loads anyway) included, and
# the locale that gettext loads on its first message lookup 1 ms more; the
# command line is read through a table in sptq.cli instead
PARSER_MODULES = ("argparse", "gettext", "locale")


@pytest.mark.parametrize("command, exit_code", [
    (("compute", "--sequence", "spt", "--lo", "1", "--hi", "20"), 0),
    (("verify", "--all", "--order", "20"), 0),
    (("verify", "--all", "--order", "x"), 2),  # a refusal of the command line
], ids=["compute", "verify", "refusal"])
def test_commands_load_no_argument_parser(command, exit_code):
    imported, _ = _imported_by(*command, exit_code=exit_code)
    assert "sptq.cli" in imported
    assert imported.isdisjoint(PARSER_MODULES)


# the process entry: the code a process exits with and whether the heap was
# frozen by then, so that finalization's collections skip every live object
EXIT_PROBE = "\n".join([
    "import gc, importlib, json, runpy, sys",
    "entry, sys.argv = sys.argv[1], ['sptq', *sys.argv[2:]]",
    "try:",
    "    if entry == '-m':",
    "        runpy.run_module('sptq', run_name='__main__')",
    "    else:  # a [project.scripts] target, called as its generated wrapper does",
    "        module, _, name = entry.partition(':')",
    "        sys.exit(getattr(importlib.import_module(module), name)())",
    "    outcome = 'no exit'",
    "except SystemExit as exc:",
    "    outcome = exc.code",
    "print(json.dumps([outcome, gc.get_freeze_count() > 0]), file=sys.stderr)",
])


def _pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


@pytest.mark.parametrize("argv, code", [
    (["list"], 0),
    (["verify", "--all", "--order", "0"], 2),  # sptq's own usage error
    (["no-such-command"], 2),  # a refusal of the command line
], ids=["list", "usage", "parser"])
@pytest.mark.parametrize("entry", ["-m", "script"])
def test_process_entries_freeze_the_heap_on_every_way_out(entry, argv, code):
    if entry == "script":
        entry = _pyproject()["project"]["scripts"]["sptq"]
    run = _python("-c", EXIT_PROBE, entry, *argv)
    assert json.loads(run.stderr.splitlines()[-1]) == [code, True]


def test_cli_main_in_process_freezes_nothing():
    from sptq import cli

    frozen = gc.get_freeze_count()
    assert cli.main(["list"]) == 0
    assert gc.get_freeze_count() == frozen


def test_identities_exports_load_on_first_use():
    probe = "\n".join([
        "import sys, sptq",
        "assert 'sptq.identities' not in sys.modules",
        "from sptq import IdentityCheck",
        "from sptq import identities",
        "assert IdentityCheck is identities.IdentityCheck",
        "assert sptq.verify_all is identities.verify_all",
        "assert sptq.REGISTRY is identities.REGISTRY and len(sptq.REGISTRY) == 23",
        "assert not hasattr(sptq, 'no_such_name')",
    ])
    _python("-c", probe)


def test_each_library_function_is_bound_in_one_module():
    # a module reads another's functions through that module, so one
    # setattr on the defining module patches or traces every call
    from sptq import cli, identities, partitions, series

    rebound = [
        f"{module.__name__}.{name} from {obj.__module__}"
        for module in (series, partitions, identities, cli)
        for name, obj in vars(module).items()
        if callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith("sptq.")
        and obj.__module__ != module.__name__
    ]
    assert rebound == []


def test_memo_inventory_is_the_quotient_memo_and_the_partition_tables(cold_memos):
    # the per-size tables of ``partitions`` and the quotients that several
    # checks and tables share, one entry per (order, numerator, step); every
    # other result is rebuilt on request
    assert sorted(memo.__name__ for memo in cold_memos) == ["_quotient", "_tables"]


def test_cold_memos_clears_every_memo_of_the_library(cold_memos):
    # a memo the fixture missed would carry series from one test (or one
    # planted fault) into the next, so it scans every module that could hold one
    from sptq import cli, identities, partitions, series

    memos = [obj for module in (series, partitions, identities, cli)
             for obj in vars(module).values() if hasattr(obj, "cache_info")]
    assert sorted(map(id, memos)) == sorted(map(id, cold_memos))


def test_version_matches_pyproject():
    # the compute cache is keyed on sptq.__version__, which pyproject.toml repeats
    assert _pyproject()["project"]["version"] == sptq.__version__
