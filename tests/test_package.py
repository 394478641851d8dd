"""The package's export list, what it imports, and its memoized functions."""

import subprocess
import sys
from pathlib import Path

import pytest

import sptq


def test_every_export_resolves_once():
    assert len(sptq.__all__) == len(set(sptq.__all__))
    missing = [name for name in sptq.__all__ if not hasattr(sptq, name)]
    assert missing == []


# ``sptq.identities`` is what only ``verify``, ``list`` and ``examples`` need,
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


@pytest.mark.parametrize("command", [("verify", "--all", "--order", "20"),
                                     ("list",), ("examples",)])
def test_identity_commands_load_identities_but_not_dataclasses(command):
    # the four value classes of ``identities`` take ``series._FrozenSlots``,
    # which imports ``dataclasses`` only when something reads its fields
    imported, _ = _imported_by(*command)
    assert "sptq.identities" in imported
    assert imported.isdisjoint(UNUSED_BY_COMMANDS)


@pytest.mark.parametrize("argv", [
    ["--all", "--order", "0"],
    ["--all", "--order", "10001"],  # cli.MAX_ORDER + 1
    ["--all", "--identity", "eq2", "--order", "10"],
    ["--order", "10"],
])
def test_verify_usage_errors_exit_before_loading_identities(argv):
    from sptq import cli

    assert cli.MAX_ORDER == 10_000
    imported, messages = _imported_by("verify", *argv, exit_code=2)
    assert "sptq.cli" in imported and "sptq.identities" not in imported
    assert [line.split(":")[0] for line in messages] == ["error"]  # not argparse's usage


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
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == sptq.__version__
