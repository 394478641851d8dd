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


# what only ``verify``, ``list`` and ``examples`` need; with them,
# ``import sptq.cli`` took about twice as long
LAZY_MODULES = ("dataclasses", "sptq.identities")


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True)


def test_compute_loads_neither_identities_nor_dataclasses(tmp_path):
    probe = "import sys, sptq.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    assert _python("-c", probe, *LAZY_MODULES).stdout.split() == []
    run = _python("-X", "importtime", "-m", "sptq", "compute", "--sequence", "spt",
                  "--lo", "1", "--hi", "40", "--cache-dir", str(tmp_path))
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "sptq.partitions" in imported  # the listing shows the job's imports
    assert imported.isdisjoint(LAZY_MODULES)


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
