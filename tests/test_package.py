"""The package's export list and its memoized functions."""

from pathlib import Path

import pytest

import sptq


def test_every_export_resolves_once():
    assert len(sptq.__all__) == len(set(sptq.__all__))
    missing = [name for name in sptq.__all__ if not hasattr(sptq, name)]
    assert missing == []


def test_memo_inventory_is_the_three_reused_builders(cold_memos):
    # the one walk per partition size and the two series builders that
    # several checks share; every other result is rebuilt on request
    assert sorted(memo.__name__ for memo in cold_memos) == [
        "_smallest_part_lhs", "_statistics", "lhs_eq1"]


def test_version_matches_pyproject():
    # the compute cache is keyed on sptq.__version__, which pyproject.toml repeats
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == sptq.__version__
