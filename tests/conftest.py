"""Fixtures shared by the test modules."""

import pytest

from sptq import identities, partitions, series


@pytest.fixture
def cold_memos():
    """Empty every library memo, that is every object in ``series``,
    ``partitions`` or ``identities`` with a ``cache_info``, and yield them,
    so the test starts cold whatever ran before it; empty them again
    afterwards, so nothing the test built (under a monkeypatched builder,
    say) outlives it."""
    memos = [
        obj
        for module in (series, partitions, identities)
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
    ]
    for memo in memos:
        memo.cache_clear()
    yield memos
    for memo in memos:
        memo.cache_clear()
