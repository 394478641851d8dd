"""Fixtures shared by the test modules."""

import pytest

from sptq import identities, partitions


@pytest.fixture
def cold_memos():
    """Empty every library memo, that is every object in ``partitions`` or
    ``identities`` with a ``cache_info``, and yield them, so the test starts
    cold whatever ran before it; empty them again afterwards, so nothing the
    test built (under a monkeypatched builder, say) outlives it."""
    memos = [
        obj
        for module in (partitions, identities)
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
    ]
    for memo in memos:
        memo.cache_clear()
    yield memos
    for memo in memos:
        memo.cache_clear()
