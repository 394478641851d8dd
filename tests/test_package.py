"""The package's export list."""

import sptq


def test_every_export_resolves_once():
    assert len(sptq.__all__) == len(set(sptq.__all__))
    missing = [name for name in sptq.__all__ if not hasattr(sptq, name)]
    assert missing == []
