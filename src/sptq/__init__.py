"""sptq: exact q-series and partition machinery for smallest-part counting.

Everything runs over arbitrary-precision integers: truncated formal power
series (``sptq.series``), partition enumeration with rank/crank moments and
smallest-part counts (``sptq.partitions``), and a registry of
coefficientwise identity checks pitting the two against each other
(``sptq.identities``).  ``sptq.cli`` exposes it all on the command line.
"""

__version__ = "0.1.0"

from .series import (
    TruncatedSeries,
    geom_sq,
    lambert_sigma,
    monomial,
    one,
    qpoch_fin,
    qpoch_inf,
    zero,
)
from .partitions import (
    Partition,
    crank,
    enumerate_partitions,
    m2,
    n2,
    odd_condition,
    p,
    rank,
    sequence,
    sigma,
    spt,
    spt_o,
    spt_o_minus,
    spt_o_plus,
    t4,
)


def __getattr__(name):
    """PEP 562: the names in ``__all__`` not bound above load ``identities``."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import identities
    return getattr(identities, name)


__all__ = [
    "__version__",
    "TruncatedSeries", "geom_sq", "lambert_sigma", "monomial", "one",
    "qpoch_fin", "qpoch_inf", "zero",
    "Partition", "crank", "enumerate_partitions", "m2", "n2",
    "odd_condition", "p", "rank", "sequence", "sigma", "spt", "spt_o",
    "spt_o_minus", "spt_o_plus", "t4",
    "BaileyPair", "IdentityCheck", "IdentityReport", "Mismatch", "REGISTRY",
    "bailey_pair", "check_bailey_relation", "verify", "verify_all",
]
