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
    PartitionPair,
    SequenceTable,
    crank,
    enumerate_partitions,
    m2,
    n2,
    odd_condition,
    p,
    partition_pairs,
    rank,
    sequence,
    sigma,
    spt,
    spt_o,
    spt_o_minus,
    spt_o_plus,
    t4,
)
from .identities import (
    BaileyPair,
    IdentityCheck,
    IdentityReport,
    Mismatch,
    REGISTRY,
    bailey_pair,
    check_bailey_relation,
    check_congruence,
    check_eq12,
    verify,
    verify_all,
)

__all__ = [
    "__version__",
    "TruncatedSeries", "geom_sq", "lambert_sigma", "monomial", "one",
    "qpoch_fin", "qpoch_inf", "zero",
    "Partition", "PartitionPair", "SequenceTable", "crank",
    "enumerate_partitions", "m2", "n2", "odd_condition", "p",
    "partition_pairs", "rank", "sequence", "sigma", "spt", "spt_o",
    "spt_o_minus", "spt_o_plus", "t4",
    "BaileyPair", "IdentityCheck", "IdentityReport", "Mismatch", "REGISTRY",
    "bailey_pair", "check_bailey_relation", "check_congruence", "check_eq12",
    "verify", "verify_all",
]
