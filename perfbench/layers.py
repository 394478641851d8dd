"""The four sptq layers as the traced run sees them: which names get a
span, and how a traced pass's spans become per-layer metrics.

Every wrapper is installed from outside, on the name where the program
looks it up: the series builders in both ``series`` and ``identities``
(which imports them by name), ``TruncatedSeries`` methods on the class,
``enumerate_partitions`` and the counting functions on the
``partitions`` module and in its sequence table, the registry checks in
``identities.REGISTRY``.  No sptq source file is changed.
"""

import dataclasses
from collections import Counter

from spans import self_times

CHECK_IDS = (
    "eq1", "eq2", "eq3", "gf_note", "thm2", "thm3", "thm4", "thm5", "eq13",
    "eq14", "eq23", "m2_is_2np", "spt_half_diff", "sigma_doubling",
    "legendre_t4", "bailey_c1", "bailey_c5", "eq12_c1", "eq12_c5", "cong5",
    "cong7", "cong13", "termwise_eq2",
)
BUILDERS = (
    "lhs_eq1", "lhs_eq2", "lhs_eq3", "lhs_gf_note", "rhs_eq1_doubled",
    "rhs_eq2_doubled", "rhs_eq3_doubled", "rhs_eq23", "eq12_lhs", "eq12_rhs",
    "check_bailey_relation",
)
PARTITION_FNS = ("spt", "n2", "m2", "spt_o_plus", "spt_o_minus", "p", "sigma", "t4")

# series names and the span (metric group) each one is charged to
SERIES_METHODS = {
    "__mul__": "series.mul", "__rmul__": "series.mul",
    "invert": "series.invert",
    "__add__": "series.other", "__sub__": "series.other",
    "__neg__": "series.other", "__pow__": "series.other",
    "times_one_minus": "series.other", "divided_by_one_minus": "series.other",
    "extract": "series.other", "truncate": "series.other",
}
SERIES_BUILDERS = {
    "qpoch_inf": "series.pochhammer", "qpoch_fin": "series.pochhammer",
    "zero": "series.other", "one": "series.other", "monomial": "series.other",
    "lambert_sigma": "series.other", "geom_sq": "series.other",
}
MEMO_LAYERS = ("identities", "partitions")


def mul_ops(a, b):
    """Multiply-adds a schoolbook product of these operands performs, as in
    ``TruncatedSeries.__mul__``: one per (nonzero coefficient of the sparser
    factor, coefficient of the other) pair within the result's order.  It
    depends on the operands only, so it stays fixed if the kernel changes."""
    if isinstance(b, int):
        return len(a.coeffs)
    if not hasattr(b, "coeffs"):
        return 0
    n = min(a.order, b.order)
    x, y = a.coeffs[: n + 1], b.coeffs[: n + 1]
    if len(y) - y.count(0) < len(x) - x.count(0):
        x = y
    return sum(n + 1 - i for i, c in enumerate(x) if c)


def invert_ops(a):
    """Multiply-adds of a term-by-term inverse, as in
    ``TruncatedSeries.invert``: coefficient j >= 1, when nonzero, feeds every
    output coefficient k >= j."""
    n = a.order
    return sum(n + 1 - j for j, c in enumerate(a.coeffs) if j and c)


def install(rec):
    """Wrap the layer boundaries of the imported sptq modules in spans of
    ``rec``.  Returns the memoized functions of each layer, unwrapped, so
    their ``cache_info()`` can be read at exit."""
    from sptq import identities, partitions, series

    memo = {
        layer: [obj for obj in vars(module).values() if hasattr(obj, "cache_info")]
        for layer, module in (("identities", identities), ("partitions", partitions))
    }

    cls = series.TruncatedSeries
    work = {"__mul__": (mul_ops, "series.mul.coeff_ops"),
            "__rmul__": (mul_ops, "series.mul.coeff_ops"),
            "invert": (invert_ops, "series.invert.coeff_ops")}
    for attr, span in SERIES_METHODS.items():
        setattr(cls, attr, rec.wrap(span, vars(cls)[attr], work.get(attr)))
    for attr, span in SERIES_BUILDERS.items():
        traced = rec.wrap(span, getattr(series, attr))
        for module in (series, identities):
            if hasattr(module, attr):
                setattr(module, attr, traced)

    for name in BUILDERS:
        setattr(identities, name,
                rec.wrap(f"identities.builder.{name}", getattr(identities, name)))
    for cid, check in list(identities.REGISTRY.items()):
        identities.REGISTRY[cid] = dataclasses.replace(
            check, run=rec.wrap(f"identities.check.{cid}", check.run))

    partitions.enumerate_partitions = rec.wrap_generator(
        "partitions.enumerate", partitions.enumerate_partitions,
        "partitions.enumerated")
    traced_fns = {}
    for name in PARTITION_FNS:
        original = getattr(partitions, name)
        traced_fns[original] = rec.wrap(f"partitions.{name}", original)
        setattr(partitions, name, traced_fns[original])
    for key, (fn, lo_min) in list(partitions._SEQUENCES.items()):
        partitions._SEQUENCES[key] = (traced_fns.get(fn, fn), lo_min)
    partitions.sequence = rec.wrap("partitions.sequence", partitions.sequence)
    return memo


def memo_stats(memo):
    """Summed [hits, misses] of each layer's memoized functions."""
    stats = {}
    for layer, fns in memo.items():
        infos = [fn.cache_info() for fn in fns]
        stats[layer] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
    return stats


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(records):
    """Per-layer metrics of one traced pass.

    ``records`` holds one dict per job: ``argv``, ``spans``, ``counts``,
    ``memo`` (as written by the launcher) and ``stdout_bytes``.  Times are
    summed over the pass's jobs; ``.s`` metrics are inclusive, ``self_s``
    metrics exclude child spans.
    """
    calls, busy, own, counts = Counter(), Counter(), Counter(), Counter()
    memo = {layer: [0, 0] for layer in MEMO_LAYERS}
    compute_jobs = compute_hits = out_bytes = 0
    for rec in records:
        spans = [tuple(s) for s in rec["spans"]]
        selfs = self_times(spans)
        names = set()
        for sid, _parent, name, _start, _end, span_busy in spans:
            calls[name] += 1
            busy[name] += span_busy
            own[name] += selfs[sid]
            names.add(name)
        counts.update(rec["counts"])
        for layer in MEMO_LAYERS:
            hits, misses = rec["memo"].get(layer, (0, 0))
            memo[layer][0] += hits
            memo[layer][1] += misses
        if rec["argv"][0] == "compute":
            compute_jobs += 1
            compute_hits += "partitions.sequence" not in names
        out_bytes += rec["stdout_bytes"]

    layer_self = Counter()
    for name, value in own.items():
        layer_self[name.split(".")[0]] += value

    m = {}
    for group in ("mul", "invert", "pochhammer"):
        m[f"series.{group}.calls"] = calls[f"series.{group}"]
        m[f"series.{group}.self_s"] = own[f"series.{group}"]
    m["series.mul.coeff_ops"] = counts["series.mul.coeff_ops"]
    m["series.invert.coeff_ops"] = counts["series.invert.coeff_ops"]
    m["series.other.self_s"] = own["series.other"]
    m["series.self_s"] = layer_self["series"]
    for cid in CHECK_IDS:
        m[f"identities.check.{cid}.s"] = busy[f"identities.check.{cid}"]
    for name in BUILDERS:
        m[f"identities.builder.{name}.s"] = busy[f"identities.builder.{name}"]
    m["identities.self_s"] = layer_self["identities"]
    m["identities.memo.hit_ratio"] = _ratio(memo["identities"][0], sum(memo["identities"]))
    m["partitions.enumerated"] = counts["partitions.enumerated"]
    m["partitions.enumerate.self_s"] = own["partitions.enumerate"]
    for name in PARTITION_FNS:
        m[f"partitions.{name}.calls"] = calls[f"partitions.{name}"]
        m[f"partitions.{name}.s"] = busy[f"partitions.{name}"]
    m["partitions.memo.hit_ratio"] = _ratio(memo["partitions"][0], sum(memo["partitions"]))
    m["partitions.self_s"] = layer_self["partitions"]
    m["cli.main.self_s"] = own["cli.main"]
    m["cli.cache.hit_ratio"] = _ratio(compute_hits, compute_jobs)
    m["cli.output_bytes"] = out_bytes
    return m


def unit_of(name):
    """Unit of a per-layer or tracing metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"
