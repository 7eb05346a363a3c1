"""Domain-skew handling: hot-domain detection + salted repartitioning.

The reference has no skew story — hot domains simply serialize behind
their slow handlers (SURVEY §4).  Per the north_rule, this engine handles
domain skew explicitly with a salted groupby-aggregate-sort repartition
*before* the classify stage:

1. ``domain_counts``: partial per-batch counts inside ``map_batches``
   (the combiner pattern — only (domain, n) pairs enter the shuffle, not
   rows), then one ``exchange.aggregate`` sum by domain.
2. ``salted_key``: hot domains get ``domain#<hash(doc_id) % K>`` so no
   single partition owns a hot site; cold domains keep ``domain``.
3. ``rebalance_by_domain``: hash exchange on the salted key
   (``crc32(skew_key) % num_parts`` groupby) co-locates each
   (domain, salt) bucket — no global order, so no range sort.

When to use: extraction itself is per-row and needs NO co-location — run
``rebalance_by_domain`` only when a downstream per-domain aggregate or a
rule-cache-locality optimization wants domain-clustered blocks, or when
wildly varying per-domain document sizes skew block costs.  It is off by
default in ``run_extraction``.
"""

from __future__ import annotations

import zlib

import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import aggregate

_DOMAIN_PATTERN = r"https?://(?P<domain>[^/]+)"


def add_domain_column(batch: pa.Table) -> pa.Table:
    """Vectorized domain extraction from doc_id (requests-path semantics:
    www kept, ref:519).  No-op when the column is already present."""
    if "domain" in batch.column_names:
        return batch
    ext = pc.extract_regex(batch.column("doc_id"), _DOMAIN_PATTERN)
    domain = pc.struct_field(ext, "domain")
    domain = pc.fill_null(domain, "")
    return batch.append_column("domain", domain)


def _partial_domain_counts(batch: pa.Table) -> pa.Table:
    batch = add_domain_column(batch)
    counts = batch.group_by("domain").aggregate([("domain", "count")])
    return counts.rename_columns(["domain", "n"])


def domain_counts(ds):
    """Dataset of (domain, n) — partial-aggregated before the shuffle.
    Projects to doc_id FIRST so the counting pass never ships span
    payloads (against a parquet/Lance source the projection pushes
    down to the read — the detect pass reads one string column)."""
    partial = ds.select_columns(["doc_id"]).map_batches(
        _partial_domain_counts, batch_format="pyarrow",
        zero_copy_batch=True)
    return aggregate(partial, "domain", ("sum", "n"))


_TOTAL_SENTINEL = "\x00__block_total__"


def detect_hot_domains(ds, hot_fraction: float = 0.05,
                       max_hot: int = 64) -> list[str]:
    """Domains holding ≥ hot_fraction of all rows — heavy-hitter pass,
    NO all-to-all.

    Each block emits only domains with block share ≥ hot_fraction/4
    (pigeonhole: a domain with global share ≥ f has share ≥ f in at
    least one block, so every truly-hot domain is emitted; the /4
    safety factor keeps its merged count near-exact unless its mass
    hides in blocks where it is 4× diluted) plus one sentinel row
    carrying the block's row count.  Per-block emission is bounded by
    4/f rows (80 at f=0.05), so the driver-side merge sees
    O(blocks/f) tiny rows — no shuffle, no groupby, just one
    streaming map pass over the (column-pruned) doc_id read.

    Counts merged this way are exact lower bounds; this feeds a
    balance HEURISTIC (extraction output is span-identical with any
    hot set), so a borderline domain dropping out is acceptable —
    what matters is that no dominant domain is ever missed, which the
    pigeonhole bar guarantees.
    """
    f = hot_fraction

    def hh_partials(batch: pa.Table) -> pa.Table:
        batch = add_domain_column(batch)
        counts = batch.group_by("domain").aggregate([("domain", "count")])
        bar = max(1, int((f / 4) * batch.num_rows))
        mask = pc.greater_equal(counts.column("domain_count"), bar)
        counts = counts.filter(mask)
        return pa.table({
            "domain": pa.concat_arrays(
                [counts.column("domain").combine_chunks(),
                 pa.array([_TOTAL_SENTINEL], pa.string())]),
            "n": pa.concat_arrays(
                [counts.column("domain_count").cast(pa.int64())
                 .combine_chunks(),
                 pa.array([batch.num_rows], pa.int64())]),
        })

    # scan the narrowest column available: a pre-computed domain column
    # (pinned-block callers) beats re-running the regex over doc_id
    try:
        sch = ds.schema(fetch_if_missing=False)
        names = sch.names if sch is not None else None
    except Exception:
        names = None
    col = "domain" if names and "domain" in names else "doc_id"
    partial = ds.select_columns([col]).map_batches(
        hh_partials, batch_format="pyarrow", zero_copy_batch=True)
    emitted = partial.take_all()
    if not emitted:
        return []
    merged = pa.Table.from_pylist(emitted) \
        .group_by("domain").aggregate([("n", "sum")])
    rows = dict(zip(merged.column("domain").to_pylist(),
                    merged.column("n_sum").to_pylist()))
    total = rows.pop(_TOTAL_SENTINEL, 0)
    hot = [(d, n) for d, n in rows.items() if n >= f * total]
    hot.sort(key=lambda t: (-t[1], t[0]))
    return [d for d, _ in hot[:max_hot]]


def _salt_of(doc_id: str, buckets: int) -> int:
    # deterministic, process-stable (NOT python hash(), which is salted)
    return zlib.crc32(doc_id.encode("utf-8")) % buckets


def add_salted_key(batch: pa.Table, hot: frozenset[str],
                   buckets: int) -> pa.Table:
    """Salts are computed only for rows of HOT domains (the Python
    crc32-per-doc_id loop runs over the hot slice, never the whole
    batch); cold rows pass their domain through untouched."""
    import numpy as np

    batch = add_domain_column(batch)
    domains = np.asarray(batch.column("domain").to_pylist(),
                         dtype=object)
    keys = domains.copy()
    is_hot = np.array([d in hot for d in domains], dtype=bool)
    if is_hot.any():
        hot_ids = np.asarray(
            batch.column("doc_id").to_pylist(), dtype=object)[is_hot]
        keys[is_hot] = [
            f"{dom}#{_salt_of(did, buckets):03d}"
            for did, dom in zip(hot_ids, domains[is_hot])]
    return batch.append_column(
        "skew_key", pa.array(keys.tolist(), pa.string()))


def rebalance_for_extraction(ds, hot_fraction: float = 0.05,
                             buckets: int = 16, num_parts: int = 64,
                             max_hot: int = 64):
    """Balance-mode orchestration for a per-row consumer (extraction):
    ONE read (materialized once, with the domain column), hot detection
    over the pinned blocks (no second pass over storage), then the
    scope="hot" split — cold rows stream straight into the consumer,
    only hot-domain rows ride the tiny exchange.  Returns
    ``(dataset, hot_domains)``; the dataset carries no helper columns.
    The pin is bounded by the caller's round size and spills past the
    object-store cap."""
    base = ds.map_batches(add_domain_column, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    hot = detect_hot_domains(base, hot_fraction=hot_fraction,
                             max_hot=max_hot)
    if not hot:
        return base.drop_columns(["domain"]), []
    out = rebalance_by_domain(base, hot, buckets=buckets,
                              num_parts=num_parts, scope="hot",
                              pin=False)
    return out.drop_columns(["domain", "skew_key"]), hot


def rebalance_by_domain(ds, hot_domains: list[str], buckets: int = 16,
                        num_parts: int = 64, scope: str = "all",
                        pin: bool = True):
    """Salted repartition: hot domains split across ``buckets`` salt
    keys, then a HASH exchange on the salted key co-locates each
    (domain, salt) group.  Returns the rebalanced dataset (still
    carrying ``domain`` and ``skew_key``).

    ``scope="hot"`` exchanges ONLY the hot-domain rows — the cold
    majority streams straight through with zero barrier, so the
    read→extract overlap the streaming executor gives a plain run is
    preserved for most bytes (an all-to-all is a pipeline barrier; at
    toy scale the lost overlap, not the shuffle itself, is the cost).
    Use it when the goal is actor balance (extraction).  The default
    ``scope="all"`` also co-locates every COLD domain's rows — needed
    only when a downstream per-domain aggregate wants domain-clustered
    blocks.  scope="hot" has two downstream consumers (cold filter +
    hot exchange) and a lazy Dataset re-executes its lineage once PER
    consumer, so the keyed dataset is ``materialize()``d first — one
    read, both filters scan the pinned blocks.  The pin is bounded by
    the caller's round size (``shards_per_round`` fragments in
    ``run_extraction``), and the object store spills past its cap, so
    this holds at cluster scale.

    Actor balance needs co-location, not global order, so the exchange
    keys by ``crc32(skew_key) % num_parts`` — an int64 hash-partition
    id with a CONSTANT number of distinct values — instead of
    range-partitioning the full string key space.  The physical
    exchange is Ray's sort on that int id: with ≤ num_parts distinct
    8-byte keys the boundary sampling and per-block ordering are
    trivial (measured equal to the string sort at 40k docs and strictly
    cheaper in key bytes at scale), and unlike groupby().map_groups it
    pays no per-group Python slicing.  DataContext.shuffle_strategy =
    HASH_SHUFFLE + repartition(keys=...) is the true hash exchange on
    a real cluster; on small-CPU nodes its per-partition aggregator
    actors thrash (measured 48 s vs 1 s here), so the int-key sort is
    the portable default."""
    import numpy as np

    if scope not in ("all", "hot"):
        raise ValueError(f"scope must be 'all' or 'hot', got {scope!r}")
    hot = frozenset(hot_domains)

    def key_part(batch: pa.Table) -> pa.Table:
        batch = add_salted_key(batch, hot, buckets)
        # skew keys repeat heavily (≤ one per (domain, salt)):
        # dictionary-encode and crc32 once per DISTINCT key
        enc = pc.dictionary_encode(
            batch.column("skew_key")).combine_chunks()
        lut = np.array([zlib.crc32(k.encode("utf-8")) % num_parts
                        for k in enc.dictionary.to_pylist()],
                       dtype=np.int64)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        parts = (lut[codes] if len(lut)
                 else np.empty(0, dtype=np.int64))
        if scope == "hot":
            # cold rows are marked -1 and bypass the exchange
            cold = ~np.isin(
                np.asarray(batch.column("domain").to_pylist(),
                           dtype=object), list(hot))
            parts = np.where(cold, np.int64(-1), parts)
        return batch.append_column("_part", pa.array(parts))

    def drop_part(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["_part"])

    if scope == "hot":
        # two consumers below → pin once so the lineage doesn't run
        # twice; pin=False when the CALLER already materialized the
        # input (the branch maps then re-run per consumer, but only
        # over pinned blocks — no re-read).  Each branch is ONE fused
        # map op (mask-filter inside the batch fn), not
        # filter()+map() pairs — fewer operators on the extract plan.
        base = ds.materialize() if pin else ds

        def cold_select(batch: pa.Table) -> pa.Table:
            batch = key_part(batch)
            mask = pc.less(batch.column("_part"), 0)
            return batch.filter(mask).drop_columns(["_part"])

        def hot_select(batch: pa.Table) -> pa.Table:
            batch = key_part(batch)
            mask = pc.greater_equal(batch.column("_part"), 0)
            return batch.filter(mask)

        cold = base.map_batches(cold_select, batch_format="pyarrow",
                                zero_copy_batch=True)
        # the hot branch is sorted EAGERLY: inside a lazy union its
        # all-to-all tasks starve behind the consumer's actor pool
        # (measured: a 0.7 s sort stretched to 15 s of wall next to a
        # 7-actor extraction pool); materializing it first runs the
        # tiny exchange with the whole CPU set, then the union streams
        hot_ex = base.map_batches(hot_select, batch_format="pyarrow",
                                  zero_copy_batch=True) \
            .sort("_part") \
            .map_batches(drop_part, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()
        return cold.union(hot_ex)
    keyed = ds.map_batches(key_part, batch_format="pyarrow",
                           zero_copy_batch=True)
    return keyed.sort("_part").map_batches(
        drop_part, batch_format="pyarrow", zero_copy_batch=True)
