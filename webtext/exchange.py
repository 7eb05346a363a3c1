"""One aggregate exchange for keyed Dataset aggregates.

``aggregate(ds, on, *aggs)`` replaces Ray Data's native
``groupby(on).sum/count/min/max/aggregate``.  In Ray 2.49 those are
sort-based and walk every row in Python: the map side
(``table_block._aggregate``) iterates rows and slices one accumulator
call per group, and the reduce side (``_combine_aggregated_blocks``)
is a ``heapq.merge`` over rows.  Here the per-row work is Arrow's C++
hash aggregate on both sides of one exchange:

* map side — each block is pre-aggregated by ``pa.Table.group_by``
  (sum/min/max partials, ``count_all`` for a count) and tagged with a
  deterministic bucket, hash(on) % N_SHUFFLE_BUCKETS;
* exchange — one ``groupby(bucket).map_groups`` whose cell re-runs the
  hash aggregate over the bucket's partials (sum of sums and counts,
  min of mins, max of maxes).

The output holds one row per distinct key, with Ray's column names
(``sum(c)``, ``min(c)``, ``max(c)``, ``count()``) after the key
columns, and is row-identical to the native aggregate up to row order
(the native output is sorted by key; this one is sorted within each
bucket only).  Null keys form
their own group, null values are skipped, and an all-null group's
sum/min/max is null, as natively.  A floating-point ``sum`` raises
``TypeError``: Arrow sums in a different order than Ray, so the float
result could differ in its last bits.  Float sums stay on the native
call (listed in ``tests/test_exchange.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# Shuffle fan-out for every join-by-groupby stage: grouping by
# hash(key) % N instead of by raw key keeps the group count CONSTANT
# (not O(rows)), so map_groups pays Python/slice overhead 256 times per
# shuffle instead of once per doc/pair — the in-bucket work is a dict
# pass over the same total rows.  At cluster scale, buckets are the
# partitioning unit; raise N_SHUFFLE_BUCKETS with the cluster size.
N_SHUFFLE_BUCKETS = 256

_BUCKET = "__bucket"
_MIX = (1 << 61) - 1           # the range of one column's key hash
# the Arrow hash aggregate of each spec kind on the map side, and the
# one that combines its partials on the reduce side
_MAP = {"sum": "sum", "min": "min", "max": "max", "count": "count_all"}
_REDUCE = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def _ibucket(a: np.ndarray, n: int = N_SHUFFLE_BUCKETS) -> np.ndarray:
    """Deterministic hash bucket for int64 keys (Knuth multiplicative,
    wrap-around is defined int64 overflow)."""
    with np.errstate(over="ignore"):
        mixed = a.astype(np.int64) * np.int64(2654435761)
    return (mixed & np.int64(0x7FFFFFFFFFFFFFFF)) % np.int64(n)


def _sbucket(strings, n: int = N_SHUFFLE_BUCKETS) -> np.ndarray:
    """Deterministic hash bucket for string keys (vectorized siphash via
    pandas.util.hash_array; stable across processes — fixed hash key, no
    PYTHONHASHSEED dependence).

    categorize=False is REQUIRED, not an optimization choice: the
    default categorize=True path (factorize → hash the category
    values) mis-hashes strings containing embedded NUL bytes — the
    per-element hash then depends on the OTHER elements in the array,
    so the same key gets different buckets in different tasks and a
    downstream groupby silently fails to co-locate (caught by
    host_cocitation's NUL-joined pair keys; pinned by
    tests/test_webgraph.py::test_sbucket_nul_batch_equals_solo).  The
    direct path hashes each element's utf-8 bytes independently and is
    value-identical to the default path for NUL-free strings (verified
    over the repo's key shapes), so no existing exchange changes."""
    import pandas as pd

    arr = np.asarray(list(strings) if not isinstance(strings, np.ndarray)
                     else strings, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    return (pd.util.hash_array(arr, categorize=False)
            % np.uint64(n)).astype(np.int64)


def _key_hash(col) -> np.ndarray:
    """A deterministic int64 hash in [0, _MIX) per value of one key
    column: ``_sbucket`` for strings and bytes, ``_ibucket`` for
    integer-like values (dates, timestamps and float bit patterns as
    int64)."""
    t = col.type
    if pa.types.is_dictionary(t):
        col, t = col.cast(t.value_type), t.value_type
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        return _sbucket(col.to_numpy(zero_copy_only=False), _MIX)
    if pa.types.is_temporal(t):
        return _ibucket(col.to_numpy(zero_copy_only=False)
                        .view(np.int64), _MIX)
    if pa.types.is_floating(t):
        # + 0.0 folds -0.0 onto 0.0, which compare equal
        bits = col.cast(pa.float64()).fill_null(0.0) \
            .to_numpy(zero_copy_only=False) + 0.0
        return _ibucket(bits.view(np.int64), _MIX)
    return _ibucket(col.cast(pa.int64(), safe=False).fill_null(0)
                    .to_numpy(zero_copy_only=False), _MIX)


def _key_bucket(table: pa.Table, on: list,
                n: int = N_SHUFFLE_BUCKETS) -> np.ndarray:
    """hash(on) % n per row: the per-column hashes combined, then
    finalized by murmur3's fmix64, so that low key bits (all-even node
    ids, say) do not pin the low bits of the bucket."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in on:
            h = h * np.uint64(1_000_003) \
                + _key_hash(table.column(k)).astype(np.uint64)
        for mul in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
            h ^= h >> np.uint64(33)
            h *= np.uint64(mul)
        h ^= h >> np.uint64(33)
    return (h % np.uint64(n)).astype(np.int64)


def _out_name(spec: tuple) -> str:
    return "count()" if spec[0] == "count" else f"{spec[0]}({spec[1]})"


def _hash_aggregate(table: pa.Table, on: list, specs: list) -> pa.Table:
    """``table`` grouped by ``on`` with one Arrow hash aggregate per
    (output name, input column or None, Arrow function) spec: the key
    columns, then each output column under its name."""
    out = table.group_by(on, use_threads=False).aggregate(
        [([] if c is None else c, fn) for _, c, fn in specs])
    return pa.Table.from_arrays(
        [out.column(k) for k in on] +
        [out.column(fn if c is None else f"{c}_{fn}")
         for _, c, fn in specs],
        names=[*on, *(name for name, _, _ in specs)])


def _partial(batch: pa.Table, on: list, aggs: list) -> pa.Table:
    """Map side: one block pre-aggregated per key, plus its bucket."""
    if not batch.num_rows and not batch.num_columns:
        return batch          # a repartitioned empty block has no columns
    for spec in aggs:
        if spec[0] == "sum" and pa.types.is_floating(
                batch.schema.field(spec[1]).type):
            raise TypeError(
                f"exchange.aggregate: sum over floating-point column "
                f"{spec[1]!r} would not match Ray's summation order; "
                f"keep the native groupby().sum for it")
    part = _hash_aggregate(batch, on, [
        (_out_name(s), None if s[0] == "count" else s[1], _MAP[s[0]])
        for s in aggs])
    return part.append_column(
        _BUCKET, pa.array(_key_bucket(part, on)))


def _combine(group: pa.Table, on: list, aggs: list) -> pa.Table:
    """Reduce side: one bucket's partials combined per key, sorted by
    key.  The sort is for readers that gather by key: pagerank's local
    rounds over a 1.2M-edge graph took 0.42 s against 0.60 s unsorted
    (three rounds), for 0.15 s more in the edge aggregate."""
    names = [_out_name(s) for s in aggs]
    return _hash_aggregate(group, on, [
        (name, name, _REDUCE[s[0]]) for name, s in zip(names, aggs)]) \
        .sort_by([(k, "ascending") for k in on])


def aggregate(ds, on, *aggs):
    """``ds`` grouped by ``on`` (a column name or a list of them) with
    one output column per spec, in order: ``("sum", col)``,
    ``("min", col)``, ``("max", col)`` or ``("count",)``.  The
    vectorized stand-in for ``ds.groupby(on).sum/min/max/count`` and
    ``.aggregate(Sum|Min|Max|Count)``; see the module docstring."""
    on = [on] if isinstance(on, str) else list(on)
    aggs = [tuple(a) for a in aggs]
    for spec in aggs:
        if spec[0] not in _MAP or len(spec) != (1 if spec[0] == "count"
                                                else 2):
            raise ValueError(f"exchange.aggregate: bad spec {spec!r}")
    if not on or not aggs:
        raise ValueError("exchange.aggregate needs keys and specs")
    return ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"on": on, "aggs": aggs}) \
        .groupby(_BUCKET).map_groups(
            _combine, batch_format="pyarrow",
            fn_kwargs={"on": on, "aggs": aggs})
