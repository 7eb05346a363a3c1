"""One exchange module: keyed aggregates, keyed joins and the hash
exchange they share.

``_hash_exchange`` is the one repartition operator, on raw Ray tasks
instead of Ray Data's sort-based ``groupby`` + ``map_groups``.  Each
input is streamed with ``iter_internal_ref_bundles()``, so a lazy plan
runs once and no ``limit(1)`` schema probe runs.  Its partition count
P follows the bytes it carries, the sum of the inputs' block
``size_bytes``: P = 1 while they fit in one Ray Data
``DataContext.target_min_block_size`` (1 MiB), the size below which
Ray Data does not split a block, and P = the cluster's CPUs above it or
when a block's size is unknown.  Block refs are held, across the inputs
in order, only until one target's worth has arrived; from then on every
block is split as it arrives, so a large input streams.

* P > 1 — one task per block tags its rows with a bucket,
  hash(key) % N_SHUFFLE_BUCKETS, and returns them split by
  ``bucket % P`` as P objects; P reduce tasks run the cell once per
  partition.
* P = 1 — one fused task cuts every block, concatenates each input's
  rows and runs the cell once; no split task runs.

The result is ``ray.data.from_arrow_refs`` over the cell outputs,
materialized, so an exchange executes its input at call time, as
``materialize()`` does, a small exchange gives one block, and reading
the result back (``to_arrow_refs``, ``take_all``, another exchange)
starts no Ray Data execution.  Each task's remote function is made
once per process (``_task``), so a repeated exchange exports no
function.  With ``WEBTEXT_TRACE_ROUNDS`` set it prints one
``[exchange] op=aggregate|join|group_map|bands blocks=M bytes=B
parts=P`` line to stderr.

``aggregate(ds, on, *aggs, pre=…, names=…)`` replaces Ray Data's
native keyed aggregates, which in Ray 2.49 are sort-based and walk
every row in Python on both sides (``table_block._aggregate``,
``_combine_aggregated_blocks``).  Here each block is pre-aggregated by
Arrow's hash aggregate (sum/min/max partials, ``count_all`` for a
count) and each partition's partials are combined by another (sum of
sums and counts, min of mins, max of maxes) and sorted by key.  The
output holds one row per distinct key, with Ray's column names
(``sum(c)``, ``min(c)``, ``max(c)``, ``count()``) after the keys, and
is row-identical to the native aggregate up to row order (sorted within
each partition only).  Null keys form their own group, null values are
skipped, and an all-null group's sum/min/max is null, as natively.  A
floating-point ``sum`` raises ``TypeError``: Arrow sums in a different
order than Ray, so the float result could differ in its last bits.
Two options fold the maps around an aggregate into its exchange, so
neither is a Ray Data stage of its own: ``pre`` runs a block-local map
(a projection, or a per-block combiner of the aggregated columns)
inside the cut, and ``names`` renames the output columns inside the
cell.  P follows the bytes before ``pre``.

``group_map(ds, on, cell)`` is the one per-group map: each partition
is sorted by ``on`` in Arrow and ``cell`` runs once per distinct key,
the contract of Ray Data's ``groupby`` then ``map_groups`` up to row
order.  With ``on=()`` every row is one group in one task: the global
combine after a per-block partial (a top-k merge, a one-row total).

``join(left, right, on, how=…, attach=…, right_rows=…)`` is the one
keyed join.  The route is picked at call time from ``right_rows``, an
upper bound on the right side's rows that the caller knows without
executing anything (a parquet footer count, a commit manifest, a
materialized Dataset):

* broadcast — ``right_rows`` ≤ ``broadcast_max_rows`` (default
  ``BROADCAST_MAX_ROWS``, read at call time): the right side
  is materialized once, sorted by key on the driver and ``ray.put``
  once; the join is a streaming ``searchsorted`` ``map_batches`` over
  ``left`` with no exchange;
* bucketed — otherwise: one hash exchange on hash(key) hands each
  reduce task its partition's left rows and right rows (keys and
  attach columns only) as two argument lists, joined by the same probe.
  A partition with right rows only gives 0 rows with the left schema
  plus the attach columns.

Both routes give the same rows: null keys never match, ``inner`` and
``left`` attach at most one right row per left row (a duplicate right
key raises ``ValueError``), ``semi``/``anti`` keep the left rows that
have / have no match.  Left rows keep every column; the broadcast route
keeps their order, and the bucketed route executes at call time.
"""

from __future__ import annotations

import functools
import math
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# A row's bucket is hash(key) % N; ``_hash_exchange`` sends bucket b to
# partition b % P, so a bucket never splits.  At cluster scale, buckets
# are the partitioning unit; raise N_SHUFFLE_BUCKETS with the cluster size.
N_SHUFFLE_BUCKETS = 256

# ``join``'s default broadcast gate: a right side of at most this many
# rows goes out as one sorted LUT.  4M rows of an int64 (key, value)
# pair is ~64 MB, one object-store copy per node.
BROADCAST_MAX_ROWS = 4_000_000

_HOWS = ("inner", "left", "semi", "anti")
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


def _n_parts() -> int:
    """The most partitions a hash exchange cuts: the cluster's CPUs,
    capped at N_SHUFFLE_BUCKETS."""
    import ray

    return max(1, min(N_SHUFFLE_BUCKETS,
                      int(ray.cluster_resources().get("CPU", 1))))


@functools.cache
def _task(fn):
    """``ray.remote(fn)``, made once per process.  A remote function
    pickles and exports ``fn`` on its first call in a job, so one made
    per call re-exports every time."""
    import ray

    return ray.remote(fn)


def _size_parts(nbytes, cpus: int) -> int:
    """P for an exchange whose inputs carry ``nbytes`` (None: a block of
    unknown size): 1 while they fit in one ``target_min_block_size``,
    else ``cpus``."""
    from ray.data import DataContext

    fits = nbytes is not None \
        and nbytes <= DataContext.get_current().target_min_block_size
    return 1 if fits else cpus


def _cut(cut, kw: dict, block):
    """``cut(table, **kw) -> (table, bucket)`` on one block, or None for
    a 0-row block: its schema is not to be trusted (Ray 2.49's
    ``select_columns`` returns a 0-row block unprojected, and a
    repartition leaves some with no columns)."""
    from ray.data.block import BlockAccessor

    table = BlockAccessor.for_block(block).to_arrow()
    return cut(table, **kw) if table.num_rows else None


def _split(cut, kw: dict, n: int, block) -> tuple:
    """Map task: one block's ``_cut`` rows returned split by
    ``bucket % n`` as n tables (one ``take`` each, so no part pins the
    whole block's buffers); a 0-row block gives n column-less tables."""
    got = _cut(cut, kw, block)
    if got is None:
        return (pa.table({}),) * n
    table, bucket = got
    part = bucket % n
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(n + 1))
    return tuple(table.take(pa.array(order[s:e]))
                 for s, e in zip(bounds[:-1], bounds[1:]))


def _reduce(cell, kw: dict, sides: tuple, *parts) -> pa.Table:
    """Reduce task: one partition's parts, ``sides[i]`` of them from
    input i, concatenated per input and passed to ``cell`` once.  With
    no columned part from the first input there is no schema to give,
    and the partition is a column-less empty table."""
    tables = [_concat(list(parts[e - n:e]))
              for n, e in zip(sides, np.cumsum(sides))]
    return pa.table({}) if tables[0] is None else cell(*tables, **kw)


def _fused(cell, kw: dict, cuts: tuple, sides: tuple, *blocks) -> pa.Table:
    """The exchange at P = 1 as one task: ``sides[i]`` of ``blocks`` are
    input i's, cut by its ``cuts[i]`` = (cut, cut kwargs) as in
    ``_split``, and ``_reduce`` runs the cell over them as one
    partition."""
    owner = [c for c, n in zip(cuts, sides) for _ in range(n)]
    got = [_cut(cut, cut_kw, b) for (cut, cut_kw), b in zip(owner, blocks)]
    return _reduce(cell, kw, sides,
                   *(pa.table({}) if g is None else g[0] for g in got))


def _hash_exchange(op: str, inputs: list, cell, **kw):
    """The hash exchange (see the module docstring): ``inputs`` is a
    list of (Dataset, cut, cut kwargs); each partition calls
    ``cell(table_0, table_1, …, **kw)`` with the partition's rows of
    each input (``_reduce``: None for a later input with no columned
    part).  Returns the materialized Dataset of the P cell outputs."""
    import ray

    cpus, split = _n_parts(), _task(_split)
    held, parts, sides, nbytes = [], [], [], 0
    n = _size_parts(nbytes, cpus)
    for ds, cut, cut_kw in inputs:
        sides.append(0)
        for bundle in ds.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                sides[-1] += 1
                held.append((cut, cut_kw, ref))
                nbytes = None if nbytes is None or meta.size_bytes is None \
                    else nbytes + meta.size_bytes
                if n == 1:
                    n = _size_parts(nbytes, cpus)
                if n > 1:
                    parts.extend(split.options(num_returns=n)
                                 .remote(c, k, n, r) for c, k, r in held)
                    held.clear()
    if os.environ.get("WEBTEXT_TRACE_ROUNDS"):
        print(f"[exchange] op={op} blocks={sum(sides)} bytes={nbytes} "
              f"parts={n}", file=sys.stderr)
    if n == 1:
        outs = [_task(_fused).remote(
            cell, kw, tuple((c, k) for _, c, k in inputs), tuple(sides),
            *(r for _, _, r in held))]
    else:
        outs = [_task(_reduce).remote(cell, kw, tuple(sides),
                                      *(p[i] for p in parts))
                for i in range(n)]
    return ray.data.from_arrow_refs(outs).materialize()


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


def _partial(batch: pa.Table, on: list, aggs: list, pre=None) -> tuple:
    """Map side: one block, mapped by ``pre`` if given, pre-aggregated
    per key, and its buckets."""
    if pre is not None:
        batch = pre(batch)
    for spec in aggs:
        if spec[0] == "sum" and pa.types.is_floating(
                batch.schema.field(spec[1]).type):
            raise TypeError(
                f"exchange.aggregate: sum over floating-point column "
                f"{spec[1]!r} would not match Ray's summation order; "
                f"keep the native groupby sum for it")
    part = _hash_aggregate(batch, on, [
        (_out_name(s), None if s[0] == "count" else s[1], _MAP[s[0]])
        for s in aggs])
    return part, _key_bucket(part, on)


def _combine(group: pa.Table, on: list, aggs: list,
             names=None) -> pa.Table:
    """Reduce side: one partition's partials combined per key, sorted
    by key, its columns renamed to ``names`` if given.  The sort is for
    readers that gather by key: pagerank's local rounds over a
    1.2M-edge graph took 0.42 s against 0.60 s unsorted (three rounds),
    for 0.15 s more in the edge aggregate."""
    cols = [_out_name(s) for s in aggs]
    out = _hash_aggregate(group, on, [
        (col, col, _REDUCE[s[0]]) for col, s in zip(cols, aggs)]) \
        .sort_by([(k, "ascending") for k in on])
    return out if names is None else out.rename_columns(names)


def aggregate(ds, on, *aggs, pre=None, names=None):
    """``ds`` grouped by ``on`` (a column name or a list of them) with
    one output column per spec, in order: ``("sum", col)``,
    ``("min", col)``, ``("max", col)`` or ``("count",)``.  The
    vectorized stand-in for Ray Data's ``groupby`` then
    ``sum/min/max/count`` or ``aggregate(Sum|Min|Max|Count)``; it
    executes ``ds`` at call time (see the module docstring).

    ``pre(table) -> table``, if given, maps each block of ``ds`` before
    it is aggregated, as ``aggregate(ds.map_batches(pre), …)`` would
    but inside the exchange's tasks; it must be block-local (a
    projection, or a per-block combiner of the aggregated columns).
    P follows the bytes of ``ds``'s blocks before ``pre`` runs, so an
    input over one target block that a combiner shrinks under it takes
    P = CPUs split and reduce tasks, where the ``map_batches`` form
    would take one fused task, and the blocks held until one target
    has arrived are the uncombined ones.
    ``names``, if given, renames every output column, keys first, as a
    ``rename_columns(names)`` map over the result would."""
    on = [on] if isinstance(on, str) else list(on)
    aggs = [tuple(a) for a in aggs]
    for spec in aggs:
        if spec[0] not in _MAP or len(spec) != (1 if spec[0] == "count"
                                                else 2):
            raise ValueError(f"exchange.aggregate: bad spec {spec!r}")
    if not on or not aggs:
        raise ValueError("exchange.aggregate needs keys and specs")
    if names is not None and len(names) != len(on) + len(aggs):
        raise ValueError(f"exchange.aggregate: names {names!r} must name "
                         f"the {len(on)} keys and {len(aggs)} specs")
    return _hash_exchange(
        "aggregate", [(ds, _partial, {"on": on, "aggs": aggs, "pre": pre})],
        _combine, on=on, aggs=aggs,
        names=None if names is None else list(names))


def _group_cut(batch: pa.Table, on: list) -> tuple:
    """``group_map``'s map side: one block and its buckets (all 0 with
    no keys: one group)."""
    if not on:
        return batch, np.zeros(batch.num_rows, dtype=np.int64)
    return batch, _key_bucket(batch, on)


def _group_starts(table: pa.Table, on: list) -> np.ndarray:
    """The first row of each run of equal keys in a key-sorted table;
    a null key equals another null."""
    new = np.zeros(table.num_rows, dtype=bool)
    new[:1] = True
    for k in on:
        col = table.column(k)
        a, b = col.slice(1), col.slice(0, max(len(col) - 1, 0))
        differ = pc.not_equal(a, b)
        differ = pc.if_else(pc.is_null(differ),
                            pc.not_equal(pc.is_null(a), pc.is_null(b)),
                            differ)
        new[1:] |= differ.to_numpy(zero_copy_only=False)
    return np.flatnonzero(new)


def _group_cell(table: pa.Table, on: list, fn) -> pa.Table:
    """``group_map``'s reduce side: one partition sorted by ``on`` and
    ``fn`` called once per run of equal keys (with no keys, once over
    the partition if it has rows)."""
    if on:
        table = table.sort_by([(k, "ascending") for k in on])
    bounds = [*_group_starts(table, on), table.num_rows]
    out = _concat([fn(table.slice(s, e - s))
                   for s, e in zip(bounds[:-1], bounds[1:])])
    return pa.table({}) if out is None else out


def group_map(ds, on, cell):
    """``cell(table) -> table`` once per distinct value of the key
    column(s) ``on``, over that key's rows, outputs concatenated: the
    contract of Ray Data's ``groupby`` on ``on`` then ``map_groups``
    with ``batch_format="pyarrow"``, up to row order, on one hash
    exchange instead of Ray Data's sort.  ``on=()`` is one group: the
    cell runs once over every row, in one task, as the combine after a
    per-block partial (a top-k merge, a one-row total) does; with no
    rows it does not run.  A ``cell`` sees its group's rows with every
    column of ``ds``; it executes ``ds`` at call time (see the module
    docstring)."""
    on = [on] if isinstance(on, str) else list(on)
    return _hash_exchange("group_map", [(ds, _group_cut, {"on": on})],
                          _group_cell, on=on, fn=cell)


def _key_codes(table: pa.Table, cols: list, dicts) -> tuple:
    """(int64 code, valid) per row of ``table``'s key columns.  With
    ``dicts`` None the one integer key is its own code; otherwise each
    column's position in its dictionary (``pc.index_in``) is mixed into
    one code.  ``valid`` is False where a key is null or absent from
    its dictionary: such a row matches nothing."""
    if dicts is None:
        col = table.column(cols[0])
        return (col.cast(pa.int64()).fill_null(0)
                .to_numpy(zero_copy_only=False),
                col.is_valid().to_numpy(zero_copy_only=False))
    code = np.zeros(table.num_rows, dtype=np.int64)
    valid = np.ones(table.num_rows, dtype=bool)
    for c, d in zip(cols, dicts):
        idx = pc.index_in(table.column(c).cast(d.type), value_set=d)
        valid &= idx.is_valid().to_numpy(zero_copy_only=False)
        code = code * len(d) + idx.fill_null(0).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
    return code, valid


def _lut(right, right_on: list, attach: dict, unique: bool) -> tuple:
    """The probe side of a join: ``right``'s non-null-key rows sorted by
    key code, as (their attach columns, the sorted codes, the key
    dictionaries).  ``right`` None is an empty side with no schema; a
    0-row ``right`` types its empty attach columns, so every block of a
    join agrees on their types.  With ``unique`` a key held by two rows
    raises."""
    if right is None or not right.num_rows:
        types = {} if right is None else dict(zip(right.schema.names,
                                                  right.schema.types))
        return (pa.table({c: pa.nulls(0, types.get(c, pa.null()))
                          for c in attach}),
                np.empty(0, dtype=np.int64), None)
    dicts = None
    if len(right_on) > 1 or not pa.types.is_integer(
            right.schema.field(right_on[0]).type):
        dicts = [pc.unique(right.column(c)).drop_null() for c in right_on]
        if math.prod(len(d) for d in dicts) >= 1 << 62:
            raise ValueError("exchange.join: composite key space "
                             "overflows int64 codes")
    code, valid = _key_codes(right, right_on, dicts)
    idx = np.flatnonzero(valid)
    order = idx[np.argsort(code[idx], kind="stable")]
    code = code[order]
    if unique and (code[1:] == code[:-1]).any():
        raise ValueError(f"exchange.join: duplicate right key on "
                         f"{right_on}; an attach join is many-to-one")
    return right.select(list(attach)).take(pa.array(order)), code, dicts


def _probe(left: pa.Table, lut: tuple, on: list, how: str,
           attach: dict) -> pa.Table:
    """``left`` joined to a ``_lut`` by ``searchsorted`` on key codes."""
    rows, codes, dicts = lut
    if len(codes) and left.num_rows:
        code, valid = _key_codes(left, on, dicts)
        pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        hit = valid & (codes[pos] == code)
    else:
        pos = np.zeros(left.num_rows, dtype=np.int64)
        hit = np.zeros(left.num_rows, dtype=bool)
    if how in ("semi", "anti"):
        return left.filter(pa.array(hit if how == "semi" else ~hit))
    if how == "inner":
        out, idx = left.filter(pa.array(hit)), pa.array(pos[hit])
    else:
        out, idx = left, pa.array(pos, mask=~hit)
    for src, name in attach.items():
        if name in out.column_names:
            raise ValueError(f"exchange.join: attach column {name!r} "
                             f"is already a left column")
        out = out.append_column(name, rows.column(src).take(idx))
    return out


def _concat(tables: list):
    tables = [t for t in tables if t.num_columns]
    return pa.concat_tables(tables, promote_options="permissive") \
        if tables else None


def _collect(ds):
    """``ds`` on the driver as one table (None when it has no rows).  A
    lazy plan is materialized first: on a lazy Dataset Ray 2.49's
    ``to_arrow_refs`` runs the plan, then runs it again under
    ``limit(1)`` for its schema and cancels that run's in-flight tasks,
    a cancel that can abort the core worker (``task_manager.cc``)."""
    import ray
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    return _concat(ray.get(ds.to_arrow_refs()))


def _join_cut(batch: pa.Table, on: list, cols=None,
              distinct: bool = False) -> tuple:
    """Bucketed route, map side: one block's ``cols`` (default: all)
    and their buckets.  With ``distinct`` (a semi/anti right side,
    whose ``cols`` are its keys) the block ships each key once."""
    if cols is not None:
        batch = batch.select(cols)
        if distinct:
            batch = batch.group_by(cols, use_threads=False).aggregate([])
    return batch, _key_bucket(batch, on)


def _join_cell(left: pa.Table, right, on: list, right_on: list,
               how: str, attach: dict) -> pa.Table:
    """Bucketed route, reduce side: one partition's left rows joined to
    its right rows by the broadcast route's probe."""
    return _probe(left, _lut(right, right_on, attach,
                             how in ("inner", "left")), on, how, attach)


def join(left, right, on, *, how: str = "inner", attach=(),
         right_on=None, right_rows: int | None = None,
         broadcast_max_rows: int | None = None):
    """``left`` joined to ``right`` on key column(s) ``on`` (named
    ``right_on`` on the right, default the same names).

    ``how``: ``inner`` and ``left`` add the ``attach`` columns of the
    matching right row (a sequence of right column names, or a dict of
    right name → output name); ``left`` keeps unmatched rows with nulls
    there.  ``semi`` / ``anti`` keep the left rows with / without a
    match and attach nothing.

    ``right_rows`` is an upper bound on the right side's rows that costs
    no execution, or None when there is none; at or under
    ``broadcast_max_rows`` (default: ``BROADCAST_MAX_ROWS``, read at
    call time) the join takes the broadcast route, else the bucketed
    one, which executes both sides at call time (see the module
    docstring).  With
    ``WEBTEXT_TRACE_ROUNDS`` set it prints one
    ``[join] route=broadcast|bucketed rows=N gate=G`` line to stderr."""
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    attach = dict(attach) if isinstance(attach, dict) \
        else {c: c for c in attach}
    if how not in _HOWS:
        raise ValueError(f"exchange.join: how={how!r} not in {_HOWS}")
    if not on or len(on) != len(right_on):
        raise ValueError("exchange.join: on and right_on must name the "
                         "same number of key columns")
    if attach and how in ("semi", "anti"):
        raise ValueError(f"exchange.join: a {how} join attaches nothing")
    if broadcast_max_rows is None:
        broadcast_max_rows = BROADCAST_MAX_ROWS
    broadcast = right_rows is not None and right_rows <= broadcast_max_rows
    if os.environ.get("WEBTEXT_TRACE_ROUNDS"):
        print(f"[join] route={'broadcast' if broadcast else 'bucketed'} "
              f"rows={right_rows} gate={broadcast_max_rows}",
              file=sys.stderr)
    unique = how in ("inner", "left")
    if broadcast:
        import ray

        ref = ray.put(_lut(_collect(right), right_on, attach, unique))

        def probe(batch: pa.Table, *, _ref=ref) -> pa.Table:
            if not batch.num_columns:
                return batch
            return _probe(batch, ray.get(_ref), on, how, attach)

        return left.map_batches(probe, batch_format="pyarrow",
                                zero_copy_batch=True)
    return _hash_exchange(
        "join",
        [(left, _join_cut, {"on": on}),
         (right, _join_cut,
          {"on": right_on, "distinct": not unique,
           "cols": list(dict.fromkeys(right_on + list(attach)))})],
        _join_cell, on=on, right_on=right_on, how=how, attach=attach)
