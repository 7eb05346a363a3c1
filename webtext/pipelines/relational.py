"""Relational-skeleton operators over plain tables — the Ray Data
expression of the reference's list-processing ops (SURVEY §2.3/§2.4):
ordered dedup (U9), per-group top-k (U5), union of engine outputs (A3),
order restoration (A1), small aggregates (A2), failure filtering
(E12/E13's relational shape).

Every function takes/returns a ``ray.data.Dataset``; column names match
the DuckDB oracles in ``__ray_entry__`` exactly.  Keyed aggregates go
through ``exchange.aggregate`` (Arrow hash aggregates around one
bucketed exchange), not Ray Data's row-walking native groupby.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# module scope: worker code is shipped by value and cannot lazy-import
# webtext
from ..exchange import _collect, _ibucket, _sbucket, aggregate, join


def topk_per_group(ds, group_col: str = "lang", order_col: str = "n_chars",
                   k: int = 3):
    """Top-k rows per group by (order_col desc, doc_id asc) — U5's
    per-related-search ``limit(3)`` as groupby().map_groups."""

    def head(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group, sort_keys=[(order_col, "descending"),
                              ("doc_id", "ascending")])
        return group.take(idx[:k]).select(["doc_id", group_col, order_col])

    return ds.select_columns(["doc_id", group_col, order_col]) \
             .groupby(group_col).map_groups(head, batch_format="pyarrow")


def ordered_dedup(ds, key_col: str = "source"):
    """First-occurrence-wins dedup (U9): min doc_id per key."""
    return aggregate(ds.select_columns([key_col, "doc_id"]), key_col,
                     ("min", "doc_id"), names=[key_col, "doc_id"])


def union_sources(ds_a, ds_b):
    """A3: append-union, deliberately NOT deduped (integrated.py:45)."""
    return ds_a.union(ds_b)


def sort_limit(ds, n: int = 100):
    """A1 order restoration: deterministic total order + limit."""
    return ds.select_columns(["doc_id", "n_chars"]) \
             .sort(["n_chars", "doc_id"], descending=[True, False]) \
             .limit(n)


def group_counts(ds, group_col: str = "lang"):
    """A2-style small aggregate with the combiner pattern: per-batch
    partial counts inside map_batches, then a tiny groupby-sum shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        counts = batch.select([group_col]).group_by(group_col) \
                      .aggregate([(group_col, "count")])
        return counts.rename_columns([group_col, "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return aggregate(partials, group_col, ("sum", "n"),
                     names=[group_col, "n"])


def flatten_spans(ds):
    """Explode (doc_id, spans, status) rows into one row per span —
    (doc_id, offset, kind, text, media_ref, status) — as a vectorized
    map_batches: list lengths drive a repeat of the parent columns and
    the struct children are taken flat, no Python per-row loop."""
    import numpy as np

    def explode(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths = pc.list_value_length(spans) \
            .fill_null(0).to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(len(lengths)), lengths)
        parent_idx = pa.array(parent, pa.int64())
        flat = spans.flatten()          # struct array of all spans
        return pa.Table.from_arrays(
            [batch.column("doc_id").take(parent_idx),
             flat.field("offset"),
             flat.field("kind"),
             flat.field("text"),
             flat.field("media_ref"),
             batch.column("status").take(parent_idx)],
            names=["doc_id", "offset", "kind", "text", "media_ref",
                   "status"])

    return ds.map_batches(explode, batch_format="pyarrow",
                          zero_copy_batch=True)


def failure_filter(ds, pattern: str = "slow"):
    """E12's shape: vectorized substring predicate, keep non-matching
    rows.  (The real browser-error patterns live in oracle.rules; this
    relational variant filters the plain documents table.)"""

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.invert(pc.match_substring(batch.column("text"), pattern))
        return batch.filter(mask).select(["doc_id", "n_chars"])

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def semi_join(left, right, left_key: str, right_key: str, *,
              anti: bool = False):
    """Distributed semi join (``anti=False``: left rows whose key exists
    in right) / anti join (``anti=True``: left rows whose key does not),
    on ``exchange.join``'s bucketed route: the right side ships per-block
    DISTINCT keys (never right rows), and each bucket's membership test
    is one vectorized probe.  Left rows pass through with their full
    schema; null keys never match."""
    return join(left, right, left_key, right_on=right_key,
                how="anti" if anti else "semi")


def group_quantiles(ds, group_col: str = "event_type",
                    value_col: str = "value",
                    qs: tuple[float, ...] = (0.5, 0.95)):
    """Exact discrete quantiles per group: the value at rank
    ⌈q·n⌉−1 of the group's sorted values — DuckDB's ``quantile_disc``
    convention, so the SQL oracle matches float-for-float (both engines
    select an existing element; no interpolation ever happens).

    Per-batch combiner is impossible for exact quantiles, so the
    shuffle ships (group, value) pairs — column-pruned at the read.
    Groups are hash-bucketed (`dedup._sbucket`) so high-cardinality
    group keys never create per-key Python groups; one np.lexsort per
    bucket ranks every group's values."""
    import numpy as np

    def add_bucket(batch: pa.Table) -> pa.Table:
        keys = batch.column(group_col).to_pylist()
        return batch.append_column("bucket", pa.array(_sbucket(keys)))

    def quantiles(group: pa.Table) -> pa.Table:
        keys = np.asarray(group.column(group_col).to_pylist(),
                          dtype=object)
        vals = group.column(value_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, keys))
        keys, vals = keys[order], vals[order]
        uniq, starts = np.unique(keys, return_index=True)
        ends = np.append(starts[1:], len(keys))
        cols: dict[str, list] = {group_col: list(uniq)}
        for q in qs:
            n = ends - starts
            ranks = starts + np.maximum(
                0, np.ceil(q * n).astype(np.int64) - 1)
            cols[f"q{int(q * 100)}"] = vals[ranks].tolist()
        out = pa.Table.from_pydict(cols)
        return out.set_column(
            0, group_col, out.column(group_col).cast(pa.string()))

    return ds.select_columns([group_col, value_col]) \
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(quantiles, batch_format="pyarrow")


def outlier_filter(ds, group_col: str = "event_type",
                   value_col: str = "value", q: float = 0.95,
                   keep_cols: tuple[str, ...] = ("event_id",)):
    """Rows whose value exceeds their group's exact q-quantile — the
    heavy-tail inspection pass (fraud spikes, outlier document lengths).

    Two-phase broadcast composition: group_quantiles reduces the corpus
    to one row per group (driver-materializes that constant-size table
    only), the thresholds broadcast via ray.put, and the filter is a
    single vectorized map — the corpus itself never shuffles twice."""
    import numpy as np
    import ray

    qcol = f"q{int(q * 100)}"
    thr = {r[group_col]: r[qcol]
           for r in group_quantiles(ds, group_col, value_col,
                                    (q,)).take_all()}
    ref = ray.put(thr)
    out_cols = list(keep_cols) + [group_col, value_col]

    def flt(batch: pa.Table, *, _ref=ref) -> pa.Table:
        t = _ref if isinstance(_ref, dict) else ray.get(_ref)
        # dictionary-encode the group column and gather thresholds by
        # code through a dense LUT — the dict lookup runs once per
        # DISTINCT group in the batch, never once per row; a trailing
        # +inf slot catches null groups (fill_null(-1) indexes it), so
        # unknown/null groups drop exactly like the per-row t.get(...)
        enc = pc.dictionary_encode(
            batch.column(group_col)).combine_chunks()
        lut = np.append(
            np.array([t.get(k, np.inf)
                      for k in enc.dictionary.to_pylist()],
                     dtype=np.float64), np.inf)
        codes = enc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        vals = batch.column(value_col).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(vals > lut[codes])).select(out_cols)

    return ds.select_columns(out_cols).map_batches(
        flt, batch_format="pyarrow", zero_copy_batch=True)


def winsorize(ds, group_col: str = "event_type",
              value_col: str = "value", lo_q: float = 0.05,
              hi_q: float = 0.95,
              keep_cols: tuple[str, ...] = ("event_id",)):
    """Per-group winsorization: clamp each row's value into its group's
    exact [lo_q, hi_q] discrete-quantile band — the tail-taming
    normalization an ML feature pipeline applies before scaling.
    Output: keep_cols + (group, w_value).

    Same broadcast composition as outlier_filter: group_quantiles
    reduces the corpus to one (lo, hi) row per group, the thresholds
    ship once via ray.put, and the clamp is a vectorized
    dictionary-encode + dense-LUT gather + np.clip per batch.  Both
    clamp bounds are EXISTING elements (quantile_disc convention) and
    unclamped values pass through untouched, so every output value is
    float-exact against the SQL oracle's LEAST/GREATEST."""
    import numpy as np
    import ray

    lo_col, hi_col = f"q{int(lo_q * 100)}", f"q{int(hi_q * 100)}"
    thr = {r[group_col]: (r[lo_col], r[hi_col])
           for r in group_quantiles(ds, group_col, value_col,
                                    (lo_q, hi_q)).take_all()}
    ref = ray.put(thr)
    out_cols = list(keep_cols) + [group_col, value_col]

    def clamp(batch: pa.Table, *, _ref=ref) -> pa.Table:
        t = _ref if isinstance(_ref, dict) else ray.get(_ref)
        enc = pc.dictionary_encode(
            batch.column(group_col)).combine_chunks()
        pairs = [t.get(k, (-np.inf, np.inf))
                 for k in enc.dictionary.to_pylist()]
        lo_lut = np.append(np.array([p[0] for p in pairs],
                                    dtype=np.float64), -np.inf)
        hi_lut = np.append(np.array([p[1] for p in pairs],
                                    dtype=np.float64), np.inf)
        codes = enc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        vals = batch.column(value_col).to_numpy(zero_copy_only=False)
        w = np.clip(vals, lo_lut[codes], hi_lut[codes])
        out = batch.select(list(keep_cols) + [group_col])
        return out.append_column("w_value", pa.array(w))

    return ds.select_columns(out_cols).map_batches(
        clamp, batch_format="pyarrow", zero_copy_batch=True)


def _skyline_mask(cents: np.ndarray, date: np.ndarray) -> np.ndarray:
    """Boolean skyline membership for (maximize cents, minimize date):
    a row survives iff no other row has cents ≥ AND date ≤ with one
    strict.  One lexsort (cents desc, date asc) + per-price-group min +
    prefix-min over strictly-higher price groups — fully vectorized."""
    n = len(cents)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((date, -cents))
    c_s, d_s = cents[order], date[order]
    new_grp = np.concatenate([[True], c_s[1:] != c_s[:-1]])
    grp_id = np.cumsum(new_grp) - 1
    grp_min = d_s[np.flatnonzero(new_grp)]      # date asc ⇒ group min
    # min date among all STRICTLY higher price groups
    prev_min = np.concatenate(
        [[np.iinfo(np.int64).max],
         np.minimum.accumulate(grp_min)[:-1]])
    keep_s = (d_s == grp_min[grp_id]) & (d_s < prev_min[grp_id])
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_s
    return keep


def pareto_front(ds, key_col: str = "o_orderkey",
                 max_col: str = "o_totalprice",
                 min_col: str = "o_orderdate"):
    """(key, price_cents, odate): the Pareto skyline — rows not
    dominated on (maximize ``max_col``, minimize ``min_col``); a row is
    dominated when another row is ≥ on the max axis AND ≤ on the min
    axis with at least one strict.  The classic multi-criteria
    shortlist ("earliest high-value orders"); duplicates of a skyline
    point all survive (no strict part between equals).

    Distributed as the standard skyline combiner: dominance is
    transitive, so each batch keeps only its LOCAL skyline (one lexsort
    + prefix-min, no pairwise loop), and the surviving candidates — a
    skyline is O(polylog n) points for non-adversarial data — collapse
    into one block where the same kernel runs once more.  The corpus
    never shuffles; only local winners move.  Values compare in integer
    cents / epoch-micros, so tie semantics match the SQL NOT EXISTS
    oracle exactly."""

    def local(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column(max_col)
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        date = batch.column(min_col).cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = _skyline_mask(cents, date)
        kmask = pa.array(keep)
        return pa.Table.from_arrays(
            [batch.column(key_col).cast(pa.int64()).filter(kmask),
             pa.array(cents[keep]),
             batch.column(min_col).filter(kmask)],
            names=[key_col, "price_cents", min_col])

    def final(batch: pa.Table) -> pa.Table:
        cents = batch.column("price_cents") \
            .to_numpy(zero_copy_only=False)
        date = batch.column(min_col).cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = pa.array(_skyline_mask(cents, date))
        return batch.filter(keep)

    return ds.select_columns([key_col, max_col, min_col]) \
        .map_batches(local, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow",
                     zero_copy_batch=True)


def mad_by_group(ds, group_col: str = "event_type",
                 value_col: str = "value"):
    """(group, mad_cents): median absolute deviation per group in
    integer cents — the robust spread statistic (outlier-insensitive
    counterpart to zscore's sd), computed as the exact discrete median
    of |cents − median(cents)|.

    Two exact-quantile passes composed through one broadcast: the
    per-group median reduces to a constant-size table (group_quantiles,
    one bucketed shuffle of (group, cents) pairs), ships via ray.put,
    and the deviation pass re-streams the corpus through a vectorized
    dictionary-encode + dense-LUT subtract before the second quantile
    shuffle.  All integers end-to-end (quantile_disc convention on both
    passes), so the SQL oracle matches exactly."""
    import numpy as np
    import ray

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column(value_col)
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [batch.column(group_col), pa.array(cents)],
            names=[group_col, "cents"])

    c_ds = ds.select_columns([group_col, value_col]).map_batches(
        to_cents, batch_format="pyarrow", zero_copy_batch=True)
    med = {r[group_col]: int(r["q50"])
           for r in group_quantiles(c_ds, group_col, "cents",
                                    (0.5,)).take_all()}
    ref = ray.put(med)

    def dev(batch: pa.Table, *, _ref=ref) -> pa.Table:
        t = _ref if isinstance(_ref, dict) else ray.get(_ref)
        enc = pc.dictionary_encode(
            batch.column(group_col)).combine_chunks()
        lut = np.array([t.get(k, 0)
                        for k in enc.dictionary.to_pylist()],
                       dtype=np.int64)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [batch.column(group_col),
             pa.array(np.abs(cents - lut[codes]))],
            names=[group_col, "dev"])

    d_ds = c_ds.map_batches(dev, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = group_quantiles(d_ds, group_col, "dev", (0.5,))
    return out.map_batches(
        lambda b: b.rename_columns([group_col, "mad_cents"]),
        batch_format="pyarrow", zero_copy_batch=True)


def string_intersect(a_ds, b_ds, col: str = "token"):
    """INTERSECT over a string column: the distinct values present in
    BOTH datasets — completes the set-op family (union_sources =
    UNION ALL, incremental_dedup = EXCEPT).

    Each side emits its batch-DISTINCT (value, side-bit) pairs — the
    combiner bounds the shuffle to distinct values per block — and one
    min/max aggregate by value over the side bit finds values seen
    from both sides (min==0 and max==1).  No per-value Python, no
    broadcast; either side may be corpus-sized."""

    def emit(side: int):
        def f(batch: pa.Table) -> pa.Table:
            vals = pc.unique(batch.column(col))
            return pa.Table.from_arrays(
                [vals.cast(pa.string()),
                 pa.array(np.full(len(vals), side, dtype=np.int64))],
                names=[col, "side"])
        return f

    u = a_ds.select_columns([col]).map_batches(
        emit(0), batch_format="pyarrow", zero_copy_batch=True).union(
        b_ds.select_columns([col]).map_batches(
            emit(1), batch_format="pyarrow", zero_copy_batch=True))
    agg = aggregate(u, col, ("min", "side"), ("max", "side"))

    def both(batch: pa.Table) -> pa.Table:
        lo = batch.column("min(side)").to_numpy(zero_copy_only=False)
        hi = batch.column("max(side)").to_numpy(zero_copy_only=False)
        keep = (lo == 0) & (hi == 1)
        return pa.Table.from_arrays(
            [batch.column(col).filter(pa.array(keep))], names=[col])

    return agg.map_batches(both, batch_format="pyarrow",
                           zero_copy_batch=True)


def tokens_of(ds):
    """(token,) rows: batch-distinct whitespace tokens of the text
    column — the tokenizing feeder for string_intersect."""

    def f(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        flat = pc.list_flatten(toks)
        return pa.Table.from_arrays([pc.unique(flat)], names=["token"])

    return ds.select_columns(["text"]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------
# Global exact quantiles without a sort (histogram refinement)
# --------------------------------------------------------------------------

GQ_BINS = 4096
GQ_COLLECT = 65536


def global_quantiles(ds, value_col: str = "value",
                     qs: tuple[float, ...] = (0.25, 0.5, 0.9, 0.99),
                     max_rounds: int = 8,
                     ranks: tuple[int, ...] | None = None):
    """Exact corpus-wide ``quantile_disc`` values with ZERO all-to-all:
    iterative histogram refinement.

    Sorting a corpus-scale column to read four ranks is the wrong plan
    at 100 TB (a full sort exchange for O(1) outputs).  Instead each
    round is one column-pruned combiner pass: every block bincounts its
    values against the shared 4096-bin grid of each target's candidate
    range, the driver merges the tiny per-range count arrays (bincount
    sums are order/blocking-invariant), and each target's range narrows
    ~4096× per round.  When a target's candidate range holds ≤ 65536
    values, one final filtered pass collects just those values and the
    exact rank is read off driver-side.  Rank convention is DuckDB's
    ``quantile_disc`` (⌈q·n⌉−1, an existing element — float-exact vs
    the oracle, no interpolation).

    Returns a pa.Table (q_permille, value) — one row per requested q.
    The input lineage is consumed once per round (2-3 rounds
    typically); pass a source-backed dataset so each pass is a
    column-pruned re-read, not a recompute.

    With ``ranks`` set (0-based global ranks in the ascending order),
    quantile fractions are bypassed and the function returns the list
    of exact ranked values instead of a table — the primitive
    perplexity-bucket thresholds and other "element at rank r" reads
    build on, with the same zero-all-to-all refinement.
    """
    import ray

    col_ds = ds.select_columns([value_col])

    def stats(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)] if v.dtype.kind == "f" else v
        if len(v) == 0:
            return pa.Table.from_pydict(
                {"n": pa.array([0], pa.int64()),
                 "lo": pa.array([np.inf]), "hi": pa.array([-np.inf])})
        return pa.Table.from_pydict(
            {"n": pa.array([len(v)], pa.int64()),
             "lo": pa.array([float(v.min())]),
             "hi": pa.array([float(v.max())])})

    parts = col_ds.map_batches(stats, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
    n = int(sum(r["n"] for r in parts))
    if n == 0:
        if ranks is not None:
            return [None] * len(ranks)
        return pa.Table.from_pydict(
            {"q_permille": pa.array([], pa.int64()),
             "value": pa.array([], pa.float64())})
    glo = min(r["lo"] for r in parts)
    ghi = max(r["hi"] for r in parts)

    # per-target state: candidate range [lo, hi] (inclusive), the
    # global rank to select, and how many values lie strictly below lo
    if ranks is not None:
        targets = [{"q": 0.0, "rank": min(max(int(r), 0), n - 1),
                    "lo": glo, "hi": ghi, "below": 0, "in_range": n,
                    "value": None} for r in ranks]
    else:
        targets = [{"q": q, "rank": max(0, int(np.ceil(q * n)) - 1),
                    "lo": glo, "hi": ghi, "below": 0, "in_range": n,
                    "value": None} for q in qs]

    for _ in range(max_rounds):
        active = [t for t in targets
                  if t["value"] is None and t["in_range"] > GQ_COLLECT
                  and t["lo"] < t["hi"]]
        for t in targets:
            if t["value"] is None and t["lo"] >= t["hi"]:
                t["value"] = t["lo"]      # range collapsed: all equal
        if not active:
            break
        ranges = [(t["lo"], t["hi"]) for t in active]
        rref = ray.put(ranges)

        def hist(batch: pa.Table) -> pa.Table:
            rs = ray.get(rref)
            v = batch.column(value_col).to_numpy(zero_copy_only=False)
            rows = []
            for i, (lo, hi) in enumerate(rs):
                edges = np.linspace(lo, hi, GQ_BINS + 1)
                m = v[(v >= lo) & (v <= hi)]
                idx = np.clip(np.searchsorted(edges, m, side="right") - 1,
                              0, GQ_BINS - 1)
                rows.append(np.bincount(idx, minlength=GQ_BINS)
                            .astype(np.int64))
            return pa.Table.from_pydict(
                {"range_id": pa.array(range(len(rs)), pa.int64()),
                 "counts": pa.array([r.tolist() for r in rows],
                                    pa.list_(pa.int64()))})

        parts = col_ds.map_batches(hist, batch_format="pyarrow",
                                   zero_copy_batch=True).take_all()
        merged = np.zeros((len(active), GQ_BINS), dtype=np.int64)
        for r in parts:
            merged[r["range_id"]] += np.asarray(r["counts"],
                                                dtype=np.int64)
        stuck = True
        for t, counts in zip(active, merged):
            edges = np.linspace(t["lo"], t["hi"], GQ_BINS + 1)
            cum = np.cumsum(counts)
            local_rank = t["rank"] - t["below"]
            b = int(np.searchsorted(cum, local_rank + 1))
            new_in = int(counts[b])
            if new_in < t["in_range"]:
                stuck = False
            t["below"] += int(cum[b - 1]) if b > 0 else 0
            t["in_range"] = new_in
            t["lo"] = float(edges[b])
            # last bin is closed on the right; others half-open, but an
            # inclusive hi only widens the final exact collect
            t["hi"] = float(edges[b + 1])
        if stuck:
            break                          # float-dense bin: collect it

    pending = [t for t in targets if t["value"] is None]
    if pending:
        ranges = [(t["lo"], t["hi"]) for t in pending]
        rref = ray.put(ranges)

        def collect(batch: pa.Table) -> pa.Table:
            # (range_id, value, count) per-batch uniques: even a value
            # repeated millions of times ships as one row per block
            rs = ray.get(rref)
            v = batch.column(value_col).to_numpy(zero_copy_only=False)
            ids, vals, cnts = [], [], []
            for i, (lo, hi) in enumerate(rs):
                u, c = np.unique(v[(v >= lo) & (v <= hi)],
                                 return_counts=True)
                ids.append(np.full(len(u), i, dtype=np.int64))
                vals.append(u.astype(np.float64))
                cnts.append(c.astype(np.int64))
            return pa.Table.from_pydict(
                {"range_id": pa.array(
                    np.concatenate(ids) if ids
                    else np.array([], dtype=np.int64)),
                 "v": pa.array(np.concatenate(vals) if vals
                               else np.array([], dtype=np.float64)),
                 "c": pa.array(np.concatenate(cnts) if cnts
                               else np.array([], dtype=np.int64))})

        rows = col_ds.map_batches(collect, batch_format="pyarrow",
                                  zero_copy_batch=True).take_all()
        by_range: dict[int, dict[float, int]] = {}
        for r in rows:
            d = by_range.setdefault(int(r["range_id"]), {})
            d[r["v"]] = d.get(r["v"], 0) + int(r["c"])
        for i, t in enumerate(pending):
            d = by_range.get(i, {})
            vals = np.array(sorted(d), dtype=np.float64)
            cum = np.cumsum([d[x] for x in vals])
            j = int(np.searchsorted(cum, t["rank"] - t["below"] + 1))
            t["value"] = float(vals[j])

    if ranks is not None:
        return [t["value"] for t in targets]
    return pa.Table.from_pydict(
        {"q_permille": pa.array([int(round(t["q"] * 1000))
                                 for t in targets], pa.int64()),
         "value": pa.array([t["value"] for t in targets], pa.float64())})


# --------------------------------------------------------------------------
# Per-source quota sampling (crawl-cap curation)
# --------------------------------------------------------------------------

def _quota_table(t: pa.Table, group_col: str, k: int) -> pa.Table:
    """Keep the k smallest doc_ids per group within one table —
    sort + run-length positions, no Python groups."""
    if t.num_rows == 0:
        return t
    idx = pc.sort_indices(t, sort_keys=[(group_col, "ascending"),
                                        ("doc_id", "ascending")])
    t = t.take(idx)
    codes = t.column(group_col).combine_chunks() \
        .dictionary_encode().indices.to_numpy(zero_copy_only=False)
    n = len(codes)
    starts = np.ones(n, dtype=bool)
    starts[1:] = codes[1:] != codes[:-1]
    run_id = np.cumsum(starts) - 1
    pos = np.arange(n) - np.flatnonzero(starts)[run_id]
    return t.filter(pa.array(pos < k))


def source_quota_sample(ds, group_col: str = "source", k: int = 10,
                        n_buckets: int = 64):
    """(doc_id, source): cap every source/domain at its k
    lowest-doc_id documents — the per-domain crawl quota that keeps a
    hot site from dominating the corpus (the same skew concern the
    extraction pipeline's salted rebalance addresses, applied at the
    curation layer).  Deterministic (doc_id order, no RNG) so the
    row_number-based SQL oracle is exact.

    Same shape as links.top_links_per_domain: per-block partial quota
    bounds shipped rows to k per (block, source); the shuffle groups by
    hash(source) % n_buckets so a heavy-tailed domain distribution
    cannot form one giant Python group; the in-bucket final pass is one
    vectorized sort + run-length filter."""
    cols = ds.select_columns(["doc_id", group_col])

    def keyed(batch: pa.Table) -> pa.Table:
        pruned = _quota_table(batch, group_col, k)
        src2 = pruned.column(group_col).to_numpy(zero_copy_only=False)
        return pruned.append_column(
            "bucket", pa.array(_sbucket(src2, n_buckets)))

    def final(group: pa.Table) -> pa.Table:
        return _quota_table(group, group_col, k) \
            .drop_columns(["bucket"])

    return cols.map_batches(keyed, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .groupby("bucket").map_groups(final, batch_format="pyarrow")


def _budget_prune(t: pa.Table, group_col: str, budget: int,
                  inclusive: bool) -> pa.Table:
    """Vectorized per-group budget prefix over (n_tokens desc, doc_id
    asc) order — one lexsort + one cumsum across every group at once.

    inclusive=True (the FINAL rule): keep rows whose inclusive cumsum
    ≤ budget.  inclusive=False (the block COMBINER): keep rows whose
    EXCLUSIVE prefix < budget — this keeps each block's first
    overflowing row too, which is what makes the combiner exact: a
    pruned row's block retains ≥ budget worth of higher-priority mass,
    so every truly-over-budget candidate still sees ≥ budget ahead of
    it in the final pass (pinned by the combiner-invariance test)."""
    import numpy as np

    src = t.column(group_col).to_numpy(zero_copy_only=False)
    ntok = t.column("n_tokens").to_numpy(zero_copy_only=False)
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -ntok, src))
    s, n = src[order], ntok[order]
    cs = np.cumsum(n)
    new = np.concatenate([[True], s[1:] != s[:-1]])
    starts = np.flatnonzero(new)
    base = np.concatenate([[0], cs[:-1]])[starts]
    rep = np.repeat(base, np.diff(np.append(starts, len(s))))
    gcum = cs - rep
    keep_sorted = (gcum <= budget) if inclusive else (gcum - n < budget)
    keep = np.empty(len(s), dtype=bool)
    keep[order] = keep_sorted
    return t.filter(pa.array(keep))


def token_budget_sample(ds, budget: int = 500,
                        group_col: str = "source",
                        n_buckets: int = 64):
    """(doc_id, source, n_tokens): per-source TOKEN-budgeted selection —
    each source keeps its docs in (n_tokens desc, doc_id) order until
    the inclusive token cumsum exceeds ``budget``.  This is the mixture
    builder's primitive: cap every domain's token contribution, biggest
    documents first, deterministically (no RNG), so the window-cumsum
    SQL oracle is exact.

    Scale shape: blocks pre-prune with the EXCLUSIVE-prefix rule
    (see _budget_prune — keeping each block's first overflow row is
    what makes the combiner exact), so the shuffle ships at most
    budget-worth-plus-one rows per (block, source); the exchange
    groups by hash(source) % n_buckets (heavy-tailed domains never
    form one giant Python group) and the in-bucket final pass is the
    same single lexsort+cumsum with the inclusive ≤ budget rule."""
    cols = ds.select_columns(["doc_id", group_col, "text"])

    def keyed(batch: pa.Table) -> pa.Table:
        import numpy as np

        n_tok = pc.list_value_length(
            pc.split_pattern(batch.column("text"), " ")).cast(pa.int64())
        t = pa.Table.from_arrays(
            [batch.column("doc_id"), batch.column(group_col), n_tok],
            names=["doc_id", group_col, "n_tokens"])
        pruned = _budget_prune(t, group_col, budget,
                               inclusive=False)
        src2 = pruned.column(group_col).to_numpy(zero_copy_only=False)
        return pruned.append_column(
            "bucket", pa.array(_sbucket(src2, n_buckets)))

    def final(group: pa.Table) -> pa.Table:
        return _budget_prune(group, group_col, budget,
                             inclusive=True) \
            .drop_columns(["bucket"])

    return cols.map_batches(keyed, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .groupby("bucket").map_groups(final, batch_format="pyarrow")


def robust_outliers(ds, group_col: str = "event_type",
                    value_col: str = "value",
                    id_col: str = "event_id", k: int = 3):
    """(event_id, group, cents, dev_cents): rows whose value deviates
    from the per-group MEDIAN by more than ``k``× the group's MAD — the
    robust outlier screen (median/MAD survive the very outliers a
    mean/sd zscore absorbs; the standard quality-filter companion to
    `zscore_events`).  All-integer comparison (|cents−med| > k·mad), so
    the flag is exact on both engines — no sd, no divide.

    Composition of two constant-size broadcasts: per-group median
    (group_quantiles, one (group, cents) shuffle), then per-group MAD
    (same machinery over the deviations), then ONE final streaming
    filter pass with both constant-size dicts shipped via ray.put and
    applied through dictionary-encode + dense-LUT gathers — the corpus
    is never grouped per row, and nothing sf-proportional broadcasts."""
    import ray

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column(value_col)
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [batch.column(id_col).cast(pa.int64()),
             batch.column(group_col), pa.array(cents)],
            names=[id_col, group_col, "cents"])

    c_ds = ds.select_columns([id_col, group_col, value_col]) \
        .map_batches(to_cents, batch_format="pyarrow",
                     zero_copy_batch=True)
    med = {r[group_col]: int(r["q50"])
           for r in group_quantiles(c_ds, group_col, "cents",
                                    (0.5,)).take_all()}
    med_ref = ray.put(med)

    def dev(batch: pa.Table, *, _ref=med_ref) -> pa.Table:
        t = _ref if isinstance(_ref, dict) else ray.get(_ref)
        enc = pc.dictionary_encode(
            batch.column(group_col)).combine_chunks()
        lut = np.array([t.get(g, 0)
                        for g in enc.dictionary.to_pylist()],
                       dtype=np.int64)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "dev_cents", pa.array(np.abs(cents - lut[codes])))

    d_ds = c_ds.map_batches(dev, batch_format="pyarrow",
                            zero_copy_batch=True)
    mad = {r[group_col]: int(r["q50"])
           for r in group_quantiles(d_ds, group_col, "dev_cents",
                                    (0.5,)).take_all()}
    mad_ref = ray.put(mad)

    def flag(batch: pa.Table, *, _ref=mad_ref) -> pa.Table:
        t = _ref if isinstance(_ref, dict) else ray.get(_ref)
        enc = pc.dictionary_encode(
            batch.column(group_col)).combine_chunks()
        lut = np.array([t.get(g, 0)
                        for g in enc.dictionary.to_pylist()],
                       dtype=np.int64)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        devs = batch.column("dev_cents") \
            .to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(devs > k * lut[codes]))

    return d_ds.map_batches(flag, batch_format="pyarrow",
                            zero_copy_batch=True)


def id_gaps(ds, col: str = "l_orderkey"):
    """(gap_start, gap_end): every maximal run of integers missing
    from ``col`` between its observed min and max — the sequence-
    completeness audit (dropped crawl batches, lost shards, unassigned
    id ranges) run before trusting "we processed everything".

    Gap detection needs VALUE adjacency, which hash bucketing destroys,
    so this is the one family that uses Ray's range-partitioning sort
    on purpose: blocks pre-distinct (combiner), one `Dataset.sort`
    range-partitions the distinct keys, each sorted block emits its
    in-block gaps plus ONE (min, max) boundary marker, and the
    constant-size marker set (#blocks rows) is stitched in a final
    single group for the cross-block gaps.  The sort's exchange
    carries only DISTINCT ids; the stitch is metadata-sized."""

    def distinct(batch: pa.Table) -> pa.Table:
        v = np.unique(batch.column(col).cast(pa.int64())
                      .to_numpy(zero_copy_only=False))
        return pa.Table.from_arrays([pa.array(v)], names=["v"])

    def block_pass(batch: pa.Table) -> pa.Table:
        v = np.unique(batch.column("v").to_numpy(zero_copy_only=False))
        if not len(v):
            return pa.Table.from_arrays(
                [pa.array([], pa.int8()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["is_marker", "gap_start", "gap_end"])
        g = np.nonzero(v[1:] > v[:-1] + 1)[0]
        return pa.Table.from_arrays(
            [pa.array(np.append(np.zeros(len(g), dtype=np.int8), 1)),
             pa.array(np.append(v[g] + 1, v[0])),
             pa.array(np.append(v[g + 1] - 1, v[-1]))],
            names=["is_marker", "gap_start", "gap_end"])

    def finish(group: pa.Table) -> pa.Table:
        if not group.num_rows:
            return group.select(["gap_start", "gap_end"])
        if int(group.column("is_marker")[0].as_py()) == 0:
            return group.select(["gap_start", "gap_end"])
        # markers: (block_min, block_max) rows, constant count — stitch
        lo = group.column("gap_start").to_numpy(zero_copy_only=False)
        hi = group.column("gap_end").to_numpy(zero_copy_only=False)
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        run_max = np.maximum.accumulate(hi)
        g = np.nonzero(lo[1:] > run_max[:-1] + 1)[0]
        return pa.Table.from_arrays(
            [pa.array(run_max[g] + 1), pa.array(lo[g + 1] - 1)],
            names=["gap_start", "gap_end"])

    return ds.select_columns([col]) \
        .map_batches(distinct, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .sort("v") \
        .map_batches(block_pass, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("is_marker").map_groups(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Z-order (Morton) layout statistics — multi-dimensional scan pruning
# --------------------------------------------------------------------------

ZORDER_BITS = 16          # bits interleaved per dimension
ZORDER_BUCKET_BITS = 8    # leading z-bits that define a layout bucket


def zorder_stats(ds, col_a: str = "l_partkey",
                 col_b: str = "l_suppkey"):
    """(zbucket, n_rows, a_min, a_max, b_min, b_max): the pruning
    witness of a Z-order (Morton-curve) data layout over two int key
    columns — rows are bucketed by the leading ``ZORDER_BUCKET_BITS``
    bits of the bit-interleave of the two keys' low ``ZORDER_BITS``
    bits, and the per-bucket min/max of BOTH keys shows each bucket
    covering a small rectangle of the key space (the property that
    lets a 100-TB scan with predicates on either/both keys skip most
    files via footer min/max stats, Delta/Iceberg OPTIMIZE ZORDER
    semantics).  Writing the layout is this keying + sort(z) +
    partitioned write_parquet (the jobs/compact.py posture); the query
    surface returns the stats table the pruning decision would read.

    Shape: the z-key is a pure vectorized bit-interleave map (no
    Python rows, no shuffle); the stats are ONE
    ``exchange.aggregate`` by zbucket with count/min/max — per-block
    partials, constant-size output (2^ZORDER_BUCKET_BITS rows)."""

    # bucket by the leading bits of the OCCUPIED width (bit_length of
    # the global max), else small key domains collapse into one
    # bucket; two scalar max aggregates — constant-size driver reads
    w = max(int(ds.max(col_a)).bit_length(),
            int(ds.max(col_b)).bit_length())
    if w > ZORDER_BITS:
        # the interleave below only consumes the low ZORDER_BITS of
        # each key; past that width the leading bits would silently
        # stop entering the z-key and zbucket would no longer cover
        # key-space rectangles — refuse loudly instead (raise the
        # constant AND regenerate the matching SQL oracle interleave
        # together; they must stay in lockstep)
        raise ValueError(
            f"zorder_stats: key width {w} bits exceeds "
            f"ZORDER_BITS={ZORDER_BITS}; widen the interleave")
    shift = max(2 * w - ZORDER_BUCKET_BITS, 0)

    def zkey(batch: pa.Table) -> pa.Table:
        a = batch.column(col_a).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        b = batch.column(col_b).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        z = np.zeros(len(a), dtype=np.int64)
        for i in range(ZORDER_BITS):
            z |= ((a >> i) & 1) << (2 * i + 1)
            z |= ((b >> i) & 1) << (2 * i)
        return pa.Table.from_arrays(
            [pa.array(z >> shift), pa.array(a), pa.array(b)],
            names=["zbucket", "a", "b"])

    return aggregate(
        ds.select_columns([col_a, col_b])
        .map_batches(zkey, batch_format="pyarrow",
                     zero_copy_batch=True),
        "zbucket", ("count",), ("min", "a"), ("max", "a"),
        ("min", "b"), ("max", "b"),
        names=["zbucket", "n_rows", "a_min", "a_max", "b_min", "b_max"])


def volume_spikes(ds, k: int = 3):
    """(event_type, day, n, dev_n): calendar days whose event VOLUME
    deviates from the type's median daily count by more than ``k``×
    the type's MAD of daily counts — the feed-health spike/outage
    monitor (`robust_outliers` screens row VALUES; this screens the
    arrival process itself, where a scraper ban or a double-ingest
    shows up first).  All-integer comparison, exact on both engines.

    Shape: one combiner pass builds the (type, day, n) daily-count
    table — bounded by |types| × calendar days, never corpus size —
    and every subsequent step (two group_quantiles passes for median
    and MAD, the LUT deviation map, the final filter) runs over that
    bounded table; the corpus is scanned exactly once."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // 86_400_000_000
        types = np.asarray(batch.column("event_type").to_pylist(),
                           dtype=object)
        order = np.lexsort((day, types))
        t, d = types[order], day[order]
        new = np.append(True, (t[1:] != t[:-1]) | (d[1:] != d[:-1]))
        starts = np.nonzero(new)[0]
        n = np.diff(np.append(starts, len(t)))
        return pa.Table.from_arrays(
            [pa.array(t[starts].astype(str), pa.string()),
             pa.array(d[starts]), pa.array(n.astype(np.int64))],
            names=["event_type", "day", "n"])

    daily = aggregate(
        ds.select_columns(["event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["event_type", "day"], ("sum", "n"),
        names=["event_type", "day", "n"])  # materialized; read 3 times

    med = {r["event_type"]: int(r["q50"])
           for r in group_quantiles(daily, "event_type", "n",
                                    (0.5,)).take_all()}
    med_ref = ray.put(med)

    def dev(batch: pa.Table, *, _ref=med_ref) -> pa.Table:
        t = _ref if isinstance(_ref, dict) else ray.get(_ref)
        enc = pc.dictionary_encode(
            batch.column("event_type")).combine_chunks()
        lut = np.array([t.get(g, 0)
                        for g in enc.dictionary.to_pylist()],
                       dtype=np.int64)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "dev_n", pa.array(np.abs(n - lut[codes])))

    d_ds = daily.map_batches(dev, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    mad = {r["event_type"]: int(r["q50"])
           for r in group_quantiles(d_ds, "event_type", "dev_n",
                                    (0.5,)).take_all()}
    mad_ref = ray.put(mad)

    def flag(batch: pa.Table, *, _ref=mad_ref) -> pa.Table:
        t = _ref if isinstance(_ref, dict) else ray.get(_ref)
        enc = pc.dictionary_encode(
            batch.column("event_type")).combine_chunks()
        lut = np.array([t.get(g, 0)
                        for g in enc.dictionary.to_pylist()],
                       dtype=np.int64)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        devs = batch.column("dev_n").to_numpy(zero_copy_only=False)
        kept = batch.filter(pa.array(devs > k * lut[codes]))
        day = kept.column("day").to_numpy(zero_copy_only=False)
        dates = (np.datetime64("1970-01-01")
                 + day.astype("timedelta64[D]")).astype(str)
        return pa.Table.from_arrays(
            [kept.column("event_type"),
             pa.array(dates.tolist(), pa.string()),
             kept.column("n"), kept.column("dev_n")],
            names=["event_type", "day", "n", "dev_n"])

    return d_ds.map_batches(flag, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .sort(["event_type", "day"])


def ref_integrity(sf_dir: str, n_buckets: int = 256):
    """(relationship, n_rows, n_orphans): referential-integrity audit
    across the star schema — for each foreign-key edge (orders→
    customer, lineitem→orders, lineitem→part, lineitem→supplier,
    customer→nation, supplier→nation), the child row count and the
    number of child rows whose key has NO parent — the load-validation
    every warehouse runs before trusting a fresh ingest (zeros are the
    point: the audit PROVES them).

    Shape (round-5 re-orchestration — the first registration ran six
    sequential semi_join jobs with 12 blocking counts and scanned
    lineitem three times; 15.3 s at sf0.1): ROUTED, two streaming jobs
    total for all six edges.  Parent key sets whose table row count
    (a metadata-only count) fits ``REF_PARENT_BROADCAST_MAX`` are
    collected in ONE union job of per-block distinct partials and
    ray.put-broadcast (the `_edges_with_degrees` gate pattern —
    dimension tables are orders of magnitude below the fact side);
    then ONE union job scans every child table exactly once with only
    its key columns, testing membership per block against the
    broadcast sorted arrays and emitting a single (edge, n_rows,
    n_orphans) partial row per block×edge — no shuffle at all, and
    the driver fold is a bounded aggregate.  Any edge whose parent
    outgrows the gate (none at TPC-H shapes; possible for fact→fact
    edges at 100 TB) routes to `_ref_integrity_exchange`: one
    constant-fan-out exchange keyed by edge·n_buckets + hash(key)
    that co-locates pre-reduced child counts with per-block-distinct
    parent keys — still one job for all routed edges, lineitem still
    scanned once."""
    import ray.data

    edges = [
        ("orders->customer", "orders", "o_custkey",
         "customer", "c_custkey"),
        ("lineitem->orders", "lineitem", "l_orderkey",
         "orders", "o_orderkey"),
        ("lineitem->part", "lineitem", "l_partkey",
         "part", "p_partkey"),
        ("lineitem->supplier", "lineitem", "l_suppkey",
         "supplier", "s_suppkey"),
        ("customer->nation", "customer", "c_nationkey",
         "nation", "n_nationkey"),
        ("supplier->nation", "supplier", "s_nationkey",
         "nation", "n_nationkey"),
    ]
    bcast, routed = [], []
    for e in edges:
        n_parent = ray.data.read_parquet(
            f"{sf_dir}/{e[3]}.parquet", columns=[e[4]]).count()
        (bcast if n_parent <= REF_PARENT_BROADCAST_MAX
         else routed).append(e)
    out = _ref_integrity_broadcast(sf_dir, bcast) if bcast else {}
    if routed:
        out.update(_ref_integrity_exchange(sf_dir, routed, n_buckets))
    return pa.table({
        "relationship": pa.array([e[0] for e in edges], pa.string()),
        "n_rows": pa.array([out[e[0]][0] for e in edges], pa.int64()),
        "n_orphans": pa.array([out[e[0]][1] for e in edges],
                              pa.int64())})


REF_PARENT_BROADCAST_MAX = 5_000_000    # keys; ~40 MB int64 per edge


def _fold_edge_partials(rows, edges):
    """Driver fold shared by both ref_integrity paths: sum the
    (edge, n_rows, n_orphans) partial rows into edge order."""
    agg = {i: [0, 0] for i in range(len(edges))}
    for r in rows:
        agg[int(r["edge"])][0] += int(r["n_rows"])
        agg[int(r["edge"])][1] += int(r["n_orphans"])
    return {edges[i][0]: (agg[i][0], agg[i][1])
            for i in range(len(edges))}


def _ref_integrity_broadcast(sf_dir: str, edges):
    """Zero-shuffle path: gated parent key sets broadcast once, child
    tables scanned once each, per-block (edge, n_rows, n_orphans)
    partials folded on the driver (≤ blocks × edges rows)."""
    import ray
    import ray.data

    # job A: one union of per-block-distinct (edge, key) parent
    # partials; the driver unique is gated by the metadata counts
    parent_roles: dict[str, list] = {}
    for i, e in enumerate(edges):
        parent_roles.setdefault(e[3], []).append((i, e[4]))

    def pemit(trs):
        def f(batch: pa.Table) -> pa.Table:
            es, ks = [], []
            for i, col in trs:
                u = np.unique(batch.column(col).cast(pa.int64())
                              .to_numpy(zero_copy_only=False))
                es.append(np.full(len(u), i, dtype=np.int64))
                ks.append(u)
            return pa.Table.from_arrays(
                [pa.array(np.concatenate(es)),
                 pa.array(np.concatenate(ks))],
                names=["edge", "key"])
        return f

    pds = None
    for tname, trs in parent_roles.items():
        cols = sorted({c for _, c in trs})
        ds = ray.data.read_parquet(
            f"{sf_dir}/{tname}.parquet", columns=cols) \
            .map_batches(pemit(trs), batch_format="pyarrow",
                         zero_copy_batch=True)
        pds = ds if pds is None else pds.union(ds)
    # the lazy union runs once (_collect); with no columned block (empty
    # parents) seed the typed empty table
    pt = _collect(pds)
    if pt is None:
        pt = pa.table({"edge": pa.array([], pa.int64()),
                       "key": pa.array([], pa.int64())})
    pe = pt.column("edge").to_numpy(zero_copy_only=False)
    pk = pt.column("key").to_numpy(zero_copy_only=False)
    refs = {i: ray.put(np.unique(pk[pe == i]))
            for i in range(len(edges))}

    # job B: one union scanning each child table once; membership is
    # a searchsorted against the broadcast sorted parent array
    child_roles: dict[str, list] = {}
    for i, e in enumerate(edges):
        child_roles.setdefault(e[1], []).append((i, e[2]))

    def cemit(trs):
        def f(batch: pa.Table) -> pa.Table:
            es, nr, no = [], [], []
            for i, col in trs:
                k = batch.column(col).cast(pa.int64()) \
                    .to_numpy(zero_copy_only=False)
                parents = ray.get(refs[i])
                if len(parents):
                    pos = np.clip(np.searchsorted(parents, k),
                                  0, len(parents) - 1)
                    orphans = int((parents[pos] != k).sum())
                else:
                    orphans = len(k)
                es.append(i)
                nr.append(len(k))
                no.append(orphans)
            return pa.Table.from_arrays(
                [pa.array(es, pa.int64()), pa.array(nr, pa.int64()),
                 pa.array(no, pa.int64())],
                names=["edge", "n_rows", "n_orphans"])
        return f

    cds = None
    for tname, trs in child_roles.items():
        cols = sorted({c for _, c in trs})
        ds = ray.data.read_parquet(
            f"{sf_dir}/{tname}.parquet", columns=cols) \
            .map_batches(cemit(trs), batch_format="pyarrow",
                         zero_copy_batch=True)
        cds = ds if cds is None else cds.union(ds)
    return _fold_edge_partials(cds.take_all(), edges)


def _ref_integrity_exchange(sf_dir: str, edges, n_buckets: int):
    """One-exchange fallback for edges whose parent key set outgrows
    the broadcast gate: every table scanned once, child counts and
    per-block-distinct parent keys co-located by
    cell = edge·n_buckets + hash(key), orphans counted in-cell."""
    import ray.data

    roles: dict[str, list] = {}
    for i, (_, child, ck, parent, pk) in enumerate(edges):
        roles.setdefault(child, []).append((i, ck, 0))
        roles.setdefault(parent, []).append((i, pk, 1))

    def emit(table_roles):
        def f(batch: pa.Table) -> pa.Table:
            cells, keys, isp, cnt = [], [], [], []
            for i, col, is_parent in table_roles:
                k = batch.column(col).cast(pa.int64()) \
                    .to_numpy(zero_copy_only=False)
                if is_parent:
                    u = np.unique(k)
                    c = np.zeros(len(u), dtype=np.int64)
                else:
                    u, c = np.unique(k, return_counts=True)
                cells.append(np.int64(i) * np.int64(n_buckets)
                             + _ibucket(u, n_buckets))
                keys.append(u)
                isp.append(np.full(len(u), is_parent, dtype=np.int64))
                cnt.append(c.astype(np.int64))
            return pa.Table.from_arrays(
                [pa.array(np.concatenate(cells)),
                 pa.array(np.concatenate(keys)),
                 pa.array(np.concatenate(isp)),
                 pa.array(np.concatenate(cnt))],
                names=["cell", "key", "is_parent", "cnt"])
        return f

    parts = None
    for tname, trs in roles.items():
        cols = sorted({c for _, c, _ in trs})
        ds = ray.data.read_parquet(
            f"{sf_dir}/{tname}.parquet", columns=cols) \
            .map_batches(emit(trs), batch_format="pyarrow",
                         zero_copy_batch=True)
        parts = ds if parts is None else parts.union(ds)

    def audit_cell(group: pa.Table) -> pa.Table:
        cell = int(group.column("cell")[0].as_py())
        key = group.column("key").to_numpy(zero_copy_only=False)
        isp = group.column("is_parent") \
            .to_numpy(zero_copy_only=False).astype(bool)
        cnt = group.column("cnt").to_numpy(zero_copy_only=False)
        pk = np.unique(key[isp])
        ck, cc = key[~isp], cnt[~isp]
        if len(pk):
            pos = np.clip(np.searchsorted(pk, ck), 0, len(pk) - 1)
            orphan = pk[pos] != ck
        else:
            orphan = np.ones(len(ck), dtype=bool)
        return pa.table({
            "edge": pa.array([cell // n_buckets], pa.int64()),
            "n_rows": pa.array([int(cc.sum())], pa.int64()),
            "n_orphans": pa.array([int(cc[orphan].sum())], pa.int64()),
        })

    rows = parts.groupby("cell").map_groups(
        audit_cell, batch_format="pyarrow").take_all()
    return _fold_edge_partials(rows, edges)
