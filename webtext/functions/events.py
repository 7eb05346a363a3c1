"""Event-stream operators over the events table
(event_id, ts:timestamp[us], user_id, event_type, value, props).

The reference is purely batch (SURVEY §2.4: no windows/watermarks); a
large-scale training-data pipeline still needs time-windowed shapes, so
they are provided as first-class operators:

* windowed_counts — tumbling-window aggregate, expressed with the
  combiner pattern: per-batch partial counts (vectorized
  ``floor_temporal`` + Arrow group_by) so the shuffle ships
  (event_type, window, n) triples, never events.
* sessionize — gap-based sessionization per user: one shuffle grouped
  by hash(user_id) % 256 (constant group count — never one Python group
  per user), then one vectorized lexsort + diff pass per bucket.
  Integer output, exactly replicable by a SQL window-function oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import _hash_exchange, _ibucket, aggregate
from .dedup import _col_i64

SESSION_GAP_MINUTES = 30


def _partial_window_counts(batch: pa.Table) -> pa.Table:
    # the window key travels as a string so engine-side timestamp dtypes
    # (us vs ns) can never skew value comparison
    floored = pc.floor_temporal(batch.column("ts"), unit="hour")
    # second-precision cast: Arrow's %S renders fractional digits for
    # sub-second timestamp units, DuckDB's does not
    w = pc.strftime(floored.cast(pa.timestamp("s")),
                    format="%Y-%m-%d %H:%M:%S")
    t = pa.Table.from_arrays(
        [batch.column("event_type"), w], names=["event_type", "w"])
    agg = t.group_by(["event_type", "w"]).aggregate([("w", "count")])
    return agg.rename_columns(["event_type", "w", "n"])


def windowed_counts(ds):
    """(event_type, w, n): events per type per tumbling 1-hour window."""
    partial = ds.map_batches(_partial_window_counts, batch_format="pyarrow",
                             zero_copy_batch=True)
    summed = aggregate(partial, ["event_type", "w"], ("sum", "n"))
    return summed.map_batches(
        lambda b: b.rename_columns(["event_type", "w", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)


HOP_MINUTES = 15
HOP_WINDOW_MINUTES = 60


def _partial_hopping_counts(batch: pa.Table,
                            hop_min: int, win_min: int) -> pa.Table:
    """Per-batch combiner for hopping (sliding) windows: each event
    belongs to win/hop overlapping windows; emit is a vectorized
    floor_temporal + k-offset repeat, partial counts aggregated
    in-batch so the shuffle ships (event_type, w, n) triples."""
    k = win_min // hop_min
    floored = pc.floor_temporal(batch.column("ts"), multiple=hop_min,
                                unit="minute").cast(pa.timestamp("us")) \
        .cast(pa.int64()).to_numpy(zero_copy_only=False)
    hop_us = np.int64(hop_min) * 60 * 1_000_000
    n = len(floored)
    starts = (np.repeat(floored, k)
              - np.tile(np.arange(k, dtype=np.int64) * hop_us, n))
    etypes = batch.column("event_type").take(
        pa.array(np.repeat(np.arange(n, dtype=np.int64), k)))
    w = pc.strftime(
        pa.array(starts).cast(pa.timestamp("us")).cast(pa.timestamp("s")),
        format="%Y-%m-%d %H:%M:%S")
    t = pa.Table.from_arrays([etypes, w], names=["event_type", "w"])
    agg = t.group_by(["event_type", "w"]).aggregate([("w", "count")])
    return agg.rename_columns(["event_type", "w", "n"])


def hopping_counts(ds, hop_minutes: int = HOP_MINUTES,
                   window_minutes: int = HOP_WINDOW_MINUTES):
    """(event_type, w, n): events per type per HOPPING window of
    ``window_minutes`` sliding every ``hop_minutes`` (hop must divide
    window); ``w`` is the window start.  Same combiner shape as
    windowed_counts — the k-fold window replication happens inside the
    per-batch partial, so the shuffle still ships only (type, window,
    n) triples."""
    if window_minutes % hop_minutes:
        raise ValueError("hop must divide window")
    partial = ds.map_batches(
        lambda b: _partial_hopping_counts(b, hop_minutes, window_minutes),
        batch_format="pyarrow", zero_copy_batch=True)
    summed = aggregate(partial, ["event_type", "w"], ("sum", "n"))
    return summed.map_batches(
        lambda b: b.rename_columns(["event_type", "w", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)


def sessionize(ds, gap_minutes: int = SESSION_GAP_MINUTES,
               n_buckets: int = 256):
    """(user_id, n_sessions): sessions = 1 + #gaps > gap_minutes between
    consecutive events of the user (ordered by ts, then event_id for
    determinism on ts ties).

    All events of one user land in one hash bucket, so the per-user gap
    count is exact; within a bucket one np.lexsort orders every user's
    events and one np.diff finds the session breaks — no per-user group,
    no per-row loop."""
    gap_us = gap_minutes * 60 * 1_000_000

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def count_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # normalize the unit before integer math — source timestamps may
        # be s/ms/us depending on the reader
        ts = group.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column("event_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        same_user = uid[1:] == uid[:-1]
        breaks = same_user & ((ts[1:] - ts[:-1]) > gap_us)
        users = np.unique(uid)  # sorted
        n_sessions = np.ones(len(users), dtype=np.int64)
        if breaks.any():
            bu, bc = np.unique(uid[1:][breaks], return_counts=True)
            n_sessions[np.searchsorted(users, bu)] += bc
        return pa.Table.from_arrays(
            [pa.array(users.astype(np.int64)), pa.array(n_sessions)],
            names=["user_id", "n_sessions"])

    return ds.select_columns(["user_id", "ts", "event_id"]) \
             .map_batches(add_bucket, batch_format="pyarrow",
                          zero_copy_batch=True) \
             .groupby("bucket").map_groups(count_bucket,
                                           batch_format="pyarrow")


def active_spans(ds, gap_minutes: int = SESSION_GAP_MINUTES,
                 n_buckets: int = 256):
    """(user_id, n_spans, active_us): gaps-and-islands over each user's
    event stream — consecutive events ≤ gap apart merge into one
    activity span; ``n_spans`` counts the islands (= sessionize's
    session count) and ``active_us`` sums each span's duration
    (last − first event), computed as the sum of within-span deltas so
    it needs no island bookkeeping.

    Same one-shuffle shape as sessionize: hash(user_id) buckets, one
    lexsort by (user, ts, event_id) per bucket, one np.diff — per-user
    work is a contiguous vectorized run, never a Python group.  All
    integer micros, so the SQL oracle (lag-delta window + conditional
    sums) matches exactly."""
    gap_us = gap_minutes * 60 * 1_000_000

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def spans_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column("event_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        same_user = uid[1:] == uid[:-1]
        delta = ts[1:] - ts[:-1]
        breaks = same_user & (delta > gap_us)
        within = same_user & (delta <= gap_us)
        users = np.unique(uid)              # sorted
        n_spans = np.ones(len(users), dtype=np.int64)
        if breaks.any():
            bu, bc = np.unique(uid[1:][breaks], return_counts=True)
            n_spans[np.searchsorted(users, bu)] += bc
        active = np.zeros(len(users), dtype=np.int64)
        if within.any():
            idx = np.searchsorted(users, uid[1:][within])
            np.add.at(active, idx, delta[within])
        return pa.Table.from_arrays(
            [pa.array(users.astype(np.int64)), pa.array(n_spans),
             pa.array(active)],
            names=["user_id", "n_spans", "active_us"])

    return ds.select_columns(["user_id", "ts", "event_id"]) \
             .map_batches(add_bucket, batch_format="pyarrow",
                          zero_copy_batch=True) \
             .groupby("bucket").map_groups(spans_bucket,
                                           batch_format="pyarrow")


def distinct_users(ds, n_buckets: int = 256):
    """(event_type, n_users): exact COUNT(DISTINCT user_id) per event
    type, expressed as a two-level combiner so the all-to-all never
    ships raw events:

    1. per-batch: collapse to UNIQUE (event_type, user_id) pairs
       (Arrow group_by — each pair crosses the wire at most once per
       block);
    2. bucket by hash(user_id): all copies of a pair share its user,
       so a per-bucket unique is globally unique; count per type;
    3. final groupby(event_type).sum over ≤ n_buckets × n_types tiny
       partial rows."""

    def pairs(batch: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [batch.column("event_type"),
             batch.column("user_id").cast(pa.int64())],
            names=["event_type", "user_id"])
        uniq = t.group_by(["event_type", "user_id"]).aggregate([])
        uid = uniq.column("user_id").to_numpy(zero_copy_only=False)
        return uniq.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def count_bucket(group: pa.Table) -> pa.Table:
        uniq = pa.Table.from_arrays(
            [group.column("event_type"), group.column("user_id")],
            names=["event_type", "user_id"]) \
            .group_by(["event_type", "user_id"]).aggregate([])
        agg = uniq.group_by("event_type").aggregate(
            [("user_id", "count")])
        return agg.rename_columns(["event_type", "n"])

    partial = ds.select_columns(["event_type", "user_id"]) \
        .map_batches(pairs, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(count_bucket,
                                      batch_format="pyarrow")
    return aggregate(partial, "event_type", ("sum", "n")).map_batches(
        lambda b: b.rename_columns(["event_type", "n_users"]),
        batch_format="pyarrow", zero_copy_batch=True)


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def pivot_events(ds, types: tuple[str, ...] = EVENT_TYPES):
    """(day, n_<type>...): daily event counts pivoted to one column per
    event type (fixed, known column set — a pivot with a data-dependent
    schema cannot stream).  Per-batch combiner emits one row per day
    with per-type counts, so the shuffle ships days × types integers;
    unknown types count toward no column (and are flagged nowhere —
    callers pass the full domain)."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.strftime(
            pc.floor_temporal(batch.column("ts"), unit="day")
            .cast(pa.timestamp("s")), format="%Y-%m-%d")
        et = batch.column("event_type")
        cols = [day]
        names = ["day"]
        for t in types:
            cols.append(pc.equal(et, t).cast(pa.int64()))
            names.append(f"n_{t}")
        t_ = pa.Table.from_arrays(cols, names=names)
        agg = t_.group_by("day").aggregate(
            [(f"n_{t}", "sum") for t in types])
        return agg.rename_columns(["day"] + [f"n_{t}" for t in types])

    summed = aggregate(
        ds.select_columns(["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "day", *(("sum", c) for c in [f"n_{t}" for t in types]))
    return summed.map_batches(
        lambda b: b.rename_columns(["day"] + [f"n_{t}" for t in types]),
        batch_format="pyarrow", zero_copy_batch=True)


def _user_cut(batch: pa.Table, cols: list) -> tuple:
    """Per-user scans, map side: a block's ``cols`` and their buckets,
    hash(user_id)."""
    batch = batch.select(cols)
    return batch, _ibucket(_col_i64(batch, "user_id"))


def _by_user(ds, cols: list, cell, **kw):
    """One hash exchange (``exchange._hash_exchange``) by hash(user_id)
    over ``ds``'s ``cols``: every user's events land in one partition,
    where ``cell(table, **kw)`` scans them all at once.  A partition
    may hold no rows."""
    return _hash_exchange("scan", [(ds, _user_cut, {"cols": cols})],
                          cell, **kw)


def _user_order(group: pa.Table) -> tuple:
    """A partition's events ordered by (user_id, ts, event_id), as
    (user_id, event_id, ts in µs, the order, and where each user's
    first event falls)."""
    uid, eid = _col_i64(group, "user_id"), _col_i64(group, "event_id")
    ts = group.column("ts").cast(pa.timestamp("us")).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, uid))
    uid = uid[order]
    first = np.ones(len(uid), dtype=bool)
    first[1:] = uid[1:] != uid[:-1]
    return uid, eid[order], ts[order], order, first


def _cents(group: pa.Table, order: np.ndarray) -> np.ndarray:
    return np.rint(group.column("value").to_numpy(zero_copy_only=False)
                   * 100).astype(np.int64)[order]


def _scan_running(group: pa.Table) -> pa.Table:
    uid, eid, _, order, first = _user_order(group)
    cents = _cents(group, order)
    csum = np.cumsum(cents)
    # segment reset: subtract the cumsum just before each user's first
    # row from that user's whole segment (index-based, so it is
    # sign-safe for negative values)
    seg = np.cumsum(first) - 1
    running = csum - (csum - cents)[first][seg]
    return pa.Table.from_arrays(
        [pa.array(eid), pa.array(uid), pa.array(running)],
        names=["event_id", "user_id", "running_cents"])


def running_totals(ds):
    """(event_id, user_id, running_cents): per-user cumulative sum of
    round(value*100) over events ordered by (ts, event_id) — the
    distributed prefix-sum / running-balance shape.

    Sums are integer cents so the result is bit-exact against a SQL
    window-function oracle (float running sums are order-fragile).  One
    hash exchange by hash(user_id) (``_by_user``) co-locates each
    user's history; within a partition a single lexsort + cumsum
    computes every user's prefix sums at once, the per-user reset done
    by subtracting the running sum at each user's segment start — no
    per-user group, no per-row loop.  It executes ``ds`` at call
    time."""
    return _by_user(ds, ["event_id", "user_id", "ts", "value"],
                    _scan_running)


ROLL_WINDOW_ROWS = 5


def _scan_rolling(group: pa.Table, window_rows: int) -> pa.Table:
    uid, eid, _, order, first = _user_order(group)
    csum = np.concatenate([[0], np.cumsum(_cents(group, order))])
    seg_start = np.flatnonzero(first)[np.cumsum(first) - 1]
    idx = np.arange(len(uid), dtype=np.int64)
    lo = np.maximum(idx - window_rows + 1, seg_start)
    roll = csum[idx + 1] - csum[lo]
    return pa.Table.from_arrays(
        [pa.array(eid), pa.array(uid), pa.array(roll)],
        names=["event_id", "user_id", "roll_cents"])


def rolling_sums(ds, window_rows: int = ROLL_WINDOW_ROWS):
    """(event_id, user_id, roll_cents): per-user rolling sum of
    round(value*100) over the last ``window_rows`` events (current row
    inclusive), ordered by (ts, event_id) — the bounded-window sibling
    of running_totals (ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW).

    Same shape: one hash exchange by hash(user_id) (``_by_user``), then
    one lexsort + prefix-sum difference per partition — roll[i] =
    csum[i] - csum[max(i-k, segment_start)] on a zero-padded prefix
    array, fully vectorized across all users in the partition."""
    return _by_user(ds, ["event_id", "user_id", "ts", "value"],
                    _scan_rolling, window_rows=window_rows)


def _scan_lag(group: pa.Table) -> pa.Table:
    uid, eid, ts, _, first = _user_order(group)
    gap = np.empty(len(ts), dtype=np.int64)
    gap[1:] = ts[1:] - ts[:-1]
    keep = ~first
    return pa.Table.from_arrays(
        [pa.array(eid[keep]), pa.array(uid[keep]), pa.array(gap[keep])],
        names=["event_id", "user_id", "gap_us"])


def lag_deltas(ds):
    """(event_id, user_id, gap_us): per-event time delta to the user's
    previous event (LAG window function), ordered by (ts, event_id);
    each user's first event has no predecessor and is dropped.

    Same shape as running_totals: one hash exchange by hash(user_id)
    (``_by_user``), then one lexsort + np.diff pass per partition —
    vectorized across every user in it."""
    return _by_user(ds, ["event_id", "user_id", "ts"], _scan_lag)


def user_growth(ds):
    """(d, new_users, cum_users): per-day count of first-seen users and
    the running total — the classic growth curve, computed with TWO
    combiner-reduced exchanges over tiny state:

    1. per-batch Arrow group_by min(day) per user (shuffle ships one
       row per (batch, user), never events), then a keyed
       aggregate(user).min to settle each user's true first day;
    2. per-batch count per first-day (days are few), one tiny
       groupby-sum, then a single-block cumulative sum (the day table
       is bounded by the calendar at any corpus size)."""

    def first_day_partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column("ts"), unit="day") \
            .cast(pa.timestamp("us")).cast(pa.int64())
        t = pa.Table.from_arrays(
            [batch.column("user_id").cast(pa.int64()), day],
            names=["user_id", "day_us"])
        agg = t.group_by(["user_id"]).aggregate([("day_us", "min")])
        return agg.rename_columns(["user_id", "day_us"])

    first = aggregate(
        ds.select_columns(["user_id", "ts"])
        .map_batches(first_day_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "user_id", ("min", "day_us"))

    def day_counts(batch: pa.Table) -> pa.Table:
        col = "min(day_us)" if "min(day_us)" in batch.column_names \
            else "day_us"
        t = pa.Table.from_arrays(
            [batch.column(col),
             pa.array(np.ones(batch.num_rows, dtype=np.int64))],
            names=["day_us", "n"])
        agg = t.group_by(["day_us"]).aggregate([("n", "sum")])
        return agg.rename_columns(["day_us", "new_users"])

    per_day = aggregate(
        first.map_batches(day_counts, batch_format="pyarrow",
                          zero_copy_batch=True),
        "day_us", ("sum", "new_users"))

    def cumulate(batch: pa.Table) -> pa.Table:
        day = batch.column("day_us").to_numpy(zero_copy_only=False)
        n = batch.column("sum(new_users)" if "sum(new_users)" in
                         batch.column_names else "new_users") \
            .to_numpy(zero_copy_only=False)
        order = np.argsort(day)
        day, n = day[order], n[order]
        return pa.Table.from_arrays(
            [pa.array(day).cast(pa.timestamp("us")), pa.array(n),
             pa.array(np.cumsum(n))],
            names=["d", "new_users", "cum_users"])

    # the day table is calendar-bounded → single block is safe forever
    return per_day.repartition(1).map_batches(
        cumulate, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True)


def _asof_merge_kernel(group: pa.Table, left_id: str, left_key: str,
                       right_id: str) -> pa.Table:
    """Vectorized in-bucket as-of merge over (key, ts, is_right,
    payload) rows: rights sort BEFORE lefts at equal (key, ts)
    (inclusive <=), equal-ts rights ascend by payload so the forward
    fill's last-seen is the max right id; np.maximum.accumulate carries
    the last right row forward; fills that cross a key boundary are
    rejected.  Module-level so the property tests can drive it directly
    without a Ray session."""
    key = group.column("key").to_numpy(zero_copy_only=False)
    ts = group.column("ts").to_numpy(zero_copy_only=False)
    is_r = group.column("is_right").to_numpy(zero_copy_only=False)
    pay = group.column("payload").to_numpy(zero_copy_only=False)
    order = np.lexsort((pay, 1 - is_r, ts, key))
    key, ts, is_r, pay = key[order], ts[order], is_r[order], pay[order]
    idx = np.where(is_r == 1, np.arange(len(key)), -1)
    last = np.maximum.accumulate(idx)
    lmask = is_r == 0
    j = last[lmask]
    ok = j >= 0
    ok[ok] = key[j[ok]] == key[lmask][ok]
    out_left = pay[lmask][ok]
    out_key = key[lmask][ok]
    out_right = pay[j[ok]]
    return pa.Table.from_arrays(
        [pa.array(out_left.astype(np.int64)),
         pa.array(out_key.astype(np.int64)),
         pa.array(out_right.astype(np.int64))],
        names=[left_id, left_key, right_id])


def _interval_merge_kernel(group: pa.Table, window_us: int,
                           left_id: str, key_name: str,
                           right_id: str) -> pa.Table:
    """Vectorized in-bucket interval merge over (key, ts, is_right,
    payload) rows: for every left row emit every right row of the same
    key with ``left.ts <= right.ts < left.ts + window_us``.

    Overflow-safe composite keys: timestamps are rank-compressed
    against the sorted union of right timestamps and both query
    endpoints (rank preserves every <,=,> relation, including the
    window bounds, because the endpoints themselves are union members),
    then packed as ``key_code * (len(union)+1) + rank`` — bounded by
    ~3·n² per bucket, never by the epoch-microsecond magnitude, so no
    int64 overflow for any real bucket size.  Two np.searchsorted calls
    produce per-left match ranges; the pair list is materialized with
    the repeat/cumsum multi-range gather.  Module-level so property
    tests can drive it without a Ray session."""
    key = group.column("key").to_numpy(zero_copy_only=False)
    ts = group.column("ts").to_numpy(zero_copy_only=False)
    is_r = group.column("is_right").to_numpy(zero_copy_only=False)
    pay = group.column("payload").to_numpy(zero_copy_only=False)
    empty = pa.Table.from_arrays(
        [pa.array([], pa.int64()), pa.array([], pa.int64()),
         pa.array([], pa.int64()), pa.array([], pa.int64())],
        names=[left_id, key_name, right_id, "delta_us"])
    lmask = is_r == 0
    rmask = ~lmask
    if not lmask.any() or not rmask.any():
        return empty
    _, codes = np.unique(key, return_inverse=True)
    codes = codes.astype(np.int64)
    ka, ta, pla = codes[lmask], ts[lmask], pay[lmask]
    kb, tb, pb = codes[rmask], ts[rmask], pay[rmask]
    qlo, qhi = ta, ta + np.int64(window_us)
    union = np.unique(np.concatenate([tb, qlo, qhi]))
    m = np.int64(len(union) + 1)
    rb = np.searchsorted(union, tb).astype(np.int64)
    keyb = kb * m + rb
    order = np.argsort(keyb, kind="stable")
    keyb, pb, tb = keyb[order], pb[order], tb[order]
    lo = np.searchsorted(keyb, ka * m + np.searchsorted(union, qlo))
    hi = np.searchsorted(keyb, ka * m + np.searchsorted(union, qhi))
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return empty
    starts = np.cumsum(counts) - counts
    bidx = (np.arange(total, dtype=np.int64)
            - np.repeat(starts, counts) + np.repeat(lo, counts))
    out_left = np.repeat(pla, counts)
    out_key = np.repeat(key[lmask], counts)
    out_right = pb[bidx]
    delta = tb[bidx] - np.repeat(ta, counts)
    return pa.Table.from_arrays(
        [pa.array(out_left.astype(np.int64)),
         pa.array(out_key.astype(np.int64)),
         pa.array(out_right.astype(np.int64)),
         pa.array(delta.astype(np.int64))],
        names=[left_id, key_name, right_id, "delta_us"])


def interval_join(left, right, window_us: int,
                  left_key: str = "user_id", left_ts: str = "ts",
                  left_id: str = "event_id",
                  right_key: str = "user_id", right_ts: str = "ts",
                  right_id: str = "event_id",
                  left_out: str | None = None,
                  right_out: str | None = None,
                  n_buckets: int = 256):
    """Range (interval) join — every (left, right) pair of the same key
    with ``right_ts`` in ``[left_ts, left_ts + window_us)``.  Output
    columns: (left_id, left_key, right_id, delta_us).

    Ray Data has no range join; like :func:`asof_join` this is the
    documented custom-operator composition: both sides emit into
    hash(key) % n_buckets groups (constant-fan-out shuffle) and one
    vectorized in-bucket pass answers every window query with two
    searchsorted calls over rank-compressed composite keys.
    Partitioning assumption: all rows of one key share a bucket
    (guaranteed by the hash); the window predicate never crosses keys,
    so no interval is replicated across buckets — per-bucket memory is
    the bucket's rows, not the corpus.

    ``left_out`` / ``right_out`` rename the two id columns in the
    output (required for self-joins where both ids share a name)."""
    left_out = left_out or left_id
    right_out = right_out or right_id

    def _emit(id_col: str, key_col: str, ts_col: str, side: int):
        def emit(batch: pa.Table) -> pa.Table:
            key = batch.column(key_col).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            ts = batch.column(ts_col).cast(pa.timestamp("us")) \
                .cast(pa.int64()).to_numpy(zero_copy_only=False)
            pid = batch.column(id_col).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [pa.array(_ibucket(key, n_buckets)), pa.array(key),
                 pa.array(ts),
                 pa.array(np.full(len(key), side, dtype=np.int8)),
                 pa.array(pid)],
                names=["bucket", "key", "ts", "is_right", "payload"])

        return emit

    def merge(group: pa.Table) -> pa.Table:
        return _interval_merge_kernel(group, window_us,
                                      left_out, left_key, right_out)

    u = left.select_columns([left_id, left_key, left_ts]) \
        .map_batches(_emit(left_id, left_key, left_ts, 0),
                     batch_format="pyarrow", zero_copy_batch=True).union(
        right.select_columns([right_id, right_key, right_ts])
        .map_batches(_emit(right_id, right_key, right_ts, 1),
                     batch_format="pyarrow", zero_copy_batch=True))
    return u.groupby("bucket").map_groups(merge, batch_format="pyarrow")


def asof_join(left, right,
              left_key: str = "user_id", left_ts: str = "ts",
              left_id: str = "event_id",
              right_key: str = "o_custkey", right_ts: str = "o_orderdate",
              right_id: str = "o_orderkey",
              n_buckets: int = 256):
    """Backward as-of join — for each left row, the right row of the
    same key with the greatest ``right_ts`` ≤ ``left_ts`` (inclusive;
    ties on right_ts → greatest ``right_id``).  Inner: left rows with
    no qualifying right row are dropped.  Output columns:
    (left_id, left_key, right_id).

    Ray Data has no as-of join; this is the documented custom-operator
    composition (SURVEY §2 'custom operators'): both sides emit into
    hash(key) % n_buckets groups — the CONSTANT-fan-out shuffle every
    join-by-groupby here uses — and one vectorized in-bucket pass sorts
    the merged rows by (key, ts, side, right_id) and forward-fills the
    last-seen right row with np.maximum.accumulate.  Partitioning
    assumption: all rows of one key share a bucket (guaranteed by the
    hash); per-bucket memory is the bucket's rows, not the corpus.
    """

    def _emit(id_col: str, key_col: str, ts_col: str, side: int):
        """One emit closure for both sides — the bucketing and
        timestamp normalization cannot drift between them."""

        def emit(batch: pa.Table) -> pa.Table:
            key = batch.column(key_col).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            ts = batch.column(ts_col).cast(pa.timestamp("us")) \
                .cast(pa.int64()).to_numpy(zero_copy_only=False)
            pid = batch.column(id_col).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [pa.array(_ibucket(key, n_buckets)), pa.array(key),
                 pa.array(ts),
                 pa.array(np.full(len(key), side, dtype=np.int8)),
                 pa.array(pid)],
                names=["bucket", "key", "ts", "is_right", "payload"])

        return emit

    left_emit = _emit(left_id, left_key, left_ts, 0)
    right_emit = _emit(right_id, right_key, right_ts, 1)

    def merge(group: pa.Table) -> pa.Table:
        return _asof_merge_kernel(group, left_id, left_key, right_id)

    u = left.select_columns([left_id, left_key, left_ts]) \
        .map_batches(left_emit, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        right.select_columns([right_id, right_key, right_ts])
        .map_batches(right_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    return u.groupby("bucket").map_groups(merge, batch_format="pyarrow")


def ntile_events(ds, n_tiles: int = 4, n_buckets: int = 256):
    """(event_id, user_id, tile): SQL NTILE(n) per user ordered by
    (ts, event_id) — equal-height tiles with the first (len % n) tiles
    one row larger, exactly SQL's convention.

    Same bucketed window shape: one shuffle by hash(user_id), one
    lexsort per bucket, then a closed-form per-row tile computation
    (no Python loop): with k = len // n, r = len % n, position p maps
    to tile p // (k+1) for p < r*(k+1), else r + (p - r*(k+1)) // k."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def tile_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column("event_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, eid = uid[order], eid[order]
        first = np.concatenate([[True], uid[1:] != uid[:-1]])
        seg_id = np.cumsum(first) - 1
        seg_start = np.flatnonzero(first)
        seg_len = np.diff(np.append(seg_start, len(uid)))
        pos = np.arange(len(uid)) - seg_start[seg_id]   # 0-based in seg
        ln = seg_len[seg_id]
        k = ln // n_tiles
        r = ln % n_tiles
        big = r * (k + 1)                               # rows in big tiles
        in_big = pos < big
        tile = np.where(
            in_big,
            pos // np.maximum(k + 1, 1),
            r + (pos - big) // np.maximum(k, 1)) + 1
        # degenerate segments shorter than n_tiles: k=0, every row its
        # own tile — pos // 1 above already yields 0..len-1 via the
        # in_big branch (r = len, big = len)
        return pa.Table.from_arrays(
            [pa.array(eid), pa.array(uid),
             pa.array(tile.astype(np.int64))],
            names=["event_id", "user_id", "tile"])

    return ds.select_columns(["event_id", "user_id", "ts"]) \
             .map_batches(add_bucket, batch_format="pyarrow",
                          zero_copy_batch=True) \
             .groupby("bucket").map_groups(tile_bucket,
                                           batch_format="pyarrow")


def dense_rank_events(ds, n_buckets: int = 256):
    """(event_id, user_id, dense_rank): DENSE_RANK() of each event's
    value within its user, ordered by (value, event_id) ascending —
    ties (equal values) share a rank and no rank is skipped.

    Same bucketed shape as the other window ops: one shuffle by
    hash(user_id) % n_buckets, then a single lexsort + cumulative
    value-change count per bucket, vectorized across every user."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def rank_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        eid = group.column("event_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # integer cents so tie-groups match SQL float equality exactly
        cents = np.floor(group.column("value")
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        order = np.lexsort((eid, cents, uid))
        uid, eid, cents = uid[order], eid[order], cents[order]
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        new_value = np.concatenate(
            [[True], (cents[1:] != cents[:-1]) | new_user[1:]])
        # dense rank = distinct-value count since the segment start:
        # global cumsum of value-change flags minus the segment's base
        # (its pre-start cumsum), forward-filled by max-accumulate
        # (base values are nondecreasing in position)
        csum = np.cumsum(new_value.astype(np.int64))
        starts = np.nonzero(new_user)[0]
        base = np.zeros(len(csum), dtype=np.int64)
        base[starts] = csum[starts] - 1   # a segment start is always
        base = np.maximum.accumulate(base)  # a value change
        rank = csum - base
        return pa.Table.from_arrays(
            [pa.array(eid), pa.array(uid), pa.array(rank)],
            names=["event_id", "user_id", "dense_rank"])

    return ds.select_columns(["event_id", "user_id", "value"]) \
             .map_batches(add_bucket, batch_format="pyarrow",
                          zero_copy_batch=True) \
             .groupby("bucket").map_groups(rank_bucket,
                                           batch_format="pyarrow")


def percent_rank_events(ds, n_buckets: int = 256):
    """(event_id, user_id, pr_micro): SQL PERCENT_RANK() of each
    event's value within its user — (rank − 1) / (n − 1) where rank is
    RANK() (ties share the group's first position) — micro-quantized
    as floor(pr·1e6 + 0.5).  Single-row partitions emit 0, SQL's
    convention.

    Same bucketed window shape as dense_rank_events: one shuffle by
    hash(user_id) % n_buckets, one lexsort per bucket, then closed-form
    vectorized rank/size math (no per-user Python groups — a hot user
    is just a longer contiguous run inside its bucket).  The final
    division runs in the same IEEE order as the SQL oracle ((rank−1)
    int → double, (n−1) int → double, one divide, one floor), so the
    micro values are bit-identical."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def pr_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        eid = group.column("event_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # integer cents so tie groups match SQL float equality exactly
        cents = np.floor(group.column("value")
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        order = np.lexsort((eid, cents, uid))
        uid, eid, cents = uid[order], eid[order], cents[order]
        m = len(uid)
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        new_value = np.concatenate(
            [[True], (cents[1:] != cents[:-1]) | new_user[1:]])
        idx = np.arange(m, dtype=np.int64)
        # segment (user) start position, forward-filled to every row
        seg_base = np.where(new_user, idx, 0)
        seg_base = np.maximum.accumulate(seg_base)
        # tie-group start position (RANK semantics: ties take the
        # group's first position)
        tie_base = np.where(new_value, idx, 0)
        tie_base = np.maximum.accumulate(tie_base)
        rank = tie_base - seg_base + 1
        # per-user size scattered back to rows
        starts = np.flatnonzero(new_user)
        seg_len = np.diff(np.append(starts, m))
        n_of = np.repeat(seg_len, seg_len)
        pr = np.zeros(m, dtype=np.int64)
        multi = n_of > 1
        pr[multi] = np.floor(
            (rank[multi] - 1).astype(np.float64)
            / (n_of[multi] - 1).astype(np.float64)
            * 1000000.0 + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(eid), pa.array(uid), pa.array(pr)],
            names=["event_id", "user_id", "pr_micro"])

    return ds.select_columns(["event_id", "user_id", "value"]) \
             .map_batches(add_bucket, batch_format="pyarrow",
                          zero_copy_batch=True) \
             .groupby("bucket").map_groups(pr_bucket,
                                           batch_format="pyarrow")


def zscore_events(ds, n_buckets: int = 256):
    """(event_id, event_type, z_micro): each event's value standardized
    within its event_type — z = (v - mean) / sample_std, in micro-units
    — the feature-normalization step of an ML preprocessing pipeline.

    Two passes, both combiner-shaped: per-batch integer partials
    (n, Σcents, Σcents²) reduce to one tiny per-type stats table that
    broadcasts via ray.put; the corpus then streams through a pure
    vectorized map.  The z expression is derived from EXACT integer
    sums in a fixed IEEE order — (c·n − S1) · 1e6 / (n · sqrt((S2·n −
    S1²) / (n·(n−1)))) then floor(+0.5) — so the SQL oracle replaying
    the same expression matches bit-for-bit.  Types with n ≤ 1 or zero
    variance emit z_micro = 0 on both sides."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        c = np.floor(batch.column("value")
                     .to_numpy(zero_copy_only=False) * 100.0
                     + 0.5).astype(np.int64)
        t = pa.Table.from_arrays(
            [et, pa.array(np.ones(len(c), dtype=np.int64)),
             pa.array(c), pa.array(c * c)],
            names=["event_type", "n", "s1", "s2"])
        agg = t.group_by("event_type").aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum")])
        return agg.rename_columns(["event_type", "n", "s1", "s2"])

    stats_rows = aggregate(
        ds.select_columns(["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "event_type", ("sum", "n"), ("sum", "s1"), ("sum", "s2")).take_all()
    # per-type sd computed ONCE, driver-side, in Python arbitrary-
    # precision ints: S2·n − S1² wraps silently in int64 once a type's
    # cents sum passes ~3e9 (the oracle's SUM() promotes to HUGEINT, so
    # the int64 path would diverge undetected); exact-int → float64
    # conversion then the same IEEE divide/sqrt order keeps the result
    # bit-identical to the per-batch computation wherever int64 did
    # not wrap.  Residual int64 bound, documented: the streaming
    # numerator c·n − S1 wraps only past ~9e12 events per type at
    # max-cent values — far beyond the variance bound fixed here.
    stats = {}
    for r in stats_rows:
        n, s1, s2 = (int(r["sum(n)"]), int(r["sum(s1)"]),
                     int(r["sum(s2)"]))
        var_num = s2 * n - s1 * s1  # exact
        sd = (float(np.sqrt(float(var_num) / (n * (n - 1.0))))
              if n > 1 and var_num > 0 else 0.0)
        stats[r["event_type"]] = (n, s1, sd)
    ref = ray.put(stats)

    def z(batch: pa.Table, *, _ref=ref) -> pa.Table:
        table = _ref if isinstance(_ref, dict) else ray.get(_ref)
        # dictionary-encode event_type: the stats lookup runs once per
        # DISTINCT type in the batch, then gathers by code — no
        # per-row Python dict hits on a corpus-sized pass
        enc = pc.dictionary_encode(
            batch.column("event_type")).combine_chunks()
        uniq = enc.dictionary.to_pylist()
        ns_l = np.array([table[t][0] for t in uniq], dtype=np.int64)
        s1_l = np.array([table[t][1] for t in uniq], dtype=np.int64)
        sd_l = np.array([table[t][2] for t in uniq], dtype=np.float64)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ns, s1, sd = ns_l[codes], s1_l[codes], sd_l[codes]
        c = np.floor(batch.column("value")
                     .to_numpy(zero_copy_only=False) * 100.0
                     + 0.5).astype(np.int64)
        out = np.zeros(len(c), dtype=np.int64)
        denom_ok = (ns > 1) & (sd > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            zval = (c * ns - s1) * 1000000.0 / (ns * sd)
        out[denom_ok] = np.floor(
            zval[denom_ok] + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [batch.column("event_id").cast(pa.int64()),
             batch.column("event_type"), pa.array(out)],
            names=["event_id", "event_type", "z_micro"])

    return ds.select_columns(["event_id", "event_type", "value"]) \
        .map_batches(z, batch_format="pyarrow", zero_copy_batch=True)


FUNNEL_STAGES = ("view", "click", "purchase")


def funnel_stages(ds, stages: tuple[str, ...] = FUNNEL_STAGES,
                  n_buckets: int = 256):
    """(user_id, stage): strict-order funnel — stage = how many steps of
    ``stages`` the user completed, where step i+1 must occur strictly
    AFTER the earliest completion time of step i (the classic
    view→click→purchase conversion funnel).  Users present in events
    but never reaching step 1 report stage 0.

    All events of a user co-locate via the usual hash(user_id) bucket
    shuffle; within a bucket NO sort is needed — each stage is one
    masked ``np.minimum.at`` scatter (earliest qualifying timestamp per
    user), chained with a strict > comparison against the previous
    stage's per-user time.  O(stages · bucket_rows), no per-user
    Python."""
    INF = np.iinfo(np.int64).max

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def funnel_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        users, codes = np.unique(uid, return_inverse=True)
        prev = np.full(len(users), -1, dtype=np.int64)  # ts of stage i
        stage = np.zeros(len(users), dtype=np.int64)
        for s in stages:
            cur = np.full(len(users), INF, dtype=np.int64)
            sel = (et == s) & (ts > prev[codes])
            np.minimum.at(cur, codes[sel], ts[sel])
            reached = cur < INF
            stage[reached] += 1
            # users that stalled keep prev = INF so later stages fail
            prev = np.where(reached, cur, INF)
        return pa.Table.from_arrays(
            [pa.array(users.astype(np.int64)), pa.array(stage)],
            names=["user_id", "stage"])

    return ds.select_columns(["user_id", "ts", "event_type"]) \
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(funnel_bucket,
                                      batch_format="pyarrow")


_DAY_US = 86_400_000_000


def retention_cohorts(ds, n_buckets: int = 256):
    """(cohort, day_offset, n_users): classic retention triangle —
    users grouped by first-seen calendar day (the cohort), counted as
    active again on each later day offset.  day_offset 0 row = cohort
    size.

    ONE bucketed all-to-all: all events of a user co-locate by
    hash(user_id), so the user's first day AND the distinct set of
    (user, day) pairs are both in-bucket computable (minimum.at + one
    np.unique over packed (user_code, day) keys — no sort, no per-user
    Python); the shuffle out of the bucket ships one row per distinct
    (user, day), and a count aggregate by (cohort, offset) finishes
    (rows are distinct per user by construction, so count == distinct
    users)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def cohort_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // _DAY_US                     # epoch-day index
        users, codes = np.unique(uid, return_inverse=True)
        d0 = np.full(len(users), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(d0, codes, day)
        # distinct (user, day): pack into one key (day fits far below
        # 2**40, user codes below 2**23 per bucket at any real scale)
        packed = np.unique(codes.astype(np.int64) * (1 << 40) + day)
        pu = (packed >> 40).astype(np.int64)
        pd_ = (packed & ((1 << 40) - 1)).astype(np.int64)
        cohort_day = d0[pu]
        offset = pd_ - cohort_day
        dates = (np.datetime64("1970-01-01") +
                 cohort_day.astype("timedelta64[D]")).astype(str)
        return pa.Table.from_arrays(
            [pa.array(dates.tolist(), pa.string()),
             pa.array(offset, pa.int64())],
            names=["cohort", "day_offset"])

    rows = ds.select_columns(["user_id", "ts"]) \
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(cohort_bucket,
                                      batch_format="pyarrow")

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_users", pa.array(np.ones(batch.num_rows, dtype=np.int64)))

    summed = aggregate(
        rows.map_batches(ones, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["cohort", "day_offset"], ("sum", "n_users"))
    return summed.map_batches(
        lambda b: b.rename_columns(["cohort", "day_offset", "n_users"]),
        batch_format="pyarrow", zero_copy_batch=True)


def event_transitions(ds, n_buckets: int = 256):
    """(prev_type, event_type, n): corpus-wide Markov transition counts
    over each user's time-ordered event stream — the first-order
    sequence-mining summary (which action follows which).  Matches
    LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
    + GROUP BY, so the SQL oracle is live and exact.

    Scale shape (same as lag_deltas): ONE corpus shuffle keyed by
    hash(user_id) % n_buckets co-locates each user's stream; inside a
    bucket one lexsort orders every user at once and the transition
    pairs collapse to an Arrow group_by count BEFORE leaving the
    bucket, so the second exchange ships at most |types|² rows per
    bucket — constant, never event-proportional."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(uid, n_buckets)))

    def trans_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column("event_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # dictionary-encode types once; transitions ride int codes
        enc = pc.dictionary_encode(
            group.column("event_type").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, codes = uid[order], codes[order]
        same_user = uid[1:] == uid[:-1]
        prev_c = codes[:-1][same_user]
        cur_c = codes[1:][same_user]
        pair = prev_c * len(enc.dictionary) + cur_c
        vals, counts = np.unique(pair, return_counts=True)
        types = enc.dictionary
        return pa.Table.from_arrays(
            [types.take(pa.array(vals // len(types))),
             types.take(pa.array(vals % len(types))),
             pa.array(counts.astype(np.int64))],
            names=["prev_type", "event_type", "n"])

    partials = ds.select_columns(
        ["event_id", "user_id", "ts", "event_type"]) \
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(trans_bucket,
                                      batch_format="pyarrow")
    summed = aggregate(partials, ["prev_type", "event_type"], ("sum", "n"))
    return summed.map_batches(
        lambda b: b.rename_columns(["prev_type", "event_type", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)


def props_field_stats(ds, field: str = "k"):
    """(event_type, n_with_field, field_sum): semi-structured payload
    aggregation — extract an integer field from the JSON ``props``
    string column with one RE2 kernel pass (no per-row json.loads;
    Arrow's extract_regex and DuckDB's regexp_extract are the same
    regex engine → bit-exact live SQL parity) and reduce per event
    type with the usual per-batch combiner.  Events whose props lack
    the field don't count.  Integer sums → order-invariant."""
    pat = f'"{field}":\\s*(?P<v>-?[0-9]+)'

    def partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch.column("props"), pattern=pat)
        if isinstance(ex, pa.ChunkedArray):
            ex = ex.combine_chunks()
        v = pc.struct_field(ex, "v")
        ok = pc.is_valid(v)
        vals = pc.if_else(ok, v, "0").cast(pa.int64())
        t = pa.Table.from_arrays(
            [batch.column("event_type"),
             ok.cast(pa.int64()), vals],
            names=["event_type", "n_with_field", "field_sum"])
        agg = t.group_by("event_type").aggregate(
            [("n_with_field", "sum"), ("field_sum", "sum")])
        return agg.rename_columns(
            ["event_type", "n_with_field", "field_sum"])

    partials = ds.select_columns(["event_type", "props"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    summed = aggregate(partials, "event_type",
                       ("sum", "n_with_field"), ("sum", "field_sum"))
    return summed.map_batches(
        lambda b: b.rename_columns(
            ["event_type", "n_with_field", "field_sum"]),
        batch_format="pyarrow", zero_copy_batch=True)


def mode_by_type(ds, n_buckets: int = 256):
    """(event_type, mode_cents, n): each event type's most frequent
    value (integer cents), ties broken to the SMALLEST value so the
    answer is deterministic — the exact-mode profile statistic.

    Classic two-level combiner: per-batch (type, cents, n) partial
    counts (one factorize + bincount over packed codes — the shuffle
    ships distinct pairs per block, never events), one keyed
    aggregate(type, cents).sum, then a per-type argmax over that
    already-tiny table via groupby(type).map_groups (group payload =
    the type's distinct values, not its events)."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column("value")
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        tcodes, tuniq = pd.factorize(
            batch.column("event_type").to_pandas(), sort=False)
        ccodes, cuniq = pd.factorize(pd.Series(cents), sort=False)
        packed = tcodes.astype(np.int64) * len(cuniq) + ccodes
        cnt = np.bincount(packed)
        nz = np.flatnonzero(cnt)
        return pa.Table.from_arrays(
            [pa.array([str(tuniq[i // len(cuniq)]) for i in nz],
                      pa.string()),
             pa.array(cuniq.to_numpy()[nz % len(cuniq)]
                      .astype(np.int64)),
             pa.array(cnt[nz], pa.int64())],
            names=["event_type", "cents", "n"])

    def pick(group: pa.Table) -> pa.Table:
        cents = group.column("cents").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((cents, -n))       # max count, then min value
        i = order[0]
        return pa.Table.from_arrays(
            [group.column("event_type").slice(0, 1),
             pa.array([int(cents[i])], pa.int64()),
             pa.array([int(n[i])], pa.int64())],
            names=["event_type", "mode_cents", "n"])

    return aggregate(
        ds.select_columns(["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["event_type", "cents"], ("sum", "n")) \
        .map_batches(
            lambda b: b.rename_columns(["event_type", "cents", "n"]),
            batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("event_type").map_groups(pick, batch_format="pyarrow")


def latest_events(ds, n_buckets: int = 256):
    """(user_id, event_id, event_type, cents): each user's most recent
    event — the upsert-compaction / "latest record per key" primitive a
    mutable-log table needs before training-data extraction.  Latest =
    max ts, ties broken to the largest event_id, so the survivor is
    deterministic.

    Two-level argmax, never a per-user group: every block first
    compacts to one candidate row per user it contains (lexsort by
    (user, ts, event_id), keep each run's last row), so the shuffle
    ships at most |distinct users in block| rows; the single exchange
    groups by hash(user_id) % n_buckets and the same lexsort kernel
    picks the global survivor inside each bucket.  A hot user is one
    longer run inside one bucket, not a straggler group."""

    def _keep_latest(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts_us").to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        last = np.nonzero(np.append(u[1:] != u[:-1], True))[0]
        idx = pa.array(order[last])
        return pa.Table.from_arrays(
            [t.column("user_id").take(idx),
             t.column("ts_us").take(idx),
             t.column("event_id").take(idx),
             t.column("event_type").take(idx),
             t.column("cents").take(idx)],
            names=["user_id", "ts_us", "event_id", "event_type",
                   "cents"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column("value")
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        t = pa.Table.from_arrays(
            [batch.column("user_id").cast(pa.int64()),
             batch.column("ts").cast(pa.timestamp("us"))
             .cast(pa.int64()),
             batch.column("event_id").cast(pa.int64()),
             batch.column("event_type"),
             pa.array(cents)],
            names=["user_id", "ts_us", "event_id", "event_type",
                   "cents"])
        t = _keep_latest(t)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        return t.append_column("bucket",
                               pa.array(_ibucket(uid, n_buckets)))

    def final_bucket(group: pa.Table) -> pa.Table:
        t = _keep_latest(group)
        return pa.Table.from_arrays(
            [t.column("user_id"), t.column("event_id"),
             t.column("event_type"), t.column("cents")],
            names=["user_id", "event_id", "event_type", "cents"])

    return ds.select_columns(
        ["event_id", "ts", "user_id", "event_type", "value"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(final_bucket,
                                      batch_format="pyarrow")


def event_cooccurrence(ds, n_buckets: int = 256):
    """(type_a, type_b, n_users) with type_a < type_b: for every
    unordered pair of event types, how many distinct users performed
    BOTH — the market-basket co-occurrence table behind lift/PMI
    recommenders and feature-correlation audits.

    The co-occurrence matrix is a transpose-product: inside each
    user-hash bucket a boolean user×type membership matrix M is built
    (distinct (user, type) rows only — each block pre-distincts before
    the shuffle, so the exchange ships at most |users|·|types| rows
    total, never events) and Mᵀ·M counts every pair at once.  Type
    cardinality is small and fixed, so each bucket emits a constant
    |types|² partial and the final groupby is constant-size.  No pair
    enumeration per user, no per-user groups."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        typ = batch.column("event_type").to_pandas()
        ucodes, _uuniq = pd.factorize(pd.Series(uid), sort=False)
        tcodes, tuniq = pd.factorize(typ, sort=False)
        packed = np.unique(ucodes.astype(np.int64) * len(tuniq)
                           + tcodes)
        u = _uuniq.to_numpy()[packed // len(tuniq)]
        t = tuniq.to_numpy()[packed % len(tuniq)]
        return pa.Table.from_arrays(
            [pa.array(_ibucket(u.astype(np.int64), n_buckets)),
             pa.array(u.astype(np.int64)),
             pa.array([str(x) for x in t], pa.string())],
            names=["bucket", "user_id", "event_type"])

    def count_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        typ = np.asarray(group.column("event_type").to_pylist())
        uuniq, ucodes = np.unique(uid, return_inverse=True)
        tuniq, tcodes = np.unique(typ, return_inverse=True)
        m = np.zeros((len(uuniq), len(tuniq)), dtype=bool)
        m[ucodes, tcodes] = True          # re-distincts across blocks
        counts = m.astype(np.int64).T @ m.astype(np.int64)
        ia, ib = np.triu_indices(len(tuniq), k=1)
        n = counts[ia, ib]
        keep = n > 0
        return pa.Table.from_arrays(
            [pa.array(tuniq[ia[keep]], pa.string()),
             pa.array(tuniq[ib[keep]], pa.string()),
             pa.array(n[keep])],
            names=["type_a", "type_b", "n_users"])

    return aggregate(
        ds.select_columns(["user_id", "event_type"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True)
        .groupby("bucket").map_groups(count_bucket,
                                      batch_format="pyarrow"),
        ["type_a", "type_b"], ("sum", "n_users")) \
        .map_batches(lambda b: b.rename_columns(
            ["type_a", "type_b", "n_users"]),
            batch_format="pyarrow", zero_copy_batch=True)


def ks_drift(ds, n_buckets: int = 256):
    """One-row (d_micro,): the exact two-sample Kolmogorov-Smirnov
    statistic D = max|F_a − F_b| between the value distributions of the
    user_id%2==0 and %2==1 halves — the drift detector a pipeline runs
    between yesterday's corpus and today's before trusting a quality
    model.  D is computed as exact integer micros:
    ⌊max|Fa·nb − Fb·na| · 10⁶ / (na·nb)⌋ in Python big-ints (the SQL
    oracle's HUGEINT arithmetic), so the scalar matches bit-for-bit.

    Scale shape: per-batch (cents, side) count partials (combiner) →
    one sum aggregate by cents — after which the table has ONE row
    per distinct cents value, bounded by the value domain (like the
    quantile-threshold tables), NOT by corpus size — so the driver
    finish (sort, cumsum, max) is a constant-size reduction."""
    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column("value")
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        side = (batch.column("user_id").cast(pa.int64())
                .to_numpy(zero_copy_only=False) % 2).astype(np.int64)
        order = np.lexsort((side, cents))
        v, s = cents[order], side[order]
        new = np.append(True, (v[1:] != v[:-1]) | (s[1:] != s[:-1]))
        starts = np.nonzero(new)[0]
        counts = np.diff(np.append(starts, len(v)))
        va, sa = v[starts], s[starts]
        return pa.Table.from_arrays(
            [pa.array(va),
             pa.array(np.where(sa == 0, counts, 0).astype(np.int64)),
             pa.array(np.where(sa == 1, counts, 0).astype(np.int64))],
            names=["v", "ca", "cb"])

    agg = aggregate(
        ds.select_columns(["user_id", "value"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "v", ("sum", "ca"), ("sum", "cb"))
    rows = agg.take_all()           # one row per DISTINCT cents value
    rows.sort(key=lambda r: r["v"])
    fa = fb = 0
    na = sum(int(r["sum(ca)"]) for r in rows)
    nb = sum(int(r["sum(cb)"]) for r in rows)
    if na == 0 or nb == 0:
        return pa.table({"d_micro": pa.array([0], pa.int64())})
    best = 0
    for r in rows:                  # constant-size driver loop
        fa += int(r["sum(ca)"])
        fb += int(r["sum(cb)"])
        best = max(best, abs(fa * nb - fb * na))
    return pa.table({"d_micro": pa.array(
        [best * 1_000_000 // (na * nb)], pa.int64())})


def user_paths(ds, n_buckets: int = 256):
    """(user_id, path): each user's full ordered event-type sequence
    joined with '>' — the raw material of path/funnel mining and
    session-to-training-text rendering.  Order = (ts, event_id), so
    ties are deterministic and the string matches the SQL
    ``string_agg(... ORDER BY ts, event_id)`` exactly.

    One hash(user) exchange of (user, ts_us, event_id, type) rows;
    each cell lexsorts once and builds every user's string with ONE
    Arrow binary_join over a ListArray sliced by the user run
    boundaries — no per-user Python loop, no per-user groups."""
    def emit(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(uid, n_buckets)), pa.array(uid),
             batch.column("ts").cast(pa.timestamp("us"))
             .cast(pa.int64()),
             batch.column("event_id").cast(pa.int64()),
             batch.column("event_type")],
            names=["bucket", "user_id", "ts_us", "event_id",
                   "event_type"])

    def join_cell(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts_us").to_numpy(zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        starts = np.nonzero(np.append(True, u[1:] != u[:-1]))[0]
        offsets = np.append(starts, len(u)).astype(np.int32)
        types = group.column("event_type").take(pa.array(order))
        types = (types.combine_chunks()
                 if isinstance(types, pa.ChunkedArray) else types)
        lst = pa.ListArray.from_arrays(pa.array(offsets), types)
        paths = pc.binary_join(lst, ">")
        return pa.Table.from_arrays(
            [pa.array(u[starts]), paths],
            names=["user_id", "path"])

    return ds.select_columns(
        ["user_id", "ts", "event_id", "event_type"]) \
        .map_batches(emit, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(join_cell,
                                      batch_format="pyarrow")


def ks_by_type(ds, n_buckets: int = 256):
    """(event_type, d_micro): per-type exact Kolmogorov-Smirnov
    statistic of that type's value distribution against the REST of
    the corpus — `ks_drift`'s per-segment companion (which feed's
    values drifted, not just whether anything did).

    Same reduction posture as ks_drift: per-batch (type, cents) count
    partials (combiner) → one keyed aggregate — the result has one row
    per DISTINCT (type, cents) pair, bounded by |types| × the value
    domain, never corpus size — then a driver finish walks the global
    sorted grid once per type with Python big-int cross-products (the
    oracle's HUGEINT arithmetic exactly)."""
    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column("value")
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        types = np.asarray(batch.column("event_type").to_pylist(),
                           dtype=object)
        order = np.lexsort((cents, types))
        t, v = types[order], cents[order]
        new = np.append(True, (t[1:] != t[:-1]) | (v[1:] != v[:-1]))
        starts = np.nonzero(new)[0]
        counts = np.diff(np.append(starts, len(v)))
        return pa.Table.from_arrays(
            [pa.array(t[starts].astype(str), pa.string()),
             pa.array(v[starts]),
             pa.array(counts.astype(np.int64))],
            names=["g", "v", "n"])

    rows = aggregate(
        ds.select_columns(["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["g", "v"], ("sum", "n")).take_all()
    # distinct (type, cents) table — constant-bounded driver finish
    from collections import defaultdict
    per_gv: dict[str, dict[int, int]] = defaultdict(dict)
    tot_v: dict[int, int] = defaultdict(int)
    for r in rows:
        g, v, n = r["g"], int(r["v"]), int(r["sum(n)"])
        per_gv[g][v] = per_gv[g].get(v, 0) + n
        tot_v[v] += n
    grid = sorted(tot_v)
    total = sum(tot_v.values())
    out_g, out_d = [], []
    for g in sorted(per_gv):
        ng = sum(per_gv[g].values())
        nr = total - ng
        if ng == 0 or nr == 0:
            out_g.append(g)
            out_d.append(0)
            continue
        fg = fr = best = 0
        for v in grid:
            n = per_gv[g].get(v, 0)
            fg += n
            fr += tot_v[v] - n
            best = max(best, abs(fg * nr - fr * ng))
        out_g.append(g)
        out_d.append(best * 1_000_000 // (ng * nr))
    return pa.table({"event_type": pa.array(out_g, pa.string()),
                     "d_micro": pa.array(out_d, pa.int64())})


def conversion_latency(ds, from_type: str = "signup",
                       to_type: str = "purchase",
                       n_buckets: int = 256):
    """(user_id, latency_us): time from a user's FIRST ``from_type``
    event to their first ``to_type`` event AT OR AFTER it — the
    conversion-latency table behind funnel timing distributions; users
    who never complete the pair are absent (inner semantics).

    One hash(user) exchange of only the two relevant event types
    (filtered at the combiner, so the shuffle ships a fraction of the
    corpus); each cell lexsorts once by (user, ts) and resolves both
    "first X" and "first Y ≥ first X" with vectorized segment scans —
    no per-user groups, no window function emulation row by row."""
    def emit(batch: pa.Table) -> pa.Table:
        types = batch.column("event_type")
        keep = pc.is_in(types, value_set=pa.array(
            [from_type, to_type]))
        b = batch.filter(keep)
        uid = b.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        is_from = pc.equal(b.column("event_type"),
                           from_type).to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(uid, n_buckets)), pa.array(uid),
             b.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
             pa.array(is_from.astype(np.int8))],
            names=["bucket", "user_id", "ts_us", "is_from"])

    def resolve(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts_us").to_numpy(zero_copy_only=False)
        isf = group.column("is_from").to_numpy(
            zero_copy_only=False).astype(bool)
        order = np.lexsort((ts, uid))
        u, t, f = uid[order], ts[order], isf[order]
        uniq, starts = np.unique(u, return_index=True)
        ends = np.append(starts[1:], len(u))
        # first from_type ts per user (inf when absent)
        big = np.int64(2**62)
        tf = np.where(f, t, big)
        first_from = np.minimum.reduceat(tf, starts)
        # first to_type ts >= first_from per user
        tt = np.where(~f, t, big)
        tt = np.where(tt >= np.repeat(first_from,
                                      ends - starts), tt, big)
        first_to = np.minimum.reduceat(tt, starts)
        ok = (first_from < big) & (first_to < big)
        return pa.Table.from_arrays(
            [pa.array(uniq[ok]),
             pa.array(first_to[ok] - first_from[ok])],
            names=["user_id", "latency_us"])

    return ds.select_columns(["user_id", "ts", "event_type"]) \
        .map_batches(emit, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def cusum_changepoints(ds):
    """(event_type, cp_day, score): offline CUSUM changepoint per
    event type over its DAILY value series — the calendar day ``k``
    maximizing ``|n·prefix_k − k·total|`` over the type's day-ordered
    daily cents sums (the max-|CUSUM| deviation-from-uniform
    statistic, scaled by ``n`` so it stays integer; ties break to the
    earliest day).  This is the drift monitor a feed owner reads to
    find WHEN a pipeline's value distribution shifted, complementing
    `ks_drift`/`ks_by_type` which say only THAT it shifted.

    Reduction posture (the `ks_by_type` convention): per-batch
    (type, epoch_day, cents) sum partials — a combiner, all numpy —
    then ONE keyed aggregate whose result has one row per DISTINCT
    (type, day), bounded by |types| × calendar days, never corpus
    size; a constant-size driver finish walks each type's day-ordered
    series once in Python big-int arithmetic (the oracle's HUGEINT
    exactly — in int64 ``n·prefix`` would wrap once a type's cents
    total exceeds ~9.2e18/n_days).  The emitted ``score`` column is
    int64 and therefore shares that bound; documented, not silently
    wrapped — the finish raises on overflow rather than truncate.
    """
    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // _DAY_US
        cents = np.rint(batch.column("value")
                        .to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)
        types = np.asarray(batch.column("event_type").to_pylist(),
                           dtype=object)
        order = np.lexsort((day, types))
        t, d, c = types[order], day[order], cents[order]
        new = np.append(True, (t[1:] != t[:-1]) | (d[1:] != d[:-1]))
        starts = np.nonzero(new)[0]
        sums = np.add.reduceat(c, starts)
        return pa.Table.from_arrays(
            [pa.array(t[starts].astype(str), pa.string()),
             pa.array(d[starts]), pa.array(sums.astype(np.int64))],
            names=["g", "day", "x"])

    rows = aggregate(
        ds.select_columns(["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["g", "day"], ("sum", "x")).take_all()
    # distinct (type, day) table — constant-bounded driver finish
    from collections import defaultdict
    series: dict[str, dict[int, int]] = defaultdict(dict)
    for r in rows:
        g, d, x = r["g"], int(r["day"]), int(r["sum(x)"])
        series[g][d] = series[g].get(d, 0) + x
    out_g, out_day, out_score = [], [], []
    i64max = (1 << 63) - 1
    for g in sorted(series):
        days = sorted(series[g])
        n = len(days)
        tot = sum(series[g].values())
        pre = 0
        best = -1
        best_day = None
        for k, d in enumerate(days, start=1):
            pre += series[g][d]
            s = abs(n * pre - k * tot)      # Python big-int: exact
            if s > best:
                best, best_day = s, d
        if best > i64max:
            raise OverflowError(
                f"cusum score {best} for {g!r} exceeds int64; "
                "rescale the value unit before emitting")
        out_g.append(g)
        out_day.append(str(np.datetime64("1970-01-01")
                           + np.timedelta64(int(best_day), "D")))
        out_score.append(best)
    return pa.table({"event_type": pa.array(out_g, pa.string()),
                     "cp_day": pa.array(out_day, pa.string()),
                     "score": pa.array(out_score, pa.int64())})


def top_event_trigrams(ds, k: int = 50, n_buckets: int = 256):
    """(trigram, n): corpus-wide counts of length-3 CONSECUTIVE
    event-type sequences within a user's (ts, event_id)-ordered
    stream, top-``k`` by (n desc, trigram asc) — the sequential-
    pattern census behind funnel discovery (`event_transitions` is
    its bigram sibling; three steps is where intent chains like
    view>click>purchase become visible).

    ONE hash(user)%``n_buckets`` exchange of (user, ts, event_id,
    type) rows; each cell lexsorts once, forms trigrams with two
    shifted Arrow gathers + one ``binary_join_element_wise`` (pairs
    crossing a user boundary masked out — no per-user loop), and
    pre-counts with Arrow ``value_counts`` so the second exchange
    ships (trigram, partial_n) rows only; one sum aggregate and
    a tiny deterministic sort+limit finish (the `top_bigrams`
    convention)."""
    def emit(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(uid, n_buckets)), pa.array(uid),
             batch.column("ts").cast(pa.timestamp("us"))
             .cast(pa.int64()),
             batch.column("event_id").cast(pa.int64()),
             batch.column("event_type")],
            names=["bucket", "user_id", "ts_us", "event_id",
                   "event_type"])

    def count_cell(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["trigram", "n"])
        if group.num_rows < 3:
            return empty
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts_us").to_numpy(zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        types = group.column("event_type").take(pa.array(order))
        types = (types.combine_chunks()
                 if isinstance(types, pa.ChunkedArray) else types)
        m = len(u) - 2
        keep = (u[:m] == u[1:m + 1]) & (u[:m] == u[2:])
        if not keep.any():
            return empty
        mask = pa.array(keep)
        t0 = types.slice(0, m).filter(mask)
        t1 = types.slice(1, m).filter(mask)
        t2 = types.slice(2, m).filter(mask)
        tri = pc.binary_join_element_wise(t0, t1, t2, ">")
        vc = pc.value_counts(tri)
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["trigram", "n"])

    partials = ds.select_columns(
        ["user_id", "ts", "event_id", "event_type"]) \
        .map_batches(emit, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(count_cell,
                                      batch_format="pyarrow")
    summed = aggregate(partials, "trigram", ("sum", "n")).map_batches(
        lambda b: b.rename_columns(["trigram", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return summed.sort(["n", "trigram"],
                       descending=[True, False]).limit(k)


def dow_profile(ds):
    """(event_type, dow, n, sum_cents): the weekly seasonality profile
    — event counts and exact cents totals per (type, ISO day-of-week,
    Monday=1) — the calendar fingerprint a drift monitor baselines
    before `cusum_changepoints` flags a shift (weekday/weekend mix
    changes masquerade as value drift otherwise).

    Pure combiner: per batch one vectorized epoch-day → weekday map
    (the 1970-01-01 Thursday anchor, no calendar library) + lexsort
    reduceat partials, then ONE keyed aggregate over the ≤ |types|×7
    row table."""
    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // _DAY_US
        dow = (day + 3) % 7 + 1          # epoch day 0 = Thursday = 4
        cents = np.rint(batch.column("value")
                        .to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)
        types = np.asarray(batch.column("event_type").to_pylist(),
                           dtype=object)
        order = np.lexsort((dow, types))
        t, d, c = types[order], dow[order], cents[order]
        new = np.append(True, (t[1:] != t[:-1]) | (d[1:] != d[:-1]))
        starts = np.nonzero(new)[0]
        n = np.diff(np.append(starts, len(t)))
        sums = np.add.reduceat(c, starts)
        return pa.Table.from_arrays(
            [pa.array(t[starts].astype(str), pa.string()),
             pa.array(d[starts]), pa.array(n.astype(np.int64)),
             pa.array(sums.astype(np.int64))],
            names=["event_type", "dow", "n", "sum_cents"])

    return aggregate(
        ds.select_columns(["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["event_type", "dow"], ("sum", "n"), ("sum", "sum_cents")) \
        .map_batches(lambda b: b.rename_columns(
            ["event_type", "dow", "n", "sum_cents"]),
            batch_format="pyarrow", zero_copy_batch=True) \
        .sort(["event_type", "dow"])


def poisson_bootstrap(ds, n_replicas: int = 32):
    """(replica, n, sum_cents): the Poisson bootstrap — ``n_replicas``
    deterministic resamples of the events value stream, each row
    appearing in replica b with multiplicity ~ Poisson(1) — the
    distributed-native way to put a confidence interval on any
    streaming aggregate (classic bootstrap resampling needs the whole
    dataset in one place; Poisson multiplicities are independent per
    row, so each replica is just a weighted combiner pass).  A
    consumer derives the CI from the B replica (sum, n) rows.

    Determinism is content-addressed (no RNG state): row r's
    multiplicity in replica b inverts the Poisson(1) CDF at the
    splitmix64 uniform of (event_id·B + b) — blocking/parallelism
    invariant, golden-replayable.  All shipped numbers are int64
    (cents × small multiplicities); the shuffle carries B partial
    rows per block, never events."""
    cdf = np.cumsum([np.exp(-1.0) / _fact(i) for i in range(8)])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        cents = np.rint(batch.column("value")
                        .to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)
        b = np.arange(n_replicas, dtype=np.uint64)
        x = ids[:, None] * np.uint64(n_replicas) + b[None, :]
        # splitmix64 finalizer (the _hash64 integer path)
        x = x + np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        u = z.astype(np.float64) / float(2**64)
        w = np.searchsorted(cdf, u).astype(np.int64)   # Poisson(1) draw
        return pa.Table.from_arrays(
            [pa.array(np.arange(n_replicas, dtype=np.int64)),
             pa.array(w.sum(axis=0)),
             pa.array((w * cents[:, None]).sum(axis=0))],
            names=["replica", "n", "sum_cents"])

    return aggregate(
        ds.select_columns(["event_id", "value"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "replica", ("sum", "n"), ("sum", "sum_cents")) \
        .map_batches(lambda b: b.rename_columns(
            ["replica", "n", "sum_cents"]),
            batch_format="pyarrow", zero_copy_batch=True) \
        .sort("replica")


def _fact(i: int) -> float:
    out = 1.0
    for j in range(2, i + 1):
        out *= j
    return out


def attribution_split(ds, touch_type: str = "view",
                      convert_type: str = "purchase",
                      n_buckets: int = 256):
    """(user_id, convert_id, first_touch_id, last_touch_id, cents):
    marketing-style conversion attribution — for each ``convert_type``
    event, the converting user's FIRST and LAST ``touch_type`` event
    at-or-before it in (ts, event_id) order, with the conversion's
    exact cents value ready to credit under either first- or
    last-touch policy.  Conversions with no prior touch emit nothing.

    ONE hash(user)%``n_buckets`` exchange (a user's touches and
    conversions co-locate), then per cell one lexsort + two segmented
    prefix scans, both loop-free via the K-offset trick: accumulate
    max over (value + K·run_id) with K > any in-run value, subtract
    K·run_id back — values from earlier user runs land at or below
    the in-run "none" sentinel, so runs reset exactly without a
    per-user loop."""
    def emit(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        cents = np.rint(batch.column("value")
                        .to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(uid, n_buckets)), pa.array(uid),
             batch.column("ts").cast(pa.timestamp("us"))
             .cast(pa.int64()),
             batch.column("event_id").cast(pa.int64()),
             batch.column("event_type"), pa.array(cents)],
            names=["bucket", "user_id", "ts_us", "event_id",
                   "event_type", "cents"])

    empty = pa.Table.from_arrays(
        [pa.array([], pa.int64()), pa.array([], pa.int64()),
         pa.array([], pa.int64()), pa.array([], pa.int64()),
         pa.array([], pa.int64())],
        names=["user_id", "convert_id", "first_touch_id",
               "last_touch_id", "cents"])

    def resolve(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return empty
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts_us").to_numpy(zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        types = np.asarray(group.column("event_type").to_pylist(),
                           dtype=object)
        cents = group.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, e, ty, c = uid[order], eid[order], types[order], cents[order]
        n = len(u)
        pos = np.arange(n, dtype=np.int64)
        starts = np.append(True, u[1:] != u[:-1])
        run_id = (np.cumsum(starts) - 1).astype(np.int64)
        is_touch = ty == touch_type
        K = np.int64(n + 2)
        # last touch so far: segmented prefix max of pos (-1 = none)
        tp = np.where(is_touch, pos, np.int64(-1))
        lpos = np.maximum.accumulate(tp + K * run_id) - K * run_id
        # first touch so far: segmented prefix max of (n - pos)
        fp = np.where(is_touch, np.int64(n) - pos, np.int64(0))
        fmax = np.maximum.accumulate(fp + K * run_id) - K * run_id
        is_conv = ty == convert_type
        ok = is_conv & (fmax > 0)
        if not ok.any():
            return empty
        fpos = (np.int64(n) - fmax[ok]).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(u[ok]), pa.array(e[ok]),
             pa.array(e[fpos]), pa.array(e[lpos[ok]]),
             pa.array(c[ok])],
            names=["user_id", "convert_id", "first_touch_id",
                   "last_touch_id", "cents"])

    return ds.select_columns(
        ["user_id", "ts", "event_id", "event_type", "value"]) \
        .map_batches(emit, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def ltv_cohorts(ds, value_type: str = "purchase", n_buckets: int = 256):
    """(cohort, day_offset, n_users, sum_cents): the lifetime-value
    triangle — users grouped by first-seen calendar day (ANY event
    type starts the clock), with each later day-offset's distinct
    active users and the exact cents total of that day's
    ``value_type`` events — `retention_cohorts` carrying money (the
    revenue-weighted retention a growth team actually reads).

    ONE bucketed all-to-all (hash(user) co-locates a user's events):
    in-bucket the user's first day comes from one np.minimum.at, the
    distinct (user, day) activity pairs from one packed np.unique, and
    the per-(user, day) purchase cents from one lexsort reduceat —
    the shuffle out ships one row per distinct (user, day); a keyed
    aggregate(cohort, offset) sums users and cents exactly."""
    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        cents = np.rint(batch.column("value")
                        .to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)
        is_val = np.asarray(
            batch.column("event_type").to_pylist(),
            dtype=object) == value_type
        return pa.Table.from_arrays(
            [pa.array(_ibucket(uid, n_buckets)), pa.array(uid),
             batch.column("ts").cast(pa.timestamp("us"))
             .cast(pa.int64()),
             pa.array(np.where(is_val, cents, 0))],
            names=["bucket", "user_id", "ts_us", "vcents"])

    def cohort_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts_us").to_numpy(zero_copy_only=False)
        vc = group.column("vcents").to_numpy(zero_copy_only=False)
        day = ts // _DAY_US
        users, codes = np.unique(uid, return_inverse=True)
        d0 = np.full(len(users), np.iinfo(np.int64).max,
                     dtype=np.int64)
        np.minimum.at(d0, codes, day)
        # per distinct (user, day): activity row + that day's cents
        packed = codes.astype(np.int64) * (1 << 40) + day
        order = np.argsort(packed, kind="stable")
        p, v = packed[order], vc[order]
        starts = np.nonzero(np.append(True, p[1:] != p[:-1]))[0]
        sums = np.add.reduceat(v, starts)
        pu = (p[starts] >> 40).astype(np.int64)
        pd_ = (p[starts] & ((1 << 40) - 1)).astype(np.int64)
        cohort_day = d0[pu]
        offset = pd_ - cohort_day
        dates = (np.datetime64("1970-01-01")
                 + cohort_day.astype("timedelta64[D]")).astype(str)
        return pa.Table.from_arrays(
            [pa.array(dates.tolist(), pa.string()),
             pa.array(offset),
             pa.array(np.ones(len(offset), dtype=np.int64)),
             pa.array(sums.astype(np.int64))],
            names=["cohort", "day_offset", "n_users", "sum_cents"])

    rows = ds.select_columns(
        ["user_id", "ts", "event_type", "value"]) \
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(cohort_bucket,
                                      batch_format="pyarrow")
    summed = aggregate(rows, ["cohort", "day_offset"],
                       ("sum", "n_users"), ("sum", "sum_cents"))
    return summed.map_batches(
        lambda b: b.rename_columns(
            ["cohort", "day_offset", "n_users", "sum_cents"]),
        batch_format="pyarrow", zero_copy_batch=True) \
        .sort(["cohort", "day_offset"])


def rfm_stats(ds, value_type: str = "purchase"):
    """(user_id, recency_days, frequency, monetary_cents): the classic
    RFM segmentation base — per user, whole days since their LAST
    ``value_type`` event (anchored to the max ``value_type`` event ts
    across the corpus — the same filtered stream being aggregated —
    so the number is deterministic, no wall clock), their count of
    such events, and their exact cents total.  Users with no
    ``value_type`` events emit nothing (they have no R to measure).

    One pass, one exchange: per-batch (user, last_ts, n, cents)
    combiner partials (lexsort + reduceat, all numpy) → one
    ``exchange.aggregate`` by user with max/sum/sum; the anchor is a
    scalar Dataset.max over the SAME filtered stream, and the day
    conversion is a final cheap map."""
    from ray.data.aggregate import Max

    def partial(batch: pa.Table) -> pa.Table:
        is_val = np.asarray(batch.column("event_type").to_pylist(),
                            dtype=object) == value_type
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[is_val]
        ts = batch.column("ts").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)[is_val]
        cents = np.rint(batch.column("value")
                        .to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)[is_val]
        if not len(uid):
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["user_id", "last_ts", "frequency",
                       "monetary_cents"])
        order = np.lexsort((ts, uid))
        u, t, c = uid[order], ts[order], cents[order]
        starts = np.nonzero(np.append(True, u[1:] != u[:-1]))[0]
        n = np.diff(np.append(starts, len(u)))
        ends = np.append(starts[1:], len(u)) - 1
        return pa.Table.from_arrays(
            [pa.array(u[starts]), pa.array(t[ends]),
             pa.array(n.astype(np.int64)),
             pa.array(np.add.reduceat(c, starts))],
            names=["user_id", "last_ts", "frequency",
                   "monetary_cents"])

    partials = ds.select_columns(["user_id", "ts", "event_type",
                                  "value"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()
    anchor = partials.aggregate(Max("last_ts"))["max(last_ts)"]
    summed = aggregate(partials, "user_id",
                       ("max", "last_ts"), ("sum", "frequency"),
                       ("sum", "monetary_cents"))

    def finish(batch: pa.Table) -> pa.Table:
        last = batch.column("max(last_ts)") \
            .to_numpy(zero_copy_only=False)
        rec = (np.int64(anchor) - last) // _DAY_US
        return pa.Table.from_arrays(
            [batch.column("user_id").cast(pa.int64()),
             pa.array(rec.astype(np.int64)),
             batch.column("sum(frequency)").cast(pa.int64()),
             batch.column("sum(monetary_cents)").cast(pa.int64())],
            names=["user_id", "recency_days", "frequency",
                   "monetary_cents"])

    return summed.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def session_table(ds, gap_minutes: int = SESSION_GAP_MINUTES,
                  n_buckets: int = 256):
    """(user_id, session_idx, start_us, end_us, n_events): the
    materialized per-SESSION fact table — `sessionize` answers "how
    many sessions per user", this emits each session itself (1-based
    index in (ts, event_id) order, inclusive bounds, event count) —
    the table product analytics joins everything else against.

    ONE hash(user) exchange; in-bucket one lexsort, one vectorized
    break vector (user change OR gap > ``gap_minutes``), a segmented
    cumulative sum for the session index (global cumsum of breaks
    minus each user run's base — no per-user loop), and reduceat
    min/max/count per session run."""
    gap_us = gap_minutes * 60 * 1_000_000

    def emit(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(uid, n_buckets)), pa.array(uid),
             batch.column("ts").cast(pa.timestamp("us"))
             .cast(pa.int64()),
             batch.column("event_id").cast(pa.int64())],
            names=["bucket", "user_id", "ts_us", "event_id"])

    def sessions(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts_us").to_numpy(zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], ts[order]
        n = len(u)
        new_user = np.append(True, u[1:] != u[:-1])
        brk = new_user | np.append(
            False, (t[1:] - t[:-1]) > gap_us)
        csum = np.cumsum(brk)                      # global session no.
        # per-user 1-based index: subtract the cumsum just before the
        # user's first row
        user_starts = np.nonzero(new_user)[0]
        run_id = np.cumsum(new_user) - 1
        base = (csum[user_starts] - 1)[run_id]
        sid = csum - base
        sess_starts = np.nonzero(brk)[0]
        cnt = np.diff(np.append(sess_starts, n))
        ends = np.append(sess_starts[1:], n) - 1
        return pa.Table.from_arrays(
            [pa.array(u[sess_starts]),
             pa.array(sid[sess_starts]),
             pa.array(t[sess_starts]), pa.array(t[ends]),
             pa.array(cnt.astype(np.int64))],
            names=["user_id", "session_idx", "start_us", "end_us",
                   "n_events"])

    return ds.select_columns(["user_id", "ts", "event_id"]) \
        .map_batches(emit, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(sessions, batch_format="pyarrow")


def ab_test_summary(ds, value_type: str = "purchase"):
    """(variant, n_users, n_events, sum_cents, cents_per_user_micro):
    the A/B experiment readout — users deterministically split into
    two variants by the content-addressed md5 coin
    (md5_u63(str(user_id)+'ab') % 2 — re-sharding/cluster-size
    invariant, no RNG state, and crucially INDEPENDENT of user_id
    parity or any business attribute), with each variant's distinct
    converting users, ``value_type`` event count, exact cents total,
    and integer-micros cents-per-user.  Pair with `poisson_bootstrap`
    for the CI on the difference.

    One combiner pass (per-batch distinct-user partials can't be
    exact for n_users, so users ship as per-batch DISTINCT (variant,
    user) rows — bounded by distinct users, never events) + two
    keyed aggregates over variant-keyed tiny tables."""
    import hashlib as _h

    def emit(batch: pa.Table) -> pa.Table:
        is_val = np.asarray(batch.column("event_type").to_pylist(),
                            dtype=object) == value_type
        uid = batch.column("user_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[is_val]
        cents = np.rint(batch.column("value")
                        .to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)[is_val]
        uniq = np.unique(uid)
        var_u = np.fromiter(
            ((int.from_bytes(_h.md5(f"{u}ab".encode()).digest()[:8],
                             "little") & 0x7FFFFFFFFFFFFFFF) % 2
             for u in uniq.tolist()), dtype=np.int64, count=len(uniq))
        var = var_u[np.searchsorted(uniq, uid)]
        order = np.argsort(var, kind="stable")
        v, c = var[order], cents[order]
        starts = np.nonzero(np.append(True, v[1:] != v[:-1]))[0]
        ev = pa.Table.from_arrays(
            [pa.array(v[starts]),
             pa.array(np.diff(np.append(starts, len(v)))
                      .astype(np.int64)),
             pa.array(np.add.reduceat(c, starts)
                      if len(c) else np.array([], np.int64))],
            names=["variant", "n_events", "sum_cents"]) \
            if len(v) else pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["variant", "n_events", "sum_cents"])
        users = pa.Table.from_arrays(
            [pa.array(var_u), pa.array(uniq)],
            names=["variant", "user_id"])
        return ev, users

    def emit_events(batch: pa.Table) -> pa.Table:
        return emit(batch)[0]

    def emit_users(batch: pa.Table) -> pa.Table:
        return emit(batch)[1]

    src = ds.select_columns(["user_id", "event_type", "value"]) \
        .materialize()
    ev = aggregate(
        src.map_batches(emit_events, batch_format="pyarrow",
                        zero_copy_batch=True),
        "variant", ("sum", "n_events"), ("sum", "sum_cents")) \
        .map_batches(lambda b: b.rename_columns(
            ["variant", "n_events", "sum_cents"]),
            batch_format="pyarrow", zero_copy_batch=True).take_all()
    pairs = aggregate(
        src.map_batches(emit_users, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["variant", "user_id"], ("count",))
    nu = aggregate(pairs, "variant", ("count",)).take_all()
    users = {int(r["variant"]): int(r["count()"]) for r in nu}
    out = sorted((int(r["variant"]), int(r["n_events"]),
                  int(r["sum_cents"])) for r in ev)
    return pa.table({
        "variant": pa.array([v for v, _, _ in out], pa.int64()),
        "n_users": pa.array([users[v] for v, _, _ in out], pa.int64()),
        "n_events": pa.array([n for _, n, _ in out], pa.int64()),
        "sum_cents": pa.array([s for _, _, s in out], pa.int64()),
        "cents_per_user_micro": pa.array(
            [(1_000_000 * s) // users[v] for v, _, s in out],
            pa.int64())})
