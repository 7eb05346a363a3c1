"""Mergeable sketch operators (beyond the reference: SURVEY §2.4 notes
the reference has no sketches; a 100 TB pipeline needs cardinality
estimates that never ship raw keys).

hll_distinct — HyperLogLog distinct count over any int64/string column:

* deterministic: the element hash is blake2b-64 of the value's bytes,
  so the estimate is a pure function of the value SET (partition- and
  order-invariant by construction, pinned by tests);
* distributed as the registers' natural merge: per-batch partial
  register maxima (np.maximum.at — one (register, rho) table of at most
  2^p rows leaves each block), groupby(register).max shuffle over ≤ 2^p
  tiny rows, single-block finalization;
* estimator: the Flajolet–Furé HLL with the standard small-range
  linear-counting correction (the only regime the raw estimator is
  biased in that matters at test scales).

No SQL can replicate the sketch, but the estimate is a pure
deterministic function of the value SET, so the driver checks it
against a committed differential golden (an independent single-process
HLL in tools/gen_goldens.py); pytest additionally pins ≤2% error vs
exact at sf0.01 (p=12 ⇒ ~1.6% theoretical) and bit-identical output
under repartition.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..exchange import _ibucket, aggregate

HLL_P = 12                      # 2^12 = 4096 registers
_ALPHA_4096 = 0.7213 / (1 + 1.079 / 4096)


def _hash64(values) -> np.ndarray:
    """Deterministic 64-bit hashes of an Arrow array's values (string
    or int64), vectorized over one blake2b pass on the concatenated
    byte payload with length framing."""
    if pa.types.is_integer(values.type):
        data = values.cast(pa.int64()).to_numpy(zero_copy_only=False)
        # splitmix64 finalizer: integer-only, exact, fully vectorized
        x = data.astype(np.uint64)
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return z
    # strings: per-unique-value blake2b (vocabulary-sized loop, not
    # row-sized: dictionary-encode first)
    enc = values.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    dic = enc.dictionary.to_pylist()
    table = np.fromiter(
        (int.from_bytes(hashlib.blake2b(
            s.encode("utf-8"), digest_size=8).digest(), "little")
         for s in dic), dtype=np.uint64, count=len(dic))
    idx = enc.indices.to_numpy(zero_copy_only=False)
    return table[idx]


def _partial_registers(batch: pa.Table, col: str, p: int) -> pa.Table:
    h = _hash64(batch.column(col).combine_chunks()
                if isinstance(batch.column(col), pa.ChunkedArray)
                else batch.column(col))
    m = np.uint64(1) << np.uint64(p)
    reg = (h & (m - np.uint64(1))).astype(np.int64)
    w = h >> np.uint64(p)
    # rho = position of first 1-bit in the remaining 64-p bits (1-based)
    nbits = 64 - p
    rho = np.full(len(w), nbits + 1, dtype=np.int64)
    nz = w != 0
    # floor(log2(w)) = frexp exponent - 1: exact (w < 2^52 for p>=12,
    # so the float64 conversion is lossless)
    rho[nz] = nbits - (np.frexp(w[nz].astype(np.float64))[1]
                       .astype(np.int64) - 1)
    maxima = np.zeros(1 << p, dtype=np.int64)
    np.maximum.at(maxima, reg, rho)
    used = np.nonzero(maxima)[0]
    return pa.Table.from_arrays(
        [pa.array(used.astype(np.int64)), pa.array(maxima[used])],
        names=["register", "rho"])


def _estimate(regs: pa.Table, p: int) -> pa.Table:
    m = 1 << p
    rho = np.zeros(m, dtype=np.int64)
    rho[regs.column("register").to_numpy(zero_copy_only=False)] = \
        regs.column("rho").to_numpy(zero_copy_only=False)
    raw = _ALPHA_4096 * m * m / np.sum(np.power(2.0, -rho))
    zeros = int(np.sum(rho == 0))
    if raw <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)          # linear counting
    else:
        est = raw
    return pa.Table.from_arrays(
        [pa.array([int(round(est))], pa.int64())], names=["n_approx"])


def hll_distinct(ds, col: str, p: int = HLL_P):
    """Single-row (n_approx,) HyperLogLog estimate of the number of
    distinct values in ``col``.  Shuffle payload is bounded by 2^p rows
    per block regardless of input size."""
    merged = aggregate(
        ds.select_columns([col])
        .map_batches(lambda b: _partial_registers(b, col, p),
                     batch_format="pyarrow", zero_copy_batch=True),
        "register", ("max", "rho"))
    return merged.map_batches(
        lambda b: b.rename_columns(["register", "rho"]),
        batch_format="pyarrow", zero_copy_batch=True) \
        .repartition(1) \
        .map_batches(lambda b: _estimate(b, p),
                     batch_format="pyarrow", zero_copy_batch=True)


def _partial_registers_by_group(batch: pa.Table, group_col: str,
                                col: str, p: int) -> pa.Table:
    """Per-(group, register) partial rho maxima for one block: dense
    (k_groups × 2^p) scatter, then only the touched cells ship."""
    import pandas as pd

    h = _hash64(batch.column(col).combine_chunks()
                if isinstance(batch.column(col), pa.ChunkedArray)
                else batch.column(col))
    m = np.uint64(1) << np.uint64(p)
    reg = (h & (m - np.uint64(1))).astype(np.int64)
    w = h >> np.uint64(p)
    nbits = 64 - p
    rho = np.full(len(w), nbits + 1, dtype=np.int64)
    nz = w != 0
    rho[nz] = nbits - (np.frexp(w[nz].astype(np.float64))[1]
                       .astype(np.int64) - 1)
    codes, uniques = pd.factorize(
        batch.column(group_col).to_pandas(), sort=False)
    k = len(uniques)
    maxima = np.zeros((k, 1 << p), dtype=np.int64)
    np.maximum.at(maxima, (codes, reg), rho)
    gi, ri = np.nonzero(maxima)
    return pa.Table.from_arrays(
        [pa.array([uniques[i] for i in gi], pa.string()),
         pa.array(ri.astype(np.int64)), pa.array(maxima[gi, ri])],
        names=["g", "register", "rho"])


def hll_distinct_by_group(ds, group_col: str, col: str, p: int = HLL_P):
    """(g, n_approx): per-group HyperLogLog distinct estimate (e.g.
    distinct users per event_type).  Same register algebra as
    hll_distinct, keyed by group: the shuffle carries at most
    ``k_groups × 2^p`` tiny (g, register, rho) rows per block, a keyed
    aggregate(g, register).max merges, and the finalize runs per group.
    The finalize uses groupby(g).map_groups — legitimate here because
    the group key is a LOW-cardinality dimension (event types, not
    documents) and each group's payload is exactly 2^p rows; for a
    high-cardinality group column the register table itself would be
    the bottleneck long before the map_groups."""
    merged = aggregate(
        ds.select_columns([group_col, col])
        .map_batches(
            lambda b: _partial_registers_by_group(b, group_col, col, p),
            batch_format="pyarrow", zero_copy_batch=True),
        ["g", "register"], ("max", "rho"))

    def finalize(group: pa.Table) -> pa.Table:
        group = group.rename_columns(["g", "register", "rho"])
        est = _estimate(group.select(["register", "rho"]), p)
        return pa.Table.from_arrays(
            [pa.array([group.column("g")[0].as_py()], pa.string()),
             est.column("n_approx")],
            names=["g", "n_approx"])

    return merged.groupby("g").map_groups(finalize,
                                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-min sketch
# ---------------------------------------------------------------------------

CMS_W = 8192                    # width (columns per hash row)
CMS_D = 4                       # depth (independent hash rows)


def _token_row_hashes(tokens: list[str], d: int) -> np.ndarray:
    """(d, n_tokens) uint64 hash matrix: blake2b keyed per row — one
    digest per (row, distinct token); vocabulary-sized loop, not
    corpus-sized."""
    out = np.empty((d, len(tokens)), dtype=np.uint64)
    for i in range(d):
        key = i.to_bytes(8, "little")
        out[i] = np.fromiter(
            (int.from_bytes(hashlib.blake2b(
                t.encode("utf-8"), key=key, digest_size=8).digest(),
                "little") for t in tokens),
            dtype=np.uint64, count=len(tokens))
    return out


def _cms_partial(batch: pa.Table, d: int, w: int) -> pa.Table:
    """Per-batch sparse sketch cells: value_counts the batch's tokens
    (C kernel), hash each DISTINCT token d ways, emit (cell, n) rows —
    at most d × distinct-tokens rows leave the block."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(batch.column("text"), " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    vc = pc.value_counts(pc.list_flatten(toks))
    tokens = vc.field("values").to_pylist()
    counts = vc.field("counts").cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    if not tokens:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["cell", "n"])
    h = _token_row_hashes(tokens, d)
    cols = (h % np.uint64(w)).astype(np.int64)
    cells = (np.arange(d, dtype=np.int64)[:, None] * w + cols).ravel()
    n = np.tile(counts, d)
    # same-batch collisions (two tokens → one cell) pre-sum here
    t = pa.Table.from_arrays([pa.array(cells), pa.array(n)],
                             names=["cell", "n"])
    agg = t.group_by("cell").aggregate([("n", "sum")])
    return agg.rename_columns(["cell", "n"])


def cms_sketch(ds, d: int = CMS_D, w: int = CMS_W):
    """(cell, n) count-min sketch of whitespace-token frequencies —
    mergeable by construction (cell counts sum associatively); total
    size ≤ d·w rows at ANY corpus size."""
    return aggregate(
        ds.select_columns(["text"])
        .map_batches(lambda b: _cms_partial(b, d, w),
                     batch_format="pyarrow", zero_copy_batch=True),
        "cell", ("sum", "n")) \
        .map_batches(lambda b: b.rename_columns(["cell", "n"]),
                     batch_format="pyarrow", zero_copy_batch=True)


def cms_token_estimates(ds, k: int = 50, d: int = CMS_D, w: int = CMS_W):
    """(token, est_n): count-min point estimates for the corpus's exact
    top-k tokens.  The sketch build streams the corpus once (constant
    shuffle payload); the candidate set comes from the exact
    token_frequencies combiner; both materializations are constant-size
    (d·w cells, k tokens).

    CMS guarantees est_n ≥ true count; with load factor
    distinct-tokens/w ≪ 1 (true for the driver vocabularies) no
    collisions occur and est_n equals the exact count — which is what
    the live SQL oracle checks.  The ≥-bound under forced collisions is
    pinned by pytest with a tiny width."""
    from .textstats import token_frequencies

    sketch = {r["cell"]: r["n"] for r in cms_sketch(ds, d, w).take_all()}
    top = token_frequencies(ds, k).take_all()
    tokens = [r["token"] for r in top]
    if not tokens:
        return pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["token", "est_n"])
    h = _token_row_hashes(tokens, d)
    cols = (h % np.uint64(w)).astype(np.int64)
    est = np.full(len(tokens), np.iinfo(np.int64).max, dtype=np.int64)
    for i in range(d):
        row = np.array([sketch.get(i * w + int(c), 0)
                        for c in cols[i]], dtype=np.int64)
        est = np.minimum(est, row)
    return pa.Table.from_arrays(
        [pa.array(tokens, pa.string()), pa.array(est)],
        names=["token", "est_n"])


def heavy_hitters(ds, threshold: int = 100, d: int = CMS_D,
                  w: int = CMS_W):
    """(token, n): EXACT corpus counts of every whitespace token
    occurring ≥ threshold times — found without ever shuffling the
    full token domain.  The classic sketch-guided two-pass:

    1. stream the corpus once into a count-min sketch (`cms_sketch`;
       the exchange is ≤ d·w cell rows at any corpus size);
    2. broadcast the dense d×w cell array via `ray.put` (constant
       size), re-stream the corpus, value_counts each batch, and keep
       only tokens whose CMS point estimate ≥ threshold.  CMS never
       underestimates, so NO true heavy hitter is pruned; the exact
       groupby-sum that follows ships only near-heavy candidates —
       at 100 TB the all-to-all carries thousands of rows, not the
       multi-billion-row token domain;
    3. the final n ≥ threshold filter drops collision-inflated false
       positives, so the output is exact (live SQL HAVING oracle).

    Output is integer counts → order-invariant, bit-equal to DuckDB's
    GROUP BY ... HAVING count(*) >= threshold."""
    import ray

    cells = cms_sketch(ds, d, w).take_all()   # ≤ d·w rows, constant
    dense = np.zeros(d * w, dtype=np.int64)
    for r in cells:
        dense[r["cell"]] = r["n"]
    ref = ray.put(dense)

    def candidates(batch: pa.Table, *, _ref=ref) -> pa.Table:
        import pyarrow.compute as pc
        sk = _ref if isinstance(_ref, np.ndarray) else ray.get(_ref)
        toks = pc.split_pattern(batch.column("text"), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vc = pc.value_counts(pc.list_flatten(toks))
        tokens = vc.field("values").to_pylist()
        counts = vc.field("counts").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        if not tokens:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["token", "n"])
        h = _token_row_hashes(tokens, d)
        cols = (h % np.uint64(w)).astype(np.int64)
        est = sk[cols + (np.arange(d, dtype=np.int64)[:, None] * w)] \
            .min(axis=0)
        keep = est >= threshold
        return pa.Table.from_arrays(
            [pa.array([t for t, k_ in zip(tokens, keep) if k_],
                      pa.string()),
             pa.array(counts[keep])],
            names=["token", "n"])

    partials = ds.select_columns(["text"]).map_batches(
        candidates, batch_format="pyarrow", zero_copy_batch=True)
    summed = aggregate(partials, "token", ("sum", "n")).map_batches(
        lambda b: b.rename_columns(["token", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return summed.filter(expr=f"n >= {int(threshold)}")


# ---------------------------------------------------------------------------
# Bloom filter: the constant-memory membership sketch for incremental dedup
# ---------------------------------------------------------------------------

BLOOM_M = 1 << 20               # bits (128 KiB packed)
BLOOM_K = 4                     # probes per key (Kirsch–Mitzenmacher)
_BLOOM_WORDS = BLOOM_M // 64


def _bloom_fp_halves(texts: list[str]) -> tuple[np.ndarray, np.ndarray,
                                                list[str]]:
    """md5 hex fingerprints (the repo's exact-dedup key convention,
    dedup_pipeline._fp_batch) split into two big-endian 64-bit halves —
    the double-hash base for the k probe positions."""
    fps = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    h1 = np.fromiter((int(f[:16], 16) for f in fps),
                     dtype=np.uint64, count=len(fps))
    h2 = np.fromiter((int(f[16:32], 16) for f in fps),
                     dtype=np.uint64, count=len(fps))
    return h1, h2, fps


def _bloom_positions(h1: np.ndarray, h2: np.ndarray,
                     m: int = BLOOM_M, k: int = BLOOM_K) -> np.ndarray:
    """(n, k) bit positions: (h1 + i·h2) mod 2^64 mod m — uint64
    arithmetic wraps mod 2^64 natively, so this is exact and identical
    to the Python-int golden."""
    ks = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + ks[None, :] * h2[:, None])
            % np.uint64(m)).astype(np.int64)


def bloom_build(seen_ds, m: int = BLOOM_M, k: int = BLOOM_K,
                merge_fan: int = 16) -> np.ndarray:
    """Distributed Bloom-filter build over the historical corpus's text
    fingerprints; returns the packed uint64 bitset (m/64 words).

    Combiner shape: each batch ORs its keys into a private bitset and
    emits ONE fixed-size row (m/64 uint64 words — 128 KiB at the
    default m) regardless of batch size; a groupby over ``merge_fan``
    deterministic groups ORs those partials tree-style, and the driver
    ORs the surviving ≤ merge_fan rows.  Nothing row-shaped is ever
    shuffled — at 100 TB the exchange carries (n_batches → merge_fan
    → 1) 128-KiB rows, while the exact anti-join alternative ships
    every distinct fingerprint."""
    words = m // 64

    def partial(batch: pa.Table) -> pa.Table:
        h1, h2, _ = _bloom_fp_halves(
            batch.column("text").to_pylist())
        bits = np.zeros(words, dtype=np.uint64)
        if len(h1):
            pos = _bloom_positions(h1, h2, m, k).ravel()
            np.bitwise_or.at(bits, pos >> 6,
                             np.uint64(1) << (pos & 63).astype(np.uint64))
        g = int(h1[0] % merge_fan) if len(h1) else 0
        return pa.Table.from_arrays(
            [pa.array([g], pa.int64()),
             pa.array([bits.view(np.int64)], pa.list_(pa.int64()))],
            names=["g", "bits"])

    def merge(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group
        acc = np.zeros(words, dtype=np.uint64)
        for row in group.column("bits").to_pylist():
            acc |= np.asarray(row, dtype=np.int64).view(np.uint64)
        return pa.Table.from_arrays(
            [group.column("g").slice(0, 1),
             pa.array([acc.view(np.int64)], pa.list_(pa.int64()))],
            names=["g", "bits"])

    # two combiner levels: ``merge`` also runs as a plain map over each
    # arriving BLOCK of partial rows (collapsing it to one row) before
    # the keyed groupby — without it a group would collect
    # O(n_batches / merge_fan) 128-KiB rows in one table at corpus
    # scale; with it the groupby sees ≤ one row per upstream block
    rows = seen_ds.select_columns(["text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .map_batches(merge, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("g").map_groups(merge, batch_format="pyarrow") \
        .take_all()                          # ≤ merge_fan rows, constant
    final = np.zeros(words, dtype=np.uint64)
    for r in rows:
        final |= np.asarray(r["bits"], dtype=np.int64).view(np.uint64)
    return final


def bloom_dedup(new_ds, seen_ds, m: int = BLOOM_M, k: int = BLOOM_K):
    """(doc_id, fp): the new crawl's documents whose exact content does
    NOT hit the historical Bloom filter — the constant-memory
    incremental-dedup screen.  No false negatives by construction
    (every historical duplicate is dropped); false positives drop a
    fresh doc with probability ≈ (1 − e^(−kn/m))^k — at the default
    128-KiB filter that is < 0.24% up to n = 50k historical keys, and a
    deployment sizes m to its corpus.  Unlike the exact
    ``incremental_dedup`` anti-join (one bucketed shuffle of every
    fingerprint), the screen broadcasts 128 KiB once via ray.put and
    the new side streams through a pure vectorized filter — the 100-TB
    shape when the historical side dwarfs the daily crawl.  Survivors
    are NOT deduped within the new crawl (compose with exact_dedup for
    that); determinism is content-addressed, so output is invariant to
    blocking and cluster size (pinned by tests + differential golden)."""
    import ray

    bits = bloom_build(seen_ds, m, k)
    ref = ray.put(bits.view(np.int64))

    def keep(batch: pa.Table, *, _ref=ref) -> pa.Table:
        bset = (_ref if isinstance(_ref, np.ndarray)
                else ray.get(_ref)).view(np.uint64)
        h1, h2, fps = _bloom_fp_halves(
            batch.column("text").to_pylist())
        if not len(h1):
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string())],
                names=["doc_id", "fp"])
        pos = _bloom_positions(h1, h2, m, k)
        hit = ((bset[pos >> 6] >> (pos & 63).astype(np.uint64))
               & np.uint64(1)).astype(bool).all(axis=1)
        fresh = ~hit
        return pa.Table.from_arrays(
            [batch.column("doc_id").cast(pa.int64()).filter(
                pa.array(fresh)),
             pa.array([f for f, kp in zip(fps, fresh) if kp],
                      pa.string())],
            names=["doc_id", "fp"])

    return new_ds.select_columns(["doc_id", "text"]).map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# DDSketch-style quantiles: the mergeable relative-error quantile sketch
# ---------------------------------------------------------------------------

DD_SUB = 32                     # subbuckets per octave
DD_QS = (0.5, 0.95, 0.99)


def _dd_keys(cents: np.ndarray) -> np.ndarray:
    """Log-histogram bucket per positive integer-cents value:
    key = octave·DD_SUB + floor(frac·DD_SUB) where v = 2^octave·(1+frac)
    — np.frexp is IEEE-exact for ints < 2^53, so bucketing is
    deterministic with NO float log; values < 1 cent collapse to the
    reserved key -1 (representative 0)."""
    out = np.full(len(cents), -1, dtype=np.int64)
    pos = cents >= 1
    if pos.any():
        m, e = np.frexp(cents[pos].astype(np.float64))  # v = m·2^e
        oct_ = e.astype(np.int64) - 1                   # v = 2^oct·(2m)
        sub = np.minimum(
            np.floor((m * 2.0 - 1.0) * DD_SUB).astype(np.int64),
            DD_SUB - 1)
        out[pos] = oct_ * DD_SUB + sub
    return out


def _dd_rep_cents(keys: np.ndarray) -> np.ndarray:
    """Bucket midpoint representative: round(2^oct·(1+(sub+0.5)/SUB));
    key -1 → 0.  Worst-case relative error ≤ 1/(2·DD_SUB) ≈ 1.6%."""
    oct_, sub = keys // DD_SUB, keys % DD_SUB
    rep = np.floor(np.exp2(oct_.astype(np.float64))
                   * (1.0 + (sub.astype(np.float64) + 0.5) / DD_SUB)
                   + 0.5).astype(np.int64)
    rep[keys < 0] = 0
    return rep


def dd_quantiles_by_group(ds, group_col: str = "event_type",
                          value_col: str = "value",
                          qs: tuple[float, ...] = DD_QS):
    """(group, q_pct, est_cents): approximate q-quantiles per group from
    a DDSketch-style log-histogram — the mergeable relative-error
    quantile sketch a 100-TB profile pass uses where the exact
    ``group_quantiles`` would ship every (group, value) pair: here the
    shuffle carries ≤ (distinct groups × ~2k buckets) count rows no
    matter the corpus size, and merge is bucket-count addition.

    Estimate = the midpoint representative of the bucket holding rank
    ⌈q·n⌉−1 (quantile_disc's rank convention over the bucket cumsum) —
    within 1/(2·DD_SUB) ≈ 1.6% relative error of the exact quantile,
    pinned by tests.  Everything is integer counts + the frexp-exact
    bucketing, so the sketch is a pure function of the value multiset:
    block-split/cluster-size invariant and bit-equal to the committed
    differential golden (independent reimpl in tools/gen_goldens.py)."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column(value_col)
                         .to_numpy(zero_copy_only=False) * 100.0
                         + 0.5).astype(np.int64)
        codes, uniq = pd.factorize(
            batch.column(group_col).to_pandas(), sort=False)
        keys = _dd_keys(cents)
        combo = codes.astype(np.int64) * 100_000 + (keys + 1)
        cnt = np.bincount(combo, minlength=0)
        nz = np.flatnonzero(cnt)
        return pa.Table.from_arrays(
            [pa.array([str(uniq[i // 100_000]) for i in nz],
                      pa.string()),
             pa.array(nz % 100_000 - 1, pa.int64()),
             pa.array(cnt[nz], pa.int64())],
            names=["grp", "key", "n"])

    def finalize(group: pa.Table) -> pa.Table:
        keys = group.column("key").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        keys, n = keys[order], n[order]
        cum = np.cumsum(n)
        total = int(cum[-1])
        reps = _dd_rep_cents(keys)
        g = group.column("grp").to_pylist()[0]
        out = {"grp": [], "q_pct": [], "est_cents": []}
        for q in qs:
            rank = max(0, int(np.ceil(q * total)) - 1)
            b = int(np.searchsorted(cum, rank + 1))
            out["grp"].append(g)
            out["q_pct"].append(int(round(q * 100)))
            out["est_cents"].append(int(reps[b]))
        return pa.Table.from_pydict(out, schema=pa.schema(
            [("grp", pa.string()), ("q_pct", pa.int64()),
             ("est_cents", pa.int64())]))

    return aggregate(
        ds.select_columns([group_col, value_col])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["grp", "key"], ("sum", "n")) \
        .map_batches(lambda b: b.rename_columns(["grp", "key", "n"]),
                     batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("grp").map_groups(finalize, batch_format="pyarrow")


def hll_users_windowed(events_ds, p: int = HLL_P):
    """(g, n_approx): approximate distinct users per tumbling 1-DAY
    window — the streaming-analytics composition of the window family
    with the HLL register algebra (daily-active-users over a corpus
    too large to count exactly per window).  Register semantics are
    identical to `hll_distinct_by_group`; the window string is just a
    derived low-cardinality group key, so the shuffle still carries at
    most ``days × 2^p`` (g, register, rho) rows per block."""
    import pyarrow.compute as pc

    def add_window(batch: pa.Table) -> pa.Table:
        w = pc.strftime(
            pc.floor_temporal(batch.column("ts"), unit="day")
            .cast(pa.timestamp("s")), format="%Y-%m-%d")
        return pa.Table.from_arrays(
            [w, batch.column("user_id")], names=["g", "user_id"])

    windowed = events_ds.select_columns(["ts", "user_id"]) \
        .map_batches(add_window, batch_format="pyarrow",
                     zero_copy_batch=True)
    return hll_distinct_by_group(windowed, "g", "user_id", p)


def kmv_distinct(ds, col: str = "user_id", k: int = 256):
    """(est_distinct, k_used, kth_hash): K-Minimum-Values distinct-count
    estimate — the third cardinality sketch beside HLL (register-based)
    and exact distinct: KMV keeps the k smallest distinct 64-bit hashes
    and estimates n ≈ (k−1)·2^64 / h_(k), with RSE ≈ 1/√(k−2) (~6% at
    k=256).  Unlike HLL it supports set-operation estimates (the kept
    hash sets intersect/union directly), which is why curation
    pipelines carry both.

    Scale shape: each block emits its ≤ k smallest DISTINCT hashes
    (np.unique partial — the sketch is the block state, never rows);
    block partials merge through ONE hash(h) % 256 bucketed exchange
    (each cell keeps its own k smallest distinct, which provably
    contains every member of the global k-min set), so the driver
    reads ≤ 256·k rows at ANY corpus size, not k·blocks.  The final
    merged unique+head is the same merge any tree topology would
    produce, so the result is blocking-invariant.  Fewer than k
    distinct values ⇒ the exact count is returned (kth_hash = max)."""

    def partial(batch: pa.Table) -> pa.Table:
        h = _hash64(batch.column(col).combine_chunks()
                    if isinstance(batch.column(col), pa.ChunkedArray)
                    else batch.column(col))
        u = np.unique(h)[:k]         # sorted ascending
        ui = u.astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ui)), pa.array(ui)],
            names=["bucket", "h"])

    def cell_kmin(group: pa.Table) -> pa.Table:
        h = group.column("h").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        u = np.unique(h)[:k]
        return pa.Table.from_arrays(
            [pa.array(u.astype(np.int64))], names=["h"])

    parts = ds.select_columns([col]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(cell_kmin,
                                      batch_format="pyarrow").take_all()
    merged = np.unique(np.array([r["h"] for r in parts],
                                dtype=np.int64).astype(np.uint64))
    merged = merged[:k]
    if len(merged) == 0:
        return pa.table({"est_distinct": pa.array([0], pa.int64()),
                         "k_used": pa.array([0], pa.int64()),
                         "kth_hash": pa.array([0], pa.int64())})
    kth = int(merged[-1])
    if len(merged) < k:
        est = len(merged)            # exact below sketch capacity
    else:
        est = int((k - 1) * 18446744073709551616.0 / float(kth))
    kth_signed = int(merged[-1:].astype(np.int64)[0])  # bit view
    return pa.table({
        "est_distinct": pa.array([est], pa.int64()),
        "k_used": pa.array([int(len(merged))], pa.int64()),
        "kth_hash": pa.array([kth_signed], pa.int64())})


def hll_error_audit(ds, col: str = "user_id", p: int = HLL_P):
    """One row (exact_distinct, n_approx, err_micro): the HLL estimate
    side-by-side with the exact distinct count and the measured
    relative error — the sketch-error audit a user runs once per data
    family before trusting HLL numbers in dashboards (the 2^p=4096
    register config promises ~1.6% RSE; this measures it).

    Scale shape: the estimate is the standard register pipeline (2^p
    rows per block); the exact side ships per-block UNIQUE values
    bucketed by hash(value)%256 — each cell counts its disjoint slice
    of the value space exactly, the driver sums 256 ints."""
    est_rows = aggregate(
        ds.select_columns([col])
        .map_batches(lambda b: _partial_registers(b, col, p),
                     batch_format="pyarrow", zero_copy_batch=True),
        "register", ("max", "rho")) \
        .map_batches(lambda b: b.rename_columns(["register", "rho"]),
                     batch_format="pyarrow", zero_copy_batch=True) \
        .repartition(1) \
        .map_batches(lambda b: _estimate(b, p),
                     batch_format="pyarrow", zero_copy_batch=True) \
        .take_all()
    est = int(est_rows[0]["n_approx"]) if est_rows else 0

    def uniq_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        u = np.unique(v)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(u)), pa.array(u)], names=["bucket", "v"])

    def cell_count(group: pa.Table) -> pa.Table:
        v = group.column("v").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array([len(np.unique(v))], pa.int64())], names=["n"])

    parts = ds.select_columns([col]) \
        .map_batches(uniq_partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(cell_count,
                                      batch_format="pyarrow").take_all()
    exact = sum(r["n"] for r in parts)
    err = (1_000_000 * abs(est - exact)) // max(1, exact)
    return pa.table({"exact_distinct": pa.array([exact], pa.int64()),
                     "n_approx": pa.array([est], pa.int64()),
                     "err_micro": pa.array([err], pa.int64())})


def cms_error_audit(ds, k: int = 50, d: int = CMS_D, w: int = 8):
    """One row (n_tokens, sum_exact, sum_est, over_micro): count-min
    overestimate audit at a DELIBERATELY small width (w=8 forces the
    collisions the production width avoids), over the corpus's exact
    top-k tokens — measures the ε·N additive error the CMS bound
    promises, and pins the ≥-side (a negative over_micro would flag a
    sketch bug).  Same constant-size shuffles as cms_token_estimates
    (d·w cells + the exact top-k combiner)."""
    from .textstats import token_frequencies

    sketch = {r["cell"]: r["n"] for r in cms_sketch(ds, d, w).take_all()}
    top = token_frequencies(ds, k).take_all()
    tokens = [r["token"] for r in top]
    exact = np.array([r["n"] for r in top], dtype=np.int64)
    if not tokens:
        return pa.table({"n_tokens": pa.array([0], pa.int64()),
                         "sum_exact": pa.array([0], pa.int64()),
                         "sum_est": pa.array([0], pa.int64()),
                         "over_micro": pa.array([0], pa.int64())})
    h = _token_row_hashes(tokens, d)
    cols = (h % np.uint64(w)).astype(np.int64)
    est = np.full(len(tokens), np.iinfo(np.int64).max, dtype=np.int64)
    for i in range(d):
        row = np.array([sketch.get(i * w + int(c), 0)
                        for c in cols[i]], dtype=np.int64)
        est = np.minimum(est, row)
    se, sx = int(est.sum()), int(exact.sum())
    return pa.table({
        "n_tokens": pa.array([len(tokens)], pa.int64()),
        "sum_exact": pa.array([sx], pa.int64()),
        "sum_est": pa.array([se], pa.int64()),
        "over_micro": pa.array([(1_000_000 * (se - sx))
                                // max(1, sx)], pa.int64())})


def bloom_fp_audit(seen_ds, probe_ds, m: int = BLOOM_M,
                   k: int = BLOOM_K):
    """One row (n_probe, n_bloom_hits, n_true_hits, fp_micro): measured
    false-positive rate of the Bloom screen — probe documents the
    filter claims were seen, minus the ones whose content truly was
    (exact md5 semi-join), over the truly-new probes.  Completes the
    approximate-structure audit trio (ivf_recall_audit,
    minhash_recall_audit): Bloom has no false negatives by
    construction, so its honest number is the FP rate the m/k sizing
    promises (~(1−e^(−kn/m))^k).

    Scale shape: the filter build/probe is the constant-payload bitset
    pipeline of bloom_build; the exact side ships 16-byte md5 keys
    through the bucketed semi-join — both documented elsewhere; this
    audit adds only constant-size counters."""
    import ray

    from ..pipelines.relational import semi_join

    bits = bloom_build(seen_ds, m, k)
    ref = ray.put(bits)

    def probe_count(batch: pa.Table, *, _ref=ref) -> pa.Table:
        b = _ref if isinstance(_ref, np.ndarray) else ray.get(_ref)
        texts = batch.column("text").to_pylist()
        h1, h2, _ = _bloom_fp_halves(texts)
        pos = _bloom_positions(h1, h2, m, k)       # (n, k) positions
        word, bit = pos >> 6, (pos & 63).astype(np.uint64)
        hit = (((b[word] >> bit) & np.uint64(1)) == 1).all(axis=1)
        return pa.Table.from_arrays(
            [pa.array([len(texts)], pa.int64()),
             pa.array([int(hit.sum())], pa.int64())],
            names=["n", "hits"])

    parts = probe_ds.select_columns(["text"]) \
        .map_batches(probe_count, batch_format="pyarrow",
                     zero_copy_batch=True).take_all()
    n_probe = sum(r["n"] for r in parts)
    n_bloom = sum(r["hits"] for r in parts)

    def fp_batch(batch: pa.Table) -> pa.Table:
        import hashlib
        fps = [hashlib.md5(t.encode("utf-8")).hexdigest()
               for t in batch.column("text").to_pylist()]
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(fps, pa.string())],
            names=["doc_id", "fp"])

    probe_f = probe_ds.map_batches(fp_batch, batch_format="pyarrow",
                                   zero_copy_batch=True)
    seen_f = seen_ds.map_batches(fp_batch, batch_format="pyarrow",
                                 zero_copy_batch=True) \
        .select_columns(["fp"])
    n_true = semi_join(probe_f, seen_f, "fp", "fp").count()
    denom = max(1, n_probe - n_true)
    return pa.table({
        "n_probe": pa.array([n_probe], pa.int64()),
        "n_bloom_hits": pa.array([n_bloom], pa.int64()),
        "n_true_hits": pa.array([n_true], pa.int64()),
        "fp_micro": pa.array([(1_000_000 * (n_bloom - n_true))
                              // denom], pa.int64())})


def quantile_sketch_audit(ds, group_col: str = "event_type",
                          value_col: str = "value",
                          qs: tuple[float, ...] = (0.5, 0.95)):
    """(grp, q_pct, exact_cents, est_cents, err_micro): DDSketch
    quantile estimates side-by-side with the exact quantile_disc
    values and the measured relative error — completes the
    approximation-audit family (IVF recall, LSH recall, HLL/CMS/Bloom,
    and now the quantile sketch): the log-histogram promises
    ~1/(2·32) ≈ 1.6% relative error; this measures it per (group,
    quantile).

    Scale shape: both components are their own documented pipelines
    (dd buckets ship ≤ groups×~2k count rows; the exact side ships
    (group, value) pairs hash-bucketed — the price of exactness, paid
    once in an audit); outputs are constant-size (groups × quantiles),
    compared on the driver."""
    from ..pipelines.relational import group_quantiles

    exact_rows = group_quantiles(ds, group_col, value_col,
                                 qs).take_all()
    est_rows = dd_quantiles_by_group(ds, group_col, value_col,
                                     qs).take_all()
    est = {(r["grp"], int(r["q_pct"])): int(r["est_cents"])
           for r in est_rows}
    out = {"grp": [], "q_pct": [], "exact_cents": [],
           "est_cents": [], "err_micro": []}
    for r in sorted(exact_rows, key=lambda r: str(r[group_col])):
        for q in qs:
            pct = int(round(q * 100))
            exact_c = int(np.floor(float(r[f"q{pct}"]) * 100.0 + 0.5))
            est_c = est.get((str(r[group_col]), pct), 0)
            out["grp"].append(str(r[group_col]))
            out["q_pct"].append(pct)
            out["exact_cents"].append(exact_c)
            out["est_cents"].append(est_c)
            out["err_micro"].append(
                (1_000_000 * abs(est_c - exact_c)) // max(1, exact_c))
    return pa.table({
        "grp": pa.array(out["grp"], pa.string()),
        "q_pct": pa.array(out["q_pct"], pa.int64()),
        "exact_cents": pa.array(out["exact_cents"], pa.int64()),
        "est_cents": pa.array(out["est_cents"], pa.int64()),
        "err_micro": pa.array(out["err_micro"], pa.int64())})


def cms_join_estimate(ds, d: int = CMS_D, w: int = 8):
    """(exact_join, cms_est, err_micro): the classic sketched
    JOIN-SIZE estimation audit (AMS/CMS inner product): the token
    self-join size J = Σ_t cnt_t² — the quantity a query planner needs
    before picking a join strategy — estimated as min over sketch rows
    of Σ_cells n_cell² and compared against the exact value.  The
    inner-product estimate is an upper bound (collisions only add
    cross terms), so err_micro ≥ 0 always; the deliberately tiny
    default width makes the bias VISIBLE, the same posture as
    cms_error_audit (at the production 8192 width the estimate is
    exact on the driver vocabularies).

    Shape: the estimate side is the d·w-cell cms_sketch (constant at
    any corpus size); the exact side is the vocab-bounded
    (token, n) combiner + one keyed aggregate, squared and summed in
    driver Python big-ints (cnt² wraps int64 past ~3e9-occurrence
    tokens; the golden's arbitrary-precision walk matches exactly)."""
    from .textstats import token_frequencies

    rows = token_frequencies(ds, k=1_000_000_000).take_all()
    exact = sum(int(r["n"]) ** 2 for r in rows)    # Python big-int
    sketch = {r["cell"]: int(r["n"])
              for r in cms_sketch(ds, d, w).take_all()}
    est = None
    for i in range(d):
        s = sum(v * v for c, v in sketch.items()
                if i * w <= c < (i + 1) * w)
        est = s if est is None else min(est, s)
    err = (1_000_000 * (est - exact)) // max(1, exact)
    return pa.table({
        "exact_join": pa.array([exact], pa.int64()),
        "cms_est": pa.array([est], pa.int64()),
        "err_micro": pa.array([err], pa.int64())})
