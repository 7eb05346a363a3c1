"""Text-analysis operators over a plain documents table
(doc_id:int64, text, lang, source, n_chars).

Each operator is a vectorized ``map_batches`` stage (pyarrow.compute
kernels; no Python row loops) and has an exact ANSI-SQL oracle in
``__ray_entry__.oracle_sql`` — outputs are integers/strings only, so the
driver's value-hash comparison is float-free.

Tokenization contract (shared with every oracle): split on single
spaces, empties kept — ``string_split(text, ' ')`` in DuckDB ==
``pc.split_pattern(text, ' ')`` in Arrow.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# module scope: worker code is shipped by value and cannot lazy-import
# webtext
from ..exchange import _ibucket, _sbucket, aggregate
from .dedup import dedup_keep_longest, exact_dedup

# tiny per-language stopword tables for the n-gram/stopword lang-id
# heuristic; tie-break = table order, all-zero → 'und'
LANG_STOPWORDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("en", ("the", "a", "of", "and", "in", "to")),
    ("es", ("el", "la", "de", "y", "en", "que")),
    ("de", ("der", "die", "das", "und", "ist", "von")),
    ("fr", ("le", "la", "et", "les", "des", "un")),
)


def _tokens(batch: pa.Table) -> pa.ListArray:
    return pc.split_pattern(batch.column("text"), " ")


def token_count_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens): whitespace-token count, fully vectorized."""
    n = pc.list_value_length(_tokens(batch))
    return pa.Table.from_arrays(
        [batch.column("doc_id"), n.cast(pa.int64())],
        names=["doc_id", "n_tokens"])


def _count_in_set(tokens: pa.ChunkedArray, words: tuple[str, ...]):
    """Per-row count of tokens that are in ``words`` (vectorized:
    flatten → is_in → sum per list via list parent indices)."""
    flat_counts = []
    for chunk in (tokens.chunks if isinstance(tokens, pa.ChunkedArray)
                  else [tokens]):
        mask = pc.is_in(pc.list_flatten(chunk),
                        value_set=pa.array(words, pa.string()))
        # aggregate the flat mask back per list row
        lengths = pc.list_value_length(chunk).to_numpy(zero_copy_only=False)
        import numpy as np

        m = mask.to_numpy(zero_copy_only=False).astype("int64")
        idx = np.repeat(np.arange(len(lengths)), lengths)
        out = np.zeros(len(lengths), dtype="int64")
        np.add.at(out, idx, m)
        flat_counts.append(pa.array(out, pa.int64()))
    return pa.chunked_array(flat_counts) if len(flat_counts) > 1 \
        else flat_counts[0]


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_chars_q, n_tokens, n_stop, n_uniq) — length, token
    count, english-stopword count, distinct-token count."""
    tokens = _tokens(batch)
    n_chars = pc.utf8_length(batch.column("text")).cast(pa.int64())
    n_tokens = pc.list_value_length(tokens).cast(pa.int64())
    n_stop = _count_in_set(tokens, LANG_STOPWORDS[0][1])
    uniq = _list_distinct_length(tokens)
    return pa.Table.from_arrays(
        [batch.column("doc_id"), n_chars, n_tokens, n_stop, uniq],
        names=["doc_id", "n_chars_q", "n_tokens", "n_stop", "n_uniq"])


def _list_distinct_length(tokens):
    """Distinct-token count per row, vectorized: Arrow has no
    list_distinct kernel, so factorize the flattened tokens (C-speed
    hash) and count unique (row, token-code) pairs per row — identical
    to ``len(set(lst))`` per row."""
    import numpy as np
    import pandas as pd

    counts = []
    for chunk in (tokens.chunks if isinstance(tokens, pa.ChunkedArray)
                  else [tokens]):
        lengths = pc.list_value_length(chunk) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(lengths)
        if n == 0 or lengths.sum() == 0:
            counts.append(np.zeros(n, dtype=np.int64))
            continue
        codes, uniques = pd.factorize(
            pc.list_flatten(chunk).to_pandas(), sort=False)
        # shift by 1 so a null token (factorize code -1) is its own
        # distinct value (code 0) instead of aliasing into the
        # previous row's key space — matches len(set(lst)) where None
        # counts as one element
        codes = codes.astype(np.int64) + 1
        n_codes = np.int64(len(uniques) + 1)
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        pairs = np.unique(rows * n_codes + codes)
        counts.append(np.bincount((pairs // n_codes).astype(np.int64),
                                  minlength=n).astype(np.int64))
    return pa.array(np.concatenate(counts) if counts
                    else np.empty(0, dtype=np.int64), pa.int64())


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, pred_lang): stopword-count heuristic; ties break by table
    order; zero evidence → 'und'.  The SQL oracle replicates the same
    CASE chain."""
    import numpy as np

    tokens = _tokens(batch)
    mat = np.stack([
        np.asarray(_count_in_set(tokens, words).to_numpy(
            zero_copy_only=False), dtype=np.int64)
        for _lang, words in LANG_STOPWORDS
    ])                                  # (n_langs, n_rows)
    # argmax returns the FIRST maximal index — exactly the table-order
    # tie-break; all-zero rows → 'und'
    langs = np.array([lang for lang, _w in LANG_STOPWORDS])
    preds = np.where(mat.max(axis=0) > 0, langs[mat.argmax(axis=0)], "und")
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(preds.tolist(), pa.string())],
        names=["doc_id", "pred_lang"])


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, fp): md5 document fingerprint (hex) — exact-dup key and
    content-addressable id.  SQL oracle: ``md5(text)``."""
    fps = [hashlib.md5(t.encode("utf-8")).hexdigest()
           for t in batch.column("text").to_pylist()]
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(fps, pa.string())],
        names=["doc_id", "fp"])


import re as _re
import zlib as _zlib

# BPE-ish pretokenizer: letter runs / digit runs / other runs, optional
# leading space — the same class-based pattern runs under Python re and
# DuckDB's RE2 so the SQL oracle is exact.
BPE_TOKEN_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+"
_BPE_RE = _re.compile(BPE_TOKEN_PATTERN)


def token_count_bpe_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_bpe_tokens): BPE-style pretokenization count,
    vectorized — pandas ``str.count`` counts non-overlapping matches of
    the same compiled pattern, exactly ``len(findall(t))`` per row."""
    import pandas as pd

    texts = batch.column("text").to_pandas()
    counts = texts.str.count(_BPE_RE).fillna(0).astype("int64")
    return pa.Table.from_arrays(
        [batch.column("doc_id"),
         pa.array(counts.to_numpy(), pa.int64())],
        names=["doc_id", "n_bpe_tokens"])


WINNOW_K = 5          # k-gram length (chars)
WINNOW_WINDOW = 4     # winnowing window


def _crc32_table():
    import numpy as np

    tbl = np.empty(256, dtype=np.uint32)
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        tbl[n] = c
    return tbl


_CRC_TABLE = _crc32_table()


def _winnow_ascii(text: str, k: int, w: int) -> list[int]:
    """Vectorized ASCII fast path: crc32 of every k-gram via k
    table-lookup steps over uint32 position arrays, then the window
    minimum (rightmost on ties = first min of the reversed window) and
    consecutive-dedup — byte-identical to the reference loop (pinned
    by the winnow_fingerprint golden)."""
    import numpy as np

    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    n = len(b) - k + 1
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    for j in range(k):
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ b[j:j + n]) & 0xFF]
    hashes = (crc ^ np.uint32(0xFFFFFFFF)).astype(np.int64)
    if n <= w:
        rev = hashes[::-1]
        idx = n - 1 - int(np.argmin(rev))
        return [int(hashes[idx])]
    win = np.lib.stride_tricks.sliding_window_view(hashes, w)[:, ::-1]
    idx = (w - 1 - np.argmin(win, axis=1)) \
        + np.arange(n - w + 1, dtype=np.int64)
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]
    return hashes[idx[keep]].tolist()


def winnow_fingerprints(text: str, k: int = WINNOW_K,
                        w: int = WINNOW_WINDOW) -> list[int]:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
    SIGMOD'03): rolling crc32 over char k-grams, keep each window's
    minimum (rightmost on ties), dedup consecutive selections."""
    if len(text) < k:
        return [_zlib.crc32(text.encode("utf-8"))] if text else []
    if text.isascii():
        return _winnow_ascii(text, k, w)
    hashes = [_zlib.crc32(text[i:i + k].encode("utf-8"))
              for i in range(len(text) - k + 1)]
    fps: list[int] = []
    last_idx = -1
    for start in range(max(1, len(hashes) - w + 1)):
        window = hashes[start:start + w]
        m = min(window)
        # rightmost minimal position in the window
        idx = start + max(i for i, h in enumerate(window) if h == m)
        if idx != last_idx:
            fps.append(hashes[idx])
            last_idx = idx
    return fps


def winnow_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_fps, min_fp, max_fp): per-doc winnowed fingerprint
    summary (the fingerprint sets themselves feed overlap detection)."""
    n, mn, mx = [], [], []
    for t in batch.column("text").to_pylist():
        fps = winnow_fingerprints(t)
        n.append(len(fps))
        mn.append(min(fps) if fps else 0)
        mx.append(max(fps) if fps else 0)
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(n, pa.int64()),
         pa.array(mn, pa.int64()), pa.array(mx, pa.int64())],
        names=["doc_id", "n_fps", "min_fp", "max_fp"])


CONTAIN_CAP = 64      # max docs per fingerprint (hot-fp stoplist)


def containment_posting_batch(batch: pa.Table) -> pa.Table:
    """(fp, doc_id, n_fp): DISTINCT winnow fingerprints per doc, with
    the doc's fingerprint-set size riding each posting so the
    containment ratio needs no extra join."""
    fps_col, ids_col, n_col = [], [], []
    ids = batch.column("doc_id").to_pylist()
    for did, text in zip(ids, batch.column("text").to_pylist()):
        fps = sorted(set(winnow_fingerprints(text)))
        fps_col.extend(fps)
        ids_col.extend([did] * len(fps))
        n_col.extend([len(fps)] * len(fps))
    return pa.Table.from_arrays(
        [pa.array(fps_col, pa.int64()), pa.array(ids_col, pa.int64()),
         pa.array(n_col, pa.int64())],
        names=["fp", "doc_id", "n_fp"])


def _containment_bucket_pairs(group: pa.Table,
                              cap: int = CONTAIN_CAP) -> pa.Table:
    """Per-fp pair emission inside one hash(fp) bucket: postings sorted
    by (fp, doc_id), each fp segment truncated to its ``cap`` smallest
    doc_ids (deterministic hot-fp stoplist — the standard LSH guard
    against quadratic blowup on boilerplate shingles), then vectorized
    triu pairs with min(n_fp) riding each pair."""
    import numpy as np

    fp = group.column("fp").to_numpy(zero_copy_only=False)
    did = group.column("doc_id").to_numpy(zero_copy_only=False)
    nfp = group.column("n_fp").to_numpy(zero_copy_only=False)
    order = np.lexsort((did, fp))
    fp, did, nfp = fp[order], did[order], nfp[order]
    left, right, minn = [], [], []
    bounds = np.flatnonzero(np.concatenate(
        ([True], fp[1:] != fp[:-1], [True])))
    for s, e in zip(bounds[:-1], bounds[1:]):
        seg_d = did[s:e][:cap]
        seg_n = nfp[s:e][:cap]
        if len(seg_d) < 2:
            continue
        i, j = np.triu_indices(len(seg_d), k=1)
        left.append(seg_d[i])
        right.append(seg_d[j])
        minn.append(np.minimum(seg_n[i], seg_n[j]))
    if not left:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["left_id", "right_id", "shared", "minn"])
    lf = np.concatenate(left).astype(np.int64)
    rt = np.concatenate(right).astype(np.int64)
    mn = np.concatenate(minn).astype(np.int64)
    # in-bucket combiner: a pair sharing many same-bucket fps collapses
    # to one (pair, shared_partial) row before the global shuffle —
    # minn is min(n_fp_left, n_fp_right), identical on every emission
    porder = np.lexsort((rt, lf))
    lf, rt, mn = lf[porder], rt[porder], mn[porder]
    first = np.ones(len(lf), dtype=bool)
    first[1:] = (lf[1:] != lf[:-1]) | (rt[1:] != rt[:-1])
    starts = np.flatnonzero(first)
    shared = np.diff(np.append(starts, len(lf))).astype(np.int64)
    return pa.Table.from_arrays(
        [pa.array(lf[starts]), pa.array(rt[starts]),
         pa.array(shared), pa.array(mn[starts])],
        names=["left_id", "right_id", "shared", "minn"])


def containment_pairs(ds, tau_num: int = 1, tau_den: int = 2,
                      cap: int = CONTAIN_CAP):
    """Near-containment detection (doc-inside-doc, which symmetric
    Jaccard misses): pairs sharing >= tau (default 1/2) of the SMALLER
    doc's winnow fingerprint set (Schleimer et al., SIGMOD'03 — the
    MOSS overlap metric).  Output (left_id, right_id, shared_fps,
    min_fps), left < right.

    Plan: distinct-fp postings -> hash(fp)%256 bucketed map_groups
    emitting capped per-fp pair partials (in-bucket combined) ->
    hash(pair)%256 bucketed vectorized sum/min merge (NOT the native
    groupby aggregate: 100k+ pair groups hit Ray's per-key Python loop,
    measured 23s vs 2s bucketed at sf0.01) -> integer cross-multiplied
    ratio filter (no floats anywhere).  Differential golden oracle in
    tools/gen_goldens.py."""
    posted = ds.map_batches(containment_posting_batch,
                            batch_format="pyarrow", zero_copy_batch=True)

    def add_bucket(batch: pa.Table) -> pa.Table:
        import numpy as np

        fp = batch.column("fp").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(_ibucket(fp.astype(np.int64))))

    pairs = posted.map_batches(add_bucket, batch_format="pyarrow",
                               zero_copy_batch=True) \
        .groupby("bucket").map_groups(
            lambda g: _containment_bucket_pairs(g, cap),
            batch_format="pyarrow")
    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        import numpy as np

        lf = batch.column("left_id").to_numpy(zero_copy_only=False)
        rt = batch.column("right_id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            key = lf * np.int64(1_000_003) + rt
        return batch.append_column("pbucket", pa.array(_ibucket(key)))

    def merge_pairs(group: pa.Table) -> pa.Table:
        import numpy as np

        lf = group.column("left_id").to_numpy(zero_copy_only=False)
        rt = group.column("right_id").to_numpy(zero_copy_only=False)
        sh = group.column("shared").to_numpy(zero_copy_only=False)
        mn = group.column("minn").to_numpy(zero_copy_only=False)
        order = np.lexsort((rt, lf))
        lf, rt, sh, mn = lf[order], rt[order], sh[order], mn[order]
        first = np.ones(len(lf), dtype=bool)
        first[1:] = (lf[1:] != lf[:-1]) | (rt[1:] != rt[:-1])
        starts = np.flatnonzero(first)
        shared = np.add.reduceat(sh, starts).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(lf[starts].astype(np.int64)),
             pa.array(rt[starts].astype(np.int64)),
             pa.array(shared), pa.array(mn[starts].astype(np.int64))],
            names=["left_id", "right_id", "shared", "minn"])

    agg = pairs.map_batches(add_pair_bucket, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .groupby("pbucket").map_groups(merge_pairs,
                                       batch_format="pyarrow")

    def ratio_filter(batch: pa.Table) -> pa.Table:
        import numpy as np

        shared = batch.column("shared").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        minn = batch.column("minn").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keep = shared * np.int64(tau_den) >= np.int64(tau_num) * minn
        return pa.Table.from_arrays(
            [batch.column("left_id").filter(pa.array(keep)),
             batch.column("right_id").filter(pa.array(keep)),
             pa.array(shared[keep]), pa.array(minn[keep])],
            names=["left_id", "right_id", "shared_fps", "min_fps"])

    return agg.map_batches(ratio_filter, batch_format="pyarrow",
                           zero_copy_batch=True)


def sample_by_hash_batch(batch: pa.Table, keep_of_4096: int,
                         salt: str) -> pa.Table:
    """Deterministic content-addressed sampling filter: keep a row iff
    int(md5(str(doc_id) + salt)[:3], 16) < keep_of_4096.  Same predicate
    is exactly expressible in SQL (fixed-width lowercase hex compares
    lexicographically = numerically), so train/val splits and sampled
    eval sets are reproducible across engines and cluster sizes."""
    thresh = format(keep_of_4096, "03x")
    keep = [hashlib.md5((str(d) + salt).encode()).hexdigest()[:3] < thresh
            for d in batch.column("doc_id").to_pylist()]
    return batch.filter(pa.array(keep))


def sample_by_hash(ds, keep_of_4096: int = 512, salt: str = "s0"):
    """Deterministic ~(keep_of_4096/4096) sample of the corpus.
    ``keep_of_4096`` must be in [0, 4096]; 4096 keeps everything (the
    fixed-width hex compare only encodes thresholds below 0x1000)."""
    if keep_of_4096 >= 4096:
        return ds
    return ds.map_batches(
        lambda b: sample_by_hash_batch(b, keep_of_4096, salt),
        batch_format="pyarrow", zero_copy_batch=True)


# train/val/test hex-threshold edges over the first 4 md5 nibbles:
# 0xcccc/0x10000 ≈ 0.80, 0xe666/0x10000 ≈ 0.90
SPLIT_EDGES = (("train", "cccc"), ("val", "e666"))
SPLIT_SALT = "split"


def split_assign_batch(batch: pa.Table, salt: str = SPLIT_SALT
                       ) -> pa.Table:
    """Deterministic train/val/test assignment: the first 4 hex chars
    of md5(str(doc_id) + salt) compare against the SPLIT_EDGES
    thresholds (fixed-width lowercase hex compares lexicographically =
    numerically — the sample_by_hash convention, so the same predicate
    is exactly expressible in SQL).  Content-addressed: the split of a
    document never depends on block boundaries, cluster size, or the
    rest of the corpus — re-running over a grown corpus keeps every
    old document's split stable (the property epoch-level reshuffles
    cannot give you)."""
    hexes = [hashlib.md5((str(d) + salt).encode()).hexdigest()[:4]
             for d in batch.column("doc_id").to_pylist()]
    split = []
    for h in hexes:
        for name, edge in SPLIT_EDGES:
            if h < edge:
                split.append(name)
                break
        else:
            split.append("test")
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(split, pa.string())],
        names=["doc_id", "split"])


def split_assign(ds, salt: str = SPLIT_SALT):
    """Per-document (doc_id, split) over the corpus — pure map, no
    shuffle; the holdout-split primitive of a training-data pipeline."""
    return ds.select_columns(["doc_id"]).map_batches(
        lambda b: split_assign_batch(b, salt),
        batch_format="pyarrow", zero_copy_batch=True)


CHUNK_TOKENS = 64
CHUNK_OVERLAP = 16


def chunk_documents_batch(batch: pa.Table,
                          chunk_tokens: int = CHUNK_TOKENS,
                          overlap: int = CHUNK_OVERLAP) -> pa.Table:
    """(doc_id, chunk_id, chunk_text, n_chunk_tokens): split each doc
    into overlapping windows of ``chunk_tokens`` whitespace tokens with
    stride ``chunk_tokens - overlap`` (the standard LLM context-window
    chunker; last chunk may be short).

    Fully vectorized, no per-chunk Python: because tokens are defined by
    single-space split, every chunk is a CONTIGUOUS byte range of the
    original text, so chunk strings are materialized with one numpy
    fancy-indexed gather over the batch's string buffer — zero string
    re-joining, O(output bytes)."""
    import numpy as np

    stride = chunk_tokens - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk_tokens")
    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.split_pattern(col, " ")
    loff = np.asarray(toks.offsets)
    n = np.diff(loff)                           # tokens per doc (>= 1)
    flat_blen = pc.binary_length(pc.list_flatten(toks)).to_numpy()
    # prefix[j] = bytes of tokens 0..j-1 counting one separator each —
    # subtracting the doc-base entry yields in-doc byte offsets
    prefix = np.concatenate(
        [[0], np.cumsum(flat_blen + 1, dtype=np.int64)])
    n_chunks = (n - 1) // stride + 1
    doc_rep = np.repeat(np.arange(len(n), dtype=np.int64), n_chunks)
    cum = np.concatenate([[0], np.cumsum(n_chunks, dtype=np.int64)])
    chunk_idx = np.arange(cum[-1], dtype=np.int64) - cum[doc_rep]
    start_tok = chunk_idx * stride
    end_tok = np.minimum(start_tok + chunk_tokens, n[doc_rep])
    base = loff[doc_rep]
    cstart = prefix[base + start_tok] - prefix[base]
    cend = prefix[base + end_tok] - prefix[base] - 1   # drop trail sep
    # raw value offsets of the (possibly sliced) string array
    vo = np.frombuffer(col.buffers()[1], np.int32)[
        col.offset: col.offset + len(col) + 1].astype(np.int64)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    g0 = vo[doc_rep] + cstart
    lengths = cend - cstart
    tot = int(lengths.sum())
    crep = np.repeat(np.arange(len(lengths)), lengths)
    intra = np.arange(tot, dtype=np.int64) \
        - np.concatenate([[0], np.cumsum(lengths)])[crep]
    out = data[g0[crep] + intra]
    offs = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    text_arr = pa.LargeStringArray.from_buffers(
        len(lengths), pa.py_buffer(offs.tobytes()),
        pa.py_buffer(out.tobytes()))
    return pa.Table.from_arrays(
        [batch.column("doc_id").take(pa.array(doc_rep)),
         pa.array(chunk_idx.astype(np.int32)),
         text_arr.cast(pa.string()),
         pa.array(end_tok - start_tok)],
        names=["doc_id", "chunk_id", "chunk_text", "n_chunk_tokens"])


def chunk_documents(ds, chunk_tokens: int = CHUNK_TOKENS,
                    overlap: int = CHUNK_OVERLAP):
    """Dataset wrapper for chunk_documents_batch — embarrassingly
    parallel, no shuffle; output grows ~1/(1-overlap/chunk) ×."""
    return ds.map_batches(
        lambda b: chunk_documents_batch(b, chunk_tokens, overlap),
        batch_format="pyarrow", zero_copy_batch=True)


PACK_TOKEN_BUDGET = 256


def pack_sequences(ds, token_budget: int = PACK_TOKEN_BUDGET,
                   n_buckets: int = 64):
    """Greedy sequence packing for LLM training batches: assign docs to
    packs so each pack's whitespace-token total stays ≤ token_budget
    (oversized docs get a pack of their own).

    Deterministic and partition-independent: docs hash-bucket by doc_id
    (constant shuffle fan-out), then pack within each bucket in doc_id
    order, first-fit-sequential.  Output (bucket, pack_id, doc_id,
    n_tokens) — pack_id is bucket-local, so (bucket, pack_id) is the
    global pack key."""
    import numpy as np

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n = pc.list_value_length(_tokens(batch)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ids, n_buckets)), pa.array(ids),
             pa.array(n)],
            names=["bucket", "doc_id", "n_tokens"])

    def pack(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        toks = group.column("n_tokens").to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        ids, toks = ids[order], toks[order]
        bucket = group.column("bucket")[0].as_py()
        pack_ids, cur_id, cur_tot = [], 0, 0
        for t in toks:
            if cur_tot and cur_tot + t > token_budget:
                cur_id += 1
                cur_tot = 0
            cur_tot += int(t)
            pack_ids.append(cur_id)
        n_rows = len(ids)
        return pa.Table.from_arrays(
            [pa.array([bucket] * n_rows, pa.int64()),
             pa.array(pack_ids, pa.int64()),
             pa.array(ids.astype(np.int64)),
             pa.array(toks.astype(np.int64))],
            names=["bucket", "pack_id", "doc_id", "n_tokens"])

    return ds.map_batches(emit, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("bucket").map_groups(pack, batch_format="pyarrow")


def token_frequencies(ds, k: int = 50):
    """Top-k corpus token frequencies via the combiner pattern: each
    batch pre-aggregates with Arrow value_counts (C kernel), the shuffle
    carries (token, partial_n) only, a sum aggregate reduces, and a
    tiny deterministic sort+limit finishes (ties → token asc)."""

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(_tokens(batch).combine_chunks()
                               if isinstance(_tokens(batch),
                                             pa.ChunkedArray)
                               else _tokens(batch))
        vc = pc.value_counts(flat)
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["token", "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    summed = aggregate(partials, "token", ("sum", "n")).map_batches(
        lambda b: b.rename_columns(["token", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return summed.sort(["n", "token"], descending=[True, False]).limit(k)


def length_histogram(ds, bucket_chars: int = 100):
    """Doc-length histogram: per-batch partial counts of
    floor(n_chars / bucket_chars), then a tiny groupby-sum."""

    def partial(batch: pa.Table) -> pa.Table:
        b = pc.divide(pc.utf8_length(batch.column("text"))
                      .cast(pa.int64()),
                      pa.scalar(bucket_chars, pa.int64()))
        vc = pc.value_counts(b.combine_chunks()
                             if isinstance(b, pa.ChunkedArray) else b)
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["len_bucket", "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return aggregate(partials, "len_bucket", ("sum", "n")).map_batches(
        lambda b: b.rename_columns(["len_bucket", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)


def quality_filter_batch(batch: pa.Table, min_tokens: int = 10) -> pa.Table:
    """Composite quality predicate, all-integer thresholds so the SQL
    oracle is exact: predicted-english AND n_tokens ≥ min_tokens AND
    stopword ratio ≥ 1/50 AND distinct-token ratio ≥ 3/10."""
    import numpy as np

    tokens = _tokens(batch)
    n_tokens = pc.list_value_length(tokens).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    n_stop = np.asarray(
        _count_in_set(tokens, LANG_STOPWORDS[0][1])
        .to_numpy(zero_copy_only=False), dtype=np.int64)
    n_uniq = _list_distinct_length(tokens).to_numpy(zero_copy_only=False)
    pred = lang_id_batch(batch).column("pred_lang").to_numpy(
        zero_copy_only=False)
    keep = ((pred == "en") & (n_tokens >= min_tokens)
            & (n_stop * 50 >= n_tokens) & (n_uniq * 10 >= n_tokens * 3))
    return batch.filter(pa.array(keep)).select(["doc_id", "text"])


def corpus_quality_filter(ds, min_tokens: int = 10):
    """The composite cleaning pipeline an LLM-data user actually runs:
    vectorized per-batch quality predicate (no shuffle), ready to feed
    exact/near dedup downstream."""
    return ds.map_batches(
        lambda b: quality_filter_batch(b, min_tokens),
        batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------
# Gopher-family composite quality rules / language agreement / fertility
# --------------------------------------------------------------------------

# Gopher (Rae et al. 2021, §A1.1) rule family with thresholds adapted to
# the synthetic corpus's token distribution (10-99 tokens/doc, mean word
# length ~4.5) so every rule has both outcomes at test scale.  All four
# rules are pure integer comparisons — no division — so the DuckDB
# oracle is bit-exact and the filter is order/blocking-invariant.
GOPHER_MIN_TOKENS = 20        # word count lower bound
GOPHER_MAX_TOKENS = 90        # word count upper bound
GOPHER_MWL_MIN_DECI = 42      # mean word length >= 4.2 chars (deci-chars)
GOPHER_MWL_MAX = 10           # mean word length <= 10 chars
GOPHER_STOP_PER = 50          # >= 1 English stopword per 50 tokens (2%)
GOPHER_UNIQ_NUM = 4           # distinct-token ratio >= 4/10 (40%)
GOPHER_UNIQ_DEN = 10


def gopher_quality_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, fail_mask, keep) — Gopher-style composite
    document-quality rules as a fail bitmask: bit 1 = token count
    outside [20, 90], bit 2 = mean word length outside [4.2, 10]
    (total token chars = n_chars - n_tokens + 1, exact for the
    single-space tokenizer), bit 4 = English-stopword rate < 2%,
    bit 8 = distinct-token ratio < 40%.  keep = 1 iff mask == 0.
    Reference analogue: the reference's failure-message/quality gates
    (web_text_extractor_ver1.5.py) are per-doc predicates of the same
    shape; this is the corpus-curation generalization."""
    q = quality_score_batch(batch)
    n_chars = q.column("n_chars_q").to_numpy(zero_copy_only=False)
    n_tok = q.column("n_tokens").to_numpy(zero_copy_only=False)
    n_stop = q.column("n_stop").to_numpy(zero_copy_only=False)
    n_uniq = q.column("n_uniq").to_numpy(zero_copy_only=False)
    tot = n_chars - n_tok + 1           # sum of token lengths
    mask = np.where((n_tok < GOPHER_MIN_TOKENS)
                    | (n_tok > GOPHER_MAX_TOKENS), 1, 0)
    mask += np.where((10 * tot < GOPHER_MWL_MIN_DECI * n_tok)
                     | (tot > GOPHER_MWL_MAX * n_tok), 2, 0)
    mask += np.where(GOPHER_STOP_PER * n_stop < n_tok, 4, 0)
    mask += np.where(GOPHER_UNIQ_DEN * n_uniq < GOPHER_UNIQ_NUM * n_tok,
                     8, 0)
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(n_tok, pa.int64()),
         pa.array(mask.astype(np.int64), pa.int64()),
         pa.array((mask == 0).astype(np.int64), pa.int64())],
        names=["doc_id", "n_tokens", "fail_mask", "keep"])


def gopher_quality(ds):
    """Per-doc Gopher-rule fail bitmask — pure map, no shuffle; at
    100 TB this runs as one column-pruned streaming pass."""
    return ds.map_batches(gopher_quality_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def lang_mismatch_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, lang, pred_lang) for docs whose declared ``lang`` label
    disagrees with the stopword lang-id prediction — the label-noise
    audit every multilingual corpus needs before per-lang sampling."""
    pred = lang_id_batch(batch).column("pred_lang")
    keep = pc.invert(pc.equal(pred, batch.column("lang")))
    out = pa.Table.from_arrays(
        [batch.column("doc_id"), batch.column("lang"), pred],
        names=["doc_id", "lang", "pred_lang"])
    return out.filter(keep)


def lang_mismatch(ds):
    return ds.map_batches(lang_mismatch_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def tokenizer_fertility(ds):
    """(lang, n_docs, ws_tokens, bpe_tokens, fertility_micro): per-lang
    tokenizer-fertility audit — how many BPE-style pretokens the regex
    tokenizer spends per whitespace token, ``bpe*1e6 // ws`` in integer
    micros.  Combiner pattern: each batch factorizes lang locally and
    ships one partial row per (batch, lang); the all-to-all carries
    O(n_langs) rows per block, the sum aggregate reduces, and the
    ratio is computed on the already-tiny result."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        ws = pc.list_value_length(_tokens(batch)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        bpe = batch.column("text").to_pandas().str.count(_BPE_RE) \
            .fillna(0).astype("int64").to_numpy()
        codes, uniques = pd.factorize(
            batch.column("lang").to_pandas(), sort=False)
        k = len(uniques)
        n_docs = np.bincount(codes, minlength=k).astype(np.int64)
        ws_sum = np.zeros(k, dtype=np.int64)
        bpe_sum = np.zeros(k, dtype=np.int64)
        np.add.at(ws_sum, codes, ws)
        np.add.at(bpe_sum, codes, bpe)
        return pa.Table.from_arrays(
            [pa.array(uniques.tolist(), pa.string()),
             pa.array(n_docs), pa.array(ws_sum), pa.array(bpe_sum)],
            names=["lang", "n_docs", "ws_tokens", "bpe_tokens"])

    summed = aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "lang", ("sum", "n_docs"), ("sum", "ws_tokens"),
        ("sum", "bpe_tokens"))

    def finish(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            ["lang", "n_docs", "ws_tokens", "bpe_tokens"])
        ws = batch.column("ws_tokens").to_numpy(zero_copy_only=False)
        bpe = batch.column("bpe_tokens").to_numpy(zero_copy_only=False)
        fert = np.where(ws > 0, (bpe * 1_000_000) // np.maximum(ws, 1),
                        0).astype(np.int64)
        return batch.append_column("fertility_micro",
                                   pa.array(fert, pa.int64()))

    return summed.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def source_stats(ds):
    """(source, n_docs, sum_tokens, sum_chars, n_langs): per-source
    (domain-level) corpus profile — the aggregate a crawl operator reads
    before deciding what to recrawl or down-sample.  Two native hash
    aggregates over combiner partials: batch → one row per
    (source, lang); groupby(source, lang) completes the distinct-lang
    dedup; groupby(source) folds in the lang count.  Both exchanges
    carry O(sources × langs) rows, never documents."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        ws = pc.list_value_length(_tokens(batch)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        chars = pc.utf8_length(batch.column("text")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keys = (batch.column("source").to_pandas() + "\x1f"
                + batch.column("lang").to_pandas())
        codes, uniques = pd.factorize(keys, sort=False)
        k = len(uniques)
        n_docs = np.bincount(codes, minlength=k).astype(np.int64)
        t_sum = np.zeros(k, dtype=np.int64)
        c_sum = np.zeros(k, dtype=np.int64)
        np.add.at(t_sum, codes, ws)
        np.add.at(c_sum, codes, chars)
        src = [u.split("\x1f", 1)[0] for u in uniques]
        lng = [u.split("\x1f", 1)[1] for u in uniques]
        return pa.Table.from_arrays(
            [pa.array(src, pa.string()), pa.array(lng, pa.string()),
             pa.array(n_docs), pa.array(t_sum), pa.array(c_sum)],
            names=["source", "lang", "n_docs", "sum_tokens", "sum_chars"])

    lvl1 = aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["source", "lang"], ("sum", "n_docs"), ("sum", "sum_tokens"),
        ("sum", "sum_chars"))

    def mark(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            ["source", "lang", "n_docs", "sum_tokens", "sum_chars"])
        return pa.Table.from_arrays(
            [batch.column("source"), batch.column("n_docs"),
             batch.column("sum_tokens"), batch.column("sum_chars"),
             pa.array(np.ones(batch.num_rows, dtype=np.int64))],
            names=["source", "n_docs", "sum_tokens", "sum_chars",
                   "n_langs"])

    lvl2 = aggregate(
        lvl1.map_batches(mark, batch_format="pyarrow",
                         zero_copy_batch=True),
        "source", ("sum", "n_docs"), ("sum", "sum_tokens"),
        ("sum", "sum_chars"), ("sum", "n_langs"))
    return lvl2.map_batches(
        lambda b: b.rename_columns(
            ["source", "n_docs", "sum_tokens", "sum_chars", "n_langs"]),
        batch_format="pyarrow", zero_copy_batch=True)


# -- dataset-level wrappers -------------------------------------------------

def token_count(ds):
    return ds.map_batches(token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def quality_score(ds):
    return ds.map_batches(quality_score_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def lang_id(ds):
    return ds.map_batches(lang_id_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def fingerprint(ds):
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def token_count_bpe(ds):
    return ds.map_batches(token_count_bpe_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def winnow(ds):
    return ds.map_batches(winnow_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def _stratified_partial(batch: pa.Table, group_col: str,
                        k: int) -> pa.Table:
    """Per-batch combiner for stratified sampling: keep only each
    group's k smallest (md5(doc_id), doc_id) rows, so the shuffle
    ships ≤ k rows per (batch, group) instead of the corpus."""
    import numpy as np

    ids = batch.column("doc_id").to_pylist()
    keys = np.asarray(batch.column(group_col).to_pylist(), dtype=object)
    ranks = np.asarray(
        [hashlib.md5(str(d).encode()).hexdigest() for d in ids],
        dtype=object)
    idarr = np.asarray(ids, dtype=np.int64)
    order = np.lexsort((idarr, ranks, keys))
    keys_s = keys[order]
    starts = np.r_[0, np.nonzero(keys_s[1:] != keys_s[:-1])[0] + 1]
    pos = np.arange(len(keys_s)) - np.repeat(
        starts, np.diff(np.r_[starts, len(keys_s)]))
    keep_idx = order[pos < k]
    kept = batch.take(pa.array(np.sort(keep_idx)))
    return pa.Table.from_arrays(
        [kept.column(group_col).cast(pa.string()),
         kept.column("doc_id").cast(pa.int64())],
        names=[group_col, "doc_id"])


def sample_stratified(ds, group_col: str = "lang", k: int = 3):
    """Deterministic stratified sample: per group, the k docs with the
    smallest md5(doc_id) hex (ties → doc_id) — a reproducible
    per-stratum pick that is identical across engines, block splits and
    cluster sizes (content-addressed rank, no RNG).  SQL oracle:
    row_number() OVER (PARTITION BY group ORDER BY md5(doc_id), doc_id).

    Combiner pattern: each batch pre-selects its own top-k per group,
    so the final (tiny) per-group selection sees ≤ k·n_batches rows."""
    import functools

    partial_fn = functools.partial(_stratified_partial,
                                   group_col=group_col, k=k)

    def final(group: pa.Table) -> pa.Table:
        import numpy as np

        ids = group.column("doc_id").to_pylist()
        ranks = np.asarray(
            [hashlib.md5(str(d).encode()).hexdigest() for d in ids],
            dtype=object)
        order = np.lexsort((np.asarray(ids, dtype=np.int64), ranks))[:k]
        kept = group.take(pa.array(np.sort(order)))
        return pa.Table.from_arrays(
            [kept.column(group_col), kept.column("doc_id")],
            names=[group_col, "doc_id"])

    return ds.select_columns([group_col, "doc_id"]) \
        .map_batches(partial_fn, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(group_col).map_groups(final, batch_format="pyarrow")


def training_pipeline(ds, min_tokens: int = 10,
                      token_budget: int = PACK_TOKEN_BUDGET):
    """The end-to-end LLM-training-data preparation chain, one
    streaming Dataset pipeline:

        quality filter (vectorized predicate, no shuffle)
          → exact dedup (min doc_id per text, one groupby)
          → sequence packing (hash-bucketed first-fit, one shuffle)

    Composes the three independently-oracled stages; the whole chain is
    pinned by its own independent golden (tools/gen_goldens.py
    ``golden_training_pipeline`` — re-derived predicate, dedup winner
    and packing, no library code).  Output (bucket, pack_id, doc_id,
    n_tokens)."""
    return pack_sequences(
        exact_dedup(corpus_quality_filter(ds, min_tokens)),
        token_budget)


HASH_EMBED_DIM = 64


def _hash_embed_batch(batch: pa.Table, dim: int) -> pa.Table:
    """(doc_id, embedding): deterministic feature-hashing doc vector —
    each token t adds sign(t) to slot crc32(t) % dim (sign = bit 31 of
    the crc), then L2-normalize.  No model, no RNG: the same text maps
    to the same vector on every engine, block split and cluster size.
    Vectorized: one factorize pass hashes each DISTINCT token once,
    then a bincount scatter per (row, slot)."""
    import numpy as np
    import pandas as pd

    tokens = _tokens(batch)
    lengths = pc.list_value_length(tokens) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    n = batch.num_rows
    mat = np.zeros((n, dim), dtype=np.float64)
    if n and lengths.sum():
        codes, uniques = pd.factorize(
            pc.list_flatten(tokens).to_pandas(), sort=False)
        crcs = np.array([_zlib.crc32(str(u).encode("utf-8"))
                         for u in uniques], dtype=np.uint32)
        slot_of = (crcs % np.uint32(dim)).astype(np.int64)
        sign_of = np.where((crcs >> np.uint32(31)) & np.uint32(1),
                           -1.0, 1.0)
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        valid = codes >= 0
        flat = rows[valid] * dim + slot_of[codes[valid]]
        np.add.at(mat.reshape(-1), flat, sign_of[codes[valid]])
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mat = mat / norms
    return pa.Table.from_arrays(
        [batch.column("doc_id").cast(pa.int64()),
         pa.array(list(mat), pa.list_(pa.float64()))],
        names=["doc_id", "embedding"])


def inverted_index_batch(batch: pa.Table) -> pa.Table:
    """(token, doc_id, tf) postings: each document lives wholly in one
    row, so per-document term frequencies are exact without ANY shuffle
    — the op is embarrassingly parallel (the classic map phase of a
    distributed index build; downstream df/idf is `token_frequencies`).
    Vectorized: factorize flattened tokens, then count (row, code)
    pairs via lexsort run-length — no per-row dicts."""
    import pandas as pd

    tokens = _tokens(batch)
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    out_tok, out_doc, out_tf = [], [], []
    for chunk, ids in _iter_aligned(tokens, doc_ids):
        import numpy as np

        lengths = pc.list_value_length(chunk) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        if lengths.sum() == 0:
            continue
        flat = pc.list_flatten(chunk).to_pandas()
        codes, uniques = pd.factorize(flat, sort=False)
        codes = codes.astype(np.int64)
        rows = np.repeat(np.arange(len(lengths), dtype=np.int64),
                         lengths)
        order = np.lexsort((codes, rows))
        r, c = rows[order], codes[order]
        first = np.ones(len(r), dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(first)
        tf = np.diff(np.append(starts, len(r)))
        out_tok.append(pa.array(
            np.asarray(uniques, dtype=object)[c[starts]], pa.string()))
        out_doc.append(pa.array(ids[r[starts]], pa.int64()))
        out_tf.append(pa.array(tf.astype(np.int64), pa.int64()))
    if not out_tok:
        return pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.int64()),
             pa.array([], pa.int64())],
            names=["token", "doc_id", "tf"])
    return pa.Table.from_arrays(
        [pa.concat_arrays(out_tok), pa.concat_arrays(out_doc),
         pa.concat_arrays(out_tf)],
        names=["token", "doc_id", "tf"])


def _iter_aligned(tokens, doc_ids):
    """Yield (chunk, matching doc_id slice) pairs for a possibly-chunked
    list array."""
    import numpy as np

    chunks = (tokens.chunks if isinstance(tokens, pa.ChunkedArray)
              else [tokens])
    off = 0
    for chunk in chunks:
        yield chunk, np.asarray(doc_ids[off:off + len(chunk)])
        off += len(chunk)


def inverted_index(ds):
    """Distributed inverted-index postings, sharded by input block.
    At 100 TB each output fragment is the postings of its input shard;
    a query-side merge is a groupby(token) over (token, doc_id, tf) —
    deliberately NOT done here so the build stays shuffle-free."""
    return ds.map_batches(inverted_index_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


BM25_QUERY = ("hash", "join", "merge", "sort")
BM25_K1 = 1.2
BM25_B = 0.75


def _bm25_match_batch(batch: pa.Table, terms: tuple[str, ...]) -> pa.Table:
    """(doc_id, dl, tf_0..tf_{T-1}) for docs containing >=1 query term.
    Fixed-width term columns (the query is known at plan time) so every
    downstream step is plain numpy with NO per-doc groupby: a doc's
    postings never leave the row they were born in."""
    import numpy as np

    tokens = _tokens(batch)
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    sorted_terms = np.sort(np.asarray(terms, dtype=object))
    # position of each sorted term in the caller's term order
    col_of = np.array([list(terms).index(t) for t in sorted_terms],
                      dtype=np.int64)
    out = []
    for chunk, ids in _iter_aligned(tokens, doc_ids):
        lengths = pc.list_value_length(chunk) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(lengths)
        if n == 0:
            continue
        flat = pc.list_flatten(chunk)
        mask = pc.is_in(flat, value_set=pa.array(terms, pa.string())) \
            .to_numpy(zero_copy_only=False)
        tf = np.zeros((n, len(terms)), dtype=np.int64)
        if mask.any():
            rows = np.repeat(np.arange(n, dtype=np.int64), lengths)[mask]
            vals = np.asarray(flat.to_pandas(), dtype=object)[mask]
            tcol = col_of[np.searchsorted(sorted_terms, vals)]
            np.add.at(tf, (rows, tcol), 1)
        keep = tf.any(axis=1)
        if not keep.any():
            continue
        arrays = [pa.array(ids[keep].astype(np.int64)),
                  pa.array(lengths[keep])]
        arrays += [pa.array(tf[keep, i]) for i in range(len(terms))]
        out.append(pa.Table.from_arrays(
            arrays, names=["doc_id", "dl"]
            + [f"tf_{i}" for i in range(len(terms))]))
    if not out:
        schema = pa.schema([("doc_id", pa.int64()), ("dl", pa.int64())]
                           + [(f"tf_{i}", pa.int64())
                              for i in range(len(terms))])
        return schema.empty_table()
    return pa.concat_tables(out)


def bm25_topk(ds, terms: tuple[str, ...] = BM25_QUERY, k: int = 20,
              k1: float = BM25_K1, b: float = BM25_B):
    """Top-k BM25 text retrieval: (doc_id, score_micro), score
    descending then doc_id.

    BM25 with a RATIONAL idf — ``(N - df + 0.5) / (df + 0.5)`` instead
    of its logarithm — so every arithmetic op is an IEEE-correctly-
    rounded +,-,*,/ and the score is bit-identical between numpy and
    any SQL engine (libm log implementations differ in the last ulp;
    division does not).  Per-term contributions are quantized to
    integer micros (floor(x*1e6+0.5)) BEFORE summing, so the doc score
    is an exact int64 regardless of summation order — the same
    fixed-point trick as the distributed IVF fit.

    Plan shape (scale notes):
    * one streaming pass computes corpus stats (N, total tokens) via a
      per-block combiner — at production scale this is corpus metadata
      computed once, like the IVF index;
    * one streaming pass emits fixed-width matched rows (doc_id, dl,
      tf per query term) — a doc's postings stay in its row, so there
      is NO per-doc shuffle;
    * df per term = per-block indicator partial sums -> tiny global
      sum (driver receives T numbers, like centroids);
    * scoring is one vectorized map over matched rows, then per-block
      partial top-k + a final sort over <=k rows per block."""
    import numpy as np

    t = tuple(terms)

    def stats_partial(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(_tokens(batch)).cast(pa.int64())
        return pa.Table.from_arrays(
            [pa.array([batch.num_rows], pa.int64()),
             pa.array([pc.sum(n).as_py() or 0], pa.int64())],
            names=["n_docs", "n_toks"])

    agg = ds.map_batches(stats_partial, batch_format="pyarrow",
                         zero_copy_batch=True).sum(["n_docs", "n_toks"])
    n_docs, n_toks = agg["sum(n_docs)"], agg["sum(n_toks)"]
    avgdl = np.float64(n_toks) / np.float64(n_docs)

    matched = ds.map_batches(
        lambda batch: _bm25_match_batch(batch, t),
        batch_format="pyarrow", zero_copy_batch=True)

    def df_partial(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array([pc.sum(pc.cast(pc.greater(
                batch.column(f"tf_{i}"), 0), pa.int64())).as_py() or 0],
                pa.int64()) for i in range(len(t))],
            names=[f"df_{i}" for i in range(len(t))])

    dfa = matched.map_batches(df_partial, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .sum([f"df_{i}" for i in range(len(t))])
    dfs = np.array([dfa[f"sum(df_{i})"] for i in range(len(t))],
                   dtype=np.float64)
    nd = np.float64(n_docs)
    idf = (nd - dfs + 0.5) / (dfs + 0.5)          # rational idf

    def score_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        dl = batch.column("dl").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        norm = dl / avgdl
        score = np.zeros(len(ids), dtype=np.int64)
        for i in range(len(t)):
            tf = batch.column(f"tf_{i}").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            tfn = tf * (k1 + 1.0) / (tf + k1 * ((1.0 - b) + b * norm))
            score += np.floor(idf[i] * tfn * 1000000.0 + 0.5) \
                .astype(np.int64)
        order = np.lexsort((ids, -score))[:k]
        return pa.Table.from_arrays(
            [pa.array(ids[order].astype(np.int64)),
             pa.array(score[order])],
            names=["doc_id", "score_micro"])

    partial = matched.map_batches(score_partial, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return partial.sort(["score_micro", "doc_id"],
                        descending=[True, False]).limit(k)


def hash_embeddings(ds, dim: int = HASH_EMBED_DIM):
    """Dataset wrapper for the feature-hashing embedder — turns the
    documents table into a (doc_id, embedding) table that feeds every
    embedding operator here (LSH near-dup, kNN, IVF) without any
    pretrained model.  Pure map_batches; no shuffle."""
    import functools

    return ds.select_columns(["doc_id", "text"]).map_batches(
        functools.partial(_hash_embed_batch, dim=dim),
        batch_format="pyarrow", zero_copy_batch=True)


def vocab_coverage(ds, vocab_size: int = 50):
    """(doc_id, n_in_vocab, n_unk): encode every document against the
    corpus's own top-``vocab_size`` token vocabulary — the coverage
    profile a tokenizer-training pipeline computes before committing to
    a vocab.

    Two passes over the corpus: (1) the token_frequencies combiner
    builds the vocabulary (deterministic tie-break: count desc, token
    asc); the vocab is driver-materialized (vocab_size rows — constant)
    and ray.put-broadcast; (2) a pure map counts per-document hits with
    Arrow's C is_in kernel + one bincount — no shuffle at all on the
    encode side."""
    import ray

    vocab = [r["token"] for r in
             token_frequencies(ds, vocab_size).take_all()]
    ref = ray.put(vocab)

    def encode(batch: pa.Table, *, _ref=ref) -> pa.Table:
        import numpy as np

        v = _ref if isinstance(_ref, list) else ray.get(_ref)
        toks = _tokens(batch)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(lens)), lens)
        hit = pc.is_in(flat, value_set=pa.array(v, pa.string())) \
            .to_numpy(zero_copy_only=False)
        n_in = np.bincount(rows, weights=hit,
                           minlength=len(lens)).astype(np.int64)
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(n_in),
             pa.array(lens.astype(np.int64) - n_in)],
            names=["doc_id", "n_in_vocab", "n_unk"])

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


def topk_tokens_per_group(ds, group_col: str = "lang", k: int = 10,
                          n_buckets: int = 64):
    """(group, token, n): the k most frequent tokens WITHIN each group
    (per-language vocabulary heads — the grouped heavy-hitters shape).

    Combiner: each batch pre-aggregates (group, token) counts with one
    Arrow group_by (C kernel), so the shuffle ships partial counts.
    One sum aggregate by (group, token) makes counts exact, then a
    bucketed partial top-k per group (hash(group) co-locates a group's
    rows; groups are few but may be heavy — the top_links_per_domain
    lesson) finishes with a deterministic tie order (n desc, token
    asc)."""
    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        groups = batch.column(group_col).to_numpy(zero_copy_only=False)
        t = pa.Table.from_arrays(
            [pa.array(np.repeat(groups, lengths)),
             pc.list_flatten(toks)],
            names=["group", "token"])
        agg = t.group_by(["group", "token"]).aggregate(
            [("token", "count")])
        return agg.rename_columns(["group", "token", "n"])

    def topk_table(t: pa.Table) -> pa.Table:
        g = t.column("group").to_numpy(zero_copy_only=False)
        tok = np.asarray(t.column("token").to_pylist(), dtype=object)
        n = t.column("n").to_numpy(zero_copy_only=False)
        # sort (group asc, n desc, token asc); np.lexsort is stable,
        # last key primary
        order = np.lexsort((tok.astype("U"), -n, g.astype("U")))
        g, tok, n = g[order], tok[order], n[order]
        new = np.concatenate([[True], g[1:] != g[:-1]])
        starts = np.nonzero(new)[0]
        sizes = np.diff(np.append(starts, len(g)))
        pos = np.arange(len(g)) - np.repeat(starts, sizes)
        keep = pos < k
        return pa.Table.from_arrays(
            [pa.array(g[keep].tolist(), pa.string()),
             pa.array(tok[keep].tolist(), pa.string()),
             pa.array(n[keep])],
            names=["group", "token", "n"])

    summed = aggregate(
        ds.select_columns([group_col, "text"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["group", "token"], ("sum", "n")) \
        .map_batches(lambda b: b.rename_columns(["group", "token", "n"]),
                     batch_format="pyarrow", zero_copy_batch=True)

    def pruned(batch: pa.Table) -> pa.Table:
        """Per-block partial top-k — bounds the bucketed shuffle to k
        rows per (block, group)."""
        top = topk_table(batch)
        return top.append_column("bucket", pa.array(_sbucket(
            top.column("group").to_pylist(), n_buckets)))

    keyed = summed.map_batches(pruned, batch_format="pyarrow",
                               zero_copy_batch=True)
    return keyed.groupby("bucket").map_groups(
        lambda grp: topk_table(grp.drop_columns(["bucket"])),
        batch_format="pyarrow")


# --------------------------------------------------------------------------
# Distributed BPE tokenizer training (Sennrich et al. 2016)
# --------------------------------------------------------------------------
# The tokenizer-fitting step of a training-data pipeline: learn the
# top-R byte-pair (here: codepoint-pair) merges over the corpus.  Each
# round is ONE combiner-reduced pair-count pass — per batch the current
# token streams are rebuilt from raw text by replaying the merges
# learned so far (stateless maps: no corpus-sized state ever persists
# between rounds; the merge list is tiny and ships by closure), adjacent
# pairs are counted with np.unique over packed int64 keys, and only the
# (a, b, n) partials enter the shuffle.  The training input is pinned
# once (one read feeds all rounds); size the training sample to the
# cluster's object store — the 100-TB practice anyway.  The winning
# merge is the max
# count with (a, b) as the deterministic tie-break, so the learned merge
# sequence is bit-identical under any blocking or cluster size.
#
# Replaying r merges costs r vectorized passes per batch → O(R²) total
# passes for R rounds; the standard practice at 100 TB is to fit on a
# deterministic sample (compose with sample_by_hash) and that is what
# the registered query does at full sf anyway — R stays small (≤ 32)
# for a char-level demo vocabulary.

BPE_MERGE_BASE = 0x110000       # merged ids start above all codepoints


def _bpe_streams(texts, merges: list[tuple[int, int]]):
    """One int64 stream per text (codepoints, then merges replayed in
    rank order with greedy leftmost-nonoverlapping semantics)."""
    out = []
    for t in texts:
        s = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32) \
            .astype(np.int64)
        for rank, (a, b) in enumerate(merges):
            if len(s) < 2:
                break
            m = (s[:-1] == a) & (s[1:] == b)
            if not m.any():
                continue
            # greedy left-to-right: within each run of consecutive
            # matches only even offsets merge ("aaa" + (a,a) -> "Xa")
            starts = m & ~np.concatenate(([False], m[:-1]))
            run_id = np.cumsum(starts)
            first_idx = np.zeros(len(m), dtype=np.int64)
            idxs = np.arange(len(m))
            np.maximum.accumulate(np.where(starts, idxs, 0), out=first_idx)
            take = m & (((idxs - first_idx) % 2) == 0)
            pos = np.where(take)[0]
            s[pos] = BPE_MERGE_BASE + rank
            s = np.delete(s, pos + 1)
        out.append(s)
    return out


def _bpe_pair_partials(merges: list[tuple[int, int]]):
    def count_pairs(batch: pa.Table) -> pa.Table:
        streams = _bpe_streams(batch.column("text").to_pylist(), merges)
        if streams:
            flat = np.concatenate(
                [np.concatenate((s, [np.int64(-1)])) for s in streams])
        else:
            flat = np.array([-1], dtype=np.int64)
        a, b = flat[:-1], flat[1:]
        ok = (a >= 0) & (b >= 0)
        packed = (a[ok] << np.int64(21)) | b[ok]
        keys, counts = np.unique(packed, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(keys >> np.int64(21)),
             pa.array(keys & np.int64((1 << 21) - 1)),
             pa.array(counts.astype(np.int64))],
            names=["a", "b", "n"])

    return count_pairs


def bpe_train(ds, n_merges: int = 16, min_count: int = 2):
    """Learn ``n_merges`` merges over the corpus; returns a pa.Table
    (rank, left, right, n) — left/right are codepoints or earlier
    merge ids (BPE_MERGE_BASE + rank).  Stops early when the best pair
    falls under ``min_count``.  Driver holds only the merge list and
    each round's (a, b, n) aggregate head — never token streams."""
    ds = ds.materialize()      # one read feeds every round
    merges: list[tuple[int, int]] = []
    rows = []
    for _ in range(n_merges):
        # ONE plan execution per round: the (a, b, n) aggregate is
        # sparse and vocab-bounded (≤ |alphabet ∪ merges|² observed
        # pairs, NOT corpus-proportional), so the driver-side argmax
        # over it is safe at any corpus size; a distributed
        # Max-then-filter fallback costs two more executions per round
        # (measured 3× the round wall) for no bound improvement
        counts = aggregate(
            ds.map_batches(_bpe_pair_partials(list(merges)),
                           batch_format="pyarrow",
                           zero_copy_batch=True),
            ["a", "b"], ("sum", "n")).take_all()
        if not counts:
            break
        top_n = max(r["sum(n)"] for r in counts)
        if top_n < min_count:
            break
        a, b = min((r["a"], r["b"]) for r in counts
                   if r["sum(n)"] == top_n)
        a, b = int(a), int(b)
        rows.append({"rank": len(merges), "left": a, "right": b,
                     "n": int(top_n)})
        merges.append((a, b))
    return pa.Table.from_pylist(rows) if rows else pa.Table.from_pydict(
        {"rank": pa.array([], pa.int64()), "left": pa.array([], pa.int64()),
         "right": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})


def bpe_encode_counts(ds, merges: list[tuple[int, int]]):
    """(doc_id, n_tokens) after applying the learned merges — the
    train-once / encode-corpus half of the lifecycle (pure map, the
    tiny merge list ships by closure)."""
    def f(batch: pa.Table) -> pa.Table:
        streams = _bpe_streams(batch.column("text").to_pylist(),
                               list(merges))
        return pa.Table.from_arrays(
            [batch.column("doc_id"),
             pa.array(np.array([len(s) for s in streams],
                               dtype=np.int64))],
            names=["doc_id", "n_tokens"])

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def compression_ratio_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, raw_bytes, zlib_bytes, ratio_micro): per-doc DEFLATE
    compressibility — the classic cheap redundancy signal (a page of
    repeated boilerplate compresses far below natural prose; Gopher /
    Dolma-family curation stacks use exactly this as a quality gate).
    ratio_micro = floor(1e6 · compressed / raw) over the utf-8 bytes,
    fixed-point so the value is platform-order-invariant; raw_bytes=0
    rows report ratio_micro=0.  zlib level is pinned (6) so the output
    is deterministic for a given zlib — the golden oracle shares the
    codec but reimplements everything around it single-process."""
    import zlib

    texts = batch.column("text").to_pylist()
    raw = np.empty(len(texts), dtype=np.int64)
    comp = np.empty(len(texts), dtype=np.int64)
    # one C zlib call per doc (same per-doc-codec shape as the md5
    # fingerprint pass); the Python loop is over docs, not tokens
    for i, t in enumerate(texts):
        b = t.encode("utf-8")
        raw[i] = len(b)
        comp[i] = len(zlib.compress(b, 6))
    ratio = np.where(raw > 0, comp * 1_000_000 // np.maximum(raw, 1), 0)
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(raw), pa.array(comp),
         pa.array(ratio)],
        names=["doc_id", "raw_bytes", "zlib_bytes", "ratio_micro"])


def compression_ratio(ds):
    """Per-doc zlib compressibility — pure map, no shuffle; one
    column-pruned streaming pass at any corpus size."""
    return ds.map_batches(compression_ratio_batch,
                          batch_format="pyarrow", zero_copy_batch=True)


def epoch_shuffle(ds, epoch: int = 0, n_shards: int = 64):
    """(doc_id, shard, pos): the deterministic per-epoch global shuffle
    a training job consumes — shard = md5(doc_id ":e" epoch) % n_shards,
    pos = the doc's 1-based rank inside its shard ordered by the same
    hash (ties → doc_id).  Changing ``epoch`` reshuffles everything
    with zero coordination; re-running an epoch reproduces its order
    bit-exactly (resumable training data order, the webdataset-style
    sharded-shuffle practice).

    Scale shape: the hash assignment is a pure map; the ONE exchange
    groups by the constant shard key, and each shard's order is a
    vectorized in-shard lexsort.  A shard is the unit a trainer streams
    sequentially, so ``n_shards`` is sized to make corpus/n_shards fit
    a worker (file-sized shards at 100 TB — tens of thousands of
    shards, still constant per-task state).  SQL oracle: ROW_NUMBER()
    OVER (PARTITION BY shard ORDER BY md5 hex, doc_id) — the hex string
    sort and the Python hex sort agree byte-for-byte."""
    import hashlib

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hexes = [hashlib.md5(f"{i}:e{epoch}".encode()).hexdigest()
                 for i in ids]
        shard = np.array([int(h[:4], 16) % n_shards for h in hexes],
                         dtype=np.int64)
        return pa.Table.from_arrays(
            [batch.column("doc_id").cast(pa.int64()),
             pa.array(shard), pa.array(hexes, pa.string())],
            names=["doc_id", "shard", "hkey"])

    def rank(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        hk = group.column("hkey").to_numpy(
            zero_copy_only=False).astype("U32")
        order = np.lexsort((ids, hk))
        pos = np.empty(len(ids), dtype=np.int64)
        pos[order] = np.arange(1, len(ids) + 1)
        return pa.Table.from_arrays(
            [group.column("doc_id"), group.column("shard"),
             pa.array(pos)],
            names=["doc_id", "shard", "pos"])

    return ds.select_columns(["doc_id"]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("shard").map_groups(rank, batch_format="pyarrow")


def charclass_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_chars_c, n_lower, n_upper, n_digit, n_space,
    n_other): per-doc character-class composition — the symbol-ratio
    quality signal (a doc that is mostly digits/punctuation is a
    table dump or minified blob, not prose).  All counts via Arrow's
    RE2 count_substring_regex = DuckDB's regexp engine → bit-exact
    live SQL parity; n_other is derived by subtraction so the five
    classes always partition n_chars_c."""
    text = batch.column("text")
    n_chars = pc.utf8_length(text).cast(pa.int64())
    n_lower = pc.count_substring_regex(text, pattern="[a-z]") \
        .cast(pa.int64())
    n_upper = pc.count_substring_regex(text, pattern="[A-Z]") \
        .cast(pa.int64())
    n_digit = pc.count_substring_regex(text, pattern="[0-9]") \
        .cast(pa.int64())
    n_space = pc.count_substring_regex(text, pattern=r"\s") \
        .cast(pa.int64())
    n_other = pc.subtract(
        n_chars, pc.add(pc.add(n_lower, n_upper),
                        pc.add(n_digit, n_space)))
    return pa.Table.from_arrays(
        [batch.column("doc_id"), n_chars, n_lower, n_upper, n_digit,
         n_space, n_other],
        names=["doc_id", "n_chars_c", "n_lower", "n_upper", "n_digit",
               "n_space", "n_other"])


def charclass_stats(ds):
    """Per-doc character-class composition — pure map, no shuffle."""
    return ds.map_batches(charclass_stats_batch,
                          batch_format="pyarrow", zero_copy_batch=True)


def curation_pipeline(ds, threshold: float = 0.5, epoch: int = 0,
                      n_shards: int = 64):
    """The corpus-curation counterpart to training_pipeline, one
    streaming Dataset chain:

        Gopher quality mask (vectorized predicate, no shuffle)
          → keep-longest near-dedup (banding + CC + argmax attach)
          → deterministic per-epoch sharded shuffle

    i.e. filter junk, collapse each near-dup cluster to its fullest
    member, and emit the (doc_id, shard, pos) training order.  The
    three stages are independently oracled; the WHOLE chain is pinned
    by its own independent golden (tools/gen_goldens.py re-derives the
    predicate, the union-find + keep-longest rule and the md5 shuffle
    with no library code)."""

    def keep_gopher(batch: pa.Table) -> pa.Table:
        mask = gopher_quality_batch(batch).column("keep")
        return batch.filter(pc.equal(mask, 1)) \
            .select(["doc_id", "text"])

    filtered = ds.select_columns(["doc_id", "text"]).map_batches(
        keep_gopher, batch_format="pyarrow", zero_copy_batch=True)
    # the dedup stage consumes its input THREE times (pairs, quality
    # attach, anti-join) — materialize the filter once instead of
    # re-running the predicate per consumer (single-consumption rule)
    survivors = dedup_keep_longest(filtered.materialize(), threshold)
    return epoch_shuffle(survivors, epoch=epoch, n_shards=n_shards)


def token_diversity_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, simpson_micro): Simpson diversity index of
    each document's token distribution — 1 − Σ(c/n)², the
    collision-probability complement — an entropy-like lexical-richness
    quality signal that needs NO logarithm, so it stays in exact
    integer arithmetic end to end: simpson_micro =
    (1e6·(n² − Σc²)) // n², bit-equal to the SQL oracle's integer
    floor division (bound: 1e6·n² < 2^63 ⇔ n < ~3e6 tokens per doc).

    Vectorized: one factorize over the flattened tokens, one lexsort by
    (row, code) + neighbor-compare for per-(doc, token) run lengths,
    one add.at scatter of c² per doc — no Python over rows or tokens."""
    import pandas as pd

    tokens = _tokens(batch)
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    lengths = pc.list_value_length(tokens) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    n_rows = batch.num_rows
    s2 = np.zeros(n_rows, dtype=np.int64)
    if n_rows and lengths.sum():
        codes, _ = pd.factorize(
            pc.list_flatten(tokens).to_pandas(), sort=False)
        codes = codes.astype(np.int64)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        order = np.lexsort((codes, rows))
        r_s, c_s = rows[order], codes[order]
        new = np.ones(len(r_s), dtype=bool)
        new[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
        starts = np.flatnonzero(new)
        runs = np.diff(np.append(starts, len(r_s)))
        np.add.at(s2, r_s[starts], runs * runs)
    n = lengths
    micro = np.zeros(n_rows, dtype=np.int64)
    nz = n > 0
    micro[nz] = (1_000_000 * (n[nz] * n[nz] - s2[nz])) \
        // (n[nz] * n[nz])
    return pa.Table.from_arrays(
        [batch.column("doc_id").cast(pa.int64()), pa.array(n),
         pa.array(micro)],
        names=["doc_id", "n_tokens", "simpson_micro"])


def token_diversity(ds):
    """Per-document Simpson token diversity: pure map, no shuffle."""
    return ds.select_columns(["doc_id", "text"]).map_batches(
        token_diversity_batch, batch_format="pyarrow",
        zero_copy_batch=True)


def tfidf_top_terms(ds, k: int = 3, n_buckets: int = 256):
    """(doc_id, term, score_micro): each document's top-``k`` TF-IDF
    terms — per-document keyword extraction (topic tagging, index-page
    detection, mixture diagnostics).  Ties break to the lexicographically
    smaller term, so the survivors are deterministic.

    IDF is the RATIONAL BM25 form ``(N − df + 0.5) / (df + 0.5)`` — one
    IEEE divide instead of a logarithm (libm logs differ in the last
    ulp between engines; division does not, the `bm25_topk` trick), and
    the tf·idf product quantizes to integer micros before any ordering,
    so ranking is exact on both engines.

    Two linear all-to-alls, nothing corpus-sized on the driver:
    * docs pre-reduce per block to distinct (term, doc, tf) rows (a doc
      lives in one block, so tf is exact at the combiner);
    * exchange 1 keys by hash(term): a term's postings land complete in
      one cell, so df is exact in-cell and every row scores there —
      df is NEVER a separate table to join;
    * exchange 2 keys by hash(doc): one lexsort + run-rank kernel per
      cell keeps each doc's top-k.  Both shuffles ship fixed-width
      rows; vocabulary and corpus size only widen them linearly."""
    import pandas as pd

    agg = ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [pa.array([b.num_rows], pa.int64())], names=["n"]),
        batch_format="pyarrow", zero_copy_batch=True).sum("n")
    n_docs = int(agg)

    def doc_tf(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        flat = pc.list_flatten(toks)
        codes, uniq = pd.factorize(
            pd.Series(flat.to_pandas()), sort=False)
        packed, tf = np.unique(rows * len(uniq) + codes,
                               return_counts=True)
        docs = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[packed // len(uniq)]
        terms = uniq.to_numpy(dtype=object)[packed % len(uniq)]
        return pa.Table.from_arrays(
            [pa.array(_sbucket(terms, n_buckets)),
             pa.array(terms.astype(str), pa.string()),
             pa.array(docs), pa.array(tf.astype(np.int64))],
            names=["bucket", "term", "doc_id", "tf"])

    def score_cell(group: pa.Table) -> pa.Table:
        terms = group.column("term").to_pandas()
        codes, uniq = pd.factorize(terms, sort=False)
        df = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        idf = (n_docs - df + 0.5) / (df + 0.5)
        tf = group.column("tf").to_numpy(zero_copy_only=False)
        score = np.floor(tf.astype(np.float64) * idf[codes]
                         * 1_000_000.0 + 0.5).astype(np.int64)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(docs, n_buckets)), group.column("doc_id"),
             group.column("term"), pa.array(score)],
            names=["dbucket", "doc_id", "term", "score_micro"])

    def topk_cell(group: pa.Table) -> pa.Table:
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        score = group.column("score_micro") \
            .to_numpy(zero_copy_only=False)
        terms = np.asarray(group.column("term").to_pylist(),
                           dtype=object)
        order = np.lexsort((terms, -score, docs))
        d = docs[order]
        starts = np.nonzero(np.append(True, d[1:] != d[:-1]))[0]
        rank = np.arange(len(d)) - np.repeat(
            starts, np.diff(np.append(starts, len(d))))
        idx = pa.array(order[rank < k])
        return pa.Table.from_arrays(
            [group.column("doc_id").take(idx),
             group.column("term").take(idx),
             group.column("score_micro").take(idx)],
            names=["doc_id", "term", "score_micro"])

    return ds.select_columns(["doc_id", "text"]) \
        .map_batches(doc_tf, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(score_cell,
                                      batch_format="pyarrow") \
        .groupby("dbucket").map_groups(topk_cell,
                                       batch_format="pyarrow")


def exact_k_sample(ds, k: int = 100):
    """(doc_id,): an EXACTLY-k deterministic uniform sample — the k
    documents with the smallest md5(str(doc_id)) hex keys (ties to the
    smaller doc_id).  Complements the hash-threshold samplers
    (`sample_by_hash`, `pps_sample`), whose sizes are only expected
    values: eval-set construction often needs a precise count.
    Content-addressed like the rest of the sampling family, so the
    chosen set is stable under re-sharding and cluster size — but NOT
    under corpus growth (a new doc with a smaller key evicts the
    largest; that is the exact-k/threshold tradeoff, by construction).

    Per-block partial top-k (each block ships at most k (key, id)
    rows — never the corpus), one single-block final sort over
    ≤ k·#blocks rows.  The md5 hex keys compare lexicographically =
    numerically (fixed width), matching the SQL ORDER BY exactly."""
    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keys = np.asarray(
            [hashlib.md5(str(d).encode()).hexdigest() for d in ids],
            dtype=object)
        order = np.lexsort((ids, keys))[:k]
        return pa.Table.from_arrays(
            [pa.array(keys[order].astype(str), pa.string()),
             pa.array(ids[order])],
            names=["key", "doc_id"])

    def final(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("key").to_pylist(), dtype=object)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, keys))[:k]
        return pa.Table.from_arrays([pa.array(ids[order])],
                                    names=["doc_id"])

    return ds.select_columns(["doc_id"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .repartition(1) \
        .map_batches(final, batch_size=None, batch_format="pyarrow",
                     zero_copy_batch=True)


def top_bigrams(ds, k: int = 50):
    """Top-k corpus bigram frequencies (count desc, bigram asc) — the
    collocation census behind boilerplate detection and n-gram LM
    inspection; the bigram sibling of `token_frequencies`.

    Per-batch combiner, all C kernels: flatten tokens once, pair each
    token with its successor via two shifted gathers, drop the
    row-boundary pairs with an offsets mask, join element-wise, and
    pre-count with Arrow value_counts — the shuffle ships (bigram,
    partial_n) rows only; one sum aggregate and a tiny
    deterministic sort+limit finish."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["bigram", "n"])
        # positions of each row's LAST token: a pair must not cross it
        ends = np.cumsum(lens) - 1
        keep = np.ones(len(flat) - 1, dtype=bool)
        keep[ends[ends < len(flat) - 1]] = False
        left = flat.slice(0, len(flat) - 1).filter(pa.array(keep))
        right = flat.slice(1).filter(pa.array(keep))
        bg = pc.binary_join_element_wise(left, right, " ")
        vc = pc.value_counts(bg)
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["bigram", "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    summed = aggregate(partials, "bigram", ("sum", "n")).map_batches(
        lambda b: b.rename_columns(["bigram", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return summed.sort(["n", "bigram"], descending=[True, False]).limit(k)


def vocab_divergence(ds, k: int = 50, n_buckets: int = 256):
    """(token, chi2_micro, n_a, n_b): the top-``k`` tokens that most
    distinguish the two source halves (src0-9 vs src10-19) by the
    exact 2×2 chi-square statistic — the corpus-comparison census a
    curator reads to see what a new feed is adding (slang, spam
    templates, another language) before mixing it in.

    All arithmetic exact: per-(token, side) occurrence counts from one
    combiner + sum aggregate by token; side totals from a second
    narrow scalar pass; χ² = N·(ad−bc)²·10⁶ // ((a+b)(c+d)(a+c)(b+d))
    evaluated in Python big-ints per DISTINCT token (the vocab-bounded
    distinct-table convention of `mode_by_type` — (ad−bc)² alone
    overflows int64 at ~1e6-occurrence tokens; the SQL oracle's
    HUGEINT matches to ~sf1, noted there).  Ranking = (χ² desc, token)
    via the tiny sort+limit over the distinct-vocab table."""
    import pandas as pd

    def side_of(batch: pa.Table) -> np.ndarray:
        src = pd.Series(batch.column("source").to_pandas())
        return (src.str.slice(3).astype(np.int64) < 10) \
            .to_numpy().astype(np.int64) ^ 1  # 0 = src0-9, 1 = rest

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        side = np.repeat(side_of(batch), lens)
        flat = pc.list_flatten(toks)
        codes, uniq = pd.factorize(pd.Series(flat.to_pandas()),
                                   sort=False)
        counts = np.bincount(codes * 2 + side,
                             minlength=2 * len(uniq)).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(uniq.to_numpy(dtype=object).astype(str),
                      pa.string()),
             pa.array(counts[0::2]), pa.array(counts[1::2])],
            names=["token", "a", "b"])

    summed = aggregate(
        ds.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "token", ("sum", "a"), ("sum", "b")) \
        .map_batches(lambda t: t.rename_columns(["token", "a", "b"]),
                     batch_format="pyarrow", zero_copy_batch=True)

    def tot_partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        n = pc.list_value_length(toks).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        side = side_of(batch)
        return pa.Table.from_arrays(
            [pa.array([int(n[side == 0].sum())], pa.int64()),
             pa.array([int(n[side == 1].sum())], pa.int64())],
            names=["na", "nb"])

    tot = ds.select_columns(["source", "text"]).map_batches(
        tot_partial, batch_format="pyarrow",
        zero_copy_batch=True).sum(["na", "nb"])
    na, nb = int(tot["sum(na)"]), int(tot["sum(nb)"])

    def chi2(batch: pa.Table) -> pa.Table:
        a_arr = batch.column("a").to_numpy(zero_copy_only=False)
        b_arr = batch.column("b").to_numpy(zero_copy_only=False)
        out = np.empty(len(a_arr), dtype=np.int64)
        for i in range(len(a_arr)):     # vocab-bounded distinct table
            a, b = int(a_arr[i]), int(b_arr[i])
            c, d = na - a, nb - b
            den = (a + b) * (c + d) * (a + c) * (b + d)
            out[i] = ((a + b + c + d) * (a * d - b * c) ** 2
                      * 1_000_000 // den) if den else 0
        return pa.Table.from_arrays(
            [batch.column("token"), pa.array(out),
             pa.array(a_arr), pa.array(b_arr)],
            names=["token", "chi2_micro", "n_a", "n_b"])

    return summed.map_batches(chi2, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .sort(["chi2_micro", "token"],
              descending=[True, False]).limit(k)


def token_burstiness(ds, k: int = 50):
    """(token, disp_micro, n_occ): the top-``k`` burstiest tokens by
    the exact dispersion index D = Var(c)/Mean(c) over PER-DOCUMENT
    counts (zeros included) — Church-Gale burstiness: content words
    clump in few documents (D ≫ 1), function words spread evenly
    (D ≈ 1), so the ranking separates topical vocabulary from
    boilerplate without any stopword list.

    Exact integers end-to-end: each block emits per-token (Σc, Σc²)
    partials over ITS documents (a doc lives in one block, so per-doc
    counts are block-complete), one sum aggregate by token merges,
    and D_micro = (N·Σc² − (Σc)²)·10⁶ // (N·Σc) is evaluated in Python
    big-ints per DISTINCT token (the vocab-bounded distinct-table
    convention; Σc² products wrap int64 on heavy tokens at scale) —
    matching the oracle's HUGEINT floor division bit-for-bit.  Zero
    docs need no rows: they contribute nothing to either sum, and N
    comes from one scalar count pass."""
    import pandas as pd

    agg = ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [pa.array([b.num_rows], pa.int64())], names=["n"]),
        batch_format="pyarrow", zero_copy_batch=True).sum("n")
    n_docs = int(agg)

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        flat = pc.list_flatten(toks)
        codes, uniq = pd.factorize(pd.Series(flat.to_pandas()),
                                   sort=False)
        packed, tf = np.unique(rows * len(uniq) + codes,
                               return_counts=True)
        tcode = packed % len(uniq)
        s1 = np.bincount(tcode, weights=tf,
                         minlength=len(uniq)).astype(np.int64)
        s2 = np.bincount(tcode, weights=tf.astype(np.int64) ** 2,
                         minlength=len(uniq)).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(uniq.to_numpy(dtype=object).astype(str),
                      pa.string()), pa.array(s1), pa.array(s2)],
            names=["token", "s1", "s2"])

    summed = aggregate(
        ds.select_columns(["text"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "token", ("sum", "s1"), ("sum", "s2")) \
        .map_batches(lambda t: t.rename_columns(["token", "s1", "s2"]),
                     batch_format="pyarrow", zero_copy_batch=True)

    def disp(batch: pa.Table) -> pa.Table:
        s1a = batch.column("s1").to_numpy(zero_copy_only=False)
        s2a = batch.column("s2").to_numpy(zero_copy_only=False)
        out = np.empty(len(s1a), dtype=np.int64)
        for i in range(len(s1a)):       # vocab-bounded distinct table
            s1, s2 = int(s1a[i]), int(s2a[i])
            out[i] = ((n_docs * s2 - s1 * s1) * 1_000_000
                      // (n_docs * s1)) if s1 else 0
        return pa.Table.from_arrays(
            [batch.column("token"), pa.array(out), pa.array(s1a)],
            names=["token", "disp_micro", "n_occ"])

    return summed.map_batches(disp, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .sort(["disp_micro", "token"],
              descending=[True, False]).limit(k)


def stratified_k_sample(ds, group_col: str = "lang", k: int = 20):
    """(doc_id, group): EXACTLY min(k, |group|) documents per group —
    the balanced-eval-set builder (equal-sized per-language slices)
    that the expected-size samplers cannot give.  Selection = the k
    smallest md5(str(doc_id)) keys within each group (ties to the
    smaller doc_id), so membership is content-addressed: stable under
    re-sharding, cluster size, and growth of OTHER groups.

    Per-block partial top-k PER GROUP (one lexsort + run-rank kernel —
    each block ships ≤ k rows per group it contains, never the
    corpus), then one groupby(group) finishes with the same kernel."""
    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        grp = np.asarray(batch.column(group_col).to_pylist(),
                         dtype=object)
        keys = np.asarray(
            [hashlib.md5(str(d).encode()).hexdigest() for d in ids],
            dtype=object)
        order = np.lexsort((ids, keys, grp))
        g = grp[order]
        starts = np.nonzero(np.append(True, g[1:] != g[:-1]))[0]
        rank = np.arange(len(g)) - np.repeat(
            starts, np.diff(np.append(starts, len(g))))
        keep = order[rank < k]
        return pa.Table.from_arrays(
            [pa.array(ids[keep]),
             pa.array(grp[keep].astype(str), pa.string()),
             pa.array(keys[keep].astype(str), pa.string())],
            names=["doc_id", group_col, "key"])

    def final(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        keys = np.asarray(group.column("key").to_pylist(), dtype=object)
        order = np.lexsort((ids, keys))[:k]
        idx = pa.array(order)
        return pa.Table.from_arrays(
            [group.column("doc_id").take(idx),
             group.column(group_col).take(idx)],
            names=["doc_id", group_col])

    return ds.select_columns(["doc_id", group_col]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(group_col).map_groups(final, batch_format="pyarrow")


def gini_by_source(ds, n_buckets: int = 256):
    """(source, gini_micro): the Gini coefficient of document lengths
    per source — the concentration audit (a feed where a handful of
    giant pages carry most of the bytes behaves very differently under
    sampling and dedup than an even one).  Exact integer micros via
    the rank formula G = (2·Σi·xᵢ − (n+1)·Σx) / (n·Σx) over
    ascending-sorted lengths; ties contribute identically under any
    tie order, so the statistic is deterministic.

    One (source, n_chars, doc_id) exchange bucketed by hash(source) —
    ranks need a source's values TOGETHER and sorted, the
    group_quantiles posture; in-bucket one lexsort + segment
    `reduceat` per run computes Σx and Σi·x with the i·x products
    split into base-1e9 limbs (corr_by_group's trick: a single
    product reaches ~1e14, so naive int64 segment sums wrap near 1e4
    such rows; limbs hold to ~1e13 rows per source) and the final
    division runs in Python big-ints — the oracle's HUGEINT floor
    division exactly."""
    def emit(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(),
                         dtype=object)
        return pa.Table.from_arrays(
            [pa.array(_sbucket(src, n_buckets)),
             pa.array(src.astype(str), pa.string()),
             batch.column("n_chars").cast(pa.int64()),
             batch.column("doc_id").cast(pa.int64())],
            names=["bucket", "source", "n_chars", "doc_id"])

    def gini_cell(group: pa.Table) -> pa.Table:
        src = np.asarray(group.column("source").to_pylist(),
                         dtype=object)
        x = group.column("n_chars").to_numpy(zero_copy_only=False)
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, x, src))
        s, xs = src[order], x[order]
        starts = np.nonzero(np.append(True, s[1:] != s[:-1]))[0]
        lens = np.diff(np.append(starts, len(s)))
        i = np.arange(len(s), dtype=np.int64) - np.repeat(
            starts, lens) + 1               # 1-based rank within source
        ix = i * xs
        sx = np.add.reduceat(xs, starts)
        hi = np.add.reduceat(ix // 1_000_000_000, starts)
        lo = np.add.reduceat(ix % 1_000_000_000, starts)
        out = []
        for j in range(len(starts)):        # per-SOURCE loop (tiny)
            n = int(lens[j])
            sxx = int(sx[j])
            six = int(hi[j]) * 1_000_000_000 + int(lo[j])
            out.append((2 * six - (n + 1) * sxx) * 1_000_000
                       // (n * sxx) if sxx else 0)
        return pa.Table.from_arrays(
            [pa.array([str(s[k]) for k in starts], pa.string()),
             pa.array(out, pa.int64())],
            names=["source", "gini_micro"])

    return ds.select_columns(["source", "n_chars", "doc_id"]) \
        .map_batches(emit, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(gini_cell,
                                      batch_format="pyarrow")


def vocab_growth(ds, pcts: tuple[int, ...] = (1, 2, 5, 10, 25, 50,
                                              100)):
    """(pct, n_distinct): how many distinct tokens the first ``pct``
    percent of the corpus (by doc_id order) contains — the Heaps'-law
    growth curve that tells a curator whether more data still buys new
    vocabulary or only repeats it.

    No prefix is ever re-scanned: a token's contribution is decided by
    its FIRST document alone, so one token-keyed combiner + native
    groupby(token).min gives the first-occurrence table, a second
    combiner bins each token into the smallest prefix containing it
    (count partials per pct — constant width), and the cumulative sum
    over |pcts| rows runs on the driver.  Thresholds use integer
    ceiling ((N·pct + 99) // 100), exact on both engines."""
    import pandas as pd

    agg = ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [pa.array([b.num_rows], pa.int64())], names=["n"]),
        batch_format="pyarrow", zero_copy_batch=True).sum("n")
    n_docs = int(agg)
    thrs = np.array([(n_docs * p + 99) // 100 for p in pcts],
                    dtype=np.int64)

    def first_doc(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        flat = pc.list_flatten(toks)
        codes, uniq = pd.factorize(pd.Series(flat.to_pandas()),
                                   sort=False)
        docs = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[rows]
        order = np.lexsort((docs, codes))
        c, d = codes[order], docs[order]
        starts = np.nonzero(np.append(True, c[1:] != c[:-1]))[0]
        return pa.Table.from_arrays(
            [pa.array(uniq.to_numpy(dtype=object)[c[starts]]
                      .astype(str), pa.string()),
             pa.array(d[starts])],
            names=["token", "fd"])

    firsts = aggregate(
        ds.select_columns(["doc_id", "text"])
        .map_batches(first_doc, batch_format="pyarrow",
                     zero_copy_batch=True),
        "token", ("min", "fd"))

    def bin_partial(batch: pa.Table) -> pa.Table:
        fd = batch.column("min(fd)" if "min(fd)" in batch.column_names
                          else "fd").to_numpy(zero_copy_only=False)
        counts = np.array([(fd < t).sum() for t in thrs],
                          dtype=np.int64)   # |pcts| comparisons, tiny
        return pa.Table.from_arrays(
            [pa.array(np.array(pcts, dtype=np.int64)),
             pa.array(counts)],
            names=["pct", "n_distinct"])

    summed = aggregate(
        firsts.map_batches(bin_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        "pct", ("sum", "n_distinct"))
    return summed.map_batches(
        lambda b: b.rename_columns(["pct", "n_distinct"]),
        batch_format="pyarrow", zero_copy_batch=True)


def hapax_stats(ds):
    """(source, vocab_size, n_hapax, n_tokens): per-source lexical
    long-tail audit — vocabulary size, hapax legomena count (tokens
    occurring exactly once within the source) and total token count.
    The hapax share is the classic OCR-noise / boilerplate detector: a
    clean natural-language source runs ~40-60% hapax; machine-generated
    or template text collapses far below.

    Scale shape: per-batch Arrow group_by((source, token)) partial
    counts (the shuffle ships one row per (batch, source, token),
    never tokens), ONE sum aggregate settles true per-source
    token frequencies, then a second combiner + constant-size
    groupby(source) folds vocab/hapax/token counts."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False)
        src = batch.column("source").to_numpy(zero_copy_only=False)
        flat_src = pa.array(np.repeat(src, lengths))
        t = pa.Table.from_arrays(
            [flat_src, pc.list_flatten(toks)], names=["source", "token"])
        agg = t.group_by(["source", "token"]).aggregate(
            [("token", "count")])
        return agg.rename_columns(["source", "token", "c"])

    freqs = aggregate(
        ds.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["source", "token"], ("sum", "c"))

    def fold(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(["source", "token", "c"])
        c = batch.column("c").to_numpy(zero_copy_only=False)
        t = pa.Table.from_arrays(
            [batch.column("source"),
             pa.array(np.ones(len(c), dtype=np.int64)),
             pa.array((c == 1).astype(np.int64)), pa.array(c)],
            names=["source", "v", "h", "n"])
        agg = t.group_by("source").aggregate(
            [("v", "sum"), ("h", "sum"), ("n", "sum")])
        return agg.rename_columns(["source", "vocab_size", "n_hapax",
                                   "n_tokens"])

    return aggregate(
        freqs.map_batches(fold, batch_format="pyarrow",
                          zero_copy_batch=True),
        "source", ("sum", "vocab_size"), ("sum", "n_hapax"),
        ("sum", "n_tokens")) \
        .map_batches(lambda b: b.rename_columns(
            ["source", "vocab_size", "n_hapax", "n_tokens"]),
            batch_format="pyarrow", zero_copy_batch=True)


def coverage_select(ds, k: int = 20, unit: str = "token"):
    """(rank, doc_id, gain, covered): EXACT greedy maximum-coverage
    document selection — pick ``k`` documents one at a time, each the
    document adding the most NOT-YET-COVERED distinct units (ties →
    min doc_id), stopping early when the best marginal gain hits 0.
    ``unit`` = 'token' (whitespace tokens) or 'bigram' (adjacent token
    pairs joined by a space — the right granularity when the token
    vocabulary is small enough that one document saturates it).
    The submodular data-selection primitive (Nemhauser's greedy is a
    (1−1/e)-approximation to optimal coverage): the classic recipe for
    picking a small vocabulary-spanning subset to seed tokenizer
    training or eval sets.  ``covered`` is the running distinct-token
    total after each pick.

    Scale shape: ONE preprocessing pass builds the materialized
    (doc_id, distinct-token list) table — per batch an Arrow
    (row, token) group_by distinct, re-listed by row, so every doc's
    token set lives in exactly one row and a block-local argmax is a
    true per-doc argmax.  Each greedy round is then one streaming scan:
    the covered set (≤ Σ picked docs' vocab — selection-sized, never
    corpus-sized) broadcast once via ray.put, per block ONE is_in +
    bincount for every doc's marginal gain and a block-winner row
    carrying its uncovered tokens; the driver reduces #blocks candidate
    rows (constant) and never touches the corpus.  k scans total —
    exactness over the pass-count economy of lazy/stochastic greedy
    (documented trade; the greedy order IS the oracle contract)."""
    import ray

    if unit not in ("token", "bigram"):
        raise ValueError(f"unknown coverage unit {unit!r}")

    def doc_token_sets(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        if unit == "bigram":
            # adjacent pairs within a row: shifted gathers, row-
            # boundary pairs masked (the top_bigrams construction)
            n = len(flat)
            if n <= 1:
                units = flat.slice(0, 0)
                rows = np.zeros(0, dtype=np.int64)
            else:
                ends = np.cumsum(lens) - 1
                keep = np.ones(n - 1, dtype=bool)
                keep[ends[ends < n - 1]] = False
                left = flat.slice(0, n - 1).filter(pa.array(keep))
                right = flat.slice(1).filter(pa.array(keep))
                units = pc.binary_join_element_wise(left, right, " ")
                rows = np.repeat(
                    np.arange(len(lens), dtype=np.int64),
                    np.maximum(lens - 1, 0))
        else:
            units = flat
            rows = np.repeat(np.arange(len(lens), dtype=np.int64),
                             lens)
        pairs = pa.Table.from_arrays(
            [pa.array(rows), units], names=["row", "token"])
        dist = pairs.group_by(["row", "token"]).aggregate([])
        dist = dist.sort_by([("row", "ascending"),
                             ("token", "ascending")])
        r = dist.column("row").to_numpy(zero_copy_only=False)
        # rows with zero distinct tokens (empty text) still get a row
        counts = np.bincount(r, minlength=len(lens)).astype(np.int32)
        offsets = np.append(np.int32(0), np.cumsum(counts,
                                                   dtype=np.int32))
        tok_col = dist.column("token")
        tok_col = (tok_col.combine_chunks()
                   if isinstance(tok_col, pa.ChunkedArray) else tok_col)
        lst = pa.ListArray.from_arrays(pa.array(offsets), tok_col)
        return pa.Table.from_arrays(
            [batch.column("doc_id"), lst], names=["doc_id", "tokens"])

    sets = ds.map_batches(doc_token_sets, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()

    covered: set[str] = set()
    out_rank, out_doc, out_gain, out_cov = [], [], [], []
    for rank in range(1, k + 1):
        ref = ray.put(sorted(covered))

        def block_winner(batch: pa.Table, *, _ref=ref) -> pa.Table:
            cov = _ref if isinstance(_ref, list) else ray.get(_ref)
            empty = pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.list_(pa.string()))],
                names=["doc_id", "gain", "toks"])
            if batch.num_rows == 0:
                return empty
            toks = batch.column("tokens")
            toks = (toks.combine_chunks()
                    if isinstance(toks, pa.ChunkedArray) else toks)
            lens = pc.list_value_length(toks) \
                .to_numpy(zero_copy_only=False)
            flat = pc.list_flatten(toks)
            if cov:
                new = pc.invert(pc.is_in(
                    flat, value_set=pa.array(cov, pa.string()))) \
                    .to_numpy(zero_copy_only=False)
            else:
                new = np.ones(len(flat), dtype=bool)
            rows = np.repeat(np.arange(len(lens), dtype=np.int64),
                             lens)
            gain = np.bincount(rows, weights=new,
                               minlength=len(lens)).astype(np.int64)
            ids = batch.column("doc_id").cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            best = np.lexsort((ids, -gain))[0]
            win_toks = toks.slice(best, 1)
            if cov:
                # keep only the winner's UNCOVERED tokens (flatten
                # respects the slice offset; .values would not)
                inner = pc.list_flatten(win_toks) \
                    .filter(pa.array(new[rows == best]))
                win_toks = pa.ListArray.from_arrays(
                    pa.array([0, len(inner)], pa.int32()), inner)
            return pa.Table.from_arrays(
                [pa.array([int(ids[best])], pa.int64()),
                 pa.array([int(gain[best])], pa.int64()),
                 win_toks.cast(pa.list_(pa.string()))],
                names=["doc_id", "gain", "toks"])

        cands = sets.map_batches(block_winner, batch_format="pyarrow",
                                 zero_copy_batch=True).take_all()
        if not cands:
            break
        cands.sort(key=lambda r: (-int(r["gain"]), int(r["doc_id"])))
        top = cands[0]
        if int(top["gain"]) == 0:
            break
        covered.update(top["toks"])
        out_rank.append(rank)
        out_doc.append(int(top["doc_id"]))
        out_gain.append(int(top["gain"]))
        out_cov.append(len(covered))
    return pa.table({"rank": pa.array(out_rank, pa.int64()),
                     "doc_id": pa.array(out_doc, pa.int64()),
                     "gain": pa.array(out_gain, pa.int64()),
                     "covered": pa.array(out_cov, pa.int64())})


def hhi_by_source(ds):
    """(source, vocab, n_tokens, hhi_micro): the Herfindahl–Hirschman
    concentration of each source's TOKEN distribution — HHI =
    Σ_t n_t² / N² in floor micros (1e6 = a one-token degenerate feed,
    1e6/vocab = perfectly even) — `gini_by_source`'s vocabulary-side
    sibling: gini reads byte concentration across documents, HHI reads
    repetition concentration across the vocabulary (template/boiler-
    plate feeds spike it long before dedup sees exact copies).

    Per-batch (source, token) count partials (one Arrow group_by
    combiner) → ONE sum aggregate whose result is vocab × sources
    rows, never corpus-sized — then a driver finish sums n_t² per
    source in Python big-ints (n_t² alone overflows int64 once a
    token passes ~3e9 occurrences; the oracle's HUGEINT promotion is
    matched exactly, floor division included)."""
    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        src = batch.column("source")
        rep = pa.Table.from_arrays(
            [src.take(pa.array(np.repeat(
                np.arange(len(lens), dtype=np.int64), lens))),
             pc.list_flatten(toks)],
            names=["source", "token"])
        agg = rep.group_by(["source", "token"]).aggregate(
            [("token", "count")])
        return agg.rename_columns(["source", "token", "n"])

    rows = aggregate(
        ds.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["source", "token"], ("sum", "n")).take_all()
    from collections import defaultdict
    sq: dict[str, int] = defaultdict(int)
    tot: dict[str, int] = defaultdict(int)
    voc: dict[str, int] = defaultdict(int)
    for r in rows:
        n = int(r["sum(n)"])
        sq[r["source"]] += n * n          # Python big-int: exact
        tot[r["source"]] += n
        voc[r["source"]] += 1
    out_s = sorted(sq)
    return pa.table({
        "source": pa.array(out_s, pa.string()),
        "vocab": pa.array([voc[s] for s in out_s], pa.int64()),
        "n_tokens": pa.array([tot[s] for s in out_s], pa.int64()),
        "hhi_micro": pa.array(
            [(1_000_000 * sq[s]) // (tot[s] * tot[s]) for s in out_s],
            pa.int64())})


def borda_blend(ds, k: int = 100):
    """(doc_id, borda): multi-signal quality blending by Borda rank
    aggregation — each document's three size/diversity signals
    (n_chars, token count, distinct-token count) are converted to
    corpus-wide DENSE ranks (1 = best, descending metric order) and
    summed; the top-``k`` lowest sums (ties → min doc_id) are the
    consensus-best documents.  Rank aggregation is the
    float-free way to blend incommensurable quality signals (no
    weights to tune, outlier-robust, and exactly reproducible — the
    reason this op avoids z-score or min-max blends).

    Shape: pass 1 computes the per-doc metric triple (one vectorized
    map, materialized narrow); three DISTINCT-VALUE count exchanges
    build the rank LUTs — each bounded by the metric's value domain,
    never corpus size — whose sorted values broadcast once via
    ray.put; pass 2 maps metrics → ranks with searchsorted, and a
    per-block partial top-k (k rows per block) feeds one tiny
    sort+limit finish."""
    import ray

    def metrics(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        dist = pa.Table.from_arrays(
            [pa.array(rows), flat], names=["row", "token"]) \
            .group_by(["row", "token"]).aggregate([])
        nd = np.bincount(dist.column("row").to_numpy(
            zero_copy_only=False), minlength=len(lens)).astype(np.int64)
        return pa.Table.from_arrays(
            [batch.column("doc_id").cast(pa.int64()),
             batch.column("n_chars").cast(pa.int64()),
             pa.array(lens.astype(np.int64)), pa.array(nd)],
            names=["doc_id", "m1", "m2", "m3"])

    mt = ds.select_columns(["doc_id", "n_chars", "text"]) \
        .map_batches(metrics, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    luts = []
    for col in ("m1", "m2", "m3"):
        vals = aggregate(mt.select_columns([col]), col, ("count",)) \
            .select_columns([col]).take_all()
        arr = np.sort(np.array([int(r[col]) for r in vals],
                               dtype=np.int64))
        luts.append(arr)
    ref = ray.put(tuple(luts))

    def ranked_topk(batch: pa.Table, *, _ref=ref) -> pa.Table:
        l1, l2, l3 = (_ref if isinstance(_ref, tuple)
                      else ray.get(_ref))
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        borda = np.zeros(len(ids), dtype=np.int64)
        for lut, col in ((l1, "m1"), (l2, "m2"), (l3, "m3")):
            v = batch.column(col).to_numpy(zero_copy_only=False)
            # dense rank, descending: 1 = largest distinct value
            borda += len(lut) - np.searchsorted(lut, v, side="left")
        order = np.lexsort((ids, borda))[:k]
        return pa.Table.from_arrays(
            [pa.array(ids[order]), pa.array(borda[order])],
            names=["doc_id", "borda"])

    return mt.map_batches(ranked_topk, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .sort(["borda", "doc_id"]).limit(k)


def weighted_k_sample(ds, k: int = 100):
    """(doc_id,): an EXACTLY-k weighted sample WITHOUT replacement —
    Efraimidis–Spirakis (2006) exponential keys: each document draws
    e_i = −ln(u_i)/w_i with u_i the content-addressed md5 uniform
    (md5(str(doc_id)) top-63-bits / 2⁶³) and w_i = max(n_chars, 1);
    the k SMALLEST e_i win (ties → min doc_id).  This is the exact-
    count sibling of `pps_sample` (Poisson, expected-size) and the
    weighted sibling of `exact_k_sample` (uniform): inclusion
    probability ∝ weight, size exactly k, membership stable under
    re-sharding/cluster size (content-addressed, no RNG state).
    The float64 key is a pure per-row map — never a distributed
    reduce — so the only cross-engine contract is the golden's
    identical numpy formula.

    Per-block partial top-k (≤ k (key, id) rows per block), one
    single-block final merge over ≤ k·#blocks rows — the
    exact_k_sample shape."""
    def keys_of(batch: pa.Table):
        ids = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        u = np.asarray(
            [int.from_bytes(hashlib.md5(str(d).encode()).digest()[:8],
                            "big") >> 1 for d in ids],
            dtype=np.float64) / float(1 << 63)
        u = np.maximum(u, 1e-18)            # guard the measure-zero 0
        w = np.maximum(batch.column("n_chars").cast(pa.int64())
                       .to_numpy(zero_copy_only=False), 1) \
            .astype(np.float64)
        return ids, -np.log(u) / w

    def partial(batch: pa.Table) -> pa.Table:
        ids, e = keys_of(batch)
        order = np.lexsort((ids, e))[:k]
        return pa.Table.from_arrays(
            [pa.array(e[order]), pa.array(ids[order])],
            names=["e", "doc_id"])

    def final(batch: pa.Table) -> pa.Table:
        e = batch.column("e").to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, e))[:k]
        return pa.Table.from_arrays([pa.array(ids[order])],
                                    names=["doc_id"])

    return ds.select_columns(["doc_id", "n_chars"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .repartition(1) \
        .map_batches(final, batch_size=None, batch_format="pyarrow",
                     zero_copy_batch=True)


def readability(ds):
    """(doc_id, ari_micro): Automated Readability Index in exact
    integer micros — the grade-level proxy quality pipelines use to
    stratify corpora (very low ARI = fragment/listing noise, very high
    = OCR garbage or code).  Pinned as the INTEGER-RATIONAL form so
    both engines agree bit-for-bit:
    ``(4_710_000·chars)//words + (500_000·words)//sentences −
    21_430_000`` with chars = n_chars, words = whitespace tokens,
    sentences = max(#'.', 1).

    Pure per-doc map — Arrow count_substring + list_value_length, no
    shuffle at all."""
    def f(batch: pa.Table) -> pa.Table:
        chars = batch.column("n_chars").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        words = pc.list_value_length(_tokens(batch)) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        sents = pc.count_substring(batch.column("text"), ".") \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        w = np.maximum(words, 1)
        s = np.maximum(sents, 1)
        ari = (4_710_000 * chars) // w + (500_000 * w) // s \
            - 21_430_000
        return pa.Table.from_arrays(
            [batch.column("doc_id").cast(pa.int64()), pa.array(ari)],
            names=["doc_id", "ari_micro"])

    return ds.select_columns(["doc_id", "n_chars", "text"]) \
        .map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
