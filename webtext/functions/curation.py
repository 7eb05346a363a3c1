"""Data-curation operators for training-corpus preparation: PII
redaction, Gopher-style repetition statistics, and test-set
decontamination.

These extend the reference's per-document cleanup family
(ref: /root/reference/common_scripts/web_text_extractor_ver1.5.py:161-343
— URL strip / printable filter / paragraph dedup) with the corpus-level
curation steps a large-scale LLM-data pipeline needs.  Every op is a
vectorized ``map_batches`` stage over zero-copy Arrow batches:

* ``redact_pii`` — Arrow's RE2 regex kernels (the same engine DuckDB
  uses, so the SQL oracle is bit-exact), no Python row loop at all;
* ``repetition_stats`` — token/2-gram/3-gram duplicate counts via
  factorize + segment-unique (no per-row sets);
* ``decontaminate`` — the classic eval-set n-gram overlap filter:
  hash the benchmark's n-grams once (small side), broadcast the sorted
  hash array via ``ray.put``, and filter the corpus with a
  ``searchsorted`` membership test per batch.  The corpus side never
  shuffles — at 100 TB the only moving data is the benchmark hash set
  (eval suites are millions of n-grams ≈ tens of MB, a classic
  broadcast side).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import _ibucket, _sbucket, aggregate  # module scope:
# worker-path rule
from .textstats import chunk_documents_batch  # module scope: worker

# --------------------------------------------------------------------------
# PII redaction
# --------------------------------------------------------------------------

# RE2-safe patterns (no backreferences / lookaround) so Arrow's
# replace_substring_regex and DuckDB's regexp_replace(…, 'g') — both
# RE2 — agree byte-for-byte.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PHONE_RE = r"\+?\d[\d -]{7,}\d"

_PII_STEPS = ((EMAIL_RE, "<EMAIL>", "n_email"),
              (IPV4_RE, "<IP>", "n_ip"),
              (PHONE_RE, "<PHONE>", "n_phone"))


def redact_pii_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, clean_text, n_email, n_ip, n_phone): sequentially
    replace email → IPv4 → phone patterns; each count is measured on
    the text state *before* its own replacement (so `<IP>` substitution
    cannot create or destroy phone matches that were counted)."""
    text = batch.column("text")
    cols = [batch.column("doc_id")]
    names = ["doc_id"]
    counts = []
    for pattern, token, cname in _PII_STEPS:
        counts.append((cname,
                       pc.count_substring_regex(text, pattern=pattern)
                       .cast(pa.int64())))
        text = pc.replace_substring_regex(text, pattern=pattern,
                                          replacement=token)
    cols.append(text)
    names.append("clean_text")
    for cname, c in counts:
        cols.append(c)
        names.append(cname)
    return pa.Table.from_arrays(cols, names=names)


def redact_pii(ds):
    """Corpus-wide PII redaction: pure per-batch map, no shuffle."""
    return ds.map_batches(redact_pii_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


# --------------------------------------------------------------------------
# Repetition statistics (Gopher-style quality signals)
# --------------------------------------------------------------------------

def _flat_tokens(chunk) -> tuple[np.ndarray, np.ndarray]:
    """(row lengths, flattened token codes) for one list<string> chunk.
    Codes come from pandas.factorize — C-speed hashing, no Python
    loop over tokens."""
    import pandas as pd

    lengths = pc.list_value_length(chunk) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    if lengths.sum() == 0:
        return lengths, np.empty(0, dtype=np.int64)
    codes, _ = pd.factorize(pc.list_flatten(chunk).to_pandas(),
                            sort=False)
    return lengths, codes.astype(np.int64) + 1  # null → its own code 0


def _segment_nunique(rows: np.ndarray, values: np.ndarray,
                     n_rows: int) -> np.ndarray:
    """Per-row count of distinct ``values`` (both arrays flat/aligned).
    lexsort + neighbor-compare — no linearized row*span+value key, so
    arbitrary uint64 value ranges can't overflow."""
    if len(rows) == 0:
        return np.zeros(n_rows, dtype=np.int64)
    order = np.lexsort((values, rows))
    r, v = rows[order], values[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (v[1:] != v[:-1])
    return np.bincount(r[first], minlength=n_rows).astype(np.int64)


def repetition_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_toks, n_uniq_toks, n_2grams, n_uniq_2grams, n_3grams,
    n_uniq_3grams): integer repetition signals per document.  A high
    duplicate-n-gram fraction (1 - uniq/total) is the Gopher/MassiveText
    repetition filter; counts stay integers so the driver's value-hash
    comparison is float-free (the caller derives fractions)."""
    tokens = pc.split_pattern(batch.column("text"), " ")
    n = batch.num_rows
    out = {k: np.zeros(n, dtype=np.int64)
           for k in ("n_toks", "n_uniq_toks", "n_2grams",
                     "n_uniq_2grams", "n_3grams", "n_uniq_3grams")}
    offset = 0
    chunks = (tokens.chunks if isinstance(tokens, pa.ChunkedArray)
              else [tokens])
    for chunk in chunks:
        lengths, codes = _flat_tokens(chunk)
        cn = len(lengths)
        sl = slice(offset, offset + cn)
        offset += cn
        out["n_toks"][sl] = lengths
        if len(codes) == 0:
            continue
        rows = np.repeat(np.arange(cn, dtype=np.int64), lengths)
        out["n_uniq_toks"][sl] = _segment_nunique(rows, codes, cn)
        # n-gram ids: multiply-xor-mix successive token codes into a
        # uint64 (wrap is part of the hash — no vocab-size overflow
        # cliff; collisions are ~(#grams)²/2⁶⁴, oracle-negligible).
        # A gram is valid only when all its tokens share a row.
        ucodes = codes.astype(np.uint64)
        for gname, uname, k in (("n_2grams", "n_uniq_2grams", 2),
                                ("n_3grams", "n_uniq_3grams", 3)):
            out[gname][sl] = np.maximum(lengths - (k - 1), 0)
            if len(codes) < k:
                continue
            m = len(codes) - (k - 1)
            valid = rows[:m] == rows[k - 1:]
            with np.errstate(over="ignore"):
                gram = ucodes[:m].copy()
                for j in range(1, k):
                    gram = gram * _MIX ^ ucodes[j: m + j]
            out[uname][sl] = _segment_nunique(
                rows[:m][valid], gram[valid], cn)
    cols = [batch.column("doc_id")] + \
        [pa.array(out[k], pa.int64())
         for k in ("n_toks", "n_uniq_toks", "n_2grams", "n_uniq_2grams",
                   "n_3grams", "n_uniq_3grams")]
    return pa.Table.from_arrays(cols, names=[
        "doc_id", "n_toks", "n_uniq_toks", "n_2grams", "n_uniq_2grams",
        "n_3grams", "n_uniq_3grams"])


def repetition_stats(ds):
    """Per-document repetition signals: pure per-batch map, no shuffle."""
    return ds.map_batches(repetition_stats_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


# --------------------------------------------------------------------------
# Test-set decontamination
# --------------------------------------------------------------------------

def split_by_mod(ds, mod: int = 100, lt: int = 3, invert: bool = False):
    """Deterministic benchmark/corpus split: rows where
    ``doc_id % mod < lt`` (or the complement with ``invert``).  A pure
    vectorized per-batch filter — used to carve a stand-in 'eval suite'
    out of the documents table for the decontamination oracle."""
    def part(batch: pa.Table, *, _mod=mod, _lt=lt,
             _inv=invert) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = (ids % _mod) < _lt
        return batch.filter(pa.array(~mask if _inv else mask))

    return ds.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)


def _token_hash_lut(flat: pa.Array) -> np.ndarray:
    """uint64 hash per flattened token.  Hashing happens once per
    *distinct* token (np.unique first), then scatters — the Python md5
    loop runs over the batch vocabulary, not the token stream."""
    arr = flat.to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(arr.astype("U"), return_inverse=True)
    lut = np.fromiter(
        (int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8],
                        "big") for t in uniq),
        dtype=np.uint64, count=len(uniq))
    return lut[inv]


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _gram_hashes(chunk, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row index, gram hash) for every n-gram in a list<string> chunk.
    Gram hash = rolling multiply-xor of the tokens' md5-64 hashes —
    order-sensitive, identical on the benchmark and corpus sides, and
    collision-safe enough (64-bit over ≤1e9 grams) that membership by
    hash equals membership by string for oracle purposes."""
    lengths = pc.list_value_length(chunk) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    if lengths.sum() < n:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64))
    th = _token_hash_lut(pc.list_flatten(chunk))
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    m = len(th) - (n - 1)
    valid = rows[:m] == rows[n - 1:]
    with np.errstate(over="ignore"):
        h = th[:m].copy()
        for j in range(1, n):
            h = h * _MIX ^ th[j: m + j]
    return rows[:m][valid], h[valid]


def benchmark_gram_hashes(bench_ds, n: int = 4) -> np.ndarray:
    """Sorted distinct n-gram hashes of the benchmark corpus.  The
    benchmark (an eval suite) is small by definition; each task emits
    its batch's distinct hashes, and the driver unions them — the only
    full materialization in the op, bounded by eval-suite size."""
    def grams(batch: pa.Table) -> pa.Table:
        _, h = _gram_hashes(
            pc.split_pattern(batch.column("text"), " "), n)
        return pa.Table.from_arrays([pa.array(np.unique(h), pa.uint64())],
                                    names=["h"])

    parts = []
    for b in bench_ds.map_batches(grams, batch_format="pyarrow",
                                  zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        parts.append(b.column("h").to_numpy(zero_copy_only=False))
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def decontaminate(ds, bench_ds, n: int = 4):
    """Drop corpus documents sharing any n-gram with the benchmark.

    Real pipelines use n = 8–13; the default 4 suits the tiny synthetic
    vocabulary.  The benchmark hash set is broadcast once via
    ``ray.put`` and every filter task reads the same object-store copy
    (never re-shipped per batch); the corpus streams through a pure
    filter — no shuffle, no corpus materialization.
    Returns the clean (doc_id) rows.
    """
    import ray

    bench_ref = ray.put(benchmark_gram_hashes(bench_ds, n))

    def keep_clean(batch: pa.Table, *, _ref=bench_ref,
                   _n=n) -> pa.Table:
        bench = _ref if isinstance(_ref, np.ndarray) else ray.get(_ref)
        rows, h = _gram_hashes(
            pc.split_pattern(batch.column("text"), " "), _n)
        contaminated = np.zeros(batch.num_rows, dtype=bool)
        if len(h) and len(bench):
            pos = np.searchsorted(bench, h)
            pos[pos == len(bench)] = 0
            hit = bench[pos] == h
            contaminated[np.unique(rows[hit])] = True
        return batch.select(["doc_id"]).filter(
            pa.array(~contaminated))

    return ds.map_batches(keep_clean, batch_format="pyarrow",
                          zero_copy_batch=True)


# --------------------------------------------------------------------------
# Text normalization
# --------------------------------------------------------------------------

def normalize_text_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, norm): lowercase + whitespace-squeeze + trim — the
    canonical pre-dedup normalization pass.  Pure Arrow kernels
    (utf8_lower + RE2 replace — the same regex engine DuckDB uses, so
    the SQL oracle `trim(regexp_replace(lower(text),'\\s+',' ','g'))`
    is bit-exact)."""
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(
            pc.utf8_lower(batch.column("text")),
            pattern=r"\s+", replacement=" "))
    return pa.Table.from_arrays([batch.column("doc_id"), norm],
                                names=["doc_id", "norm"])


def normalize_text(ds):
    """Corpus-wide normalization: pure per-batch map, no shuffle."""
    return ds.map_batches(normalize_text_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


# --------------------------------------------------------------------------
# URL canonicalization
# --------------------------------------------------------------------------

# The reference's pipelines are URL-list driven (ref:
# /root/reference/common_scripts/google_url_serch.py — mined URLs are
# dict-deduped RAW, so http://Site/ and https://site?utm=… count as
# different pages).  Canonicalization before dedup is the standard
# crawl-corpus fix.  The canonical form is defined BY this RE2 rewrite
# chain applied after lowercasing scheme://host[:port] — Arrow's
# replace_substring_regex and DuckDB's regexp_replace(…,'g') are both
# RE2, so the SQL oracle replays the identical chain bit-for-bit.
URL_HEAD_RE = r"^[A-Za-z]+://[^/?#]*"
URL_CANON_STEPS: tuple[tuple[str, str], ...] = (
    (r"#.*$", ""),                                   # fragment
    (r"([?&])(utm_[A-Za-z0-9_]*|gclid|fbclid)=[^&#]*", r"\1"),
    (r"\?&+", "?"),                                  # separator debris…
    (r"&&+", "&"),
    (r"[?&]+$", ""),
    (r"^(http://[^/:?#]+):80(/|\?|#|$)", r"\1\2"),   # default ports
    (r"^(https://[^/:?#]+):443(/|\?|#|$)", r"\1\2"),
    (r"/+(\?)", r"\1"),                              # trailing slash
    (r"/+$", ""),
)


def canonicalize_urls_batch(batch: pa.Table,
                            col: str = "url") -> pa.Table:
    """(doc_id, canon_url): lowercase the scheme://host[:port] head
    (path/query case is significant and preserved), then apply
    URL_CANON_STEPS.  Pure Arrow RE2 kernels — no Python row loop."""
    urls = batch.column(col)
    # head = full match of URL_HEAD_RE; rest = the remainder
    m = pc.extract_regex(urls, r"(?P<head>" + URL_HEAD_RE + r")")
    head = pc.utf8_lower(pc.struct_field(m, "head"))
    rest = pc.replace_substring_regex(urls, pattern=URL_HEAD_RE,
                                      replacement="",
                                      max_replacements=1)
    u = pc.binary_join_element_wise(head, rest, "")
    for pat, rep in URL_CANON_STEPS:
        u = pc.replace_substring_regex(u, pattern=pat, replacement=rep)
    return pa.Table.from_arrays([batch.column("doc_id"), u],
                                names=["doc_id", "canon_url"])


def canonicalize_urls(ds, col: str = "url"):
    """Corpus-wide URL canonicalization: per-batch map, no shuffle."""
    def f(batch: pa.Table, *, _c=col) -> pa.Table:
        return canonicalize_urls_batch(batch, _c)
    return ds.map_batches(f, batch_format="pyarrow",
                          zero_copy_batch=True)


def url_dedup(ds, col: str = "url"):
    """First-occurrence page dedup by CANONICAL url: one keyed
    aggregate(canon_url).min(doc_id) hash aggregate — no per-URL Python
    groups (the dedup_links lesson), shuffle ships (canon_url, doc_id)
    only."""
    canon = canonicalize_urls(ds, col)
    out = aggregate(canon, "canon_url", ("min", "doc_id"))
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("min(doc_id)").cast(pa.int64()),
             b.column("canon_url")],
            names=["doc_id", "canon_url"]),
        batch_format="pyarrow", zero_copy_batch=True)


# default blocklist for the synthetic url fixture: exact host or any
# subdomain of these domains is dropped (the crawler-denylist shape —
# constant-size, compiled into the UDF closure; at 100 TB a big list
# ships once via ray.put exactly like decontaminate's benchmark grams)
URL_BLOCKLIST: tuple[str, ...] = ("site1.example.com",)

_HOST_RE = r"^[a-z]+://(?P<host>[^/:?#]+)"


def url_blocklist_filter(ds, blocked: tuple[str, ...] = URL_BLOCKLIST,
                         col: str = "url"):
    """(doc_id, canon_url, host) for rows whose canonical host is
    neither a blocked domain nor a subdomain of one — the crawler
    denylist pass every web corpus runs before extraction (reference
    analogue: the Google/Yahoo EXCLUDE url predicates,
    web_text_extractor_ver1.5.py search-result mining).  Suffix
    semantics: ``host == d`` or ``host.endswith('.' + d)``.  Pure
    Arrow RE2 + ends_with kernels after the shared canonicalization
    chain — no shuffle, no Python row loop."""
    canon = canonicalize_urls(ds, col)

    def f(batch: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(batch.column("canon_url"), _HOST_RE),
            "host")
        bad = pa.array(np.zeros(batch.num_rows, dtype=bool))
        for d in blocked:
            bad = pc.or_kleene(
                bad, pc.or_kleene(pc.equal(host, d),
                                  pc.ends_with(host, pattern="." + d)))
        out = batch.append_column("host", host)
        return out.filter(pc.invert(bad))

    return canon.map_batches(f, batch_format="pyarrow",
                             zero_copy_batch=True)


# --------------------------------------------------------------------------
# Cross-document line dedup (CCNet-style)
# --------------------------------------------------------------------------
# CCNet (Wenzek et al. 2020) deduplicates the corpus at PARAGRAPH/LINE
# granularity before any document-level step: every line that already
# appeared anywhere else in the corpus is dropped, keeping exactly one
# deterministic first occurrence.  The reference only dedups paragraphs
# WITHIN a document (web_text_extractor_ver1.5.py:161-343 cleanup
# family); this is the corpus-wide generalization.
#
# Scale shape — two bucketed all-to-alls, neither ships the corpus twice:
#   stage A (winner selection) ships (line_hash, did, doc_id, idx)
#   tuples — never line text — bucketed by hash(line_hash) % 256; the
#   in-bucket pass is one np.lexsort + first-flag diff (no Python per
#   line).  stage B (reassembly) ships each line's text exactly once
#   plus the winner (doc_id, idx) pairs, both bucketed by
#   hash(doc_id) % 256 so a document's lines and its winner marks
#   co-locate; the in-bucket pass is a vectorized pandas merge + one
#   C-level join per surviving document.
#
# Determinism: the kept occurrence is the minimum (did, idx, doc_id)
# where did = little-endian first-8-bytes of md5(doc_id) masked to 63
# bits — DuckDB's `md5_number_upper(doc_id) & 9223372036854775807`, so
# the live SQL oracle reproduces the exact same winner without any
# engine-ordering assumptions.  Line identity travels as a 64-bit
# siphash (pandas.util.hash_array, process-stable); two distinct lines
# colliding would merge their dedup classes — probability ≤ n²/2⁶⁵,
# the same documented bound as every other 64-bit-key shuffle here.
# Empty lines never enter stage A and are always kept: deduplicating
# blank separators across documents would be semantic noise.

def _did63(doc_ids) -> np.ndarray:
    """63-bit little-endian md5 prefix of each doc_id string — bit-equal
    to DuckDB `md5_number_upper(x) & 9223372036854775807`."""
    return np.array(
        [int.from_bytes(hashlib.md5(d.encode("utf-8")).digest()[:8],
                        "little") & 0x7FFFFFFFFFFFFFFF
         for d in doc_ids], dtype=np.int64)


def _line_hash(lines) -> np.ndarray:
    import pandas as pd

    arr = np.asarray(lines, dtype=object)
    return pd.util.hash_array(arr).view(np.int64)


def line_dedup_exploded(lines_ds, n_buckets: int = 256):
    """Corpus-wide first-occurrence line dedup over an exploded
    (doc_id: string, idx: int64, line: string) dataset; returns
    (doc_id, text, n_lines, n_kept) with ``text`` the surviving lines
    re-joined by newline in original order (docs whose every line lost
    come back with text='' and n_kept=0).

    ``lines_ds`` is consumed twice (hash-triples pass + text pass); pass
    a source-backed lineage (read → cheap explode map) so the second
    consumption is a re-read, not a recompute of anything expensive.
    """
    def a_triples(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(batch.column("line"), "")
        t = batch.filter(mask)
        doc_ids = t.column("doc_id").to_pylist()
        lh = _line_hash(t.column("line").to_pylist())
        return pa.Table.from_arrays(
            [pa.array(_ibucket(lh, n_buckets)), pa.array(lh),
             pa.array(_did63(doc_ids)),
             t.column("doc_id"), t.column("idx")],
            names=["b", "lh", "did", "doc_id", "idx"])

    def a_winners(part: pa.Table) -> pa.Table:
        lh = part.column("lh").to_numpy()
        did = part.column("did").to_numpy()
        idx = part.column("idx").to_numpy()
        doc = np.asarray(part.column("doc_id").to_pylist(), dtype=object)
        order = np.lexsort((doc, idx, did, lh))
        lh_s = lh[order]
        first = np.empty(len(lh_s), dtype=bool)
        if len(first):
            first[0] = True
            first[1:] = lh_s[1:] != lh_s[:-1]
        keep = order[first]
        return pa.Table.from_arrays(
            [pa.array(doc[keep].tolist(), pa.string()),
             pa.array(idx[keep])],
            names=["doc_id", "idx"])

    winners = lines_ds.map_batches(
        a_triples, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("b").map_groups(a_winners, batch_format="pyarrow")

    def b_key_lines(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        return pa.Table.from_arrays(
            [pa.array(_sbucket(doc_ids, n_buckets)),
             batch.column("doc_id"), batch.column("idx"),
             batch.column("line"),
             pa.array(np.ones(len(doc_ids), dtype=np.int8))],
            names=["b", "doc_id", "idx", "line", "role"])

    def b_key_winners(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        return pa.Table.from_arrays(
            [pa.array(_sbucket(doc_ids, n_buckets)),
             batch.column("doc_id"), batch.column("idx"),
             pa.array([""] * len(doc_ids), pa.string()),
             pa.array(np.zeros(len(doc_ids), dtype=np.int8))],
            names=["b", "doc_id", "idx", "line", "role"])

    def assemble(part: pa.Table) -> pa.Table:
        import pandas as pd

        df = part.select(["doc_id", "idx", "line", "role"]).to_pandas()
        ldf = df[df["role"] == 1][["doc_id", "idx", "line"]]
        wdf = df[df["role"] == 0][["doc_id", "idx"]].assign(_w=np.int8(1))
        m = ldf.merge(wdf, on=["doc_id", "idx"], how="left", sort=False)
        m["_k"] = m["_w"].notna().to_numpy() | (m["line"] == "").to_numpy()
        m = m.sort_values(["doc_id", "idx"], kind="stable")
        n_lines = m.groupby("doc_id", sort=True).size()
        km = m[m["_k"].to_numpy()]
        agg = km.groupby("doc_id", sort=True)["line"].agg("\n".join)
        n_kept = km.groupby("doc_id", sort=True).size()
        docs = n_lines.index.to_numpy()
        text = agg.reindex(docs, fill_value="").to_numpy()
        nk = n_kept.reindex(docs, fill_value=0).to_numpy()
        return pa.Table.from_arrays(
            [pa.array(docs.tolist(), pa.string()),
             pa.array(text.tolist(), pa.string()),
             pa.array(n_lines.to_numpy().astype(np.int64)),
             pa.array(nk.astype(np.int64))],
            names=["doc_id", "text", "n_lines", "n_kept"])

    u = lines_ds.map_batches(b_key_lines, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .union(winners.map_batches(b_key_winners, batch_format="pyarrow",
                                   zero_copy_batch=True))
    out = u.groupby("b").map_groups(assemble, batch_format="pyarrow")
    return out.select_columns(["doc_id", "text", "n_lines", "n_kept"])


def explode_newlines_batch(batch: pa.Table,
                           col: str = "text") -> pa.Table:
    """(doc_id, idx, line): vectorized newline explode — doc_id cast to
    string (the dedup key convention), idx is the 0-based in-doc line
    number."""
    c = batch.column(col)
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    parts = pc.split_pattern(c, "\n")
    flat = pc.list_flatten(parts)
    off = np.asarray(parts.offsets)
    n = np.diff(off)
    parent = np.repeat(np.arange(len(n), dtype=np.int64), n)
    idx = np.arange(int(n.sum()), dtype=np.int64) - off[:-1][parent]
    return pa.Table.from_arrays(
        [batch.column("doc_id").cast(pa.string()).take(pa.array(parent)),
         pa.array(idx), flat],
        names=["doc_id", "idx", "line"])


def line_dedup(ds, col: str = "text", n_buckets: int = 256):
    """Corpus-wide CCNet-style line dedup over (doc_id, text) documents
    with newline-separated lines; see line_dedup_exploded."""
    def f(batch: pa.Table, *, _c=col) -> pa.Table:
        return explode_newlines_batch(batch, _c)
    lines = ds.map_batches(f, batch_format="pyarrow",
                           zero_copy_batch=True)
    return line_dedup_exploded(lines, n_buckets=n_buckets)


def word_window_lines_batch(batch: pa.Table, width: int = 4) -> pa.Table:
    """(doc_id: string, idx, line): deterministic fixed-width word-window
    view of (doc_id, text) — lines are non-overlapping ``width``-token
    windows (zero-copy byte-gather via chunk_documents_batch).  Gives a
    line structure to single-line corpora so line-level ops (and their
    SQL oracles) have something to deduplicate."""
    c = chunk_documents_batch(batch, chunk_tokens=width, overlap=0)
    return pa.Table.from_arrays(
        [c.column("doc_id").cast(pa.string()),
         c.column("chunk_id").cast(pa.int64()),
         c.column("chunk_text")],
        names=["doc_id", "idx", "line"])


# --------------------------------------------------------------------------
# DSIR importance scores (Xie et al. 2023)
# --------------------------------------------------------------------------
# Data Selection via Importance Resampling: score every corpus document
# by the log-likelihood ratio of a TARGET hashed-ngram unigram model
# over the RAW-corpus model — the standard recipe for selecting
# pretraining data that "looks like" a target domain.
#
# Scale shape: (1) ONE combiner pass emits sparse (bucket, n_target,
# n_raw) partials per block — the feature space is B hashed buckets, so
# the aggregate is constant-size; a keyed aggregate sums it and only B
# rows reach the driver.  (2) The per-bucket log-ratio LUT (B int64
# fixed-point entries — float64 log of integer-count rationals,
# quantized to nanos) is ray.put-broadcast once.  (3) The scoring pass
# is a pure per-batch map: score_fp = Σ over gram OCCURRENCES of
# lut[bucket] — an int64 sum, order/blocking-invariant, so the golden
# (an independent single-process replay of the same integer-count →
# log → quantize function) is bit-exact.

DSIR_BUCKETS = 10_000
DSIR_SCALE = 10**9


def _dsir_buckets(chunk, grams: tuple[int, ...]) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """(row, bucket) for every unigram/bigram occurrence of a
    list<string> token chunk."""
    rows_all, buck_all = [], []
    for n in grams:
        rows, h = _gram_hashes(chunk, n)
        rows_all.append(rows)
        buck_all.append((h % np.uint64(DSIR_BUCKETS)).astype(np.int64))
    return (np.concatenate(rows_all) if rows_all
            else np.empty(0, np.int64),
            np.concatenate(buck_all) if buck_all
            else np.empty(0, np.int64))


def dsir_log_ratio_lut(target_ds, raw_ds,
                       grams: tuple[int, ...] = (1, 2)) -> np.ndarray:
    """int64 fixed-point log-ratio LUT over the hashed feature space:
    lut[b] = rint(1e9 · (ln p_b − ln q_b)) with Laplace-smoothed
    p_b = (t_b + 1)/(T + B), q_b = (r_b + 1)/(R + B).  Each side is one
    sparse combiner pass + keyed aggregate; the merged table is ≤ B
    rows."""
    def counts_of(ds):
        def partial(batch: pa.Table) -> pa.Table:
            toks = pc.split_pattern(batch.column("text"), " ")
            per = []
            for chunk in (toks.chunks if isinstance(toks, pa.ChunkedArray)
                          else [toks]):
                _, b = _dsir_buckets(chunk, grams)
                per.append(b)
            b = (np.concatenate(per) if per
                 else np.empty(0, np.int64))
            u, c = np.unique(b, return_counts=True)
            return pa.Table.from_pydict(
                {"b": pa.array(u), "n": pa.array(c.astype(np.int64))})

        rows = aggregate(
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True),
            "b", ("sum", "n")).take_all()
        dense = np.zeros(DSIR_BUCKETS, dtype=np.int64)
        for r in rows:
            dense[int(r["b"])] = int(r["sum(n)"])
        return dense

    t = counts_of(target_ds)
    r = counts_of(raw_ds)
    lp = np.log((t + 1).astype(np.float64)) \
        - np.log(float(int(t.sum()) + DSIR_BUCKETS))
    lq = np.log((r + 1).astype(np.float64)) \
        - np.log(float(int(r.sum()) + DSIR_BUCKETS))
    return np.rint((lp - lq) * DSIR_SCALE).astype(np.int64)


def dsir_scores(ds, target_ds, grams: tuple[int, ...] = (1, 2)):
    """(doc_id, dsir_score_fp): per-document importance weight — the
    int64 sum of the broadcast log-ratio LUT over the doc's gram
    occurrences.  Selecting the top-k scores (or Gumbel-resampling on
    score/temperature) is the paper's resampling step; the score column
    is the engine-side heavy lifting."""
    import ray

    lut = dsir_log_ratio_lut(target_ds, ds, grams)
    lref = ray.put(lut)

    def score(batch: pa.Table) -> pa.Table:
        table = ray.get(lref)
        toks = pc.split_pattern(batch.column("text"), " ")
        out = np.zeros(batch.num_rows, dtype=np.int64)
        off = 0
        for chunk in (toks.chunks if isinstance(toks, pa.ChunkedArray)
                      else [toks]):
            rows, b = _dsir_buckets(chunk, grams)
            if len(rows):
                np.add.at(out, rows + off, table[b])
            off += len(chunk)
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(out)],
            names=["doc_id", "dsir_score_fp"])

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


# --------------------------------------------------------------------------
# Temperature-based language rebalancing (XLM-R / mT5 data mixing)
# --------------------------------------------------------------------------

def temperature_sample(ds, lang_col: str = "lang", salt: str = "ts"):
    """Deterministic α=0.5 temperature downsampling across languages:
    keep each language-ℓ document with probability
    ``sqrt(n_min / n_ℓ)`` — the multilingual-pretraining mixing rule
    that flattens the head languages toward ∝ n^α (the smallest
    language keeps everything).  Returns the kept (doc_id, lang) rows.

    Per-language keep thresholds derive from ONE keyed
    aggregate(lang).count() (languages are constant-cardinality); the
    keep decision is the md5-prefix hex compare of ``sample_by_hash``
    with a per-language integer threshold
    ``floor(4096 · sqrt(n_min / n_ℓ))`` — sqrt is IEEE
    correctly-rounded and the /, ·4096, floor steps are replayed by the
    SQL oracle in the same order, so membership is bit-exact across
    engines.  Content-addressed → reproducible under any blocking or
    cluster size.  α is fixed at 0.5 because sqrt is the one power
    with a cross-engine exactness guarantee."""
    counts = aggregate(ds, lang_col, ("count",)).take_all()
    n_of = {r[lang_col]: int(r["count()"]) for r in counts}
    if not n_of:
        return ds.select_columns(["doc_id", lang_col])
    n_min = min(n_of.values())
    thresh = {
        lang: int(np.floor(4096.0 * np.sqrt(
            np.float64(n_min) / np.float64(n))))
        for lang, n in n_of.items()}
    hexed = {lang: format(t, "03x") for lang, t in thresh.items()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column(lang_col).to_pylist()
        mask = [
            thresh[lg] >= 4096
            or hashlib.md5((str(d) + salt).encode()).hexdigest()[:3]
            < hexed[lg]
            for d, lg in zip(ids, langs)]
        return batch.filter(pa.array(mask)).select(["doc_id", lang_col])

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def pps_sample(ds, k: int = 100, weight_col: str = "n_chars",
               salt: str = "pps"):
    """Deterministic Poisson probability-proportional-to-size sample:
    keep each document with probability min(1, k·wᵢ/W) where wᵢ is the
    weight column and W = Σw — the size-biased corpus subsample a
    mixture builder draws when longer documents should be
    proportionally more likely to survive (E[sample size] = k when no
    weight saturates).  Returns (doc_id, source, n_chars).

    Two passes, both trivially scalable: ONE scalar sum aggregate for W
    (exact int64 — n_chars sums stay far below 2^63 at any corpus this
    engine targets; the SQL oracle's SUM promotes to HUGEINT then both
    sides cast the same exact integer to double), then a pure
    content-addressed filter — no RNG, no shuffle, reproducible under
    any blocking.  Membership: h < (wᵢ·k/W)·2^63 with h the 63-bit
    little-endian md5 prefix of doc_id‖salt (the ``_did63`` /
    ``md5_number_upper`` convention) and the right side evaluated in
    the same left-to-right IEEE double order as the SQL oracle, so the
    kept set is bit-identical across engines."""
    total = ds.sum(weight_col)
    w_double = float(int(total))
    k_double = float(k)

    def keep(batch: pa.Table) -> pa.Table:
        ids = [str(d) + salt
               for d in batch.column("doc_id").to_pylist()]
        h = _did63(ids).astype(np.float64)
        w = batch.column(weight_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        bound = w * k_double / w_double * 9223372036854775808.0
        return batch.filter(pa.array(h < bound)) \
            .select(["doc_id", "source", weight_col])

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def k_anonymity(ds, k: int = 5, chars_bucket: int = 200):
    """(lang, source, chars_bucket, n): the equivalence classes of the
    quasi-identifier tuple (lang, source, n_chars//``chars_bucket``)
    whose size is BELOW ``k`` — the k-anonymity release audit
    (Sweeney 2002): rows in these classes are re-identifiable by the
    QI combination alone and must be suppressed or generalized before
    a per-document metadata release.  Ordered by (lang, source,
    chars_bucket) for a deterministic report; `redact_pii`'s
    dataset-level sibling (that op scrubs values IN text, this one
    finds rows whose mere attribute combination leaks).

    Shape: a pure combiner — per batch one vectorized bucket map +
    Arrow group_by partial counts, ONE sum aggregate over the
    QI-domain-bounded class table (never corpus-sized), then a scalar
    filter n < k.  No driver materialization of anything row-shaped."""
    def partial(batch: pa.Table) -> pa.Table:
        cb = pc.divide(batch.column("n_chars").cast(pa.int64()),
                       chars_bucket)
        t = pa.Table.from_arrays(
            [batch.column("lang"), batch.column("source"), cb],
            names=["lang", "source", "chars_bucket"])
        agg = t.group_by(["lang", "source", "chars_bucket"]) \
            .aggregate([("chars_bucket", "count")])
        return agg.rename_columns(
            ["lang", "source", "chars_bucket", "n"])

    summed = aggregate(
        ds.select_columns(["lang", "source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["lang", "source", "chars_bucket"], ("sum", "n")) \
        .map_batches(lambda b: b.rename_columns(
            ["lang", "source", "chars_bucket", "n"]),
            batch_format="pyarrow", zero_copy_batch=True)
    return summed.filter(expr=f"n < {int(k)}") \
        .sort(["lang", "source", "chars_bucket"])


def l_diversity(ds, l: int = 3, chars_bucket: int = 200):
    """(source, chars_bucket, n_rows, n_langs): k_anonymity's
    companion (Machanavajjhala 2007): equivalence classes of the
    (source, n_chars//``chars_bucket``) quasi-identifier whose
    SENSITIVE attribute (lang) takes fewer than ``l`` distinct values
    — classes where knowing someone's QI pins their sensitive value
    even when the class itself is large (the failure k-anonymity
    can't see).  Ordered report, deterministic.

    Shape: per batch one Arrow group_by over (source, bucket, lang) —
    the partial is distinct-triple counts, bounded by the QI × lang
    domain — then ONE sum aggregate; the per-class row count and
    distinct-lang count both derive from that bounded table in a
    second TINY keyed aggregate (rows = distinct triples, never corpus
    size)."""
    def partial(batch: pa.Table) -> pa.Table:
        cb = pc.divide(batch.column("n_chars").cast(pa.int64()),
                       chars_bucket)
        t = pa.Table.from_arrays(
            [batch.column("source"), cb, batch.column("lang")],
            names=["source", "chars_bucket", "lang"])
        agg = t.group_by(["source", "chars_bucket", "lang"]) \
            .aggregate([("lang", "count")])
        return agg.rename_columns(
            ["source", "chars_bucket", "lang", "n"])

    triples = aggregate(
        ds.select_columns(["source", "n_chars", "lang"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["source", "chars_bucket", "lang"], ("sum", "n")) \
        .map_batches(lambda b: b.rename_columns(
            ["source", "chars_bucket", "lang", "n"]),
            batch_format="pyarrow", zero_copy_batch=True)

    def fold(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("source"), batch.column("chars_bucket"),
             batch.column("n"),
             pa.array(np.ones(batch.num_rows, dtype=np.int64))],
            names=["source", "chars_bucket", "n_rows", "n_langs"])

    classes = aggregate(
        triples.map_batches(fold, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["source", "chars_bucket"], ("sum", "n_rows"),
        ("sum", "n_langs")) \
        .map_batches(lambda b: b.rename_columns(
            ["source", "chars_bucket", "n_rows", "n_langs"]),
            batch_format="pyarrow", zero_copy_batch=True)
    return classes.filter(expr=f"n_langs < {int(l)}") \
        .sort(["source", "chars_bucket"])
