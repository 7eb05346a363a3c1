"""Corpus-level dedup over EXTRACTED output — the extraction → dedup
composition an LLM-data user runs end-to-end.

The extraction table keys documents by string doc_id (URL role); the
dedup/CC machinery works over int64 ids (bucketing, min-label
representatives).  Bridge: a deterministic 63-bit surrogate id from
md5(doc_id) is the dedup key, and the string id rides along as a
column of the surviving rows — no join back, no driver
materialization.

Representative choice: min *surrogate* id per duplicate cluster (an
arbitrary-but-deterministic member, matching the reference's
keep-one-of-the-duplicates semantics in E11 rather than any ordering of
URLs)."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..exchange import aggregate
from ..functions import dedup
from ..sources.manifest import CommitManifest
from .extract_pipeline import read_output


def surrogate_id(doc_id: str) -> int:
    """Deterministic 63-bit int surrogate for a string doc id."""
    return int.from_bytes(
        hashlib.md5(doc_id.encode("utf-8")).digest()[:8], "big") \
        & 0x7FFFFFFFFFFFFFFF


def _to_docs(batch: pa.Table) -> pa.Table:
    """Extraction output row → (doc_id = surrogate id, sid = string
    doc_id, text): text spans joined in offset order (media spans
    contribute nothing to dedup text)."""
    sids = batch.column("doc_id").to_pylist()
    texts = []
    for spans in batch.column("spans").to_pylist():
        texts.append("\n".join(
            s["text"] for s in sorted(spans or [],
                                      key=lambda s: s["offset"])
            if s["kind"] == "text"))
    iids = [surrogate_id(s) for s in sids]
    return pa.Table.from_arrays(
        [pa.array(iids, pa.int64()), pa.array(sids, pa.string()),
         pa.array(texts, pa.string())],
        names=["doc_id", "sid", "text"])


def dedup_extracted(extracted_dir: str, threshold: float = 0.5):
    """Survivor view of a committed extraction output: near-dup clusters
    (MinHash-LSH over the joined text spans) collapse to one
    representative.  Returns a Dataset of surviving (doc_id) strings:
    dedup_apply keys on the surrogate and carries the string id through
    as a column, so no join back is needed.

    The commit manifest's ``docs`` and ``n_chars_out`` totals bound the
    kept rows and their text for free.  When the (doc_id, text) bytes
    they allow fit ``dedup.TEXT_BROADCAST_MAX_BYTES``, the docs are
    materialized once: banding, the verify's broadcast text LUT and the
    survivor filter all read that copy instead of re-running the read
    and ``_to_docs`` each."""
    docs = read_output(extracted_dir).map_batches(
        _to_docs, batch_format="pyarrow", zero_copy_batch=True)
    tot = CommitManifest(extracted_dir).totals()
    # 16 B a row for the id and the text offset; ≤ 4 UTF-8 bytes a
    # character, plus ≤ 1 for the newline joining it to the next span
    # (kept text spans are never empty)
    if 16 * tot["docs"] + 5 * tot["n_chars_out"] \
            <= dedup.TEXT_BROADCAST_MAX_BYTES:
        docs = docs.materialize()
    return dedup.dedup_apply(docs, threshold).map_batches(
        lambda b: pa.Table.from_arrays([b.column("sid")],
                                       names=["doc_id"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _fp_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, fp): md5 content fingerprint — matches DuckDB's
    md5(text) hex so the SQL oracle is exact."""
    fps = [hashlib.md5(t.encode("utf-8")).hexdigest()
           for t in batch.column("text").to_pylist()]
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(fps, pa.string())],
        names=["doc_id", "fp"])


def build_fingerprint_index(hist_ds, path: str) -> None:
    """Persist the HISTORICAL side's DISTINCT md5 fingerprints as
    partitioned parquet — the build-once/query-many lifecycle for
    incremental_dedup (the exact twin of build_near_dedup_index): a
    daily run reads the stored keys instead of re-reading and
    re-hashing the whole historical corpus's TEXT.  Distinctness costs
    one exchange at build time and shrinks the artifact to the unique-
    content count; fingerprints are pure functions of the text, so a
    query through the loaded index is row-identical to the inline pass.

    Atomic publish: write to a private tmp dir, rename into place."""
    import shutil

    if os.path.exists(path):
        return
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    aggregate(
        hist_ds.map_batches(_fp_batch, batch_format="pyarrow",
                            zero_copy_batch=True)
        .select_columns(["fp"]),
        "fp", ("count",)) \
        .select_columns(["fp"]).write_parquet(tmp)
    try:
        os.rename(tmp, path)
    except OSError:  # another builder won the race — keep theirs
        shutil.rmtree(tmp, ignore_errors=True)


def incremental_dedup(new_ds, seen_ds, hist_fp_path: str | None = None):
    """The daily-crawl shape: drop documents whose exact content was
    already ingested in a previous run, then first-wins-dedup the
    remainder.  Returns (doc_id, fp) — min doc_id per fresh fingerprint.

    ``hist_fp_path`` (from build_fingerprint_index) skips the
    historical fingerprint pass entirely — at scale that pass re-reads
    the WHOLE corpus's text every run; with the persisted key table
    only the new crawl hashes per run.

    Scale shape: both sides reduce to md5 keys before any shuffle (the
    historical index ships fingerprints, never text); the anti-join is
    the bucketed semi_join with per-block distinct-key combiners; the
    final first-wins is one ``exchange.aggregate`` min over (fp, doc_id)
    pairs."""
    from .relational import semi_join

    new_f = new_ds.map_batches(_fp_batch, batch_format="pyarrow",
                               zero_copy_batch=True)
    if hist_fp_path is not None and os.path.exists(hist_fp_path):
        import ray.data

        seen_f = ray.data.read_parquet(hist_fp_path)
    else:
        seen_f = seen_ds.map_batches(_fp_batch, batch_format="pyarrow",
                                     zero_copy_batch=True) \
            .select_columns(["fp"])
    fresh = semi_join(new_f, seen_f, "fp", "fp", anti=True)
    agg = aggregate(fresh, "fp", ("min", "doc_id"))
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("min(doc_id)" if "min(doc_id)" in b.column_names
                      else "doc_id"), b.column("fp")],
            names=["doc_id", "fp"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _encode_side(side: int):
    """(doc_id, text) → parity-encoded (2·doc_id+side, text), so that
    after banding both sides into one candidate space, cross-side
    selection is a vectorized parity test."""
    from ..functions.dedup import _col_i64

    def f(batch: pa.Table) -> pa.Table:
        ids = _col_i64(batch, "doc_id")
        return pa.Table.from_arrays(
            [pa.array(ids * 2 + side), batch.column("text")],
            names=["doc_id", "text"])
    return f


def build_near_dedup_index(hist_ds, path: str) -> None:
    """Persist the HISTORICAL side's LSH band table (parity-encoded
    even ids) as partitioned parquet — the build-once/query-many index
    lifecycle (same pattern as functions.ann.ivf_build_index): a daily
    incremental_near_dedup run reads the stored bands instead of
    re-MinHashing the whole historical corpus.  Band values are
    deterministic functions of the text, so a query through the loaded
    index is row-identical to an inline banding pass.

    Atomic publish: write to a private tmp dir, rename into place;
    a concurrent builder that loses the rename discards its copy."""
    import shutil

    from ..functions.dedup import band_table

    if os.path.exists(path):
        return
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    band_table(hist_ds.map_batches(
        _encode_side(0), batch_format="pyarrow", zero_copy_batch=True)) \
        .write_parquet(tmp)
    try:
        os.rename(tmp, path)
    except OSError:  # another builder won the race — keep theirs
        shutil.rmtree(tmp, ignore_errors=True)


def incremental_near_dedup(new_ds, hist_ds, threshold: float = 0.5,
                           hist_band_path: str | None = None):
    """Daily-crawl NEAR-dup filtering: drop new documents whose content
    is a confirmed MinHash-LSH near-duplicate (word Jaccard ≥
    threshold) of ANY historical document.  Returns the surviving new
    (doc_id) rows.  Complements incremental_dedup (exact fingerprints):
    the historical index here is the banded signature space, so a
    reworded mirror of an already-ingested page is caught too.
    New-vs-new duplicates are deliberately kept (they are the plain
    dedup_apply's job) — only the cross-run comparison happens.

    ``hist_band_path`` (from build_near_dedup_index) skips the
    historical MinHash+banding pass entirely — at scale that pass
    re-reads and re-shingles the WHOLE corpus every run; with the
    persisted index only the new crawl bands per run.

    Scale shape: both sides band as usual (the shuffle ships (band,
    hash, id) triples); sides ride ENCODED member ids (2·doc_id+side)
    so cross-side candidate selection is a vectorized parity test after
    the shared pair kernel; the verify attaches the historical text
    from ``hist_ds`` and the new one from ``new_ds`` through
    ``exchange.join`` (bucketed, as neither side has a free row count);
    survivors come from one bucketed anti join.  Nothing materializes
    on the driver."""
    from ..functions.dedup import (_col_i64, _jaccard_verify_pairs,
                                   band_candidates, band_table)
    from .relational import semi_join

    if hist_band_path is not None and os.path.exists(hist_band_path):
        import ray.data
        hist_bands = ray.data.read_parquet(hist_band_path)
    else:
        hist_bands = band_table(hist_ds.map_batches(
            _encode_side(0), batch_format="pyarrow",
            zero_copy_batch=True))
    new_bands = band_table(new_ds.map_batches(
        _encode_side(1), batch_format="pyarrow", zero_copy_batch=True))
    cand = band_candidates(hist_bands.union(new_bands))

    def cross_only(batch: pa.Table) -> pa.Table:
        """Keep hist↔new candidates; decode to (left=hist, right=new)
        raw ids."""
        le = _col_i64(batch, "left_id")
        r = _col_i64(batch, "right_id")
        mixed = (le % 2) != (r % 2)
        le, r = le[mixed], r[mixed]
        hist = np.where(le % 2 == 0, le, r) // 2
        new = np.where(le % 2 == 1, le, r) // 2
        return pa.Table.from_arrays(
            [pa.array(hist), pa.array(new)],
            names=["left_id", "right_id"])

    pairs = cand.map_batches(cross_only, batch_format="pyarrow",
                             zero_copy_batch=True)
    confirmed = _jaccard_verify_pairs(
        pairs, hist_ds.select_columns(["doc_id", "text"]), threshold,
        right_docs=new_ds.select_columns(["doc_id", "text"]))
    flagged = confirmed.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("right_id").cast(pa.int64())], names=["flag_id"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return semi_join(new_ds.select_columns(["doc_id"]), flagged,
                     "doc_id", "flag_id", anti=True)
