"""Statistical language-model quality signals over a document corpus.

Beyond the reference (its cleanup is per-document rule tables —
ref: /root/reference/common_scripts/web_text_extractor_ver1.5.py:161-343):
large-scale training-data pipelines score documents against a corpus
LM (CCNet/KenLM-style perplexity filtering) and flag text that is
duplicated ACROSS documents at the n-gram level (Lee et al. 2022,
"Deduplicating Training Data Makes Language Models Better" — the
substring-duplication signal that document-level dedup misses).

Both operators follow the repo's scale rules:

* the corpus statistics and the per-document scoring share ONE
  all-to-all: every n-gram occurrence is bucketed by a key chosen so
  the whole computation for that gram is local to its bucket
  (``hash(first-token)`` for the LM — all bigrams sharing a history
  co-locate, so both count tables AND the quantized conditional
  probabilities are in-bucket computable; ``hash(gram)`` for the
  duplication flags), followed by one NATIVE ``groupby(doc_id).sum``
  over doc-sized partials that were pre-summed inside the bucket;
* all scores are integers (probabilities quantized to ``SCALE``-ths by
  floor division), so distributed sums are order-invariant and the
  DuckDB oracle — same counts, same integer division — matches
  bit-for-bit;
* grams travel as 64-bit hashes (md5-64 token LUT + the multiply-xor
  rolling mix shared with curation.decontaminate), never as strings:
  the shuffle ships (hash, doc_id, count) triples regardless of gram
  length.  Collisions merge two gram types with probability
  ≈ (#types)²/2⁶⁴ — oracle-negligible at every tested scale, and at
  100 TB a collision only perturbs one gram's statistics, it cannot
  corrupt the pipeline (same trade documented in
  curation._gram_hashes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import N_SHUFFLE_BUCKETS, _ibucket, _sbucket, aggregate
from .curation import _gram_hashes, _token_hash_lut, _MIX

LM_SCALE = 1_000_000            # conditional probabilities in micro-units


def _doc_gram_counts(batch: pa.Table, rows: np.ndarray,
                     keys: np.ndarray,
                     extra: np.ndarray | None = None):
    """Collapse per-occurrence (row, gram) pairs to per-(doc, gram)
    counts inside one batch — the combiner that bounds what the shuffle
    ships to distinct pairs, not occurrences.  Returns
    (doc_id, key, cnt[, extra]) arrays; ``extra`` (e.g. the gram's
    history hash) is carried through the collapse."""
    doc = batch.column("doc_id").to_numpy(zero_copy_only=False)[rows]
    order = np.lexsort((keys, doc))
    doc, keys = doc[order], keys[order]
    new = np.empty(len(doc), dtype=bool)
    if len(doc):
        new[0] = True
        new[1:] = (doc[1:] != doc[:-1]) | (keys[1:] != keys[:-1])
    starts = np.nonzero(new)[0]
    cnt = np.diff(np.append(starts, len(doc)))
    out = [doc[starts], keys[starts], cnt.astype(np.int64)]
    if extra is not None:
        out.append(extra[order][starts])
    return out


def bigram_lm_scores(ds, scale: int = LM_SCALE,
                     n_buckets: int = N_SHUFFLE_BUCKETS):
    """(doc_id, n_bigrams, lm_score_micro): score each document by the
    corpus's own bigram model — lm_score_micro = Σ over the document's
    bigram occurrences of ``(count(w1 w2) * scale) // count(w1 ·)``,
    the integer-quantized conditional probability.  Low scores flag
    incoherent/boilerplate text (the CCNet perplexity-filter shape with
    a self-trained rational model instead of KenLM floats).

    One bucketed all-to-all keyed by hash(w1) computes corpus counts
    AND per-doc partial scores together (every occurrence of a bigram
    and every sibling sharing its history land in the same bucket), one
    sum aggregate by doc_id merges partials.  Documents with no
    bigram (single-token) emit nothing — mirrored by the oracle's inner
    join."""

    def emit(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.int64())],
            names=["bucket", "bh", "fh", "doc_id", "cnt"])
        if lengths.sum() < 2:
            return empty
        th = _token_hash_lut(pc.list_flatten(toks))
        rows = np.repeat(np.arange(len(lengths), dtype=np.int64),
                         lengths)
        m = len(th) - 1
        valid = rows[:m] == rows[1:]
        if not valid.any():
            return empty
        with np.errstate(over="ignore"):
            bh = (th[:m] * _MIX ^ th[1:])[valid]
        fh = th[:m][valid]
        doc, bhc, cnt, fhc = _doc_gram_counts(
            batch, rows[:m][valid], bh, extra=fh)
        fh_i = fhc.view(np.int64)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(fh_i, n_buckets)),
             pa.array(bhc.view(np.int64)), pa.array(fh_i),
             pa.array(doc), pa.array(cnt)],
            names=["bucket", "bh", "fh", "doc_id", "cnt"])

    def score_bucket(group: pa.Table) -> pa.Table:
        bh = group.column("bh").to_numpy(zero_copy_only=False)
        fh = group.column("fh").to_numpy(zero_copy_only=False)
        doc = group.column("doc_id").to_numpy(zero_copy_only=False)
        cnt = group.column("cnt").to_numpy(zero_copy_only=False)
        # corpus counts, complete within this bucket by construction
        bh_u, bh_inv = np.unique(bh, return_inverse=True)
        c2 = np.zeros(len(bh_u), dtype=np.int64)
        np.add.at(c2, bh_inv, cnt)
        first = np.zeros(len(bh_u), dtype=np.int64)
        first[bh_inv] = fh            # history hash per bigram type
        fh_u, fh_inv = np.unique(first, return_inverse=True)
        c1 = np.zeros(len(fh_u), dtype=np.int64)
        np.add.at(c1, fh_inv, c2)
        q = (c2 * np.int64(scale)) // c1[fh_inv]
        # per-doc partials, pre-summed before the global doc shuffle
        doc_u, doc_inv = np.unique(doc, return_inverse=True)
        score = np.zeros(len(doc_u), dtype=np.int64)
        nbig = np.zeros(len(doc_u), dtype=np.int64)
        np.add.at(score, doc_inv, cnt * q[bh_inv])
        np.add.at(nbig, doc_inv, cnt)
        return pa.Table.from_arrays(
            [pa.array(doc_u), pa.array(nbig), pa.array(score)],
            names=["doc_id", "n_bigrams", "lm_score_micro"])

    summed = aggregate(
        ds.map_batches(emit, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("bucket").map_groups(score_bucket,
                                      batch_format="pyarrow"),
        "doc_id", ("sum", "n_bigrams"), ("sum", "lm_score_micro"))
    return summed.map_batches(
        lambda b: b.rename_columns(["doc_id", "n_bigrams",
                                    "lm_score_micro"]),
        batch_format="pyarrow", zero_copy_batch=True)


def dup_ngram_flags(ds, n: int = 8,
                    n_buckets: int = N_SHUFFLE_BUCKETS):
    """(doc_id, n_windows, n_dup_windows): for each document, how many
    of its n-token windows also occur in at least one OTHER document —
    the cross-document substring-duplication signal (Lee et al. 2022
    use 50-token windows at production scale; 8 suits the synthetic
    vocabulary).  A high dup fraction marks boilerplate/mirrored text
    that document-level dedup keeps.

    Windows travel as 64-bit rolling hashes bucketed by hash(gram):
    every occurrence of a gram lands in one bucket, so the gram's
    document frequency, the per-(doc, gram) occurrence counts, and the
    per-doc partial sums are all in-bucket computable — one all-to-all
    plus one sum aggregate by doc_id.  Documents shorter than n
    tokens emit nothing (mirrored by the oracle)."""

    def emit(batch: pa.Table) -> pa.Table:
        rows, gh = _gram_hashes(
            pc.split_pattern(batch.column("text"), " "), n)
        if len(gh) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["bucket", "gh", "doc_id", "cnt"])
        doc, ghc, cnt = _doc_gram_counts(batch, rows, gh)
        gh_i = ghc.view(np.int64)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(gh_i, n_buckets)), pa.array(gh_i),
             pa.array(doc), pa.array(cnt)],
            names=["bucket", "gh", "doc_id", "cnt"])

    def flag_bucket(group: pa.Table) -> pa.Table:
        gh = group.column("gh").to_numpy(zero_copy_only=False)
        doc = group.column("doc_id").to_numpy(zero_copy_only=False)
        cnt = group.column("cnt").to_numpy(zero_copy_only=False)
        # rows are distinct (doc, gram) pairs, so the per-gram row
        # count IS its document frequency
        gh_u, gh_inv, df = np.unique(gh, return_inverse=True,
                                     return_counts=True)
        shared = (df > 1)[gh_inv]
        doc_u, doc_inv = np.unique(doc, return_inverse=True)
        nwin = np.zeros(len(doc_u), dtype=np.int64)
        ndup = np.zeros(len(doc_u), dtype=np.int64)
        np.add.at(nwin, doc_inv, cnt)
        np.add.at(ndup, doc_inv, np.where(shared, cnt, 0))
        return pa.Table.from_arrays(
            [pa.array(doc_u), pa.array(nwin), pa.array(ndup)],
            names=["doc_id", "n_windows", "n_dup_windows"])

    summed = aggregate(
        ds.map_batches(emit, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("bucket").map_groups(flag_bucket,
                                      batch_format="pyarrow"),
        "doc_id", ("sum", "n_windows"), ("sum", "n_dup_windows"))
    return summed.map_batches(
        lambda b: b.rename_columns(["doc_id", "n_windows",
                                    "n_dup_windows"]),
        batch_format="pyarrow", zero_copy_batch=True)


def dup_doc_filter(ds, n: int = 8, max_frac_pct: int = 50,
                   n_buckets: int = N_SHUFFLE_BUCKETS):
    """(doc_id,) of documents KEPT by the cross-document duplication
    filter: a doc survives iff its duplicated-window fraction is at most
    ``max_frac_pct`` percent (integer comparison
    ``n_dup*100 <= n_windows*pct`` — no floats).  Documents too short to
    have any n-token window carry no duplication evidence and are kept.

    Composition: dup_ngram_flags (one gram-bucketed all-to-all + one
    per-doc sum), a vectorized threshold filter, and one bucketed ANTI
    join to recover the short documents — the flags table is doc-sized,
    so the anti join ships doc ids only."""
    from ..pipelines.relational import semi_join

    # flags is doc-sized and consumed twice (threshold filter + anti
    # join) — materialize so the gram shuffle executes once
    flags = dup_ngram_flags(ds, n=n, n_buckets=n_buckets).materialize()

    def keep(batch: pa.Table) -> pa.Table:
        nw = batch.column("n_windows").to_numpy(zero_copy_only=False)
        nd = batch.column("n_dup_windows") \
            .to_numpy(zero_copy_only=False)
        mask = nd * 100 <= nw * np.int64(max_frac_pct)
        return pa.Table.from_arrays(
            [batch.column("doc_id").filter(pa.array(mask))],
            names=["doc_id"])

    kept_with_windows = flags.map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True)
    short_docs = semi_join(
        ds.select_columns(["doc_id"]),
        flags.select_columns(["doc_id"]).map_batches(
            lambda b: b.rename_columns(["flag_doc"]),
            batch_format="pyarrow", zero_copy_batch=True),
        "doc_id", "flag_doc", anti=True)
    return kept_with_windows.union(short_docs)


# --------------------------------------------------------------------------
# Exact duplicated-substring REMOVAL (Lee et al. 2022, ExactSubstr)
# --------------------------------------------------------------------------

def dedup_substrings(ds, k: int = 8,
                     n_buckets: int = N_SHUFFLE_BUCKETS):
    """(doc_id, text, n_tokens, n_removed): remove every token covered
    by a k-token window that occurs ≥ 2 times in the corpus (counting
    ALL occurrences, within-document repeats included) — exactly "every
    token inside any duplicated k-token substring", the remove-all-
    copies variant of Lee et al.'s ExactSubstr dedup.  A duplicated
    run of length ≥ k is removed in full because each of its k-grams
    is duplicated; no suffix array is needed at k-gram resolution.

    Two bucketed exchanges, the line_dedup shape:
      A) every k-gram occurrence ships as (hash, doc_id, pos) bucketed
         by hash(gram); in-bucket, grams with occurrence count ≥ 2 emit
         their (doc_id, pos) rows — only DUPLICATED positions leave.
      B) dup positions meet their documents in hash(doc_id) buckets;
         per affected doc a diff-array marks the covered token ranges
         and the survivors re-join — untouched docs (the vast majority)
         pass through with one mask test.

    doc_id is returned as string (the dedup key convention).
    """
    def occ_emit(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        rows, gh = _gram_hashes(toks, k)
        ids = batch.column("doc_id").cast(pa.string())
        if len(gh) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["bucket", "gh", "doc_id", "pos"])
        # in-doc gram position: sequential index within each row run
        # (rows from _gram_hashes are nondecreasing)
        starts = np.empty(len(rows), dtype=bool)
        starts[0] = True
        starts[1:] = rows[1:] != rows[:-1]
        idxs = np.arange(len(rows), dtype=np.int64)
        first = np.zeros(len(rows), dtype=np.int64)
        np.maximum.accumulate(np.where(starts, idxs, 0), out=first)
        pos = idxs - first
        gh_i = gh.view(np.int64)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(gh_i, n_buckets)), pa.array(gh_i),
             ids.take(pa.array(rows)), pa.array(pos)],
            names=["bucket", "gh", "doc_id", "pos"])

    def dup_positions(group: pa.Table) -> pa.Table:
        gh = group.column("gh").to_numpy(zero_copy_only=False)
        _, inv, occ = np.unique(gh, return_inverse=True,
                                return_counts=True)
        dup = (occ > 1)[inv]
        kept = group.filter(pa.array(dup))
        return pa.Table.from_arrays(
            [kept.column("doc_id"), kept.column("pos")],
            names=["doc_id", "pos"])

    dups = ds.map_batches(occ_emit, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("bucket").map_groups(dup_positions,
                                      batch_format="pyarrow")

    def doc_emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.string())
        return pa.Table.from_arrays(
            [pa.array(_sbucket(ids.to_pylist(), n_buckets)), ids,
             batch.column("text"),
             pa.array(np.full(len(ids), -1, dtype=np.int64))],
            names=["b", "doc_id", "text", "pos"])

    def dup_emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        return pa.Table.from_arrays(
            [pa.array(_sbucket(ids.to_pylist(), n_buckets)), ids,
             pa.array([""] * len(ids), pa.string()),
             batch.column("pos")],
            names=["b", "doc_id", "text", "pos"])

    def rebuild(part: pa.Table) -> pa.Table:
        is_doc = pc.equal(part.column("pos"), -1)
        docs = part.filter(is_doc)
        marks = part.filter(pc.invert(is_doc))
        by_doc: dict[str, list] = {}
        for d, p in zip(marks.column("doc_id").to_pylist(),
                        marks.column("pos").to_pylist()):
            by_doc.setdefault(d, []).append(p)
        out_id, out_tx, out_n, out_rm = [], [], [], []
        for d, tx in zip(docs.column("doc_id").to_pylist(),
                         docs.column("text").to_pylist()):
            toks = tx.split(" ")
            out_id.append(d)
            ps = by_doc.get(d)
            if not ps:
                out_tx.append(tx)
                out_n.append(len(toks))
                out_rm.append(0)
                continue
            diff = np.zeros(len(toks) + 1, dtype=np.int64)
            p = np.asarray(ps, dtype=np.int64)
            np.add.at(diff, p, 1)
            np.add.at(diff, np.minimum(p + k, len(toks)), -1)
            covered = np.cumsum(diff[:-1]) > 0
            kept = [t for t, c in zip(toks, covered) if not c]
            out_tx.append(" ".join(kept))
            out_n.append(len(toks))
            out_rm.append(int(covered.sum()))
        return pa.Table.from_arrays(
            [pa.array(out_id, pa.string()),
             pa.array(out_tx, pa.string()),
             pa.array(out_n, pa.int64()),
             pa.array(out_rm, pa.int64())],
            names=["doc_id", "text", "n_tokens", "n_removed"])

    u = ds.map_batches(doc_emit, batch_format="pyarrow",
                       zero_copy_batch=True) \
        .union(dups.map_batches(dup_emit, batch_format="pyarrow",
                                zero_copy_batch=True))
    out = u.groupby("b").map_groups(rebuild, batch_format="pyarrow")
    return out.select_columns(["doc_id", "text", "n_tokens",
                               "n_removed"])


def perplexity_buckets(ds):
    """(doc_id, lm_avg_micro, bucket): CCNet-style head/middle/tail
    quality buckets (Wenzek et al. 2020) from the self-trained bigram
    LM — per-doc average conditional probability in integer micros
    (``lm_score_micro // n_bigrams``), bucketed by the corpus's exact
    tertile thresholds.  High average probability = fluent = 'head'.

    Thresholds are the elements at 0-based ranks ceil(n/3)-1 and
    ceil(2n/3)-1 of the ascending score column, selected by the
    sort-free histogram-refinement rank reader
    (relational.global_quantiles ranks=...) — no corpus sort, no
    all-to-all beyond the one the LM scoring already does.  Bucketing
    by threshold (not by row rank) makes tie assignment deterministic
    and independent of block order, so the DuckDB oracle (row_number
    over the same ascending order to read the two thresholds, then the
    same CASE chain) is bit-exact.

    The scored table is materialized once: the rank reader does 2-3
    passes and the final bucket map one more — re-running the LM
    all-to-all per pass would be the wrong plan; at 100 TB the scored
    (doc_id, 2×int64) table is ~3% of corpus bytes and spills fine.
    """
    from ..pipelines.relational import global_quantiles

    def avg(batch: pa.Table) -> pa.Table:
        s = batch.column("lm_score_micro").to_numpy(zero_copy_only=False)
        nb = batch.column("n_bigrams").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [batch.column("doc_id"),
             pa.array(s // np.maximum(nb, 1), pa.int64())],
            names=["doc_id", "lm_avg_micro"])

    scored = bigram_lm_scores(ds).map_batches(
        avg, batch_format="pyarrow", zero_copy_batch=True).materialize()
    n = scored.count()
    if n == 0:
        return scored.map_batches(
            lambda b: b.append_column("bucket", pa.array([], pa.string())),
            batch_format="pyarrow")
    r1 = (n + 2) // 3 - 1           # ceil(n/3) - 1
    r2 = (2 * n + 2) // 3 - 1       # ceil(2n/3) - 1
    t1, t2 = global_quantiles(scored, "lm_avg_micro", ranks=(r1, r2))
    t1, t2 = int(t1), int(t2)

    def bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("lm_avg_micro").to_numpy(zero_copy_only=False)
        lab = np.where(a <= t1, "tail",
                       np.where(a <= t2, "middle", "head"))
        return batch.append_column("bucket",
                                   pa.array(lab.tolist(), pa.string()))

    return scored.map_batches(bucket, batch_format="pyarrow",
                              zero_copy_batch=True)


def dice_collocations(ds, k: int = 50, min_count: int = 2,
                      n_buckets: int = N_SHUFFLE_BUCKETS):
    """(w1, w2, c2, dice_micro): top-k corpus collocations by the Dice
    coefficient over the bigram contingency table —
    ``dice = 2·c2 / (u1 + u2)`` with u1/u2 the bigram-table row/column
    marginals (Σ_w c2(w1,w), Σ_w c2(w,w2)), quantized to integer micros
    by floor division.  Dice deliberately replaces PMI's ``u1·u2``
    denominator: the sum never overflows int64 until c2 ≥ ~4.6e12
    occurrences (2e6·c2), whereas a count product wraps at corpus
    scale while DuckDB silently promotes to HUGEINT (the
    zscore-ADVICE overflow trap, avoided by construction).

    Shape: per-batch pandas value_counts partials → one keyed
    aggregate(w1,w2).sum → TWO bucketed all-to-alls over the type-sized
    bigram table (hash(w1) colocates a row marginal, hash(w2) a column
    marginal; both computed vectorized in-bucket, no per-pair Python) →
    min_count filter → tiny deterministic sort (dice desc, w1, w2)
    + limit.  No corpus-scale shuffle beyond the bigram-type table
    itself; documents never leave their blocks."""
    import pandas as pd

    def big_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.string()),
             pa.array([], pa.int64())], names=["w1", "w2", "c"])
        if lengths.sum() < 2:
            return empty
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(lengths), dtype=np.int64),
                         lengths)
        m = len(flat) - 1
        valid = rows[:m] == rows[1:]
        if not valid.any():
            return empty
        df = pd.DataFrame({"w1": flat[:m][valid],
                           "w2": flat[1:][valid]})
        vc = df.groupby(["w1", "w2"], sort=False).size()
        idx = vc.index
        return pa.Table.from_arrays(
            [pa.array(idx.get_level_values(0), pa.string()),
             pa.array(idx.get_level_values(1), pa.string()),
             pa.array(vc.to_numpy().astype(np.int64), pa.int64())],
            names=["w1", "w2", "c"])

    c2 = aggregate(
        ds.map_batches(big_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["w1", "w2"], ("sum", "c")).map_batches(
        lambda b: b.rename_columns(["w1", "w2", "c2"]),
        batch_format="pyarrow", zero_copy_batch=True)

    def key1(batch: pa.Table) -> pa.Table:
        w1 = batch.column("w1").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "b", pa.array(_sbucket(w1, n_buckets), pa.int64()))

    def add_u1(group: pa.Table) -> pa.Table:
        w1 = group.column("w1").to_numpy(zero_copy_only=False)
        c = group.column("c2").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(w1, sort=False)
        tot = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tot, codes, c)
        w2 = group.column("w2").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [group.column("w1"), group.column("w2"),
             group.column("c2"), pa.array(tot[codes], pa.int64()),
             pa.array(_sbucket(w2, n_buckets), pa.int64())],
            names=["w1", "w2", "c2", "u1", "b2"])

    def add_u2_dice(group: pa.Table) -> pa.Table:
        w2 = group.column("w2").to_numpy(zero_copy_only=False)
        c = group.column("c2").to_numpy(zero_copy_only=False)
        u1 = group.column("u1").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(w2, sort=False)
        tot = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tot, codes, c)
        u2 = tot[codes]
        dice = (2 * c * 1_000_000) // (u1 + u2)
        keep = c >= min_count
        return pa.Table.from_arrays(
            [group.column("w1").filter(pa.array(keep)),
             group.column("w2").filter(pa.array(keep)),
             pa.array(c[keep], pa.int64()),
             pa.array(dice[keep], pa.int64())],
            names=["w1", "w2", "c2", "dice_micro"])

    attached = c2.map_batches(key1, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .groupby("b").map_groups(add_u1, batch_format="pyarrow") \
        .groupby("b2").map_groups(add_u2_dice, batch_format="pyarrow")
    return attached.sort(["dice_micro", "w1", "w2"],
                         descending=[True, False, False]).limit(k)


def quality_stratified_sample(ds, keep_head: int = 4096,
                              keep_middle: int = 2048,
                              keep_tail: int = 410, salt: str = "s0"):
    """(doc_id, lm_avg_micro, bucket): CCNet's quality-stratified
    subsample — keep ALL of 'head', ~keep_middle/4096 of 'middle',
    ~keep_tail/4096 of 'tail', selected by the same deterministic
    content-addressed md5 predicate as textstats.sample_by_hash so the
    subsample is reproducible across engines, block layouts and
    cluster sizes.  Wenzek et al. 2020 ship head+middle and drop tail;
    the per-bucket rates make that policy (and any reweighting of it)
    one parameter change.

    Pure composition: perplexity_buckets (one LM all-to-all + rank
    reads) followed by a stateless filter map.  The per-row md5 loop
    mirrors sample_by_hash_batch — hash-sampling cost is dwarfed by the
    LM scoring pass it rides behind."""
    import hashlib

    rates = {"head": keep_head, "middle": keep_middle,
             "tail": keep_tail}
    thresh = {b: format(min(r, 4095), "03x") if r < 4096 else None
              for b, r in rates.items()}

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        bks = batch.column("bucket").to_pylist()
        keep = []
        for d, b in zip(ids, bks):
            t = thresh[b]
            keep.append(True if t is None else hashlib.md5(
                (str(d) + salt).encode()).hexdigest()[:3] < t)
        return batch.filter(pa.array(keep))

    return perplexity_buckets(ds).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


NB_FEATS = 4096                 # hashed vocabulary (feature-hashing NB)


def nb_classify(ds, n_feats: int = NB_FEATS, train_mod: int = 10,
                train_lt: int = 8):
    """(doc_id, lang, pred): multinomial Naive Bayes language
    classifier with feature hashing — the classic fastText-style
    quality/language screen a curation pipeline trains ON the corpus
    and applies TO the corpus, with no external model.  Trains on the
    deterministic ``doc_id % train_mod < train_lt`` slice (labels =
    the ``lang`` column), predicts the held-out remainder; ties break
    to the lexicographically smallest language.

    Scale shape: tokens hash into a FIXED n_feats-slot vocabulary
    (crc32 — the hash_embeddings convention), so the trained model is
    a constant-size (n_langs × n_feats) count matrix no matter the
    corpus: the train pass is one combiner map (per-batch bincount over
    lang·feat keys, emitting ≤ n_langs·n_feats rows per batch) + one
    tiny groupby; the model broadcasts once via ray.put and scoring is
    a pure vectorized map (factorize distinct tokens, gather their
    log-prob columns, one add.at per language).  Laplace-smoothed
    log-probabilities are micro-quantized int64, so per-document sums
    are order-invariant and the committed differential golden (an
    independent single-process NB in tools/gen_goldens.py) matches
    bit-for-bit under any blocking."""
    import math
    import zlib

    import pandas as pd
    import ray

    def train_partial(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        tr = (doc % train_mod) < train_lt
        t = batch.filter(pa.array(tr))
        n = t.num_rows
        lang_codes, langs = pd.factorize(
            t.column("lang").to_pandas(), sort=False)
        toks = pc.split_pattern(t.column("text"), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        out_lang, out_feat, out_cnt = [], [], []
        if n and lengths.sum():
            codes, uniq = pd.factorize(
                pc.list_flatten(toks).to_pandas(), sort=False)
            feat_of = np.array(
                [zlib.crc32(str(u).encode("utf-8")) for u in uniq],
                dtype=np.uint32) % np.uint32(n_feats)
            feat_of = feat_of.astype(np.int64)
            rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
            key = (lang_codes[rows].astype(np.int64) * n_feats
                   + feat_of[codes])
            cnt = np.bincount(key, minlength=len(langs) * n_feats)
            nz = np.flatnonzero(cnt)
            out_lang.extend(str(langs[i // n_feats]) for i in nz)
            out_feat.extend((nz % n_feats).tolist())
            out_cnt.extend(cnt[nz].tolist())
        # per-lang doc counts ride the same table as feat = -1 rows
        for c, lg in enumerate(langs):
            out_lang.append(str(lg))
            out_feat.append(-1)
            out_cnt.append(int((lang_codes == c).sum()))
        return pa.Table.from_arrays(
            [pa.array(out_lang, pa.string()),
             pa.array(out_feat, pa.int64()),
             pa.array(out_cnt, pa.int64())],
            names=["lang", "feat", "cnt"])

    model_rows = aggregate(
        ds.select_columns(["doc_id", "lang", "text"])
        .map_batches(train_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["lang", "feat"], ("sum", "cnt")) \
        .take_all()               # ≤ n_langs·(n_feats+1) rows, constant
    langs = sorted({r["lang"] for r in model_rows})
    if not langs:
        # empty training slice: nothing to predict with — emit the
        # empty (doc_id, lang, pred) table instead of argmax over zero
        # classes crashing inside every scoring task
        import ray.data

        return ray.data.from_arrow(pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string()),
             pa.array([], pa.string())],
            names=["doc_id", "lang", "pred"]))
    lidx = {lg: i for i, lg in enumerate(langs)}
    L = len(langs)
    counts = np.zeros((L, n_feats), dtype=np.int64)
    docs_of = np.zeros(L, dtype=np.int64)
    for r in model_rows:
        if r["feat"] < 0:
            docs_of[lidx[r["lang"]]] += int(r["sum(cnt)"])
        else:
            counts[lidx[r["lang"]], r["feat"]] = int(r["sum(cnt)"])
    totals = counts.sum(axis=1)
    d_total = int(docs_of.sum())
    llp = np.zeros((L, n_feats), dtype=np.int64)
    prior = np.zeros(L, dtype=np.int64)
    for i in range(L):
        denom = float(int(totals[i]) + n_feats)
        # math.log, not np.log: numpy's SIMD log can differ from libm
        # in the last ulp, which would flip a micro unit vs the golden;
        # this runs ONCE driver-side over a constant-size matrix
        llp[i] = np.fromiter(
            (math.floor(math.log(float(c + 1) / denom)
                        * 1000000.0 + 0.5)
             for c in counts[i].tolist()),
            dtype=np.int64, count=n_feats)
        prior[i] = int(math.floor(math.log(
            float(int(docs_of[i])) / float(d_total)) * 1000000.0 + 0.5))
    ref = ray.put((langs, prior, llp))

    def score(batch: pa.Table, *, _ref=ref) -> pa.Table:
        mlangs, mprior, mllp = (_ref if isinstance(_ref, tuple)
                                else ray.get(_ref))
        doc = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        held = (doc % train_mod) >= train_lt
        t = batch.filter(pa.array(held))
        n = t.num_rows
        toks = pc.split_pattern(t.column("text"), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        scores = np.tile(mprior[:, None].astype(np.int64), (1, n))
        if n and lengths.sum():
            codes, uniq = pd.factorize(
                pc.list_flatten(toks).to_pandas(), sort=False)
            feat_of = (np.array(
                [zlib.crc32(str(u).encode("utf-8")) for u in uniq],
                dtype=np.uint32) % np.uint32(n_feats)).astype(np.int64)
            rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
            fcodes = feat_of[codes]
            for i in range(len(mlangs)):       # constant #languages
                np.add.at(scores[i], rows, mllp[i][fcodes])
        pred = np.argmax(scores, axis=0)       # first max = smallest
        return pa.Table.from_arrays(
            [t.column("doc_id").cast(pa.int64()), t.column("lang"),
             pa.array([mlangs[p] for p in pred], pa.string())],
            names=["doc_id", "lang", "pred"])

    return ds.select_columns(["doc_id", "lang", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True)
