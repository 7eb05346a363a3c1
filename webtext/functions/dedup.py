"""Corpus-level deduplication operators over the documents table.

The reference only dedups *within* one document (E11) and does ordered
URL dedup (U9); a training-data pipeline needs corpus-level dedup, built
here Ray-Data-first:

* exact_dedup       — groupby(first-id).  At 100 TB: group on a content
                      hash (fingerprint) so the shuffle ships 16-byte
                      keys, then resolve winners; here the text column
                      itself is the key for oracle-exactness.
* minhash_lsh_pairs — shingle → minhash → band → hash exchange →
                      candidate pairs → deduped (exchange.aggregate) →
                      both texts attached (exchange.join) → Jaccard in
                      one map.  The banding exchange ships (band, hash,
                      id) triples, never documents; the texts go out
                      once as a broadcast LUT when the input is
                      materialized and under TEXT_BROADCAST_MAX_BYTES,
                      else they ride the join's bucketed exchange.
* simhash           — 64-bit simhash per doc + banded duplicate pairs.
* ngram_jaccard_pairs — word-set Jaccard of consecutive-id pairs, the
                      shuffle-join expressed as an emit-twice exchange
                      (doc k → keys {k, k-1}), integer output for the
                      SQL oracle.
* connected_components / dedup_apply — min-label CC over dup pairs,
                      then the corpus minus each cluster's non-min
                      members.  Up to graph.LOCAL_STATE_MAX_NODES the
                      labels and the dropped ids are driver-held (a
                      raw-task fan-out per round, one streaming filter
                      for the drop); above it nothing is held on the
                      driver (bucketed label shuffles, an anti join).
"""

from __future__ import annotations

import os
import shutil
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import (N_SHUFFLE_BUCKETS, _hash_exchange, _ibucket, _n_parts,
                        _sbucket, aggregate, join)
from ..sources.manifest import CommitManifest  # module scope: worker
# code is shipped by value and cannot lazy-import webtext

# 64 universal-hash permutations over 32-bit shingle hashes,
# deterministic constants (seeded numpy, fixed)
_P = (1 << 61) - 1
_rs = np.random.RandomState(12345)
_A = _rs.randint(1, _P, size=64, dtype=np.int64)
_B = _rs.randint(0, _P, size=64, dtype=np.int64)
NUM_PERM = 64
BANDS = 16
ROWS_PER_BAND = NUM_PERM // BANDS


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    words = text.split(" ")
    if len(words) < k:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]
    return np.array([zlib.crc32(g.encode("utf-8")) for g in grams],
                    dtype=np.int64)


def minhash_signature(text: str, k: int = 3) -> np.ndarray:
    h = _shingle_hashes(text, k)
    # (64, n) universal hashes, min over shingles — vectorized
    vals = (np.outer(_A, h) + _B[:, None]) % _P
    return vals.min(axis=1)


def _band_rows(batch: pa.Table) -> pa.Table:
    """doc → BANDS rows (band_id, band_hash, doc_id): the LSH flat_map."""
    doc_ids, bands, hashes = [], [], []
    for doc_id, text in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
        sig = minhash_signature(text)
        for b in range(BANDS):
            chunk = sig[b * ROWS_PER_BAND:(b + 1) * ROWS_PER_BAND]
            doc_ids.append(doc_id)
            bands.append(b)
            hashes.append(int(zlib.crc32(chunk.tobytes())))
    return pa.Table.from_arrays(
        [pa.array(doc_ids, pa.int64()), pa.array(bands, pa.int32()),
         pa.array(hashes, pa.int64())],
        names=["doc_id", "band_id", "band_hash"])


def word_jaccard(a: str, b: str) -> tuple[int, int]:
    """(|A∩B|, |A∪B|) over single-space word tokens — integer output so
    thresholds compare exactly across engines."""
    sa, sb = set(a.split(" ")), set(b.split(" "))
    return len(sa & sb), len(sa | sb)


def _col_i64(batch: pa.Table, name: str) -> np.ndarray:
    return batch.column(name).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) \
        + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101))
            >> np.uint64(56)).astype(np.int64)


def _cell_member_pairs(cell_keys, members: np.ndarray,
                       payload: np.ndarray | None = None):
    """All unordered member pairs within each cell, fully vectorized —
    the shared kernel behind every banded pair emitter (minhash /
    simhash / phash), replacing per-row Python dict loops.

    ``cell_keys``: tuple of parallel int64 arrays jointly identifying a
    cell (kept separate — no combined-key collisions).  Input rows may
    repeat; (cell, member) rows are deduped first, then each cell of
    size k yields its k(k-1)/2 pairs via repeat/cumsum index algebra.
    Members sort ascending in-cell, so left < right.  Returns
    (left, right) or (left, right, left_payload, right_payload)."""
    n = len(members)
    empty = (np.empty(0, np.int64),) * (2 if payload is None else 4)
    if n == 0:
        return empty
    order = np.lexsort((members,) + tuple(reversed(cell_keys)))
    keys = [k[order] for k in cell_keys]
    m = members[order]
    p = payload[order] if payload is not None else None
    same_cell_prev = np.ones(n, dtype=bool)
    for k in keys:
        same_cell_prev[1:] &= k[1:] == k[:-1]
    same_cell_prev[0] = False
    dup = same_cell_prev & np.concatenate([[False], m[1:] == m[:-1]])
    keep = ~dup
    m = m[keep]
    if p is not None:
        p = p[keep]
    new_cell = ~(same_cell_prev[keep])
    starts = np.nonzero(new_cell)[0]
    sizes = np.diff(np.append(starts, len(m)))
    pos = np.arange(len(m)) - np.repeat(starts, sizes)
    counts = np.repeat(sizes, sizes) - pos - 1
    total = int(counts.sum())
    if total == 0:
        return empty
    left_idx = np.repeat(np.arange(len(m)), counts)
    ofs = np.concatenate([[0], np.cumsum(counts)[:-1]])
    within = np.arange(total) - np.repeat(ofs, counts)
    right_idx = left_idx + 1 + within
    out = (m[left_idx], m[right_idx])
    if payload is not None:
        out = out + (p[left_idx], p[right_idx])
    return out


# The verify's text LUT gate, in bytes: the ~64 MB of the 4M int64
# (key, value) rows that exchange.BROADCAST_MAX_ROWS was sized for.
TEXT_BROADCAST_MAX_BYTES = 64 << 20


def _text_lut_rows(docs) -> int | None:
    """The verify join's ``right_rows``: ``docs``' row count when it is
    free and the texts fit TEXT_BROADCAST_MAX_BYTES — a materialized
    Dataset knows both from its block metadata — else None (the
    bucketed route)."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(docs, MaterializedDataset) \
            and docs.size_bytes() <= TEXT_BROADCAST_MAX_BYTES:
        return docs.count()
    return None


def _keep_similar(batch: pa.Table, threshold: float) -> pa.Table:
    """The (left_id, right_id) pairs of a block whose texts have word
    Jaccard ≥ threshold."""
    if not batch.num_columns:
        return batch
    keep = []
    for a, b in zip(batch.column("left_text").to_pylist(),
                    batch.column("right_text").to_pylist()):
        inter, union = word_jaccard(a, b)
        keep.append(bool(union) and inter / union >= threshold)
    return batch.filter(pa.array(keep, pa.bool_())) \
        .select(["left_id", "right_id"])


def _spread_pairs(uniq, docs, right_docs):
    """``uniq`` cut into one block per CPU when both texts take the
    broadcast route and the scoring map would read more than one
    ``target_min_block_size``: each pair at its two sides' mean row
    bytes, all free from materialized metadata.  The exchange sizes
    ``uniq`` by its key bytes, 16 B a pair, so without this a verify of
    50k pairs scores in one task.  A bucketed text side needs no cut:
    its join exchange counts the text bytes."""
    from ray.data import DataContext

    if uniq.num_blocks() >= _n_parts() or None in (
            _text_lut_rows(docs), _text_lut_rows(right_docs)):
        return uniq
    mean = sum(d.size_bytes() / max(1, d.count()) for d in (docs, right_docs))
    if uniq.count() * mean > DataContext.get_current().target_min_block_size:
        return uniq.repartition(_n_parts())
    return uniq


def _jaccard_verify_pairs(pairs, docs, threshold: float, right_docs=None):
    """Candidate (left_id, right_id) pairs kept where the word-set
    Jaccard of their texts is ≥ threshold.  Candidates are deduped
    first (``aggregate``) and spread over the CPUs when their texts
    are many (``_spread_pairs``); the left text comes from ``docs`` and
    the right one from ``right_docs`` (default ``docs``), each attached
    by ``exchange.join`` on its route (``_text_lut_rows``); one map
    then scores the pairs."""
    right_docs = docs if right_docs is None else right_docs
    uniq = _spread_pairs(aggregate(pairs, ["left_id", "right_id"],
                                   ("count",)), docs, right_docs)
    for side, texts in (("left", docs), ("right", right_docs)):
        uniq = join(uniq, texts, f"{side}_id", right_on="doc_id",
                    attach={"text": f"{side}_text"},
                    right_rows=_text_lut_rows(texts))
    return uniq.map_batches(_keep_similar, batch_format="pyarrow",
                            zero_copy_batch=True,
                            fn_kwargs={"threshold": threshold})


def band_table(ds):
    """The LSH band table for a (doc_id, text) dataset: one (doc_id,
    band_id, band_hash) row per doc per band.  Exposed separately so a
    caller can PERSIST the band table once per corpus (parquet) and
    union stored bands with a new crawl's bands instead of re-MinHashing
    the historical side every run — see
    pipelines.dedup_pipeline.build_near_dedup_index."""
    return ds.map_batches(_band_rows, batch_format="pyarrow",
                          zero_copy_batch=True)


def _band_cut(batch: pa.Table, key: str) -> tuple:
    """Banded pair emitters, map side: a band-row block and its
    buckets, hash(``key``, band_id)."""
    return batch, _ibucket(_col_i64(batch, key) * np.int64(31)
                           + _col_i64(batch, "band_id"))


def _band_pairs(group: pa.Table, key: str,
                max_hamming: int | None = None) -> pa.Table:
    """Banded pair emitters, reduce side: the (left_id < right_id) doc
    pairs sharing a (band_id, ``key``) cell of one partition; with
    ``max_hamming``, only pairs whose ``simhash`` values are within
    that Hamming distance."""
    cells = (_col_i64(group, "band_id"), _col_i64(group, key))
    ids = _col_i64(group, "doc_id")
    if max_hamming is None:
        left, right = _cell_member_pairs(cells, ids)
    else:
        left, right, hl, hr = _cell_member_pairs(
            cells, ids, _col_i64(group, "simhash"))
        keep = _popcount64(np.bitwise_xor(hl, hr)) <= max_hamming
        left, right = left[keep], right[keep]
    return pa.Table.from_arrays([pa.array(left), pa.array(right)],
                                names=["left_id", "right_id"])


def band_candidates(bands):
    """Candidate pairs from an LSH band table (doc_id, band_id,
    band_hash), by one hash exchange on hash(band_hash, band_id) whose
    cell emits each partition's (band_id, band_hash) cells' pairs.  It
    ships (band, hash, id) triples, never documents, and executes
    ``bands`` at call time.  A pair found in several bands repeats;
    the verify dedupes."""
    return _hash_exchange("bands", [(bands, _band_cut,
                                     {"key": "band_hash"})],
                          _band_pairs, key="band_hash")


def minhash_lsh_pairs(ds, threshold: float = 0.5):
    """Confirmed near-dup pairs via MinHash+LSH banding over a (doc_id,
    text) dataset: banding → hash exchange → candidate pairs → Jaccard
    verify (``_jaccard_verify_pairs``).  The banding exchange ships
    (band, hash, id) triples, never documents.  When ``ds`` is
    materialized and its texts fit TEXT_BROADCAST_MAX_BYTES, the verify
    reads them from one broadcast LUT and runs as one map over the pair
    blocks; otherwise the texts ride bucketed join exchanges."""
    return _jaccard_verify_pairs(band_candidates(band_table(ds)), ds,
                                 threshold)


def exact_dedup(ds):
    """First (min doc_id) document per distinct text."""
    agg = aggregate(ds, "text", ("min", "doc_id"))
    return agg.map_batches(
        lambda b: b.rename_columns(
            ["text", "doc_id"]).select(["doc_id", "text"]),
        batch_format="pyarrow", zero_copy_batch=True)


def exact_dedup_hashed(ds):
    """The 100 TB-shaped exact dedup: group on an md5 content
    fingerprint so the all-to-all ships 32-hex-byte keys instead of
    document payloads; winner = min doc_id per fingerprint.  Returns
    (doc_id, fp) — payload resolution is a later pruned read or an
    exchange.join against the survivor ids."""
    import hashlib

    def fp_batch(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5(t.encode("utf-8")).hexdigest()
               for t in batch.column("text").to_pylist()]
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(fps, pa.string())],
            names=["doc_id", "fp"])

    fps = ds.map_batches(fp_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    agg = aggregate(fps, "fp", ("min", "doc_id"))
    return agg.map_batches(
        lambda b: b.rename_columns(["fp", "doc_id"]).select(
            ["doc_id", "fp"]),
        batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit simhash over word crc hashes (deterministic)."""
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    one = np.uint64(1)
    for w in text.split(" "):
        h = np.uint64(zlib.crc32(w.encode())
                      | (zlib.crc32(w[::-1].encode()) << 32))
        bits = (h >> shifts) & one
        acc += np.where(bits == one, 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= (1 << i)
    return out - (1 << 63)          # store as signed int64


def _simhash_batch(batch: pa.Table) -> pa.Table:
    """Vectorized batch simhash, bit-identical to ``simhash64`` per row:
    split all texts at once, crc-hash only the batch's UNIQUE words
    (dictionary encode), then one (words × 64) sign expansion and one
    np.add.reduceat per doc — the only Python loop is over the vocab."""
    if batch.num_rows == 0:
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array([], pa.int64())],
            names=["doc_id", "simhash"])
    words_list = pc.split_pattern(batch.column("text"), " ")
    n_words = pc.list_value_length(words_list).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    enc = pc.list_flatten(words_list).combine_chunks().dictionary_encode()
    vocab = enc.dictionary.to_pylist()
    idx = enc.indices.to_numpy(zero_copy_only=False)
    lut = np.fromiter(
        ((zlib.crc32(w.encode()) | (zlib.crc32(w[::-1].encode()) << 32))
         for w in vocab),
        dtype=np.uint64, count=len(vocab))
    shifts = np.arange(64, dtype=np.uint64)
    signs = (((lut[:, None] >> shifts) & np.uint64(1))
             .astype(np.int32) * 2 - 1)            # (vocab, 64) of ±1
    offsets = np.zeros(len(n_words), dtype=np.int64)
    np.cumsum(n_words[:-1], out=offsets[1:])
    acc = np.add.reduceat(signs[idx], offsets, axis=0)   # (docs, 64)
    vals = ((acc > 0).astype(np.uint64) << shifts).sum(
        axis=1, dtype=np.uint64)
    sh = (vals ^ np.uint64(1 << 63)).view(np.int64)  # bias → two's compl.
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(sh)],
        names=["doc_id", "simhash"])


def simhash(ds):
    return ds.map_batches(_simhash_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


# 9 bands over the 64 simhash bits: eight 7-bit bands + one 8-bit tail.
# Pigeonhole: a pair at Hamming distance <= 8 cannot differ in all 9
# bands, so banded candidate generation is COMPLETE for the default
# max_hamming=8 and the banded result provably equals the brute-force
# all-pairs filter (the golden is brute force — round 3 upgrade from
# the 4x16-bit layout, whose recall was data-dependent).
SIMHASH_BANDS: tuple[tuple[int, int], ...] = tuple(
    [(7 * b, 0x7F) for b in range(8)] + [(56, 0xFF)])


def simhash_dup_pairs(ds, max_hamming: int = 8):
    """Pairs at simhash Hamming distance ≤ max_hamming: candidates from
    the 9-band split (complete for ≤ 8 by pigeonhole — see
    SIMHASH_BANDS), confirmed in the banding exchange's cell.

    The simhash value rides the band rows, so the Hamming check needs
    no driver-side {id: simhash} side-table (the round-1
    scale-killer)."""
    sh = simhash(ds)

    def band_rows(batch: pa.Table) -> pa.Table:
        h = _col_i64(batch, "simhash")
        n = len(h)
        # biased (unsigned) view: signed int64 + 2^63 with wrap
        u = h.view(np.uint64) + np.uint64(1 << 63)
        nb = len(SIMHASH_BANDS)
        keys = (np.concatenate(
            [((u >> np.uint64(s)) & np.uint64(m)).astype(np.int64)
             for s, m in SIMHASH_BANDS]) if n
            else np.empty(0, np.int64))
        return pa.Table.from_arrays(
            [pa.array(np.tile(_col_i64(batch, "doc_id"), nb)),
             pa.array(np.repeat(np.arange(nb, dtype=np.int32), n)),
             pa.array(keys), pa.array(np.tile(h, nb))],
            names=["doc_id", "band_id", "band_key", "simhash"])

    banded = sh.map_batches(band_rows, batch_format="pyarrow",
                            zero_copy_batch=True)
    pairs = _hash_exchange("bands", [(banded, _band_cut,
                                      {"key": "band_key"})],
                           _band_pairs, key="band_key",
                           max_hamming=max_hamming)
    uniq = aggregate(pairs, ["left_id", "right_id"], ("count",))
    return uniq.drop_columns(["count()"])


# ---------------------------------------------------------------------------
# corpus-level dedup APPLY: pairs → connected components → survivors
# ---------------------------------------------------------------------------

def connected_components(pairs, max_iters: int = 50,
                         checkpoint_dir: str | None = None,
                         _fail_after_round: int | None = None):
    """Connected components over (left_id, right_id) edges by iterated
    min-label propagation: every node starts labelled with its own id;
    each round a node's label becomes the min of its own and its
    neighbors' labels, and from round 3 on one pointer-jumping step
    (label ← label[label], a miss keeps the pointer) halves long
    chains, so convergence takes O(log diameter) rounds.  Convergence
    witness: the count of labels the min step changed — 0 changed
    labels ⇔ every edge joins equal labels ⇔ global fixed point.  (The
    earlier Sum("label") witness could in principle terminate early on
    an int64 wrap-around delta ≡ 0 mod 2^64; the changed-count is
    exact.)

    The rounds run through the graph family's ``_fixed_point`` on the
    route ``_local_route`` picks from the bidirected edge count (an
    upper bound on the node count, known from block metadata):

    * local (≤ LOCAL_STATE_MAX_NODES): the sorted node ids (merged
      per-group ``np.unique`` partials of raw tasks over the edge
      blocks) and the label vector are driver-held; a round ray.puts
      the labels once and fans ``_min_label_kernel`` out over static
      groups of the materialized edge blocks (``_LocalFanout``), whose
      per-dst minima the driver applies with ``np.minimum.at``;
    * exchange (above the gate): label rows go through two bucketed
      groupby shuffles per round (plus a third for pointer jumping),
      executed and re-bound each round (``graph._rebind``) — the label
      state is never materialized on the driver.

    Both routes run the same recurrence, so every round's labels and
    changed count are identical across routes.

    ``checkpoint_dir``: optional commit+resume (the reference's
    move-as-commit pattern, update_delivery_file.py ref:72-83,
    generalized to label-state rounds): edges and each round's labels
    are written as parquet, renamed into place atomically, and recorded
    in a CommitManifest; a rerun with the same dir resumes from the last
    committed round instead of restarting a 100 TB dedup from zero.
    Both routes write the same layout, so a run checkpointed on one
    route resumes on the other.  ``_fail_after_round`` is a test-only
    crash injection (raises AFTER committing that round).

    Returns a Dataset (node, label) where label = min doc_id of the
    node's component; an empty pair set gives an empty table."""
    return _components(pairs, max_iters, checkpoint_dir,
                       _fail_after_round)[0]


def _components(pairs, max_iters: int = 50,
                checkpoint_dir: str | None = None,
                _fail_after_round: int | None = None):
    """``connected_components``, also returning the local route's
    driver arrays (sorted node ids, labels) — None on the exchange
    route.  The bidirected edges keep the blocks ``pairs`` (or the
    checkpointed edges) arrive in, with no repartition: the verify's
    exchange sizes its output to its bytes, so a pair set under one
    ``target_min_block_size`` is one block, and each local round is one
    ``_min_label_kernel`` task over it."""
    import ray.data
    from ray.data.aggregate import Sum

    def bidirect(batch: pa.Table) -> pa.Table:
        left = batch.column("left_id").cast(pa.int64())
        right = batch.column("right_id").cast(pa.int64())
        return pa.Table.from_arrays(
            [pa.concat_arrays([left.combine_chunks(),
                               right.combine_chunks()]),
             pa.concat_arrays([right.combine_chunks(),
                               left.combine_chunks()])],
            names=["src", "dst"])

    # The exchange route's label state is tiny relative to the corpus
    # (only docs in dup pairs).  Compact it to a few blocks before
    # iterating: shuffle cost per round is dominated by per-block task
    # overhead, not bytes.
    state_blocks = max(2, N_SHUFFLE_BUCKETS // 32)

    manifest = CommitManifest(checkpoint_dir) if checkpoint_dir else None
    committed = manifest.committed_shards() if manifest else set()

    def _persist(ds, name: str, record: dict):
        """write → rename → manifest-commit (atomic at each step)."""
        final = os.path.join(checkpoint_dir, name)
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        ds.write_parquet(tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        manifest.commit([record])

    def _read(name: str):
        return ray.data.read_parquet(os.path.join(checkpoint_dir, name))

    if manifest and "edges" in committed:
        edges = _read("edges").materialize()
    else:
        edges = pairs.map_batches(bidirect, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
        if manifest and edges.count():
            _persist(edges, "edges", {"shard": "edges"})
    n_edges = edges.count()
    if n_edges == 0:
        return graph._empty_table("node", "label"), None

    last_round = max(
        (r["iter"] for r in (manifest.records() if manifest else [])
         if str(r.get("shard", "")).startswith("round_")), default=None)
    start_it = 0 if last_round is None else last_round + 1

    def commit_round(it: int, labels, n_changed: int) -> None:
        """Checkpoint round ``it``'s (node, label) Dataset."""
        if not manifest:
            return
        _persist(labels, f"labels_r{it}",
                 {"shard": f"round_{it}", "iter": it,
                  "n_changed": int(n_changed)})
        if _fail_after_round is not None and it >= _fail_after_round:
            raise RuntimeError(
                f"injected failure after committed round {it}")

    def run(step, labels):
        """The rounds from ``start_it`` on; raises without a fixed
        point by ``max_iters``."""
        (_, labels), done = graph._fixed_point(
            (start_it, labels), step, max_iters - start_it,
            "connected_components")
        if not done:
            raise RuntimeError(f"connected_components: no fixed point "
                               f"after {max_iters} iterations")
        return labels

    if graph._local_route("connected_components", n_edges):
        groups = graph._LocalFanout.groups(edges.to_arrow_refs())
        if last_round is None:
            fan = graph._LocalFanout.over_ids(groups, "src",
                                              graph._min_label_kernel)
            labels = fan.sn
        else:
            fan = graph._LocalFanout.collect(
                _read(f"labels_r{last_round}"), ("node", "label"),
                graph._min_label_kernel)
            labels = fan.cols[0]
        sn = fan.sn

        def table(lab):
            return pa.Table.from_arrays([pa.array(sn), pa.array(lab)],
                                        names=["node", "label"])

        def local_step(state):
            it, lab = state
            new = lab.copy()
            for pos, low in fan.map(groups, lab):
                np.minimum.at(new, pos, low)
            n_changed = int(np.count_nonzero(new != lab))
            if it >= 3:          # pointer jumping, as compress() below
                pos = np.minimum(np.searchsorted(sn, new), len(sn) - 1)
                new = np.where(sn[pos] == new, new[pos], new)
            if manifest:
                commit_round(it, ray.data.from_arrow(table(new)),
                             n_changed)
            return (it + 1, new), n_changed

        lab = run(local_step, labels)
        return ray.data.from_arrow(table(lab)), (sn, lab)

    if last_round is not None:
        labels = _read(f"labels_r{last_round}") \
            .repartition(state_blocks).materialize()
    else:
        nodes = aggregate(edges, "src", ("count",)).drop_columns(["count()"])
        labels = nodes.map_batches(
            lambda b: pa.Table.from_arrays(
                [b.column("src"), b.column("src")],
                names=["node", "label"]),
            batch_format="pyarrow", zero_copy_batch=True) \
            .repartition(state_blocks).materialize()

    def lab_emit(batch: pa.Table) -> pa.Table:
        nodes = _col_i64(batch, "node")
        neg = pa.array(np.full(len(nodes), -1, dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(nodes)), pa.array(nodes), neg,
             batch.column("label")],
            names=["key", "node", "dst", "label"])

    def edge_emit(batch: pa.Table) -> pa.Table:
        srcs = _col_i64(batch, "src")
        neg = pa.array(np.full(len(srcs), -1, dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(srcs)), pa.array(srcs),
             batch.column("dst"), neg],
            names=["key", "node", "dst", "label"])

    def spread(group: pa.Table) -> pa.Table:
        """Messages out of one hash(node) bucket: each node re-emits its
        own label (is_self=1) and sends it to every neighbor
        (is_self=0); rows are keyed by the RECEIVER's hash bucket so the
        reduce can also run over constant-count groups.  Vectorized:
        the bucket's label map is a sorted array, edge sources resolve
        through one np.searchsorted."""
        nodes = group.column("node").to_numpy(zero_copy_only=False)
        dsts = group.column("dst").to_numpy(zero_copy_only=False)
        labs = group.column("label").to_numpy(zero_copy_only=False)
        lmask = dsts == -1
        lab_nodes, lab_vals = nodes[lmask], labs[lmask]
        lorder = np.argsort(lab_nodes)
        lab_nodes, lab_vals = lab_nodes[lorder], lab_vals[lorder]
        emask = ~lmask
        src, dst = nodes[emask], dsts[emask]
        if len(lab_nodes):
            pos = np.clip(np.searchsorted(lab_nodes, src),
                          0, len(lab_nodes) - 1)
            hit = lab_nodes[pos] == src
        else:
            pos = np.zeros(len(src), dtype=np.int64)
            hit = np.zeros(len(src), dtype=bool)
        out_nodes = np.concatenate([lab_nodes, dst[hit]])
        out_cands = np.concatenate([lab_vals, lab_vals[pos[hit]]])
        out_self = np.concatenate(
            [np.ones(len(lab_nodes), dtype=np.int8),
             np.zeros(int(hit.sum()), dtype=np.int8)])
        return pa.Table.from_arrays(
            [pa.array(_ibucket(out_nodes)),
             pa.array(out_nodes.astype(np.int64)),
             pa.array(out_cands.astype(np.int64)), pa.array(out_self)],
            names=["rkey", "node", "cand", "is_self"])

    def reduce_labels(group: pa.Table) -> pa.Table:
        """Vectorized in-bucket min-reduce: per node, label ← min cand;
        ``changed`` = (new label ≠ the node's is_self row's old label).
        Every node has exactly one self row, co-bucketed with all its
        incoming messages (both keyed by hash(node))."""
        nodes = group.column("node").to_numpy(zero_copy_only=False)
        cands = group.column("cand").to_numpy(zero_copy_only=False)
        selfs = group.column("is_self").to_numpy(zero_copy_only=False)
        order = np.lexsort((cands, nodes))
        ns, cs = nodes[order], cands[order]
        uniq, first = np.unique(ns, return_index=True)
        new_lab = cs[first]                       # min cand per node
        smask = selfs == 1
        old_nodes, old_labs = nodes[smask], cands[smask]
        oorder = np.argsort(old_nodes)
        # old_nodes sorted equals uniq by construction (1 self row/node)
        changed = (new_lab != old_labs[oorder]).astype(np.int8)
        return pa.Table.from_arrays(
            [pa.array(uniq.astype(np.int64)),
             pa.array(new_lab.astype(np.int64)), pa.array(changed)],
            names=["node", "label", "changed"])

    def provider_emit(batch: pa.Table) -> pa.Table:
        nodes = _col_i64(batch, "node")
        neg = pa.array(np.full(len(nodes), -1, dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(nodes)), neg, pa.array(nodes),
             batch.column("label"),
             pa.array(np.zeros(len(nodes), dtype=np.int8))],
            names=["key", "qnode", "node", "label", "changed"])

    def asker_emit(batch: pa.Table) -> pa.Table:
        nodes = _col_i64(batch, "node")
        labs = _col_i64(batch, "label")
        return pa.Table.from_arrays(
            [pa.array(_ibucket(labs)), pa.array(nodes), pa.array(labs),
             pa.array(np.full(len(nodes), -1, dtype=np.int64)),
             batch.column("changed")],
            names=["key", "qnode", "node", "label", "changed"])

    def answer(group: pa.Table) -> pa.Table:
        """label[n] ← label[label[n]]: providers carry the bucket's
        label map; askers look up their label's label (vectorized via
        sorted map + searchsorted; a miss keeps the pointer).  The
        per-node ``changed`` flag rides the asker rows unchanged
        (compression rewrites pointers, not this round's convergence
        evidence)."""
        qnodes = group.column("qnode").to_numpy(zero_copy_only=False)
        nodes = group.column("node").to_numpy(zero_copy_only=False)
        labs = group.column("label").to_numpy(zero_copy_only=False)
        chg = group.column("changed").to_numpy(zero_copy_only=False)
        pmask = qnodes == -1
        map_nodes, map_labs = nodes[pmask], labs[pmask]
        morder = np.argsort(map_nodes)
        map_nodes, map_labs = map_nodes[morder], map_labs[morder]
        amask = ~pmask
        ask_q, ask_n, ask_c = qnodes[amask], nodes[amask], chg[amask]
        out_l = ask_n.copy()                     # miss → keep pointer
        if len(map_nodes):
            pos = np.clip(np.searchsorted(map_nodes, ask_n),
                          0, len(map_nodes) - 1)
            hit = map_nodes[pos] == ask_n
            out_l[hit] = map_labs[pos[hit]]
        return pa.Table.from_arrays(
            [pa.array(ask_q.astype(np.int64)),
             pa.array(out_l.astype(np.int64)),
             pa.array(ask_c.astype(np.int8))],
            names=["node", "label", "changed"])

    def compress(lab):
        """Pointer-jumping round: long chains halve per application, so
        propagation + compression converges in O(log diameter) rounds
        instead of O(diameter)."""
        u = lab.map_batches(provider_emit, batch_format="pyarrow",
                            zero_copy_batch=True).union(
            lab.map_batches(asker_emit, batch_format="pyarrow",
                            zero_copy_batch=True))
        return u.groupby("key").map_groups(answer,
                                           batch_format="pyarrow")

    def step(state):
        it, labels = state
        u = labels.map_batches(lab_emit, batch_format="pyarrow",
                               zero_copy_batch=True).union(
            edges.map_batches(edge_emit, batch_format="pyarrow",
                              zero_copy_batch=True))
        msgs = u.groupby("key").map_groups(spread, batch_format="pyarrow")
        cand = msgs.groupby("rkey").map_groups(
            reduce_labels, batch_format="pyarrow")
        if it >= 3:
            # typical dup clusters converge within 3 plain rounds; only
            # long-chain stragglers pay the extra compression shuffle.
            # Execute first: compress() consumes cand on BOTH union
            # branches, and a twice-consumed lazy dataset re-executes
            # its lineage (the spread+reduce shuffles) once per branch.
            cand = compress(graph._rebind(cand.repartition(state_blocks)))
        # _rebind, not materialize(): a materialized dataset keeps its
        # plan, and re-planning every earlier round grew the round wall
        # from 1.4 s to 8.8 s by round 8 (400 random pairs, 4 Ray
        # CPUs); rebound rounds stay flat (3.9-4.8 s over rounds 3-16
        # with the pointer-jumping shuffle)
        full = graph._rebind(cand.repartition(state_blocks))
        n_changed = full.aggregate(Sum("changed"))["sum(changed)"] or 0
        # lazy projection over the rebound blocks — consumers
        # (persist / next-round emit / caller) pay only a column drop
        labels = full.drop_columns(["changed"])
        commit_round(it, labels, n_changed)
        return (it + 1, labels), n_changed

    return run(step, labels), None


def _without_ids(ds, ids: np.ndarray, col: str):
    """The rows of ``ds`` whose int64 ``col`` is not in the sorted
    driver array ``ids``: ``ids`` is ray.put once and applied by one
    streaming filter, so nothing is exchanged."""
    import ray

    if not len(ids):
        return ds
    ref = ray.put(ids)

    def keep(batch: pa.Table, *, _ref=ref) -> pa.Table:
        import ray

        drop = ray.get(_ref)
        v = _col_i64(batch, col)
        pos = np.minimum(np.searchsorted(drop, v), len(drop) - 1)
        return batch.filter(pa.array(drop[pos] != v))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def dedup_apply(ds, threshold: float = 0.5,
                checkpoint_dir: str | None = None):
    """Corpus-level near-dup REMOVAL — the operation an LLM-data user
    actually runs (the reference applies its dedup per-document at
    web_text_extractor_ver1.5.py:297-343; this is the corpus analogue):

      minhash_lsh_pairs → connected components → keep the min-doc_id
      representative of each dup cluster → drop the other members.

    ``checkpoint_dir`` makes the CC label rounds resumable (see
    connected_components) — a 100 TB dedup that dies in round 7 picks
    up from the last committed label state.

    Returns the surviving rows of ``ds`` with every column kept
    (``cc_survivors``).  A materialized ``ds`` is read as it is by the
    banding, the verify's text LUT and the survivor filter; a lazy one
    is read with its columns pruned to (doc_id, text) for the pairs."""
    from ray.data.dataset import MaterializedDataset

    docs = ds if isinstance(ds, MaterializedDataset) \
        else ds.select_columns(["doc_id", "text"])
    return cc_survivors(ds, minhash_lsh_pairs(docs, threshold), "doc_id",
                        checkpoint_dir)


def cc_survivors(ds, pairs, col: str, checkpoint_dir: str | None = None):
    """The rows of ``ds``, every column kept, whose int64 ``col`` is not
    a dropped member (node ≠ label) of the connected components of
    ``pairs`` — each component keeps its min id.  The drop follows CC's
    route: on the local route the sorted dropped ids are on the driver
    and ``_without_ids`` filters ``ds`` in one streaming map; on the
    exchange route the dropped label rows anti-join ``ds``
    (``relational.semi_join``)."""
    labels, local = _components(pairs, checkpoint_dir=checkpoint_dir)
    if local is not None:
        sn, lab = local
        return _without_ids(ds, sn[sn != lab], col)
    dropped = labels.map_batches(
        lambda b: b.filter(pc.not_equal(b.column("node"),
                                        b.column("label"))),
        batch_format="pyarrow", zero_copy_batch=True)
    return relational.semi_join(ds, dropped, col, "node", anti=True)


# ---------------------------------------------------------------------------
# consecutive-id n-gram Jaccard (SQL-oracle-checkable)
# ---------------------------------------------------------------------------

def ngram_jaccard_pairs(ds, min_inter_x10_per_union: int = 3):
    """Word-set Jaccard for every (doc_id k, k+1) pair, keeping pairs
    with jaccard ≥ min/10 — all-integer output.

    The self-join is expressed as an emit-twice exchange: doc k emits
    (key=k, role=L) and (key=k-1, role=R); keys holding both roles are
    exactly the consecutive pairs.  Scales as one hash exchange of
    (key, text), which executes ``ds`` at call time.
    """

    def emit(batch: pa.Table) -> tuple:
        ids = _col_i64(batch, "doc_id")
        keys = np.concatenate([ids, ids - 1])
        roles = np.concatenate([np.zeros(len(ids), dtype=np.int8),
                                np.ones(len(ids), dtype=np.int8)])
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        return pa.Table.from_arrays(
            [pa.array(keys), pa.array(roles),
             pa.array(np.concatenate([ids, ids])),
             pa.concat_arrays([text, text])],
            names=["pair_key", "role", "doc_id", "text"]), _ibucket(keys)

    def join_group(group: pa.Table) -> pa.Table:
        cells: dict[int, list] = {}
        for pk, role, did, text in zip(
                group.column("pair_key").to_pylist(),
                group.column("role").to_pylist(),
                group.column("doc_id").to_pylist(),
                group.column("text").to_pylist()):
            cells.setdefault(pk, [None, None])[role] = (did, text)
        out = {k: [] for k in ("left_id", "right_id", "inter_n",
                               "union_n")}
        for pk in sorted(cells):
            left, right = cells[pk]
            if left is None or right is None:
                continue
            inter, union = word_jaccard(left[1], right[1])
            if inter * 10 < union * min_inter_x10_per_union:
                continue
            out["left_id"].append(left[0])
            out["right_id"].append(right[0])
            out["inter_n"].append(inter)
            out["union_n"].append(union)
        return pa.Table.from_arrays(
            [pa.array(out[k], pa.int64()) for k in
             ("left_id", "right_id", "inter_n", "union_n")],
            names=["left_id", "right_id", "inter_n", "union_n"])

    return _hash_exchange("ngram", [(ds, emit, {})], join_group)


def dup_cluster_stats(ds, threshold: float = 0.5):
    """(cluster_size, n_clusters): size histogram of the near-dup
    clusters (size ≥ 2 — singletons have no edges and never enter CC)
    — the dedup observability readout an operator checks before
    committing a removal run.

    Shape: minhash_lsh_pairs → connected_components → per-batch label
    counts (combiner) → sum aggregate by label → per-batch histogram
    partial → one tiny groupby(cluster_size).sum.  Every shuffle after
    CC ships counts, never documents."""
    labels = connected_components(minhash_lsh_pairs(ds, threshold))

    def label_partial(batch: pa.Table) -> pa.Table:
        lab = _col_i64(batch, "label")
        t = pa.Table.from_arrays(
            [pa.array(lab),
             pa.array(np.ones(len(lab), dtype=np.int64))],
            names=["label", "n"])
        agg = t.group_by("label").aggregate([("n", "sum")])
        return agg.rename_columns(["label", "n"])

    sizes = aggregate(labels, "label", ("sum", "n"), pre=label_partial)

    def hist_partial(batch: pa.Table) -> pa.Table:
        col = "sum(n)" if "sum(n)" in batch.column_names else "n"
        n = batch.column(col).to_numpy(zero_copy_only=False)
        t = pa.Table.from_arrays(
            [pa.array(n), pa.array(np.ones(len(n), dtype=np.int64))],
            names=["cluster_size", "n_clusters"])
        agg = t.group_by("cluster_size").aggregate([("n_clusters",
                                                     "sum")])
        return agg.rename_columns(["cluster_size", "n_clusters"])

    return aggregate(sizes, "cluster_size", ("sum", "n_clusters"),
                     pre=hist_partial, names=["cluster_size", "n_clusters"])


# ---------------------------------------------------------------------------
# edit-distance-1 record linkage (deletion-neighborhood join)
# ---------------------------------------------------------------------------

def _lev_le1(a: str, b: str) -> bool:
    """Exact test for Levenshtein distance == 1 (unit costs — the same
    metric as DuckDB's levenshtein()).  O(len) two-pointer scan; callers
    guarantee a != b."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:                  # exactly one substitution?
        diff = sum(1 for x, y in zip(a, b) if x != y)
        return diff == 1
    if la > lb:                   # normalize: a is the shorter
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]     # one deletion bridges the rest


def edit1_name_pairs(ds, col: str = "p_name",
                     n_buckets: int = N_SHUFFLE_BUCKETS):
    """(left_name, right_name): distinct value pairs at Levenshtein
    distance EXACTLY 1 — typo/variant detection for record linkage
    (near-miss product names, author variants, host aliases).

    Candidate generation is the deletion neighborhood: each distinct
    string emits itself plus every delete-one-char variant as
    signatures.  Two strings at distance 1 ALWAYS share a signature
    (substitution: both sides delete the differing position;
    indel: the longer side's deletion equals the shorter string), so
    the bucketed join is exact — no recall loss to verify away, the
    in-bucket check only removes distance-0/2+ cohabitants.  The hash
    exchange (executed at call time) ships (signature, name) rows —
    O(length) signatures per DISTINCT value (per-batch dedupe first),
    never per row."""

    def emit(batch: pa.Table) -> tuple:
        import pyarrow.compute as pc

        names = pc.unique(batch.column(col)).to_pylist()
        sigs, out_names = [], []
        for name in names:
            if name is None:
                continue
            variants = [name] + [name[:i] + name[i + 1:]
                                 for i in range(len(name))]
            for v in variants:
                sigs.append(v)
                out_names.append(name)
        return pa.Table.from_arrays(
            [pa.array(out_names, pa.string()), pa.array(sigs, pa.string())],
            names=["name", "sig"]), _sbucket(sigs, n_buckets)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        by_sig: dict[str, set] = {}
        for sig, name in zip(group.column("sig").to_pylist(),
                             group.column("name").to_pylist()):
            by_sig.setdefault(sig, set()).add(name)
        left, right = [], []
        for sig in sorted(by_sig):
            names = sorted(by_sig[sig])
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    if _lev_le1(names[i], names[j]):
                        left.append(names[i])
                        right.append(names[j])
        return pa.Table.from_arrays(
            [pa.array(left, pa.string()), pa.array(right, pa.string())],
            names=["left_name", "right_name"])

    pairs = _hash_exchange("names", [(ds.select_columns([col]), emit, {})],
                           bucket_pairs)
    # the same pair can surface via several shared signatures
    uniq = aggregate(pairs, ["left_name", "right_name"], ("count",))
    return uniq.drop_columns(["count()"])


def dedup_keep_longest(ds, threshold: float = 0.5,
                       checkpoint_dir: str | None = None):
    """Corpus near-dup removal with the KEEP-LONGEST rule: like
    dedup_apply (minhash_lsh_pairs → connected components → anti-join)
    but each dup cluster keeps its member with the MOST characters
    (ties → min doc_id) instead of the min-id one — the keep rule
    production pipelines actually want (the mirror with the fullest
    content survives; excerpts and truncated copies drop).

    Scale shape: quality never rides the CC iteration — per-doc char
    counts attach to the label table through one hash(node)%256
    bucketed emit-union join (int64 rows, no text), the per-cluster
    argmax is one vectorized lexsort-first pass per hash(label)%256
    bucket (never per-cluster Python groups), and the dropped ids
    anti-join the corpus (``relational.semi_join``, dedup_apply's
    exchange-route survivor step).  Returns the surviving rows of
    ``ds`` with every column kept."""
    pairs = minhash_lsh_pairs(ds.select_columns(["doc_id", "text"]),
                              threshold)
    labels = connected_components(pairs, checkpoint_dir=checkpoint_dir)

    def qual_emit(batch: pa.Table) -> pa.Table:
        ids = _col_i64(batch, "doc_id")
        nch = pc.utf8_length(batch.column("text")).cast(pa.int64())
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ids)), pa.array(ids),
             pa.array(np.full(len(ids), -1, dtype=np.int64)),
             nch, pa.array(np.zeros(len(ids), dtype=np.int8))],
            names=["key", "node", "label", "n_chars", "is_lab"])

    def lab_emit(batch: pa.Table) -> pa.Table:
        nodes = _col_i64(batch, "node")
        labs = _col_i64(batch, "label")
        return pa.Table.from_arrays(
            [pa.array(_ibucket(nodes)), pa.array(nodes),
             pa.array(labs),
             pa.array(np.zeros(len(nodes), dtype=np.int64)),
             pa.array(np.ones(len(nodes), dtype=np.int8))],
            names=["key", "node", "label", "n_chars", "is_lab"])

    def attach(group: pa.Table) -> pa.Table:
        """In-bucket quality attach: every label node is a corpus doc,
        so one searchsorted against the bucket's sorted doc side maps
        node → n_chars for all label rows at once."""
        is_lab = group.column("is_lab").to_numpy(zero_copy_only=False)
        nodes = group.column("node").to_numpy(zero_copy_only=False)
        nch = group.column("n_chars").to_numpy(zero_copy_only=False)
        labs = group.column("label").to_numpy(zero_copy_only=False)
        dn, dq = nodes[is_lab == 0], nch[is_lab == 0]
        order = np.argsort(dn)
        dn, dq = dn[order], dq[order]
        ln, ll = nodes[is_lab == 1], labs[is_lab == 1]
        pos = np.searchsorted(dn, ln)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ll)), pa.array(ll), pa.array(ln),
             pa.array(dq[pos])],
            names=["lkey", "label", "node", "n_chars"])

    quald = ds.select_columns(["doc_id", "text"]).map_batches(
        qual_emit, batch_format="pyarrow", zero_copy_batch=True).union(
        labels.map_batches(lab_emit, batch_format="pyarrow",
                           zero_copy_batch=True)) \
        .groupby("key").map_groups(attach, batch_format="pyarrow")

    def argmax_drop(group: pa.Table) -> pa.Table:
        """Per-cluster keep-longest, vectorized across every cluster in
        the bucket: sort (label, n_chars desc, node asc), keep the
        first row per label, drop the rest."""
        lab = group.column("label").to_numpy(zero_copy_only=False)
        node = group.column("node").to_numpy(zero_copy_only=False)
        q = group.column("n_chars").to_numpy(zero_copy_only=False)
        order = np.lexsort((node, -q, lab))
        lab_s, node_s = lab[order], node[order]
        first = np.concatenate([[True], lab_s[1:] != lab_s[:-1]])
        return pa.Table.from_arrays([pa.array(node_s[~first])],
                                    names=["doc_id"])

    drops = quald.groupby("lkey").map_groups(argmax_drop,
                                             batch_format="pyarrow")
    return relational.semi_join(ds, drops, "doc_id", "doc_id", anti=True)


def dup_rate_by_source(ds, n_buckets: int = N_SHUFFLE_BUCKETS):
    """(source, n_docs, n_distinct): per-source exact-duplicate
    diagnostics — how many documents each source contributed and how
    many DISTINCT contents that is (the crawl-health report that tells
    you which domains are mirror farms before you pay for near-dedup).

    Scale shape (distinct_users' two-level combiner, content edition):
    texts travel as md5 fingerprints, never payloads; each block
    collapses to unique (source, fp) pairs carrying the block's doc
    count, the ONE corpus exchange buckets by hash(fp) so a pair's
    copies co-locate, and the final groupby sums ≤ n_buckets × sources
    tiny partials.  Counts are integers → order-invariant, bit-equal
    to COUNT(*) / COUNT(DISTINCT text) in SQL (md5 collisions bound
    the distinct count error: ~n²/2¹²⁸, nil at any real corpus)."""
    import hashlib

    def pairs(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5(t.encode("utf-8")).digest()[:8]
               for t in batch.column("text").to_pylist()]
        key = np.frombuffer(b"".join(fps), dtype=np.int64) \
            if fps else np.empty(0, dtype=np.int64)
        t = pa.Table.from_arrays(
            [batch.column("source"), pa.array(key)],
            names=["source", "fp"])
        uniq = t.group_by(["source", "fp"]).aggregate([("fp", "count")])
        uniq = uniq.rename_columns(["source", "fp", "n_docs"])
        fp2 = uniq.column("fp").to_numpy(zero_copy_only=False)
        return uniq.append_column(
            "bucket", pa.array(_ibucket(fp2, n_buckets)))

    def count_bucket(group: pa.Table) -> pa.Table:
        """Per-bucket: re-aggregate pair partials (a pair may appear
        once per block), then per source: docs = sum, distinct = count
        of unique fps — globally exact because a fp lives in exactly
        one bucket."""
        agg = pa.Table.from_arrays(
            [group.column("source"), group.column("fp"),
             group.column("n_docs")],
            names=["source", "fp", "n_docs"]) \
            .group_by(["source", "fp"]).aggregate([("n_docs", "sum")])
        out = agg.group_by("source").aggregate(
            [("n_docs_sum", "sum"), ("fp", "count")])
        return out.rename_columns(["source", "n_docs", "n_distinct"])

    partial = ds.select_columns(["source", "text"]).map_batches(
        pairs, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("bucket").map_groups(count_bucket,
                                      batch_format="pyarrow")
    return aggregate(partial, "source",
                     ("sum", "n_docs"), ("sum", "n_distinct"),
                     names=["source", "n_docs", "n_distinct"])


def prefix_filter_pairs(ds, threshold: float = 0.5, n_buckets: int = 256):
    """(left_id, right_id): EVERY pair of documents with word-set
    Jaccard ≥ ``threshold`` — the exact similarity self-join.  MinHash
    LSH (minhash_lsh_pairs) is the probabilistic scale path; this is
    the deterministic one: prefix filtering guarantees completeness
    (no false negatives, unlike banding), while still never touching
    the all-pairs space.

    Prefix-filter principle (PPJoin family): order every document's
    distinct tokens by a single global order and keep only the first
    p = n − ⌈t·n⌉ + 1 as its "prefix".  If J(A,B) ≥ t, the globally
    smallest token of A∩B sits inside BOTH prefixes (everything before
    it in either doc is outside the intersection), so candidates =
    pairs sharing ≥1 prefix token — complete by construction.  The
    global order is (document frequency asc, token), so prefixes hold
    the RAREST tokens and candidate cells stay small; the length
    filter |B| ≤ |A|/t prunes in-cell before any pair is emitted.

    Dataflow — three linear keyed exchanges plus the shared verify:
    (1) distinct (token, doc, set_size) postings land complete per
    hash(token) cell, so df is exact in-cell (never a joined table);
    (2) regroup by hash(doc) sorts each doc's tokens by (df, token)
    and keeps the prefix; (3) prefix postings regroup by hash(token),
    each cell emits length-filtered (min,max) id pairs; duplicates
    across cells collapse in the verify's pair aggregate.  Nothing
    materializes on the driver (the lazy input keeps the verify on the
    join's bucketed route); a hot token is one larger cell, not a
    straggler."""
    import pandas as pd
    import pyarrow.compute as pc

    def postings(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        flat = pc.list_flatten(toks)
        codes, uniq = pd.factorize(pd.Series(flat.to_pandas()),
                                   sort=False)
        packed = np.unique(rows * len(uniq) + codes)
        ridx = packed // len(uniq)
        terms = uniq.to_numpy(dtype=object)[packed % len(uniq)]
        # distinct-set size per row (run lengths over sorted packed)
        starts = np.nonzero(np.append(True, ridx[1:] != ridx[:-1]))[0]
        sizes = np.zeros(len(lens), dtype=np.int64)
        sizes[ridx[starts]] = np.diff(np.append(starts, len(ridx)))
        docs = _col_i64(batch, "doc_id")[ridx]
        return pa.Table.from_arrays(
            [pa.array(_sbucket(terms, n_buckets)),
             pa.array(terms.astype(str), pa.string()),
             pa.array(docs), pa.array(sizes[ridx])],
            names=["bucket", "token", "doc_id", "n"])

    def df_cell(group: pa.Table) -> pa.Table:
        terms = group.column("token").to_pandas()
        codes, uniq = pd.factorize(terms, sort=False)
        df = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(docs, n_buckets)), pa.array(docs),
             group.column("token"), pa.array(df[codes]),
             group.column("n")],
            names=["dbucket", "doc_id", "token", "df", "n"])

    def prefix_cell(group: pa.Table) -> pa.Table:
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        df = group.column("df").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        terms = np.asarray(group.column("token").to_pylist(),
                           dtype=object)
        order = np.lexsort((terms, df, docs))
        d = docs[order]
        starts = np.nonzero(np.append(True, d[1:] != d[:-1]))[0]
        rank = np.arange(len(d)) - np.repeat(
            starts, np.diff(np.append(starts, len(d))))
        ns = n[order]
        p = ns - np.ceil(threshold * ns).astype(np.int64) + 1
        keep = order[rank < p]
        kept_terms = terms[keep]
        return pa.Table.from_arrays(
            [pa.array(_sbucket(kept_terms, n_buckets)),
             pa.array(kept_terms.astype(str), pa.string()),
             pa.array(docs[keep]), pa.array(n[keep])],
            names=["bucket", "token", "doc_id", "n"])

    def cand_cell(group: pa.Table) -> pa.Table:
        terms = group.column("token").to_pandas()
        codes, uniq = pd.factorize(terms, sort=False)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((docs, n, codes))
        c, d, ns = codes[order], docs[order], n[order]
        ls, rs = [], []
        starts = np.nonzero(np.append(True, c[1:] != c[:-1]))[0]
        ends = np.append(starts[1:], len(c))
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            ia, ib = np.triu_indices(m, k=1)
            # sorted by size asc: need size_big ≤ size_small / t
            ok = ns[s + ib] * threshold <= ns[s + ia]
            ls.append(d[s + ia[ok]])
            rs.append(d[s + ib[ok]])
        if not ls:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["left_id", "right_id"])
        le = np.concatenate(ls)
        r = np.concatenate(rs)
        lo, hi = np.minimum(le, r), np.maximum(le, r)
        uniq_pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.Table.from_arrays(
            [pa.array(uniq_pairs[:, 0]), pa.array(uniq_pairs[:, 1])],
            names=["left_id", "right_id"])

    cands = ds.select_columns(["doc_id", "text"]) \
        .map_batches(postings, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(df_cell, batch_format="pyarrow") \
        .groupby("dbucket").map_groups(prefix_cell,
                                       batch_format="pyarrow") \
        .groupby("bucket").map_groups(cand_cell, batch_format="pyarrow")
    return _jaccard_verify_pairs(
        cands, ds.select_columns(["doc_id", "text"]), threshold)


def source_overlap(ds, n_buckets: int = 256):
    """(source_a, source_b, n_shared) with source_a < source_b: for
    every pair of crawl sources, how many distinct word-SETS (the
    bag-of-words content fingerprint — word order and repetition
    ignored) appear in BOTH — the cross-source contamination matrix an
    operator reads before deciding which feeds to dedup against which.
    Exact-content md5 is too strict for reshuffled mirrors; the sorted
    distinct-token-set fingerprint catches them.

    Canonicalization is all C kernels (split → per-row sorted distinct
    token list → binary_join); only the md5 runs per row (the
    _fp_batch convention — hashing has no Arrow kernel).  Each block
    emits its DISTINCT (fp, source) rows, the one exchange keys by
    hash(fp) so a fingerprint's sources land complete in one cell, and
    the cell's boolean fp×source membership matrix counts every source
    pair at once (MᵀM, the event_cooccurrence transpose-product);
    cells emit constant |sources|² partials into a tiny final sum."""
    import hashlib

    import pandas as pd
    import pyarrow.compute as pc

    def fp_rows(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        flat = pc.list_flatten(toks)
        codes, uniq = pd.factorize(pd.Series(flat.to_pandas()),
                                   sort=True)   # code order == lexicographic
        packed = np.unique(rows * len(uniq) + codes)
        ridx = packed // len(uniq)
        terms = uniq.to_numpy(dtype=object)[packed % len(uniq)]
        starts = np.nonzero(np.append(True, ridx[1:] != ridx[:-1]))[0]
        offsets = np.zeros(len(lens) + 1, dtype=np.int32)
        counts = np.diff(np.append(starts, len(ridx)))
        offsets[ridx[starts] + 1] = counts
        offsets = np.cumsum(offsets).astype(np.int32)
        lst = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(terms.astype(str), pa.string()))
        canon = pc.binary_join(lst, " ").to_pylist()
        fps = np.fromiter(
            (int.from_bytes(hashlib.md5(c.encode("utf-8")).digest()[:8],
                            "big") & 0x7FFFFFFFFFFFFFFF
             for c in canon), dtype=np.int64, count=len(canon))
        srcs = np.asarray(batch.column("source").to_pylist(),
                          dtype=object)
        pair = np.unique(np.stack(
            [fps, pd.util.hash_array(srcs).astype(np.int64)], axis=1),
            axis=0, return_index=True)[1]
        return pa.Table.from_arrays(
            [pa.array(_ibucket(fps[pair], n_buckets)),
             pa.array(fps[pair]),
             pa.array(srcs[pair].astype(str), pa.string())],
            names=["bucket", "fp", "source"])

    def count_cell(group: pa.Table) -> pa.Table:
        fp = group.column("fp").to_numpy(zero_copy_only=False)
        src = np.asarray(group.column("source").to_pylist(),
                         dtype=object)
        funiq, fcodes = np.unique(fp, return_inverse=True)
        suniq, scodes = np.unique(src, return_inverse=True)
        m = np.zeros((len(funiq), len(suniq)), dtype=bool)
        m[fcodes, scodes] = True      # re-distincts across blocks
        counts = m.astype(np.int64).T @ m.astype(np.int64)
        ia, ib = np.triu_indices(len(suniq), k=1)
        n = counts[ia, ib]
        keep = n > 0
        return pa.Table.from_arrays(
            [pa.array(suniq[ia[keep]].astype(str), pa.string()),
             pa.array(suniq[ib[keep]].astype(str), pa.string()),
             pa.array(n[keep])],
            names=["source_a", "source_b", "n_shared"])

    return aggregate(
        ds.select_columns(["source", "text"])
        .map_batches(fp_rows, batch_format="pyarrow",
                     zero_copy_batch=True)
        .groupby("bucket").map_groups(count_cell,
                                      batch_format="pyarrow"),
        ["source_a", "source_b"], ("sum", "n_shared"),
        names=["source_a", "source_b", "n_shared"])


def dup_mapping(ds, threshold: float = 0.5):
    """(doc_id, rep_id): the duplicate-lineage table — every non-
    representative member of a MinHash-LSH near-dup cluster mapped to
    its surviving representative (the cluster's min id).  dedup_apply
    answers "what survives"; this answers "where did each dropped doc
    GO" — the record an incremental pipeline keeps so later references
    (citations, URL redirects, feedback joins) can be re-pointed at
    the survivor.

    Pure composition of the existing scale machinery: banded candidate
    pairs → distributed min-label connected components → one streaming
    filter keeping (node ≠ label) rows.  Nothing new shuffles; the
    mapping is exactly the CC label table minus its fixed points."""
    labels = connected_components(minhash_lsh_pairs(ds, threshold))

    def nonrep(batch: pa.Table) -> pa.Table:
        n = _col_i64(batch, "node")
        lab = _col_i64(batch, "label")
        keep = n != lab
        return pa.Table.from_arrays(
            [pa.array(n[keep]), pa.array(lab[keep])],
            names=["doc_id", "rep_id"])

    return labels.map_batches(nonrep, batch_format="pyarrow",
                              zero_copy_batch=True)


def minhash_recall_audit(ds, threshold: float = 0.5):
    """One row (n_exact, n_lsh, n_hits, recall_micro): measured recall
    of the MinHash-LSH banding path against the EXACT prefix-filter
    similarity self-join at the same Jaccard threshold — the dedup
    twin of ann.ivf_recall_audit (banding trades recall for never
    touching the all-pairs space; this measures what that trade
    costs on real data — the false-negative rate of 16-band/8-row
    signatures at the given threshold).  Both sides verify with the
    same word-Jaccard, so LSH pairs ⊆ exact pairs; n_hits counts the
    intersection anyway (a non-containment would flag a banding bug).

    Reading the number: the LSH pipeline BANDS on 3-word-shingle
    signatures but VERIFIES on word-set Jaccard, so recall is the
    probability that a word-similar pair is also shingle-similar.  On
    corpora whose similar pairs share vocabulary but not word ORDER
    (the synthetic driver tables are the extreme case), recall
    collapses toward zero — precisely the diagnostic to run before
    trusting shingle-LSH dedup on a new corpus: a low number says
    "your near-dups are reordered bags of words; use word-set
    candidates (prefix_filter_pairs) or smaller shingles", not that
    banding is broken (the planted verbatim near-dup families ARE
    found by the same pipeline at full-corpus scope, see
    minhash_lsh_pairs' golden).

    Scale shape: both pair sets come from their own documented
    pipelines; the comparison is ONE hash(pair)%256 bucketed exchange
    of packed (lo<<32|hi) keys with an in-cell sorted intersection —
    per-cell output is a single 3-int partial, the driver sums 256 of
    them."""

    exact = prefix_filter_pairs(ds, threshold)
    lsh = minhash_lsh_pairs(ds, threshold)

    def emit(flag: int):
        def f(batch: pa.Table) -> pa.Table:
            le = _col_i64(batch, "left_id")
            r = _col_i64(batch, "right_id")
            lo = np.minimum(le, r)
            hi = np.maximum(le, r)
            if len(hi):
                assert int(hi.max()) < (1 << 31), \
                    "pair pack needs ids < 2^31"
            key = (lo << 32) | hi
            return pa.Table.from_arrays(
                [pa.array(_ibucket(key)), pa.array(key),
                 pa.array(np.full(len(key), flag, dtype=np.int8))],
                names=["bucket", "key", "is_exact"])
        return f

    def cell(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        fl = group.column("is_exact").to_numpy(zero_copy_only=False)
        ek = np.unique(key[fl == 1])
        lk = np.unique(key[fl == 0])
        hits = len(np.intersect1d(ek, lk, assume_unique=True))
        return pa.Table.from_arrays(
            [pa.array([len(ek)], pa.int64()),
             pa.array([len(lk)], pa.int64()),
             pa.array([hits], pa.int64())],
            names=["n_exact", "n_lsh", "n_hits"])

    u = exact.map_batches(emit(1), batch_format="pyarrow",
                          zero_copy_batch=True).union(
        lsh.map_batches(emit(0), batch_format="pyarrow",
                        zero_copy_batch=True))
    parts = u.groupby("bucket").map_groups(
        cell, batch_format="pyarrow").take_all()
    ne = sum(r["n_exact"] for r in parts)
    nl = sum(r["n_lsh"] for r in parts)
    nh = sum(r["n_hits"] for r in parts)
    return pa.table({
        "n_exact": pa.array([ne], pa.int64()),
        "n_lsh": pa.array([nl], pa.int64()),
        "n_hits": pa.array([nh], pa.int64()),
        "recall_micro": pa.array([(1_000_000 * nh) // max(1, ne)],
                                 pa.int64())})


def crawl_diff(old_ds, new_ds, n_buckets: int = N_SHUFFLE_BUCKETS):
    """(doc_id, change): three-way diff of two crawl snapshots —
    'added' (doc only in the new crawl), 'removed' (only in the old),
    'changed' (in both with different content) — the crawl-ops
    primitive behind refresh scheduling and incremental re-extraction
    (`incremental_dedup` answers "which new docs are novel?"; this
    answers "what happened to the corpus?").  Unchanged docs emit
    nothing, so the output is diff-sized, not corpus-sized.

    Scale shape: each side maps to (hash(doc_id)%``n_buckets``,
    doc_id, md5-fingerprint, side) rows — texts NEVER travel, only
    16-byte fingerprints (the exact_dedup_hashed posture) — then ONE
    bucketed exchange; each cell lexsorts by (doc_id, side) and
    classifies every id run vectorized (run length + side pattern →
    added/removed/changed), no per-doc Python.  Output ordered by
    doc_id within each cell; global order is the oracle's ORDER BY
    after the driver's canonical sort.

    CONTRACT: ``doc_id`` is unique within each snapshot (the crawl
    invariant every caller here satisfies).  A duplicated id on one
    side would make the run-length classification ambiguous, so each
    cell ASSERTS the pattern — every length-2 run must be one old +
    one new row, and no run may exceed 2 — raising ValueError instead
    of silently mislabelling (e.g. two old rows with differing text
    and no new row would otherwise emit 'changed', not 'removed')."""
    import hashlib as _h

    def emit(side: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            fps = np.fromiter(
                (int.from_bytes(
                    _h.md5(t.encode("utf-8")).digest()[:8], "big")
                 & 0x7FFFFFFFFFFFFFFF
                 for t in batch.column("text").to_pylist()),
                dtype=np.int64, count=len(ids))
            return pa.Table.from_arrays(
                [pa.array(_ibucket(ids, n_buckets)), pa.array(ids),
                 pa.array(fps),
                 pa.array(np.full(len(ids), side, dtype=np.int64))],
                names=["bucket", "doc_id", "fp", "side"])
        return f

    def classify(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        fp = group.column("fp").to_numpy(zero_copy_only=False)
        side = group.column("side").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, ids))
        ids, fp, side = ids[order], fp[order], side[order]
        starts = np.nonzero(np.append(True, ids[1:] != ids[:-1]))[0]
        lens = np.diff(np.append(starts, len(ids)))
        # per-snapshot doc_id uniqueness contract (see docstring):
        # runs longer than 2 are impossible, and a length-2 run must
        # be exactly (old, new)
        if len(lens) and int(lens.max()) > 2:
            bad = ids[starts[np.argmax(lens)]]
            raise ValueError(
                f"crawl_diff: doc_id {bad} appears more than once "
                "within one snapshot (uniqueness contract violated)")
        pairs = starts[lens == 2]
        if len(pairs) and not (
                (side[pairs] == 0) & (side[pairs + 1] == 1)).all():
            raise ValueError(
                "crawl_diff: duplicated doc_id within one snapshot "
                "(a length-2 run is not one old + one new row)")
        # run of 1: side 0 -> removed, side 1 -> added; run of 2:
        # (old, new) in that order by the lexsort -> changed iff fps
        # differ
        single = lens == 1
        s_idx = starts[single]
        out_ids, out_ch = [], []
        if len(s_idx):
            out_ids.append(ids[s_idx])
            out_ch.append(np.where(side[s_idx] == 0,
                                   "removed", "added"))
        both = starts[~single]
        if len(both):
            diff = fp[both] != fp[both + 1]
            out_ids.append(ids[both][diff])
            out_ch.append(np.full(int(diff.sum()), "changed",
                                  dtype=object))
        if not out_ids:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string())],
                names=["doc_id", "change"])
        oi = np.concatenate(out_ids)
        oc = np.concatenate(out_ch)
        o = np.argsort(oi, kind="stable")
        return pa.Table.from_arrays(
            [pa.array(oi[o]), pa.array(oc[o].astype(str), pa.string())],
            names=["doc_id", "change"])

    old_rows = old_ds.select_columns(["doc_id", "text"]) \
        .map_batches(emit(0), batch_format="pyarrow",
                     zero_copy_batch=True)
    new_rows = new_ds.select_columns(["doc_id", "text"]) \
        .map_batches(emit(1), batch_format="pyarrow",
                     zero_copy_batch=True)
    return old_rows.union(new_rows) \
        .groupby("bucket").map_groups(classify, batch_format="pyarrow")


# Last, at module scope: graph (the local-route helpers of connected
# components) and relational (semi_join) import this module at THEIR
# module scope, so they can only be imported once every name above
# exists; a function-level import would break worker-shipped code,
# which cannot import webtext.
from . import graph  # noqa: E402
from ..pipelines import relational  # noqa: E402
