"""Similarity search over an embedding column (list<float>).

* knn_brute    — exact cosine top-k: per-batch numpy matmul against a
                 broadcast query vector, per-batch partial top-k, tiny
                 final sort.  The broadcast is a single ``ray.put``; the
                 partial top-k means only k rows per block reach the
                 driver-side merge (never the full score column).
* knn_ivf      — IVF scale path: deterministic mini-kmeans centroids,
                 cluster assignment via map_batches, probe the nprobe
                 nearest lists, brute-force within.
* cosine_dup_pairs — embedding near-dup pairs above a cosine threshold
                 via blockwise matmul against the broadcast matrix
                 (O(n·block) per task; the LSH/IVF bucketing above is
                 the 100 TB path).

All cosine math runs in float64 so results agree bit-for-bit with the
DuckDB ``list_cosine_similarity`` oracle on id-level output.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

# module scope: worker code is shipped by value and cannot lazy-import
# webtext
from ..exchange import _ibucket, aggregate, join
from .dedup import cc_survivors, connected_components
from .textstats import bm25_topk


def _matrix(batch: pa.Table, column: str = "embedding") -> np.ndarray:
    """Zero-copy-ish (n, dim) float64 matrix from a list<float> column:
    flatten the list buffer and reshape (embeddings are fixed-dim)."""
    col = batch.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    flat = np.asarray(col.flatten(), dtype=np.float64)
    if flat.size % n:
        # ragged rows — fall back to the slow path
        return np.array(col.to_pylist(), dtype=np.float64)
    return flat.reshape(n, flat.size // n)


def _cos(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / np.linalg.norm(q)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return (mat @ qn) / norms


def get_query_vector(ds, vec_id: int = 0) -> np.ndarray:
    row = ds.filter(expr=f"vec_id == {vec_id}").take(1)[0]
    return np.array(row["embedding"], dtype=np.float64)


def knn_brute(ds, query: np.ndarray, k: int = 10, exclude_id: int | None = 0):
    """Exact top-k by cosine; returns (vec_id, label) rows, ties broken
    by vec_id ascending (matches the SQL oracle's ORDER BY)."""
    import ray

    qref = ray.put(query)

    class PartialTopK:
        def __init__(self, ref, k):
            self.q = ray.get(ref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            sims = _cos(_matrix(batch), self.q)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            labels = batch.column("label").to_numpy(zero_copy_only=False)
            if exclude_id is not None:
                keep = ids != exclude_id
                sims, ids, labels = sims[keep], ids[keep], labels[keep]
            order = np.lexsort((ids, -sims))[:self.k]
            return pa.Table.from_arrays(
                [pa.array(ids[order], pa.int64()),
                 pa.array(labels[order], pa.int32()),
                 pa.array(sims[order], pa.float64())],
                names=["vec_id", "label", "sim"])

    partial = ds.map_batches(
        PartialTopK, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 4), fn_constructor_args=(qref, k))
    # final merge: ≤ k rows per block — tiny
    top = partial.sort(["sim", "vec_id"], descending=[True, False])
    return top.limit(k).drop_columns(["sim"])


KMEANS_SCALE = 1_000_000  # fixed-point quantum for order-invariant sums


def _assign_clusters(mat: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment (squared euclid, first-min wins).
    One shared formula so the distributed fit and any independent
    re-implementation agree bit-for-bit."""
    d = ((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


def kmeans_fit_distributed(ds, nlist: int, iters: int = 5) -> np.ndarray:
    """Distributed k-means over the embeddings Dataset.

    Init: the vectors at evenly spaced vec_ids (deterministic, no RNG).
    Each iteration is one map_batches pass emitting per-cluster
    *fixed-point int64* partial sums (embedding × 1e6 rounded) plus
    counts; integer addition is associative, so the reduce is
    order-invariant — the fitted centroids are bit-identical regardless
    of block boundaries or parallelism.  Only centroid-sized data
    (nlist × dim per block) ever reaches the driver."""
    import ray

    from ray.data.aggregate import Max

    max_id = ds.select_columns(["vec_id"]).aggregate(
        Max("vec_id"))["max(vec_id)"]
    seed_ids = sorted(set(int(i) for i in
                          np.linspace(0, max_id, nlist).astype(int)))
    seeds = ds.filter(
        expr=" or ".join(f"vec_id == {i}" for i in seed_ids)) \
        .select_columns(["vec_id", "embedding"]).take_all()
    seeds.sort(key=lambda r: r["vec_id"])
    cents = np.array([r["embedding"] for r in seeds], dtype=np.float64)
    nlist = len(cents)

    for _ in range(iters):
        cref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            mat = _matrix(batch)
            assign = _assign_clusters(mat, c)
            q = np.rint(mat * KMEANS_SCALE).astype(np.int64)
            dim = mat.shape[1]
            sums = np.zeros((len(c), dim), dtype=np.int64)
            np.add.at(sums, assign, q)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            return pa.Table.from_arrays(
                [pa.array(np.arange(len(c), dtype=np.int64)),
                 pa.array(counts),
                 pa.array(sums.tolist(), pa.list_(pa.int64()))],
                names=["cluster", "count", "sum_fp"])

        parts = ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
        dim = cents.shape[1]
        tot = np.zeros((nlist, dim), dtype=np.int64)
        cnt = np.zeros(nlist, dtype=np.int64)
        for row in parts:                      # nlist × n_blocks tiny rows
            tot[row["cluster"]] += np.asarray(row["sum_fp"], dtype=np.int64)
            cnt[row["cluster"]] += row["count"]
        new = cents.copy()
        nz = cnt > 0
        new[nz] = (tot[nz] / KMEANS_SCALE) / cnt[nz, None]
        cents = new
    return cents


def ivf_build_index(ds, path: str, nlist: int = 16, iters: int = 5
                    ) -> np.ndarray:
    """Fit IVF centroids (distributed, order-invariant) and persist them
    as a tiny parquet index — build once, query many.  Centroids are
    float64 exact (derived from integer fixed-point sums), so a query
    through the loaded index is bit-identical to an inline fit."""
    import pyarrow.parquet as pq

    cents = kmeans_fit_distributed(ds, nlist, iters)
    table = pa.Table.from_arrays(
        [pa.array(range(len(cents)), pa.int64()),
         pa.array(cents.tolist(), pa.list_(pa.float64()))],
        names=["cluster", "centroid"])
    # atomic publish: concurrent builders (the driver may run queries in
    # parallel) each write a private file; os.replace is last-wins-whole
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return cents


def ivf_load_index(path: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(path).sort_by("cluster")
    col = t.column("centroid").combine_chunks()
    n = len(col)
    return np.asarray(col.flatten(), dtype=np.float64).reshape(n, -1)


def knn_ivf(ds, query: np.ndarray, k: int = 10, nlist: int = 16,
            nprobe: int = 4, exclude_id: int | None = 0,
            index_path: str | None = None):
    """IVF approximate top-k: distributed centroid fit → assign → probe
    the nprobe nearest lists → brute-force within the probed subset.
    Pass ``index_path`` (from ivf_build_index) to skip the fit — at
    scale the fit is a multi-pass job you run once per corpus."""
    import ray

    if index_path is not None:
        cents = ivf_load_index(index_path)
    else:
        cents = kmeans_fit_distributed(ds, nlist)
    probe = np.argsort(((cents - query) ** 2).sum(axis=1))[:nprobe]
    cref = ray.put((cents, set(int(p) for p in probe), query))

    class ProbeFilter:
        def __init__(self, ref, k):
            self.cents, self.probe, self.q = ray.get(ref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _matrix(batch)
            assign = _assign_clusters(mat, self.cents)
            keep = np.isin(assign, list(self.probe))
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            labels = batch.column("label").to_numpy(zero_copy_only=False)
            if exclude_id is not None:
                keep &= ids != exclude_id
            mat, ids, labels = mat[keep], ids[keep], labels[keep]
            if not len(ids):
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int32()),
                     pa.array([], pa.float64())],
                    names=["vec_id", "label", "sim"])
            sims = _cos(mat, self.q)
            order = np.lexsort((ids, -sims))[:self.k]
            return pa.Table.from_arrays(
                [pa.array(ids[order], pa.int64()),
                 pa.array(labels[order], pa.int32()),
                 pa.array(sims[order], pa.float64())],
                names=["vec_id", "label", "sim"])

    partial = ds.map_batches(
        ProbeFilter, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 4), fn_constructor_args=(cref, k))
    top = partial.sort(["sim", "vec_id"], descending=[True, False])
    return top.limit(k).drop_columns(["sim"])


# Above this row count the exact O(n²) broadcast designs route to the
# LSH-bucketed scale path (approximate: recall per lsh_cosine_dup_pairs'
# docstring).  Below it the broadcast matrix is ≤ ~10 MB — a legitimate
# small-side ray.put, and the exact outputs serve as oracles for LSH.
EXACT_MAX_ROWS = 20_000


def _route_exact_or_lsh(ds, method: str, exact_max_rows: int,
                        fn_name: str) -> str:
    """Resolve method ∈ {'auto','exact','lsh'} to 'exact' or 'lsh'.
    'auto' routes by row count and WARNS on the exact→approximate
    switch so callers never silently get approximate results (their
    exact SQL oracles would no longer apply)."""
    import warnings

    if method == "exact":
        return "exact"
    if method == "lsh":
        return "lsh"
    if method != "auto":
        raise ValueError(f"{fn_name}: method must be "
                         f"'auto'|'exact'|'lsh', got {method!r}")
    if ds.count() > exact_max_rows:
        warnings.warn(
            f"{fn_name}: input exceeds exact_max_rows={exact_max_rows}; "
            f"routing to the approximate LSH path (output is a recall-"
            f"bounded subset; exact SQL oracles no longer apply). Pass "
            f"method='exact' to force the O(n^2) broadcast design or "
            f"call the lsh_* variant directly.", stacklevel=3)
        return "lsh"
    return "exact"


def cosine_dup_pairs(ds, threshold: float = 0.4,
                     exact_max_rows: int = EXACT_MAX_ROWS,
                     method: str = "auto"):
    """All (a < b) pairs with cosine ≥ threshold: blockwise matmul of
    each batch against the broadcast full matrix.

    ``method='auto'`` stays exact up to ``exact_max_rows`` rows and
    routes larger inputs to ``lsh_cosine_dup_pairs`` (bucketed, no
    broadcast, approximate) with an explicit warning; 'exact'/'lsh'
    force a path."""
    import ray

    if _route_exact_or_lsh(ds, method, exact_max_rows,
                           "cosine_dup_pairs") == "lsh":
        return lsh_cosine_dup_pairs(ds, threshold)
    rows = ds.select_columns(["vec_id", "embedding"]).take_all()
    all_ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    all_mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    all_mat = all_mat / np.linalg.norm(all_mat, axis=1, keepdims=True)
    ref = ray.put((all_ids, all_mat))

    class PairFinder:
        def __init__(self, r, t):
            self.ids, self.mat = ray.get(r)
            self.t = t

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            m = _matrix(batch)
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            sims = m @ self.mat.T                     # (batch, n)
            left, right = [], []
            bi, bj = np.nonzero(sims >= self.t)
            for i, j in zip(bi, bj):
                a, b = int(ids[i]), int(self.ids[j])
                if a < b:
                    left.append(a)
                    right.append(b)
            return pa.Table.from_arrays(
                [pa.array(left, pa.int64()), pa.array(right, pa.int64())],
                names=["left_id", "right_id"])

    return ds.map_batches(
        PairFinder, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 4), fn_constructor_args=(ref, threshold))


def _lsh_band_fn(planes: np.ndarray):
    """Vectorized id-ONLY band-row emission: (table, bucket, vec_id).
    One einsum computes every table's sign key per batch; embeddings do
    NOT ride this shuffle (they are joined back exactly once for the
    verify — ~8× fewer shuffle bytes than shipping the vector per
    table)."""
    n_tables, n_planes = planes.shape[0], planes.shape[1]
    powers = (1 << np.arange(n_planes)).astype(np.int64)

    def band(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        mat = _matrix(batch)
        n = len(ids)
        if n == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int32()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["table", "bucket", "vec_id"])
        signs = np.einsum("nd,tpd->ntp", mat, planes) > 0   # (n, T, P)
        keys = signs.astype(np.int64) @ powers               # (n, T)
        return pa.Table.from_arrays(
            [pa.array(np.tile(np.arange(n_tables, dtype=np.int32), n)),
             pa.array(keys.reshape(-1)),
             pa.array(np.repeat(ids, n_tables))],
            names=["table", "bucket", "vec_id"])

    return band


def _candidate_pairs_in_cell(group: pa.Table) -> pa.Table:
    """All (a < b) id pairs within one (table, bucket) cell —
    vectorized triu emission, no embeddings."""
    ids = np.unique(group.column("vec_id").to_numpy(zero_copy_only=False))
    if len(ids) < 2:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["left_id", "right_id"])
    i, j = np.triu_indices(len(ids), k=1)
    return pa.Table.from_arrays(
        [pa.array(ids[i].astype(np.int64)),
         pa.array(ids[j].astype(np.int64))],
        names=["left_id", "right_id"])


def _unit_rows(batch: pa.Table) -> pa.Table:
    """(vec_id, emb): each embedding scaled to unit length."""
    mat = _matrix(batch)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return pa.Table.from_arrays(
        [batch.column("vec_id").cast(pa.int64()),
         pa.array(list(mat / norms), pa.list_(pa.float64()))],
        names=["vec_id", "emb"])


def _pair_cosine(batch: pa.Table) -> pa.Table:
    """(left_id, right_id, sim): the float64 dot product of each pair's
    attached unit vectors."""
    sims = np.einsum("ij,ij->i", _matrix(batch, "left_emb"),
                     _matrix(batch, "right_emb"))
    return pa.Table.from_arrays(
        [batch.column("left_id").cast(pa.int64()),
         batch.column("right_id").cast(pa.int64()),
         pa.array(sims, pa.float64())],
        names=["left_id", "right_id", "sim"])


def _pair_cosine_join(pairs, ds):
    """(left_id, right_id) ⋈ embeddings → (left_id, right_id, sim): both
    members' unit vectors attached by ``exchange.join`` (bucketed: the
    embeddings have no free row count here), then one map computes the
    dot products.  A pair with a missing vector drops."""
    units = ds.map_batches(_unit_rows, batch_format="pyarrow",
                           zero_copy_batch=True)
    for side in ("left", "right"):
        pairs = join(pairs, units, f"{side}_id", right_on="vec_id",
                     attach={"emb": f"{side}_emb"})
    return pairs.map_batches(_pair_cosine, batch_format="pyarrow",
                             zero_copy_batch=True)


def _lsh_band_emb_fn(planes: np.ndarray):
    """Vectorized band-row emission WITH the (normalized) embedding
    riding each row — used by the in-bucket verify plan, where each
    cell verifies its own candidates locally."""
    n_tables, n_planes = planes.shape[0], planes.shape[1]
    powers = (1 << np.arange(n_planes)).astype(np.int64)

    def band(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        mat = _matrix(batch)
        n = len(ids)
        if n == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int32()), pa.array([], pa.int64()),
                 pa.array([], pa.int64()),
                 pa.array([], pa.list_(pa.float64()))],
                names=["table", "bucket", "vec_id", "emb"])
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        nmat = mat / norms
        signs = np.einsum("nd,tpd->ntp", mat, planes) > 0   # (n, T, P)
        keys = signs.astype(np.int64) @ powers               # (n, T)
        rep = np.repeat(nmat, n_tables, axis=0)              # id-major
        return pa.Table.from_arrays(
            [pa.array(np.tile(np.arange(n_tables, dtype=np.int32), n)),
             pa.array(keys.reshape(-1)),
             pa.array(np.repeat(ids, n_tables)),
             pa.array(list(rep), pa.list_(pa.float64()))],
            names=["table", "bucket", "vec_id", "emb"])

    return band


def _resolve_lsh_verify(verify: str, n_planes: int) -> str:
    """'auto' plan choice by bucket sharpness: with few planes the
    cells are coarse and candidate pairs ≈ n²/2^n_planes ≫ n — ship
    the vector with its band rows and verify locally (matmul per
    cell).  With sharp buckets (n_planes ≥ 10, the production
    near-dup regime) candidates ≈ true dups — id-only band rows plus
    ONE embedding join shuffle ~n_tables× fewer bytes."""
    if verify == "auto":
        return "join" if n_planes >= 10 else "inbucket"
    if verify not in ("join", "inbucket"):
        raise ValueError(f"verify must be auto|join|inbucket, "
                         f"got {verify!r}")
    return verify


def lsh_cosine_dup_pairs(ds, threshold: float = 0.4, n_planes: int = 5,
                         n_tables: int = 8, dim: int = 64,
                         verify: str = "auto"):
    """Scale path for cosine near-dup: random-hyperplane LSH.

    Each of ``n_tables`` tables hashes a vector to the sign pattern of
    ``n_planes`` fixed (seeded) hyperplanes; candidate pairs share a
    bucket in ≥1 table; candidates are verified by exact cosine.  Both
    verify plans produce the IDENTICAL pair set (a subset of the exact
    ``cosine_dup_pairs`` output); see ``_resolve_lsh_verify`` for the
    plan-choice rationale — coarse buckets verify in-cell (vectorized
    matmul), sharp buckets use id-only band rows + one embedding join.

    Tuning: per-plane sign-agreement prob is 1-θ/π, so per-table recall
    is (1-θ/π)^n_planes.  The defaults (5 planes × 8 tables) target the
    hard moderate-similarity regime (cos≈0.4 → ~0.57 recall); for the
    usual near-dup regime (cos ≥ 0.9 → 1-θ/π ≈ 0.86) raise n_planes to
    12-16 for sharper buckets at virtually no recall cost.
    """
    rng = np.random.RandomState(987)
    planes = rng.normal(size=(n_tables, n_planes, dim))

    if _resolve_lsh_verify(verify, n_planes) == "join":
        bucketed = ds.map_batches(_lsh_band_fn(planes),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
        cand = bucketed.groupby(["table", "bucket"]).map_groups(
            _candidate_pairs_in_cell, batch_format="pyarrow")
        uniq = aggregate(cand, ["left_id", "right_id"], ("count",)) \
            .drop_columns(["count()"])
        verified = _pair_cosine_join(uniq, ds)

        def keep(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            kept = batch.filter(
                pc.greater_equal(batch.column("sim"), threshold))
            return pa.Table.from_arrays(
                [kept.column("left_id"), kept.column("right_id")],
                names=["left_id", "right_id"])

        return verified.map_batches(keep, batch_format="pyarrow",
                                    zero_copy_batch=True)

    def pairs_in_cell(group: pa.Table) -> pa.Table:
        """Vectorized in-cell verify: one matmul of the cell's
        normalized vectors, triu mask at the threshold, canonical
        (min,max) pair emission."""
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        if len(ids) < 2:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["left_id", "right_id"])
        # a cell sees each vector once per (table,bucket); ids unique
        mat = _matrix(group, "emb")
        sims = mat @ mat.T
        iu, ju = np.triu_indices(len(ids), k=1)
        hit = sims[iu, ju] >= threshold
        a, b = ids[iu[hit]], ids[ju[hit]]
        left, right = np.minimum(a, b), np.maximum(a, b)
        return pa.Table.from_arrays(
            [pa.array(left.astype(np.int64)),
             pa.array(right.astype(np.int64))],
            names=["left_id", "right_id"])

    bucketed = ds.map_batches(_lsh_band_emb_fn(planes),
                              batch_format="pyarrow",
                              zero_copy_batch=True)
    # (table, bucket) cells are a CONSTANT n_tables × 2^n_planes groups
    pairs = bucketed.groupby(["table", "bucket"]).map_groups(
        pairs_in_cell, batch_format="pyarrow")
    uniq = aggregate(pairs, ["left_id", "right_id"], ("count",))
    return uniq.drop_columns(["count()"])


def lsh_nearest_neighbor_ids(ds, n_planes: int = 5, n_tables: int = 8,
                             dim: int = 64, verify: str = "auto"):
    """Approximate (vec_id, nn_id) at scale: per-vector best co-bucketed
    neighbor (max cosine, ties → min nn_id) across all LSH tables;
    vectors that share no bucket with anyone get nn_id = -1 (documented
    miss marker).  No broadcast table.

    Plan choice mirrors lsh_cosine_dup_pairs (``_resolve_lsh_verify``):
    coarse buckets compute per-cell best partials locally (embedding
    rides the band shuffle, vectorized matmul + masked argmin per
    cell); sharp buckets ship id-only band rows, join embeddings once
    for pair cosines, and reduce both pair directions.  Both plans
    give the identical answer — best over the union of co-bucketed
    neighbors = best of the per-cell bests."""
    rng = np.random.RandomState(987)
    planes = rng.normal(size=(n_tables, n_planes, dim))
    plan = _resolve_lsh_verify(verify, n_planes)

    def best_in_cell(group: pa.Table) -> pa.Table:
        """Vectorized per-cell best neighbor: one matmul, -inf diag,
        row max; ties resolved to the min id among the argmax set."""
        ids = group.column("vec_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(ids) < 2:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.float64())],
                names=["vec_id", "nn_id", "sim"])
        mat = _matrix(group, "emb")
        sims = mat @ mat.T
        np.fill_diagonal(sims, -np.inf)
        best = sims.max(axis=1)
        tied = sims == best[:, None]
        nn = np.where(tied, ids[None, :],
                      np.iinfo(np.int64).max).min(axis=1)
        return pa.Table.from_arrays(
            [pa.array(ids), pa.array(nn.astype(np.int64)),
             pa.array(best, pa.float64())],
            names=["vec_id", "nn_id", "sim"])

    if plan == "inbucket":
        bucketed = ds.map_batches(_lsh_band_emb_fn(planes),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
        sims = bucketed.groupby(["table", "bucket"]).map_groups(
            best_in_cell, batch_format="pyarrow")
    else:
        bucketed = ds.map_batches(_lsh_band_fn(planes),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
        cand = bucketed.groupby(["table", "bucket"]).map_groups(
            _candidate_pairs_in_cell, batch_format="pyarrow")
        uniq = aggregate(cand, ["left_id", "right_id"], ("count",)) \
            .drop_columns(["count()"])
        sims = _pair_cosine_join(uniq, ds)

    def both_directions(batch: pa.Table) -> pa.Table:
        lids = batch.column("left_id").to_numpy(zero_copy_only=False)
        rids = batch.column("right_id").to_numpy(zero_copy_only=False)
        s = batch.column("sim").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(np.concatenate([lids, rids]).astype(np.int64)),
             pa.array(np.concatenate([rids, lids]).astype(np.int64)),
             pa.array(np.concatenate([s, s]), pa.float64())],
            names=["vec_id", "nn_id", "sim"])

    def fallback(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.Table.from_arrays(
            [batch.column("vec_id").cast(pa.int64()),
             pa.array(np.full(n, -1, dtype=np.int64)),
             pa.array(np.full(n, -np.inf))],
            names=["vec_id", "nn_id", "sim"])

    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.append_column("key", pa.array(_ibucket(ids)))

    def pick_best(group: pa.Table) -> pa.Table:
        """Vectorized in-bucket reduce: per vec_id keep (max sim, min
        nn_id) via lexsort + first-occurrence."""
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        nns = group.column("nn_id").to_numpy(zero_copy_only=False)
        sims = group.column("sim").to_numpy(zero_copy_only=False)
        order = np.lexsort((nns, -sims, ids))
        ids, nns = ids[order], nns[order]
        uniq, first = np.unique(ids, return_index=True)
        return pa.Table.from_arrays(
            [pa.array(uniq.astype(np.int64)),
             pa.array(nns[first].astype(np.int64))],
            names=["vec_id", "nn_id"])

    if plan == "join":
        # pair rows carry each direction once; expand to per-vector rows
        sims = sims.map_batches(both_directions, batch_format="pyarrow",
                                zero_copy_batch=True)
    partials = sims.union(
        ds.select_columns(["vec_id"]).map_batches(
            fallback, batch_format="pyarrow", zero_copy_batch=True))
    keyed = partials.map_batches(add_key, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return keyed.groupby("key").map_groups(
        pick_best, batch_format="pyarrow")


def dedup_apply_embeddings(ds, threshold: float = 0.4,
                           checkpoint_dir: str | None = None):
    """Corpus-level embedding near-dup REMOVAL: LSH cosine pairs →
    distributed connected components → keep the min-vec_id
    representative of each cluster, through dedup.dedup_apply's
    survivor step (``cc_survivors``).  ``checkpoint_dir`` makes the CC
    rounds resumable (see dedup.connected_components).  Returns
    surviving (vec_id, label) rows."""
    return cc_survivors(ds.select_columns(["vec_id", "label"]),
                        lsh_cosine_dup_pairs(ds, threshold), "vec_id",
                        checkpoint_dir)


def nearest_neighbor_ids(ds, exact_max_rows: int = EXACT_MAX_ROWS,
                         method: str = "auto",
                         sim_quantum: float | None = None):
    """(vec_id, nn_id): exact nearest neighbor of every vector — the
    id-only output the SQL cross-join oracle can replicate.

    ``method='auto'`` stays exact up to ``exact_max_rows`` rows and
    routes larger inputs to ``lsh_nearest_neighbor_ids`` (bucketed, no
    broadcast, approximate — including nn_id=-1 bucket-miss sentinels)
    with an explicit warning; 'exact'/'lsh' force a path.

    ``sim_quantum`` (e.g. 1e-12): round similarities to that grid
    before the argmax, so last-ulp differences from BLAS summation
    order can never flip the winner — required when distinct vectors
    can have near-identical cosines (the hash-embedding composition);
    ties on the grid resolve to the smallest id."""
    import ray

    if _route_exact_or_lsh(ds, method, exact_max_rows,
                           "nearest_neighbor_ids") == "lsh":
        return lsh_nearest_neighbor_ids(ds)
    rows = ds.select_columns(["vec_id", "embedding"]).take_all()
    all_ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    all_mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    all_mat = all_mat / np.linalg.norm(all_mat, axis=1, keepdims=True)
    ref = ray.put((all_ids, all_mat))

    class NN:
        def __init__(self, r):
            self.ids, self.mat = ray.get(r)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            m = _matrix(batch)
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            sims = m @ self.mat.T
            if sim_quantum:
                sims = np.floor(sims / sim_quantum + 0.5)
            out = []
            for i, a in enumerate(ids):
                s = sims[i].copy()
                s[self.ids == a] = -np.inf
                # max sim; ties → smallest id (matches oracle ORDER BY)
                best = np.max(s)
                cand = self.ids[s == best]
                out.append(int(cand.min()))
            return pa.Table.from_arrays(
                [pa.array(ids, pa.int64()), pa.array(out, pa.int64())],
                names=["vec_id", "nn_id"])

    return ds.map_batches(
        NN, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 4), fn_constructor_args=(ref,))


CENTROID_SCALE = 10**9


def label_centroids(ds, scale: int = CENTROID_SCALE):
    """(label, dim, sum_fp, n): per-label embedding centroid in
    fixed-point — sum of round(v * scale) per dimension plus the member
    count (consumers divide; the mean itself would be float and
    summation-order-dependent, the int64 sums are exact and
    order-invariant — same trick as the distributed IVF k-means fit).

    Combiner shape: each batch reduces to (labels-in-batch × dim) rows
    via one np.add.at, then a sum aggregate — the shuffle ships
    per-batch partial centroids, never embeddings."""

    def partial(batch: pa.Table) -> pa.Table:
        lab = batch.column("label").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        x = _matrix(batch) * float(scale)
        # DuckDB round(): half away from zero, both signs
        fp = np.where(x >= 0, np.floor(x + 0.5),
                      np.ceil(x - 0.5)).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        d = fp.shape[1]
        sums = np.zeros((len(uniq), d), dtype=np.int64)
        np.add.at(sums, inv, fp)
        counts = np.bincount(inv).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(np.repeat(uniq, d)),
             pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64),
                              len(uniq))),
             pa.array(sums.ravel()),
             pa.array(np.repeat(counts, d))],
            names=["label", "dim", "sum_fp", "n"])

    summed = aggregate(
        ds.select_columns(["label", "embedding"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["label", "dim"], ("sum", "sum_fp"), ("sum", "n"))
    return summed.map_batches(
        lambda b: b.rename_columns(["label", "dim", "sum_fp", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)


def quantize_embeddings(ds):
    """(vec_id, scale_fp, sum_absq): per-vector int8 symmetric
    quantization summary — the embedding-compression step of a vector
    pipeline (store int8 codes + one scale per vector, 4x smaller than
    float32).  scale_fp = floor(max|x| * 1e9 + 0.5) fixes the scale as
    an integer; sum_absq = Σ|q_i| with q_i = floor(|x_i| * 127 / max|x|
    + 0.5) summarizes the code magnitudes.

    Pure per-batch map, no shuffle.  Every arithmetic step (abs, one
    multiply, one divide, +0.5, floor — positive domain) is replayed by
    the SQL oracle in the same IEEE order, so the integers match
    bit-for-bit; all-zero vectors quantize to zeros on both sides."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").cast(pa.int64())
        mat = np.abs(_matrix(batch))
        if mat.size == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["vec_id", "scale_fp", "sum_absq"])
        mx = mat.max(axis=1)
        scale_fp = np.floor(mx * 1e9 + 0.5).astype(np.int64)
        safe = np.where(mx > 0, mx, 1.0)
        q = np.floor(mat * 127.0 / safe[:, None] + 0.5) \
            .astype(np.int64)
        q[mx == 0] = 0
        return pa.Table.from_arrays(
            [ids, pa.array(scale_fp), pa.array(q.sum(axis=1))],
            names=["vec_id", "scale_fp", "sum_absq"])

    return ds.select_columns(["vec_id", "embedding"]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------
# SemDeDup: semantic dedup via k-means cells (Abbas et al. 2023)
# --------------------------------------------------------------------------
# Candidate generation by k-means CLUSTER instead of LSH bucket: pairs
# are searched only within a centroid cell, and each duplicate group
# keeps the member LEAST similar to its cluster centroid (the paper's
# keep-rule — it preserves the cluster's outlier, pruning the redundant
# core).  Complements lsh_cosine_dup_pairs / dedup_apply_embeddings:
# same verify/CC/anti-join machinery, different (published) candidate
# geometry and survivor rule.  Cross-cluster duplicates are missed by
# construction — that is the method's documented recall tradeoff.
#
# 100 TB shape: the k-means fit ships fixed-point int64 partial sums
# (order-invariant, kmeans_fit_distributed); the pair search is one
# groupby over ``nlist`` cells with an in-cell matmul — size nlist so
# cells stay ~10³-10⁴ vectors (the paper uses ~10⁵ clusters at
# billion-doc scale), exactly the IVF cell-sizing rule.

CENT_SIM_SCALE = 10**12


def _semdedup_assign_fn(cents: np.ndarray):
    """Per-batch assign: (cluster, vec_id, emb[normalized],
    cent_sim_fp).  cent_sim_fp = rint(cos(vec, its centroid) · 1e12) —
    a per-row pure function of (vector, centroids), so it is identical
    under any blocking."""
    import ray

    cref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        mat = _matrix(batch)
        a = _assign_clusters(mat, c)
        vn = np.linalg.norm(mat, axis=1, keepdims=True)
        vn[vn == 0] = 1.0
        normv = mat / vn
        cn = np.linalg.norm(c, axis=1, keepdims=True)
        cn[cn == 0] = 1.0
        centn = c / cn
        sim = (normv * centn[a]).sum(axis=1)
        return pa.Table.from_arrays(
            [pa.array(a.astype(np.int64)),
             batch.column("vec_id").cast(pa.int64()),
             pa.array(normv.tolist(), pa.list_(pa.float64())),
             pa.array(np.rint(sim * CENT_SIM_SCALE).astype(np.int64))],
            names=["cluster", "vec_id", "emb", "cent_sim_fp"])

    return assign


def _cell_pairs_fn(threshold: float):
    def pairs_in_cell(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        if len(ids) < 2:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["left_id", "right_id"])
        mat = _matrix(group, "emb")
        sims = mat @ mat.T
        iu, ju = np.triu_indices(len(ids), k=1)
        hit = sims[iu, ju] >= threshold
        a, b = ids[iu[hit]], ids[ju[hit]]
        return pa.Table.from_arrays(
            [pa.array(np.minimum(a, b).astype(np.int64)),
             pa.array(np.maximum(a, b).astype(np.int64))],
            names=["left_id", "right_id"])

    return pairs_in_cell


def semdedup_pairs(ds, nlist: int = 16, threshold: float = 0.4,
                   iters: int = 5, centroids: np.ndarray | None = None):
    """Within-cluster cosine-duplicate pairs (left_id < right_id).
    A deterministic subset of ``cosine_dup_pairs`` at the same
    threshold (pinned by tests); ``centroids`` accepts a persisted IVF
    index (ivf_load_index) for the build-once/query-many lifecycle."""
    cents = (kmeans_fit_distributed(ds, nlist, iters)
             if centroids is None else centroids)
    assigned = ds.map_batches(_semdedup_assign_fn(cents),
                              batch_format="pyarrow",
                              zero_copy_batch=True)
    return assigned.groupby("cluster").map_groups(
        _cell_pairs_fn(threshold), batch_format="pyarrow")


def semdedup_apply(ds, nlist: int = 16, threshold: float = 0.4,
                   iters: int = 5, checkpoint_dir: str | None = None,
                   centroids: np.ndarray | None = None):
    """SemDeDup REMOVAL: within-cluster pairs → connected components →
    keep the member with the LOWEST centroid similarity per duplicate
    group (tie → min vec_id).  Returns surviving (vec_id, label) rows
    (label = the embedding table's class column, as in
    dedup_apply_embeddings).  ``centroids`` accepts a persisted IVF
    index (ivf_load_index) — the fit is deterministic fixed-point, so
    the loaded index is bit-identical to an inline fit and the result
    is unchanged (build-once/query-many).

    Survivor selection is two bucketed exchanges over dup-group members
    only: CC labels join their cent_sim_fp in hash(node) buckets, then
    per-label argmin in hash(label) buckets — never the corpus."""
    cents = (kmeans_fit_distributed(ds, nlist, iters)
             if centroids is None else centroids)
    assign = _semdedup_assign_fn(cents)
    assigned = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)
    pairs = assigned.groupby("cluster").map_groups(
        _cell_pairs_fn(threshold), batch_format="pyarrow")
    labels = connected_components(pairs, checkpoint_dir=checkpoint_dir)

    # exchange 1: member rows meet their cent_sim in hash(node) buckets
    def lab_emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("node").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ids)), pa.array(ids.astype(np.int64)),
             batch.column("label").cast(pa.int64()),
             pa.array(np.zeros(len(ids), dtype=np.int64)),
             pa.array(np.ones(len(ids), dtype=np.int8))],
            names=["key", "node", "cc", "sim", "is_member"])

    def sim_emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ids)), pa.array(ids.astype(np.int64)),
             pa.array(np.zeros(len(ids), dtype=np.int64)),
             batch.column("cent_sim_fp").cast(pa.int64()),
             pa.array(np.zeros(len(ids), dtype=np.int8))],
            names=["key", "node", "cc", "sim", "is_member"])

    def join_sim(group: pa.Table) -> pa.Table:
        mem = group.column("is_member").to_numpy(zero_copy_only=False)
        node = group.column("node").to_numpy(zero_copy_only=False)
        cc = group.column("cc").to_numpy(zero_copy_only=False)
        sim = group.column("sim").to_numpy(zero_copy_only=False)
        lut_ids, lut_sim = node[mem == 0], sim[mem == 0]
        order = np.argsort(lut_ids, kind="stable")
        pos = np.searchsorted(lut_ids[order], node[mem == 1])
        msim = lut_sim[order][pos]
        return pa.Table.from_arrays(
            [pa.array(_ibucket(cc[mem == 1])),
             pa.array(node[mem == 1].astype(np.int64)),
             pa.array(cc[mem == 1].astype(np.int64)),
             pa.array(msim.astype(np.int64))],
            names=["key", "node", "cc", "sim"])

    members = assigned.select_columns(
        ["vec_id", "cent_sim_fp"]).map_batches(
        sim_emit, batch_format="pyarrow", zero_copy_batch=True).union(
        labels.map_batches(lab_emit, batch_format="pyarrow",
                           zero_copy_batch=True)) \
        .groupby("key").map_groups(join_sim, batch_format="pyarrow")

    # exchange 2: per CC group, survivor = argmin (sim, node)
    def drops_of_group(group: pa.Table) -> pa.Table:
        node = group.column("node").to_numpy(zero_copy_only=False)
        cc = group.column("cc").to_numpy(zero_copy_only=False)
        sim = group.column("sim").to_numpy(zero_copy_only=False)
        order = np.lexsort((node, sim, cc))
        cs = cc[order]
        first = np.empty(len(cs), dtype=bool)
        if len(first):
            first[0] = True
            first[1:] = cs[1:] != cs[:-1]
        dropped = node[order][~first]
        return pa.Table.from_arrays(
            [pa.array(_ibucket(dropped)),
             pa.array(dropped.astype(np.int64)),
             pa.array(np.zeros(len(dropped), dtype=np.int64)),
             pa.array(np.ones(len(dropped), dtype=np.int8))],
            names=["key", "vec_id", "label", "is_drop"])

    drops = members.groupby("key").map_groups(
        drops_of_group, batch_format="pyarrow")

    def vec_emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ids)), pa.array(ids),
             batch.column("label").cast(pa.int64()),
             pa.array(np.zeros(len(ids), dtype=np.int8))],
            names=["key", "vec_id", "label", "is_drop"])

    def keep(group: pa.Table) -> pa.Table:
        is_drop = group.column("is_drop").to_numpy(zero_copy_only=False)
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        mask = (is_drop == 0) & ~np.isin(ids, ids[is_drop == 1])
        kept = group.filter(pa.array(mask))
        return pa.Table.from_arrays(
            [kept.column("vec_id"), kept.column("label")],
            names=["vec_id", "label"])

    u = ds.select_columns(["vec_id", "label"]).map_batches(
        vec_emit, batch_format="pyarrow", zero_copy_batch=True).union(
        drops.select_columns(["key", "vec_id", "label", "is_drop"]))
    return u.groupby("key").map_groups(keep, batch_format="pyarrow")


def centroid_classify(ds, scale: int = CENTROID_SCALE,
                      sim_quantum: float = 1e-12):
    """(label, pred_label, n): nearest-centroid classification confusion
    matrix — every vector is assigned to the label whose centroid has
    the max cosine, then (true, predicted) pairs are counted.  The
    label-quality audit an embedding pipeline runs before trusting its
    labels (off-diagonal mass = mislabeled or overlapping classes).

    Scale shape: the centroid fit is label_centroids' combiner (the
    shuffle ships per-batch partial centroid sums, never embeddings);
    the constant-size (labels × dim) table materializes once on the
    driver, the derived unit matrix broadcasts via ray.put, and
    classification is one matmul per batch feeding an integer
    confusion combiner.  Determinism: centroid means derive from EXACT
    int64 fixed-point sums (order-invariant), and similarities are
    quantized to ``sim_quantum`` before the argmax so BLAS summation
    order can never flip a winner; grid ties resolve to the smallest
    label."""
    import ray

    cents = label_centroids(ds, scale).take_all()   # labels×dim rows
    labs = sorted({r["label"] for r in cents})
    lab_ix = {l: i for i, l in enumerate(labs)}
    dim = max(r["dim"] for r in cents)
    C = np.zeros((len(labs), dim), dtype=np.float64)
    for r in cents:
        C[lab_ix[r["label"]], r["dim"] - 1] = \
            r["sum_fp"] / (r["n"] * scale)
    C = C / np.linalg.norm(C, axis=1, keepdims=True)
    ref = ray.put((np.array(labs, dtype=np.int64), C))

    class Classify:
        def __init__(self, r):
            self.labs, self.C = ray.get(r)

        def __call__(self, batch: pa.Table) -> pa.Table:
            true = batch.column("label").cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            m = _matrix(batch)
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            sims = np.floor(m @ self.C.T / sim_quantum + 0.5)
            # argmax with ties → smallest label: labs is sorted asc and
            # np.argmax returns the FIRST maximal index
            pred = self.labs[np.argmax(sims, axis=1)]
            pair = true * (self.labs.max() + 1) + pred
            vals, counts = np.unique(pair, return_counts=True)
            base = self.labs.max() + 1
            return pa.Table.from_arrays(
                [pa.array(vals // base), pa.array(vals % base),
                 pa.array(counts.astype(np.int64))],
                names=["label", "pred_label", "n"])

    partials = ds.select_columns(["vec_id", "label", "embedding"]) \
        .map_batches(Classify, batch_format="pyarrow",
                     zero_copy_batch=True, concurrency=(1, 4),
                     fn_constructor_args=(ref,))
    summed = aggregate(partials, ["label", "pred_label"], ("sum", "n"))
    return summed.map_batches(
        lambda b: b.rename_columns(["label", "pred_label", "n"]),
        batch_format="pyarrow", zero_copy_batch=True)


# -- product quantization (PQ) ------------------------------------------------


def pq_fit_distributed(ds, m: int = 8, ksub: int = 16,
                       iters: int = 5) -> np.ndarray:
    """Distributed product-quantization codebook fit: the embedding
    dimension splits into ``m`` contiguous subspaces and each learns
    its own ``ksub``-centroid k-means — ALL subspaces in ONE
    map_batches pass per iteration (one corpus scan trains every
    sub-quantizer, not m of them).

    Same determinism contract as `kmeans_fit_distributed`: seeds are
    the vectors at evenly spaced vec_ids (no RNG), per-iteration
    partials are fixed-point int64 sums (KMEANS_SCALE), so integer
    addition makes the reduce order-invariant and the codebook
    bit-identical regardless of block boundaries or parallelism.
    Returns float64 centroids of shape (m, ksub, dim // m).

    Scale rationale: PQ compresses a dim-D float corpus to m uint8
    codes per vector (64 × 4 B → 8 B at the defaults) — the memory
    path that lets a 10^12-vector index live in cluster RAM; only
    codebook-sized data (m × ksub × dsub per block) reaches the
    driver."""
    import ray

    from ray.data.aggregate import Max

    max_id = ds.select_columns(["vec_id"]).aggregate(
        Max("vec_id"))["max(vec_id)"]
    seed_ids = sorted(set(int(i) for i in
                          np.linspace(0, max_id, ksub).astype(int)))
    seeds = ds.filter(
        expr=" or ".join(f"vec_id == {i}" for i in seed_ids)) \
        .select_columns(["vec_id", "embedding"]).take_all()
    seeds.sort(key=lambda r: r["vec_id"])
    seed_mat = np.array([r["embedding"] for r in seeds],
                        dtype=np.float64)
    ksub = len(seed_mat)
    dim = seed_mat.shape[1]
    assert dim % m == 0, f"dim {dim} not divisible by m={m}"
    dsub = dim // m
    # subspace s's init = the s-th slice of every seed vector
    cents = np.stack([seed_mat[:, s * dsub:(s + 1) * dsub]
                      for s in range(m)])        # (m, ksub, dsub)

    for _ in range(iters):
        cref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            mat = _matrix(batch)
            rows = []
            for s in range(m):
                sub = mat[:, s * dsub:(s + 1) * dsub]
                assign = _assign_clusters(sub, c[s])
                q = np.rint(sub * KMEANS_SCALE).astype(np.int64)
                sums = np.zeros((ksub, dsub), dtype=np.int64)
                np.add.at(sums, assign, q)
                counts = np.bincount(assign, minlength=ksub) \
                    .astype(np.int64)
                rows.append((s, counts, sums))
            return pa.Table.from_arrays(
                [pa.array(np.repeat([r[0] for r in rows], ksub)
                          .astype(np.int64)),
                 pa.array(np.tile(np.arange(ksub, dtype=np.int64), m)),
                 pa.array(np.concatenate([r[1] for r in rows])),
                 pa.array(np.concatenate(
                     [r[2] for r in rows]).tolist(),
                     pa.list_(pa.int64()))],
                names=["sub", "cluster", "count", "sum_fp"])

        parts = ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
        tot = np.zeros((m, ksub, dsub), dtype=np.int64)
        cnt = np.zeros((m, ksub), dtype=np.int64)
        for row in parts:                 # m × ksub × n_blocks tiny rows
            tot[row["sub"], row["cluster"]] += np.asarray(
                row["sum_fp"], dtype=np.int64)
            cnt[row["sub"], row["cluster"]] += row["count"]
        new = cents.copy()
        nz = cnt > 0
        new[nz] = (tot[nz] / KMEANS_SCALE) / cnt[nz][:, None]
        cents = new
    return cents


def pq_build_index(ds, path: str, m: int = 8, ksub: int = 16,
                   iters: int = 5) -> np.ndarray:
    """Fit the PQ codebook and persist it as a tiny parquet — the
    build-once/query-many lifecycle of ivf_build_index (atomic
    last-wins publish for concurrent builders)."""
    import pyarrow.parquet as pq

    cents = pq_fit_distributed(ds, m=m, ksub=ksub, iters=iters)
    mm, kk, dsub = cents.shape
    table = pa.Table.from_arrays(
        [pa.array(np.repeat(np.arange(mm, dtype=np.int64), kk)),
         pa.array(np.tile(np.arange(kk, dtype=np.int64), mm)),
         pa.array(cents.reshape(mm * kk, dsub).tolist(),
                  pa.list_(pa.float64()))],
        names=["sub", "cluster", "centroid"])
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return cents


def pq_load_index(path: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(path).sort_by([("sub", "ascending"),
                                     ("cluster", "ascending")])
    mm = int(t.column("sub")[-1].as_py()) + 1
    kk = t.num_rows // mm
    col = t.column("centroid").combine_chunks()
    return np.asarray(col.flatten(), dtype=np.float64) \
        .reshape(mm, kk, -1)


def knn_pq(ds, query: np.ndarray, k: int = 10, m: int = 8,
           ksub: int = 16, exclude_id: int | None = 0,
           index_path: str | None = None):
    """PQ approximate top-k by asymmetric distance (ADC): each vector
    is encoded as m sub-centroid codes; its distance to the query is
    Σ_s ||q_s − C[s, code_s]||², looked up from an m × ksub table
    computed ONCE from the codebook — per-batch work is an integer
    gather + sum, never a full-dimension distance.  Output:
    (vec_id, label), ascending ADC distance, ties → min vec_id.

    The per-batch partial keeps only its local top-k, so the global
    sort sees ≤ k × n_blocks rows at any corpus size.  Pass
    ``index_path`` (from pq_build_index) to skip the fit."""
    import ray

    if index_path is not None:
        cents = pq_load_index(index_path)
    else:
        cents = pq_fit_distributed(ds, m=m, ksub=ksub)
    mm, kk, dsub = cents.shape
    # ADC lookup table: T[s, j] = ||q_s - C[s, j]||^2
    qsub = query.reshape(mm, dsub)
    table = ((cents - qsub[:, None, :]) ** 2).sum(axis=2)
    cref = ray.put((cents, table))

    class AdcTopK:
        def __init__(self, ref, k):
            self.cents, self.table = ray.get(ref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _matrix(batch)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            labels = batch.column("label").to_numpy(
                zero_copy_only=False)
            if exclude_id is not None:
                keep = ids != exclude_id
                mat, ids, labels = mat[keep], ids[keep], labels[keep]
            if not len(ids):
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int32()),
                     pa.array([], pa.float64())],
                    names=["vec_id", "label", "dist"])
            dist = np.zeros(len(ids), dtype=np.float64)
            for s in range(self.cents.shape[0]):
                sub = mat[:, s * dsub:(s + 1) * dsub]
                codes = _assign_clusters(sub, self.cents[s])
                dist += self.table[s][codes]
            order = np.lexsort((ids, dist))[:self.k]
            return pa.Table.from_arrays(
                [pa.array(ids[order], pa.int64()),
                 pa.array(labels[order], pa.int32()),
                 pa.array(dist[order], pa.float64())],
                names=["vec_id", "label", "dist"])

    partial = ds.map_batches(
        AdcTopK, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 4), fn_constructor_args=(cref, k))
    top = partial.sort(["dist", "vec_id"])
    return top.limit(k).drop_columns(["dist"])


def kcenter_select(ds, k: int = 8):
    """(rank, vec_id, dist_micro): a greedy k-center (farthest-point)
    coreset — the diversity-maximizing subset selection behind "pick k
    maximally-different exemplars" training-data curation (Gonzalez's
    2-approximation to the k-center objective).  Deterministic: seed =
    smallest vec_id, each step adds the point FARTHEST from its nearest
    already-chosen center (squared-L2, quantized to integer micros
    before every comparison; ties to the smallest vec_id), and
    dist_micro records that coverage radius at selection time.

    Scale shape: k streaming argmax passes, nothing corpus-sized moves —
    the centers matrix (k × dim, constant) broadcasts via ray.put; each
    pass is a vectorized blockwise (n_block × k) distance matmul whose
    per-block reduction emits ONE (dist, id, embedding) candidate row,
    so the driver merges #blocks rows per round and learns the winner's
    embedding from the partial itself (no lookup pass).  Re-scanning
    per round costs k passes total; a 100-TB run would persist the
    running nearest-distance column between rounds instead — same
    recurrence, one pass amortized per round."""
    import ray

    first = ds.select_columns(["vec_id"]).min("vec_id")
    c0 = int(first)

    def fetch_seed(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids == c0))

    seed = ds.select_columns(["vec_id", "embedding"]).map_batches(
        fetch_seed, batch_format="pyarrow",
        zero_copy_batch=True).take_all()
    centers = [(c0, np.asarray(seed[0]["embedding"], dtype=np.float64))]
    out = [(0, c0, 0)]

    for rank in range(1, k):
        cmat = np.stack([c for _, c in centers])
        ref = ray.put(cmat)

        def block_best(batch: pa.Table, *, _ref=ref) -> pa.Table:
            cm = _ref if isinstance(_ref, np.ndarray) else ray.get(_ref)
            x = _matrix(batch)
            if x.shape[0] == 0:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int64()),
                     pa.array([], pa.list_(pa.float64()))],
                    names=["dist_micro", "vec_id", "embedding"])
            # squared L2 to every center; micros BEFORE min/argmax so
            # every comparison is integer (blocking-invariant)
            d2 = ((x[:, None, :] - cm[None, :, :]) ** 2).sum(axis=2)
            dmi = np.floor(d2 * 1_000_000.0 + 0.5).astype(np.int64)
            nearest = dmi.min(axis=1)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, -nearest))
            b = order[0]
            return pa.Table.from_arrays(
                [pa.array([nearest[b]]), pa.array([int(ids[b])]),
                 pa.array([x[b].tolist()], pa.list_(pa.float64()))],
                names=["dist_micro", "vec_id", "embedding"])

        cands = ds.select_columns(["vec_id", "embedding"]).map_batches(
            block_best, batch_format="pyarrow",
            zero_copy_batch=True).take_all()
        best = min(cands, key=lambda r: (-r["dist_micro"], r["vec_id"]))
        centers.append((int(best["vec_id"]),
                        np.asarray(best["embedding"], dtype=np.float64)))
        out.append((rank, int(best["vec_id"]),
                    int(best["dist_micro"])))

    return pa.table({
        "rank": pa.array([r for r, _, _ in out], pa.int64()),
        "vec_id": pa.array([v for _, v, _ in out], pa.int64()),
        "dist_micro": pa.array([d for _, _, d in out], pa.int64())})


def semantic_decontaminate(corpus_ds, bench_ds, threshold: float = 0.95):
    """Surviving (vec_id) rows of ``corpus_ds`` whose embedding is NOT
    within cosine ``threshold`` of ANY benchmark vector — the semantic
    counterpart to the n-gram `decontaminate` pass (a paraphrased
    benchmark question shares no 8-gram but sits next to the original
    in embedding space).

    Same broadcast posture as the n-gram pass: the BENCHMARK side is
    the small one by nature (eval suites are thousands of rows, the
    corpus is the 100-TB side), so its L2-normalized matrix ships once
    via ray.put and the corpus streams through one vectorized
    (block × bench) matmul filter — no shuffle at all.  All cosine
    math in float64, bit-compatible with DuckDB's
    list_cosine_similarity on id-level output."""
    import ray

    rows = bench_ds.select_columns(["vec_id", "embedding"]).take_all()
    if not rows:
        return corpus_ds.select_columns(["vec_id"])
    bm = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    bm = bm / np.linalg.norm(bm, axis=1, keepdims=True)
    ref = ray.put(bm)

    def keep(batch: pa.Table, *, _ref=ref) -> pa.Table:
        b = _ref if isinstance(_ref, np.ndarray) else ray.get(_ref)
        x = _matrix(batch)
        if x.shape[0] == 0:
            return batch.select(["vec_id"])
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        hit = (xn @ b.T >= threshold).any(axis=1)
        return batch.filter(pa.array(~hit)).select(["vec_id"])

    return corpus_ds.select_columns(["vec_id", "embedding"]) \
        .map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def embedding_dim_stats(ds):
    """(dim, n, sum_q, sumsq_hi, sumsq_lo): exact per-dimension first
    and second moments of the embedding matrix in integer micros — the
    feature-health audit (a collapsed dimension shows var≈0, a scale
    bug shows runaway Σq²) run before trusting any ANN structure built
    on the vectors.

    Exactness posture: values quantize to micros with DuckDB's
    half-away-from-zero round (embeddings are signed); Σq² is carried
    as base-1e9 (hi, lo) limbs like `corr_by_group`'s moment sums —
    one row's q² reaches 1e12, so a naive int64 corpus sum wraps near
    1e7 rows/dim while the limbs hold to ~1e13 — and the OUTPUT is the
    limb pair too, so the query result itself never overflows int64 at
    any corpus size.  Combiner shape: each block emits exactly
    `dim` rows; one constant-size groupby.sum; a final map reassembles
    the limbs in Python big-ints."""
    def partial(batch: pa.Table) -> pa.Table:
        x = _matrix(batch)
        if x.shape[0] == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64())] * 5,
                names=["dim", "n", "sum_q", "hi", "lo"])
        y = x * 1_000_000.0
        q = np.copysign(np.floor(np.abs(y) + 0.5), y).astype(np.int64)
        n = np.full(q.shape[1], q.shape[0], dtype=np.int64)
        s1 = q.sum(axis=0)
        ss = (q * q).sum(axis=0)      # ≤ 1e12 · block rows: int64-safe
        return pa.Table.from_arrays(
            [pa.array(np.arange(q.shape[1], dtype=np.int64)),
             pa.array(n), pa.array(s1),
             pa.array(ss // 1_000_000_000),
             pa.array(ss % 1_000_000_000)],
            names=["dim", "n", "sum_q", "hi", "lo"])

    summed = aggregate(
        ds.select_columns(["embedding"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "dim", ("sum", "n"), ("sum", "sum_q"), ("sum", "hi"),
        ("sum", "lo")) \
        .map_batches(lambda t: t.rename_columns(
            ["dim", "n", "sum_q", "hi", "lo"]),
            batch_format="pyarrow", zero_copy_batch=True)

    def finish(batch: pa.Table) -> pa.Table:
        hi = batch.column("hi").to_numpy(zero_copy_only=False)
        lo = batch.column("lo").to_numpy(zero_copy_only=False)
        out_hi = np.empty(len(hi), dtype=np.int64)
        out_lo = np.empty(len(hi), dtype=np.int64)
        for i in range(len(hi)):        # dim-bounded (constant) table
            s = int(hi[i]) * 1_000_000_000 + int(lo[i])
            out_hi[i], out_lo[i] = s // 1_000_000_000, s % 1_000_000_000
        return pa.Table.from_arrays(
            [batch.column("dim"), batch.column("n"),
             batch.column("sum_q"), pa.array(out_hi),
             pa.array(out_lo)],
            names=["dim", "n", "sum_q", "sumsq_hi", "sumsq_lo"])

    return summed.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def _gram_limb_rows(ds):
    """Shared exact-Gram stage: per-block q·qᵀ partials of the
    micro-quantized embeddings, limb-encoded (hi, lo) per packed
    upper-triangle cell, reduced by one constant-size groupby.sum —
    returns the collected rows (d(d+1)/2, corpus-size-independent)."""

    def partial(batch: pa.Table) -> pa.Table:
        x = _matrix(batch)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64())] * 3, names=["ij", "hi", "lo"])
        if x.shape[0] == 0:
            return empty
        y = x * 1_000_000.0
        q = np.copysign(np.floor(np.abs(y) + 0.5), y).astype(np.int64)
        g = q.T @ q          # ≤ 1e12 · block rows per entry: int64-safe
        d = g.shape[0]
        iu = np.triu_indices(d)
        v = g[iu]
        hi = v // 1_000_000_000
        lo = v - hi * 1_000_000_000          # lo ∈ [0, 1e9) always
        return pa.Table.from_arrays(
            [pa.array(iu[0] * d + iu[1]), pa.array(hi), pa.array(lo)],
            names=["ij", "hi", "lo"])

    return aggregate(
        ds.select_columns(["embedding"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "ij", ("sum", "hi"), ("sum", "lo")).take_all()


def _gram_exact(rows):
    """(d, dict[(i, j)] -> exact python-int Gram entry) from the
    reduced limb rows (upper triangle)."""
    max_ij = max(r["ij"] for r in rows)
    d = int(np.sqrt(max_ij)) + 1
    g = {}
    for r in rows:
        i, j = divmod(int(r["ij"]), d)
        g[(i, j)] = int(r["sum(hi)"]) * 1_000_000_000 + int(r["sum(lo)"])
    return d, g


def pca_top_component(ds, iters: int = 100):
    """(dim, loading_micro): the top principal direction of the
    (uncentered) embedding second-moment matrix — the one-line health
    check before any ANN/quantization work (a single dominant
    direction means the vectors need centering/whitening; IVF and PQ
    both degrade on anisotropic inputs).

    Exactness posture (the embedding_dim_stats pattern generalized to
    cross-moments): embeddings quantize to integer micros with the
    signed half-away-from-zero round; each block emits its EXACT d×d
    Gram partial q·qᵀ as base-1e9 (hi, lo) limb rows keyed by the
    packed upper-triangle index (d(d+1)/2 constant-size rows per
    block), one sum aggregate reduces, and the driver reassembles
    the exact integer Gram in Python big-ints — order-invariant,
    bit-identical under any blocking.  The eigenvector then comes from
    a FIXED-ITERATION power iteration in float64 on the driver
    (deterministic elementwise arithmetic on an exact input — the
    differential golden runs the identical recurrence, so equality is
    bit-level, not approximate).  Sign convention: the largest-|.|
    loading is positive.  Output loadings in rounded micros."""

    rows = _gram_limb_rows(ds)
    if not rows:
        return pa.table({"dim": pa.array([], pa.int64()),
                         "loading_micro": pa.array([], pa.int64())})
    # constant-size driver finish: d(d+1)/2 rows regardless of corpus
    d, g = _gram_exact(rows)
    G = np.zeros((d, d), dtype=np.float64)
    for (i, j), exact in g.items():
        G[i, j] = G[j, i] = float(exact)
    v = np.full(d, 1.0 / np.sqrt(d))
    for _ in range(iters):
        w = G @ v
        nrm = float(np.sqrt(np.dot(w, w)))
        if nrm == 0.0:
            break
        v = w / nrm
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    lm = np.copysign(np.floor(np.abs(v * 1_000_000.0) + 0.5), v) \
        .astype(np.int64)
    return pa.table({"dim": pa.array(np.arange(d, dtype=np.int64)),
                     "loading_micro": pa.array(lm)})


def effective_rank(ds):
    """One-row (dim, er_micro): the participation-ratio effective rank
    of the embedding second-moment spectrum, tr(G)² / tr(G²), in exact
    rounded-down micros — WITHOUT any eigensolve: tr(G) = Σλ is the
    exact integer Gram trace and tr(G²) = Σλ² = Σᵢⱼ G[i,j]² is an exact
    integer sum of squares, so the ratio is a rational of big-ints and
    the distributed part is the same constant-size limb-encoded Gram
    reduction as pca_top_component.  er ≈ d means isotropic embeddings;
    er ≈ 1 means one direction carries everything (quantize/IVF will
    degrade).  Floor division matches the golden's big-int arithmetic
    bit-for-bit at any corpus size."""
    rows = _gram_limb_rows(ds)
    if not rows:
        return pa.table({"dim": pa.array([], pa.int64()),
                         "er_micro": pa.array([], pa.int64())})
    d, g = _gram_exact(rows)
    tr = sum(g[(i, i)] for i in range(d))
    tr2 = 0
    for (i, j), v in g.items():
        tr2 += v * v if i == j else 2 * v * v
    er_micro = (1_000_000 * tr * tr) // tr2 if tr2 else 0
    return pa.table({"dim": pa.array([d], pa.int64()),
                     "er_micro": pa.array([er_micro], pa.int64())})


def whiten_embeddings(ds, iters: int = 30, eps_micro: int = 1000):
    """(vec_id, dim, w_micro): ZCA-whitened embeddings — the standard
    preprocessing before quantization/IVF on anisotropic vectors
    (PQ/IVF assume roughly isotropic cells; see effective_rank for the
    diagnosis this fixes).  w = x · C^(-1/2) with C the (uncentered)
    second-moment matrix E[xxᵀ] + ε·I.

    Determinism posture: C comes from the EXACT limb-encoded integer
    Gram (same constant-size reduction as pca_top_component) divided
    by the exact row count, so every process sees bit-identical
    float64 inputs; C^(-1/2) is computed on the driver by a FIXED
    ``iters``-round Newton–Schulz recurrence (elementwise float64
    matmuls, no LAPACK eigensolve — deterministic across processes),
    and the per-row transform is one (block × d)·(d × d) matmul whose
    per-element reduction is blocking-independent.  The differential
    golden runs the identical recurrence, so equality is bit-level.
    Output quantized to rounded micros, long format (one row per
    (vector, dimension))."""
    import ray

    rows = _gram_limb_rows(ds)
    if not rows:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "dim": pa.array([], pa.int64()),
                         "w_micro": pa.array([], pa.int64())})
    d, g = _gram_exact(rows)
    n = ds.count()
    # C in (micro²)-units per row; scale back to unit² floats
    C = np.zeros((d, d), dtype=np.float64)
    for (i, j), exact in g.items():
        C[i, j] = C[j, i] = float(exact) / (1e12 * float(n))
    C = C + (float(eps_micro) / 1e6) * np.eye(d)
    W = _invsqrt_newton_schulz(C, iters)
    ref = ray.put(W)

    def transform(batch: pa.Table, *, _ref=ref) -> pa.Table:
        w = _ref if isinstance(_ref, np.ndarray) else ray.get(_ref)
        x = _matrix(batch)
        if x.shape[0] == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "w_micro": pa.array([], pa.int64())})
        y = x @ w
        q = np.copysign(np.floor(np.abs(y * 1e6) + 0.5), y) \
            .astype(np.int64)
        vid = batch.column("vec_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        dd = q.shape[1]
        return pa.Table.from_arrays(
            [pa.array(np.repeat(vid, dd)),
             pa.array(np.tile(np.arange(dd, dtype=np.int64),
                              len(vid))),
             pa.array(q.reshape(-1))],
            names=["vec_id", "dim", "w_micro"])

    return ds.select_columns(["vec_id", "embedding"]) \
        .map_batches(transform, batch_format="pyarrow",
                     zero_copy_batch=True)


def _invsqrt_newton_schulz(C: np.ndarray, iters: int) -> np.ndarray:
    """Deterministic fixed-iteration Newton–Schulz inverse square root:
    scale A = C/c with c = trace(C) (so ||I − A|| < 1 for any PSD C),
    iterate Y ← Y(3I − ZY)/2, Z ← (3I − ZY)Z/2; then
    C^(-1/2) = Z/√c.  Pure float64 numpy — no LAPACK, same bits in
    every process for the same C."""
    d = C.shape[0]
    c = float(np.trace(C))
    A = C / c
    eye = np.eye(d)
    Y, Z = A.copy(), eye.copy()
    for _ in range(iters):
        T = 0.5 * (3.0 * eye - Z @ Y)
        Y = Y @ T
        Z = T @ Z
    return Z / np.sqrt(c)


def ivf_recall_audit(ds, n_queries: int = 16, k: int = 10,
                     nlist: int = 16, nprobe: int = 4,
                     index_path: str | None = None):
    """(qid, n_hits, recall_micro): measured recall@k of the IVF probe
    path against exact brute force, per query — the self-audit every
    ANN deployment runs before trusting an approximate index (VERDICT
    r2's exact/LSH routing made approximation explicit; this measures
    what the approximation costs).  Queries are the vectors with
    vec_id < n_queries (deterministic, no sampling).

    Scale shape: BOTH passes are one streaming corpus scan with the
    (n_queries × d) query matrix broadcast once — per block a single
    (block × queries) matmul, a per-query local top-k partial, and one
    constant-cardinality groupby(qid) final merge (n_queries groups of
    ≤ k·blocks rows); the IVF pass additionally drops rows outside
    each query's nprobe lists before scoring (the probe-filter saving
    this audit quantifies).  Tie rule everywhere: lexsort((vec_id,
    −sim)) — identical to knn_cosine/knn_ivf, so the golden's dense
    reimplementation is bit-equal."""
    import ray

    q_rows = ds.filter(expr=f"vec_id < {int(n_queries)}") \
        .select_columns(["vec_id", "embedding"]).take_all()
    q_rows.sort(key=lambda r: int(r["vec_id"]))
    qids = np.array([int(r["vec_id"]) for r in q_rows], dtype=np.int64)
    Q = np.asarray([r["embedding"] for r in q_rows], dtype=np.float64)
    if index_path is not None:
        cents = ivf_load_index(index_path)
    else:
        cents = kmeans_fit_distributed(ds, nlist)
    probes = np.argsort(((cents[None, :, :] - Q[:, None, :]) ** 2)
                        .sum(axis=2), axis=1)[:, :nprobe]
    ref = ray.put((qids, Q, cents, probes))

    def partials(restrict_probe: bool):
        def f(batch: pa.Table, *, _ref=ref) -> pa.Table:
            qid, qm, cc, pr = (_ref if isinstance(_ref, tuple)
                               else ray.get(_ref))
            mat = _matrix(batch)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            out_q, out_i, out_s = [], [], []
            assign = _assign_clusters(mat, cc) if restrict_probe \
                else None
            for qi in range(len(qid)):
                keep = ids != qid[qi]          # exclude the query row
                if restrict_probe:
                    keep &= np.isin(assign, pr[qi])
                m, di = mat[keep], ids[keep]
                if not len(di):
                    continue
                sims = _cos(m, qm[qi])
                order = np.lexsort((di, -sims))[:k]
                out_q.append(np.full(len(order), qid[qi],
                                     dtype=np.int64))
                out_i.append(di[order])
                out_s.append(sims[order])
            if not out_q:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int64()),
                     pa.array([], pa.float64())],
                    names=["qid", "vec_id", "sim"])
            return pa.Table.from_arrays(
                [pa.array(np.concatenate(out_q)),
                 pa.array(np.concatenate(out_i)),
                 pa.array(np.concatenate(out_s))],
                names=["qid", "vec_id", "sim"])
        return f

    def final_topk(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        sims = group.column("sim").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        return pa.Table.from_arrays(
            [group.column("qid").take(pa.array(order)),
             pa.array(ids[order])],
            names=["qid", "vec_id"])

    def topk(restrict_probe: bool):
        return ds.select_columns(["vec_id", "embedding"]) \
            .map_batches(partials(restrict_probe),
                         batch_format="pyarrow", zero_copy_batch=True) \
            .groupby("qid").map_groups(final_topk,
                                       batch_format="pyarrow") \
            .take_all()                 # ≤ n_queries·k rows, constant

    exact = {}
    for r in topk(False):
        exact.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    approx = {}
    for r in topk(True):
        approx.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    out_q, out_h, out_r = [], [], []
    for qi in qids.tolist():
        e = exact.get(qi, set())
        hits = len(e & approx.get(qi, set()))
        out_q.append(qi)
        out_h.append(hits)
        out_r.append((1_000_000 * hits) // max(1, len(e)))
    return pa.table({"qid": pa.array(out_q, pa.int64()),
                     "n_hits": pa.array(out_h, pa.int64()),
                     "recall_micro": pa.array(out_r, pa.int64())})


def pq_recall_audit(ds, n_queries: int = 16, k: int = 10, m: int = 8,
                    ksub: int = 16, index_path: str | None = None):
    """(qid, n_hits, recall_micro): measured recall@k of PQ asymmetric
    distance against EXACT L2 top-k — the quantization twin of
    ivf_recall_audit (IVF loses candidates to the probe filter; PQ
    loses ranking fidelity to code quantization; a deployment running
    IVF+PQ multiplies the two, so each is audited in isolation).
    Queries are the vectors with vec_id < n_queries.  Both sides rank
    with the lexsort((vec_id, dist)) tie rule of knn_pq.

    Scale shape: identical to ivf_recall_audit — the (n_queries × d)
    query matrix (and the m×ksub×dsub codebook) broadcast once, one
    streaming corpus scan per side with per-query local top-k
    partials, one constant-cardinality groupby(qid) merge."""
    import ray

    q_rows = ds.filter(expr=f"vec_id < {int(n_queries)}") \
        .select_columns(["vec_id", "embedding"]).take_all()
    q_rows.sort(key=lambda r: int(r["vec_id"]))
    qids = np.array([int(r["vec_id"]) for r in q_rows], dtype=np.int64)
    Q = np.asarray([r["embedding"] for r in q_rows], dtype=np.float64)
    if index_path is not None:
        cents = pq_load_index(index_path)
    else:
        cents = pq_fit_distributed(ds, m=m, ksub=ksub)
    mm, kk, dsub = cents.shape
    # per-query ADC tables: (nq, m, ksub)
    tables = np.stack([
        ((cents - q.reshape(mm, dsub)[:, None, :]) ** 2).sum(axis=2)
        for q in Q])
    ref = ray.put((qids, Q, cents, tables))

    def partials(use_pq: bool):
        def f(batch: pa.Table, *, _ref=ref) -> pa.Table:
            qid, qm, cc, tb = (_ref if isinstance(_ref, tuple)
                               else ray.get(_ref))
            mat = _matrix(batch)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            codes = None
            if use_pq and len(ids):
                codes = np.stack([
                    _assign_clusters(mat[:, s * dsub:(s + 1) * dsub],
                                     cc[s]) for s in range(mm)])
            out_q, out_i, out_d = [], [], []
            for qi in range(len(qid)):
                keep = ids != qid[qi]
                di = ids[keep]
                if not len(di):
                    continue
                if use_pq:
                    dist = np.zeros(len(ids), dtype=np.float64)
                    for s in range(mm):
                        dist += tb[qi, s][codes[s]]
                    dist = dist[keep]
                else:
                    diff = mat[keep] - qm[qi]
                    dist = (diff * diff).sum(axis=1)
                order = np.lexsort((di, dist))[:k]
                out_q.append(np.full(len(order), qid[qi],
                                     dtype=np.int64))
                out_i.append(di[order])
                out_d.append(dist[order])
            if not out_q:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int64()),
                     pa.array([], pa.float64())],
                    names=["qid", "vec_id", "dist"])
            return pa.Table.from_arrays(
                [pa.array(np.concatenate(out_q)),
                 pa.array(np.concatenate(out_i)),
                 pa.array(np.concatenate(out_d))],
                names=["qid", "vec_id", "dist"])
        return f

    def final_topk(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        dist = group.column("dist").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, dist))[:k]
        return pa.Table.from_arrays(
            [group.column("qid").take(pa.array(order)),
             pa.array(ids[order])],
            names=["qid", "vec_id"])

    def topk(use_pq: bool):
        return ds.select_columns(["vec_id", "embedding"]) \
            .map_batches(partials(use_pq), batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby("qid").map_groups(final_topk,
                                       batch_format="pyarrow") \
            .take_all()                 # ≤ n_queries·k rows, constant

    exact, approx = {}, {}
    for r in topk(False):
        exact.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    for r in topk(True):
        approx.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    out_q, out_h, out_r = [], [], []
    for qi in qids.tolist():
        e = exact.get(qi, set())
        hits = len(e & approx.get(qi, set()))
        out_q.append(qi)
        out_h.append(hits)
        out_r.append((1_000_000 * hits) // max(1, len(e)))
    return pa.table({"qid": pa.array(out_q, pa.int64()),
                     "n_hits": pa.array(out_h, pa.int64()),
                     "recall_micro": pa.array(out_r, pa.int64())})


RRF_K = 60


def hybrid_rrf(docs_ds, emb_ds, terms, k_lex: int = 20,
               k_sem: int = 10, k_out: int = 10, rrf_k: int = RRF_K):
    """(doc_id, rrf_micro): hybrid lexical + semantic retrieval fused
    by Reciprocal Rank Fusion (Cormack et al. 2009) — the standard
    two-tower search composition: BM25 top-``k_lex`` over the text
    corpus and exact cosine top-``k_sem`` over the embedding table
    (vec_id doubles as doc_id), each list contributing the INTEGER
    1e6 // (rrf_k + rank) micros so the fused score is an exact int64
    in any summation order (the bm25_topk fixed-point posture; the
    float 1/(k+r) is not reproducible across engines, its floor in
    micros is).  Final order: fused score descending, doc_id ascending,
    top ``k_out``.

    Scale shape: both retrievals are the already-scale-shaped
    distributed operators (per-block partial top-k; broadcast query
    vector); fusion itself touches only the two CONSTANT-SIZE ranked
    lists (k_lex + k_sem rows on the driver — the centroid-sized
    exception, never corpus-shaped)."""
    lex = bm25_topk(docs_ds, tuple(terms), k=k_lex).take_all()
    sem = knn_brute(emb_ds, get_query_vector(emb_ds, 0),
                    k=k_sem).take_all()

    score: dict[int, int] = {}
    for rank, row in enumerate(lex, 1):
        did = int(row["doc_id"])
        score[did] = score.get(did, 0) + 1_000_000 // (rrf_k + rank)
    for rank, row in enumerate(sem, 1):
        did = int(row["vec_id"])
        score[did] = score.get(did, 0) + 1_000_000 // (rrf_k + rank)
    top = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:k_out]
    return pa.table({
        "doc_id": pa.array([d for d, _ in top], pa.int64()),
        "rrf_micro": pa.array([s for _, s in top], pa.int64())})


def _dcg_discounts(k: int) -> list[int]:
    """Integer position discounts round(1e6 / log2(rank+1)) for ranks
    1..k.  Deterministic across independent reimplementations: the
    quotients sit far from the .5 rounding boundary (closest is
    301029.9956 at rank 9), so a correctly-rounded log2 on any IEEE
    platform yields the same integers."""
    import math

    return [round(1_000_000 / math.log2(r + 1)) for r in range(1, k + 1)]


def ndcg_audit(ds, n_queries: int = 16, k: int = 10,
               nlist: int = 16, nprobe: int = 4,
               index_path: str | None = None):
    """(qid, dcg_units, ndcg_micro): RANK-AWARE quality of the IVF
    probe ranking against exact brute-force cosine — nDCG@k with the
    exact list as graded ground truth (relevance of the exact rank-r
    neighbour = k−r+1, linear gains), completing the audit family:
    `ivf_recall_audit` counts WHICH true neighbours survive the probe
    filter, this measures WHERE the survivors land (an approximate
    index that returns all ten true neighbours in reversed order has
    recall 1.0 but visibly sub-1 nDCG).  Queries are the vectors with
    vec_id < n_queries; both rankings use the lexsort((vec_id, −sim))
    tie rule of knn_cosine/knn_ivf.

    All scoring integer: position discounts are round(1e6/log2(r+1))
    micros (`_dcg_discounts` — reimplementation-stable integers),
    DCG = Σ gain·disc over the approx list, IDCG the same sum over
    the ideal order, ndcg_micro = 1e6·DCG // IDCG.

    Scale shape = ivf_recall_audit exactly: two streaming corpus scans
    (exact and probe-filtered) with the (n_queries × d) query matrix +
    centroids broadcast ONCE via ray.put; per block one matmul and a
    per-query local top-k partial; one constant-cardinality
    groupby(qid) merge (≤ n_queries·k·blocks partial rows); the nDCG
    arithmetic touches only the two constant-size ranked lists on the
    driver."""
    import ray

    q_rows = ds.filter(expr=f"vec_id < {int(n_queries)}") \
        .select_columns(["vec_id", "embedding"]).take_all()
    q_rows.sort(key=lambda r: int(r["vec_id"]))
    qids = np.array([int(r["vec_id"]) for r in q_rows], dtype=np.int64)
    Q = np.asarray([r["embedding"] for r in q_rows], dtype=np.float64)
    if index_path is not None:
        cents = ivf_load_index(index_path)
    else:
        cents = kmeans_fit_distributed(ds, nlist)
    probes = np.argsort(((cents[None, :, :] - Q[:, None, :]) ** 2)
                        .sum(axis=2), axis=1)[:, :nprobe]
    ref = ray.put((qids, Q, cents, probes))

    def partials(restrict_probe: bool):
        def f(batch: pa.Table, *, _ref=ref) -> pa.Table:
            qid, qm, cc, pr = (_ref if isinstance(_ref, tuple)
                               else ray.get(_ref))
            mat = _matrix(batch)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            out_q, out_i, out_s = [], [], []
            assign = _assign_clusters(mat, cc) if restrict_probe \
                else None
            for qi in range(len(qid)):
                keep = ids != qid[qi]          # exclude the query row
                if restrict_probe:
                    keep &= np.isin(assign, pr[qi])
                m, di = mat[keep], ids[keep]
                if not len(di):
                    continue
                sims = _cos(m, qm[qi])
                order = np.lexsort((di, -sims))[:k]
                out_q.append(np.full(len(order), qid[qi],
                                     dtype=np.int64))
                out_i.append(di[order])
                out_s.append(sims[order])
            if not out_q:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int64()),
                     pa.array([], pa.float64())],
                    names=["qid", "vec_id", "sim"])
            return pa.Table.from_arrays(
                [pa.array(np.concatenate(out_q)),
                 pa.array(np.concatenate(out_i)),
                 pa.array(np.concatenate(out_s))],
                names=["qid", "vec_id", "sim"])
        return f

    def final_ranked(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        sims = group.column("sim").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        return pa.Table.from_arrays(
            [group.column("qid").take(pa.array(order)),
             pa.array(ids[order]),
             pa.array(np.arange(1, len(order) + 1, dtype=np.int64))],
            names=["qid", "vec_id", "rank"])

    def ranked(restrict_probe: bool) -> dict[int, list[int]]:
        rows = ds.select_columns(["vec_id", "embedding"]) \
            .map_batches(partials(restrict_probe),
                         batch_format="pyarrow", zero_copy_batch=True) \
            .groupby("qid").map_groups(final_ranked,
                                       batch_format="pyarrow") \
            .take_all()                 # ≤ n_queries·k rows, constant
        by_q: dict[int, list[tuple[int, int]]] = {}
        for r in rows:
            by_q.setdefault(int(r["qid"]), []).append(
                (int(r["rank"]), int(r["vec_id"])))
        return {q: [v for _, v in sorted(lst)]
                for q, lst in by_q.items()}

    exact = ranked(False)
    approx = ranked(True)
    disc = _dcg_discounts(k)
    out_q, out_d, out_n = [], [], []
    for qi in qids.tolist():
        ex = exact.get(qi, [])
        rel = {d: k - r for r, d in enumerate(ex)}   # k..k-len+1
        dcg = sum(rel.get(d, 0) * disc[i]
                  for i, d in enumerate(approx.get(qi, [])))
        idcg = sum((k - i) * disc[i] for i in range(len(ex)))
        out_q.append(qi)
        out_d.append(dcg)
        out_n.append((1_000_000 * dcg) // idcg if idcg else 0)
    return pa.table({"qid": pa.array(out_q, pa.int64()),
                     "dcg_units": pa.array(out_d, pa.int64()),
                     "ndcg_micro": pa.array(out_n, pa.int64())})


def hard_negatives(ds, n_queries: int = 16, k: int = 5):
    """(qid, vec_id, rank): for each query vector (vec_id <
    ``n_queries``), its top-``k`` most-similar vectors with a
    DIFFERENT label — hard-negative mining, the contrastive-training
    data op (the highest-cosine wrong-label neighbours are exactly the
    negatives that teach an embedding model its decision boundary;
    random negatives are trivially separable).  Ranking = cosine desc,
    ties → min vec_id (the knn_cosine tie rule); the query row itself
    is label-excluded by construction when labels match, and id-
    excluded regardless.

    Scale shape: the ivf_recall_audit exact-pass posture — the
    (n_queries × d) query matrix AND the n_queries label vector
    broadcast once via ray.put; ONE streaming corpus scan, per block
    one matmul + a per-query wrong-label top-k partial; one
    constant-cardinality groupby(qid) merge over ≤ n_queries·k·blocks
    partial rows."""
    import ray

    q_rows = ds.filter(expr=f"vec_id < {int(n_queries)}") \
        .select_columns(["vec_id", "label", "embedding"]).take_all()
    q_rows.sort(key=lambda r: int(r["vec_id"]))
    qids = np.array([int(r["vec_id"]) for r in q_rows], dtype=np.int64)
    qlab = np.array([int(r["label"]) for r in q_rows], dtype=np.int64)
    Q = np.asarray([r["embedding"] for r in q_rows], dtype=np.float64)
    ref = ray.put((qids, qlab, Q))

    def partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
        qid, ql, qm = (_ref if isinstance(_ref, tuple)
                       else ray.get(_ref))
        mat = _matrix(batch)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        labels = batch.column("label").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        out_q, out_i, out_s = [], [], []
        for qi in range(len(qid)):
            keep = (labels != ql[qi]) & (ids != qid[qi])
            m, di = mat[keep], ids[keep]
            if not len(di):
                continue
            sims = _cos(m, qm[qi])
            order = np.lexsort((di, -sims))[:k]
            out_q.append(np.full(len(order), qid[qi], dtype=np.int64))
            out_i.append(di[order])
            out_s.append(sims[order])
        if not out_q:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.float64())],
                names=["qid", "vec_id", "sim"])
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(out_q)),
             pa.array(np.concatenate(out_i)),
             pa.array(np.concatenate(out_s))],
            names=["qid", "vec_id", "sim"])

    def final_topk(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        sims = group.column("sim").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        return pa.Table.from_arrays(
            [group.column("qid").take(pa.array(order)),
             pa.array(ids[order]),
             pa.array(np.arange(1, len(order) + 1, dtype=np.int64))],
            names=["qid", "vec_id", "rank"])

    return ds.select_columns(["vec_id", "label", "embedding"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("qid").map_groups(final_topk, batch_format="pyarrow")


def cluster_census(ds, nlist: int = 16, index_path: str | None = None):
    """(cluster, n, inertia_micro): the corpus map — every embedding
    assigned to its nearest k-means centroid (the persisted IVF
    codebook), with per-cluster membership counts and the summed
    squared distance to the centroid in floor micros (the within-
    cluster inertia a curator watches to decide whether a cluster is
    tight enough to be a topic or needs splitting).  Clusters with no
    members emit no row.

    Shape: centroids broadcast once (index load or one distributed
    fit); ONE streaming scan — per block a nearest-centroid assign
    (`_assign_clusters`, the shared spec formula) + a bincount/
    fixed-point-sum partial of at most nlist rows; one keyed
    aggregate(cluster).sum over nlist × blocks partial rows.  Inertia
    quantizes per VECTOR (floor(d²·1e6) int64) before summation, so
    the reduce is order-invariant and the dense golden bit-equal."""
    import ray

    if index_path is not None:
        cents = ivf_load_index(index_path)
    else:
        cents = kmeans_fit_distributed(ds, nlist)
    ref = ray.put(cents)

    def partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
        cc = _ref if isinstance(_ref, np.ndarray) else ray.get(_ref)
        mat = _matrix(batch)
        assign = _assign_clusters(mat, cc)
        d2 = ((mat - cc[assign]) ** 2).sum(axis=1)
        d2_micro = np.floor(d2 * 1_000_000.0).astype(np.int64)
        n = np.bincount(assign, minlength=len(cc)).astype(np.int64)
        iner = np.zeros(len(cc), dtype=np.int64)
        np.add.at(iner, assign, d2_micro)
        nz = n > 0
        return pa.Table.from_arrays(
            [pa.array(np.flatnonzero(nz).astype(np.int64)),
             pa.array(n[nz]), pa.array(iner[nz])],
            names=["cluster", "n", "inertia_micro"])

    summed = aggregate(
        ds.select_columns(["embedding"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "cluster", ("sum", "n"), ("sum", "inertia_micro"))
    return summed.map_batches(
        lambda b: b.rename_columns(["cluster", "n", "inertia_micro"]),
        batch_format="pyarrow", zero_copy_batch=True).sort("cluster")


def dim_truncation_audit(ds, n_queries: int = 16, k: int = 10,
                         keep_dims: int = 16):
    """(qid, n_hits, recall_micro): measured recall@k of brute-force
    cosine over only the FIRST ``keep_dims`` embedding dimensions
    against full-dimension cosine — the Matryoshka/dimension-pruning
    audit (truncating stored dims is the cheapest index shrink there
    is; this measures what ranking quality it costs BEFORE committing
    the smaller index).  Queries are the vectors with vec_id <
    n_queries; both sides rank with the lexsort((vec_id, −sim)) tie
    rule of knn_cosine.

    Scale shape = ivf_recall_audit: query matrix broadcast once, two
    streaming corpus scans (full-dim and truncated) with per-block
    local top-k partials, one constant-cardinality groupby(qid) merge;
    the truncated pass slices each block's matrix view — no copy, no
    re-read."""
    import ray

    q_rows = ds.filter(expr=f"vec_id < {int(n_queries)}") \
        .select_columns(["vec_id", "embedding"]).take_all()
    q_rows.sort(key=lambda r: int(r["vec_id"]))
    qids = np.array([int(r["vec_id"]) for r in q_rows], dtype=np.int64)
    Q = np.asarray([r["embedding"] for r in q_rows], dtype=np.float64)
    ref = ray.put((qids, Q))

    def partials_s(dims: int | None):
        def f(batch: pa.Table, *, _ref=ref) -> pa.Table:
            qid, qm = (_ref if isinstance(_ref, tuple)
                       else ray.get(_ref))
            mat = _matrix(batch)
            if dims is not None:
                mat = mat[:, :dims]
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            out_q, out_i, out_s = [], [], []
            for qi in range(len(qid)):
                keep = ids != qid[qi]
                m, di = mat[keep], ids[keep]
                if not len(di):
                    continue
                q = qm[qi] if dims is None else qm[qi][:dims]
                sims = _cos(m, q)
                order = np.lexsort((di, -sims))[:k]
                out_q.append(np.full(len(order), qid[qi],
                                     dtype=np.int64))
                out_i.append(di[order])
                out_s.append(sims[order])
            if not out_q:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int64()),
                     pa.array([], pa.float64())],
                    names=["qid", "vec_id", "sim"])
            return pa.Table.from_arrays(
                [pa.array(np.concatenate(out_q)),
                 pa.array(np.concatenate(out_i)),
                 pa.array(np.concatenate(out_s))],
                names=["qid", "vec_id", "sim"])
        return f

    def final_topk(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        sims = group.column("sim").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        return pa.Table.from_arrays(
            [group.column("qid").take(pa.array(order)),
             pa.array(ids[order])],
            names=["qid", "vec_id"])

    def ranked(dims: int | None):
        return ds.select_columns(["vec_id", "embedding"]) \
            .map_batches(partials_s(dims), batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby("qid").map_groups(final_topk,
                                       batch_format="pyarrow") \
            .take_all()

    full = {}
    for r in ranked(None):
        full.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    trunc = {}
    for r in ranked(keep_dims):
        trunc.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    out_q, out_h, out_r = [], [], []
    for qi in qids.tolist():
        e = full.get(qi, set())
        hits = len(e & trunc.get(qi, set()))
        out_q.append(qi)
        out_h.append(hits)
        out_r.append((1_000_000 * hits) // max(1, len(e)))
    return pa.table({"qid": pa.array(out_q, pa.int64()),
                     "n_hits": pa.array(out_h, pa.int64()),
                     "recall_micro": pa.array(out_r, pa.int64())})


def label_centroid_drift(ds, scale: int = CENTROID_SCALE):
    """(label, n, drift_micro): how far each label's embedding
    centroid sits from the GLOBAL centroid, as floor-micros cosine
    distance (1 − cos) — the segment-drift audit an embedding-space
    owner reads to spot a feed whose vectors wander (new encoder
    version, topical shift, poisoning) before any downstream ANN
    metric moves.

    Rides `label_centroids` unchanged: the only distributed work is
    that op's exact fixed-point partial-centroid exchange; the global
    centroid is the label-sums' sum (exact int64 addition), and the
    per-label cosine runs on the driver over the |labels| × dim
    integer table — constant-size, never corpus-shaped.  The division
    by counts happens once, in float64, identically in the dense
    golden, so the emitted micros are bit-stable."""
    rows = label_centroids(ds, scale).take_all()
    by_label: dict[int, dict[int, int]] = {}
    counts: dict[int, int] = {}
    dims = 0
    for r in rows:
        lab, d = int(r["label"]), int(r["dim"])
        by_label.setdefault(lab, {})[d] = int(r["sum_fp"])
        counts[lab] = int(r["n"])
        dims = max(dims, d)
    labels = sorted(by_label)
    sums = np.array([[by_label[l].get(d, 0)
                      for d in range(1, dims + 1)] for l in labels],
                    dtype=np.int64)
    n = np.array([counts[l] for l in labels], dtype=np.int64)
    total = sums.sum(axis=0).astype(np.float64)   # exact int64 sum
    total_n = int(n.sum())
    g = total / float(total_n)
    cents = sums.astype(np.float64) / n[:, None].astype(np.float64)
    num = cents @ g
    den = np.sqrt((cents * cents).sum(axis=1)) * np.sqrt(g @ g)
    drift = np.floor((1.0 - num / den) * 1_000_000.0).astype(np.int64)
    return pa.table({"label": pa.array(np.array(labels, np.int64)),
                     "n": pa.array(n),
                     "drift_micro": pa.array(drift)})
