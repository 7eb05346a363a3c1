"""Corpus-wide web-graph construction from document anchors.

The reference mines anchors only from live search-result DOMs
(google_url_serch.py:97-229, yahoo_url_search.py:83-209); a web-scale
corpus wants the same mining turned on EVERY stored document, because
the resulting link graph is itself a first-class training-data signal:
anchor-text aggregation per target URL (the classic search-index /
query-likelihood feature) and host-level authority (PageRank over the
host graph — the standard quality prior for corpus weighting).

Operators over the interleaved (doc_id, spans) corpus:

* ``outlinks``      — (src, href, anchor): every <a href> anchor in
                      every html span, entity-unescaped, inner tags
                      stripped, whitespace collapsed.
* ``anchor_stats``  — per target href: total link count, distinct
                      linking documents, and the modal anchor text
                      (ties broken lexicographically).
* ``host_pagerank`` — fixed-point PageRank over the host→host graph
                      derived from (src doc host → href host), ranks
                      joined back to host strings.
* ``host_cocitation`` — distinct-doc co-citation counts per target-host
                      pair (mirror/topic-affinity signal).
* ``host_coupling`` — bibliographic coupling of source hosts with
                      integer Jaccard (host-level mirror detector).

Scale shape: ``outlinks`` is a pure map_batches scan (compiled regex
per html span — the extraction cost class; no shuffle).  ``anchor_stats``
pre-aggregates (href, src, anchor) counts per block with a NATIVE Arrow
group_by, then exchanges partials once into hash(href) % 256 buckets
(constant fan-out, never one group per href).  ``host_pagerank`` maps
hosts to md5-u63 surrogate ids, collapses multi-edges with per-block
combiners + one sum aggregate, and rides functions.graph.pagerank's
integer fixed-point machinery (bit-identical to the dense golden);
host strings re-attach through one bucketed emit-union groupby — no
driver materialization anywhere.

Host rule (documented, oracle-identical): a URL's host is the lowercased
netloc of scheme-explicit absolute URLs (``scheme://netloc/...``);
relative, protocol-relative and scheme-only refs have no host and drop
out of the graph.

Oracles (tools/gen_goldens.py): ``outlinks`` against an independent
stdlib html.parser.HTMLParser DOM-event walk (entirely different
parsing machinery from the regex scan); ``anchor_stats`` as DuckDB SQL
over that independent link table; ``host_pagerank`` against the dense
np.add.at fixed-point recurrence over HTMLParser-derived host edges.
"""

from __future__ import annotations

import hashlib
import html as _htmllib
import re

import numpy as np
import pyarrow as pa

from ..exchange import (N_SHUFFLE_BUCKETS, _ibucket, _sbucket, aggregate,
                        join)
from ..functions.dedup import _col_i64

# href must sit before the closing '>' of the same <a ...> tag
# ([^>]*? cannot cross it); inner text runs to the FIRST </a> (anchors
# do not nest in valid HTML).  Double-quoted hrefs only — the corpus
# generator emits canonical quoting, and the HTMLParser differential
# golden would flag any drift.
ANCHOR_RE = re.compile(
    r'<a\s[^>]*?href\s*=\s*"([^"]*)"[^>]*>(.*?)</a>',
    re.IGNORECASE | re.DOTALL)
TAG_RE = re.compile(r"<[^>]*>")
# scheme-explicit absolute URLs only (see module docstring)
HOST_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]+)")


def _anchor_text(inner_html: str) -> str:
    """Inner tags stripped (concatenating the text runs, as an HTML
    DOM's text nodes concatenate), entities unescaped, whitespace
    collapsed."""
    return " ".join(_htmllib.unescape(TAG_RE.sub("", inner_html)).split())


def host_of(url: str) -> str:
    """Lowercased netloc of a scheme-explicit absolute URL, else ''."""
    m = HOST_RE.match(url)
    return m.group(1).lower() if m else ""


def _u63(s: str) -> int:
    """Deterministic 63-bit surrogate id for a string (the same md5
    bridge as pipelines.dedup_pipeline.surrogate_id)."""
    return int.from_bytes(
        hashlib.md5(s.encode("utf-8")).digest()[:8], "big") \
        & 0x7FFFFFFFFFFFFFFF


def linkweb_fixture_docs(n_docs: int = 60, seed: int = 7) -> list[dict]:
    """Deterministic link-web fixture: ``n_docs`` single-span html
    documents spread over 12 hosts with zipf-ish cross-host linking,
    plus the parser edge cases the differential golden must agree on —
    entity-escaped hrefs/anchors, inner markup in anchor text,
    uppercase scheme+host, relative / mailto / empty-href / href-less
    anchors (all hostless or skipped).  Complements the extraction
    corpus (whose only anchor-bearing family is gen_link_page) so the
    web-graph ops see real multi-host structure."""
    import random

    hosts = [f"site{k}.example.org" for k in range(9)] + \
        ["HUB.example.org", "cdn.example.org", "blog.example.net"]
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu").split()
    docs = []
    for i in range(n_docs):
        rng = random.Random(f"linkweb:{seed}:{i}")
        host = hosts[i % len(hosts)]
        doc_id = f"https://{host}/page/{i}"
        parts = [f"<html><body><h1>{words[i % len(words)]} {i}</h1>"]
        # zipf-ish: low-k hosts get most links
        for _ in range(3 + i % 4):
            t = hosts[min(int(rng.random() ** 2 * len(hosts)),
                          len(hosts) - 1)]
            page = rng.randrange(n_docs)
            a1, a2 = rng.choice(words), rng.choice(words)
            parts.append(
                f'<a href="https://{t}/page/{page}?x=1&amp;y=2">'
                f"{a1} <b>{a2}</b>&amp;co</a>")
        if i % 5 == 0:
            parts.append('<a href="HTTPS://HUB.example.org/TOP">hub</a>')
        if i % 7 == 0:
            parts.append('<a href="/relative/path">rel</a>'
                         '<a href="mailto:x@y.example">mail</a>'
                         '<a href="">empty</a><a name="frag">no href</a>')
        parts.append("</body></html>")
        docs.append({"doc_id": doc_id,
                     "spans": [{"kind": "html", "text": "".join(parts),
                                "media_ref": "", "offset": 0}]})
    return docs


def _outlinks_batch(batch: pa.Table) -> pa.Table:
    srcs: list[str] = []
    hrefs: list[str] = []
    anchors: list[str] = []
    ids = batch.column("doc_id").to_pylist()
    for doc_id, spans in zip(ids, batch.column("spans").to_pylist()):
        for s in spans or []:
            if s["kind"] != "html":
                continue
            for m in ANCHOR_RE.finditer(s["text"] or ""):
                href = _htmllib.unescape(m.group(1))
                if not href:
                    continue
                srcs.append(doc_id)
                hrefs.append(href)
                anchors.append(_anchor_text(m.group(2)))
    return pa.Table.from_arrays(
        [pa.array(srcs, pa.string()), pa.array(hrefs, pa.string()),
         pa.array(anchors, pa.string())],
        names=["src", "href", "anchor"])


def outlinks(docs):
    """(src, href, anchor) — every href-bearing anchor of every html
    span, one row per occurrence (multiplicity kept: link counts are
    the downstream signal).  Pure map scan, extraction cost class."""
    return docs.map_batches(_outlinks_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def _href_keys(hrefs) -> np.ndarray:
    """hash(href) % N_SHUFFLE_BUCKETS, md5 computed once per DISTINCT
    href in the block (not per row)."""
    arr = np.asarray(hrefs, dtype=object)
    uniq, inv = np.unique(arr, return_inverse=True)
    keys = np.fromiter((_u63(h) % N_SHUFFLE_BUCKETS for h in uniq),
                       dtype=np.int64, count=len(uniq))
    return keys[inv]


def anchor_stats(links):
    """Per target href: (href, n_links, n_docs, top_anchor) where
    n_links counts every anchor occurrence, n_docs counts distinct
    linking documents, and top_anchor is the most frequent anchor text
    (ties → lexicographically smallest).

    Shape: per-block NATIVE Arrow group_by collapses rows to
    (href, src, anchor, cnt) partials, ONE constant-fan-out exchange
    into hash(href) % 256 buckets, all-numpy in-cell resolution."""

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["href", "src", "anchor"]).aggregate(
            [("anchor", "count")])
        agg = agg.rename_columns(["href", "src", "anchor", "cnt"])
        return agg.append_column(
            "key", pa.array(_href_keys(agg.column("href").to_pylist())))

    def cell(group: pa.Table) -> pa.Table:
        href = np.asarray(group.column("href").to_pylist(), dtype=object)
        src = np.asarray(group.column("src").to_pylist(), dtype=object)
        anchor = np.asarray(group.column("anchor").to_pylist(),
                            dtype=object)
        cnt = group.column("cnt").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        uh, hinv = np.unique(href, return_inverse=True)
        n_links = np.zeros(len(uh), dtype=np.int64)
        np.add.at(n_links, hinv, cnt)
        # distinct (href, src) pairs — partials may repeat them
        us, sinv = np.unique(src, return_inverse=True)
        pair = hinv.astype(np.int64) * len(us) + sinv
        n_docs = np.bincount(np.unique(pair) // len(us),
                             minlength=len(uh)).astype(np.int64)
        # modal anchor: fold partial counts per (href, anchor), then
        # first row per href under (count desc, anchor asc)
        ua, ainv = np.unique(anchor, return_inverse=True)
        key2 = hinv.astype(np.int64) * len(ua) + ainv
        uk, kinv = np.unique(key2, return_inverse=True)
        c2 = np.zeros(len(uk), dtype=np.int64)
        np.add.at(c2, kinv, cnt)
        kh, ka = uk // len(ua), uk % len(ua)
        order = np.lexsort((ka, -c2, kh))
        first = np.unique(kh[order], return_index=True)[1]
        top = ua[ka[order][first]]
        return pa.Table.from_arrays(
            [pa.array(uh.tolist(), pa.string()), pa.array(n_links),
             pa.array(n_docs), pa.array(top.tolist(), pa.string())],
            names=["href", "n_links", "n_docs", "top_anchor"])

    return links.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby("key").map_groups(cell, batch_format="pyarrow")


def host_edges(links):
    """(src, dst, w) int64 host-graph edges from an outlinks table:
    src = host(src doc), dst = host(href), w = link multiplicity.
    Hostless refs drop; self-loops kept (they carry real mass).
    Per-block combiner collapses pairs before ONE sum aggregate."""

    def partial(batch: pa.Table) -> pa.Table:
        sh = [host_of(u) for u in batch.column("src").to_pylist()]
        dh = [host_of(u) for u in batch.column("href").to_pylist()]
        keep = [i for i, (a, b) in enumerate(zip(sh, dh)) if a and b]
        hosts = sorted({sh[i] for i in keep} | {dh[i] for i in keep})
        hid = {h: _u63(h) for h in hosts}
        src = np.fromiter((hid[sh[i]] for i in keep), dtype=np.int64,
                          count=len(keep))
        dst = np.fromiter((hid[dh[i]] for i in keep), dtype=np.int64,
                          count=len(keep))
        t = pa.Table.from_arrays([pa.array(src), pa.array(dst)],
                                 names=["src", "dst"])
        agg = t.group_by(["src", "dst"]).aggregate([("dst", "count")])
        return agg.rename_columns(["src", "dst", "w"])

    return aggregate(
        links.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["src", "dst"], ("sum", "w"), names=["src", "dst", "w"])


def _host_map(links):
    """(node, host) — distinct host-id → host-string mapping rows,
    deduped per block (global dedup happens in the attach cell)."""

    def partial(batch: pa.Table) -> pa.Table:
        hosts = set()
        for col in ("src", "href"):
            for u in batch.column(col).to_pylist():
                h = host_of(u)
                if h:
                    hosts.add(h)
        hs = sorted(hosts)
        return pa.Table.from_arrays(
            [pa.array([_u63(h) for h in hs], pa.int64()),
             pa.array(hs, pa.string())],
            names=["node", "host"])

    return links.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)


def doc_authority(docs, ranks):
    """(doc_id, host, rank): every document tagged with its host's
    PageRank authority (0 for hostless doc ids and hosts absent from
    the link graph).  One bucketed emit-union groupby on u63(host) —
    the rank table is host-sized, the doc side streams; nothing
    broadcasts or materializes on the driver."""

    def doc_emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hosts = [host_of(d) for d in ids]
        hid = np.fromiter((_u63(h) for h in hosts), dtype=np.int64,
                          count=len(hosts))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(hid)), pa.array(hid),
             pa.array(ids, pa.string()),
             pa.array(hosts, pa.string()),
             pa.array(np.full(len(ids), -1, dtype=np.int64))],
            names=["key", "hid", "doc_id", "host", "rank"])

    def rank_emit(batch: pa.Table) -> pa.Table:
        hosts = batch.column("host").to_pylist()
        hid = np.fromiter((_u63(h) for h in hosts), dtype=np.int64,
                          count=len(hosts))
        n = len(hosts)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(hid)), pa.array(hid),
             pa.array([""] * n, pa.string()),
             pa.array(hosts, pa.string()),
             batch.column("rank").cast(pa.int64())],
            names=["key", "hid", "doc_id", "host", "rank"])

    def attach(group: pa.Table) -> pa.Table:
        hid = group.column("hid").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        rank = group.column("rank").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        is_doc = rank < 0
        rmap = dict(zip(hid[~is_doc].tolist(), rank[~is_doc].tolist()))
        kept = group.filter(pa.array(is_doc))
        khid = kept.column("hid").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        out_rank = np.fromiter((rmap.get(int(h), 0) for h in khid),
                               dtype=np.int64, count=len(khid))
        return pa.Table.from_arrays(
            [kept.column("doc_id"), kept.column("host"),
             pa.array(out_rank)],
            names=["doc_id", "host", "rank"])

    u = docs.select_columns(["doc_id"]).map_batches(
        doc_emit, batch_format="pyarrow", zero_copy_batch=True).union(
        ranks.map_batches(rank_emit, batch_format="pyarrow",
                          zero_copy_batch=True))
    return u.groupby("key").map_groups(attach, batch_format="pyarrow")


def authority_sample(docs, k: int = 64, salt: str = "authority"):
    """Deterministic Poisson PPS sample of DOCUMENTS weighted by their
    host's PageRank authority — the corpus-mixture draw that prefers
    pages on reputable hosts (the classic quality-prior use of link
    authority).  Keeps doc i with probability min(1, k·rankᵢ/W),
    W = Σ over docs of host rank; membership is the content-addressed
    md5-u63 predicate of functions.curation.pps_sample (same
    left-to-right IEEE double order as its SQL twin), so the kept set
    is reproducible under any blocking.  Returns (doc_id, host, rank).

    W is an exact int64 Dataset.sum over per-doc ranks (rank ≤ 1e12 =
    PAGERANK_SCALE): int64-safe while avg docs-per-host × 1e12 < 2^63,
    i.e. ≈9.2M docs per host — beyond that, lower PAGERANK_SCALE or
    carry the sum as (hi, lo) limbs like embedding_dim_stats."""
    from ..functions.curation import _did63
    from ..functions.graph import pagerank

    links = outlinks(docs).materialize()
    ranks = host_ranks_named(links)
    auth = doc_authority(docs, ranks).materialize()
    total = auth.sum("rank")
    if not total:
        return auth.filter(lambda _: False)
    w_double = float(int(total))
    k_double = float(k)

    def keep(batch: pa.Table) -> pa.Table:
        h = _did63([str(d) + salt
                    for d in batch.column("doc_id").to_pylist()]) \
            .astype(np.float64)
        w = batch.column("rank").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        bound = w * k_double / w_double * 9223372036854775808.0
        return batch.filter(pa.array(h < bound))

    return auth.map_batches(keep, batch_format="pyarrow",
                            zero_copy_batch=True)


def host_pagerank(docs):
    """(host, rank) — integer fixed-point PageRank (functions.graph)
    over the corpus's host→host anchor graph, ranks re-keyed to host
    strings via one bucketed emit-union groupby.

    The outlinks table is consumed twice (edges + host map) — it is
    materialized once so the corpus regex scan runs a single time (the
    links table is far smaller than the corpus; at real scale a user
    persists it as its own artifact)."""
    return host_ranks_named(outlinks(docs).materialize())


def host_ranks_named(links):
    """(host, rank) from a materialized outlinks table — the
    rank-computation core of host_pagerank, reusable when the caller
    already holds the links table (authority_sample)."""
    from ..functions.graph import pagerank

    ranks = pagerank(host_edges(links))

    def rank_emit(batch: pa.Table) -> pa.Table:
        node = batch.column("node").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(node)), pa.array(node),
             batch.column("rank").cast(pa.int64()),
             pa.array([""] * len(node), pa.string())],
            names=["key", "node", "rank", "host"])

    def map_emit(batch: pa.Table) -> pa.Table:
        node = batch.column("node").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(node)), pa.array(node),
             pa.array(np.full(len(node), -1, dtype=np.int64)),
             batch.column("host")],
            names=["key", "node", "rank", "host"])

    def attach(group: pa.Table) -> pa.Table:
        node = group.column("node").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        rank = group.column("rank").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        host = np.asarray(group.column("host").to_pylist(), dtype=object)
        is_map = rank < 0
        name = dict(zip(node[is_map].tolist(), host[is_map].tolist()))
        keep = ~is_map
        return pa.Table.from_arrays(
            [pa.array([name[n] for n in node[keep].tolist()],
                      pa.string()),
             pa.array(rank[keep])],
            names=["host", "rank"])

    u = ranks.map_batches(rank_emit, batch_format="pyarrow",
                          zero_copy_batch=True).union(
        _host_map(links).map_batches(
            map_emit, batch_format="pyarrow", zero_copy_batch=True))
    return u.groupby("key").map_groups(attach, batch_format="pyarrow")


def host_cocitation(links, n_buckets: int = N_SHUFFLE_BUCKETS):
    """(host1, host2, n_docs): co-citation counts over TARGET hosts —
    for every unordered pair of distinct hosts, how many distinct
    source documents link to both (host1 < host2 lexicographically).
    The classic co-citation similarity signal (hosts repeatedly cited
    together are topically related — HITS/co-citation literature), and
    the host-level mirror detector's first stage.

    Scale shape, the butterfly recipe over the doc→host bipartite
    projection: (src, target-host) rows bucket by hash(src) % 256 —
    every row of a document co-locates — and each cell dedupes
    (src, host) via per-cell integer codes, enumerates within-doc host
    pairs with the vectorized run expansion, and partial-counts pairs
    by packed code; pair partials settle in ONE further
    hash(pair-string) % 256 exchange (host strings ride the pair rows,
    so no name re-attach exchange is needed).  The per-doc fan-out
    C(distinct hosts, 2) is the projection's true output size — the
    operator keeps the exact contract and documents the cost (cap a
    runaway doc's distinct-host count upstream if needed)."""

    def doc_emit(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_pylist()
        host = [host_of(u) for u in batch.column("href").to_pylist()]
        keep = [i for i, h in enumerate(host) if h]
        return pa.Table.from_arrays(
            [pa.array(_sbucket([src[i] for i in keep], n_buckets)),
             pa.array([src[i] for i in keep], pa.string()),
             pa.array([host[i] for i in keep], pa.string())],
            names=["bucket", "src", "host"])

    def pairs_cell(group: pa.Table) -> pa.Table:
        src = np.asarray(group.column("src").to_pylist(), dtype=object)
        host = np.asarray(group.column("host").to_pylist(),
                          dtype=object)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string()),
             pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["key2", "h1", "h2", "c"])
        if len(src) == 0:
            return empty
        us, si = np.unique(src, return_inverse=True)
        uh, hi = np.unique(host, return_inverse=True)
        # distinct (doc, host) as packed codes — np.unique returns them
        # sorted, so hosts are STRING-ascending within each doc run
        packed = np.unique(si.astype(np.int64) * len(uh) + hi)
        d = packed // len(uh)
        h = packed % len(uh)
        n = len(d)
        starts_mask = np.r_[True, d[1:] != d[:-1]]
        starts = np.flatnonzero(starts_mask)
        run_id = np.cumsum(starts_mask) - 1
        ends = np.r_[starts[1:], n][run_id]
        counts = ends - np.arange(n) - 1
        total = int(counts.sum())
        if total == 0:
            return empty
        lo_idx = np.repeat(np.arange(n), counts)
        excl = np.concatenate([[0], np.cumsum(counts)[:-1]])
        seq = np.arange(total) - np.repeat(excl, counts)
        hi_idx = lo_idx + 1 + seq
        ppair = h[lo_idx] * len(uh) + h[hi_idx]     # h1_code < h2_code
        uniq, cnt = np.unique(ppair, return_counts=True)
        h1 = uh[uniq // len(uh)]
        h2 = uh[uniq % len(uh)]
        comb = [a + "\x00" + b for a, b in zip(h1.tolist(), h2.tolist())]
        return pa.Table.from_arrays(
            [pa.array(_sbucket(comb, n_buckets)),
             pa.array(h1.tolist(), pa.string()),
             pa.array(h2.tolist(), pa.string()),
             pa.array(cnt.astype(np.int64))],
            names=["key2", "h1", "h2", "c"])

    def settle_cell(group: pa.Table) -> pa.Table:
        h1 = np.asarray(group.column("h1").to_pylist(), dtype=object)
        h2 = np.asarray(group.column("h2").to_pylist(), dtype=object)
        c = group.column("c").to_numpy(zero_copy_only=False)
        comb = np.asarray([a + "\x00" + b
                           for a, b in zip(h1.tolist(), h2.tolist())],
                          dtype=object)
        uniq, first, inv = np.unique(comb, return_index=True,
                                     return_inverse=True)
        tot = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tot, inv, c)
        return pa.Table.from_arrays(
            [pa.array(h1[first].tolist(), pa.string()),
             pa.array(h2[first].tolist(), pa.string()),
             pa.array(tot)],
            names=["host1", "host2", "n_docs"])

    return links.map_batches(doc_emit, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby("bucket").map_groups(pairs_cell,
                                      batch_format="pyarrow") \
        .groupby("key2").map_groups(settle_cell,
                                    batch_format="pyarrow")


def host_coupling(links, n_buckets: int = N_SHUFFLE_BUCKETS):
    """(host1, host2, inter, union, jaccard_micro): bibliographic
    coupling of SOURCE hosts — for every pair of hosts that link to at
    least one common target host, the intersection / union sizes of
    their distinct target-host sets and the integer-floor Jaccard in
    micro-units (inter·10⁶ // union).  The dual of ``host_cocitation``
    (coupling = shared OUT-references; co-citation = shared IN-
    references) and the standard first-pass mirror/syndication detector
    at host granularity.

    Shape: (src-host, target-host) rows bucket by hash(target) % 256 —
    every copy of a (sh, t) edge co-locates, so the cell dedupes
    globally and enumerates source-host pairs per target with the
    vectorized run expansion (pair partials = |A∩B| contributions);
    pair partials settle in one hash(pair) % 256 exchange.  Set sizes
    |A| travel as a host-keyed side table through the same settle
    exchange (emit-union on hash(host1-of-pair)… sizes are host-sized)
    — concretely: sizes attach by TWO chained bucketed emit-unions on
    the pair's host strings.  The per-target fan-out C(linking hosts,
    2) is the coupling projection's true output size (cap runaway
    targets upstream if needed — documented, never silently
    sampled)."""

    def edge_emit(batch: pa.Table) -> pa.Table:
        sh = [host_of(u) for u in batch.column("src").to_pylist()]
        dh = [host_of(u) for u in batch.column("href").to_pylist()]
        keep = [i for i, (a, b) in enumerate(zip(sh, dh)) if a and b]
        return pa.Table.from_arrays(
            [pa.array(_sbucket([dh[i] for i in keep], n_buckets)),
             pa.array([sh[i] for i in keep], pa.string()),
             pa.array([dh[i] for i in keep], pa.string())],
            names=["bucket", "sh", "dh"])

    def pairs_cell(group: pa.Table) -> pa.Table:
        sh = np.asarray(group.column("sh").to_pylist(), dtype=object)
        dh = np.asarray(group.column("dh").to_pylist(), dtype=object)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string()),
             pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["key2", "h1", "h2", "c"])
        if len(sh) == 0:
            return empty
        us, si = np.unique(sh, return_inverse=True)
        ud, di = np.unique(dh, return_inverse=True)
        # distinct (target, source) codes, target-major so each
        # target's sources form one run with source-code (= string)
        # ascending
        packed = np.unique(di.astype(np.int64) * len(us) + si)
        t = packed // len(us)
        s = packed % len(us)
        n = len(t)
        starts_mask = np.r_[True, t[1:] != t[:-1]]
        starts = np.flatnonzero(starts_mask)
        run_id = np.cumsum(starts_mask) - 1
        ends = np.r_[starts[1:], n][run_id]
        counts = ends - np.arange(n) - 1
        total = int(counts.sum())
        if total == 0:
            return empty
        lo_idx = np.repeat(np.arange(n), counts)
        excl = np.concatenate([[0], np.cumsum(counts)[:-1]])
        seq = np.arange(total) - np.repeat(excl, counts)
        hi_idx = lo_idx + 1 + seq
        ppair = s[lo_idx] * len(us) + s[hi_idx]    # h1_code < h2_code
        uniq, cnt = np.unique(ppair, return_counts=True)
        h1 = us[uniq // len(us)]
        h2 = us[uniq % len(us)]
        comb = [a + "\x00" + b for a, b in zip(h1.tolist(), h2.tolist())]
        return pa.Table.from_arrays(
            [pa.array(_sbucket(comb, n_buckets)),
             pa.array(h1.tolist(), pa.string()),
             pa.array(h2.tolist(), pa.string()),
             pa.array(cnt.astype(np.int64))],
            names=["key2", "h1", "h2", "c"])

    def settle_cell(group: pa.Table) -> pa.Table:
        h1 = np.asarray(group.column("h1").to_pylist(), dtype=object)
        h2 = np.asarray(group.column("h2").to_pylist(), dtype=object)
        c = group.column("c").to_numpy(zero_copy_only=False)
        comb = np.asarray([a + "\x00" + b
                           for a, b in zip(h1.tolist(), h2.tolist())],
                          dtype=object)
        uniq, first, inv = np.unique(comb, return_index=True,
                                     return_inverse=True)
        tot = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tot, inv, c)
        return pa.Table.from_arrays(
            [pa.array(h1[first].tolist(), pa.string()),
             pa.array(h2[first].tolist(), pa.string()),
             pa.array(tot)],
            names=["host1", "host2", "inter"])

    edges = links.map_batches(edge_emit, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    inter = edges.groupby("bucket").map_groups(
        pairs_cell, batch_format="pyarrow") \
        .groupby("key2").map_groups(settle_cell,
                                    batch_format="pyarrow")

    # per-source-host distinct target counts (the |A| sizes): the
    # target-bucketed cells each see every copy of a (sh, t) edge, so
    # a per-cell distinct-count partial sums exactly once per edge
    def size_partial(group: pa.Table) -> pa.Table:
        sh = np.asarray(group.column("sh").to_pylist(), dtype=object)
        dh = np.asarray(group.column("dh").to_pylist(), dtype=object)
        us, si = np.unique(sh, return_inverse=True)
        ud, di = np.unique(dh, return_inverse=True)
        packed = np.unique(si.astype(np.int64) * len(ud) + di)
        cnt = np.bincount((packed // len(ud)).astype(np.int64),
                          minlength=len(us)).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(us.tolist(), pa.string()), pa.array(cnt)],
            names=["host", "n_targets"])

    sizes = aggregate(
        edges.groupby("bucket").map_groups(
            size_partial, batch_format="pyarrow"),
        "host", ("sum", "n_targets"),
        names=["host", "n_targets"])  # materialized; read by both attaches
    # host-sized with no byte bound on the host strings: both attaches
    # stay on the bucketed route
    with_s2 = inter
    for end in ("1", "2"):
        with_s2 = join(with_s2, sizes, f"host{end}", right_on="host",
                       attach={"n_targets": f"s{end}"})

    def finish(batch: pa.Table) -> pa.Table:
        inter_ = _col_i64(batch, "inter")
        s1 = _col_i64(batch, "s1")
        s2 = _col_i64(batch, "s2")
        union_ = s1 + s2 - inter_
        jac = inter_ * np.int64(1_000_000) // union_
        return pa.Table.from_arrays(
            [batch.column("host1"), batch.column("host2"),
             pa.array(inter_), pa.array(union_), pa.array(jac)],
            names=["host1", "host2", "inter", "union", "jaccard_micro"])

    return with_s2.map_batches(finish, batch_format="pyarrow",
                               zero_copy_batch=True)
