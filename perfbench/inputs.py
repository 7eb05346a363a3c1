"""Seeded input generators and the expected results they imply.

Every input is a pure function of ``(workload, seed, scale)``.  Inputs
and expected results are built once, by tasks on the local Ray session,
and cached under ``<checkout>/.perfbench/cache`` keyed by all three, so the
oracle and golden computations stay outside every timed region.

Expected results:

* extraction workloads: one digest per document of the single-process
  oracle ``webtext.oracle.extract_document`` -- status plus the span
  sequence ``(kind, text, media_ref, offset)``;
* ``corpus_ops``: the survivor set of ``dedup_extracted`` and the
  pagerank/hits tables, from the independent reimplementations in
  ``tools/gen_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# bump when a generator changes so cached inputs are rebuilt
GEN_VERSION = 1

HTML_DOCS = 4000            # html_bulk corpus, one run_extraction round
HTML_SHARD_ROWS = 1000
TEXT_LANDINGS = 18          # text_incremental: more than a run lands
TEXT_SHARDS_PER_LANDING = 2
TEXT_SHARD_ROWS = 20
DEDUP_DOCS = 1500           # corpus_ops: extraction output to dedup
DEDUP_SHARD_ROWS = 500
LINEITEM_ROWS = 20_000      # corpus_ops: part->supplier table
N_PARTS, N_SUPPLIERS = 1500, 100

_WORDS = (
    "river stone lantern copper meadow harbor orchard violet ledger marble "
    "engine worker cluster block arrow shard spill actor stage lane tensor "
    "corpus token shingle bucket probe anchor window filter column vector "
    "signal market garden bridge castle forest valley summit canyon island "
    "morning evening winter summer autumn spring quiet bright steady rapid"
).split()


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(["perfbench", str(seed)]
                                  + [str(k) for k in key]))


def _sentence(rng: random.Random) -> str:
    n = rng.randint(8, 16)
    return " ".join(rng.choice(_WORDS) for _ in range(n)).capitalize() + "."


def _paragraph(rng: random.Random, lo: int = 120, hi: int = 190) -> str:
    target = rng.randint(lo, hi)
    out = _sentence(rng)
    while len(out) < target:
        out += " " + _sentence(rng)
    return out


def _near_copy(rng: random.Random, text: str, edits: int = 2) -> str:
    """``text`` with a few words replaced: similar enough to be a
    near-duplicate paragraph (E11) or document (MinHash-LSH)."""
    words = text.split(" ")
    for _ in range(edits):
        words[rng.randrange(len(words))] = rng.choice(_WORDS)
    return " ".join(words)


def _span(kind: str, text: str, offset: int = 0) -> dict:
    return {"kind": kind, "text": text, "media_ref": "", "offset": offset}


# --------------------------------------------------------------------------
# html_bulk: even rows ~8 KB hot-domain pages, odd rows cycle through the
# package's fixture families (the bench_corpus._gen_batch shape)
# --------------------------------------------------------------------------

_BOILER = (
    "<header><nav>home products about contact sitemap login</nav></header>"
    "<aside class=\"sidebar\">trending now popular posts archive</aside>"
    "<div class=\"ad\">sponsored message limited offer</div>"
    "<script>var t = loadAnalytics('x');</script>"
    "<style>.x { color: red; }</style>"
    "<footer>copyright legal terms privacy imprint</footer>")


def _hot_page(seed: int, i: int) -> dict:
    rng = _rng(seed, "hot", i)
    paras = "".join(f"<p>{_paragraph(rng, 260, 340)}</p>"
                    for _ in range(24))
    html = (f"<html><head><title>hot {i}</title></head><body>{_BOILER}"
            f"<main>{paras}</main></body></html>")
    return {"doc_id": f"https://hot.example.com/page/{i}",
            "spans": [_span("html", html)]}


def html_doc(seed: int, j: int) -> dict:
    from webtext.synth import FAMILY_GENERATORS

    if j % 2 == 0:
        return _hot_page(seed, j // 2)
    families = list(FAMILY_GENERATORS)
    k = j // 2
    return FAMILY_GENERATORS[families[k % len(families)]](
        seed, k // len(families))


# --------------------------------------------------------------------------
# text_incremental: text / markdown / PDF bodies, zero HTML spans, many
# paragraphs with near-duplicates, all under the E11 budget
# --------------------------------------------------------------------------

def _dup_body(rng: random.Random) -> list[str]:
    paras = [_paragraph(rng) for _ in range(rng.randint(6, 12))]
    for _ in range(rng.randint(2, 5)):
        paras.insert(rng.randint(1, len(paras)),
                     _near_copy(rng, rng.choice(paras)))
    return paras


def text_doc(seed: int, landing: int, i: int) -> dict:
    rng = _rng(seed, "inc", landing, i)
    paras = _dup_body(rng)
    kind = ("text", "markdown", "pdf")[i % 3]
    doc_id = f"https://inc.example.org/{kind}/{landing}-{i}"
    if kind == "text":
        payload = "\n\n".join(paras)
    elif kind == "markdown":
        payload = (f"Title: note {landing}-{i}\n"
                   f"URL Source: https://origin.example.org/{i}\n"
                   f"Markdown Content:\n" + "\n\n".join(paras)
                   + "\n[a link](https://link.example.org/x) more words\n")
    else:
        cut = len(paras) // 2
        payload = "\f".join(["\n\n".join(paras[:cut]),
                             "\n\n".join(paras[cut:])])
    return {"doc_id": doc_id, "spans": [_span(kind, payload)]}


# --------------------------------------------------------------------------
# corpus_ops: near-duplicate text documents + a skewed lineitem table
# --------------------------------------------------------------------------

def dedup_doc(seed: int, i: int) -> dict:
    rng = _rng(seed, "dd", i)
    if i % 4 == 3:
        # near-copy of an earlier document: a MinHash-LSH pair
        src = _rng(seed, "dd", i - 1 - rng.randrange(min(i, 40)))
        paras = [_paragraph(src) for _ in range(4)]
        paras = [_near_copy(rng, p, 1) for p in paras]
    else:
        paras = [_paragraph(rng) for _ in range(4)]
    return {"doc_id": f"https://dd.example.net/doc/{i}",
            "spans": [_span("text", "\n\n".join(paras))]}


def lineitem_table(seed: int, n_rows: int) -> pa.Table:
    """Part->supplier rows; supplier popularity is Zipf-skewed."""
    g = np.random.default_rng(seed)
    w = 1.0 / np.arange(1, N_SUPPLIERS + 1) ** 1.1
    supp = g.choice(N_SUPPLIERS, size=n_rows, p=w / w.sum()) + 1
    part = g.integers(1, N_PARTS + 1, size=n_rows)
    return pa.table({"l_partkey": pa.array(part, pa.int64()),
                     "l_suppkey": pa.array(supp, pa.int64())})


# --------------------------------------------------------------------------
# oracle digests
# --------------------------------------------------------------------------

def span_digest(status: str, spans) -> str:
    """Digest of the per-document contract: status plus the span
    sequence (kind, text, media_ref, offset) in output order."""
    body = json.dumps([status, [[s["kind"], s["text"], s["media_ref"],
                                 s["offset"]] for s in spans]],
                      ensure_ascii=False, separators=(",", ":"))
    return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


def _write_shard(path: str, docs: list[dict], keep_text: bool) -> dict:
    """Write one input shard; returns {doc_id: [digest, status]} from the
    single-process oracle, plus the joined text spans when ``keep_text``
    (the dedup golden needs them)."""
    from webtext.oracle import extract_document
    from webtext.schema import INPUT_SCHEMA

    pq.write_table(pa.Table.from_pylist(docs, schema=INPUT_SCHEMA), path)
    out = {}
    for d in docs:
        r = extract_document(d["doc_id"], d["spans"])
        out[d["doc_id"]] = [span_digest(r.status, r.spans), r.status]
        if keep_text:
            out[d["doc_id"]].append("\n".join(
                s["text"] for s in r.spans if s["kind"] == "text"))
    return out


def _shard_task(kind: str, seed: int, args: tuple, path: str) -> dict:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if kind == "html":
        lo, hi = args
        docs = [html_doc(seed, j) for j in range(lo, hi)]
    elif kind == "text":
        landing, lo, hi = args
        docs = [text_doc(seed, landing, i) for i in range(lo, hi)]
    else:
        lo, hi = args
        docs = [dedup_doc(seed, i) for i in range(lo, hi)]
    return _write_shard(path, docs, keep_text=kind == "dedup")


def load_gen_goldens():
    """The repo's independent golden implementations, imported by path
    (``tools/`` is not a package)."""
    import importlib.util

    path = os.path.join(os.getcwd(), "tools", "gen_goldens.py")
    spec = importlib.util.spec_from_file_location("gen_goldens", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _surrogate_id(doc_id: str) -> int:
    """The 63-bit md5 surrogate id ``dedup_extracted`` keys documents by,
    re-derived from its spec as the goldens do."""
    return int.from_bytes(hashlib.md5(doc_id.encode("utf-8")).digest()[:8],
                          "big") & 0x7FFFFFFFFFFFFFFF


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(math.ceil(n * scale)))


class Inputs:
    """Cached inputs of one (workload, seed, scale).

    Once ``build()`` returns: ``dir`` holds the shards (``corpus/`` or
    ``landings/NNN/``) and, for ``corpus_ops``, ``sf/lineitem.parquet``
    and the golden results; ``expected`` maps doc_id to [digest, status]
    (plus the joined text for ``corpus_ops``)."""

    def __init__(self, workload: str, seed: int, scale: float,
                 cache_root: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        tag = f"{workload}-v{GEN_VERSION}-s{seed}-x{scale:g}"
        self.dir = os.path.join(cache_root, tag)

    # each plan: list of (task kind, args, relative shard path)
    def _plan_html_bulk(self):
        n = _scaled(HTML_DOCS, self.scale, 40)
        rows = _scaled(HTML_SHARD_ROWS, self.scale, 10)
        return [("html", (lo, min(n, lo + rows)),
                 f"corpus/part-{lo // rows:05d}.parquet")
                for lo in range(0, n, rows)]

    def _plan_text_incremental(self):
        n = _scaled(TEXT_LANDINGS, self.scale, 6)
        rows = _scaled(TEXT_SHARD_ROWS, self.scale, 3)
        return [("text", (landing, s * rows, (s + 1) * rows),
                 f"landings/{landing:03d}/inc-{landing:03d}-{s}.parquet")
                for landing in range(n)
                for s in range(TEXT_SHARDS_PER_LANDING)]

    def _plan_corpus_ops(self):
        n = _scaled(DEDUP_DOCS, self.scale, 40)
        rows = _scaled(DEDUP_SHARD_ROWS, self.scale, 10)
        return [("dedup", (lo, min(n, lo + rows)),
                 f"corpus/part-{lo // rows:05d}.parquet")
                for lo in range(0, n, rows)]

    def build(self) -> "Inputs":
        if not os.path.exists(os.path.join(self.dir, "_COMPLETE")):
            self._generate()
        with open(os.path.join(self.dir, "expected.json"),
                  encoding="utf-8") as f:
            self.expected = json.load(f)
        return self

    def _generate(self) -> None:
        import ray

        tmp = f"{self.dir}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        plan = getattr(self, f"_plan_{self.workload}")()
        task = ray.remote(num_cpus=1)(_shard_task)
        expected: dict = {}
        for part in ray.get([task.remote(kind, self.seed, args,
                                         os.path.join(tmp, rel))
                             for kind, args, rel in plan]):
            expected.update(part)
        if self.workload == "corpus_ops":
            self._corpus_ops_goldens(tmp, expected)
        with open(os.path.join(tmp, "expected.json"), "w",
                  encoding="utf-8") as f:
            json.dump(expected, f)
        with open(os.path.join(tmp, "_COMPLETE"), "w") as f:
            f.write("ok")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.replace(tmp, self.dir)

    def _corpus_ops_goldens(self, tmp: str, expected: dict) -> None:
        gg = load_gen_goldens()

        sf = os.path.join(tmp, "sf")
        os.makedirs(sf)
        pq.write_table(
            lineitem_table(self.seed,
                           _scaled(LINEITEM_ROWS, self.scale, 200)),
            os.path.join(sf, "lineitem.parquet"))
        pq.write_table(gg.golden_pagerank(sf),
                       os.path.join(tmp, "golden_pagerank.parquet"))
        pq.write_table(gg.golden_hits(sf),
                       os.path.join(tmp, "golden_hits.parquet"))
        kept = sorted((_surrogate_id(doc_id), doc_id, text)
                      for doc_id, (_d, status, text) in expected.items()
                      if status in ("ok", "timeout"))
        pairs = gg.golden_minhash_pairs([k[0] for k in kept],
                                        [k[2] for k in kept])
        uf = gg.UnionFind()
        for a, b in pairs:
            uf.union(a, b)
        dropped = {x for x in uf.p if uf.find(x) != x}
        with open(os.path.join(tmp, "golden_dedup.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"survivors": sorted(d for i, d, _t in kept
                                           if i not in dropped)}, f)
