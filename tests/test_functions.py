"""Training-data operator tests: dedup, ANN, text stats, media stubs."""

import numpy as np
import pyarrow as pa
import pytest

from webtext.functions import ann, dedup, textstats
from webtext.functions.media import FakeDecoder, media_features

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


# -- dedup ------------------------------------------------------------------

def test_exact_dedup_keeps_first(ray_session):
    import ray.data

    t = pa.table({"doc_id": pa.array([3, 1, 2], pa.int64()),
                  "text": ["same", "same", "other"]})
    out = dedup.exact_dedup(ray.data.from_arrow(t)).take_all()
    got = {r["text"]: r["doc_id"] for r in out}
    assert got == {"same": 1, "other": 2}


def test_minhash_signature_deterministic_and_similar():
    a = "the quick brown fox jumps over the lazy dog"
    b = "the quick brown fox jumps over the lazy cat"
    c = "completely different words entirely here now"
    sa, sb, sc = (dedup.minhash_signature(x) for x in (a, b, c))
    assert (sa == dedup.minhash_signature(a)).all()
    agree_ab = (sa == sb).mean()
    agree_ac = (sa == sc).mean()
    assert agree_ab > 0.5 > agree_ac


def test_minhash_lsh_finds_planted_near_dups(ray_session):
    import ray.data

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    near = base.replace("upsilon", "psi")
    rows = [{"doc_id": 1, "text": base}, {"doc_id": 2, "text": near},
            {"doc_id": 3, "text": "entirely unrelated text with other "
                                  "tokens and no overlap at all ok"}]
    ds = ray.data.from_items(rows)
    pairs = dedup.minhash_lsh_pairs(ds, threshold=0.5).take_all()
    got = {(r["left_id"], r["right_id"]) for r in pairs}
    assert (1, 2) in got
    assert all(3 not in p for p in got)


def test_simhash_near_texts_close_hamming():
    a = "the quick brown fox jumps over the lazy dog " * 3
    b = a.replace("dog", "cat")
    c = "totally different content with other words " * 3
    ha, hb, hc = (dedup.simhash64(x) for x in (a, b, c))
    def ham(x, y):
        return bin((x ^ y) & ((1 << 64) - 1)).count("1")
    assert ham(ha, hb) < ham(ha, hc)
    assert dedup.simhash64(a) == ha  # deterministic


def test_simhash_dup_pairs_on_planted(ray_session):
    import ray.data

    a = "the quick brown fox jumps over the lazy dog " * 3
    rows = [{"doc_id": 1, "text": a},
            {"doc_id": 2, "text": a.replace("dog", "cat")},
            {"doc_id": 3, "text": "totally different content here " * 3}]
    pairs = dedup.simhash_dup_pairs(
        ray.data.from_items(rows), max_hamming=16).take_all()
    got = {(r["left_id"], r["right_id"]) for r in pairs}
    assert (1, 2) in got and (1, 3) not in got


def test_word_jaccard_int_contract():
    assert dedup.word_jaccard("a b c", "b c d") == (2, 4)
    assert dedup.word_jaccard("a", "a") == (1, 1)


def test_ngram_jaccard_pairs_consecutive_only(ray_session, docs_ds):
    out = dedup.ngram_jaccard_pairs(docs_ds).take_all()
    assert out, "expected some high-jaccard consecutive pairs"
    for r in out:
        assert r["right_id"] == r["left_id"] + 1
        assert r["inter_n"] * 10 >= r["union_n"] * 3


def test_connected_components_chain(ray_session):
    import ray.data

    pairs = ray.data.from_items(
        [{"left_id": 1, "right_id": 2}, {"left_id": 2, "right_id": 3},
         {"left_id": 7, "right_id": 9}])
    labels = {r["node"]: r["label"]
              for r in dedup.connected_components(pairs).take_all()}
    assert labels == {1: 1, 2: 1, 3: 1, 7: 7, 9: 7}


def test_dedup_apply_keeps_min_id_survivors(ray_session):
    import ray.data

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base.replace("upsilon", "psi")},
        {"doc_id": 3, "text": base.replace("alpha", "omega")},
        {"doc_id": 4, "text": "entirely unrelated text with other tokens"},
        {"doc_id": 5, "text": "second unrelated document of other words"},
    ]
    surv = sorted(r["doc_id"] for r in dedup.dedup_apply(
        ray.data.from_items(rows), 0.5).take_all())
    assert surv == [1, 4, 5]

    # no duplicates at all → identity
    surv2 = sorted(r["doc_id"] for r in dedup.dedup_apply(
        ray.data.from_items(rows[3:]), 0.5).take_all())
    assert surv2 == [4, 5]


def test_dedup_keep_longest_prefers_content(ray_session):
    """Same planted cluster as dedup_apply's test, but doc 2 is made
    the LONGEST member — keep-longest must keep 2 where keep-min-id
    keeps 1; ties on length fall back to min doc_id."""
    import ray.data

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " extra trailing tail words"},
        {"doc_id": 3, "text": base.replace("alpha", "omega")},
        {"doc_id": 4, "text": "entirely unrelated text with other tokens"},
        {"doc_id": 5, "text": "second unrelated document of other words"},
    ]
    surv = sorted(r["doc_id"] for r in dedup.dedup_keep_longest(
        ray.data.from_items(rows), 0.5).take_all())
    assert surv == [2, 4, 5]

    # equal lengths → min doc_id, i.e. dedup_apply's representative
    rows_eq = [
        {"doc_id": 7, "text": base},
        {"doc_id": 6, "text": base.replace("upsilon", "psiilon")[
            :len(base)]},
        {"doc_id": 9, "text": "entirely unrelated text with other tokens"},
    ]
    surv_eq = sorted(r["doc_id"] for r in dedup.dedup_keep_longest(
        ray.data.from_items(rows_eq), 0.5).take_all())
    assert surv_eq == [6, 9]


# -- ANN --------------------------------------------------------------------

def test_knn_brute_matches_numpy(ray_session, emb_ds):
    import pyarrow.parquet as pq

    q = ann.get_query_vector(emb_ds, 0)
    got = [r["vec_id"] for r in ann.knn_brute(emb_ds, q, k=10).take_all()]

    t = pq.read_table(f"{SF}/embeddings.parquet")
    M = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist())
    sims = ann._cos(M, q)
    sims[ids == 0] = -np.inf
    want = ids[np.lexsort((ids, -sims))[:10]].tolist()
    assert got == want


def test_knn_ivf_recall_vs_brute(ray_session, emb_ds):
    q = ann.get_query_vector(emb_ds, 0)
    brute = {r["vec_id"] for r in ann.knn_brute(emb_ds, q, k=10).take_all()}
    approx = {r["vec_id"] for r in
              ann.knn_ivf(emb_ds, q, k=10, nlist=8, nprobe=4).take_all()}
    assert len(approx) == 10
    assert len(brute & approx) / 10 >= 0.5     # recall bound for nprobe=4/8


def test_cosine_dup_pairs_symmetric_free(ray_session, emb_ds):
    pairs = ann.cosine_dup_pairs(emb_ds, threshold=0.4).take_all()
    seen = set()
    for r in pairs:
        assert r["left_id"] < r["right_id"]
        key = (r["left_id"], r["right_id"])
        assert key not in seen
        seen.add(key)


def test_cosine_ops_route_to_lsh_above_size_gate(ray_session, emb_ds):
    """Above exact_max_rows the broadcast designs must route to the
    bucketed LSH paths: same schema, output ⊆ the exact output."""
    exact = {(r["left_id"], r["right_id"]) for r in
             ann.cosine_dup_pairs(emb_ds, 0.4).take_all()}
    routed = {(r["left_id"], r["right_id"]) for r in
              ann.cosine_dup_pairs(emb_ds, 0.4, exact_max_rows=10)
              .take_all()}
    assert routed and routed <= exact

    exact_nn = {r["vec_id"]: r["nn_id"] for r in
                ann.nearest_neighbor_ids(emb_ds).take_all()}
    routed_nn = {r["vec_id"]: r["nn_id"] for r in
                 ann.nearest_neighbor_ids(emb_ds, exact_max_rows=10)
                 .take_all()}
    assert set(routed_nn) == set(exact_nn)      # one row per vector
    hits = sum(routed_nn[v] == exact_nn[v] for v in exact_nn
               if routed_nn[v] != -1)
    answered = sum(1 for v in routed_nn.values() if v != -1)
    assert answered > 0 and hits / answered >= 0.3   # approximate path


def test_kmeans_fit_distributed_deterministic(ray_session, emb_ds):
    """Fixed-point partial sums → bit-identical centroids across runs
    (and, by associativity, across any block split)."""
    a = ann.kmeans_fit_distributed(emb_ds, nlist=8)
    b = ann.kmeans_fit_distributed(
        emb_ds.repartition(7), nlist=8)
    assert a.shape == b.shape
    assert (a == b).all()


# -- text stats -------------------------------------------------------------

def test_token_count_matches_python_split(ray_session, docs_ds):
    out = {r["doc_id"]: r["n_tokens"]
           for r in textstats.token_count(docs_ds).take_all()}
    rows = docs_ds.take(20)
    for r in rows:
        assert out[r["doc_id"]] == len(r["text"].split(" "))


def test_chunk_documents_semantics(ray_session):
    """Crafted docs: short (1 chunk), exact-stride boundary, long with
    overlap, multibyte UTF-8, consecutive spaces (empty tokens)."""
    import ray.data

    long_text = " ".join(f"w{i}" for i in range(100))
    docs = [
        {"doc_id": 1, "text": "hello world"},
        {"doc_id": 2, "text": long_text},
        {"doc_id": 3, "text": "héllo  wörld é"},   # multibyte + empties
    ]
    out = textstats.chunk_documents(
        ray.data.from_items(docs), chunk_tokens=64, overlap=16).take_all()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    for rows in by_doc.values():
        rows.sort(key=lambda r: r["chunk_id"])
    assert [r["chunk_text"] for r in by_doc[1]] == ["hello world"]
    toks = long_text.split(" ")
    assert [r["chunk_text"] for r in by_doc[2]] == [
        " ".join(toks[0:64]), " ".join(toks[48:100]),
        " ".join(toks[96:100])]
    assert [r["n_chunk_tokens"] for r in by_doc[2]] == [64, 52, 4]
    assert [r["chunk_text"] for r in by_doc[3]] == ["héllo  wörld é"]


def test_chunk_documents_invariant_under_repartition(ray_session, docs_ds):
    a = sorted((r["doc_id"], r["chunk_id"], r["chunk_text"])
               for r in textstats.chunk_documents(docs_ds).take_all())
    b = sorted((r["doc_id"], r["chunk_id"], r["chunk_text"])
               for r in textstats.chunk_documents(
                   docs_ds.repartition(7)).take_all())
    assert a == b and a


def test_quality_score_columns_and_sanity(ray_session, docs_ds):
    out = textstats.quality_score(docs_ds).take(5)
    for r in out:
        assert set(r) == {"doc_id", "n_chars_q", "n_tokens", "n_stop",
                          "n_uniq"}
        assert r["n_uniq"] <= r["n_tokens"]
        assert r["n_stop"] <= r["n_tokens"]


def test_lang_id_stopword_heuristic(ray_session):
    import ray.data

    rows = [{"doc_id": 1, "text": "the cat sat on the mat in a hat"},
            {"doc_id": 2, "text": "el gato y la casa en que vive"},
            {"doc_id": 3, "text": "zzz qqq www"}]
    out = {r["doc_id"]: r["pred_lang"]
           for r in textstats.lang_id(ray.data.from_items(rows)).take_all()}
    assert out == {1: "en", 2: "es", 3: "und"}


def test_gopher_quality_rule_bits(ray_session):
    """Each Gopher rule bit fires on a doc constructed to fail exactly
    that rule (plus the bits its construction necessarily implies)."""
    import ray.data

    good = "the " + " ".join(f"word{i:04d}" for i in range(40))
    rows = [
        {"doc_id": 1, "text": good},                      # passes all
        {"doc_id": 2, "text": "the tiny doc"},            # bit 1 (short)
        # 30 tokens of 2 chars → mean word length 2 < 4.2 → bit 2
        {"doc_id": 3, "text": "ab " * 29 + "ab"},
        # 40 distinct long-enough tokens, no stopword → bit 4
        {"doc_id": 4, "text": " ".join(f"xord{i:04d}" for i in range(40))},
        # 40 tokens, 1 distinct, has stopword? no → mask includes 8
        {"doc_id": 5, "text": "the the the " + "the " * 36 + "the"},
    ]
    out = {r["doc_id"]: r for r in textstats.gopher_quality(
        ray.data.from_items(rows)).take_all()}
    assert out[1]["fail_mask"] == 0 and out[1]["keep"] == 1
    assert out[2]["fail_mask"] & 1
    assert out[3]["fail_mask"] & 2
    assert out[4]["fail_mask"] == 4          # long distinct words, no stop
    assert out[5]["fail_mask"] & 8 and out[5]["keep"] == 0


def test_lang_mismatch_flags_disagreements(ray_session):
    import ray.data

    rows = [{"doc_id": 1, "lang": "en",
             "text": "the cat sat on the mat in a hat"},
            {"doc_id": 2, "lang": "fr",
             "text": "the dog ran to the park in a coat"}]
    out = textstats.lang_mismatch(ray.data.from_items(rows)).take_all()
    assert [(r["doc_id"], r["lang"], r["pred_lang"]) for r in out] \
        == [(2, "fr", "en")]


def test_tokenizer_fertility_integer_ratio(ray_session):
    import ray.data

    rows = [{"text": "ab1 cd", "lang": "en"},   # ws=2, bpe: 'ab','1',' cd' =4? count
            {"text": "xy", "lang": "en"}]
    out = textstats.tokenizer_fertility(
        ray.data.from_items(rows)).take_all()
    assert len(out) == 1
    r = out[0]
    assert r["n_docs"] == 2 and r["ws_tokens"] == 3
    assert r["fertility_micro"] == r["bpe_tokens"] * 1_000_000 // 3


def test_source_stats_block_split_invariant(ray_session):
    import ray.data

    rows = [{"text": "a b", "lang": "en", "source": "s1"},
            {"text": "c d e", "lang": "de", "source": "s1"},
            {"text": "f", "lang": "en", "source": "s2"}] * 4
    a = sorted(tuple(sorted(r.items())) for r in textstats.source_stats(
        ray.data.from_items(rows)).take_all())
    b = sorted(tuple(sorted(r.items())) for r in textstats.source_stats(
        ray.data.from_items(rows).repartition(5)).take_all())
    assert a == b
    d = {dict(t)["source"]: dict(t) for t in a}
    assert d["s1"]["n_docs"] == 8 and d["s1"]["n_langs"] == 2
    assert d["s2"]["n_docs"] == 4 and d["s2"]["n_langs"] == 1
    assert d["s1"]["sum_tokens"] == (2 + 3) * 4


def test_fingerprint_is_md5(ray_session):
    import hashlib

    import ray.data

    rows = [{"doc_id": 1, "text": "hello world"}]
    out = textstats.fingerprint(ray.data.from_items(rows)).take_all()
    assert out[0]["fp"] == hashlib.md5(b"hello world").hexdigest()


# -- media ------------------------------------------------------------------

def test_fake_decoder_deterministic():
    d = FakeDecoder()
    a = d.decode("media://x/1")
    assert a == d.decode("media://x/1")
    assert a != d.decode("media://x/2")
    assert a["width"] >= 160 and a["height"] >= 120


def test_auto_decoder_probe():
    """auto_decoder_cls picks PilDecoder iff PIL imports, else Fake."""
    from webtext.functions.media import (PilDecoder, auto_decoder_cls)

    try:
        import PIL  # noqa: F401
        have_pil = True
    except ImportError:
        have_pil = False
    cls = auto_decoder_cls()
    assert cls is (PilDecoder if have_pil else FakeDecoder)


def test_pil_decoder_inline_png():
    """Real-codec path: decode an inline base64 PNG (skipped when the
    PIL wheel is absent — this container ships no codecs)."""
    pytest.importorskip("PIL")
    import base64
    import io

    from PIL import Image

    from webtext.functions.media import PilDecoder

    buf = io.BytesIO()
    Image.new("RGB", (7, 5)).save(buf, format="PNG")
    ref = "inline:" + base64.b64encode(buf.getvalue()).decode()
    feats = PilDecoder().decode(ref)
    assert (feats["width"], feats["height"], feats["n_frames"]) == (7, 5, 1)


def test_pil_decoder_opaque_ref_is_seam():
    pytest.importorskip("PIL")
    from webtext.functions.media import PilDecoder

    with pytest.raises(NotImplementedError):
        PilDecoder().decode("media://bucket/key")


def test_png_inline_decoder_real_bytes():
    """The no-wheel REAL decode path: encode_png emits a structurally
    valid PNG (signature, CRCs, inflatable IDAT with exact scanline
    byte count) and PngInlineDecoder reads back the true dims."""
    import base64
    import struct
    import zlib

    from webtext.functions.media import PngInlineDecoder, encode_png

    raw = encode_png(9, 4, seed=7)
    assert raw[:8] == b"\x89PNG\r\n\x1a\n"
    # independent structural walk: inflate IDAT, check scanline bytes
    (ln,) = struct.unpack(">I", raw[8:12])
    idat_at = 8 + 12 + ln
    (iln,) = struct.unpack(">I", raw[idat_at:idat_at + 4])
    assert raw[idat_at + 4:idat_at + 8] == b"IDAT"
    pixels = zlib.decompress(raw[idat_at + 8:idat_at + 8 + iln])
    assert len(pixels) == 4 * (1 + 9)       # height × (filter + width)
    ref = "inline:" + base64.b64encode(raw).decode()
    feats = PngInlineDecoder().decode(ref)
    assert (feats["width"], feats["height"],
            feats["n_frames"]) == (9, 4, 1)
    # determinism + seed sensitivity
    assert encode_png(9, 4, seed=7) == raw
    assert encode_png(9, 4, seed=8) != raw


def test_png_inline_decoder_rejects_corruption():
    import base64

    from webtext.functions.media import PngInlineDecoder, encode_png

    raw = bytearray(encode_png(3, 3))
    raw[20] ^= 0xFF                          # flip a byte inside IHDR
    ref = "inline:" + base64.b64encode(bytes(raw)).decode()
    with pytest.raises(ValueError, match="CRC"):
        PngInlineDecoder().decode(ref)
    with pytest.raises(ValueError, match="signature"):
        PngInlineDecoder().decode(
            "inline:" + base64.b64encode(b"GIF89a notapng").decode())
    with pytest.raises(NotImplementedError):
        PngInlineDecoder().decode("media://bucket/key")


def test_png_inline_decoder_actl_frames():
    """APNG frame count comes from the acTL chunk when present."""
    import base64
    import struct
    import zlib as _z

    from webtext.functions.media import PngInlineDecoder, encode_png

    raw = encode_png(2, 2)

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", _z.crc32(tag + payload)))

    # splice an acTL (num_frames=5) right after IHDR
    ihdr_end = 8 + 12 + 13
    apng = (raw[:ihdr_end] + chunk(b"acTL", struct.pack(">II", 5, 0))
            + raw[ihdr_end:])
    feats = PngInlineDecoder().decode(
        "inline:" + base64.b64encode(apng).decode())
    assert feats["n_frames"] == 5


def test_pil_agrees_with_png_inline_decoder():
    """When the PIL wheel exists, both real decoders must read the
    same dims from the same fixture bytes (skipped when absent)."""
    pytest.importorskip("PIL")
    from webtext.functions.media import (PilDecoder, PngInlineDecoder,
                                         inline_png_rows)

    pil, png = PilDecoder(), PngInlineDecoder()
    for row in inline_png_rows(8):
        for s in row["spans"]:
            if s["kind"] == "media":
                assert pil.decode(s["media_ref"]) == \
                    png.decode(s["media_ref"])


def test_media_features_plumbing(ray_session):
    from webtext.pipelines import run_pipeline_in_memory
    from webtext.synth import generate_docs

    docs = generate_docs(n_per_family=4, seed=42,
                         families=["interleaved-media", "media-only"])
    extracted = run_pipeline_in_memory(docs)
    feats = media_features(extracted, concurrency=(1, 2)).take_all()
    assert feats
    media_refs_in = {
        s["media_ref"] for d in docs for s in d["spans"]
        if s["media_ref"]}
    assert {f["media_ref"] for f in feats} == media_refs_in
    for f in feats:
        assert f["kind"] == "media"
        assert f["n_frames"] >= 1


def test_exact_dedup_hashed_matches_text_dedup(ray_session, docs_ds):
    by_text = {(r["doc_id"]) for r in dedup.exact_dedup(docs_ds).take_all()}
    by_hash = {(r["doc_id"]) for r in
               dedup.exact_dedup_hashed(docs_ds).take_all()}
    assert by_text == by_hash          # md5 keying must pick same winners


def test_dedup_apply_embeddings_survivors(ray_session, emb_ds):
    surv = ann.dedup_apply_embeddings(emb_ds, 0.4).take_all()
    ids = sorted(r["vec_id"] for r in surv)
    assert ids and len(ids) == len(set(ids))
    # every dropped vector belongs to some cluster whose min-id survived:
    pairs = ann.lsh_cosine_dup_pairs(emb_ds, 0.4).take_all()
    labels = {r["node"]: r["label"] for r in dedup.connected_components(
        __import__("ray").data.from_items(
            [{"left_id": p["left_id"], "right_id": p["right_id"]}
             for p in pairs])).take_all()}
    dropped = {n for n, l in labels.items() if n != l}
    assert set(ids).isdisjoint(dropped)
    assert {l for l in labels.values()} <= set(ids) | dropped


def test_sample_by_hash_deterministic_and_salted(ray_session, docs_ds):
    a = sorted(r["doc_id"] for r in
               textstats.sample_by_hash(docs_ds, 512, "s0").take_all())
    b = sorted(r["doc_id"] for r in
               textstats.sample_by_hash(docs_ds, 512, "s0").take_all())
    assert a == b and 0 < len(a) < 500       # ~1/8 of 500
    c = sorted(r["doc_id"] for r in
               textstats.sample_by_hash(docs_ds, 512, "other").take_all())
    assert a != c                            # salt changes the subset
    full = sorted(r["doc_id"] for r in
                  textstats.sample_by_hash(docs_ds, 4096, "s0").take_all())
    assert len(full) == 500                  # keep-all threshold


def test_pack_sequences_budget_and_invariance(ray_session, docs_ds):
    rows = textstats.pack_sequences(docs_ds, token_budget=256).take_all()
    assert len(rows) == 500                  # every doc packed once
    from collections import defaultdict
    totals = defaultdict(int)
    for r in rows:
        totals[(r["bucket"], r["pack_id"])] += r["n_tokens"]
    for (b, p), tot in totals.items():
        # packs respect the budget unless a single oversized doc owns it
        members = [r for r in rows
                   if (r["bucket"], r["pack_id"]) == (b, p)]
        assert tot <= 256 or len(members) == 1
    again = textstats.pack_sequences(
        docs_ds.repartition(7), token_budget=256).take_all()
    key = lambda r: (r["bucket"], r["pack_id"], r["doc_id"])
    assert sorted(map(key, rows)) == sorted(map(key, again))


def test_corpus_quality_filter_predicate(ray_session):
    import ray.data

    rows = [
        {"doc_id": 1, "text": "the cat sat on the mat and the dog ran off"},
        {"doc_id": 2, "text": "short text"},                      # too short
        {"doc_id": 3, "text": "el perro y el gato en la casa que "
                              "de la y el que de en la y el que"},  # es
        {"doc_id": 4, "text": "word " * 19 + "word"},     # low uniq ratio
    ]
    kept = {r["doc_id"] for r in textstats.corpus_quality_filter(
        ray.data.from_items(rows)).take_all()}
    assert kept == {1}


def test_media_resize_and_frame_sample(ray_session):
    import ray.data

    from webtext.functions.media import frame_sample, media_resize
    from webtext.schema import SPAN_STRUCT

    spans = [
        {"kind": "media", "text": "", "media_ref": "img://a", "offset": 0},
        {"kind": "text", "text": "hello", "media_ref": "", "offset": 1},
        {"kind": "media", "text": "", "media_ref": "vid://b", "offset": 2},
    ]
    t = pa.Table.from_pylist(
        [{"doc_id": "d1", "spans": spans, "status": "ok"}],
        schema=pa.schema([("doc_id", pa.string()),
                          ("spans", pa.list_(SPAN_STRUCT)),
                          ("status", pa.string())]))
    ds = ray.data.from_arrow(t)
    rz = media_resize(ds).take_all()
    assert len(rz) == 2
    for r in rz:
        assert max(r["out_w"], r["out_h"]) == 224
        assert 1 <= min(r["out_w"], r["out_h"]) <= 224
        # aspect preserved within integer truncation
        big = max(r["orig_w"], r["orig_h"])
        small = min(r["orig_w"], r["orig_h"])
        assert min(r["out_w"], r["out_h"]) == max(1, (small * 224) // big)

    fs = frame_sample(ds, max_frames=4).take_all()
    by_ref = {}
    for r in fs:
        by_ref.setdefault(r["media_ref"], []).append(r["frame_idx"])
    for ref, idxs in by_ref.items():
        assert len(idxs) <= 4 and idxs == sorted(idxs)
        assert all(i >= 0 for i in idxs)


def test_connected_components_long_chain_converges(ray_session):
    """A 60-node path exercises the pointer-jumping regime: plain
    min-propagation alone would need ~60 rounds (over any small cap);
    with compression it converges in O(log n)."""
    import ray.data

    pairs = ray.data.from_items(
        [{"left_id": i, "right_id": i + 1} for i in range(100, 160)])
    labels = {r["node"]: r["label"]
              for r in dedup.connected_components(
                  pairs, max_iters=14).take_all()}
    assert set(labels.values()) == {100}
    assert len(labels) == 61


def test_token_frequencies_and_length_histogram(ray_session):
    import ray.data

    rows = [{"doc_id": 1, "text": "a b a c a b"},
            {"doc_id": 2, "text": "b c " + "x" * 150}]
    ds = ray.data.from_items(rows)
    top = textstats.token_frequencies(ds, k=3).take_all()
    assert [(r["token"], r["n"]) for r in top] == [
        ("a", 3), ("b", 3), ("c", 2)]       # tie a/b → token asc
    hist = {r["len_bucket"]: r["n"]
            for r in textstats.length_histogram(ds).take_all()}
    assert hist == {0: 1, 1: 1}


def test_inverted_index_postings(ray_session):
    import ray.data

    rows = [{"doc_id": 1, "text": "a b a c a b"},
            {"doc_id": 2, "text": "b c c"},
            {"doc_id": 3, "text": ""}]        # "" splits to one '' token
    ds = ray.data.from_items(rows)
    got = {(r["token"], r["doc_id"]): r["tf"]
           for r in textstats.inverted_index(ds).take_all()}
    assert got == {("a", 1): 3, ("b", 1): 2, ("c", 1): 1,
                   ("b", 2): 1, ("c", 2): 2, ("", 3): 1}


def test_inverted_index_split_invariant(ray_session):
    import ray.data

    rows = [{"doc_id": i, "text": f"tok{i % 5} common tok{i % 3}"}
            for i in range(40)]
    ds = ray.data.from_items(rows)
    one = sorted((r["token"], r["doc_id"], r["tf"]) for r in
                 textstats.inverted_index(ds).take_all())
    many = sorted((r["token"], r["doc_id"], r["tf"]) for r in
                  textstats.inverted_index(
                      ds.repartition(7)).take_all())
    assert one == many


def test_bm25_topk_matches_bruteforce(ray_session):
    import math

    import ray.data

    rows = [{"doc_id": 1, "text": "hash join hash probe build"},
            {"doc_id": 2, "text": "merge sort external run"},
            {"doc_id": 3, "text": "nested loop join"},
            {"doc_id": 4, "text": "no relevant terms here at all"},
            {"doc_id": 5, "text": "sort sort sort"}]
    terms = ("hash", "join", "merge", "sort")
    ds = ray.data.from_items(rows)
    got = [(r["doc_id"], r["score_micro"])
           for r in textstats.bm25_topk(ds, terms, k=3).take_all()]

    docs = {r["doc_id"]: r["text"].split(" ") for r in rows}
    n = float(len(docs))
    avgdl = float(sum(len(t) for t in docs.values())) / n
    df = {t: float(sum(t in toks for toks in docs.values()))
          for t in terms}
    scores = {}
    for did, toks in docs.items():
        s = 0
        for t in terms:
            tf = float(toks.count(t))
            if tf == 0:
                continue
            idf = (n - df[t] + 0.5) / (df[t] + 0.5)
            tfn = tf * (1.2 + 1.0) / (tf + 1.2 * ((1.0 - 0.75)
                                                  + 0.75 * (len(toks) / avgdl)))
            s += int(math.floor(idf * tfn * 1000000.0 + 0.5))
        if s:
            scores[did] = s
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert got == want
    assert 4 not in dict(got)          # unmatched doc never surfaces


def test_bm25_topk_split_invariant(ray_session):
    import ray.data

    rows = [{"doc_id": i,
             "text": f"hash join x{i % 7} merge sort " * (1 + i % 4)}
            for i in range(60)]
    ds = ray.data.from_items(rows)
    one = textstats.bm25_topk(ds, k=10).take_all()
    many = textstats.bm25_topk(ds.repartition(9), k=10).take_all()
    assert [(r["doc_id"], r["score_micro"]) for r in one] == \
           [(r["doc_id"], r["score_micro"]) for r in many]


def test_containment_pairs_detects_doc_inside_doc(ray_session):
    import ray.data

    big = "the quick brown fox jumps over the lazy dog " * 6
    rows = [{"doc_id": 1, "text": big},
            {"doc_id": 2, "text": big[:len(big) // 2]},   # contained
            {"doc_id": 3, "text": "completely different content here"}]
    ds = ray.data.from_items(rows)
    got = {(r["left_id"], r["right_id"])
           for r in textstats.containment_pairs(ds).take_all()}
    assert (1, 2) in got
    assert not any(3 in p for p in got)


def test_containment_pairs_split_invariant(ray_session):
    import ray.data

    rows = [{"doc_id": i,
             "text": ("alpha beta gamma delta epsilon zeta " * 3
                      if i % 3 == 0 else
                      f"unique text body number {i} with words {i * 7}")}
            for i in range(40)]
    ds = ray.data.from_items(rows)
    one = sorted((r["left_id"], r["right_id"], r["shared_fps"],
                  r["min_fps"])
                 for r in textstats.containment_pairs(ds).take_all())
    many = sorted((r["left_id"], r["right_id"], r["shared_fps"],
                   r["min_fps"])
                  for r in textstats.containment_pairs(
                      ds.repartition(7)).take_all())
    assert one == many and one


def test_ivf_index_roundtrip_bit_identical(ray_session, emb_ds, tmp_path):
    p = str(tmp_path / "ivf.parquet")
    built = ann.ivf_build_index(emb_ds, p, nlist=8)
    loaded = ann.ivf_load_index(p)
    assert (built == loaded).all()
    q = ann.get_query_vector(emb_ds, 0)
    inline = [r["vec_id"] for r in
              ann.knn_ivf(emb_ds, q, k=10, nlist=8).take_all()]
    indexed = [r["vec_id"] for r in
               ann.knn_ivf(emb_ds, q, k=10, nlist=8,
                           index_path=p).take_all()]
    assert inline == indexed


def test_lsh_verify_plans_equivalent(ray_session, emb_ds):
    """Both LSH verify plans (in-cell matmul vs id-only band rows + one
    embedding join) must produce identical pair sets and identical
    nearest-neighbor maps — the plan is a physical choice, not a
    semantic one."""
    a = {(r["left_id"], r["right_id"]) for r in ann.lsh_cosine_dup_pairs(
        emb_ds, 0.3, n_planes=10, verify="join").take_all()}
    b = {(r["left_id"], r["right_id"]) for r in ann.lsh_cosine_dup_pairs(
        emb_ds, 0.3, n_planes=10, verify="inbucket").take_all()}
    assert a and a == b
    na = {r["vec_id"]: r["nn_id"] for r in ann.lsh_nearest_neighbor_ids(
        emb_ds, n_planes=10, verify="join").take_all()}
    nb = {r["vec_id"]: r["nn_id"] for r in ann.lsh_nearest_neighbor_ids(
        emb_ds, n_planes=10, verify="inbucket").take_all()}
    assert na == nb
    with pytest.raises(ValueError):
        ann.lsh_cosine_dup_pairs(emb_ds, 0.3, verify="bogus")


def test_group_quantiles_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.relational import group_quantiles

    rows = [{"event_type": t, "value": v}
            for t, v in [("a", 3.0), ("a", 1.0), ("a", 2.0), ("a", 9.5),
                         ("b", 7.0), ("b", 7.0), ("c", 0.25)]]
    got = {r["event_type"]: (r["q50"], r["q95"]) for r in
           group_quantiles(ray.data.from_items(rows)).take_all()}
    want = {r[0]: (r[1], r[2]) for r in duckdb.sql(
        "SELECT event_type, quantile_disc(value, 0.5), "
        "quantile_disc(value, 0.95) FROM (SELECT unnest("
        + str([r["event_type"] for r in rows]) + ") AS event_type, unnest("
        + str([r["value"] for r in rows]) + ") AS value) "
        "GROUP BY event_type").fetchall()}
    assert got == want


def test_sample_stratified_deterministic_and_invariant(ray_session):
    import ray.data

    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "lang"])
    a = sorted((r["lang"], r["doc_id"]) for r in
               textstats.sample_stratified(ds).take_all())
    b = sorted((r["lang"], r["doc_id"]) for r in
               textstats.sample_stratified(ds.repartition(9)).take_all())
    assert a == b and a          # content-addressed: split-independent
    langs = {l for l, _ in a}
    for lang in langs:
        assert sum(1 for l, _ in a if l == lang) <= 3


def test_list_distinct_length_null_tokens():
    """Regression: a null token must count as one distinct element
    (len(set) semantics), never alias into the previous row's key
    space or crash on row 0."""
    import pyarrow as pa

    from webtext.functions.textstats import _list_distinct_length

    assert _list_distinct_length(
        pa.array([["a", "b", "a"], ["c", None], ["d"]])
    ).to_pylist() == [2, 2, 1]
    assert _list_distinct_length(
        pa.array([[None], ["x", "x"]])).to_pylist() == [1, 1]


def test_training_pipeline_chain(ray_session):
    """End-to-end chain: only quality-passing, deduped docs are packed;
    every pack respects the token budget; invariant under repartition."""
    import ray.data

    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
    rows = textstats.training_pipeline(ds).take_all()
    assert rows
    packs = {}
    for r in rows:
        packs.setdefault((r["bucket"], r["pack_id"]), []).append(
            r["n_tokens"])
    for members in packs.values():
        assert sum(members) <= 256 or len(members) == 1
    kept_ids = {r["doc_id"] for r in rows}
    filtered = {r["doc_id"] for r in dedup.exact_dedup(
        textstats.corpus_quality_filter(ds)).take_all()}
    assert kept_ids == filtered
    rows2 = textstats.training_pipeline(ds.repartition(9)).take_all()
    assert sorted((r["bucket"], r["pack_id"], r["doc_id"])
                  for r in rows) == \
        sorted((r["bucket"], r["pack_id"], r["doc_id"]) for r in rows2)


def test_hash_embeddings_deterministic_and_composable(ray_session, docs_ds):
    """Feature-hashing embeddings: unit-norm, deterministic across
    block splits, and identical texts map to identical vectors (the
    property that makes the ANN suite composable over raw text)."""
    import numpy as np

    a = {r["doc_id"]: tuple(r["embedding"]) for r in
         textstats.hash_embeddings(docs_ds).take_all()}
    b = {r["doc_id"]: tuple(r["embedding"]) for r in
         textstats.hash_embeddings(docs_ds.repartition(7)).take_all()}
    assert a == b
    for v in list(a.values())[:50]:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    texts = {r["doc_id"]: r["text"] for r in docs_ds.take_all()}
    by_text = {}
    for did, vec in a.items():
        t = texts[did]
        assert by_text.setdefault(t, vec) == vec


def test_vocab_coverage_counts(ray_session):
    import ray.data

    from webtext.functions.textstats import vocab_coverage

    rows = [{"doc_id": 1, "text": "a a b c"},
            {"doc_id": 2, "text": "b b x y"},
            {"doc_id": 3, "text": "a z"}]
    # top-2 vocab by (count desc, token asc): a(3), b(3)
    got = {r["doc_id"]: (r["n_in_vocab"], r["n_unk"])
           for r in vocab_coverage(ray.data.from_items(rows),
                                   vocab_size=2).take_all()}
    assert got == {1: (3, 1), 2: (2, 2), 3: (1, 1)}


def test_incremental_dedup_drops_seen_content(ray_session):
    import ray.data

    from webtext.pipelines.dedup_pipeline import incremental_dedup

    seen = ray.data.from_items([{"doc_id": 1, "text": "old news"}])
    new = ray.data.from_items([
        {"doc_id": 10, "text": "old news"},      # already ingested
        {"doc_id": 11, "text": "fresh stuff"},
        {"doc_id": 12, "text": "fresh stuff"},   # dup within new crawl
        {"doc_id": 13, "text": "unique"}])
    got = sorted(r["doc_id"] for r in
                 incremental_dedup(new, seen).take_all())
    assert got == [11, 13]


def test_label_centroids_fixed_point(ray_session):
    import ray.data

    from webtext.functions.ann import label_centroids

    rows = [{"label": 0, "embedding": [1.0, -0.5]},
            {"label": 0, "embedding": [0.5, 0.5]},
            {"label": 1, "embedding": [-1.0000000005, 2.0]}]
    got = {(r["label"], r["dim"]): (r["sum_fp"], r["n"])
           for r in label_centroids(
               ray.data.from_items(rows).repartition(2)).take_all()}
    G = 10**9
    assert got[(0, 1)] == (int(1.5 * G), 2)
    assert got[(0, 2)] == (0, 2)
    # half-away-from-zero on the negative side: from_items stores
    # float64, -1.0000000005e9 = -1000000000.5 -> -1000000001
    assert got[(1, 1)] == (-1000000001, 1)
    assert got[(1, 2)] == (2 * G, 1)


def test_phash64_average_hash_spec():
    import numpy as np

    from webtext.functions.media import phash64

    # handwritten tiny case: pixels 0..63, mean 31.5 -> bits 32..63 set
    t = np.arange(64, dtype=np.uint8).reshape(8, 8)
    expect = 0
    for i in range(32, 64):
        expect |= 1 << i
    expect -= 1 << 64          # signed int64 view
    assert phash64(t) == expect


def test_fake_thumb8_family_structure():
    from webtext.functions.media import fake_thumb8, phash64

    a = phash64(fake_thumb8("media://site.com/family-a/1/0"))
    b = phash64(fake_thumb8("media://site.com/family-a/2/5"))
    c = phash64(fake_thumb8("media://site.com/family-b/1/0"))
    ham = lambda x, y: bin((x ^ y) & ((1 << 64) - 1)).count("1")  # noqa: E731
    assert ham(a, b) <= 12      # same template: a few perturbed bits
    assert ham(a, c) > 12       # different template: far apart


def test_media_phash_pairs_equals_brute_force(ray_session):
    """Pigeonhole property: 8 bands of 8 bits find EVERY pair at
    hamming <= 7, so the banded distributed result must equal the
    all-pairs filter."""
    import ray.data

    from webtext.functions.media import (fake_thumb8, media_phash_pairs,
                                         phash64)

    docs = [{"doc_id": f"d{i}",
             "spans": [{"kind": "media", "text": "",
                        "media_ref": f"media://s.com/fam{i % 3}/{i}/0",
                        "offset": 0}]} for i in range(12)]
    ds = ray.data.from_items(docs).repartition(4)
    got = {(r["left_ref"], r["right_ref"]): r["hamming"]
           for r in media_phash_pairs(ds, max_hamming=6).take_all()}
    refs = sorted(d["spans"][0]["media_ref"] for d in docs)
    ph = {r: phash64(fake_thumb8(r)) for r in refs}
    want = {}
    for i, a in enumerate(refs):
        for b in refs[i + 1:]:
            d = bin((ph[a] ^ ph[b]) & ((1 << 64) - 1)).count("1")
            if d <= 6:
                want[(a, b)] = d
    assert got == want and len(want) > 0


def test_quantize_embeddings_spec(ray_session):
    import numpy as np
    import ray.data

    from webtext.functions.ann import quantize_embeddings

    rows = [
        {"vec_id": 0, "embedding": [0.5, -1.0, 0.25, 0.0]},
        {"vec_id": 1, "embedding": [0.0, 0.0, 0.0, 0.0]},  # zero vector
        {"vec_id": 2, "embedding": [2.0, 2.0, -2.0, 1.0]},
    ]
    got = {r["vec_id"]: (r["scale_fp"], r["sum_absq"]) for r in
           quantize_embeddings(
               ray.data.from_items(rows).repartition(2)).take_all()}
    # handwritten: vec 0 -> max 1.0, q = |[64,127,32,0]| (0.5*127=63.5
    # rounds half-up to 64); vec 1 all zeros; vec 2 -> max 2.0,
    # q = |[127,127,127,64]| (1*127/2=63.5 -> 64)
    assert got[0] == (10**9, 64 + 127 + 32 + 0)
    assert got[1] == (0, 0)
    assert got[2] == (2 * 10**9, 127 * 3 + 64)


def test_edit1_name_pairs_vs_brute(ray_session):
    import ray.data

    from webtext.functions.dedup import _lev_le1, edit1_name_pairs

    names = ["cat", "cart", "car", "bat", "bats", "dog", "dog",
             "cat!", "xyz", ""]
    ds = ray.data.from_items([{"p_name": n} for n in names]) \
        .repartition(3)
    got = {(r["left_name"], r["right_name"]) for r in
           edit1_name_pairs(ds).take_all()}
    uniq = sorted(set(names))
    want = {(a, b) for i, a in enumerate(uniq) for b in uniq[i + 1:]
            if _lev_le1(a, b)}
    assert got == want
    assert ("cat", "cat!") in got and ("cat", "cart") not in got


def test_lev_le1_matches_textbook():
    from webtext.functions.dedup import _lev_le1

    def lev(a, b):
        import numpy as np

        d = np.arange(len(b) + 1)
        for i, ca in enumerate(a, 1):
            prev, d[0] = d[0], i
            for j, cb in enumerate(b, 1):
                prev, d[j] = d[j], min(d[j] + 1, d[j - 1] + 1,
                                       prev + (ca != cb))
        return int(d[len(b)])

    import itertools

    alphabet = "ab"
    words = ["".join(p) for n in range(4)
             for p in itertools.product(alphabet, repeat=n)]
    for a in words:
        for b in words:
            if a != b:
                assert _lev_le1(a, b) == (lev(a, b) == 1), (a, b)


def test_topk_tokens_per_group_crafted(ray_session):
    import ray.data

    from webtext.functions.textstats import topk_tokens_per_group

    docs = [
        {"lang": "en", "text": "a a a b b c"},
        {"lang": "en", "text": "b d"},
        {"lang": "fr", "text": "x x y"},
    ]
    got = {(r["group"], r["token"]): r["n"] for r in
           topk_tokens_per_group(
               ray.data.from_items(docs).repartition(3), k=2)
           .take_all()}
    # en: a=3, b=3 tie -> token asc keeps a,b (c,d cut); fr: x=2, y=1
    assert got == {("en", "a"): 3, ("en", "b"): 3,
                   ("fr", "x"): 2, ("fr", "y"): 1}


def test_media_dedup_apply_keeps_one_per_cluster(ray_session):
    import hashlib

    import ray.data

    from webtext.functions.media import (fake_thumb8, media_dedup_apply,
                                         phash64)

    docs = [{"doc_id": f"d{i}",
             "spans": [{"kind": "media", "text": "",
                        "media_ref": f"media://s.com/fam{i % 2}/{i}/0",
                        "offset": 0}]} for i in range(8)]
    surv = sorted(r["media_ref"] for r in media_dedup_apply(
        ray.data.from_items(docs).repartition(3)).take_all())

    # independent reference: brute-force pairs at hamming <= 6 ->
    # union-find by surrogate -> min-surrogate representative per
    # component (a family may split into several components)
    refs = [d["spans"][0]["media_ref"] for d in docs]
    ph = {r: phash64(fake_thumb8(r)) for r in refs}

    def sid(r):
        return int.from_bytes(hashlib.md5(r.encode()).digest()[:8],
                              "big") & 0x7FFFFFFFFFFFFFFF

    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for i, a in enumerate(refs):
        for b in refs[i + 1:]:
            if bin((ph[a] ^ ph[b]) & ((1 << 64) - 1)).count("1") <= 6:
                ra, rb = find(sid(a)), find(sid(b))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    want = sorted(r for r in refs if find(sid(r)) == sid(r))
    assert surv == want and 0 < len(surv) < len(refs)


# -- SemDeDup ----------------------------------------------------------------

def test_semdedup_pairs_subset_of_exact(ray_session, emb_ds):
    sem = {(r["left_id"], r["right_id"])
           for r in ann.semdedup_pairs(emb_ds, threshold=0.4).take_all()}
    exact = {(r["left_id"], r["right_id"])
             for r in ann.cosine_dup_pairs(emb_ds, 0.4).take_all()}
    assert sem and sem <= exact   # within-cluster pairs never invent sims


def test_semdedup_apply_keeps_least_central(ray_session):
    """Crafted 2-D cluster: three near-identical core vectors + the
    centroid-similarity ordering must keep the OUTLIER of the dup
    group (SemDeDup's rule), not the min id."""
    import ray.data

    rows = [
        # dup group: all pairwise cos >= 0.95; vec 2 is least aligned
        # with the centroid of its cluster
        {"vec_id": 0, "embedding": [1.0, 0.00], "label": 0},
        {"vec_id": 1, "embedding": [1.0, 0.02], "label": 0},
        {"vec_id": 2, "embedding": [1.0, 0.30], "label": 0},
        # far-away singleton so k-means (nlist=2) has a second cell
        {"vec_id": 3, "embedding": [-1.0, -1.0], "label": 1},
    ]
    ds = ray.data.from_items(rows)
    surv = sorted(r["vec_id"] for r in
                  ann.semdedup_apply(ds, nlist=2, threshold=0.9).take_all())
    # centroid of cell {0,1,2} ~ [1, 0.107]; vec 2 has the LOWEST
    # cosine to it -> survives; 0 and 1 drop; singleton 3 survives
    assert surv == [2, 3]


def test_semdedup_block_split_invariant(ray_session, emb_ds):
    base = sorted((r["left_id"], r["right_id"])
                  for r in ann.semdedup_pairs(emb_ds).take_all())
    split = sorted((r["left_id"], r["right_id"])
                   for r in ann.semdedup_pairs(
                       emb_ds.repartition(17)).take_all())
    assert base == split
    a = sorted(r["vec_id"] for r in ann.semdedup_apply(emb_ds).take_all())
    b = sorted(r["vec_id"] for r in ann.semdedup_apply(
        emb_ds.repartition(17)).take_all())
    assert a == b


# -- BPE trainer --------------------------------------------------------------

def test_bpe_streams_greedy_leftmost():
    from webtext.functions.textstats import BPE_MERGE_BASE, _bpe_streams

    X = BPE_MERGE_BASE
    a = ord("a")
    # runs merge at even offsets only (greedy leftmost-nonoverlapping)
    assert _bpe_streams(["aaaa"], [(a, a)])[0].tolist() == [X, X]
    assert _bpe_streams(["aaa"], [(a, a)])[0].tolist() == [X, a]
    assert _bpe_streams(["aaaaa"], [(a, a)])[0].tolist() == [X, X, a]
    # later merges see earlier merge ids
    two = _bpe_streams(["aaaa"], [(a, a), (X, X)])[0].tolist()
    assert two == [X + 1]


def test_bpe_train_deterministic_and_split_invariant(ray_session):
    import ray.data

    from webtext.functions import textstats

    docs = [{"doc_id": i, "text": "ababab cdcd"} for i in range(30)]
    m1 = textstats.bpe_train(ray.data.from_items(docs), n_merges=4)
    m2 = textstats.bpe_train(
        ray.data.from_items(docs).repartition(7), n_merges=4)
    assert m1.to_pylist() == m2.to_pylist()
    # first merge must be the most frequent pair: 'ab' (90 occurrences
    # of a followed by b beats every other adjacency)
    first = m1.to_pylist()[0]
    assert (first["left"], first["right"]) == (ord("a"), ord("b"))


def test_bpe_train_early_stop(ray_session):
    import ray.data

    from webtext.functions import textstats

    docs = [{"doc_id": 0, "text": "xy"}]   # every pair occurs once
    m = textstats.bpe_train(ray.data.from_items(docs), n_merges=5,
                            min_count=2)
    assert m.num_rows == 0


def test_bpe_encode_counts_matches_replay(ray_session):
    import ray.data

    from webtext.functions import textstats

    docs = [{"doc_id": 0, "text": "banana"}, {"doc_id": 1, "text": ""}]
    merges = [(ord("a"), ord("n"))]
    out = {r["doc_id"]: r["n_tokens"] for r in
           textstats.bpe_encode_counts(
               ray.data.from_items(docs), merges).take_all()}
    assert out == {0: 4, 1: 0}   # b an an a ; empty text -> 0 tokens


def test_compression_ratio_orders_redundancy(ray_session):
    """Repeated boilerplate compresses far below high-entropy prose,
    and the fixed-point ratio is deterministic across block splits."""
    import ray.data

    from webtext.functions import textstats

    rows = [
        {"doc_id": 1, "text": "spam " * 200},
        {"doc_id": 2, "text": " ".join(f"w{i * 7919 % 1000}x{i}"
                                       for i in range(200))},
        {"doc_id": 3, "text": ""},
    ]
    got = {r["doc_id"]: r for r in textstats.compression_ratio(
        ray.data.from_items(rows).repartition(3)).take_all()}
    assert got[1]["ratio_micro"] < got[2]["ratio_micro"]
    assert got[3]["raw_bytes"] == 0 and got[3]["ratio_micro"] == 0
    # ratio is floor(1e6*comp/raw)
    assert got[1]["ratio_micro"] == (
        got[1]["zlib_bytes"] * 1_000_000 // got[1]["raw_bytes"])


def test_epoch_shuffle_deterministic_permutation(ray_session):
    import ray.data

    from webtext.functions import textstats

    rows = [{"doc_id": i} for i in range(1, 41)]
    ds = ray.data.from_items(rows).repartition(4)
    a = {r["doc_id"]: (r["shard"], r["pos"])
         for r in textstats.epoch_shuffle(ds, epoch=0,
                                          n_shards=4).take_all()}
    b = {r["doc_id"]: (r["shard"], r["pos"])
         for r in textstats.epoch_shuffle(ds, epoch=0,
                                          n_shards=4).take_all()}
    assert a == b                       # re-run reproduces the order
    c = {r["doc_id"]: (r["shard"], r["pos"])
         for r in textstats.epoch_shuffle(ds, epoch=1,
                                          n_shards=4).take_all()}
    assert c != a                       # a new epoch reshuffles
    # positions within each shard are a contiguous 1..n permutation
    by_shard: dict[int, list[int]] = {}
    for shard, pos in a.values():
        by_shard.setdefault(shard, []).append(pos)
    for poss in by_shard.values():
        assert sorted(poss) == list(range(1, len(poss) + 1))


def test_dup_rate_by_source_exact_distinct(ray_session):
    import ray.data

    rows = [
        {"source": "a", "text": "same"},
        {"source": "a", "text": "same"},
        {"source": "a", "text": "other"},
        {"source": "b", "text": "same"},     # same text, other source
        {"source": "b", "text": "unique b"},
    ]
    got = {r["source"]: (r["n_docs"], r["n_distinct"])
           for r in dedup.dup_rate_by_source(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {"a": (3, 2), "b": (2, 2)}


def test_charclass_stats_partitions_chars(ray_session):
    import ray.data

    from webtext.functions import textstats

    rows = [{"doc_id": 1, "text": "Ab1 !"}, {"doc_id": 2, "text": ""}]
    got = {r["doc_id"]: r for r in textstats.charclass_stats(
        ray.data.from_items(rows)).take_all()}
    r1 = got[1]
    assert (r1["n_lower"], r1["n_upper"], r1["n_digit"],
            r1["n_space"], r1["n_other"]) == (1, 1, 1, 1, 1)
    assert r1["n_chars_c"] == 5
    r2 = got[2]
    assert r2["n_chars_c"] == 0 and r2["n_other"] == 0


def test_curation_pipeline_chain(ray_session):
    """Junk drops at the gopher gate, near-dups collapse to the longest
    member, and the output is an epoch-deterministic (shard, pos)
    assignment of exactly the survivors."""
    import ray.data

    from webtext.functions import textstats

    # ~40-token prose with stopwords and distinct words passes gopher
    prose = ("the quick brown fox and a lazy dog walk in the park of "
             "every town to see " +
             " ".join(f"sight{i}" for i in range(25)))
    rows = [
        {"doc_id": 1, "text": prose},
        {"doc_id": 2, "text": prose + " extra tail content here"},
        {"doc_id": 3, "text": "too short"},                # gopher-fail
    ]
    out = textstats.curation_pipeline(
        ray.data.from_items(rows).repartition(2),
        threshold=0.5, epoch=0, n_shards=4).take_all()
    assert sorted(r["doc_id"] for r in out) == [2]  # longest survives
    again = textstats.curation_pipeline(
        ray.data.from_items(rows).repartition(3),
        threshold=0.5, epoch=0, n_shards=4).take_all()
    assert [(r["doc_id"], r["shard"], r["pos"]) for r in again] == \
        [(r["doc_id"], r["shard"], r["pos"]) for r in out]


def test_centroid_classify_confusion(ray_session):
    """A vector labeled 0 but sitting on label 1's axis must show up as
    off-diagonal (0, 1) mass; output is block-split invariant."""
    import ray.data

    rows = [
        {"vec_id": 1, "label": 0, "embedding": [1.0, 0.0]},
        {"vec_id": 2, "label": 0, "embedding": [0.9, 0.1]},
        {"vec_id": 3, "label": 1, "embedding": [0.0, 1.0]},
        {"vec_id": 4, "label": 1, "embedding": [0.1, 0.9]},
        {"vec_id": 5, "label": 0, "embedding": [0.0, 1.0]},  # mislabeled
    ]
    for parts in (1, 3):
        got = {(r["label"], r["pred_label"]): r["n"]
               for r in __import__("webtext.functions.ann",
                                   fromlist=["centroid_classify"])
               .centroid_classify(
                   ray.data.from_items(rows).repartition(parts))
               .take_all()}
        assert got[(0, 1)] == 1          # the planted mislabel
        assert got[(1, 1)] == 2
        assert got[(0, 0)] == 2


def test_pq_index_roundtrip_bit_identical(ray_session, emb_ds, tmp_path):
    p = str(tmp_path / "pq.parquet")
    built = ann.pq_build_index(emb_ds, p, m=8, ksub=8)
    loaded = ann.pq_load_index(p)
    assert built.shape == loaded.shape and (built == loaded).all()
    q = ann.get_query_vector(emb_ds, 0)
    inline = [r["vec_id"] for r in
              ann.knn_pq(emb_ds, q, k=10, m=8, ksub=8).take_all()]
    indexed = [r["vec_id"] for r in
               ann.knn_pq(emb_ds, q, k=10, m=8, ksub=8,
                          index_path=p).take_all()]
    assert inline == indexed and len(inline) == 10


def test_pq_fit_invariant_under_repartition(ray_session, emb_ds):
    """The codebook fit reduces fixed-point integer partials, so block
    boundaries cannot change the learned centroids."""
    a = ann.pq_fit_distributed(emb_ds, m=4, ksub=8, iters=3)
    b = ann.pq_fit_distributed(emb_ds.repartition(7), m=4, ksub=8,
                               iters=3)
    assert (a == b).all()


def test_pq_matches_independent_golden(ray_session, emb_ds):
    """knn_pq vs the single-process reimplementation in
    tools/gen_goldens.py (seeding, fixed-point fit, ADC, tie-break)."""
    import importlib.util
    import os
    spec = importlib.util.spec_from_file_location(
        "gen_goldens", os.path.join(os.path.dirname(__file__),
                                    "..", "tools", "gen_goldens.py"))
    gg = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gg)
    sf = "/root/testdata/sf0.001"
    import ray.data
    ds = ray.data.read_parquet(f"{sf}/embeddings.parquet")
    q = ann.get_query_vector(ds, 0)
    got = [(r["vec_id"], r["label"])
           for r in ann.knn_pq(ds, q, k=10).take_all()]
    kids, klabels = gg.golden_knn_pq(sf)
    assert got == list(zip(kids.tolist(), klabels.tolist()))


def test_pq_recall_vs_brute(ray_session, emb_ds):
    """ADC is approximate; sanity-bound its recall@10 against exact
    brute force on the same corpus (shared label structure makes the
    embedding space clusterable, so PQ should land most neighbors)."""
    q = ann.get_query_vector(emb_ds, 0)
    brute = {r["vec_id"] for r in
             ann.knn_brute(emb_ds, q, k=10).take_all()}
    pq_ids = {r["vec_id"] for r in
              ann.knn_pq(emb_ds, q, k=10).take_all()}
    assert len(brute & pq_ids) >= 3


def test_split_assign_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.functions import textstats

    sf = "/root/testdata/sf0.001"
    got = sorted((r["doc_id"], r["split"]) for r in textstats
                 .split_assign(ray.data.read_parquet(
                     f"{sf}/documents.parquet", columns=["doc_id"]))
                 .take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        SELECT doc_id,
          CASE WHEN substr(md5(CAST(doc_id AS VARCHAR) || 'split'),
                 1, 4) < 'cccc' THEN 'train'
               WHEN substr(md5(CAST(doc_id AS VARCHAR) || 'split'),
                 1, 4) < 'e666' THEN 'val'
               ELSE 'test' END
        FROM read_parquet('{sf}/documents.parquet')""").fetchall()))
    assert got == want and len(got) > 0
    fracs = {}
    for _, s in got:
        fracs[s] = fracs.get(s, 0) + 1
    assert set(fracs) == {"train", "val", "test"}
    assert fracs["train"] > fracs["val"] and fracs["train"] > \
        fracs["test"]


def test_split_assign_stable_under_corpus_growth(ray_session):
    """Content-addressed splits: a document's assignment never changes
    when the corpus around it grows or reshards."""
    import ray.data

    from webtext.functions import textstats

    small = ray.data.from_items([{"doc_id": i} for i in range(50)])
    big = ray.data.from_items([{"doc_id": i} for i in range(500)]) \
        .repartition(7)
    a = {r["doc_id"]: r["split"]
         for r in textstats.split_assign(small).take_all()}
    b = {r["doc_id"]: r["split"]
         for r in textstats.split_assign(big).take_all()}
    assert all(b[k] == v for k, v in a.items())


def test_bloom_dedup_no_false_negatives(ray_session):
    import ray.data

    from webtext.functions.sketches import bloom_dedup

    hist = [{"doc_id": i, "text": f"historical document {i}"}
            for i in range(200)]
    # new crawl: 50 repeats of historical content + 50 fresh docs
    new = [{"doc_id": 1000 + i, "text": f"historical document {i}"}
           for i in range(50)]
    new += [{"doc_id": 2000 + i, "text": f"fresh document {i}"}
            for i in range(50)]
    kept = bloom_dedup(ray.data.from_items(new).repartition(4),
                       ray.data.from_items(hist).repartition(5)) \
        .take_all()
    kept_ids = sorted(r["doc_id"] for r in kept)
    # every true duplicate is dropped (no false negatives)
    assert all(i < 1000 or i >= 2000 for i in kept_ids)
    # false positives are rare at this fill: nearly all fresh docs kept
    assert len(kept_ids) >= 48
    # deterministic under different blocking
    kept2 = sorted(r["doc_id"] for r in bloom_dedup(
        ray.data.from_items(new).repartition(9),
        ray.data.from_items(hist).repartition(2)).take_all())
    assert kept2 == kept_ids


def test_bloom_positions_match_python_int_formula(ray_session):
    import hashlib

    import numpy as np

    from webtext.functions.sketches import (BLOOM_K, BLOOM_M,
                                            _bloom_fp_halves,
                                            _bloom_positions)

    texts = ["alpha", "beta", "", "länger unicode ü"]
    h1, h2, fps = _bloom_fp_halves(texts)
    pos = _bloom_positions(h1, h2)
    for i, t in enumerate(texts):
        f = hashlib.md5(t.encode("utf-8")).hexdigest()
        assert f == fps[i]
        a, b = int(f[:16], 16), int(f[16:32], 16)
        want = [((a + j * b) % (1 << 64)) % BLOOM_M
                for j in range(BLOOM_K)]
        assert pos[i].tolist() == want


def test_token_diversity_crafted(ray_session):
    import ray.data

    from webtext.functions.textstats import token_diversity

    rows = [
        {"doc_id": 1, "text": "a a a a"},       # one type: micro 0
        {"doc_id": 2, "text": "a b c d"},       # all distinct: 1-4/16
        {"doc_id": 3, "text": ""},              # one empty token
        {"doc_id": 4, "text": "x x y"},         # 1 - (4+1)/9
    ]
    got = {r["doc_id"]: (r["n_tokens"], r["simpson_micro"])
           for r in token_diversity(
               ray.data.from_items(rows).repartition(2)).take_all()}
    assert got[1] == (4, 0)
    assert got[2] == (4, 750_000)
    assert got[3] == (1, 0)                     # "" splits to [""]
    assert got[4] == (3, (1_000_000 * (9 - 5)) // 9)


def test_tfidf_top_terms_ranking_and_invariance(ray_session):
    import ray.data

    from webtext.functions.textstats import tfidf_top_terms

    # 4 docs. "rare" appears only in doc 1 (df=1, idf=(4-1+.5)/1.5=2.333);
    # "common" in all 4 (df=4, idf=0.5/4.5=0.111).  Doc 1's tf(common)=3
    # still loses to tf(rare)=1: 1*2.333 > 3*0.111.
    rows = [
        {"doc_id": 1, "text": "rare common common common"},
        {"doc_id": 2, "text": "common x y"},
        {"doc_id": 3, "text": "common x z"},
        {"doc_id": 4, "text": "common y z"},
    ]
    got = tfidf_top_terms(
        ray.data.from_items(rows).repartition(2), k=2).take_all()
    by_doc = {}
    for r in got:
        by_doc.setdefault(r["doc_id"], []).append(
            (r["score_micro"], r["term"]))
    top1 = sorted(by_doc[1], key=lambda t: (-t[0], t[1]))
    assert [t[1] for t in top1] == ["rare", "common"]
    assert top1[0][0] == 2333333   # floor(1 * (3.5/1.5) * 1e6 + 0.5)
    # x,y,z each df=2 -> idf=2.5/2.5=1.0 -> 1e6; ties break term-asc:
    # doc 2 keeps (x, y) over "common"
    assert sorted(t[1] for t in by_doc[2]) == ["x", "y"]
    # block-split invariance
    got2 = tfidf_top_terms(
        ray.data.from_items(rows).repartition(4), k=2).take_all()
    assert sorted((r["doc_id"], r["term"], r["score_micro"])
                  for r in got2) == \
        sorted((r["doc_id"], r["term"], r["score_micro"]) for r in got)


def test_prefix_filter_pairs_exact_join(ray_session):
    import ray.data

    from webtext.functions.dedup import prefix_filter_pairs

    # docs 1/2: J = 3/5 >= 0.5 (boundary-ish); docs 1/3: J = 4/4 = 1.0;
    # doc 4 disjoint; doc 5 shares only 1 of 5 union tokens with 1
    rows = [
        {"doc_id": 1, "text": "a b c d"},
        {"doc_id": 2, "text": "a b c e"},   # inter 3, union 5 -> 0.6
        {"doc_id": 3, "text": "d c b a"},   # same set as 1 -> 1.0
        {"doc_id": 4, "text": "x y z"},
        {"doc_id": 5, "text": "a q r s"},   # inter 1, union 7 -> no
    ]
    ds = ray.data.from_items(rows).repartition(3)
    got = sorted((r["left_id"], r["right_id"])
                 for r in prefix_filter_pairs(ds, 0.5).take_all())
    assert got == [(1, 2), (1, 3), (2, 3)]
    # tight threshold keeps only the identical set pair
    got9 = sorted((r["left_id"], r["right_id"])
                  for r in prefix_filter_pairs(ds, 0.9).take_all())
    assert got9 == [(1, 3)]
    # block-split invariance
    got2 = sorted((r["left_id"], r["right_id"])
                  for r in prefix_filter_pairs(
                      ds.repartition(5), 0.5).take_all())
    assert got2 == got


def test_kcenter_select_greedy_and_invariant(ray_session):
    import ray.data

    from webtext.functions.ann import kcenter_select

    # 1-D embeddings on a line: seed = min id (0 at x=0); farthest is
    # x=10 (id 3); next farthest from {0,10} is x=4 (id 1, dist 16);
    # then x=7 (id 2, dist 9 to center 10)... tie at x=2 vs x=6?
    rows = [
        {"vec_id": 0, "embedding": [0.0]},
        {"vec_id": 1, "embedding": [4.0]},
        {"vec_id": 2, "embedding": [7.0]},
        {"vec_id": 3, "embedding": [10.0]},
        {"vec_id": 4, "embedding": [5.0]},
    ]
    ds = ray.data.from_items(rows).repartition(3)
    got = kcenter_select(ds, k=4)
    assert got.column("vec_id").to_pylist() == [0, 3, 4, 2]
    # x=5 (id 4): min(25,25)=25 beats x=4's 16 and x=7's 9
    assert got.column("dist_micro").to_pylist() == [
        0, 100_000_000, 25_000_000, 4_000_000]
    got2 = kcenter_select(ds.repartition(5), k=4)
    assert got.equals(got2)


def test_source_overlap_word_set_semantics(ray_session):
    import ray.data

    from webtext.functions.dedup import source_overlap

    # same word SET, different order/repetition -> shared; s3's set
    # differs by one word -> not shared
    rows = [
        {"source": "s1", "text": "a b c"},
        {"source": "s2", "text": "c b a a"},    # same set {a,b,c}
        {"source": "s3", "text": "a b d"},
        {"source": "s1", "text": "x y"},
        {"source": "s3", "text": "y x"},        # {x,y} shared s1/s3
        {"source": "s2", "text": "a b c"},      # dup within pair: 1
    ]
    got = {(r["source_a"], r["source_b"]): r["n_shared"]
           for r in source_overlap(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {("s1", "s2"): 1, ("s1", "s3"): 1}


def test_semantic_decontaminate_broadcast_filter(ray_session):
    import ray.data

    from webtext.functions.ann import semantic_decontaminate

    bench = ray.data.from_items([
        {"vec_id": 1, "embedding": [1.0, 0.0]},
    ])
    corpus = ray.data.from_items([
        {"vec_id": 10, "embedding": [0.9, 0.1]},   # cos ~0.994 -> out
        {"vec_id": 11, "embedding": [0.0, 1.0]},   # cos 0 -> kept
        {"vec_id": 12, "embedding": [-1.0, 0.0]},  # cos -1 -> kept
    ]).repartition(2)
    got = sorted(r["vec_id"] for r in semantic_decontaminate(
        corpus, bench, threshold=0.95).take_all())
    assert got == [11, 12]
    # empty benchmark: everything survives
    got2 = sorted(r["vec_id"] for r in semantic_decontaminate(
        corpus, bench.filter(lambda r: False), 0.95).take_all())
    assert got2 == [10, 11, 12]


def test_exact_k_sample_size_and_stability(ray_session):
    import ray.data

    from webtext.functions.textstats import exact_k_sample

    rows = [{"doc_id": i} for i in range(50)]
    ds = ray.data.from_items(rows).repartition(4)
    got = [r["doc_id"] for r in exact_k_sample(ds, k=10).take_all()]
    assert len(got) == 10 and len(set(got)) == 10
    # blocking-invariant
    got2 = [r["doc_id"] for r in exact_k_sample(
        ds.repartition(7), k=10).take_all()]
    assert sorted(got) == sorted(got2)
    # matches the straight single-process ranking
    import hashlib
    want = sorted(range(50),
                  key=lambda d: (hashlib.md5(str(d).encode())
                                 .hexdigest(), d))[:10]
    assert sorted(got) == sorted(want)


def test_dup_mapping_lineage(ray_session):
    import ray.data

    from webtext.functions.dedup import dup_mapping

    # docs 1,2,3 form one near-dup cluster (identical text); 4 alone
    t = ("spark shard lantern vector group value token window actor "
         "cluster join orchard lantern pipeline arrow lane scan")
    rows = [
        {"doc_id": 3, "text": t},
        {"doc_id": 1, "text": t},
        {"doc_id": 2, "text": t},
        {"doc_id": 4, "text": "completely different words entirely "
                              "unrelated to anything else here now"},
    ]
    got = sorted((r["doc_id"], r["rep_id"])
                 for r in dup_mapping(
                     ray.data.from_items(rows).repartition(3),
                     0.5).take_all())
    assert got == [(2, 1), (3, 1)]


def test_top_bigrams_no_cross_row_pairs(ray_session):
    import ray.data

    from webtext.functions.textstats import top_bigrams

    rows = [
        {"doc_id": 1, "text": "a b a b"},     # "a b" x2, "b a" x1
        {"doc_id": 2, "text": "b"},           # single token: no pair
        {"doc_id": 3, "text": "a b"},         # "a b" x1
    ]
    # row boundary between "b" (doc1 end) and "b" (doc2) must not pair
    got = [(r["bigram"], r["n"]) for r in top_bigrams(
        ray.data.from_items(rows).repartition(3), k=10).take_all()]
    assert got == [("a b", 3), ("b a", 1)]


def test_vocab_divergence_exact_chi2(ray_session):
    import ray.data

    from webtext.functions.textstats import vocab_divergence

    # side 0 = src0-9, side 1 = src10-19.  "only0" appears 3x on side
    # 0 and never on side 1; "both" is balanced.
    rows = [
        {"source": "src1", "text": "only0 only0 both"},
        {"source": "src2", "text": "only0 both"},
        {"source": "src15", "text": "both both both"},
    ]
    got = {r["token"]: (r["chi2_micro"], r["n_a"], r["n_b"])
           for r in vocab_divergence(
               ray.data.from_items(rows).repartition(2),
               k=10).take_all()}
    # totals: na=5, nb=3; only0: a=3,b=0,c=2,d=3
    # chi2 = 8*(3*3-0*2)^2*1e6 // ((a+b)(c+d)(a+c)(b+d) = 3*5*5*3)
    assert got["only0"] == (8 * 81 * 1_000_000 // 225, 3, 0)
    # both: a=2,b=3,c=3,d=0 — the complementary table, same chi2
    assert got["both"] == (8 * 81 * 1_000_000 // 225, 2, 3)


def test_id_gaps_cross_block_stitch(ray_session):
    import ray.data

    from webtext.pipelines.relational import id_gaps

    # present: 1,2,5,6,10 (with dups) -> gaps (3,4) and (7,9)
    rows = [{"l_orderkey": v} for v in (5, 1, 10, 2, 6, 5, 1, 10)]
    for parts in (1, 3, 6):
        got = sorted((r["gap_start"], r["gap_end"])
                     for r in id_gaps(
                         ray.data.from_items(rows)
                         .repartition(parts)).take_all())
        assert got == [(3, 4), (7, 9)], parts


def test_hll_users_windowed_no_false_windows(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.sketches import hll_users_windowed

    rows = [
        {"ts": dt.datetime(2024, 1, 1, 5), "user_id": 1},
        {"ts": dt.datetime(2024, 1, 1, 23), "user_id": 1},  # same user
        {"ts": dt.datetime(2024, 1, 1, 9), "user_id": 2},
        {"ts": dt.datetime(2024, 1, 3, 0), "user_id": 1},
    ]
    got = {r["g"]: r["n_approx"]
           for r in hll_users_windowed(
               ray.data.from_items(rows).repartition(2)).take_all()}
    # tiny cardinalities: HLL linear counting is exact here
    assert got == {"2024-01-01": 2, "2024-01-03": 1}


def test_token_burstiness_dispersion(ray_session):
    import ray.data

    from webtext.functions.textstats import token_burstiness

    # 4 docs.  "evn" once per doc: s1=4, s2=4, N=4
    #   D = (4*4 - 16)*1e6 // 16 = 0 (perfectly even)
    # "bur" 4x in one doc: s1=4, s2=16
    #   D = (4*16 - 16)*1e6 // 16 = 3_000_000 (bursty)
    rows = [
        {"doc_id": 1, "text": "evn bur bur bur bur"},
        {"doc_id": 2, "text": "evn x"},
        {"doc_id": 3, "text": "evn y"},
        {"doc_id": 4, "text": "evn z"},
    ]
    got = {r["token"]: (r["disp_micro"], r["n_occ"])
           for r in token_burstiness(
               ray.data.from_items(rows).repartition(3),
               k=10).take_all()}
    assert got["evn"] == (0, 4)
    assert got["bur"] == (3_000_000, 4)


def test_stratified_k_sample_exact_per_group(ray_session):
    import hashlib

    import ray.data

    from webtext.functions.textstats import stratified_k_sample

    rows = ([{"doc_id": i, "lang": "en"} for i in range(20)]
            + [{"doc_id": 100 + i, "lang": "fr"} for i in range(3)])
    ds = ray.data.from_items(rows).repartition(4)
    got = {}
    for r in stratified_k_sample(ds, "lang", k=5).take_all():
        got.setdefault(r["lang"], []).append(r["doc_id"])
    # en: exactly 5; fr: all 3 (group smaller than k)
    assert len(got["en"]) == 5 and sorted(got["fr"]) == [100, 101, 102]
    want_en = sorted(range(20),
                     key=lambda d: (hashlib.md5(str(d).encode())
                                    .hexdigest(), d))[:5]
    assert sorted(got["en"]) == sorted(want_en)
    # blocking-invariant
    got2 = sorted((r["lang"], r["doc_id"]) for r in stratified_k_sample(
        ds.repartition(7), "lang", k=5).take_all())
    assert got2 == sorted((g, d) for g, ds_ in got.items() for d in ds_)


def test_embedding_dim_stats_limbs_and_signs(ray_session):
    import ray.data

    from webtext.functions.ann import embedding_dim_stats

    rows = [
        {"vec_id": 1, "embedding": [0.5, -0.5]},
        {"vec_id": 2, "embedding": [1.0, -1.0]},
        {"vec_id": 3, "embedding": [0.0, 2.0]},
    ]
    got = {r["dim"]: (r["n"], r["sum_q"], r["sumsq_hi"], r["sumsq_lo"])
           for r in embedding_dim_stats(
               ray.data.from_items(rows).repartition(2)).take_all()}
    # dim 0: q = 5e5, 1e6, 0 -> sum 1.5e6; ss = 2.5e11 + 1e12 = 1.25e12
    assert got[0] == (3, 1_500_000, 1250, 0)
    # dim 1: q = -5e5, -1e6, 2e6 -> sum 5e5; ss = 1.25e12 + 4e12
    assert got[1] == (3, 500_000, 5250, 0)


def test_gini_by_source_extremes(ray_session):
    import ray.data

    from webtext.functions.textstats import gini_by_source

    rows = (
        # src e: perfectly even lengths -> G = (2*six-(n+1)*sx)/(n*sx)
        #   six = 10*(1+2+3) = 60, sx = 30, n = 3 -> (120-120)/90 = 0
        [{"source": "e", "n_chars": 10, "doc_id": i} for i in range(3)]
        # src u: one doc holds everything -> near-max concentration
        + [{"source": "u", "n_chars": 0, "doc_id": 10},
           {"source": "u", "n_chars": 0, "doc_id": 11},
           {"source": "u", "n_chars": 90, "doc_id": 12}]
    )
    got = {r["source"]: r["gini_micro"]
           for r in gini_by_source(
               ray.data.from_items(rows).repartition(3)).take_all()}
    # u: six = 3*90 = 270 -> (540 - 4*90)*1e6 // (3*90) = 666666
    assert got == {"e": 0, "u": 666_666}


def test_vocab_growth_first_occurrence(ray_session):
    import ray.data

    from webtext.functions.textstats import vocab_growth

    # 4 docs; "a" first in doc 0, "b" in doc 1, "c"/"d" in doc 3
    rows = [
        {"doc_id": 0, "text": "a a"},
        {"doc_id": 1, "text": "a b"},
        {"doc_id": 2, "text": "b a"},
        {"doc_id": 3, "text": "c d a"},
    ]
    got = {r["pct"]: r["n_distinct"]
           for r in vocab_growth(
               ray.data.from_items(rows).repartition(3),
               pcts=(25, 50, 100)).take_all()}
    # thr(25) = (4*25+99)//100 = 1 -> docs {0}: {a}
    # thr(50) = 2 -> docs {0,1}: {a,b}; thr(100) = 4 -> all: {a,b,c,d}
    assert got == {25: 1, 50: 2, 100: 4}


def test_hapax_stats_counts(ray_session):
    """Per-source vocab/hapax/token counts; hapax is per-source (a
    token repeated only across sources stays hapax in each)."""
    import ray.data

    from webtext.functions.textstats import hapax_stats

    docs = ray.data.from_items([
        {"source": "a", "text": "x x y"},
        {"source": "a", "text": "z"},
        {"source": "b", "text": "x q"},
    ]).repartition(3)
    got = {r["source"]: (r["vocab_size"], r["n_hapax"], r["n_tokens"])
           for r in hapax_stats(docs).take_all()}
    # source a: tokens x,x,y,z → vocab 3, hapax {y,z}=2, n=4
    # source b: tokens x,q → vocab 2, hapax {x,q}=2, n=2
    assert got == {"a": (3, 2, 4), "b": (2, 2, 2)}


def test_pca_top_component_axis_dominant(ray_session):
    """Vectors concentrated on one axis → that axis dominates the top
    direction; result is invariant under re-blocking (limb-exact Gram)."""
    import ray.data

    from webtext.functions.ann import pca_top_component

    rows = [{"vec_id": i, "embedding": [float(3 + (i % 2)), 0.001, 0.0]}
            for i in range(8)]
    rows += [{"vec_id": 100 + i,
              "embedding": [0.0, 0.5, 0.25]} for i in range(2)]
    a = pca_top_component(ray.data.from_items(rows).repartition(1))
    b = pca_top_component(ray.data.from_items(rows).repartition(5))
    assert a.to_pylist() == b.to_pylist()
    got = a.to_pylist()
    assert got[0]["dim"] == 0
    lm = [r["loading_micro"] for r in got]
    assert lm[0] > 900_000           # axis-0 dominant, positive sign
    assert abs(lm[1]) < 200_000 and abs(lm[2]) < 200_000


def test_kmv_distinct_exact_below_capacity_and_invariant(ray_session):
    import ray.data

    from webtext.functions.sketches import kmv_distinct

    rows = [{"user_id": i % 37} for i in range(400)]
    a = kmv_distinct(ray.data.from_items(rows).repartition(1),
                     "user_id", k=256)
    b = kmv_distinct(ray.data.from_items(rows).repartition(7),
                     "user_id", k=256)
    assert a.to_pylist() == b.to_pylist()
    r = a.to_pylist()[0]
    assert r["est_distinct"] == 37 and r["k_used"] == 37


def test_kmv_distinct_estimate_at_capacity(ray_session):
    import ray.data

    from webtext.functions.sketches import kmv_distinct

    rows = [{"user_id": i} for i in range(5000)]
    r = kmv_distinct(ray.data.from_items(rows).repartition(4),
                     "user_id", k=64).to_pylist()[0]
    assert r["k_used"] == 64
    # RSE ~ 1/sqrt(62) ≈ 13%; allow 4σ
    assert 2500 < r["est_distinct"] < 7500


def test_effective_rank_extremes(ray_session):
    """Isotropic axis-aligned vectors → er = d exactly; a single
    repeated vector → er = 1; invariant under re-blocking."""
    import ray.data

    from webtext.functions.ann import effective_rank

    iso = [{"vec_id": i, "embedding": [1.0 if j == i % 3 else 0.0
                                       for j in range(3)]}
           for i in range(9)]
    r = effective_rank(ray.data.from_items(iso)).to_pylist()[0]
    assert r == {"dim": 3, "er_micro": 3_000_000}

    one = [{"vec_id": i, "embedding": [0.5, 0.25, 0.125]}
           for i in range(4)]
    a = effective_rank(ray.data.from_items(one).repartition(1))
    b = effective_rank(ray.data.from_items(one).repartition(3))
    assert a.to_pylist() == b.to_pylist()
    assert a.to_pylist()[0]["er_micro"] == 1_000_000


def test_whiten_embeddings_whitens(ray_session):
    """After whitening, the sample second-moment matrix is ~identity
    (scaled micros): diagonal near 1e6·1e6... checked in float; also
    blocking-invariant bit-for-bit."""
    import ray.data

    from webtext.functions.ann import whiten_embeddings

    rng_rows = []
    # deterministic anisotropic cloud: dim0 stretched 10x
    for i in range(64):
        a = ((i * 37) % 13 - 6) / 3.0
        b = ((i * 11) % 7 - 3) / 3.0
        rng_rows.append({"vec_id": i, "embedding": [10.0 * a, b]})
    a1 = whiten_embeddings(ray.data.from_items(rng_rows)
                           .repartition(1)).to_pandas()
    a5 = whiten_embeddings(ray.data.from_items(rng_rows)
                           .repartition(5)).to_pandas()
    key = ["vec_id", "dim"]
    assert a1.sort_values(key).reset_index(drop=True).equals(
        a5.sort_values(key).reset_index(drop=True))
    w = a1.pivot(index="vec_id", columns="dim",
                 values="w_micro").to_numpy() / 1e6
    C = (w.T @ w) / len(w)
    import numpy as np
    assert np.allclose(C, np.eye(2), atol=0.05)


def test_ivf_recall_audit_full_probe_is_exact(ray_session):
    """Probing every list makes IVF ≡ exact → recall 1.0 for every
    query; blocking-invariant."""
    import ray.data

    from webtext.functions.ann import ivf_recall_audit

    rows = [{"vec_id": i, "label": 0,
             "embedding": [((i * 13) % 7) / 7.0,
                           ((i * 29) % 11) / 11.0]}
            for i in range(40)]
    a = ivf_recall_audit(ray.data.from_items(rows).repartition(1),
                         n_queries=4, k=5, nlist=4, nprobe=4)
    b = ivf_recall_audit(ray.data.from_items(rows).repartition(6),
                         n_queries=4, k=5, nlist=4, nprobe=4)
    assert a.to_pylist() == b.to_pylist()
    assert all(r["recall_micro"] == 1_000_000 for r in a.to_pylist())


def test_bloom_fp_audit_forced_fp(ray_session):
    """A tiny m forces false positives: bloom hits ≥ true hits, FP rate
    measured over truly-new probes only; true dups never count as FP."""
    import ray.data

    from webtext.functions.sketches import bloom_fp_audit

    seen = ray.data.from_items(
        [{"doc_id": i, "text": f"seen document {i}"} for i in range(40)])
    probe_rows = [{"doc_id": 100 + i, "text": f"new document {i}"}
                  for i in range(30)]
    probe_rows.append({"doc_id": 200, "text": "seen document 7"})
    probe = ray.data.from_items(probe_rows)
    r = bloom_fp_audit(seen, probe, m=256, k=4).to_pylist()[0]
    assert r["n_probe"] == 31 and r["n_true_hits"] == 1
    assert r["n_bloom_hits"] >= r["n_true_hits"]
    assert r["fp_micro"] == (1_000_000 * (r["n_bloom_hits"] - 1)) // 30


def test_hll_error_audit_exact_small(ray_session):
    """Far below 2^p the linear-counting regime is near-exact."""
    import ray.data

    from webtext.functions.sketches import hll_error_audit

    rows = [{"user_id": i % 25} for i in range(300)]
    r = hll_error_audit(ray.data.from_items(rows).repartition(5),
                        "user_id").to_pylist()[0]
    assert r["exact_distinct"] == 25
    assert abs(r["n_approx"] - 25) <= 1


def test_cms_error_audit_overestimates_only(ray_session):
    import ray.data

    from webtext.functions.sketches import cms_error_audit

    rows = [{"text": f"tok{i % 40} tok{(i * 7) % 40} common"}
            for i in range(200)]
    r = cms_error_audit(ray.data.from_items(rows), k=20,
                        w=4).to_pylist()[0]
    assert r["sum_est"] >= r["sum_exact"]      # CMS >= bound
    assert r["over_micro"] > 0                 # collisions forced


def test_quantile_sketch_audit_error_bound(ray_session):
    """Sketch estimates stay within the 1/(2·32) relative-error bound
    of the exact quantile; exact side matches a direct numpy rank."""
    import numpy as np
    import ray.data

    from webtext.functions.sketches import quantile_sketch_audit

    vals = [float(v) for v in np.linspace(1.0, 500.0, 97)]
    rows = [{"event_type": "a", "value": v} for v in vals]
    rows += [{"event_type": "b", "value": v * 2} for v in vals]
    got = quantile_sketch_audit(
        ray.data.from_items(rows).repartition(4)).to_pylist()
    assert len(got) == 4            # 2 groups x 2 quantiles
    for r in got:
        assert r["err_micro"] <= 16_000     # 1/(2*32) = 1.5625%
        rank = max(0, -(-len(vals) * r["q_pct"] // 100) - 1)
        base = sorted(vals)[rank] * (1 if r["grp"] == "a" else 2)
        assert r["exact_cents"] == int(np.floor(base * 100 + 0.5))


def test_pq_recall_audit_identity_codebook(ray_session):
    """With ksub ≥ distinct sub-vectors the codebook reproduces every
    vector exactly → ADC ranking ≡ exact L2 → recall 1.0; and the
    audit is blocking-invariant."""
    import ray.data

    from webtext.functions.ann import pq_recall_audit

    # 8 distinct vectors in 2 dims, m=2 → 1-dim subspaces, ksub=8
    rows = [{"vec_id": i, "label": 0,
             "embedding": [float(i), float(7 - i)]} for i in range(8)]
    a = pq_recall_audit(ray.data.from_items(rows).repartition(1),
                        n_queries=3, k=3, m=2, ksub=8)
    b = pq_recall_audit(ray.data.from_items(rows).repartition(4),
                        n_queries=3, k=3, m=2, ksub=8)
    assert a.to_pylist() == b.to_pylist()
    assert all(r["recall_micro"] == 1_000_000 for r in a.to_pylist())


def test_hybrid_rrf_hand_fusion(ray_session):
    """RRF over two tiny crafted lists: hand-computed integer micros."""
    import ray.data

    from webtext.functions.ann import hybrid_rrf

    # docs crafted so bm25 ranks doc 1 > doc 2 ("hash" twice vs once);
    # embeddings crafted so cosine ranks 2 > 3 vs query vec 0
    docs = ray.data.from_items([
        {"doc_id": 1, "text": "hash hash join x"},
        {"doc_id": 2, "text": "hash y z w"},
        {"doc_id": 3, "text": "nothing relevant here at all"},
    ])
    embs = ray.data.from_items([
        {"vec_id": 0, "embedding": [1.0, 0.0], "label": 0},
        {"vec_id": 2, "embedding": [0.9, 0.1], "label": 0},
        {"vec_id": 3, "embedding": [0.0, 1.0], "label": 0},
    ])
    out = {int(r["doc_id"]): int(r["rrf_micro"])
           for r in hybrid_rrf(docs, embs,
                               ("hash", "join")).to_pylist()}
    m = 1_000_000
    assert out == {
        1: m // 61,             # lex rank 1 only
        2: m // 62 + m // 61,   # lex rank 2 + sem rank 1
        3: m // 62,             # sem rank 2 only
    }


def test_ndcg_audit_full_probe_is_perfect(ray_session):
    """Probing every list makes the IVF ranking ≡ exact → nDCG 1.0 and
    DCG == IDCG for every query; blocking-invariant."""
    import ray.data

    from webtext.functions.ann import _dcg_discounts, ndcg_audit

    rows = [{"vec_id": i, "label": 0,
             "embedding": [((i * 13) % 7) / 7.0,
                           ((i * 29) % 11) / 11.0]}
            for i in range(40)]
    a = ndcg_audit(ray.data.from_items(rows).repartition(1),
                   n_queries=4, k=5, nlist=4, nprobe=4)
    b = ndcg_audit(ray.data.from_items(rows).repartition(6),
                   n_queries=4, k=5, nlist=4, nprobe=4)
    assert a.to_pylist() == b.to_pylist()
    disc = _dcg_discounts(5)
    ideal = sum((5 - i) * disc[i] for i in range(5))
    for r in a.to_pylist():
        assert r["ndcg_micro"] == 1_000_000
        assert r["dcg_units"] == ideal


def test_ndcg_audit_rank_aware_vs_recall():
    """The discount table is the pinned round(1e6/log2(r+1)) integers,
    and a reversed-order list (recall 1.0) scores visibly below 1.0 —
    the property recall@k cannot see."""
    from webtext.functions.ann import _dcg_discounts

    disc = _dcg_discounts(10)
    assert disc == [1000000, 630930, 500000, 430677, 386853,
                    356207, 333333, 315465, 301030, 289065]
    k = 10
    ideal = sum((k - i) * disc[i] for i in range(k))
    # exact list reversed: gain of position i is (i+1)
    reversed_dcg = sum((i + 1) * disc[i] for i in range(k))
    assert 0 < reversed_dcg < ideal
    assert (1_000_000 * reversed_dcg) // ideal < 900_000


def test_coverage_select_greedy_and_blocking(ray_session):
    """Sequential-greedy equivalence: gain-desc/doc-asc tie-break,
    stop at zero gain, covered is cumulative; result independent of
    block layout (the block winner IS the global argmax candidate)."""
    import ray.data

    from webtext.functions.textstats import coverage_select

    rows = [
        {"doc_id": 4, "text": "a b c d"},   # 4 tokens
        {"doc_id": 2, "text": "e f g h"},   # also 4 -> tie, doc 2 wins
        {"doc_id": 3, "text": "a b e f"},   # fully covered after both
        {"doc_id": 7, "text": "x"},
    ]
    got = coverage_select(ray.data.from_items(rows).repartition(1),
                          k=10).to_pylist()
    want = [
        {"rank": 1, "doc_id": 2, "gain": 4, "covered": 4},
        {"rank": 2, "doc_id": 4, "gain": 4, "covered": 8},
        {"rank": 3, "doc_id": 7, "gain": 1, "covered": 9},
    ]
    assert got == want
    got4 = coverage_select(ray.data.from_items(rows).repartition(4),
                           k=10).to_pylist()
    assert got4 == want


def test_coverage_select_bigram_unit(ray_session):
    """Bigram units never cross documents; single-token docs
    contribute no bigrams and are never picked."""
    import ray.data

    from webtext.functions.textstats import coverage_select

    rows = [
        {"doc_id": 1, "text": "a b c"},     # bigrams: 'a b', 'b c'
        {"doc_id": 2, "text": "b c a"},     # 'b c', 'c a'
        {"doc_id": 3, "text": "z"},         # no bigrams
    ]
    got = coverage_select(ray.data.from_items(rows).repartition(2),
                          k=5, unit="bigram").to_pylist()
    assert got == [
        {"rank": 1, "doc_id": 1, "gain": 2, "covered": 2},
        {"rank": 2, "doc_id": 2, "gain": 1, "covered": 3},
    ]


def test_hhi_by_source_crafted(ray_session):
    """Degenerate one-token feed scores exactly 1e6; an even two-token
    feed scores 500000; counts merge across blocks before squaring."""
    import ray.data

    from webtext.functions.textstats import hhi_by_source

    rows = [
        {"source": "mono", "text": "x x x"},
        {"source": "mono", "text": "x"},            # still all 'x'
        {"source": "even", "text": "a b"},
        {"source": "even", "text": "b a"},          # a:2 b:2
    ]
    got = {r["source"]: r for r in
           hhi_by_source(ray.data.from_items(rows).repartition(4))
           .to_pylist()}
    assert got["mono"] == {"source": "mono", "vocab": 1,
                           "n_tokens": 4, "hhi_micro": 1_000_000}
    assert got["even"] == {"source": "even", "vocab": 2,
                           "n_tokens": 4, "hhi_micro": 500_000}


def test_k_anonymity_crafted(ray_session):
    """Only classes below k are reported, bucketing is floor-division,
    and counts are global across blocks."""
    import ray.data

    from webtext.functions.curation import k_anonymity

    rows = ([{"lang": "en", "source": "s0", "n_chars": 150}] * 5
            + [{"lang": "en", "source": "s0", "n_chars": 250}] * 2
            + [{"lang": "fr", "source": "s1", "n_chars": 399}])
    got = k_anonymity(ray.data.from_items(rows).repartition(3),
                      k=5, chars_bucket=200).take_all()
    # the 5-row class (en, s0, 0) is k-anonymous -> absent
    assert got == [
        {"lang": "en", "source": "s0", "chars_bucket": 1, "n": 2},
        {"lang": "fr", "source": "s1", "chars_bucket": 1, "n": 1},
    ]


def test_crawl_diff_three_way(ray_session):
    """added/removed/changed classified per id run; unchanged docs
    emit nothing; texts travel only as fingerprints.  Block-split
    invariant."""
    import ray.data

    from webtext.functions.dedup import crawl_diff

    old = [{"doc_id": 1, "text": "same"},
           {"doc_id": 2, "text": "old body"},
           {"doc_id": 3, "text": "gone"}]
    new = [{"doc_id": 1, "text": "same"},
           {"doc_id": 2, "text": "new body"},
           {"doc_id": 4, "text": "fresh"}]
    for parts in (1, 3):
        got = sorted(
            (r["doc_id"], r["change"]) for r in crawl_diff(
                ray.data.from_items(old).repartition(parts),
                ray.data.from_items(new).repartition(parts),
                n_buckets=4).take_all())
        assert got == [(2, "changed"), (3, "removed"), (4, "added")]


def test_crawl_diff_duplicate_id_raises(ray_session):
    """A doc_id duplicated within one snapshot violates the uniqueness
    contract and must raise, never silently misclassify (two old rows
    with differing text and no new row would otherwise emit
    'changed')."""
    import pytest
    import ray.data

    from webtext.functions.dedup import crawl_diff

    old = [{"doc_id": 2, "text": "v1"}, {"doc_id": 2, "text": "v2"}]
    new = [{"doc_id": 1, "text": "x"}]
    with pytest.raises((ValueError, Exception)) as ei:
        crawl_diff(ray.data.from_items(old),
                   ray.data.from_items(new), n_buckets=2).take_all()
    assert "uniqueness" in str(ei.value) or "length-2 run" \
        in str(ei.value) or "more than once" in str(ei.value)


def test_hard_negatives_label_exclusion(ray_session):
    """Negatives never share the query's label, ranking is cosine desc
    with the min-id tie rule, and the result is blocking-invariant."""
    import ray.data

    from webtext.functions.ann import hard_negatives

    # label 0 points near +x; label 1 points near +y; query 0 (label
    # 0) must pick label-1 vectors ordered by closeness to +x
    rows = [
        {"vec_id": 0, "label": 0, "embedding": [1.0, 0.0]},
        {"vec_id": 1, "label": 0, "embedding": [0.9, 0.1]},
        {"vec_id": 2, "label": 1, "embedding": [0.5, 0.5]},
        {"vec_id": 3, "label": 1, "embedding": [0.1, 0.9]},
        {"vec_id": 4, "label": 1, "embedding": [0.5, 0.5]},  # tie w/ 2
    ]
    for parts in (1, 4):
        got = [(r["qid"], r["vec_id"], r["rank"]) for r in
               hard_negatives(ray.data.from_items(rows)
                              .repartition(parts),
                              n_queries=1, k=3).take_all()]
        assert got == [(0, 2, 1), (0, 4, 2), (0, 3, 3)]


def test_incremental_dedup_indexed_identical(ray_session, tmp_path):
    """A query through the persisted fingerprint index is row-identical
    to the inline historical pass, and the build is idempotent."""
    import ray.data

    from webtext.pipelines.dedup_pipeline import (
        build_fingerprint_index, incremental_dedup)

    hist = ray.data.from_items(
        [{"doc_id": 1, "text": "seen before"},
         {"doc_id": 2, "text": "also seen"}])
    new = ray.data.from_items(
        [{"doc_id": 10, "text": "seen before"},   # dropped: historical
         {"doc_id": 11, "text": "fresh"},
         {"doc_id": 12, "text": "fresh"}])        # first-wins -> 11
    path = str(tmp_path / "fpidx")
    build_fingerprint_index(hist, path)
    build_fingerprint_index(hist, path)   # no-op second build
    inline = sorted(r["doc_id"] for r in
                    incremental_dedup(new, hist).take_all())
    indexed = sorted(r["doc_id"] for r in
                     incremental_dedup(new, hist,
                                       hist_fp_path=path).take_all())
    assert inline == indexed == [11]


def test_cluster_census_counts_and_blocking(ray_session):
    """Memberships sum to the corpus size, inertia is the quantized
    per-vector d^2 sum, and the census is blocking-invariant."""
    import numpy as np
    import ray.data

    from webtext.functions.ann import cluster_census

    rows = [{"vec_id": i, "label": 0,
             "embedding": [float(i % 4), float((i * 3) % 5)]}
            for i in range(40)]
    a = cluster_census(ray.data.from_items(rows).repartition(1),
                       nlist=4).take_all()
    b = cluster_census(ray.data.from_items(rows).repartition(7),
                       nlist=4).take_all()
    assert a == b
    assert sum(r["n"] for r in a) == 40
    assert all(r["inertia_micro"] >= 0 for r in a)


def test_borda_blend_dense_ranks(ray_session):
    """Dense (not ordinal) ranks: tied metric values share a rank;
    blend = sum of the three descending ranks, ties -> min doc_id;
    blocking-invariant."""
    import ray.data

    from webtext.functions.textstats import borda_blend

    rows = [
        # doc 1: chars 30, tok 3, dist 3 -> ranks (1, 1, 1) = 3
        {"doc_id": 1, "n_chars": 30, "text": "a b c"},
        # doc 2: chars 20, tok 3, dist 2 -> ranks (2, 1, 2) = 5
        {"doc_id": 2, "n_chars": 20, "text": "a a b"},
        # doc 3: chars 20, tok 2, dist 2 -> ranks (2, 2, 2) = 6
        {"doc_id": 3, "n_chars": 20, "text": "a b"},
    ]
    for parts in (1, 3):
        got = [(r["doc_id"], r["borda"]) for r in
               borda_blend(ray.data.from_items(rows)
                           .repartition(parts), k=10).take_all()]
        assert got == [(1, 3), (2, 5), (3, 6)]


def test_l_diversity_crafted(ray_session):
    """A large class with a single sensitive value is flagged; a small
    class with >= l distinct values is not."""
    import ray.data

    from webtext.functions.curation import l_diversity

    rows = ([{"source": "s0", "n_chars": 10, "lang": "en"}] * 6
            + [{"source": "s1", "n_chars": 10, "lang": l}
               for l in ("en", "fr", "de")])
    got = l_diversity(ray.data.from_items(rows).repartition(3),
                      l=3, chars_bucket=200).take_all()
    assert got == [{"source": "s0", "chars_bucket": 0,
                    "n_rows": 6, "n_langs": 1}]


def test_dim_truncation_audit_full_dims_is_exact(ray_session):
    """keep_dims == full dimensionality makes the truncated ranking
    identical -> recall 1.0 everywhere; blocking-invariant."""
    import ray.data

    from webtext.functions.ann import dim_truncation_audit

    rows = [{"vec_id": i, "label": 0,
             "embedding": [((i * 13) % 7) / 7.0,
                           ((i * 29) % 11) / 11.0]}
            for i in range(30)]
    a = dim_truncation_audit(
        ray.data.from_items(rows).repartition(1),
        n_queries=4, k=5, keep_dims=2)
    b = dim_truncation_audit(
        ray.data.from_items(rows).repartition(5),
        n_queries=4, k=5, keep_dims=2)
    assert a.to_pylist() == b.to_pylist()
    assert all(r["recall_micro"] == 1_000_000 for r in a.to_pylist())


def test_weighted_k_sample_weight_bias_and_blocking(ray_session):
    """Exactly k rows, blocking-invariant, and heavier docs win more
    often (statistical sanity at a deterministic fixed seed set)."""
    import ray.data

    from webtext.functions.textstats import weighted_k_sample

    rows = ([{"doc_id": i, "n_chars": 10_000} for i in range(100)]
            + [{"doc_id": i, "n_chars": 1} for i in range(100, 200)])
    a = sorted(r["doc_id"] for r in weighted_k_sample(
        ray.data.from_items(rows).repartition(1), k=50).take_all())
    b = sorted(r["doc_id"] for r in weighted_k_sample(
        ray.data.from_items(rows).repartition(7), k=50).take_all())
    assert a == b and len(a) == 50
    heavy = sum(1 for d in a if d < 100)
    assert heavy >= 45   # 10,000:1 weights -> light docs are rare


def test_label_centroid_drift_zero_for_identical(ray_session):
    """A label whose members all equal the global centroid direction
    drifts 0; a perpendicular one drifts to ~1e6; blocking-invariant."""
    import ray.data

    from webtext.functions.ann import label_centroid_drift

    rows = ([{"vec_id": i, "label": 0, "embedding": [1.0, 0.0]}
             for i in range(8)]
            + [{"vec_id": 8 + i, "label": 1, "embedding": [0.0, 1.0]}
               for i in range(2)])
    a = label_centroid_drift(
        ray.data.from_items(rows).repartition(1)).to_pylist()
    b = label_centroid_drift(
        ray.data.from_items(rows).repartition(5)).to_pylist()
    assert a == b
    d = {r["label"]: r["drift_micro"] for r in a}
    # global centroid = (0.8, 0.2): label 0 is much closer than label 1
    assert d[0] < 40_000 < d[1]
    assert {r["label"]: r["n"] for r in a} == {0: 8, 1: 2}


def test_readability_integer_rational(ray_session):
    """The pinned integer-rational ARI: floors, the min-1 sentence
    guard, and per-doc independence across blocks."""
    import ray.data

    from webtext.functions.textstats import readability

    rows = [
        # 10 chars, 2 words, 1 period: 4710000*10//2 + 500000*2//1
        # - 21430000 = 23550000 + 1000000 - 21430000 = 3120000
        {"doc_id": 1, "n_chars": 10, "text": "ab cdefg."},
        # no period -> sentence guard = 1
        {"doc_id": 2, "n_chars": 4, "text": "a b"},
    ]
    got = {r["doc_id"]: r["ari_micro"] for r in readability(
        ray.data.from_items(rows).repartition(2)).take_all()}
    assert got[1] == 3_120_000
    assert got[2] == (4_710_000 * 4) // 2 + (500_000 * 2) // 1 \
        - 21_430_000


def test_cms_join_estimate_bounds(ray_session):
    """The inner-product estimate is an UPPER bound (err >= 0) at any
    width, and exact (err == 0) when the width swallows the vocab."""
    import ray.data

    from webtext.functions.sketches import cms_join_estimate

    rows = [{"text": "a a a b"}, {"text": "a b c"}]
    # exact: a=4 -> 16, b=2 -> 4, c=1 -> 1 => 21
    wide = cms_join_estimate(
        ray.data.from_items(rows).repartition(2), w=8192).to_pylist()[0]
    assert wide == {"exact_join": 21, "cms_est": 21, "err_micro": 0}
    tiny = cms_join_estimate(
        ray.data.from_items(rows).repartition(2), w=1).to_pylist()[0]
    # everything collides into one cell: est = (4+2+1)^2 = 49
    assert tiny == {"exact_join": 21, "cms_est": 49,
                    "err_micro": (1_000_000 * 28) // 21}


def test_graph_family_matches_oracles(ray_session):
    """The iterative graph operators (pagerank, personalized pagerank,
    hits, coreness, lpa, bfs, walks) and the web-graph queries built on
    them agree with their live-SQL or golden oracles."""
    from tools.check_queries import main

    assert main(SF, ["pagerank", "pagerank_weighted", "hits_scores",
                     "part_coreness", "part_communities", "part_distances",
                     "graph_walks", "host_pagerank", "doc_authority"]) == 0
