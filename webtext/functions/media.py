"""Multimodal feature extraction over media spans — actor-pool stage with
REAL Ray plumbing and a STUBBED decoder.

This container ships no image/audio codecs, so ``FakeDecoder`` derives
deterministic pseudo-features (width/height/frames) from the media_ref
hash; a real deployment swaps in a codec-backed decoder with the same
``decode(media_ref) -> dict`` contract — the schema, actor lifecycle,
batch sizing and output layout below are production-shaped and tested.
Raising ``NotImplementedError`` from ``RealDecoder`` marks the seam.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import _hash_exchange, _ibucket, aggregate
from .dedup import (_cell_member_pairs, _col_i64, _popcount64,
                    connected_components)
# module scope: worker closures must never lazy-import webtext

MEDIA_FEATURES_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("media_ref", pa.string()),
    ("kind", pa.string()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("n_frames", pa.int32()),
])


class RealDecoder:  # pragma: no cover - deployment seam
    def decode(self, media_ref: str) -> dict:
        raise NotImplementedError(
            "no media codecs in this environment; swap in a codec-backed "
            "decoder (PIL/ffmpeg) with the same contract")


class PilDecoder:
    """Codec-backed decoder used when the PIL wheel is present.

    Probes PIL at construction (i.e. once per actor, in ``__init__`` of
    the map_batches actor that holds it) — constructing it without PIL
    raises ImportError, which ``auto_decoder_cls`` turns into the
    FakeDecoder fallback.  Decodes ``inline:<base64>`` media_refs (bytes
    carried in the ref itself — the shape unit tests use); refs that
    are opaque storage pointers need the fetch layer of a real
    deployment and raise NotImplementedError, same as RealDecoder."""

    def __init__(self):
        from PIL import Image  # probe: ImportError when wheel absent

        self._Image = Image

    def decode(self, media_ref: str) -> dict:
        if not media_ref.startswith("inline:"):
            raise NotImplementedError(
                "PilDecoder decodes inline:<base64> refs only; opaque "
                "storage refs need the deployment fetch layer")
        import base64
        import io

        raw = base64.b64decode(media_ref[len("inline:"):])
        with self._Image.open(io.BytesIO(raw)) as im:
            return {"width": int(im.width), "height": int(im.height),
                    "n_frames": int(getattr(im, "n_frames", 1))}


def auto_decoder_cls():
    """Opportunistic codec probe: PilDecoder when PIL imports, else the
    deterministic FakeDecoder.  Pass the result as ``decoder_cls`` to
    any media actor; the default stays FakeDecoder so pinned goldens
    are environment-independent.  (For corpora whose refs are known to
    be inline PNGs, ``PngInlineDecoder`` decodes real bytes with no
    wheel at all — the media_features_real query path.)"""
    try:
        PilDecoder()
        return PilDecoder
    except ImportError:
        return FakeDecoder


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def encode_png(width: int, height: int, seed: int = 0) -> bytes:
    """A REAL, minimal, valid 8-bit grayscale PNG — pure stdlib (struct
    + zlib), deterministic pixels from ``seed``.  Fixture generator for
    the real-decode path: PIL opens these when present, and
    PngInlineDecoder decodes them everywhere."""
    import struct

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    raw = b"".join(
        b"\x00" + bytes(((seed + y * width + x) * 97 + 13) & 0xFF
                        for x in range(width))
        for y in range(height))
    return (_PNG_SIG + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw))
            + chunk(b"IEND", b""))


class PngInlineDecoder:
    """REAL byte decoder with no codec wheel: walks the PNG chunk
    stream of an ``inline:<base64>`` ref — signature check, per-chunk
    CRC verification, width/height from IHDR, n_frames from the APNG
    acTL chunk when present (1 otherwise).  This is the
    environment-independent proof that the decoder seam carries real
    bytes end-to-end; PilDecoder supersedes it for general formats
    when the wheel exists (same ``decode`` contract)."""

    def decode(self, media_ref: str) -> dict:
        if not media_ref.startswith("inline:"):
            raise NotImplementedError(
                "PngInlineDecoder decodes inline:<base64> refs only")
        import base64
        import struct

        raw = base64.b64decode(media_ref[len("inline:"):])
        if raw[:8] != _PNG_SIG:
            raise ValueError("not a PNG: bad signature")
        width = height = None
        n_frames = 1
        pos = 8
        while pos + 8 <= len(raw):
            (length,), tag = struct.unpack(">I", raw[pos:pos + 4]), \
                raw[pos + 4:pos + 8]
            payload = raw[pos + 8:pos + 8 + length]
            (crc,) = struct.unpack(
                ">I", raw[pos + 8 + length:pos + 12 + length])
            if zlib.crc32(tag + payload) != crc:
                raise ValueError(f"PNG chunk {tag!r}: CRC mismatch")
            if tag == b"IHDR":
                width, height = struct.unpack(">II", payload[:8])
            elif tag == b"acTL":
                (n_frames,) = struct.unpack(">I", payload[:4])
            elif tag == b"IEND":
                break
            pos += 12 + length
        if width is None:
            raise ValueError("PNG without IHDR")
        return {"width": int(width), "height": int(height),
                "n_frames": int(n_frames)}


class FakeDecoder:
    """Deterministic stand-in: features from the ref's crc32."""

    def decode(self, media_ref: str) -> dict:
        h = zlib.crc32(media_ref.encode("utf-8"))
        return {
            "width": 160 + (h & 0x3FF),
            "height": 120 + ((h >> 10) & 0x3FF),
            "n_frames": 1 + ((h >> 20) & 0xFF),
        }


class MediaFeatureActor:
    """map_batches over extraction OUTPUT rows: explode media spans into
    one feature row each.  Decoder loads once per actor (__init__)."""

    def __init__(self, decoder_cls=FakeDecoder):
        self.decoder = decoder_cls()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in MEDIA_FEATURES_SCHEMA.names}
        for doc_id, spans in zip(batch.column("doc_id").to_pylist(),
                                 batch.column("spans").to_pylist()):
            for span in spans or []:
                if span["kind"] != "media":
                    continue
                feats = self.decoder.decode(span["media_ref"])
                out["doc_id"].append(doc_id)
                out["media_ref"].append(span["media_ref"])
                out["kind"].append(span["kind"])
                out["width"].append(feats["width"])
                out["height"].append(feats["height"])
                out["n_frames"].append(feats["n_frames"])
        return pa.Table.from_pydict(out, schema=MEDIA_FEATURES_SCHEMA)


RESIZE_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("media_ref", pa.string()),
    ("orig_w", pa.int32()),
    ("orig_h", pa.int32()),
    ("out_w", pa.int32()),
    ("out_h", pa.int32()),
])


class MediaResizeActor:
    """Aspect-preserving resize planning over media spans: the real
    pixel work is the decoder seam (RealDecoder swaps in); the
    fit-within-box arithmetic, schema and actor lifecycle are
    production-shaped.  Output dims = largest integer box ≤ (target ×
    target) preserving aspect."""

    def __init__(self, target: int = 224, decoder_cls=FakeDecoder):
        self.target = target
        self.decoder = decoder_cls()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in RESIZE_SCHEMA.names}
        for doc_id, spans in zip(batch.column("doc_id").to_pylist(),
                                 batch.column("spans").to_pylist()):
            for span in spans or []:
                if span["kind"] != "media":
                    continue
                f = self.decoder.decode(span["media_ref"])
                w, h = f["width"], f["height"]
                if w >= h:
                    ow = self.target
                    oh = max(1, (h * self.target) // w)
                else:
                    oh = self.target
                    ow = max(1, (w * self.target) // h)
                out["doc_id"].append(doc_id)
                out["media_ref"].append(span["media_ref"])
                out["orig_w"].append(w)
                out["orig_h"].append(h)
                out["out_w"].append(ow)
                out["out_h"].append(oh)
        return pa.Table.from_pydict(out, schema=RESIZE_SCHEMA)


FRAME_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("media_ref", pa.string()),
    ("frame_idx", pa.int32()),
])


class FrameSampleActor:
    """Uniform frame sampling over media spans: pick ≤ max_frames
    evenly spaced frame indices from the clip's n_frames (deterministic
    linspace-by-integer-division; the decode itself is the seam)."""

    def __init__(self, max_frames: int = 4, decoder_cls=FakeDecoder):
        self.max_frames = max_frames
        self.decoder = decoder_cls()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in FRAME_SCHEMA.names}
        for doc_id, spans in zip(batch.column("doc_id").to_pylist(),
                                 batch.column("spans").to_pylist()):
            for span in spans or []:
                if span["kind"] != "media":
                    continue
                n = self.decoder.decode(span["media_ref"])["n_frames"]
                k = min(self.max_frames, n)
                for i in range(k):
                    out["doc_id"].append(doc_id)
                    out["media_ref"].append(span["media_ref"])
                    out["frame_idx"].append((i * n) // k)
        return pa.Table.from_pydict(out, schema=FRAME_SCHEMA)


def _media_stage(extracted_ds, actor_cls, *, batch_size=64,
                 concurrency=None, **actor_kwargs):
    import ray

    if concurrency is None:
        ncpu = int(ray.cluster_resources().get("CPU", 4))
        concurrency = (1, max(2, ncpu // 2))
    return extracted_ds.map_batches(
        actor_cls, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency, num_cpus=1,
        fn_constructor_kwargs=actor_kwargs)


def media_resize(extracted_ds, target: int = 224, **kw):
    """Resize-plan table over an extracted-documents dataset."""
    return _media_stage(extracted_ds, MediaResizeActor, target=target,
                        **kw)


def frame_sample(extracted_ds, max_frames: int = 4, **kw):
    """Sampled-frame index table over an extracted-documents dataset."""
    return _media_stage(extracted_ds, FrameSampleActor,
                        max_frames=max_frames, **kw)


def media_features(extracted_ds, *, batch_size: int = 64,
                   concurrency=None, decoder_cls=FakeDecoder):
    """Feature table from an extracted-documents dataset.  Media payloads
    can be large — keep batch_size modest so batch × concurrency fits the
    worker heap (here refs are strings; with real binaries use 8-16)."""
    import ray

    if concurrency is None:
        ncpu = int(ray.cluster_resources().get("CPU", 4))
        concurrency = (1, max(2, ncpu // 2))
    return extracted_ds.map_batches(
        MediaFeatureActor, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency, num_cpus=1,
        fn_constructor_kwargs={"decoder_cls": decoder_cls})


def inline_png_rows(n: int) -> list[dict]:
    """Deterministic interleaved (doc_id, spans) rows whose media refs
    carry REAL PNG bytes inline (encode_png) — the shared INPUT for the
    real-decode query and its independently-decoded golden."""
    import base64

    rows = []
    for i in range(n):
        spans = [{"kind": "text", "text": f"caption {i}",
                  "media_ref": "", "offset": 0}]
        for j in range(1 + i % 3):
            png = encode_png(1 + (i * 3 + j) % 9, 1 + (i * 5 + j) % 7,
                             seed=i * 31 + j)
            spans.append({
                "kind": "media", "text": "",
                "media_ref":
                    "inline:" + base64.b64encode(png).decode("ascii"),
                "offset": j + 1})
        rows.append({"doc_id": f"png-{i:04d}", "spans": spans})
    return rows


# ---------------------------------------------------------------------------
# Perceptual-hash near-duplicate pairs (multimodal dedup)
# ---------------------------------------------------------------------------

PHASH_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("media_ref", pa.string()),
    ("phash", pa.int64()),
])


def _sm64(x):
    """Vectorized splitmix64 finalizer (same published constants as
    sketches._hash64) — expands small integer seeds into well-mixed
    64-bit words."""
    import numpy as np

    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def fake_thumb8(media_ref: str):
    """Deterministic 8x8 grayscale stand-in thumbnail: the base pattern
    comes from the ref's FAMILY (the ref minus its last two path
    segments — doc index and span offset), modelling 'images from one
    site template look alike'; three pixels chosen by the full ref's
    crc32 get their high bit flipped as per-image variation.  Same-
    family thumbnails therefore produce phashes within a few Hamming
    bits of each other — the structure a perceptual-hash dedup has to
    find."""
    import numpy as np

    family = media_ref.rsplit("/", 2)[0]
    fh = zlib.crc32(family.encode("utf-8"))
    base = (_sm64(np.arange(64, dtype=np.uint64) + np.uint64(fh))
            & np.uint64(0xFF)).astype(np.uint8)
    vh = zlib.crc32(media_ref.encode("utf-8"))
    for k in range(3):
        base[(vh >> (6 * k)) & 63] ^= 0x80
    return base.reshape(8, 8)


def phash64(thumb) -> int:
    """Average-hash: bit i (row-major) set iff pixel i > mean.  Packed
    into a signed int64 (raw bit pattern via uint64 view)."""
    import numpy as np

    flat = thumb.reshape(-1).astype(np.float64)
    bits = (flat > flat.mean()).astype(np.uint64)
    packed = np.uint64(0)
    for i in range(64):
        packed |= bits[i] << np.uint64(i)
    return int(packed.view(np.int64))


class PhashActor:
    """map_batches over extraction OUTPUT rows: one (doc_id, media_ref,
    phash) row per media span.  Decoder loads once per actor; FakeDecoder
    thumbnails via fake_thumb8, PilDecoder via a real 8x8 L-mode resize
    of inline refs, RealDecoder marks the deployment seam."""

    def __init__(self, decoder_cls=FakeDecoder):
        self.decoder = decoder_cls()

    def _thumb(self, media_ref: str):
        if isinstance(self.decoder, PilDecoder):
            import base64
            import io

            import numpy as np

            raw = base64.b64decode(media_ref[len("inline:"):])
            with self.decoder._Image.open(io.BytesIO(raw)) as im:
                return np.asarray(
                    im.convert("L").resize((8, 8)), dtype=np.uint8)
        if isinstance(self.decoder, FakeDecoder):
            return fake_thumb8(media_ref)
        raise NotImplementedError(
            "thumbnail decode needs a codec-backed decoder")

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in PHASH_SCHEMA.names}
        for doc_id, spans in zip(batch.column("doc_id").to_pylist(),
                                 batch.column("spans").to_pylist()):
            for span in spans or []:
                if span["kind"] != "media":
                    continue
                out["doc_id"].append(doc_id)
                out["media_ref"].append(span["media_ref"])
                out["phash"].append(phash64(self._thumb(
                    span["media_ref"])))
        return pa.Table.from_pydict(out, schema=PHASH_SCHEMA)


def media_phash(extracted_ds, **kw):
    """Perceptual-hash table over an extracted-documents dataset."""
    return _media_stage(extracted_ds, PhashActor, **kw)


def media_phash_pairs(extracted_ds, max_hamming: int = 6):
    """(left_ref, right_ref, hamming): near-duplicate media pairs by
    perceptual hash — the multimodal analogue of simhash_dup_pairs.

    Candidates via 8 bands of 8 bits: by pigeonhole any pair with
    Hamming distance ≤ 7 agrees on at least one band, so for
    max_hamming ≤ 7 the banded result EQUALS the brute-force all-pairs
    filter (the golden is brute force).  Band rows go through one hash
    exchange on hash(band_key, band_id), executed at call time; the
    phash rides the band row so the verify is partition-local (no
    side-table).  Near-dup clusters cost O(cluster²) pairs, inherent to
    pair OUTPUT, not to the shuffle."""
    ph = media_phash(extracted_ds)

    def band_rows(batch: pa.Table) -> tuple:
        h = _col_i64(batch, "phash")
        hu = h.view(np.uint64)
        n = len(h)
        refs = batch.column("media_ref").to_pylist()
        key = np.concatenate([
            ((hu >> np.uint64(8 * b)) & np.uint64(0xFF)).astype(np.int64)
            for b in range(8)]) if n else np.empty(0, np.int64)
        band = np.repeat(np.arange(8, dtype=np.int64), n)
        t = pa.Table.from_arrays(
            [pa.array(refs * 8, pa.string()), pa.array(band),
             pa.array(key), pa.array(np.tile(h, 8))],
            names=["media_ref", "band_id", "band_key", "phash"])
        return t, _ibucket(_col_i64(t, "band_key") * np.int64(131)
                           + _col_i64(t, "band_id"))

    def bucket_pairs(group: pa.Table) -> pa.Table:
        refs = np.asarray(group.column("media_ref").to_pylist(),
                          dtype=object)
        uniq, codes = np.unique(refs.astype("U"), return_inverse=True)
        left, right, hl, hr = _cell_member_pairs(
            (_col_i64(group, "band_id"), _col_i64(group, "band_key")),
            codes.astype(np.int64), _col_i64(group, "phash"))
        d = _popcount64(np.bitwise_xor(hl, hr))
        keep = d <= max_hamming
        return pa.Table.from_arrays(
            [pa.array(uniq[left[keep]].tolist(), pa.string()),
             pa.array(uniq[right[keep]].tolist(), pa.string()),
             pa.array(d[keep])],
            names=["left_ref", "right_ref", "hamming"])

    pairs = _hash_exchange("bands", [(ph, band_rows, {})], bucket_pairs)
    # a pair can match several bands — collapse via a min (the hamming
    # is identical on every copy)
    uniq = aggregate(pairs, ["left_ref", "right_ref"], ("min", "hamming"))
    return uniq.map_batches(
        lambda b: b.rename_columns(["left_ref", "right_ref", "hamming"]),
        batch_format="pyarrow", zero_copy_batch=True)


def media_dedup_apply(extracted_ds, max_hamming: int = 6):
    """Surviving (media_ref,) rows after perceptual-hash near-dup
    REMOVAL — the multimodal analogue of dedup_apply: phash band pairs
    → distributed connected components → keep each cluster's
    min-surrogate-id member (content-addressed, deterministic — NOT
    alphabetical) → drop the rest.

    Refs bridge to the int64 CC machinery via 63-bit md5 surrogate ids
    (the dedup_pipeline pattern); the ref↔surrogate resolution and the
    final anti join are the same bucketed emit-union groupbys — nothing
    materializes on the driver.  Cluster representative = ref with the
    MIN SURROGATE id (deterministic; surrogates are content-addressed,
    so the choice is partition-invariant but not alphabetical)."""
    import hashlib

    ph = media_phash(extracted_ds)

    def sid_of(refs):
        return np.fromiter(
            (int.from_bytes(hashlib.md5(r.encode("utf-8"))
                            .digest()[:8], "big") & 0x7FFFFFFFFFFFFFFF
             for r in refs), dtype=np.int64, count=len(refs))

    pairs = media_phash_pairs(extracted_ds, max_hamming=max_hamming)

    def pair_sids(batch: pa.Table) -> pa.Table:
        le = sid_of(batch.column("left_ref").to_pylist())
        r = sid_of(batch.column("right_ref").to_pylist())
        return pa.Table.from_arrays(
            [pa.array(np.minimum(le, r)), pa.array(np.maximum(le, r))],
            names=["left_id", "right_id"])

    labels = connected_components(pairs.map_batches(
        pair_sids, batch_format="pyarrow", zero_copy_batch=True))

    # dropped = nodes whose label != own id; anti-join refs by surrogate
    def drop_emit(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(batch.column("node"), batch.column("label"))
        ids = batch.filter(mask).column("node").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ids)), pa.array(ids),
             pa.array([""] * len(ids), pa.string()),
             pa.array(np.ones(len(ids), dtype=np.int8))],
            names=["key", "sid", "media_ref", "is_drop"])

    def ref_emit(batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        ids = sid_of(refs)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ids)), pa.array(ids),
             pa.array(refs, pa.string()),
             pa.array(np.zeros(len(ids), dtype=np.int8))],
            names=["key", "sid", "media_ref", "is_drop"])

    def keep(group: pa.Table) -> pa.Table:
        drop = group.column("is_drop").to_numpy(
            zero_copy_only=False).astype(bool)
        sid = group.column("sid").to_numpy(zero_copy_only=False)
        dropped = np.unique(sid[drop])
        refs = group.filter(pa.array(~drop))
        rs = refs.column("sid").to_numpy(zero_copy_only=False)
        if len(dropped):
            pos = np.clip(np.searchsorted(dropped, rs), 0,
                          len(dropped) - 1)
            ok = dropped[pos] != rs
        else:
            ok = np.ones(len(rs), dtype=bool)
        out = refs.filter(pa.array(ok))
        # refs are unique per extraction output; emit distinct anyway
        return pa.Table.from_arrays(
            [pc.unique(out.column("media_ref"))], names=["media_ref"])

    u = labels.map_batches(drop_emit, batch_format="pyarrow",
                           zero_copy_batch=True).union(
        ph.select_columns(["media_ref"]).map_batches(
            ref_emit, batch_format="pyarrow", zero_copy_batch=True))
    return u.groupby("key").map_groups(keep, batch_format="pyarrow")
