"""E5: the fetch-side encoding-detection chain, as a dataset stage.

Reproduces the reference's decode ladder
(ref: /root/reference/common_scripts/web_text_extractor_ver1.5.py:456-505):

1. HTTP ``Content-Type`` header — ``charset=([\\w-]+)`` (case-
   insensitive, ref:460), validated by probing ``"".encode(enc)``
   (ref:466); an unknown codec name is ignored (ref:469-470).
2. ``response.apparent_encoding`` (ref:474) — in requests this is
   ``charset_normalizer.detect(content)["encoding"]``; we call the same
   library directly, with the same ``"".encode`` validation (ref:477).
3. Default ``utf-8`` (ref:488).

Decode uses ``errors='replace'`` (ref:494); if the chosen codec throws
anyway (a stateful codec raising on truncated input), the reference
retries as UTF-8 with ``errors='replace'`` (ref:498-502) — which cannot
itself fail, so the final BeautifulSoup bytes-fallback (ref:505) is
unreachable and intentionally not reproduced.  U+FFFD produced here is
later stripped by the E10 normalizer (cleanup.py), matching the
reference's end-to-end behavior.

The network fetch itself stays out of scope by design (the corpus is
pre-fetched); this module is the byte-level half the round-2 verdict
carried as the E5 scope cut.
"""

from __future__ import annotations

import re

CHARSET_RE = re.compile(r"charset=([\w-]+)", re.IGNORECASE)  # ref:460


def _codec_exists(name: str) -> bool:
    """The reference's validity probe: ``"".encode(enc)`` (ref:466)."""
    try:
        "".encode(name)
        return True
    except LookupError:
        return False


def detect_encoding(raw: bytes, content_type: str | None
                    ) -> tuple[str, str]:
    """(encoding, source) where source ∈ {'header','apparent','default'}
    names the ladder rung that decided — the lineage column tests and
    oracles key on."""
    if content_type:
        m = CHARSET_RE.search(content_type)
        if m and _codec_exists(m.group(1)):
            return m.group(1), "header"
    try:
        from charset_normalizer import detect  # requests' detector
        guess = (detect(raw) or {}).get("encoding")
    except ImportError:  # pragma: no cover - wheel always present here
        guess = None
    if guess and _codec_exists(guess):
        return guess, "apparent"
    return "utf-8", "default"


def decode_payload(raw: bytes, content_type: str | None
                   ) -> tuple[str, str, str]:
    """(text, encoding, source): full E5 ladder for one payload."""
    enc, source = detect_encoding(raw, content_type)
    try:
        return raw.decode(enc, errors="replace"), enc, source
    except Exception:  # ref:497-502 — retry as utf-8/replace
        return raw.decode("utf-8", errors="replace"), "utf-8", source


class PayloadDecoder:
    """Actor-pool ``map_batches`` stage over (doc_id, raw:binary,
    content_type) → (doc_id, text, encoding, enc_source).

    Detection state (the compiled charset regex, charset_normalizer's
    models) loads once per actor at ``__init__``; ``__call__`` is the
    per-batch pass.  Byte decoding is inherently per-row (like the DOM
    parse in ExtractorActor) — the vectorization boundary is the batch;
    each decode call is C-level codec work.  Rows whose header names a
    valid charset skip the (costlier) charset_normalizer probe entirely,
    so well-formed corpora pay only the regex + C decode."""

    def __init__(self):
        # force-load the detector once per actor, not per batch
        from charset_normalizer import detect
        self._detect = detect
        self._re = CHARSET_RE

    def __call__(self, batch):
        import pyarrow as pa

        raws = batch.column("raw").to_pylist()
        ctypes = batch.column("content_type").to_pylist()
        texts, encs, srcs = [], [], []
        for raw, ct in zip(raws, ctypes):
            text, enc, src = decode_payload(raw or b"", ct)
            texts.append(text)
            encs.append(enc)
            srcs.append(src)
        return pa.Table.from_arrays(
            [batch.column("doc_id"),
             pa.array(texts, pa.string()),
             pa.array(encs, pa.string()),
             pa.array(srcs, pa.string())],
            names=["doc_id", "text", "encoding", "enc_source"])


def decode_documents(ds, concurrency=None):
    """E5 as a Ray stage: stateful actor pool, zero-copy Arrow in/out,
    no shuffle — at 100 TB this streams fragment-by-fragment like every
    other map stage.  By default the pool grows to one actor per
    cluster CPU but one: a pool that takes every CPU leaves none for
    the read feeding it, and the streaming executor stalls."""
    if concurrency is None:
        import ray

        ncpu = int(ray.cluster_resources().get("CPU", 2))
        concurrency = (1, max(1, ncpu - 1))
    return ds.map_batches(PayloadDecoder, batch_format="pyarrow",
                          zero_copy_batch=True, concurrency=concurrency)
