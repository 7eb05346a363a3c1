"""E5 encoding-detection ladder (webtext/oracle/encoding.py).

Pins the reference's decode chain (ref:456-505): header charset →
apparent_encoding → utf-8 default, ``"".encode`` validation, decode
with errors='replace', utf-8/replace retry.
"""

import pyarrow as pa
import pytest

from webtext.oracle import encoding as enc

JP = "こんにちは世界、これはテストです。日本語の文章。"


def test_header_charset_wins():
    e, src = enc.detect_encoding(b"abc", "text/html; charset=ISO-8859-1")
    assert (e, src) == ("ISO-8859-1", "header")


def test_header_charset_case_insensitive():
    e, src = enc.detect_encoding(b"abc", "text/html; CHARSET=UTF-8")
    assert (e, src) == ("UTF-8", "header")


def test_invalid_header_charset_falls_through():
    e, src = enc.detect_encoding("hello world plain ascii".encode(),
                                 "text/html; charset=bogus-xyz")
    assert src in ("apparent", "default")
    assert "hello world plain ascii".encode().decode(e) \
        == "hello world plain ascii"


def test_apparent_detects_shift_jis_family():
    raw = JP.encode("shift_jis")
    e, src = enc.detect_encoding(raw, None)
    assert src == "apparent"
    # charset_normalizer names a CP932-family codec; what matters is
    # that the decode round-trips the Japanese text
    assert raw.decode(e) == JP


def test_decode_payload_replaces_bad_bytes():
    raw = b"ok \xff\xfe broken"
    text, e, src = enc.decode_payload(raw, "text/html; charset=utf-8")
    assert (e, src) == ("utf-8", "header")
    assert "�" in text and text.startswith("ok ")


def test_decode_payload_empty_and_none_header():
    text, e, src = enc.decode_payload(b"", None)
    assert text == "" and src in ("apparent", "default")


def test_decode_documents_stage(ray_session):
    import ray.data

    t = pa.table({
        "doc_id": pa.array(["a", "b", "c"], pa.string()),
        "raw": pa.array([JP.encode("shift_jis"),
                         b"plain ascii text here",
                         "café crème".encode("latin-1")],
                        pa.binary()),
        "content_type": pa.array(
            ["text/html; charset=shift_jis", None,
             "text/html; charset=latin-1"], pa.string()),
    })
    out = {r["doc_id"]: r for r in
           enc.decode_documents(ray.data.from_arrow(t),
                                concurrency=1).take_all()}
    assert out["a"]["text"] == JP
    assert out["a"]["enc_source"] == "header"
    assert out["b"]["text"] == "plain ascii text here"
    assert out["b"]["enc_source"] in ("apparent", "default")
    assert out["c"]["text"] == "café crème"
    assert out["c"]["enc_source"] == "header"


def test_decode_documents_default_pool_leaves_a_cpu(ray_session, tmp_path):
    """With default arguments on the 4-CPU test session the decoder
    pool must not take every CPU: the read feeding it needs one.  The
    ``decode_bytes`` query (read → encode+decode actors → project)
    stalled with a fixed 4-actor pool."""
    import concurrent.futures
    import pathlib
    import sys

    import pyarrow.parquet as pq
    import ray

    assert int(ray.cluster_resources().get("CPU", 0)) == 4
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    import __ray_entry__

    pq.write_table(pa.table({
        "doc_id": pa.array(range(500), pa.int64()),
        "text": [f"{JP} {i} " * 8 if i % 3 else f"plain text {i} " * 8
                 for i in range(500)]}),
        str(tmp_path / "documents.parquet"))
    query = __ray_entry__.queries()["decode_bytes"]
    pool = concurrent.futures.ThreadPoolExecutor(1)
    try:
        rows = pool.submit(lambda: query(str(tmp_path)).take_all()) \
            .result(timeout=180)
    finally:
        pool.shutdown(wait=False)
    assert len(rows) == 500
