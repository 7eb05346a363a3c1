"""Edge-of-branch tests: threshold boundaries and subtle handler
behaviors the fixture families don't pin individually."""

import os

from webtext.dom import parse_html
from webtext.oracle import extract_span
from webtext.oracle.handlers import handle_chiebukuro, handle_instagram
from webtext.oracle.markdown import normalize_markdown
from webtext.oracle.rules import FAILURE_TEMPLATES_WITH_URL
from webtext.oracle.extract import classify_failure

URL = "https://t.example.com/x"


# -- markdown length gate (ref:109: strictly greater than 50) ---------------

def test_markdown_gate_exactly_50_rejected():
    assert normalize_markdown("x" * 50) is None


def test_markdown_gate_51_kept():
    assert normalize_markdown("x" * 51) == "x" * 51


# -- body fallback gate (ref:1355: strictly greater than 50) ----------------

def test_body_gate_boundary():
    from webtext.oracle.cascade import extract_main_content

    text_50 = "a" * 50
    doc = parse_html(f"<html><body><span>{text_50}</span></body></html>")
    text, method = extract_main_content(doc, "")
    assert method != "body"          # exactly 50 → not enough

    text_51 = "a" * 51
    doc = parse_html(f"<html><body><span>{text_51}</span></body></html>")
    text, method = extract_main_content(doc, "")
    assert method == "body"


# -- heuristic gate (ref:1310: strictly greater than 200) -------------------

def test_heuristic_gate_boundary():
    from webtext.oracle.cascade import extract_main_content

    doc = parse_html(
        f'<html><body><div class="zz">{"b" * 200}</div></body></html>')
    _, method = extract_main_content(doc, "")
    assert method == "body"          # exactly 200 → excluded from blocks

    doc = parse_html(
        f'<html><body><div class="zz">{"b" * 201}</div></body></html>')
    _, method = extract_main_content(doc, "")
    assert method == "heuristic"


# -- failure-template matching is EXACT, not prefix (ref:1612-1617) ---------

def test_template_with_suffix_not_filtered():
    text = FAILURE_TEMPLATES_WITH_URL[0].format(URL) + " extra"
    assert classify_failure(text, URL) is None


def test_template_wrong_url_not_filtered():
    text = FAILURE_TEMPLATES_WITH_URL[0].format("https://other.example.com")
    assert classify_failure(text, URL) is None


# -- instagram: fallback only fires when primary found NOTHING (ref:665) ----

def test_instagram_fallback_skipped_when_primary_hits():
    html = ('<body><article><span>a caption above the twenty char '
            'threshold</span></article>'
            '<div class="_a9zs">fallback text</div></body>')
    out = handle_instagram(parse_html(html), URL)
    assert "fallback text" not in out


def test_instagram_duplicate_captions_kept():
    cap = "the very same caption repeated twice here"
    html = (f"<body><article><span>{cap}</span><span>{cap}</span>"
            f"</article></body>")
    out = handle_instagram(parse_html(html), URL)
    assert out == f"{cap}\n\n{cap}"   # no dedup at the handler (ref:663)


# -- chiebukuro: heading-kill removes the PARENT section (ref:795-800) ------

def test_chiebukuro_heading_kill_takes_parent():
    html = """<body><div id="leftColumn">
      <div class="q">質問の本文がここにあります</div>
      <div class="more"><h3>Q&Aをもっと見る</h3>他の質問一覧テキスト</div>
    </div></body>"""
    out = handle_chiebukuro(parse_html(html), URL)
    assert "質問の本文" in out
    assert "他の質問一覧" not in out


# -- twitter/x dispatch on both hosts (ref:427) -----------------------------

def test_twitter_both_hosts_dispatch():
    html = ("<html><body><article><div>tweet body text here</div>"
            "</article></body></html>")
    for host in ("x.com", "twitter.com"):
        r = extract_span("html", html, "", f"https://{host}/u/1")
        assert r.method == "special:twitter"


# -- timeout sentinel mixed with normal spans -------------------------------

def test_timeout_span_beside_ok_span():
    from webtext.oracle import extract_document
    from webtext.oracle.rules import TIMEOUT_SENTINEL

    spans = [
        {"kind": "text", "text": "good span content", "media_ref": "",
         "offset": 0},
        {"kind": "text", "text": TIMEOUT_SENTINEL, "media_ref": "",
         "offset": 1},
    ]
    r = extract_document("https://m.example.com/d", spans)
    assert r.status == "ok"              # any ok span wins the doc status
    assert [s["text"] for s in r.spans] == [
        "good span content", TIMEOUT_SENTINEL]


# -- crash artifact: garbage in an uncommitted round dir is overwritten -----

def test_rerun_overwrites_stale_round_garbage(ray_session,
                                              small_corpus_dir, tmp_path):
    from webtext.pipelines import run_extraction
    from webtext.pipelines.extract_pipeline import _round_id
    from webtext.sources.io import list_fragments

    out = str(tmp_path / "out")
    shards = list_fragments(small_corpus_dir)[:2]
    stale = os.path.join(out, f"round-{_round_id(shards)}")
    os.makedirs(stale)
    with open(os.path.join(stale, "garbage.parquet"), "w") as f:
        f.write("not parquet at all")

    totals = run_extraction(small_corpus_dir, out, batch_size=16,
                            shards_per_round=2)
    assert totals["docs"] == 114
    assert not os.path.exists(os.path.join(stale, "garbage.parquet"))
