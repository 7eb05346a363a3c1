"""E10 cleanup + E11 per-document near-dedup unit tests (ref:161-343)."""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from webtext.oracle import rules
from webtext.oracle.cleanup import (
    cleanup_extracted_text,
    remove_duplicate_paragraphs,
)


def test_url_removal_all_three_patterns():
    text = ("see https://a.example.com/x and www.b.example.net/y "
            "and bare c.co.jp/deep/path end")
    out = cleanup_extracted_text(text)
    assert "example" not in out
    assert "c.co" not in out
    assert out.startswith("see") and out.endswith("end")


def test_bare_domain_without_slash_survives():
    # the broad pattern requires a '/' after the TLD
    out = cleanup_extracted_text("visit site.com today " + "x" * 100)
    assert "site.com" in out


def test_blank_line_squeeze():
    out = cleanup_extracted_text("a\n\n\n\n\nb")
    assert out == "a\n\nb"
    # exactly two blank lines are left alone
    assert cleanup_extracted_text("a\n\nb") == "a\n\nb"


def test_printable_filter_keeps_newline_tab():
    out = cleanup_extracted_text("a\tb\nc\x00d\x07e")
    assert out == "a\tb\ncde"


def test_replacement_char_dropped():
    assert cleanup_extracted_text("a�b") == "ab"


def test_empty_and_none_passthrough():
    assert cleanup_extracted_text("") == ""
    assert cleanup_extracted_text(None) is None


def test_idempotence():
    dirty = ("p one https://x.example.com/a\n\n\n\np two\x00 "
             "and more words here to cross the length gate for dedup yes")
    once = cleanup_extracted_text(dirty)
    assert cleanup_extracted_text(once) == once


def test_dedup_short_doc_passthrough():
    text = "a\n\na"  # < 100 chars: untouched even though exact dup
    assert remove_duplicate_paragraphs(text) == text


def test_dedup_single_paragraph_passthrough():
    text = "x" * 150
    assert remove_duplicate_paragraphs(text) == text


def test_dedup_exact_duplicate_dropped():
    p = "the quick brown fox jumps over the lazy dog again and again ok"
    text = "\n\n".join([p, p, "completely different second paragraph here"])
    out = remove_duplicate_paragraphs(text)
    assert out.count(p) == 1


def test_dedup_near_duplicate_dropped_far_kept():
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    near = base[:-10] + " QQ ZZ WW"          # > 0.8 similar
    far = base[:40] + " totally different tail of words now here yes"
    out = remove_duplicate_paragraphs("\n\n".join([base, near, far]))
    paras = out.split("\n\n")
    assert paras == [base, far]


def test_dedup_order_stable_first_wins():
    a = "first unique paragraph with plenty of characters inside it okay"
    b = "a wholly dissimilar chunk of prose about ships and harbors at dawn"
    out = remove_duplicate_paragraphs("\n\n".join([a, b, a]))
    assert out.split("\n\n") == [a, b]


# ---------------------------------------------------------------------------
# URL_RE_BROAD runs only when the text holds "/" or "www" (any case); the
# gate must never change a result
# ---------------------------------------------------------------------------


def _ungated_cleanup(text):
    """cleanup_extracted_text with URL_RE_BROAD applied unconditionally and
    the printable filter as the reference's per-char loop."""
    if not text:
        return text
    text = rules.URL_RE_HTTP.sub("", text)
    text = rules.URL_RE_WWW.sub("", text)
    text = rules.URL_RE_BROAD.sub("", text)
    text = rules.BLANK_SQUEEZE_RE.sub("\n\n", text)
    text = text.strip()
    text = text.replace(rules.REPLACEMENT_CHAR, "")
    text = "".join(ch for ch in text if ch in "\n\t\r" or ch.isprintable())
    return remove_duplicate_paragraphs(text)


def test_every_case_insensitive_w_lowers_to_a_w():
    w = re.compile("(?i)w")
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        if w.fullmatch(ch):
            assert "w" in ch.lower(), hex(cp)


_URLISH = st.lists(
    st.one_of(
        st.sampled_from(["www", "WwW", "www3.", "WWW12.", "ｗｗｗ", "://",
                         "http", "/", ".", ".com/", "co.jp/", "a.b", "(",
                         ")", " ", "\n", "\n\n\n", "x", "İ", "�"]),
        st.text(alphabet="wW/.:-()abcz09 \n\t\x00", max_size=6),
        st.text(max_size=3)),
    max_size=20).map("".join)


@settings(max_examples=400, deadline=None)
@given(_URLISH)
def test_url_gate_equals_ungated_cleanup(text):
    if "/" not in text and "www" not in text.lower():
        assert rules.URL_RE_BROAD.search(text) is None
    assert cleanup_extracted_text(text) == _ungated_cleanup(text)


def test_url_gate_adversarial_cases():
    cases = {
        "WWW3.example": "",           # uppercase www: gate open, stripped
        "ＷＷＷ.x": "ＷＷＷ.x",        # fullwidth W is not (?i)w
        "site.co/x": "site.co/x",     # too short after the slash
        "site.co/xy": "",
        "a.b.cd/": "a.b.cd/",
        "no slash and no triple-w anywhere in this text": None,
    }
    for text, want in cases.items():
        got = cleanup_extracted_text(text)
        assert got == _ungated_cleanup(text), text
        assert got == (text if want is None else want), text
