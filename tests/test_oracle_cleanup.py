"""E10 cleanup + E11 per-document near-dedup unit tests (ref:161-343)."""

import math
import random
import re
import sys
from difflib import SequenceMatcher

from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import dedup_doc, html_doc
from webtext.oracle import cleanup, extract_document, rules
from webtext.oracle.cleanup import (
    DedupBudgetExceeded,
    _lcs_length,
    _Paragraph,
    cleanup_extracted_text,
    remove_duplicate_paragraphs,
)
from webtext.synth import generate_docs


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
# URL_RE_HTTP runs only when the text holds "://", URL_RE_WWW only when it
# holds "www.", and URL_RE_BROAD only when it holds "/" or "www" (any
# case); the gates must never change a result
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
                         "http", "https://", "http:/", "www.", "WWW.", "/",
                         ".", ".com/", "co.jp/", "a.b", "(", ")", " ", "\n",
                         "\n\n\n", "x", "İ", "�"]),
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


# ---------------------------------------------------------------------------
# E11 settles most pairs with exact bounds before difflib; its output must
# stay identical to the plain difflib loop below
# ---------------------------------------------------------------------------


def _difflib_remove_duplicate_paragraphs(text: str) -> str:
    """E11 with difflib deciding every pair: real_quick_ratio →
    quick_ratio → ratio on one matcher per kept paragraph.  The
    differential oracle for ``remove_duplicate_paragraphs``."""
    if not text or len(text.strip()) < rules.PARA_DEDUP_MIN_CHARS:
        return text
    paragraphs = [p.strip() for p in text.split("\n\n") if p.strip()]
    if len(paragraphs) < 2:
        return text
    if len(paragraphs) > rules.PARA_DEDUP_MAX_PARAGRAPHS:
        raise DedupBudgetExceeded(
            f"{len(paragraphs)} paragraphs > "
            f"{rules.PARA_DEDUP_MAX_PARAGRAPHS}")
    cost = len(paragraphs) * sum(len(p) for p in paragraphs)
    if cost > rules.PARA_DEDUP_MAX_COST:
        raise DedupBudgetExceeded(
            f"P×chars cost {cost} > {rules.PARA_DEDUP_MAX_COST}")

    threshold = rules.PARA_DEDUP_SIM_THRESHOLD
    unique: list[str] = []
    matchers: list[SequenceMatcher] = []
    for para in paragraphs:
        is_dup = False
        for sm in matchers:
            sm.set_seq1(para)
            # real_quick_ratio/quick_ratio are upper bounds on ratio():
            # if they can't exceed the threshold, ratio() can't either.
            if (sm.real_quick_ratio() > threshold
                    and sm.quick_ratio() > threshold
                    and sm.ratio() > threshold):
                is_dup = True
                break
        if not is_dup:
            unique.append(para)
            sm = SequenceMatcher(None, "", para)
            matchers.append(sm)
    return "\n\n".join(unique)


def _outcome(dedup, text):
    try:
        return dedup(text)
    except DedupBudgetExceeded as e:
        return ("DedupBudgetExceeded", str(e))


def _assert_same_as_difflib(text):
    got = _outcome(remove_duplicate_paragraphs, text)
    assert got == _outcome(_difflib_remove_duplicate_paragraphs, text)
    return got


@st.composite
def _fresh(draw, alphabet):
    n = draw(st.one_of(st.integers(1, 40), st.integers(185, 215)))
    return draw(st.text(alphabet=alphabet, min_size=n, max_size=n))


@st.composite
def _near_copy(draw, src, alphabet):
    """``src`` with up to 6 character edits; 0 edits is an exact repeat."""
    chars = list(src)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["sub", "ins", "del"]))
        ch = draw(st.sampled_from(alphabet))
        if op == "ins" or not chars:
            chars.insert(i, ch)
        elif op == "sub":
            chars[min(i, len(chars) - 1)] = ch
        else:
            del chars[min(i, len(chars) - 1)]
    return "".join(chars)


_ALPHABETS = st.sampled_from(["ab", "abc ", "abcdefg ", "xy-z. "])


@st.composite
def _paragraph_lists(draw):
    alphabet = draw(_ALPHABETS)
    paras: list[str] = []
    for _ in range(draw(st.integers(2, 8))):
        if paras and draw(st.booleans()):
            src = draw(st.sampled_from(paras))
            paras.append(draw(_near_copy(src, alphabet)))
        else:
            paras.append(draw(_fresh(alphabet)))
    return paras


@st.composite
def _pairs(draw):
    alphabet = draw(_ALPHABETS)
    b = draw(_fresh(alphabet))
    a = draw(st.one_of(_near_copy(b, alphabet), _fresh(alphabet)))
    return a or "a", b


@settings(max_examples=300, deadline=None)
@given(_paragraph_lists())
def test_dedup_matches_difflib_on_generated_paragraphs(paras):
    _assert_same_as_difflib("\n\n".join(paras))


def _e11_inputs(monkeypatch, docs) -> list[str]:
    """The texts E11 sees when ``docs`` are extracted."""
    seen: list[str] = []
    real = cleanup.remove_duplicate_paragraphs

    def spy(text):
        seen.append(text)
        return real(text)

    with monkeypatch.context() as m:
        m.setattr(cleanup, "remove_duplicate_paragraphs", spy)
        for doc in docs:
            extract_document(doc["doc_id"], doc["spans"])
    assert seen
    return seen


def test_dedup_matches_difflib_on_corpus_documents(monkeypatch):
    """Every synth fixture document plus the perfbench html and dedup
    generators; some of these texts lose paragraphs to E11."""
    docs = (generate_docs()
            + [html_doc(7, j) for j in range(300)]
            + [dedup_doc(111, i) for i in range(300)])
    changed = 0
    for text in _e11_inputs(monkeypatch, docs):
        changed += _assert_same_as_difflib(text) != text
    assert changed


def test_dedup_budget_raises_match_difflib():
    many = "\n\n".join(f"paragraph {i} " + "y" * 20 for i in range(600))
    long = "\n\n".join(["z" * 2_100] * 100)
    for text in (many, long):
        assert isinstance(_assert_same_as_difflib(text), tuple)


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_count_step_is_quick_ratio_numerator(pair):
    a, b = pair
    sm = SequenceMatcher(None, a, b)
    matches = sum((_Paragraph(a).counts() & _Paragraph(b).counts()).values())
    total = len(a) + len(b)
    assert 2.0 * matches / total == sm.quick_ratio()
    assert round(sm.quick_ratio() * total / 2) == matches


def _lcs_table(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abcd ", max_size=40),
       st.text(alphabet="abcd ", min_size=1, max_size=70))
def test_lcs_length_matches_dynamic_programming(a, b):
    assert _lcs_length(a, _Paragraph(b)) == _lcs_table(a, b)


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_lcs_bound_is_at_least_ratio(pair):
    a, b = pair
    lcs = _lcs_length(a, _Paragraph(b))
    assert 2 * lcs / (len(a) + len(b)) >= SequenceMatcher(None, a, b).ratio()


def _prose(seed: int, n: int) -> str:
    rng = random.Random(seed)
    words = ["river", "stone", "quiet", "lantern", "market", "harbor",
             "winter", "copper", "meadow", "signal", "Tokyo", "1987"]
    text = ""
    while len(text) < n:
        text += " ".join(rng.choice(words) for _ in range(12)) + ". "
    return text[:n].strip().ljust(n, "x")


class _StepSpy:
    """Counts LCS runs (with their la·lb) and matchers built."""

    def __init__(self, monkeypatch):
        self.lcs_cells: list[int] = []
        self.matchers = 0
        lcs, matcher = cleanup._lcs_length, _Paragraph.matcher

        def lcs_spy(a, b):
            self.lcs_cells.append(len(a) * b.n)
            return lcs(a, b)

        def matcher_spy(para):
            self.matchers += 1
            return matcher(para)

        monkeypatch.setattr(cleanup, "_lcs_length", lcs_spy)
        monkeypatch.setattr(_Paragraph, "matcher", matcher_spy)


def test_lcs_step_runs_only_up_to_the_size_guard(monkeypatch):
    spy = _StepSpy(monkeypatch)
    side = math.isqrt(cleanup._LCS_MAX_CELLS)
    assert (side + 1) ** 2 > cleanup._LCS_MAX_CELLS
    for n, lcs_runs in ((side, [side * side]), (side + 1, [])):
        spy.lcs_cells.clear()
        spy.matchers = 0
        b = _prose(n, n)
        a = b[:n // 2] + "Q" + b[n // 2 + 1:]      # passes both counts
        _assert_same_as_difflib(f"{b}\n\n{a}")
        assert spy.lcs_cells == lcs_runs
        assert spy.matchers == 1                    # ratio() decided


def test_equality_step_only_below_200_chars(monkeypatch):
    spy = _StepSpy(monkeypatch)
    short = _prose(1, 199)
    assert _assert_same_as_difflib(f"{short}\n\n{short}") == short
    assert (spy.lcs_cells, spy.matchers) == ([], 0)
    for n in (200, 260):
        para = _prose(n, n)
        assert _assert_same_as_difflib(f"{para}\n\n{para}") == para
    # each repeat at >= 200 chars went through the LCS bound and ratio()
    assert spy.lcs_cells == [200 * 200, 260 * 260]
    assert spy.matchers == 2
