"""Differential test: ``webtext.dom.parse_html`` against html.parser.

The oracle is ``_OracleBuilder``, the stdlib ``HTMLParser`` tree builder
``parse_html`` used before it got its own tokenizer.  It lives here and in
no product path.  Its behaviour is html.parser's as shipped with the
interpreter running the suite; the tokenizer was ported from, and is
pinned against, CPython 3.11.7, whose EOF and raw-text handling later
patch releases changed.  On another interpreter a mismatch may be the
oracle moving, not the tokenizer; ``GOLDEN_SHA256`` in ``test_golden.py``
is the interpreter-independent check.

Trees are compared by full signature: element name, ``attrs.items()`` in
order, ``classes``, children recursively and text node by text node.
Inputs that make html.parser raise must raise the same type and message.
"""

from html.parser import HTMLParser

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webtext.dom import VOID_ELEMENTS, Document, Node, TextNode, parse_html
from webtext.oracle import extract_document
from webtext.pipelines.links import serp_fixture_docs
from webtext.synth import FAMILY_GENERATORS, generate_docs


class _OracleBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Document()
        self.stack: list[Node] = [self.root]

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs},
                    parent=self.stack[-1])
        self.stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        tag = tag.lower()
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs},
                    parent=self.stack[-1])
        self.stack[-1].children.append(node)

    def handle_endtag(self, tag):
        tag = tag.lower()
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].name == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(TextNode(data, self.stack[-1]))


def _oracle_parse(html: str) -> Document:
    builder = _OracleBuilder()
    builder.feed(html or "")
    builder.close()
    return builder.root


def _signature(node):
    if isinstance(node, TextNode):
        return node.text
    return (node.name, tuple(node.attrs.items()), tuple(node.classes),
            tuple(_signature(c) for c in node.children))


def _outcome(parse, html: str):
    try:
        return "tree", _signature(parse(html))
    except Exception as exc:     # the exception itself is compared
        return type(exc).__name__, str(exc)


def assert_same_parse(html: str) -> None:
    assert _outcome(parse_html, html) == _outcome(_oracle_parse, html), html


def _html_payloads(docs):
    return [s["text"] for d in docs for s in d["spans"] if s["kind"] == "html"]


# -- generated edge-alphabet strings ----------------------------------------

_EDGE_PIECES = [
    # charrefs with and without ';', a bare '&'
    "&amp;", "&amp", "&#38;", "&#38", "&#x26;", "&#x26", "&lt", "&notit;",
    "&#1;", "&", "& ",
    # attributes: duplicate, valueless, uppercase, slash-adjacent values
    "<a href=x/>", "<a b=c/ d>", "<p class=a class=b>", "<DIV ID=Q Hidden>",
    "<a x='1' X=\"2\">", "<a b = c>", "<a =b>", "<a b='&amp;' c=\"&lt\">",
    "<a b=c\"d>", "<a b=\"c\"d=e>", "<input disabled/>", "<a b==c>",
    "<a b=c=d>",
    # self-closing
    "<div/>", "<br/>", "<br>", "<span />", "<p/ >",
    # raw text
    "<script>", "</script >", "<SCRIPT>", "</SCRIPT>", "<style>",
    "</style>", "</ style>", "</scripty>", "<script/>",
    # declarations, comments, processing instructions, marked sections
    "<!DOCTYPE html>", "<!doctype", "<!-- c -->", "<!--", "-->", "--!>",
    "<![CDATA[x]]>", "<![if !IE]>", "<![endif]>", "<?pi x?>", "<!x>",
    "<!>", "</>", "</ x>", "</a b>", "</1>",
    # tags, text, odd characters
    "<p>", "</p>", "<div>", "</div>", "<a>", "</a>", "<b>", "text", " ",
    "<", ">", "/", "=", "\"", "'", "<1", "< p>", "<\x00>", "\x00",
    "é", "<é>", "<pé>", "\t", "\v", "\f", "\n", "<a\tb>", "<a\vb>",
    "<a\fb>", "<a\x0bb=c>", "<a b=\vc>", "\xa0", "<a\xa0b>",
]


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(_EDGE_PIECES), max_size=14))
def test_edge_alphabet_matches_html_parser(pieces):
    assert_same_parse("".join(pieces))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="<>/!?-=\"' \t\v\nabAB&#;x1\x00é[]", max_size=40))
def test_character_soup_matches_html_parser(html):
    assert_same_parse(html)


@pytest.mark.parametrize("html", [
    "<a\vb>",            # \v is \s but not a tag-name terminator
    "<style\vx=1>body{}</style>",
    "<a href=x/>y",
    "<a b==c d=e=f>",    # "=+" then the value: b is "c", d is "e=f"
    "<script>a<b>&amp;</SCRIPT >c",
    "<script>never closed <p>dropped",
    "x &amp y &",
    "a < b <",
    "<div class='a' <p>",
    "<!-- open comment",
    "<p>&#1;</p>",
    "<![CDATA[x]]>y",
    "<![if IE]>y<![endif]>",
])
def test_pinned_examples_match_html_parser(html):
    assert_same_parse(html)


# -- corpus payloads ---------------------------------------------------------

def test_generated_and_serp_docs_match_html_parser():
    """``generate_docs`` runs every ``FAMILY_GENERATORS`` family."""
    docs = generate_docs(n_per_family=16, seed=42)
    assert len(docs) == 16 * len(FAMILY_GENERATORS)
    for html in _html_payloads(docs) + _html_payloads(serp_fixture_docs()):
        assert_same_parse(html)


# -- the fail-loud marked-section path ---------------------------------------

@pytest.mark.parametrize("html, message", [
    ("<![foo]>x", "unknown status keyword 'foo' in marked section"),
    ("<![ x", "expected name token at '<![ x'"),
])
def test_unknown_marked_section_raises(html, message):
    with pytest.raises(AssertionError) as exc:
        parse_html(html)
    assert str(exc.value) == message
    assert_same_parse(html)
    # extract_document does not catch it: one such span fails the task
    with pytest.raises(AssertionError):
        extract_document("https://example.com/x",
                         [{"kind": "html", "text": html, "media_ref": "",
                           "offset": 0}])
