"""DOM + selector engine unit tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from webtext.dom import (
    CompiledSelector,
    Document,
    Node,
    TextNode,
    _match_chain,
    _parse_compound_chain,
    _split_toplevel_commas,
    multi_select,
    parse_html,
)
from webtext.oracle import rules


def test_basic_tree_and_text():
    doc = parse_html("<html><body><p>hello <b>world</b></p></body></html>")
    assert doc.body is not None
    assert doc.body.get_text(strip=True) == "helloworld"
    assert doc.body.get_text(separator=" ", strip=True) == "hello world"


def test_get_text_skips_whitespace_nodes_when_stripped():
    doc = parse_html("<div>\n  <p>a</p>\n  <p>b</p>\n</div>")
    assert doc.get_text(separator="\n", strip=True) == "a\nb"
    # unstripped keeps raw whitespace nodes
    assert "\n  " in doc.get_text()


def test_void_elements_do_not_swallow_siblings():
    doc = parse_html("<div><img src='x.png'>after<br>more</div>")
    assert doc.get_text(strip=True) == "aftermore"


def test_select_tag_class_id():
    html = ('<div id="content" class="a b">x</div>'
            '<div class="b">y</div><span class="a">z</span>')
    doc = parse_html(html)
    assert [e.get_text() for e in doc.select(".b")] == ["x", "y"]
    assert [e.get_text() for e in doc.select("div.a")] == ["x"]
    assert doc.select_one("#content").get_text() == "x"
    assert [e.get_text() for e in doc.select("span")] == ["z"]


def test_select_class_matches_whole_tokens_only():
    doc = parse_html('<div class="ads">x</div><div class="ad">y</div>')
    assert [e.get_text() for e in doc.select(".ad")] == ["y"]


def test_select_attribute_ops():
    html = ("<a href='http://x.com'>1</a>"
            "<span style='text-decoration: underline; color: red'>2</span>"
            "<div itemprop=\"articleBody\">3</div>"
            "<div data-test-id='pin-title'>4</div>")
    doc = parse_html(html)
    assert [e.get_text() for e in doc.select("a[href*='http']")] == ["1"]
    assert [e.get_text() for e in
            doc.select("span[style*='text-decoration: underline']")] == ["2"]
    assert [e.get_text() for e in
            doc.select('[itemprop="articleBody"]')] == ["3"]
    assert [e.get_text() for e in
            doc.select("[data-test-id='pin-title']")] == ["4"]


def test_select_comma_and_descendant():
    html = ('<div class="x"><p>in</p></div><p>out</p>'
            '<div class="hdr">h</div>')
    doc = parse_html(html)
    assert [e.get_text() for e in doc.select(".x p")] == ["in"]
    got = [e.get_text() for e in doc.select(".hdr, .x p")]
    assert got == ["in", "h"]  # document order


def test_select_adjacent_sibling():
    html = ("<div data-test-id='pinner-avatar'>av</div><div>name</div>"
            "<div>other</div>")
    doc = parse_html(html)
    got = doc.select("[data-test-id='pinner-avatar'] + div")
    assert [e.get_text() for e in got] == ["name"]


def test_decompose_mutates_in_place():
    doc = parse_html("<div><nav>menu</nav><p>body</p></div>")
    for el in doc.select("nav"):
        el.decompose()
    assert doc.get_text(strip=True) == "body"


def test_unclosed_tags_recover():
    doc = parse_html("<div><p>one<p>two</div><span>three</span>")
    assert "one" in doc.get_text() and "three" in doc.get_text()


def test_entities_converted():
    doc = parse_html("<p>a &amp; b</p>")
    assert doc.get_text(strip=True) == "a & b"


# ---------------------------------------------------------------------------
# rule-hash index vs brute force: multi_select and Node.select must return
# exactly what _match_chain finds on every element, in document order
# ---------------------------------------------------------------------------

RULE_TABLES = (
    rules.MAIN_CONTENT_SELECTORS,
    rules.UNWANTED_IN_CONTENT,
    rules.UNWANTED_IN_BODY,
    *rules.DOMAIN_SPECIFIC_SELECTORS.values(),
    (rules.UNWANTED_SELENIUM_BODY,),
    rules.PINTEREST_DOMAIN_SELECTORS,
    rules.PINTEREST_TITLE_SELECTORS,
    rules.PINTEREST_DESC_SELECTORS,
    rules.PINTEREST_PINNER_SELECTORS,
    rules.PINTEREST_COMMENT_SELECTORS,
    rules.PINTEREST_MAIN_SELECTORS,
    (rules.PINTEREST_FALLBACK_STRIP,),
    rules.CHIEBUKURO_TITLE_SELECTORS,
    rules.CHIEBUKURO_CONTENT_SELECTORS,
    rules.CHIEBUKURO_ANSWER_SELECTORS,
    (rules.CHIEBUKURO_GENERIC_ANSWER_SELECTOR,),
    (rules.INSTAGRAM_FALLBACK_SELECTOR,),
    # hand-written probes: descendant, adjacent-sibling, bare id, id+tag
    ("h1, span", "h1.title", "#description-inline-expander", ".x p",
     "div .ad + p", "section#content.article", "#", "article [href]"),
)
ALL_SELECTORS = tuple(sorted({s for table in RULE_TABLES for s in table}))

_SPECS = [spec for css in ALL_SELECTORS
          for part in _split_toplevel_commas(css) if part.strip()
          for _, spec in _parse_compound_chain(part)]
_TAGS = sorted({s["tag"] for s in _SPECS if s["tag"]} | {"p", "li", "b"})
_IDS = sorted({s["id"] for s in _SPECS if s["id"]} | {"other"})
_CLASSES = sorted({c for s in _SPECS for c in s["classes"]}
                  | {"ads", "badge", "x"})
_CLASS_GROUPS = sorted({tuple(s["classes"]) for s in _SPECS
                        if len(s["classes"]) > 1})
_ATTR_VALUES: dict[str, set[str]] = {}
for _spec in _SPECS:
    for _key, _op, _val in _spec["attrs"]:
        if _key == "class":
            continue
        vals = _ATTR_VALUES.setdefault(_key, {"", "zz"})
        if _val:
            vals |= {_val, f"a{_val}b"} if _op == "*=" else {_val}


@st.composite
def _attrs(draw):
    attrs = {}
    tokens = draw(st.lists(
        st.one_of(st.sampled_from(_CLASSES),
                  st.sampled_from(_CLASS_GROUPS).map(" ".join)),
        max_size=3))
    if tokens:
        attrs["class"] = " ".join(draw(st.permutations(tokens)))
    if draw(st.integers(0, 3)) == 0:
        attrs["id"] = draw(st.sampled_from(_IDS))
    for key in draw(st.lists(st.sampled_from(sorted(_ATTR_VALUES)),
                             max_size=2, unique=True)):
        attrs[key] = draw(st.sampled_from(sorted(_ATTR_VALUES[key])))
    return attrs


_ELEMENT = st.recursive(
    st.tuples(st.sampled_from(_TAGS), _attrs(), st.just([])),
    lambda kids: st.tuples(st.sampled_from(_TAGS), _attrs(),
                           st.lists(st.one_of(kids, st.just("text")),
                                    max_size=4)),
    max_leaves=24,
)


def _build(parent: Node, spec) -> None:
    if spec == "text":
        parent.children.append(TextNode("t", parent))
        return
    tag, attrs, kids = spec
    node = Node(tag, dict(attrs), parent=parent)
    parent.children.append(node)
    for kid in kids:
        _build(node, kid)


def _brute_select(scope: Node, css: str) -> list[Node]:
    chains = [_parse_compound_chain(part)
              for part in _split_toplevel_commas(css) if part.strip()]
    return [el for el in scope.walk()
            if any(_match_chain(el, chain) for chain in chains)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_ELEMENT, min_size=1, max_size=4),
       st.one_of(st.lists(st.sampled_from(ALL_SELECTORS), min_size=1,
                          max_size=8),
                 st.sampled_from(RULE_TABLES).map(list)),
       st.integers(min_value=0))
def test_rule_hash_matches_brute_force(tops, selectors, scope_pick):
    doc = Document()
    for top in tops:
        _build(doc, top)
    scopes = [doc, *doc.walk()]
    for scope in (doc, scopes[scope_pick % len(scopes)]):
        expected = [_brute_select(scope, css) for css in selectors]
        got = multi_select(scope, [CompiledSelector(css) for css in selectors])
        assert got == expected
        assert [scope.select(css) for css in selectors] == expected


def test_element_reaching_one_selector_by_two_keys_listed_once():
    doc = parse_html('<header class="header">h</header>'
                     '<div class="ad ad" id="ad">x</div>')
    header = doc.find_first("header")
    assert doc.select("header, .header") == [header]
    both = CompiledSelector("header, .header")
    assert multi_select(doc, [both, CompiledSelector(".header")]) \
        == [[header], [header]]
    ad = doc.find_first("div")
    assert doc.select(".ad, #ad, div.ad, [id]") == [ad]


def test_no_module_under_webtext_uses_html_parser():
    """``parse_html`` is the only HTML parser in the package: no module
    imports ``html.parser`` or names ``HTMLParser`` in code (docstrings
    that mention the goldens' independent HTMLParser walk are fine)."""
    import ast
    import pathlib

    import webtext

    offenders = []
    for path in pathlib.Path(webtext.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [getattr(node, "id", None) or node.attr]
            else:
                continue
            if any(n == "html.parser" or n == "HTMLParser" for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
