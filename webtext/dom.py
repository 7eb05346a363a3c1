"""Minimal HTML DOM with the CSS-selector subset the extraction rules need.

This container ships no bs4/lxml/selectolax, so the engine carries its own
small DOM and HTML tokenizer.  The API is *not* a
BeautifulSoup clone — it is the minimal surface the oracle extractor
(`webtext.oracle`) needs, with semantics matched to the behaviors the
reference relies on (see /root/reference/common_scripts/
web_text_extractor_ver1.5.py):

- ``get_text(separator, strip)``: joins every descendant text node in
  document order; with ``strip=True`` each text node is stripped and
  whitespace-only nodes are skipped (bs4 behavior the reference uses at
  e.g. ref:625, ref:815, ref:1288).
- ``select``: supports exactly the selector grammar found in the reference
  rule tables (ref:1244-1259, ref:1278-1284, ref:997-1093, ref:1216):
  comma lists, descendant combinator (single space), and compound simple
  selectors ``tag``, ``#id``, ``.cls`` (multi), ``[attr]``, ``[attr=v]``,
  ``[attr*=v]``.  Class selectors match whole class tokens; results are in
  document order without duplicates.
- matching: every selector list goes through a rule hash (``_RuleHash``)
  that files each chain under its rightmost id, first class or tag, so
  one tree walk tests each element only against the chains keyed on its
  own tag, class tokens and id.  ``multi_select`` runs many selector lists
  in one walk; ``select`` memoises the index per CSS string.  Class tokens
  are split once, at parse (``Node.classes``).
- ``parse_html``: builds, without using it, the tree (or exception) of
  CPython 3.11.7's ``html.parser`` fed the whole input and closed, with
  ``convert_charrefs=True``.  ``_TOKEN`` takes text runs, well-formed start
  tags and plain end tags; any other ``<`` goes to ``_tolerant``, an exact
  port of html.parser's tolerant parsing, independent of the interpreter's.
- ``decompose``: destructive removal, mutating the tree in place — the
  reference's selector cascade deliberately mutates its soup between
  fallback branches (ref:1285-1287, 1333-1335, 1351-1353), and the engine
  reproduces that by re-parsing per stage and mutating within a stage.
"""

from __future__ import annotations

import re
from html import unescape

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class TextNode:
    __slots__ = ("text", "parent")

    def __init__(self, text: str, parent: "Node | None"):
        self.text = text
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"TextNode({self.text[:30]!r})"


class Node:
    """An element node. ``name`` is the lowercased tag name."""

    __slots__ = ("name", "attrs", "children", "parent", "classes")

    def __init__(self, name: str, attrs: dict[str, str] | None = None,
                 parent: "Node | None" = None):
        self.name = name
        self.attrs = attrs or {}
        self.children: list[Node | TextNode] = []
        self.parent = parent
        # split once: nothing mutates ``attrs`` after parse
        self.classes: list[str] = self.attrs.get("class", "").split()

    # -- attribute helpers -------------------------------------------------
    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    def get(self, key: str, default=None):
        return self.attrs.get(key, default)

    # -- traversal ---------------------------------------------------------
    def walk(self):
        """All descendant elements (not self) in document (DFS pre-) order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, Node):
                yield node
                stack.extend(reversed(node.children))

    def text_nodes(self):
        """All descendant text nodes in document order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                yield node
            else:
                stack.extend(reversed(node.children))

    # -- text --------------------------------------------------------------
    def get_text(self, separator: str = "", strip: bool = False) -> str:
        parts = []
        for tn in self.text_nodes():
            s = tn.text
            if strip:
                s = s.strip()
                if not s:
                    continue
            parts.append(s)
        return separator.join(parts)

    # -- mutation ----------------------------------------------------------
    def decompose(self) -> None:
        """Remove this node (and subtree) from its parent, in place."""
        if self.parent is not None:
            try:
                self.parent.children.remove(self)
            except ValueError:
                pass
            self.parent = None

    # -- finding -----------------------------------------------------------
    def find_all(self, names=None, pred=None) -> list["Node"]:
        """Descendant elements whose tag is in ``names`` (str | set | None)
        and for which ``pred(node)`` is truthy (if given)."""
        if isinstance(names, str):
            names = {names}
        out = []
        for el in self.walk():
            if names is not None and el.name not in names:
                continue
            if pred is not None and not pred(el):
                continue
            out.append(el)
        return out

    def find_first(self, names=None, pred=None) -> "Node | None":
        res = self.find_all(names, pred)
        return res[0] if res else None

    # -- CSS selection -----------------------------------------------------
    def select(self, css: str) -> list["Node"]:
        return _rule_hash(css).select(self)[0]

    def select_one(self, css: str) -> "Node | None":
        res = self.select(css)
        return res[0] if res else None

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"<{self.name} {self.attrs}>"


class Document(Node):
    """Parse root. ``name`` is '[document]'."""

    def __init__(self):
        super().__init__("[document]")

    @property
    def body(self) -> Node | None:
        return self.find_first("body")

    @property
    def title_text(self) -> str:
        t = self.find_first("title")
        return t.get_text(strip=True) if t else ""


# ---------------------------------------------------------------------------
# selector grammar
# ---------------------------------------------------------------------------

def _parse_simple(token: str) -> dict:
    """Parse one compound simple selector: tag, #id, .cls*, [attr op value]*."""
    spec = {"tag": None, "id": None, "classes": [], "attrs": []}
    i, n = 0, len(token)
    while i < n:
        ch = token[i]
        if ch == "#":
            j = i + 1
            while j < n and token[j] not in "#.[":
                j += 1
            spec["id"] = token[i + 1:j]
            i = j
        elif ch == ".":
            j = i + 1
            while j < n and token[j] not in "#.[":
                j += 1
            spec["classes"].append(token[i + 1:j])
            i = j
        elif ch == "[":
            j = token.index("]", i)
            body = token[i + 1:j]
            if "*=" in body:
                k, v = body.split("*=", 1)
                spec["attrs"].append((k.strip(), "*=", v.strip().strip("'\"")))
            elif "=" in body:
                k, v = body.split("=", 1)
                spec["attrs"].append((k.strip(), "=", v.strip().strip("'\"")))
            else:
                spec["attrs"].append((body.strip(), "exists", ""))
            i = j + 1
        else:
            j = i
            while j < n and token[j] not in "#.[":
                j += 1
            spec["tag"] = token[i:j].lower()
            i = j
    return spec


def _split_toplevel_commas(css: str) -> list[str]:
    """Split a selector list on commas that are not inside brackets."""
    parts, depth, cur = [], 0, []
    for ch in css:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _tokenize_chain(sel: str) -> list[str]:
    """Split a single selector into compound/combinator tokens, keeping
    bracketed attribute values (which may contain spaces) intact."""
    tokens, depth, cur = [], 0, []
    for ch in sel:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def _parse_compound_chain(sel: str) -> list[tuple[str, dict]]:
    """Returns [(combinator_to_left, simple), ...] left→right.

    Supported combinators: descendant (whitespace) and adjacent sibling
    ('+') — the subset the rule tables use.
    """
    chain: list[tuple[str, dict]] = []
    pending_comb = " "
    for tok in _tokenize_chain(sel):
        if tok == "+":
            pending_comb = "+"
            continue
        chain.append((pending_comb, _parse_simple(tok)))
        pending_comb = " "
    return chain


def _match_simple(el: Node, spec: dict) -> bool:
    if spec["tag"] and el.name != spec["tag"]:
        return False
    if spec["id"] is not None and el.id != spec["id"]:
        return False
    if spec["classes"]:
        have = el.classes
        for c in spec["classes"]:
            if c not in have:
                return False
    for key, op, val in spec["attrs"]:
        actual = el.attrs.get(key)
        if actual is None:
            return False
        if op == "=" and actual != val:
            return False
        if op == "*=" and val not in actual:
            return False
    return True


def _preceding_sibling_element(el: Node) -> Node | None:
    if el.parent is None:
        return None
    prev = None
    for child in el.parent.children:
        if child is el:
            return prev
        if isinstance(child, Node):
            prev = child
    return None


def _match_chain(el: Node, chain: list[tuple[str, dict]]) -> bool:
    """Right-to-left matching with backtracking over descendant steps."""
    comb, spec = chain[-1]
    if not _match_simple(el, spec):
        return False
    if len(chain) == 1:
        return True
    rest = chain[:-1]
    if comb == "+":
        sib = _preceding_sibling_element(el)
        return sib is not None and _match_chain(sib, rest)
    anc = el.parent
    while anc is not None and anc.name != "[document]":
        if _match_chain(anc, rest):
            return True
        anc = anc.parent
    return False


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# One attribute: its name, then a double-quoted, single-quoted or bare value
_ATTR = re.compile(r"""[ \t\n\r\f]+([^\s"'>/=]+)"""
                   r"""(?:=(?:"([^"]*)"|'([^']*)'|([^\s"'=>][^\s"'>]*)))?""")
# One match per text run, start tag or end tag; group 9 is html.parser's
# endtagfind.  Start tags are only those it parses the same way: separators
# are its tag-name terminators [ \t\n\r\f] (``<a\vb>`` is the tag "a\vb"),
# and a bare value keeps a trailing "/" but cannot start with "=".
_TOKEN = re.compile(r"""
    ([^<]+)                                        # 1 text run
  | <([a-zA-Z][-.:\w]*)                            # 2 start-tag name
    ((?:%s)*+)                                     # 3 attributes (4-7 _ATTR's)
    [ \t\n\r\f]*(/?)>                              # 8 "/" of "/>"
  | </\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>            # 9 end-tag name
""" % _ATTR.pattern, re.X)
# html.parser's tagfind_tolerant, attrfind_tolerant, locatestarttagend_tolerant
# and commentclose; _markupbase's name and marked-section patterns
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTR_TOLERANT = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"""
    r"""('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
_START_TAG_END = re.compile(
    r"""<[a-zA-Z][^\t\n\r\f />\x00]*(?:[\s/]*(?:(?<=['"\s/])[^\s/>][^\s/=>]*"""
    r"""(?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?"""
    r"""(?:\s|/(?!>))*)*)?\s*""")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"([a-zA-Z][-_.a-zA-Z0-9]*)\s*")
_MARKED_CLOSE = {**dict.fromkeys("temp cdata ignore include rcdata".split(),
                                 re.compile(r"]\s*]\s*>")),
                 **dict.fromkeys("if else endif".split(), re.compile(r"]\s*>"))}
_RAW_TEXT_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I)
                 for tag in ("script", "style")}


def parse_html(html: str) -> Document:
    html = html or ""
    root = parent = Document()
    stack: list[Node] = [root]
    token = _TOKEN.match
    pos, n = 0, len(html)
    while pos < n:
        m = token(html, pos)
        if m is None:
            pos, start = _tolerant(html, pos, stack)
            parent = stack[-1]
            if start is None:
                continue
            tag, attrs, self_closing = start
        else:
            pos = m.end()
            if m.lastindex == 1:
                text = m.group(1)
                if "&" not in text or (text := unescape(text)):
                    parent.children.append(TextNode(text, parent))
                continue
            if m.lastindex == 9:
                tag = m.group(9).lower()
                if parent.name == tag:
                    stack.pop()
                else:
                    _close(stack, tag)
                parent = stack[-1]
                continue
            tag, self_closing = m.group(2).lower(), m.group(8)
            attrs = {}
            for name, dq, sq, bare in _ATTR.findall(m.group(3)):
                value = dq or sq or bare
                attrs[name.lower()] = unescape(value) if "&" in value else value
        node = Node(tag, attrs, parent)
        parent.children.append(node)
        # ``<div/>`` is never pushed, even when the tag is not void
        if not self_closing and tag not in VOID_ELEMENTS:
            stack.append(node)
            parent = node
            if tag in _RAW_TEXT_END:
                pos = _raw_text(html, pos, tag, stack)
                parent = stack[-1]
    return root


def _append_text(stack: list[Node], text: str) -> None:
    if text:
        stack[-1].children.append(TextNode(text, stack[-1]))


def _close(stack: list[Node], tag: str) -> None:
    for i in range(len(stack) - 1, 0, -1):
        if stack[i].name == tag:
            del stack[i:]
            return
    # unmatched end tag: ignore


def _raw_text(html: str, pos: int, tag: str, stack: list[Node]) -> int:
    """script/style content: text without charref decoding, up to an end
    tag of the same name.  Unterminated, the rest of the input is dropped."""
    while True:
        m = _RAW_TEXT_END[tag].search(html, pos)
        if m is None:
            return len(html)
        _append_text(stack, html[pos:m.start()])
        end = _TOKEN.match(html, m.start())
        if end and end.group(9).lower() == tag:
            _close(stack, tag)
            return m.end()
        # matched only under re.I's Unicode folding (``</ſcript>``)
        _append_text(stack, m.group())
        pos = m.end()


def _tolerant(html: str, i: int, stack: list[Node]) -> tuple[int, tuple | None]:
    """html.parser's ``goahead`` at a ``<`` that ``_TOKEN`` does not take:
    the end of the construct and, for a start tag, ``(tag, attrs, "/"?)``."""
    nxt = html[i + 1:i + 2]
    start = None
    if nxt.isascii() and nxt.isalpha():
        k, start = _start_tag(html, i, stack)
    elif nxt == "/":
        # ``_TOKEN`` took ``</name>``; the rest end at the first ``>``
        k = html.find(">", i + 1)
        m = _TAG_NAME.match(html, i + 2)
        if k >= 0 and m:
            _close(stack, m.group(1).lower())
        k = k + 1 if k >= 0 else -1
    elif html.startswith("<!--", i):
        m = _COMMENT_CLOSE.search(html, i + 4)
        k = m.end() if m else -1
    elif html.startswith("<![", i):    # parse_marked_section
        m = _DECL_NAME.match(html, i + 3)
        if i + 3 == len(html) or (m and m.end() == len(html)):
            k = -1
        elif m is None:
            raise AssertionError("expected name token at %r" % html[i:i + 20])
        elif m.group(1).lower() not in _MARKED_CLOSE:
            raise AssertionError("unknown status keyword %r in marked section"
                                 % html[i + 3:m.end()])
        else:
            m = _MARKED_CLOSE[m.group(1).lower()].search(html, i + 3)
            k = m.end() if m else -1
    elif nxt in ("!", "?"):    # <!doctype …>, bogus comment, <?pi>
        k = html.find(">", i + 2)
        k = k + 1 if k >= 0 else -1
    else:
        _append_text(stack, "<")
        return i + 1, None
    if k < 0:    # incomplete: text up to the next ">", else the next "<"
        k = html.find(">", i + 1) + 1 or max(html.find("<", i + 1), i + 1)
        _append_text(stack, unescape(html[i:k]))
    return k, start


def _start_tag(html: str, i: int,
               stack: list[Node]) -> tuple[int, tuple | None]:
    """``parse_starttag`` and ``check_for_whole_start_tag``."""
    j = _START_TAG_END.match(html, i).end()
    nxt = html[j:j + 1]
    if nxt == ">":
        endpos = j + 1
    elif html.startswith("/>", j):
        endpos = j + 2
    elif nxt in "/=" or nxt.isascii() and nxt.isalpha():   # or nxt == ""
        return -1, None
    else:
        endpos = j
    m = _TAG_NAME.match(html, i + 1)
    tag, k = m.group(1).lower(), m.end()
    attrs = {}
    while k < endpos:
        m = _ATTR_TOLERANT.match(html, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = ""
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        attrs[name.lower()] = unescape(value)
        k = m.end()
    end = html[k:endpos].strip()
    if end not in (">", "/>"):
        _append_text(stack, html[i:endpos])
        return endpos, None
    return endpos, (tag, attrs, end == "/>")


# ---------------------------------------------------------------------------
# precompiled multi-selector matching (hot-path helper)
# ---------------------------------------------------------------------------

class CompiledSelector:
    """A parsed selector list (``a, b c, ...``), reusable across documents.

    ``chains`` holds one compound chain per comma part.  Matching goes
    through a ``_RuleHash`` over one or more compiled selectors, which
    ``multi_select`` and ``Node.select`` build once and memoise."""

    __slots__ = ("chains",)

    def __init__(self, css: str):
        self.chains = [_parse_compound_chain(part)
                       for part in _split_toplevel_commas(css)
                       if part.strip()]


class _RuleHash:
    """The browsers' "rule hash" over a sequence of compiled selectors.

    Every chain is filed once under its *rightmost* compound: by id if it
    has one, else by its first class, else by tag; chains whose rightmost
    compound has none of the three (attribute-only) go to ``rest``.  An
    element can only match a chain filed under its own id, one of its
    class tokens or its tag name, so a walk looks up just those
    candidates.  A chain that is nothing but its key (a bare tag, single
    class or id) matches on the key hit alone; every other candidate is
    verified with ``_match_chain``."""

    __slots__ = ("n", "by_id", "by_class", "by_tag", "rest")

    def __init__(self, compiled: tuple[CompiledSelector, ...]):
        self.n = len(compiled)
        self.by_id: dict[str, list] = {}
        self.by_class: dict[str, list] = {}
        self.by_tag: dict[str, list] = {}
        self.rest: list = []
        for i, sel in enumerate(compiled):
            for chain in sel.chains:
                spec = chain[-1][1]
                tag, cid, classes = spec["tag"], spec["id"], spec["classes"]
                if cid is not None:
                    keyed, key = self.by_id, cid
                    bare = not tag and not classes
                elif classes:
                    keyed, key = self.by_class, classes[0]
                    bare = not tag and len(classes) == 1
                elif tag:
                    keyed, key, bare = self.by_tag, tag, True
                else:
                    self.rest.append((i, chain))
                    continue
                bare = bare and len(chain) == 1 and not spec["attrs"]
                keyed.setdefault(key, []).append((i, None if bare else chain))

    def select(self, root: Node) -> list[list[Node]]:
        """Per selector, its matches under ``root`` in document order."""
        out: list[list[Node]] = [[] for _ in range(self.n)]
        by_id, by_class, by_tag = self.by_id, self.by_class, self.by_tag
        rest = self.rest
        for el in root.walk():
            cands = by_tag.get(el.name)
            if cands:
                _hit(el, cands, out)
            if by_class:
                for token in el.classes:
                    cands = by_class.get(token)
                    if cands:
                        _hit(el, cands, out)
            if by_id:
                cands = by_id.get(el.attrs.get("id", ""))
                if cands:
                    _hit(el, cands, out)
            if rest:
                _hit(el, rest, out)
        return out


def _hit(el: Node, cands: list, out: list[list[Node]]) -> None:
    for i, chain in cands:
        found = out[i]
        # one element can reach a selector through several keys
        # (``<header class="header">`` vs ``header, .header``)
        if found and found[-1] is el:
            continue
        if chain is None or _match_chain(el, chain):
            found.append(el)


# memo of built indexes, keyed by a tuple of CompiledSelectors or by one
# CSS string.  A plain dict, not functools.lru_cache: webtext modules ship
# to Ray workers by value, and an lru_cache wrapper only pickles by
# reference.
_RULE_HASHES: dict[tuple[CompiledSelector, ...] | str, _RuleHash] = {}


def _rule_hash(key: tuple[CompiledSelector, ...] | str) -> _RuleHash:
    index = _RULE_HASHES.get(key)
    if index is None:
        if len(_RULE_HASHES) >= 1024:   # bound the memo, not a tuning knob
            _RULE_HASHES.clear()
        index = _RULE_HASHES[key] = _RuleHash(
            (CompiledSelector(key),) if isinstance(key, str) else key)
    return index


def multi_select(root: Node,
                 compiled: list[CompiledSelector]) -> list[list[Node]]:
    """Document-order matches for MANY selectors in ONE tree walk.

    Semantically identical to ``[root.select(s) for s in selectors]``: the
    same DFS as ``select``, each element at most once per selector.  The
    rule hash of ``compiled`` is built on first use and memoised, so every
    element tests only the chains keyed on its tag, classes and id.  This
    is the extraction actor's hot path (the generic cascade probes 15
    selectors, unwanted-removal 28)."""
    return _rule_hash(tuple(compiled)).select(root)
