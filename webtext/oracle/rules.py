"""Frozen rule tables of the extraction engine.

Every table here is *data* reproduced from the reference's in-code rule
tables (cited as ``ref:<line>`` into
``/root/reference/common_scripts/web_text_extractor_ver1.5.py`` and
``/root/reference/WebText_extraction/config.ini``).  Per the engine's
extension contract (SURVEY.md §2.4), these tables — not code — are the
customization surface: add a domain, an error pattern, or a selector by
editing the tuples below.

Tables are tuples (not lists/dicts where order matters) so iteration order
is structural, never insertion-accidental.
"""

from __future__ import annotations

import re

# --- generic main-content selector cascade, priority order (ref:1244-1248)
MAIN_CONTENT_SELECTORS: tuple[str, ...] = (
    "main", "article", ".article", ".post", ".entry", ".content", "#content",
    ".main-content", ".post-content", ".article-content", ".entry-content",
    "section.article", "div.article", '[itemprop="articleBody"]', ".story-body",
)

# --- per-domain selector rule table (ref:1251-1261)
DOMAIN_SPECIFIC_SELECTORS: dict[str, tuple[str, ...]] = {
    "news.yahoo.co.jp": (".article_body", ".highLightSearchTarget"),
    "www.nikkansports.com": (".articleText",),
    "ja.wikipedia.org": ("#mw-content-text",),
    "number.bunshun.jp": (".p-article__body",),
    "gendai.media": (".article-body",),
    "www.oricon.co.jp": (".full-text",),
    "www.chunichi.co.jp": (".article-body",),
    "www.sanspo.com": (".article-header, .article-body", ".article-body",
                       ".article__text", "article", "main"),
}

# --- unwanted-element removal inside a selected content element
# (ref:1278-1284; identical list reused at ref:1326-1332)
UNWANTED_IN_CONTENT: tuple[str, ...] = (
    "header", "footer", "nav", "aside", "script", "style", "noscript",
    ".related", ".recommend", ".sidebar", ".ad", ".banner",
    ".ranking", ".sports", ".entame", ".latest", ".news", ".links",
    ".more", ".topics", ".column", ".comment", ".social", ".share",
    ".breadcrumb", ".pagination", ".tag", ".category",
)

# --- unwanted-element removal for the whole-body fallback (ref:1344-1350)
UNWANTED_IN_BODY: tuple[str, ...] = (
    "header", "footer", "nav", "script", "style", "aside", "noscript",
    ".header", ".footer", ".nav", ".menu", ".sidebar", ".ad",
    ".advertisement", ".banner",
    ".related", ".recommend", ".ranking", ".sports", ".entame", ".latest",
    ".news", ".links", ".more", ".topics", ".column", ".comment", ".social",
    ".share", ".breadcrumb", ".pagination", ".tag", ".category",
)

# --- body-wide strip used by the dynamic-render fallback (ref:1216)
UNWANTED_SELENIUM_BODY: str = (
    "header, footer, nav, script, style, .header, .footer, .nav, .menu, "
    ".sidebar, .ad, .advertisement, .banner, noscript"
)

# --- text-density heuristic (ref:1295-1318)
HEURISTIC_BLOCK_TAGS: frozenset[str] = frozenset(
    ("div", "section", "article", "main", "p"))
HEURISTIC_EXCLUDE_CLASSES: tuple[str, ...] = (
    "header", "footer", "nav", "sidebar", "ad", "banner", "menu", "related",
    "recommend", "ranking", "sports", "entame", "latest", "news", "links",
    "more", "topics", "column",
)
HEURISTIC_EXCLUDE_TAGS: frozenset[str] = frozenset(
    ("header", "footer", "nav", "aside", "script", "style", "noscript"))
HEURISTIC_CONTENTISH_CLASSES: tuple[str, ...] = (
    "content", "article", "main", "post", "entry", "body")
HEURISTIC_MIN_BLOCK_CHARS = 200          # ref:1310
HEURISTIC_PARENT_BOOST = 1.5             # ref:1316
BODY_FALLBACK_MIN_CHARS = 50             # ref:1355
SHORT_CONTENT_THRESHOLD = 100            # ref:523, 542, 570

# --- cleanup normalizer regexes (ref:179-190)
URL_RE_HTTP = re.compile(r"https?://\S+")
URL_RE_WWW = re.compile(r"www\.\S+")
# broad TLD-ish URL pattern, byte-for-byte the reference pattern (ref:187)
URL_RE_BROAD = re.compile(
    r'(?i)\b((?:https?://|www\d{0,3}[.]|[a-z0-9.\-]+[.][a-z]{2,4}/)'
    r'(?:[^\s()<>]+|\(([^\s()<>]+|(\([^\s()<>]+\)))*\))+'
    r'(?:\(([^\s()<>]+|(\([^\s()<>]+\)))*\)|[^\s`!()\[\]{};:\'\".,<>?«»""\'\']))'
)
BLANK_SQUEEZE_RE = re.compile(r"\n\s*\n\s*\n+")      # ref:190 → "\n\n"
PARA_DEDUP_SIM_THRESHOLD = 0.8                        # ref:329
PARA_DEDUP_MIN_CHARS = 100                            # ref:307
# deterministic stand-in for the reference's 600 s per-document timeout
# (ref:1388-1393): E11 is O(P²)·SequenceMatcher; beyond this paragraph
# count the document is emitted as a timeout-sentinel row (same sentinel,
# same keep-semantics, ref:1628-1630) instead of stalling an actor.
# Size-based, not wall-clock-based, so results are reproducible.
PARA_DEDUP_MAX_PARAGRAPHS = 512
# companion cost cap: P × total_chars (= P²·L̄) bounds the pairwise work
# even when paragraphs are long.  Measured on one core at the cap, all pairs
# distinct: 512 same-vocabulary paragraphs of 76 chars 3.1 s, 100 prose
# paragraphs of 2,000 chars 3.0 s, 70 of 4,000 chars 6.9 s (the exact
# bounds in cleanup.py settle these pairs); above the LCS size guard
# ratio() decides each pair, and 69 prose paragraphs of 4,100 chars take
# 34 s, 44 of 10,000 chars 75 s.
PARA_DEDUP_MAX_COST = 20_000_000
REPLACEMENT_CHAR = "�"                           # ref:196

# --- markdown (Jina-style) normalizer (ref:89-109)
MD_HEADER_RES: tuple[re.Pattern, ...] = (
    re.compile(r"^Title:.*\n?", re.MULTILINE),
    re.compile(r"^URL Source:.*\n?", re.MULTILINE),
    re.compile(r"^Published Time:.*\n?", re.MULTILINE),
    re.compile(r"^Markdown Content:\n?", re.MULTILINE),
)
MD_SOURCE_LINK_RE = re.compile(r"\[Source\]\(https://r\.jina\.ai/[^)]+\)\s*")
MD_IMAGE_LINK_RE = re.compile(r"\[!\[[^\]]*\]\([^)]*\)\]\([^)]*\)\s*")
MD_IMAGE_RE = re.compile(r"!\[[^\]]*\]\([^)]*\)\s*")
MD_LINK_RE = re.compile(r"\[[^\]]*\]\([^)]*\)\s*")
MD_IMG_TAG_RE = re.compile(r"<img[^>]*>\s*")
MD_BLANK_RE = re.compile(r"\n\s*\n")
MD_MIN_CHARS = 50                                     # ref:109

# --- special-domain dispatch (ref:386-389, 421-429)
JINA_FIRST_DOMAINS: tuple[str, ...] = ("youtube.com",)
YAHOO_IMAGE_SEARCH_PREFIX = "https://search.yahoo.co.jp/image/search"
CHIEBUKURO_SUBSTR = "detail.chiebukuro.yahoo.co.jp"
INSTAGRAM_SUBSTR = "instagram.com"
TWITTER_SUBSTRS: tuple[str, ...] = ("x.com", "twitter.com")
PINTEREST_SUBSTR = "pinterest.com"

# --- domain derivation
# The reference derives the rule-dispatch domain two different ways:
#  * requests path (ref:519): the raw pattern contains an escaping bug
#    ('www\\.') that makes the www-strip inert, so the domain KEEPS a
#    leading "www." — which is what makes the www-prefixed entries in
#    DOMAIN_SPECIFIC_SELECTORS reachable.
#  * selenium path (ref:1206): correct pattern, "www." stripped.
DOMAIN_RE_KEEP_WWW = re.compile(r"https?://([^/]+)")
DOMAIN_RE_STRIP_WWW = re.compile(r"https?://(?:www\.)?([^/]+)")


def domain_keep_www(url: str) -> str:
    m = DOMAIN_RE_KEEP_WWW.search(url)
    return m.group(1) if m else ""


def domain_strip_www(url: str) -> str:
    m = DOMAIN_RE_STRIP_WWW.search(url)
    return m.group(1) if m else ""


# --- Pinterest nav-only detector (ref:224-293)
PINTEREST_CONTENT_INDICATOR_RES: tuple[re.Pattern, ...] = tuple(
    re.compile(p) for p in (
        r"\b[a-zA-Z0-9-]+\.(com|net|org|jp|co\.jp)\b",
        r"https?://[^\s]+",
        r"[あ-んア-ンア-ヶー一-龯]{10,}",
        r"\b[A-Z][a-z]+(?:\s+[A-Z][a-z]+){3,}",
        r"(?:目次|第\d+章|\d+\.\s)",
        r"\d{4}[-/]\d{1,2}[-/]\d{1,2}",
    )
)
PINTEREST_NAV_PHRASES: tuple[str, ...] = (
    "Skip to content",
    "Explore ideas",
    "Search for easy dinners",
    "When autocomplete results are available",
    "Log in",
    "Sign up",
    "コンテンツへスキップ",
    "アイデアを探す",
    "簡単ディナーレシピ",
)
PINTEREST_NAV_MIN_PHRASES = 4                         # ref:271
PINTEREST_NAV_RATIO = 0.7                             # ref:273
PINTEREST_STRICT_NAV_PATTERN = (
    "Skip to content "
    "Explore ideas "
    "Search for easy dinners, fashion, etc. "
    "When autocomplete results are available use up and down arrows to "
    "review and enter to select. Touch device users, explore by touch or "
    "with swipe gestures. "
    "Log in "
    "Sign up"
)
PINTEREST_STRICT_MAX_CHARS = 300                      # ref:292

# --- Pinterest handler selector families (ref:997-1093) with output caps
# (ref:1113-1142): domains 3, titles 2, descriptions 3, pinners 2,
# comments 5, main areas 2.
PINTEREST_DOMAIN_SELECTORS: tuple[str, ...] = (
    "[data-test-id='pin-domain-link'] span",
    "[data-test-id='pin-domain-link'] a",
    "[data-test-id='pin-domain-link']",
    "span[style*='text-decoration: underline']",
    "a[href*='http']",
)
PINTEREST_TITLE_SELECTORS: tuple[str, ...] = (
    "h1.FAo.dyH.Cc2.X8m.V2L.G1E",
    "h1[data-test-id='pin-title']",
    "h1[data-test-id='title']",
    "div[data-test-id='pin-description'] h1",
    "div[data-test-id='closeup-title'] h1",
    "h1",
    ".FAo.dyH.Cc2.X8m.V2L.G1E",
)
PINTEREST_DESC_SELECTORS: tuple[str, ...] = (
    "span.X8m.zDA.IZT.eSP.dyH.llN.ryr",
    "div[data-test-id='pin-description'] span",
    "div[data-test-id='closeup-description'] span",
    "span[data-test-id='description-text']",
    ".X8m.zDA.IZT.eSP.dyH.llN.ryr",
)
PINTEREST_PINNER_SELECTORS: tuple[str, ...] = (
    ".X8m.zDA.IZT.eSP.dyH.llN.Kv8",
    "div[data-test-id='pinner-name']",
    "a[data-test-id='pinner-name']",
    "[data-test-id='pinner-avatar'] + div",
    ".Kv8",
)
PINTEREST_COMMENT_SELECTORS: tuple[str, ...] = (
    "h2.FAo.dyH.c51.X8m.V2L.G1E",
    "[data-test-id='comment-avatar-container'] + div",
    "[data-test-id='author-and-comment-container']",
    "[data-test-id='text-container']",
    "div[class*='comment']",
)
PINTEREST_MAIN_SELECTORS: tuple[str, ...] = (
    "div.KS5.hs0.un8.C9i.TB_",
    "[data-test-id='pin-close-up-content']",
    "[data-test-id='closeup-body']",
    "main",
    "article",
)
PINTEREST_FALLBACK_STRIP = "script, style, nav, header, footer, .ad, .advertisement, noscript"
PINTEREST_MIN_RESULT_CHARS = 200                      # ref:1145
PINTEREST_LARGE_DIV_MIN = 100                         # ref:1159
PINTEREST_DIV_TRUNCATE = 1000                         # ref:1169

# --- chiebukuro handler tables (ref:682-909)
CHIEBUKURO_TITLE_SELECTORS: tuple[str, ...] = (
    ".Title__title", ".ColumnHead__title", ".QuestionDetail__title")
CHIEBUKURO_CONTENT_SELECTORS: tuple[str, ...] = (
    ".ClapLv1__content", ".QuestionDetail__content", ".Question__body")
CHIEBUKURO_ANSWER_SELECTORS: tuple[str, ...] = (
    ".ClapLv2__item", ".AnswerItem", ".Answer__body")
CHIEBUKURO_GENERIC_ANSWER_SELECTOR = (
    "div.Answer, div.AnswerItem, div.ClapLv2__item, div[data-testid='answer']")
CHIEBUKURO_RELATED_TEXT = "あわせて知りたい"
CHIEBUKURO_HEADING_KILL_KEYWORDS: tuple[str, ...] = (
    "その他の回答をもっと見る", "q&aをもっと見る", "人気の質問")
CHIEBUKURO_BLOCK_EXCLUDE_KEYWORDS: tuple[str, ...] = (
    "あわせて知りたい", "人気の質問")

# --- instagram handler (ref:637-674)
INSTAGRAM_CAPTION_MIN_CHARS = 20                      # ref:662
INSTAGRAM_FALLBACK_SELECTOR = "._a9zs"                # ref:668

# --- browser error patterns (config.ini:10, ref:1422-1450)
BROWSER_ERROR_PATTERNS: tuple[str, ...] = (
    "このサイトにアクセスできません",
    "ERR_TIMED_OUT",
    "からの応答時間が長すぎます",
    "接続を確認する",
    "プロキシとファイアウォールを確認する",
)

# --- failure-message taxonomy (ref:1592-1610)
FAILURE_TEMPLATES_WITH_URL: tuple[str, ...] = (
    "PDFからテキストを抽出できませんでした: {}",
    "PDFファイルのダウンロードに失敗しました: {}",
    "PDFファイルの処理中にエラーが発生しました: {}",
    "すべての抽出方法でテキストを抽出できませんでした: {}",
    "特定ドメインの抽出に失敗しました (Jina & Selenium): {}",
    "Yahoo画像検索の抽出に失敗しました (Jina & Selenium): {}",
    "ドライバーの初期化に失敗したため、{} からテキストを抽出できませんでした。",
    "X (Twitter) ページからのテキスト抽出に失敗しました: {}",
    "Instagramポストからテキストが見つかりませんでした: {}",
    "Instagramページからのテキスト抽出に失敗しました: {}",
    "Yahoo知恵袋ページからのテキスト抽出に失敗しました: {}",
    "知恵袋からコンテンツを抽出できませんでした: {}",
    "YouTubeページからのテキスト抽出に失敗しました: {}",
)
FAILURE_PREFIXES: tuple[str, ...] = ("エラーが発生しました:",)   # ref:1609
TIMEOUT_SENTINEL = "（テキスト抽出タイムアウト）"                 # ref:1393, kept at ref:1629
FAILURE_MARKER = "失敗しました"      # the dispatcher's success check (ref:365,433,585)

# --- span kinds
TEXT_BEARING_KINDS: frozenset[str] = frozenset(("html", "text", "markdown", "pdf"))
MEDIA_KINDS: frozenset[str] = frozenset(("image", "video", "audio"))
# synthetic PDF page model: pages separated by \f; this literal marks a
# page whose extraction raises and is skipped (ref:142-144)
PDF_PAGE_SEP = "\f"
PDF_CORRUPT_PAGE = "<corrupt>"
