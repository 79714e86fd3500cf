"""Interaction-record parsing, term matching, and per-term network assembly.

Records arrive as line-delimited JSON (optionally gzipped).  Each record that
textually matches a term contributes edges to that term's three directed
graphs: author -> mentioned user (mention), author -> replied-to author
(reply), author -> quoted author (quote retweet).
"""

from __future__ import annotations

import functools
import gzip
import io
import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

from .graphs import DirectedGraph, build_graph

__all__ = [
    "IngestError",
    "InteractionKind",
    "InteractionRecord",
    "ParseResult",
    "TermNetworkSet",
    "build_corpus",
    "parse_records",
    "parse_timestamp",
    "read_records_file",
    "read_terms_file",
    "term_matches",
]

log = logging.getLogger(__name__)


class IngestError(ValueError):
    pass


class InteractionKind(Enum):
    """The three pairwise interactions; enum order is the fixed export order."""

    MENTION = "mention"
    REPLY = "reply"
    QUOTE_RETWEET = "quote"


@dataclass(frozen=True)
class InteractionRecord:
    post_id: str
    author: str
    text: str
    mentioned: tuple[str, ...] = ()
    reply_to_author: str | None = None
    quoted_author: str | None = None
    timestamp: str = "1970-01-01T00:00:00+00:00"


@dataclass(frozen=True)
class ParseResult:
    records: list[InteractionRecord]
    failures: list[tuple[int, str]]  # (1-based line number, reason)


@dataclass(frozen=True)
class TermNetworkSet:
    term: str
    graphs: dict[InteractionKind, DirectedGraph] = field(compare=False)
    matched_records: int = 0


def parse_timestamp(value: str) -> datetime:
    """ISO-8601 parse; a 'Z' suffix means UTC, naive stamps are taken as UTC."""
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except (ValueError, AttributeError, TypeError) as exc:
        raise IngestError(f"bad timestamp {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _record_from_obj(obj) -> InteractionRecord:
    if not isinstance(obj, dict):
        raise IngestError("record is not a JSON object")
    post_id = obj.get("post_id")
    author = obj.get("author")
    text = obj.get("text")
    if not isinstance(post_id, str) or not post_id:
        raise IngestError("missing or empty post_id")
    if not isinstance(author, str) or not author:
        raise IngestError("missing or empty author")
    if not isinstance(text, str):
        raise IngestError("missing text")
    mentioned = obj.get("mentioned", [])
    if not isinstance(mentioned, list) or not all(isinstance(m, str) for m in mentioned):
        raise IngestError("mentioned must be a list of strings")
    reply_to = obj.get("reply_to_author")
    if reply_to is not None and not isinstance(reply_to, str):
        raise IngestError("reply_to_author must be a string or null")
    quoted = obj.get("quoted_author")
    if quoted is not None and not isinstance(quoted, str):
        raise IngestError("quoted_author must be a string or null")
    ts = obj.get("timestamp")
    if not isinstance(ts, str):
        raise IngestError("missing timestamp")
    parse_timestamp(ts)  # validate now so downstream filters cannot fail
    return InteractionRecord(
        post_id=post_id,
        author=author,
        text=text,
        mentioned=tuple(mentioned),
        reply_to_author=reply_to or None,
        quoted_author=quoted or None,
        timestamp=ts,
    )


def parse_records(stream, max_bad_fraction: float = 0.10) -> ParseResult:
    """Parse line-delimited JSON records, keeping input order.

    Malformed lines are reported with their line numbers rather than dropped
    silently; exceeding `max_bad_fraction` of non-blank lines is a hard error.
    Accepts bytes, str, or any iterable of lines.
    """
    if isinstance(stream, bytes):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)

    records: list[InteractionRecord] = []
    failures: list[tuple[int, str]] = []
    total = 0
    for lineno, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        if not line.strip():
            continue
        total += 1
        try:
            records.append(_record_from_obj(json.loads(line)))
        except json.JSONDecodeError as exc:
            failures.append((lineno, f"invalid JSON: {exc.msg}"))
        except IngestError as exc:
            failures.append((lineno, str(exc)))

    if total and len(failures) / total > max_bad_fraction:
        raise IngestError(
            f"{len(failures)} of {total} lines malformed "
            f"(limit {max_bad_fraction:.0%}); first: line {failures[0][0]}: {failures[0][1]}"
        )
    if failures:
        log.warning("parsed %d records, %d malformed lines reported", len(records), len(failures))
    return ParseResult(records=records, failures=failures)


def read_records_file(path, max_bad_fraction: float = 0.10) -> ParseResult:
    """parse_records over a file; names ending .gz are gzip-decompressed."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return parse_records(fh, max_bad_fraction=max_bad_fraction)


@functools.lru_cache(maxsize=4096)
def _term_pattern(term: str) -> re.Pattern:
    if term.startswith("#"):
        # hashtag token: exact tag, ended by end-of-string or a non-word char
        return re.compile(re.escape(term) + r"(?!\w)", re.IGNORECASE)
    # keyword: delimited on both sides by non-alphanumerics or boundaries
    return re.compile(r"(?<![^\W_])" + re.escape(term) + r"(?![^\W_])", re.IGNORECASE)


def term_matches(text: str, term: str) -> bool:
    if not term:
        raise IngestError("term must be non-empty")
    return _term_pattern(term).search(text) is not None


# A token is a maximal run of Unicode letters and digits; `-`, `_`, `#` and
# spaces end it, exactly as they end a keyword match.
_TOKEN = re.compile(r"[^\W_]+")


class _KeyTable(dict):
    """`str.translate` table from each character to its one-character key.

    re.IGNORECASE calls two characters equal when their simple lowercase
    forms are equal or listed as equivalent (s/ſ, i/ı/İ, µ/μ, k/K, σ/ς, ...).
    upper() unites those variants (ſ -> S, ı -> I, µ -> Μ), casefold()
    unites what upper() leaves apart (ẞ -> ss), and the first character of
    the result keys İ (casefold 'i̇') as i.  Two letters or digits a term
    pattern treats as equal always get the same key; the key may also unite
    characters the pattern tells apart, which only adds candidates.

    Only letters and digits are folded, and their keys are letters or
    digits; every other character is its own key.  A key therefore keeps
    its character's class, so the tokens of a translated text are the
    translated tokens of the text.
    """

    def __missing__(self, codepoint: int) -> str:
        char = chr(codepoint)
        key = self[codepoint] = char.upper().casefold()[0] if char.isalnum() else char
        return key


_KEYS = _KeyTable()

# Keys of the characters IGNORECASE equates across the letter/non-letter
# line: U+0345 (combining ypogegrammeni, not a letter) equals the letter
# iota, so a term holding either can match text whose tokens split where the
# term's do not.  Such terms are checked against every record.
_SPLIT_KEYS = frozenset("ι\u0345")


def _term_networks(term: str, matching: list[InteractionRecord]) -> TermNetworkSet:
    """Three graphs for one term from its matching records, in record order."""
    return TermNetworkSet(
        term=term,
        graphs={
            InteractionKind.MENTION: build_graph((r.author, m) for r in matching for m in r.mentioned),
            InteractionKind.REPLY: build_graph(
                (r.author, r.reply_to_author) for r in matching if r.reply_to_author is not None
            ),
            InteractionKind.QUOTE_RETWEET: build_graph(
                (r.author, r.quoted_author) for r in matching if r.quoted_author is not None
            ),
        },
        matched_records=len(matching),
    )


def build_corpus(records: list[InteractionRecord], terms: list[str]) -> list[TermNetworkSet]:
    """One TermNetworkSet per term, input order preserved.

    No term may equal another one under re.IGNORECASE (`stop` and `ſtop`
    match the same records); a record matching several terms contributes to
    each of them.  A record matches a term when the term's pattern
    (`term_matches`) finds it in the text.  The records are read once:
    each text is split into tokens, the tokens' keys look up the terms whose
    first token has the same key, and only those terms' patterns run.  A
    term's first token always lines up with one whole token of any text it
    matches, so the lookup skips only terms that cannot match.
    """
    # terms the patterns equate share a key: every character folds the way `_KEYS`
    # folds letters and digits, so U+0345 and cased symbols such as Ⓐ fold too
    by_key: dict[str, list[str]] = {}
    for term in terms:
        if not term:
            raise IngestError("term must be non-empty")
        same_key = by_key.setdefault("".join(c.upper().casefold()[0] for c in term), [])
        for other in same_key:
            if _term_pattern(other).fullmatch(term):
                raise IngestError(f"duplicate term (case-insensitive): {term!r} equals {other!r}")
        same_key.append(term)

    # first-token key -> indices of the terms starting with that token
    hashtags: dict[str, list[int]] = {}
    keywords: dict[str, list[int]] = {}
    every_record: list[int] = []  # no token, or a token that may split
    for i, term in enumerate(terms):
        first = _TOKEN.search(term)
        if first is None or not _SPLIT_KEYS.isdisjoint(term.translate(_KEYS)):
            every_record.append(i)
        else:
            table = hashtags if term.startswith("#") else keywords
            table.setdefault(first.group().translate(_KEYS), []).append(i)

    patterns = [_term_pattern(term) for term in terms]
    matching: list[list[InteractionRecord]] = [[] for _ in terms]
    for rec in records:
        text = rec.text
        keys = _TOKEN.findall(text.translate(_KEYS))
        candidates = set(every_record)
        for found in map(keywords.get, keys):
            if found:
                candidates.update(found)
        if "#" in text:
            for found in map(hashtags.get, keys):
                if found:
                    candidates.update(found)
        for i in candidates:
            if patterns[i].search(text) is not None:
                matching[i].append(rec)
    return [_term_networks(term, recs) for term, recs in zip(terms, matching)]


def read_terms_file(path) -> list[str]:
    """One term per line; '#'-prefixed lines are hashtags, '//' lines comments."""
    terms: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            terms.append(line)
    if not terms:
        raise IngestError(f"terms file {path} contains no terms")
    return terms
