"""Interaction-record parsing, term matching, and per-term network assembly.

Records arrive as line-delimited JSON (optionally gzipped) and are kept when
stamped inside the collection window.  Each record that textually matches a
term contributes edges to that term's three directed graphs: author ->
mentioned user (mention), author -> replied-to author (reply), author ->
quoted author (quote retweet).
"""

from __future__ import annotations

import functools
import gzip
import io
import json
import re
from dataclasses import dataclass, field
from datetime import date, datetime, time, timezone
from enum import Enum

from .graphs import DirectedGraph, build_graph
from .manifest import FIELD_LIMIT, InputError, open_text

__all__ = [
    "MAX_BAD_FRACTION",
    "InteractionKind",
    "InteractionRecord",
    "ParseResult",
    "TermNetworkSet",
    "build_corpus",
    "parse_records",
    "parse_timestamp",
    "parse_window_bound",
    "read_records_file",
    "read_terms_file",
]

MAX_BAD_FRACTION = 0.10  # more malformed non-blank lines than this is a hard error
_JSON_WHITESPACE = " \t\r\n"  # a line of these alone is blank; str.strip() would also drop \xa0, \x0c, ...


class InteractionKind(Enum):
    """The three pairwise interactions; enum order is the fixed export order."""

    MENTION = "mention"
    REPLY = "reply"
    QUOTE_RETWEET = "quote"


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """What the networks read of a record; its `post_id` and `timestamp` are checked, then dropped."""

    author: str
    text: str
    mentioned: tuple[str, ...] = ()
    reply_to_author: str | None = None
    quoted_author: str | None = None


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
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)  # OverflowError when an offset passes year 1 or 9999
    except (ValueError, AttributeError, TypeError, OverflowError) as exc:
        raise InputError(f"bad timestamp {value!r}") from exc


def parse_window_bound(value: str, end_of_day: bool) -> datetime:
    """ISO-8601 instant; a bare date (any form `date.fromisoformat` reads) means start (or end) of that UTC day."""
    try:
        day = date.fromisoformat(value)
    except ValueError:
        return parse_timestamp(value)
    return datetime.combine(day, time.max if end_of_day else time.min, timezone.utc)


def _record_from_obj(obj) -> tuple[str, str, list[str], str | None, str | None, datetime]:
    """The checked author, text, mentioned, reply and quote targets, and parsed timestamp.

    An empty reply or quote target is returned as None; `mentioned` may still hold empty handles.
    """
    if not isinstance(obj, dict):
        raise InputError("record is not a JSON object")
    post_id = obj.get("post_id")
    author = obj.get("author")
    text = obj.get("text")
    if not isinstance(post_id, str) or not post_id:
        raise InputError("missing or empty post_id")
    if not isinstance(author, str) or not author:
        raise InputError("missing or empty author")
    if not isinstance(text, str):
        raise InputError("missing text")
    mentioned = obj.get("mentioned", [])
    if not isinstance(mentioned, list) or not all(isinstance(m, str) for m in mentioned):
        raise InputError("mentioned must be a list of strings")
    reply_to = obj.get("reply_to_author")
    if reply_to is not None and not isinstance(reply_to, str):
        raise InputError("reply_to_author must be a string or null")
    quoted = obj.get("quoted_author")
    if quoted is not None and not isinstance(quoted, str):
        raise InputError("quoted_author must be a string or null")
    ts = obj.get("timestamp")
    if not isinstance(ts, str):
        raise InputError("missing timestamp")
    # json.loads keeps an escaped lone surrogate, which no UTF-8 file can hold: UnicodeEncodeError
    joined = "".join((post_id, author, text, ts, *mentioned, reply_to or "", quoted or "")).encode()
    if len(joined) > FIELD_LIMIT:  # bytes >= characters; a longer handle makes an unreadable edge file
        if max(map(len, (author, *mentioned, reply_to or "", quoted or ""))) > FIELD_LIMIT:
            raise InputError(f"a handle longer than {FIELD_LIMIT} characters, csv's field limit")
    return author, text, mentioned, reply_to or None, quoted or None, parse_timestamp(ts)


def parse_records(lines, window_from: datetime | None = None, window_to: datetime | None = None) -> ParseResult:
    """Parse line-delimited JSON records, keeping input order.

    `lines` is a str or any iterable of str lines.  Only records stamped
    within [window_from, window_to] (inclusive; an unset bound is open) are
    kept.  Malformed lines are reported with their line numbers rather than
    dropped silently; more than MAX_BAD_FRACTION of the non-blank lines
    malformed is a hard error.  A line is blank when it holds JSON whitespace
    alone (space, tab, CR, LF); any other line is parsed and counted.  A valid
    record outside the window is a good line.

    Each kept record holds its own text, but records share one object per
    distinct handle and per distinct mention tuple, so memory grows with the
    distinct handles, not with their references.  The memo lives for this
    call only.  On a stream that never repeats a handle it saves nothing,
    and its entries cost up to about 50 % more memory per record (records of
    two short handles each) than unshared copies would.
    """
    if isinstance(lines, str):
        lines = io.StringIO(lines)
    # share_*(v, v) returns the first object equal to v seen in this call; handles get a memo of
    # their own because a dict whose keys are all str stores no hashes, so its entries are smaller
    share_handle = {}.setdefault
    share_mentions = {}.setdefault
    records: list[InteractionRecord] = []
    failures: list[tuple[int, str]] = []
    total = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip(_JSON_WHITESPACE):
            continue
        total += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            failures.append((lineno, f"invalid JSON: {exc.msg}"))
            continue
        except (RecursionError, ValueError) as exc:  # nesting too deep; an int past Python's digit limit
            failures.append((lineno, f"invalid JSON: {exc}"))
            continue
        try:
            author, text, mentioned, reply_to, quoted, instant = _record_from_obj(obj)
        except (InputError, UnicodeEncodeError) as exc:
            failures.append((lineno, str(exc)))
        else:
            if (window_from is None or window_from <= instant) and (window_to is None or instant <= window_to):
                mentioned = tuple([share_handle(m, m) for m in mentioned if m])
                records.append(
                    InteractionRecord(
                        share_handle(author, author),
                        text,
                        share_mentions(mentioned, mentioned),
                        reply_to and share_handle(reply_to, reply_to),
                        quoted and share_handle(quoted, quoted),
                    )
                )

    if total and len(failures) / total > MAX_BAD_FRACTION:
        raise InputError(
            f"{len(failures)} of {total} lines malformed "
            f"(limit {MAX_BAD_FRACTION:.0%}); first: line {failures[0][0]}: {failures[0][1]}"
        )
    return ParseResult(records=records, failures=failures)


def read_records_file(path, window_from: datetime | None = None, window_to: datetime | None = None) -> ParseResult:
    """parse_records over a file; names ending .gz are gzip-decompressed."""
    with open_text(path, gzip.open if str(path).endswith(".gz") else open) as fh:
        try:
            return parse_records(fh, window_from, window_to)
        except InputError as exc:  # the 10 % rule
            raise InputError(f"{path}: {exc}") from None


@functools.lru_cache(maxsize=4096)
def _term_pattern(term: str) -> re.Pattern:
    if term.startswith("#"):
        # hashtag token: exact tag, ended by end-of-string or a non-word char
        return re.compile(re.escape(term) + r"(?!\w)", re.IGNORECASE)
    # keyword: delimited on both sides by non-alphanumerics or boundaries
    return re.compile(r"(?<![^\W_])" + re.escape(term) + r"(?![^\W_])", re.IGNORECASE)


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
    (`_term_pattern`) finds it in the text.  The records are read once:
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
            raise InputError("term must be non-empty")
        same_key = by_key.setdefault("".join(c.upper().casefold()[0] for c in term), [])
        for other in same_key:
            if _term_pattern(other).fullmatch(term):
                raise InputError(f"duplicate term (case-insensitive): {term!r} equals {other!r}")
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
    with open_text(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            if len(line) > FIELD_LIMIT:
                raise InputError(f"terms file {path}: a term longer than {FIELD_LIMIT} characters")
            terms.append(line)
    if not terms:
        raise InputError(f"terms file {path} contains no terms")
    return terms
