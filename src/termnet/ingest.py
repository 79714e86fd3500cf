"""Interaction-record parsing, term matching, and per-term network assembly.

Records arrive as line-delimited JSON (optionally gzipped) and are kept when
stamped inside the collection window.  Each record that textually matches a
term contributes edges to that term's three directed graphs: author ->
mentioned user (mention), author -> replied-to author (reply), author ->
quoted author (quote retweet).

`read_corpus` reads every records file as a list of parts through
`forked.fork_map`, so call it from a single-threaded process.
"""

from __future__ import annotations

import functools
import gzip
import io
import json
import operator
import os
import re
from dataclasses import dataclass, field
from datetime import date, datetime, time, timezone
from itertools import chain, pairwise, repeat
from json.decoder import WHITESPACE
from json.scanner import make_scanner
from typing import Callable, Iterable, Iterator

from .forked import fork_map, usable_cores
from .graphs import DirectedGraph, build_graph
from .manifest import FIELD_LIMIT, InputError, open_text

__all__ = [
    "KINDS",
    "MAX_BAD_FRACTION",
    "InteractionRecord",
    "ParseResult",
    "TermNetworkSet",
    "build_corpus",
    "parse_records",
    "parse_timestamp",
    "parse_window_bound",
    "read_corpus",
    "read_records_file",
    "read_terms_file",
]

MAX_BAD_FRACTION = 0.10  # more malformed non-blank lines than this is a hard error
_JSON_WHITESPACE = " \t\r\n"  # a line of these alone is blank; str.strip() would also drop \xa0, \x0c, ...


# The three pairwise interactions, by their on-disk names, in the fixed export order:
# author -> mentioned user, author -> replied-to author, author -> quoted author
KINDS = ("mention", "reply", "quote")


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
    graphs: dict[str, DirectedGraph] = field(compare=False)  # keyed by KINDS, in that order
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


# json.loads(s) for a str s is three Python calls around the C scanner of one default decoder
_scan_once = make_scanner(json.JSONDecoder())
_skip_whitespace = WHITESPACE.match


def _loads(line: str):
    """json.loads(line): the same value, or the same error with the same message and position."""
    if line[:1] == "\ufeff":
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        obj, end = _scan_once(line, len(line) - len(line.lstrip(_JSON_WHITESPACE)))
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    if end != len(line.rstrip(_JSON_WHITESPACE)):  # a value never ends in whitespace
        raise json.JSONDecodeError("Extra data", line, _skip_whitespace(line, end).end())
    return obj


def _all_str(items: list) -> bool:
    """all(isinstance(m, str) for m in items), checked in C by str.join."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _record_from_obj(obj, line: str) -> tuple[str, str, list[str], str | None, str | None, datetime]:
    """The checked author, text, mentioned, reply and quote targets, and parsed timestamp of `obj`, read from `line`.

    Empty mentioned handles are dropped, and an empty reply or quote target is returned as None.
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
    if not isinstance(mentioned, list) or not _all_str(mentioned):
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
    # A lone surrogate, which no UTF-8 file can hold, comes from a \u escape (json.loads keeps it) or from
    # a non-ASCII str line; no decoded field is longer than its line.  Other lines skip the join.
    if not line.isascii() or "\\u" in line or len(line) > FIELD_LIMIT:
        joined = "".join((post_id, author, text, ts, *mentioned, reply_to or "", quoted or "")).encode()
        if len(joined) > FIELD_LIMIT:  # bytes >= characters; a longer handle makes an unreadable edge file
            if max(map(len, (author, *mentioned, reply_to or "", quoted or ""))) > FIELD_LIMIT:
                raise InputError(f"a handle longer than {FIELD_LIMIT} characters, csv's field limit")
    if "" in mentioned:
        mentioned = [m for m in mentioned if m]
    return author, text, mentioned, reply_to or None, quoted or None, parse_timestamp(ts)


class _RecordStream:
    """The windowed records of `lines`, parsed one line at a time as they are iterated.

    `lines` is a str or any iterable of str lines; a str is read as a
    records file is: one leading U+FEFF is dropped, and lines end at LF, CR
    or CRLF.  Records come out in input
    order and only those stamped within [window_from, window_to] (inclusive;
    an unset bound is open).  A line is blank when it holds JSON whitespace
    alone (space, tab, CR, LF); any other line is parsed and counted, and a
    valid record outside the window is a good line.  Malformed lines are
    counted in `malformed` and listed in `failures` as (1-based line number,
    reason): all of them, or the first `keep_failures`.  Once the lines run
    out, `nonblank` and `line_count` hold the counts of non-blank and of all
    lines.  The stream raises nothing for malformed lines: the caller applies
    the 10 % rule (`_check_malformed`) to the whole input, which may be read
    in several streams.

    Each record comes out as a plain (author, text, mentioned, reply_to,
    quoted) tuple, where `mentioned` is a list of the non-empty mentioned
    handles and an absent target is None.  The stream keeps nothing of a
    record once it is yielded and shares no objects between records.
    """

    def __init__(self, lines, window_from=None, window_to=None, keep_failures=None):
        self.lines = io.StringIO(lines.removeprefix("\ufeff"), newline="") if isinstance(lines, str) else lines
        self.window_from = window_from
        self.window_to = window_to
        self.keep_failures = keep_failures
        self.failures: list[tuple[int, str]] = []
        self.malformed = 0
        self.nonblank = 0
        self.line_count = 0

    def _fail(self, lineno: int, reason: str) -> None:
        self.malformed += 1
        if self.keep_failures is None or len(self.failures) < self.keep_failures:
            self.failures.append((lineno, reason))

    def __iter__(self) -> Iterator[tuple[str, str, list[str], str | None, str | None]]:
        window_from, window_to = self.window_from, self.window_to
        total = lineno = 0
        for lineno, line in enumerate(self.lines, start=1):
            if not line.strip(_JSON_WHITESPACE):
                continue
            total += 1
            try:
                obj = _loads(line)
            except json.JSONDecodeError as exc:
                at = f" column {exc.colno}" if exc.msg.endswith(" at") else ""  # "Unterminated string starting at"
                self._fail(lineno, f"invalid JSON: {exc.msg}{at}")
                continue
            except (RecursionError, ValueError) as exc:  # nesting too deep; an int past Python's digit limit
                self._fail(lineno, f"invalid JSON: {exc}")
                continue
            try:
                author, text, mentioned, reply_to, quoted, instant = _record_from_obj(obj, line)
            except (InputError, UnicodeEncodeError) as exc:
                self._fail(lineno, str(exc))
            else:
                if (window_from is None or window_from <= instant) and (window_to is None or instant <= window_to):
                    yield author, text, mentioned, reply_to, quoted
        self.nonblank, self.line_count = total, lineno


def _check_malformed(malformed: int, nonblank: int, failures: list[tuple[int, str]]) -> None:
    """The 10 % rule: more than MAX_BAD_FRACTION of the non-blank lines malformed is an InputError."""
    if nonblank and malformed / nonblank > MAX_BAD_FRACTION:
        lineno, reason = failures[0]
        raise InputError(
            f"{malformed} of {nonblank} lines malformed "
            f"(limit {MAX_BAD_FRACTION:.0%}); first: line {lineno}: {reason}"
        )


def parse_records(lines, window_from: datetime | None = None, window_to: datetime | None = None) -> ParseResult:
    """Every windowed record of `lines` and every malformed line, in input order.

    The lines, the window and the blank-line rule are those of `_RecordStream`,
    whose tuples this call turns into `InteractionRecord`s; more than
    MAX_BAD_FRACTION of the non-blank lines malformed is an InputError.
    `read_corpus` builds the networks without keeping the records.
    """
    stream = _RecordStream(lines, window_from, window_to)
    records = [InteractionRecord(a, t, tuple(m), r, q) for a, t, m, r, q in stream]
    _check_malformed(stream.malformed, stream.nonblank, stream.failures)
    return ParseResult(records=records, failures=stream.failures)


def _whole_file(path) -> Callable:
    """The opener of a records file's text lines as one part, gzip-decompressed when the name ends .gz."""
    return lambda: open_text(path, gzip.open(path) if str(path).endswith(".gz") else None)


def read_records_file(path, window_from: datetime | None = None, window_to: datetime | None = None) -> ParseResult:
    """parse_records over a file; names ending .gz are gzip-decompressed, and the 10 % error names the file."""
    with _whole_file(path)() as fh:
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

# bytes.translate table from each ASCII character to its key byte: a letter or digit to its `_KEYS`
# key, any other character to a space, which ends a token as the character does
_ASCII_KEYS = bytes(ord(_KEYS[c]) if chr(c).isalnum() else 32 for c in range(128)).ljust(256)


def _token_keys(text: str) -> list[str]:
    """The keys of the tokens of `text`: `_TOKEN.findall(text.translate(_KEYS))`."""
    if text.isascii():  # the same keys without a regex or a per-character dict lookup
        return text.encode().translate(_ASCII_KEYS).decode().split()
    return _TOKEN.findall(text.translate(_KEYS))


class _TermEdges:
    """What matching keeps of the records, per term in term order.

    `matched[i]` counts the records that match term i, and `kinds[k][i]`
    holds the distinct (author, target) pairs of interaction k
    (KINDS order) as dict keys, in order of first appearance.
    `handles` maps each handle in the pairs to its one shared object.
    """

    def __init__(self, terms: list[str]):
        self.terms = terms
        self.matched = [0] * len(terms)
        self.kinds = tuple([{} for _ in terms] for _ in KINDS)
        self.handles: dict[str, str] = {}

    def networks(self) -> list[TermNetworkSet]:
        self.handles.clear()  # the edges hold the handles; the graphs built next set the peak
        return [
            TermNetworkSet(
                term=term,
                graphs={kind: build_graph(pairs[i]) for kind, pairs in zip(KINDS, self.kinds)},
                matched_records=self.matched[i],
            )
            for i, term in enumerate(self.terms)
        ]


def _matcher(terms: list[str]) -> Callable[[Iterable[tuple]], _TermEdges]:
    """Check `terms` now; return the function that matches records against them.

    No term may equal another one under re.IGNORECASE (`stop` and `ſtop`
    match the same records), so a bad term is reported before any record is
    read.  The returned function reads its records, as (author, text,
    mentioned, reply_to, quoted) tuples, once and keeps none of them: each
    matching record adds its (author, target) pairs to its term's three edge
    dicts in the `_TermEdges` it returns.  The edges share one object per
    distinct handle of the matching records.
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

    def match(records: Iterable[tuple]) -> _TermEdges:
        edges = _TermEdges(terms)
        matched = edges.matched
        mentions, replies, quotes = edges.kinds
        share = edges.handles.setdefault  # share(v, v): the first handle equal to v of a matching record
        for author, text, mentioned, reply_to, quoted in records:
            keys = _token_keys(text)
            candidates = set()
            if every_record:
                candidates.update(every_record)
            for found in map(keywords.get, keys):
                if found:
                    candidates.update(found)
            if "#" in text:
                for found in map(hashtags.get, keys):
                    if found:
                        candidates.update(found)
            shared = False
            for i in candidates:
                if patterns[i].search(text) is not None:
                    if not shared:  # the record's first matching term
                        shared = True
                        author = share(author, author)
                        mentioned = [share(m, m) for m in mentioned]
                        reply_to = reply_to and share(reply_to, reply_to)
                        quoted = quoted and share(quoted, quoted)
                    matched[i] += 1
                    for m in mentioned:
                        mentions[i][author, m] = None
                    if reply_to is not None:
                        replies[i][author, reply_to] = None
                    if quoted is not None:
                        quotes[i][author, quoted] = None
        return edges

    return match


_record_fields = operator.attrgetter("author", "text", "mentioned", "reply_to_author", "quoted_author")


def build_corpus(records: list[InteractionRecord], terms: list[str]) -> list[TermNetworkSet]:
    """One TermNetworkSet per term, input order preserved.

    No term may equal another one under re.IGNORECASE; a record matching
    several terms contributes to each of them.  A record matches a term when
    the term's pattern (`_term_pattern`) finds it in the text.  The records
    are read once: each text is split into tokens, the tokens' keys look up
    the terms whose first token has the same key, and only those terms'
    patterns run.  A term's first token always lines up with one whole token
    of any text it matches, so the lookup skips only terms that cannot match.

    Memory beyond `records` grows with the distinct (author, target) pairs
    of each term, not with the matching records: no record is kept.
    """
    return _matcher(terms)(map(_record_fields, records)).networks()


_REPORTED_FAILURES = 20  # the malformed lines `read_corpus` lists; the rest are only counted


_PART_BYTES = 1 << 20  # the least bytes of a part: a plain records file is read in size // _PART_BYTES parts or fewer


def _part_bounds(fh) -> list[int]:
    """Offsets [0, ..., size] that split the open binary file `fh` into parts of about equal size.

    There are at most min(usable cores, size // _PART_BYTES) parts, and at
    least one.  Each cut falls just after an LF byte, so every part starts a
    line and no CRLF pair is split; a file with no LF to cut at is one part.
    """
    size = os.fstat(fh.fileno()).st_size
    parts = min(usable_cores(), size // _PART_BYTES)
    bounds = [0]
    for k in range(1, parts):
        at = max(size * k // parts - 1, bounds[-1])
        fh.seek(at)
        while chunk := fh.read(1 << 16):
            lf = chunk.find(b"\n")
            if lf >= 0:
                break
            at += len(chunk)
        else:
            break  # no LF after `at`
        if at + lf + 1 == size:
            break
        bounds.append(at + lf + 1)
    bounds.append(size)
    return bounds


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of the file open at descriptor `fd`, read with os.pread: no shared offset moves."""

    def __init__(self, fd: int, start: int, end: int):
        self.fd, self.pos, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.end - self.pos), self.pos)
        buffer[: len(data)] = data
        self.pos += len(data)
        return len(data)

    def tell(self) -> int:
        return self.pos  # in the file, so open_text keeps a BOM past offset 0 and names a bad byte's file offset


def _read_part(open_lines, match, window_from, window_to) -> tuple[_TermEdges, _RecordStream]:
    """`match` over the records of the text lines `open_lines()` opens, and the stream that read them."""
    with open_lines() as lines:
        records = _RecordStream(lines, window_from, window_to, keep_failures=_REPORTED_FAILURES)
        return match(records), records


def _part_pieces(part: tuple[_TermEdges, _RecordStream]) -> Iterator:
    """The pieces in which a forked reader sends the result of `_read_part`.

    First the part's (matched counts, failures, malformed count, non-blank
    count, line count), then, per term and interaction in `_TermEdges.kinds`
    order, the flat list [author1, target1, author2, target2, ...] of its
    pairs, so that the parent holds one of them at a time.
    """
    edges, records = part
    yield edges.matched, records.failures, records.malformed, records.nonblank, records.line_count
    for pairs in chain.from_iterable(edges.kinds):
        yield list(chain.from_iterable(pairs))


def _read_parts(openers, match, window_from, window_to) -> tuple[_TermEdges, list[tuple[int, str]], int, int]:
    """`_read_part` of each opener of `openers`, the consecutive parts of one records file, merged in file order.

    The parts are read through `fork_map`: this process reads the first,
    and forked children most others; a single part is read here, with no
    child.  Returns the merged edges, the failures with their line numbers
    in the file (the first `_REPORTED_FAILURES` of each part), and the
    malformed and non-blank line counts of the file.  The first part that
    raises, in file order, decides what this raises (a bad byte: open_text's).
    """
    read = functools.partial(_read_part, match=match, window_from=window_from, window_to=window_to)
    with fork_map(read, openers, _part_pieces) as parts:
        edges, records = next(parts)  # the first part, read in this process
        failures, malformed = records.failures, records.malformed
        nonblank, line_count = records.nonblank, records.line_count
        share = edges.handles.setdefault
        for part in parts:
            if isinstance(part, tuple):  # a later part this process read
                part = _part_pieces(part)
            matched, part_failures, part_malformed, part_nonblank, part_lines = next(part)
            edges.matched[:] = map(operator.add, edges.matched, matched)
            failures += [(lineno + line_count, reason) for lineno, reason in part_failures]
            malformed += part_malformed
            nonblank += part_nonblank
            line_count += part_lines
            for pairs, flat in zip(chain.from_iterable(edges.kinds), part):
                handles = map(share, flat, flat)  # a pair `pairs` holds keeps its place: keys stay in first order
                pairs.update(zip(zip(handles, handles), repeat(None)))
    return edges, failures, malformed, nonblank


def read_corpus(
    path, terms: list[str], window_from: datetime | None = None, window_to: datetime | None = None
) -> tuple[list[TermNetworkSet], list[tuple[int, str]], int]:
    """build_corpus over read_records_file's records, without holding them.

    Returns the networks, the first 20 malformed lines as (line number,
    reason) and the count of all of them.  Each line is decoded by the C
    JSON scanner, checked, windowed and matched as it is read, so peak
    memory grows with the distinct edges and the distinct handles of the
    matching records, not with the records.  The terms are checked before
    the file is read.

    Every input is a list of parts read by `_read_parts` through `fork_map`,
    so call this from a single-threaded process: a plain file is one byte
    range of whole lines per usable core, each at least `_PART_BYTES`
    (`_part_bounds`); a .gz file, a path that is not a regular file (a pipe)
    and any file where the platform has no os.pread are one part, read here
    by open_text.  The result, line numbers included, is the same at any
    part count, and the 10 % rule is applied once, to the whole file's
    counts.  A non-UTF-8 byte is open_text's error, also the same at any part count.
    """
    # _matcher, not build_corpus: perfbench/spans.py wraps build_corpus and takes len() of its records
    match = _matcher(terms)
    # a gzip stream or a pipe cannot be split, and a byte range is read with os.pread
    if str(path).endswith(".gz") or not os.path.isfile(path) or not hasattr(os, "pread"):
        edges, failures, malformed, nonblank = _read_parts([_whole_file(path)], match, window_from, window_to)
    else:
        with open(path, "rb") as fh:
            bounds = _part_bounds(fh)
            parts = [functools.partial(open_text, path, _ByteRange(fh.fileno(), *span)) for span in pairwise(bounds)]
            edges, failures, malformed, nonblank = _read_parts(parts, match, window_from, window_to)
    try:
        _check_malformed(malformed, nonblank, failures)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return edges.networks(), failures[:_REPORTED_FAILURES], malformed


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
