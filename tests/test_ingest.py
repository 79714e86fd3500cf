import contextlib
import dataclasses
import functools
import gzip
import json
import os
import re
import string
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termnet import forked, ingest
from termnet.manifest import InputError
from termnet.ingest import (
    _KEYS,
    _SPLIT_KEYS,
    _TOKEN,
    _KeyTable,
    _RecordStream,
    _loads,
    _matcher,
    _part_bounds,
    _token_keys,
    InteractionKind,
    InteractionRecord,
    build_corpus,
    parse_records,
    parse_timestamp,
    read_corpus,
    read_records_file,
    read_terms_file,
)

import oracles
from oracles import assert_no_child_is_left, term_matches


GOOD_LINE = '{"post_id":"1","author":"a","text":"hi @b","mentioned":["b"],"timestamp":"2020-11-09T00:00:00Z"}'


def make_record(**kw):
    obj = {
        "post_id": "1",
        "author": "a",
        "text": "x",
        "timestamp": "2020-11-09T12:00:00Z",
    }
    obj.update(kw)
    return json.dumps(obj)


def test_parse_single_record():
    result = parse_records(GOOD_LINE)
    assert result.failures == []
    (rec,) = result.records
    assert rec.text == "hi @b"
    assert rec.author == "a"
    assert rec.mentioned == ("b",)
    assert rec.reply_to_author is None
    assert rec.quoted_author is None


def test_parse_empty_stream():
    assert parse_records("") == parse_records([]) == parse_records("\n \n")
    assert parse_records("").records == []
    assert parse_records("").failures == []


def test_parse_reports_bad_line_with_number():
    # 1 malformed line of 10 is within the 10 % limit
    text = GOOD_LINE + "\nnot json\n" + make_record(post_id="2") + "\n"
    text += "\n".join(make_record(post_id=str(i)) for i in range(3, 10))
    result = parse_records(text)
    assert len(result.records) == 9
    assert len(result.failures) == 1
    assert result.failures[0][0] == 2


def test_parse_hard_error_above_bad_fraction():
    text = "junk\njunk\n" + GOOD_LINE
    with pytest.raises(InputError):
        parse_records(text)  # 2/3 malformed > 10%


def test_parse_field_validation():
    cases = [
        make_record(author=""),
        make_record(post_id=""),
        json.dumps({"author": "a", "text": "x", "timestamp": "t"}),
        make_record(timestamp="yesterday"),
        make_record(mentioned="b"),
        make_record(reply_to_author=7),
        "[1,2,3]",
    ]
    padding = [make_record(text=f"good-{i}") for i in range(9 * len(cases))]  # keeps 7 bad lines at 10 %
    result = parse_records("\n".join(cases + padding))
    assert [r.text for r in result.records] == [f"good-{i}" for i in range(len(padding))]
    assert [lineno for lineno, _ in result.failures] == list(range(1, len(cases) + 1))


@pytest.mark.parametrize("space", ["\xa0", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2003", "\u2028", "\u3000"])
def test_a_line_of_non_json_whitespace_is_malformed(space):
    # str.strip() removes these, but JSON does not count them as whitespace
    good = [make_record(text=str(i)) for i in range(9)]
    result = parse_records("\n".join(good[:4] + [space, " \t\r"] + good[4:]))
    assert [r.text for r in result.records] == [str(i) for i in range(9)]
    assert [lineno for lineno, _ in result.failures] == [5]
    with pytest.raises(InputError, match="1 of 2 lines malformed"):
        parse_records(good[0] + "\n" + space + "\n \n")


def _decoded(decode, line):
    """What decode(line) gives: ("value", value), or the error's type and its message and position."""
    try:
        return "value", decode(line)
    except json.JSONDecodeError as exc:
        return type(exc), exc.msg, exc.pos
    except (RecursionError, ValueError) as exc:  # the errors the parser also counts as malformed lines
        return type(exc), str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
JSON_PADDING = st.text(" \t\r\n\xa0\x0c\ufeff", max_size=3)
JSON_LINES = st.one_of(
    st.tuples(JSON_PADDING, JSON_VALUES.map(json.dumps), JSON_PADDING, st.text('{}[]",:1.e-x ', max_size=2))
    .map("".join),
    st.text('{}[]",:0123456789.eE-+ntrufalse\\ \t\r\n\ufeff\xa0', max_size=16),
)


@settings(max_examples=500, deadline=None)
@given(JSON_LINES)
@example("\ufeff{}")  # a leading BOM
@example('{"a": \ufeff1}')  # a BOM inside the line
@example("{}\ufeff")
@example(' \t\r\n{"a": [1, 2.5, "x"]} \t\r\n')
@example("\xa0{}")  # padding that is not JSON whitespace
@example("{}\x0c")
@example("{} {}")  # trailing data
@example("1 2")
@example('"a"x')
@example("[" * 100_000 + "]" * 100_000)  # nesting past the recursion limit
@example("1" * 5_000)  # an int past Python's digit limit
@example("{}")
@example('"a bare string"')
@example("")
@example(" \t")
def test_loads_equals_json_loads(line):
    assert _decoded(_loads, line) == _decoded(json.loads, line)


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"post_id": "1", "author": "a', "invalid JSON: Unterminated string starting at column 28"),
        ('{"post_id": "1\t"}', "invalid JSON: Invalid control character at column 15"),
    ],
)
def test_a_json_message_that_ends_in_at_gets_its_column(line, reason):
    stream = _RecordStream(line)
    assert list(stream) == []
    assert stream.failures == [(1, reason)]


def test_records_outside_window_count_as_good_lines():
    # 1 malformed line and 9 valid records, only 1 of them inside the window
    lines = ["not json"] + [make_record(text=str(i), timestamp=f"2020-11-{10 + i:02d}T00:00:00Z") for i in range(9)]
    lo = parse_timestamp("2020-11-10T00:00:00Z")
    result = parse_records("\n".join(lines), lo, lo)
    assert [r.text for r in result.records] == ["0"]
    assert result.failures == [(1, "invalid JSON: Expecting value")]
    with pytest.raises(InputError, match="2 of 10 lines malformed"):
        parse_records("\n".join(["junk"] + lines[1:-1] + ["junk"]), lo, lo)


def test_parse_keeps_input_order():
    lines = [make_record(text=str(i)) for i in range(5)]
    result = parse_records("\n".join(lines))
    assert [r.text for r in result.records] == ["0", "1", "2", "3", "4"]


def test_parsed_record_keeps_only_what_the_networks_read():
    names = [f.name for f in dataclasses.fields(InteractionRecord)]
    assert names == ["author", "text", "mentioned", "reply_to_author", "quoted_author"]
    (rec,) = parse_records(GOOD_LINE).records
    assert not hasattr(rec, "__dict__")


def test_empty_handles_mean_none():
    line = make_record(text="topic", mentioned=["", "b", ""], reply_to_author="", quoted_author="")
    (rec,) = parse_records(line).records
    assert (rec.mentioned, rec.reply_to_author, rec.quoted_author) == (("b",), None, None)
    (nets,) = build_corpus([rec], ["topic"])
    mention = nets.graphs[InteractionKind.MENTION]
    assert {(mention.handle(u), mention.handle(v)) for u, v in mention.edges} == {("a", "b")}
    assert mention.handles == ("a", "b")
    assert nets.graphs[InteractionKind.REPLY].node_count == nets.graphs[InteractionKind.QUOTE_RETWEET].node_count == 0


def test_a_raw_lone_surrogate_in_a_str_line_is_malformed():
    # no JSON escape made it, but no UTF-8 edge file could hold it either
    obj = {"post_id": "1", "author": "a\ud800", "text": "x", "timestamp": "2020-11-09T12:00:00Z"}
    bad = json.dumps(obj, ensure_ascii=False)
    assert "\ud800" in bad and "\\u" not in bad
    good = [make_record(text=str(i)) for i in range(9)]
    result = parse_records([bad] + good)
    assert [r.text for r in result.records] == [str(i) for i in range(9)]
    ((lineno, reason),) = result.failures
    assert lineno == 1 and "surrogates not allowed" in reason


def test_an_escaped_backslash_before_u_is_a_good_record():
    line = make_record(author="C:\\users", text="C:\\ud800 is a path", mentioned=["\\u00e9"])
    assert "\\\\u" in line  # the raw line holds backslash, backslash, u
    result = parse_records(line)
    assert result.failures == []
    (rec,) = result.records
    assert (rec.author, rec.text, rec.mentioned) == ("C:\\users", "C:\\ud800 is a path", ("\\u00e9",))


_TARGETS = ('"mentioned": ["{}"]', '"reply_to_author": "{}"', '"quoted_author": "{}"')


def _peak_bytes_per_record(n, handle):
    """Peak traced bytes per record of parsing n lines shaped like the `hubs` records.

    Each line holds an author and one mention, reply or quote target, named by
    handle(i, 0) and handle(i, 1).  The lines are built before tracing starts,
    so only the parse is measured.
    """
    lines = [
        f'{{"author": "{handle(i, 0)}", {_TARGETS[i % 3].format(handle(i, 1))}, "post_id": "p{i:07d}", '
        f'"text": "topic take {i}", "timestamp": "2020-11-09T12:00:00Z"}}\n'
        for i in range(n)
    ]
    tracemalloc.start()
    try:
        result = parse_records(line for line in lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.records) == n and not result.failures
    return peak / n


# Peak bytes per record (tracemalloc, CPython 3.11) when every record holds its own copy of each handle
_UNSHARED_BYTES_PER_RECORD = 276


def test_a_stream_without_repeated_handles_costs_at_most_half_again():
    # No handle repeats, and each record holds its own fields: about 270 bytes a record here
    per_record = _peak_bytes_per_record(11_000, lambda i, k: f"{'ab'[k]}{i:07d}")
    assert per_record <= 1.55 * _UNSHARED_BYTES_PER_RECORD, per_record


def _networks_core_peak_bytes(n):
    """Peak traced bytes of building the networks from n generated lines, as `networks` does.

    Every 20th line is malformed; the others repeat 7 authors and 5 mention
    and 3 reply targets, so the distinct edges and handles stay few.  The
    lines come from a generator: nothing holds them but the parse.
    """

    def lines():
        for i in range(n):
            if i % 20 == 0:
                yield "junk\n"
                continue
            yield (
                f'{{"author": "u{i % 7}", "mentioned": ["u{i % 5}"], "reply_to_author": "u{i % 3}", '
                f'"post_id": "p{i}", "text": "topic take {i}", "timestamp": "2020-11-09T12:00:00Z"}}\n'
            )

    match = _matcher(["topic", "#other"])
    tracemalloc.start()
    try:
        records = _RecordStream(lines(), keep_failures=20)
        corpus = match(records).networks()
        failures, malformed = records.failures, records.malformed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (malformed, len(failures)) == (n // 20, 20)
    assert [ts.matched_records for ts in corpus] == [n - n // 20, 0]
    return peak


def test_networks_memory_does_not_grow_with_the_records():
    # about 10.5 KB at both sizes; holding the records (or every failure) costs about 150 bytes each
    small, large = _networks_core_peak_bytes(2_000), _networks_core_peak_bytes(8_000)
    assert large <= 1.25 * small, (small, large)


def _unmatched_stream_peak_bytes(n):
    """Peak traced bytes of `networks`' core over n records, each with a new author and mention, matching no term."""

    def lines():
        for i in range(n):
            yield (
                f'{{"author": "a{i:07d}", "mentioned": ["m{i:07d}"], "post_id": "p{i}", '
                f'"text": "nothing to see {i}", "timestamp": "2020-11-09T12:00:00Z"}}\n'
            )

    match = _matcher(["topic", "#other"])
    tracemalloc.start()
    try:
        records = _RecordStream(lines(), keep_failures=20)
        corpus = match(records).networks()
        failures, malformed = records.failures, records.malformed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (malformed, failures) == (0, [])
    assert [ts.matched_records for ts in corpus] == [0, 0]
    return peak


def test_handles_of_records_that_match_no_term_are_not_kept():
    # only a matching record's handles are shared, so a stream of new handles that matches nothing
    # keeps none of them; sharing every record's handles peaked at 1.6 MB and 6.5 MB here
    small, large = _unmatched_stream_peak_bytes(10_000), _unmatched_stream_peak_bytes(40_000)
    assert large <= 1.25 * small, (small, large)


def test_parse_timestamp_variants():
    assert parse_timestamp("2020-11-09T00:00:00Z") == parse_timestamp("2020-11-09T00:00:00+00:00")
    assert parse_timestamp("2020-11-09T01:00:00+01:00") == parse_timestamp("2020-11-09T00:00:00Z")
    # naive stamps are taken as UTC
    assert parse_timestamp("2020-11-09T00:00:00") == parse_timestamp("2020-11-09T00:00:00Z")
    with pytest.raises(InputError):
        parse_timestamp("not a time")


def test_read_records_gzip(tmp_path):
    path = tmp_path / "records.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(GOOD_LINE + "\n")
    result = read_records_file(path)
    assert len(result.records) == 1
    assert read_records_file(path, None, parse_timestamp("2020-11-08T23:59:59Z")).records == []


@pytest.mark.parametrize(
    "start, end", [("", "\n"), ("", "\r\n"), ("", "\r"), ("\ufeff", "\n")], ids=["LF", "CRLF", "CR", "BOM"]
)
def test_a_str_and_a_file_split_lines_alike(start, end, tmp_path):
    # a file is read without its leading BOM, and so is a str
    good = [make_record(text=str(i)) for i in range(9)]
    text = start + end.join(good[:3] + ["", " \t", "not json"] + good[3:]) + end
    path = tmp_path / "records.jsonl"
    path.write_bytes(text.encode())
    result = parse_records(text)
    assert result == read_records_file(path)
    assert [r.text for r in result.records] == [str(i) for i in range(9)]
    assert result.failures == [(6, "invalid JSON: Expecting value")]


def test_term_matches_hashtag():
    assert term_matches("Stop the #Scamdemic now", "#scamdemic")
    assert term_matches("#SCAMDEMIC", "#scamdemic")
    assert not term_matches("#scamdemic2021 rally", "#scamdemic")
    assert not term_matches("#scamdemic_v2", "#scamdemic")
    assert term_matches("end: #scamdemic.", "#scamdemic")
    assert term_matches("#scamdemic", "#scamdemic")
    # the trailing check is Unicode: a letter or digit of any script continues the tag
    assert not term_matches("#fooé", "#foo")
    assert not term_matches("#foo٣", "#foo")
    assert term_matches("#foo é", "#foo")
    assert term_matches("#foo-é", "#foo")


def test_term_matches_keyword():
    assert not term_matches("provaccine stance", "vaccine")
    assert term_matches("the vaccine works", "vaccine")
    assert term_matches("vaccine!", "vaccine")
    assert term_matches("anti-vaccine", "vaccine")
    assert not term_matches("vaccines", "vaccine")
    assert term_matches("the Great Reset plan", "great reset")
    # underscore delimits keywords (but not hashtags)
    assert term_matches("my_vaccine_story", "vaccine")
    # boundaries are Unicode letters and digits, not just ASCII ones
    assert not term_matches("naïve", "na")
    assert not term_matches("café", "caf")
    assert not term_matches("éna", "na")
    assert not term_matches("na٣", "na")
    assert term_matches("é na é", "na")
    assert term_matches("é-na_é", "na")


def test_term_matches_case_invariance():
    for text, term in [("The VACCINE", "vaccine"), ("the vaccine", "VACCINE")]:
        assert term_matches(text, term)
    with pytest.raises(InputError):
        term_matches("x", "")


def test_build_corpus_example():
    lines = [
        make_record(post_id="1", text="on topic", mentioned=["b", "c"], reply_to_author="b"),
    ]
    (nets,) = build_corpus(parse_records("\n".join(lines)).records, ["topic"])
    mention = nets.graphs[InteractionKind.MENTION]
    reply = nets.graphs[InteractionKind.REPLY]
    quote = nets.graphs[InteractionKind.QUOTE_RETWEET]
    assert {(mention.handle(u), mention.handle(v)) for u, v in mention.edges} == {("a", "b"), ("a", "c")}
    assert {(reply.handle(u), reply.handle(v)) for u, v in reply.edges} == {("a", "b")}
    assert quote.edge_count == 0
    assert nets.matched_records == 1


def test_build_corpus_dedups():
    lines = [
        make_record(post_id="1", text="topic a", mentioned=["b"]),
        make_record(post_id="2", text="topic b", mentioned=["b"]),
    ]
    (nets,) = build_corpus(parse_records("\n".join(lines)).records, ["topic"])
    assert nets.graphs[InteractionKind.MENTION].edge_count == 1
    assert nets.matched_records == 2


def test_build_corpus_no_match():
    (nets,) = build_corpus(parse_records(GOOD_LINE).records, ["absent"])
    assert nets.matched_records == 0
    assert all(g.node_count == 0 for g in nets.graphs.values())


def test_self_interactions_dropped():
    lines = [make_record(text="topic", mentioned=["a"], reply_to_author="a", quoted_author="a")]
    (nets,) = build_corpus(parse_records("\n".join(lines)).records, ["topic"])
    assert all(g.edge_count == 0 for g in nets.graphs.values())


def test_build_corpus_order_and_overlap():
    lines = [make_record(post_id="1", text="alpha beta", mentioned=["m"])]
    records = parse_records("\n".join(lines)).records
    corpus = build_corpus(records, ["beta", "alpha"])
    assert [ts.term for ts in corpus] == ["beta", "alpha"]
    # the record matches both terms and contributes to both networks
    assert all(ts.graphs[InteractionKind.MENTION].edge_count == 1 for ts in corpus)
    assert len(corpus) * 3 == 6


def test_build_corpus_rejects_duplicate_terms():
    with pytest.raises(InputError):
        build_corpus([], ["Tag", "tag"])


@pytest.mark.parametrize(
    "terms",
    [["stop", "ſtop"], ["#STOP", "#ſtop"], ["kin", "\u212ain"], ["ıs", "is"], ["İs", "is"], ["aι", "a\u0345"]],
)
def test_build_corpus_rejects_terms_ignorecase_equates(terms):
    with pytest.raises(InputError, match="duplicate term"):
        build_corpus([], terms)


def test_build_corpus_keeps_terms_ignorecase_tells_apart():
    terms = ["vax", "vax pass", "tag", "#tag", "ss", "ß"]
    assert [ts.term for ts in build_corpus([], terms)] == terms


def test_build_corpus_rejects_every_pair_the_pattern_equates():
    cased = _cased_characters()
    haystack = "".join(cased)
    for c in cased:
        for x in set(re.findall(re.escape(c), haystack, re.IGNORECASE)) - {c}:
            with pytest.raises(InputError, match="duplicate term"):
                build_corpus([], [c, x])


def test_build_corpus_rejects_empty_term():
    with pytest.raises(InputError):
        build_corpus([], ["tag", ""])


def test_edges_traceable_to_matching_records():
    lines = [
        make_record(post_id=str(i), text=f"topic {i}", mentioned=[f"m{i % 3}"], reply_to_author="r")
        for i in range(10)
    ]
    records = parse_records("\n".join(lines)).records
    (nets,) = build_corpus(records, ["topic"])
    matching = [r for r in records if term_matches(r.text, "topic")]
    allowed = {(r.author, m) for r in matching for m in r.mentioned}
    mention = nets.graphs[InteractionKind.MENTION]
    for u, v in mention.edges:
        assert (mention.handle(u), mention.handle(v)) in allowed
    handles = {mention.handle(i) for i in range(mention.node_count)}
    universe = {r.author for r in matching} | {m for r in matching for m in r.mentioned}
    assert handles <= universe


# ---------------------------------------------------------------- single-pass index


def assert_same_corpus(got, want):
    assert [ts.term for ts in got] == [ts.term for ts in want]
    for g, w in zip(got, want):
        assert g.matched_records == w.matched_records, g.term
        for kind in InteractionKind:
            assert g.graphs[kind].handles == w.graphs[kind].handles, (g.term, kind)
            assert g.graphs[kind].edges == w.graphs[kind].edges, (g.term, kind)


@functools.cache
def _cased_characters():
    """Every character with a case mapping, plus the lowercase forms of those.

    A character outside this set has no case mapping and is not the
    lowercase of one that has, so re.IGNORECASE compares it exactly.
    """
    chars = set()
    for cp in range(0x110000):
        if 0xD800 <= cp < 0xE000:
            continue
        c = chr(cp)
        if c.lower() != c or c.upper() != c:
            chars.add(c)
            chars.update(c.lower())
    return sorted(chars)


def test_token_keys_never_part_characters_the_pattern_equates():
    cased = _cased_characters()
    haystack = "".join(cased)
    alnum = re.compile(r"[^\W_]")
    split_keys = set()
    for c in cased:
        equal = re.findall(re.escape(c), haystack, re.IGNORECASE)
        assert c in equal
        # only letters and digits reach a token; those the pattern equates share a key
        assert len({x.translate(_KEYS) for x in equal if alnum.match(x)}) <= 1, c
        if len({alnum.match(x) is None for x in equal}) > 1:
            split_keys.update(x.translate(_KEYS) for x in equal)
    # the characters whose class mixes letters and non-letters are all listed
    assert split_keys == _SPLIT_KEYS
    # one key character per character, of the character's class, so the
    # tokens of a translated text are the translated tokens of the text
    for start in range(0, 0x110000, 0x10000):
        chars = "".join(chr(cp) for cp in range(start, start + 0x10000) if not 0xD800 <= cp < 0xE000)
        keys = chars.translate(_KeyTable())
        assert len(keys) == len(chars)
        assert [bool(alnum.match(k)) for k in keys] == [bool(alnum.match(c)) for c in chars]


def test_ascii_token_keys_equal_the_key_table():
    # an ASCII text takes the bytes.translate path, any other text the _KEYS path
    for c in range(128):
        char = chr(c)
        for text in (char, f"a{char}b", f"{char}Z9{char}{char}q", f"X{char}"):
            assert _token_keys(text) == _TOKEN.findall(text.translate(_KEYS)), (c, text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127)) | st.text(string.printable + "ſéİ\u0345ß"))
def test_token_keys_are_the_keys_of_the_tokens(text):
    assert _token_keys(text) == _TOKEN.findall(text.translate(_KEYS))


def test_build_corpus_unicode_case_folding():
    texts = ["ſtop now", "#Stop", "İs it", "ıs", "\u212ain", "µ here", "#ſTOP_x", "naïve na", "Straße"]
    records = [InteractionRecord(author="a", text=t, mentioned=("b",)) for t in texts]
    terms = ["stop", "#stop", "is", "kin", "μ", "na", "strasse"]
    corpus = build_corpus(records, terms)
    assert_same_corpus(corpus, oracles.scan_corpus(records, terms))
    assert [ts.matched_records for ts in corpus] == [3, 1, 2, 1, 1, 1, 0]


def test_build_corpus_term_split_by_combining_iota():
    # U+0345 is not a letter, yet IGNORECASE equates it with the letter iota
    texts = ["a\u0345", "aι b", "a\u0345b", "aιb", "aΙ"]
    records = [InteractionRecord(author="a", text=t, mentioned=("b",)) for t in texts]
    terms = ["aι", "a\u0345b"]
    corpus = build_corpus(records, terms)
    assert_same_corpus(corpus, oracles.scan_corpus(records, terms))
    assert [ts.matched_records for ts in corpus] == [3, 2]


ALPHABET = string.ascii_letters + string.digits + " -_#." + "éßſıİ\u212aµ" + "ι\u0345"
WORDS = ["vax", "VAX", "pass", "Pass", "tag", "me", "stop", "ſtop", "is", "İs", "ıs", "kin", "\u212ain", "µ", "ßa", "aι", "a\u0345"]
PROPERTY_TERMS = [
    "vax", "vax pass", "vax-pass", "#vax", "#vax_pass",  # one first token, prefixes of one another
    "tag", "#tag", "tag me", "#tag.me",
    "stop", "#is", "kin", "µ", "ßa", "aι",
    "--", "#", "#_",  # no alphanumeric token
]
HANDLES = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def property_records(draw):
    pieces = st.one_of(st.sampled_from(WORDS), st.text(ALPHABET, max_size=3))
    seps = st.sampled_from(["", " ", " ", "-", "_", "#", "."])
    records = []
    for _ in range(draw(st.integers(0, 12))):
        parts = draw(st.lists(st.tuples(seps, pieces), max_size=6))
        records.append(
            InteractionRecord(
                author=draw(HANDLES),
                text="".join(sep + word for sep, word in parts),
                mentioned=tuple(draw(st.lists(HANDLES, max_size=2))),
                reply_to_author=draw(st.none() | HANDLES),
                quoted_author=draw(st.none() | HANDLES),
            )
        )
    return records


@st.composite
def property_terms(draw):
    # build_corpus rejects a term IGNORECASE equates with another one
    terms = list(PROPERTY_TERMS)
    for term in draw(st.lists(st.text(ALPHABET, min_size=1, max_size=4), max_size=4)):
        if not any(re.fullmatch(re.escape(t), term, re.IGNORECASE) for t in terms):
            terms.append(term)
    return draw(st.permutations(terms))


@settings(max_examples=300, deadline=None)
@given(property_records(), property_terms())
@example([InteractionRecord("a", "VAX pass-tag #Tag.me_is #vax_PASS kin", ("b",), "c", "d")], PROPERTY_TERMS)  # ASCII
@example([InteractionRecord("a", "ſtop İs \u212ain µ ßa-aι #vax", ("b", "c"), "d")], PROPERTY_TERMS)  # not ASCII
def test_build_corpus_equals_per_term_scan(records, terms):
    assert_same_corpus(build_corpus(records, terms), oracles.scan_corpus(records, terms))


def test_read_terms_file(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("// comment\n\n#tag1\nkeyword one\n  #tag2  \n", encoding="utf-8")
    assert read_terms_file(path) == ["#tag1", "keyword one", "#tag2"]
    empty = tmp_path / "empty.txt"
    empty.write_text("// nothing\n")
    with pytest.raises(InputError):
        read_terms_file(empty)


def test_interaction_kind_names():
    assert [k.value for k in InteractionKind] == ["mention", "reply", "quote"]


CORPUS_TERMS = ["vax", "#vax", "vax pass", "tag"]
STAMPS = ["2020-11-08T23:00:00Z", "2020-11-09T12:00:00Z", "2020-11-10T00:30:00+01:00"]
BAD_LINES = ["junk", "{}", "[1]", make_record(timestamp="yesterday"), make_record(author=""), make_record(mentioned="b")]
GOOD_LINES = st.builds(
    lambda author, words, mentioned, reply, quoted, stamp: make_record(
        author=author, text=" ".join(words), mentioned=mentioned,
        reply_to_author=reply, quoted_author=quoted, timestamp=stamp,
    ),
    HANDLES,
    st.lists(st.sampled_from(["vax", "VAX", "#vax", "pass", "tag", "#tag", "other"]), max_size=4),
    st.lists(HANDLES | st.just(""), max_size=2),
    st.none() | st.just("") | HANDLES,
    st.none() | HANDLES,
    st.sampled_from(STAMPS),
)
BOUNDS = st.none() | st.sampled_from([parse_timestamp(stamp) for stamp in ["2020-11-09T00:00:00Z", STAMPS[1]]])


@st.composite
def records_file_lines(draw):
    """Good lines, repeated so that a file can hold more than 20 malformed lines within the limit.

    Malformed lines, up to one more than the 10 % rule allows, and two blank lines go in anywhere.
    """
    lines = draw(st.lists(GOOD_LINES, max_size=25)) * draw(st.integers(1, 10))
    bad = draw(st.integers(0, len(lines) // 9 + 1))
    for extra in draw(st.lists(st.sampled_from(BAD_LINES), min_size=bad, max_size=bad)) + ["", " \t"]:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines


@contextlib.contextmanager
def cut_into(parts: int, size: int):
    """Let `read_corpus` cut a plain file of `size` bytes into up to `parts` parts, as on a host of that many cores."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_PART_BYTES", max(1, size // parts))
        patch.setattr(os, "sched_getaffinity", lambda pid: range(parts))
        yield


def part_bounds(path) -> list[int]:
    with open(path, "rb") as fh:
        return _part_bounds(fh)


@settings(max_examples=60, deadline=None)
@given(
    records_file_lines(), BOUNDS, BOUNDS, st.booleans(), st.integers(1, 4), st.sampled_from(["\n", "\r\n", "\r"])
)
@example([make_record(text="vax pass", mentioned=["b"])] * 230 + ["junk"] * 23, None, None, False, 1, "\n")  # 23 of 253
@example([make_record(text="vax", mentioned=["b"])] * 9 + ["junk"] * 2, None, None, True, 1, "\n")  # 2 of 11: over the limit
@example([make_record(text="vax", mentioned=["b"])] * 9 + ["junk"] * 2, None, None, False, 3, "\n")  # over, in parts
def test_read_corpus_equals_build_corpus_over_read_records_file(lines, window_from, window_to, gz, parts, end):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("records.jsonl.gz" if gz else "records.jsonl")
        data = "".join(line + end for line in lines).encode()
        path.write_bytes(gzip.compress(data) if gz else data)
        try:
            parsed = read_records_file(path, window_from, window_to)
        except InputError as exc:  # the 10 % rule
            with cut_into(parts, len(data)), pytest.raises(InputError) as info:
                read_corpus(path, CORPUS_TERMS, window_from, window_to)
            assert str(info.value) == str(exc)
            return
        with cut_into(parts, len(data)):
            corpus, failures, malformed = read_corpus(path, CORPUS_TERMS, window_from, window_to)
    assert_same_corpus(corpus, build_corpus(parsed.records, CORPUS_TERMS))
    assert failures == parsed.failures[:20]
    assert malformed == len(parsed.failures)


def assert_read_in_parts_as_whole(path, parts: int) -> list[int]:
    """read_corpus of `path` in `parts` parts returns what build_corpus over read_records_file does; the bounds."""
    parsed = read_records_file(path)
    with cut_into(parts, path.stat().st_size):
        bounds = part_bounds(path)
        corpus, failures, malformed = read_corpus(path, CORPUS_TERMS)
    assert_same_corpus(corpus, build_corpus(parsed.records, CORPUS_TERMS))
    assert (failures, malformed) == (parsed.failures[:20], len(parsed.failures))
    return bounds


def test_a_part_over_the_limit_in_a_file_under_it_is_no_error(tmp_path):
    good = make_record(text="vax", mentioned=["b"])
    lines = [good] * 80 + ["junk", good, good] * 8  # 8 of 104 lines: the last part alone is over 10 %
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    bounds = assert_read_in_parts_as_whole(path, 2)
    assert len(bounds) == 3 and path.read_bytes()[bounds[1]:].count(b"junk") == 8


def test_a_failure_in_a_later_part_has_its_line_number_in_the_file(tmp_path):
    lines = [make_record(text="vax", mentioned=[f"u{i}"]) for i in range(60)]
    lines[50] = "junk"
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\r\n" for line in lines))
    bounds = assert_read_in_parts_as_whole(path, 3)
    assert len(bounds) == 4 and b"junk" in path.read_bytes()[bounds[2]:]
    with cut_into(3, path.stat().st_size):
        assert read_corpus(path, CORPUS_TERMS)[1] == [(51, "invalid JSON: Expecting value")]


def test_a_non_utf8_byte_in_the_last_part_is_the_error_of_a_whole_read(tmp_path):
    data = "".join(make_record(text=f"vax {i}") + "\n" for i in range(40)).encode()
    path = tmp_path / "records.jsonl"
    path.write_bytes(data[:-30] + b"\xff" + data[-29:])
    with pytest.raises(InputError, match="not UTF-8 text:") as whole:
        read_records_file(path)
    with cut_into(3, len(data)):
        assert len(part_bounds(path)) == 4
        with pytest.raises(InputError) as parts:
            read_corpus(path, CORPUS_TERMS)
    assert str(parts.value) == str(whole.value)


@pytest.mark.parametrize("parts", [1, 3])
def test_a_non_utf8_byte_is_reported_before_the_10_percent_rule(parts, tmp_path):
    # the first part alone, and the file, are over the limit; the last part holds a byte that is not UTF-8
    lines = ["junk"] * 20 + [make_record(text=f"vax {i}") for i in range(40)]
    data = "".join(line + "\n" for line in lines).encode()
    path = tmp_path / "records.jsonl"
    path.write_bytes(data[:-30] + b"\xff" + data[-29:])
    with pytest.raises(InputError, match="not UTF-8 text:") as whole:
        read_records_file(path)
    with cut_into(parts, len(data)):
        bounds = part_bounds(path)
        assert len(bounds) == parts + 1 and data[: bounds[1]].count(b"junk") == 20
        with pytest.raises(InputError) as read:
            read_corpus(path, CORPUS_TERMS)
    assert str(read.value) == str(whole.value)


# a bad start byte, a lone continuation byte, a sequence cut short, an encoded surrogate
NON_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]


def assert_bad_byte_named(tmp: Path, raw: bytes) -> str:
    """read_corpus of `raw` fails alike at 1, 2 and 4 parts and gzipped: the first byte that is not UTF-8,
    its offset in `raw` and the decoder's reason for it.  The error without its path."""
    try:
        raw.decode("utf-8")  # a BOM is UTF-8 too: the first bad byte of a whole decode
    except UnicodeDecodeError as exc:
        error = f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}: {exc.reason}"
    plain, gz = tmp / "records.jsonl", tmp / "records.jsonl.gz"
    plain.write_bytes(raw)
    gz.write_bytes(gzip.compress(raw))
    for parts in (1, 2, 4):
        with cut_into(parts, len(raw)), pytest.raises(InputError) as info:
            read_corpus(plain, CORPUS_TERMS)
        assert str(info.value) == f"{plain}: {error}"
    with pytest.raises(InputError) as info:
        read_corpus(gz, CORPUS_TERMS)
    assert str(info.value) == f"{gz}: {error}"
    return error


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.text(max_size=40), max_size=30), st.integers(1, 40), st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(), st.sampled_from(NON_UTF8), st.data(),
)
def test_a_non_utf8_byte_is_named_with_its_file_offset_at_any_part_count(lines, repeat, end, bom, bad, data):
    good = (("\ufeff" if bom else "") + "".join(line + end for line in lines * repeat)).encode()
    at = data.draw(st.integers(0, len(good)))
    with tempfile.TemporaryDirectory() as tmp:
        assert_bad_byte_named(Path(tmp), good[:at] + bad + good[at:])


def test_a_bad_byte_after_a_bom_is_named_with_its_file_offset(tmp_path):
    data = "\ufeff" + "".join(make_record(text=f"vax {i}") + "\n" for i in range(60))
    at = len(data.encode()) - 40
    error = assert_bad_byte_named(tmp_path, data.encode()[:at] + b"\xfe" + data.encode()[at:])
    assert error == f"not UTF-8 text: byte 0xfe at offset {at}: invalid start byte"


@pytest.mark.parametrize("bad", [b"", b"\xe2\x82"])
def test_a_bad_byte_past_a_character_across_a_chunk_edge_is_named_with_its_file_offset(tmp_path, bad):
    # the decoder reads 8 KiB chunks: a 3-byte character, or a sequence cut short, starts at 8191
    head = make_record(text="vax " + "x" * 8000)
    head += " " * (8190 - len(head)) + "\n"
    raw = head.encode() + (bad or "\u20ac".encode()) + b"\n" + make_record(text="vax").encode() + b"\n\xff\n"
    expected = 8191 if bad else len(raw) - 2
    error = assert_bad_byte_named(tmp_path, raw)
    assert error.startswith(f"not UTF-8 text: byte 0x{raw[expected]:02x} at offset {expected}: ")


def test_a_sequence_cut_short_at_the_end_of_the_file_is_named_with_its_offset(tmp_path):
    data = "".join(make_record(text=f"vax {i}") + "\n" for i in range(60)).encode()
    error = assert_bad_byte_named(tmp_path, data + b"\xe2\x82")
    assert error == f"not UTF-8 text: byte 0xe2 at offset {len(data)}: unexpected end of data"


def test_a_bad_byte_in_the_terms_file_is_named_with_its_offset(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_bytes(b"\xef\xbb\xbfvax\r\n#tag\r\nvax pass\xc3\r\n")
    with pytest.raises(InputError) as info:
        read_terms_file(path)
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0xc3 at offset 22: invalid continuation byte"


def test_a_pipe_with_a_bad_byte_is_an_input_error_without_an_offset(tmp_path):
    fifo = tmp_path / "fifo.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(make_record(text="vax").encode() + b"\n\xff\n",))
    writer.start()
    with pytest.raises(InputError) as info:
        read_corpus(fifo, CORPUS_TERMS)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert str(info.value) == f"{fifo}: not UTF-8 text: byte 0xff: invalid start byte"


@pytest.mark.parametrize("cut", [b"\xef", b"\xef\xbb"])
def test_a_bom_cut_short_is_a_bad_byte_at_offset_0(tmp_path, cut):
    # one or two bytes of a BOM and nothing after: a UTF-8 sequence cut short, not an empty file
    error = assert_bad_byte_named(tmp_path, cut)
    assert error == "not UTF-8 text: byte 0xef at offset 0: unexpected end of data"
    terms = tmp_path / "terms.txt"
    terms.write_bytes(cut)
    with pytest.raises(InputError) as info:
        read_terms_file(terms)
    assert str(info.value) == f"{terms}: {error}"
    fifo = tmp_path / "fifo.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(cut,))
    writer.start()
    with pytest.raises(InputError) as info:
        read_corpus(fifo, CORPUS_TERMS)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert str(info.value) == f"{fifo}: not UTF-8 text: byte 0xef: unexpected end of data"


def test_a_whole_bom_alone_is_empty_text(tmp_path):
    plain, gz, terms = tmp_path / "records.jsonl", tmp_path / "records.jsonl.gz", tmp_path / "terms.txt"
    plain.write_bytes(b"\xef\xbb\xbf")
    gz.write_bytes(gzip.compress(b"\xef\xbb\xbf"))
    for path in (plain, gz):
        result = read_records_file(path)
        assert (result.records, result.failures) == ([], [])
        assert read_corpus(path, CORPUS_TERMS)[1:] == ([], 0)
    terms.write_bytes(b"\xef\xbb\xbf")
    with pytest.raises(InputError, match="contains no terms"):
        read_terms_file(terms)


def test_a_bom_that_starts_a_later_part_is_a_malformed_line(tmp_path):
    lines = [make_record(text=f"vax {i:03d}") for i in range(40)]  # all of one length
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with cut_into(2, path.stat().st_size):
        bounds = part_bounds(path)
        at = len(lines) * bounds[1] // bounds[2]
        lines[at] = "\ufeff" + make_record(text=f"{at:04d}")  # as many bytes: the U+FEFF takes 3
        path.write_text("".join(line + "\n" for line in lines))
        assert part_bounds(path) == bounds
    assert_read_in_parts_as_whole(path, 2)
    assert read_records_file(path).failures == [(at + 1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")]


def test_a_cr_only_file_is_one_part(tmp_path):
    lines = [make_record(text="vax", mentioned=[f"u{i}"]) for i in range(40)]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\r" for line in lines), newline="")
    assert assert_read_in_parts_as_whole(path, 4) == [0, path.stat().st_size]


def test_a_pipe_is_read_whole(tmp_path):
    data = "".join(make_record(text="vax", mentioned=[f"u{i}"]) + "\n" for i in range(40))
    (tmp_path / "records.jsonl").write_text(data)
    fifo = tmp_path / "fifo.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(data,))
    writer.start()
    with cut_into(4, len(data)):
        corpus, failures, malformed = read_corpus(fifo, CORPUS_TERMS)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_corpus(corpus, build_corpus(read_records_file(tmp_path / "records.jsonl").records, CORPUS_TERMS))


def test_read_corpus_leaves_no_child_process(tmp_path):
    path = tmp_path / "records.jsonl"
    data = "".join(make_record(text="vax") + "\n" for i in range(40)).encode()
    path.write_bytes(data)
    with cut_into(4, len(data)):
        assert len(part_bounds(path)) == 5
        read_corpus(path, CORPUS_TERMS)
        assert_no_child_is_left()
        path.write_bytes(b"\xff" + data[1:])  # this process's own part fails, while the others are read
        with pytest.raises(InputError, match="not UTF-8 text:"):
            read_corpus(path, CORPUS_TERMS)
        assert_no_child_is_left()


def test_a_child_that_exits_without_its_result_fails_the_read(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    data = "".join(make_record(text="vax") + "\n" for i in range(40)).encode()
    path.write_bytes(data)
    monkeypatch.setattr(forked, "_send", lambda *args: os._exit(3))
    with cut_into(2, len(data)), pytest.raises(RuntimeError, match="exited with code 3"):
        read_corpus(path, CORPUS_TERMS)
    assert_no_child_is_left()
