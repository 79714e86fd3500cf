import functools
import gzip
import json
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termnet.ingest import (
    _KEYS,
    _SPLIT_KEYS,
    _KeyTable,
    IngestError,
    InteractionKind,
    InteractionRecord,
    build_corpus,
    parse_records,
    parse_timestamp,
    read_records_file,
    read_terms_file,
    term_matches,
)

import oracles


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
    assert rec.post_id == "1"
    assert rec.author == "a"
    assert rec.mentioned == ("b",)
    assert rec.reply_to_author is None
    assert rec.quoted_author is None


def test_parse_empty_stream():
    assert parse_records("") == parse_records(b"")
    assert parse_records("").records == []


def test_parse_reports_bad_line_with_number():
    text = GOOD_LINE + "\nnot json\n" + make_record(post_id="2") + "\n"
    result = parse_records(text, max_bad_fraction=0.5)
    assert len(result.records) == 2
    assert len(result.failures) == 1
    assert result.failures[0][0] == 2


def test_parse_hard_error_above_bad_fraction():
    text = "junk\njunk\n" + GOOD_LINE
    with pytest.raises(IngestError):
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
    result = parse_records("\n".join(cases), max_bad_fraction=1.0)
    assert result.records == []
    assert len(result.failures) == len(cases)


def test_parse_keeps_input_order():
    lines = [make_record(post_id=str(i)) for i in range(5)]
    result = parse_records("\n".join(lines))
    assert [r.post_id for r in result.records] == ["0", "1", "2", "3", "4"]


def test_parse_timestamp_variants():
    assert parse_timestamp("2020-11-09T00:00:00Z") == parse_timestamp("2020-11-09T00:00:00+00:00")
    assert parse_timestamp("2020-11-09T01:00:00+01:00") == parse_timestamp("2020-11-09T00:00:00Z")
    # naive stamps are taken as UTC
    assert parse_timestamp("2020-11-09T00:00:00") == parse_timestamp("2020-11-09T00:00:00Z")
    with pytest.raises(IngestError):
        parse_timestamp("not a time")


def test_read_records_gzip(tmp_path):
    path = tmp_path / "records.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(GOOD_LINE + "\n")
    result = read_records_file(path)
    assert len(result.records) == 1


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
    with pytest.raises(IngestError):
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
    with pytest.raises(IngestError):
        build_corpus([], ["Tag", "tag"])


@pytest.mark.parametrize(
    "terms",
    [["stop", "ſtop"], ["#STOP", "#ſtop"], ["kin", "\u212ain"], ["ıs", "is"], ["İs", "is"], ["aι", "a\u0345"]],
)
def test_build_corpus_rejects_terms_ignorecase_equates(terms):
    with pytest.raises(IngestError, match="duplicate term"):
        build_corpus([], terms)


def test_build_corpus_keeps_terms_ignorecase_tells_apart():
    terms = ["vax", "vax pass", "tag", "#tag", "ss", "ß"]
    assert [ts.term for ts in build_corpus([], terms)] == terms


def test_build_corpus_rejects_every_pair_the_pattern_equates():
    cased = _cased_characters()
    haystack = "".join(cased)
    for c in cased:
        for x in set(re.findall(re.escape(c), haystack, re.IGNORECASE)) - {c}:
            with pytest.raises(IngestError, match="duplicate term"):
                build_corpus([], [c, x])


def test_build_corpus_rejects_empty_term():
    with pytest.raises(IngestError):
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


def test_build_corpus_unicode_case_folding():
    texts = ["ſtop now", "#Stop", "İs it", "ıs", "\u212ain", "µ here", "#ſTOP_x", "naïve na", "Straße"]
    records = [InteractionRecord(post_id=str(i), author="a", text=t, mentioned=("b",)) for i, t in enumerate(texts)]
    terms = ["stop", "#stop", "is", "kin", "μ", "na", "strasse"]
    corpus = build_corpus(records, terms)
    assert_same_corpus(corpus, oracles.scan_corpus(records, terms))
    assert [ts.matched_records for ts in corpus] == [3, 1, 2, 1, 1, 1, 0]


def test_build_corpus_term_split_by_combining_iota():
    # U+0345 is not a letter, yet IGNORECASE equates it with the letter iota
    texts = ["a\u0345", "aι b", "a\u0345b", "aιb", "aΙ"]
    records = [InteractionRecord(post_id=str(i), author="a", text=t, mentioned=("b",)) for i, t in enumerate(texts)]
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
    for i in range(draw(st.integers(0, 12))):
        parts = draw(st.lists(st.tuples(seps, pieces), max_size=6))
        records.append(
            InteractionRecord(
                post_id=str(i),
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
def test_build_corpus_equals_per_term_scan(records, terms):
    assert_same_corpus(build_corpus(records, terms), oracles.scan_corpus(records, terms))


def test_read_terms_file(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("// comment\n\n#tag1\nkeyword one\n  #tag2  \n", encoding="utf-8")
    assert read_terms_file(path) == ["#tag1", "keyword one", "#tag2"]
    empty = tmp_path / "empty.txt"
    empty.write_text("// nothing\n")
    with pytest.raises(IngestError):
        read_terms_file(empty)


def test_interaction_kind_names():
    assert [k.value for k in InteractionKind] == ["mention", "reply", "quote"]
