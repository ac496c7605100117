"""The array-speed LIBSVM parser against the token loop it replaced.

``reference_parse_libsvm`` is that loop, kept here as the reference: over
valid texts and malformed mutations of them, ``parse_libsvm`` must agree with
it on accept or reject, on ``ParseError.line`` and on the design, bit for bit.
The inputs the two read differently on purpose are asserted one by one."""

import io
import math
import tracemalloc
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaprox import harness
from adaprox.core import UsageError
from adaprox.harness import ParseError, parse_libsvm, write_libsvm
from adaprox.problems import SparseDesign

_LABEL_MAP = {"1": 1.0, "+1": 1.0, "0": 0.0, "-1": 0.0}


def reference_parse_libsvm(source, n: Optional[int] = None) -> SparseDesign:
    """The per-token parse that parse_libsvm replaced."""
    lines = source.splitlines() if isinstance(source, str) else source
    indptr, indices, data, labels = [0], [], [], []
    n_max = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] not in _LABEL_MAP:
            raise ParseError(f"unknown label {tokens[0]!r}", lineno)
        labels.append(_LABEL_MAP[tokens[0]])
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"malformed token {tok!r}", lineno) from None
            if idx < 1:
                raise ParseError(f"index {idx} must be >= 1", lineno)
            if idx <= prev_idx:
                raise ParseError("indices must be strictly increasing", lineno)
            if not math.isfinite(val):
                raise ParseError(f"non-finite value in {tok!r}", lineno)
            indices.append(idx - 1)
            data.append(val)
            prev_idx = idx
        if n is not None and prev_idx > n:
            raise ParseError(f"index {prev_idx} exceeds n = {n}", lineno)
        n_max = max(n_max, prev_idx)
        indptr.append(len(indices))
    if not labels:
        raise UsageError("empty dataset")
    return SparseDesign(m=len(labels), n=max(n_max, 1) if n is None else n,
                        indptr=indptr, indices=indices, data=data, labels=labels)


def outcome(parse, source, n=None):
    """What a parse gives: the error line, or the design's shape and arrays
    as (dtype, bytes) pairs."""
    try:
        d = parse(source, n=n)
    except ParseError as exc:
        return ("ParseError", exc.line)
    except UsageError:
        return ("UsageError",)
    return ("ok", d.m, d.n) + tuple((a.dtype.str, a.tobytes())
                                    for a in (d.indptr, d.indices, d.data, d.labels))


def outcome_with_message(source, n=None):
    """parse_libsvm's outcome, with a ParseError's message too."""
    messages = []

    def parse(src, n):
        try:
            return parse_libsvm(src, n=n)
        except ParseError as exc:
            messages.append(str(exc))
            raise

    return outcome(parse, source, n) + tuple(messages)


def outcomes_by_read(text, n=None):
    """The parse of ``text``, whether each call of its integer read answered,
    and the parse with the integer read switched off, each with its message."""
    answered, read_short = [], harness._read_short

    def spy(*args):
        pairs = read_short(*args)
        answered.append(pairs is not None)
        return pairs

    with mock.patch.object(harness, "_read_short", spy):
        fast = outcome_with_message(text, n)
    with mock.patch.object(harness, "_short_decimals", lambda *args: None):
        general = outcome_with_message(text, n)
    return fast, answered, general


def sources(text):
    """The same text as a str, an open file and a list of lines."""
    return [text, io.StringIO(text, newline=None), text.splitlines(keepends=True)]


# ---------------------------------------------------------------------------
# Differential test over generated texts

_EDGE_VALUES = [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e-320, -0.0, 0.0,
                0.1, 1e22, 9007199254740993.0]
values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(_EDGE_VALUES)).map(lambda v: format(v, ".17g"))


@st.composite
def boundary_decimals(draw):
    """Decimals of 14 to 17 characters, around the integer read's limit of
    15: an optional sign, digits and perhaps a point."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    point = draw(st.booleans())
    width = draw(st.integers(14, 17)) - len(sign) - point
    digits = draw(st.text("0123456789", min_size=width, max_size=width))
    at = draw(st.integers(0, width)) if point else width
    return sign + digits[:at] + "." * point + digits[at:]


# decimals without an exponent, most short enough for the integer read
short_values = st.one_of(
    st.tuples(st.floats(-1e6, 1e6), st.integers(0, 15)).map(lambda t: format(t[0], f".{t[1]}f")),
    boundary_decimals(),
    st.sampled_from(["-0.0000", "0.0000", "-0", "+0", "007", "-007.50", "0000.1000", "+.5", "5.",
                     "-.25", "999999999999999", "-99999999999999", "9999999999999999",
                     "0.0000000000001", "-.00000000000001", "123456789012345."]))
# other spellings both parsers read as the same number
value_spellings = st.one_of(values, short_values,
                            st.sampled_from(["+.5", "5.", "1E3", "-0", "007", "1e-400",
                                             "+1e+5", "0.000", "-.25e-3"]))
separators = st.sampled_from([" ", "\t", "  ", " \t "])
MUTATIONS = ("label", "index", "repeat", "decrease", "nonfinite", "token", "none")
BAD_TOKENS = ["3", "3:", ":5", "3:4:5", "3.0:1", "a:1", "3:x",
              "3:1.5.3", "3:.", "3:-", "3:+.", "3:1-2", "3:1.-2", "3:1e"]


@st.composite
def rows(draw):
    cols = sorted(draw(st.sets(st.integers(1, 40), max_size=8)))
    tokens = []
    for j in cols:
        idx = draw(st.sampled_from([str(j), str(j), f"+{j}", f"0{j}", f"{j:015d}", f"{j:016d}"]))
        tokens.append(f"{idx}:{draw(value_spellings)}")
    return [draw(st.sampled_from(sorted(_LABEL_MAP))), tokens]


@st.composite
def texts(draw):
    """A LIBSVM text, perhaps broken by one mutation, and the width to read it with."""
    body = draw(st.lists(rows(), min_size=1, max_size=8))
    where = draw(st.integers(0, len(body) - 1))
    label, tokens = body[where]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "label":
        body[where][0] = draw(st.sampled_from(["2", "x", "+2", "1.0", "--1", "+", "-", "1:1"]))
    elif kind == "index" and tokens:
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(["0", "-1", "-0", "+0", "-7"])) + ":1"
    elif kind == "repeat" and tokens:
        i = draw(st.integers(0, len(tokens) - 1))
        tokens.insert(i, tokens[i])
    elif kind == "decrease" and len(tokens) > 1:
        i = draw(st.integers(0, len(tokens) - 2))
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif kind == "nonfinite" and tokens:
        i = draw(st.integers(0, len(tokens) - 1))
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1e400000"]))
        tokens[i] = tokens[i].partition(":")[0] + ":" + bad
    elif kind == "token":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
    lines = []
    for label, tokens in body:
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["", "# comment", "  ", "#1 2:3"])))
        sep = draw(separators)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join([label] + tokens)
                     + draw(st.sampled_from(["", " ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end, end + end]))
    n = draw(st.one_of(st.none(), st.integers(1, 45)))
    return text, n


@settings(max_examples=200, deadline=None)
@given(case=texts())
def test_array_parser_agrees_with_token_loop(case):
    text, n = case
    expected = outcome(reference_parse_libsvm, text, n)
    for source in sources(text):
        assert outcome(parse_libsvm, source, n) == expected
    # the same with a block boundary every line or two
    with mock.patch.object(harness, "_BLOCK_CHARS", 24):
        assert outcome(parse_libsvm, text, n) == expected


@settings(max_examples=200, deadline=None)
@given(case=texts())
def test_integer_read_agrees_with_float_read(case):
    """Whatever the integer read answers, the float read answers too, with
    byte-equal arrays (so -0.0 counts) and the same error line and message."""
    text, n = case
    fast, _, general = outcomes_by_read(text, n)
    assert fast == general


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(sorted(_LABEL_MAP)),
                                st.lists(short_values, max_size=6)),
                      min_size=1, max_size=6),
       wide=st.booleans())
def test_integer_read_answers_short_decimals(lines, wide):
    """A block of short decimals is read by the integer read alone, with the
    float read's bytes; a value or index past 15 characters leaves the block
    to the float read."""
    pad = "0" * 15 if wide else ""
    text = "\n".join(" ".join([label] + [f"{pad}{j + 1}:{v}" for j, v in enumerate(values)])
                     for label, values in lines)
    fast, answered, general = outcomes_by_read(text)
    assert fast == general == outcome(reference_parse_libsvm, text)
    tokens = [t for _, values in lines for t in values]
    if tokens:
        assert answered == ([True] if not wide and max(map(len, tokens)) <= 15 else [])


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(["1", "0", "2"]),
                                st.lists(st.text("0123456789+-.eE:naifxy() \t", max_size=7),
                                         max_size=4)),
                      min_size=1, max_size=4),
       n=st.one_of(st.none(), st.integers(1, 9)))
def test_array_parser_agrees_on_arbitrary_tokens(lines, n):
    """Tokens of characters the grammar uses, in any order: the array parser
    accepts exactly what the token loop accepts, with the same numbers."""
    text = "\n".join(" ".join([label] + tokens) for label, tokens in lines)
    assert outcome(parse_libsvm, text, n) == outcome(reference_parse_libsvm, text, n)


# ---------------------------------------------------------------------------
# Fixed cases


@pytest.mark.parametrize("text, n, line", [
    ("1 3:1\n1 3:1 3:2\n", None, 2),
    ("1 3:1\n\n# c\n0 3:2 2:1\n", None, 4),
    ("1 1:1\n0 4:nan\n", None, 2),
    ("1 1:1\n0 0:1\n", None, 2),
    ("1 1:1\n0 1:1 5:1\n", 4, 2),
    ("1 1:1\n5 1:1\n", None, 2),
] + [(f"1 1:1\n0 2:1 {tok} 9:1\n", None, 2) for tok in BAD_TOKENS])
def test_error_line_matches_reference(text, n, line):
    for source in sources(text):
        assert outcome(parse_libsvm, source, n) == ("ParseError", line)
    assert outcome(reference_parse_libsvm, text, n) == ("ParseError", line)


def test_first_error_wins_across_blocks(monkeypatch):
    """A bad line in an early block is reported before any later one, of any kind."""
    monkeypatch.setattr(harness, "_BLOCK_CHARS", 16)
    good = ["1 1:0.5 2:0.25"] * 10
    for bad, late in [("1 2:1 1:1", "1 1:x"), ("1 1:x", "7 1:1"), ("1 1:nan", "1 1:1 1:1")]:
        lines = good[:3] + [bad] + good[3:] + [late]
        assert outcome(parse_libsvm, lines) == ("ParseError", 4)
        assert outcome(reference_parse_libsvm, lines) == ("ParseError", 4)
    lines = good + ["1 1:1 2:2"]
    assert outcome(parse_libsvm, lines) == outcome(reference_parse_libsvm, lines)


def test_source_kinds_agree(tmp_path):
    """CRLF endings, tab separators, a label-only line and a trailing blank
    line read the same from a str, an open file and a list of lines."""
    text = "1\t2:0.5\t7:-1.25\r\n0\r\n# c\r\n-1  1:3 \t4:1e-3\r\n+1 3:2\r\n\r\n"
    path = tmp_path / "d.libsvm"
    path.write_bytes(text.encode())
    with open(path) as fh:
        from_file = outcome(parse_libsvm, fh)
    assert from_file[0] == "ok" and from_file[1:3] == (4, 7)
    for source in sources(text):
        assert outcome(parse_libsvm, source) == from_file
    assert outcome(reference_parse_libsvm, text) == from_file
    bad = text.replace("4:1e-3", "4:1e-3 4:2")
    path.write_bytes(bad.encode())
    with open(path) as fh:
        assert outcome(parse_libsvm, fh) == ("ParseError", 4)
    for source in sources(bad):
        assert outcome(parse_libsvm, source) == ("ParseError", 4)


@pytest.mark.parametrize("source", [
    "1 1_0:1",                    # digit separators, which int() and float() take
    "1 1:1_0",
    "1 \u0661:1",                 # a non-ASCII digit
    "1 1:\u0661",
    "1 1:1\xa02:2",               # non-ASCII whitespace
    "1\u20031:1",
    ["1 1:1\x0b2:2"],             # whitespace other than space and tab inside a line
    ["1 1:1\x0c2:2"],
    ["1\x1c1:1"],
    ["1 1:1\x1f2:2"],
    ["1 1:1\r2:2"],               # a line break inside one list item
    ["1 1:1\n2:2"],
    "1 9007199254740993:1",       # an index not exact in float64
])
def test_deliberate_grammar_differences(source):
    """Inputs the token loop accepted and the array parser rejects on purpose
    (see the README); it rejects them at the line the difference is on."""
    assert outcome(reference_parse_libsvm, source)[0] == "ok"
    assert outcome(parse_libsvm, source) == ("ParseError", 1)


@pytest.mark.parametrize("text, n, message", [
    ("1 -0:1", None, "index must be >= 1 (entry -0:1.0)"),
    ("1 0:1", None, "index must be >= 1 (entry 0:1.0)"),
    ("1 +0:-0.0000", None, "index must be >= 1 (entry 0:-0.0)"),
    ("1 1:0.5 -3:1", None, "index must be >= 1 (entry -3:1.0)"),
    ("1 3:0.5 2:-.25", None, "indices must be strictly increasing (entry 2:-0.25)"),
    ("1 3:0.5 4:1e999", None, "non-finite value (entry 4:inf)"),
    ("1 000000000000003:7.", 2, "index exceeds n = 2 (entry 3:7.0)"),
])
def test_error_messages_match_across_reads(text, n, message):
    """A sign-led index goes to the float read, which keeps its sign in the
    message; both reads give the same message for the same entry."""
    with pytest.raises(ParseError) as exc:
        parse_libsvm(text, n=n)
    assert str(exc.value) == f"line 1: {message}"
    fast, _, general = outcomes_by_read(text, n)
    assert fast == general


def test_integer_read_is_exact_at_its_limits():
    """Clinger's fast path at the integer read's limits: 15-digit mantissas
    and indices, 14 digits after the point, and signed zeros."""
    values = ["999999999999999", "0.0000000000001", "-0.999999999999", "-0.0000", "+0",
              "123456789.12345", "0.1", "0.3", "-2.0000", "1.0000"]
    text = "1 " + " ".join(f"{j + 1}:{v}" for j, v in enumerate(values)) + " 999999999999999:-.5"
    fast, answered, general = outcomes_by_read(text)
    assert answered == [True] and fast == general
    d = parse_libsvm(text)
    assert d.data.tobytes() == np.array([float(v) for v in values] + [-0.5]).tobytes()
    assert d.indices[-1] == 999999999999998 and d.n == 999999999999999


@pytest.mark.parametrize("body", [" 1:0.5 2:-0.25", " 1:1e3 2:-0.5"])
def test_values_are_read_into_fresh_arrays(body):
    """Neither read returns a view of a block-sized buffer, which would stay
    alive until the last block is read."""
    _, _, val = harness._read_pairs([body])
    assert val.base is None


def test_largest_exact_index_is_read():
    d = parse_libsvm("1 9007199254740991:1")
    assert d.n == 2 ** 53 - 1 and d.indices.tolist() == [2 ** 53 - 2]


def parse_peak(path):
    """The design read from ``path`` and the parse's tracemalloc peak."""
    tracemalloc.start()
    try:
        with open(path) as fh:
            back = parse_libsvm(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return back, peak


def csr_bytes(design):
    return design.indptr.nbytes + design.indices.nbytes + design.data.nbytes


def test_parse_peak_memory_is_bounded_by_the_design(tmp_path):
    """Reading in blocks keeps the parse's working memory near the size of the
    design it returns; the token loop peaked at 5.2 times it on this input."""
    gen = np.random.default_rng(0)
    design = SparseDesign.from_dense(gen.standard_normal((2000, 50)),
                                     (gen.random(2000) < 0.5).astype(float))
    path = tmp_path / "dense.libsvm"
    with open(path, "w") as fh:
        write_libsvm(design, fh)
    back, peak = parse_peak(path)
    assert np.array_equal(back.data, design.data)
    assert peak < 3.5 * csr_bytes(back)


def test_parse_peak_memory_of_short_decimals_is_bounded_by_the_design(tmp_path):
    """The same bound for "%.4f" values, which the integer read takes."""
    gen = np.random.default_rng(0)
    ints = gen.integers(-20000, 20001, size=(2000, 50))
    path = tmp_path / "short.libsvm"
    path.write_text("".join("1 " + " ".join(f"{j + 1}:{k / 1e4:.4f}" for j, k in enumerate(row))
                            + "\n" for row in ints.tolist()))
    back, peak = parse_peak(path)
    assert back.data.tobytes() == (ints.ravel() / 1e4).tobytes()
    assert peak < 3.5 * csr_bytes(back)
