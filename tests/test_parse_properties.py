"""``parse_libsvm`` against the literal token-by-token oracle.

``parse_libsvm`` and ``parse_libsvm_path`` read text block by block with
one grammar and, when a block breaks it, run ``data._diagnose`` over that
block's lines to name the fault. They read numbers as integer mantissas
scaled by a power of ten, and re-read with ``float()`` only the tokens
that scaling cannot certify. ``_oracles.parse_libsvm_literal`` reads
the same language with Python's ``int`` and ``float``. All must give the
same Dataset, or raise the same DataError message, on every input.
"""
import builtins
import decimal
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from emtauc import data
from emtauc.data import DataError, Dataset, parse_libsvm, parse_libsvm_path, serialize_libsvm

from _oracles import parse_libsvm_literal
from conftest import make_gaussian_dataset
from test_data import SAMPLE


def outcome(parse, text):
    try:
        return parse(text)
    except DataError as exc:
        return f"DataError: {exc}"


def file_outcome(path):
    """``outcome`` of parsing the file at ``path``, its path prefix dropped
    from any error message."""
    result = outcome(parse_libsvm_path, path)
    return result.replace(f"DataError: {path}: ", "DataError: ", 1) if isinstance(result, str) else result


def refuse(block, lines_before):
    raise AssertionError("the diagnoser ran")


def midpoint(x: float, last_digit: int = 0) -> str:
    """The exact decimal halfway between ``x`` and the next double up, plus
    ``last_digit`` units in its last digit."""
    with decimal.localcontext(prec=2000):
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
        return str(mid + last_digit * Decimal(1).scaleb(mid.as_tuple().exponent))


finite = st.floats(allow_nan=False, allow_infinity=False)
signs = st.sampled_from(["", "-", "+"])
long_digits = st.text(alphabet="0123456789", min_size=20, max_size=30)
values = st.one_of(
    finite.map(repr),
    finite.map(lambda x: "%.17g" % x),
    # 20 to 30 significant digits, with the point anywhere
    st.tuples(signs, long_digits, st.integers(0, 30)).map(lambda t: f"{t[0]}{t[1][:t[2]]}.{t[1][t[2]:]}"),
    # the same in exponent form, from underflow to near the largest double
    st.tuples(signs, long_digits, st.sampled_from("eE"), st.integers(-340, 300)).map(
        lambda t: f"{t[0]}{t[1][0]}.{t[1][1:]}{t[2]}{t[3]}"
    ),
    # halfway between two doubles, where rounding goes to even, and one unit
    # of the last digit either side
    st.tuples(finite.filter(lambda x: x < np.finfo(np.float64).max), st.sampled_from([-1, 0, 1])).map(
        lambda t: midpoint(*t)
    ),
    st.sampled_from(["0", "-0", "+.5", "5.", "0005"]),
)
labels = st.sampled_from(
    ["+1", "-1", "0", "2.5", "1e3", "inf", "-inf", "Infinity", "-INFINITY", "1e400", "-1e400", "+.5", "7."]
)
indices = st.lists(
    st.one_of(
        st.integers(1, 60),
        st.integers(1, 10**15 - 1),
        # 16 to 19 digits: past what float64 holds exactly
        st.integers(10**15, 2**63 - 1),
    ),
    unique=True,
    max_size=8,
).map(sorted)
# every str.isspace() character except the line breaks \n and \r
spaces = st.sampled_from(
    [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2000", "\u2028", "\u2029", "\u3000"]
)
separators = st.one_of(
    st.sampled_from([" ", "\t", "  ", " \t "]), st.lists(spaces, min_size=1, max_size=3).map("".join)
)
edges = st.one_of(st.just(""), separators)
comments = st.text(alphabet=st.characters(blacklist_characters="\r\n"), max_size=12).map(lambda t: "#" + t)


@st.composite
def libsvm_text(draw):
    """Grammatical LIBSVM text: at least one instance, any mix of label
    forms, value forms, indices up to 2**63 - 1, empty feature lines, blank
    and comment lines, trailing comments, any in-line whitespace, and
    \\n, \\r\\n or \\r line ends."""
    lines = []
    for i in range(draw(st.integers(1, 8))):
        if i and draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.one_of(edges, comments)))
            continue
        tokens = [draw(labels)]
        tokens += [f"{j}:{draw(values)}" for j in draw(indices)]
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(separators) + token
        tail = draw(comments) if draw(st.integers(0, 4)) == 0 else ""
        lines.append(draw(edges) + line + draw(edges) + tail)
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


# characters a one-character edit inserts or substitutes
MUTATIONS = ":#_+-.eE\t\xa0\u0661\f 019infa\n\r"


@st.composite
def mutated_text(draw):
    """Grammatical text with one character inserted, deleted or replaced."""
    text = draw(libsvm_text())
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert":
        return text[:at] + draw(st.sampled_from(MUTATIONS)) + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from(MUTATIONS)) + text[at + 1:]


# block sizes from one line per block to the whole text in one
block_chars = st.sampled_from([1, 16, 64, data._BLOCK_SIZE])


@settings(max_examples=300, deadline=None)
@given(libsvm_text(), block_chars)
def test_fast_path_matches_the_literal_parser(text, chars):
    # grammatical text parses in one pass: the diagnoser never runs
    with mock.patch.object(data, "_diagnose", refuse), mock.patch.object(data, "_BLOCK_SIZE", chars):
        assert outcome(parse_libsvm, text) == outcome(parse_libsvm_literal, text)


@settings(max_examples=300, deadline=None)
@given(mutated_text(), block_chars)
def test_one_character_edits_match_the_literal_parser(text, chars):
    with mock.patch.object(data, "_BLOCK_SIZE", chars):
        assert outcome(parse_libsvm, text) == outcome(parse_libsvm_literal, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(libsvm_text(), mutated_text()), block_chars)
def test_files_and_bytes_match_the_literal_parser(tmp_path_factory, text, size):
    path = tmp_path_factory.getbasetemp() / "stream.svm"
    # UTF-8 has no surrogates, which the comment strategy can draw
    payload = text.encode("utf-8", "replace")
    text = payload.decode("utf-8")
    path.write_bytes(payload)
    with mock.patch.object(data, "_BLOCK_SIZE", size):
        assert file_outcome(path) == outcome(parse_libsvm, payload) == outcome(parse_libsvm_literal, text)


# each is read at every block size from one byte to the whole file, so that
# a read ends once at every position: inside a \r\n, right after a lone \r,
# inside a multi-byte UTF-8 character
BOUNDARY_FILES = [
    "+1 1:1 2:2\r\n-1 1:3\r\n+1 2:4\r\n",
    "+1 1:1 2:2\r-1 1:3\r\r+1 2:4\r",
    "# caf\u00e9 \u4e2d\n+1\u00a01:1\u30002:2\n-1 1:3 # \U0001f600\r\n",
    "+1 1:1\n-1 1:2",
    "",
    "# one\r# two\r\n\n",
    "+1 1:1\r-1 1:2\r\n+1 1:x\r",
]


@pytest.mark.parametrize("text", BOUNDARY_FILES)
def test_every_read_boundary_gives_the_same_result(tmp_path, text):
    path = tmp_path / "edge.svm"
    payload = text.encode("utf-8")
    path.write_bytes(payload)
    expected = outcome(parse_libsvm_literal, text)
    for size in range(1, len(payload) + 2):
        with mock.patch.object(data, "_BLOCK_SIZE", size):
            assert file_outcome(path) == outcome(parse_libsvm, payload) == outcome(parse_libsvm, text) == expected


INVALID_UTF8 = {
    b"+1 1:1\r\n-1 1:2\r\r+1 1:\xc3(\n": "line 4: input is not valid UTF-8 (byte 0xc3)",
    # a bad byte anywhere is reported ahead of a grammar fault on an earlier line
    b"+1 1:x\n" + b"-1 1:2\r\n+1 1:3\r" * 20 + b"# \xe2\x82\n": "line 42: input is not valid UTF-8 (byte 0xe2)",
    b"-1 1:2\n" * 30 + b"+1 1:1 \xff": "line 31: input is not valid UTF-8 (byte 0xff)",
}


@pytest.mark.parametrize("payload", INVALID_UTF8)
@pytest.mark.parametrize("size", [1, 7, 16, 64, data._BLOCK_SIZE])
def test_invalid_utf8_is_named_by_its_absolute_line(tmp_path, payload, size):
    path = tmp_path / "bad.svm"
    path.write_bytes(payload)
    with mock.patch.object(data, "_BLOCK_SIZE", size):
        assert file_outcome(path) == outcome(parse_libsvm, payload) == f"DataError: {INVALID_UTF8[payload]}"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_blocks_are_whole_lines_of_bounded_size(end):
    text = "".join(f"{i % 2 * 2 - 1} 1:{i}{end}" for i in range(400))
    for source in (text, text.encode()):
        for size in (16, 64, 1000):
            chunks = [source[i:i + size] for i in range(0, len(source), size)]
            blocks = list(data._line_blocks(chunks))
            assert source[:0].join(blocks) == source
            assert max(map(len, blocks)) < 2 * size
            texts = [block if isinstance(block, str) else block.decode() for block in blocks]
            assert all(t.endswith(("\n", "\r")) for t in texts[:-1])
            assert not any(a.endswith("\r") and b.startswith("\n") for a, b in zip(texts, texts[1:]))


def test_block_arrays_own_their_memory():
    # a view into the block's interleaved numbers would keep them all alive
    # until the Dataset is built
    breaks, *arrays = data._read_block("+1 1:1 2:2\n\n-1 3:0.5\n")
    assert breaks == 3
    assert all(a.flags.owndata and a.flags.c_contiguous for a in arrays)


def test_a_fault_in_the_last_block_is_diagnosed_from_that_block_alone(tmp_path, monkeypatch):
    # 200 lines ended by \n, \r\n and \r in turn, the last one faulty, read in
    # 64-byte blocks
    rows = [f"{'+1' if i % 2 else '-1'} 1:{i}.5 2:-{i}.25" for i in range(200)]
    rows[-1] += " 3:x"
    text = "".join(row + ("\n", "\r\n", "\r")[i % 3] for i, row in enumerate(rows))
    path = tmp_path / "late-fault.svm"
    path.write_bytes(text.encode())
    assert len(text) >= 50 * 64
    seen, diagnose = [], data._diagnose

    def spy(block, lines_before):
        seen.append((block, lines_before))
        return diagnose(block, lines_before)

    monkeypatch.setattr(data, "_diagnose", spy)
    monkeypatch.setattr(data, "_BLOCK_SIZE", 64)
    with pytest.raises(DataError) as exc:
        parse_libsvm_path(path)
    assert str(exc.value) == f"{path}: line 200: invalid feature value 'x'"
    [(block, lines_before)] = seen
    lines = text.replace("\r\n", "\n").replace("\r", "\n")
    assert lines.endswith(block) and len(block) < 2 * 64
    assert lines_before == lines[: len(lines) - len(block)].count("\n")
    assert lines_before >= 195


FALLBACK_INPUTS = [
    # the DataError inputs of test_data.py
    "+1 1:1.0\n-1 2:oops\n",
    "+1 0:1.0\n",
    "+1 1:1\n-1 1:1\n+1 2:1 2:3\n",
    "+1 3:1.0 2:1.0\n-1 1:1.0\n",
    "+1 1:1.0\n-1 1:inf\n",
    "nan 1:1\n-1 1:2\n+1 1:3\n",
    "-1 1:1.0\n+1 1:0.5 9223372036854775808:1\n",
    "+1 1:1.0\n+1 1:2.0\n",
    "+1 1:x\n",
    # inputs test_data.py parses with comments, inf labels or long indices
    SAMPLE,
    "inf 1:1\n-1 1:2\n1e400 1:3\n",
    "+1 9223372036854775807:1\n-1 1:1\n",
    "+1 1:0.5 4611686018427387904:1\n-1 1:0.1\n",
    # numbers outside the grammar, and indices past float64's exact range
    "+1 1:0x1p3\n-1 1:1\n",
    "+1 1000000000000000:1\n-1 1:1\n",
    "+1 9007199254740993:1\n-1 1:1\n",  # 2**53 + 1 has no float64
    "+1 1:infinity\n-1 1:1\n",
    "+1 1:1e400\n-1 1:1\n",
    "-1 1:-1e400\n+1 1:1\n",
    # malformed tokens
    "+1 1:2:3\n-1 1:1\n",
    "+1 1:\n-1 1:1\n",
    "+1 :1\n-1 1:1\n",
    "+1 1\n-1 1:1\n",
    "1:2 3:4\n-1 1:1\n",
    "1e 1:1\n-1 1:1\n",
    "+1 1:1-2\n-1 1:1\n",
    "+1 1:1.2.3\n-1 1:1\n",
    "+1 1:.\n-1 1:1\n",
    "+1 1:1e\n-1 1:1\n",
    "+1 1:1 # comment\n-1 1:2\n",
    # Unicode whitespace, which str.split() splits on
    "+1\xa01:1 2:2\n-1 1:2\n",
    "+1 1:1\u30002:2\n-1 1:2\n",
    "+1 1:1\x1f2:2\n-1 1:2\n",
    # no instances
    "",
    "\n \t\n",
]


@pytest.mark.parametrize("text", FALLBACK_INPUTS)
def test_fallback_inputs_match_the_literal_parser(text):
    assert outcome(parse_libsvm, text) == outcome(parse_libsvm_literal, text)


# numbers Python's int() or float() reads that the LIBSVM grammar does not: each is
# a DataError, which the command line reports with exit 3
PYTHON_ONLY_INPUTS = {
    "1_0 1:1\n-1 1:2\n": "line 1: invalid label '1_0'",
    "+1 1_0:1\n-1 1:2\n": "line 1: invalid feature index '1_0'",
    "+1 1:1_0\n-1 1:2\n": "line 1: invalid feature value '1_0'",
    "+1 \u0661:1\n-1 1:2\n": "line 1: invalid feature index '\u0661'",  # an Arabic-Indic digit
    "+1 +3:1\n-1 1:1\n": "line 1: invalid feature index '+3'",
    "-1 1:1\n+1 -3:1\n": "line 2: invalid feature index '-3'",
    "-1 1:1\n\u0661 1:1\n": "line 2: invalid label '\u0661'",
    "-1 1:1\n+1 1:\u0661\n": "line 2: invalid feature value '\u0661'",
}


@pytest.mark.parametrize("text", PYTHON_ONLY_INPUTS)
def test_python_only_numbers_are_data_errors(text):
    message = PYTHON_ONLY_INPUTS[text]
    with pytest.raises(DataError) as exc:
        parse_libsvm(text)
    assert str(exc.value) == message
    assert outcome(parse_libsvm_literal, text) == f"DataError: {message}"


# each ends a line for str.splitlines(), and is in-line whitespace here
IN_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", IN_LINE_BREAKS)
def test_only_lf_crlf_and_cr_end_a_line(char):
    text = f"# note{char}page 2\n+1 1:1{char}2:3\n-1 1:2\n"
    expected = Dataset(sparse.csr_matrix([[1.0, 3.0], [2.0, 0.0]]), [1, -1])
    assert parse_libsvm(text) == parse_libsvm_literal(text) == expected
    bad = f"+1 1:1{char}\n-1 1:x\n"
    expected = "DataError: line 2: invalid feature value 'x'"
    assert outcome(parse_libsvm, bad) == outcome(parse_libsvm_literal, bad) == expected


def test_valid_input_never_runs_the_diagnoser(monkeypatch):
    monkeypatch.setattr(data, "_diagnose", refuse)
    ds = make_gaussian_dataset(5)
    assert parse_libsvm(serialize_libsvm(ds)) == ds
    # the dense "label j:value ..." layout of the benchmark's generated files,
    # over several blocks, one of which holds only comments and blank lines
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 6))
    y = np.where(rng.random(40) < 0.4, 1, -1)
    row_fmt = "%s " + " ".join(f"{j + 1}:%r" for j in range(X.shape[1])) + "\n"
    rows = [row_fmt % ("+1" if label > 0 else "-1", *row.tolist()) for label, row in zip(y, X)]
    text = "# generated\n" + "".join(rows[:20]) + "# part 2\n \n" * 40 + "".join(rows[20:])
    with mock.patch.object(data, "_BLOCK_SIZE", 300):
        assert parse_libsvm(text) == Dataset(sparse.csr_matrix(X), y)
    assert parse_libsvm(text.replace("\n", "\r\n").encode()) == Dataset(sparse.csr_matrix(X), y)


# Numbers at the edges of the integer pass's conversion paths: an exact
# product or quotient for mantissas up to 2**53 and powers 10**-22 to
# 10**22, a certified double-double product for powers 10**-250 to 10**250,
# and float() for the rest.
HALFWAY = [0.1, 1 / 3, 1.5, 2.0**-30, 1e-5, 123456.789, 1e22, 1e300, 2.0**-1022, 5e-324]
HALFWAY += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54 + 4, 2.0**60 + 2**8, 2.0**62 + 2**10]
CONVERSION_TOKENS = {
    "midpoints": [midpoint(x, d) for x in HALFWAY for d in (-1, 0, 1)],
    # decimals of up to 22 digits that lie nearest to halfway between two
    # doubles, from V. Paxson, "A Program for Testing IEEE Decimal-Binary
    # Conversion" (1991): a double-double product alone rounds several of
    # them the wrong way
    "near-midpoints": """5e125 69e267 999e-26 7861e-34 75569e-254 928609e-261 9210917e80 84863171e114
        653777767e273 5232604057e-298 27235667517e-109 653532977297e-123 3142213164987e-294
        46202199371337e-72 231010996856685e-73 9324754620109615e212 78459735791271921e49
        272104041512242479e200 6802601037806061975e198 20505426358836677347e-221
        836168422905420598437e-234 4891559871276714924261e222 9e-265 85e-37 623e100 3571e263
        81661e153 920657e-23 4603307e-24 87575437e-309 245540327e122 6138508291e96 83356057653e193
        619534293513e124 2335141086879e218 36167929443327e-159 609610927149051e-255
        3743626360493413e-165 94080055902682397e-242 899810892172646163e283
        7120190517612959703e120 25188282901709339043e-252 308984926168550152811e-52
        6372891218502368041059e64""".split(),
    "mantissas near 2**53 and 2**63": [
        *(str(2**53 + d) for d in range(-2, 4)),
        "9007199254740993.0", "0.9007199254740993", "90071992547409930e-1", "-9007199254740993",
        *(str(2**63 + d) for d in range(-3, 3)),
        "-9223372036854775808", "-9223372036854775809", "9223372036854775807.5",
        "92233720368547758070e-20", "99999999999999999999", "0.99999999999999999999", "1" * 20 + "e-5",
    ],
    "path limits": [
        "1e22", "1e23", "1e-22", "1e-23", "9007199254740992e22", "9007199254740993e22",
        "9007199254740992e-22", "9007199254740993e-22", "0." + "0" * 21 + "1", "0." + "0" * 22 + "1",
        "1e250", "1e251", "1e-250", "1e-251", "1.5e-249", "1.5e-250", "15e249", "15e250",
        "9223372036854775806e250", "9223372036854775806e-250", "9223372036854775806e-251",
        "0." + "0" * 249 + "7", "0." + "0" * 250 + "7", "7" + "0" * 250 + ".0",
        "1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999", "-0e-400",
    ],
    "normal range edges": [
        "2.2250738585072014e-308", "2.2250738585072011e-308", "2.225073858507201e-308",
        "2.2250738585072012e-308", "4.9406564584124654e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "-1.7976931348623157E+308", "1e-320", "-1e-310",
    ],
    "signed zeros": ["-0", "-0.0", "+0", "0", "-.0", "-0.", "-00.000", "-0e5", "+0.0E-3"],
}


def test_power_table_holds_the_double_double_bound():
    # data._double_double's error bound takes each 10**q in its table as
    # hi + lo + d with |d| <= 2**-106 * hi
    table = zip(range(data._SCALE_MIN, data._SCALE_MAX + 1), data._POW_HI.tolist(), data._POW_LO.tolist())
    for q, hi, lo in table:
        assert abs(Fraction(10) ** q - Fraction(hi) - Fraction(lo)) <= Fraction(hi) / 2**106


@pytest.mark.parametrize("group", CONVERSION_TOKENS)
def test_number_conversion_matches_the_literal_parser(group):
    tokens = CONVERSION_TOKENS[group]
    # each finite token as a value, and each token as a label
    finite_tokens = [t for t in tokens if np.isfinite(float(t))]
    values = "".join(f"{'+1' if i % 2 else '-1'} 1:{t} 2:0.5\n" for i, t in enumerate(finite_tokens))
    labels = "".join(f"{t} 1:{i + 1}\n" for i, t in enumerate(tokens)) + "+1 1:1\n-1 1:1\n"
    for text in (values, labels):
        expected = outcome(parse_libsvm_literal, text)
        assert isinstance(expected, Dataset)
        assert outcome(parse_libsvm, text) == expected


# inf, nan and exponent tokens between ordinary ones, valid and not
MIXED_INPUTS = [
    "inf 1:0.5 2:1e-5 3:-2.5E+3\n-Infinity 1:1.25 4:7e0\n+1 2:3.0e-7 5:.5\n",
    "-1 1:1e-5 2:0.25\nINF 1:0.5\n-inf 3:1E5 4:-0.125\ninfinity 1:2\n",
    "+1 1:0.5 2:1e-5\nnan 1:1\n-1 1:2\n",
    "+1 1:0.5 2:1e-5 3:nan 4:2\n-1 1:2\n",
    "+1 1:0.5 2:inf 3:1e-3\n-1 1:2\n",
    "-1 1:1.5 2:-Infinity\n+1 1:2\n",
    "+1 1:1e-5 2:1e400 3:0.5\n-1 1:2\n",
    "1e400 1:0.5 2:1e-400\n-1e400 1:2e-5\n",
]


@pytest.mark.parametrize("text", MIXED_INPUTS)
def test_special_and_exponent_tokens_between_ordinary_ones(text):
    for chars in (16, data._BLOCK_SIZE):
        with mock.patch.object(data, "_BLOCK_SIZE", chars):
            assert outcome(parse_libsvm, text) == outcome(parse_libsvm_literal, text)


def test_the_benchmark_layout_is_read_without_float(monkeypatch):
    # every value of the dense "label j:repr(value)" layout of the
    # benchmark's generated files, over several blocks, is certified by the
    # integer pass: float() re-reads no token
    calls = []

    def spy(token):
        calls.append(token)
        return builtins.float(token)

    monkeypatch.setattr(data, "float", spy, raising=False)
    rng = np.random.default_rng(7)
    X = rng.normal(loc=rng.normal(size=50), size=(1000, 50))
    y = np.where(rng.random(1000) < 0.4, 1, -1)
    row_fmt = "%s " + " ".join(f"{j + 1}:%r" for j in range(X.shape[1])) + "\n"
    text = "".join(row_fmt % ("+1" if label > 0 else "-1", *row) for label, row in zip(y, X.tolist()))
    assert len(text) > data._BLOCK_SIZE
    assert parse_libsvm(text) == Dataset(sparse.csr_matrix(X), y)
    assert calls == []
    # the spy does see a token that needs float(): 25 digits saturate int64
    assert parse_libsvm("+1 1:0.1000000000000000055511151231\n-1 1:1\n").X[0, 0] == 0.1
    assert calls == [b"0.1000000000000000055511151231"]
