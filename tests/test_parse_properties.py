"""``parse_libsvm`` against the literal token-by-token oracle.

``parse_libsvm`` and ``parse_libsvm_path`` read text block by block with
one grammar and, when a block breaks it, run ``data._diagnose`` over that
block's lines to name the fault. ``_oracles.parse_libsvm_literal`` reads
the same language with Python's ``int`` and ``float``. All must give the
same Dataset, or raise the same DataError message, on every input.
"""
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
