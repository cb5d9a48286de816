"""The vectorised LIBSVM parser against the literal token-by-token one.

``parse_libsvm`` reads regular text with numpy and hands anything else to
``_parse_libsvm_literal``. Both must give the same Dataset, or raise the
same DataError message, on every input.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from emtauc import data
from emtauc.data import DataError, Dataset, parse_libsvm, serialize_libsvm

from conftest import make_gaussian_dataset
from test_data import SAMPLE


def outcome(parse, text):
    try:
        return parse(text)
    except DataError as exc:
        return f"DataError: {exc}"


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
    st.sampled_from(["0", "-0"]),
)
indices = st.lists(
    st.one_of(st.integers(1, 60), st.integers(1, 10**15 - 1)), unique=True, max_size=8
).map(sorted)
separators = st.sampled_from([" ", "\t", "  ", " \t "])
edges = st.sampled_from(["", " ", "\t", " \t"])


@st.composite
def libsvm_text(draw):
    """Regular LIBSVM text: at least one instance, any mix of label forms,
    value forms, empty feature lists, blank lines, tabs and CRLF."""
    lines = []
    for i in range(draw(st.integers(1, 8))):
        if i and draw(st.integers(0, 3)) == 0:
            lines.append(draw(edges))
            continue
        tokens = [draw(st.sampled_from(["+1", "-1", "0", "2.5", "1e3"]))]
        tokens += [f"{j}:{draw(values)}" for j in draw(indices)]
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(separators) + token
        lines.append(draw(edges) + line + draw(edges))
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


@settings(max_examples=300, deadline=None)
@given(libsvm_text())
def test_fast_path_matches_the_literal_parser(text):
    literal = outcome(data._parse_libsvm_literal, text)
    assert outcome(parse_libsvm, text) == literal
    # regular text never needs the fallback
    assert outcome(data._parse_libsvm_fast, text) == literal


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
    # inputs test_data.py parses that the fast path declines
    SAMPLE,
    "inf 1:1\n-1 1:2\n1e400 1:3\n",
    "+1 9223372036854775807:1\n-1 1:1\n",
    "+1 1:0.5 4611686018427387904:1\n-1 1:0.1\n",
    # numbers Python reads and the fast path does not
    "1_0 1:1\n-1 1:2\n",
    "+1 1_0:1\n-1 1:2\n",
    "+1 1:1_0\n-1 1:2\n",
    "+1 1:0x1p3\n-1 1:1\n",
    "+1 \u0661:1\n-1 1:2\n",  # an Arabic-Indic digit, which int() reads
    "+1 +3:1\n-1 1:1\n",
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
    assert outcome(parse_libsvm, text) == outcome(data._parse_libsvm_literal, text)


def test_regular_input_never_reaches_the_literal_parser(monkeypatch):
    def refuse(source):
        raise AssertionError("the literal parser ran")

    monkeypatch.setattr(data, "_parse_libsvm_literal", refuse)
    ds = make_gaussian_dataset(5)
    assert parse_libsvm(serialize_libsvm(ds)) == ds
    # the dense "label j:value ..." layout of the benchmark's generated files
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 6))
    y = np.where(rng.random(40) < 0.4, 1, -1)
    row_fmt = "%s " + " ".join(f"{j + 1}:%r" for j in range(X.shape[1])) + "\n"
    text = "".join(row_fmt % ("+1" if label > 0 else "-1", *row.tolist()) for label, row in zip(y, X))
    assert parse_libsvm(text) == Dataset(sparse.csr_matrix(X), y)
