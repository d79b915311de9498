"""LIBSVM parsing, serialization round-trips, binarization, and splitting."""

import gzip
import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hozog import data_io
from hozog.data_io import (
    SparseDataset,
    _arrays,
    _dataset,
    binarize,
    load_libsvm,
    parse_libsvm,
    random_classification_dataset,
    serialize_libsvm,
    split_2_1_1,
)
from hozog.errors import InsufficientData, InvalidConfig, ParseError


class TestParse:
    def test_empty_input(self):
        assert len(parse_libsvm("")) == 0

    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n")
        assert len(ds) == 1
        assert ds.labels.tolist() == [1.0]
        assert ds.x.indices.tolist() == [0, 2] and ds.x.data.tolist() == [0.5, 2.0]
        assert ds.n_features == 3

    def test_label_only_row(self):
        ds = parse_libsvm("-1\n")
        assert ds.labels.tolist() == [-1.0] and ds.x.shape == (1, 0)

    def test_blank_lines_and_comments_ignored(self):
        text = "# full comment line\n\n1 1:1.0 # trailing comment\n\n"
        ds = parse_libsvm(text)
        assert len(ds) == 1
        assert ds.labels.tolist() == [1.0]
        assert ds.x.indices.tolist() == [0] and ds.x.data.tolist() == [1.0]

    def test_rows_in_file_order(self):
        ds = parse_libsvm("1 1:1\n2 1:2\n3 1:3\n")
        assert ds.labels.tolist() == [1.0, 2.0, 3.0]
        assert ds.x.data.tolist() == [1.0, 2.0, 3.0]

    def test_a_c_int_is_the_largest_index(self):
        assert parse_libsvm("1 2147483647:1.0\n").n_features == 2**31 - 1
        assert parse_libsvm("1 00000000000000001:1.0\n").n_features == 1

    def test_bad_value_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm("1 3:a\n")
        assert excinfo.value.line == 1
        assert "value" in excinfo.value.reason

    def test_line_numbers_point_at_the_offender(self):
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm("1 1:1.0\n1 1:1.0\nx 1:1.0\n")
        assert excinfo.value.line == 3


MALFORMED = [
    ("bad label", "abc 1:1.0"),
    ("label with colon", "1:2 1:1.0"),
    ("bad index", "1 x:1.0"),
    ("float index", "1 1.5:1.0"),
    ("signed index", "1 +2:1.0"),
    ("zero index", "1 0:1.0"),
    ("negative index", "1 -3:1.0"),
    ("bad value", "1 1:val"),
    ("empty value", "1 1:"),
    ("missing colon", "1 12"),
    ("extra colon", "1 1:2:3"),
    ("equal indices", "1 2:1.0 2:2.0"),
    ("decreasing indices", "1 5:1.0 3:2.0"),
    ("double space", "1  1:1.0"),
    ("nan label", "nan 1:1.0"),
]

# float() and int() take more than the grammar does: underscores, surrounding
# whitespace and non-ASCII digits.  (name, line, column of the bad token)
LOOSE_NUMBERS = [
    ("underscore in value", "1 1:1_0", 5),
    ("underscore in label", "1_0 1:1", 1),
    ("arabic-indic index", "1 \u0661:1.0", 3),
    ("fullwidth index", "1 \uff12:1.0", 3),
    ("superscript index", "1 \u00b2:1.0", 3),
    ("fullwidth value", "1 1:\uff12", 5),
    ("trailing tab", "1 1:1.0\t", 5),
    # an index must fit LIBSVM's C int, and int() refuses over 4300 digits
    ("index above a C int", "1 2147483648:1.0", 3),
    ("index of 20 digits", "1 1:1.0 99999999999999999999:1.0", 9),
    ("index of 5000 digits", "1 " + "9" * 5000 + ":1.0", 3),
]
MALFORMED += [(name, line) for name, line, _ in LOOSE_NUMBERS]


class TestMalformedLines:
    @pytest.mark.parametrize("name,line", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_rejected_with_line_number(self, name, line):
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm(f"1 1:1.0\n{line}\n")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("name,line,column", LOOSE_NUMBERS, ids=[m[0] for m in LOOSE_NUMBERS])
    def test_loose_number_rejected_at_its_column(self, name, line, column):
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm(f"{line}\n")
        assert (excinfo.value.line, excinfo.value.column) == (1, column)


@st.composite
def datasets(draw):
    finite = st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
    )
    n_rows = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n_rows):
        label = draw(finite)
        n_feats = draw(st.integers(min_value=0, max_value=6))
        indices = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=40),
                    min_size=n_feats,
                    max_size=n_feats,
                    unique=True,
                )
            )
        )
        feats = tuple((idx, draw(finite)) for idx in indices)
        rows.append((label, feats))
    return SparseDataset(rows=tuple(rows))


class TestRoundTrip:
    @given(datasets())
    @settings(max_examples=150)
    def test_serialize_then_parse_is_identity(self, ds):
        assert parse_libsvm(serialize_libsvm(ds)) == ds

    def test_gzip_load(self, tmp_path):
        ds = random_classification_dataset(20, 4, seed=0)
        path = tmp_path / "data.libsvm.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(serialize_libsvm(ds))
        assert load_libsvm(path) == ds

    def test_csr_shape_and_values(self):
        ds = parse_libsvm("1 1:0.5 3:2.0\n-1 2:1.0\n")
        mat = ds.x
        assert mat.shape == (2, 3)
        np.testing.assert_allclose(mat.toarray(), [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])


class TestRandomClassification:
    @pytest.mark.parametrize(
        "n_features, noise_flip",
        [(0, 0.0), (True, 0.0), (4, 1.5), (4, -0.1), (4, float("nan"))],
        ids=["no_features", "bool_features", "flip_above_one", "flip_below_zero", "flip_nan"],
    )
    def test_bad_sizes_are_config_errors(self, n_features, noise_flip):
        with pytest.raises(InvalidConfig):
            random_classification_dataset(10, n_features, seed=0, noise_flip=noise_flip)

    @pytest.mark.parametrize("n, n_classes", [(-1, 2), (2.5, 2), (10, 2.5), (10, True)])
    def test_counts_must_be_integers(self, n, n_classes):
        with pytest.raises(InvalidConfig):
            random_classification_dataset(n, 2, n_classes, seed=0)

    @pytest.mark.parametrize("noise_flip", [0.0, 0.5])
    def test_one_class_is_insufficient(self, noise_flip):
        with pytest.raises(InsufficientData):
            random_classification_dataset(10, 2, n_classes=1, seed=0, noise_flip=noise_flip)

    @pytest.mark.parametrize("n_classes", [2, 3, 7])
    def test_flip_draw_matches_a_per_row_loop(self, n_classes):
        # replay the stream: means, labels, features, the rows to flip, then one draw per row
        ds = random_classification_dataset(90, 3, n_classes, seed=8, noise_flip=0.4)
        rng = np.random.default_rng(8)
        rng.standard_normal((n_classes, 3))
        y = rng.integers(0, n_classes, size=90)
        rng.standard_normal((90, 3))
        for i in rng.choice(90, size=36, replace=False):
            y[i] = np.delete(np.arange(n_classes), y[i])[rng.integers(0, n_classes - 1)]
        np.testing.assert_array_equal(ds.labels, np.where(y == 1, 1.0, -1.0) if n_classes == 2 else y)

    def test_a_flip_of_one_relabels_every_row(self):
        clean = random_classification_dataset(30, 3, n_classes=3, seed=4)
        flipped = random_classification_dataset(30, 3, n_classes=3, seed=4, noise_flip=1.0)
        assert np.all(clean.labels != flipped.labels)


class TestBinarize:
    def test_two_classes(self):
        ds = parse_libsvm("0 1:1\n1 1:2\n0 1:3\n")
        out = binarize(ds, seed=0)
        labels = out.labels.tolist()
        assert set(labels) <= {-1.0, 1.0}
        assert labels[0] == labels[2] != labels[1]

    def test_ten_classes_split_five_five(self):
        rows = tuple((float(i % 10), ((1, 1.0),)) for i in range(50))
        out = binarize(SparseDataset(rows=rows), seed=3)
        labels = out.labels
        assert set(labels) == {-1.0, 1.0}
        # 5 classes of 5 rows each on both sides
        assert int((labels == 1.0).sum()) == 25

    def test_already_binary_codomain(self):
        ds = parse_libsvm("-1 1:1\n+1 1:2\n")
        out = binarize(ds, seed=1)
        assert set(out.labels.tolist()) == {-1.0, 1.0}

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientData):
            binarize(parse_libsvm("1 1:1\n1 1:2\n"), seed=0)


class TestSplit:
    def test_sizes_eight(self):
        ds = SparseDataset(rows=tuple((1.0, ((1, float(i)),)) for i in range(8)))
        train, val, test = split_2_1_1(ds, seed=0)
        assert (len(train), len(val), len(test)) == (4, 2, 2)

    def test_sizes_seven(self):
        ds = SparseDataset(rows=tuple((1.0, ((1, float(i)),)) for i in range(7)))
        train, val, test = split_2_1_1(ds, seed=0)
        assert (len(train), len(val), len(test)) == (3, 2, 2)

    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60)
    def test_partition_property(self, n, seed):
        rows = tuple((1.0, ((1, float(i)),)) for i in range(n))
        ds = SparseDataset(rows=rows)
        train, val, test = split_2_1_1(ds, seed=seed)
        assert len(train) + len(val) + len(test) == n
        values = sorted(np.concatenate([part.x.data for part in (train, val, test)]).tolist())
        assert values == [float(i) for i in range(n)]

    def test_too_small(self):
        ds = SparseDataset(rows=tuple((1.0, ((1, 1.0),)) for _ in range(3)))
        with pytest.raises(InsufficientData):
            split_2_1_1(ds, seed=0)


VALID_LINE = st.one_of(
    st.just("1 1:1.0"),
    st.just("-1.5 2:0.25 7:-3.0"),
    st.just("0"),
    st.just("2e3 1:1e-3"),
)


class TestGrammarProperty:
    @given(st.lists(st.sampled_from([m[1] for m in MALFORMED]), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_any_malformed_line_fails(self, bad_lines):
        text = "\n".join(["1 1:1.0"] + bad_lines)
        with pytest.raises(ParseError):
            parse_libsvm(text)

    @given(st.lists(VALID_LINE, min_size=0, max_size=8))
    @settings(max_examples=60)
    def test_valid_lines_accepted(self, lines):
        ds = parse_libsvm("\n".join(lines))
        assert len(ds) == len(lines)

    @given(st.lists(st.sampled_from("0123456789:.-+e_ \t\u00b2\u0661\uff12"), max_size=12))
    def test_only_ascii_numbers_without_underscores_parse(self, tokens):
        text = "".join(tokens)
        try:
            parse_libsvm(text)
        except ParseError:
            return
        assert text.isascii() and "_" not in text


@st.composite
def libsvm_rows(draw):
    """LIBSVM rows ``(label, ((index, value), ...))`` over 40 features, labels from a few classes."""
    values = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
    row = st.tuples(
        st.sampled_from([-1.0, 0.0, 1.0, 2.5, 7.0]),
        st.lists(st.integers(1, 40), unique=True, max_size=6).map(sorted),
    )
    return [(label, tuple((i, draw(values)) for i in idx)) for label, idx in draw(st.lists(row, max_size=12))]


# The parser as it was before its accept path, a token loop kept unchanged as
# the reference: every text parses to its dataset bit for bit, or fails with
# its ParseError at the same line and column, for the same reason.
def _parse_float(token: str, line_no: int, col: int, what: str) -> float:
    # float() also takes underscores, surrounding whitespace and non-ASCII digits
    try:
        if not token.isascii() or "_" in token or token.strip() != token:
            raise ValueError
        value = float(token)
    except ValueError:
        raise ParseError(line_no, col, f"{what} is not a number: {token!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(line_no, col, f"{what} is not finite: {token!r}")
    return value


def _parse_index(token: str, line_no: int, col: int) -> int:
    # An index must be a plain positive decimal integer of ASCII digits; '1.5',
    # '+2' or '²' are rejected even though int() variants could be coerced.
    if not (token.isascii() and token.isdigit()):
        raise ParseError(line_no, col, f"feature index is not an integer: {token!r}")
    try:
        idx = int(token)
    except ValueError:  # int() refuses a token of over 4300 digits
        idx = 2**31
    if not 0 < idx < 2**31:  # LIBSVM holds an index in a C int
        reason = "must be >= 1" if idx <= 0 else "above 2^31 - 1"
        raise ParseError(line_no, col, f"feature index {reason}: {token!r}")
    return idx


def token_loop_parse(stream) -> SparseDataset:
    """Parse LIBSVM-format text into a :class:`SparseDataset`.

    ``stream`` is an iterable of text lines (an open file, StringIO, or a
    list of strings).  Rows, and each row's entries, keep their file order.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    labels, values, indices, indptr = [], [], [], [0]
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        hash_pos = line.find("#")
        if hash_pos >= 0:
            # Comment removal may legitimately leave trailing padding.
            line = line[:hash_pos].rstrip(" ")
        if not line.strip():
            continue
        tokens = line.split(" ")
        col = 1
        label_tok = tokens[0]
        labels.append(_parse_float(label_tok, line_no, col, "label"))
        col += len(label_tok) + 1
        prev_idx = 0
        for tok in tokens[1:]:
            if tok == "":
                raise ParseError(line_no, col, "empty token (stray space)")
            if tok.count(":") != 1:
                raise ParseError(line_no, col, f"expected idx:val pair, got {tok!r}")
            idx_tok, val_tok = tok.split(":")
            idx = _parse_index(idx_tok, line_no, col)
            if idx <= prev_idx:
                raise ParseError(line_no, col, f"feature index {idx} not greater than {prev_idx}")
            values.append(_parse_float(val_tok, line_no, col + len(idx_tok) + 1, "feature value"))
            indices.append(idx - 1)
            prev_idx = idx
            col += len(tok) + 1
        indptr.append(len(values))
    return _dataset(*_arrays(labels, values, indices, indptr))


def bits(ds: SparseDataset) -> list:
    return [ds.x.shape] + [(a.dtype.str, a.tobytes()) for a in (ds.labels, ds.x.indptr, ds.x.indices, ds.x.data)]


def assert_parses_as_the_token_loop(text):
    """The token loop's ParseError for ``text`` (a string or a list of lines),
    which parse_libsvm raises too, or None."""
    try:
        want = token_loop_parse(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_libsvm(text)
        assert (got.value.line, got.value.column, got.value.reason) == (err.line, err.column, err.reason)
        return err
    assert bits(parse_libsvm(text)) == bits(want)
    return None


# what the mutations insert or put in place of what they cut
PIECES = [":", " ", "e", ".", "+", "-", "_", "\t", "\r", "#", "inf", "nan", "1e999", "0", "9" * 20, "\u00b2", "\u0661"]


@st.composite
def mutated_files(draw):
    """LIBSVM text of valid rows, then up to four insertions, deletions and replacements."""
    rows = draw(libsvm_rows())
    text = "".join(repr(y) + "".join(f" {i}:{v!r}" for i, v in feats) + "\n" for y, feats in rows)
    for _ in range(draw(st.integers(0, 4))):
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(["", *PIECES])) + text[at + cut:]
    return text


# (name, text, line, column): the first bad token in file order is named, be
# it refused by the line's shape, by float() or by a bulk check
FIRST_ERRORS = [
    ("label not a number", "1 1:1\nx 1:1\n1 1:1e999\n", 2, 1),
    ("label not a number to float", "1 1:1\n1e 1:1\n1 0:1\n", 2, 1),
    ("label not finite", "1 1:1\n1e999 1:1\n1 1:2:3\n", 2, 1),
    ("index not an integer", "1 1:1\n1 x:1\n1 2:1 1:1\n", 2, 3),
    ("index below one", "1 1:1\n1 0:1\n1 x:1\n", 2, 3),
    ("index above a C int", "1 1:1\n1 2147483648:1\n1 1:val\n", 2, 3),
    ("index of 20 digits", "1 1:1\n1 99999999999999999999:1\n1  1:1\n", 2, 3),
    ("index not greater", "1 1:1\n1 3:1 2:1\n1 1:1\n1 1:1\nx 1:1\n", 2, 7),
    ("index repeated", "1 1:1 1:1\n1 1:\n", 1, 7),
    ("value not a number", "1 1:1\n1 1:val\n1 1:nan\n", 2, 5),
    ("value not a number to float", "1 1:1\n1 1:--1\n1 1:1e999\n", 2, 5),
    ("value not finite", "1 1:1\n1 1:1e999\n1 1:2:3\n", 2, 5),
    ("empty value", "1 1:\n1e999\n", 1, 5),
    ("empty token", "1 1:1\n1  1:1\n1 0:1\n", 2, 3),
    ("missing colon", "1 12\n1 0:1\n", 1, 3),
    ("extra colon", "1 1:1\n1 1:2:3\n1 1:1e999\n", 2, 3),
]


class TestTokenLoopEquivalence:
    @pytest.mark.parametrize("chunk", [3, data_io._CHUNK_NUMBERS], ids=["runs of a line", "default runs"])
    @given(mutated_files())
    @settings(max_examples=300)
    def test_a_file_parses_as_the_token_loop_parses_it(self, chunk, text):
        with mock.patch.object(data_io, "_CHUNK_NUMBERS", chunk):
            assert_parses_as_the_token_loop(text)

    @pytest.mark.parametrize("name,text,line,column", FIRST_ERRORS, ids=[e[0] for e in FIRST_ERRORS])
    def test_the_first_error_in_the_file_is_named(self, name, text, line, column):
        err = assert_parses_as_the_token_loop(text)
        assert (err.line, err.column) == (line, column)

    @pytest.mark.parametrize("name,line", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_a_malformed_line_is_named_as_the_token_loop_names_it(self, name, line):
        assert assert_parses_as_the_token_loop(f"1 1:1.0\n{line}\n").line == 2

    @pytest.mark.parametrize("bad, column", [("1 2:1 1:1", 7), ("1 1:1:1", 3)], ids=["bulk", "shape"])
    def test_a_bad_line_past_the_first_run_is_named(self, bad, column):
        good = ["1 1:1 2:1"] * (data_io._CHUNK_NUMBERS // 5 + 10)  # five numbers a line
        err = assert_parses_as_the_token_loop("\n".join([*good, bad, "x"]))
        assert (err.line, err.column) == (len(good) + 1, column)

    def test_a_list_of_lines_parses_as_the_token_loop_parses_it(self):
        lines = ["1 1:1\r\n", "\t\n", "2 1:1 # c\n", "3 1:1\n4 1:1\n"]
        err = assert_parses_as_the_token_loop(lines)
        assert (err.line, err.column) == (4, 5)  # the value '1\n4'
        assert bits(parse_libsvm(lines[:3])) == bits(token_loop_parse(io.StringIO("".join(lines[:3]))))

    @pytest.mark.parametrize(
        "name, value", [("_LINE", re.compile("(?!)")), ("_checked_rows", lambda numbers, ends: None)],
        ids=["shape", "bulk"],
    )
    def test_a_valid_line_the_accept_path_refuses_is_a_bug(self, monkeypatch, name, value):
        monkeypatch.setattr(data_io, name, value)
        with pytest.raises(RuntimeError, match=r"^lines 1\.\.[13]: the accept path refused valid LIBSVM$"):
            parse_libsvm("1 1:1\n\n-1 2:1\n")


@st.composite
def odd_libsvm_rows(draw):
    """LIBSVM rows, some of which the parser refuses: an index that is not an
    integer, out of range, out of order or repeated, a label or value that is
    not finite."""
    numbers = st.floats() | st.sampled_from([0.0, -1.0, 2.5])
    index = st.integers(1, 40) | st.sampled_from([-1, 0, 2**31 - 1, 2**31, 1.5, 2.0, True])
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        indices = draw(st.lists(index, max_size=4))
        if draw(st.booleans()):
            indices = sorted(indices)
        rows.append((draw(numbers), tuple((i, draw(numbers)) for i in indices)))
    return rows


class TestOneRepresentation:
    """Every producer of a dataset gives the one ``SparseDataset(rows)`` builds
    from the same rows: its labels, and its CSR arrays entry for entry."""

    @given(libsvm_rows(), st.data())
    @settings(max_examples=60)
    def test_subset(self, rows, data):
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1) if rows else st.nothing()))
        got = SparseDataset(rows, n_features=40).subset(np.array(picks, dtype=int))
        assert got == SparseDataset([rows[i] for i in picks], n_features=40)

    @given(libsvm_rows(), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_binarize(self, rows, seed):
        distinct = sorted({label for label, _ in rows})
        assume(len(distinct) >= 2)
        order = np.random.default_rng(seed).permutation(len(distinct))
        positive = {distinct[i] for i in order[: (len(distinct) + 1) // 2]}
        mapped = [(1.0 if label in positive else -1.0, feats) for label, feats in rows]
        assert binarize(SparseDataset(rows), seed) == SparseDataset(mapped)

    @given(libsvm_rows())
    @settings(max_examples=60)
    def test_parse(self, rows):
        text = "".join(repr(y) + "".join(f" {i}:{v!r}" for i, v in feats) + "\n" for y, feats in rows)
        assert parse_libsvm(text) == SparseDataset(rows)

    @given(st.integers(0, 12), st.integers(1, 5), st.integers(2, 4), st.integers(0, 100))
    @settings(max_examples=30)
    def test_generator_stores_every_entry(self, n, n_features, n_classes, seed):
        ds = random_classification_dataset(n, n_features, n_classes, seed=seed, noise_flip=0.25)
        rows = [(y, tuple(enumerate(r, 1))) for y, r in zip(ds.labels.tolist(), ds.x.toarray().tolist())]
        assert ds == SparseDataset(rows, n_features=n_features)

    @pytest.mark.parametrize(
        "rows, reason",
        [
            # serialize_libsvm would write "1.0 3:1.0 2:3.0", which the parser refuses
            ([(1.0, ((3, 1.0), (2, 3.0)))], "feature indices must increase strictly within a row"),
            ([(1.0, ((2, 1.0), (2, 3.0)))], "feature indices must increase strictly within a row"),
            ([(1.0, ((2**31, 1.0),))], r"feature indices must be <= 2\^31 - 1, got 2147483648"),
            ([(float("nan"), ((1, 1.0),))], "labels and feature values must be finite"),
            ([(1.0, ((1, float("inf")),))], "labels and feature values must be finite"),
            # the parser refuses the text "1.5:2.0"; int64 columns would truncate these to column 0 or 1
            ([(1.0, ((1.5, 2.0),))], r"feature indices must be an integer, got 1\.5"),
            ([(1.0, ((2.0, 2.0),))], r"feature indices must be an integer, got 2\.0"),
            ([(1.0, ((True, 2.0),))], "feature indices must be an integer, got True"),
        ],
        ids=["descending", "repeated", "past a C int", "NaN label", "infinite value", "1.5", "2.0", "True"],
    )
    def test_what_the_parser_refuses_is_refused(self, rows, reason):
        with pytest.raises(InvalidConfig, match=f"^{reason}$"):
            SparseDataset(rows)

    @given(odd_libsvm_rows())
    @settings(max_examples=150)
    def test_rows_are_refused_exactly_when_their_text_is(self, rows):
        text = "".join(repr(float(y)) + "".join(f" {i}:{v!r}" for i, v in feats) + "\n" for y, feats in rows)
        try:
            ds = SparseDataset(rows)
        except InvalidConfig:
            with pytest.raises(ParseError):
                parse_libsvm(text)
            return
        assert serialize_libsvm(ds) == text
        assert parse_libsvm(serialize_libsvm(ds)) == ds

    @pytest.mark.parametrize("index", [0, -3])
    def test_an_index_below_one_is_refused(self, index):
        with pytest.raises(InvalidConfig, match=rf"^feature indices must be >= 1, got {index}$"):
            SparseDataset([(1.0, ((1, 1.0),)), (-1.0, ((index, 2.0), (2, 1.0)))])

    def test_a_parsed_dense_file_holds_under_twice_its_dense_size(self):
        # the benchmark's file shape: 2000 rows, every one of 40 features stored
        text = serialize_libsvm(random_classification_dataset(2000, 40, seed=0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = parse_libsvm(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ds.x.nnz == 2000 * 40
        assert held < 2 * ds.x.nnz * 8, held

    def test_loading_a_dense_file_peaks_under_the_token_loop(self, tmp_path):
        # the token loop peaked at 5.11 MB here; the accept path, at 3.65 MB,
        # would exceed the bound if it also kept the whole 1.85 MB file
        path = tmp_path / "data.libsvm"
        path.write_text(serialize_libsvm(random_classification_dataset(2000, 40, seed=0)))
        tracemalloc.start()
        try:
            ds = load_libsvm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.x.nnz == 2000 * 40
        assert peak < 5.25e6, peak
