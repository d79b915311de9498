"""LIBSVM parsing, serialization round-trips, binarization, and splitting."""

import gzip
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hozog.data_io import (
    SparseDataset,
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
        mat = ds.to_csr()
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
