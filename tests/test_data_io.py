"""LIBSVM parsing, serialization round-trips, binarization, and splitting."""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
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
        label, feats = ds.rows[0]
        assert label == 1.0
        assert feats == ((1, 0.5), (3, 2.0))
        assert ds.n_features == 3

    def test_label_only_row(self):
        ds = parse_libsvm("-1\n")
        assert ds.rows[0] == (-1.0, ())

    def test_blank_lines_and_comments_ignored(self):
        text = "# full comment line\n\n1 1:1.0 # trailing comment\n\n"
        ds = parse_libsvm(text)
        assert len(ds) == 1
        assert ds.rows[0] == (1.0, ((1, 1.0),))

    def test_rows_in_file_order(self):
        ds = parse_libsvm("1 1:1\n2 1:2\n3 1:3\n")
        assert [label for label, _ in ds.rows] == [1.0, 2.0, 3.0]

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


class TestMalformedLines:
    @pytest.mark.parametrize("name,line", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_rejected_with_line_number(self, name, line):
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm(f"1 1:1.0\n{line}\n")
        assert excinfo.value.line == 2


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

    def test_a_flip_of_one_relabels_every_row(self):
        clean = random_classification_dataset(30, 3, n_classes=3, seed=4)
        flipped = random_classification_dataset(30, 3, n_classes=3, seed=4, noise_flip=1.0)
        assert all(a[0] != b[0] for a, b in zip(clean.rows, flipped.rows))


class TestBinarize:
    def test_two_classes(self):
        ds = parse_libsvm("0 1:1\n1 1:2\n0 1:3\n")
        out = binarize(ds, seed=0)
        labels = [label for label, _ in out.rows]
        assert set(labels) <= {-1.0, 1.0}
        assert labels[0] == labels[2] != labels[1]

    def test_ten_classes_split_five_five(self):
        rows = tuple((float(i % 10), ((1, 1.0),)) for i in range(50))
        out = binarize(SparseDataset(rows=rows), seed=3)
        labels = np.array([label for label, _ in out.rows])
        assert set(labels) == {-1.0, 1.0}
        # 5 classes of 5 rows each on both sides
        assert int((labels == 1.0).sum()) == 25

    def test_already_binary_codomain(self):
        ds = parse_libsvm("-1 1:1\n+1 1:2\n")
        out = binarize(ds, seed=1)
        assert {label for label, _ in out.rows} == {-1.0, 1.0}

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
        values = sorted(feats[0][1] for part in (train, val, test) for _, feats in part.rows)
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
