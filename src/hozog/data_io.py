"""Dataset ingestion: LIBSVM text parsing, label binarization, 2:1:1 splits,
and the splits' one storage choice (dense or CSR) and one contract check.

The accepted line grammar is strict::

    <label> <idx>:<val> <idx>:<val> ...

with single-space separation, 1-based strictly increasing feature indices,
and real-valued labels and values.  Blank lines are ignored and ``#``
starts a comment running to the end of the line.  Malformed tokens raise
:class:`~hozog.errors.ParseError` with the 1-based line and column of the
offending token; rows are never silently skipped, since dropped rows would
change experiment semantics.
"""

from __future__ import annotations

import gzip
import io
import math
import zlib

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InsufficientData, InvalidConfig, ParseError, check_count

__all__ = [
    "SparseDataset",
    "by_density",
    "design_matrices",
    "check_splits",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "binarize",
    "split_2_1_1",
    "random_classification_dataset",
]

# Splits that store at least this share of their entries are held dense.
# Measured on one logreg gradient at k=1 (Intel Xeon, BLAS at one thread,
# two runs), as the dense speed-up over CSR: at 1000x40, 1.7x to 4.6x at
# every density from 0.02 to 1.0; at 1000x1000, 0.11x at density 0.02 and
# 0.4x at 0.1 (CSR wins), 1.0x at 0.3, then 1.2x to 1.7x at 0.5 and 2.3x to
# 3.3x at 1.0 (dense wins).  On hyper-cleaning's k=1 gradient at 400x15
# with 3 classes (density 1.0), the forward product took 14-17 us on CSR
# against 3-6 us dense, and the transposed one 30 us against 3-5 us.
DENSE_MIN_DENSITY = 0.5


class SparseDataset:
    """A float label per row and one CSR feature matrix ``x`` (0-based columns).

    Built from LIBSVM rows ``(label, ((index, value), ...))`` in their order;
    every listed pair is a stored entry, an explicit ``idx:0`` included.
    ``n_features`` is at least the largest index.  Rows the parser would
    refuse (an index outside 1 .. 2^31 - 1 or out of order within its row, a
    label or value that is not finite) raise InvalidConfig.
    """

    def __init__(self, rows, n_features: int = 0):
        check_count(n_features, "n_features", 0)
        labels, values, indices, indptr = [], [], [], [0]
        for label, feats in rows:
            labels.append(label)
            indices.extend(idx - 1 for idx, _ in feats)
            values.extend(val for _, val in feats)
            indptr.append(len(values))
        low, high = min(indices, default=0) + 1, max(indices, default=0) + 1
        if low < 1:  # scipy's products would read out of bounds
            raise InvalidConfig(f"feature indices must be >= 1, got {low}")
        if high >= 2**31:  # LIBSVM holds an index in a C int
            raise InvalidConfig(f"feature indices must be <= 2^31 - 1, got {high}")
        self.labels, self.x = _arrays(labels, values, indices, indptr, n_features)
        if not self.x.has_canonical_format:
            raise InvalidConfig("feature indices must increase strictly within a row")
        if not (np.isfinite(self.labels).all() and np.isfinite(self.x.data).all()):
            raise InvalidConfig("labels and feature values must be finite")

    def __len__(self):
        return self.labels.shape[0]

    def __eq__(self, other):
        def fields(ds):
            return ds.x.shape, ds.labels, ds.x.indptr, ds.x.indices, ds.x.data

        return isinstance(other, SparseDataset) and all(map(np.array_equal, fields(self), fields(other)))

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def subset(self, indices) -> "SparseDataset":
        return _dataset(self.labels[indices], self.x[indices])

    def to_csr(self, n_features: int | None = None) -> sp.csr_matrix:
        """The feature matrix ``x``, widened to ``n_features`` columns when that is given."""
        widen = n_features not in (None, self.n_features)
        return sp.csr_matrix(self.x, shape=(len(self), n_features)) if widen else self.x


def _arrays(labels, values, indices, indptr, n_features: int = 0) -> tuple:
    """The label array and CSR matrix of rows that ``indptr`` cuts from flat 0-based
    column ``indices`` and ``values``, ``n_features`` or more columns wide."""
    columns = np.array(indices, dtype=np.int64)
    width = max(n_features, int(columns.max(initial=-1)) + 1)
    x = sp.csr_matrix((np.array(values, dtype=float), columns, indptr), shape=(len(indptr) - 1, width))
    return np.array(labels, dtype=float), x


def _dataset(labels: np.ndarray, x: sp.csr_matrix) -> SparseDataset:
    ds = object.__new__(SparseDataset)
    ds.labels, ds.x = labels, x
    return ds


def by_density(*mats) -> tuple:
    """The matrices in the storage the density rule picks, one decision for all.

    Dense matrices come back as they are.  The CSR matrices come back dense
    when together they store at least ``DENSE_MIN_DENSITY`` of their
    entries, else as the same objects.
    """
    sparse = [m for m in mats if sp.issparse(m)]
    stored = sum(m.nnz for m in sparse)
    entries = sum(m.shape[0] * m.shape[1] for m in sparse)
    if sparse and stored >= DENSE_MIN_DENSITY * entries:
        return tuple(m.toarray() if sp.issparse(m) else m for m in mats)
    return mats


def design_matrices(*splits: SparseDataset) -> tuple:
    """The splits' feature matrices, all dense ``ndarray`` or all CSR, as
    :func:`by_density` stores them.  Every matrix has the widest split's
    feature count.
    """
    n_features = max(ds.n_features for ds in splits)
    return by_density(*(ds.to_csr(n_features) for ds in splits))


def check_splits(labels, **splits) -> None:
    """The data problems' split contract over the splits ``name=(x, y)``: one
    feature count, one label per row, every label in ``labels``, no empty split."""
    widths = {x.shape[1] for x, _ in splits.values()}
    if len(widths) != 1:
        raise DimensionMismatch(f"feature dimensions differ across splits: {sorted(widths)}")
    for name, (x, y) in splits.items():
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(f"{name}: {x.shape[0]} rows vs {y.shape[0]} labels")
        if x.shape[0] == 0:
            raise InsufficientData(f"{name} split is empty")
        if not np.all(np.isin(y, labels)):
            raise DimensionMismatch(f"{name} has a label outside {labels}")


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


def parse_libsvm(stream) -> SparseDataset:
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


def load_libsvm(path) -> SparseDataset:
    """Load a LIBSVM file; gzip-compressed input is accepted for ``*.gz`` paths.

    Bytes that are not UTF-8 are kept as lone surrogates, so they fail the
    grammar as a :class:`~hozog.errors.ParseError` at their own line and
    column (or are ignored inside a comment).  A ``*.gz`` file that is cut
    short or whose compressed data is damaged raises ``gzip.BadGzipFile``
    (an ``OSError``) naming the file.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
            return parse_libsvm(fh)
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        raise gzip.BadGzipFile(f"{path}: damaged gzip data ({err})") from err


def serialize_libsvm(ds: SparseDataset) -> str:
    """Canonical text form; floats use shortest round-trip decimals."""
    pairs = [f" {j + 1}:{v!r}" for j, v in zip(ds.x.indices.tolist(), ds.x.data.tolist())]
    cuts = ds.x.indptr.tolist()
    return "".join(repr(y) + "".join(pairs[a:b]) + "\n" for y, a, b in zip(ds.labels.tolist(), cuts, cuts[1:]))


def binarize(ds: SparseDataset, seed: int) -> SparseDataset:
    """Map a multi-class dataset to labels in {-1, +1}.

    The distinct label values are split into two halves (sizes differing by
    at most one) by a seeded shuffle; the first half maps to +1.
    """
    check_count(seed, "seed", 0)
    distinct = np.unique(ds.labels)
    if len(distinct) < 2:
        raise InsufficientData(f"need >= 2 distinct labels, found {len(distinct)}")
    order = np.random.default_rng(seed).permutation(len(distinct))
    positive = distinct[order[: len(distinct) // 2 + len(distinct) % 2]]
    return _dataset(np.where(np.isin(ds.labels, positive), 1.0, -1.0), ds.x)


def split_2_1_1(ds: SparseDataset, seed: int):
    """Seeded shuffle, then contiguous cuts at floor(n/2) and floor(3n/4).

    Returns ``(train, val, test)``; the splits are disjoint and their union
    is the whole dataset.
    """
    check_count(seed, "seed", 0)
    n = len(ds)
    if n < 4:
        raise InsufficientData(f"need >= 4 rows for a 2:1:1 split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    return tuple(ds.subset(part) for part in np.split(order, [n // 2, (3 * n) // 4]))


def random_classification_dataset(
    n: int, n_features: int, n_classes: int = 2, *,
    seed: int = 0, class_sep: float = 1.0, noise_flip: float = 0.0,
) -> SparseDataset:
    """Gaussian-blob classification data, every entry stored.

    Labels are 0..n_classes-1 for multi-class, or {-1, +1} when
    ``n_classes == 2``.  ``noise_flip`` relabels that fraction of rows to a
    uniformly drawn other class, for experiments where regularization or
    reweighting should matter.  Raises InsufficientData for fewer than two
    classes and InvalidConfig for a count that is not an integer, no
    features, ``noise_flip`` outside [0, 1] or a ``class_sep`` that is not finite.
    """
    check_count(n, "n", 0)
    check_count(n_classes, "n_classes", 0)
    if n_classes < 2:
        raise InsufficientData(f"need >= 2 classes, got n_classes={n_classes}")
    check_count(n_features, "n_features", 1)
    check_count(seed, "seed", 0)
    if not 0.0 <= noise_flip <= 1.0:
        raise InvalidConfig(f"noise_flip must be in [0, 1], got {noise_flip}")
    if not math.isfinite(class_sep):
        raise InvalidConfig(f"class_sep must be finite, got {class_sep}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, n_features))
    means *= class_sep / np.sqrt(n_features)
    y = rng.integers(0, n_classes, size=n)
    x = rng.standard_normal((n, n_features)) / np.sqrt(n_features) + means[y]
    flip_idx = rng.choice(n, size=int(round(noise_flip * n)), replace=False)
    y[flip_idx] = draw_other_class(y[flip_idx], n_classes, rng)
    labels = np.where(y == 1, 1.0, -1.0) if n_classes == 2 else y.astype(float)
    full = (x.ravel(), np.tile(np.arange(n_features), n), np.arange(0, x.size + 1, n_features))
    return _dataset(labels, sp.csr_matrix(full, shape=x.shape))


def draw_other_class(labels: np.ndarray, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """For each of ``labels`` (classes 0..n_classes-1), a class drawn uniformly from the others."""
    r = rng.integers(0, n_classes - 1, size=len(labels))
    return r + (r >= labels)  # r indexes the n_classes-1 others: skip the label itself
