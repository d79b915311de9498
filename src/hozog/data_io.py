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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InsufficientData, InvalidConfig, ParseError, check_count

__all__ = [
    "SparseDataset",
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
# Measured on one logreg gradient (Intel Xeon, BLAS at one thread), as the
# dense speed-up over CSR: at 1000x40, 1.8x to 3.8x at every density from
# 0.02 to 1.0; at 1000x1000, 0.14x at density 0.02 and 0.74x at 0.3 (CSR
# wins), then 1.27x at 0.5 and 2.63x at 1.0 (dense wins).
DENSE_MIN_DENSITY = 0.5


@dataclass(frozen=True)
class SparseDataset:
    """Rows of ``(label, [(index, value), ...])`` with 1-based sorted indices."""

    rows: tuple
    n_features: int = 0

    def __post_init__(self):
        n = self.n_features
        for _, feats in self.rows:
            if feats:
                n = max(n, feats[-1][0])
        object.__setattr__(self, "n_features", n)

    def __len__(self):
        return len(self.rows)

    @property
    def labels(self) -> np.ndarray:
        return np.array([label for label, _ in self.rows], dtype=float)

    def subset(self, indices) -> "SparseDataset":
        return SparseDataset(
            rows=tuple(self.rows[i] for i in indices), n_features=self.n_features
        )

    def to_csr(self, n_features: int | None = None) -> sp.csr_matrix:
        """Feature matrix as CSR; columns are 0-based (libsvm index 1 -> column 0).

        Every listed pair is a stored entry, an explicit ``idx:0`` included.
        """
        n_cols = n_features if n_features is not None else self.n_features
        data, indices, indptr = [], [], [0]
        for _, feats in self.rows:
            for idx, val in feats:
                indices.append(idx - 1)
                data.append(val)
            indptr.append(len(data))
        return sp.csr_matrix(
            (np.asarray(data, dtype=float), indices, indptr),
            shape=(len(self.rows), n_cols),
        )


def design_matrices(*splits: SparseDataset) -> tuple:
    """The splits' feature matrices, all dense ``ndarray`` or all CSR.

    One decision for all splits: they are dense when together they store at
    least ``DENSE_MIN_DENSITY`` of their entries, else CSR.  Every matrix
    has the widest split's feature count.
    """
    n_features = max(ds.n_features for ds in splits)
    mats = tuple(ds.to_csr(n_features) for ds in splits)
    stored = sum(m.nnz for m in mats)
    entries = sum(m.shape[0] for m in mats) * n_features
    if stored >= DENSE_MIN_DENSITY * entries:
        return tuple(m.toarray() for m in mats)
    return mats


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
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, col, f"{what} is not a number: {token!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(line_no, col, f"{what} is not finite: {token!r}")
    return value


def _parse_index(token: str, line_no: int, col: int) -> int:
    # An index must be a plain positive decimal integer; '1.5' or '+2' are
    # rejected even though int() variants could be coerced.
    if not token.isdigit():
        raise ParseError(line_no, col, f"feature index is not an integer: {token!r}")
    idx = int(token)
    if idx <= 0:
        raise ParseError(line_no, col, f"feature index must be >= 1: {token!r}")
    return idx


def parse_libsvm(stream) -> SparseDataset:
    """Parse LIBSVM-format text into a :class:`SparseDataset`.

    ``stream`` is an iterable of text lines (an open file, StringIO, or a
    list of strings).  Rows are returned in file order.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows = []
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
        label = _parse_float(label_tok, line_no, col, "label")
        col += len(label_tok) + 1
        feats = []
        prev_idx = 0
        for tok in tokens[1:]:
            if tok == "":
                raise ParseError(line_no, col, "empty token (stray space)")
            if tok.count(":") != 1:
                raise ParseError(line_no, col, f"expected idx:val pair, got {tok!r}")
            idx_tok, val_tok = tok.split(":")
            idx = _parse_index(idx_tok, line_no, col)
            if idx <= prev_idx:
                raise ParseError(
                    line_no, col, f"feature index {idx} not greater than {prev_idx}"
                )
            value = _parse_float(val_tok, line_no, col + len(idx_tok) + 1, "feature value")
            feats.append((idx, value))
            prev_idx = idx
            col += len(tok) + 1
        rows.append((label, tuple(feats)))
    return SparseDataset(rows=tuple(rows))


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
    lines = []
    for label, feats in ds.rows:
        parts = [repr(label)] + [f"{idx}:{val!r}" for idx, val in feats]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def binarize(ds: SparseDataset, seed: int) -> SparseDataset:
    """Map a multi-class dataset to labels in {-1, +1}.

    The distinct label values are split into two halves (sizes differing by
    at most one) by a seeded shuffle; the first half maps to +1.
    """
    distinct = sorted({label for label, _ in ds.rows})
    if len(distinct) < 2:
        raise InsufficientData(f"need >= 2 distinct labels, found {len(distinct)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(distinct))
    positive = {distinct[i] for i in order[: len(distinct) // 2 + len(distinct) % 2]}
    rows = tuple(
        (1.0 if label in positive else -1.0, feats) for label, feats in ds.rows
    )
    return SparseDataset(rows=rows, n_features=ds.n_features)


def split_2_1_1(ds: SparseDataset, seed: int):
    """Seeded shuffle, then contiguous cuts at floor(n/2) and floor(3n/4).

    Returns ``(train, val, test)``; the splits are disjoint and their union
    is the whole dataset.
    """
    n = len(ds)
    if n < 4:
        raise InsufficientData(f"need >= 4 rows for a 2:1:1 split, got {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cut1, cut2 = n // 2, (3 * n) // 4
    return (
        ds.subset(order[:cut1]),
        ds.subset(order[cut1:cut2]),
        ds.subset(order[cut2:]),
    )


def random_classification_dataset(
    n: int,
    n_features: int,
    n_classes: int = 2,
    *,
    seed: int = 0,
    class_sep: float = 1.0,
    noise_flip: float = 0.0,
) -> SparseDataset:
    """Gaussian-blob classification data as a dense-row SparseDataset.

    Labels are 0..n_classes-1 for multi-class, or {-1, +1} when
    ``n_classes == 2``.  ``noise_flip`` relabels that fraction of rows to a
    uniformly drawn other class, for experiments where regularization or
    reweighting should matter.  Raises InsufficientData for fewer than two
    classes and InvalidConfig for a count that is not an integer, no
    features, or ``noise_flip`` outside [0, 1].
    """
    check_count(n, "n", 0)
    check_count(n_classes, "n_classes", 0)
    if n_classes < 2:
        raise InsufficientData(f"need >= 2 classes, got n_classes={n_classes}")
    check_count(n_features, "n_features", 1)
    if not 0.0 <= noise_flip <= 1.0:
        raise InvalidConfig(f"noise_flip must be in [0, 1], got {noise_flip}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, n_features))
    means *= class_sep / np.sqrt(n_features)
    y = rng.integers(0, n_classes, size=n)
    x = rng.standard_normal((n, n_features)) / np.sqrt(n_features) + means[y]
    if noise_flip > 0.0:
        n_flip = int(round(noise_flip * n))
        flip_idx = rng.choice(n, size=n_flip, replace=False)
        for i in flip_idx:
            others = [c for c in range(n_classes) if c != y[i]]
            y[i] = others[rng.integers(0, len(others))]
    labels = np.where(y == 1, 1.0, -1.0) if n_classes == 2 else y.astype(float)
    rows = tuple((label, tuple(enumerate(row, 1))) for label, row in zip(labels.tolist(), x.tolist()))
    return SparseDataset(rows=rows, n_features=n_features)
