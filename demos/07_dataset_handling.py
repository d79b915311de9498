"""Strict LIBSVM ingestion, binarization, and the 2:1:1 split
==============================================================

Datasets arrive as LIBSVM text (`label idx:val idx:val ...`).  Parsing is
strict: any malformed token is an error with its line and column, because
silently dropped rows would change experiment semantics.  Multi-class
labels can be folded to {-1, +1} by a seeded class partition, and the
train/validation/test split is a seeded shuffle with fixed cut points.
"""

import collections

from hozog.data_io import binarize, parse_libsvm, serialize_libsvm, split_2_1_1
from hozog.errors import ParseError

text = """\
3 1:0.5 4:-1.25
1 2:2.0
2 1:1.0 2:1.0 3:1.0
0 5:0.125
3 3:-0.5
1 1:2.5 5:1.0
2 4:0.75
0 2:-2.0 3:0.25
"""

dataset = parse_libsvm(text)
print(f"parsed {len(dataset)} rows, {dataset.n_features} features")
print("label counts:", dict(collections.Counter(dataset.labels.tolist())))

# serialization round-trips exactly
assert parse_libsvm(serialize_libsvm(dataset)) == dataset

binary = binarize(dataset, seed=0)
print("after binarization:", dict(collections.Counter(binary.labels.tolist())))

train, val, test = split_2_1_1(binary, seed=0)
print(f"2:1:1 split sizes: {len(train)}/{len(val)}/{len(test)}")

# strictness in action: a decreasing feature index is refused, with position
try:
    parse_libsvm("1 1:1.0\n1 5:1.0 3:2.0\n")
except ParseError as err:
    print(f"rejected malformed line {err.line}: {err.reason}")
