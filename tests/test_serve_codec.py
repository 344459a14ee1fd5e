"""The block encoder writes the bytes the per-row encoder wrote.

``serve/codec.py`` renders answers a block of rows at a time: every float
cell of the answer from one ``orjson.dumps`` of its ``(rows, columns)``
matrix, with ``repr`` rewriting the rows whose cells orjson spells
differently (NaN, ±inf, ``|x| < 1e-4``, ``|x| >= 1e16``).  The encoder it
replaced lives on here as the reference — one dict per row, ``_enc_float``
per cell, ``json.dumps`` per row — and hypothesis holds the two to the
same bytes over the ids and doubles that are awkward to write by hand,
then checks that the decoder reads every cell back bit for bit.  A
property pins the range where orjson's text must equal ``repr``, so an
orjson that formats differently fails there by name.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphQuery, PathAggregationQuery
from repro.core.engine import GraphQueryResult, PathAggregationResult
from repro.core.paths import Path
from repro.serve import codec


def _enc_float(value: float) -> float | str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def reference_rows(record_ids, columns, key: str) -> list[str]:
    """The encoder this file's subject replaced, row by row."""
    return [
        json.dumps(
            {"id": record_id, key: [_enc_float(col[i]) for col in columns]},
            separators=(",", ":"),
            allow_nan=False,
        )
        for i, record_id in enumerate(record_ids)
    ]


AWKWARD = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, 1e16, 1e-7,
    0.1 + 0.2, 2.0**53 + 2, 1.7976931348623157e308,
    # Either side of the edges of the range orjson writes as repr does.
    1e-4, -1e-4, 9.999999999999999e-05, 9999999999999998.0, -1e16,
]
bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)
cells = st.sampled_from(AWKWARD) | bit_patterns
texts = st.text(max_size=12) | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "é ☃", "%s%d"])
record_ids = (
    texts
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.tuples(texts, st.integers(-5, 10**6))
)


@st.composite
def answers(draw):
    ids = draw(st.lists(record_ids, max_size=150))
    n_columns = draw(st.integers(0, 4))
    columns = [
        np.array(draw(st.lists(cells, min_size=len(ids), max_size=len(ids))), dtype=np.float64)
        for _ in range(n_columns)
    ]
    return ids, columns


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal as bit patterns, any NaN standing for any other (the wire has
    one ``"NaN"``)."""
    nan = np.isnan(a)
    return bool(
        np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


def graph_result(ids, columns) -> GraphQueryResult:
    elements = [(f"n{j}", j) for j in range(len(columns))]
    return GraphQueryResult(
        GraphQuery(elements) if elements else None,
        np.arange(len(ids)), ids, dict(zip(elements, columns)), None, 7,
    )


def agg_result(ids, columns) -> PathAggregationResult:
    paths = [Path(["a", f"b{j}", "c"], open_end=bool(j % 2)) for j in range(len(columns))]
    query = PathAggregationQuery(GraphQuery([("a", "b0"), ("b0", "c")]), "sum")
    return PathAggregationResult(
        query, np.arange(len(ids)), ids, dict(zip(paths, columns)), None, 7
    )


@settings(max_examples=150, deadline=None)
@given(answers(), st.sampled_from([1, 7, 64]), st.sampled_from(["m", "v"]))
def test_blocks_are_the_reference_bytes(answer, block_rows, key):
    ids, columns = answer
    want = reference_rows(ids, columns, key)
    blocks = list(codec.encode_blocks(ids, columns, key, block_rows))
    assert b"".join(blocks) == "".join(row + "\n" for row in want).encode()
    assert len(blocks) == -(-len(ids) // block_rows)


@settings(max_examples=100, deadline=None)
@given(answers(), st.sampled_from([1, 7, 64]))
def test_graph_answer_round_trips(answer, block_rows):
    ids, columns = answer
    result = graph_result(ids, columns)
    header, blocks = codec.encode_answer(result, block_rows)
    body = header + b"".join(blocks)
    lines = body.decode("ascii").split("\n")[:-1]
    assert json.loads(lines[0]) == codec.encode_graph_header(result)
    assert lines[1:] == reference_rows(ids, columns, "m")
    # The row-at-a-time view the benchmark harness times is the same text.
    assert [codec.dumps(row) for row in codec.iter_graph_rows(result)] == lines[1:]
    decoded = codec.decode_graph_payload(lines)
    assert decoded.record_ids == json.loads(json.dumps(ids))  # tuples arrive as arrays
    assert len(decoded) == len(ids) and decoded.epoch == 7
    assert list(decoded.measures) == list(result.measures)
    for element, column in result.measures.items():
        assert same_bits(decoded.measures[element], column)


@settings(max_examples=100, deadline=None)
@given(answers(), st.sampled_from([1, 7, 64]))
def test_aggregate_answer_round_trips(answer, block_rows):
    ids, columns = answer
    result = agg_result(ids, columns)
    header, blocks = codec.encode_answer(result, block_rows)
    lines = (header + b"".join(blocks)).decode("ascii").split("\n")[:-1]
    assert json.loads(lines[0]) == codec.encode_agg_header(result)
    assert lines[1:] == reference_rows(ids, columns, "v")
    assert [codec.dumps(row) for row in codec.iter_agg_rows(result)] == lines[1:]
    decoded = codec.decode_agg_payload(lines)
    assert decoded.function == "sum"
    assert set(decoded.path_values) == set(result.path_values)
    for path, column in result.path_values.items():
        assert same_bits(decoded.path_values[path], column)


def test_columns_of_any_numeric_dtype_encode_as_doubles():
    """COUNT-style partials may arrive as integers; the wire carries doubles."""
    got = b"".join(codec.encode_blocks(["r"], [np.array([3]), [2.5]], "v", 64))
    assert got == b'{"id":"r","v":[3.0,2.5]}\n'


def encoded(ids, columns, key="m", block_rows=64) -> bytes:
    return b"".join(codec.encode_blocks(ids, columns, key, block_rows))


def test_one_row_mixes_plain_and_rewritten_cells():
    """Only the row holding a NaN or a ``1e22`` is rewritten, and in it
    the plain cells keep their text."""
    columns = [np.array([1.5, 2.0]), np.array([math.nan, 3.0]), np.array([1e22, 0.25])]
    got = encoded(["a", "b"], columns)
    assert got == b'{"id":"a","m":[1.5,"NaN",1e+22]}\n{"id":"b","m":[2.0,3.0,0.25]}\n'
    assert got.decode().splitlines() == reference_rows(["a", "b"], columns, "m")


def test_zero_rows_write_no_block():
    assert list(codec.encode_blocks([], [np.array([]), np.array([])], "m", 64)) == []
    result = graph_result([], [np.array([]), np.array([])])
    header, blocks = codec.encode_answer(result, 64)
    assert json.loads(header)["count"] == 0 and list(blocks) == []
    assert list(codec.iter_graph_rows(result)) == []


def test_zero_columns_make_no_orjson_call(monkeypatch):
    """An ids-only answer has no float to write, so it stacks no matrix."""

    def refuse(*args, **kwargs):
        raise AssertionError("orjson.dumps called for a column-less answer")

    monkeypatch.setattr(codec.orjson, "dumps", refuse)
    assert encoded(["a", 2], [], "v") == b'{"id":"a","v":[]}\n{"id":2,"v":[]}\n'


def test_int_str_and_tuple_ids_share_a_block():
    ids = ["x", 7, ("t", 3), "y\n"]
    columns = [np.array([1.0, 2.0, 1e-5, 4.0])]
    got = encoded(ids, columns)
    assert got == (
        b'{"id":"x","m":[1.0]}\n{"id":7,"m":[2.0]}\n'
        b'{"id":["t",3],"m":[1e-05]}\n{"id":"y\\n","m":[4.0]}\n'
    )
    assert got.decode().splitlines() == reference_rows(ids, columns, "m")


SMALLEST_PLAIN_BITS = struct.unpack("<Q", struct.pack("<d", 1e-4))[0]
LARGEST_PLAIN_BITS = struct.unpack("<Q", struct.pack("<d", 1e16))[0] - 1
plain_doubles = (
    st.sampled_from([0.0, -0.0, 1e-4, 9999999999999998.0])
    | st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
    | st.integers(SMALLEST_PLAIN_BITS, LARGEST_PLAIN_BITS).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    )
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(st.lists(plain_doubles, min_size=1, max_size=64))
def test_orjson_writes_plain_doubles_as_repr(values):
    """The codec writes a cell with orjson unrewritten only when it is 0 or
    ``1e-4 <= |x| < 1e16``; there orjson's text must be ``repr``'s."""
    cells = orjson.dumps(np.array(values), option=orjson.OPT_SERIALIZE_NUMPY)
    for value, text in zip(values, cells[1:-1].decode().split(",")):
        if text != repr(value):
            pytest.fail(
                f"orjson {orjson.__version__} writes {value!r} as {text!r}, not as repr "
                f"does; the codec's plain range in _row_blocks no longer holds"
            )
