"""The csv reader against ``csv_reference``, its one Python call per cell
oracle: on every generated file it returns bitwise the same array or raises
the same message."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_reference
from hklearn import cli
from hklearn.errors import FormatError

FLOAT = st.floats(allow_nan=False, allow_infinity=False)
NUMBER = st.one_of(
    FLOAT.map(lambda v: "%.17g" % v), FLOAT.map(repr), st.integers(-10**6, 10**6).map(str)
)
# Tokens float() rejects, reads as nan or inf, or reads by rules beyond the ascii
# decimal forms; a quoted "2\n3" is one cell spanning two lines
ODD = st.sampled_from([
    "nan", "-inf", "inf", "1e999", "Infinity", "x", "", "-", "1.5.2", "1e", "0x10",
    "1_000", "\xa02.5", "١٢", "+.5", "1,5", "2\n3",
])
CELL = st.one_of(NUMBER, NUMBER, NUMBER, ODD)
# how a cell sits in its field: surrounding whitespace, or quoted
DRESS = st.sampled_from(["{}", " {} ", "\t{}", '"{}"', '" {} "'])
BLANK = st.sampled_from(["", " ", " , ", "\t,"])


@st.composite
def csv_texts(draw):
    """Rows of one width, with blank rows and rows of other widths among them."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(BLANK))
            continue
        w = width if kind == "row" else draw(st.integers(1, 5))
        cells = draw(st.lists(st.tuples(CELL, DRESS), min_size=w, max_size=w))
        lines.append(",".join(dress.format(cell) for cell, dress in cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(read, path):
    """A reader's array as (shape, dtype, bytes), or the message it raised."""
    try:
        out = read(path)
    except FormatError as exc:
        return str(exc)
    return out.shape, out.dtype, out.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@settings(max_examples=300)
@given(text=csv_texts())
def test_csv_reader_is_the_per_cell_loop(scratch, text):
    path = scratch / "d.csv"
    path.write_bytes(text.encode())
    assert _outcome(lambda p: cli._read_csv_numbers(p, "dataset"), path) == _outcome(
        lambda p: csv_reference._read_csv_numbers(p, "dataset"), path
    )
