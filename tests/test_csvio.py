"""The column-wise CSV writer gives the bytes of a per-row csv.writer loop
over the same cells."""

import csv
import io
import os

import numpy as np
import pytest
from test_cli import DAM_CONFIG, write_config

from alap import cli, csvio


def reference_csv(header, rows):
    """The bytes of the per-row writer: csv.writer fed format_value cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([csvio.format_value(v) for v in row])
    return buf.getvalue().encode("utf-8")


def assert_reference_bytes(tmp_path, header, columns):
    """write_csv of ``columns`` equals the reference bytes of their rows."""
    path = tmp_path / "out.csv"
    csvio.write_csv(path, header, columns)
    assert path.read_bytes() == reference_csv(header, zip(*columns))


def columns_of(rows):
    """The columns of a non-empty list of rows, each a list."""
    return [list(col) for col in zip(*rows)]


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


#: floats whose reprs differ in sign, payload, exponent form or subnormality
ODD_FLOATS = np.concatenate([
    [0.0, -0.0, 0.0, -0.0, np.inf, -np.inf, 0.1, 1.0 / 3.0, -2.5],
    # NaNs: quiet, negative, signalling and with payloads
    _bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0001),
    # subnormals
    [5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, np.nextafter(0.0, 1.0) * 12345],
    # either side of repr's switches to exponent form
    [1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 9999999999999998.0, -1e16],
    [1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 0.0001, 9.999999999999999e-05],
    [1.7976931348623157e308, 2.2250738585072014e-308],
])


def odd_table(rows=3 * csvio._BLOCK_ROWS + 7, cols=3, seed=5):
    """A float table of more than two blocks, with every ODD_FLOATS value in
    every column and many repeated values, as in a grid's coordinates."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 300, (1, cols))
    table[:, 0] = np.round(table[:, 0], 2)
    table[: ODD_FLOATS.size] = ODD_FLOATS[:, None]
    table[-ODD_FLOATS.size :] = ODD_FLOATS[::-1, None]
    return table


def test_float_columns_keep_signed_zeros_nans_and_exponent_forms(tmp_path):
    table = odd_table()
    assert_reference_bytes(tmp_path, ["a", "b", "c"], list(table.T))
    written = (tmp_path / "out.csv").read_text().splitlines()
    assert written[1:3] == ["0.0,0.0,0.0", "-0.0,-0.0,-0.0"]
    assert "nan,nan,nan" in written and "1e+16,1e+16,1e+16" in written
    assert "1e-05,1e-05,1e-05" in written and "0.0001,0.0001,0.0001" in written


def test_float_rows_as_tuples_match_the_array(tmp_path):
    """A float array column and the same floats as a list or tuple take the
    two formatting paths and give the same bytes."""
    table = odd_table()
    csvio.write_csv(tmp_path / "array.csv", ["a", "b", "c"], list(table.T))
    assert_reference_bytes(tmp_path, ["a", "b", "c"], table.T.tolist())
    assert_reference_bytes(tmp_path, ["a", "b", "c"], [tuple(col) for col in table.T])
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()


def test_float32_table(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        table = odd_table().astype(np.float32)
    table[0, 0] = np.float32(1e-45)  # a float32 subnormal
    table[1, 1] = _bits(0x7FF8000000000000).astype(np.float32)[0]
    assert_reference_bytes(tmp_path, ["a", "b", "c"], list(table.T))
    assert_reference_bytes(tmp_path, ["a", "b", "c"], [list(col) for col in table.T])


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda t: t[:, ::-1], lambda t: t[::-2], lambda t: t[:, :2]],
    ids=["fortran", "reversed-columns", "strided-rows", "column-slice"],
)
def test_array_layouts(tmp_path, layout):
    table = layout(odd_table(cols=4))
    header = [f"c{k}" for k in range(table.shape[1])]
    assert_reference_bytes(tmp_path, header, list(table.T))


@pytest.mark.parametrize("rows", [0, 1, csvio._BLOCK_ROWS, csvio._BLOCK_ROWS + 1, 2 * csvio._BLOCK_ROWS + 1])
def test_row_counts_around_blocks(tmp_path, rows):
    table = odd_table(rows=max(rows, ODD_FLOATS.size))[:rows]
    assert_reference_bytes(tmp_path, ["a", "b", "c"], list(table.T))
    assert_reference_bytes(tmp_path, ["a", "b", "c"], table.T.tolist())


def test_zero_rows_write_the_header_only(tmp_path):
    for columns in ([np.empty(0), np.empty(0)], [[], []], [np.empty(0, dtype=int), ()]):
        csvio.write_csv(tmp_path / "out.csv", ["a", "b"], columns)
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\r\n"


def test_single_float_column(tmp_path):
    table = odd_table(cols=1)
    assert_reference_bytes(tmp_path, ["u"], [table[:, 0]])
    assert_reference_bytes(tmp_path, ["u"], [[float(v) for v in table[:, 0]]])


def mixed_rows(count=2 * csvio._BLOCK_ROWS + 11):
    rows = []
    for i in range(count):
        rows.append((
            f"label_{i % 3}",
            bool(i % 2),
            np.bool_(i % 3 == 0),
            i,
            np.int64(-i),
            ODD_FLOATS[i % ODD_FLOATS.size],
            float(i % 7) / 8.0,
            np.float32(i) / np.float32(3.0),
            # floats and ints in one column are formatted cell by cell
            float(i) if i % 2 else i,
        ))
    return rows


def test_mixed_rows(tmp_path):
    rows = mixed_rows()
    header = ["label", "b", "nb", "i", "ni", "odd", "eighths", "f32", "float_or_int"]
    assert_reference_bytes(tmp_path, header, columns_of(rows))
    # bool, int and float arrays give the bytes of the same cells in lists
    columns = columns_of(rows)
    for k in (2, 4, 5):
        columns[k] = np.array(columns[k])
    assert_reference_bytes(tmp_path, header, columns)
    first = (tmp_path / "out.csv").read_text().splitlines()[1]
    assert first == "label_0,0,True,0,0,0.0,0.0,0.0,0"


def test_equal_cells_of_different_types_keep_their_own_text(tmp_path):
    """Cells that compare equal but format apart (1, 1.0, True, np.bool_,
    0.0, -0.0) keep their own text in a list column, beside labels that need
    quoting; a negative int array and a bool array format as their cells."""
    cells = [1, 1.0, True, np.bool_(True), 0.0, -0.0, 0, False, np.bool_(False), "a,b",
             'say "hi"', "", "1", -0.0, 1]
    ints = np.array([-3, 0, -3, 7, -(2**62), 0, 1, -1, 2**62, -3, 5, 0, -7, 1, -1])
    flags = np.array([v % 2 == 0 for v in ints.tolist()])
    assert_reference_bytes(tmp_path, ["cell", "n", "flag"], [cells, ints, flags])
    written = (tmp_path / "out.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in written[1:8]] == [
        "1", "1.0", "1", "True", "0.0", "-0.0", "0"
    ]
    assert written[1] == "1,-3,False"
    # an empty cell alone in its row is quoted, in a list and beside ints
    assert_reference_bytes(tmp_path, ["cell"], [cells])
    assert (tmp_path / "out.csv").read_bytes().count(b'\r\n""\r\n') == 1
    assert_reference_bytes(tmp_path, ["n"], [ints])
    assert_reference_bytes(tmp_path, ["flag"], [flags])


@pytest.mark.parametrize(
    "text",
    ["a,b", 'say "hi"', '"', "two\nlines", "carriage\rreturn", "crlf\r\n", "", " padded ", "plain"],
)
def test_text_cells_are_quoted_as_csv_writer_quotes_them(tmp_path, text):
    rows = [(text, 1.5, True), ("plain", -0.0, False), (text, np.nan, np.bool_(False))]
    assert_reference_bytes(tmp_path, ["label", "x", "pass"], columns_of(rows))
    assert_reference_bytes(tmp_path, ["label"], [[text, "plain", text]])
    assert_reference_bytes(tmp_path, ["label"], [[text] * (csvio._BLOCK_ROWS + 2)])


def test_empty_text_cell_alone_in_its_row_is_quoted(tmp_path):
    csvio.write_csv(tmp_path / "out.csv", ["label"], [["", "a"]])
    assert (tmp_path / "out.csv").read_bytes() == b'label\r\n""\r\na\r\n'
    csvio.write_csv(tmp_path / "out.csv", ["label", "n"], [[""], [1]])
    assert (tmp_path / "out.csv").read_bytes() == b"label,n\r\n,1\r\n"


def test_string_and_object_array_columns_are_keyed_by_text(tmp_path):
    """A str array and an object array that mixes floats, ints and bools are
    keyed by their cells' text, across a block boundary: labels that need
    quoting are quoted, equal cells of different types keep their own text,
    and an empty label alone in its row is quoted."""
    rows = csvio._BLOCK_ROWS + 7
    labels = np.array(["a,b", 'say "hi"', "two\nlines", "", "plain"])[np.arange(rows) % 5]
    cells = [0.5, -0.0, 1, True, float("nan"), 0, False, 1.0, np.float32(0.1), np.int64(-3),
             np.bool_(True)]
    mixed = np.empty(rows, dtype=object)
    mixed[:] = [cells[i % len(cells)] for i in range(rows)]
    assert labels.dtype.kind == "U" and mixed.dtype.kind == "O"
    assert_reference_bytes(tmp_path, ["label", "mixed"], [labels, mixed])
    assert (tmp_path / "out.csv").read_bytes().startswith(
        b'label,mixed\r\n"a,b",0.5\r\n"say ""hi""",-0.0\r\n"two\nlines",1\r\n,1\r\nplain,nan\r\n'
    )
    assert_reference_bytes(tmp_path, ["mixed"], [mixed])
    assert_reference_bytes(tmp_path, ["label"], [labels])
    empty_rows = len(range(3, rows, 5))
    assert (tmp_path / "out.csv").read_bytes().count(b'\r\n""\r\n') == empty_rows


def test_every_ascii_and_some_wider_characters_quote_as_csv_writer(tmp_path):
    chars = [chr(c) for c in range(1, 128)] + ["\x85", " ", "é", "\U0001f600"]
    rows = [(f"a{c}b", c, 0) for c in chars]
    assert_reference_bytes(tmp_path, ["wrapped", "bare", "n"], columns_of(rows))
    assert_reference_bytes(tmp_path, ["bare"], [chars])


def test_header_is_quoted_by_csv_writer(tmp_path):
    assert_reference_bytes(tmp_path, ["x,1", 'q"', "plain"], [[1.0], [2.0], [3.0]])


def test_ragged_rows_raise(tmp_path):
    """Columns of unequal length (ragged rows), a column count that differs
    from the header and an empty header raise before the file is opened."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"unequal lengths \[2, 3\]"):
        csvio.write_csv(path, ["a", "b", "c"], [np.zeros(3), [1.0, 2.0], np.zeros(3)])
    with pytest.raises(ValueError, match="4 columns do not fit 3 header names"):
        csvio.write_csv(path, ["a", "b", "c"], [np.zeros(1)] * 4)
    with pytest.raises(ValueError, match="2 columns do not fit 1 header names"):
        csvio.write_csv(path, ["a"], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="at least one column"):
        csvio.write_csv(path, [], [])
    assert not path.exists()


#: CSV columns that hold a pass or other flag, as 0 or 1
FLAG_COLUMNS = ("pass", "set_empty", "boundary_touching", "identity_ok", "lsc_pass")


def test_certificate_commands_write_the_reference_bytes(tmp_path, monkeypatch):
    """Every CSV the CLI writes, on the 33^2 dam config with a boundary tube
    wide enough to reach wet nodes, equals the per-row writer's bytes, and
    every flag column holds only 0 and 1."""
    real_write = csvio.write_csv
    written = []

    def checked_write(path, header, columns):
        real_write(path, header, columns)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data == reference_csv(header, zip(*columns)), path
        table = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        assert len(table) > 1, path
        for k, name in enumerate(header):
            if name in FLAG_COLUMNS:
                assert {row[k] for row in table[1:]} <= {"0", "1"}, (path, name)
        written.append(os.path.basename(path))

    monkeypatch.setattr(csvio, "write_csv", checked_write)
    cfg_path = write_config(tmp_path, DAM_CONFIG + "boundary_growth.tube_width = 0.55\n")
    out = str(tmp_path / "out")
    for command in (
        "solve", "check-profile", "check-barriers", "trace", "extract-fb", "verify-fb",
        "growth", "harnack", "boundary-growth",
    ):
        assert cli.main([command, "--config", cfg_path, "--out", out]) == 0, command
    assert sorted(written) == sorted([
        "field_certification.csv", "u.csv", "chi.csv", "ellipticity.csv", "barriers.csv",
        "trace.csv", "free_boundary.csv", "growth.csv", "harnack.csv", "boundary_growth.csv",
    ])
