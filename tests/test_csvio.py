"""The column-wise CSV writer gives the bytes of a per-row csv.writer loop."""

import csv
import io
import os

import numpy as np
import pytest
from test_cli import write_config

from alap import cli, csvio


def reference_csv(header, rows):
    """The bytes of the per-row writer: csv.writer fed format_value cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([csvio.format_value(v) for v in row])
    return buf.getvalue().encode("utf-8")


def assert_reference_bytes(tmp_path, header, rows):
    """write_csv of ``rows`` equals the reference bytes of the same rows."""
    path = tmp_path / "out.csv"
    csvio.write_csv(path, header, rows)
    assert path.read_bytes() == reference_csv(header, rows)


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
    assert_reference_bytes(tmp_path, ["a", "b", "c"], table)
    written = (tmp_path / "out.csv").read_text().splitlines()
    assert written[1:3] == ["0.0,0.0,0.0", "-0.0,-0.0,-0.0"]
    assert "nan,nan,nan" in written and "1e+16,1e+16,1e+16" in written
    assert "1e-05,1e-05,1e-05" in written and "0.0001,0.0001,0.0001" in written


def test_float_rows_as_tuples_match_the_array(tmp_path):
    table = odd_table()
    csvio.write_csv(tmp_path / "array.csv", ["a", "b", "c"], table)
    assert_reference_bytes(tmp_path, ["a", "b", "c"], [tuple(row) for row in table])
    assert_reference_bytes(tmp_path, ["a", "b", "c"], table.tolist())
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()


def test_float32_table(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        table = odd_table().astype(np.float32)
    table[0, 0] = np.float32(1e-45)  # a float32 subnormal
    table[1, 1] = _bits(0x7FF8000000000000).astype(np.float32)[0]
    assert_reference_bytes(tmp_path, ["a", "b", "c"], table)
    assert_reference_bytes(tmp_path, ["a", "b", "c"], [tuple(row) for row in table])


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda t: t[:, ::-1], lambda t: t[::-2], lambda t: t[:, :2]],
    ids=["fortran", "reversed-columns", "strided-rows", "column-slice"],
)
def test_array_layouts(tmp_path, layout):
    table = layout(odd_table(cols=4))
    header = [f"c{k}" for k in range(table.shape[1])]
    assert_reference_bytes(tmp_path, header, table)


@pytest.mark.parametrize("rows", [0, 1, csvio._BLOCK_ROWS, csvio._BLOCK_ROWS + 1, 2 * csvio._BLOCK_ROWS + 1])
def test_row_counts_around_blocks(tmp_path, rows):
    table = odd_table(rows=max(rows, ODD_FLOATS.size))[:rows]
    assert_reference_bytes(tmp_path, ["a", "b", "c"], table)
    assert_reference_bytes(tmp_path, ["a", "b", "c"], [tuple(row) for row in table])


def test_zero_rows_write_the_header_only(tmp_path):
    for rows in (np.empty((0, 2)), [], iter(())):
        csvio.write_csv(tmp_path / "out.csv", ["a", "b"], rows)
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\r\n"


def test_single_float_column(tmp_path):
    table = odd_table(cols=1)
    assert_reference_bytes(tmp_path, ["u"], table)
    assert_reference_bytes(tmp_path, ["u"], [(float(v),) for v in table[:, 0]])


def test_generator_rows(tmp_path):
    table = odd_table(rows=csvio._BLOCK_ROWS + 5)
    path = tmp_path / "gen.csv"
    csvio.write_csv(path, ["a", "b", "c"], (tuple(row) for row in table))
    assert path.read_bytes() == reference_csv(["a", "b", "c"], table)
    # rows that are themselves iterators
    csvio.write_csv(path, ["a", "b", "c"], (iter(row.tolist()) for row in table))
    assert path.read_bytes() == reference_csv(["a", "b", "c"], table)


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
    assert_reference_bytes(tmp_path, header, rows)
    first = (tmp_path / "out.csv").read_text().splitlines()[1]
    assert first == "label_0,0,True,0,0,0.0,0.0,0.0,0"


@pytest.mark.parametrize(
    "text",
    ["a,b", 'say "hi"', '"', "two\nlines", "carriage\rreturn", "crlf\r\n", "", " padded ", "plain"],
)
def test_text_cells_are_quoted_as_csv_writer_quotes_them(tmp_path, text):
    rows = [(text, 1.5, True), ("plain", -0.0, False), (text, np.nan, np.bool_(False))]
    assert_reference_bytes(tmp_path, ["label", "x", "pass"], rows)
    assert_reference_bytes(tmp_path, ["label"], [(text,), ("plain",), (text,)])
    assert_reference_bytes(tmp_path, ["label"], [(text,)] * (csvio._BLOCK_ROWS + 2))


def test_empty_text_cell_alone_in_its_row_is_quoted(tmp_path):
    csvio.write_csv(tmp_path / "out.csv", ["label"], [("",), ("a",)])
    assert (tmp_path / "out.csv").read_bytes() == b'label\r\n""\r\na\r\n'
    csvio.write_csv(tmp_path / "out.csv", ["label", "n"], [("", 1)])
    assert (tmp_path / "out.csv").read_bytes() == b"label,n\r\n,1\r\n"


def test_every_ascii_and_some_wider_characters_quote_as_csv_writer(tmp_path):
    chars = [chr(c) for c in range(1, 128)] + ["\x85", " ", "é", "\U0001f600"]
    rows = [(f"a{c}b", c, 0) for c in chars]
    assert_reference_bytes(tmp_path, ["wrapped", "bare", "n"], rows)
    assert_reference_bytes(tmp_path, ["bare"], [(c,) for c in chars])


def test_header_is_quoted_by_csv_writer(tmp_path):
    assert_reference_bytes(tmp_path, ["x,1", 'q"', "plain"], [(1.0, 2.0, 3.0)])


def test_ragged_rows_raise(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="row 1 has 2 cells"):
        csvio.write_csv(path, ["a", "b", "c"], [(1.0, 2.0, 3.0), (1.0, 2.0)])
    with pytest.raises(ValueError, match="row 0 has 4 cells"):
        csvio.write_csv(path, ["a", "b", "c"], [(1.0, 2.0, 3.0, 4.0)])
    with pytest.raises(ValueError, match="header"):
        csvio.write_csv(path, ["a", "b"], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="header"):
        csvio.write_csv(path, ["a"], np.zeros(3))
    with pytest.raises(ValueError, match="at least one column"):
        csvio.write_csv(path, [], [])


def test_certificate_commands_write_the_reference_bytes(tmp_path, monkeypatch):
    """Every CSV that solve, check-barriers, trace, extract-fb and verify-fb
    write on the 33^2 dam config equals the per-row writer's bytes."""
    real_write = csvio.write_csv
    written = []

    def checked_write(path, header, rows):
        rows = rows if isinstance(rows, np.ndarray) else list(rows)
        real_write(path, header, rows)
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(header, rows), path
        written.append(os.path.basename(path))

    monkeypatch.setattr(csvio, "write_csv", checked_write)
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    for command in ("solve", "check-barriers", "trace", "extract-fb", "verify-fb"):
        assert cli.main([command, "--config", cfg_path, "--out", out]) == 0, command
    assert sorted(written) == sorted([
        "field_certification.csv", "u.csv", "chi.csv", "barriers.csv", "trace.csv",
        "free_boundary.csv",
    ])
