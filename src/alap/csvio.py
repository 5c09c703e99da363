"""CSV output with reproducible formatting.

All files use '.' decimal, comma separator, a header row, UTF-8, and
shortest-roundtrip float formatting, so identical runs produce identical
bytes.

Files are written column by column. A column whose cells are all floats
formats each distinct float64 bit pattern once with ``repr``; any other
column formats each cell with ``format_value`` and quotes it the way
``csv.writer`` does. The bytes are those of a per-row ``csv.writer`` loop.
"""

import csv

import numpy as np


def format_value(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        # numpy scalars repr as 'np.float64(...)'; the Python float keeps
        # the shortest round-trip digits
        return repr(float(v))
    return str(v)


#: rows per output block; only one block's lines are built at a time
_BLOCK_ROWS = 4096

#: characters that make csv.writer's minimal quoting quote a cell
_QUOTE_CHARS = frozenset(',"\r\n')


def _float_cells(column):
    """A function of a row slice that gives the repr of each value in it.

    Each distinct float64 bit pattern of the column is formatted once. Bits,
    not values, are the keys: values would merge 0.0 with -0.0.
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = list(map(repr, keys.view(np.float64).tolist()))
    return lambda rows: list(map(text.__getitem__, inverse[rows].tolist()))


def _text_cells(column, alone):
    """A function of a row slice that gives format_value of each cell in it,
    quoted as csv.writer quotes it; ``alone`` when the cell is its row's only
    field, where csv.writer quotes an empty cell."""

    def cells(rows):
        text = list(map(format_value, column[rows]))
        quoted = {}
        for s in set(text):
            plain = _QUOTE_CHARS.isdisjoint(s) and (s or not alone)
            quoted[s] = s if plain else '"' + s.replace('"', '""') + '"'
        return list(map(quoted.__getitem__, text))

    return cells


def write_csv(path, header, rows):
    """Write ``header`` and ``rows``: an iterable of mixed-type rows, or a
    2-D float array. Every row must have one cell per header name."""
    width = len(header)
    if not width:
        raise ValueError("a CSV file needs at least one column")
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"rows of shape {rows.shape} do not fit {width} header names")
        formatters = [_float_cells(col) for col in rows.T]
    else:
        rows = [tuple(row) for row in rows]
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, the header has {width}")
        formatters = [
            _float_cells(col)
            if all(isinstance(v, (float, np.floating)) for v in col)
            else _text_cells(col, width == 1)
            for col in zip(*rows)
        ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            cells = [cells_of(block) for cells_of in formatters]
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")
