"""CSV output with reproducible formatting.

All files use '.' decimal, comma separator, a header row, UTF-8, and
shortest-roundtrip float formatting, so identical runs produce identical
bytes.

A table is handed over as columns, one 1-D sequence per header name, all
of one length. A float array column formats each distinct float64 bit
pattern once with ``repr``, and an int or bool array each distinct value
once with ``str``; any other column (a list, labels) formats each cell with
``format_value``, a ``str`` cell being its own text, and quotes it the way
``csv.writer`` does. Every path gives ``format_value`` of the cell, so the
path a column takes changes speed, not bytes: the bytes are those of a
per-row ``csv.writer`` loop over the same cells.
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


def _keyed_cells(text, inverse):
    """A function of a row slice that gives ``text[inverse[row]]`` for each
    row in it."""
    return lambda rows: list(map(text.__getitem__, inverse[rows].tolist()))


def _float_cells(column):
    """A function of a row slice that gives the repr of each value in it.

    Each distinct float64 bit pattern of the column is formatted once. Bits,
    not values, are the keys: values would merge 0.0 with -0.0.
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    return _keyed_cells(list(map(repr, keys.view(np.float64).tolist())), inverse)


def _int_cells(column):
    """A function of a row slice that gives format_value of each cell of an
    int or bool array in it: each distinct value is formatted once, as the
    ``str`` of its Python int or bool, which is what format_value gives for
    the numpy scalar. No such cell needs quoting."""
    keys, inverse = np.unique(column, return_inverse=True)
    return _keyed_cells(list(map(str, keys.tolist())), inverse)


def _text_cells(column, alone):
    """A function of a row slice that gives format_value of each cell in it,
    quoted as csv.writer quotes it; ``alone`` when the cell is its row's only
    field, where csv.writer quotes an empty cell. A ``str`` cell is its own
    text."""

    def cells(rows):
        text = [v if type(v) is str else format_value(v) for v in column[rows]]
        quoted = {}
        for s in set(text):
            plain = _QUOTE_CHARS.isdisjoint(s) and (s or not alone)
            quoted[s] = s if plain else '"' + s.replace('"', '""') + '"'
        return list(map(quoted.__getitem__, text))

    return cells


def _cells_of(column, alone):
    """The cell function of one column, by its kind."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return _float_cells(column)
    if kind in ("b", "i", "u"):
        return _int_cells(column)
    return _text_cells(column, alone)


def write_csv(path, header, columns):
    """Write ``header`` and ``columns``, one 1-D sequence per header name,
    all of one length. A flag column must hold ints: a ``np.bool_`` cell
    formats as ``True``."""
    width = len(header)
    if not width:
        raise ValueError("a CSV file needs at least one column")
    if len(columns) != width:
        raise ValueError(f"{len(columns)} columns do not fit {width} header names")
    lengths = sorted({len(col) for col in columns})
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    formatters = [_cells_of(col, width == 1) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, lengths[0], _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            cells = [cells_of(block) for cells_of in formatters]
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")
