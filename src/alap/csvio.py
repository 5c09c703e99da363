"""CSV output with reproducible formatting.

All files use '.' decimal, comma separator, a header row, UTF-8, and
shortest-roundtrip float formatting, so identical runs produce identical
bytes.

A table is handed over as columns, one 1-D sequence per header name, all
of one length. Each column is turned once into its distinct cell texts,
each quoted once the way ``csv.writer`` quotes it, and an inverse that
picks each row's text. A cell's text is ``format_value`` of it, so the
bytes are those of a per-row ``csv.writer`` loop over the same cells.
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


def _keyed_texts(column, alone):
    """(texts, inverse) of ``column``: each row's cell is
    ``texts[inverse[row]]``, each distinct text quoted once as csv.writer
    quotes it (``alone``: the column is its rows' only field, where an
    empty cell is quoted).

    A float array is keyed by its float64 bit patterns, not its values,
    which would merge 0.0 with -0.0 and the NaN payloads; an int or bool
    array by value, whose Python ``str`` is format_value of the numpy
    scalar; any other column by each cell's format_value text, a ``str``
    cell being its own text."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
        keys, inverse = np.unique(bits, return_inverse=True)
        return list(map(repr, keys.view(np.float64).tolist())), inverse
    if kind in ("b", "i", "u"):
        keys, inverse = np.unique(column, return_inverse=True)
        return list(map(str, keys.tolist())), inverse
    # a number's text is never empty and holds no quote character; a cell's may
    index = {}
    cells = (v if type(v) is str else format_value(v) for v in column)
    inverse = np.array([index.setdefault(s, len(index)) for s in cells], dtype=np.intp)
    texts = [
        s if _QUOTE_CHARS.isdisjoint(s) and (s or not alone) else '"' + s.replace('"', '""') + '"'
        for s in index
    ]
    return texts, inverse


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
    keyed = [_keyed_texts(col, width == 1) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, lengths[0], _BLOCK_ROWS):
            # lists, not lazy maps: each column's block of ints is freed before the join
            cells = [list(map(texts.__getitem__, inverse[start : start + _BLOCK_ROWS].tolist()))
                     for texts, inverse in keyed]
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")
