"""CSV output with reproducible formatting.

All files use '.' decimal, comma separator, a header row, UTF-8, and
shortest-roundtrip float formatting, so identical runs produce identical
bytes.
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


#: rows per block when a float array is written
_BLOCK_ROWS = 4096


def write_csv(path, header, rows):
    """Write ``header`` and ``rows``: an iterable of mixed-type rows, or a
    2-D float array."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            # the bytes csv.writer gives: a Python float's repr never needs
            # quoting, and its line terminator is \r\n; rows go out in
            # blocks, so only one block's Python floats are alive at a time
            for start in range(0, rows.shape[0], _BLOCK_ROWS):
                block = rows[start : start + _BLOCK_ROWS].tolist()
                fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block)
            return
        for row in rows:
            writer.writerow([format_value(v) for v in row])
