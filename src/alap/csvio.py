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


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
