"""Writes CSV rows that arrive as raw float64 values on standard input.

    python -I -S _csv_writer.py PATH WIDTH HEADER ROW

Reads rows of WIDTH native float64 values from standard input until it
is closed, and writes the line HEADER, then each row as ``ROW % row``,
to PATH. If PATH cannot be written, or the input ends inside a row, it
prints one line to standard error and exits 1.

It uses the standard library only. ``midpointfp.cli`` starts it as a
separate process, so that a long run's trace.csv is formatted on another
CPU while the run goes on, and formats every other CSV file with its
:func:`write_rows`.
"""

import os
import struct
import sys

READ_ROWS = 64  # rows per read; the sender sends whole rows


def write_rows(out, row: str, width: int, data) -> None:
    """Write each ``width`` native float64 values of the buffer ``data``
    (bytes, or a C-contiguous float64 array: no copy) as ``row % values``."""
    out.writelines(row % cells for cells in struct.iter_unpack(f"{width}d", data))


def main(path: str, width: str, header: str, row: str) -> None:
    width = int(width)
    with open(path, "w", newline="") as out:
        out.write(header)
        while data := sys.stdin.buffer.read(READ_ROWS * 8 * width):
            write_rows(out, row, width, data)


if __name__ == "__main__":
    # os._exit skips the interpreter's teardown, which the parent would wait for
    try:
        main(*sys.argv[1:])
    except (OSError, struct.error) as exc:  # one line for the parent to relay
        print(exc, file=sys.stderr, flush=True)
        os._exit(1)
    os._exit(0)  # the file is closed
