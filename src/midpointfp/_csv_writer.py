"""Writes CSV rows that arrive as raw float64 values on standard input.

    python -I -S _csv_writer.py PATH WIDTH HEADER ROW

Reads rows of WIDTH native float64 values from standard input until it
is closed, and writes the line HEADER, then each row as ``ROW % row``,
to PATH. If PATH cannot be written, or the input ends inside a row, it
prints one line to standard error and exits 1.

It uses the standard library only. ``midpointfp.cli`` starts it as a
separate process, so that a long run's trace.csv is formatted on another
CPU while the run goes on, and never imports it.
"""

import struct
import sys

READ_ROWS = 64  # rows per read; the sender sends whole rows


def main(path: str, width: str, header: str, row: str) -> None:
    rows = struct.Struct(f"{int(width)}d")
    stdin = sys.stdin.buffer
    with open(path, "w", newline="") as out:
        out.write(header)
        while data := stdin.read(READ_ROWS * rows.size):
            out.writelines(row % cells for cells in rows.iter_unpack(data))


if __name__ == "__main__":
    try:
        main(*sys.argv[1:])
    except (OSError, struct.error) as exc:  # one line for the parent to relay
        print(exc, file=sys.stderr)
        sys.exit(1)
