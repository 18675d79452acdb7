"""The one writer of every CSV and JSON output, for ``cli`` and ``channel``."""

import json
import os
import stat
import sys

import numpy as np


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout for None or ``-``.

    An existing file is overwritten in place and then cut to the new length:
    truncating to zero first makes ext4 flush the file on close.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON; a NaN or infinity raises ValueError and writes nothing."""
    write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


def write_csv(path, header: str, columns) -> None:
    """Write equal-length ``columns`` (arrays, lists or ranges) under ``header``."""
    cells = [map(repr, np.asarray(column).tolist()) for column in columns]
    write_text(path, "\n".join([header, *map(",".join, zip(*cells))]) + "\n")
