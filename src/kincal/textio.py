"""The text-record rules that every kincal file format shares.

A record is a line that is neither blank nor starts with ``#``, split on
whitespace; a format's version header is its first record.  A record has
an exact number of fields and its 0/1 flags are ``0`` or ``1``.  Loaders
raise ``ValueError`` while parsing a record and report it once, through
``located``, as ``ParseError("path:line: message")``.  Floats are written
with ``repr``, so each one, -0.0 and subnormals included, reads back
exactly (nan is written as ``nan``).  Each format's grammar stays with its
types; this module holds only these rules.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import ParseError


def records(path, header=None) -> Iterator[tuple[int, list[str]]]:
    """Each record of ``path`` as (1-based line number, tokens), read as
    the caller iterates.

    With ``header``, the first record must be that header; it is checked
    and left out.
    """
    with open(path) as fh:
        found = ((lineno, tokens) for lineno, tokens in enumerate(map(str.split, fh), 1)
                 if tokens and not tokens[0].startswith("#"))
        if header is not None and next(found, (0, None))[1] != header.split():
            raise ParseError(f"{path}: missing '{header}' header")
        yield from found


def located(path, lineno, exc) -> ParseError:
    """``exc``, raised while parsing line ``lineno`` of ``path``, as the
    ParseError that names that line."""
    return ParseError(f"{path}:{lineno}: {exc}")


def expect_fields(tokens, count):
    if len(tokens) != count:
        raise ValueError(f"expected {count} fields, got {len(tokens)}")


def flag(token) -> bool:
    if token not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {token!r}")
    return token == "1"


def floats(*parts) -> str:
    """Scalars and vectors, in order, as space-separated ``repr`` floats."""
    return " ".join(map(repr, np.hstack(parts).astype(float).tolist()))


def float_rows(array) -> Iterator[str]:
    """``floats`` of each row of a 2-D array, from one conversion of the
    whole array."""
    return (" ".join(map(repr, row)) for row in np.asarray(array, dtype=float).tolist())


def write_lines(path, lines):
    """Write each line followed by a newline; no lines give an empty file."""
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)
