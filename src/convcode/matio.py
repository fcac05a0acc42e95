"""Text serialization of binary matrices.

Format (shared across the repo): first line ``ROWS COLS``, each ASCII
decimal digits only, then ROWS lines of exactly COLS characters from
{0,1}, where character j of a line is column j (bit j of the row word).
Optional trailing comment lines start with ``#``.  The ``#blocks``
comment (``#``, optional blanks, then ``blocks`` ending the line or
followed by a blank or a comma) carries block sizes for conversion
matrices and transformed generators, each ASCII decimal digits only,
separated by commas or blanks.  The text is ASCII: lines end at ``\\n``
(a trailing ``\\r`` is dropped), and the only blanks are space and tab.
write_matrix streams the text one row per write, to stdout when the
path is None.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from .gf2 import BitMatrix

# Group 1 holds the block sizes.
_BLOCK_LINE = re.compile(r"#[ \t]*blocks([ \t,].*)?")


class MatrixFormatError(ValueError):
    """Malformed matrix text."""


def _matrix_lines(
    m: BitMatrix,
    blocks: Optional[Tuple[int, ...]] = None,
    block_sep: str = ",",
) -> Iterator[str]:
    """The matrix text one newline-terminated line at a time, so a writer
    holds one row of text, not the whole text."""
    yield f"{m.rows} {m.cols}\n"
    for w in m.row_words:
        yield format(w, f"0{m.cols}b")[::-1] + "\n"
    if blocks is not None:
        yield "#blocks " + block_sep.join(str(b) for b in blocks) + "\n"


def format_matrix(
    m: BitMatrix,
    blocks: Optional[Tuple[int, ...]] = None,
    block_sep: str = ",",
) -> str:
    return "".join(_matrix_lines(m, blocks, block_sep))


def parse_matrix(text: str) -> Tuple[BitMatrix, Optional[Tuple[int, ...]]]:
    """Parse matrix text; returns (matrix, blocks-or-None)."""
    lines = [ln.removesuffix("\r") for ln in text.split("\n")]
    lines = [ln for ln in lines if ln.strip(" \t")]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    header = re.findall(r"[^ \t]+", lines[0])
    # Checked first, as for the row lines: int() alone also takes signs,
    # "_" and non-ASCII digits, and refuses over 4300 digits itself.
    if len(header) != 2 or not all(h.isascii() and h.isdigit()
                                   for h in header):
        raise MatrixFormatError(f"bad header line: {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"bad header line: {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFormatError("ROWS and COLS must be >= 1")
    body = lines[1:]
    blocks: Optional[Tuple[int, ...]] = None
    row_lines: List[str] = []
    for ln in body:
        if ln.startswith("#"):
            block_line = _BLOCK_LINE.fullmatch(ln)
            if block_line:
                parts = re.findall(r"[^, \t]+", block_line[1] or "")
                if not all(p.isascii() and p.isdigit() for p in parts):
                    raise MatrixFormatError(f"bad #blocks line: {ln!r}")
                try:
                    blocks = tuple(int(p) for p in parts)
                except ValueError as exc:
                    raise MatrixFormatError(f"bad #blocks line: {ln!r}") from exc
            continue
        row_lines.append(ln.strip(" \t"))
    if len(row_lines) != rows:
        raise MatrixFormatError(
            f"expected {rows} row lines, found {len(row_lines)}"
        )
    for ln in row_lines:
        # Checked first: int(s, 2) alone also takes signs, "_", "0b" and
        # non-ASCII digits.
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise MatrixFormatError(f"bad row line: {ln!r}")
    return BitMatrix([int(ln[::-1], 2) for ln in row_lines], cols), blocks


def read_matrix(path: Union[str, Path]) -> Tuple[BitMatrix, Optional[Tuple[int, ...]]]:
    """Parse the file's text as read, with no newline translation, so the
    file obeys parse_matrix's line rules: \\r\\n ends a line, a bare \\r
    does not."""
    with open(path, newline="") as fh:
        return parse_matrix(fh.read())


def write_matrix(
    path: Optional[Union[str, Path]],
    m: BitMatrix,
    blocks: Optional[Tuple[int, ...]] = None,
    block_sep: str = ",",
) -> None:
    """Write the matrix text to path, or to stdout when path is None, one
    row per write, so the whole text is never built."""
    lines = _matrix_lines(m, blocks, block_sep)
    if path is None:
        sys.stdout.writelines(lines)
    else:
        with open(path, "w") as fh:
            fh.writelines(lines)
