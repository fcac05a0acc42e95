import pytest
from hypothesis import given, settings, strategies as st

from convcode.cli import main
from convcode.gf2 import BitMatrix
from convcode.matio import (
    MatrixFormatError,
    format_matrix,
    parse_matrix,
    read_matrix,
    write_matrix,
)

from tests.conftest import GF_ROWS


def test_format_simple():
    m = BitMatrix.from_rows([[1, 0], [0, 1]])
    assert format_matrix(m) == "2 2\n10\n01\n"


def test_format_with_blocks():
    m = BitMatrix.from_rows([[1, 0], [0, 1]])
    assert format_matrix(m, blocks=(1, 1)) == "2 2\n10\n01\n#blocks 1,1\n"


def test_format_with_space_separated_blocks():
    m = BitMatrix.from_rows([[1, 0]])
    text = format_matrix(m, blocks=(1, 1), block_sep=" ")
    assert text.endswith("#blocks 1 1\n")


def test_round_trip_no_blocks():
    m = BitMatrix.from_rows(GF_ROWS)
    parsed, blocks = parse_matrix(format_matrix(m))
    assert parsed == m
    assert blocks is None


@pytest.mark.parametrize("sep", [",", " "])
def test_round_trip_blocks_both_separators(sep):
    m = BitMatrix.from_rows(GF_ROWS)
    parsed, blocks = parse_matrix(format_matrix(m, blocks=(3, 3), block_sep=sep))
    assert parsed == m
    assert blocks == (3, 3)


def test_parse_ignores_plain_comments_and_blank_lines():
    text = "2 3\n\n101\n# a remark\n011\n\n"
    m, blocks = parse_matrix(text)
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1]]
    assert blocks is None


def test_parse_crlf():
    m, _ = parse_matrix("1 2\r\n10\r\n")
    assert m.to_lists() == [[1, 0]]


def test_parse_takes_ascii_blanks_around_fields_and_rows():
    m, blocks = parse_matrix(" 2\t 3 \r\n\t101 \r\n \t\n 011\t\n")
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1]]
    assert blocks is None


# A comment is the block line only when "blocks" follows "#" and optional
# blanks, and ends the line or is followed by a blank or a comma.
@pytest.mark.parametrize("comment, blocks", [
    ("#blocksize of the code", None),
    ("#blocks3", None),
    ("#blocks", ()),
    ("#blocks 3,3", (3, 3)),
    ("# blocks 3,3", (3, 3)),
    ("#blocks,3,3", (3, 3)),
    ("#\tblocks 3 \t3 ", (3, 3)),
])
def test_block_line_is_blocks_then_a_blank_comma_or_end(comment, blocks):
    assert parse_matrix(f"1 3\n101\n{comment}\n")[1] == blocks


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n10\n01\n",
        "x 2\n10\n01\n",
        "0 2\n",
        "2 2\n10\n",
        "2 2\n10\n01\n11\n",
        "1 2\n012\n",
        "1 2\n1\n",
        "1 2\n10\n#blocks a,b\n",
        # int() takes each of these, but header fields and #blocks
        # entries are ASCII decimal digits.
        "+1 3\n101\n",
        "1 +3\n101\n",
        "0_1 3\n101\n",
        "\u0661 3\n101\n",
        "1 \uff13\n101\n",
        "1 3\n101\n#blocks +3\n",
        "1 3\n101\n#blocks 1_0\n",
        "1 3\n101\n#blocks -1,7\n",
        "1 3\n101\n#blocks \u0663\n",
        # The format is ASCII: blanks are space and tab, lines end at \n.
        "1\xa03\n101\n",
        "1 3\n\u2003101\n",
        "2 3\n101\x85110\n",
        "2 3\n101\u2028110\n",
        # Past int()'s 4300-digit limit, which raises a bare ValueError.
        pytest.param("1" * 5000 + " 2\n10\n", id="header-past-4300-digits"),
        pytest.param("1 2\n10\n#blocks " + "1" * 5000 + "\n",
                     id="blocks-past-4300-digits"),
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MatrixFormatError):
        parse_matrix(text)


def test_file_round_trip(tmp_path):
    m = BitMatrix.from_rows(GF_ROWS)
    path = tmp_path / "g.txt"
    write_matrix(path, m, blocks=(3, 3))
    back, blocks = read_matrix(path)
    assert back == m
    assert blocks == (3, 3)


def test_read_matrix_takes_crlf_and_refuses_a_bare_cr(tmp_path, capsys):
    # The file is read with no newline translation, so read_matrix keeps
    # parse_matrix's rules: \r\n ends a line, a bare \r does not, and
    # `info` on the bare-\r file exits 2.
    crlf, cr = tmp_path / "crlf.txt", tmp_path / "cr.txt"
    crlf.write_bytes(b"1 3\r\n101\r\n")
    cr.write_bytes(b"1 3\r101\r")
    assert read_matrix(crlf) == (BitMatrix([0b101], 3), None)
    assert main(["info", str(crlf)]) == 0
    for refuse in (lambda: parse_matrix(cr.read_bytes().decode()),
                   lambda: read_matrix(cr)):
        with pytest.raises(MatrixFormatError, match="bad header line"):
            refuse()
    capsys.readouterr()
    assert main(["info", str(cr)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("blocks, sep", [(None, ","), ((3, 3), " ")])
def test_write_matrix_without_a_path_writes_stdout(capsys, blocks, sep):
    m = BitMatrix.from_rows(GF_ROWS)
    write_matrix(None, m, blocks, block_sep=sep)
    assert capsys.readouterr().out == format_matrix(m, blocks, block_sep=sep)


def format_per_bit(m):
    """The per-bit formatter that format_matrix replaced: the reference."""
    lines = [f"{m.rows} {m.cols}"]
    for w in m.row_words:
        lines.append("".join(str((w >> j) & 1) for j in range(m.cols)))
    return "\n".join(lines) + "\n"


def parse_row_per_bit(line, cols):
    """The per-bit row parser that parse_matrix replaced: the reference.
    Returns the row word, or None where it rejected the line."""
    line = line.strip()
    if len(line) != cols or set(line) - {"0", "1"}:
        return None
    return BitMatrix.from_rows([[int(c) for c in line]]).row_words[0]


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 200))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1),
                          min_size=rows, max_size=rows))
    return BitMatrix(words, cols)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_round_trip_matches_per_bit_reference(m):
    text = format_matrix(m)
    assert text == format_per_bit(m)
    parsed, blocks = parse_matrix(text)
    assert parsed == m and blocks is None
    lines = text.splitlines()[1:]
    assert [parse_row_per_bit(ln, m.cols) for ln in lines] == list(m.row_words)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 6), st.text(alphabet="01+-_b x ", min_size=1,
                                  max_size=8))
def test_row_parse_matches_per_bit_reference(cols, line):
    expected = parse_row_per_bit(line, cols)
    text = f"1 {cols}\n{line}\n"
    if expected is None:
        with pytest.raises(MatrixFormatError):
            parse_matrix(text)
    else:
        assert parse_matrix(text)[0].row_words == (expected,)


# Rows that int(s, 2) alone would take (signs, underscores, a 0b prefix,
# Unicode digits, a wrong length) or reject with a bare ValueError.
@pytest.mark.parametrize(
    "row",
    ["+11", "-11", "1_1", "0b1", "1 1", "\u0661\u0660\u0661", "1011", "10"],
)
def test_parse_rejects_what_int_accepts(row):
    with pytest.raises(MatrixFormatError):
        parse_matrix(f"1 3\n{row}\n")

