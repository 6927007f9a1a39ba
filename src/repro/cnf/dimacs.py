"""DIMACS CNF reader and writer.

The parser is deliberately liberal, matching what SAT-competition tools
accept in practice:

* ``c`` comment lines anywhere (collected into the formula's comment);
* a single ``p cnf <vars> <clauses>`` header (optional — headerless
  files are accepted and the counts inferred);
* clauses terminated by ``0``, possibly spanning several lines or
  sharing a line;
* ``%`` / trailing ``0`` end markers emitted by some generators.

It is strict about one bound: a header or literal naming a variable past
:data:`~repro.cnf.literals.MAX_VARIABLES` is an error.

The formula it returns keeps the clauses as words (see
:mod:`repro.cnf.formula`) until someone reads ``formula.clauses``.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterator

from repro.cnf.formula import CnfFormula
from repro.cnf.literals import MAX_VARIABLES


class DimacsError(ValueError):
    """Raised when a DIMACS file is malformed."""


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF ``text`` into a :class:`CnfFormula`.

    The lines up to the first clause line are read one by one; the rest,
    the body, is converted as a whole.  Only a body holding something
    other than integers in range (a comment, a header, ``%`` or a bad
    token) is sorted out line by line as well.  An error names the first
    offending line, in file order.
    """
    header: list[int] = []  # the declared variable and clause counts
    comments: list[str] = []
    start, line_number = _read_lines(text, 0, 1, header, comments, None)
    values = _integers(text[start:].split())
    if values is None:
        clause_lines: list[tuple[int, str]] = []
        _read_lines(text, start, line_number, header, comments, clause_lines)
        values = _integers(" ".join(line for _, line in clause_lines).split())
        if values is None:
            _raise_on_bad_token(clause_lines)
    numbers, largest = values
    if numbers and numbers[-1]:
        numbers.append(0)  # tolerate a missing final terminator
    num_clauses = numbers.count(0)
    comment = "\n".join(comments)
    if header and header[1] != num_clauses:
        # Header mismatches are common in the wild; record rather than fail.
        comment += f"\n(header declared {header[1]} clauses, file has {num_clauses})"
    return CnfFormula.from_words(
        array("i", numbers), num_clauses, max(header[0] if header else 0, largest), comment
    )


def _lines(text: str, offset: int) -> Iterator[tuple[int, str]]:
    """The lines of ``text`` from ``offset`` as ``str.splitlines`` cuts
    them (line ends kept), each with its offset.  Every ``\\n`` ends a
    line, so splitting up to each one leaves the cuts unchanged."""
    while offset < len(text):
        stop = text.find("\n", offset) + 1 or len(text)
        for line in text[offset:stop].splitlines(True):
            yield offset, line
            offset += len(line)


def _read_lines(
    text: str,
    offset: int,
    line_number: int,
    header: list[int],
    comments: list[str],
    clause_lines: list[tuple[int, str]] | None,
) -> tuple[int, int]:
    """Sort the lines from ``offset`` (line ``line_number``) one by one.

    Comments go to ``comments`` and the header's counts to ``header``.
    With ``clause_lines`` ``None``, stop at the first clause line and
    return its offset and number; otherwise append every clause line,
    with its number, and return the end.  A header error raises, unless
    a clause line before it holds a bad token (an earlier line's error
    wins).
    """
    ended = False
    for offset, raw_line in _lines(text, offset):
        line = raw_line.strip()
        if line:
            head = line[0]
            if head == "c":
                comments.append(line[1:].strip())
            elif head == "%":
                # SATLIB-style end marker; everything after it is ignored.
                ended = True
            elif ended:
                pass
            elif head == "p":
                try:
                    if header:
                        raise DimacsError(f"line {line_number}: duplicate problem header")
                    header += _parse_header(line, line_number)
                except DimacsError:
                    _raise_on_bad_token(clause_lines or ())
                    raise
            elif clause_lines is None:
                return offset, line_number
            else:
                clause_lines.append((line_number, line))
        line_number += 1
    return len(text), line_number


def _integers(tokens: list[str]) -> tuple[list[int], int] | None:
    """The integers ``tokens`` spell and the largest variable they name,
    or ``None`` when a token is not an integer or names a variable past
    :data:`MAX_VARIABLES`.

    A body repeats few distinct tokens, so each is converted once.
    """
    try:
        value_of = {token: int(token) for token in set(tokens)}
    except ValueError:
        return None
    largest = max(map(abs, value_of.values()), default=0)
    if largest > MAX_VARIABLES:
        return None
    return list(map(value_of.__getitem__, tokens)), largest


def _parse_header(line: str, line_number: int) -> tuple[int, int]:
    """The variable and clause counts of a ``p cnf`` line."""
    fields = line.split()
    if len(fields) != 4 or fields[1] != "cnf":
        raise DimacsError(f"line {line_number}: malformed header {line!r}")
    try:
        variables = int(fields[2])
        clauses = int(fields[3])
    except ValueError as exc:
        raise DimacsError(f"line {line_number}: non-integer header field") from exc
    if variables < 0 or clauses < 0:
        raise DimacsError(f"line {line_number}: negative header field")
    if variables > MAX_VARIABLES:
        raise DimacsError(
            f"line {line_number}: {variables} variables, past the largest, {MAX_VARIABLES}"
        )
    return variables, clauses


def _raise_on_bad_token(lines) -> None:
    """Raise for the first token of the numbered ``lines`` that is not an
    integer or names a variable past :data:`MAX_VARIABLES`."""
    for line_number, line in lines:
        for token in line.split():
            try:
                value = int(token)
            except ValueError as exc:
                raise DimacsError(f"line {line_number}: bad token {token!r}") from exc
            if abs(value) > MAX_VARIABLES:
                raise DimacsError(
                    f"line {line_number}: variable {abs(value)} is past the largest, "
                    f"{MAX_VARIABLES}"
                )


def parse_dimacs_file(path: str | os.PathLike) -> CnfFormula:
    """Parse the DIMACS CNF file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize ``formula`` to DIMACS CNF text."""
    lines: list[str] = []
    for comment_line in formula.comment.splitlines():
        lines.append(f"c {comment_line}" if comment_line else "c")
    lines.append(f"p cnf {formula.num_variables} {formula.num_clauses}")
    for clause in formula.clauses:
        lines.append(" ".join(str(literal) for literal in clause) + " 0")
    return "\n".join(lines) + "\n"


def write_dimacs_file(formula: CnfFormula, path: str | os.PathLike) -> None:
    """Write ``formula`` to ``path`` in DIMACS CNF format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_dimacs(formula))
