"""DIMACS CNF reader and writer.

The parser is deliberately liberal, matching what SAT-competition tools
accept in practice:

* ``c`` comment lines anywhere (collected into the formula's comment);
* a single ``p cnf <vars> <clauses>`` header (optional — headerless
  files are accepted and the counts inferred);
* clauses terminated by ``0``, possibly spanning several lines or
  sharing a line;
* ``%`` / trailing ``0`` end markers emitted by some generators.
"""

from __future__ import annotations

import os
from repro.cnf.formula import CnfFormula


class DimacsError(ValueError):
    """Raised when a DIMACS file is malformed."""


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF ``text`` into a :class:`CnfFormula`.

    One pass over the lines sorts out comments, the header and clause
    lines; the clause lines are then converted with one ``map(int, ...)``
    and split at the zeros.  An error names the first offending line,
    in file order.
    """
    declared_variables: int | None = None
    declared_clauses: int | None = None
    comments: list[str] = []
    body: list[str] = []  # clause lines
    body_numbers: list[int] = []  # and their line numbers
    ended = False

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        head = line[0]
        if head == "c":
            comments.append(line[1:].strip())
            continue
        if head == "%":
            # SATLIB-style end marker; everything after it is ignored.
            ended = True
            continue
        if ended:
            continue
        if head == "p":
            try:
                if declared_variables is not None:
                    raise DimacsError(f"line {line_number}: duplicate problem header")
                declared_variables, declared_clauses = _parse_header(line, line_number)
            except DimacsError:
                _raise_on_bad_token(body, body_numbers)  # an earlier line's error wins
                raise
            continue
        body.append(line)
        body_numbers.append(line_number)

    try:
        values = list(map(int, " ".join(body).split()))
    except ValueError:
        _raise_on_bad_token(body, body_numbers)
        raise
    clauses: list[list[int]] = []
    start = 0
    for _ in range(values.count(0)):
        end = values.index(0, start)
        clauses.append(values[start:end])
        start = end + 1
    if start < len(values):
        # Tolerate a missing final terminator.
        clauses.append(values[start:])

    formula = CnfFormula(comment="\n".join(comments))
    # Every literal is a nonzero int by construction, so the clauses are
    # stored without CnfFormula.add_clause's per-literal check.
    formula.clauses = clauses
    formula.num_variables = max(
        declared_variables or 0, max(values, default=0), -min(values, default=0)
    )
    if declared_clauses is not None and declared_clauses != len(clauses):
        # Header mismatches are common in the wild; record rather than fail.
        formula.comment += f"\n(header declared {declared_clauses} clauses, file has {len(clauses)})"
    return formula


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
    return variables, clauses


def _raise_on_bad_token(lines: list[str], numbers: list[int]) -> None:
    """Raise for the first token of ``lines`` that is not an integer."""
    for line, line_number in zip(lines, numbers):
        for token in line.split():
            try:
                int(token)
            except ValueError as exc:
                raise DimacsError(f"line {line_number}: bad token {token!r}") from exc


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
