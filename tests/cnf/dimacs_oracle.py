"""The reference DIMACS reader: the line-by-line parser the words reader
replaced, kept as the oracle of ``test_dimacs_oracle.py``.

It sorts every line into comment, header or clause line, converts the
clause lines, cuts the values into one list per clause at the zeros,
and returns ``(clauses, num_variables, comment)``.  The variable bound
is added in the same style: a header or a literal past
``MAX_VARIABLES`` is an error on its line, and the first offending line
in file order wins.
"""

from __future__ import annotations

from repro.cnf.dimacs import DimacsError
from repro.cnf.literals import MAX_VARIABLES


def oracle_parse(text: str) -> tuple[list[list[int]], int, str]:
    declared_variables: int | None = None
    declared_clauses: int | None = None
    comments: list[str] = []
    body: list[str] = []
    body_numbers: list[int] = []
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
                _raise_on_bad_token(body, body_numbers)
                raise
            continue
        body.append(line)
        body_numbers.append(line_number)

    try:
        values = list(map(int, " ".join(body).split()))
    except ValueError:
        _raise_on_bad_token(body, body_numbers)
        raise
    if values and max(map(abs, values)) > MAX_VARIABLES:
        _raise_on_bad_token(body, body_numbers)
    clauses: list[list[int]] = []
    start = 0
    for _ in range(values.count(0)):
        end = values.index(0, start)
        clauses.append(values[start:end])
        start = end + 1
    if start < len(values):
        clauses.append(values[start:])

    comment = "\n".join(comments)
    num_variables = max(
        declared_variables or 0, max(values, default=0), -min(values, default=0)
    )
    if declared_clauses is not None and declared_clauses != len(clauses):
        comment += f"\n(header declared {declared_clauses} clauses, file has {len(clauses)})"
    return clauses, num_variables, comment


def _parse_header(line: str, line_number: int) -> tuple[int, int]:
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


def _raise_on_bad_token(lines: list[str], numbers: list[int]) -> None:
    for line, line_number in zip(lines, numbers):
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
