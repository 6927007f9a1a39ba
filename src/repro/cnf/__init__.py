"""CNF substrate: literals, formulas, DIMACS I/O and preprocessing.

This package provides the propositional-logic foundation shared by the
CDCL solver (:mod:`repro.solver`), the circuit encoders
(:mod:`repro.circuits`) and the instance generators
(:mod:`repro.generators`).

Two literal representations are used throughout the project:

* **DIMACS literals** — nonzero signed integers, ``v`` / ``-v``.  This is
  the public, user-facing representation (clauses are lists of signed
  ints, exactly as in a ``.cnf`` file).
* **Encoded literals** — nonnegative integers ``2*v`` (positive) and
  ``2*v + 1`` (negative).  The solver uses this internally so literals
  can index dense arrays (watch chains, activity tables).

Conversion helpers live in :mod:`repro.cnf.literals`.
"""

from repro.cnf.dimacs import parse_dimacs, parse_dimacs_file, write_dimacs, write_dimacs_file
from repro.cnf.elimination import PreprocessResult, preprocess, subsumption_reduce
from repro.cnf.formula import CnfFormula
from repro.cnf.literals import (
    decode_literal,
    encode_literal,
    literal_for,
    negate_literal,
    variable_of,
)
from repro.cnf.shuffle import shuffle_formula
from repro.cnf.simplify import SimplifyResult, simplify_formula

__all__ = [
    "CnfFormula",
    "PreprocessResult",
    "SimplifyResult",
    "preprocess",
    "subsumption_reduce",
    "decode_literal",
    "encode_literal",
    "literal_for",
    "negate_literal",
    "parse_dimacs",
    "parse_dimacs_file",
    "shuffle_formula",
    "simplify_formula",
    "variable_of",
    "write_dimacs",
    "write_dimacs_file",
]
