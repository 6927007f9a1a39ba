"""Literal encoding helpers.

DIMACS literals are nonzero signed integers: ``v`` means "variable *v* is
true", ``-v`` means "variable *v* is false".

Encoded literals pack sign into the low bit so that a literal can index a
dense list: variable ``v`` (``v >= 1``) yields the positive literal
``2*v`` and the negative literal ``2*v + 1``.  Negation is therefore a
single XOR, and ``lit >> 1`` recovers the variable.
"""

from __future__ import annotations

# Truth values used by the solver's assignment vector.  ``UNASSIGNED`` is
# deliberately distinct from both booleans so that ``value ^ sign_bit``
# arithmetic only ever runs on assigned variables.
TRUE = 1
FALSE = 0
UNASSIGNED = -1

#: The largest variable a formula may name: the encoded literals of larger
#: ones (``2 * variable + 1``) do not fit the solver's int32 buffers.  The
#: DIMACS reader, the session stream and the service reject input past
#: it, and the solver refuses to grow its tables past it.
MAX_VARIABLES = 2**30 - 1


def encode_literal(dimacs_literal: int) -> int:
    """Convert a DIMACS literal to its encoded form.

    >>> encode_literal(3)
    6
    >>> encode_literal(-3)
    7
    """
    if dimacs_literal == 0:
        raise ValueError("0 is not a DIMACS literal (it terminates clauses)")
    variable = abs(dimacs_literal)
    return 2 * variable + (dimacs_literal < 0)


def decode_literal(encoded_literal: int) -> int:
    """Convert an encoded literal back to DIMACS form.

    >>> decode_literal(6)
    3
    >>> decode_literal(7)
    -3
    """
    variable = encoded_literal >> 1
    if variable == 0:
        raise ValueError(f"{encoded_literal} does not encode a literal of a variable >= 1")
    return -variable if encoded_literal & 1 else variable


def negate_literal(encoded_literal: int) -> int:
    """Return the complement of an encoded literal.

    >>> negate_literal(6)
    7
    """
    return encoded_literal ^ 1


def variable_of(encoded_literal: int) -> int:
    """Return the variable index of an encoded literal.

    >>> variable_of(7)
    3
    """
    return encoded_literal >> 1


def is_negative(encoded_literal: int) -> bool:
    """True when the encoded literal is the negative phase of its variable."""
    return bool(encoded_literal & 1)


def literal_for(variable: int, value: bool) -> int:
    """Return the encoded literal satisfied when ``variable`` takes ``value``.

    >>> literal_for(3, True)
    6
    >>> literal_for(3, False)
    7
    """
    if variable < 1:
        raise ValueError("variables are numbered from 1")
    return 2 * variable + (not value)
