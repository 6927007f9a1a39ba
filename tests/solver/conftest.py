"""Fixtures for the engine tests that build learned stacks by hand."""

from __future__ import annotations

import pytest

from repro.cnf.literals import encode_literal


@pytest.fixture
def push_learned():
    """``push(solver, dimacs, activity=0, lbd=0) -> ref``.

    Appends a learned record to the solver's clause stack, sets its
    clause activity, and indexes it for propagation — what conflict
    learning does, minus the search that would produce the clause.
    """

    def push(solver, dimacs, activity=0, lbd=0):
        ref = solver._push_record(
            [encode_literal(lit) for lit in dimacs], learned=True, lbd=lbd
        )
        solver.clause_act[solver.arena[ref + 2]] = activity
        solver.learned.append(ref)
        solver._attach_ref(ref)
        return ref

    return push
