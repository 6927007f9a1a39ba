"""Incremental solving sessions (IPASIR-style) with retention and caching.

Public surface:

* :class:`SolverSession` — ``add_clause()`` / ``add_clauses()`` /
  ``solve(assumptions=...)`` / ``unsat_core()`` over one long-lived
  solver, with glue-filtered learned-clause carry-over between calls
  and RSCK-envelope snapshots (``save()`` / ``load()``);
* :class:`AnswerCache` — result memoisation keyed by the
  order-insensitive canonical formula fingerprint, shareable between
  sessions;
* :class:`SessionClosedError` — raised by a closed session.

See the "Incremental solving" section of ``docs/API.md``.
"""

from repro.session.cache import AnswerCache
from repro.session.session import (
    DEFAULT_RETAIN_MAX_LBD,
    SessionClosedError,
    SolverSession,
)

__all__ = [
    "AnswerCache",
    "DEFAULT_RETAIN_MAX_LBD",
    "SessionClosedError",
    "SolverSession",
]
