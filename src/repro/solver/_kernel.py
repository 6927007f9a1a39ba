"""Build-on-demand loader for the solver's C kernels.

The engine's search loop (propagation, conflict analysis through
backtrack, clause recording, the BerkMin decision scan, the
symmetrized and ``nb_two`` phases), and its propagation, backtracking,
clause loading and watch-rebuilding steps, have C twins
(``_arena_kernel.c``) that run over the very same ``array`` buffers —
same record layout, same watch chains, same circular replacement scan
— so a solve produces an identical trajectory and a load the identical
state whether or not the kernels are available.  This module compiles it once per source
revision with the system C compiler into a cached shared object and
hands back its ``ctypes`` entry points.

The hot entry points take the solver's per-variable and per-literal
buffers through one :class:`AddressTable` instead of one argument
each; the solver refreshes it wherever one of them can move.  The
search loop, ``arena_search``, runs until an event the solver must
handle (see ``Solver.solve``).  It appends to the buffers of a second
table (:data:`ROOM_FIELDS`), which the solver pads with room before the
call, and it reads and leaves its counters and lengths in one int64
vector, whose words the ``S_*`` constants below name.

Loading is strictly best-effort: no compiler, a failed compile, a
read-only cache directory, or ``REPRO_SAT_PURE=1`` in the environment
all yield ``None``, and :class:`~repro.solver.solver.Solver` falls back
to its pure-Python loops.  Nothing outside this module may assume
the kernel exists.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import NamedTuple

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_arena_kernel.c")


class ArenaKernel(NamedTuple):
    """The compiled entry points (see ``_arena_kernel.c``)."""

    propagate: object  # BCP to fixpoint over the watch chains
    search: object  # the conflict-decision loop, up to the next exit
    backtrack: object  # bulk assignment undo
    load: object  # bulk clause load at level 0
    attach: object  # watch threading for a list of refs


#: The solver attributes behind the fields of ``struct tables`` in
#: ``_arena_kernel.c``, in its field order.
TABLE_FIELDS = (
    "assigns",
    "levels",
    "reasons",
    "lit_value",
    "watch_head",
    "_seen",
    "var_activity",
    "lit_activity",
    "vsids",
    "_eliminated_mark",
    "_scratch",
    "_learnt_out",
    "_clear_out",
    "_hint_out",
    "_level_marks",
    "_kernel_out",
)

#: The solver attributes behind the fields of ``struct room``: the
#: buffers ``arena_search`` appends to, padded with room while a search
#: runs, then its proof-log and skin-distance logs.
ROOM_FIELDS = (
    "arena",
    "trail",
    "trail_limits",
    "learned",
    "clause_act",
    "clause_id",
    "clause_birth",
    "_proof_log",
    "_skin_log",
)

# The words of the search state (the S_* enum in _arena_kernel.c, in its
# order; see the comments there).
(
    S_EXIT, S_RESUME, S_LITERAL, S_OPTIONS,
    S_TRAIL_LEN, S_QHEAD, S_LEVELS, S_LEARNED_LEN, S_ARENA_LEN, S_RECORDS,
    S_CURSOR, S_BIRTH,
    S_CONFLICTS, S_DECISIONS, S_PROPAGATIONS, S_LEARNED_TOTAL, S_LEARNED_UNITS,
    S_TOP_DECISIONS, S_MAX_LEVEL, S_PEAK_CLAUSES,
    S_PROOF_STEP, S_NUM_CLAUSES, S_NUM_VARIABLES, S_WINDOW, S_NB_TWO_THRESHOLD,
    S_ASSUMPTIONS, S_CONFLICT_STOP, S_DECISION_STOP, S_BASE_DECISIONS, S_CLAUSE_STOP,
    S_TRAIL_ROOM, S_LEVEL_ROOM, S_LEARNED_ROOM, S_ARENA_ROOM, S_RECORD_ROOM,
    S_LOG_ROOM, S_SKIN_ROOM,
    S_LOG_LEN, S_SKIN_LEN, S_FORMULA_DECISIONS,
    S_CHOICE, S_VARIABLE, S_REF, S_DISTANCE,
    S_CONFLICT_LEVEL, S_LEARNT_SIZE, S_LBD, S_BACKJUMP,
    S_WORDS,
) = range(49)
# Why the search returned (EXIT_*), where it resumes (RESUME_*), what an
# EXIT_CHOOSE asks for (CHOOSE_*), and the S_OPTIONS bits (OPT_*).
(
    EXIT_UNSAT, EXIT_SAT, EXIT_CONFLICT, EXIT_PREDECIDE, EXIT_CHOOSE,
    EXIT_DECIDED, EXIT_ROOM, EXIT_NO_REASON,
) = range(8)
RESUME_TOP, RESUME_DECIDE, RESUME_DECISION, RESUME_ASSUME = range(4)
CHOOSE_TOP, CHOOSE_FORMULA, CHOOSE_TIE, CHOOSE_STRATEGY = range(4)
OPT_BUMP_RESPONSIBLE = 1
OPT_MINIMIZE = 2
OPT_HINTS = 4
OPT_TOP_CLAUSE = 8
OPT_DECIDE = 16
OPT_SYMMETRIZE = 32
OPT_STEP = 64
OPT_SHARE = 128
OPT_NB_TWO = 256


class AddressTable:
    """The buffer addresses a kernel reads (``struct tables`` or ``struct room``).

    ``address`` is what the kernels take; :meth:`refresh` re-reads
    every address from ``owner``'s attributes named in ``fields`` and
    must run whenever one of them can have moved.
    """

    __slots__ = ("fields", "slots", "address")

    def __init__(self, fields: tuple[str, ...]) -> None:
        self.fields = fields
        self.slots = (ctypes.c_void_p * len(fields))()
        self.address = ctypes.addressof(self.slots)

    def refresh(self, owner) -> None:
        self.slots[:] = [getattr(owner, name).buffer_info()[0] for name in self.fields]


#: Cached (once-per-process) load result; ``False`` means "not tried".
_cached: object = False


def kernel_disabled() -> bool:
    """True when the environment opts out of the compiled kernel."""
    return os.environ.get("REPRO_SAT_PURE", "").strip() not in ("", "0")


def _compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _build_and_load():
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = os.path.join(tempfile.gettempdir(), "repro-sat-kernel")
    library = os.path.join(cache_dir, f"arena_{digest}.so")
    if not os.path.exists(library):
        compiler = _compiler()
        if compiler is None:
            return None
        os.makedirs(cache_dir, exist_ok=True)
        scratch = library + f".tmp{os.getpid()}"
        completed = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", scratch, _SOURCE],
            capture_output=True,
            timeout=120,
        )
        if completed.returncode != 0:
            return None
        os.replace(scratch, library)  # atomic: concurrent builders agree
    handle = ctypes.CDLL(library)
    pointer, int32 = ctypes.c_void_p, ctypes.c_int32
    propagate = handle.arena_propagate
    propagate.argtypes = [pointer] * 3 + [int32] * 3
    propagate.restype = int32
    search = handle.arena_search
    search.argtypes = [pointer] * 3
    search.restype = int32
    backtrack = handle.arena_backtrack
    backtrack.argtypes = [pointer, pointer, int32, int32]
    backtrack.restype = None
    load = handle.arena_load
    load.argtypes = [pointer] * 2 + [int32] * 3 + [pointer] + [int32] * 3 + [pointer] * 5
    load.restype = int32
    attach = handle.arena_attach
    attach.argtypes = [pointer, pointer, pointer, int32]
    attach.restype = None
    return ArenaKernel(propagate, search, backtrack, load, attach)


def load_arena_kernel():
    """The compiled :class:`ArenaKernel` entry points, or ``None``.

    The result is cached per process (``repro.solver`` loads it once at
    import, so forked workers inherit the loaded library); the disable
    flag is re-read every call so each solver honours the current
    ``REPRO_SAT_PURE``.
    """
    global _cached
    if kernel_disabled():
        return None
    if _cached is False:
        try:
            _cached = _build_and_load()
        except Exception:
            _cached = None
    return _cached
