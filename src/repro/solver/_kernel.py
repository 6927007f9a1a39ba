"""Build-on-demand loader for the solver's C kernels.

The engine's propagation, conflict (analysis through backtrack),
decision-scan, backtracking, formula loading and watch-rebuilding loops
have C twins (``_arena_kernel.c``) that run over the very same
``array`` buffers — same record layout, same watch chains, same
circular replacement scan — so a solve produces an identical trajectory
and a load the identical state whether or not the kernels are
available.  This module compiles it once per source revision with the
system C compiler into a cached shared object and hands back its
``ctypes`` entry points.

The hot entry points take the solver's per-variable and per-literal
buffers through one :class:`AddressTable` instead of one argument
each; the solver refreshes it wherever one of them can move.

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
    conflict: object  # first-UIP analysis, bumps, proof hints, backjump, backtrack
    decide: object  # BerkMin top-clause or most-active-free scan
    backtrack: object  # bulk assignment undo
    load: object  # bulk formula load at level 0
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


class AddressTable:
    """The buffer addresses the hot kernels read (``struct tables``).

    ``address`` is what the kernels take; :meth:`refresh` re-reads
    every address from ``owner``'s attributes named in
    :data:`TABLE_FIELDS` and must run whenever one of them can have
    moved.
    """

    __slots__ = ("slots", "address")

    def __init__(self) -> None:
        self.slots = (ctypes.c_void_p * len(TABLE_FIELDS))()
        self.address = ctypes.addressof(self.slots)

    def refresh(self, owner) -> None:
        self.slots[:] = [getattr(owner, name).buffer_info()[0] for name in TABLE_FIELDS]


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
    conflict = handle.arena_conflict
    conflict.argtypes = [pointer] * 5 + [int32] * 4
    conflict.restype = int32
    decide = handle.arena_decide
    decide.argtypes = [pointer] * 3 + [int32] * 3
    decide.restype = int32
    backtrack = handle.arena_backtrack
    backtrack.argtypes = [pointer, pointer, int32, int32]
    backtrack.restype = None
    load = handle.arena_load
    load.argtypes = (
        [pointer, pointer] + [int32] * 4 + [pointer] + [int32] * 3 + [pointer] * 12
    )
    load.restype = int32
    attach = handle.arena_attach
    attach.argtypes = [pointer, pointer, pointer, int32, pointer]
    attach.restype = int32
    return ArenaKernel(propagate, conflict, decide, backtrack, load, attach)


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
