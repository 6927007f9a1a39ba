"""Build-on-demand loader for the solver's C kernels.

The engine's propagation, analysis, backtracking, top-clause, formula
loading and watch-rebuilding loops have C twins (``_arena_kernel.c``)
that run over the very same ``array('i')`` buffers — same record
layout, same watch chains, same circular replacement scan — so a solve
produces an identical trajectory and a load the identical state whether
or not the kernels are available.  This module compiles it once per
source revision with the system C compiler into a cached shared object
and hands back a ``ctypes`` entry point.

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
    analyze: object  # first-UIP resolution walk
    top_unsat: object  # BerkMin top-clause scan
    backtrack: object  # bulk assignment undo
    best_var: object  # most active free variable of one record
    load: object  # bulk formula load at level 0
    attach: object  # watch threading for a list of refs

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
    propagate.argtypes = [pointer] * 7 + [int32, int32, pointer, int32, pointer]
    propagate.restype = int32
    analyze = handle.arena_analyze
    analyze.argtypes = (
        [pointer, pointer, int32] + [pointer] * 5 + [int32] * 3 + [pointer] * 3
    )
    analyze.restype = int32
    top_unsat = handle.arena_top_unsat
    top_unsat.argtypes = [pointer, pointer, int32, pointer]
    top_unsat.restype = int32
    backtrack = handle.arena_backtrack
    backtrack.argtypes = [pointer, int32, int32, pointer, pointer, pointer]
    backtrack.restype = None
    best_var = handle.arena_best_var
    best_var.argtypes = [pointer, int32, pointer, pointer]
    best_var.restype = int32
    load = handle.arena_load
    load.argtypes = (
        [pointer, pointer] + [int32] * 4 + [pointer, int32, int32] + [pointer] * 11
    )
    load.restype = int32
    attach = handle.arena_attach
    attach.argtypes = [pointer, pointer, pointer, int32, pointer]
    attach.restype = int32
    return ArenaKernel(propagate, analyze, top_unsat, backtrack, best_var, load, attach)


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
