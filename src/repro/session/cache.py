"""The session answer cache — bounded, LRU-evicting.

:class:`AnswerCache` memoises solve answers keyed by the
order-insensitive canonical formula fingerprint
(:func:`repro.checkpoint.snapshot.canonical_fingerprint`) plus the
assumption set.  Three kinds of hit, from cheapest to most general:

* **exact** — the same formula was solved under the same assumption set
  before; the stored answer (model / core / proof) is returned verbatim.
* **core** — the formula was previously found UNSAT under assumptions
  ``A`` with failed-assumption core ``C``; any new query whose
  assumption set contains ``C`` is UNSAT with the same core, because
  ``formula AND C`` is already contradictory.  An outright-UNSAT answer
  is stored as the empty core, which every assumption set subsumes.
* **model** — a model found for the formula under one assumption set
  also answers any query whose assumptions it happens to satisfy (the
  formula is the same clause set, so the model still satisfies it).

Entries are only ever written for definitive answers: UNKNOWN results
(budget exhaustion, interrupts, degraded workers) are never cached.

The cache is **bounded in three dimensions**, because a long-lived
server shares one instance across every request it ever serves:

* ``max_entries`` exact entries, evicted least-recently-*used* first
  (a lookup hit refreshes an entry; an entry nobody asks for again
  ages out);
* ``max_bytes`` of approximate payload (models, cores, proofs) — big
  proofs evict faster than small models;
* ``max_entries`` distinct *formulas*: when a fingerprint ages out,
  its core/model side indexes go with it, so the side indexes
  cannot outgrow the exact store.

Every eviction increments :attr:`evictions`;
:class:`~repro.session.SolverSession` mirrors the hit/evict counters
into :class:`~repro.solver.stats.SolverStats` (``cache_hits`` /
``cache_evictions``) so fleet aggregation sees cache health.

The cache is deliberately process-local and unsynchronised: share one
instance between sessions in the same process, or give each its own.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.solver.result import SolveResult, SolveStatus

#: Default byte budget — roomy for a workstation, finite for a server.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Rough bytes per stored literal/assignment pair (pointer-heavy
#: CPython ints; precision is not the point, proportionality is).
_BYTES_PER_LITERAL = 16
#: Flat overhead charged per stored entry / proof step.
_ENTRY_OVERHEAD = 96


def _entry_bytes(entry: dict) -> int:
    """Approximate heap cost of one stored answer."""
    total = _ENTRY_OVERHEAD
    model = entry.get("model")
    if model:
        total += _BYTES_PER_LITERAL * len(model)
    core = entry.get("core")
    if core:
        total += _BYTES_PER_LITERAL * len(core)
    proof = entry.get("proof")
    if proof:
        for _op, literals in proof:
            total += _ENTRY_OVERHEAD + _BYTES_PER_LITERAL * len(literals)
    return total


def stored_result(stored: dict, **fields) -> SolveResult:
    """Rehydrate an :meth:`AnswerCache.lookup` hit into a :class:`SolveResult`.

    The answer (status, model, core, proof and its hints, the verified
    tag) comes from ``stored``; ``fields`` set what an entry does not
    hold, such as the caller's stats and timing.  An empty stored model
    stays an empty model.
    """
    model = stored.get("model")
    core = stored.get("core")
    return SolveResult(
        status=stored["status"],
        model=None if model is None else dict(model),
        core=None if core is None else list(core),
        under_assumptions=bool(stored.get("under_assumptions", False)),
        proof=stored.get("proof"),
        proof_hints=stored.get("proof_hints"),
        verified=stored.get("verified"),
        **fields,
    )


class AnswerCache:
    """Result memoisation shared by one or more sessions.

    Args:
        max_entries: bound on exact entries *and* on distinct formula
            fingerprints (each evicted LRU-first).
        max_bytes: approximate total payload budget (None = unbounded).
    """

    def __init__(
        self,
        *,
        max_entries: int = 1024,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: (fingerprint, sorted assumption tuple) -> stored answer dict,
        #: in LRU order (oldest first).
        self._exact: OrderedDict[tuple[str, tuple[int, ...]], dict] = OrderedDict()
        #: fingerprint -> list of UNSAT cores (each a sorted literal tuple).
        self._cores: dict[str, list[tuple[int, ...]]] = {}
        #: fingerprint -> list of (model dict, verified tag).
        self._models: dict[str, list[tuple[dict[int, bool], str | None]]] = {}
        #: fingerprint -> None, in LRU order (the formula-level LRU).
        self._formulas: OrderedDict[str, None] = OrderedDict()
        self._sizes: dict[tuple[str, tuple[int, ...]], int] = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(fingerprint: str, assumptions) -> tuple[str, tuple[int, ...]]:
        return (fingerprint, tuple(sorted(assumptions)))

    def __len__(self) -> int:
        return len(self._exact)

    def _touch_formula(self, fingerprint: str) -> None:
        self._formulas[fingerprint] = None
        self._formulas.move_to_end(fingerprint)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, fingerprint: str, assumptions) -> tuple[str, dict] | None:
        """Return ``(kind, stored)`` for a hit, else ``None``.

        ``kind`` is ``"exact"``, ``"core"``, or ``"model"``; ``stored``
        is a plain dict with ``status`` / ``model`` / ``core`` /
        ``under_assumptions`` / ``proof`` / ``verified`` keys (missing
        keys read as absent).  A hit refreshes the entry's (and the
        formula's) LRU position.
        """
        key = self._key(fingerprint, assumptions)
        entry = self._exact.get(key)
        if entry is not None:
            self._exact.move_to_end(key)
            self._touch_formula(fingerprint)
            self.hits += 1
            return ("exact", entry)

        assumption_set = set(assumptions)
        for core in self._cores.get(fingerprint, ()):
            if assumption_set.issuperset(core):
                self._touch_formula(fingerprint)
                self.hits += 1
                return (
                    "core",
                    {
                        "status": SolveStatus.UNSAT,
                        "core": list(core),
                        "under_assumptions": bool(core),
                        "verified": None,
                    },
                )
        for model, verified in self._models.get(fingerprint, ()):
            if all(model.get(abs(lit), False) == (lit > 0) for lit in assumption_set):
                self._touch_formula(fingerprint)
                self.hits += 1
                return (
                    "model",
                    {
                        "status": SolveStatus.SAT,
                        "model": dict(model),
                        "verified": verified,
                    },
                )
        self.misses += 1
        return None

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def store(self, fingerprint: str, assumptions, result: SolveResult) -> bool:
        """Record a definitive answer; returns False for uncacheable results."""
        if result.status is SolveStatus.UNKNOWN:
            return False
        entry: dict = {
            "status": result.status,
            "under_assumptions": result.under_assumptions,
            "verified": result.verified,
        }
        if result.model is not None:
            entry["model"] = dict(result.model)
            models = self._models.setdefault(fingerprint, [])
            models.append((entry["model"], result.verified))
            del models[: -self.max_entries]
        if result.core is not None:
            entry["core"] = list(result.core)
        if result.proof is not None:
            entry["proof"] = [(op, list(lits)) for op, lits in result.proof]
            if result.proof_hints is not None:
                entry["proof_hints"] = [
                    None if ids is None else list(ids) for ids in result.proof_hints
                ]
        if result.status is SolveStatus.UNSAT:
            # Outright UNSAT stores the empty core: every assumption set
            # subsumes it.  Under assumptions, the failed-assumption core
            # (or, defensively, the full assumption set) is stored.
            if not result.under_assumptions:
                core: tuple[int, ...] = ()
            elif result.core is not None:
                core = tuple(sorted(result.core))
            else:
                core = tuple(sorted(assumptions))
            cores = self._cores.setdefault(fingerprint, [])
            if core not in cores:
                cores.append(core)
                del cores[: -self.max_entries]
        key = self._key(fingerprint, assumptions)
        if key in self._exact:
            self.bytes -= self._sizes.pop(key, 0)
            del self._exact[key]
        size = _entry_bytes(entry)
        self._exact[key] = entry
        self._sizes[key] = size
        self.bytes += size
        self._touch_formula(fingerprint)
        self._enforce_bounds()
        return True

    def _enforce_bounds(self) -> None:
        while len(self._exact) > self.max_entries or (
            self.max_bytes is not None
            and self.bytes > self.max_bytes
            and self._exact
        ):
            key, _entry = self._exact.popitem(last=False)
            self.bytes -= self._sizes.pop(key, 0)
            self.evictions += 1
        while len(self._formulas) > self.max_entries:
            fingerprint, _ = self._formulas.popitem(last=False)
            self._drop_formula(fingerprint)
            self.evictions += 1

    def _drop_formula(self, fingerprint: str) -> None:
        """Remove every trace of one fingerprint (side indexes included)."""
        self._cores.pop(fingerprint, None)
        self._models.pop(fingerprint, None)
        for key in [key for key in self._exact if key[0] == fingerprint]:
            del self._exact[key]
            self.bytes -= self._sizes.pop(key, 0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Flat counters for logs, the stats op, and the CLI footer."""
        return {
            "entries": len(self._exact),
            "formulas": len(self._formulas),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes": self.bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }
