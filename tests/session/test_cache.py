"""AnswerCache semantics: exact, core-subsumption, and model-reuse hits."""

from repro.session import AnswerCache, SolverSession
from repro.session.cache import stored_result
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.stats import SolverStats

FP = "a" * 32
OTHER_FP = "b" * 32


def _sat_result(model, verified=None):
    return SolveResult(status=SolveStatus.SAT, model=model, stats=SolverStats(),
                       verified=verified)


def _unsat_result(core=None, under=False):
    return SolveResult(status=SolveStatus.UNSAT, stats=SolverStats(),
                       under_assumptions=under, core=core)


def test_exact_hit_roundtrips_the_answer():
    cache = AnswerCache()
    assert cache.lookup(FP, [1, 2]) is None
    cache.store(FP, [1, 2], _sat_result({1: True, 2: True}))
    kind, stored = cache.lookup(FP, [2, 1])  # assumption order is canonical
    assert kind == "exact"
    assert stored["status"] is SolveStatus.SAT
    assert stored["model"] == {1: True, 2: True}
    assert cache.hits == 1 and cache.misses == 1
    assert cache.lookup(OTHER_FP, [1, 2]) is None  # other formulas miss


def test_core_subsumption_answers_assumption_supersets():
    cache = AnswerCache()
    cache.store(FP, [1, -3], _unsat_result(core=[1, -3], under=True))
    kind, stored = cache.lookup(FP, [1, -3, 5, -7])
    assert kind == "core"
    assert stored["status"] is SolveStatus.UNSAT
    assert sorted(stored["core"]) == [-3, 1]
    # A disjoint assumption set is NOT subsumed.
    assert cache.lookup(FP, [2, 4]) is None


def test_outright_unsat_subsumes_every_assumption_set():
    cache = AnswerCache()
    cache.store(FP, [], _unsat_result())
    for assumptions in ([], [5], [-1, 2, 9]):
        kind, stored = cache.lookup(FP, assumptions)
        assert kind in ("exact", "core")
        assert stored["status"] is SolveStatus.UNSAT


def test_model_reuse_requires_satisfied_assumptions():
    cache = AnswerCache()
    cache.store(FP, [], _sat_result({1: True, 2: False}, verified="model"))
    kind, stored = cache.lookup(FP, [1, -2])
    assert kind == "model"
    assert stored["verified"] == "model"
    # The cached model falsifies assumption 2 -> no hit.
    assert cache.lookup(FP, [2]) is None


def test_unknown_results_are_never_cached():
    cache = AnswerCache()
    unknown = SolveResult(status=SolveStatus.UNKNOWN, stats=SolverStats(),
                          limit_reason="max_conflicts")
    assert cache.store(FP, [], unknown) is False
    assert len(cache) == 0
    assert cache.lookup(FP, []) is None


def test_exact_entries_are_bounded():
    cache = AnswerCache(max_entries=4)
    for variable in range(1, 10):
        cache.store(FP, [variable], _sat_result({variable: True}))
    assert len(cache) <= 4


def test_shared_cache_carries_answers_between_sessions():
    clauses = [[1, 2], [-1, 2]]
    cache = AnswerCache()
    with SolverSession(clauses, cache=cache) as first:
        first.solve(assumptions=[-1])
    with SolverSession(clauses, cache=cache) as second:
        result = second.solve(assumptions=[-1])
        assert result.status is SolveStatus.SAT
        assert second.stats.cache_hits == 1
    summary = cache.summary()
    assert summary["hits"] == 1
    assert summary["entries"] == 1
    assert summary["formulas"] == 1


def test_lru_eviction_spares_recently_used_entries():
    cache = AnswerCache(max_entries=3)
    for variable in (1, 2, 3):
        cache.store(FP, [variable], _sat_result({variable: True}))
    # Refresh entry [1]; entry [2] is now the least recently used.
    assert cache.lookup(FP, [1]) is not None
    cache.store(FP, [4], _sat_result({4: True}))
    assert cache.lookup(FP, [1])[0] == "exact"
    assert cache.evictions == 1
    # [2]'s exact slot is gone (model-reuse may still answer it).
    assert (FP, (2,)) not in cache._exact


def test_byte_budget_evicts_oldest_payloads():
    cache = AnswerCache(max_entries=1000, max_bytes=700)
    for variable in range(1, 8):
        cache.store(
            "fp-%d" % variable, [], _sat_result({v: True for v in range(1, 20)})
        )
    assert cache.bytes <= 700
    assert cache.evictions >= 1
    assert len(cache) < 7


def test_eviction_counters_mirror_into_session_stats():
    cache = AnswerCache(max_entries=1)
    with SolverSession([[1, 2]], cache=cache) as session:
        session.solve(assumptions=[1])
        session.solve(assumptions=[2])  # evicts the first exact entry
    assert cache.evictions >= 1
    assert session.stats.cache_evictions == cache.evictions


def test_stored_result_rehydrates_cache_hits():
    stored = {
        "status": SolveStatus.UNSAT,
        "core": [2, 3],
        "under_assumptions": True,
        "verified": "proof",
    }
    result = stored_result(stored)
    assert result.status is SolveStatus.UNSAT
    assert result.core == [2, 3]
    assert result.under_assumptions
    assert result.verified == "proof"
    assert result.model is None
    # An empty model (the empty formula's) stays a model.
    cache = AnswerCache()
    cache.store(FP, [], _sat_result({}))
    kind, stored = cache.lookup(FP, [])
    assert kind == "exact" and stored_result(stored).model == {}
