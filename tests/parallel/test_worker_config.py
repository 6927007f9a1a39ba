"""Process-boundary regressions: config stripping and formula pickling.

Every field added to :class:`SolverConfig` must cross the worker
boundary verbatim unless :func:`strip_for_worker` names it explicitly —
the stripping is a ``dataclasses.replace`` copy, so new fields (the
inprocessing knobs being the motivating case) ride along without
anyone remembering to update the parallel layer.  These tests enforce
that by *introspection* over the dataclass fields, so they fail the
moment someone reintroduces a hand-maintained field list.

:class:`CnfFormula` crosses the same boundary for every batch/group
instance; its compact ``__getstate__`` tuple must keep covering the
whole instance ``__dict__`` as attributes are added.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cnf.formula import CnfFormula
from repro.observability import RingBufferSink
from repro.parallel.worker import strip_for_worker
from repro.solver.config import (
    VERIFY_FULL,
    VERIFY_SAT,
    SolverConfig,
    berkmin_config,
    config_by_name,
)

#: The only fields strip_for_worker may rewrite, and why:
#: proof_logging (forced on under "full" so the parent can RUP-check),
#: trace (sinks stay in the parent).
_STRIPPABLE = {"proof_logging", "trace"}


def test_strip_for_worker_touches_only_the_documented_fields():
    config = berkmin_config(
        seed=7,
        inprocess_interval=2,
        inprocess_occurrence_limit=14,
        inprocess_max_growth=1,
        arena_gc_fraction=0.1,
        glue_keep_max_lbd=4,
        proof_logging=False,
        trace=RingBufferSink(),
    )
    stripped = strip_for_worker(config, VERIFY_FULL)
    for field in dataclasses.fields(SolverConfig):
        if field.name in _STRIPPABLE:
            continue
        assert getattr(stripped, field.name) == getattr(config, field.name), (
            f"strip_for_worker changed undocumented field {field.name!r}"
        )
    assert stripped.proof_logging is True  # forced by the "full" gate
    assert stripped.trace is None


def test_strip_for_worker_is_identity_when_nothing_applies():
    config = berkmin_config(proof_logging=True)
    assert strip_for_worker(config, VERIFY_SAT) is config


def test_stripped_config_pickles_with_arena_fields_intact():
    config = config_by_name(
        "berkmin", seed=3, inprocess_interval=8, arena_gc_fraction=0.5
    )
    clone = pickle.loads(pickle.dumps(strip_for_worker(config, VERIFY_FULL)))
    assert clone.propagation == "arena"
    assert clone.inprocess_interval == 8
    assert clone.arena_gc_fraction == 0.5
    assert clone.proof_logging is True


def test_every_config_field_survives_pickle():
    """Field-introspection sweep: no SolverConfig field may be lost or
    mutated by the pickle round trip workers rely on."""
    config = berkmin_config(seed=11)
    clone = pickle.loads(pickle.dumps(config))
    for field in dataclasses.fields(SolverConfig):
        assert getattr(clone, field.name) == getattr(config, field.name), field.name


def test_cnf_formula_compact_pickle_round_trips():
    formula = CnfFormula(
        [[1, -2, 3], [-1, 2], [2, 3, -4]],
        num_variables=6,
        comment="pickled",
    )
    clone = pickle.loads(pickle.dumps(formula))
    assert clone.num_variables == 6
    assert clone.comment == "pickled"
    assert clone.clauses == formula.clauses
    assert clone.num_clauses == formula.num_clauses


def test_cnf_formula_state_tuple_covers_every_attribute():
    """The compact __getstate__ tuple skips __dict__; this sweep fails
    when someone adds an instance attribute without extending it."""
    formula = CnfFormula([[1, 2]], num_variables=2)
    restored = pickle.loads(pickle.dumps(formula))
    missing = set(formula.__dict__) - set(restored.__dict__)
    assert not missing, (
        f"CnfFormula.__getstate__ drops attributes {sorted(missing)}; "
        "extend the state tuple in cnf/formula.py"
    )
    for name, value in formula.__dict__.items():
        assert restored.__dict__[name] == value, name


def test_strippable_set_matches_strip_for_worker_source():
    """If strip_for_worker grows a new override, this test must be
    updated consciously — the _STRIPPABLE contract is part of the
    worker-boundary API."""
    import inspect

    source = inspect.getsource(strip_for_worker)
    mentioned = {name for name in _STRIPPABLE if name in source}
    assert mentioned == _STRIPPABLE
    overrides = {
        name
        for name in (field.name for field in dataclasses.fields(SolverConfig))
        if f'overrides["{name}"]' in source
    }
    assert overrides == _STRIPPABLE, (
        f"strip_for_worker overrides {sorted(overrides)} but the documented "
        f"contract is {sorted(_STRIPPABLE)}"
    )


def test_unknown_override_field_is_rejected():
    config = berkmin_config(seed=10)
    with pytest.raises(TypeError):
        config.with_overrides(not_a_field=1)
