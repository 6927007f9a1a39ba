"""Solver configuration and the presets used throughout the paper.

Every experiment in the paper is a comparison between solver
*configurations*: BerkMin with all features on, versus a variant with one
feature replaced by its Chaff/GRASP analogue (Tables 1, 2, 4, 5), versus
a full Chaff-style baseline (Tables 6-10).  :class:`SolverConfig`
captures every such knob; the ``*_config`` factory functions reproduce
the exact named configurations of the paper.
"""

from __future__ import annotations

import difflib
import functools
import warnings
from dataclasses import dataclass, field, fields, replace

# Decision strategies ---------------------------------------------------
DECISION_BERKMIN = "berkmin"  # top unsatisfied conflict clause, then global
DECISION_GLOBAL = "global"  # most active variable overall ("less_mobility")
DECISION_VSIDS = "vsids"  # Chaff: most active free *literal*
DECISION_RANDOM = "random"

# Phase (branch-selection) heuristics for top-clause decisions ----------
PHASE_SYMMETRIZE = "symmetrize"  # BerkMin: balance lit_activity (Section 7)
PHASE_SAT_TOP = "sat_top"
PHASE_UNSAT_TOP = "unsat_top"
PHASE_TAKE_0 = "take_0"
PHASE_TAKE_1 = "take_1"
PHASE_TAKE_RAND = "take_rand"

# Phase heuristics for formula-level decisions --------------------------
FORMULA_PHASE_NB_TWO = "nb_two"  # BerkMin's binary-clause neighbourhood cost
FORMULA_PHASE_TAKE_RAND = "take_rand"
FORMULA_PHASE_TAKE_0 = "take_0"
FORMULA_PHASE_TAKE_1 = "take_1"

# Restart policies -------------------------------------------------------
RESTART_FIXED = "fixed"
RESTART_GEOMETRIC = "geometric"
RESTART_LUBY = "luby"
RESTART_NONE = "none"

# Database-management policies -------------------------------------------
DB_BERKMIN = "berkmin"  # age / activity / length (Section 8)
DB_LIMITED_KEEPING = "limited_keeping"  # GRASP: length threshold only
DB_KEEP_ALL = "keep_all"

# Trusted-results verification levels --------------------------------------
# "off": answers are taken at face value; "sat": SAT models are checked
# against the original (pre-simplification) formula; "full": additionally
# UNSAT answers are RUP-checked against their DRUP proof (proof logging is
# enabled automatically).  Enforced by the reliability layer's
# verify_result gate — see docs/ROBUSTNESS.md.
VERIFY_OFF = "off"
VERIFY_SAT = "sat"
VERIFY_FULL = "full"
VERIFICATION_LEVELS = (VERIFY_OFF, VERIFY_SAT, VERIFY_FULL)

# Propagation engine --------------------------------------------------------
# The one engine stores every clause in one flat integer buffer (header
# words + literals) with blocker-literal watch pairs and runs bounded
# variable elimination plus arena compaction between restarts (see
# repro.solver.solver).  It is the only accepted ``propagation`` value.
PROPAGATION_ARENA = "arena"


@dataclass
class SolverConfig:
    """All heuristic knobs of the CDCL engine.

    The defaults are BerkMin's (paper Section 8 gives the database
    constants explicitly; aging and restart constants are stated as
    mechanisms, with values chosen here to be in the range the
    2002 solvers used and exercised by the ablation benches).  Beyond
    the paper, every preset also runs NiVER inprocessing every four
    restarts and keeps clauses with LBD <= 3 at every reduction;
    ``glue_keep_max_lbd=0, inprocess_interval=0`` restores the pure
    Section 8 policy.
    """

    name: str = "berkmin"

    # -- decision making ------------------------------------------------
    decision_strategy: str = DECISION_BERKMIN
    # True: bump var_activity once per literal occurrence in every clause
    # responsible for the conflict (BerkMin, Section 4).  False: bump only
    # the variables of the learned clause (Chaff / "less_sensitivity").
    bump_responsible_clauses: bool = True
    activity_decay_interval: int = 512  # conflicts between agings
    activity_decay_divisor: int = 4

    # How the globally most active free variable is found: "naive" is the
    # linear scan the paper's experiments used (Remark 1); "heap" is the
    # BerkMin561 "strategy 3" optimization (an indexed max-heap).  Both
    # pick identical variables (ties break toward smaller indices).
    global_selection: str = "naive"

    # Remark 2 extension: consider the free variables of up to this many
    # unsatisfied conflict clauses nearest the top of the stack (1 = the
    # paper's behaviour; the paper flags larger windows as future work).
    top_clause_window: int = 1

    # -- branch (phase) selection ----------------------------------------
    top_clause_phase: str = PHASE_SYMMETRIZE
    formula_phase: str = FORMULA_PHASE_NB_TWO
    nb_two_threshold: int = 100  # Section 7: stop computing nb_two past this

    # -- restarts ---------------------------------------------------------
    restart_strategy: str = RESTART_FIXED
    restart_interval: int = 550
    restart_geometric_factor: float = 1.5
    luby_unit: int = 256

    # -- clause-database management (Section 8) ---------------------------
    db_management: str = DB_BERKMIN
    young_fraction: float = 15.0 / 16.0  # top 15/16 of the stack is "young"
    young_length_limit: int = 42  # keep young clause if length <= 42 ...
    young_activity_limit: int = 7  # ... or clause_activity > 7
    old_length_limit: int = 8  # keep old clause if length <= 8 ...
    old_activity_threshold: int = 60  # ... or activity > threshold (grows)
    old_threshold_increment: int = 1  # threshold growth per reduction
    limited_keeping_length: int = 42  # GRASP variant: drop learned clauses longer
    # 0 = protect only the topmost clause (the paper's partial anti-looping
    # fix); n > 0 additionally marks one clause permanently every n restarts
    # (the paper's complete fix).
    mark_every_n_restarts: int = 0

    # -- propagation engine ------------------------------------------------
    # Kept for configs written against earlier engines: "arena" is the
    # only accepted value, and Solver rejects anything else.
    propagation: str = PROPAGATION_ARENA

    # -- inprocessing and the clause arena ----------------------------------
    # Restarts between inprocessing passes (bounded variable elimination
    # at decision level 0); 0 disables inprocessing entirely.
    inprocess_interval: int = 4
    # Only variables with at most this many clause occurrences are
    # elimination candidates (the NiVER cheap-variable criterion).
    inprocess_occurrence_limit: int = 10
    # Allowed clause-count growth per elimination (0 = classic NiVER:
    # never grow the database).
    inprocess_max_growth: int = 0
    # Compact the clause arena once at least this fraction of its words
    # is dead (clauses deleted by reduction, retention or elimination).
    arena_gc_fraction: float = 0.25
    # LBD-aware retention fused into database reduction: measured-glue
    # clauses with LBD <= this bound always survive a reduce, regardless
    # of the age/activity policy verdict.  0 disables the glue override;
    # with ``inprocess_interval=0`` too, reduction is the paper's pure
    # Section 8 policy.
    glue_keep_max_lbd: int = 3

    # -- cooperative clause sharing (see repro.parallel.sharing) -----------
    # Source-side export filter for the portfolio clause bus: only learned
    # clauses whose measured LBD is at most this bound are exported to the
    # other lanes (the glue tier — sharing junk clauses costs every lane).
    # Read only when a share client is attached by the parallel engine;
    # inert for sequential solves.
    share_max_lbd: int = 3

    # -- trusted results ---------------------------------------------------
    # Post-solve answer verification level ("off" | "sat" | "full"); the
    # parallel engines inherit it as their default gate and `solve_formula`
    # applies it inline.  "full" implies proof logging.
    verification: str = VERIFY_OFF

    # -- observability ------------------------------------------------------
    # Structured trace sink (repro.observability.TraceSink) receiving the
    # typed search events documented in docs/OBSERVABILITY.md, or None to
    # disable tracing entirely (the default; every emission site guards on
    # it, so disabled tracing costs nothing).  Compared by identity in
    # config equality — sinks are stateful streams, not values.
    trace: object | None = field(default=None, compare=False)

    # -- misc --------------------------------------------------------------
    seed: int = 0
    proof_logging: bool = False
    # Learned-clause minimization (self-subsumption against reasons) is a
    # post-paper technique (MiniSat 1.13); off by default, available as an
    # extension ablation.
    clause_minimization: bool = False

    def with_overrides(self, **overrides) -> "SolverConfig":
        """Return a copy with the given fields replaced.

        Unknown field names raise :class:`TypeError` naming the nearest
        valid field, so typos fail loudly instead of being swallowed.
        """
        validate_config_fields(overrides)
        return replace(self, **overrides)

    def replace(self, **overrides) -> "SolverConfig":
        """Alias of :meth:`with_overrides`: a validated ``dataclasses.replace``."""
        return self.with_overrides(**overrides)


def _deprecate_positional_construction(cls):
    """Keep positional ``SolverConfig(...)`` working, but warn.

    Construction is keyword-only going forward — with ~25 ordered fields
    a positional call is unreadable and silently reshuffles meaning when
    fields are added.  Old call sites get a :class:`DeprecationWarning`
    (mapped onto the declared field order) instead of a break.
    """
    generated = cls.__init__
    names = [spec.name for spec in fields(cls)]

    @functools.wraps(generated)
    def __init__(self, *args, **kwargs):
        if args:
            warnings.warn(
                "positional SolverConfig construction is deprecated; pass "
                "fields by keyword (e.g. SolverConfig(name='berkmin')) or "
                "derive from a preset with config.replace(...)",
                DeprecationWarning,
                stacklevel=2,
            )
            if len(args) > len(names):
                raise TypeError(
                    f"SolverConfig takes at most {len(names)} arguments "
                    f"({len(args)} given)"
                )
            for name, value in zip(names, args):
                if name in kwargs:
                    raise TypeError(
                        f"SolverConfig got multiple values for argument {name!r}"
                    )
                kwargs[name] = value
        generated(self, **kwargs)

    cls.__init__ = __init__
    return cls


_deprecate_positional_construction(SolverConfig)


def _config_field_names() -> frozenset[str]:
    return frozenset(spec.name for spec in fields(SolverConfig))


def validate_config_fields(overrides: dict) -> None:
    """Reject unknown :class:`SolverConfig` field names.

    Raises :class:`TypeError` for the first unknown name, suggesting the
    nearest valid field (``restart_intervall`` → ``restart_interval``).
    Every factory and :func:`config_by_name` funnel their keyword
    overrides through here.
    """
    valid = _config_field_names()
    for name in overrides:
        if name in valid:
            continue
        matches = difflib.get_close_matches(name, valid, n=1, cutoff=0.5)
        hint = f"; did you mean {matches[0]!r}?" if matches else ""
        raise TypeError(
            f"SolverConfig has no field {name!r}{hint} "
            f"(valid fields: {', '.join(sorted(valid))})"
        )


# ---------------------------------------------------------------------------
# Named configurations from the paper
# ---------------------------------------------------------------------------
def berkmin_config(**overrides) -> SolverConfig:
    """BerkMin with every novelty enabled (the paper's reference solver)."""
    return SolverConfig(name="berkmin").with_overrides(**overrides)


def less_sensitivity_config(**overrides) -> SolverConfig:
    """Table 1 ablation: Chaff-like activity (learned-clause literals only)."""
    return SolverConfig(name="less_sensitivity", bump_responsible_clauses=False).with_overrides(
        **overrides
    )


def less_mobility_config(**overrides) -> SolverConfig:
    """Table 2 ablation: branch on the globally most active free variable.

    Activities are still computed BerkMin-style, exactly as the paper
    specifies ("The activity of variables was computed as in BerkMin").
    """
    return SolverConfig(name="less_mobility", decision_strategy=DECISION_GLOBAL).with_overrides(
        **overrides
    )


def sat_top_config(**overrides) -> SolverConfig:
    """Table 4 variant: always satisfy the current top clause."""
    return SolverConfig(name="sat_top", top_clause_phase=PHASE_SAT_TOP).with_overrides(**overrides)


def unsat_top_config(**overrides) -> SolverConfig:
    """Table 4 variant: always falsify the chosen literal of the top clause."""
    return SolverConfig(name="unsat_top", top_clause_phase=PHASE_UNSAT_TOP).with_overrides(
        **overrides
    )


def take_0_config(**overrides) -> SolverConfig:
    """Table 4 variant: always assign 0 first (top-clause decisions)."""
    return SolverConfig(name="take_0", top_clause_phase=PHASE_TAKE_0).with_overrides(**overrides)


def take_1_config(**overrides) -> SolverConfig:
    """Table 4 variant: always assign 1 first (top-clause decisions)."""
    return SolverConfig(name="take_1", top_clause_phase=PHASE_TAKE_1).with_overrides(**overrides)


def take_rand_config(**overrides) -> SolverConfig:
    """Table 4 variant: random phase (top-clause decisions)."""
    return SolverConfig(name="take_rand", top_clause_phase=PHASE_TAKE_RAND).with_overrides(
        **overrides
    )


def limited_keeping_config(**overrides) -> SolverConfig:
    """Table 5 ablation: GRASP-style database management.

    All learned clauses longer than 42 literals are removed at each
    reduction, regardless of age or activity (the paper used the same
    threshold BerkMin applies to young clauses).
    """
    return SolverConfig(name="limited_keeping", db_management=DB_LIMITED_KEEPING).with_overrides(
        **overrides
    )


def chaff_config(**overrides) -> SolverConfig:
    """The Chaff-style baseline used in Tables 6-10.

    Same CDCL engine, with every BerkMin novelty replaced by its Chaff
    analogue: VSIDS literal-counter decisions over all free literals,
    activity bumped only on learned-clause literals, counters halved
    periodically, and GRASP-like length-based clause deletion.
    """
    return SolverConfig(
        name="chaff",
        decision_strategy=DECISION_VSIDS,
        bump_responsible_clauses=False,
        activity_decay_interval=256,
        activity_decay_divisor=2,
        db_management=DB_LIMITED_KEEPING,
    ).with_overrides(**overrides)


def wide_window_config(window: int = 4, **overrides) -> SolverConfig:
    """Remark 2 extension: branch over the top ``window`` unsatisfied clauses.

    The paper asks whether restricting branching to the single current
    top clause is "unnecessarily restrictive" and proposes examining "a
    broader set of top clauses" as future research; this preset does so.
    """
    return SolverConfig(name=f"window{window}", top_clause_window=window).with_overrides(
        **overrides
    )


def berkmin561_config(**overrides) -> SolverConfig:
    """BerkMin with the later "strategy 3" variable selection (Remark 1).

    Identical heuristics to :func:`berkmin_config`; the globally most
    active free variable is found through an indexed heap instead of the
    naive linear scan, so decisions are the same but formula-level
    selection is O(log n).
    """
    return SolverConfig(name="berkmin561", global_selection="heap").with_overrides(**overrides)


def random_decision_config(**overrides) -> SolverConfig:
    """A sanity-check baseline: random variable, random phase."""
    return SolverConfig(
        name="random_decision",
        decision_strategy=DECISION_RANDOM,
    ).with_overrides(**overrides)


#: Registry of every named configuration, keyed by the names the paper's
#: tables use.  The experiment harness iterates this mapping.
CONFIG_FACTORIES = {
    "berkmin": berkmin_config,
    "less_sensitivity": less_sensitivity_config,
    "less_mobility": less_mobility_config,
    "sat_top": sat_top_config,
    "unsat_top": unsat_top_config,
    "take_0": take_0_config,
    "take_1": take_1_config,
    "take_rand": take_rand_config,
    "limited_keeping": limited_keeping_config,
    "chaff": chaff_config,
    "berkmin561": berkmin561_config,
    "random_decision": random_decision_config,
    "wide_window": wide_window_config,
}


def config_by_name(name: str, **overrides) -> SolverConfig:
    """Look up a named configuration from :data:`CONFIG_FACTORIES`.

    Unknown names raise :class:`ValueError` listing the registry;
    unknown override fields raise :class:`TypeError` naming the nearest
    valid :class:`SolverConfig` field.
    """
    try:
        factory = CONFIG_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(CONFIG_FACTORIES))
        raise ValueError(f"unknown configuration {name!r}; known: {known}") from None
    return factory(**overrides)


def available_configs() -> dict[str, str]:
    """The public view of the config registry: name → one-line summary.

    Returns every registered configuration (sorted by name) mapped to
    the first line of its factory docstring, so callers — the CLI, the
    portfolio engine, notebooks — can enumerate and describe the presets
    without touching :data:`CONFIG_FACTORIES` internals.
    """
    catalog: dict[str, str] = {}
    for name in sorted(CONFIG_FACTORIES):
        doc = CONFIG_FACTORIES[name].__doc__ or ""
        catalog[name] = doc.strip().splitlines()[0] if doc.strip() else ""
    return catalog
