"""Input generation for the three workloads (the "generate" phase).

Every input is a member of ``paper_suite("default")``, whose status is
proved by construction (docs/BENCHMARKS.md), reshuffled with
``shuffle_formula`` under a seed drawn from the workload seed.  A run is
a whole number of *rounds*; a round reshuffles each member of the
workload's mix once per unit of weight, so every run holds the same mix
and only the reshuffles change with ``--seed``.  Round ``r`` draws from
its own RNG, so an op's inputs, and with them its signature in the
exact-repeat check, depend on the seed and its round only.

This module runs in the parent process only, before any clock starts.
"""

from __future__ import annotations

import random

from repro.checkpoint.snapshot import canonical_fingerprint
from repro.cnf import shuffle_formula, write_dimacs
from repro.experiments.suites import paper_suite

#: ``solve``: SAT and UNSAT members of 11 of the 12 classes, reshuffled
#: once per round per unit of weight, every op between ~5 ms and ~1 s so
#: that no input dominates throughput.  The five UNSAT members of the
#: 30-60 ms band carry weight 3, so that the median op falls inside that
#: band rather than in the gap below it, where a slow stretch of the VM
#: flips it from one side to the other.  Left out (NOTES.md): pipe_w5s3 and
#: pipe_w6s3, the only Fvp_unsat2.0 members (over 1 s); 2bitadd_10 and
#: 2bitadd_12 (under 5 ms); hanoi4, hole7 and miter_20x400 (about 1 s);
#: hanoi4_T14, par_sat_s1 and pipe_w6s2_f11, whose time swings threefold
#: or more across reshuffles while their classes keep other members.
SOLVE_MIX = {
    "hole5": 1, "hole6": 3,
    "bw5_a": 1, "bw5_b": 1, "bw5_c_unsat": 3,
    "par_sat_s3": 1, "par_unsat_s2": 3,
    "pipe_w3s1": 1, "pipe_w3s2": 3, "pipe_w4s1": 1,
    "pipe_w4s2_f7": 1, "pipe_w4s3_f8": 1,
    "pipe_w5s2_f9": 1, "pipe_w5s3_f10": 1,
    "pipe_w4s2": 1, "pipe_w4s3": 1,
    "pipe_w7s3_f33": 1, "pipe_w6s3_f21": 1,
    "adder_miter10": 3,
    "hanoi3": 1,
    "miter_18x250": 1, "miter_16x200_f": 1,
}

#: ``verified``: UNSAT members whose clauses hold no repeated literal
#: and whose proofs passed the checker on 50 reshuffles each (NOTES.md,
#: "The proof-deletion defect"), weighted so that the median op falls
#: inside the bw5_c_unsat cluster and the tail inside the hole6 one,
#: never between two classes.
VERIFIED_MIX = {"hole5": 2, "bw5_c_unsat": 4, "hole6": 2}

#: ``service``: small members (in-process solve mostly under 50 ms), so
#: the front end, the pool and the reply dominate each request.
SERVICE_MIX = {
    "hole5": 1, "hole6": 1, "bw5_a": 1, "bw5_b": 1, "par_sat_s3": 1,
    "pipe_w3s1": 1, "pipe_w3s2": 1, "pipe_w4s1": 1, "pipe_w4s2_f7": 1,
    "pipe_w5s2_f9": 1, "pipe_w5s3_f10": 1, "2bitadd_10": 1, "2bitadd_12": 1,
    "adder_miter10": 1, "hanoi3": 1, "miter_16x200_f": 1,
}
#: Exact repeats per pass.  No record of real traffic exists in this
#: repository to take a hit share from, so the count is the fewest that
#: gives ``session.cache_hit_ms`` and ``parallel.job_overhead_ms`` ten
#: samples each.  The repeats are spread evenly over the pass, each
#: resending a miss at least REPEAT_DISTANCE requests earlier.
SERVICE_HITS = 10
REPEAT_DISTANCE = 10

#: Nominal seconds of one round on a 2-vCPU VM; fixes how many rounds a
#: ``--seconds`` budget buys.  The count depends on ``--seconds`` only,
#: never on how fast the program runs.
ROUND_SECONDS = {"solve": 2.0, "verified": 2.2, "service": 0.65}

MIXES = {"solve": SOLVE_MIX, "verified": VERIFIED_MIX, "service": SERVICE_MIX}


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds in one untraced run of ``seconds``."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _members() -> dict:
    return {
        instance.name: (cls.name, instance)
        for cls in paper_suite("default")
        for instance in cls.instances
    }


def _reshuffles(workload: str, seed: int, round_index: int, mix: dict, members: dict):
    """Yield ``(name, class, instance, shuffle_seed, formula)`` for one round."""
    rng = random.Random(f"perfbench/{workload}/{seed}/{round_index}")
    order = [name for name, weight in mix.items() for _ in range(weight)]
    rng.shuffle(order)
    for name in order:
        cls_name, instance = members[name]
        shuffle_seed = rng.randrange(1, 2**31)
        yield name, cls_name, instance, shuffle_seed, shuffle_formula(
            instance.formula(), shuffle_seed
        )


def _inprocess_ops(workload: str, seed: int, rounds: int) -> list[dict]:
    members = _members()
    ops = []
    for r in range(rounds):
        reshuffles = _reshuffles(workload, seed, r, MIXES[workload], members)
        for index, (name, cls_name, instance, shuffle_seed, formula) in enumerate(reshuffles):
            ops.append({
                "key": f"r{r}.{index}",
                "name": name,
                "class": cls_name,
                "expected": instance.expected.name,
                "budget": instance.max_conflicts,
                "shuffle_seed": shuffle_seed,
                "dimacs": write_dimacs(formula),
            })
    return ops


def _service_ops(seed: int, rounds: int) -> tuple[list[dict], list[dict]]:
    """Requests and the distinct formulas they send.

    Misses are reshuffles whose canonical fingerprints are all distinct,
    so a miss can never be answered from the service's cache; each hit
    resends, byte for byte, a miss at least REPEAT_DISTANCE requests
    earlier.
    """
    members = _members()
    formulas: list[dict] = []
    seen: set[str] = set()
    for r in range(rounds):
        for name, cls_name, instance, shuffle_seed, formula in _reshuffles(
            "service", seed, r, SERVICE_MIX, members
        ):
            while canonical_fingerprint(formula.clauses) in seen:
                shuffle_seed += 1
                formula = shuffle_formula(instance.formula(), shuffle_seed)
            seen.add(canonical_fingerprint(formula.clauses))
            formulas.append({
                "name": name,
                "class": cls_name,
                "expected": instance.expected.name,
                "budget": instance.max_conflicts,
                "shuffle_seed": shuffle_seed,
                "clauses": formula.clauses,
            })
    rng = random.Random(f"perfbench/service/{seed}/{rounds}/repeats")
    span = len(formulas) - REPEAT_DISTANCE
    hit_after = [REPEAT_DISTANCE - 1 + (k + 1) * span // SERVICE_HITS for k in range(SERVICE_HITS)]
    requests, sources = [], set()
    for index in range(len(formulas)):
        requests.append({"kind": "miss", "input": index, "key": f"m{index}"})
        for k in range(hit_after.count(index)):
            # Distinct sources where the run is long enough to allow them.
            earlier = range(index - REPEAT_DISTANCE + 2)
            source = rng.choice([i for i in earlier if i not in sources] or earlier)
            sources.add(source)
            requests.append({"kind": "hit", "input": source, "key": f"h{index}.{k}"})
    return requests, formulas


def build(workload: str, seed: int, rounds: int) -> dict:
    """The op list of ``rounds`` rounds of ``workload`` under ``seed``."""
    if workload == "service":
        requests, formulas = _service_ops(seed, rounds)
        return {"workload": workload, "seed": seed, "rounds": rounds,
                "requests": requests, "formulas": formulas}
    return {"workload": workload, "seed": seed, "rounds": rounds,
            "ops": _inprocess_ops(workload, seed, rounds)}
