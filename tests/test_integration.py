"""Cross-cutting integration and invariant tests.

These tie the subsystems together: proofs surviving reshuffling,
implication-graph invariants holding mid-search under every
configuration, and the full generate -> write -> parse -> solve ->
verify pipeline.
"""

import random

import pytest

from repro.baselines.brute import brute_force_satisfiable
from repro.cnf.dimacs import parse_dimacs, write_dimacs
from repro.cnf.formula import CnfFormula
from repro.cnf.shuffle import shuffle_formula
from repro.proof import check_rup_proof
from repro.solver.config import CONFIG_FACTORIES, config_by_name
from repro.solver.graph import ImplicationGraph
from repro.solver.solver import Solver


def _random_formula(rng, max_vars=8, max_clauses=24):
    n = rng.randint(2, max_vars)
    clauses = [
        [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), min(rng.randint(1, 3), n))]
        for _ in range(rng.randint(2, max_clauses))
    ]
    return CnfFormula(clauses, num_variables=n)


def test_proofs_survive_reshuffling():
    """UNSAT proofs of reshuffled instances check against the reshuffled CNF."""
    from repro.generators.pigeonhole import pigeonhole_formula

    base = pigeonhole_formula(5)
    for seed in range(3):
        shuffled = shuffle_formula(base, seed)
        solver = Solver(
            shuffled, config=config_by_name("berkmin", proof_logging=True, restart_interval=30)
        )
        result = solver.solve()
        assert result.is_unsat
        assert check_rup_proof(shuffled, result.proof)


def test_implication_graph_invariants_mid_search_all_configs():
    from repro.generators.pigeonhole import pigeonhole_formula

    for name in sorted(CONFIG_FACTORIES):
        solver = Solver(pigeonhole_formula(6), config=config_by_name(name))
        solver.solve(max_decisions=25)
        graph = ImplicationGraph.from_solver(solver)
        graph.check_acyclic_and_ordered()


def test_dimacs_roundtrip_through_solver():
    rng = random.Random(5)
    for trial in range(15):
        formula = _random_formula(rng)
        reparsed = parse_dimacs(write_dimacs(formula))
        first = Solver(formula).solve()
        second = Solver(reparsed).solve()
        assert first.status is second.status


def test_incremental_equivalence_checking_flow():
    """A realistic EDA flow: one solver, many output checks via assumptions."""
    from repro.circuits import build_miter, encode_circuit, pipelined_alu
    from repro.circuits.random_circuit import rewrite_circuit

    reference = pipelined_alu(3, 2, "reference")
    optimized = pipelined_alu(3, 2, "optimized")
    miter = build_miter(reference, optimized)
    encoding = encode_circuit(miter)
    solver = Solver(encoding.formula)
    # Check each per-bit difference net separately, reusing learned clauses.
    difference_variables = [
        encoding.variable(net) for net in encoding.variables if net.startswith("diff")
    ]
    assert difference_variables
    for variable in difference_variables:
        result = solver.solve(assumptions=[variable])
        assert result.is_unsat and result.under_assumptions
    # The miter output itself is also unreachable.
    final = solver.solve(assumptions=[encoding.variable("miter_out")])
    assert final.is_unsat


def test_solver_reuse_across_many_calls():
    """Stats accumulate and answers stay correct over repeated solves."""
    rng = random.Random(33)
    solver = Solver(CnfFormula(num_variables=6))
    reference = CnfFormula(num_variables=6)
    for _ in range(30):
        clause = [
            v * rng.choice((1, -1)) for v in rng.sample(range(1, 7), rng.randint(1, 3))
        ]
        reference.add_clause(clause)
        solver.add_clause(clause)
        expected = brute_force_satisfiable(reference)
        result = solver.solve()
        assert result.is_sat == expected
        if not expected:
            break


@pytest.mark.parametrize("config_name", ["berkmin", "chaff"])
def test_generated_families_end_to_end(config_name, tmp_path):
    """generate -> file -> parse -> solve -> expected status, per family."""
    from repro.cli import main

    cases = [
        (["generate", "hole", "--size", "4", "-o"], 20),
        (["generate", "queens", "--size", "6", "-o"], 10),
        (["generate", "xor", "--size", "10", "--extra", "8", "-o"], 10),
        (["generate", "adder", "--size", "4", "-o"], 20),
    ]
    for arguments, expected_code in cases:
        path = str(tmp_path / "instance.cnf")
        assert main(arguments + [path]) == 0
        assert main(["solve", path, "--config", config_name]) == expected_code
