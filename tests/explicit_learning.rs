//! Integration tests for the explicit-learning pipeline: soundness must
//! hold for every combination of correlation mode, ordering and partial
//! fraction, on both SAT and UNSAT instances.

use csat::core::{
    check_model, explicit, CorrelationMode, ExplicitOptions, Solver, SolverOptions,
    SubproblemOrdering, Verdict,
};
use csat::netlist::generators::VliwOptions;
use csat::netlist::{generators, miter, optimize};
use csat::sim::{find_correlations, SimulationOptions};

fn all_option_grid() -> Vec<ExplicitOptions> {
    let mut grid = Vec::new();
    for mode in [
        CorrelationMode::Pairs,
        CorrelationMode::Constants,
        CorrelationMode::Both,
    ] {
        for ordering in [
            SubproblemOrdering::Topological,
            SubproblemOrdering::Reverse,
            SubproblemOrdering::Random(99),
        ] {
            for fraction in [0.3, 0.7, 1.0] {
                grid.push(ExplicitOptions {
                    mode,
                    ordering,
                    fraction,
                    ..Default::default()
                });
            }
        }
    }
    grid
}

#[test]
fn unsat_miter_stays_unsat_under_all_option_combinations() {
    let circuit = generators::ripple_carry_adder(5);
    let m = miter::self_miter(&circuit, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    for options in all_option_grid() {
        let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        explicit::run(&mut solver, &correlations, &options);
        assert!(
            solver.solve(m.objective).is_unsat(),
            "unsound with {options:?}"
        );
    }
}

#[test]
fn sat_instance_stays_sat_under_all_option_combinations() {
    let (aig, objective) = generators::vliw_like(
        42,
        &generators::VliwOptions {
            inputs: 10,
            core_gates: 90,
            clauses: 40,
            clause_width: 3,
        },
    );
    let correlations = find_correlations(&aig, &SimulationOptions::default());
    for options in all_option_grid() {
        let mut solver = Solver::new(&aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        explicit::run(&mut solver, &correlations, &options);
        match solver.solve(objective) {
            Verdict::Sat(model) => {
                let values = aig.evaluate(&model);
                assert!(aig.lit_value(&values, objective), "bad model: {options:?}");
            }
            other => panic!("lost satisfiability with {options:?}: {other:?}"),
        }
    }
}

#[test]
fn opt_style_miter_benefits_from_explicit_learning() {
    let base = generators::alu(10);
    let variant = optimize::restructure_seeded(&base, 77);
    let m = miter::build_fresh(&base, &variant, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());

    // Plain solve conflicts.
    let mut plain = Solver::new(&m.aig, SolverOptions::default());
    assert!(plain.solve(m.objective).is_unsat());
    let plain_conflicts = plain.stats().conflicts;

    // Explicit learning first, then solve: the final solve needs fewer
    // conflicts than the plain run's total.
    let mut learned = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    learned.set_correlations(&correlations);
    explicit::run(&mut learned, &correlations, &ExplicitOptions::default());
    let before = learned.stats().conflicts;
    assert!(learned.solve(m.objective).is_unsat());
    let final_conflicts = learned.stats().conflicts - before;
    assert!(
        final_conflicts < plain_conflicts.max(1),
        "explicit learning should shrink the final solve: {final_conflicts} vs {plain_conflicts}"
    );
}

#[test]
fn learned_budget_is_respected_per_subproblem() {
    let circuit = generators::array_multiplier(6);
    let m = miter::self_miter(&circuit, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    // With a generous budget all sub-problems resolve; with a zero-ish
    // budget (clamped to 1) many abort — either way the final answer holds.
    for budget in [1, 10, 1000] {
        let mut solver = Solver::new(&m.aig, SolverOptions::default());
        let report = explicit::run(
            &mut solver,
            &correlations,
            &ExplicitOptions {
                learned_budget: budget,
                ..Default::default()
            },
        );
        assert_eq!(
            report.subproblems,
            report.refuted + report.aborted + report.satisfiable
        );
        assert!(solver.solve(m.objective).is_unsat(), "budget {budget}");
    }
}

#[test]
fn topological_ordering_never_slower_in_conflicts_on_multiplier() {
    // The paper's Table VI: topological beats reverse. Compare conflict
    // counts (stable across machines, unlike wall clock).
    let circuit = generators::array_multiplier(7);
    let m = miter::self_miter(&circuit, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let conflicts_for = |ordering: SubproblemOrdering| {
        let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        explicit::run(
            &mut solver,
            &correlations,
            &ExplicitOptions {
                ordering,
                ..Default::default()
            },
        );
        assert!(solver.solve(m.objective).is_unsat());
        solver.stats().conflicts
    };
    let topo = conflicts_for(SubproblemOrdering::Topological);
    let reverse = conflicts_for(SubproblemOrdering::Reverse);
    assert!(
        topo <= reverse,
        "topological ({topo}) should need no more conflicts than reverse ({reverse})"
    );
}

const ORDERINGS: [SubproblemOrdering; 3] = [
    SubproblemOrdering::Topological,
    SubproblemOrdering::Reverse,
    SubproblemOrdering::Random(5),
];

#[test]
fn satisfiable_orientations_are_settled_by_stored_witnesses() {
    // Mixed circuit+CNF instances carry many correlations that do not
    // hold; once one orientation's model is stored, later orientations it
    // already satisfies are counted satisfiable without a solve.
    let (aig, objective) = generators::vliw_like(
        7,
        &VliwOptions {
            inputs: 24,
            core_gates: 400,
            clauses: 300,
            clause_width: 4,
        },
    );
    let correlations = find_correlations(&aig, &SimulationOptions::default());
    for ordering in ORDERINGS {
        let mut solver = Solver::new(&aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        let report = explicit::run(
            &mut solver,
            &correlations,
            &ExplicitOptions {
                ordering,
                ..Default::default()
            },
        );
        assert!(report.witnessed > 0, "{ordering:?}: {report:?}");
        assert!(report.witnessed <= 2 * report.satisfiable, "{report:?}");
        assert_eq!(
            report.subproblems,
            report.refuted + report.aborted + report.satisfiable
        );
        match solver.solve(objective) {
            Verdict::Sat(model) => assert!(check_model(&aig, &model, objective), "{ordering:?}"),
            other => panic!("{ordering:?}: expected SAT, got {other:?}"),
        }
    }
}

#[test]
fn unsat_miters_store_no_witnesses_and_repeat_exactly() {
    // On equivalence miters the correlations hold, so no orientation is
    // satisfiable and the pass behaves exactly as with no witness pool:
    // two runs give identical reports and solver statistics.
    for base in [
        generators::array_multiplier(5),
        generators::ripple_carry_adder(8),
    ] {
        let variant = optimize::restructure_seeded(&base, 7);
        let m = miter::build_fresh(&base, &variant, Default::default());
        let correlations = find_correlations(&m.aig, &SimulationOptions::default());
        for ordering in ORDERINGS {
            let run_once = || {
                let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
                solver.set_correlations(&correlations);
                let report = explicit::run(
                    &mut solver,
                    &correlations,
                    &ExplicitOptions {
                        ordering,
                        ..Default::default()
                    },
                );
                assert!(solver.solve(m.objective).is_unsat(), "{ordering:?}");
                let counts = (report.subproblems, report.refuted, report.satisfiable);
                (report.witnessed, counts, *solver.stats())
            };
            let first = run_once();
            assert_eq!(first.0, 0, "{ordering:?}");
            assert_eq!(first, run_once(), "{ordering:?}");
        }
    }
}
