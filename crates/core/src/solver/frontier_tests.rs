//! J-frontier exactness: the lazy queue must expose exactly the gates an
//! eager full scan finds unjustified, wherever the search happens to stop.
//!
//! Budget-limited `solve_under` calls stop the search mid-flight — at a
//! decision (decision budget) or right after a learned clause was asserted
//! (conflict budget). The test brings the stopped state to a BCP fixpoint,
//! which is where decisions read the frontier, and compares the queue
//! against a scan of every AND gate with [`is_unjustified`].

use std::collections::BTreeSet;

use csat_netlist::generators::{self, VliwOptions};
use csat_netlist::{miter, Aig, Lit, Node, NodeId};
use csat_search::propagate;
use csat_sim::{find_correlations, SimulationOptions};
use csat_telemetry::NoOpObserver;

use super::{CircuitPropagator, Solver};
use crate::implication::{is_unjustified, FALSE};
use crate::options::{Budget, SolverOptions, SubVerdict};

/// Asserts the frontier invariants of a solver stopped at a BCP fixpoint:
/// entries in strictly increasing trail position, every entry's output 0,
/// and the unjustified entries equal to all unjustified gates.
fn assert_frontier_exact(solver: &Solver<'_>) {
    let (aig, ctx, queue) = (solver.aig, &solver.ctx, &solver.state.jqueue);
    for pair in queue.windows(2) {
        assert!(
            ctx.position(pair[0] as usize) < ctx.position(pair[1] as usize),
            "queue out of trail order: {pair:?}"
        );
    }
    for &g in queue {
        assert_eq!(
            ctx.value(g as usize),
            FALSE,
            "queued gate {g} lost output 0"
        );
    }
    let unjustified = |g: usize| match aig.node(NodeId::from_index(g)) {
        Node::And(a, b) => is_unjustified(ctx.value(g), ctx.lit_value(a), ctx.lit_value(b)),
        _ => false,
    };
    let queued: BTreeSet<usize> = queue
        .iter()
        .map(|&g| g as usize)
        .filter(|&g| unjustified(g))
        .collect();
    let scanned: BTreeSet<usize> = (0..aig.len()).filter(|&g| unjustified(g)).collect();
    assert_eq!(queued, scanned, "queue and full scan disagree");
}

/// Stops budget-limited solves of `objective` again and again (alternating
/// decision and conflict budgets of varying size) until the instance is
/// decided, checking the frontier at every stop. Returns the number of
/// stops checked.
fn check_stops(aig: &Aig, objective: Lit, implicit: bool) -> usize {
    let options = SolverOptions::builder()
        .jnode_decisions(true)
        .implicit_learning(implicit)
        .build();
    let mut solver = Solver::new(aig, options);
    if implicit {
        let sim = SimulationOptions {
            words: 2,
            threads: 1,
            ..SimulationOptions::default()
        };
        solver.set_correlations(&find_correlations(aig, &sim));
    }
    let mut checked = 0;
    for round in 0..100u64 {
        let budget = if round % 2 == 0 {
            Budget {
                max_decisions: Some(1 + round * 3 % 17),
                ..Budget::UNLIMITED
            }
        } else {
            Budget::conflicts(1 + round % 5)
        };
        let verdict = solver.solve_under(&[objective], &budget, &mut NoOpObserver);
        if verdict == SubVerdict::Unsat {
            break; // refuted at the root: no search state to inspect
        }
        // A conflict-budget stop leaves the asserted literal unpropagated.
        let mut prop = CircuitPropagator {
            aig,
            state: &mut solver.state,
        };
        if propagate(&mut solver.ctx, &mut prop).is_none() {
            assert_frontier_exact(&solver);
            checked += 1;
        } else if solver.ctx.decision_level() == 0 {
            break; // a root conflict the kernel has not recorded yet
        }
        // Otherwise the stop sits on the brink of a conflict; the next
        // call's restart at level 0 discards it.
        if !matches!(verdict, SubVerdict::Aborted(_)) {
            break;
        }
    }
    checked
}

fn instances() -> Vec<(String, Aig, Lit)> {
    let mut out: Vec<(String, Aig, Lit)> = (0..24u64)
        .map(|seed| {
            let inst = csat_fuzz::instances::generate(seed);
            (format!("fuzz-{seed}"), inst.aig, inst.objective)
        })
        .collect();
    let mul = miter::self_miter(&generators::array_multiplier(4), Default::default());
    out.push(("mul-4".into(), mul.aig, mul.objective));
    let vliw = VliwOptions {
        inputs: 40,
        core_gates: 1500,
        clauses: 1600,
        clause_width: 4,
    };
    for seed in [3u64, 9] {
        let (aig, objective) = generators::vliw_like(seed, &vliw);
        out.push((format!("vliw-{seed}"), aig, objective));
    }
    out
}

#[test]
fn frontier_matches_full_scan_at_every_stop() {
    let mut total = 0;
    for (name, aig, objective) in instances() {
        for implicit in [false, true] {
            let checked = check_stops(&aig, objective, implicit);
            assert!(checked > 0, "{name} (implicit {implicit}): no stop checked");
            total += checked;
        }
    }
    assert!(total >= 400, "only {total} stops checked");
}
