//! `cec` — combinational equivalence checker.
//!
//! The paper's motivating application: given two circuit files with the
//! same interface, prove them equivalent (UNSAT miter) or print a
//! counterexample, using the full signal-correlation pipeline.
//!
//! ```text
//! cec [OPTIONS] <LEFT> <RIGHT>
//!
//! LEFT/RIGHT: .bench or .aag circuit files (matched by input/output count)
//!
//! OPTIONS:
//!   --prep[=<L>]        preprocessing level: off | light | full
//!                       (bare --prep means full)          [default: off]
//!   --no-learning       plain C-SAT-Jnode (no correlation learning)
//!   --check-proof       verify an EQUIVALENT verdict by unit propagation
//!   --timeout <SECS>    abort after this many seconds
//!   --mem-limit <SIZE>  learned-clause memory budget, k/m/g suffixes
//!                       accepted (DB reduction under pressure; abort only
//!                       if still over the limit)
//!   --sim-words <N>     u64 words simulated per node per round [default: 4]
//!   --sim-threads <N>   simulation threads (needs the `parallel` feature)
//!   --stats             print solver statistics
//!   --progress <SECS>   emit JSONL progress snapshots to stderr
//!   --metrics-out <F>   write an end-of-run JSON metrics report to F
//!   --threads <N>       solve the miter on N parallel workers [default: 1]
//!   --par-mode <M>      portfolio | cubes            [default: portfolio]
//! ```
//!
//! With `--threads N` (N > 1) the final solve runs on the parallel layer
//! (see `csat --help` for the portfolio/cubes split); the correlation
//! analysis is shared across workers but the explicit learning pass is
//! skipped (it targets a single solver's clause database). `--check-proof`
//! is rejected with `--threads > 1`.
//!
//! With `--prep full` the miter first runs through the `csat-prep`
//! pipeline, which usually collapses equivalent circuit pairs outright:
//! when preprocessing proves the miter objective constant false the
//! verdict is EQUIVALENT with no kernel solve at all (in that fast path
//! there is no resolution proof, so `--check-proof` has nothing to
//! verify and is skipped). Counterexample models found on the reduced
//! miter are lifted back to the original inputs before display.
//!
//! Exit code 0 = equivalent, 1 = different, 2 = usage/input error,
//! 3 = proof check failure, 4 = interrupted (timeout, memory, Ctrl-C).
//!
//! Ctrl-C interrupts both the explicit-learning pass and the final solve
//! cooperatively (`UNKNOWN (cancelled)`, exit 4); a second Ctrl-C kills
//! the process with status 130.

use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use csat::core::{explicit, Budget, ExplicitOptions, Solver, SolverOptions, Verdict};
use csat::netlist::load::{Circuit, Format};
use csat::netlist::{miter, Aig, Lit};
use csat::par::{
    run_cubes, solve_aig_portfolio, CircuitCubeSolver, CubeOptions, ParMode, PortfolioOptions,
};
use csat::prep::{PrepLevel, PrepOptions, PrepPipeline, PrepResult};
use csat::sim::{find_correlations_observed, SimulationOptions};
use csat::telemetry::{MetricsRecorder, NoOpObserver, Observer, ProgressObserver};
use csat::types::parse_byte_size;

struct Options {
    left: String,
    right: String,
    prep: PrepLevel,
    learning: bool,
    check_proof: bool,
    timeout: Option<Duration>,
    mem_limit: Option<u64>,
    simulation: SimulationOptions,
    stats: bool,
    progress: Option<Duration>,
    metrics_out: Option<String>,
    threads: usize,
    par_mode: ParMode,
}

fn usage() -> ! {
    eprintln!(
        "usage: cec [--prep[=off|light|full]] [--no-learning] [--check-proof] [--timeout SECS]\n\
         \x20          [--mem-limit SIZE] [--sim-words N] [--sim-threads N]\n\
         \x20          [--stats] [--progress SECS] [--metrics-out FILE]\n\
         \x20          [--threads N] [--par-mode portfolio|cubes]\n\
         \x20          <left> <right>"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut options = Options {
        left: String::new(),
        right: String::new(),
        prep: PrepLevel::Off,
        learning: true,
        check_proof: false,
        timeout: None,
        mem_limit: None,
        simulation: SimulationOptions::default(),
        stats: false,
        progress: None,
        metrics_out: None,
        threads: 1,
        par_mode: ParMode::Portfolio,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `--prep` alone means full; `--prep LEVEL` / `--prep=LEVEL`
            // pick a level explicitly.
            "--prep" => {
                options.prep = match args.peek().map(|s| PrepLevel::parse(s)) {
                    Some(Some(level)) => {
                        args.next();
                        level
                    }
                    _ => PrepLevel::Full,
                }
            }
            prep_eq if prep_eq.starts_with("--prep=") => {
                options.prep =
                    PrepLevel::parse(&prep_eq["--prep=".len()..]).unwrap_or_else(|| usage());
            }
            "--no-learning" => options.learning = false,
            "--check-proof" => options.check_proof = true,
            "--timeout" => {
                let secs: u64 = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| usage());
                options.timeout = Some(Duration::from_secs(secs));
            }
            "--mem-limit" => {
                let text = args.next().unwrap_or_else(|| usage());
                match parse_byte_size(&text) {
                    Ok(bytes) => options.mem_limit = Some(bytes),
                    Err(e) => {
                        eprintln!("error: --mem-limit: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--sim-words" => {
                options.simulation.words = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|&w| w >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--sim-threads" => {
                options.simulation.threads = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--stats" => options.stats = true,
            "--progress" => {
                let secs: u64 = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| usage());
                options.progress = Some(Duration::from_secs(secs));
            }
            "--metrics-out" => {
                options.metrics_out = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--threads" => {
                options.threads = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--par-mode" => {
                options.par_mode = args
                    .next()
                    .and_then(|m| m.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                if options.left.is_empty() {
                    options.left = other.to_string();
                } else if options.right.is_empty() {
                    options.right = other.to_string();
                } else {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    if options.right.is_empty() {
        usage();
    }
    options
}

/// Reads a `.bench` or AIGER circuit; `cec` compares circuits, so DIMACS
/// input is rejected.
fn load(path: &str) -> Result<Aig, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    match Format::from_path(path) {
        Some(format @ (Format::Bench | Format::Aiger)) => Ok(Circuit::parse(&text, format)?.aig),
        _ => Err("unrecognized file extension (use .bench or .aag)".into()),
    }
}

fn main() -> ExitCode {
    let options = parse_args();
    let (left, right) = match (load(&options.left), load(&options.right)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if left.inputs().len() != right.inputs().len() || left.outputs().len() != right.outputs().len()
    {
        eprintln!(
            "error: interface mismatch ({}×{} vs {}×{} inputs×outputs)",
            left.inputs().len(),
            left.outputs().len(),
            right.inputs().len(),
            right.outputs().len()
        );
        return ExitCode::from(2);
    }
    let m = miter::build_fresh(&left, &right, Default::default());
    eprintln!(
        "c miter: {} AND gates over {} inputs",
        m.aig.and_count(),
        m.aig.inputs().len()
    );
    let start = Instant::now();
    // Aggregate metrics whenever either telemetry flag is set; otherwise
    // the solvers run with the no-op observer (zero overhead).
    let observing = options.progress.is_some() || options.metrics_out.is_some();
    let mut progress = ProgressObserver::new(std::io::stderr(), options.progress);
    let mut noop = NoOpObserver;
    let obs: &mut dyn Observer = if observing { &mut progress } else { &mut noop };
    let budget = Budget::from_timeout(options.timeout)
        .with_memory_limit(options.mem_limit)
        .with_cancel(csat::signal::install());
    if options.threads > 1 && options.check_proof {
        eprintln!("error: --check-proof requires the sequential engine (drop --threads)");
        return ExitCode::from(2);
    }
    // Preprocessing runs under the same budget as the solve. For
    // equivalent circuit pairs the sweep usually proves the miter
    // objective constant false outright — the fast path below.
    let prepped: Option<(PrepResult, Lit)> = if options.prep != PrepLevel::Off {
        let pipeline = PrepPipeline::new(PrepOptions {
            level: options.prep,
            simulation: options.simulation,
            ..PrepOptions::default()
        });
        let result = pipeline.run_under(&m.aig, &[m.objective], &budget, obs);
        let s = &result.stats;
        eprintln!(
            "c prep({}): {} -> {} nodes ({} folded, {} pruned, {} of {} candidates merged)",
            options.prep.name(),
            s.nodes_before,
            s.nodes_after,
            s.strash_folded,
            s.cones_pruned,
            s.merged,
            s.candidates
        );
        if let Some(reason) = s.interrupted {
            eprintln!("c prep interrupted: {reason}");
        }
        let mapped = result
            .map_lit(m.objective)
            .expect("the miter objective is a preserved root");
        Some((result, mapped))
    } else {
        None
    };
    let (solve_aig, solve_objective) = match &prepped {
        Some((r, mapped)) => (&r.reduced, *mapped),
        None => (&m.aig, m.objective),
    };
    // A constant miter objective needs no kernel solve: constant false
    // means every output pair was proven equal; constant true means the
    // circuits differ on every assignment (all-false below, lifted like
    // any counterexample).
    let decided = if solve_objective == Lit::FALSE {
        eprintln!("c objective is constant false — no kernel solve needed");
        Some(Verdict::Unsat)
    } else if solve_objective == Lit::TRUE {
        eprintln!("c objective is constant true — no kernel solve needed");
        Some(Verdict::Sat(vec![false; solve_aig.inputs().len()]))
    } else {
        None
    };
    let mut par_metrics: Option<MetricsRecorder> = None;
    let verdict = if let Some(v) = decided {
        v
    } else if options.threads > 1 {
        let solver_options = SolverOptions::builder()
            .implicit_learning(options.learning)
            .build();
        // One correlation analysis feeds every worker; the explicit pass
        // is skipped here (it learns into a single solver's database).
        let correlations = if options.learning {
            let c = find_correlations_observed(solve_aig, &options.simulation, obs);
            eprintln!(
                "c simulation: {} correlations in {:?} (shared across {} workers)",
                c.correlations.len(),
                c.elapsed,
                options.threads
            );
            Some(c)
        } else {
            None
        };
        let outcome = match options.par_mode {
            ParMode::Portfolio => solve_aig_portfolio(
                solve_aig,
                solve_objective,
                solver_options,
                options.threads,
                &PortfolioOptions::default(),
                &budget,
                |_, solver| {
                    if let Some(c) = &correlations {
                        solver.set_correlations(c);
                    }
                },
            ),
            ParMode::Cubes => {
                let mut base = CircuitCubeSolver::new(solve_aig, solve_objective, solver_options);
                if let Some(c) = &correlations {
                    base.session.set_correlations(c);
                }
                run_cubes(base, options.threads, &CubeOptions::default(), &budget)
            }
        };
        eprintln!(
            "c parallel: {} workers ({:?}), winner {:?} in {:?}",
            outcome.workers.len(),
            options.par_mode,
            outcome.winner,
            outcome.elapsed
        );
        if options.stats {
            for w in &outcome.workers {
                eprintln!(
                    "c worker {}: {:?}{} {:?}",
                    w.worker,
                    w.outcome,
                    if w.winner { " (winner)" } else { "" },
                    w.stats
                );
            }
        }
        par_metrics = Some(outcome.metrics);
        outcome.verdict
    } else {
        let mut solver = Solver::new(
            solve_aig,
            SolverOptions::builder()
                .implicit_learning(options.learning)
                .build(),
        );
        if options.check_proof {
            solver.start_proof();
        }
        if options.learning {
            let correlations = find_correlations_observed(solve_aig, &options.simulation, obs);
            eprintln!(
                "c simulation: {} correlations in {:?} ({} rounds, {} patterns)",
                correlations.correlations.len(),
                correlations.elapsed,
                correlations.stats.rounds,
                correlations.stats.patterns
            );
            solver.set_correlations(&correlations);
            let report = explicit::run_budgeted_observed(
                &mut solver,
                &correlations,
                &ExplicitOptions::default(),
                &budget,
                obs,
            );
            eprintln!(
                "c explicit learning: {}/{} sub-problems refuted, {} orientations witnessed",
                report.refuted, report.subproblems, report.witnessed
            );
            if report.panicked > 0 {
                eprintln!(
                    "c explicit learning: {} sub-solve(s) panicked (isolated)",
                    report.panicked
                );
            }
            if let Some(reason) = report.interrupted {
                eprintln!("c explicit learning interrupted: {reason}");
            }
        }
        let verdict = solver.solve_observed(solve_objective, &budget, obs);
        if options.stats {
            eprintln!("c stats: {:?}", solver.stats());
        }
        if options.check_proof && verdict == Verdict::Unsat {
            let proof = solver.take_proof();
            // With --prep the proof is over the netlist the kernel solved.
            match csat::core::proof::verify_unsat(solve_aig, &proof, solve_objective) {
                Ok(()) => eprintln!("c proof: VERIFIED ({} clauses)", proof.len()),
                Err(e) => {
                    eprintln!("c proof: FAILED — {e}");
                    return ExitCode::from(3);
                }
            }
        }
        verdict
    };
    // Lift reduced-miter counterexamples back onto the original inputs
    // (the distinguishing-input display below evaluates both original
    // circuits on the lifted model).
    let verdict = match (verdict, &prepped) {
        (Verdict::Sat(model), Some((r, _))) => Verdict::Sat(r.lift_model(&model)),
        (v, _) => v,
    };
    let elapsed = start.elapsed();
    eprintln!("c solved in {elapsed:?}");
    if let Some(path) = &options.metrics_out {
        let name = match &verdict {
            Verdict::Sat(_) => "SAT",
            Verdict::Unsat => "UNSAT",
            Verdict::Unknown(_) => "UNKNOWN",
        };
        // Fold merged per-worker recorders into the report on parallel runs.
        if let Some(m) = &par_metrics {
            progress.recorder.merge(m);
        }
        let report = progress.recorder.report_json(name, elapsed);
        match std::fs::write(path, report + "\n") {
            Ok(()) => eprintln!("c metrics written to {path}"),
            Err(e) => eprintln!("c warning: could not write {path}: {e}"),
        }
    }
    match verdict {
        Verdict::Unsat => {
            println!("EQUIVALENT");
            ExitCode::SUCCESS
        }
        Verdict::Sat(model) => {
            // Confirm and display the distinguishing input.
            let lo = left.evaluate_outputs(&model);
            let ro = right.evaluate_outputs(&model);
            assert_ne!(lo, ro, "internal error: model does not distinguish");
            let bits: String = model.iter().map(|&b| if b { '1' } else { '0' }).collect();
            println!("DIFFERENT");
            println!("input: {bits}");
            for (k, (name, _)) in left.outputs().iter().enumerate() {
                if lo[k] != ro[k] {
                    println!("output {name}: left={} right={}", lo[k] as u8, ro[k] as u8);
                }
            }
            ExitCode::from(1)
        }
        Verdict::Unknown(reason) => {
            println!("UNKNOWN ({reason})");
            ExitCode::from(4)
        }
    }
}
