//! `csat` — command-line circuit SAT solver.
//!
//! ```text
//! csat [OPTIONS] <FILE>
//!
//! FILE formats (by extension): .bench, .aag, .cnf / .dimacs
//!
//! OPTIONS:
//!   --output <NAME>     objective output (default: first output) = 1
//!   --negate            ask for objective = 0 instead
//!   --engine <E>        circuit | circuit-plain | cnf     [default: circuit]
//!   --prep[=<L>]        preprocessing level: off | light | full
//!                       (bare --prep means full)          [default: off]
//!   --no-implicit       disable implicit correlation learning
//!   --no-explicit       disable the explicit learning pass
//!   --check-proof       verify UNSAT answers by reverse unit propagation
//!   --timeout <SECS>    abort after this many seconds
//!   --mem-limit <SIZE>  learned-clause memory budget, k/m/g suffixes
//!                       accepted (DB reduction under pressure; abort only
//!                       if still over the limit)
//!   --sim-words <N>     u64 words simulated per node per round [default: 4]
//!   --sim-threads <N>   simulation threads (needs the `parallel` feature)
//!   --stats             print solver statistics
//!   --progress <SECS>   emit JSONL progress snapshots to stderr
//!   --metrics-out <F>   write an end-of-run JSON metrics report to F
//!   --threads <N>       solve on N parallel workers [default: 1]
//!   --par-mode <M>      portfolio | cubes            [default: portfolio]
//! ```
//!
//! With `--threads N` (N > 1) the solve runs on the parallel layer:
//! `portfolio` races N diversified solver configurations with learned-
//! clause sharing; `cubes` splits on the hottest variables after a probe
//! and conquers the subcubes with work stealing. The verdict is always
//! the same as a sequential solve's (soundness forbids anything else);
//! the winning worker, statistics and timing vary run to run.
//! `--check-proof` requires the sequential engine and is rejected with
//! `--threads > 1` (parallel runs assemble no single proof log).
//!
//! With `--prep` the netlist first runs through the `csat-prep` pipeline
//! (strash rebuild and cone pruning at `light`; plus simulation-guided
//! SAT sweeping at `full`) under the same time/memory/cancel budget as
//! the solve. The engines then solve the reduced netlist; SAT models are
//! lifted back to the original inputs before printing (and before the
//! final model check, which always runs against the original netlist).
//! If preprocessing alone proves the objective constant, the verdict is
//! reported without any kernel solve. `--check-proof` verifies the UNSAT
//! proof against the netlist the kernel actually solved — the reduced
//! one when `--prep` is active.
//!
//! Ctrl-C interrupts the solve cooperatively: the first strike yields
//! `s UNKNOWN` (reason `cancelled`) with partial statistics and a clean
//! exit; the second kills the process with status 130.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use csat::core::{explicit, Budget, ExplicitOptions, Solver, SolverOptions, Verdict};
use csat::netlist::load::{Circuit, LoadError};
use csat::netlist::{Aig, Lit};
use csat::par::{
    run_cubes, solve_aig_portfolio, solve_cnf_cubes, solve_cnf_portfolio, CircuitCubeSolver,
    CubeOptions, ParMode, ParOutcome, PortfolioOptions,
};
use csat::prep::{PrepLevel, PrepOptions, PrepPipeline, PrepResult};
use csat::sim::{find_correlations_observed, SimulationOptions};
use csat::telemetry::{MetricsRecorder, NoOpObserver, Observer, ProgressObserver};
use csat::types::parse_byte_size;

struct Options {
    file: String,
    output: Option<String>,
    negate: bool,
    engine: Engine,
    prep: PrepLevel,
    implicit: bool,
    explicit_pass: bool,
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

#[derive(PartialEq)]
enum Engine {
    Circuit,
    CircuitPlain,
    Cnf,
}

fn usage() -> ! {
    eprintln!(
        "usage: csat [--output NAME] [--negate] [--engine circuit|circuit-plain|cnf]\n\
         \x20           [--prep[=off|light|full]]\n\
         \x20           [--no-implicit] [--no-explicit] [--check-proof]\n\
         \x20           [--timeout SECS] [--mem-limit SIZE]\n\
         \x20           [--sim-words N] [--sim-threads N]\n\
         \x20           [--stats] [--progress SECS] [--metrics-out FILE]\n\
         \x20           [--threads N] [--par-mode portfolio|cubes]\n\
         \x20           <file.{{bench,aag,cnf}}>"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut options = Options {
        file: String::new(),
        output: None,
        negate: false,
        engine: Engine::Circuit,
        prep: PrepLevel::Off,
        implicit: true,
        explicit_pass: true,
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
            "--output" => options.output = Some(args.next().unwrap_or_else(|| usage())),
            "--negate" => options.negate = true,
            "--engine" => {
                options.engine = match args.next().as_deref() {
                    Some("circuit") => Engine::Circuit,
                    Some("circuit-plain") => Engine::CircuitPlain,
                    Some("cnf") => Engine::Cnf,
                    _ => usage(),
                }
            }
            "--no-implicit" => options.implicit = false,
            "--no-explicit" => options.explicit_pass = false,
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
            other if !other.starts_with('-') && options.file.is_empty() => {
                options.file = other.to_string();
            }
            _ => usage(),
        }
    }
    if options.file.is_empty() {
        usage();
    }
    options
}

fn load(options: &Options) -> Result<(Aig, Lit), LoadError> {
    let circuit = Circuit::read(&options.file)?;
    let objective = circuit.objective(options.output.as_deref(), options.negate)?;
    Ok((circuit.aig, objective))
}

fn main() -> ExitCode {
    let options = parse_args();
    let (aig, objective) = match load(&options) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "c {}: {} inputs, {} AND gates, objective {objective:?}",
        options.file,
        aig.inputs().len(),
        aig.and_count()
    );
    let start = Instant::now();
    // One observer for the whole pipeline: aggregate always (cheap), emit
    // progress snapshots only when --progress asked for them. With neither
    // flag the solvers run with the no-op observer (zero overhead).
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
    // Preprocessing runs under the same budget as the solve, so a timeout,
    // memory limit or Ctrl-C mid-sweep charges the solve's budget and
    // aborts cleanly (the pipeline keeps whatever sound reduction it had
    // committed).
    let prepped: Option<(PrepResult, Lit)> = if options.prep != PrepLevel::Off {
        let pipeline = PrepPipeline::new(PrepOptions {
            level: options.prep,
            simulation: options.simulation,
            ..PrepOptions::default()
        });
        let result = pipeline.run_under(&aig, &[objective], &budget, obs);
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
            .map_lit(objective)
            .expect("the objective is a preserved root");
        Some((result, mapped))
    } else {
        None
    };
    let (solve_aig, solve_objective) = match &prepped {
        Some((r, mapped)) => (&r.reduced, *mapped),
        None => (&aig, objective),
    };
    // A constant objective needs no kernel solve (the usual case: full
    // prep collapsed an equivalence miter). A constant-true objective is
    // satisfied by every assignment — all-false over the reduced inputs,
    // lifted below like any solver model.
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
        Some(v)
    } else if options.threads > 1 {
        let outcome = solve_parallel(&options, solve_aig, solve_objective, &budget, obs);
        eprintln!(
            "c parallel: {} workers ({:?}), winner {:?}, {} rounds total in {:?}",
            outcome.workers.len(),
            options.par_mode,
            outcome.winner,
            outcome.workers.iter().map(|w| w.rounds).sum::<u64>(),
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
        let verdict = match (&options.engine, outcome.verdict.clone()) {
            // CNF-engine models come back over CNF variables; map them to
            // circuit inputs like the sequential path does.
            (Engine::Cnf, Verdict::Sat(model)) => {
                let enc = csat::netlist::tseitin::encode_with_objective(solve_aig, solve_objective);
                Verdict::Sat(enc.input_values(solve_aig, &model))
            }
            (_, v) => v,
        };
        par_metrics = Some(outcome.metrics);
        Some(verdict)
    } else {
        solve_sequential(&options, solve_aig, solve_objective, &budget, obs)
    };
    let verdict = match verdict {
        Some(v) => v,
        None => return ExitCode::from(3),
    };
    // Lift reduced-netlist models back onto the original inputs; the
    // model check below always runs against the original netlist.
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
        // Parallel runs record per-worker events into their own recorders;
        // fold the merged copy in so the report covers every worker.
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
        Verdict::Sat(model) => {
            // Double-check the model by simulation before reporting.
            assert!(
                csat::core::check_model(&aig, &model, objective),
                "internal error: bad model"
            );
            println!("s SATISFIABLE");
            let bits: String = model.iter().map(|&b| if b { '1' } else { '0' }).collect();
            println!("v {bits}");
            ExitCode::from(10)
        }
        Verdict::Unsat => {
            println!("s UNSATISFIABLE");
            ExitCode::from(20)
        }
        Verdict::Unknown(reason) => {
            eprintln!("c interrupted: {reason}");
            println!("s UNKNOWN");
            ExitCode::SUCCESS
        }
    }
}

/// Single-threaded solve: the classic engine dispatch. Returns `None` only
/// when `--check-proof` was asked for and the proof failed verification
/// (`main` maps that to exit code 3).
fn solve_sequential(
    options: &Options,
    aig: &Aig,
    objective: Lit,
    budget: &Budget,
    obs: &mut dyn Observer,
) -> Option<Verdict> {
    match options.engine {
        Engine::Cnf => {
            let enc = csat::netlist::tseitin::encode_with_objective(aig, objective);
            let outcome = csat::cnf::Solver::new(&enc.cnf, csat::cnf::SolverOptions::default())
                .solve_observed(budget, obs);
            Some(match outcome {
                Verdict::Sat(model) => Verdict::Sat(enc.input_values(aig, &model)),
                Verdict::Unsat => Verdict::Unsat,
                Verdict::Unknown(reason) => Verdict::Unknown(reason),
            })
        }
        ref engine => {
            let solver_options = SolverOptions::builder()
                .jnode_decisions(*engine == Engine::Circuit)
                .implicit_learning(options.implicit)
                .build();
            let mut solver = Solver::new(aig, solver_options);
            if options.check_proof {
                solver.start_proof();
            }
            if options.implicit || options.explicit_pass {
                let correlations = find_correlations_observed(aig, &options.simulation, obs);
                eprintln!(
                    "c simulation: {} correlations in {:?} ({} rounds, {} patterns, \
                     sim {:?} + refine {:?})",
                    correlations.correlations.len(),
                    correlations.elapsed,
                    correlations.stats.rounds,
                    correlations.stats.patterns,
                    correlations.stats.sim_time,
                    correlations.stats.refine_time
                );
                solver.set_correlations(&correlations);
                if options.explicit_pass {
                    let report = explicit::run_budgeted_observed(
                        &mut solver,
                        &correlations,
                        &ExplicitOptions::default(),
                        budget,
                        obs,
                    );
                    eprintln!(
                        "c explicit learning: {} sub-problems ({} refuted, {} orientations witnessed)",
                        report.subproblems, report.refuted, report.witnessed
                    );
                    if let Some(reason) = report.interrupted {
                        eprintln!("c explicit learning interrupted: {reason}");
                    }
                }
            }
            let verdict = solver.solve_observed(objective, budget, obs);
            if options.stats {
                eprintln!("c stats: {:?}", solver.stats());
            }
            if options.check_proof && verdict == Verdict::Unsat {
                let proof = solver.take_proof();
                match csat::core::proof::verify_unsat(aig, &proof, objective) {
                    Ok(()) => eprintln!("c proof: VERIFIED ({} clauses)", proof.len()),
                    Err(e) => {
                        eprintln!("c proof: FAILED — {e}");
                        return None;
                    }
                }
            }
            Some(verdict)
        }
    }
}

/// Multi-threaded solve on the `csat-par` layer. The CNF engine races (or
/// cubes) over the Tseitin encoding — its SAT models come back over CNF
/// variables and are mapped to circuit inputs by `main`. Circuit engines
/// share one correlation analysis across all workers.
fn solve_parallel(
    options: &Options,
    aig: &Aig,
    objective: Lit,
    budget: &Budget,
    obs: &mut dyn Observer,
) -> ParOutcome {
    if options.engine == Engine::Cnf {
        let enc = csat::netlist::tseitin::encode_with_objective(aig, objective);
        return match options.par_mode {
            ParMode::Portfolio => solve_cnf_portfolio(
                &enc.cnf,
                csat::cnf::SolverOptions::default(),
                options.threads,
                &PortfolioOptions::default(),
                budget,
            ),
            ParMode::Cubes => solve_cnf_cubes(
                &enc.cnf,
                csat::cnf::SolverOptions::default(),
                options.threads,
                &CubeOptions::default(),
                budget,
            ),
        };
    }
    let solver_options = SolverOptions::builder()
        .jnode_decisions(options.engine == Engine::Circuit)
        .implicit_learning(options.implicit)
        .build();
    // One simulation pass feeds every worker: correlations are a property
    // of the circuit, not of any particular search configuration.
    let correlations = if options.implicit {
        let c = find_correlations_observed(aig, &options.simulation, obs);
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
    match options.par_mode {
        ParMode::Portfolio => solve_aig_portfolio(
            aig,
            objective,
            solver_options,
            options.threads,
            &PortfolioOptions::default(),
            budget,
            |_, solver| {
                if let Some(c) = &correlations {
                    solver.set_correlations(c);
                }
            },
        ),
        ParMode::Cubes => {
            let mut base = CircuitCubeSolver::new(aig, objective, solver_options);
            if let Some(c) = &correlations {
                base.session.set_correlations(c);
            }
            run_cubes(base, options.threads, &CubeOptions::default(), budget)
        }
    }
}
