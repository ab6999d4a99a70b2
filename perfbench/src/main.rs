//! In-process half of the csat benchmark; `perfbench/run.py` drives it.
//!
//! ```text
//! csat-perfbench gen   <workload> <seed> <count> <dir>
//! csat-perfbench check <workload> <seed> <count> <models>
//! csat-perfbench trace <workload> <seed> <count> <dir>
//! ```
//!
//! * `gen` writes the instance files of one workload and a
//!   `manifest.jsonl` naming, per instance, the front door, the files, the
//!   verdict known from construction and the serve request fields.
//! * `check` is the verdict oracle for SAT models (`<index> <bits>` lines):
//!   it regenerates the netlists and evaluates each model on the generated
//!   netlist itself with `Aig::evaluate_outputs`, never through the
//!   solver's own model check.
//! * `trace` makes the front door's call sequence in process, on the files
//!   `gen` wrote for the first `count` instances, timing the public call
//!   into each layer. It prints one JSON line with per-layer nanoseconds
//!   and the deterministic work counts, summed over the instances.
//!
//! Exit code 0 on success, 1 on a wrong verdict, 2 on a usage or input
//! error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csat::core::{
    check_model, explicit, Budget, CancelToken, ExplicitOptions, Solver, SolverOptions, Verdict,
};
use csat::netlist::generators::{self, VliwOptions};
use csat::netlist::{bench, miter, optimize, Aig, Lit};
use csat::prep::{PrepLevel, PrepOptions, PrepPipeline};
use csat::serve::job::JobObserver;
use csat::sim::{find_correlations_observed, SimulationOptions};
use csat::telemetry::NoOpObserver;

/// Per-job time limit carried by every serve frame; far above any job's
/// solve time, so it bounds a hang without ever deciding a verdict.
const SERVE_TIMEOUT_MS: u64 = 20_000;

/// Size of the `sat-vliw` instances: about 5k AND gates after parsing.
const VLIW: VliwOptions = VliwOptions {
    inputs: 40,
    core_gates: 1200,
    clauses: 1000,
    clause_width: 4,
};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    CecOpt,
    CecCommute,
    SatVliw,
    ServeStream,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "cec-opt" => Workload::CecOpt,
            "cec-commute" => Workload::CecCommute,
            "sat-vliw" => Workload::SatVliw,
            "serve-stream" => Workload::ServeStream,
            _ => return None,
        })
    }
}

/// How an instance was built, which fixes its verdict.
#[derive(Clone, Copy, PartialEq)]
enum Family {
    /// Arithmetic block against a restructured copy: UNSAT.
    Opt,
    /// Multiplier against a restructured copy with its operands swapped:
    /// UNSAT.
    Commute,
    /// Mixed circuit+CNF instance with a planted witness: SAT.
    Vliw,
}

impl Family {
    fn expects_sat(self) -> bool {
        self == Family::Vliw
    }
}

/// The front door an instance goes through.
#[derive(Clone, Copy, PartialEq)]
enum Door {
    /// `cec left.bench right.bench`.
    Cec,
    /// `csat file.bench`.
    Csat,
    /// One inline `bench` frame to `csat-serve`; `prep` asks for
    /// `"prep":"full"`.
    Serve { prep: bool },
}

struct Instance {
    family: Family,
    door: Door,
    /// The netlist as generated (the left circuit of a pair), before any
    /// file round trip.
    left: Aig,
    /// The right circuit of an equivalence pair.
    right: Option<Aig>,
}

impl Instance {
    /// The single netlist a `csat` file or serve frame carries: the miter
    /// of a pair, or the netlist itself.
    fn single(&self) -> Aig {
        match &self.right {
            Some(right) => miter::build_fresh(&self.left, right, Default::default()).aig,
            None => self.left.clone(),
        }
    }

    fn files(&self, index: usize) -> Vec<String> {
        if self.door == Door::Cec {
            vec![format!("{index:04}.l.bench"), format!("{index:04}.r.bench")]
        } else {
            vec![format!("{index:04}.bench")]
        }
    }
}

/// SplitMix64: one seed per instance, derived from the benchmark seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The k-th instance of a family. Shapes rotate with `k`, so every pool
/// holds the same mix of sizes and only the restructuring seeds vary.
fn build(family: Family, k: usize, seed: u64) -> (Aig, Option<Aig>) {
    match family {
        Family::Opt => {
            let base = match k % 6 {
                0 => generators::multiply_accumulate(5),
                1 => generators::multiply_accumulate(6),
                2 => generators::array_multiplier(8),
                3 => generators::array_multiplier(12),
                4 => generators::rect_multiplier(9, 7),
                _ => generators::rect_multiplier(10, 8),
            };
            let variant = optimize::restructure_seeded(&base, seed);
            (base, Some(variant))
        }
        Family::Commute => {
            // 5-bit only: 6-bit pairs take 0.7-1.5 s each, too few fit in
            // one run for its figures to repeat across seeds.
            let base = if k.is_multiple_of(2) {
                generators::array_multiplier(5)
            } else {
                generators::carry_save_multiplier(5)
            };
            let variant = swap_operands(&optimize::restructure_seeded(&base, seed), 5);
            (base, Some(variant))
        }
        Family::Vliw => {
            let (mut aig, objective) = generators::vliw_like(seed, &VLIW);
            aig.clear_outputs();
            aig.set_output("sat", objective);
            (aig, None)
        }
    }
}

/// `circuit` over inputs `a[width] b[width]`, rewired to read `b` where it
/// read `a` and vice versa.
fn swap_operands(circuit: &Aig, width: usize) -> Aig {
    let mut out = Aig::new();
    let inputs = out.inputs_n(2 * width);
    let swapped: Vec<Lit> = inputs[width..]
        .iter()
        .chain(&inputs[..width])
        .copied()
        .collect();
    let outs = miter::import(&mut out, circuit, &swapped);
    for ((name, _), lit) in circuit.outputs().iter().zip(outs) {
        out.set_output(name.clone(), lit);
    }
    out
}

/// The `count` instances of a workload at a seed.
fn instances(workload: Workload, seed: u64, count: usize) -> Vec<Instance> {
    let families: Vec<Family> = match workload {
        Workload::CecOpt => vec![Family::Opt; count],
        Workload::CecCommute => vec![Family::Commute; count],
        Workload::SatVliw => vec![Family::Vliw; count],
        Workload::ServeStream => (0..count)
            .map(|i| {
                // Blocks of three hold one job of each family, in a
                // seeded order, so any prefix of the stream is an even mix.
                let mut block = [Family::Opt, Family::Commute, Family::Vliw];
                let r = mix(seed ^ 0x5EED, (i / 3) as u64);
                block.swap(2, (r % 3) as usize);
                block.swap(1, ((r >> 8) % 2) as usize);
                block[i % 3]
            })
            .collect(),
    };
    let mut seen = BTreeMap::new();
    families
        .into_iter()
        .enumerate()
        .map(|(i, family)| {
            let k = seen.entry(family as u8).or_insert(0usize);
            let (left, right) = build(family, *k, mix(seed, i as u64));
            *k += 1;
            let door = match workload {
                Workload::CecOpt | Workload::CecCommute => Door::Cec,
                Workload::SatVliw => Door::Csat,
                Workload::ServeStream => Door::Serve {
                    prep: family != Family::Vliw,
                },
            };
            Instance {
                family,
                door,
                left,
                right,
            }
        })
        .collect()
}

fn gen(workload: Workload, seed: u64, count: usize, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut manifest = String::new();
    for (i, inst) in instances(workload, seed, count).iter().enumerate() {
        let files = inst.files(i);
        let texts = match &inst.right {
            Some(right) if inst.door == Door::Cec => {
                vec![bench::write(&inst.left), bench::write(right)]
            }
            _ => vec![bench::write(&inst.single())],
        };
        for (name, text) in files.iter().zip(&texts) {
            write(&dir.join(name), text)?;
        }
        let door = match inst.door {
            Door::Cec => "cec",
            Door::Csat => "csat",
            Door::Serve { .. } => "serve",
        };
        let files: Vec<String> = files.iter().map(|f| format!("\"{f}\"")).collect();
        let prep = matches!(inst.door, Door::Serve { prep: true });
        manifest.push_str(&format!(
            "{{\"index\":{i},\"door\":\"{door}\",\"files\":[{}],\"expect\":\"{}\",\
             \"prep\":{prep},\"timeout_ms\":{SERVE_TIMEOUT_MS}}}\n",
            files.join(","),
            if inst.family.expects_sat() {
                "sat"
            } else {
                "unsat"
            },
        ));
    }
    write(&dir.join("manifest.jsonl"), &manifest)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Whether `model` satisfies the generated netlist of a SAT instance.
fn model_is_valid(inst: &Instance, model: &[bool]) -> bool {
    inst.family.expects_sat()
        && model.len() == inst.left.inputs().len()
        && inst.left.evaluate_outputs(model)[0]
}

fn check(workload: Workload, seed: u64, count: usize, models: &Path) -> Result<usize, String> {
    let pool = instances(workload, seed, count);
    let mut checked = 0;
    for line in read(models)?.lines().filter(|l| !l.trim().is_empty()) {
        let (index, bits) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed model line '{line}'"))?;
        let index: usize = index
            .parse()
            .map_err(|_| format!("malformed index '{index}'"))?;
        let inst = pool
            .get(index)
            .ok_or_else(|| format!("no instance {index}"))?;
        let bits = bits.trim();
        if !bits.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(format!("instance {index}: model is not a bit string"));
        }
        let model: Vec<bool> = bits.bytes().map(|b| b == b'1').collect();
        if !model_is_valid(inst, &model) {
            return Err(format!(
                "instance {index}: model does not satisfy the instance"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Time and work of one traced pass, summed over its instances.
#[derive(Default)]
struct Tally {
    ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tally {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.ns.entry(layer).or_default() += start.elapsed().as_nanos() as u64;
        out
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn json(map: &BTreeMap<&'static str, u64>) -> String {
        let fields: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

const LAYERS: [&str; 8] = [
    "wall", "parse", "miter", "sim", "explicit", "solve", "check", "prep",
];
const COUNTS: [&str; 15] = [
    "instances",
    "ands",
    "sim_rounds",
    "correlations",
    "subproblems",
    "refuted",
    "conflicts",
    "propagations",
    "decisions",
    "sat_models",
    "prep_nodes_before",
    "prep_nodes_after",
    "prep_candidates",
    "prep_merged",
    "prep_sweep_conflicts",
];

fn parse_file(tally: &mut Tally, path: &Path) -> Result<Aig, String> {
    let text = read(path)?;
    tally.time("parse", || {
        bench::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    })
}

fn first_output(aig: &Aig) -> Result<Lit, String> {
    aig.outputs()
        .first()
        .map(|&(_, l)| l)
        .ok_or_else(|| "circuit has no outputs".to_string())
}

/// Correlation analysis, explicit learning and the final solve, as `cec`
/// and `csat` wire them with default options.
fn learn_and_solve(
    tally: &mut Tally,
    aig: &Aig,
    objective: Lit,
    options: SolverOptions,
    budget: &Budget,
) -> Verdict {
    let mut solver = Solver::new(aig, options);
    let correlations = tally.time("sim", || {
        find_correlations_observed(aig, &SimulationOptions::default(), &mut NoOpObserver)
    });
    tally.count("sim_rounds", correlations.stats.rounds as u64);
    tally.count("correlations", correlations.correlations.len() as u64);
    solver.set_correlations(&correlations);
    let report = tally.time("explicit", || {
        explicit::run_budgeted_observed(
            &mut solver,
            &correlations,
            &ExplicitOptions::default(),
            budget,
            &mut NoOpObserver,
        )
    });
    tally.count("subproblems", report.subproblems as u64);
    tally.count("refuted", report.refuted as u64);
    let before = *solver.stats();
    let verdict = tally.time("solve", || {
        solver.solve_observed(objective, budget, &mut NoOpObserver)
    });
    let after = solver.stats();
    tally.count("conflicts", after.conflicts - before.conflicts);
    tally.count("propagations", after.propagations - before.propagations);
    tally.count("decisions", after.decisions - before.decisions);
    verdict
}

/// One instance through its front door's call sequence, in process.
fn trace_one(
    tally: &mut Tally,
    inst: &Instance,
    paths: &[PathBuf],
    budget: &Budget,
) -> Result<Verdict, String> {
    let verdict = match inst.door {
        Door::Cec => {
            let left = parse_file(tally, &paths[0])?;
            let right = parse_file(tally, &paths[1])?;
            if left.inputs().len() != right.inputs().len()
                || left.outputs().len() != right.outputs().len()
            {
                return Err("interface mismatch".into());
            }
            let m = tally.time("miter", || {
                miter::build_fresh(&left, &right, Default::default())
            });
            tally.count("ands", m.aig.and_count() as u64);
            let options = SolverOptions::builder().implicit_learning(true).build();
            learn_and_solve(tally, &m.aig, m.objective, options, budget)
        }
        Door::Csat => {
            let aig = parse_file(tally, &paths[0])?;
            let objective = first_output(&aig)?;
            tally.count("ands", aig.and_count() as u64);
            let options = SolverOptions::builder()
                .jnode_decisions(true)
                .implicit_learning(true)
                .build();
            let verdict = learn_and_solve(tally, &aig, objective, options, budget);
            if let Verdict::Sat(model) = &verdict {
                if !tally.time("check", || check_model(&aig, model, objective)) {
                    return Err("csat's own model check failed".into());
                }
            }
            verdict
        }
        Door::Serve { prep } => serve_one(tally, &paths[0], prep)?,
    };
    Ok(verdict)
}

/// A served job's call sequence (`csat_serve::job::solve_once` on one
/// worker), with the observer a served job runs under.
fn serve_one(tally: &mut Tally, path: &Path, prep: bool) -> Result<Verdict, String> {
    let aig = parse_file(tally, path)?;
    let objective = first_output(&aig)?;
    tally.count("ands", aig.and_count() as u64);
    let budget = Budget::UNLIMITED
        .with_time_limit(Some(Duration::from_millis(SERVE_TIMEOUT_MS)))
        .with_cancel(CancelToken::new());
    let mut obs = JobObserver::new(Arc::new(AtomicU64::new(0)), None);
    let options = SolverOptions::builder()
        .jnode_decisions(true)
        .implicit_learning(false)
        .build();
    let prepped = if prep {
        let pipeline = PrepPipeline::new(PrepOptions {
            level: PrepLevel::Full,
            ..PrepOptions::default()
        });
        let result = tally.time("prep", || {
            pipeline.run_under(&aig, &[objective], &budget, &mut obs)
        });
        let s = &result.stats;
        if let Some(reason) = s.interrupted {
            return Ok(Verdict::Unknown(reason));
        }
        tally.count("prep_nodes_before", s.nodes_before as u64);
        tally.count("prep_nodes_after", s.nodes_after as u64);
        tally.count("prep_candidates", s.candidates as u64);
        tally.count("prep_merged", s.merged as u64);
        tally.count("prep_sweep_conflicts", s.sweep_conflicts);
        Some(result)
    } else {
        None
    };
    let (solve_aig, solve_objective) = match &prepped {
        Some(r) => (
            &r.reduced,
            r.map_lit(objective)
                .ok_or("the objective is a preserved root")?,
        ),
        None => (&aig, objective),
    };
    let verdict = if solve_objective == Lit::FALSE {
        Verdict::Unsat
    } else if solve_objective == Lit::TRUE {
        Verdict::Sat(vec![false; solve_aig.inputs().len()])
    } else {
        let mut solver = Solver::new(solve_aig, options);
        let verdict = tally.time("solve", || {
            solver.solve_observed(solve_objective, &budget, &mut obs)
        });
        let stats = solver.stats();
        tally.count("conflicts", stats.conflicts);
        tally.count("propagations", stats.propagations);
        tally.count("decisions", stats.decisions);
        verdict
    };
    Ok(match (verdict, &prepped) {
        (Verdict::Sat(model), Some(r)) => {
            Verdict::Sat(tally.time("check", || r.lift_model(&model)))
        }
        (v, _) => v,
    })
}

fn trace(workload: Workload, seed: u64, count: usize, dir: &Path) -> Result<(), String> {
    let budget = Budget::from_timeout(None)
        .with_memory_limit(None)
        .with_cancel(csat::signal::install());
    let mut tally = Tally::default();
    for name in LAYERS {
        tally.ns.insert(name, 0);
    }
    for name in COUNTS {
        tally.counts.insert(name, 0);
    }
    for (i, inst) in instances(workload, seed, count).iter().enumerate() {
        let paths: Vec<PathBuf> = inst.files(i).iter().map(|f| dir.join(f)).collect();
        let start = Instant::now();
        let verdict = trace_one(&mut tally, inst, &paths, &budget)?;
        *tally.ns.entry("wall").or_default() += start.elapsed().as_nanos() as u64;
        tally.count("instances", 1);
        match verdict {
            Verdict::Sat(model) if model_is_valid(inst, &model) => tally.count("sat_models", 1),
            Verdict::Unsat if !inst.family.expects_sat() => {}
            Verdict::Unknown(reason) => return Err(format!("instance {i}: unknown ({reason})")),
            _ => return Err(format!("instance {i}: wrong verdict")),
        }
    }
    println!(
        "{{\"ns\":{},\"counts\":{}}}",
        Tally::json(&tally.ns),
        Tally::json(&tally.counts)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!("usage: csat-perfbench gen|check|trace <workload> <seed> <count> <dir|models>");
        ExitCode::from(2)
    };
    if args.len() != 5 {
        return usage();
    }
    let (Some(workload), Ok(seed), Ok(count)) = (
        Workload::parse(&args[1]),
        args[2].parse::<u64>(),
        args[3].parse::<usize>(),
    ) else {
        return usage();
    };
    let path = PathBuf::from(&args[4]);
    let result = match args[0].as_str() {
        "gen" => gen(workload, seed, count, &path).map_err(|e| (2, e)),
        "check" => check(workload, seed, count, &path)
            .map(|n| eprintln!("oracle: {n} models valid"))
            .map_err(|e| (1, e)),
        "trace" => trace(workload, seed, count, &path).map_err(|e| (1, e)),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, e)) => {
            eprintln!("error: {e}");
            ExitCode::from(code)
        }
    }
}
