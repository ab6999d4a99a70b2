#!/usr/bin/env python3
"""csat benchmark: drives the shipped front doors on seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds `csat`, `cec` and
`csat-serve` plus the in-process harness (`perfbench/src/main.rs`) in
release mode, generates the workload's instances from the seed, and then:

* `--trace 0`: a closed loop through the front door for `--seconds`,
  timing every verdict with no observer flags; prints the end-to-end
  metrics.
* `--trace 1`: the same front door and the in-process harness, in turn,
  on a fixed prefix of the same instances; prints the per-layer metrics.

`--workload all` runs every workload in turn, each ending in its own
result line.

Every verdict is checked against the truth known from construction and
every SAT model against the generated netlist; a wrong verdict exits 1
without a result. The last stdout line is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Pool: instances generated per run; the closed loop cycles through them.
# Trace: the fixed prefix the traced run covers, so its work counts repeat.
# The fast workloads answer each instance of their pool several times in
# one run, so the tail is taken over per-instance medians that a burst of
# host load in one second cannot move; the slow ones answer about one pool.
WORKLOADS = {
    "cec-opt": {"pool": 192, "trace": 24},
    "cec-commute": {"pool": 256, "trace": 16},
    "sat-vliw": {"pool": 128, "trace": 8},
    "serve-stream": {"pool": 256, "trace": 12},
}
# Set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS,
# so its median spans more than one swing of the host's speed.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# The first seconds of load run slower than the rest; they are answered
# and checked but not timed.
WARMUP_SECONDS = 2.0
SERVE_WORKERS = 2
SERVE_OUTSTANDING = 2
TAIL_BEYOND = 10


class WrongVerdict(Exception):
    pass


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--bin", "csat", "--bin", "cec", "--bin", "csat-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in commands:
        if subprocess.run(cmd, cwd=root, env=env).returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name)
            for name in ("csat", "cec", "csat-serve", "csat-perfbench")}


def harness(bins, *args):
    cmd = [bins["csat-perfbench"]] + [str(a) for a in args]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def generate(bins, workload, seed, count, work):
    if harness(bins, "gen", workload, seed, count, work).returncode != 0:
        sys.exit("instance generation failed")
    with open(os.path.join(work, "manifest.jsonl")) as f:
        pool = [json.loads(line) for line in f]
    for inst in pool:
        inst["paths"] = [os.path.join(work, name) for name in inst["files"]]
    return pool


class Daemon:
    """`csat-serve --stdin`, spoken to over its pipes by one client."""

    def __init__(self, exe):
        self.proc = subprocess.Popen(
            [exe, "--stdin", "--workers", str(SERVE_WORKERS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        self.send({"type": "status"})
        while self.recv()["type"] != "status":
            pass

    def send(self, frame):
        self.send_text(json.dumps(frame))

    def send_text(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("csat-serve closed its output")
        return json.loads(line)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for csat-serve")

    def stop(self):
        """Graceful drain; returns the exit code."""
        self.send({"type": "drain"})
        self.proc.stdin.close()
        for _ in self.proc.stdout:
            pass
        return self.proc.wait(timeout=60)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run_cli(bins, inst, models):
    """One verdict through `cec` or `csat`: (latency s, answered, rss KiB)."""
    exe = bins["cec"] if inst["door"] == "cec" else bins["csat"]
    start = time.perf_counter()
    proc = subprocess.Popen([exe] + inst["paths"], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if inst["door"] == "cec":
        first = lines[0] if lines else None
        verdict = {(0, "EQUIVALENT"): "unsat", (1, "DIFFERENT"): "sat"}.get((code, first))
    else:
        answer = next((l for l in lines if l.startswith("s ")), None)
        verdict = {(10, "s SATISFIABLE"): "sat", (20, "s UNSATISFIABLE"): "unsat"}.get((code, answer))
        if verdict == "sat":
            bits = [l[2:] for l in lines if l.startswith("v ")]
            if len(bits) != 1:
                raise WrongVerdict(f"instance {inst['index']}: SAT without a model")
            models.append((inst["index"], bits[0]))
    if verdict is not None and verdict != inst["expect"]:
        raise WrongVerdict(f"instance {inst['index']}: {verdict}, built {inst['expect']}")
    return latency, verdict is not None, usage.ru_maxrss


def solve_fields(inst):
    """A solve frame's fields after `type` and `id`, as JSON text."""
    with open(inst["paths"][0]) as f:
        fields = {"source": f.read(), "format": "bench", "timeout_ms": inst["timeout_ms"]}
    if inst["prep"]:
        fields["prep"] = "full"
    return json.dumps(fields)[1:]


def run_serve(daemon, pool, seconds, models):
    """Closed loop, SERVE_OUTSTANDING jobs in flight on one connection."""
    fields = [solve_fields(inst) for inst in pool]
    latencies, indices, job_ms = [], [], []
    attempted = failed = rejects = depth_peak = 0
    inflight = {}
    start = time.perf_counter()

    def more():
        if seconds is None:
            return attempted < len(pool)
        return time.perf_counter() - start < seconds

    while True:
        while len(inflight) < SERVE_OUTSTANDING and more():
            inst = pool[attempted % len(pool)]
            job_id = f"j{attempted}"
            frame = f'{{"type": "solve", "id": "{job_id}", {fields[attempted % len(pool)]}'
            inflight[job_id] = (time.perf_counter(), inst)
            daemon.send_text(frame)
            attempted += 1
        if not inflight:
            break
        msg = daemon.recv()
        kind = msg.get("type")
        if kind == "queued":
            depth_peak = max(depth_peak, msg.get("depth", 0))
        elif kind == "reject":
            inflight.pop(msg["id"])
            rejects += 1
            failed += 1
        elif kind == "result":
            sent, inst = inflight.pop(msg["id"])
            latency = time.perf_counter() - sent
            status = msg["status"]
            if status in ("sat", "unsat"):
                if status != inst["expect"]:
                    raise WrongVerdict(f"instance {inst['index']}: {status}, built {inst['expect']}")
                if status == "sat":
                    models.append((inst["index"], msg["model"]))
                latencies.append(latency)
                indices.append(inst["index"])
                job_ms.append(msg["elapsed_ms"])
            else:
                failed += 1
        elif kind == "error":
            raise RuntimeError(f"csat-serve refused a frame: {msg}")
    wall = time.perf_counter() - start
    return {"latencies": latencies, "indices": indices, "job_ms": job_ms, "attempted": attempted,
            "failed": failed, "rejects": rejects, "depth_peak": depth_peak,
            "wall": wall}


def run_front_door(bins, workload, pool, seconds, daemon, models):
    """Closed loop through the workload's front door. With `seconds=None`,
    one pass over `pool`; otherwise cycle until `seconds` have passed."""
    if workload == "serve-stream":
        r = run_serve(daemon, pool, seconds, models)
        r["rss_mb"] = daemon.peak_rss_mb()
        return r
    latencies, indices, rss_kib = [], [], 0
    attempted = failed = 0
    start = time.perf_counter()
    while (attempted < len(pool) if seconds is None
           else time.perf_counter() - start < seconds):
        inst = pool[attempted % len(pool)]
        latency, answered, rss = run_cli(bins, inst, models)
        attempted += 1
        rss_kib = max(rss_kib, rss)
        if answered:
            latencies.append(latency)
            indices.append(inst["index"])
        else:
            failed += 1
    return {"latencies": latencies, "indices": indices, "attempted": attempted, "failed": failed,
            "wall": time.perf_counter() - start, "rss_mb": rss_kib / 1024.0}


def check_models(bins, workload, seed, count, models, work):
    """The oracle: every SAT model evaluated on the generated netlist."""
    if not models:
        return
    path = os.path.join(work, "models.txt")
    with open(path, "w") as f:
        f.writelines(f"{i} {bits}\n" for i, bits in models)
    if harness(bins, "check", workload, seed, count, path).returncode != 0:
        raise WrongVerdict("a SAT model failed the oracle")


def per_instance_medians(latencies, indices):
    """Each instance's median latency over its repeats in the run."""
    by_instance = {}
    for latency, index in zip(latencies, indices):
        by_instance.setdefault(index, []).append(latency)
    return [statistics.median(v) for v in by_instance.values()]


def tail(samples):
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it: (percentile, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 0, ordered[-1]
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = -(-pct * n // 100)  # nearest rank: ceil(pct * n / 100)
    return pct, ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup(bins, workload, seed, work, serve):
    """Instance generation plus daemon start-up, timed; returns the pool,
    the daemon (or None) and the set-up seconds."""
    # Writing the instance files dominates generation. Start each set-up
    # with no dirty pages left by the previous one, or the kernel throttles
    # its writes and the time grows with every repeat.
    shutil.rmtree(work, ignore_errors=True)
    os.sync()
    start = time.perf_counter()
    pool = generate(bins, workload, seed, WORKLOADS[workload]["pool"], work)
    daemon = Daemon(bins["csat-serve"]) if serve else None
    secs = time.perf_counter() - start
    # Nor may its writes spill into the timed loop that follows.
    os.sync()
    return pool, daemon, secs


def end_to_end(bins, workload, seed, seconds, work):
    serve = workload == "serve-stream"
    setups = []
    while True:
        pool, daemon, secs = setup(bins, workload, seed, work, serve)
        setups.append(secs)
        if len(setups) >= SETUP_REPEATS and sum(setups) >= SETUP_SECONDS:
            break
        if daemon is not None:
            # An idle daemon has nothing to drain; a drain costs ~1 s.
            daemon.kill()
    models = []
    try:
        warm = run_front_door(bins, workload, pool, WARMUP_SECONDS, daemon, models)
        r = run_front_door(bins, workload, pool, seconds, daemon, models)
        if daemon is not None and daemon.stop() != 0:
            raise RuntimeError("csat-serve did not drain cleanly")
    finally:
        if daemon is not None:
            daemon.kill()
    check_models(bins, workload, seed, len(pool), models, work)
    lat = [x * 1000.0 for x in r["latencies"]]
    if not lat:
        raise RuntimeError("no verdict answered")
    medians = per_instance_medians(lat, r["indices"])
    pct, tail_ms = tail(medians)
    summary = (f"{workload}: {len(lat)} verdicts in {r['wall']:.2f} s; "
               f"verdict_tail_ms is p{pct} of {len(medians)} per-instance medians")
    answered = len(lat) / r["attempted"]
    return r["attempted"] + warm["attempted"], r["failed"] + warm["failed"], summary, {
        "verdict_p50_ms": metric(statistics.median(lat), "ms"),
        "verdict_tail_ms": metric(tail_ms, "ms"),
        "throughput_per_s": metric(len(lat) / r["wall"], "1/s"),
        "answered_share": metric(answered, "ratio"),
        "peak_rss_mb": metric(r["rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def traced(bins, workload, seed, seconds, work):
    """Front door and in-process harness in turn on the trace prefix, until
    `seconds` have passed and each side has run twice."""
    count = WORKLOADS[workload]["trace"]
    pool, daemon, _ = setup(bins, workload, seed, work, workload == "serve-stream")
    pool = pool[:count]
    doors, passes, models = [], [], []
    start = time.perf_counter()
    try:
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            doors.append(run_front_door(bins, workload, pool, None, daemon, models))
            out = harness(bins, "trace", workload, seed, count, work)
            if out.returncode != 0:
                raise WrongVerdict("the in-process traced pass failed")
            passes.append(json.loads(out.stdout.strip().splitlines()[-1]))
        if daemon is not None and daemon.stop() != 0:
            raise RuntimeError("csat-serve did not drain cleanly")
    finally:
        if daemon is not None:
            daemon.kill()
    check_models(bins, workload, seed, count, models, work)
    counts = passes[0]["counts"]
    if any(p["counts"] != counts for p in passes):
        raise WrongVerdict("traced passes counted different work")
    pin_counts(work, workload, seed, counts)

    n = counts["instances"]

    def per_verdict_ms(layer):
        return statistics.median(p["ns"][layer] for p in passes) / n / 1e6

    layers = ["parse", "miter", "sim", "explicit", "solve", "check", "prep"]
    layer_ms = {name: per_verdict_ms(name) for name in layers}
    wall_ms = per_verdict_ms("wall")
    door_ms = statistics.median(statistics.mean(d["latencies"]) for d in doors) * 1000.0
    solve_ns = statistics.median(p["ns"]["solve"] for p in passes)
    serve = workload == "serve-stream"

    def ratio(a, b):
        return a / b if b else 0.0

    def serve_stat(f):
        return statistics.median(f(d) for d in doors) if serve else 0.0

    def ms(layer):
        return metric(layer_ms[layer], "ms")

    def count(key):
        return metric(counts[key], "count")

    m = {
        "netlist.parse_ms": ms("parse"),
        "netlist.miter_ms": ms("miter"),
        "netlist.ands": count("ands"),
        "sim.ms": ms("sim"),
        "sim.rounds": count("sim_rounds"),
        "sim.correlations": count("correlations"),
        "core.explicit_ms": ms("explicit"),
        "core.explicit_subproblems": count("subproblems"),
        "core.explicit_refuted": count("refuted"),
        "core.explicit_useful_ratio": metric(ratio(counts["refuted"], counts["subproblems"]), "ratio"),
        "core.solve_ms": ms("solve"),
        "core.solve_conflicts": count("conflicts"),
        "core.solve_propagations": count("propagations"),
        "core.solve_decisions": count("decisions"),
        "core.solve_ns_per_conflict": metric(ratio(solve_ns, counts["conflicts"]), "ns"),
        "core.check_ms": ms("check"),
        "prep.ms": ms("prep"),
        "prep.nodes_before": count("prep_nodes_before"),
        "prep.nodes_after": count("prep_nodes_after"),
        "prep.candidates": count("prep_candidates"),
        "prep.merged": count("prep_merged"),
        "prep.merge_ratio": metric(ratio(counts["prep_merged"], counts["prep_candidates"]), "ratio"),
        "prep.sweep_conflicts": count("prep_sweep_conflicts"),
        "serve.job_ms": metric(serve_stat(lambda d: statistics.mean(d["job_ms"])), "ms"),
        "serve.overhead_ms": metric(serve_stat(
            lambda d: 1000.0 * statistics.mean(d["latencies"]) - statistics.mean(d["job_ms"])), "ms"),
        "serve.queue_depth_peak": metric(serve_stat(lambda d: d["depth_peak"]), "count"),
        "serve.rejects": metric(sum(d.get("rejects", 0) for d in doors), "count"),
        "other_ms": metric(wall_ms - sum(layer_ms.values()), "ms"),
        "trace.wall_ms": metric(wall_ms, "ms"),
        "trace.overhead_share": metric(wall_ms / door_ms, "ratio"),
    }
    shares = ", ".join(f"{k} {100 * v / wall_ms:.1f}%" for k, v in layer_ms.items() if v)
    summary = (f"{workload}: traced {n} verdicts x {len(passes)} passes; "
               f"share of traced time: {shares}")
    attempted = sum(d["attempted"] for d in doors) + n * len(passes)
    return attempted, sum(d["failed"] for d in doors), summary, m


def pin_counts(work, workload, seed, counts):
    """Work counts must repeat exactly for a seed: compare with the counts
    an earlier traced run in this checkout recorded."""
    path = os.path.join(os.path.dirname(work), f"counts-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != counts:
                raise WrongVerdict(f"work counts differ from the earlier run recorded in {path}; "
                                   "delete it if the program's behaviour changed on purpose")
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        sys.exit("run from the root of a csat source checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bins = build(root, target)

    run = traced if args.trace else end_to_end
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        work = os.path.join(target, "perfbench-work", workload)
        try:
            attempted, failed, summary, metrics = run(bins, workload, args.seed,
                                                      args.seconds, work)
        except WrongVerdict as e:
            sys.exit(f"wrong verdict: {e}")
        except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
            sys.exit(f"benchmark error: {e}")
        print(summary)
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                          "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
