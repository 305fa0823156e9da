//! Self-performance benchmark: wall-clock throughput of the **simulator
//! itself**, not of the simulated machine.
//!
//! Every figure sweep in this repo is bounded by how fast `TxMemory` can
//! push simulated words around, so this binary is the perf trajectory the
//! other benches read their budgets from. It runs four fixed
//! configurations (the While micro-benchmark, NPB CG, the WEBrick server
//! model, and the task server — compute-, conflict-, I/O- and
//! queue-shaped workloads) at 12/12/6/12 threads on the zEC12 profile
//! under HTM-dynamic, repeats each one several times, takes the median
//! wall time, and writes `BENCH_selfperf.json` at the repo root:
//!
//! * `current` — this build's medians, plus simulated bytecodes/sec and
//!   simulated words/sec derived from the (deterministic) run report;
//! * `baseline` — the same configurations measured at the commit preceding
//!   the ownership-directory rewrite of `TxMemory` (set-scan conflict
//!   detection), so `speedup_vs_baseline` records what the rewrite bought.
//!
//! `--gate` turns the binary into a regression gate instead: it measures
//! the same configurations, compares each one's simulated bytecodes/sec
//! against the **committed** `BENCH_selfperf.json`, writes the comparison
//! to `bench-results/selfperf_gate.json` (never touching the committed
//! file), and exits non-zero when any configuration regresses by more
//! than the tolerance (`HTMGIL_SELFPERF_TOLERANCE`, default 0.15). The
//! gate compares the *best* repetition — the committed number states what
//! the build can reach, and a regression gate asks whether this build can
//! still reach it; medians would flake on loaded CI runners without
//! catching any additional real regressions.
//!
//! `HTMGIL_QUICK=1` shrinks the workloads and the repetition count for
//! smoke runs; quick numbers are labelled as such and are not comparable
//! with the recorded baseline (and are rejected in `--gate` mode).

use std::time::Instant;

use bench::{quick, run_workload, runner, vm_config_for};
use htm_gil_core::{ExecConfig, Json, LengthPolicy, RunReport, RuntimeMode};
use machine_sim::MachineProfile;
use workloads::Workload;

/// Pre-rewrite wall-clock medians in milliseconds, measured at commit
/// 50f6038 (set-scan `doom_conflicting`, allocating `tbegin`) with a
/// release build of this same binary on the machine that produced the
/// committed `BENCH_selfperf.json`. Full (non-quick) configurations only.
const BASELINE_WALL_MS: &[(&str, f64)] =
    &[("while_12t_zec12", 365.9), ("cg_12t_zec12", 1150.9), ("webrick_6c_zec12", 1136.8)];

/// The fixed measurement configurations. Thread/scale choices mirror the
/// figure sweeps' most expensive points (fig4/fig5 at 12 threads on zEC12,
/// fig7 at 6 clients), where simulator wall-clock hurts the most.
fn configs(q: bool) -> Vec<(&'static str, Workload)> {
    let scale = if q { 1 } else { 4 };
    let iters = if q { 150 } else { 2_000 };
    let requests = if q { 48 } else { 600 };
    let tasks = if q { 96 } else { 1_200 };
    vec![
        ("while_12t_zec12", workloads::micro::while_bench(12, iters)),
        ("cg_12t_zec12", workloads::npb::cg(12, scale)),
        ("webrick_6c_zec12", workloads::webrick::webrick(6, requests)),
        // 8 clients + 4 workers = 12 simulated threads: the queue-heavy
        // mutex/park/wake shape the figure sweeps don't otherwise cover.
        ("taskserver_12t_zec12", workloads::taskserver::taskserver(8, 4, 64, tasks, false)),
    ]
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Measurement {
    name: &'static str,
    /// Median wall time over the repetitions.
    wall_ms: f64,
    /// Fastest repetition (the gate's comparison point).
    best_ms: f64,
    report: RunReport,
}

fn measure(name: &'static str, w: &Workload, reps: usize) -> Measurement {
    let profile = MachineProfile::zec12();
    let mode = RuntimeMode::Htm { length: LengthPolicy::Dynamic };
    let mut walls = Vec::with_capacity(reps);
    let mut report = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = run_workload(w, mode, &profile);
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        report = Some(r);
    }
    let best_ms = walls.iter().copied().fold(f64::INFINITY, f64::min);
    Measurement { name, wall_ms: median(&mut walls), best_ms, report: report.expect("reps >= 1") }
}

/// Simulated bytecodes retired by one (deterministic) run of a config.
fn sim_bytecodes(r: &RunReport) -> u64 {
    r.committed_insns + r.wasted_insns
}

fn run_measurements(q: bool, reps: usize) -> Vec<Measurement> {
    // Warm up allocator/page cache once so rep 1 is comparable to rep N.
    {
        let w = workloads::micro::while_bench(2, 50);
        let profile = MachineProfile::zec12();
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        bench::run_workload_with(&w, &profile, cfg, vm_config_for(w.threads));
    }
    let cfgs = configs(q);
    runner::sweep(
        "selfperf",
        &cfgs,
        |(name, _)| name.to_string(),
        |&(name, ref w)| measure(name, w, reps),
    )
}

/// `--gate`: compare against the committed `BENCH_selfperf.json` and fail
/// on regression past the tolerance. Never rewrites the committed file.
fn run_gate() -> i32 {
    let jobs = runner::jobs();
    if jobs != 1 {
        eprintln!("error: --gate wall times are only comparable at --jobs 1 (got {jobs})");
        return 2;
    }
    if quick() {
        eprintln!("error: --gate compares full-size runs; unset HTMGIL_QUICK");
        return 2;
    }
    let tolerance = match std::env::var("HTMGIL_SELFPERF_TOLERANCE") {
        Ok(v) => match v.parse::<f64>() {
            Ok(t) if (0.0..1.0).contains(&t) => t,
            _ => {
                eprintln!(
                    "error: HTMGIL_SELFPERF_TOLERANCE must be a fraction in [0, 1), got {v:?}"
                );
                return 2;
            }
        },
        Err(_) => 0.15,
    };
    let committed_path = bench::repo_root().join("BENCH_selfperf.json");
    let committed = match std::fs::read_to_string(&committed_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: cannot read committed {}: {e}", committed_path.display());
            return 2;
        }
    };
    let reps = 7; // more than the recording run: the gate gets one shot
    let measurements = run_measurements(false, reps);

    println!(
        "== selfperf gate: best of {reps} vs committed (tolerance {:.0}%) ==",
        tolerance * 100.0
    );
    let mut results = Json::obj();
    let mut all_pass = true;
    for m in &measurements {
        let committed_bps = committed
            .get("current")
            .and_then(|c| c.get(m.name))
            .and_then(|e| e.get("sim_bytecodes_per_sec"))
            .and_then(Json::as_f64);
        let measured_bps = sim_bytecodes(&m.report) as f64 / (m.best_ms / 1e3);
        let (ratio, pass) = match committed_bps {
            Some(c) if c > 0.0 => {
                let ratio = measured_bps / c;
                (Some(ratio), ratio >= 1.0 - tolerance)
            }
            // A config the committed file has never measured cannot
            // regress; it starts gating once its numbers are recorded.
            _ => (None, true),
        };
        all_pass &= pass;
        println!(
            "  {:<20} {:>12.0} bytecodes/s  committed {:>12}  {}",
            m.name,
            measured_bps,
            committed_bps.map(|c| format!("{c:.0}")).unwrap_or_else(|| "-".into()),
            match (ratio, pass) {
                (Some(r), true) => format!("{:.2}x  ok", r),
                (Some(r), false) => format!("{:.2}x  REGRESSION", r),
                (None, _) => "new config (no committed number)".into(),
            }
        );
        let mut entry = Json::obj()
            .field("measured_bytecodes_per_sec", measured_bps)
            .field("measured_best_wall_ms", m.best_ms)
            .field("measured_median_wall_ms", m.wall_ms)
            .field("pass", pass);
        if let Some(c) = committed_bps {
            entry = entry.field("committed_bytecodes_per_sec", c);
        }
        if let Some(r) = ratio {
            entry = entry.field("ratio", r);
        }
        results = results.field(m.name, entry);
    }
    let doc = Json::obj()
        .field("schema", "htm-gil-selfperf-gate/v1")
        .field("tolerance", tolerance)
        .field("reps", reps as u64)
        .field("jobs", jobs as u64)
        .field("pass", all_pass)
        .field("configs", results);
    let out = bench::repo_root().join("bench-results").join("selfperf_gate.json");
    std::fs::create_dir_all(out.parent().expect("bench-results parent")).expect("mkdir");
    std::fs::write(&out, doc.to_pretty() + "\n").expect("write selfperf_gate.json");
    println!("  [json] {}", out.display());
    if all_pass {
        0
    } else {
        eprintln!(
            "selfperf gate FAILED: a config regressed more than {:.0}% below the committed \
             throughput (override with HTMGIL_SELFPERF_TOLERANCE)",
            tolerance * 100.0
        );
        1
    }
}

fn main() {
    bench::runner::init_from_args();
    if std::env::args().skip(1).any(|a| a == "--gate") {
        let code = run_gate();
        bench::reporting::finalize();
        std::process::exit(code);
    }
    let q = quick();
    let reps = if q { 3 } else { 5 };
    let jobs = runner::jobs();
    // The configs fan out through the shared runner like any other
    // sweep (reps stay serial inside each point so a median means
    // something). Concurrent points contend for cores, so wall times taken
    // at --jobs > 1 are only comparable with other runs at the same pool
    // size — the JSON records `jobs`, and the baseline comparison (which
    // was measured serially) is reported at --jobs 1 only.
    let measurements = run_measurements(q, reps);

    let mut current = Json::obj();
    println!("== selfperf: simulator wall-clock (median of {reps}, jobs={jobs}) ==");
    for m in measurements {
        let wall_s = m.wall_ms / 1e3;
        let insns = sim_bytecodes(&m.report);
        let words = m.report.htm.total_accesses();
        let bytecodes_per_sec = insns as f64 / wall_s;
        let words_per_sec = words as f64 / wall_s;
        let baseline_ms = BASELINE_WALL_MS
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|&(_, ms)| ms)
            .filter(|&ms| ms > 0.0 && !q && jobs == 1);
        let speedup = baseline_ms.map(|b| b / m.wall_ms);
        println!(
            "  {:<18} {:>9.1} ms  {:>12.0} bytecodes/s  {:>12.0} words/s{}",
            m.name,
            m.wall_ms,
            bytecodes_per_sec,
            words_per_sec,
            speedup.map(|s| format!("  ({s:.2}x vs baseline)")).unwrap_or_default()
        );
        let mut entry = Json::obj()
            .field("wall_ms", m.wall_ms)
            .field("sim_bytecodes_per_sec", bytecodes_per_sec)
            .field("sim_words_per_sec", words_per_sec)
            .field("sim_elapsed_cycles", m.report.elapsed_cycles);
        if let Some(b) = baseline_ms {
            entry = entry.field("baseline_wall_ms", b);
        }
        if let Some(s) = speedup {
            entry = entry.field("speedup_vs_baseline", s);
        }
        current = current.field(m.name, entry);
    }

    let baseline = BASELINE_WALL_MS
        .iter()
        .fold(Json::obj(), |acc, &(name, ms)| acc.field(name, Json::obj().field("wall_ms", ms)));
    let doc = Json::obj()
        .field("schema", "htm-gil-selfperf/v1")
        .field("quick", q)
        .field("reps", reps as u64)
        .field("jobs", jobs as u64)
        .field("machine_profile", "zEC12")
        .field("mode", "HTM-dynamic")
        .field(
            "baseline",
            Json::obj()
                .field("commit", "50f6038")
                .field("description", "pre-directory TxMemory: O(threads) set-scan conflict detection, allocating tbegin")
                .field("configs", baseline),
        )
        .field("current", current);

    let path = bench::repo_root().join("BENCH_selfperf.json");
    std::fs::write(&path, doc.to_pretty() + "\n").expect("write BENCH_selfperf.json");
    println!("  [json] {}", path.display());
    bench::reporting::finalize();
}
