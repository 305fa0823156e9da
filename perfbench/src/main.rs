//! The htm-gil benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <while-htm|cg-constrained|taskserver-gil|explore-dfs|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or all four, one after another) in this process on
//! one host thread for `--seconds`, checks every output, prints the
//! deterministic simulated statistics with their fingerprint, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! traced run that reports the per-layer metrics and writes its spans to
//! `perfbench/out/`. See `perfbench/README.md` for what each workload and
//! metric is for.

mod counts;
mod exec_wl;
mod explore_wl;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use htm_gil_core::Json;

use counts::Counts;
use exec_wl::ExecWorkload;
use explore_wl::ExploreWorkload;
use trace::Tracer;

/// Fewest operations (rounds, on explore-dfs) per run, however short
/// `--seconds` is.
pub const MIN_OPS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["while-htm", "cg-constrained", "taskserver-gil", "explore-dfs"];

/// Input sizes. `FULL` is what the benchmark measures; `SMALL` keeps the
/// self-test fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub while_iters: usize,
    pub cg_scale: usize,
    pub ts_tasks: usize,
    pub explore_horizon: usize,
    pub explore_quick: bool,
}

pub const FULL: Sizes = Sizes {
    while_iters: 2_000,
    cg_scale: 4,
    ts_tasks: 1_200,
    explore_horizon: 4,
    explore_quick: false,
};
pub const SMALL: Sizes =
    Sizes { while_iters: 150, cg_scale: 1, ts_tasks: 96, explore_horizon: 3, explore_quick: true };

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Add every metric to the JSON object `obj`, names prefixed.
    fn add_to(&self, obj: Json, prefix: &str) -> Json {
        self.0.iter().fold(obj, |o, (name, value, unit)| {
            o.field(
                &format!("{prefix}{name}"),
                Json::obj().field("value", *value).field("unit", *unit),
            )
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Simulated statistics of one operation (explore-dfs: the natural
    /// schedules of every target).
    pub counts: Counts,
    pub fingerprint: u64,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.fail_many(1, why);
    }

    /// Count `n` failed operations; keep the first few reasons.
    pub fn fail_many(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// The per-layer `bench.failed_frac`, which every traced run adds last.
    pub fn push_failed_frac(&mut self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.push("bench.failed_frac", frac, "ratio");
    }
}

/// The percentile of operation times that host rates are read at.
///
/// The measuring host flips between a slow and a fast state every second
/// or so, in proportions that change from run to run. A median falls
/// between the two states and jumps with the proportion; the 90th
/// percentile of times sits in the slow state, which every run visits and
/// which holds steady.
pub const SLOW: f64 = 0.9;

/// The `q` quantile of `v` (nearest rank); 0 for no samples.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
///
/// Read after the first operation: the peak of one boot and run. Over
/// hundreds of boots in one process the allocator later keeps one freed
/// ~17 MiB block resident, at a point in the run that varies from run to
/// run, which is the loop's history rather than the workload's need.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Run one workload; `Err` when its set-up (the reference runs) fails.
pub fn run_workload(name: &str, args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let trace_id = counts::fnv1a(
        0,
        format!("{name}/{}/{:?}", args.seed, std::time::SystemTime::now()).as_bytes(),
    );
    let mut tr = Tracer::new(trace_id);
    let out = if name == "explore-dfs" {
        let w = ExploreWorkload::new(sizes)?;
        if args.trace {
            w.traced(args.seconds, &mut tr)
        } else {
            w.timed(args.seconds)
        }
    } else {
        let w = match name {
            "while-htm" => ExecWorkload::while_htm(sizes, args.seed),
            "cg-constrained" => ExecWorkload::cg_constrained(sizes, args.seed),
            "taskserver-gil" => ExecWorkload::taskserver_gil(sizes, args.seed),
            _ => unreachable!("workload names are checked by parse_args"),
        }?;
        if args.trace {
            w.traced(args.seconds, &mut tr)
        } else {
            w.timed(args.seconds)
        }
    };
    if args.trace {
        let path = out_dir().join(format!("trace-{name}-seed{}.json", args.seed));
        if let Err(e) = tr.write(&path, name, args.seed) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Human-readable lines: the simulated statistics and their digest.
fn print_summary(name: &str, args: &Args, out: &Outcome) {
    println!(
        "== {name} (seed {}, {} s, trace {}) ==",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut sim = Metrics::default();
    out.counts.push_metrics(&mut sim);
    for (metric, value, unit) in &sim.0 {
        println!("  sim  {metric:<40} {value} {unit}");
    }
    println!("  fingerprint {:013x}", out.fingerprint);
    for (metric, value, unit) in &out.metrics.0 {
        println!("  {metric:<45} {value} {unit}");
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Json::obj();
    for name in &names {
        let out = match run_workload(name, &args, &FULL) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_summary(name, &args, &out);
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if names.len() > 1 { format!("{name}.") } else { String::new() };
        metrics = out.metrics.add_to(metrics, &prefix);
    }
    let line = Json::obj()
        .field("correct", failed == 0)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{}", line.to_compact());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn contract(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = doc.get(section).and_then(Json::as_array).expect("metric list");
        let field =
            |m: &Json, k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
        let mut out: Vec<_> = list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
        out.sort();
        out
    }

    fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
        let args = Args { workload: workload.into(), seed, seconds: 0.01, trace };
        run_workload(workload, &args, &SMALL).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    #[test]
    fn every_workload_emits_every_contract_metric_and_fails_nothing() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = contract(section);
            for w in WORKLOADS {
                let out = run(w, 3, trace);
                assert!(out.attempted >= MIN_OPS as u64, "{w}: {} attempted", out.attempted);
                assert_eq!(out.failed, 0, "{w}: {:?}", out.errors);
                let mut got: Vec<_> =
                    out.metrics.0.iter().map(|(n, _, u)| (n.clone(), u.to_string())).collect();
                got.sort();
                assert_eq!(got, want, "{w} --trace {}", u8::from(trace));
                for (name, value, _) in &out.metrics.0 {
                    assert!(value.is_finite(), "{w}: {name} = {value}");
                    if !trace {
                        assert!(*value > 0.0, "{w}: end-to-end {name} = {value}");
                    }
                }
                if trace {
                    let get = |name| out.metrics.0.iter().find(|(n, _, _)| n == name).map(|m| m.1);
                    assert_eq!(get("bench.failed_frac"), Some(0.0), "{w}");
                    if w == "explore-dfs" {
                        // The search ends at its preemption bound, past the
                        // one-deviation wave, with no path cut by the budget.
                        assert!(get("bench.explore.max_preemptions") >= Some(2.0), "{w}");
                        assert_eq!(get("bench.explore.dropped_by_budget"), Some(0.0), "{w}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_seed_repeats_its_fingerprint_and_a_second_seed_stays_correct() {
        for w in WORKLOADS {
            let a = run(w, 5, false);
            let b = run(w, 5, false);
            let c = run(w, 6, false);
            assert_eq!(a.fingerprint, b.fingerprint, "{w}");
            assert_eq!((a.failed, c.failed), (0, 0), "{w}: {:?}", c.errors);
        }
        // The connection seed reaches the simulated I/O latencies.
        assert_ne!(run("taskserver-gil", 5, false).counts, run("taskserver-gil", 6, false).counts);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload while-htm --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&argv("--workload all --trace 1")).is_ok());
        for bad in [
            "--workload nope",
            "--workload while-htm --trace 2",
            "--workload while-htm --seconds 0",
            "--workload while-htm --seed -1",
            "--workload while-htm --bogus 1",
            "--workload while-htm --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
