//! explore-dfs: bounded DFS (`bench::explore::dfs`, one job) over the
//! clean schedule-exploration corpus. One operation is one explored
//! execution; one round times a few set-up passes, then runs the search
//! once on every target.

use std::hint::black_box;
use std::time::Instant;

use bench::explore::{clean_targets, dfs, SearchParams, TargetStats};
use htm_gil_core::{
    check_path, gil_expected, heap_digest, ExecConfig, Executor, Expected, ExploreTarget,
    RuntimeMode,
};
use machine_sim::SchedPath;
use ruby_vm::VmConfig;

use crate::counts::Counts;
use crate::exec_wl::{layer_spans, push_layer_metrics};
use crate::trace::Tracer;
use crate::{median, peak_rss_mib, quantile, Metrics, Outcome, Sizes, MIN_OPS, SLOW};

/// Timed set-up passes (`gil_expected` over every target) per round.
const SETUP_PER_ROUND: usize = 4;
/// First-wave children replayed through `check_path` per target and
/// traced round.
const CHECKED_CHILDREN: usize = 8;

pub struct ExploreWorkload {
    targets: Vec<ExploreTarget>,
    params: SearchParams,
    /// Per target: committed bytecodes of the natural schedule.
    natural_bytecodes: Vec<u64>,
    /// Natural-schedule counts summed over targets.
    natural: Counts,
    gil_cycles: u64,
    /// Host seconds of the workload's first `Executor::new`.
    cold_setup_s: f64,
}

/// The VM sizing `ExploreTarget` uses for its own replays.
fn vm_config(t: &ExploreTarget) -> VmConfig {
    VmConfig {
        max_threads: t.threads + 2,
        force_word_access: t.force_word_access,
        ..VmConfig::default()
    }
}

impl ExploreWorkload {
    /// Runs every target once under the GIL (timing the first, cold boot)
    /// and on its natural schedule, untimed, for the simulated figures.
    pub fn new(s: &Sizes) -> Result<ExploreWorkload, String> {
        let targets = clean_targets(s.explore_quick);
        // The default budget (400 per target) and preemption bound (3).
        let params = SearchParams { horizon: s.explore_horizon, ..SearchParams::default() };
        let mut cold_setup_s = None;
        let mut gil_cycles = 0;
        for t in &targets {
            let mut cfg = ExecConfig::new(RuntimeMode::Gil, &t.profile);
            cfg.max_cycles = t.max_cycles;
            let t0 = Instant::now();
            let ex = Executor::new(&t.source, vm_config(t), t.profile.clone(), cfg);
            cold_setup_s.get_or_insert(t0.elapsed().as_secs_f64());
            let mut ex = ex.map_err(|e| format!("{}: GIL boot: {e}", t.id))?;
            gil_cycles += ex.run().map_err(|e| format!("{}: GIL run: {e}", t.id))?.elapsed_cycles;
        }
        let mut natural = Counts::default();
        let mut natural_bytecodes = Vec::new();
        for t in &targets {
            let (run, mismatch) = check_path(t, &gil_expected(t), &SchedPath::empty());
            if let Some(m) = mismatch {
                return Err(format!("{}: natural schedule: {m}", t.id));
            }
            let r = run.report.expect("a matching run has a report");
            natural_bytecodes.push(r.committed_insns);
            natural.add(&r);
        }
        let cold_setup_s = cold_setup_s.ok_or("no explore targets")?;
        Ok(ExploreWorkload {
            targets,
            params,
            natural_bytecodes,
            natural,
            gil_cycles,
            cold_setup_s,
        })
    }

    /// Host seconds of one set-up: `gil_expected` of every target.
    fn setup(&self) -> f64 {
        let t0 = Instant::now();
        for t in &self.targets {
            black_box(gil_expected(t));
        }
        t0.elapsed().as_secs_f64()
    }

    /// One search over every target, each timed.
    fn round(&self) -> Vec<(f64, TargetStats)> {
        let timed = |t| {
            let t0 = Instant::now();
            let stats = dfs(t, &self.params, 1).stats;
            (t0.elapsed().as_secs_f64(), stats)
        };
        self.targets.iter().map(timed).collect()
    }

    fn tally(&self, rounds: &[Vec<TargetStats>], out: &mut Outcome) {
        let digest = |stats: &[TargetStats]| -> String {
            stats.iter().map(|s| s.to_json().to_compact()).collect::<Vec<_>>().join(",")
        };
        let first = digest(&rounds[0]);
        for stats in rounds {
            let executions: u64 = stats.iter().map(|s| s.executions).sum();
            let violations: u64 = stats.iter().map(|s| s.violations).sum();
            out.attempted += executions;
            if violations > 0 {
                out.fail_many(violations, format!("{violations} oracle violations in one round"));
            }
            if digest(stats) != first {
                out.fail("search statistics differ from the first round's".into());
            }
        }
        out.counts = self.natural.clone();
        out.fingerprint = self.natural.fingerprint(&first);
    }

    pub fn timed(&self, seconds: f64) -> Outcome {
        let start = Instant::now();
        let mut times = vec![Vec::new(); self.targets.len()];
        let mut rounds = Vec::new();
        let mut setup_s = Vec::new();
        let mut rss_mib = 0.0;
        while rounds.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
            setup_s.extend((0..SETUP_PER_ROUND).map(|_| self.setup()));
            let round = self.round();
            if rounds.is_empty() {
                rss_mib = peak_rss_mib();
            }
            for (samples, (t, _)) in times.iter_mut().zip(&round) {
                samples.push(*t);
            }
            rounds.push(round.into_iter().map(|(_, stats)| stats).collect::<Vec<_>>());
        }
        let mut out = Outcome::default();
        self.tally(&rounds, &mut out);
        // A slow round: every target's search at its own slow percentile.
        let slow_round_s: f64 = times.into_iter().map(|t| quantile(t, SLOW)).sum();
        let first = &rounds[0];
        // dfs exposes no per-execution report: every execution is credited
        // with its target's natural-schedule bytecode count.
        let bytecodes: u64 =
            first.iter().zip(&self.natural_bytecodes).map(|(s, &b)| s.executions * b).sum();
        let executions: u64 = first.iter().map(|s| s.executions).sum();
        let m = &mut out.metrics;
        m.push("host_bytecodes_per_s", bytecodes as f64 / slow_round_s, "bytecodes/s");
        m.push("ops_per_s", executions as f64 / slow_round_s, "1/s");
        m.push("setup_s", quantile(setup_s, SLOW), "s");
        m.push("peak_rss_mib", rss_mib, "MiB");
        m.push("sim_mcycles", self.natural.cycles as f64 / 1e6, "Mcycles");
        m.push("sim_speedup_vs_gil", self.gil_cycles as f64 / self.natural.cycles as f64, "x");
        out
    }

    /// Traced rounds: per target, `gil_expected`, the search, the natural
    /// schedule and its first-wave children through `check_path`, and one
    /// natural-schedule replay split into its layers (plus an untraced
    /// twin of that replay for the tracing overhead).
    pub fn traced(&self, seconds: f64, tr: &mut Tracer) -> Outcome {
        let start = Instant::now();
        let mut rounds = Vec::new();
        let mut plain_run_s = Vec::new();
        let mut out = Outcome::default();
        while rounds.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
            let stats = tr.span("bench.explore.round", |tr| {
                let mut stats = Vec::new();
                for t in &self.targets {
                    let exp = tr.span("core.explore.gil_expected", |_| gil_expected(t));
                    stats.push(tr.span("bench.explore.dfs", |_| dfs(t, &self.params, 1).stats));
                    for path in checked_paths(t) {
                        let (_, mismatch) =
                            tr.span("core.explore.check_path", |_| check_path(t, &exp, &path));
                        out.attempted += 1;
                        if let Some(m) = mismatch {
                            out.fail(m);
                        }
                    }
                    plain_run_s.push(natural_run_s(t));
                    out.attempted += 1;
                    if let Err(e) = tr.span("bench.op", |tr| traced_natural(tr, t, &exp)) {
                        out.fail(e);
                    }
                }
                stats
            });
            rounds.push(stats);
        }
        self.tally(&rounds, &mut out);
        let m = &mut out.metrics;
        push_layer_metrics(tr, &self.natural, median(plain_run_s), self.cold_setup_s, m);
        let gil_expected_s = tr.durations("core.explore.gil_expected");
        let per_round = gil_expected_s.chunks(self.targets.len()).map(|c| c.iter().sum()).collect();
        let checks = tr.durations("core.explore.check_path");
        let mean = checks.iter().sum::<f64>() / checks.len().max(1) as f64;
        push_explore_metrics(m, median(per_round), mean, &rounds[0]);
        out.push_failed_frac();
        out
    }
}

/// The natural schedule plus the first few one-deviation children.
fn checked_paths(t: &ExploreTarget) -> Vec<SchedPath> {
    let root = &SchedPath::empty();
    let natural = htm_gil_core::run_path(t, root);
    let children = natural
        .arities
        .iter()
        .enumerate()
        .flat_map(|(j, &arity)| (1..arity).map(move |c| root.child(j, c)));
    std::iter::once(root.clone()).chain(children).take(1 + CHECKED_CHILDREN).collect()
}

/// Host seconds of `Executor::run` on the natural schedule, untraced.
fn natural_run_s(t: &ExploreTarget) -> f64 {
    let cfg = t.config(&SchedPath::empty());
    match Executor::new(&t.source, vm_config(t), t.profile.clone(), cfg) {
        Ok(mut ex) => {
            let t0 = Instant::now();
            let _ = ex.run();
            t0.elapsed().as_secs_f64()
        }
        Err(_) => 0.0,
    }
}

/// The natural-schedule replay with each layer in its own span; the
/// oracle span is the heap digest plus the comparison with `exp`.
fn traced_natural(tr: &mut Tracer, t: &ExploreTarget, exp: &Expected) -> Result<(), String> {
    let vm_config = vm_config(t);
    layer_spans(tr, &t.source, &vm_config, &t.profile)?;
    let cfg = t.config(&SchedPath::empty());
    let mut ex = tr
        .span("core.executor_new", |_| Executor::new(&t.source, vm_config, t.profile.clone(), cfg))
        .map_err(|e| e.to_string())?;
    let r = tr.span("core.run", |_| ex.run()).map_err(|e| e.to_string())?;
    tr.span("core.oracle", |_| {
        if r.stdout != exp.stdout || heap_digest(&ex.vm) != exp.heap {
            Err(format!("{}: natural schedule diverged from the GIL oracle", t.id))
        } else {
            Ok(())
        }
    })
}

/// The explore-only per-layer metrics (zero on the other workloads):
/// `gil_expected` of every target, `check_path` per execution, and one
/// round's search statistics.
pub fn push_explore_metrics(
    m: &mut Metrics,
    gil_expected_s: f64,
    check_path_s: f64,
    stats: &[TargetStats],
) {
    let sum = |f: fn(&TargetStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    m.push("core.explore.gil_expected_s", gil_expected_s, "s");
    m.push("core.explore.check_path_s", check_path_s, "s");
    m.push("bench.explore.executions", sum(|s| s.executions), "count");
    m.push("bench.explore.dropped_by_budget", sum(|s| s.dropped_by_budget), "count");
    let depth = stats.iter().map(|s| s.max_depth).max().unwrap_or(0);
    m.push("bench.explore.max_depth", depth as f64, "count");
    let preemptions = stats.iter().map(|s| s.max_preemptions).max().unwrap_or(0);
    m.push("bench.explore.max_preemptions", preemptions as f64, "count");
}
