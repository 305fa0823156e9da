//! Deterministic simulated statistics, read from `RunReport`, and the
//! fingerprint that proves two runs simulated exactly the same thing.

use htm_gil_core::RunReport;
use htm_sim::HtmStats;

use crate::Metrics;

/// Every deterministic count the benchmark reports, summable across runs
/// (explore-dfs adds up one natural-schedule run per target).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub runs: u64,
    pub cycles: u64,
    pub committed: u64,
    pub wasted: u64,
    pub htm: HtmStats,
    pub gil_acquisitions: u64,
    pub length_adjustments: u64,
    /// Sum over runs of `RunReport::share_length_one` (divide by `runs`).
    pub share_length_one_sum: f64,
    pub watchdog_escalations: u64,
    pub allocations: u64,
    pub gc_runs: u64,
    /// Cycle breakdown in `CycleBreakdown::shares_pct` order.
    pub breakdown: [u64; 7],
    /// Task latency (enqueue→complete p50, p99; queue-wait p99; tasks
    /// completed) in cycles, from runs that report one.
    pub task_p50: u64,
    pub task_p99: u64,
    pub queue_wait_p99: u64,
    pub tasks_completed: u64,
    /// FNV-1a of every run's stdout, chained.
    pub stdout_hash: u64,
}

impl Counts {
    pub fn of(r: &RunReport) -> Counts {
        let mut c = Counts::default();
        c.add(r);
        c
    }

    pub fn add(&mut self, r: &RunReport) {
        let b = &r.breakdown;
        let parts =
            [b.tx_begin_end, b.tx_success, b.gil_held, b.aborted, b.gil_wait, b.io_wait, b.other];
        self.runs += 1;
        self.cycles += r.elapsed_cycles;
        self.committed += r.committed_insns;
        self.wasted += r.wasted_insns;
        self.htm.merge(&r.htm);
        self.gil_acquisitions += r.gil_acquisitions;
        self.length_adjustments += r.length_adjustments;
        self.share_length_one_sum += r.share_length_one;
        self.watchdog_escalations += r.watchdog_escalations;
        self.allocations += r.allocations;
        self.gc_runs += r.gc_runs;
        for (acc, p) in self.breakdown.iter_mut().zip(parts) {
            *acc += p;
        }
        if let Some(t) = &r.task_latency {
            self.task_p50 = self.task_p50.max(t.e2e.p50);
            self.task_p99 = self.task_p99.max(t.e2e.p99);
            self.queue_wait_p99 = self.queue_wait_p99.max(t.queue_wait.p99);
            self.tasks_completed += t.completed;
        }
        self.stdout_hash = fnv1a(self.stdout_hash, r.stdout.as_bytes());
    }

    /// A 52-bit digest of every count (exact as a JSON number).
    pub fn fingerprint(&self, extra: &str) -> u64 {
        let text = format!("{self:?}|{extra}");
        fnv1a(FNV_OFFSET, text.as_bytes()) >> 12
    }

    /// The per-layer simulated metrics, all deterministic.
    pub fn push_metrics(&self, m: &mut Metrics) {
        let h = &self.htm;
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        m.push("ruby_vm.committed_bytecodes", self.committed as f64, "count");
        m.push("ruby_vm.wasted_bytecodes", self.wasted as f64, "count");
        m.push(
            "ruby_vm.useful_ratio",
            ratio(self.committed, self.committed + self.wasted),
            "ratio",
        );
        m.push("htm_sim.reads", h.reads as f64, "count");
        m.push("htm_sim.writes", h.writes as f64, "count");
        m.push(
            "htm_sim.lease_hit_ratio",
            ratio(h.lease_hits, h.lease_hits + h.lease_misses),
            "ratio",
        );
        m.push("htm_sim.epoch_bumps", h.epoch_bumps as f64, "count");
        m.push("htm_sim.nontx_dooms", h.nontx_dooms as f64, "count");
        m.push("htm_sim.begins", h.begins as f64, "count");
        m.push("htm_sim.commit_ratio", ratio(h.commits, h.begins), "ratio");
        let conflict = h.conflicts_read + h.conflicts_write;
        let capacity = h.overflow_read + h.overflow_write;
        m.push("htm_sim.aborts_conflict", conflict as f64, "count");
        m.push("htm_sim.aborts_capacity", capacity as f64, "count");
        m.push("htm_sim.aborts_other", (h.total_aborts() - conflict - capacity) as f64, "count");
        m.push("core.tle.length_adjustments", self.length_adjustments as f64, "count");
        let share = if self.runs == 0 { 0.0 } else { self.share_length_one_sum / self.runs as f64 };
        m.push("core.tle.share_length_one", share, "ratio");
        m.push("core.watchdog_escalations", self.watchdog_escalations as f64, "count");
        m.push("core.gil.acquisitions", self.gil_acquisitions as f64, "count");
        let total: u64 = self.breakdown.iter().sum();
        for (name, &cycles) in CYCLE_METRICS.iter().zip(&self.breakdown) {
            m.push(name, ratio(cycles, total), "ratio");
        }
        m.push("ruby_vm.allocations", self.allocations as f64, "count");
        m.push("ruby_vm.gc_runs", self.gc_runs as f64, "count");
        m.push("core.latency.tasks_completed", self.tasks_completed as f64, "count");
        m.push("core.latency.task_p50_kcycles", self.task_p50 as f64 / 1e3, "kcycles");
        m.push("core.latency.task_p99_kcycles", self.task_p99 as f64 / 1e3, "kcycles");
        m.push("core.latency.queue_wait_p99_kcycles", self.queue_wait_p99 as f64 / 1e3, "kcycles");
    }
}

const CYCLE_METRICS: [&str; 7] = [
    "core.cycles.tx_begin_end",
    "core.cycles.tx_success",
    "core.cycles.gil_held",
    "core.cycles.aborted",
    "core.cycles.gil_wait",
    "core.cycles.io_wait",
    "core.cycles.other",
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = FNV_OFFSET;
    }
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
