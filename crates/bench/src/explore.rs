//! `bench::explore` — schedule-space search over the deterministic
//! simulator.
//!
//! Built on the `machine_sim::explore` decision-point encoding and the
//! `htm_gil_core::explore` oracle-checked replay. Two search modes:
//!
//! * **Bounded DFS** (`dfs`): breadth-first waves over the branch tree.
//!   The root is the empty path (the natural schedule); executing a path
//!   records the decision trail (taken choices + arities), and every
//!   alternative choice at every decision index past the submitted
//!   prefix spawns a child path. Each child adds exactly one non-zero
//!   byte, so **wave k contains exactly the paths with k forced
//!   deviations** — the waves *are* iterative deepening over the
//!   preemption bound, and `max_preempt` is simply the last wave.
//! * **Seeded random walks** (`random_walks`): xorshift-generated paths
//!   of a fixed depth, biased toward the natural schedule (about half
//!   the bytes zero), replayed as a single wave.
//!
//! Both fan across `--jobs` through [`crate::pool`] with deterministic
//! partitioning: wave membership depends only on prior-wave replay
//! results (each deterministic), submission order is fixed
//! (parent-major, decision index, then choice), budget truncation cuts
//! the tail of a wave, and `--stop-first` uses the pruned pool map —
//! so stats and violations are identical at any pool size.
//!
//! A violating path is minimized by the core shrinker and packaged as a
//! self-contained repro artifact (`htm-gil-explore-repro/v1`: source,
//! config, hex path, trail, mismatch) ready to pin under
//! `tests/schedule_regressions.rs`.

use std::collections::HashSet;

use htm_gil_core::explore::{
    check_path, gil_expected, mismatch_of, run_path, shrink, Expected, ExploreTarget,
};
use htm_gil_core::{Json, LengthPolicy, RuntimeMode, SubscriptionPolicy};
use machine_sim::{MachineProfile, SchedPath};

use crate::pool::{self, PointOutcome};

/// Schema tag of the exploration stats document (`--report-json`).
pub const REPORT_SCHEMA: &str = "htm-gil-explore-report/v2";
/// Schema tag of a pinned counterexample artifact.
pub const REPRO_SCHEMA: &str = "htm-gil-explore-repro/v1";

/// Search tuning shared by both modes.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Maximum replays per target (budget truncation is deterministic:
    /// it cuts the tail of the current wave).
    pub budget: u64,
    /// Preemption bound: maximum forced deviations per path (= deepest
    /// DFS wave).
    pub max_preempt: u32,
    /// Branch only at the first `horizon` decision indices of a trail
    /// (runs make thousands of decisions; the tree is pruned, not the
    /// replay).
    pub horizon: usize,
    /// Stop the whole search at the first violation.
    pub stop_first: bool,
    /// Replay budget for minimizing each violation.
    pub shrink_budget: u64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            budget: 400,
            max_preempt: 3,
            horizon: 96,
            stop_first: false,
            shrink_budget: 300,
        }
    }
}

/// Random-walk tuning.
#[derive(Debug, Clone)]
pub struct WalkParams {
    pub walks: u64,
    pub depth: usize,
    pub seed: u64,
}

impl Default for WalkParams {
    fn default() -> Self {
        WalkParams { walks: 64, depth: 24, seed: 0xC0FFEE }
    }
}

/// One minimized counterexample.
#[derive(Debug)]
pub struct ViolationRecord {
    pub target_id: String,
    pub mode_label: String,
    /// The path the search found.
    pub found: SchedPath,
    /// The shrinker's minimized path (still violating).
    pub minimized: SchedPath,
    pub shrink_executions: u64,
    /// Mismatch text of the minimized replay.
    pub mismatch: String,
    /// Decision-trail tail of the minimized replay (deadlock-dump
    /// format, e.g. `"S1 I1 W0"`).
    pub trail: String,
    pub actual_stdout: String,
}

/// Per-target exploration counters (the `--report-json` rows).
#[derive(Debug, Clone)]
pub struct TargetStats {
    pub id: String,
    pub mode_label: String,
    pub executions: u64,
    pub distinct_paths: u64,
    pub max_depth: u64,
    pub max_preemptions: u64,
    pub violations: u64,
    /// Wave-tail paths never replayed because the budget ran out.
    pub dropped_by_budget: u64,
    /// Length of the shortest minimized counterexample, if any.
    pub min_repro_len: Option<u64>,
}

impl TargetStats {
    fn new(target: &ExploreTarget) -> Self {
        TargetStats {
            id: target.id.clone(),
            mode_label: target.mode.label(),
            executions: 0,
            distinct_paths: 0,
            max_depth: 0,
            max_preemptions: 0,
            violations: 0,
            dropped_by_budget: 0,
            min_repro_len: None,
        }
    }

    pub fn to_json(&self) -> Json {
        let repro = match self.min_repro_len {
            Some(n) => Json::from(n),
            None => Json::Null,
        };
        Json::obj()
            .field("id", self.id.as_str())
            .field("mode", self.mode_label.as_str())
            .field("executions", self.executions)
            .field("distinct_paths", self.distinct_paths)
            .field("max_depth", self.max_depth)
            .field("max_preemptions", self.max_preemptions)
            .field("violations", self.violations)
            .field("dropped_by_budget", self.dropped_by_budget)
            .field("min_repro_len", repro)
    }
}

/// Result of exploring one target.
#[derive(Debug)]
pub struct ExploreOutcome {
    pub stats: TargetStats,
    pub violations: Vec<ViolationRecord>,
}

fn profile() -> MachineProfile {
    MachineProfile::generic(4)
}

fn htm1() -> RuntimeMode {
    RuntimeMode::Htm { length: LengthPolicy::Fixed(1) }
}

fn htm16() -> RuntimeMode {
    RuntimeMode::Htm { length: LengthPolicy::Fixed(16) }
}

fn htm_dyn() -> RuntimeMode {
    RuntimeMode::Htm { length: LengthPolicy::Dynamic }
}

fn mutex_counter_src(threads: usize, iters: usize) -> String {
    format!(
        r#"
$sum = 0
m = Mutex.new()
threads = []
{threads}.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < {iters}
      m.synchronize do
        $sum += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts($sum)
"#
    )
}

/// Many threads pounding one mutex: every release publishes a wake to a
/// herd of waiters, so the Wake decision points get real arity.
fn herd_src(threads: usize, iters: usize) -> String {
    format!(
        r#"
$log = 0
m = Mutex.new()
threads = []
{threads}.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < {iters}
      m.synchronize do
        $log = $log + tid + 1
        $log = $log + 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts($log)
"#
    )
}

/// Unsynchronized writer/reader pair whose correctness rests entirely on
/// yield-point atomicity: the writer's four stores sit between two yield
/// points (one VM slice), as does the reader's pair-load, so under *any*
/// serializable execution the reader can only observe `$x == $y` and
/// prints `0`. The injected dirty-read bug lets the reader observe a
/// torn `$x != $y` mid-slice state.
fn torn_pair_src(iters: usize) -> String {
    format!(
        r#"
$x = 0
$y = 0
$bad = 0
writer = Thread.new(0) do |tid|
  k = 0
  while k < {iters}
    $x = 1
    $y = 1
    $x = 2
    $y = 2
    k += 1
  end
end
reader = Thread.new(1) do |tid|
  k = 0
  while k < {iters}
    a = $x
    b = $y
    if a != b
      $bad += 1
    end
    k += 1
  end
end
writer.join()
reader.join()
puts($bad)
"#
    )
}

fn target(
    id: &str,
    source: String,
    threads: usize,
    mode: RuntimeMode,
    interrupts: bool,
) -> ExploreTarget {
    ExploreTarget {
        id: id.to_string(),
        source,
        threads,
        mode,
        profile: profile(),
        subscription: SubscriptionPolicy::Eager,
        interrupts,
        bug_dirty_read: false,
        max_cycles: 500_000_000,
        force_word_access: false,
    }
}

/// The clean exploration corpus: workloads whose explored schedules must
/// all match the GIL oracle. `quick` shrinks iteration counts for CI
/// smoke runs.
pub fn clean_targets(quick: bool) -> Vec<ExploreTarget> {
    let (ci, hi, wi) = if quick { (4, 3, 20) } else { (8, 5, 60) };
    vec![
        target("mutex-counter/htm16", mutex_counter_src(2, ci), 2, htm16(), true),
        target("mutex-counter/htmdyn", mutex_counter_src(2, ci), 2, htm_dyn(), true),
        target("mutex-counter/gil", mutex_counter_src(2, ci), 2, RuntimeMode::Gil, false),
        target("herd4/htm16", herd_src(4, hi), 4, htm16(), true),
        target("while/htm16", workloads::micro::while_bench(2, wi).source, 2, htm16(), true),
    ]
}

/// The violation demo: the torn-pair workload with the test-only
/// dirty-read bug armed.
pub fn bug_demo_target(quick: bool) -> ExploreTarget {
    let iters = if quick { 20 } else { 60 };
    let mut t = target("torn-pair/bug/htm16", torn_pair_src(iters), 2, htm16(), true);
    t.bug_dirty_read = true;
    t
}

/// The same torn-pair workload with the bug off — every explored
/// schedule must match the oracle.
pub fn torn_pair_clean_target(quick: bool) -> ExploreTarget {
    let iters = if quick { 20 } else { 60 };
    target("torn-pair/clean/htm16", torn_pair_src(iters), 2, htm16(), true)
}

/// The lazy-subscription hunting ground (DESIGN.md §15). The watcher
/// prints every iteration, so it lives on the GIL fallback and its
/// pair-load of `$x`/`$y` runs *non-transactionally* — invisible to the
/// conflict directory. The writer toggles the pair between `(1,1)` and
/// `(2,2)` with **constant** stores (the torn-pair idiom: a `$x = k`
/// would read local `k`, and `getlocal` is an extended yield point that
/// would split the pair across two transactions), so all four stores sit
/// between two yield points — one VM slice ⇒ one transaction, and every
/// *committed* state satisfies `$x == $y`. Under `Eager` and
/// `LazyGuarded` no transaction can be live during the watcher's GIL
/// tenure, so the watcher always sees a committed state. Under `Lazy` a
/// transaction begun *before* the acquisition survives the whole tenure
/// and can commit its toggle between the watcher's two loads — a torn
/// observation no GIL schedule can produce, so `puts($bad)` diverges
/// from the oracle's `0`. The filler locals widen the load-load window
/// (in cycles) without adding a yield point the schedule could use. The
/// demo runs under HTM-1: the surviving transaction must *fit inside*
/// that window (begin → stores → commit), which only one-yield-point
/// transactions are short enough to do.
fn lazy_pair_src(iters: usize) -> String {
    format!(
        r#"
$x = 1
$y = 1
$bad = 0
watcher = Thread.new(0) do |tid|
  k = 0
  while k < {iters}
    print("")
    u = $x
    w0 = 0
    w1 = 0
    w2 = 0
    w3 = 0
    w4 = 0
    w5 = 0
    w6 = 0
    w7 = 0
    w8 = 0
    w9 = 0
    v = $y
    if u != v
      $bad = $bad + 1
    end
    k += 1
  end
end
writer = Thread.new(1) do |tid|
  k = 0
  while k < {iters}
    $x = 1
    $y = 1
    $x = 2
    $y = 2
    k += 1
  end
end
watcher.join()
writer.join()
puts($bad)
"#
    )
}

/// The lazy-subscription violation demo: the pair workload under the
/// observably-unsafe `Lazy` policy.
pub fn lazy_sub_demo_target(quick: bool) -> ExploreTarget {
    let iters = if quick { 12 } else { 40 };
    let mut t = target("lazy-sub/bug/htm1", lazy_pair_src(iters), 2, htm1(), true);
    t.subscription = SubscriptionPolicy::Lazy;
    t
}

/// The same workload under the two safe policies — every explored
/// schedule (including the pinned Lazy counterexample) must match the
/// oracle.
pub fn lazy_sub_clean_targets(quick: bool) -> Vec<ExploreTarget> {
    let iters = if quick { 12 } else { 40 };
    let eager = target("lazy-sub/eager/htm1", lazy_pair_src(iters), 2, htm1(), true);
    let mut guarded = target("lazy-sub/guarded/htm1", lazy_pair_src(iters), 2, htm1(), true);
    guarded.subscription = SubscriptionPolicy::LazyGuarded;
    vec![eager, guarded]
}

/// Minimize a violating path and package the counterexample.
fn minimize(
    target: &ExploreTarget,
    expected: &Expected,
    found: &SchedPath,
    shrink_budget: u64,
) -> ViolationRecord {
    let result = shrink(target, expected, found, shrink_budget);
    let run = run_path(target, &result.path);
    let mismatch =
        mismatch_of(expected, &run).unwrap_or_else(|| "shrunk path no longer violates".into());
    let trail = {
        let mut s = String::new();
        for (k, t) in run.kind_tags.chars().zip(run.taken.iter()).take(32) {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push(k);
            s.push_str(&t.to_string());
        }
        s
    };
    ViolationRecord {
        target_id: target.id.clone(),
        mode_label: target.mode.label(),
        found: found.clone(),
        minimized: result.path,
        shrink_executions: result.executions,
        mismatch,
        trail,
        actual_stdout: run.stdout,
    }
}

/// Execute one wave of paths through the pool, updating `stats` and
/// collecting violations; returns the non-violating `(path, decisions,
/// taken, arities)` trails for expansion. Deterministic at any `jobs`.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    target: &ExploreTarget,
    expected: &Expected,
    wave: &[SchedPath],
    params: &SearchParams,
    jobs: usize,
    stats: &mut TargetStats,
    violations: &mut Vec<ViolationRecord>,
) -> Vec<(SchedPath, usize, Vec<u8>, Vec<u8>)> {
    let results = pool::try_map_ordered_pruned(
        jobs,
        wave,
        |p| p.to_hex(),
        |_, path| {
            let out = check_path(target, expected, path);
            if params.stop_first && out.1.is_some() {
                PointOutcome::Prune(out)
            } else {
                PointOutcome::Continue(out)
            }
        },
        |_, _| {},
    )
    .unwrap_or_else(|e| panic!("explore '{}': {e}", target.id));
    let mut clean = Vec::new();
    for (path, slot) in wave.iter().zip(results) {
        let Some((run, mismatch)) = slot else { continue };
        stats.executions += 1;
        stats.distinct_paths += 1;
        stats.max_depth = stats.max_depth.max(run.decisions as u64);
        stats.max_preemptions = stats.max_preemptions.max(run.preemptions);
        if mismatch.is_some() {
            stats.violations += 1;
            let v = minimize(target, expected, path, params.shrink_budget);
            let len = v.minimized.len() as u64;
            stats.min_repro_len = Some(stats.min_repro_len.map_or(len, |m| m.min(len)));
            violations.push(v);
            continue;
        }
        clean.push((path.clone(), run.decisions, run.taken, run.arities));
    }
    clean
}

/// Bounded DFS over the schedule tree (see the module docs for the
/// wave/preemption-bound equivalence).
pub fn dfs(target: &ExploreTarget, params: &SearchParams, jobs: usize) -> ExploreOutcome {
    let expected = gil_expected(target);
    let mut stats = TargetStats::new(target);
    let mut violations = Vec::new();
    let mut visited: HashSet<Vec<u8>> = HashSet::new();
    visited.insert(Vec::new());
    let mut wave = vec![SchedPath::empty()];
    while !wave.is_empty() && stats.executions < params.budget {
        let room = (params.budget - stats.executions) as usize;
        if wave.len() > room {
            stats.dropped_by_budget += (wave.len() - room) as u64;
            wave.truncate(room);
        }
        let clean = run_wave(target, &expected, &wave, params, jobs, &mut stats, &mut violations);
        if params.stop_first && !violations.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for (path, decisions, _taken, arities) in &clean {
            // Every child adds exactly one non-zero byte, so a parent
            // already at the preemption bound spawns nothing: the search
            // stops one wave past the bound.
            if path.deviations() >= params.max_preempt as usize {
                continue;
            }
            let upto = (*decisions).min(params.horizon);
            for j in path.len()..upto {
                // Decisions past the submitted prefix read byte 0 (the
                // natural choice); each alternative is one child.
                let arity = arities.get(j).copied().unwrap_or(1);
                for c in 1..arity {
                    let child = path.child(j, c);
                    if visited.insert(child.as_bytes().to_vec()) {
                        next.push(child);
                    }
                }
            }
        }
        wave = next;
    }
    ExploreOutcome { stats, violations }
}

/// Seeded random walks: one deterministic pre-generated wave.
pub fn random_walks(
    target: &ExploreTarget,
    params: &SearchParams,
    walk: &WalkParams,
    jobs: usize,
) -> ExploreOutcome {
    let expected = gil_expected(target);
    let mut stats = TargetStats::new(target);
    let mut violations = Vec::new();
    let mut state = walk.seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut wave: Vec<SchedPath> = Vec::new();
    for _ in 0..walk.walks {
        if wave.len() as u64 >= params.budget {
            stats.dropped_by_budget += walk.walks - wave.len() as u64;
            break;
        }
        let bytes: Vec<u8> = (0..walk.depth)
            .map(|_| {
                let r = rng();
                // Half the bytes stay on the natural schedule; deviations
                // spread over the small choice range.
                if r & 1 == 0 {
                    0
                } else {
                    ((r >> 1) % 4) as u8
                }
            })
            .collect();
        let p = SchedPath::new(bytes).trimmed();
        if p.deviations() <= params.max_preempt as usize && seen.insert(p.as_bytes().to_vec()) {
            wave.push(p);
        }
    }
    run_wave(target, &expected, &wave, params, jobs, &mut stats, &mut violations);
    ExploreOutcome { stats, violations }
}

/// The self-contained repro artifact for one violation.
pub fn repro_json(target: &ExploreTarget, expected: &Expected, v: &ViolationRecord) -> Json {
    Json::obj()
        .field("schema", REPRO_SCHEMA)
        .field("target", v.target_id.as_str())
        .field("mode", v.mode_label.as_str())
        .field("threads", target.threads)
        .field("interrupts", target.interrupts)
        .field("bug_dirty_read", target.bug_dirty_read)
        .field("subscription", target.subscription.label())
        .field("max_cycles", target.max_cycles)
        .field("path_hex", v.minimized.to_hex())
        .field("found_path_hex", v.found.to_hex())
        .field("deviations", v.minimized.deviations())
        .field("shrink_executions", v.shrink_executions)
        .field("trail", v.trail.as_str())
        .field("mismatch", v.mismatch.as_str())
        .field("expected_stdout", expected.stdout.as_str())
        .field("actual_stdout", v.actual_stdout.as_str())
        .field("source", target.source.as_str())
}

/// Assemble the exploration stats document. Deliberately carries **no**
/// `jobs` field: the same search must produce the same bytes at any
/// pool size, and `tests/pool_determinism.rs` compares these documents
/// across `--jobs` values.
pub fn stats_json(search: &str, params: &SearchParams, targets: &[TargetStats]) -> Json {
    let mut rows = Vec::new();
    let mut tot_exec = 0u64;
    let mut tot_paths = 0u64;
    let mut tot_viol = 0u64;
    let mut max_depth = 0u64;
    let mut max_preempt = 0u64;
    for t in targets {
        tot_exec += t.executions;
        tot_paths += t.distinct_paths;
        tot_viol += t.violations;
        max_depth = max_depth.max(t.max_depth);
        max_preempt = max_preempt.max(t.max_preemptions);
        rows.push(t.to_json());
    }
    Json::obj()
        .field("schema", REPORT_SCHEMA)
        .field("search", search)
        .field("budget", params.budget)
        .field("max_preempt", params.max_preempt)
        .field("horizon", params.horizon)
        .field("stop_first", params.stop_first)
        .field("targets", Json::Arr(rows))
        .field(
            "totals",
            Json::obj()
                .field("executions", tot_exec)
                .field("distinct_paths", tot_paths)
                .field("violations", tot_viol)
                .field("max_depth", max_depth)
                .field("max_preemptions", max_preempt),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> SearchParams {
        SearchParams { budget: 40, max_preempt: 2, horizon: 24, ..SearchParams::default() }
    }

    #[test]
    fn dfs_on_a_clean_target_finds_no_violations() {
        let t = target("mini/htm16", mutex_counter_src(2, 3), 2, htm16(), true);
        let out = dfs(&t, &small_params(), 1);
        assert_eq!(out.stats.violations, 0, "{:#?}", out.violations);
        assert!(out.stats.executions > 1, "must explore beyond the natural path");
        assert!(out.stats.max_preemptions > 0, "deviations must be exercised");
    }

    #[test]
    fn dfs_stats_are_pool_size_invariant() {
        let t = target("mini/htmdyn", mutex_counter_src(2, 3), 2, htm_dyn(), true);
        let a = dfs(&t, &small_params(), 1);
        let b = dfs(&t, &small_params(), 4);
        assert_eq!(
            stats_json("dfs", &small_params(), &[a.stats]).to_compact(),
            stats_json("dfs", &small_params(), &[b.stats]).to_compact()
        );
    }

    #[test]
    fn random_walks_on_a_clean_target_find_no_violations() {
        let t = target("mini/gil", mutex_counter_src(2, 3), 2, RuntimeMode::Gil, false);
        let w = WalkParams { walks: 12, depth: 10, seed: 7 };
        let out = random_walks(&t, &small_params(), &w, 2);
        assert_eq!(out.stats.violations, 0);
        assert!(out.stats.executions > 0);
    }

    #[test]
    fn dfs_finds_and_shrinks_the_injected_dirty_read() {
        let t = bug_demo_target(true);
        let mut p = small_params();
        p.budget = 120;
        p.stop_first = true;
        let out = dfs(&t, &p, 2);
        assert!(out.stats.violations > 0, "bounded DFS must find the injected bug");
        let v = &out.violations[0];
        assert!(v.minimized.len() <= 8, "minimized to ≤8 branches, got {}", v.minimized.len());
        // Pinned-replay round trip: the minimized path still violates.
        let expected = gil_expected(&t);
        let (_, mismatch) = check_path(&t, &expected, &v.minimized);
        assert!(mismatch.is_some(), "minimized path must still violate");
        // And with the bug off, the very same path is clean.
        let clean = torn_pair_clean_target(true);
        let clean_expected = gil_expected(&clean);
        let (_, m2) = check_path(&clean, &clean_expected, &v.minimized);
        assert!(m2.is_none(), "bug off, same path: {}", m2.unwrap());
    }
}
