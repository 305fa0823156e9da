//! Pinned schedule-space counterexamples and hand-written stress paths
//! (DESIGN.md §14).
//!
//! Three layers:
//!
//! 1. **Dynamic find**: bounded DFS over the torn-pair workload with the
//!    test-only dirty-read bug armed must rediscover the violation
//!    within a CI smoke budget and shrink it to a tiny path — proof the
//!    whole explore→oracle→shrink pipeline works end to end, not just on
//!    the day it was written.
//! 2. **Pinned counterexample**: the shrinker's minimized path, committed
//!    as a hex seed. It must keep violating with the bug armed and stay
//!    clean with the bug off, forever — a regression in either direction
//!    (the bug stops being observable, or the fixed semantics regress)
//!    fails this file.
//! 3. **Hand-written stress paths**: flip-heavy paths aimed at the
//!    escrowed-wake machinery and the interrupt-kill/doom windows,
//!    replayed under GIL, HTM-16 and HTM-dynamic; the oracle must hold
//!    and the windows must actually be exercised (spurious aborts
//!    observed).

use bench::explore::{
    bug_demo_target, clean_targets, dfs, lazy_sub_clean_targets, lazy_sub_demo_target,
    torn_pair_clean_target, SearchParams,
};
use htm_gil::core::explore::{check_path, gil_expected, run_path};
use htm_gil::SchedPath;

/// The shrinker's minimized counterexample for the quick-mode torn-pair
/// bug demo: two interrupt-delivery deviations (trail `S0 I1 … S0 I1`)
/// that kill the reader's transactions at exactly the yield points that
/// force its pair-load into the non-speculative GIL-fallback window,
/// where the dirty read commits a torn `$x != $y` observation.
const PINNED_TORN_PAIR_HEX: &str = "0001000000000001";

/// The shrinker's minimized counterexample for the lazy-subscription
/// demo (DESIGN.md §15) — the first *real* (non-injected) unsafety the
/// explorer caught. A single scheduling deviation (`S1` at decision 18)
/// delays the writer so that one of its HTM-1 constant-store toggle
/// transactions survives into the watcher's GIL-fallback tenure and
/// commits between the watcher's two non-transactional global loads.
/// Under `Lazy` the transaction never subscribed to the GIL word, so
/// the commit goes through and the watcher observes the torn pair
/// `$x != $y` — impossible under any GIL schedule. `Eager` kills the
/// same transaction at the subscription read; `LazyGuarded` dooms it
/// from the lock monitor at GIL-acquire time.
const PINNED_LAZY_SUB_HEX: &str = "00000000000000000000000000000000000001";

fn smoke_params() -> SearchParams {
    SearchParams {
        budget: 120,
        max_preempt: 2,
        horizon: 24,
        stop_first: true,
        ..SearchParams::default()
    }
}

#[test]
fn bounded_dfs_rediscovers_the_injected_bug_within_smoke_budget() {
    let target = bug_demo_target(true);
    let out = dfs(&target, &smoke_params(), 2);
    assert!(out.stats.violations > 0, "DFS lost the injected dirty-read bug");
    let v = &out.violations[0];
    assert!(
        v.minimized.len() <= 8,
        "shrinker regressed: minimized to {} branches (> 8): {}",
        v.minimized.len(),
        v.minimized.to_hex()
    );
    // The minimized path must reproduce standalone.
    let expected = gil_expected(&target);
    let (_, mismatch) = check_path(&target, &expected, &v.minimized);
    assert!(mismatch.is_some(), "minimized path no longer reproduces");
}

#[test]
fn pinned_counterexample_still_violates_with_the_bug_armed() {
    let target = bug_demo_target(true);
    let path = SchedPath::from_hex(PINNED_TORN_PAIR_HEX).unwrap();
    let expected = gil_expected(&target);
    let (run, mismatch) = check_path(&target, &expected, &path);
    let m = mismatch.expect("pinned counterexample stopped reproducing the dirty-read bug");
    assert!(m.contains("stdout diverged"), "unexpected violation shape: {m}");
    assert!(run.preemptions >= 2, "the pinned path's deviations were not consumed");
}

#[test]
fn pinned_counterexample_is_clean_with_the_bug_off() {
    let target = torn_pair_clean_target(true);
    let path = SchedPath::from_hex(PINNED_TORN_PAIR_HEX).unwrap();
    let expected = gil_expected(&target);
    assert_eq!(expected.stdout, "0");
    let (_, mismatch) = check_path(&target, &expected, &path);
    assert!(
        mismatch.is_none(),
        "fixed semantics regressed under the pinned schedule: {}",
        mismatch.unwrap()
    );
}

/// Dynamic find for the real bug: the same smoke-budget bounded DFS
/// that rediscovers the injected dirty read must also rediscover the
/// lazy-subscription unsafety — no test-only bug flag involved, just
/// `SubscriptionPolicy::Lazy` on a production code path.
#[test]
fn bounded_dfs_finds_the_lazy_subscription_violation_within_smoke_budget() {
    let target = lazy_sub_demo_target(true);
    let out = dfs(&target, &smoke_params(), 2);
    assert!(out.stats.violations > 0, "DFS lost the lazy-subscription unsafety");
    let v = &out.violations[0];
    assert!(
        v.minimized.len() <= 24,
        "shrinker regressed: minimized to {} branches (> 24): {}",
        v.minimized.len(),
        v.minimized.to_hex()
    );
    let expected = gil_expected(&target);
    let (_, mismatch) = check_path(&target, &expected, &v.minimized);
    assert!(mismatch.is_some(), "minimized path no longer reproduces");
}

#[test]
fn pinned_lazy_counterexample_still_violates_under_lazy_subscription() {
    let target = lazy_sub_demo_target(true);
    let path = SchedPath::from_hex(PINNED_LAZY_SUB_HEX).unwrap();
    let expected = gil_expected(&target);
    assert_eq!(expected.stdout, "\n0", "the GIL oracle must never see a torn pair");
    let (run, mismatch) = check_path(&target, &expected, &path);
    let m = mismatch.expect("pinned counterexample stopped reproducing the lazy unsafety");
    assert!(m.contains("stdout diverged"), "unexpected violation shape: {m}");
    assert!(run.preemptions >= 1, "the pinned path's deviation was not consumed");
}

/// The same schedule is harmless under both safe policies: `Eager`
/// subscribes inside the transaction window, `LazyGuarded` dooms the
/// transaction from the GIL-acquire lock monitor. A violation here
/// means one of the safe policies regressed into the lazy hole.
#[test]
fn pinned_lazy_counterexample_is_clean_under_eager_and_lazy_guarded() {
    let path = SchedPath::from_hex(PINNED_LAZY_SUB_HEX).unwrap();
    for target in lazy_sub_clean_targets(true) {
        let expected = gil_expected(&target);
        assert_eq!(expected.stdout, "\n0");
        let (_, mismatch) = check_path(&target, &expected, &path);
        assert!(
            mismatch.is_none(),
            "{} regressed under the pinned lazy schedule: {}",
            target.id,
            mismatch.unwrap()
        );
    }
}

/// Flip-heavy hand-written paths across the whole clean corpus (every
/// mode: GIL, HTM-16, HTM-dynamic, plus the wake-herd): the oracle must
/// hold on all of them. The interrupt flips (`I`/`C` decisions) land in
/// the escrowed-wake windows (transactions killed while holding
/// VM-level mutexes, forcing the escrow/abort paths) and between
/// memoised accesses of an open transaction (every kill clears the
/// victim's line memo).
#[test]
fn hand_written_stress_paths_hold_across_modes() {
    let paths = [
        SchedPath::new(vec![1; 24]),
        SchedPath::new(vec![2; 16]),
        SchedPath::new(vec![1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0]),
        SchedPath::new(vec![0, 0, 0, 1, 1, 1, 0, 0, 0, 2, 2, 2]),
        SchedPath::from_hex(PINNED_TORN_PAIR_HEX).unwrap(),
    ];
    for target in clean_targets(true) {
        let expected = gil_expected(&target);
        for path in &paths {
            let (run, mismatch) = check_path(&target, &expected, path);
            assert!(
                mismatch.is_none(),
                "{} under {}: {}",
                target.id,
                path.to_hex(),
                mismatch.unwrap()
            );
            assert!(run.error.is_none(), "{}: {:?}", target.id, run.error);
        }
    }
}

/// The interrupt-kill windows are actually exercised by the flip paths:
/// under HTM the `I`/`C` kills surface as spurious (timer-interrupt)
/// aborts.
#[test]
fn stress_paths_exercise_the_interrupt_windows() {
    let target = clean_targets(true)
        .into_iter()
        .find(|t| t.id == "mutex-counter/htm16")
        .expect("corpus target");
    // Alternating bytes: each `S0` (stay on the natural schedule) lets
    // the following interrupt decision consume the `1` and kill the
    // open transaction.
    let run = run_path(&target, &SchedPath::new([0, 1].repeat(16)));
    let report = run.report.expect("clean run");
    assert!(
        report.htm.spurious > 0,
        "no interrupt kill landed: the I/C decision windows were not exercised"
    );
    assert!(run.preemptions > 0, "no deviation was consumed");
}

/// Satellite: a failed explored run's diagnostic dump ends with the
/// trailing scheduler decision trail, so a stuck schedule is diagnosable
/// from the error text alone.
#[test]
fn explored_run_failure_dump_names_the_decision_trail() {
    let mut target = clean_targets(true)
        .into_iter()
        .find(|t| t.id == "mutex-counter/htm16")
        .expect("corpus target");
    // Absurdly small cycle cap: the run fails mid-flight with the
    // deadlock-style dump attached.
    target.max_cycles = 5_000;
    let run = run_path(&target, &SchedPath::new(vec![1, 1, 1]));
    let err = run.error.expect("cycle cap must trip");
    assert!(err.contains("sched decisions (tail):"), "dump lost the decision trail:\n{err}");
}
