//! Differential property test: the ownership-directory [`TxMemory`] must
//! be observationally identical to the retained set-based
//! [`ReferenceTxMemory`].
//!
//! Both implementations are driven with the same randomized operation
//! sequence — begins (with randomized budgets), reads, writes, commits,
//! explicit, restricted and interrupt aborts, polls, simulated-cycle
//! advances and mid-run fault-plan installs — over randomized geometries
//! (line size, thread count, hot-window width). After *every* operation
//! the test requires:
//!
//! * identical `Result` values, including the exact [`AbortReason`];
//! * identical footprints, `in_tx` flags, and active-transaction counts;
//! * identical aggregate statistics ([`htm_sim::HtmStats`] is `PartialEq`);
//!
//! and at the end of the sequence:
//!
//! * identical trace-event streams (same events, same order, same victim
//!   ordering on multi-victim dooms);
//! * byte-identical final memory images.
//!
//! This is the equivalence proof the rewrite leans on: any divergence in
//! conflict attribution, victim choice, overflow ordering, statistics, or
//! rollback behaviour shows up here as a minimal counterexample.

use htm_sim::txmem::MEMO_WAYS;
use htm_sim::{Budgets, FaultPlan, ReferenceTxMemory, RingBufferSink, SpuriousCause, TxMemory};
use proptest::prelude::*;

const MEM_WORDS: usize = 256;

/// Line size of the structured (hot-window) tests.
const HOT_LINE_WORDS: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    /// Begin with (read_budget, write_budget); tiny budgets exercise the
    /// overflow paths, huge ones the conflict paths.
    Begin(usize, usize, usize),
    Read(usize, usize),
    Write(usize, usize, u64),
    Commit(usize),
    Tabort(usize),
    Restricted(usize),
    Poll(usize),
    Tick(u64),
    /// `arm_lock_monitor(t, addr)` — the LazyGuarded begin-time guard:
    /// read accounting without read-set growth.
    Arm(usize, usize),
    /// `doom_all_active(t, addr)` — the LazyGuarded acquisition-time
    /// guard: every other active transaction dies.
    DoomAll(usize, usize),
    /// Timer-interrupt kill (`abort_spurious`) of whatever `t` has open,
    /// possibly in the middle of memoised accesses.
    Spurious(usize),
    /// Install (`true`) or remove the test's fault plan mid-run: the
    /// directory impl must stop serving memo hits the moment a plan is
    /// live, so every later access draws in lockstep with the reference.
    SetPlan(bool),
}

fn op_strategy(threads: usize) -> impl Strategy<Value = Op> {
    // Budget draw: 1..=5 lines, or effectively unlimited when the draw
    // lands on the top value — tiny budgets exercise overflow, huge ones
    // let conflicts develop.
    let unbound = |b: usize| if b == 6 { 1 << 20 } else { b };
    prop_oneof![
        (0..threads, 1usize..7, 1usize..7).prop_map(move |(t, r, w)| Op::Begin(
            t,
            unbound(r),
            unbound(w)
        )),
        // Accesses are weighted up (8 of 18 arms) so transactions live
        // long enough to re-touch memoised lines between kills and plan
        // installs.
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Read(t, a)),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Read(t, a)),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Read(t, a)),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Read(t, a)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..threads).prop_map(Op::Commit),
        (0..threads).prop_map(Op::Tabort),
        (0..threads).prop_map(Op::Restricted),
        (0..threads).prop_map(Op::Poll),
        (1u64..100).prop_map(Op::Tick),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Arm(t, a)),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::DoomAll(t, a)),
        (0..threads).prop_map(Op::Spurious),
        any::<bool>().prop_map(Op::SetPlan),
    ]
}

/// Hot address window of the structured tests, in words: 8 lines, so
/// multi-victim dooms and requester-wins ordering actually occur, or
/// `2 × MEMO_WAYS` lines, so line-memo way eviction interleaves with them.
fn hot_window(wide: bool) -> usize {
    if wide {
        2 * MEMO_WAYS * HOT_LINE_WORDS
    } else {
        32
    }
}

/// Drive both implementations through `ops` (addresses folded into the
/// first `window` words, `SetPlan(true)` installing `plan`) and require
/// identical results, abort reasons, `in_tx`/footprints, statistics and
/// fault-draw counts after every op, and identical trace streams and
/// memory images at the end.
fn run_structured(threads: usize, window: usize, plan: Option<FaultPlan>, ops: &[Op]) {
    let mut dut: TxMemory<u64> = TxMemory::new(MEM_WORDS, HOT_LINE_WORDS, threads, 0);
    let mut reference: ReferenceTxMemory<u64> =
        ReferenceTxMemory::new(MEM_WORDS, HOT_LINE_WORDS, threads, 0);
    let live_plan = plan.unwrap_or(FaultPlan {
        seed: 0x5EED,
        spurious_rate: 0.10,
        shrink_rate: 0.05,
        restricted_rate: 0.05,
        dirty_read: false,
    });
    if let Some(plan) = plan {
        dut.set_fault_plan(plan);
        reference.set_fault_plan(plan);
    }
    let dut_trace = RingBufferSink::shared(8192);
    let ref_trace = RingBufferSink::shared(8192);
    dut.set_trace_sink(Box::new(std::sync::Arc::clone(&dut_trace)));
    reference.set_trace_sink(Box::new(std::sync::Arc::clone(&ref_trace)));

    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Begin(t, r, w) => {
                let t = t % threads;
                if !dut.in_tx(t) {
                    let b = Budgets { read_lines: r, write_lines: w };
                    prop_assert_eq!(
                        dut.begin(t, b),
                        reference.begin(t, b),
                        "begin diverged at op {}",
                        i
                    );
                }
            }
            Op::Read(t, a) => {
                let (t, a) = (t % threads, a % window);
                prop_assert_eq!(dut.read(t, a), reference.read(t, a), "read diverged at op {}", i);
            }
            Op::Write(t, a, v) => {
                let (t, a) = (t % threads, a % window);
                prop_assert_eq!(
                    dut.write(t, a, v),
                    reference.write(t, a, v),
                    "write diverged at op {}",
                    i
                );
            }
            Op::Commit(t) => {
                let t = t % threads;
                if dut.in_tx(t) {
                    prop_assert_eq!(
                        dut.commit(t),
                        reference.commit(t),
                        "commit diverged at op {}",
                        i
                    );
                }
            }
            Op::Tabort(t) => {
                let t = t % threads;
                prop_assert_eq!(
                    dut.tabort(t, 7),
                    reference.tabort(t, 7),
                    "tabort diverged at op {}",
                    i
                );
            }
            Op::Restricted(t) => {
                let t = t % threads;
                prop_assert_eq!(
                    dut.abort_restricted(t),
                    reference.abort_restricted(t),
                    "restricted diverged at op {}",
                    i
                );
            }
            Op::Poll(t) => {
                let t = t % threads;
                prop_assert_eq!(
                    dut.poll_doomed(t),
                    reference.poll_doomed(t),
                    "poll diverged at op {}",
                    i
                );
            }
            Op::Tick(d) => {
                now += d;
                dut.set_now(now);
                reference.set_now(now);
            }
            Op::Arm(t, a) => {
                let (t, a) = (t % threads, a % window);
                prop_assert_eq!(
                    dut.arm_lock_monitor(t, a),
                    reference.arm_lock_monitor(t, a),
                    "arm diverged at op {}",
                    i
                );
            }
            Op::DoomAll(t, a) => {
                let (t, a) = (t % threads, a % window);
                dut.doom_all_active(t, a);
                reference.doom_all_active(t, a);
            }
            Op::Spurious(t) => {
                let t = t % threads;
                prop_assert_eq!(
                    dut.abort_spurious(t, SpuriousCause::TimerInterrupt),
                    reference.abort_spurious(t, SpuriousCause::TimerInterrupt),
                    "spurious kill diverged at op {}",
                    i
                );
            }
            Op::SetPlan(on) => {
                let p = if on { live_plan } else { FaultPlan::none() };
                dut.set_fault_plan(p);
                reference.set_fault_plan(p);
            }
        }
        for u in 0..threads {
            prop_assert_eq!(dut.in_tx(u), reference.in_tx(u), "in_tx({}) at op {}", u, i);
            prop_assert_eq!(
                dut.footprint(u),
                reference.footprint(u),
                "footprint({}) at op {}",
                u,
                i
            );
        }
        prop_assert_eq!(
            dut.active_tx_count(),
            reference.active_tx_count(),
            "active count at op {}",
            i
        );
        prop_assert_eq!(dut.stats(), reference.stats(), "stats at op {}", i);
        prop_assert_eq!(
            dut.faults_injected(),
            reference.faults_injected(),
            "injection streams diverged at op {}",
            i
        );
    }

    let dut_events = dut_trace.lock().unwrap().drain();
    let ref_events = ref_trace.lock().unwrap().drain();
    prop_assert_eq!(dut_events, ref_events, "trace streams diverged");
    for a in 0..MEM_WORDS {
        prop_assert_eq!(dut.peek(a), reference.peek(a), "memory image at {}", a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn directory_matches_reference(
        threads in 2usize..6,
        line_words_log2 in 0u32..4,
        ops in proptest::collection::vec((0..5usize, 0..MEM_WORDS, any::<u64>(), 1u64..50), 1..160),
    ) {
        let line_words = 1usize << line_words_log2;
        let mut dut: TxMemory<u64> = TxMemory::new(MEM_WORDS, line_words, threads, 0);
        let mut reference: ReferenceTxMemory<u64> =
            ReferenceTxMemory::new(MEM_WORDS, line_words, threads, 0);
        let dut_trace = RingBufferSink::shared(4096);
        let ref_trace = RingBufferSink::shared(4096);
        dut.set_trace_sink(Box::new(std::sync::Arc::clone(&dut_trace)));
        reference.set_trace_sink(Box::new(std::sync::Arc::clone(&ref_trace)));

        let mut now = 0u64;
        for (i, &(kind, addr, value, tick)) in ops.iter().enumerate() {
            // Derive a concrete op from the tuple so a shrunk failure stays
            // readable; `kind` picks the op class, the rest parameterize it.
            let t = addr % threads;
            match kind {
                0 => {
                    if !dut.in_tx(t) {
                        let budgets = if value % 4 == 0 {
                            Budgets { read_lines: 1 + (value as usize >> 2) % 5,
                                      write_lines: 1 + (value as usize >> 4) % 5 }
                        } else {
                            Budgets { read_lines: 1 << 20, write_lines: 1 << 20 }
                        };
                        prop_assert_eq!(dut.begin(t, budgets), reference.begin(t, budgets),
                            "begin diverged at op {}", i);
                    }
                }
                1 => prop_assert_eq!(dut.read(t, addr), reference.read(t, addr),
                        "read diverged at op {}", i),
                2 => prop_assert_eq!(dut.write(t, addr, value), reference.write(t, addr, value),
                        "write diverged at op {}", i),
                3 => {
                    if dut.in_tx(t) {
                        prop_assert_eq!(dut.commit(t), reference.commit(t),
                            "commit diverged at op {}", i);
                    } else if value % 3 == 0 {
                        prop_assert_eq!(dut.tabort(t, 1), reference.tabort(t, 1),
                            "tabort diverged at op {}", i);
                    } else {
                        prop_assert_eq!(dut.abort_restricted(t), reference.abort_restricted(t),
                            "restricted diverged at op {}", i);
                    }
                }
                _ => {
                    prop_assert_eq!(dut.poll_doomed(t), reference.poll_doomed(t),
                        "poll diverged at op {}", i);
                    now += tick;
                    dut.set_now(now);
                    reference.set_now(now);
                }
            }
            for u in 0..threads {
                prop_assert_eq!(dut.in_tx(u), reference.in_tx(u), "in_tx({}) at op {}", u, i);
                prop_assert_eq!(dut.footprint(u), reference.footprint(u),
                    "footprint({}) at op {}", u, i);
            }
            prop_assert_eq!(dut.active_tx_count(), reference.active_tx_count(),
                "active count at op {}", i);
            prop_assert_eq!(dut.stats(), reference.stats(), "stats at op {}", i);
        }

        let dut_events = dut_trace.lock().unwrap().drain();
        let ref_events = ref_trace.lock().unwrap().drain();
        prop_assert_eq!(dut_events, ref_events, "trace streams diverged");
        for a in 0..MEM_WORDS {
            prop_assert_eq!(dut.peek(a), reference.peek(a), "memory image at {}", a);
        }
    }

    /// The same interleaving with structured `Op` values, biased toward
    /// conflicting accesses in a hot address window; interrupt kills and
    /// mid-run plan installs land between memoised accesses.
    #[test]
    fn directory_matches_reference_hot_lines(
        threads in 2usize..6,
        wide in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(5), 1..200),
    ) {
        run_structured(threads, hot_window(wide), None, &ops);
    }

    /// The same hot-line interleaving with the fault injector enabled on
    /// **both** implementations from the start: spurious aborts,
    /// mid-transaction budget shrinks and forced restricted ops must fire
    /// at the same accesses, attribute the same reasons, and leave
    /// identical memory images.
    #[test]
    fn directory_matches_reference_with_fault_injection(
        threads in 2usize..6,
        wide in any::<bool>(),
        seed in any::<u64>(),
        spurious_pct in 0u32..31,
        shrink_pct in 0u32..16,
        restricted_pct in 0u32..11,
        ops in proptest::collection::vec(op_strategy(5), 1..200),
    ) {
        let plan = FaultPlan {
            seed,
            spurious_rate: f64::from(spurious_pct) / 100.0,
            shrink_rate: f64::from(shrink_pct) / 100.0,
            restricted_rate: f64::from(restricted_pct) / 100.0,
            dirty_read: false,
        };
        run_structured(threads, hot_window(wide), Some(plan), &ops);
    }
}
