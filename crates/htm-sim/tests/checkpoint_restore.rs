//! Property test: restoring a run checkpoint is indistinguishable from
//! never having run past it.
//!
//! A memory runs random operations A and is brought to idle; one twin
//! arms a checkpoint there and runs one to three further random runs B,
//! each followed by `restore`. B may stop anywhere — mid-transaction,
//! with dooms pending, a fault plan or trace sink installed, predictors
//! trained, the memory grown. Both twins then run the same operations
//! C, and every result, every [`htm_sim::HtmStats`], the fault-draw
//! count and the final memory image must be identical.

use htm_sim::{
    Budgets, FaultPlan, OverflowPredictor, RingBufferSink, SpuriousCause, TraceEvent, TxMemory,
};
use proptest::prelude::*;

const MEM_WORDS: usize = 128;

#[derive(Debug, Clone)]
enum Op {
    Begin(usize, usize, usize),
    Read(usize, usize),
    Write(usize, usize, u64),
    Commit(usize),
    Tabort(usize),
    Poll(usize),
    Tick(u64),
    DoomAll(usize, usize),
    Spurious(usize),
    /// Install (`Some(seed)`) or remove a drawing fault plan.
    SetPlan(Option<u64>),
    /// Install a trace sink of this capacity.
    Trace(usize),
    /// Install a trained Intel predictor on a thread.
    Predictor(usize, u64),
    /// Grow by this many words (only with no live transaction).
    Grow(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let unbound = |b: usize| if b == 6 { 1 << 20 } else { b };
    prop_oneof![
        (0..4usize, 1usize..7, 1usize..7).prop_map(move |(t, r, w)| Op::Begin(
            t,
            unbound(r),
            unbound(w)
        )),
        (0..4usize, any::<usize>()).prop_map(|(t, a)| Op::Read(t, a)),
        (0..4usize, any::<usize>()).prop_map(|(t, a)| Op::Read(t, a)),
        (0..4usize, any::<usize>(), any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..4usize, any::<usize>(), any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..4usize, any::<usize>(), any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..4usize).prop_map(Op::Commit),
        (0..4usize).prop_map(Op::Tabort),
        (0..4usize).prop_map(Op::Poll),
        (1u64..100).prop_map(Op::Tick),
        (0..4usize, any::<usize>()).prop_map(|(t, a)| Op::DoomAll(t, a)),
        (0..4usize).prop_map(Op::Spurious),
        (0u64..4).prop_map(|s| Op::SetPlan((s > 0).then_some(s))),
        (1usize..16).prop_map(Op::Trace),
        (0..4usize, any::<u64>()).prop_map(|(t, s)| Op::Predictor(t, s)),
        (1usize..40).prop_map(Op::Grow),
    ]
}

/// Apply `op` to `m` and describe its result (`threads` folds thread
/// ids, the current size folds addresses).
fn apply(m: &mut TxMemory<u64>, threads: usize, op: &Op) -> String {
    let size = m.size();
    match *op {
        Op::Begin(t, r, w) => {
            let t = t % threads;
            if m.in_tx(t) {
                return "nested".into();
            }
            format!("{:?}", m.begin(t, Budgets { read_lines: r, write_lines: w }))
        }
        Op::Read(t, a) => format!("{:?}", m.read(t % threads, a % size)),
        Op::Write(t, a, v) => format!("{:?}", m.write(t % threads, a % size, v)),
        Op::Commit(t) => {
            let t = t % threads;
            if !m.in_tx(t) {
                return format!("idle {:?}", m.poll_doomed(t));
            }
            format!("{:?}", m.commit(t))
        }
        Op::Tabort(t) => format!("{:?}", m.tabort(t % threads, 3)),
        Op::Poll(t) => format!("{:?}", m.poll_doomed(t % threads)),
        Op::Tick(d) => {
            m.set_now(d);
            String::new()
        }
        Op::DoomAll(t, a) => {
            m.doom_all_active(t % threads, a % size);
            String::new()
        }
        Op::Spurious(t) => {
            format!("{:?}", m.abort_spurious(t % threads, SpuriousCause::TimerInterrupt))
        }
        Op::SetPlan(seed) => {
            let plan = seed.map_or(FaultPlan::none(), |s| FaultPlan {
                seed: s,
                spurious_rate: 0.1,
                shrink_rate: 0.05,
                restricted_rate: 0.05,
                dirty_read: s == 3,
            });
            m.set_fault_plan(plan);
            String::new()
        }
        Op::Trace(cap) => {
            m.set_trace_sink(Box::new(RingBufferSink::new(cap)));
            String::new()
        }
        Op::Predictor(t, seed) => {
            let mut p = OverflowPredictor::intel(4, seed);
            for _ in 0..seed % 8 {
                p.on_overflow();
            }
            m.set_predictor(t % threads, p);
            String::new()
        }
        Op::Grow(extra) => {
            if m.active_tx_count() > 0 {
                return "busy".into();
            }
            m.grow(extra, 7);
            String::new()
        }
    }
}

/// Bring `m` to the idle state a checkpoint requires.
fn quiesce(m: &mut TxMemory<u64>, threads: usize) {
    for t in 0..threads {
        if m.in_tx(t) {
            m.tabort(t, 1);
        }
        m.poll_doomed(t);
    }
    m.set_fault_plan(FaultPlan::none());
    m.take_trace_sink();
}

fn run_case(threads: usize, line_words: usize, a: &[Op], bs: &[Vec<Op>], c: &[Op]) {
    let mut fresh: TxMemory<u64> = TxMemory::new(MEM_WORDS, line_words, threads, 0);
    let mut restored: TxMemory<u64> = TxMemory::new(MEM_WORDS, line_words, threads, 0);
    for op in a {
        apply(&mut fresh, threads, op);
        apply(&mut restored, threads, op);
    }
    quiesce(&mut fresh, threads);
    quiesce(&mut restored, threads);
    restored.checkpoint();
    for b in bs {
        for op in b {
            apply(&mut restored, threads, op);
        }
        restored.restore();
    }
    prop_assert_eq!(fresh.size(), restored.size(), "size after restore");
    prop_assert_eq!(fresh.stats(), restored.stats(), "stats after restore");
    prop_assert!(!restored.tracing_enabled(), "restore removes the trace sink");
    // Trace C on both, so the event streams compare too.
    let fresh_trace = RingBufferSink::shared(4096);
    let restored_trace = RingBufferSink::shared(4096);
    fresh.set_trace_sink(Box::new(std::sync::Arc::clone(&fresh_trace)));
    restored.set_trace_sink(Box::new(std::sync::Arc::clone(&restored_trace)));
    for (i, op) in c.iter().enumerate() {
        prop_assert_eq!(
            apply(&mut fresh, threads, op),
            apply(&mut restored, threads, op),
            "op {}",
            i
        );
        prop_assert_eq!(fresh.stats(), restored.stats(), "stats at op {}", i);
        prop_assert_eq!(fresh.faults_injected(), restored.faults_injected(), "draws at op {}", i);
        for t in 0..threads {
            prop_assert_eq!(fresh.footprint(t), restored.footprint(t), "footprint({}) at {}", t, i);
        }
    }
    // An op may have replaced the comparison sinks; compare what both kept.
    let events = |s: &std::sync::Arc<std::sync::Mutex<RingBufferSink>>| -> Vec<TraceEvent> {
        s.lock().unwrap().drain()
    };
    prop_assert_eq!(events(&fresh_trace), events(&restored_trace), "trace streams");
    prop_assert_eq!(fresh.size(), restored.size(), "final size");
    for addr in 0..fresh.size() {
        prop_assert_eq!(fresh.peek(addr), restored.peek(addr), "memory image at {}", addr);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn restore_equals_never_having_run_past_the_checkpoint(
        threads in 2usize..5,
        line_words_log2 in 0u32..4,
        a in proptest::collection::vec(op_strategy(), 0..60),
        bs in proptest::collection::vec(proptest::collection::vec(op_strategy(), 0..120), 1..4),
        c in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        run_case(threads, 1 << line_words_log2, &a, &bs, &c);
    }
}
