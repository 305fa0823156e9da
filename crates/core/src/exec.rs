//! The deterministic executor: drives the Ruby VM one bytecode at a time
//! over the discrete-event scheduler, implementing the paper's Figures 1–3
//! as a per-thread state machine.
//!
//! State per thread (HTM modes): exactly one of
//! * *in transaction* — registers snapshotted at begin; aborts roll the
//!   memory back via the undo log and the registers via the snapshot;
//! * *holding the GIL* — the fallback (or single-thread) path;
//! * *neither* — about to run `transaction_begin` at its current pc;
//! * *parked* — on the GIL queue, a mutex/barrier/join, or sleeping on
//!   simulated I/O.
//!
//! Cycle accounting follows the paper's Fig. 8 categories; work done
//! inside a transaction is held in escrow and lands in `tx_success` or
//! `aborted` at commit/abort time.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use htm_sim::abort::abort_codes;
use htm_sim::trace::{RingBufferSink, TraceEvent};
use htm_sim::{AbortReason, Budgets, OverflowPredictor, SpuriousCause};
use machine_sim::{Cycles, InterruptTimer, MachineProfile, Scheduler, ThreadId};
use ruby_vm::{BlockOn, StepOk, Vm, VmAbort, VmConfig, Word};

use crate::config::{ExecConfig, LengthPolicy, RuntimeMode, YieldPolicy};
use crate::gil::{GilState, GilWait};
use crate::locks::FineGrainedModel;
use crate::report::{ConflictSite, CycleBreakdown, RunReport};
use crate::tle::{LengthTables, SubscriptionPolicy};

/// Fatal run failure.
#[derive(Debug)]
pub enum RunError {
    Boot(String),
    Vm(String),
    Deadlock(String),
    /// The configured simulated-cycle budget ran out. Carries the same
    /// thread-state dump as [`RunError::Deadlock`] — a cycle-limit hit is
    /// usually an application-level livelock, and the dump shows where
    /// every thread was spinning.
    CycleLimit {
        limit: u64,
        dump: String,
    },
    /// Forward-progress invariant violation: the scheduler kept running
    /// threads, but no instruction committed for `steps` consecutive
    /// scheduling steps — a livelock the retry machinery failed to break.
    NoProgress {
        steps: u64,
        dump: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Boot(m) => write!(f, "boot error: {m}"),
            RunError::Vm(m) => write!(f, "vm error: {m}"),
            RunError::Deadlock(m) => write!(f, "deadlock: {m}"),
            RunError::CycleLimit { limit, dump } => {
                write!(f, "cycle limit {limit} exceeded\n{dump}")
            }
            RunError::NoProgress { steps, dump } => {
                write!(f, "no committed instruction in {steps} scheduler steps (livelock)\n{dump}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Active-transaction bookkeeping.
#[derive(Debug, Clone)]
struct TxInfo {
    /// Global pc of the yield point the transaction started at.
    start_pc: u32,
    snapshot: ruby_vm::vm::RegSnapshot,
    /// Work cycles accumulated inside the transaction (escrow).
    work: Cycles,
    /// Instructions retired inside the transaction (escrow).
    insns: u64,
    /// `srv_mark` lifecycle events emitted inside the transaction
    /// (escrow): recorded with the commit-time clock on commit, dropped
    /// on abort — an aborted slice leaves no phantom latency events.
    marks: Vec<(u8, i64)>,
    /// Wake keys produced inside the transaction (a transactional
    /// `Mutex#unlock`'s owner-word write is invisible until commit, so
    /// its wake must be too). Published at commit, dropped on abort — a
    /// phantom wake from an uncommitted unlock revives the whole waiter
    /// herd against a still-locked mutex, and each woken thread's
    /// GIL fallback then dooms the unlocking transaction before it can
    /// commit: a self-sustaining livelock at high thread counts.
    wakes: Vec<ruby_vm::vm::WakeKey>,
}

/// Per-thread TLE controller state (paper Fig. 1's local variables).
#[derive(Debug, Clone)]
struct TleThread {
    tx: Option<TxInfo>,
    holds_gil: bool,
    transient_retries: u32,
    gil_retries: u32,
    first_retry: bool,
    /// Pending begin at this global pc (after an abort or a yield).
    resume_pc: Option<u32>,
    /// Committed to acquiring the GIL (paper Fig. 1 `gil_acquire()` blocks
    /// until ownership): survives parking, so a woken thread completes the
    /// acquisition instead of attempting another transaction.
    want_gil: bool,
    /// The context (transaction or GIL) was just established at the
    /// current pc: the instruction there must execute before the next
    /// yield-point decision, matching Fig. 1's retry loop, which re-enters
    /// the critical section without re-running `transaction_yield`.
    fresh: bool,
    /// The next `transaction_begin` is a *retry* of the same attempt
    /// sequence (Fig. 1's `goto transaction_retry`): keep the retry
    /// counters and do not re-run `set_transaction_length`.
    retrying: bool,
    /// Aborted transactions since this thread's last commit, *across*
    /// attempt sequences (the Fig. 1 budgets reset per sequence; this
    /// counter does not). Feeds the livelock watchdog.
    consecutive_aborts: u32,
    /// Remaining forced-GIL tenures before speculation is retried
    /// (watchdog escalation in effect while > 0).
    cooldown: u32,
    /// Cooldown length for the *next* escalation — doubled on each
    /// escalation, reset to `cooldown_base` by a commit.
    backoff: u32,
}

impl TleThread {
    fn new() -> Self {
        TleThread {
            tx: None,
            holds_gil: false,
            transient_retries: 0,
            gil_retries: 0,
            first_retry: true,
            resume_pc: None,
            want_gil: false,
            fresh: false,
            retrying: false,
            consecutive_aborts: 0,
            cooldown: 0,
            backoff: 0,
        }
    }

    fn reset_retries(&mut self, c: &crate::config::TleConstants) {
        self.transient_retries = c.transient_retry_max;
        self.gil_retries = c.gil_retry_max;
        self.first_retry = true;
    }
}

/// What a thread parked on (beyond the GIL queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ParkKey {
    Mutex(usize),
    Barrier(usize),
    Join(ThreadId),
}

/// The executor.
pub struct Executor {
    pub vm: Vm,
    pub sched: Scheduler,
    pub profile: MachineProfile,
    pub cfg: ExecConfig,
    gil: GilState,
    tle: Vec<TleThread>,
    /// Full (non-SMT-halved) footprint budgets, fixed by the machine
    /// profile — computed once at boot so the per-begin path avoids the
    /// byte→line divisions.
    base_budgets: Budgets,
    tables: LengthTables,
    fine: FineGrainedModel,
    /// Parked threads by key.
    parked: HashMap<ParkKey, Vec<ThreadId>>,
    /// Committed/wasted instruction counts.
    committed_insns: u64,
    wasted_insns: u64,
    breakdown: CycleBreakdown,
    conflict_sites: HashMap<ConflictSite, u64>,
    /// Allocation count at the previous step (per-step delta source).
    last_allocs: u64,
    /// §5.6 timer-interrupt model (disabled unless the config arms it).
    interrupts: InterruptTimer,
    /// Watchdog escalations performed (report statistic).
    watchdog_escalations: u64,
    /// Task-latency accounting fed by committed `srv_mark` events.
    latency: crate::latency::LatencyRecorder,
    /// `committed_insns` at the last scheduler step that made progress.
    progress_watermark: u64,
    /// Scheduler steps since `committed_insns` last advanced.
    stalled_steps: u64,
    /// Shared handle on the trace ring buffer when
    /// `ExecConfig::trace_capacity > 0`; the other clone lives inside the
    /// transactional memory as its sink.
    trace: Option<Arc<Mutex<RingBufferSink>>>,
    /// Flag bit identifying yield points under the effective yield
    /// policy (`YP_ORIG` or `YP_EXT`): the per-step yield test is one
    /// flags load and a mask instead of an instruction fetch plus a kind
    /// classification.
    yp_bit: u8,
}

impl Executor {
    /// Boot a VM for `source` and prepare a run.
    pub fn new(
        source: &str,
        vm_config: VmConfig,
        profile: MachineProfile,
        cfg: ExecConfig,
    ) -> Result<Executor, RunError> {
        let mut vm =
            Vm::boot(source, vm_config, &profile).map_err(|e| RunError::Boot(e.to_string()))?;
        // Install the Intel learning predictor per hardware thread.
        if profile.htm.learning_predictor {
            for t in 0..vm.config.max_threads {
                vm.mem.set_predictor(
                    t,
                    OverflowPredictor::intel(profile.htm.predictor_memory, cfg.seed ^ t as u64),
                );
            }
        }
        let mut sched =
            Scheduler::new(profile.cores, profile.smt_per_core, profile.cost.context_switch);
        if let Some(path) = cfg.explore_path.clone() {
            sched.set_explore(machine_sim::ExploreCtl::new(path, cfg.explore_interrupts));
        }
        let t0 = sched.spawn(0);
        debug_assert_eq!(t0, 0);
        let total_pcs = vm.program.total_insns();
        let length_policy = match cfg.mode {
            RuntimeMode::Htm { length } => length,
            _ => LengthPolicy::Fixed(1),
        };
        let tables = LengthTables::new(total_pcs, length_policy, cfg.tle);
        let base_budgets = Budgets {
            read_lines: profile.cache.read_set_lines(),
            write_lines: profile.cache.write_set_lines(),
        };
        let first_timer = profile.cost.timer_interval;
        let trace = if cfg.trace_capacity > 0 {
            let sink = RingBufferSink::shared(cfg.trace_capacity);
            vm.mem.set_trace_sink(Box::new(Arc::clone(&sink)));
            Some(sink)
        } else {
            None
        };
        if let Some(plan) = cfg.fault_plan {
            vm.mem.set_fault_plan(plan);
        }
        let interrupts = InterruptTimer::new(cfg.interrupt_interval);
        let yp_bit = match cfg.effective_yield_policy() {
            YieldPolicy::Original => ruby_vm::bytecode::YP_ORIG,
            YieldPolicy::Extended => ruby_vm::bytecode::YP_EXT,
        };
        Ok(Executor {
            vm,
            sched,
            profile,
            cfg,
            gil: GilState::new(first_timer),
            tle: vec![TleThread::new()],
            base_budgets,
            tables,
            fine: FineGrainedModel::default(),
            parked: HashMap::new(),
            committed_insns: 0,
            wasted_insns: 0,
            breakdown: CycleBreakdown::default(),
            conflict_sites: HashMap::new(),
            last_allocs: 0,
            interrupts,
            watchdog_escalations: 0,
            latency: crate::latency::LatencyRecorder::new(),
            progress_watermark: 0,
            stalled_steps: 0,
            trace,
            yp_bit,
        })
    }

    /// Snapshot of the retained trace events (empty when tracing is off).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map_or_else(Vec::new, |t| {
            t.lock().expect("trace sink poisoned").events().copied().collect()
        })
    }

    /// Run the program to completion and report.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        loop {
            let Some(t) = self.sched.next() else {
                if self.sched.all_finished() {
                    break;
                }
                return Err(RunError::Deadlock(self.deadlock_dump()));
            };
            if self.cfg.max_cycles != 0 && self.sched.clock(t) > self.cfg.max_cycles {
                return Err(RunError::CycleLimit {
                    limit: self.cfg.max_cycles,
                    dump: self.deadlock_dump(),
                });
            }
            if self.vm.threads[t].finished {
                self.sched.finish(t);
                continue;
            }
            // Stamp trace events with this thread's simulated clock.
            if self.trace.is_some() {
                self.vm.mem.set_now(self.sched.clock(t));
            }
            // GIL-mode timer thread: wake up every interval and flag the
            // running (GIL-holding) thread (paper §3.2).
            if self.cfg.mode == RuntimeMode::Gil {
                let now = self.sched.clock(t);
                while now >= self.gil.next_timer {
                    self.gil.next_timer += self.profile.cost.timer_interval;
                    if let Some(h) = self.gil.holder {
                        let flag = self.vm.layout.thread_struct(h) + ruby_vm::layout::ts::INTERRUPT;
                        self.vm.wr_untimed(h, flag, Word::Int(1)).map_err(|r| {
                            RunError::Vm(format!("timer flag write aborted unexpectedly: {r:?}"))
                        })?;
                    }
                }
            }
            // §5.6 interrupt model: a timer interrupt on `t`'s hardware
            // thread kills its in-flight transaction before it runs.
            if self.interrupts.is_enabled()
                && self.interrupts.due(t, self.sched.clock(t))
                && self.tle.get(t).is_some_and(|x| x.tx.is_some())
            {
                // A remote doom may already have rolled the transaction
                // back; consume it as the abort reason in that case.
                let reason = match self.vm.mem.poll_doomed(t) {
                    Some(r) => r,
                    None => self.vm.mem.abort_spurious(t, SpuriousCause::TimerInterrupt),
                };
                self.on_tx_abort(t, reason)?;
                continue;
            }
            match self.cfg.mode {
                RuntimeMode::Gil => self.step_gil(t)?,
                RuntimeMode::Htm { .. } => self.step_htm(t)?,
                RuntimeMode::FineGrained | RuntimeMode::Ideal => self.step_free(t)?,
            }
            // Wakes produced by the VM (mutex unlock, barrier release).
            self.drain_wakes(t);
            // Forward-progress invariant: the retry/watchdog machinery
            // must keep instructions committing; a long stall is livelock.
            if self.cfg.progress_bound_steps != 0 {
                if self.committed_insns != self.progress_watermark {
                    self.progress_watermark = self.committed_insns;
                    self.stalled_steps = 0;
                } else {
                    self.stalled_steps += 1;
                    if self.stalled_steps >= self.cfg.progress_bound_steps {
                        return Err(RunError::NoProgress {
                            steps: self.stalled_steps,
                            dump: self.deadlock_dump(),
                        });
                    }
                }
            }
        }
        Ok(self.report())
    }

    /// Diagnostic snapshot for deadlock errors.
    fn deadlock_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("no runnable thread; {} live\n", self.sched.live_count());
        for t in 0..self.sched.len() {
            let c = &self.vm.threads[t];
            let _ = writeln!(
                out,
                "  t{t}: sched={:?} fin={} gil={} tx={} want_gil={} resume={:?} at {}:{}",
                self.sched.state(t),
                c.finished,
                self.tle.get(t).is_some_and(|x| x.holds_gil),
                self.tle.get(t).is_some_and(|x| x.tx.is_some()),
                self.tle.get(t).is_some_and(|x| x.want_gil),
                self.tle.get(t).and_then(|x| x.resume_pc),
                self.vm.program.iseq(c.iseq).name,
                c.pc,
            );
        }
        let _ = writeln!(
            out,
            "  gil holder={:?} waiters={:?} parked_keys={:?}",
            self.gil.holder,
            self.gil.waiters,
            self.parked.keys().collect::<Vec<_>>()
        );
        // Under exploration, append the trailing scheduler decision trail
        // so a stuck explored run is diagnosable without a rerun.
        if let Some(trail) = self.sched.explore_trail() {
            let _ = writeln!(out, "  sched decisions (tail): {trail}");
        }
        out
    }

    fn report(&self) -> RunReport {
        let elapsed = (0..self.sched.len()).map(|t| self.sched.clock(t)).max().unwrap_or(0);
        let (trace_recorded, trace_dropped) = self.trace.as_ref().map_or((0, 0), |t| {
            let sink = t.lock().expect("trace sink poisoned");
            (sink.len() as u64 + sink.dropped(), sink.dropped())
        });
        RunReport {
            mode_label: self.cfg.mode.label(),
            subscription: self.cfg.subscription,
            machine: self.profile.name,
            threads_used: self.sched.len(),
            elapsed_cycles: elapsed,
            committed_insns: self.committed_insns,
            wasted_insns: self.wasted_insns,
            breakdown: self.breakdown.clone(),
            htm: self.vm.mem.stats().clone(),
            gil_acquisitions: self.gil.acquisitions,
            conflict_sites: self.conflict_sites.clone(),
            share_length_one: self.tables.share_of_length_one(),
            length_adjustments: self.tables.total_adjustments,
            yield_point_profiles: self.tables.profiles(),
            trace_events_recorded: trace_recorded,
            trace_events_dropped: trace_dropped,
            watchdog_escalations: self.watchdog_escalations,
            allocations: self.vm.allocations,
            gc_runs: self.vm.gc_runs,
            stdout: self.vm.stdout_text(),
            task_latency: self.latency.summary(),
        }
    }

    // ---- common helpers ------------------------------------------------------

    /// Current instruction's global pc for thread `t`.
    fn global_pc(&self, t: ThreadId) -> u32 {
        let c = &self.vm.threads[t];
        self.vm.program.global_pc(c.iseq, c.pc)
    }

    /// Is the instruction `t` is about to execute a yield point under the
    /// effective policy? One load from the program's yield-flag lane.
    #[inline]
    fn at_yield_point(&self, t: ThreadId) -> bool {
        self.vm.insn_flags(t) & self.yp_bit != 0
    }

    /// HTM footprint budgets for `t` right now (SMT halving, §5.4).
    fn budgets(&self, t: ThreadId) -> Budgets {
        if self.sched.smt_sibling_busy(t) {
            self.base_budgets.halved()
        } else {
            self.base_budgets
        }
    }

    /// Execute one VM step (one bytecode) and charge its cycles to `t`:
    /// one dispatch plus the accumulated memory/native costs. Returns the
    /// VM outcome and the charged work cycles.
    fn raw_step(&mut self, t: ThreadId) -> (Result<StepOk, VmAbort>, Cycles) {
        self.vm.reset_step_counters();
        let r = self.vm.step(t);
        let cost = self.profile.cost.dispatch
            + Cycles::from(self.vm.step_mem_refs) * self.profile.cost.mem_ref
            + self.vm.step_native_cost;
        self.sched.advance(t, cost);
        (r, cost)
    }

    /// Drain the marks the last step emitted. Outside any transaction
    /// they are externally visible now; inside one they go to escrow and
    /// surface (or vanish) with the transaction.
    fn drain_marks(&mut self, t: ThreadId) {
        if self.vm.pending_marks.is_empty() {
            return;
        }
        let marks = std::mem::take(&mut self.vm.pending_marks);
        if let Some(tx) = self.tle.get_mut(t).and_then(|x| x.tx.as_mut()) {
            tx.marks.extend(marks);
        } else {
            let now = self.sched.clock(t);
            for (kind, id) in marks {
                self.latency.on_mark(kind, id, now);
            }
        }
    }

    /// Classify a conflicting line into a VM region, consulting the
    /// line→owner map the VM registered at layout time (and extends on
    /// heap growth, so grown slot ranges and grown malloc arenas resolve
    /// to their actual owners).
    fn classify_line(&self, line: usize) -> ConflictSite {
        self.vm.attribution.owner_of_line(line)
    }

    fn record_conflict(&mut self, reason: AbortReason) {
        if let AbortReason::ConflictRead { line, .. } | AbortReason::ConflictWrite { line, .. } =
            reason
        {
            let site = self.classify_line(line);
            *self.conflict_sites.entry(site).or_insert(0) += 1;
        }
    }

    /// Handle StepOk common to all modes. Returns true when the thread
    /// can continue normally.
    fn handle_outcome(&mut self, t: ThreadId, ok: StepOk) -> Result<(), RunError> {
        match ok {
            StepOk::Normal => Ok(()),
            StepOk::Finished => {
                self.on_thread_finished(t);
                Ok(())
            }
            StepOk::Spawned { tid } => {
                let s = self.sched.spawn(self.sched.clock(t));
                debug_assert_eq!(s, tid, "scheduler/vm thread ids must stay in lockstep");
                self.tle.push(TleThread::new());
                Ok(())
            }
            StepOk::Block(on) => {
                self.park_on(t, on);
                Ok(())
            }
        }
    }

    /// Publish thread completion: thread-object state, scheduler, joiners.
    fn on_thread_finished(&mut self, t: ThreadId) {
        let (obj, result) = {
            let c = &self.vm.threads[t];
            (c.thread_obj, c.result.clone())
        };
        if obj != 0 {
            // Non-transactional state publication; dooms stale readers.
            self.vm.mem.write(t, obj + 2, Word::Int(1)).expect("state");
            self.vm.mem.write(t, obj + 3, result).expect("result");
        }
        self.sched.finish(t);
        let now = self.sched.clock(t);
        if let Some(waiters) = self.parked.remove(&ParkKey::Join(t)) {
            for w in waiters {
                self.sched.unpark(w, now);
            }
        }
    }

    fn park_on(&mut self, t: ThreadId, on: BlockOn) {
        let now = self.sched.clock(t);
        match on {
            BlockOn::Io(units) => {
                let until = now + u64::from(units) * self.profile.cost.io_latency;
                self.breakdown.io_wait += until - now;
                self.sched.sleep_until(t, until);
            }
            BlockOn::Mutex(addr) => {
                self.parked.entry(ParkKey::Mutex(addr)).or_default().push(t);
                self.sched.park(t);
            }
            BlockOn::Barrier(addr) => {
                self.parked.entry(ParkKey::Barrier(addr)).or_default().push(t);
                self.sched.park(t);
            }
            BlockOn::Join(target) => {
                if self.vm.threads[target].finished {
                    // Raced with completion: retry immediately.
                    return;
                }
                self.parked.entry(ParkKey::Join(target)).or_default().push(t);
                self.sched.park(t);
            }
        }
    }

    fn drain_wakes(&mut self, t: ThreadId) {
        if self.vm.pending_wakes.is_empty() {
            return;
        }
        let wakes = std::mem::take(&mut self.vm.pending_wakes);
        if let Some(tx) = self.tle.get_mut(t).and_then(|x| x.tx.as_mut()) {
            // The writes that justify these wakes are uncommitted:
            // escrow them with the transaction (see `TxInfo::wakes`).
            tx.wakes.extend(wakes);
        } else {
            self.publish_wakes(t, wakes);
        }
    }

    /// Unpark every thread waiting on the given keys, at `t`'s clock.
    ///
    /// Under exploration, a wake-order decision may rotate the waiter
    /// list and stagger the unpark times by one cycle each, so the
    /// rotation actually changes the downstream ready-time tie-breaks;
    /// choice 0 (and no controller) is the exact legacy publish.
    fn publish_wakes(&mut self, t: ThreadId, wakes: Vec<ruby_vm::vm::WakeKey>) {
        let now = self.sched.clock(t);
        for key in wakes {
            let pk = match key {
                ruby_vm::vm::WakeKey::Mutex(a) => ParkKey::Mutex(a),
                ruby_vm::vm::WakeKey::Barrier(a) => ParkKey::Barrier(a),
            };
            if let Some(mut waiters) = self.parked.remove(&pk) {
                let rot = self.sched.explore_wake_order(waiters.len()) as usize;
                if rot == 0 {
                    for w in waiters {
                        self.sched.unpark(w, now);
                    }
                } else {
                    let n = waiters.len().max(1);
                    waiters.rotate_left(rot % n);
                    for (i, w) in waiters.into_iter().enumerate() {
                        self.sched.unpark(w, now + i as Cycles);
                    }
                }
            }
        }
    }

    /// Release the GIL held by `t` and wake its waiter queue.
    fn gil_release(&mut self, t: ThreadId) {
        let now = self.sched.clock(t);
        self.sched.advance(t, self.profile.cost.gil_release);
        let woken = self.gil.release(&mut self.vm, t);
        for (w, _intent) in woken {
            self.sched.unpark(w, now + self.profile.cost.gil_wait_wakeup);
        }
    }

    // ---- GIL mode ---------------------------------------------------------------

    fn step_gil(&mut self, t: ThreadId) -> Result<(), RunError> {
        // Must hold the GIL to run.
        if !self.gil.held_by(t) {
            if self.gil.is_held() {
                self.gil.push_waiter(t, GilWait::Acquire);
                self.sched.park(t);
                return Ok(());
            }
            self.sched.advance(t, self.profile.cost.gil_acquire);
            self.breakdown.gil_wait += self.profile.cost.gil_acquire;
            self.gil.acquire(&mut self.vm, t, self.cfg.tls_running_thread);
        }
        // Yield points: yield only when the timer flagged us and another
        // live thread exists (paper §3.2).
        if self.at_yield_point(t) && self.sched.other_live_threads(t) > 0 {
            // Schedule-exploration decision point: a forced preemption
            // hands control to the pinned thread without running t.
            if self.sched.explore_active() && self.sched.explore_preempt(t).is_some() {
                return Ok(());
            }
            let flag_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::INTERRUPT;
            // GIL mode runs no transactions, so these plain accesses can
            // only fail if the memory invariants are broken — surface
            // that as a run error instead of tearing down the process.
            let flag = self.vm.rd_untimed(t, flag_addr).map_err(|r| {
                RunError::Vm(format!("interrupt flag read aborted outside any transaction: {r:?}"))
            })?;
            self.sched.advance(t, 2 * self.profile.cost.mem_ref);
            self.breakdown.gil_held += 2 * self.profile.cost.mem_ref;
            if flag == Word::Int(1) {
                self.vm.wr_untimed(t, flag_addr, Word::Int(0)).map_err(|r| {
                    RunError::Vm(format!(
                        "interrupt flag clear aborted outside any transaction: {r:?}"
                    ))
                })?;
                self.gil_release(t);
                self.sched.advance(t, self.profile.cost.sched_yield);
                self.breakdown.gil_wait += self.profile.cost.sched_yield;
                // Re-acquire on the next scheduling round (others, woken
                // with earlier clocks, get the lock first).
                return Ok(());
            }
        }
        let (r, cost) = self.raw_step(t);
        self.breakdown.gil_held += cost;
        self.drain_marks(t);
        match r {
            Ok(ok) => {
                self.committed_insns += 1;
                self.vm.publish_method_bumps();
                let was_block = matches!(ok, StepOk::Block(_));
                let finished = matches!(ok, StepOk::Finished);
                if was_block || finished {
                    // Blocking region / exit: release the GIL first.
                    self.gil_release(t);
                }
                self.handle_outcome(t, ok)
            }
            Err(VmAbort::Err(e)) => Err(RunError::Vm(e.to_string())),
            Err(VmAbort::Tx(r)) => {
                Err(RunError::Vm(format!("transaction abort in GIL mode: {r:?}")))
            }
        }
    }

    // ---- free modes (FineGrained / Ideal) ------------------------------------------

    fn step_free(&mut self, t: ThreadId) -> Result<(), RunError> {
        let (r, cost) = self.raw_step(t);
        self.breakdown.tx_success += cost;
        self.drain_marks(t);
        // JRuby-like allocation serialization.
        if self.cfg.mode == RuntimeMode::FineGrained {
            let allocs = self.vm.allocations;
            let delta = allocs - self.last_allocs;
            self.last_allocs = allocs;
            if delta > 0 {
                let extra = self.fine.on_allocations(self.sched.clock(t), delta);
                self.sched.advance(t, extra);
                self.breakdown.other += extra;
            }
        }
        match r {
            Ok(ok) => {
                self.committed_insns += 1;
                self.vm.publish_method_bumps();
                self.handle_outcome(t, ok)
            }
            Err(VmAbort::Err(e)) => Err(RunError::Vm(e.to_string())),
            Err(VmAbort::Tx(r)) => {
                Err(RunError::Vm(format!("transaction abort without transactions: {r:?}")))
            }
        }
    }

    // ---- HTM (TLE) mode --------------------------------------------------------------

    fn step_htm(&mut self, t: ThreadId) -> Result<(), RunError> {
        // 1. Ensure an execution context: transaction or GIL.
        if self.tle[t].tx.is_none() && !self.tle[t].holds_gil {
            if self.tle[t].want_gil {
                // A forcible acquisition is in progress (Fig. 1 line 27 /
                // persistent-abort fallback): finish it before anything
                // else.
                if !self.gil_acquire_or_park(t) {
                    return Ok(());
                }
            } else if !self.transaction_begin(t)? {
                return Ok(()); // parked waiting for the GIL
            }
        }
        // 2. transaction_yield (paper Fig. 2): at yield points, decrement
        //    the counter; on zero, end + begin. Skipped when the context
        //    was just (re-)established at this pc — the instruction here
        //    belongs to the new transaction/GIL tenure.
        let fresh = std::mem::take(&mut self.tle[t].fresh);
        if !fresh && self.at_yield_point(t) && self.sched.other_live_threads(t) > 0 {
            // Schedule-exploration decision point (no-op unless a
            // controller is installed — see `machine_sim::explore`).
            if self.sched.explore_active() {
                if self.sched.explore_preempt(t).is_some() {
                    // Forced preemption: t executes nothing this step and
                    // re-decides at this same yield point when the pinned
                    // thread reaches its own next decision point.
                    return Ok(());
                }
                if self.tle[t].tx.is_some() && self.sched.explore_interrupt_kill() {
                    // Explored interrupt slot: kill the open transaction
                    // exactly like the §5.6 timer model would.
                    let reason = match self.vm.mem.poll_doomed(t) {
                        Some(r) => r,
                        None => self.vm.mem.abort_spurious(t, SpuriousCause::TimerInterrupt),
                    };
                    return self.on_tx_abort(t, reason);
                }
            }
            let counter_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::YIELD_COUNTER;
            let c = match self.vm.rd_untimed(t, counter_addr) {
                Ok(Word::Int(c)) => c,
                Ok(_) => 0,
                Err(reason) => {
                    // The counter read itself hit a doomed transaction
                    // (false sharing on unpadded thread structs!).
                    self.sched.advance(t, self.profile.cost.mem_ref);
                    return self.on_tx_abort(t, reason);
                }
            };
            self.sched.advance(t, 2 * self.profile.cost.mem_ref);
            if let Some(tx) = self.tle[t].tx.as_mut() {
                tx.work += 2 * self.profile.cost.mem_ref;
            } else {
                self.breakdown.gil_held += 2 * self.profile.cost.mem_ref;
            }
            if c <= 1 {
                // End here; begin at this pc.
                if !self.transaction_end_and_restart(t)? {
                    return Ok(()); // aborted at commit or parked
                }
            } else if let Err(reason) = self.vm.wr_untimed(t, counter_addr, Word::Int(c - 1)) {
                return self.on_tx_abort(t, reason);
            }
        }
        // 3. Execute the instruction.
        let (r, cost) = self.raw_step(t);
        if let Some(tx) = self.tle[t].tx.as_mut() {
            tx.work += cost;
            tx.insns += 1;
        } else {
            self.breakdown.gil_held += cost;
            self.committed_insns += 1;
            // A method defined under the GIL is externally visible now:
            // its version bump publishes with it.
            self.vm.publish_method_bumps();
        }
        // Marks from a step that aborted (`r` is `Err(Tx)`) land in the
        // still-open transaction's escrow here and are dropped with it in
        // `on_tx_abort` below.
        self.drain_marks(t);
        match r {
            Ok(ok) => {
                let finished = matches!(ok, StepOk::Finished);
                let was_block = matches!(ok, StepOk::Block(_));
                if finished || was_block {
                    // Commit any open transaction before leaving/parking.
                    if self.tle[t].tx.is_some() {
                        match self.commit_tx(t) {
                            Ok(()) => {}
                            Err(reason) => return self.on_tx_abort(t, reason),
                        }
                    }
                    if self.tle[t].holds_gil {
                        self.tle[t].holds_gil = false;
                        self.gil_release(t);
                    }
                }
                self.handle_outcome(t, ok)
            }
            Err(VmAbort::Err(e)) => Err(RunError::Vm(e.to_string())),
            Err(VmAbort::Tx(reason)) => self.on_tx_abort(t, reason),
        }
    }

    /// Commit `t`'s transaction, moving escrowed work to `tx_success`.
    fn commit_tx(&mut self, t: ThreadId) -> Result<(), AbortReason> {
        // Explored interrupt slot in the commit window: kill the
        // transaction right before TEND. The tx stays in `self.tle` so
        // the caller's `on_tx_abort` runs the normal rollback/retry path.
        if self.sched.explore_commit_kill() {
            let reason = match self.vm.mem.poll_doomed(t) {
                Some(r) => r,
                None => self.vm.mem.abort_spurious(t, SpuriousCause::TimerInterrupt),
            };
            return Err(reason);
        }
        let info = self.tle[t].tx.take().expect("commit without tx");
        self.sched.advance(t, self.profile.cost.tend);
        self.breakdown.tx_begin_end += self.profile.cost.tend;
        match self.vm.mem.commit(t) {
            Ok(()) => {
                self.breakdown.tx_success += info.work;
                self.committed_insns += info.insns;
                // Escrowed method-version bumps become visible with the
                // writes that earned them (exactly like marks and wakes).
                self.vm.publish_method_bumps();
                // Escrowed lifecycle marks become externally visible at
                // the commit, so they carry the commit-time clock.
                let now = self.sched.clock(t);
                for (kind, id) in info.marks {
                    self.latency.on_mark(kind, id, now);
                }
                // Escrowed wakes: the unlocks behind them just became
                // visible, so the waiters can be revived.
                if !info.wakes.is_empty() {
                    self.publish_wakes(t, info.wakes);
                }
                // A commit is forward progress: stand the watchdog down.
                self.tle[t].consecutive_aborts = 0;
                self.tle[t].backoff = self.cfg.watchdog.cooldown_base;
                Ok(())
            }
            Err(reason) => {
                // Already rolled back; restore registers and report.
                self.vm.restore(t, info.snapshot);
                self.vm.drop_method_bumps();
                self.breakdown.aborted += info.work;
                self.wasted_insns += info.insns;
                self.tle[t].resume_pc = Some(info.start_pc);
                Err(reason)
            }
        }
    }

    /// Paper Fig. 2 lines 11–13: end the current context and begin a new
    /// transaction at the current pc. Returns false if the thread parked
    /// or aborted (caller returns to the scheduler).
    fn transaction_end_and_restart(&mut self, t: ThreadId) -> Result<bool, RunError> {
        if self.tle[t].holds_gil {
            // GIL path of transaction_end (Fig. 2 line 2).
            self.tle[t].holds_gil = false;
            self.gil_release(t);
        } else if self.tle[t].tx.is_some() {
            if let Err(reason) = self.commit_tx(t) {
                self.on_tx_abort(t, reason)?;
                return Ok(false);
            }
        }
        self.transaction_begin(t)
    }

    /// Paper Fig. 1. Returns false when the thread parked (GIL busy).
    fn transaction_begin(&mut self, t: ThreadId) -> Result<bool, RunError> {
        // Line 2: single-thread fast path — just take the GIL.
        if self.sched.other_live_threads(t) == 0 {
            return Ok(self.gil_acquire_or_park(t));
        }
        // Watchdog cooldown: speculation has been failing persistently on
        // this thread — go straight to the GIL for the remaining tenures
        // instead of paying tbegin + abort_penalty per doomed attempt.
        if self.tle[t].cooldown > 0 {
            self.tle[t].cooldown -= 1;
            self.tle[t].retrying = false;
            return Ok(self.gil_acquire_or_park(t));
        }
        let pc = self.tle[t].resume_pc.take().unwrap_or_else(|| self.global_pc(t));
        // Fig. 1 lines 5 and 9-11: a *fresh* begin consults the length
        // table (counting the transaction for the site's profiling window)
        // and re-arms the retry budgets; a retry re-enters below both.
        let retry = std::mem::take(&mut self.tle[t].retrying);
        let len = if retry {
            self.tables.peek_length(pc)
        } else {
            self.tle[t].reset_retries(&self.cfg.tle);
            self.tables.set_transaction_length(pc)
        };
        let counter_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::YIELD_COUNTER;
        // Lines 6-8: wait for a held GIL before even trying (optimization).
        if self.gil.is_held() {
            self.breakdown.gil_wait += self.profile.cost.spin_bound;
            self.sched.advance(t, self.profile.cost.spin_bound);
            self.gil.push_waiter(t, GilWait::RetryTx);
            self.tle[t].resume_pc = Some(pc);
            // Keep the sequence identity across the park: a retry that
            // waits here must not have its budgets re-armed on wake.
            self.tle[t].retrying = retry;
            self.sched.park(t);
            return Ok(false);
        }
        // TBEGIN + surrounding bookkeeping.
        self.tables.record_attempt(pc);
        self.sched.advance(t, self.profile.cost.tbegin);
        self.breakdown.tx_begin_end += self.profile.cost.tbegin;
        let snapshot = self.vm.snapshot(t);
        if let Err(reason) = self.vm.mem.begin(t, self.budgets(t)) {
            // Predictor kill (EagerPredicted): take the abort path.
            self.sched.advance(t, self.profile.cost.abort_penalty);
            self.breakdown.aborted += self.profile.cost.abort_penalty;
            self.tle[t].resume_pc = Some(pc);
            self.abort_path(t, pc, reason)?;
            return Ok(self.tle[t].tx.is_some() || self.tle[t].holds_gil);
        }
        // Subscribe to the GIL (DESIGN.md §15). `Eager` is Fig. 1 lines
        // 14-15: read the lock word inside the transaction so it joins the
        // read set; TABORT if held (cannot happen here — we checked above
        // and nothing ran in between in discrete-event time — but keep the
        // faithful sequence). `LazyGuarded` arms the hardware lock monitor
        // instead: same access cost and abort branches, but the line
        // occupies no read-set capacity (the acquisition side dooms us via
        // `doom_all_active`). `Lazy` skips the subscription entirely —
        // that is the whole (unsafe) performance win: the commit-time
        // check reduces to the value sampled before TBEGIN (the hoisted
        // subscription load of arXiv 1407.6968), which lines 6-8 already
        // proved free, so nothing guards the transaction's window.
        // (A fresh transaction cannot be *doomed* yet, but fault injection
        // may spuriously abort it on this very first read.)
        if self.cfg.subscription != SubscriptionPolicy::Lazy {
            let gil_probe = if self.cfg.subscription == SubscriptionPolicy::Eager {
                self.vm.mem.read(t, self.vm.layout.gil)
            } else {
                self.vm.mem.arm_lock_monitor(t, self.vm.layout.gil)
            };
            let gil_word = match gil_probe {
                Ok(w) => w,
                Err(reason) => {
                    self.sched.advance(t, self.profile.cost.abort_penalty);
                    self.breakdown.aborted += self.profile.cost.abort_penalty;
                    self.tle[t].resume_pc = Some(pc);
                    self.abort_path(t, pc, reason)?;
                    return Ok(self.tle[t].tx.is_some() || self.tle[t].holds_gil);
                }
            };
            self.sched.advance(t, self.profile.cost.mem_ref);
            if gil_word == Word::Int(1) {
                let reason = self.vm.mem.tabort(t, abort_codes::GIL_LOCKED);
                self.tle[t].resume_pc = Some(pc);
                self.abort_path(t, pc, reason)?;
                return Ok(self.tle[t].tx.is_some() || self.tle[t].holds_gil);
            }
        }
        // §4.4 #1 ablation: write the running-thread global inside the
        // transaction — every thread, every transaction, same line.
        if !self.cfg.tls_running_thread {
            if let Err(reason) =
                self.vm.mem.write(t, self.vm.layout.running_thread, Word::Int(t as i64))
            {
                self.tle[t].resume_pc = Some(pc);
                self.abort_path(t, pc, reason)?;
                return Ok(self.tle[t].tx.is_some() || self.tle[t].holds_gil);
            }
            self.sched.advance(t, self.profile.cost.mem_ref);
        }
        // Install the yield-point counter (Fig. 3's yield_point_counter).
        if let Err(reason) = self.vm.wr_untimed(t, counter_addr, Word::Int(i64::from(len))) {
            self.tle[t].resume_pc = Some(pc);
            self.abort_path(t, pc, reason)?;
            return Ok(self.tle[t].tx.is_some() || self.tle[t].holds_gil);
        }
        self.tle[t].tx = Some(TxInfo {
            start_pc: pc,
            snapshot,
            work: 0,
            insns: 0,
            marks: Vec::new(),
            wakes: Vec::new(),
        });
        self.tle[t].fresh = true;
        Ok(true)
    }

    /// A transaction abort surfaced while stepping (the VM already rolled
    /// the memory back). Restore registers and run the Fig. 1 abort path.
    fn on_tx_abort(&mut self, t: ThreadId, reason: AbortReason) -> Result<(), RunError> {
        let Some(info) = self.tle[t].tx.take() else {
            return Err(RunError::Vm(format!("abort {reason:?} outside any transaction")));
        };
        // Marks, wakes, and method-version bumps from the aborted slice
        // vanish with it: the escrow in `info` is dropped, and anything
        // the aborting step pushed but never drained is discarded too.
        self.vm.pending_marks.clear();
        self.vm.pending_wakes.clear();
        self.vm.drop_method_bumps();
        self.vm.restore(t, info.snapshot);
        self.sched.advance(t, self.profile.cost.abort_penalty);
        self.breakdown.aborted += info.work + self.profile.cost.abort_penalty;
        self.wasted_insns += info.insns;
        self.tle[t].resume_pc = Some(info.start_pc);
        self.abort_path(t, info.start_pc, reason)
    }

    /// Paper Fig. 1 lines 16-37. May retry (arming `resume_pc`), park on
    /// the GIL, or acquire the GIL.
    fn abort_path(&mut self, t: ThreadId, pc: u32, reason: AbortReason) -> Result<(), RunError> {
        #[cfg(debug_assertions)]
        if std::env::var_os("HTMGIL_TRACE").is_some() {
            eprintln!(
                "[{}] t{t} abort pc={pc} {reason:?} tr={} gr={} gil={:?}",
                self.sched.clock(t),
                self.tle[t].transient_retries,
                self.tle[t].gil_retries,
                self.gil.holder
            );
        }
        self.record_conflict(reason);
        self.tables.record_abort(pc, reason);
        // Livelock watchdog: aborts accumulate across attempt sequences;
        // past the threshold the thread stops speculating for a cooldown
        // of GIL tenures (doubling per consecutive escalation).
        if self.cfg.watchdog.is_enabled() {
            self.tle[t].consecutive_aborts += 1;
            if self.tle[t].consecutive_aborts >= self.cfg.watchdog.escalation_threshold {
                let w = self.cfg.watchdog;
                self.watchdog_escalations += 1;
                self.tle[t].consecutive_aborts = 0;
                let backoff = self.tle[t].backoff.max(w.cooldown_base).max(1);
                self.tle[t].cooldown = backoff;
                self.tle[t].backoff = backoff.saturating_mul(2).min(w.cooldown_max.max(1));
                self.gil_acquire_or_park(t);
                return Ok(());
            }
        }
        // Lines 17-20: first abort of this transaction adjusts the length.
        if self.tle[t].first_retry {
            self.tle[t].first_retry = false;
            self.tables.adjust_transaction_length(pc);
        }
        // Lines 21-27: conflict at the GIL.
        let gil_locked = matches!(reason, AbortReason::Explicit(c) if c == abort_codes::GIL_LOCKED)
            || (reason.is_conflict() && self.gil.is_held());
        if gil_locked {
            self.tle[t].gil_retries = self.tle[t].gil_retries.saturating_sub(1);
            if self.tle[t].gil_retries > 0 {
                self.tle[t].retrying = true;
                // spin_and_gil_acquire: wait for release, then retry.
                if self.gil.is_held() {
                    self.breakdown.gil_wait += self.profile.cost.spin_bound;
                    self.sched.advance(t, self.profile.cost.spin_bound);
                    self.gil.push_waiter(t, GilWait::RetryTx);
                    self.sched.park(t);
                }
                return Ok(());
            }
            // Line 27: forcibly acquire.
            self.gil_acquire_or_park(t);
            return Ok(());
        }
        // Lines 28-29: persistent → GIL.
        if reason.is_persistent() {
            self.gil_acquire_or_park(t);
            return Ok(());
        }
        // Lines 31-35: transient retry.
        self.tle[t].transient_retries = self.tle[t].transient_retries.saturating_sub(1);
        if self.tle[t].transient_retries == 0 {
            self.gil_acquire_or_park(t);
        } else {
            self.tle[t].retrying = true;
        }
        // Otherwise: resume_pc is armed; the next scheduling of `t`
        // re-runs transaction_begin at the same yield point.
        Ok(())
    }

    /// `gil_acquire()` with parking. Returns true when the GIL was taken.
    fn gil_acquire_or_park(&mut self, t: ThreadId) -> bool {
        #[cfg(debug_assertions)]
        if std::env::var_os("HTMGIL_TRACE").is_some() {
            eprintln!(
                "[{}] t{t} gil_acquire_or_park held_by={:?}",
                self.sched.clock(t),
                self.gil.holder
            );
        }
        if self.gil.is_held() {
            self.tle[t].want_gil = true;
            self.gil.push_waiter(t, GilWait::Acquire);
            self.sched.park(t);
            return false;
        }
        self.tle[t].want_gil = false;
        self.sched.advance(t, self.profile.cost.gil_acquire);
        self.breakdown.gil_wait += self.profile.cost.gil_acquire;
        self.gil.acquire(&mut self.vm, t, self.cfg.tls_running_thread);
        if self.cfg.subscription == SubscriptionPolicy::LazyGuarded {
            // The lock monitor fires on the store to the lock word: every
            // in-flight transaction armed on the GIL line is doomed here,
            // exactly where Eager's read-set subscription would have caught
            // the same store (DESIGN.md §15).
            self.vm.mem.doom_all_active(t, self.vm.layout.gil);
        }
        self.tle[t].holds_gil = true;
        self.tle[t].reset_retries(&self.cfg.tle);
        // Fig. 3 note: the transaction length is consumed even under the
        // GIL — install the counter so the GIL is released at the same
        // yield point a transaction would have ended at.
        let pc = self.tle[t].resume_pc.take().unwrap_or_else(|| self.global_pc(t));
        let len = self.tables.set_transaction_length(pc);
        let counter_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::YIELD_COUNTER;
        self.vm
            .mem
            .write(t, counter_addr, Word::Int(i64::from(len)))
            .expect("counter write outside transaction");
        self.tle[t].fresh = true;
        true
    }
}

// When a thread holding the GIL parks (blocking builtin), `step_htm`
// releases it first; when it finishes, likewise — see the
// finished/was_block branch in `step_htm`.

#[cfg(test)]
mod tests {
    use super::*;

    fn run_mode(src: &str, mode: RuntimeMode, profile: MachineProfile) -> RunReport {
        let cfg = ExecConfig::new(mode, &profile);
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        ex.run().unwrap_or_else(|e| panic!("{e}"))
    }

    const COUNT_SRC: &str = "x = 0\ni = 1\nwhile i <= 500\n  x += i\n  i += 1\nend\nputs(x)";

    #[test]
    fn gil_mode_runs_single_thread() {
        let r = run_mode(COUNT_SRC, RuntimeMode::Gil, MachineProfile::generic(4));
        assert_eq!(r.stdout, "125250");
        assert!(r.committed_insns > 500);
        assert!(r.elapsed_cycles > 0);
        assert_eq!(r.htm.begins, 0, "no transactions in GIL mode");
    }

    #[test]
    fn htm_mode_single_thread_uses_gil_fast_path() {
        let r = run_mode(
            COUNT_SRC,
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "125250");
        // Fig. 1 line 2: with no other live thread, no transactions begin.
        assert_eq!(r.htm.begins, 0);
        assert!(r.gil_acquisitions >= 1);
    }

    #[test]
    fn all_modes_agree_on_output() {
        let src = r#"
results = Array.new(3, 0)
threads = []
3.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 200
      s += j * (tid + 1)
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results.join(","))
"#;
        let expected = "20100,40200,60300";
        for mode in [
            RuntimeMode::Gil,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(256) },
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
            RuntimeMode::FineGrained,
            RuntimeMode::Ideal,
        ] {
            let r = run_mode(src, mode, MachineProfile::generic(4));
            assert_eq!(r.stdout, expected, "mode {}", mode.label());
        }
    }

    #[test]
    fn htm_multithreaded_actually_uses_transactions() {
        let src = r#"
results = Array.new(2, 0)
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 300
      s += j
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results[0] + results[1])
"#;
        let r = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "90300");
        assert!(r.htm.begins > 10, "worker threads must run transactionally");
        assert!(r.htm.commits > 10);
        assert!(r.breakdown.tx_success > 0);
    }

    /// One thread repeatedly falls back on the GIL (`print` is restricted)
    /// while the other mutates a shared global transactionally, so GIL
    /// tenures overlap open transaction windows.
    const GIL_OVERLAP_SRC: &str = r#"
$sum = 0
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 40
      $sum = $sum + 1
      if tid == 0
        print("")
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts($sum)
"#;

    fn run_subscription(sub: SubscriptionPolicy) -> RunReport {
        run_subscription_on(sub, MachineProfile::generic(4))
    }

    fn run_subscription_on(sub: SubscriptionPolicy, profile: MachineProfile) -> RunReport {
        let mut cfg =
            ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Fixed(4) }, &profile);
        cfg.subscription = sub;
        let mut ex = Executor::new(GIL_OVERLAP_SRC, VmConfig::default(), profile, cfg).unwrap();
        ex.run().unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn lazy_guarded_dooms_transactions_overlapping_a_gil_acquisition() {
        let r = run_subscription(SubscriptionPolicy::LazyGuarded);
        // `print("")` leaves one open (empty) line ahead of the final puts.
        assert_eq!(r.stdout, "\n80");
        assert!(r.htm.begins > 0, "the non-printing thread must run transactionally");
        assert!(r.gil_acquisitions > 0, "the printing thread must take the GIL");
        assert!(
            r.htm.conflicts_read > 0,
            "a GIL acquisition overlapping an armed transaction must doom it \
             through the lock monitor (got stats {:?})",
            r.htm
        );
    }

    #[test]
    fn lazy_guarded_matches_eager_exactly_on_gil_overlap() {
        // The commit guard is modelled to be *observably identical* to the
        // eager read-set subscription: same victims, same abort reasons,
        // same cycle costs — the only difference is read-set capacity, so
        // run on a budget this footprint never exhausts (on overflow-prone
        // budgets the dying transaction gets exactly one extra access out
        // of the slot Eager spends on the subscription).
        let mut profile = MachineProfile::generic(4);
        profile.cache.read_set_bytes = 1 << 20;
        let eager = run_subscription_on(SubscriptionPolicy::Eager, profile.clone());
        let lg = run_subscription_on(SubscriptionPolicy::LazyGuarded, profile);
        assert_eq!(eager.stdout, lg.stdout);
        assert_eq!(eager.htm.overflow_read, 0, "parity workload must not overflow");
        assert_eq!(eager.htm, lg.htm, "hardware event stream must be identical");
        assert_eq!(eager.elapsed_cycles, lg.elapsed_cycles);
        assert_eq!(eager.gil_acquisitions, lg.gil_acquisitions);
    }

    #[test]
    fn lazy_skips_the_subscription_read() {
        // Lazy performs no in-transaction GIL access at all: strictly
        // fewer counted reads than Eager on the same program. (Whether its
        // output is *correct* depends on the schedule — the explore suite
        // pins a counterexample; the default round-robin here is not it.)
        let eager = run_subscription(SubscriptionPolicy::Eager);
        let lazy = run_subscription(SubscriptionPolicy::Lazy);
        assert!(lazy.htm.begins > 0);
        assert!(
            lazy.htm.reads < eager.htm.reads,
            "lazy must skip the per-transaction GIL-word read ({} vs {})",
            lazy.htm.reads,
            eager.htm.reads
        );
    }

    #[test]
    fn htm_scales_versus_gil_on_parallel_work() {
        // The core claim, in miniature: with 4 independent compute
        // threads, HTM elision beats the GIL.
        let src = r#"
results = Array.new(4, 0)
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 400
      s += j
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results.join(","))
"#;
        let gil = run_mode(src, RuntimeMode::Gil, MachineProfile::generic(4));
        let htm = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(gil.stdout, htm.stdout);
        let speedup = gil.elapsed_cycles as f64 / htm.elapsed_cycles as f64;
        assert!(
            speedup > 1.5,
            "HTM-16 must beat the GIL on embarrassingly parallel work; got {speedup:.2}×"
        );
    }

    #[test]
    fn mutex_workload_is_serializable_under_htm() {
        let src = r#"
m = Mutex.new()
count = 0
threads = []
3.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 30
      m.synchronize do
        count += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count)
"#;
        for mode in [
            RuntimeMode::Gil,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
        ] {
            let r = run_mode(src, mode, MachineProfile::generic(4));
            assert_eq!(r.stdout, "90", "mode {}", mode.label());
        }
    }

    #[test]
    fn dynamic_adjustment_reacts_to_aborts() {
        // Two threads hammering the same array line: conflicts force the
        // dynamic policy to shorten lengths somewhere.
        let src = r#"
shared = Array.new(4, 0)
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 1500
      shared[tid] = shared[tid] + 1
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(shared[0] + shared[1])
"#;
        let r = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "3000");
        assert!(r.length_adjustments > 0, "conflict-heavy run must shrink some lengths");
        assert!(r.htm.total_aborts() > 0);
    }

    #[test]
    fn conflicts_are_attributed_to_regions() {
        let src = r#"
shared = Array.new(2, 0)
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 800
      shared[tid] = shared[tid] + 1
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(shared[0] + shared[1])
"#;
        let r = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "1600");
        let total: u64 = r.conflict_sites.values().sum();
        assert!(total > 0, "conflicting run must attribute conflicts");
    }

    #[test]
    fn io_workload_overlaps_under_gil() {
        // GIL released during I/O: two I/O-bound threads overlap.
        let src = r#"
threads = []
2.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 5
      io_wait(1)
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts("done")
"#;
        let r = run_mode(src, RuntimeMode::Gil, MachineProfile::generic(4));
        assert_eq!(r.stdout, "done");
        // 10 sequential I/Os would cost 10×io_latency; overlap must beat
        // ~8×.
        let seq = 10 * MachineProfile::generic(4).cost.io_latency;
        assert!(
            r.elapsed_cycles < seq * 9 / 10,
            "I/O must overlap: {} vs sequential {}",
            r.elapsed_cycles,
            seq
        );
        assert!(r.breakdown.io_wait > 0);
    }

    #[test]
    fn trace_captures_transaction_lifecycle_with_ordered_cycles() {
        let src = r#"
counters = Array.new(4, 0)
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    j = 1
    while j <= 150
      counters[tid] = counters[tid] + j
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(counters.join(","))
"#;
        let profile = MachineProfile::generic(4);
        let mut cfg =
            ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Fixed(16) }, &profile);
        cfg.trace_capacity = 1 << 16;
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        let r = ex.run().unwrap();
        let events = ex.trace_events();
        assert!(!events.is_empty(), "HTM run with tracing must emit events");
        assert_eq!(r.trace_events_recorded, events.len() as u64 + r.trace_events_dropped);
        // Per thread: cycle stamps never go backwards, every Commit/Abort
        // follows an open Begin, and no Begin nests inside another.
        let mut last_cycle: HashMap<usize, u64> = HashMap::new();
        let mut open: HashMap<usize, bool> = HashMap::new();
        let (mut commits, mut aborts) = (0u64, 0u64);
        for e in &events {
            let t = e.thread();
            let prev = last_cycle.insert(t, e.cycle());
            assert!(prev.unwrap_or(0) <= e.cycle(), "cycle went backwards on thread {t}");
            let was_open = open.entry(t).or_insert(false);
            match e {
                htm_sim::TraceEvent::Begin { .. } => {
                    assert!(!*was_open, "nested Begin on thread {t}");
                    *was_open = true;
                }
                htm_sim::TraceEvent::Commit { read_lines, .. } => {
                    assert!(*was_open, "Commit without Begin on thread {t}");
                    assert!(*read_lines > 0, "committed tx must have a read set");
                    *was_open = false;
                    commits += 1;
                }
                htm_sim::TraceEvent::Abort { .. } => {
                    // Eager-predicted aborts fail at TBEGIN, before any
                    // Begin event — an abort may arrive with no open tx.
                    *was_open = false;
                    aborts += 1;
                }
            }
        }
        assert!(commits > 0, "expected committed transactions in the trace");
        // The trace totals must be consistent with the HTM statistics
        // (ring large enough that nothing was dropped here).
        assert_eq!(r.trace_events_dropped, 0);
        assert_eq!(commits, r.htm.commits);
        // Dooms of non-transactional threads emit no Abort event (there is
        // no transaction to abort), so the trace matches total_aborts
        // exactly.
        assert_eq!(aborts, r.htm.total_aborts());
    }

    #[test]
    fn tracing_off_keeps_report_counters_zero() {
        let r = run_mode(
            COUNT_SRC,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(r.trace_events_recorded, 0);
        assert_eq!(r.trace_events_dropped, 0);
    }
}

#[cfg(test)]
mod livelock_regressions {
    //! Regression tests for two livelocks found during bring-up:
    //! 1. a thread that committed to `gil_acquire()` lost that intent when
    //!    parked (the requester-wins conflict dance with a mutex owner
    //!    then ping-ponged forever) — fixed by `TleThread::want_gil`;
    //! 2. with length-1 transactions, a persistent abort's GIL fallback
    //!    re-ran the yield-point decision at the same pc, releasing the
    //!    GIL before executing the restricted instruction — fixed by
    //!    `TleThread::fresh`.

    use super::*;

    fn run_capped(src: &str, mode: RuntimeMode) -> RunReport {
        let profile = MachineProfile::generic(4);
        let mut cfg = ExecConfig::new(mode, &profile);
        cfg.max_cycles = 500_000_000;
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        ex.run().unwrap_or_else(|e| panic!("{} livelocked: {e}", mode.label()))
    }

    #[test]
    fn mutex_contention_does_not_livelock() {
        let src = r#"
m = Mutex.new()
count = 0
threads = []
3.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 30
      m.synchronize do
        count += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count)
"#;
        for mode in [
            RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(256) },
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
        ] {
            let r = run_capped(src, mode);
            assert_eq!(r.stdout, "90", "{}", mode.label());
        }
    }

    #[test]
    fn htm1_mutex_handoff_does_not_livelock() {
        // Minimal trigger found by the cross-stack proptest: under HTM-1
        // the unlocker's one-instruction commit window races the woken
        // waiter's lock-read, which dooms it (requester wins). Progress
        // relies on the retry budgets surviving the lines-6-8 GIL park —
        // losing the `retrying` flag there re-armed the budgets forever.
        let src = r#"
m = Mutex.new()
count = Array.new(1, 0)
threads = []
3.times do |t|
  threads << Thread.new(t) do |tid|
    j = 0
    while j < 3
      m.synchronize do
        count[0] = count[0] + 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count[0])
"#;
        let r = run_capped(src, RuntimeMode::Htm { length: LengthPolicy::Fixed(1) });
        assert_eq!(r.stdout, "9");
    }

    #[test]
    fn htm1_thread_spawn_does_not_livelock() {
        // Thread.new is a restricted op: under HTM-1 every spawn goes
        // through the persistent-abort → GIL path at a yield point.
        let src = r#"
results = Array.new(3, 0)
threads = []
3.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 200
      s += j * (tid + 1)
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results.join(","))
"#;
        let r = run_capped(src, RuntimeMode::Htm { length: LengthPolicy::Fixed(1) });
        assert_eq!(r.stdout, "20100,40200,60300");
    }
}
