//! Word-addressed transactional memory with undo-log rollback and a
//! **line-ownership directory** for O(1) conflict detection.
//!
//! All shared interpreter state (and, deliberately, the threads' private
//! stack areas — they occupy real cache lines and therefore real HTM
//! footprint) lives in one `Vec<W>`. Every access goes through
//! [`TxMemory::read`]/[`TxMemory::write`], which:
//!
//! 1. abort the caller first if a remote conflict already doomed it;
//! 2. record the touched cache line in the active transaction's read or
//!    write set and check the footprint budgets;
//! 3. doom every *other* active transaction whose set conflicts with the
//!    access (requester wins, the policy of both zEC12 and Haswell where
//!    the incoming coherence request kills the local transaction).
//!
//! Step 3 is where this module differs from the original implementation
//! (retained verbatim as [`crate::refimpl::ReferenceTxMemory`] and held
//! equivalent by the differential property test): instead of per-thread
//! hash sets scanned across all threads on every access, conflicts are
//! resolved through a flat per-line directory — for each cache line a
//! reader bitmask and a speculative-writer id, exactly the metadata a real
//! coherence directory keeps. One indexed load answers "who conflicts?";
//! doomed victims are read straight out of the bitmask in ascending thread
//! order, preserving the reference scan's victim ordering. The directory
//! invariant mirrors MESI: a line has either any number of transactional
//! readers and no writer, or exactly one writer (which may also be a
//! reader) — the requester-wins dooming enforces it on every access.
//!
//! Per-transaction state is a pair of line *lists* (each line appended
//! exactly once, when its directory bit first flips) whose lengths are the
//! footprint counters, plus the undo log. All per-thread buffers are
//! retained across transactions, so a steady-state begin → access* →
//! commit cycle performs **zero heap allocations**. A [`MEMO_WAYS`]-way
//! line memo per thread answers "is this line already in my read/write
//! set?" before anything else, the way per-line tag state does in real
//! HTM; see [`LineMemo`] for why a hit may skip the directory (and
//! `DESIGN.md` §13).
//!
//! A doomed transaction is rolled back *immediately* (its undo log is
//! replayed in reverse, its directory bits cleared) so the requester always
//! observes committed data, mirroring how real HTM buffers speculative
//! stores; the victim thread learns of the abort at its next access or at
//! an explicit [`TxMemory::poll_doomed`].

use machine_sim::ThreadId;

use crate::abort::{AbortReason, ExplicitCode, SpuriousCause};
use crate::inject::{Fault, FaultInjector, FaultPlan};
use crate::predictor::OverflowPredictor;
use crate::stats::HtmStats;
use crate::trace::{TraceEvent, TraceSink};

/// Footprint budgets for one transaction, in whole cache lines.
///
/// The TLE runtime computes these from the machine profile and halves them
/// when the thread's SMT sibling is busy (paper §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    pub read_lines: usize,
    pub write_lines: usize,
}

impl Budgets {
    /// Halve both budgets (SMT sibling active), keeping at least one line.
    pub fn halved(self) -> Budgets {
        Budgets {
            read_lines: (self.read_lines / 2).max(1),
            write_lines: (self.write_lines / 2).max(1),
        }
    }
}

/// The directory's reader bitmask is a `u32`; the widest simulated machine
/// (zEC12) has 12 hardware threads, so 32 leaves ample headroom.
pub const MAX_THREADS: usize = 32;

/// Sentinel in [`LineState::writer`]: no speculative writer.
const NO_WRITER: u8 = u8::MAX;

/// Panic with addr/line context on an out-of-bounds access. Kept out of
/// line so the bounds check in the hot path compiles to a compare and a
/// cold jump. Shared with [`crate::refimpl`] so both implementations fail
/// identically.
#[cold]
#[inline(never)]
pub(crate) fn out_of_bounds(op: &str, addr: usize, line: usize, size: usize) -> ! {
    panic!("TxMemory {op} out of bounds: addr {addr} (line {line}) >= memory size {size}");
}

/// Ownership record for one cache line: which transactions currently hold
/// it in their read set (bit per thread) and which single transaction, if
/// any, holds it in its write set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    readers: u32,
    writer: u8,
}

const EMPTY_LINE: LineState = LineState { readers: 0, writer: NO_WRITER };

/// Per-thread transaction slot. The buffers are retained (cleared, not
/// dropped) when a transaction ends, so repeated transactions on a thread
/// reuse their capacity and steady-state `begin` allocates nothing.
#[derive(Debug)]
struct TxSlot {
    active: bool,
    budgets: Budgets,
    /// Lines in the read set, in first-touch order; no duplicates (a line
    /// is appended exactly when its directory reader bit flips on).
    read_lines: Vec<usize>,
    /// Lines in the write set, in first-touch order; no duplicates.
    write_lines: Vec<usize>,
    /// Undo log in write order: each entry is one overwritten address
    /// pairing with one slot of the thread's undo arena. Log and arena
    /// grow in lockstep, so rollback replays the log backward while
    /// walking an arena cursor.
    undo: Vec<usize>,
}

impl TxSlot {
    fn new() -> Self {
        TxSlot {
            active: false,
            budgets: Budgets { read_lines: 0, write_lines: 0 },
            read_lines: Vec::new(),
            write_lines: Vec::new(),
            undo: Vec::new(),
        }
    }
}

/// Ways of the per-thread line memo, direct-mapped by `line % MEMO_WAYS`
/// (a power of two, so the modulo is a mask).
pub const MEMO_WAYS: usize = 16;

/// One way of a thread's line memo: a line the thread's transaction has
/// already put in its read and/or write set.
///
/// Invariant: an entry for thread `t` exists only while
///
/// - **`t`'s transaction is live** — entries are filled only when
///   `txs[t].active`, and cleared in `begin` and in `release_tx`, which
///   every commit, self-abort and doom goes through;
/// - **no doom is pending for `t`** — a doom rolls `t` back, and the
///   rollback clears the memo;
/// - **no drawing fault plan is installed** — entries are never filled
///   while `injector.is_some()`, and `set_fault_plan` clears every
///   thread's memo, so under injection every access still draws once, in
///   lockstep with the reference.
///
/// Requester-wins dooming then guarantees no remote transaction owns the
/// line in a conflicting mode, and the footprint cannot grow, so a hit
/// returns before the plain-path test, the doom delivery and the fault
/// draw with exactly the result the directory path would give. (The
/// test-only [`FaultPlan::dirty_read`] bug breaks requester-wins on
/// purpose, so under it a writer's memo hit skips dooming the readers
/// that read its line dirty.)
#[derive(Debug, Clone, Copy)]
struct LineMemo {
    line: usize,
    in_read: bool,
    in_write: bool,
}

impl LineMemo {
    /// A thread's memo with every way invalid.
    const EMPTY: [LineMemo; MEMO_WAYS] =
        [LineMemo { line: usize::MAX, in_read: false, in_write: false }; MEMO_WAYS];
}

/// Word-addressed shared memory with best-effort transactions.
#[derive(Debug)]
pub struct TxMemory<W: Clone> {
    words: Vec<W>,
    line_words: usize,
    /// `log2(line_words)` — `line_of` is a shift.
    line_shift: u32,
    /// One ownership record per cache line, indexed by line number.
    dir: Vec<LineState>,
    txs: Vec<TxSlot>,
    memos: Vec<[LineMemo; MEMO_WAYS]>,
    /// Undo payloads, one arena per thread (index-linked from
    /// `TxSlot::undo`).
    undo_words: Vec<Vec<W>>,
    doomed: Vec<Option<AbortReason>>,
    predictors: Vec<OverflowPredictor>,
    /// Number of `active` transaction slots; lets the common
    /// no-transactions case skip all conflict machinery.
    active_txs: usize,
    /// Number of `Some` entries in `doomed`. A doomed thread has no active
    /// transaction but must still receive its abort on the next access, so
    /// the fast path requires this to be zero too.
    pending_dooms: usize,
    stats: HtmStats,
    /// Structured event trace; `None` (the default) means tracing is off
    /// and event sites cost only this discriminant test.
    trace: Option<Box<dyn TraceSink>>,
    /// Seeded fault injector; `None` (the default) injects nothing. Draws
    /// are consumed only at transactional accesses, so a differential pair
    /// given injectors from the same plan stays in lockstep.
    injector: Option<FaultInjector>,
    /// Simulated cycle stamped onto trace events; advanced by the caller.
    now: u64,
    /// The installed plan's [`FaultPlan::dirty_read`] test-only bug.
    dirty_read: bool,
}

impl<W: Clone> TxMemory<W> {
    /// Create a memory of `size` words, all initialized to `init`, with
    /// cache lines of `line_words` words, supporting up to `max_threads`
    /// hardware threads.
    pub fn new(size: usize, line_words: usize, max_threads: usize, init: W) -> Self {
        assert!(line_words.is_power_of_two(), "line size must be 2^k words");
        assert!(
            max_threads <= MAX_THREADS,
            "ownership directory tracks at most {MAX_THREADS} threads"
        );
        TxMemory {
            words: vec![init; size],
            line_words,
            line_shift: line_words.trailing_zeros(),
            dir: vec![EMPTY_LINE; size.div_ceil(line_words)],
            txs: (0..max_threads).map(|_| TxSlot::new()).collect(),
            memos: vec![LineMemo::EMPTY; max_threads],
            undo_words: (0..max_threads).map(|_| Vec::new()).collect(),
            doomed: vec![None; max_threads],
            predictors: (0..max_threads).map(|_| OverflowPredictor::disabled()).collect(),
            active_txs: 0,
            pending_dooms: 0,
            stats: HtmStats::default(),
            trace: None,
            injector: None,
            now: 0,
            dirty_read: false,
        }
    }

    /// Install a fault-injection plan (or remove it with a no-op plan).
    /// Both memories of a differential pair must be given the same plan.
    /// Clears every thread's line memo: a memo hit skips the fault draw,
    /// so no entry may survive into a plan (see [`LineMemo`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.memos.fill(LineMemo::EMPTY);
        self.injector = plan.draws().then(|| FaultInjector::new(plan));
        self.dirty_read = plan.dirty_read;
    }

    /// Faults injected so far (zero without a plan).
    pub fn faults_injected(&self) -> u64 {
        self.injector.as_ref().map_or(0, FaultInjector::injected)
    }

    /// Install a trace sink; every subsequent begin/commit/abort emits a
    /// [`TraceEvent`] into it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Remove and return the installed trace sink, disabling tracing.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// True when a trace sink is installed.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Set the simulated cycle stamped onto trace events. The executor
    /// calls this as it charges cycle costs; with tracing off it is
    /// a single store.
    #[inline]
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(event);
        }
    }

    /// Install an overflow predictor for thread `t` (Intel profile).
    pub fn set_predictor(&mut self, t: ThreadId, p: OverflowPredictor) {
        self.predictors[t] = p;
    }

    /// Total words.
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Words per cache line.
    pub fn line_words(&self) -> usize {
        self.line_words
    }

    /// Grow the memory by `extra` words initialized to `init` (heap
    /// growth). Only legal while no transaction is active — in the full
    /// system growth happens under the GIL after every transaction was
    /// doomed by the GIL-word write.
    pub fn grow(&mut self, extra: usize, init: W) {
        assert!(self.active_txs == 0, "memory growth with active transactions");
        let new = self.words.len() + extra;
        self.words.resize(new, init);
        self.dir.resize(new.div_ceil(self.line_words), EMPTY_LINE);
    }

    /// Immutable view of the aggregate statistics.
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// Cache line of an address.
    #[inline]
    pub fn line_of(&self, addr: usize) -> usize {
        addr >> self.line_shift
    }

    /// True when thread `t` has an active transaction.
    pub fn in_tx(&self, t: ThreadId) -> bool {
        self.txs[t].active
    }

    /// Number of currently active transactions.
    pub fn active_tx_count(&self) -> usize {
        self.active_txs
    }

    /// (read lines, write lines) of `t`'s active transaction.
    pub fn footprint(&self, t: ThreadId) -> (usize, usize) {
        let tx = &self.txs[t];
        if tx.active {
            (tx.read_lines.len(), tx.write_lines.len())
        } else {
            (0, 0)
        }
    }

    /// Begin a transaction for thread `t` with the given budgets
    /// (`TBEGIN`/`XBEGIN`). Fails immediately when the learning predictor
    /// kills it ([`AbortReason::EagerPredicted`]).
    pub fn begin(&mut self, t: ThreadId, budgets: Budgets) -> Result<(), AbortReason> {
        assert!(!self.txs[t].active, "nested transaction on thread {t}");
        let _ = self.take_doom(t);
        if self.predictors[t].should_abort_eagerly() {
            let reason = AbortReason::EagerPredicted;
            self.stats.begins += 1;
            self.stats.record_abort(reason);
            let cycle = self.now;
            self.emit(TraceEvent::Abort { thread: t, cycle, reason, line: None });
            return Err(reason);
        }
        self.stats.begins += 1;
        self.undo_words[t].clear();
        let tx = &mut self.txs[t];
        debug_assert!(
            tx.read_lines.is_empty() && tx.write_lines.is_empty() && tx.undo.is_empty(),
            "transaction buffers not cleared at release"
        );
        tx.active = true;
        tx.budgets = budgets;
        self.memos[t] = LineMemo::EMPTY;
        self.active_txs += 1;
        let cycle = self.now;
        self.emit(TraceEvent::Begin { thread: t, cycle });
        Ok(())
    }

    /// Commit thread `t`'s transaction (`TEND`/`XEND`). Fails if a remote
    /// conflict doomed it first (the transaction is already rolled back).
    pub fn commit(&mut self, t: ThreadId) -> Result<(), AbortReason> {
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        assert!(self.txs[t].active, "commit without transaction");
        let read_lines = self.txs[t].read_lines.len();
        let write_lines = self.txs[t].write_lines.len();
        self.release_tx(t);
        self.stats.commits += 1;
        self.predictors[t].on_commit();
        let cycle = self.now;
        self.emit(TraceEvent::Commit { thread: t, cycle, read_lines, write_lines });
        Ok(())
    }

    /// Explicit software abort of `t`'s own transaction
    /// (`TABORT`/`XABORT code`). Rolls back and reports the reason.
    pub fn tabort(&mut self, t: ThreadId, code: ExplicitCode) -> AbortReason {
        let reason = AbortReason::Explicit(code);
        self.abort_self(t, reason, None);
        reason
    }

    /// Abort `t`'s transaction because it attempted an operation that is
    /// illegal inside transactions (system call, blocking I/O, GC).
    pub fn abort_restricted(&mut self, t: ThreadId) -> AbortReason {
        let reason = AbortReason::Restricted;
        self.abort_self(t, reason, None);
        reason
    }

    /// Abort `t`'s transaction for an environmental cause the transaction
    /// did not earn — the interrupt-timer model and the fault injector use
    /// this. Transient: the TLE runtime retries it like a conflict.
    pub fn abort_spurious(&mut self, t: ThreadId, cause: SpuriousCause) -> AbortReason {
        let reason = AbortReason::Spurious { cause };
        self.abort_self(t, reason, None);
        reason
    }

    /// Check whether a remote conflict doomed `t`'s transaction. The
    /// transaction memory effects are already rolled back; this consumes
    /// the pending abort reason.
    pub fn poll_doomed(&mut self, t: ThreadId) -> Option<AbortReason> {
        self.take_doom(t)
    }

    /// Transactional or plain read of one word by thread `t`.
    ///
    /// Outside a transaction the read is immediate but still dooms remote
    /// transactions that speculatively *wrote* the line (a real coherence
    /// read request would abort them).
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when `addr` is out of bounds — a
    /// decoded operand pointing outside memory is a VM bug, and the panic
    /// message carries the address and cache line rather than surfacing as
    /// a bare slice index failure.
    #[inline]
    pub fn read(&mut self, t: ThreadId, addr: usize) -> Result<W, AbortReason> {
        self.read_with(t, addr, W::clone)
    }

    /// [`Self::read`] that applies `f` to the word in place instead of
    /// cloning it out — the full accounting path, one counted access. Lets
    /// callers probe a word (e.g. "is it an immediate integer?") without
    /// paying the clone of heap-carrying variants.
    ///
    /// # Panics
    ///
    /// As [`Self::read`]: out-of-bounds `addr` panics with context.
    #[inline]
    pub fn read_with<R>(
        &mut self,
        t: ThreadId,
        addr: usize,
        f: impl FnOnce(&W) -> R,
    ) -> Result<R, AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("read", addr, addr >> self.line_shift, self.words.len());
        }
        self.stats.reads += 1;
        let line = addr >> self.line_shift;
        let memo = self.memos[t][line % MEMO_WAYS];
        if memo.line == line && memo.in_read {
            // Line already in our read set ⇒ no remote writer can exist
            // (its write would have doomed us), and the footprint cannot
            // grow — skip the directory entirely.
            return Ok(f(&self.words[addr]));
        }
        if self.active_txs == 0 && self.pending_dooms == 0 {
            // Non-transactional fast path: nothing to doom, nothing doomed.
            return Ok(f(&self.words[addr]));
        }
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        // Requester wins: kill a remote writer of this line. (A dirty-read
        // fault plan skips exactly this doom, letting the read observe the
        // writer's speculative in-place state.)
        let st = self.dir[line];
        if st.writer != NO_WRITER && st.writer as usize != t && !self.dirty_read {
            let in_tx = self.txs[t].active;
            self.doom(st.writer as usize, AbortReason::ConflictWrite { with: t, line }, line);
            if !in_tx {
                self.stats.nontx_dooms += 1;
            }
        }
        if self.txs[t].active {
            let bit = 1u32 << t;
            if self.dir[line].readers & bit == 0 {
                self.dir[line].readers |= bit;
                self.txs[t].read_lines.push(line);
                if self.txs[t].read_lines.len() > self.txs[t].budgets.read_lines {
                    let reason = AbortReason::ReadOverflow;
                    self.abort_self(t, reason, Some(line));
                    self.predictors[t].on_overflow();
                    return Err(reason);
                }
            }
            if self.injector.is_none() {
                self.memos[t][line % MEMO_WAYS] =
                    LineMemo { line, in_read: true, in_write: self.dir[line].writer as usize == t };
            }
        }
        Ok(f(&self.words[addr]))
    }

    /// Transactional or plain write of one word by thread `t`.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when `addr` is out of bounds, with
    /// addr/line context — see [`Self::read`].
    #[inline]
    pub fn write(&mut self, t: ThreadId, addr: usize, value: W) -> Result<(), AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("write", addr, addr >> self.line_shift, self.words.len());
        }
        self.stats.writes += 1;
        let line = addr >> self.line_shift;
        let memo = self.memos[t][line % MEMO_WAYS];
        if memo.line == line && memo.in_write {
            // Line already in our write set ⇒ we are the sole owner; only
            // the undo log needs to grow.
            self.log_undo(t, addr);
            self.words[addr] = value;
            return Ok(());
        }
        if self.active_txs == 0 && self.pending_dooms == 0 {
            // Non-transactional fast path: nothing to doom, nothing doomed.
            self.words[addr] = value;
            return Ok(());
        }
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        // Kill remote readers *and* the remote writer of this line, in
        // ascending thread order like the reference scan.
        let st = self.dir[line];
        let own = 1u32 << t;
        let mut victims = st.readers;
        if st.writer != NO_WRITER {
            victims |= 1u32 << st.writer;
        }
        victims &= !own;
        if victims != 0 {
            let in_tx = self.txs[t].active;
            while victims != 0 {
                let v = victims.trailing_zeros() as usize;
                victims &= victims - 1;
                let reason = if st.writer as usize == v {
                    AbortReason::ConflictWrite { with: t, line }
                } else {
                    AbortReason::ConflictRead { with: t, line }
                };
                self.doom(v, reason, line);
            }
            if !in_tx {
                self.stats.nontx_dooms += 1;
            }
        }
        if self.txs[t].active {
            self.log_undo(t, addr);
            if self.dir[line].writer as usize != t {
                self.dir[line].writer = t as u8;
                self.txs[t].write_lines.push(line);
                if self.txs[t].write_lines.len() > self.txs[t].budgets.write_lines {
                    let reason = AbortReason::WriteOverflow;
                    self.abort_self(t, reason, Some(line));
                    self.predictors[t].on_overflow();
                    return Err(reason);
                }
            }
            if self.injector.is_none() {
                self.memos[t][line % MEMO_WAYS] =
                    LineMemo { line, in_read: self.dir[line].readers & own != 0, in_write: true };
            }
        }
        self.words[addr] = value;
        Ok(())
    }

    /// Arm thread `t`'s hardware lock monitor on the line containing
    /// `addr` — the begin-time half of the `LazyGuarded` commit guard
    /// (DESIGN.md §15). Behaves exactly like [`Self::read`] — one counted
    /// access, doom/fault checks, requester-wins doom of a remote
    /// speculative writer, the current word returned — **except** the line
    /// is *not* inserted into `t`'s read set: the monitor is a dedicated
    /// register, so it consumes no read-set capacity. The acquisition-side
    /// half is [`Self::doom_all_active`].
    ///
    /// # Panics
    ///
    /// As [`Self::read`]: out-of-bounds `addr` panics with context.
    pub fn arm_lock_monitor(&mut self, t: ThreadId, addr: usize) -> Result<W, AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("arm_lock_monitor", addr, addr >> self.line_shift, self.words.len());
        }
        self.stats.reads += 1;
        if self.active_txs == 0 && self.pending_dooms == 0 {
            return Ok(self.words[addr].clone());
        }
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        let line = addr >> self.line_shift;
        let st = self.dir[line];
        if st.writer != NO_WRITER && st.writer as usize != t {
            let in_tx = self.txs[t].active;
            self.doom(st.writer as usize, AbortReason::ConflictWrite { with: t, line }, line);
            if !in_tx {
                self.stats.nontx_dooms += 1;
            }
        }
        Ok(self.words[addr].clone())
    }

    /// The acquisition-side half of the `LazyGuarded` commit guard: a
    /// non-transactional lock acquirer `t` announcing its write to the
    /// monitored `addr` dooms **every** other active transaction, in
    /// ascending thread order — exactly the victim set, reasons, and
    /// timing an eagerly-subscribed population would lose to the
    /// acquirer's lock-word write (under eager subscription every active
    /// transaction holds that line in its read set).
    pub fn doom_all_active(&mut self, t: ThreadId, addr: usize) {
        if self.active_txs == 0 {
            return;
        }
        let line = addr >> self.line_shift;
        let in_tx = self.txs[t].active;
        let mut doomed_any = false;
        for victim in 0..self.txs.len() {
            if victim != t && self.txs[victim].active {
                self.doom(victim, AbortReason::ConflictRead { with: t, line }, line);
                doomed_any = true;
            }
        }
        if doomed_any && !in_tx {
            self.stats.nontx_dooms += 1;
        }
    }

    /// Read bypassing all transaction machinery — *debug/verification
    /// only* (used by tests and by the GC root scanner, which runs with
    /// every transaction already doomed by the GIL-word write).
    pub fn peek(&self, addr: usize) -> &W {
        &self.words[addr]
    }

    /// Write bypassing transaction machinery — initialization only.
    pub fn poke(&mut self, addr: usize, value: W) {
        debug_assert!(self.active_txs == 0, "poke with active transactions");
        self.words[addr] = value;
    }

    // ---- internals ------------------------------------------------------

    /// Undo-log the word at `addr` before `t`'s transactional store to it,
    /// unless the log's newest entry already is `addr`: rollback replays
    /// backward, so that older record restores the older value and an
    /// intermediate one needs no entry.
    #[inline]
    fn log_undo(&mut self, t: ThreadId, addr: usize) {
        if self.txs[t].undo.last() != Some(&addr) {
            self.undo_words[t].push(self.words[addr].clone());
            self.txs[t].undo.push(addr);
        }
    }

    /// Consult the fault injector for one transactional access by `t`.
    /// Draws happen only while `t` has a live transaction, one per access
    /// (a plan keeps the memo empty, so no access skips its draw), so two
    /// memories driven with the same operation sequence consume identical
    /// randomness. Returns the
    /// abort reason when the fault killed the transaction.
    fn inject_fault(&mut self, t: ThreadId) -> Option<AbortReason> {
        // Ordered so the no-plan common case is a single null test.
        self.injector.as_ref()?;
        if !self.txs[t].active {
            return None;
        }
        match self.injector.as_mut()?.decide()? {
            Fault::Spurious(cause) => {
                let reason = AbortReason::Spurious { cause };
                self.abort_self(t, reason, None);
                Some(reason)
            }
            Fault::ForceRestricted => {
                let reason = AbortReason::Restricted;
                self.abort_self(t, reason, None);
                Some(reason)
            }
            Fault::ShrinkBudgets => {
                // The interrupt handler's cache footprint evicted half the
                // speculative capacity; an already-larger footprint bursts
                // immediately (read set checked first, like the reference).
                let tx = &mut self.txs[t];
                tx.budgets = tx.budgets.halved();
                let reason = if tx.read_lines.len() > tx.budgets.read_lines {
                    AbortReason::ReadOverflow
                } else if tx.write_lines.len() > tx.budgets.write_lines {
                    AbortReason::WriteOverflow
                } else {
                    return None;
                };
                self.abort_self(t, reason, None);
                self.predictors[t].on_overflow();
                Some(reason)
            }
        }
    }

    #[inline]
    fn take_doom(&mut self, t: ThreadId) -> Option<AbortReason> {
        // The counter is one hot word; with no doom pending anywhere the
        // per-access check costs a load instead of an `Option::take`
        // load + store on the (much colder) doomed array.
        if self.pending_dooms == 0 {
            return None;
        }
        let reason = self.doomed[t].take();
        if reason.is_some() {
            self.pending_dooms -= 1;
        }
        reason
    }

    /// Doom `victim`'s active transaction on behalf of an access to
    /// `line`: roll it back eagerly and park the abort reason for the
    /// victim's next access or poll.
    fn doom(&mut self, victim: ThreadId, reason: AbortReason, line: usize) {
        self.rollback(victim);
        debug_assert!(self.doomed[victim].is_none(), "victim already doomed");
        self.doomed[victim] = Some(reason);
        self.pending_dooms += 1;
        self.stats.record_abort(reason);
        let cycle = self.now;
        self.emit(TraceEvent::Abort { thread: victim, cycle, reason, line: Some(line) });
    }

    /// Roll back and discard `t`'s transaction, recording `reason`.
    /// `line` is the faulting cache line where the abort has one
    /// (footprint overflows pass the line that burst the budget).
    fn abort_self(&mut self, t: ThreadId, reason: AbortReason, line: Option<usize>) {
        self.rollback(t);
        let _ = self.take_doom(t);
        self.stats.record_abort(reason);
        let cycle = self.now;
        self.emit(TraceEvent::Abort { thread: t, cycle, reason, line });
    }

    /// Replay `t`'s undo log in reverse and drop the transaction. The log
    /// is walked backward with an arena cursor; the earliest record for an
    /// address replays last, so duplicates restore correctly.
    fn rollback(&mut self, t: ThreadId) {
        if !self.txs[t].active {
            return;
        }
        let undo = std::mem::take(&mut self.txs[t].undo);
        let arena = std::mem::take(&mut self.undo_words[t]);
        let mut cursor = arena.len();
        for &entry in undo.iter().rev() {
            cursor -= 1;
            self.words[entry] = arena[cursor].clone();
        }
        debug_assert_eq!(cursor, 0, "undo log and arena out of sync");
        self.txs[t].undo = undo;
        self.undo_words[t] = arena;
        self.release_tx(t);
    }

    /// Deactivate `t`'s transaction: clear its directory ownership and
    /// reset its buffers *keeping their capacity* for the next begin.
    fn release_tx(&mut self, t: ThreadId) {
        debug_assert!(self.txs[t].active, "release without transaction");
        self.txs[t].active = false;
        let keep = !(1u32 << t);
        let mut read_lines = std::mem::take(&mut self.txs[t].read_lines);
        for &line in &read_lines {
            self.dir[line].readers &= keep;
        }
        read_lines.clear();
        self.txs[t].read_lines = read_lines;
        let mut write_lines = std::mem::take(&mut self.txs[t].write_lines);
        for &line in &write_lines {
            debug_assert_eq!(self.dir[line].writer as usize, t, "foreign writer in write set");
            self.dir[line].writer = NO_WRITER;
        }
        write_lines.clear();
        self.txs[t].write_lines = write_lines;
        self.txs[t].undo.clear();
        self.undo_words[t].clear();
        self.memos[t] = LineMemo::EMPTY;
        self.active_txs -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::abort_codes;

    fn mem() -> TxMemory<u64> {
        // 1024 words, 8-word (64-byte) lines, 4 threads.
        TxMemory::new(1024, 8, 4, 0)
    }

    fn big_budgets() -> Budgets {
        Budgets { read_lines: 1 << 20, write_lines: 1 << 20 }
    }

    #[test]
    fn plain_read_write_roundtrip() {
        let mut m = mem();
        m.write(0, 17, 99).unwrap();
        assert_eq!(m.read(0, 17).unwrap(), 99);
        assert_eq!(m.read(1, 17).unwrap(), 99);
    }

    #[test]
    fn commit_makes_writes_durable() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 5, 1).unwrap();
        m.write(0, 6, 2).unwrap();
        m.commit(0).unwrap();
        assert_eq!(m.read(1, 5).unwrap(), 1);
        assert_eq!(m.read(1, 6).unwrap(), 2);
        assert_eq!(m.stats().commits, 1);
    }

    #[test]
    fn tabort_rolls_back() {
        let mut m = mem();
        m.write(0, 5, 42).unwrap();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 5, 1).unwrap();
        m.write(0, 5, 2).unwrap();
        let r = m.tabort(0, abort_codes::GIL_LOCKED);
        assert_eq!(r, AbortReason::Explicit(abort_codes::GIL_LOCKED));
        assert!(!m.in_tx(0));
        assert_eq!(m.read(1, 5).unwrap(), 42, "original value restored");
    }

    /// FORTH-style constrained budgets (the `MachineProfile::constrained`
    /// geometry): exactly `read_lines` distinct lines must fit, one more
    /// must burst with `ReadOverflow`.
    #[test]
    fn read_capacity_exact_fit_and_one_over() {
        let budgets = Budgets { read_lines: 8, write_lines: 4 };
        let mut m = mem();
        m.begin(0, budgets).unwrap();
        for line in 0..8 {
            m.read(0, line * 8).unwrap();
        }
        assert_eq!(m.footprint(0), (8, 0), "exactly at the bound: no abort");
        assert_eq!(m.read(0, 8 * 8), Err(AbortReason::ReadOverflow), "one over bursts");
        assert!(!m.in_tx(0), "overflow aborts the transaction");
        assert_eq!(m.stats().overflow_read, 1);
    }

    /// Same at the (smaller) write-set bound: `write_lines` distinct lines
    /// fit, the next one aborts with `WriteOverflow`.
    #[test]
    fn write_capacity_exact_fit_and_one_over() {
        let budgets = Budgets { read_lines: 8, write_lines: 4 };
        let mut m = mem();
        m.begin(0, budgets).unwrap();
        for line in 0..4 {
            m.write(0, line * 8, 1).unwrap();
        }
        assert_eq!(m.footprint(0), (0, 4), "exactly at the bound: no abort");
        assert_eq!(m.write(0, 4 * 8, 1), Err(AbortReason::WriteOverflow), "one over bursts");
        assert!(!m.in_tx(0), "overflow aborts the transaction");
        assert_eq!(m.stats().overflow_write, 1);
        // The speculative writes rolled back with the abort.
        for line in 0..5 {
            assert_eq!(m.read(1, line * 8).unwrap(), 0);
        }
    }

    /// The LazyGuarded lock monitor reads the word with full accounting
    /// but occupies no read-set capacity — a transaction already at its
    /// read bound can still arm it.
    #[test]
    fn lock_monitor_consumes_no_read_capacity() {
        let mut m = mem();
        m.write(0, 800, 1).unwrap(); // "GIL" word, line 100
        m.begin(0, Budgets { read_lines: 1, write_lines: 1 }).unwrap();
        m.read(0, 0).unwrap(); // read set now full
        let reads_before = m.stats().reads;
        assert_eq!(m.arm_lock_monitor(0, 800).unwrap(), 1, "monitor returns the word");
        assert_eq!(m.footprint(0), (1, 0), "no read-set growth");
        assert_eq!(m.stats().reads, reads_before + 1, "still one counted access");
        m.commit(0).unwrap();
    }

    /// Arming the monitor is still a coherence read: it dooms a remote
    /// speculative writer of the monitored line (requester wins).
    #[test]
    fn lock_monitor_dooms_remote_speculative_writer() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 800, 7).unwrap();
        m.begin(1, big_budgets()).unwrap();
        assert_eq!(m.arm_lock_monitor(1, 800).unwrap(), 0, "committed value, not speculative");
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictWrite { with: 1, .. })));
        m.commit(1).unwrap();
    }

    /// The acquisition half of the guard: a non-transactional acquirer
    /// dooms every active transaction, ascending thread order, with the
    /// same `ConflictRead` an eager subscription population would see.
    #[test]
    fn doom_all_active_kills_every_transaction_in_order() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        m.write(0, 5, 9).unwrap();
        let nontx_before = m.stats().nontx_dooms;
        m.doom_all_active(2, 800);
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictRead { with: 2, line: 100 })));
        assert!(matches!(m.poll_doomed(1), Some(AbortReason::ConflictRead { with: 2, line: 100 })));
        assert_eq!(m.active_tx_count(), 0);
        assert_eq!(m.read(2, 5).unwrap(), 0, "speculative write rolled back");
        assert_eq!(m.stats().nontx_dooms, nontx_before + 1, "one doomer access, one count");
        // Idempotent on an empty population.
        m.doom_all_active(2, 800);
        assert_eq!(m.stats().nontx_dooms, nontx_before + 1);
    }

    #[test]
    fn write_write_conflict_dooms_victim() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        m.write(0, 100, 7).unwrap();
        // Thread 1 writes the same line: requester (1) wins, 0 is doomed.
        m.write(1, 101, 8).unwrap();
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictWrite { with: 1, .. })));
        assert!(!m.in_tx(0), "victim rolled back eagerly");
        // Thread 0's speculative write is gone; thread 1's is visible to 1.
        assert_eq!(m.read(1, 100).unwrap(), 0);
        assert_eq!(m.read(1, 101).unwrap(), 8);
        m.commit(1).unwrap();
    }

    #[test]
    fn read_write_conflict_dooms_reader_on_remote_write() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 200).unwrap();
        m.begin(1, big_budgets()).unwrap();
        m.write(1, 200, 5).unwrap(); // write hits 0's read set
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictRead { with: 1, .. })));
        m.commit(1).unwrap();
        assert_eq!(m.read(2, 200).unwrap(), 5);
    }

    #[test]
    fn read_read_sharing_is_fine() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        let _ = m.read(0, 300).unwrap();
        let _ = m.read(1, 300).unwrap();
        m.commit(0).unwrap();
        m.commit(1).unwrap();
        assert_eq!(m.stats().total_aborts(), 0);
    }

    #[test]
    fn nontx_write_dooms_transactions_gil_subscription() {
        // This is exactly how the GIL fallback stays safe: every
        // transaction reads the GIL word at begin; the GIL holder's
        // non-transactional write dooms them all.
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        let gil_addr = 0;
        let _ = m.read(0, gil_addr).unwrap();
        let _ = m.read(1, gil_addr).unwrap();
        m.write(2, gil_addr, 1).unwrap(); // thread 2 acquires the "GIL"
        assert!(m.poll_doomed(0).is_some());
        assert!(m.poll_doomed(1).is_some());
        assert_eq!(m.stats().nontx_dooms, 1);
    }

    #[test]
    fn write_overflow_is_persistent_and_rolls_back() {
        let mut m = mem();
        m.write(0, 0, 111).unwrap();
        m.begin(0, Budgets { read_lines: 100, write_lines: 2 }).unwrap();
        m.write(0, 0, 1).unwrap(); // line 0
        m.write(0, 8, 2).unwrap(); // line 1
        let err = m.write(0, 16, 3).unwrap_err(); // line 2 > budget
        assert_eq!(err, AbortReason::WriteOverflow);
        assert!(err.is_persistent());
        assert!(!m.in_tx(0));
        assert_eq!(*m.peek(0), 111, "undo restored first line");
        assert_eq!(*m.peek(8), 0);
        assert_eq!(*m.peek(16), 0, "overflowing write never applied");
    }

    #[test]
    fn read_overflow_aborts() {
        let mut m = mem();
        m.begin(0, Budgets { read_lines: 2, write_lines: 100 }).unwrap();
        let _ = m.read(0, 0).unwrap();
        let _ = m.read(0, 8).unwrap();
        let err = m.read(0, 16).unwrap_err();
        assert_eq!(err, AbortReason::ReadOverflow);
    }

    #[test]
    fn same_line_accesses_do_not_grow_footprint() {
        let mut m = mem();
        m.begin(0, Budgets { read_lines: 1, write_lines: 1 }).unwrap();
        for i in 0..8 {
            let _ = m.read(0, i).unwrap();
            m.write(0, i, i as u64).unwrap();
        }
        assert_eq!(m.footprint(0), (1, 1));
        m.commit(0).unwrap();
    }

    #[test]
    fn doomed_transaction_errors_on_next_access() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 50, 1).unwrap();
        m.write(1, 50, 2).unwrap(); // dooms 0
        let err = m.read(0, 60).unwrap_err();
        assert!(err.is_conflict());
        // After consuming the abort, thread 0 operates plainly again.
        assert_eq!(m.read(0, 50).unwrap(), 2);
    }

    #[test]
    fn commit_of_doomed_transaction_fails() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 50, 1).unwrap();
        m.write(1, 50, 2).unwrap();
        assert!(m.commit(0).is_err());
        assert_eq!(m.stats().commits, 0);
    }

    #[test]
    fn undo_restores_multi_write_history_in_order() {
        let mut m = mem();
        m.write(0, 9, 10).unwrap();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 9, 11).unwrap();
        m.write(0, 9, 12).unwrap();
        m.write(0, 9, 13).unwrap();
        m.tabort(0, 1);
        assert_eq!(*m.peek(9), 10);
    }

    #[test]
    fn grow_extends_memory() {
        let mut m = mem();
        let old = m.size();
        m.grow(512, 0);
        assert_eq!(m.size(), old + 512);
        m.write(0, old + 511, 5).unwrap();
        assert_eq!(m.read(0, old + 511).unwrap(), 5);
    }

    #[test]
    fn budgets_halve_with_floor() {
        let b = Budgets { read_lines: 9, write_lines: 1 };
        let h = b.halved();
        assert_eq!(h.read_lines, 4);
        assert_eq!(h.write_lines, 1);
    }

    #[test]
    fn eager_predictor_aborts_at_begin() {
        let mut m = mem();
        let mut p = OverflowPredictor::intel(10, 1);
        for _ in 0..100 {
            p.on_overflow();
        }
        m.set_predictor(0, p);
        // With confidence saturated the very first begin must be killed.
        let err = m.begin(0, big_budgets()).unwrap_err();
        assert_eq!(err, AbortReason::EagerPredicted);
        assert!(!m.in_tx(0));
        assert_eq!(m.stats().eager_predicted, 1);
    }

    #[test]
    fn trace_records_lifecycle_in_order() {
        use crate::trace::RingBufferSink;
        use std::sync::Arc;

        let mut m = mem();
        let shared = RingBufferSink::shared(64);
        m.set_trace_sink(Box::new(Arc::clone(&shared)));

        m.set_now(10);
        m.begin(0, big_budgets()).unwrap();
        m.set_now(20);
        m.write(0, 5, 1).unwrap();
        m.commit(0).unwrap();

        m.set_now(30);
        m.begin(1, big_budgets()).unwrap();
        m.write(1, 5, 2).unwrap();
        m.set_now(40);
        m.write(2, 5, 3).unwrap(); // non-tx write dooms thread 1

        let events = shared.lock().unwrap().drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], TraceEvent::Begin { thread: 0, cycle: 10 });
        assert_eq!(
            events[1],
            TraceEvent::Commit { thread: 0, cycle: 20, read_lines: 0, write_lines: 1 }
        );
        assert_eq!(events[2], TraceEvent::Begin { thread: 1, cycle: 30 });
        let TraceEvent::Abort { thread, cycle, reason, line } = events[3] else {
            panic!("expected abort, got {:?}", events[3]);
        };
        assert_eq!((thread, cycle), (1, 40));
        assert_eq!(reason, AbortReason::ConflictWrite { with: 2, line: 0 });
        assert_eq!(line, Some(0));
        assert_eq!(reason.faulting_line(), Some(0));
    }

    #[test]
    fn trace_overflow_carries_bursting_line() {
        use crate::trace::{RingBufferSink, TraceEvent};
        use std::sync::Arc;

        let mut m = mem();
        let shared = RingBufferSink::shared(8);
        m.set_trace_sink(Box::new(Arc::clone(&shared)));
        m.begin(0, Budgets { read_lines: 100, write_lines: 1 }).unwrap();
        m.write(0, 0, 1).unwrap();
        let err = m.write(0, 8, 2).unwrap_err(); // line 1 bursts the budget
        assert_eq!(err, AbortReason::WriteOverflow);
        let events = shared.lock().unwrap().drain();
        let Some(TraceEvent::Abort { reason, line, .. }) = events.last().copied() else {
            panic!("expected trailing abort event");
        };
        assert_eq!(reason, AbortReason::WriteOverflow);
        assert_eq!(line, Some(1));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let m = mem();
        assert!(!m.tracing_enabled());
    }

    #[test]
    fn restricted_abort() {
        let mut m = mem();
        m.write(0, 3, 30).unwrap();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 3, 31).unwrap();
        let r = m.abort_restricted(0);
        assert_eq!(r, AbortReason::Restricted);
        assert!(r.is_persistent());
        assert_eq!(*m.peek(3), 30);
    }

    #[test]
    fn pending_doom_survives_quiescent_memory() {
        // After thread 1's non-transactional write dooms thread 0 there are
        // zero active transactions, but thread 0's abort is still pending —
        // the fast path must not swallow it.
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 50, 1).unwrap();
        m.write(1, 50, 2).unwrap(); // dooms 0; no active transactions left
        assert_eq!(m.active_tx_count(), 0);
        let err = m.read(0, 60).unwrap_err();
        assert!(err.is_conflict());
        assert_eq!(m.stats().nontx_dooms, 1);
    }

    #[test]
    fn plain_accesses_take_fast_path_with_full_stats() {
        // With no transactions anywhere, reads and writes are plain stores
        // but the access counters still advance and no abort machinery
        // fires.
        let mut m = mem();
        for i in 0..10 {
            m.write(0, i, i as u64).unwrap();
        }
        for i in 0..10 {
            assert_eq!(m.read(1, i).unwrap(), i as u64);
        }
        let s = m.stats();
        assert_eq!((s.reads, s.writes), (10, 10));
        assert_eq!(s.begins, 0);
        assert_eq!(s.total_aborts(), 0);
        assert_eq!(s.nontx_dooms, 0);
    }

    #[test]
    fn commit_trace_counts_come_from_footprint_counters() {
        use crate::trace::RingBufferSink;
        use std::sync::Arc;

        // Read lines 0,1,2; write lines 1,4 (line 1 in both sets). The
        // Commit event must carry the line-list lengths, deduplicated.
        let mut m = mem();
        let shared = RingBufferSink::shared(8);
        m.set_trace_sink(Box::new(Arc::clone(&shared)));
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 0).unwrap();
        let _ = m.read(0, 8).unwrap();
        let _ = m.read(0, 16).unwrap();
        m.write(0, 9, 1).unwrap(); // line 1, already read
        m.write(0, 33, 2).unwrap(); // line 4
        m.write(0, 10, 3).unwrap(); // line 1 again: no growth
        assert_eq!(m.footprint(0), (3, 2));
        m.commit(0).unwrap();
        let events = shared.lock().unwrap().drain();
        assert_eq!(
            events.last(),
            Some(&TraceEvent::Commit { thread: 0, cycle: 0, read_lines: 3, write_lines: 2 })
        );
    }

    #[test]
    fn doomed_victim_memo_is_invalidated() {
        // Thread 0 caches line 6 in its memo, gets doomed by thread 1, then
        // starts a fresh transaction: the stale memo must not let it skip
        // re-recording the line.
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 48).unwrap();
        let _ = m.read(0, 49).unwrap(); // memo hit on line 6
        m.begin(1, big_budgets()).unwrap();
        m.write(1, 48, 9).unwrap(); // dooms 0
        assert!(m.poll_doomed(0).is_some());
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 48).unwrap();
        assert_eq!(m.footprint(0), (1, 0), "line re-recorded after re-begin");
        // That read hit thread 1's speculative write of line 6, so
        // requester-wins must have doomed 1 in turn.
        assert!(matches!(m.poll_doomed(1), Some(AbortReason::ConflictWrite { with: 0, .. })));
    }

    #[test]
    fn buffers_are_retained_across_transactions() {
        // Steady-state transactions reuse their line-list and undo-log
        // capacity; this just exercises many begin/access/commit cycles to
        // shake out release bookkeeping (directory bits must all clear).
        let mut m = mem();
        for round in 0..50u64 {
            m.begin(0, big_budgets()).unwrap();
            for i in 0..32 {
                let _ = m.read(0, i * 8).unwrap();
                m.write(0, i * 8, round).unwrap();
            }
            assert_eq!(m.footprint(0), (32, 32));
            m.commit(0).unwrap();
        }
        assert_eq!(m.stats().commits, 50);
        // After the last commit another thread can write every line freely.
        for i in 0..32 {
            m.write(1, i * 8, 0).unwrap();
        }
        assert_eq!(m.stats().total_aborts(), 0);
    }

    #[test]
    #[should_panic(expected = "read out of bounds: addr 99999")]
    fn read_out_of_bounds_panics_with_context() {
        let mut m = mem();
        let _ = m.read(0, 99_999);
    }

    #[test]
    #[should_panic(expected = "write out of bounds: addr 4096 (line 512)")]
    fn write_out_of_bounds_panics_with_context() {
        let mut m = mem();
        let _ = m.write(0, 4096, 1);
    }

    #[test]
    fn read_with_probes_in_place_and_counts_once() {
        let mut m = mem();
        m.write(0, 7, 41).unwrap();
        let reads_before = m.stats().reads;
        let doubled = m.read_with(1, 7, |w| w * 2).unwrap();
        assert_eq!(doubled, 82);
        assert_eq!(m.stats().reads, reads_before + 1);
    }

    #[test]
    fn repeated_writes_log_one_undo_entry_and_restore_oldest() {
        let mut m = mem();
        m.poke(8, 70);
        m.poke(9, 71);
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 8, 1).unwrap(); // directory path: claims line 1
        m.write(0, 9, 2).unwrap(); // memo hits from here on
        m.write(0, 9, 3).unwrap();
        m.write(0, 9, 4).unwrap();
        // Consecutive same-address writes dedup to the first undo entry,
        // which holds the oldest (pre-transaction) value.
        assert_eq!(m.txs[0].undo, [8, 9]);
        assert_eq!(m.undo_words[0], [70, 71]);
        m.write(0, 8, 5).unwrap(); // not the newest entry: logged again
        assert_eq!(m.txs[0].undo, [8, 9, 8]);
        m.tabort(0, 1);
        assert_eq!(*m.peek(8), 70);
        assert_eq!(*m.peek(9), 71, "oldest undo record wins on rollback");
    }

    #[test]
    fn memo_evicts_by_way_and_never_skips_footprint() {
        // Lines 0 and MEMO_WAYS share way 0: alternating between them
        // evicts each other's entry, but the footprint is directory state
        // and stays exact.
        let mut m: TxMemory<u64> = TxMemory::new(8 * 4 * MEMO_WAYS, 8, 2, 0);
        m.begin(0, big_budgets()).unwrap();
        for _ in 0..3 {
            m.read(0, 0).unwrap();
            m.write(0, 8 * MEMO_WAYS, 1).unwrap();
        }
        assert_eq!(m.footprint(0), (1, 1));
        assert_eq!(m.memos[0][0].line, MEMO_WAYS, "last access owns the way");
        // A remote write to the evicted line still dooms the reader.
        m.write(1, 1, 9).unwrap();
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictRead { with: 1, line: 0 })));
        assert!(m.memos[0].iter().all(|e| e.line == usize::MAX), "doom clears the memo");
    }

    #[test]
    fn plan_installed_mid_transaction_makes_the_next_memoised_access_draw() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.read(0, 10).unwrap();
        m.read(0, 11).unwrap(); // memo hit: no draw without a plan
        m.set_fault_plan(FaultPlan::spurious(7, 1.0));
        assert_eq!(m.faults_injected(), 0);
        let err = m.read(0, 12).unwrap_err(); // same line, but it draws
        assert!(matches!(err, AbortReason::Spurious { .. }));
        assert_eq!(m.faults_injected(), 1);
        assert!(!m.in_tx(0));
        // Under a plan the memo is never refilled: every access draws.
        m.begin(0, big_budgets()).unwrap();
        assert!(m.read(0, 10).is_err());
        assert_eq!(m.faults_injected(), 2);
    }

    #[test]
    fn dirty_read_plan_skips_only_the_read_side_doom() {
        let mut m = mem();
        m.set_fault_plan(FaultPlan { dirty_read: true, ..FaultPlan::none() });
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 5, 7).unwrap();
        assert_eq!(m.read(1, 5).unwrap(), 7, "reads the speculative value");
        assert_eq!(m.poll_doomed(0), None, "the remote writer survives");
        assert_eq!(m.faults_injected(), 0);
        m.write(1, 5, 8).unwrap(); // writes still doom
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictWrite { with: 1, .. })));
    }
}
