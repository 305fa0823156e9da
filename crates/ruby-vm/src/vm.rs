//! The VM proper: configuration, thread contexts, boot, and the helpers
//! shared by the interpreter, heap and builtins (which are all `impl Vm`
//! blocks in their own modules).

use std::collections::HashMap;

use htm_sim::{AbortReason, TxMemory};
use machine_sim::{MachineProfile, ThreadId};

use crate::bytecode::IseqId;
use crate::compile::{compile_source, CompileError};
use crate::layout::{ts, Layout, SLOT_WORDS};
use crate::program::{PoolLiteral, Program};
use crate::symbols::SymId;
use crate::value::{Addr, ObjHeader, ObjKind, Word};

/// Configuration knobs — each maps to a lever the paper turns.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Initial object-slot count (`RUBY_HEAP_MIN_SLOTS`; the paper raises
    /// it from 10 000 to 10 000 000 — we scale both ends down).
    pub heap_slots: usize,
    /// Hard cap on slots after growth.
    pub max_heap_slots: usize,
    /// Words in the malloc area.
    pub malloc_words: usize,
    /// Words per thread stack.
    pub stack_words: usize,
    /// Maximum concurrently-live threads.
    pub max_threads: usize,
    /// §4.4 #2: per-thread free lists, refilled in bulk from the global
    /// list.
    pub thread_local_free_lists: bool,
    /// Bulk-refill size (paper: 256).
    pub free_list_refill: usize,
    /// HEAPPOOLS analogue: per-thread malloc arenas.
    pub malloc_thread_local: bool,
    /// §4.4 #4a: method inline caches filled only at the first miss.
    pub method_ic_fill_once: bool,
    /// §4.4 #4b: ivar inline caches guarded by ivar-table identity rather
    /// than class identity.
    pub ivar_ic_table_guard: bool,
    /// §4.4 #5: thread structs padded to dedicated cache lines.
    pub padded_thread_structs: bool,
    /// Words the thread-local malloc arena grabs from the bump region at a
    /// time.
    pub tl_malloc_chunk: usize,
    /// Capacity of the global-variable and constant tables.
    pub gvar_cap: usize,
    pub const_cap: usize,
    /// §5.6 extension: thread-local lazy sweeping over per-thread heap
    /// partitions (see `extensions`).
    pub tl_lazy_sweep: bool,
    /// §5.6 extension: per-thread inline-cache areas.
    pub thread_local_ics: bool,
    /// §7 what-if: CPython-style reference-count writes on every object
    /// store (the counts are decorative; the *traffic* is the point).
    pub refcount_writes: bool,
    /// Seed of the deterministic connection-latency model behind
    /// `Kernel#conn_wait` (task-server scenario).
    pub conn_seed: u64,
    /// No effect; kept so `perfbench/` builds; drop in the next benchmark
    /// revision.
    pub force_word_access: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap_slots: 40_000,
            max_heap_slots: 400_000,
            malloc_words: 400_000,
            stack_words: 4_096,
            max_threads: 16,
            thread_local_free_lists: true,
            free_list_refill: 256,
            malloc_thread_local: true,
            method_ic_fill_once: true,
            ivar_ic_table_guard: true,
            padded_thread_structs: true,
            tl_malloc_chunk: 4_096,
            gvar_cap: 128,
            const_cap: 256,
            tl_lazy_sweep: false,
            thread_local_ics: false,
            refcount_writes: false,
            conn_seed: 0xC0_11EC7,
            force_word_access: false,
        }
    }
}

impl VmConfig {
    /// The paper's *original CRuby* interpreter internals: global free
    /// list, global malloc, refill-every-miss caches, class-equality ivar
    /// guards, packed thread structs, small heap. Used by the "without
    /// conflict removal" ablations.
    pub fn original_cruby(mut self) -> Self {
        self.thread_local_free_lists = false;
        self.malloc_thread_local = false;
        self.method_ic_fill_once = false;
        self.ivar_ic_table_guard = false;
        self.padded_thread_structs = false;
        self
    }

    /// Small-heap variant (the paper's default 10 000-slot CRuby heap,
    /// scaled): triggers frequent GC.
    pub fn small_heap(mut self) -> Self {
        self.heap_slots = 4_000;
        // Leave growth headroom: delayed-reclamation schemes (the §5.6
        // thread-local sweep keeps each partition's garbage until its
        // owner allocates) retain more floating garbage.
        self.max_heap_slots = 200_000;
        self
    }
}

/// Fatal interpreter error (a Ruby exception would be raised; the subset
/// treats them as run-ending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    pub msg: String,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm error: {}", self.msg)
    }
}

impl std::error::Error for VmError {}

/// Why a step did not complete normally.
#[derive(Debug, Clone, PartialEq)]
pub enum VmAbort {
    /// The active transaction aborted (already rolled back); the TLE
    /// runtime decides whether to retry or fall back on the GIL.
    Tx(AbortReason),
    /// Fatal error — stops the run.
    Err(VmError),
}

impl From<AbortReason> for VmAbort {
    fn from(r: AbortReason) -> Self {
        VmAbort::Tx(r)
    }
}

impl VmAbort {
    pub fn fatal(msg: impl Into<String>) -> VmAbort {
        VmAbort::Err(VmError { msg: msg.into() })
    }
}

/// What a thread is blocked on (the executor parks it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockOn {
    /// Mutex held by someone else; retry the instruction on wake.
    Mutex(Addr),
    /// Waiting for a thread to finish; retry on wake.
    Join(ThreadId),
    /// Blocking I/O with a simulated latency in I/O units (the executor
    /// multiplies by the profile's `io_latency`).
    Io(u32),
    /// Waiting on a barrier; retry on wake (generation check skips
    /// re-arrival).
    Barrier(Addr),
}

/// Result of executing one bytecode.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOk {
    Normal,
    /// The thread's root frame returned; `ThreadCtx::result` holds the
    /// value.
    Finished,
    /// A new VM thread was created (already registered); the executor must
    /// schedule it.
    Spawned {
        tid: ThreadId,
    },
    /// Block the thread; the instruction will be retried on wake unless
    /// noted otherwise.
    Block(BlockOn),
}

/// Wait-queue keys the executor uses to wake parked threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeKey {
    Mutex(Addr),
    Barrier(Addr),
}

/// Registers of one Ruby thread. Everything else (stack, frames, locals)
/// lives in simulated memory so transactions roll it back automatically.
#[derive(Debug, Clone)]
pub struct ThreadCtx {
    pub tid: ThreadId,
    pub stack_base: Addr,
    pub stack_end: Addr,
    /// Current frame base.
    pub fp: Addr,
    /// Next free stack word.
    pub sp: Addr,
    pub pc: usize,
    pub iseq: IseqId,
    /// Global-pc base of `iseq` (cached so the executor's yield test reads
    /// the flag lane at `base + pc` without an indirection through the
    /// iseq table). Maintained by every frame transition.
    pub base: u32,
    pub finished: bool,
    /// Heap address of the Ruby `Thread` object (0 for the main thread
    /// until materialized).
    pub thread_obj: Addr,
    pub result: Word,
    /// Barrier re-entry token: (barrier addr, generation at arrival).
    pub barrier_token: Option<(Addr, i64)>,
}

/// Register snapshot taken at transaction begin; memory words roll back
/// via the undo log, registers via this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSnapshot {
    pub fp: Addr,
    pub sp: Addr,
    pub pc: usize,
    pub iseq: IseqId,
}

/// Well-known classes created at boot (heap addresses).
#[derive(Debug, Clone, Default)]
pub struct CoreClasses {
    pub object: Addr,
    pub class_cls: Addr,
    pub integer: Addr,
    pub float_cls: Addr,
    pub string: Addr,
    pub array: Addr,
    pub hash: Addr,
    pub range: Addr,
    pub symbol: Addr,
    pub nil_cls: Addr,
    pub true_cls: Addr,
    pub false_cls: Addr,
    pub thread_cls: Addr,
    pub mutex_cls: Addr,
    pub barrier_cls: Addr,
    pub regexp: Addr,
    pub matchdata: Addr,
    pub proc_cls: Addr,
    pub math: Addr,
    pub store: Addr,
    /// The top-level `main` object.
    pub main_obj: Addr,
}

/// The virtual machine.
pub struct Vm {
    pub mem: TxMemory<Word>,
    pub layout: Layout,
    /// Line → owner map registered at layout time and extended on heap
    /// growth; the executor uses it to attribute conflicting cache lines
    /// to VM structures (paper §5.6).
    pub attribution: crate::layout::AttributionMap,
    pub config: VmConfig,
    pub program: Program,
    pub threads: Vec<ThreadCtx>,
    pub classes: CoreClasses,
    /// Captured `puts` output (per-run, used as the correctness oracle).
    pub stdout: Vec<String>,
    pub gvar_map: HashMap<SymId, usize>,
    pub const_map: HashMap<SymId, usize>,
    /// Literal pool resolved to heap objects at boot (shared, frozen).
    pub pooled_objs: Vec<Word>,
    /// Slot ranges: (base addr, slot count) — grows with the heap.
    pub slot_ranges: Vec<(Addr, usize)>,
    /// Compiled-regex cache keyed by pattern (host-side, like onig's).
    pub regex_cache: HashMap<String, crate::regexlite::Regex>,
    /// Memory references made by the current step (the executor charges
    /// cycles from this).
    pub step_mem_refs: u32,
    /// Extra native cycles requested by the current step (regex, store…).
    pub step_native_cost: u64,
    /// Wakes to drain after the step (mutex unlocks, barrier releases).
    pub pending_wakes: Vec<WakeKey>,
    /// GC statistics.
    pub gc_runs: u64,
    pub heap_grows: u64,
    /// Allocation counter (paper §5.6 attributes conflicts to allocation).
    pub allocations: u64,
    /// True while the GC mark/sweep itself runs (for cycle attribution).
    pub in_gc: bool,
    /// Deterministic RNG for `rand` (seeded per run).
    pub(crate) rand_state: u64,
    /// Builtin dispatch table (ids are indices; see `builtins::install`).
    pub builtins: Vec<crate::builtins::BFn>,
    /// Heap-promoted block environments (one chain per spawned thread);
    /// permanent GC roots. See `Vm::promote_env`.
    pub promoted_envs: Vec<(Addr, usize)>,
    /// Slot-count snapshot taken at the last mark phase: thread-local
    /// sweep partitions are computed from this frozen total so mid-cycle
    /// heap growth cannot shift partition boundaries (two threads
    /// sweeping the same slot would free live objects).
    pub gc_sweep_total: usize,
    /// Values alive only in Rust locals during the current step (popped
    /// operands being assembled into a new aggregate, a Proc in flight to
    /// a builtin, regex group strings…). The GC treats them as roots —
    /// the role CRuby's conservative C-stack scan plays. Cleared at the
    /// start of every step.
    pub temp_roots: Vec<Word>,
    /// Deterministic connection-latency model behind `Kernel#conn_wait`.
    pub conn: machine_sim::ConnModel,
    /// Server-scenario marks (`Kernel#srv_mark`: kind, task id) emitted by
    /// the current step; the executor drains them after every step and —
    /// inside a transaction — holds them in escrow until commit, so an
    /// aborted slice leaves no phantom latency events.
    pub pending_marks: Vec<(u8, i64)>,
    /// Committed global method-table version. A versioned inline cache is
    /// valid only if the version half of its guard word matches
    /// [`Vm::effective_method_version`]; bumped when a method definition
    /// shadows or replaces a resolvable one.
    pub method_version: u32,
    /// Version bumps made inside the current transaction, escrowed exactly
    /// like marks and wakes: published at commit, dropped on abort (the
    /// method-table words themselves roll back via the undo log).
    pub pending_method_bumps: u32,
}

impl Vm {
    /// Build a VM for `source`, compiled against the prelude, sized by
    /// `config`, with the cache geometry of `profile`.
    pub fn boot(
        source: &str,
        config: VmConfig,
        profile: &MachineProfile,
    ) -> Result<Vm, CompileError> {
        let mut program = Program::default();
        // Pre-intern operator names used by generic fallbacks.
        for op in [
            "+",
            "-",
            "*",
            "/",
            "%",
            "==",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
            "<=>",
            "<<",
            ">>",
            "&",
            "|",
            "^",
            "**",
            "initialize",
            "new",
            "each",
            "times",
            "to_s",
        ] {
            program.intern(op);
        }
        let prelude_iseq = compile_source(crate::prelude::PRELUDE, &mut program)?;
        let main_iseq = compile_source(source, &mut program)?;
        program.finalize();

        let line_words = profile.cache.line_words();
        let ic_copies = if config.thread_local_ics { config.max_threads } else { 1 };
        let layout = Layout::new(
            line_words,
            program.ic_count as usize,
            config.max_threads,
            config.heap_slots,
            config.malloc_words,
            config.stack_words,
            config.gvar_cap,
            config.const_cap,
            config.padded_thread_structs,
            ic_copies,
        );
        let mem = TxMemory::new(layout.total_words, line_words, config.max_threads, Word::Uninit);
        let attribution = crate::layout::AttributionMap::from_layout(&layout);
        let config_slots = config.heap_slots;
        let conn_seed = config.conn_seed;
        let mut vm = Vm {
            mem,
            layout,
            attribution,
            config,
            program,
            threads: Vec::new(),
            classes: CoreClasses::default(),
            stdout: Vec::new(),
            gvar_map: HashMap::new(),
            const_map: HashMap::new(),
            pooled_objs: Vec::new(),
            slot_ranges: Vec::new(),
            regex_cache: HashMap::new(),
            step_mem_refs: 0,
            step_native_cost: 0,
            pending_wakes: Vec::new(),
            gc_runs: 0,
            heap_grows: 0,
            allocations: 0,
            in_gc: false,
            rand_state: 0x1234_5678_9abc_def0,
            builtins: Vec::new(),
            promoted_envs: Vec::new(),
            gc_sweep_total: config_slots,
            temp_roots: Vec::new(),
            conn: machine_sim::ConnModel::new(conn_seed),
            pending_marks: Vec::new(),
            method_version: 0,
            pending_method_bumps: 0,
        };
        vm.init_memory();
        vm.bootstrap_classes();
        vm.alloc_literal_pool();
        // Main thread runs the prelude first, then the program: chain by
        // running the prelude to completion synchronously at boot (it only
        // defines methods — cheap and conflict-free).
        vm.spawn_main(prelude_iseq);
        vm.run_to_completion_single(0)
            .map_err(|e| CompileError { msg: format!("prelude failed: {e:?}") })?;
        // Reset the main thread onto the real program.
        vm.reset_thread(0, main_iseq);
        Ok(vm)
    }

    /// Initialize heap metadata and free lists.
    fn init_memory(&mut self) {
        let l = &self.layout;
        self.mem.poke(l.gil, Word::Int(0));
        self.mem.poke(l.running_thread, Word::Int(-1));
        // Nothing is sweepable until a mark phase has run: an unmarked
        // object is only garbage *after* GC marked the live ones.
        self.mem.poke(l.sweep_cursor, Word::Int(l.initial_slots as i64));
        self.mem.poke(l.malloc_bump, Word::Int(l.malloc_base as i64));
        self.mem.poke(l.malloc_end, Word::Int((l.malloc_base + l.malloc_words) as i64));
        for c in 0..crate::layout::MALLOC_CLASSES {
            self.mem.poke(l.malloc_class_base + c, Word::Int(0));
        }
        // Link every slot into the global free list.
        let base = l.slots_base;
        let n = l.initial_slots;
        self.slot_ranges.push((base, n));
        for i in 0..n {
            let slot = base + i * SLOT_WORDS;
            let next = if i + 1 < n { slot + SLOT_WORDS } else { 0 };
            self.mem.poke(slot, Word::Hdr(ObjHeader { kind: ObjKind::Free, marked: false }));
            self.mem.poke(slot + 1, Word::Int(next as i64));
        }
        self.mem.poke(l.free_head, Word::Int(base as i64));
        // Thread structs.
        for t in 0..l.max_threads {
            let s = l.thread_struct(t);
            self.mem.poke(s + ts::YIELD_COUNTER, Word::Int(0));
            self.mem.poke(s + ts::INTERRUPT, Word::Int(0));
            self.mem.poke(s + ts::TL_FREE_HEAD, Word::Int(0));
            self.mem.poke(s + ts::TL_MALLOC_BUMP, Word::Int(0));
            self.mem.poke(s + ts::TL_MALLOC_END, Word::Int(0));
            // Like the shared cursor: nothing is sweepable until a mark
            // phase has run, so park the cursor past the heap.
            self.mem.poke(s + ts::TL_SWEEP_CURSOR, Word::Int(l.initial_slots as i64));
            self.mem.poke(s + ts::SCRATCH, Word::Int(0));
            self.mem.poke(s + ts::RESERVED, Word::Int(0));
        }
    }

    /// Resolve pooled literals into shared heap objects.
    fn alloc_literal_pool(&mut self) {
        for i in 0..self.program.pooled.len() {
            let lit = self.program.pooled[i].clone();
            let w = match lit {
                PoolLiteral::Float(f) => {
                    let slot = self.alloc_slot_boot().expect("heap too small for literal pool");
                    self.mem
                        .poke(slot, Word::Hdr(ObjHeader { kind: ObjKind::Float, marked: false }));
                    self.mem.poke(slot + 1, Word::F64(f));
                    Word::Obj(slot)
                }
                PoolLiteral::Str(_) => unreachable!("strings are not pooled as objects"),
            };
            self.pooled_objs.push(w);
        }
    }

    /// Register the main thread.
    fn spawn_main(&mut self, iseq: IseqId) {
        assert!(self.threads.is_empty());
        let (stack_base, stack_end) = self.layout.thread_stack(0);
        let mut ctx = ThreadCtx {
            tid: 0,
            stack_base,
            stack_end,
            fp: stack_base,
            sp: stack_base,
            pc: 0,
            iseq,
            base: self.program.base(iseq),
            finished: false,
            thread_obj: 0,
            result: Word::Nil,
            barrier_token: None,
        };
        self.push_root_frame(&mut ctx, iseq, Word::Obj(self.classes.main_obj), 0, 0);
        self.threads.push(ctx);
    }

    /// Point an existing (finished) thread at a fresh iseq — used to chain
    /// prelude → program on the main thread.
    fn reset_thread(&mut self, tid: ThreadId, iseq: IseqId) {
        let (stack_base, stack_end) = self.layout.thread_stack(tid);
        let main_obj = self.classes.main_obj;
        let ctx = &mut self.threads[tid];
        ctx.stack_base = stack_base;
        ctx.stack_end = stack_end;
        ctx.fp = stack_base;
        ctx.sp = stack_base;
        ctx.pc = 0;
        ctx.iseq = iseq;
        ctx.base = self.program.base(iseq);
        ctx.finished = false;
        ctx.result = Word::Nil;
        let mut ctx = self.threads[tid].clone();
        self.push_root_frame(&mut ctx, iseq, Word::Obj(main_obj), 0, 0);
        self.threads[tid] = ctx;
    }

    /// Run thread `tid` to completion without transactions or scheduling —
    /// boot-time only (prelude execution).
    fn run_to_completion_single(&mut self, tid: ThreadId) -> Result<(), VmAbort> {
        let mut result = Err(VmAbort::fatal("prelude did not terminate"));
        for _ in 0..50_000_000u64 {
            match self.step(tid) {
                Ok(StepOk::Normal) => continue,
                Ok(StepOk::Finished) => result = Ok(()),
                Ok(StepOk::Spawned { .. } | StepOk::Block(_)) => {
                    result = Err(VmAbort::fatal("prelude must not spawn or block"))
                }
                Err(e) => result = Err(e),
            }
            break;
        }
        self.publish_method_bumps();
        result
    }

    /// Take a register snapshot (transaction begin).
    pub fn snapshot(&self, tid: ThreadId) -> RegSnapshot {
        let c = &self.threads[tid];
        RegSnapshot { fp: c.fp, sp: c.sp, pc: c.pc, iseq: c.iseq }
    }

    /// Restore registers after an abort (memory already rolled back).
    pub fn restore(&mut self, tid: ThreadId, s: RegSnapshot) {
        let base = self.program.base(s.iseq);
        let c = &mut self.threads[tid];
        c.fp = s.fp;
        c.sp = s.sp;
        c.pc = s.pc;
        c.iseq = s.iseq;
        c.base = base;
    }

    // ---- memory access helpers (count refs for cycle charging) ----------
    //
    // Every interpreter word access funnels through `rd`/`wr`/`rd_int`,
    // which count `step_mem_refs` for the executor's cycle charges and
    // hand the access to `TxMemory::read_with`/`write` — the one access
    // path, whose line memo serves repeated same-line accesses.

    #[inline]
    pub fn rd(&mut self, t: ThreadId, addr: Addr) -> Result<Word, VmAbort> {
        self.step_mem_refs += 1;
        Ok(self.mem.read(t, addr)?)
    }

    /// [`Self::rd`] without the `step_mem_refs` charge — for runtime-level
    /// accesses (yield counters, interrupt flags) whose cycle cost the
    /// executor charges explicitly. Still one counted statistics access.
    #[inline]
    pub fn rd_untimed(&mut self, t: ThreadId, addr: Addr) -> Result<Word, AbortReason> {
        self.mem.read(t, addr)
    }

    /// Read that classifies the word in place: `Ok(i)` for an immediate
    /// integer, `Err(word)` (cloned) otherwise — one counted access either
    /// way. The specialized arithmetic/compare operators use it to reach the
    /// `(Int, Int)` fast lane without cloning through the generic path.
    #[inline]
    pub fn rd_int(&mut self, t: ThreadId, addr: Addr) -> Result<Result<i64, Word>, VmAbort> {
        self.step_mem_refs += 1;
        Ok(self.mem.read_with(t, addr, |w| match w {
            Word::Int(i) => Ok(*i),
            other => Err(other.clone()),
        })?)
    }

    #[inline]
    pub fn wr(&mut self, t: ThreadId, addr: Addr, w: Word) -> Result<(), VmAbort> {
        if self.config.refcount_writes {
            // CPython-style: a store of an object reference also touches
            // the referents' count words (see `extensions`).
            let old = {
                self.step_mem_refs += 1;
                self.mem.read(t, addr)?
            };
            if matches!(old, Word::Obj(_)) || matches!(w, Word::Obj(_)) {
                self.refcount_store(t, &old, &w)?;
            }
        }
        self.step_mem_refs += 1;
        Ok(self.mem.write(t, addr, w)?)
    }

    /// [`Self::wr`] without the `step_mem_refs` charge (and without the
    /// `refcount_writes` hook, which no runtime-level word participates
    /// in) — the write-side companion of [`Self::rd_untimed`].
    #[inline]
    pub fn wr_untimed(&mut self, t: ThreadId, addr: Addr, w: Word) -> Result<(), AbortReason> {
        self.mem.write(t, addr, w)
    }

    /// Address of inline-cache site `site` as seen by thread `t`
    /// (per-thread copies under the `thread_local_ics` extension).
    #[inline]
    pub fn ic_addr(&self, t: ThreadId, site: u32) -> Addr {
        if self.layout.ic_copies > 1 {
            self.layout.ic_base + 2 * (t * self.layout.ic_count + site as usize)
        } else {
            self.layout.ic(site)
        }
    }

    /// Begin-of-step bookkeeping; returns counters for the executor.
    pub fn reset_step_counters(&mut self) {
        self.step_mem_refs = 0;
        self.step_native_cost = 0;
        self.temp_roots.clear();
    }

    /// Yield-flag byte of the next instruction thread `t` will execute —
    /// the executor's one-load yield-point query.
    #[inline]
    pub fn insn_flags(&self, t: ThreadId) -> u8 {
        let c = &self.threads[t];
        self.program.yield_flags(c.base as usize + c.pc)
    }

    /// Method-table version as seen by in-flight code: committed version
    /// plus this thread's escrowed (uncommitted) bumps.
    #[inline]
    pub fn effective_method_version(&self) -> u32 {
        self.method_version.wrapping_add(self.pending_method_bumps)
    }

    /// Commit escrowed method-version bumps (transaction commit, or any
    /// step taken outside a transaction).
    #[inline]
    pub fn publish_method_bumps(&mut self) {
        if self.pending_method_bumps != 0 {
            self.method_version = self.method_version.wrapping_add(self.pending_method_bumps);
            self.pending_method_bumps = 0;
        }
    }

    /// Discard escrowed bumps after an abort (the method-table words
    /// themselves roll back via the undo log).
    #[inline]
    pub fn drop_method_bumps(&mut self) {
        self.pending_method_bumps = 0;
    }

    /// Deterministic xorshift for `rand`.
    pub(crate) fn next_rand(&mut self) -> u64 {
        let mut x = self.rand_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rand_state = x;
        x
    }

    /// All output produced via `puts` so far, joined by newlines.
    pub fn stdout_text(&self) -> String {
        self.stdout.join("\n")
    }

    /// Count of live (unfinished) threads.
    pub fn live_threads(&self) -> usize {
        self.threads.iter().filter(|t| !t.finished).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_big_heap_all_removals() {
        let c = VmConfig::default();
        assert!(c.thread_local_free_lists);
        assert!(c.method_ic_fill_once);
        assert!(c.ivar_ic_table_guard);
        assert!(c.padded_thread_structs);
        assert!(c.heap_slots >= 10_000);
    }

    #[test]
    fn original_cruby_config_strips_removals() {
        let c = VmConfig::default().original_cruby();
        assert!(!c.thread_local_free_lists);
        assert!(!c.malloc_thread_local);
        assert!(!c.method_ic_fill_once);
        assert!(!c.ivar_ic_table_guard);
        assert!(!c.padded_thread_structs);
    }

    #[test]
    fn boot_runs_prelude_and_compiles_program() {
        let vm = Vm::boot("1 + 1", VmConfig::default(), &MachineProfile::generic(2)).unwrap();
        assert_eq!(vm.threads.len(), 1);
        assert!(!vm.threads[0].finished);
        // Core classes materialized.
        assert_ne!(vm.classes.object, 0);
        assert_ne!(vm.classes.integer, 0);
        assert_ne!(vm.classes.thread_cls, 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut vm = Vm::boot("x = 1", VmConfig::default(), &MachineProfile::generic(2)).unwrap();
        let snap = vm.snapshot(0);
        vm.threads[0].pc = 99;
        vm.threads[0].sp += 5;
        vm.restore(0, snap);
        assert_eq!(vm.threads[0].pc, snap.pc);
        assert_eq!(vm.threads[0].sp, snap.sp);
    }
}
