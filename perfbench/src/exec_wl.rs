//! The three executor workloads (while-htm, cg-constrained,
//! taskserver-gil): one operation boots an `Executor`, runs the program
//! to completion and checks its output.

use std::hint::black_box;
use std::time::Instant;

use htm_gil_core::{heap_digest, ExecConfig, Executor, LengthPolicy, RunReport, RuntimeMode};
use machine_sim::MachineProfile;
use ruby_vm::{compile::compile_source, prelude::PRELUDE, Program, Vm, VmConfig};

use crate::counts::Counts;
use crate::trace::Tracer;
use crate::{median, peak_rss_mib, quantile, Metrics, Outcome, Sizes, MIN_OPS, SLOW};

/// What a run's output must be.
enum Expect {
    /// Exact stdout, known in closed form.
    Stdout(String),
    /// Stdout plus final heap digest of a GIL run of the same program on
    /// the same machine.
    Oracle { stdout: String, heap: String },
}

pub struct ExecWorkload {
    source: String,
    vm_config: VmConfig,
    profile: MachineProfile,
    cfg: ExecConfig,
    expect: Expect,
    /// Simulated cycles of the same program under the GIL; `None` when
    /// the workload itself runs under the GIL.
    gil_cycles: Option<u64>,
    /// Host seconds of the GIL reference boot, the workload's first
    /// `Executor::new`; `None` without a reference run.
    cold_setup_s: Option<f64>,
}

/// One timed operation.
struct Op {
    new_s: f64,
    run_s: f64,
    total_s: f64,
    result: Result<Counts, String>,
}

fn htm_dynamic() -> RuntimeMode {
    RuntimeMode::Htm { length: LengthPolicy::Dynamic }
}

impl ExecWorkload {
    /// `want` is the exact stdout when it is known in closed form; without
    /// it the GIL reference run is the oracle.
    fn new(
        w: workloads::Workload,
        profile: MachineProfile,
        mode: RuntimeMode,
        seed: u64,
        want: Option<String>,
    ) -> Result<ExecWorkload, String> {
        let vm_config =
            VmConfig { max_threads: w.threads + 2, conn_seed: seed, ..VmConfig::default() };
        let mut cfg = ExecConfig::new(mode, &profile);
        cfg.seed = seed;
        let mut expect = want.clone().map(Expect::Stdout);
        let mut gil_cycles = None;
        let mut cold_setup_s = None;
        if mode != RuntimeMode::Gil {
            // The GIL reference run: once, outside every timed region. It
            // supplies the speed-up's denominator and, when no closed-form
            // stdout exists, the oracle.
            let gil_cfg = ExecConfig { mode: RuntimeMode::Gil, ..cfg.clone() };
            let t0 = Instant::now();
            let ex = Executor::new(&w.source, vm_config.clone(), profile.clone(), gil_cfg);
            cold_setup_s = Some(t0.elapsed().as_secs_f64());
            let mut ex = ex.map_err(|e| format!("GIL reference boot: {e}"))?;
            let r = ex.run().map_err(|e| format!("GIL reference run: {e}"))?;
            if want.as_ref().is_some_and(|want| &r.stdout != want) {
                return Err(format!("GIL reference stdout {:?}, expected {want:?}", r.stdout));
            }
            gil_cycles = Some(r.elapsed_cycles);
            let heap = heap_digest(&ex.vm);
            expect.get_or_insert(Expect::Oracle { stdout: r.stdout, heap });
        }
        let expect = expect.ok_or("a GIL-mode workload needs a closed-form stdout")?;
        Ok(ExecWorkload {
            source: w.source,
            vm_config,
            profile,
            cfg,
            expect,
            gil_cycles,
            cold_setup_s,
        })
    }

    /// `micro::while_bench(12, …)` on zEC12 under HTM-dynamic.
    pub fn while_htm(s: &Sizes, seed: u64) -> Result<ExecWorkload, String> {
        let w = workloads::micro::while_bench(12, s.while_iters);
        let want = workloads::micro::expected_output(12, s.while_iters);
        ExecWorkload::new(w, MachineProfile::zec12(), htm_dynamic(), seed, Some(want))
    }

    /// `npb::cg(12, …)` on the constrained profile under HTM-dynamic.
    pub fn cg_constrained(s: &Sizes, seed: u64) -> Result<ExecWorkload, String> {
        let w = workloads::npb::cg(12, s.cg_scale);
        ExecWorkload::new(w, MachineProfile::constrained(), htm_dynamic(), seed, None)
    }

    /// `taskserver(8, 4, 64, …, false)` on zEC12 under the GIL.
    pub fn taskserver_gil(s: &Sizes, seed: u64) -> Result<ExecWorkload, String> {
        let w = workloads::taskserver::taskserver(8, 4, 64, s.ts_tasks, false);
        let want = workloads::taskserver::expected_stdout(s.ts_tasks);
        ExecWorkload::new(w, MachineProfile::zec12(), RuntimeMode::Gil, seed, Some(want))
    }

    fn check(&self, ex: &Executor, r: &RunReport) -> Result<(), String> {
        match &self.expect {
            Expect::Stdout(want) if &r.stdout != want => {
                Err(format!("stdout {:?}, expected {want:?}", r.stdout))
            }
            Expect::Stdout(_) => Ok(()),
            Expect::Oracle { stdout, heap } => {
                if &r.stdout != stdout {
                    Err(format!("stdout {:?} differs from the GIL oracle's {stdout:?}", r.stdout))
                } else if &heap_digest(&ex.vm) != heap {
                    Err("final heap differs from the GIL oracle's".into())
                } else {
                    Ok(())
                }
            }
        }
    }

    fn boot(&self) -> Result<Executor, String> {
        Executor::new(&self.source, self.vm_config.clone(), self.profile.clone(), self.cfg.clone())
            .map_err(|e| e.to_string())
    }

    /// Boot, run and check once, untraced.
    fn op(&self) -> Op {
        let t0 = Instant::now();
        let ex = self.boot();
        let t1 = Instant::now();
        let (run_s, result) = match ex {
            Err(e) => (0.0, Err(e)),
            Ok(mut ex) => {
                let r = ex.run();
                let run_s = t1.elapsed().as_secs_f64();
                let result = r
                    .map_err(|e| e.to_string())
                    .and_then(|r| self.check(&ex, &r).map(|()| Counts::of(&r)));
                (run_s, result)
            }
        };
        let new_s = (t1 - t0).as_secs_f64();
        Op { new_s, run_s, total_s: t0.elapsed().as_secs_f64(), result }
    }

    /// The same operation with every layer's public entry point called
    /// separately inside its own span: parse, compile (parse included),
    /// `Vm::boot` (compile included), `Executor::new` (boot included),
    /// `Executor::run`, and the output check.
    fn traced_op(&self, tr: &mut Tracer) -> Result<Counts, String> {
        tr.span("bench.op", |tr| {
            layer_spans(tr, &self.source, &self.vm_config, &self.profile)?;
            let mut ex = tr.span("core.executor_new", |_| self.boot())?;
            let r = tr.span("core.run", |_| ex.run()).map_err(|e| e.to_string())?;
            tr.span("core.oracle", |_| self.check(&ex, &r))?;
            Ok(Counts::of(&r))
        })
    }

    /// Untraced: operations back to back for `seconds`.
    pub fn timed(&self, seconds: f64) -> Outcome {
        let start = Instant::now();
        let mut ops = vec![self.op()];
        let rss_mib = peak_rss_mib();
        while ops.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
            ops.push(self.op());
        }
        let mut out = Outcome::default();
        let good = self.tally(&ops, &mut out);
        // Every good operation simulates the same work, so its rate is fixed
        // by its time; the slow percentile of times gives the rate that
        // nine in ten operations reach. Set-up is read the same way.
        let committed = out.counts.committed as f64;
        let slow_run_s = quantile(good.iter().map(|(op, _)| op.run_s).collect(), SLOW);
        let slow_op_s = quantile(ops.iter().map(|o| o.total_s).collect(), SLOW);
        let m = &mut out.metrics;
        m.push("host_bytecodes_per_s", committed / slow_run_s, "bytecodes/s");
        m.push("ops_per_s", 1.0 / slow_op_s, "1/s");
        m.push("setup_s", quantile(ops.iter().map(|o| o.new_s).collect(), SLOW), "s");
        m.push("peak_rss_mib", rss_mib, "MiB");
        self.push_sim(&out.counts, &mut out.metrics);
        out
    }

    /// Traced: untraced and traced operations alternate for `seconds`, so
    /// the two `core.run` medians share one noise window.
    pub fn traced(&self, seconds: f64, tr: &mut Tracer) -> Outcome {
        let start = Instant::now();
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        while plain.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
            plain.push(self.op());
            traced.push(self.traced_op(tr));
        }
        let mut out = Outcome::default();
        self.tally(&plain, &mut out);
        for r in traced {
            out.attempted += 1;
            match r {
                Ok(c) if c == out.counts => {}
                Ok(_) => out.fail("traced run's simulated statistics differ".into()),
                Err(e) => out.fail(e),
            }
        }
        let plain_run_s = median(plain.iter().map(|o| o.run_s).collect());
        // Without a reference run, the first operation's boot is the cold one.
        let cold_setup_s = self.cold_setup_s.unwrap_or(plain[0].new_s);
        push_layer_metrics(tr, &out.counts, plain_run_s, cold_setup_s, &mut out.metrics);
        crate::explore_wl::push_explore_metrics(&mut out.metrics, 0.0, 0.0, &[]);
        out.push_failed_frac();
        out
    }

    /// Count attempts and failures, fix the reference counts from the
    /// first good run and fail every run that disagrees with them.
    fn tally<'a>(&self, ops: &'a [Op], out: &mut Outcome) -> Vec<(&'a Op, Counts)> {
        let mut good = Vec::new();
        for op in ops {
            out.attempted += 1;
            match &op.result {
                Err(e) => out.fail(e.clone()),
                Ok(c) => {
                    if good.is_empty() {
                        out.counts = c.clone();
                    }
                    if *c == out.counts {
                        good.push((op, c.clone()));
                    } else {
                        out.fail("simulated statistics differ from the first run's".into());
                    }
                }
            }
        }
        out.fingerprint = out.counts.fingerprint("");
        good
    }

    fn push_sim(&self, c: &Counts, m: &mut Metrics) {
        m.push("sim_mcycles", c.cycles as f64 / 1e6, "Mcycles");
        let gil = self.gil_cycles.unwrap_or(c.cycles);
        m.push("sim_speedup_vs_gil", gil as f64 / c.cycles.max(1) as f64, "x");
    }
}

/// Parse, compile and boot `source` each as its own call and span. Each
/// result is dropped after its span ends, so no span pays for freeing.
pub fn layer_spans(
    tr: &mut Tracer,
    source: &str,
    vm_config: &VmConfig,
    profile: &MachineProfile,
) -> Result<(), String> {
    let parsed = tr.span("ruby_lang.parse", |_| {
        (ruby_lang::parse_program(PRELUDE), ruby_lang::parse_program(source))
    });
    match black_box(parsed) {
        (Ok(_), Ok(_)) => {}
        (Err(e), _) | (_, Err(e)) => return Err(e.to_string()),
    }
    let compiled = tr.span("ruby_vm.compile", |_| {
        let mut program = Program::default();
        compile_source(PRELUDE, &mut program)?;
        compile_source(source, &mut program)?;
        program.finalize();
        Ok::<_, ruby_vm::compile::CompileError>(program)
    });
    black_box(compiled).map_err(|e| e.to_string())?;
    let vm = tr.span("ruby_vm.boot", |_| Vm::boot(source, vm_config.clone(), profile));
    black_box(vm).map(drop).map_err(|e| e.to_string())
}

/// Span-derived per-layer host metrics shared by every workload. `c` is
/// the simulated work of `c.runs` consecutive `core.run` spans;
/// `cold_setup_s` is the workload's first `Executor::new`.
pub fn push_layer_metrics(
    tr: &Tracer,
    c: &Counts,
    plain_run_s: f64,
    cold_setup_s: f64,
    m: &mut Metrics,
) {
    let med = |name| median(tr.durations(name));
    let (parse, compile, boot, new) = (
        med("ruby_lang.parse"),
        med("ruby_vm.compile"),
        med("ruby_vm.boot"),
        med("core.executor_new"),
    );
    let run = med("core.run");
    m.push("ruby_lang.parse_s", parse, "s");
    m.push("ruby_vm.compile_s", compile, "s");
    m.push("ruby_vm.compile_self_s", compile - parse, "s");
    m.push("ruby_vm.boot_s", boot, "s");
    m.push("ruby_vm.boot_self_s", boot - compile, "s");
    m.push("core.executor_new_s", new, "s");
    m.push("core.executor_new_self_s", new - boot, "s");
    m.push("bench.setup_cold_s", cold_setup_s, "s");
    m.push("core.run_s", run, "s");
    m.push("core.oracle_s", med("core.oracle"), "s");
    // Ratios of run time to a count of work, not attributions of host time.
    let runs = tr.durations("core.run");
    let run_total_s: f64 = runs.iter().sum();
    let sets = runs.len() as f64 / c.runs.max(1) as f64;
    let per = |n: u64| if n == 0 { 0.0 } else { run_total_s * 1e9 / (sets * n as f64) };
    m.push("core.host_ns_per_bytecode", per(c.committed + c.wasted), "ns");
    m.push("htm_sim.host_ns_per_access", per(c.htm.reads + c.htm.writes), "ns");
    m.push("trace.overhead_frac", (run - plain_run_s) / plain_run_s, "ratio");
    let op_self: Vec<f64> = tr
        .spans()
        .iter()
        .zip(tr.self_times())
        .filter(|(s, _)| s.name == "bench.op")
        .map(|(_, t)| t)
        .collect();
    m.push("bench.op_self_s", median(op_self), "s");
    c.push_metrics(m);
}
