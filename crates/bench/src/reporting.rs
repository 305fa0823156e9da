//! Opt-in machine-readable run reports for the bench binaries.
//!
//! Every `bench/src/bin/*` binary accepts `--report-json <path>` (or
//! `--report-json=<path>`). When given, each [`RunReport`] produced by the
//! harness during the run is captured, and at exit a single JSON document
//! (schema `htm-gil-bench-report/v1`) with the per-run abort breakdowns by
//! reason and by attributed VM structure is written to `<path>`. Without
//! the flag the collector stays uninstalled and [`record`] is a no-op, so
//! the human-readable tables and CSV outputs are unchanged.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Mutex;

use htm_gil_core::{Json, RunReport};

static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

thread_local! {
    /// Per-point capture buffer installed by [`capture`] around a pool
    /// worker's point execution. `Some` diverts [`record`] calls away
    /// from the process-global collector so the runner can flush them in
    /// submission order — the order a serial run would have produced —
    /// instead of completion order.
    static CAPTURE: RefCell<Option<Vec<Json>>> = const { RefCell::new(None) };
}

#[derive(Debug)]
struct Collector {
    path: PathBuf,
    binary: String,
    runs: Vec<Json>,
}

/// Scan `std::env::args()` for `--report-json <path>` and install the
/// collector when present. Binaries call this first thing in `main`.
pub fn init_from_args() {
    let mut args = std::env::args();
    let binary = args
        .next()
        .map(|argv0| {
            PathBuf::from(argv0)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default()
        })
        .unwrap_or_default();
    while let Some(arg) = args.next() {
        if arg == "--report-json" {
            match args.next() {
                Some(path) => return install(&binary, PathBuf::from(path)),
                None => {
                    eprintln!("error: --report-json requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if let Some(path) = arg.strip_prefix("--report-json=") {
            return install(&binary, PathBuf::from(path));
        }
    }
}

/// Install the collector explicitly (tests use this instead of argv).
pub fn install(binary: &str, path: PathBuf) {
    let mut guard = COLLECTOR.lock().unwrap();
    *guard = Some(Collector { path, binary: binary.to_string(), runs: Vec::new() });
}

/// True when a `--report-json` collector is active.
pub fn enabled() -> bool {
    COLLECTOR.lock().unwrap().is_some()
}

/// Capture one run. No-op unless [`init_from_args`]/[`install`] armed the
/// collector; the harness calls this for every completed workload run.
/// Inside a pool worker (see [`capture`]) the entry lands in the point's
/// buffer instead of the global collector.
pub fn record(workload: &str, report: &RunReport) {
    let diverted = CAPTURE.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                buf.push(entry(workload, report));
                true
            }
            None => false,
        }
    });
    if diverted {
        return;
    }
    let mut guard = COLLECTOR.lock().unwrap();
    if let Some(collector) = guard.as_mut() {
        collector.runs.push(entry(workload, report));
    }
}

fn entry(workload: &str, report: &RunReport) -> Json {
    Json::obj().field("workload", workload).field("report", report.to_json())
}

/// Run `f` with [`record`] calls diverted into a per-point buffer, and
/// return the result together with the captured entries. When the
/// collector is disarmed the diversion is skipped entirely (records stay
/// no-ops). The buffer is cleared even if `f` panics, so a reused pool
/// worker never leaks a failed point's records into the next point.
pub(crate) fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Json>) {
    if !enabled() {
        return (f(), Vec::new());
    }
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            CAPTURE.with(|c| *c.borrow_mut() = None);
        }
    }
    CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
    let guard = Guard;
    let r = f();
    let buf = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
    drop(guard);
    (r, buf)
}

/// Append entries captured by [`capture`] to the collector, preserving
/// the caller's (submission) order. No-op when the collector is off.
pub(crate) fn flush_captured(entries: Vec<Json>) {
    if entries.is_empty() {
        return;
    }
    let mut guard = COLLECTOR.lock().unwrap();
    if let Some(collector) = guard.as_mut() {
        collector.runs.extend(entries);
    }
}

/// Write the collected document and disarm the collector. Binaries call
/// this at the end of `main`; without an armed collector it is a no-op.
pub fn finalize() {
    let taken = COLLECTOR.lock().unwrap().take();
    if let Some(collector) = taken {
        let count = collector.runs.len();
        let doc = Json::obj()
            .field("schema", "htm-gil-bench-report/v1")
            .field("binary", collector.binary.as_str())
            .field("run_count", count as u64)
            .field("runs", Json::Arr(collector.runs));
        let mut text = doc.to_pretty();
        text.push('\n');
        match std::fs::write(&collector.path, text) {
            Ok(()) => println!("  [json] {} ({count} runs)", collector.path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", collector.path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_gil_core::RuntimeMode;
    use machine_sim::MachineProfile;

    // The collector is process-global; serialize the tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn collector_captures_runs_and_writes_document() {
        let _guard = TEST_LOCK.lock().unwrap();
        let path =
            std::env::temp_dir().join(format!("htmgil-report-test-{}.json", std::process::id()));
        install("unit-test", path.clone());
        assert!(enabled());
        let w = workloads::micro::while_bench(2, 40);
        let profile = MachineProfile::generic(4);
        let r = crate::run_workload(&w, RuntimeMode::Gil, &profile);
        // run_workload records into the armed collector by itself.
        drop(r);
        finalize();
        assert!(!enabled());
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("htm-gil-bench-report/v1"));
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(doc.get("run_count").unwrap().as_u64(), Some(runs.len() as u64));
        assert!(!runs.is_empty());
        let first = &runs[0];
        assert_eq!(first.get("workload").unwrap().as_str(), Some(w.name));
        let report = first.get("report").unwrap();
        assert_eq!(report.get("schema").unwrap().as_str(), Some("htm-gil-run-report/v2"));
        assert_eq!(report.get("mode").unwrap().as_str(), Some("GIL"));
    }

    #[test]
    fn record_without_collector_is_a_noop() {
        let _guard = TEST_LOCK.lock().unwrap();
        // Must not panic or allocate state when the collector is off.
        let w = workloads::micro::while_bench(1, 10);
        let profile = MachineProfile::generic(2);
        let r = crate::run_workload(&w, RuntimeMode::Gil, &profile);
        record("nobody-listens", &r);
    }
}
