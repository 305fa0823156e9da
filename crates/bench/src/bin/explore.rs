//! `explore` — schedule-space exploration driver.
//!
//! Searches the scheduler's decision tree for interleavings that break
//! GIL-equivalence (see `bench::explore` and DESIGN.md §14). Examples:
//!
//! ```text
//! explore --mode dfs --budget 400 --max-preempt 3 --jobs auto
//! explore --mode random --walks 128 --depth 24 --seed 7
//! explore --target torn-pair/bug/htm16 --bug-demo --stop-first --expect-violation
//! explore --replay 000201 --target mutex-counter/htm16
//! explore --list
//! ```
//!
//! Exit status is 0 when the outcome matches expectation: no violations
//! normally, at least one under `--expect-violation`. The stats document
//! (`--report-json`, schema `htm-gil-explore-report/v2`) carries no
//! `jobs` field — it is byte-identical at any pool size. Repro artifacts
//! for every violation are written next to the stats (or under
//! `bench-results/explore/`).

use bench::explore::{
    bug_demo_target, clean_targets, dfs, lazy_sub_clean_targets, lazy_sub_demo_target,
    random_walks, repro_json, stats_json, torn_pair_clean_target, ExploreOutcome, SearchParams,
    WalkParams,
};
use bench::runner;
use htm_gil_core::explore::{check_path, gil_expected, ExploreTarget};
use machine_sim::SchedPath;

fn usage() -> ! {
    eprintln!(
        "usage: explore [--mode dfs|random] [--budget N] [--max-preempt K] [--horizon H]\n\
         \x20              [--walks N] [--depth D] [--seed S] [--jobs N|auto]\n\
         \x20              [--target ID] [--bug-demo] [--lazy-demo] [--stop-first]\n\
         \x20              [--expect-violation] [--replay HEX] [--report-json PATH]\n\
         \x20              [--repro-dir PATH] [--list]"
    );
    std::process::exit(2)
}

struct Cli {
    mode: String,
    params: SearchParams,
    walk: WalkParams,
    target: Option<String>,
    bug_demo: bool,
    lazy_demo: bool,
    expect_violation: bool,
    replay: Option<SchedPath>,
    report_json: Option<String>,
    repro_dir: Option<String>,
    list: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        mode: "dfs".into(),
        params: SearchParams::default(),
        walk: WalkParams::default(),
        target: None,
        bug_demo: false,
        lazy_demo: false,
        expect_violation: false,
        replay: None,
        report_json: None,
        repro_dir: None,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} requires a value");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => cli.mode = need(&mut args, "--mode"),
            "--budget" => cli.params.budget = parse_num(&need(&mut args, "--budget")),
            "--max-preempt" => {
                cli.params.max_preempt = parse_num(&need(&mut args, "--max-preempt")) as u32
            }
            "--horizon" => cli.params.horizon = parse_num(&need(&mut args, "--horizon")) as usize,
            "--shrink-budget" => {
                cli.params.shrink_budget = parse_num(&need(&mut args, "--shrink-budget"))
            }
            "--walks" => cli.walk.walks = parse_num(&need(&mut args, "--walks")),
            "--depth" => cli.walk.depth = parse_num(&need(&mut args, "--depth")) as usize,
            "--seed" => cli.walk.seed = parse_num(&need(&mut args, "--seed")),
            "--jobs" => runner::set_jobs(parse_jobs(&need(&mut args, "--jobs"))),
            "--target" => cli.target = Some(need(&mut args, "--target")),
            "--replay" => {
                let hex = need(&mut args, "--replay");
                match SchedPath::from_hex(&hex) {
                    Ok(p) => cli.replay = Some(p),
                    Err(e) => {
                        eprintln!("error: --replay {hex}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--report-json" => cli.report_json = Some(need(&mut args, "--report-json")),
            "--repro-dir" => cli.repro_dir = Some(need(&mut args, "--repro-dir")),
            "--bug-demo" => cli.bug_demo = true,
            "--lazy-demo" => cli.lazy_demo = true,
            "--stop-first" => cli.params.stop_first = true,
            "--expect-violation" => cli.expect_violation = true,
            "--list" => cli.list = true,
            other => {
                if let Some(v) = other.strip_prefix("--jobs=") {
                    runner::set_jobs(parse_jobs(v));
                } else {
                    eprintln!("error: unknown flag {other}");
                    usage()
                }
            }
        }
    }
    cli
}

fn parse_num(v: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: expected a number, got {v:?}");
        usage()
    })
}

fn parse_jobs(v: &str) -> usize {
    if v == "auto" {
        runner::auto_jobs()
    } else {
        parse_num(v) as usize
    }
}

fn corpus(cli: &Cli) -> Vec<ExploreTarget> {
    let quick = bench::quick();
    let mut targets = clean_targets(quick);
    targets.push(torn_pair_clean_target(quick));
    if cli.bug_demo {
        targets.push(bug_demo_target(quick));
    }
    if cli.lazy_demo {
        targets.extend(lazy_sub_clean_targets(quick));
        targets.push(lazy_sub_demo_target(quick));
    }
    if let Some(id) = &cli.target {
        targets.retain(|t| &t.id == id);
        if targets.is_empty() {
            eprintln!("error: no target matches {id:?} (try --list)");
            std::process::exit(2);
        }
    }
    targets
}

fn main() {
    let cli = parse_cli();
    if let Ok(v) = std::env::var("HTMGIL_JOBS") {
        if !v.is_empty() {
            runner::set_jobs(parse_jobs(&v));
        }
    }
    let targets = corpus(&cli);
    if cli.list {
        println!("targets ({} available):", targets.len());
        for t in &targets {
            println!(
                "  {:28} mode={:12} sub={:12} threads={} interrupts={} bug={}",
                t.id,
                t.mode.label(),
                t.subscription.label(),
                t.threads,
                t.interrupts,
                t.bug_dirty_read
            );
        }
        return;
    }
    if let Some(path) = &cli.replay {
        replay_one(&cli, &targets, path);
        return;
    }
    let jobs = runner::jobs();
    let mut all_stats = Vec::new();
    let mut total_violations = 0u64;
    let repro_dir = cli
        .repro_dir
        .clone()
        .unwrap_or_else(|| bench::results_dir().join("explore").display().to_string());
    for target in &targets {
        eprintln!("  [explore] {} ({})", target.id, cli.mode);
        let out: ExploreOutcome = match cli.mode.as_str() {
            "dfs" => dfs(target, &cli.params, jobs),
            "random" => random_walks(target, &cli.params, &cli.walk, jobs),
            other => {
                eprintln!("error: unknown --mode {other:?} (dfs|random)");
                usage()
            }
        };
        println!(
            "{:28} executions={:5} distinct={:5} max_depth={:5} max_preempt={} violations={}",
            target.id,
            out.stats.executions,
            out.stats.distinct_paths,
            out.stats.max_depth,
            out.stats.max_preemptions,
            out.stats.violations,
        );
        if !out.violations.is_empty() {
            let expected = gil_expected(target);
            let _ = std::fs::create_dir_all(&repro_dir);
            for (i, v) in out.violations.iter().enumerate() {
                let file = format!("{repro_dir}/{}-{i}.json", target.id.replace(['/', ' '], "_"));
                let doc = repro_json(target, &expected, v);
                if let Err(e) = std::fs::write(&file, doc.to_pretty()) {
                    eprintln!("warning: could not write {file}: {e}");
                } else {
                    println!(
                        "  [repro] {file}  path={} trail=\"{}\"",
                        v.minimized.to_hex(),
                        v.trail
                    );
                }
                println!("  [violation] {}", v.mismatch.lines().next().unwrap_or(""));
            }
        }
        total_violations += out.stats.violations;
        all_stats.push(out.stats);
        if cli.params.stop_first && total_violations > 0 {
            break;
        }
    }
    let doc = stats_json(&cli.mode, &cli.params, &all_stats);
    if let Some(path) = &cli.report_json {
        std::fs::write(path, doc.to_pretty()).expect("write exploration stats");
        println!("  [json] {path}");
    }
    let ok = (total_violations > 0) == cli.expect_violation;
    if !ok {
        if cli.expect_violation {
            eprintln!("FAIL: expected the search to find a violation, found none");
        } else {
            eprintln!("FAIL: {total_violations} schedule(s) diverged from the GIL oracle");
        }
        std::process::exit(1);
    }
    println!(
        "OK: {} target(s), {} executions, {} violation(s){}",
        all_stats.len(),
        all_stats.iter().map(|s| s.executions).sum::<u64>(),
        total_violations,
        if cli.expect_violation { " (expected)" } else { "" }
    );
}

fn replay_one(cli: &Cli, targets: &[ExploreTarget], path: &SchedPath) {
    let target = match (targets, &cli.target) {
        ([t], _) => t,
        (ts, None) => {
            eprintln!("error: --replay needs --target (candidates: {})", ts.len());
            std::process::exit(2);
        }
        _ => unreachable!("corpus() already filtered by --target"),
    };
    let expected = gil_expected(target);
    let (run, mismatch) = check_path(target, &expected, path);
    println!("replay {} on {}", path.to_hex(), target.id);
    println!(
        "  decisions={} preemptions={} stdout={:?}",
        run.decisions, run.preemptions, run.stdout
    );
    match mismatch {
        Some(m) => {
            println!("  VIOLATION: {m}");
            if !cli.expect_violation {
                std::process::exit(1);
            }
        }
        None => {
            println!("  matches the GIL oracle");
            if cli.expect_violation {
                eprintln!("FAIL: expected this path to violate");
                std::process::exit(1);
            }
        }
    }
}
