//! `perfbench` — the repository's serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <d7_paper|corpus_router_warm|corpus_cold_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, drives it
//! closed-loop for `--seconds`, checks every answer against the oracle
//! and prints the end-to-end metrics. With `--trace 1` it prints the
//! per-layer metrics of a traced replay instead, plus the tracing
//! overhead. The last stdout line is one JSON object; a result file with
//! a run header (and, traced, a span file) lands in `.bench_out/results/`.
//! A run in which any request failed still prints its result, with
//! `"correct": false`, and then exits with status 1.

mod http;
mod layers;
mod load;
mod oracle;
mod rng;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use uxm_core::json::Json;

use crate::layers::{metric, Metric, PlannerRow};
use crate::load::Tally;
use crate::stats::{beyond, median};
use crate::trace::Tracer;
use crate::workload::{Kind, Setup};

/// Bumped whenever a result file's shape or a metric's meaning changes.
const SCHEMA_VERSION: u64 = 2;
/// Most closed-loop client threads; a run uses `min(nproc, CLIENTS)`.
/// One client per core keeps every core busy. With a single client the
/// cores idle at each hand-over between client and server, and on a
/// virtual machine waking an idle core costs a varying, host-dependent
/// time that then dominates the latencies.
const CLIENTS: usize = 2;
/// Complete set-ups per untraced run; `setup_s` is their median. Each
/// is served, for an equal share of `--seconds`. A stack's speed is set
/// partly at set-up and by where its threads land on the cores, and it
/// keeps that speed while it runs: ten stacks let the run's median
/// average over that.
const STACKS: usize = 10;
/// Upper bounds on the traced replay.
const REPLAY_REQUESTS: u64 = 1500;
const REPLAY_BUDGET: Duration = Duration::from_secs(20);
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <d7_paper|corpus_router_warm|corpus_cold_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("perfbench: {failed} request(s) failed; the run does not count");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its result; returns the number of
/// failed requests.
fn run(args: &Args, work: &Path) -> Result<u64, String> {
    let clients = nproc().clamp(1, CLIENTS);
    let results = Path::new(OUT_DIR).join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let run_index = std::fs::read_dir(&results)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.starts_with(&format!("{stem}-run")) && name.ends_with(".json")
                })
                .count()
        })
        .unwrap_or(0);
    let header = Json::Obj(vec![
        ("clients".into(), Json::uint(clients as u64)),
        ("git_sha".into(), Json::str(git_sha())),
        ("nproc".into(), Json::uint(nproc() as u64)),
        ("run_index".into(), Json::uint(run_index as u64)),
        ("schema_version".into(), Json::uint(SCHEMA_VERSION)),
        ("seconds".into(), Json::uint(args.seconds)),
        ("seed".into(), Json::uint(args.seed)),
        (
            "server_workers".into(),
            Json::uint(workload::SERVER_WORKERS as u64),
        ),
        ("traced".into(), Json::Bool(args.trace)),
        ("workload".into(), Json::str(args.kind.name())),
    ]);
    println!(
        "perfbench {} seed={} run={run_index} trace={} nproc={} clients={clients} git={}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        nproc(),
        git_sha()
    );

    let outcome = if args.trace {
        traced(
            args,
            clients,
            work,
            &results.join(format!("{stem}-run{run_index}.spans.jsonl")),
        )?
    } else {
        untraced(args, clients, work)?
    };

    for f in &outcome.failures {
        println!("  FAILED {f}");
    }
    // Each metric is exactly `{"value", "unit"}`; which of them were
    // measured off the workload's request path is listed beside them.
    let metrics_json = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let file = Json::Obj(vec![
        ("attempted".into(), Json::uint(outcome.attempted)),
        ("details".into(), outcome.details),
        ("failed".into(), Json::uint(outcome.failed)),
        (
            "failures".into(),
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::str(f.as_str()))
                    .collect(),
            ),
        ),
        ("header".into(), header),
        ("metrics".into(), metrics_json.clone()),
        (
            "off_path".into(),
            Json::Arr(outcome.off_path.iter().map(|&n| Json::str(n)).collect()),
        ),
    ]);
    let path = results.join(format!("{stem}-run{run_index}.json"));
    std::fs::write(&path, format!("{file}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  result file {}", path.display());
    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::uint(outcome.attempted)),
        ("failed".into(), Json::uint(outcome.failed)),
        ("metrics".into(), metrics_json),
    ]);
    println!("{last}");
    Ok(outcome.failed)
}

/// What one run measured.
struct Outcome {
    metrics: Vec<Metric>,
    /// Per-layer metrics whose layer is not on the workload's request
    /// path, so they were measured on a side stack.
    off_path: Vec<&'static str>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Workload-specific extras for the result file.
    details: Json,
}

fn untraced(args: &Args, clients: usize, work: &Path) -> Result<Outcome, String> {
    let (first, mut catalog) = set_up(args, work)?;
    let (snapshot_bytes, names) = (first.snapshot_bytes, first.names.len());
    let share = Duration::from_secs(args.seconds) / STACKS as u32;
    let mut next = Some(first);
    let mut setup_runs = Vec::with_capacity(STACKS);
    let mut tally = Tally::default();
    let mut peak_rss = 0.0;
    for i in 0..STACKS {
        let setup = match next.take() {
            Some(setup) => setup,
            None => fresh_setup(args, work, &mut catalog)?,
        };
        setup_runs.push(setup.seconds);
        let stream = 1 + (i * clients) as u64;
        let run = load::drive(
            setup.served.addr,
            &catalog,
            args.seed,
            stream,
            clients,
            share,
        );
        // The peak of one set-up and its load. Later stacks are left
        // out: the allocator keeps some of an earlier stack's memory.
        if i == 0 {
            peak_rss = peak_rss_mb();
        }
        setup.served.stop();
        if run.windows.is_empty() {
            return Err(format!("stack {i}: no request was answered"));
        }
        tally.absorb(run);
    }
    let setup_s = median(&setup_runs).expect("at least one set-up");

    // Each figure is the median over the windows of every stack and
    // client: the host's interference comes in bursts, and the median
    // window leaves them out. The clients run side by side for the whole
    // load, so the throughput is their number times one client's rate.
    let over_windows = |pick: fn(&load::Window) -> f64| {
        median(&tally.windows.iter().map(pick).collect::<Vec<_>>()).expect("checked non-empty")
    };
    let fail_ratio = tally.failed as f64 / tally.attempted as f64;
    let metrics = vec![
        metric("p50_us", "us", over_windows(|w| w.p50_us)),
        metric("p99_us", "us", over_windows(|w| w.p99_us)),
        metric(
            "throughput_rps",
            "1/s",
            clients as f64 * over_windows(|w| w.ok_per_s),
        ),
        metric("ok_ratio", "ratio", 1.0 - fail_ratio),
        metric("setup_s", "s", setup_s),
        metric("snapshot_bytes", "bytes", snapshot_bytes as f64),
        metric("peak_rss_mb", "MB", peak_rss),
    ];
    println!(
        "  {} latency samples in {} windows over {STACKS} stacks ({} beyond each \
         window's p99), {} attempted, {} failed (fail_ratio {fail_ratio}), \
         {names} snapshot(s)",
        tally.answers,
        tally.windows.len(),
        beyond(load::WINDOW_SAMPLES, 99.0),
        tally.attempted,
        tally.failed,
    );
    println!(
        "  set-ups (s): {}",
        setup_runs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    print_metrics(&metrics, &[]);
    let details = Json::Obj(vec![
        ("fail_ratio".into(), Json::Num(fail_ratio)),
        ("samples".into(), Json::uint(tally.answers)),
        (
            "setup_runs_s".into(),
            Json::Arr(setup_runs.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "windows".into(),
            Json::Arr(
                tally
                    .windows
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("ok_per_s".into(), Json::Num(w.ok_per_s)),
                            ("p50_us".into(), Json::Num(w.p50_us)),
                            ("p99_us".into(), Json::Num(w.p99_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        metrics,
        off_path: Vec::new(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        details,
    })
}

fn traced(args: &Args, clients: usize, work: &Path, spans_path: &Path) -> Result<Outcome, String> {
    let (setup, catalog) = set_up(args, work)?;
    // The load records no spans: tracing is done from outside, by the
    // replay below, so it adds nothing to the served path here.
    let before = served_counts(&setup);
    let load = load::drive(
        setup.served.addr,
        &catalog,
        args.seed,
        1,
        clients,
        Duration::from_secs(args.seconds),
    );
    let after = served_counts(&setup);
    let mut tracer = Tracer::new();
    let replay = layers::replay(
        args.kind,
        args.seed,
        &catalog,
        &setup,
        REPLAY_REQUESTS,
        REPLAY_BUDGET,
        &mut tracer,
    );
    setup.served.stop();
    let replay = replay?;

    let phases = &setup.phases;
    let mut metrics = replay.metrics;
    metrics.extend([
        metric(
            "registry.miss_ratio",
            "ratio",
            (after.0 - before.0) as f64 / load.queries.max(1) as f64,
        ),
        metric("registry.evictions", "count", (after.1 - before.1) as f64),
        metric("matching.match_s", "s", phases.match_s),
        metric("mapping.top_h_s", "s", phases.top_h_s),
        metric("block_tree.build_s", "s", phases.block_tree_s),
        metric("xml.docgen_s", "s", phases.docgen_s),
    ]);
    std::fs::write(spans_path, tracer.to_jsonl())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    println!(
        "  traced replay of {} requests, {} spans in {}",
        replay.requests,
        tracer.spans().len(),
        spans_path.display()
    );
    if args.kind == Kind::D7Paper {
        print_planner(&replay.planner);
    }
    print_metrics(&metrics, &replay.off_path);

    let mut failures = load.failures;
    failures.extend(replay.failures);
    let details = Json::Obj(vec![(
        "planner".into(),
        Json::Arr(replay.planner.iter().map(planner_json).collect()),
    )]);
    Ok(Outcome {
        metrics,
        off_path: replay.off_path,
        attempted: load.attempted + replay.attempted,
        failed: load.failed + replay.failed,
        failures,
        details,
    })
}

/// Sets the workload up once, recording the oracle, and keeps it
/// running.
fn set_up(args: &Args, work: &Path) -> Result<(Setup, workload::Catalog), String> {
    let mut catalog = workload::catalog(args.kind, args.seed);
    let setup = workload::setup(
        args.kind,
        args.seed,
        &work.join("snapshots"),
        &mut catalog,
        true,
    )?;
    Ok((setup, catalog))
}

/// A further complete set-up, over the oracle already recorded.
fn fresh_setup(args: &Args, work: &Path, catalog: &mut workload::Catalog) -> Result<Setup, String> {
    workload::setup(
        args.kind,
        args.seed,
        &work.join("snapshots"),
        catalog,
        false,
    )
}

/// `(hydrations, evictions)` of the served registries so far.
fn served_counts(setup: &Setup) -> (u64, u64) {
    let all = match (&setup.served.registry, &setup.served.router) {
        (Some(registry), _) => vec![registry.stats()],
        (None, Some(router)) => router.shard_stats().into_iter().map(|(_, s)| s).collect(),
        (None, None) => Vec::new(),
    };
    all.iter()
        .fold((0, 0), |(h, e), s| (h + s.hydrations, e + s.evictions))
}

fn print_metrics(metrics: &[Metric], off_path: &[&str]) {
    for m in metrics {
        let note = match off_path.contains(&m.name) {
            true => "  (off this workload's path: measured on a side stack)",
            false => "",
        };
        println!("  {:<34} {:>16.4} {}{note}", m.name, m.value, m.unit);
    }
}

fn print_planner(rows: &[PlannerRow]) {
    println!(
        "  planner regret (µs, median of runs; regret = auto / fastest pinned)\n  \
         {:<28} {:>4} {:>9} {:>9} {:>10} {:>9} {:>7}  chosen (reason)",
        "query", "runs", "auto", "compiled", "block-tree", "naive", "regret"
    );
    for r in rows {
        println!(
            "  {:<28} {:>4} {:>9.1} {:>9.1} {:>10.1} {:>9.1} {:>7.2}  {} ({})",
            r.label,
            r.runs,
            r.auto_us,
            r.compiled_us,
            r.block_tree_us,
            r.naive_us,
            r.regret,
            r.backend,
            r.reason
        );
    }
}

fn planner_json(r: &PlannerRow) -> Json {
    Json::Obj(vec![
        ("auto_us".into(), Json::Num(r.auto_us)),
        ("backend".into(), Json::str(r.backend)),
        ("block_tree_us".into(), Json::Num(r.block_tree_us)),
        ("compiled_us".into(), Json::Num(r.compiled_us)),
        ("naive_us".into(), Json::Num(r.naive_us)),
        ("query".into(), Json::str(r.label.as_str())),
        ("reason".into(), Json::str(r.reason)),
        ("regret".into(), Json::Num(r.regret)),
        ("runs".into(), Json::uint(r.runs as u64)),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree; `unknown`
/// otherwise. Reads `.git` in the working directory only.
fn git_sha() -> String {
    let git = PathBuf::from(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
