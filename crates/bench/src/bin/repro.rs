//! Regenerates the paper's tables and figures, and runs the kernel/index
//! micro-benchmarks (end-to-end numbers come from `benchmark/run.sh`).
//!
//! ```text
//! cargo run --release -p mesorasi-bench --bin repro            # everything
//! cargo run --release -p mesorasi-bench --bin repro -- fig17   # one figure
//! cargo run --release -p mesorasi-bench --bin repro -- --list  # list ids
//! cargo run --release -p mesorasi-bench --bin repro -- bench --json --smoke
//! cargo run --release -p mesorasi-bench --bin repro -- bench-diff --baseline BENCH_<date>.json
//! ```

use mesorasi_bench::{diff, experiments, perf, Context};
use mesorasi_core::Strategy;
use mesorasi_networks::registry::NetworkKind;
use std::io::Write;
use std::time::Instant;

/// Writes `s` plus a newline to stdout. A closed pipe (`repro ... | head`)
/// is a clean exit, not a panic — the standard Rust CLI SIGPIPE wart.
fn emit(s: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{s}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed writing to stdout: {e}");
    }
}

/// Probes that `path` is writable *before* the expensive measurement
/// runs, so a bad `--out` fails in milliseconds with a clear message
/// instead of a panic that loses a multi-minute run. The probe creates
/// (or truncates nothing of) the file; the real artifact overwrites it.
fn ensure_writable(path: &str) {
    if let Err(e) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        eprintln!("[repro] cannot write --out path {path}: {e}");
        std::process::exit(2);
    }
}

/// Compares a fresh (or `--current`) bench artifact against a committed
/// baseline (`repro bench-diff --baseline PATH [--current PATH]
/// [--threshold X] [--smoke]`) and exits non-zero past the threshold.
fn run_bench_diff(args: &[String]) -> ! {
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut threshold = diff::DEFAULT_THRESHOLD;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => {
                    eprintln!("[repro] --baseline requires a path");
                    std::process::exit(2);
                }
            },
            "--current" => match it.next() {
                Some(p) => current_path = Some(p.clone()),
                None => {
                    eprintln!("[repro] --current requires a path");
                    std::process::exit(2);
                }
            },
            "--threshold" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t > 1.0 => threshold = t,
                _ => {
                    eprintln!("[repro] --threshold requires a number > 1.0");
                    std::process::exit(2);
                }
            },
            "--smoke" => smoke = true,
            other => {
                eprintln!(
                    "[repro] unknown bench-diff flag '{other}' (use --baseline PATH, \
                     --current PATH, --threshold X, --smoke)"
                );
                std::process::exit(2);
            }
        }
    }
    let Some(baseline_path) = baseline_path else {
        eprintln!("[repro] bench-diff requires --baseline PATH (the committed BENCH_*.json)");
        std::process::exit(2);
    };

    let read_report = |path: &str| -> diff::ParsedReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("[repro] cannot read {path}: {e}");
            std::process::exit(2);
        });
        diff::parse_report(&text).unwrap_or_else(|e| {
            eprintln!("[repro] cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };

    let baseline = read_report(&baseline_path);
    let current = match current_path {
        Some(p) => read_report(&p),
        None => {
            // Measure fresh, at the baseline's own scale unless --smoke
            // forces the reduced workloads (the diff refuses mismatches).
            eprintln!(
                "[repro] bench-diff: measuring a fresh {} run against {baseline_path}...",
                if smoke { "smoke" } else { "full" }
            );
            let report = perf::run(smoke);
            diff::parse_report(&report.to_json()).expect("the writer's own output parses")
        }
    };

    let d = diff::diff(&baseline, &current, threshold).unwrap_or_else(|e| {
        eprintln!("[repro] bench-diff: {e}");
        std::process::exit(2);
    });
    emit(d.to_table().trim_end());
    let regressions = d.regressions();
    for r in &regressions {
        eprintln!(
            "[repro] TRAJECTORY REGRESSION: {} is {:.2}x its committed baseline (gate: {:.2}x)",
            r.key, r.ratio, threshold
        );
    }
    std::process::exit(if regressions.is_empty() { 0 } else { 1 });
}

/// Runs the perf harness (`repro bench [--json] [--smoke] [--out PATH]`).
fn run_bench(args: &[String]) -> ! {
    let mut json = false;
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("[repro] --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("[repro] unknown bench flag '{other}' (use --json, --smoke, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    if let Some(p) = &out_path {
        ensure_writable(p);
    }
    eprintln!(
        "[repro] bench: {} workloads on {} host thread(s)...",
        if smoke { "smoke" } else { "full" },
        mesorasi_par::current_threads()
    );
    let report = perf::run(smoke);

    // The JSON artifact and the regression gate are the point of this
    // subcommand — neither may be skipped because stdout went away
    // (`repro bench ... | head`), so both happen before, and independently
    // of, table printing. A broken pipe here only silences the table.
    if json {
        let path = out_path.unwrap_or_else(|| report.filename());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("[repro] cannot write {path}: {e} — the run is lost, fix the path");
            std::process::exit(2);
        }
        eprintln!("[repro] wrote {path}");
    }

    {
        let mut out = std::io::stdout().lock();
        if let Err(e) = writeln!(out, "{}", report.to_table().trim_end()) {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                panic!("failed writing to stdout: {e}");
            }
        }
    }

    let regressions = report.regressions();
    if smoke && !regressions.is_empty() {
        for r in &regressions {
            eprintln!(
                "[repro] REGRESSION: {}/{} at {} threads is {:.2}x the sequential time \
                 (gate: 1.5x)",
                r.op,
                r.backend,
                r.threads,
                1.0 / r.speedup_vs_1t
            );
        }
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        emit("Regenerates the paper's tables and figures.");
        emit("");
        emit("usage: repro [--list] [EXPERIMENT_ID ...]");
        emit("       repro bench [--json] [--smoke] [--out PATH]");
        emit("       repro bench-diff --baseline PATH [--current PATH]");
        emit("                        [--threshold X] [--smoke]");
        emit("");
        emit("With no arguments every experiment runs in order. Paper-scale");
        emit("traces are built once (in parallel) and shared.");
        emit("");
        emit("`repro bench` times the kernels (matmul family, group/gather");
        emit("reductions, knn/ball/feature queries, index builds) and the");
        emit("large-cloud index_build/query sweep across a thread sweep; --json");
        emit("writes BENCH_<date>.json (mesorasi-bench/9), --smoke runs reduced");
        emit("workloads and exits non-zero if a parallel record is more than");
        emit("1.5x slower than its 1-thread record. MESORASI_THREADS caps the");
        emit("pool. Frame, stream and server numbers: benchmark/run.sh.");
        emit("");
        emit("`repro bench-diff` compares a bench artifact (--current, or a");
        emit("fresh in-process run) against a committed baseline per (op,");
        emit("backend, threads, dtype, points, mode) record, printing a");
        emit("trajectory table and exiting non-zero when any shared");
        emit("configuration is more than --threshold (default 1.5) times slower.");
        return;
    }
    if args.first().map(String::as_str) == Some("bench") {
        run_bench(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench-diff") {
        run_bench_diff(&args[1..]);
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in experiments::all() {
            emit(id);
        }
        return;
    }

    let ctx = Context::new();
    let known = experiments::all();
    let selected: Vec<String> =
        if args.is_empty() { known.iter().map(|(id, _)| (*id).to_owned()).collect() } else { args };

    // Reject unknown ids before the expensive trace warm-up.
    for id in &selected {
        if !known.iter().any(|(name, _)| name == id) {
            eprintln!("[repro] unknown experiment '{id}'; use --list");
            std::process::exit(2);
        }
    }

    // Warm the trace cache in parallel for the trace-based experiments.
    let needs_traces =
        selected.iter().any(|id| !matches!(id.as_str(), "table1" | "fig06" | "area" | "fig16"));
    if needs_traces {
        eprintln!("[repro] building paper-scale traces (parallel)...");
        let t0 = Instant::now();
        ctx.warm_traces(&NetworkKind::ALL, &Strategy::ALL);
        eprintln!("[repro] traces ready in {:.1}s", t0.elapsed().as_secs_f64());
    }

    for id in &selected {
        let t0 = Instant::now();
        let output = experiments::run_one(&ctx, id).expect("ids validated above");
        emit(&output);
        eprintln!("[repro] {id} done in {:.1}s\n", t0.elapsed().as_secs_f64());
    }
}
