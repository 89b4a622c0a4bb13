//! `mesorasi-benchmark`: the repo's benchmark (see `BENCHMARK.json` and
//! `benchmark/README.md`).
//!
//! ```text
//! mesorasi-benchmark [--out DIR] [run|trace] --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! mesorasi-benchmark [--out DIR] suite [--repeat N] [--seed N] [--seconds S] [--tag T] [--smoke]
//! mesorasi-benchmark compare <a.json> <b.json>
//! ```
//!
//! One process measures one workload. Whatever else it prints, the last
//! line of a run's standard output is the one-object JSON result.

#![forbid(unsafe_code)]

mod compare;
mod contract;
mod json;
mod measure;
mod procfs;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use contract::Contract;
use json::Json;
use measure::Report;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::Spec;

/// Command-line options shared by the run kinds.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    out: PathBuf,
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    tag: String,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        out: PathBuf::from("benchmark/out"),
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        tag: "suite".into(),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "--workload" => o.workload = Some(value("a name")?),
            "--seed" => o.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                o.seconds = Some(s);
            }
            "--trace" => o.trace = value("0 or 1")? == "1",
            "--repeat" => {
                o.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            "--tag" => o.tag = value("a name")?,
            "--smoke" => o.smoke = true,
            "run" | "trace" | "suite" | "compare" if o.command.is_empty() => {
                o.command = arg.clone();
            }
            other if o.command == "compare" && !other.starts_with("--") => {
                o.files.push(other.to_owned());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.command.is_empty() {
        o.command = if o.workload.is_some() { "run" } else { "suite" }.into();
    }
    o.trace |= o.command == "trace";
    Ok(o)
}

/// `nproc`, `rustc -V`, the commit — recorded in every result file.
fn environment(cores: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json::obj([
        ("nproc", json::count(nproc as u64)),
        ("frame_threads", json::count(measure::FRAME_THREADS as u64)),
        ("cores_used", json::count(cores as u64)),
        ("rustc", json::string(procfs::command_line("rustc", &["-V"]))),
        ("commit", json::string(procfs::command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

fn metrics_json(contract: &Contract, report: &Report) -> Json {
    json::obj(report.metrics.iter().map(|&(name, value)| {
        let unit = contract.unit(name).unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
        (name, json::obj([("value", json::num(value)), ("unit", json::string(unit))]))
    }))
}

/// One run: measure, print every metric with its unit, write the result
/// file (and the spans, traced), and end with the one-line JSON result.
fn run_one(o: &Options, contract: &Contract, cores: usize) -> Result<(), String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let spec = Spec::named(name, o.smoke).ok_or(format!("unknown workload {name}"))?;
    let seconds = o.seconds.unwrap_or(contract.run_seconds);
    let mode = if o.trace { "trace" } else { "run" };
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;

    let report = if o.trace {
        let (report, tracer) = measure::traced(&spec, o.seed, seconds, cores);
        let path = o.out.join(format!("trace-{name}.json"));
        write_file(&path, &json::pretty(&tracer.to_json(name)))?;
        println!("spans: {} -> {}", tracer.spans().len(), path.display());
        report
    } else {
        measure::end_to_end(&spec, o.seed, seconds, cores)
    };

    println!(
        "workload {name} ({mode}), seed {}, {seconds} s, {} thread(s) per frame, {cores} core(s) used",
        o.seed,
        measure::FRAME_THREADS
    );
    for &(metric, value) in &report.metrics {
        println!("  {metric:<34} {value:>16.4} {}", contract.unit(metric).unwrap_or("?"));
    }
    println!(
        "  frames: {} attempted after {} warm-up, {} failed ({} errored, {} shed, {} missing, \
         {} output != tape); failed_share = {}",
        report.attempted,
        report.warmup_frames,
        report.failed(),
        report.errored,
        report.shed,
        report.missing,
        report.mismatched,
        report.failed_share()
    );
    println!(
        "  latency samples: {} ({} beyond p90); setups timed: {}; oracle_s = {:.3}",
        report.samples, report.beyond_p90, report.setups, report.oracle_s
    );

    let metrics = metrics_json(contract, &report);
    let doc = json::obj([
        ("schema", json::string("mesorasi-benchmark/1")),
        ("workload", json::string(name)),
        ("mode", json::string(mode)),
        ("seed", json::count(o.seed)),
        ("seconds", json::num(seconds)),
        ("smoke", Json::Bool(o.smoke)),
        ("env", environment(cores)),
        (
            "frames",
            json::obj([
                ("warmup", json::count(report.warmup_frames)),
                ("attempted", json::count(report.attempted)),
                ("failed", json::count(report.failed())),
                ("errored", json::count(report.errored)),
                ("shed", json::count(report.shed)),
                ("missing", json::count(report.missing)),
                ("mismatched", json::count(report.mismatched)),
            ]),
        ),
        ("failed_share", json::num(report.failed_share())),
        (
            "samples",
            json::obj([
                ("frame_ms", json::count(report.samples as u64)),
                ("beyond_p90", json::count(report.beyond_p90 as u64)),
                ("setups", json::count(report.setups as u64)),
            ]),
        ),
        ("oracle_s", json::num(report.oracle_s)),
        ("metrics", metrics.clone()),
    ]);
    let file = if o.trace { format!("{name}.trace.json") } else { format!("{name}.json") };
    write_file(&o.out.join(file), &json::pretty(&doc))?;

    let result = json::obj([
        ("correct", Json::Bool(report.failed() == 0 && report.attempted > 0)),
        ("attempted", json::count(report.attempted.max(1))),
        ("failed", json::count(report.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", json::compact(&result));
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The whole set, `--repeat` times: one child process per workload and
/// repeat, every metric's median and quartiles at the end, and the
/// Original/Delayed wall-clock ratio of the paper's Fig. 17.
fn suite(o: &Options, contract: &Contract) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut values = compare::Values::new();
    for rep in 0..o.repeat.max(1) {
        for name in &contract.workloads {
            let mut cmd = Command::new(&exe);
            cmd.arg("--out").arg(&o.out).args(["run", "--workload", name]);
            cmd.args(["--seed", &o.seed.to_string()]);
            if let Some(s) = o.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if o.smoke {
                cmd.arg("--smoke");
            }
            // The child's MESORASI_THREADS is this process's own pin.
            cmd.env_remove("MESORASI_THREADS");
            println!("--- repeat {} of {}: {name}", rep + 1, o.repeat.max(1));
            let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
            if !status.success() {
                return Err(format!("{name} exited with {status}"));
            }
            let run = compare::load(&read_json(&o.out.join(format!("{name}.json")))?)?;
            for (workload, metrics) in run {
                for (metric, v) in metrics {
                    values
                        .entry(workload.clone())
                        .or_default()
                        .entry(metric)
                        .or_default()
                        .extend(v);
                }
            }
        }
    }

    println!("=== {} repeat(s), seed {}: median [q1, q3] (spread) ===", o.repeat.max(1), o.seed);
    for name in &contract.workloads {
        for def in &contract.end_to_end {
            let v = &values[name][&def.name];
            let (q1, q3) = stats::quartiles(v);
            println!(
                "{name:<14} {:<18} {:>12.4} [{q1:.4}, {q3:.4}] ({:.1} %) {}",
                def.name,
                stats::median(v),
                stats::spread(v) * 100.0,
                def.unit
            );
        }
    }
    let p50 = |w: &str| values.get(w).and_then(|m| m.get("frame_ms_p50")).map(|v| stats::median(v));
    let speedup = match (p50("pnpp_original"), p50("pnpp_delayed")) {
        (Some(orig), Some(delayed)) if delayed > 0.0 => orig / delayed,
        _ => 0.0,
    };
    println!(
        "derived.delayed_speedup_pnpp = {speedup:.4} ratio (pnpp_original / pnpp_delayed p50)"
    );

    let workloads = json::obj(values.iter().map(|(w, metrics)| {
        let lists = metrics
            .iter()
            .map(|(m, v)| (m.clone(), Json::Arr(v.iter().map(|&x| json::num(x)).collect())));
        (w.clone(), json::obj(lists))
    }));
    let doc = json::obj([
        ("schema", json::string("mesorasi-benchmark-suite/1")),
        ("seed", json::count(o.seed)),
        ("repeat", json::count(o.repeat.max(1) as u64)),
        ("smoke", Json::Bool(o.smoke)),
        ("derived", json::obj([("delayed_speedup_pnpp", json::num(speedup))])),
        ("workloads", workloads),
    ]);
    let path = o.out.join(format!("{}.json", o.tag));
    write_file(&path, &json::pretty(&doc))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn compare_files(o: &Options, contract: &Contract) -> Result<bool, String> {
    let [a, b] = o.files.as_slice() else { return Err("compare takes two files".into()) };
    let a = compare::load(&read_json(Path::new(a))?)?;
    let b = compare::load(&read_json(Path::new(b))?)?;
    let rows = compare::compare(contract, &a, &b);
    print!("{}", compare::table(contract, &rows));
    let counts: BTreeMap<&str, usize> = rows.iter().fold(BTreeMap::new(), |mut m, r| {
        *m.entry(r.verdict.label()).or_default() += 1;
        m
    });
    println!("{counts:?}");
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mesorasi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The program reads MESORASI_* knobs in several places; none may leak
    // in from outside. The one the harness sets itself pins every thread
    // pool — the server's dispatchers included — to the frame thread count.
    let stray = procfs::mesorasi_env_vars();
    if !stray.is_empty() {
        eprintln!("mesorasi-benchmark: refusing to run with {stray:?} set; unset them");
        return ExitCode::from(2);
    }
    std::env::set_var("MESORASI_THREADS", measure::FRAME_THREADS.to_string());
    // Cores for what runs beside the frames: the oracle, the two-engine
    // server, and the traced run's 2-thread comparisons.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);

    let contract = Contract::load();
    let outcome = match options.command.as_str() {
        "suite" => suite(&options, &contract).map(|()| true),
        "compare" => compare_files(&options, &contract),
        _ => run_one(&options, &contract, cores).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mesorasi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_acceptance_drivers_arguments_select_a_run_or_a_traced_run() {
        let o = parse_args(&args("--out x --workload scene_32k --seed 7 --seconds 15 --trace 0"))
            .expect("parses");
        assert_eq!((o.command.as_str(), o.trace, o.seed, o.seconds), ("run", false, 7, Some(15.0)));
        assert_eq!(o.out, PathBuf::from("x"));
        let o = parse_args(&args("--workload scene_32k --seed 7 --seconds 15 --trace 1"))
            .expect("parses");
        assert!(o.trace);
        assert!(parse_args(&args("trace --workload w")).expect("parses").trace);
    }

    #[test]
    fn no_workload_means_the_whole_suite_and_bad_input_is_refused() {
        assert_eq!(parse_args(&[]).expect("parses").command, "suite");
        let o = parse_args(&args("suite --repeat 3 --tag base")).expect("parses");
        assert_eq!((o.repeat, o.tag.as_str()), (3, "base"));
        let o = parse_args(&args("compare a.json b.json")).expect("parses");
        assert_eq!(o.files, ["a.json", "b.json"]);
        for bad in ["--seconds 0", "--seconds nan", "--seed x", "--workload", "--frobnicate"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
