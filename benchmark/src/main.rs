//! `ledger` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run, one process
//! ledger run [--seed N] [--seconds S] [--repeat R] [--smoke] [--out FILE]
//! ledger compare BASE.json NEW.json
//! ledger selfcheck [--seed N] [--seconds S]
//! ledger manifest                                        prints BENCHMARK.json
//! ledger keep-awake                                      child of a run, see `awake.rs`
//! ```

mod awake;
mod fixture;
mod ledger;
mod measure;
mod names;
mod probes;
mod procfs;
mod replay;
mod schedule;
mod spans;
mod stats;
mod workloads;

use ledger::{ResultFile, Verdict, WorkloadResult};
use measure::Outcome;
use names::END_TO_END;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use tincy_json::{JsonArray, JsonObject};
use workloads::{RunSpec, Workload};

/// Where span files and result files go, relative to the directory the
/// command is run from (the repo root).
const OUT_DIR: &str = "benchmark/out";
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 16;
/// Run length of `--smoke` (correctness checks on, numbers not kept).
const SMOKE_SECONDS: f64 = 2.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> --seed N --seconds S --trace 0|1\n\
         \x20      ledger run [--seed N] [--seconds S] [--repeat R] [--smoke] [--out FILE]\n\
         \x20      ledger compare BASE.json NEW.json\n\
         \x20      ledger selfcheck [--seed N] [--seconds S]\n\
         \x20      ledger manifest",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Self {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = if switches.contains(&name) {
                    None
                } else {
                    iter.next().cloned()
                };
                flags.push((name.to_string(), value));
            } else {
                words.push(arg.clone());
            }
        }
        Self { flags, words }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(text))) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
            Some((_, None)) => Err(format!("--{name} needs a value")),
        }
    }

    fn unknown(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .map(|(n, _)| n.as_str())
            .find(|n| !known.contains(n))
    }
}

/// The last line of a run: the contract's JSON object.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = JsonObject::new();
    for metric in &outcome.metrics {
        let body = JsonObject::new()
            .raw("value", &ledger::number(metric.value))
            .str("unit", metric.unit)
            .finish();
        metrics = metrics.raw(&metric.name, &body);
    }
    JsonObject::new()
        .bool("correct", outcome.correct())
        .u64("attempted", outcome.attempted.max(1))
        .u64("failed", outcome.failed)
        .raw("metrics", &metrics.finish())
        .finish()
}

/// One run in this process: every metric by name with its unit, then the
/// result line. Exit 1 on any correctness violation.
fn single_run(args: &Args) -> Result<ExitCode, String> {
    if let Some(flag) = args.unknown(&["workload", "seed", "seconds", "trace"]) {
        return Err(format!("unknown flag --{flag}"));
    }
    let name: String = args.value("workload")?.ok_or("--workload is required")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.value("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.value("seconds")?.ok_or("--seconds is required")?;
    let trace: u8 = args.value("trace")?.ok_or("--trace is required")?;
    if !(seconds.is_finite() && (1.0..=60.0).contains(&seconds)) || trace > 1 {
        return Err("--seconds must be 1..=60 and --trace 0 or 1".to_string());
    }
    let spec = RunSpec {
        workload,
        seed,
        seconds,
    };
    let awake = awake::KeepAwake::start();
    let mut outcome = if trace == 1 {
        measure::traced(spec, Path::new(OUT_DIR))
    } else {
        measure::untraced(spec)
    };
    outcome.warnings.extend(awake.stop());
    println!(
        "# {} seed {seed} {seconds} s {} ({} cores)",
        workload.name(),
        if trace == 1 { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for metric in &outcome.metrics {
        println!("{:<34} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for warning in &outcome.warnings {
        println!("# WARNING: {warning}");
    }
    for violation in &outcome.violations {
        println!("# VIOLATION: {violation}");
    }
    println!("{}", result_line(&outcome));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process (so peak RSS, the kernel plan
/// cache and the trace recorder are per workload) and reads its result
/// line back.
fn child_run(spec: RunSpec, trace: u8) -> Result<(u64, u64, ledger::Series), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "{} (trace {trace}) failed: {}",
            spec.workload.name(),
            output.status
        ));
    }
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = tincy_json::parse(line)?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(tincy_json::JsonValue::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let tincy_json::JsonValue::Obj(metrics) = doc.get("metrics").ok_or("no metrics")? else {
        return Err("metrics is not an object".to_string());
    };
    let mut series = ledger::Series::new();
    for (name, body) in metrics {
        let value = body
            .get("value")
            .and_then(tincy_json::JsonValue::as_f64)
            .ok_or_else(|| format!("{name} has no value"))?;
        series.insert(name.clone(), vec![value]);
    }
    Ok((count("attempted")?, count("failed")?, series))
}

/// Runs the whole suite `repeat` times and folds everything into one
/// result. The workload order alternates between passes (and starts
/// reversed when `reversed`), so drift does not always land on the same
/// workload.
fn suite(seed: u64, seconds: f64, repeat: usize, reversed: bool) -> Result<ResultFile, String> {
    let mut result = ResultFile {
        seed,
        seconds,
        vocabulary: ledger::vocabulary(),
        workloads: Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), WorkloadResult::default()))
            .collect(),
    };
    for pass in 0..repeat {
        let mut order = Workload::ALL.to_vec();
        if reversed != (pass % 2 == 1) {
            order.reverse();
        }
        for workload in order {
            let spec = RunSpec {
                workload,
                seed,
                seconds,
            };
            let (attempted, failed, end_to_end) = child_run(spec, 0)?;
            let (_, _, per_layer) = child_run(spec, 1)?;
            let entry = result
                .workloads
                .get_mut(workload.name())
                .expect("every workload has an entry");
            entry.attempted.push(attempted);
            entry.failed.push(failed);
            for (into, from) in [
                (&mut entry.end_to_end, end_to_end),
                (&mut entry.per_layer, per_layer),
            ] {
                for (name, values) in from {
                    into.entry(name).or_default().extend(values);
                }
            }
        }
    }
    Ok(result)
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    if let Some(flag) = args.unknown(&["seed", "seconds", "repeat", "smoke", "out"]) {
        return Err(format!("unknown flag --{flag}"));
    }
    let smoke = args.has("smoke");
    let seed: u64 = args.value("seed")?.unwrap_or(1);
    #[allow(clippy::cast_precision_loss)]
    let seconds: f64 = if smoke {
        SMOKE_SECONDS
    } else {
        args.value("seconds")?.unwrap_or(RUN_SECONDS as f64)
    };
    let repeat: usize = args.value("repeat")?.unwrap_or(1).max(1);
    let out: PathBuf = args
        .value("out")?
        .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    let result = suite(seed, seconds, repeat, false)?;
    if smoke {
        println!("# smoke run: every workload ran and checked out; numbers not recorded");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn read_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ResultFile::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [base, new] = args.words.as_slice() else {
        return Err("compare takes BASE.json NEW.json".to_string());
    };
    let (base, new) = (read_result(base)?, read_result(new)?);
    let rows = ledger::compare(&base, &new)?;
    print!("{}", ledger::table(&rows));
    let failures = ledger::more_failures(&base, &new);
    for failure in &failures {
        println!("{failure}");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{worse} worse, {unresolved} unresolved, {} rows",
        rows.len()
    );
    Ok(if worse > 0 || !failures.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Two suites back to back in opposite workload order: every end-to-end
/// metric must agree within its own bound and every exact count exactly.
fn cmd_selfcheck(args: &Args) -> Result<ExitCode, String> {
    if let Some(flag) = args.unknown(&["seed", "seconds"]) {
        return Err(format!("unknown flag --{flag}"));
    }
    let seed: u64 = args.value("seed")?.unwrap_or(1);
    #[allow(clippy::cast_precision_loss)]
    let seconds: f64 = args.value("seconds")?.unwrap_or(RUN_SECONDS as f64);
    let first = suite(seed, seconds, 1, false)?;
    let second = suite(seed, seconds, 1, true)?;
    let mut bad = ledger::exact_mismatches(&first, &second);
    println!("observed spread |a - b| / mean, per workload and end-to-end metric:");
    for workload in Workload::ALL {
        for metric in END_TO_END {
            let value =
                |file: &ResultFile| file.workloads[workload.name()].end_to_end[metric.name][0];
            let (a, b) = (value(&first), value(&second));
            let mean = (a + b) / 2.0;
            let spread = if mean == 0.0 {
                0.0
            } else {
                (a - b).abs() / mean.abs()
            };
            let within = spread <= metric.bound;
            println!(
                "{:<15} {:<20} {:>12.4} {:>12.4} {:>7.1}% of {:>3.0}%  {}",
                workload.name(),
                metric.name,
                a,
                b,
                spread * 100.0,
                metric.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
            if !within {
                bad.push(format!(
                    "{} {} differs by {:.1}% between two runs of the same code",
                    workload.name(),
                    metric.name,
                    spread * 100.0
                ));
            }
        }
    }
    for line in &bad {
        println!("selfcheck: {line}");
    }
    Ok(if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, generated from the tables in `names`.
fn manifest() -> String {
    let mut command = JsonArray::new();
    for word in [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ] {
        command.str(word);
    }
    let mut workloads = JsonArray::new();
    for workload in Workload::ALL {
        workloads.raw(
            &JsonObject::new()
                .str("name", workload.name())
                .str("why", names::why(workload))
                .finish(),
        );
    }
    let mut end_to_end = JsonArray::new();
    for metric in END_TO_END {
        end_to_end.raw(
            &JsonObject::new()
                .str("name", metric.name)
                .str("unit", metric.unit)
                .str("better", metric.better.label())
                .raw("bound", &ledger::number(metric.bound))
                .finish(),
        );
    }
    let mut per_layer = JsonArray::new();
    for metric in names::per_layer() {
        per_layer.raw(
            &JsonObject::new()
                .str("name", &metric.name)
                .str("unit", metric.unit)
                .str("better", metric.better.label())
                .finish(),
        );
    }
    // One entry per line, so a diff of BENCHMARK.json reads.
    let lines = |array: &mut JsonArray| {
        let text = array.finish().replace("},{", "},\n    {");
        text[1..text.len() - 1].to_string()
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.finish(),
        lines(&mut workloads),
        lines(&mut end_to_end),
        lines(&mut per_layer),
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&Args::parse(&raw[1..], &["smoke"])),
        Some("compare") => cmd_compare(&Args::parse(&raw[1..], &[])),
        Some("selfcheck") => cmd_selfcheck(&Args::parse(&raw[1..], &[])),
        Some(awake::CHILD_ARG) => return awake::child_main(),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single_run(&Args::parse(&raw, &[])),
        _ => return usage(),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("ledger: {message}");
        usage()
    })
}
