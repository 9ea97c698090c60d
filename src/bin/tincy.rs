//! `tincy` — a darknet-style command-line front end for the reproduction.
//!
//! ```text
//! tincy ops <network.cfg>   per-layer operation accounting for a config
//! tincy demo                the pipelined live-detection demo
//! tincy serve               the inference server (--shards N: a routed fleet) under a built-in load
//! tincy trace-report        profile a trace file against Table III
//! tincy explore             design-space sweep and Pareto frontier
//! ```
//!
//! `tincy <cmd> --help` prints a command's positionals and every flag it
//! accepts, from the one table ([`FLAGS`]) the parser itself reads.

use std::error::Error;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use tincy::core::demo::{run_demo, DemoConfig};
use tincy::core::SystemConfig;
use tincy::explore::{report_json, report_table, run_sweep, ResourceBudget, SweepConfig};
use tincy::finn::FaultPlan;
use tincy::nn::parse_cfg;
use tincy::perf::{model_diff, pipelined_fps, speedup_ladder, PipelineModel, StageBudget, StageId};
use tincy::serve::smoke::{
    check_fleet_trace, check_scrape, check_slo_smoke, check_smoke, check_variant_smoke,
    scrape as smoke_scrape,
};
use tincy::serve::{
    json, run_load, ArrivalPattern, FleetConfig, LoadConfig, LoadReport, ServeVariant,
    VariantLadder,
};
use tincy::telemetry::SloPolicy;
use tincy::trace::Trace;
use tincy::video::SceneConfig;

type CliResult<T = ()> = Result<T, Box<dyn Error>>;

/// Writes one line of the command's output to stdout and returns any
/// write error from the enclosing function; `main` ends a command whose
/// reader closed the pipe with success.
macro_rules! out {
    ($($line:tt)*) => {
        writeln!(std::io::stdout(), $($line)*)?
    };
}

/// The subcommands that take flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Demo,
    Serve,
    TraceReport,
    Explore,
}

/// One row per [`Cmd`]: its name, positional synopsis, how many
/// positionals it accepts, and what it does.
#[rustfmt::skip]
static CMDS: &[(Cmd, &str, &str, usize, &str)] = &[
    (Cmd::Demo, "demo", "[frames [workers [input]]]", 3,
        "the pipelined live-detection demo, optionally under accelerator faults"),
    (Cmd::Serve, "serve", "[requests [clients [input]]]", 3,
        "the server under a deterministic client load, then each client's view; --shards N puts N behind a router"),
    (Cmd::TraceReport, "trace-report", "<trace.json>", 1,
        "span statistics and the stage table of a trace, diffed against Table III, and the fps it predicts"),
    (Cmd::Explore, "explore", "", 0,
        "design-space sweep against the XCZU3EG model: the Pareto frontier"),
];

/// One row of the flag table: the flag, the placeholder of the value it
/// takes (empty for a switch), the subcommands that accept it, one help
/// line.
struct Flag(&'static str, &'static str, &'static [Cmd], &'static str);

const DEMO: &[Cmd] = &[Cmd::Demo];
const SERVE: &[Cmd] = &[Cmd::Serve];
const RUN: &[Cmd] = &[Cmd::Demo, Cmd::Serve];
const REPORT: &[Cmd] = &[Cmd::TraceReport];
const EXPLORE: &[Cmd] = &[Cmd::Explore];
const CHECKED: &[Cmd] = &[Cmd::TraceReport, Cmd::Explore];

/// Every flag of every subcommand: the parser accepts exactly these, and
/// `--help` prints them.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    Flag("--frames", "N", DEMO, "frame count (overrides the positional)"),
    Flag("--fault-shard", "I", SERVE, "shard the following --fault-seed/--outage apply to"),
    Flag("--fault-seed", "N", RUN, "seeded random accelerator faults"),
    Flag("--outage", "START:LEN", RUN, "hard outage over fabric invocations START..START+LEN"),
    Flag("--metrics-json", "PATH", RUN, "write the run's metrics as JSON"),
    Flag("--trace-out", "PATH", RUN, "write a Chrome trace of the run, even one that fails"),
    Flag("--pattern", "PATTERN", SERVE, "burst (default) | closed | uniform:GAP_US | diurnal:BASE_US:PERIOD_MS:RATIO | flash:BASE_US:AT_MS:WIDTH_MS:FACTOR"),
    Flag("--workers", "N", SERVE, "load-driver threads the clients are partitioned across"),
    Flag("--seed", "N", SERVE, "base seed of the cameras and the arrival schedule"),
    Flag("--shards", "N", SERVE, "serve shards behind the router (default 1)"),
    Flag("--cpu-workers", "N", SERVE, "host workers (per shard)"),
    Flag("--max-batch", "N", SERVE, "largest FINN micro-batch"),
    Flag("--queue", "N", SERVE, "pending-queue bound (per shard)"),
    Flag("--per-client", "N", SERVE, "outstanding-request quota per client"),
    Flag("--status-addr", "HOST:PORT", SERVE, "serve /metrics, /report, /healthz"),
    Flag("--variants", "FRONTIER.json", SERVE, "host an `explore --frontier-out` dump as a variant ladder"),
    Flag("--smoke", "", SERVE, "fail on loss, reordering, a burst without a micro-batch, a faulted shard without drain + re-admit, a scrape that disagrees with the report, a rung that loses work, a bad trace"),
    Flag("--slo-smoke", "", SERVE, "fail unless a burn-rate alert fires in the fault and clears after"),
    Flag("--check", "", CHECKED, "fail on a malformed trace / a frontier without the paper point"),
    Flag("--by-request", "", REPORT, "group events by trace id and print each request's journey"),
    Flag("--threshold", "PCT", REPORT, "deviation that flags a stage (25)"),
    Flag("--pe", "MIN:MAX", EXPLORE, "PE fold bounds"),
    Flag("--simd", "MIN:MAX", EXPLORE, "SIMD fold bounds"),
    Flag("--budget", "LUT:BRAM:DSP", EXPLORE, "resource budget (default XCZU3EG)"),
    Flag("--frontier-out", "PATH", EXPLORE, "write the frontier as JSON"),
];

/// One parsed command line: flag occurrences in order, and positionals.
#[derive(Debug)]
struct Args {
    flags: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `args` against the table: every `-…` word must be a flag
    /// `cmd` accepts, followed by its value unless it is a switch.
    fn parse(cmd: Cmd, args: &[String]) -> Result<Self, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if !arg.starts_with('-') {
                parsed.positional.push(arg.clone());
                continue;
            }
            let &Flag(name, placeholder, ..) = FLAGS
                .iter()
                .find(|f| f.0 == arg && f.2.contains(&cmd))
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match placeholder {
                "" => String::new(),
                _ => iter
                    .next()
                    .ok_or_else(|| format!("{arg} requires {placeholder}"))?
                    .clone(),
            };
            parsed.flags.push((name, value));
        }
        let accepted = CMDS.iter().find(|row| row.0 == cmd).map_or(0, |row| row.3);
        if let Some(extra) = parsed.positional.get(accepted) {
            return Err(format!("unexpected argument {extra:?}"));
        }
        Ok(parsed)
    }

    /// The value of the last occurrence of `name` (empty for a switch).
    fn text(&self, name: &str) -> Option<&str> {
        debug_assert!(FLAGS.iter().any(|f| f.0 == name), "{name} not in FLAGS");
        let (_, value) = self.flags.iter().rev().find(|(flag, _)| *flag == name)?;
        Some(value)
    }

    fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    fn get<T: FromStr<Err: std::fmt::Display>>(&self, name: &str) -> Result<Option<T>, String> {
        self.text(name).map(|v| parse_as(name, v)).transpose()
    }

    /// A `PCT` flag as a fraction (`50` is `0.5`); only a finite value
    /// above zero means anything.
    fn percent(&self, name: &str) -> Result<Option<f64>, String> {
        match self.get::<f64>(name)? {
            Some(pct) if !(pct.is_finite() && pct > 0.0) => Err(format!(
                "{name} {pct}: expected a finite percentage above 0"
            )),
            pct => Ok(pct.map(|pct| pct / 100.0)),
        }
    }

    /// Overwrites `slot` when `name` was given.
    fn set<T: FromStr<Err: std::fmt::Display>>(
        &self,
        name: &str,
        slot: &mut T,
    ) -> Result<(), String> {
        if let Some(value) = self.get(name)? {
            *slot = value;
        }
        Ok(())
    }

    /// Positional `index`, or `default` when absent.
    fn pos<T: FromStr<Err: std::fmt::Display>>(
        &self,
        index: usize,
        what: &str,
        default: T,
    ) -> Result<T, String> {
        self.positional
            .get(index)
            .map_or(Ok(default), |v| parse_as(what, v))
    }
}

fn parse_as<T: FromStr<Err: std::fmt::Display>>(what: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|e| format!("{what} {value}: {e}"))
}

fn usage(&(cmd, name, synopsis, _, about): &(Cmd, &str, &str, usize, &str)) -> String {
    let mut out = format!("usage: tincy {name} {synopsis} [flags]\n\n{about}\n\nflags:\n");
    for Flag(flag, placeholder, cmds, help) in FLAGS {
        if cmds.contains(&cmd) {
            out += &format!("  {:<30} {help}\n", format!("{flag} {placeholder}"));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = args.split_first().map_or(("", &[][..]), |(n, r)| (n, r));
    let result = match (name, CMDS.iter().find(|row| row.1 == name)) {
        ("ops", _) => cmd_ops(rest.first().map(String::as_str)),
        (_, Some(row)) if rest.iter().any(|a| a == "--help" || a == "-h") => {
            write!(std::io::stdout(), "{}", usage(row)).map_err(Into::into)
        }
        (_, Some(&(cmd, ..))) => {
            Args::parse(cmd, rest)
                .map_err(Into::into)
                .and_then(|args| match cmd {
                    Cmd::Demo => cmd_demo(&args),
                    Cmd::Serve => cmd_serve(&args),
                    Cmd::TraceReport => cmd_trace_report(&args),
                    Cmd::Explore => cmd_explore(&args),
                })
        }
        _ => {
            eprintln!("usage: tincy <command> [--help]\n");
            eprintln!("  ops <network.cfg>   per-layer operation accounting for a config");
            for (_, name, _, _, about) in CMDS {
                eprintln!("  {name:<19} {about}");
            }
            return ExitCode::FAILURE;
        }
    };
    let closed = |e: &std::io::Error| e.kind() == std::io::ErrorKind::BrokenPipe;
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader stopped reading: everything it took was written.
        Err(e) if e.downcast_ref().is_some_and(closed) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_ops(path: Option<&str>) -> CliResult {
    let path = path.ok_or("ops requires a cfg file path")?;
    let text = std::fs::read_to_string(path)?;
    let spec = parse_cfg(&text)?;
    out!(
        "{:<4} {:<8} {:>14} {:>16}",
        "#",
        "type",
        "output",
        "ops/frame"
    );
    let shapes = spec.output_shapes();
    for (i, (layer, ops)) in spec.layers.iter().zip(spec.ops_per_layer()).enumerate() {
        out!(
            "{:<4} {:<8} {:>14} {:>16}",
            i + 1,
            layer.kind(),
            shapes[i].to_string(),
            ops
        );
    }
    out!(
        "total: {} ops/frame, {} parameters",
        spec.total_ops(),
        spec.num_params()
    );
    Ok(())
}

/// Folds `--fault-seed` / `--outage` occurrences into fault plans, one per
/// shard: each applies to the shard named by the latest `--fault-shard`
/// before it (shard 0 without one — the only shard `demo` and a plain
/// `serve` have). Always yields a plan for shard 0.
fn fault_plans(args: &Args, shards: usize) -> Result<Vec<FaultPlan>, String> {
    let mut plans = vec![FaultPlan::none()];
    let mut shard = 0usize;
    for (name, value) in &args.flags {
        match *name {
            "--fault-shard" => {
                shard = parse_as(name, value)?;
                if shard >= shards {
                    return Err(format!("{name} {shard}: the fleet has {shards} shards"));
                }
                if plans.len() <= shard {
                    plans.resize_with(shard + 1, FaultPlan::none);
                }
            }
            "--fault-seed" => {
                plans[shard] = FaultPlan {
                    outage: plans[shard].outage,
                    ..FaultPlan::from_seed(parse_as(name, value)?)
                };
            }
            "--outage" => {
                let (start, len) = value
                    .split_once(':')
                    .ok_or_else(|| format!("{name} {value}: expected START:LEN"))?;
                let window = FaultPlan::outage(parse_as(name, start)?, parse_as(name, len)?)
                    .outage
                    .expect("outage constructor sets the window");
                plans[shard] = plans[shard].with_outage(window);
            }
            _ => {}
        }
    }
    Ok(plans)
}

/// `--trace-out`: records the run and writes it as one Chrome trace file.
/// A session dropped without [`Self::finish`] — the run returned an error
/// — still writes its file.
struct TraceSession<'a> {
    out: Option<&'a str>,
}

impl<'a> TraceSession<'a> {
    fn start(args: &'a Args) -> Self {
        let out = args.text("--trace-out");
        if out.is_some() {
            tincy::trace::start();
        }
        Self { out }
    }

    /// Stops the session, writes the file, prints the summary line and
    /// returns the trace (`None` without `--trace-out`).
    fn finish(mut self) -> CliResult<Option<Trace>> {
        let Some((path, trace)) = self.write()? else {
            return Ok(None);
        };
        out!(
            "trace written to {path} ({} events on {} threads, {} dropped)",
            trace.events.len(),
            trace.threads,
            trace.dropped
        );
        Ok(Some(trace))
    }

    fn write(&mut self) -> CliResult<Option<(&'a str, Trace)>> {
        let Some(path) = self.out.take() else {
            return Ok(None);
        };
        let trace = tincy::trace::finish();
        write_atomically(Path::new(path), &tincy::trace::to_chrome_json(&trace))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        Ok(Some((path, trace)))
    }
}

impl Drop for TraceSession<'_> {
    fn drop(&mut self) {
        if let Err(e) = self.write() {
            eprintln!("error: {e}");
        }
    }
}

/// Writes `contents` to a dot-prefixed temp file beside `path`, syncs it
/// and renames it into place, so neither a reader nor a crash ever sees a
/// torn file at `path`.
fn write_atomically(path: &Path, contents: &str) -> std::io::Result<()> {
    let name = path.file_name().ok_or(std::io::ErrorKind::InvalidInput)?;
    let tmp = path.with_file_name(format!(".{}.tmp", name.to_string_lossy()));
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(contents.as_bytes())?;
        file.sync_all()
    });
    written
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Writes `--metrics-json` when asked to.
fn write_artifacts(args: &Args, metrics: impl FnOnce() -> String) -> CliResult {
    if let Some(path) = args.text("--metrics-json") {
        write_atomically(Path::new(path), &metrics())
            .map_err(|e| format!("--metrics-json {path}: {e}"))?;
        out!("metrics written to {path}");
    }
    Ok(())
}

/// What `demo`'s positionals and flags configure.
fn demo_config(args: &Args) -> Result<DemoConfig, String> {
    let frames: u64 = match args.get("--frames")? {
        Some(n) => n,
        None => args.pos(0, "frames", 16)?,
    };
    Ok(DemoConfig {
        frames,
        system: SystemConfig {
            input_size: input_size(args, 96)?,
            fault_plan: fault_plans(args, 1)?[0],
            ..Default::default()
        },
        workers: args.pos(1, "workers", 4)?,
        score_threshold: 0.02,
        scene: SceneConfig::default(),
    })
}

fn cmd_demo(args: &Args) -> CliResult {
    let config = demo_config(args)?;
    let trace = TraceSession::start(args);
    let report = run_demo(&config)?;
    trace.finish()?;
    let input = config.system.input_size;
    out!(
        "{} frames at {:.2} fps ({} workers, {}x{} input), in order: {}, {} detections",
        report.metrics.frames,
        report.metrics.fps(),
        config.workers,
        input,
        input,
        report.metrics.in_order,
        report.detections
    );
    if !config.system.fault_plan.is_empty() {
        out!(
            "offload health: {} faults, {} retries, {} cpu fallbacks, {} degraded frames",
            report.offload.faults,
            report.offload.retries,
            report.offload.fallbacks,
            report.metrics.degraded
        );
    }
    write_artifacts(args, || {
        json::demo_metrics_json(&report.metrics, &report.offload)
    })?;
    if !report.metrics.in_order || report.metrics.frames != config.frames {
        return Err(format!(
            "broken stream: {} of {} frames delivered, in order: {}",
            report.metrics.frames, config.frames, report.metrics.in_order
        )
        .into());
    }
    Ok(())
}

/// The `input` positional: the side of the square network input, which
/// five stride-2 stages halve down to the region grid.
fn input_size(args: &Args, default: usize) -> Result<usize, String> {
    match args.pos(2, "input", default)? {
        input if input > 0 && input.is_multiple_of(32) => Ok(input),
        input => Err(format!("input {input}: expected a positive multiple of 32")),
    }
}

/// Builds the `--variants` ladder from an `explore --frontier-out` dump.
fn variant_ladder(path: &str, input: usize) -> CliResult<VariantLadder> {
    let named = |e: &dyn std::fmt::Display| format!("--variants {path}: {e}");
    let json = std::fs::read_to_string(path).map_err(|e| named(&e))?;
    let frontier = tincy::explore::servable_variants(&json).map_err(|e| named(&e))?;
    let rungs = frontier.iter().map(|fv| ServeVariant {
        name: fv.id.clone(),
        model: fv.model_at(input),
        accuracy: fv.accuracy,
    });
    let ladder = VariantLadder::new(rungs.collect()).map_err(|e| named(&e))?;
    let dropped = match ladder.dropped() {
        [] => String::new(),
        names => format!(
            "; dropped, as accurate as a faster rung: {}",
            names.join(", ")
        ),
    };
    out!(
        "variant ladder ({} rungs, cheapest first): {}{dropped}",
        ladder.len(),
        ladder.names().join(" < ")
    );
    Ok(ladder)
}

/// What `serve`'s positionals and flags configure, all but the
/// `--variants` ladder (a file the caller reads).
fn serve_config(args: &Args) -> Result<(LoadConfig, FleetConfig), String> {
    let mut load = LoadConfig {
        requests_per_client: args.pos(0, "requests", 8)?,
        clients: args.pos(1, "clients", 4)?,
        pattern: ArrivalPattern::Burst,
        ..Default::default()
    };
    args.set("--pattern", &mut load.pattern)?;
    args.set("--workers", &mut load.workers)?;
    args.set("--seed", &mut load.seed)?;
    let input = input_size(args, 64)?;
    let mut config = FleetConfig {
        shards: 1,
        ..Default::default()
    };
    args.set("--shards", &mut config.shards)?;
    config.shard_faults = fault_plans(args, config.shards)?;
    // The given `--status-addr`, or an ephemeral port when a check needs
    // an endpoint to scrape.
    let given = args.text("--status-addr").map(str::to_owned);
    let scrape = args.has("--smoke") || args.has("--slo-smoke");
    config.status_addr = given.or_else(|| scrape.then(|| "127.0.0.1:0".to_owned()));
    let base = &mut config.base;
    args.set("--cpu-workers", &mut base.cpu_workers)?;
    args.set("--max-batch", &mut base.max_batch)?;
    args.set("--queue", &mut base.queue_capacity)?;
    args.set("--per-client", &mut base.per_client_capacity)?;
    base.system.input_size = input;
    base.score_threshold = 0.02;
    if args.has("--slo-smoke") {
        // A deliberately twitchy error-budget policy: the injected fault
        // window must trip the fast burn-rate pair, and post-re-admission
        // traffic must clear it within the run. The latency/shed budgets
        // stay loose so the verdict keys on the deterministic
        // degraded-completion signal, not host scheduling jitter, and the
        // slow pair's threshold sits above the loose budget's maximum
        // attainable burn so only the fast windows drive the check.
        base.slo = SloPolicy {
            latency_budget: 0.25,
            shed_budget: 0.25,
            slow_threshold: 6.0,
            ..SloPolicy::sensitive()
        };
    }
    Ok((load, config))
}

/// `tincy serve`: `--shards` serve shards behind the router (one by
/// default), a multi-client deterministic load, the server's view and the
/// clients', and the smoke/scrape assertions.
fn cmd_serve(args: &Args) -> CliResult {
    let (smoke, slo_smoke) = (args.has("--smoke"), args.has("--slo-smoke"));
    let scrape = smoke || slo_smoke;
    let (load, mut config) = serve_config(args)?;
    if let Some(path) = args.text("--variants") {
        let input = config.base.system.input_size;
        config.base.variants = Some(variant_ladder(path, input)?);
    }
    let faulted = config.shard_faults.iter().any(|plan| !plan.is_empty());
    let trace = TraceSession::start(args);
    let burst = load.pattern == ArrivalPattern::Burst;
    // From `run_load`'s observation point: every response is collected,
    // nothing has shut down.
    let mut scraped = Ok(Vec::new());
    let report = run_load(config, &load, |fleet| {
        if smoke && faulted {
            // `check_smoke` wants the faulted shard drained *and*
            // re-admitted; the health monitor may not have seen the last
            // fault yet, or may still be probing the shard, when the last
            // response arrives. Give it up to 2 s.
            fleet.settle(Duration::from_secs(2));
        }
        if let (true, Some(addr)) = (scrape, fleet.status_addr()) {
            scraped = smoke_scrape(addr, 3);
        }
    })?;
    let trace = trace.finish()?;
    print_server_view(&report)?;
    print_client_view(&report)?;
    write_artifacts(args, || json::report_json(&report.target))?;
    let samples = scraped?;
    if scrape {
        out!(
            "scrape: {} samples, counters monotonic across 3 passes, one request per connection",
            samples.len()
        );
    }
    if slo_smoke {
        out!("{}", check_slo_smoke(&samples)?);
    }
    if smoke {
        out!("{}", check_scrape(&samples, &report.target)?);
        if args.has("--variants") {
            out!("{}", check_variant_smoke(&report)?);
        }
        out!("{}", check_smoke(&report, burst, faulted)?);
        if let Some(trace) = &trace {
            out!("{}", check_fleet_trace(trace, &report.target)?);
        }
    }
    Ok(())
}

/// The serving report: the fleet as a whole, the router when there is
/// more than one shard to route between, then every shard's backends.
/// Its timings vary run to run.
fn print_server_view(report: &LoadReport) -> CliResult {
    let f = &report.target;
    out!(
        "served {} / {} accepted requests ({} rejected, {} lost) in {:.1} ms — {:.1} req/s",
        f.completed(),
        f.accepted(),
        report.rejected(),
        f.lost(),
        f.wall.as_secs_f64() * 1000.0,
        f.throughput()
    );
    if f.shards.len() > 1 {
        out!(
            "router: {} shards routed {:?}, {} rerouted, {} drains, {} readmits, {} probes",
            f.shards.len(),
            f.routed,
            f.rerouted,
            f.drains,
            f.readmits,
            f.probes
        );
    }
    let qs = f.latency().quantiles(&[0.50, 0.95, 0.99]);
    out!(
        "latency p50/p95/p99: {:.2} / {:.2} / {:.2} ms  ({} SLO violations)",
        qs[0].as_secs_f64() * 1000.0,
        qs[1].as_secs_f64() * 1000.0,
        qs[2].as_secs_f64() * 1000.0,
        f.slo_violations()
    );
    for (shard, s) in f.shards.iter().enumerate() {
        out!(
            "shard {shard}: finn {} items in {} batches (mean batch {:.2}, histogram {:?}), cpu {} \
             items — utilization finn {:.1}%, cpu {:.1}%, max queue depth {}",
            s.finn_items,
            s.finn_batches,
            s.mean_batch(),
            s.batch_hist,
            s.cpu_items,
            s.finn_utilization() * 100.0,
            s.cpu_utilization() * 100.0,
            s.max_depth
        );
        if s.offload.faults > 0 {
            out!(
                "shard {shard} offload health: {} faults, {} retries, {} fallbacks, {} degraded",
                s.offload.faults,
                s.offload.retries,
                s.offload.fallbacks,
                s.offload.degraded
            );
        }
        if s.variants() > 1 {
            for (i, name) in s.variant_names.iter().enumerate() {
                out!(
                    "shard {shard} variant {i} {name}: {:?} admissions by class, {} items, \
                     {} weight swaps",
                    s.variant_requests[i],
                    s.variant_items[i],
                    s.weight_swaps[i]
                );
            }
            out!(
                "shard {shard} variant shifts: {} down, {} up — active rungs by class {:?}",
                s.shifts_down,
                s.shifts_up,
                s.active_variant
            );
        }
    }
    Ok(())
}

/// Each client's outcome and the totals: counts, ordering and detections
/// only, so these lines are byte-identical across runs of one command.
fn print_client_view(report: &LoadReport) -> CliResult {
    for o in &report.outcomes {
        out!(
            "client {:>2} [{}]: {}/{} accepted, {} completed, in order: {}, {} detections",
            o.client,
            o.class.label(),
            o.accepted,
            o.submitted,
            o.completed,
            o.in_order,
            o.detections
        );
    }
    out!(
        "total: {} accepted, {} completed, {} dropped, all in order: {}, {} batched invocations",
        report.accepted(),
        report.completed(),
        report.dropped(),
        report.all_in_order(),
        report.target.batched_invocations()
    );
    Ok(())
}

fn cmd_trace_report(args: &Args) -> CliResult {
    let check = args.has("--check");
    let threshold = args.percent("--threshold")?.unwrap_or(0.25);
    let path = args.positional.first();
    let path = path.ok_or("trace-report requires a trace file")?;
    let trace = load_trace(path)?;
    if check {
        trace
            .check()
            .map_err(|e| format!("trace check failed: {e}"))?;
        if trace.dropped > 0 {
            return Err(format!("trace check failed: {} events dropped", trace.dropped).into());
        }
    }

    let profile = tincy::trace::Profile::from_trace(&trace);
    out!(
        "{:<20} {:>5} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "span",
        "layer",
        "count",
        "mean ms",
        "p50 ms",
        "p95 ms",
        "max ms"
    );
    for row in &profile.rows {
        out!(
            "{:<20} {:>5} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            row.label,
            row.layer.map_or_else(|| "-".to_owned(), |l| l.to_string()),
            row.count,
            row.mean_ms(),
            row.p50_ns as f64 / 1e6,
            row.p95_ns as f64 / 1e6,
            row.max_ns as f64 / 1e6,
        );
    }

    let observed = profile.stage_means_ms();
    let rows = model_diff(&StageBudget::paper_baseline(), &observed, threshold);
    out!();
    out!(
        "modeled-vs-observed per-frame stage times (Table III generic-Darknet \
         baseline, flag threshold {:.0}%):",
        threshold * 100.0
    );
    out!(
        "{:<20} {:>12} {:>12} {:>10}  flag",
        "stage",
        "modeled ms",
        "observed ms",
        "ratio"
    );
    for row in &rows {
        let (observed, ratio) = match (row.observed_ms, row.ratio) {
            (Some(o), Some(r)) => (format!("{o:.3}"), format!("{r:.4}x")),
            _ => ("-".to_owned(), "-".to_owned()),
        };
        out!(
            "{:<20} {:>12.3} {:>12} {:>10}  {}",
            row.stage.label(),
            row.modeled_ms,
            observed,
            ratio,
            if row.flagged { "DEVIATES" } else { "" }
        );
    }
    // The measured budget: observed stages, the baseline for the rest.
    let frame_path_observed = rows
        .iter()
        .any(|row| row.observed_ms.is_some() && StageId::FRAME_PATH.contains(&row.stage));
    if frame_path_observed {
        let budget = StageBudget::from_observed(&observed);
        let model = PipelineModel::default();
        let paper_fps = speedup_ladder().last().map_or(16.0, |step| step.fps);
        out!(
            "measured budget: {:.3} ms/frame ({:.2} fps sequential); pipelined prediction \
             ({} workers, {:.0}% efficiency): {:.2} fps — paper final: {:.2} fps",
            budget.total_ms(),
            budget.sequential_fps(),
            model.workers,
            model.efficiency * 100.0,
            pipelined_fps(&budget, model),
            paper_fps
        );
    } else {
        out!("measured budget: the trace observed no frame-path stage, so no fps prediction");
    }
    if args.has("--by-request") {
        report_journeys(&trace, check)?;
    }
    if check {
        out!("trace check: ok ({} events)", trace.events.len());
    }
    Ok(())
}
/// The `--by-request` view: reconstructs each traced request's journey
/// (admit → route → [failover…] → serve → deliver) and prints per-stage
/// attribution — the distributed analogue of the Table III stage table.
/// With `check`, every journey must verify: a delivered request with a
/// missing or causally misordered stage is an error.
fn report_journeys(trace: &Trace, check: bool) -> CliResult {
    let journeys = tincy::trace::journeys(trace);
    if journeys.is_empty() {
        return Err("--by-request: the trace carries no request-tagged events".into());
    }
    if check {
        for journey in &journeys {
            journey
                .verify()
                .map_err(|e| format!("journey check failed: {e}"))?;
        }
    }
    let delivered: Vec<&tincy::trace::RequestJourney> =
        journeys.iter().filter(|j| j.delivered()).collect();
    let failed_over = delivered.iter().filter(|j| j.failovers > 0).count();
    let cross_shard = delivered.iter().filter(|j| j.shards.len() >= 2).count();
    let rejects: u32 = journeys.iter().map(|j| j.rejects).sum();
    out!();
    out!(
        "per-request journeys: {} traced, {} delivered, {} failed over, {} cross-shard, \
         {} shard rejections",
        journeys.len(),
        delivered.len(),
        failed_over,
        cross_shard,
        rejects
    );
    let mean_ms = |pick: &dyn Fn(&tincy::trace::RequestJourney) -> Option<u64>| -> String {
        let values: Vec<u64> = delivered.iter().filter_map(|j| pick(j)).collect();
        if values.is_empty() {
            return "-".to_owned();
        }
        format!(
            "{:.3}",
            values.iter().sum::<u64>() as f64 / values.len() as f64 / 1e6
        )
    };
    out!(
        "stage means over delivered requests: dispatch {} ms, queue wait {} ms, \
         service {} ms, total {} ms",
        mean_ms(&|j| j.dispatch_ns()),
        mean_ms(&|j| j.queue_ns()),
        mean_ms(&|j| j.service_ns()),
        mean_ms(&|j| j.total_ns()),
    );
    let mut slowest = delivered.clone();
    slowest.sort_by_key(|j| std::cmp::Reverse(j.total_ns().unwrap_or(0)));
    out!(
        "{:<16} {:>8} {:>9} {:>11} {:>10} {:>10} {:>9}",
        "trace id",
        "shards",
        "failovers",
        "dispatch ms",
        "queue ms",
        "serve ms",
        "total ms"
    );
    let ms =
        |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |n| format!("{:.3}", n as f64 / 1e6));
    for journey in slowest.iter().take(8) {
        let shards = journey
            .shards
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("+");
        out!(
            "{:016x} {:>8} {:>9} {:>11} {:>10} {:>10} {:>9}",
            journey.trace_id,
            if shards.is_empty() {
                "-".to_owned()
            } else {
                shards
            },
            journey.failovers,
            ms(journey.dispatch_ns()),
            ms(journey.queue_ns()),
            ms(journey.service_ns()),
            ms(journey.total_ns()),
        );
    }
    if check {
        out!(
            "journey check: ok ({} requests, {} delivered with full admit->deliver coverage)",
            journeys.len(),
            delivered.len()
        );
    }
    Ok(())
}

/// Loads a `--trace-out` Chrome-trace file; any failure names the path.
fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    tincy::trace::from_chrome_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_range(flag: &str, value: &str) -> CliResult<(usize, usize)> {
    let (lo, hi) = value
        .split_once(':')
        .ok_or_else(|| format!("{flag} expects MIN:MAX, got {value}"))?;
    let lo: usize = lo.parse().map_err(|e| format!("{flag}: {e}"))?;
    let hi: usize = hi.parse().map_err(|e| format!("{flag}: {e}"))?;
    if lo == 0 || hi < lo {
        return Err(format!("{flag}: invalid range {value}").into());
    }
    Ok((lo, hi))
}

/// What `explore`'s flags configure.
fn sweep_config(args: &Args) -> CliResult<SweepConfig> {
    let mut config = SweepConfig::default();
    if let Some(value) = args.text("--pe") {
        config.pe_bounds = parse_range("--pe", value)?;
    }
    if let Some(value) = args.text("--simd") {
        config.simd_bounds = parse_range("--simd", value)?;
    }
    if let Some(value) = args.text("--budget") {
        let parts: Vec<&str> = value.split(':').collect();
        let [luts, bram36, dsps] = parts.as_slice() else {
            return Err(format!("--budget expects LUT:BRAM:DSP, got {value}").into());
        };
        config.budget = ResourceBudget {
            luts: parse_as("--budget luts", luts)?,
            bram36: parse_as("--budget bram36", bram36)?,
            dsps: parse_as("--budget dsps", dsps)?,
        };
    }
    Ok(config)
}

fn cmd_explore(args: &Args) -> CliResult {
    let report = run_sweep(&sweep_config(args)?);
    write!(std::io::stdout(), "{}", report_table(&report))?;
    if let Some(path) = args.text("--frontier-out") {
        std::fs::write(path, report_json(&report))?;
        out!("frontier written to {path}");
    }
    if args.has("--check") {
        report
            .check()
            .map_err(|violation| format!("explore check failed: {violation}"))?;
        out!(
            "check: paper point on frontier at the ladder's pipelined fps; \
             sweep deterministic (fingerprint {:016x})",
            report.fingerprint
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: Cmd, line: &str) -> Result<Args, String> {
        let words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        Args::parse(cmd, &words)
    }

    /// The flags each load-running subcommand accepts, written out: what
    /// the old hand parsers' `match` arms took, with `fleet`'s folded
    /// into `serve` and `--mode` gone in favour of `--pattern`.
    #[test]
    fn each_subcommand_accepts_exactly_its_old_flags() {
        let local = "--fault-seed --outage --metrics-json --trace-out";
        let serve = format!(
            "{local} --status-addr --cpu-workers --max-batch --queue --per-client \
             --variants --smoke \
             --fault-shard --shards --pattern --workers --seed \
             --slo-smoke"
        );
        let cases = [
            (Cmd::Demo, format!("{local} --frames")),
            (Cmd::Serve, serve),
        ];
        assert_eq!((CMDS.len(), FLAGS.len()), (4, 25));
        for (cmd, want) in cases {
            let mut want: Vec<&str> = want.split_whitespace().collect();
            let mut got: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.2.contains(&cmd))
                .map(|f| f.0)
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{cmd:?}");
        }
    }

    #[test]
    fn errors_name_the_offending_flag() {
        let err = |line| parse(Cmd::Serve, line).unwrap_err();
        assert_eq!(err("8 --mode closed"), "unknown flag --mode");
        assert_eq!(
            parse(Cmd::Demo, "8 --shards 2").unwrap_err(),
            "unknown flag --shards"
        );
        assert_eq!(err("--max-batch"), "--max-batch requires N");
        assert_eq!(err("1 2 3 4"), "unexpected argument \"4\"");
        let args = parse(Cmd::Serve, "--max-batch many").unwrap();
        let err = args.get::<usize>("--max-batch").unwrap_err();
        assert!(err.starts_with("--max-batch many: "), "{err}");
        for (cmd, flag, value) in [
            (Cmd::TraceReport, "--threshold", "inf"),
            (Cmd::TraceReport, "--threshold", "0"),
            (Cmd::TraceReport, "--threshold", "NaN"),
            (Cmd::TraceReport, "--threshold", "-5"),
        ] {
            let args = parse(cmd, &format!("{flag} {value}")).unwrap();
            let err = args.percent(flag).unwrap_err();
            assert_eq!(
                err,
                format!("{flag} {value}: expected a finite percentage above 0")
            );
        }
        for (cmd, line, input) in [
            (Cmd::Serve, "2 1 30", 30),
            (Cmd::Demo, "2 1 30", 30),
            (Cmd::Serve, "2 1 0", 0),
        ] {
            let err = input_size(&parse(cmd, line).unwrap(), 64).unwrap_err();
            assert_eq!(
                err,
                format!("input {input}: expected a positive multiple of 32")
            );
        }
        assert_eq!(input_size(&parse(Cmd::Serve, "2 1").unwrap(), 64), Ok(64));
    }

    #[test]
    fn values_parse_at_their_own_width() {
        let args = parse(
            Cmd::Serve,
            "--seed 18446744073709551615 --workers 18446744073709551616",
        );
        let args = args.unwrap();
        assert_eq!(args.get::<u64>("--seed"), Ok(Some(u64::MAX)));
        let err = args.get::<u64>("--workers").unwrap_err();
        assert!(err.starts_with("--workers 18446744073709551616: "), "{err}");
        assert_eq!(args.get::<u64>("--shards"), Ok(None));
    }

    #[test]
    fn fault_shard_scopes_the_fault_flags_after_it() {
        let line = "--outage 1:2 --fault-shard 2 --fault-seed 9 --outage 3:4 --fault-shard 1";
        let plans = fault_plans(&parse(Cmd::Serve, line).unwrap(), 3).unwrap();
        let window = |plan: &FaultPlan| plan.outage.map(|w| (w.start, w.length));
        assert_eq!(plans.len(), 3);
        assert_eq!((plans[0].seed, window(&plans[0])), (0, Some((1, 2))));
        assert!(plans[1].is_empty());
        assert_eq!((plans[2].seed, window(&plans[2])), (9, Some((3, 4))));
        let err = fault_plans(&parse(Cmd::Serve, "--fault-shard 3").unwrap(), 3).unwrap_err();
        assert_eq!(err, "--fault-shard 3: the fleet has 3 shards");
    }

    /// Tokens at the edges of what the value parsers read: the widths'
    /// limits and just past them, a sign, and floats that are not finite.
    const NUMBERS: [&str; 10] = [
        "0",
        "1",
        "32",
        "64",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "NaN",
        "inf",
    ];

    /// A value in the grammar of a [`FLAGS`] placeholder, fields drawn by
    /// `draw` from [`NUMBERS`]. Paths name nothing: no value parser
    /// touches a file.
    fn value_of(placeholder: &str, draw: (u64, u64, u64)) -> String {
        let n = |d: u64| NUMBERS[d as usize % NUMBERS.len()];
        let (a, b, c) = (n(draw.0), n(draw.1), n(draw.2));
        match placeholder {
            "START:LEN" | "MIN:MAX" | "HOST:PORT" => format!("{a}:{b}"),
            "LUT:BRAM:DSP" => format!("{a}:{b}:{c}"),
            "PATTERN" => match draw.1 % 5 {
                0 => "closed".to_owned(),
                1 => "burst".to_owned(),
                2 => format!("uniform:{a}"),
                3 => format!("diurnal:{a}:{b}:{c}"),
                _ => format!("flash:{a}:{b}:{c}:{a}"),
            },
            "PATH" | "FRONTIER.json" => "no-such-dir/file.json".to_owned(),
            _ => a.to_owned(),
        }
    }

    /// Runs `line` through `Args::parse` and then every value parser `cmd`
    /// applies before it runs anything, checking what they accept.
    fn parse_everything(cmd: Cmd, words: &[String]) {
        let Ok(args) = Args::parse(cmd, words) else {
            return;
        };
        let is_input = |input: usize| input > 0 && input.is_multiple_of(32);
        match cmd {
            Cmd::Demo => {
                if let Ok(config) = demo_config(&args) {
                    assert!(is_input(config.system.input_size));
                }
            }
            Cmd::Serve => {
                if let Ok((_, config)) = serve_config(&args) {
                    assert!(is_input(config.base.system.input_size));
                    assert!(config.shard_faults.len() <= config.shards.max(1));
                }
            }
            Cmd::TraceReport => {
                if let Ok(Some(threshold)) = args.percent("--threshold") {
                    assert!(threshold.is_finite() && threshold > 0.0);
                }
            }
            Cmd::Explore => {
                if let Ok(config) = sweep_config(&args) {
                    for (lo, hi) in [config.pe_bounds, config.simd_bounds] {
                        assert!(lo >= 1 && lo <= hi, "{lo}:{hi}");
                    }
                }
            }
        }
    }

    /// `line` with `edits` applied — replace, insert or delete, the byte
    /// drawn from the grammar of the table's values — split into words.
    fn mutate(line: &str, edits: &[(usize, usize, u8)]) -> Vec<String> {
        const GRAMMAR: &[u8] = b" -:.0123456789eEinfaN/";
        let mut bytes = line.as_bytes().to_vec();
        for &(kind, at, byte) in edits {
            let byte = GRAMMAR[usize::from(byte) % GRAMMAR.len()];
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        let text = String::from_utf8(bytes).expect("ASCII edits of an ASCII line");
        text.split_whitespace().map(str::to_owned).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Command lines built from each subcommand's rows of the flag
        /// table, with values in each placeholder's grammar and then bytes
        /// replaced, inserted or deleted (the vendored proptest does not
        /// shrink, so a failure prints the line): the parse and the value
        /// parsers return an error or a value they hold valid, never a
        /// panic.
        #[test]
        fn flag_table_lines_never_panic_the_parsers(
            positional in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..5),
            flags in proptest::collection::vec(
                (
                    proptest::prelude::any::<usize>(),
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                ),
                0..6,
            ),
            edits in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::prelude::any::<usize>(),
                    proptest::prelude::any::<u8>(),
                ),
                0..4,
            ),
        ) {
            for &(cmd, _, _, accepted, _) in CMDS {
                let mut line: Vec<String> = positional
                    .iter()
                    .take(accepted)
                    .map(|&d| NUMBERS[d as usize % NUMBERS.len()].to_owned())
                    .collect();
                let table: Vec<&Flag> = FLAGS.iter().filter(|f| f.2.contains(&cmd)).collect();
                for &(flag, a, b, c) in &flags {
                    let &&Flag(name, placeholder, ..) = &table[flag % table.len()];
                    line.push(name.to_owned());
                    if !placeholder.is_empty() {
                        line.push(value_of(placeholder, (a, b, c)));
                    }
                }
                let words = mutate(&line.join(" "), &edits);
                let run = std::panic::AssertUnwindSafe(|| parse_everything(cmd, &words));
                proptest::prop_assert!(
                    std::panic::catch_unwind(run).is_ok(),
                    "{cmd:?} panicked on {words:?}"
                );
            }
        }
    }

    /// A scratch path under the system temp directory, unique to this
    /// process and `tag`, with nothing at it.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("tincy-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn trace_report_refuses_a_directory_naming_it() {
        let dir = std::env::temp_dir();
        let dir = dir.to_str().expect("utf-8 temp dir");
        let err = load_trace(dir).unwrap_err();
        assert!(err.starts_with(&format!("{dir}: ")), "{err}");
    }

    #[test]
    fn atomic_write_leaves_only_the_target() {
        let dir = scratch("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_atomically(&path, "{}").unwrap();
        write_atomically(&path, "[]").unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["t.json"]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `--metrics-json` into a missing directory, or onto a directory,
    /// errs naming the flag and the path, and leaves no temp file behind.
    #[test]
    fn metrics_json_errors_name_the_path_and_leave_no_temp_file() {
        let dir = scratch("metrics");
        std::fs::create_dir_all(dir.join("taken")).unwrap();
        for target in ["missing/m.json", "taken"] {
            let path = dir.join(target);
            let args = parse(Cmd::Serve, &format!("--metrics-json {}", path.display())).unwrap();
            let err = write_artifacts(&args, || "{}".to_owned()).unwrap_err();
            let want = format!("--metrics-json {}: ", path.display());
            assert!(err.to_string().starts_with(&want), "{err}");
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["taken"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The path a failed `run_demo` or `run_load` takes: the session is
    /// dropped unfinished, and the file is still written and readable.
    #[test]
    fn an_unfinished_session_still_writes_its_trace() {
        let _guard = tincy::trace::exclusive();
        let path = scratch("dropped.json");
        let line = format!("--trace-out {}", path.display());
        let args = parse(Cmd::Demo, &line).unwrap();
        let session = TraceSession::start(&args);
        tincy::trace::span(tincy::trace::Label::intern("cli.failed_run")).emit();
        drop(session);
        assert!(!tincy::trace::is_enabled(), "the drop closed the session");
        let trace = load_trace(path.to_str().unwrap()).unwrap();
        let names: Vec<_> = trace
            .instants()
            .map(|e| trace.label_name(e.label))
            .collect();
        assert_eq!(names, ["cli.failed_run"]);
        std::fs::remove_file(&path).unwrap();
    }

    /// A trace whose rings overwrote events fails `trace-report --check`.
    #[test]
    fn check_refuses_a_trace_with_drops() {
        let _guard = tincy::trace::exclusive();
        tincy::trace::start_with_clock(std::sync::Arc::new(tincy::trace::TestClock::new()), 2);
        for _ in 0..5 {
            tincy::trace::span(tincy::trace::Label::intern("cli.lossy")).emit();
        }
        let path = scratch("lossy.json");
        let json = tincy::trace::to_chrome_json(&tincy::trace::finish());
        write_atomically(&path, &json).unwrap();
        let line = format!("--check {}", path.display());
        let err = cmd_trace_report(&parse(Cmd::TraceReport, &line).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), "trace check failed: 3 events dropped");
        std::fs::remove_file(&path).unwrap();
    }
}
