//! `ptm` — regenerate every table and figure of the ICDCS 2017 persistent
//! traffic measurement paper from the command line.
//!
//! ```text
//! ptm table1 [--runs N] [--seed S] [--csv DIR]
//! ptm table2 [--csv DIR]
//! ptm fig4   [--t 5|10|both] [--runs N] [--seed S] [--csv DIR]
//! ptm fig5   [--runs N] [--seed S] [--csv DIR]
//! ptm fig6   [--runs N] [--seed S] [--csv DIR]
//! ptm ablations [--runs N] [--seed S]
//! ptm all    [--runs N] [--seed S] [--csv DIR]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ptm_core::params::SystemParams;
use ptm_sim::{ablation, fig4, scatter, table1, table2};

mod rpc;

fn main() -> ExitCode {
    ptm_obs::events::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, options)) = parse(&args) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if let Err(message) = check_flags(&command, &options) {
        ptm_obs::error!("cli", message);
        return ExitCode::FAILURE;
    }
    // --quiet keeps only errors; PTM_LOG still controls format (json/pretty).
    if options.contains_key("quiet") {
        ptm_obs::events::set_max_level(Some(ptm_obs::Level::Error));
    }
    let metrics_path = options.get("metrics").map(PathBuf::from);
    if metrics_path.is_some() {
        ptm_obs::enable_metrics();
    }
    if let Some(path) = options.get("trace") {
        if let Err(message) = enable_trace_output(Path::new(path)) {
            ptm_obs::error!("cli", message);
            return ExitCode::FAILURE;
        }
    }
    let result = run_command(&command, &options);
    // Snapshot even after a failed command — partial metrics help debugging.
    if let Some(path) = metrics_path {
        if let Err(message) = write_metrics(&path, options.contains_key("quiet")) {
            ptm_obs::error!("cli", message);
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            ptm_obs::error!("cli", message);
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ptm — persistent traffic measurement experiments (ICDCS 2017 reproduction)

USAGE:
    ptm <COMMAND> [OPTIONS]

COMMANDS:
    table1      Table I: p2p persistent traffic on Sioux Falls + same-size baseline
    table2      Table II: privacy noise-to-information grid + Monte-Carlo check
    fig4        Fig. 4: point persistent relative error, proposed vs benchmark
    fig5        Fig. 5: actual-vs-estimated scatters (f = 2)
    fig6        Fig. 6: actual-vs-estimated scatters (f = 3)
    ablations   Split strategy, f-frontier, s-sweep, k-way, channel loss
    pair        Estimate p2p persistent traffic for any Sioux Falls node pair
                (--from N --to N [--t T] [--runs N])
    errors      Error-distribution study: bias, CI, histogram per estimator
    matrix      City-wide p2p persistent sweep over all Sioux Falls pairs
    demo        End-to-end V2I protocol demo on the Sioux Falls network
    all         Everything above in sequence
    serve       Run the ptm-rpc record-ingest daemon
                (--archive PATH [--addr A] [--s N] [--duration-secs N]
                 [--max-connections N: 0 removes the cap; default 256]
                 [--workers N: reactor worker threads; default 4]
                 [--retry-after-ms N: shed-response hint; default 250]
                 [--sync flush|fsync: archive durability; default flush]
                 [--rotate-bytes N: segment rotation threshold; default 8 MiB]
                 [--recorder-dump P: dump the flight recorder as JSONL to P
                  on panic, degraded transitions, and shutdown]
                 [--drain-file P: graceful-drain hook — when P appears the
                  daemon stops accepting, answers GoingAway, finishes
                  in-flight work, checkpoints, and exits]
                 [--faults SPEC --fault-seed N: deterministic fault plan,
                  see docs/FAULTS.md])
                With --health: probe a running daemon instead (exit 0 iff
                it answers and is not degraded)
    upload      Synthesise a campaign and upload it to a daemon
                (--location L [--addr A] [--periods T] [--vehicles N]
                 [--persistent N] [--seed S]; one pipelined frame per
                 record, up to 256 per wave)
    query       Query a daemon (--kind volume|point|p2p --location L
                [--location-b B] [--periods T] [--period P] [--addr A])
    top         Live daemon introspection: records, per-shard depths,
                latency percentiles, counters, recent flight-recorder
                entries ([--addr A] [--json: raw snapshot])
    trace-validate  Check a span JSONL file against the documented trace
                schema (--file PATH, see docs/OBSERVABILITY.md)

OPTIONS:
    --runs N    Simulation runs per data point (defaults per experiment)
    --seed S    Base RNG seed (default 42)
    --t T       fig4 only: 5, 10, or both (default both)
    --sizing P  fig4 only: campaign-mean (default) or per-period
    --threads N Worker threads (default: all cores)
    --csv DIR   Also write machine-readable CSV/JSON into DIR
    --metrics P Enable metric recording and write a JSON snapshot to path P
                (counters, gauges, latency histograms) plus a summary on stdout
    --trace P   Enable request tracing and append span JSONL to path P; with
                serve, --recorder-dump P additionally dumps the in-memory
                flight recorder on panic, degraded transitions, and shutdown
    --quiet     Suppress progress events (errors still print)

ENVIRONMENT:
    PTM_LOG     Event level and format, comma-separated tokens:
                error|warn|info|debug|trace|off and json|pretty.
                Default: info,pretty. Example: PTM_LOG=debug,json
";

type Options = HashMap<String, String>;

/// Flags every command reads.
const GLOBAL_FLAGS: &[&str] = &["metrics", "trace", "quiet"];

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["quiet", "health", "json"];

/// The flags each command reads, besides [`GLOBAL_FLAGS`]; `None` for an
/// unknown command.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "table1" | "fig5" | "fig6" => &["runs", "seed", "threads", "csv"],
        "table2" => &["csv"],
        "fig4" | "all" => &["runs", "seed", "threads", "csv", "t", "sizing"],
        "ablations" | "errors" => &["runs", "seed", "threads"],
        "pair" => &["runs", "seed", "threads", "from", "to", "t"],
        "matrix" => &["seed", "threads", "csv"],
        "demo" => &["seed"],
        "serve" => &[
            "addr",
            "archive",
            "s",
            "duration-secs",
            "health",
            "max-connections",
            "workers",
            "retry-after-ms",
            "rotate-bytes",
            "sync",
            "faults",
            "fault-seed",
            "recorder-dump",
            "drain-file",
        ],
        "upload" => &[
            "addr",
            "location",
            "periods",
            "vehicles",
            "persistent",
            "seed",
        ],
        "query" => &[
            "addr",
            "kind",
            "location",
            "location-b",
            "periods",
            "period",
        ],
        "top" => &["addr", "json"],
        "trace-validate" => &["file"],
        _ => return None,
    })
}

/// Refuses a flag that neither `command` nor the global options read, so
/// a misspelt or retired flag fails loudly instead of being ignored. An
/// unknown command is left to [`run_command`] to report.
fn check_flags(command: &str, options: &Options) -> Result<(), String> {
    let Some(flags) = command_flags(command) else {
        return Ok(());
    };
    // The smallest unknown name, so the message does not depend on the
    // map's iteration order.
    let unknown = options
        .keys()
        .map(String::as_str)
        .filter(|key| !flags.contains(key) && !GLOBAL_FLAGS.contains(key))
        .min();
    match unknown {
        None => Ok(()),
        Some(flag) => Err(format!(
            "`ptm {command}` does not take --{flag}; run `ptm --help`"
        )),
    }
}

fn parse(args: &[String]) -> Option<(String, Options)> {
    let mut iter = args.iter();
    let command = iter.next()?.clone();
    if command == "--help" || command == "-h" || command == "help" {
        return None;
    }
    let mut options = Options::new();
    while let Some(flag) = iter.next() {
        let key = flag.strip_prefix("--")?;
        if BOOLEAN_FLAGS.contains(&key) {
            options.insert(key.to_owned(), String::new());
            continue;
        }
        let value = iter.next()?;
        options.insert(key.to_owned(), value.clone());
    }
    Some((command, options))
}

fn opt_usize(options: &Options, key: &str) -> Result<Option<usize>, String> {
    options
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}"))
        })
        .transpose()
}

fn opt_u64(options: &Options, key: &str) -> Result<Option<u64>, String> {
    options
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}"))
        })
        .transpose()
}

fn csv_dir(options: &Options) -> Result<Option<PathBuf>, String> {
    match options.get("csv") {
        None => Ok(None),
        Some(dir) => {
            let path = PathBuf::from(dir);
            std::fs::create_dir_all(&path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Ok(Some(path))
        }
    }
}

fn write_artifact(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    ptm_obs::info!("cli", "wrote artifact"; path = path.display().to_string());
    Ok(())
}

/// Dumps the end-of-run metric snapshot as JSON to `path` and, unless
/// quiet, prints the human summary to stdout.
fn write_metrics(path: &Path, quiet: bool) -> Result<(), String> {
    let snapshot = ptm_obs::snapshot();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, snapshot.to_json_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if !quiet {
        print!("{}", snapshot.render_summary());
    }
    ptm_obs::info!("cli.metrics", "metrics snapshot written";
        path = path.display().to_string(),
        counters = snapshot.counters.len(),
        gauges = snapshot.gauges.len(),
        histograms = snapshot.histograms.len(),
    );
    Ok(())
}

/// `--trace P`: route span JSONL to `path` and turn tracing on. The trace
/// writer flushes after every span, so the file is valid JSONL even if the
/// process is killed mid-run.
fn enable_trace_output(path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot open trace output {}: {e}", path.display()))?;
    ptm_obs::set_trace_writer(Some(Box::new(std::io::BufWriter::new(file))));
    ptm_obs::enable_tracing();
    ptm_obs::info!("cli", "tracing enabled"; path = path.display().to_string());
    Ok(())
}

/// `ptm trace-validate --file P`: check every line of a span JSONL file
/// against the trace schema documented in `docs/OBSERVABILITY.md`. Exits
/// non-zero on the first malformed line or if the file holds no entries.
fn cmd_trace_validate(options: &Options) -> Result<(), String> {
    use serde::Content;

    let path = options
        .get("file")
        .ok_or("trace-validate requires --file <span JSONL>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let hex16 = |c: &Content| {
        matches!(c, Content::Str(s) if s.len() == 16
        && s.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()))
    };
    let uint = |c: &Content| matches!(c, Content::U64(_));
    let string = |c: &Content| matches!(c, Content::Str(_));

    let (mut spans, mut events) = (0usize, 0usize);
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let content: Content =
            serde_json::from_str(line).map_err(|e| format!("{path}:{lineno}: not JSON: {e}"))?;
        let Content::Map(fields) = &content else {
            return Err(format!("{path}:{lineno}: entry is not a JSON object"));
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let expect = |name: &str, ok: &dyn Fn(&Content) -> bool, want: &str| {
            field(name)
                .filter(|v| ok(v))
                .map(drop)
                .ok_or(format!("{path}:{lineno}: field {name:?} must be {want}"))
        };
        if field("trace").is_some() {
            // Span entry.
            expect("trace", &hex16, "a 16-digit lowercase hex string")?;
            expect("span", &hex16, "a 16-digit lowercase hex string")?;
            let parent_ok = field("parent").is_some_and(|v| matches!(v, Content::Null) || hex16(v));
            if !parent_ok {
                return Err(format!(
                    "{path}:{lineno}: field \"parent\" must be null or a 16-digit hex string"
                ));
            }
            expect("name", &string, "a string")?;
            expect("start_ns", &uint, "a non-negative integer")?;
            expect("dur_ns", &uint, "a non-negative integer")?;
            spans += 1;
        } else if field("event").is_some() {
            // Flight-recorder event entry.
            expect("event", &string, "a string")?;
            expect("target", &string, "a string")?;
            expect("message", &string, "a string")?;
            expect("at_ns", &uint, "a non-negative integer")?;
            events += 1;
        } else {
            return Err(format!(
                "{path}:{lineno}: entry is neither a span (no \"trace\") nor an event"
            ));
        }
    }
    if spans + events == 0 {
        return Err(format!("{path}: no trace entries found"));
    }
    println!("{path}: {spans} spans, {events} events — schema OK");
    Ok(())
}

fn run_command(command: &str, options: &Options) -> Result<(), String> {
    let _t = ptm_obs::span!("cli.command");
    ptm_obs::debug!("cli", "dispatching command"; command = command);
    let seed = opt_u64(options, "seed")?.unwrap_or(42);
    let runs = opt_usize(options, "runs")?;
    let threads = opt_usize(options, "threads")?.unwrap_or_else(ptm_sim::runner::default_threads);
    let csv = csv_dir(options)?;

    match command {
        "table1" => cmd_table1(seed, runs, threads, csv.as_deref()),
        "table2" => cmd_table2(csv.as_deref()),
        "fig4" => cmd_fig4(seed, runs, threads, options, csv.as_deref()),
        "fig5" => cmd_scatter(2.0, seed, runs, threads, csv.as_deref()),
        "fig6" => cmd_scatter(3.0, seed, runs, threads, csv.as_deref()),
        "ablations" => cmd_ablations(seed, runs, threads),
        "pair" => cmd_pair(seed, runs, threads, options),
        "errors" => cmd_errors(seed, runs, threads),
        "matrix" => cmd_matrix(seed, threads, csv.as_deref()),
        "demo" => cmd_demo(seed),
        "serve" => rpc::cmd_serve(options),
        "upload" => rpc::cmd_upload(options),
        "query" => rpc::cmd_query(options),
        "top" => rpc::cmd_top(options),
        "trace-validate" => cmd_trace_validate(options),
        "all" => {
            cmd_table1(seed, runs, threads, csv.as_deref())?;
            cmd_fig4(seed, runs, threads, options, csv.as_deref())?;
            cmd_scatter(2.0, seed, runs, threads, csv.as_deref())?;
            cmd_scatter(3.0, seed, runs, threads, csv.as_deref())?;
            cmd_table2(csv.as_deref())?;
            cmd_ablations(seed, runs, threads)
        }
        other => Err(format!("unknown command {other:?}; run `ptm --help`")),
    }
}

fn cmd_table1(
    seed: u64,
    runs: Option<usize>,
    threads: usize,
    csv: Option<&Path>,
) -> Result<(), String> {
    let config = table1::Table1Config {
        runs: runs.unwrap_or(50),
        seed,
        threads,
        ..table1::Table1Config::default()
    };
    ptm_obs::info!("cli.table1", "running Table I"; runs = config.runs, locations = 8);
    let result = table1::run(&config);
    println!("{}", table1::render(&result));
    if let Some(dir) = csv {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        write_artifact(dir, "table1.json", &json)?;
    }
    Ok(())
}

fn cmd_table2(csv: Option<&Path>) -> Result<(), String> {
    let result = table2::run(&table2::Table2Config::default());
    println!("{}", table2::render(&result));
    if let Some(dir) = csv {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        write_artifact(dir, "table2.json", &json)?;
    }
    Ok(())
}

fn cmd_fig4(
    seed: u64,
    runs: Option<usize>,
    threads: usize,
    options: &Options,
    csv: Option<&Path>,
) -> Result<(), String> {
    let ts: Vec<usize> = match options.get("t").map(String::as_str).unwrap_or("both") {
        "5" => vec![5],
        "10" => vec![10],
        "both" => vec![5, 10],
        other => return Err(format!("--t expects 5, 10 or both, got {other:?}")),
    };
    let sizing = match options
        .get("sizing")
        .map(String::as_str)
        .unwrap_or("campaign-mean")
    {
        "campaign-mean" => ptm_sim::workload::SizingPolicy::CampaignMean,
        "per-period" => ptm_sim::workload::SizingPolicy::PerPeriod,
        other => {
            return Err(format!(
                "--sizing expects campaign-mean or per-period, got {other:?}"
            ))
        }
    };
    for t in ts {
        let config = fig4::Fig4Config {
            runs_per_point: runs.unwrap_or(25),
            seed,
            threads,
            sizing,
            ..fig4::Fig4Config::panel(t)
        };
        ptm_obs::info!("cli.fig4", "running Fig. 4 panel";
            t = t,
            fractions = config.fractions.len(),
            runs = config.runs_per_point,
        );
        let panel = fig4::run(&config);
        println!("{}", fig4::render(&panel));
        if let Some(dir) = csv {
            write_artifact(dir, &format!("fig4_t{t}.csv"), &fig4::to_csv(&panel))?;
        }
    }
    Ok(())
}

fn cmd_scatter(
    load_factor: f64,
    seed: u64,
    runs: Option<usize>,
    threads: usize,
    csv: Option<&Path>,
) -> Result<(), String> {
    let fig = if load_factor == 2.0 { 5 } else { 6 };
    let config = scatter::ScatterConfig {
        runs_per_fraction: runs.unwrap_or(1).max(1),
        seed,
        threads,
        ..scatter::ScatterConfig::paper(load_factor)
    };
    ptm_obs::info!("cli.scatter", "running scatter figure"; fig = fig, load_factor = load_factor);
    let result = scatter::run(&config);
    println!("Fig. {fig}:");
    println!("{}", scatter::render(&result));
    println!(
        "rms relative deviation from y = x: point {:.4}, p2p {:.4}\n",
        scatter::ScatterResult::rms_relative_deviation(&result.point),
        scatter::ScatterResult::rms_relative_deviation(&result.p2p),
    );
    if let Some(dir) = csv {
        write_artifact(dir, &format!("fig{fig}.csv"), &scatter::to_csv(&result))?;
    }
    Ok(())
}

fn cmd_ablations(seed: u64, runs: Option<usize>, threads: usize) -> Result<(), String> {
    let runs = runs.unwrap_or(20);
    ptm_obs::info!("cli.ablations", "running ablations"; runs = runs);

    let split = ablation::split_strategy(8, runs, threads, seed);
    println!("Ablation 1 — split strategy on trending volumes (t = 8):");
    println!("  halves (paper): mean relative error {:.4}", split.halves);
    println!(
        "  interleaved:    mean relative error {:.4}\n",
        split.interleaved
    );

    let frontier =
        ablation::tradeoff_frontier(&[1.0, 1.5, 2.0, 2.5, 3.0, 4.0], 5, runs, threads, seed);
    println!("Ablation 2 — accuracy-privacy frontier (s = 3, t = 5):");
    let mut table = ptm_report::TextTable::new(vec![
        "f".into(),
        "point rel err".into(),
        "p2p rel err".into(),
        "privacy ratio".into(),
    ]);
    for p in &frontier {
        table.add_row(vec![
            format!("{}", p.load_factor),
            format!("{:.4}", p.point_rel_err),
            format!("{:.4}", p.p2p_rel_err),
            format!("{:.4}", p.privacy_ratio),
        ]);
    }
    println!("{}", table.render());

    let sweep = ablation::s_sweep(&[1, 2, 3, 4, 5], 5, runs, threads, seed);
    println!("Ablation 3 — s sweep (f = 2, t = 5, p2p):");
    let mut table = ptm_report::TextTable::new(vec![
        "s".into(),
        "p2p rel err".into(),
        "privacy ratio".into(),
    ]);
    for p in &sweep {
        table.add_row(vec![
            p.s.to_string(),
            format!("{:.4}", p.p2p_rel_err),
            format!("{:.4}", p.privacy_ratio),
        ]);
    }
    println!("{}", table.render());

    let sizing = ablation::sizing_policy(5, runs, threads, seed);
    println!("Ablation 4 — bitmap sizing policy (t = 5, point persistent):");
    println!(
        "  per-period sizing (paper Fig. 3): mean relative error {:.4}",
        sizing.per_period
    );
    println!(
        "  campaign-mean sizing:             mean relative error {:.4}\n",
        sizing.campaign_mean
    );

    let kway = ablation::kway_sweep(&[2, 3, 4, 6], 12, runs, threads, seed);
    println!("Ablation 5 — k-way split of Π (t = 12, point persistent):");
    let mut table = ptm_report::TextTable::new(vec!["k".into(), "point rel err".into()]);
    for p in &kway {
        table.add_row(vec![p.k.to_string(), format!("{:.4}", p.rel_err)]);
    }
    println!("{}", table.render());

    let losses = ablation::loss_sensitivity(&[0.0, 0.3, 0.6, 0.9], seed);
    println!("Ablation 6 — channel loss sensitivity (full V2I protocol, 2 s dwell):");
    let mut table = ptm_report::TextTable::new(vec![
        "frame loss".into(),
        "capture rate".into(),
        "truth".into(),
        "estimate".into(),
    ]);
    for p in &losses {
        table.add_row(vec![
            format!("{:.1}", p.loss),
            format!("{:.3}", p.capture_rate),
            format!("{:.0}", p.truth),
            format!("{:.1}", p.estimate),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_matrix(seed: u64, threads: usize, csv: Option<&Path>) -> Result<(), String> {
    use ptm_sim::matrix::{self, MatrixConfig};
    let config = MatrixConfig {
        seed,
        threads,
        ..MatrixConfig::default()
    };
    ptm_obs::info!("cli.matrix", "sweeping all Sioux Falls pairs"; t = config.t);
    let result = matrix::run(&config);
    println!("{}", matrix::render(&result));
    if let Some(dir) = csv {
        write_artifact(dir, "matrix.csv", &matrix::to_csv(&result))?;
    }
    Ok(())
}

fn cmd_errors(seed: u64, runs: Option<usize>, threads: usize) -> Result<(), String> {
    use ptm_sim::distribution::{self, DistributionConfig, Target};
    for target in [Target::Point, Target::PointToPoint] {
        let config = DistributionConfig {
            runs: runs.unwrap_or(200),
            seed,
            threads,
            ..DistributionConfig::paper(target)
        };
        ptm_obs::info!("cli.errors", "sampling error distribution";
            target = format!("{target:?}"),
            runs = config.runs,
        );
        let result = distribution::run(&config);
        println!("{}", distribution::render(&result));
    }
    Ok(())
}

fn cmd_pair(
    seed: u64,
    runs: Option<usize>,
    threads: usize,
    options: &Options,
) -> Result<(), String> {
    use ptm_core::encoding::{EncodingScheme, LocationId};
    use ptm_core::p2p::PointToPointEstimator;
    use ptm_sim::workload::build_p2p_records;
    use ptm_traffic::generate::P2pScenario;
    use ptm_traffic::network::NodeId;
    use ptm_traffic::sioux_falls;

    let parse_node = |key: &str| -> Result<usize, String> {
        let raw = options
            .get(key)
            .ok_or(format!("pair requires --{key} <node 1-24>"))?;
        let n: usize = raw
            .parse()
            .map_err(|_| format!("--{key} expects a node label"))?;
        if (1..=sioux_falls::NUM_NODES).contains(&n) {
            Ok(n)
        } else {
            Err(format!("--{key} must be in 1..=24, got {n}"))
        }
    };
    let from = parse_node("from")?;
    let to = parse_node("to")?;
    if from == to {
        return Err("pair needs two distinct nodes".to_owned());
    }
    let t = opt_usize(options, "t")?.unwrap_or(5);
    let runs = runs.unwrap_or(20);

    let table = sioux_falls::paper_trip_table();
    let params = SystemParams::paper_default();
    let scenario =
        P2pScenario::from_trip_table(&table, NodeId::new(from - 1), NodeId::new(to - 1), t);
    if scenario.persistent == 0 {
        return Err(format!("nodes {from} and {to} share no trip-table demand"));
    }
    println!(
        "pair {from} <-> {to}: volumes n = {}, n' = {}, true persistent n'' = {}",
        scenario.volumes_l[0], scenario.volumes_lp[0], scenario.persistent
    );
    let truth = scenario.persistent as f64;
    let errors = ptm_sim::runner::run_trials(runs, threads, |run_idx| {
        let s = ptm_sim::trial_seed(seed, &[from as u64, to as u64, run_idx as u64]);
        let mut rng = rand_chacha_seed(s);
        let scheme = EncodingScheme::new(s, params.num_representatives());
        let records = build_p2p_records(
            &scheme,
            &params,
            &scenario,
            LocationId::new(from as u64),
            LocationId::new(to as u64),
            None,
            &mut rng,
        );
        let est = PointToPointEstimator::new(params.num_representatives())
            .estimate(&records.records_l, &records.records_lp)
            .expect("paper-scale records never saturate");
        ptm_sim::stats::relative_error(truth, est)
    });
    let summary = ptm_sim::stats::Summary::from_slice(&errors);
    println!(
        "relative error over {} runs (t = {t}): mean {:.4}, std {:.4}, min {:.4}, max {:.4}",
        runs, summary.mean, summary.std_dev, summary.min, summary.max
    );
    Ok(())
}

fn rand_chacha_seed(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha12Rng::seed_from_u64(seed)
}

fn cmd_demo(seed: u64) -> Result<(), String> {
    use ptm_core::encoding::{EncodingScheme, LocationId};
    use ptm_core::record::PeriodId;
    use ptm_net::{SimConfig, SimDuration, V2iSimulator};
    use ptm_traffic::network::NodeId;
    use ptm_traffic::sioux_falls;

    println!("V2I protocol demo: two RSUs on the Sioux Falls network\n");
    let network = sioux_falls::road_network();
    let table = sioux_falls::trip_table();
    let l = NodeId::new(14); // node 15
    let lp = table.busiest_node(); // node 10
    let path = network
        .shortest_path(l, lp)
        .ok_or("sioux falls is connected")?;
    println!(
        "route node {} -> node {}: {} hops, {:.0} min free-flow",
        l,
        lp,
        path.nodes.len() - 1,
        path.travel_time
    );

    let params = SystemParams::paper_default();
    let scheme = EncodingScheme::new(seed, params.num_representatives());
    let spec = [
        (LocationId::new(15), params.bitmap_size(600.0)),
        (LocationId::new(10), params.bitmap_size(900.0)),
    ];
    let mut sim = V2iSimulator::new(SimConfig::default(), scheme, &spec, seed);

    let commons: Vec<usize> = (0..120).map(|_| sim.add_vehicle()).collect();
    let periods: Vec<PeriodId> = (0..5).map(PeriodId::new).collect();
    for &p in &periods {
        for (k, &v) in commons.iter().enumerate() {
            sim.schedule_pass(v, 0, SimDuration::from_millis(40 * k as u64));
            sim.schedule_pass(v, 1, SimDuration::from_millis(8000 + 40 * k as u64));
        }
        for k in 0..300usize {
            let t = sim.add_vehicle();
            sim.schedule_pass(t, k % 2, SimDuration::from_millis(20 * k as u64));
        }
        sim.run_period(p).map_err(|e| e.to_string())?;
    }

    let stats = sim.stats();
    println!(
        "\nprotocol: {} beacons, {} reports sent, {} accepted, {} acks, {} frames lost",
        stats.beacons_broadcast,
        stats.reports_sent,
        stats.reports_accepted,
        stats.acks_delivered,
        stats.frames_lost
    );

    let (a, b) = (LocationId::new(15), LocationId::new(10));
    let truth_point = sim.presence().point_persistent(a, &periods);
    let truth_p2p = sim.presence().p2p_persistent(a, b, &periods);
    let est_point = sim
        .server()
        .estimate_point_persistent(a, &periods)
        .map_err(|e| e.to_string())?;
    let est_p2p = sim
        .server()
        .estimate_p2p_persistent(a, b, &periods)
        .map_err(|e| e.to_string())?;
    println!("\npoint persistent at node 15:  truth {truth_point}, estimate {est_point:.1}");
    println!("p2p persistent 15 -> 10:      truth {truth_p2p}, estimate {est_p2p:.1}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses and checks a command line as `main` does.
    fn check(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let (command, options) = parse(&args).ok_or("usage")?;
        check_flags(&command, &options).map(|()| options)
    }

    #[test]
    fn each_command_refuses_flags_it_does_not_read() {
        let options = check("serve --archive a --workers 2 --metrics m.json").expect("known flags");
        assert_eq!(options.get("workers").map(String::as_str), Some("2"));
        for (command, retired) in [
            ("serve --archive a", "cache"),
            ("serve --archive a", "inflight"),
            ("upload --location 7", "pipeline"),
        ] {
            let err = check(&format!("{command} --{retired} 8")).expect_err(retired);
            assert!(err.contains(&format!("--{retired}")), "{err}");
        }
        // A flag one command reads is still refused by another.
        assert!(check("query --location 7 --archive a").is_err());
        // An unknown command is reported by the dispatcher, not here.
        assert!(check("frobnicate --x 1").is_ok());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let options = check("serve --health --addr 127.0.0.1:7171 --quiet").expect("probe");
        assert_eq!(options.get("health").map(String::as_str), Some(""));
        assert_eq!(
            options.get("addr").map(String::as_str),
            Some("127.0.0.1:7171")
        );
        let options = check("top --json --addr 127.0.0.1:7171").expect("top");
        assert_eq!(options.get("json").map(String::as_str), Some(""));
        assert!(options.contains_key("addr"));
    }
}
