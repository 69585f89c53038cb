//! Seeded loopback benchmark for the ptm daemon.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload <ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, replays its inputs through each
//! layer, and prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object; the exit code is non-zero when the
//! correctness gate fails. See `loadbench/README.md`.

mod drive;
mod gen;
mod procfs;
mod replay;
mod stats;
mod trace;

use drive::{Inputs, Mode, Samples, Workload};
use ptm_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Folded, ObsSink, SpanLog};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&"expected ingest, query or mixed"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count, base or method, for the human-readable report.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        // `+ 0.0` turns an empty sum's -0 into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
        note: note.into(),
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Printed by name but left out of the JSON line (see README.md).
    reported: Vec<Metric>,
}

/// The end-to-end metrics: the JSON ones, then each stream's throughput
/// and percentiles and the failure ratio, which are printed only (see
/// README.md). A stream the workload does not run is named as such.
fn end_to_end(workload: Workload, s: &Samples) -> (Vec<Metric>, Vec<Metric>) {
    let count = |rounds: &[Vec<f64>]| {
        let n: usize = rounds.iter().map(Vec::len).sum();
        format!(
            "median over {} rounds of the round's quantile; {n} samples",
            rounds.len()
        )
    };
    // The workload's own call: the upload wave on `ingest` and on `mixed`'s
    // open loop, the query call on `query`.
    let (own, call) = match workload {
        Workload::Query => (&s.query_lat_ms, "query call"),
        _ => (&s.ingest_lat_ms, "upload wave"),
    };
    let json = vec![
        metric(
            "setup_s",
            stats::median(&s.setup_s),
            "s",
            format!("median of {} daemon starts", s.setup_s.len()),
        ),
        metric(
            "latency_p50_ms",
            stats::per_round(own, 0.5),
            "ms",
            format!("per {call}, {}", count(own)),
        ),
        metric(
            "rss_mb",
            s.peak_rss_mib - s.base_rss_mib,
            "MiB",
            format!(
                "peak {:.1} MiB - {:.1} MiB before the first daemon start",
                s.peak_rss_mib, s.base_rss_mib
            ),
        ),
    ];
    let mut printed = Vec::new();
    if s.ingest_records > 0 {
        printed.push(metric(
            "ingest_records_per_s",
            s.ingest_rate(),
            "records/s",
            format!(
                "median of {} rounds; {} records acked",
                s.ingest_rate.len(),
                s.ingest_records
            ),
        ));
        for (name, q) in [
            ("ingest_ack_p50_ms", 0.5),
            ("ingest_ack_p90_ms", 0.9),
            ("ingest_ack_p99_ms", 0.99),
        ] {
            printed.push(metric(
                name,
                stats::per_round(&s.ingest_lat_ms, q),
                "ms",
                count(&s.ingest_lat_ms),
            ));
        }
    } else {
        println!(
            "e2e {}: ingest_records_per_s and ingest_ack_* not measured: no uploads in its \
             rounds, and the preload that builds the archive is set-up",
            workload.name()
        );
    }
    if s.queries > 0 {
        printed.push(metric(
            "query_per_s",
            s.query_rate(),
            "queries/s",
            format!(
                "median of {} rounds; {} queries answered",
                s.query_rate.len(),
                s.queries
            ),
        ));
        for (name, q) in [
            ("query_p50_ms", 0.5),
            ("query_p90_ms", 0.9),
            ("query_p99_ms", 0.99),
        ] {
            printed.push(metric(
                name,
                stats::per_round(&s.query_lat_ms, q),
                "ms",
                count(&s.query_lat_ms),
            ));
        }
    }
    printed.push(metric(
        "failed_ratio",
        stats::ratio(s.failed as f64, s.attempted as f64),
        "ratio",
        format!("{} failed / {} calls attempted", s.failed, s.attempted),
    ));
    (json, printed)
}

/// Counter and histogram-count deltas across the traced pass.
struct Delta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    fn prefixed(&self, prefix: &str) -> f64 {
        self.after
            .counters
            .keys()
            .filter(|name| name.starts_with(prefix))
            .map(|name| self.counter(name))
            .sum()
    }

    fn hist_count(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.histograms.get(name).map_or(0, |h| h.count);
        get(self.after).saturating_sub(get(self.before)) as f64
    }
}

fn folded<'a>(map: &'a BTreeMap<String, Folded>, name: &str) -> &'a Folded {
    static EMPTY: std::sync::OnceLock<Folded> = std::sync::OnceLock::new();
    map.get(name)
        .unwrap_or_else(|| EMPTY.get_or_init(Folded::default))
}

struct LayerInputs<'a> {
    workload: Workload,
    untraced: &'a Samples,
    traced: &'a Samples,
    delta: Delta<'a>,
    daemon: &'a BTreeMap<String, Folded>,
    own: &'a BTreeMap<String, Folded>,
    replay: &'a replay::Replay,
}

fn per_layer(l: &LayerInputs) -> Vec<Metric> {
    let own = |name: &str| folded(l.own, name);
    let daemon = |name: &str| folded(l.daemon, name);
    let records = l.replay.records as f64;
    let archive_records = l.replay.archive_records as f64;
    let per_record_us = |f: &Folded, n: f64| stats::ratio(f.total_ns as f64 / 1e3, n);
    let traced_uploads = l.traced.uploaded as f64;
    let ingest_jobs = l.delta.hist_count("rpc.server.ingest");
    let hits = l.delta.counter("rpc.cache.hits");
    let misses = l.delta.counter("rpc.cache.misses");
    let page_hits = l.delta.counter("store.cache.hits");
    let page_misses = l.delta.counter("store.cache.misses");
    let (primary, traced_rate, untraced_rate) = match l.workload {
        Workload::Ingest => (
            "ingest_records_per_s",
            l.traced.ingest_rate(),
            l.untraced.ingest_rate(),
        ),
        _ => (
            "query_per_s",
            l.traced.query_rate(),
            l.untraced.query_rate(),
        ),
    };
    let rounds = l.traced.rounds as f64;
    let shares: Vec<String> = procfs::GROUPS
        .iter()
        .map(|g| format!("{g} {:.3}", l.untraced.cpu_share(g)))
        .collect();
    let cpu_note = format!(
        "CPU / wall over {:.2} s of untraced timed phases; all groups: {}",
        l.untraced.cpu_wall_s,
        shares.join(", ")
    );
    // Replayed calls are reported as medians: a single-threaded replay on
    // a shared host gets preempted now and then, and a mean would carry it.
    let per_call = |name: &str| own(name).quantile_us(0.5);
    vec![
        metric(
            "rpc.proto.encode_us",
            per_call("replay.rpc.proto.encode"),
            "us",
            format!(
                "median encode_request per upload record, {} records",
                l.replay.records
            ),
        ),
        metric(
            "rpc.frame.decode_us",
            per_call("replay.rpc.frame.decode"),
            "us",
            "median FrameDecoder read_from + next_frame per upload frame, 64 KiB reads",
        ),
        metric(
            "rpc.frame.bytes_per_record",
            stats::ratio(l.replay.wire_bytes as f64, records),
            "B/record",
            format!("{} wire bytes / {} records", l.replay.wire_bytes, l.replay.records),
        ),
        metric("rpc.reactor.cpu_share", l.untraced.cpu_share("reactor"), "ratio", cpu_note.clone()),
        metric("rpc.worker.cpu_share", l.untraced.cpu_share("worker"), "ratio", cpu_note.clone()),
        metric(
            "rpc.server.queue_wait_p99_us",
            daemon("rpc.server.queue_wait").quantile_us(0.99),
            "us",
            format!("{} rpc.server.queue_wait spans", daemon("rpc.server.queue_wait").count),
        ),
        metric(
            "rpc.shed.count",
            l.delta.prefixed("rpc.shed."),
            "count",
            "sum of rpc.shed.* counters over the traced half",
        ),
        metric(
            "rpc.server.coalesced_per_commit",
            stats::ratio(traced_uploads, ingest_jobs),
            "frames/commit",
            format!("{traced_uploads} upload frames / {ingest_jobs} rpc.server.ingest jobs"),
        ),
        metric(
            "rpc.server.commit_us",
            // One commit per ingest job: the mean captured commit span,
            // spread over the records of an average job.
            daemon("rpc.server.commit").mean_us() * stats::ratio(ingest_jobs, traced_uploads),
            "us",
            format!(
                "mean of {} rpc.server.commit spans x {ingest_jobs} jobs / {traced_uploads} records",
                daemon("rpc.server.commit").count
            ),
        ),
        metric(
            "rpc.server.writer_wait_p99_us",
            daemon("rpc.server.lock_wait").quantile_us(0.99),
            "us",
            format!(
                "{} writer-lock waits (rpc.server.lock_wait spans, the rpc.shard.writer_wait interval)",
                daemon("rpc.server.lock_wait").count
            ),
        ),
        metric(
            "rpc.server.hydrate_us_per_record",
            per_record_us(own("replay.rpc.hydrate"), archive_records),
            "us",
            format!(
                "records_for_location + CentralServer::submit over {} archived records",
                l.replay.archive_records
            ),
        ),
        metric(
            "rpc.server.hydrations",
            stats::ratio(l.delta.counter("rpc.server.hydrations"), rounds),
            "count/round",
            format!("{} hydrations over {rounds} traced rounds", l.delta.counter("rpc.server.hydrations")),
        ),
        metric(
            "rpc.cache.hit_ratio",
            stats::ratio(hits, hits + misses),
            "ratio",
            format!("{hits} hits / {} lookups", hits + misses),
        ),
        metric(
            "rpc.cache.lookup_us",
            daemon("rpc.server.cache_lookup").mean_us(),
            "us",
            format!("{} rpc.server.cache_lookup spans", daemon("rpc.server.cache_lookup").count),
        ),
        metric(
            "store.codec.decode_us",
            per_call("replay.store.codec.decode"),
            "us",
            "median decode_record per record",
        ),
        metric(
            "store.append_us",
            per_record_us(own("replay.store.append"), records),
            "us",
            format!("append_all in {}-record batches, SyncPolicy::Flush", drive::WAVE),
        ),
        metric(
            "store.bytes_per_user_byte",
            stats::ratio(l.replay.archive_bytes as f64, stats::ratio(l.replay.encoded_bytes as f64, records) * archive_records),
            "ratio",
            format!(
                "{} archive bytes / encoded bytes of its {} records",
                l.replay.archive_bytes, l.replay.archive_records
            ),
        ),
        metric(
            "store.rotations",
            l.replay.rotations as f64,
            "count",
            format!("segments sealed while appending {} records", l.replay.records),
        ),
        metric(
            "store.compactions",
            l.delta.counter("store.compact.runs"),
            "count",
            "store.compact.runs over the traced half",
        ),
        metric(
            "store.read_us",
            per_record_us(own("replay.store.read"), archive_records),
            "us",
            "cold records_for_location, per record",
        ),
        metric(
            "store.open_ms",
            stats::median(&l.replay.open_ms),
            "ms",
            format!("median of {} SegmentStore::open", l.replay.open_ms.len()),
        ),
        metric(
            "store.page_cache_hit_ratio",
            stats::ratio(page_hits, page_hits + page_misses),
            "ratio",
            format!("{page_hits} hits / {} lookups in the daemon's page cache", page_hits + page_misses),
        ),
        metric(
            "net.submit_us",
            per_call("replay.net.submit"),
            "us",
            "median CentralServer::submit",
        ),
        metric(
            "net.estimate_point_us",
            per_call("replay.net.estimate_point"),
            "us",
            format!("median over {} distinct point queries", own("replay.net.estimate_point").count),
        ),
        metric(
            "net.estimate_p2p_us",
            per_call("replay.net.estimate_p2p"),
            "us",
            format!(
                "median over {} distinct point-to-point queries",
                own("replay.net.estimate_p2p").count
            ),
        ),
        metric(
            "net.estimate_volume_us",
            per_call("replay.net.estimate_volume"),
            "us",
            format!("median over {} distinct volume queries", own("replay.net.estimate_volume").count),
        ),
        metric(
            "core.point_us",
            per_call("replay.core.point"),
            "us",
            "median PointEstimator::estimate on records gathered beforehand",
        ),
        metric(
            "core.p2p_us",
            per_call("replay.core.p2p"),
            "us",
            "median PointToPointEstimator::estimate on records gathered beforehand",
        ),
        metric(
            "obs.trace_overhead_ratio",
            stats::ratio(traced_rate, untraced_rate),
            "ratio",
            format!("traced {primary} {traced_rate:.1} / untraced {untraced_rate:.1}"),
        ),
        metric(
            "loadgen.lag_p99_ms",
            stats::quantile(&l.untraced.lag_ms, 0.99),
            "ms",
            match l.workload {
                Workload::Mixed => "send time after due time, uploads and queries",
                _ => "send time after the previous reply",
            },
        ),
        metric("loadgen.cpu_share", l.untraced.cpu_share("generator"), "ratio", cpu_note),
    ]
}

fn write_spans(path: &Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for log in logs {
        log.write_jsonl(&mut out)?;
    }
    std::io::Write::flush(&mut out)
}

fn print_fold(title: &str, map: &BTreeMap<String, Folded>) {
    println!("{title}: name count total_ms self_ms mean_us p99_us");
    let mut rows: Vec<(&String, &Folded)> = map.iter().collect();
    rows.sort_by_key(|(_, f)| std::cmp::Reverse(f.self_ns));
    for (name, f) in rows {
        println!(
            "  {name:<34} {:>8} {:>10.1} {:>10.1} {:>9.2} {:>9.2}",
            f.count,
            f.total_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6,
            f.mean_us(),
            f.quantile_us(0.99)
        );
    }
}

/// The run passes only with no violation and no failed call: a failed
/// call is neither timed nor checked, so it must not go unnoticed.
fn gate(s: &Samples, label: &str) -> bool {
    for v in s.violations.iter().take(10) {
        eprintln!("loadbench: correctness ({label}): {v}");
    }
    for f in &s.failures {
        eprintln!("loadbench: failed call ({label}): {f}");
    }
    if s.failed > 0 {
        eprintln!(
            "loadbench: {} of {} calls failed ({label})",
            s.failed, s.attempted
        );
    }
    s.violations.is_empty() && s.failed == 0
}

fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let t = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed);
    println!(
        "inputs: {} + {} records, generated in {:.3} s",
        inputs.base.len(),
        inputs.fresh.len(),
        t.elapsed().as_secs_f64()
    );
    if inputs.lists.is_empty() {
        println!(
            "queries: {} drawn, placed on the acked periods as they are sent",
            inputs.draws.len()
        );
    } else {
        println!("queries: {}", gen::describe(&inputs.lists));
    }
    if !args.trace {
        let mut s = drive::run(
            args.workload,
            &inputs,
            args.seconds,
            Mode {
                spans: false,
                cpu: false,
            },
            scratch,
            0,
        )?;
        let t = Instant::now();
        drive::verify(&inputs, &mut s);
        println!(
            "gate: {} distinct answers checked in {:.3} s; {} rounds",
            s.answers.len(),
            t.elapsed().as_secs_f64(),
            s.rounds
        );
        let rounded = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        for (name, values) in [
            ("setup_s per start", &s.setup_s),
            ("ingest_records_per_s per round", &s.ingest_rate),
            ("query_per_s per round", &s.query_rate),
        ] {
            if !values.is_empty() {
                println!("{name}: [{}]", rounded(values));
            }
        }
        let (metrics, reported) = end_to_end(args.workload, &s);
        return Ok(Report {
            correct: gate(&s, "untraced"),
            attempted: s.attempted,
            failed: s.failed,
            metrics,
            reported,
        });
    }

    let half = args.seconds / 2.0;
    let mut untraced = drive::run(
        args.workload,
        &inputs,
        half,
        Mode {
            spans: false,
            cpu: true,
        },
        &scratch.join("untraced"),
        0,
    )?;
    drive::verify(&inputs, &mut untraced);

    let sink = ObsSink::default();
    ptm_obs::set_trace_writer(Some(Box::new(sink.clone())));
    ptm_obs::enable_metrics();
    ptm_obs::enable_tracing();
    let before = ptm_obs::snapshot();
    let traced = drive::run(
        args.workload,
        &inputs,
        half,
        Mode {
            spans: true,
            cpu: false,
        },
        &scratch.join("traced"),
        0,
    );
    ptm_obs::set_tracing_enabled(false);
    ptm_obs::set_metrics_enabled(false);
    ptm_obs::set_trace_writer(None);
    let after = ptm_obs::snapshot();
    let mut traced = traced?;
    drive::verify(&inputs, &mut traced);

    let mut log = SpanLog::new(true, 9);
    let queries: Vec<gen::Query> = untraced.answers.keys().cloned().collect();
    let archive: PathBuf = untraced
        .archive
        .clone()
        .ok_or("no archive left for the replay")?;
    let replay = replay::run(&inputs, &queries, &archive, scratch, &mut log)?;

    let (daemon, unparsed, dropped) = sink.fold();
    let own = trace::fold_own(&log);
    let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", args.workload.name()));
    write_spans(&spans_path, &[&traced.spans, &log]).map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "spans: {} benchmark spans written to {}; {} daemon spans folded ({unparsed} unparsed, \
         {dropped} past the in-memory cap)",
        traced.spans.spans.len() + log.spans.len(),
        spans_path.display(),
        daemon.values().map(|f| f.count).sum::<u64>()
    );
    print_fold("daemon spans (traced half)", &daemon);
    print_fold(
        "benchmark spans (traced half)",
        &trace::fold_own(&traced.spans),
    );
    print_fold("replay spans", &own);

    let metrics = per_layer(&LayerInputs {
        workload: args.workload,
        untraced: &untraced,
        traced: &traced,
        delta: Delta {
            before: &before,
            after: &after,
        },
        daemon: &daemon,
        own: &own,
        replay: &replay,
    });
    let correct = gate(&untraced, "untraced half") & gate(&traced, "traced half");
    Ok(Report {
        correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        reported: Vec::new(),
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".data")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&scratch);
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => {
            let kind = if args.trace { "layer" } else { "e2e" };
            for m in report.metrics.iter().chain(&report.reported) {
                println!(
                    "{kind} {} {} = {} {} ({})",
                    args.workload.name(),
                    m.name,
                    m.value,
                    m.unit,
                    m.note
                );
            }
            println!("{}", json(&report));
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(1);
        }
    }
}
