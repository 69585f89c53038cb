//! `ptm serve` / `ptm upload` / `ptm query` — drive the `ptm-rpc` channel
//! from two shells.
//!
//! A minimal round trip:
//!
//! ```text
//! shell A$ ptm serve --addr 127.0.0.1:7171 --archive /tmp/ptm.ptma
//! shell B$ ptm upload --addr 127.0.0.1:7171 --location 15 --periods 5 \
//!              --vehicles 400 --persistent 120 --seed 7
//! shell B$ ptm query --addr 127.0.0.1:7171 --kind point --location 15 --periods 5
//! ```
//!
//! `upload` synthesises a measurement campaign the same way the simulator
//! does (a persistent fleet present in every period plus per-period
//! transient traffic), so the point estimate queried afterwards should land
//! near `--persistent`.

use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::params::{BitmapSize, SystemParams};
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_rpc::{ClientConfig, RpcClient, RpcServer, ServerConfig, MAX_PIPELINE_WINDOW};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::{opt_u64, opt_usize};

type Options = HashMap<String, String>;

fn required<'a>(options: &'a Options, key: &str, hint: &str) -> Result<&'a str, String> {
    options
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required ({hint})"))
}

/// `ptm serve --health`: one Ping against a running daemon. Healthy means
/// it answers and ingest is not degraded.
fn cmd_health(addr: &str) -> Result<(), String> {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(1),
        io_timeout: Duration::from_secs(2),
        max_attempts: 1,
        ..ClientConfig::default()
    };
    let mut client = RpcClient::connect(addr, config).map_err(|e| e.to_string())?;
    let info = client
        .ping()
        .map_err(|e| format!("daemon at {addr} unreachable: {e}"))?;
    let state = if info.degraded {
        "DEGRADED (uploads shed, queries served)"
    } else {
        "healthy"
    };
    println!(
        "daemon at {addr}: {state} — protocol v{}, s = {}, {} records",
        info.version, info.s, info.records
    );
    if info.degraded {
        return Err("daemon is degraded".to_owned());
    }
    Ok(())
}

/// `ptm serve`: run the record-ingest daemon in the foreground (or, with
/// `--health`, probe one that is already running).
pub fn cmd_serve(options: &Options) -> Result<(), String> {
    let addr = options
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7171");
    if options.contains_key("health") {
        return cmd_health(addr);
    }
    let archive = PathBuf::from(required(
        options,
        "archive",
        "path for the write-ahead archive",
    )?);
    let s = opt_u64(options, "s")?.unwrap_or(3) as u32;
    let duration = opt_u64(options, "duration-secs")?;
    let mut config = ServerConfig {
        s,
        ..ServerConfig::default()
    };
    if let Some(cap) = opt_usize(options, "max-connections")? {
        config.max_connections = cap;
    }
    if let Some(workers) = opt_usize(options, "workers")? {
        if workers == 0 {
            return Err("--workers must be at least 1".to_owned());
        }
        config.workers = workers;
    }
    if let Some(hint) = opt_u64(options, "retry-after-ms")? {
        config.retry_after_ms = hint as u32;
    }
    if let Some(bytes) = opt_u64(options, "rotate-bytes")? {
        config.rotate_bytes = bytes;
    }
    match options.get("sync").map(String::as_str) {
        None | Some("flush") => {}
        Some("fsync") => config.sync_policy = ptm_store::SyncPolicy::Fsync,
        Some(other) => return Err(format!("--sync expects flush or fsync, got {other:?}")),
    }
    if let Some(spec) = options.get("faults") {
        let seed = opt_u64(options, "fault-seed")?.unwrap_or(42);
        let plan = ptm_fault::FaultPlan::parse(spec, seed)
            .map_err(|e| format!("--faults rejected: {e}"))?;
        println!("fault injection armed (seed {seed}): {spec}");
        config.fault_plan = Some(plan);
    }
    // The daemon itself flushes the metrics snapshot on degraded
    // transitions and shutdown, not just at process exit (the main-level
    // write still runs last and settles the final state).
    config.metrics_snapshot = options.get("metrics").map(PathBuf::from);
    if let Some(path) = options.get("recorder-dump").map(PathBuf::from) {
        config.recorder_dump = Some(path.clone());
        // A panic on any thread — not just a request handler — dumps the
        // flight recorder before the default hook prints the backtrace.
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = ptm_obs::trace::recorder::dump_to(&path);
            previous(info);
        }));
    }

    let server = RpcServer::start(addr, &archive, config).map_err(|e| e.to_string())?;
    let replay = server.replay_report();
    println!(
        "ptm-rpc daemon on {} (archive {}, replayed {} records{})",
        server.local_addr(),
        archive.display(),
        replay.records,
        if replay.torn_bytes > 0 {
            format!(", discarded {} torn bytes", replay.torn_bytes)
        } else {
            String::new()
        }
    );
    let drain_file = options.get("drain-file").map(PathBuf::from);
    let poll = Duration::from_millis(100);
    match (duration, &drain_file) {
        (Some(secs), Some(file)) => {
            println!(
                "serving for {secs}s (touch {} to drain early) ...",
                file.display()
            );
            let until = std::time::Instant::now() + Duration::from_secs(secs);
            while std::time::Instant::now() < until && !file.exists() {
                std::thread::sleep(poll);
            }
        }
        (Some(secs), None) => {
            println!("serving for {secs}s ...");
            std::thread::sleep(Duration::from_secs(secs));
        }
        (None, Some(file)) => {
            println!("touch {} to drain and stop", file.display());
            while !file.exists() {
                std::thread::sleep(poll);
            }
        }
        (None, None) => {
            println!("press Enter (or close stdin) to stop");
            let mut line = String::new();
            let _ = std::io::stdin().read_line(&mut line);
        }
    }
    if let Some(file) = &drain_file {
        // Graceful hand-off: stop taking new work (peers get GoingAway
        // with a reconnect hint), let in-flight jobs finish and their
        // replies flush, then fall through to the checkpointing shutdown.
        println!("draining ...");
        server.drain();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !server.drain_complete() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        if !server.drain_complete() {
            eprintln!("drain timed out after 30s; shutting down anyway");
        }
        // Consume the marker so the next start does not drain immediately.
        let _ = std::fs::remove_file(file);
    }
    let records = server.record_count();
    server.shutdown().map_err(|e| e.to_string())?;
    println!("daemon stopped; archive holds {records} records");
    Ok(())
}

/// Builds the synthetic campaign `upload` ships: `periods` records for one
/// location, each encoding the shared persistent fleet plus fresh transient
/// vehicles.
fn synthesize_records(
    location: LocationId,
    periods: u32,
    vehicles: usize,
    persistent: usize,
    seed: u64,
) -> Result<Vec<TrafficRecord>, String> {
    use rand::SeedableRng;
    if persistent > vehicles {
        return Err(format!(
            "--persistent {persistent} exceeds --vehicles {vehicles}"
        ));
    }
    let params = SystemParams::paper_default();
    let scheme = EncodingScheme::new(seed, params.num_representatives());
    let size: BitmapSize = params.bitmap_size(vehicles as f64);
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    let fleet: Vec<VehicleSecrets> = (0..persistent)
        .map(|_| VehicleSecrets::generate(&mut rng, params.num_representatives()))
        .collect();
    let mut records = Vec::with_capacity(periods as usize);
    for p in 0..periods {
        let mut record = TrafficRecord::new(location, PeriodId::new(p), size);
        for v in &fleet {
            record.encode(&scheme, v);
        }
        for _ in 0..vehicles - persistent {
            let v = VehicleSecrets::generate(&mut rng, params.num_representatives());
            record.encode(&scheme, &v);
        }
        records.push(record);
    }
    Ok(records)
}

fn client(options: &Options) -> Result<RpcClient, String> {
    let addr = options
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7171");
    RpcClient::connect(addr, ClientConfig::default()).map_err(|e| e.to_string())
}

/// `ptm upload`: synthesise a campaign and upload it, one pipelined
/// `Upload` frame per record.
pub fn cmd_upload(options: &Options) -> Result<(), String> {
    let location = LocationId::new(opt_u64(options, "location")?.unwrap_or(1));
    let periods = opt_u64(options, "periods")?.unwrap_or(5) as u32;
    let vehicles = opt_usize(options, "vehicles")?.unwrap_or(500);
    let persistent = opt_usize(options, "persistent")?.unwrap_or(vehicles / 4);
    let seed = opt_u64(options, "seed")?.unwrap_or(42);

    let records = synthesize_records(location, periods, vehicles, persistent, seed)?;
    let mut client = client(options)?;
    let info = client.ping().map_err(|e| e.to_string())?;
    println!(
        "connected to {} (protocol v{}, s = {})",
        client.addr(),
        info.version,
        info.s
    );
    let summary = client
        .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
        .map_err(|e| e.to_string())?;
    println!(
        "uploaded {} records for location {} ({} accepted, {} idempotent duplicates); \
         true persistent count is {persistent}",
        records.len(),
        location.get(),
        summary.accepted,
        summary.duplicates,
    );
    Ok(())
}

/// `ptm top`: fetch and render the daemon's live introspection snapshot —
/// record/shard counts, latency percentiles, counters and gauges, and the
/// most recent flight-recorder entries. `--json` prints the raw snapshot.
pub fn cmd_top(options: &Options) -> Result<(), String> {
    use serde::Content;

    let mut client = client(options)?;
    let json = client.stats().map_err(|e| e.to_string())?;
    if options.contains_key("json") {
        println!("{json}");
        return Ok(());
    }
    let snapshot: Content =
        serde_json::from_str(&json).map_err(|e| format!("malformed stats payload: {e}"))?;
    let Content::Map(top) = &snapshot else {
        return Err("malformed stats payload: not a JSON object".to_owned());
    };
    let field = |name: &str| top.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let uint = |name: &str| match field(name) {
        Some(Content::U64(v)) => *v,
        _ => 0,
    };

    let degraded = matches!(field("degraded"), Some(Content::Bool(true)));
    println!(
        "daemon at {}: {} — {} records across {} shards, {} open connections",
        client.addr(),
        if degraded {
            "DEGRADED (uploads shed, queries served)"
        } else {
            "healthy"
        },
        uint("records"),
        uint("locations"),
        uint("connections"),
    );

    // Storage-engine gauges ("store": null means the writer was busy when
    // the snapshot was taken — nothing to show, not an error).
    if let Some(Content::Map(store)) = field("store") {
        let cell = |name: &str| {
            store
                .iter()
                .find(|(k, _)| k == name)
                .map_or_else(|| "?".to_owned(), |(_, v)| render_scalar(v))
        };
        let wedged = store
            .iter()
            .any(|(k, v)| k == "wedged" && matches!(v, Content::Bool(true)));
        println!(
            "store: {} segments ({} sealed), active {} B{}",
            cell("segments"),
            cell("sealed"),
            cell("active_bytes"),
            if wedged { " — WEDGED" } else { "" },
        );
    }

    if let Some(Content::Seq(shards)) = field("shards") {
        if !shards.is_empty() {
            let mut table = ptm_report::TextTable::new(vec!["location".into(), "records".into()]);
            for shard in shards {
                let Content::Map(fields) = shard else {
                    continue;
                };
                let cell = |name: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| k == name)
                        .map_or_else(|| "?".to_owned(), |(_, v)| render_scalar(v))
                };
                table.add_row(vec![cell("location"), cell("records")]);
            }
            println!("\nshards:\n{}", table.render());
        }
    }

    if let Some(Content::Map(hists)) = field("percentiles") {
        if !hists.is_empty() {
            let mut table = ptm_report::TextTable::new(vec![
                "histogram".into(),
                "count".into(),
                "p50".into(),
                "p90".into(),
                "p99".into(),
            ]);
            for (name, summary) in hists {
                let Content::Map(fields) = summary else {
                    continue;
                };
                let cell = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .map_or_else(|| "-".to_owned(), |(_, v)| render_scalar(v))
                };
                table.add_row(vec![
                    name.clone(),
                    cell("count"),
                    cell("p50"),
                    cell("p90"),
                    cell("p99"),
                ]);
            }
            println!("percentiles (ns):\n{}", table.render());
        }
    }

    if let Some(Content::Map(metrics)) = field("metrics") {
        for section in ["counters", "gauges"] {
            let Some((_, Content::Map(entries))) = metrics.iter().find(|(k, _)| k == section)
            else {
                continue;
            };
            if entries.is_empty() {
                continue;
            }
            println!("{section}:");
            for (name, value) in entries {
                println!("  {name} = {}", render_scalar(value));
            }
            println!();
        }
    }

    if let Some(Content::Seq(entries)) = field("recorder") {
        // The snapshot carries the whole ring; the freshest entries are
        // last, and ten of them is plenty for a terminal.
        let tail = entries.len().saturating_sub(10);
        println!("flight recorder ({} entries, newest last):", entries.len());
        for entry in &entries[tail..] {
            println!("  {}", render_recorder_entry(entry));
        }
    }
    Ok(())
}

/// One scalar `Content` cell as a terminal-friendly string.
fn render_scalar(value: &serde::Content) -> String {
    use serde::Content;
    match value {
        Content::Null => "-".to_owned(),
        Content::Bool(b) => b.to_string(),
        Content::U64(v) => v.to_string(),
        Content::I64(v) => v.to_string(),
        Content::F64(v) => format!("{v:.1}"),
        Content::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// One flight-recorder entry as a single summary line.
fn render_recorder_entry(entry: &serde::Content) -> String {
    use serde::Content;
    let Content::Map(fields) = entry else {
        return "?".to_owned();
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    if let Some(Content::Str(level)) = get("event") {
        let target = get("target").map_or_else(|| "?".to_owned(), render_scalar);
        let message = get("message").map_or_else(String::new, render_scalar);
        format!("[{level}] {target}: {message}")
    } else if let Some(Content::Str(name)) = get("name") {
        let trace = get("trace").map_or_else(|| "?".to_owned(), render_scalar);
        let dur = get("dur_ns").map_or_else(|| "?".to_owned(), render_scalar);
        format!("span {name} trace={trace} dur={dur}ns")
    } else {
        "?".to_owned()
    }
}

/// `ptm query`: ask the daemon for an estimate.
pub fn cmd_query(options: &Options) -> Result<(), String> {
    let kind = options.get("kind").map(String::as_str).unwrap_or("point");
    let location = LocationId::new(opt_u64(options, "location")?.ok_or("--location is required")?);
    let periods = opt_u64(options, "periods")?.unwrap_or(5) as u32;
    let period_ids: Vec<PeriodId> = (0..periods).map(PeriodId::new).collect();
    let mut client = client(options)?;
    match kind {
        "volume" => {
            let period = PeriodId::new(opt_u64(options, "period")?.unwrap_or(0) as u32);
            let est = client
                .query_volume(location, period)
                .map_err(|e| e.to_string())?;
            println!(
                "traffic volume at location {} period {}: {est:.1}",
                location.get(),
                period.get()
            );
        }
        "point" => {
            let est = client
                .query_point(location, &period_ids)
                .map_err(|e| e.to_string())?;
            println!(
                "point persistent traffic at location {} over {periods} periods: {est:.1}",
                location.get()
            );
        }
        "p2p" => {
            let location_b = LocationId::new(
                opt_u64(options, "location-b")?.ok_or("--location-b is required for p2p")?,
            );
            let est = client
                .query_p2p(location, location_b, &period_ids)
                .map_err(|e| e.to_string())?;
            println!(
                "p2p persistent traffic {} -> {} over {periods} periods: {est:.1}",
                location.get(),
                location_b.get()
            );
        }
        other => {
            return Err(format!(
                "--kind expects volume, point or p2p, got {other:?}"
            ))
        }
    }
    Ok(())
}
