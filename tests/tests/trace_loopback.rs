//! End-to-end request tracing over a real loopback daemon: one traced
//! upload→ack round trip must yield one *connected* span tree — a single
//! trace id, every parent pointing at another span in the same trace, and
//! stage timings in dispatch order — written as schema-clean JSONL.
//!
//! Tracing state (the enabled flag, the trace writer, the flight
//! recorder) is process-global, so every test here takes [`lock`].

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_integration_tests::{cleanup_archive, direct_record, fleet, temp_archive};
use ptm_rpc::{ClientConfig, RpcClient, RpcServer, ServerConfig, MAX_PIPELINE_WINDOW};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// A `Write` sink the test can read back after the daemon wrote to it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take_string(&self) -> String {
        let mut guard = self.0.lock().unwrap_or_else(|p| p.into_inner());
        String::from_utf8(std::mem::take(&mut guard)).expect("trace output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One parsed span line. The JSONL fields are flat and the ids are
/// fixed-width hex strings, so a tiny scanner beats a JSON dependency.
#[derive(Debug, Clone)]
struct Span {
    trace: String,
    span: String,
    parent: Option<String>,
    name: String,
    start_ns: u64,
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len()..];
    let end = rest
        .char_indices()
        .scan(false, |in_str, (i, c)| {
            if c == '"' {
                *in_str = !*in_str;
            }
            if (c == ',' || c == '}') && !*in_str {
                Some(Some(i))
            } else {
                Some(None)
            }
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    &rest[..end]
}

fn parse_spans(jsonl: &str) -> Vec<Span> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let unquote = |raw: &str| raw.trim_matches('"').to_string();
            let hex = |key: &str| {
                let value = unquote(field(line, key));
                assert_eq!(value.len(), 16, "{key} is 16 hex digits in {line}");
                assert!(
                    value.bytes().all(|b| b.is_ascii_hexdigit()),
                    "{key} is hex in {line}"
                );
                value
            };
            let parent_raw = field(line, "parent");
            Span {
                trace: hex("trace"),
                span: hex("span"),
                parent: (parent_raw != "null").then(|| unquote(parent_raw)),
                name: unquote(field(line, "name")),
                start_ns: field(line, "start_ns").parse().expect("start_ns uint"),
            }
        })
        .collect()
}

fn campaign(location: u64, periods: u32, seed: u64) -> Vec<TrafficRecord> {
    let scheme = EncodingScheme::new(11, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vehicles = fleet(&mut rng, 80, 3);
    let size = BitmapSize::new(2048).expect("pow2");
    (0..periods)
        .map(|p| {
            direct_record(
                &scheme,
                LocationId::new(location),
                PeriodId::new(p),
                size,
                &vehicles,
            )
        })
        .collect()
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(5),
        max_attempts: 4,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..ClientConfig::default()
    }
}

#[test]
fn traced_upload_and_query_each_yield_one_connected_span_tree() {
    let _guard = lock();
    let sink = SharedBuf::default();
    ptm_obs::set_trace_writer(Some(Box::new(sink.clone())));
    ptm_obs::set_trace_seed(0x7AC3);
    ptm_obs::enable_tracing();

    let archive = temp_archive("trace-it", "tree");
    let server =
        RpcServer::start("127.0.0.1:0", &archive, ServerConfig::default()).expect("daemon starts");
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");

    let records = campaign(7, 3, 40);
    let summary = client
        .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
        .expect("upload acked");
    assert_eq!(summary.accepted, 3);
    let periods: Vec<PeriodId> = (0..3).map(PeriodId::new).collect();
    let estimate = client
        .query_point(LocationId::new(7), &periods)
        .expect("query answered");
    assert!(estimate.is_finite());

    // Shutdown joins the handler threads, so every span guard has dropped
    // (and emitted) before tracing is switched back off.
    drop(client);
    server.shutdown().expect("clean shutdown");
    ptm_obs::set_tracing_enabled(false);
    ptm_obs::set_trace_writer(None);
    cleanup_archive(&archive);

    let spans = parse_spans(&sink.take_string());
    let mut by_trace: BTreeMap<String, Vec<Span>> = BTreeMap::new();
    for span in &spans {
        by_trace
            .entry(span.trace.clone())
            .or_default()
            .push(span.clone());
    }

    // Every trace must be a connected tree: exactly one root, and every
    // parent id resolves to another span of the same trace.
    for (trace, tree) in &by_trace {
        let ids: Vec<&str> = tree.iter().map(|s| s.span.as_str()).collect();
        let roots = tree.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 1, "trace {trace} has {roots} roots: {tree:?}");
        for span in tree {
            if let Some(parent) = &span.parent {
                assert!(
                    ids.contains(&parent.as_str()),
                    "span {} of trace {trace} has dangling parent {parent}",
                    span.name
                );
            }
        }
    }

    let tree_with = |name: &str| {
        by_trace
            .values()
            .find(|t| t.iter().any(|s| s.name == name))
            .unwrap_or_else(|| panic!("no trace contains {name}"))
    };
    let named = |tree: &[Span], name: &str| -> Span {
        tree.iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from {tree:?}"))
            .clone()
    };

    // The upload round trip: client root, dispatch joined via the wire
    // context, and the ingest stages in dispatch order.
    let upload = tree_with("rpc.server.commit");
    let client_root = named(upload, "rpc.client.request");
    assert!(client_root.parent.is_none(), "client call roots the trace");
    let dispatch = named(upload, "rpc.server.dispatch");
    assert_eq!(
        dispatch.parent.as_deref(),
        Some(client_root.span.as_str()),
        "the daemon joins the trace carried on the wire"
    );
    let stages = [
        named(upload, "rpc.server.queue_wait"),
        named(upload, "rpc.server.lock_wait"),
        named(upload, "rpc.server.commit"),
        named(upload, "rpc.server.encode_reply"),
    ];
    for pair in stages.windows(2) {
        assert!(
            pair[0].start_ns <= pair[1].start_ns,
            "stage {} starts after {}: {pair:?}",
            pair[0].name,
            pair[1].name
        );
    }
    assert!(
        stages.iter().all(|s| s.start_ns >= client_root.start_ns),
        "server stages start inside the client call"
    );

    // The query round trip is a *different* trace, with its own stages.
    let query = tree_with("rpc.server.estimate");
    assert_ne!(
        query[0].trace, upload[0].trace,
        "upload and query are separate traces"
    );
    named(query, "rpc.client.request");
    named(query, "rpc.server.encode_reply");
}

#[test]
fn stats_snapshot_reports_shards_percentiles_and_recorder() {
    let _guard = lock();
    ptm_obs::enable_tracing();
    ptm_obs::set_metrics_enabled(true);

    let archive = temp_archive("trace-it", "stats");
    let server =
        RpcServer::start("127.0.0.1:0", &archive, ServerConfig::default()).expect("daemon starts");
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
    client
        .upload_pipelined(&campaign(3, 2, 41), MAX_PIPELINE_WINDOW)
        .expect("upload acked");

    let json = client.stats().expect("stats answered");
    drop(client);
    server.shutdown().expect("clean shutdown");
    ptm_obs::set_tracing_enabled(false);
    ptm_obs::set_metrics_enabled(false);
    cleanup_archive(&archive);

    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"records\":2"), "{json}");
    assert!(json.contains("\"shards\":[{\"location\":3,"), "{json}");
    // Ingest ran with metrics on, so its histogram shows up with
    // percentiles, and the traced upload left spans in the recorder.
    assert!(json.contains("\"percentiles\":{"), "{json}");
    assert!(json.contains("\"rpc.server.ingest\""), "{json}");
    assert!(json.contains("\"recorder\":["), "{json}");
    assert!(json.contains("rpc.server.dispatch"), "{json}");
}

#[test]
fn untraced_clients_still_get_local_server_traces() {
    let _guard = lock();
    let sink = SharedBuf::default();
    ptm_obs::set_trace_writer(Some(Box::new(sink.clone())));
    ptm_obs::enable_tracing();

    let archive = temp_archive("trace-it", "local");
    let server =
        RpcServer::start("127.0.0.1:0", &archive, ServerConfig::default()).expect("daemon starts");

    // A raw ping frame with flags 0: no trace context on the wire.
    {
        use ptm_rpc::frame::{read_frame, write_frame};
        use ptm_rpc::proto::{encode_request, Request};
        use ptm_rpc::DEFAULT_MAX_FRAME_LEN;
        let mut stream =
            std::net::TcpStream::connect(server.local_addr()).expect("loopback connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write_frame(&mut stream, &encode_request(&Request::Ping)).expect("send untraced ping");
        read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("pong frame");
    }

    server.shutdown().expect("clean shutdown");
    ptm_obs::set_tracing_enabled(false);
    ptm_obs::set_trace_writer(None);
    cleanup_archive(&archive);

    let spans = parse_spans(&sink.take_string());
    let dispatch = spans
        .iter()
        .find(|s| s.name == "rpc.server.dispatch")
        .expect("untraced request still dispatched under a span");
    assert!(
        dispatch.parent.is_none(),
        "headerless request gets a locally minted root trace: {dispatch:?}"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.name == "rpc.server.encode_reply" && s.trace == dispatch.trace),
        "reply encode joins the local trace"
    );
}
