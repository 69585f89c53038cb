//! Single-threaded replay of a workload's generated inputs straight into
//! each layer's public functions, one benchmark span per call. Runs with
//! `ptm-obs` metrics and tracing off.

use crate::drive::{Inputs, WAVE};
use crate::gen::Query;
use crate::trace::SpanLog;
use ptm_core::{PointEstimator, PointToPointEstimator, TrafficRecord};
use ptm_net::CentralServer;
use ptm_rpc::proto::{encode_request, Request};
use ptm_rpc::{append_frame_with, FrameDecoder, ServerConfig, DEFAULT_MAX_FRAME_LEN};
use ptm_store::{codec, SegmentStore, StoreOptions};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io::Read;
use std::path::Path;

/// Most distinct queries of each kind the replay feeds, to bound its time.
const MAX_QUERIES_PER_KIND: usize = 500;

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub records: usize,
    /// Records in the daemon-written archive that was reopened.
    pub archive_records: usize,
    pub wire_bytes: u64,
    pub encoded_bytes: u64,
    pub archive_bytes: u64,
    pub rotations: usize,
    pub open_ms: Vec<f64>,
}

/// A socket stand-in: hands out at most `chunk` bytes per read.
struct Chunked<'a> {
    data: &'a [u8],
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Replays `inputs` through every layer. `archive` is a daemon-written
/// archive from the run; `scratch` is where a throwaway store goes.
pub fn run(
    inputs: &Inputs,
    queries: &[Query],
    archive: &Path,
    scratch: &Path,
    log: &mut SpanLog,
) -> Result<Replay, String> {
    let records: Vec<&TrafficRecord> = inputs.all_records().collect();
    let mut out = Replay {
        records: records.len(),
        ..Replay::default()
    };
    let root = log.begin("replay", 0, 0);
    let root_id = root.id;

    // ptm-rpc proto: one upload request per record.
    let requests: Vec<Request> = records
        .iter()
        .map(|r| Request::Upload((*r).clone()))
        .collect();
    let payloads: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            log.time("replay.rpc.proto.encode", root_id, i as u64, || {
                encode_request(black_box(req))
            })
        })
        .collect();
    drop(requests);

    // ptm-rpc frame: the decoder fed in socket-sized reads.
    let mut wire = Vec::new();
    for payload in &payloads {
        append_frame_with(&mut wire, |buf| buf.extend_from_slice(payload));
    }
    out.wire_bytes = wire.len() as u64;
    let mut reader = Chunked {
        data: &wire,
        chunk: 64 * 1024,
    };
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
    for i in 0..payloads.len() {
        let open = log.begin("replay.rpc.frame.decode", root_id, i as u64);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    black_box(frame.len());
                    break;
                }
                Ok(None) => {
                    let n = decoder.read_from(&mut reader).map_err(|e| e.to_string())?;
                    if n == 0 {
                        return Err("frame replay ran out of bytes".into());
                    }
                }
                Err(e) => return Err(format!("frame replay: {e}")),
            }
        }
        log.end(open);
    }
    drop(wire);
    drop(payloads);

    // ptm-store codec.
    let encoded: Vec<Vec<u8>> = records.iter().map(|r| codec::encode_record(r)).collect();
    out.encoded_bytes = encoded.iter().map(|e| e.len() as u64).sum();
    for (i, bytes) in encoded.iter().enumerate() {
        let decoded = log.time("replay.store.codec.decode", root_id, i as u64, || {
            codec::decode_record(black_box(bytes))
        });
        decoded.map_err(|e| format!("codec replay: {e}"))?;
    }
    drop(encoded);

    // ptm-store write: wave-sized commits under the default options.
    let store_dir = scratch.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    {
        let mut store = SegmentStore::open(&store_dir, StoreOptions::default())
            .map_err(|e| format!("replay store: {e}"))?
            .store;
        for (i, wave) in records.chunks(WAVE).enumerate() {
            log.time("replay.store.append", root_id, i as u64, || {
                store.append_all(wave.iter().copied())
            })
            .map_err(|e| format!("append replay: {e}"))?;
        }
        out.rotations = store.sealed_count();
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    // ptm-store read and open, on the daemon-written archive.
    out.archive_bytes = dir_bytes(archive);
    for i in 0..3 {
        let open = log.begin("replay.store.open", root_id, i);
        let t = std::time::Instant::now();
        let store = SegmentStore::open(archive, StoreOptions::default())
            .map_err(|e| format!("reopen: {e}"))?;
        out.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.end(open);
        out.archive_records = store.store.record_count();
    }
    let mut store = SegmentStore::open(archive, StoreOptions::default())
        .map_err(|e| format!("reopen: {e}"))?
        .store;
    let locations = store.locations();
    for (i, &location) in locations.iter().enumerate() {
        let got = log.time("replay.store.read", root_id, i as u64, || {
            store.records_for_location(location)
        });
        black_box(got.map_err(|e| format!("read replay: {e}"))?);
    }

    // ptm-rpc hydration: what the daemon does on a location's first touch.
    let mut store = SegmentStore::open(archive, StoreOptions::default())
        .map_err(|e| format!("reopen: {e}"))?
        .store;
    let s = ServerConfig::default().s;
    let hydrated = CentralServer::new(s);
    for (i, &location) in locations.iter().enumerate() {
        let result = log.time(
            "replay.rpc.hydrate",
            root_id,
            i as u64,
            || -> Result<(), String> {
                for record in store
                    .records_for_location(location)
                    .map_err(|e| e.to_string())?
                {
                    hydrated
                        .submit((*record).clone())
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            },
        );
        result.map_err(|e| format!("hydrate replay: {e}"))?;
    }
    drop(hydrated);

    // ptm-net: submit, then the estimators over the workload's queries.
    let central = CentralServer::new(s);
    for (i, record) in records.iter().enumerate() {
        let record = (*record).clone();
        log.time("replay.net.submit", root_id, i as u64, || {
            central.submit(record)
        })
        .map_err(|e| format!("submit replay: {e}"))?;
    }
    let distinct: BTreeSet<&Query> = queries.iter().collect();
    let mut per_kind = [0usize; 3];
    let distinct: Vec<&Query> = distinct
        .into_iter()
        .filter(|q| {
            let kind = match q {
                Query::Volume { .. } => 0,
                Query::Point { .. } => 1,
                Query::P2p { .. } => 2,
            };
            per_kind[kind] += 1;
            per_kind[kind] <= MAX_QUERIES_PER_KIND
        })
        .collect();
    for (i, query) in distinct.iter().enumerate() {
        let name = match query {
            Query::Volume { .. } => "replay.net.estimate_volume",
            Query::Point { .. } => "replay.net.estimate_point",
            Query::P2p { .. } => "replay.net.estimate_p2p",
        };
        let got = log.time(name, root_id, i as u64, || {
            crate::drive::reference(&central, query)
        });
        black_box(got?);
    }

    // ptm-core: the estimators alone, on records gathered beforehand.
    let by_key: HashMap<(u64, u32), &TrafficRecord> = records
        .iter()
        .map(|r| ((r.location().get(), r.period().get()), *r))
        .collect();
    let gather = |location: u64, first: u32, len: u32| -> Vec<TrafficRecord> {
        (first..first + len)
            .filter_map(|p| by_key.get(&(location, p)).map(|r| (*r).clone()))
            .collect()
    };
    let point = PointEstimator::new();
    let p2p = PointToPointEstimator::new(s);
    for (i, query) in distinct.iter().enumerate() {
        match **query {
            Query::Point {
                location,
                first,
                len,
            } => {
                let recs = gather(location, first, len);
                let got = log.time("replay.core.point", root_id, i as u64, || {
                    point.estimate(black_box(&recs))
                });
                black_box(got.map_err(|e| format!("point replay: {e}"))?);
            }
            Query::P2p { a, b, first, len } => {
                let (ra, rb) = (gather(a, first, len), gather(b, first, len));
                let got = log.time("replay.core.p2p", root_id, i as u64, || {
                    p2p.estimate(black_box(&ra), black_box(&rb))
                });
                black_box(got.map_err(|e| format!("p2p replay: {e}"))?);
            }
            Query::Volume { .. } => {}
        }
    }
    log.end(root);
    Ok(out)
}
