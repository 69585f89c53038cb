//! RSU-to-server upload channel for persistent traffic measurement.
//!
//! The paper's architecture ends with roadside units shipping their
//! per-period traffic records to a central server that answers persistence
//! queries. This crate is that wire: a std-only (no async runtime) TCP
//! daemon and client speaking a versioned, length-prefixed, CRC-checked
//! frame protocol.
//!
//! * [`frame`] — the transport: `len | crc32 | payload` frames, with an
//!   idle/closed/hard-error taxonomy that lets servers poll shutdown flags
//!   and clients classify retryability. [`FrameDecoder`] is the zero-copy
//!   nonblocking half: one reusable buffer per connection, complete frames
//!   decoded in place with no per-frame allocation in steady state, and
//!   [`frame::append_frame_with`] / [`frame::write_frame_vectored`] the
//!   matching write-side buffer reuse.
//! * [`proto`] — the messages: version-tagged requests (ping, upload of
//!   one record, volume/point/point-to-point queries) and responses,
//!   embedding records as exact `ptm-store` codec payloads so the bytes a
//!   daemon archives are the bytes the RSU sent: the daemon re-encodes
//!   each decoded record into its segment frame, and the codec is
//!   canonical (`ptm_store::codec`'s
//!   `decoded_payloads_re_encode_to_the_same_bytes`), which is also why
//!   the frame may carry the CRC derived from the wire frame's.
//! * [`server`] — [`RpcServer`]: a readiness-driven reactor daemon — one
//!   event-loop thread owns every connection's nonblocking socket and
//!   buffers, and a bounded worker pool runs estimate/commit work so slow
//!   storage never stalls the wire — wrapping
//!   [`ptm_net::CentralServer`]'s location-sharded store, write-ahead
//!   persistence into a [`ptm_store::SegmentStore`] (append + flush before
//!   the records become queryable; every archived record loaded into the
//!   engine at start), idempotent duplicate
//!   handling, panic containment with poison-recovering locks, graceful
//!   drain on shutdown. A connection's pipelined uploads go into its
//!   inbox, which one worker drains a commit of up to 64 frames at a time,
//!   and their acks batch into one write.
//!   Queries are answered from memory, concurrently with each other and
//!   with uploads to locations they are not reading.
//! * [`client`] — [`RpcClient`]: one retry loop for every call, pipelined
//!   uploads included, with capped exponential backoff and jitter floored
//!   by the server's `retry_after_ms` hints, a retryable-versus-fatal
//!   error split, pipelined upload, and a per-call deadline budget.
//!
//! The daemon protects itself under load and backend failure instead of
//! queueing without bound: a connection cap and bounded per-class work
//! queues shed excess work with an explicit `Overloaded` response,
//! and ingest drops to a degraded (read-only) mode when the archive
//! backend keeps failing — queries stay up, uploads are shed until a
//! cooldown-gated reopen probe succeeds. Deterministic fault injection for
//! all of this comes from `ptm-fault` via
//! [`ServerConfig::fault_plan`](server::ServerConfig); see
//! `docs/FAULTS.md`.
//!
//! Everything is instrumented through `ptm-obs` under the `rpc.server.*`,
//! `rpc.client.*`, `rpc.shard.*`, and `rpc.shed.*` metric prefixes; see
//! `docs/RPC.md` and `docs/OBSERVABILITY.md` for the full protocol and
//! metric reference.
//!
//! # Example (loopback round trip)
//!
//! ```
//! use ptm_rpc::{ClientConfig, RpcClient, RpcServer, ServerConfig};
//!
//! let archive = std::env::temp_dir().join(format!("ptm-rpc-doc-{}.ptma", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&archive);
//! let server = RpcServer::start("127.0.0.1:0", &archive, ServerConfig::default()).unwrap();
//! let mut client = RpcClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! let info = client.ping().unwrap();
//! assert_eq!(info.version, ptm_rpc::PROTOCOL_VERSION);
//! server.shutdown().unwrap();
//! # let _ = std::fs::remove_dir_all(&archive);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A panicking daemon thread must be a contained, answerable event, never a
// crash: non-test code in this crate handles its errors instead of
// unwrapping them (CI enforces this with `-D clippy::unwrap_used
// -D clippy::expect_used` scoped to this crate).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod frame;
pub mod proto;
mod reactor;
pub mod server;

pub use client::{
    ClientConfig, ClientError, RpcClient, ServerInfo, UploadSummary, MAX_PIPELINE_WINDOW,
};
pub use frame::{
    append_frame_with, read_frame, write_frame, write_frame_vectored, FrameDecoder, FrameError,
    ReadOutcome, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN,
};
pub use proto::{ErrorCode, ProtoError, Request, Response, PROTOCOL_VERSION};
pub use server::{DaemonError, ReplayReport, RpcServer, ServerConfig};
