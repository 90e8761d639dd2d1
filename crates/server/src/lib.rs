//! # adcache-server — network serving for the AdCache engine
//!
//! The paper evaluates AdCache inside one process; this crate puts the
//! engine behind a socket so cache behavior can be measured under real
//! network concurrency. Three pieces:
//!
//! - [`protocol`] — a length-prefixed binary wire format (GET / PUT /
//!   DELETE / SCAN / STATS / PING / SHUTDOWN) designed for pipelining:
//!   frames are self-delimiting, ids are echoed, replies come in request
//!   order.
//! - [`server`] — a thread-per-core TCP front-end over a shared
//!   [`adcache_core::CachedDb`]: shared accept loop, worker-owned
//!   connections, read-side backpressure, connection limits, idle
//!   reaping, and graceful drain on shutdown.
//! - [`loadgen`] — a closed-loop / open-loop load generator replaying
//!   `adcache-workload` streams over the wire and reporting throughput
//!   plus p50/p99/p999 round-trip latency.
//!
//! ```no_run
//! use adcache_core::{CachedDb, EngineConfig, Strategy};
//! use adcache_lsm::{MemStorage, Options};
//! use adcache_server::{LoadgenConfig, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(CachedDb::new(
//!     Options::small(),
//!     Arc::new(MemStorage::new()),
//!     EngineConfig::new(Strategy::AdCache, 1 << 20),
//! ).unwrap());
//! let server = Server::start(db, ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..Default::default()
//! }).unwrap();
//! let report = adcache_server::loadgen::run(&LoadgenConfig {
//!     addr: server.local_addr().to_string(),
//!     ops: 10_000,
//!     ..Default::default()
//! }).unwrap();
//! assert_eq!(report.protocol_errors, 0);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod loadgen;
pub mod protocol;
pub mod server;

pub use loadgen::{classify_error, request_of, Client, LoadReport, LoadgenConfig, NetSink};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, FrameError, MetricsFormat,
    Opcode, Progress, Request, Response, Status,
};
pub use server::{ServeReport, Server, ServerConfig};
