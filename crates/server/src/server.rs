//! The TCP serving front-end.
//!
//! One shared accept loop hands sockets to a pool of worker threads
//! (default: one per core). Each worker owns its connections outright —
//! no per-request locking, no cross-thread handoff on the hot path — and
//! runs a read → parse → execute → write cycle over nonblocking sockets:
//!
//! - **Pipelining**: a single `read` syscall may yield many frames; all of
//!   them are decoded and executed before the next read, and responses are
//!   written back strictly in request order.
//! - **Backpressure**: a connection whose response buffer exceeds
//!   [`ServerConfig::max_write_buffer`] stops being *read* until the
//!   client drains it — a slow reader throttles itself instead of growing
//!   server memory.
//! - **Limits**: past [`ServerConfig::max_conns`] concurrent connections
//!   the accept loop answers with one `Err` frame and closes; connections
//!   idle longer than [`ServerConfig::idle_timeout`] are reaped.
//! - **Graceful shutdown**: on [`Server::shutdown`] (or a `Shutdown`
//!   frame from any client) the listener stops accepting, every worker
//!   executes the requests it has already buffered, flushes the replies,
//!   closes its connections, and the engine's memtable is flushed before
//!   the report is returned — no accepted request is dropped.
//! - **Tuning windows**: every executed GET, PUT, DELETE and SCAN, a
//!   `Batch`'s subs included, ticks one [`Tuner`], which stamps a new
//!   window id every 1 000 operations (the paper's window).
//! - **Tenants**: `AUTH` binds a connection to a tenant, which shares the
//!   engine's one cache with every other tenant and has its own quota
//!   bucket and hit tally (`cache.tenant.<id>.{hits,misses}`).
//!
//! Everything is instrumented through the engine's [`Obs`] handle:
//! `ConnAccepted` / `ConnClosed` / `ServerOverload` journal events, a
//! sampled `RequestServed` event, and `server.*` counters, gauges, and
//! per-opcode latency histograms, so `adcache trace` can summarize a
//! serving run the same way it summarizes an in-process one.

use crate::protocol::{
    self, decode_request, encode_response, is_fatal, MetricsFormat, Opcode, Progress, Request,
    Response,
};
use adcache_core::{CachedDb, ControllerConfig, HitTally, Tuner};
use adcache_lsm::{lock_probe, reset_lock_probe, Entry, Key};
use adcache_obs::{
    ConnCloseCause, Counter, Event, Gauge, HistogramHandle, Obs, Stage, StageSet, StageTimer,
};
use serde_json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{mpsc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Journal one `RequestServed` event per this many requests (a `Batch`
/// frame is one request, labelled `batch`).
const SAMPLE_EVERY: u64 = 64;

/// How the serving layer is sized and bounded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4400` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Concurrent-connection ceiling; excess connects get an `Err` frame.
    pub max_conns: usize,
    /// Largest acceptable frame; a larger declared length closes the
    /// connection (framing can no longer be trusted).
    pub max_frame: usize,
    /// Connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Per-connection response-buffer cap; beyond it the connection is
    /// not read until the client drains replies (backpressure).
    pub max_write_buffer: usize,
    /// Requests whose total stage time meets this threshold journal a
    /// `SlowRequest` event with the full stage breakdown (0 disables).
    pub slow_request_ns: u64,
    /// Per-connection admission quota in sustained tokens per second,
    /// where one token ≈ one point read (0 disables). A token bucket per
    /// connection: GET costs one token, DELETE costs four and PUT
    /// `4 + value_len/128` (write amplification, scaled by the payload),
    /// a scan costs `1 + limit/2` (it does proportionally more engine
    /// work), a BATCH costs the sum of its sub-requests' costs (batching
    /// must not bypass admission), and control-plane opcodes (PING/STATS/
    /// METRICS/SHUTDOWN) are free so a throttled client — or an operator
    /// during an attack — can always observe and drain the server. The
    /// exact cost table lives in [`quota_cost`] and is pinned by a unit
    /// test. Over-quota requests are answered with an `Err` reply and
    /// never reach the engine; the connection survives.
    pub quota_ops: u64,
    /// Token-bucket capacity (burst allowance); 0 sizes it to one second
    /// of `quota_ops`.
    pub quota_burst: u64,
    /// Per-*tenant* admission quota in sustained tokens per second,
    /// aggregated across every connection the tenant has bound with
    /// `AUTH` (0 disables). Same cost table as `quota_ops`, but the
    /// bucket is shared: a tenant cannot multiply its budget by opening
    /// more connections. Unauthenticated (legacy) connections belong to
    /// the default tenant and are exempt — tenant quotas are an
    /// isolation tool for multi-tenant runs, not a new global limit.
    pub tenant_quota_ops: u64,
    /// Per-tenant token-bucket capacity; 0 sizes it to one second of
    /// `tenant_quota_ops`.
    pub tenant_quota_burst: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4400".to_string(),
            workers: 0,
            max_conns: 1024,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(60),
            max_write_buffer: 4 << 20,
            slow_request_ns: 10_000_000,
            quota_ops: 0,
            quota_burst: 0,
            tenant_quota_ops: 0,
            tenant_quota_burst: 0,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// What a finished serving run did, returned by [`Server::shutdown`]
/// and [`Server::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests executed (including ones answered with `Err`).
    pub requests: u64,
    /// Frames that failed to decode (unknown opcode, malformed body,
    /// oversized length).
    pub protocol_errors: u64,
    /// Connections accepted over the run.
    pub conns_accepted: u64,
    /// Connections closed over the run (equals accepted after drain).
    pub conns_closed: u64,
    /// Connections refused at the `max_conns` ceiling.
    pub conns_refused: u64,
    /// Requests shed by per-connection admission quotas (answered with an
    /// `Err` reply without touching the engine).
    pub quota_throttled: u64,
    /// Requests shed by per-tenant aggregated quotas (a subset of the
    /// shed total, counted separately so noisy-neighbor drills can tell
    /// the two defenses apart).
    pub tenant_throttled: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
}

/// Pre-resolved gauge and histogram handles (inert when the engine has no
/// `Obs`). The serving counters live in [`Shared`], which the registry
/// names.
struct Metrics {
    conns_active: Gauge,
    inflight: Gauge,
    /// Indexed by opcode discriminant.
    latency: [HistogramHandle; 10],
    /// Sub-requests per served `Batch` frame (`server.batch.subs`).
    batch_subs: HistogramHandle,
    /// Distinct engine stripes per served `Batch` frame
    /// (`server.batch.stripes`).
    batch_stripes: HistogramHandle,
    /// Per-stage request-lifetime histograms (`server.stage.*`).
    stages: StageSet,
}

impl Metrics {
    fn new(obs: &Obs) -> Self {
        let lat = |op: Opcode| obs.histogram(&format!("server.latency.{}", op.label()));
        Metrics {
            conns_active: obs.gauge("server.conns.active"),
            inflight: obs.gauge("server.inflight"),
            latency: [
                lat(Opcode::Ping),
                lat(Opcode::Get),
                lat(Opcode::Put),
                lat(Opcode::Delete),
                lat(Opcode::Scan),
                lat(Opcode::Stats),
                lat(Opcode::Shutdown),
                lat(Opcode::Metrics),
                lat(Opcode::Batch),
                lat(Opcode::Auth),
            ],
            batch_subs: obs.histogram("server.batch.subs"),
            batch_stripes: obs.histogram("server.batch.stripes"),
            stages: StageSet::new(obs, "server.stage"),
        }
    }
}

/// State shared by the accept loop, every worker, and the handle.
struct Shared {
    db: Arc<CachedDb>,
    /// Counts executed engine operations into tuning windows.
    tuner: Tuner,
    /// The default tenant's hit tally: what every connection that never
    /// sent `AUTH` (or sent `AUTH 0`) is charged.
    default_tally: HitTally,
    cfg: ServerConfig,
    obs: Obs,
    metrics: Metrics,
    /// Cached `obs.is_enabled()`: gates every `Instant::now()` the stage
    /// timers would otherwise cost, so telemetry-off runs stay at the old
    /// per-request overhead.
    telemetry: bool,
    shutdown: AtomicBool,
    active: AtomicU64,
    conn_seq: AtomicU64,
    requests: Counter,
    protocol_errors: Counter,
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    conns_refused: AtomicU64,
    quota_throttled: Counter,
    tenant_throttled: AtomicU64,
    bytes_in: Counter,
    bytes_out: Counter,
    /// Per-tenant serving state, created on first `AUTH` for a tenant.
    /// Looked up only at bind time — connections cache the `Arc` — so
    /// the data-plane hot path never takes this lock.
    tenants: RwLock<BTreeMap<u32, Arc<TenantState>>>,
}

/// Serving-layer state shared by every connection a tenant has bound: its
/// hit tally, the aggregated admission bucket and throttle accounting.
struct TenantState {
    id: u32,
    /// Result-cache hits and misses of the tenant's reads.
    tally: HitTally,
    /// Aggregated token bucket — one per tenant, not per connection, so
    /// opening more sockets does not multiply the budget.
    bucket: Mutex<TokenBucket>,
    /// Requests shed for this tenant, named
    /// `server.tenant.<id>.quota.throttled`.
    throttled: Counter,
}

/// An admission-quota token bucket, refilled lazily when taken from. One
/// per connection and one per tenant, both under the [`quota_cost`] table.
struct TokenBucket {
    tokens: f64,
    /// Last refill instant.
    at: Instant,
}

impl TokenBucket {
    /// A fresh connection or tenant starts with its full burst allowance.
    fn full(rate: u64, burst: u64) -> Self {
        TokenBucket {
            tokens: Self::capacity(rate, burst),
            at: Instant::now(),
        }
    }

    /// `burst` tokens, or one second of the sustained `rate` when 0.
    fn capacity(rate: u64, burst: u64) -> f64 {
        if burst > 0 {
            burst as f64
        } else {
            rate.max(1) as f64
        }
    }

    /// Refills at `rate` tokens per second up to the capacity, then takes
    /// `cost`. A cost above the balance is refused and debits nothing.
    fn take(&mut self, rate: u64, burst: u64, cost: f64) -> bool {
        let now = Instant::now();
        let dt = now.duration_since(self.at).as_secs_f64();
        self.at = now;
        self.tokens = (self.tokens + dt * rate as f64).min(Self::capacity(rate, burst));
        let granted = self.tokens >= cost;
        if granted {
            self.tokens -= cost;
        }
        granted
    }
}

impl Shared {
    fn new(db: Arc<CachedDb>, cfg: ServerConfig) -> Self {
        let obs = db.obs();
        let shared = Shared {
            tuner: Tuner::background(&db, None, ControllerConfig::default().window),
            default_tally: HitTally::default(),
            metrics: Metrics::new(&obs),
            telemetry: obs.is_enabled(),
            obs,
            db,
            cfg,
            shutdown: AtomicBool::new(false),
            active: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            requests: Counter::new(),
            protocol_errors: Counter::new(),
            conns_accepted: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            conns_refused: AtomicU64::new(0),
            quota_throttled: Counter::new(),
            tenant_throttled: AtomicU64::new(0),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            tenants: RwLock::new(BTreeMap::new()),
        };
        for (name, cell) in [
            ("server.requests", &shared.requests),
            ("server.protocol_errors", &shared.protocol_errors),
            ("server.quota.throttled", &shared.quota_throttled),
            ("server.bytes_in", &shared.bytes_in),
            ("server.bytes_out", &shared.bytes_out),
        ] {
            shared.obs.adopt_counter(name, cell);
        }
        shared.adopt_tally(0, &shared.default_tally);
        shared
    }

    /// Names `tally`'s cells `cache.tenant.<tenant>.{hits,misses}`.
    fn adopt_tally(&self, tenant: u32, tally: &HitTally) {
        let name = |what| format!("cache.tenant.{tenant}.{what}");
        self.obs.adopt_counter(&name("hits"), &tally.hits);
        self.obs.adopt_counter(&name("misses"), &tally.misses);
    }

    fn report(&self) -> ServeReport {
        ServeReport {
            requests: self.requests.get(),
            protocol_errors: self.protocol_errors.get(),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            conns_refused: self.conns_refused.load(Ordering::Relaxed),
            quota_throttled: self.quota_throttled.get(),
            tenant_throttled: self.tenant_throttled.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
        }
    }

    /// The tenant's serving state, created on first use. `AUTH`-time
    /// only; never on the data-plane hot path.
    fn tenant_state(&self, tenant: u32) -> Arc<TenantState> {
        if let Some(ts) = self.tenants.read().unwrap().get(&tenant) {
            return ts.clone();
        }
        let mut map = self.tenants.write().unwrap();
        map.entry(tenant)
            .or_insert_with(|| {
                let ts = TenantState {
                    id: tenant,
                    tally: HitTally::default(),
                    bucket: Mutex::new(TokenBucket::full(
                        self.cfg.tenant_quota_ops,
                        self.cfg.tenant_quota_burst,
                    )),
                    throttled: Counter::new(),
                };
                let name = format!("server.tenant.{tenant}.quota.throttled");
                self.obs.adopt_counter(&name, &ts.throttled);
                self.adopt_tally(tenant, &ts.tally);
                Arc::new(ts)
            })
            .clone()
    }
}

/// Outbound reply bytes as a queue of segments flushed with one vectored
/// write per syscall, instead of one contiguous buffer written (and
/// memmove-compacted) frame by frame. Encoders append to the open tail
/// segment; once the tail passes [`WriteQueue::SEAL_BYTES`] the next
/// append starts a fresh segment, so a multi-megabyte backlog never pays
/// a large compaction memmove and a flush covers many frames per
/// `writev`.
struct WriteQueue {
    segs: VecDeque<Vec<u8>>,
    /// Already-written prefix of the front segment.
    head: usize,
    /// Total unwritten bytes across all segments.
    pending: usize,
    /// One retired segment kept for reuse — most connections ping-pong a
    /// single segment, so this removes almost all buffer churn.
    spare: Option<Vec<u8>>,
}

impl WriteQueue {
    /// Tail segments at or past this size are sealed.
    const SEAL_BYTES: usize = 60 << 10;
    /// Ceiling on iovecs per `writev` (Linux caps at `UIO_MAXIOV`=1024;
    /// 64 is plenty to amortize the syscall).
    const MAX_IOVECS: usize = 64;

    fn new() -> Self {
        WriteQueue {
            segs: VecDeque::new(),
            head: 0,
            pending: 0,
            spare: None,
        }
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Appends one encoded frame via `f`, opening a new segment when the
    /// tail is sealed.
    fn encode_with(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        let need_new = self.segs.back().is_none_or(|s| s.len() >= Self::SEAL_BYTES);
        if need_new {
            let mut seg = self.spare.take().unwrap_or_default();
            seg.clear();
            self.segs.push_back(seg);
        }
        let tail = self.segs.back_mut().expect("tail segment exists");
        let before = tail.len();
        f(tail);
        self.pending += tail.len() - before;
    }

    /// The unwritten byte ranges, at most [`Self::MAX_IOVECS`] slices.
    fn slices(&self) -> Vec<IoSlice<'_>> {
        let mut out = Vec::with_capacity(self.segs.len().min(Self::MAX_IOVECS));
        for (i, seg) in self.segs.iter().enumerate() {
            if out.len() >= Self::MAX_IOVECS {
                break;
            }
            let from = if i == 0 { self.head } else { 0 };
            if seg.len() > from {
                out.push(IoSlice::new(&seg[from..]));
            }
        }
        out
    }

    /// The front segment's unwritten range (blocking drain path).
    fn front_chunk(&self) -> Option<&[u8]> {
        self.segs.front().and_then(|seg| {
            if seg.len() > self.head {
                Some(&seg[self.head..])
            } else {
                None
            }
        })
    }

    /// Marks `n` bytes written, retiring fully-flushed segments.
    fn advance(&mut self, mut n: usize) {
        self.pending -= n;
        while n > 0 {
            let front_left = self.segs[0].len() - self.head;
            if n >= front_left {
                n -= front_left;
                self.head = 0;
                let seg = self.segs.pop_front().expect("front segment exists");
                if self.spare.is_none() {
                    self.spare = Some(seg);
                }
            } else {
                self.head += n;
                n = 0;
            }
        }
    }

    /// Drops everything unwritten (connection is dying anyway).
    fn clear(&mut self) {
        self.segs.clear();
        self.head = 0;
        self.pending = 0;
    }
}

/// One worker-owned connection.
struct Conn {
    id: u64,
    stream: TcpStream,
    rbuf: Vec<u8>,
    wq: WriteQueue,
    last_active: Instant,
    /// When the most recent socket read delivered bytes; the baseline for
    /// each buffered frame's queue-wait stage.
    read_at: Instant,
    /// Duration of that read syscall (the recv stage, shared by every
    /// frame the read delivered). 0 with telemetry off.
    last_read_ns: u64,
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// Per-connection admission-quota bucket.
    bucket: TokenBucket,
    /// Requests throttled on this connection.
    throttled: u64,
    /// The tenant this connection bound with `AUTH`; `None` is a legacy
    /// connection serving the default tenant.
    tenant: Option<Arc<TenantState>>,
    /// Set once the connection should close after its replies flush.
    closing: Option<ConnCloseCause>,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wq.pending()
    }

    /// The hit tally this connection's reads are charged to: its
    /// tenant's, bound at `AUTH`, else the default tenant's.
    fn tally<'a>(&'a self, shared: &'a Shared) -> &'a HitTally {
        match &self.tenant {
            Some(ts) => &ts.tally,
            None => &shared.default_tally,
        }
    }
}

/// A running server, the handle of its run. Dropping it without calling
/// [`Server::shutdown`] aborts the threads without draining.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns.
    pub fn start(db: Arc<CachedDb>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers = cfg.effective_workers();
        let shared = Arc::new(Shared::new(db, cfg));

        let mut threads = Vec::with_capacity(workers + 1);
        let mut senders = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("adcache-worker-{w}"))
                    .spawn(move || worker_loop(&shared, &rx))?,
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("adcache-accept".to_string())
                    .spawn(move || accept_loop(&shared, &listener, &senders))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests graceful shutdown and waits for the drain to finish:
    /// buffered requests execute, replies flush, connections close, and
    /// the engine's memtable is flushed to the LSM before returning.
    pub fn shutdown(self) -> ServeReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wait()
    }

    /// Waits for the server to stop on its own (a client's `Shutdown`
    /// frame) and returns the drain report.
    pub fn wait(self) -> ServeReport {
        for t in self.threads {
            let _ = t.join();
        }
        // Everything acknowledged over the wire must survive a restart.
        let _ = self.shared.db.db().flush();
        self.shared.report()
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, senders: &[mpsc::Sender<TcpStream>]) {
    let mut next = 0usize;
    // A worker whose channel has disconnected (panic, crash) is skipped
    // permanently; the loop only exits on shutdown or when every worker
    // is gone. One dead worker must not stop the whole server accepting.
    let mut dead = vec![false; senders.len()];
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Claim a slot *before* checking the ceiling: a plain
                // load-then-add would race concurrent closes and admit
                // over the limit.
                let prev = shared.active.fetch_add(1, Ordering::Relaxed);
                if prev >= shared.cfg.max_conns as u64 {
                    shared.active.fetch_sub(1, Ordering::Relaxed);
                    refuse(shared, stream, prev);
                    continue;
                }
                shared
                    .metrics
                    .conns_active
                    .set(shared.active.load(Ordering::Relaxed) as i64);
                // Round-robin dispatch across live workers; workers
                // balance naturally because each owns an independent
                // slice of connections.
                let mut stream = Some(stream);
                for k in 0..senders.len() {
                    let w = (next + k) % senders.len();
                    if dead[w] {
                        continue;
                    }
                    match senders[w].send(stream.take().expect("stream unclaimed")) {
                        Ok(()) => {
                            next = w + 1;
                            break;
                        }
                        Err(mpsc::SendError(s)) => {
                            dead[w] = true;
                            stream = Some(s);
                        }
                    }
                }
                if stream.is_some() {
                    // Every worker is gone; nothing can serve this
                    // connection or any future one.
                    shared.active.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Dropping the senders lets each worker observe disconnection and
    // finish its drain.
}

/// Over the connection ceiling: answer with one `Err` frame, then close.
fn refuse(shared: &Shared, mut stream: TcpStream, active: u64) {
    shared.conns_refused.fetch_add(1, Ordering::Relaxed);
    let limit = shared.cfg.max_conns as u64;
    shared.obs.emit(|| Event::ServerOverload { active, limit });
    let mut frame = Vec::new();
    encode_response(
        &mut frame,
        0,
        &Response::Error("server at connection limit".to_string()),
    );
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&frame);
}

/// Unproductive wakeups before the park delay starts escalating; below
/// this the worker only yields, keeping sub-microsecond reaction to a
/// burst that arrives right after a quiet tick.
const SPIN_YIELDS: u32 = 64;
/// First park delay once yielding gives up.
const PARK_MIN: Duration = Duration::from_micros(50);
/// Park ceiling — an idle worker wakes at least this often to reap idle
/// timeouts and observe shutdown.
const PARK_MAX: Duration = Duration::from_millis(1);

fn worker_loop(shared: &Shared, incoming: &mpsc::Receiver<TcpStream>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut accept_closed = false;
    // Adaptive spin-then-park replaces a flat 1 ms sleep-poll: a busy
    // worker never sleeps, a recently-busy one yields (staying hot for
    // the next frame), and only a genuinely idle one backs off to
    // millisecond parks.
    let mut idle = 0u32;
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        let mut progressed = false;

        // Adopt newly accepted sockets.
        loop {
            match incoming.try_recv() {
                Ok(stream) => {
                    if let Some(conn) = adopt(shared, stream) {
                        conns.push(conn);
                        progressed = true;
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    accept_closed = true;
                    break;
                }
            }
        }

        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            progressed |= flush_writes(shared, conn);
            if conn.closing.is_none() && !draining {
                progressed |= service_reads(shared, conn, &mut scratch);
                if conn.closing.is_none() && conn.last_active.elapsed() >= shared.cfg.idle_timeout {
                    conn.closing = Some(ConnCloseCause::IdleTimeout);
                }
            } else if conn.closing.is_none() && draining {
                // Drain: execute what is already buffered, then close.
                // The write-buffer cap is waived — everything accepted
                // executes, and `draining_flush` writes it out blocking.
                progressed |= service_reads(shared, conn, &mut scratch);
                drain_buffered(shared, conn, false);
                conn.closing = Some(ConnCloseCause::Shutdown);
            }
            let done = match conn.closing {
                Some(_) => conn.pending_write() == 0 || draining_flush(conn),
                None => false,
            };
            if done {
                let conn = conns.swap_remove(i);
                finish(shared, conn);
                progressed = true;
            } else {
                i += 1;
            }
        }

        if draining && conns.is_empty() && accept_closed {
            return;
        }
        if progressed {
            idle = 0;
        } else {
            idle = idle.saturating_add(1);
            if idle <= SPIN_YIELDS {
                std::thread::yield_now();
            } else {
                // 50 µs doubling to the 1 ms ceiling.
                let exp = (idle - SPIN_YIELDS - 1).min(10);
                let park = PARK_MIN.saturating_mul(1 << exp).min(PARK_MAX);
                std::thread::sleep(park);
            }
        }
    }
}

fn adopt(shared: &Shared, stream: TcpStream) -> Option<Conn> {
    if stream.set_nonblocking(true).is_err() {
        shared.active.fetch_sub(1, Ordering::Relaxed);
        return None;
    }
    let _ = stream.set_nodelay(true);
    let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
    shared.obs.emit(|| Event::ConnAccepted {
        conn: id,
        peer: peer.clone(),
    });
    Some(Conn {
        id,
        stream,
        rbuf: Vec::new(),
        wq: WriteQueue::new(),
        last_active: Instant::now(),
        read_at: Instant::now(),
        last_read_ns: 0,
        requests: 0,
        bytes_in: 0,
        bytes_out: 0,
        bucket: TokenBucket::full(shared.cfg.quota_ops, shared.cfg.quota_burst),
        throttled: 0,
        tenant: None,
        closing: None,
    })
}

/// Writes as much buffered response data as the socket accepts, many
/// segments per syscall via `writev`.
fn flush_writes(shared: &Shared, conn: &mut Conn) -> bool {
    let mut progressed = false;
    while !conn.wq.is_empty() {
        let slices = conn.wq.slices();
        match conn.stream.write_vectored(&slices) {
            Ok(0) => {
                conn.closing = Some(ConnCloseCause::IoError);
                break;
            }
            Ok(n) => {
                conn.wq.advance(n);
                conn.bytes_out += n as u64;
                shared.bytes_out.add(n as u64);
                conn.last_active = Instant::now();
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closing = Some(ConnCloseCause::IoError);
                break;
            }
        }
    }
    progressed
}

/// Final blocking flush of a draining connection's replies. Returns true
/// once the connection can be dropped.
fn draining_flush(conn: &mut Conn) -> bool {
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
    while let Some(chunk) = conn.wq.front_chunk() {
        let len = chunk.len();
        if conn.stream.write_all(chunk).is_err() {
            break;
        }
        conn.wq.advance(len);
    }
    let _ = conn.stream.flush();
    conn.wq.clear();
    true
}

/// Per-wakeup ceiling on bytes read from one connection, so a firehose
/// peer cannot starve its worker's other connections.
const READ_BUDGET: usize = 256 << 10;

/// Reads until the socket runs dry (or a fairness/backpressure bound
/// trips) and executes every complete frame after each read.
fn service_reads(shared: &Shared, conn: &mut Conn, scratch: &mut [u8]) -> bool {
    let mut progressed = false;
    let mut budget = READ_BUDGET;
    loop {
        // Backpressure: stop reading while this client owes us a drain.
        if conn.closing.is_some()
            || conn.pending_write() >= shared.cfg.max_write_buffer
            || budget == 0
        {
            break;
        }
        let read_start = if shared.telemetry {
            Some(Instant::now())
        } else {
            None
        };
        match conn.stream.read(scratch) {
            Ok(0) => {
                // Client closed its half; execute anything already
                // buffered (cap waived: the backlog is already bounded by
                // what was read, and no more will arrive).
                drain_buffered(shared, conn, false);
                if conn.closing.is_none() {
                    conn.closing = Some(ConnCloseCause::ClientClosed);
                }
                return true;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                conn.bytes_in += n as u64;
                shared.bytes_in.add(n as u64);
                conn.last_active = Instant::now();
                if let Some(t0) = read_start {
                    conn.last_read_ns = t0.elapsed().as_nanos() as u64;
                    conn.read_at = Instant::now();
                }
                progressed = true;
                budget = budget.saturating_sub(n);
                // Execute between reads so replies stream out while more
                // requests arrive, and so the backpressure re-check above
                // sees the growth this read produced.
                drain_buffered(shared, conn, true);
                if n < scratch.len() {
                    break; // short read — the socket is drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.closing = Some(ConnCloseCause::IoError);
                return true;
            }
        }
    }
    progressed |= drain_buffered(shared, conn, true);
    progressed
}

/// Decodes and executes complete frames already buffered on `conn`,
/// appending responses in request order.
///
/// With `enforce_cap`, execution stops once the reply backlog reaches
/// [`ServerConfig::max_write_buffer`]; the remaining buffered frames stay
/// in `rbuf` until the client drains replies. Without the check, one
/// 64 KiB read full of pipelined SCANs (512-entry replies each) could
/// grow the write buffer without bound — the cap at the read boundary
/// alone cannot see growth produced *after* the read.
fn drain_buffered(shared: &Shared, conn: &mut Conn, enforce_cap: bool) -> bool {
    let mut at = 0usize;
    let mut served = 0u64;
    loop {
        if enforce_cap && conn.pending_write() >= shared.cfg.max_write_buffer {
            break;
        }
        let parse_start = if shared.telemetry {
            Some(Instant::now())
        } else {
            None
        };
        match decode_request(&conn.rbuf[at..], shared.cfg.max_frame) {
            Progress::Incomplete => break,
            Progress::Fatal(err) => {
                shared.protocol_errors.inc();
                conn.wq
                    .encode_with(|out| encode_response(out, 0, &Response::Error(err.to_string())));
                debug_assert!(is_fatal(&err));
                conn.closing = Some(ConnCloseCause::ProtocolError);
                at = conn.rbuf.len(); // the rest of the stream is garbage
                break;
            }
            Progress::Frame(Err((id, err)), consumed) => {
                shared.protocol_errors.inc();
                conn.wq
                    .encode_with(|out| encode_response(out, id, &Response::Error(err.to_string())));
                at += consumed;
                served += 1;
            }
            Progress::Frame(Ok((id, req)), consumed) => {
                at += consumed;
                served += 1;
                let parse_ns = parse_start.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                execute(shared, conn, id, &req, parse_ns);
            }
        }
    }
    if at > 0 {
        conn.rbuf.drain(..at);
    }
    served > 0
}

/// Executes one data-plane request (a `Batch` sub-request or a top-level
/// frame's engine work). Control-plane opcodes are not valid here — the
/// decoder rejects them inside batches, so the fallback arm is defense in
/// depth, not a reachable path.
fn execute_data_sub(shared: &Shared, tally: &HitTally, req: &Request) -> Response {
    match req {
        Request::Ping => Response::Ok,
        Request::Get { key } => match shared.db.get_in(Some(tally), key) {
            Ok(Some(v)) => Response::Value(v),
            Ok(None) => Response::NotFound,
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Put { key, value } => match shared.db.put(key.clone(), value.clone()) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Delete { key } => match shared.db.delete(key.clone()) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Scan { from, limit } => {
            match shared.db.scan_in(Some(tally), from, *limit as usize) {
                Ok(entries) => Response::Entries(entries),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        _ => Response::Error("opcode not allowed in batch".into()),
    }
}

/// Executes a batch's sub-requests **in order**, with stripe-aware
/// grouping: a run of consecutive GETs goes down as one
/// [`CachedDb::multi_get_in`] (each stripe's read lock taken once), a run
/// of consecutive PUTs and DELETEs as one [`CachedDb::write_batch`]
/// (one write-lock acquisition, commit round and WAL flush per stripe).
/// A run ends where the other kind or a scan begins, so read-your-writes
/// holds within the batch; a failed run answers each of its subs with
/// the error. Returns the in-order multi-reply plus `(subs, distinct
/// stripes)` for metrics.
fn execute_batch(shared: &Shared, tally: &HitTally, subs: &[Request]) -> (Response, (u64, u64)) {
    let striped = shared.db.db();
    let mut stripe_seen = vec![false; striped.num_stripes()];
    let mut out: Vec<(Opcode, Response)> = Vec::with_capacity(subs.len());
    let mut i = 0;
    while i < subs.len() {
        let mut j = i;
        match &subs[i] {
            Request::Get { .. } => {
                let mut keys: Vec<&[u8]> = Vec::new();
                while let Some(Request::Get { key }) = subs.get(j) {
                    keys.push(key.as_ref());
                    stripe_seen[striped.stripe_for(key)] = true;
                    j += 1;
                }
                match shared.db.multi_get_in(Some(tally), &keys) {
                    Ok(values) => out.extend(values.into_iter().map(|v| {
                        let resp = v.map_or(Response::NotFound, Response::Value);
                        (Opcode::Get, resp)
                    })),
                    Err(e) => {
                        let resp = Response::Error(e.to_string());
                        out.extend(keys.iter().map(|_| (Opcode::Get, resp.clone())));
                    }
                }
            }
            Request::Put { .. } | Request::Delete { .. } => {
                let mut batch: Vec<(Key, Entry)> = Vec::new();
                while let Some(sub) = subs.get(j) {
                    let (key, entry) = match sub {
                        Request::Put { key, value } => (key, Entry::Put(value.clone())),
                        Request::Delete { key } => (key, Entry::Tombstone),
                        _ => break,
                    };
                    stripe_seen[striped.stripe_for(key)] = true;
                    batch.push((key.clone(), entry));
                    j += 1;
                }
                let resp = match shared.db.write_batch(batch) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                };
                out.extend(subs[i..j].iter().map(|s| (s.opcode(), resp.clone())));
            }
            sub => {
                // A scan merges across every stripe.
                if matches!(sub, Request::Scan { .. }) {
                    stripe_seen.iter_mut().for_each(|s| *s = true);
                }
                out.push((sub.opcode(), execute_data_sub(shared, tally, sub)));
                j += 1;
            }
        }
        i = j;
    }
    let stripes = stripe_seen.iter().filter(|s| **s).count() as u64;
    (Response::Batch(out), (subs.len() as u64, stripes))
}

/// The engine operations `req` runs: one per GET, PUT, DELETE and SCAN,
/// a `Batch`'s subs included; none for a PING or a control opcode.
fn engine_ops(req: &Request) -> usize {
    match req {
        Request::Get { .. }
        | Request::Put { .. }
        | Request::Delete { .. }
        | Request::Scan { .. } => 1,
        Request::Batch { subs } => subs.iter().map(engine_ops).sum(),
        _ => 0,
    }
}

fn execute(shared: &Shared, conn: &mut Conn, id: u64, req: &Request, parse_ns: u64) {
    let op = req.opcode();
    shared.metrics.inflight.add(1);
    // Queue wait: time since the socket read that delivered this frame's
    // bytes. Head-of-line semantics — later frames in one batch charge the
    // service time of the frames ahead of them to queue_wait.
    let queue_ns = if shared.telemetry {
        conn.read_at.elapsed().as_nanos() as u64
    } else {
        0
    };
    if shared.telemetry {
        reset_lock_probe();
    }
    let start = Instant::now();
    let mut batch_info: Option<(u64, u64)> = None;
    let resp = if let Some(denied) = quota_check(shared, conn, req) {
        denied
    } else {
        let resp = match req {
            Request::Ping
            | Request::Get { .. }
            | Request::Put { .. }
            | Request::Delete { .. }
            | Request::Scan { .. } => execute_data_sub(shared, conn.tally(shared), req),
            Request::Batch { subs } => {
                let (resp, info) = execute_batch(shared, conn.tally(shared), subs);
                batch_info = Some(info);
                resp
            }
            Request::Auth { tenant } => {
                bind_tenant(shared, conn, *tenant);
                Response::Ok
            }
            Request::Stats => Response::Stats(stats_json(shared)),
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                Response::Ok
            }
            Request::Metrics { format } => match shared.obs.registry() {
                Some(reg) => Response::Metrics(match format {
                    MetricsFormat::Json => reg.snapshot_json(),
                    MetricsFormat::Prometheus => reg.prometheus_text(),
                }),
                None => Response::Error("telemetry disabled".into()),
            },
        };
        for _ in 0..engine_ops(req) {
            shared.tuner.tick(&shared.db);
        }
        resp
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    shared.metrics.inflight.sub(1);
    shared.metrics.latency[op as usize].record(latency_ns);
    if let Some((subs, stripes)) = batch_info {
        shared.metrics.batch_subs.record(subs);
        shared.metrics.batch_stripes.record(stripes);
    }
    let total = shared.requests.inc();
    conn.requests += 1;
    if total.is_multiple_of(SAMPLE_EVERY) {
        shared.obs.emit(|| Event::RequestServed {
            conn: conn.id,
            opcode: op.label().to_string(),
            status: resp.status().label().to_string(),
            latency_ns,
        });
    }
    if shared.telemetry {
        // Engine-lock wait and hold observed by this thread during the db
        // call; everything else inside the call is the cache layer (and
        // serialization, for Stats/Metrics).
        let (lock_wait_ns, lock_hold_ns) = lock_probe();
        let cache_ns = latency_ns.saturating_sub(lock_wait_ns + lock_hold_ns);
        let reply_start = Instant::now();
        conn.wq.encode_with(|out| encode_response(out, id, &resp));
        let reply_ns = reply_start.elapsed().as_nanos() as u64;

        let mut st = StageTimer::new();
        st.set(Stage::Recv, conn.last_read_ns);
        st.set(Stage::Parse, parse_ns);
        st.set(Stage::QueueWait, queue_ns);
        st.set(Stage::LockWait, lock_wait_ns);
        st.set(Stage::EngineExec, lock_hold_ns);
        st.set(Stage::CacheLayer, cache_ns);
        st.set(Stage::ReplyFlush, reply_ns);
        shared.metrics.stages.record(&st);

        let slow = shared.cfg.slow_request_ns;
        if slow > 0 && st.total() >= slow {
            let status = resp.status();
            shared.obs.emit(|| Event::SlowRequest {
                conn: conn.id,
                opcode: op.label().to_string(),
                status: status.label().to_string(),
                total_ns: st.total(),
                recv_ns: conn.last_read_ns,
                parse_ns,
                queue_ns,
                lock_wait_ns,
                engine_ns: lock_hold_ns,
                cache_ns,
                reply_ns,
                key: slow_request_key(req),
            });
        }
    } else {
        conn.wq.encode_with(|out| encode_response(out, id, &resp));
    }
}

/// Binds `conn` to `tenant`: swaps in the tenant's serving state (its hit
/// tally and aggregated quota) and journals the binding. `AUTH 0` rebinds
/// to the default tenant (legacy semantics) — useful for connection-pool
/// reuse.
fn bind_tenant(shared: &Shared, conn: &mut Conn, tenant: u32) {
    conn.tenant = (tenant != 0).then(|| shared.tenant_state(tenant));
    shared.obs.emit(|| Event::TenantBound {
        conn: conn.id,
        tenant: tenant as u64,
    });
}

/// The admission-quota cost table, in tokens (one token ≈ one point
/// read). `None` means the opcode is quota-exempt (control plane).
///
/// - GET: 1. DELETE: 4.
/// - PUT: `4 + value_len/128`. Writes amplify — every payload byte is
///   carried again by the WAL, the flush, and each compaction level it
///   passes through — so a bulk-payload attacker exhausts its budget in
///   a few requests while small legit writes stay near the flat floor.
/// - SCAN: `1 + limit/2`. A scan does work proportional to its limit,
///   each entry visit comparable to a point lookup; charging near one
///   token per entry keeps a flood of wide scans from hiding three
///   orders of magnitude of work behind one token.
/// - BATCH: the sum of its sub-requests' costs — batching amortizes
///   syscalls and lock handshakes, not admission control.
///
/// A unit test pins this table against the documented formulas so code
/// and docs cannot drift again.
pub fn quota_cost(req: &Request) -> Option<f64> {
    Some(match req {
        Request::Get { .. } => 1.0,
        Request::Put { value, .. } => 4.0 + value.len() as f64 / 128.0,
        Request::Delete { .. } => 4.0,
        Request::Scan { limit, .. } => 1.0 + *limit as f64 / 2.0,
        Request::Batch { subs } => subs.iter().filter_map(quota_cost).sum(),
        // Ping is free: it is the liveness probe a throttled client uses
        // to tell "quota-limited" from "dead", batched or not.
        Request::Ping => return None,
        // AUTH is control plane: a throttled tenant must still be able to
        // (re)bind, and the handshake happens before traffic anyway.
        Request::Auth { .. } => return None,
        Request::Stats | Request::Shutdown | Request::Metrics { .. } => return None,
    })
}

/// Admission quotas: takes this request's cost from the connection's
/// bucket, then from its tenant's (shared by every connection the tenant
/// bound). Returns the `Err` reply to send instead of executing when
/// either runs dry. Control-plane opcodes are exempt — observation and
/// shutdown must stay possible during an attack. A batch is
/// all-or-nothing: either the buckets cover the whole frame or the whole
/// frame is refused with one `Err`.
fn quota_check(shared: &Shared, conn: &mut Conn, req: &Request) -> Option<Response> {
    let cfg = &shared.cfg;
    if cfg.quota_ops == 0 && cfg.tenant_quota_ops == 0 {
        return None;
    }
    let cost = quota_cost(req)?;
    if cfg.quota_ops > 0 && !conn.bucket.take(cfg.quota_ops, cfg.quota_burst, cost) {
        conn.throttled += 1;
        let (id, throttled) = (conn.id, conn.throttled);
        note_throttle(shared, throttled, || Event::QuotaThrottled {
            conn: id,
            opcode: req.opcode().label().to_string(),
            throttled,
        });
        return Some(Response::Error(format!(
            "quota exceeded: connection limited to {} tokens/s",
            cfg.quota_ops
        )));
    }
    if cfg.tenant_quota_ops == 0 {
        return None;
    }
    // Unauthenticated connections are the default tenant's, and exempt.
    let ts = conn.tenant.as_ref()?;
    let mut bucket = ts.bucket.lock().unwrap();
    if bucket.take(cfg.tenant_quota_ops, cfg.tenant_quota_burst, cost) {
        return None;
    }
    drop(bucket);
    let throttled = ts.throttled.inc();
    shared.tenant_throttled.fetch_add(1, Ordering::Relaxed);
    note_throttle(shared, throttled, || Event::TenantThrottled {
        tenant: ts.id as u64,
        opcode: req.opcode().label().to_string(),
        throttled,
    });
    Some(Response::Error(format!(
        "quota exceeded: tenant {} limited to {} tokens/s",
        ts.id, cfg.tenant_quota_ops
    )))
}

/// Counts one shed request and journals it if it is the `nth == 1`st (the
/// defense activated) or a 1024th of its connection or tenant — a
/// sustained attack must not flood the journal either.
fn note_throttle(shared: &Shared, nth: u64, event: impl FnOnce() -> Event) {
    shared.quota_throttled.inc();
    if nth == 1 || nth.is_multiple_of(1024) {
        shared.obs.emit(event);
    }
}

/// A short human-readable key label for `SlowRequest` events: the
/// (truncated, lossy-decoded) key for point ops, `from..+limit` for scans,
/// empty for keyless opcodes.
fn slow_request_key(req: &Request) -> String {
    fn trunc(b: &[u8]) -> String {
        let s = String::from_utf8_lossy(&b[..b.len().min(32)]).into_owned();
        if b.len() > 32 {
            format!("{s}…")
        } else {
            s
        }
    }
    match req {
        Request::Get { key } | Request::Delete { key } => trunc(key),
        Request::Put { key, .. } => trunc(key),
        Request::Scan { from, limit } => format!("{}..+{}", trunc(from), limit),
        Request::Batch { subs } => format!("batch[{}]", subs.len()),
        _ => String::new(),
    }
}

/// The `Stats` payload: the engine's report wrapped with serving-layer
/// totals and the memory ledger, as one JSON object.
fn stats_json(shared: &Shared) -> String {
    let engine = serde_json::to_value(&shared.db.stats_report())
        .unwrap_or_else(|_| Value::Object(Vec::new()));
    let memory = serde_json::to_value(&shared.db.memory_report())
        .unwrap_or_else(|_| Value::Object(Vec::new()));
    let server = Value::Object(vec![
        ("requests".to_string(), Value::from(shared.requests.get())),
        (
            "protocol_errors".to_string(),
            Value::from(shared.protocol_errors.get()),
        ),
        (
            "conns_active".to_string(),
            Value::from(shared.active.load(Ordering::Relaxed)),
        ),
        (
            "conns_accepted".to_string(),
            Value::from(shared.conns_accepted.load(Ordering::Relaxed)),
        ),
        (
            "conns_refused".to_string(),
            Value::from(shared.conns_refused.load(Ordering::Relaxed)),
        ),
        (
            "quota_throttled".to_string(),
            Value::from(shared.quota_throttled.get()),
        ),
        (
            "tenant_throttled".to_string(),
            Value::from(shared.tenant_throttled.load(Ordering::Relaxed)),
        ),
        ("bytes_in".to_string(), Value::from(shared.bytes_in.get())),
        ("bytes_out".to_string(), Value::from(shared.bytes_out.get())),
    ]);
    let root = Value::Object(vec![
        ("engine".to_string(), engine),
        ("server".to_string(), server),
        ("memory".to_string(), memory),
    ]);
    serde_json::to_string(&root).unwrap_or_else(|_| "{}".to_string())
}

fn finish(shared: &Shared, conn: Conn) {
    let cause = conn.closing.unwrap_or(ConnCloseCause::ClientClosed);
    shared.conns_closed.fetch_add(1, Ordering::Relaxed);
    shared.active.fetch_sub(1, Ordering::Relaxed);
    shared
        .metrics
        .conns_active
        .set(shared.active.load(Ordering::Relaxed) as i64);
    shared.obs.emit(|| Event::ConnClosed {
        conn: conn.id,
        cause,
        requests: conn.requests,
        bytes_in: conn.bytes_in,
        bytes_out: conn.bytes_out,
    });
    // Drop closes the socket.
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcache_core::{EngineConfig, Strategy};
    use adcache_lsm::{MemStorage, Options};
    use bytes::Bytes;

    fn test_shared(tweak: impl FnOnce(&mut ServerConfig)) -> Arc<Shared> {
        let db = CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(Strategy::AdCache, 1 << 20),
        )
        .unwrap();
        for i in 0..512u64 {
            db.load(
                Bytes::from(format!("key{i:05}")),
                Bytes::from(vec![7u8; 64]),
            )
            .unwrap();
        }
        db.db().flush().unwrap();
        let mut cfg = ServerConfig::default();
        tweak(&mut cfg);
        Arc::new(Shared::new(Arc::new(db), cfg))
    }

    /// A worker-side `Conn` over a real loopback socket pair; the peer end
    /// is returned so tests can read what the server flushes.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let conn = Conn {
            id: 0,
            stream,
            rbuf: Vec::new(),
            wq: WriteQueue::new(),
            last_active: Instant::now(),
            read_at: Instant::now(),
            last_read_ns: 0,
            requests: 0,
            bytes_in: 0,
            bytes_out: 0,
            bucket: TokenBucket::full(0, 0),
            throttled: 0,
            tenant: None,
            closing: None,
        };
        (conn, peer)
    }

    /// Regression (backpressure bypass): one buffered burst of pipelined
    /// SCANs must stop executing once the reply backlog reaches
    /// `max_write_buffer`, leaving the remaining frames in `rbuf`. Before
    /// the fix, `drain_buffered` executed *every* buffered frame — the
    /// cap was only checked before the socket read — so this burst grew
    /// the write buffer to ~10 MiB and the assertion fails.
    #[test]
    fn drain_buffered_respects_write_buffer_cap() {
        let cap = 64 << 10;
        let shared = test_shared(|c| c.max_write_buffer = cap);
        let (mut conn, _peer) = conn_pair();
        // 256 pipelined scans; each reply carries 512 entries of ~80
        // bytes (~41 KiB), so two replies cross the 64 KiB cap and ~254
        // frames must stay unexecuted.
        for i in 0..256u64 {
            protocol::encode_request(
                &mut conn.rbuf,
                i,
                &Request::Scan {
                    from: Bytes::from_static(b"key"),
                    limit: 512,
                },
            );
        }
        let rbuf_before = conn.rbuf.len();
        drain_buffered(&shared, &mut conn, true);
        // At most the cap plus the single reply that crossed it.
        let one_reply = 64 << 10;
        assert!(
            conn.pending_write() <= cap + one_reply,
            "write buffer grew past cap + one reply: {} > {}",
            conn.pending_write(),
            cap + one_reply
        );
        assert!(
            !conn.rbuf.is_empty() && conn.rbuf.len() < rbuf_before,
            "unexecuted frames must stay buffered (got {} of {} bytes left)",
            conn.rbuf.len(),
            rbuf_before
        );
        // Once the client drains (the queue empties), the rest executes.
        conn.wq.clear();
        drain_buffered(&shared, &mut conn, true);
        assert!(conn.pending_write() > 0, "resumed executing after drain");
    }

    /// The converse of the regression above: without the in-loop cap
    /// check (the pre-fix behavior, still used deliberately on the
    /// shutdown-drain path) the same burst executes in full and the
    /// backlog blows straight past the cap — which is exactly why the
    /// serving path needs `enforce_cap`.
    #[test]
    fn drain_without_cap_is_unbounded() {
        let cap = 64 << 10;
        let shared = test_shared(|c| c.max_write_buffer = cap);
        let (mut conn, _peer) = conn_pair();
        for i in 0..64u64 {
            protocol::encode_request(
                &mut conn.rbuf,
                i,
                &Request::Scan {
                    from: Bytes::from_static(b"key"),
                    limit: 512,
                },
            );
        }
        drain_buffered(&shared, &mut conn, false);
        assert!(conn.rbuf.is_empty(), "uncapped drain executes everything");
        assert!(
            conn.pending_write() > 4 * cap,
            "pre-fix behavior: backlog {} far exceeds the {} cap",
            conn.pending_write(),
            cap
        );
    }

    /// Pins the documented quota cost table to the implementation
    /// (regression for the doc/code drift where the docs promised
    /// `value_len/1024` and `limit/16`).
    #[test]
    fn quota_cost_table_is_pinned() {
        let get = Request::Get {
            key: Bytes::from_static(b"k"),
        };
        let put = |len: usize| Request::Put {
            key: Bytes::from_static(b"k"),
            value: Bytes::from(vec![0u8; len]),
        };
        let scan = |limit: u32| Request::Scan {
            from: Bytes::from_static(b"k"),
            limit,
        };
        assert_eq!(quota_cost(&get), Some(1.0));
        assert_eq!(
            quota_cost(&Request::Delete {
                key: Bytes::from_static(b"k")
            }),
            Some(4.0)
        );
        // PUT: 4 + value_len/128.
        assert_eq!(quota_cost(&put(0)), Some(4.0));
        assert_eq!(quota_cost(&put(1024)), Some(12.0));
        // SCAN: 1 + limit/2.
        assert_eq!(quota_cost(&scan(0)), Some(1.0));
        assert_eq!(quota_cost(&scan(512)), Some(257.0));
        // BATCH: sum of subs (quota-exempt subs contribute zero).
        let batch = Request::Batch {
            subs: vec![Request::Ping, get.clone(), put(256), scan(100)],
        };
        assert_eq!(quota_cost(&batch), Some(1.0 + (4.0 + 2.0) + 51.0));
        // Control plane is exempt.
        assert_eq!(quota_cost(&Request::Ping), None);
        assert_eq!(quota_cost(&Request::Stats), None);
        assert_eq!(quota_cost(&Request::Shutdown), None);
        assert_eq!(quota_cost(&Request::Auth { tenant: 7 }), None);
        assert_eq!(
            quota_cost(&Request::Metrics {
                format: MetricsFormat::Json
            }),
            None
        );
    }

    /// The one bucket both quotas use: refill never exceeds the burst, a
    /// refused cost debits nothing, and `burst = 0` is a second of `rate`.
    #[test]
    fn token_bucket_caps_refill_refuses_without_debit_and_defaults_burst() {
        let long_ago = |b: &mut TokenBucket| b.at = Instant::now() - Duration::from_secs(10);
        // Ten idle seconds at 100 tokens/s still hold only the 50-token burst.
        let mut b = TokenBucket::full(100, 50);
        long_ago(&mut b);
        assert!(!b.take(100, 50, 51.0), "refill is capped at burst");
        assert!(b.take(100, 50, 50.0), "the refusal above took nothing");
        assert!(!b.take(100, 50, 5.0), "and now the bucket is dry");
        // Partial balance: too dear is refused, what fits is granted.
        let mut b = TokenBucket::full(1, 10);
        assert!(b.take(1, 10, 4.0));
        assert!(!b.take(1, 10, 7.0), "6 tokens cannot cover 7");
        assert!(b.take(1, 10, 6.0), "the refused 7 left all 6 in place");
        // burst = 0: one second of the sustained rate, fresh or refilled.
        let mut b = TokenBucket::full(30, 0);
        assert!(b.take(30, 0, 30.0) && !b.take(30, 0, 5.0));
        long_ago(&mut b);
        assert!(!b.take(30, 0, 31.0) && b.take(30, 0, 30.0));
    }

    /// WriteQueue bookkeeping: segment sealing, partial advances across
    /// segment boundaries, and iovec assembly.
    #[test]
    fn write_queue_segments_and_advances() {
        let mut wq = WriteQueue::new();
        assert!(wq.is_empty());
        // Fill past the seal threshold so at least two segments exist.
        let frame = vec![0xABu8; 16 << 10];
        for _ in 0..6 {
            wq.encode_with(|out| out.extend_from_slice(&frame));
        }
        assert_eq!(wq.pending(), 6 * (16 << 10));
        assert!(wq.segs.len() >= 2, "tail must seal past SEAL_BYTES");
        let total: usize = wq.slices().iter().map(|s| s.len()).sum();
        assert_eq!(total, wq.pending());
        // Partial advance inside the first segment...
        wq.advance(10);
        assert_eq!(wq.pending(), 6 * (16 << 10) - 10);
        assert_eq!(wq.head, 10);
        // ...then across a segment boundary.
        let first_left = wq.segs[0].len() - wq.head;
        wq.advance(first_left + 5);
        assert_eq!(wq.head, 5);
        let total: usize = wq.slices().iter().map(|s| s.len()).sum();
        assert_eq!(total, wq.pending());
        // Drain fully.
        wq.advance(wq.pending());
        assert!(wq.is_empty());
        assert!(wq.front_chunk().is_none());
        // Spare reuse: the next encode reuses a retired segment.
        wq.encode_with(|out| out.extend_from_slice(b"tail"));
        assert_eq!(wq.pending(), 4);
    }

    /// Vectored flush writes every buffered byte and the peer reads the
    /// frames back intact and in order.
    #[test]
    fn flush_writes_vectored_round_trip() {
        let shared = test_shared(|_| {});
        let (mut conn, mut peer) = conn_pair();
        let mut expect = Vec::new();
        for i in 0..200u64 {
            let resp = Response::Value(Bytes::from(format!("value-{i:04}")));
            conn.wq.encode_with(|out| encode_response(out, i, &resp));
            encode_response(&mut expect, i, &resp);
        }
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = Vec::new();
        let mut scratch = [0u8; 4096];
        while got.len() < expect.len() {
            flush_writes(&shared, &mut conn);
            match peer.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("peer read: {e}"),
            }
        }
        assert_eq!(got, expect, "flushed bytes must match frame for frame");
        assert!(conn.wq.is_empty());
    }
}
