//! The network load generator.
//!
//! Replays `adcache-workload` operation streams over the wire in two
//! shapes:
//!
//! - **Closed loop** (`target_qps: None`): N connections, each a thread
//!   that issues one request, waits for its reply, and immediately issues
//!   the next. Throughput is whatever the server sustains; latency is
//!   per-request round-trip time.
//! - **Open loop** (`target_qps: Some(q)`): the target rate is split
//!   across connections and each thread *schedules* sends at fixed
//!   intervals regardless of replies, pipelining over its socket. Latency
//!   then includes queueing delay — the honest number under overload.
//!
//! Both modes verify the reply stream: the server answers in request
//! order, so every decoded response id must equal the id at the head of
//! the sender's outstanding queue. Any mismatch (lost, reordered, or
//! conjured reply) counts as a protocol error and fails the run report.

use crate::protocol::{
    decode_response, encode_request, MetricsFormat, Opcode, Progress, Request, Response,
    DEFAULT_MAX_FRAME, MAX_BATCH_SUBS,
};
use adcache_obs::Histogram;
use adcache_workload::{
    AdversaryConfig, AdversaryGen, AttackPlan, Mix, Operation, WorkloadConfig, WorkloadGen,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One blocking protocol client: request/response over a `TcpStream`.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    rbuf: Vec<u8>,
    max_frame: usize,
}

fn violation(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connects (blocking socket, Nagle off).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            next_id: 1,
            rbuf: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Sends `req` and blocks for its reply, verifying the echoed id.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Vec::new();
        encode_request(&mut frame, id, req);
        self.stream.write_all(&frame)?;
        let (got, resp) = self.read_frame(req.opcode())?;
        if got != id {
            return Err(violation(format!("reply id {got}, expected {id}")));
        }
        Ok(resp)
    }

    /// Reads one complete response frame (blocking).
    fn read_frame(&mut self, awaiting: Opcode) -> std::io::Result<(u64, Response)> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            match decode_response(&self.rbuf, self.max_frame, awaiting) {
                Progress::Frame(Ok((id, resp)), consumed) => {
                    self.rbuf.drain(..consumed);
                    return Ok((id, resp));
                }
                Progress::Frame(Err((id, err)), _) => {
                    return Err(violation(format!("undecodable reply to {id}: {err}")));
                }
                Progress::Fatal(err) => {
                    return Err(violation(format!("broken framing from server: {err}")));
                }
                Progress::Incomplete => {}
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Binds this connection to `tenant` with an `AUTH` handshake.
    pub fn auth(&mut self, tenant: u32) -> std::io::Result<()> {
        match self.call(&Request::Auth { tenant })? {
            Response::Ok => Ok(()),
            other => Err(violation(format!("auth answered {other:?}"))),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(violation(format!("shutdown answered {other:?}"))),
        }
    }

    /// Fetches the server's stats JSON.
    pub fn stats(&mut self) -> std::io::Result<String> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(violation(format!("stats answered {other:?}"))),
        }
    }

    /// Fetches the server's metrics registry in the requested export
    /// format. Errors with the server's message when telemetry is off.
    pub fn metrics(&mut self, format: MetricsFormat) -> std::io::Result<String> {
        match self.call(&Request::Metrics { format })? {
            Response::Metrics(text) => Ok(text),
            Response::Error(msg) => Err(violation(format!("metrics refused: {msg}"))),
            other => Err(violation(format!("metrics answered {other:?}"))),
        }
    }
}

/// Maps a workload operation onto its wire request.
pub fn request_of(op: &Operation) -> Request {
    match op {
        Operation::Get { key } => Request::Get { key: key.clone() },
        Operation::Scan { from, len } => Request::Scan {
            from: from.clone(),
            limit: *len as u32,
        },
        Operation::Put { key, value } => Request::Put {
            key: key.clone(),
            value: value.clone(),
        },
        Operation::Delete { key } => Request::Delete { key: key.clone() },
    }
}

/// Buckets a server `Err` reply by cause, keyed on the message the
/// server actually sends: admission-quota rejections start with
/// `"quota"`, overload refusals mention the connection limit, and
/// anything else is attributed to the engine. Stable keys let reports,
/// assertions, and drills count each defense separately.
pub fn classify_error(msg: &str) -> &'static str {
    if msg.starts_with("quota") {
        "quota"
    } else if msg.contains("connection limit") {
        "overload"
    } else {
        "engine"
    }
}

/// A [`Client`] as an operation sink, so any generated workload replays
/// over the wire exactly as it would in-process.
pub struct NetSink {
    client: Client,
    /// Round-trip latencies of every applied operation.
    pub latency: Histogram,
    /// `Get`s that found nothing (not errors).
    pub not_found: u64,
    /// Operations the server answered with an `Err` frame.
    pub server_errors: u64,
    /// `server_errors` split by [`classify_error`] cause.
    pub errors_by_cause: BTreeMap<String, u64>,
}

impl NetSink {
    /// Wraps a connected client.
    pub fn new(client: Client) -> Self {
        NetSink {
            client,
            latency: Histogram::new(),
            not_found: 0,
            server_errors: 0,
            errors_by_cause: BTreeMap::new(),
        }
    }

    /// Books one sub-reply into the per-sink tallies.
    fn account(&mut self, resp: &Response) {
        match resp {
            Response::NotFound => self.not_found += 1,
            Response::Error(msg) => {
                self.server_errors += 1;
                *self
                    .errors_by_cause
                    .entry(classify_error(msg).to_string())
                    .or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Sends one operation and books its reply.
    pub fn apply(&mut self, op: &Operation) -> std::io::Result<()> {
        let req = request_of(op);
        let start = Instant::now();
        let resp = self.client.call(&req)?;
        self.latency.record(start.elapsed().as_nanos() as u64);
        self.account(&resp);
        Ok(())
    }

    /// Ships the whole group as one `Batch` frame: one header, one
    /// round trip, one in-order multi-reply. Verifies the reply carries
    /// exactly one sub-response per sub-request with matching opcode
    /// echoes in FIFO order; any mismatch is a protocol violation
    /// (`InvalidData`). Latency records the batch round trip once.
    pub fn apply_batch(&mut self, ops: &[Operation]) -> std::io::Result<()> {
        if ops.len() <= 1 {
            return match ops {
                [op] => self.apply(op),
                _ => Ok(()),
            };
        }
        let subs: Vec<Request> = ops.iter().map(request_of).collect();
        let expected: Vec<Opcode> = subs.iter().map(|s| s.opcode()).collect();
        let start = Instant::now();
        let resp = self.client.call(&Request::Batch { subs })?;
        self.latency.record(start.elapsed().as_nanos() as u64);
        let replies = match resp {
            Response::Batch(replies) => replies,
            other => return Err(violation(format!("batch answered {other:?}"))),
        };
        if replies.len() != expected.len() {
            return Err(violation(format!(
                "batch of {} answered with {} sub-replies",
                expected.len(),
                replies.len()
            )));
        }
        for (i, ((echoed, sub), want)) in replies.iter().zip(&expected).enumerate() {
            if echoed != want {
                return Err(violation(format!(
                    "batch sub {i} echoed {echoed:?}, expected {want:?}"
                )));
            }
            self.account(sub);
        }
        Ok(())
    }
}

/// What to run against the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Total operations across all connections.
    pub ops: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Key-space shape, value size, skew, and base seed (connection `i`
    /// uses `seed + i` so streams differ but stay reproducible).
    pub workload: WorkloadConfig,
    /// `Some(q)`: open loop at `q` ops/s overall; `None`: closed loop.
    pub target_qps: Option<u64>,
    /// Sub-requests per `Batch` frame. `0` or `1` sends plain singleton
    /// frames; `N > 1` groups N consecutive ops into one batch request
    /// (one header, one round trip, one in-order multi-reply). Open loop
    /// keeps the *operation* rate: batches go out at `qps / N` slots.
    pub batch: usize,
    /// `Some`: blend hostile traffic into the run. Whole *connections*
    /// turn adversarial (not interleaved ops), mirroring real attackers
    /// and giving per-connection defenses something to bite on.
    pub adversary: Option<AdversaryConfig>,
    /// Fraction of connections that run the adversary (rounded, and at
    /// least one when `adversary` is set and the fraction is positive).
    pub adversary_frac: f64,
    /// Tenants to spread connections over. `0` or `1` is the legacy
    /// single-tenant shape: no `AUTH` handshake, everything serves the
    /// default tenant. `N > 1` assigns each connection a tenant in
    /// `1..=N` (weighted by `tenant_skew`) and binds it with `AUTH`
    /// before traffic starts.
    pub tenants: u32,
    /// `(hot, cold)` connection weights: tenant 1 is the hot tenant and
    /// receives `hot` weight, every other tenant `cold`. `(1, 1)` splits
    /// connections evenly; `(8, 1)` over 4 tenants gives tenant 1 eight
    /// elevenths of the connections — the noisy-neighbor shape.
    pub tenant_skew: (u32, u32),
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:4400".to_string(),
            connections: 8,
            ops: 100_000,
            mix: Mix::new(40.0, 25.0, 5.0, 30.0),
            workload: WorkloadConfig::default(),
            target_qps: None,
            batch: 0,
            adversary: None,
            adversary_frac: 0.0,
            tenants: 0,
            tenant_skew: (1, 1),
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations completed with a verified in-order reply.
    pub ops: u64,
    /// `Get`s that found nothing.
    pub not_found: u64,
    /// Operations the server answered with an `Err` frame.
    pub server_errors: u64,
    /// Client-side protocol violations (lost / misordered / undecodable
    /// replies). Must be zero on a healthy run.
    pub protocol_errors: u64,
    /// `server_errors` split by [`classify_error`] cause, so a run can
    /// tell quota throttling apart from genuine engine failures.
    pub errors_by_cause: BTreeMap<String, u64>,
    /// Operations issued by adversarial connections.
    pub adversary_ops: u64,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// Achieved throughput.
    pub qps: f64,
    /// Round-trip latency distribution (open loop: includes queueing).
    pub latency: Histogram,
    /// Latency of legitimate connections only — the victim's view of an
    /// attack. Equals `latency` when no adversary is configured.
    pub legit_latency: Histogram,
    /// Round-trip latency split by tenant. Empty on single-tenant runs;
    /// with `tenants > 1` one entry per tenant that issued traffic, so a
    /// noisy-neighbor drill can read the quiet tenant's p99 directly.
    pub latency_by_tenant: BTreeMap<u32, Histogram>,
}

impl LoadReport {
    /// `p50/p95/p99/p999/max` in nanoseconds.
    pub fn tail_ns(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.latency.quantile(0.50),
            self.latency.quantile(0.95),
            self.latency.quantile(0.99),
            self.latency.quantile(0.999),
            self.latency.max(),
        )
    }

    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        let (p50, p95, p99, p999, max) = self.tail_ns();
        let us = |ns: u64| ns as f64 / 1_000.0;
        let mut out = format!(
            "ops        {}\n\
             errors     {} server, {} protocol, {} not-found\n\
             elapsed    {:.3} s\n\
             throughput {:.0} ops/s\n\
             latency    p50 {:.1} us | p95 {:.1} us | p99 {:.1} us | p999 {:.1} us | max {:.1} us",
            self.ops,
            self.server_errors,
            self.protocol_errors,
            self.not_found,
            self.elapsed.as_secs_f64(),
            self.qps,
            us(p50),
            us(p95),
            us(p99),
            us(p999),
            us(max)
        );
        if !self.errors_by_cause.is_empty() {
            let causes: Vec<String> = self
                .errors_by_cause
                .iter()
                .map(|(cause, n)| format!("{cause} {n}"))
                .collect();
            out.push_str(&format!("\nerr causes {}", causes.join(" | ")));
        }
        if self.adversary_ops > 0 {
            out.push_str(&format!(
                "\nadversary  {} ops\nlegit      p50 {:.1} us | p99 {:.1} us | p999 {:.1} us",
                self.adversary_ops,
                us(self.legit_latency.quantile(0.50)),
                us(self.legit_latency.quantile(0.99)),
                us(self.legit_latency.quantile(0.999)),
            ));
        }
        for (tenant, lat) in &self.latency_by_tenant {
            out.push_str(&format!(
                "\ntenant {tenant:<4} {} ops | p50 {:.1} us | p99 {:.1} us",
                lat.count(),
                us(lat.quantile(0.50)),
                us(lat.quantile(0.99)),
            ));
        }
        out
    }
}

struct ThreadOutcome {
    ops: u64,
    not_found: u64,
    server_errors: u64,
    protocol_errors: u64,
    errors_by_cause: BTreeMap<String, u64>,
    adversary_ops: u64,
    latency: Histogram,
    legit_latency: Histogram,
}

/// The tenant connection `i` of `conns` serves: connections are stretched
/// over the weight line `[hot, cold, cold, ...]` so tenant 1 (hot) gets
/// `hot / (hot + (tenants-1)·cold)` of them. Returns 0 (default tenant,
/// no `AUTH`) for single-tenant configs.
fn tenant_of_conn(i: usize, conns: usize, tenants: u32, skew: (u32, u32)) -> u32 {
    if tenants <= 1 {
        return 0;
    }
    let hot = u64::from(skew.0.max(1));
    let cold = u64::from(skew.1.max(1));
    let total = hot + cold * u64::from(tenants - 1);
    // Midpoint of connection i's slice of the weight line.
    let x = (2 * i as u64 + 1) * total / (2 * conns as u64).max(1);
    if x < hot {
        1
    } else {
        (2 + (x - hot) / cold).min(u64::from(tenants)) as u32
    }
}

/// One connection's operation stream: either legitimate workload ops or
/// an attack generator. Decided per connection, never per op.
enum OpSource {
    Legit(Box<WorkloadGen>, Mix),
    Adversary(Box<AdversaryGen>),
}

impl OpSource {
    fn next_op(&mut self) -> Operation {
        match self {
            OpSource::Legit(gen, mix) => gen.next_op(mix),
            OpSource::Adversary(gen) => gen.next_op(),
        }
    }

    fn is_legit(&self) -> bool {
        matches!(self, OpSource::Legit(..))
    }
}

/// Runs the configured load and aggregates per-connection results.
pub fn run(cfg: &LoadgenConfig) -> std::io::Result<LoadReport> {
    let conns = cfg.connections.max(1);
    let adv_conns = match &cfg.adversary {
        Some(_) if cfg.adversary_frac > 0.0 => {
            ((cfg.adversary_frac * conns as f64).round() as usize).clamp(1, conns)
        }
        _ => 0,
    };
    // Collision mining is the expensive part of plan construction; do it
    // once and share the plan across adversarial connections.
    let plan = cfg
        .adversary
        .as_ref()
        .map(AttackPlan::build)
        .unwrap_or_default();
    let per_conn = cfg.ops / conns as u64;
    let remainder = cfg.ops % conns as u64;
    let started = Instant::now();
    let mut handles = Vec::with_capacity(conns);
    for i in 0..conns {
        let cfg = cfg.clone();
        let plan = plan.clone();
        let ops = per_conn + u64::from((i as u64) < remainder);
        let tenant = tenant_of_conn(i, conns, cfg.tenants, cfg.tenant_skew);
        handles.push(std::thread::spawn(
            move || -> std::io::Result<(u32, ThreadOutcome)> {
                let mut source = if i < adv_conns {
                    let adv = cfg.adversary.clone().expect("adv_conns implies adversary");
                    let adv = AdversaryConfig {
                        seed: adv.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        ..adv
                    };
                    OpSource::Adversary(Box::new(AdversaryGen::new(adv, plan)))
                } else {
                    OpSource::Legit(
                        Box::new(WorkloadGen::new(WorkloadConfig {
                            seed: cfg.workload.seed + i as u64,
                            ..cfg.workload
                        })),
                        cfg.mix,
                    )
                };
                let batch = cfg.batch.clamp(1, MAX_BATCH_SUBS);
                let outcome = match cfg.target_qps {
                    None => closed_loop(&cfg.addr, tenant, &mut source, ops, batch),
                    Some(q) => {
                        let rate = (q / conns as u64).max(1);
                        open_loop(&cfg.addr, tenant, &mut source, ops, rate, batch)
                    }
                }?;
                Ok((tenant, outcome))
            },
        ));
    }
    let mut report = LoadReport {
        ops: 0,
        not_found: 0,
        server_errors: 0,
        protocol_errors: 0,
        errors_by_cause: BTreeMap::new(),
        adversary_ops: 0,
        elapsed: Duration::ZERO,
        qps: 0.0,
        latency: Histogram::new(),
        legit_latency: Histogram::new(),
        latency_by_tenant: BTreeMap::new(),
    };
    for h in handles {
        let (tenant, outcome) = h
            .join()
            .map_err(|_| violation("loadgen thread panicked".to_string()))??;
        if cfg.tenants > 1 {
            report
                .latency_by_tenant
                .entry(tenant)
                .or_default()
                .merge(&outcome.latency);
        }
        report.ops += outcome.ops;
        report.not_found += outcome.not_found;
        report.server_errors += outcome.server_errors;
        report.protocol_errors += outcome.protocol_errors;
        for (cause, n) in outcome.errors_by_cause {
            *report.errors_by_cause.entry(cause).or_insert(0) += n;
        }
        report.adversary_ops += outcome.adversary_ops;
        report.latency.merge(&outcome.latency);
        report.legit_latency.merge(&outcome.legit_latency);
    }
    report.elapsed = started.elapsed();
    report.qps = report.ops as f64 / report.elapsed.as_secs_f64().max(1e-9);
    Ok(report)
}

fn closed_loop(
    addr: &str,
    tenant: u32,
    source: &mut OpSource,
    ops: u64,
    batch: usize,
) -> std::io::Result<ThreadOutcome> {
    let mut client = Client::connect(addr)?;
    if tenant != 0 {
        client.auth(tenant)?;
    }
    let mut sink = NetSink::new(client);
    let mut protocol_errors = 0u64;
    let mut done = 0u64;
    let mut remaining = ops;
    let mut group = Vec::with_capacity(batch);
    while remaining > 0 {
        let take = (batch as u64).min(remaining);
        group.clear();
        for _ in 0..take {
            group.push(source.next_op());
        }
        let applied = if take == 1 {
            sink.apply(&group[0])
        } else {
            sink.apply_batch(&group)
        };
        match applied {
            Ok(()) => done += take,
            // A rejected batch loses every sub in it.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => protocol_errors += take,
            Err(e) => return Err(e),
        }
        remaining -= take;
    }
    let legit = source.is_legit();
    Ok(ThreadOutcome {
        ops: done,
        not_found: sink.not_found,
        server_errors: sink.server_errors,
        protocol_errors,
        errors_by_cause: sink.errors_by_cause,
        adversary_ops: if legit { 0 } else { done },
        legit_latency: if legit {
            sink.latency.clone()
        } else {
            Histogram::new()
        },
        latency: sink.latency,
    })
}

/// One in-flight open-loop request awaiting its reply.
struct Pending {
    id: u64,
    opcode: Opcode,
    /// Expected sub-reply opcodes, in order, when `opcode` is `Batch`;
    /// empty for singleton requests.
    subs: Vec<Opcode>,
    sent_at: Instant,
}

/// Cap on outstanding open-loop requests per connection. Pure open loop
/// has unbounded queues: when the server falls behind, every subsequent
/// op's measured latency is dominated by the standing backlog, so p99
/// degenerates into "how long was the phase" — enormous and unstable
/// run to run. Bounding the in-flight window keeps the measurement in
/// the bounded-queue regime (p99 ≈ queue cap × service time) while the
/// send clock still ignores individual replies. It also smooths
/// catch-up bursts after a stall, which otherwise dump hundreds of ops
/// into the socket at once and blow through per-connection token quotas
/// that the same traffic respects at its steady rate.
const OPEN_LOOP_MAX_INFLIGHT: usize = 128;

fn open_loop(
    addr: &str,
    tenant: u32,
    source: &mut OpSource,
    ops: u64,
    rate_per_sec: u64,
    batch: usize,
) -> std::io::Result<ThreadOutcome> {
    // The AUTH handshake runs blocking (request/response) before the
    // socket flips nonblocking for the pipelined phase.
    let mut client = Client::connect(addr)?;
    if tenant != 0 {
        client.auth(tenant)?;
    }
    let Client { stream, .. } = client;
    stream.set_nonblocking(true)?;
    let interval = Duration::from_nanos(1_000_000_000 / rate_per_sec.max(1));
    let started = Instant::now();
    let legit = source.is_legit();

    let mut out = ThreadOutcome {
        ops: 0,
        not_found: 0,
        server_errors: 0,
        protocol_errors: 0,
        errors_by_cause: BTreeMap::new(),
        adversary_ops: 0,
        latency: Histogram::new(),
        legit_latency: Histogram::new(),
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 << 10];
    let mut next_id = 1u64;
    let mut sent = 0u64;
    let mut stream = stream;
    // Backoff nap while waiting on replies. With 1k+ threads on few
    // cores a fixed short poll is indistinguishable from a spin, so
    // stalled threads double their nap up to a cap and reset the
    // moment anything moves.
    const NAP_FLOOR: Duration = Duration::from_micros(100);
    const NAP_CEIL: Duration = Duration::from_millis(10);
    let mut nap = NAP_FLOOR;

    while out.ops + out.protocol_errors < ops {
        // Track whether this pass accomplishes anything. When it doesn't
        // (no slot due, socket not writable, no bytes to read) we must
        // sleep rather than spin: a thousand open-loop threads busy-polling
        // non-blocking sockets starves the very server we're measuring.
        let mut progressed = false;
        // Schedule sends by wall clock, independent of replies — but
        // never more than the in-flight cap ahead of them. With batching
        // the *operation* clock is unchanged: a frame of N subs only goes
        // out once N ops are due, so batches leave at `rate / N` slots.
        let due = (started.elapsed().as_nanos() / interval.as_nanos().max(1)) as u64 + 1;
        while sent < ops && pending.len() < OPEN_LOOP_MAX_INFLIGHT {
            let take = (batch as u64).min(ops - sent);
            if due < sent + take {
                break;
            }
            let id = next_id;
            next_id += 1;
            if take == 1 {
                let req = request_of(&source.next_op());
                encode_request(&mut wbuf, id, &req);
                pending.push_back(Pending {
                    id,
                    opcode: req.opcode(),
                    subs: Vec::new(),
                    sent_at: Instant::now(),
                });
            } else {
                let subs: Vec<Request> = (0..take).map(|_| request_of(&source.next_op())).collect();
                let echo: Vec<Opcode> = subs.iter().map(|s| s.opcode()).collect();
                encode_request(&mut wbuf, id, &Request::Batch { subs });
                pending.push_back(Pending {
                    id,
                    opcode: Opcode::Batch,
                    subs: echo,
                    sent_at: Instant::now(),
                });
            }
            sent += take;
            progressed = true;
        }
        // Push out whatever the socket accepts.
        if !wbuf.is_empty() {
            match stream.write(&wbuf) {
                Ok(n) => {
                    wbuf.drain(..n);
                    progressed |= n > 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain replies, verifying FIFO order against the pending queue.
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed with replies outstanding",
                ));
            }
            Ok(n) => {
                rbuf.extend_from_slice(&chunk[..n]);
                progressed |= n > 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        while let Some(head) = pending.front() {
            match decode_response(&rbuf, DEFAULT_MAX_FRAME, head.opcode) {
                Progress::Incomplete => break,
                Progress::Fatal(err) => {
                    return Err(violation(format!("broken framing from server: {err}")));
                }
                Progress::Frame(decoded, consumed) => {
                    rbuf.drain(..consumed);
                    let head = pending.pop_front().expect("head exists");
                    let span = (head.subs.len() as u64).max(1);
                    match decoded {
                        Ok((id, resp)) if id == head.id => {
                            let rtt = head.sent_at.elapsed().as_nanos() as u64;
                            let account = |out: &mut ThreadOutcome, resp: &Response| match resp {
                                Response::NotFound => out.not_found += 1,
                                Response::Error(msg) => {
                                    out.server_errors += 1;
                                    *out.errors_by_cause
                                        .entry(classify_error(msg).to_string())
                                        .or_insert(0) += 1;
                                }
                                _ => {}
                            };
                            let verified = match (&head.opcode, &resp) {
                                (Opcode::Batch, Response::Batch(replies)) => {
                                    replies.len() == head.subs.len()
                                        && replies
                                            .iter()
                                            .zip(&head.subs)
                                            .all(|((echoed, _), want)| echoed == want)
                                }
                                (Opcode::Batch, _) => false,
                                _ => true,
                            };
                            if !verified {
                                out.protocol_errors += span;
                            } else {
                                out.ops += span;
                                out.latency.record(rtt);
                                if legit {
                                    out.legit_latency.record(rtt);
                                } else {
                                    out.adversary_ops += span;
                                }
                                if let Response::Batch(replies) = &resp {
                                    for (_, sub) in replies {
                                        account(&mut out, sub);
                                    }
                                } else {
                                    account(&mut out, &resp);
                                }
                            }
                        }
                        Ok((_, _)) | Err(_) => out.protocol_errors += span,
                    }
                }
            }
        }
        if progressed {
            nap = NAP_FLOOR;
        } else if out.ops + out.protocol_errors < ops {
            // Nothing moved this pass. If the line is quiet we are simply
            // ahead of the send clock: sleep straight through to the next
            // due slot (at per-thread rates of tens of ops/s that can be
            // tens of ms — polling it at µs granularity is a spin).
            // Otherwise we are waiting on the socket; back off
            // exponentially so saturated threads converge to cheap,
            // RTT-scale polls instead of starving the server.
            if wbuf.is_empty() && pending.is_empty() && sent < ops {
                let next_ns = interval.as_nanos().max(1) * u128::from(sent);
                let wait = next_ns.saturating_sub(started.elapsed().as_nanos());
                std::thread::sleep(
                    Duration::from_nanos(wait.min(50_000_000) as u64).max(NAP_FLOOR),
                );
            } else {
                std::thread::sleep(nap);
                nap = (nap * 2).min(NAP_CEIL);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_assignment_covers_all_tenants_and_respects_skew() {
        // Single-tenant configs never authenticate.
        for i in 0..8 {
            assert_eq!(tenant_of_conn(i, 8, 0, (1, 1)), 0);
            assert_eq!(tenant_of_conn(i, 8, 1, (4, 1)), 0);
        }
        // Even split: 8 connections over 4 tenants, 2 each.
        let mut counts = [0u32; 5];
        for i in 0..8 {
            let t = tenant_of_conn(i, 8, 4, (1, 1));
            assert!((1..=4).contains(&t));
            counts[t as usize] += 1;
        }
        assert_eq!(&counts[1..], &[2, 2, 2, 2]);
        // Noisy-neighbor skew: hot tenant 1 takes most connections and
        // every cold tenant still appears.
        let mut counts = [0u32; 5];
        for i in 0..22 {
            let t = tenant_of_conn(i, 22, 4, (8, 1));
            counts[t as usize] += 1;
        }
        assert!(counts[1] >= 14, "hot tenant underweighted: {counts:?}");
        for t in 2..=4 {
            assert!(counts[t] >= 1, "cold tenant {t} starved: {counts:?}");
        }
    }
}
