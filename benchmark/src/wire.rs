//! The load generator's side of the wire: one blocking connection with
//! reusable buffers, and the per-connection driver that loads, warms and
//! replays a workload stream while verifying every reply.

use crate::value::{self, LOAD_VERSION};
use crate::workloads::{MixPlan, Workload};
use adcache_server::protocol::{
    decode_response, encode_request, Opcode, Progress, Request, Response, DEFAULT_MAX_FRAME,
    MAX_BATCH_SUBS,
};
use adcache_workload::{parse_key, render_key, Mix, Operation, WorkloadConfig, WorkloadGen};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn violation(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One blocking protocol connection. Unlike the repo's `loadgen::Client`
/// it reuses its encode and receive buffers, so the generator's own cost
/// per call stays small next to the round trip it measures.
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    filled: usize,
}

impl Conn {
    /// Connects with Nagle off and a read timeout, so a hung server fails
    /// the run instead of hanging it.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            next_id: 1,
            wbuf: Vec::with_capacity(4 << 10),
            rbuf: vec![0; 64 << 10],
            filled: 0,
        })
    }

    /// Switches the socket between blocking reads (set-up, scrapes) and
    /// non-blocking ones (the measured replay polls its connections).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Writes `req` and returns the id its reply must echo.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.wbuf.clear();
        encode_request(&mut self.wbuf, id, req);
        let mut written = 0;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(id)
    }

    /// The reply to request `id` if all of it has arrived. On a blocking
    /// socket this waits for more bytes; on a non-blocking one it returns
    /// `None` when the socket has no more to give yet.
    pub fn poll_reply(&mut self, awaiting: Opcode, id: u64) -> io::Result<Option<Response>> {
        loop {
            match decode_response(&self.rbuf[..self.filled], DEFAULT_MAX_FRAME, awaiting) {
                Progress::Frame(Ok((got, resp)), consumed) => {
                    self.rbuf.copy_within(consumed..self.filled, 0);
                    self.filled -= consumed;
                    if got != id {
                        return Err(violation(format!("reply id {got}, expected {id}")));
                    }
                    return Ok(Some(resp));
                }
                Progress::Frame(Err((got, err)), _) => {
                    return Err(violation(format!("undecodable reply to {got}: {err}")));
                }
                Progress::Fatal(err) => {
                    return Err(violation(format!("broken framing from server: {err}")));
                }
                Progress::Incomplete => {}
            }
            if self.filled == self.rbuf.len() {
                self.rbuf.resize(self.rbuf.len() * 2, 0);
            }
            match self.stream.read(&mut self.rbuf[self.filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-reply",
                    ))
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `req` and waits for its reply.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let id = self.send(req)?;
        loop {
            if let Some(resp) = self.poll_reply(req.opcode(), id)? {
                return Ok(resp);
            }
            std::hint::spin_loop();
        }
    }

    /// The server's `STATS` JSON, parsed.
    pub fn stats(&mut self) -> io::Result<serde_json::Value> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => serde_json::from_str(&json)
                .map_err(|e| violation(format!("STATS is not JSON: {e:?}"))),
            other => Err(violation(format!("STATS answered {other:?}"))),
        }
    }

    /// The server's `METRICS` registry as parsed JSON (telemetry on only).
    pub fn metrics(&mut self) -> io::Result<serde_json::Value> {
        let format = adcache_server::MetricsFormat::Json;
        match self.call(&Request::Metrics { format })? {
            Response::Metrics(json) => serde_json::from_str(&json)
                .map_err(|e| violation(format!("METRICS is not JSON: {e:?}"))),
            other => Err(violation(format!("METRICS answered {other:?}"))),
        }
    }
}

/// Which kind of operation a latency sample or span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point lookup.
    Get,
    /// Range scan (short or long).
    Scan,
    /// Write.
    Put,
}

impl OpKind {
    /// Lowercase label used in span and metric names.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Scan => "scan",
            OpKind::Put => "put",
        }
    }
}

/// One operation as the client saw it: send → verified reply. The
/// operation's index in its connection's stream is its position in
/// [`Tally::samples`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Nanoseconds from the replay's origin to the verified reply.
    pub end_ns: u64,
    /// Round-trip nanoseconds.
    pub latency_ns: u32,
    /// Operation type.
    pub kind: OpKind,
}

impl Sample {
    /// Nanoseconds from the replay's origin to the send.
    pub fn start_ns(&self) -> u64 {
        self.end_ns - u64::from(self.latency_ns)
    }
}

/// What one connection measured during a replay.
#[derive(Debug, Default)]
pub struct Tally {
    /// Replies received and verified correct.
    pub verified: u64,
    /// Replies that failed verification, were `NotFound`, or were `Err`.
    pub failed: u64,
    /// `GET`s answered `NotFound` (a failure: every key is loaded).
    pub not_found: u64,
    /// Requests answered with an `Err` frame.
    pub server_errors: u64,
    /// Well-formed replies that carried another version of a key than
    /// the one this connection had already been acknowledged writing.
    /// Counted apart from `failed`: see [`Verdict::Stale`].
    pub stale_reads: u64,
    /// Every operation in stream order.
    pub samples: Vec<Sample>,
    /// The first few verification failures, for the error report.
    pub examples: Vec<String>,
    /// The first few stale reads.
    pub stale_examples: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.verified + self.failed
    }
}

/// Stream seed of connection `index` for benchmark seed `seed`: distinct
/// seeds give disjoint families of per-connection streams.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index)
}

/// The request stream of one connection: the workload generator seeded
/// for that connection, the mix plan, and the versions it has written.
/// The wire replay and the in-process layer replay draw from the same
/// type, so they see the same keys in the same order.
pub struct OpStream {
    index: u64,
    conns: u64,
    gen: WorkloadGen,
    plan: MixPlan,
    value_size: usize,
    /// Version this connection last wrote per key id it owns
    /// ([`LOAD_VERSION`] until it writes the key).
    last_written: Vec<u64>,
    next_version: u64,
}

impl OpStream {
    /// The stream of connection `index` of `conns` for workload `wl`.
    pub fn new(wl: &Workload, seed: u64, index: u64, conns: u64) -> OpStream {
        assert!(
            wl.num_keys.is_multiple_of(conns),
            "key ownership needs num_keys divisible by the connection count"
        );
        OpStream {
            index,
            conns,
            gen: WorkloadGen::new(WorkloadConfig {
                num_keys: wl.num_keys,
                value_size: wl.value_size,
                seed: stream_seed(seed, index),
                ..WorkloadConfig::default()
            }),
            plan: wl.plan,
            value_size: wl.value_size,
            last_written: vec![LOAD_VERSION; wl.num_keys as usize],
            next_version: LOAD_VERSION + 1,
        }
    }

    /// Draws operation `op` of a `total`-operation stream and turns it
    /// into a request. Writes are redirected to a key this connection
    /// owns (ids congruent to its index) and carry the next version of
    /// that key, so that after any interleaving of the connections the
    /// last version of every key is known to exactly one of them.
    pub fn next_request(&mut self, op: u64, total: u64) -> Request {
        match self.gen.next_op(&self.plan.mix_at(op, total)) {
            Operation::Get { key } => Request::Get { key },
            Operation::Scan { from, len } => Request::Scan {
                from,
                limit: len as u32,
            },
            Operation::Put { key, .. } => {
                let drawn = parse_key(&key).expect("generator renders its own keys");
                let id = drawn - drawn % self.conns + self.index;
                let version = self.next_version;
                self.next_version += 1;
                self.last_written[id as usize] = version;
                Request::Put {
                    key: render_key(id),
                    value: value::encode(id, version, self.value_size),
                }
            }
            Operation::Delete { .. } => unreachable!("no workload mix draws deletes"),
        }
    }

    /// The keys `WorkloadGen::load_ops` loads, in order.
    fn load_keys(&mut self) -> Vec<bytes::Bytes> {
        self.gen
            .load_ops()
            .into_iter()
            .map(|op| match op {
                Operation::Put { key, .. } => key,
                _ => unreachable!("load_ops yields only puts"),
            })
            .collect()
    }
}

/// One connection of the generator plus everything needed to produce its
/// stream and check the replies.
pub struct Driver {
    /// The connection.
    pub conn: Conn,
    stream: OpStream,
    num_keys: u64,
    /// Whether the workload writes at all (the stream's plan may be swapped
    /// for the single-connection probe; what the store holds is not).
    writes_happen: bool,
    /// The request awaiting its reply during a replay.
    in_flight: Option<InFlight>,
    /// Operations of the current replay already started.
    started: u64,
    /// What the current replay has measured so far.
    tally: Tally,
}

/// A request on the wire.
struct InFlight {
    request: Request,
    id: u64,
    sent: Instant,
}

/// What the verifier makes of one reply.
enum Verdict {
    /// Correct.
    Good,
    /// Well-formed, but another version of a key than this connection had
    /// already been acknowledged writing: the store served a stale value.
    /// The seed commit does this when a scan's cache fill races a write
    /// (ROADMAP aim 3 lists read coherence as open), so it is counted and
    /// reported on its own and does not fail the run.
    Stale(String),
    /// Wrong: torn, misattributed, missing, out of order, or an error.
    Bad(String),
}

impl Driver {
    /// Connects connection `index` of `conns` for workload `wl`.
    pub fn connect(
        addr: &str,
        wl: &Workload,
        seed: u64,
        index: u64,
        conns: u64,
    ) -> io::Result<Driver> {
        Ok(Driver {
            conn: Conn::connect(addr)?,
            stream: OpStream::new(wl, seed, index, conns),
            num_keys: wl.num_keys,
            writes_happen: wl.plan.has_writes(),
            in_flight: None,
            started: 0,
            tally: Tally::default(),
        })
    }

    fn owns(&self, id: u64) -> bool {
        id % self.stream.conns == self.stream.index
    }

    /// The version this connection knows key `id` to hold, if it can know:
    /// its own keys always; any key when the workload never writes.
    fn known_version(&self, id: u64) -> Option<u64> {
        if self.owns(id) {
            Some(self.stream.last_written[id as usize])
        } else if !self.writes_happen {
            Some(LOAD_VERSION)
        } else {
            None
        }
    }

    /// This connection's contiguous share of the key ids.
    fn share(&self) -> std::ops::Range<u64> {
        let per = self.num_keys / self.stream.conns;
        self.stream.index * per..(self.stream.index + 1) * per
    }

    /// Loads this connection's share of the keys, each exactly once, at
    /// [`LOAD_VERSION`], in `BATCH` frames of `PUT`s. The keys come from
    /// `WorkloadGen::load_ops`; the values are the self-describing ones.
    pub fn load(&mut self) -> io::Result<()> {
        let share = self.share();
        let keys = self.stream.load_keys();
        let mine = &keys[share.start as usize..share.end as usize];
        for chunk in mine.chunks(MAX_BATCH_SUBS / 2) {
            let subs: Vec<Request> = chunk
                .iter()
                .map(|key| {
                    let id = parse_key(key).expect("load_ops renders its own keys");
                    Request::Put {
                        key: key.clone(),
                        value: value::encode(id, LOAD_VERSION, self.stream.value_size),
                    }
                })
                .collect();
            let n = subs.len();
            match self.conn.call(&Request::Batch { subs })? {
                Response::Batch(replies)
                    if replies.len() == n && replies.iter().all(|(_, r)| *r == Response::Ok) => {}
                other => return Err(violation(format!("load batch answered {other:?}"))),
            }
        }
        Ok(())
    }

    /// Reads every key of this connection's share once, in key order, in
    /// `BATCH` frames of `GET`s, and checks each is the loaded value.
    /// Doubles as the warm-up sweep and the load check.
    pub fn sweep(&mut self) -> io::Result<()> {
        let ids: Vec<u64> = self.share().collect();
        match read_back(&mut self.conn, self.stream.value_size, &ids, |_| {
            LOAD_VERSION
        })? {
            0 => Ok(()),
            bad => Err(violation(format!("{bad} keys wrong after the load"))),
        }
    }

    /// Reads back every key this connection owns and counts those that do
    /// not hold the version it last wrote — the durability check after a
    /// restart. Returns `(keys read, mismatches)`.
    pub fn read_back_owned(&mut self) -> io::Result<(u64, u64)> {
        let ids: Vec<u64> = (0..self.num_keys).filter(|&id| self.owns(id)).collect();
        let written = &self.stream.last_written;
        let bad = read_back(&mut self.conn, self.stream.value_size, &ids, |id| {
            written[id as usize]
        })?;
        Ok((ids.len() as u64, bad))
    }

    /// Judges one reply. A well-formed value of the right key at another
    /// version than this connection knows the key to hold is `Bad` when
    /// the workload never writes (the exact loaded value is expected) and
    /// `Stale` otherwise.
    fn check(&self, req: &Request, resp: &Response) -> Verdict {
        let version_verdict = |unexpected: usize, what: String| match unexpected {
            0 => Verdict::Good,
            _ if self.writes_happen => Verdict::Stale(what),
            _ => Verdict::Bad(what),
        };
        match (req, resp) {
            (_, Response::Error(msg)) => Verdict::Bad(format!("server error: {msg}")),
            (Request::Get { key }, Response::Value(v)) => {
                match value::verify_value(key, v, self.stream.value_size) {
                    Err(m) => Verdict::Bad(format!("GET {m:?}")),
                    Ok((id, version)) => {
                        let want = self.known_version(id);
                        version_verdict(
                            usize::from(want.is_some_and(|w| w != version)),
                            format!("GET key {id} at version {version}, expected {want:?}"),
                        )
                    }
                }
            }
            (Request::Get { key }, Response::NotFound) => {
                Verdict::Bad(format!("GET {:?} not found", parse_key(key)))
            }
            (Request::Scan { from, limit }, Response::Entries(entries)) => {
                let start = parse_key(from);
                match value::verify_scan(
                    from,
                    *limit as usize,
                    entries,
                    self.stream.value_size,
                    self.num_keys,
                    |id| self.known_version(id),
                ) {
                    Err(m) => Verdict::Bad(format!("SCAN from {start:?}: {m:?}")),
                    Ok(unexpected) => version_verdict(
                        unexpected,
                        format!("SCAN from {start:?}: {unexpected} entries at another version"),
                    ),
                }
            }
            (Request::Put { .. }, Response::Ok) => Verdict::Good,
            (req, resp) => Verdict::Bad(format!("{:?} answered {resp:?}", req.opcode())),
        }
    }

    /// Starts operation `self.started` of an `ops`-operation stream.
    fn start_next(&mut self, ops: u64) -> io::Result<()> {
        let request = self.stream.next_request(self.started, ops);
        self.started += 1;
        let sent = Instant::now();
        let id = self.conn.send(&request)?;
        self.in_flight = Some(InFlight { request, id, sent });
        Ok(())
    }

    /// Takes the reply to the request in flight if it has arrived, checks
    /// it and books the sample.
    fn poll(&mut self, origin: Instant) -> io::Result<()> {
        let Some(flight) = &self.in_flight else {
            return Ok(());
        };
        let opcode = flight.request.opcode();
        let Some(resp) = self.conn.poll_reply(opcode, flight.id)? else {
            return Ok(());
        };
        let flight = self.in_flight.take().expect("checked above");
        let verdict = self.check(&flight.request, &resp);
        let end = Instant::now();
        self.tally.samples.push(Sample {
            end_ns: (end - origin).as_nanos() as u64,
            latency_ns: u32::try_from((end - flight.sent).as_nanos()).unwrap_or(u32::MAX),
            kind: match opcode {
                Opcode::Get => OpKind::Get,
                Opcode::Scan => OpKind::Scan,
                _ => OpKind::Put,
            },
        });
        match verdict {
            Verdict::Good => self.tally.verified += 1,
            Verdict::Stale(what) => {
                self.tally.verified += 1;
                self.tally.stale_reads += 1;
                if self.tally.stale_examples.len() < 3 {
                    self.tally.stale_examples.push(what);
                }
            }
            Verdict::Bad(what) => {
                self.tally.not_found += u64::from(matches!(resp, Response::NotFound));
                self.tally.server_errors += u64::from(matches!(resp, Response::Error(_)));
                self.tally.fail(what);
            }
        }
        Ok(())
    }
}

/// Reads keys `ids` in `BATCH` frames of `GET`s and counts those whose
/// value is not the untorn value of that key at version `want(id)`.
fn read_back(
    conn: &mut Conn,
    value_size: usize,
    ids: &[u64],
    want: impl Fn(u64) -> u64,
) -> io::Result<u64> {
    let mut bad = 0;
    for chunk in ids.chunks(MAX_BATCH_SUBS) {
        let subs: Vec<Request> = chunk
            .iter()
            .map(|&id| Request::Get {
                key: render_key(id),
            })
            .collect();
        let replies = match conn.call(&Request::Batch { subs })? {
            Response::Batch(replies) if replies.len() == chunk.len() => replies,
            other => return Err(violation(format!("read-back batch answered {other:?}"))),
        };
        for (&id, (_, reply)) in chunk.iter().zip(&replies) {
            let ok = matches!(reply, Response::Value(v)
                if value::verify_value(&render_key(id), v, value_size) == Ok((id, want(id))));
            bad += u64::from(!ok);
        }
    }
    Ok(bad)
}

/// Replays operations `0..ops` of every driver's stream in a closed loop —
/// per connection one singleton frame out, its verified reply back, then
/// the next — and returns what each connection measured, in order.
///
/// All connections are driven from the calling thread, which polls their
/// non-blocking sockets and never sleeps. A generator thread per
/// connection, blocked in `read` between replies, halts its vCPU every
/// round trip; in the microVM the wake-up from that halt costs more than
/// the request and varies with the host's load, which made latency and
/// throughput unsteady. A polling generator keeps its CPU busy the way the
/// server's workers keep theirs.
///
/// The stream is cut into `segments` equal parts. `between(drivers, k)`
/// runs before part `k` starts and once more, with `k = segments`, after
/// the last reply — always with nothing in flight — so counters can be
/// scraped at the boundaries. Sample times are relative to the call.
pub fn replay(
    drivers: &mut [Driver],
    ops: u64,
    segments: u64,
    mut between: impl FnMut(&mut [Driver], u64) -> io::Result<()>,
) -> io::Result<Vec<Tally>> {
    for d in drivers.iter_mut() {
        d.conn.set_nonblocking(true)?;
        d.started = 0;
        d.tally = Tally::default();
        d.tally.samples.reserve(ops as usize);
    }
    let origin = Instant::now();
    let per_segment = ops.div_ceil(segments).max(1);
    let result = (|| {
        for segment in 0..segments {
            between(drivers, segment)?;
            let upto = ((segment + 1) * per_segment).min(ops);
            loop {
                let mut busy = false;
                for d in drivers.iter_mut() {
                    if d.in_flight.is_none() && d.started < upto {
                        d.start_next(ops)?;
                    }
                    if d.in_flight.is_some() {
                        busy = true;
                        d.poll(origin)?;
                    }
                }
                if !busy {
                    break;
                }
            }
        }
        between(drivers, segments)
    })();
    for d in drivers.iter_mut() {
        d.in_flight = None;
        d.conn.set_nonblocking(false)?;
    }
    result?;
    Ok(drivers
        .iter_mut()
        .map(|d| std::mem::take(&mut d.tally))
        .collect())
}

/// Replays `n` `GET`s drawn from `driver`'s key distribution, whatever the
/// workload's mix, with no other connection active: the single-connection
/// probe.
pub fn replay_gets(driver: &mut Driver, n: u64) -> io::Result<Tally> {
    let gets_only = MixPlan::Static(Mix::new(100.0, 0.0, 0.0, 0.0));
    let plan = std::mem::replace(&mut driver.stream.plan, gets_only);
    let tallies = replay(std::slice::from_mut(driver), n, 1, |_, _| Ok(()));
    driver.stream.plan = plan;
    Ok(tallies?.remove(0))
}
