//! The in-process half of the traced run: the benchmark links the crates,
//! builds the engine the way `adcache serve` does, replays connection 0's
//! stream on one thread and times each call into a layer's public
//! functions itself — from outside; nothing in the measured crates is
//! instrumented. Spans are kept in memory and written when the run ends.

use crate::alloc::allocations;
use crate::report::Metric;
use crate::stats::median;
use crate::value::{encode, LOAD_VERSION};
use crate::wire::OpStream;
use crate::workloads::{Workload, CONNECTIONS};
use adcache_cache::{BlockCache, CountMinSketch, KvCache, PointAdmission, RangeCache};
use adcache_core::{
    CacheDecision, CachedDb, Controller, ControllerConfig, EngineConfig, Strategy, ACTION_DIM,
    STATE_DIM,
};
use adcache_lsm::memtable::MemTable;
use adcache_lsm::{
    Block, BlockBuilder, BlockRef, Entry, FileStorage, MemStorage, Options, RealFs, WalWriter,
};
use adcache_rl::actor_critic::{ActorCritic, AgentConfig, Transition};
use adcache_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Opcode, Request, Response,
    DEFAULT_MAX_FRAME,
};
use adcache_workload::render_key;
use bytes::Bytes;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations of the stream the in-process replay covers at most. The
/// layer medians settle long before; the cap bounds the span file.
const MAX_REPLAY_OPS: u64 = 50_000;
/// Calls per standalone probe of a cache, LSM or protocol primitive.
const PROBE_CALLS: usize = 8_192;
/// Calls timed together in a probe, so that the two clock reads around
/// them are small next to what they bracket.
const PROBE_BATCH: usize = 16;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the operation in connection 0's stream: the id shared by
    /// every span the operation caused, on the wire and in process.
    pub op: u64,
    /// `<layer>.<call>`, e.g. `core.get_miss` or `lsm.get`.
    pub name: &'static str,
    /// Nanoseconds since the start of the replay that recorded the span.
    pub start_ns: u64,
    /// Nanoseconds since the start of the replay that recorded the span.
    pub end_ns: u64,
    /// The span that caused this one, by name (same `op`).
    pub parent: Option<&'static str>,
}

/// What the in-process run measured.
pub struct LayerRun {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Sum of the in-process medians along a `GET`'s path through the
    /// server: request encode and decode, the engine call, response encode
    /// and decode. What the wire round trip adds on top is unattributed.
    pub get_path_ns: f64,
}

fn lsm_err(e: adcache_lsm::LsmError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Cost in nanoseconds of reading the clock twice with nothing between.
fn clock_overhead_ns() -> f64 {
    let reads: Vec<f64> = (0..2_000)
        .map(|_| {
            let start = Instant::now();
            black_box(start).elapsed().as_nanos() as f64
        })
        .collect();
    median(&reads)
}

/// Median nanoseconds per call of `f` over `calls` calls, timed in batches
/// of `batch` and net of the clock's own cost. `f` gets the call's index.
fn time_calls(calls: usize, batch: usize, overhead_ns: f64, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..calls / batch)
        .map(|b| {
            let start = Instant::now();
            for i in b * batch..(b + 1) * batch {
                f(i);
            }
            let ns = start.elapsed().as_nanos() as f64;
            ((ns - overhead_ns) / batch as f64).max(0.0)
        })
        .collect();
    median(&per_call)
}

fn ns_metric(name: &str, ns: f64, samples: usize) -> Metric {
    Metric::new(name, ns, "ns", samples as u64)
}

/// Opens the engine the way `adcache serve` does for this workload:
/// `Options::default()` over file storage for a durable store,
/// `Options::small()` over memory otherwise, striped and with background
/// maintenance as the server resolved them, and the same cache budget.
fn open_engine(wl: &Workload, stripes: usize, dir: &Path) -> io::Result<CachedDb> {
    let engine = EngineConfig::new(Strategy::AdCache, wl.cache_mb << 20);
    let tune = |mut opts: Options| {
        opts.stripes = stripes;
        opts.background_maintenance = stripes > 1;
        opts
    };
    if wl.durable {
        let storage = Arc::new(FileStorage::open(dir.join("sst")).map_err(lsm_err)?);
        CachedDb::with_durability(tune(Options::default()), storage, dir.join("meta"), engine)
    } else {
        CachedDb::new(tune(Options::small()), Arc::new(MemStorage::new()), engine)
    }
    .map_err(lsm_err)
}

fn settle(db: &CachedDb) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while db.db().maintenance_queue_depth() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Applies one request to the engine the way the server's worker does.
fn apply(db: &CachedDb, req: &Request) -> io::Result<usize> {
    match req {
        Request::Get { key } => db.get(key).map(|v| v.map_or(0, |v| v.len())),
        Request::Scan { from, limit } => db.scan(from, *limit as usize).map(|e| e.len()),
        Request::Put { key, value } => db.put(key.clone(), value.clone()).map(|()| 0),
        other => unreachable!("streams hold only GET, SCAN and PUT, not {other:?}"),
    }
    .map_err(lsm_err)
}

/// Timings of one class of engine call during the replay.
#[derive(Default)]
struct Class {
    ns: Vec<f64>,
    allocs: u64,
}

impl Class {
    fn mean_allocs(&self) -> f64 {
        self.allocs as f64 / self.ns.len().max(1) as f64
    }
}

/// Replays connection 0's share of a `total_ops`-operation traced stream
/// against an in-process engine and probes the layers' primitives.
/// `stripes` is what the server resolved; `dir` is scratch space.
pub fn run(
    wl: &Workload,
    seed: u64,
    total_ops: u64,
    stripes: usize,
    dir: &Path,
) -> io::Result<LayerRun> {
    let overhead = clock_overhead_ns();
    let db = open_engine(wl, stripes, dir)?;
    let start_snapshot = db.snapshot();
    for id in 0..wl.num_keys {
        db.put(render_key(id), encode(id, LOAD_VERSION, wl.value_size))
            .map_err(lsm_err)?;
    }
    db.db().flush().map_err(lsm_err)?;
    settle(&db);
    if wl.fits_cache() {
        for id in 0..wl.num_keys {
            black_box(db.get(&render_key(id)).map_err(lsm_err)?);
        }
    }
    let mut stream = OpStream::new(wl, seed, 0, CONNECTIONS);
    let warm = wl.warm_ops / CONNECTIONS;
    for op in 0..warm {
        apply(&db, &stream.next_request(op, warm))?;
    }
    settle(&db);

    // Pass 1: the engine calls, classified hit or miss from the counters.
    let ops = (total_ops / CONNECTIONS).min(MAX_REPLAY_OPS);
    let requests: Vec<Request> = (0..ops)
        .map(|op| stream.next_request(op, total_ops / CONNECTIONS))
        .collect();
    let mut spans = Vec::with_capacity(requests.len() * 2);
    let mut class_of: Vec<&'static str> = Vec::with_capacity(requests.len());
    let (mut get_hit, mut get_miss, mut scan_hit, mut scan_miss, mut put) = (
        Class::default(),
        Class::default(),
        Class::default(),
        Class::default(),
        Class::default(),
    );
    let mut all_gets = Vec::new();
    let origin = Instant::now();
    for (op, req) in requests.iter().enumerate() {
        let misses_before = db.counters().cache_misses.load(Ordering::Relaxed);
        let allocs_before = allocations();
        let start = Instant::now();
        let result = apply(&db, req);
        let end = Instant::now();
        let allocs = allocations() - allocs_before;
        black_box(result?);
        let missed = db.counters().cache_misses.load(Ordering::Relaxed) != misses_before;
        let ns = ((end - start).as_nanos() as f64 - overhead).max(0.0);
        let (name, class) = match (req, missed) {
            (Request::Get { .. }, false) => ("core.get_hit", &mut get_hit),
            (Request::Get { .. }, true) => ("core.get_miss", &mut get_miss),
            (Request::Scan { .. }, false) => ("core.scan_hit", &mut scan_hit),
            (Request::Scan { .. }, true) => ("core.scan_miss", &mut scan_miss),
            _ => ("core.put", &mut put),
        };
        class.ns.push(ns);
        class.allocs += allocs;
        if matches!(req, Request::Get { .. }) {
            all_gets.push(ns);
        }
        class_of.push(name);
        spans.push(Span {
            op: op as u64,
            name,
            start_ns: (start - origin).as_nanos() as u64,
            end_ns: (end - origin).as_nanos() as u64,
            parent: Some(match req {
                Request::Get { .. } => "wire.get",
                Request::Scan { .. } => "wire.scan",
                _ => "wire.put",
            }),
        });
    }
    settle(&db);

    // Pass 2: the calls the engine makes below itself, timed on the same
    // keys — the children a `core.*` span's self time is net of.
    let range_cache = db
        .range_cache()
        .expect("the adcache strategy has a range cache");
    let block_cache = db
        .block_cache()
        .expect("the adcache strategy has a block cache");
    let (mut rc_point, mut rc_range, mut lsm_get, mut lsm_scan16) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let child = |spans: &mut Vec<Span>,
                 op: usize,
                 name: &'static str,
                 into: &mut Vec<f64>,
                 call: &mut dyn FnMut()| {
        let start = Instant::now();
        call();
        let end = Instant::now();
        into.push(((end - start).as_nanos() as f64 - overhead).max(0.0));
        spans.push(Span {
            op: op as u64,
            name,
            start_ns: (start - origin).as_nanos() as u64,
            end_ns: (end - origin).as_nanos() as u64,
            parent: Some(class_of[op]),
        });
    };
    for (op, req) in requests.iter().enumerate() {
        let missed = class_of[op].ends_with("_miss");
        match req {
            Request::Get { key } => {
                child(
                    &mut spans,
                    op,
                    "cache.range.get_point",
                    &mut rc_point,
                    &mut || {
                        black_box(range_cache.get_point(key));
                    },
                );
                if missed {
                    child(&mut spans, op, "lsm.get", &mut lsm_get, &mut || {
                        black_box(db.db().get(key, &block_cache.provider()).is_ok());
                    });
                }
            }
            Request::Scan { from, limit } => {
                let n = *limit as usize;
                child(
                    &mut spans,
                    op,
                    "cache.range.get_range",
                    &mut rc_range,
                    &mut || {
                        black_box(range_cache.get_range(from, n));
                    },
                );
                if missed && n == 16 {
                    child(&mut spans, op, "lsm.scan16", &mut lsm_scan16, &mut || {
                        black_box(db.db().scan(from, n, &block_cache.provider()).is_ok());
                    });
                }
            }
            _ => {}
        }
    }

    let mut metrics = Vec::new();
    for (name, class) in [
        ("core.get_hit", &get_hit),
        ("core.get_miss", &get_miss),
        ("core.scan_hit", &scan_hit),
        ("core.scan_miss", &scan_miss),
        ("core.put", &put),
    ] {
        if !class.ns.is_empty() {
            metrics.push(ns_metric(
                &format!("{name}_ns"),
                median(&class.ns),
                class.ns.len(),
            ));
        }
    }
    for (name, class) in [
        ("core.get_hit_allocs", &get_hit),
        ("core.get_miss_allocs", &get_miss),
        ("core.put_allocs", &put),
    ] {
        if !class.ns.is_empty() {
            let n = class.ns.len() as u64;
            metrics.push(Metric::new(name, class.mean_allocs(), "count", n));
        }
    }
    for (name, ns) in [
        ("cache.range.get_point_ns", &rc_point),
        ("cache.range.get_range_ns", &rc_range),
        ("lsm.get_ns", &lsm_get),
        ("lsm.scan16_ns", &lsm_scan16),
    ] {
        if !ns.is_empty() {
            metrics.push(ns_metric(name, median(ns), ns.len()));
        }
    }
    // Self time: a span minus the children measured on the same keys.
    if !get_hit.ns.is_empty() {
        let own = median(&get_hit.ns) - median(&rc_point);
        metrics.push(ns_metric("core.get_hit_self_ns", own, get_hit.ns.len()));
    }
    if !get_miss.ns.is_empty() {
        let own = median(&get_miss.ns) - median(&rc_point) - median(&lsm_get);
        metrics.push(ns_metric("core.get_miss_self_ns", own, get_miss.ns.len()));
    }

    // The rest are probes of single primitives on keys of the workload's
    // shape; they do not depend on the stream.
    let keys: Vec<Bytes> = (0..PROBE_CALLS as u64)
        .map(|i| render_key(i * 7 % wl.num_keys))
        .collect();
    let value = encode(1, LOAD_VERSION, wl.value_size);
    let probe = |name: &str, f: &mut dyn FnMut(usize)| {
        ns_metric(
            name,
            time_calls(PROBE_CALLS, PROBE_BATCH, overhead, f),
            PROBE_CALLS,
        )
    };

    let sixteen: Vec<&[u8]> = keys[..16].iter().map(|k| k.as_slice()).collect();
    let multi = time_calls(PROBE_CALLS / 16, 1, overhead, |_| {
        black_box(db.multi_get(&sixteen).is_ok());
    });
    metrics.push(ns_metric(
        "core.multi_get16_ns_per_key",
        multi / 16.0,
        PROBE_CALLS / 16,
    ));

    let mut controller = Controller::new(ControllerConfig::default());
    let window = db.window_summary(&start_snapshot);
    let windows = 64;
    let tuned = time_calls(windows, 1, overhead, |_| {
        black_box(controller.end_of_window(&window));
    });
    metrics.push(ns_metric(
        "core.controller.end_of_window_ns",
        tuned,
        windows,
    ));

    let mut agent = ActorCritic::new(AgentConfig::paper_default(STATE_DIM, ACTION_DIM));
    let state = adcache_core::featurize_with(CacheDecision::default().range_ratio, &window);
    let act = time_calls(256, 1, overhead, |_| {
        black_box(agent.act(&state));
    });
    metrics.push(ns_metric("rl.act_ns", act, 256));
    let transition = Transition {
        state: state.clone(),
        action: CacheDecision::default().to_action(),
        reward: 0.5,
        next_state: state.clone(),
    };
    let update = time_calls(256, 1, overhead, |_| {
        black_box(agent.update(&transition));
    });
    metrics.push(ns_metric("rl.update_ns", update, 256));

    // cache: structures of their own, the size of the workload's budget.
    let budget = wl.cache_mb << 20;
    let range = RangeCache::new(budget);
    let scans: Vec<Vec<(Bytes, Bytes)>> = (0..PROBE_CALLS as u64)
        .map(|i| {
            let from = i * 16 % wl.num_keys.saturating_sub(16).max(1);
            (from..from + 16)
                .map(|id| (render_key(id), value.clone()))
                .collect()
        })
        .collect();
    metrics.push(probe("cache.range.insert_scan_ns", &mut |i| {
        range.insert_scan(&scans[i][0].0, &scans[i], 16);
    }));
    metrics.push(probe("cache.range.on_write_ns", &mut |i| {
        range.on_write(&scans[i][3].0, Some(&value));
    }));
    let blocks = BlockCache::new(budget, 1);
    let mut builder = BlockBuilder::new(16);
    for id in 0..24 {
        builder
            .add(&render_key(id), &Entry::Put(value.clone()))
            .map_err(lsm_err)?;
    }
    let block = Arc::new(Block::decode(builder.finish()).map_err(lsm_err)?);
    metrics.push(probe("cache.block.insert_ns", &mut |i| {
        blocks.insert_block(BlockRef::new(i as u64, 0), block.clone());
    }));
    metrics.push(probe("cache.block.get_ns", &mut |i| {
        black_box(blocks.peek(&BlockRef::new(i as u64, 0)));
    }));
    let kv = KvCache::new(budget);
    for key in &keys {
        kv.insert(key.clone(), value.clone());
    }
    metrics.push(probe("cache.kv.get_ns", &mut |i| {
        black_box(kv.get(&keys[i]));
    }));
    let mut sketch = CountMinSketch::for_keys(100_000);
    metrics.push(probe("cache.sketch.increment_ns", &mut |i| {
        black_box(sketch.increment(&keys[i]));
    }));
    let mut admission = PointAdmission::new(100_000, CacheDecision::default().point_threshold);
    metrics.push(probe("cache.admission.admit_ns", &mut |i| {
        black_box(admission.admit(&keys[i]));
    }));

    // lsm: the write path's parts, then writes to the tree itself, past
    // the result caches (last: they leave the caches incoherent).
    let mut memtable = MemTable::new();
    metrics.push(probe("lsm.memtable_put_ns", &mut |i| {
        memtable.put(keys[i].clone(), value.clone());
    }));
    let mut wal =
        WalWriter::open(Arc::new(RealFs::new()), dir.join("probe.wal"), false).map_err(lsm_err)?;
    let entry = Entry::Put(value.clone());
    metrics.push(probe("lsm.wal_append_ns", &mut |i| {
        black_box(wal.append(&keys[i], &entry).is_ok());
    }));
    wal.flush().map_err(lsm_err)?;
    metrics.push(probe("lsm.put_ns", &mut |i| {
        black_box(db.db().put(keys[i].clone(), value.clone()).is_ok());
    }));

    // server: framing, the part of the serving layer that can be called
    // without a socket.
    let request = Request::Get {
        key: keys[0].clone(),
    };
    let response = Response::Value(value.clone());
    let (mut request_frame, mut response_frame) = (Vec::new(), Vec::new());
    let encode_request_ns = probe("server.protocol.encode_request_ns", &mut |i| {
        request_frame.clear();
        encode_request(&mut request_frame, i as u64, &request);
    });
    let decode_request_ns = probe("server.protocol.decode_request_ns", &mut |_| {
        black_box(decode_request(&request_frame, DEFAULT_MAX_FRAME));
    });
    let encode_response_ns = probe("server.protocol.encode_response_ns", &mut |i| {
        response_frame.clear();
        encode_response(&mut response_frame, i as u64, &response);
    });
    let decode_response_ns = probe("server.protocol.decode_response_ns", &mut |_| {
        black_box(decode_response(
            &response_frame,
            DEFAULT_MAX_FRAME,
            Opcode::Get,
        ));
    });
    let get_path_ns = encode_request_ns.value
        + decode_request_ns.value
        + median(&all_gets)
        + encode_response_ns.value
        + decode_response_ns.value;
    metrics.extend([
        encode_request_ns,
        decode_request_ns,
        encode_response_ns,
        decode_response_ns,
    ]);

    Ok(LayerRun {
        metrics,
        spans,
        get_path_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_calls_reports_per_call_medians() {
        let mut calls = 0;
        let ns = time_calls(64, 16, 0.0, |_| {
            calls += 1;
            black_box((0..100).sum::<u64>());
        });
        assert_eq!(calls, 64);
        assert!(ns >= 0.0);
        assert!(clock_overhead_ns() >= 0.0);
    }
}
