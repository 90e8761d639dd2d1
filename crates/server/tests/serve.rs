//! End-to-end serving tests over loopback TCP: a real `Server` on port 0,
//! real clients, real frames. Covers the PR's acceptance criterion (a
//! many-connection mixed zipfian workload completes with zero lost or
//! misordered replies and a graceful drain) plus the failure paths:
//! malformed frames, connection limits, idle timeouts, and the `Shutdown`
//! opcode.

use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::{MemStorage, Options};
use adcache_obs::Obs;
use adcache_server::{
    loadgen, Client, LoadgenConfig, MetricsFormat, Request, Response, Server, ServerConfig,
};
use adcache_workload::{render_key, AdversaryConfig, AdversaryKind, Mix, WorkloadConfig};
use bytes::Bytes;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

fn test_db(with_obs: bool) -> Arc<CachedDb> {
    let db = CachedDb::new(
        Options::small(),
        Arc::new(MemStorage::new()),
        EngineConfig::new(Strategy::AdCache, 1 << 20),
    )
    .unwrap();
    if with_obs {
        db.set_obs(Obs::enabled());
    }
    for i in 0..2_000u64 {
        db.load(render_key(i), Bytes::from(format!("seed-{i:05}")))
            .unwrap();
    }
    db.db().flush().unwrap();
    Arc::new(db)
}

fn start_server(db: Arc<CachedDb>, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..Default::default()
    };
    tweak(&mut cfg);
    Server::start(db, cfg).unwrap()
}

/// Basic request/response semantics for every opcode through one client.
#[test]
fn every_opcode_round_trips() {
    let db = test_db(false);
    let server = start_server(db, |_| {});
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Ok);
    assert_eq!(
        c.call(&Request::Get {
            key: render_key(42)
        })
        .unwrap(),
        Response::Value(Bytes::from("seed-00042"))
    );
    assert_eq!(
        c.call(&Request::Get {
            key: Bytes::from_static(b"missing!")
        })
        .unwrap(),
        Response::NotFound
    );
    assert_eq!(
        c.call(&Request::Put {
            key: Bytes::from_static(b"net-key"),
            value: Bytes::from_static(b"net-value"),
        })
        .unwrap(),
        Response::Ok
    );
    assert_eq!(
        c.call(&Request::Get {
            key: Bytes::from_static(b"net-key")
        })
        .unwrap(),
        Response::Value(Bytes::from_static(b"net-value"))
    );
    assert_eq!(
        c.call(&Request::Delete {
            key: Bytes::from_static(b"net-key")
        })
        .unwrap(),
        Response::Ok
    );
    assert_eq!(
        c.call(&Request::Get {
            key: Bytes::from_static(b"net-key")
        })
        .unwrap(),
        Response::NotFound
    );

    match c
        .call(&Request::Scan {
            from: render_key(10),
            limit: 5,
        })
        .unwrap()
    {
        Response::Entries(entries) => {
            assert_eq!(entries.len(), 5);
            assert_eq!(entries[0].0, render_key(10));
            for w in entries.windows(2) {
                assert!(w[0].0 < w[1].0, "scan replies must be ordered");
            }
        }
        other => panic!("scan answered {other:?}"),
    }

    let stats = c.stats().unwrap();
    assert!(
        stats.contains("\"engine\""),
        "stats missing engine: {stats}"
    );
    assert!(
        stats.contains("\"server\""),
        "stats missing server: {stats}"
    );
    assert!(stats.contains("\"strategy\""));

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.conns_accepted, report.conns_closed);
}

/// The acceptance run: a 32-connection mixed zipfian workload completes
/// with zero lost, misordered, or undecodable replies, and shutdown
/// drains cleanly (every accepted connection closed, engine flushed).
#[test]
fn thirty_two_connections_of_mixed_zipf_traffic_lose_nothing() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| cfg.max_conns = 64);
    let addr = server.local_addr().to_string();

    let report = loadgen::run(&LoadgenConfig {
        addr,
        connections: 32,
        ops: 16_000,
        mix: Mix::new(40.0, 25.0, 5.0, 30.0),
        workload: WorkloadConfig {
            num_keys: 2_000,
            value_size: 64,
            seed: 7,
            ..Default::default()
        },
        target_qps: None,
        ..Default::default()
    })
    .unwrap();

    assert_eq!(report.ops, 16_000, "every op must complete");
    assert_eq!(report.protocol_errors, 0, "no lost or misordered replies");
    assert_eq!(report.server_errors, 0, "no engine failures");
    assert!(report.qps > 0.0);
    assert!(report.latency.count() == 16_000);
    assert!(report.latency.quantile(0.999) >= report.latency.quantile(0.50));

    let serve = server.shutdown();
    assert_eq!(serve.requests, 16_000);
    assert_eq!(serve.protocol_errors, 0);
    assert_eq!(serve.conns_accepted, serve.conns_closed, "graceful drain");
    assert_eq!(serve.conns_refused, 0);

    // The run is visible through the observability layer: server metrics
    // registered, connection lifecycle journaled.
    let obs = db.obs();
    let metrics = obs.metrics_json().unwrap();
    assert!(metrics.contains("server.requests"));
    assert!(metrics.contains("server.latency.get"));
    let trace = obs.trace_jsonl().unwrap();
    assert!(trace.contains("ConnAccepted"));
    assert!(trace.contains("ConnClosed"));
    assert!(trace.contains("RequestServed"));
}

/// Open-loop mode paces sends by wall clock and still verifies FIFO
/// replies; a modest target rate finishes with zero protocol errors.
#[test]
fn open_loop_mode_completes_at_target_rate() {
    let db = test_db(false);
    let server = start_server(db, |_| {});
    let addr = server.local_addr().to_string();

    let report = loadgen::run(&LoadgenConfig {
        addr,
        connections: 4,
        ops: 4_000,
        mix: Mix::new(60.0, 20.0, 0.0, 20.0),
        workload: WorkloadConfig {
            num_keys: 2_000,
            value_size: 64,
            seed: 11,
            ..Default::default()
        },
        target_qps: Some(50_000),
        ..Default::default()
    })
    .unwrap();

    assert_eq!(report.ops, 4_000);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.server_errors, 0);
    let rendered = report.render();
    assert!(rendered.contains("throughput"));
    assert!(rendered.contains("p999"));

    let serve = server.shutdown();
    assert_eq!(serve.requests, 4_000);
}

/// A pipelined burst written as one TCP payload comes back as in-order
/// replies — the server decodes many frames per read and answers them
/// in request order.
#[test]
fn pipelined_burst_is_answered_in_order() {
    let db = test_db(false);
    let server = start_server(db, |_| {});
    let addr = server.local_addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();

    let mut burst = Vec::new();
    for i in 0..200u64 {
        adcache_server::encode_request(
            &mut burst,
            i,
            &Request::Get {
                key: render_key(i % 2_000),
            },
        );
    }
    stream.write_all(&burst).unwrap();

    let mut rbuf = Vec::new();
    let mut chunk = [0u8; 65536];
    let mut next_expected = 0u64;
    while next_expected < 200 {
        loop {
            match adcache_server::decode_response(&rbuf, 1 << 20, adcache_server::Opcode::Get) {
                adcache_server::Progress::Frame(Ok((id, resp)), consumed) => {
                    assert_eq!(id, next_expected, "replies must arrive in request order");
                    assert!(matches!(resp, Response::Value(_)));
                    rbuf.drain(..consumed);
                    next_expected += 1;
                }
                adcache_server::Progress::Incomplete => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        if next_expected < 200 {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed early");
            rbuf.extend_from_slice(&chunk[..n]);
        }
    }
    drop(stream);
    server.shutdown();
}

/// An unknown opcode or malformed body gets a clean `Err` reply carrying
/// the offending frame's id, and the connection keeps working.
#[test]
fn malformed_frames_get_error_replies_and_the_connection_survives() {
    let db = test_db(true);
    let server = start_server(db.clone(), |_| {});
    let addr = server.local_addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // Unknown opcode 77, then a malformed Get, then a valid Ping — all in
    // one burst.
    let mut burst = Vec::new();
    burst.extend_from_slice(&9u32.to_le_bytes());
    burst.extend_from_slice(&1u64.to_le_bytes());
    burst.push(77);
    burst.extend_from_slice(&13u32.to_le_bytes());
    burst.extend_from_slice(&2u64.to_le_bytes());
    burst.push(1); // Get
    burst.extend_from_slice(&999u32.to_le_bytes()); // key claims 999 bytes
    adcache_server::encode_request(&mut burst, 3, &Request::Ping);
    stream.write_all(&burst).unwrap();

    // Replies may arrive coalesced into one TCP segment, so the buffer
    // must persist across reads.
    let mut rbuf = Vec::new();
    let mut read_reply = |awaiting| {
        let mut chunk = [0u8; 4096];
        loop {
            match adcache_server::decode_response(&rbuf, 1 << 20, awaiting) {
                adcache_server::Progress::Frame(Ok((id, resp)), consumed) => {
                    rbuf.drain(..consumed);
                    return (id, resp);
                }
                adcache_server::Progress::Incomplete => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "connection must survive malformed frames");
                    rbuf.extend_from_slice(&chunk[..n]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    };

    let (id, resp) = read_reply(adcache_server::Opcode::Ping);
    assert_eq!(id, 1);
    assert!(
        matches!(resp, Response::Error(ref m) if m.contains("opcode")),
        "got {resp:?}"
    );
    let (id, resp) = read_reply(adcache_server::Opcode::Get);
    assert_eq!(id, 2);
    assert!(matches!(resp, Response::Error(_)));
    let (id, resp) = read_reply(adcache_server::Opcode::Ping);
    assert_eq!(id, 3);
    assert_eq!(resp, Response::Ok, "connection still serves after errors");

    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 2);
    assert_eq!(report.requests, 1, "only the Ping executed");
}

/// STATS and METRICS read the serving counters from the same cells: after
/// a loadgen run, one malformed frame and one throttled request, every
/// `server.*` counter METRICS names equals the STATS total — on the wire
/// (where the STATS request itself is the one request between the two)
/// and in the drained server's report.
#[test]
fn stats_and_metrics_read_the_same_serving_counters() {
    let db = test_db(true);
    // A bucket no loadgen connection empties (500 ops of at most 33
    // tokens each), refilled at one token a second.
    let server = start_server(db.clone(), |cfg| {
        cfg.quota_ops = 1;
        cfg.quota_burst = 100_000;
    });
    let addr = server.local_addr().to_string();
    let load = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        connections: 4,
        ops: 2_000,
        mix: Mix::new(40.0, 25.0, 5.0, 30.0),
        workload: WorkloadConfig {
            num_keys: 2_000,
            value_size: 64,
            seed: 11,
            ..Default::default()
        },
        target_qps: None,
        ..Default::default()
    })
    .unwrap();
    assert_eq!(load.protocol_errors, 0);

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut bad = Vec::new();
    bad.extend_from_slice(&9u32.to_le_bytes());
    bad.extend_from_slice(&1u64.to_le_bytes());
    bad.push(77); // no such opcode
    stream.write_all(&bad).unwrap();
    assert!(stream.read(&mut [0u8; 256]).unwrap() > 0, "an Err reply");
    drop(stream);

    let mut c = Client::connect(&addr).unwrap();
    c.auth(1).unwrap();
    // A scan of cost 99 999 leaves tenant 1 one token: one GET's worth.
    let drain = Request::Scan {
        from: render_key(0),
        limit: 199_996,
    };
    assert!(matches!(c.call(&drain).unwrap(), Response::Entries(_)));
    let key = render_key(1);
    assert!(matches!(
        c.call(&Request::Get { key: key.clone() }).unwrap(),
        Response::Value(_)
    ));
    assert!(matches!(
        c.call(&Request::Get { key }).unwrap(),
        Response::Error(_)
    ));

    let stats: serde_json::Value = serde_json::from_str(&c.stats().unwrap()).unwrap();
    let metrics: serde_json::Value =
        serde_json::from_str(&c.metrics(MetricsFormat::Json).unwrap()).unwrap();
    let read = |v: &serde_json::Value, group: &str, name: &str| {
        let n = v.get(group).and_then(|g| g.get(name));
        n.and_then(serde_json::Value::as_u64).unwrap()
    };
    let stat = |field: &str| read(&stats, "server", field);
    let metric = |name: &str| read(&metrics, "counters", name);
    assert_eq!(stat("protocol_errors"), 1);
    assert_eq!(stat("quota_throttled"), 1);
    assert_eq!(metric("server.protocol_errors"), stat("protocol_errors"));
    assert_eq!(metric("server.quota.throttled"), stat("quota_throttled"));
    assert_eq!(metric("server.requests"), stat("requests") + 1);
    assert_eq!(metric("server.tenant.1.quota.throttled"), 1);
    drop(c);

    let report = server.shutdown();
    let reg = db.obs();
    let reg = reg.registry().unwrap();
    for (name, total) in [
        ("server.requests", report.requests),
        ("server.protocol_errors", report.protocol_errors),
        ("server.quota.throttled", report.quota_throttled),
        ("server.bytes_in", report.bytes_in),
        ("server.bytes_out", report.bytes_out),
    ] {
        assert_eq!(reg.counter_value(name), total, "{name}");
    }
    assert!(report.requests > 2_000 && report.bytes_in > 0 && report.bytes_out > 0);
}

/// An oversized declared length poisons framing: the server answers with
/// one `Err` frame and closes that connection, but keeps serving others.
#[test]
fn oversized_frames_close_only_the_offending_connection() {
    let db = test_db(false);
    let server = start_server(db, |_| {});
    let addr = server.local_addr().to_string();

    let mut bad = std::net::TcpStream::connect(&addr).unwrap();
    bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
    bad.write_all(&[0u8; 32]).unwrap();
    // The server replies with an error frame and then EOF.
    let mut tail = Vec::new();
    bad.read_to_end(&mut tail).unwrap();
    assert!(!tail.is_empty(), "expected an error reply before close");

    let mut good = Client::connect(&addr).unwrap();
    assert_eq!(good.call(&Request::Ping).unwrap(), Response::Ok);

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 1);
}

/// Past `max_conns`, new connections get one `Err` frame and a close,
/// and the journal records the overload.
#[test]
fn connection_limit_refuses_with_an_error_frame() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| cfg.max_conns = 2);
    let addr = server.local_addr().to_string();

    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    assert_eq!(a.call(&Request::Ping).unwrap(), Response::Ok);
    assert_eq!(b.call(&Request::Ping).unwrap(), Response::Ok);

    // The third connection is refused. The refusal races with accept, so
    // poll until the limit bites.
    let mut refused = false;
    for _ in 0..50 {
        let mut c = std::net::TcpStream::connect(&addr).unwrap();
        let mut tail = Vec::new();
        c.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        if c.read_to_end(&mut tail).is_ok() && !tail.is_empty() {
            refused = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        refused,
        "third connection should get an error frame + close"
    );

    let report = server.shutdown();
    assert!(report.conns_refused >= 1);
    let trace = db.obs().trace_jsonl().unwrap();
    assert!(trace.contains("ServerOverload"));
}

/// Idle connections are reaped after the timeout and journaled with the
/// `IdleTimeout` cause; active ones are not.
#[test]
fn idle_connections_are_reaped() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| {
        cfg.idle_timeout = Duration::from_millis(100);
    });
    let addr = server.local_addr().to_string();

    let mut idle = std::net::TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // First confirm the connection works, then go quiet.
    let mut hello = Vec::new();
    adcache_server::encode_request(&mut hello, 1, &Request::Ping);
    idle.write_all(&hello).unwrap();
    let mut chunk = [0u8; 64];
    let n = idle.read(&mut chunk).unwrap();
    assert!(n > 0);

    // The server should close us well within 5 s.
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no extra frames expected on idle close");

    server.shutdown();
    let trace = db.obs().trace_jsonl().unwrap();
    assert!(trace.contains("IdleTimeout"));
}

/// The telemetry plane over the wire: with an enabled `Obs`, `METRICS`
/// serves both export formats, every request records a full stage
/// breakdown into `server.stage.*`, and engine lock accounting shows up
/// as `engine.lock.*`. Without telemetry the opcode answers `Err`.
#[test]
fn metrics_opcode_serves_registry_and_stage_breakdown() {
    let db = test_db(true);
    let server = start_server(db, |_| {});
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    for i in 0..200u64 {
        c.call(&Request::Get {
            key: render_key(i % 2_000),
        })
        .unwrap();
        if i % 4 == 0 {
            c.call(&Request::Put {
                key: render_key(i),
                value: Bytes::from(format!("mv-{i}")),
            })
            .unwrap();
        }
    }

    let json = c.metrics(MetricsFormat::Json).unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).expect("metrics JSON parses");
    let text = serde_json::to_string(&v).unwrap();
    for stage in [
        "server.stage.recv",
        "server.stage.parse",
        "server.stage.queue_wait",
        "server.stage.lock_wait",
        "server.stage.engine_exec",
        "server.stage.cache_layer",
        "server.stage.reply_flush",
        "server.stage.total",
    ] {
        assert!(text.contains(stage), "missing {stage} in {json}");
    }
    assert!(text.contains("engine.lock.read.acquisitions"));
    assert!(text.contains("engine.lock.write.wait_ns"));
    assert!(text.contains("sum_ns"), "histograms must export sum_ns");

    let prom = c.metrics(MetricsFormat::Prometheus).unwrap();
    assert!(prom.contains("# TYPE adcache_server_requests counter"));
    assert!(prom.contains("# TYPE adcache_server_stage_total summary"));
    assert!(prom.contains("quantile=\"0.99\""));
    server.shutdown();

    // Telemetry off: the opcode answers a clean Err and the connection
    // keeps serving.
    let db = test_db(false);
    let server = start_server(db, |_| {});
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let err = c.metrics(MetricsFormat::Json).unwrap_err();
    assert!(err.to_string().contains("telemetry disabled"), "{err}");
    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Ok);
    server.shutdown();
}

/// A deliberately slow request (large scan) lands in the journal as a
/// `SlowRequest` event with a stage breakdown that sums to its total.
#[test]
fn slow_requests_are_journaled_with_stage_breakdown() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| cfg.slow_request_ns = 1); // everything is "slow"
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    c.call(&Request::Scan {
        from: render_key(0),
        limit: 100,
    })
    .unwrap();
    server.shutdown();

    let trace = db.obs().trace_jsonl().unwrap();
    let line = trace
        .lines()
        .find(|l| l.contains("SlowRequest") && l.contains("\"opcode\":\"scan\""))
        .expect("scan must journal a SlowRequest");
    for field in [
        "total_ns",
        "recv_ns",
        "parse_ns",
        "queue_ns",
        "lock_wait_ns",
        "engine_ns",
        "cache_ns",
        "reply_ns",
        "key",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
    assert!(line.contains("..+100"), "scan key renders from..+limit");
}

/// A blended adversarial run against a quota-enforcing server: hostile
/// connections draw scan floods while legit connections run zipfian
/// traffic. Quota rejections land in `errors_by_cause["quota"]`, never
/// abort FIFO reply verification, and every op still completes.
#[test]
fn adversarial_blend_classifies_quota_errors_without_protocol_damage() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| {
        cfg.quota_ops = 200;
        cfg.quota_burst = 50;
    });
    let addr = server.local_addr().to_string();

    let report = loadgen::run(&LoadgenConfig {
        addr,
        connections: 4,
        ops: 4_000,
        mix: Mix::new(60.0, 10.0, 0.0, 30.0),
        workload: WorkloadConfig {
            num_keys: 2_000,
            value_size: 64,
            seed: 13,
            ..Default::default()
        },
        target_qps: None,
        batch: 0,
        adversary: Some(AdversaryConfig::new(AdversaryKind::ScanFlood, 2_000, 99)),
        adversary_frac: 0.5,
        ..Default::default()
    })
    .unwrap();

    assert_eq!(report.ops, 4_000, "every op completes despite throttling");
    assert_eq!(
        report.protocol_errors, 0,
        "Err replies must not desync FIFO"
    );
    assert_eq!(report.adversary_ops, 2_000, "half the connections attack");
    let quota = report.errors_by_cause.get("quota").copied().unwrap_or(0);
    assert!(
        quota > 0,
        "scan flood must trip the quota: {:?}",
        report.errors_by_cause
    );
    assert_eq!(
        quota, report.server_errors,
        "all errors in this run are quota rejections"
    );
    assert!(report.legit_latency.count() > 0);
    assert_eq!(
        report.legit_latency.count() + report.adversary_ops,
        report.ops
    );

    let serve = server.shutdown();
    assert!(serve.quota_throttled > 0);
    assert_eq!(serve.conns_accepted, serve.conns_closed, "clean drain");
}

/// Per-connection admission quota: a connection that exceeds its token
/// bucket gets `Err` replies that start with "quota", stays connected,
/// and recovers once the bucket refills. Control-plane opcodes (Ping,
/// Stats) are exempt even while the bucket is dry, and the throttling is
/// visible in the drain report, stats, and journal.
#[test]
fn quota_throttles_with_error_replies_and_the_connection_survives() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| {
        cfg.quota_ops = 20;
        cfg.quota_burst = 20;
    });
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    // Burn through the burst and well past it as fast as we can send.
    let mut ok = 0u64;
    let mut throttled = 0u64;
    for i in 0..200u64 {
        match c
            .call(&Request::Get {
                key: render_key(i % 2_000),
            })
            .unwrap()
        {
            Response::Value(_) | Response::NotFound => ok += 1,
            Response::Error(msg) => {
                assert!(msg.starts_with("quota"), "unexpected error: {msg}");
                throttled += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(ok >= 20, "the burst allowance must be admitted, got {ok}");
    assert!(throttled > 0, "200 instant ops must exhaust a 20-op bucket");

    // The control plane stays reachable while the bucket is dry.
    assert_eq!(c.call(&Request::Ping).unwrap(), Response::Ok);
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"quota_throttled\""), "stats: {stats}");

    // After a refill interval the same connection serves data again.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        matches!(
            c.call(&Request::Get { key: render_key(1) }).unwrap(),
            Response::Value(_)
        ),
        "bucket must refill"
    );

    let report = server.shutdown();
    assert_eq!(report.quota_throttled, throttled);
    assert_eq!(report.conns_accepted, report.conns_closed);
    let trace = db.obs().trace_jsonl().unwrap();
    assert!(trace.contains("QuotaThrottled"));
}

/// The `Batch` opcode end to end: one frame carrying heterogeneous subs
/// comes back as one in-order multi-reply with per-sub statuses, writes
/// are visible to later subs in the same batch, and a batched loadgen
/// run completes with zero protocol errors while the journal and
/// metrics record the batch plane.
#[test]
fn batch_opcode_serves_heterogeneous_subs_and_batched_load() {
    let db = test_db(true);
    let server = start_server(db.clone(), |_| {});
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let subs = vec![
        Request::Ping,
        Request::Get {
            key: render_key(42),
        },
        Request::Get {
            key: Bytes::from_static(b"absent"),
        },
        Request::Put {
            key: Bytes::from_static(b"batched"),
            value: Bytes::from_static(b"write"),
        },
        // Read-your-writes within one batch: this Get follows the Put.
        Request::Get {
            key: Bytes::from_static(b"batched"),
        },
        Request::Scan {
            from: render_key(10),
            limit: 4,
        },
        Request::Delete {
            key: Bytes::from_static(b"batched"),
        },
        Request::Get {
            key: Bytes::from_static(b"batched"),
        },
    ];
    let echo: Vec<_> = subs.iter().map(|s| s.opcode()).collect();
    let replies = match c.call(&Request::Batch { subs }).unwrap() {
        Response::Batch(replies) => replies,
        other => panic!("batch answered {other:?}"),
    };
    assert_eq!(replies.len(), 8);
    for ((got, _), want) in replies.iter().zip(&echo) {
        assert_eq!(got, want, "sub replies echo opcodes in request order");
    }
    assert_eq!(replies[0].1, Response::Ok);
    assert_eq!(replies[1].1, Response::Value(Bytes::from("seed-00042")));
    assert_eq!(replies[2].1, Response::NotFound);
    assert_eq!(replies[3].1, Response::Ok);
    assert_eq!(replies[4].1, Response::Value(Bytes::from_static(b"write")));
    match &replies[5].1 {
        Response::Entries(entries) => assert_eq!(entries.len(), 4),
        other => panic!("scan sub answered {other:?}"),
    }
    assert_eq!(replies[6].1, Response::Ok);
    assert_eq!(replies[7].1, Response::NotFound, "delete visible in-batch");

    // A batched load run: every sub verified FIFO, nothing lost.
    let report = loadgen::run(&LoadgenConfig {
        addr,
        connections: 8,
        ops: 8_000,
        mix: Mix::new(40.0, 25.0, 5.0, 30.0),
        workload: WorkloadConfig {
            num_keys: 2_000,
            value_size: 64,
            seed: 17,
            ..Default::default()
        },
        target_qps: None,
        batch: 16,
        ..Default::default()
    })
    .unwrap();
    assert_eq!(report.ops, 8_000, "every batched op must complete");
    assert_eq!(report.protocol_errors, 0, "batch replies stay in order");
    assert_eq!(report.server_errors, 0);
    // 1000 ops per connection = 62 full batches + an 8-op tail = 63
    // frames each; latency records one RTT per *frame*, not per sub.
    assert_eq!(
        report.latency.count(),
        8 * 63,
        "latency records one RTT per batch frame"
    );

    server.shutdown();
    let metrics = db.obs().metrics_json().unwrap();
    assert!(metrics.contains("server.latency.batch"));
    assert!(metrics.contains("server.batch.subs"));
    assert!(metrics.contains("server.batch.stripes"));
    let trace = db.obs().trace_jsonl().unwrap();
    assert!(
        trace.contains(r#""opcode":"batch""#),
        "a sampled batch is journaled as one request"
    );
}

/// A run of consecutive PUT/DELETE subs goes down as one write batch per
/// stripe, and a run is committed before a later read in the frame
/// executes.
#[test]
fn batch_write_runs_commit_once_per_stripe_and_before_later_reads() {
    let db = CachedDb::served(EngineConfig::new(Strategy::AdCache, 1 << 20), 4, None).unwrap();
    db.set_obs(Obs::enabled());
    let db = Arc::new(db);
    let server = start_server(db.clone(), |_| {});
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();
    let batch = |c: &mut Client, subs: Vec<Request>| match c.call(&Request::Batch { subs }) {
        Ok(Response::Batch(replies)) => replies.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
        other => panic!("batch answered {other:?}"),
    };
    let put = |key: &Bytes, value: &str| Request::Put {
        key: key.clone(),
        value: Bytes::copy_from_slice(value.as_bytes()),
    };
    let get = |key: &Bytes| Request::Get { key: key.clone() };

    let (k, j) = (render_key(1), render_key(2));
    db.put(j.clone(), Bytes::from_static(b"doomed")).unwrap();
    let replies = batch(
        &mut c,
        vec![
            put(&k, "v1"),
            get(&k),
            put(&k, "v2"),
            Request::Delete { key: j.clone() },
            get(&k),
            get(&j),
        ],
    );
    assert_eq!(
        replies,
        [
            Response::Ok,
            Response::Value(Bytes::from_static(b"v1")),
            Response::Ok,
            Response::Ok,
            Response::Value(Bytes::from_static(b"v2")),
            Response::NotFound,
        ]
    );

    let keys: Vec<Bytes> = (100..612).map(render_key).collect();
    let rounds = db.db().group_commits();
    let replies = batch(&mut c, keys.iter().map(|k| put(k, "loaded")).collect());
    assert!(replies.iter().all(|r| *r == Response::Ok));
    let rounds = db.db().group_commits() - rounds;
    assert!(
        rounds <= 4,
        "512 PUTs took {rounds} commit rounds on 4 stripes"
    );
    let replies = batch(&mut c, keys.iter().map(get).collect());
    assert!(replies
        .iter()
        .all(|r| *r == Response::Value(Bytes::from_static(b"loaded"))));

    server.shutdown();
    // Three frames: stripes of {k, j}, then all four stripes twice.
    let metrics: serde_json::Value =
        serde_json::from_str(&db.obs().metrics_json().unwrap()).unwrap();
    let stripes = metrics
        .get("histograms")
        .and_then(|h| h.get("server.batch.stripes"))
        .unwrap();
    let field = |name: &str| stripes.get(name).and_then(serde_json::Value::as_u64);
    let kj = if db.db().stripe_for(&k) == db.db().stripe_for(&j) {
        1
    } else {
        2
    };
    assert_eq!(field("count"), Some(3));
    assert_eq!(field("sum_ns"), Some(kj + 8));
}

/// The `server.inflight` gauge counts concurrently executing requests —
/// under multi-worker load it must be observed above 1 (the old set(1)
/// implementation could never exceed 1 no matter the parallelism).
#[test]
fn inflight_gauge_exceeds_one_under_multi_worker_load() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| cfg.workers = 2);
    let addr = server.local_addr().to_string();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut drivers = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        let stop = stop.clone();
        drivers.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                c.call(&Request::Scan {
                    from: render_key(0),
                    limit: 2_000,
                })
                .unwrap();
            }
        }));
    }

    // Sample the gauge until both workers are caught mid-request.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut max_seen = 0i64;
    while max_seen <= 1 && std::time::Instant::now() < deadline {
        let v: serde_json::Value = serde_json::from_str(&db.obs().metrics_json().unwrap()).unwrap();
        let inflight = v
            .get("gauges")
            .and_then(|g| g.get("server.inflight"))
            .and_then(|n| n.as_i64())
            .unwrap_or(0);
        max_seen = max_seen.max(inflight);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for d in drivers {
        d.join().unwrap();
    }
    assert!(
        max_seen > 1,
        "two busy workers must be observable concurrently, saw {max_seen}"
    );
    server.shutdown();
}

/// Wire-level backpressure: a client that floods pipelined scans without
/// reading replies must not balloon the server's write buffer — the
/// server stops reading at the cap, resumes when the client drains, and
/// every reply still arrives in order.
#[test]
fn scan_flood_against_a_non_reading_client_stays_bounded_and_loses_nothing() {
    let db = test_db(false);
    let server = start_server(db, |_| {});
    let addr = server.local_addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // ~10.5 KiB of reply per frame, 1 200 frames: three times the
    // server's 4 MiB write-buffer cap.
    const FRAMES: u64 = 1_200;
    let mut burst = Vec::new();
    for i in 0..FRAMES {
        adcache_server::encode_request(
            &mut burst,
            i,
            &Request::Scan {
                from: render_key(0),
                limit: 256,
            },
        );
    }
    stream.write_all(&burst).unwrap();
    // Give the server time to hit the cap while we refuse to read.
    std::thread::sleep(Duration::from_millis(300));

    // Now drain: every reply arrives, in request order.
    let mut rbuf = Vec::new();
    let mut chunk = [0u8; 64 << 10];
    let mut next_expected = 0u64;
    while next_expected < FRAMES {
        loop {
            match adcache_server::decode_response(&rbuf, 16 << 20, adcache_server::Opcode::Scan) {
                adcache_server::Progress::Frame(Ok((id, resp)), consumed) => {
                    assert_eq!(id, next_expected, "replies must stay in request order");
                    match resp {
                        Response::Entries(entries) => assert_eq!(entries.len(), 256),
                        other => panic!("scan answered {other:?}"),
                    }
                    rbuf.drain(..consumed);
                    next_expected += 1;
                }
                adcache_server::Progress::Incomplete => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        if next_expected < FRAMES {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed with {next_expected}/{FRAMES} replies");
            rbuf.extend_from_slice(&chunk[..n]);
        }
    }
    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.requests, FRAMES, "every buffered frame executed");
    assert_eq!(report.protocol_errors, 0);
}

/// A client-issued `Shutdown` frame is acknowledged and then drains the
/// whole server — `wait()` returns without any local trigger.
#[test]
fn shutdown_opcode_drains_the_server() {
    let db = test_db(false);
    let server = start_server(db.clone(), |_| {});
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.call(&Request::Put {
        key: Bytes::from_static(b"durable"),
        value: Bytes::from_static(b"yes"),
    })
    .unwrap();
    c.shutdown_server().unwrap();

    let report = server.wait();
    assert!(report.requests >= 2);
    assert_eq!(report.conns_accepted, report.conns_closed);
    // The acknowledged write survived the drain (engine flushed).
    assert_eq!(
        db.get(b"durable").unwrap().map(|v| v.to_vec()),
        Some(b"yes".to_vec())
    );
}

/// Wire-level backward compatibility: a legacy client that has never
/// heard of AUTH sends byte-identical pre-tenant frames (hand-encoded
/// here so a protocol-layer change cannot mask a drift) and gets exactly
/// the old behavior — served by and charged to the default tenant however
/// many tuning windows it crosses. Served operations are the tuner's
/// clock: every GET, PUT, DELETE and SCAN, a batch's subs included, counts
/// toward the 1 000-op window; a PING or a control opcode does not.
#[test]
fn legacy_connections_without_auth_are_served_unchanged() {
    let db = test_db(true);
    let server = start_server(db.clone(), |_| {});
    let addr = server.local_addr().to_string();

    // Raw pre-tenant GET frame:
    // [u32 len][u64 id][u8 opcode=1][u32 key_len][key].
    let key = render_key(42);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(8u32 + 1 + 4 + key.len() as u32).to_le_bytes());
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.push(1);
    frame.extend_from_slice(&(key.len() as u32).to_le_bytes());
    frame.extend_from_slice(&key);
    let mut sock = std::net::TcpStream::connect(&addr).unwrap();
    sock.write_all(&frame).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Reply: [u32 len][u64 id=7][u8 tag=Value][u32 vlen][value].
    let mut reply = vec![0u8; 4 + 8 + 1 + 4 + 10];
    sock.read_exact(&mut reply).unwrap();
    assert_eq!(&reply[4..12], &7u64.to_le_bytes(), "id echo");
    assert_eq!(&reply[17..], b"seed-00042", "pre-tenant GET still serves");
    drop(sock);

    // 199 batches of 10 GETs and a PING, then 1 000 single GETs with a
    // PING and a STATS every 100: with the raw GET, 2 991 engine ops, so
    // exactly two windows close. Counting a PING would close a third;
    // counting a batch as one op, only one.
    let mut c = Client::connect(&addr).unwrap();
    let served = |resp: &Response| match resp {
        Response::Value(_) | Response::NotFound => {}
        other => panic!("legacy traffic must be served: {other:?}"),
    };
    for b in 0..199u64 {
        let mut subs: Vec<Request> = (0..10)
            .map(|i| Request::Get {
                key: render_key(b * 10 + i),
            })
            .collect();
        subs.push(Request::Ping);
        match c.call(&Request::Batch { subs }).unwrap() {
            Response::Batch(replies) => replies[..10].iter().for_each(|(_, r)| served(r)),
            other => panic!("batch answered {other:?}"),
        }
    }
    for i in 0..1_000u64 {
        if i % 100 == 0 {
            c.call(&Request::Ping).unwrap();
            c.stats().unwrap();
        }
        served(&c.call(&Request::Get { key: render_key(i) }).unwrap());
    }

    let obs = db.obs();
    assert_eq!(obs.window(), 2);
    let reg = obs.registry().unwrap();
    let reads =
        reg.counter_value("cache.tenant.0.hits") + reg.counter_value("cache.tenant.0.misses");
    assert_eq!(reads, 2_991, "every read is charged to the default tenant");

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.quota_throttled, 0);
}

/// `(hits, misses)` charged to `tenant` so far.
fn tally(db: &CachedDb, tenant: u32) -> (u64, u64) {
    let obs = db.obs();
    let reg = obs.registry().unwrap();
    (
        reg.counter_value(&format!("cache.tenant.{tenant}.hits")),
        reg.counter_value(&format!("cache.tenant.{tenant}.misses")),
    )
}

/// `(conn, tenant)` of every journaled `QuotaThrottled` event; `tenant`
/// is `None` where the event does not name one.
fn quota_throttles(db: &CachedDb) -> Vec<(u64, Option<u64>)> {
    let trace = db.obs().trace_jsonl().unwrap();
    let throttle = |line: &str| {
        let record: serde_json::Value = serde_json::from_str(line).unwrap();
        let event = record.get("event")?.get("QuotaThrottled")?.clone();
        let field = |name| event.get(name).and_then(serde_json::Value::as_u64);
        Some((field("conn")?, field("tenant")))
    };
    trace.lines().filter_map(throttle).collect()
}

/// Two connections bound to tenant 1 draw on one 50-token tenant bucket,
/// refilled at one token a second, so their 200 GETs admit about 50, where
/// two buckets of their own would admit at least 100; every throttle is
/// counted and journaled against tenant 1.
#[test]
fn connections_bound_to_one_tenant_share_one_quota_bucket() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| {
        cfg.quota_ops = 1;
        cfg.quota_burst = 50;
    });
    let addr = server.local_addr().to_string();
    let mut a = Client::connect(&addr).unwrap();
    a.auth(1).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    b.auth(1).unwrap();
    let mut admitted = 0u64;
    for i in 0..100u64 {
        for c in [&mut a, &mut b] {
            match c.call(&Request::Get { key: render_key(i) }).unwrap() {
                Response::Value(_) => admitted += 1,
                Response::Error(msg) => assert!(msg.contains("tenant 1"), "{msg}"),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    assert!(
        admitted < 100,
        "one bucket for both connections, admitted {admitted} of 200"
    );
    drop((a, b));
    let report = server.shutdown();
    assert_eq!(report.quota_throttled, 200 - admitted);
    let reg = db.obs();
    let reg = reg.registry().unwrap();
    assert_eq!(
        reg.counter_value("server.tenant.1.quota.throttled"),
        200 - admitted
    );
    let throttles = quota_throttles(&db);
    assert!(!throttles.is_empty(), "the first throttle journals");
    assert!(
        throttles.iter().all(|&(_, tenant)| tenant == Some(1)),
        "{throttles:?}"
    );
}

/// An unbound connection is its own principal, as is one that sent
/// `AUTH 0`: one connection's overrun of its 50-token bucket (refilled at
/// one token a second) leaves a second connection's bucket full, and the
/// throttles are journaled against the first connection with tenant 0.
#[test]
fn an_unbound_connection_is_its_own_quota_principal() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| {
        cfg.quota_ops = 1;
        cfg.quota_burst = 50;
    });
    let addr = server.local_addr().to_string();
    let mut first = Client::connect(&addr).unwrap();
    let mut throttled = 0u64;
    for i in 0..200u64 {
        match first.call(&Request::Get { key: render_key(i) }).unwrap() {
            Response::Value(_) => {}
            Response::Error(msg) => {
                assert!(msg.contains("connection limited"), "{msg}");
                throttled += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(throttled > 0, "200 GETs overrun a 50-token bucket");
    let mut second = Client::connect(&addr).unwrap();
    second.auth(0).unwrap();
    for i in 0..50u64 {
        match second.call(&Request::Get { key: render_key(i) }).unwrap() {
            Response::Value(_) => {}
            other => panic!("the second connection has its own bucket: {other:?}"),
        }
    }
    drop((first, second));
    let report = server.shutdown();
    assert_eq!(report.quota_throttled, throttled);
    // Below 1 024 throttles only the first is journaled; the first
    // connection accepted is connection 0.
    assert_eq!(quota_throttles(&db), [(0, Some(0))]);
}

/// Binding a tenant does not lift the connection's own quota: one
/// connection that sends `AUTH k` for k = 1, 2, … before each GET finds a
/// fresh, full tenant bucket every time, yet its own 50-token bucket,
/// refilled at one token a second, still sheds all but about 50 of 200
/// GETs, and every throttle blames the connection.
#[test]
fn rebinding_tenants_does_not_escape_the_connection_quota() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| {
        cfg.quota_ops = 1;
        cfg.quota_burst = 50;
    });
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();
    let mut admitted = 0u64;
    for i in 0..200u64 {
        c.auth(i as u32 + 1).unwrap();
        match c.call(&Request::Get { key: render_key(i) }).unwrap() {
            Response::Value(_) => admitted += 1,
            Response::Error(msg) => assert!(msg.contains("connection limited"), "{msg}"),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(
        admitted < 100,
        "the connection's bucket binds across tenants, admitted {admitted} of 200"
    );
    drop(c);
    let report = server.shutdown();
    assert_eq!(report.quota_throttled, 200 - admitted);
    assert_eq!(quota_throttles(&db), [(0, Some(0))]);
}

/// Multi-tenant serving end to end: AUTH binds connections to tenants,
/// each tenant's reads are charged to its own tally, the quota throttles
/// a noisy tenant across *all* of its connections while other tenants
/// stay clean, and the journal records the bindings and throttles.
#[test]
fn auth_binds_tenants_and_tenant_quota_aggregates_across_connections() {
    let db = test_db(true);
    let server = start_server(db.clone(), |cfg| {
        cfg.quota_ops = 50;
        cfg.quota_burst = 50;
    });
    let addr = server.local_addr().to_string();

    // Tenant 1: two connections sharing one bucket. Tenant 2: one
    // connection, light traffic.
    let mut hot_a = Client::connect(&addr).unwrap();
    hot_a.auth(1).unwrap();
    let mut hot_b = Client::connect(&addr).unwrap();
    hot_b.auth(1).unwrap();
    let mut quiet = Client::connect(&addr).unwrap();
    quiet.auth(2).unwrap();

    // Both hot connections hammer; their *combined* admitted volume is
    // bounded by one 50-token bucket, so throttles must appear on both.
    let mut throttled = 0u64;
    let mut admitted = 0u64;
    for i in 0..100u64 {
        for c in [&mut hot_a, &mut hot_b] {
            match c.call(&Request::Get { key: render_key(i) }).unwrap() {
                Response::Value(_) | Response::NotFound => admitted += 1,
                Response::Error(msg) => {
                    assert!(msg.starts_with("quota"), "unexpected error: {msg}");
                    assert!(msg.contains("tenant 1"), "blames the tenant: {msg}");
                    throttled += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    assert!(
        throttled > 0,
        "200 instant ops must drain a 50-token bucket"
    );
    assert!(
        admitted < 150,
        "two connections must share one tenant bucket, admitted {admitted}"
    );

    // The quiet tenant is untouched by tenant 1's throttling.
    for i in 0..20u64 {
        match quiet.call(&Request::Get { key: render_key(i) }).unwrap() {
            Response::Value(_) | Response::NotFound => {}
            other => panic!("quiet tenant must not be throttled: {other:?}"),
        }
    }
    let stats = quiet.stats().unwrap();
    assert!(stats.contains("\"quota_throttled\""), "stats: {stats}");

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.quota_throttled, throttled);
    let trace = db.obs().trace_jsonl().unwrap();
    assert!(trace.contains("TenantBound"), "bindings journal");
    assert!(trace.contains("QuotaThrottled"), "throttles journal");
    // Each tenant's admitted reads were charged to its own tally, none
    // to the default tenant's.
    let reads = |t| {
        let (hits, misses) = tally(&db, t);
        hits + misses
    };
    assert_eq!(reads(1), admitted, "hot tenant reads");
    assert_eq!(reads(2), 20, "quiet tenant reads");
    assert_eq!(reads(0), 0, "default tenant reads");
}

/// The tally is bound at the handshake: every read an `AUTH`-bound
/// connection then makes — singleton or batched — is charged to its
/// tenant and leaves the default tenant's tally alone, and `AUTH 0`
/// turns that around.
#[test]
fn auth_binds_the_tally_and_auth_zero_returns_to_the_default() {
    let db = test_db(true);
    let server = start_server(db.clone(), |_| {});
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();
    // 8 engine operations, 5 of them reads; the repeated scan is a sure
    // range-cache hit.
    let traffic = |c: &mut Client, tag: &str| {
        let scan = Request::Scan {
            from: render_key(100),
            limit: 8,
        };
        let put = |i: u64| Request::Put {
            key: render_key(i),
            value: Bytes::from(format!("{tag}-{i}")),
        };
        for req in [
            Request::Get { key: render_key(7) },
            scan.clone(),
            scan.clone(),
            put(900),
            Request::Batch {
                subs: vec![
                    Request::Get {
                        key: render_key(900),
                    },
                    put(901),
                    Request::Delete {
                        key: render_key(902),
                    },
                    scan.clone(),
                ],
            },
        ] {
            match c.call(&req).unwrap() {
                Response::Error(msg) => panic!("{req:?} failed: {msg}"),
                Response::Batch(subs) => {
                    assert_eq!(
                        subs[0].1,
                        Response::Value(Bytes::from(format!("{tag}-900")))
                    );
                }
                _ => {}
            }
        }
    };
    let reads = |(hits, misses): (u64, u64)| hits + misses;

    c.auth(5).unwrap();
    let (tenant, default) = (tally(&db, 5), tally(&db, 0));
    traffic(&mut c, "bound");
    assert_eq!(
        reads(tally(&db, 5)) - reads(tenant),
        5,
        "charged to the tenant"
    );
    assert!(tally(&db, 5).0 > tenant.0, "the repeated scan hit");
    assert_eq!(tally(&db, 0), default, "the default tenant saw none of it");

    c.auth(0).unwrap();
    let (tenant, default) = (tally(&db, 5), tally(&db, 0));
    traffic(&mut c, "unbound");
    assert_eq!(
        reads(tally(&db, 0)) - reads(default),
        5,
        "charged to the default"
    );
    assert!(tally(&db, 0).0 > default.0, "the repeated scan hit");
    assert_eq!(tally(&db, 5), tenant, "tenant 5 saw none of it");
    assert_eq!(server.shutdown().protocol_errors, 0);
}

/// Every tenant reads one cache: binding a new tenant leaves the cache's
/// capacity and residency as they were, and after tenant 1 reads a key,
/// tenant 2's read of it is a cache hit charged to tenant 2.
#[test]
fn tenants_share_one_cache() {
    let db = test_db(true);
    let server = start_server(db.clone(), |_| {});
    let addr = server.local_addr().to_string();
    let cache = || {
        let (block, range) = (db.block_cache().unwrap(), db.range_cache().unwrap());
        (
            block.capacity(),
            block.used(),
            range.capacity(),
            range.used(),
        )
    };
    let mut legacy = Client::connect(&addr).unwrap();
    for i in 0..50 {
        legacy
            .call(&Request::Scan {
                from: render_key(i * 10),
                limit: 8,
            })
            .unwrap();
    }
    let warm = cache();
    assert!(
        warm.1 > 0 && warm.3 > 0,
        "the default tenant warmed both caches"
    );
    let mut one = Client::connect(&addr).unwrap();
    one.auth(1).unwrap();
    let mut two = Client::connect(&addr).unwrap();
    two.auth(2).unwrap();
    assert_eq!(cache(), warm, "binding tenants moves no capacity or entry");

    let key = render_key(1_500);
    let scan = Request::Scan {
        from: key.clone(),
        limit: 8,
    };
    assert!(matches!(one.call(&scan).unwrap(), Response::Entries(e) if e.len() == 8));
    assert_eq!(tally(&db, 1), (0, 1), "tenant 1 missed and filled");
    assert!(matches!(two.call(&scan).unwrap(), Response::Entries(e) if e.len() == 8));
    assert!(matches!(
        two.call(&Request::Get { key }).unwrap(),
        Response::Value(_)
    ));
    assert_eq!(tally(&db, 2), (2, 0), "tenant 1's fill serves tenant 2");
    assert_eq!(tally(&db, 1), (0, 1), "tenant 2's hits are its own");
    assert_eq!(server.shutdown().protocol_errors, 0);
}
