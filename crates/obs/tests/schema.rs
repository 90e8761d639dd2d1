//! Golden-schema test: the serialized form of every [`Event`] variant is a
//! stable contract consumed by the CLI `trace` subcommand and external
//! plotting scripts. A failure here means a field or variant rename leaked
//! into the wire format — treat it as a breaking change, not a test to
//! update casually.

use adcache_obs::{parse_jsonl, parse_jsonl_lenient, ConnCloseCause, Event, Journal};

/// Every variant once, with values chosen to be exactly representable so
/// the JSON text is deterministic.
fn exemplars() -> Vec<(Event, &'static str)> {
    vec![
        (
            Event::RunStart {
                strategy: "adcache".into(),
                total_cache_bytes: 1048576,
            },
            r#"{"RunStart":{"strategy":"adcache","total_cache_bytes":1048576}}"#,
        ),
        (
            Event::ControllerDecision {
                range_ratio: 0.25,
                point_threshold: 0.5,
                scan_a: 64,
                scan_b: 0.3,
                exploratory: true,
            },
            r#"{"ControllerDecision":{"range_ratio":0.25,"point_threshold":0.5,"scan_a":64,"scan_b":0.3,"exploratory":true}}"#,
        ),
        (
            Event::TrainStep {
                reward: 0.125,
                td_error: -0.5,
                actor_lr: 0.001,
                action: vec![0.5, -1.0],
            },
            r#"{"TrainStep":{"reward":0.125,"td_error":-0.5,"actor_lr":0.001,"action":[0.5,-1.0]}}"#,
        ),
        (
            Event::BoundaryResize {
                block_bytes: 1024,
                range_bytes: 512,
                range_ratio: 0.333984375,
                applied: false,
            },
            r#"{"BoundaryResize":{"block_bytes":1024,"range_bytes":512,"range_ratio":0.333984375,"applied":false}}"#,
        ),
        (
            Event::BlockCacheInvalidation {
                files: 2,
                blocks_dropped: 17,
            },
            r#"{"BlockCacheInvalidation":{"files":2,"blocks_dropped":17}}"#,
        ),
        (
            Event::CompactionFinish {
                from_level: 0,
                to_level: 1,
                blocks_read: 10,
                blocks_written: 9,
                obsolete_files: 4,
                new_files: 1,
                trivial_move: false,
            },
            r#"{"CompactionFinish":{"from_level":0,"to_level":1,"blocks_read":10,"blocks_written":9,"obsolete_files":4,"new_files":1,"trivial_move":false}}"#,
        ),
        (
            Event::Flush {
                entries: 100,
                bytes: 4096,
            },
            r#"{"Flush":{"entries":100,"bytes":4096}}"#,
        ),
        (
            Event::ConnAccepted {
                conn: 7,
                peer: "127.0.0.1:54321".into(),
            },
            r#"{"ConnAccepted":{"conn":7,"peer":"127.0.0.1:54321"}}"#,
        ),
        (
            Event::ConnClosed {
                conn: 7,
                cause: ConnCloseCause::IdleTimeout,
                requests: 120,
                bytes_in: 4096,
                bytes_out: 16384,
            },
            r#"{"ConnClosed":{"conn":7,"cause":"IdleTimeout","requests":120,"bytes_in":4096,"bytes_out":16384}}"#,
        ),
        (
            Event::RequestServed {
                conn: 7,
                opcode: "scan".into(),
                status: "ok".into(),
                latency_ns: 12500,
            },
            r#"{"RequestServed":{"conn":7,"opcode":"scan","status":"ok","latency_ns":12500}}"#,
        ),
        (
            Event::ServerOverload {
                active: 256,
                limit: 256,
            },
            r#"{"ServerOverload":{"active":256,"limit":256}}"#,
        ),
        (
            Event::SlowRequest {
                conn: 7,
                opcode: "scan".into(),
                status: "ok".into(),
                total_ns: 12000000,
                recv_ns: 4000,
                parse_ns: 900,
                queue_ns: 150000,
                lock_wait_ns: 9000000,
                engine_ns: 2500000,
                cache_ns: 340000,
                reply_ns: 9100,
                key: "user:00042..+64".into(),
            },
            r#"{"SlowRequest":{"conn":7,"opcode":"scan","status":"ok","total_ns":12000000,"recv_ns":4000,"parse_ns":900,"queue_ns":150000,"lock_wait_ns":9000000,"engine_ns":2500000,"cache_ns":340000,"reply_ns":9100,"key":"user:00042..+64"}}"#,
        ),
        (
            Event::LockContention {
                path: "write".into(),
                wait_ns: 2500000,
                budget_ns: 1000000,
            },
            r#"{"LockContention":{"path":"write","wait_ns":2500000,"budget_ns":1000000}}"#,
        ),
        (
            Event::AdversaryDetected {
                source: "controller".into(),
                h_estimate: 0.125,
                h_smoothed: 0.5,
                raw_reward: -1.0,
                clamped_reward: -0.25,
            },
            r#"{"AdversaryDetected":{"source":"controller","h_estimate":0.125,"h_smoothed":0.5,"raw_reward":-1.0,"clamped_reward":-0.25}}"#,
        ),
        (
            Event::SketchReset {
                epoch: 3,
                decays: 40,
                fill_pct: 81,
                increments: 4096,
            },
            r#"{"SketchReset":{"epoch":3,"decays":40,"fill_pct":81,"increments":4096}}"#,
        ),
        (
            Event::QuotaThrottled {
                conn: 7,
                tenant: 3,
                opcode: "scan".into(),
                throttled: 1024,
            },
            r#"{"QuotaThrottled":{"conn":7,"tenant":3,"opcode":"scan","throttled":1024}}"#,
        ),
        (
            Event::TenantBound { conn: 7, tenant: 3 },
            r#"{"TenantBound":{"conn":7,"tenant":3}}"#,
        ),
    ]
}

#[test]
fn every_event_kind_serializes_to_its_golden_form() {
    let exemplars = exemplars();
    assert_eq!(
        exemplars.len(),
        17,
        "new Event variants need a golden exemplar here"
    );
    for (event, golden) in &exemplars {
        let json = serde_json::to_string(event).unwrap();
        assert_eq!(&json, golden, "schema drift");
    }
}

#[test]
fn every_event_kind_round_trips_through_jsonl() {
    let journal = Journal::new(64);
    for (i, (event, _)) in exemplars().into_iter().enumerate() {
        journal.push(i as u64, event);
    }
    let text = journal.to_jsonl();
    let back = parse_jsonl(&text).unwrap();
    assert_eq!(back, journal.records(), "JSONL round trip must be lossless");
    // Each journal line carries the stable envelope fields.
    for line in text.lines() {
        assert!(line.starts_with(r#"{"seq":"#), "envelope drift: {line}");
        assert!(line.contains(r#""window":"#));
        assert!(line.contains(r#""event":"#));
    }
}

#[test]
fn journal_envelope_is_stable() {
    let journal = Journal::new(4);
    journal.push(
        7,
        Event::Flush {
            entries: 1,
            bytes: 2,
        },
    );
    assert_eq!(
        journal.to_jsonl().trim_end(),
        r#"{"seq":0,"window":7,"event":{"Flush":{"entries":1,"bytes":2}}}"#,
    );
}

#[test]
fn lenient_parse_keeps_known_records_alongside_future_kinds() {
    // Forward-compat contract: tooling built against this schema must keep
    // working when a newer writer adds event kinds it has never seen.
    let journal = Journal::new(64);
    for (i, (event, _)) in exemplars().into_iter().enumerate() {
        journal.push(i as u64, event);
    }
    let mut text = journal.to_jsonl();
    text.push_str(r#"{"seq":99,"window":3,"event":{"FromTheFuture":{"x":1}}}"#);
    text.push('\n');
    let (records, skipped) = parse_jsonl_lenient(&text).unwrap();
    assert_eq!(records, journal.records());
    assert_eq!(skipped, 1);
}
