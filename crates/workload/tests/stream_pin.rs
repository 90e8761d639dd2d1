//! Pins the first operations of the workload and adversary streams.
//!
//! Every figure, golden and benchmark run replays these generators, so a
//! refactor of them must not move a single drawn key, scan length or
//! value. Each operation is pinned as `(kind, key id, length, first
//! byte)`: `length` is a scan's entry count or a put's value length (0
//! otherwise), `first byte` a put value's first byte (0 otherwise).
//!
//! To print fresh literals after a change that means to move the streams:
//! `cargo test -p adcache-workload --test stream_pin -- --ignored --nocapture`.

use adcache_workload::{
    parse_key, AdversaryConfig, AdversaryGen, AdversaryKind, AttackPlan, Mix, Operation,
    WorkloadConfig, WorkloadGen,
};

type Pinned = (char, u64, usize, u8);

fn pin(op: &Operation) -> Pinned {
    let id = |key: &[u8]| parse_key(key).expect("workload key encoding");
    match op {
        Operation::Get { key } => ('G', id(key), 0, 0),
        Operation::Scan { from, len } => ('S', id(from), *len, 0),
        Operation::Put { key, value } => ('P', id(key), value.len(), value[0]),
        Operation::Delete { key } => ('D', id(key), 0, 0),
    }
}

fn workload_stream() -> Vec<Pinned> {
    let mut gen = WorkloadGen::new(WorkloadConfig {
        num_keys: 1_000,
        seed: 7,
        ..WorkloadConfig::default()
    });
    let mix = Mix::new(40.0, 25.0, 5.0, 30.0);
    (0..64).map(|_| pin(&gen.next_op(&mix))).collect()
}

fn adversary_stream(kind: AdversaryKind) -> Vec<Pinned> {
    let cfg = AdversaryConfig::new(kind, 1_000, 7);
    let plan = AttackPlan::build(&cfg);
    let mut gen = AdversaryGen::new(cfg, plan);
    (0..16).map(|_| pin(&gen.next_op())).collect()
}

#[test]
fn workload_stream_is_pinned() {
    assert_eq!(workload_stream(), WORKLOAD);
}

#[test]
fn adversary_streams_are_pinned() {
    let pinned = [
        (AdversaryKind::ScanFlood, SCAN_FLOOD),
        (AdversaryKind::OneHitWonder, ONE_HIT_WONDER),
        (AdversaryKind::KeyChurn, KEY_CHURN),
        (AdversaryKind::SketchCollision, SKETCH_COLLISION),
    ];
    for (kind, ops) in pinned {
        assert_eq!(adversary_stream(kind), ops, "{}", kind.name());
    }
}

#[test]
#[ignore = "prints the literals below"]
fn print_streams() {
    println!("const WORKLOAD: [Pinned; 64] = {:?};", workload_stream());
    for kind in AdversaryKind::ALL {
        println!("{}: {:?}", kind.name(), adversary_stream(kind));
    }
}

// Seed 7, 1 000 keys, mix 40/25/5/30.
const WORKLOAD: [Pinned; 64] = [
    ('G', 178, 0, 0),
    ('P', 809, 100, 1),
    ('P', 643, 100, 2),
    ('P', 589, 100, 3),
    ('P', 123, 100, 4),
    ('G', 178, 0, 0),
    ('P', 497, 100, 5),
    ('S', 497, 16, 0),
    ('G', 178, 0, 0),
    ('G', 121, 0, 0),
    ('S', 99, 64, 0),
    ('P', 20, 100, 6),
    ('P', 123, 100, 7),
    ('G', 497, 0, 0),
    ('G', 567, 0, 0),
    ('P', 123, 100, 8),
    ('S', 682, 16, 0),
    ('G', 746, 0, 0),
    ('G', 482, 0, 0),
    ('P', 763, 100, 9),
    ('P', 746, 100, 10),
    ('G', 81, 0, 0),
    ('G', 613, 0, 0),
    ('G', 123, 0, 0),
    ('G', 955, 0, 0),
    ('G', 20, 0, 0),
    ('G', 967, 0, 0),
    ('S', 286, 16, 0),
    ('G', 567, 0, 0),
    ('P', 372, 100, 11),
    ('G', 599, 0, 0),
    ('G', 101, 0, 0),
    ('S', 226, 64, 0),
    ('G', 664, 0, 0),
    ('P', 123, 100, 12),
    ('S', 833, 16, 0),
    ('P', 978, 100, 13),
    ('S', 372, 16, 0),
    ('G', 797, 0, 0),
    ('S', 664, 16, 0),
    ('P', 567, 100, 14),
    ('S', 589, 16, 0),
    ('S', 809, 16, 0),
    ('G', 123, 0, 0),
    ('G', 319, 0, 0),
    ('G', 40, 0, 0),
    ('G', 345, 0, 0),
    ('P', 657, 100, 15),
    ('G', 117, 0, 0),
    ('S', 279, 16, 0),
    ('S', 372, 16, 0),
    ('S', 657, 16, 0),
    ('S', 505, 16, 0),
    ('G', 883, 0, 0),
    ('S', 23, 64, 0),
    ('S', 167, 16, 0),
    ('S', 506, 16, 0),
    ('S', 178, 16, 0),
    ('S', 534, 16, 0),
    ('S', 505, 16, 0),
    ('G', 123, 0, 0),
    ('P', 964, 100, 16),
    ('P', 980, 100, 17),
    ('G', 226, 0, 0),
];

// `AdversaryConfig::new(kind, 1_000, 7)`.
const SCAN_FLOOD: [Pinned; 16] = [
    ('S', 266, 512, 0),
    ('S', 789, 512, 0),
    ('S', 45, 512, 0),
    ('S', 860, 512, 0),
    ('S', 820, 512, 0),
    ('S', 648, 512, 0),
    ('S', 114, 512, 0),
    ('S', 602, 512, 0),
    ('S', 325, 512, 0),
    ('S', 89, 512, 0),
    ('S', 111, 512, 0),
    ('S', 797, 512, 0),
    ('S', 658, 512, 0),
    ('S', 364, 512, 0),
    ('S', 659, 512, 0),
    ('S', 522, 512, 0),
];

const ONE_HIT_WONDER: [Pinned; 16] = [
    ('G', 3644, 0, 0),
    ('P', 4263, 4096, 171),
    ('G', 4263, 0, 0),
    ('P', 4882, 4096, 171),
    ('G', 4882, 0, 0),
    ('P', 1501, 4096, 171),
    ('G', 1501, 0, 0),
    ('P', 2120, 4096, 171),
    ('G', 2120, 0, 0),
    ('P', 2739, 4096, 171),
    ('G', 2739, 0, 0),
    ('P', 3358, 4096, 171),
    ('G', 3358, 0, 0),
    ('P', 3977, 4096, 171),
    ('G', 3977, 0, 0),
    ('P', 4596, 4096, 171),
];

const KEY_CHURN: [Pinned; 16] = [
    ('G', 1786, 0, 0),
    ('D', 1025, 0, 0),
    ('P', 1025, 4096, 171),
    ('G', 1025, 0, 0),
    ('D', 1233, 0, 0),
    ('P', 1233, 4096, 171),
    ('G', 1233, 0, 0),
    ('D', 1511, 0, 0),
    ('P', 1511, 4096, 171),
    ('G', 1511, 0, 0),
    ('D', 1993, 0, 0),
    ('P', 1993, 4096, 171),
    ('G', 1993, 0, 0),
    ('D', 1270, 0, 0),
    ('P', 1270, 4096, 171),
    ('G', 1270, 0, 0),
];

const SKETCH_COLLISION: [Pinned; 16] = [
    ('P', 2346, 24576, 171),
    ('P', 3715, 24576, 171),
    ('P', 4179, 24576, 171),
    ('P', 4357, 24576, 171),
    ('P', 6039, 24576, 171),
    ('P', 6148, 24576, 171),
    ('P', 7565, 24576, 171),
    ('P', 14586, 24576, 171),
    ('P', 2346, 24576, 171),
    ('G', 2346, 0, 0),
    ('D', 3715, 0, 0),
    ('P', 3715, 24576, 171),
    ('G', 3715, 0, 0),
    ('D', 4179, 0, 0),
    ('P', 4179, 24576, 171),
    ('G', 4179, 0, 0),
];
