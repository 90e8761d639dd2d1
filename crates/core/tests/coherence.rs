//! Per-key read coherence of the cached engine under concurrent traffic.
//!
//! Four threads share 64 keys on a 4-stripe tree with the maintenance pool
//! on and issue puts, deletes, gets, 8-key multi-gets and 16-entry scans.
//! Every put writes a value no other write writes, `thread:seq`, so each
//! value a read returns names the write it came from, and the threads
//! write the same keys. Every operation is stamped from one logical clock
//! when it is invoked and when it returns, and the history is checked per
//! key, each key a register:
//!
//! - a read returns no value whose write had not been invoked when the
//!   read returned, and none older than the newest write acked before the
//!   read was invoked (a read of an absent key needs a delete that
//!   qualifies the same way);
//! - the puts and the reads of their values are atomic: no two forward
//!   zones overlap and no backward zone lies inside a forward one (Gibbons
//!   and Korach, "Testing shared memories"). This catches two writers of
//!   one key whose cache updates land in the opposite order to their
//!   commits, which the first rule alone lets pass.
//!
//! A scan is a read of every key in `[from, last key returned]` (to the end
//! of the keyspace when it came back short): a key in that span that it did
//! not return was read as absent.

use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::{MemStorage, Options};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: u32 = 4;
const KEYS: usize = 64;
const OPS_PER_THREAD: usize = 20_000;

/// `(thread, seq)` of the put that wrote a value; `None` for a delete, or
/// for a read that found the key absent.
type Version = Option<(u32, u32)>;

/// One write, or one key's share of a read, with its logical stamps.
#[derive(Debug, Clone, Copy)]
struct Op {
    key: usize,
    version: Version,
    invoke: u64,
    ret: u64,
}

impl Op {
    fn new(key: usize, version: Version, (invoke, ret): (u64, u64)) -> Self {
        Op {
            key,
            version,
            invoke,
            ret,
        }
    }
}

fn key(k: usize) -> Bytes {
    Bytes::from(format!("coh{k:03}"))
}

fn key_index(key: &[u8]) -> usize {
    std::str::from_utf8(&key[3..]).unwrap().parse().unwrap()
}

fn version_of(value: &[u8]) -> (u32, u32) {
    let s = std::str::from_utf8(value).unwrap();
    let (thread, seq) = s.split_once(':').unwrap();
    (thread.parse().unwrap(), seq.parse().unwrap())
}

struct History {
    clock: AtomicU64,
}

impl History {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Runs `op`; returns its result and its `(invoke, return)` stamps.
    fn stamped<T>(&self, op: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let invoke = self.tick();
        let out = op();
        (out, (invoke, self.tick()))
    }
}

/// One thread's traffic; returns its writes and its per-key reads.
fn client(db: &CachedDb, history: &History, thread: u32) -> (Vec<Op>, Vec<Op>) {
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let mut state = (u64::from(thread) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut seq = 0u32;
    for _ in 0..OPS_PER_THREAD {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let k = (state >> 8) as usize % KEYS;
        match state % 100 {
            0..=29 => {
                seq += 1;
                let value = Bytes::from(format!("{thread}:{seq}"));
                let (r, at) = history.stamped(|| db.put(key(k), value));
                r.unwrap();
                writes.push(Op::new(k, Some((thread, seq)), at));
            }
            30..=39 => {
                let (r, at) = history.stamped(|| db.delete(key(k)));
                r.unwrap();
                writes.push(Op::new(k, None, at));
            }
            40..=69 => {
                let (got, at) = history.stamped(|| db.get(&key(k)).unwrap());
                let version = got.map(|v| version_of(&v));
                reads.push(Op::new(k, version, at));
            }
            70..=84 => {
                // 7 is prime to 64: eight distinct keys.
                let ks: Vec<usize> = (0..8).map(|i| (k + 7 * i) % KEYS).collect();
                let owned: Vec<Bytes> = ks.iter().map(|&k| key(k)).collect();
                let refs: Vec<&[u8]> = owned.iter().map(|k| k.as_ref()).collect();
                let (got, at) = history.stamped(|| db.multi_get(&refs).unwrap());
                for (&k, v) in ks.iter().zip(got) {
                    let version = v.map(|v| version_of(&v));
                    reads.push(Op::new(k, version, at));
                }
            }
            _ => {
                let (page, at) = history.stamped(|| db.scan(&key(k), 16).unwrap());
                let last = match page.len() {
                    16 => key_index(&page[15].0),
                    _ => KEYS - 1,
                };
                let mut returned = page.iter().map(|(k, v)| (key_index(k), version_of(v)));
                let mut next = returned.next();
                for k in k..=last {
                    let version = match next {
                        Some((index, version)) if index == k => {
                            next = returned.next();
                            Some(version)
                        }
                        _ => None,
                    };
                    reads.push(Op::new(k, version, at));
                }
                assert!(next.is_none(), "scan from {k} out of order: {page:?}");
            }
        }
    }
    (writes, reads)
}

/// Every violation of the two rules in the module doc, one line each.
fn check(writes: &[Op], reads: &[Op]) -> Vec<String> {
    let mut violations = Vec::new();
    for key in 0..KEYS {
        let writes: Vec<&Op> = writes.iter().filter(|w| w.key == key).collect();
        // The latest invocation among the writes acked before `t`: a write
        // acked before it was overwritten by then.
        let mut by_ack: Vec<(u64, u64)> = writes.iter().map(|w| (w.ret, w.invoke)).collect();
        by_ack.sort_unstable();
        let mut latest = 0;
        let latest_invoke: Vec<u64> = by_ack
            .iter()
            .map(|&(_, invoke)| {
                latest = latest.max(invoke);
                latest
            })
            .collect();
        let qualifies = |w: &Op, r: &Op| {
            let acked = by_ack.partition_point(|&(ack, _)| ack < r.invoke);
            w.invoke < r.ret && (acked == 0 || latest_invoke[acked - 1] < w.ret)
        };
        let puts: HashMap<(u32, u32), &Op> = writes
            .iter()
            .filter_map(|w| w.version.map(|v| (v, *w)))
            .collect();
        // Zones: (earliest return, latest invocation) of each put and the
        // reads of its value; a delete is its own cluster.
        let mut zones: HashMap<Version, (u64, u64)> = HashMap::new();
        let mut delete_zones = Vec::new();
        for w in &writes {
            match w.version {
                Some(_) => {
                    zones.insert(w.version, (w.ret, w.invoke));
                }
                None => delete_zones.push((w.ret, w.invoke)),
            }
        }
        for r in reads.iter().filter(|r| r.key == key) {
            let ok = match r.version {
                Some(v) => puts.get(&v).is_some_and(|w| qualifies(w, r)),
                None => writes
                    .iter()
                    .any(|w| w.version.is_none() && qualifies(w, r)),
            };
            if !ok {
                violations.push(format!("key {key}: stale or unwritten read {r:?}"));
            }
            if let Some(zone) = zones.get_mut(&r.version) {
                zone.0 = zone.0.min(r.ret);
                zone.1 = zone.1.max(r.invoke);
            }
        }
        let (mut forward, mut backward) = (Vec::new(), Vec::new());
        for (first_ret, last_invoke) in zones.into_values().chain(delete_zones) {
            if first_ret < last_invoke {
                forward.push((first_ret, last_invoke));
            } else {
                backward.push((last_invoke, first_ret));
            }
        }
        forward.sort_unstable();
        for pair in forward.windows(2) {
            if pair[1].0 < pair[0].1 {
                violations.push(format!("key {key}: forward zones {pair:?} overlap"));
            }
        }
        // Forward zones are disjoint now: only the last one starting at or
        // before a backward zone can hold it.
        for (start, end) in backward {
            let before = forward.partition_point(|z| z.0 <= start);
            if let Some(&(fs, fe)) = before.checked_sub(1).map(|i| &forward[i]) {
                if end <= fe {
                    violations.push(format!(
                        "key {key}: backward zone {:?} inside forward zone {:?}",
                        (start, end),
                        (fs, fe)
                    ));
                }
            }
        }
    }
    violations
}

fn run(strategy: Strategy) -> Vec<String> {
    let opts = Options {
        stripes: 4,
        background_maintenance: true,
        // Seals, flushes and compactions run throughout.
        memtable_size: 2048,
        sstable_size: 2048,
        ..Options::small()
    };
    let cfg = EngineConfig::new(strategy, 1 << 20);
    let db = Arc::new(CachedDb::new(opts, Arc::new(MemStorage::new()), cfg).unwrap());
    let history = Arc::new(History {
        clock: AtomicU64::new(1),
    });
    // Every key starts with a value, written by a thread id no client has.
    let mut writes = Vec::new();
    for k in 0..KEYS {
        let value = Bytes::from(format!("{THREADS}:{k}"));
        let (r, at) = history.stamped(|| db.put(key(k), value));
        r.unwrap();
        writes.push(Op::new(k, Some((THREADS, k as u32)), at));
    }
    let clients: Vec<_> = (0..THREADS)
        .map(|thread| {
            let (db, history) = (db.clone(), history.clone());
            std::thread::spawn(move || client(&db, &history, thread))
        })
        .collect();
    let mut reads = Vec::new();
    for c in clients {
        let (w, r) = c.join().expect("client panicked");
        writes.extend(w);
        reads.extend(r);
    }
    check(&writes, &reads)
}

#[test]
fn every_read_is_coherent_with_the_writes_around_it() {
    for strategy in [Strategy::AdCache, Strategy::KvCache] {
        let violations = run(strategy);
        assert!(
            violations.is_empty(),
            "{strategy:?}: {} violations, first: {:#?}",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }
}

/// The checker itself: a read of an overwritten value, a read from the
/// future, and two readers that disagree on the order of two writes.
#[test]
fn the_checker_rejects_stale_future_and_reordered_reads() {
    let op = |version: Version, invoke, ret| Op::new(0, version, (invoke, ret));
    let (v1, v2) = (Some((0, 1)), Some((1, 1)));
    // v1 written, then v2 written; a read after both returns v1.
    let writes = [op(v1, 1, 2), op(v2, 3, 4)];
    assert!(check(&writes, &[op(v2, 5, 6)]).is_empty());
    assert!(!check(&writes, &[op(v1, 5, 6)]).is_empty());
    // A read that returned before v2's write was invoked.
    assert!(!check(&writes, &[op(v2, 0, 2)]).is_empty());
    // Overlapping writes of v1 and v2: either order is fine, but one
    // reader seeing v2 then v1 while another sees v1 then v2 is not.
    let writes = [op(v1, 1, 4), op(v2, 2, 3)];
    assert!(check(&writes, &[op(v1, 5, 6), op(v1, 7, 8)]).is_empty());
    assert!(!check(&writes, &[op(v1, 5, 6), op(v2, 7, 8), op(v1, 9, 10)]).is_empty());
    // A delete inside a put's forward zone makes the later read stale.
    let writes = [op(v1, 1, 2), op(None, 3, 4)];
    assert!(!check(&writes, &[op(v1, 5, 6)]).is_empty());
    assert!(check(&writes, &[op(None, 5, 6)]).is_empty());
}
