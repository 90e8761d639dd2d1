//! One history oracle: each read judged against the writes around it.
//!
//! A [`History`] records puts, deletes, gets and scans, each stamped from
//! one logical clock when it is invoked and when it returns, and the crash,
//! if the store had one. [`History::check`] judges the reads per key, each
//! key a register, by three rules:
//!
//! 1. **Register.** A read may return the value of a write invoked before
//!    the read returned, unless a *certain* write acked before the read was
//!    invoked overwrote it (was invoked after it returned); absent, if a
//!    delete or the initial state qualifies the same way.
//! 2. **Zones** (Gibbons and Korach, "Testing shared memories"). A put and
//!    the reads of its value span a zone from their earliest return to
//!    their latest invocation; a delete spans its own. No two forward zones
//!    may overlap and no backward zone may lie inside a forward one: two
//!    writers whose effects land in the opposite order to their acks break
//!    this rule, not rule 1. Certain writes form zones, and uncertain ones
//!    once a read observed them: an uncertain write nobody observed may
//!    never have happened.
//! 3. **Certainty.** An acked write is certain. A failed one never is, but
//!    stays a candidate: it may have reached the WAL before its error.
//!    After a crash an acked write stays certain only if the sync policy
//!    covered it: under `always` every one, under `on_flush` those at or
//!    before the [floor](History::raise_floor), under `never` none.
//!    [`History::crash`] judges the reads before it as if there were none,
//!    apart from those after it: no zone spans a crash.
//!
//! A scan reads every key the history wrote in `[from, last key returned]`,
//! or to the end of the keyspace when it came back short: a key in that
//! span it did not return was read as absent. Every put of a key must write
//! a value no other put of that key writes, so that a value read names its
//! write.

use crate::options::SyncPolicy;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When an operation was invoked and when it returned, on the clock.
#[derive(Debug, Clone, Copy)]
struct Span {
    invoke: u64,
    ret: u64,
}

#[derive(Debug)]
struct Write {
    key: Bytes,
    /// `None` for a delete.
    value: Option<Bytes>,
    acked: bool,
    at: Span,
}

/// A read of every written key from `from` to `to` that returned `page`,
/// at most `limit` entries; a get reads one key.
#[derive(Debug)]
struct Read {
    from: Bytes,
    to: Bound<Bytes>,
    limit: usize,
    page: Vec<(Bytes, Bytes)>,
    at: Span,
}

/// One key's reads: what each returned (`None`: absent), and when.
type Reads<'a> = Vec<(Option<&'a Bytes>, Span)>;

/// One thread's log of writes and reads, on a clock it shares with its
/// [forks](History::fork).
#[derive(Debug, Default)]
pub struct History {
    clock: Arc<AtomicU64>,
    writes: Vec<Write>,
    reads: Vec<Read>,
    /// The last stamp a flush covered.
    floor: u64,
    /// The policy the store crashed under, if it did.
    crash: Option<SyncPolicy>,
}

/// One broken rule.
#[derive(Debug)]
pub struct Violation {
    /// The key whose register it breaks.
    pub key: Bytes,
    /// What broke, naming the key.
    pub what: String,
}

impl History {
    /// An empty log for another thread, on this history's clock.
    pub fn fork(&self) -> Self {
        let clock = self.clock.clone();
        History {
            clock,
            ..Self::default()
        }
    }

    /// Takes in what a fork recorded.
    pub fn join(&mut self, fork: History) {
        self.writes.extend(fork.writes);
        self.reads.extend(fork.reads);
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Runs `op` between two ticks of the clock.
    fn stamped<T>(&self, op: impl FnOnce() -> T) -> (T, Span) {
        let invoke = self.tick();
        let out = op();
        let ret = self.tick();
        (out, Span { invoke, ret })
    }

    /// Runs `op(key, value)`, a put, and records it: acked if it returned
    /// `Ok`, a candidate if not.
    pub fn put<T, E>(
        &mut self,
        key: Bytes,
        value: Bytes,
        op: impl FnOnce(Bytes, Bytes) -> Result<T, E>,
    ) -> Result<T, E> {
        let args = (key.clone(), value.clone());
        self.write(key, Some(value), || op(args.0, args.1))
    }

    /// Runs `op(key)`, a delete, and records it as [`History::put`] does.
    pub fn delete<T, E>(
        &mut self,
        key: Bytes,
        op: impl FnOnce(Bytes) -> Result<T, E>,
    ) -> Result<T, E> {
        let arg = key.clone();
        self.write(key, None, || op(arg))
    }

    fn write<T, E>(
        &mut self,
        key: Bytes,
        value: Option<Bytes>,
        op: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let (out, at) = self.stamped(op);
        let acked = out.is_ok();
        self.writes.push(Write {
            key,
            value,
            acked,
            at,
        });
        out
    }

    /// Runs `op(key)`, a get, and records what it returned, if it
    /// succeeded.
    pub fn get<E>(
        &mut self,
        key: Bytes,
        op: impl FnOnce(&Bytes) -> Result<Option<Bytes>, E>,
    ) -> Result<Option<Bytes>, E> {
        let out = self.multi_get(&[key], |keys| op(&keys[0]).map(|got| vec![got]));
        out.map(|mut got| got.pop().flatten())
    }

    /// Runs `op(keys)`, a get of each at once, and records what it
    /// returned, if it succeeded.
    pub fn multi_get<E>(
        &mut self,
        keys: &[Bytes],
        op: impl FnOnce(&[Bytes]) -> Result<Vec<Option<Bytes>>, E>,
    ) -> Result<Vec<Option<Bytes>>, E> {
        let (out, at) = self.stamped(|| op(keys));
        for (key, got) in keys.iter().zip(out.iter().flatten()) {
            let (from, to) = (key.clone(), Bound::Included(key.clone()));
            let page = got.iter().map(|v| (key.clone(), v.clone())).collect();
            self.reads.push(Read {
                from,
                to,
                limit: 1,
                page,
                at,
            });
        }
        out
    }

    /// Runs `op(from, limit)`, a scan, and records what it returned, if it
    /// succeeded.
    pub fn scan<E>(
        &mut self,
        from: Bytes,
        limit: usize,
        op: impl FnOnce(&Bytes, usize) -> Result<Vec<(Bytes, Bytes)>, E>,
    ) -> Result<Vec<(Bytes, Bytes)>, E> {
        let (out, at) = self.stamped(|| op(&from, limit));
        if let Ok(page) = &out {
            let to = match page.last() {
                Some((last, _)) if page.len() >= limit => Bound::Included(last.clone()),
                _ => Bound::Unbounded,
            };
            let page = page.clone();
            self.reads.push(Read {
                from,
                to,
                limit,
                page,
                at,
            });
        }
        out
    }

    /// Every write recorded so far is flushed: under `on_flush` a crash
    /// keeps it. Call it when no memtable holds anything.
    pub fn raise_floor(&mut self) {
        self.floor = self.clock.load(Ordering::SeqCst);
    }

    /// The store crashed under `sync`. Returns what [`History::check`]
    /// finds in the reads so far, then forgets them: no zone spans a crash,
    /// and reads from now on are judged by what `sync` promised.
    pub fn crash(&mut self, sync: SyncPolicy) -> Vec<Violation> {
        let before = self.check();
        self.reads.clear();
        self.crash = Some(sync);
        before
    }

    fn certain(&self, w: &Write) -> bool {
        w.acked
            && match self.crash {
                None | Some(SyncPolicy::Always) => true,
                Some(SyncPolicy::OnFlush) => w.at.ret <= self.floor,
                Some(SyncPolicy::Never) => false,
            }
    }

    /// Every violation of the three rules in the module doc, and every
    /// scan that returned keys out of order or more than it asked for.
    pub fn check(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut keys: BTreeMap<&Bytes, (Vec<&Write>, Reads)> = BTreeMap::new();
        for w in &self.writes {
            keys.entry(&w.key).or_default().0.push(w);
        }
        for r in &self.reads {
            let sorted = r.page.windows(2).all(|w| w[0].0 < w[1].0);
            if !sorted || r.page.len() > r.limit || r.page.first().is_some_and(|e| e.0 < r.from) {
                let what = format!(
                    "scan from {:?} at {:?} out of order or too long",
                    r.from, r.at
                );
                violations.push(Violation {
                    key: r.from.clone(),
                    what,
                });
                continue;
            }
            // A returned key nobody wrote is read too.
            for (key, _) in &r.page {
                keys.entry(key).or_default();
            }
            let returned: HashMap<&Bytes, &Bytes> = r.page.iter().map(|(k, v)| (k, v)).collect();
            let span = (Bound::Included(&r.from), r.to.as_ref());
            for (key, (_, reads)) in keys.range_mut::<Bytes, _>(span) {
                reads.push((returned.get(key).copied(), r.at));
            }
        }
        for (key, (writes, reads)) in keys {
            self.check_key(key, &writes, &reads, &mut violations);
        }
        violations
    }

    /// Rules 1 and 2 for one key.
    fn check_key(
        &self,
        key: &Bytes,
        writes: &[&Write],
        reads: &[(Option<&Bytes>, Span)],
        violations: &mut Vec<Violation>,
    ) {
        let mut violation = |what: String| {
            let what = format!("key {}: {what}", String::from_utf8_lossy(key));
            violations.push(Violation {
                key: key.clone(),
                what,
            });
        };
        // Each certain write's ack, with the latest invocation among the
        // certain writes acked by then: a write that returned before that
        // invocation was overwritten.
        let mut acks: Vec<(u64, u64)> = writes
            .iter()
            .filter(|w| self.certain(w))
            .map(|w| (w.at.ret, w.at.invoke))
            .collect();
        acks.sort_unstable();
        let mut latest = 0;
        for ack in &mut acks {
            latest = latest.max(ack.1);
            ack.1 = latest;
        }
        let qualifies = |w: Span, r: Span| {
            let acked = acks.partition_point(|&(ret, _)| ret < r.invoke);
            w.invoke < r.ret && (acked == 0 || acks[acked - 1].1 < w.ret)
        };
        let initial = Span { invoke: 0, ret: 0 };
        // Each write's zone, (earliest return, latest invocation).
        let mut zones: Vec<Option<(u64, u64)>> = writes
            .iter()
            .map(|w| self.certain(w).then_some((w.at.ret, w.at.invoke)))
            .collect();
        let puts: HashMap<&Bytes, usize> = writes
            .iter()
            .enumerate()
            .filter_map(|(i, w)| Some((w.value.as_ref()?, i)))
            .collect();
        for &(got, r) in reads {
            let ok = match got {
                Some(v) => puts.get(v).is_some_and(|&i| qualifies(writes[i].at, r)),
                None => {
                    qualifies(initial, r)
                        || writes
                            .iter()
                            .any(|w| w.value.is_none() && qualifies(w.at, r))
                }
            };
            if !ok {
                let got = got.map(|v| String::from_utf8_lossy(v));
                violation(format!(
                    "read {got:?} at {r:?} is stale or was never written"
                ));
            }
            if let Some(&i) = got.and_then(|v| puts.get(v)) {
                let zone = zones[i].get_or_insert((writes[i].at.ret, writes[i].at.invoke));
                *zone = (zone.0.min(r.ret), zone.1.max(r.invoke));
            }
        }
        let (mut forward, mut backward) = (Vec::new(), Vec::new());
        for (first_ret, last_invoke) in zones.into_iter().flatten() {
            if first_ret < last_invoke {
                forward.push((first_ret, last_invoke));
            } else {
                backward.push((last_invoke, first_ret));
            }
        }
        forward.sort_unstable();
        for pair in forward.windows(2) {
            if pair[1].0 < pair[0].1 {
                violation(format!("forward zones {pair:?} overlap"));
            }
        }
        // Forward zones are disjoint now: only the last one starting at or
        // before a backward zone can hold it.
        for zone in backward {
            let before = forward.partition_point(|z| z.0 <= zone.0);
            if let Some(&outer) = before.checked_sub(1).map(|i| &forward[i]) {
                if zone.1 <= outer.1 {
                    violation(format!(
                        "backward zone {zone:?} inside forward zone {outer:?}"
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use SyncPolicy::{Always, Never, OnFlush};

    fn bytes(v: &str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }

    fn ok(acked: bool) -> Result<(), ()> {
        acked.then_some(()).ok_or(())
    }

    /// Whether `(value, invoke, ret)` writes of one key, all acked, and
    /// reads of it pass; `None` is a delete, or a read of absent.
    fn coherent(writes: &[(Option<&str>, u64, u64)], reads: &[(Option<&str>, u64, u64)]) -> bool {
        let mut h = History::default();
        for &(v, invoke, ret) in writes {
            let at = Span { invoke, ret };
            h.writes.push(Write {
                key: bytes("k"),
                value: v.map(bytes),
                acked: true,
                at,
            });
        }
        for &(v, invoke, ret) in reads {
            h.get(bytes("k"), |_| ok(true).map(|_| v.map(bytes)))
                .unwrap();
            h.reads.last_mut().unwrap().at = Span { invoke, ret };
        }
        h.check().is_empty()
    }

    /// A read of an overwritten value, a read from the future, and two
    /// readers that disagree on the order of two writes.
    #[test]
    fn the_checker_rejects_stale_future_and_reordered_reads() {
        let (v1, v2) = (Some("v1"), Some("v2"));
        // v1 written, then v2 written; a read after both returns v1.
        let writes = [(v1, 1, 2), (v2, 3, 4)];
        assert!(coherent(&writes, &[(v2, 5, 6)]));
        assert!(!coherent(&writes, &[(v1, 5, 6)]));
        // A read that returned before v2's write was invoked.
        assert!(!coherent(&writes, &[(v2, 0, 2)]));
        // Overlapping writes of v1 and v2: either order is fine, but one
        // reader seeing v2 then v1 while another sees v1 then v2 is not.
        let writes = [(v1, 1, 4), (v2, 2, 3)];
        assert!(coherent(&writes, &[(v1, 5, 6), (v1, 7, 8)]));
        assert!(!coherent(&writes, &[(v1, 5, 6), (v2, 7, 8), (v1, 9, 10)]));
        // A delete inside a put's forward zone makes the later read stale.
        let writes = [(v1, 1, 2), (None, 3, 4)];
        assert!(!coherent(&writes, &[(v1, 5, 6)]));
        assert!(coherent(&writes, &[(None, 5, 6)]));
        // Absent before any write, but not once one was acked.
        assert!(coherent(&writes, &[(None, 0, 1)]));
        assert!(!coherent(&[(v1, 1, 2)], &[(None, 3, 4)]));
    }

    /// Whether a read of `got` passes after `(value, acked)` writes of one
    /// key and a read of the last write, crashed under `sync` with the
    /// floor raised after the first write, or with no crash at all.
    fn passes(sync: Option<SyncPolicy>, writes: &[(Option<&str>, bool)], got: &str) -> bool {
        let mut h = History::default();
        for (i, &(v, acked)) in writes.iter().enumerate() {
            let _ = h.write(bytes("k"), v.map(bytes), || ok(acked));
            if i == 0 {
                h.raise_floor();
            }
        }
        let last = writes.last().unwrap().0.map(bytes);
        h.get(bytes("k"), |_| ok(true).map(|_| last)).unwrap();
        if let Some(sync) = sync {
            assert!(h.crash(sync).is_empty());
        }
        h.get(bytes("k"), |_| ok(true).map(|_| Some(bytes(got))))
            .unwrap();
        h.check().is_empty()
    }

    #[test]
    fn a_lost_write_nobody_observed_after_the_crash_forms_no_zone() {
        // The delete's zone, or v2's, would lie inside v1's forward zone.
        // Without the crash, v1 is stale.
        for lost in [None, Some("v2")] {
            let writes = [(Some("v1"), true), (lost, true)];
            assert!(passes(Some(Never), &writes, "v1"));
            assert!(passes(Some(OnFlush), &writes, "v1"));
            assert!(!passes(Some(Always), &writes, "v1"));
            assert!(!passes(None, &writes, "v1"));
        }
    }

    #[test]
    fn a_failed_write_before_the_newest_certain_write_is_rejected() {
        let writes = [(Some("v1"), true), (Some("v2"), false), (Some("v3"), true)];
        assert!(!passes(Some(Always), &writes, "v2"));
        assert!(!passes(None, &writes, "v2"));
        // Under `on_flush` only v1, under the floor, is certain; under
        // `never` none is. After the newest certain write a failed one is a
        // candidate, but a value nobody wrote never is.
        assert!(passes(Some(OnFlush), &writes, "v2"));
        assert!(passes(Some(Never), &writes, "v2"));
        assert!(passes(Some(Always), &writes[..2], "v1"));
        assert!(!passes(Some(Never), &writes, "v0"));
    }

    #[test]
    fn a_scan_reads_every_written_key_in_its_span() {
        let mut h = History::default();
        for k in ["a", "b", "c", "d"] {
            h.put(bytes(k), bytes(k), |_, _| ok(true)).unwrap();
        }
        let scan = |h: &mut History, from, limit, page: &[&str]| {
            let page = page.iter().map(|&k| (bytes(k), bytes(k))).collect();
            h.scan(bytes(from), limit, |_, _| ok(true).map(|_| page))
                .unwrap();
        };
        // A full page stops at its last key: `d` is not read.
        scan(&mut h, "a", 2, &["a", "b"]);
        scan(&mut h, "b", 3, &["b", "c", "d"]);
        assert!(h.check().is_empty());
        // A short page reads to the end: `d` was skipped.
        scan(&mut h, "b", 3, &["b", "c"]);
        // Skipping `b` inside a full page, and returning keys out of order.
        scan(&mut h, "a", 2, &["a", "c"]);
        scan(&mut h, "a", 2, &["b", "a"]);
        let keys: Vec<Bytes> = h.check().into_iter().map(|v| v.key).collect();
        assert_eq!(keys, ["a", "b", "d"].map(bytes));
    }

    /// The write ledger `faultcheck` and the recovery property test each
    /// kept before this module, verbatim: the reference the oracle must
    /// agree with on single-threaded crash histories.
    struct WriteLedger {
        history: Vec<Vec<(Option<Bytes>, bool, u64)>>,
        flushed_seq: u64,
    }

    impl WriteLedger {
        fn justifies(&self, k: u64, got: Option<&Bytes>, sync: SyncPolicy) -> bool {
            let h = &self.history[k as usize];
            let strong = match sync {
                SyncPolicy::Always => h.iter().rposition(|(_, acked, _)| *acked),
                SyncPolicy::OnFlush => h
                    .iter()
                    .rposition(|(_, acked, s)| *acked && *s <= self.flushed_seq),
                SyncPolicy::Never => None,
            };
            let matches = |want: &Option<Bytes>| got == want.as_ref();
            match strong {
                // The recovered value must be the newest sync-covered acked
                // write or any candidate issued after it — never older.
                Some(idx) => h[idx..].iter().any(|(v, _, _)| matches(v)),
                None => got.is_none() || h.iter().any(|(v, _, _)| matches(v)),
            }
        }
    }

    const KEYS: u64 = 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random single-threaded crash histories: each write a put or a
        /// delete, acked or failed; a floor raised after a random write;
        /// any policy; then each key recovered as one of its written
        /// values, absent, or a value nobody wrote, read by a get and by a
        /// scan of the whole keyspace.
        #[test]
        fn the_oracle_agrees_with_the_write_ledger(
            ops in collection::vec((0..KEYS, 0u8..4, any::<bool>()), 0..40),
            floor_at in 0usize..40,
            policy in 0usize..3,
            picks in collection::vec(any::<u64>(), KEYS as usize),
        ) {
            let sync = SyncPolicy::all()[policy];
            let mut ledger = WriteLedger { history: vec![Vec::new(); KEYS as usize], flushed_seq: 0 };
            let mut oracle = History::default();
            let key = |k: u64| Bytes::from(format!("k{k}"));
            for (i, &(k, kind, acked)) in ops.iter().enumerate() {
                let value = (kind != 0).then(|| Bytes::from(format!("v{i}")));
                ledger.history[k as usize].push((value.clone(), acked, i as u64 + 1));
                let _ = oracle.write(key(k), value, || ok(acked));
                if i == floor_at {
                    ledger.flushed_seq = i as u64 + 1;
                    oracle.raise_floor();
                }
            }
            oracle.crash(sync);
            let (mut page, mut recovered) = (Vec::new(), Vec::new());
            for (k, pick) in (0..KEYS).zip(&picks) {
                let puts: Vec<&Bytes> = ledger.history[k as usize].iter().filter_map(|w| w.0.as_ref()).collect();
                let got = match *pick as usize % (puts.len() + 2) {
                    i if i < puts.len() => Some(puts[i].clone()),
                    i if i == puts.len() => None,
                    _ => Some(Bytes::from("never written")),
                };
                oracle.get(key(k), |_| ok(true).map(|_| got.clone())).unwrap();
                page.extend(got.clone().map(|v| (key(k), v)));
                recovered.push(got);
            }
            oracle.scan(Bytes::new(), KEYS as usize + 1, |_, _| ok(true).map(|_| page)).unwrap();
            let violations = oracle.check();
            for (k, got) in (0..KEYS).zip(&recovered) {
                let justified = ledger.justifies(k, got.as_ref(), sync);
                let judged = !violations.iter().any(|v| v.key == key(k));
                prop_assert_eq!(justified, judged, "key {} under {}: {:?}", k, sync.name(), violations);
            }
        }
    }
}
