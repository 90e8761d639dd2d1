//! The bounded event journal: a ring buffer of sequenced, window-stamped
//! [`Event`]s with JSONL export.

use crate::events::Event;
use parking_lot::Mutex;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// One journal line: a sequence number, the tuning window it happened in,
/// and the event payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Global sequence number (monotone within a run, gaps mean drops).
    pub seq: u64,
    /// The tuning window in force when the event fired.
    pub window: u64,
    /// The event payload.
    pub event: Event,
}

impl Serialize for JournalRecord {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("seq".into(), Value::from(self.seq)),
            ("window".into(), Value::from(self.window)),
            ("event".into(), self.event.serialize()),
        ])
    }
}

impl Deserialize for JournalRecord {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(JournalRecord {
            seq: u64::deserialize(v.get("seq").ok_or_else(|| DeError::missing_field("seq"))?)?,
            window: u64::deserialize(
                v.get("window")
                    .ok_or_else(|| DeError::missing_field("window"))?,
            )?,
            event: Event::deserialize(
                v.get("event")
                    .ok_or_else(|| DeError::missing_field("event"))?,
            )?,
        })
    }
}

struct JournalState {
    ring: VecDeque<JournalRecord>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, thread-safe event ring buffer.
///
/// When full, the oldest record is dropped and counted; `seq` gaps at the
/// start of an exported trace reveal how much history was lost.
pub struct Journal {
    capacity: usize,
    state: Mutex<JournalState>,
}

impl Journal {
    /// A journal retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Journal {
            capacity,
            state: Mutex::new(JournalState {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends one event stamped with `window`.
    pub fn push(&self, window: u64, event: Event) {
        let mut s = self.state.lock();
        let seq = s.next_seq;
        s.next_seq += 1;
        if s.ring.len() == self.capacity {
            s.ring.pop_front();
            s.dropped += 1;
        }
        s.ring.push_back(JournalRecord { seq, window, event });
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().ring.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped due to capacity.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Copies out the retained records, oldest first.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.state.lock().ring.iter().cloned().collect()
    }

    /// Serializes the retained records as JSON Lines (one record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.state.lock().ring.iter() {
            out.push_str(&serde_json::to_string(r).expect("journal record serialize"));
            out.push('\n');
        }
        out
    }
}

/// Parses a JSONL trace back into records, failing on the first bad line.
pub fn parse_jsonl(text: &str) -> Result<Vec<JournalRecord>, serde_json::Error> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str::<JournalRecord>)
        .collect()
}

/// Like [`parse_jsonl`], but tolerant of other builds: a line that is valid
/// JSON yet does not decode as a known [`JournalRecord`] (an event kind or
/// shape that a newer writer introduced, or that an older writer emitted
/// and this build has retired) is skipped and counted instead of failing
/// the whole parse. Lines that are not JSON at all still error — that is a
/// corrupt file, not a schema gap.
pub fn parse_jsonl_lenient(text: &str) -> Result<(Vec<JournalRecord>, u64), serde_json::Error> {
    let mut records = Vec::new();
    let mut skipped = 0u64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        // Syntactic validity is checked first so truncated or garbage
        // lines surface as hard errors even when decoding is lenient.
        let value: serde_json::Value = serde_json::from_str(line)?;
        match JournalRecord::deserialize(&value) {
            Ok(r) => records.push(r),
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_tracks_seq() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.push(
                i / 2,
                Event::Flush {
                    entries: i,
                    bytes: i * 10,
                },
            );
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let recs = j.records();
        assert_eq!(recs[0].seq, 2, "oldest surviving record");
        assert_eq!(recs[2].seq, 4);
    }

    #[test]
    fn jsonl_roundtrip() {
        let j = Journal::new(16);
        j.push(
            0,
            Event::RunStart {
                strategy: "adcache".into(),
                total_cache_bytes: 1 << 20,
            },
        );
        j.push(
            1,
            Event::Flush {
                entries: 64,
                bytes: 28,
            },
        );
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, j.records());
    }

    #[test]
    fn lenient_parse_skips_unknown_event_kinds() {
        let j = Journal::new(16);
        j.push(
            0,
            Event::Flush {
                entries: 1,
                bytes: 10,
            },
        );
        let mut text = j.to_jsonl();
        // A record from some future writer: valid envelope, unknown kind.
        text.push_str(r#"{"seq":1,"window":0,"event":{"QuantumFlush":{"qubits":3}}}"#);
        text.push('\n');
        // A record from an older writer, of a kind this build retired.
        text.push_str(r#"{"seq":2,"window":0,"event":{"SyncIssued":{"target":"wal","file":0}}}"#);
        text.push('\n');
        text.push_str(r#"{"seq":3,"window":0,"event":{"Flush":{"entries":2,"bytes":20}}}"#);
        text.push('\n');
        // The strict parser rejects the stream outright...
        assert!(parse_jsonl(&text).is_err());
        // ...the lenient one keeps every known record and counts the rest.
        let (records, skipped) = parse_jsonl_lenient(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 2);
        assert_eq!(records[1].seq, 3);
    }

    #[test]
    fn lenient_parse_still_errors_on_corrupt_lines() {
        let err = parse_jsonl_lenient("{\"seq\":0,\"window\":0\n").unwrap_err();
        let _ = err; // truncated JSON is corruption, not schema drift
        assert!(parse_jsonl_lenient("not json at all\n").is_err());
    }
}
