//! Merging iterators across runs.
//!
//! A scan merges the memtable with every overlapping sorted run. Sources are
//! ranked by recency: memtable > Level-0 runs (newest flush first) > deeper
//! levels (shallower first). For a duplicated key the highest-ranked entry
//! wins and the rest are discarded; tombstones flow through so that callers
//! (query path vs. compaction) decide their fate.

use crate::error::Result;
use crate::sstable::{BlockProvider, TableIter, TableMeta};
use crate::storage::Storage;
use crate::types::{Entry, Key, KeyEntry, Value};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

/// One input stream of key-ordered entries.
pub enum Source<'a> {
    /// Buffered entries (a test vector or a pre-collected snapshot).
    Buffered(VecDeque<KeyEntry>),
    /// A lazy in-memory iterator (e.g. a memtable cursor borrowing the
    /// engine's read guard); entries must arrive key-sorted.
    Iter {
        /// The underlying iterator.
        inner: Box<dyn Iterator<Item = KeyEntry> + 'a>,
        /// One-entry lookahead.
        peeked: Option<KeyEntry>,
    },
    /// A live SSTable cursor.
    Table(TableIter),
    /// A chain of non-overlapping tables from one deeper level, opened
    /// lazily so unvisited tables cost no I/O.
    LevelChain {
        /// Remaining tables in key order; front is the open one.
        tables: VecDeque<Arc<TableMeta>>,
        /// Cursor into the front table, if opened.
        open: Option<TableIter>,
        /// Seek key for the first table only.
        seek: Vec<u8>,
    },
}

impl<'a> Source<'a> {
    /// A buffered source from any in-memory entries (must be key-sorted).
    pub fn from_entries(entries: Vec<KeyEntry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
        Source::Buffered(entries.into())
    }

    /// A lazy source over a key-sorted iterator.
    pub fn from_sorted(inner: impl Iterator<Item = KeyEntry> + 'a) -> Self {
        Source::Iter {
            inner: Box::new(inner),
            peeked: None,
        }
    }

    /// A lazily-opened chain over one deeper level.
    pub fn level_chain(tables: Vec<Arc<TableMeta>>, seek: &[u8]) -> Self {
        Source::LevelChain {
            tables: tables.into(),
            open: None,
            seek: seek.to_vec(),
        }
    }

    /// Makes the head entry, if there is one, readable through
    /// [`Source::head_key`]: opens the next table of a lazy chain and pulls
    /// the lookahead of a lazy iterator.
    fn prime(&mut self, provider: &dyn BlockProvider, storage: &dyn Storage) -> Result<()> {
        match self {
            Source::Iter { inner, peeked } => {
                if peeked.is_none() {
                    *peeked = inner.next();
                }
            }
            Source::LevelChain { tables, open, seek } => {
                while open.is_none() {
                    let Some(meta) = tables.front().cloned() else {
                        break;
                    };
                    let it = TableIter::seek(meta, provider, storage, seek)?;
                    if it.peek_key().is_some() {
                        *open = Some(it);
                    } else {
                        tables.pop_front();
                    }
                }
            }
            Source::Buffered(_) | Source::Table(_) => {}
        }
        Ok(())
    }

    /// Key of the head entry of a primed source.
    fn head_key(&self) -> Option<&[u8]> {
        match self {
            Source::Buffered(q) => q.front().map(|ke| ke.key.as_ref()),
            Source::Iter { peeked, .. } => peeked.as_ref().map(|ke| ke.key.as_ref()),
            Source::Table(it) => it.peek_key(),
            Source::LevelChain { open, .. } => open.as_ref().and_then(|it| it.peek_key()),
        }
    }

    /// Key of the current head entry, opening lazy chains as needed.
    pub fn peek_key(
        &mut self,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
    ) -> Result<Option<&[u8]>> {
        self.prime(provider, storage)?;
        Ok(self.head_key())
    }

    /// Consumes the head entry.
    pub fn advance(
        &mut self,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
    ) -> Result<Option<KeyEntry>> {
        self.prime(provider, storage)?;
        match self {
            Source::Buffered(q) => Ok(q.pop_front()),
            Source::Iter { peeked, .. } => Ok(peeked.take()),
            Source::Table(it) => it.advance(provider, storage),
            Source::LevelChain { tables, open, seek } => {
                let Some(it) = open.as_mut() else {
                    return Ok(None);
                };
                let head = it.advance(provider, storage)?;
                if it.peek_key().is_none() {
                    // Front table exhausted: drop it; later tables start at
                    // their first key, not the original seek key.
                    tables.pop_front();
                    *open = None;
                    seek.clear();
                }
                Ok(head)
            }
        }
    }
}

/// Merges ranked sources, yielding the newest entry per key in key order.
pub struct MergingIter<'a> {
    /// `(rank, source)`; higher rank wins ties (is newer).
    sources: Vec<(u64, Source<'a>)>,
}

impl<'a> MergingIter<'a> {
    /// Builds a merger. Ranks must be distinct across sources that can
    /// contain the same key.
    pub fn new(sources: Vec<(u64, Source<'a>)>) -> Self {
        MergingIter { sources }
    }

    /// Next merged entry (tombstones included), or `None` when exhausted.
    pub fn next_entry(
        &mut self,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
    ) -> Result<Option<KeyEntry>> {
        for (_, source) in &mut self.sources {
            source.prime(provider, storage)?;
        }
        // Find the minimal head key; among equals, the highest rank. The
        // heads are compared where they lie; `tie` records that some other
        // source holds the winning key too.
        let mut best: Option<(usize, &[u8], u64)> = None;
        let mut tie = false;
        for (i, (rank, source)) in self.sources.iter().enumerate() {
            let Some(key) = source.head_key() else {
                continue;
            };
            match best {
                Some((_, bkey, brank)) => match key.cmp(bkey) {
                    Ordering::Less => {
                        best = Some((i, key, *rank));
                        tie = false;
                    }
                    Ordering::Equal => {
                        tie = true;
                        if *rank > brank {
                            best = Some((i, key, *rank));
                        }
                    }
                    Ordering::Greater => {}
                },
                None => best = Some((i, key, *rank)),
            }
        }
        let Some((best_i, ..)) = best else {
            return Ok(None);
        };
        let winner = self.sources[best_i]
            .1
            .advance(provider, storage)?
            .expect("primed source with a head key must yield");
        if tie {
            // Discard shadowed versions of the same key in older sources.
            for (i, (_, source)) in self.sources.iter_mut().enumerate() {
                if i == best_i {
                    continue;
                }
                while source
                    .peek_key(provider, storage)?
                    .is_some_and(|key| key == winner.key.as_ref())
                {
                    source.advance(provider, storage)?;
                }
            }
        }
        Ok(Some(winner))
    }

    /// The first `limit` live entries; tombstones are dropped uncounted.
    pub fn take_live(
        &mut self,
        limit: usize,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
    ) -> Result<Vec<(Key, Value)>> {
        let mut out = Vec::with_capacity(limit);
        while out.len() < limit {
            match self.next_entry(provider, storage)? {
                Some(KeyEntry {
                    key,
                    entry: Entry::Put(v),
                }) => out.push((key, v)),
                Some(_) => {}
                None => break,
            }
        }
        Ok(out)
    }

    /// Drains the merger into a vector (test helper and compaction input).
    pub fn collect_all(
        &mut self,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
    ) -> Result<Vec<KeyEntry>> {
        let mut out = Vec::new();
        while let Some(ke) = self.next_entry(provider, storage)? {
            out.push(ke);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use crate::sstable::{DirectProvider, TableBuilder};
    use crate::storage::MemStorage;

    fn ke(k: &str, v: Option<&str>) -> KeyEntry {
        match v {
            Some(v) => KeyEntry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec()),
            None => KeyEntry::tombstone(k.as_bytes().to_vec()),
        }
    }

    #[test]
    fn merge_prefers_higher_rank_on_ties() {
        let storage = MemStorage::new();
        let p = DirectProvider;
        let newer = Source::from_entries(vec![ke("a", Some("new")), ke("c", Some("c-new"))]);
        let older = Source::from_entries(vec![
            ke("a", Some("old")),
            ke("b", Some("b")),
            ke("c", Some("c-old")),
        ]);
        let mut m = MergingIter::new(vec![(2, newer), (1, older)]);
        let all = m.collect_all(&p, &storage).unwrap();
        let flat: Vec<(String, String)> = all
            .iter()
            .map(|ke| {
                (
                    String::from_utf8_lossy(&ke.key).into_owned(),
                    String::from_utf8_lossy(ke.entry.value().unwrap()).into_owned(),
                )
            })
            .collect();
        assert_eq!(
            flat,
            vec![
                ("a".into(), "new".into()),
                ("b".into(), "b".into()),
                ("c".into(), "c-new".into())
            ]
        );
    }

    #[test]
    fn merge_passes_tombstones_through() {
        let storage = MemStorage::new();
        let p = DirectProvider;
        let newer = Source::from_entries(vec![ke("a", None)]);
        let older = Source::from_entries(vec![ke("a", Some("old")), ke("b", Some("b"))]);
        let mut m = MergingIter::new(vec![(2, newer), (1, older)]);
        let all = m.collect_all(&p, &storage).unwrap();
        assert_eq!(all.len(), 2);
        assert!(all[0].entry.is_tombstone());
        assert_eq!(all[1].key.as_ref(), b"b");
    }

    #[test]
    fn merge_over_real_tables_and_level_chain() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let p = DirectProvider;
        // Two non-overlapping L1 tables.
        let mut b = TableBuilder::new(1, &opts, &storage).unwrap();
        for i in 0..50 {
            let k = format!("k{i:04}");
            b.add_value(k.as_bytes(), Some(format!("t1-{i}").as_bytes()))
                .unwrap();
        }
        let t1 = b.finish().unwrap();
        let mut b = TableBuilder::new(2, &opts, &storage).unwrap();
        for i in 50..100 {
            let k = format!("k{i:04}");
            b.add_value(k.as_bytes(), Some(format!("t2-{i}").as_bytes()))
                .unwrap();
        }
        let t2 = b.finish().unwrap();
        // One newer L0 table overwriting a few keys.
        let mut b = TableBuilder::new(3, &opts, &storage).unwrap();
        for i in [10usize, 60] {
            let k = format!("k{i:04}");
            b.add_value(k.as_bytes(), Some(format!("l0-{i}").as_bytes()))
                .unwrap();
        }
        let t0 = b.finish().unwrap();

        let l0 = Source::Table(TableIter::seek(t0, &p, &storage, b"k0000").unwrap());
        let chain = Source::level_chain(vec![t1, t2], b"k0000");
        let mut m = MergingIter::new(vec![(10, l0), (1, chain)]);
        let all = m.collect_all(&p, &storage).unwrap();
        assert_eq!(all.len(), 100);
        assert_eq!(all[10].entry.value().unwrap().as_ref(), b"l0-10");
        assert_eq!(all[60].entry.value().unwrap().as_ref(), b"l0-60");
        assert_eq!(all[11].entry.value().unwrap().as_ref(), b"t1-11");
        for w in all.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn level_chain_opens_tables_lazily() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let p = DirectProvider;
        let mut metas = Vec::new();
        for t in 0..3u64 {
            let mut b = TableBuilder::new(t + 1, &opts, &storage).unwrap();
            for i in 0..20 {
                let k = format!("t{t}-k{i:03}");
                b.add_value(k.as_bytes(), Some(b"v")).unwrap();
            }
            metas.push(b.finish().unwrap());
        }
        let before = storage.stats().reads();
        let mut src = Source::level_chain(metas, b"t0-k000");
        // Reading three entries only touches the first table's first block.
        for _ in 0..3 {
            src.advance(&p, &storage).unwrap().unwrap();
        }
        assert_eq!(storage.stats().reads(), before + 1);
    }

    #[test]
    fn empty_merge_yields_none() {
        let storage = MemStorage::new();
        let p = DirectProvider;
        let mut m = MergingIter::new(vec![(1, Source::from_entries(vec![]))]);
        assert!(m.next_entry(&p, &storage).unwrap().is_none());
        let mut m = MergingIter::new(vec![]);
        assert!(m.next_entry(&p, &storage).unwrap().is_none());
    }
}
