//! Property-based tests: the LSM-tree must behave exactly like a `BTreeMap`
//! model under arbitrary operation sequences, for both point lookups and
//! range scans, across flushes and compactions.

use adcache_lsm::{DirectProvider, LsmTree, MemStorage, Options};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 512, v)),
        1 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        2 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        2 => (any::<u16>(), 1u8..32).prop_map(|(k, n)| Op::Scan(k % 512, n)),
        1 => Just(Op::Flush),
    ]
}

/// A memtable write: key, value (`None`: a delete) and a probe key. Values
/// are empty, 8 or 9 bytes (so overwrites are often of equal length, else
/// shorter or longer) or, rarely, larger than an arena chunk.
fn mem_op_strategy() -> impl Strategy<Value = (u8, Option<Bytes>, u8)> {
    let value = prop_oneof![
        1 => Just(None),
        1 => Just(Some(Bytes::new())),
        4 => any::<u8>().prop_map(|b| Some(Bytes::from(vec![b; 8]))),
        2 => any::<u8>().prop_map(|b| Some(Bytes::from(vec![b; 9]))),
        1 => any::<u8>().prop_map(|b| Some(Bytes::from(vec![b; 70_000]))),
    ];
    (any::<u8>(), value, any::<u8>())
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("key{k:05}"))
}

fn value(k: u16, v: u8) -> Bytes {
    Bytes::from(format!("value-{k}-{v}"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn lsm_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut tiny = Options::small();
        // Keep structures tiny so flush/compaction paths are exercised often.
        tiny.memtable_size = 2048;
        tiny.sstable_size = 2048;
        let db = LsmTree::new(tiny, Arc::new(MemStorage::new())).unwrap();
        let provider = DirectProvider;
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(key(k), value(k, v)).unwrap();
                    model.insert(key(k), value(k, v));
                }
                Op::Delete(k) => {
                    db.delete(key(k)).unwrap();
                    model.remove(&key(k));
                }
                Op::Get(k) => {
                    let got = db.get(&key(k), &provider).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&key(k)), "get {}", k);
                }
                Op::Scan(k, n) => {
                    let got = db.scan(&key(k), n as usize, &provider).unwrap();
                    let want: Vec<(Bytes, Bytes)> = model
                        .range(key(k)..)
                        .take(n as usize)
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect();
                    prop_assert_eq!(got, want, "scan {} {}", k, n);
                }
                Op::Flush => db.flush().unwrap(),
            }
        }

        // Final full verification.
        for k in 0..512u16 {
            let got = db.get(&key(k), &provider).unwrap();
            prop_assert_eq!(got.as_ref(), model.get(&key(k)));
        }
        let got = db.scan(b"", 1024, &provider).unwrap();
        let want: Vec<(Bytes, Bytes)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn block_roundtrip(entries in proptest::collection::btree_map(
        proptest::collection::vec(any::<u8>(), 1..40),
        proptest::collection::vec(any::<u8>(), 0..100),
        1..100,
    ), interval in 1usize..20) {
        use adcache_lsm::{Block, BlockBuilder, Entry};
        let mut b = BlockBuilder::new(interval);
        for (k, v) in &entries {
            b.add(k, &Entry::Put(Bytes::copy_from_slice(v))).unwrap();
        }
        let block = Block::decode(b.finish()).unwrap();
        let decoded: Vec<_> = block.iter().map(|r| r.unwrap()).collect();
        prop_assert_eq!(decoded.len(), entries.len());
        for (ke, (k, v)) in decoded.iter().zip(entries.iter()) {
            prop_assert_eq!(ke.key.as_ref(), &k[..]);
            prop_assert_eq!(ke.entry.value().unwrap().as_ref(), &v[..]);
        }
        // Point lookups agree.
        for (k, v) in &entries {
            let got = block.get(k).unwrap().unwrap();
            prop_assert_eq!(got.value().unwrap().as_ref(), &v[..]);
        }
        // Seeks agree with the sorted model.
        if let Some((first, _)) = entries.iter().next() {
            let mut probe = first.clone();
            probe.push(0);
            let got: Vec<_> = block.iter_from(&probe).unwrap().map(|r| r.unwrap().key).collect();
            let want: Vec<_> = entries.range(probe.clone()..).map(|(k, _)| Bytes::copy_from_slice(k)).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn memtable_matches_btreemap(ops in proptest::collection::vec(mem_op_strategy(), 1..200)) {
        use adcache_lsm::memtable::MemTable;
        use adcache_lsm::{Entry, KeyEntry};
        let mut table = MemTable::new();
        let mut model: BTreeMap<Bytes, Entry> = BTreeMap::new();
        for (k, value, probe) in ops {
            let key = Bytes::from(format!("key{:03}", k % 32));
            match value {
                Some(v) => {
                    table.put(key.clone(), v.clone());
                    model.insert(key.clone(), Entry::Put(v));
                }
                None => {
                    table.delete(key.clone());
                    model.insert(key.clone(), Entry::Tombstone);
                }
            }
            // Between, on and past the keys.
            let probe = Bytes::from(format!("key{:03}{}", probe % 34, "x".repeat(probe as usize / 128)));
            for k in [&key, &probe] {
                prop_assert_eq!(table.get(k), model.get(k).cloned(), "get {:?}", k);
            }
            let got: Vec<KeyEntry> = table.iter_from(&probe).collect();
            let want: Vec<KeyEntry> = model
                .range(probe.clone()..)
                .map(|(k, e)| KeyEntry { key: k.clone(), entry: e.clone() })
                .collect();
            prop_assert_eq!(got, want, "iter_from {:?}", probe);
            prop_assert_eq!(table.len(), model.len());
            // The charge: `key + value + 16` a key, tombstones 0 B of value.
            let charge: usize = model
                .iter()
                .map(|(k, e)| k.len() + e.value().map_or(0, |v| v.len()) + 16)
                .sum();
            prop_assert_eq!(table.approximate_bytes(), charge);
        }
        let flushed: Vec<(&[u8], Option<&[u8]>)> = table.iter().collect();
        let want: Vec<(&[u8], Option<&[u8]>)> = model
            .iter()
            .map(|(k, e)| (k.as_ref(), e.value().map(|v| v.as_ref())))
            .collect();
        prop_assert_eq!(flushed, want);
    }

    #[test]
    fn bloom_built_from_hashes_is_the_same_filter(keys in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..40), 0..300,
    ), bits in 0usize..16) {
        use adcache_lsm::bloom::hash64;
        use adcache_lsm::BloomFilter;
        let hashes: Vec<u64> = keys.iter().map(|k| hash64(k)).collect();
        prop_assert_eq!(BloomFilter::build_hashed(&hashes, bits), BloomFilter::build(&keys, bits));
    }

    #[test]
    fn bloom_never_false_negative(keys in proptest::collection::hash_set(
        proptest::collection::vec(any::<u8>(), 1..32), 1..300,
    ), bits in 2usize..16) {
        use adcache_lsm::BloomFilter;
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        let f = BloomFilter::build(&keys, bits);
        for k in &keys {
            prop_assert!(f.may_contain(k));
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let (g, _) = BloomFilter::decode(&buf).unwrap();
        for k in &keys {
            prop_assert!(g.may_contain(k));
        }
    }
}
