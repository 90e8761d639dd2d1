//! Criterion microbenchmarks for the core data structures and hot paths:
//! cache policy operations, block encode/decode/seek, memtable, bloom
//! filter, Count-Min sketch, LSM flush/compaction build/get/scan,
//! range-cache operations, NN inference and training steps, and workload
//! generation.
//!
//! Run with `cargo bench -p adcache-bench`.

use adcache_cache::{
    BlockCache, CacheusPolicy, ChargedCache, CountMinSketch, LeCaRPolicy, LfuPolicy, PointLookup,
    Policy, RangeCache, RangeLookup, SlotClockPolicy, SlotLruPolicy,
};
use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::memtable::MemTable;
use adcache_lsm::sstable::{table_get, TableBuilder, TableIter};
use adcache_lsm::{
    Block, BlockBuilder, BlockProvider, BloomFilter, DirectProvider, Entry, LsmTree, MemStorage,
    Options, Storage, StripedDb, TableMeta,
};
use adcache_rl::{ActorCritic, AgentConfig, Transition};
use adcache_workload::{render_key, Mix, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy");
    // A policy ranks the range cache's slot ids; each entry's identity is
    // its slot's number here.
    fn run(p: &mut dyn Policy) {
        for slot in 0..64 {
            p.on_insert(slot, u64::from(slot));
        }
        for slot in 0..64 {
            p.on_hit(slot % 16);
        }
        for _ in 0..32 {
            black_box(p.victim());
        }
    }
    g.bench_function("lfu_insert_hit_evict", |b| {
        b.iter(|| run(&mut LfuPolicy::new()))
    });
    g.bench_function("lecar_insert_hit_evict", |b| {
        b.iter(|| run(&mut LeCaRPolicy::new()))
    });
    g.bench_function("cacheus_insert_hit_evict", |b| {
        b.iter(|| run(&mut CacheusPolicy::new()))
    });
    g.bench_function("slot_lru_insert_hit_evict", |b| {
        b.iter(|| run(&mut SlotLruPolicy::new()))
    });
    g.bench_function("slot_clock_insert_hit_evict", |b| {
        b.iter(|| run(&mut SlotClockPolicy::new()))
    });
    g.finish();
}

fn bench_wal_and_histogram(c: &mut Criterion) {
    use adcache_core::Histogram;
    use adcache_lsm::{Entry, RealFs, WalWriter};
    let mut g = c.benchmark_group("durability");
    let path = std::env::temp_dir().join(format!("adcache-bench-wal-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut wal = WalWriter::open(Arc::new(RealFs::new()), &path, false).unwrap();
    let value = Entry::Put(Bytes::from(vec![b'v'; 100]));
    g.bench_function("wal_append_100b", |b| {
        b.iter(|| {
            wal.append(b"user00000000000000000001", black_box(&value))
                .unwrap()
        })
    });
    let mut h = Histogram::new();
    g.bench_function("histogram_record", |b| {
        let mut i = 1u64;
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(i % 1_000_000 + 1));
        })
    });
    g.bench_function("histogram_p99", |b| b.iter(|| black_box(h.quantile(0.99))));
    drop(wal);
    let _ = std::fs::remove_file(&path);
    g.finish();
}

fn bench_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("block");
    let entries: Vec<(Bytes, Entry)> = (0..64)
        .map(|i| {
            (
                Bytes::from(format!("user{i:020}")),
                Entry::Put(Bytes::from(vec![b'v'; 64])),
            )
        })
        .collect();
    g.bench_function("encode_64_entries", |b| {
        b.iter(|| {
            let mut builder = BlockBuilder::new(16);
            for (k, e) in &entries {
                builder.add(k, e).unwrap();
            }
            black_box(builder.finish())
        })
    });
    let mut builder = BlockBuilder::new(16);
    for (k, e) in &entries {
        builder.add(k, e).unwrap();
    }
    let encoded = builder.finish();
    g.bench_function("decode", |b| {
        b.iter(|| black_box(Block::decode(encoded.clone()).unwrap()))
    });
    let block = Block::decode(encoded).unwrap();
    g.bench_function("point_get", |b| {
        b.iter(|| black_box(block.get(b"user00000000000000000031").unwrap()))
    });
    g.bench_function("seek_and_scan_16", |b| {
        b.iter(|| {
            let it = block.iter_from(b"user00000000000000000020").unwrap();
            black_box(it.take(16).count())
        })
    });
    g.finish();
}

/// The benchmark's write shape, 24-byte keys in a scrambled order with
/// 100-byte values: enough keys to fill a memtable to 1 MiB of charge.
fn write_shape() -> (Vec<Bytes>, Bytes) {
    let keys = (0..8_000u64)
        .map(|i| render_key(i.wrapping_mul(2_654_435_761) % 200_000))
        .collect();
    (keys, Bytes::from(vec![b'v'; 100]))
}

/// A memtable filled from `keys` until it is charged 1 MiB (7 490 entries).
fn fill_memtable(keys: &[Bytes], value: &Bytes) -> MemTable {
    let mut m = MemTable::new();
    for key in keys {
        if m.approximate_bytes() >= 1 << 20 {
            break;
        }
        m.put(key.clone(), value.clone());
    }
    m
}

fn bench_structures(c: &mut Criterion) {
    let mut g = c.benchmark_group("structures");
    let (keys, value) = write_shape();
    g.bench_function("memtable_put_1mib", |b| {
        b.iter(|| black_box(fill_memtable(&keys, &value).len()))
    });
    let memtable = fill_memtable(&keys, &value);
    let n = memtable.len();
    g.bench_function("memtable_get", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % n;
            black_box(memtable.get(&keys[i]))
        })
    });
    let keys: Vec<Vec<u8>> = (0..10_000)
        .map(|i| format!("key{i}").into_bytes())
        .collect();
    g.bench_function("bloom_build_10k", |b| {
        b.iter(|| black_box(BloomFilter::build(&keys, 10)))
    });
    let bloom = BloomFilter::build(&keys, 10);
    g.bench_function("bloom_probe", |b| {
        b.iter(|| black_box(bloom.may_contain(b"key5000") && !bloom.may_contain(b"absent")))
    });
    let mut sketch = CountMinSketch::for_keys(10_000);
    g.bench_function("cms_increment", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(sketch.increment(&i.to_le_bytes()))
        })
    });
    // Sized for the benchmark's 200 k keys (4 rows × 1 Mi counters), with
    // keys of the served shape in a scrambled order, every row touch is a
    // cache miss; the 10 k-key sketch above sits in L2.
    let keys: Vec<Bytes> = (0..200_000u64)
        .map(|i| render_key(i.wrapping_mul(2_654_435_761) % 200_000))
        .collect();
    let mut sketch = CountMinSketch::for_keys(keys.len());
    g.bench_function("cms_increment_200k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(sketch.increment(&keys[i]))
        })
    });
    g.finish();
}

fn prepared_tree() -> (LsmTree, Arc<MemStorage>) {
    let storage = Arc::new(MemStorage::new());
    let db = LsmTree::new(Options::small(), storage.clone()).unwrap();
    for i in 0..20_000u64 {
        db.put(render_key(i), Bytes::from(vec![b'v'; 64])).unwrap();
    }
    db.flush().unwrap();
    while db.maybe_compact_once().unwrap() {}
    (db, storage)
}

fn bench_lsm(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsm");
    g.sample_size(30);
    // The write path's two table builds at the served tree's shape (4 KiB
    // blocks, 1 MiB tables): a flush of a full memtable, and a compaction's
    // output of 200 k entries cut by the size check after every entry.
    let opts = Options::served(4, 4 << 20);
    let (keys, value) = write_shape();
    let memtable = fill_memtable(&keys, &value);
    g.bench_function("flush_1mib", |b| {
        b.iter(|| {
            let storage = MemStorage::new();
            let mut builder = TableBuilder::new(1, &opts, &storage).unwrap();
            for (key, value) in memtable.iter() {
                builder.add_value(key, value).unwrap();
            }
            black_box(builder.finish().unwrap().num_blocks)
        })
    });
    let sorted: Vec<Bytes> = (0..200_000).map(render_key).collect();
    g.bench_function("compaction_build_200k", |b| {
        b.iter(|| {
            let storage = MemStorage::new();
            let mut id = 1;
            let mut builder = TableBuilder::new(id, &opts, &storage).unwrap();
            for key in &sorted {
                builder.add_value(key, Some(&value)).unwrap();
                if builder.estimated_size() >= opts.sstable_size {
                    id += 1;
                    let next = TableBuilder::new(id, &opts, &storage).unwrap();
                    std::mem::replace(&mut builder, next).finish().unwrap();
                }
            }
            if !builder.is_empty() {
                builder.finish().unwrap();
            }
            black_box(storage.list_tables().unwrap().len())
        })
    });
    // The checksum every block, WAL record and manifest carries
    // (`adcache_lsm::crc32`, folded by carry-less multiply where the CPU
    // can), over one served block: beside `get_direct`, the share of a get
    // that misses the block cache which goes to it. `crc32_4k_tables` is
    // the slicing-by-8 path other CPUs take, and `crc32_512` one
    // `write-durable` WAL record (its 512 B value).
    let block = vec![0xABu8; 4096];
    g.bench_function("crc32_4k", |b| {
        b.iter(|| black_box(adcache_lsm::crc32(black_box(&block))))
    });
    g.bench_function("crc32_4k_tables", |b| {
        b.iter(|| black_box(adcache_lsm::crc::crc32_tables(black_box(&block))))
    });
    let record = vec![0xABu8; 512];
    g.bench_function("crc32_512", |b| {
        b.iter(|| black_box(adcache_lsm::crc32(black_box(&record))))
    });
    let (db, _storage) = prepared_tree();
    let p = DirectProvider;
    g.bench_function("get_direct", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 20_000;
            black_box(db.get(&render_key(i), &p).unwrap())
        })
    });
    g.bench_function("scan16_direct", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 20_000;
            black_box(db.scan(&render_key(i), 16, &p).unwrap())
        })
    });
    let cache = BlockCache::new(8 << 20, 4);
    g.bench_function("get_block_cached_warm", |b| {
        let provider = cache.provider();
        for i in 0..20_000u64 {
            db.get(&render_key(i), &provider).unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 20_000;
            black_box(db.get(&render_key(i), &provider).unwrap())
        })
    });
    g.finish();
}

/// The block path on the tree an in-memory server runs on: 200 k keys of
/// the benchmark's shape (24-byte key, 100-byte value) over four stripes of
/// `Options::served(4, 4 MiB)`, every read going to storage — what a miss
/// in every cache costs, one step of the path at a time.
fn bench_served_tree(c: &mut Criterion) {
    const KEYS: u64 = 200_000;
    let mut g = c.benchmark_group("served_tree");
    g.sample_size(30);
    let storage = Arc::new(MemStorage::new());
    let db = StripedDb::new(Options::served(4, 4 << 20), storage.clone()).unwrap();
    for i in 0..KEYS {
        db.put(render_key(i), Bytes::from(vec![b'v'; 100])).unwrap();
    }
    db.flush().unwrap();
    while db.maybe_compact_once().unwrap() {}
    // The largest table of the tree, and the first key of each of its
    // blocks: keys it is sure to hold.
    let meta = storage
        .list_tables()
        .unwrap()
        .into_iter()
        .map(|id| TableMeta::decode(&storage.read_meta(id).unwrap()).unwrap())
        .max_by_key(|m| m.num_blocks)
        .map(Arc::new)
        .unwrap();
    let p = DirectProvider;
    let blocks = meta.num_blocks;
    g.bench_function("block_fetch_4k", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 7919) % blocks;
            black_box(p.block(&meta, i, storage.as_ref()).unwrap())
        })
    });
    g.bench_function("table_get", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % blocks as usize;
            black_box(table_get(&meta, &p, storage.as_ref(), meta.index.key(i)).unwrap())
        })
    });
    g.bench_function("table_seek", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % blocks as usize;
            let it = TableIter::seek(meta.clone(), &p, storage.as_ref(), meta.index.key(i));
            black_box(it.unwrap().table_id())
        })
    });
    g.bench_function("scan16_4stripes", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % (KEYS - 16);
            black_box(db.scan(&render_key(i), 16, &p).unwrap())
        })
    });
    // The 64-entry scans that make up nearly all of `phase-shift`'s phase A.
    g.bench_function("scan64_4stripes", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % (KEYS - 64);
            black_box(db.scan(&render_key(i), 64, &p).unwrap())
        })
    });
    g.finish();
}

fn bench_range_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("range_cache");
    // Fill rows keep their cursor outside the closure: the harness calls
    // the closure once per sample, and a cursor reset there re-admits what
    // the first sample admitted, timing updates instead of fills. This row
    // alone resets: after its first sample it times scan fills over
    // resident entries, and so never evicts.
    let cache = RangeCache::new(64 << 20);
    g.bench_function("insert_scan_64", |b| {
        let mut start = 0u64;
        b.iter(|| {
            start += 64;
            let shifted: Vec<(Bytes, Bytes)> = (start..start + 64)
                .map(|i| (render_key(i), Bytes::from(vec![b'v'; 64])))
                .collect();
            cache.insert_scan(&shifted[0].0, &shifted, 64);
        })
    });
    let cache = RangeCache::new(64 << 20);
    let results: Vec<(Bytes, Bytes)> = (0..64)
        .map(|i| (render_key(i), Bytes::from(vec![b'v'; 64])))
        .collect();
    cache.insert_scan(&results[0].0, &results, 64);
    g.bench_function("range_hit_16", |b| {
        b.iter(|| match cache.get_range(&render_key(8), 16) {
            RangeLookup::Hit(v) => black_box(v.len()),
            RangeLookup::Miss => panic!(),
        })
    });
    g.bench_function("point_hit", |b| {
        b.iter(|| match cache.get_point(&render_key(10)) {
            PointLookup::Hit(v) => black_box(v.len()),
            _ => panic!(),
        })
    });
    // The same calls at the size of a served cache: 200 k resident point
    // entries of the benchmark's shape (24-byte key, 100-byte value), far
    // beyond the CPU caches, probed in a scrambled order. An index that
    // is O(log n) or misses cache per level shows here and not above.
    const RESIDENT: u64 = 200_000;
    const CHARGE: usize = 24 + 100 + 48;
    let cache = RangeCache::new(RESIDENT as usize * CHARGE);
    let value = Bytes::from(vec![b'v'; 100]);
    // Twice the resident count of keys, in an order scattered over the
    // key space (the multiplier is prime, so this is a permutation).
    let keys: Vec<Bytes> = (0..2 * RESIDENT)
        .map(|i| render_key(i.wrapping_mul(2_654_435_761) % (2 * RESIDENT)))
        .collect();
    for key in &keys[..RESIDENT as usize] {
        cache.insert_point(key.clone(), value.clone());
    }
    assert_eq!(cache.len() as u64, RESIDENT, "the budget holds every entry");
    let scramble = |i: u64| (i.wrapping_mul(40_503) % RESIDENT) as usize;
    g.bench_function("point_hit_200k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            match cache.get_point(&keys[scramble(i)]) {
                PointLookup::Hit(v) => black_box(v.len()),
                _ => panic!(),
            }
        })
    });
    g.bench_function("point_miss_200k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            match cache.get_point(&keys[RESIDENT as usize + scramble(i)]) {
                PointLookup::Miss => {}
                _ => panic!(),
            }
        })
    });
    // The budget is exactly full, so every insert of an absent key also
    // evicts the oldest resident: a steady 200 k. (Last in the group: it
    // turns the resident set over.)
    let mut next = RESIDENT as usize;
    g.bench_function("insert_point_200k", |b| {
        b.iter(|| {
            cache.insert_point(keys[next].clone(), value.clone());
            next = (next + 1) % keys.len();
        })
    });
    // Scan fills into a cache that has been full for a long time: every
    // fill evicts 16 entries out of other scans' segments. `insert_scan_64`
    // above never evicts, so neither what evictions do to the coverage map
    // nor its backstop shows there. Warmed with 120 k fills (1 in 5 a
    // 16-entry scan, else a point) over the 200 k keys, like
    // `alloc_footprint.rs`'s churn test.
    let cache = RangeCache::new(4 << 20);
    let keys: Vec<Bytes> = (0..RESIDENT + 16).map(render_key).collect();
    let scan16 = |start: usize| -> Vec<(Bytes, Bytes)> {
        keys[start..start + 16]
            .iter()
            .map(|k| (k.clone(), value.clone()))
            .collect()
    };
    let scramble = |i: u64| (i.wrapping_mul(2_654_435_761) % RESIDENT) as usize;
    for i in 0..120_000u64 {
        let start = scramble(i);
        if i % 5 == 0 {
            let results = scan16(start);
            cache.insert_scan(&results[0].0, &results, 16);
        } else {
            cache.insert_point(keys[start].clone(), value.clone());
        }
    }
    assert!(cache.stats().evictions > 100_000, "the cache is churning");
    let mut i = 120_000u64;
    g.bench_function("insert_scan16_churn_200k", |b| {
        b.iter(|| {
            i += 1;
            let results = scan16(scramble(i));
            cache.insert_scan(&results[0].0, &results, 16);
        })
    });
    // Fills that search cold, one kind at a time: the same full 4 MiB
    // shard (about 25 k entries; the 24-byte keys share 18 bytes, so every
    // comparison reads to the end of both keys) over the same key space
    // eight times its size, holding only points, then only 16-entry scans.
    // Each fill searches the segment map and the slot lists where the last
    // one did not and evicts as much as it admits, splitting segments;
    // `insert_point_200k` above fills where every key's neighbours are
    // resident. Key-ordered structures whose comparisons chase pointers
    // show here.
    let cache = RangeCache::new(4 << 20);
    for i in 0..50_000u64 {
        cache.insert_point(keys[scramble(i)].clone(), value.clone());
    }
    assert!(cache.stats().evictions > 20_000, "the shard is full");
    let mut i = 50_000u64;
    g.bench_function("insert_point_scrambled_25k", |b| {
        b.iter(|| {
            i += 1;
            cache.insert_point(keys[scramble(i)].clone(), value.clone());
        })
    });
    let cache = RangeCache::new(4 << 20);
    for i in 0..5_000u64 {
        let results = scan16(scramble(i));
        cache.insert_scan(&results[0].0, &results, 16);
    }
    assert!(cache.stats().evictions > 40_000, "the shard is full");
    let mut i = 5_000u64;
    g.bench_function("insert_scan16_scrambled_25k", |b| {
        b.iter(|| {
            i += 1;
            let results = scan16(scramble(i));
            cache.insert_scan(&results[0].0, &results, 16);
        })
    });
    // The served warm-up sweep: point fills of 200 k keys in ascending
    // order into a fresh 32 MiB cache, which holds all but the last ~5 k
    // of them (the shape of `get-hot`'s set-up). Every iteration is one
    // fill; a finished sweep starts over on a fresh cache, and the full
    // one is dropped between samples, outside the timed loop.
    const SWEEP_BUDGET: usize = 32 << 20;
    assert!(
        (RESIDENT as usize - 10_000) * CHARGE < SWEEP_BUDGET,
        "just too small"
    );
    assert!(
        RESIDENT as usize * CHARGE > SWEEP_BUDGET,
        "the sweep evicts"
    );
    let keys: Vec<Bytes> = (0..RESIDENT).map(render_key).collect();
    let mut sweep = (RangeCache::new(SWEEP_BUDGET), 0usize);
    let mut swept: Vec<RangeCache> = Vec::new();
    g.bench_function("insert_point_sweep_200k", |b| {
        swept.clear();
        b.iter(|| {
            let (cache, next) = &mut sweep;
            cache.insert_point(keys[*next].clone(), value.clone());
            *next += 1;
            if *next == keys.len() {
                swept.push(std::mem::replace(cache, RangeCache::new(SWEEP_BUDGET)));
                *next = 0;
            }
        })
    });
    let mut charged: ChargedCache<u64, u64> = ChargedCache::new(1 << 20);
    g.bench_function("charged_cache_insert_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            charged.insert(i % 10_000, i, 64);
            black_box(charged.get(&(i % 10_000)));
        })
    });
    g.finish();
}

fn bench_rl(c: &mut Criterion) {
    let mut g = c.benchmark_group("rl");
    g.sample_size(30);
    // Paper-sized networks: this measures the real per-window tuning cost.
    let mut agent = ActorCritic::new(AgentConfig::paper_default(13, 4));
    let state = vec![0.5f32; 13];
    g.bench_function("inference_256x256", |b| {
        b.iter(|| black_box(agent.act_greedy(&state)))
    });
    let t = Transition {
        state: state.clone(),
        action: vec![0.5; 4],
        reward: 0.1,
        next_state: state.clone(),
    };
    g.bench_function("train_step_256x256", |b| {
        b.iter(|| agent.update(black_box(&t)))
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    let mut gen = WorkloadGen::new(WorkloadConfig {
        num_keys: 1_000_000,
        ..Default::default()
    });
    let mix = Mix::new(40.0, 20.0, 10.0, 30.0);
    g.bench_function("next_op", |b| b.iter(|| black_box(gen.next_op(&mix))));
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    let db = CachedDb::new(
        Options::small(),
        Arc::new(MemStorage::new()),
        EngineConfig::new(Strategy::AdCache, 4 << 20),
    )
    .unwrap();
    for i in 0..20_000u64 {
        db.load(render_key(i), Bytes::from(vec![b'v'; 64])).unwrap();
    }
    db.db().flush().unwrap();
    while db.db().maybe_compact_once().unwrap() {}
    for i in 0..20_000u64 {
        db.get(&render_key(i)).unwrap();
    }
    g.bench_function("adcache_get_warm", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 20_000;
            black_box(db.get(&render_key(i)).unwrap())
        })
    });
    g.bench_function("adcache_scan16_warm", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 977) % 19_000;
            black_box(db.scan(&render_key(i), 16).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_wal_and_histogram,
    bench_block,
    bench_structures,
    bench_lsm,
    bench_served_tree,
    bench_range_cache,
    bench_rl,
    bench_workload,
    bench_engine,
);
criterion_main!(benches);
