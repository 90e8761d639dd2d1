//! Adversarial traffic generators (hostile-workload hardening).
//!
//! Four attack families target AdCache's admission machinery, in the
//! spirit of the cache-pollution / sketch-saturation attacks described for
//! LSM-trees in adversarial environments:
//!
//! - **scan flood** — long range scans from uniformly random starts. Each
//!   scan drags a cold key run through the range cache and burns engine
//!   time; partial admission bounds the footprint but not the work.
//! - **one-hit-wonder storm** — a non-repeating PUT-then-GET walk of an
//!   attacker-owned key space several times the legitimate one. Every key
//!   is touched exactly once, so frequency admission should reject all of
//!   them — but each one leaves a live counter behind, flooding the
//!   sketch's counter space with distinct keys until its estimates are
//!   all collision noise.
//! - **key churn** — a rotating set of attacker-owned keys cycled through
//!   Delete→Put→Get rounds, sized so its byte footprint overflows the
//!   cache: by the time the rotation revisits a key, the cache has had to
//!   evict it, so every round's GET re-misses, reads the LSM-tree, and
//!   drives the admission sketch — a sustained miss-and-write storm.
//! - **sketch collision** — the attacker replicates the sketch's (public)
//!   hash function and searches for keys outside the legitimate key space
//!   whose row buckets collide with the hottest legitimate key. Cycling
//!   those few keys through cache-overflowing Delete→Put→Get rounds with
//!   large values hammers shared counters on every re-miss: junk rides
//!   the victim's inflated frequency past the admission threshold (each
//!   admitted body evicting a swath of legit entries) while the induced
//!   saturation decays erode everyone else's history — *until* the sketch
//!   re-salts its rows and the mined collisions stop landing.
//!
//! Generators produce ordinary [`Operation`]s so attacks run over the same
//! wire protocol and sinks as legitimate traffic; the load generator
//! blends them per connection.

use crate::generator::{render_key, Operation};
use crate::zipf::fnv1a64;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The attack family a generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Long scans from random starts.
    ScanFlood,
    /// Non-repeating single-touch key walk.
    OneHitWonder,
    /// Burst-hammered rotating key set saturating sketch counters.
    KeyChurn,
    /// Precomputed hash collisions against the admission sketch.
    SketchCollision,
}

impl AdversaryKind {
    /// Every attack kind, for matrix-style drills.
    pub const ALL: [AdversaryKind; 4] = [
        AdversaryKind::ScanFlood,
        AdversaryKind::OneHitWonder,
        AdversaryKind::KeyChurn,
        AdversaryKind::SketchCollision,
    ];

    /// Stable CLI / report label.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::ScanFlood => "scan-flood",
            AdversaryKind::OneHitWonder => "one-hit-wonder",
            AdversaryKind::KeyChurn => "key-churn",
            AdversaryKind::SketchCollision => "sketch-collision",
        }
    }

    /// Parses a CLI label (the inverse of [`name`](Self::name)).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scan-flood" => Some(AdversaryKind::ScanFlood),
            "one-hit-wonder" => Some(AdversaryKind::OneHitWonder),
            "key-churn" => Some(AdversaryKind::KeyChurn),
            "sketch-collision" => Some(AdversaryKind::SketchCollision),
            _ => None,
        }
    }
}

/// Configuration for one adversarial stream.
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// Which attack to run.
    pub kind: AdversaryKind,
    /// Legitimate key-space size (attacks aim at or around it).
    pub num_keys: u64,
    /// RNG seed (per-connection streams add their index).
    pub seed: u64,
    /// Rotating set size for [`AdversaryKind::KeyChurn`].
    pub churn_keys: u64,
    /// Delete→Put→Get rounds per churn key before rotating.
    pub churn_burst: u64,
    /// Collision keys to mine per sketch row.
    pub collisions_per_row: usize,
}

impl AdversaryConfig {
    /// Defaults tuned so 10k ops of any kind visibly stress the defenses.
    pub fn new(kind: AdversaryKind, num_keys: u64, seed: u64) -> Self {
        AdversaryConfig {
            kind,
            num_keys: num_keys.max(1),
            seed,
            churn_keys: 64,
            churn_burst: 1,
            collisions_per_row: 2,
        }
    }
}

/// Entries a [`AdversaryKind::ScanFlood`] scan asks for.
const SCAN_FLOOD_LEN: usize = 512;

/// Value size of the attack's PUTs. The churn and collision rotations rely
/// on their byte footprint overflowing the cache so revisits re-miss.
fn value_size(kind: AdversaryKind) -> usize {
    match kind {
        AdversaryKind::KeyChurn | AdversaryKind::OneHitWonder => 4 << 10,
        AdversaryKind::SketchCollision => 24 << 10,
        AdversaryKind::ScanFlood => 100,
    }
}

/// Sketch depth the attacker assumes (the engine's compile-time default).
const SKETCH_DEPTH: usize = 4;

/// Replica of the sketch's row hash (FNV-1a with avalanche tail). The
/// admission sketch seeds row `r` with `r ^ salt`; the attacker assumes
/// the construction salt of 0 — which is exactly why an epoch re-salt
/// invalidates a precomputed collision set.
fn sketch_hash(data: &[u8], seed: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h
}

/// Replica of `CountMinSketch::for_keys` sizing, so the attacker targets
/// the width a server configured for `keys` expected keys actually uses.
pub fn derived_sketch_width(keys: usize) -> usize {
    const MIN: usize = 1024;
    const MAX: usize = 1 << 26;
    keys.saturating_mul(4)
        .clamp(MIN, MAX)
        .next_power_of_two()
        .min(MAX)
}

/// Precomputed attack state shared by every connection running the same
/// attack (collision mining is expensive; do it once).
#[derive(Debug, Clone, Default)]
pub struct AttackPlan {
    /// Key ids (outside the legitimate space) colliding with the victim's
    /// sketch buckets, grouped in mining order.
    pub collision_ids: Vec<u64>,
}

impl AttackPlan {
    /// Builds the plan for `cfg`. Only [`AdversaryKind::SketchCollision`]
    /// needs mining; other kinds get an empty plan.
    pub fn build(cfg: &AdversaryConfig) -> Self {
        if cfg.kind != AdversaryKind::SketchCollision {
            return AttackPlan::default();
        }
        let width = derived_sketch_width(cfg.num_keys as usize);
        // The victim: the hottest key of a scrambled-zipfian workload is
        // rank 0's image, a fact the attacker derives from the public
        // generator just like the sketch hash.
        let victim_id = fnv1a64(0) % cfg.num_keys;
        let victim = render_key(victim_id);
        let targets: Vec<usize> = (0..SKETCH_DEPTH)
            .map(|r| sketch_hash(&victim, r as u64) as usize % width)
            .collect();
        let mut found = [0usize; SKETCH_DEPTH];
        let want = cfg.collisions_per_row.max(1);
        let mut ids = Vec::with_capacity(want * SKETCH_DEPTH);
        // Candidates start just past the legitimate space so collision
        // keys never shadow real data. Expected tries per hit ≈ width /
        // depth; the cap bounds the search.
        let max_tries = (width as u64).saturating_mul(want as u64 * 16);
        let mut candidate = cfg.num_keys;
        let mut tries = 0u64;
        while found.iter().any(|&f| f < want) && tries < max_tries {
            let key = render_key(candidate);
            for (r, &target) in targets.iter().enumerate() {
                if found[r] < want && sketch_hash(&key, r as u64) as usize % width == target {
                    ids.push(candidate);
                    found[r] += 1;
                    break;
                }
            }
            candidate += 1;
            tries += 1;
        }
        AttackPlan { collision_ids: ids }
    }

    /// The sketch-row bucket targets this plan was mined against
    /// (diagnostic; used by tests to verify the mining).
    pub fn is_empty(&self) -> bool {
        self.collision_ids.is_empty()
    }
}

/// One adversarial operation stream.
#[derive(Debug)]
pub struct AdversaryGen {
    cfg: AdversaryConfig,
    plan: AttackPlan,
    rng: StdRng,
    /// Ops produced so far (drives the deterministic walks).
    counter: u64,
    /// Stride of the one-hit-wonder permutation walk, coprime to
    /// `num_keys`.
    step: u64,
    /// Collision keys PUT so far (they must exist before GETs count).
    puts_done: usize,
}

/// Greatest common divisor, for picking a walk stride coprime to the key
/// space.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl AdversaryGen {
    /// Creates a stream; `plan` comes from [`AttackPlan::build`] (shared
    /// across connections).
    pub fn new(cfg: AdversaryConfig, plan: AttackPlan) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xADBA_D05E_ED00);
        // An odd stride near a golden-ratio fraction of the space gives a
        // full-period, cache-hostile walk; nudge until coprime.
        let n = cfg.num_keys;
        let mut step = ((n as f64 * 0.618) as u64 | 1).max(1);
        while gcd(step, n) != 1 {
            step += 2;
        }
        let start = rng.gen_range(0..n);
        AdversaryGen {
            cfg,
            plan,
            rng,
            counter: start,
            step,
            puts_done: 0,
        }
    }

    /// The value body for attack PUTs.
    fn value(&self) -> Bytes {
        Bytes::from(vec![0xAB; value_size(self.cfg.kind)])
    }

    /// One step of the Delete→Put→Get round on `id`, phased off the op
    /// counter. The delete evicts the key from the KV cache and the put
    /// recreates it uncached, so the round's GET always misses — each
    /// round lands exactly one increment on the admission sketch no
    /// matter how the cache responds.
    fn invalidating_round(&self, id: u64) -> Operation {
        let key = render_key(id);
        match self.counter % 3 {
            0 => Operation::Delete { key },
            1 => Operation::Put {
                key,
                value: self.value(),
            },
            _ => Operation::Get { key },
        }
    }

    /// Produces the next attack operation.
    pub fn next_op(&mut self) -> Operation {
        let n = self.cfg.num_keys;
        let op = match self.cfg.kind {
            AdversaryKind::ScanFlood => Operation::Scan {
                from: render_key(self.rng.gen_range(0..n)),
                len: SCAN_FLOOD_LEN,
            },
            AdversaryKind::OneHitWonder => {
                // Affine full-period walk over an attacker-owned space 4×
                // the legit one, as PUT-then-GET pairs: every key exists
                // exactly long enough to be touched once, so none ever
                // builds frequency — but each GET's miss plants one more
                // distinct live key in the sketch's counter space.
                let space = n * 4;
                let id = n + (self.counter / 2).wrapping_mul(self.step) % space;
                let key = render_key(id);
                if self.counter.is_multiple_of(2) {
                    Operation::Put {
                        key,
                        value: self.value(),
                    }
                } else {
                    Operation::Get { key }
                }
            }
            AdversaryKind::KeyChurn => {
                let burst = self.cfg.churn_burst.max(1);
                let set = self.cfg.churn_keys.max(1);
                let round = self.counter / 3;
                let slot = (round / burst) % set;
                // Attack keys sit outside the legit space: poisoning the
                // shared sketch needs no permission over anyone else's
                // data, only the attacker's own tenant keys.
                let id = n + (fnv1a64(0x00C0_FFEE ^ slot) % n);
                self.invalidating_round(id)
            }
            AdversaryKind::SketchCollision => {
                if self.plan.collision_ids.is_empty() {
                    // No mined keys (no plan, or mining hit its cap);
                    // degrade to churn so the stream still attacks rather
                    // than idling.
                    let id = n + (fnv1a64(0x00C0_FFEE ^ (self.counter % 64)) % n);
                    self.invalidating_round(id)
                } else if self.puts_done < self.plan.collision_ids.len() {
                    // Seed each collision key once — the engine only
                    // counts frequencies of keys that exist.
                    let id = self.plan.collision_ids[self.puts_done];
                    self.puts_done += 1;
                    Operation::Put {
                        key: render_key(id),
                        value: self.value(),
                    }
                } else {
                    // Round-robin Delete→Put→Get rounds over the mined
                    // set. The set is small, so per-key counters hit the
                    // saturation point every few rotations (a decay storm
                    // eroding everyone's history), while its byte
                    // footprint overflows the cache so every GET re-lands
                    // a colliding increment instead of being absorbed.
                    let ids = &self.plan.collision_ids;
                    let round = self.counter / 3;
                    let idx = (round % ids.len() as u64) as usize;
                    self.invalidating_round(ids[idx])
                }
            }
        };
        self.counter = self.counter.wrapping_add(1);
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn kind_labels_round_trip() {
        for k in AdversaryKind::ALL {
            assert_eq!(AdversaryKind::parse(k.name()), Some(k));
        }
        assert_eq!(AdversaryKind::parse("nope"), None);
    }

    #[test]
    fn one_hit_wonder_pairs_never_repeat_within_a_cycle() {
        let cfg = AdversaryConfig::new(AdversaryKind::OneHitWonder, 10_000, 7);
        let n = cfg.num_keys;
        let mut gen = AdversaryGen::new(cfg, AttackPlan::default());
        let mut ops = Vec::new();
        for _ in 0..(2 * n) {
            ops.push(gen.next_op());
        }
        let mut seen = HashSet::new();
        // The random start may open mid-pair; skip a leading unpaired GET.
        let mut i = usize::from(matches!(ops[0], Operation::Get { .. }));
        while i + 1 < ops.len() {
            match (&ops[i], &ops[i + 1]) {
                (Operation::Put { key: pk, .. }, Operation::Get { key: gk }) => {
                    assert_eq!(pk, gk, "each key is PUT then GOT back to back");
                    let id = crate::parse_key(gk).expect("workload key encoding");
                    assert!(id >= n, "one-hit keys sit outside legit space");
                    assert!(seen.insert(id), "repeat within one cycle");
                }
                other => panic!("stream must be PUT/GET pairs, got {other:?}"),
            }
            i += 2;
        }
        assert!(
            seen.len() as u64 >= n - 1,
            "walk must keep producing fresh keys"
        );
    }

    #[test]
    fn key_churn_cycles_a_small_hot_set_in_invalidating_rounds() {
        let num_keys = 100_000u64;
        let mut cfg = AdversaryConfig::new(AdversaryKind::KeyChurn, num_keys, 1);
        cfg.churn_keys = 8;
        cfg.churn_burst = 4;
        let mut gen = AdversaryGen::new(cfg, AttackPlan::default());
        let mut keys = HashSet::new();
        let (mut dels, mut puts, mut gets) = (0u64, 0u64, 0u64);
        let mut run_len = Vec::new();
        let mut last = None;
        let mut run = 0u64;
        for _ in 0..384 {
            let key = match gen.next_op() {
                Operation::Delete { key } => {
                    dels += 1;
                    key
                }
                Operation::Put { key, .. } => {
                    puts += 1;
                    key
                }
                Operation::Get { key } => {
                    gets += 1;
                    key
                }
                other => panic!("unexpected op {other:?}"),
            };
            let id = crate::parse_key(&key).expect("workload key encoding");
            assert!(id >= num_keys, "churn keys must sit outside legit space");
            if last.as_ref() == Some(&key) {
                run += 1;
            } else {
                if run > 0 {
                    run_len.push(run);
                }
                run = 1;
                last = Some(key.clone());
            }
            keys.insert(key);
        }
        assert!(keys.len() <= 8, "churn set must stay small: {}", keys.len());
        assert!(
            run_len.iter().any(|&r| r >= 12),
            "bursts must hammer one key across several rounds"
        );
        // Every phase of the Delete→Put→Get round is represented evenly.
        for (name, n) in [("deletes", dels), ("puts", puts), ("gets", gets)] {
            assert!(n >= 384 / 4, "round must interleave {name}, got {n}");
        }
    }

    #[test]
    fn scan_flood_emits_long_scans() {
        let cfg = AdversaryConfig::new(AdversaryKind::ScanFlood, 1000, 3);
        let mut gen = AdversaryGen::new(cfg, AttackPlan::default());
        for _ in 0..50 {
            match gen.next_op() {
                Operation::Scan { len, .. } => assert_eq!(len, 512),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn collision_plan_mines_per_row_collisions_outside_the_key_space() {
        let cfg = AdversaryConfig::new(AdversaryKind::SketchCollision, 1000, 5);
        let plan = AttackPlan::build(&cfg);
        let width = derived_sketch_width(1000);
        let victim = render_key(fnv1a64(0) % 1000);
        let targets: Vec<usize> = (0..SKETCH_DEPTH)
            .map(|r| sketch_hash(&victim, r as u64) as usize % width)
            .collect();
        assert_eq!(
            plan.collision_ids.len(),
            SKETCH_DEPTH * cfg.collisions_per_row,
            "mining must fill every row's quota"
        );
        for &id in &plan.collision_ids {
            assert!(id >= 1000, "collision keys must sit outside legit space");
            let key = render_key(id);
            let hits = (0..SKETCH_DEPTH)
                .filter(|&r| sketch_hash(&key, r as u64) as usize % width == targets[r])
                .count();
            assert!(hits >= 1, "every mined key must collide in some row");
        }
    }

    #[test]
    fn collision_stream_seeds_every_key_then_cycles_rounds() {
        let cfg = AdversaryConfig::new(AdversaryKind::SketchCollision, 1000, 5);
        let plan = AttackPlan::build(&cfg);
        let mined = plan.collision_ids.len();
        let ids: HashSet<u64> = plan.collision_ids.iter().copied().collect();
        let mut gen = AdversaryGen::new(cfg, plan);
        // Seeding phase: one PUT per mined key, in order, before anything
        // else — the engine only counts frequencies of keys that exist.
        for i in 0..mined {
            match gen.next_op() {
                Operation::Put { key, .. } => {
                    let id = crate::parse_key(&key).expect("workload key encoding");
                    assert!(ids.contains(&id), "seed PUT strays from the plan");
                }
                other => panic!("op {i} must still be a seed PUT, got {other:?}"),
            }
        }
        // Hammer phase: Delete→Put→Get rounds confined to the mined set.
        let (mut dels, mut puts, mut gets) = (0u64, 0u64, 0u64);
        for _ in 0..mined * 3 {
            let key = match gen.next_op() {
                Operation::Delete { key } => {
                    dels += 1;
                    key
                }
                Operation::Put { key, .. } => {
                    puts += 1;
                    key
                }
                Operation::Get { key } => {
                    gets += 1;
                    key
                }
                other => panic!("unexpected op {other:?}"),
            };
            let id = crate::parse_key(&key).expect("workload key encoding");
            assert!(ids.contains(&id), "hammer strays from the mined plan");
        }
        for (name, n) in [("deletes", dels), ("puts", puts), ("gets", gets)] {
            assert!(
                n >= mined as u64 * 3 / 4,
                "round must interleave {name}, got {n}"
            );
        }
    }
}
