//! Property tests for the tenant partition layer.
//!
//! Two invariants from the multi-tenant design:
//!
//! - **Share soundness**: whatever sequence of tenant registrations,
//!   arbitrary (even degenerate) share requests, and demand rebalances
//!   occurs, the shares in force always sum to 1 and every tenant keeps
//!   the guaranteed minimum.
//! - **Capacity isolation**: partitions are shared-nothing, so no read
//!   issued by one tenant can evict another tenant's resident entries.
//!   Writes are deliberately out of scope: write coherence invalidates
//!   the written key in every partition and LSM flush/compaction drops
//!   shared blocks — both correctness-driven, neither eviction pressure
//!   (the drill for write-heavy neighbors is `adcache tenantcheck`).

use adcache_core::{CachedDb, EngineConfig, Strategy as CacheStrategy, TenantId};
use adcache_lsm::{MemStorage, Options};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

fn build(min_share: f64) -> Arc<CachedDb> {
    let mut cfg = EngineConfig::new(CacheStrategy::AdCache, 128 << 10);
    cfg.min_tenant_share = min_share;
    cfg.expected_keys = 4096;
    Arc::new(CachedDb::new(Options::small(), Arc::new(MemStorage::new()), cfg).unwrap())
}

/// Keys are prefixed per tenant so no two tenants ever touch the same
/// key: cross-partition write coherence can never fire by accident.
fn tkey(tenant: TenantId, k: u16) -> Bytes {
    Bytes::from(format!("t{tenant:02}/{k:04}"))
}

#[derive(Debug, Clone)]
enum ShareOp {
    /// Register a tenant (idempotent), resetting to the equal split.
    Register(u8),
    /// Request an arbitrary — possibly zero or unregistered — split.
    Want(Vec<(u8, f64)>),
    /// One demand split over the operations since the last one.
    Rebalance,
}

fn share_op() -> impl Strategy<Value = ShareOp> {
    prop_oneof![
        3 => (1u8..8).prop_map(ShareOp::Register),
        3 => proptest::collection::vec((0u8..8, 0.0f64..8.0), 0..6).prop_map(ShareOp::Want),
        2 => Just(ShareOp::Rebalance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn shares_sum_to_one_and_every_tenant_keeps_the_minimum(
        min_share in 0.0f64..0.6,
        ops in proptest::collection::vec(share_op(), 1..32),
    ) {
        let db = build(min_share);
        for op in ops {
            match op {
                ShareOp::Register(t) => db.register_tenant(t as TenantId),
                ShareOp::Want(want) => {
                    let want: Vec<(TenantId, f64)> =
                        want.iter().map(|&(t, w)| (t as TenantId, w)).collect();
                    db.set_tenant_shares(&want);
                }
                ShareOp::Rebalance => {
                    db.rebalance_tenants();
                }
            }
            let reports = db.tenant_reports();
            let sum: f64 = reports.iter().map(|r| r.share).sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "shares sum to {sum}, not 1");
            // The configured floor is clamped to the feasible 1/n.
            let floor = min_share.min(1.0 / reports.len() as f64) - 1e-9;
            for r in &reports {
                prop_assert!(
                    r.share >= floor,
                    "tenant {} share {} below guaranteed minimum {floor}",
                    r.tenant,
                    r.share
                );
            }
        }
    }

    #[test]
    fn no_read_by_one_tenant_evicts_another_tenants_residency(
        ops in proptest::collection::vec((1u8..4, 0u16..64, 1u8..8), 1..160),
        seed_per_tenant in 8u16..48,
    ) {
        let db = build(0.1);
        let tenants: [TenantId; 3] = [1, 2, 3];
        for &t in &tenants {
            db.register_tenant(t);
        }
        for &t in &tenants {
            for k in 0..seed_per_tenant {
                db.load(tkey(t, k), Bytes::from(vec![t as u8; 64])).unwrap();
            }
        }
        db.db().flush().unwrap();
        // Warm every tenant's partition from its own key range.
        let parts = tenants.map(|t| db.partition_for(t));
        for (&t, part) in tenants.iter().zip(&parts) {
            for k in 0..seed_per_tenant {
                db.get_in(part, &tkey(t, k)).unwrap();
                db.get_in(part, &tkey(t, k)).unwrap();
            }
        }
        let resident = |t: TenantId| {
            db.tenant_reports()
                .iter()
                .find(|r| r.tenant == t)
                .map(|r| r.used_bytes)
                .unwrap_or(0)
        };
        let mut floor: std::collections::BTreeMap<TenantId, u64> =
            tenants.iter().map(|&t| (t, resident(t))).collect();
        for (t, k, len) in ops {
            let slot = (t as usize - 1) % tenants.len();
            let (actor, part) = (tenants[slot], &parts[slot]);
            // Reads far past the warm set too: misses exercise admission
            // and eviction inside the actor's own partition.
            if len % 2 == 0 {
                db.get_in(part, &tkey(actor, k)).unwrap();
            } else {
                db.scan_in(part, &tkey(actor, k), len as usize).unwrap();
            }
            for &other in &tenants {
                if other == actor {
                    // The actor may evict (or grow) its own residency.
                    floor.insert(other, resident(other));
                    continue;
                }
                let now = resident(other);
                prop_assert!(
                    now >= floor[&other],
                    "tenant {actor} read shrank tenant {other}: {} -> {now} bytes",
                    floor[&other]
                );
                floor.insert(other, now);
            }
        }
    }
}
