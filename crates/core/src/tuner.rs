//! The online tuning cycle (paper Sections 3.1 / 4.2), written once.
//!
//! Serving threads call [`Tuner::tick`] after every operation. The thread
//! whose operation closes a window builds the window's observation, hands
//! it to the background [`AsyncController`], applies the freshest decision
//! the tuning thread has produced, re-snapshots the counters for the
//! next window and runs one tenant share-arbitration step. Every other
//! tick is one relaxed atomic increment.

use crate::async_controller::AsyncController;
use crate::controller::Controller;
use crate::engine::CachedDb;
use crate::stats::Snapshot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts operations into windows and runs one tuning cycle per window.
pub struct Tuner {
    window: u64,
    ops: AtomicU64,
    /// Counters at the start of the open window. Held across a whole
    /// cycle, so two threads closing adjacent windows back to back can
    /// neither summarize overlapping spans nor interleave two share
    /// splits.
    win_start: Mutex<Snapshot>,
    controller: Option<AsyncController>,
}

impl Tuner {
    /// A tuner over `db` closing a window every `window` operations. With
    /// no controller (the baselines and `serve`) a window advances the
    /// window id stamped on `db`'s trace events and re-learns the tenant
    /// shares.
    pub fn new(db: &CachedDb, controller: Option<Controller>, window: u64) -> Self {
        Tuner {
            window: window.max(1),
            ops: AtomicU64::new(0),
            win_start: Mutex::new(db.snapshot()),
            controller: controller.map(AsyncController::with_controller),
        }
    }

    /// Counts one executed operation; on a window boundary runs the cycle
    /// window summary → submit → apply latest decision → re-snapshot →
    /// rebalance tenant shares (a no-op below two partitions).
    pub fn tick(&self, db: &CachedDb) {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.window) {
            return;
        }
        db.obs().set_window(n / self.window);
        let mut start = self.win_start.lock();
        if let Some(ctl) = &self.controller {
            ctl.submit(db.window_summary(&start));
            db.apply_decision(&ctl.latest_decision());
            *start = db.snapshot();
        }
        db.rebalance_tenants();
    }

    /// The background controller (`None` for strategies that are not tuned).
    pub fn controller(&self) -> Option<&AsyncController> {
        self.controller.as_ref()
    }

    /// Stops the tuning thread once it has trained on every submitted
    /// window and returns its controller.
    pub fn shutdown(self) -> Option<Controller> {
        self.controller.map(AsyncController::shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::engine::{EngineConfig, Strategy};
    use adcache_lsm::{MemStorage, Options};
    use std::sync::{Arc, Barrier};

    #[test]
    fn concurrent_ticks_submit_each_window_exactly_once() {
        const THREADS: u64 = 4;
        const OPS_PER_THREAD: u64 = 525;
        const WINDOW: u64 = 50;
        let db = CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(Strategy::AdCache, 1 << 20),
        )
        .unwrap();
        let controller = Controller::new(ControllerConfig {
            window: WINDOW,
            hidden: 8,
            ..Default::default()
        });
        let tuner = Tuner::new(&db, Some(controller), WINDOW);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (db, tuner, start) = (&db, &tuner, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..OPS_PER_THREAD {
                        db.get(format!("k{t}-{i}").as_bytes()).unwrap();
                        tuner.tick(db);
                    }
                });
            }
        });
        let trained = tuner.shutdown().expect("adcache is tuned");
        assert_eq!(
            trained.history().len() as u64,
            THREADS * OPS_PER_THREAD / WINDOW,
            "one summary per closed window: none skipped, none submitted twice"
        );
    }

    #[test]
    fn an_untuned_strategy_only_advances_the_window_id() {
        let db = CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(Strategy::RocksDbBlock, 1 << 20),
        )
        .unwrap();
        db.set_obs(adcache_obs::Obs::enabled());
        let tuner = Tuner::new(&db, None, 10);
        for _ in 0..25 {
            tuner.tick(&db);
        }
        assert_eq!(db.obs().window(), 2);
        assert!(tuner.controller().is_none() && tuner.shutdown().is_none());
    }

    #[test]
    fn each_window_runs_one_share_arbitration_step() {
        let db = CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(Strategy::AdCache, 1 << 20),
        )
        .unwrap();
        db.set_obs(adcache_obs::Obs::enabled());
        db.register_tenant(1);
        db.register_tenant(2);
        let partitions = db.tenant_ids().len();
        assert_eq!(partitions, 3, "the default partition and two tenants");
        let tuner = Tuner::new(&db, None, 10);
        for i in 0..25u64 {
            db.get(format!("k{i}").as_bytes()).unwrap();
            tuner.tick(&db);
        }
        let resized_in = |window: u64| {
            let records = db.obs().journal().unwrap().records();
            records
                .iter()
                .filter(|r| r.window == window)
                .filter(|r| matches!(r.event, adcache_obs::Event::TenantShareResized { .. }))
                .count()
        };
        assert_eq!(resized_in(1), partitions, "window 1: one step");
        assert_eq!(resized_in(2), partitions, "window 2: one step");
        assert_eq!(db.obs().window(), 2, "the half window closes none");
    }
}
