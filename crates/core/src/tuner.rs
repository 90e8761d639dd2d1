//! The online tuning cycle (paper Sections 3.1 / 4.2), written once.
//!
//! Every caller calls [`Tuner::tick`] once per executed operation. The
//! tick that closes a window runs the cycle: stamp the next window id,
//! summarize the window, decide, apply and re-snapshot. Other ticks are
//! one relaxed atomic increment.
//! Each caller picks its mode in code:
//!
//! - [`Tuner::inline`]: the closing thread runs [`Controller::end_of_window`]
//!   and applies its decision at once. Every figure ticks it.
//! - [`Tuner::background`]: a tuning thread owns the controller; the closing
//!   thread applies the freshest decision it has published (at least one
//!   window behind, §3.1) and hands it the summary. `run_multiclient`, the
//!   shell and `serve` (no controller: it only stamps window ids) tick it. A drop
//!   joins the thread once it has trained, as [`Tuner::shutdown`] does.

use crate::controller::{CacheDecision, Controller};
use crate::engine::CachedDb;
use crate::stats::{Snapshot, WindowSummary};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A window the cycle closed.
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    /// Index from the tuner's first operation: the window id its
    /// operations were traced under.
    pub index: u64,
    /// The window's observation.
    pub summary: WindowSummary,
    /// The decision applied as it closed; `None` when nothing is tuned.
    pub decision: Option<CacheDecision>,
}

/// Counts operations into windows and runs one tuning cycle per window.
pub struct Tuner {
    window: u64,
    ops: AtomicU64,
    /// Held across a whole cycle, so two threads closing adjacent windows
    /// back to back can neither summarize overlapping spans nor interleave
    /// two decisions.
    cycle: Mutex<Cycle>,
}

struct Cycle {
    /// Counters at the start of the open window.
    start: Snapshot,
    agent: Agent,
}

enum Agent {
    Inline(Option<Box<Controller>>),
    Background(Option<Background>),
}

impl Tuner {
    /// A tuner over `db` closing a window every `window` operations, whose
    /// closing thread runs `controller` itself.
    pub fn inline(db: &CachedDb, controller: Option<Controller>, window: u64) -> Self {
        Self::with(db, Agent::Inline(controller.map(Box::new)), window)
    }

    /// A tuner over `db` closing a window every `window` operations, with
    /// `controller` trained on a thread of its own.
    pub fn background(db: &CachedDb, controller: Option<Controller>, window: u64) -> Self {
        Self::with(
            db,
            Agent::Background(controller.map(Background::spawn)),
            window,
        )
    }

    fn with(db: &CachedDb, agent: Agent, window: u64) -> Self {
        Tuner {
            window: window.max(1),
            ops: AtomicU64::new(0),
            cycle: Mutex::new(Cycle {
                start: db.snapshot(),
                agent,
            }),
        }
    }

    /// Counts one executed operation; on a window boundary runs the cycle.
    /// An inline tuner returns the closed window there; a background tuner
    /// always returns `None`.
    pub fn tick(&self, db: &CachedDb) -> Option<ClosedWindow> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.window) {
            return None;
        }
        db.obs().set_window(n / self.window);
        self.cycle.lock().close(db, n / self.window - 1)
    }

    /// The latest decision and the windows trained on; `None` when nothing
    /// is tuned. Inline it is in force; in background mode it is the
    /// freshest the thread has published, applied at the next close.
    pub fn latest(&self) -> Option<(CacheDecision, usize)> {
        match &self.cycle.lock().agent {
            Agent::Inline(c) => c.as_ref().map(|c| (c.decision(), c.history().len())),
            Agent::Background(b) => b.as_ref().map(|b| *b.latest.lock()),
        }
    }

    /// Returns the controller, in background mode once its thread has
    /// trained on every submitted window.
    pub fn shutdown(self) -> Option<Controller> {
        match self.cycle.into_inner().agent {
            Agent::Inline(c) => c.map(|c| *c),
            Agent::Background(b) => b.and_then(|mut b| b.stop().expect("tuner thread panicked")),
        }
    }
}

impl Cycle {
    fn close(&mut self, db: &CachedDb, index: u64) -> Option<ClosedWindow> {
        let summary = match &self.agent {
            Agent::Background(None) => return None,
            _ => db.window_summary(&self.start),
        };
        let decision = match &mut self.agent {
            Agent::Inline(c) => c.as_mut().map(|c| c.end_of_window(&summary)),
            // Read before this window is sent: trained on earlier ones only.
            Agent::Background(b) => b.as_ref().map(|b| b.latest.lock().0),
        };
        if let Some(d) = &decision {
            db.apply_decision(d);
        }
        self.start = db.snapshot();
        if let Agent::Background(Some(b)) = &self.agent {
            // Unbounded: the closing thread never waits on training. A
            // closed channel means the worker died; `shutdown` surfaces that.
            let _ = b.tx.send(Some(summary));
            return None;
        }
        Some(ClosedWindow {
            index,
            summary,
            decision,
        })
    }
}

/// A controller on a thread of its own, fed summaries over a channel.
struct Background {
    /// `None` stops the thread once it has trained on what is queued.
    tx: Sender<Option<WindowSummary>>,
    /// The freshest decision and the windows trained on so far.
    latest: Arc<Mutex<(CacheDecision, usize)>>,
    worker: Option<JoinHandle<Controller>>,
}

impl Background {
    fn spawn(mut controller: Controller) -> Self {
        let (tx, rx) = channel();
        let latest = Arc::new(Mutex::new((controller.decision(), 0)));
        let out = latest.clone();
        let worker = std::thread::Builder::new()
            .name("adcache-tuner".into())
            .spawn(move || {
                while let Ok(Some(w)) = rx.recv() {
                    let d = controller.end_of_window(&w);
                    *out.lock() = (d, controller.history().len());
                }
                controller
            })
            .expect("spawn tuner thread");
        let worker = Some(worker);
        Background { tx, latest, worker }
    }

    /// Joins the thread once it has trained on every queued window.
    fn stop(&mut self) -> std::thread::Result<Option<Controller>> {
        let _ = self.tx.send(None);
        self.worker.take().map(JoinHandle::join).transpose()
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        // `shutdown` surfaces a panic; here it would abort an unwinding caller.
        let _ = self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::engine::{EngineConfig, Strategy};
    use crate::runner::execute;
    use adcache_lsm::{MemStorage, Options};
    use adcache_workload::{Mix, Operation, WorkloadConfig, WorkloadGen};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    fn small_db(strategy: Strategy) -> CachedDb {
        CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(strategy, 1 << 20),
        )
        .unwrap()
    }

    fn small_controller(window: u64) -> Controller {
        Controller::new(ControllerConfig {
            window,
            hidden: 8,
            ..Default::default()
        })
    }

    #[test]
    fn concurrent_ticks_submit_each_window_exactly_once() {
        const THREADS: u64 = 4;
        const OPS_PER_THREAD: u64 = 525;
        const WINDOW: u64 = 50;
        let db = small_db(Strategy::AdCache);
        let tuner = Tuner::background(&db, Some(small_controller(WINDOW)), WINDOW);
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

    /// A seeded mix of gets, scans and writes over 2 000 keys.
    fn seeded_ops(n: usize) -> Vec<Operation> {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            num_keys: 2000,
            value_size: 64,
            ..Default::default()
        });
        let mix = Mix::new(50.0, 25.0, 5.0, 20.0);
        (0..n).map(|_| gen.next_op(&mix)).collect()
    }

    #[test]
    fn inline_decisions_are_in_force_for_the_next_window() {
        const WINDOW: u64 = 100;
        let ops = seeded_ops(1050);
        let db = small_db(Strategy::AdCache);
        let tuner = Tuner::inline(&db, Some(small_controller(WINDOW)), WINDOW);
        let mut closed = Vec::new();
        for op in &ops {
            execute(&db, op).unwrap();
            if let Some(c) = tuner.tick(&db) {
                let (in_force, tuned) = tuner.latest().expect("adcache is tuned");
                assert_eq!(Some(in_force), c.decision, "window {}", c.index);
                assert_eq!(tuned as u64, c.index + 1);
                closed.push(c);
            }
        }
        assert_eq!(closed.len(), 10, "the half window closes none");

        // The reference: the same operations on a twin store, with the
        // cycle driven by hand. Equal summaries for every window after the
        // first show each decision was in force from the next window's
        // first operation on.
        let twin = small_db(Strategy::AdCache);
        let mut controller = small_controller(WINDOW);
        let mut start = twin.snapshot();
        let mut by_hand = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            execute(&twin, op).unwrap();
            if (i as u64 + 1).is_multiple_of(WINDOW) {
                let w = twin.window_summary(&start);
                let d = controller.end_of_window(&w);
                twin.apply_decision(&d);
                start = twin.snapshot();
                by_hand.push((w, d));
            }
        }
        for (c, (w, d)) in closed.iter().zip(&by_hand) {
            assert_eq!(&c.summary, w, "window {}", c.index);
            assert_eq!(c.decision, Some(*d), "window {}", c.index);
        }
    }

    #[test]
    fn an_untuned_inline_tuner_still_summarizes_every_window() {
        let db = small_db(Strategy::RocksDbBlock);
        let tuner = Tuner::inline(&db, None, 10);
        let closed: Vec<ClosedWindow> = (0..25u64)
            .filter_map(|i| {
                db.get(format!("k{i}").as_bytes()).unwrap();
                tuner.tick(&db)
            })
            .collect();
        let reads: Vec<(u64, u64)> = closed.iter().map(|c| (c.index, c.summary.points)).collect();
        assert_eq!(reads, [(0, 10), (1, 10)]);
        assert!(closed.iter().all(|c| c.decision.is_none()));
        assert!(tuner.latest().is_none() && tuner.shutdown().is_none());
    }

    #[test]
    fn an_untuned_background_tuner_only_advances_the_window_id() {
        let db = small_db(Strategy::RocksDbBlock);
        db.set_obs(adcache_obs::Obs::enabled());
        let tuner = Tuner::background(&db, None, 10);
        for _ in 0..25 {
            assert!(tuner.tick(&db).is_none());
        }
        assert_eq!(db.obs().window(), 2);
        assert!(tuner.latest().is_none() && tuner.shutdown().is_none());
    }

    #[test]
    fn background_ticks_never_wait_on_training_and_shutdown_drains() {
        let db = small_db(Strategy::AdCache);
        let tuner = Tuner::background(&db, Some(small_controller(1)), 1);
        let start = Instant::now();
        for _ in 0..200 {
            assert!(tuner.tick(&db).is_none());
        }
        assert!(
            start.elapsed().as_millis() < 500,
            "a tick blocked on training"
        );
        let controller = tuner.shutdown().unwrap();
        assert_eq!(controller.history().len(), 200, "shutdown drains the queue");
        assert!(controller.agent().updates() >= 199);
    }

    /// The range ratio of each `BoundaryResize` in `db`'s trace, with the
    /// window it was stamped under.
    fn resizes(db: &CachedDb) -> Vec<(u64, f64)> {
        let records = db.obs().journal().unwrap().records();
        records
            .iter()
            .filter_map(|r| match r.event {
                adcache_obs::Event::BoundaryResize { range_ratio, .. } => {
                    Some((r.window, range_ratio))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn background_decisions_are_published_and_applied_at_the_next_close() {
        let db = small_db(Strategy::AdCache);
        db.set_obs(adcache_obs::Obs::enabled());
        let tuner = Tuner::background(&db, Some(small_controller(1)), 1);
        let (initial, tuned) = tuner.latest().unwrap();
        assert_eq!(tuned, 0);
        tuner.tick(&db); // closes window 0 and hands it to the thread
        let deadline = Instant::now() + Duration::from_secs(5);
        let (published, tuned) = loop {
            let latest = tuner.latest().unwrap();
            if latest.1 >= 1 {
                break latest;
            }
            assert!(Instant::now() < deadline, "the thread published nothing");
            std::thread::yield_now();
        };
        assert_eq!(tuned, 1);
        assert_ne!(published, initial, "training moved the decision");
        tuner.tick(&db); // closes window 1

        // What each decision looks like applied, on a fresh twin store.
        let applied = |d: &CacheDecision| {
            let twin = small_db(Strategy::AdCache);
            twin.set_obs(adcache_obs::Obs::enabled());
            twin.apply_decision(d);
            resizes(&twin)[0].1
        };
        assert_eq!(
            resizes(&db),
            [(1, applied(&initial)), (2, applied(&published))],
            "each close applies the decision published before it"
        );
        assert_eq!(tuner.shutdown().unwrap().history().len(), 2);
    }

    #[test]
    fn dropping_a_background_tuner_drains_and_joins_its_thread() {
        let db = small_db(Strategy::AdCache);
        let tuner = Tuner::background(&db, Some(small_controller(1)), 1);
        let latest = match &tuner.cycle.lock().agent {
            Agent::Background(Some(b)) => b.latest.clone(),
            _ => unreachable!("a background tuner with a controller"),
        };
        for _ in 0..50 {
            tuner.tick(&db);
        }
        drop(tuner); // must neither hang nor panic
        assert_eq!(
            latest.lock().1,
            50,
            "the thread trained on every queued window before the drop returned"
        );
    }
}
