//! Asynchronous background tuning (paper Sections 3.1 / 4.2).
//!
//! "All model inference and training occur asynchronously in the
//! background. Cache parameter updates are decoupled from the main query
//! serving path." [`AsyncController`] realizes that: a dedicated worker
//! thread owns the [`Controller`]; serving threads push window summaries
//! into an unbounded channel and pick up the latest decision with a single
//! atomic-guarded read — they never block on inference or training.
//!
//! Decisions are therefore at least one window behind the observations
//! that produced them, exactly the staleness the paper accepts by design.

use crate::controller::{CacheDecision, Controller, ControllerConfig, TuningRecord};
use crate::stats::WindowSummary;
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

enum Msg {
    Window(WindowSummary),
    Shutdown,
}

struct Shared {
    decision: Mutex<CacheDecision>,
    history: Mutex<Vec<TuningRecord>>,
}

/// A [`Controller`] running on its own thread.
pub struct AsyncController {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<Controller>>,
}

impl AsyncController {
    /// Spawns the tuning thread with a fresh agent.
    pub fn new(cfg: ControllerConfig) -> Self {
        Self::with_controller(Controller::new(cfg))
    }

    /// Spawns the tuning thread around an existing (e.g. pretrained)
    /// controller.
    pub fn with_controller(mut controller: Controller) -> Self {
        let (tx, rx) = channel::<Msg>();
        let shared = Arc::new(Shared {
            decision: Mutex::new(controller.decision()),
            history: Mutex::new(Vec::new()),
        });
        let shared2 = shared.clone();
        let worker = std::thread::Builder::new()
            .name("adcache-tuner".into())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Window(w) => {
                            let d = controller.end_of_window(&w);
                            *shared2.decision.lock() = d;
                            if let Some(rec) = controller.history().last() {
                                shared2.history.lock().push(rec.clone());
                            }
                        }
                        Msg::Shutdown => break,
                    }
                }
                controller
            })
            .expect("spawn tuner thread");
        AsyncController {
            tx,
            shared,
            worker: Some(worker),
        }
    }

    /// Submits a finished window for background training. Never blocks.
    pub fn submit(&self, w: WindowSummary) {
        // A full channel cannot happen (unbounded); a disconnected one
        // means the worker died, which `join` will surface.
        let _ = self.tx.send(Msg::Window(w));
    }

    /// The most recent decision produced by the background thread (may lag
    /// the latest submissions; that is the design).
    pub fn latest_decision(&self) -> CacheDecision {
        *self.shared.decision.lock()
    }

    /// Tuning records produced so far.
    pub fn history(&self) -> Vec<TuningRecord> {
        self.shared.history.lock().clone()
    }

    /// Stops the worker, waits for it to drain pending windows, and
    /// returns the controller (e.g. to save the trained agent).
    pub fn shutdown(mut self) -> Controller {
        let _ = self.tx.send(Msg::Shutdown);
        self.worker
            .take()
            .expect("worker present")
            .join()
            .expect("tuner thread panicked")
    }
}

impl Drop for AsyncController {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(points: u64, io_miss: u64) -> WindowSummary {
        WindowSummary {
            points,
            io_miss,
            entries_per_block: 4.0,
            levels: 3,
            r0_max: 8,
            runs: 5,
            ..Default::default()
        }
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            hidden: 16,
            ..Default::default()
        }
    }

    #[test]
    fn decisions_arrive_asynchronously() {
        let ctl = AsyncController::new(cfg());
        let initial = ctl.latest_decision();
        for i in 0..20 {
            ctl.submit(window(1000, 400 + i * 10));
        }
        // Drain via shutdown, then check the worker actually tuned.
        let controller = ctl.shutdown();
        assert_eq!(controller.history().len(), 20);
        assert!(controller.agent().updates() >= 19);
        let _ = initial;
    }

    #[test]
    fn latest_decision_reflects_processing() {
        let ctl = AsyncController::new(cfg());
        ctl.submit(window(1000, 100));
        // Wait (bounded) for the worker to process.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while ctl.history().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "worker made no progress"
            );
            std::thread::yield_now();
        }
        assert_eq!(ctl.history().len(), 1);
        let d = ctl.latest_decision();
        assert!((0.0..=1.0).contains(&d.range_ratio));
    }

    #[test]
    fn submit_never_blocks_under_burst() {
        let ctl = AsyncController::new(cfg());
        let start = std::time::Instant::now();
        for _ in 0..200 {
            ctl.submit(window(1000, 500));
        }
        // 200 submissions must be near-instant even though training lags.
        assert!(
            start.elapsed().as_millis() < 500,
            "submit blocked on training"
        );
        let controller = ctl.shutdown();
        assert_eq!(controller.history().len(), 200, "shutdown drains the queue");
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let ctl = AsyncController::new(cfg());
        ctl.submit(window(1000, 100));
        drop(ctl); // must not hang or panic
    }
}
