//! The structured event taxonomy.
//!
//! Every action the journal records maps to one [`Event`] variant, and a
//! variant stays only while something reads it: the CLI `trace`
//! subcommand, a script or a test (`scripts/event_readers.sh` checks).
//! Serialized field and variant names are a **stable schema**: those
//! readers and the golden schema test in `tests/schema.rs` parse them by
//! name, so renames are breaking changes.

use serde::{Deserialize, Serialize};

/// Why a server connection was closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnCloseCause {
    /// The client closed the connection (EOF on a frame boundary).
    ClientClosed,
    /// The connection sat idle past the server's idle timeout.
    IdleTimeout,
    /// The server shut down and drained the connection.
    Shutdown,
    /// An unrecoverable protocol violation (oversized or torn frame).
    ProtocolError,
    /// A transport-level I/O error.
    IoError,
    /// The connection was refused because the server was at its limit.
    Overload,
}

/// One structured observation. See the module docs for schema stability
/// rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A run began (always the first event of a trace).
    RunStart {
        /// Strategy name as reported by `Strategy::name()`.
        strategy: String,
        /// Total cache budget in bytes shared by all structures.
        total_cache_bytes: u64,
    },
    /// The controller emitted the decision governing the next window.
    ControllerDecision {
        /// Fraction of the budget assigned to the range cache.
        range_ratio: f64,
        /// Normalized-importance threshold for point admission.
        point_threshold: f64,
        /// Full-admission scan-length cut-off `a`.
        scan_a: u64,
        /// Partial-admission slope `b`.
        scan_b: f64,
        /// Whether exploration noise was applied to the action.
        exploratory: bool,
    },
    /// The RL agent took one training step.
    TrainStep {
        /// Smoothed reward fed to the critic.
        reward: f64,
        /// TD error of the step (the critic's loss signal).
        td_error: f64,
        /// Actor learning rate in force for the step.
        actor_lr: f64,
        /// Raw action vector produced for the window.
        action: Vec<f32>,
    },
    /// The block/range boundary moved (or a move was suppressed).
    BoundaryResize {
        /// New block-cache budget in bytes.
        block_bytes: u64,
        /// New range-cache budget in bytes.
        range_bytes: u64,
        /// The range ratio that produced these budgets.
        range_ratio: f64,
        /// False when hysteresis suppressed the resize.
        applied: bool,
    },
    /// Compaction dropped cached blocks of obsolete files.
    BlockCacheInvalidation {
        /// Obsolete files whose blocks were dropped.
        files: u64,
        /// Blocks dropped across all shards.
        blocks_dropped: u64,
    },
    /// A compaction finished.
    CompactionFinish {
        /// Source level.
        from_level: u64,
        /// Destination level.
        to_level: u64,
        /// Blocks read from inputs (I/O amplification numerator).
        blocks_read: u64,
        /// Blocks written to outputs.
        blocks_written: u64,
        /// Input files made obsolete.
        obsolete_files: u64,
        /// Output files created.
        new_files: u64,
        /// Whether the compaction was a trivial move (no I/O).
        trivial_move: bool,
    },
    /// A memtable flush wrote an SSTable to level 0.
    Flush {
        /// Entries flushed.
        entries: u64,
        /// Approximate bytes flushed.
        bytes: u64,
    },
    /// The TCP server accepted a client connection.
    ConnAccepted {
        /// Server-assigned connection id (monotone within a run).
        conn: u64,
        /// Peer address as reported by the OS.
        peer: String,
    },
    /// A server connection ended.
    ConnClosed {
        /// Server-assigned connection id.
        conn: u64,
        /// Why the connection ended.
        cause: ConnCloseCause,
        /// Requests served on this connection.
        requests: u64,
        /// Bytes read from the client.
        bytes_in: u64,
        /// Bytes written to the client.
        bytes_out: u64,
    },
    /// One served request (sampled — the server journals every Nth
    /// request, not all of them; the full population lives in the
    /// `server.*.latency_ns` histograms).
    RequestServed {
        /// Connection the request arrived on.
        conn: u64,
        /// Stable opcode label (`get`, `put`, `delete`, `scan`, `batch`,
        /// `stats`, `ping`, `shutdown`, `metrics`, `auth`).
        opcode: String,
        /// Stable status label (`ok`, `not_found`, `err`).
        status: String,
        /// Wall-clock service latency in nanoseconds.
        latency_ns: u64,
    },
    /// The server hit a saturation limit and shed load.
    ServerOverload {
        /// Active connections when the limit was hit.
        active: u64,
        /// The configured connection limit.
        limit: u64,
    },
    /// A request crossed the slow-request threshold; the full stage
    /// breakdown is journaled so tail latency can be attributed to a
    /// pipeline stage after the fact.
    SlowRequest {
        /// Connection the request arrived on.
        conn: u64,
        /// Stable opcode label.
        opcode: String,
        /// Stable status label of the reply.
        status: String,
        /// Total request time (queue + parse + engine + reply), ns.
        total_ns: u64,
        /// Duration of the read syscall that delivered the frame (shared
        /// by every frame in the same read batch; not part of `total_ns`).
        recv_ns: u64,
        /// Frame decode time.
        parse_ns: u64,
        /// Time the complete frame sat buffered before execution began
        /// (head-of-line wait behind earlier frames on the connection).
        queue_ns: u64,
        /// Time spent waiting to acquire the engine lock.
        lock_wait_ns: u64,
        /// Time spent inside the engine with the lock held.
        engine_ns: u64,
        /// Execute time outside the engine lock (cache-layer lookups,
        /// admission, serialization).
        cache_ns: u64,
        /// Response encode time.
        reply_ns: u64,
        /// Key (point ops) or `from..+limit` range (scans), lossy UTF-8,
        /// truncated.
        key: String,
    },
    /// An engine lock acquisition waited longer than the engine's fixed
    /// 1 ms budget.
    LockContention {
        /// Acquisition path: `read`, `write`, `flush`, or `compaction`.
        path: String,
        /// How long the acquisition waited, ns.
        wait_ns: u64,
        /// The budget it exceeded, ns.
        budget_ns: u64,
    },
    /// The controller flagged a window as adversarial: the smoothed hit
    /// estimate collapsed faster than any organic drift allows, so the
    /// reward was clamped and policy adaptation frozen for the window.
    AdversaryDetected {
        /// Which guard fired (`controller` today; layer label, not freeform).
        source: String,
        /// Raw hit estimate of the suspect window.
        h_estimate: f64,
        /// Smoothed hit estimate after the EMA update.
        h_smoothed: f64,
        /// Reward before the adversarial clamp.
        raw_reward: f64,
        /// Reward actually fed to the agent after clamping.
        clamped_reward: f64,
    },
    /// The admission sketch auto-reset under anomalous saturation or
    /// decay churn, re-salting its hash rows for the new epoch.
    SketchReset {
        /// Epoch number after the reset (1-based; epoch 0 is unsalted).
        epoch: u64,
        /// Saturation-decay sweeps observed in the window that tripped
        /// the guard.
        decays: u64,
        /// Percentage of sketch counters nonzero when the guard fired.
        fill_pct: u64,
        /// Increments observed in the window that tripped the guard.
        increments: u64,
    },
    /// The admission quota throttled a request; the request was answered
    /// with an `Err` reply without touching the engine.
    QuotaThrottled {
        /// Connection that sent the request.
        conn: u64,
        /// Tenant whose bucket ran dry, or 0 for the connection's own
        /// bucket (it bound no tenant).
        tenant: u64,
        /// Stable opcode label of the throttled request.
        opcode: String,
        /// Requests throttled on that bucket so far.
        throttled: u64,
    },
    /// A connection bound itself to a tenant via the `Auth` opcode (or
    /// was bound to the default tenant on accept).
    TenantBound {
        /// Connection that bound.
        conn: u64,
        /// Tenant id the connection now serves.
        tenant: u64,
    },
}
