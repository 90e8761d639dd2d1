//! # adcache-workload — workload generation for LSM-tree cache evaluation
//!
//! Generates the paper's evaluation workloads (EDBT 2026, Section 5):
//!
//! - [`zipf`] — YCSB-style (scrambled) Zipfian sampling, skew 0.6–1.2;
//! - [`generator`] — operation mixes over a fixed key space (24-byte keys,
//!   configurable value size), with deterministic seeding;
//! - [`phases`] — the Table 3 dynamic schedule (phases A→F) and the four
//!   Figure 7 static workloads;
//! - [`adversary`] — hostile traffic generators (scan floods, one-hit
//!   storms, counter churn, sketch-collision pollution) for robustness
//!   drills.

#![warn(missing_docs)]

pub mod adversary;
pub mod generator;
pub mod phases;
pub mod zipf;

pub use adversary::{AdversaryConfig, AdversaryGen, AdversaryKind, AttackPlan};
pub use generator::{parse_key, render_key, Mix, Operation, WorkloadConfig, WorkloadGen};
pub use phases::{paper_dynamic_schedule, static_workloads, Phase, Schedule, TABLE3};
pub use zipf::Zipf;
