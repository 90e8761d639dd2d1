//! # adcache-rl — a lightweight actor-critic agent in pure Rust
//!
//! The learning substrate of the AdCache reproduction (EDBT 2026). The
//! paper's controller is deliberately small — two fully-connected networks
//! with two 256-wide hidden layers each (~140 k parameters, ~550 KB of
//! weights, Table 2) running on the CPU — so this crate implements the
//! whole stack from scratch rather than binding a deep-learning runtime:
//!
//! - [`matrix`] — dense row-major f32 matrices;
//! - [`layers`] — linear layers + activations with reverse-mode gradients
//!   (finite-difference checked in tests);
//! - [`adam`] — the Adam optimizer;
//! - [`mlp`] — the paper's network topology with JSON persistence;
//! - [`actor_critic`] — Gaussian-policy actor + TD critic, with the
//!   adaptive learning-rate rule `lr ← lr · (1 − reward)`;
//! - [`pretrain`] — supervised and unsupervised pretraining plus on-disk
//!   model persistence (paper Section 3.6).

#![warn(missing_docs)]

pub mod actor_critic;
pub mod adam;
pub mod layers;
pub mod matrix;
pub mod mlp;
pub mod pretrain;

pub use actor_critic::{ActorCritic, AgentConfig, Transition};
pub use adam::Adam;
pub use layers::{Activation, Linear};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use pretrain::{
    load_agent, pretrain_supervised, pretrain_unsupervised, save_agent, LabeledSample,
};
