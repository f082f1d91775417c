//! # dbcatcher-core
//!
//! The core of the DBCatcher reproduction (ICDE 2023): an online anomaly
//! detection system for cloud-database units based on **indicator
//! correlation**.
//!
//! The paper's three key techniques, each in its own module:
//!
//! 1. **Efficient time-series correlation measurement** (§III-B) — the
//!    *Key Correlation Distance* ([`mod@kcd`]): a delay-tolerant, normalised
//!    cross-correlation score, collected per KPI into symmetric
//!    [`matrix::CorrelationMatrix`] values.
//! 2. **Flexible time-window observation** (§III-C) — scores quantise into
//!    three [`levels::Level`]s against per-KPI thresholds; level counts
//!    decide a per-window [`state::DbState`]; an *observable* database's
//!    window expands ([`window`]) until the state resolves or the maximum
//!    window is hit.
//! 3. **Adaptive threshold learning** (§III-D) — a genetic algorithm
//!    ([`ga`]) re-fits the thresholds from recent judgment records when the
//!    online feedback module ([`feedback`]) sees detection performance
//!    fall below the criterion.
//!
//! [`pipeline::DbCatcher`] glues them into the streaming system of paper
//! Fig. 6: ingest one monitoring frame per 5-second tick, receive final
//! *healthy*/*abnormal* verdicts per database and window.
//!
//! This crate is substrate-agnostic: it consumes `db × kpi` matrices of
//! `f64` and knows nothing about MySQL or the simulator. Table II
//! semantics (primary exclusion on replica-only KPIs) enter through the
//! participation mask of [`config::DbCatcherConfig`].

// `deny` rather than `forbid` so the one sanctioned exception — the
// `#[cfg]`-gated SIMD intrinsics in [`mod@simd`] — can scope its own
// allowance; every other module stays unsafe-free and dbclint's
// `no-unsafe` rule audits the sites that remain.
#![deny(unsafe_code)]
// Index-based loops over matrix/tensor dimensions are clearer than
// iterator chains in this numeric code.
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod diagnosis;
pub mod feedback;
pub mod ga;
pub mod ingest;
pub mod kcd;
pub mod kcd_incremental;
pub mod levels;
pub mod matrix;
pub mod offline;
pub mod pipeline;
pub mod queues;
mod queues_serde;
pub mod scratch;
pub mod simd;
pub mod snapshot;
pub mod state;
pub mod window;
pub mod wire;

pub use config::{
    ConfigError, CorrelationBackend, DbCatcherConfig, DelayScan, LevelAggregation, ResolvePolicy,
};
pub use diagnosis::{
    diagnose, root_cause, DeviationDirection, Diagnosis, RootCause, RootCauseFactor,
};
pub use feedback::{FeedbackModule, JudgmentRecord};
pub use ga::{Genes, GeneticConfig};
pub use ingest::{GapPolicy, IngestConfig, IngestError, IngestReport, TelemetryHealth};
pub use kcd::kcd;
pub use kcd_incremental::IncrementalCorrelator;
pub use levels::Level;
pub use matrix::CorrelationMatrix;
pub use pipeline::{ComponentTiming, DbCatcher, Verdict};
pub use snapshot::{DetectorSnapshot, SnapshotSummary};
pub use state::DbState;
