//! Observability for the NeST storage appliance.
//!
//! The paper's central claim is that a storage appliance must be
//! *manageable*: an administrator (or the matchmaker) should be able to ask
//! a running server what it is doing and how fast. This crate provides the
//! plumbing for that:
//!
//! * [`metrics`] — lock-cheap instruments: [`metrics::Counter`],
//!   [`metrics::Gauge`], [`metrics::EwmaMeter`] (exponentially weighted
//!   rates, e.g. bandwidth), and [`metrics::Histogram`] (log-bucketed
//!   latency distributions). All are updated with plain atomics; no lock is
//!   taken on the hot path.
//! * [`registry`] — a [`registry::Registry`] that names instruments and
//!   produces a point-in-time [`registry::MetricsSnapshot`], renderable as
//!   the stable `name value` text served by `GET /nest/stats` and the
//!   Chirp `stats` command.
//!
//! The [`Obs`] facade holds the registry; the dispatcher owns an
//! `Arc<Obs>` and threads it through the storage and transfer layers so
//! every subsystem reports into a single snapshot.

pub mod metrics;
pub mod registry;

pub use metrics::{Counter, EwmaMeter, Gauge, Histogram};
pub use registry::{MetricValue, MetricsSnapshot, Registry};

use std::sync::Arc;

/// One observability domain: a metrics registry.
///
/// Cheap to share (`Arc<Obs>`); every subsystem registers instruments on
/// the same registry so a single [`Registry::snapshot`] covers the whole
/// appliance.
#[derive(Default)]
pub struct Obs {
    /// The shared metrics registry.
    pub metrics: Registry,
}

impl Obs {
    /// Creates a fresh observability domain behind an `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Convenience: a snapshot of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}
