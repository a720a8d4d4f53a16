//! # nest-bench
//!
//! The experiment harness: one binary per figure in the paper's
//! evaluation (§7), each printing the same rows/series the paper reports,
//! plus Criterion micro-benchmarks for the hot paths.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3_protocols` | Figure 3 — multiple protocols, NeST vs JBOS |
//! | `fig4_proportional` | Figure 4 — proportional protocol scheduling |
//! | `fig5_adaptive` | Figure 5 — adaptive concurrency (Solaris + Linux) |
//! | `fig6_lots` | Figure 6 — lot (quota) overhead vs write size |
//! | `ablations` | Beyond-paper ablations (NWC stride, cache-aware, reclamation) |
//! | `realmode_throughput` | Real-mode sanity check: a live NeST over loopback, MB/s per protocol and per concurrency model |
//!
//! Figure binaries run on the deterministic simulation substrate
//! (`nest-simenv`), which drives the production scheduler/adaptation/cache
//! code under calibrated platform profiles — see `DESIGN.md` for the
//! substitution rationale and `EXPERIMENTS.md` for paper-vs-measured;
//! `realmode_throughput` drives a live appliance. End-to-end
//! performance of the appliance is measured by `nestmark` (`benchmark/`),
//! not here.

pub mod table;

pub use table::Table;
