//! # nest-simenv
//!
//! A deterministic simulation substrate for regenerating the paper's
//! evaluation (§7) on any host. The authors measured on Linux 2.2.19 /
//! Solaris 8 clusters with IBM 9LZX disks and Gigabit Ethernet; per the
//! substitution policy in `DESIGN.md`, this crate models those platforms
//! with calibrated cost profiles and drives the *same* policy code the
//! real server runs:
//!
//! * the scheduler implementations from `nest-transfer::sched`
//!   (FCFS / stride / cache-aware),
//! * the adaptive concurrency selector from `nest-transfer::adaptive`,
//! * the gray-box cache model from `nest-transfer::cache`.
//!
//! What is simulated is only the *cost* of moving bytes (network, disk,
//! per-model CPU overheads, quota bookkeeping) under a virtual clock, so
//! results are exactly reproducible and host-independent, while the
//! decisions being evaluated are made by production code.
//!
//! * [`platform`] — calibrated platform profiles (Linux/GigE,
//!   Solaris/100 Mbit) and per-concurrency-model cost tables.
//! * [`workload`] — client request streams: file-based protocols issue
//!   whole-file requests; NFS issues one 8 KB block at a time with a
//!   client turnaround gap (the behaviour behind Figures 3 and 4).
//! * [`server`] — the NeST appliance model: one shared link, one
//!   scheduler over all protocols.
//! * [`jbos`] — the JBOS model: one independent FCFS server per protocol,
//!   sharing the host by OS time-slicing.
//! * [`writepath`] — the Figure 6 write-path model (buffer cache
//!   absorption, disk-bound tail, quota bookkeeping overhead).
//! * [`stats`] — bandwidth/latency accounting.
//! * [`arrivals`] — seeded flash-crowd arrival and bounded-Pareto size
//!   generators for many-session load generation.

pub mod arrivals;
pub mod jbos;
pub mod platform;
pub mod server;
pub mod stats;
pub mod workload;
pub mod writepath;

pub use arrivals::{FlashCrowd, ParetoSizes, SplitMix64};
pub use jbos::SimJbos;
pub use platform::PlatformProfile;
pub use server::{SimPolicy, SimServer};
pub use stats::SimStats;
pub use workload::{ClientSpec, RequestMode};
pub use writepath::{write_bandwidth, WritePathModel};
