//! `nest-model` — a deterministic interleaving explorer (loom-style
//! stateless model checker) for the workspace's vendored sync shims.
//!
//! ## What it does
//!
//! A *scenario* is a closure that spawns a handful of threads through
//! [`thread::spawn`] and exercises production types (stride scheduler,
//! `BufPool`, `HandleCache`, admission counters) exactly as the
//! appliance does. Under the `model` cargo feature every shim sync
//! operation — `Mutex::lock`, `RwLock::read`/`write`, `Condvar` waits and
//! notifies — plus [`atomic`] wrapper operations and explicit
//! [`yield_now`] calls become *scheduling points*: the thread parks and a
//! cooperative scheduler decides which thread runs next. [`explore`]
//! re-runs the scenario under every schedule reachable within a
//! configurable preemption bound (or truly exhaustively), so a race that a
//! stress test hits once a week is hit deterministically on the first
//! schedule that exposes it.
//!
//! The explorer fails a schedule on:
//!
//! * **panic** — any task panicking, which includes the workspace's
//!   `invariant!` conservation checks firing inside the code under test;
//! * **deadlock** — no task is runnable and at least one is blocked on a
//!   lock (or a join);
//! * **lost wakeup** — every blocked task is an un-notified, untimed
//!   condvar waiter: no extension of the schedule can ever wake them;
//! * **invariant** — an optional lock-free global check
//!   ([`Config::invariant`]) evaluated at every scheduling point;
//! * **step budget** — a runaway schedule (livelock backstop).
//!
//! Every failure carries a replay **seed** (`v1:0.1.2…` — the index chosen
//! at each scheduling decision). [`replay`] re-runs exactly that schedule;
//! because scheduling is fully deterministic, a seed printed by CI
//! reproduces the bug locally on the first try.
//!
//! ## What it can catch that the lock-order detector cannot
//!
//! The shim's Eraser-style lock-order detector (DESIGN.md §11) sees only
//! *acquisition-order edges between locks*. A cycle that spans a condvar
//! wait — thread 1 holds lock B and waits on a condvar, thread 2 needs B
//! to reach the notify — never records conflicting edges, so the detector
//! stays silent while the system wedges. The model checker finds the
//! terminal stuck state itself, whatever combination of locks, waits, and
//! atomics produced it. The trade-off: the detector watches full-size
//! production runs for free, while the explorer needs a small closed
//! scenario. See DESIGN.md §16.
//!
//! ## Feature gating
//!
//! Without the `model` feature this crate compiles to (almost) nothing and
//! the shim is byte-for-byte the ordinary one; `cargo test -q` at the
//! workspace root never pays for any of this. `scripts/check.sh` runs
//! `cargo test -p nest-model --features model` as its own gate.

#[cfg(feature = "model")]
pub mod atomic;
#[cfg(feature = "model")]
mod sched;
#[cfg(feature = "model")]
pub mod thread;

#[cfg(feature = "model")]
pub use sched::{check, explore, replay, yield_now, Config, Failure, FailureKind, Report};
