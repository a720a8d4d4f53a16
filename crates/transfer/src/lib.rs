//! # nest-transfer
//!
//! The NeST **transfer manager** (paper §4): "at the heart of data flow
//! within NeST ... responsible for moving data between disk and network for
//! a given request. The transfer manager is protocol agnostic."
//!
//! * [`flow`] — a transfer is a [`flow::Flow`]: a chunk-oriented pump
//!   between a [`flow::DataSource`] and a [`flow::DataSink`], tagged with
//!   its protocol class so schedulers can treat classes differently.
//! * [`sched`] — pluggable schedulers: FCFS, **proportional-share stride
//!   scheduling with byte-based strides** (paper §4.2, after Waldspurger &
//!   Weihl), and **cache-aware** scheduling that serves predicted
//!   cache-resident files first. Includes the non-work-conserving variant
//!   the paper says it was "currently implementing".
//! * [`bufpool`] — recycled chunk staging buffers, so steady-state
//!   transfers allocate nothing per flow or per chunk.
//! * [`cache`] — the gray-box buffer-cache model behind cache-aware
//!   scheduling: an LRU simulation of the kernel page cache.
//! * [`concurrency`] — the two concurrency models (threads, events) behind
//!   one executor interface.
//! * [`adaptive`] — the model selector: "distributing requests among the
//!   architectures equally at first, monitoring their progress, and then
//!   slowly biasing requests toward the most effective choice."
//! * [`manager`] — the [`manager::TransferManager`] façade: admits flows,
//!   picks a model, applies the scheduling policy, and reports per-class
//!   statistics.
//! * [`fairness`] — Jain's fairness index, the metric Figure 4 reports.
//! * [`fault`] — the failure domain: transient-vs-permanent error
//!   classification, retry/backoff policies, and deterministic
//!   fault-injection sources/sinks for testing the failure path.
//! * [`zerocopy`] — the `sendfile`/`copy_file_range`/`writev` primitives
//!   behind the non-transforming disk→socket fast path, with the
//!   unsupported-fd classification that demotes a flow back to the
//!   pooled loop.

pub mod adaptive;
pub mod bufpool;
pub mod cache;
pub mod concurrency;
pub mod fairness;
pub mod fault;
pub mod flow;
pub mod manager;
pub mod sched;
pub mod zerocopy;

pub use adaptive::AdaptiveSelector;
pub use bufpool::{BufPool, BufPoolStats, PooledBuf};
pub use cache::CacheModel;
pub use concurrency::ModelKind;
pub use fairness::jain_fairness;
pub use fault::{
    classify, ErrorClass, FailureKind, FaultBudget, FaultingSink, FaultingSource, FlakySource,
    RetryPolicy,
};
pub use flow::{DataSink, DataSource, Flow, FlowId, FlowMeta, MemSource, RawWindow};
pub use manager::{SchedPolicy, TransferManager, TransferStats};
pub use sched::{CacheAwareScheduler, FcfsScheduler, Scheduler, StrideScheduler};
