//! # nest-core
//!
//! The NeST appliance itself (paper §2): the **dispatcher** that routes
//! macro-requests, the protocol **handlers** that speak Chirp, HTTP, FTP,
//! GridFTP and NFS over real sockets, and the **server** that binds them
//! all into one user-level process — "an open-source, user-level,
//! software-only storage appliance."
//!
//! * [`config`] — appliance configuration (storage, scheduling, models,
//!   authentication, ports).
//! * [`dispatcher`] — "the main scheduler and macro-request router in the
//!   system": synchronous storage-manager execution, asynchronous transfer
//!   hand-off, ClassAd publication, third-party transfer orchestration.
//! * [`handlers`] — one handler per protocol, each translating its wire
//!   format to the common request interface and back.
//! * [`front`] — the protocol front API: the [`front::ProtocolFront`]
//!   trait every wire protocol implements and the
//!   [`front::FrontRegistry`] that owns listener binding, session-layer
//!   registration, and metric wiring. New protocols (in any crate) plug
//!   in here.
//! * [`fronts`] — the six built-in [`front::ProtocolFront`]
//!   implementations, thin adapters over [`handlers`].
//! * [`server`] — [`server::NestServer`]: binds every protocol's listener
//!   (one process, many ports), spawns accept loops, and exposes the bound
//!   addresses for clients.
//! * [`fhtable`] — the NFS file-handle table (handle ↔ virtual path, with
//!   generation tags so deleted files yield `NFSERR_STALE`).
//! * [`procpool`] — a no-op placeholder the benchmark still names; the
//!   appliance runs no process concurrency model (DESIGN §2).
//! * [`session`] — the shared connection-lifecycle subsystem: one poller
//!   thread multiplexing every listening socket, bounded per-protocol
//!   worker pools with admission control, idle reaping, and graceful
//!   drain. Every front-end (and every jbos standalone server) accepts
//!   through it.

pub mod config;
pub mod dispatcher;
pub mod fhtable;
pub mod front;
pub mod fronts;
pub mod handlers;
pub mod procpool;
pub mod server;
pub mod session;

pub use config::NestConfig;
pub use dispatcher::Dispatcher;
pub use front::{FrontRegistry, ProtocolFront};
pub use server::NestServer;
