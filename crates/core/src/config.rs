//! Appliance configuration.
//!
//! [`NestConfig`] is assembled through [`NestConfigBuilder`], which
//! validates the combination before an appliance is built from it:
//! configurations that cannot work (no name, quota enforcement over zero
//! capacity, an explicit storage guarantee with lots disabled, two
//! protocols fighting over one port) are rejected at `build()` time rather
//! than surfacing as confusing runtime failures.

use crate::dispatcher::Dispatcher;
use crate::front::ProtocolFront;
use nest_obs::Obs;
use nest_proto::gsi::{GridMap, GsiAuthenticator, SimCa};
use nest_transfer::manager::{ModelSelection, SchedPolicy};
use nest_transfer::{ModelKind, RetryPolicy};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// What a transfer's scheduling class is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedClass {
    /// Class = protocol name ("chirp", "nfs", ...), as in the paper.
    Protocol,
    /// Class = authenticated local user name (anonymous included), the
    /// paper's per-user extension. Ticket tables then name users.
    User,
}

/// Which physical storage backs the appliance.
#[derive(Debug, Clone)]
pub enum BackendKind {
    /// Main memory (tests, benchmarks, the paper's in-cache workloads).
    Memory,
    /// A host directory.
    LocalFs(PathBuf),
}

/// A configuration rejected by [`NestConfigBuilder::build`] or
/// [`NestConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The appliance name is empty (it keys the published ClassAd).
    EmptyName,
    /// Lot enforcement requires a nonzero managed capacity.
    NoCapacity,
    /// An explicit capacity guarantee was requested with lots disabled —
    /// without lots there is no mechanism to honor the guarantee.
    CapacityWithoutLots,
    /// Two protocols were given the same fixed port.
    DuplicatePort(u16),
    /// The global connection cap is zero, so nothing could ever connect.
    ZeroMaxConns,
    /// The per-protocol cap is zero, so no protocol could ever admit a
    /// connection.
    ZeroPerProtocolCap,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyName => write!(f, "appliance name must be non-empty"),
            ConfigError::NoCapacity => {
                write!(f, "lot enforcement requires a nonzero capacity")
            }
            ConfigError::CapacityWithoutLots => {
                write!(f, "an explicit capacity guarantee requires lot enforcement")
            }
            ConfigError::DuplicatePort(p) => {
                write!(f, "two protocols configured on the same port {}", p)
            }
            ConfigError::ZeroMaxConns => write!(f, "max_conns == 0 admits nothing"),
            ConfigError::ZeroPerProtocolCap => {
                write!(f, "max_conns_per_protocol == 0 admits nothing")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builds a plugin protocol front once the appliance's dispatcher exists
/// (fronts usually capture it); called exactly once by `NestServer::start`.
pub type FrontFactory = Box<dyn FnOnce(&Arc<Dispatcher>) -> Arc<dyn ProtocolFront> + Send>;

/// A plugin front requested through the builder: the port to serve it on
/// (0 = ephemeral) and the factory that constructs it.
pub struct ExtraFront {
    /// Listening port (0 for ephemeral).
    pub port: u16,
    /// Front constructor, consumed at server start.
    pub factory: FrontFactory,
}

/// Configuration for one NeST instance.
pub struct NestConfig {
    /// Appliance name (appears in its published ClassAd).
    pub name: String,
    /// Physical storage.
    pub backend: BackendKind,
    /// Total bytes under lot management.
    pub capacity: u64,
    /// Whether lots are enforced (disable to reproduce the Figure 6
    /// quota-off baseline or to run an open server).
    pub enforce_lots: bool,
    /// Best-effort lot reclamation policy.
    pub reclaim: nest_storage::ReclaimPolicy,
    /// Transfer scheduling policy.
    pub sched: SchedPolicy,
    /// How flows are grouped into scheduling classes: by protocol (the
    /// 2002 behavior) or by authenticated user (the paper's announced
    /// extension: "in the future, we plan to extend this to provide
    /// preferences on a per-user basis").
    pub sched_class: SchedClass,
    /// Concurrency model selection.
    pub model: ModelSelection,
    /// Simulated-GSI authenticator (None disables GSI; only anonymous
    /// access is then possible on every protocol).
    pub gsi: Option<GsiAuthenticator>,
    /// Listening ports, 0 for ephemeral. Protocols set to None are not
    /// served.
    pub ports: Ports,
    /// Size of the modelled kernel buffer cache (gray-box cache model).
    pub cache_bytes: u64,
    /// Byte budget for the actuating in-memory storage tier: a bounded,
    /// lot-aware RAM cache under the storage manager that promotes hot
    /// objects to serve at memory speed. `0` (the default) disables the
    /// tier entirely — the data path is then byte-identical to an
    /// appliance built before the tier existed.
    pub ram_tier_bytes: u64,
    /// Observability registry shared with the appliance. `None` makes the
    /// dispatcher create a private one; pass a registry to read the same
    /// instruments from outside (tests, embedding monitors).
    pub obs: Option<Arc<Obs>>,
    /// Retry policy stamped onto every transfer the dispatcher submits.
    /// Transient I/O failures are retried with exponential backoff within
    /// this budget when both endpoints can be replayed. Default:
    /// [`RetryPolicy::standard`].
    pub retry: RetryPolicy,
    /// Per-transfer deadline stamped onto dispatcher-submitted flows;
    /// `None` (the default) means transfers may run indefinitely.
    pub transfer_deadline: Option<Duration>,
    /// Global cap on simultaneously admitted connections across every
    /// protocol front-end; must be nonzero. Default: 256.
    pub max_conns: usize,
    /// Per-protocol bound on connections concurrently *being served*
    /// (the worker-pool size for that protocol). Default: 64.
    pub max_conns_per_protocol: usize,
    /// Connections over the per-protocol cap wait in a bounded queue of
    /// this depth before the appliance rejects with the protocol's
    /// overload reply. Default: 0 (reject immediately at the cap).
    pub accept_queue_depth: usize,
    /// Per-connection idle deadline: a connection that sends no request
    /// bytes for this long is reaped. `None` (the default) keeps idle
    /// connections forever.
    pub idle_timeout: Option<Duration>,
    /// Plugin protocol fronts (beyond the built-in six) registered with
    /// the appliance's `FrontRegistry` at start, in order. Each factory
    /// receives the dispatcher and returns the front to serve.
    pub extra_fronts: Vec<ExtraFront>,
    /// Stripe count for the appliance's sharded tables (lot table, quota
    /// table, handle cache, mem-tier presence index, fh table, session
    /// live registry, transfer stats). `1` selects the single-mutex
    /// ablation — the pre-sharding serialization points, for the scale
    /// bench baseline. Default: 8.
    pub shards: usize,
}

/// Per-protocol listening ports; `None` disables the protocol.
#[derive(Debug, Clone, Copy)]
pub struct Ports {
    /// Chirp control port.
    pub chirp: Option<u16>,
    /// HTTP port.
    pub http: Option<u16>,
    /// FTP control port.
    pub ftp: Option<u16>,
    /// GridFTP control port.
    pub gridftp: Option<u16>,
    /// NFS RPC port (UDP and TCP).
    pub nfs: Option<u16>,
    /// IBP depot port (None by default: it is the paper's announced
    /// extension, opt-in via [`NestConfigBuilder::ibp`]).
    pub ibp: Option<u16>,
}

impl Ports {
    fn all(&self) -> [Option<u16>; 6] {
        [
            self.chirp,
            self.http,
            self.ftp,
            self.gridftp,
            self.nfs,
            self.ibp,
        ]
    }
}

impl Default for Ports {
    fn default() -> Self {
        // Ephemeral everywhere: ideal for tests and co-located instances.
        Self {
            chirp: Some(0),
            http: Some(0),
            ftp: Some(0),
            gridftp: Some(0),
            nfs: Some(0),
            ibp: None,
        }
    }
}

impl Default for NestConfig {
    fn default() -> Self {
        Self {
            name: "nest".into(),
            backend: BackendKind::Memory,
            capacity: 1 << 30,
            enforce_lots: true,
            reclaim: nest_storage::ReclaimPolicy::ExpiredFirst,
            sched: SchedPolicy::Fcfs,
            sched_class: SchedClass::Protocol,
            model: ModelSelection::Adaptive(vec![
                ModelKind::Threads,
                ModelKind::Processes,
                ModelKind::Events,
            ]),
            gsi: None,
            ports: Ports::default(),
            cache_bytes: 256 << 20,
            ram_tier_bytes: 0,
            obs: None,
            retry: RetryPolicy::standard(),
            transfer_deadline: None,
            max_conns: 256,
            max_conns_per_protocol: 64,
            accept_queue_depth: 0,
            idle_timeout: None,
            extra_fronts: Vec::new(),
            shards: 8,
        }
    }
}

impl NestConfig {
    /// Starts a builder for a named appliance.
    pub fn builder(name: impl Into<String>) -> NestConfigBuilder {
        NestConfigBuilder {
            config: Self {
                name: name.into(),
                ..Self::default()
            },
            capacity_set: false,
        }
    }

    /// A named in-memory appliance with all protocols on ephemeral ports —
    /// the configuration tests and examples use.
    pub fn ephemeral(name: &str) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Checks the configuration's internal consistency. `build()` calls
    /// this; code that assembles a `NestConfig` field by field (e.g. from
    /// command-line flags) should call it before starting an appliance.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.name.is_empty() {
            return Err(ConfigError::EmptyName);
        }
        if self.enforce_lots && self.capacity == 0 {
            return Err(ConfigError::NoCapacity);
        }
        // Fixed (nonzero) ports must be unique; ephemeral (0) and disabled
        // ports cannot clash.
        let mut fixed: Vec<u16> = self
            .ports
            .all()
            .iter()
            .filter_map(|p| p.filter(|&p| p != 0))
            .chain(self.extra_fronts.iter().map(|f| f.port).filter(|&p| p != 0))
            .collect();
        fixed.sort_unstable();
        for pair in fixed.windows(2) {
            if pair[0] == pair[1] {
                return Err(ConfigError::DuplicatePort(pair[0]));
            }
        }
        if self.max_conns == 0 {
            return Err(ConfigError::ZeroMaxConns);
        }
        if self.max_conns_per_protocol == 0 {
            return Err(ConfigError::ZeroPerProtocolCap);
        }
        Ok(())
    }
}

/// Builder for [`NestConfig`]; see the module docs for what
/// [`NestConfigBuilder::build`] rejects.
pub struct NestConfigBuilder {
    config: NestConfig,
    /// Whether the caller set capacity explicitly (an explicit guarantee
    /// combined with `lots(false)` is contradictory and rejected).
    capacity_set: bool,
}

impl NestConfigBuilder {
    /// Physical storage backing the appliance.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Total bytes under lot management (the guaranteed-storage pool).
    pub fn capacity(mut self, bytes: u64) -> Self {
        self.config.capacity = bytes;
        self.capacity_set = true;
        self
    }

    /// Enables or disables lot enforcement.
    pub fn lots(mut self, enforce: bool) -> Self {
        self.config.enforce_lots = enforce;
        self
    }

    /// Best-effort lot reclamation policy.
    pub fn reclaim(mut self, policy: nest_storage::ReclaimPolicy) -> Self {
        self.config.reclaim = policy;
        self
    }

    /// Transfer scheduling policy.
    pub fn sched(mut self, sched: SchedPolicy) -> Self {
        self.config.sched = sched;
        self
    }

    /// What transfers are classed on (protocol or user).
    pub fn sched_class(mut self, class: SchedClass) -> Self {
        self.config.sched_class = class;
        self
    }

    /// Concurrency-model selection.
    pub fn model(mut self, model: ModelSelection) -> Self {
        self.config.model = model;
        self
    }

    /// Uses one fixed concurrency model instead of adaptation.
    pub fn fixed_model(self, model: ModelKind) -> Self {
        self.model(ModelSelection::Fixed(model))
    }

    /// Attaches a simulated GSI authenticator built from a CA and mapfile.
    pub fn gsi(mut self, ca: SimCa, gridmap: GridMap) -> Self {
        self.config.gsi = Some(GsiAuthenticator::new(ca, gridmap));
        self
    }

    /// Replaces the whole port table.
    pub fn ports(mut self, ports: Ports) -> Self {
        self.config.ports = ports;
        self
    }

    /// Enables (ephemeral port) or disables the IBP depot listener.
    pub fn ibp(mut self, enabled: bool) -> Self {
        self.config.ports.ibp = if enabled { Some(0) } else { None };
        self
    }

    /// Adds a plugin protocol front on its own choice of port (the
    /// front's `default_port`, or ephemeral). The factory runs at server
    /// start, once the dispatcher exists.
    pub fn front<F>(self, factory: F) -> Self
    where
        F: FnOnce(&Arc<Dispatcher>) -> Arc<dyn ProtocolFront> + Send + 'static,
    {
        self.front_on(0, factory)
    }

    /// Adds a plugin protocol front on an explicit port (0 = ephemeral).
    pub fn front_on<F>(mut self, port: u16, factory: F) -> Self
    where
        F: FnOnce(&Arc<Dispatcher>) -> Arc<dyn ProtocolFront> + Send + 'static,
    {
        self.config.extra_fronts.push(ExtraFront {
            port,
            factory: Box::new(factory),
        });
        self
    }

    /// Size of the modelled kernel buffer cache.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Byte budget for the in-memory storage tier (`0` disables it; see
    /// [`NestConfig::ram_tier_bytes`]).
    pub fn ram_tier_bytes(mut self, bytes: u64) -> Self {
        self.config.ram_tier_bytes = bytes;
        self
    }

    /// Shares an observability registry with the appliance, so callers can
    /// read its instruments from outside.
    pub fn obs(mut self, obs: Arc<Obs>) -> Self {
        self.config.obs = Some(obs);
        self
    }

    /// Retry policy for transient transfer failures
    /// ([`RetryPolicy::none`] disables retries).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Per-transfer wall-clock deadline (`None` disables deadlines).
    pub fn transfer_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.transfer_deadline = deadline;
        self
    }

    /// Global cap on simultaneously admitted connections (nonzero).
    pub fn max_conns(mut self, cap: usize) -> Self {
        self.config.max_conns = cap;
        self
    }

    /// Per-protocol worker-pool size (connections served concurrently).
    pub fn max_conns_per_protocol(mut self, cap: usize) -> Self {
        self.config.max_conns_per_protocol = cap;
        self
    }

    /// Admission queue depth per protocol before overload rejection.
    pub fn accept_queue_depth(mut self, depth: usize) -> Self {
        self.config.accept_queue_depth = depth;
        self
    }

    /// Per-connection idle deadline (`None` keeps idle connections).
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.idle_timeout = timeout;
        self
    }

    /// Stripe count for the appliance's sharded tables (`1` = the
    /// single-mutex ablation; see [`NestConfig::shards`]). Clamped to at
    /// least 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<NestConfig, ConfigError> {
        if self.capacity_set && !self.config.enforce_lots {
            return Err(ConfigError::CapacityWithoutLots);
        }
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_validated_config() {
        let obs = Obs::new();
        let config = NestConfig::builder("turkey")
            .capacity(1 << 20)
            .fixed_model(ModelKind::Events)
            .sched_class(SchedClass::User)
            .ibp(true)
            .obs(Arc::clone(&obs))
            .build()
            .unwrap();
        assert_eq!(config.name, "turkey");
        assert_eq!(config.capacity, 1 << 20);
        assert_eq!(config.sched_class, SchedClass::User);
        assert_eq!(config.ports.ibp, Some(0));
        assert!(config.obs.is_some());
        config.validate().unwrap();
    }

    #[test]
    fn builder_rejects_empty_name() {
        assert_eq!(
            NestConfig::builder("").build().err().unwrap(),
            ConfigError::EmptyName
        );
    }

    #[test]
    fn builder_rejects_quota_without_capacity() {
        assert_eq!(
            NestConfig::builder("n").capacity(0).build().err().unwrap(),
            ConfigError::NoCapacity
        );
    }

    #[test]
    fn builder_rejects_capacity_with_lots_disabled() {
        assert_eq!(
            NestConfig::builder("n")
                .capacity(1 << 20)
                .lots(false)
                .build()
                .err()
                .unwrap(),
            ConfigError::CapacityWithoutLots
        );
        // Disabling lots without promising capacity is fine.
        assert!(NestConfig::builder("n").lots(false).build().is_ok());
    }

    #[test]
    fn builder_carries_session_limits() {
        let config = NestConfig::builder("caps")
            .max_conns(32)
            .max_conns_per_protocol(4)
            .accept_queue_depth(2)
            .idle_timeout(Some(Duration::from_millis(250)))
            .build()
            .unwrap();
        assert_eq!(config.max_conns, 32);
        assert_eq!(config.max_conns_per_protocol, 4);
        assert_eq!(config.accept_queue_depth, 2);
        assert_eq!(config.idle_timeout, Some(Duration::from_millis(250)));
    }

    #[test]
    fn builder_carries_ram_tier_budget() {
        let config = NestConfig::builder("tiered")
            .ram_tier_bytes(64 << 20)
            .build()
            .unwrap();
        assert_eq!(config.ram_tier_bytes, 64 << 20);
        assert_eq!(
            NestConfig::builder("flat").build().unwrap().ram_tier_bytes,
            0
        );
    }

    #[test]
    fn builder_rejects_zero_max_conns() {
        assert_eq!(
            NestConfig::builder("x").max_conns(0).build().err().unwrap(),
            ConfigError::ZeroMaxConns
        );
        // A field-assembled config skips the builder; the server refuses it.
        let config = NestConfig {
            max_conns: 0,
            ..NestConfig::ephemeral("x")
        };
        let err = crate::NestServer::start(config).err().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn builder_rejects_zero_per_protocol_cap() {
        assert_eq!(
            NestConfig::builder("n")
                .max_conns(8)
                .max_conns_per_protocol(0)
                .build()
                .err()
                .unwrap(),
            ConfigError::ZeroPerProtocolCap
        );
    }

    #[test]
    fn builder_rejects_port_clashes() {
        let ports = Ports {
            chirp: Some(9094),
            http: Some(9094),
            ..Ports::default()
        };
        assert_eq!(
            NestConfig::builder("n").ports(ports).build().err().unwrap(),
            ConfigError::DuplicatePort(9094)
        );
        // Ephemeral ports (0) never clash.
        assert!(NestConfig::builder("n")
            .ports(Ports::default())
            .build()
            .is_ok());
    }
}
