//! The NeST server: one user-level process, one listener per protocol —
//! every front registered through the [`crate::front::FrontRegistry`] and
//! accepted through the shared [`crate::session`] layer (one poller
//! thread, bounded per-protocol worker pools, admission control, idle
//! reaping, graceful drain).

use crate::config::NestConfig;
use crate::dispatcher::Dispatcher;
use crate::fhtable::FhTable;
use crate::front::{BoundFront, FrontRegistry, ProtocolFront};
use crate::fronts::{ChirpFront, FtpFront, HttpFront, IbpFront, NfsTcpFront};
use crate::handlers::nfs::{MountHandler, NfsHandler};
use crate::session::{SessionConfig, DEFAULT_DRAIN_DEADLINE};
use nest_proto::nfs::wire::{MOUNT_PROGRAM, MOUNT_VERSION, NFS_PROGRAM, NFS_VERSION};
use nest_sunrpc::server::{RpcServer, SpawnedRpcServer};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A running NeST appliance.
pub struct NestServer {
    dispatcher: Arc<Dispatcher>,
    registry: FrontRegistry,
    rpc: Option<SpawnedRpcServer>,
    /// Bound Chirp address, if serving.
    pub chirp_addr: Option<SocketAddr>,
    /// Bound HTTP address.
    pub http_addr: Option<SocketAddr>,
    /// Bound FTP control address.
    pub ftp_addr: Option<SocketAddr>,
    /// Bound GridFTP control address.
    pub gridftp_addr: Option<SocketAddr>,
    /// Bound NFS RPC address (UDP).
    pub nfs_addr: Option<SocketAddr>,
    /// Bound NFS-over-TCP address (record streams, same programs).
    pub nfs_tcp_addr: Option<SocketAddr>,
    /// Bound IBP depot address, when enabled.
    pub ibp_addr: Option<SocketAddr>,
}

impl NestServer {
    /// Starts the appliance: builds the dispatcher, constructs every
    /// enabled built-in front plus the configured plugin fronts, and
    /// registers each with the front registry.
    pub fn start(mut config: NestConfig) -> io::Result<Self> {
        // Reject inconsistent configurations up front (the builder already
        // validates; this covers configs assembled field by field).
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let extra_fronts = std::mem::take(&mut config.extra_fronts);
        let dispatcher = Arc::new(Dispatcher::new(&config)?);
        let session_cfg = SessionConfig {
            max_conns: config.max_conns,
            max_conns_per_protocol: config.max_conns_per_protocol,
            queue_depth: config.accept_queue_depth,
            idle_timeout: config.idle_timeout,
        };
        let mut registry = FrontRegistry::new(Arc::clone(dispatcher.obs()), session_cfg);

        let mut chirp_addr = None;
        let mut http_addr = None;
        let mut ftp_addr = None;
        let mut gridftp_addr = None;
        let mut ibp_addr = None;

        if let Some(port) = config.ports.chirp {
            let front = Arc::new(ChirpFront::new(Arc::clone(&dispatcher)));
            chirp_addr = Some(registry.register_on(front, port)?);
        }
        if let Some(port) = config.ports.http {
            let front = Arc::new(HttpFront::new(Arc::clone(&dispatcher)));
            http_addr = Some(registry.register_on(front, port)?);
        }
        if let Some(port) = config.ports.ftp {
            let front = Arc::new(FtpFront::new(Arc::clone(&dispatcher)));
            ftp_addr = Some(registry.register_on(front, port)?);
        }
        if let Some(port) = config.ports.gridftp {
            let front = Arc::new(FtpFront::gridftp(Arc::clone(&dispatcher)));
            gridftp_addr = Some(registry.register_on(front, port)?);
        }
        if let Some(port) = config.ports.ibp {
            let front = Arc::new(IbpFront::new(config.capacity));
            ibp_addr = Some(registry.register_on(front, port)?);
        }

        let (rpc, nfs_addr, nfs_tcp_addr) = if config.ports.nfs.is_some() {
            let fhs = Arc::new(FhTable::new());
            let mut rpc_server = RpcServer::new();
            rpc_server.register(
                NFS_PROGRAM,
                NFS_VERSION,
                NfsHandler::new(Arc::clone(&dispatcher), Arc::clone(&fhs)),
            );
            rpc_server.register(MOUNT_PROGRAM, MOUNT_VERSION, MountHandler::new(fhs));
            let spawned = SpawnedRpcServer::spawn(rpc_server)?;
            let udp_addr = spawned.udp_addr;
            // NFS over TCP: record streams through the session layer, so
            // the same caps/idle/drain semantics apply as everywhere else.
            // (The UDP side stays outside the registry: it is datagram
            // RPC, not a connection stream.)
            let front = Arc::new(NfsTcpFront::new(Arc::clone(spawned.server())));
            let tcp_addr = registry.register_on(front, 0)?;
            (Some(spawned), Some(udp_addr), Some(tcp_addr))
        } else {
            (None, None, None)
        };

        // Plugin fronts from the configuration, in declaration order.
        for extra in extra_fronts {
            let front = (extra.factory)(&dispatcher);
            registry.register_on(front, extra.port)?;
        }

        registry.start()?;

        Ok(Self {
            dispatcher,
            registry,
            rpc,
            chirp_addr,
            http_addr,
            ftp_addr,
            gridftp_addr,
            nfs_addr,
            nfs_tcp_addr,
            ibp_addr,
        })
    }

    /// The appliance's dispatcher (for administration and inspection).
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// Every registered front (name, bound address, and the front itself),
    /// in registration order.
    pub fn fronts(&self) -> &[BoundFront] {
        self.registry.fronts()
    }

    /// A front's bound TCP address, by protocol name (plugin fronts have
    /// no dedicated `*_addr` field).
    pub fn front_addr(&self, name: &str) -> Option<SocketAddr> {
        self.registry.addr(name)
    }

    /// A registered front, by protocol name.
    pub fn front(&self, name: &str) -> Option<&Arc<dyn ProtocolFront>> {
        self.registry
            .fronts()
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.front())
    }

    /// Administrative helper: grants a default lot to a user without a
    /// Chirp round trip — "when system administrators grant access to a
    /// NeST, they can simultaneously make a set of default lots for users."
    pub fn grant_default_lot(&self, user: &str, capacity: u64, duration: u64) -> io::Result<u64> {
        self.dispatcher
            .storage()
            .admin_grant_lot(
                nest_storage::lot::LotOwner::User(user.to_owned()),
                capacity,
                duration,
            )
            .map(|id| {
                self.dispatcher.persist_lots();
                id.0
            })
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// Gracefully drains with the default deadline: stops accepting,
    /// lets established connections finish their current request streams,
    /// then closes stragglers and joins every server thread.
    pub fn shutdown(self) {
        self.shutdown_within(DEFAULT_DRAIN_DEADLINE);
    }

    /// Gracefully drains within `deadline`: stops accepting, signals
    /// in-flight handlers through the shared shutdown token they poll
    /// between requests, waits up to the deadline for them to finish,
    /// hard-closes whatever is still on the wire, and joins the worker
    /// pools before returning.
    pub fn shutdown_within(mut self, deadline: Duration) {
        self.registry.drain(deadline);
        if let Some(rpc) = self.rpc.take() {
            rpc.shutdown();
        }
    }
}
