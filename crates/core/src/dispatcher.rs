//! The dispatcher (paper §2.1): "the main scheduler and macro-request
//! router in the system ... It examines each client request received by the
//! protocol layer and routes each appropriately to either the storage or
//! the transfer manager. Data movement requests are sent to the transfer
//! manager; all other requests such as resource management and directory
//! operation requests are handled by the storage manager."
//!
//! The dispatcher also "periodically consolidates information about
//! resource and data availability in the NeST and can publish this
//! information as a ClassAd into a global scheduling system" —
//! [`Dispatcher::storage_ad`] builds that ad.

use crate::config::{BackendKind, NestConfig, SchedClass};
use crate::procpool::SubprocessLauncher;
use nest_classad::ClassAd;
use nest_obs::{Counter, Histogram, Obs};
use nest_proto::gridftp::{third_party, GridFtpClient};
use nest_proto::gsi::{AuthError, Credential, GsiAuthenticator};
use nest_proto::request::{NestError, NestRequest, NestResponse, TransferUrl};
use nest_storage::acl::{AclEntry, Who};
use nest_storage::{
    atomic_replace, AclTable, LocalFsBackend, LotId, MemBackend, Principal, StorageBackend,
    StorageError, StorageManager, VPath,
};
use nest_transfer::cache::CacheModel;
use nest_transfer::flow::{DataSink, DataSource, FlowMeta};
use nest_transfer::manager::{TransferConfig, TransferManager, TransferStats};
use nest_transfer::RetryPolicy;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Dispatcher-level instruments: request mix and control-plane cost.
///
/// Metric names: `dispatch.requests`, `dispatch.errors`,
/// `dispatch.auth_failures`, `dispatch.op.<verb>`,
/// `dispatch.cache.predicted_hits` / `.predicted_misses` — counters;
/// `dispatch.sync_us` — synchronous-request latency histogram.
struct DispatchMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    auth_failures: Arc<Counter>,
    cache_predicted_hits: Arc<Counter>,
    cache_predicted_misses: Arc<Counter>,
    sync_us: Arc<Histogram>,
}

impl DispatchMetrics {
    fn new(obs: &Obs) -> Self {
        let m = &obs.metrics;
        Self {
            requests: m.counter("dispatch.requests"),
            errors: m.counter("dispatch.errors"),
            auth_failures: m.counter("dispatch.auth_failures"),
            cache_predicted_hits: m.counter("dispatch.cache.predicted_hits"),
            cache_predicted_misses: m.counter("dispatch.cache.predicted_misses"),
            sync_us: m.histogram("dispatch.sync_us"),
        }
    }
}

/// The Chirp verb (or closest equivalent) for a request, keying the
/// per-operation request-mix counters.
fn op_name(req: &NestRequest) -> &'static str {
    match req {
        NestRequest::Mkdir { .. } => "mkdir",
        NestRequest::Rmdir { .. } => "rmdir",
        NestRequest::ListDir { .. } => "ls",
        NestRequest::Stat { .. } => "stat",
        NestRequest::Get { .. } => "get",
        NestRequest::Put { .. } => "put",
        NestRequest::Delete { .. } => "unlink",
        NestRequest::Rename { .. } => "rename",
        NestRequest::LotCreate { .. } => "lot_create",
        NestRequest::LotCreateGroup { .. } => "lot_create_group",
        NestRequest::LotRenew { .. } => "lot_renew",
        NestRequest::LotTerminate { .. } => "lot_terminate",
        NestRequest::LotStat { .. } => "lot_stat",
        NestRequest::LotList => "lot_list",
        NestRequest::SetAcl { .. } => "setacl",
        NestRequest::GetAcl { .. } => "getacl",
        NestRequest::ThirdParty { .. } => "third_party",
        NestRequest::Quit => "quit",
    }
}

/// The dispatcher: one per appliance, shared by every protocol handler.
pub struct Dispatcher {
    /// Appliance name (for ads and logs).
    pub name: String,
    storage: Arc<StorageManager>,
    transfers: TransferManager,
    cache: Arc<CacheModel>,
    gsi: Option<GsiAuthenticator>,
    /// Credential used for *outbound* connections during third-party
    /// transfers (simulated delegation).
    service_cred: Option<Credential>,
    /// How flows map to scheduling classes.
    sched_class: SchedClass,
    /// Where ACLs persist across restarts (disk-backed appliances only):
    /// a sibling file of the storage root, outside the served namespace.
    acl_store: Option<std::path::PathBuf>,
    /// Shared observability registry.
    obs: Arc<Obs>,
    metrics: DispatchMetrics,
    /// Retry policy stamped onto every submitted flow.
    retry: RetryPolicy,
    /// Deadline stamped onto every submitted flow (None = unbounded).
    transfer_deadline: Option<Duration>,
    /// The session layer's global connection cap, published in the
    /// discovery ad as `MaxConnections`.
    max_conns: usize,
}

impl Dispatcher {
    /// Builds the appliance internals from a configuration.
    pub fn new(config: &NestConfig) -> io::Result<Self> {
        let mut acl_store = None;
        let mut lot_store = None;
        let obs = config.obs.clone().unwrap_or_default();
        let backend: Arc<dyn StorageBackend> = match &config.backend {
            BackendKind::Memory => Arc::new(MemBackend::new()),
            BackendKind::LocalFs(root) => {
                // ACLs and lots persist in sibling files, outside the
                // namespace clients can reach.
                let mut store = root.clone().into_os_string();
                store.push(".acls");
                acl_store = Some(std::path::PathBuf::from(store));
                let mut store = root.clone().into_os_string();
                store.push(".lots");
                lot_store = Some(std::path::PathBuf::from(store));
                // Disk chunk I/O runs through the backend's FD handle
                // cache; publish handlecache.* on the shared registry.
                Arc::new(LocalFsBackend::new(root)?.with_obs(&obs))
            }
        };
        let acl = match &acl_store {
            Some(path) if path.exists() => load_acls(path)?,
            _ => AclTable::open_by_default(),
        };
        let mut storage = StorageManager::new(backend, acl, config.capacity, config.reclaim);
        if !config.enforce_lots {
            storage = storage.with_lots_disabled();
        }
        // The gray-box cache model doubles as the memory tier's promotion
        // oracle, so it must exist before the storage manager is built.
        let cache = Arc::new(CacheModel::new(config.cache_bytes));
        let hint_cache = Arc::clone(&cache);
        let mut storage = storage
            .with_ram_tier(config.ram_tier_bytes)
            .with_residency_hint(Arc::new(move |path: &str, size: u64| {
                hint_cache.predict_resident(path, size)
            }))
            .with_obs(&obs);
        if let Some(path) = &lot_store {
            storage = storage.with_lot_store(path)?;
        }
        let transfers = TransferManager::new(TransferConfig {
            policy: config.sched.clone(),
            model: config.model.clone(),
            chunk_size: 64 * 1024,
            process_launcher: Arc::new(SubprocessLauncher::new()),
            obs: Some(Arc::clone(&obs)),
            ..TransferConfig::default()
        });
        let metrics = DispatchMetrics::new(&obs);
        // Pre-register the writev-coalescing counter so it shows up (at
        // zero) on every stats surface even before the first GET.
        obs.metrics.counter("transfer.zerocopy.writev_coalesced");
        if config.ram_tier_bytes > 0 {
            // Tier-resident GETs have no backing fd, so zerocopy demotes
            // cleanly; pre-register the bypass counter so the surfaces
            // show it at zero before the first tier-served flow. (With
            // the tier disabled nothing memtier.* is registered at all.)
            obs.metrics.counter("memtier.zc_bypassed");
        }
        // Surface the lock shim's per-class contention statistics
        // (lock.<class>.{acquires,contended,wait_us,hold_us}) on every
        // stats surface this registry feeds.
        obs.metrics.install_lock_stats();
        Ok(Self {
            name: config.name.clone(),
            storage: Arc::new(storage),
            transfers,
            cache,
            gsi: config.gsi.clone(),
            service_cred: None,
            sched_class: config.sched_class,
            acl_store,
            obs,
            metrics,
            retry: config.retry.clone(),
            transfer_deadline: config.transfer_deadline,
            max_conns: config.max_conns,
        })
    }

    /// Applies the appliance-wide failure policy (retry budget and
    /// deadline) to a flow about to be submitted.
    fn stamp_failure_policy(&self, mut meta: FlowMeta) -> FlowMeta {
        meta = meta.with_retry(self.retry.clone());
        if let Some(d) = self.transfer_deadline {
            meta = meta.with_deadline(d);
        }
        meta
    }

    /// The appliance's observability registry.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// One coherent metrics snapshot across every subsystem — the payload
    /// behind `GET /nest/stats`, the Chirp `stats` command and the
    /// published ClassAd's measured attributes.
    pub fn metrics_snapshot(&self) -> nest_obs::MetricsSnapshot {
        // Occupancy gauges are pull-updated: refresh before reading.
        self.storage.refresh_gauges();
        self.obs.snapshot()
    }

    /// The scheduling class for a flow: protocol or user, per config.
    fn class_for(&self, who: &Principal, protocol: &str) -> String {
        match self.sched_class {
            SchedClass::Protocol => protocol.to_owned(),
            SchedClass::User => who.user.clone(),
        }
    }

    /// Sets the credential used for outbound third-party legs.
    pub fn set_service_credential(&mut self, cred: Credential) {
        self.service_cred = Some(cred);
    }

    /// The storage manager (tests and the grid example inspect it).
    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.storage
    }

    /// Transfer statistics (per class / per model).
    pub fn transfer_stats(&self) -> TransferStats {
        self.transfers.stats()
    }

    /// The gray-box cache model.
    pub fn cache(&self) -> &Arc<CacheModel> {
        &self.cache
    }

    /// Authenticates a GSI credential, returning the mapped principal.
    pub fn authenticate(&self, cred: &Credential) -> Result<Principal, AuthError> {
        let result = match &self.gsi {
            None => Err(AuthError::BadCredential),
            Some(auth) => auth
                .authenticate(cred)
                .map(|user| self.storage.acl().resolve(&user)),
        };
        if result.is_err() {
            self.metrics.auth_failures.inc();
        }
        result
    }

    // -- synchronous (storage manager) requests ----------------------------

    /// Executes a non-transfer request synchronously against the storage
    /// manager, per the paper's control flow. Transfer requests return
    /// `BadRequest` here — handlers must use the transfer entry points.
    pub fn execute_sync(&self, who: &Principal, protocol: &str, req: &NestRequest) -> NestResponse {
        let start = std::time::Instant::now();
        self.metrics.requests.inc();
        self.obs
            .metrics
            .counter(&format!("dispatch.op.{}", op_name(req)))
            .inc();
        let sm = &self.storage;
        let result: Result<NestResponse, StorageError> = (|| {
            Ok(match req {
                NestRequest::Mkdir { path } => {
                    sm.mkdir(who, protocol, &VPath::parse(path)?)?;
                    NestResponse::Ok
                }
                NestRequest::Rmdir { path } => {
                    sm.rmdir(who, protocol, &VPath::parse(path)?)?;
                    NestResponse::Ok
                }
                NestRequest::ListDir {
                    path,
                    prefix: None,
                    delimiter: None,
                } => NestResponse::OkText(sm.list(who, protocol, &VPath::parse(path)?)?),
                NestRequest::ListDir {
                    path,
                    prefix,
                    delimiter,
                } => {
                    // Object-style listing. Encoded line-oriented so it fits
                    // the protocol-independent OkText payload:
                    // `K <size> <key>` per object, `P <prefix>` per rolled-up
                    // common prefix (keys may contain spaces; size first).
                    let listing = sm.list_objects(
                        who,
                        protocol,
                        &VPath::parse(path)?,
                        prefix.as_deref().unwrap_or(""),
                        delimiter.as_deref(),
                    )?;
                    let mut lines: Vec<String> = listing
                        .objects
                        .iter()
                        .map(|o| format!("K {} {}", o.size, o.key))
                        .collect();
                    lines.extend(listing.common_prefixes.iter().map(|p| format!("P {p}")));
                    NestResponse::OkText(lines)
                }
                NestRequest::Stat { path } => {
                    let st = sm.stat(who, protocol, &VPath::parse(path)?)?;
                    NestResponse::OkSize(st.size)
                }
                NestRequest::Delete { path } => {
                    let vpath = VPath::parse(path)?;
                    sm.remove(who, protocol, &vpath)?;
                    self.cache.invalidate(&vpath.to_string());
                    NestResponse::Ok
                }
                NestRequest::Rename { from, to } => {
                    let from = VPath::parse(from)?;
                    let to = VPath::parse(to)?;
                    sm.rename(who, protocol, &from, &to)?;
                    self.cache.invalidate(&from.to_string());
                    NestResponse::Ok
                }
                NestRequest::LotCreate { capacity, duration } => {
                    let id = sm.lot_create(who, *capacity, *duration)?;
                    NestResponse::OkLot(id.0)
                }
                NestRequest::LotCreateGroup {
                    group,
                    capacity,
                    duration,
                } => {
                    let id = sm.lot_create_group(who, group, *capacity, *duration)?;
                    NestResponse::OkLot(id.0)
                }
                NestRequest::LotRenew { id, extra } => {
                    sm.lot_renew(who, LotId(*id), *extra)?;
                    NestResponse::Ok
                }
                NestRequest::LotTerminate { id } => {
                    sm.lot_terminate(who, LotId(*id))?;
                    NestResponse::Ok
                }
                NestRequest::LotStat { id } => {
                    let lot = sm.lot_stat(who, LotId(*id))?;
                    NestResponse::OkText(vec![render_lot(&lot)])
                }
                NestRequest::LotList => {
                    NestResponse::OkText(sm.lot_list(who).iter().map(render_lot).collect())
                }
                NestRequest::SetAcl {
                    path,
                    principal,
                    rights,
                } => {
                    let dir = VPath::parse(path)?;
                    let who_spec = parse_who(principal)?;
                    let mut entries = sm.get_acl(who, protocol, &dir)?;
                    entries.retain(|e| e.who != who_spec);
                    if !rights.is_empty() && rights != "none" {
                        entries.push(AclEntry::new(who_spec, rights));
                    }
                    sm.set_acl(who, protocol, &dir, entries)?;
                    self.persist_acls();
                    NestResponse::Ok
                }
                NestRequest::GetAcl { path } => {
                    let entries = sm.get_acl(who, protocol, &VPath::parse(path)?)?;
                    NestResponse::OkText(
                        entries
                            .iter()
                            .map(|e| format!("{} {}", e.who, e.rights_string()))
                            .collect(),
                    )
                }
                NestRequest::Get { .. }
                | NestRequest::Put { .. }
                | NestRequest::ThirdParty { .. }
                | NestRequest::Quit => NestResponse::Error(NestError::BadRequest),
            })
        })();
        let resp = NestResponse::from_result(result);
        self.metrics.sync_us.record(start.elapsed());
        if matches!(resp, NestResponse::Error(_)) {
            self.metrics.errors.inc();
        }
        resp
    }

    // -- transfer admission + execution (transfer manager) -----------------

    /// Admits a GET: checks access, returns (path, size, predicted-cached).
    pub fn admit_get(
        &self,
        who: &Principal,
        protocol: &str,
        path: &str,
    ) -> Result<(VPath, u64, bool), NestError> {
        self.metrics.requests.inc();
        self.obs.metrics.counter("dispatch.op.get").inc();
        let vpath = VPath::parse(path).map_err(|_| NestError::BadRequest)?;
        let size = self
            .storage
            .begin_get(who, protocol, &vpath)
            .map_err(|e| self.note_error(NestError::from(&e)))?;
        let cached = self.cache.predict_resident(&vpath.to_string(), size);
        if cached {
            self.metrics.cache_predicted_hits.inc();
        } else {
            self.metrics.cache_predicted_misses.inc();
        }
        Ok((vpath, size, cached))
    }

    /// Counts an admission error before handing it back.
    fn note_error(&self, e: NestError) -> NestError {
        self.metrics.errors.inc();
        e
    }

    /// Admits a PUT: checks access, charges lots, creates the file.
    pub fn admit_put(
        &self,
        who: &Principal,
        protocol: &str,
        path: &str,
        size: Option<u64>,
    ) -> Result<VPath, NestError> {
        self.metrics.requests.inc();
        self.obs.metrics.counter("dispatch.op.put").inc();
        let vpath = VPath::parse(path).map_err(|_| NestError::BadRequest)?;
        self.storage
            .begin_put(who, protocol, &vpath, size.unwrap_or(0))
            .map_err(|e| self.note_error(NestError::from(&e)))?;
        Ok(vpath)
    }

    /// Runs an admitted GET through the transfer manager into `sink`.
    /// Blocks until the transfer completes; returns bytes moved.
    pub fn transfer_get(
        &self,
        who: &Principal,
        protocol: &str,
        vpath: &VPath,
        size: u64,
        cached: bool,
        sink: Box<dyn DataSink>,
    ) -> io::Result<u64> {
        let class = self.class_for(who, protocol);
        let mut meta = self.stamp_failure_policy(FlowMeta::new(
            self.transfers.next_flow_id(),
            class,
            Some(size),
        ));
        meta.predicted_cached = cached;
        // Tier-resident objects serve straight from the manager's RAM
        // copy: no open(2), no disk read, and — because a MemSource has no
        // backing fd — the zerocopy ladder demotes cleanly to the pooled
        // loop. That demotion is the intended path, not a fallback; count
        // it separately so `transfer.zerocopy.fallbacks` keeps meaning
        // "something was withdrawn mid-flow".
        let source: Box<dyn DataSource> = match self.storage.tier_object(vpath) {
            Some(obj) if obj.len() as u64 == size => {
                self.obs.metrics.counter("memtier.zc_bypassed").inc();
                Box::new(nest_transfer::flow::MemSource::new(obj))
            }
            _ => Box::new(BackendSource::new(
                Arc::clone(&self.storage),
                vpath.clone(),
                0,
                size,
            )),
        };
        let handle = self.transfers.submit(meta, source, sink);
        let moved = handle.wait()?;
        self.cache.observe_access(&vpath.to_string(), size);
        Ok(moved)
    }

    /// Runs an admitted PUT: pumps `source` into the file through the
    /// transfer manager. Returns bytes stored.
    pub fn transfer_put(
        &self,
        who: &Principal,
        protocol: &str,
        vpath: &VPath,
        source: Box<dyn DataSource>,
        size: Option<u64>,
    ) -> io::Result<u64> {
        let class = self.class_for(who, protocol);
        let meta =
            self.stamp_failure_policy(FlowMeta::new(self.transfers.next_flow_id(), class, size));
        let sink = Box::new(BackendSink::whole_file(
            Arc::clone(&self.storage),
            who.clone(),
            vpath.clone(),
        ));
        let handle = self.transfers.submit(meta, source, sink);
        let moved = handle.wait()?;
        self.cache.observe_access(&vpath.to_string(), moved);
        Ok(moved)
    }

    /// Builds a reply sink over a connected socket for a GET body — the
    /// one socket sink every stream-mode front uses: `head` (the rendered
    /// protocol header, empty when the dialect has none) is coalesced
    /// with the first body chunk into one `writev`, and the socket's
    /// descriptor is exposed so the remainder can go through `sendfile`
    /// when the flow's source can lend a raw file window.
    pub fn socket_sink(&self, stream: std::net::TcpStream, head: Vec<u8>) -> Box<dyn DataSink> {
        let counter = self
            .obs
            .metrics
            .counter("transfer.zerocopy.writev_coalesced");
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let fd = stream.as_raw_fd();
            Box::new(
                SocketSink::new(stream, head)
                    .with_coalesce_counter(counter)
                    .with_raw_fd(fd),
            )
        }
        #[cfg(not(unix))]
        {
            Box::new(SocketSink::new(stream, head).with_coalesce_counter(counter))
        }
    }

    /// NFS block read: a single block request is itself a scheduled flow,
    /// which is how cross-protocol policies see NFS traffic. Admitted by
    /// `begin_read`, so it never counts a memory-tier access or promotes:
    /// the backend serves the block.
    pub fn read_block(
        &self,
        who: &Principal,
        protocol: &str,
        vpath: &VPath,
        offset: u64,
        count: usize,
    ) -> Result<Vec<u8>, NestError> {
        // Access check (cheap; also feeds lot LRU).
        self.storage
            .begin_read(who, protocol, vpath)
            .map_err(|e| NestError::from(&e))?;
        let meta = self.stamp_failure_policy(FlowMeta::new(
            self.transfers.next_flow_id(),
            self.class_for(who, protocol),
            Some(count as u64),
        ));
        let source = Box::new(BackendSource::new(
            Arc::clone(&self.storage),
            vpath.clone(),
            offset,
            count as u64,
        ));
        let (sink, rx) = ChannelSink::new();
        let handle = self.transfers.submit(meta, source, Box::new(sink));
        handle.wait().map_err(|_| NestError::Internal)?;
        rx.recv().map_err(|_| NestError::Internal)
    }

    /// NFS block write, scheduled as a flow like every other transfer.
    /// Admitted by `begin_write`, so every block is checked against the
    /// Write right.
    pub fn write_block(
        &self,
        who: &Principal,
        protocol: &str,
        vpath: &VPath,
        offset: u64,
        data: Vec<u8>,
    ) -> Result<(), NestError> {
        self.storage
            .begin_write(who, protocol, vpath)
            .map_err(|e| NestError::from(&e))?;
        let meta = self.stamp_failure_policy(FlowMeta::new(
            self.transfers.next_flow_id(),
            self.class_for(who, protocol),
            Some(data.len() as u64),
        ));
        let source = Box::new(io::Cursor::new(data));
        let sink = Box::new(BackendSink::block(
            Arc::clone(&self.storage),
            who.clone(),
            vpath.clone(),
            offset,
        ));
        let handle = self.transfers.submit(meta, source, sink);
        match handle.wait() {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::StorageFull => Err(NestError::NoSpace),
            Err(_) => Err(NestError::Internal),
        }
    }

    // -- third-party transfers ---------------------------------------------

    /// Orchestrates a GridFTP third-party transfer between two remote
    /// servers (paper §2.1: "transparent three- and four-party
    /// transfers"; §6 step 3).
    pub fn third_party(&self, src: &TransferUrl, dst: &TransferUrl) -> Result<(), NestError> {
        let mut src_client =
            GridFtpClient::connect(src.authority()).map_err(|_| NestError::Internal)?;
        let mut dst_client =
            GridFtpClient::connect(dst.authority()).map_err(|_| NestError::Internal)?;
        if let Some(cred) = &self.service_cred {
            // Best-effort delegation: servers that require auth get it.
            let _ = src_client.authenticate(cred);
            let _ = dst_client.authenticate(cred);
        }
        third_party(&mut src_client, &src.path, &mut dst_client, &dst.path)
            .map_err(|_| NestError::Internal)
    }

    /// Checkpoints the lot table now: rewrites the snapshot and empties
    /// the journal (disk-backed appliances). Every lot mutation is already
    /// journaled as it happens, so this only bounds restart replay.
    pub fn persist_lots(&self) {
        if let Err(e) = self.storage.checkpoint_lots() {
            eprintln!("nest: lot checkpoint failed: {e}");
        }
    }

    /// Replaces the ACL persistence file (one ClassAd per line), if this
    /// appliance is disk-backed. ACL changes are rare, so the whole table
    /// is rewritten, atomically.
    fn persist_acls(&self) {
        let Some(path) = &self.acl_store else {
            return;
        };
        let mut out = String::new();
        for ad in self.storage.acl().to_classads() {
            out.push_str(&ad.to_string());
            out.push('\n');
        }
        // Persistence failures must not fail the client's request; the
        // in-memory table is still authoritative for this run, and the
        // file still holds the previous complete table.
        if let Err(e) = atomic_replace(path, out.as_bytes()) {
            eprintln!("nest: {}: ACL table not saved: {e}", path.display());
        }
    }

    // -- resource publication -----------------------------------------------

    /// Builds the storage ad this NeST publishes into a discovery system,
    /// enriched with measured load attributes so matchmakers can rank
    /// appliances by observed performance, not just free space:
    /// `MeasuredBandwidthMBs` (EWMA of delivered MB/s), `ActiveTransfers`
    /// (in-flight flows) and `LotBytesCommitted` (bytes charged to lots).
    pub fn storage_ad(&self, protocols: &[&str]) -> ClassAd {
        let mut ad = self.storage.storage_ad(&self.name, protocols);
        let bw_mbs = self
            .obs
            .metrics
            .meter("transfer.bandwidth_bps")
            .rate_per_sec()
            / 1e6;
        ad.insert_value("MeasuredBandwidthMBs", nest_classad::Value::Real(bw_mbs));
        ad.insert_value(
            "ActiveTransfers",
            nest_classad::Value::Int(self.obs.metrics.gauge("transfer.queue_depth").get()),
        );
        ad.insert_value(
            "LotBytesCommitted",
            nest_classad::Value::Int(self.storage.committed_bytes() as i64),
        );
        ad.insert_value(
            "TransferRetries",
            nest_classad::Value::Int(self.obs.metrics.counter("transfer.retries").get() as i64),
        );
        ad.insert_value(
            "TransferFailures",
            nest_classad::Value::Int(self.obs.metrics.counter("transfer.failures").get() as i64),
        );
        // Zero-copy data-path health: flows served via sendfile, flows
        // demoted back to the pooled loop, and header+body writev merges.
        ad.insert_value(
            "ZeroCopyFlows",
            nest_classad::Value::Int(
                self.obs
                    .metrics
                    .counter("transfer.zerocopy.sendfile_flows")
                    .get() as i64,
            ),
        );
        ad.insert_value(
            "ZeroCopyFallbacks",
            nest_classad::Value::Int(
                self.obs
                    .metrics
                    .counter("transfer.zerocopy.fallbacks")
                    .get() as i64,
            ),
        );
        ad.insert_value(
            "WritevCoalesced",
            nest_classad::Value::Int(
                self.obs
                    .metrics
                    .counter("transfer.zerocopy.writev_coalesced")
                    .get() as i64,
            ),
        );
        // Memory-tier health, published only when the tier is on so an
        // ablated appliance's ad is indistinguishable from a pre-tier one.
        if self.storage.mem_tier().enabled() {
            let tier = self.storage.tier_stats();
            ad.insert_value("RamTierBytes", nest_classad::Value::Int(tier.bytes as i64));
            let lookups = tier.hits + tier.misses;
            let hit_pct = if lookups > 0 {
                tier.hits as f64 * 100.0 / lookups as f64
            } else {
                0.0
            };
            ad.insert_value("RamTierHitPct", nest_classad::Value::Real(hit_pct));
        }
        // Connection load, so the matchmaker can rank by headroom: the
        // session layer's admitted-connection gauge against its cap.
        ad.insert_value(
            "MaxConnections",
            nest_classad::Value::Int(self.max_conns as i64),
        );
        ad.insert_value(
            "ActiveConnections",
            nest_classad::Value::Int(self.obs.metrics.gauge("session.active").get()),
        );
        // Self-diagnosis for the matchmaker: which production lock class
        // lost the most time to contention, in microseconds blocked (e.g.
        // "storage.lot:1843us"). Ranked by wait time, not bounce count —
        // a cheap fast-path bounce is not a scaling wall — and harness
        // (`test.*`/`model.*`) classes never appear. Absent until any
        // production class has contended.
        if let Some(top) = parking_lot::lockstats::most_contended() {
            ad.insert_value(
                "LockContentionTop",
                nest_classad::Value::Str(format!("{}:{}us", top.name, top.wait_ns / 1_000)),
            );
        }
        ad
    }

    /// Shuts the transfer engine down after in-flight work completes.
    pub fn shutdown(self) {
        self.transfers.shutdown();
    }
}

/// Rebuilds an ACL table from its persistence file (one ClassAd per
/// line). Fails closed: a line that is not a complete ACL entry is an
/// `InvalidData` error naming it, never a silently weaker table.
fn load_acls(path: &std::path::Path) -> io::Result<AclTable> {
    let text = std::fs::read_to_string(path)?;
    let mut ads = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ad = line.parse::<ClassAd>().ok().filter(|ad| {
            AclEntry::from_classad(ad).is_some()
                && matches!(ad.eval("Path"), nest_classad::Value::Str(p) if VPath::parse(&p).is_ok())
        });
        let Some(ad) = ad else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: line {}: not an ACL entry: {line:?}",
                    path.display(),
                    n + 1
                ),
            ));
        };
        ads.push(ad);
    }
    Ok(AclTable::from_classads(&ads))
}

fn render_lot(lot: &nest_storage::Lot) -> String {
    format!(
        "{} {} {} {} {}",
        lot.id.0, lot.owner, lot.capacity, lot.used, lot.expires_at
    )
}

fn parse_who(spec: &str) -> Result<Who, StorageError> {
    if spec == "*" {
        return Ok(Who::Everyone);
    }
    if spec.eq_ignore_ascii_case("anonymous") {
        return Ok(Who::Anonymous);
    }
    if let Some(g) = spec.strip_prefix("group:") {
        return Ok(Who::Group(g.to_owned()));
    }
    Ok(Who::User(
        spec.strip_prefix("user:").unwrap_or(spec).to_owned(),
    ))
}

// ---------------------------------------------------------------------------
// Flow adapters between the storage backend, sockets and the engine
// ---------------------------------------------------------------------------

/// Reads a byte range of a stored file chunk by chunk. Disk-backed reads
/// are replayable, so the source supports [`DataSource::rewind`] and a
/// transient failure downstream can retry the whole range.
pub struct BackendSource {
    storage: Arc<StorageManager>,
    path: VPath,
    offset: u64,
    remaining: u64,
    /// Where the range starts (for rewind).
    start_offset: u64,
    /// The full range length (for rewind).
    len: u64,
    /// Cached raw-descriptor lease for the zero-copy path; re-validated
    /// against the backend's invalidation epoch on every window grant.
    lease: Option<nest_storage::ReadLease>,
}

impl BackendSource {
    /// Creates a source over `len` bytes of `path` starting at `offset`.
    pub fn new(storage: Arc<StorageManager>, path: VPath, offset: u64, len: u64) -> Self {
        Self {
            storage,
            path,
            offset,
            remaining: len,
            start_offset: offset,
            len,
            lease: None,
        }
    }
}

impl DataSource for BackendSource {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(self.remaining) as usize;
        let n = self
            .storage
            .read_chunk(&self.path, self.offset, &mut buf[..want])
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.offset += n as u64;
        self.remaining -= n as u64;
        Ok(n)
    }

    fn rewind(&mut self) -> io::Result<()> {
        self.offset = self.start_offset;
        self.remaining = self.len;
        Ok(())
    }

    fn raw_window(&mut self) -> Option<nest_transfer::flow::RawWindow> {
        // Per-step currency check: a metadata mutation (remove / rename /
        // truncate / recreate) bumps the backend's epoch, so a stale lease
        // is re-acquired — or, if the file is gone, the capability is
        // withdrawn and the flow demotes to the pooled read path, which
        // surfaces the error the same way a plain `read_chunk` would.
        let current = self.storage.lease_epoch()?;
        if !matches!(&self.lease, Some(l) if l.epoch == current) {
            self.lease = self.storage.read_lease(&self.path);
        } else {
            // Reusing an epoch-current lease is a handle-cache hit exactly
            // like a pooled-path `read_at` lookup — count it, or zerocopy
            // GETs undercount `handlecache.hits` by every span after the
            // first and the hit ratio becomes path-dependent.
            self.storage.note_lease_hits(1);
        }
        let lease = self.lease.as_ref()?;
        Some(nest_transfer::flow::RawWindow {
            file: Arc::clone(&lease.file),
            offset: self.offset,
            remaining: self.remaining,
        })
    }

    fn zc_advance(&mut self, n: u64) {
        self.offset += n;
        self.remaining = self.remaining.saturating_sub(n);
    }
}

/// Writes chunks into a stored file (charging lots as it grows).
///
/// Whole-file sinks (PUT) support abort-cleanup: a terminal failure
/// removes the partial file and releases its lot charge via
/// [`StorageManager::abort_put`], and a retry truncates back to empty.
/// Block sinks (NFS writes into an existing file) only rewind their write
/// offset — removing the whole file would destroy other blocks.
pub struct BackendSink {
    storage: Arc<StorageManager>,
    who: Principal,
    path: VPath,
    offset: u64,
    start_offset: u64,
    /// Whether this sink owns the whole file (PUT) rather than a block
    /// range within it (NFS write).
    whole_file: bool,
}

impl BackendSink {
    /// Sink for a whole-file PUT starting at offset 0; abort removes the
    /// partial file.
    pub fn whole_file(storage: Arc<StorageManager>, who: Principal, path: VPath) -> Self {
        Self {
            storage,
            who,
            path,
            offset: 0,
            start_offset: 0,
            whole_file: true,
        }
    }

    /// Sink for a block write into an existing file; abort leaves the file
    /// in place.
    pub fn block(storage: Arc<StorageManager>, who: Principal, path: VPath, offset: u64) -> Self {
        Self {
            storage,
            who,
            path,
            offset,
            start_offset: offset,
            whole_file: false,
        }
    }
}

impl DataSink for BackendSink {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        self.storage
            .write_chunk(&self.who, &self.path, self.offset, data)
            .map_err(|e| match e {
                StorageError::Lot(_) => io::Error::new(io::ErrorKind::StorageFull, e.to_string()),
                other => io::Error::other(other.to_string()),
            })?;
        self.offset += data.len() as u64;
        Ok(())
    }

    fn reset(&mut self) -> io::Result<()> {
        if self.whole_file {
            // Drop any partial content so a shorter replay cannot leave a
            // stale tail behind. Routed through the storage manager so the
            // memory tier's copy is invalidated along with the bytes.
            self.storage
                .truncate_for_retry(&self.path)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        self.offset = self.start_offset;
        Ok(())
    }

    fn abort(&mut self) {
        if self.whole_file {
            self.storage.abort_put(&self.path);
        }
    }
}

/// Reads exactly `remaining` bytes from a stream (socket PUT bodies).
pub struct LimitedStreamSource<R: Read + Send> {
    inner: R,
    remaining: u64,
}

impl<R: Read + Send> LimitedStreamSource<R> {
    /// Wraps a reader, limited to `limit` bytes.
    pub fn new(inner: R, limit: u64) -> Self {
        Self {
            inner,
            remaining: limit,
        }
    }
}

impl<R: Read + Send> DataSource for LimitedStreamSource<R> {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(self.remaining) as usize;
        let n = self.inner.read(&mut buf[..want])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "client closed mid-upload",
            ));
        }
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// Reads a stream until EOF (FTP stream-mode STOR).
pub struct StreamSource<R: Read + Send> {
    inner: R,
}

impl<R: Read + Send> StreamSource<R> {
    /// Wraps a reader.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }
}

impl<R: Read + Send> DataSource for StreamSource<R> {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

/// A reply-writing sink for socket GET bodies: carries the rendered
/// protocol header and coalesces it with the first body chunk into one
/// `writev`, then exposes the socket's raw descriptor so the rest of the
/// body can go through `sendfile` (see [`nest_transfer::zerocopy`]).
///
/// The descriptor is withheld while the header is pending, so the first
/// chunk always travels the pooled path — the flow probes again on the
/// next step and upgrades without counting a fallback. An empty header
/// (an FTP data connection) is no header: nothing is coalesced and the
/// descriptor is available from the first chunk.
pub struct SocketSink<W: Write + Send> {
    writer: W,
    #[cfg(unix)]
    fd: Option<std::os::unix::io::RawFd>,
    pending_head: Option<Vec<u8>>,
    coalesced: Option<Arc<Counter>>,
}

impl<W: Write + Send> SocketSink<W> {
    /// Wraps a writer with a protocol header to send before the body.
    pub fn new(writer: W, head: Vec<u8>) -> Self {
        Self {
            writer,
            #[cfg(unix)]
            fd: None,
            pending_head: (!head.is_empty()).then_some(head),
            coalesced: None,
        }
    }

    /// Exposes the writer's raw descriptor for the `sendfile` fast path.
    /// The descriptor must stay valid for the sink's lifetime (i.e. `fd`
    /// must belong to the wrapped writer or a dup sharing its lifetime).
    #[cfg(unix)]
    pub fn with_raw_fd(mut self, fd: std::os::unix::io::RawFd) -> Self {
        self.fd = Some(fd);
        self
    }

    /// Counts header+first-chunk coalesced writes on `counter`.
    pub fn with_coalesce_counter(mut self, counter: Arc<Counter>) -> Self {
        self.coalesced = Some(counter);
        self
    }
}

impl<W: Write + Send> DataSink for SocketSink<W> {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if let Some(head) = self.pending_head.take() {
            nest_transfer::zerocopy::write_all_vectored2(&mut self.writer, &head, data)?;
            if let Some(c) = &self.coalesced {
                c.inc();
            }
            return Ok(());
        }
        self.writer.write_all(data)
    }

    fn finish(&mut self) -> io::Result<()> {
        // A zero-byte body never produces a chunk, so the header may
        // still be pending here; the client is owed it regardless.
        if let Some(head) = self.pending_head.take() {
            self.writer.write_all(&head)?;
        }
        self.writer.flush()
    }

    #[cfg(unix)]
    fn raw_fd(&mut self) -> Option<std::os::unix::io::RawFd> {
        if self.pending_head.is_some() {
            // Header not on the wire yet: body bytes must not jump ahead
            // of it, so the capability is withheld until the first pooled
            // chunk carries the header out (via the coalesced writev).
            return None;
        }
        self.fd
    }
}

/// Accumulates a flow's bytes and hands them back over a channel when the
/// flow finishes (used for NFS block reads).
pub struct ChannelSink {
    buf: Vec<u8>,
    tx: Option<crossbeam::channel::Sender<Vec<u8>>>,
}

impl ChannelSink {
    /// Creates the sink and its receiving end.
    pub fn new() -> (Self, crossbeam::channel::Receiver<Vec<u8>>) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        (
            Self {
                buf: Vec::new(),
                tx: Some(tx),
            },
            rx,
        )
    }
}

impl DataSink for ChannelSink {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(data);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(std::mem::take(&mut self.buf));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatcher() -> Dispatcher {
        Dispatcher::new(&NestConfig::ephemeral("test")).unwrap()
    }

    fn alice() -> Principal {
        Principal::user("alice")
    }

    #[test]
    fn sync_requests_roundtrip() {
        let d = dispatcher();
        let who = alice();
        assert_eq!(
            d.execute_sync(&who, "chirp", &NestRequest::Mkdir { path: "/d".into() }),
            NestResponse::Ok
        );
        assert_eq!(
            d.execute_sync(
                &who,
                "chirp",
                &NestRequest::ListDir {
                    path: "/".into(),
                    prefix: None,
                    delimiter: None
                }
            ),
            NestResponse::OkText(vec!["d".into()])
        );
        assert_eq!(
            d.execute_sync(&who, "chirp", &NestRequest::Rmdir { path: "/d".into() }),
            NestResponse::Ok
        );
        // Errors map to protocol-independent classes.
        assert_eq!(
            d.execute_sync(
                &who,
                "chirp",
                &NestRequest::Stat {
                    path: "/gone".into()
                }
            ),
            NestResponse::Error(NestError::NotFound)
        );
        d.shutdown();
    }

    #[test]
    fn lot_lifecycle_through_dispatcher() {
        let d = dispatcher();
        let who = alice();
        let resp = d.execute_sync(
            &who,
            "chirp",
            &NestRequest::LotCreate {
                capacity: 1000,
                duration: 3600,
            },
        );
        let id = match resp {
            NestResponse::OkLot(id) => id,
            other => panic!("{:?}", other),
        };
        assert_eq!(
            d.execute_sync(&who, "chirp", &NestRequest::LotRenew { id, extra: 60 }),
            NestResponse::Ok
        );
        match d.execute_sync(&who, "chirp", &NestRequest::LotList) {
            NestResponse::OkText(lines) => assert_eq!(lines.len(), 1),
            other => panic!("{:?}", other),
        }
        assert_eq!(
            d.execute_sync(&who, "chirp", &NestRequest::LotTerminate { id }),
            NestResponse::Ok
        );
        d.shutdown();
    }

    #[test]
    fn put_then_get_via_transfer_manager() {
        let d = dispatcher();
        let who = alice();
        d.execute_sync(
            &who,
            "chirp",
            &NestRequest::LotCreate {
                capacity: 1 << 20,
                duration: 3600,
            },
        );
        let payload = vec![42u8; 100_000];
        let vpath = d
            .admit_put(&who, "chirp", "/data", Some(payload.len() as u64))
            .unwrap();
        let moved = d
            .transfer_put(
                &who,
                "chirp",
                &vpath,
                Box::new(io::Cursor::new(payload.clone())),
                Some(payload.len() as u64),
            )
            .unwrap();
        assert_eq!(moved, payload.len() as u64);

        let (vpath, size, _cached) = d.admit_get(&who, "chirp", "/data").unwrap();
        assert_eq!(size, payload.len() as u64);
        let (sink, rx) = ChannelSink::new();
        d.transfer_get(&who, "chirp", &vpath, size, false, Box::new(sink))
            .unwrap();
        assert_eq!(rx.recv().unwrap(), payload);
        d.shutdown();
    }

    #[test]
    fn cache_model_predicts_second_read_resident() {
        let d = dispatcher();
        let who = alice();
        d.execute_sync(
            &who,
            "chirp",
            &NestRequest::LotCreate {
                capacity: 1 << 20,
                duration: 3600,
            },
        );
        let vpath = d.admit_put(&who, "chirp", "/hot", Some(1000)).unwrap();
        d.transfer_put(
            &who,
            "chirp",
            &vpath,
            Box::new(io::Cursor::new(vec![1u8; 1000])),
            Some(1000),
        )
        .unwrap();
        // After the put, the cache model holds the file.
        let (_, _, cached) = d.admit_get(&who, "chirp", "/hot").unwrap();
        assert!(cached);
        d.shutdown();
    }

    #[test]
    fn nfs_block_read_write_through_flows() {
        let d = dispatcher();
        let who = alice();
        d.execute_sync(
            &who,
            "chirp",
            &NestRequest::LotCreate {
                capacity: 1 << 20,
                duration: 3600,
            },
        );
        let vpath = d.admit_put(&who, "nfs", "/blocks", Some(0)).unwrap();
        d.write_block(&who, "nfs", &vpath, 0, vec![7u8; 8192])
            .unwrap();
        d.write_block(&who, "nfs", &vpath, 8192, vec![8u8; 100])
            .unwrap();
        let block = d.read_block(&who, "nfs", &vpath, 0, 8192).unwrap();
        assert_eq!(block, vec![7u8; 8192]);
        let tail = d.read_block(&who, "nfs", &vpath, 8192, 8192).unwrap();
        assert_eq!(tail, vec![8u8; 100]);
        d.shutdown();
    }

    /// NFS block reads never reach the memory tier: however often the
    /// blocks are read and rewritten, no access is counted and nothing
    /// promotes, even with the cache model predicting the object hot.
    /// Whole-object GETs still promote, and then hit.
    #[test]
    fn block_reads_bypass_the_tier_and_gets_still_promote() {
        let config = NestConfig::builder("test")
            .ram_tier_bytes(1 << 20)
            .build()
            .unwrap();
        let d = Dispatcher::new(&config).unwrap();
        let who = alice();
        d.execute_sync(
            &who,
            "chirp",
            &NestRequest::LotCreate {
                capacity: 1 << 20,
                duration: 3600,
            },
        );
        const BLOCK: usize = 8192;
        let mut current = vec![1u8; 8 * BLOCK];
        let size = current.len() as u64;
        let vpath = d.admit_put(&who, "chirp", "/obj", Some(size)).unwrap();
        d.transfer_put(
            &who,
            "chirp",
            &vpath,
            Box::new(io::Cursor::new(current.clone())),
            Some(size),
        )
        .unwrap();
        for round in 0..16u8 {
            for (i, want) in current.chunks(BLOCK).enumerate() {
                let got = d
                    .read_block(&who, "nfs", &vpath, (i * BLOCK) as u64, BLOCK)
                    .unwrap();
                assert_eq!(got, want, "round {round}, block {i}");
            }
            let off = usize::from(round) % 8 * BLOCK;
            let block = vec![round + 2; BLOCK];
            d.write_block(&who, "nfs", &vpath, off as u64, block.clone())
                .unwrap();
            current[off..off + BLOCK].copy_from_slice(&block);
        }
        let s = d.storage().tier_stats();
        assert_eq!((s.misses, s.promotions), (0, 0), "{s:?}");

        let get = || {
            let (vpath, size, cached) = d.admit_get(&who, "chirp", "/obj").unwrap();
            let (sink, rx) = ChannelSink::new();
            d.transfer_get(&who, "chirp", &vpath, size, cached, Box::new(sink))
                .unwrap();
            rx.recv().unwrap()
        };
        assert_eq!(get(), current);
        assert_eq!(get(), current);
        assert_eq!(d.storage().tier_stats().promotions, 1);
        let hits = d.storage().tier_stats().hits;
        assert_eq!(get(), current);
        assert_eq!(d.storage().tier_stats().hits, hits + 1);
        d.shutdown();
    }

    #[test]
    fn setacl_getacl_via_common_requests() {
        let d = dispatcher();
        let who = alice();
        assert_eq!(
            d.execute_sync(
                &who,
                "chirp",
                &NestRequest::SetAcl {
                    path: "/".into(),
                    principal: "user:bob".into(),
                    rights: "rl".into(),
                }
            ),
            NestResponse::Ok
        );
        match d.execute_sync(&who, "chirp", &NestRequest::GetAcl { path: "/".into() }) {
            NestResponse::OkText(lines) => {
                assert!(lines
                    .iter()
                    .any(|l| l.contains("user:bob") && l.contains("rl")));
            }
            other => panic!("{:?}", other),
        }
        d.shutdown();
    }

    #[test]
    fn storage_ad_lists_protocols() {
        let d = dispatcher();
        let ad = d.storage_ad(&["chirp", "nfs"]);
        assert_eq!(ad.eval("Name"), nest_classad::Value::str("test"));
        d.shutdown();
    }

    #[test]
    fn put_without_lot_is_no_space() {
        let d = dispatcher();
        match d.admit_put(&alice(), "chirp", "/f", Some(10)) {
            Err(NestError::NoSpace) => {}
            other => panic!("{:?}", other),
        }
        d.shutdown();
    }
}
