//! The traced per-layer ladder: where an op's time goes *inside* the
//! appliance, measured from the benchmark's own files at public seams.
//!
//! Single thread, in-process, a fixed number of ops from the same seeded
//! stream the load generator uses (client 0), so counts repeat exactly.
//! The same ops are replayed on three replicas, each over its own storage
//! root:
//!
//! * the **dispatcher rung** — a real [`Dispatcher`] built from the
//!   benchmark's [`crate::serve::config`], driven through its public entry
//!   points with a timer around each call;
//! * the **injected stack** — a [`StorageManager`] over a [`TimedBackend`]
//!   around `LocalFsBackend`, and a [`TransferManager`] fed
//!   [`TimedSource`] / [`TimedSink`] around the dispatcher's own
//!   `BackendSource` / `BackendSink` adapters. It repeats what the
//!   dispatcher does for each op — admission, flow, cache-model
//!   bookkeeping, lot-table checkpoint — so every span nests inside its
//!   parent;
//! * the same stack with the tracer switched off, for the tracing overhead.
//!
//! `Dispatcher::new` builds its own backend, so it cannot take the timed
//! one: what the dispatcher adds beyond the stack is *derived* as the
//! difference between the two rungs, and the ladder counts as open when,
//! for the median op, the stack's self-times cover less than 90 % of the
//! dispatcher rung's wall time — "where the time went" cannot leak
//! silently.

use crate::appliance::ScratchDir;
use crate::json::Json;
use crate::ops::{
    self, bulk_object, ingest_object, job_block_id, job_object, job_tmp_dir, small_object, Front,
    MetaOp, Object, Op, OpStream, Scale, Workload,
};
use crate::payload;
use crate::report::Metric;
use crate::serve;
use crate::stats::percentile;
use nest_core::dispatcher::{BackendSink, BackendSource, ChannelSink, Dispatcher};
use nest_core::procpool::SubprocessLauncher;
use nest_obs::Obs;
use nest_proto::request::{NestRequest, NestResponse};
use nest_storage::acl::request_ad;
use nest_storage::lot::LotOwner;
use nest_storage::{
    AccessRight, AclTable, FileStat, LocalFsBackend, LotId, Principal, ReadLease, ReclaimPolicy,
    StorageBackend, StorageManager, VPath,
};
use nest_transfer::cache::CacheModel;
use nest_transfer::flow::{DataSink, DataSource, FlowMeta, MemSource, RawWindow};
use nest_transfer::manager::{TransferConfig, TransferManager};
use nest_transfer::RetryPolicy;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The attributed share of the dispatcher rung's wall time below which the
/// ladder counts as open.
const MIN_COVERAGE: f64 = 0.90;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Which span (0 = none) and which op the running code belongs to.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    span: u32,
    op: u32,
}

thread_local! {
    static CURRENT: Cell<Ctx> = const { Cell::new(Ctx { span: 0, op: 0 }) };
}

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    op: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store. A span's parent is whatever span is current on
/// the thread that opens it; work handed to another thread (a flow's source
/// and sink run on the transfer engine's threads) carries its parent along
/// as a [`Ctx`].
struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new(on: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn begin_op(&self, op: u32) {
        CURRENT.set(Ctx { span: 0, op });
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(CURRENT.get(), name, f)
    }

    fn span_under<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        // A unique-id tick: nothing else is published through it.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.replace(Ctx {
            span: id,
            op: parent.op,
        });
        let start = self.epoch.elapsed();
        let result = f();
        let end = self.epoch.elapsed();
        CURRENT.set(outer);
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .push(Span {
                id,
                parent: parent.span,
                op: parent.op,
                name,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        result
    }

    fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("a tracing thread panicked"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

// ---------------------------------------------------------------------------
// Timed wrappers at the public seams
// ---------------------------------------------------------------------------

/// `StorageBackend` around `LocalFsBackend` that records one span per call.
struct TimedBackend {
    inner: LocalFsBackend,
    tracer: Arc<Tracer>,
}

impl StorageBackend for TimedBackend {
    fn create(&self, path: &VPath) -> io::Result<()> {
        self.tracer
            .span("storage.backend.create", || self.inner.create(path))
    }
    fn read_at(&self, path: &VPath, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.tracer.span("storage.backend.read_at", || {
            self.inner.read_at(path, offset, buf)
        })
    }
    fn write_at(&self, path: &VPath, offset: u64, data: &[u8]) -> io::Result<()> {
        self.tracer.span("storage.backend.write_at", || {
            self.inner.write_at(path, offset, data)
        })
    }
    fn truncate(&self, path: &VPath, size: u64) -> io::Result<()> {
        self.tracer.span("storage.backend.truncate", || {
            self.inner.truncate(path, size)
        })
    }
    fn remove(&self, path: &VPath) -> io::Result<()> {
        self.tracer
            .span("storage.backend.remove", || self.inner.remove(path))
    }
    fn rename(&self, from: &VPath, to: &VPath) -> io::Result<()> {
        self.tracer
            .span("storage.backend.rename", || self.inner.rename(from, to))
    }
    fn mkdir(&self, path: &VPath) -> io::Result<()> {
        self.tracer
            .span("storage.backend.mkdir", || self.inner.mkdir(path))
    }
    fn rmdir(&self, path: &VPath) -> io::Result<()> {
        self.tracer
            .span("storage.backend.rmdir", || self.inner.rmdir(path))
    }
    fn list(&self, path: &VPath) -> io::Result<Vec<String>> {
        self.tracer
            .span("storage.backend.list", || self.inner.list(path))
    }
    fn stat(&self, path: &VPath) -> io::Result<FileStat> {
        self.tracer
            .span("storage.backend.stat", || self.inner.stat(path))
    }
    fn used_bytes(&self) -> io::Result<u64> {
        self.tracer
            .span("storage.backend.used_bytes", || self.inner.used_bytes())
    }
    // The lease calls hand out descriptors for sendfile; no ladder sink has
    // a socket, so they are forwarded untimed.
    fn read_lease(&self, path: &VPath) -> Option<ReadLease> {
        self.inner.read_lease(path)
    }
    fn lease_epoch(&self) -> Option<u64> {
        self.inner.lease_epoch()
    }
    fn note_lease_hits(&self, n: u64) {
        self.inner.note_lease_hits(n)
    }
}

/// `DataSource` that records one span per `read_chunk`, under the flow
/// span it was created for.
struct TimedSource {
    inner: Box<dyn DataSource>,
    tracer: Arc<Tracer>,
    flow: Ctx,
}

impl DataSource for TimedSource {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        self.tracer
            .span_under(self.flow, "storage.manager.read_chunk", || {
                inner.read_chunk(buf)
            })
    }
    fn rewind(&mut self) -> io::Result<()> {
        self.inner.rewind()
    }
    fn raw_window(&mut self) -> Option<RawWindow> {
        self.inner.raw_window()
    }
    fn zc_advance(&mut self, n: u64) {
        self.inner.zc_advance(n)
    }
}

/// `DataSink` that records one span per `write_chunk` / `finish`.
struct TimedSink {
    inner: Box<dyn DataSink>,
    tracer: Arc<Tracer>,
    flow: Ctx,
    name: &'static str,
}

impl DataSink for TimedSink {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .span_under(self.flow, self.name, || inner.write_chunk(data))
    }
    fn finish(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .span_under(self.flow, self.name, || inner.finish())
    }
    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()
    }
    fn abort(&mut self) {
        self.inner.abort()
    }
    #[cfg(unix)]
    fn raw_fd(&mut self) -> Option<std::os::unix::io::RawFd> {
        self.inner.raw_fd()
    }
}

/// Span name of a GET's collecting sink: the ladder's stand-in for the
/// client socket.
const SINK_COLLECT: &str = "trace.sink.collect";
/// Span name of a PUT's `BackendSink`: storage-manager work.
const SINK_STORE: &str = "storage.manager.write_chunk";

// ---------------------------------------------------------------------------
// The two rungs behind one interface
// ---------------------------------------------------------------------------

fn vpath(path: &str) -> io::Result<VPath> {
    VPath::parse(path).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

fn nest_err(what: &str, e: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("{what}: {e:?}"))
}

/// What both rungs can do. Every method is one appliance-level operation.
trait Replica {
    fn tracer(&self) -> &Arc<Tracer>;
    fn storage(&self) -> &Arc<StorageManager>;
    fn cache(&self) -> &Arc<CacheModel>;
    fn get(&self, who: &Principal, proto: &str, path: &str) -> io::Result<Vec<u8>>;
    fn put(&self, who: &Principal, proto: &str, path: &str, data: Vec<u8>) -> io::Result<()>;
    fn read_block(&self, who: &Principal, path: &str, offset: u64, n: usize)
        -> io::Result<Vec<u8>>;
    fn write_block(
        &self,
        who: &Principal,
        path: &str,
        offset: u64,
        data: Vec<u8>,
    ) -> io::Result<()>;
    fn sync(&self, who: &Principal, proto: &str, req: &NestRequest) -> io::Result<NestResponse>;
    /// The churn op's GSI handshake (only the dispatcher has one).
    fn authenticate(&self) -> io::Result<()>;
    /// Writes the lot table to `<root>.lots`, as the appliance does after
    /// every lot mutation (set-up ends with one).
    fn checkpoint(&self);
}

struct DispatcherRung {
    dispatcher: Dispatcher,
    tracer: Arc<Tracer>,
}

impl DispatcherRung {
    fn new(root: &Path, tracer: Arc<Tracer>) -> io::Result<DispatcherRung> {
        let config = serve::config(root).map_err(|e| nest_err("config", e))?;
        let dispatcher = Dispatcher::new(&config)?;
        grant_default_lots(dispatcher.storage())?;
        Ok(DispatcherRung { dispatcher, tracer })
    }
}

impl Replica for DispatcherRung {
    fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }
    fn storage(&self) -> &Arc<StorageManager> {
        self.dispatcher.storage()
    }
    fn cache(&self) -> &Arc<CacheModel> {
        self.dispatcher.cache()
    }

    fn get(&self, who: &Principal, proto: &str, path: &str) -> io::Result<Vec<u8>> {
        let d = &self.dispatcher;
        let (vp, size, cached) = self
            .tracer
            .span("core.dispatcher.admit_get", || {
                d.admit_get(who, proto, path)
            })
            .map_err(|e| nest_err("admit_get", e))?;
        let (sink, rx) = ChannelSink::new();
        self.tracer.span("core.dispatcher.transfer_get", || {
            d.transfer_get(who, proto, &vp, size, cached, Box::new(sink))
        })?;
        rx.recv().map_err(|e| nest_err("GET body", e))
    }

    fn put(&self, who: &Principal, proto: &str, path: &str, data: Vec<u8>) -> io::Result<()> {
        let d = &self.dispatcher;
        let size = Some(data.len() as u64);
        let vp = self
            .tracer
            .span("core.dispatcher.admit_put", || {
                d.admit_put(who, proto, path, size)
            })
            .map_err(|e| nest_err("admit_put", e))?;
        self.tracer.span("core.dispatcher.transfer_put", || {
            d.transfer_put(who, proto, &vp, Box::new(io::Cursor::new(data)), size)
        })?;
        Ok(())
    }

    fn read_block(
        &self,
        who: &Principal,
        path: &str,
        offset: u64,
        n: usize,
    ) -> io::Result<Vec<u8>> {
        let vp = vpath(path)?;
        self.tracer
            .span("core.dispatcher.read_block", || {
                self.dispatcher.read_block(who, "nfs", &vp, offset, n)
            })
            .map_err(|e| nest_err("read_block", e))
    }

    fn write_block(
        &self,
        who: &Principal,
        path: &str,
        offset: u64,
        data: Vec<u8>,
    ) -> io::Result<()> {
        let vp = vpath(path)?;
        self.tracer
            .span("core.dispatcher.write_block", || {
                self.dispatcher.write_block(who, "nfs", &vp, offset, data)
            })
            .map_err(|e| nest_err("write_block", e))
    }

    fn sync(&self, who: &Principal, proto: &str, req: &NestRequest) -> io::Result<NestResponse> {
        let resp = self.tracer.span("core.dispatcher.execute_sync", || {
            self.dispatcher.execute_sync(who, proto, req)
        });
        match resp {
            NestResponse::Error(e) => Err(nest_err("execute_sync", (req, e))),
            ok => Ok(ok),
        }
    }

    fn authenticate(&self) -> io::Result<()> {
        self.tracer
            .span("core.dispatcher.authenticate", || {
                self.dispatcher.authenticate(&serve::credential())
            })
            .map(drop)
            .map_err(|e| nest_err("authenticate", e))
    }

    fn checkpoint(&self) {
        self.dispatcher.persist_lots()
    }
}

/// The injected stack: the same storage and transfer managers the
/// dispatcher builds, with timed children handed in at every seam.
struct InjectedStack {
    tracer: Arc<Tracer>,
    storage: Arc<StorageManager>,
    transfers: TransferManager,
    cache: Arc<CacheModel>,
    /// `<root>.lots`, where the stack repeats the dispatcher's checkpoint.
    lot_store: PathBuf,
}

impl InjectedStack {
    fn new(root: &Path, tracer: Arc<Tracer>) -> io::Result<InjectedStack> {
        // Mirrors `Dispatcher::new` for the benchmark's configuration.
        let defaults = serve::config(root).map_err(|e| nest_err("config", e))?;
        let obs = Obs::new();
        let backend = TimedBackend {
            inner: LocalFsBackend::new(root)?.with_obs(&obs),
            tracer: Arc::clone(&tracer),
        };
        let cache = Arc::new(CacheModel::new(defaults.cache_bytes));
        let hint = Arc::clone(&cache);
        let storage = StorageManager::new(
            Arc::new(backend),
            AclTable::open_by_default(),
            serve::CAPACITY_BYTES,
            ReclaimPolicy::ExpiredFirst,
        )
        .with_shards(defaults.shards)
        .with_ram_tier(serve::RAM_TIER_BYTES)
        .with_residency_hint(Arc::new(move |path: &str, size: u64| {
            hint.predict_resident(path, size)
        }))
        .with_obs(&obs);
        let transfers = TransferManager::new(TransferConfig {
            policy: defaults.sched.clone(),
            model: defaults.model.clone(),
            process_launcher: Arc::new(SubprocessLauncher::new()),
            obs: Some(obs),
            shards: defaults.shards,
            ..TransferConfig::default()
        });
        let storage = Arc::new(storage);
        grant_default_lots(&storage)?;
        let mut lot_store = root.as_os_str().to_owned();
        lot_store.push(".lots");
        Ok(InjectedStack {
            tracer,
            storage,
            transfers,
            cache,
            lot_store: PathBuf::from(lot_store),
        })
    }

    fn meta(&self, proto: &str, size: Option<u64>) -> FlowMeta {
        FlowMeta::new(self.transfers.next_flow_id(), proto, size)
            .with_retry(RetryPolicy::standard())
    }

    /// `submit` → `wait` under one flow span whose children are the timed
    /// source and sink.
    fn flow(
        &self,
        meta: FlowMeta,
        source: impl FnOnce(Ctx) -> Box<dyn DataSource>,
        sink: impl FnOnce(Ctx) -> Box<dyn DataSink>,
    ) -> io::Result<u64> {
        self.tracer.span("transfer.manager.flow", || {
            let flow = CURRENT.get();
            self.transfers.submit(meta, source(flow), sink(flow)).wait()
        })
    }

    /// The gray-box cache model's bookkeeping after a transfer.
    fn observe(&self, vp: &VPath, size: u64) {
        self.tracer.span("transfer.cache.observe", || {
            self.cache.observe_access(&vp.to_string(), size)
        })
    }

    fn timed_source(&self, inner: Box<dyn DataSource>) -> impl FnOnce(Ctx) -> Box<dyn DataSource> {
        let tracer = Arc::clone(&self.tracer);
        move |flow| -> Box<dyn DataSource> {
            Box::new(TimedSource {
                inner,
                tracer,
                flow,
            })
        }
    }

    fn timed_sink(
        &self,
        inner: Box<dyn DataSink>,
        name: &'static str,
    ) -> impl FnOnce(Ctx) -> Box<dyn DataSink> {
        let tracer = Arc::clone(&self.tracer);
        move |flow| -> Box<dyn DataSink> {
            Box::new(TimedSink {
                inner,
                tracer,
                flow,
                name,
            })
        }
    }
}

impl Replica for InjectedStack {
    fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }
    fn storage(&self) -> &Arc<StorageManager> {
        &self.storage
    }
    fn cache(&self) -> &Arc<CacheModel> {
        &self.cache
    }

    fn get(&self, who: &Principal, proto: &str, path: &str) -> io::Result<Vec<u8>> {
        let sm = &self.storage;
        let vp = vpath(path)?;
        let size = self
            .tracer
            .span("storage.manager.begin_get", || {
                sm.begin_get(who, proto, &vp)
            })
            .map_err(|e| nest_err("begin_get", e))?;
        let mut meta = self.meta(proto, Some(size));
        meta.predicted_cached = self.tracer.span("transfer.cache.predict", || {
            self.cache.predict_resident(&vp.to_string(), size)
        });
        // Tier-resident objects are served from the manager's RAM copy,
        // exactly as `Dispatcher::transfer_get` chooses.
        let source: Box<dyn DataSource> = match sm.tier_object(&vp) {
            Some(obj) if obj.len() as u64 == size => Box::new(MemSource::new(obj)),
            _ => Box::new(BackendSource::new(Arc::clone(sm), vp.clone(), 0, size)),
        };
        let (sink, rx) = ChannelSink::new();
        self.flow(
            meta,
            self.timed_source(source),
            self.timed_sink(Box::new(sink), SINK_COLLECT),
        )?;
        self.observe(&vp, size);
        rx.recv().map_err(|e| nest_err("GET body", e))
    }

    fn put(&self, who: &Principal, proto: &str, path: &str, data: Vec<u8>) -> io::Result<()> {
        let sm = &self.storage;
        let vp = vpath(path)?;
        let size = data.len() as u64;
        self.tracer
            .span("storage.manager.begin_put", || {
                sm.begin_put(who, proto, &vp, size)
            })
            .map_err(|e| nest_err("begin_put", e))?;
        let sink = BackendSink::whole_file(Arc::clone(sm), who.clone(), vp.clone());
        let moved = self.flow(
            self.meta(proto, Some(size)),
            |_| -> Box<dyn DataSource> { Box::new(io::Cursor::new(data)) },
            self.timed_sink(Box::new(sink), SINK_STORE),
        );
        self.checkpoint();
        self.observe(&vp, moved?);
        Ok(())
    }

    fn read_block(
        &self,
        who: &Principal,
        path: &str,
        offset: u64,
        n: usize,
    ) -> io::Result<Vec<u8>> {
        let sm = &self.storage;
        let vp = vpath(path)?;
        self.tracer
            .span("storage.manager.begin_get", || {
                sm.begin_get(who, "nfs", &vp)
            })
            .map_err(|e| nest_err("begin_get", e))?;
        let source = BackendSource::new(Arc::clone(sm), vp, offset, n as u64);
        let (sink, rx) = ChannelSink::new();
        self.flow(
            self.meta("nfs", Some(n as u64)),
            self.timed_source(Box::new(source)),
            self.timed_sink(Box::new(sink), SINK_COLLECT),
        )?;
        rx.recv().map_err(|e| nest_err("READ body", e))
    }

    fn write_block(
        &self,
        who: &Principal,
        path: &str,
        offset: u64,
        data: Vec<u8>,
    ) -> io::Result<()> {
        let size = data.len() as u64;
        let sink = BackendSink::block(Arc::clone(&self.storage), who.clone(), vpath(path)?, offset);
        self.flow(
            self.meta("nfs", Some(size)),
            |_| -> Box<dyn DataSource> { Box::new(io::Cursor::new(data)) },
            self.timed_sink(Box::new(sink), SINK_STORE),
        )?;
        Ok(())
    }

    /// The storage-manager call `Dispatcher::execute_sync` makes for each
    /// request the workloads issue.
    fn sync(&self, who: &Principal, proto: &str, req: &NestRequest) -> io::Result<NestResponse> {
        let sm = &self.storage;
        let t = &self.tracer;
        let resp = match req {
            NestRequest::Stat { path } => {
                let vp = vpath(path)?;
                t.span("storage.manager.stat", || sm.stat(who, proto, &vp))
                    .map(|st| NestResponse::OkSize(st.size))
            }
            NestRequest::ListDir { path, .. } => {
                let vp = vpath(path)?;
                t.span("storage.manager.list", || sm.list(who, proto, &vp))
                    .map(NestResponse::OkText)
            }
            NestRequest::Mkdir { path } => {
                let vp = vpath(path)?;
                t.span("storage.manager.mkdir", || sm.mkdir(who, proto, &vp))
                    .map(|()| NestResponse::Ok)
            }
            NestRequest::Rmdir { path } => {
                let vp = vpath(path)?;
                t.span("storage.manager.rmdir", || sm.rmdir(who, proto, &vp))
                    .map(|()| NestResponse::Ok)
            }
            NestRequest::Delete { path } => {
                let vp = vpath(path)?;
                let r = t.span("storage.manager.remove", || sm.remove(who, proto, &vp));
                t.span("transfer.cache.invalidate", || {
                    self.cache.invalidate(&vp.to_string())
                });
                r.map(|()| NestResponse::Ok)
            }
            NestRequest::LotCreate { capacity, duration } => t
                .span("storage.manager.lot_create", || {
                    sm.lot_create(who, *capacity, *duration)
                })
                .map(|id| NestResponse::OkLot(id.0)),
            NestRequest::LotStat { id } => t
                .span("storage.manager.lot_stat", || sm.lot_stat(who, LotId(*id)))
                .map(|lot| NestResponse::OkText(vec![lot.capacity.to_string()])),
            NestRequest::LotRenew { id, extra } => t
                .span("storage.manager.lot_renew", || {
                    sm.lot_renew(who, LotId(*id), *extra)
                })
                .map(|()| NestResponse::Ok),
            NestRequest::LotTerminate { id } => t
                .span("storage.manager.lot_terminate", || {
                    sm.lot_terminate(who, LotId(*id))
                })
                .map(|()| NestResponse::Ok),
            other => return Err(nest_err("no workload issues", other)),
        };
        let resp = resp.map_err(|e| nest_err("storage manager", (req, e)))?;
        // `execute_sync` checkpoints after every successful lot mutation
        // and delete.
        if matches!(
            req,
            NestRequest::Delete { .. }
                | NestRequest::LotCreate { .. }
                | NestRequest::LotRenew { .. }
                | NestRequest::LotTerminate { .. }
        ) {
            self.checkpoint();
        }
        Ok(resp)
    }

    fn authenticate(&self) -> io::Result<()> {
        Ok(())
    }

    fn checkpoint(&self) {
        self.tracer.span("core.dispatcher.persist_lots", || {
            let _ = std::fs::write(&self.lot_store, self.storage.lot_manager().snapshot());
        })
    }
}

fn grant_default_lots(storage: &StorageManager) -> io::Result<()> {
    for (user, bytes, seconds) in serve::default_lots() {
        storage
            .admin_grant_lot(LotOwner::User(user.to_owned()), bytes, seconds)
            .map_err(|e| nest_err("default lot", e))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The plan: the op stream with every dependency resolved
// ---------------------------------------------------------------------------

/// Who a front's requests run as.
fn principal(front: Front) -> Principal {
    match front {
        Front::GridFtp | Front::S3 => Principal::user(serve::GSI_USER),
        _ => Principal::anonymous(),
    }
}

#[derive(Debug, Clone)]
enum Step {
    Get {
        front: Front,
        object: Object,
    },
    Put {
        front: Front,
        object: Object,
    },
    Delete {
        front: Front,
        path: String,
    },
    /// The capability-named depot holds IBP arrays in memory, beside the
    /// dispatcher: only the codec rung sees these ops.
    IbpOnly {
        lines: Vec<String>,
    },
    ReadBlock {
        block: u64,
        id: u64,
        id_offset: u64,
    },
    WriteBlock {
        block: u64,
        id: u64,
    },
    Meta(MetaOp),
    Churn,
}

struct Plan {
    scale: Scale,
    seed: u64,
    /// Stored before the traced ops (set-up, untraced).
    population: Vec<Object>,
    directories: Vec<String>,
    steps: Vec<Step>,
}

impl Plan {
    fn new(workload: Workload, scale: &Scale, seed: u64) -> Plan {
        const CLIENT: usize = 0;
        let mut stream = OpStream::new(workload, scale, seed, CLIENT, crate::CLIENTS);
        let mut population = Vec::new();
        let mut directories = Vec::new();
        match workload {
            Workload::BulkGet => {
                directories.push(ops::BULK_DIR.to_owned());
                population.extend((0..scale.bulk_files).map(|i| bulk_object(scale, i)));
            }
            Workload::SmallGet | Workload::Ingest => {
                directories.push(ops::SMALL_DIR.to_owned());
                population.extend((0..scale.small_objects).map(|i| small_object(scale, i)));
            }
            Workload::JobIo => {
                directories.push(ops::JOB_DIR.to_owned());
                directories.push(ops::JOB_LS_DIR.to_owned());
                directories.extend(
                    (0..scale.job_ls_entries).map(|i| format!("{}/e{i:02}", ops::JOB_LS_DIR)),
                );
                population.push(job_object(scale, CLIENT));
            }
        }
        if workload == Workload::Ingest {
            directories.push(ops::INGEST_DIR.to_owned());
            directories.push(ops::ingest_dir(CLIENT));
        }

        // Resolve the stream's references (which front stored object `seq`,
        // which write a block last saw) once, for all replicas.
        let mut stored: HashMap<u64, (Front, Object)> = HashMap::new();
        let mut block_version = vec![0u64; scale.job_blocks() as usize];
        let job = job_object(scale, CLIENT);
        let mut resolve = |op: Op| -> Step {
            match op {
                Op::Get { front, object } => Step::Get { front, object },
                Op::Put { front, seq, size } => {
                    let object = ingest_object(CLIENT, seq, size);
                    stored.insert(seq, (front, object.clone()));
                    match front {
                        Front::Ibp => Step::IbpOnly {
                            lines: vec![
                                format!("ALLOCATE {size} 3600 stable"),
                                format!("STORE w-{seq:016x} {size}"),
                            ],
                        },
                        _ => Step::Put { front, object },
                    }
                }
                Op::ReadBack { seq } => match stored[&seq].clone() {
                    (Front::Ibp, object) => Step::IbpOnly {
                        lines: vec![format!("LOAD r-{seq:016x} 0 {}", object.size)],
                    },
                    (front, object) => Step::Get { front, object },
                },
                Op::Delete { seq } => match stored.remove(&seq).expect("deletes follow puts") {
                    (Front::Ibp, _) => Step::IbpOnly {
                        lines: vec![format!("DECREMENT m-{seq:016x}")],
                    },
                    (front, object) => Step::Delete {
                        front,
                        path: object.path,
                    },
                },
                Op::NfsRead { block } => {
                    let offset = block * scale.job_block_bytes as u64;
                    match block_version[block as usize] {
                        0 => Step::ReadBlock {
                            block,
                            id: job.id,
                            id_offset: offset,
                        },
                        v => Step::ReadBlock {
                            block,
                            id: job_block_id(CLIENT, v),
                            id_offset: 0,
                        },
                    }
                }
                Op::NfsWrite { block, version } => {
                    block_version[block as usize] = version;
                    Step::WriteBlock {
                        block,
                        id: job_block_id(CLIENT, version),
                    }
                }
                Op::Meta(kind) => Step::Meta(kind),
                Op::Churn => Step::Churn,
            }
        };

        // As in the load generator, the ingest ring is filled during
        // set-up: those PUTs join the population.
        let mut ring = 0;
        while workload == Workload::Ingest && ring < scale.ingest_ring {
            match resolve(stream.next_op()) {
                Step::Put { object, .. } => {
                    population.push(object);
                    ring += 1;
                }
                Step::IbpOnly { lines } if lines[0].starts_with("ALLOCATE") => ring += 1,
                _ => {}
            }
        }
        let steps = (0..scale.traced_ops(workload))
            .map(|_| resolve(stream.next_op()))
            .collect();
        Plan {
            scale: scale.clone(),
            seed,
            population,
            directories,
            steps,
        }
    }

    /// Set-up at storage-manager level (no per-object lot checkpoint), then
    /// one checkpoint — the state a populated appliance is in. Object by
    /// object across the replicas, taking turns to go first: a root that is
    /// filled before the others ends up laid out differently on disk, and
    /// its file creates then cost up to twice as much during the replay.
    fn populate(&self, replicas: &[&dyn Replica]) -> io::Result<()> {
        let who = Principal::anonymous();
        for replica in replicas {
            for dir in &self.directories {
                let made = replica.storage().mkdir(&who, "chirp", &vpath(dir)?);
                made.map_err(|e| nest_err("mkdir", e))?;
            }
        }
        for (i, object) in self.population.iter().enumerate() {
            let vp = vpath(&object.path)?;
            let data = payload::generate(self.seed, object.id, object.size);
            for k in 0..replicas.len() {
                let replica = replicas[(i + k) % replicas.len()];
                let sm = replica.storage();
                sm.begin_put(&who, "chirp", &vp, data.len() as u64)
                    .map_err(|e| nest_err("begin_put", e))?;
                for (n, chunk) in data.chunks(64 << 10).enumerate() {
                    sm.write_chunk(&who, &vp, (n as u64) * (64 << 10), chunk)
                        .map_err(|e| nest_err("write_chunk", e))?;
                }
                // A PUT through the appliance ends with this observation.
                replica
                    .cache()
                    .observe_access(&vp.to_string(), data.len() as u64);
            }
        }
        for replica in replicas {
            replica.checkpoint();
            // Set-up spans are not part of the ladder.
            replica.tracer().take();
        }
        Ok(())
    }

    /// Replays the traced steps, each step on every replica in turn before
    /// the next step, so that the rungs being compared run within
    /// milliseconds of each other and the host's slow drift cancels.
    /// Returns each replica's per-op wall times in ns.
    fn replay(&self, replicas: &[&dyn Replica]) -> io::Result<Vec<Vec<u64>>> {
        let mut walls = vec![Vec::with_capacity(self.steps.len()); replicas.len()];
        for (i, step) in self.steps.iter().enumerate() {
            // Rotate who goes first, so that no replica always runs on the
            // caches the payload generator just emptied.
            for k in 0..replicas.len() {
                let r = (i + k) % replicas.len();
                walls[r].push(self.run_step(replicas[r], i, step)?);
            }
        }
        Ok(walls)
    }

    fn run_step(&self, replica: &dyn Replica, i: usize, step: &Step) -> io::Result<u64> {
        let tracer = replica.tracer();
        let anon = Principal::anonymous();
        let user = Principal::user(serve::GSI_USER);
        let job = job_object(&self.scale, 0);
        let block_len = self.scale.job_block_bytes;
        tracer.begin_op(i as u32 + 1);
        // Payloads are generated, and bodies verified, outside the timer.
        let data = match step {
            Step::Put { object, .. } => payload::generate(self.seed, object.id, object.size),
            Step::WriteBlock { id, .. } => payload::generate(self.seed, *id, block_len),
            _ => Vec::new(),
        };
        let start = Instant::now();
        let body: Option<(Vec<u8>, u64, u64)> = tracer.span(OP, || -> io::Result<_> {
            Ok(match step {
                Step::Get { front, object } => {
                    let body = replica.get(&principal(*front), front.name(), &object.path)?;
                    Some((body, object.id, 0))
                }
                Step::Put { front, object } => {
                    replica.put(&principal(*front), front.name(), &object.path, data)?;
                    None
                }
                Step::Delete { front, path } => {
                    let req = NestRequest::Delete { path: path.clone() };
                    replica.sync(&principal(*front), front.name(), &req)?;
                    None
                }
                Step::IbpOnly { .. } => None,
                Step::ReadBlock {
                    block,
                    id,
                    id_offset,
                } => {
                    let offset = block * block_len as u64;
                    let body = replica.read_block(&anon, &job.path, offset, block_len)?;
                    Some((body, *id, *id_offset))
                }
                Step::WriteBlock { block, .. } => {
                    replica.write_block(&anon, &job.path, block * block_len as u64, data)?;
                    None
                }
                Step::Meta(kind) => {
                    meta_requests(replica, &user, *kind, &job.path)?;
                    None
                }
                Step::Churn => {
                    replica.authenticate()?;
                    let req = NestRequest::Stat {
                        path: job.path.clone(),
                    };
                    replica.sync(&user, "chirp", &req)?;
                    None
                }
            })
        })?;
        let wall = start.elapsed().as_nanos() as u64;
        if let Some((body, id, id_offset)) = body {
            if !payload::verify_full(self.seed, id, id_offset, &body) {
                return Err(io::Error::other(format!(
                    "traced step {i} ({step:?}) returned {} wrong bytes",
                    body.len()
                )));
            }
        }
        Ok(wall)
    }
}

fn meta_requests(
    replica: &dyn Replica,
    who: &Principal,
    kind: MetaOp,
    file: &str,
) -> io::Result<()> {
    let path = |p: &str| p.to_owned();
    let sync = |req: NestRequest| replica.sync(who, "chirp", &req);
    match kind {
        MetaOp::Stat => drop(sync(NestRequest::Stat { path: path(file) })?),
        MetaOp::Ls => drop(sync(NestRequest::ListDir {
            path: path(ops::JOB_LS_DIR),
            prefix: None,
            delimiter: None,
        })?),
        MetaOp::MkdirRmdir => {
            let tmp = job_tmp_dir(0);
            sync(NestRequest::Mkdir { path: tmp.clone() })?;
            sync(NestRequest::Rmdir { path: tmp })?;
        }
        MetaOp::LotCycle => {
            let created = sync(NestRequest::LotCreate {
                capacity: 1 << 20,
                duration: 60,
            })?;
            let NestResponse::OkLot(id) = created else {
                return Err(nest_err("lot create replied", created));
            };
            sync(NestRequest::LotStat { id })?;
            sync(NestRequest::LotRenew { id, extra: 60 })?;
            sync(NestRequest::LotTerminate { id })?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The codec rung: parse request + render reply head, per front
// ---------------------------------------------------------------------------

mod codec {
    use super::*;
    use nest_proto::chirp;
    use nest_proto::ftp;
    use nest_proto::http::{render_response_head, HttpMethod, HttpRequestHead, HttpResponseHead};
    use nest_proto::ibp;
    use nest_proto::nfs::wire::{AttrStat, ReadArgs, ReadRes, WriteArgs};
    use nest_proto::nfs::{FileHandle, NfsAttr, NfsStat};
    use nest_proto::s3;
    use nest_sunrpc::record::{read_record, write_record};
    use nest_sunrpc::{RpcMessage, XdrDecoder, XdrEncoder};

    /// Nanoseconds spent in `nest-proto` codecs and in `nest-sunrpc`
    /// framing for one step.
    #[derive(Default, Clone, Copy)]
    pub struct Cost {
        pub proto_ns: u64,
        pub xdr_ns: u64,
    }

    fn timed(f: impl FnOnce()) -> u64 {
        let start = Instant::now();
        f();
        start.elapsed().as_nanos() as u64
    }

    fn chirp_exchange(requests: &[NestRequest], reply: &NestResponse) -> u64 {
        let lines: Vec<String> = requests.iter().map(chirp::format_request).collect();
        timed(|| {
            for line in &lines {
                black_box(chirp::parse_command(black_box(line)));
                black_box(chirp::format_response(black_box(reply)));
            }
        })
    }

    fn http_exchange(
        method: HttpMethod,
        path: &str,
        body_len: Option<usize>,
        signed: bool,
        status: u16,
        reply_len: usize,
    ) -> u64 {
        let mut headers = BTreeMap::new();
        headers.insert("host".to_owned(), "127.0.0.1:8080".to_owned());
        if let Some(n) = body_len {
            headers.insert("content-length".to_owned(), n.to_string());
        }
        if signed {
            let auth = s3::format_auth_header(&serve::credential());
            headers.insert("authorization".to_owned(), auth);
        }
        let wire = HttpRequestHead::plain(method, path, headers).render();
        timed(|| {
            let head = HttpRequestHead::read(&mut black_box(wire.as_bytes()));
            if signed {
                let head = head.as_ref().ok().and_then(|h| h.as_ref());
                black_box(
                    head.and_then(|h| h.headers.get("authorization"))
                        .and_then(|v| s3::parse_auth_header(v)),
                );
            }
            black_box(&head);
            let reply = HttpResponseHead::with_length(status, "OK", reply_len as u64);
            black_box(render_response_head(black_box(&reply)));
        })
    }

    fn ftp_exchange(lines: &[String]) -> u64 {
        let data_addr = "127.0.0.1:50000".parse().expect("literal address");
        timed(|| {
            for line in lines {
                black_box(ftp::parse_command(black_box(line)));
            }
            black_box(ftp::format_pasv_reply(data_addr));
        })
    }

    fn ibp_exchange(lines: &[String]) -> u64 {
        timed(|| {
            for line in lines {
                black_box(ibp::parse_command(black_box(line)));
            }
        })
    }

    /// One NFS call as the server sees it: record in, RPC decode, argument
    /// decode, result encode, RPC encode, record out.
    fn nfs_exchange(proc_no: u32, args: Vec<u8>, reply_data: Option<Vec<u8>>) -> Cost {
        let call = RpcMessage::call(7, 100_003, 2, proc_no, args).encode();
        let mut wire = Vec::new();
        write_record(&mut wire, &call).expect("write to a Vec");
        let mut cost = Cost::default();
        let mut call_args = Vec::new();
        cost.xdr_ns += timed(|| {
            let record = read_record(&mut black_box(wire.as_slice()))
                .expect("well-formed record")
                .expect("one record");
            if let Ok(RpcMessage::Call { body, .. }) = RpcMessage::decode(&record) {
                call_args = body.args;
            }
        });
        let mut results = Vec::new();
        cost.proto_ns += timed(|| {
            let mut d = XdrDecoder::new(&call_args);
            let mut e = XdrEncoder::new();
            let attr = NfsAttr::file(8 << 20, 42);
            match reply_data {
                Some(data) => {
                    black_box(ReadArgs::decode(&mut d).ok());
                    ReadRes {
                        status: NfsStat::Ok,
                        attr: Some(attr),
                        data,
                    }
                    .encode(&mut e);
                }
                None => {
                    black_box(WriteArgs::decode(&mut d).ok());
                    AttrStat::ok(attr).encode(&mut e);
                }
            }
            results = e.into_bytes();
        });
        cost.xdr_ns += timed(|| {
            let reply = RpcMessage::success_reply(7, results).encode();
            let mut out = Vec::with_capacity(reply.len() + 4);
            write_record(&mut out, &reply).expect("write to a Vec");
            black_box(out);
        });
        cost
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Verb {
        Get,
        Put,
        Delete,
    }

    fn data_exchange(front: Front, verb: Verb, path: &str, size: usize) -> u64 {
        let (get, put) = (verb == Verb::Get, verb == Verb::Put);
        match front {
            Front::Chirp => {
                let req = match verb {
                    Verb::Get => NestRequest::Get { path: path.into() },
                    Verb::Put => NestRequest::Put {
                        path: path.into(),
                        size: Some(size as u64),
                    },
                    Verb::Delete => NestRequest::Delete { path: path.into() },
                };
                let reply = if get {
                    NestResponse::OkSize(size as u64)
                } else {
                    NestResponse::Ok
                };
                chirp_exchange(&[req], &reply)
            }
            Front::Http | Front::S3 => {
                let (method, status) = match verb {
                    Verb::Get => (HttpMethod::Get, 200),
                    Verb::Put => (HttpMethod::Put, 201),
                    Verb::Delete => (HttpMethod::Delete, 204),
                };
                let reply_len = if get { size } else { 0 };
                http_exchange(
                    method,
                    path,
                    put.then_some(size),
                    front == Front::S3,
                    status,
                    reply_len,
                )
            }
            Front::Ftp | Front::GridFtp => {
                let command = match verb {
                    Verb::Get => "RETR",
                    Verb::Put => "STOR",
                    Verb::Delete => "DELE",
                };
                let mut lines = vec![format!("{command} {path}")];
                if get || put {
                    lines.insert(0, "PASV".to_owned());
                }
                ftp_exchange(&lines)
            }
            Front::Nfs | Front::Ibp => 0,
        }
    }

    pub fn cost(step: &Step, scale: &Scale) -> Cost {
        let proto = |proto_ns| Cost {
            proto_ns,
            xdr_ns: 0,
        };
        let fh = FileHandle::from_id(42, 1);
        let block_len = scale.job_block_bytes;
        match step {
            Step::Get { front, object } => {
                proto(data_exchange(*front, Verb::Get, &object.path, object.size))
            }
            Step::Put { front, object } => {
                proto(data_exchange(*front, Verb::Put, &object.path, object.size))
            }
            Step::Delete { front, path } => proto(data_exchange(*front, Verb::Delete, path, 0)),
            Step::IbpOnly { lines } => proto(ibp_exchange(lines)),
            Step::ReadBlock { block, .. } => {
                let mut e = XdrEncoder::new();
                ReadArgs {
                    fh,
                    offset: (*block as usize * block_len) as u32,
                    count: block_len as u32,
                }
                .encode(&mut e);
                nfs_exchange(6, e.into_bytes(), Some(vec![0u8; block_len]))
            }
            Step::WriteBlock { block, .. } => {
                let mut e = XdrEncoder::new();
                WriteArgs {
                    fh,
                    offset: (*block as usize * block_len) as u32,
                    data: vec![0u8; block_len],
                }
                .encode(&mut e);
                nfs_exchange(8, e.into_bytes(), None)
            }
            Step::Meta(kind) => {
                let path = || ops::JOB_DIR.to_owned();
                let (requests, reply) = match kind {
                    MetaOp::Stat => (
                        vec![NestRequest::Stat { path: path() }],
                        NestResponse::OkSize(1),
                    ),
                    MetaOp::Ls => (
                        vec![NestRequest::ListDir {
                            path: path(),
                            prefix: None,
                            delimiter: None,
                        }],
                        NestResponse::OkText(
                            (0..scale.job_ls_entries)
                                .map(|i| format!("e{i:02}"))
                                .collect(),
                        ),
                    ),
                    MetaOp::MkdirRmdir => (
                        vec![
                            NestRequest::Mkdir { path: path() },
                            NestRequest::Rmdir { path: path() },
                        ],
                        NestResponse::Ok,
                    ),
                    MetaOp::LotCycle => (
                        vec![
                            NestRequest::LotCreate {
                                capacity: 1 << 20,
                                duration: 60,
                            },
                            NestRequest::LotStat { id: 7 },
                            NestRequest::LotRenew { id: 7, extra: 60 },
                            NestRequest::LotTerminate { id: 7 },
                        ],
                        NestResponse::OkLot(7),
                    ),
                };
                proto(chirp_exchange(&requests, &reply))
            }
            Step::Churn => {
                let auth = format!("auth gsi {}", serve::credential().to_wire());
                let parse_auth = timed(|| {
                    black_box(chirp::parse_command(black_box(&auth)));
                });
                let rest = chirp_exchange(
                    &[
                        NestRequest::Stat {
                            path: ops::JOB_DIR.into(),
                        },
                        NestRequest::Quit,
                    ],
                    &NestResponse::OkSize(1),
                );
                proto(parse_auth + rest)
            }
        }
    }
}

/// One `AclTable::check` (a ClassAd evaluation) of the kind the step's
/// admission performs, in ns; 0 for steps that pass no ACL.
fn acl_check_ns(acl: &AclTable, step: &Step) -> io::Result<u64> {
    let (front, right, path, operation) = match step {
        Step::Get { front, object } => (*front, AccessRight::Read, object.path.as_str(), "get"),
        Step::Put { front, object } => (*front, AccessRight::Insert, object.path.as_str(), "put"),
        Step::Delete { front, path } => (*front, AccessRight::Delete, path.as_str(), "unlink"),
        Step::ReadBlock { .. } => (Front::Nfs, AccessRight::Read, ops::JOB_DIR, "get"),
        Step::Meta(_) | Step::Churn => (Front::Chirp, AccessRight::Lookup, ops::JOB_DIR, "stat"),
        Step::WriteBlock { .. } | Step::IbpOnly { .. } => return Ok(0),
    };
    let (who, vp) = (principal(front), vpath(path)?);
    let start = Instant::now();
    let request = request_ad(front.name(), operation);
    black_box(acl.check(&who, right, &vp, &request));
    Ok(start.elapsed().as_nanos() as u64)
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Per span name: how often, how long in total, and how long excluding
/// child spans.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Name of the span around one whole op on either rung.
const OP: &str = "op";

/// Span names (by prefix) of the injected stack whose self-times count as
/// attributed: the layers below the dispatcher, the lot-table checkpoint the
/// stack repeats, and the stack's own `op` root. The stack's per-op code
/// repeats the dispatcher's glue (flow metadata, channel and sink
/// construction, path parsing) outside any layer span, so the root's self
/// time is the stack's estimate of that glue.
const ATTRIBUTED: [&str; 7] = [
    "storage.backend.",
    "storage.manager.",
    "transfer.manager.",
    "transfer.cache.",
    "trace.sink.",
    "core.dispatcher.persist_lots",
    OP,
];

struct Accounting {
    /// Keyed by the span's path from its root, e.g.
    /// `op/transfer.manager.flow/storage.manager.read_chunk`.
    by_path: BTreeMap<String, Totals>,
    by_name: BTreeMap<&'static str, Totals>,
    /// Σ over flows of (first child start − flow start).
    queue_wait_ns: u64,
    /// Per op id: Σ self time of its [`ATTRIBUTED`] spans.
    attributed_by_op: HashMap<u32, u64>,
}

fn account(spans: &[Span]) -> Accounting {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    let mut first_child: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.ns();
            let first = first_child.entry(s.parent).or_insert(u64::MAX);
            *first = (*first).min(s.start_ns);
        }
    }
    let mut acc = Accounting {
        by_path: BTreeMap::new(),
        by_name: BTreeMap::new(),
        queue_wait_ns: 0,
        attributed_by_op: HashMap::new(),
    };
    for (i, s) in spans.iter().enumerate() {
        let mut path = vec![s.name];
        let mut at = s;
        while let Some(&p) = index.get(&at.parent) {
            at = &spans[p];
            path.push(at.name);
        }
        path.reverse();
        let self_ns = s.ns().saturating_sub(child_ns[i]);
        for totals in [
            acc.by_path.entry(path.join("/")).or_default(),
            acc.by_name.entry(s.name).or_default(),
        ] {
            totals.count += 1;
            totals.total_ns += s.ns();
            totals.self_ns += self_ns;
        }
        if ATTRIBUTED.iter().any(|prefix| s.name.starts_with(prefix)) {
            *acc.attributed_by_op.entry(s.op).or_default() += self_ns;
        }
        if s.name == "transfer.manager.flow" {
            let first = first_child.get(&s.id).copied().unwrap_or(s.end_ns);
            acc.queue_wait_ns += first.saturating_sub(s.start_ns);
        }
    }
    acc
}

impl Accounting {
    /// Totals over every span whose name starts with `prefix`.
    fn sum(&self, prefix: &str) -> Totals {
        let mut sum = Totals::default();
        for (_, t) in self
            .by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
        {
            sum.count += t.count;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
        }
        sum
    }

    fn render(&self, title: &str, out: &mut String) {
        out.push_str(&format!(
            "  {title}\n    {:<74} {:>8} {:>12} {:>12}\n",
            "span path", "count", "total ms", "self ms"
        ));
        for (path, t) in &self.by_path {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            out.push_str(&format!(
                "    {:<74} {:>8} {:>12.3} {:>12.3}\n",
                format!("{}{name}", "  ".repeat(depth)),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
}

fn spans_json<'a>(rung: &str, spans: &'a [Span]) -> impl Iterator<Item = Json> + 'a {
    let rung = rung.to_owned();
    spans.iter().map(move |s| {
        Json::obj([
            ("rung", Json::str(rung.clone())),
            ("id", Json::Int(i64::from(s.id))),
            (
                "parent",
                if s.parent == 0 {
                    Json::Null
                } else {
                    Json::Int(i64::from(s.parent))
                },
            ),
            ("op", Json::Int(i64::from(s.op))),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
        ])
    })
}

// ---------------------------------------------------------------------------
// The ladder
// ---------------------------------------------------------------------------

pub struct Ladder {
    /// The traced per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Span-tree totals and the accounting verdict, for people.
    pub tree: String,
    /// Every span of both traced rungs, for `out/trace-<workload>.json`.
    pub spans: Json,
    /// Whether, for the median op, the attributed self-times cover ≥ 90 %
    /// of the dispatcher rung's wall time.
    pub closes: bool,
}

/// Runs the ladder for one workload. `end_to_end` are the metrics of the
/// untraced run of the same workload and seed (empty when there was none);
/// only `core.fronts.residual_us_per_op` needs them.
pub fn ladder(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    end_to_end: &[Metric],
) -> io::Result<Ladder> {
    let scratch = ScratchDir::create(&format!("traced-{}", workload.name()))?;
    // Each replica gets its own parent directory: the dispatcher writes
    // `<root>.lots` beside its root.
    let root = |name: &str| -> io::Result<PathBuf> {
        let parent = scratch.path().join(name);
        std::fs::create_dir_all(&parent)?;
        Ok(parent.join("root"))
    };
    let plan = Plan::new(workload, scale, seed);
    let n = plan.steps.len() as f64;

    let dispatcher = DispatcherRung::new(&root("dispatcher")?, Tracer::new(true))?;
    let stack = InjectedStack::new(&root("stack")?, Tracer::new(true))?;
    let plain = InjectedStack::new(&root("plain")?, Tracer::new(false))?;
    let replicas: [&dyn Replica; 3] = [&dispatcher, &stack, &plain];
    plan.populate(&replicas)?;
    let walls = plan.replay(&replicas)?;
    let (d_walls, t_walls, plain_walls) = (&walls[0], &walls[1], &walls[2]);
    let (d_spans, t_spans) = (dispatcher.tracer.take(), stack.tracer.take());

    let acl = AclTable::open_by_default();
    let mut codec = codec::Cost::default();
    let mut acl_ns = 0;
    for step in &plan.steps {
        let c = codec::cost(step, scale);
        codec.proto_ns += c.proto_ns;
        codec.xdr_ns += c.xdr_ns;
        acl_ns += acl_check_ns(&acl, step)?;
    }

    let d = account(&d_spans);
    let t = account(&t_spans);
    let us_per_op = |ns: u64| ns as f64 / 1e3 / n;

    // The dispatcher rung's wall time, and what the injected stack
    // attributes of it.
    let wall_ns: u64 = d_walls.iter().sum();
    // What the stack's repeated checkpoints cost, and — probed only now, so
    // that extra rewrites of `<root>.lots` do not slow the replayed ops'
    // own file creates — what the real `Dispatcher::persist_lots` costs at
    // this population.
    let persist_ns = t.sum("core.dispatcher.persist_lots").self_ns;
    let checkpoints = t.sum("core.dispatcher.persist_lots").count;
    const PROBES: u32 = 32;
    let probe_start = Instant::now();
    for _ in 0..(if checkpoints > 0 { PROBES } else { 0 }) {
        dispatcher.dispatcher.persist_lots();
    }
    let probed_persist_ns = probe_start.elapsed().as_nanos() as u64 / u64::from(PROBES);
    let backend_ns = t.sum("storage.backend.").self_ns;
    let storage_ns = t.sum("storage.manager.").self_ns;
    let transfer_ns = t.sum("transfer.manager.").self_ns;
    let cache_ns = t.sum("transfer.cache.").self_ns;
    let sink_ns = t.sum("trace.sink.").self_ns;
    let glue_ns = t.sum(OP).self_ns;
    let attributed_ns =
        backend_ns + storage_ns + transfer_ns + cache_ns + sink_ns + glue_ns + persist_ns;
    // The verdict uses the median op's ratio, not the ratio of the sums:
    // both rungs pick concurrency models adaptively and on their own, and
    // one 16 MiB flow that only one of them stages through a worker
    // process swings the sums by 20 %.
    let mut ratios: Vec<f64> = plan
        .steps
        .iter()
        .zip(d_walls)
        .enumerate()
        .filter(|(_, (step, wall))| !matches!(step, Step::IbpOnly { .. }) && **wall > 0)
        .map(|(i, (_, wall))| {
            let stack = t
                .attributed_by_op
                .get(&(i as u32 + 1))
                .copied()
                .unwrap_or(0);
            stack as f64 / *wall as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let coverage = percentile(&ratios, 0.50).unwrap_or(f64::NAN);
    let closes = coverage >= MIN_COVERAGE;
    let overhead = t_walls.iter().sum::<u64>() as f64 / plain_walls.iter().sum::<u64>() as f64;

    let mut sorted_walls: Vec<f64> = d_walls.iter().map(|ns| *ns as f64 / 1e3).collect();
    sorted_walls.sort_by(f64::total_cmp);
    let rung_p50_us = percentile(&sorted_walls, 0.50).unwrap_or(f64::NAN);
    let residual = match end_to_end
        .iter()
        .find(|m| m.name == "op_p50_ms")
        .and_then(|m| m.value)
    {
        Some(p50_ms) => Metric::new(
            "core.fronts.residual_us_per_op",
            "us",
            p50_ms * 1e3 - rung_p50_us,
        ),
        None => Metric::absent(
            "core.fronts.residual_us_per_op",
            "us",
            "derived from the untraced run's op_p50_ms: use --trace 1",
        ),
    };
    let xdr = if workload.fronts().contains(&Front::Nfs) {
        Metric::new("sunrpc.xdr_us_per_op", "us", us_per_op(codec.xdr_ns))
    } else {
        Metric::absent(
            "sunrpc.xdr_us_per_op",
            "us",
            format!("{} sends nothing through nfs", workload.name()),
        )
    };
    let metrics = vec![
        Metric::new("proto.codec_us_per_op", "us", us_per_op(codec.proto_ns)),
        xdr,
        Metric::new(
            "core.dispatcher.sync_us_per_op",
            "us",
            us_per_op(d.sum("core.dispatcher.execute_sync").total_ns),
        ),
        Metric::new(
            "core.dispatcher.admit_us_per_op",
            "us",
            us_per_op(d.sum("core.dispatcher.admit_").total_ns),
        ),
        Metric::new(
            "core.dispatcher.persist_us_per_op",
            "us",
            us_per_op(probed_persist_ns * checkpoints),
        ),
        Metric::new("core.dispatcher.glue_us_per_op", "us", us_per_op(glue_ns)),
        Metric::new(
            "transfer.manager.queue_wait_us_per_op",
            "us",
            us_per_op(t.queue_wait_ns),
        ),
        Metric::new(
            "transfer.manager.self_us_per_op",
            "us",
            us_per_op(transfer_ns),
        ),
        Metric::new(
            "storage.manager.self_us_per_op",
            "us",
            us_per_op(storage_ns),
        ),
        Metric::new("storage.acl.check_us_per_op", "us", us_per_op(acl_ns)),
        Metric::new("storage.backend.us_per_op", "us", us_per_op(backend_ns)),
        Metric::new(
            "storage.backend.calls_per_op",
            "count",
            t.sum("storage.backend.").count as f64 / n,
        ),
        Metric::new("transfer.cache.self_us_per_op", "us", us_per_op(cache_ns)),
        Metric::new("trace.sink_us_per_op", "us", us_per_op(sink_ns)),
        residual,
        Metric::new("trace.overhead_ratio", "ratio", overhead),
        Metric::new("trace.coverage_ratio", "ratio", coverage),
    ];

    let mut tree = format!(
        "{}: {} traced ops, dispatcher rung {:.3} ms wall (p50 {:.1} us/op)\n",
        workload.name(),
        plan.steps.len(),
        wall_ns as f64 / 1e6,
        rung_p50_us
    );
    d.render("dispatcher rung (timed calls into Dispatcher)", &mut tree);
    t.render("injected stack (timed backend, source and sink)", &mut tree);
    tree.push_str(&format!(
        "  attributed: backend {:.3} + storage.manager {:.3} + transfer.manager {:.3} + transfer.cache {:.3} \
         + sink {:.3} + mirrored dispatcher glue {:.3} + mirrored persist_lots {:.3} = {:.3} ms of {:.3} ms \
         ({:.1} % of the sums; unexplained {:.3} ms)\n  coverage of the median op: {:.1} %{}\n",
        backend_ns as f64 / 1e6,
        storage_ns as f64 / 1e6,
        transfer_ns as f64 / 1e6,
        cache_ns as f64 / 1e6,
        sink_ns as f64 / 1e6,
        glue_ns as f64 / 1e6,
        persist_ns as f64 / 1e6,
        attributed_ns as f64 / 1e6,
        wall_ns as f64 / 1e6,
        attributed_ns as f64 / wall_ns as f64 * 100.0,
        (wall_ns as f64 - attributed_ns as f64) / 1e6,
        coverage * 100.0,
        if closes { "" } else { "  <-- LADDER OPEN: below 90 %" }
    ));

    let spans = Json::Arr(
        spans_json("dispatcher", &d_spans)
            .chain(spans_json("stack", &t_spans))
            .collect(),
    );
    Ok(Ladder {
        metrics,
        tree,
        spans,
        closes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "transfer.manager.flow", 10, 90),
            span(3, 2, "storage.manager.read_chunk", 30, 60),
            span(4, 3, "storage.backend.read_at", 35, 55),
            span(5, 2, "trace.sink.collect", 60, 70),
        ];
        let acc = account(&spans);
        assert_eq!(acc.by_name["op"].self_ns, 20);
        assert_eq!(acc.sum("transfer.manager.").self_ns, 80 - 30 - 10);
        assert_eq!(acc.sum("storage.manager.").self_ns, 10);
        assert_eq!(acc.sum("storage.backend.").self_ns, 20);
        assert_eq!(acc.sum("storage.backend.").count, 1);
        // submit (t=10) → first source read (t=30).
        assert_eq!(acc.queue_wait_ns, 20);
        // Self-times of a tree add up to its root's duration.
        let all: u64 = acc.by_name.values().map(|t| t.self_ns).sum();
        assert_eq!(all, 100);
        assert!(acc.by_path.contains_key(
            "op/transfer.manager.flow/storage.manager.read_chunk/storage.backend.read_at"
        ));
    }

    #[test]
    fn plans_repeat_per_seed_and_resolve_every_reference() {
        let scale = Scale::smoke();
        for workload in Workload::ALL {
            let a = Plan::new(workload, &scale, 3);
            let b = Plan::new(workload, &scale, 3);
            assert_eq!(format!("{:?}", a.steps), format!("{:?}", b.steps));
            assert_eq!(a.steps.len(), scale.traced_ops(workload));
        }
        let ingest = Plan::new(Workload::Ingest, &scale, 3);
        // Small-get set plus the non-IBP part of the pre-filled ring.
        assert!(ingest.population.len() as u64 > scale.small_objects);
        assert!(ingest.population.len() as u64 <= scale.small_objects + scale.ingest_ring);
        assert!(ingest
            .steps
            .iter()
            .any(|s| matches!(s, Step::Delete { .. })));
    }
}
