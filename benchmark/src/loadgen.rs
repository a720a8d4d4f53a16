//! The closed-loop load generator: one process, `clients` threads, each
//! with at most one request in flight over persistent connections (one per
//! front it uses). Drives a [`crate::appliance::Appliance`] with the
//! in-tree `nest-proto` clients, verifies every payload, and times each op
//! from just before the client call to its return.

use crate::appliance::{cpu_ms, rss_peak_mb, Appliance};
use crate::ops::{
    self, bulk_object, ingest_dir, ingest_object, job_block_id, job_object, job_tmp_dir,
    small_object, Front, MetaOp, Object, Op, OpStream, Scale, Workload,
};
use crate::payload;
use crate::serve::credential;
use nest_obs::MetricsSnapshot;
use nest_proto::chirp::ChirpClient;
use nest_proto::ftp::FtpClient;
use nest_proto::gridftp::{GridFtpClient, OffsetSink};
use nest_proto::http::HttpClient;
use nest_proto::ibp::{IbpCapSet, IbpClient, Reliability};
use nest_proto::nfs::{FileHandle, MountClient, NfsClient};
use nest_proto::s3::S3Client;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Errors are only counted and shown, never matched on.
type OpResult<T> = Result<T, String>;

fn s(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[derive(Debug, Clone)]
pub struct RunParams {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub clients: usize,
    pub warmup: Duration,
    pub window: Duration,
    /// Complete set-ups (spawn → populate → connect) per run; the last one
    /// is measured on, `setup_s` is their median.
    pub setup_reps: usize,
}

/// One completed op inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds after the window opened.
    pub end_s: f64,
    pub latency_ms: f64,
    /// Streamed GETs and NFS READs only: request sent → first body byte.
    pub ttfb_ms: Option<f64>,
    /// Churn only: TCP connect → authenticated (first reply byte).
    pub connect_us: Option<f64>,
    /// Verified payload bytes moved, either direction.
    pub bytes: u64,
    pub front: Front,
    pub ok: bool,
}

/// Everything a run observed; [`crate::report`] turns it into metrics.
#[derive(Debug)]
pub struct RunResult {
    pub params: RunParams,
    pub samples: Vec<Sample>,
    /// First few failure messages, for the human report.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub server_cpu_ms: f64,
    pub loadgen_cpu_ms: f64,
    pub server_rss_peak_mb: f64,
    /// `/nest/stats` just before and just after the window.
    pub stats_before: BTreeMap<String, f64>,
    pub stats_after: BTreeMap<String, f64>,
    /// `storage.lot.committed_bytes` once every client has stopped, and the
    /// lot-charged bytes the clients then hold.
    pub committed_bytes: f64,
    pub live_bytes: u64,
}

// ---------------------------------------------------------------------------
// Timestamping body sink
// ---------------------------------------------------------------------------

/// Collects a GET body and notes when its first byte arrived. Handed to
/// `get_stream` / `get` / `retr` as a `Write` and to `get_parallel` as an
/// `OffsetSink`.
#[derive(Default)]
struct BodySink {
    body: Vec<u8>,
    first_byte: Option<Instant>,
}

impl BodySink {
    fn reusing(mut body: Vec<u8>) -> BodySink {
        body.clear();
        BodySink {
            body,
            first_byte: None,
        }
    }

    fn note_arrival(&mut self, len: usize) {
        if self.first_byte.is_none() && len > 0 {
            self.first_byte = Some(Instant::now());
        }
    }
}

impl Write for BodySink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.note_arrival(data.len());
        self.body.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl OffsetSink for BodySink {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.note_arrival(data.len());
        self.body.write_at(offset, data)
    }
}

// ---------------------------------------------------------------------------
// One client: connections, op execution, verification
// ---------------------------------------------------------------------------

/// Where an ingest object lives and how to reach it again.
struct Stored {
    front: Front,
    object: Object,
    /// IBP allocations are named by capabilities, not paths, and are not
    /// charged to lots.
    caps: Option<IbpCapSet>,
}

/// What one executed op reports back.
struct Outcome {
    front: Front,
    /// Verified payload bytes moved.
    bytes: u64,
    latency: Duration,
    ttfb: Option<Duration>,
    connect: Option<Duration>,
}

impl Outcome {
    fn new(front: Front, bytes: usize, latency: Duration) -> Outcome {
        Outcome {
            front,
            bytes: bytes as u64,
            latency,
            ttfb: None,
            connect: None,
        }
    }
}

pub struct Client {
    index: usize,
    seed: u64,
    scale: Scale,
    addrs: BTreeMap<Front, SocketAddr>,
    nfs_udp: SocketAddr,
    stream: OpStream,
    chirp: Option<ChirpClient>,
    /// The GSI-authenticated persistent Chirp session (job-io metadata).
    chirp_auth: Option<ChirpClient>,
    http: Option<HttpClient>,
    ftp: Option<FtpClient>,
    gridftp: Option<GridFtpClient>,
    nfs: Option<(NfsClient, FileHandle)>,
    ibp: Option<IbpClient>,
    s3: Option<S3Client>,
    /// Reused GET body buffer.
    body: Vec<u8>,
    gets: u64,
    ingest: HashMap<u64, Stored>,
    /// job-io: the write version each block of this client's file holds
    /// (0 = the populated content).
    job_blocks: Vec<u64>,
}

/// Every `FULL_VERIFY_EVERY`-th GET is compared byte for byte after its
/// timer stops; all GETs get the in-timer length + sparse check.
const FULL_VERIFY_EVERY: u64 = 16;

fn bucket_key(path: &str) -> OpResult<(&str, &str)> {
    path.trim_start_matches('/')
        .split_once('/')
        .ok_or_else(|| format!("{path} has no bucket/key form"))
}

macro_rules! connection {
    ($self:ident . $slot:ident, $connect:expr) => {{
        if $self.$slot.is_none() {
            $self.$slot = Some($connect);
        }
        $self.$slot.as_mut().expect("just connected")
    }};
}

impl Client {
    fn new(p: &RunParams, app: &Appliance, index: usize) -> io::Result<Client> {
        let mut addrs = BTreeMap::new();
        for front in Front::ALL {
            addrs.insert(front, app.addr(front)?);
        }
        Ok(Client {
            index,
            seed: p.seed,
            scale: p.scale.clone(),
            addrs,
            nfs_udp: app.nfs_udp_addr()?,
            stream: OpStream::new(p.workload, &p.scale, p.seed, index, p.clients),
            chirp: None,
            chirp_auth: None,
            http: None,
            ftp: None,
            gridftp: None,
            nfs: None,
            ibp: None,
            s3: None,
            body: Vec::new(),
            gets: 0,
            ingest: HashMap::new(),
            job_blocks: vec![0; p.scale.job_blocks() as usize],
        })
    }

    fn addr(&self, front: Front) -> SocketAddr {
        self.addrs[&front]
    }

    fn chirp(&mut self) -> OpResult<&mut ChirpClient> {
        let addr = self.addr(Front::Chirp);
        Ok(connection!(
            self.chirp,
            ChirpClient::connect(addr).map_err(s)?
        ))
    }

    fn chirp_auth(&mut self) -> OpResult<&mut ChirpClient> {
        let addr = self.addr(Front::Chirp);
        Ok(connection!(self.chirp_auth, {
            let mut c = ChirpClient::connect(addr).map_err(s)?;
            c.authenticate(&credential()).map_err(s)?;
            c
        }))
    }

    fn http(&mut self) -> OpResult<&mut HttpClient> {
        let addr = self.addr(Front::Http);
        Ok(connection!(
            self.http,
            HttpClient::connect(addr).map_err(s)?
        ))
    }

    fn ftp(&mut self) -> OpResult<&mut FtpClient> {
        let addr = self.addr(Front::Ftp);
        Ok(connection!(self.ftp, {
            let mut c = FtpClient::connect(addr).map_err(s)?;
            c.login("anonymous", "nestmark@").map_err(s)?;
            c.type_binary().map_err(s)?;
            c
        }))
    }

    /// GridFTP sessions authenticate with GSI and run MODE E with one data
    /// stream (parallelism 1).
    fn gridftp(&mut self) -> OpResult<&mut GridFtpClient> {
        let addr = self.addr(Front::GridFtp);
        Ok(connection!(self.gridftp, {
            let mut c = GridFtpClient::connect(addr).map_err(s)?;
            c.authenticate(&credential()).map_err(s)?;
            c.ftp().type_binary().map_err(s)?;
            c.set_parallelism(1).map_err(s)?;
            c
        }))
    }

    fn ibp(&mut self) -> OpResult<&mut IbpClient> {
        let addr = self.addr(Front::Ibp);
        Ok(connection!(self.ibp, IbpClient::connect(addr).map_err(s)?))
    }

    /// S3 requests are signed with the grid-mapped user's credential.
    fn s3(&mut self) -> OpResult<&mut S3Client> {
        let addr = self.addr(Front::S3);
        Ok(connection!(
            self.s3,
            S3Client::connect(addr)
                .map_err(s)?
                .with_credential(credential())
        ))
    }

    /// One NFS mount (MOUNT is UDP-only in the in-tree client) plus the
    /// lookup of this client's own file; block I/O then runs over TCP, which
    /// passes through the session layer like every other front.
    fn nfs(&mut self) -> OpResult<&mut (NfsClient, FileHandle)> {
        let (udp, tcp) = (self.nfs_udp, self.addr(Front::Nfs));
        let path = job_object(&self.scale, self.index).path;
        Ok(connection!(self.nfs, {
            let root = MountClient::connect(udp)
                .map_err(s)?
                .mount("/")
                .map_err(s)?;
            let mut nfs = NfsClient::connect_tcp(tcp).map_err(s)?;
            let mut fh = root;
            for name in path.split('/').filter(|n| !n.is_empty()) {
                fh = nfs.lookup(fh, name).map_err(s)?.0;
            }
            (nfs, fh)
        }))
    }

    /// Drops a front's connection after a failed op: its byte stream may be
    /// out of step, and the next op reconnects lazily.
    fn disconnect(&mut self, front: Front) {
        match front {
            Front::Chirp => {
                self.chirp = None;
                self.chirp_auth = None;
            }
            Front::Http => self.http = None,
            Front::Ftp => self.ftp = None,
            Front::GridFtp => self.gridftp = None,
            Front::Nfs => self.nfs = None,
            Front::Ibp => self.ibp = None,
            Front::S3 => self.s3 = None,
        }
    }

    /// Opens every connection the workload uses, so no measured op pays for
    /// a connect.
    fn connect_all(&mut self, workload: Workload) -> OpResult<()> {
        for front in workload.fronts() {
            match front {
                Front::Chirp => {
                    self.chirp()?;
                    if workload == Workload::JobIo {
                        self.chirp_auth()?;
                    }
                }
                Front::Http => drop(self.http()?),
                Front::Ftp => drop(self.ftp()?),
                Front::GridFtp => drop(self.gridftp()?),
                Front::Nfs => drop(self.nfs()?),
                Front::Ibp => drop(self.ibp()?),
                Front::S3 => drop(self.s3()?),
            }
        }
        Ok(())
    }

    // -- data ops ------------------------------------------------------------

    /// GET `object` through `front` into the reused body buffer. Returns the
    /// latency (which includes the length + sparse check) and, where the
    /// client streams the body into a sink, the time to its first byte.
    fn timed_get(
        &mut self,
        front: Front,
        object: &Object,
        caps: Option<&IbpCapSet>,
    ) -> OpResult<(Duration, Option<Duration>)> {
        let path = object.path.as_str();
        let mut sink = BodySink::reusing(std::mem::take(&mut self.body));
        let start = Instant::now();
        let fetched: OpResult<()> = match front {
            Front::Chirp => self
                .chirp()?
                .get_stream(path, &mut sink)
                .map(drop)
                .map_err(s),
            Front::Http => match self.http()?.get(path, &mut sink).map_err(s)? {
                (200, _) => Ok(()),
                (status, _) => Err(format!("HTTP GET {path}: status {status}")),
            },
            Front::Ftp => self.ftp()?.retr(path, &mut sink).map(drop).map_err(s),
            Front::GridFtp => {
                let shared = Arc::new(Mutex::new(sink));
                let dyn_sink: Arc<Mutex<dyn OffsetSink>> = shared.clone();
                let result = self.gridftp()?.get_parallel(path, dyn_sink);
                sink = Arc::try_unwrap(shared)
                    .map_err(|_| "GridFTP receiver kept the sink".to_owned())?
                    .into_inner();
                result.map(drop).map_err(s)
            }
            // The S3 and IBP clients return the body whole: there is no
            // first body byte to observe, and no TTFB sample is taken.
            Front::S3 => {
                let (bucket, key) = bucket_key(path)?;
                sink.body = self.s3()?.get_object(bucket, key).map_err(s)?;
                Ok(())
            }
            Front::Ibp => {
                let rcap = &caps.ok_or("IBP read without capabilities")?.read;
                sink.body = self.ibp()?.load(rcap, 0, object.size as u64).map_err(s)?;
                Ok(())
            }
            Front::Nfs => Err("whole-object GET over NFS is not part of any workload".into()),
        };
        let sparse_ok = fetched.is_ok()
            && payload::verify_sparse(self.seed, object.id, object.size, &sink.body);
        let latency = start.elapsed();
        let ttfb = sink.first_byte.map(|t| t - start);
        self.body = sink.body;
        fetched?;
        if !sparse_ok {
            return Err(format!(
                "GET {path} via {}: body of {} bytes fails the sparse check (want {})",
                front.name(),
                self.body.len(),
                object.size
            ));
        }
        Ok((latency, ttfb))
    }

    fn full_verify(&self, front: Front, object: &Object) -> OpResult<()> {
        if payload::verify_full(self.seed, object.id, 0, &self.body) {
            Ok(())
        } else {
            Err(format!(
                "GET {} via {}: body differs from the generated payload",
                object.path,
                front.name()
            ))
        }
    }

    fn timed_put(
        &mut self,
        front: Front,
        object: &Object,
    ) -> OpResult<(Duration, Option<IbpCapSet>)> {
        let path = object.path.as_str();
        let data = payload::generate(self.seed, object.id, object.size);
        let start = Instant::now();
        let mut caps = None;
        match front {
            Front::Chirp => self.chirp()?.put_bytes(path, &data).map_err(s)?,
            Front::Http => match self.http()?.put_bytes(path, &data).map_err(s)? {
                201 => {}
                status => return Err(format!("HTTP PUT {path}: status {status}")),
            },
            Front::S3 => {
                let (bucket, key) = bucket_key(path)?;
                self.s3()?.put_object(bucket, key, &data).map_err(s)?
            }
            Front::Ftp => {
                let sent = self.ftp()?.stor_bytes(path, &data).map_err(s)?;
                if sent != data.len() as u64 {
                    return Err(format!("FTP STOR {path}: sent {sent} of {}", data.len()));
                }
            }
            Front::Ibp => {
                let ibp = self.ibp()?;
                let set = ibp
                    .allocate(data.len() as u64, 3600, Reliability::Stable)
                    .map_err(s)?;
                let stored = ibp.store_bytes(&set.write, &data).map_err(s)?;
                if stored != data.len() as u64 {
                    return Err(format!("IBP STORE: depot holds {stored} of {}", data.len()));
                }
                caps = Some(set);
            }
            Front::GridFtp | Front::Nfs => {
                return Err(format!("no workload stores through {}", front.name()))
            }
        }
        Ok((start.elapsed(), caps))
    }

    fn timed_delete(&mut self, stored: &Stored) -> OpResult<Duration> {
        let path = stored.object.path.as_str();
        let start = Instant::now();
        match stored.front {
            Front::Chirp => self.chirp()?.unlink(path).map_err(s)?,
            Front::Http => match self.http()?.delete(path).map_err(s)? {
                204 => {}
                status => return Err(format!("HTTP DELETE {path}: status {status}")),
            },
            Front::S3 => {
                let (bucket, key) = bucket_key(path)?;
                self.s3()?.delete_object(bucket, key).map_err(s)?
            }
            Front::Ftp => self.ftp()?.dele(path).map_err(s)?,
            Front::Ibp => {
                let mcap = &stored
                    .caps
                    .as_ref()
                    .ok_or("IBP delete without caps")?
                    .manage;
                self.ibp()?.decrement(mcap).map_err(s)?
            }
            Front::GridFtp | Front::Nfs => {
                return Err(format!(
                    "no workload deletes through {}",
                    stored.front.name()
                ))
            }
        }
        Ok(start.elapsed())
    }

    // -- job-io ops ----------------------------------------------------------

    fn nfs_read(&mut self, block: u64) -> OpResult<Duration> {
        let len = self.scale.job_block_bytes;
        let offset = block * len as u64;
        let (seed, version) = (self.seed, self.job_blocks[block as usize]);
        let (id, id_offset) = match version {
            0 => (job_object(&self.scale, self.index).id, offset),
            v => (job_block_id(self.index, v), 0),
        };
        let (nfs, fh) = self.nfs()?;
        let start = Instant::now();
        let data = nfs.read(*fh, offset as u32, len as u32).map_err(s)?;
        let ok = data.len() == len && payload::verify_full(seed, id, id_offset, &data);
        let latency = start.elapsed();
        if !ok {
            return Err(format!(
                "NFS READ block {block}: {} bytes differ from write version {version}",
                data.len()
            ));
        }
        Ok(latency)
    }

    fn nfs_write(&mut self, block: u64, version: u64) -> OpResult<Duration> {
        let len = self.scale.job_block_bytes;
        let data = payload::generate(self.seed, job_block_id(self.index, version), len);
        let (nfs, fh) = self.nfs()?;
        let start = Instant::now();
        nfs.write(*fh, (block * len as u64) as u32, &data)
            .map_err(s)?;
        let latency = start.elapsed();
        self.job_blocks[block as usize] = version;
        Ok(latency)
    }

    fn meta(&mut self, op: MetaOp) -> OpResult<Duration> {
        let file = job_object(&self.scale, self.index);
        let tmp = job_tmp_dir(self.index);
        let want_entries = self.scale.job_ls_entries as usize;
        let chirp = self.chirp_auth()?;
        let start = Instant::now();
        match op {
            MetaOp::Stat => {
                let size = chirp.stat(&file.path).map_err(s)?;
                if size != file.size as u64 {
                    return Err(format!("stat {}: size {size}", file.path));
                }
            }
            MetaOp::Ls => {
                let n = chirp.ls(ops::JOB_LS_DIR).map_err(s)?.len();
                if n != want_entries {
                    return Err(format!("ls {}: {n} entries", ops::JOB_LS_DIR));
                }
            }
            MetaOp::MkdirRmdir => {
                chirp.mkdir(&tmp).map_err(s)?;
                chirp.rmdir(&tmp).map_err(s)?;
            }
            MetaOp::LotCycle => {
                let id = chirp.lot_create(1 << 20, 60).map_err(s)?;
                let lot = chirp.lot_stat(id).map_err(s)?;
                if lot.capacity != 1 << 20 {
                    return Err(format!("lot {id}: capacity {}", lot.capacity));
                }
                chirp.lot_renew(id, 60).map_err(s)?;
                chirp.lot_terminate(id).map_err(s)?;
            }
        }
        Ok(start.elapsed())
    }

    /// connect → GSI authenticate → stat → quit on a fresh connection.
    /// Returns the latency and the connect-to-authenticated time.
    fn churn(&mut self) -> OpResult<(Duration, Duration)> {
        let file = job_object(&self.scale, self.index);
        let addr = self.addr(Front::Chirp);
        let start = Instant::now();
        let mut chirp = ChirpClient::connect(addr).map_err(s)?;
        chirp.authenticate(&credential()).map_err(s)?;
        let connected = start.elapsed();
        let size = chirp.stat(&file.path).map_err(s)?;
        chirp.quit().map_err(s)?;
        let latency = start.elapsed();
        if size != file.size as u64 {
            return Err(format!("stat {}: size {size}", file.path));
        }
        Ok((latency, connected))
    }

    // -- dispatch ------------------------------------------------------------

    /// Runs one op; `Ok` carries what to record, `Err` the front it failed
    /// on and why.
    fn execute(&mut self, op: Op) -> Result<Outcome, (Front, String)> {
        match op {
            Op::Get { front, object } => {
                let fail = |e| (front, e);
                let (latency, ttfb) = self.timed_get(front, &object, None).map_err(fail)?;
                self.gets += 1;
                if self.gets.is_multiple_of(FULL_VERIFY_EVERY) {
                    self.full_verify(front, &object).map_err(fail)?;
                }
                Ok(Outcome {
                    ttfb,
                    ..Outcome::new(front, object.size, latency)
                })
            }
            Op::Put { front, seq, size } => {
                let object = ingest_object(self.index, seq, size);
                let (latency, caps) = self.timed_put(front, &object).map_err(|e| (front, e))?;
                let stored = Stored {
                    front,
                    object,
                    caps,
                };
                self.ingest.insert(seq, stored);
                Ok(Outcome::new(front, size, latency))
            }
            Op::ReadBack { seq } => {
                // A failed PUT leaves nothing to read back; that failure
                // was already counted once.
                let Some(stored) = self.ingest.remove(&seq) else {
                    return Err((Front::Chirp, format!("read-back of unstored object {seq}")));
                };
                let front = stored.front;
                let result = self
                    .timed_get(front, &stored.object, stored.caps.as_ref())
                    .and_then(|t| self.full_verify(front, &stored.object).map(|()| t));
                let size = stored.object.size;
                self.ingest.insert(seq, stored);
                let (latency, ttfb) = result.map_err(|e| (front, e))?;
                Ok(Outcome {
                    ttfb,
                    ..Outcome::new(front, size, latency)
                })
            }
            Op::Delete { seq } => {
                let Some(stored) = self.ingest.remove(&seq) else {
                    return Err((Front::Chirp, format!("delete of unstored object {seq}")));
                };
                let front = stored.front;
                let latency = self.timed_delete(&stored).map_err(|e| (front, e))?;
                Ok(Outcome::new(front, 0, latency))
            }
            Op::NfsRead { block } => {
                let latency = self.nfs_read(block).map_err(|e| (Front::Nfs, e))?;
                // One reply carries the whole block: first byte = last byte.
                Ok(Outcome {
                    ttfb: Some(latency),
                    ..Outcome::new(Front::Nfs, self.scale.job_block_bytes, latency)
                })
            }
            Op::NfsWrite { block, version } => {
                let written = self.nfs_write(block, version);
                let latency = written.map_err(|e| (Front::Nfs, e))?;
                Ok(Outcome::new(
                    Front::Nfs,
                    self.scale.job_block_bytes,
                    latency,
                ))
            }
            Op::Meta(kind) => {
                let latency = self.meta(kind).map_err(|e| (Front::Chirp, e))?;
                Ok(Outcome::new(Front::Chirp, 0, latency))
            }
            Op::Churn => {
                let (latency, connected) = self.churn().map_err(|e| (Front::Chirp, e))?;
                Ok(Outcome {
                    connect: Some(connected),
                    ..Outcome::new(Front::Chirp, 0, latency)
                })
            }
        }
    }

    /// Lot-charged bytes this client's ingest ring currently holds.
    fn ingest_live_bytes(&self) -> u64 {
        self.ingest
            .values()
            .filter(|st| st.caps.is_none())
            .map(|st| st.object.size as u64)
            .sum()
    }

    // -- population ----------------------------------------------------------

    fn put_populated(&mut self, object: &Object) -> OpResult<()> {
        let data = payload::generate(self.seed, object.id, object.size);
        self.chirp()?.put_bytes(&object.path, &data).map_err(s)
    }

    /// Creates the directories a workload needs (one client does this).
    fn make_directories(&mut self, workload: Workload, clients: usize) -> OpResult<()> {
        let mut dirs = Vec::new();
        match workload {
            Workload::BulkGet => dirs.push(ops::BULK_DIR.to_owned()),
            Workload::SmallGet => dirs.push(ops::SMALL_DIR.to_owned()),
            Workload::Ingest => {
                dirs.push(ops::SMALL_DIR.to_owned());
                dirs.push(ops::INGEST_DIR.to_owned());
                dirs.extend((0..clients).map(ingest_dir));
            }
            Workload::JobIo => {
                dirs.push(ops::JOB_DIR.to_owned());
                dirs.push(ops::JOB_LS_DIR.to_owned());
                dirs.extend(
                    (0..self.scale.job_ls_entries).map(|i| format!("{}/e{i:02}", ops::JOB_LS_DIR)),
                );
            }
        }
        let chirp = self.chirp()?;
        dirs.iter().try_for_each(|d| chirp.mkdir(d).map_err(s))
    }

    /// Stores this client's share of the workload's objects, then opens its
    /// connections. Returns the lot-charged bytes it stored outside the
    /// ingest ring.
    fn populate(&mut self, workload: Workload, clients: usize) -> OpResult<u64> {
        let mine = |n: u64, index: usize| (0..n).filter(move |i| *i as usize % clients == index);
        let scale = self.scale.clone();
        let mut stored = 0u64;
        match workload {
            Workload::BulkGet => {
                for i in mine(scale.bulk_files, self.index) {
                    self.put_populated(&bulk_object(&scale, i))?;
                    stored += scale.bulk_file_bytes as u64;
                }
            }
            Workload::SmallGet | Workload::Ingest => {
                for i in mine(scale.small_objects, self.index) {
                    self.put_populated(&small_object(&scale, i))?;
                    stored += scale.small_object_bytes as u64;
                }
            }
            Workload::JobIo => {
                self.put_populated(&job_object(&scale, self.index))?;
                stored += scale.job_file_bytes as u64;
            }
        }
        self.connect_all(workload)?;
        if workload == Workload::Ingest {
            // Fill the ring so the measured window starts in steady state:
            // from here on every PUT is paired with a DELETE of the oldest.
            while (self.ingest.len() as u64) < scale.ingest_ring {
                let op = self.stream.next_op();
                self.execute(op).map_err(|(_, e)| e)?;
            }
        }
        Ok(stored)
    }
}

// ---------------------------------------------------------------------------
// Run orchestration
// ---------------------------------------------------------------------------

/// One complete set-up: fresh scratch parent + server child, population by
/// all clients in parallel, connections open. Returns the seconds it took
/// and the lot-charged bytes stored outside the ingest rings.
fn set_up(p: &RunParams) -> io::Result<(Appliance, Vec<Client>, f64, u64)> {
    let start = Instant::now();
    let app = Appliance::spawn(p.workload.name())?;
    let mut clients = (0..p.clients)
        .map(|i| Client::new(p, &app, i))
        .collect::<io::Result<Vec<_>>>()?;
    clients[0]
        .make_directories(p.workload, p.clients)
        .map_err(io::Error::other)?;
    let stored = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(|| c.populate(p.workload, p.clients)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("population thread panicked"))
            .sum::<OpResult<u64>>()
    })
    .map_err(io::Error::other)?;
    Ok((app, clients, start.elapsed().as_secs_f64(), stored))
}

fn fetch_stats(addr: SocketAddr) -> io::Result<BTreeMap<String, f64>> {
    let body = HttpClient::connect(addr)?.get_bytes("/nest/stats")?;
    Ok(MetricsSnapshot::parse_text(&String::from_utf8_lossy(&body)))
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Per-client measurement loop: warm up until the window opens, then
/// record every op that completes before it closes.
fn drive(client: &mut Client, opens: Instant, closes: Instant) -> (Vec<Sample>, Vec<String>) {
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    loop {
        if Instant::now() >= closes {
            return (samples, failures);
        }
        let op = client.stream.next_op();
        let result = client.execute(op);
        let end = Instant::now();
        if end < opens || end >= closes {
            // Warm-up, or still in flight when the window closed.
            if let Err((front, _)) = result {
                client.disconnect(front);
            }
            continue;
        }
        let end_s = (end - opens).as_secs_f64();
        match result {
            Ok(o) => samples.push(Sample {
                end_s,
                latency_ms: o.latency.as_secs_f64() * 1e3,
                ttfb_ms: o.ttfb.map(|d| d.as_secs_f64() * 1e3),
                connect_us: o.connect.map(|d| d.as_secs_f64() * 1e6),
                bytes: o.bytes,
                front: o.front,
                ok: true,
            }),
            Err((front, why)) => {
                client.disconnect(front);
                if failures.len() < 5 {
                    failures.push(why);
                }
                samples.push(Sample {
                    end_s,
                    latency_ms: 0.0,
                    ttfb_ms: None,
                    connect_us: None,
                    bytes: 0,
                    front,
                    ok: false,
                });
            }
        }
    }
}

/// Runs one workload end to end: `setup_reps` set-ups (all but the last
/// torn down again at once), warm-up, the measured window, tear-down.
pub fn run(p: &RunParams) -> io::Result<RunResult> {
    let mut setup_s = Vec::new();
    for _ in 1..p.setup_reps.max(1) {
        let (app, clients, secs, _) = set_up(p)?;
        setup_s.push(secs);
        drop(clients);
        app.stop()?;
    }
    let (app, mut clients, secs, populated_bytes) = set_up(p)?;
    setup_s.push(secs);

    let stats_addr = app.addr(Front::Http)?;
    let (server, me) = (app.pid(), std::process::id());
    let opens = Instant::now() + p.warmup;
    let closes = opens + p.window;
    let ready = Barrier::new(p.clients + 1);

    let (per_client, before, after) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let ready = &ready;
                scope.spawn(move || {
                    ready.wait();
                    drive(c, opens, closes)
                })
            })
            .collect();
        ready.wait();
        sleep_until(opens);
        let before = (fetch_stats(stats_addr), cpu_ms(server), cpu_ms(me));
        sleep_until(closes);
        let after = (fetch_stats(stats_addr), cpu_ms(server), cpu_ms(me));
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, before, after)
    });
    // Every client has stopped: lot accounting and the clients' own tally
    // of what they hold can now be compared exactly.
    let settled = fetch_stats(stats_addr)?;
    let server_rss_peak_mb = rss_peak_mb(server)?;
    let live_bytes = populated_bytes + clients.iter().map(Client::ingest_live_bytes).sum::<u64>();
    drop(clients);
    app.stop()?;

    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for (s, f) in per_client {
        samples.extend(s);
        failures.extend(f);
    }
    failures.truncate(5);
    samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    Ok(RunResult {
        params: p.clone(),
        samples,
        failures,
        setup_s,
        server_cpu_ms: after.1? - before.1?,
        loadgen_cpu_ms: after.2? - before.2?,
        server_rss_peak_mb,
        stats_before: before.0?,
        stats_after: after.0?,
        committed_bytes: settled
            .get("storage.lot.committed_bytes")
            .copied()
            .unwrap_or(f64::NAN),
        live_bytes,
    })
}
