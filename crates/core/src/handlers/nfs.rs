//! The NFS (and MOUNT) protocol handler, served over ONC RPC.
//!
//! Per the paper, NFS connections get anonymous access only; a default lot
//! for the anonymous user (or a Chirp-created one) must back NFS writes.
//! Every READ/WRITE block is routed through the transfer manager as its
//! own flow, so cross-protocol scheduling policies see NFS traffic.

use crate::dispatcher::Dispatcher;
use crate::fhtable::FhTable;
use nest_proto::nfs::types::{FileHandle, NfsAttr, NfsStat};
use nest_proto::nfs::wire::{
    mountproc, proc, AttrStat, CreateArgs, DirEntry, DirOpArgs, DirOpRes, FhStatus, ReadArgs,
    ReadDirArgs, ReadDirRes, ReadRes, RenameArgs, SetAttrArgs, WriteArgs,
};
use nest_proto::request::NestError;
use nest_storage::backend::FileKind;
use nest_storage::{Principal, VPath};
use nest_sunrpc::rpc::{AcceptStat, CallBody};
use nest_sunrpc::server::RpcHandler;
use nest_sunrpc::xdr::{XdrDecoder, XdrEncoder};
use std::net::SocketAddr;
use std::sync::Arc;

const PROTOCOL: &str = "nfs";

/// The NFS dialect's `NestError` mapping (exposed for the protocol-front
/// error-surface contract).
pub fn nfs_stat_for(e: NestError) -> NfsStat {
    match e {
        NestError::Denied => NfsStat::Acces,
        NestError::NotFound => NfsStat::NoEnt,
        NestError::Exists => NfsStat::Exist,
        NestError::NoSpace => NfsStat::Dquot,
        NestError::BadRequest => NfsStat::Io,
        NestError::Invalid => NfsStat::NotDir,
        NestError::Internal => NfsStat::Io,
    }
}

/// The NFS program handler.
pub struct NfsHandler {
    dispatcher: Arc<Dispatcher>,
    fhs: Arc<FhTable>,
}

impl NfsHandler {
    /// Creates a handler sharing the appliance's handle table.
    pub fn new(dispatcher: Arc<Dispatcher>, fhs: Arc<FhTable>) -> Self {
        Self { dispatcher, fhs }
    }

    fn who(&self) -> Principal {
        // The paper's configuration: NFS is anonymous-only.
        Principal::anonymous()
    }

    fn resolve(&self, fh: &FileHandle) -> Result<VPath, NfsStat> {
        self.fhs.resolve(fh).ok_or(NfsStat::Stale)
    }

    fn attr_for(&self, path: &VPath) -> Result<NfsAttr, NfsStat> {
        let st = self
            .dispatcher
            .storage()
            .stat(&self.who(), PROTOCOL, path)
            .map_err(|e| nfs_stat_for(NestError::from(&e)))?;
        let fileid = self.fhs.fileid(path);
        Ok(match st.kind {
            FileKind::File => NfsAttr::file(st.size.min(u32::MAX as u64) as u32, fileid),
            FileKind::Dir => NfsAttr::dir(fileid),
        })
    }

    fn getattr(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let fh = FileHandle::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let res = match self.resolve(&fh).and_then(|p| self.attr_for(&p)) {
            Ok(attr) => AttrStat::ok(attr),
            Err(status) => AttrStat::err(status),
        };
        let mut e = XdrEncoder::new();
        res.encode(&mut e);
        Ok(e.into_bytes())
    }

    fn setattr(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let args = SetAttrArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let res = (|| {
            let path = self.resolve(&args.fh)?;
            if let Some(size) = args.size {
                // Truncation is a write-class operation: the storage
                // manager checks the Write right and keeps the lot
                // accounting (and its journal) in step.
                self.dispatcher
                    .storage()
                    .truncate(&self.who(), PROTOCOL, &path, u64::from(size))
                    .map_err(|e| nfs_stat_for(NestError::from(&e)))?;
            }
            self.attr_for(&path)
        })()
        .map_or_else(AttrStat::err, AttrStat::ok);
        let mut e = XdrEncoder::new();
        res.encode(&mut e);
        Ok(e.into_bytes())
    }

    fn lookup(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let args = DirOpArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let res = (|| {
            let dir = self.resolve(&args.dir)?;
            let path = dir.join(&args.name).map_err(|_| NfsStat::NoEnt)?;
            let attr = self.attr_for(&path)?;
            Ok::<_, NfsStat>(DirOpRes::ok(self.fhs.handle_for(&path), attr))
        })()
        .unwrap_or_else(DirOpRes::err);
        let mut e = XdrEncoder::new();
        res.encode(&mut e);
        Ok(e.into_bytes())
    }

    fn read(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let args = ReadArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let res = (|| {
            let path = self.resolve(&args.fh)?;
            let count = args.count.min(nest_proto::nfs::NFS_BLOCK_SIZE) as usize;
            let data = self
                .dispatcher
                .read_block(&self.who(), PROTOCOL, &path, args.offset as u64, count)
                .map_err(nfs_stat_for)?;
            let attr = self.attr_for(&path)?;
            Ok::<_, NfsStat>(ReadRes {
                status: NfsStat::Ok,
                attr: Some(attr),
                data,
            })
        })()
        .unwrap_or_else(|status| ReadRes {
            status,
            attr: None,
            data: Vec::new(),
        });
        let mut e = XdrEncoder::new();
        res.encode(&mut e);
        Ok(e.into_bytes())
    }

    fn write(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let args = WriteArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let res = (|| {
            let path = self.resolve(&args.fh)?;
            self.dispatcher
                .write_block(&self.who(), PROTOCOL, &path, args.offset as u64, args.data)
                .map_err(nfs_stat_for)?;
            let attr = self.attr_for(&path)?;
            Ok::<_, NfsStat>(AttrStat::ok(attr))
        })()
        .unwrap_or_else(AttrStat::err);
        let mut e = XdrEncoder::new();
        res.encode(&mut e);
        Ok(e.into_bytes())
    }

    fn create(&self, d: &mut XdrDecoder<'_>, mkdir: bool) -> Result<Vec<u8>, AcceptStat> {
        let args = CreateArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let res = (|| {
            let dir = self.resolve(&args.wher.dir)?;
            let path = dir.join(&args.wher.name).map_err(|_| NfsStat::Io)?;
            if mkdir {
                self.dispatcher
                    .storage()
                    .mkdir(&self.who(), PROTOCOL, &path)
                    .map_err(|e| nfs_stat_for(NestError::from(&e)))?;
            } else {
                self.dispatcher
                    .storage()
                    .begin_put(&self.who(), PROTOCOL, &path, 0)
                    .map_err(|e| nfs_stat_for(NestError::from(&e)))?;
            }
            let attr = self.attr_for(&path)?;
            Ok::<_, NfsStat>(DirOpRes::ok(self.fhs.handle_for(&path), attr))
        })()
        .unwrap_or_else(DirOpRes::err);
        let mut e = XdrEncoder::new();
        res.encode(&mut e);
        Ok(e.into_bytes())
    }

    fn remove(&self, d: &mut XdrDecoder<'_>, rmdir: bool) -> Result<Vec<u8>, AcceptStat> {
        let args = DirOpArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let status = (|| {
            let dir = self.resolve(&args.dir)?;
            let path = dir.join(&args.name).map_err(|_| NfsStat::NoEnt)?;
            let sm = self.dispatcher.storage();
            let result = if rmdir {
                sm.rmdir(&self.who(), PROTOCOL, &path)
            } else {
                sm.remove(&self.who(), PROTOCOL, &path)
            };
            result.map_err(|e| nfs_stat_for(NestError::from(&e)))?;
            self.fhs.forget(&path);
            Ok::<_, NfsStat>(NfsStat::Ok)
        })()
        .unwrap_or_else(|s| s);
        let mut e = XdrEncoder::new();
        e.put_u32(status as u32);
        Ok(e.into_bytes())
    }

    fn rename(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let args = RenameArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let status = (|| {
            let from_dir = self.resolve(&args.from.dir)?;
            let to_dir = self.resolve(&args.to.dir)?;
            let from = from_dir.join(&args.from.name).map_err(|_| NfsStat::NoEnt)?;
            let to = to_dir.join(&args.to.name).map_err(|_| NfsStat::Io)?;
            self.dispatcher
                .storage()
                .rename(&self.who(), PROTOCOL, &from, &to)
                .map_err(|e| nfs_stat_for(NestError::from(&e)))?;
            self.fhs.rename(&from, &to);
            Ok::<_, NfsStat>(NfsStat::Ok)
        })()
        .unwrap_or_else(|s| s);
        let mut e = XdrEncoder::new();
        e.put_u32(status as u32);
        Ok(e.into_bytes())
    }

    fn readdir(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let args = ReadDirArgs::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let res = (|| {
            let dir = self.resolve(&args.fh)?;
            let names = self
                .dispatcher
                .storage()
                .list(&self.who(), PROTOCOL, &dir)
                .map_err(|e| nfs_stat_for(NestError::from(&e)))?;
            // Cookie = index into the listing (1-based); "." and ".." first.
            let mut all: Vec<(u32, String)> = Vec::with_capacity(names.len() + 2);
            all.push((self.fhs.fileid(&dir), ".".to_owned()));
            let parent = dir.parent().unwrap_or_else(VPath::root);
            all.push((self.fhs.fileid(&parent), "..".to_owned()));
            for name in names {
                let child = dir.join(&name).map_err(|_| NfsStat::Io)?;
                all.push((self.fhs.fileid(&child), name));
            }
            let start = args.cookie as usize;
            let mut entries = Vec::new();
            let mut budget = args.count.max(512) as usize;
            let mut idx = start;
            while idx < all.len() && budget > 0 {
                let (fileid, name) = &all[idx];
                budget = budget.saturating_sub(16 + name.len());
                entries.push(DirEntry {
                    fileid: *fileid,
                    name: name.clone(),
                    cookie: (idx + 1) as u32,
                });
                idx += 1;
            }
            Ok::<_, NfsStat>(ReadDirRes {
                status: NfsStat::Ok,
                entries,
                eof: idx >= all.len(),
            })
        })()
        .unwrap_or_else(|status| ReadDirRes {
            status,
            entries: Vec::new(),
            eof: true,
        });
        let mut e = XdrEncoder::new();
        res.encode(&mut e);
        Ok(e.into_bytes())
    }

    fn statfs(&self, d: &mut XdrDecoder<'_>) -> Result<Vec<u8>, AcceptStat> {
        let _fh = FileHandle::decode(d).map_err(|_| AcceptStat::GarbageArgs)?;
        let lm = self.dispatcher.storage().lot_manager();
        let total = lm.total_capacity();
        let now = 0; // reservable(now=0) is a lower bound; fine for statfs
        let free = lm.reservable(now);
        let mut e = XdrEncoder::new();
        e.put_u32(NfsStat::Ok as u32);
        e.put_u32(nest_proto::nfs::NFS_BLOCK_SIZE); // tsize
        e.put_u32(512); // bsize
        e.put_u32((total / 512) as u32); // blocks
        e.put_u32((free / 512) as u32); // bfree
        e.put_u32((free / 512) as u32); // bavail
        Ok(e.into_bytes())
    }
}

impl RpcHandler for NfsHandler {
    fn handle(&self, call: &CallBody, _peer: SocketAddr) -> Result<Vec<u8>, AcceptStat> {
        let mut d = XdrDecoder::new(&call.args);
        match call.proc {
            proc::NULL => Ok(Vec::new()),
            proc::GETATTR => self.getattr(&mut d),
            proc::SETATTR => self.setattr(&mut d),
            proc::LOOKUP => self.lookup(&mut d),
            proc::READ => self.read(&mut d),
            // nestlint: allow(raw-socket-write): NFS WRITE proc dispatch, not stream I/O
            proc::WRITE => self.write(&mut d),
            proc::CREATE => self.create(&mut d, false),
            proc::MKDIR => self.create(&mut d, true),
            proc::REMOVE => self.remove(&mut d, false),
            proc::RMDIR => self.remove(&mut d, true),
            proc::RENAME => self.rename(&mut d),
            proc::READDIR => self.readdir(&mut d),
            proc::STATFS => self.statfs(&mut d),
            _ => Err(AcceptStat::ProcUnavail),
        }
    }
}

/// The MOUNT program handler ("within NeST, mount is handled by the NFS
/// handler" — here a sibling sharing the same handle table).
pub struct MountHandler {
    fhs: Arc<FhTable>,
}

impl MountHandler {
    /// Creates a handler over the shared handle table.
    pub fn new(fhs: Arc<FhTable>) -> Self {
        Self { fhs }
    }
}

impl RpcHandler for MountHandler {
    fn handle(&self, call: &CallBody, _peer: SocketAddr) -> Result<Vec<u8>, AcceptStat> {
        match call.proc {
            mountproc::NULL => Ok(Vec::new()),
            mountproc::MNT => {
                let mut d = XdrDecoder::new(&call.args);
                let _dirpath = d.get_str().map_err(|_| AcceptStat::GarbageArgs)?;
                // NeST exports a single virtual root.
                let st = FhStatus {
                    status: 0,
                    fh: Some(self.fhs.root()),
                };
                let mut e = XdrEncoder::new();
                st.encode(&mut e);
                Ok(e.into_bytes())
            }
            mountproc::UMNT => Ok(Vec::new()),
            _ => Err(AcceptStat::ProcUnavail),
        }
    }
}
