//! The IBP depot handler (paper §3 future work; §8 related work).
//!
//! A depot stores byte arrays named by capabilities — deliberately *not*
//! integrated with NeST's file namespace, because that is exactly the
//! contrast the paper draws in §8: "IBP reservations are allocations for
//! byte arrays. This makes it extremely difficult for multiple files to be
//! contained within one allocation." Volatile allocations may be revoked
//! under space pressure; stable allocations may not, and unlike lots they
//! never "switch automatically to best-effort when their duration expires"
//! — an expired IBP allocation is simply gone.

use crate::session::{Await, SessionCtx};
use nest_proto::ibp::{parse_command, Capability, IbpCommand, Reliability, CODE_OK};
use nest_proto::wire::{read_exact_vec, read_line, write_line};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Error codes on the wire.
const ERR_NOCAP: i32 = -1;
const ERR_FULL: i32 = -2;
const ERR_EXPIRED: i32 = -3;
const ERR_BADREQ: i32 = -4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CapKind {
    Read,
    Write,
    Manage,
}

struct Allocation {
    size: u64,
    data: Vec<u8>,
    expires: u64,
    reliability: Reliability,
    created_seq: u64,
}

struct DepotState {
    next_id: u64,
    next_seq: u64,
    allocs: HashMap<u64, Allocation>,
    caps: HashMap<String, (u64, CapKind)>,
}

impl DepotState {
    fn resolve(&self, cap: &Capability, want: CapKind) -> Result<u64, i32> {
        match self.caps.get(&cap.0) {
            Some((id, kind)) if *kind == want => Ok(*id),
            _ => Err(ERR_NOCAP),
        }
    }
}

/// An IBP depot: byte-array storage with capability naming and
/// volatile/stable reliability classes.
pub struct IbpDepot {
    capacity: u64,
    state: Mutex<DepotState>,
    clock: Arc<dyn Fn() -> u64 + Send + Sync>,
}

impl IbpDepot {
    /// Creates a depot over `capacity` bytes, using the system clock.
    pub fn new(capacity: u64) -> Self {
        Self::with_clock(
            capacity,
            Arc::new(|| {
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0)
            }),
        )
    }

    /// Creates a depot with an injected clock (tests).
    pub fn with_clock(capacity: u64, clock: Arc<dyn Fn() -> u64 + Send + Sync>) -> Self {
        Self {
            capacity,
            state: Mutex::named(
                "core.ibp.depot",
                100,
                DepotState {
                    next_id: 1,
                    next_seq: 1,
                    allocs: HashMap::new(),
                    caps: HashMap::new(),
                },
            ),
            clock,
        }
    }

    fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Reserves an allocation; returns (read, write, manage) capabilities.
    pub fn allocate(
        &self,
        size: u64,
        duration: u64,
        reliability: Reliability,
    ) -> Result<(Capability, Capability, Capability), i32> {
        let now = self.now();
        let mut st = self.state.lock();

        // Expired allocations are reclaimable unconditionally; volatile
        // ones are revocable under pressure (oldest first). Stable live
        // allocations are untouchable — that is IBP's guarantee.
        loop {
            let reserved: u64 = st.allocs.values().map(|a| a.size).sum();
            if reserved.saturating_add(size) <= self.capacity {
                break;
            }
            let victim = st
                .allocs
                .iter()
                .filter(|(_, a)| a.expires <= now || a.reliability == Reliability::Volatile)
                .min_by_key(|(id, a)| {
                    // Expired first (0), then volatile by age.
                    let class = u64::from(a.expires > now);
                    (class, a.created_seq, **id)
                })
                .map(|(id, _)| *id);
            match victim {
                Some(id) => Self::drop_alloc(&mut st, id),
                None => return Err(ERR_FULL),
            }
        }

        let id = st.next_id;
        st.next_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let rcap = Capability::mint(id, "r", rand::random());
        let wcap = Capability::mint(id, "w", rand::random());
        let mcap = Capability::mint(id, "m", rand::random());
        st.caps.insert(rcap.0.clone(), (id, CapKind::Read));
        st.caps.insert(wcap.0.clone(), (id, CapKind::Write));
        st.caps.insert(mcap.0.clone(), (id, CapKind::Manage));
        st.allocs.insert(
            id,
            Allocation {
                size,
                data: Vec::new(),
                expires: now.saturating_add(duration),
                reliability,
                created_seq: seq,
            },
        );
        Ok((rcap, wcap, mcap))
    }

    fn drop_alloc(st: &mut DepotState, id: u64) {
        st.allocs.remove(&id);
        st.caps.retain(|_, (aid, _)| *aid != id);
    }

    fn resolve(&self, cap: &Capability, want: CapKind) -> Result<u64, i32> {
        self.state.lock().resolve(cap, want)
    }

    /// Appends bytes via the write capability; returns the stored total.
    pub fn store(&self, wcap: &Capability, data: &[u8]) -> Result<u64, i32> {
        let id = self.admit_store(wcap, data.len() as u64)?;
        self.append(id, data)
    }

    /// Checks, before any payload is read, that `wcap` names a live
    /// allocation with room for `nbytes` more; returns its id.
    fn admit_store(&self, wcap: &Capability, nbytes: u64) -> Result<u64, i32> {
        let now = self.now();
        let st = self.state.lock();
        let id = st.resolve(wcap, CapKind::Write)?;
        let alloc = st.allocs.get(&id).ok_or(ERR_NOCAP)?;
        Self::check_room(alloc, nbytes, now)?;
        Ok(id)
    }

    /// Appends to an admitted allocation, checking again: it may have
    /// expired, been dropped or filled up while the payload was read.
    fn append(&self, id: u64, data: &[u8]) -> Result<u64, i32> {
        let now = self.now();
        let mut st = self.state.lock();
        let alloc = st.allocs.get_mut(&id).ok_or(ERR_NOCAP)?;
        Self::check_room(alloc, data.len() as u64, now)?;
        alloc.data.extend_from_slice(data);
        Ok(alloc.data.len() as u64)
    }

    fn check_room(alloc: &Allocation, nbytes: u64, now: u64) -> Result<(), i32> {
        if alloc.expires <= now {
            return Err(ERR_EXPIRED);
        }
        // `data.len() <= size` always holds, so this cannot underflow.
        if nbytes > alloc.size - alloc.data.len() as u64 {
            return Err(ERR_FULL);
        }
        Ok(())
    }

    /// Reads a range via the read capability.
    pub fn load(&self, rcap: &Capability, offset: u64, len: u64) -> Result<Vec<u8>, i32> {
        let id = self.resolve(rcap, CapKind::Read)?;
        let now = self.now();
        let st = self.state.lock();
        let alloc = st.allocs.get(&id).ok_or(ERR_NOCAP)?;
        if alloc.expires <= now {
            return Err(ERR_EXPIRED);
        }
        let start = (offset as usize).min(alloc.data.len());
        let end = start.saturating_add(len as usize).min(alloc.data.len());
        Ok(alloc.data[start..end].to_vec())
    }

    /// Probes via the manage capability: (size, stored, expires,
    /// reliability).
    pub fn probe(&self, mcap: &Capability) -> Result<(u64, u64, u64, Reliability), i32> {
        let id = self.resolve(mcap, CapKind::Manage)?;
        let now = self.now();
        let st = self.state.lock();
        let alloc = st.allocs.get(&id).ok_or(ERR_NOCAP)?;
        if alloc.expires <= now {
            return Err(ERR_EXPIRED);
        }
        Ok((
            alloc.size,
            alloc.data.len() as u64,
            alloc.expires,
            alloc.reliability,
        ))
    }

    /// Extends the duration (expired allocations cannot be revived — the
    /// §8 contrast with renewable lots).
    pub fn extend(&self, mcap: &Capability, extra: u64) -> Result<(), i32> {
        let id = self.resolve(mcap, CapKind::Manage)?;
        let now = self.now();
        let mut st = self.state.lock();
        let alloc = st.allocs.get_mut(&id).ok_or(ERR_NOCAP)?;
        if alloc.expires <= now {
            return Err(ERR_EXPIRED);
        }
        alloc.expires = alloc.expires.saturating_add(extra);
        Ok(())
    }

    /// Deallocates via the manage capability.
    pub fn decrement(&self, mcap: &Capability) -> Result<(), i32> {
        let id = self.resolve(mcap, CapKind::Manage)?;
        let mut st = self.state.lock();
        Self::drop_alloc(&mut st, id);
        Ok(())
    }

    /// Bytes currently reserved (all reliability classes).
    pub fn reserved(&self) -> u64 {
        self.state.lock().allocs.values().map(|a| a.size).sum()
    }
}

/// Serves one IBP connection until QUIT, EOF, drain, or idle reap.
pub fn handle_conn(
    depot: &Arc<IbpDepot>,
    mut stream: TcpStream,
    ctx: &SessionCtx,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    loop {
        match ctx.await_request(&stream)? {
            Await::Ready => {}
            _ => return Ok(()),
        }
        let Some(line) = read_line(&mut stream)? else {
            return Ok(());
        };
        if line.is_empty() {
            continue;
        }
        match parse_command(&line) {
            None => write_line(&mut stream, &format!("{} bad request", ERR_BADREQ))?,
            Some(IbpCommand::Quit) => {
                write_line(&mut stream, &format!("{} bye", CODE_OK))?;
                return Ok(());
            }
            Some(IbpCommand::Allocate {
                size,
                duration,
                reliability,
            }) => match depot.allocate(size, duration, reliability) {
                Ok((r, w, m)) => {
                    write_line(&mut stream, &format!("{} {} {} {}", CODE_OK, r, w, m))?
                }
                Err(code) => write_line(&mut stream, &format!("{} allocate failed", code))?,
            },
            Some(IbpCommand::Store { wcap, nbytes }) => {
                // Judge the capability and the room left before reading the
                // payload, so no buffer is sized from an unchecked length.
                // A refused payload is never read, so the stream is no
                // longer framed: reply and close.
                let id = match depot.admit_store(&wcap, nbytes) {
                    Ok(id) => id,
                    Err(code) => {
                        write_line(&mut stream, &format!("{} store failed", code))?;
                        return Ok(());
                    }
                };
                let data = read_exact_vec(&mut stream, nbytes)?;
                match depot.append(id, &data) {
                    Ok(total) => write_line(&mut stream, &format!("{} {}", CODE_OK, total))?,
                    Err(code) => write_line(&mut stream, &format!("{} store failed", code))?,
                }
            }
            Some(IbpCommand::Load { rcap, offset, len }) => match depot.load(&rcap, offset, len) {
                Ok(data) => {
                    write_line(&mut stream, &format!("{} {}", CODE_OK, data.len()))?;
                    stream.write_all(&data)?;
                    stream.flush()?;
                }
                Err(code) => write_line(&mut stream, &format!("{} load failed", code))?,
            },
            Some(IbpCommand::Probe { mcap }) => match depot.probe(&mcap) {
                Ok((size, stored, expires, rel)) => write_line(
                    &mut stream,
                    &format!(
                        "{} {} {} {} {}",
                        CODE_OK,
                        size,
                        stored,
                        expires,
                        rel.as_str()
                    ),
                )?,
                Err(code) => write_line(&mut stream, &format!("{} probe failed", code))?,
            },
            Some(IbpCommand::Extend { mcap, extra }) => match depot.extend(&mcap, extra) {
                Ok(()) => write_line(&mut stream, &format!("{} ok", CODE_OK))?,
                Err(code) => write_line(&mut stream, &format!("{} extend failed", code))?,
            },
            Some(IbpCommand::Decrement { mcap }) => match depot.decrement(&mcap) {
                Ok(()) => write_line(&mut stream, &format!("{} ok", CODE_OK))?,
                Err(code) => write_line(&mut stream, &format!("{} decrement failed", code))?,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn depot_at(capacity: u64) -> (Arc<IbpDepot>, Arc<AtomicU64>) {
        let now = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&now);
        let depot = Arc::new(IbpDepot::with_clock(
            capacity,
            Arc::new(move || n2.load(Ordering::Relaxed)),
        ));
        (depot, now)
    }

    #[test]
    fn allocate_store_load_lifecycle() {
        let (depot, _) = depot_at(1000);
        let (r, w, m) = depot.allocate(100, 60, Reliability::Stable).unwrap();
        assert_eq!(depot.store(&w, b"hello ").unwrap(), 6);
        assert_eq!(depot.store(&w, b"world").unwrap(), 11);
        assert_eq!(depot.load(&r, 6, 5).unwrap(), b"world");
        let (size, stored, _, rel) = depot.probe(&m).unwrap();
        assert_eq!((size, stored, rel), (100, 11, Reliability::Stable));
        depot.decrement(&m).unwrap();
        assert_eq!(depot.load(&r, 0, 1), Err(ERR_NOCAP));
    }

    #[test]
    fn capabilities_enforce_rights() {
        let (depot, _) = depot_at(1000);
        let (r, w, m) = depot.allocate(10, 60, Reliability::Volatile).unwrap();
        // Wrong capability kind for each operation.
        assert_eq!(depot.store(&r, b"x"), Err(ERR_NOCAP));
        assert_eq!(depot.load(&w, 0, 1), Err(ERR_NOCAP));
        assert_eq!(depot.probe(&r), Err(ERR_NOCAP));
        // A forged capability with a correct-looking shape fails too.
        let forged = Capability::mint(m.alloc_id().unwrap(), "m", 12345);
        assert_eq!(depot.decrement(&forged), Err(ERR_NOCAP));
    }

    #[test]
    fn overfill_rejected() {
        let (depot, _) = depot_at(1000);
        let (_, w, _) = depot.allocate(5, 60, Reliability::Stable).unwrap();
        assert_eq!(depot.store(&w, b"123456"), Err(ERR_FULL));
        assert_eq!(depot.store(&w, b"12345").unwrap(), 5);
    }

    #[test]
    fn volatile_revoked_under_pressure_stable_not() {
        let (depot, _) = depot_at(1000);
        let (rv, wv, _) = depot.allocate(600, 60, Reliability::Volatile).unwrap();
        depot.store(&wv, &[1; 600]).unwrap();
        let (_, ws, _) = depot.allocate(300, 60, Reliability::Stable).unwrap();
        depot.store(&ws, &[2; 300]).unwrap();
        // Needing 400 more: the volatile allocation is revoked.
        let (_, _, _) = depot.allocate(400, 60, Reliability::Stable).unwrap();
        assert_eq!(depot.load(&rv, 0, 1), Err(ERR_NOCAP));
        // Now 700/1000 stable reserved; another 400 stable cannot evict
        // stable space.
        assert_eq!(
            depot.allocate(400, 60, Reliability::Stable).err(),
            Some(ERR_FULL)
        );
    }

    #[test]
    fn expired_allocations_are_gone_not_best_effort() {
        // The §8 contrast with lots: no automatic stable→volatile switch;
        // expiry ends the allocation outright and it cannot be revived.
        let (depot, now) = depot_at(1000);
        let (r, w, m) = depot.allocate(100, 10, Reliability::Stable).unwrap();
        depot.store(&w, b"data").unwrap();
        now.store(20, Ordering::Relaxed);
        assert_eq!(depot.load(&r, 0, 4), Err(ERR_EXPIRED));
        assert_eq!(depot.extend(&m, 100), Err(ERR_EXPIRED));
        // Its space is reclaimable by anyone.
        depot.allocate(1000, 60, Reliability::Stable).unwrap();
        assert_eq!(depot.probe(&m), Err(ERR_NOCAP));
    }

    #[test]
    fn extend_prolongs_live_allocations() {
        let (depot, now) = depot_at(1000);
        let (_, _, m) = depot.allocate(10, 10, Reliability::Stable).unwrap();
        depot.extend(&m, 100).unwrap();
        now.store(50, Ordering::Relaxed);
        let (_, _, expires, _) = depot.probe(&m).unwrap();
        assert_eq!(expires, 110);
    }
}
