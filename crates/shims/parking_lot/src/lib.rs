//! Workspace-local stand-in for the `parking_lot` crate — and the
//! workspace's concurrency lab.
//!
//! The build environment has no registry access, so the workspace vendors a
//! tiny API-compatible subset of `parking_lot` implemented over
//! `std::sync`. Semantics match what the rest of the workspace relies on:
//!
//! * [`Mutex::lock`] / [`RwLock::read`] / [`RwLock::write`] return guards
//!   directly (no `Result`); a poisoned `std` lock is recovered rather than
//!   propagated, matching `parking_lot`'s poison-free behavior. Every
//!   guard-(re)acquisition path funnels through the same [`recover`]
//!   helpers so poison handling cannot drift between `lock`, `try_lock`,
//!   `read`, `write`, `get_mut`, `into_inner`, and the condvar waits.
//! * [`Condvar::wait_for`] takes `&mut MutexGuard` like `parking_lot`,
//!   rather than consuming the guard like `std`.
//!
//! Because *every* lock in the workspace flows through this shim, it is
//! also the injection point for the `nest-check` analysis layer:
//!
//! * **Named lock classes** — [`Mutex::named`] / [`RwLock::named`] /
//!   [`Condvar::named`] attach a static name and documentation rank
//!   (DESIGN.md §11). A name identifies a lock *class* (lockdep-style),
//!   not an instance; all instances of a class share one statistics cell.
//! * **Contention statistics** (always on for named locks) — per-class
//!   `acquires / contended / wait_ns / hold_ns`, exported via
//!   [`lockstats::snapshot`] and bridged into the `nest-obs` registry.
//! * **Lock-order (deadlock-potential) detection** (runtime-gated, see
//!   [`lock_order`]) — an Eraser-style acquisition-order graph that panics
//!   with both acquisition backtraces on the first cycle-forming edge,
//!   *before* the acquisition blocks, so a constructed AB/BA pair reports
//!   instead of deadlocking.
//!
//! Only the types the workspace uses are provided. This is intentionally
//! minimal — it is a build shim, not a performance claim.

#[path = "order.rs"]
pub mod lock_order;
pub mod lockstats;
#[cfg(feature = "model")]
pub mod model;

use lock_order::Mode;
use lockstats::LockStats;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The single poison-recovery policy for blocking acquisitions and
/// condvar reacquisitions: a poisoned `std` lock yields its guard (or
/// value) as if the poisoning panic never happened. Every path that can
/// hand out a guard goes through this or [`recover_try`].
fn recover<G>(r: Result<G, sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(sync::PoisonError::into_inner)
}

/// Poison-recovery for non-blocking acquisitions: `WouldBlock` maps to
/// `None`, poison recovers exactly like [`recover`].
fn recover_try<G>(r: Result<G, sync::TryLockError<G>>) -> Option<G> {
    match r {
        Ok(g) => Some(g),
        Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(sync::TryLockError::WouldBlock) => None,
    }
}

/// Per-guard tracking state for a named lock: which class to charge and
/// when the current hold segment began.
struct Tracked {
    stats: &'static LockStats,
    since: Instant,
}

impl Tracked {
    fn new(stats: &'static LockStats) -> Self {
        Self {
            stats,
            since: Instant::now(),
        }
    }

    /// Closes the current hold segment (condvar wait or guard drop).
    fn close(&self) {
        self.stats.note_hold(self.since.elapsed().as_nanos() as u64);
        lock_order::note_released(self.stats);
    }
}

/// Shared identity for named lock classes: the `(name, rank)` given at the
/// construction site plus the lazily resolved `'static` stats cell.
#[derive(Default, Debug)]
struct ClassRef {
    name: Option<(&'static str, u16)>,
    cell: OnceLock<&'static LockStats>,
}

impl ClassRef {
    const fn unnamed() -> Self {
        Self {
            name: None,
            cell: OnceLock::new(),
        }
    }

    const fn named(name: &'static str, rank: u16) -> Self {
        Self {
            name: Some((name, rank)),
            cell: OnceLock::new(),
        }
    }

    fn stats(&self) -> Option<&'static LockStats> {
        let (name, rank) = self.name?;
        Some(self.cell.get_or_init(|| lockstats::cell_for(name, rank)))
    }

    /// The class name alone (failure-report labeling under the model).
    #[cfg(feature = "model")]
    fn class_name(&self) -> Option<&'static str> {
        self.name.map(|(n, _)| n)
    }
}

/// The identity key a sync object contributes to the model protocol: its
/// address. Stable for the object's lifetime, which spans any one model
/// run; schedules are keyed by task decisions, not addresses, so reuse
/// across runs is harmless.
#[cfg(feature = "model")]
fn model_addr<T: ?Sized>(obj: &T) -> usize {
    obj as *const T as *const () as usize
}

/// A mutual-exclusion lock with `parking_lot`'s panic-free API.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    class: ClassRef,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    track: Option<Tracked>,
    // Option so Condvar::wait_for can temporarily take the std guard.
    inner: Option<sync::MutexGuard<'a, T>>,
    /// Under the model: the owning lock, so drop and condvar waits can
    /// report releases/reacquisitions to the scheduler.
    #[cfg(feature = "model")]
    model: Option<&'a Mutex<T>>,
}

impl<T> Mutex<T> {
    /// Creates a new (anonymous) mutex.
    pub const fn new(value: T) -> Self {
        Self {
            class: ClassRef::unnamed(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Creates a mutex belonging to the named lock class `name` with
    /// documentation rank `rank` (DESIGN.md §11). Named locks record
    /// acquisition statistics in all builds and participate in lock-order
    /// detection when [`lock_order::is_enabled`].
    pub const fn named(name: &'static str, rank: u16, value: T) -> Self {
        Self {
            class: ClassRef::named(name, rank),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "model")]
        if model::active() {
            model::with(|h| h.mutex_lock(model_addr(self), self.class.class_name()));
            // The scheduler granted exclusive ownership; the std lock is
            // only a storage cell here and cannot be contended.
            let inner = recover_try(self.inner.try_lock())
                .expect("model scheduler grants exclusive mutex ownership");
            return MutexGuard {
                track: None,
                inner: Some(inner),
                model: Some(self),
            };
        }
        let stats = self.class.stats();
        let inner = match stats {
            None => recover(self.inner.lock()),
            Some(s) => {
                // Check ordering BEFORE we can block: a cycle-forming
                // acquisition must panic, not deadlock.
                lock_order::check_acquire(s, Mode::Exclusive);
                let g = match recover_try(self.inner.try_lock()) {
                    Some(g) => g,
                    None => {
                        s.note_contended();
                        let start = Instant::now();
                        let g = recover(self.inner.lock());
                        s.note_wait(start.elapsed().as_nanos() as u64);
                        g
                    }
                };
                s.note_acquire();
                lock_order::note_acquired(s, Mode::Exclusive);
                g
            }
        };
        MutexGuard {
            track: stats.map(Tracked::new),
            inner: Some(inner),
            #[cfg(feature = "model")]
            model: None,
        }
    }

    /// Attempts to acquire the lock without blocking. A failed attempt on
    /// a named lock counts as contention; a successful one pushes a held
    /// entry (it can be the *held* side of a deadlock) but records no
    /// order edge, since `try_lock` never blocks.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(feature = "model")]
        if model::active() {
            let granted =
                model::with(|h| h.mutex_try_lock(model_addr(self), self.class.class_name()));
            if granted != Some(true) {
                return None;
            }
            let inner = recover_try(self.inner.try_lock())
                .expect("model scheduler grants exclusive mutex ownership");
            return Some(MutexGuard {
                track: None,
                inner: Some(inner),
                model: Some(self),
            });
        }
        let stats = self.class.stats();
        match recover_try(self.inner.try_lock()) {
            Some(g) => {
                if let Some(s) = stats {
                    s.note_acquire();
                    lock_order::note_acquired(s, Mode::Exclusive);
                }
                Some(MutexGuard {
                    track: stats.map(Tracked::new),
                    inner: Some(g),
                    #[cfg(feature = "model")]
                    model: None,
                })
            }
            None => {
                if let Some(s) = stats {
                    s.note_contended();
                }
                None
            }
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.track.take() {
            t.close();
        }
        #[cfg(feature = "model")]
        if let Some(m) = self.model.take() {
            // Free the std storage cell first, then hand ownership back
            // to the scheduler: the next task it grants must find the
            // std lock uncontended.
            self.inner = None;
            model::with(|h| h.mutex_unlock(model_addr(m)));
        }
    }
}

/// A reader-writer lock with `parking_lot`'s panic-free API.
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized> {
    class: ClassRef,
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    track: Option<Tracked>,
    inner: Option<sync::RwLockReadGuard<'a, T>>,
    /// Under the model: the owning lock, for the release hook on drop.
    #[cfg(feature = "model")]
    model: Option<&'a RwLock<T>>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    track: Option<Tracked>,
    inner: Option<sync::RwLockWriteGuard<'a, T>>,
    /// Under the model: the owning lock, for the release hook on drop.
    #[cfg(feature = "model")]
    model: Option<&'a RwLock<T>>,
}

impl<T> RwLock<T> {
    /// Creates a new (anonymous) reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            class: ClassRef::unnamed(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a reader-writer lock belonging to the named class `name`
    /// with documentation rank `rank` (DESIGN.md §11).
    pub const fn named(name: &'static str, rank: u16, value: T) -> Self {
        Self {
            class: ClassRef::named(name, rank),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock, recovering from poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "model")]
        if model::active() {
            model::with(|h| h.rw_lock(model_addr(self), self.class.class_name(), false));
            let inner = recover_try(self.inner.try_read())
                .expect("model scheduler grants shared rwlock ownership");
            return RwLockReadGuard {
                track: None,
                inner: Some(inner),
                model: Some(self),
            };
        }
        let stats = self.class.stats();
        let inner = match stats {
            None => recover(self.inner.read()),
            Some(s) => {
                lock_order::check_acquire(s, Mode::Shared);
                let g = match recover_try(self.inner.try_read()) {
                    Some(g) => g,
                    None => {
                        s.note_contended();
                        let start = Instant::now();
                        let g = recover(self.inner.read());
                        s.note_wait(start.elapsed().as_nanos() as u64);
                        g
                    }
                };
                s.note_acquire();
                lock_order::note_acquired(s, Mode::Shared);
                g
            }
        };
        RwLockReadGuard {
            track: stats.map(Tracked::new),
            inner: Some(inner),
            #[cfg(feature = "model")]
            model: None,
        }
    }

    /// Acquires an exclusive write lock, recovering from poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "model")]
        if model::active() {
            model::with(|h| h.rw_lock(model_addr(self), self.class.class_name(), true));
            let inner = recover_try(self.inner.try_write())
                .expect("model scheduler grants exclusive rwlock ownership");
            return RwLockWriteGuard {
                track: None,
                inner: Some(inner),
                model: Some(self),
            };
        }
        let stats = self.class.stats();
        let inner = match stats {
            None => recover(self.inner.write()),
            Some(s) => {
                lock_order::check_acquire(s, Mode::Exclusive);
                let g = match recover_try(self.inner.try_write()) {
                    Some(g) => g,
                    None => {
                        s.note_contended();
                        let start = Instant::now();
                        let g = recover(self.inner.write());
                        s.note_wait(start.elapsed().as_nanos() as u64);
                        g
                    }
                };
                s.note_acquire();
                lock_order::note_acquired(s, Mode::Exclusive);
                g
            }
        };
        RwLockWriteGuard {
            track: stats.map(Tracked::new),
            inner: Some(inner),
            #[cfg(feature = "model")]
            model: None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.track.take() {
            t.close();
        }
        #[cfg(feature = "model")]
        if let Some(l) = self.model.take() {
            self.inner = None;
            model::with(|h| h.rw_unlock(model_addr(l), false));
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.track.take() {
            t.close();
        }
        #[cfg(feature = "model")]
        if let Some(l) = self.model.take() {
            self.inner = None;
            model::with(|h| h.rw_unlock(model_addr(l), true));
        }
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable with `parking_lot`'s `&mut guard` API.
///
/// A *named* condvar records each completed wait as an acquisition of its
/// own class (`acquires` = waits, `wait_ns` = time blocked in the wait),
/// so spool-style wakeup loops show up in the stats table.
#[derive(Default)]
pub struct Condvar {
    class: ClassRef,
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new (anonymous) condition variable.
    pub const fn new() -> Self {
        Self {
            class: ClassRef::unnamed(),
            inner: sync::Condvar::new(),
        }
    }

    /// Creates a condition variable belonging to the named class `name`
    /// with documentation rank `rank` (DESIGN.md §11).
    pub const fn named(name: &'static str, rank: u16) -> Self {
        Self {
            class: ClassRef::named(name, rank),
            inner: sync::Condvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        #[cfg(feature = "model")]
        if model::active() {
            model::with(|h| h.condvar_notify(model_addr(self), self.class.class_name(), false));
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        #[cfg(feature = "model")]
        if model::active() {
            model::with(|h| h.condvar_notify(model_addr(self), self.class.class_name(), true));
            return;
        }
        self.inner.notify_all();
    }

    /// Bookkeeping before the guard's mutex is released into a wait:
    /// closes the current hold segment and pops the held-lock entry.
    fn before_wait<T>(guard: &mut MutexGuard<'_, T>) {
        if let Some(t) = guard.track.as_ref() {
            t.close();
        }
    }

    /// Bookkeeping after the mutex is reacquired on wakeup: re-checks
    /// acquisition order against anything else still held, counts the
    /// reacquisition, and opens a fresh hold segment.
    fn after_wait<T>(&self, guard: &mut MutexGuard<'_, T>, waited: Duration) {
        if let Some(s) = self.class.stats() {
            s.note_acquire();
            s.note_wait(waited.as_nanos() as u64);
        }
        if let Some(t) = guard.track.as_mut() {
            lock_order::check_acquire(t.stats, Mode::Exclusive);
            t.stats.note_acquire();
            lock_order::note_acquired(t.stats, Mode::Exclusive);
            t.since = Instant::now();
        }
    }

    /// Blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(feature = "model")]
        if let Some(m) = guard.model {
            self.model_wait(guard, m, false);
            return;
        }
        let std_guard = guard.inner.take().expect("guard present");
        Self::before_wait(guard);
        let start = Instant::now();
        let std_guard = recover(self.inner.wait(std_guard));
        self.after_wait(guard, start.elapsed());
        guard.inner = Some(std_guard);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "model")]
        if let Some(m) = guard.model {
            // Model time has no clock: the scheduler explores both the
            // notified and the timed-out wakeup as distinct schedules, so
            // the concrete Duration is irrelevant.
            let _ = timeout;
            let timed_out = self.model_wait(guard, m, true);
            return WaitTimeoutResult { timed_out };
        }
        let std_guard = guard.inner.take().expect("guard present");
        Self::before_wait(guard);
        let start = Instant::now();
        let (std_guard, result) = recover(self.inner.wait_timeout(std_guard, timeout));
        self.after_wait(guard, start.elapsed());
        guard.inner = Some(std_guard);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// The model-side wait protocol: release the std storage cell, hand
    /// the atomic release-wait-reacquire to the scheduler, then repopulate
    /// the guard (the scheduler reacquired mutex ownership on our behalf
    /// before waking us). Returns whether the wait timed out.
    #[cfg(feature = "model")]
    fn model_wait<'a, T>(
        &self,
        guard: &mut MutexGuard<'a, T>,
        m: &'a Mutex<T>,
        timed: bool,
    ) -> bool {
        guard.inner = None;
        let timed_out = model::with(|h| {
            h.condvar_wait(
                model_addr(self),
                self.class.class_name(),
                model_addr(m),
                timed,
            )
        })
        .expect("model guard implies installed hooks");
        let inner = recover_try(m.inner.try_lock())
            .expect("model scheduler reacquires the mutex before wakeup");
        guard.inner = Some(inner);
        timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notify_crosses_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait_for(&mut done, Duration::from_millis(50));
        }
        t.join().unwrap();
        assert!(*done);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn named_mutex_counts_acquires_and_contention() {
        let m = Arc::new(Mutex::named("test.shim.counting", 1, 0u64));
        // Uncontended acquisitions.
        for _ in 0..3 {
            *m.lock() += 1;
        }
        // Force a contended acquisition: hold the lock while another
        // thread blocks on it.
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = thread::spawn(move || {
            *m2.lock() += 1;
        });
        // Give the thread time to hit the try_lock fast path and block.
        thread::sleep(Duration::from_millis(30));
        drop(g);
        t.join().unwrap();
        let snap = lockstats::snapshot();
        let row = snap
            .iter()
            .find(|s| s.name == "test.shim.counting")
            .expect("class registered");
        assert!(row.acquires >= 5, "acquires = {}", row.acquires);
        assert!(row.contended >= 1, "contended = {}", row.contended);
        assert!(row.wait_ns > 0, "wait_ns = {}", row.wait_ns);
        assert!(row.hold_ns > 0, "hold_ns = {}", row.hold_ns);
        assert_eq!(row.rank, 1);
        assert_eq!(*m.lock(), 4);
    }

    #[test]
    fn named_instances_share_one_class() {
        let a = Mutex::named("test.shim.shared-class", 2, ());
        let b = Mutex::named("test.shim.shared-class", 7, ());
        drop(a.lock());
        drop(b.lock());
        let snap = lockstats::snapshot();
        let rows: Vec<_> = snap
            .iter()
            .filter(|s| s.name == "test.shim.shared-class")
            .collect();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].acquires >= 2);
        // First registration's rank wins.
        assert_eq!(rows[0].rank, 2);
    }

    #[test]
    fn poisoned_mutex_recovers_on_every_path() {
        let m = Arc::new(Mutex::named("test.shim.poison", 3, 41u32));
        let m2 = Arc::clone(&m);
        // Poison the underlying std lock via a panicking thread.
        let t = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        });
        assert!(t.join().is_err());
        // lock() recovers.
        {
            let mut g = m.lock();
            *g += 1;
        }
        // try_lock() recovers.
        assert_eq!(*m.try_lock().expect("uncontended"), 42);
        // get_mut() and into_inner() recover.
        let mut m = Arc::try_unwrap(m).ok().expect("sole owner");
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 43);
    }

    #[test]
    fn poisoned_rwlock_recovers_on_every_path() {
        let l = Arc::new(RwLock::named("test.shim.poison-rw", 4, 10u32));
        let l2 = Arc::clone(&l);
        let t = thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the rwlock");
        });
        assert!(t.join().is_err());
        assert_eq!(*l.read(), 10);
        *l.write() += 1;
        let mut l = Arc::try_unwrap(l).ok().expect("sole owner");
        *l.get_mut() += 1;
        assert_eq!(l.into_inner(), 12);
    }

    #[test]
    fn condvar_wait_recovers_poison_like_lock() {
        // A thread panics (poisoning the mutex) while the main thread is
        // parked in wait_for: the reacquisition path must recover the
        // guard exactly like Mutex::lock does.
        let pair = Arc::new((
            Mutex::named("test.shim.poison-cv", 5, false),
            Condvar::new(),
        ));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            // Wait until the main thread is (very likely) parked.
            thread::sleep(Duration::from_millis(30));
            let _g = m.lock();
            cv.notify_all();
            panic!("poison while a waiter is parked");
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        let deadline = Instant::now() + Duration::from_secs(5);
        // Tolerate spurious wakeups; exit on notify or timeout.
        while Instant::now() < deadline {
            let r = cv.wait_for(&mut g, Duration::from_millis(100));
            if r.timed_out() {
                continue;
            }
            break;
        }
        // The guard is usable after reacquiring a poisoned lock.
        *g = true;
        drop(g);
        assert!(t.join().is_err());
        assert!(*m.lock());
    }
}
