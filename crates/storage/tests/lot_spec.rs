//! The executable lot spec (paper §5): a naive reference model of the lot
//! table — a `Vec` of lots, every question answered by a linear scan — and
//! a property that drives it and `LotManager` with the same seeded op
//! sequences, asserting equal answers after every op.
//!
//! The rules the model pins:
//! * a lot is guaranteed until it expires and best-effort after. Creation
//!   admits a lot only while Σ active capacities + Σ best-effort used fits
//!   the total, reclaiming best-effort lots in `ReclaimPolicy` order, and
//!   refuses without evicting anything when even full reclamation falls
//!   short;
//! * a charge spans the user's active lots in id order, each taking what it
//!   has free, and is refused whole when together they cannot hold it. A
//!   charge *to* an end charges only what the path's lots do not already
//!   hold;
//! * evicting or terminating a lot hands back every file it backs, and
//!   drops those files' charges in every other lot too;
//! * renewing an expired lot re-promises its capacity, so it fails when
//!   that no longer fits;
//! * every `create` call takes a fresh id, a refused one included; a
//!   restore continues after the highest surviving id.

use nest_storage::lot::{Evicted, Lot, LotError, LotId, LotOwner, ReclaimPolicy};
use nest_storage::{LotManager, VPath};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

const TOTAL: u64 = 1000;

/// The reference model: lots in id order, nothing indexed.
struct Model {
    policy: ReclaimPolicy,
    next_id: u64,
    lots: Vec<Lot>,
}

impl Model {
    fn new(policy: ReclaimPolicy) -> Self {
        Self {
            policy,
            next_id: 1,
            lots: Vec::new(),
        }
    }

    /// (Σ active capacities, Σ best-effort used), leaving out `skip`.
    fn committed(&self, now: u64, skip: Option<LotId>) -> (u64, u64) {
        let counted = self.lots.iter().filter(|l| Some(l.id) != skip);
        counted.fold((0, 0), |(active, best), l| match l.is_expired(now) {
            true => (active, best + l.used),
            false => (active + l.capacity, best),
        })
    }

    fn create(
        &mut self,
        owner: LotOwner,
        capacity: u64,
        duration: u64,
        now: u64,
    ) -> Result<(LotId, Evicted), LotError> {
        let id = LotId(self.next_id);
        self.next_id += 1;
        let (active, _) = self.committed(now, None);
        if active + capacity > TOTAL {
            let available = TOTAL.saturating_sub(active);
            return Err(LotError::InsufficientSpace {
                requested: capacity,
                available,
            });
        }
        let mut evicted = Evicted::default();
        loop {
            let (active, best) = self.committed(now, None);
            if active + best + capacity <= TOTAL {
                break;
            }
            let expired = self.lots.iter().filter(|l| l.is_expired(now));
            let victim = match self.policy {
                ReclaimPolicy::ExpiredFirst => expired.min_by_key(|l| (l.expires_at, l.id)),
                ReclaimPolicy::LargestFirst => expired.max_by_key(|l| (l.used, Reverse(l.id))),
                ReclaimPolicy::Lru => expired.min_by_key(|l| (l.last_access, l.id)),
            };
            let victim = victim.expect("best-effort bytes live in an expired lot").id;
            self.evict(victim, &mut evicted);
        }
        self.lots.push(Lot {
            id,
            owner,
            capacity,
            expires_at: now + duration,
            used: 0,
            last_access: now,
            files: BTreeMap::new(),
        });
        Ok((id, evicted))
    }

    fn evict(&mut self, id: LotId, evicted: &mut Evicted) {
        let at = self.lots.iter().position(|l| l.id == id).expect("live lot");
        let lot = self.lots.remove(at);
        evicted.lots.push(id);
        for path in lot.files.into_keys() {
            self.release(&path);
            evicted.files.push(path);
        }
    }

    fn charge(
        &mut self,
        user: &str,
        groups: &HashSet<String>,
        path: &VPath,
        bytes: u64,
        now: u64,
    ) -> Result<Vec<LotId>, LotError> {
        let mine: Vec<usize> = (0..self.lots.len())
            .filter(|i| self.lots[*i].owner.usable_by(user, groups))
            .collect();
        let Some(&first) = mine.first() else {
            return Err(LotError::NoLot(user.to_owned()));
        };
        let active: Vec<usize> = mine
            .into_iter()
            .filter(|i| !self.lots[*i].is_expired(now))
            .collect();
        if active.is_empty() {
            return Err(LotError::Expired(self.lots[first].id));
        }
        let available = active.iter().map(|i| self.lots[*i].free()).sum();
        if bytes > available {
            let requested = bytes;
            return Err(LotError::InsufficientSpace {
                requested,
                available,
            });
        }
        let (mut remaining, mut charged) = (bytes, Vec::new());
        for i in active {
            let lot = &mut self.lots[i];
            let take = lot.free().min(remaining);
            if take > 0 {
                lot.used += take;
                lot.last_access = now;
                *lot.files.entry(path.clone()).or_insert(0) += take;
                remaining -= take;
                charged.push(lot.id);
            }
        }
        Ok(charged)
    }

    fn charge_to(
        &mut self,
        user: &str,
        groups: &HashSet<String>,
        path: &VPath,
        end: u64,
        now: u64,
    ) -> Result<Vec<LotId>, LotError> {
        match self.file_charge(path, now).0 {
            held if end <= held => Ok(Vec::new()),
            held => self.charge(user, groups, path, end - held, now),
        }
    }

    fn release(&mut self, path: &VPath) -> u64 {
        let mut released = 0;
        for lot in &mut self.lots {
            if let Some(bytes) = lot.files.remove(path) {
                lot.used -= bytes;
                released += bytes;
            }
        }
        released
    }

    fn touch(&mut self, path: &VPath, now: u64) {
        for lot in self.lots.iter_mut().filter(|l| l.files.contains_key(path)) {
            lot.last_access = now;
        }
    }

    fn renew(&mut self, id: LotId, extra: u64, now: u64) -> Result<(), LotError> {
        let (active, best) = self.committed(now, Some(id));
        let lot = self.lots.iter_mut().find(|l| l.id == id);
        let lot = lot.ok_or(LotError::NoSuchLot(id))?;
        if !lot.is_expired(now) {
            lot.expires_at += extra;
        } else if active + best + lot.capacity > TOTAL {
            return Err(LotError::InsufficientSpace {
                requested: lot.capacity,
                available: TOTAL.saturating_sub(active + best),
            });
        } else {
            lot.expires_at = now + extra;
        }
        Ok(())
    }

    fn terminate(&mut self, id: LotId) -> Result<Evicted, LotError> {
        if !self.lots.iter().any(|l| l.id == id) {
            return Err(LotError::NoSuchLot(id));
        }
        let mut evicted = Evicted::default();
        self.evict(id, &mut evicted);
        Ok(evicted)
    }

    fn file_charge(&self, path: &VPath, now: u64) -> (u64, bool) {
        let backing = self.lots.iter().filter(|l| l.files.contains_key(path));
        backing.fold((0, false), |(bytes, guaranteed), l| {
            (bytes + l.files[path], guaranteed || !l.is_expired(now))
        })
    }

    fn guaranteed(&self, now: u64) -> u64 {
        self.committed(now, None).0
    }

    fn snapshot(&self) -> String {
        let mut out = String::new();
        for lot in &self.lots {
            let (kind, name) = match &lot.owner {
                LotOwner::User(u) => ("user", u),
                LotOwner::Group(g) => ("group", g),
            };
            let (id, cap, exp, last) = (lot.id.0, lot.capacity, lot.expires_at, lot.last_access);
            let _ = writeln!(out, "lot {id} {kind} {name} {cap} {exp} {last}");
            for (path, bytes) in &lot.files {
                let _ = writeln!(out, "file {id} {bytes} {path}");
            }
        }
        out
    }

    /// A live table always keeps its guarantee, so restoring its snapshot
    /// drops no lot; ids continue after the highest surviving one.
    fn restore(&mut self) {
        self.next_id = self.lots.last().map_or(1, |l| l.id.0 + 1);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create {
        owner: u8,
        capacity: u64,
        duration: u64,
    },
    Charge {
        user: u8,
        file: u8,
        bytes: u64,
    },
    ChargeTo {
        user: u8,
        file: u8,
        end: u64,
    },
    Release {
        file: u8,
    },
    Touch {
        file: u8,
    },
    Renew {
        id: u64,
        extra: u64,
    },
    Terminate {
        id: u64,
    },
    Advance {
        secs: u64,
    },
    Restore,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 1u64..500, 1u64..40).prop_map(|(owner, capacity, duration)| Op::Create {
            owner,
            capacity,
            duration
        }),
        (0u8..2, 0u8..4, 1u64..300).prop_map(|(user, file, bytes)| Op::Charge {
            user,
            file,
            bytes
        }),
        (0u8..2, 0u8..4, 1u64..600).prop_map(|(user, file, end)| Op::ChargeTo { user, file, end }),
        (0u8..4).prop_map(|file| Op::Release { file }),
        (0u8..4).prop_map(|file| Op::Touch { file }),
        (0u64..8, 1u64..40).prop_map(|(id, extra)| Op::Renew { id, extra }),
        (0u64..8, 1u64..40).prop_map(|(id, extra)| Op::Renew { id, extra }),
        (0u64..8).prop_map(|id| Op::Terminate { id }),
        (0u64..20).prop_map(|secs| Op::Advance { secs }),
        Just(Op::Restore),
    ]
}

/// Owners 0 and 1 are users; owner 2 is group `g`, of which `u1` is a
/// member.
fn owner(o: u8) -> LotOwner {
    match o {
        0 => LotOwner::User("u0".into()),
        1 => LotOwner::User("u1".into()),
        _ => LotOwner::Group("g".into()),
    }
}

fn groups(user: u8) -> HashSet<String> {
    match user {
        0 => HashSet::new(),
        _ => ["g".to_owned()].into(),
    }
}

fn paths() -> Vec<VPath> {
    ["/a", "/b", "/c", "/d/e f"]
        .iter()
        .map(|p| VPath::parse(p).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every op the manager and the model agree on the op's result
    /// (`Ok`/`Err` and the error's numbers, `Evicted` lists in order), on
    /// every path's `file_charge`, on `guaranteed`, and on the snapshot
    /// text; and the model's commitment never exceeds the total.
    #[test]
    fn lot_manager_matches_the_reference_model(
        ops in prop::collection::vec(arb_op(), 1..80),
        policy in prop_oneof![
            Just(ReclaimPolicy::ExpiredFirst),
            Just(ReclaimPolicy::LargestFirst),
            Just(ReclaimPolicy::Lru)
        ],
    ) {
        let paths = paths();
        let mut lm = LotManager::new(TOTAL, policy);
        let mut model = Model::new(policy);
        let mut now = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let at = format!("{op:?} (step {step}, {policy:?})");
            match *op {
                Op::Create { owner: o, capacity, duration } => prop_assert_eq!(
                    lm.create(owner(o), capacity, duration, now),
                    model.create(owner(o), capacity, duration, now),
                    "{}", at
                ),
                Op::Charge { user, file, bytes } => {
                    let (name, groups) = (format!("u{user}"), groups(user));
                    let path = &paths[file as usize];
                    prop_assert_eq!(
                        lm.charge_file(&name, &groups, path, bytes, now),
                        model.charge(&name, &groups, path, bytes, now),
                        "{}", at
                    );
                }
                Op::ChargeTo { user, file, end } => {
                    let (name, groups) = (format!("u{user}"), groups(user));
                    let path = &paths[file as usize];
                    prop_assert_eq!(
                        lm.charge_file_to(&name, &groups, path, end, now),
                        model.charge_to(&name, &groups, path, end, now),
                        "{}", at
                    );
                }
                Op::Release { file } => prop_assert_eq!(
                    lm.release_file(&paths[file as usize]),
                    model.release(&paths[file as usize]),
                    "{}", at
                ),
                Op::Touch { file } => {
                    lm.touch_file(&paths[file as usize], now);
                    model.touch(&paths[file as usize], now);
                }
                Op::Renew { id, extra } => prop_assert_eq!(
                    lm.renew(LotId(id), extra, now),
                    model.renew(LotId(id), extra, now),
                    "{}", at
                ),
                Op::Terminate { id } => prop_assert_eq!(
                    lm.terminate(LotId(id)),
                    model.terminate(LotId(id)),
                    "{}", at
                ),
                Op::Advance { secs } => now += secs,
                Op::Restore => {
                    let (restored, unparsed) = LotManager::restore(&lm.snapshot(), TOTAL, policy, now);
                    prop_assert_eq!(unparsed, 0, "{}", at);
                    lm = restored;
                    model.restore();
                }
            }
            for path in &paths {
                prop_assert_eq!(lm.file_charge(path, now), model.file_charge(path, now), "{} {}", path, at);
            }
            prop_assert_eq!(lm.guaranteed(now), model.guaranteed(now), "{}", at);
            prop_assert_eq!(lm.snapshot(), model.snapshot(), "{}", at);
            let (active, best) = model.committed(now, None);
            prop_assert!(active + best <= TOTAL, "over-promised: {} + {} at {}", active, best, at);
        }
    }
}
