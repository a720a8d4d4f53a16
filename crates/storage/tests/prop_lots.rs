//! Property tests for lot accounting and path virtualization invariants.

use nest_storage::lot::LotOwner;
use nest_storage::{LotManager, ReclaimPolicy, VPath};
use proptest::prelude::*;
use std::collections::HashSet;

/// A random sequence of lot-manager operations.
#[derive(Debug, Clone)]
enum Op {
    Create {
        user: u8,
        capacity: u64,
        duration: u64,
    },
    Charge {
        user: u8,
        file: u8,
        bytes: u64,
    },
    Release {
        file: u8,
    },
    Terminate {
        index: usize,
    },
    Advance {
        secs: u64,
    },
    Touch {
        file: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 1u64..400, 1u64..50).prop_map(|(user, capacity, duration)| Op::Create {
            user,
            capacity,
            duration
        }),
        (0u8..4, 0u8..8, 1u64..300).prop_map(|(user, file, bytes)| Op::Charge {
            user,
            file,
            bytes
        }),
        (0u8..8).prop_map(|file| Op::Release { file }),
        (0usize..16).prop_map(|index| Op::Terminate { index }),
        (1u64..30).prop_map(|secs| Op::Advance { secs }),
        (0u8..8).prop_map(|file| Op::Touch { file }),
    ]
}

fn username(u: u8) -> String {
    format!("user{}", u)
}

fn filename(f: u8) -> VPath {
    VPath::parse(&format!("/f{}", f)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any operation sequence the guarantee invariant holds: the sum
    /// of active lot capacities plus lingering best-effort bytes never
    /// exceeds the total capacity, and no lot is ever overfull.
    #[test]
    fn lot_invariants_hold_under_random_ops(
        ops in prop::collection::vec(arb_op(), 1..60),
        policy in prop_oneof![
            Just(ReclaimPolicy::ExpiredFirst),
            Just(ReclaimPolicy::LargestFirst),
            Just(ReclaimPolicy::Lru)
        ],
    ) {
        const TOTAL: u64 = 1000;
        let lm = LotManager::new(TOTAL, policy);
        let mut now = 0u64;
        let mut created = Vec::new();
        let no_groups: HashSet<String> = HashSet::new();

        for op in ops {
            match op {
                Op::Create { user, capacity, duration } => {
                    if let Ok((id, _)) = lm.create(
                        LotOwner::User(username(user)), capacity, duration, now) {
                        created.push(id);
                    }
                }
                Op::Charge { user, file, bytes } => {
                    let _ = lm.charge_file(&username(user), &no_groups,
                                           &filename(file), bytes, now);
                }
                Op::Release { file } => {
                    lm.release_file(&filename(file));
                }
                Op::Terminate { index } => {
                    if !created.is_empty() {
                        let id = created[index % created.len()];
                        let _ = lm.terminate(id);
                    }
                }
                Op::Advance { secs } => now += secs,
                Op::Touch { file } => lm.touch_file(&filename(file), now),
            }

            // Invariants after every step.
            let lots = lm.all_lots();
            let active_cap: u64 = lots.iter()
                .filter(|l| !l.is_expired(now)).map(|l| l.capacity).sum();
            let best_used: u64 = lots.iter()
                .filter(|l| l.is_expired(now)).map(|l| l.used).sum();
            prop_assert!(active_cap + best_used <= TOTAL,
                "guarantee violated: {} + {} > {}", active_cap, best_used, TOTAL);
            for lot in &lots {
                prop_assert!(lot.used <= lot.capacity, "overfull lot {:?}", lot.id);
                let file_sum: u64 = lot.files.values().sum();
                prop_assert_eq!(lot.used, file_sum, "per-file accounting drift");
            }
        }
    }

    /// VPath parsing never panics, and anything it accepts is normalized:
    /// reparsing the display form is the identity.
    #[test]
    fn vpath_parse_normalizes(raw in "[a-zA-Z0-9_ ./-]{0,40}") {
        if let Ok(p) = VPath::parse(&raw) {
            let printed = p.to_string();
            let reparsed = VPath::parse(&printed).unwrap();
            prop_assert_eq!(&p, &reparsed);
            // Normal form: no dot components, always absolute.
            prop_assert!(printed.starts_with('/'));
            for c in p.components() {
                prop_assert!(c != "." && c != ".." && !c.is_empty());
            }
        }
    }

    /// join never produces a path outside the base's root, and absolute
    /// joins ignore the base.
    #[test]
    fn vpath_join_stays_rooted(base in "[a-z/]{0,20}", rel in "[a-z./]{0,20}") {
        if let Ok(b) = VPath::parse(&if base.is_empty() { "/".into() } else { base }) {
            if let Ok(j) = b.join(&rel) {
                prop_assert!(j.starts_with(&VPath::root()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// snapshot → restore is lossless for any reachable lot-table state:
    /// every lot's owner, capacity, expiry and per-file charges survive.
    #[test]
    fn snapshot_restore_is_lossless(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        const TOTAL: u64 = 1000;
        let lm = LotManager::new(TOTAL, ReclaimPolicy::ExpiredFirst);
        let mut now = 0u64;
        let no_groups: HashSet<String> = HashSet::new();
        let mut created = Vec::new();
        for op in ops {
            match op {
                Op::Create { user, capacity, duration } => {
                    if let Ok((id, _)) = lm.create(
                        LotOwner::User(username(user)), capacity, duration, now) {
                        created.push(id);
                    }
                }
                Op::Charge { user, file, bytes } => {
                    let _ = lm.charge_file(&username(user), &no_groups,
                                           &filename(file), bytes, now);
                }
                Op::Release { file } => { lm.release_file(&filename(file)); }
                Op::Terminate { index } => {
                    if !created.is_empty() {
                        let id = created[index % created.len()];
                        let _ = lm.terminate(id);
                    }
                }
                Op::Advance { secs } => now += secs,
                Op::Touch { file } => lm.touch_file(&filename(file), now),
            }
        }
        let snap = lm.snapshot();
        let (restored, unparsed) = LotManager::restore(&snap, TOTAL, ReclaimPolicy::ExpiredFirst, now);
        prop_assert_eq!(unparsed, 0);
        let before = lm.all_lots();
        let after = restored.all_lots();
        prop_assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            prop_assert_eq!(b.id, a.id);
            prop_assert_eq!(&b.owner, &a.owner);
            prop_assert_eq!(b.capacity, a.capacity);
            prop_assert_eq!(b.expires_at, a.expires_at);
            prop_assert_eq!(b.used, a.used);
            prop_assert_eq!(&b.files, &a.files);
        }
        // And a second snapshot is byte-identical (stable format).
        prop_assert_eq!(snap, restored.snapshot());
    }
}

/// Not a property test, but it belongs with the invariants: concurrent
/// charges from many threads never over-commit a lot.
#[test]
fn concurrent_charges_never_overfill() {
    use std::sync::Arc;
    let lm = Arc::new(LotManager::new(100_000, ReclaimPolicy::ExpiredFirst));
    lm.create(LotOwner::User("shared".into()), 50_000, 3600, 0)
        .unwrap();
    let mut handles = Vec::new();
    for t in 0..8 {
        let lm = Arc::clone(&lm);
        handles.push(std::thread::spawn(move || {
            let groups = HashSet::new();
            let mut granted = 0u64;
            for i in 0..200u64 {
                let path = VPath::parse(&format!("/t{}-f{}", t, i)).unwrap();
                if lm.charge_file("shared", &groups, &path, 100, 1).is_ok() {
                    granted += 100;
                }
            }
            granted
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // 8 threads x 200 x 100 bytes = 160k offered against a 50k lot.
    assert_eq!(total, 50_000);
    let lots = lm.all_lots();
    assert_eq!(lots[0].used, 50_000);
    let file_sum: u64 = lots[0].files.values().sum();
    assert_eq!(file_sum, 50_000);
}
