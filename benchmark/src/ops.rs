//! The four workloads as seeded operation streams. A stream depends only
//! on `(workload, scale, seed, client index)`; the load generator and the
//! traced ladder both consume it, and the appliance sees nothing but the
//! resulting operations.

use crate::rng::{Rng, Zipf};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkGet,
    SmallGet,
    Ingest,
    JobIo,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BulkGet,
        Workload::SmallGet,
        Workload::Ingest,
        Workload::JobIo,
    ];

    /// The fixed name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkGet => "bulk-get",
            Workload::SmallGet => "small-get",
            Workload::Ingest => "ingest",
            Workload::JobIo => "job-io",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fronts this workload's clients talk to.
    pub fn fronts(self) -> &'static [Front] {
        match self {
            Workload::BulkGet => &[Front::Chirp, Front::Http, Front::Ftp, Front::GridFtp],
            Workload::SmallGet => &[Front::Http, Front::S3, Front::Chirp],
            Workload::Ingest => &[Front::Chirp, Front::Http, Front::S3, Front::Ftp, Front::Ibp],
            Workload::JobIo => &[Front::Nfs, Front::Chirp],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Front {
    Chirp,
    Http,
    Ftp,
    GridFtp,
    Nfs,
    Ibp,
    S3,
}

impl Front {
    pub const ALL: [Front; 7] = [
        Front::Chirp,
        Front::Http,
        Front::Ftp,
        Front::GridFtp,
        Front::Nfs,
        Front::Ibp,
        Front::S3,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Front::Chirp => "chirp",
            Front::Http => "http",
            Front::Ftp => "ftp",
            Front::GridFtp => "gridftp",
            Front::Nfs => "nfs",
            Front::Ibp => "ibp",
            Front::S3 => "s3",
        }
    }
}

/// Population and op-count parameters. `full()` is the benchmark; `smoke()`
/// shrinks everything so all four workloads plus the ladder fit in 30 s.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    pub bulk_files: u64,
    pub bulk_file_bytes: usize,
    pub small_objects: u64,
    pub small_object_bytes: usize,
    /// Live names each ingest client keeps before it deletes its oldest.
    pub ingest_ring: u64,
    /// PUT sizes and their shares in percent (multiples of 5 that sum to
    /// 100: the size deck holds `share / 5` cards per size).
    pub ingest_sizes: [(usize, u64); 3],
    pub job_file_bytes: usize,
    pub job_block_bytes: usize,
    pub job_ls_entries: u64,
    /// Ops the traced ladder replays per workload, in `Workload::ALL` order.
    pub traced_ops: [usize; 4],
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            bulk_files: 24,
            bulk_file_bytes: 16 << 20,
            small_objects: 2048,
            small_object_bytes: 16 << 10,
            ingest_ring: 256,
            ingest_sizes: [(16 << 10, 50), (256 << 10, 40), (4 << 20, 10)],
            job_file_bytes: 8 << 20,
            job_block_bytes: 8 << 10,
            job_ls_entries: 64,
            traced_ops: [48, 3000, 400, 3000],
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            bulk_files: 6,
            bulk_file_bytes: 2 << 20,
            small_objects: 128,
            small_object_bytes: 16 << 10,
            ingest_ring: 16,
            ingest_sizes: [(16 << 10, 50), (256 << 10, 40), (1 << 20, 10)],
            job_file_bytes: 1 << 20,
            job_block_bytes: 8 << 10,
            job_ls_entries: 64,
            traced_ops: [12, 300, 60, 300],
        }
    }

    pub fn traced_ops(&self, workload: Workload) -> usize {
        self.traced_ops[Workload::ALL.iter().position(|w| *w == workload).unwrap()]
    }

    pub fn job_blocks(&self) -> u64 {
        (self.job_file_bytes / self.job_block_bytes) as u64
    }
}

/// A stored object the benchmark can regenerate: `id` keys the payload
/// generator, `path` names it in the appliance's namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    pub id: u64,
    pub path: String,
    pub size: usize,
}

const KIND_BULK: u64 = 1 << 56;
const KIND_SMALL: u64 = 2 << 56;
const KIND_INGEST: u64 = 3 << 56;
const KIND_JOB: u64 = 4 << 56;
const KIND_JOB_BLOCK: u64 = 5 << 56;

pub const BULK_DIR: &str = "/bulk";
pub const SMALL_DIR: &str = "/sg";
pub const INGEST_DIR: &str = "/in";
pub const JOB_DIR: &str = "/job";
pub const JOB_LS_DIR: &str = "/job/ls";

pub fn bulk_object(scale: &Scale, index: u64) -> Object {
    Object {
        id: KIND_BULK | index,
        path: format!("{BULK_DIR}/f{index:02}"),
        size: scale.bulk_file_bytes,
    }
}

pub fn small_object(scale: &Scale, index: u64) -> Object {
    Object {
        id: KIND_SMALL | index,
        path: format!("{SMALL_DIR}/o{index:04}"),
        size: scale.small_object_bytes,
    }
}

pub fn ingest_dir(client: usize) -> String {
    format!("{INGEST_DIR}/c{client}")
}

pub fn ingest_object(client: usize, seq: u64, size: usize) -> Object {
    Object {
        id: KIND_INGEST | (client as u64) << 40 | seq,
        path: format!("{}/o{seq:07}", ingest_dir(client)),
        size,
    }
}

pub fn job_object(scale: &Scale, client: usize) -> Object {
    Object {
        id: KIND_JOB | client as u64,
        path: format!("{JOB_DIR}/c{client}.dat"),
        size: scale.job_file_bytes,
    }
}

/// Payload id of the bytes an NFS WRITE with this `version` stores (the
/// block's content is that object's bytes from offset 0).
pub fn job_block_id(client: usize, version: u64) -> u64 {
    KIND_JOB_BLOCK | (client as u64) << 40 | version
}

pub fn job_tmp_dir(client: usize) -> String {
    format!("{JOB_DIR}/tmp{client}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    Stat,
    Ls,
    MkdirRmdir,
    /// lot create → stat → renew → terminate.
    LotCycle,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Whole-object GET of a populated object.
    Get {
        front: Front,
        object: Object,
    },
    /// Store ingest object `seq` (the executor remembers front and size).
    Put {
        front: Front,
        seq: u64,
        size: usize,
    },
    /// Fully verified GET of ingest object `seq` through the front that
    /// stored it.
    ReadBack {
        seq: u64,
    },
    /// Delete ingest object `seq` through the front that stored it.
    Delete {
        seq: u64,
    },
    NfsRead {
        block: u64,
    },
    /// `version` (≥ 1) picks the bytes written; see [`job_block_id`].
    NfsWrite {
        block: u64,
        version: u64,
    },
    /// Authenticated Chirp metadata on the persistent connection.
    Meta(MetaOp),
    /// Fresh Chirp connection: connect → GSI authenticate → stat → quit.
    Churn,
}

const LANE_PERMUTATION: u64 = 1 << 32;

/// What kind of op comes next (and, for a PUT, how big).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Get,
    Put(usize),
    NfsRead,
    NfsWrite,
    Meta(MetaOp),
    Churn,
}

/// A mix as a deck that is dealt without replacement and reshuffled when it
/// runs out: every `cards.len()` consecutive draws hold the stated shares
/// *exactly*, so the seed decides the order of ops but not how many of each
/// kind a window — or one slice of it — contains. (With independent draws
/// the 10 % of ingest PUTs that carry 78 % of its bytes would make
/// throughput a property of the seed.) Decks are kept as small as the
/// shares allow, so that even a slice holds many whole decks.
#[derive(Debug, Clone)]
struct Deck<T> {
    cards: Vec<T>,
    undealt: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        assert!(!cards.is_empty(), "an empty deck deals nothing");
        Deck { cards, undealt: 0 }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.undealt == 0 {
            rng.shuffle(&mut self.cards);
            self.undealt = self.cards.len();
        }
        self.undealt -= 1;
        self.cards[self.undealt]
    }
}

/// The workload's op kinds in their shares.
fn kinds(workload: Workload, scale: &Scale) -> Vec<Kind> {
    match workload {
        Workload::BulkGet | Workload::SmallGet => vec![Kind::Get],
        // 20 cards: 10 × 16 KiB, 8 × 256 KiB, 2 × 4 MiB at full scale.
        Workload::Ingest => scale
            .ingest_sizes
            .iter()
            .flat_map(|(size, share)| vec![Kind::Put(*size); *share as usize / 5])
            .collect(),
        // 40 cards: 60 % READ, 25 % WRITE, 10 % metadata (the four kinds
        // alike), 5 % churn.
        Workload::JobIo => {
            let mut cards = vec![Kind::NfsRead; 24];
            cards.extend(vec![Kind::NfsWrite; 10]);
            cards.extend(
                [
                    MetaOp::Stat,
                    MetaOp::Ls,
                    MetaOp::MkdirRmdir,
                    MetaOp::LotCycle,
                ]
                .map(Kind::Meta),
            );
            cards.extend(vec![Kind::Churn; 2]);
            cards
        }
    }
}

pub struct OpStream {
    scale: Scale,
    rng: Rng,
    kinds: Deck<Kind>,
    /// Which front a GET or PUT goes through: each front once per deck,
    /// independently of the kind deck.
    fronts: Deck<Front>,
    /// small-get: popularity rank → object index, and the rank sampler.
    popularity: Option<(Vec<u64>, Zipf)>,
    /// bulk-get: next position in this client's cycle over the file set.
    cursor: u64,
    /// ingest: next object sequence number; job-io: next write version.
    counter: u64,
    pending: VecDeque<Op>,
}

impl OpStream {
    /// `clients` is the number of streams sharing the workload; it staggers
    /// the bulk-get cycles so two clients never chase the same file.
    pub fn new(
        workload: Workload,
        scale: &Scale,
        seed: u64,
        client: usize,
        clients: usize,
    ) -> Self {
        let popularity = (workload == Workload::SmallGet).then(|| {
            // One permutation per seed, shared by every client, so the
            // popular objects are the same ones for all of them.
            let mut perm: Vec<u64> = (0..scale.small_objects).collect();
            Rng::new(seed, LANE_PERMUTATION).shuffle(&mut perm);
            (perm, Zipf::new(scale.small_objects as usize, 1.1))
        });
        OpStream {
            scale: scale.clone(),
            rng: Rng::new(seed, client as u64),
            kinds: Deck::new(kinds(workload, scale)),
            fronts: Deck::new(workload.fronts().to_vec()),
            popularity,
            cursor: scale.bulk_files * client as u64 / clients.max(1) as u64,
            counter: 0,
            pending: VecDeque::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.pending.pop_front() {
            return op;
        }
        match self.kinds.deal(&mut self.rng) {
            Kind::Get => {
                let front = self.fronts.deal(&mut self.rng);
                let object = match &self.popularity {
                    Some((perm, zipf)) => {
                        small_object(&self.scale, perm[zipf.sample(&mut self.rng)])
                    }
                    None => {
                        let index = self.cursor % self.scale.bulk_files;
                        self.cursor += 1;
                        bulk_object(&self.scale, index)
                    }
                };
                Op::Get { front, object }
            }
            Kind::Put(size) => {
                let front = self.fronts.deal(&mut self.rng);
                let seq = self.counter;
                self.counter += 1;
                if seq % 10 == 9 {
                    self.pending.push_back(Op::ReadBack { seq });
                }
                if seq >= self.scale.ingest_ring {
                    self.pending.push_back(Op::Delete {
                        seq: seq - self.scale.ingest_ring,
                    });
                }
                Op::Put { front, seq, size }
            }
            Kind::NfsRead => Op::NfsRead {
                block: self.rng.below(self.scale.job_blocks()),
            },
            Kind::NfsWrite => {
                self.counter += 1;
                Op::NfsWrite {
                    block: self.rng.below(self.scale.job_blocks()),
                    version: self.counter,
                }
            }
            Kind::Meta(kind) => Op::Meta(kind),
            Kind::Churn => Op::Churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(workload, &Scale::full(), seed, client, 2);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_change_with_seed_and_client() {
        for w in Workload::ALL {
            assert_eq!(take(w, 1, 0, 500), take(w, 1, 0, 500), "{}", w.name());
            assert_ne!(take(w, 1, 0, 500), take(w, 2, 0, 500), "{}", w.name());
            assert_ne!(take(w, 1, 0, 500), take(w, 1, 1, 500), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn bulk_get_cycles_the_whole_set_from_staggered_starts() {
        let files = |client| -> Vec<String> {
            take(Workload::BulkGet, 1, client, 24)
                .into_iter()
                .map(|op| match op {
                    Op::Get { object, .. } => object.path,
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let (a, b) = (files(0), files(1));
        assert_eq!(a[0], "/bulk/f00");
        assert_eq!(b[0], "/bulk/f12");
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 24, "one cycle touches every file once");
    }

    #[test]
    fn small_get_uses_every_front_and_favours_few_objects() {
        let ops = take(Workload::SmallGet, 1, 0, 20_000);
        let mut per_front = [0u32; 7];
        let mut per_object = std::collections::BTreeMap::new();
        for op in &ops {
            let Op::Get { front, object } = op else {
                panic!("{op:?}")
            };
            per_front[Front::ALL.iter().position(|f| f == front).unwrap()] += 1;
            *per_object.entry(object.path.clone()).or_insert(0u32) += 1;
        }
        // Each front once per 3-card deck: 20 000 draws are 6666 decks + 2.
        for f in Workload::SmallGet.fronts() {
            let n = per_front[Front::ALL.iter().position(|x| x == f).unwrap()];
            assert!((6666..=6667).contains(&n), "{} {n}", f.name());
        }
        let top = per_object.values().copied().max().unwrap();
        assert!(top > 3000, "Zipf head too flat: {top}");
    }

    #[test]
    fn ingest_keeps_a_ring_and_reads_back_every_tenth_put() {
        let ops = take(Workload::Ingest, 1, 0, 2000);
        let (mut puts, mut live, mut readbacks) = (0u64, 0i64, 0u64);
        let mut sizes = std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put { seq, size, .. } => {
                    assert_eq!(*seq, puts);
                    puts += 1;
                    live += 1;
                    *sizes.entry(*size).or_insert(0u32) += 1;
                }
                Op::Delete { seq } => {
                    assert_eq!(*seq + 256, puts - 1, "deletes the oldest");
                    live -= 1;
                }
                Op::ReadBack { seq } => {
                    assert_eq!(seq % 10, 9);
                    readbacks += 1;
                }
                other => panic!("{other:?}"),
            }
            assert!(live <= 257);
        }
        assert!(puts > 900);
        assert_eq!(readbacks, puts / 10);
        assert_eq!(sizes.len(), 3);
        assert!(sizes[&(16 << 10)] > sizes[&(256 << 10)]);
        assert!(sizes[&(256 << 10)] > sizes[&(4 << 20)]);
    }

    #[test]
    fn every_deck_of_ingest_puts_holds_the_stated_mix_exactly() {
        let puts: Vec<(Front, usize)> = take(Workload::Ingest, 5, 1, 1000)
            .into_iter()
            .filter_map(|op| match op {
                Op::Put { front, size, .. } => Some((front, size)),
                _ => None,
            })
            .collect();
        assert!(puts.len() >= 400);
        // Sizes come from a 20-card deck, fronts from a 5-card deck.
        for deck in puts.chunks_exact(20) {
            let count = |size: usize| deck.iter().filter(|c| c.1 == size).count();
            assert_eq!(
                (count(16 << 10), count(256 << 10), count(4 << 20)),
                (10, 8, 2)
            );
        }
        for deck in puts.chunks_exact(5) {
            let mut fronts: Vec<Front> = deck.iter().map(|c| c.0).collect();
            fronts.sort();
            fronts.dedup();
            assert_eq!(fronts.len(), 5, "each front once per five PUTs");
        }
    }

    #[test]
    fn job_io_mix_matches_the_stated_shares() {
        let ops = take(Workload::JobIo, 1, 0, 20_000);
        let share = |pred: fn(&Op) -> bool| {
            ops.iter().filter(|op| pred(op)).count() as f64 / ops.len() as f64
        };
        let reads = share(|op| matches!(op, Op::NfsRead { .. }));
        let writes = share(|op| matches!(op, Op::NfsWrite { .. }));
        let meta = share(|op| matches!(op, Op::Meta(_)));
        let churn = share(|op| matches!(op, Op::Churn));
        // 20 000 ops are exactly 500 decks of 40 cards.
        assert_eq!((reads, writes, meta, churn), (0.60, 0.25, 0.10, 0.05));
    }
}
