//! The lot journal: lot state that survives `kill -9` at O(1) cost per
//! mutation (DESIGN §18).
//!
//! The table lives in two sibling files of the storage root: the snapshot
//! `<root>.lots` ([`LotManager::snapshot`]) and the append-only journal
//! `<root>.lots.journal`. Every mutation appends one record carrying the
//! *current* state of the keys it touched ([`LotManager::render_keys`]),
//! rendered while the journal lock is held, so the last record for a key
//! is its newest state. A record is framed as
//!
//! ```text
//! <payload length: u32 LE> <CRC-32 of payload: u32 LE> <payload>
//! ```
//!
//! Restart replays the snapshot and then every intact record with the
//! snapshot's own parser ([`LotManager::restore_with_shards`]). A torn
//! tail is truncated; a complete record whose checksum fails is counted,
//! logged and skipped. Once the journal outgrows the snapshot it is
//! compacted: snapshot → temp → fsync → rename → fsync dir → truncate.
//! Records are written with one `write(2)` and no fsync, so a completed
//! append survives the process being killed; a power loss can lose the
//! records since the last compaction.

use crate::lot::{LotKey, LotManager};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Frame header: payload length and CRC-32, both little-endian `u32`.
const HEADER: usize = 8;

/// The journal is compacted once it holds more bytes than the last
/// snapshot, but never below this: a small table would otherwise pay a
/// snapshot and two fsyncs every few mutations.
const MIN_COMPACT_BYTES: u64 = 64 * 1024;

/// The append-only lot journal beside a snapshot file.
pub struct LotJournal {
    snapshot: PathBuf,
    log: Mutex<Log>,
}

struct Log {
    /// Opened for append: every write lands at the current end.
    file: File,
    /// Bytes in the journal.
    len: u64,
    /// Bytes in the snapshot the journal extends.
    snapshot_len: u64,
}

/// The replay text [`LotJournal::open`] recovered.
pub struct Recovered {
    /// The snapshot followed by every intact journal payload, in order.
    pub text: String,
    /// Complete records whose checksum (or encoding) failed.
    pub corrupt_records: u64,
}

impl LotJournal {
    /// Opens the journal beside `snapshot` (`<root>.lots`), creating it if
    /// needed, and recovers the text to replay. A torn final record is
    /// truncated away; each corrupt complete record is logged to stderr
    /// and counted, and the records after it still apply. A stale
    /// `<root>.lots.tmp` from an interrupted compaction is ignored.
    pub fn open(snapshot: &Path) -> io::Result<(LotJournal, Recovered)> {
        let mut text = match fs::read_to_string(snapshot) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let snapshot_len = text.len() as u64;
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        let path = sibling(snapshot, ".journal");
        let file = OpenOptions::new().append(true).create(true).open(&path)?;
        let bytes = fs::read(&path)?;
        let mut corrupt_records = 0;
        let mut off = 0;
        while let Some(head) = bytes.get(off..off + HEADER) {
            let len = u32::from_le_bytes(head[..4].try_into().expect("4-byte slice")) as usize;
            let crc = u32::from_le_bytes(head[4..].try_into().expect("4-byte slice"));
            let Some(payload) = bytes.get(off + HEADER..off + HEADER + len) else {
                break; // torn: the header promises more than was written
            };
            match std::str::from_utf8(payload) {
                Ok(s) if crc32(payload) == crc => text.push_str(s),
                _ => {
                    corrupt_records += 1;
                    eprintln!(
                        "nest: {}: corrupt lot journal record of {len} bytes at offset {off} skipped",
                        path.display()
                    );
                }
            }
            off += HEADER + len;
        }
        if off < bytes.len() {
            file.set_len(off as u64)?;
        }
        let journal = LotJournal {
            snapshot: snapshot.to_path_buf(),
            log: Mutex::named(
                "storage.lot.journal",
                295,
                Log {
                    file,
                    len: off as u64,
                    snapshot_len,
                },
            ),
        };
        Ok((
            journal,
            Recovered {
                text,
                corrupt_records,
            },
        ))
    }

    /// Appends one record with the current state of `keys` in `lots`,
    /// rendered under the journal lock. Compacts when the journal has
    /// outgrown the snapshot; returns whether it did. A failed compaction
    /// is logged, not returned: the record itself is written, and the
    /// next append tries again.
    pub fn append(&self, lots: &LotManager, keys: &[LotKey<'_>]) -> io::Result<bool> {
        let mut log = self.log.lock();
        let mut payload = String::new();
        lots.render_keys(keys, &mut payload);
        let len = u32::try_from(payload.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "lot journal record too large")
        })?;
        let mut frame = Vec::with_capacity(HEADER + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        if let Err(e) = log.file.write_all(&frame) {
            // Cut a partial frame off, so later records stay parseable.
            let _ = log.file.set_len(log.len);
            return Err(e);
        }
        log.len += frame.len() as u64;
        if log.len <= log.snapshot_len.max(MIN_COMPACT_BYTES) {
            return Ok(false);
        }
        match self.compact_locked(&mut log, lots) {
            Ok(()) => Ok(true),
            Err(e) => {
                eprintln!(
                    "nest: {}: lot compaction failed: {e}",
                    self.snapshot.display()
                );
                Ok(false)
            }
        }
    }

    /// Writes the whole table as the new snapshot and empties the journal.
    pub fn compact(&self, lots: &LotManager) -> io::Result<()> {
        self.compact_locked(&mut self.log.lock(), lots)
    }

    /// Compaction with the journal lock held, so no record lands between
    /// the snapshot and the truncation. A crash between the rename and the
    /// truncation leaves records older than the snapshot; replaying them
    /// over it restores each key's state as of its last record.
    fn compact_locked(&self, log: &mut Log, lots: &LotManager) -> io::Result<()> {
        let snapshot = lots.snapshot();
        atomic_replace(&self.snapshot, snapshot.as_bytes())?;
        log.file.set_len(0)?;
        log.len = 0;
        log.snapshot_len = snapshot.len() as u64;
        Ok(())
    }
}

/// Replaces `path` with `bytes` so that a crash leaves either the old or
/// the new content, never a mix: write `<path>.tmp`, fsync it, rename it
/// over `path`, fsync the directory.
pub fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = sibling(path, ".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    !bytes.iter().fold(!0u32, |crc, &b| {
        TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lot::{LotOwner, ReclaimPolicy};
    use crate::namespace::VPath;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh `<dir>/root.lots` path in a per-test scratch directory.
    fn store(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "nest-journal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("root.lots")
    }

    fn vp(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    fn restore(text: &str) -> LotManager {
        LotManager::restore(text, 10_000, ReclaimPolicy::ExpiredFirst, 0)
    }

    /// A table with one lot and two charged files, each mutation journaled.
    fn journaled(store: &Path) -> (LotJournal, LotManager) {
        let (journal, _) = LotJournal::open(store).unwrap();
        let lm = restore("");
        let (id, _) = lm.create(LotOwner::User("u".into()), 1000, 100, 0).unwrap();
        journal.append(&lm, &[LotKey::Lot(id)]).unwrap();
        for (path, bytes) in [("/a", 100), ("/b", 200)] {
            lm.charge_file("u", &HashSet::new(), &vp(path), bytes, 1)
                .unwrap();
            journal.append(&lm, &[LotKey::Path(&vp(path))]).unwrap();
        }
        (journal, lm)
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn replay_of_the_journal_alone_rebuilds_the_table() {
        let store = store("replay");
        let (_, lm) = journaled(&store);
        lm.release_file(&vp("/a"));
        let (journal, _) = LotJournal::open(&store).unwrap();
        journal.append(&lm, &[LotKey::Path(&vp("/a"))]).unwrap();
        let (_, rec) = LotJournal::open(&store).unwrap();
        assert_eq!(rec.corrupt_records, 0);
        assert_eq!(restore(&rec.text).snapshot(), lm.snapshot());
    }

    #[test]
    fn torn_tail_is_truncated_and_the_state_before_it_recovered() {
        let store = store("torn");
        let (_, lm) = journaled(&store);
        let path = sibling(&store, ".journal");
        let intact = fs::metadata(&path).unwrap().len();
        // A record whose header promises more bytes than were written.
        let mut tail = 500u32.to_le_bytes().to_vec();
        tail.extend_from_slice(&[0, 0, 0, 0]);
        tail.extend_from_slice(b"unfile /a\n");
        OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&tail)
            .unwrap();
        let (_, rec) = LotJournal::open(&store).unwrap();
        assert_eq!(rec.corrupt_records, 0);
        assert_eq!(restore(&rec.text).snapshot(), lm.snapshot());
        assert_eq!(fs::metadata(&path).unwrap().len(), intact);
    }

    #[test]
    fn corrupt_middle_record_is_counted_and_later_records_apply() {
        let store = store("corrupt");
        let (journal, lm) = journaled(&store);
        let path = sibling(&store, ".journal");
        let middle = fs::metadata(&path).unwrap().len();
        lm.release_file(&vp("/a"));
        journal.append(&lm, &[LotKey::Path(&vp("/a"))]).unwrap();
        lm.charge_file("u", &HashSet::new(), &vp("/c"), 50, 2)
            .unwrap();
        journal.append(&lm, &[LotKey::Path(&vp("/c"))]).unwrap();
        // Flip one payload byte of the middle record (`unfile /a`).
        let mut bytes = fs::read(&path).unwrap();
        bytes[middle as usize + HEADER] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let (_, rec) = LotJournal::open(&store).unwrap();
        assert_eq!(rec.corrupt_records, 1);
        let replayed = restore(&rec.text);
        // The lost record was /a's release; /c's charge after it applied.
        let files: Vec<VPath> = replayed.all_lots()[0].files.keys().cloned().collect();
        assert_eq!(files, [vp("/a"), vp("/b"), vp("/c")]);
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes.len() as u64);
    }

    #[test]
    fn compaction_empties_the_journal_and_ignores_a_stale_temp_file() {
        let store = store("compact");
        let (journal, lm) = journaled(&store);
        let tmp = sibling(&store, ".tmp");
        fs::write(&tmp, "lot 77 user ghost 5 5 5\n").unwrap();
        let (_, rec) = LotJournal::open(&store).unwrap();
        assert_eq!(restore(&rec.text).snapshot(), lm.snapshot());

        // A crash between the rename and the truncation: the new snapshot
        // plus the journal it already covers replay to the same state.
        let untruncated = fs::read(sibling(&store, ".journal")).unwrap();
        journal.compact(&lm).unwrap();
        assert!(!tmp.exists());
        assert_eq!(fs::read_to_string(&store).unwrap(), lm.snapshot());
        assert_eq!(fs::metadata(sibling(&store, ".journal")).unwrap().len(), 0);
        fs::write(sibling(&store, ".journal"), &untruncated).unwrap();
        let (_, rec) = LotJournal::open(&store).unwrap();
        assert_eq!(restore(&rec.text).snapshot(), lm.snapshot());
    }

    #[test]
    fn appends_compact_once_the_journal_outgrows_the_snapshot() {
        let store = store("grow");
        let (journal, lm) = journaled(&store);
        let mut compactions = 0;
        for i in 0..2_000 {
            let path = vp(&format!("/grow/{}", i % 7));
            lm.release_file(&path);
            lm.charge_file("u", &HashSet::new(), &path, 10, 3).unwrap();
            compactions += usize::from(journal.append(&lm, &[LotKey::Path(&path)]).unwrap());
        }
        assert!(compactions >= 1);
        let len = fs::metadata(sibling(&store, ".journal")).unwrap().len();
        assert!(len <= MIN_COMPACT_BYTES, "{len}");
        let (_, rec) = LotJournal::open(&store).unwrap();
        assert_eq!(restore(&rec.text).snapshot(), lm.snapshot());
    }
}
