//! Metadata journal.
//!
//! The filesystem journals metadata updates (allocations, size changes,
//! namespace edits) as ext4 does in its default `data=ordered` mode. The
//! journal plays two roles in the reproduction:
//!
//! 1. **Timing** — every committed transaction reports how many bytes of
//!    journal writes it caused, which the hypervisor model charges to the
//!    storage path (this is the "+40 µs per write" filesystem overhead of
//!    the paper's Fig. 11, and the doubled cost of *nested journaling* the
//!    paper discusses in §IV-D).
//! 2. **Correctness** — committed transactions survive a crash; a replay
//!    reconstructs the metadata exactly, which the crash-recovery tests
//!    verify.

use nesc_extent::{ExtentMapping, Vlba};

use crate::fs::Ino;

/// One journaled metadata mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A name was bound to a new inode.
    Create {
        /// New inode number.
        ino: Ino,
        /// Name bound in the root directory.
        name: String,
    },
    /// A name was removed and its inode freed.
    Unlink {
        /// Name removed.
        name: String,
    },
    /// An inode's logical size changed.
    SetSize {
        /// Target inode.
        ino: Ino,
        /// New size in bytes.
        size: u64,
    },
    /// Blocks were allocated to an inode.
    AddExtent {
        /// Target inode.
        ino: Ino,
        /// The new mapping.
        mapping: ExtentMapping,
    },
    /// A logical range of an inode was unmapped (truncate / hole punch).
    RemoveRange {
        /// Target inode.
        ino: Ino,
        /// First logical block unmapped.
        start: Vlba,
        /// Number of blocks unmapped.
        blocks: u64,
    },
}

impl JournalRecord {
    /// On-disk size of this record, used for commit-cost accounting.
    /// Sizes approximate ext4's: a descriptor-tagged block update costs a
    /// few dozen bytes of journal space.
    pub fn bytes(&self) -> u64 {
        match self {
            JournalRecord::Create { name, .. } => 48 + name.len() as u64,
            JournalRecord::Unlink { name } => 32 + name.len() as u64,
            JournalRecord::SetSize { .. } => 32,
            JournalRecord::AddExtent { .. } => 48,
            JournalRecord::RemoveRange { .. } => 48,
        }
    }
}

/// Result of committing a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// Transaction sequence number (monotonic from 1).
    pub sequence: u64,
    /// Records committed.
    pub records: usize,
    /// Journal bytes written, including the commit block.
    pub bytes: u64,
}

/// Size of the commit block terminating each transaction.
const COMMIT_BLOCK_BYTES: u64 = 1024;

/// An append-only metadata journal with explicit transactions.
///
/// # Example
///
/// ```
/// use nesc_fs::{Journal, JournalRecord, Ino};
///
/// let mut j = Journal::new();
/// j.append(JournalRecord::SetSize { ino: Ino(1), size: 4096 });
/// let info = j.commit().unwrap();
/// assert_eq!(info.sequence, 1);
/// assert_eq!(info.records, 1);
/// assert_eq!(j.committed_records().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Every committed record in commit order, then the open
    /// transaction's.
    records: Vec<JournalRecord>,
    /// Where each committed transaction ends in `records`; the last entry
    /// is where the open transaction begins.
    commits: Vec<usize>,
    total_bytes: u64,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Length of the committed prefix of `records`.
    fn committed_len(&self) -> usize {
        self.commits.last().copied().unwrap_or(0)
    }

    /// Appends a record to the open transaction.
    pub fn append(&mut self, rec: JournalRecord) {
        self.records.push(rec);
    }

    /// Commits the open transaction; returns `None` if it was empty (ext4
    /// likewise skips empty commits).
    pub fn commit(&mut self) -> Option<CommitInfo> {
        let open = &self.records[self.committed_len()..];
        if open.is_empty() {
            return None;
        }
        let bytes = open.iter().map(JournalRecord::bytes).sum::<u64>() + COMMIT_BLOCK_BYTES;
        let records = open.len();
        self.total_bytes += bytes;
        self.commits.push(self.records.len());
        Some(CommitInfo {
            sequence: self.commits.len() as u64,
            records,
            bytes,
        })
    }

    /// Discards the open transaction, simulating a crash before commit.
    pub fn crash_discard_pending(&mut self) {
        self.records.truncate(self.committed_len());
    }

    /// All committed records in commit order, for replay.
    pub fn committed_records(&self) -> impl Iterator<Item = &JournalRecord> {
        self.records[..self.committed_len()].iter()
    }

    /// Committed transaction count.
    pub fn transactions(&self) -> u64 {
        self.commits.len() as u64
    }

    /// Total journal bytes ever written — drives the timing model's
    /// journal-write cost.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Records in the open (uncommitted) transaction.
    pub fn pending_records(&self) -> usize {
        self.records.len() - self.committed_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_extent::Plba;

    #[test]
    fn empty_commit_skipped() {
        let mut j = Journal::new();
        assert!(j.commit().is_none());
        assert_eq!(j.transactions(), 0);
        assert_eq!(j.total_bytes(), 0);
    }

    #[test]
    fn commit_accounts_bytes() {
        let mut j = Journal::new();
        j.append(JournalRecord::AddExtent {
            ino: Ino(1),
            mapping: ExtentMapping::new(Vlba(0), Plba(10), 4),
        });
        j.append(JournalRecord::SetSize {
            ino: Ino(1),
            size: 100,
        });
        let info = j.commit().unwrap();
        assert_eq!(info.records, 2);
        assert_eq!(info.bytes, 48 + 32 + 1024);
        assert_eq!(j.total_bytes(), info.bytes);
    }

    #[test]
    fn crash_discards_only_pending() {
        let mut j = Journal::new();
        j.append(JournalRecord::Unlink { name: "a".into() });
        j.commit();
        j.append(JournalRecord::Unlink { name: "b".into() });
        assert_eq!(j.pending_records(), 1);
        j.crash_discard_pending();
        assert_eq!(j.pending_records(), 0);
        let names: Vec<_> = j
            .committed_records()
            .map(|r| match r {
                JournalRecord::Unlink { name } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["a".to_string()]);
    }

    #[test]
    fn sequences_are_monotonic() {
        let mut j = Journal::new();
        for i in 1..=5u64 {
            j.append(JournalRecord::SetSize {
                ino: Ino(0),
                size: i,
            });
            assert_eq!(j.commit().unwrap().sequence, i);
        }
    }

    #[test]
    fn transactions_keep_their_boundaries() {
        let mut j = Journal::new();
        let size = |size| JournalRecord::SetSize { ino: Ino(1), size };
        j.append(size(1));
        j.append(size(2));
        assert_eq!(j.commit().map(|c| (c.sequence, c.records)), Some((1, 2)));
        j.append(size(3));
        assert_eq!(j.commit().map(|c| (c.sequence, c.records)), Some((2, 1)));
        j.append(size(4));
        j.append(size(5));
        j.crash_discard_pending();
        assert!(
            j.commit().is_none(),
            "a discarded transaction commits nothing"
        );
        j.append(size(6));
        assert_eq!(j.pending_records(), 1);
        let info = j.commit().unwrap();
        assert_eq!((info.sequence, info.records, info.bytes), (3, 1, 32 + 1024));
        assert_eq!(j.transactions(), 3);
        assert_eq!(j.pending_records(), 0);
        let sizes: Vec<u64> = j
            .committed_records()
            .map(|r| match r {
                JournalRecord::SetSize { size, .. } => *size,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, [1, 2, 3, 6]);
        assert_eq!(j.total_bytes(), 3 * 1024 + 4 * 32);
    }

    #[test]
    fn record_sizes_scale_with_names() {
        let short = JournalRecord::Create {
            ino: Ino(1),
            name: "a".into(),
        };
        let long = JournalRecord::Create {
            ino: Ino(1),
            name: "a-much-longer-name".into(),
        };
        assert!(long.bytes() > short.bytes());
    }
}
