//! The write-ahead mutation log.
//!
//! Every applied mutation is appended to the replica's WAL before the store
//! acknowledges it; recovery loads the last snapshot and replays the log on
//! top. Records are fixed-width and individually checksummed:
//!
//! ```text
//! ┌────────┬──────────────┬────────────────────┐
//! │ op: u8 │ key: u64 LE  │ checksum: u64 LE   │   17 bytes
//! └────────┴──────────────┴────────────────────┘
//! ```
//!
//! The checksum is a seeded [`hash64`] over the op and key, so replay can
//! detect a torn tail (a crash mid-append) at any byte boundary: the first
//! short or checksum-failing record ends the valid prefix, and everything
//! after it is dropped — exactly the surviving-prefix semantics the
//! crash-recovery proptest pins.

use recon_base::hash::hash64;

/// Serialized size of one WAL record.
pub const RECORD_BYTES: usize = 17;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;

/// One logged mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// `insert(key)` was applied.
    Insert(u64),
    /// `delete(key)` was applied.
    Delete(u64),
}

impl WalOp {
    /// The key this mutation touches.
    pub fn key(&self) -> u64 {
        match *self {
            WalOp::Insert(k) | WalOp::Delete(k) => k,
        }
    }

    fn op_byte(&self) -> u8 {
        match self {
            WalOp::Insert(_) => OP_INSERT,
            WalOp::Delete(_) => OP_DELETE,
        }
    }
}

fn checksum(op: u8, key: u64, seed: u64) -> u64 {
    hash64(key ^ ((op as u64) << 56), seed)
}

/// Encode one record into `buf`.
pub fn append_record(buf: &mut Vec<u8>, op: WalOp, seed: u64) {
    let byte = op.op_byte();
    buf.push(byte);
    buf.extend_from_slice(&op.key().to_le_bytes());
    buf.extend_from_slice(&checksum(byte, op.key(), seed).to_le_bytes());
}

/// The result of scanning a WAL blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Mutations in the valid prefix, in append order.
    pub ops: Vec<WalOp>,
    /// Bytes of torn tail dropped after the valid prefix (0 for a clean log).
    pub dropped_bytes: usize,
}

impl WalScan {
    /// Length in bytes of the valid prefix.
    pub fn valid_bytes(&self) -> usize {
        self.ops.len() * RECORD_BYTES
    }
}

/// Scan `bytes`, returning the longest valid record prefix and the size of the
/// dropped tail. Never fails: a corrupt or truncated log is simply shorter.
pub fn scan(bytes: &[u8], seed: u64) -> WalScan {
    let mut ops = Vec::with_capacity(bytes.len() / RECORD_BYTES);
    let mut offset = 0;
    while offset + RECORD_BYTES <= bytes.len() {
        let record = &bytes[offset..offset + RECORD_BYTES];
        let op_byte = record[0];
        let key = u64::from_le_bytes(record[1..9].try_into().expect("8 bytes"));
        let stored = u64::from_le_bytes(record[9..17].try_into().expect("8 bytes"));
        if stored != checksum(op_byte, key, seed) {
            break;
        }
        let op = match op_byte {
            OP_INSERT => WalOp::Insert(key),
            OP_DELETE => WalOp::Delete(key),
            _ => break,
        };
        ops.push(op);
        offset += RECORD_BYTES;
    }
    WalScan { dropped_bytes: bytes.len() - offset, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log(seed: u64) -> (Vec<u8>, Vec<WalOp>) {
        let ops = vec![
            WalOp::Insert(7),
            WalOp::Insert(u64::MAX),
            WalOp::Delete(7),
            WalOp::Insert(0),
            WalOp::Delete(12345),
        ];
        let mut buf = Vec::new();
        for &op in &ops {
            append_record(&mut buf, op, seed);
        }
        (buf, ops)
    }

    #[test]
    fn clean_log_roundtrips() {
        let (buf, ops) = sample_log(42);
        assert_eq!(buf.len(), ops.len() * RECORD_BYTES);
        let scanned = scan(&buf, 42);
        assert_eq!(scanned.ops, ops);
        assert_eq!(scanned.dropped_bytes, 0);
    }

    #[test]
    fn truncation_at_every_boundary_keeps_whole_record_prefix() {
        let (buf, ops) = sample_log(7);
        for cut in 0..=buf.len() {
            let scanned = scan(&buf[..cut], 7);
            let whole = cut / RECORD_BYTES;
            assert_eq!(scanned.ops, ops[..whole], "cut at {cut}");
            assert_eq!(scanned.dropped_bytes, cut - whole * RECORD_BYTES, "cut at {cut}");
        }
    }

    #[test]
    fn corruption_ends_the_prefix() {
        let (mut buf, ops) = sample_log(9);
        buf[2 * RECORD_BYTES + 3] ^= 0x40; // flip a key bit in record 2
        let scanned = scan(&buf, 9);
        assert_eq!(scanned.ops, ops[..2]);
        assert_eq!(scanned.dropped_bytes, 3 * RECORD_BYTES);
    }

    #[test]
    fn wrong_seed_rejects_everything() {
        let (buf, _) = sample_log(1);
        assert_eq!(scan(&buf, 2).ops, Vec::new());
    }

    #[test]
    fn unknown_op_byte_ends_the_prefix() {
        let (mut buf, _) = sample_log(3);
        // Forge a record with a valid checksum but an unknown op byte.
        let key = 99u64;
        buf.truncate(RECORD_BYTES);
        buf.extend_from_slice(&[9u8]);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&super::checksum(9, key, 3).to_le_bytes());
        let scanned = scan(&buf, 3);
        assert_eq!(scanned.ops.len(), 1);
        assert_eq!(scanned.dropped_bytes, RECORD_BYTES);
    }
}
