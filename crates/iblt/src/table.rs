//! The IBLT cell bank, insert/delete/subtract operations and the peeling decoder.
//!
//! # Memory layout
//!
//! Cells are stored as a flat struct-of-arrays bank rather than a `Vec<Cell>`:
//! one contiguous `counts: Vec<i64>`, one contiguous `check_sums: Vec<u64>`, and a
//! single `key_sums: Vec<u8>` buffer holding every cell's key sum at stride
//! `key_bytes`. The bulk table combinators (subtract/add) run through the
//! fixed-width chunked kernels in `crate::kernels`.
//!
//! # Wire format
//!
//! [`Encode`] writes the header (key width, hash count and cell count as
//! varints, the seed), then three planes: the counts as zig-zag varints, the key
//! sums as they lie in memory, the check-sums at 4 bytes for keys of at most 8
//! and at 8 otherwise — a peeled key must also hash back to the cell it came
//! from, which is what lets a narrow key carry the narrow check-sum. A child
//! table that is the *key* of an outer table travels in its headerless
//! [key form](Iblt::write_key_form); [`Iblt::encode_bank`]'s planes serve a benchmark probe.
//!
//! # Key path
//!
//! What hashing a key needs from the table alone is computed once, at
//! construction, into a `KeyPlan`. A key is hashed once for its partition base
//! and check-sum (8-byte keys as one word, wider keys in a single pass), its
//! cells follow from the base, and each cell takes one update. The single-key
//! and bulk entry points run these same two steps; the bulk ones hash a stack
//! chunk of keys before touching the bank, so neighbouring keys' hash chains
//! overlap.

use crate::kernels;
use crate::rescue::{self, DecodeBudget};
use recon_base::hash::{hash64, hash_bytes_lanes, rem_fixed};
use recon_base::rng::split_seed;
use recon_base::wire::{
    read_uvarint, uvarint_len, write_uvarint, Claimed, Decode, Encode, WireError,
};
use recon_base::ReconError;
use std::collections::VecDeque;

/// Configuration of an IBLT: key width, number of hash functions, sizing policy and
/// the public-coin seed from which the hash functions are derived.
///
/// Two parties can combine (subtract/decode) their IBLTs only if they used identical
/// configurations *and* the same number of cells; [`Iblt::subtract`] checks this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbltConfig {
    /// Width of every key in bytes. All keys inserted into a table must have exactly
    /// this length.
    pub key_bytes: usize,
    /// Number of hash functions `k` (the paper uses 3 or 4; default 4).
    pub hash_count: usize,
    /// Number of cells allocated per expected difference (the constant hidden in the
    /// paper's `O(d)`; default 2.2, which keeps the decode failure rate well below
    /// 1% for the difference sizes exercised in this repository).
    pub cells_per_diff: f64,
    /// Minimum number of cells regardless of the expected difference, so that very
    /// small tables still decode reliably.
    pub min_cells: usize,
    /// Public-coin seed; bucket hashes and the checksum hash are derived from it.
    pub seed: u64,
    /// Number of overflow (stash) cells appended after the partitioned region.
    /// Every key is additionally hashed into exactly one stash cell, which gives
    /// the peel (and the rescue solver) one extra equation per key — cheap
    /// insurance against the 2-core at tight sizing. `0` (the default) keeps
    /// the classic pure-partition layout.
    pub stash_cells: usize,
    /// Budget for the GF(2) decode-rescue pipeline ([`crate::rescue`]); `None`
    /// makes a stalled peel a hard failure, exactly as before the rescue path
    /// existed.
    pub rescue: Option<DecodeBudget>,
    /// Use the retightened per-difference layout table (hash count and
    /// cells-per-difference chosen by expected difference) instead of the flat
    /// `hash_count`/`cells_per_diff` pair. Opt-in: the rescue pipeline is what
    /// makes the tighter sizing safe, so only rescue-aware callers enable it.
    pub tuned_layout: bool,
}

impl IbltConfig {
    /// A configuration for 8-byte (`u64`) keys with default sizing.
    pub fn for_u64_keys(seed: u64) -> Self {
        Self::for_key_bytes(8, seed)
    }

    /// A configuration for keys of `key_bytes` bytes with default sizing.
    pub fn for_key_bytes(key_bytes: usize, seed: u64) -> Self {
        Self {
            key_bytes,
            hash_count: 4,
            cells_per_diff: 2.2,
            min_cells: 24,
            seed,
            stash_cells: 0,
            rescue: Some(DecodeBudget::default()),
            tuned_layout: false,
        }
    }

    /// A configuration for 8-byte keys with the retightened, rescue-backed
    /// sizing: per-difference tuned layout, a small stash, and a lower cell
    /// floor. See [`IbltConfig::tuned_for_key_bytes`].
    pub fn tuned_for_u64_keys(seed: u64) -> Self {
        Self::tuned_for_key_bytes(8, seed)
    }

    /// A configuration with the retightened, rescue-backed sizing for keys of
    /// `key_bytes` bytes.
    ///
    /// With the decode-rescue pipeline finishing stalled peels, tables can run
    /// much closer to the peeling wall than the classic `2.2·d` sizing: the
    /// per-difference layout table picks the hash count and cell factor, a
    /// small stash gives every key one extra equation, and the cell floor
    /// drops from 24 to 16. Callers that decode with candidates (set
    /// reconciliation, SoS outer tables) get the full benefit; peel-only
    /// decoding of these tables falls back to amplification retries.
    pub fn tuned_for_key_bytes(key_bytes: usize, seed: u64) -> Self {
        let mut cfg = Self::for_key_bytes(key_bytes, seed);
        cfg.tuned_layout = true;
        cfg.min_cells = 16;
        cfg.stash_cells = 3;
        cfg
    }

    /// Override the cells-per-difference safety factor (ablation knob for Thm 2.1's
    /// constant `c`).
    pub fn with_cells_per_diff(mut self, factor: f64) -> Self {
        self.cells_per_diff = factor;
        self
    }

    /// Override the number of hash functions.
    pub fn with_hash_count(mut self, k: usize) -> Self {
        self.hash_count = k;
        self
    }

    /// Override the minimum cell count. Small minimums shrink nested/cascaded child
    /// tables (whose decode failures are retried at later levels) at the cost of a
    /// slightly higher per-table failure rate.
    pub fn with_min_cells(mut self, min_cells: usize) -> Self {
        self.min_cells = min_cells.max(self.hash_count);
        self
    }

    /// Override the seed (derive per-role seeds with [`recon_base::rng::split_seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the number of stash (overflow) cells appended to the table.
    pub fn with_stash_cells(mut self, stash_cells: usize) -> Self {
        self.stash_cells = stash_cells;
        self
    }

    /// Override (or disable, with `None`) the decode-rescue budget.
    pub fn with_rescue(mut self, rescue: Option<DecodeBudget>) -> Self {
        self.rescue = rescue;
        self
    }

    /// Enable or disable the retightened per-difference layout table.
    pub fn with_tuned_layout(mut self, tuned: bool) -> Self {
        self.tuned_layout = tuned;
        self
    }

    /// Number of cells allocated for an expected difference of `expected_diff` keys:
    /// `max(min_cells, ceil(cells_per_diff · expected_diff))`, rounded up to a
    /// multiple of `hash_count` so the table partitions evenly.
    pub fn cells_for(&self, expected_diff: usize) -> usize {
        let target = (self.cells_per_diff * expected_diff as f64).ceil() as usize;
        let m = target.max(self.min_cells).max(self.hash_count);
        m.div_ceil(self.hash_count).saturating_mul(self.hash_count)
    }

    /// The `(hash_count, partitioned cells)` layout for an expected difference
    /// of `expected_diff` keys.
    ///
    /// With [`IbltConfig::tuned_layout`] off this is simply
    /// `(hash_count, cells_for(expected_diff))`. With it on, the hash count
    /// and cell factor come from `TUNED_LAYOUT`, a per-difference table
    /// calibrated (Monte Carlo, see `BENCH.md`) so the rescue-backed decode
    /// stays reliable while spending far fewer cells than the classic flat
    /// `2.2·d`. Stash cells are not included — they sit on top of the
    /// partitioned region.
    pub fn layout_for(&self, expected_diff: usize) -> (usize, usize) {
        if !self.tuned_layout {
            return (self.hash_count, self.cells_for(expected_diff));
        }
        let &(_, k, cells_per_diff) = TUNED_LAYOUT
            .iter()
            .find(|&&(max_diff, _, _)| expected_diff <= max_diff)
            .unwrap_or(TUNED_LAYOUT.last().expect("tuned layout table is non-empty"));
        let target = (cells_per_diff * expected_diff as f64).ceil() as usize;
        let m = target.max(self.min_cells).max(k);
        (k, m.div_ceil(k).saturating_mul(k))
    }

    /// Total cells (partitioned region + stash) a table sized for
    /// `expected_diff` will allocate — the value to feed into
    /// [`IbltConfig::serialized_len`] for cost accounting.
    pub fn total_cells_for(&self, expected_diff: usize) -> usize {
        let (_, base) = self.layout_for(expected_diff);
        base + self.stash_cells
    }

    /// Serialized size in bytes of an *empty* table with `cells` cells: the
    /// header, then a count byte, the key sum and the check-sum per cell. A count
    /// past ±63 adds a byte, past ±8191 another ([`Encode::encoded_len`] is exact).
    /// Saturates at `usize::MAX`, a size no table can have.
    pub fn serialized_len(&self, cells: usize) -> usize {
        let cell_bytes = 1 + self.key_bytes + check_bytes(self.key_bytes);
        header_len(self.key_bytes, self.hash_count, cells)
            .saturating_add(cells.saturating_mul(cell_bytes))
    }

    /// Size in bytes of the [key form](Iblt::write_key_form) of a table with
    /// `cells` cells whose counts lie in `0..=max_count`.
    pub fn key_form_len(&self, cells: usize, max_count: usize) -> usize {
        cells * (count_bytes(max_count) + self.key_bytes + check_bytes(self.key_bytes))
    }
}

/// Size of the wire and bank-dump header: three varints, then the 8-byte seed.
fn header_len(key_bytes: usize, hash_count: usize, cells: usize) -> usize {
    uvarint_len(key_bytes as u64) + uvarint_len(hash_count as u64) + uvarint_len(cells as u64) + 8
}

/// Bytes of the check hash a cell keeps and ships: 4 for keys of at most 8, else 8.
fn check_bytes(key_bytes: usize) -> usize {
    if key_bytes <= 8 {
        4
    } else {
        8
    }
}

/// Bytes per count in the key form of a table whose counts lie in `0..=max_count`.
fn count_bytes(max_count: usize) -> usize {
    ((usize::BITS - max_count.leading_zeros()) as usize).div_ceil(8).max(1)
}

/// A count as the value whose varint the wire carries: 0, −1, 1, −2, … as 0, 1, 2, 3, …
fn zigzag(count: i64) -> u64 {
    ((count << 1) ^ (count >> 63)) as u64
}

/// The retightened per-difference layout: `(max_diff, hash_count,
/// cells_per_diff)` rows, first match wins. Calibrated by Monte Carlo against
/// the rescue-backed decode with candidates (400 trials per point at shared
/// set sizes 1 000 and 20 000; see `BENCH.md` for the sweep): `k = 3` has the
/// lowest peeling threshold (`c* ≈ 1.22`) and dominated `k = 4` at every
/// factor up to 1.5×, and the rescue solver covers the near-threshold
/// variance that historically forced `k = 4` at `2.2·d`. Small differences
/// stay a little fatter because the `min_cells` floor — not the factor — is
/// what carries them.
const TUNED_LAYOUT: &[(usize, usize, f64)] = &[(16, 3, 2.0), (64, 3, 1.6), (usize::MAX, 3, 1.5)];

impl Default for IbltConfig {
    fn default() -> Self {
        Self::for_u64_keys(0)
    }
}

/// The result of decoding (peeling) an IBLT.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodeResult {
    /// Keys that were inserted more often than deleted (for a subtracted pair of
    /// tables: keys only in Alice's set, `S_A \ S_B`).
    pub positive: Vec<Vec<u8>>,
    /// Keys that were deleted more often than inserted (`S_B \ S_A`).
    pub negative: Vec<Vec<u8>>,
    /// `true` if the table was fully emptied: every key was extracted. `false`
    /// indicates a peeling failure (non-empty 2-core), which Theorem 2.1 bounds by
    /// `O(1/poly(m))`.
    pub complete: bool,
}

impl DecodeResult {
    /// Positive keys reinterpreted as `u64` (first 8 bytes, little-endian).
    pub fn positive_u64(&self) -> Vec<u64> {
        self.positive.iter().map(|k| key_to_u64(k)).collect()
    }

    /// Negative keys reinterpreted as `u64` (first 8 bytes, little-endian).
    pub fn negative_u64(&self) -> Vec<u64> {
        self.negative.iter().map(|k| key_to_u64(k)).collect()
    }

    /// Total number of keys recovered.
    pub fn recovered(&self) -> usize {
        self.positive.len() + self.negative.len()
    }
}

/// Call `f` with the zero-padded little-endian `key_bytes`-wide key for `x`,
/// staying on the stack for every practical key width (heap only past 64 bytes).
#[inline]
fn with_u64_key<R>(x: u64, key_bytes: usize, f: impl FnOnce(&[u8]) -> R) -> R {
    assert!(key_bytes >= 8, "u64 keys require key_bytes >= 8");
    if key_bytes <= 64 {
        let mut buf = [0u8; 64];
        buf[..8].copy_from_slice(&x.to_le_bytes());
        f(&buf[..key_bytes])
    } else {
        let mut buf = vec![0u8; key_bytes];
        buf[..8].copy_from_slice(&x.to_le_bytes());
        f(&buf)
    }
}

fn key_to_u64(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_le_bytes(buf)
}

/// One key as the bank sees it: the ubiquitous 8-byte width as a single
/// little-endian word, every other width as its bytes.
#[derive(Clone, Copy)]
enum Key<'a> {
    Word(u64),
    Bytes(&'a [u8]),
}

impl<'a> Key<'a> {
    #[inline]
    fn of(bytes: &'a [u8]) -> Self {
        match <&[u8; 8]>::try_from(bytes) {
            Ok(word) => Key::Word(u64::from_le_bytes(*word)),
            Err(_) => Key::Bytes(bytes),
        }
    }

    /// The key's byte-string hash under each of `seeds`, from one pass over it
    /// (a word hashes as its 8 little-endian bytes).
    #[inline(always)]
    fn hash<const N: usize>(self, seeds: [u64; N]) -> [u64; N] {
        match self {
            Key::Word(x) => hash_bytes_lanes(&x.to_le_bytes(), seeds),
            Key::Bytes(bytes) => hash_bytes_lanes(bytes, seeds),
        }
    }
}

/// The per-table part of hashing a key, computed once at construction so the
/// per-key paths never re-derive it: the pre-split seeds of the partition base
/// and check-sum hashes, the part of the check hash kept, and one [`CellRange`]
/// per cell a key touches.
///
/// Deterministic in `(seed, key_bytes, hash_count, cells, stash_cells)`.
#[derive(Debug, Clone)]
struct KeyPlan {
    base_seed: u64,
    check_seed: u64,
    /// The low [`check_bytes`] bytes: a check-sum is cut where it is computed.
    check_mask: u64,
    /// Hash function `j`'s partition `[j·part, (j+1)·part)` with
    /// `part = base_cells / hash_count`, for each `j`; then, when a stash is
    /// configured, the stash cells past the partitioned region.
    ranges: Vec<CellRange>,
}

/// A run of cells of which every key occupies one, picked by hashing the key's
/// partition base under `seed`.
#[derive(Debug, Clone, Copy)]
struct CellRange {
    seed: u64,
    first: usize,
    len: u64,
}

impl KeyPlan {
    /// The plan of a table with `cells` cells in all, the last `stash_cells` of
    /// them stash. Callers guarantee `cells - stash_cells >= hash_count`.
    fn new(
        seed: u64,
        key_bytes: usize,
        hash_count: usize,
        cells: usize,
        stash_cells: usize,
    ) -> Self {
        let base_cells = cells - stash_cells;
        let part = base_cells / hash_count;
        let mut ranges: Vec<CellRange> = (0..hash_count)
            .map(|j| CellRange {
                seed: split_seed(seed, j as u64 + 1),
                first: j * part,
                len: part as u64,
            })
            .collect();
        if stash_cells > 0 {
            ranges.push(CellRange {
                seed: split_seed(seed, 0x57A5),
                first: base_cells,
                len: stash_cells as u64,
            });
        }
        Self {
            base_seed: split_seed(seed, 0xB0CC),
            check_seed: split_seed(seed, 0xC4EC),
            check_mask: u64::MAX >> (64 - 8 * check_bytes(key_bytes)),
            ranges,
        }
    }

    /// `key`'s partition base and check-sum, from one pass over it.
    #[inline(always)]
    fn hash(&self, key: Key<'_>) -> [u64; 2] {
        let [base, check] = key.hash([self.base_seed, self.check_seed]);
        [base, check & self.check_mask]
    }

    #[inline(always)]
    fn check(&self, key: Key<'_>) -> u64 {
        key.hash([self.check_seed])[0] & self.check_mask
    }

    /// The cell indices of the key with partition base `base`: one per range,
    /// all distinct.
    #[inline(always)]
    fn cells(&self, base: u64) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().map(move |r| r.first + rem_fixed(hash64(base, r.seed), r.len) as usize)
    }
}

/// XOR `src` into `dst` one 64-bit word at a time, with a byte tail — the
/// per-key analogue of the bulk bank kernels (key widths are small, so the word
/// loop beats vector dispatch overhead).
#[inline]
fn xor_key(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dr) = dst.as_chunks_mut::<8>();
    let (sc, sr) = src.as_chunks::<8>();
    for (d, s) in dc.iter_mut().zip(sc) {
        *d = (u64::from_le_bytes(*d) ^ u64::from_le_bytes(*s)).to_le_bytes();
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d ^= s;
    }
}

/// The flat struct-of-arrays cell bank (see the module documentation).
#[derive(Debug, Clone, PartialEq)]
struct Bank {
    key_bytes: usize,
    /// Signed occurrence count per cell.
    counts: Vec<i64>,
    /// XOR of all keys per cell, `counts.len() * key_bytes` bytes at stride
    /// `key_bytes`.
    key_sums: Vec<u8>,
    /// XOR of the key checksums per cell.
    check_sums: Vec<u64>,
}

impl Bank {
    /// The key-sum slice of cell `idx`.
    #[inline]
    fn key_sum(&self, idx: usize) -> &[u8] {
        &self.key_sums[idx * self.key_bytes..(idx + 1) * self.key_bytes]
    }

    /// Add `delta` occurrences of `key` (with check-sum `checksum`) to cell `idx`.
    #[inline(always)]
    fn add(&mut self, idx: usize, key: Key<'_>, checksum: u64, delta: i64) {
        self.counts[idx] = self.counts[idx].wrapping_add(delta);
        self.check_sums[idx] ^= checksum;
        match key {
            Key::Word(x) => {
                debug_assert_eq!(self.key_bytes, 8);
                let (words, _) = self.key_sums.as_chunks_mut::<8>();
                words[idx] = (u64::from_le_bytes(words[idx]) ^ x).to_le_bytes();
            }
            Key::Bytes(bytes) => {
                let kb = self.key_bytes;
                xor_key(&mut self.key_sums[idx * kb..(idx + 1) * kb], bytes);
            }
        }
    }

    /// `true` if cell `idx` may hold exactly one key (count ±1 and the checksum
    /// of its key sum matches); a cell the peel pops must also be that key's.
    #[inline]
    fn is_pure(&self, idx: usize, plan: &KeyPlan) -> bool {
        let count = self.counts[idx];
        (count == 1 || count == -1)
            && plan.check(Key::of(self.key_sum(idx))) == self.check_sums[idx]
    }
}

/// Keys the bulk entry points hash ahead of the bank updates.
const KEY_CHUNK: usize = 16;

/// An Invertible Bloom Lookup Table over fixed-width byte keys.
///
/// See the crate-level documentation for the data-structure description and the
/// module documentation for the flat struct-of-arrays cell bank. The table is cheap
/// to clone (three flat `Vec`s) and serializes through [`recon_base::wire::Encode`],
/// which is how its communication cost is measured.
#[derive(Debug, Clone)]
pub struct Iblt {
    hash_count: usize,
    seed: u64,
    bank: Bank,
    /// The per-table key hashing plan (derived from `seed`, `hash_count`, the
    /// cell count and `stash_cells`).
    plan: KeyPlan,
    /// Stash (overflow) cells at the tail of the bank; `0` for the classic
    /// pure-partition layout. Affects hashing, so [`Iblt::subtract`] requires
    /// both sides to agree.
    stash_cells: usize,
    /// Decode-rescue budget ([`crate::rescue`]); decode-side metadata, not
    /// part of the wire format.
    rescue: Option<DecodeBudget>,
}

/// Equality compares the bank and its hashing geometry (key width, hash
/// count, seed, cells). The stash count and rescue budget are *decode-side
/// metadata*: a table parsed off the wire compares equal to the local table
/// that produced it even before [`Iblt::adopt_layout`] restores them.
impl PartialEq for Iblt {
    fn eq(&self, other: &Self) -> bool {
        self.hash_count == other.hash_count && self.seed == other.seed && self.bank == other.bank
    }
}

impl Iblt {
    /// Create an empty table whose partitioned region has `cells` cells (rounded
    /// up to a multiple of the hash count), plus the configuration's stash cells
    /// on top.
    pub fn with_cells(cells: usize, cfg: &IbltConfig) -> Self {
        Self::build(cfg, cfg.hash_count, cells).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create an empty table sized for an expected difference of `expected_diff`
    /// keys, using the configuration's sizing policy ([`IbltConfig::layout_for`],
    /// which is [`IbltConfig::cells_for`] unless the tuned layout is enabled).
    pub fn with_expected_diff(expected_diff: usize, cfg: &IbltConfig) -> Self {
        Self::try_with_expected_diff(expected_diff, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Iblt::with_expected_diff`] for a bound that came from a peer: a table
    /// the allocator cannot provide (or whose size overflows `usize`) fails
    /// with [`ReconError::ResourceExhausted`] instead of aborting the process.
    pub fn try_with_expected_diff(
        expected_diff: usize,
        cfg: &IbltConfig,
    ) -> Result<Self, ReconError> {
        let (hash_count, base_cells) = cfg.layout_for(expected_diff);
        Self::build(cfg, hash_count, base_cells)
    }

    fn build(cfg: &IbltConfig, hash_count: usize, base_cells: usize) -> Result<Self, ReconError> {
        assert!(hash_count >= 1, "need at least one hash function");
        assert!(cfg.key_bytes >= 1, "keys must be at least one byte wide");
        let exhausted = || ReconError::ResourceExhausted { what: "IBLT cells", limit: base_cells };
        // Zeroed planes, allocated fallibly so an oversized table is an error.
        fn plane<T: Clone + Default>(len: usize) -> Option<Vec<T>> {
            let mut plane = Vec::new();
            plane.try_reserve_exact(len).ok()?;
            plane.resize(len, T::default());
            Some(plane)
        }
        let m = base_cells.max(hash_count).div_ceil(hash_count).checked_mul(hash_count);
        let m = m.and_then(|base| base.checked_add(cfg.stash_cells)).ok_or_else(exhausted)?;
        let key_sum_bytes = m.checked_mul(cfg.key_bytes).ok_or_else(exhausted)?;
        let bank = Bank {
            key_bytes: cfg.key_bytes,
            counts: plane(m).ok_or_else(exhausted)?,
            key_sums: plane(key_sum_bytes).ok_or_else(exhausted)?,
            check_sums: plane(m).ok_or_else(exhausted)?,
        };
        Ok(Self {
            hash_count,
            seed: cfg.seed,
            bank,
            plan: KeyPlan::new(cfg.seed, cfg.key_bytes, hash_count, m, cfg.stash_cells),
            stash_cells: cfg.stash_cells,
            rescue: cfg.rescue,
        })
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.bank.counts.len()
    }

    /// The count plane: every cell's signed count, partition after partition
    /// (`cells / hash_count` each), stash cells last.
    pub fn counts(&self) -> &[i64] {
        &self.bank.counts
    }

    /// Width of the keys stored in this table, in bytes.
    pub fn key_bytes(&self) -> usize {
        self.bank.key_bytes
    }

    /// Number of hash functions.
    pub fn hash_count(&self) -> usize {
        self.hash_count
    }

    /// The public-coin seed this table was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of stash (overflow) cells at the tail of the bank.
    pub fn stash_cells(&self) -> usize {
        self.stash_cells
    }

    /// The decode-rescue budget this table will use.
    pub fn rescue_budget(&self) -> Option<DecodeBudget> {
        self.rescue
    }

    /// Re-bless a table parsed off the wire with the decode-side layout
    /// metadata the wire format does not carry: the stash split and the
    /// rescue budget.
    ///
    /// The wire header is authoritative for the hash count (the tuned layout
    /// varies it per difference size), so only the key width and seed must
    /// match `cfg`; the stash must also fit (the partitioned remainder stays a
    /// non-empty multiple of the hash count).
    pub fn adopt_layout(&mut self, cfg: &IbltConfig) -> Result<(), ReconError> {
        let base = self.bank.counts.len().checked_sub(cfg.stash_cells);
        let base_ok = matches!(base, Some(b) if b >= self.hash_count && b % self.hash_count == 0);
        if cfg.key_bytes != self.bank.key_bytes || cfg.seed != self.seed || !base_ok {
            return Err(ReconError::InvalidInput(
                "IBLT layout does not match the configuration being adopted".to_string(),
            ));
        }
        self.stash_cells = cfg.stash_cells;
        self.rescue = cfg.rescue;
        self.plan =
            KeyPlan::new(self.seed, cfg.key_bytes, self.hash_count, self.cells(), cfg.stash_cells);
        Ok(())
    }

    /// `true` if every cell is zero (the represented multiset difference is empty).
    pub fn is_empty(&self) -> bool {
        fn all_zero_bytes(bytes: &[u8]) -> bool {
            let (chunks, rest) = bytes.as_chunks::<8>();
            chunks.iter().all(|c| u64::from_le_bytes(*c) == 0) && rest.iter().all(|&b| b == 0)
        }
        self.bank.counts.iter().all(|&c| c == 0)
            && self.bank.check_sums.iter().all(|&c| c == 0)
            && all_zero_bytes(&self.bank.key_sums)
    }

    /// Reset every cell to zero, keeping geometry and seed. Lets hot loops reuse one
    /// table (and its allocations) across many encodings.
    pub fn clear(&mut self) {
        self.bank.counts.fill(0);
        self.bank.key_sums.fill(0);
        self.bank.check_sums.fill(0);
    }

    /// Apply `delta` occurrences of `key`, already hashed to its partition
    /// base and check-sum, to each of its cells.
    #[inline(always)]
    fn apply_hashed(&mut self, key: Key<'_>, base: u64, checksum: u64, delta: i64) {
        for idx in self.plan.cells(base) {
            self.bank.add(idx, key, checksum, delta);
        }
    }

    #[inline(always)]
    fn apply(&mut self, key: Key<'_>, delta: i64) {
        let [base, checksum] = self.plan.hash(key);
        self.apply_hashed(key, base, checksum, delta);
    }

    #[inline]
    fn apply_bytes(&mut self, key: &[u8], delta: i64) {
        assert_eq!(
            key.len(),
            self.bank.key_bytes,
            "key width {} does not match table key width {}",
            key.len(),
            self.bank.key_bytes
        );
        self.apply(Key::of(key), delta);
    }

    #[inline]
    fn apply_u64(&mut self, x: u64, delta: i64) {
        if self.bank.key_bytes == 8 {
            self.apply(Key::Word(x), delta);
        } else {
            with_u64_key(x, self.bank.key_bytes, |key| self.apply(Key::Bytes(key), delta));
        }
    }

    /// Apply `delta` occurrences of every key in `keys`. On the 8-byte width
    /// the keys go through in stack chunks: a chunk is hashed, then applied.
    #[inline]
    fn apply_u64s(&mut self, keys: impl IntoIterator<Item = u64>, delta: i64) {
        let mut keys = keys.into_iter();
        if self.bank.key_bytes != 8 {
            keys.for_each(|x| self.apply_u64(x, delta));
            return;
        }
        let mut hashed = [(0u64, 0u64, 0u64); KEY_CHUNK];
        loop {
            let mut filled = 0;
            for (slot, x) in hashed.iter_mut().zip(keys.by_ref()) {
                let [base, checksum] = self.plan.hash(Key::Word(x));
                *slot = (x, base, checksum);
                filled += 1;
            }
            for &(x, base, checksum) in &hashed[..filled] {
                self.apply_hashed(Key::Word(x), base, checksum, delta);
            }
            if filled < KEY_CHUNK {
                return;
            }
        }
    }

    /// Insert a key (a "positive" occurrence).
    #[inline]
    pub fn insert(&mut self, key: &[u8]) {
        self.apply_bytes(key, 1);
    }

    /// Delete a key (a "negative" occurrence; counts may go negative, which is how a
    /// single table represents both sides of a set difference).
    #[inline]
    pub fn delete(&mut self, key: &[u8]) {
        self.apply_bytes(key, -1);
    }

    /// Insert a `u64` key (zero-padded to the table's key width, without touching
    /// the heap).
    #[inline]
    pub fn insert_u64(&mut self, x: u64) {
        self.apply_u64(x, 1);
    }

    /// Delete a `u64` key.
    #[inline]
    pub fn delete_u64(&mut self, x: u64) {
        self.apply_u64(x, -1);
    }

    /// Insert every `u64` key of `keys`: the same cells as [`Iblt::insert_u64`]
    /// on each, for less per key (see the module's "Key path").
    #[inline]
    pub fn insert_u64s(&mut self, keys: impl IntoIterator<Item = u64>) {
        self.apply_u64s(keys, 1);
    }

    /// Delete every `u64` key of `keys`.
    #[inline]
    pub fn delete_u64s(&mut self, keys: impl IntoIterator<Item = u64>) {
        self.apply_u64s(keys, -1);
    }

    fn check_geometry(&self, other: &Iblt) -> Result<(), ReconError> {
        if self.bank.key_bytes != other.bank.key_bytes
            || self.hash_count != other.hash_count
            || self.seed != other.seed
            || self.bank.counts.len() != other.bank.counts.len()
            || self.stash_cells != other.stash_cells
        {
            return Err(ReconError::InvalidInput(
                "cannot combine IBLTs with different geometry or seed".to_string(),
            ));
        }
        Ok(())
    }

    /// Cell-wise subtraction `self − other`: the result represents the symmetric
    /// difference of the two encoded sets (Alice's elements as positive keys, Bob's
    /// as negative). Fails if the two tables do not share geometry and seed.
    pub fn subtract(&self, other: &Iblt) -> Result<Iblt, ReconError> {
        let mut out = self.clone();
        out.subtract_assign(other)?;
        Ok(out)
    }

    /// In-place cell-wise subtraction `self −= other` over the flat cell bank.
    pub fn subtract_assign(&mut self, other: &Iblt) -> Result<(), ReconError> {
        self.check_geometry(other)?;
        kernels::sub_i64(&mut self.bank.counts, &other.bank.counts);
        self.xor_sums(other);
        Ok(())
    }

    /// In-place cell-wise addition `self += other` (counts add, key sums and
    /// checksums XOR). Adding is how signed sketches merge: a table whose deletions
    /// encode Bob's side added to a table encoding Alice's side yields the same
    /// difference table as [`Iblt::subtract`] on two positive encodings.
    pub fn add_assign(&mut self, other: &Iblt) -> Result<(), ReconError> {
        self.check_geometry(other)?;
        kernels::add_i64(&mut self.bank.counts, &other.bank.counts);
        self.xor_sums(other);
        Ok(())
    }

    /// Overwrite `out` with this table's *half-fold*: cell `i` of each partition
    /// of `out` is the sum of cells `i` and `i + part/2` of the same partition
    /// here (counts add, key sums and check sums XOR).
    ///
    /// A key's cell in a partition of `p` cells is `h mod p`, and
    /// `(h mod 2p) mod p = h mod p`, so the half-fold is bit for bit the table
    /// the same operations build at half the cells under the same seed: a
    /// caller that needs one key set at a doubling chain of sizes hashes it
    /// once, at the top. Both tables must be stash-less and agree on seed, hash
    /// count and key width, and `out` must have exactly half the cells.
    pub fn fold_half_into(&self, out: &mut Iblt) -> Result<(), ReconError> {
        if self.stash_cells != 0
            || out.stash_cells != 0
            || self.bank.key_bytes != out.bank.key_bytes
            || self.hash_count != out.hash_count
            || self.seed != out.seed
            || self.cells() != 2 * out.cells()
        {
            return Err(ReconError::InvalidInput(
                "cannot fold an IBLT into a table that is not its half-size twin".to_string(),
            ));
        }
        // Plain loops, not the bank kernels: a partition half is a few cells,
        // less than a kernel call costs.
        fn fold<T: Copy>(dst: &mut [T], src: &[T], half: usize, add: impl Fn(T, T) -> T) {
            for (d, s) in dst.chunks_exact_mut(half).zip(src.chunks_exact(2 * half)) {
                let (lo, hi) = s.split_at(half);
                for ((d, &a), &b) in d.iter_mut().zip(lo).zip(hi) {
                    *d = add(a, b);
                }
            }
        }
        let half = out.cells() / out.hash_count;
        fold(&mut out.bank.counts, &self.bank.counts, half, i64::wrapping_add);
        let wide = half * self.bank.key_bytes;
        fold(&mut out.bank.key_sums, &self.bank.key_sums, wide, |a, b| a ^ b);
        fold(&mut out.bank.check_sums, &self.bank.check_sums, half, |a, b| a ^ b);
        Ok(())
    }

    /// XOR the key-sum and checksum banks of `other` into `self` — one chunked
    /// kernel pass over each contiguous buffer (geometry must already be
    /// verified).
    fn xor_sums(&mut self, other: &Iblt) {
        kernels::xor_bytes(&mut self.bank.key_sums, &other.bank.key_sums);
        kernels::xor_u64(&mut self.bank.check_sums, &other.bank.check_sums);
    }

    /// Decode (peel) the table, returning the recovered positive and negative keys.
    ///
    /// This peels a clone of the cell bank; the table itself is left untouched so
    /// the caller can retry with different strategies or report diagnostics. Hot
    /// paths that own (or may mutate) their table should prefer
    /// [`Iblt::decode_in_place`], which skips the copy.
    pub fn decode(&self) -> DecodeResult {
        self.clone().decode_in_place()
    }

    /// Decode the table in place, without copying the cell bank: peel first,
    /// and when the peel stalls on a non-empty 2-core, hand the residual to
    /// the GF(2) rescue solver ([`crate::rescue`]) before reporting failure.
    ///
    /// On a complete decode the table is left empty; on a failure it holds
    /// exactly the residual neither the peel nor the rescue could clear, so
    /// [`Iblt::nonempty_cells`] afterwards reports the genuinely undecodable
    /// remainder (a sharper diagnostic than the pre-peel cell count). Without
    /// candidates the rescue can only use keys it discovers by Gaussian
    /// elimination on the residual itself; decoders that know their own side
    /// of the difference should prefer
    /// [`Iblt::decode_in_place_with_candidates`].
    pub fn decode_in_place(&mut self) -> DecodeResult {
        self.decode_in_place_with_candidates(std::iter::empty::<&[u8]>())
    }

    /// Decode in place like [`Iblt::decode_in_place`], but give the rescue
    /// solver the keys the decoder itself contributed (its own set, which is
    /// where every negative key must come from). The iterator is only
    /// consumed — and only on the failure path — when the peel stalls, so
    /// passing a large set is free on the happy path. Keys of the wrong width
    /// are ignored.
    pub fn decode_in_place_with_candidates<I, K>(&mut self, negative_candidates: I) -> DecodeResult
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        let mut result = DecodeResult::default();
        self.peel_in_place(&mut result);
        // A stalled peel goes to the rescue, if the table has one.
        if let Some(budget) = self.rescue.filter(|_| !self.is_empty()) {
            let owned: Vec<K> = negative_candidates.into_iter().collect();
            let refs: Vec<&[u8]> = owned
                .iter()
                .map(|k| k.as_ref())
                .filter(|k| k.len() == self.bank.key_bytes)
                .collect();
            rescue::rescue_in_place(self, &mut result, &refs, budget);
        }
        result.complete = self.is_empty();
        result
    }

    /// [`Iblt::decode_in_place_with_candidates`] for `u64` candidate keys
    /// (zero-padded to the table's key width, materialized only when the peel
    /// actually stalls).
    pub fn decode_in_place_with_candidates_u64<I>(&mut self, negative_candidates: I) -> DecodeResult
    where
        I: IntoIterator<Item = u64>,
    {
        let kb = self.bank.key_bytes;
        self.decode_in_place_with_candidates(negative_candidates.into_iter().map(move |x| {
            let mut key = vec![0u8; kb];
            key[..8].copy_from_slice(&x.to_le_bytes());
            key
        }))
    }

    /// Run the peeling loop to exhaustion, appending recovered keys to
    /// `result` (without setting `result.complete`). Public within the crate
    /// so the rescue solver can alternate algebraic removals with re-peels.
    pub(crate) fn peel_in_place(&mut self, result: &mut DecodeResult) {
        let (bank, plan) = (&mut self.bank, &self.plan);
        let mut queue: VecDeque<usize> = VecDeque::with_capacity(bank.counts.len() / 2);
        queue.extend((0..bank.counts.len()).filter(|&i| bank.is_pure(i, plan)));
        // A key's cells are all computed before the first is touched, so the
        // index hashes and divides overlap instead of queueing behind the
        // purity checks of the cells it touches.
        let mut cells = Vec::with_capacity(plan.ranges.len());

        while let Some(idx) = queue.pop_front() {
            let count = bank.counts[idx];
            let [base, checksum] = plan.hash(Key::of(bank.key_sum(idx)));
            cells.clear();
            cells.extend(plan.cells(base));
            // One key alone re-hashes to the cell it lies in: the check bits
            // that let a narrow key carry a narrow check-sum.
            let pure = count.unsigned_abs() == 1 && checksum == bank.check_sums[idx];
            if !pure || !cells.contains(&idx) {
                continue;
            }
            let key_bytes = bank.key_sum(idx).to_vec();
            let key = Key::of(&key_bytes);
            // Remove the key from the table: if it was a positive key, delete it; if
            // negative, add it back (as described in Section 2 of the paper). The
            // cells of a key are distinct, so each becomes final the moment it is
            // updated and can be tested for purity right away.
            for &touched in &cells {
                bank.add(touched, key, checksum, -count);
                if bank.is_pure(touched, plan) {
                    queue.push_back(touched);
                }
            }
            if count == 1 {
                result.positive.push(key_bytes);
            } else {
                result.negative.push(key_bytes);
            }
        }
    }

    /// Number of cells that are currently non-empty (diagnostic for peeling
    /// failures).
    pub fn nonempty_cells(&self) -> usize {
        self.nonempty_cell_indices().len()
    }

    /// Indices of every currently non-empty cell (the rescue solver's residual
    /// system).
    pub(crate) fn nonempty_cell_indices(&self) -> Vec<usize> {
        (0..self.bank.counts.len()).filter(|&i| !self.cell_is_empty(i)).collect()
    }

    /// `true` if cell `idx` holds nothing (all three planes zero).
    #[inline]
    pub(crate) fn cell_is_empty(&self, idx: usize) -> bool {
        self.bank.counts[idx] == 0
            && self.bank.check_sums[idx] == 0
            && self.bank.key_sum(idx).iter().all(|&b| b == 0)
    }

    /// The signed count of cell `idx`.
    #[inline]
    pub(crate) fn cell_count(&self, idx: usize) -> i64 {
        self.bank.counts[idx]
    }

    /// The key-sum plane of cell `idx`.
    #[inline]
    pub(crate) fn cell_key_sum(&self, idx: usize) -> &[u8] {
        self.bank.key_sum(idx)
    }

    /// The checksum plane of cell `idx`.
    #[inline]
    pub(crate) fn cell_check_sum(&self, idx: usize) -> u64 {
        self.bank.check_sums[idx]
    }

    /// The checksum of `key` under this table's checksum hash.
    pub(crate) fn key_checksum(&self, key: &[u8]) -> u64 {
        self.plan.check(Key::of(key))
    }

    /// The cell indices `key` hashes to (partitioned cells plus the stash cell
    /// when configured).
    pub(crate) fn key_cells(&self, key: &[u8]) -> Vec<usize> {
        self.plan.cells(Key::of(key).hash([self.plan.base_seed])[0]).collect()
    }

    /// Remove `sign` occurrences of a rescued `key` (checksum already known)
    /// from every cell it hashes to.
    pub(crate) fn remove_rescued(&mut self, key: &[u8], checksum: u64, sign: i64) {
        let key = Key::of(key);
        self.apply_hashed(key, key.hash([self.plan.base_seed])[0], checksum, -sign);
    }

    /// Append the *key form* of a child table — at most `max_count` inserted
    /// keys — on its way into an outer table as a key: no header, the counts at
    /// the fewest bytes that hold `max_count`, the sums as on the wire;
    /// [`IbltConfig::key_form_len`] bytes. The geometry is that of the table
    /// the receiver [reads it into](Iblt::read_key_form), so a foreign one cannot
    /// be expressed; a count out of range is cut to the width, and refused there.
    pub fn write_key_form(&self, max_count: usize, out: &mut Vec<u8>) {
        let width = count_bytes(max_count);
        for &count in &self.bank.counts {
            out.extend_from_slice(&count.to_le_bytes()[..width]);
        }
        self.write_sums(out);
    }

    /// Overwrite every cell from `bytes`, the [key form](Iblt::write_key_form)
    /// of a table of this geometry. Bytes of another length, or a count above
    /// `max_count`, are no such table.
    pub fn read_key_form(&mut self, max_count: usize, bytes: &[u8]) -> Result<(), WireError> {
        let (cells, width) = (self.cells(), count_bytes(max_count));
        let key_bytes = self.bank.key_bytes;
        if bytes.len() != cells * (width + key_bytes + check_bytes(key_bytes)) {
            return Err(WireError::Invalid("IBLT key form length"));
        }
        let (count_plane, mut sums) = bytes.split_at(cells * width);
        for (count, bytes) in self.bank.counts.iter_mut().zip(count_plane.chunks_exact(width)) {
            *count = Claimed::new(le_word(bytes)).at_most(max_count, "IBLT key form count")? as i64;
        }
        self.read_sums(&mut sums)
    }

    /// The key sums as they lie in memory, then the check-sums at their wire width.
    fn write_sums(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.bank.key_sums);
        let width = check_bytes(self.bank.key_bytes);
        for &sum in &self.bank.check_sums {
            buf.extend_from_slice(&sum.to_le_bytes()[..width]);
        }
    }

    /// Fill both sum planes from the front of `buf` ([`Iblt::write_sums`]).
    fn read_sums(&mut self, buf: &mut &[u8]) -> Result<(), WireError> {
        let bank = &mut self.bank;
        let width = check_bytes(bank.key_bytes);
        if buf.len() < bank.key_sums.len() + bank.check_sums.len() * width {
            return Err(WireError::UnexpectedEnd);
        }
        let (key_plane, rest) = buf.split_at(bank.key_sums.len());
        let (check_plane, rest) = rest.split_at(bank.check_sums.len() * width);
        bank.key_sums.copy_from_slice(key_plane);
        for (sum, bytes) in bank.check_sums.iter_mut().zip(check_plane.chunks_exact(width)) {
            *sum = le_word(bytes);
        }
        *buf = rest;
        Ok(())
    }

    fn write_header(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.bank.key_bytes as u64);
        write_uvarint(buf, self.hash_count as u64);
        write_uvarint(buf, self.bank.counts.len() as u64);
        buf.extend_from_slice(&self.seed.to_le_bytes());
    }

    /// Serialize the cell bank as three contiguous fixed-width planes (8-byte
    /// counts, key sums, 8-byte checksums) after the header: it loads back
    /// into the bank with three bulk copies and no per-cell parsing, at 16
    /// bytes a cell plus the key.
    pub fn encode_bank(&self, buf: &mut Vec<u8>) {
        self.write_header(buf);
        buf.reserve(self.bank.counts.len() * (16 + self.bank.key_bytes));
        for &c in &self.bank.counts {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        buf.extend_from_slice(&self.bank.key_sums);
        for &c in &self.bank.check_sums {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Load a cell bank serialized with [`Iblt::encode_bank`].
    pub fn decode_bank(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (key_bytes, hash_count, cell_count, seed) = Self::decode_header(buf, |_| 16)?;
        let (count_plane, rest) = buf.split_at(cell_count * 8);
        let (key_plane, rest) = rest.split_at(cell_count * key_bytes);
        let (check_plane, rest) = rest.split_at(cell_count * 8);
        *buf = rest;
        let counts = count_plane.chunks_exact(8).map(|c| le_word(c) as i64).collect();
        let check_sums = check_plane.chunks_exact(8).map(le_word).collect();
        let key_sums = key_plane.to_vec();
        Ok(Self::from_parsed(hash_count, seed, Bank { key_bytes, counts, key_sums, check_sums }))
    }

    /// Read the header the wire and bank-dump formats share — key width, hash
    /// count, cell count, seed — and check it against what is left of `buf`
    /// before anything is allocated: every cell needs its key and
    /// `fixed(key_bytes)` bytes beside it (16 in a bank dump; a count byte and
    /// the check-sum on the wire), and a table has a cell per hash function.
    fn decode_header(
        buf: &mut &[u8],
        fixed: impl Fn(usize) -> usize,
    ) -> Result<(usize, usize, usize, u64), WireError> {
        const HEADER: &str = "IBLT header";
        // A cell's key lies in what is left.
        let key_bytes = Claimed::decode(buf)?.at_most(buf.len(), HEADER)?;
        let hash_count = Claimed::decode(buf)?;
        let cell_count = Claimed::decode(buf)?;
        let seed = u64::decode(buf)?;
        let cell_count = cell_count.items_in(buf, key_bytes + fixed(key_bytes))?;
        let hash_count = hash_count.at_most(cell_count, HEADER)?;
        if key_bytes == 0 || hash_count == 0 {
            return Err(WireError::Invalid(HEADER));
        }
        Ok((key_bytes, hash_count, cell_count, seed))
    }

    /// A table parsed off the wire or out of a bank dump. Neither format carries
    /// decode-side metadata: parsed tables start with no stash and the default
    /// rescue budget, and callers that use a stash or a custom budget re-bless
    /// the table with [`Iblt::adopt_layout`] before decoding.
    fn from_parsed(hash_count: usize, seed: u64, bank: Bank) -> Self {
        let plan = KeyPlan::new(seed, bank.key_bytes, hash_count, bank.counts.len(), 0);
        Iblt { hash_count, seed, bank, plan, stash_cells: 0, rescue: Some(DecodeBudget::default()) }
    }
}

/// Up to 8 little-endian bytes as a word.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl Encode for Iblt {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.write_header(buf);
        buf.reserve(self.bank.counts.len() * (2 + self.bank.key_bytes + 8));
        for &count in &self.bank.counts {
            write_uvarint(buf, zigzag(count));
        }
        self.write_sums(buf);
    }

    fn encoded_len(&self) -> usize {
        let (cells, key_bytes) = (self.bank.counts.len(), self.bank.key_bytes);
        header_len(key_bytes, self.hash_count, cells)
            + self.bank.counts.iter().map(|&count| uvarint_len(zigzag(count))).sum::<usize>()
            + cells * (key_bytes + check_bytes(key_bytes))
    }
}

impl Decode for Iblt {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (key_bytes, hash_count, cell_count, seed) =
            Self::decode_header(buf, |key_bytes| 1 + check_bytes(key_bytes))?;
        let counts = (0..cell_count)
            .map(|_| read_uvarint(buf).map(|zigzag| (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64)))
            .collect::<Result<Vec<i64>, WireError>>()?;
        let (key_sums, check_sums) = (vec![0; cell_count * key_bytes], vec![0; cell_count]);
        let bank = Bank { key_bytes, counts, key_sums, check_sums };
        let mut table = Self::from_parsed(hash_count, seed, bank);
        table.read_sums(buf)?;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_base::rng::Xoshiro256;
    use std::collections::HashSet;

    fn cfg() -> IbltConfig {
        IbltConfig::for_u64_keys(0xFEED)
    }

    #[test]
    fn cells_for_respects_minimum_and_rounding() {
        let c = cfg();
        assert_eq!(c.cells_for(0), 24);
        assert_eq!(c.cells_for(1) % c.hash_count, 0);
        assert!(c.cells_for(100) >= 220);
    }

    #[test]
    fn insert_then_delete_leaves_table_empty() {
        let mut t = Iblt::with_expected_diff(4, &cfg());
        t.insert_u64(42);
        assert!(!t.is_empty());
        t.delete_u64(42);
        assert!(t.is_empty());
    }

    #[test]
    fn single_key_decodes() {
        let mut t = Iblt::with_expected_diff(4, &cfg());
        t.insert_u64(7);
        let d = t.decode();
        assert!(d.complete);
        assert_eq!(d.positive_u64(), vec![7]);
        assert!(d.negative.is_empty());
    }

    #[test]
    fn negative_key_decodes() {
        let mut t = Iblt::with_expected_diff(4, &cfg());
        t.delete_u64(9);
        let d = t.decode();
        assert!(d.complete);
        assert_eq!(d.negative_u64(), vec![9]);
        assert!(d.positive.is_empty());
    }

    #[test]
    fn decode_does_not_mutate_table() {
        let mut t = Iblt::with_expected_diff(4, &cfg());
        t.insert_u64(1);
        let before = t.clone();
        let _ = t.decode();
        assert_eq!(t, before);
    }

    #[test]
    fn decode_in_place_drains_the_table() {
        let mut t = Iblt::with_expected_diff(8, &cfg());
        for x in 0..6u64 {
            t.insert_u64(x);
        }
        let reference = t.decode();
        let in_place = t.decode_in_place();
        assert_eq!(in_place, reference);
        assert!(in_place.complete);
        assert!(t.is_empty(), "a complete in-place peel empties the table");
        assert_eq!(t.nonempty_cells(), 0);
    }

    #[test]
    fn clear_resets_all_cells() {
        let mut t = Iblt::with_expected_diff(4, &cfg());
        t.insert_u64(3);
        t.delete_u64(1000);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t, Iblt::with_expected_diff(4, &cfg()));
    }

    #[test]
    fn add_assign_matches_subtract_of_negation() {
        let config = cfg();
        let mut alice = Iblt::with_expected_diff(8, &config);
        let mut bob_negated = Iblt::with_expected_diff(8, &config);
        for x in 0..50u64 {
            alice.insert_u64(x);
        }
        for x in 40..90u64 {
            bob_negated.delete_u64(x);
        }
        // alice + (−bob) must equal the subtract-based difference table.
        let mut bob = Iblt::with_expected_diff(8, &config);
        for x in 40..90u64 {
            bob.insert_u64(x);
        }
        let via_subtract = alice.subtract(&bob).unwrap();
        let mut via_add = alice.clone();
        via_add.add_assign(&bob_negated).unwrap();
        assert_eq!(via_add, via_subtract);

        let mismatched = Iblt::with_cells(alice.cells() + 4, &config);
        assert!(via_add.add_assign(&mismatched).is_err());
    }

    #[test]
    fn subtract_recovers_symmetric_difference() {
        let config = cfg();
        let mut alice = Iblt::with_expected_diff(16, &config);
        let mut bob = Iblt::with_expected_diff(16, &config);
        for x in 0..1000u64 {
            alice.insert_u64(x);
        }
        for x in 5..1005u64 {
            bob.insert_u64(x);
        }
        let diff = alice.subtract(&bob).unwrap();
        let d = diff.decode();
        assert!(d.complete);
        let pos: HashSet<u64> = d.positive_u64().into_iter().collect();
        let neg: HashSet<u64> = d.negative_u64().into_iter().collect();
        assert_eq!(pos, (0..5).collect());
        assert_eq!(neg, (1000..1005).collect());
    }

    #[test]
    fn subtract_requires_matching_geometry() {
        let a = Iblt::with_cells(24, &cfg());
        let b = Iblt::with_cells(36, &cfg());
        assert!(a.subtract(&b).is_err());
        let c = Iblt::with_cells(24, &cfg().with_seed(1));
        assert!(a.subtract(&c).is_err());
        let d = Iblt::with_cells(24, &IbltConfig::for_key_bytes(16, 0xFEED));
        assert!(a.subtract(&d).is_err());
    }

    #[test]
    fn overloaded_table_reports_incomplete() {
        // 12 cells cannot hold 500 keys; the peel must report incompleteness rather
        // than silently returning garbage.
        let mut t = Iblt::with_cells(12, &cfg());
        for x in 0..500u64 {
            t.insert_u64(x);
        }
        let d = t.decode();
        assert!(!d.complete);
        assert!(d.recovered() < 500);
        assert!(t.nonempty_cells() > 0);
        // The in-place peel leaves exactly the 2-core behind.
        let in_place = t.decode_in_place();
        assert_eq!(in_place, d);
        assert!(t.nonempty_cells() > 0);
        assert!(!t.is_empty());
    }

    #[test]
    fn wide_keys_roundtrip() {
        let config = IbltConfig::for_key_bytes(40, 7);
        let mut rng = Xoshiro256::new(3);
        let keys: Vec<Vec<u8>> =
            (0..20).map(|_| (0..40).map(|_| rng.next_u64() as u8).collect()).collect();
        let mut t = Iblt::with_expected_diff(32, &config);
        for k in &keys {
            t.insert(k);
        }
        let d = t.decode();
        assert!(d.complete);
        let got: HashSet<Vec<u8>> = d.positive.into_iter().collect();
        assert_eq!(got, keys.into_iter().collect());
    }

    #[test]
    fn u64_keys_pad_identically_at_every_width() {
        // insert_u64 goes through the stack key buffer; at widths above 64 bytes it
        // must fall back to the heap with identical zero padding.
        for key_bytes in [8usize, 24, 64, 80] {
            let config = IbltConfig::for_key_bytes(key_bytes, 5);
            let mut via_u64 = Iblt::with_expected_diff(4, &config);
            via_u64.insert_u64(0xDEAD_BEEF);
            let mut via_bytes = Iblt::with_expected_diff(4, &config);
            let mut key = vec![0u8; key_bytes];
            key[..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
            via_bytes.insert(&key);
            assert_eq!(via_u64, via_bytes, "key_bytes = {key_bytes}");
        }
    }

    #[test]
    #[should_panic(expected = "key width")]
    fn wrong_key_width_panics() {
        let mut t = Iblt::with_expected_diff(4, &cfg());
        t.insert(&[1, 2, 3]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = Iblt::with_expected_diff(8, &cfg());
        for x in [1u64, 5, 9, 1 << 40] {
            t.insert_u64(x);
        }
        t.delete_u64(777);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.encoded_len());
        assert_eq!(bytes.len(), cfg().serialized_len(t.cells()));
        let back = Iblt::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        let d = back.decode();
        assert!(d.complete);
        assert_eq!(d.positive.len(), 4);
        assert_eq!(d.negative_u64(), vec![777]);
    }

    #[test]
    fn bank_snapshot_roundtrips_and_matches_wire_decode() {
        let mut t = Iblt::with_expected_diff(16, &cfg());
        for x in 0..40u64 {
            t.insert_u64(x * 7 + 1);
        }
        t.delete_u64(99);
        let mut bank = Vec::new();
        t.encode_bank(&mut bank);
        let mut cursor = &bank[..];
        let restored = Iblt::decode_bank(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(restored, t);
        // The snapshot and the wire codec describe the same table.
        assert_eq!(restored, Iblt::from_bytes(&t.to_bytes()).unwrap());
    }

    #[test]
    fn bank_snapshot_rejects_truncation_and_garbage() {
        let mut t = Iblt::with_expected_diff(4, &cfg());
        t.insert_u64(5);
        let mut bank = Vec::new();
        t.encode_bank(&mut bank);
        for cut in [0, 1, bank.len() / 2, bank.len() - 1] {
            let mut cursor = &bank[..cut];
            assert!(Iblt::decode_bank(&mut cursor).is_err(), "cut at {cut}");
        }
        let mut overflow = Vec::new();
        write_uvarint(&mut overflow, u64::MAX - 15);
        write_uvarint(&mut overflow, 1);
        write_uvarint(&mut overflow, 1);
        overflow.extend_from_slice(&0u64.to_le_bytes());
        assert!(Iblt::decode_bank(&mut &overflow[..]).is_err());
    }

    #[test]
    fn decode_rejects_overflowing_header() {
        // A key width of usize::MAX - 15 would wrap the per-cell size (16 + kb)
        // to zero and defeat the length check; it must fail cleanly instead.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, u64::MAX - 15); // key_bytes
        write_uvarint(&mut bytes, 1); // hash_count
        write_uvarint(&mut bytes, 1); // cell_count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seed
        bytes.extend_from_slice(&[0u8; 24]);
        assert!(Iblt::from_bytes(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_truncated_bytes() {
        let mut t = Iblt::with_expected_diff(8, &cfg());
        t.insert_u64(3);
        let bytes = t.to_bytes();
        assert!(Iblt::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn typical_sizing_decodes_reliably() {
        // Empirical check behind Theorem 2.1 / Corollary 2.2: with the default sizing
        // (2.2 cells per difference, k = 4), random differences of size 2..=64 decode
        // in the vast majority of trials.
        let mut failures = 0;
        let mut trials = 0;
        for d in [2usize, 4, 8, 16, 32, 64] {
            for trial in 0..30 {
                let config = IbltConfig::for_u64_keys(split_seed(999, (d * 100 + trial) as u64));
                let mut rng = Xoshiro256::new(trial as u64 * 7 + d as u64);
                let mut t = Iblt::with_expected_diff(d, &config);
                let keys: HashSet<u64> = (0..d).map(|_| rng.next_u64()).collect();
                for &k in &keys {
                    t.insert_u64(k);
                }
                let res = t.decode();
                trials += 1;
                if !res.complete || res.positive.len() != keys.len() {
                    failures += 1;
                }
            }
        }
        assert!(failures * 50 <= trials, "decode failure rate too high: {failures}/{trials}");
    }

    #[test]
    fn mixed_positive_negative_peeling() {
        let config = cfg();
        let mut t = Iblt::with_expected_diff(20, &config);
        for x in 0..10u64 {
            t.insert_u64(x);
        }
        for x in 100..110u64 {
            t.delete_u64(x);
        }
        let d = t.decode();
        assert!(d.complete);
        let pos: HashSet<u64> = d.positive_u64().into_iter().collect();
        let neg: HashSet<u64> = d.negative_u64().into_iter().collect();
        assert_eq!(pos, (0..10).collect());
        assert_eq!(neg, (100..110).collect());
    }

    #[test]
    fn same_key_inserted_and_deleted_cancels() {
        let mut a = Iblt::with_expected_diff(4, &cfg());
        a.insert_u64(5);
        let mut b = Iblt::with_expected_diff(4, &cfg());
        b.insert_u64(5);
        let diff = a.subtract(&b).unwrap();
        assert!(diff.is_empty());
        let d = diff.decode();
        assert!(d.complete);
        assert_eq!(d.recovered(), 0);
    }

    #[test]
    fn stash_layout_survives_wire_roundtrip_via_adopt_layout() {
        let cfg = IbltConfig::tuned_for_u64_keys(77);
        let mut original = Iblt::with_expected_diff(12, &cfg);
        assert_eq!(original.stash_cells(), cfg.stash_cells);
        let keys: Vec<u64> = (0..40u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        for &k in &keys {
            original.insert_u64(k);
        }
        // The wire format carries no decode-side metadata.
        let mut parsed = Iblt::from_bytes(&original.to_bytes()).unwrap();
        assert_eq!(parsed.stash_cells(), 0);
        parsed.adopt_layout(&cfg).unwrap();
        assert_eq!(parsed.stash_cells(), cfg.stash_cells);
        assert_eq!(parsed.rescue_budget(), cfg.rescue);
        // Same geometry after adoption: deleting the same keys drains the bank
        // (stash indices included).
        for &k in &keys {
            parsed.delete_u64(k);
        }
        assert!(parsed.is_empty());
    }

    #[test]
    fn adopt_layout_rejects_mismatched_configs() {
        let cfg = IbltConfig::tuned_for_u64_keys(5);
        let table = Iblt::with_expected_diff(8, &cfg);

        let mut t = table.clone();
        assert!(t.adopt_layout(&IbltConfig::tuned_for_key_bytes(16, 5)).is_err(), "key width");
        let mut t = table.clone();
        assert!(t.adopt_layout(&IbltConfig::tuned_for_u64_keys(6)).is_err(), "seed");
        // A stash split that leaves the partitioned remainder indivisible by
        // the hash count (or empty) must be refused.
        let mut t = table.clone();
        assert!(t.adopt_layout(&cfg.with_stash_cells(cfg.stash_cells + 1)).is_err());
        let mut t = table.clone();
        assert!(t.adopt_layout(&cfg.with_stash_cells(table.cells())).is_err());
        // And the original config is of course fine.
        let mut t = table.clone();
        assert!(t.adopt_layout(&cfg).is_ok());
    }

    #[test]
    fn combining_tables_requires_matching_stash_split() {
        // Same total cell count, different stash split: the keys live in
        // different partitions, so subtract/add must refuse.
        let stash_cfg = IbltConfig::for_u64_keys(9).with_hash_count(3).with_stash_cells(3);
        let flat_cfg = IbltConfig::for_u64_keys(9).with_hash_count(3);
        let with_stash = Iblt::with_cells(21, &stash_cfg);
        let without = Iblt::with_cells(24, &flat_cfg);
        assert_eq!(with_stash.cells(), without.cells());
        assert!(with_stash.subtract(&without).is_err());
        let mut acc = with_stash.clone();
        assert!(acc.add_assign(&without).is_err());
    }

    #[test]
    fn tuned_layout_is_tighter_than_classic_and_decodes_with_candidates() {
        let classic = IbltConfig::for_u64_keys(41);
        let tuned = IbltConfig::tuned_for_u64_keys(41);
        for d in [8usize, 32, 128, 512] {
            assert!(
                tuned.total_cells_for(d) < classic.total_cells_for(d),
                "tuned sizing must be strictly tighter at d = {d}"
            );
        }
        // And a tuned table still reconciles: worst-ish case, all-negative
        // difference at the tight factor, candidates in hand.
        let mut rng = Xoshiro256::new(0xCAFE);
        let shared: Vec<u64> = (0..500).map(|_| rng.next_u64()).collect();
        let extra: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let mut table = Iblt::with_expected_diff(32, &tuned);
        for &x in &shared {
            table.insert_u64(x);
        }
        let local: Vec<u64> = shared.iter().chain(&extra).copied().collect();
        for &x in &local {
            table.delete_u64(x);
        }
        let decoded = table.decode_in_place_with_candidates_u64(local.iter().copied());
        assert!(decoded.complete);
        let mut neg = decoded.negative_u64();
        neg.sort_unstable();
        let mut want = extra;
        want.sort_unstable();
        assert_eq!(neg, want);
    }
}
