//! Differential tests pinning the flat struct-of-arrays cell bank to a scalar
//! reference model.
//!
//! The reference model is a deliberately naive array-of-structs IBLT built from
//! the same documented primitives (`hash_bytes`/`hash64`/`split_seed`, the
//! partitioned index scheme, the three-plane wire layout with its own varint
//! writer). The production table's serialized bytes and peeling results must
//! match it exactly across key widths, hash counts, loads and mixed
//! insert/delete workloads — so a rewrite of the bank or the codec can never
//! silently change the wire format or the recovered difference. Truncated,
//! corrupted and hostile serializations are exercised as well.

use proptest::prelude::*;
use recon_base::hash::{hash64, hash_bytes, hash_bytes_lanes, rem_fixed};
use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::wire::{uvarint_len, write_uvarint, Decode, Encode, WireError};
use recon_iblt::{Iblt, IbltConfig};

/// One reference cell: the layout the production table used before the flat bank.
#[derive(Clone)]
struct RefCell {
    count: i64,
    key_sum: Vec<u8>,
    check_sum: u64,
}

/// Scalar array-of-structs reference IBLT.
struct RefIblt {
    key_bytes: usize,
    hash_count: usize,
    seed: u64,
    stash_cells: usize,
    cells: Vec<RefCell>,
}

impl RefIblt {
    fn new(cells: usize, cfg: &IbltConfig) -> Self {
        let base = cells.max(cfg.hash_count).div_ceil(cfg.hash_count) * cfg.hash_count;
        Self {
            key_bytes: cfg.key_bytes,
            hash_count: cfg.hash_count,
            seed: cfg.seed,
            stash_cells: cfg.stash_cells,
            cells: (0..base + cfg.stash_cells)
                .map(|_| RefCell { count: 0, key_sum: vec![0; cfg.key_bytes], check_sum: 0 })
                .collect(),
        }
    }

    /// The partitioned indices, then the stash index when a stash is configured.
    fn indices(&self, key: &[u8]) -> Vec<usize> {
        let base_cells = self.cells.len() - self.stash_cells;
        let part = base_cells / self.hash_count;
        let base = hash_bytes(key, split_seed(self.seed, 0xB0CC));
        let mut indices: Vec<usize> = (0..self.hash_count)
            .map(|j| {
                let h = hash64(base, split_seed(self.seed, j as u64 + 1));
                j * part + (h % part as u64) as usize
            })
            .collect();
        if self.stash_cells > 0 {
            let h = hash64(base, split_seed(self.seed, 0x57A5));
            indices.push(base_cells + (h % self.stash_cells as u64) as usize);
        }
        indices
    }

    /// Bytes of check-sum a cell carries: 4 for keys of up to 8 bytes, else 8.
    fn check_width(&self) -> usize {
        [8, 4][usize::from(self.key_bytes <= 8)]
    }

    /// The check hash, cut to the width the wire carries.
    fn checksum(&self, key: &[u8]) -> u64 {
        let full = hash_bytes(key, split_seed(self.seed, 0xC4EC));
        match self.check_width() {
            4 => u64::from(full as u32),
            _ => full,
        }
    }

    fn apply(&mut self, key: &[u8], delta: i64) {
        assert_eq!(key.len(), self.key_bytes);
        let checksum = self.checksum(key);
        for idx in self.indices(key) {
            let cell = &mut self.cells[idx];
            cell.count += delta;
            for (dst, src) in cell.key_sum.iter_mut().zip(key) {
                *dst ^= src;
            }
            cell.check_sum ^= checksum;
        }
    }

    /// What a cell must pass to be queued.
    fn is_pure(&self, idx: usize) -> bool {
        let cell = &self.cells[idx];
        (cell.count == 1 || cell.count == -1) && self.checksum(&cell.key_sum) == cell.check_sum
    }

    /// What a popped cell must pass to be peeled: its key hashes back to it.
    fn holds_its_own_key(&self, idx: usize) -> bool {
        self.is_pure(idx) && self.indices(&self.cells[idx].key_sum).contains(&idx)
    }

    /// Queue-based peel, returning (positive, negative, complete).
    fn decode(mut self) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, bool) {
        let mut positive = Vec::new();
        let mut negative = Vec::new();
        let mut queue: std::collections::VecDeque<usize> =
            (0..self.cells.len()).filter(|&i| self.is_pure(i)).collect();
        while let Some(idx) = queue.pop_front() {
            if !self.holds_its_own_key(idx) {
                continue;
            }
            let count = self.cells[idx].count;
            let key = self.cells[idx].key_sum.clone();
            if count == 1 {
                positive.push(key.clone());
                self.apply(&key, -1);
            } else {
                negative.push(key.clone());
                self.apply(&key, 1);
            }
            for touched in self.indices(&key) {
                if self.is_pure(touched) {
                    queue.push_back(touched);
                }
            }
        }
        let complete = self
            .cells
            .iter()
            .all(|c| c.count == 0 && c.check_sum == 0 && c.key_sum.iter().all(|&b| b == 0));
        (positive, negative, complete)
    }

    /// The documented wire layout: three header varints, the seed, then every
    /// count as a zig-zag varint (0, −1, 1, −2, … ↦ 0, 1, 2, 3, …; seven bits a
    /// byte, low first, top bit set on all but the last), every key sum, every
    /// check-sum at its width.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, self.key_bytes as u64);
        write_uvarint(&mut buf, self.hash_count as u64);
        write_uvarint(&mut buf, self.cells.len() as u64);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        for cell in &self.cells {
            let magnitude = cell.count.unsigned_abs();
            let doubled = magnitude.wrapping_mul(2);
            let mut rest = if cell.count < 0 { doubled.wrapping_sub(1) } else { doubled };
            while rest >= 128 {
                buf.push(128 + (rest % 128) as u8);
                rest /= 128;
            }
            buf.push(rest as u8);
        }
        for cell in &self.cells {
            buf.extend_from_slice(&cell.key_sum);
        }
        for cell in &self.cells {
            buf.extend_from_slice(&cell.check_sum.to_le_bytes()[..self.check_width()]);
        }
        buf
    }

    /// The documented key form: no header, counts at `count_width` bytes, key
    /// sums, check-sums at their width.
    fn key_form(&self, count_width: usize) -> Vec<u8> {
        let counts = self.cells.iter().flat_map(|c| c.count.to_le_bytes()[..count_width].to_vec());
        let key_sums = self.cells.iter().flat_map(|c| c.key_sum.clone());
        let check_sums = self
            .cells
            .iter()
            .flat_map(|c| c.check_sum.to_le_bytes()[..self.check_width()].to_vec());
        counts.chain(key_sums).chain(check_sums).collect()
    }
}

const KEY_WIDTHS: [usize; 4] = [8, 16, 40, 130];
const HASH_COUNTS: [usize; 3] = [3, 4, 5];

/// Build the same random workload into both implementations: two inserts to
/// every delete, so at a few thousand keys the counts need two varint bytes.
fn build_pair(
    width_sel: usize,
    hash_sel: usize,
    num_keys: usize,
    cells: usize,
    seed: u64,
) -> (Iblt, RefIblt) {
    let key_bytes = KEY_WIDTHS[width_sel % KEY_WIDTHS.len()];
    let hash_count = HASH_COUNTS[hash_sel % HASH_COUNTS.len()];
    let cfg = IbltConfig::for_key_bytes(key_bytes, seed).with_hash_count(hash_count);
    let mut soa = Iblt::with_cells(cells, &cfg);
    let mut reference = RefIblt::new(cells, &cfg);
    let mut rng = Xoshiro256::new(seed ^ 0x50A);
    for i in 0..num_keys {
        let key: Vec<u8> = (0..key_bytes).map(|_| rng.next_u64() as u8).collect();
        if i % 3 == 2 {
            soa.delete(&key);
            reference.apply(&key, -1);
        } else {
            soa.insert(&key);
            reference.apply(&key, 1);
        }
    }
    (soa, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flat bank serializes byte-for-byte like the scalar reference across
    /// key widths, hash counts and loads (counts of one, two and three varint
    /// bytes), `encoded_len` is exact, and `IbltConfig::serialized_len` is the
    /// size of the table while it is empty.
    #[test]
    fn wire_bytes_match_reference_model(
        width_sel in 0usize..4,
        hash_sel in 0usize..3,
        num_keys in 0usize..60,
        load in 0usize..3,
        cells in 6usize..64,
        seed in any::<u64>(),
    ) {
        let num_keys = num_keys * [1, 40, 1500][load];
        let (soa, reference) = build_pair(width_sel, hash_sel, num_keys, cells, seed);
        let soa_bytes = soa.to_bytes();
        prop_assert_eq!(&soa_bytes, &reference.to_bytes());
        prop_assert_eq!(soa_bytes.len(), soa.encoded_len());
        let cfg = IbltConfig::for_key_bytes(soa.key_bytes(), seed)
            .with_hash_count(soa.hash_count());
        let empty = cfg.serialized_len(soa.cells());
        prop_assert_eq!(Iblt::with_cells(cells, &cfg).to_bytes().len(), empty);
        prop_assert!((empty..=empty + 2 * soa.cells()).contains(&soa_bytes.len()));
        // And the bytes parse back into an identical table.
        prop_assert_eq!(Iblt::from_bytes(&soa_bytes).unwrap(), soa);
    }

    /// Peeling the flat bank recovers exactly the keys the scalar reference
    /// recovers, with the same completeness verdict, via both decode entry points
    /// (borrowing and in-place).
    #[test]
    fn decode_matches_reference_model(
        width_sel in 0usize..4,
        hash_sel in 0usize..3,
        num_keys in 0usize..48,
        cells in 6usize..96,
        seed in any::<u64>(),
    ) {
        let (mut soa, reference) = build_pair(width_sel, hash_sel, num_keys, cells, seed);
        let (mut ref_pos, mut ref_neg, ref_complete) = reference.decode();
        ref_pos.sort();
        ref_neg.sort();

        let borrowed = soa.decode();
        let in_place = soa.decode_in_place();
        prop_assert_eq!(&borrowed, &in_place);

        let mut pos = borrowed.positive.clone();
        let mut neg = borrowed.negative.clone();
        pos.sort();
        neg.sort();
        prop_assert_eq!(pos, ref_pos);
        prop_assert_eq!(neg, ref_neg);
        prop_assert_eq!(borrowed.complete, ref_complete);
        // A complete in-place peel drains the bank; an incomplete one leaves the
        // 2-core behind.
        prop_assert_eq!(soa.is_empty(), ref_complete);
    }

    /// Every truncation of a serialized table is rejected — each plane cut
    /// short, at any byte — and a flipped bit of the cell bank yields a table
    /// that either no longer parses (a count's continuation bit moves every
    /// plane after it) or parses to a different one: never silently the same.
    /// A count that is no `i64` is an error, not a wrapped value.
    #[test]
    fn truncation_rejected_and_corruption_detected(
        width_sel in 0usize..4,
        hash_sel in 0usize..3,
        num_keys in 1usize..40,
        seed in any::<u64>(),
        cut in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let (soa, _) = build_pair(width_sel, hash_sel, num_keys, 24, seed);
        let bytes = soa.to_bytes();
        let cut = (cut as usize) % bytes.len();
        prop_assert!(Iblt::from_bytes(&bytes[..cut]).is_err());

        // Flip one bit strictly inside the cell bank (past the header).
        let header = header_len(&soa);
        let mut corrupted = bytes.clone();
        let pos = header + (flip as usize) % (bytes.len() - header);
        corrupted[pos] ^= 1 << (flip % 8) as u8;
        if let Ok(parsed) = Iblt::from_bytes(&corrupted) {
            prop_assert_ne!(parsed, soa);
        }

        // The first count as eleven varint bytes, and as ten whose last holds a
        // 65th bit; the planes behind it are whole.
        for overlong in [&[0x80u8; 11][..], &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2]] {
            let first_count = uvarint_len(bytes[header] as u64);
            let mut hostile = bytes[..header].to_vec();
            hostile.extend_from_slice(overlong);
            hostile.extend_from_slice(&bytes[header + first_count..]);
            prop_assert_eq!(Iblt::from_bytes(&hostile), Err(WireError::VarintOverflow));
        }
    }
}

/// The third purity test: a cell whose count and check-sum say "one key" is
/// peeled only if that key hashes to it. A lone key sitting in the wrong cell
/// of its partition — which no honest table holds — is left where it is, by
/// the peel and by the rescue behind it.
#[test]
fn a_key_in_a_cell_it_does_not_hash_to_is_not_peeled() {
    for key_bytes in [8, 16] {
        let cfg = IbltConfig::for_key_bytes(key_bytes, 0x1DE7).with_hash_count(3);
        let key = padded(77, key_bytes);
        let mut reference = RefIblt::new(12, &cfg);
        reference.apply(&key, 1);
        let home = reference.indices(&key)[0];
        let elsewhere = (home + 1) % 4;
        reference.cells.swap(home, elsewhere);
        for cell in &mut reference.cells[4..] {
            *cell = RefCell { count: 0, key_sum: vec![0; key_bytes], check_sum: 0 };
        }
        let mut table = Iblt::from_bytes(&reference.to_bytes()).unwrap();
        let decoded = table.decode_in_place();
        assert_eq!((decoded.recovered(), decoded.complete), (0, false), "{key_bytes}-byte key");
        assert_eq!(table.nonempty_cells(), 1);
        let (positive, negative, complete) = reference.decode();
        assert!(positive.is_empty() && negative.is_empty() && !complete);
    }
}

/// Bytes of the wire header of `table`: three varints and the seed.
fn header_len(table: &Iblt) -> usize {
    uvarint_len(table.key_bytes() as u64)
        + uvarint_len(table.hash_count() as u64)
        + uvarint_len(table.cells() as u64)
        + 8
}

/// A header that claims more cells than the bytes behind it could hold at the
/// least a cell takes on the wire (a count byte, the key, the check-sum) is
/// refused before anything is sized from it; one byte short of that least is
/// refused as well, one table's worth is a table.
#[test]
fn decode_bounds_the_cell_count_by_the_bytes_present() {
    for (key_bytes, least) in [(8usize, 13usize), (16, 25)] {
        let header = |cells: u64| {
            let mut bytes = Vec::new();
            write_uvarint(&mut bytes, key_bytes as u64);
            write_uvarint(&mut bytes, 3);
            write_uvarint(&mut bytes, cells);
            bytes.extend_from_slice(&7u64.to_le_bytes());
            bytes
        };
        let mut huge = header(1 << 40);
        huge.extend_from_slice(&[0u8; 4096]);
        assert_eq!(Iblt::from_bytes(&huge), Err(WireError::UnexpectedEnd));
        let mut exact = header(6);
        exact.extend_from_slice(&vec![0u8; 6 * least]);
        assert_eq!(Iblt::from_bytes(&exact[..exact.len() - 1]), Err(WireError::UnexpectedEnd));
        let cfg = IbltConfig::for_key_bytes(key_bytes, 7).with_hash_count(3);
        assert_eq!(Iblt::from_bytes(&exact), Ok(Iblt::with_cells(6, &cfg)));
    }
}

/// No table has fewer cells than hash functions (its partitions would be
/// empty); a header claiming so — here with a hash count that would also cost
/// gigabytes of seeds — fails at the parser, in both formats.
#[test]
fn decode_rejects_more_hash_functions_than_cells() {
    let mut bytes = Vec::new();
    write_uvarint(&mut bytes, 8); // key_bytes
    write_uvarint(&mut bytes, 1 << 40); // hash_count
    write_uvarint(&mut bytes, 2); // cell_count
    bytes.extend_from_slice(&0u64.to_le_bytes()); // seed
    bytes.extend_from_slice(&[0u8; 48]);
    assert!(Iblt::from_bytes(&bytes).is_err());
    assert!(Iblt::decode_bank(&mut bytes.as_slice()).is_err());
}

// ---------------------------------------------------------------------------
// Batched key path vs the scalar reference
// ---------------------------------------------------------------------------

/// Partition widths around every mask/divide boundary: 1, 2, 3, `2^j`, `2^j ± 1`.
const PARTS: [usize; 17] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65];

/// `x` zero-padded to `key_bytes` little-endian bytes, as `insert_u64` defines it.
fn padded(x: u64, key_bytes: usize) -> Vec<u8> {
    let mut key = vec![0u8; key_bytes];
    key[..8].copy_from_slice(&x.to_le_bytes());
    key
}

/// The byte-string hash as it was written before it learned to run two seeds
/// side by side: the reference for both entry points.
fn hash_bytes_reference(bytes: &[u8], seed: u64) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let mut h = seed ^ (bytes.len() as u64).wrapping_mul(K);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(buf)).rotate_left(29).wrapping_mul(K);
    }
    hash64(h, seed ^ 0xA5A5_A5A5_5A5A_5A5A)
}

#[test]
fn hash_bytes_lanes_equal_separate_passes_at_every_length() {
    let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
    for len in 0..=64 {
        for (seed_a, seed_b) in [(0u64, 0u64), (1, 2), (u64::MAX, 0x1234_5678_9ABC_DEF0)] {
            let want = [
                hash_bytes_reference(&data[..len], seed_a),
                hash_bytes_reference(&data[..len], seed_b),
            ];
            assert_eq!(hash_bytes_lanes(&data[..len], [seed_a, seed_b]), want, "len {len}");
            assert_eq!([hash_bytes(&data[..len], seed_a), hash_bytes(&data[..len], seed_b)], want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bulk entry points, the single-key entry points and the scalar
    /// reference build the same table, bit for bit: across key widths (the
    /// word path, the stack-padded path, the heap-padded path), hash counts,
    /// stash on and off, partition widths on both sides of every power of two,
    /// and batch lengths that leave every possible chunk tail.
    #[test]
    fn batched_key_path_matches_reference_model(
        width_sel in 0usize..3,
        hash_sel in 0usize..2,
        stash in 0usize..4,
        part_sel in 0usize..PARTS.len(),
        inserts in 0usize..41,
        deletes in 0usize..41,
        seed in any::<u64>(),
    ) {
        let key_bytes = [8usize, 16, 211][width_sel];
        let hash_count = [3usize, 4][hash_sel];
        let cfg = IbltConfig::for_key_bytes(key_bytes, seed)
            .with_hash_count(hash_count)
            .with_stash_cells(stash);
        let cells = PARTS[part_sel] * hash_count;
        let mut rng = Xoshiro256::new(seed ^ 0xBA7C);
        let added: Vec<u64> = (0..inserts).map(|_| rng.next_u64()).collect();
        // Deletions overlap the insertions, so counts pass through zero.
        let removed: Vec<u64> = (0..deletes)
            .map(|i| if i % 2 == 0 && i < inserts { added[i] } else { rng.next_u64() })
            .collect();

        let mut batched = Iblt::with_cells(cells, &cfg);
        batched.insert_u64s(added.iter().copied());
        batched.delete_u64s(removed.iter().copied());

        let mut single = Iblt::with_cells(cells, &cfg);
        let mut reference = RefIblt::new(cells, &cfg);
        for &x in &added {
            single.insert_u64(x);
            reference.apply(&padded(x, key_bytes), 1);
        }
        for &x in &removed {
            single.delete(&padded(x, key_bytes));
            reference.apply(&padded(x, key_bytes), -1);
        }

        prop_assert_eq!(batched.cells(), reference.cells.len());
        prop_assert_eq!(&batched.to_bytes(), &reference.to_bytes());
        prop_assert_eq!(&single.to_bytes(), &reference.to_bytes());
        prop_assert_eq!(&batched, &single);
    }

    /// The half-fold of a table filled at `2m` cells is, bit for bit, the table
    /// the same inserts and deletes fill at `m` cells under the same seed — for
    /// half-partitions that are powers of two and not (6 → 3 among them), on
    /// the word path and the wide-key paths — and it overwrites what `out` held.
    /// Any other pairing of tables is refused.
    #[test]
    fn half_fold_equals_the_fill_at_half_the_cells(
        width_sel in 0usize..3,
        hash_sel in 0usize..2,
        part_sel in 0usize..PARTS.len(),
        inserts in 0usize..41,
        deletes in 0usize..41,
        seed in any::<u64>(),
    ) {
        let key_bytes = [8usize, 16, 211][width_sel];
        let hash_count = [3usize, 4][hash_sel];
        let cfg = IbltConfig::for_key_bytes(key_bytes, seed).with_hash_count(hash_count);
        let half = PARTS[part_sel] * hash_count;
        let mut rng = Xoshiro256::new(seed ^ 0xF01D);
        let added: Vec<u64> = (0..inserts).map(|_| rng.next_u64()).collect();
        let removed: Vec<u64> = (0..deletes)
            .map(|i| if i % 2 == 0 && i < inserts { added[i] } else { rng.next_u64() })
            .collect();
        let fill = |cells: usize| {
            let mut table = Iblt::with_cells(cells, &cfg);
            table.insert_u64s(added.iter().copied());
            table.delete_u64s(removed.iter().copied());
            table
        };
        let (full, want) = (fill(2 * half), fill(half));

        let mut folded = Iblt::with_cells(half, &cfg);
        folded.insert_u64(seed);
        full.fold_half_into(&mut folded).unwrap();
        prop_assert_eq!(&folded.to_bytes(), &want.to_bytes());
        prop_assert_eq!(&folded, &want);

        for wrong in [
            cfg.with_seed(seed ^ 1),
            cfg.with_hash_count(hash_count + 1),
            IbltConfig { key_bytes: key_bytes + 8, ..cfg },
        ] {
            prop_assert!(full.fold_half_into(&mut Iblt::with_cells(half, &wrong)).is_err());
        }
        prop_assert!(full.fold_half_into(&mut Iblt::with_cells(half + hash_count, &cfg)).is_err());
        prop_assert!(full.fold_half_into(&mut Iblt::with_cells(2 * half, &cfg)).is_err());
        // Twice the cells, stash included, but a stash does not fold.
        let stashed = Iblt::with_cells(2 * half, &cfg.with_stash_cells(2));
        let mut out = Iblt::with_cells(half, &cfg.with_stash_cells(1));
        prop_assert_eq!(stashed.cells(), 2 * out.cells());
        prop_assert!(stashed.fold_half_into(&mut out).is_err());
    }

    /// The key form of a child table — inserts only, at most `max_count` of
    /// them — is the reference's, has the length the configuration promises,
    /// and reads back into a table of the same geometry as the same table. Bytes
    /// of any other length, and a count above `max_count`, are refused.
    #[test]
    fn key_form_matches_reference_and_refuses_what_is_no_table(
        width_sel in 0usize..2,
        hash_sel in 0usize..2,
        part_sel in 0usize..PARTS.len(),
        max_sel in 0usize..3,
        inserts in 0usize..41,
        seed in any::<u64>(),
    ) {
        let (max_count, count_width) = [(40usize, 1usize), (255, 1), (256, 2)][max_sel];
        let key_bytes = [8usize, 16][width_sel];
        let hash_count = [3usize, 4][hash_sel];
        let cfg = IbltConfig::for_key_bytes(key_bytes, seed).with_hash_count(hash_count);
        let cells = PARTS[part_sel] * hash_count;
        let mut rng = Xoshiro256::new(seed ^ 0x4F0);
        let mut table = Iblt::with_cells(cells, &cfg);
        let mut reference = RefIblt::new(cells, &cfg);
        for _ in 0..inserts {
            let x = rng.next_u64();
            table.insert_u64(x);
            reference.apply(&padded(x, key_bytes), 1);
        }

        let mut form = vec![0xEE];
        table.write_key_form(max_count, &mut form);
        prop_assert_eq!(&form[1..], &reference.key_form(count_width)[..]);
        let form = form.split_off(1);
        prop_assert_eq!(form.len(), cfg.key_form_len(cells, max_count));
        prop_assert_eq!(form.len(), cells * (count_width + key_bytes + [8, 4][usize::from(key_bytes == 8)]));

        let mut back = Iblt::with_cells(cells, &cfg);
        back.insert_u64(seed);
        back.read_key_form(max_count, &form).unwrap();
        prop_assert_eq!(&back, &table);

        prop_assert!(back.read_key_form(max_count, &form[1..]).is_err());
        prop_assert!(back.read_key_form(max_count, &[&form[..], &[0]].concat()).is_err());
        prop_assert!(Iblt::with_cells(cells + hash_count, &cfg).read_key_form(max_count, &form).is_err());
        let mut forged = form.clone();
        forged[..count_width].copy_from_slice(&max_count.to_le_bytes()[..count_width]);
        prop_assert!(back.read_key_form(max_count, &forged).is_ok());
        // 256 in the one byte of `max_count = 255` is a 0.
        forged[..count_width].copy_from_slice(&(max_count + 1).to_le_bytes()[..count_width]);
        prop_assert_eq!(max_count == 255, back.read_key_form(max_count, &forged).is_ok());
    }

    /// `rem_fixed` is `%`, whichever of its two paths a divisor takes.
    #[test]
    fn rem_fixed_matches_the_remainder_operator(x in any::<u64>(), d in any::<u64>()) {
        let d = d.max(1);
        prop_assert_eq!(rem_fixed(x, d), x % d);
        for edge in [1, 2, 3, 1 << 31, (1 << 31) + 1, 1 << 63, (1 << 63) + 1, u64::MAX] {
            prop_assert_eq!(rem_fixed(x, edge), x % edge);
            prop_assert_eq!(rem_fixed(edge, d), edge % d);
        }
        let power = 1u64 << (d % 64);
        prop_assert_eq!(rem_fixed(x, power), x % power);
    }
}

// ---------------------------------------------------------------------------
// Decode rescue vs ground truth
// ---------------------------------------------------------------------------

/// A reconciliation instance straddling the peeling threshold: a subtracted
/// table holding `d_pos + d_neg` difference keys over `num_shared` cancelled
/// ones, at `factor_pct`% cells per difference. Returns the table (built with
/// `cfg`), Bob's full key list and the sorted ground-truth difference.
fn rescue_instance(
    cfg: &IbltConfig,
    num_shared: usize,
    d_pos: usize,
    d_neg: usize,
    factor_pct: usize,
    seed: u64,
) -> (Iblt, Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = Xoshiro256::new(seed ^ 0x7E5C);
    let mut next = || rng.next_u64() >> 1;
    let shared: Vec<u64> = (0..num_shared).map(|_| next()).collect();
    let alice_extra: Vec<u64> = (0..d_pos).map(|_| next()).collect();
    let bob_extra: Vec<u64> = (0..d_neg).map(|_| next()).collect();
    let cells = ((d_pos + d_neg) * factor_pct).div_ceil(100).max(6);
    let mut table = Iblt::with_cells(cells, cfg);
    for &x in shared.iter().chain(&alice_extra) {
        table.insert_u64(x);
    }
    let bob: Vec<u64> = shared.iter().chain(&bob_extra).copied().collect();
    for &x in &bob {
        table.delete_u64(x);
    }
    let mut pos = alice_extra;
    let mut neg = bob_extra;
    pos.sort_unstable();
    neg.sort_unstable();
    (table, bob, pos, neg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The decode-rescue pipeline, fed the decoder's own keys as candidates:
    /// whatever it recovers is the exact ground-truth difference — it never
    /// invents a key, never flips a sign — and it strictly dominates the pure
    /// peel (every instance the peel completes, the rescue completes too).
    #[test]
    fn rescue_recovers_ground_truth_or_fails_cleanly(
        num_shared in 20usize..300,
        d_pos in 0usize..10,
        d_neg in 0usize..24,
        factor_pct in 100usize..170,
        stash in 0usize..4,
        hash_sel in 0usize..2,
        seed in any::<u64>(),
    ) {
        let cfg = IbltConfig::for_u64_keys(seed ^ 0x3C5)
            .with_hash_count(3 + hash_sel)
            .with_stash_cells(stash);
        let (mut table, bob, want_pos, want_neg) =
            rescue_instance(&cfg, num_shared, d_pos, d_neg, factor_pct, seed);
        let (mut peel_table, _, _, _) = rescue_instance(
            &cfg.with_rescue(None), num_shared, d_pos, d_neg, factor_pct, seed);
        let peeled = peel_table.decode_in_place();

        let decoded = table.decode_in_place_with_candidates_u64(bob.iter().copied());
        // Partial recoveries are still sound: every reported key is a real
        // difference key with the right sign.
        let mut got_pos = decoded.positive_u64();
        let mut got_neg = decoded.negative_u64();
        got_pos.sort_unstable();
        got_neg.sort_unstable();
        prop_assert!(got_pos.iter().all(|x| want_pos.binary_search(x).is_ok()));
        prop_assert!(got_neg.iter().all(|x| want_neg.binary_search(x).is_ok()));
        if decoded.complete {
            prop_assert_eq!(got_pos, want_pos);
            prop_assert_eq!(got_neg, want_neg);
            prop_assert!(table.is_empty());
        }
        // Strict domination: rescue completes at least wherever the peel does.
        if peeled.complete {
            prop_assert!(decoded.complete);
        }
    }

    /// A corrupted table must never be decoded into wrong keys: flip one bit
    /// of the serialized cell bank and the decode — peel and rescue alike —
    /// either reports incomplete or recovers only genuine difference keys. It
    /// can never report a clean finish, because no subset of keys with valid
    /// check sums explains a single flipped bit.
    #[test]
    fn rescue_never_accepts_keys_from_corrupted_cells(
        num_shared in 20usize..200,
        d_pos in 0usize..8,
        d_neg in 1usize..16,
        stash in 0usize..4,
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let cfg = IbltConfig::for_u64_keys(seed ^ 0x3C6)
            .with_hash_count(3)
            .with_stash_cells(stash);
        let (table, bob, want_pos, want_neg) =
            rescue_instance(&cfg, num_shared, d_pos, d_neg, 140, seed);
        let bytes = table.to_bytes();
        let header = header_len(&table);
        let mut corrupted = bytes.clone();
        let pos = header + (flip as usize) % (bytes.len() - header);
        corrupted[pos] ^= 1 << (flip % 8) as u8;

        // A flipped continuation bit in the count plane is caught by the parser.
        let Ok(mut reparsed) = Iblt::from_bytes(&corrupted) else { return Ok(()) };
        reparsed.adopt_layout(&cfg).unwrap();
        let decoded = reparsed.decode_in_place_with_candidates_u64(bob.iter().copied());
        prop_assert!(!decoded.complete, "a flipped bit can never drain to zero");
        let got_pos = decoded.positive_u64();
        let got_neg = decoded.negative_u64();
        prop_assert!(got_pos.iter().all(|x| want_pos.binary_search(x).is_ok()));
        prop_assert!(got_neg.iter().all(|x| want_neg.binary_search(x).is_ok()));
    }
}
