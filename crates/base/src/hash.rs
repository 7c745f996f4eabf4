//! Hash families used by the reconciliation protocols.
//!
//! The paper relies on two kinds of hashing, both realized here:
//!
//! * **Strong 64-bit mixing** ([`hash64`], [`hash_bytes`]) for IBLT bucket selection,
//!   checksums and the ℓ0 estimator's one mix per key. These need to behave like
//!   random functions on the keys actually inserted; we use a Murmur3/SplitMix-style
//!   finalizer for integers and a simple multiply-rotate scheme (an FxHash/wyhash
//!   hybrid) for byte strings.
//! * **Composite hashing of sets** ([`hash_u64_set`]) — an order-independent hash of
//!   a set of 64-bit elements, used to ward against IBLT checksum failures by
//!   verifying a recovered set against a hash of the original (Section 2, "we often
//!   ward against checksum failures by augmenting the set recovery process with a
//!   hash of each of the sets").

/// The Mersenne prime `2^61 − 1`, the characteristic of `recon-field`'s prime field.
pub const MERSENNE61: u64 = (1u64 << 61) - 1;

/// Reduce a 128-bit product modulo `2^61 − 1` using the Mersenne structure.
#[inline]
pub fn mod_mersenne61(x: u128) -> u64 {
    // Split into low 61 bits and the rest; since 2^61 ≡ 1 (mod p) this folds quickly.
    let lo = (x & ((1u128 << 61) - 1)) as u64;
    let hi = (x >> 61) as u64;
    let mut r = lo.wrapping_add(hi & MERSENNE61).wrapping_add(hi >> 61);
    if r >= MERSENNE61 {
        r -= MERSENNE61;
    }
    if r >= MERSENNE61 {
        r -= MERSENNE61;
    }
    r
}

/// `x % d` for a divisor that is fixed per table and often a power of two (the
/// partitions of small IBLTs): those take a mask, every other divisor the
/// hardware divide.
#[inline]
pub fn rem_fixed(x: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        x & (d - 1)
    } else {
        x % d
    }
}

/// Strong 64-bit integer mixing (SplitMix64 finalizer seeded by `seed`).
///
/// Used wherever the protocols need a hash that behaves like a random function on the
/// inserted keys: IBLT bucket selection, checksums, signature hashing.
#[inline]
pub fn hash64(x: u64, seed: u64) -> u64 {
    let mut z = x ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary byte string to 64 bits with the given seed.
///
/// A simple multiply–rotate–xor scheme processing 8 bytes at a time, finished with the
/// SplitMix64 finalizer. Not cryptographic, but well-distributed on the structured
/// keys used here (serialized IBLTs, encoded sets, signature strings). Inline so the
/// IBLT hot loops can specialize it for their short fixed key widths: on an 8-byte
/// array it compiles to the loop-free single-word form.
#[inline]
pub fn hash_bytes(bytes: &[u8], seed: u64) -> u64 {
    hash_bytes_lanes(bytes, [seed])[0]
}

/// [`hash_bytes`] under `N` seeds in one pass over `bytes`: each word is loaded
/// once and folded into every state. Lane `i` equals `hash_bytes(bytes,
/// seeds[i])`; the IBLT takes a key's partition hash and check-sum this way.
#[inline]
pub fn hash_bytes_lanes<const N: usize>(bytes: &[u8], seeds: [u64; N]) -> [u64; N] {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let mut h = seeds.map(|seed| seed ^ (bytes.len() as u64).wrapping_mul(K));
    let mut fold = |v: u64| {
        for lane in &mut h {
            *lane = (*lane ^ v).rotate_left(29).wrapping_mul(K);
        }
    };
    let (chunks, rem) = bytes.as_chunks::<8>();
    for chunk in chunks {
        fold(u64::from_le_bytes(*chunk));
    }
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        fold(u64::from_le_bytes(buf));
    }
    std::array::from_fn(|lane| hash64(h[lane], seeds[lane] ^ 0xA5A5_A5A5_5A5A_5A5A))
}

/// Order-independent hash of a set of 64-bit elements.
///
/// Each element is mixed with [`hash64`] and the results are combined with addition
/// and XOR, so the hash does not depend on iteration order. Used as the whole-set
/// hash that guards against undetected checksum failures (Section 2) and as the child
/// set hash in the set-of-sets protocols.
pub fn hash_u64_set<I>(elements: I, seed: u64) -> u64
where
    I: IntoIterator<Item = u64>,
{
    let mut sum: u64 = 0;
    let mut xor: u64 = 0;
    let mut count: u64 = 0;
    for x in elements {
        let h = hash64(x, seed);
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(17);
        count += 1;
    }
    hash64(sum ^ xor.rotate_left(23) ^ count.wrapping_mul(0x2545_F491_4F6C_DD1D), seed)
}

/// Incrementally maintained [`hash_u64_set`] state.
///
/// The set hash folds per-element mixes with addition and XOR, both of which are
/// invertible, so a long-lived store can keep `(sum, xor, count)` as running state
/// and update it in O(1) per insert or delete. [`SetHasher::finish`] is pinned (by
/// unit test) to equal `hash_u64_set` over the surviving elements, whatever the
/// interleaving of inserts and removes that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetHasher {
    seed: u64,
    sum: u64,
    xor: u64,
    count: u64,
}

impl SetHasher {
    /// An empty set's hash state under `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, sum: 0, xor: 0, count: 0 }
    }

    /// Number of elements folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold element `x` into the set.
    #[inline]
    pub fn insert(&mut self, x: u64) {
        let h = hash64(x, self.seed);
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left(17);
        self.count += 1;
    }

    /// Fold element `x` out of the set (exact inverse of [`SetHasher::insert`]).
    #[inline]
    pub fn remove(&mut self, x: u64) {
        let h = hash64(x, self.seed);
        self.sum = self.sum.wrapping_sub(h);
        self.xor ^= h.rotate_left(17);
        self.count -= 1;
    }

    /// The set hash of the current contents; equals [`hash_u64_set`] of the same
    /// elements under the same seed.
    pub fn finish(&self) -> u64 {
        hash64(
            self.sum ^ self.xor.rotate_left(23) ^ self.count.wrapping_mul(0x2545_F491_4F6C_DD1D),
            self.seed,
        )
    }
}

/// Truncate a 64-bit hash to `bits` bits (used for the `O(log s)`-bit child hashes).
#[inline]
pub fn truncate_bits(h: u64, bits: u32) -> u64 {
    if bits >= 64 {
        h
    } else {
        h & ((1u64 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mod_mersenne_agrees_with_naive() {
        for x in [0u128, 1, 5, 1 << 61, (1 << 61) - 1, u64::MAX as u128, u128::MAX >> 3] {
            assert_eq!(mod_mersenne61(x), (x % (MERSENNE61 as u128)) as u64, "x = {x}");
        }
    }

    #[test]
    fn hash64_avalanche() {
        // Flipping one input bit should flip roughly half the output bits on average.
        let mut total = 0u32;
        let samples = 256;
        for i in 0..samples {
            let x = hash64(i, 0) ^ i; // arbitrary input
            let a = hash64(x, 42);
            let b = hash64(x ^ 1, 42);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / samples as f64;
        assert!((20.0..44.0).contains(&avg), "avalanche average {avg}");
    }

    #[test]
    fn hash_bytes_depends_on_content_and_length() {
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abd", 0));
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abc\0", 0));
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abc", 1));
        assert_eq!(hash_bytes(b"hello world", 9), hash_bytes(b"hello world", 9));
    }

    #[test]
    fn hash_bytes_handles_all_lengths() {
        let data: Vec<u8> = (0..64).collect();
        let mut seen = HashSet::new();
        for len in 0..=64 {
            assert!(seen.insert(hash_bytes(&data[..len], 5)), "collision at len {len}");
        }
    }

    #[test]
    fn set_hash_is_order_independent() {
        let a = hash_u64_set([1u64, 2, 3, 500, 9999], 77);
        let b = hash_u64_set([9999u64, 500, 3, 2, 1], 77);
        assert_eq!(a, b);
    }

    #[test]
    fn set_hash_distinguishes_sets() {
        let a = hash_u64_set([1u64, 2, 3], 77);
        let b = hash_u64_set([1u64, 2, 4], 77);
        let c = hash_u64_set([1u64, 2], 77);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn set_hash_of_empty_set_is_stable() {
        assert_eq!(hash_u64_set(std::iter::empty(), 3), hash_u64_set(std::iter::empty(), 3));
        assert_ne!(hash_u64_set(std::iter::empty(), 3), hash_u64_set([0u64], 3));
    }

    #[test]
    fn set_hasher_matches_batch_hash_under_churn() {
        // Arbitrary insert/remove history: the incremental state must land exactly
        // on hash_u64_set of the surviving elements.
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut hasher = SetHasher::new(seed);
            let mut live: HashSet<u64> = HashSet::new();
            let mut x = 0x1234_5678u64;
            for step in 0..500u64 {
                x = hash64(x, step);
                let key = x >> 8;
                if step % 3 == 2 && !live.is_empty() {
                    let victim = *live.iter().next().unwrap();
                    live.remove(&victim);
                    hasher.remove(victim);
                } else if live.insert(key) {
                    hasher.insert(key);
                }
                assert_eq!(
                    hasher.finish(),
                    hash_u64_set(live.iter().copied(), seed),
                    "diverged at step {step} (seed {seed})"
                );
            }
            assert_eq!(hasher.count(), live.len() as u64);
        }
    }

    #[test]
    fn truncate_bits_masks_correctly() {
        assert_eq!(truncate_bits(u64::MAX, 8), 255);
        assert_eq!(truncate_bits(u64::MAX, 64), u64::MAX);
        assert_eq!(truncate_bits(0b1011, 2), 0b11);
    }
}
