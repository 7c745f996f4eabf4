//! Fixed-width kernels over the flat cell bank.
//!
//! The bulk operations on an IBLT — cell-wise subtract/add of two tables and the
//! XOR of their key-sum and checksum banks — are straight passes over contiguous
//! buffers, so they are written here as explicit chunked loops: four 64-bit lanes
//! (one 256-bit vector) per step, with a scalar tail. The loops are safe code that
//! LLVM auto-vectorizes at whatever width the target baseline allows; XOR and
//! two's-complement wrapping addition are lane-exact, so the result does not depend
//! on that width.
//!
//! The kernels are `#[inline(never)]`: as stand-alone functions over two slice
//! arguments they vectorize; inlined into `Iblt::subtract_assign` they did not,
//! and the wide-key subtract measured 65 ns per 227-byte cell instead of 6.2.

/// 64-bit lanes per chunk; one 256-bit vector.
const LANES: usize = 4;
/// Bytes per chunk in the byte-bank kernels.
const BYTE_LANES: usize = 32;

/// `dst[i] ^= src[i]` over a byte bank. Slices must have equal lengths.
#[inline(never)]
pub(crate) fn xor_bytes(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dr) = dst.as_chunks_mut::<BYTE_LANES>();
    let (sc, sr) = src.as_chunks::<BYTE_LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..BYTE_LANES {
            d[lane] ^= s[lane];
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d ^= s;
    }
}

/// `dst[i] ^= src[i]` over a `u64` bank. Slices must have equal lengths.
#[inline(never)]
pub(crate) fn xor_u64(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dr) = dst.as_chunks_mut::<LANES>();
    let (sc, sr) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..LANES {
            d[lane] ^= s[lane];
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d ^= s;
    }
}

/// `dst[i] = dst[i].wrapping_add(src[i])` over an `i64` bank (counts never come
/// near the wrap in practice; wrapping keeps the lanes exact at any vector width).
#[inline(never)]
pub(crate) fn add_i64(dst: &mut [i64], src: &[i64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dr) = dst.as_chunks_mut::<LANES>();
    let (sc, sr) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..LANES {
            d[lane] = d[lane].wrapping_add(s[lane]);
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d = d.wrapping_add(*s);
    }
}

/// `dst[i] = dst[i].wrapping_sub(src[i])` over an `i64` bank.
#[inline(never)]
pub(crate) fn sub_i64(dst: &mut [i64], src: &[i64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dr) = dst.as_chunks_mut::<LANES>();
    let (sc, sr) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..LANES {
            d[lane] = d[lane].wrapping_sub(s[lane]);
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d = d.wrapping_sub(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, salt: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
    }

    #[test]
    fn xor_bytes_matches_naive_at_odd_lengths() {
        for n in [0usize, 1, 7, 31, 32, 33, 64, 97, 1024, 1037] {
            let mut dst = bytes(n, 3);
            let src = bytes(n, 11);
            let expected: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            xor_bytes(&mut dst, &src);
            assert_eq!(dst, expected, "n = {n}");
        }
    }

    #[test]
    fn u64_and_i64_kernels_match_naive_at_odd_lengths() {
        for n in [0usize, 1, 3, 4, 5, 8, 13, 256, 259] {
            let mut xd: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let xs: Vec<u64> = (0..n as u64).map(|i| i.rotate_left(17) ^ 0xABCD).collect();
            let expected: Vec<u64> = xd.iter().zip(&xs).map(|(d, s)| d ^ s).collect();
            xor_u64(&mut xd, &xs);
            assert_eq!(xd, expected, "xor n = {n}");

            let mut ad: Vec<i64> = (0..n as i64).map(|i| i * 7 - 3).collect();
            let asrc: Vec<i64> = (0..n as i64).map(|i| i64::MAX - i * 11).collect();
            let add_expected: Vec<i64> =
                ad.iter().zip(&asrc).map(|(d, s)| d.wrapping_add(*s)).collect();
            let sub_expected: Vec<i64> =
                ad.iter().zip(&asrc).map(|(d, s)| d.wrapping_sub(*s)).collect();
            let mut sd = ad.clone();
            add_i64(&mut ad, &asrc);
            assert_eq!(ad, add_expected, "add n = {n}");
            sub_i64(&mut sd, &asrc);
            assert_eq!(sd, sub_expected, "sub n = {n}");
        }
    }
}
