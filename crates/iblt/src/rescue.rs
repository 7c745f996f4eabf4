//! The GF(2) decode-rescue pipeline: finish a stalled peel algebraically.
//!
//! A peeling failure leaves a residual system: every non-empty cell is the
//! XOR of the `(key ‖ checksum)` vectors of the keys still hashed to it, plus
//! a signed count. Peeling can only make progress on cells holding exactly
//! one key; the rescue makes progress on *any* cell it can fully explain as a
//! subset of candidate keys:
//!
//! 1. **Candidates.** The decoder usually knows most keys that can appear on
//!    the negative side — in set reconciliation Bob deleted his own elements,
//!    so every negative key is one of his. Candidates whose cells are all
//!    non-empty are collected (sorted, deduplicated, capped by the
//!    [`DecodeBudget`]). On top of that, the residual cells themselves are
//!    Gaussian-reduced ([`SubsetXorSolver`] basis rows): a reduced row whose
//!    checksum segment matches the checksum of its key segment is a key the
//!    2-core *forces*, and joins the pool with unknown sign.
//! 2. **Per-cell subset solve.** For each residual cell, the candidates
//!    hashed to it form a subset-XOR system over `8·key_bytes + 64` bits
//!    (the top 32 are zero for keys of at most 8 bytes). A *unique* solution
//!    whose signs are forced by the cell's count (`Σ sign = count`) is
//!    accepted: over-determination by the checksum plane makes a false
//!    acceptance as unlikely as a checksum collision in the peel itself.
//! 3. **Alternate with peeling.** Accepted keys are removed from the whole
//!    table, which typically re-opens ordinary peeling; the loop alternates
//!    solve and peel rounds until the table drains or a round makes no
//!    progress.
//!
//! Everything is bounded by the [`DecodeBudget`] threaded through
//! [`IbltConfig`](crate::IbltConfig); `IbltConfig::with_rescue(None)` turns the
//! whole pipeline off for a table. The [`decode_rescues`]/[`rescue_failures`]
//! process counters let tests and daemons observe how often the solver saves a
//! session.

use crate::table::{DecodeResult, Iblt};
use recon_field::{BitVec, SubsetSolution, SubsetXorSolver};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of decodes completed by the rescue solver after the
/// peel stalled (the sessions the solver saved).
static DECODE_RESCUES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of rescue attempts that still could not complete the
/// decode (the table stayed non-empty and the caller saw a peeling failure).
static RESCUE_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Number of stalled decodes the rescue solver has completed in this process.
pub fn decode_rescues() -> u64 {
    DECODE_RESCUES.load(Ordering::Relaxed)
}

/// Number of rescue attempts in this process that failed to complete a decode.
pub fn rescue_failures() -> u64 {
    RESCUE_FAILURES.load(Ordering::Relaxed)
}

/// Bounds on the work the rescue solver may spend on one stalled decode.
///
/// The defaults are sized so a rescue costs at most a few hundred
/// microseconds — far below the retransmission it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeBudget {
    /// Rescue only when the peel left at most this many non-empty cells
    /// (a genuinely overloaded table is not worth solving).
    pub max_residual_cells: usize,
    /// Cap on the candidate pool (after filtering to keys whose cells are all
    /// non-empty, sorting and deduplicating).
    pub max_candidates: usize,
    /// Maximum solve → peel alternations before giving up.
    pub max_rounds: usize,
}

impl Default for DecodeBudget {
    fn default() -> Self {
        // The candidate cap is deliberately generous: for large shared sets
        // many keys pass the plausibility filter by chance, and a tight cap
        // would crowd the true candidates out of the pool. The real work
        // bound is per cell (at most 64 generators per subset solve).
        Self { max_residual_cells: 128, max_candidates: 8192, max_rounds: 8 }
    }
}

/// The candidate pool: keys that may explain residual cells.
struct Pool {
    key_bytes: usize,
    /// Flat key storage at stride `key_bytes`.
    keys: Vec<u8>,
    checksums: Vec<u64>,
    /// `Some(±1)` when the caller knows the key's side (negative candidates
    /// from the decoder's own set), `None` for keys discovered by basis
    /// isolation (the cell count equations must then force the sign).
    signs: Vec<Option<i64>>,
    /// Cell indices of each candidate.
    cells: Vec<Vec<usize>>,
    used: Vec<bool>,
}

impl Pool {
    fn new(key_bytes: usize) -> Self {
        Self {
            key_bytes,
            keys: Vec::new(),
            checksums: Vec::new(),
            signs: Vec::new(),
            cells: Vec::new(),
            used: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.signs.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        &self.keys[i * self.key_bytes..(i + 1) * self.key_bytes]
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        (0..self.len()).any(|i| self.key(i) == key)
    }

    fn push(&mut self, key: &[u8], checksum: u64, sign: Option<i64>, cells: Vec<usize>) {
        self.keys.extend_from_slice(key);
        self.checksums.push(checksum);
        self.signs.push(sign);
        self.cells.push(cells);
        self.used.push(false);
    }
}

/// `(key ‖ checksum)` as a GF(2) vector, reusing `scratch`.
fn cell_vector(key_sum: &[u8], check_sum: u64, scratch: &mut Vec<u8>) -> BitVec {
    scratch.clear();
    scratch.extend_from_slice(key_sum);
    scratch.extend_from_slice(&check_sum.to_le_bytes());
    BitVec::from_bytes(scratch)
}

/// Try to finish a stalled decode. `table` must already be peeled (and
/// non-empty); `negative_candidates` are keys the caller knows may appear on
/// the negative side. Updates the process counters and returns `true` when
/// the table was drained.
pub(crate) fn rescue_in_place(
    table: &mut Iblt,
    result: &mut DecodeResult,
    negative_candidates: &[&[u8]],
    budget: DecodeBudget,
) -> bool {
    debug_assert!(!table.is_empty());
    let kb = table.key_bytes();
    let dim = kb * 8 + 64;
    let mut scratch = Vec::with_capacity(kb + 8);
    let mut pool = Pool::new(kb);
    let mut seeded = false;

    for _round in 0..budget.max_rounds.max(1) {
        let residual = table.nonempty_cell_indices();
        if residual.is_empty() {
            break;
        }
        if residual.len() > budget.max_residual_cells {
            RESCUE_FAILURES.fetch_add(1, Ordering::Relaxed);
            return false;
        }

        if !seeded {
            seeded = true;
            seed_pool(table, &mut pool, negative_candidates, budget.max_candidates);
        } else {
            // Re-apply the plausibility filter: a candidate one of whose cells
            // has since drained cannot be present, and retiring it sharpens
            // the remaining subset solves (false candidates are what pushes a
            // cell past the generator bound or into ambiguity).
            for i in 0..pool.len() {
                if !pool.used[i] && pool.cells[i].iter().any(|&c| table.cell_is_empty(c)) {
                    pool.used[i] = true;
                }
            }
        }
        discover_candidates(table, &residual, &mut pool, dim, &mut scratch);

        // Per-cell subset solve over the candidates hashed to each cell.
        let mut progress = false;
        for &cell in &residual {
            if table.cell_is_empty(cell) {
                continue; // drained by an earlier acceptance this round
            }
            let gens: Vec<usize> = (0..pool.len())
                .filter(|&i| !pool.used[i] && pool.cells[i].contains(&cell))
                .collect();
            if gens.is_empty() || gens.len() > 64 {
                continue;
            }
            let mut solver = SubsetXorSolver::new(dim, gens.len());
            for &g in &gens {
                let v = cell_vector(pool.key(g), pool.checksums[g], &mut scratch);
                solver.add_generator(&v);
            }
            let target =
                cell_vector(table.cell_key_sum(cell), table.cell_check_sum(cell), &mut scratch);
            let SubsetSolution::Unique(subset) = solver.solve(&target) else {
                continue; // ambiguous or inconsistent: never guess
            };
            if subset.is_empty() {
                continue; // a non-empty cell is never explained by nothing
            }
            let members: Vec<usize> = subset.into_iter().map(|s| gens[s]).collect();
            let Some(resolved) = resolve_signs(&pool, &members, table.cell_count(cell)) else {
                continue;
            };
            for (member, sign) in resolved {
                let key = pool.key(member).to_vec();
                table.remove_rescued(&key, pool.checksums[member], sign);
                if sign > 0 {
                    result.positive.push(key);
                } else {
                    result.negative.push(key);
                }
                pool.used[member] = true;
            }
            progress = true;
        }

        table.peel_in_place(result);
        if table.is_empty() {
            break;
        }
        if !progress {
            break;
        }
    }

    if table.is_empty() {
        DECODE_RESCUES.fetch_add(1, Ordering::Relaxed);
        true
    } else {
        RESCUE_FAILURES.fetch_add(1, Ordering::Relaxed);
        false
    }
}

/// Filter the caller's candidates down to keys whose cells are all non-empty,
/// deterministically (sorted by key bytes, deduplicated, capped), and load
/// them into the pool with known sign −1.
fn seed_pool(table: &Iblt, pool: &mut Pool, negative_candidates: &[&[u8]], cap: usize) {
    let mut plausible: Vec<&[u8]> = negative_candidates
        .iter()
        .copied()
        .filter(|key| {
            let cells = table.key_cells(key);
            cells.iter().all(|&c| !table.cell_is_empty(c))
        })
        .collect();
    // The caller may hand over an arbitrarily-ordered set (e.g. a HashSet
    // iterator); sort so the pool — and therefore the decode outcome — is
    // identical across processes and runs.
    plausible.sort_unstable();
    plausible.dedup();
    plausible.truncate(cap);
    for key in plausible {
        let cells = table.key_cells(key);
        pool.push(key, table.key_checksum(key), Some(-1), cells);
    }
}

/// Candidate-free discovery: Gaussian-reduce the residual cell vectors and
/// adopt any basis row that checksums as a single key (unknown sign).
fn discover_candidates(
    table: &Iblt,
    residual: &[usize],
    pool: &mut Pool,
    dim: usize,
    scratch: &mut Vec<u8>,
) {
    let kb = table.key_bytes();
    let mut solver = SubsetXorSolver::new(dim, residual.len());
    for &cell in residual {
        let v = cell_vector(table.cell_key_sum(cell), table.cell_check_sum(cell), scratch);
        solver.add_generator(&v);
    }
    let rows: Vec<BitVec> = solver.basis_rows().cloned().collect();
    for row in rows {
        let key = row.to_bytes(kb);
        let check = u64::from_le_bytes(row.to_bytes(kb + 8)[kb..].try_into().expect("8 bytes"));
        if table.key_checksum(&key) != check || pool.contains_key(&key) {
            continue;
        }
        let cells = table.key_cells(&key);
        if cells.iter().any(|&c| table.cell_is_empty(c)) {
            continue; // a present key cannot touch an empty cell
        }
        pool.push(&key, check, None, cells);
    }
}

/// Resolve the signs of `members` against the cell's count equation
/// `Σ sign = count`. Returns the members with concrete signs only when every
/// sign is forced; otherwise `None`.
fn resolve_signs(pool: &Pool, members: &[usize], count: i64) -> Option<Vec<(usize, i64)>> {
    let known: i64 = members.iter().filter_map(|&m| pool.signs[m]).sum();
    let unknown: Vec<usize> =
        members.iter().copied().filter(|&m| pool.signs[m].is_none()).collect();
    let rhs = count - known;
    let sign_of_unknowns = if unknown.is_empty() {
        if rhs != 0 {
            return None; // the known signs do not add up to the count
        }
        0
    } else if rhs == unknown.len() as i64 {
        1 // every unknown key is on the positive side
    } else if rhs == -(unknown.len() as i64) {
        -1 // every unknown key is on the negative side
    } else {
        return None; // mixed signs would not be forced: never guess
    };
    Some(members.iter().map(|&m| (m, pool.signs[m].unwrap_or(sign_of_unknowns))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::IbltConfig;
    use recon_base::rng::Xoshiro256;

    /// A subtracted table holding `d_pos` positive and `d_neg` negative keys on
    /// top of `n` shared (cancelled) ones, plus Bob's full key list (the
    /// candidate pool) and the ground-truth difference, sorted.
    fn diff_scenario(
        n: usize,
        d_pos: usize,
        d_neg: usize,
        cells: usize,
        cfg: &IbltConfig,
        seed: u64,
    ) -> (Iblt, Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut rng = Xoshiro256::new(seed);
        let mut next = || rng.next_u64() >> 1;
        let shared: Vec<u64> = (0..n).map(|_| next()).collect();
        let alice_extra: Vec<u64> = (0..d_pos).map(|_| next()).collect();
        let bob_extra: Vec<u64> = (0..d_neg).map(|_| next()).collect();
        let mut table = Iblt::with_cells(cells, cfg);
        for &x in shared.iter().chain(&alice_extra) {
            table.insert_u64(x);
        }
        let bob: Vec<u64> = shared.iter().chain(&bob_extra).copied().collect();
        for &x in &bob {
            table.delete_u64(x);
        }
        (table, sorted(alice_extra), sorted(bob_extra), bob)
    }

    fn sorted(mut keys: Vec<u64>) -> Vec<u64> {
        keys.sort_unstable();
        keys
    }

    #[test]
    fn rescue_saves_most_stalled_peels_and_counts_them() {
        // Size the table right at the peeling wall so a healthy fraction of
        // seeds stall, then check the rescue finishes them with the decoder's
        // own keys as candidates — and that what it recovers is exactly the
        // ground-truth difference, every time.
        let mut stalled = 0u32;
        let mut saved = 0u32;
        for seed in 0..80u64 {
            let cfg = IbltConfig::for_u64_keys(seed ^ 0xD15C).with_hash_count(3);
            let peel_cfg = cfg.with_rescue(None);
            let (mut peel_table, _, _, _) = diff_scenario(300, 6, 18, 27, &peel_cfg, seed);
            if peel_table.decode_in_place().complete {
                continue;
            }
            stalled += 1;
            let (mut table, pos, neg, bob) = diff_scenario(300, 6, 18, 27, &cfg, seed);
            let rescues_before = decode_rescues();
            let decoded = table.decode_in_place_with_candidates_u64(bob.iter().copied());
            if !decoded.complete {
                continue;
            }
            saved += 1;
            assert!(table.is_empty(), "complete decode drains the table");
            assert!(decode_rescues() > rescues_before, "rescue counter must move");
            assert_eq!(sorted(decoded.positive_u64()), pos, "seed {seed}");
            assert_eq!(sorted(decoded.negative_u64()), neg, "seed {seed}");
        }
        assert!(stalled >= 10, "scenario must straddle the peeling wall, stalled {stalled}");
        assert!(saved * 10 >= stalled * 7, "rescue saved {saved}/{stalled} stalls");
    }

    #[test]
    fn rescue_never_loses_to_the_pure_peel_and_never_returns_a_wrong_set() {
        // d = 64 over 1 000 shared keys at 1.1×…1.5× cells per difference, the
        // sweep the tuned layout was calibrated on: the rescue-enabled decode
        // of an instance completes whenever its peel-only twin does, and a
        // complete decode is the ground-truth difference.
        for cells in [71, 77, 84, 90, 96] {
            for seed in 0..40u64 {
                let cfg = IbltConfig::for_u64_keys(seed ^ 0x512E).with_hash_count(3);
                let (mut peel_table, _, _, _) =
                    diff_scenario(1_000, 16, 48, cells, &cfg.with_rescue(None), seed);
                let (mut table, pos, neg, bob) = diff_scenario(1_000, 16, 48, cells, &cfg, seed);
                let decoded = table.decode_in_place_with_candidates_u64(bob.iter().copied());
                if !decoded.complete {
                    assert!(!peel_table.decode_in_place().complete, "{cells} cells, seed {seed}");
                    continue;
                }
                assert_eq!(sorted(decoded.positive_u64()), pos, "{cells} cells, seed {seed}");
                assert_eq!(sorted(decoded.negative_u64()), neg, "{cells} cells, seed {seed}");
            }
        }
    }

    #[test]
    fn tuned_digest_at_d_64_is_a_quarter_smaller_than_classic() {
        let classic = IbltConfig::for_u64_keys(0);
        let tuned = IbltConfig::tuned_for_u64_keys(0);
        assert_eq!(classic.serialized_len(classic.total_cells_for(64)), 1884);
        assert_eq!(tuned.serialized_len(tuned.total_cells_for(64)), 1415);
    }

    #[test]
    fn hopeless_rescue_increments_failure_counter() {
        // Way more differences than cells, and no candidates: the rescue must
        // give up, report incomplete, and count the failure.
        let cfg = IbltConfig::for_u64_keys(3).with_hash_count(3);
        let (mut table, _, _, _) = diff_scenario(50, 40, 0, 9, &cfg, 17);
        let failures_before = rescue_failures();
        let decoded = table.decode_in_place_with_candidates_u64(std::iter::empty());
        assert!(!decoded.complete);
        assert!(rescue_failures() > failures_before);
    }

    #[test]
    fn disabling_rescue_in_config_restores_pure_peeling() {
        // With `rescue: None` the candidates are never even materialized and a
        // stalled peel stays stalled.
        let mut found_stall = false;
        for seed in 0..80u64 {
            let cfg = IbltConfig::for_u64_keys(seed ^ 0xD15C).with_hash_count(3).with_rescue(None);
            let (mut table, _, _, bob) = diff_scenario(300, 6, 18, 27, &cfg, seed);
            let reference = table.clone();
            let decoded = table.decode_in_place_with_candidates_u64(bob.iter().copied());
            let mut twin = reference.clone();
            let plain = twin.decode_in_place();
            assert_eq!(decoded.complete, plain.complete, "seed {seed}");
            if !plain.complete {
                found_stall = true;
            }
        }
        assert!(found_stall, "scenario must stall at least once for the test to bite");
    }

    #[test]
    fn sign_resolution_never_guesses() {
        let mut pool = Pool::new(8);
        pool.push(&[1; 8], 11, Some(-1), vec![0, 1, 2]);
        pool.push(&[2; 8], 22, None, vec![0, 3, 4]);
        pool.push(&[3; 8], 33, None, vec![0, 5, 6]);
        // Two unknowns summing with one known −1 to rhs +1: mixed signs would
        // be needed, which is not forced — must refuse.
        assert_eq!(resolve_signs(&pool, &[0, 1, 2], 0), None);
        // rhs = +2 forces both unknowns positive.
        let resolved = resolve_signs(&pool, &[0, 1, 2], 1).unwrap();
        assert_eq!(resolved, vec![(0, -1), (1, 1), (2, 1)]);
        // Known signs alone must match the count exactly.
        assert_eq!(resolve_signs(&pool, &[0], -1), Some(vec![(0, -1)]));
        assert_eq!(resolve_signs(&pool, &[0], 1), None);
    }
}
