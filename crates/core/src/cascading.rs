//! The cascading IBLTs-of-IBLTs protocol — Algorithm 2, Theorem 3.7 (known `d`) and
//! Corollary 3.8 (unknown `d`).
//!
//! The plain IBLT-of-IBLTs protocol sizes *every* child IBLT for the full per-child
//! bound `d`, even though only `O(1)` child sets can actually have `Ω(d)` changes,
//! `O(√d)` can have `Ω(√d)` changes, and so on. Algorithm 2 exploits this by sending
//! a *cascade* of outer tables `T_1, …, T_t` (`t = log₂ min(d, h)`): level `i` uses
//! child IBLTs with `O(2^i)` cells but an outer table with only `O(d / 2^i)` cells.
//! Children with small differences are recovered at the cheap early levels and
//! *deleted* from the later tables, so each level only has to carry the children
//! whose differences are too large for the previous levels. A final table `T_*` of
//! full fixed-width child encodings catches the stragglers. Communication
//! drops to `O(d log min(d, h) log u + d log s)` bits, still in one round.
//!
//! # Which levels are sent
//!
//! The digest carries a *cut* `first ..= last` of the paper's levels `1 … t`, the
//! ones that pay for themselves, and `T_*` for what the cut leaves out.
//!
//! * A level-`ℓ` child table has `c_ℓ = max(8, 2·2^ℓ)` cells, so levels 1 and 2
//!   are the same 8-cell sketch: the cascade **starts** at `first = 2`, the
//!   deepest level still at that floor. Its outer table is sized for all `≤ 2d`
//!   differing encodings and is where Bob learns his own differing children
//!   `D_B`; a level `ℓ` above it is sized for `2d >> (ℓ − 1)`, as in the paper.
//! * A level-`ℓ` child encoding is the child table's headerless
//!   [key form](Iblt::write_key_form) and the 8-byte child hash: `13·c_ℓ + 8`
//!   bytes while a count up to `h` fits a byte. The child written out in `T_*`
//!   is `2 + 8h`. An outer cell is its key, a count byte and an 8-byte check-sum.
//! * A level costs its outer table and buys a halving of `T_*`, which is sized
//!   for the `2d >> last` encodings the first level not sent would have held.
//!   The cascade **ends** at the `last ≤ t` for which the digest's tables, each
//!   at the cell count its configuration gives it, are the fewest bytes (the
//!   shortest cut among equals): a level whose key is narrower than the child
//!   is still not sent when `T_*` is at its 12-cell floor already, or when half
//!   of `T_*` is less than the level.
//! * `T_*` is present whenever `d ≥ h` or the cut dropped a level above `last`.
//!   It is load-bearing: a child with more changes than the last level's table
//!   holds, or whose child table did not peel, is recovered from `T_*` alone.
//!
//! At `h = 32`, `d = 64` sends level 2 (284 cells × 121 B) and `T_*` (72 cells ×
//! 267 B): level 3 would be 72 cells × 225 B to take 36 × 267 B off `T_*`. At
//! `h = 128`, `d = 128` sends levels 2–4 (keys of 112, 216 and 424 B) and a
//! 36-cell `T_*`: level 5's 840-byte key is narrower than the 1026-byte child,
//! but its 36 cells × 849 B would save 16 × 1035 B. At `h = 200`, `d = 256`
//! sends the same levels and a 72-cell `T_*`; level 5 would be 72 × 849 B
//! against 36 × 1611 B. Every level sent doubles the one below, so all child
//! tables share one seed and each is the half-fold of the next
//! ([`Iblt::fold_half_into`]): both sides walk each child once.

use crate::iblt_of_iblts::IbltOfIbltsProtocol;
use crate::types::{ChildSet, SetOfSets, SosParams};
use recon_base::wire::{write_uvarint, Claimed, Decode, Encode, WireError};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Alice's one-round message: the cascade of outer tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadingDigest {
    /// The total element-difference bound `d` the cascade was sized for.
    pub diff_bound: usize,
    /// The outer tables of the levels sent (see the module's "Which levels are
    /// sent"), lowest first; each level's child IBLTs have twice the cells of
    /// the one before.
    pub levels: Vec<Iblt>,
    /// The table `T_*` of full child encodings, present when `d ≥ h` or the cut
    /// dropped a level.
    pub fallback: Option<Iblt>,
    /// Hash of Alice's whole parent set, for end-to-end verification.
    pub parent_hash: u64,
    /// Number of child sets Alice holds.
    pub num_children: u64,
}

impl Encode for CascadingDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.diff_bound as u64);
        self.levels.encode(buf);
        self.fallback.encode(buf);
        self.parent_hash.encode(buf);
        self.num_children.encode(buf);
    }
}

impl Decode for CascadingDigest {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let diff_bound = Claimed::decode(buf)?;
        let levels = Vec::<Iblt>::decode(buf)?;
        // The first level has more than `2d` cells.
        let limit = levels.first().map_or(0, |first| first.cells() - 1);
        Ok(CascadingDigest {
            diff_bound: diff_bound.at_most(limit, "cascade difference bound")?,
            levels,
            fallback: Option::<Iblt>::decode(buf)?,
            parent_hash: u64::decode(buf)?,
            num_children: u64::decode(buf)?,
        })
    }
}

/// An outer table to be: its configuration and the differing encodings it is sized for.
type Sizing = (IbltConfig, usize);

/// The cascading IBLTs-of-IBLTs protocol (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadingProtocol {
    params: SosParams,
}

impl CascadingProtocol {
    /// Create a protocol instance from shared parameters.
    pub fn new(params: SosParams) -> Self {
        Self { params }
    }

    /// The paper's level count for a difference bound `d`:
    /// `t = max(1, ceil(log₂ min(d, h)))`.
    pub fn num_levels(&self, d: usize) -> usize {
        let cap = d.min(self.params.max_child_size).max(2);
        (usize::BITS - (cap - 1).leading_zeros()) as usize
    }

    /// `true` if the paper's cascade needs the fallback table `T_*` (its levels
    /// stop at `h` because `d ≥ h`).
    pub fn needs_fallback(&self, d: usize) -> bool {
        d >= self.params.max_child_size
    }

    /// Sizing of the child tables: 8/8/16/32/64… cells at levels 1, 2, 3, …
    /// Peel-only: a child difference that does not peel only means "try the
    /// next candidate" in the matching walk, so no trial pays for a rescue.
    fn child_sizing() -> IbltConfig {
        IbltConfig::for_u64_keys(0).with_cells_per_diff(2.0).with_min_cells(8).with_rescue(None)
    }

    fn level_child_cells(level: usize) -> usize {
        Self::child_sizing().cells_for(1usize << level)
    }

    /// The first level sent: the deepest whose child table is still at the
    /// floor of [`Self::child_sizing`], so every level from here doubles.
    fn first_level() -> usize {
        let floor = Self::level_child_cells(1);
        (1..).take_while(|&level| Self::level_child_cells(level) == floor).count()
    }

    /// The outer tables of a cascade for bound `d` that ends at level `last`,
    /// each as its configuration and the number of differing encodings it is
    /// sized for: the levels, lowest first — all `≤ 2d` at the first,
    /// `2d >> (ℓ − 1)` above it — and `T_*`, if it goes with them.
    fn sizing(&self, d: usize, last: usize) -> (Vec<Sizing>, Option<Sizing>) {
        let first = Self::first_level();
        let level = |level: usize| {
            let shift = if level == first { 0 } else { level - 1 };
            (self.level_outer_config(level), (d.saturating_mul(2) >> shift).max(4))
        };
        let fallback = (self.needs_fallback(d) || last < self.num_levels(d))
            .then(|| (self.fallback_config(), (d.saturating_mul(2) >> last).max(4)));
        ((first..=last).map(level).collect(), fallback)
    }

    /// Empty child tables for the first `levels` levels sent, lowest first, all
    /// under one seed: the table at `m` cells is the half-fold of the one at `2m`.
    fn child_tables(&self, levels: usize) -> Vec<Iblt> {
        let cfg = Self::child_sizing().with_seed(self.params.role_seed(0xC100));
        (Self::first_level()..)
            .take(levels)
            .map(|level| Iblt::with_cells(Self::level_child_cells(level), &cfg))
            .collect()
    }

    fn level_encoding_bytes(&self, level: usize) -> usize {
        let (cells, h) = (Self::level_child_cells(level), self.params.max_child_size);
        Self::child_sizing().key_form_len(cells, h) + 8
    }

    fn level_outer_config(&self, level: usize) -> IbltConfig {
        IbltConfig::for_key_bytes(
            self.level_encoding_bytes(level),
            self.params.role_seed(0xC200 + level as u64),
        )
        .with_min_cells(12)
    }

    fn fallback_config(&self) -> IbltConfig {
        IbltConfig::for_key_bytes(2 + 8 * self.params.max_child_size, self.params.role_seed(0xC300))
            .with_min_cells(12)
    }

    /// Encode one child set (whose [`SetOfSets::child_hash`] is `hash`) at the
    /// cascade level whose child table is `scratch` — the `O(d)` paths' way to
    /// the bytes [`CascadingProtocol::apply_children`] produces by folding.
    fn encode_child_at_level_into(
        &self,
        child: &ChildSet,
        hash: u64,
        scratch: &mut Iblt,
        out: &mut Vec<u8>,
    ) {
        scratch.clear();
        scratch.insert_u64s(child.iter().copied());
        IbltOfIbltsProtocol::join_encoding(scratch, hash, self.params.max_child_size, out);
    }

    /// The `O(s)` pass both sides make, child-major: each child is walked once,
    /// into the top level's child table — the walk also folds its hash — every
    /// lower level is the half-fold of the table above, and `apply`
    /// ([`Iblt::insert`] for Alice, [`Iblt::delete`] for Bob) takes each level's
    /// encoding into that level's outer table and the full encoding into `T_*`.
    /// Returns the child hashes and the per-level child tables, for reuse.
    fn apply_children(
        &self,
        sos: &SetOfSets,
        levels: &mut [Iblt],
        mut fallback: Option<&mut Iblt>,
        apply: fn(&mut Iblt, &[u8]),
    ) -> (Vec<u64>, Vec<Iblt>) {
        let mut scratch = self.child_tables(levels.len());
        let mut encoding = Vec::new();
        let mut hashes = Vec::with_capacity(sos.num_children());
        let h = self.params.max_child_size;
        for child in sos.children() {
            let (top, lower) = scratch.split_last_mut().expect("a cascade has a level");
            let mut hasher = SetOfSets::child_hasher(self.params.seed);
            top.clear();
            top.insert_u64s(child.iter().map(|&x| {
                hasher.insert(x);
                x
            }));
            let mut above: &Iblt = top;
            for table in lower.iter_mut().rev() {
                above.fold_half_into(table).expect("each level's child table halves the next");
                above = table;
            }
            let hash = hasher.finish();
            for (table, outer) in scratch.iter().zip(levels.iter_mut()) {
                IbltOfIbltsProtocol::join_encoding(table, hash, h, &mut encoding);
                apply(outer, &encoding);
            }
            if let Some(table) = fallback.as_deref_mut() {
                SetOfSets::encode_child_fixed_into(child, h, &mut encoding);
                apply(table, &encoding);
            }
            hashes.push(hash);
        }
        (hashes, scratch)
    }

    /// The empty cascade for bound `d` (the module's "Which levels are sent"):
    /// of the cuts `first ..= last` with `last ≤ t`, the one whose tables are
    /// the fewest bytes — the shortest, among equals. Tables the allocator
    /// cannot provide are [`ReconError::ResourceExhausted`].
    fn empty_tables(&self, d: usize) -> Result<(Vec<Iblt>, Option<Iblt>), ReconError> {
        let bytes = |&last: &usize| -> usize {
            let (levels, fallback) = self.sizing(d, last);
            let tables = levels.iter().chain(&fallback);
            let sizes = tables.map(|(cfg, diff)| cfg.serialized_len(cfg.cells_for(*diff)));
            sizes.fold(0, usize::saturating_add)
        };
        let first = Self::first_level();
        let last = (first..=self.num_levels(d).max(first)).min_by_key(bytes);
        let (levels, fallback) = self.sizing(d, last.expect("the range holds `first`"));
        let empty = |(cfg, diff): &Sizing| Iblt::try_with_expected_diff(*diff, cfg);
        Ok((
            levels.iter().map(empty).collect::<Result<_, _>>()?,
            fallback.as_ref().map(empty).transpose()?,
        ))
    }

    /// Alice's side: build the cascade digest for total element-difference bound `d`.
    pub fn digest(&self, sos: &SetOfSets, d: usize) -> CascadingDigest {
        self.try_digest(sos, d).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CascadingProtocol::digest`] for a bound a doubling chain grew: a
    /// cascade the allocator cannot provide (or whose size overflows `usize`)
    /// is an error.
    pub(crate) fn try_digest(
        &self,
        sos: &SetOfSets,
        d: usize,
    ) -> Result<CascadingDigest, ReconError> {
        let d = d.max(1);
        let (mut levels, mut fallback) = self.empty_tables(d)?;
        let (hashes, _) = self.apply_children(sos, &mut levels, fallback.as_mut(), Iblt::insert);
        Ok(CascadingDigest {
            diff_bound: d,
            levels,
            fallback,
            parent_hash: SetOfSets::parent_hash_of(hashes, self.params.seed),
            num_children: sos.num_children() as u64,
        })
    }

    /// Bob's side: recover Alice's parent set from the cascade.
    pub fn reconcile(
        &self,
        digest: &CascadingDigest,
        local: &SetOfSets,
    ) -> Result<SetOfSets, ReconError> {
        // A peer's digest is checked against Bob's own geometry before any table
        // is touched. The first level has more than `2d` cells, which bounds a
        // peer's `d` by the frame its digest arrived in before Bob sizes his own.
        let d = digest.diff_bound;
        let another_shape =
            || ReconError::InvalidInput("cascade digest of another shape".to_string());
        if !digest.levels.first().is_some_and(|first| (1..first.cells()).contains(&d)) {
            return Err(another_shape());
        }
        let (mut tables, mut fallback) = self.empty_tables(d)?;
        if digest.levels.len() != tables.len() || digest.fallback.is_some() != fallback.is_some() {
            return Err(another_shape());
        }
        // Bob's working copies start as his own empty tables: adding Alice's
        // refuses one of any other key width, seed, hash count or cell count.
        let peer = digest.levels.iter().chain(&digest.fallback);
        for (mine, theirs) in tables.iter_mut().chain(&mut fallback).zip(peer) {
            mine.add_assign(theirs)?;
        }
        // Every local child leaves every table in the one pass. The first level
        // has not named D_B yet, so D_B's children leave the later tables too
        // and are put back below (the tables are linear: same bits as skipping
        // them).
        let (local_hashes, mut scratch) =
            self.apply_children(local, &mut tables, fallback.as_mut(), Iblt::delete);
        // Reversed, so that on a hash collision the earlier child overwrites.
        let local_by_hash: HashMap<u64, &ChildSet> =
            local_hashes.iter().copied().zip(local.children()).rev().collect();

        // D_B: Bob's differing children, keyed by hash. Discovered at the first level.
        let mut differing_local: BTreeMap<u64, &ChildSet> = BTreeMap::new();
        // D_A: Alice's recovered children, keyed by their child hash.
        let mut recovered: BTreeMap<u64, ChildSet> = BTreeMap::new();
        // Alice's differing child hashes seen so far but not yet recovered.
        let mut pending: BTreeSet<u64> = BTreeSet::new();
        // A child with no counterpart on Bob's side is also tried against the
        // empty set, so brand-new children are recoverable once a level's child
        // IBLTs are big enough to hold them outright.
        let empty_child = ChildSet::new();
        let h = self.params.max_child_size;
        let mut encoding = Vec::new();
        let mut nearest: Vec<(u64, usize)> = Vec::new();

        for (index, (table, scratch)) in tables.iter_mut().zip(&mut scratch).enumerate() {
            if index > 0 {
                // Algorithm 2, step i>1, keeps D_B out of the later tables.
                for (&hash, child) in &differing_local {
                    self.encode_child_at_level_into(child, hash, scratch, &mut encoding);
                    table.insert(&encoding);
                }
                for (&hash, child) in &recovered {
                    self.encode_child_at_level_into(child, hash, scratch, &mut encoding);
                    table.delete(&encoding);
                }
            }
            let decoded = table.decode_in_place();
            // Partial decodes are fine mid-cascade: later levels and the fallback
            // table will catch what this level missed.

            if index == 0 {
                for encoding in &decoded.negative {
                    let (_, hash_b) = IbltOfIbltsProtocol::split_encoding(scratch, h, encoding)?;
                    if let Some(&child) = local_by_hash.get(&hash_b) {
                        differing_local.insert(hash_b, child);
                    }
                }
            }

            // Bob's candidates at this level's geometry, each table built once
            // however many of Alice's encodings it is tried against.
            let mut candidates: Vec<(&ChildSet, Iblt)> = Vec::new();
            if !decoded.positive.is_empty() {
                for child_b in differing_local.values().copied().chain([&empty_child]) {
                    scratch.clear();
                    scratch.insert_u64s(child_b.iter().copied());
                    candidates.push((child_b, scratch.clone()));
                }
            }
            for encoding in &decoded.positive {
                let (table_a, hash_a) = IbltOfIbltsProtocol::split_encoding(scratch, h, encoding)?;
                if recovered.contains_key(&hash_a) {
                    continue;
                }
                pending.insert(hash_a);
                // Nearest candidate first, and none a table of this size cannot
                // peel against: a peel recovers at most one key per cell.
                let cells = scratch.cells() as u64;
                nearest.clear();
                nearest.extend(candidates.iter().enumerate().filter_map(|(at, (_, table_b))| {
                    let bound = count_distance(&table_a, table_b);
                    (bound <= cells).then_some((bound, at))
                }));
                nearest.sort_unstable();
                for &(_, at) in &nearest {
                    let (child_b, table_b) = &candidates[at];
                    // `scratch` is free again: the difference is peeled in it.
                    scratch.clear();
                    scratch
                        .add_assign(&table_a)
                        .and_then(|()| scratch.subtract_assign(table_b))
                        .expect("both were made from this level's child table");
                    let peeled = scratch.decode_in_place();
                    if !peeled.complete {
                        continue;
                    }
                    let mut candidate = (*child_b).clone();
                    for x in peeled.negative_u64() {
                        candidate.remove(&x);
                    }
                    for x in peeled.positive_u64() {
                        candidate.insert(x);
                    }
                    // More than `h` elements is no child of these parameters
                    // (and has no fixed encoding to take out of `T_*`).
                    if candidate.len() <= h
                        && SetOfSets::child_hash(&candidate, self.params.seed) == hash_a
                    {
                        recovered.insert(hash_a, candidate);
                        pending.remove(&hash_a);
                        break;
                    }
                }
            }
        }

        // `T_*`: the pass left it holding Alice's differing children less
        // Bob's. With D_B put back and the recovered children taken out it
        // holds only those of Alice's that no level could give.
        if let Some(table) = &mut fallback {
            for child in differing_local.values() {
                SetOfSets::encode_child_fixed_into(child, h, &mut encoding);
                table.insert(&encoding);
            }
            for child in recovered.values() {
                SetOfSets::encode_child_fixed_into(child, h, &mut encoding);
                table.delete(&encoding);
            }
            let decoded = table.decode_in_place();
            for key in &decoded.positive {
                if let Some(child) = SetOfSets::decode_child_fixed(key) {
                    let hash = SetOfSets::child_hash(&child, self.params.seed);
                    pending.remove(&hash);
                    recovered.insert(hash, child);
                }
            }
        }

        if let Some(&hash) = pending.first() {
            return Err(ReconError::NoMatchingChild { child_hash: hash });
        }

        let mut result = local.clone();
        for child in differing_local.values() {
            result.remove(child);
        }
        for child in recovered.values() {
            if !result.insert(child.clone()) {
                return Err(ReconError::ChecksumFailure); // one child under two hashes
            }
        }
        // The parent hash comes from the child hashes in hand — Bob's, less D_B,
        // plus the verified keys of `recovered` — and the child count from the set
        // itself: should the two disagree about the result, their counts differ.
        let kept = local_hashes.iter().filter(|hash| !differing_local.contains_key(hash));
        let hashes = kept.chain(recovered.keys()).copied();
        if result.num_children() as u64 != digest.num_children
            || SetOfSets::parent_hash_of(hashes, self.params.seed) != digest.parent_hash
        {
            return Err(ReconError::ChecksumFailure);
        }
        Ok(result)
    }
}

/// A lower bound on the number of keys two child tables differ by, read from
/// their count planes alone: a key of the difference moves one count of every
/// partition by one, so no partition's `Σ |count_a − count_b|` exceeds it.
fn count_distance(a: &Iblt, b: &Iblt) -> u64 {
    let partition = b.cells() / b.hash_count();
    let distance = |(of_a, of_b): (&[i64], &[i64])| {
        of_a.iter().zip(of_b).fold(0u64, |sum, (x, y)| sum.saturating_add(x.abs_diff(*y)))
    };
    a.counts().chunks(partition).zip(b.counts().chunks(partition)).map(distance).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session;
    use crate::workload::{generate_pair, WorkloadParams};
    use recon_protocol::{Amplification, Outcome, SessionBuilder};

    fn params() -> (WorkloadParams, SosParams) {
        let w = WorkloadParams::new(96, 24, 1 << 30);
        (w, SosParams::new(0xCAFE, w.max_child_size))
    }

    /// Theorem 3.7's party pair under four replicated attempts, run in memory.
    fn cascade(a: &SetOfSets, b: &SetOfSets, d: usize, p: &SosParams) -> Outcome<SetOfSets> {
        let amp = Amplification::replicate(4);
        let alice = session::cascading_known_alice(a, d, p, amp).unwrap();
        SessionBuilder::new(p.seed).run(alice, session::cascading_known_bob(b, p, amp)).unwrap()
    }

    #[test]
    fn level_count_tracks_min_of_d_and_h() {
        let (_, p) = params();
        let protocol = CascadingProtocol::new(p);
        assert_eq!(protocol.num_levels(1), 1);
        assert_eq!(protocol.num_levels(2), 1);
        assert_eq!(protocol.num_levels(4), 2);
        assert_eq!(protocol.num_levels(16), 4);
        // Capped at log2(h) = log2(24) -> 5 levels.
        assert_eq!(protocol.num_levels(1 << 20), 5);
        assert!(protocol.needs_fallback(24));
        assert!(!protocol.needs_fallback(8));
    }

    /// The folded encodings are the ones a fill per level produces: the outer
    /// tables of the child-major digest equal those built level by level through
    /// `encode_child_at_level_into`, from one level (nothing to fold) to six,
    /// without `T_*` and with it.
    #[test]
    fn child_major_digest_equals_the_per_level_build() {
        let shapes =
            [(24, 4, 1), (32, 64, 1), (128, 17, 2), (200, 256, 3), (256, 128, 4), (1000, 2000, 6)];
        for (h, d, levels) in shapes {
            let p = SosParams::new(0xF01D + h as u64, h);
            let protocol = CascadingProtocol::new(p);
            let w = WorkloadParams::new(12, h.min(24), 1 << 30);
            let (alice, _) = generate_pair(&w, 0, d as u64);
            let digest = protocol.digest(&alice, d);
            assert_eq!(digest.levels.len(), levels, "h = {h}, d = {d}");
            assert_eq!(digest.parent_hash, alice.parent_hash(p.seed));
            let (mut want, _) = protocol.empty_tables(d).unwrap();
            let mut encoding = Vec::new();
            for (want, mut scratch) in want.iter_mut().zip(protocol.child_tables(levels)) {
                for child in alice.children() {
                    let hash = SetOfSets::child_hash(child, p.seed);
                    protocol.encode_child_at_level_into(child, hash, &mut scratch, &mut encoding);
                    want.insert(&encoding);
                }
            }
            assert_eq!(digest.levels, want, "h = {h}, d = {d}");
        }
    }

    #[test]
    fn identical_parent_sets_reconcile() {
        let (w, p) = params();
        let (alice, _) = generate_pair(&w, 0, 1);
        let protocol = CascadingProtocol::new(p);
        let digest = protocol.digest(&alice, 4);
        assert_eq!(protocol.reconcile(&digest, &alice).unwrap(), alice);
    }

    #[test]
    fn perturbed_parent_sets_reconcile() {
        let (w, p) = params();
        for d in [1usize, 4, 12, 32] {
            let (alice, bob) = generate_pair(&w, d, 500 + d as u64);
            let outcome = cascade(&alice, &bob, d, &p);
            assert_eq!(outcome.recovered, alice, "d = {d}");
            // Theorem 3.7 succeeds with constant probability per attempt; the parties
            // replicate (each replica is another one-round transmission), so a small
            // number of rounds is acceptable but most instances should need one.
            assert!(outcome.stats.rounds <= 3, "d = {d}: {} rounds", outcome.stats.rounds);
        }
    }

    #[test]
    fn large_differences_use_the_fallback_table() {
        let (w, p) = params();
        let protocol = CascadingProtocol::new(p);
        let (alice, bob) = generate_pair(&w, 60, 9);
        let digest = protocol.digest(&alice, 60);
        assert!(digest.fallback.is_some());
        let outcome = cascade(&alice, &bob, 60, &p);
        assert_eq!(outcome.recovered, alice);
    }

    #[test]
    fn unknown_difference_reconciles() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 7, 44);
        let doubling =
            Amplification::doubling(2, 2 * (alice.total_elements() + bob.total_elements() + 2));
        let outcome = SessionBuilder::new(p.seed)
            .run(
                session::cascading_unknown_alice(&alice, &p, doubling).unwrap(),
                session::cascading_unknown_bob(&bob, &p, doubling),
            )
            .unwrap();
        assert_eq!(outcome.recovered, alice);
    }

    #[test]
    fn beats_iblt_of_iblts_for_spread_out_changes() {
        // Theorem 3.7's improvement over Theorem 3.5: when the d changes are spread
        // over many children, per-child IBLTs of size O(d) are wasteful.
        let w = WorkloadParams::new(128, 32, 1 << 30);
        let p = SosParams::new(7, w.max_child_size);
        let d = 24;
        let (alice, bob) = generate_pair(&w, d, 3);
        let cascade = cascade(&alice, &bob, d, &p);
        let amp = Amplification::replicate(3);
        let flat = SessionBuilder::new(p.seed)
            .run(
                session::ioi_known_alice(&alice, d, d, &p, amp).unwrap(),
                session::ioi_known_bob(&bob, &p, amp),
            )
            .unwrap();
        assert_eq!(cascade.recovered, alice);
        assert_eq!(flat.recovered, alice);
        assert!(
            cascade.stats.total_bytes() < flat.stats.total_bytes(),
            "cascading {} bytes should undercut flat {} bytes",
            cascade.stats.total_bytes(),
            flat.stats.total_bytes()
        );
    }

    #[test]
    fn digest_roundtrips_through_wire() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 6, 15);
        let protocol = CascadingProtocol::new(p);
        let digest = protocol.digest(&alice, 6);
        let decoded = CascadingDigest::from_bytes(&digest.to_bytes()).unwrap();
        assert_eq!(protocol.reconcile(&decoded, &bob).unwrap(), alice);
    }

    #[test]
    fn undersized_bound_fails_detectably() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 64, 23);
        let protocol = CascadingProtocol::new(p);
        let digest = protocol.digest(&alice, 1);
        assert!(protocol.reconcile(&digest, &bob).is_err());
    }
}
