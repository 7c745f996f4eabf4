//! Binary relational databases with unlabeled rows (Section 1, Section 3.5).
//!
//! "Consider relational databases consisting of binary data, where the columns are
//! labeled but the rows are not. In such a case, a row database entry can
//! equivalently be thought of as a set of elements from the universe of columns
//! (the set of columns in which the row has a 1 entry). The problem of reconciling
//! two databases in which a total of d bits have been flipped corresponds exactly to
//! our sets of sets problem."
//!
//! [`BinaryTable`] is that object; Table 1's workload (`h = Θ(u)`, `n = Θ(su)`) is
//! generated by [`BinaryTable::random`] with a constant one-density, and
//! [`BinaryTable::flip_bits`] applies the `d` bit flips.

use recon_base::rng::Xoshiro256;
use recon_base::ReconError;
use recon_protocol::{Amplification, Outcome, SessionBuilder};
use recon_sos::{session, SetOfSets, SosParams};
use std::collections::BTreeSet;

/// A relational table of binary data: `num_columns` labeled columns, unlabeled rows.
/// Rows are stored as the set of column indices holding a 1, and the table itself is
/// a *set* of rows (duplicate rows are not representable, matching the paper's
/// set-of-sets formulation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryTable {
    num_columns: u32,
    rows: SetOfSets,
}

/// Which set-of-sets protocol to use for reconciling two tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SosProtocolKind {
    /// Theorem 3.3: rows as opaque items.
    Naive,
    /// Theorem 3.5 / Algorithm 1.
    IbltOfIblts,
    /// Theorem 3.7 / Algorithm 2.
    Cascading,
    /// Theorem 3.9 (3 rounds).
    MultiRound,
}

impl BinaryTable {
    /// Create an empty table with the given number of columns.
    pub fn new(num_columns: u32) -> Self {
        Self { num_columns, rows: SetOfSets::new() }
    }

    /// Number of columns (`u` in the paper's notation).
    pub fn num_columns(&self) -> u32 {
        self.num_columns
    }

    /// Number of rows (`s`).
    pub fn num_rows(&self) -> usize {
        self.rows.num_children()
    }

    /// Total number of 1-bits (`n`).
    pub fn num_ones(&self) -> usize {
        self.rows.total_elements()
    }

    /// Insert a row given the set of columns holding a 1. Returns `false` if an
    /// identical row already exists (rows form a set).
    pub fn insert_row<I: IntoIterator<Item = u32>>(&mut self, ones: I) -> bool {
        let row: BTreeSet<u64> = ones
            .into_iter()
            .map(|c| {
                assert!(c < self.num_columns, "column {c} out of range");
                c as u64
            })
            .collect();
        self.rows.insert(row)
    }

    /// The rows as a set of sets over the column universe.
    pub fn as_set_of_sets(&self) -> &SetOfSets {
        &self.rows
    }

    /// Rebuild a table from a set of sets (columns must fit the declared width).
    pub fn from_set_of_sets(num_columns: u32, rows: SetOfSets) -> Result<Self, ReconError> {
        for row in rows.children() {
            if row.iter().any(|&c| c >= num_columns as u64) {
                return Err(ReconError::InvalidInput(format!(
                    "row references a column >= {num_columns}"
                )));
            }
        }
        Ok(Self { num_columns, rows })
    }

    /// Generate a random table with `num_rows` distinct rows over `num_columns`
    /// columns, each bit set with probability `density` (Table 1 assumes the data is
    /// "sufficiently dense in 1s": `h = Θ(u)`).
    pub fn random(num_rows: usize, num_columns: u32, density: f64, rng: &mut Xoshiro256) -> Self {
        let mut table = Self::new(num_columns);
        let mut guard = 0;
        while table.num_rows() < num_rows {
            guard += 1;
            assert!(guard < num_rows * 20 + 100, "failed to generate distinct rows");
            let row: Vec<u32> = (0..num_columns).filter(|_| rng.next_bool(density)).collect();
            if row.is_empty() {
                continue;
            }
            table.insert_row(row);
        }
        table
    }

    /// Flip exactly `d` random bits (the paper's difference model), keeping rows
    /// distinct and non-empty. Returns the perturbed table.
    pub fn flip_bits(&self, d: usize, rng: &mut Xoshiro256) -> Self {
        let mut rows: Vec<BTreeSet<u64>> = self.rows.children().to_vec();
        let mut applied = 0;
        let mut guard = 0;
        while applied < d {
            guard += 1;
            assert!(guard < 200 * (d + 1) + 1000, "bit flipping failed to converge");
            let idx = rng.next_index(rows.len());
            let col = rng.next_below(self.num_columns as u64);
            let mut candidate = rows[idx].clone();
            if candidate.contains(&col) {
                if candidate.len() == 1 {
                    continue;
                }
                candidate.remove(&col);
            } else {
                candidate.insert(col);
            }
            if rows.iter().enumerate().any(|(j, r)| j != idx && *r == candidate) {
                continue;
            }
            rows[idx] = candidate;
            applied += 1;
        }
        Self { num_columns: self.num_columns, rows: SetOfSets::from_children(rows) }
    }

    /// Total number of differing bits between two tables under the minimum-cost row
    /// matching (ground truth for experiments; `O(s^3)`).
    pub fn bit_difference(&self, other: &BinaryTable) -> usize {
        recon_sos::matching_difference(&self.rows, &other.rows)
    }

    /// Reconcile: Bob (holder of `self`) recovers Alice's table given a bound `d` on
    /// the number of flipped bits, using the chosen protocol. Returns Alice's table
    /// as recovered by Bob plus the measured communication.
    pub fn reconcile_from(
        &self,
        alice: &BinaryTable,
        d: usize,
        protocol: SosProtocolKind,
        seed: u64,
    ) -> Result<Outcome<BinaryTable>, ReconError> {
        if alice.num_columns != self.num_columns {
            return Err(ReconError::InvalidInput("column counts differ".to_string()));
        }
        let params = SosParams::new(seed, self.num_columns as usize);
        let d_hat = d.min(alice.num_rows().max(self.num_rows())).max(1);
        let (a, b, p, run) = (&alice.rows, &self.rows, &params, SessionBuilder::new(seed));
        // Theorem 3.7 is amplified four times, the other one-round families three.
        let (three, four) = (Amplification::replicate(3), Amplification::replicate(4));
        let outcome = match protocol {
            SosProtocolKind::Naive => run.run(
                session::naive_known_alice(a, d_hat, p, three)?,
                session::naive_known_bob(b, p, three),
            )?,
            SosProtocolKind::IbltOfIblts => run.run(
                session::ioi_known_alice(a, d, d_hat, p, three)?,
                session::ioi_known_bob(b, p, three),
            )?,
            SosProtocolKind::Cascading => run.run(
                session::cascading_known_alice(a, d, p, four)?,
                session::cascading_known_bob(b, p, four),
            )?,
            SosProtocolKind::MultiRound => run.run(
                session::multiround_known_alice(a, d, d_hat, p)?,
                session::multiround_known_bob(b, p),
            )?,
        };
        let table = BinaryTable::from_set_of_sets(self.num_columns, outcome.recovered)?;
        Ok(Outcome { recovered: table, stats: outcome.stats })
    }

    /// The number of bytes a full transfer of the table would take (baseline every
    /// reconciliation protocol should beat when `d` is small): one bit per cell.
    pub fn full_transfer_bytes(&self) -> usize {
        (self.num_rows() * self.num_columns as usize).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pair(s: usize, u: u32, d: usize, seed: u64) -> (BinaryTable, BinaryTable) {
        let mut rng = Xoshiro256::new(seed);
        let alice = BinaryTable::random(s, u, 0.5, &mut rng);
        let bob = alice.flip_bits(d, &mut rng);
        (alice, bob)
    }

    #[test]
    fn construction_and_accessors() {
        let mut t = BinaryTable::new(8);
        assert!(t.insert_row([0, 3, 7]));
        assert!(!t.insert_row([7, 3, 0]), "duplicate rows collapse");
        assert!(t.insert_row([1]));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_ones(), 4);
        assert_eq!(t.num_columns(), 8);
        assert_eq!(t.full_transfer_bytes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_columns_are_rejected() {
        BinaryTable::new(4).insert_row([9]);
    }

    #[test]
    fn random_tables_respect_parameters() {
        let mut rng = Xoshiro256::new(1);
        let t = BinaryTable::random(100, 64, 0.5, &mut rng);
        assert_eq!(t.num_rows(), 100);
        let density = t.num_ones() as f64 / (100.0 * 64.0);
        assert!((density - 0.5).abs() < 0.08, "density {density}");
    }

    #[test]
    fn flip_bits_produces_bounded_difference() {
        let (alice, bob) = sample_pair(40, 32, 10, 3);
        assert!(alice.bit_difference(&bob) <= 10);
        assert!(alice.bit_difference(&bob) >= 1);
        assert_eq!(alice.bit_difference(&alice), 0);
    }

    #[test]
    fn all_protocols_recover_the_original_table() {
        let (alice, bob) = sample_pair(48, 48, 6, 7);
        for protocol in [
            SosProtocolKind::Naive,
            SosProtocolKind::IbltOfIblts,
            SosProtocolKind::Cascading,
            SosProtocolKind::MultiRound,
        ] {
            let Outcome { recovered, stats } = bob.reconcile_from(&alice, 6, protocol, 99).unwrap();
            assert_eq!(recovered, alice, "{protocol:?}");
            assert!(stats.total_bytes() > 0);
        }
    }

    #[test]
    fn reconciliation_beats_full_transfer_for_small_d() {
        // The economic argument of the paper: with few flipped bits, reconciliation
        // should cost far less than resending the table. (The naive protocol need
        // not win here; the smarter ones should.)
        let mut rng = Xoshiro256::new(11);
        let alice = BinaryTable::random(512, 128, 0.5, &mut rng);
        let bob = alice.flip_bits(4, &mut rng);
        let Outcome { recovered, stats } =
            bob.reconcile_from(&alice, 4, SosProtocolKind::MultiRound, 5).unwrap();
        assert_eq!(recovered, alice);
        assert!(
            stats.total_bytes() < alice.full_transfer_bytes(),
            "{} vs full transfer {}",
            stats.total_bytes(),
            alice.full_transfer_bytes()
        );
    }

    #[test]
    fn mismatched_schemas_are_rejected() {
        let a = BinaryTable::new(4);
        let b = BinaryTable::new(5);
        assert!(b.reconcile_from(&a, 1, SosProtocolKind::Cascading, 1).is_err());
    }
}
