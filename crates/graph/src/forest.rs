//! Forest reconciliation (Section 6, Theorem 6.1).
//!
//! Alice and Bob hold rooted forests that differ by at most `d` directed edge
//! insertions/deletions (a deletion turns the child into a new root; an insertion
//! may only attach a current root below another vertex). Every vertex gets a
//! signature: a hash of the isomorphism class of the subtree it roots (the classic
//! AHU canonical labeling, computed bottom-up). A forest is fully described by the
//! multiset of *per-vertex child multisets* — for each vertex, the multiset holding
//! its own signature (marked as "parent") together with the signatures of its
//! children — and one edge update only changes the signatures of the `≤ σ` vertices
//! on the path to the root. Reconciling this multiset of multisets (Section 3.4 +
//! Theorem 3.7) therefore costs `O(dσ log(dσ) log n)` bits, after which Bob
//! reconstructs a forest isomorphic to Alice's from the recovered signatures.

use recon_base::hash::{hash_u64_set, truncate_bits};
use recon_base::rng::Xoshiro256;
use recon_base::ReconError;
use recon_set::Multiset;
use recon_sos::multiset_of_multisets::{self, PairPacking, SetOfMultisets};
use recon_sos::SosParams;
use std::collections::{BTreeMap, HashMap};

/// Number of bits kept from each subtree signature so that `(signature, count)`
/// pairs fit the [`PairPacking`] word format. 40 bits keep the collision probability
/// negligible for forests up to millions of vertices.
pub const SIGNATURE_BITS: u32 = 40;

/// Marker added to a vertex's own signature inside its child multiset, so the parent
/// entry is distinguishable from child entries.
const PARENT_MARKER: u64 = 1 << 42;

/// A rooted forest on vertices `0..n`: each vertex has an optional parent, and the
/// parent pointers contain no cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forest {
    parent: Vec<Option<u32>>,
}

impl Forest {
    /// A forest of `n` isolated roots.
    pub fn new(n: usize) -> Self {
        Self { parent: vec![None; n] }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }

    /// Number of (directed, parent→child) edges.
    pub fn num_edges(&self) -> usize {
        self.parent.iter().filter(|p| p.is_some()).count()
    }

    /// Parent of a vertex (`None` for roots).
    pub fn parent(&self, v: u32) -> Option<u32> {
        self.parent[v as usize]
    }

    /// All root vertices.
    pub fn roots(&self) -> Vec<u32> {
        (0..self.parent.len() as u32).filter(|&v| self.parent[v as usize].is_none()).collect()
    }

    /// Children of every vertex (index = vertex).
    pub fn children_lists(&self) -> Vec<Vec<u32>> {
        let mut children = vec![Vec::new(); self.parent.len()];
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p as usize].push(v as u32);
            }
        }
        children
    }

    /// Depth of a vertex (roots have depth 0).
    pub fn depth(&self, v: u32) -> usize {
        let mut depth = 0;
        let mut cur = v;
        while let Some(p) = self.parent[cur as usize] {
            depth += 1;
            cur = p;
            assert!(depth <= self.parent.len(), "cycle in forest");
        }
        depth
    }

    /// Maximum depth over all vertices (`σ` in Theorem 6.1 is `max_depth() + 1`
    /// counted in vertices; we report edge-depth).
    pub fn max_depth(&self) -> usize {
        (0..self.parent.len() as u32).map(|v| self.depth(v)).max().unwrap_or(0)
    }

    /// `true` if `ancestor` lies on the path from `v` to its root (inclusive).
    pub fn is_ancestor(&self, ancestor: u32, v: u32) -> bool {
        let mut cur = Some(v);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.parent[c as usize];
        }
        false
    }

    /// Delete the edge above `v` (a paper "edge deletion": `v` becomes a root).
    /// Returns `false` if `v` was already a root.
    pub fn delete_edge(&mut self, v: u32) -> bool {
        if self.parent[v as usize].is_none() {
            return false;
        }
        self.parent[v as usize] = None;
        true
    }

    /// Insert an edge making root `child` a child of `new_parent` (a paper "edge
    /// insertion": only roots may acquire a parent). Fails if `child` is not a root
    /// or if the edge would create a cycle.
    pub fn insert_edge(&mut self, child: u32, new_parent: u32) -> Result<(), ReconError> {
        if self.parent[child as usize].is_some() {
            return Err(ReconError::InvalidInput(format!(
                "vertex {child} is not a root; forest insertions must attach roots"
            )));
        }
        if self.is_ancestor(child, new_parent) {
            return Err(ReconError::InvalidInput("insertion would create a cycle".to_string()));
        }
        self.parent[child as usize] = Some(new_parent);
        Ok(())
    }

    /// Generate a random rooted forest: each vertex beyond the first becomes a new
    /// root with probability `root_prob`, otherwise it attaches to a uniformly random
    /// earlier vertex whose depth is below `max_depth`.
    pub fn random(n: usize, root_prob: f64, max_depth: usize, rng: &mut Xoshiro256) -> Self {
        let mut forest = Forest::new(n);
        for v in 1..n as u32 {
            if rng.next_bool(root_prob) {
                continue;
            }
            // Rejection-sample a parent that respects the depth cap.
            for _ in 0..32 {
                let candidate = rng.next_index(v as usize) as u32;
                if forest.depth(candidate) < max_depth {
                    forest.parent[v as usize] = Some(candidate);
                    break;
                }
            }
        }
        forest
    }

    /// Apply exactly `d` random edge updates (insertions of roots or deletions),
    /// respecting the forest constraints of Section 6.
    pub fn perturb(&self, d: usize, rng: &mut Xoshiro256) -> Self {
        let mut out = self.clone();
        let n = out.num_vertices();
        let mut applied = 0;
        let mut guard = 0;
        while applied < d {
            guard += 1;
            assert!(guard < 200 * (d + 1) + 1000, "forest perturbation failed to converge");
            if rng.next_bool(0.5) {
                // Deletion.
                let v = rng.next_index(n) as u32;
                if out.delete_edge(v) {
                    applied += 1;
                }
            } else {
                // Insertion: attach a random root under a random non-descendant.
                let roots = out.roots();
                if roots.len() <= 1 {
                    continue;
                }
                let child = roots[rng.next_index(roots.len())];
                let target = rng.next_index(n) as u32;
                if target != child && out.insert_edge(child, target).is_ok() {
                    applied += 1;
                }
            }
        }
        out
    }

    /// Exact (64-bit) AHU-style canonical label of every vertex's subtree.
    pub fn canonical_labels(&self, seed: u64) -> Vec<u64> {
        let children = self.children_lists();
        let mut labels = vec![0u64; self.num_vertices()];
        // Process vertices in order of decreasing depth so children come first.
        let mut order: Vec<u32> = (0..self.num_vertices() as u32).collect();
        let depths: Vec<usize> = order.iter().map(|&v| self.depth(v)).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(depths[v as usize]));
        for &v in &order {
            let child_labels: Vec<u64> = {
                let mut ls: Vec<u64> =
                    children[v as usize].iter().map(|&c| labels[c as usize]).collect();
                ls.sort_unstable();
                ls
            };
            labels[v as usize] = hash_u64_set(
                child_labels.iter().enumerate().map(|(i, &l)| l.wrapping_add(i as u64 * 0x9E37)),
                seed ^ 0xF0E5,
            );
        }
        labels
    }

    /// Truncated signatures used on the wire (see [`SIGNATURE_BITS`]).
    pub fn signatures(&self, seed: u64) -> Vec<u64> {
        self.canonical_labels(seed)
            .into_iter()
            .map(|l| truncate_bits(l, SIGNATURE_BITS).max(1))
            .collect()
    }

    /// Isomorphism test: two rooted forests are isomorphic iff the multisets of
    /// their root canonical labels agree.
    pub fn is_isomorphic(&self, other: &Forest, seed: u64) -> bool {
        let mine = self.canonical_labels(seed);
        let theirs = other.canonical_labels(seed);
        let mut a: Vec<u64> = self.roots().into_iter().map(|r| mine[r as usize]).collect();
        let mut b: Vec<u64> = other.roots().into_iter().map(|r| theirs[r as usize]).collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b && self.num_vertices() == other.num_vertices()
    }

    /// The per-vertex child multisets described in Theorem 6.1's proof: for each
    /// vertex, a multiset holding its own (marked) signature and the signatures of
    /// its children.
    pub fn vertex_multisets(&self, seed: u64) -> SetOfMultisets {
        let sigs = self.signatures(seed);
        let children = self.children_lists();
        let mut collection = Vec::with_capacity(self.num_vertices());
        for v in 0..self.num_vertices() {
            let mut m = Multiset::new();
            m.insert(PARENT_MARKER | sigs[v]);
            for &c in &children[v] {
                m.insert(sigs[c as usize]);
            }
            collection.push(m);
        }
        SetOfMultisets::from_children(collection)
    }
}

/// Reconstruct a forest (up to isomorphism) from a recovered collection of per-vertex
/// child multisets, following the constructive argument in the proof of Theorem 6.1.
pub fn reconstruct(collection: &SetOfMultisets) -> Result<Forest, ReconError> {
    // Group the collection by the (marked) parent signature.
    struct Group {
        count: usize,
        children: Vec<(u64, u64)>, // (child signature, multiplicity per parent vertex)
    }
    let mut groups: BTreeMap<u64, Group> = BTreeMap::new();
    for child_multiset in collection.children() {
        let mut parent_sig = None;
        let mut children = Vec::new();
        for (x, c) in child_multiset.iter() {
            if x & PARENT_MARKER != 0 {
                if c != 1 || parent_sig.is_some() {
                    return Err(ReconError::ChecksumFailure);
                }
                parent_sig = Some(x & !PARENT_MARKER);
            } else {
                children.push((x, c));
            }
        }
        // Canonical order so structurally identical multisets compare equal.
        children.sort_unstable();
        let sig = parent_sig.ok_or(ReconError::ChecksumFailure)?;
        let entry = groups.entry(sig).or_insert(Group { count: 0, children: children.clone() });
        if entry.count > 0 && entry.children != children {
            // Identical subtree signatures must have identical child multisets.
            return Err(ReconError::ChecksumFailure);
        }
        entry.count += 1;
    }

    // Heights of signatures (children strictly lower), detecting inconsistencies.
    fn height(
        sig: u64,
        groups: &BTreeMap<u64, Group>,
        memo: &mut HashMap<u64, usize>,
        depth_guard: usize,
    ) -> Result<usize, ReconError> {
        if let Some(&h) = memo.get(&sig) {
            return Ok(h);
        }
        if depth_guard == 0 {
            return Err(ReconError::ChecksumFailure);
        }
        let group = groups.get(&sig).ok_or(ReconError::ChecksumFailure)?;
        let mut h = 0;
        for &(child_sig, _) in &group.children {
            h = h.max(1 + height(child_sig, groups, memo, depth_guard - 1)?);
        }
        memo.insert(sig, h);
        Ok(h)
    }
    let mut memo = HashMap::new();
    let guard = groups.len() + 2;
    let mut by_height: Vec<(usize, u64)> = Vec::new();
    for &sig in groups.keys() {
        by_height.push((height(sig, &groups, &mut memo, guard)?, sig));
    }
    by_height.sort_unstable();

    // Allocate vertex ids per signature and a pool of not-yet-attached vertices.
    let mut ids_of: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut next_id = 0u32;
    for (_, sig) in &by_height {
        let group = &groups[sig];
        let ids: Vec<u32> = (0..group.count).map(|i| next_id + i as u32).collect();
        next_id += group.count as u32;
        ids_of.insert(*sig, ids);
    }
    let total = next_id as usize;
    let mut forest = Forest::new(total);
    let mut unattached: HashMap<u64, Vec<u32>> =
        ids_of.iter().map(|(sig, ids)| (*sig, ids.clone())).collect();

    // Attach children, processing parent signatures from the leaves up.
    for (_, sig) in &by_height {
        let group = &groups[sig];
        if group.children.is_empty() {
            continue;
        }
        let parents = ids_of[sig].clone();
        for parent in parents {
            for &(child_sig, multiplicity) in &group.children {
                let pool = unattached.get_mut(&child_sig).ok_or(ReconError::ChecksumFailure)?;
                if (pool.len() as u64) < multiplicity {
                    return Err(ReconError::ChecksumFailure);
                }
                for _ in 0..multiplicity {
                    let child = pool.pop().expect("checked length");
                    forest.parent[child as usize] = Some(parent);
                }
            }
        }
    }
    Ok(forest)
}

/// The set-of-sets parameters both parties of Theorem 6.1 run the embedded
/// Section 3.4 session under: its seed, and a packed child-size bound that covers
/// both forests' vertex multisets — the one input neither party can compute alone
/// (separated parties agree on it out of band, like any other universe bound).
/// The parties are [`crate::session::forest_alice`] and
/// [`crate::session::forest_bob`].
pub fn agreed_params(alice: &Forest, bob: &Forest, seed: u64) -> Result<SosParams, ReconError> {
    let alice_collection = alice.vertex_multisets(seed);
    let bob_collection = bob.vertex_multisets(seed);
    let max_child =
        alice_collection.max_child_distinct().max(bob_collection.max_child_distinct()).max(2) + 1;
    multiset_of_multisets::resolved_params(
        &alice_collection,
        &bob_collection,
        &SosParams::new(seed ^ 0xF07E57, max_child),
        &PairPacking::default(),
    )
}

/// Build a forest from an explicit parent array (panics if the pointers contain a
/// cycle). Convenient for examples and tests.
pub fn from_parents(parents: &[Option<u32>]) -> Forest {
    let mut forest = Forest::new(parents.len());
    for (v, p) in parents.iter().enumerate() {
        forest.parent[v] = *p;
    }
    // Validate acyclicity (depth panics on cycles).
    for v in 0..forest.num_vertices() as u32 {
        let _ = forest.depth(v);
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_protocol::{Outcome, SessionBuilder};

    /// Theorem 6.1's party pair, run in memory.
    fn run_session(a: &Forest, b: &Forest, d: usize, sigma: usize, seed: u64) -> Outcome<Forest> {
        let agreed = agreed_params(a, b, seed).unwrap();
        let alice = crate::session::forest_alice(a, d, sigma, seed, &agreed).unwrap();
        let bob = crate::session::forest_bob(b, seed, &agreed).unwrap();
        SessionBuilder::new(seed).run(alice, bob).unwrap()
    }

    fn chain(n: usize) -> Forest {
        // 0 <- 1 <- 2 <- ... (vertex i's parent is i-1)
        from_parents(
            &(0..n).map(|i| if i == 0 { None } else { Some(i as u32 - 1) }).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn basic_structure_queries() {
        let f = chain(5);
        assert_eq!(f.num_vertices(), 5);
        assert_eq!(f.num_edges(), 4);
        assert_eq!(f.roots(), vec![0]);
        assert_eq!(f.depth(4), 4);
        assert_eq!(f.max_depth(), 4);
        assert!(f.is_ancestor(0, 4));
        assert!(!f.is_ancestor(4, 0));
        assert_eq!(f.children_lists()[1], vec![2]);
    }

    #[test]
    fn edge_updates_respect_forest_constraints() {
        let mut f = chain(4);
        assert!(f.delete_edge(2));
        assert!(!f.delete_edge(2), "vertex 2 is already a root");
        assert_eq!(f.roots(), vec![0, 2]);
        // Attaching 2 under 3 would create a cycle (3 is in 2's subtree).
        assert!(f.insert_edge(2, 3).is_err());
        assert!(f.insert_edge(2, 1).is_ok());
        assert_eq!(f.roots(), vec![0]);
        // Non-roots cannot be attached.
        assert!(f.insert_edge(3, 0).is_err());
    }

    #[test]
    fn random_forest_respects_depth_cap() {
        let mut rng = Xoshiro256::new(3);
        let f = Forest::random(500, 0.05, 6, &mut rng);
        assert!(f.max_depth() <= 6);
        assert!(!f.roots().is_empty());
    }

    #[test]
    fn perturb_applies_the_requested_number_of_updates() {
        let mut rng = Xoshiro256::new(5);
        let f = Forest::random(200, 0.1, 8, &mut rng);
        let g = f.perturb(6, &mut rng);
        // Each update changes exactly one parent pointer.
        let changed = (0..200u32).filter(|&v| f.parent(v) != g.parent(v)).count();
        assert!((1..=6).contains(&changed));
    }

    #[test]
    fn canonical_labels_are_isomorphism_invariants() {
        // Two chains of equal length are isomorphic regardless of vertex numbering.
        let a = chain(6);
        let b = from_parents(&[Some(1), Some(2), Some(3), Some(4), Some(5), None]);
        assert!(a.is_isomorphic(&b, 9));
        // A chain and a star are not.
        let star = from_parents(&[None, Some(0), Some(0), Some(0), Some(0), Some(0)]);
        assert!(!a.is_isomorphic(&star, 9));
    }

    #[test]
    fn reconstruction_roundtrips_isomorphism_class() {
        let mut rng = Xoshiro256::new(11);
        for n in [1usize, 5, 50, 300] {
            let f = Forest::random(n, 0.15, 7, &mut rng);
            let rebuilt = reconstruct(&f.vertex_multisets(42)).unwrap();
            assert!(rebuilt.is_isomorphic(&f, 42), "n = {n}");
        }
    }

    #[test]
    fn reconstruction_handles_repeated_subtrees() {
        // A star of identical leaves and two identical chains: heavy duplication.
        let star = from_parents(&[None, Some(0), Some(0), Some(0), Some(0)]);
        let rebuilt = reconstruct(&star.vertex_multisets(1)).unwrap();
        assert!(rebuilt.is_isomorphic(&star, 1));
        let two_chains = from_parents(&[None, Some(0), Some(1), None, Some(3), Some(4)]);
        let rebuilt2 = reconstruct(&two_chains.vertex_multisets(1)).unwrap();
        assert!(rebuilt2.is_isomorphic(&two_chains, 1));
    }

    #[test]
    fn identical_forests_reconcile() {
        let mut rng = Xoshiro256::new(21);
        let f = Forest::random(400, 0.1, 6, &mut rng);
        let outcome = run_session(&f, &f, 1, 6, 5);
        assert!(outcome.recovered.is_isomorphic(&f, 5));
        assert_eq!(outcome.stats.rounds, 1);
    }

    #[test]
    fn perturbed_forests_reconcile() {
        let mut rng = Xoshiro256::new(31);
        let base = Forest::random(300, 0.1, 5, &mut rng);
        for d in [1usize, 3, 8] {
            let alice = base.perturb(d / 2, &mut rng);
            let bob = base.perturb(d - d / 2, &mut rng);
            let sigma = alice.max_depth().max(bob.max_depth()).max(1);
            let outcome = run_session(&alice, &bob, d, sigma, 100 + d as u64);
            assert!(outcome.recovered.is_isomorphic(&alice, 100 + d as u64), "d = {d}");
            assert!(outcome.stats.total_bytes() > 0);
        }
    }

    #[test]
    fn communication_scales_with_d_sigma_not_n() {
        let mut rng = Xoshiro256::new(41);
        let small = Forest::random(200, 0.1, 5, &mut rng);
        let large = Forest::random(2000, 0.1, 5, &mut rng);
        let small_alice = small.perturb(2, &mut rng);
        let large_alice = large.perturb(2, &mut rng);
        let small_stats = run_session(&small_alice, &small, 2, 6, 7).stats;
        let large_stats = run_session(&large_alice, &large, 2, 6, 7).stats;
        // Ten times more vertices should not mean ten times more communication.
        assert!(
            large_stats.total_bytes() < 4 * small_stats.total_bytes(),
            "{} vs {}",
            large_stats.total_bytes(),
            small_stats.total_bytes()
        );
    }
}
