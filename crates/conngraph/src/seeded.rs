//! Restricted component labelling: flood-fill `G_t(r)` only where a
//! caller will read it, labelling a subset of the components exactly as
//! the full build would.
//!
//! This is the frontier-sparse half of the connectivity engine, with two
//! covers:
//!
//! * **Seeded** ([`components_from_seeds_on`]): every component that
//!   contains a seed, flood-filled from the seeds.
//! * **Boundary** ([`components_on_boundary_by`]): every component that
//!   holds both a set and an unset bit of a set — for a broadcast, the
//!   components mixing informed and uninformed agents, the only ones an
//!   exchange can change. Below the percolation point those are rare on
//!   almost every step (the walks must meet first), and finding them
//!   costs a candidate scan of the smaller side of the set only.
//!
//! On the components it covers, either labelling is *identical* to the
//! full [`components`](crate::components) build: same member lists in
//! the same order, with dense component ids assigned in first-agent
//! order among the covered components (the property tests in
//! `tests/proptests.rs` and `tests/hetero_contact_proptests.rs` pin this
//! against arbitrary layouts, radii, walls and sets). Agents in uncovered
//! components keep the sentinel label [`Components::NO_LABEL`] and
//! appear in no member list.

use sparsegossip_grid::Point;
use sparsegossip_walks::BitSet;

use crate::{Components, ComponentsScratch, Contact, SpatialHash, UniformContact};

/// Reusable buffers for seeded and boundary labelling: the BFS queue,
/// the list of touched agents, the label remap table, the counting-sort
/// cursor and the [`Components`] under construction.
///
/// One scratch amortizes every per-step restricted labelling of a
/// simulation: after warm-up, a call performs no heap allocation, and
/// its cost is proportional to the covered components (previously
/// covered labels are un-set one by one rather than by an O(k) sweep).
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::{components_from_seeds_on, SeededScratch, SpatialHash};
/// use sparsegossip_grid::Point;
/// use sparsegossip_walks::BitSet;
///
/// let pts = [Point::new(0, 0), Point::new(0, 1), Point::new(9, 9)];
/// let hash = SpatialHash::build(&pts, 1, 10);
/// let mut seeds = BitSet::new(3);
/// seeds.insert(0);
/// let mut scratch = SeededScratch::new();
/// let comps = components_from_seeds_on(&hash, &mut scratch, &pts, &seeds, 1);
/// // Only the component {0, 1} contains a seed; agent 2 is uncovered.
/// assert_eq!(comps.count(), 1);
/// assert_eq!(comps.members(0), &[0, 1]);
/// assert!(!comps.is_covered(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SeededScratch {
    /// BFS work stack of agents whose neighborhoods are unscanned.
    queue: Vec<u32>,
    /// Every agent reached from a seed, in discovery order (sorted
    /// before the canonical rebuild).
    touched: Vec<u32>,
    /// Discovery-order label → canonical dense label.
    remap: Vec<u32>,
    /// Counting-sort cursor over component offsets.
    cursor: Vec<u32>,
    /// The partition under construction. Invariant between calls:
    /// exactly the agents in `comps.members` carry a non-sentinel
    /// label, so clearing costs O(covered), not O(k).
    comps: Components,
}

impl SeededScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the scratch, yielding the most recently built partition.
    #[must_use]
    pub fn into_components(self) -> Components {
        self.comps
    }
}

/// Computes the components of `G_t(r)` that contain at least one seed,
/// flood-filling over the buckets of an already-built (or incrementally
/// maintained) `hash`.
///
/// The `hash` must describe exactly `positions` — the pairing produced
/// by [`SpatialHash::build`]/[`rebuild`](SpatialHash::rebuild) on these
/// positions, possibly relocated through
/// [`apply_moves`](SpatialHash::apply_moves) as the positions changed.
/// `r` must be at most the hash's build radius (equal, in the intended
/// per-step use).
///
/// On the covered components the result is identical to the full
/// [`components`](crate::components) partition: the same member slices
/// in the same order, with dense ids in first-agent order among covered
/// components. Uncovered agents keep [`Components::NO_LABEL`] and the
/// partition's [`count`](Components::count)/[`iter`](Components::iter)
/// span only the covered components.
///
/// # Panics
///
/// Panics if `seeds.len() != positions.len()` or if the hash holds a
/// different number of agents than `positions`.
// detlint: hot
pub fn components_from_seeds_on<'a>(
    hash: &SpatialHash,
    scratch: &'a mut SeededScratch,
    positions: &[Point],
    seeds: &BitSet,
    r: u32,
) -> &'a Components {
    components_from_seeds_on_by(hash, scratch, positions, seeds, &UniformContact(r))
}

/// Computes the seed-containing components of the contact graph over an
/// already-built `hash`, under an arbitrary [`Contact`] model — the
/// heterogeneous counterpart of [`components_from_seeds_on`] (which is
/// this function at [`UniformContact`]).
///
/// The hash's bucket radius must bound the contact model's reach, so
/// the 3×3 candidate scan remains a superset of every accepted pair.
/// The equivalence contract is unchanged: on covered components the
/// result matches the full partition under the same contact model
/// (e.g. [`components_brute_by`](crate::components_brute_by)).
///
/// # Panics
///
/// As [`components_from_seeds_on`].
// detlint: hot
pub fn components_from_seeds_on_by<'a, C: Contact>(
    hash: &SpatialHash,
    scratch: &'a mut SeededScratch,
    positions: &[Point],
    seeds: &BitSet,
    contact: &C,
) -> &'a Components {
    let k = positions.len();
    assert_eq!(seeds.len(), k, "seed set capacity mismatch");
    assert_eq!(hash.num_agents(), k, "hash agent count mismatch");
    scratch.begin(k);
    // Flood fill from the seeds, assigning discovery-order labels.
    // Visit order does not matter: the rebuild below canonicalizes.
    let mut discovered = 0u32;
    for s in seeds.iter_ones() {
        if scratch.comps.labels[s] == Components::NO_LABEL {
            scratch.flood(hash, positions, contact, s as u32, discovered);
            discovered += 1;
        }
    }
    scratch.canonicalize(discovered)
}

/// Computes exactly the *boundary* components of the contact graph over
/// an already-built `hash`: the components holding both a set and an
/// unset bit of `set` (typically the informed agents of a broadcast).
///
/// A component is a boundary component iff it contains a contact edge
/// between a set and an unset agent, and one end of every such edge
/// lies on the smaller side of `set`. So the labeller iterates only the
/// smaller of the set and unset bits, scans each not-yet-labelled
/// agent's hash candidates for a contact of the opposite status, and
/// flood-fills a component only when one is found — no component that
/// is entirely set, or entirely unset, is ever flooded. Per-call work
/// is proportional to the smaller side's neighborhood plus the boundary
/// components, instead of the whole seeded cover.
///
/// The hash requirements and the output contract are those of
/// [`components_from_seeds_on_by`]: on the covered (here: boundary)
/// components the result is identical to the full partition under the
/// same contact model — the same member slices in the same order, with
/// dense ids in first-agent order among the covered components — and
/// every other agent keeps [`Components::NO_LABEL`]. `contact` must be
/// symmetric (the [`Contact`] contract); the scan relies on it.
///
/// # Panics
///
/// Panics if `set.len() != positions.len()` or if the hash holds a
/// different number of agents than `positions`.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::{components_on_boundary_by, SeededScratch, SpatialHash, UniformContact};
/// use sparsegossip_grid::Point;
/// use sparsegossip_walks::BitSet;
///
/// // At r = 1: {0, 1} mixes an informed and an uninformed agent, {2, 3}
/// // is entirely informed and {4} is uninformed.
/// let pts = [
///     Point::new(0, 0),
///     Point::new(0, 1),
///     Point::new(5, 5),
///     Point::new(5, 6),
///     Point::new(9, 9),
/// ];
/// let hash = SpatialHash::build(&pts, 1, 10);
/// let mut informed = BitSet::new(5);
/// informed.extend([1, 2, 3]);
/// let mut scratch = SeededScratch::new();
/// let comps = components_on_boundary_by(&hash, &mut scratch, &pts, &informed, &UniformContact(1));
/// // Only the mixed component {0, 1} is a boundary component.
/// assert_eq!(comps.count(), 1);
/// assert_eq!(comps.members(0), &[0, 1]);
/// assert!(!comps.is_covered(2) && !comps.is_covered(4));
/// ```
// detlint: hot
pub fn components_on_boundary_by<'a, C: Contact>(
    hash: &SpatialHash,
    scratch: &'a mut SeededScratch,
    positions: &[Point],
    set: &BitSet,
    contact: &C,
) -> &'a Components {
    let k = positions.len();
    assert_eq!(set.len(), k, "set capacity mismatch");
    assert_eq!(hash.num_agents(), k, "hash agent count mismatch");
    scratch.begin(k);
    let ones = set.count_ones();
    let discovered = if ones <= k - ones {
        scratch.label_boundary(hash, positions, set, contact, set.iter_ones(), true)
    } else {
        scratch.label_boundary(hash, positions, set, contact, set.iter_zeros(), false)
    };
    scratch.canonicalize(discovered)
}

// detlint: hot
impl SeededScratch {
    /// Readies the scratch for a labelling over `k` agents: resets the
    /// sentinel labels (touching only what the previous call covered)
    /// and empties the partition under construction.
    fn begin(&mut self, k: usize) {
        let comps = &mut self.comps;
        if comps.labels.len() == k {
            for &m in &comps.members {
                comps.labels[m as usize] = Components::NO_LABEL;
            }
        } else {
            comps.labels.clear();
            comps.labels.resize(k, Components::NO_LABEL);
            // One-time pre-reservation at the new working size: coverage
            // can only grow toward k, and reserving everything now keeps
            // every later call allocation-free no matter how the covered
            // frontier grows between calls.
            self.queue.reserve(k);
            self.touched.reserve(k);
            self.remap.reserve(k);
            self.cursor.reserve(k + 1);
            comps.sizes.reserve(k);
            comps.members.reserve(k);
            comps.offsets.reserve(k + 1);
        }
        comps.sizes.clear();
        comps.members.clear();
        comps.offsets.clear();
        self.touched.clear();
    }

    /// Flood-fills the (unlabelled) component of agent `s`, giving every
    /// member the discovery-order label `tmp` and recording it in
    /// `touched`.
    #[inline]
    fn flood<C: Contact>(
        &mut self,
        hash: &SpatialHash,
        positions: &[Point],
        contact: &C,
        s: u32,
        tmp: u32,
    ) {
        let labels = &mut self.comps.labels;
        labels[s as usize] = tmp;
        self.touched.push(s);
        self.queue.push(s);
        while let Some(a) = self.queue.pop() {
            let pa = positions[a as usize];
            hash.any_candidate(pa, |b| {
                if labels[b as usize] == Components::NO_LABEL
                    && contact.in_contact(a as usize, b as usize, pa, positions[b as usize])
                {
                    labels[b as usize] = tmp;
                    self.touched.push(b);
                    self.queue.push(b);
                }
                false
            });
        }
    }

    /// Scans the agents of one side of `set` (`side` yields them, and
    /// `inside` is their membership) and floods the component of each
    /// unlabelled one that has a contact on the other side; returns the
    /// number of components flooded.
    #[inline]
    fn label_boundary<C: Contact>(
        &mut self,
        hash: &SpatialHash,
        positions: &[Point],
        set: &BitSet,
        contact: &C,
        side: impl Iterator<Item = usize>,
        inside: bool,
    ) -> u32 {
        let mut discovered = 0u32;
        for a in side {
            if self.comps.labels[a] != Components::NO_LABEL {
                continue;
            }
            let pa = positions[a];
            // An unlabelled agent's contacts are unlabelled too, so the
            // scan needs no label test.
            let crosses = hash.any_candidate(pa, |b| {
                set.contains(b as usize) != inside
                    && contact.in_contact(a, b as usize, pa, positions[b as usize])
            });
            if crosses {
                self.flood(hash, positions, contact, a as u32, discovered);
                discovered += 1;
            }
        }
        discovered
    }

    /// Turns the `discovered` flood-filled components into the canonical
    /// partition: walks the covered agents in increasing agent order,
    /// assigning dense ids at first encounter — exactly the full build's
    /// labelling rule, restricted to the covered components — then
    /// groups the members by id.
    fn canonicalize(&mut self, discovered: u32) -> &Components {
        let comps = &mut self.comps;
        self.touched.sort_unstable();
        self.remap.clear();
        self.remap.resize(discovered as usize, Components::NO_LABEL);
        for &a in &self.touched {
            let tmp = comps.labels[a as usize] as usize;
            if self.remap[tmp] == Components::NO_LABEL {
                self.remap[tmp] = comps.sizes.len() as u32;
                comps.sizes.push(0);
            }
            let lab = self.remap[tmp];
            comps.labels[a as usize] = lab;
            comps.sizes[lab as usize] += 1;
        }
        comps.offsets.resize(comps.sizes.len() + 1, 0);
        for c in 0..comps.sizes.len() {
            comps.offsets[c + 1] = comps.offsets[c] + comps.sizes[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&comps.offsets);
        comps.members.resize(self.touched.len(), 0);
        for &a in &self.touched {
            let lab = comps.labels[a as usize] as usize;
            comps.members[self.cursor[lab] as usize] = a;
            self.cursor[lab] += 1;
        }
        comps
    }
}

/// Computes the seed-containing components of `G_t(r)` inside
/// `scratch`, rebuilding the spatial hash from `positions` first — the
/// seed-restricted counterpart of
/// [`components_into`](crate::components_into).
///
/// See [`components_from_seeds_on`] for the equivalence contract; use
/// that entry point directly to label over an incrementally maintained
/// hash instead of rebuilding one.
///
/// # Panics
///
/// As [`components`](crate::components) and
/// [`components_from_seeds_on`].
pub fn components_from_seeds_into<'a>(
    scratch: &'a mut ComponentsScratch,
    positions: &[Point],
    seeds: &BitSet,
    r: u32,
    side: u32,
) -> &'a Components {
    let hash = SpatialHash::build_into(&mut scratch.spatial, positions, r, side);
    components_from_seeds_on(hash, &mut scratch.seeded, positions, seeds, r)
}

/// Computes the seed-containing components of `G_t(r)`, allocating a
/// fresh partition — the seed-restricted counterpart of
/// [`components`](crate::components).
///
/// # Panics
///
/// As [`components_from_seeds_into`].
#[must_use]
pub fn components_from_seeds(positions: &[Point], seeds: &BitSet, r: u32, side: u32) -> Components {
    let hash = SpatialHash::build(positions, r, side);
    let mut scratch = SeededScratch::new();
    components_from_seeds_on(&hash, &mut scratch, positions, seeds, r);
    scratch.into_components()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;

    fn seeds_of(k: usize, on: &[usize]) -> BitSet {
        let mut s = BitSet::new(k);
        for &i in on {
            s.insert(i);
        }
        s
    }

    #[test]
    fn covers_exactly_seed_components() {
        // Three components at r = 1: {0,1}, {2}, {3,4}.
        let pts = [
            Point::new(0, 0),
            Point::new(0, 1),
            Point::new(5, 5),
            Point::new(9, 9),
            Point::new(9, 8),
        ];
        let c = components_from_seeds(&pts, &seeds_of(5, &[4]), 1, 10);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members(0), &[3, 4]);
        assert_eq!(c.num_agents(), 5);
        for i in 0..3 {
            assert!(!c.is_covered(i));
            assert_eq!(c.label_of(i), Components::NO_LABEL);
        }
        assert_eq!(c.size_of_agent(3), 2);
    }

    #[test]
    fn component_ids_are_first_agent_ordered() {
        // Seeds in reverse order must not change the canonical ids.
        let pts = [
            Point::new(0, 0),
            Point::new(4, 4),
            Point::new(8, 8),
            Point::new(0, 1),
        ];
        let c = components_from_seeds(&pts, &seeds_of(4, &[2, 3]), 1, 10);
        assert_eq!(c.count(), 2);
        // Component of agent 0 (members {0, 3}) comes first.
        assert_eq!(c.members(0), &[0, 3]);
        assert_eq!(c.members(1), &[2]);
    }

    #[test]
    fn all_seeds_reproduces_the_full_partition() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i * 13) % 16, (i * 7) % 16))
            .collect();
        let mut all = BitSet::new(40);
        all.set_all();
        for r in [0u32, 1, 2, 5] {
            let seeded = components_from_seeds(&pts, &all, r, 16);
            let full = components(&pts, r, 16);
            assert_eq!(seeded, full, "r={r}");
        }
    }

    #[test]
    fn empty_seed_set_covers_nothing() {
        let pts = [Point::new(0, 0), Point::new(0, 1)];
        let c = components_from_seeds(&pts, &BitSet::new(2), 1, 4);
        assert_eq!(c.count(), 0);
        assert_eq!(c.num_agents(), 2);
        assert!(!c.is_covered(0));
    }

    #[test]
    fn scratch_reuse_never_leaks_previous_coverage() {
        // A big covered set followed by a tiny one: stale labels or
        // member lists from the first call must not survive.
        let pts: Vec<Point> = (0..30).map(|i| Point::new(i % 6, i / 6)).collect();
        let hash = SpatialHash::build(&pts, 2, 8);
        let mut all = BitSet::new(30);
        all.set_all();
        let mut scratch = SeededScratch::new();
        components_from_seeds_on(&hash, &mut scratch, &pts, &all, 2);
        let far = [Point::new(0, 0), Point::new(7, 7)];
        let far_hash = SpatialHash::build(&far, 0, 8);
        let c = components_from_seeds_on(&far_hash, &mut scratch, &far, &seeds_of(2, &[1]), 0);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members(0), &[1]);
        assert!(!c.is_covered(0));
    }

    #[test]
    fn works_over_an_incrementally_maintained_hash() {
        let mut pts = vec![Point::new(0, 0), Point::new(3, 0), Point::new(7, 7)];
        let mut hash = SpatialHash::build(&pts, 1, 8);
        let mut scratch = SeededScratch::new();
        // Initially agent 1 is isolated from agent 0.
        let c = components_from_seeds_on(&hash, &mut scratch, &pts, &seeds_of(3, &[0]), 1);
        assert_eq!(c.members(0), &[0]);
        // Agent 1 walks next to agent 0; the maintained hash must see it.
        let moves = [(1u32, Point::new(3, 0), Point::new(1, 0))];
        pts[1] = Point::new(1, 0);
        hash.apply_moves(&moves);
        let c = components_from_seeds_on(&hash, &mut scratch, &pts, &seeds_of(3, &[0]), 1);
        assert_eq!(c.members(0), &[0, 1]);
        assert!(!c.is_covered(2));
    }

    #[test]
    #[should_panic(expected = "seed set capacity mismatch")]
    fn rejects_mismatched_seed_capacity() {
        let pts = [Point::new(0, 0)];
        let _ = components_from_seeds(&pts, &BitSet::new(2), 1, 4);
    }
}
