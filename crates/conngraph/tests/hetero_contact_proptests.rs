//! Property tests for the heterogeneous-radius contact model: the
//! spatial-hash candidate filtering (bucket size = max radius, pairs
//! accepted by the symmetric `min(r_i, r_j)` rule) must agree exactly
//! with the O(k²) brute-force reference on arbitrary configurations —
//! including `r = 0` agents — on the full partition, the seeded path
//! over an incrementally maintained hash, the boundary path (with and
//! without walls), and the full partition over a maintained hash.

use proptest::prelude::*;
use sparsegossip_conngraph::{
    components_brute_by, components_from_seeds_on_by, components_into_by,
    components_on_boundary_by, components_on_by, Components, ComponentsScratch, Contact,
    RadiiContact, SeededScratch, SpatialHash, UniformContact,
};
use sparsegossip_grid::{BarrierGrid, Point};
use sparsegossip_walks::BitSet;

/// Per-agent radii under the `min` rule, obstructed by city-block walls:
/// a pair is in contact only if some L-shaped path between them is open
/// (symmetric, like the world contact model of the simulator).
struct WalledRadii<'a> {
    radii: &'a [u32],
    walls: &'a BarrierGrid,
}

impl Contact for WalledRadii<'_> {
    fn in_contact(&self, a: usize, b: usize, pa: Point, pb: Point) -> bool {
        RadiiContact(self.radii).in_contact(a, b, pa, pb) && self.walls.l_path_open(pa, pb)
    }
}

/// Asserts that `boundary` is `full` restricted to the components
/// holding both a set and an unset bit of `set`, with identical member
/// slices in first-agent order and the sentinel label everywhere else.
fn assert_boundary_restriction(boundary: &Components, full: &Components, set: &BitSet) {
    let is_boundary: Vec<bool> = full
        .iter()
        .map(|m| {
            m.iter().any(|&a| set.contains(a as usize))
                && m.iter().any(|&a| !set.contains(a as usize))
        })
        .collect();
    let covered: Vec<usize> = (0..full.count()).filter(|&c| is_boundary[c]).collect();
    prop_assert_eq!(boundary.num_agents(), full.num_agents());
    prop_assert_eq!(boundary.count(), covered.len());
    for (bc, &fc) in covered.iter().enumerate() {
        prop_assert_eq!(boundary.members(bc), full.members(fc));
    }
    for i in 0..full.num_agents() {
        let on = is_boundary[full.label_of(i) as usize];
        prop_assert_eq!(boundary.is_covered(i), on);
        if !on {
            prop_assert_eq!(boundary.label_of(i), Components::NO_LABEL);
        }
    }
}

/// Arbitrary side, agent layout, per-agent radii (zeros included) and
/// seed mask.
fn arb_hetero_layout() -> impl Strategy<Value = (Vec<Point>, Vec<u32>, u32, Vec<bool>)> {
    (1u32..40).prop_flat_map(|side| {
        proptest::collection::vec((0..side, 0..side), 0..60).prop_flat_map(move |coords| {
            let k = coords.len();
            let positions: Vec<Point> = coords.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            (
                Just(positions),
                proptest::collection::vec(0u32..12, k..k + 1),
                Just(side),
                proptest::collection::vec(any::<bool>(), k..k + 1),
            )
        })
    })
}

fn seeds_from_mask(mask: &[bool], k: usize) -> BitSet {
    let mut seeds = BitSet::new(k);
    for (i, &on) in mask.iter().enumerate().take(k) {
        if on {
            seeds.insert(i);
        }
    }
    seeds
}

/// Random batches of logged moves. Per entry `(a, kind, x, y)`, agent
/// `a % k` takes a clamped unit step in direction `x % 4` (kind 0:
/// within or across a bucket), teleports to `(x % side, y % side)`
/// (kind 1: usually a bucket crossing, which empties the old bucket
/// when the agent was alone there), or holds (kind 2). An agent may
/// move several times in one batch.
fn arb_move_batches() -> impl Strategy<Value = Vec<Vec<(u16, u8, u16, u16)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u16>(), 0u8..3, any::<u16>(), any::<u16>()), 0..80),
        0..6,
    )
}

/// Applies one batch of [`arb_move_batches`] to `positions`, logging
/// each actual move in `moves` (cleared first).
fn apply_batch(
    positions: &mut [Point],
    batch: &[(u16, u8, u16, u16)],
    side: u32,
    moves: &mut Vec<(u32, Point, Point)>,
) {
    moves.clear();
    if positions.is_empty() {
        return;
    }
    for &(a, kind, x, y) in batch {
        let i = usize::from(a) % positions.len();
        let from = positions[i];
        let to = match (kind, x % 4) {
            (0, 0) if from.y + 1 < side => Point::new(from.x, from.y + 1),
            (0, 1) if from.x + 1 < side => Point::new(from.x + 1, from.y),
            (0, 2) if from.y > 0 => Point::new(from.x, from.y - 1),
            (0, 3) if from.x > 0 => Point::new(from.x - 1, from.y),
            (1, _) => Point::new(u32::from(x) % side, u32::from(y) % side),
            _ => from,
        };
        if to != from {
            positions[i] = to;
            moves.push((i as u32, from, to));
        }
    }
}

fn max_radius(radii: &[u32]) -> u32 {
    radii.iter().copied().max().unwrap_or(0)
}

proptest! {
    #[test]
    fn hetero_hashed_equals_brute_force(
        (positions, radii, side, _mask) in arb_hetero_layout(),
    ) {
        let contact = RadiiContact(&radii);
        let mut scratch = ComponentsScratch::new();
        let fast =
            components_into_by(&mut scratch, &positions, &contact, max_radius(&radii), side)
                .clone();
        let brute = components_brute_by(&positions, &contact, side);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn hetero_contact_is_symmetric_and_min_ruled(
        (positions, radii, side, _mask) in arb_hetero_layout(),
    ) {
        let contact = RadiiContact(&radii);
        let c = components_brute_by(&positions, &contact, side);
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                let fwd = contact.in_contact(i, j, positions[i], positions[j]);
                let bwd = contact.in_contact(j, i, positions[j], positions[i]);
                prop_assert_eq!(fwd, bwd, "asymmetric contact for ({}, {})", i, j);
                let d = positions[i].manhattan(positions[j]);
                prop_assert_eq!(fwd, d <= radii[i].min(radii[j]));
                if fwd {
                    prop_assert_eq!(c.label_of(i), c.label_of(j));
                }
            }
        }
    }

    #[test]
    fn zero_radius_agents_connect_only_colocated(
        (positions, mut radii, side, _mask) in arb_hetero_layout(),
    ) {
        // Force a zero-radius agent into every non-empty configuration.
        if let Some(first) = radii.first_mut() {
            *first = 0;
        }
        let contact = RadiiContact(&radii);
        let c = components_brute_by(&positions, &contact, side);
        for j in 1..positions.len() {
            if positions[0].manhattan(positions[j]) > 0 {
                // Agent 0 reaches j only through other agents, never
                // directly; at distance > 0 a direct edge is impossible.
                prop_assert!(!contact.in_contact(0, j, positions[0], positions[j]));
            } else {
                prop_assert_eq!(c.label_of(0), c.label_of(j));
            }
        }
    }

    #[test]
    fn hetero_seeded_matches_full_on_seed_components(
        (positions, radii, side, mask) in arb_hetero_layout(),
    ) {
        let k = positions.len();
        let contact = RadiiContact(&radii);
        let seeds = seeds_from_mask(&mask, k);
        let full = components_brute_by(&positions, &contact, side);
        let hash = SpatialHash::build(&positions, max_radius(&radii), side);
        let mut scratch = SeededScratch::new();
        let seeded =
            components_from_seeds_on_by(&hash, &mut scratch, &positions, &seeds, &contact)
                .clone();
        prop_assert_eq!(seeded.num_agents(), k);

        let mut full_has_seed = vec![false; full.count()];
        for s in seeds.iter_ones() {
            full_has_seed[full.label_of(s) as usize] = true;
        }
        let covered: Vec<usize> = (0..full.count()).filter(|&c| full_has_seed[c]).collect();
        prop_assert_eq!(seeded.count(), covered.len());
        for (sc, &fc) in covered.iter().enumerate() {
            prop_assert_eq!(seeded.members(sc), full.members(fc));
        }
        for i in 0..k {
            let in_seeded = full_has_seed[full.label_of(i) as usize];
            prop_assert_eq!(seeded.is_covered(i), in_seeded);
            if !in_seeded {
                prop_assert_eq!(seeded.label_of(i), Components::NO_LABEL);
            }
        }
    }

    #[test]
    fn hetero_seeded_survives_incremental_hash_maintenance(
        (positions, radii, side, mask) in arb_hetero_layout(),
        walk in proptest::collection::vec(proptest::collection::vec(0u8..10, 0..60), 0..6),
    ) {
        // The frontier-sparse production path: a hash maintained move by
        // move (bucket radius = max agent radius) driving the seeded
        // labelling must equal the brute-force partition every step.
        let k = positions.len();
        let contact = RadiiContact(&radii);
        let seeds = seeds_from_mask(&mask, k);
        let r_max = max_radius(&radii);
        let mut positions = positions;
        let mut hash = SpatialHash::build(&positions, r_max, side);
        let mut scratch = SeededScratch::new();
        let mut moves = Vec::new();
        for step in &walk {
            moves.clear();
            for (i, &dir) in step.iter().enumerate().take(k) {
                let from = positions[i];
                let to = match dir {
                    0 if from.y + 1 < side => Point::new(from.x, from.y + 1),
                    1 if from.x + 1 < side => Point::new(from.x + 1, from.y),
                    2 if from.y > 0 => Point::new(from.x, from.y - 1),
                    3 if from.x > 0 => Point::new(from.x - 1, from.y),
                    _ => from,
                };
                if to != from {
                    positions[i] = to;
                    moves.push((i as u32, from, to));
                }
            }
            hash.apply_moves(&moves);
            let seeded =
                components_from_seeds_on_by(&hash, &mut scratch, &positions, &seeds, &contact);
            let full = components_brute_by(&positions, &contact, side);
            for s in seeds.iter_ones() {
                prop_assert_eq!(
                    seeded.members(seeded.label_of(s) as usize),
                    full.members(full.label_of(s) as usize),
                    "seed {} component diverged", s
                );
            }
        }
    }

    #[test]
    fn hetero_boundary_matches_full_on_boundary_components(
        (positions, radii, side, mask) in arb_hetero_layout(),
        density_pct in 0u32..101,
    ) {
        // Heterogeneous radii, with and without walls, for the set, its
        // complement, and the empty and full sets.
        let k = positions.len();
        let walls = BarrierGrid::city_blocks(side, f64::from(density_pct) / 100.0).unwrap();
        let hash = SpatialHash::build(&positions, max_radius(&radii), side);
        let mut scratch = SeededScratch::new();
        let flipped: Vec<bool> = mask.iter().map(|&on| !on).collect();
        let sets = [
            seeds_from_mask(&mask, k),
            seeds_from_mask(&flipped, k),
            BitSet::new(k),
            seeds_from_mask(&vec![true; k], k),
        ];
        let radii_only = RadiiContact(&radii);
        let walled = WalledRadii { radii: &radii, walls: &walls };
        let full = components_brute_by(&positions, &radii_only, side);
        for set in &sets {
            let b = components_on_boundary_by(&hash, &mut scratch, &positions, set, &radii_only);
            assert_boundary_restriction(b, &full, set);
        }
        let full = components_brute_by(&positions, &walled, side);
        for set in &sets {
            let b = components_on_boundary_by(&hash, &mut scratch, &positions, set, &walled);
            assert_boundary_restriction(b, &full, set);
        }
    }

    #[test]
    fn hetero_boundary_survives_incremental_hash_maintenance(
        (positions, radii, side, mask) in arb_hetero_layout(),
        walk in proptest::collection::vec(proptest::collection::vec(0u8..10, 0..60), 0..6),
        density_pct in 0u32..101,
    ) {
        // The production path: a walled, heterogeneous world over a hash
        // maintained move by move, with the set growing by the boundary
        // components' members each step, as a broadcast floods them.
        let k = positions.len();
        let walls = BarrierGrid::city_blocks(side, f64::from(density_pct) / 100.0).unwrap();
        let contact = WalledRadii { radii: &radii, walls: &walls };
        let mut set = seeds_from_mask(&mask, k);
        let mut positions = positions;
        let mut hash = SpatialHash::build(&positions, max_radius(&radii), side);
        let mut scratch = SeededScratch::new();
        let mut moves = Vec::new();
        for step in &walk {
            moves.clear();
            for (i, &dir) in step.iter().enumerate().take(k) {
                let from = positions[i];
                let to = match dir {
                    0 if from.y + 1 < side => Point::new(from.x, from.y + 1),
                    1 if from.x + 1 < side => Point::new(from.x + 1, from.y),
                    2 if from.y > 0 => Point::new(from.x, from.y - 1),
                    3 if from.x > 0 => Point::new(from.x - 1, from.y),
                    _ => from,
                };
                if to != from {
                    positions[i] = to;
                    moves.push((i as u32, from, to));
                }
            }
            hash.apply_moves(&moves);
            let b = components_on_boundary_by(&hash, &mut scratch, &positions, &set, &contact);
            let full = components_brute_by(&positions, &contact, side);
            assert_boundary_restriction(b, &full, &set);
            let flooded: Vec<u32> = b.iter().flatten().copied().collect();
            set.extend(flooded.iter().map(|&a| a as usize));
        }
    }

    #[test]
    fn hetero_full_labelling_over_maintained_hash_equals_brute_force(
        (positions, radii, side, _mask) in arb_hetero_layout(),
        batches in arb_move_batches(),
        density_pct in 0u32..101,
    ) {
        // Heterogeneous radii (zeros included), without and with
        // city-block walls: after every batch, the full partition over
        // the linked hash and the rebuilding `components_into_by` must
        // both equal brute force.
        let walls = BarrierGrid::city_blocks(side, f64::from(density_pct) / 100.0).unwrap();
        let radii_only = RadiiContact(&radii);
        let walled = WalledRadii { radii: &radii, walls: &walls };
        let r_max = max_radius(&radii);
        let mut positions = positions;
        let mut hash = SpatialHash::build(&positions, r_max, side);
        let mut scratch = ComponentsScratch::new();
        let mut rebuilt = ComponentsScratch::new();
        let mut moves = Vec::new();
        for batch in &batches {
            apply_batch(&mut positions, batch, side, &mut moves);
            hash.apply_moves(&moves);
            let brute = components_brute_by(&positions, &radii_only, side);
            prop_assert_eq!(components_on_by(&hash, &mut scratch, &positions, &radii_only), &brute);
            prop_assert_eq!(
                components_into_by(&mut rebuilt, &positions, &radii_only, r_max, side),
                &brute
            );
            let brute = components_brute_by(&positions, &walled, side);
            prop_assert_eq!(components_on_by(&hash, &mut scratch, &positions, &walled), &brute);
            prop_assert_eq!(
                components_into_by(&mut rebuilt, &positions, &walled, r_max, side),
                &brute
            );
        }
    }

    #[test]
    fn equal_radii_reduce_to_the_uniform_model(
        (positions, _radii, side, _mask) in arb_hetero_layout(),
        r in 0u32..12,
    ) {
        let radii = vec![r; positions.len()];
        let hetero = components_brute_by(&positions, &RadiiContact(&radii), side);
        let uniform = components_brute_by(&positions, &UniformContact(r), side);
        prop_assert_eq!(hetero, uniform);
    }
}
