use sparsegossip_grid::Point;

/// A bucket grid for radius-limited proximity queries among agents.
///
/// Buckets have side `max(r, 1)`, so any two points at Manhattan
/// distance ≤ `r` fall in the same or in 8-adjacent buckets, and the
/// component builder only needs to examine a constant number of buckets
/// per agent. Construction is O(#buckets + k); the memory is
/// O(#buckets + k).
///
/// The hash has two storage modes with identical contents:
///
/// * **Grouped** (after [`build`](SpatialHash::build) /
///   [`rebuild`](SpatialHash::rebuild)): one shared counting-sorted
///   arena, so a steady-state rebuild into warm buffers performs zero
///   heap allocation and [`bucket_agents`](SpatialHash::bucket_agents)
///   hands out slices.
/// * **Linked** (after [`apply_moves`](SpatialHash::apply_moves)): a
///   per-bucket sorted linked list over two fixed-size arrays, so
///   relocating an agent touches O(bucket size) cells and allocates
///   nothing — ever — no matter how bucket occupancies drift.
///
/// [`candidates`](SpatialHash::candidates) and
/// [`bucket_agents_iter`](SpatialHash::bucket_agents_iter) iterate
/// identically in both modes (increasing agent order per bucket).
///
/// # Examples
///
/// ```
/// use sparsegossip_grid::Point;
/// use sparsegossip_conngraph::SpatialHash;
///
/// let pts = [Point::new(0, 0), Point::new(3, 3), Point::new(0, 1)];
/// let hash = SpatialHash::build(&pts, 2, 8);
/// // Buckets have side 2, so bucket (0,0) covers x,y ∈ {0,1} and holds
/// // agents 0 and 2; (3,3) falls in bucket (1,1).
/// assert_eq!(hash.bucket_agents(0, 0), &[0, 2]);
/// assert_eq!(hash.bucket_agents(1, 1), &[1]);
/// ```
#[derive(Clone, Debug)]
pub struct SpatialHash {
    /// Bucket side length (`max(r, 1)`).
    bucket_side: u32,
    /// Number of buckets along each axis.
    buckets_per_side: u32,
    /// The grid side the hash was built for.
    side: u32,
    /// Agent indices, grouped by bucket (counting-sorted). Grouped mode.
    agents: Vec<u32>,
    /// Start offset of each bucket in `agents`; length `buckets² + 1`.
    /// Grouped mode.
    offsets: Vec<u32>,
    /// Counting-sort cursor, kept for allocation-free rebuilds.
    cursor: Vec<u32>,
    /// Indices of buckets holding at least one agent, in first-touch
    /// order. Lets scans run in O(k) instead of O(#buckets) — decisive
    /// in the contact-only regime (`r = 0`), where there are `n ≫ k`
    /// buckets. Grouped mode.
    occupied: Vec<u32>,
    /// Whether the hash is in linked mode (the grouped arrays are stale
    /// and `head`/`next` are authoritative).
    linked: bool,
    /// First agent of each bucket (`NO_AGENT` when empty); length
    /// `buckets²`. Linked mode.
    head: Vec<u32>,
    /// Next agent in the same bucket, in increasing agent order
    /// (`NO_AGENT` at the end); length `k`. Linked mode.
    next: Vec<u32>,
}

/// List terminator / empty-bucket marker for the linked mode.
const NO_AGENT: u32 = u32::MAX;

/// Reusable buffers for [`SpatialHash::build_into`]: the hash under
/// construction.
///
/// One scratch amortizes every per-step hash rebuild of a simulation —
/// after the first build at a given size, rebuilding is allocation-free.
///
/// # Examples
///
/// ```
/// use sparsegossip_grid::Point;
/// use sparsegossip_conngraph::{SpatialHash, SpatialScratch};
///
/// let mut scratch = SpatialScratch::new();
/// let pts = [Point::new(0, 0), Point::new(3, 3)];
/// let hash = SpatialHash::build_into(&mut scratch, &pts, 2, 8);
/// assert_eq!(hash.bucket_agents(0, 0), &[0]);
/// // The same scratch serves the next (possibly differently sized) build.
/// let hash = SpatialHash::build_into(&mut scratch, &[Point::new(7, 7)], 1, 8);
/// assert_eq!(hash.bucket_agents(7, 7), &[0]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SpatialScratch {
    hash: SpatialHash,
}

impl SpatialScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the scratch, yielding the most recently built hash.
    #[must_use]
    pub fn into_hash(self) -> SpatialHash {
        self.hash
    }
}

impl Default for SpatialHash {
    /// An empty hash over zero agents (side-1 buckets, zero buckets per
    /// axis); useful only as scratch seed state.
    fn default() -> Self {
        Self {
            bucket_side: 1,
            buckets_per_side: 0,
            side: 0,
            agents: Vec::new(),
            offsets: Vec::new(),
            cursor: Vec::new(),
            occupied: Vec::new(),
            linked: false,
            head: Vec::new(),
            next: Vec::new(),
        }
    }
}

impl SpatialHash {
    /// Builds the hash for `positions` on a grid of the given side, with
    /// proximity radius `r`.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`, if any position lies outside the grid, or
    /// if there are more than `u32::MAX` agents.
    #[must_use]
    pub fn build(positions: &[Point], r: u32, side: u32) -> Self {
        let mut hash = Self::default();
        hash.rebuild(positions, r, side);
        hash
    }

    /// Builds the hash inside `scratch`, clearing and refilling its
    /// buffers instead of allocating, and returns a view of the result.
    ///
    /// Produces exactly the same hash as [`SpatialHash::build`]; after
    /// the scratch has warmed up to the working size, this performs no
    /// heap allocation.
    ///
    /// # Panics
    ///
    /// As [`SpatialHash::build`].
    pub fn build_into<'a>(
        scratch: &'a mut SpatialScratch,
        positions: &[Point],
        r: u32,
        side: u32,
    ) -> &'a Self {
        scratch.hash.rebuild(positions, r, side);
        &scratch.hash
    }

    /// Rebuilds `self` in place for `positions`, reusing every buffer.
    /// Content-identical to [`SpatialHash::build`]; after warm-up at
    /// the working size this performs no heap allocation. Leaves the
    /// hash in grouped (slice-serving) mode.
    ///
    /// # Panics
    ///
    /// As [`SpatialHash::build`].
    // detlint: hot
    pub fn rebuild(&mut self, positions: &[Point], r: u32, side: u32) {
        assert!(side > 0, "grid side must be positive");
        assert!(positions.len() <= u32::MAX as usize, "too many agents");
        let bucket_side = r.max(1).min(side);
        let buckets_per_side = side.div_ceil(bucket_side);
        let num_buckets = (buckets_per_side as usize).pow(2);
        // Bucket indices are stored as u32 in `occupied`; checked before
        // any allocation so oversize grids fail fast instead of OOMing
        // or truncating.
        assert!(num_buckets <= u32::MAX as usize, "too many buckets");

        self.bucket_side = bucket_side;
        self.buckets_per_side = buckets_per_side;
        self.side = side;
        self.linked = false;
        // `offsets` doubles as the count accumulator, then prefix-sums
        // in place.
        self.offsets.clear();
        self.offsets.resize(num_buckets + 1, 0);
        for p in positions {
            assert!(
                p.x < side && p.y < side,
                "position {p} outside side-{side} grid"
            );
            self.offsets[self_bucket(*p, bucket_side, buckets_per_side) + 1] += 1;
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets);
        self.agents.clear();
        self.agents.resize(positions.len(), 0);
        self.occupied.clear();
        // At most min(k, #buckets) buckets can be occupied; a one-time
        // reservation keeps later rebuilds allocation-free even as the
        // number of occupied buckets drifts to new maxima.
        self.occupied.reserve(positions.len().min(num_buckets));
        for (i, p) in positions.iter().enumerate() {
            let b = self_bucket(*p, bucket_side, buckets_per_side);
            if self.cursor[b] == self.offsets[b] {
                self.occupied.push(b as u32);
            }
            self.agents[self.cursor[b] as usize] = i as u32;
            self.cursor[b] += 1;
        }
    }

    /// Switches to linked mode: per-bucket sorted linked lists over two
    /// fixed-size arrays, derived from the grouped arena. O(#buckets +
    /// k), once per rebuild→maintenance transition.
    fn enter_linked_mode(&mut self) {
        let num_buckets = (self.buckets_per_side as usize).pow(2);
        self.head.clear();
        self.head.resize(num_buckets, NO_AGENT);
        self.next.clear();
        self.next.resize(self.agents.len(), NO_AGENT);
        for &b in &self.occupied {
            let start = self.offsets[b as usize] as usize;
            let end = self.offsets[b as usize + 1] as usize;
            // The grouped lists are in increasing agent order; the
            // links inherit it.
            self.head[b as usize] = self.agents[start];
            for w in start..end - 1 {
                self.next[self.agents[w] as usize] = self.agents[w + 1];
            }
        }
        self.linked = true;
    }

    /// Relocates the agents listed in `moves` — `(agent, from, to)`
    /// triples as reported by the move-tracking walk steps — touching
    /// only the buckets that actually changed. A move within one bucket
    /// costs O(1); a bucket crossing costs O(bucket size) to keep each
    /// per-bucket list in increasing agent order, so the maintained
    /// hash iterates identically
    /// ([`bucket_agents_iter`](SpatialHash::bucket_agents_iter)) to a
    /// fresh [`build`](SpatialHash::build) of the new positions.
    ///
    /// At bucket side `r` an agent crosses a bucket boundary on roughly
    /// `1/r` of its steps, and under masked mobility most agents do not
    /// move at all — this is what makes per-step hash maintenance
    /// proportional to the *moved* set instead of `k`. The first call
    /// after a rebuild converts the hash to linked mode (O(#buckets +
    /// k)); subsequent calls cost only the relocations and never
    /// allocate (both link arrays have fixed size).
    ///
    /// In linked mode the slice accessors
    /// ([`bucket_agents`](SpatialHash::bucket_agents),
    /// [`occupied_buckets`](SpatialHash::occupied_buckets)) are
    /// unavailable; use the iterator accessors instead.
    ///
    /// # Panics
    ///
    /// Panics if a `from` position is not where the hash last saw that
    /// agent, or if a `to` position lies outside the grid — either
    /// means the move log does not match the maintained state.
    // detlint: hot
    pub fn apply_moves(&mut self, moves: &[(u32, Point, Point)]) {
        if !self.linked {
            self.enter_linked_mode();
        }
        let (bs, bps) = (self.bucket_side, self.buckets_per_side);
        for &(agent, from, to) in moves {
            assert!(
                to.x < self.side && to.y < self.side,
                "moved position {to} outside side-{} grid",
                self.side
            );
            let fb = self_bucket(from, bs, bps);
            let tb = self_bucket(to, bs, bps);
            if fb == tb {
                continue;
            }
            // Unlink from the old bucket.
            let mut cur = self.head[fb];
            if cur == agent {
                self.head[fb] = self.next[agent as usize];
            } else {
                loop {
                    assert!(cur != NO_AGENT, "agent {agent} not present in bucket {fb}");
                    let after = self.next[cur as usize];
                    if after == agent {
                        self.next[cur as usize] = self.next[agent as usize];
                        break;
                    }
                    cur = after;
                }
            }
            // Link into the new bucket, keeping increasing agent order.
            let mut cur = self.head[tb];
            if cur == NO_AGENT || cur > agent {
                self.next[agent as usize] = cur;
                self.head[tb] = agent;
            } else {
                loop {
                    let after = self.next[cur as usize];
                    if after == NO_AGENT || after > agent {
                        self.next[cur as usize] = agent;
                        self.next[agent as usize] = after;
                        break;
                    }
                    cur = after;
                }
            }
        }
    }

    /// The bucket side length used.
    #[inline]
    #[must_use]
    pub fn bucket_side(&self) -> u32 {
        self.bucket_side
    }

    /// The number of buckets along each axis.
    #[inline]
    #[must_use]
    pub fn buckets_per_side(&self) -> u32 {
        self.buckets_per_side
    }

    /// The number of agents stored.
    #[inline]
    #[must_use]
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// Whether the hash is in linked (incrementally maintained) mode,
    /// where only the iterator accessors are available.
    #[inline]
    #[must_use]
    pub fn is_linked(&self) -> bool {
        self.linked
    }

    /// The bucket coordinates of a point.
    #[inline]
    #[must_use]
    pub fn bucket_of(&self, p: Point) -> (u32, u32) {
        (p.x / self.bucket_side, p.y / self.bucket_side)
    }

    /// The indices (`by * buckets_per_side + bx`) of the buckets that
    /// hold at least one agent, in first-touch order — at most `k`
    /// entries, so scans driven by this list cost O(k) even when the
    /// bucket grid has `n ≫ k` cells (`r = 0`).
    ///
    /// # Panics
    ///
    /// Panics in linked mode (after
    /// [`apply_moves`](SpatialHash::apply_moves)), where the grouped
    /// occupancy list is stale.
    #[inline]
    #[must_use]
    pub fn occupied_buckets(&self) -> &[u32] {
        assert!(
            !self.linked,
            "occupied_buckets is unavailable in linked mode"
        );
        &self.occupied
    }

    /// The agent indices stored in bucket `(bx, by)`, in increasing
    /// order, as a slice of the grouped arena.
    ///
    /// # Panics
    ///
    /// Panics if the bucket coordinates are out of range, or in linked
    /// mode (after [`apply_moves`](SpatialHash::apply_moves)) — use
    /// [`bucket_agents_iter`](SpatialHash::bucket_agents_iter) there.
    #[must_use]
    pub fn bucket_agents(&self, bx: u32, by: u32) -> &[u32] {
        assert!(!self.linked, "bucket_agents is unavailable in linked mode");
        assert!(bx < self.buckets_per_side && by < self.buckets_per_side);
        let b = (by * self.buckets_per_side + bx) as usize;
        let start = self.offsets[b] as usize;
        let end = self.offsets[b + 1] as usize;
        &self.agents[start..end]
    }

    /// Iterates over the agents of bucket `(bx, by)` in increasing
    /// order — mode-independent: serves slices in grouped mode and
    /// walks the links in linked mode, yielding identical sequences.
    ///
    /// # Panics
    ///
    /// Panics if the bucket coordinates are out of range.
    pub fn bucket_agents_iter(&self, bx: u32, by: u32) -> BucketAgents<'_> {
        assert!(bx < self.buckets_per_side && by < self.buckets_per_side);
        let b = (by * self.buckets_per_side + bx) as usize;
        if self.linked {
            BucketAgents::Linked {
                next: &self.next,
                cur: self.head[b],
            }
        } else {
            let start = self.offsets[b] as usize;
            let end = self.offsets[b + 1] as usize;
            BucketAgents::Grouped(self.agents[start..end].iter())
        }
    }

    /// Iterates over the agent indices in the 3×3 bucket neighborhood
    /// of `p` — a superset of every agent within the build radius of
    /// `p` (callers still apply the exact distance test). Works in both
    /// storage modes.
    ///
    /// This is the shared candidate scan behind one-hop rumor exchange,
    /// predator–prey catch resolution and the twin's adjacency rebuild;
    /// the seeded and boundary labellers use its internal-iteration twin
    /// `any_candidate`.
    pub fn candidates(&self, p: Point) -> impl Iterator<Item = u32> + '_ {
        let (bx, by) = self.bucket_of(p);
        let last = self.buckets_per_side - 1;
        let x_range = bx.saturating_sub(1)..=bx.saturating_add(1).min(last);
        let y_range = by.saturating_sub(1)..=by.saturating_add(1).min(last);
        y_range.flat_map(move |y| {
            x_range
                .clone()
                .flat_map(move |x| self.bucket_agents_iter(x, y))
        })
    }

    /// Calls `f` on the agents [`candidates`](SpatialHash::candidates)
    /// yields for `p`, in the same order, until `f` returns `true`;
    /// returns whether it did.
    ///
    /// The labellers' inner loop: the storage mode is resolved once per
    /// call instead of once per bucket, and in grouped mode the three
    /// buckets of a neighborhood row are one contiguous arena slice.
    #[inline]
    pub(crate) fn any_candidate(&self, p: Point, mut f: impl FnMut(u32) -> bool) -> bool {
        let (bx, by) = self.bucket_of(p);
        let last = self.buckets_per_side - 1;
        let (x0, x1) = (
            bx.saturating_sub(1) as usize,
            bx.saturating_add(1).min(last) as usize,
        );
        let (y0, y1) = (
            by.saturating_sub(1) as usize,
            by.saturating_add(1).min(last) as usize,
        );
        let width = self.buckets_per_side as usize;
        for row in (y0..=y1).map(|y| y * width) {
            if self.linked {
                for b in row + x0..=row + x1 {
                    let mut cur = self.head[b];
                    while cur != NO_AGENT {
                        if f(cur) {
                            return true;
                        }
                        cur = self.next[cur as usize];
                    }
                }
            } else {
                let start = self.offsets[row + x0] as usize;
                let end = self.offsets[row + x1 + 1] as usize;
                for &a in &self.agents[start..end] {
                    if f(a) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Calls `f(a, b)` once for every unordered pair of agents in the
    /// same or 8-adjacent buckets — the candidate superset of every pair
    /// within the build radius (callers still apply the exact test).
    /// Works in both storage modes.
    ///
    /// Each occupied bucket is visited once, in first-agent order: its
    /// within-bucket pairs, then its pairs with the four forward buckets
    /// (E, N, NE, NW), so no pair is visited twice. In grouped mode the
    /// occupied list drives the scan; in linked mode an agent stands for
    /// its bucket when it heads the bucket's list, so the cost is O(k)
    /// plus the pairs either way — never O(#buckets), which is decisive
    /// in the contact-only regime (`r = 0`, `n ≫ k` buckets).
    ///
    /// The full labellers' union scan; allocates nothing.
    // detlint: hot
    pub(crate) fn for_each_candidate_pair(&self, positions: &[Point], mut f: impl FnMut(u32, u32)) {
        let width = self.buckets_per_side;
        if self.linked {
            let bucket = |b: usize| BucketAgents::Linked {
                next: &self.next,
                cur: self.head[b],
            };
            for (a, &p) in positions.iter().enumerate() {
                let (bx, by) = self.bucket_of(p);
                if self.head[(by * width + bx) as usize] == a as u32 {
                    self.bucket_pairs(bx, by, bucket, &mut f);
                }
            }
        } else {
            let bucket = |b: usize| {
                self.agents[self.offsets[b] as usize..self.offsets[b + 1] as usize]
                    .iter()
                    .copied()
            };
            for &b in &self.occupied {
                self.bucket_pairs(b % width, b / width, bucket, &mut f);
            }
        }
    }

    /// The pairs [`for_each_candidate_pair`](Self::for_each_candidate_pair)
    /// charges to the occupied bucket `(bx, by)`; `bucket` lists a
    /// bucket's agents in increasing order in the hash's storage mode.
    #[inline]
    fn bucket_pairs<I: Iterator<Item = u32> + Clone>(
        &self,
        bx: u32,
        by: u32,
        bucket: impl Fn(usize) -> I,
        f: &mut impl FnMut(u32, u32),
    ) {
        let width = self.buckets_per_side as usize;
        let (bx, by) = (bx as usize, by as usize);
        let b = by * width + bx;
        let mut here = bucket(b);
        while let Some(a) = here.next() {
            for c in here.clone() {
                f(a, c);
            }
        }
        let (east, north) = (bx + 1 < width, by + 1 < width);
        let forward = [
            east.then_some(b + 1),
            north.then_some(b + width),
            (east && north).then_some(b + width + 1),
            (bx > 0 && north).then(|| b + width - 1),
        ];
        for there in forward.into_iter().flatten().map(&bucket) {
            for c in there {
                for a in bucket(b) {
                    f(a, c);
                }
            }
        }
    }
}

/// Iterator over one bucket's agents, produced by
/// [`SpatialHash::bucket_agents_iter`]; yields increasing agent indices
/// in either storage mode.
#[derive(Clone, Debug)]
pub enum BucketAgents<'a> {
    /// Slice walk over the grouped arena.
    Grouped(core::slice::Iter<'a, u32>),
    /// Pointer walk over the linked overlay.
    Linked {
        /// The shared next-agent array.
        next: &'a [u32],
        /// The agent to yield next (`NO_AGENT` when exhausted).
        cur: u32,
    },
}

impl Iterator for BucketAgents<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            BucketAgents::Grouped(iter) => iter.next().copied(),
            BucketAgents::Linked { next, cur } => {
                if *cur == NO_AGENT {
                    None
                } else {
                    let agent = *cur;
                    *cur = next[agent as usize];
                    Some(agent)
                }
            }
        }
    }
}

#[inline]
fn self_bucket(p: Point, bucket_side: u32, buckets_per_side: u32) -> usize {
    let bx = p.x / bucket_side;
    let by = p.y / bucket_side;
    (by * buckets_per_side + bx) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket-for-bucket equality via the mode-independent iterator:
    /// dimensions and every bucket's agent sequence.
    fn assert_hash_equal(a: &SpatialHash, b: &SpatialHash) {
        assert_eq!(a.bucket_side(), b.bucket_side());
        assert_eq!(a.buckets_per_side(), b.buckets_per_side());
        assert_eq!(a.num_agents(), b.num_agents());
        for by in 0..a.buckets_per_side() {
            for bx in 0..a.buckets_per_side() {
                let left: Vec<u32> = a.bucket_agents_iter(bx, by).collect();
                let right: Vec<u32> = b.bucket_agents_iter(bx, by).collect();
                assert_eq!(left, right, "({bx},{by})");
            }
        }
    }

    #[test]
    fn groups_agents_by_bucket() {
        let pts = [
            Point::new(0, 0),
            Point::new(1, 1),
            Point::new(5, 5),
            Point::new(0, 1),
        ];
        let h = SpatialHash::build(&pts, 2, 8);
        assert_eq!(h.bucket_side(), 2);
        assert_eq!(h.buckets_per_side(), 4);
        assert_eq!(h.num_agents(), 4);
        assert_eq!(h.bucket_agents(0, 0), &[0, 1, 3]);
        assert_eq!(h.bucket_agents(2, 2), &[2]);
        assert_eq!(h.bucket_agents(1, 0), &[] as &[u32]);
        // The iterator accessor agrees with the slices in grouped mode.
        let via_iter: Vec<u32> = h.bucket_agents_iter(0, 0).collect();
        assert_eq!(via_iter, vec![0, 1, 3]);
    }

    #[test]
    fn radius_zero_buckets_are_single_nodes() {
        let pts = [Point::new(3, 3), Point::new(3, 3), Point::new(3, 4)];
        let h = SpatialHash::build(&pts, 0, 8);
        assert_eq!(h.bucket_side(), 1);
        assert_eq!(h.bucket_agents(3, 3), &[0, 1]);
        assert_eq!(h.bucket_agents(3, 4), &[2]);
    }

    #[test]
    fn bucket_side_is_clamped_to_grid() {
        let pts = [Point::new(0, 0)];
        let h = SpatialHash::build(&pts, 100, 8);
        assert_eq!(h.bucket_side(), 8);
        assert_eq!(h.buckets_per_side(), 1);
        assert_eq!(h.bucket_agents(0, 0), &[0]);
    }

    #[test]
    fn every_agent_is_stored_exactly_once() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i % 10, (i * 7) % 10)).collect();
        let h = SpatialHash::build(&pts, 3, 10);
        let mut seen = [false; 100];
        for by in 0..h.buckets_per_side() {
            for bx in 0..h.buckets_per_side() {
                for &a in h.bucket_agents(bx, by) {
                    assert!(!seen[a as usize], "agent {a} stored twice");
                    seen[a as usize] = true;
                    let (px, py) = h.bucket_of(pts[a as usize]);
                    assert_eq!((px, py), (bx, by));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_grid_positions() {
        let _ = SpatialHash::build(&[Point::new(8, 0)], 1, 8);
    }

    #[test]
    #[should_panic(expected = "too many buckets")]
    fn rejects_grids_with_more_buckets_than_u32() {
        // 70 000² buckets > u32::MAX; must panic before allocating.
        let _ = SpatialHash::build(&[], 0, 70_000);
    }

    #[test]
    fn build_into_reuse_matches_fresh_build() {
        let mut scratch = SpatialScratch::new();
        // Alternate sizes and radii so stale buffer contents would show.
        let layouts: [(&[Point], u32, u32); 3] = [
            (
                &[Point::new(0, 0), Point::new(5, 5), Point::new(0, 1)],
                2,
                8,
            ),
            (&[Point::new(9, 9)], 0, 10),
            (
                &[
                    Point::new(1, 1),
                    Point::new(2, 2),
                    Point::new(3, 3),
                    Point::new(15, 0),
                ],
                4,
                16,
            ),
        ];
        for &(pts, r, side) in &layouts {
            let reused = SpatialHash::build_into(&mut scratch, pts, r, side).clone();
            let fresh = SpatialHash::build(pts, r, side);
            assert_hash_equal(&reused, &fresh);
        }
    }

    #[test]
    fn apply_moves_relocates_across_buckets() {
        let mut pts = vec![
            Point::new(0, 0),
            Point::new(0, 1),
            Point::new(5, 5),
            Point::new(2, 2),
        ];
        let mut h = SpatialHash::build(&pts, 2, 8);
        // Agent 1 leaves bucket (0,0) for bucket (1,1); agent 2 moves
        // within its bucket; agent 3 vacates bucket (1,1)'s neighbor.
        let moves = [
            (1u32, Point::new(0, 1), Point::new(3, 3)),
            (2u32, Point::new(5, 5), Point::new(5, 4)),
            (3u32, Point::new(2, 2), Point::new(0, 1)),
        ];
        for &(a, _, to) in &moves {
            pts[a as usize] = to;
        }
        h.apply_moves(&moves);
        assert!(h.is_linked());
        assert_hash_equal(&h, &SpatialHash::build(&pts, 2, 8));
        // The relocations kept per-bucket order increasing.
        let b00: Vec<u32> = h.bucket_agents_iter(0, 0).collect();
        assert_eq!(b00, vec![0, 3]);
        let b11: Vec<u32> = h.bucket_agents_iter(1, 1).collect();
        assert_eq!(b11, vec![1]);
    }

    #[test]
    fn apply_moves_handles_emptied_and_reoccupied_buckets() {
        let mut pts = vec![Point::new(0, 0), Point::new(7, 7)];
        let mut h = SpatialHash::build(&pts, 0, 8);
        // Empty (0,0), re-occupy it from the other side, then bounce
        // back — exercising unlink/relink of heads at r = 0.
        let trips = [
            [(0u32, Point::new(0, 0), Point::new(1, 0))],
            [(1u32, Point::new(7, 7), Point::new(0, 0))],
            [(1u32, Point::new(0, 0), Point::new(7, 7))],
            [(0u32, Point::new(1, 0), Point::new(0, 0))],
        ];
        for step in &trips {
            for &(a, _, to) in step {
                pts[a as usize] = to;
            }
            h.apply_moves(step);
            assert_hash_equal(&h, &SpatialHash::build(&pts, 0, 8));
        }
    }

    #[test]
    fn rebuild_after_maintenance_restores_grouped_mode() {
        let mut pts = vec![Point::new(0, 0), Point::new(4, 4)];
        let mut h = SpatialHash::build(&pts, 1, 8);
        h.apply_moves(&[(0, Point::new(0, 0), Point::new(0, 1))]);
        pts[0] = Point::new(0, 1);
        assert!(h.is_linked());
        h.rebuild(&pts, 1, 8);
        assert!(!h.is_linked());
        assert_eq!(h.bucket_agents(0, 1), &[0]);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn apply_moves_rejects_stale_from_position() {
        let mut h = SpatialHash::build(&[Point::new(0, 0)], 1, 8);
        h.apply_moves(&[(0, Point::new(5, 5), Point::new(6, 6))]);
    }
}
