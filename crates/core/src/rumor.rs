use sparsegossip_conngraph::Components;

/// Per-agent rumor sets for multi-rumor (gossip) runs.
///
/// Agent `a`'s set `M_a(t)` holds the rumor ids `0..num_rumors` that
/// `a` knows. The exchange rule of the paper (§2) is
/// `M_a(t) = ⋃_{a' ∈ C} M_{a'}(t − 1)` over `a`'s component `C`;
/// [`RumorSets::exchange`] applies it for all components at once.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::components;
/// use sparsegossip_grid::Point;
/// use sparsegossip_core::RumorSets;
///
/// // Three agents, each with its own rumor; agents 0 and 1 meet.
/// let mut sets = RumorSets::distinct(3);
/// let positions = [Point::new(4, 4), Point::new(4, 4), Point::new(0, 0)];
/// let comps = components(&positions, 0, 8);
/// sets.exchange(&comps);
/// assert_eq!(sets.count(0), 2);
/// assert_eq!(sets.count(2), 1);
/// assert!(!sets.all_complete());
/// ```
#[derive(Clone, Debug)]
pub struct RumorSets {
    /// One contiguous bit matrix: agent `a`'s set is the row
    /// `words[a * row..(a + 1) * row]`. Building the initial condition
    /// is one allocation (not one per agent), and the exchange and the
    /// completion check stream through adjacent rows.
    words: Vec<u64>,
    /// Words per row: `num_rumors` bits, rounded up.
    row: usize,
    /// The number of agents (rows).
    k: usize,
    num_rumors: usize,
    /// Reused union accumulator (one row) for [`RumorSets::exchange`],
    /// so the per-step exchange never allocates.
    union_scratch: Vec<u64>,
}

impl RumorSets {
    /// One distinct rumor per agent: agent `i` starts knowing rumor `i`
    /// (the gossip initial condition of Corollary 2).
    #[must_use]
    pub fn distinct(k: usize) -> Self {
        Self::seeded(k, k)
    }

    /// `num_rumors` rumors held by the first `num_rumors` agents
    /// (agent `i < num_rumors` starts with rumor `i`; the paper allows
    /// any number of rumors up to `k`).
    ///
    /// # Panics
    ///
    /// Panics if `num_rumors > k` or `num_rumors == 0`.
    #[must_use]
    pub fn with_rumors(k: usize, num_rumors: usize) -> Self {
        assert!(num_rumors > 0 && num_rumors <= k, "need 1..=k rumors");
        Self::seeded(k, num_rumors)
    }

    /// `k` agents and `num_rumors ≤ k` rumors, agent `i < num_rumors`
    /// knowing rumor `i`.
    fn seeded(k: usize, num_rumors: usize) -> Self {
        let row = num_rumors.div_ceil(64);
        let mut words = vec![0; k * row];
        for i in 0..num_rumors {
            words[i * row + i / 64] |= 1 << (i % 64);
        }
        Self {
            words,
            row,
            k,
            num_rumors,
            union_scratch: vec![0; row],
        }
    }

    /// Agent `a`'s row of the bit matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    fn set(&self, a: usize) -> &[u64] {
        assert!(a < self.k, "agent {a} out of range {}", self.k);
        &self.words[a * self.row..(a + 1) * self.row]
    }

    /// The number of agents.
    #[inline]
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of rumors in the system.
    #[inline]
    #[must_use]
    pub fn num_rumors(&self) -> usize {
        self.num_rumors
    }

    /// The number of rumors agent `a` knows.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    #[must_use]
    pub fn count(&self, a: usize) -> usize {
        self.set(a).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether agent `a` knows rumor `m`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range, and if `m` is in debug builds.
    #[inline]
    #[must_use]
    pub fn knows(&self, a: usize, m: usize) -> bool {
        debug_assert!(m < self.num_rumors, "rumor {m} out of range");
        (self.set(a)[m / 64] >> (m % 64)) & 1 == 1
    }

    /// Whether every agent knows every rumor (the gossip completion
    /// condition).
    #[must_use]
    pub fn all_complete(&self) -> bool {
        (0..self.k).all(|a| self.count(a) == self.num_rumors)
    }

    /// The minimum rumor count over agents (progress metric).
    #[must_use]
    pub fn min_count(&self) -> usize {
        (0..self.k).map(|a| self.count(a)).min().unwrap_or(0)
    }

    /// Applies one synchronous exchange: within each component, every
    /// agent's set becomes the union of the members' sets.
    ///
    /// Allocation-free: the union accumulator is a persistent scratch
    /// and member sets are overwritten in place.
    // detlint: hot
    pub fn exchange(&mut self, comps: &Components) {
        let Self {
            words,
            row,
            union_scratch: union,
            ..
        } = self;
        let row = *row;
        for c in 0..comps.count() {
            let members = comps.members(c);
            if members.len() == 1 {
                continue;
            }
            union.fill(0);
            for &m in members {
                let start = m as usize * row;
                for (u, w) in union.iter_mut().zip(&words[start..start + row]) {
                    *u |= w;
                }
            }
            for &m in members {
                let start = m as usize * row;
                words[start..start + row].copy_from_slice(union);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegossip_conngraph::components;
    use sparsegossip_grid::Point;

    #[test]
    fn distinct_initial_condition() {
        let s = RumorSets::distinct(4);
        assert_eq!(s.k(), 4);
        assert_eq!(s.num_rumors(), 4);
        for i in 0..4 {
            assert_eq!(s.count(i), 1);
            assert!(s.knows(i, i));
        }
        assert!(!s.all_complete());
        assert_eq!(s.min_count(), 1);
    }

    #[test]
    fn exchange_unions_components() {
        let mut s = RumorSets::distinct(3);
        // All three at one node.
        let positions = [Point::new(1, 1); 3];
        let comps = components(&positions, 0, 4);
        s.exchange(&comps);
        assert!(s.all_complete());
        assert_eq!(s.min_count(), 3);
    }

    #[test]
    fn exchange_is_idempotent_on_fixed_components() {
        let mut s = RumorSets::distinct(3);
        let positions = [Point::new(0, 0), Point::new(0, 0), Point::new(3, 3)];
        let comps = components(&positions, 0, 4);
        s.exchange(&comps);
        let counts: Vec<usize> = (0..3).map(|i| s.count(i)).collect();
        s.exchange(&comps);
        assert_eq!(counts, (0..3).map(|i| s.count(i)).collect::<Vec<_>>());
    }

    #[test]
    fn partial_rumor_population() {
        let s = RumorSets::with_rumors(5, 2);
        assert_eq!(s.num_rumors(), 2);
        assert_eq!(s.count(0), 1);
        assert_eq!(s.count(4), 0);
        assert_eq!(s.min_count(), 0);
    }

    #[test]
    fn rows_span_several_words() {
        // 130 rumors need three words per row; every bit must land in
        // its own agent's row and survive the union.
        let mut s = RumorSets::distinct(130);
        for a in [0, 63, 64, 127, 128, 129] {
            assert_eq!(s.count(a), 1);
            assert!(s.knows(a, a));
            assert!(!s.knows(a, (a + 1) % 130));
        }
        let positions: Vec<Point> = (0..130)
            .map(|i| {
                if i < 65 {
                    Point::new(0, 0)
                } else {
                    Point::new(7, 7)
                }
            })
            .collect();
        s.exchange(&components(&positions, 0, 8));
        assert_eq!(s.count(3), 65);
        assert_eq!(s.count(129), 65);
        assert!(s.knows(0, 64) && !s.knows(0, 65));
        assert!(s.knows(129, 65) && !s.knows(129, 64));
        assert_eq!(s.min_count(), 65);
        assert!(!s.all_complete());
    }

    #[test]
    #[should_panic(expected = "need 1..=k rumors")]
    fn rejects_too_many_rumors() {
        let _ = RumorSets::with_rumors(2, 3);
    }
}
