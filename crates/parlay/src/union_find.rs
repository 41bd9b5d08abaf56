//! Dense union–find over `0..n`: path compression and union by rank.
//!
//! The one dense union–find of the workspace: build- and link-time cycle
//! checks in `rc-core` and `rc-ternary` (through [`first_cycle`] for
//! links), Kruskal in `rc-msf`, and the generators' test helpers.

/// Disjoint sets over `0..n`.
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Disjoint singletons `0..n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`.
    #[inline]
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; false when already joined.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }
}

/// Index of the first pair that joins two ids an earlier pair already
/// joined, reading `pairs` as edges added in order; `None` when they form
/// a forest. Ids may be sparse (component representatives, say): they
/// are renumbered to `0..m` by sort and dedup, so the work is
/// `O(k log k)` for `k` pairs whatever the id range.
pub fn first_cycle(pairs: &[(u32, u32)]) -> Option<usize> {
    let mut ids: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    ids.sort_unstable();
    ids.dedup();
    let slot = |x: u32| ids.binary_search(&x).expect("collected above") as u32;
    let mut uf = UnionFind::new(ids.len());
    pairs.iter().position(|&(a, b)| !uf.union(slot(a), slot(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_merge_and_report_cycles() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(uf.union(1, 3));
        assert!(!uf.union(0, 2), "0 and 2 already joined");
        assert_eq!(uf.find(0), uf.find(3));
        assert_ne!(uf.find(0), uf.find(4));
        assert!(uf.union(4, 5));
        assert_ne!(uf.find(5), uf.find(1));
    }

    #[test]
    fn first_cycle_reports_the_first_closing_pair() {
        assert_eq!(first_cycle(&[]), None);
        let sparse = [(70, 9_000_000), (5, 70), (u32::MAX - 1, 5)];
        assert_eq!(first_cycle(&sparse), None);
        let closing = [(70, 9_000_000), (5, 70), (9_000_000, 5), (1, 1), (2, 3)];
        assert_eq!(first_cycle(&closing), Some(2));
        assert_eq!(first_cycle(&[(4, 4)]), Some(0));
    }

    #[test]
    fn long_chain_compresses_to_one_root() {
        let n = 10_000u32;
        let mut uf = UnionFind::new(n as usize);
        for v in 1..n {
            assert!(uf.union(v - 1, v));
        }
        let r = uf.find(0);
        assert!((0..n).all(|v| uf.find(v) == r));
        assert!((0..n).all(|v| uf.parent[v as usize] == r));
    }
}
