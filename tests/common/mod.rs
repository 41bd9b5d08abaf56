//! Forest generators shared by the batch query and update oracles.

use rcforest::parlay::rng::SplitMix64;
use rcforest::{ForestState, Vertex};

/// Distinct weight per unordered vertex pair on up to 6 vertices, so a
/// forest's weights depend only on its edge set.
pub fn pair_weight(a: Vertex, b: Vertex) -> u64 {
    let (a, b) = (a.min(b) as u64, a.max(b) as u64);
    let idx = a * 6 + b; // < 36, injective for a < b < 6
    (idx * 7) % 37 + 1
}

/// Vertices carrying the mark bit (those in range).
const MARKS: [Vertex; 2] = [1, 4];

/// The state of a small forest given by its edges: [`pair_weight`] edge
/// weights, vertex `v` weighing `1000 (v + 1)`, and [`MARKS`] marked.
pub fn state_of(n: usize, edges: &[(Vertex, Vertex)]) -> ForestState {
    let weighted: Vec<(Vertex, Vertex, u64)> = edges
        .iter()
        .map(|&(a, b)| (a, b, pair_weight(a, b)))
        .collect();
    let mut state = ForestState::from_edges(n, &weighted);
    state.weights = (0..n as u64).map(|v| 1000 * (v + 1)).collect();
    state.marks = MARKS
        .iter()
        .copied()
        .filter(|&m| (m as usize) < n)
        .collect();
    state
}

/// Decode a Prüfer sequence over `0..n` into the edges of its tree.
fn prufer_edges(n: usize, seq: &[usize]) -> Vec<(Vertex, Vertex)> {
    let mut degree = vec![1usize; n];
    for &x in seq {
        degree[x] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    for &x in seq {
        let leaf = (0..n).find(|&v| degree[v] == 1).expect("a leaf exists");
        edges.push((leaf as Vertex, x as Vertex));
        degree[leaf] -= 1;
        degree[x] -= 1;
    }
    let rest: Vec<usize> = (0..n).filter(|&v| degree[v] == 1).collect();
    edges.push((rest[0] as Vertex, rest[1] as Vertex));
    edges
}

/// Every labelled tree on `n` vertices with maximum degree ≤ 3.
pub fn degree3_trees(n: usize) -> Vec<Vec<(Vertex, Vertex)>> {
    match n {
        0 => Vec::new(),
        1 => vec![Vec::new()],
        2 => vec![vec![(0, 1)]],
        _ => {
            let len = n - 2;
            let mut out = Vec::new();
            let mut seq = vec![0usize; len];
            loop {
                let mut count = vec![0usize; n];
                for &x in &seq {
                    count[x] += 1;
                }
                // A label's degree is its count + 1.
                if count.iter().all(|&c| c <= 2) {
                    out.push(prufer_edges(n, &seq));
                }
                let mut i = 0;
                while i < len && seq[i] == n - 1 {
                    seq[i] = 0;
                    i += 1;
                }
                if i == len {
                    return out;
                }
                seq[i] += 1;
            }
        }
    }
}

/// A random degree-≤3 forest on `n` vertices: chain-biased attachment for
/// depth, about one vertex in 2000 left as a new root.
pub fn random_state(n: usize, seed: u64) -> ForestState {
    let mut rng = SplitMix64::new(seed);
    let mut deg = vec![0u8; n];
    let mut edges = Vec::with_capacity(n);
    for v in 1..n as Vertex {
        if rng.next_f64() < 0.0005 {
            continue;
        }
        let mut u = if rng.next_f64() < 0.6 {
            v - 1
        } else {
            rng.next_below(v as u64) as Vertex
        };
        let mut tries = 0;
        while deg[u as usize] >= 3 && tries < 8 {
            u = rng.next_below(v as u64) as Vertex;
            tries += 1;
        }
        if deg[u as usize] < 3 {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
            edges.push((u, v, 1 + rng.next_below(1 << 20)));
        }
    }
    let mut state = ForestState::from_edges(n, &edges);
    state.weights = (0..n).map(|_| rng.next_below(1 << 16)).collect();
    state.marks = (0..n as Vertex)
        .filter(|_| rng.next_f64() < 0.002)
        .collect();
    state
}
