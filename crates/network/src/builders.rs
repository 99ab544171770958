//! Builders for the network families used throughout the experiments.

use congames_model::LatencyFn;

use crate::graph::{DiGraph, EdgeId, NodeId};

/// `m` parallel links from a fresh source to a fresh sink, with latencies
/// produced by `latency(i)` for link `i`. The singleton-game topology.
pub fn parallel_links(
    m: usize,
    mut latency: impl FnMut(usize) -> LatencyFn,
) -> (DiGraph, NodeId, NodeId) {
    assert!(m > 0, "need at least one link");
    let mut g = DiGraph::new();
    let s = g.add_node();
    let t = g.add_node();
    for i in 0..m {
        g.add_edge(s, t, latency(i)).expect("endpoints are valid by construction");
    }
    (g, s, t)
}

/// The Braess diamond: `s→a`, `s→b`, `a→t`, `b→t` plus the bridge `a→b`.
///
/// Latencies are supplied per edge in the order
/// `[s→a, s→b, a→t, b→t, a→b]`. The classic parametrization uses fast
/// congestible outer edges (`x`-like) on `s→a`/`b→t`, constant edges on
/// `s→b`/`a→t`, and a free bridge.
pub fn braess(latencies: [LatencyFn; 5]) -> (DiGraph, NodeId, NodeId) {
    let mut g = DiGraph::new();
    let s = g.add_node();
    let a = g.add_node();
    let b = g.add_node();
    let t = g.add_node();
    let [sa, sb, at, bt, ab] = latencies;
    g.add_edge(s, a, sa).expect("valid");
    g.add_edge(s, b, sb).expect("valid");
    g.add_edge(a, t, at).expect("valid");
    g.add_edge(b, t, bt).expect("valid");
    g.add_edge(a, b, ab).expect("valid");
    (g, s, t)
}

/// An `rows × cols` grid DAG. Node `(i, j)` connects right to `(i, j+1)` and
/// down to `(i+1, j)`; the source is `(0,0)`, the sink `(rows−1, cols−1)`.
/// Monotone lattice paths are the strategies: `C(rows+cols−2, rows−1)` many.
pub fn grid(
    rows: usize,
    cols: usize,
    mut latency: impl FnMut(EdgeId) -> LatencyFn,
) -> (DiGraph, NodeId, NodeId) {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid must have at least two nodes");
    let mut g = DiGraph::new();
    let nodes: Vec<NodeId> = (0..rows * cols).map(|_| g.add_node()).collect();
    let idx = |i: usize, j: usize| nodes[i * cols + j];
    let mut next_edge = 0u32;
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                let l = latency(EdgeId::new(next_edge));
                g.add_edge(idx(i, j), idx(i, j + 1), l).expect("valid");
                next_edge += 1;
            }
            if i + 1 < rows {
                let l = latency(EdgeId::new(next_edge));
                g.add_edge(idx(i, j), idx(i + 1, j), l).expect("valid");
                next_edge += 1;
            }
        }
    }
    (g, idx(0, 0), idx(rows - 1, cols - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::enumerate_paths;
    use congames_model::Affine;

    fn lin() -> LatencyFn {
        Affine::linear(1.0).into()
    }

    #[test]
    fn parallel_links_shape() {
        let (g, s, t) = parallel_links(4, |_| lin());
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(enumerate_paths(&g, s, t, 100).unwrap().len(), 4);
    }

    #[test]
    fn braess_shape() {
        let (g, s, t) = braess([lin(), lin(), lin(), lin(), lin()]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(enumerate_paths(&g, s, t, 100).unwrap().len(), 3);
    }

    #[test]
    fn grid_path_count() {
        // C(rows+cols-2, rows-1): 4x3 grid → C(5,3) = 10.
        let (g, s, t) = grid(4, 3, |_| lin());
        assert_eq!(enumerate_paths(&g, s, t, 1000).unwrap().len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn parallel_links_rejects_zero() {
        let _ = parallel_links(0, |_| lin());
    }
}
