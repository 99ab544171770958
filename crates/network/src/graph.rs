//! A directed multigraph with latency-labelled edges.

use std::fmt;

use congames_model::LatencyFn;

use crate::error::NetworkError;

/// Identifier of a node in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Create a node id from a raw index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u32`.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an edge in a [`DiGraph`]. Edge ids double as the resource
/// ids of the derived congestion game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Create an edge id from a raw index.
    pub fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u32`.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) latency: LatencyFn,
}

/// A directed multigraph whose edges carry latency functions.
///
/// Parallel edges and multiple edges between the same node pair are allowed
/// (they are distinct resources); self-loops are rejected because no simple
/// s–t path can use them.
///
/// # Example
///
/// ```
/// use congames_network::DiGraph;
/// use congames_model::Affine;
///
/// let mut g = DiGraph::new();
/// let s = g.add_node();
/// let t = g.add_node();
/// g.add_edge(s, t, Affine::linear(1.0).into())?;
/// g.add_edge(s, t, Affine::new(1.0, 10.0).into())?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), congames_network::NetworkError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    num_nodes: u32,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node (rebuilt lazily on mutation).
    out_edges: Vec<Vec<EdgeId>>,
}

impl DiGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.num_nodes += 1;
        self.out_edges.push(Vec::new());
        NodeId(self.num_nodes - 1)
    }

    /// Add a directed edge `from → to` with the given latency.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is unknown or `from == to`.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        latency: LatencyFn,
    ) -> Result<EdgeId, NetworkError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(NetworkError::InvalidParameter {
                name: "edge",
                message: "self-loops are not allowed",
            });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to, latency });
        self.out_edges[from.index()].push(id);
        Ok(id)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e.index()];
        (edge.from, edge.to)
    }

    /// The latency function of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn latency(&self, e: EdgeId) -> &LatencyFn {
        &self.edges[e.index()].latency
    }

    /// Outgoing edges of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_edges[v.index()]
    }

    /// Validate a node id.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownNode`] if out of range.
    pub fn check_node(&self, v: NodeId) -> Result<(), NetworkError> {
        if v.index() < self.num_nodes as usize {
            Ok(())
        } else {
            Err(NetworkError::UnknownNode { node: v.raw(), nodes: self.num_nodes as usize })
        }
    }

    /// All latency functions in edge order (the resource vector of the
    /// derived congestion game).
    pub fn latencies(&self) -> Vec<LatencyFn> {
        self.edges.iter().map(|e| e.latency.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congames_model::Affine;

    #[test]
    fn build_and_query() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let e0 = g.add_edge(a, b, Affine::linear(1.0).into()).unwrap();
        let e1 = g.add_edge(b, c, Affine::linear(2.0).into()).unwrap();
        let e2 = g.add_edge(a, c, Affine::linear(3.0).into()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.endpoints(e1), (b, c));
        assert_eq!(g.out_edges(a), &[e0, e2]);
        assert_eq!(g.latency(e2).value(2), 6.0);
        assert_eq!(g.latencies().len(), 3);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, Affine::linear(1.0).into()).unwrap();
        g.add_edge(a, b, Affine::linear(1.0).into()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_edges(a).len(), 2);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        assert!(matches!(
            g.add_edge(a, a, Affine::linear(1.0).into()),
            Err(NetworkError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let ghost = NodeId::new(9);
        assert!(matches!(
            g.add_edge(a, ghost, Affine::linear(1.0).into()),
            Err(NetworkError::UnknownNode { node: 9, nodes: 1 })
        ));
        assert!(g.check_node(a).is_ok());
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId::new(2).to_string(), "v2");
        assert_eq!(EdgeId::new(3).to_string(), "e3");
    }
}
