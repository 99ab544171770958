use std::fmt;

use crate::error::GameError;
use crate::resource::ResourceId;

/// Identifier of a strategy within a [`CongestionGame`].
///
/// Strategy ids index the game's global strategy list; each strategy belongs
/// to exactly one player class.
///
/// [`CongestionGame`]: crate::CongestionGame
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrategyId(u32);

impl StrategyId {
    /// Create a strategy id from a raw index.
    pub fn new(index: u32) -> Self {
        StrategyId(index)
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

impl fmt::Display for StrategyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for StrategyId {
    fn from(index: u32) -> Self {
        StrategyId(index)
    }
}

/// A strategy: a non-empty set of resources, stored sorted and deduplicated.
///
/// In network congestion games a strategy is an s–t path; in singleton games
/// it is a single link. The sorted representation lets hypothetical-move
/// latency computations walk two strategies with a linear merge.
///
/// # Example
///
/// ```
/// use congames_model::{ResourceId, Strategy};
/// let s = Strategy::new(vec![ResourceId::new(2), ResourceId::new(0)])?;
/// assert_eq!(s.resources().len(), 2);
/// assert!(s.contains(ResourceId::new(0)));
/// # Ok::<(), congames_model::GameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Strategy {
    /// Sorted, deduplicated resource ids.
    resources: Vec<ResourceId>,
}

impl Strategy {
    /// Create a strategy from resource ids (sorted and deduplicated).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::EmptyStrategy`] if no resources are given.
    pub fn new(mut resources: Vec<ResourceId>) -> Result<Self, GameError> {
        if resources.is_empty() {
            return Err(GameError::EmptyStrategy);
        }
        resources.sort_unstable();
        resources.dedup();
        Ok(Strategy { resources })
    }

    /// Create the singleton strategy `{r}`.
    pub fn singleton(r: ResourceId) -> Self {
        Strategy { resources: vec![r] }
    }

    /// The sorted resource ids of this strategy.
    pub fn resources(&self) -> &[ResourceId] {
        &self.resources
    }

    /// Number of resources in the strategy (`|P|`).
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Strategies are never empty, but the method is provided for symmetry
    /// with collection APIs. Always returns `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the strategy uses resource `r` (binary search).
    pub fn contains(&self, r: ResourceId) -> bool {
        self.resources.binary_search(&r).is_ok()
    }

    /// Visit the symmetric difference of `self` (origin) and `to`
    /// (destination) with a single callback: `f(e, -1)` for `e ∈ self \ to`
    /// and `f(e, +1)` for `e ∈ to \ self`.
    ///
    /// This is the primitive behind applying a migration to resource loads:
    /// resources in the intersection keep their congestion.
    pub fn diff_signed(&self, to: &Strategy, mut f: impl FnMut(ResourceId, i64)) {
        let (a, b) = (&self.resources, &to.resources);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    f(a[i], -1);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    f(b[j], 1);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < a.len() {
            f(a[i], -1);
            i += 1;
        }
        while j < b.len() {
            f(b[j], 1);
            j += 1;
        }
    }
}

impl FromIterator<ResourceId> for Strategy {
    /// Collect resource ids into a strategy.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty; use [`Strategy::new`] for fallible
    /// construction.
    fn from_iter<I: IntoIterator<Item = ResourceId>>(iter: I) -> Self {
        Strategy::new(iter.into_iter().collect()).expect("strategy must be non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> ResourceId {
        ResourceId::new(i)
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = Strategy::new(vec![rid(3), rid(1), rid(3), rid(2)]).unwrap();
        assert_eq!(s.resources(), &[rid(1), rid(2), rid(3)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_is_rejected() {
        assert_eq!(Strategy::new(vec![]), Err(GameError::EmptyStrategy));
    }

    #[test]
    fn contains_uses_membership() {
        let s = Strategy::new(vec![rid(0), rid(5)]).unwrap();
        assert!(s.contains(rid(0)));
        assert!(s.contains(rid(5)));
        assert!(!s.contains(rid(3)));
    }

    #[test]
    fn diff_signed_partitions_symmetric_difference() {
        let a = Strategy::new(vec![rid(0), rid(1), rid(2)]).unwrap();
        let b = Strategy::new(vec![rid(1), rid(3)]).unwrap();
        let mut visited = vec![];
        a.diff_signed(&b, |e, sign| visited.push((e, sign)));
        assert_eq!(visited, vec![(rid(0), -1), (rid(2), -1), (rid(3), 1)]);
    }

    #[test]
    fn diff_signed_identical_strategies_is_empty() {
        let a = Strategy::new(vec![rid(1), rid(4)]).unwrap();
        let mut n = 0;
        a.diff_signed(&a.clone(), |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn diff_signed_disjoint_strategies_is_total() {
        let a = Strategy::new(vec![rid(0), rid(1)]).unwrap();
        let b = Strategy::new(vec![rid(2), rid(3)]).unwrap();
        let mut n = 0;
        a.diff_signed(&b, |_, _| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn from_iterator_collects() {
        let s: Strategy = [rid(2), rid(0)].into_iter().collect();
        assert_eq!(s.resources(), &[rid(0), rid(2)]);
    }

    #[test]
    fn strategy_id_display() {
        assert_eq!(StrategyId::new(4).to_string(), "s4");
        assert_eq!(StrategyId::from(4u32).index(), 4);
    }
}
