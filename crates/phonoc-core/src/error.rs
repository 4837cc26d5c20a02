//! Error types for mapping-problem construction and evaluation.

use phonoc_phys::Length;
use phonoc_route::RoutingError;
use phonoc_router::PortPair;
use phonoc_topo::TileId;
use std::fmt;

/// Errors raised while assembling or evaluating a mapping problem.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Condition (2) of the paper violated: more tasks than tiles.
    TooManyTasks {
        /// `size(C)`.
        tasks: usize,
        /// `size(T)`.
        tiles: usize,
    },
    /// The CG has more tasks than the evaluator can index: occupancy
    /// entries pack task ids into `u16`s.
    TaskLimit {
        /// `size(C)`.
        tasks: usize,
        /// The largest supported task count.
        limit: usize,
    },
    /// The routing algorithm failed on some tile pair.
    Routing(RoutingError),
    /// The routing algorithm asked the router for a connection its
    /// netlist does not implement (e.g. YX routing on Crux, which has no
    /// Y→X turns).
    UnsupportedConnection {
        /// Router name.
        router: String,
        /// The unsupported (input, output) pair.
        pair: PortPair,
    },
    /// A routed path crosses a link whose length is NaN, infinite or
    /// negative, which would give that path a meaningless loss.
    BadLinkLength {
        /// Source tile of the routed path.
        src: TileId,
        /// Destination tile of the routed path.
        dst: TileId,
        /// Index of the offending segment along the path.
        link: usize,
        /// Its length.
        length: Length,
    },
    /// A mapping was structurally invalid (duplicate tile, out of range).
    InvalidMapping(String),
    /// The physical parameters failed validation.
    BadParameters(String),
    /// An in-place problem mutation (edge re-weight / add / remove) was
    /// rejected; the problem is left unchanged.
    Mutation(String),
    /// [`OptContext::set_objective`](crate::OptContext::set_objective)
    /// was called after the session already evaluated or peeked —
    /// mixing scores from two objectives in one incumbent/history would
    /// be meaningless, so the objective is locked by the first
    /// evaluation. The context is left unchanged.
    ObjectiveLocked {
        /// Full-evaluation-equivalents consumed when the call arrived.
        evaluations: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TooManyTasks { tasks, tiles } => write!(
                f,
                "cannot map {tasks} tasks onto {tiles} tiles (condition size(C) <= size(T))"
            ),
            CoreError::TaskLimit { tasks, limit } => write!(
                f,
                "cannot evaluate {tasks} tasks: at most {limit} are supported"
            ),
            CoreError::Routing(e) => write!(f, "routing failed: {e}"),
            CoreError::UnsupportedConnection { router, pair } => write!(
                f,
                "router `{router}` does not implement the {pair} connection required by the routing algorithm"
            ),
            CoreError::BadLinkLength {
                src,
                dst,
                link,
                length,
            } => write!(
                f,
                "the routed path {src} -> {dst} crosses link {link} of length {} mm; \
                 link lengths must be finite and non-negative",
                length.as_mm()
            ),
            CoreError::InvalidMapping(msg) => write!(f, "invalid mapping: {msg}"),
            CoreError::BadParameters(msg) => write!(f, "invalid physical parameters: {msg}"),
            CoreError::Mutation(msg) => write!(f, "invalid problem mutation: {msg}"),
            CoreError::ObjectiveLocked { evaluations } => write!(
                f,
                "set_objective after {evaluations} evaluation(s): the scoring objective is \
                 locked once a session evaluates (set it before any evaluation)"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Routing(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RoutingError> for CoreError {
    fn from(e: RoutingError) -> Self {
        CoreError::Routing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonoc_router::Port;

    #[test]
    fn displays_are_informative() {
        let e = CoreError::TooManyTasks {
            tasks: 17,
            tiles: 16,
        };
        assert!(e.to_string().contains("17"));
        let e = CoreError::UnsupportedConnection {
            router: "crux".into(),
            pair: PortPair::new(Port::North, Port::East),
        };
        assert!(e.to_string().contains("crux"));
        assert!(e.to_string().contains("N→E"));
        let e: CoreError = RoutingError::SelfRoute { tile: TileId(3) }.into();
        assert!(e.to_string().contains("t3"));
    }

    #[test]
    fn routing_error_source_is_preserved() {
        use std::error::Error as _;
        let e: CoreError = RoutingError::SelfRoute { tile: TileId(0) }.into();
        assert!(e.source().is_some());
    }
}
