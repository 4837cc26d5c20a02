//! Router port naming for 5-port optical routers.
//!
//! Every router in a direct-topology photonic NoC exposes five
//! bidirectional ports: four toward the cardinal neighbours and one toward
//! the local tile (injection/ejection).

use std::fmt;

/// One of the five ports of a mesh/torus optical router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// The local tile (injection on input, ejection on output).
    Local,
    /// Toward the neighbour with larger Y.
    North,
    /// Toward the neighbour with larger X.
    East,
    /// Toward the neighbour with smaller Y.
    South,
    /// Toward the neighbour with smaller X.
    West,
}

impl Port {
    /// All five ports, in index order.
    pub const ALL: [Port; 5] = [
        Port::Local,
        Port::North,
        Port::East,
        Port::South,
        Port::West,
    ];

    /// Dense index in `0..5`, matching the order of [`Port::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Port::Local => 0,
            Port::North => 1,
            Port::East => 2,
            Port::South => 3,
            Port::West => 4,
        }
    }

    /// The port a link from this port arrives at on the neighbouring
    /// router (North ↔ South, East ↔ West).
    ///
    /// # Panics
    ///
    /// Panics for [`Port::Local`], which never connects two routers.
    #[must_use]
    pub fn opposite(self) -> Port {
        match self {
            Port::North => Port::South,
            Port::South => Port::North,
            Port::East => Port::West,
            Port::West => Port::East,
            Port::Local => panic!("Local port has no opposite"),
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::Local => "L",
            Port::North => "N",
            Port::East => "E",
            Port::South => "S",
            Port::West => "W",
        };
        write!(f, "{s}")
    }
}

/// An ordered (input port, output port) pair identifying one connection
/// through a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortPair {
    /// The port the signal enters.
    pub input: Port,
    /// The port the signal leaves.
    pub output: Port,
}

impl PortPair {
    /// Creates a pair. `input == output` is representable (it indexes
    /// the diagonal) but no built-in router supports such a U-turn.
    #[must_use]
    pub fn new(input: Port, output: Port) -> Self {
        PortPair { input, output }
    }

    /// Dense index in `0..25` for table lookups.
    #[must_use]
    pub fn index(self) -> usize {
        self.input.index() * 5 + self.output.index()
    }

    /// All 25 ordered pairs (including the unused diagonal), in index
    /// order.
    pub fn all() -> impl Iterator<Item = PortPair> {
        Port::ALL
            .into_iter()
            .flat_map(|i| Port::ALL.into_iter().map(move |o| PortPair::new(i, o)))
    }
}

impl fmt::Display for PortPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.input, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, p) in Port::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let pairs: Vec<PortPair> = PortPair::all().collect();
        assert_eq!(pairs.len(), 25);
        for (i, pair) in pairs.iter().enumerate() {
            assert_eq!(pair.index(), i);
        }
    }

    #[test]
    fn opposites_are_involutions() {
        for p in [Port::North, Port::East, Port::South, Port::West] {
            assert_eq!(p.opposite().opposite(), p);
            assert_ne!(p.opposite(), p);
        }
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_has_no_opposite() {
        let _ = Port::Local.opposite();
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Port::North.to_string(), "N");
        assert_eq!(PortPair::new(Port::West, Port::Local).to_string(), "W→L");
    }
}
