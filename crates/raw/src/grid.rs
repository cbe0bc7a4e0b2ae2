//! Tile grid geometry.
//!
//! The paper's system "explicitly manages on-chip layout and communication
//! distance" (§1) — the placement of the MMU tile next to the execution
//! tile, and of L2 banks near the MMU, is a first-class design decision.
//! Hop counts computed here feed every network-latency calculation.

/// Coordinates of one tile in the grid (column `x`, row `y`).
///
/// # Examples
///
/// ```
/// use vta_raw::TileId;
///
/// let a = TileId::new(0, 0);
/// let b = TileId::new(3, 3);
/// assert_eq!(a.hops_to(b), 6);
/// assert_eq!(a.hops_to(a), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId {
    /// Column (0-based, increasing eastward).
    pub x: u8,
    /// Row (0-based, increasing southward).
    pub y: u8,
}

impl TileId {
    /// Creates a tile coordinate.
    pub fn new(x: u8, y: u8) -> TileId {
        TileId { x, y }
    }

    /// Manhattan distance in network hops (dimension-ordered routing).
    pub fn hops_to(self, other: TileId) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }

    /// Linear index in row-major order.
    pub fn index(self, width: u8) -> usize {
        self.y as usize * width as usize + self.x as usize
    }

    /// All tiles of a `width`×`height` grid in row-major order.
    pub fn all(width: u8, height: u8) -> impl Iterator<Item = TileId> {
        (0..height).flat_map(move |y| (0..width).map(move |x| TileId::new(x, y)))
    }
}

impl From<TileId> for vta_sim::Coord {
    fn from(t: TileId) -> vta_sim::Coord {
        vta_sim::Coord { x: t.x, y: t.y }
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(TileId::new(1, 1).hops_to(TileId::new(2, 3)), 3);
        assert_eq!(TileId::new(2, 3).hops_to(TileId::new(1, 1)), 3);
    }

    #[test]
    fn row_major_enumeration() {
        let tiles: Vec<TileId> = TileId::all(4, 4).collect();
        assert_eq!(tiles.len(), 16);
        assert_eq!(tiles[0], TileId::new(0, 0));
        assert_eq!(tiles[1], TileId::new(1, 0));
        assert_eq!(tiles[15], TileId::new(3, 3));
        for (i, t) in tiles.iter().enumerate() {
            assert_eq!(t.index(4), i);
        }
    }
}
