//! The overlap graph of input plates on a `side x side` grid.
//!
//! Montage fits background-difference planes between every pair of
//! *overlapping* reprojected images. On a regular survey grid each plate
//! overlaps its horizontal and vertical neighbors and (depending on the
//! survey geometry) some diagonal neighbors. We include all horizontal and
//! vertical pairs plus an evenly spread deterministic subset of diagonals
//! sized by [`calib::diagonal_count`], which reproduces the paper's exact
//! task counts for the canonical grids.
//!
//! [`calib::diagonal_count`]: crate::calib::diagonal_count

use crate::calib;

/// A plate position on the grid, in row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plate {
    /// Row, `0..side`.
    pub row: u32,
    /// Column, `0..side`.
    pub col: u32,
}

impl Plate {
    /// Row-major index of this plate.
    pub fn index(&self, side: u32) -> u32 {
        self.row * side + self.col
    }
}

/// Enumerates the overlapping plate pairs for a grid of the given side, in
/// a fixed deterministic order: all horizontal pairs, then all vertical
/// pairs, then the selected down-right diagonal pairs.
pub fn overlap_pairs(side: u32) -> Vec<(Plate, Plate)> {
    assert!(side >= 2, "overlap graph needs a side of at least 2");
    let mut pairs = Vec::new();
    // Horizontal neighbors.
    for r in 0..side {
        for c in 0..side - 1 {
            pairs.push((Plate { row: r, col: c }, Plate { row: r, col: c + 1 }));
        }
    }
    // Vertical neighbors.
    for r in 0..side - 1 {
        for c in 0..side {
            pairs.push((Plate { row: r, col: c }, Plate { row: r + 1, col: c }));
        }
    }
    // Evenly spread subset of the (side-1)^2 down-right diagonals.
    let total = u64::from(side - 1).pow(2);
    let want = calib::diagonal_count(side).min(total);
    let mut picked = 0u64;
    for i in 0..total {
        // Bresenham-style selection: pick index i when the running
        // proportion crosses the next integer.
        let below = i * want / total;
        let above = (i + 1) * want / total;
        if above > below {
            let r = (i as u32) / (side - 1);
            let c = (i as u32) % (side - 1);
            pairs.push((
                Plate { row: r, col: c },
                Plate {
                    row: r + 1,
                    col: c + 1,
                },
            ));
            picked += 1;
        }
    }
    debug_assert_eq!(picked, want);
    pairs
}

/// Number of overlap pairs for a grid side (without materializing them).
/// Saturates at `u64::MAX` instead of overflowing.
pub fn overlap_count(side: u32) -> u64 {
    let s = u64::from(side);
    let diagonals = calib::diagonal_count(side).min((s - 1) * (s - 1));
    (2 * s).saturating_mul(s - 1).saturating_add(diagonals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_enumeration() {
        for side in 2..30 {
            assert_eq!(
                overlap_pairs(side).len() as u64,
                overlap_count(side),
                "side {side}"
            );
        }
    }

    #[test]
    fn canonical_pair_counts() {
        assert_eq!(overlap_count(7), 99);
        assert_eq!(overlap_count(13), 387);
        assert_eq!(overlap_count(26), 1669);
    }

    #[test]
    fn pairs_are_valid_neighbors() {
        for (a, b) in overlap_pairs(9) {
            let dr = b.row as i64 - a.row as i64;
            let dc = b.col as i64 - a.col as i64;
            assert!(
                (dr, dc) == (0, 1) || (dr, dc) == (1, 0) || (dr, dc) == (1, 1),
                "({},{}) -> ({},{}) is not a neighbor pair",
                a.row,
                a.col,
                b.row,
                b.col
            );
            assert!(a.row < 9 && a.col < 9 && b.row < 9 && b.col < 9);
        }
    }

    #[test]
    fn pairs_are_unique() {
        let pairs = overlap_pairs(13);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(seen.insert((a.index(13), b.index(13))), "duplicate pair");
        }
    }

    #[test]
    fn every_plate_appears_in_some_pair() {
        for side in [2u32, 7, 13] {
            let pairs = overlap_pairs(side);
            let mut seen = vec![false; (side * side) as usize];
            for (a, b) in pairs {
                seen[a.index(side) as usize] = true;
                seen[b.index(side) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "side {side}: isolated plate");
        }
    }

    #[test]
    fn plate_index_is_row_major() {
        assert_eq!(Plate { row: 2, col: 3 }.index(7), 17);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_grid() {
        overlap_pairs(1);
    }
}
