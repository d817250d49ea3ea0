//! Upper-triangular tile decomposition of the gene-pair space.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One rectangular tile of the pair space: gene rows `row_start..row_end`
/// against gene columns `col_start..col_end`, restricted to pairs
/// `(i, j)` with `i < j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tile {
    /// First row gene (inclusive).
    pub row_start: u32,
    /// One past the last row gene.
    pub row_end: u32,
    /// First column gene (inclusive).
    pub col_start: u32,
    /// One past the last column gene.
    pub col_end: u32,
}

impl Tile {
    /// Is this a diagonal tile (row block == column block)?
    pub fn is_diagonal(&self) -> bool {
        self.row_start == self.col_start && self.row_end == self.col_end
    }

    /// Number of `(i, j), i < j` pairs inside the tile.
    pub fn pair_count(&self) -> u64 {
        if self.is_diagonal() {
            let t = (self.row_end - self.row_start) as u64;
            t * (t - 1) / 2
        } else {
            let r = (self.row_end - self.row_start) as u64;
            let c = (self.col_end - self.col_start) as u64;
            r * c
        }
    }

    /// Number of distinct genes whose weight matrices the tile touches —
    /// the quantity the simulated platforms' cache model charges.
    pub fn genes_touched(&self) -> u32 {
        if self.is_diagonal() {
            self.row_end - self.row_start
        } else {
            (self.row_end - self.row_start) + (self.col_end - self.col_start)
        }
    }

    /// Iterate over the `(i, j), i < j` pairs of the tile in row-major
    /// order.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let tile = *self;
        (tile.row_start..tile.row_end).flat_map(move |i| tile.row_columns(i).map(move |j| (i, j)))
    }

    /// The columns `j` paired with row gene `i` inside the tile (`i < j`);
    /// empty for the last row of a diagonal tile.
    pub fn row_columns(&self, i: u32) -> std::ops::Range<u32> {
        let cstart = if self.is_diagonal() {
            i + 1
        } else {
            self.col_start
        };
        cstart.max(self.col_start)..self.col_end
    }

    /// The distinct gene indices the tile touches: rows first, then any
    /// columns not already in the row range.
    pub fn gene_indices(&self) -> Vec<u32> {
        let mut out: Vec<u32> = (self.row_start..self.row_end).collect();
        if !self.is_diagonal() {
            out.extend(self.col_start..self.col_end);
        }
        out
    }
}

/// The full tiling of the strict upper triangle of an `n × n` pair matrix
/// into `tile_size`-wide blocks.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSpace {
    genes: u32,
    tile_size: u32,
    tiles: Vec<Tile>,
}

impl TileSpace {
    /// Tile the pair space of `genes` genes with `tile_size × tile_size`
    /// blocks (edge blocks are smaller).
    ///
    /// # Panics
    /// Panics if `genes < 2` or `tile_size == 0`.
    pub fn new(genes: usize, tile_size: usize) -> Self {
        Self::frontier(genes, 0, tile_size)
    }

    /// Tile only the pairs `(i, j)`, `i < j`, with `j ≥ first_new`: the
    /// pairs a gene append adds, `g·(N−g) + g·(g−1)/2` of them for
    /// `g = genes − first_new`. Row blocks restart at `first_new`, so no
    /// tile straddles the old/new boundary; `first_new = 0` is the full
    /// tiling of [`Self::new`].
    ///
    /// # Panics
    /// Panics if `genes < 2`, `tile_size == 0`, or `first_new ≥ genes`.
    pub fn frontier(genes: usize, first_new: usize, tile_size: usize) -> Self {
        assert!(genes >= 2, "need at least two genes to have a pair");
        assert!(first_new < genes, "a frontier needs at least one new gene");
        let new_bands = bands(first_new..genes, tile_size);
        let row_bands = bands(0..first_new, tile_size)
            .into_iter()
            .chain(new_bands.iter().copied());
        Self::from_bands(genes, tile_size, row_bands, &new_bands)
    }

    /// Tile one block pair of a block-distributed run: row genes `rows`
    /// against column genes `cols`, each side cut into `tile_size` bands
    /// from its first gene. `rows == cols` is a diagonal block, which
    /// keeps only the pairs `i < j` (tiles on its diagonal are triangles,
    /// none lie below it); otherwise every row gene precedes every column
    /// gene and every tile is a full rectangle. [`Self::genes`] is
    /// `cols.end`, the gene count the tiles index into.
    ///
    /// # Panics
    /// Panics if `tile_size == 0`, a side is empty, or the sides overlap
    /// without being equal.
    pub fn block_pair(rows: Range<usize>, cols: Range<usize>, tile_size: usize) -> Self {
        assert!(
            !rows.is_empty() && !cols.is_empty(),
            "a block pair needs genes on both sides"
        );
        assert!(
            rows == cols || rows.end <= cols.start,
            "block rows must be the columns or precede them"
        );
        let genes = cols.end;
        let col_bands = bands(cols, tile_size);
        Self::from_bands(genes, tile_size, bands(rows, tile_size), &col_bands)
    }

    /// Every non-empty tile of a row band against the column bands that
    /// start at or after it, in row-major band order.
    fn from_bands(
        genes: usize,
        tile_size: usize,
        row_bands: impl IntoIterator<Item = (u32, u32)>,
        col_bands: &[(u32, u32)],
    ) -> Self {
        let mut tiles = Vec::new();
        for (row_start, row_end) in row_bands {
            for &(col_start, col_end) in col_bands.iter().filter(|c| c.0 >= row_start) {
                let tile = Tile {
                    row_start,
                    row_end,
                    col_start,
                    col_end,
                };
                if tile.pair_count() > 0 {
                    tiles.push(tile);
                }
            }
        }
        Self {
            genes: u32::try_from(genes).expect("gene count fits the u32 tile index space"),
            tile_size: u32::try_from(tile_size).expect("tile size fits the u32 tile index space"),
            tiles,
        }
    }

    /// Number of genes `n`: every tile indexes genes below it.
    pub fn genes(&self) -> usize {
        self.genes as usize
    }

    /// Configured tile edge length.
    pub fn tile_size(&self) -> usize {
        self.tile_size as usize
    }

    /// The tiles, in row-major block order.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Total pair count over all tiles: `n(n−1)/2` for [`Self::new`].
    pub fn total_pairs(&self) -> u64 {
        self.tiles.iter().map(Tile::pair_count).sum()
    }
}

/// `genes` cut into consecutive `tile_size`-wide bands (the last one
/// shorter), as `(start, end)` gene indices.
///
/// # Panics
/// Panics if `tile_size == 0` or `genes` reaches past `u32`.
fn bands(genes: Range<usize>, tile_size: usize) -> Vec<(u32, u32)> {
    assert!(tile_size >= 1, "tile size must be positive");
    let index = |g: usize| u32::try_from(g).expect("gene count fits the u32 tile index space");
    let end = genes.end;
    genes
        .step_by(tile_size)
        .map(|s| (index(s), index(s.saturating_add(tile_size).min(end))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn tiles_partition_the_pair_space_exactly() {
        for (n, t) in [
            (10usize, 3usize),
            (16, 4),
            (17, 4),
            (100, 7),
            (5, 64),
            (2, 1),
        ] {
            let space = TileSpace::new(n, t);
            let mut seen = HashSet::new();
            for tile in space.tiles() {
                for (i, j) in tile.pairs() {
                    assert!(i < j, "pair ({i},{j}) not strictly upper triangular");
                    assert!((j as usize) < n);
                    assert!(seen.insert((i, j)), "pair ({i},{j}) covered twice");
                }
            }
            assert_eq!(
                seen.len() as u64,
                (n as u64) * (n as u64 - 1) / 2,
                "n={n}, t={t}"
            );
            assert_eq!(space.total_pairs(), seen.len() as u64);
        }
    }

    #[test]
    fn frontier_tiles_cover_each_new_pair_exactly_once() {
        for (n, first_new, t) in [
            (6usize, 4u32, 2usize),
            (10, 7, 3),
            (17, 5, 4),
            (12, 11, 5),
            (9, 0, 4),
            (40, 33, 8),
            (25, 1, 1),
        ] {
            let space = TileSpace::frontier(n, first_new as usize, t);
            let mut seen = HashSet::new();
            for tile in space.tiles() {
                assert!(
                    tile.row_end <= first_new || tile.row_start >= first_new,
                    "{tile:?} straddles the old/new boundary"
                );
                for (i, j) in tile.pairs() {
                    assert!(i < j && (j as usize) < n);
                    assert!(j >= first_new, "({i},{j}) is not a new pair");
                    assert!(seen.insert((i, j)), "({i},{j}) covered twice");
                }
                assert!(tile.genes_touched() as usize <= 2 * t);
            }
            let (n, g) = (n as u64, n as u64 - u64::from(first_new));
            let want = g * (n - g) + g * (g - 1) / 2;
            assert_eq!(seen.len() as u64, want, "n={n} first_new={first_new} t={t}");
            assert_eq!(space.total_pairs(), want);
        }
    }

    #[test]
    fn block_pair_tiles_cover_each_pair_of_the_block_pair_once() {
        // (rows, cols, tile): diagonal blocks of several sizes, cross
        // blocks adjacent and apart, bands wider than a block.
        for (rows, cols, t) in [
            (0usize..7, 0usize..7, 3usize),
            (5..6, 5..6, 4),
            (4..12, 4..12, 1),
            (10..19, 10..19, 9),
            (0..7, 7..13, 3),
            (3..5, 9..20, 4),
            (2..9, 9..10, 2),
            (0..4, 4..8, 64),
        ] {
            let space = TileSpace::block_pair(rows.clone(), cols.clone(), t);
            let diagonal = rows == cols;
            let mut seen = HashSet::new();
            for tile in space.tiles() {
                assert!(tile.genes_touched() as usize <= 2 * t, "{tile:?}");
                for (i, j) in tile.pairs() {
                    assert!(rows.contains(&(i as usize)) && cols.contains(&(j as usize)));
                    assert!(i < j, "({i},{j}) lies below the diagonal");
                    assert!(seen.insert((i, j)), "({i},{j}) covered twice");
                }
            }
            let (r, c) = (rows.len() as u64, cols.len() as u64);
            let want = if diagonal { r * (r - 1) / 2 } else { r * c };
            assert_eq!(seen.len() as u64, want, "{rows:?} × {cols:?}, t={t}");
            assert_eq!(space.total_pairs(), want);
            assert_eq!(space.genes(), cols.end);
        }
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn overlapping_block_pair_rejected() {
        let _ = TileSpace::block_pair(0..6, 3..9, 2);
    }

    #[test]
    fn pair_count_matches_enumeration() {
        let space = TileSpace::new(23, 5);
        for tile in space.tiles() {
            assert_eq!(tile.pair_count(), tile.pairs().count() as u64, "{tile:?}");
        }
    }

    #[test]
    fn diagonal_tiles_are_triangles() {
        let space = TileSpace::new(12, 4);
        let diag: Vec<&Tile> = space.tiles().iter().filter(|t| t.is_diagonal()).collect();
        assert_eq!(diag.len(), 3);
        for t in diag {
            assert_eq!(t.pair_count(), 6); // C(4,2)
            assert_eq!(t.genes_touched(), 4);
        }
    }

    #[test]
    fn off_diagonal_tiles_are_full_rectangles() {
        let space = TileSpace::new(8, 4);
        let off: Vec<&Tile> = space.tiles().iter().filter(|t| !t.is_diagonal()).collect();
        assert_eq!(off.len(), 1);
        assert_eq!(off[0].pair_count(), 16);
        assert_eq!(off[0].genes_touched(), 8);
    }

    #[test]
    fn gene_indices_cover_rows_and_columns() {
        let t = Tile {
            row_start: 0,
            row_end: 2,
            col_start: 4,
            col_end: 6,
        };
        assert_eq!(t.gene_indices(), vec![0, 1, 4, 5]);
        let d = Tile {
            row_start: 4,
            row_end: 6,
            col_start: 4,
            col_end: 6,
        };
        assert_eq!(d.gene_indices(), vec![4, 5]);
    }

    #[test]
    fn oversized_tile_degenerates_to_single_tile() {
        let space = TileSpace::new(6, 100);
        assert_eq!(space.tiles().len(), 1);
        assert!(space.tiles()[0].is_diagonal());
        assert_eq!(space.total_pairs(), 15);
    }

    #[test]
    #[should_panic(expected = "at least two genes")]
    fn single_gene_rejected() {
        let _ = TileSpace::new(1, 4);
    }

    proptest! {
        #[test]
        fn prop_partition_exact(n in 2usize..120, t in 1usize..40) {
            let space = TileSpace::new(n, t);
            let covered: u64 = space.tiles().iter().map(Tile::pair_count).sum();
            prop_assert_eq!(covered, (n as u64) * (n as u64 - 1) / 2);
            // No tile exceeds the configured working set.
            for tile in space.tiles() {
                prop_assert!(tile.genes_touched() as usize <= 2 * t);
            }
        }
    }
}
