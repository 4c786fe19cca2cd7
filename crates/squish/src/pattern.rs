use crate::SquishError;
use dp_geometry::{BitGrid, Coord, GeometryError, Layout, Rect};

/// A squish pattern: binary topology matrix plus geometric Δ vectors
/// (paper Fig. 2).
///
/// The topology matrix entry `(i, j)` says whether the cell between scan
/// lines `i` and `i+1` (x axis) and `j` and `j+1` (y axis) is covered by a
/// shape; `dx[i]` and `dy[j]` are the physical interval lengths in
/// nanometres. The representation is lossless: [`SquishPattern::decode`]
/// reconstructs the layout exactly (up to rectangle decomposition).
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SquishPattern {
    topology: BitGrid,
    dx: Vec<Coord>,
    dy: Vec<Coord>,
}

impl SquishPattern {
    /// Builds a squish pattern from parts, validating shape and positivity.
    ///
    /// # Errors
    ///
    /// * [`SquishError::DeltaShapeMismatch`] when `dx`/`dy` lengths differ
    ///   from the topology width/height,
    /// * [`SquishError::NonPositiveDelta`] when an interval is `<= 0`.
    pub fn new(topology: BitGrid, dx: Vec<Coord>, dy: Vec<Coord>) -> Result<Self, SquishError> {
        if dx.len() != topology.width() || dy.len() != topology.height() {
            return Err(SquishError::DeltaShapeMismatch {
                cols: topology.width(),
                rows: topology.height(),
                dx_len: dx.len(),
                dy_len: dy.len(),
            });
        }
        for (index, &value) in dx.iter().enumerate() {
            if value <= 0 {
                return Err(SquishError::NonPositiveDelta {
                    axis: "x",
                    index,
                    value,
                });
            }
        }
        for (index, &value) in dy.iter().enumerate() {
            if value <= 0 {
                return Err(SquishError::NonPositiveDelta {
                    axis: "y",
                    index,
                    value,
                });
            }
        }
        Ok(SquishPattern { topology, dx, dy })
    }

    /// Encodes a layout into its squish pattern by extracting scan lines
    /// along every polygon edge and rasterizing the cells in between.
    pub fn encode(layout: &Layout) -> Self {
        let (xs, ys) = layout.scan_lines();
        let topology = layout.rasterize(&xs, &ys);
        let dx = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let dy = ys.windows(2).map(|w| w[1] - w[0]).collect();
        SquishPattern { topology, dx, dy }
    }

    /// The topology matrix.
    pub fn topology(&self) -> &BitGrid {
        &self.topology
    }

    /// Interval lengths along x.
    pub fn dx(&self) -> &[Coord] {
        &self.dx
    }

    /// Interval lengths along y.
    pub fn dy(&self) -> &[Coord] {
        &self.dy
    }

    /// Replaces the geometric vectors, keeping the topology. This is the
    /// *assign* step of the legalization phase (paper Fig. 4, right).
    ///
    /// # Errors
    ///
    /// Same validation as [`SquishPattern::new`].
    pub fn with_deltas(&self, dx: Vec<Coord>, dy: Vec<Coord>) -> Result<Self, SquishError> {
        SquishPattern::new(self.topology.clone(), dx, dy)
    }

    /// Physical width of the pattern window (sum of Δx).
    pub fn width(&self) -> Coord {
        self.dx.iter().sum()
    }

    /// Physical height of the pattern window (sum of Δy).
    pub fn height(&self) -> Coord {
        self.dy.iter().sum()
    }

    /// Scan-line coordinates along x (prefix sums of Δx, starting at 0).
    pub fn x_scan_lines(&self) -> Vec<Coord> {
        std::iter::once(0)
            .chain(self.dx.iter().scan(0, |acc, &d| {
                *acc += d;
                Some(*acc)
            }))
            .collect()
    }

    /// Scan-line coordinates along y (prefix sums of Δy, starting at 0).
    pub fn y_scan_lines(&self) -> Vec<Coord> {
        std::iter::once(0)
            .chain(self.dy.iter().scan(0, |acc, &d| {
                *acc += d;
                Some(*acc)
            }))
            .collect()
    }

    /// Decodes the pattern back into a layout of merged rectangles.
    ///
    /// # Errors
    ///
    /// Propagates [`GeometryError`] when the Δ vectors describe a degenerate
    /// window (cannot happen for patterns built through [`SquishPattern::new`]).
    pub fn decode(&self) -> Result<Layout, GeometryError> {
        let xs = self.x_scan_lines();
        let ys = self.y_scan_lines();
        let window = Rect::new(0, 0, self.width(), self.height())?;
        let mut layout = Layout::new(window);
        for row in 0..self.topology.height() {
            let mut col = 0;
            while col < self.topology.width() {
                if self.topology.get(col, row) {
                    let start = col;
                    while col < self.topology.width() && self.topology.get(col, row) {
                        col += 1;
                    }
                    layout.push(Rect::new(xs[start], ys[row], xs[col], ys[row + 1])?);
                } else {
                    col += 1;
                }
            }
        }
        Ok(layout.normalized())
    }

    /// The topology's shape `(width, height)`. This is the complexity
    /// `(c_x, c_y)` of paper §II-C (scan lines minus one along each axis)
    /// only for an encoded, unpadded pattern; a generated topology is
    /// padded to the model's matrix side, so its complexity is
    /// [`complexity_of_grid`](crate::complexity_of_grid) of the topology.
    pub fn complexity(&self) -> (usize, usize) {
        (self.topology.width(), self.topology.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_layout() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 2048, 2048).unwrap());
        l.push(Rect::new(100, 200, 600, 1800).unwrap());
        l.push(Rect::new(900, 200, 1400, 1800).unwrap());
        l.push(Rect::new(1600, 500, 2000, 900).unwrap());
        l
    }

    #[test]
    fn encode_shapes() {
        let p = SquishPattern::encode(&sample_layout());
        assert_eq!(p.width(), 2048);
        assert_eq!(p.height(), 2048);
        assert_eq!(p.dx().len(), p.topology().width());
        assert_eq!(p.dy().len(), p.topology().height());
    }

    #[test]
    fn round_trip_is_lossless() {
        let l = sample_layout();
        let p = SquishPattern::encode(&l);
        let restored = p.decode().unwrap();
        assert_eq!(restored.normalized(), l.normalized());
        assert_eq!(restored.shape_area(), l.shape_area());
    }

    #[test]
    fn empty_layout_round_trip() {
        let l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        let p = SquishPattern::encode(&l);
        assert_eq!(p.complexity(), (1, 1));
        assert!(p.decode().unwrap().is_empty());
    }

    #[test]
    fn new_validates_shape() {
        let g = BitGrid::new(3, 2).unwrap();
        assert!(matches!(
            SquishPattern::new(g.clone(), vec![1, 1], vec![1, 1]),
            Err(SquishError::DeltaShapeMismatch { .. })
        ));
        assert!(matches!(
            SquishPattern::new(g, vec![1, 0, 1], vec![1, 1]),
            Err(SquishError::NonPositiveDelta { axis: "x", .. })
        ));
    }

    #[test]
    fn with_deltas_rescales_geometry() {
        let l = sample_layout();
        let p = SquishPattern::encode(&l);
        let dx: Vec<Coord> = p.dx().iter().map(|_| 10).collect();
        let dy: Vec<Coord> = p.dy().iter().map(|_| 20).collect();
        let q = p.with_deltas(dx, dy).unwrap();
        assert_eq!(q.width(), 10 * p.dx().len() as Coord);
        assert_eq!(q.topology(), p.topology());
        // Same topology, different geometry: shape count is preserved.
        let a = p.decode().unwrap();
        let b = q.decode().unwrap();
        assert_eq!(a.normalized().len(), b.normalized().len());
    }

    #[test]
    fn complexity_is_definition_1_only_before_padding() {
        let p = SquishPattern::encode(&sample_layout());
        let core = crate::complexity_of_grid(p.topology());
        assert_eq!(p.complexity(), core);
        let (padded, _) = crate::extend_to_side(&p, 16).unwrap();
        assert_eq!(padded.complexity(), (16, 16));
        assert_eq!(crate::complexity_of_grid(padded.topology()), core);
    }

    #[test]
    fn scan_lines_are_prefix_sums() {
        let g = BitGrid::new(3, 2).unwrap();
        let p = SquishPattern::new(g, vec![5, 10, 15], vec![7, 3]).unwrap();
        assert_eq!(p.x_scan_lines(), vec![0, 5, 15, 30]);
        assert_eq!(p.y_scan_lines(), vec![0, 7, 10]);
    }

    /// Random Manhattan layouts: place k non-overlapping rects on a
    /// coarse lattice to guarantee disjointness.
    fn random_layout(seed: u64, k: usize) -> Layout {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut layout = Layout::new(Rect::new(0, 0, 1000, 1000).unwrap());
        for _ in 0..k {
            let cx = rng.gen_range(0i64..9) * 100;
            let cy = rng.gen_range(0i64..9) * 100;
            let w = rng.gen_range(20i64..90);
            let h = rng.gen_range(20i64..90);
            layout.push(Rect::new(cx + 5, cy + 5, cx + 5 + w, cy + 5 + h).unwrap());
        }
        layout.normalized()
    }

    proptest! {
        #[test]
        fn random_round_trips(seed in any::<u64>(), k in 1usize..8) {
            let l = random_layout(seed, k);
            let p = SquishPattern::encode(&l);
            let restored = p.decode().unwrap();
            prop_assert_eq!(restored.normalized(), l.normalized());
        }

        #[test]
        fn deltas_are_positive_and_sum_to_window(seed in any::<u64>(), k in 1usize..8) {
            let l = random_layout(seed, k);
            let p = SquishPattern::encode(&l);
            prop_assert!(p.dx().iter().all(|&d| d > 0));
            prop_assert!(p.dy().iter().all(|&d| d > 0));
            prop_assert_eq!(p.width(), l.window().width());
            prop_assert_eq!(p.height(), l.window().height());
        }
    }
}
