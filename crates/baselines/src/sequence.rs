//! The LayouTransformer baseline (paper ref. \[9\]): sequential layout
//! generation over polygon token sequences.
//!
//! The original uses a transformer decoder over sequences of polygon
//! vertices/directed edges. The reproduction keeps the exact problem
//! decomposition — patterns are sets of rectilinear polygons, polygons are
//! closed walks of direction/length tokens in physical coordinates — and
//! replaces the transformer with an order-2 Markov model over the token
//! alphabet (learned start/transition statistics, empirical polygon-count
//! and walk-length distributions). Generation samples token walks, closes
//! them, and places the resulting polygons in the tile without bounding-box
//! overlap, falling back to a memorised training polygon when a walk fails
//! to close — the same behaviour a heavily-overfit sequence model exhibits.

use std::collections::BTreeMap;

use dp_geometry::{polygons_of_grid, Coord, EdgeToken, Layout, Point, Rect, RectilinearPolygon};
use dp_squish::SquishPattern;
use rand::Rng;

/// Configuration of the sequence-model baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceModelConfig {
    /// Tile side in nm.
    pub window: Coord,
    /// Length quantisation step in nm.
    pub quantum: Coord,
    /// Maximum polygons per generated pattern.
    pub max_polygons: usize,
    /// Maximum tokens per polygon walk before forced closing.
    pub max_tokens: usize,
    /// Bounding-box clearance enforced between placed polygons.
    pub clearance: Coord,
}

impl Default for SequenceModelConfig {
    fn default() -> Self {
        SequenceModelConfig {
            window: 2048,
            quantum: 32,
            max_polygons: 12,
            max_tokens: 16,
            clearance: 64,
        }
    }
}

/// Direction-plus-quantised-length token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TokenClass {
    /// 0 = right, 1 = up, 2 = left, 3 = down.
    dir: u8,
    /// Length bucket (multiples of `quantum`, at least 1).
    bucket: u32,
}

impl TokenClass {
    fn horizontal(&self) -> bool {
        self.dir == 0 || self.dir == 2
    }

    fn of(token: &EdgeToken, quantum: Coord) -> TokenClass {
        let (dir, len) = match *token {
            EdgeToken::Right(d) => (0u8, d),
            EdgeToken::Up(d) => (1, d),
            EdgeToken::Left(d) => (2, d),
            EdgeToken::Down(d) => (3, d),
        };
        TokenClass {
            dir,
            bucket: (len / quantum).max(1) as u32,
        }
    }

    fn to_token(self, quantum: Coord) -> EdgeToken {
        let len = self.bucket as Coord * quantum;
        match self.dir {
            0 => EdgeToken::Right(len),
            1 => EdgeToken::Up(len),
            2 => EdgeToken::Left(len),
            _ => EdgeToken::Down(len),
        }
    }
}

/// The trained sequence model.
#[derive(Debug, Clone)]
pub struct SequenceModel {
    config: SequenceModelConfig,
    starts: Vec<(TokenClass, u32)>,
    transitions: BTreeMap<TokenClass, Vec<(TokenClass, u32)>>,
    walk_lengths: Vec<(usize, u32)>,
    polygon_counts: Vec<(usize, u32)>,
    memorised: Vec<Vec<EdgeToken>>,
}

impl SequenceModel {
    /// Fits the model on training patterns.
    ///
    /// # Panics
    ///
    /// Panics when no polygon can be extracted from the training set.
    pub fn fit(patterns: &[SquishPattern], config: SequenceModelConfig) -> Self {
        let mut starts: BTreeMap<TokenClass, u32> = BTreeMap::new();
        let mut transitions: BTreeMap<TokenClass, BTreeMap<TokenClass, u32>> = BTreeMap::new();
        let mut walk_lengths: BTreeMap<usize, u32> = BTreeMap::new();
        let mut polygon_counts: BTreeMap<usize, u32> = BTreeMap::new();
        let mut memorised = Vec::new();

        for pattern in patterns {
            let xs = pattern.x_scan_lines();
            let ys = pattern.y_scan_lines();
            let polys = polygons_of_grid(pattern.topology());
            let outer: Vec<_> = polys.into_iter().filter(|p| p.is_ccw()).collect();
            *polygon_counts.entry(outer.len()).or_insert(0) += 1;
            for poly in outer {
                // Map cell-coordinate vertices to physical coordinates.
                let physical: Vec<Point> = poly
                    .vertices()
                    .iter()
                    .map(|v| Point::new(xs[v.x as usize], ys[v.y as usize]))
                    .collect();
                let poly = RectilinearPolygon::new(physical);
                let tokens = poly.edge_tokens();
                *walk_lengths.entry(tokens.len()).or_insert(0) += 1;
                if memorised.len() < 256 {
                    memorised.push(tokens.clone());
                }
                let classes: Vec<TokenClass> = tokens
                    .iter()
                    .map(|t| TokenClass::of(t, config.quantum))
                    .collect();
                if let Some(&first) = classes.first() {
                    *starts.entry(first).or_insert(0) += 1;
                }
                for pair in classes.windows(2) {
                    *transitions
                        .entry(pair[0])
                        .or_default()
                        .entry(pair[1])
                        .or_insert(0) += 1;
                }
            }
        }
        assert!(!memorised.is_empty(), "no polygons in the training set");

        SequenceModel {
            config,
            starts: starts.into_iter().collect(),
            transitions: transitions
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().collect()))
                .collect(),
            walk_lengths: walk_lengths.into_iter().collect(),
            polygon_counts: polygon_counts.into_iter().collect(),
            memorised,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SequenceModelConfig {
        &self.config
    }

    /// Generates one layout pattern.
    pub fn generate(&self, rng: &mut impl Rng) -> Layout {
        let window = Rect::new(0, 0, self.config.window, self.config.window).expect("window > 0");
        let mut layout = Layout::new(window);
        let n_polys = weighted_sample(&self.polygon_counts, rng)
            .unwrap_or(1)
            .clamp(1, self.config.max_polygons);
        let mut placed: Vec<Rect> = Vec::new();
        for _ in 0..n_polys {
            let tokens = self
                .sample_walk(rng)
                .unwrap_or_else(|| self.memorised[rng.gen_range(0..self.memorised.len())].clone());
            if let Some(poly) = RectilinearPolygon::from_edge_tokens(Point::ORIGIN, &tokens) {
                self.place_polygon(&mut layout, &mut placed, &poly, rng);
            }
        }
        layout.normalized()
    }

    /// Samples a closed token walk from the Markov statistics.
    fn sample_walk(&self, rng: &mut impl Rng) -> Option<Vec<EdgeToken>> {
        let target_len = weighted_sample(&self.walk_lengths, rng)?.clamp(4, self.config.max_tokens);
        for _attempt in 0..8 {
            let mut classes: Vec<TokenClass> = Vec::with_capacity(target_len);
            classes.push(weighted_sample(&self.starts, rng)?);
            // Sample until two moves before the target, alternating axes.
            while classes.len() + 2 < target_len {
                let prev = *classes.last().expect("non-empty");
                let candidates = self.transitions.get(&prev);
                let next = candidates
                    .and_then(|c| {
                        let perpendicular: Vec<(TokenClass, u32)> = c
                            .iter()
                            .filter(|(t, _)| t.horizontal() != prev.horizontal())
                            .copied()
                            .collect();
                        weighted_sample(&perpendicular, rng)
                    })
                    .unwrap_or(TokenClass {
                        dir: if prev.horizontal() { 1 } else { 0 },
                        bucket: 1 + rng.gen_range(0u32..4),
                    });
                classes.push(next);
            }
            // Close the walk: one horizontal and one vertical move back to
            // the origin.
            let mut tokens: Vec<EdgeToken> = classes
                .iter()
                .map(|c| c.to_token(self.config.quantum))
                .collect();
            let (mut dx, mut dy) = (0i64, 0i64);
            for t in &tokens {
                match *t {
                    EdgeToken::Right(d) => dx += d,
                    EdgeToken::Left(d) => dx -= d,
                    EdgeToken::Up(d) => dy += d,
                    EdgeToken::Down(d) => dy -= d,
                }
            }
            let last_horizontal = classes.last().map(|c| c.horizontal()).unwrap_or(false);
            let closing = |dx: i64, dy: i64, horizontal_first: bool| -> Vec<EdgeToken> {
                let h = if dx > 0 {
                    Some(EdgeToken::Left(dx))
                } else if dx < 0 {
                    Some(EdgeToken::Right(-dx))
                } else {
                    None
                };
                let v = if dy > 0 {
                    Some(EdgeToken::Down(dy))
                } else if dy < 0 {
                    Some(EdgeToken::Up(-dy))
                } else {
                    None
                };
                match (h, v, horizontal_first) {
                    (Some(h), Some(v), true) => vec![h, v],
                    (Some(h), Some(v), false) => vec![v, h],
                    (Some(h), None, _) => vec![h],
                    (None, Some(v), _) => vec![v],
                    (None, None, _) => vec![],
                }
            };
            // The move after a horizontal token must be vertical and vice
            // versa; pick the closing order accordingly.
            tokens.extend(closing(dx, dy, !last_horizontal));
            if let Some(poly) = RectilinearPolygon::from_edge_tokens(Point::ORIGIN, &tokens) {
                if poly.area() > 0 {
                    return Some(tokens);
                }
            }
            // Retry with fresh samples.
            let _ = (dx, dy);
            dx = 0;
            dy = 0;
            let _ = (dx, dy);
        }
        None
    }

    /// Rasterises and places a polygon at a random non-overlapping position.
    fn place_polygon(
        &self,
        layout: &mut Layout,
        placed: &mut Vec<Rect>,
        poly: &RectilinearPolygon,
        rng: &mut impl Rng,
    ) {
        let (min, max) = poly.bounding_box();
        let w = max.x - min.x;
        let h = max.y - min.y;
        if w <= 0 || h <= 0 || w >= self.config.window || h >= self.config.window {
            return;
        }
        for _attempt in 0..20 {
            let ox = rng.gen_range(0..=(self.config.window - w)) - min.x;
            let oy = rng.gen_range(0..=(self.config.window - h)) - min.y;
            let bbox =
                Rect::new(min.x + ox, min.y + oy, max.x + ox, max.y + oy).expect("positive extent");
            let clear = bbox.inflate(self.config.clearance).unwrap_or(bbox);
            if placed.iter().any(|p| p.intersects(&clear)) {
                continue;
            }
            placed.push(bbox);
            for rect in rasterize_polygon(poly) {
                layout.push(rect.translate(ox, oy));
            }
            return;
        }
    }
}

/// Decomposes a simple rectilinear polygon into horizontal slab rectangles
/// (even-odd rule over its vertical edges).
fn rasterize_polygon(poly: &RectilinearPolygon) -> Vec<Rect> {
    let vertices = poly.vertices();
    let n = vertices.len();
    // Vertical edges as (x, y_low, y_high).
    let mut edges: Vec<(Coord, Coord, Coord)> = Vec::new();
    let mut ys: Vec<Coord> = Vec::new();
    for i in 0..n {
        let a = vertices[i];
        let b = vertices[(i + 1) % n];
        if a.x == b.x {
            edges.push((a.x, a.y.min(b.y), a.y.max(b.y)));
        }
        ys.push(a.y);
    }
    ys.sort_unstable();
    ys.dedup();

    let mut rects = Vec::new();
    for slab in ys.windows(2) {
        let (y0, y1) = (slab[0], slab[1]);
        let mut xs: Vec<Coord> = edges
            .iter()
            .filter(|&&(_, lo, hi)| lo <= y0 && hi >= y1)
            .map(|&(x, _, _)| x)
            .collect();
        xs.sort_unstable();
        for pair in xs.chunks(2) {
            if let [x0, x1] = *pair {
                if x1 > x0 {
                    rects.push(Rect::new(x0, y0, x1, y1).expect("positive extent"));
                }
            }
        }
    }
    rects
}

/// Samples from a weighted list; `None` when empty or all-zero.
fn weighted_sample<T: Copy>(weights: &[(T, u32)], rng: &mut impl Rng) -> Option<T> {
    let total: u64 = weights.iter().map(|&(_, w)| w as u64).sum();
    if total == 0 {
        return None;
    }
    let mut pick = rng.gen_range(0..total);
    for &(item, w) in weights {
        if pick < w as u64 {
            return Some(item);
        }
        pick -= w as u64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_geometry::Layout as GLayout;
    use rand::SeedableRng;

    fn training_patterns() -> Vec<SquishPattern> {
        let mut out = Vec::new();
        for i in 0..6 {
            let mut l = GLayout::new(Rect::new(0, 0, 2048, 2048).unwrap());
            let off = 100 + i * 50;
            l.push(Rect::new(off, 200, off + 400, 1600).unwrap());
            l.push(Rect::new(off + 600, 200, off + 1000, 900).unwrap());
            // An L-shape.
            l.push(Rect::new(100, 1700, 800, 1900).unwrap());
            l.push(Rect::new(100, 1900, 300, 2000).unwrap());
            out.push(SquishPattern::encode(&l.normalized()));
        }
        out
    }

    #[test]
    fn fit_learns_statistics() {
        let model = SequenceModel::fit(&training_patterns(), SequenceModelConfig::default());
        assert!(!model.starts.is_empty());
        assert!(!model.transitions.is_empty());
        assert!(!model.memorised.is_empty());
    }

    #[test]
    fn generates_nonempty_layouts() {
        let model = SequenceModel::fit(&training_patterns(), SequenceModelConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut nonempty = 0;
        for _ in 0..10 {
            let l = model.generate(&mut rng);
            if !l.is_empty() {
                nonempty += 1;
                assert_eq!(l.window().width(), 2048);
            }
        }
        assert!(nonempty >= 8, "only {nonempty}/10 non-empty");
    }

    #[test]
    fn rasterize_rectangle() {
        let poly = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 5),
            Point::new(0, 5),
        ]);
        let rects = rasterize_polygon(&poly);
        assert_eq!(rects, vec![Rect::new(0, 0, 10, 5).unwrap()]);
    }

    #[test]
    fn rasterize_l_shape_conserves_area() {
        let poly = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 4),
            Point::new(4, 4),
            Point::new(4, 10),
            Point::new(0, 10),
        ]);
        let rects = rasterize_polygon(&poly);
        let total: i128 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, poly.area());
    }

    #[test]
    fn generated_patterns_vary() {
        let model = SequenceModel::fit(&training_patterns(), SequenceModelConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = model.generate(&mut rng);
        let b = model.generate(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn fit_and_generate_are_deterministic() {
        // Every fit walks its statistics in the same order, so one seed
        // gives the same layouts however many models the process builds.
        let patterns = training_patterns();
        let run = || {
            let model = SequenceModel::fit(&patterns, SequenceModelConfig::default());
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            (0..16)
                .map(|_| model.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        let first = run();
        for _ in 1..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn weighted_sample_respects_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let weights = [(1usize, 0u32), (2, 10)];
        for _ in 0..20 {
            assert_eq!(weighted_sample(&weights, &mut rng), Some(2));
        }
        assert_eq!(weighted_sample::<usize>(&[], &mut rng), None);
    }
}
