use dp_geometry::{Coord, Layout, Rect};
use rand::Rng;

/// Configuration of the synthetic metal-layer generator.
///
/// Defaults are chosen so every interior tile is clean under
/// [`dp_drc::DesignRules::standard`]: track pitch leaves at least
/// `space_min` between the widest wires, segment gaps are at least
/// `space_min`, and segment dimensions keep polygon areas inside the legal
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Map width in nm (paper: 400 µm; default scaled down).
    pub width: Coord,
    /// Map height in nm (paper: 160 µm).
    pub height: Coord,
    /// Routing track pitch in nm.
    pub pitch: Coord,
    /// Minimum wire width.
    pub wire_min: Coord,
    /// Maximum wire width (must stay below `pitch - space`).
    pub wire_max: Coord,
    /// Minimum gap between segments in a track.
    pub space: Coord,
    /// Minimum segment length.
    pub seg_min: Coord,
    /// Maximum segment length.
    pub seg_max: Coord,
    /// Every n-th track becomes a double-height power rail (0 disables).
    pub rail_every: usize,
    /// Probability that a track position starts a segment rather than a
    /// gap (density knob), in percent.
    pub fill_percent: u32,
}

impl GeneratorConfig {
    /// A small map for unit tests (≈ 4x4 tiles of 2048 nm).
    pub fn small() -> Self {
        GeneratorConfig {
            width: 8 * 2048,
            height: 4 * 2048,
            ..Self::default()
        }
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            width: 4 * 2048,
            height: 4 * 2048,
            pitch: 256,
            wire_min: 64,
            wire_max: 160,
            space: 70,
            seg_min: 220,
            seg_max: 1600,
            rail_every: 7,
            fill_percent: 62,
        }
    }
}

/// Generates a synthetic single-layer routing map (the ICCAD-2014 layout
/// substitute; see PAPER.md, "Substitutions").
#[derive(Debug, Clone)]
pub struct LayoutMapGenerator {
    config: GeneratorConfig,
}

impl LayoutMapGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is geometrically inconsistent
    /// (wires wider than the pitch allows, zero sizes, ...).
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(config.width > 0 && config.height > 0, "empty map");
        assert!(config.pitch > 0, "zero pitch");
        assert!(
            config.wire_min > 0 && config.wire_min <= config.wire_max,
            "bad wire width range"
        );
        assert!(
            config.wire_max + config.space <= config.pitch,
            "wires do not fit the pitch with the required spacing"
        );
        assert!(
            config.seg_min > 0 && config.seg_min <= config.seg_max,
            "bad segment length range"
        );
        assert!(config.fill_percent <= 100, "fill percent over 100");
        LayoutMapGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the full map. Deterministic for a given `rng` state.
    pub fn generate(&self, rng: &mut impl Rng) -> Layout {
        let c = &self.config;
        let window = Rect::new(0, 0, c.width, c.height).expect("validated non-empty");
        let mut layout = Layout::new(window);

        let tracks = (c.height / c.pitch) as usize;
        let mut track = 0usize;
        while track < tracks {
            let y0 = track as Coord * c.pitch;
            let is_rail = c.rail_every > 0 && track % c.rail_every == c.rail_every - 1;
            let (wire_h, advance) = if is_rail && track + 1 < tracks {
                // Double-height power rail spanning two tracks.
                (c.pitch + c.wire_max, 2)
            } else {
                (rng.gen_range(c.wire_min..=c.wire_max), 1)
            };
            self.fill_track(&mut layout, y0, wire_h, rng);
            track += advance;
        }
        layout
    }

    /// Fills one track with alternating segments and gaps.
    fn fill_track(&self, layout: &mut Layout, y0: Coord, wire_h: Coord, rng: &mut impl Rng) {
        let c = &self.config;
        let y1 = (y0 + wire_h).min(c.height);
        if y1 - y0 < c.wire_min {
            // A track clipped by the map boundary would create a sliver
            // below the width rule; skip it.
            return;
        }
        // A stub on top of a wire must keep `space` clearance to the next
        // track above (whose wires start at y0 + k*pitch for some k >= 1;
        // the nearest possible is the next pitch line).
        let next_track_y = y0 + ((y1 - y0) / c.pitch + 1) * c.pitch;
        let stub_room = next_track_y - c.space - y1;
        let mut x = rng.gen_range(0..c.seg_min);
        while x < c.width {
            if rng.gen_range(0u32..100) < c.fill_percent {
                let len = rng.gen_range(c.seg_min..=c.seg_max).min(c.width - x);
                if len >= c.wire_min {
                    layout.push(Rect::new(x, y0, x + len, y1).expect("positive extent"));
                    // Occasional pin stub hanging off the segment, only when
                    // the inter-track gap leaves room for a legal one.
                    if rng.gen_range(0..100) < 12 && len > 3 * c.wire_min && stub_room >= c.wire_min
                    {
                        let stub_w = c.wire_min;
                        let sx = x + rng.gen_range(c.wire_min..len - stub_w - c.wire_min);
                        let stub_h = stub_room.min(wire_h / 2).max(c.wire_min);
                        if y1 + stub_h <= c.height && stub_h <= stub_room {
                            layout.push(
                                Rect::new(sx, y1, sx + stub_w, y1 + stub_h)
                                    .expect("positive extent"),
                            );
                        }
                    }
                    x += len;
                }
            }
            x += c.space + rng.gen_range(0..c.seg_min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generates_nonempty_map() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let map = LayoutMapGenerator::new(GeneratorConfig::default()).generate(&mut rng);
        assert!(map.len() > 50, "only {} shapes", map.len());
        assert!(map.shape_area() > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let gen = LayoutMapGenerator::new(GeneratorConfig::default());
        let a = gen.generate(&mut rand::rngs::StdRng::seed_from_u64(7));
        let b = gen.generate(&mut rand::rngs::StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = gen.generate(&mut rand::rngs::StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_stay_inside_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let map = LayoutMapGenerator::new(GeneratorConfig::default()).generate(&mut rng);
        for r in map.rects() {
            assert!(map.window().contains_rect(r));
        }
    }

    #[test]
    fn rejects_inconsistent_config() {
        let bad = GeneratorConfig {
            wire_max: 300,
            pitch: 256,
            space: 70,
            ..GeneratorConfig::default()
        };
        assert!(std::panic::catch_unwind(|| LayoutMapGenerator::new(bad)).is_err());
    }

    #[test]
    fn interior_tiles_are_mostly_drc_clean() {
        // The generator's whole point: its tiles exercise the DRC/legalize
        // path as *clean* training data.
        use dp_drc::{check_layout, DesignRules};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let map = LayoutMapGenerator::new(GeneratorConfig::small()).generate(&mut rng);
        let tiles = crate::split_into_tiles(&map, 2048);
        let rules = DesignRules::standard();
        let clean = tiles
            .iter()
            .filter(|t| check_layout(t, &rules).is_clean())
            .count();
        let frac = clean as f64 / tiles.len() as f64;
        assert!(
            frac > 0.95,
            "only {clean}/{} tiles clean ({frac:.2})",
            tiles.len()
        );
    }
}
