use crate::violation::Axis;
use crate::{DesignRules, Violation};
use dp_geometry::runs::{filled_runs, interior_space_runs};
use dp_geometry::{BitGrid, ComponentLabels, Coord, Layout};
use dp_squish::SquishPattern;

/// Result of a DRC run: every violation found plus coverage statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DrcReport {
    violations: Vec<Violation>,
    polygons_checked: usize,
    runs_checked: usize,
}

impl DrcReport {
    /// All violations found, in scan order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` when the pattern is DRC-clean (paper Definition 2).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of polygons whose area was checked.
    pub fn polygons_checked(&self) -> usize {
        self.polygons_checked
    }

    /// Number of width/space runs measured.
    pub fn runs_checked(&self) -> usize {
        self.runs_checked
    }

    /// Violation count for one rule family (`"space"`, `"width"`, `"area"`).
    pub fn count_of(&self, rule: &str) -> usize {
        self.violations
            .iter()
            .filter(|v| v.rule_name() == rule)
            .count()
    }
}

/// Checks a squish pattern against `rules`, measuring physical extents
/// through the pattern's Δ vectors.
///
/// The check is exhaustive: every filled run (width), every interior empty
/// run (space) along both axes, and every 4-connected polygon (area) is
/// measured. With `rules.exempt_border()`, geometry touching the tile
/// boundary is skipped, matching tile-mode sign-off practice.
pub fn check_pattern(pattern: &SquishPattern, rules: &DesignRules) -> DrcReport {
    scan(pattern, rules).0
}

/// The one DRC scan behind [`check_pattern`] and [`flagged_cells`]: the
/// report, plus the `(col, row)` topology cells of every violation in it.
fn scan(pattern: &SquishPattern, rules: &DesignRules) -> (DrcReport, Vec<(usize, usize)>) {
    let topo = pattern.topology();
    let xs = pattern.x_scan_lines();
    let ys = pattern.y_scan_lines();
    let mut report = DrcReport::default();
    let mut flagged = Vec::new();

    // Rows: width and space along x (`row` indexes both the topology and
    // the `ys` scan lines, so a range loop is the clear form).
    #[allow(clippy::needless_range_loop)]
    for row in 0..topo.height() {
        check_line(
            topo.row(row),
            &xs,
            Axis::X,
            ys[row],
            rules,
            &mut report,
            &mut flagged,
            |col| (col, row),
        );
    }
    // Columns: width and space along y.
    #[allow(clippy::needless_range_loop)]
    for col in 0..topo.width() {
        check_line(
            topo.column(col),
            &ys,
            Axis::Y,
            xs[col],
            rules,
            &mut report,
            &mut flagged,
            |row| (col, row),
        );
    }

    // Areas per connected polygon.
    let labels = ComponentLabels::label(topo);
    let boxes = labels.bounding_boxes();
    for label in 0..labels.count() {
        let (c0, r0, c1, r1) = boxes[label as usize];
        let touches_border = c0 == 0 || r0 == 0 || c1 == topo.width() || r1 == topo.height();
        if touches_border && rules.exempt_border() {
            continue;
        }
        report.polygons_checked += 1;
        let cells = labels.cells_of(label);
        let area: i128 = cells
            .iter()
            .map(|&(c, r)| pattern.dx()[c] as i128 * pattern.dy()[r] as i128)
            .sum();
        if area < rules.area_min() || area > rules.area_max() {
            report.violations.push(Violation::Area {
                polygon: label,
                area,
                min: rules.area_min(),
                max: rules.area_max(),
            });
            flagged.extend(cells);
        }
    }

    (report, flagged)
}

/// Checks one row or column worth of cells into `report` and `flagged`;
/// `cell(i)` is the `(col, row)` of the line's cell `i`.
#[allow(clippy::too_many_arguments)]
fn check_line(
    cells: impl Iterator<Item = bool>,
    scan: &[Coord],
    axis: Axis,
    cross: Coord,
    rules: &DesignRules,
    report: &mut DrcReport,
    flagged: &mut Vec<(usize, usize)>,
    cell: impl Fn(usize) -> (usize, usize),
) {
    let cells: Vec<bool> = cells.collect();
    let len = cells.len();
    for run in filled_runs(cells.iter().copied()) {
        if run.touches_border(len) && rules.exempt_border() {
            continue;
        }
        report.runs_checked += 1;
        let extent = scan[run.end] - scan[run.start];
        if extent < rules.width_min() {
            report.violations.push(Violation::Width {
                axis,
                at: scan[run.start],
                cross,
                extent,
                required: rules.width_min(),
            });
            flagged.extend((run.start..run.end).map(&cell));
        }
    }
    for run in interior_space_runs(cells.iter().copied(), len) {
        report.runs_checked += 1;
        let extent = scan[run.end] - scan[run.start];
        if extent < rules.space_min() {
            report.violations.push(Violation::Space {
                axis,
                at: scan[run.start],
                cross,
                extent,
                required: rules.space_min(),
            });
            flagged.extend((run.start..run.end).map(&cell));
        }
    }
}

/// Encodes a layout to its squish pattern and checks it.
pub fn check_layout(layout: &Layout, rules: &DesignRules) -> DrcReport {
    check_pattern(&SquishPattern::encode(layout), rules)
}

/// Marks every topology cell implicated in a violation of `rules`: the
/// cells of too-narrow filled runs (width), of too-tight interior empty
/// runs (space), and of polygons with out-of-range area. The same scan as
/// [`check_pattern`], so the mask is non-empty exactly when the report is
/// dirty.
///
/// This is the "thaw set" of the conditioned repair workload: a repair
/// lane resamples the flagged cells (plus whatever dilation the caller
/// adds) while freezing the already-legal remainder of the pattern.
pub fn flagged_cells(pattern: &SquishPattern, rules: &DesignRules) -> BitGrid {
    let topo = pattern.topology();
    let mut mask = BitGrid::new(topo.width(), topo.height()).expect("topology is non-empty");
    for (col, row) in scan(pattern, rules).1 {
        mask.set(col, row, true);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_geometry::Rect;

    fn tile() -> Layout {
        Layout::new(Rect::new(0, 0, 2048, 2048).unwrap())
    }

    fn rules() -> DesignRules {
        DesignRules::builder()
            .space_min(60)
            .width_min(60)
            .area_range(4_000, 1_500_000)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_pattern_is_clean() {
        let report = check_layout(&tile(), &rules());
        assert!(report.is_clean());
        assert_eq!(report.polygons_checked(), 0);
    }

    #[test]
    fn legal_two_bar_pattern() {
        let mut l = tile();
        l.push(Rect::new(100, 100, 400, 1000).unwrap());
        l.push(Rect::new(600, 100, 900, 1000).unwrap());
        let report = check_layout(&l, &rules());
        assert!(report.is_clean(), "{:?}", report.violations());
        assert_eq!(report.polygons_checked(), 2);
    }

    #[test]
    fn space_violation_detected() {
        let mut l = tile();
        l.push(Rect::new(100, 100, 400, 1000).unwrap());
        l.push(Rect::new(420, 100, 700, 1000).unwrap()); // 20 nm gap
        let report = check_layout(&l, &rules());
        assert_eq!(report.count_of("space"), 1);
        match &report.violations()[0] {
            Violation::Space {
                extent, required, ..
            } => {
                assert_eq!(*extent, 20);
                assert_eq!(*required, 60);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn width_violation_detected_on_both_axes() {
        let mut l = tile();
        // 30 nm wide vertical sliver.
        l.push(Rect::new(500, 100, 530, 1000).unwrap());
        // 30 nm tall horizontal sliver.
        l.push(Rect::new(1000, 500, 1900, 530).unwrap());
        let report = check_layout(&l, &rules());
        // Each sliver is reported once per scan row/column it spans (the
        // cross scan lines of the other sliver split its rows), so expect
        // at least one violation per axis.
        assert!(report.count_of("width") >= 2);
        let axes: Vec<Axis> = report
            .violations()
            .iter()
            .filter_map(|v| match v {
                Violation::Width { axis, .. } => Some(*axis),
                _ => None,
            })
            .collect();
        assert!(axes.contains(&Axis::X) && axes.contains(&Axis::Y));
    }

    #[test]
    fn area_violations_detected() {
        let mut l = tile();
        // 50x60 = 3000 nm^2 < 4000 minimum.
        l.push(Rect::new(100, 100, 160, 150).unwrap());
        // 1300x1300 = 1.69e6 > 1.5e6 maximum.
        l.push(Rect::new(400, 400, 1700, 1700).unwrap());
        let report = check_layout(&l, &rules());
        assert_eq!(report.count_of("area"), 2);
    }

    #[test]
    fn border_exemption() {
        let mut l = tile();
        // Cut shape at the border: 30 nm wide but touching x=0.
        l.push(Rect::new(0, 100, 30, 1000).unwrap());
        let exempt = check_layout(&l, &rules());
        assert!(exempt.is_clean());

        let strict_rules = DesignRules::builder()
            .space_min(60)
            .width_min(60)
            .area_range(4_000, 1_500_000)
            .exempt_border(false)
            .build()
            .unwrap();
        let strict = check_layout(&l, &strict_rules);
        assert!(!strict.is_clean());
        assert!(strict.count_of("width") >= 1);
    }

    #[test]
    fn diagonal_neighbours_have_no_space_violation() {
        // Space is measured along rows/columns only (Manhattan), matching
        // the paper's Fig. 3; diagonal proximity is allowed by this rule
        // family (and excluded anyway by the bow-tie pre-filter when the
        // shapes share a corner).
        let mut l = tile();
        l.push(Rect::new(100, 100, 400, 400).unwrap());
        l.push(Rect::new(420, 420, 700, 700).unwrap());
        let report = check_layout(&l, &rules());
        assert!(report.is_clean());
    }

    #[test]
    fn report_counts_runs() {
        let mut l = tile();
        l.push(Rect::new(100, 100, 400, 1000).unwrap());
        let report = check_layout(&l, &rules());
        assert!(report.runs_checked() > 0);
    }

    #[test]
    fn flagged_cells_empty_iff_clean() {
        let mut clean = tile();
        clean.push(Rect::new(100, 100, 400, 1000).unwrap());
        clean.push(Rect::new(600, 100, 900, 1000).unwrap());
        let p = SquishPattern::encode(&clean);
        assert!(check_pattern(&p, &rules()).is_clean());
        assert!(flagged_cells(&p, &rules()).is_empty());

        let mut dirty = tile();
        dirty.push(Rect::new(100, 100, 400, 1000).unwrap());
        dirty.push(Rect::new(420, 100, 700, 1000).unwrap()); // 20 nm gap
        let p = SquishPattern::encode(&dirty);
        assert!(!check_pattern(&p, &rules()).is_clean());
        assert!(!flagged_cells(&p, &rules()).is_empty());
    }

    #[test]
    fn flagged_cells_locate_the_violating_gap() {
        // The 20 nm gap between the bars is one empty column; only its
        // cells (per violating row) may be flagged — the bars themselves
        // are legal and must stay unflagged so a repair can freeze them.
        let mut l = tile();
        l.push(Rect::new(100, 100, 400, 1000).unwrap());
        l.push(Rect::new(420, 100, 700, 1000).unwrap());
        let p = SquishPattern::encode(&l);
        let mask = flagged_cells(&p, &rules());
        let topo = p.topology();
        assert!(!mask.is_empty());
        for row in 0..topo.height() {
            for col in 0..topo.width() {
                if mask.get(col, row) {
                    assert!(!topo.get(col, row), "filled cell flagged at ({col},{row})");
                }
            }
        }
    }

    #[test]
    fn flagged_cells_cover_bad_area_polygons() {
        let mut l = tile();
        // 50x60 = 3000 nm^2 < 4000 minimum: the whole polygon is flagged.
        l.push(Rect::new(100, 100, 160, 150).unwrap());
        let p = SquishPattern::encode(&l);
        let mask = flagged_cells(&p, &rules());
        let topo = p.topology();
        for row in 0..topo.height() {
            for col in 0..topo.width() {
                if topo.get(col, row) {
                    assert!(mask.get(col, row), "polygon cell ({col},{row}) unflagged");
                }
            }
        }
    }

    #[test]
    fn pattern_level_matches_layout_level() {
        let mut l = tile();
        l.push(Rect::new(100, 100, 400, 1000).unwrap());
        l.push(Rect::new(420, 100, 700, 1000).unwrap());
        let p = SquishPattern::encode(&l);
        assert_eq!(check_pattern(&p, &rules()), check_layout(&l, &rules()));
    }

    #[test]
    fn extended_pattern_checks_identically() {
        // Extension splits deltas but physical extents are unchanged, so a
        // clean pattern stays clean and a dirty one stays dirty.
        let mut l = tile();
        l.push(Rect::new(100, 100, 400, 1000).unwrap());
        l.push(Rect::new(420, 100, 700, 1000).unwrap());
        let p = SquishPattern::encode(&l);
        let (ext, _) = dp_squish::extend_to_side(&p, 16).unwrap();
        let a = check_pattern(&p, &rules());
        let b = check_pattern(&ext, &rules());
        // Row duplication can repeat a violating run, so only cleanliness
        // and the presence of the space violation are invariant.
        assert_eq!(a.is_clean(), b.is_clean());
        assert!(a.count_of("space") >= 1 && b.count_of("space") >= 1);
    }
}
