//! Cross-cutting invariants that span crate boundaries: symmetry of the
//! DRC engine under transposition, conservation laws of the polygon
//! tracer, determinism of the whole pipeline under a fixed seed, and the
//! shipped U-Net inferring exactly what its training forward computes.

use diffpattern::drc::{check_pattern, DesignRules};
use diffpattern::geometry::{polygons_of_grid, BitGrid};
use diffpattern::squish::SquishPattern;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random_grid(seed: u64, side: usize, fill_pct: u32) -> BitGrid {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut g = BitGrid::new(side, side).unwrap();
    for r in 0..side {
        for c in 0..side {
            if rng.gen_range(0u32..100) < fill_pct {
                g.set(c, r, true);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DRC is symmetric under transposition: checking the transposed
    /// topology with swapped delta vectors finds the same number of
    /// violations with X and Y axes exchanged.
    #[test]
    fn drc_transpose_symmetry(seed in any::<u64>(), fill in 20u32..70) {
        let g = random_grid(seed, 8, fill);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        let dx: Vec<i64> = (0..8).map(|_| rng.gen_range(1..500)).collect();
        let dy: Vec<i64> = (0..8).map(|_| rng.gen_range(1..500)).collect();
        let rules = DesignRules::standard();

        let p = SquishPattern::new(g.clone(), dx.clone(), dy.clone()).unwrap();
        let pt = SquishPattern::new(g.transposed(), dy, dx).unwrap();
        let a = check_pattern(&p, &rules);
        let b = check_pattern(&pt, &rules);
        prop_assert_eq!(a.violations().len(), b.violations().len());
        prop_assert_eq!(a.count_of("space"), b.count_of("space"));
        prop_assert_eq!(a.count_of("width"), b.count_of("width"));
        prop_assert_eq!(a.count_of("area"), b.count_of("area"));
        prop_assert_eq!(a.is_clean(), b.is_clean());
    }

    /// The polygon tracer conserves area: outer loops minus holes equals
    /// the number of filled cells, for arbitrary (even bow-tie-laden)
    /// grids.
    #[test]
    fn polygon_tracer_conserves_area(seed in any::<u64>(), fill in 10u32..90) {
        let g = random_grid(seed, 10, fill);
        let total: i128 = polygons_of_grid(&g)
            .iter()
            .map(|p| if p.is_ccw() { p.area() } else { -p.area() })
            .sum();
        prop_assert_eq!(total, g.count_ones() as i128);
    }

    /// Squish-core computation is idempotent and commutes with transpose.
    #[test]
    fn squish_core_idempotent_and_transpose_commutes(seed in any::<u64>(), fill in 10u32..90) {
        use diffpattern::squish::squish_to_core;
        let g = random_grid(seed, 9, fill);
        let core = squish_to_core(&g);
        prop_assert_eq!(squish_to_core(&core), core.clone());
        let core_t = squish_to_core(&g.transposed());
        prop_assert_eq!(core_t, core.transposed());
    }
}

#[test]
fn pipeline_is_deterministic_under_fixed_seed() {
    use diffpattern::{PatternService, Pipeline, PipelineConfig};
    let run = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut p = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
        let _ = p.train(3, &mut rng).unwrap();
        let spec = p.request_spec(2).seed(77);
        let model = std::sync::Arc::new(p.into_trained_model().unwrap());
        let service = PatternService::builder(model).build().unwrap();
        service.generate(&spec).unwrap().items
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.pattern.topology(), y.pattern.topology());
        assert_eq!(x.pattern.dx(), y.pattern.dx());
        assert_eq!(x.pattern.dy(), y.pattern.dy());
        assert_eq!(x.provenance, y.provenance);
    }
}

/// `UNet::infer` (prepacked weights, workspace scratch) against the
/// training `forward` at the shipped widths — `PipelineConfig::default()`,
/// GroupNorm over 8 groups of 32–128 channels — which the randomized
/// configs of `dp_nn`'s golden tests (2 groups, widths of at most 6)
/// never reach. Two items at different steps, bit for bit, at the
/// shipped fold side.
#[test]
fn shipped_unet_infer_matches_forward_bit_for_bit() {
    use diffpattern::nn::{Tensor, UNet, Workspace};
    use diffpattern::PipelineConfig;
    let config = PipelineConfig::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let mut net = UNet::new(&config.unet_config(), &mut rng);
    // Move every bias, GroupNorm scale and shift off its initial 0 or 1.
    for p in net.params_mut() {
        for v in p.value.data_mut() {
            *v += rng.gen_range(-0.1f32..0.1);
        }
    }
    let side = config.fold_side();
    let x = Tensor::randn(&[2, config.dataset.channels, side, side], 1.0, &mut rng);
    let steps = [3, 71];
    let reference = net.forward(&x, &steps);
    net.prepack();
    let inferred = net.infer(&x, &steps, &mut Workspace::new());
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(inferred.shape(), reference.shape());
    assert_eq!(bits(&inferred), bits(&reference));
}
