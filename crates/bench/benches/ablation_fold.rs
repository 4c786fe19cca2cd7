//! Fold ablation: the Deep Squish claim (paper §III-B).
//!
//! Diffusion cost should be dominated by spatial input size, not channel
//! count. At fixed information content (a 32x32 binary topology matrix),
//! fold factors C ∈ {1, 4, 16} give network inputs of (1, 32, 32),
//! (4, 16, 16) and (16, 8, 8); the U-Net step time should drop sharply as
//! C grows — the reason DiffPattern folds before diffusing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_nn::{Tensor, UNet, UNetConfig};
use rand::SeedableRng;

fn unet_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fold/unet_forward");
    group.sample_size(10);
    for (channels, side) in [(1usize, 32usize), (4, 16), (16, 8)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = UNetConfig {
            in_channels: channels,
            out_channels: 2 * channels,
            base_channels: 16,
            channel_mults: vec![1, 2],
            num_res_blocks: 1,
            attn_resolutions: vec![1],
            time_dim: 16,
            groups: 4,
            dropout: 0.0,
        };
        let mut net = UNet::new(&config, &mut rng);
        let x = Tensor::randn(&[1, channels, side, side], 1.0, &mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("C{channels}_{side}x{side}")),
            &(),
            |b, ()| b.iter(|| net.forward(&x, &[10])),
        );
    }
    group.finish();
}

fn fold_unfold(c: &mut Criterion) {
    // The fold itself must be cheap relative to one network step.
    use dp_geometry::BitGrid;
    use dp_squish::DeepSquishTensor;
    let mut grid = BitGrid::new(32, 32).unwrap();
    grid.fill_cells(4, 4, 20, 28);
    let mut group = c.benchmark_group("ablation_fold/fold_unfold");
    for channels in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(channels),
            &channels,
            |b, &ch| {
                b.iter(|| {
                    let t = DeepSquishTensor::fold(&grid, ch).unwrap();
                    t.unfold()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, unet_step, fold_unfold);
criterion_main!(benches);
