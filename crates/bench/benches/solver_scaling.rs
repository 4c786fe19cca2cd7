//! Eq. 14 solver scaling: solve time versus topology matrix side, and the
//! cost of extracting the constraint system (context for Table II's
//! absolute solving numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_bench::bench_topology;
use dp_drc::{ConstraintSet, DesignRules};
use dp_legalize::{Init, Solver, SolverConfig};
use rand::SeedableRng;

fn solve_vs_side(c: &mut Criterion) {
    let rules = DesignRules::standard();
    let solver = Solver::new(rules, SolverConfig::for_window(2048, 2048));
    let mut group = c.benchmark_group("solver/solve_vs_side");
    group.sample_size(20);
    for side in [8usize, 16, 32] {
        let topo = bench_topology(3, side);
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, _| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| solver.solve(&topo, Init::Random, &mut rng))
        });
    }
    group.finish();
}

fn constraint_extraction(c: &mut Criterion) {
    let rules = DesignRules::standard();
    let mut group = c.benchmark_group("solver/constraint_extraction");
    for side in [16usize, 32, 64] {
        let topo = bench_topology(4, side);
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, _| {
            b.iter(|| ConstraintSet::extract(&topo, &rules))
        });
    }
    group.finish();
}

fn solve_many_variants(c: &mut Criterion) {
    // DiffPattern-L cost: distinct solutions per topology.
    let rules = DesignRules::standard();
    let solver = Solver::new(rules, SolverConfig::for_window(2048, 2048));
    let topo = bench_topology(5, 16);
    let mut group = c.benchmark_group("solver/solve_many");
    group.sample_size(10);
    for count in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(count), &count, |b, &n| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            b.iter(|| solver.solve_many(&topo, n, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    solve_vs_side,
    constraint_extraction,
    solve_many_variants
);
criterion_main!(benches);
