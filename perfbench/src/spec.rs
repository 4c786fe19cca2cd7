//! Workload inputs, generated from the workload seed alone. The program
//! under test receives only these specs.

use diffpattern::drc::DesignRules;
use diffpattern::geometry::BitGrid;
use diffpattern::squish::DeepSquishTensor;
use diffpattern::{hotspot_guidance, Conditioning, FrozenRegion, RequestSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// The three rule presets `dpgen --rules` accepts, in the order the
/// library build submits them.
pub const PRESETS: [&str; 3] = ["standard", "larger-space", "smaller-area"];

/// The design rules of a preset name from [`PRESETS`].
pub fn preset_rules(name: &str) -> DesignRules {
    match name {
        "larger-space" => DesignRules::larger_space(),
        "smaller-area" => DesignRules::smaller_area(),
        _ => DesignRules::standard(),
    }
}

/// What a generated request asks the engine to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One preset's share of the closed library batch.
    Library,
    /// Unconditioned, default stride.
    Plain,
    /// Unconditioned, `sample_stride` 10.
    Stride10,
    /// Frozen-region inpainting around a rectangle of a base topology.
    Inpaint,
    /// Hotspot-avoidance guidance.
    Guided,
    /// The large default-stride request of the contention workload.
    Bulk,
}

/// One block of the wire mix: kind and count.
/// Sorted by latency the requests form clusters: stride 10 (tens of ms),
/// count-1 full chains (~1 call time x K), count-2 full chains (about
/// twice that), and inpainting, whose frozen bits can make the bow-tie
/// repair fail and so spreads over several attempts. These shares keep
/// the median inside the count-1 cluster and the ~90th percentile inside
/// the count-2 cluster, away from the edges between clusters, so the
/// reported latencies move with the code rather than with the seed.
pub const WIRE_BLOCK: [(Kind, usize); 10] = [
    (Kind::Stride10, 1),
    (Kind::Stride10, 2),
    (Kind::Plain, 1),
    (Kind::Plain, 1),
    (Kind::Guided, 1),
    (Kind::Guided, 1),
    (Kind::Inpaint, 1),
    (Kind::Plain, 2),
    (Kind::Guided, 2),
    (Kind::Guided, 2),
];

/// One generated request.
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique within the run; keys the output digest.
    pub id: u64,
    /// What the request exercises.
    pub kind: Kind,
    /// Rule preset name.
    pub preset: &'static str,
    /// The spec the program receives.
    pub spec: RequestSpec,
}

impl Job {
    /// The frozen region the request must keep, if any.
    pub fn frozen(&self) -> Option<&FrozenRegion> {
        self.spec.conditioning.frozen()
    }
}

/// What the generators need from the trained pipeline: the shipped
/// request defaults (rules, solver window, stride, repair policy,
/// Solving-E donors), candidate base topologies for inpainting and the
/// model's fold channel count.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `Pipeline::request_spec(0)`.
    pub base: RequestSpec,
    /// Topologies of the extended dataset patterns.
    pub topologies: Arc<[BitGrid]>,
    /// Fold channel count `C`.
    pub channels: usize,
}

/// Slots per preset in the library batch.
pub const LIBRARY_COUNT: usize = 16;

/// The closed library batch: one request per preset, submitted together.
pub fn library_jobs(inputs: &Inputs, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11B_0000);
    PRESETS
        .iter()
        .enumerate()
        .map(|(i, &preset)| Job {
            id: i as u64,
            kind: Kind::Library,
            preset,
            spec: RequestSpec {
                count: LIBRARY_COUNT,
                rules: preset_rules(preset),
                ..inputs.base.clone()
            }
            .seed(rng.gen()),
        })
        .collect()
}

/// One connection's closed-loop request sequence: [`WIRE_BLOCK`]s in
/// seeded order, so every prefix stays close to the block's mix.
pub fn wire_jobs(inputs: &Inputs, seed: u64, connection: u64, len: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x3133_0000 + connection));
    let mut jobs = Vec::with_capacity(len);
    while jobs.len() < len {
        let mut block = WIRE_BLOCK;
        shuffle(&mut block, &mut rng);
        for (kind, count) in block {
            let id = (connection << 32) | jobs.len() as u64;
            let spec = RequestSpec {
                count,
                ..inputs.base.clone()
            }
            .seed(rng.gen());
            let spec = match kind {
                Kind::Stride10 => RequestSpec {
                    sample_stride: 10,
                    ..spec
                },
                Kind::Inpaint => spec
                    .conditioning(Conditioning::none().with_frozen(frozen_rect(inputs, &mut rng))),
                Kind::Guided => {
                    let rules = spec.rules;
                    spec.conditioning(Conditioning::none().with_avoid(hotspot_guidance(&rules)))
                }
                _ => spec,
            };
            jobs.push(Job {
                id,
                kind,
                preset: PRESETS[0],
                spec,
            });
        }
    }
    jobs.truncate(len);
    jobs
}

/// A frozen region: a seeded rectangle of the topology matrix, holding
/// the bits of a seeded base topology from the dataset.
fn frozen_rect(inputs: &Inputs, rng: &mut StdRng) -> FrozenRegion {
    let base = &inputs.topologies[rng.gen_range(0..inputs.topologies.len())];
    let side = base.width();
    let w = rng.gen_range(side / 4..=side / 2);
    let h = rng.gen_range(side / 4..=side / 2);
    let x = rng.gen_range(0..=side - w);
    let y = rng.gen_range(0..=side - h);
    let mut mask = BitGrid::new(side, side).expect("the matrix side is positive");
    for row in y..y + h {
        for col in x..x + w {
            mask.set(col, row, true);
        }
    }
    let fold = |grid: &BitGrid| {
        DeepSquishTensor::fold(grid, inputs.channels)
            .expect("dataset topologies fold at the model's channel count")
            .bits()
            .to_vec()
    };
    FrozenRegion::new(fold(&mask), fold(base)).expect("mask and bits share one shape")
}

/// One interactive request of the open loop, due at an offset from the
/// start of the measured phase.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// When the request is due.
    pub due: Duration,
    /// The request.
    pub job: Job,
}

/// Slots of the bulk request.
pub const BULK_COUNT: usize = 96;

/// The contention workload: a bulk request due at 0, then `count`
/// count-1 unconditioned requests, one per `period`, each due at a
/// seeded point inside its own period (so arrivals never bunch beyond
/// two per period).
pub fn contention_jobs(
    inputs: &Inputs,
    seed: u64,
    count: usize,
    period: Duration,
) -> (Job, Vec<Arrival>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB01C_0000);
    let bulk = Job {
        id: 0,
        kind: Kind::Bulk,
        preset: PRESETS[0],
        spec: RequestSpec {
            count: BULK_COUNT,
            ..inputs.base.clone()
        }
        .seed(rng.gen()),
    };
    let arrivals = (0..count)
        .map(|i| {
            let due = period.mul_f64(i as f64 + rng.gen::<f64>());
            let spec = RequestSpec {
                count: 1,
                ..inputs.base.clone()
            }
            .seed(rng.gen());
            Arrival {
                due,
                job: Job {
                    id: 1 + i as u64,
                    kind: Kind::Plain,
                    preset: PRESETS[0],
                    spec,
                },
            }
        })
        .collect();
    (bulk, arrivals)
}

/// Fisher-Yates on the seeded stream.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use diffpattern::squish::SquishPattern;

    /// Inputs shaped like the shipped profile's (32x32 topologies folded
    /// at C = 4), without training a model.
    pub(crate) fn inputs() -> Inputs {
        let mut rng = StdRng::seed_from_u64(5);
        let topologies: Vec<BitGrid> = (0..6)
            .map(|_| {
                let mut g = BitGrid::new(32, 32).unwrap();
                for row in 0..32 {
                    for col in 0..32 {
                        g.set(col, row, rng.gen_bool(0.3));
                    }
                }
                g
            })
            .collect();
        let donor = SquishPattern::new(topologies[0].clone(), vec![64; 32], vec![64; 32]).unwrap();
        Inputs {
            base: RequestSpec {
                donors: vec![donor].into(),
                ..RequestSpec::new(0)
            },
            topologies: topologies.into(),
            channels: 4,
        }
    }

    fn wire_bytes(jobs: &[Job]) -> Vec<String> {
        jobs.iter()
            .map(|j| dp_serve::proto::spec_to_json(&j.spec).to_string())
            .collect()
    }

    #[test]
    fn one_seed_gives_byte_identical_specs() {
        let inputs = inputs();
        for seed in [0, 1, 99] {
            assert_eq!(
                wire_bytes(&library_jobs(&inputs, seed)),
                wire_bytes(&library_jobs(&inputs, seed))
            );
            assert_eq!(
                wire_bytes(&wire_jobs(&inputs, seed, 1, 40)),
                wire_bytes(&wire_jobs(&inputs, seed, 1, 40))
            );
            let period = Duration::from_millis(200);
            let (a, arrivals_a) = contention_jobs(&inputs, seed, 40, period);
            let (b, arrivals_b) = contention_jobs(&inputs, seed, 40, period);
            assert_eq!(wire_bytes(&[a]), wire_bytes(&[b]));
            let due = |v: &[Arrival]| v.iter().map(|a| a.due).collect::<Vec<_>>();
            assert_eq!(due(&arrivals_a), due(&arrivals_b));
            let jobs = |v: Vec<Arrival>| v.into_iter().map(|a| a.job).collect::<Vec<_>>();
            assert_eq!(wire_bytes(&jobs(arrivals_a)), wire_bytes(&jobs(arrivals_b)));
        }
        assert_ne!(
            wire_bytes(&wire_jobs(&inputs, 1, 0, 8)),
            wire_bytes(&wire_jobs(&inputs, 2, 0, 8))
        );
        assert_ne!(
            wire_bytes(&wire_jobs(&inputs, 1, 0, 8)),
            wire_bytes(&wire_jobs(&inputs, 1, 1, 8))
        );
    }

    #[test]
    fn every_wire_block_holds_the_whole_mix() {
        let jobs = wire_jobs(&inputs(), 3, 0, 40);
        for block in jobs.chunks(WIRE_BLOCK.len()) {
            for (kind, count) in WIRE_BLOCK {
                let same = |j: &&Job| j.kind == kind && j.spec.count == count;
                let want = WIRE_BLOCK
                    .iter()
                    .filter(|(k, c)| *k == kind && *c == count)
                    .count();
                assert_eq!(block.iter().filter(same).count(), want, "{kind:?}");
            }
        }
        for job in &jobs {
            assert!((1..=2).contains(&job.spec.count));
            assert_eq!(job.frozen().is_some(), job.kind == Kind::Inpaint);
            assert_eq!(
                job.spec.conditioning.avoid().is_some(),
                job.kind == Kind::Guided
            );
            assert_eq!(job.spec.sample_stride == 10, job.kind == Kind::Stride10);
        }
    }

    #[test]
    fn arrivals_follow_the_rate_one_per_period() {
        let (bulk, arrivals) = contention_jobs(&inputs(), 4, 20, Duration::from_millis(500));
        assert_eq!(bulk.spec.count, BULK_COUNT);
        assert_eq!(arrivals.len(), 20);
        for (i, a) in arrivals.iter().enumerate() {
            let t = a.due.as_secs_f64();
            assert!(t >= i as f64 * 0.5 && t < (i + 1) as f64 * 0.5, "{i}: {t}");
            assert_eq!(a.job.spec.count, 1);
        }
    }
}
