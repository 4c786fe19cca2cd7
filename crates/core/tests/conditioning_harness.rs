//! The conditioning-contract harness: conditioned requests (frozen
//! region + motif guidance) must be deterministic per `(seed, index)`,
//! deliver only DRC-clean patterns that carry every frozen bit exactly,
//! and stay isolated under mixed load. The engine keys its lock-step
//! chunks by stride alone and hands each lane its own request's
//! conditioning, so unconditioned, frozen and guided requests in flight
//! together share micro-batches, and each still delivers exactly the
//! bytes of its solo run.

use diffpattern::drc::check_pattern;
use diffpattern::geometry::BitGrid;
use diffpattern::squish::DeepSquishTensor;
use diffpattern::{
    hotspot_guidance, Conditioning, ConfigError, FrozenRegion, PatternService, Pipeline,
    PipelineConfig, RequestSpec,
};
use rand::SeedableRng;
use std::sync::Arc;

const COUNT: usize = 6;
const SEED: u64 = 17;

fn trained_service() -> (PatternService, RequestSpec) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(40);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(6, &mut rng).unwrap();
    let spec = pipeline.request_spec(COUNT).seed(SEED);
    let model = Arc::new(pipeline.into_trained_model().unwrap());
    let service = PatternService::builder(model)
        .threads(2)
        .micro_batch(4)
        .build()
        .unwrap();
    (service, spec)
}

/// A realistic inpainting constraint: freeze the lower-left quadrant of
/// the topology matrix to the bits of a topology the model itself
/// sampled (the "extend this pattern" workload), plus rule-derived
/// guidance.
fn quarter_freeze(service: &PatternService, spec: &RequestSpec) -> (Conditioning, Vec<bool>) {
    let model = service.model();
    let donor_spec = RequestSpec {
        count: 1,
        ..spec.clone()
    }
    .seed(SEED ^ 0xABCD);
    let (topologies, _) = service.sample_topologies(&donor_spec).unwrap();
    let base = DeepSquishTensor::fold(&topologies[0], model.channels()).unwrap();
    let side = model.matrix_side();
    let mut quadrant = BitGrid::new(side, side).unwrap();
    quadrant.fill_cells(0, 0, side / 2, side / 2);
    let mask = DeepSquishTensor::fold(&quadrant, model.channels())
        .unwrap()
        .bits()
        .to_vec();
    let bits = base.bits().to_vec();
    let cond = Conditioning::none()
        .with_frozen(FrozenRegion::new(mask.clone(), bits.clone()).unwrap())
        .with_avoid(hotspot_guidance(&spec.rules));
    (cond, mask)
}

#[test]
fn conditioned_requests_are_deterministic_legal_and_frozen_bit_exact() {
    let (service, spec) = trained_service();
    let (cond, mask) = quarter_freeze(&service, &spec);
    let frozen_bits = cond.frozen().unwrap().bits().to_vec();
    let cond_spec = spec.clone().conditioning(cond);

    let a = service.generate(&cond_spec).unwrap();
    let b = service.generate(&cond_spec).unwrap();
    assert_eq!(
        a.items, b.items,
        "conditioned sampling must be deterministic per (seed, index)"
    );
    assert_eq!(a.report, b.report);
    assert_eq!(a.items.len() + a.report.shortfall, COUNT);
    assert!(
        !a.items.is_empty(),
        "the frozen-bit checks below need items"
    );

    let channels = service.model().channels();
    for g in &a.items {
        // Legality is structural: the solver only emits clean patterns,
        // conditioned or not.
        let drc = check_pattern(&g.pattern, &cond_spec.rules);
        assert!(drc.is_clean(), "{:?}", drc.violations());
        // Every frozen entry of every delivered topology carries its
        // target bit — inpainting is exact, not approximate, and the
        // bow-tie repair stage is not allowed to undo it.
        let tensor = DeepSquishTensor::fold(g.pattern.topology(), channels).unwrap();
        for (i, (&frozen, &want)) in mask.iter().zip(&frozen_bits).enumerate() {
            if frozen {
                assert_eq!(tensor.bits()[i], want, "frozen entry {i} diverged");
            }
        }
    }
}

#[test]
fn every_request_is_isolated_from_concurrent_mixed_load() {
    let (service, spec) = trained_service();
    let (frozen, _) = quarter_freeze(&service, &spec);
    // Five lanes each against micro-batches of four: queued together,
    // the requests straddle chunk boundaries.
    let base = RequestSpec {
        count: 5,
        ..spec.clone()
    };
    let specs = [
        base.clone(),
        base.clone().seed(SEED ^ 0x5A5A).conditioning(frozen),
        base.clone()
            .seed(SEED ^ 0xA5A5)
            .conditioning(Conditioning::none().with_avoid(hotspot_guidance(&spec.rules))),
    ];

    // Each request alone on the engine.
    let solo: Vec<_> = specs.iter().map(|s| service.generate(s).unwrap()).collect();

    // All three in flight together: their same-stride lanes share the
    // pool's micro-batches, each lane sampling under its own request's
    // conditioning, so no output may move by a single bit.
    let handles: Vec<_> = specs.iter().map(|s| service.submit(s).unwrap()).collect();
    for (i, (alone, handle)) in solo.iter().zip(handles).enumerate() {
        let together = handle.wait().unwrap();
        assert_eq!(
            alone.items, together.items,
            "request {i} must not depend on concurrent mixed load"
        );
        assert_eq!(alone.report, together.report);
    }
}

#[test]
fn submit_rejects_a_frozen_region_of_the_wrong_shape() {
    let (service, spec) = trained_service();
    let model = service.model();
    let entries = model.channels() * model.side() * model.side();
    let wrong = entries / 2 + 1;
    let bad = spec.clone().conditioning(
        Conditioning::none()
            .with_frozen(FrozenRegion::new(vec![true; wrong], vec![false; wrong]).unwrap()),
    );
    match service.submit(&bad) {
        Err(ConfigError::ConditioningShape { expected, mask }) => {
            assert_eq!(expected, entries);
            assert_eq!(mask, wrong);
        }
        other => panic!("expected ConditioningShape, got {other:?}"),
    }
}
