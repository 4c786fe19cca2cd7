//! Cross-crate integration: the full DiffPattern pipeline from synthetic
//! map to DRC-clean patterns through `PatternService`.

use diffpattern::drc::check_pattern;
use diffpattern::{PatternService, Pipeline, PipelineConfig, RequestSpec};
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn pipeline_produces_only_legal_patterns() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(5, &mut rng).unwrap();
    let spec = pipeline.request_spec(4).seed(11);
    let model = Arc::new(pipeline.into_trained_model().unwrap());
    let batch = PatternService::builder(model)
        .build()
        .unwrap()
        .generate(&spec)
        .unwrap();
    assert!(!batch.items.is_empty(), "pipeline produced nothing");
    for g in &batch.items {
        let report = check_pattern(&g.pattern, &spec.rules);
        assert!(report.is_clean(), "{:?}", report.violations());
        // Window pinning (Eq. 14 sum constraints).
        assert_eq!(g.pattern.width(), 2048);
        assert_eq!(g.pattern.height(), 2048);
    }
}

#[test]
fn service_report_is_consistent() {
    // The serving path keeps the closed accounting the old shim test
    // pinned: every requested slot is a pattern or a counted shortfall,
    // and the per-request report adds up.
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(5, &mut rng).unwrap();
    let spec = pipeline.request_spec(5).seed(12);
    let model = Arc::new(pipeline.into_trained_model().unwrap());
    let service = PatternService::builder(model).threads(2).build().unwrap();
    let batch = service.generate(&spec).unwrap();
    let r = batch.report;
    assert_eq!(batch.items.len() + r.shortfall, 5);
    assert_eq!(r.legal_patterns, batch.items.len());
    assert!(
        r.topologies_sampled >= batch.items.len(),
        "every delivered pattern consumed at least one sample"
    );
    assert!(
        r.topologies_sampled <= 5 * 4,
        "attempt budget bounds the sampling volume"
    );
}

#[test]
fn strict_prefilter_rejects_instead_of_repairing() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(3, &mut rng).unwrap();
    let spec = RequestSpec {
        repair_bowties: false,
        ..pipeline.request_spec(2).seed(13)
    };
    let model = Arc::new(pipeline.into_trained_model().unwrap());
    let (topos, report) = PatternService::builder(model)
        .build()
        .unwrap()
        .sample_topologies(&spec)
        .unwrap();
    assert_eq!(report.prefilter_repaired, 0);
    // Every returned topology is genuinely bow-tie free.
    for t in &topos {
        assert!(diffpattern::geometry::bowtie::is_bowtie_free(t));
    }
    // Closed accounting even in strict mode.
    assert_eq!(topos.len() + report.shortfall, 2);
}

#[test]
fn dataset_patterns_round_trip_through_all_crates() {
    // tiles -> squish -> extend -> fold -> unfold -> complexity matches.
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let ds = pipeline.dataset();
    for (tensor, pattern) in ds.tensors.iter().zip(&ds.patterns).take(8) {
        let unfolded = tensor.unfold();
        let core = diffpattern::squish::squish_to_core(&unfolded);
        assert_eq!(
            (core.width(), core.height()),
            pattern.complexity(),
            "fold/extend must preserve the canonical complexity"
        );
    }
}
