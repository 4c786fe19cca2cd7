//! `fig_inpaint_repair` — conditional generation in both directions:
//! **extend** (freeze a region of a sampled topology and let the model
//! redraw the rest) and **repair** (thaw exactly the DRC-violating
//! neighbourhood of a dirty layout and inpaint it legal).
//!
//! ```text
//! cargo run --release --example fig_inpaint_repair
//! ```
//!
//! The run asserts the contracts the conditioning stack promises: every
//! delivered pattern carries the frozen bits exactly, the repair workload
//! reaches at least 95 % DRC-clean, and the eight repair requests — eight
//! different conditionings in flight together, sharing micro-batches —
//! each deliver exactly what the same spec delivers alone.

use diffpattern::drc::check_pattern;
use diffpattern::geometry::{BitGrid, Layout, Rect};
use diffpattern::render::pattern_to_ascii;
use diffpattern::squish::{extend_to_side, DeepSquishTensor, SquishPattern};
use diffpattern::{
    hotspot_guidance, repair_conditioning, Conditioning, FrozenRegion, PatternService, Pipeline,
    PipelineConfig, RequestSpec,
};
use rand::SeedableRng;
use std::sync::Arc;

const TRAIN_ITERS: usize = 600;
const EXTEND_COUNT: usize = 4;
const REPAIR_CASES: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    eprintln!("training {TRAIN_ITERS} iterations...");
    let _ = pipeline.train(TRAIN_ITERS, &mut rng)?;
    let base = pipeline.request_spec(EXTEND_COUNT).seed(7);
    let model = Arc::new(pipeline.into_trained_model()?);
    let channels = model.channels();
    let side = model.matrix_side();
    let service = PatternService::builder(Arc::clone(&model))
        .micro_batch(4)
        .build()?;

    // ---- Extend: freeze the lower-left quadrant of a sampled base ----
    let donor_spec = RequestSpec {
        count: 1,
        ..base.clone()
    }
    .seed(base.seed ^ 0x5EED);
    let (topologies, _) = service.sample_topologies(&donor_spec)?;
    let donor = topologies.into_iter().next().ok_or("no base topology")?;
    let mut mask = BitGrid::new(side, side).expect("side > 0");
    for row in 0..side / 2 {
        for col in 0..side / 2 {
            mask.set(col, row, true);
        }
    }
    let mask_t = DeepSquishTensor::fold(&mask, channels)?;
    let bits_t = DeepSquishTensor::fold(&donor, channels)?;
    let region = FrozenRegion::new(mask_t.bits().to_vec(), bits_t.bits().to_vec())?;
    let extend_spec = base.clone().conditioning(
        Conditioning::none()
            .with_frozen(region.clone())
            .with_avoid(hotspot_guidance(&base.rules)),
    );
    let extended = service.generate(&extend_spec)?;
    for g in &extended.items {
        assert_frozen(&g.pattern, &region, channels)?;
        assert!(
            check_pattern(&g.pattern, &base.rules).is_clean(),
            "extended pattern {} is not DRC-clean",
            g.provenance.index
        );
    }
    eprintln!(
        "extend: {} patterns, frozen quadrant preserved on all, all DRC-clean \
         ({} slots fell short)",
        extended.items.len(),
        extended.report.shortfall
    );
    if let Some(g) = extended.items.first() {
        println!("--- extension of the frozen quadrant ---");
        println!("{}", pattern_to_ascii(&g.pattern, 48, 20));
    }

    // ---- Repair: inpaint the violating gap of dirty two-bar layouts ----
    let rules = base.rules;
    let mut submitted = Vec::new();
    for case in 0..REPAIR_CASES {
        let dirty = dirty_layout(case as i64);
        let pattern = SquishPattern::encode(&dirty);
        assert!(
            !check_pattern(&pattern, &rules).is_clean(),
            "case {case} should start dirty"
        );
        let (ext, _) = extend_to_side(&pattern, side)?;
        let cond = repair_conditioning(&ext, &rules, channels)
            .ok_or_else(|| format!("case {case}: no repair constraint"))?;
        let spec = RequestSpec {
            count: 1,
            rules,
            max_attempts: 16,
            ..base.clone()
        }
        .seed(1_000 + case as u64)
        .conditioning(cond.clone());
        let handle = service.submit(&spec)?;
        submitted.push((case, cond, spec, handle));
    }
    let mut finished = Vec::new();
    for (case, cond, spec, handle) in submitted {
        finished.push((case, cond, spec, handle.wait()?));
    }
    let mut repaired = 0usize;
    for (case, cond, spec, batch) in finished {
        // The eight conditionings shared micro-batches; each result must
        // still be exactly what its spec delivers with the pool to itself.
        let alone = service.generate(&spec)?;
        assert!(
            batch.items == alone.items && batch.report == alone.report,
            "repair case {case}: concurrent result differs from the spec run alone"
        );
        let Some(g) = batch.items.first() else {
            eprintln!("repair case {case}: fell short");
            continue;
        };
        let region = cond.frozen().expect("repair always freezes");
        assert_frozen(&g.pattern, region, channels)?;
        if check_pattern(&g.pattern, &rules).is_clean() {
            repaired += 1;
        }
    }
    eprintln!("repair: {repaired}/{REPAIR_CASES} dirty layouts repaired to DRC-clean");
    assert!(
        repaired * 20 >= REPAIR_CASES * 19,
        "repair workload below 95% DRC-clean ({repaired}/{REPAIR_CASES})"
    );
    println!("inpaint+repair contracts hold: frozen bits exact, repair {repaired}/{REPAIR_CASES}");
    Ok(())
}

/// Two legal bars plus a 20 nm gap — always dirty under the standard
/// 40 nm spacing rule; `case` shifts the geometry so every case is a
/// distinct pattern.
fn dirty_layout(case: i64) -> Layout {
    let mut l = Layout::new(Rect::new(0, 0, 2048, 2048).unwrap());
    let x = 100 + 30 * case;
    l.push(Rect::new(x, 100, x + 300, 1000 + 20 * case).unwrap());
    l.push(Rect::new(x + 320, 100, x + 600, 1000 + 20 * case).unwrap());
    l
}

fn assert_frozen(
    pattern: &SquishPattern,
    region: &FrozenRegion,
    channels: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let tensor = DeepSquishTensor::fold(pattern.topology(), channels)?;
    if !region.holds(tensor.bits()) {
        return Err("a frozen entry diverged".into());
    }
    Ok(())
}
