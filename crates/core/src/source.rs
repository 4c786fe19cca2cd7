//! [`PatternSource`]: one interface over every pattern generator.
//!
//! The Table I comparison, the `dpgen` CLI and the examples all need the
//! same thing — "give me N squish patterns" — from five very different
//! engines: the discrete-diffusion [`PatternService`] and the four
//! baseline generators ([`Cae`], [`Vcae`], the LegalGAN-style
//! [`MorphLegalizer`] post-processor, and the LayouTransformer-style
//! [`SequenceModel`]). This module unifies them behind one object-safe
//! trait so harness code iterates a `Vec<Box<dyn PatternSource>>` instead
//! of hand-wiring each method.

use crate::{GenerateError, PatternService, PipelineError, PipelineReport, RequestSpec};
use dp_baselines::{
    assign_borrowed_deltas, AeConfig, Cae, MorphLegalizer, SequenceModel, SequenceModelConfig, Vcae,
};
use dp_geometry::{BitGrid, Coord};
use dp_legalize::Solver;
use dp_squish::SquishPattern;
use rand::{Rng, RngCore};
use std::rc::Rc;

/// What a source hands back for one request.
#[derive(Debug, Clone)]
pub struct SourceBatch {
    /// The generated patterns.
    pub patterns: Vec<SquishPattern>,
    /// Distinct topologies behind the patterns, when the method has that
    /// notion (`None` for sources that generate in physical coordinates).
    pub topologies: Option<usize>,
}

/// A uniform, object-safe interface over pattern generators: the diffusion
/// service and all four baselines implement it, so comparison harnesses
/// drive every method through the same loop.
pub trait PatternSource {
    /// Method name as printed in Table I.
    fn name(&self) -> String;

    /// Generates a batch of `count` patterns.
    ///
    /// For topology-per-pattern methods `count` is the number of
    /// topologies; [`DiffusionVariantsSource`] expands each into multiple
    /// legal patterns.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] on structural or configuration failures; methods
    /// that can fall short return fewer patterns instead.
    fn generate(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
    ) -> Result<SourceBatch, PipelineError>;
}

/// DiffPattern-S through a [`PatternService`]: one legal pattern per
/// sampled topology. Ignores the passed RNG — the spec's seed fully
/// determines the batch (that is the determinism contract). Successive
/// `generate` calls submit independent requests against the shared
/// engine, so several sources over one service micro-batch together.
#[derive(Debug)]
pub struct DiffusionSource<'s> {
    service: &'s PatternService,
    spec: RequestSpec,
    label: String,
}

impl<'s> DiffusionSource<'s> {
    /// Wraps a service under the given Table I label; `spec` supplies
    /// rules, seed, stride and donors (its `count` is overridden per
    /// call).
    pub fn new(service: &'s PatternService, spec: RequestSpec, label: impl Into<String>) -> Self {
        DiffusionSource {
            service,
            spec,
            label: label.into(),
        }
    }
}

impl PatternSource for DiffusionSource<'_> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn generate(
        &mut self,
        count: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<SourceBatch, PipelineError> {
        let spec = RequestSpec {
            count,
            ..self.spec.clone()
        };
        let batch = self.service.generate(&spec)?;
        Ok(SourceBatch {
            topologies: Some(batch.items.len()),
            patterns: batch.items.into_iter().map(|g| g.pattern).collect(),
        })
    }
}

/// DiffPattern-L: `count` topologies from the service (same seed ⇒ the
/// same topologies as [`DiffusionSource`]), each legalized into up to
/// `variants_per_topology` distinct patterns by a solver built from the
/// spec's rules.
#[derive(Debug)]
pub struct DiffusionVariantsSource<'s> {
    service: &'s PatternService,
    spec: RequestSpec,
    solver: Solver,
    variants_per_topology: usize,
    label: String,
}

impl<'s> DiffusionVariantsSource<'s> {
    /// Wraps a service under the given label.
    pub fn new(
        service: &'s PatternService,
        spec: RequestSpec,
        variants_per_topology: usize,
        label: impl Into<String>,
    ) -> Self {
        let solver = Solver::new(spec.rules, spec.solver);
        DiffusionVariantsSource {
            service,
            spec,
            solver,
            variants_per_topology,
            label: label.into(),
        }
    }
}

impl PatternSource for DiffusionVariantsSource<'_> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn generate(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
    ) -> Result<SourceBatch, PipelineError> {
        let spec = RequestSpec {
            count,
            ..self.spec.clone()
        };
        let (topologies, _) = self.service.sample_topologies(&spec)?;
        let mut patterns = Vec::new();
        for topo in &topologies {
            let (mut variants, _report) = legalize_variants_with(
                &self.solver,
                topo,
                self.variants_per_topology,
                &mut &mut *rng,
            )?;
            patterns.append(&mut variants);
        }
        Ok(SourceBatch {
            patterns,
            topologies: Some(topologies.len()),
        })
    }
}

/// Legalizes one topology into up to `variants` distinct patterns
/// (DiffPattern-L, paper Fig. 7), with full failure accounting in the
/// returned report.
fn legalize_variants_with(
    solver: &Solver,
    topology: &BitGrid,
    variants: usize,
    rng: &mut impl Rng,
) -> Result<(Vec<SquishPattern>, PipelineReport), GenerateError> {
    let solve = solver.solve_many_report(topology, variants, rng);
    let mut report = PipelineReport {
        solver_failures: solve.failures,
        ..PipelineReport::default()
    };
    let mut patterns = Vec::with_capacity(solve.solutions.len());
    for s in solve.solutions {
        let pattern =
            SquishPattern::new(topology.clone(), s.dx, s.dy).map_err(GenerateError::Assembly)?;
        report.legal_patterns += 1;
        patterns.push(pattern);
    }
    Ok((patterns, report))
}

/// Which pixel-space baseline generator a [`PixelSource`] wraps.
#[derive(Debug, Clone)]
enum PixelModel {
    Cae { cae: Cae, noise: f32 },
    Vcae(Vcae),
}

/// A pixel-space baseline (CAE or VCAE), optionally post-processed by the
/// LegalGAN-style morphological legalizer, with borrowed Δ assignment —
/// the implicit delta mechanism the paper criticises.
///
/// Seed grids and donor patterns are taken as `Rc` slices so every
/// source built over the same dataset (CAE, VCAE, their `+LegalGAN`
/// copies) shares one allocation instead of duplicating the training set.
#[derive(Debug, Clone)]
pub struct PixelSource {
    name: String,
    model: PixelModel,
    seeds: Rc<[BitGrid]>,
    donors: Rc<[SquishPattern]>,
    window: Coord,
    legalizer: Option<MorphLegalizer>,
}

impl PixelSource {
    /// Trains a CAE on `grids` (also kept as the perturbation seeds) and
    /// wraps it as a source. `donors` supply the borrowed Δ vectors,
    /// `window` the tile size.
    pub fn fit_cae(
        name: impl Into<String>,
        config: AeConfig,
        grids: Rc<[BitGrid]>,
        donors: Rc<[SquishPattern]>,
        window: Coord,
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut cae = Cae::new(config, rng);
        let _ = cae.train(&grids, iterations, 8, rng);
        PixelSource {
            name: name.into(),
            model: PixelModel::Cae { cae, noise: 0.5 },
            seeds: grids,
            donors,
            window,
            legalizer: None,
        }
    }

    /// Trains a VCAE on `grids` and wraps it as a source (a VCAE samples
    /// from the prior, so no seed grids are retained).
    pub fn fit_vcae(
        name: impl Into<String>,
        config: AeConfig,
        grids: &[BitGrid],
        donors: Rc<[SquishPattern]>,
        window: Coord,
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut vcae = Vcae::new(config, 0.05, rng);
        let _ = vcae.train(grids, iterations, 8, rng);
        PixelSource {
            name: name.into(),
            model: PixelModel::Vcae(vcae),
            seeds: Rc::from([]),
            donors,
            window,
            legalizer: None,
        }
    }

    /// A copy of this source (sharing the trained weights) that runs the
    /// LegalGAN-style morphological legalizer on every topology — the
    /// "+LegalGAN" rows of Table I without retraining the generator.
    pub fn with_legalizer(&self, name: impl Into<String>, legalizer: MorphLegalizer) -> Self {
        PixelSource {
            name: name.into(),
            legalizer: Some(legalizer),
            ..self.clone()
        }
    }
}

impl PatternSource for PixelSource {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn generate(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
    ) -> Result<SourceBatch, PipelineError> {
        let mut patterns = Vec::with_capacity(count);
        for _ in 0..count {
            let mut topo = match &mut self.model {
                PixelModel::Cae { cae, noise } => {
                    let noise = *noise;
                    cae.generate(&self.seeds, noise, &mut &mut *rng)
                }
                PixelModel::Vcae(vcae) => vcae.generate(&mut &mut *rng),
            };
            if let Some(legalizer) = &self.legalizer {
                topo = legalizer.legalize(&topo);
            }
            patterns.push(assign_borrowed_deltas(
                &topo,
                &self.donors,
                self.window,
                &mut &mut *rng,
            ));
        }
        Ok(SourceBatch {
            topologies: Some(count),
            patterns,
        })
    }
}

/// The LayouTransformer-style baseline: sequential polygon generation in
/// physical coordinates (native Δ vectors, no borrowing).
#[derive(Debug, Clone)]
pub struct SequenceSource {
    name: String,
    model: SequenceModel,
}

impl SequenceSource {
    /// Fits the order-2 Markov sequence model on `donors`.
    pub fn fit(name: impl Into<String>, donors: &[SquishPattern], window: Coord) -> Self {
        SequenceSource {
            name: name.into(),
            model: SequenceModel::fit(
                donors,
                SequenceModelConfig {
                    window,
                    ..SequenceModelConfig::default()
                },
            ),
        }
    }
}

impl PatternSource for SequenceSource {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn generate(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
    ) -> Result<SourceBatch, PipelineError> {
        let patterns = (0..count)
            .map(|_| SquishPattern::encode(&self.model.generate(&mut &mut *rng)))
            .collect();
        Ok(SourceBatch {
            patterns,
            topologies: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use dp_drc::DesignRules;
    use dp_legalize::SolverConfig;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// A tiny pipeline trained for `iters` steps, its continuing RNG, and
    /// a service over the frozen model.
    fn trained(seed: u64, iters: usize) -> (Pipeline, rand::rngs::StdRng, PatternService) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
        let _ = pipeline.train(iters, &mut rng).unwrap();
        let model = Arc::new(pipeline.trained_model().unwrap());
        let service = PatternService::builder(model).build().unwrap();
        (pipeline, rng, service)
    }

    #[test]
    fn variants_share_topology_and_are_legal() {
        let (pipeline, mut rng, service) = trained(3, 4);
        let (topos, _) = service
            .sample_topologies(&pipeline.request_spec(1).seed(3))
            .unwrap();
        if topos.is_empty() {
            return; // extremely unlucky sampling; covered by other seeds
        }
        let config = pipeline.config();
        let solver = Solver::new(config.rules, config.solver);
        let (variants, report) = legalize_variants_with(&solver, &topos[0], 4, &mut rng).unwrap();
        for v in &variants {
            assert_eq!(v.topology(), &topos[0]);
            assert!(dp_drc::check_pattern(v, &config.rules).is_clean());
        }
        assert_eq!(report.legal_patterns, variants.len());
    }

    #[test]
    fn variant_failures_are_counted() {
        // Infeasible rules: every requested variant must surface as a
        // solver failure instead of silently shrinking the result.
        let (pipeline, mut rng, service) = trained(7, 3);
        let harsh = Solver::new(
            DesignRules::builder()
                .space_min(900)
                .width_min(900)
                .area_range(1, i128::MAX / 4)
                .build()
                .unwrap(),
            SolverConfig {
                max_iterations: 30,
                max_restarts: 1,
                ..SolverConfig::for_window(2048, 2048)
            },
        );
        let (topos, _) = service
            .sample_topologies(&pipeline.request_spec(1).seed(7))
            .unwrap();
        if topos.is_empty() || topos[0].count_ones() == 0 {
            return; // nothing to legalize → nothing to fail
        }
        let (variants, report) = legalize_variants_with(&harsh, &topos[0], 3, &mut rng).unwrap();
        assert_eq!(report.solver_failures + variants.len(), 3);
    }
}
