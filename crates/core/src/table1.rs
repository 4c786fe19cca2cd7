//! The Table I harness: diversity and legality of every method on a shared
//! dataset.
//!
//! The paper generates 100 000 topologies per method on GPU clusters; the
//! harness scales the counts by configuration ([`Table1Config`]) while
//! keeping the comparison structure identical. The baselines come from
//! [`dp_baselines`]; both DiffPattern modes go through the one generation
//! API, [`PatternService`]:
//!
//! | Row | Generator | Delta assignment |
//! |---|---|---|
//! | Real Patterns | — (training tiles) | native |
//! | CAE | perturbed-latent decode + threshold | borrowed (implicit) |
//! | VCAE | prior-sample decode + threshold | borrowed (implicit) |
//! | CAE+LegalGAN | CAE + morphological legalizer | borrowed (implicit) |
//! | VCAE+LegalGAN | VCAE + morphological legalizer | borrowed (implicit) |
//! | LayouTransformer | polygon-sequence Markov model | native (physical) |
//! | DiffPattern-S | discrete diffusion | white-box solver, 1 per topology |
//! | DiffPattern-L | discrete diffusion | white-box solver, many per topology |

use crate::metrics::{evaluate_patterns, MethodRow};
use crate::{GenerateError, PatternService, PipelineError, RequestSpec};
use dp_baselines::{
    assign_borrowed_deltas, AeConfig, Cae, MorphLegalizer, SequenceModel, SequenceModelConfig, Vcae,
};
use dp_datagen::{Dataset, PatternLibrary};
use dp_geometry::BitGrid;
use dp_legalize::Solver;
use dp_squish::SquishPattern;
use rand::Rng;

/// Scale knobs for the Table I run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Config {
    /// Patterns generated per method (paper: 100 000).
    pub generate: usize,
    /// Training iterations for the CAE/VCAE baselines.
    pub ae_iterations: usize,
    /// Latent/feature scale of the CAE/VCAE baselines.
    pub ae: AeConfig,
    /// Legal variants per topology for DiffPattern-L (paper: 100).
    pub variants_per_topology: usize,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            generate: 200,
            ae_iterations: 300,
            ae: AeConfig::default(),
            variants_per_topology: 10,
        }
    }
}

impl Table1Config {
    /// A very small configuration for tests.
    pub fn tiny() -> Self {
        Table1Config {
            generate: 8,
            ae_iterations: 30,
            ae: AeConfig {
                side: 32,
                features: 4,
                latent: 8,
            },
            variants_per_topology: 3,
        }
    }
}

/// Runs every row of Table I: the service supplies the trained diffusion
/// model and its worker pool, `spec` the rules/seed/stride every
/// DiffPattern row uses, `dataset` the shared training data every
/// baseline fits on. The baselines fit and generate from `rng`, and so do
/// DiffPattern-L's solves; the sampled topologies depend on `spec` only.
///
/// # Errors
///
/// Propagates [`PipelineError`] from the service and from assembling
/// DiffPattern-L's patterns.
///
/// # Panics
///
/// Panics when `config.ae.side` does not match the dataset matrix side
/// (a harness misconfiguration, not a data error).
pub fn run(
    service: &PatternService,
    spec: &RequestSpec,
    dataset: &Dataset,
    config: Table1Config,
    rng: &mut impl Rng,
) -> Result<Vec<MethodRow>, PipelineError> {
    let rules = spec.rules;
    let window = spec.solver.target_width;
    assert_eq!(
        config.ae.side,
        service.model().matrix_side(),
        "AE baseline side must match the dataset matrix side"
    );
    let count = config.generate;
    let donors = &dataset.patterns;
    // The pixel baselines train on, and the CAE perturbs, the extended
    // topology matrices (unfold of the dataset tensors).
    let grids: Vec<BitGrid> = dataset.tensors.iter().map(|t| t.unfold()).collect();

    // Real patterns row (legality is not applicable; the paper prints '-').
    let mut real = PatternLibrary::new();
    for p in donors {
        real.add_topology(p.topology());
    }
    let mut rows = vec![MethodRow {
        name: "Real Patterns".into(),
        topologies: None,
        patterns: real.len(),
        diversity: real.diversity(),
        legal: real.len(),
        diversity_legal: real.diversity(),
    }];

    // Fit every baseline before any of them generates: the rows and the
    // caller's RNG stream depend on this order.
    let mut cae = Cae::new(config.ae, rng);
    let _ = cae.train(&grids, config.ae_iterations, 8, rng);
    let mut vcae = Vcae::new(config.ae, 0.05, rng);
    let _ = vcae.train(&grids, config.ae_iterations, 8, rng);
    let sequence = SequenceModel::fit(
        donors,
        SequenceModelConfig {
            window,
            ..SequenceModelConfig::default()
        },
    );

    // The pixel baselines, each with and without the LegalGAN-style
    // legalizer, borrow their Δ vectors from the dataset.
    let legalizer = MorphLegalizer::default();
    for (name, variational, legalize) in [
        ("CAE [7]", false, false),
        ("CAE+LegalGAN [8]", false, true),
        ("VCAE [8]", true, false),
        ("VCAE+LegalGAN [8]", true, true),
    ] {
        let mut patterns = Vec::with_capacity(count);
        for _ in 0..count {
            let mut topology = if variational {
                vcae.generate(rng)
            } else {
                cae.generate(&grids, 0.5, rng)
            };
            if legalize {
                topology = legalizer.legalize(&topology);
            }
            patterns.push(assign_borrowed_deltas(&topology, donors, window, rng));
        }
        rows.push(evaluate_patterns(name, Some(count), &patterns, &rules));
    }

    // LayouTransformer generates in physical coordinates: no topology
    // phase, native Δ vectors.
    let patterns: Vec<SquishPattern> = (0..count)
        .map(|_| SquishPattern::encode(&sequence.generate(rng)))
        .collect();
    rows.push(evaluate_patterns(
        "LayouTransformer [9]",
        None,
        &patterns,
        &rules,
    ));

    // DiffPattern-S: one legal pattern per sampled topology.
    let spec = RequestSpec {
        count,
        ..spec.clone()
    };
    let batch = service.generate(&spec)?;
    let patterns: Vec<SquishPattern> = batch.items.into_iter().map(|g| g.pattern).collect();
    rows.push(evaluate_patterns(
        "DiffPattern-S",
        Some(patterns.len()),
        &patterns,
        &rules,
    ));

    // DiffPattern-L: the same seed's topologies, each solved into up to
    // `variants_per_topology` distinct legal patterns (paper Fig. 7).
    let (topologies, _) = service.sample_topologies(&spec)?;
    let solver = Solver::new(rules, spec.solver);
    let mut patterns = Vec::new();
    for topology in &topologies {
        for s in solver.solve_many(topology, config.variants_per_topology, rng) {
            patterns.push(
                SquishPattern::new(topology.clone(), s.dx, s.dy)
                    .map_err(GenerateError::Assembly)?,
            );
        }
    }
    rows.push(evaluate_patterns(
        "DiffPattern-L",
        Some(topologies.len()),
        &patterns,
        &rules,
    ));

    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use rand::{RngCore, SeedableRng};

    #[test]
    fn tiny_table_runs_all_rows() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
        let _ = pipeline.train(4, &mut rng).unwrap();
        let model = std::sync::Arc::new(pipeline.trained_model().unwrap());
        let service = crate::PatternService::builder(model)
            .threads(1)
            .build()
            .unwrap();
        let spec = pipeline.request_spec(0).seed(1);
        let rows = run(
            &service,
            &spec,
            pipeline.dataset(),
            Table1Config::tiny(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(rows.len(), 8);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"Real Patterns"));
        assert!(names.contains(&"DiffPattern-S"));
        assert!(names.contains(&"DiffPattern-L"));

        // Structural claim of the paper: every DiffPattern output is legal.
        for row in rows.iter().filter(|r| r.name.starts_with("DiffPattern")) {
            assert_eq!(row.legal, row.patterns, "{row}");
        }

        // Every row, and the caller's RNG after the run, pinned exactly:
        // (name, topologies, patterns, legal, diversity bits, legal bits).
        type Row<'a> = (&'a str, Option<usize>, usize, usize, u64, u64);
        let expected: [Row; 8] = [
            (
                "Real Patterns",
                None,
                32,
                32,
                0x4011_67d7_f62a_4190,
                0x4011_67d7_f62a_4190,
            ),
            ("CAE [7]", Some(8), 8, 0, 0x4008_0000_0000_0000, 0),
            ("CAE+LegalGAN [8]", Some(8), 8, 1, 0x4008_0000_0000_0000, 0),
            ("VCAE [8]", Some(8), 8, 0, 0x4004_0000_0000_0000, 0),
            (
                "VCAE+LegalGAN [8]",
                Some(8),
                8,
                2,
                0x4008_0000_0000_0000,
                0x3ff0_0000_0000_0000,
            ),
            (
                "LayouTransformer [9]",
                None,
                8,
                3,
                0x4001_3ebf_b152_0c7c,
                0x3ff9_5c01_a39f_bd68,
            ),
            ("DiffPattern-S", Some(8), 8, 8, 0, 0),
            ("DiffPattern-L", Some(8), 24, 24, 0, 0),
        ];
        let got: Vec<Row> = rows
            .iter()
            .map(|r| {
                (
                    r.name.as_str(),
                    r.topologies,
                    r.patterns,
                    r.legal,
                    r.diversity.to_bits(),
                    r.diversity_legal.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, expected);
        assert_eq!(rng.next_u64(), 0xa9b9_75b1_8159_d9fe);
    }
}
