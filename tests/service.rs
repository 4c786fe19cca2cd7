//! Integration tests for the [`PatternService`] generation engine: the
//! cross-request determinism contract (load-, worker-count-, micro-batch-
//! and admission-order-independence), cancellation semantics, handle
//! streaming, shortfall accounting and model persistence.

use diffpattern::drc::{check_pattern, DesignRules};
use diffpattern::legalize::SolverConfig;
use diffpattern::{
    ConfigError, Generated, Generation, PatternService, Pipeline, PipelineConfig, PipelineError,
    RecvPoll, RequestSpec, TrainedModel,
};
use rand::SeedableRng;
use std::sync::Arc;

/// One trained tiny model plus the pipeline-derived base spec.
fn trained(seed: u64, iters: usize) -> (Arc<TrainedModel>, RequestSpec) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(iters, &mut rng).unwrap();
    let spec = pipeline.request_spec(0);
    (Arc::new(pipeline.into_trained_model().unwrap()), spec)
}

fn service(model: &Arc<TrainedModel>, threads: usize) -> PatternService {
    PatternService::builder(Arc::clone(model))
        .threads(threads)
        .build()
        .unwrap()
}

#[test]
fn request_output_is_independent_of_load_workers_and_order() {
    // The tentpole contract: a fixed RequestSpec produces bit-identical
    // output when run alone, alongside concurrent requests, again on a
    // warm pool, at worker counts {1, 2, 4} and micro-batch sizes
    // {1, 3, 8} (8 exceeds the request's count), and regardless of
    // submission order or priority.
    let (model, base) = trained(70, 4);
    let spec = RequestSpec {
        count: 4,
        ..base.clone()
    }
    .seed(31);

    // Reference: alone, one worker.
    let reference = service(&model, 1).generate(&spec).unwrap();
    assert_eq!(
        reference.items.len() + reference.report.shortfall,
        4,
        "accounting must be closed"
    );

    // The seed is the knob: a different seed gives a different request.
    assert_ne!(
        reference.items,
        service(&model, 1)
            .generate(&spec.clone().seed(32))
            .unwrap()
            .items
    );

    // Three concurrent requests with different seeds and priorities; each
    // must equal its own uncontended single-worker run.
    let decoys: Vec<RequestSpec> = (0..3)
        .map(|i| {
            RequestSpec {
                count: 3,
                priority: i as i32 - 1,
                ..base.clone()
            }
            .seed(100 + i)
        })
        .collect();
    let decoy_solos: Vec<Generation> = decoys
        .iter()
        .map(|d| service(&model, 1).generate(d).unwrap())
        .collect();

    for workers in [1usize, 2, 4] {
        for micro_batch in [1usize, 3, 8] {
            let svc = PatternService::builder(Arc::clone(&model))
                .threads(workers)
                .micro_batch(micro_batch)
                .build()
                .unwrap();
            let at = format!("{workers} workers, micro-batch {micro_batch}");

            // Alone at this pool shape.
            let alone = svc.generate(&spec).unwrap();
            assert_eq!(reference.items, alone.items, "{at} (alone)");
            assert_eq!(reference.report, alone.report);

            // Alongside the decoys, submitted *before* the probe
            // (admission order and queue pressure must not matter).
            let decoy_handles: Vec<_> = decoys.iter().map(|d| svc.submit(d).unwrap()).collect();
            let contended = svc.submit(&spec).unwrap().wait().unwrap();
            assert_eq!(
                reference.items, contended.items,
                "{at} (contended) changed the request"
            );
            assert_eq!(reference.report, contended.report);

            // The concurrent requests are themselves deterministic.
            for ((decoy_spec, handle), solo) in decoys.iter().zip(decoy_handles).zip(&decoy_solos) {
                let contended = handle.wait().unwrap();
                assert_eq!(
                    solo.items, contended.items,
                    "{at}: decoy seed {}",
                    decoy_spec.seed
                );
            }

            // Reusing the warm pool (and its workers' warm sampling
            // scratch) must not change a single bit either.
            let again = svc.generate(&spec).unwrap();
            assert_eq!(reference.items, again.items, "{at} (repeat)");
            assert_eq!(reference.report, again.report);
        }
    }
}

#[test]
fn batch_generation_is_bit_identical_across_micro_batch_sizes_and_threads() {
    // The contract of the micro-batched engine: neither the number of
    // lock-step denoising lanes nor the worker count may change a single
    // bit of the output — only the per-item seeds do.
    let (model, base) = trained(60, 4);
    let spec = RequestSpec { count: 6, ..base }.seed(31);
    let run = |micro_batch: usize, threads: usize| {
        PatternService::builder(Arc::clone(&model))
            .micro_batch(micro_batch)
            .threads(threads)
            .build()
            .unwrap()
            .generate(&spec)
            .unwrap()
    };
    let reference = run(1, 1);
    assert_eq!(
        reference.items.len() + reference.report.shortfall,
        6,
        "accounting must be closed"
    );
    for micro_batch in [1usize, 3, 8] {
        for threads in [1usize, 2, 4] {
            let other = run(micro_batch, threads);
            assert_eq!(
                reference.items, other.items,
                "micro_batch={micro_batch} threads={threads} changed the batch"
            );
            assert_eq!(reference.report, other.report);
        }
    }
}

#[test]
fn empty_and_undersized_batches_are_well_defined() {
    // Edge cases of the lane scheduler: a zero-count request and
    // `micro_batch > count` must neither panic nor hang, and an empty
    // request reports zero work everywhere.
    let (model, base) = trained(61, 3);
    let spec = |count: usize| {
        RequestSpec {
            count,
            ..base.clone()
        }
        .seed(5)
    };
    let pool = |micro_batch: usize, threads: usize| {
        PatternService::builder(Arc::clone(&model))
            .micro_batch(micro_batch)
            .threads(threads)
            .build()
            .unwrap()
    };
    for (micro_batch, threads) in [(1usize, 1usize), (8, 1), (8, 4), (64, 3)] {
        let svc = pool(micro_batch, threads);
        // Empty request.
        let empty = svc.generate(&spec(0)).unwrap();
        assert!(empty.items.is_empty());
        assert_eq!(empty.report.shortfall, 0);
        assert_eq!(empty.report.topologies_sampled, 0);
        assert_eq!(empty.report.legal_patterns, 0);
        let (topologies, report) = svc.sample_topologies(&spec(0)).unwrap();
        assert!(topologies.is_empty());
        assert_eq!(report.shortfall, 0);
        // Request smaller than one micro-batch (and than the worker count).
        let small = svc.generate(&spec(2)).unwrap();
        assert_eq!(small.items.len() + small.report.shortfall, 2);
        assert!(small.items.iter().all(|g| g.provenance.index < 2));
    }
    // Undersized requests equal the full-size path item for item.
    let reference = pool(1, 1).generate(&spec(2)).unwrap();
    let oversized = pool(64, 3).generate(&spec(2)).unwrap();
    assert_eq!(reference.items, oversized.items);
    assert_eq!(reference.report, oversized.report);
}

#[test]
fn batch_generation_is_bit_identical_across_thread_counts() {
    let (model, base) = trained(50, 4);
    let spec = RequestSpec { count: 6, ..base }.seed(99);
    let serial = service(&model, 1).generate(&spec).unwrap();
    for threads in [2, 4, 7] {
        let parallel = service(&model, threads).generate(&spec).unwrap();
        assert_eq!(
            serial.items, parallel.items,
            "{threads} threads changed the batch"
        );
        assert_eq!(serial.report, parallel.report);
    }
    // And a different seed gives a different batch (the seed is the knob).
    let other = service(&model, 1).generate(&spec.seed(100)).unwrap();
    assert_ne!(serial.items, other.items);
}

#[test]
fn repeated_batches_are_bit_identical_run_to_run() {
    // Reusing a service (and therefore its workers' warm sampling
    // scratch) across requests must not change a single bit of what gets
    // generated — at a fixed seed and worker count, run N equals run 1.
    let (model, base) = trained(51, 4);
    let spec = RequestSpec { count: 5, ..base }.seed(7);
    for threads in [1usize, 3] {
        let svc = service(&model, threads);
        let first = svc.generate(&spec).unwrap();
        for run in 0..2 {
            let again = svc.generate(&spec).unwrap();
            assert_eq!(
                first.items, again.items,
                "repeat {run} at {threads} workers diverged"
            );
            assert_eq!(first.report, again.report);
        }
    }
}

#[test]
fn generated_patterns_are_drc_clean_with_provenance() {
    let (model, base) = trained(51, 5);
    let spec = RequestSpec { count: 4, ..base }.seed(3);
    let batch = service(&model, 2).generate(&spec).unwrap();
    assert!(!batch.items.is_empty(), "service produced nothing");
    let mut last_index = None;
    for g in &batch.items {
        let report = check_pattern(&g.pattern, &spec.rules);
        assert!(report.is_clean(), "{:?}", report.violations());
        assert_eq!(g.pattern.width(), 2048);
        assert_eq!(g.pattern.height(), 2048);
        assert!(g.provenance.attempts >= 1);
        // Items come back in index order.
        assert!(Some(g.provenance.index) > last_index);
        last_index = Some(g.provenance.index);
    }
    // Accounting is closed: every requested slot is a pattern or shortfall.
    assert_eq!(batch.items.len() + batch.report.shortfall, 4);
}

#[test]
fn dropping_a_handle_cancels_without_disturbing_neighbours() {
    let (model, base) = trained(72, 4);

    // Uncontended witness run first.
    let witness_spec = RequestSpec {
        count: 3,
        ..base.clone()
    }
    .seed(7);
    let expected = service(&model, 1).generate(&witness_spec).unwrap();

    let svc = service(&model, 2);
    // A large victim request to cancel mid-stream...
    let victim_spec = RequestSpec {
        count: 16,
        ..base.clone()
    }
    .seed(8);
    let mut victim = svc.submit(&victim_spec).unwrap();
    // ...and the witness competing with it for the same pool.
    let witness = svc.submit(&witness_spec).unwrap();

    // Pull one item off the victim, then drop it mid-stream.
    let first = victim.recv();
    let victim_report = victim.report();
    drop(victim);
    if let Some(g) = &first {
        assert!(g.provenance.index < 16);
        assert!(victim_report.legal_patterns >= 1);
    }

    // The witness must be byte-identical to its uncontended run.
    let contended = witness.wait().unwrap();
    assert_eq!(expected.items, contended.items);
    assert_eq!(expected.report, contended.report);

    // The pool survives cancellation: fresh requests still complete, and
    // repeated submit-and-drop cycles neither wedge nor leak workers.
    for _ in 0..3 {
        let h = svc.submit(&victim_spec).unwrap();
        drop(h);
    }
    let after = svc.generate(&witness_spec).unwrap();
    assert_eq!(expected.items, after.items);

    // Explicit cancel() ends the stream immediately.
    let mut cancelled = svc.submit(&victim_spec).unwrap();
    cancelled.cancel();
    assert!(cancelled.is_finished());
    assert!(cancelled.recv().is_none());
}

#[test]
fn handles_stream_every_item_with_closed_accounting() {
    let (model, base) = trained(73, 4);
    let svc = service(&model, 2);
    let spec = RequestSpec {
        count: 5,
        ..base.clone()
    }
    .seed(3);

    // recv() streams items (completion order); the iterator is equivalent.
    let mut handle = svc.submit(&spec).unwrap();
    let mut streamed: Vec<Generated> = Vec::new();
    while let Some(g) = handle.recv() {
        streamed.push(g);
    }
    assert!(handle.is_finished());
    assert!(handle.error().is_none());
    let report = handle.report();
    assert_eq!(streamed.len() + report.shortfall, 5);
    assert_eq!(report.legal_patterns, streamed.len());
    for g in &streamed {
        assert!(check_pattern(&g.pattern, &spec.rules).is_clean());
        assert!(g.provenance.attempts >= 1 && g.provenance.attempts <= spec.max_attempts);
    }

    // The iterator and wait() see the same items.
    let collected: Vec<Generated> = svc.submit(&spec).unwrap().collect();
    assert_eq!(collected.len(), streamed.len());
    let waited = svc.submit(&spec).unwrap().wait().unwrap();
    let mut sorted = streamed;
    sorted.sort_by_key(|g| g.provenance.index);
    assert_eq!(waited.items, sorted);

    // Zero-count requests are well-defined.
    let empty = svc
        .generate(&RequestSpec {
            count: 0,
            ..base.clone()
        })
        .unwrap();
    assert!(empty.items.is_empty());
    assert_eq!(empty.report, diffpattern::PipelineReport::default());
    let (topologies, report) = svc
        .sample_topologies(&RequestSpec {
            count: 0,
            ..base.clone()
        })
        .unwrap();
    assert!(topologies.is_empty());
    assert_eq!(report, diffpattern::PipelineReport::default());

    // One worker claims chunks in index order and delivers each chunk's
    // lanes in order, so its stream arrives in index order.
    let one = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .micro_batch(2)
        .build()
        .unwrap();
    let mut handle = one.submit(&spec).unwrap();
    let mut indices = Vec::new();
    while let Some(g) = handle.recv() {
        assert_eq!((g.pattern.width(), g.pattern.height()), (2048, 2048));
        indices.push(g.provenance.index);
    }
    assert_eq!(indices.len() + handle.report().shortfall, 5);
    assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");
}

#[test]
fn single_worker_streaming_is_in_index_order() {
    // With one worker the engine claims chunks in index order and
    // delivers each chunk's lanes in order, so the handle streams items
    // in index order as they complete.
    let (model, base) = trained(57, 4);
    let svc = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .micro_batch(2)
        .build()
        .unwrap();
    let mut handle = svc
        .submit(&RequestSpec { count: 5, ..base }.seed(6))
        .unwrap();
    let mut indices = Vec::new();
    while let Some(g) = handle.recv() {
        indices.push(g.provenance.index);
    }
    assert_eq!(indices.len() + handle.report().shortfall, 5);
    assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");
}

#[test]
fn streaming_delivers_every_item() {
    let (model, base) = trained(52, 4);
    let svc = service(&model, 3);
    let mut handle = svc
        .submit(&RequestSpec { count: 5, ..base }.seed(5))
        .unwrap();
    let streamed = handle.by_ref().count();
    let report = handle.report();
    assert_eq!(streamed + report.shortfall, 5);
    assert_eq!(report.legal_patterns, streamed);
}

#[test]
fn exhausted_attempts_surface_as_shortfall_not_silence() {
    // Regression test for the silent-shortfall bug: with rules the solver
    // cannot satisfy, every slot must be reported, not dropped.
    let (model, base) = trained(53, 3);
    let harsh = DesignRules::builder()
        .space_min(900)
        .width_min(900)
        .area_range(1, i128::MAX / 4)
        .build()
        .unwrap();
    let batch = service(&model, 2)
        .generate(
            &RequestSpec {
                count: 3,
                rules: harsh,
                max_attempts: 2,
                ..base.clone()
            }
            .seed(11),
        )
        .unwrap();
    assert_eq!(batch.items.len() + batch.report.shortfall, 3);
    if batch.items.is_empty() {
        assert_eq!(batch.report.shortfall, 3);
        assert!(batch.report.solver_failures >= 3);
    }
}

#[test]
fn model_save_load_round_trip_generates_identically() {
    let (model, base) = trained(54, 4);
    let restored = Arc::new(TrainedModel::load(&model.save()).unwrap());
    let spec = RequestSpec {
        count: 3,
        ..base.clone()
    }
    .seed(8);
    assert_eq!(
        service(&model, 2).generate(&spec).unwrap().items,
        service(&restored, 2).generate(&spec).unwrap().items
    );
}

#[test]
fn requests_with_different_strides_share_one_service() {
    // Lanes may only share a lock-step micro-batch when they traverse the
    // same denoising plan; requests on different strides must still be
    // served correctly (in their own batches) and deterministically.
    let (model, base) = trained(74, 3);
    let svc = service(&model, 2);
    let full = RequestSpec {
        count: 3,
        sample_stride: 1,
        ..base.clone()
    }
    .seed(21);
    let respaced = RequestSpec {
        count: 3,
        sample_stride: 5,
        ..base.clone()
    }
    .seed(21);

    let h_full = svc.submit(&full).unwrap();
    let h_respaced = svc.submit(&respaced).unwrap();
    let got_full = h_full.wait().unwrap();
    let got_respaced = h_respaced.wait().unwrap();

    assert_eq!(got_full.items.len() + got_full.report.shortfall, 3);
    assert_eq!(got_respaced.items.len() + got_respaced.report.shortfall, 3);
    // Different plans genuinely sample differently...
    assert_ne!(got_full.items, got_respaced.items);
    // ...but each equals its solo run.
    assert_eq!(
        got_full.items,
        service(&model, 1).generate(&full).unwrap().items
    );
    assert_eq!(
        got_respaced.items,
        service(&model, 1).generate(&respaced).unwrap().items
    );
}

#[test]
fn service_clones_share_the_engine_and_join_cleanly() {
    let (model, base) = trained(75, 3);
    let spec = RequestSpec {
        count: 2,
        ..base.clone()
    }
    .seed(9);
    let expected = service(&model, 1).generate(&spec).unwrap();

    let svc = service(&model, 2);
    let clone = svc.clone();
    // Submit through the clone, drop the original: the pool stays alive
    // until the last clone goes.
    let handle = clone.submit(&spec).unwrap();
    drop(svc);
    let got = handle.wait().unwrap();
    assert_eq!(expected.items, got.items);
    drop(clone); // joins the workers; returning from the test proves it
}

#[test]
fn invalid_specs_are_rejected_at_submit() {
    let (model, base) = trained(76, 3);
    let svc = service(&model, 1);
    assert!(matches!(
        svc.submit(&RequestSpec {
            sample_stride: 0,
            ..base.clone()
        }),
        Err(ConfigError::ZeroStride)
    ));
    assert!(matches!(
        svc.submit(&RequestSpec {
            max_attempts: 0,
            ..base.clone()
        }),
        Err(ConfigError::ZeroAttempts)
    ));
    assert!(matches!(
        svc.submit(&RequestSpec {
            solver: diffpattern::legalize::SolverConfig::for_window(8, 2048),
            ..base.clone()
        }),
        Err(ConfigError::WindowTooSmall { .. })
    ));
    assert!(matches!(
        PatternService::builder(Arc::clone(&model))
            .micro_batch(0)
            .build(),
        Err(ConfigError::ZeroMicroBatch)
    ));
}

#[test]
fn invalid_configs_are_rejected_by_the_blocking_entry_points() {
    // `generate` and `sample_topologies` validate exactly like `submit`:
    // a bad spec is a typed error before any lane runs.
    let (model, base) = trained(56, 3);
    let svc = service(&model, 1);
    let rejects = |spec: RequestSpec, expected: fn(&ConfigError) -> bool| {
        match svc.generate(&spec) {
            Err(PipelineError::Config(e)) => assert!(expected(&e), "generate: {e:?}"),
            other => panic!("generate accepted an invalid spec: {other:?}"),
        }
        match svc.sample_topologies(&spec) {
            Err(e) => assert!(expected(&e), "sample_topologies: {e:?}"),
            Ok(_) => panic!("sample_topologies accepted an invalid spec"),
        }
    };
    rejects(
        RequestSpec {
            sample_stride: 0,
            ..base.clone()
        },
        |e| matches!(e, ConfigError::ZeroStride),
    );
    rejects(
        RequestSpec {
            max_attempts: 0,
            ..base.clone()
        },
        |e| matches!(e, ConfigError::ZeroAttempts),
    );
    rejects(
        RequestSpec {
            solver: SolverConfig::for_window(8, 2048),
            ..base.clone()
        },
        |e| matches!(e, ConfigError::WindowTooSmall { .. }),
    );
}

#[test]
fn dropping_the_service_terminates_outstanding_handles() {
    let (model, base) = trained(77, 3);
    let svc = service(&model, 1);
    let handle = svc
        .submit(&RequestSpec {
            count: 32,
            ..base.clone()
        })
        .unwrap();
    drop(svc);
    // With the pool gone, the stream must end (possibly after in-flight
    // lanes drained) instead of blocking forever.
    let drained: Vec<Generated> = handle.collect();
    assert!(drained.len() <= 32);
}

#[test]
fn admission_bound_rejects_with_typed_queue_full_and_recovers() {
    let (model, base) = trained(78, 3);
    // One worker claiming one lane at a time keeps a multi-lane request
    // in the admission queue for its whole lifetime.
    let svc = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .micro_batch(1)
        .max_queued_requests(1)
        .build()
        .unwrap();
    assert_eq!(svc.max_queued_requests(), 1);

    let occupant = svc
        .submit(&RequestSpec {
            count: 32,
            ..base.clone()
        })
        .unwrap();

    // The queue is at its bound: the next submit is refused with the
    // typed backpressure error, carrying the observed depth.
    match svc.submit(&RequestSpec {
        count: 1,
        ..base.clone()
    }) {
        Err(ConfigError::QueueFull { queued, max_queued }) => {
            assert_eq!(queued, 1);
            assert_eq!(max_queued, 1);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Cancelling the occupant drains the queue; the same spec is then
    // admitted (poll briefly — the prune happens on the next sweep).
    drop(occupant);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let generation = loop {
        match svc.generate(&RequestSpec {
            count: 1,
            ..base.clone()
        }) {
            Ok(generation) => break generation,
            Err(diffpattern::PipelineError::Config(ConfigError::QueueFull { .. }))
                if std::time::Instant::now() < deadline =>
            {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error while recovering: {other}"),
        }
    };
    assert_eq!(generation.items.len() + generation.report.shortfall, 1);
}

#[test]
fn service_stats_track_queue_and_drain_to_zero() {
    let (model, base) = trained(79, 3);
    let svc = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .micro_batch(1)
        .build()
        .unwrap();
    let idle = svc.stats();
    assert_eq!(idle, diffpattern::ServiceStats::default());

    let handle = svc
        .submit(&RequestSpec {
            count: 8,
            ..base.clone()
        })
        .unwrap();
    // While the request runs, the scheduler reports work somewhere
    // (queued or in flight); when the handle completes, everything
    // drains back to zero.
    let busy = svc.stats();
    assert!(
        busy.queued_requests + busy.queued_lanes + busy.lanes_in_flight > 0,
        "{busy:?}"
    );
    let generation = handle.wait().unwrap();
    assert_eq!(generation.items.len() + generation.report.shortfall, 8);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let drained = svc.stats();
        if drained == diffpattern::ServiceStats::default() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stats never drained: {drained:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn in_process_deadline_expires_to_accounted_shortfall() {
    let (model, base) = trained(80, 3);
    let svc = service(&model, 1);

    // Already-expired deadline: all lanes become shortfall, nothing is
    // generated, the stream closes immediately.
    let expired = svc
        .generate(
            &RequestSpec {
                count: 5,
                ..base.clone()
            }
            .deadline(std::time::Duration::ZERO),
        )
        .unwrap();
    assert_eq!(expired.items.len(), 0);
    assert_eq!(expired.report.shortfall, 5);

    // A service-wide default deadline applies when the spec sets none.
    let svc = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .default_deadline(std::time::Duration::ZERO)
        .build()
        .unwrap();
    let defaulted = svc
        .generate(&RequestSpec {
            count: 3,
            ..base.clone()
        })
        .unwrap();
    assert_eq!(defaulted.report.shortfall, 3);
}

#[test]
fn a_huge_request_past_its_deadline_settles_at_once() {
    // Expiry settles a request's unclaimed lanes in one step, whatever its
    // count: 2^40 lanes with a 1 ms deadline end with every undelivered
    // lane counted as shortfall. Settled one message per lane, under the
    // scheduler lock, they would stall the pool for days; the poll is
    // capped so such a build fails instead of hanging.
    let (model, base) = trained(83, 3);
    let svc = service(&model, 1);
    let count = 1usize << 40;
    let mut handle = svc
        .submit(
            &RequestSpec {
                count,
                ..base.clone()
            }
            .deadline(std::time::Duration::from_millis(1)),
        )
        .unwrap();
    let cap = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match handle.recv_timeout(cap.saturating_duration_since(std::time::Instant::now())) {
            RecvPoll::Finished => break,
            RecvPoll::Item(_) => {}
            RecvPoll::TimedOut => panic!("an expired 2^40-lane request did not settle in 30 s"),
        }
    }
    let report = handle.report();
    assert_eq!(report.shortfall, count - report.legal_patterns);
}

#[test]
fn first_index_subrange_is_bit_identical_to_the_full_request_slice() {
    // The sub-range determinism contract behind resumable library
    // builds: item `i` of a `first_index: F` request is the same item as
    // item `F + i` of a full request with the same seed — same pattern
    // bits, same per-item seed, same solve provenance. Only the
    // request-relative `index` differs.
    let (model, base) = trained(81, 4);
    let svc = service(&model, 2);

    let full = svc
        .generate(
            &RequestSpec {
                count: 10,
                ..base.clone()
            }
            .seed(23),
        )
        .unwrap();
    let sub = svc
        .generate(
            &RequestSpec {
                count: 6,
                ..base.clone()
            }
            .seed(23)
            .first_index(4),
        )
        .unwrap();
    assert_eq!(
        sub.items.len() + sub.report.shortfall,
        6,
        "accounting must be closed"
    );

    for item in &sub.items {
        let reference = full
            .items
            .iter()
            .find(|g| g.provenance.index == item.provenance.index + 4)
            .expect("the full run must contain every sub-range item");
        assert_eq!(reference.pattern, item.pattern, "pattern bits must match");
        assert_eq!(reference.provenance.seed, item.provenance.seed);
        assert_eq!(reference.provenance.attempts, item.provenance.attempts);
        assert_eq!(reference.provenance.repaired, item.provenance.repaired);
        assert_eq!(reference.provenance.solve, item.provenance.solve);
    }

    // Overflowing the index space is a typed config error, not a panic.
    let err = svc
        .submit(
            &RequestSpec {
                count: 2,
                ..base.clone()
            }
            .first_index(usize::MAX),
        )
        .unwrap_err();
    assert!(matches!(err, ConfigError::IndexOverflow { .. }), "{err:?}");
}

#[test]
fn recv_timeout_polls_without_losing_items_or_accounting() {
    let (model, base) = trained(82, 4);
    let svc = service(&model, 2);
    let spec = RequestSpec {
        count: 4,
        ..base.clone()
    }
    .seed(29);

    // Reference: the blocking collector.
    let reference = svc.generate(&spec).unwrap();

    // Polling loop: short timeouts interleave `TimedOut` ticks (the
    // network server's liveness-check window) with item delivery, and
    // must surface exactly the same items, in some order, with the same
    // closing report.
    let mut handle = svc.submit(&spec).unwrap();
    let mut items: Vec<Generated> = Vec::new();
    let mut timeouts = 0usize;
    loop {
        match handle.recv_timeout(std::time::Duration::from_millis(5)) {
            RecvPoll::Item(g) => items.push(g),
            RecvPoll::TimedOut => timeouts += 1,
            RecvPoll::Finished => break,
        }
        assert!(timeouts < 1_000_000, "request never completed");
    }
    // Finished is sticky: further polls return it immediately.
    assert!(matches!(
        handle.recv_timeout(std::time::Duration::ZERO),
        RecvPoll::Finished
    ));

    items.sort_by_key(|g| g.provenance.index);
    let mut expected = reference.items.clone();
    expected.sort_by_key(|g| g.provenance.index);
    assert_eq!(items, expected, "polled items must match the blocking run");
    assert_eq!(items.len() + handle.report().shortfall, 4);

    // A zero timeout on a fresh request times out immediately rather
    // than blocking (the first denoising chunk takes far longer than 0ms).
    let mut fresh = svc.submit(&spec).unwrap();
    assert!(matches!(
        fresh.recv_timeout(std::time::Duration::ZERO),
        RecvPoll::TimedOut
    ));
    drop(fresh);
}
