//! Failure-injection tests: every public error path across the workspace
//! must fail loudly, with a useful message, and without corrupting state.

use std::path::{Path, PathBuf};

use sfi::prelude::*;

fn tiny_model() -> Model {
    ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(1)
        .expect("valid config")
}

#[test]
fn wrong_input_shapes_are_rejected_with_context() {
    let model = tiny_model();
    let err = model.forward(&Tensor::zeros([1, 3, 32, 32])).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("[3, 8, 8]"), "message should name the expected shape: {msg}");
}

#[test]
fn campaign_on_mismatched_golden_reference_errors_cleanly() {
    let model = tiny_model();
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    // A different topology: its node count differs, so the caches cannot
    // be reused — incremental campaigns must fail, not misclassify.
    let other = ResNetConfig { base_width: 2, blocks_per_stage: 2, classes: 10, input_size: 8 }
        .build_seeded(1)
        .unwrap();
    let fault =
        Fault { site: FaultSite { layer: 0, weight: 0, bit: 30 }, model: FaultModel::StuckAt1 };
    let res = run_campaign(&other, &data, &golden, &[fault], &CampaignConfig::default());
    assert!(res.is_err(), "foreign cache must be rejected");
}

#[test]
fn fault_beyond_model_bounds_is_rejected_mid_campaign() {
    let model = tiny_model();
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let faults = vec![
        Fault { site: FaultSite { layer: 0, weight: 0, bit: 0 }, model: FaultModel::BitFlip },
        Fault { site: FaultSite { layer: 99, weight: 0, bit: 0 }, model: FaultModel::BitFlip },
    ];
    let before = model.store().clone();
    assert!(run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).is_err());
    // The input model is never mutated, even on failure.
    assert_eq!(*model.store(), before);
}

#[test]
fn plan_for_different_topology_is_rejected_before_injection() {
    let model = tiny_model();
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let bigger = ResNetConfig::resnet20_micro().build().unwrap();
    let plan = plan_layer_wise(
        &FaultSpace::stuck_at(&bigger),
        &SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() },
    );
    let err = Campaign::new(&model, &data, &golden, &plan, 0, &CampaignConfig::default())
        .run()
        .and_then(CampaignRun::into_outcome)
        .unwrap_err();
    assert!(err.to_string().contains("plan mismatch"), "{err}");
}

#[test]
fn oversampling_a_population_is_impossible() {
    let model = tiny_model();
    let space = FaultSpace::stuck_at(&model);
    // Even at the absurd margin the sample never exceeds the population.
    let spec = SampleSpec { error_margin: 0.0001, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    for s in plan.strata() {
        assert!(s.sample <= s.population);
    }
}

#[test]
fn nan_poisoned_weights_still_classify_deterministically() {
    // A model whose weights were corrupted to NaN must not panic — logits
    // become NaN and the NaN-aware argmax still yields a deterministic
    // class, so campaigns over already-degenerate models stay total.
    let mut model = tiny_model();
    let param = model.weight_layers()[0].param;
    for v in model.store_mut().get_mut(param).unwrap().tensor.as_mut_slice() {
        *v = f32::NAN;
    }
    let image = Tensor::zeros([1, 3, 8, 8]);
    let a = model.predict(&image).unwrap();
    let b = model.predict(&image).unwrap();
    assert_eq!(a, b);
}

#[test]
fn empty_dataset_is_rejected_everywhere() {
    let model = tiny_model();
    let empty = SynthCifarConfig::new().with_size(8).with_samples(0).generate();
    assert!(GoldenReference::build(&model, &empty).is_err());
    let data = SynthCifarConfig::new().with_size(8).with_samples(1).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    assert!(
        run_campaign::<Fault>(&model, &empty, &golden, &[], &CampaignConfig::default()).is_err()
    );
}

#[test]
fn quantized_plan_requires_matching_bit_width() {
    let model = tiny_model();
    let space16 = FaultSpace::stuck_at(&model).with_bits(16);
    // A 32-entry p vector is fine for a 16-bit space (prefix used), but an
    // 8-entry one is not.
    let spec = SampleSpec::paper_default();
    assert!(plan_data_aware_with_p(&space16, &[0.1; 32], &spec).is_ok());
    assert!(plan_data_aware_with_p(&space16, &[0.1; 8], &spec).is_err());
}

#[test]
fn errors_chain_their_sources() {
    use std::error::Error as _;
    let model = tiny_model();
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let bigger = ResNetConfig::resnet20_micro().build().unwrap();
    let plan = plan_layer_wise(
        &FaultSpace::stuck_at(&bigger),
        &SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() },
    );
    let err = Campaign::new(&model, &data, &golden, &plan, 0, &CampaignConfig::default())
        .run()
        .and_then(CampaignRun::into_outcome)
        .unwrap_err();
    // Either a self-contained message or a chained source — never a bare
    // unprintable error.
    assert!(!err.to_string().is_empty());
    let _ = err.source(); // must not panic
}

// --- checkpoint journal corruption -------------------------------------
//
// A crash can leave the journal in any state: a half-written record at the
// tail, silent bit rot in the middle of a segment, or a manifest that never
// made it to disk. Recovery must keep every record up to the first invalid
// byte, discard the rest, and re-execute exactly the discarded work — the
// resumed outcome always equals the uninterrupted one.

struct JournalFixture {
    model: Model,
    data: Dataset,
    golden: GoldenReference,
    space: FaultSpace,
    plan: SfiPlan,
    clean: SfiOutcome,
    dir: PathBuf,
    /// Classifications journaled before the simulated crash.
    completed: u64,
}

const JOURNAL_SEED: u64 = 9;

/// Runs a single-worker checkpointed campaign and cancels it mid-plan,
/// leaving a sealed journal in `dir` for the test to corrupt.
fn interrupted_journal(tag: &str) -> JournalFixture {
    let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(5)
        .unwrap();
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    let cfg = CampaignConfig::default();
    let clean = Campaign::new(&model, &data, &golden, &plan, JOURNAL_SEED, &cfg)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();

    let dir =
        std::env::temp_dir().join(format!("sfi-journal-corruption-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let stop_at = (clean.injections() / 2).max(8);
    let token = CancelToken::new();
    // One worker: inline execution stops deterministically at the next
    // fault boundary, so the run is always interrupted (never complete).
    let run = Campaign::new(&model, &data, &golden, &plan, JOURNAL_SEED, &cfg)
        .space(CampaignSpace::Weight(&space))
        .checkpoint(&CheckpointConfig::new(&dir))
        .cancel(&token)
        .progress(&mut |p| {
            if p.plan_completed >= stop_at {
                token.cancel();
            }
        })
        .run()
        .unwrap();
    let CampaignRun::Interrupted { stats } = run else {
        panic!("single-worker cancellation must interrupt the run");
    };
    assert!(stats.completed >= stop_at);
    JournalFixture { model, data, golden, space, plan, clean, dir, completed: stats.completed }
}

fn journal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "sfj"))
        .collect();
    segments.sort();
    assert!(!segments.is_empty(), "the interrupted run must leave a sealed segment");
    segments
}

fn resume_journal(fx: &JournalFixture) -> (SfiOutcome, ResumeStats) {
    let checkpoint = CheckpointConfig { dir: fx.dir.clone(), resume: true, checkpoint_every: 64 };
    let run = Campaign::new(
        &fx.model,
        &fx.data,
        &fx.golden,
        &fx.plan,
        JOURNAL_SEED,
        &CampaignConfig::default(),
    )
    .space(CampaignSpace::Weight(&fx.space))
    .checkpoint(&checkpoint)
    .run()
    .unwrap();
    let CampaignRun::Complete { outcome, stats } = run else {
        panic!("uncancelled resume must complete");
    };
    (outcome, stats)
}

/// Everything of an [`SfiOutcome`] except wall-clock durations.
fn strip_wall(outcome: &SfiOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        outcome.scheme(),
        outcome.strata().to_vec(),
        outcome
            .stratum_telemetry()
            .iter()
            .map(|t| {
                (t.injections, t.inferences, t.masked, t.critical, t.non_critical, t.exec_failures)
            })
            .collect::<Vec<_>>(),
        outcome.layer_tallies().to_vec(),
        outcome.injections(),
        outcome.inferences(),
    )
}

#[test]
fn truncated_journal_segment_recovers_from_last_valid_record() {
    let fx = interrupted_journal("truncate");
    // A crash mid-append leaves a partial record at the tail of the last
    // segment. Chop 5 bytes off: the final 21-byte record becomes invalid.
    let last = journal_segments(&fx.dir).pop().unwrap();
    let len = std::fs::metadata(&last).unwrap().len();
    assert!(len > 21, "segment holds at least the header and one record");
    let file = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    let (outcome, stats) = resume_journal(&fx);
    assert_eq!(stats.dropped, 1, "exactly the partial tail record is discarded");
    assert_eq!(stats.resumed, fx.completed - 1);
    assert_eq!(strip_wall(&outcome), strip_wall(&fx.clean));
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn bit_flipped_journal_record_is_detected_by_checksum() {
    let fx = interrupted_journal("bitflip");
    // Flip one bit inside the first record (offset 16 skips the segment
    // header). The CRC no longer matches: that record and everything after
    // it in the segment is untrusted and re-executed.
    let last = journal_segments(&fx.dir).pop().unwrap();
    let mut bytes = std::fs::read(&last).unwrap();
    bytes[16 + 4] ^= 0x20;
    std::fs::write(&last, bytes).unwrap();

    let (outcome, stats) = resume_journal(&fx);
    assert!(stats.dropped >= 1, "the corrupt record must be discarded");
    assert_eq!(stats.resumed, fx.completed - stats.dropped);
    assert_eq!(strip_wall(&outcome), strip_wall(&fx.clean));
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn missing_manifest_is_rebuilt_from_segment_headers() {
    let fx = interrupted_journal("manifest");
    let manifest = fx.dir.join("MANIFEST");
    assert!(manifest.exists(), "sealing must publish a manifest");
    std::fs::remove_file(&manifest).unwrap();

    let (outcome, stats) = resume_journal(&fx);
    assert_eq!(stats.dropped, 0, "segment records are intact");
    assert_eq!(stats.resumed, fx.completed, "no journaled work is repeated");
    assert_eq!(strip_wall(&outcome), strip_wall(&fx.clean));
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn adaptive_sampler_rejects_impossible_margins_gracefully() {
    let model = tiny_model();
    let data = SynthCifarConfig::new().with_size(8).with_samples(1).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let subpop = FaultSpace::stuck_at(&model).bit_subpopulation(0, 3).unwrap();
    // Margin so tight the tiny population cannot reach it by sampling: the
    // sampler runs to a census and reports convergence-by-exhaustion.
    let cfg = AdaptiveConfig { target_margin: 1e-12, ..AdaptiveConfig::new(0.01) };
    let out =
        run_adaptive(&model, &data, &golden, &subpop, &cfg, 1, &CampaignConfig::default()).unwrap();
    assert_eq!(out.result.sample, subpop.size());
    assert!(out.converged);
}
