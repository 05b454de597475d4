//! Observability invariants: tracing is read-only.
//!
//! The tentpole guarantee of the `sfi-obs` layer is that attaching a
//! probe — at any level, writing a full JSONL event stream — never
//! changes what a campaign computes: classifications, tallies, telemetry
//! counts, and estimates are byte-identical to an untraced run at every
//! worker count. On top of that, the stream itself must round-trip: every
//! event the campaign emits is parsed back by the summarizer with the
//! same per-stratum counts the outcome reports.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sfi::obs::{summary, Probe, TraceLevel};
use sfi::prelude::*;

fn trace_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sfi-observability-{tag}-{}-{n}.jsonl", std::process::id()))
}

fn setup() -> (Model, Dataset, GoldenReference, FaultSpace, SfiPlan) {
    let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(5)
        .unwrap();
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    (model, data, golden, space, plan)
}

/// Everything of an [`SfiOutcome`] except wall-clock durations.
fn fingerprint(outcome: &SfiOutcome) -> impl PartialEq + std::fmt::Debug {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A full `events`-level trace never changes classifications or
    /// estimates, at any worker count.
    #[test]
    fn events_level_tracing_is_read_only(worker_idx in 0usize..3, seed in 1u64..64) {
        const WORKERS: [usize; 3] = [1, 4, 8];
        let (model, data, golden, _, plan) = setup();
        let cfg = CampaignConfig {
            workers: WORKERS[worker_idx],
            ..CampaignConfig::default()
        };
        let plain = Campaign::new(&model, &data, &golden, &plan, seed, &cfg).run().unwrap();
        let path = trace_path("readonly");
        let probe = Probe::new(TraceLevel::Events, Some(&path)).unwrap();
        let traced = Campaign::new(&model, &data, &golden, &plan, seed, &cfg)
            .probe(&probe)
            .run()
            .unwrap();
        let trace = probe.finish().unwrap().expect("a sink was attached");
        let (plain, traced) = (plain.into_outcome().unwrap(), traced.into_outcome().unwrap());
        prop_assert_eq!(fingerprint(&plain), fingerprint(&traced));
        prop_assert!(trace.events > 0);
        std::fs::remove_file(&path).ok();
    }
}

/// The emitted stream parses back with exactly the counts the outcome
/// reports: one `fault` event per injection, per-stratum class tallies
/// matching the telemetry, and a strictly increasing `seq`.
#[test]
fn jsonl_stream_round_trips_through_the_summarizer() {
    let (model, data, golden, _, plan) = setup();
    let cfg = CampaignConfig { workers: 4, ..CampaignConfig::default() };
    let path = trace_path("roundtrip");
    let probe = Probe::new(TraceLevel::Events, Some(&path)).unwrap();
    let outcome = Campaign::new(&model, &data, &golden, &plan, 9, &cfg)
        .probe(&probe)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    let trace_file = probe.finish().unwrap().expect("a sink was attached");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count() as u64, trace_file.events);

    // summarize() itself enforces the schema: known event kinds, required
    // fields, strictly increasing seq.
    let trace = summary::summarize(&text).unwrap();
    assert_eq!(trace.events, trace_file.events);
    assert_eq!(trace.planned_strata, Some(outcome.strata().len() as u64));
    assert_eq!(trace.planned_faults, Some(outcome.injections()));
    assert_eq!(trace.fault_events, outcome.injections());
    assert_eq!(trace.strata.len(), outcome.strata().len());
    for (st, tel) in trace.strata.iter().zip(outcome.stratum_telemetry()) {
        assert_eq!(st.injections, tel.injections);
        assert_eq!(st.masked, tel.masked);
        assert_eq!(st.critical, tel.critical);
        assert_eq!(st.non_critical, tel.non_critical);
        assert_eq!(st.failures, tel.exec_failures);
        assert_eq!(st.fault_events, tel.injections, "one fault event per injection");
    }
    let campaign = trace.campaign.expect("campaign_end present");
    assert_eq!(campaign.injections, outcome.injections());
    assert_eq!(campaign.inferences, outcome.inferences());
    let metrics = trace.metrics.expect("final metrics event present");
    assert_eq!(metrics.inferences, outcome.inferences());
    std::fs::remove_file(&path).ok();
}

/// `spans` level writes the campaign skeleton without per-fault events,
/// and is just as read-only as `events`.
#[test]
fn spans_level_skips_fault_events_but_keeps_strata() {
    let (model, data, golden, _, plan) = setup();
    let cfg = CampaignConfig::default();
    let plain = Campaign::new(&model, &data, &golden, &plan, 3, &cfg)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    let path = trace_path("spans");
    let probe = Probe::new(TraceLevel::Spans, Some(&path)).unwrap();
    let traced = Campaign::new(&model, &data, &golden, &plan, 3, &cfg)
        .probe(&probe)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    probe.finish().unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&traced));
    let trace = summary::summarize(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(trace.fault_events, 0, "per-fault events require the events level");
    assert_eq!(trace.strata.len(), plain.strata().len());
    std::fs::remove_file(&path).ok();
}

/// A JSONL trace line without its wall-clock fields.
fn untimed(line: &str) -> String {
    let timed = |f: &&str| f.starts_with("\"t_ns\"") || f.starts_with("\"wall_ms\"");
    line.split(',').filter(|f| !timed(f)).collect::<Vec<_>>().join(",")
}

/// A fresh checkpointed run traces exactly the events a plain run does,
/// wall-clock fields aside: the `plan_compiled` event, and the spans of
/// strata that sample no fault (a data-aware `p(i) = 0` sizes them to
/// zero). The closing `metrics` event is left out: its latencies and
/// journal fsync counts legitimately differ.
#[test]
fn checkpointed_run_traces_the_same_events_as_a_plain_run() {
    let (model, data, golden, space, _) = setup();
    let mut p = vec![0.5; 32];
    p[31] = 0.0;
    let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
    let plan = plan_data_aware_with_p(&space, &p, &spec).unwrap();
    assert!(plan.strata().iter().any(|s| s.sample == 0), "a zero-sample stratum");
    let cfg = CampaignConfig::default();
    let events = |checkpoint: Option<&CheckpointConfig>| {
        let path = trace_path("checkpointed-events");
        let probe = Probe::new(TraceLevel::Events, Some(&path)).unwrap();
        let run = Campaign::new(&model, &data, &golden, &plan, 4, &cfg)
            .checkpoint(checkpoint)
            .probe(&probe)
            .run()
            .unwrap();
        assert!(run.outcome().is_some());
        probe.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let events = text.lines().filter(|line| !line.contains("\"ev\":\"metrics\""));
        events.map(untimed).collect::<Vec<_>>()
    };
    let dir = trace_path("checkpointed-journal");
    let journaled = events(Some(&CheckpointConfig::new(&dir)));
    assert_eq!(events(None), journaled);
    std::fs::remove_dir_all(&dir).ok();
}
