//! Campaign observability: tracing spans, merged metrics, and a JSONL
//! event stream.
//!
//! A fault-injection campaign is a profiling problem as much as a
//! statistics problem: the time/accuracy trade-off of a sampling plan can
//! only be attributed if the run itself is observable — which strata are
//! slow, how often the lowering cache hits, how long the journal spends in
//! `fsync`, how many faults had to be re-queued after a worker panic.
//! This crate provides that layer for the whole SFI stack:
//!
//! - **Spans** — hierarchical `campaign → stratum → fault` events with
//!   monotonic timestamps relative to the probe's creation, emitted to an
//!   append-only JSONL stream ([`Event`]).
//! - **Metrics** — lock-free per-worker counters and a log₂ latency
//!   histogram ([`WorkerProbe`]), merged into a [`MetricsSnapshot`] at
//!   report time; workers never contend on a lock in the hot path.
//! - **Event stream** — one JSON object per line, written through a
//!   `<path>.partial` temporary and atomically renamed into place on
//!   [`Probe::finish`], the same publish discipline the checkpoint
//!   journal's manifest uses.
//!
//! # Zero cost when disabled
//!
//! The entire API is driven by a [`Probe`]; [`Probe::disabled`] returns a
//! `&'static` probe whose every operation reduces to a branch on the
//! stored [`TraceLevel`] — no allocation, no clock read, no atomic
//! write. The executor threads a probe reference unconditionally and the
//! kernels bench (`obs_overhead`) gates the disabled-path overhead.
//!
//! # Granularity
//!
//! Per-inference data is deliberately captured as a latency histogram in
//! the metrics, not as per-inference events: a CIFAR-scale campaign runs
//! millions of inferences and an event per inference would dominate the
//! run it observes. The `fault` event (at [`TraceLevel::Events`]) is the
//! finest stream granularity; `stratum`/`campaign` spans are emitted from
//! [`TraceLevel::Spans`] up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod summary;

/// How much of a campaign the probe records.
///
/// Levels are ordered: `Off < Spans < Events`. Metrics (counters and
/// histograms) are collected at every level except `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// No tracing; every probe operation is a branch on this value.
    Off,
    /// Campaign/stratum/phase/resume spans plus the final metrics event.
    Spans,
    /// Everything in `Spans` plus one event per classified fault.
    Events,
}

impl TraceLevel {
    /// Parses the CLI spelling (`off`, `spans`, `events`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "spans" => Some(Self::Spans),
            "events" => Some(Self::Events),
            _ => None,
        }
    }

    /// The CLI spelling of this level.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Spans => "spans",
            Self::Events => "events",
        }
    }
}

/// Number of independent metric shards; workers map onto shards by
/// `worker_id % SHARDS`, so up to this many workers record without ever
/// sharing a cache line of counters.
const SHARDS: usize = 16;

/// Number of log₂(nanoseconds) buckets in the inference-latency
/// histogram. Bucket `b` counts latencies in `[2^(b-1), 2^b)` ns; the
/// last bucket absorbs everything from ~9 minutes up.
pub const LATENCY_BUCKETS: usize = 40;

/// Number of log₂ buckets in the convergence-depth histogram. Bucket `b`
/// counts early exits whose re-executed suffix spanned `[2^(b-1), 2^b)`
/// graph nodes before converging onto the golden activations; the last
/// bucket absorbs any deeper suffix.
pub const CONVERGENCE_BUCKETS: usize = 16;

/// Number of log₂ buckets in the dirty-region histogram. Bucket `b` counts
/// delta-propagation passes whose dirty cone spanned `[2^(b-1), 2^b)` dirty
/// spatial blocks summed over every node mask; bucket 0 counts empty cones
/// (masked faults) and the last bucket absorbs any larger cone.
pub const DELTA_BUCKETS: usize = 32;

const C_INFERENCES: usize = 0;
const C_INFERENCE_NS: usize = 1;
const C_REQUEUES: usize = 2;
const C_RETIREMENTS: usize = 3;
const C_FSYNCS: usize = 4;
const C_FSYNC_NS: usize = 5;
const C_ARENA_TAKES: usize = 6;
const C_ARENA_REUSES: usize = 7;
const C_CONVERGED: usize = 8;
const C_NODES_SKIPPED: usize = 9;
const C_DELTA_SPARSE: usize = 10;
const C_DELTA_FALLBACKS: usize = 11;
const C_DELTA_DIRTY_BLOCKS: usize = 12;
const C_WEIGHT_FAULTS: usize = 13;
const C_TRANSIENT_FAULTS: usize = 14;
const C_ACCUMULATED_FAULTS: usize = 15;
const C_DELTA_CONV_ROWS: usize = 16;
const C_DELTA_CONV_ROWS_FULL: usize = 17;
const COUNTERS: usize = 18;

/// One worker's slice of the session metrics. All operations are relaxed
/// atomics; totals are merged by [`Probe::snapshot`].
struct MetricShard {
    counters: [AtomicU64; COUNTERS],
    latency: [AtomicU64; LATENCY_BUCKETS],
    convergence: [AtomicU64; CONVERGENCE_BUCKETS],
    delta: [AtomicU64; DELTA_BUCKETS],
}

impl MetricShard {
    const fn new() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; COUNTERS],
            latency: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            convergence: [const { AtomicU64::new(0) }; CONVERGENCE_BUCKETS],
            delta: [const { AtomicU64::new(0) }; DELTA_BUCKETS],
        }
    }

    fn add(&self, counter: usize, delta: u64) {
        self.counters[counter].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Histogram bucket for a latency of `ns` nanoseconds.
fn latency_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// Histogram bucket for a convergence depth of `nodes` graph nodes.
fn convergence_bucket(nodes: u64) -> usize {
    if nodes == 0 {
        0
    } else {
        (64 - nodes.leading_zeros() as usize).min(CONVERGENCE_BUCKETS - 1)
    }
}

/// Histogram bucket for a dirty cone of `blocks` dirty spatial blocks.
fn delta_bucket(blocks: u64) -> usize {
    if blocks == 0 {
        0
    } else {
        (64 - blocks.leading_zeros() as usize).min(DELTA_BUCKETS - 1)
    }
}

/// Merged view of every shard's counters, taken at report time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Single-image inferences timed by workers.
    pub inferences: u64,
    /// Total nanoseconds spent inside those inferences (summed across
    /// workers — a CPU-busy proxy, not wall time).
    pub inference_ns: u64,
    /// Faults re-queued to a surviving worker after a panic.
    pub requeues: u64,
    /// Workers retired after catching a panic.
    pub worker_retirements: u64,
    /// Checkpoint-journal `fsync` calls.
    pub fsyncs: u64,
    /// Total nanoseconds spent in journal `fsync`.
    pub fsync_ns: u64,
    /// Scratch-arena buffer requests.
    pub arena_takes: u64,
    /// Arena requests served from a recycled buffer (no allocation).
    pub arena_reuses: u64,
    /// Inferences that golden-converged before reaching the logits.
    pub converged: u64,
    /// Graph nodes skipped by golden-convergence early exits.
    pub nodes_skipped: u64,
    /// Nodes recomputed through sparse delta (dirty-cone) kernels.
    pub delta_sparse_nodes: u64,
    /// Delta nodes that saturated past the threshold and fell back to the
    /// dense kernel.
    pub delta_fallbacks: u64,
    /// Dirty spatial blocks summed over every delta pass's node masks (the
    /// total dirty-cone volume).
    pub delta_dirty_blocks: u64,
    /// Output rows (per plane) the delta passes' dense convs computed.
    pub delta_conv_rows: u64,
    /// Output rows (per plane) of those dense convs at full height; the
    /// ratio to [`Self::delta_conv_rows`] is the row-band share.
    pub delta_conv_rows_full: u64,
    /// Permanent weight faults classified.
    pub weight_faults: u64,
    /// Transient activation/input faults classified.
    pub transient_faults: u64,
    /// Accumulated (multi-fault) instances classified.
    pub accumulated_faults: u64,
    /// log₂(ns) inference-latency histogram; see [`LATENCY_BUCKETS`].
    pub latency_buckets: [u64; LATENCY_BUCKETS],
    /// log₂(nodes) convergence-depth histogram; see
    /// [`CONVERGENCE_BUCKETS`].
    pub convergence_buckets: [u64; CONVERGENCE_BUCKETS],
    /// log₂(blocks) dirty-cone-volume histogram, one entry per delta
    /// inference; see [`DELTA_BUCKETS`].
    pub delta_buckets: [u64; DELTA_BUCKETS],
}

impl MetricsSnapshot {
    /// Mean inference latency in microseconds (0 with no inferences).
    pub fn mean_inference_us(&self) -> f64 {
        if self.inferences == 0 {
            0.0
        } else {
            self.inference_ns as f64 / self.inferences as f64 / 1000.0
        }
    }

    /// Upper bound, in microseconds, of the histogram bucket containing
    /// quantile `q` (clamped to `[0, 1]`); 0 with no inferences.
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        if self.inferences == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.inferences as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, count) in self.latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 2f64.powi(bucket as i32) / 1000.0;
            }
        }
        2f64.powi(LATENCY_BUCKETS as i32 - 1) / 1000.0
    }

    /// Mean journal `fsync` latency in microseconds (0 with no fsyncs).
    pub fn mean_fsync_us(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.fsync_ns as f64 / self.fsyncs as f64 / 1000.0
        }
    }
}

/// One structured trace event. Borrowed string fields keep construction
/// allocation-free; the JSON line is only formatted once the level gate
/// has passed.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A campaign (one plan execution) started.
    CampaignStart {
        /// Strata the plan will execute.
        strata: usize,
        /// Faults the plan will inject in total.
        faults: u64,
        /// Configured worker count.
        workers: usize,
        /// The campaign's fault model (`weight`, `activation`, `input`, or
        /// `accumulated`).
        fault_model: &'a str,
    },
    /// The model's compiled execution plan, emitted once per campaign so a
    /// trace records which plan transforms (fusion, batching, lowering)
    /// were in effect.
    PlanCompiled {
        /// Graph nodes covered by the plan.
        nodes: usize,
        /// Conv+BN(+ReLU) chains fused into single epilogue GEMMs.
        fused_groups: usize,
        /// Convolutions eligible for im2col lowering.
        lowerable_convs: usize,
        /// Whether the batched eval-image engine was enabled.
        batched: bool,
    },
    /// A stratum's fault batch started executing.
    StratumStart {
        /// Stratum index within the plan.
        stratum: usize,
        /// Human-readable stratum label (e.g. `L3/b17`).
        label: &'a str,
        /// Faults in this stratum's sample.
        faults: u64,
    },
    /// One fault was classified (emitted in completion order; only at
    /// [`TraceLevel::Events`]).
    Fault {
        /// Stratum index within the plan.
        stratum: usize,
        /// Fault index within the stratum's sample.
        index: usize,
        /// Classification (`masked`, `critical`, `non_critical`,
        /// `exec_failure`).
        class: &'a str,
        /// Single-image inferences the classification cost.
        inferences: u64,
    },
    /// A stratum finished; carries its campaign telemetry.
    StratumEnd {
        /// Stratum index within the plan.
        stratum: usize,
        /// Faults injected.
        injections: u64,
        /// Masked faults (stuck value equalled the stored bit).
        masked: u64,
        /// Critical faults.
        critical: u64,
        /// Effective but harmless faults.
        non_critical: u64,
        /// Execution failures (panics beyond the retry budget, degenerate
        /// logits).
        failures: u64,
        /// Lowering-cache hits during this stratum.
        lowering_hits: u64,
        /// Lowering-cache misses during this stratum.
        lowering_misses: u64,
        /// Faults with at least one golden-convergence early exit.
        converged: u64,
        /// Graph nodes skipped by golden-convergence early exits.
        nodes_skipped: u64,
        /// Nodes recomputed through sparse delta kernels.
        delta_sparse: u64,
        /// Delta nodes that saturated and fell back to the dense kernel.
        delta_fallbacks: u64,
        /// Dirty spatial blocks summed over every delta pass's node masks.
        delta_dirty_blocks: u64,
        /// Stratum wall-clock time in milliseconds.
        wall_ms: f64,
    },
    /// A checkpointed campaign resumed from a journal.
    Resume {
        /// Classifications recovered from the journal.
        resumed: u64,
        /// Corrupt records dropped (and re-executed).
        dropped: u64,
    },
    /// A named phase of the run completed (model build, golden reference,
    /// plan, campaign, report).
    Phase {
        /// Phase name.
        name: &'a str,
        /// Phase wall-clock time in milliseconds.
        wall_ms: f64,
        /// Summed worker-busy time in milliseconds, when known (the
        /// campaign phase reports its inference time here).
        busy_ms: Option<f64>,
    },
    /// The campaign was cancelled before completing.
    Interrupted {
        /// Classifications completed before the interruption.
        completed: u64,
    },
    /// The campaign finished.
    CampaignEnd {
        /// Faults injected in total.
        injections: u64,
        /// Single-image inferences executed in total.
        inferences: u64,
        /// Campaign wall-clock time in milliseconds.
        wall_ms: f64,
    },
    /// Final merged metrics, emitted automatically by [`Probe::finish`].
    Metrics {
        /// The merged counters at finish time.
        snapshot: &'a MetricsSnapshot,
    },
}

/// Escapes `s` for use inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Event<'_> {
    /// The minimum level at which this event is written.
    fn required_level(&self) -> TraceLevel {
        match self {
            Event::Fault { .. } => TraceLevel::Events,
            _ => TraceLevel::Spans,
        }
    }

    /// The JSONL line for this event (no trailing newline).
    fn to_json(self, seq: u64, t_ns: u64) -> String {
        let head = format!("{{\"seq\":{seq},\"t_ns\":{t_ns},\"ev\":");
        let body = match self {
            Event::CampaignStart { strata, faults, workers, fault_model } => format!(
                "\"campaign_start\",\"strata\":{strata},\"faults\":{faults},\
                 \"workers\":{workers},\"fault_model\":\"{}\"",
                json_escape(fault_model)
            ),
            Event::PlanCompiled { nodes, fused_groups, lowerable_convs, batched } => format!(
                "\"plan_compiled\",\"nodes\":{nodes},\"fused_groups\":{fused_groups},\
                 \"lowerable_convs\":{lowerable_convs},\"batched\":{batched}"
            ),
            Event::StratumStart { stratum, label, faults } => format!(
                "\"stratum_start\",\"stratum\":{stratum},\"label\":\"{}\",\"faults\":{faults}",
                json_escape(label)
            ),
            Event::Fault { stratum, index, class, inferences } => format!(
                "\"fault\",\"stratum\":{stratum},\"index\":{index},\"class\":\"{}\",\
                 \"inferences\":{inferences}",
                json_escape(class)
            ),
            Event::StratumEnd {
                stratum,
                injections,
                masked,
                critical,
                non_critical,
                failures,
                lowering_hits,
                lowering_misses,
                converged,
                nodes_skipped,
                delta_sparse,
                delta_fallbacks,
                delta_dirty_blocks,
                wall_ms,
            } => format!(
                "\"stratum_end\",\"stratum\":{stratum},\"injections\":{injections},\
                 \"masked\":{masked},\"critical\":{critical},\"non_critical\":{non_critical},\
                 \"failures\":{failures},\"lowering_hits\":{lowering_hits},\
                 \"lowering_misses\":{lowering_misses},\"converged\":{converged},\
                 \"nodes_skipped\":{nodes_skipped},\"delta_sparse\":{delta_sparse},\
                 \"delta_fallbacks\":{delta_fallbacks},\
                 \"delta_dirty_blocks\":{delta_dirty_blocks},\"wall_ms\":{wall_ms:.3}"
            ),
            Event::Resume { resumed, dropped } => {
                format!("\"resume\",\"resumed\":{resumed},\"dropped\":{dropped}")
            }
            Event::Phase { name, wall_ms, busy_ms } => {
                let mut s = format!(
                    "\"phase\",\"name\":\"{}\",\"wall_ms\":{wall_ms:.3}",
                    json_escape(name)
                );
                if let Some(busy) = busy_ms {
                    s.push_str(&format!(",\"busy_ms\":{busy:.3}"));
                }
                s
            }
            Event::Interrupted { completed } => {
                format!("\"interrupted\",\"completed\":{completed}")
            }
            Event::CampaignEnd { injections, inferences, wall_ms } => format!(
                "\"campaign_end\",\"injections\":{injections},\"inferences\":{inferences},\
                 \"wall_ms\":{wall_ms:.3}"
            ),
            Event::Metrics { snapshot } => format!(
                "\"metrics\",\"inferences\":{},\"mean_inference_us\":{:.3},\
                 \"p99_inference_us\":{:.3},\"requeues\":{},\"worker_retirements\":{},\
                 \"fsyncs\":{},\"mean_fsync_us\":{:.3},\"arena_takes\":{},\"arena_reuses\":{},\
                 \"converged\":{},\"nodes_skipped\":{},\"delta_sparse_nodes\":{},\
                 \"delta_fallbacks\":{},\"delta_dirty_blocks\":{},\"delta_conv_rows\":{},\
                 \"delta_conv_rows_full\":{},\"weight_faults\":{},\
                 \"transient_faults\":{},\"accumulated_faults\":{}",
                snapshot.inferences,
                snapshot.mean_inference_us(),
                snapshot.latency_quantile_us(0.99),
                snapshot.requeues,
                snapshot.worker_retirements,
                snapshot.fsyncs,
                snapshot.mean_fsync_us(),
                snapshot.arena_takes,
                snapshot.arena_reuses,
                snapshot.converged,
                snapshot.nodes_skipped,
                snapshot.delta_sparse_nodes,
                snapshot.delta_fallbacks,
                snapshot.delta_dirty_blocks,
                snapshot.delta_conv_rows,
                snapshot.delta_conv_rows_full,
                snapshot.weight_faults,
                snapshot.transient_faults,
                snapshot.accumulated_faults
            ),
        };
        format!("{head}{body}}}")
    }
}

/// The open JSONL stream behind a probe. Writes go to `<path>.partial`;
/// [`Probe::finish`] renames the finished stream into place, so a crash
/// mid-campaign never leaves a truncated file under the final name.
struct SinkInner {
    writer: BufWriter<File>,
    seq: u64,
    tmp: PathBuf,
    path: PathBuf,
    /// First write error, surfaced at finish time (a trace-write failure
    /// must not take the campaign down mid-run).
    error: Option<String>,
}

struct EventSink {
    inner: Mutex<Option<SinkInner>>,
}

impl EventSink {
    fn create(path: &Path) -> io::Result<Self> {
        let tmp = PathBuf::from(format!("{}.partial", path.display()));
        let file = File::create(&tmp)?;
        Ok(Self {
            inner: Mutex::new(Some(SinkInner {
                writer: BufWriter::new(file),
                seq: 0,
                tmp,
                path: path.to_path_buf(),
                error: None,
            })),
        })
    }

    fn write(&self, t_ns: u64, event: &Event<'_>) {
        let mut guard = self.inner.lock().expect("trace sink lock never poisoned");
        let Some(inner) = guard.as_mut() else { return };
        if inner.error.is_some() {
            return;
        }
        let line = event.to_json(inner.seq, t_ns);
        inner.seq += 1;
        if let Err(e) = writeln!(inner.writer, "{line}") {
            inner.error = Some(e.to_string());
        }
    }

    fn seal(&self) -> io::Result<Option<TraceFile>> {
        let mut guard = self.inner.lock().expect("trace sink lock never poisoned");
        let Some(mut inner) = guard.take() else { return Ok(None) };
        if let Some(msg) = inner.error {
            return Err(io::Error::other(format!("trace stream write failed: {msg}")));
        }
        inner.writer.flush()?;
        inner.writer.get_ref().sync_all()?;
        drop(inner.writer);
        std::fs::rename(&inner.tmp, &inner.path)?;
        if let Some(dir) = inner.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
        Ok(Some(TraceFile { path: inner.path, events: inner.seq }))
    }
}

/// Where a finished trace stream landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Final path of the JSONL stream.
    pub path: PathBuf,
    /// Events written.
    pub events: u64,
}

/// The observability handle threaded through the campaign stack.
///
/// One probe observes one run: the CLI (or a test) creates it with
/// [`Probe::new`], passes `&Probe` down through plan execution and the
/// executor, reads merged counters with [`Probe::snapshot`], and seals the
/// event stream with [`Probe::finish`]. Library entry points that take no
/// probe use [`Probe::disabled`], on which every operation is a branch.
pub struct Probe {
    level: TraceLevel,
    /// Reference point for event timestamps; `None` iff the probe is
    /// disabled (`Instant::now` is unavailable in const context, which is
    /// exactly what makes the disabled probe allocation- and clock-free).
    origin: Option<Instant>,
    shards: [MetricShard; SHARDS],
    sink: Option<EventSink>,
}

impl Probe {
    /// A probe recording at `level`, streaming events to `out` when given.
    ///
    /// With `level == Off` the sink is not created (and `out` is ignored);
    /// with a level but no `out`, metrics are recorded and events are
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from creating `<out>.partial`.
    pub fn new(level: TraceLevel, out: Option<&Path>) -> io::Result<Self> {
        let sink = match out {
            Some(path) if level > TraceLevel::Off => Some(EventSink::create(path)?),
            _ => None,
        };
        Ok(Self {
            level,
            origin: (level > TraceLevel::Off).then(Instant::now),
            shards: [const { MetricShard::new() }; SHARDS],
            sink,
        })
    }

    /// The shared disabled probe: every operation branches on the level
    /// and returns without allocating, reading the clock, or touching an
    /// atomic.
    pub fn disabled() -> &'static Probe {
        static OFF: Probe = Probe {
            level: TraceLevel::Off,
            origin: None,
            shards: [const { MetricShard::new() }; SHARDS],
            sink: None,
        };
        &OFF
    }

    /// The probe's recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether the probe records anything at all.
    pub fn enabled(&self) -> bool {
        self.level > TraceLevel::Off
    }

    /// Whether span-level events are written.
    pub fn spans(&self) -> bool {
        self.level >= TraceLevel::Spans
    }

    /// Whether per-fault events are written.
    pub fn events(&self) -> bool {
        self.level >= TraceLevel::Events
    }

    /// The metric handle for worker `worker_id` (shards are shared modulo
    /// [`SHARDS`], which only blurs attribution, never counts).
    pub fn worker(&self, worker_id: usize) -> WorkerProbe<'_> {
        WorkerProbe { shard: self.enabled().then(|| &self.shards[worker_id % SHARDS]) }
    }

    /// Records one fault re-queued after a worker panic.
    pub fn record_requeue(&self) {
        if self.enabled() {
            self.shards[0].add(C_REQUEUES, 1);
        }
    }

    /// Records one worker retired after catching a panic.
    pub fn record_worker_retirement(&self) {
        if self.enabled() {
            self.shards[0].add(C_RETIREMENTS, 1);
        }
    }

    /// Records `count` journal `fsync` calls totalling `ns` nanoseconds.
    pub fn record_fsync(&self, count: u64, ns: u64) {
        if self.enabled() && count > 0 {
            self.shards[0].add(C_FSYNCS, count);
            self.shards[0].add(C_FSYNC_NS, ns);
        }
    }

    /// Writes `event` to the stream if the level (and a sink) allow it.
    pub fn emit(&self, event: &Event<'_>) {
        if self.level < event.required_level() {
            return;
        }
        let Some(sink) = &self.sink else { return };
        let t_ns = self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64);
        sink.write(t_ns, event);
    }

    /// Merges every shard into one snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut totals = [0u64; COUNTERS];
        let mut latency = [0u64; LATENCY_BUCKETS];
        let mut convergence = [0u64; CONVERGENCE_BUCKETS];
        let mut delta = [0u64; DELTA_BUCKETS];
        for shard in &self.shards {
            for (total, counter) in totals.iter_mut().zip(&shard.counters) {
                *total += counter.load(Ordering::Relaxed);
            }
            for (total, bucket) in latency.iter_mut().zip(&shard.latency) {
                *total += bucket.load(Ordering::Relaxed);
            }
            for (total, bucket) in convergence.iter_mut().zip(&shard.convergence) {
                *total += bucket.load(Ordering::Relaxed);
            }
            for (total, bucket) in delta.iter_mut().zip(&shard.delta) {
                *total += bucket.load(Ordering::Relaxed);
            }
        }
        MetricsSnapshot {
            inferences: totals[C_INFERENCES],
            inference_ns: totals[C_INFERENCE_NS],
            requeues: totals[C_REQUEUES],
            worker_retirements: totals[C_RETIREMENTS],
            fsyncs: totals[C_FSYNCS],
            fsync_ns: totals[C_FSYNC_NS],
            arena_takes: totals[C_ARENA_TAKES],
            arena_reuses: totals[C_ARENA_REUSES],
            converged: totals[C_CONVERGED],
            nodes_skipped: totals[C_NODES_SKIPPED],
            delta_sparse_nodes: totals[C_DELTA_SPARSE],
            delta_fallbacks: totals[C_DELTA_FALLBACKS],
            delta_dirty_blocks: totals[C_DELTA_DIRTY_BLOCKS],
            delta_conv_rows: totals[C_DELTA_CONV_ROWS],
            delta_conv_rows_full: totals[C_DELTA_CONV_ROWS_FULL],
            weight_faults: totals[C_WEIGHT_FAULTS],
            transient_faults: totals[C_TRANSIENT_FAULTS],
            accumulated_faults: totals[C_ACCUMULATED_FAULTS],
            latency_buckets: latency,
            convergence_buckets: convergence,
            delta_buckets: delta,
        }
    }

    /// Emits the final metrics event, flushes the stream, fsyncs it, and
    /// atomically renames `<path>.partial` to `<path>`.
    ///
    /// Returns `Ok(None)` when the probe has no sink (or was already
    /// finished); idempotent.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error or any flush/rename error.
    pub fn finish(&self) -> io::Result<Option<TraceFile>> {
        let Some(sink) = &self.sink else { return Ok(None) };
        if self.spans() {
            let snapshot = self.snapshot();
            self.emit(&Event::Metrics { snapshot: &snapshot });
        }
        sink.seal()
    }
}

/// A worker's handle into its metric shard. `Copy`, and a no-op when the
/// owning probe is disabled — the hot path pays one `Option` check.
#[derive(Clone, Copy)]
pub struct WorkerProbe<'a> {
    shard: Option<&'a MetricShard>,
}

impl WorkerProbe<'_> {
    /// A detached handle that records nothing (for code paths with no
    /// probe in scope, e.g. static sharding helpers).
    pub const fn off() -> WorkerProbe<'static> {
        WorkerProbe { shard: None }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.shard.is_some()
    }

    /// Starts timing one inference; `None` (no clock read) when disabled.
    #[inline]
    pub fn inference_start(&self) -> Option<Instant> {
        self.shard.map(|_| Instant::now())
    }

    /// Finishes timing one inference started by
    /// [`inference_start`](Self::inference_start).
    #[inline]
    pub fn inference_end(&self, started: Option<Instant>) {
        let (Some(shard), Some(t0)) = (self.shard, started) else { return };
        let ns = t0.elapsed().as_nanos() as u64;
        shard.add(C_INFERENCES, 1);
        shard.add(C_INFERENCE_NS, ns);
        shard.latency[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records scratch-arena activity: `takes` buffer requests of which
    /// `reuses` were served without allocating.
    pub fn record_arena(&self, takes: u64, reuses: u64) {
        let Some(shard) = self.shard else { return };
        shard.add(C_ARENA_TAKES, takes);
        shard.add(C_ARENA_REUSES, reuses);
    }

    /// Records one golden-convergence early exit whose re-executed suffix
    /// spanned `depth` graph nodes before converging, skipping `skipped`
    /// downstream nodes.
    pub fn record_convergence(&self, depth: usize, skipped: u64) {
        let Some(shard) = self.shard else { return };
        shard.add(C_CONVERGED, 1);
        shard.add(C_NODES_SKIPPED, skipped);
        shard.convergence[convergence_bucket(depth as u64)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one delta-propagation pass: `sparse` nodes recomputed
    /// through the dirty-cone kernels, `fallbacks` saturated nodes
    /// evaluated densely, a cone of `dirty_blocks` total dirty blocks (one
    /// dirty-region histogram entry per pass), and `(computed, full)`
    /// output rows of its dense convs: the rows their row bands reached
    /// against the rows of the convs at full height.
    pub fn record_delta(
        &self,
        sparse: u64,
        fallbacks: u64,
        dirty_blocks: u64,
        (computed, full): (u64, u64),
    ) {
        let Some(shard) = self.shard else { return };
        shard.add(C_DELTA_SPARSE, sparse);
        shard.add(C_DELTA_FALLBACKS, fallbacks);
        shard.add(C_DELTA_DIRTY_BLOCKS, dirty_blocks);
        shard.add(C_DELTA_CONV_ROWS, computed);
        shard.add(C_DELTA_CONV_ROWS_FULL, full);
        shard.delta[delta_bucket(dirty_blocks)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one classified campaign fault by its
    /// [`CampaignFault::kind`]-style tag (`weight`, `activation`, or
    /// `accumulated`); unknown tags are dropped rather than miscounted.
    ///
    /// [`CampaignFault::kind`]: https://docs.rs/sfi-faultsim
    pub fn record_fault_kind(&self, kind: &str) {
        let Some(shard) = self.shard else { return };
        match kind {
            "weight" => shard.add(C_WEIGHT_FAULTS, 1),
            "activation" => shard.add(C_TRANSIENT_FAULTS, 1),
            "accumulated" => shard.add(C_ACCUMULATED_FAULTS, 1),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_is_inert() {
        let probe = Probe::disabled();
        assert!(!probe.enabled());
        let w = probe.worker(3);
        assert!(!w.enabled());
        assert_eq!(w.inference_start(), None, "no clock read when disabled");
        w.inference_end(None);
        w.record_arena(10, 5);
        w.record_convergence(3, 7);
        w.record_delta(2, 1, 9, (3, 8));
        probe.record_requeue();
        probe.record_fsync(1, 100);
        probe.emit(&Event::CampaignStart {
            strata: 1,
            faults: 1,
            workers: 1,
            fault_model: "weight",
        });
        let snap = probe.snapshot();
        assert_eq!(snap.inferences, 0);
        assert_eq!(snap.arena_takes, 0);
        assert_eq!(snap.requeues, 0);
        assert_eq!(snap.converged, 0);
        assert_eq!(probe.finish().unwrap(), None);
    }

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(1024), 11);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn snapshot_merges_shards() {
        let probe = Probe::new(TraceLevel::Spans, None).unwrap();
        for worker in 0..4 {
            let w = probe.worker(worker);
            let t0 = w.inference_start();
            assert!(t0.is_some());
            w.inference_end(t0);
            w.record_arena(2, 1);
            w.record_convergence(4, 10);
            w.record_delta(5, 1, 12, (5, 32));
            w.record_fault_kind("weight");
            w.record_fault_kind("activation");
            w.record_fault_kind("accumulated");
            w.record_fault_kind("bogus");
        }
        probe.record_requeue();
        probe.record_worker_retirement();
        probe.record_fsync(3, 3_000);
        let snap = probe.snapshot();
        assert_eq!(snap.inferences, 4);
        assert_eq!(snap.arena_takes, 8);
        assert_eq!(snap.arena_reuses, 4);
        assert_eq!(snap.requeues, 1);
        assert_eq!(snap.worker_retirements, 1);
        assert_eq!(snap.fsyncs, 3);
        assert_eq!(snap.mean_fsync_us(), 1.0);
        assert_eq!(snap.latency_buckets.iter().sum::<u64>(), 4);
        assert!(snap.latency_quantile_us(0.99) > 0.0);
        assert_eq!(snap.converged, 4);
        assert_eq!(snap.nodes_skipped, 40);
        // Depth 4 lands in log2 bucket 3 ([4, 8)).
        assert_eq!(snap.convergence_buckets[3], 4);
        assert_eq!(snap.convergence_buckets.iter().sum::<u64>(), 4);
        assert_eq!(snap.delta_sparse_nodes, 20);
        assert_eq!(snap.delta_fallbacks, 4);
        assert_eq!(snap.delta_dirty_blocks, 48);
        assert_eq!((snap.delta_conv_rows, snap.delta_conv_rows_full), (20, 128));
        // A 12-block cone lands in log2 bucket 4 ([8, 16)).
        assert_eq!(snap.delta_buckets[4], 4);
        assert_eq!(snap.delta_buckets.iter().sum::<u64>(), 4);
        assert_eq!(snap.weight_faults, 4);
        assert_eq!(snap.transient_faults, 4);
        assert_eq!(snap.accumulated_faults, 4);
    }

    #[test]
    fn delta_buckets_are_log2() {
        assert_eq!(delta_bucket(0), 0);
        assert_eq!(delta_bucket(1), 1);
        assert_eq!(delta_bucket(7), 3);
        assert_eq!(delta_bucket(8), 4);
        assert_eq!(delta_bucket(u64::MAX), DELTA_BUCKETS - 1);
    }

    #[test]
    fn event_json_shape_is_stable() {
        let ev = Event::StratumStart { stratum: 2, label: "L3/b17", faults: 9 };
        assert_eq!(
            ev.to_json(7, 1234),
            "{\"seq\":7,\"t_ns\":1234,\"ev\":\"stratum_start\",\"stratum\":2,\
             \"label\":\"L3/b17\",\"faults\":9}"
        );
        let ev = Event::Fault { stratum: 0, index: 3, class: "critical", inferences: 2 };
        assert_eq!(
            ev.to_json(0, 0),
            "{\"seq\":0,\"t_ns\":0,\"ev\":\"fault\",\"stratum\":0,\"index\":3,\
             \"class\":\"critical\",\"inferences\":2}"
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fault_events_require_events_level() {
        let dir = std::env::temp_dir().join(format!("sfi-obs-level-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans-only.jsonl");
        let probe = Probe::new(TraceLevel::Spans, Some(&path)).unwrap();
        probe.emit(&Event::CampaignStart {
            strata: 1,
            faults: 1,
            workers: 1,
            fault_model: "weight",
        });
        probe.emit(&Event::Fault { stratum: 0, index: 0, class: "masked", inferences: 0 });
        let out = probe.finish().unwrap().unwrap();
        // campaign_start + the automatic metrics event; the fault event is
        // gated out at Spans level.
        assert_eq!(out.events, 2);
        let text = std::fs::read_to_string(&out.path).unwrap();
        assert!(!text.contains("\"ev\":\"fault\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_renames_partial_into_place() {
        let dir = std::env::temp_dir().join(format!("sfi-obs-rename-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let probe = Probe::new(TraceLevel::Events, Some(&path)).unwrap();
        probe.emit(&Event::Fault { stratum: 1, index: 2, class: "masked", inferences: 0 });
        assert!(!path.exists(), "stream stays under .partial until finish");
        let out = probe.finish().unwrap().unwrap();
        assert_eq!(out.path, path);
        assert!(path.exists());
        assert!(!PathBuf::from(format!("{}.partial", path.display())).exists());
        // Second finish is a no-op.
        assert_eq!(probe.finish().unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
