//! The persistent work-stealing campaign executor.
//!
//! [`run_campaign`](crate::campaign::run_campaign) historically spawned a
//! fresh thread scope per call and split the fault list into static,
//! contiguous shards. Both choices waste time at production scale:
//!
//! - a plan execution runs one campaign **per stratum** (the paper's
//!   data-aware plan has 32 strata per layer), so per-call scope spawns and
//!   per-worker model clones are paid hundreds of times over;
//! - per-fault cost is wildly uneven — a masked fault costs zero
//!   inferences, an early-exited critical fault ~1, and a non-critical
//!   fault the entire evaluation set — so static shards straggle behind
//!   the unluckiest worker.
//!
//! [`with_executor`] fixes both: it spawns one worker pool (one model clone
//! per worker) that lives for the whole session, and distributes faults
//! dynamically through an atomic next-fault cursor, so an idle worker
//! always steals the next undone fault. Workers report `(index, class)`
//! pairs and the collector writes them into per-fault slots, keeping the
//! output **byte-identical** to the single-threaded path regardless of
//! worker count or scheduling order.
//!
//! # Crash tolerance
//!
//! Campaigns at validation scale run for hours; the executor therefore
//! never lets one bad fault take the session down:
//!
//! - **Panic isolation** — each fault's classification runs under
//!   [`std::panic::catch_unwind`]. A panicking fault poisons at most the
//!   worker that ran it: that worker retires (its model clone may hold an
//!   unreverted fault), the fault is re-queued to a surviving worker up to
//!   [`CampaignConfig::max_fault_retries`] times, and a fault that keeps
//!   panicking is recorded as [`FaultClass::ExecutionFailure`] instead of
//!   aborting the run. The pool degrades gracefully; in inline mode the
//!   single model clone is rebuilt from the pristine model after a panic.
//! - **Cooperative cancellation** — [`CampaignExecutor::run_with`] accepts
//!   a [`CancelToken`] checked at fault boundaries. On cancellation the
//!   collector stops issuing work, drains every in-flight classification
//!   (reporting each through the `on_classified` hook, so journals stay
//!   complete), and returns [`FaultSimError::Cancelled`].
//! - **Typed channel errors** — a worker that dies without unwinding
//!   surfaces as [`FaultSimError::WorkerLost`] /
//!   [`FaultSimError::WorkerPoolExhausted`], never as a hang or an abort.
//!
//! # Example
//!
//! ```
//! use sfi_dataset::SynthCifarConfig;
//! use sfi_faultsim::campaign::{CampaignConfig, Ieee754Corruption};
//! use sfi_faultsim::executor::with_executor;
//! use sfi_faultsim::fault::{Fault, FaultModel, FaultSite};
//! use sfi_faultsim::golden::GoldenReference;
//! use sfi_nn::resnet::ResNetConfig;
//! use sfi_obs::Probe;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
//! let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
//! let golden = GoldenReference::build(&model, &data)?;
//! let cfg = CampaignConfig { workers: 2, ..CampaignConfig::default() };
//! let fault = |w| Fault {
//!     site: FaultSite { layer: 0, weight: w, bit: 30 },
//!     model: FaultModel::StuckAt1,
//! };
//! // One pool serves any number of campaigns (here: two strata).
//! let probe = Probe::disabled();
//! let (a, b) = with_executor(&model, &data, &golden, &cfg, &Ieee754Corruption, probe, |exec| {
//!     Ok((exec.run(&[fault(0), fault(1)])?, exec.run(&[fault(2)])?))
//! })?;
//! assert_eq!(a.injections, 2);
//! assert_eq!(b.injections, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, VecDeque};
use std::ops::AddAssign;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use sfi_dataset::Dataset;
use sfi_nn::plan::row_argmax;
use sfi_nn::{
    ActPatch, DeltaOptions, DeltaStats, ForwardOptions, ForwardOutcome, KernelPolicy, Model,
    NodeId, SessionState, SuffixOutcome,
};
use sfi_obs::{Probe, WorkerProbe};
use sfi_tensor::ScratchArena;

use crate::activation::ActivationFault;
use crate::campaign::{CampaignConfig, CampaignResult, Corruption, Criterion, FaultClass};
use crate::fault::Fault;
use crate::golden::GoldenReference;
use crate::injector::{inject_with, revert, Injection};
use crate::multi::{AccumulatedFault, CampaignFault};
use crate::FaultSimError;

/// A cooperative stop signal for long-running campaigns.
///
/// Cloning shares the underlying flag: arm the token from any thread (a
/// signal handler, a timeout, a UI) with [`cancel`](Self::cancel) and every
/// executor run holding a clone stops at its next fault boundary, drains
/// in-flight work, and returns [`FaultSimError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the token; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Progress snapshot delivered to [`CampaignExecutor::run_with`]
/// callbacks after every completed fault.
///
/// `completed` is strictly monotone over the callbacks of one campaign and
/// ends at `total`; `inferences` is the running inference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignProgress {
    /// Faults classified so far (monotone, final value == `total`).
    pub completed: u64,
    /// Faults in this campaign.
    pub total: u64,
    /// Single-image inferences executed so far.
    pub inferences: u64,
}

/// Wall-clock and workload tallies of one campaign (one stratum, in plan
/// executions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignTelemetry {
    /// Wall-clock duration of the campaign.
    pub wall: Duration,
    /// Faults injected.
    pub injections: u64,
    /// Single-image inferences executed.
    pub inferences: u64,
    /// Faults whose stuck value equalled the stored bit (zero inferences).
    pub masked: u64,
    /// Faults that changed at least the criterion's share of predictions.
    pub critical: u64,
    /// Effective but harmless faults.
    pub non_critical: u64,
    /// Faults that could not be classified (panicked beyond the retry
    /// budget or produced degenerate logits).
    pub exec_failures: u64,
    /// Lowering-cache lookups served from precomputed column matrices.
    #[serde(default)]
    pub lowering_hits: u64,
    /// Lowering-cache lookups that missed.
    #[serde(default)]
    pub lowering_misses: u64,
    /// High-water mark of per-worker scratch-arena bytes.
    #[serde(default)]
    pub arena_peak_bytes: u64,
    /// Faults with at least one golden-convergence early exit.
    #[serde(default)]
    pub converged: u64,
    /// Graph nodes skipped by golden-convergence early exits.
    #[serde(default)]
    pub nodes_skipped: u64,
    /// Nodes recomputed through sparse delta (dirty-cone) kernels.
    #[serde(default)]
    pub delta_sparse_nodes: u64,
    /// Delta nodes that saturated and fell back to the dense kernel.
    #[serde(default)]
    pub delta_fallbacks: u64,
    /// Dirty spatial blocks summed over every delta pass's node masks.
    #[serde(default)]
    pub delta_dirty_blocks: u64,
    /// Faults evaluated by the dense (early-exit) engine.
    #[serde(default)]
    pub engine_dense: u64,
    /// Faults evaluated by the sparse-delta engine.
    #[serde(default)]
    pub engine_delta: u64,
    /// Faults evaluated by the batched eval-image engine.
    #[serde(default)]
    pub engine_batched: u64,
}

impl CampaignTelemetry {
    /// Derives the telemetry of a finished campaign.
    pub fn from_result(result: &CampaignResult) -> Self {
        let exec_failures = result.exec_failures();
        Self {
            wall: result.elapsed,
            injections: result.injections,
            inferences: result.inferences,
            masked: result.masked(),
            critical: result.critical(),
            non_critical: result.injections - result.masked() - result.critical() - exec_failures,
            exec_failures,
            lowering_hits: result.lowering_hits,
            lowering_misses: result.lowering_misses,
            arena_peak_bytes: result.arena_peak_bytes,
            converged: result.converged,
            nodes_skipped: result.nodes_skipped,
            delta_sparse_nodes: result.delta_sparse_nodes,
            delta_fallbacks: result.delta_fallbacks,
            delta_dirty_blocks: result.delta_dirty_blocks,
            engine_dense: result.engine_dense,
            engine_delta: result.engine_delta,
            engine_batched: result.engine_batched,
        }
    }

    /// Inference throughput; `0.0` for an instantaneous (all-masked or
    /// empty) campaign.
    pub fn inferences_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.inferences as f64 / secs
        } else {
            0.0
        }
    }
}

/// Retry queue + completion flag behind the shared steal cursor.
struct BatchState {
    /// Fault indices whose claimer panicked, awaiting a surviving worker.
    retries: VecDeque<usize>,
    /// Set by the collector when no further work will be issued.
    closed: bool,
}

/// One unit of pool work: a shared fault list plus the steal cursor.
struct Batch {
    faults: Vec<CampaignFault>,
    next: AtomicUsize,
    /// Fast-path stop flag mirroring `BatchState::closed`.
    stop: AtomicBool,
    state: Mutex<BatchState>,
    wake: Condvar,
}

impl Batch {
    fn new(faults: Vec<CampaignFault>) -> Self {
        Self {
            faults,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            state: Mutex::new(BatchState { retries: VecDeque::new(), closed: false }),
            wake: Condvar::new(),
        }
    }

    /// Claims the next fault index: re-queued retries first, then the
    /// cursor; blocks when the cursor is exhausted but a panicked fault may
    /// still be re-queued. Returns `None` once the batch is closed.
    fn claim(&self) -> Option<usize> {
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        if let Some(idx) = self.state.lock().expect("batch lock never poisoned").retries.pop_front()
        {
            return Some(idx);
        }
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx < self.faults.len() {
            return Some(idx);
        }
        let mut st = self.state.lock().expect("batch lock never poisoned");
        loop {
            if let Some(idx) = st.retries.pop_front() {
                return Some(idx);
            }
            if st.closed {
                return None;
            }
            st = self.wake.wait(st).expect("batch lock never poisoned");
        }
    }

    /// Re-queues a fault whose claimer panicked and wakes idle workers.
    fn requeue(&self, idx: usize) {
        let mut st = self.state.lock().expect("batch lock never poisoned");
        st.retries.push_back(idx);
        drop(st);
        self.wake.notify_all();
    }

    /// Closes the batch: workers stop claiming and idle workers wake up.
    fn close(&self) {
        self.stop.store(true, Ordering::Release);
        let mut st = self.state.lock().expect("batch lock never poisoned");
        st.closed = true;
        drop(st);
        self.wake.notify_all();
    }
}

/// Per-fault worker message back to the collector.
enum WorkerReport {
    /// The fault's batch slot and its outcome (or the first error hit
    /// while classifying it).
    Classified(usize, Result<FaultOutcome, FaultSimError>),
    /// Classifying `fault` panicked; `worker` retires (its model clone may
    /// hold an unreverted fault). The panic payload itself is reported by
    /// the standard panic hook on the worker's thread.
    Panicked { fault: usize, worker: usize },
}

/// A batch handed to one worker, with the result lane back to the
/// collector. Dropping the `results` sender signals the worker is done
/// with the batch.
struct Task {
    batch: Arc<Batch>,
    needed_for_critical: usize,
    results: Sender<WorkerReport>,
}

/// A campaign executor bound to one `(model, data, golden, corruption)`
/// session via [`with_executor`].
///
/// With `workers > 1` the executor owns a pool of threads, each holding its
/// own model clone for the lifetime of the session; [`run`](Self::run) hands
/// the pool a fault list and the workers steal faults through an atomic
/// cursor. With `workers == 1` the executor runs inline on a single
/// persistent clone, which is also the reference behaviour the pooled path
/// must reproduce bit-for-bit.
pub struct CampaignExecutor<'a, C: Corruption> {
    /// Pristine model, used to rebuild the inline clone after a panic.
    model: &'a Model,
    data: &'a Dataset,
    golden: &'a GoldenReference,
    cfg: CampaignConfig,
    corruption: &'a C,
    mode: Mode,
    /// Session-wide tallies fed by every worker (or the inline loop).
    stats: Arc<SessionStats>,
    /// Observability probe; [`Probe::disabled`] unless the session was
    /// opened with one.
    probe: &'a Probe,
}

enum Mode {
    /// Single persistent model clone (plus session state: scratch arena and
    /// shared arena-peak publishing), processed on the calling thread.
    Inline { model: Box<Model>, session: SessionState },
    /// Worker pool; one task sender per surviving worker thread (`None`
    /// marks a worker that died and was pruned from the pool).
    Pool(Vec<Option<Sender<Task>>>),
}

/// Telemetry shared between the collector and every worker of a session.
#[derive(Debug, Default)]
struct SessionStats {
    /// Largest scratch-arena footprint any worker has reached, in bytes —
    /// the **session high-water mark**, maintained via
    /// [`SessionState::publish_peak`] (monotone `max`, never a sum, so
    /// per-worker arenas are never double-counted). Arenas persist across
    /// campaigns; the mark is monotone over the session.
    arena_peak: Arc<AtomicU64>,
}

/// Runs `f` with a campaign executor whose worker pool (and per-worker
/// model clones) persists across every [`CampaignExecutor::run_with`] call
/// made inside `f` — the cheap way to execute many strata against one model.
///
/// `cfg.workers <= 1` runs inline without spawning anything. Workers time
/// their inferences and arena activity into `probe`'s shards, and the
/// collector counts requeues and retirements; with [`Probe::disabled`]
/// every instrumentation point reduces to a branch.
///
/// # Errors
///
/// Returns [`FaultSimError::EmptyEvalSet`] for an empty dataset or golden
/// reference, [`FaultSimError::EvalSetMismatch`] for a golden reference
/// built for a different number of images,
/// [`FaultSimError::ModelMismatch`] for one built from other weights than
/// `model`'s (checked once per session); otherwise whatever `f` returns.
pub fn with_executor<C, R, F>(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    cfg: &CampaignConfig,
    corruption: &C,
    probe: &Probe,
    f: F,
) -> Result<R, FaultSimError>
where
    C: Corruption,
    F: FnOnce(&mut CampaignExecutor<'_, C>) -> Result<R, FaultSimError>,
{
    golden.check_session(model, data)?;
    let workers = cfg.workers.max(1);
    let stats = Arc::new(SessionStats::default());
    if workers == 1 {
        let mut exec = CampaignExecutor {
            model,
            data,
            golden,
            cfg: *cfg,
            corruption,
            mode: Mode::Inline {
                model: Box::new(model.clone()),
                session: SessionState::with_shared_peak(Arc::clone(&stats.arena_peak)),
            },
            stats,
            probe,
        };
        return f(&mut exec);
    }
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(workers);
        for worker_id in 0..workers {
            let (tx, rx) = channel::<Task>();
            senders.push(Some(tx));
            let worker_model = model.clone();
            let worker_stats = Arc::clone(&stats);
            scope.spawn(move || {
                worker_loop(
                    worker_id,
                    worker_model,
                    data,
                    golden,
                    cfg,
                    corruption,
                    rx,
                    worker_stats,
                    probe,
                )
            });
        }
        let mut exec = CampaignExecutor {
            model,
            data,
            golden,
            cfg: *cfg,
            corruption,
            mode: Mode::Pool(senders),
            stats,
            probe,
        };
        let out = f(&mut exec);
        // Dropping `exec` (and with it the task senders) disconnects every
        // worker's receiver; the scope then joins the exiting workers.
        drop(exec);
        out
    })
}

impl<C: Corruption> CampaignExecutor<'_, C> {
    /// Runs one campaign over `faults` with no hooks: [`run_with`](Self::run_with)
    /// for any fault list that converts into [`CampaignFault`]s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_with`](Self::run_with).
    pub fn run<F: Clone + Into<CampaignFault>>(
        &mut self,
        faults: &[F],
    ) -> Result<CampaignResult, FaultSimError> {
        let faults: Vec<CampaignFault> = faults.iter().cloned().map(Into::into).collect();
        self.run_with(&faults, &mut |_| {}, &mut |_, _, _| {}, None)
    }

    /// Runs one campaign over a fault-model-generic fault list (weight,
    /// activation/input, or accumulated multi-fault instances, freely
    /// mixed) — the executor's one primitive. Results are in fault order
    /// and identical across worker counts.
    ///
    /// `progress` is invoked after every classified fault with
    /// monotonically increasing `completed` counts.
    /// `on_classified(index, class, inferences)` fires in **completion
    /// order** (not fault order) exactly once per classified fault — the
    /// hook checkpoint journals use to persist results as they happen.
    /// `cancel` is checked at every fault boundary; on cancellation the
    /// executor stops issuing work, drains in-flight classifications
    /// (still reporting them through `on_classified`), and returns
    /// [`FaultSimError::Cancelled`].
    ///
    /// # Errors
    ///
    /// - the first injection or inference error, by fault order;
    /// - [`FaultSimError::Cancelled`] when `cancel` fires;
    /// - [`FaultSimError::WorkerLost`] / [`FaultSimError::WorkerPoolExhausted`]
    ///   when pool workers die without unwinding (panics are isolated and
    ///   do **not** produce these).
    pub fn run_with(
        &mut self,
        faults: &[CampaignFault],
        progress: &mut dyn FnMut(CampaignProgress),
        on_classified: &mut dyn FnMut(usize, FaultClass, u64),
        cancel: Option<&CancelToken>,
    ) -> Result<CampaignResult, FaultSimError> {
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(FaultSimError::Cancelled { completed: 0 });
        }
        let start = Instant::now();
        let needed = needed_for_critical(&self.cfg, self.data.len());
        let total = faults.len() as u64;
        let mut tally = FaultTally::default();
        let data = self.data;
        let golden = self.golden;
        let cfg = self.cfg;
        let corruption = self.corruption;
        let lowering_hits0 = golden.lowering_hits();
        let lowering_misses0 = golden.lowering_misses();
        // Execution order; classes, on_classified indices, and error
        // precedence always use the caller's fault order.
        let order = self.execution_order(faults);
        let classes = match &mut self.mode {
            Mode::Inline { model, session } => {
                let wprobe = self.probe.worker(0);
                let arena_before = session.arena.stats();
                let mut slots: Vec<Option<FaultClass>> = vec![None; faults.len()];
                for (done, &fi) in order.iter().enumerate() {
                    let fault = &faults[fi];
                    if cancel.is_some_and(|t| t.is_cancelled()) {
                        return Err(FaultSimError::Cancelled { completed: done as u64 });
                    }
                    let mut attempts = 0usize;
                    let item = loop {
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            classify_any(
                                model, data, golden, fault, needed, &cfg, corruption, session,
                                wprobe,
                            )
                        }));
                        match outcome {
                            Ok(item) => break item?,
                            Err(_) => {
                                // The clone may hold an unreverted fault;
                                // rebuild it from the pristine model.
                                **model = self.model.clone();
                                if attempts >= cfg.max_fault_retries {
                                    break FaultOutcome {
                                        class: FaultClass::ExecutionFailure,
                                        ..FaultOutcome::masked()
                                    };
                                }
                                attempts += 1;
                                self.probe.record_requeue();
                            }
                        }
                    };
                    tally += item.tally;
                    slots[fi] = Some(item.class);
                    on_classified(fi, item.class, item.tally.inferences);
                    progress(CampaignProgress {
                        completed: done as u64 + 1,
                        total,
                        inferences: tally.inferences,
                    });
                }
                let arena_after = session.arena.stats();
                wprobe.record_arena(
                    arena_after.takes - arena_before.takes,
                    arena_after.reuses - arena_before.reuses,
                );
                session.publish_peak();
                let mut classes = Vec::with_capacity(faults.len());
                for (index, slot) in slots.into_iter().enumerate() {
                    classes.push(slot.ok_or(FaultSimError::MissingResult { index })?);
                }
                classes
            }
            Mode::Pool(senders) => {
                let batch =
                    Arc::new(Batch::new(order.iter().map(|&i| faults[i].clone()).collect()));
                let (tx, rx) = channel::<WorkerReport>();
                let mut live = 0usize;
                for slot in senders.iter_mut() {
                    let Some(sender) = slot else { continue };
                    let task = Task {
                        batch: Arc::clone(&batch),
                        needed_for_critical: needed,
                        results: tx.clone(),
                    };
                    if sender.send(task).is_err() {
                        // The worker died outside a batch; prune it now so
                        // a dead channel never aborts or hangs the session.
                        *slot = None;
                    } else {
                        live += 1;
                    }
                }
                drop(tx);
                if live == 0 {
                    return Err(FaultSimError::WorkerPoolExhausted);
                }
                let mut slots: Vec<Option<FaultClass>> = vec![None; faults.len()];
                let mut retries_used: HashMap<usize, usize> = HashMap::new();
                let mut first_error: Option<(usize, FaultSimError)> = None;
                let mut filled = 0usize;
                let mut classified = 0u64;
                let mut cancelled = false;
                while filled < faults.len() {
                    if !cancelled && cancel.is_some_and(|t| t.is_cancelled()) {
                        cancelled = true;
                        batch.close();
                    }
                    // Exactly one report eventually arrives per claimed
                    // fault; a disconnect before every slot is filled means
                    // workers died without unwinding.
                    let Ok(report) = rx.recv() else { break };
                    match report {
                        // Reports carry *batch* indices; `order` maps them
                        // back to the caller's fault indices.
                        WorkerReport::Classified(idx, item) => {
                            let fi = order[idx];
                            if slots[fi].is_some() {
                                continue;
                            }
                            match item {
                                Ok(item) => {
                                    tally += item.tally;
                                    slots[fi] = Some(item.class);
                                    filled += 1;
                                    classified += 1;
                                    on_classified(fi, item.class, item.tally.inferences);
                                }
                                Err(e) => {
                                    if first_error.as_ref().is_none_or(|(i, _)| fi < *i) {
                                        first_error = Some((fi, e));
                                    }
                                    // Fill the slot so the campaign drains
                                    // fully before the error is returned.
                                    slots[fi] = Some(FaultClass::ExecutionFailure);
                                    filled += 1;
                                }
                            }
                            progress(CampaignProgress {
                                completed: filled as u64,
                                total,
                                inferences: tally.inferences,
                            });
                        }
                        WorkerReport::Panicked { fault, worker } => {
                            live = live.saturating_sub(1);
                            senders[worker] = None;
                            self.probe.record_worker_retirement();
                            let fi = order[fault];
                            if slots[fi].is_some() {
                                continue;
                            }
                            let used = retries_used.entry(fault).or_insert(0);
                            if !cancelled && *used < cfg.max_fault_retries && live > 0 {
                                *used += 1;
                                self.probe.record_requeue();
                                batch.requeue(fault);
                            } else {
                                slots[fi] = Some(FaultClass::ExecutionFailure);
                                filled += 1;
                                classified += 1;
                                on_classified(fi, FaultClass::ExecutionFailure, 0);
                                progress(CampaignProgress {
                                    completed: filled as u64,
                                    total,
                                    inferences: tally.inferences,
                                });
                            }
                        }
                    }
                }
                batch.close();
                if filled < faults.len() {
                    // Cancellation is best-effort: a campaign whose faults
                    // were all in flight when the token fired completes
                    // normally and falls through to the Ok path below.
                    if cancelled {
                        return Err(FaultSimError::Cancelled { completed: classified });
                    }
                    return Err(if live == 0 {
                        FaultSimError::WorkerPoolExhausted
                    } else {
                        FaultSimError::WorkerLost { missing: (faults.len() - filled) as u64 }
                    });
                }
                if let Some((_, e)) = first_error {
                    return Err(e);
                }
                let mut classes = Vec::with_capacity(faults.len());
                for (index, slot) in slots.into_iter().enumerate() {
                    classes.push(slot.ok_or(FaultSimError::MissingResult { index })?);
                }
                classes
            }
        };
        Ok(tally.into_result(
            classes,
            start.elapsed(),
            (
                golden.lowering_hits().saturating_sub(lowering_hits0),
                golden.lowering_misses().saturating_sub(lowering_misses0),
            ),
            self.stats.arena_peak.load(Ordering::Relaxed),
        ))
    }

    /// The order faults are *executed* in (indices into the caller's
    /// slice). Identity unless convergence, delta propagation, or the
    /// batched engine is enabled: with either early exit active, faults
    /// striking deeper nodes have shorter suffixes, so draining them first
    /// shrinks the straggler tail of a work-stealing batch — and the sort
    /// makes same-node faults adjacent, so a worker's single-slot im2col
    /// panel is built once per node and shared by every batched fault that
    /// strikes it. The sort is stable, and results/errors always surface
    /// in the caller's fault order regardless of this permutation.
    fn execution_order(&self, faults: &[CampaignFault]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..faults.len()).collect();
        if !(self.cfg.convergence || self.cfg.delta || self.cfg.batched) {
            return order;
        }
        let layers = self.model.weight_layers();
        let weight_depth = |f: &Fault| -> usize {
            layers
                .get(f.site.layer)
                .and_then(|l| self.model.node_of_param(l.param))
                // Unknown layers sort last (depth 0 under Reverse), keeping
                // invalid-fault errors ordered by original index.
                .unwrap_or(0)
        };
        let depth = |f: &CampaignFault| -> usize {
            match f {
                CampaignFault::Weight(w) => weight_depth(w),
                CampaignFault::Activation(a) => a.site.node,
                // An accumulated instance re-executes from its shallowest
                // component.
                CampaignFault::Accumulated(acc) => acc
                    .weights
                    .iter()
                    .map(weight_depth)
                    .chain(acc.activations.iter().map(|a| a.site.node))
                    .min()
                    .unwrap_or(0),
            }
        };
        order.sort_by_key(|&i| std::cmp::Reverse(depth(&faults[i])));
        order
    }

    /// The session's campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Number of surviving workers (1 for the inline mode).
    ///
    /// Starts at `cfg.workers` and decreases as workers retire after
    /// catching a panic; it never reaches 0 while a campaign can still
    /// complete.
    pub fn workers(&self) -> usize {
        match &self.mode {
            Mode::Inline { .. } => 1,
            Mode::Pool(senders) => senders.iter().filter(|s| s.is_some()).count(),
        }
    }
}

/// How many prediction mismatches make a fault critical under `cfg`.
///
/// [`Criterion::MismatchRate`] means "critical iff the mismatch *fraction
/// strictly exceeds* the threshold", i.e. the cutoff is
/// `floor(threshold * images) + 1` mismatches (capped at `images`). The
/// product must not be evaluated in floating point: thresholds are decimal
/// user inputs whose nearest `f64` can sit on either side of the exact
/// value (`0.29_f64 * 100.0 == 28.999999999999996`, which floors to 28
/// instead of 29). The threshold is therefore re-quantised to its decimal
/// intent at 9 fractional digits and the cutoff computed in exact integer
/// arithmetic.
pub(crate) fn needed_for_critical(cfg: &CampaignConfig, total_images: usize) -> usize {
    match cfg.criterion {
        Criterion::AnyMismatch => 1usize,
        Criterion::MismatchRate { threshold } => {
            // 10^9 fractional digits cover any threshold a CLI or config
            // can express while keeping the product within u128.
            const DEN: u128 = 1_000_000_000;
            let t = if threshold.is_finite() { threshold.clamp(0.0, 1.0) } else { 1.0 };
            let scaled = (t * DEN as f64).round() as u128;
            let cutoff = scaled * total_images as u128 / DEN;
            (cutoff as usize + 1).min(total_images)
        }
    }
}

/// Engine, convergence and delta counters of one fault, summed with `+=`
/// into a campaign's tallies (the matching [`CampaignResult`] fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultTally {
    /// Single-image inferences spent (a converged image still counts as
    /// one inference — convergence changes cost, never counts).
    pub inferences: u64,
    /// 1 when at least one image's forward pass converged onto the golden
    /// activations; summed, the faults with a convergence.
    pub converged: u64,
    /// Graph nodes skipped by convergence early exits, over all images.
    pub nodes_skipped: u64,
    /// Nodes recomputed through sparse delta kernels, over all images.
    pub delta_sparse_nodes: u64,
    /// Delta nodes that saturated and fell back to the dense kernel.
    pub delta_fallbacks: u64,
    /// Dirty blocks summed over every image's surviving node masks.
    pub delta_dirty_blocks: u64,
    /// 1 when the dense (early-exit) engine evaluated this fault.
    pub engine_dense: u64,
    /// 1 when the sparse-delta engine evaluated this fault.
    pub engine_delta: u64,
    /// 1 when the batched eval-image engine evaluated this fault.
    pub engine_batched: u64,
}

impl AddAssign for FaultTally {
    fn add_assign(&mut self, o: Self) {
        self.inferences += o.inferences;
        self.converged += o.converged;
        self.nodes_skipped += o.nodes_skipped;
        self.delta_sparse_nodes += o.delta_sparse_nodes;
        self.delta_fallbacks += o.delta_fallbacks;
        self.delta_dirty_blocks += o.delta_dirty_blocks;
        self.engine_dense += o.engine_dense;
        self.engine_delta += o.engine_delta;
        self.engine_batched += o.engine_batched;
    }
}

impl FaultTally {
    /// The campaign result carrying these tallies.
    pub(crate) fn into_result(
        self,
        classes: Vec<FaultClass>,
        elapsed: Duration,
        lowering: (u64, u64),
        arena_peak_bytes: u64,
    ) -> CampaignResult {
        CampaignResult {
            injections: classes.len() as u64,
            classes,
            inferences: self.inferences,
            elapsed,
            lowering_hits: lowering.0,
            lowering_misses: lowering.1,
            arena_peak_bytes,
            converged: self.converged,
            nodes_skipped: self.nodes_skipped,
            delta_sparse_nodes: self.delta_sparse_nodes,
            delta_fallbacks: self.delta_fallbacks,
            delta_dirty_blocks: self.delta_dirty_blocks,
            engine_dense: self.engine_dense,
            engine_delta: self.engine_delta,
            engine_batched: self.engine_batched,
        }
    }
}

/// Per-fault classification outcome with early-exit accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultOutcome {
    /// The fault's classification.
    pub class: FaultClass,
    /// What classifying it cost, and on which engine.
    pub tally: FaultTally,
}

impl FaultOutcome {
    fn masked() -> Self {
        Self { class: FaultClass::Masked, tally: FaultTally::default() }
    }
}

/// The per-image verdict every engine shares: images are recorded in
/// ascending order, a converged image counts an inference and never a
/// mismatch, an evaluated image's top-1 is compared against the golden
/// one, and under [`CampaignConfig::early_exit`] evaluation stops once the
/// mismatches reach the criterion's cutoff — so classifications and
/// inference counts cannot depend on the engine that produced the images.
struct Verdict<'a> {
    golden: &'a GoldenReference,
    needed_for_critical: usize,
    early_exit: bool,
    /// First recomputed node and graph size, for convergence accounting.
    start: NodeId,
    total_nodes: usize,
    wprobe: WorkerProbe<'a>,
    mismatches: usize,
    failed: bool,
    tally: FaultTally,
}

impl<'a> Verdict<'a> {
    fn new(
        model: &Model,
        golden: &'a GoldenReference,
        needed_for_critical: usize,
        cfg: &CampaignConfig,
        start: NodeId,
        wprobe: WorkerProbe<'a>,
    ) -> Self {
        Self {
            golden,
            needed_for_critical,
            early_exit: cfg.early_exit,
            start,
            total_nodes: model.nodes().len(),
            wprobe,
            mismatches: 0,
            failed: false,
            tally: FaultTally::default(),
        }
    }

    /// Records image `idx`'s top-1 (`None` for degenerate logits, which
    /// make the fault an execution failure); returns whether further
    /// images must be evaluated.
    fn predicted(&mut self, idx: usize, pred: Option<usize>) -> bool {
        self.tally.inferences += 1;
        let Some(pred) = pred else {
            self.failed = true;
            return false;
        };
        if pred != self.golden.prediction(idx) {
            self.mismatches += 1;
            return !(self.early_exit && self.mismatches >= self.needed_for_critical);
        }
        true
    }

    /// Records an image whose pass converged at `at_node`: its prediction
    /// provably equals the golden one.
    fn converged(&mut self, at_node: NodeId) {
        self.tally.inferences += 1;
        self.tally.converged = 1;
        let skipped = (self.total_nodes - 1 - at_node) as u64;
        self.tally.nodes_skipped += skipped;
        self.wprobe.record_convergence(at_node + 1 - self.start, skipped);
    }

    /// Records image `idx`'s forward outcome.
    fn outcome(&mut self, idx: usize, out: ForwardOutcome) {
        match out {
            ForwardOutcome::Logits(l) => {
                self.predicted(idx, l.argmax());
            }
            ForwardOutcome::Converged { at_node } => self.converged(at_node),
        }
    }

    /// Records a suffix pass over images `first..` (see [`SuffixOutcome`])
    /// in ascending image order; returns whether further images must be
    /// evaluated.
    fn replay(&mut self, first: usize, out: &SuffixOutcome) -> bool {
        let mut rows = out.logits.chunks_exact(out.classes.max(1));
        for (i, converged_at) in out.converged_at.iter().enumerate() {
            match *converged_at {
                Some(at_node) => self.converged(at_node),
                None => {
                    if !self.predicted(first + i, rows.next().and_then(row_argmax)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Adds one delta pass's work counters.
    fn delta(&mut self, stats: DeltaStats) {
        self.tally.delta_sparse_nodes += stats.sparse_nodes;
        self.tally.delta_fallbacks += stats.dense_nodes;
        self.tally.delta_dirty_blocks += stats.dirty_blocks;
        let rows = (stats.conv_rows, stats.conv_rows_full);
        self.wprobe.record_delta(stats.sparse_nodes, stats.dense_nodes, stats.dirty_blocks, rows);
    }

    fn finish(self) -> FaultOutcome {
        let class = if self.failed {
            FaultClass::ExecutionFailure
        } else if self.mismatches >= self.needed_for_critical {
            FaultClass::Critical
        } else {
            FaultClass::NonCritical
        };
        FaultOutcome { class, tally: self.tally }
    }
}

/// Forward options of a per-image pass under the campaign's kernel policy:
/// the worker's arena on the fast path, fresh allocations on the naive one.
fn pass_options<'a>(cfg: &CampaignConfig, arena: &'a mut ScratchArena) -> ForwardOptions<'a> {
    let fast = cfg.kernel == KernelPolicy::Fast;
    ForwardOptions { policy: cfg.kernel, arena: fast.then_some(arena), ..Default::default() }
}

/// Injects one fault, classifies it against the golden reference, and
/// reverts, returning the class and the number of inferences spent.
///
/// Under [`KernelPolicy::Fast`] with incremental re-execution the fault
/// runs on the compiled plan's suffix pass ([`classify_weight_suffix`]).
/// [`KernelPolicy::Naive`] re-executes each image's suffix unfused and
/// without early exit, and a non-incremental campaign runs full forward
/// passes: the historical per-fault costs. Classifications are
/// bit-identical on every path.
///
/// Degenerate (empty) logits classify the fault as
/// [`FaultClass::ExecutionFailure`] rather than panicking, so campaigns
/// over pathological models stay total.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classify_one<C: Corruption>(
    model: &mut Model,
    data: &Dataset,
    golden: &GoldenReference,
    fault: &Fault,
    needed_for_critical: usize,
    cfg: &CampaignConfig,
    corruption: &C,
    session: &mut SessionState,
    wprobe: WorkerProbe<'_>,
) -> Result<FaultOutcome, FaultSimError> {
    let injection = inject_with(model, fault, |f, original| corruption.corrupt(f, original))?;
    if !injection.is_effective() {
        // Nothing changed; revert anyway to keep the invariant simple.
        revert(model, &injection);
        return Ok(FaultOutcome::masked());
    }
    let res = if cfg.incremental && cfg.kernel == KernelPolicy::Fast {
        classify_weight_suffix(model, golden, &injection, needed_for_critical, cfg, session, wprobe)
    } else {
        let dirty = injection.dirty_node;
        let arena = &mut session.arena;
        classify_reference(model, data, golden, dirty, needed_for_critical, cfg, arena, wprobe)
    };
    revert(model, &injection);
    res
}

/// The reference per-image loop of [`classify_one`]: each image's suffix
/// from `dirty` re-executed node by node ([`Model::forward_suffix`]), or
/// its full forward pass without incremental re-execution.
#[allow(clippy::too_many_arguments)]
fn classify_reference(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    dirty: NodeId,
    needed_for_critical: usize,
    cfg: &CampaignConfig,
    arena: &mut ScratchArena,
    wprobe: WorkerProbe<'_>,
) -> Result<FaultOutcome, FaultSimError> {
    let mut verdict = Verdict::new(model, golden, needed_for_critical, cfg, dirty, wprobe);
    verdict.tally.engine_dense = 1;
    for idx in 0..data.len() {
        let timer = wprobe.inference_start();
        let opts = &mut pass_options(cfg, arena);
        let logits = if cfg.incremental {
            model.forward_suffix(Some(dirty), golden.cache(idx), &[], opts)?
        } else {
            model.forward_with(data.image(idx), opts)?
        };
        wprobe.inference_end(timer);
        if !verdict.predicted(idx, logits.argmax()) {
            break;
        }
    }
    Ok(verdict.finish())
}

/// Classifies one injected weight fault on the compiled plan's suffix
/// pass ([`CompiledPlan::weight_suffix`](sfi_nn::CompiledPlan::weight_suffix)),
/// in chunks of images: all E images in one pass when the plan's static
/// cost rule picks that width
/// ([`batched_profitable`](sfi_nn::CompiledPlan::batched_profitable)) and
/// the golden reference holds the stacked cache, one image at a time
/// otherwise. Each chunk's outcome replays the per-image [`Verdict`] in
/// ascending image order, and every image's convergence node and logits
/// row are the same at both widths, so classifications, early-exit
/// behaviour and inference counts cannot depend on the width, at any
/// worker count.
///
/// With [`CampaignConfig::convergence`] each image's suffix stops at the
/// first step whose recomputed activation is bit-identical to the golden
/// one with nothing dirty left to read: the image's prediction then
/// provably equals the golden prediction, so no mismatch is counted. The
/// classification is unchanged — an effective-but-harmless fault stays
/// [`FaultClass::NonCritical`] — only the suffix cost drops.
///
/// The caller injects before and reverts after; this function only
/// evaluates. The first dirty conv skips its lowering: a one-image pass
/// reads the golden reference's lowering cache, and an E-wide pass the
/// panel built lazily in the worker's [`SessionState`] single-slot cache,
/// shared by every same-node fault the depth-sorted stratum queue hands
/// this worker. Both are sound because they lower the *golden* input
/// activation (weight values never enter it), which is identical for every
/// fault at the node.
fn classify_weight_suffix(
    model: &Model,
    golden: &GoldenReference,
    injection: &Injection,
    needed_for_critical: usize,
    cfg: &CampaignConfig,
    session: &mut SessionState,
    wprobe: WorkerProbe<'_>,
) -> Result<FaultOutcome, FaultSimError> {
    let plan = golden.plan();
    let dirty = injection.dirty_node;
    // The one output unit (conv out-channel / fc out-feature) the fault
    // can reach: arms the single-unit convergence probe, which decides
    // whole-node convergence from one GEMM row instead of re-running the
    // faulted layer in full.
    let dirty_unit = cfg
        .convergence
        .then(|| model.param_output_unit(injection.param, injection.index))
        .flatten();
    let stacked = golden.batched_cache().filter(|_| cfg.batched && plan.batched_profitable(dirty));
    let images = golden.len();
    let width = if stacked.is_some() { images } else { 1 };
    let mut verdict = Verdict::new(model, golden, needed_for_critical, cfg, dirty.max(1), wprobe);
    verdict.tally.engine_batched = u64::from(stacked.is_some());
    verdict.tally.engine_dense = u64::from(stacked.is_none());
    for first in (0..images).step_by(width) {
        let timer = wprobe.inference_start();
        let (outcome, arena) = match stacked {
            Some(bcache) => {
                if session.ensure_panel(model, plan, bcache, dirty)? {
                    golden.record_panel_hit();
                } else {
                    golden.record_panel_miss();
                }
                let (arena, lowered) = session.arena_and_panel(dirty);
                let out = plan.weight_suffix(
                    model,
                    dirty,
                    bcache,
                    lowered,
                    dirty_unit,
                    cfg.convergence,
                    arena,
                )?;
                (out, arena)
            }
            None => {
                // Only convs the cache can hold are looked up; in-place
                // convs multiply the golden input directly.
                let lowered = plan.lowers_per_image(dirty).then(|| golden.lowering(dirty, first));
                let (cache, arena) = (golden.cache(first), &mut session.arena);
                let out = plan.weight_suffix(
                    model,
                    dirty,
                    cache,
                    lowered.flatten(),
                    dirty_unit,
                    cfg.convergence,
                    arena,
                )?;
                (out, arena)
            }
        };
        wprobe.inference_end(timer);
        let counted = verdict.tally.inferences;
        let more = verdict.replay(first, &outcome);
        arena.recycle(outcome.logits);
        // The probe's inference counter mirrors the logical per-image
        // count; the chunk's first image carried the whole pass's latency.
        for _ in counted + 1..verdict.tally.inferences {
            wprobe.inference_end(wprobe.inference_start());
        }
        if !more {
            break;
        }
    }
    Ok(verdict.finish())
}

/// Classifies any [`CampaignFault`] variant: the executor's per-fault
/// dispatch point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classify_any<C: Corruption>(
    model: &mut Model,
    data: &Dataset,
    golden: &GoldenReference,
    fault: &CampaignFault,
    needed_for_critical: usize,
    cfg: &CampaignConfig,
    corruption: &C,
    session: &mut SessionState,
    wprobe: WorkerProbe<'_>,
) -> Result<FaultOutcome, FaultSimError> {
    wprobe.record_fault_kind(fault.kind());
    match fault {
        CampaignFault::Weight(f) => classify_one(
            model,
            data,
            golden,
            f,
            needed_for_critical,
            cfg,
            corruption,
            session,
            wprobe,
        ),
        CampaignFault::Activation(f) => classify_activation(
            model,
            golden,
            f,
            needed_for_critical,
            cfg,
            &mut session.arena,
            wprobe,
        ),
        CampaignFault::Accumulated(f) => classify_accumulated(
            model,
            data,
            golden,
            f,
            needed_for_critical,
            cfg,
            corruption,
            &mut session.arena,
            wprobe,
        ),
    }
}

/// Checks that an activation fault's coordinates exist in the golden
/// reference, without touching the model.
pub(crate) fn validate_activation_site(
    golden: &GoldenReference,
    fault: &ActivationFault,
) -> Result<(), FaultSimError> {
    let site = fault.site;
    if site.image >= golden.len() {
        return Err(FaultSimError::InvalidFault {
            reason: format!("image {} outside evaluation set of {}", site.image, golden.len()),
        });
    }
    let cache = golden.cache(site.image);
    let Some(value) = cache.get(site.node) else {
        return Err(FaultSimError::InvalidFault {
            reason: format!("node {} outside graph of {} nodes", site.node, cache.len()),
        });
    };
    if site.element >= value.len() {
        return Err(FaultSimError::InvalidFault {
            reason: format!(
                "element {} out of range for node {} ({} elements)",
                site.element,
                site.node,
                value.len()
            ),
        });
    }
    if site.bit >= 32 {
        return Err(FaultSimError::InvalidFault {
            reason: format!("bit {} outside 0..32", site.bit),
        });
    }
    Ok(())
}

/// Classifies one transient activation/input fault.
///
/// The upset strikes exactly one image's inference, so only that image is
/// evaluated — every other image provably reproduces its golden prediction
/// — while the mismatch count is still compared against the criterion
/// cutoff for the full evaluation set. A fault whose bit operation leaves
/// the golden activation bits unchanged is [`FaultClass::Masked`] with zero
/// inferences, mirroring the weight path's effectiveness check.
///
/// With the delta engine active the single dirty site seeds a sparse cone
/// via [`Model::forward_delta_site`] (this is the workload the per-image
/// dirty-site machinery was built for); otherwise the dense
/// [`Model::forward_suffix`] path re-executes the suffix. The model is
/// never mutated.
fn classify_activation(
    model: &Model,
    golden: &GoldenReference,
    fault: &ActivationFault,
    needed_for_critical: usize,
    cfg: &CampaignConfig,
    arena: &mut ScratchArena,
    wprobe: WorkerProbe<'_>,
) -> Result<FaultOutcome, FaultSimError> {
    validate_activation_site(golden, fault)?;
    let site = fault.site;
    let cache = golden.cache(site.image);
    let golden_v = cache.get(site.node).expect("validated site").as_slice()[site.element];
    let faulty_bits = fault.model.apply(golden_v, site.bit).to_bits();
    if faulty_bits == golden_v.to_bits() {
        return Ok(FaultOutcome::masked());
    }
    // A transient's one-element cone stays sparse at any bit, so delta
    // takes every transient when enabled.
    let use_delta = cfg.delta && cfg.incremental && cfg.kernel == KernelPolicy::Fast;
    let mut verdict = Verdict::new(model, golden, needed_for_critical, cfg, site.node, wprobe);
    verdict.tally.engine_delta = u64::from(use_delta);
    verdict.tally.engine_dense = u64::from(!use_delta);
    let timer = wprobe.inference_start();
    let out = if use_delta {
        let mut dopts =
            DeltaOptions { arena: Some(&mut *arena), ..DeltaOptions::new(golden.plan()) };
        let (out, stats) =
            model.forward_delta_site(site.node, site.element, faulty_bits, cache, &mut dopts)?;
        verdict.delta(stats);
        out
    } else {
        let mut opts = ForwardOptions { plan: Some(golden.plan()), ..pass_options(cfg, arena) };
        ForwardOutcome::Logits(model.forward_suffix(None, cache, &[fault.patch()], &mut opts)?)
    };
    wprobe.inference_end(timer);
    verdict.outcome(site.image, out);
    Ok(verdict.finish())
}

/// Classifies one accumulated multi-fault instance: every weight component
/// is injected for the whole evaluation, and each image's forward pass
/// additionally applies the activation patches tied to that image.
///
/// The instance is [`FaultClass::Masked`] only when *no* component has any
/// effect: every weight injection is ineffective and every activation patch
/// is a no-op on the value it would strike. Images touched by neither a
/// weight fault nor an activation patch are provably golden and skipped.
/// Re-execution always runs the dense [`Model::forward_suffix`] path
/// (patches on multiple sites make the sparse cone immediately wide), which
/// starts from the shallowest effective component. It passes no golden
/// weight panels: the weight components may fault several layers, and
/// the pass only knows to re-pack the shallowest one.
#[allow(clippy::too_many_arguments)]
fn classify_accumulated<C: Corruption>(
    model: &mut Model,
    data: &Dataset,
    golden: &GoldenReference,
    fault: &AccumulatedFault,
    needed_for_critical: usize,
    cfg: &CampaignConfig,
    corruption: &C,
    arena: &mut ScratchArena,
    wprobe: WorkerProbe<'_>,
) -> Result<FaultOutcome, FaultSimError> {
    // Validate every transient component before mutating the model, so
    // error paths never leave a half-injected store behind.
    for af in &fault.activations {
        validate_activation_site(golden, af)?;
    }
    let mut injections: Vec<Injection> = Vec::with_capacity(fault.weights.len());
    for wf in &fault.weights {
        match inject_with(model, wf, |f, original| corruption.corrupt(f, original)) {
            Ok(inj) => injections.push(inj),
            Err(e) => {
                for inj in injections.iter().rev() {
                    revert(model, inj);
                }
                return Err(e);
            }
        }
    }
    // First node any effective weight component can change; `None` when all
    // weight components are masked.
    let weight_dirty = injections.iter().filter(|i| i.is_effective()).map(|i| i.dirty_node).min();
    let strikes = |af: &ActivationFault| {
        let v = golden.cache(af.site.image).get(af.site.node).expect("validated site").as_slice()
            [af.site.element];
        !af.patch().is_noop_on(v)
    };
    if weight_dirty.is_none() && !fault.activations.iter().any(strikes) {
        for inj in injections.iter().rev() {
            revert(model, inj);
        }
        return Ok(FaultOutcome::masked());
    }
    // These passes run without the convergence switch, so the verdict's
    // convergence start is never read.
    let mut verdict = Verdict::new(model, golden, needed_for_critical, cfg, 0, wprobe);
    verdict.tally.engine_dense = 1;
    let mut outcome: Result<(), FaultSimError> = Ok(());
    for idx in 0..data.len() {
        let patches: Vec<ActPatch> = fault
            .activations
            .iter()
            .filter(|af| af.site.image == idx)
            .map(ActivationFault::patch)
            .collect();
        if weight_dirty.is_none() && patches.is_empty() {
            // No component touches this image's inference.
            continue;
        }
        let timer = wprobe.inference_start();
        let logits = match model.forward_suffix(
            weight_dirty,
            golden.cache(idx),
            &patches,
            &mut pass_options(cfg, arena),
        ) {
            Ok(logits) => logits,
            Err(e) => {
                outcome = Err(e.into());
                break;
            }
        };
        wprobe.inference_end(timer);
        if !verdict.predicted(idx, logits.argmax()) {
            break;
        }
    }
    for inj in injections.iter().rev() {
        revert(model, inj);
    }
    outcome?;
    Ok(verdict.finish())
}

/// Pool worker: drain tasks until the session's senders are dropped, steal
/// faults within each task until its cursor runs out. A panic while
/// classifying retires the worker — its model clone may hold an unreverted
/// fault — after reporting the poisoned fault to the collector. Each worker
/// owns a scratch arena for the session and publishes its high-water mark
/// to the shared stats before every report.
#[allow(clippy::too_many_arguments)]
fn worker_loop<C: Corruption>(
    worker_id: usize,
    mut model: Model,
    data: &Dataset,
    golden: &GoldenReference,
    cfg: &CampaignConfig,
    corruption: &C,
    tasks: Receiver<Task>,
    stats: Arc<SessionStats>,
    probe: &Probe,
) {
    let mut session = SessionState::with_shared_peak(Arc::clone(&stats.arena_peak));
    let wprobe = probe.worker(worker_id);
    let mut arena_seen = session.arena.stats();
    while let Ok(task) = tasks.recv() {
        while let Some(idx) = task.batch.claim() {
            let fault = &task.batch.faults[idx];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                classify_any(
                    &mut model,
                    data,
                    golden,
                    fault,
                    task.needed_for_critical,
                    cfg,
                    corruption,
                    &mut session,
                    wprobe,
                )
            }));
            session.publish_peak();
            match outcome {
                Ok(item) => {
                    if task.results.send(WorkerReport::Classified(idx, item)).is_err() {
                        // Collector bailed out; nothing left to report.
                        break;
                    }
                }
                Err(_) => {
                    let arena_now = session.arena.stats();
                    wprobe.record_arena(
                        arena_now.takes - arena_seen.takes,
                        arena_now.reuses - arena_seen.reuses,
                    );
                    let _ =
                        task.results.send(WorkerReport::Panicked { fault: idx, worker: worker_id });
                    // The model clone is suspect; retire this worker.
                    return;
                }
            }
        }
        let arena_now = session.arena.stats();
        wprobe
            .record_arena(arena_now.takes - arena_seen.takes, arena_now.reuses - arena_seen.reuses);
        arena_seen = arena_now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, run_campaign_static, Ieee754Corruption};
    use crate::fault::{FaultModel, FaultSite};
    use sfi_dataset::SynthCifarConfig;
    use sfi_nn::resnet::ResNetConfig;

    fn generic(faults: &[Fault]) -> Vec<CampaignFault> {
        faults.iter().map(|&f| f.into()).collect()
    }

    /// An untraced IEEE-754 executor session.
    fn session<R>(
        model: &Model,
        data: &Dataset,
        golden: &GoldenReference,
        cfg: &CampaignConfig,
        f: impl FnOnce(&mut CampaignExecutor<'_, Ieee754Corruption>) -> Result<R, FaultSimError>,
    ) -> Result<R, FaultSimError> {
        with_executor(model, data, golden, cfg, &Ieee754Corruption, Probe::disabled(), f)
    }

    fn setup() -> (Model, Dataset, GoldenReference) {
        let model = ResNetConfig::resnet20_micro().build_seeded(4).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        (model, data, golden)
    }

    fn mixed_faults(model: &Model, n: usize) -> Vec<Fault> {
        let space = crate::population::FaultSpace::stuck_at(model);
        (0..n)
            .map(|w| {
                let layer = w % 3;
                let count = space.layer_weight_count(layer).unwrap() as usize;
                Fault {
                    site: FaultSite { layer, weight: w * 7 % count, bit: (w % 31) as u8 },
                    model: if w % 2 == 0 { FaultModel::StuckAt1 } else { FaultModel::StuckAt0 },
                }
            })
            .collect()
    }

    /// Corruption that panics when asked to corrupt a designated site —
    /// the test stand-in for a fault whose evaluation crashes the worker.
    struct PanickingCorruption {
        poison: FaultSite,
    }

    impl Corruption for PanickingCorruption {
        fn corrupt(&self, fault: &Fault, original: f32) -> f32 {
            assert!(fault.site != self.poison, "poisoned fault");
            fault.apply_to(original)
        }
    }

    #[test]
    fn pool_matches_inline_bit_for_bit() {
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 40);
        let mut results = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            let res = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap();
            results.push(res);
        }
        for r in &results[1..] {
            assert_eq!(r.classes, results[0].classes);
            assert_eq!(r.inferences, results[0].inferences);
        }
    }

    #[test]
    fn session_pool_survives_multiple_campaigns() {
        let (model, data, golden) = setup();
        let cfg = CampaignConfig { workers: 3, ..CampaignConfig::default() };
        let all = mixed_faults(&model, 30);
        let (joint, split) = session(&model, &data, &golden, &cfg, |exec| {
            assert_eq!(exec.workers(), 3);
            let joint = exec.run(&all)?;
            let first = exec.run(&all[..15])?;
            let second = exec.run(&all[15..])?;
            Ok((joint, (first, second)))
        })
        .unwrap();
        let mut stitched = split.0.classes.clone();
        stitched.extend(split.1.classes.clone());
        assert_eq!(joint.classes, stitched, "pool state must not leak across campaigns");
    }

    #[test]
    fn executor_agrees_with_run_campaign() {
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 24);
        let cfg = CampaignConfig { workers: 4, ..CampaignConfig::default() };
        let via_campaign = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
        let direct = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap();
        assert_eq!(via_campaign.classes, direct.classes);
    }

    #[test]
    fn progress_is_monotone_and_complete() {
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 20);
        for workers in [1usize, 4] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            let mut seen = Vec::new();
            session(&model, &data, &golden, &cfg, |exec| {
                exec.run_with(&generic(&faults), &mut |p| seen.push(p), &mut |_, _, _| {}, None)
            })
            .unwrap();
            assert_eq!(seen.len(), faults.len(), "one event per fault ({workers} workers)");
            for pair in seen.windows(2) {
                assert!(pair[1].completed == pair[0].completed + 1, "monotone completed");
                assert!(pair[1].inferences >= pair[0].inferences, "monotone inferences");
            }
            let last = seen.last().unwrap();
            assert_eq!(last.completed, faults.len() as u64);
            assert_eq!(last.total, faults.len() as u64);
        }
    }

    #[test]
    fn telemetry_tallies_are_consistent() {
        let (model, data, golden) = setup();
        // Bit 30 stuck-at-1 on He-init weights: never masked, mostly
        // critical; stuck-at-0 on the same bit: always masked.
        let mut faults: Vec<Fault> = (0..10)
            .map(|w| Fault {
                site: FaultSite { layer: 0, weight: w, bit: 30 },
                model: FaultModel::StuckAt1,
            })
            .collect();
        faults.extend((0..5).map(|w| Fault {
            site: FaultSite { layer: 0, weight: w, bit: 30 },
            model: FaultModel::StuckAt0,
        }));
        let cfg = CampaignConfig::default();
        let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
        let t = CampaignTelemetry::from_result(&res);
        assert_eq!(t.injections, 15);
        assert_eq!(t.masked, 5);
        assert_eq!(t.exec_failures, 0);
        assert_eq!(t.critical + t.non_critical + t.masked + t.exec_failures, t.injections);
        assert_eq!(t.inferences, res.inferences);
        assert!(t.wall > Duration::ZERO);
        assert!(t.inferences_per_second() > 0.0);
    }

    #[test]
    fn masked_only_campaign_reports_zero_inference_rate() {
        let (model, data, golden) = setup();
        let faults: Vec<Fault> = (0..5)
            .map(|w| Fault {
                site: FaultSite { layer: 0, weight: w, bit: 30 },
                model: FaultModel::StuckAt0,
            })
            .collect();
        let res =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        let t = CampaignTelemetry::from_result(&res);
        assert_eq!(t.inferences, 0);
        assert_eq!(t.masked, 5);
        assert_eq!(t.inferences_per_second(), 0.0);
    }

    #[test]
    fn pool_propagates_first_error_by_fault_order() {
        let (model, data, golden) = setup();
        let mut faults = mixed_faults(&model, 10);
        faults[3] =
            Fault { site: FaultSite { layer: 99, weight: 0, bit: 0 }, model: FaultModel::StuckAt1 };
        faults[7] =
            Fault { site: FaultSite { layer: 98, weight: 0, bit: 0 }, model: FaultModel::StuckAt1 };
        for workers in [1usize, 4] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            let err = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap_err();
            match err {
                FaultSimError::InvalidFault { reason } => {
                    assert!(reason.contains("99"), "{workers} workers: {reason}")
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn empty_fault_list_is_fine() {
        let (model, data, golden) = setup();
        let cfg = CampaignConfig { workers: 4, ..CampaignConfig::default() };
        let res = session(&model, &data, &golden, &cfg, |exec| exec.run::<Fault>(&[])).unwrap();
        assert_eq!(res.injections, 0);
        assert!(res.classes.is_empty());
    }

    #[test]
    fn rejects_empty_dataset() {
        let (model, data, golden) = setup();
        let empty = data.truncated(0);
        let out = with_executor(
            &model,
            &empty,
            &golden,
            &CampaignConfig::default(),
            &Ieee754Corruption,
            Probe::disabled(),
            |exec| exec.run::<Fault>(&[]),
        );
        assert!(matches!(out, Err(FaultSimError::EmptyEvalSet)));
    }

    /// Runs `faults` against a golden reference built for `golden_images`
    /// of the four setup images while the dataset holds `data_images` of
    /// them, through the pooled executor (inline and 2 workers, per-image
    /// and batched engines) and the static-shard runner: each must refuse
    /// the mismatched pair up front.
    fn assert_eval_set_mismatch_rejected(golden_images: usize, data_images: usize) {
        let (model, data, _) = setup();
        let golden = GoldenReference::build(&model, &data.truncated(golden_images)).unwrap();
        let data = data.truncated(data_images);
        let faults = mixed_faults(&model, 6);
        let expected = FaultSimError::EvalSetMismatch { golden: golden_images, data: data_images };
        for workers in [1, 2] {
            for batched in [false, true] {
                let cfg = CampaignConfig { workers, batched, ..CampaignConfig::default() };
                let pooled = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults));
                assert_eq!(pooled.err(), Some(expected.clone()), "workers {workers}");
                let sharded =
                    run_campaign_static(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption);
                assert_eq!(sharded.err(), Some(expected.clone()), "static, workers {workers}");
            }
        }
    }

    #[test]
    fn rejects_golden_built_for_fewer_images() {
        assert_eval_set_mismatch_rejected(2, 4);
    }

    #[test]
    fn rejects_golden_built_for_more_images() {
        assert_eval_set_mismatch_rejected(4, 2);
    }

    /// A golden reference built from one model's weights is rejected when
    /// the campaign runs on another's: its predictions, caches and golden
    /// weight panels belong to the other weights.
    #[test]
    fn rejects_golden_built_from_other_weights() {
        let model = ResNetConfig::resnet20_micro().build_seeded(2).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
        let other = ResNetConfig::resnet20_micro().build_seeded(1).unwrap();
        let golden = GoldenReference::build(&other, &data).unwrap();
        let faults = mixed_faults(&model, 6);
        let expected = FaultSimError::ModelMismatch {
            golden: other.store().digest(),
            model: model.store().digest(),
        };
        for workers in [1, 2] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            let pooled = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults));
            assert_eq!(pooled.err(), Some(expected.clone()), "workers {workers}");
            let sharded =
                run_campaign_static(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption);
            assert_eq!(sharded.err(), Some(expected.clone()), "static, workers {workers}");
        }
        // The model the reference was built from still runs.
        let cfg = CampaignConfig { workers: 2, ..CampaignConfig::default() };
        assert!(session(&other, &data, &golden, &cfg, |exec| exec.run(&faults)).is_ok());
    }

    #[test]
    fn pool_isolates_a_panicking_fault() {
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 24);
        let poison = faults[9].site;
        let corruption = PanickingCorruption { poison };
        let clean =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        let cfg = CampaignConfig { workers: 4, max_fault_retries: 1, ..CampaignConfig::default() };
        let (res, survivors) =
            with_executor(&model, &data, &golden, &cfg, &corruption, Probe::disabled(), |exec| {
                let res = exec.run(&faults)?;
                Ok((res, exec.workers()))
            })
            .unwrap();
        assert_eq!(res.classes[9], FaultClass::ExecutionFailure);
        for (i, (got, want)) in res.classes.iter().zip(&clean.classes).enumerate() {
            if i != 9 {
                assert_eq!(got, want, "fault {i} must classify as in the clean run");
            }
        }
        let t = CampaignTelemetry::from_result(&res);
        assert_eq!(t.exec_failures, 1);
        // Initial attempt + one retry each killed a worker.
        assert_eq!(survivors, 2);
    }

    #[test]
    fn inline_recovers_from_a_panicking_fault() {
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 12);
        let poison = faults[4].site;
        let corruption = PanickingCorruption { poison };
        let clean =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        let cfg = CampaignConfig { workers: 1, ..CampaignConfig::default() };
        let res =
            with_executor(&model, &data, &golden, &cfg, &corruption, Probe::disabled(), |exec| {
                exec.run(&faults)
            })
            .unwrap();
        assert_eq!(res.classes[4], FaultClass::ExecutionFailure);
        for (i, (got, want)) in res.classes.iter().zip(&clean.classes).enumerate() {
            if i != 4 {
                assert_eq!(got, want, "fault {i} unaffected by the panic");
            }
        }
    }

    #[test]
    fn pool_survives_session_after_panics() {
        // A campaign with a poisoned fault degrades the pool; the *next*
        // campaign on the same session still completes correctly.
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 16);
        let poison = faults[0].site;
        let corruption = PanickingCorruption { poison };
        let cfg = CampaignConfig { workers: 3, max_fault_retries: 1, ..CampaignConfig::default() };
        let clean_tail =
            run_campaign(&model, &data, &golden, &faults[1..], &CampaignConfig::default()).unwrap();
        with_executor(&model, &data, &golden, &cfg, &corruption, Probe::disabled(), |exec| {
            let first = exec.run(&faults)?;
            assert_eq!(first.classes[0], FaultClass::ExecutionFailure);
            assert_eq!(exec.workers(), 1, "two workers retired by the poisoned fault");
            let second = exec.run(&faults[1..])?;
            assert_eq!(second.classes, clean_tail.classes);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn cancellation_stops_at_fault_boundary_and_reports_partials() {
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 30);
        let full =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        for workers in [1usize, 4] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            let token = CancelToken::new();
            let mut seen: Vec<(usize, FaultClass, u64)> = Vec::new();
            let stop_after = 5u64;
            let out = session(&model, &data, &golden, &cfg, |exec| {
                let t = token.clone();
                exec.run_with(
                    &generic(&faults),
                    &mut move |p| {
                        if p.completed >= stop_after {
                            t.cancel();
                        }
                    },
                    &mut |idx, class, cost| seen.push((idx, class, cost)),
                    Some(&token),
                )
            });
            match out {
                Err(FaultSimError::Cancelled { completed }) => {
                    assert!(completed >= stop_after, "{workers} workers: {completed}");
                    if workers == 1 {
                        // Inline mode stops at the very next fault boundary.
                        assert_eq!(completed, stop_after);
                    }
                    assert_eq!(seen.len() as u64, completed, "one sink event per fault");
                    // Partials agree with the uninterrupted run, index by index.
                    for (idx, class, _) in &seen {
                        assert_eq!(*class, full.classes[*idx], "fault {idx}");
                    }
                }
                // Cancellation is best-effort: a fast pool may have every
                // fault in flight before the token is observed, in which
                // case the completed campaign is returned whole.
                Ok(res) => {
                    assert!(workers > 1, "inline cancellation is deterministic");
                    assert_eq!(res.classes, full.classes);
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
    }

    fn cutoff(threshold: f64, images: usize) -> usize {
        let cfg = CampaignConfig {
            criterion: Criterion::MismatchRate { threshold },
            ..CampaignConfig::default()
        };
        needed_for_critical(&cfg, images)
    }

    #[test]
    fn critical_cutoff_is_exact_at_decimal_boundaries() {
        // threshold 0.0: any mismatch exceeds it.
        for images in 1..=12 {
            assert_eq!(cutoff(0.0, images), 1, "threshold 0.0, {images} images");
        }
        // threshold 0.3: strictly more than 30% of predictions must flip.
        // 0.3 * 10 = 3 exactly, so 4 mismatches are needed — even though
        // 0.3_f64 * 10.0 lands just above 3.0 in floating point.
        assert_eq!(cutoff(0.3, 10), 4);
        assert_eq!(cutoff(0.3, 3), 1); // floor(0.9) = 0
        assert_eq!(cutoff(0.3, 4), 2); // floor(1.2) = 1
        assert_eq!(cutoff(0.3, 20), 7);
        // threshold 0.5: strict majority.
        assert_eq!(cutoff(0.5, 1), 1);
        assert_eq!(cutoff(0.5, 2), 2);
        assert_eq!(cutoff(0.5, 4), 3);
        assert_eq!(cutoff(0.5, 10), 6);
        // threshold 1.0: no fault can exceed a 100% mismatch rate; the
        // cutoff caps at the image count (a fully-mismatching fault still
        // counts as critical by the >= comparison in classify_one).
        for images in 1..=12 {
            assert_eq!(cutoff(1.0, images), images, "threshold 1.0, {images} images");
        }
    }

    #[test]
    fn critical_cutoff_is_robust_to_float_representation() {
        // 0.29 is not exactly representable: 0.29_f64 * 100.0 is
        // 28.999999999999996, which the old floating-point floor turned
        // into a cutoff of 29. The decimal intent is floor(29) + 1 = 30.
        assert_eq!(cutoff(0.29, 100), 30);
        // The float product can also land just *above* the exact value
        // (0.07 * 100 = 7.000000000000001); re-quantising must not
        // overshoot there either.
        assert_eq!(cutoff(0.07, 100), 8);
        // Sweep every 2-decimal threshold against exact integer math.
        for pct in 0..=100u32 {
            for images in 1..=25usize {
                let expected = ((pct as usize * images) / 100 + 1).min(images);
                assert_eq!(
                    cutoff(pct as f64 / 100.0, images),
                    expected,
                    "threshold {pct}%, {images} images"
                );
            }
        }
    }

    #[test]
    fn critical_cutoff_clamps_degenerate_thresholds() {
        assert_eq!(cutoff(-0.5, 10), 1, "negative thresholds behave like 0.0");
        assert_eq!(cutoff(1.5, 10), 10, "thresholds above 1.0 behave like 1.0");
        assert_eq!(cutoff(f64::INFINITY, 10), 10);
        assert_eq!(cutoff(f64::NAN, 10), 10, "NaN falls back to the strictest cutoff");
    }

    #[test]
    fn activation_faults_agree_across_paths_workers_and_the_legacy_runner() {
        let (model, data, golden) = setup();
        let space = crate::activation::ActivationSpace::build(&model, &data).unwrap();
        let indices: Vec<u64> =
            (0..space.total()).step_by((space.total() / 60).max(1) as usize).collect();
        let acts = space.faults_at(&indices).unwrap();
        let faults: Vec<CampaignFault> =
            acts.iter().map(|&f| CampaignFault::Activation(f)).collect();
        let mut reference: Option<CampaignResult> = None;
        for (workers, delta, convergence) in [
            (1usize, true, true),
            (4, true, true),
            (1, false, true),
            (1, false, false),
            (4, false, false),
        ] {
            let cfg = CampaignConfig { workers, delta, convergence, ..CampaignConfig::default() };
            let res = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap();
            assert_eq!(res.injections, faults.len() as u64);
            if let Some(r) = &reference {
                assert_eq!(
                    res.classes, r.classes,
                    "workers={workers} delta={delta} convergence={convergence}"
                );
                assert_eq!(res.inferences, r.inferences);
            } else {
                reference = Some(res);
            }
        }
        // The sequential legacy runner agrees on criticality (its critical
        // flag ⇔ class Critical under AnyMismatch).
        let legacy =
            crate::activation::run_activation_campaign(&model, &data, &golden, &acts).unwrap();
        let classes = &reference.unwrap().classes;
        for (i, crit) in legacy.critical.iter().enumerate() {
            assert_eq!(*crit, classes[i] == FaultClass::Critical, "fault {i}");
        }
    }

    #[test]
    fn input_faults_run_through_the_executor() {
        let (model, data, golden) = setup();
        let space = crate::activation::ActivationSpace::build_for(
            &model,
            &data,
            crate::multi::FaultTarget::Input,
        )
        .unwrap();
        let faults: Vec<CampaignFault> = space
            .faults_at(&(0..space.total()).step_by(997).collect::<Vec<_>>())
            .unwrap()
            .into_iter()
            .map(CampaignFault::Activation)
            .collect();
        let mut results = Vec::new();
        for workers in [1usize, 4] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            results.push(session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap());
        }
        assert_eq!(results[0].classes, results[1].classes);
        assert!(
            results[0].classes.iter().any(|c| !matches!(c, FaultClass::Masked)),
            "some input upsets must be effective"
        );
    }

    #[test]
    fn accumulated_masked_only_when_every_component_is_masked() {
        let (model, data, golden) = setup();
        // He-init weights have bit 30 clear, so stuck-at-0 there is masked.
        let masked_w =
            Fault { site: FaultSite { layer: 0, weight: 0, bit: 30 }, model: FaultModel::StuckAt0 };
        // A ReLU output is non-negative, so sign-bit stuck-at-0 is a no-op
        // wherever the activation is already positive — use a BitFlip for a
        // guaranteed-effective transient instead, and the masked weight for
        // the masked case.
        let space = crate::activation::ActivationSpace::build(&model, &data).unwrap();
        let (node, _) = space.node_sizes()[0];
        let eff_act = ActivationFault {
            site: crate::activation::ActivationSite { node, element: 0, bit: 30, image: 0 },
            model: FaultModel::BitFlip,
        };
        let golden_v = golden.cache(0).get(node).unwrap().as_slice()[0];
        let masked_act = ActivationFault {
            site: crate::activation::ActivationSite { node, element: 0, bit: 30, image: 0 },
            model: if golden_v.to_bits() & (1 << 30) == 0 {
                FaultModel::StuckAt0
            } else {
                FaultModel::StuckAt1
            },
        };
        let faults = vec![
            CampaignFault::Accumulated(AccumulatedFault {
                weights: vec![masked_w],
                activations: vec![masked_act],
            }),
            CampaignFault::Accumulated(AccumulatedFault {
                weights: vec![masked_w],
                activations: vec![eff_act],
            }),
        ];
        let cfg = CampaignConfig::default();
        let res = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap();
        assert_eq!(res.classes[0], FaultClass::Masked, "all components masked");
        assert_ne!(res.classes[1], FaultClass::Masked, "effective transient component");
        // Masked instance costs nothing; the effective one evaluates only
        // its struck image.
        assert_eq!(res.inferences, 1);
    }

    #[test]
    fn accumulated_weight_component_matches_single_weight_campaign() {
        let (model, data, golden) = setup();
        let weights: Vec<Fault> = (0..12)
            .map(|w| Fault {
                site: FaultSite { layer: 0, weight: w, bit: 30 },
                model: FaultModel::StuckAt1,
            })
            .collect();
        let singles = run_campaign(
            &model,
            &data,
            &golden,
            &weights,
            &CampaignConfig { early_exit: false, ..CampaignConfig::default() },
        )
        .unwrap();
        let acc: Vec<CampaignFault> = weights
            .iter()
            .map(|&w| {
                CampaignFault::Accumulated(AccumulatedFault {
                    weights: vec![w],
                    activations: vec![],
                })
            })
            .collect();
        let cfg = CampaignConfig { early_exit: false, ..CampaignConfig::default() };
        let res = session(&model, &data, &golden, &cfg, |exec| exec.run(&acc)).unwrap();
        assert_eq!(res.classes, singles.classes, "k=1 accumulation ≡ plain weight fault");
        assert_eq!(res.inferences, singles.inferences);
    }

    #[test]
    fn accumulated_multi_fault_is_deterministic_across_workers() {
        let (model, data, golden) = setup();
        let space = crate::activation::ActivationSpace::build(&model, &data).unwrap();
        let acts = space
            .faults_at(&(0..200).map(|i| i * 431 % space.total()).collect::<Vec<_>>())
            .unwrap();
        let faults: Vec<CampaignFault> = (0..24)
            .map(|i| {
                CampaignFault::Accumulated(AccumulatedFault {
                    weights: vec![Fault {
                        site: FaultSite {
                            layer: i % 3,
                            weight: i * 5 % 36,
                            bit: (20 + i % 12) as u8,
                        },
                        model: if i % 2 == 0 { FaultModel::StuckAt1 } else { FaultModel::BitFlip },
                    }],
                    activations: vec![acts[i * 3], acts[i * 3 + 1], acts[i * 3 + 2]],
                })
            })
            .collect();
        let mut results = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            results.push(session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap());
        }
        for r in &results[1..] {
            assert_eq!(r.classes, results[0].classes);
            assert_eq!(r.inferences, results[0].inferences);
        }
    }

    #[test]
    fn model_is_pristine_after_mixed_campaign() {
        let (model, data, golden) = setup();
        let store_before = model.store().clone();
        let space = crate::activation::ActivationSpace::build(&model, &data).unwrap();
        let acts = space.faults_at(&[3, 333]).unwrap();
        let faults = vec![
            CampaignFault::Weight(Fault {
                site: FaultSite { layer: 1, weight: 4, bit: 29 },
                model: FaultModel::StuckAt1,
            }),
            CampaignFault::Activation(acts[0]),
            CampaignFault::Accumulated(AccumulatedFault {
                weights: vec![Fault {
                    site: FaultSite { layer: 2, weight: 1, bit: 28 },
                    model: FaultModel::BitFlip,
                }],
                activations: vec![acts[1]],
            }),
        ];
        let cfg = CampaignConfig::default();
        let _ = session(&model, &data, &golden, &cfg, |exec| exec.run(&faults)).unwrap();
        assert_eq!(*model.store(), store_before, "every fault model must revert cleanly");
    }

    #[test]
    fn invalid_activation_sites_surface_as_invalid_fault() {
        let (model, data, golden) = setup();
        let bad = |site: crate::activation::ActivationSite| {
            CampaignFault::Activation(ActivationFault { site, model: FaultModel::BitFlip })
        };
        for fault in [
            bad(crate::activation::ActivationSite { node: 1, element: 0, bit: 0, image: 99 }),
            bad(crate::activation::ActivationSite { node: 9999, element: 0, bit: 0, image: 0 }),
            bad(crate::activation::ActivationSite {
                node: 1,
                element: usize::MAX,
                bit: 0,
                image: 0,
            }),
        ] {
            let cfg = CampaignConfig::default();
            let err = session(&model, &data, &golden, &cfg, |exec| {
                exec.run(std::slice::from_ref(&fault))
            })
            .unwrap_err();
            assert!(matches!(err, FaultSimError::InvalidFault { .. }), "{fault}: {err:?}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let (model, data, golden) = setup();
        let faults = mixed_faults(&model, 8);
        let token = CancelToken::new();
        token.cancel();
        for workers in [1usize, 3] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            let err = session(&model, &data, &golden, &cfg, |exec| {
                exec.run_with(&generic(&faults), &mut |_| {}, &mut |_, _, _| {}, Some(&token))
            })
            .unwrap_err();
            assert!(matches!(err, FaultSimError::Cancelled { .. }), "{workers} workers: {err:?}");
        }
    }
}
