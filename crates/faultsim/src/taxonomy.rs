//! A finer-grained fault-outcome taxonomy than the paper's binary
//! Critical / Non-critical split.
//!
//! Reliability practice (e.g. FIDELITY, MICRO 2020 — the paper's ref.
//! \[14\]) distinguishes *how* a fault manifests:
//!
//! - **Masked** — the stored bits did not change (stuck-at matched the
//!   stored value); no effect is possible.
//! - **Benign** — the weight changed but every evaluated top-1 prediction
//!   matched the golden one and all logits stayed finite.
//! - **SDC** (silent data corruption) — at least one top-1 prediction
//!   changed while all logits stayed finite: the dangerous case, invisible
//!   to runtime checks.
//! - **DUE** (detectable uncorrectable error stand-in) — at least one
//!   evaluated inference produced non-finite logits; a NaN/Inf guard at
//!   the network output would flag it.
//!
//! The paper's *Critical* class is `SDC ∪ DUE`; [`DetailedClass::is_critical`]
//! makes that mapping explicit so detailed campaigns remain comparable with
//! the headline results.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use sfi_dataset::Dataset;
use sfi_nn::{ForwardOptions, Model};
use sfi_tensor::{ScratchArena, Tensor};

use crate::campaign::{Corruption, Ieee754Corruption};
use crate::fault::Fault;
use crate::golden::GoldenReference;
use crate::injector::{inject_with, revert};
use crate::FaultSimError;

/// Detailed classification of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetailedClass {
    /// Stored bits unchanged; no inference was run.
    Masked,
    /// Weight changed, predictions and finiteness intact.
    Benign,
    /// Silent data corruption: a top-1 change with finite logits.
    Sdc,
    /// Non-finite logits on at least one image (detectable at runtime).
    Due,
}

impl DetailedClass {
    /// Whether the class maps to the paper's *Critical* outcome.
    pub fn is_critical(&self) -> bool {
        matches!(self, DetailedClass::Sdc | DetailedClass::Due)
    }
}

impl std::fmt::Display for DetailedClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetailedClass::Masked => write!(f, "masked"),
            DetailedClass::Benign => write!(f, "benign"),
            DetailedClass::Sdc => write!(f, "SDC"),
            DetailedClass::Due => write!(f, "DUE"),
        }
    }
}

/// Outcome of a detailed campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedResult {
    /// Per-fault classification, aligned with the input order.
    pub classes: Vec<DetailedClass>,
    /// Single-image inferences executed.
    pub inferences: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

impl DetailedResult {
    /// Count of one class.
    pub fn count(&self, class: DetailedClass) -> u64 {
        self.classes.iter().filter(|&&c| c == class).count() as u64
    }

    /// Count of paper-critical faults (`SDC + DUE`).
    pub fn critical(&self) -> u64 {
        self.classes.iter().filter(|c| c.is_critical()).count() as u64
    }

    /// `(masked, benign, sdc, due)` counts.
    pub fn tally(&self) -> (u64, u64, u64, u64) {
        (
            self.count(DetailedClass::Masked),
            self.count(DetailedClass::Benign),
            self.count(DetailedClass::Sdc),
            self.count(DetailedClass::Due),
        )
    }
}

/// Runs a detailed campaign: every image of every effective fault is
/// evaluated (no early exit — SDC and DUE must be told apart on the whole
/// evaluation set) and classified per the module taxonomy.
///
/// # Errors
///
/// Returns [`FaultSimError::EmptyEvalSet`] for an empty dataset,
/// [`FaultSimError::EvalSetMismatch`] for a golden reference built for a
/// different number of images, or the first injection/inference failure.
///
/// # Example
///
/// ```
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::fault::{Fault, FaultModel, FaultSite};
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_faultsim::taxonomy::{run_campaign_detailed, DetailedClass};
/// use sfi_nn::resnet::ResNetConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// // A mantissa-LSB fault is at worst benign.
/// let fault = Fault {
///     site: FaultSite { layer: 0, weight: 0, bit: 0 },
///     model: FaultModel::BitFlip,
/// };
/// let result = run_campaign_detailed(&model, &data, &golden, &[fault], true)?;
/// assert!(matches!(result.classes[0], DetailedClass::Benign | DetailedClass::Masked));
/// # Ok(())
/// # }
/// ```
pub fn run_campaign_detailed(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    faults: &[Fault],
    incremental: bool,
) -> Result<DetailedResult, FaultSimError> {
    golden.check_session(model, data)?;
    let start = Instant::now();
    let mut worker = model.clone();
    let mut classes = Vec::with_capacity(faults.len());
    let mut inferences = 0u64;
    // One scratch arena for the whole campaign: every inference recycles
    // its intermediate tensors, so allocation traffic amortizes to zero
    // after the first image (mirrors the binary campaign's fast path).
    let mut arena = ScratchArena::new();
    for fault in faults {
        let injection =
            inject_with(&mut worker, fault, |f, original| Ieee754Corruption.corrupt(f, original))?;
        if !injection.is_effective() {
            classes.push(DetailedClass::Masked);
            revert(&mut worker, &injection);
            continue;
        }
        let mut any_mismatch = false;
        let mut any_nonfinite = false;
        for idx in 0..data.len() {
            let logits = if incremental {
                // The plan's suffix pass one image wide, without early exit
                // (the class reads the logits themselves); the first dirty
                // conv reads its precomputed golden im2col panels when the
                // golden reference carries them.
                let dirty = injection.dirty_node;
                let lowered = golden.lowering(dirty, idx);
                let out = golden.plan().weight_suffix(
                    &worker,
                    dirty,
                    golden.cache(idx),
                    lowered,
                    None,
                    false,
                    &mut arena,
                )?;
                Tensor::from_vec([1, out.classes], out.logits).expect("one logits row")
            } else {
                let mut opts = ForwardOptions { arena: Some(&mut arena), ..Default::default() };
                worker.forward_with(data.image(idx), &mut opts)?
            };
            inferences += 1;
            if logits.iter().any(|v| !v.is_finite()) {
                any_nonfinite = true;
            }
            if logits.argmax().expect("logits are nonempty") != golden.prediction(idx) {
                any_mismatch = true;
            }
        }
        classes.push(if any_nonfinite {
            DetailedClass::Due
        } else if any_mismatch {
            DetailedClass::Sdc
        } else {
            DetailedClass::Benign
        });
        revert(&mut worker, &injection);
    }
    Ok(DetailedResult { classes, inferences, elapsed: start.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::fault::{FaultModel, FaultSite};
    use sfi_dataset::SynthCifarConfig;
    use sfi_nn::resnet::ResNetConfig;

    fn setup() -> (Model, Dataset, GoldenReference) {
        let model = ResNetConfig::resnet20_micro().build_seeded(4).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(3).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        (model, data, golden)
    }

    fn faults(layer: usize, bit: u8, model_kind: FaultModel, n: usize) -> Vec<Fault> {
        (0..n)
            .map(|w| Fault { site: FaultSite { layer, weight: w, bit }, model: model_kind })
            .collect()
    }

    #[test]
    fn exponent_msb_stuck_at_one_is_mostly_due() {
        let (model, data, golden) = setup();
        // Stuck-at-1 on bit 30 multiplies small weights by ~2^128: the
        // faulty weight is huge, activations overflow, logits go non-finite.
        let fs = faults(0, 30, FaultModel::StuckAt1, 16);
        let res = run_campaign_detailed(&model, &data, &golden, &fs, true).unwrap();
        let (_, _, _, due) = res.tally();
        assert!(due >= 12, "expected mostly DUE, tally {:?}", res.tally());
    }

    #[test]
    fn mantissa_lsb_faults_are_benign_or_masked() {
        let (model, data, golden) = setup();
        let fs = faults(3, 0, FaultModel::BitFlip, 20);
        let res = run_campaign_detailed(&model, &data, &golden, &fs, true).unwrap();
        let (masked, benign, sdc, due) = res.tally();
        assert_eq!(sdc + due, 0, "tally {:?}", res.tally());
        assert_eq!(masked + benign, 20);
        assert_eq!(masked, 0, "bit-flips are never masked");
    }

    #[test]
    fn critical_agrees_with_binary_campaign() {
        let (model, data, golden) = setup();
        // Mid-exponent faults produce a mix of classes.
        let fs = faults(5, 28, FaultModel::BitFlip, 24);
        let detailed = run_campaign_detailed(&model, &data, &golden, &fs, true).unwrap();
        let binary = run_campaign(
            &model,
            &data,
            &golden,
            &fs,
            &CampaignConfig { early_exit: false, ..Default::default() },
        )
        .unwrap();
        assert_eq!(detailed.critical(), binary.critical(), "taxonomies must agree on Critical");
        for (d, b) in detailed.classes.iter().zip(&binary.classes) {
            assert_eq!(d.is_critical(), b.is_critical());
        }
    }

    #[test]
    fn masked_faults_run_no_inference() {
        let (model, data, golden) = setup();
        let fs = faults(0, 30, FaultModel::StuckAt0, 8); // bit 30 already 0
        let res = run_campaign_detailed(&model, &data, &golden, &fs, true).unwrap();
        assert_eq!(res.count(DetailedClass::Masked), 8);
        assert_eq!(res.inferences, 0);
    }

    #[test]
    fn incremental_matches_full_reexecution() {
        let (model, data, golden) = setup();
        let fs = faults(7, 29, FaultModel::BitFlip, 16);
        let a = run_campaign_detailed(&model, &data, &golden, &fs, true).unwrap();
        let b = run_campaign_detailed(&model, &data, &golden, &fs, false).unwrap();
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn rejects_empty_dataset() {
        let (model, data, golden) = setup();
        let empty = data.truncated(0);
        assert!(matches!(
            run_campaign_detailed(&model, &empty, &golden, &[], true),
            Err(FaultSimError::EmptyEvalSet)
        ));
    }

    #[test]
    fn display_names() {
        assert_eq!(DetailedClass::Sdc.to_string(), "SDC");
        assert_eq!(DetailedClass::Due.to_string(), "DUE");
        assert_eq!(DetailedClass::Masked.to_string(), "masked");
        assert_eq!(DetailedClass::Benign.to_string(), "benign");
    }
}
