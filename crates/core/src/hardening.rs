//! Selective hardening: turning per-layer criticality estimates into a
//! protection plan.
//!
//! The paper motivates its per-layer/per-bit granularity with exactly this
//! downstream decision (§I: weight memories are the dominant soft-error
//! contributor "in the case no additional mechanisms such as error
//! correction code are present"). Given the per-layer critical-fault rates
//! an SFI campaign estimates, this module answers: *which layers should an
//! ECC budget protect first, and what residual criticality remains?*
//!
//! The model is SEC-DED-style word protection: protecting a layer costs
//! `overhead_bits` per `word_bits` of weight storage and (under the
//! paper's single-fault assumption) eliminates that layer's critical
//! faults entirely. Expected avoided criticality per overhead bit is then
//! proportional to the layer's critical *rate*, so the optimal greedy
//! order is by rate, descending — made explicit here so the trade-off
//! curve can be read off layer by layer.

use serde::{Deserialize, Serialize};

use sfi_faultsim::population::FaultSpace;
use sfi_stats::confidence::Confidence;

use crate::execute::SfiOutcome;
use crate::SfiError;

/// ECC cost model and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HardeningConfig {
    /// Total extra storage available for check bits.
    pub budget_bits: u64,
    /// Word size the ECC protects (32 for one weight per word).
    pub word_bits: u64,
    /// Check bits per word (SEC-DED on 32-bit words: 7).
    pub overhead_bits: u64,
}

impl HardeningConfig {
    /// SEC-DED over 32-bit words with the given budget.
    pub fn secded32(budget_bits: u64) -> Self {
        Self { budget_bits, word_bits: 32, overhead_bits: 7 }
    }

    /// Cost in check bits of protecting `weights` 32-bit weights.
    pub fn layer_cost(&self, weights: u64) -> u64 {
        let words = (weights * 32).div_ceil(self.word_bits);
        words * self.overhead_bits
    }
}

/// One layer's entry in the protection ranking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerProtection {
    /// Weight layer index.
    pub layer: usize,
    /// Estimated critical-fault rate of the layer.
    pub critical_rate: f64,
    /// Fault population of the layer.
    pub population: u64,
    /// Check-bit cost of protecting the layer.
    pub cost_bits: u64,
    /// Whether the budget covers this layer.
    pub protected: bool,
}

/// A complete protection plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectionPlan {
    /// Layers in protection-priority order (critical rate, descending).
    pub ranking: Vec<LayerProtection>,
    /// Check bits spent.
    pub spent_bits: u64,
    /// Network critical rate before protection (population-weighted).
    pub baseline_rate: f64,
    /// Network critical rate after protecting the selected layers.
    pub residual_rate: f64,
}

impl ProtectionPlan {
    /// Layers the plan protects, in priority order.
    pub fn protected_layers(&self) -> Vec<usize> {
        self.ranking.iter().filter(|l| l.protected).map(|l| l.layer).collect()
    }

    /// Fraction of baseline criticality removed, in `[0, 1]`.
    pub fn criticality_removed(&self) -> f64 {
        if self.baseline_rate == 0.0 {
            0.0
        } else {
            1.0 - self.residual_rate / self.baseline_rate
        }
    }
}

/// Builds a protection plan from a campaign outcome.
///
/// Layers are ranked by estimated critical rate (descending; ties towards
/// the lower index) and protected greedily until the budget is exhausted —
/// skipping layers that no longer fit, so small-but-critical layers deep in
/// the ranking can still be covered.
///
/// # Errors
///
/// Returns [`SfiError::InvalidExperiment`] when the outcome provides no
/// per-layer estimate for some layer of the space.
///
/// # Example
///
/// ```
/// use sfi_core::execute::Campaign;
/// use sfi_core::hardening::{plan_protection, HardeningConfig};
/// use sfi_core::plan::plan_layer_wise;
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::campaign::CampaignConfig;
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_faultsim::population::FaultSpace;
/// use sfi_nn::resnet::ResNetConfig;
/// use sfi_stats::confidence::Confidence;
/// use sfi_stats::sample_size::SampleSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
///     .build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// let space = FaultSpace::stuck_at(&model);
/// let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
/// let plan = plan_layer_wise(&space, &spec);
/// let cfg = CampaignConfig::default();
/// let outcome = Campaign::new(&model, &data, &golden, &plan, 3, &cfg).run()?.into_outcome()?;
/// // Budget for roughly half the network's check bits.
/// let budget = HardeningConfig::secded32(model.store().total_weights() as u64 * 7 / 2);
/// let protection = plan_protection(&outcome, &space, &budget, Confidence::C99)?;
/// assert!(protection.residual_rate <= protection.baseline_rate);
/// # Ok(())
/// # }
/// ```
pub fn plan_protection(
    outcome: &SfiOutcome,
    space: &FaultSpace,
    cfg: &HardeningConfig,
    confidence: Confidence,
) -> Result<ProtectionPlan, SfiError> {
    let mut entries = Vec::with_capacity(space.layers());
    for layer in 0..space.layers() {
        let est = outcome.layer_estimate(layer, confidence).ok_or_else(|| {
            SfiError::InvalidExperiment {
                reason: format!("outcome has no estimate for layer {layer}"),
            }
        })?;
        let weights = space.layer_weight_count(layer)?;
        let population = space.layer_subpopulation(layer)?.size();
        entries.push(LayerProtection {
            layer,
            critical_rate: est.proportion,
            population,
            cost_bits: cfg.layer_cost(weights),
            protected: false,
        });
    }
    entries.sort_by(|a, b| {
        b.critical_rate
            .partial_cmp(&a.critical_rate)
            .expect("rates are finite")
            .then(a.layer.cmp(&b.layer))
    });
    let mut spent = 0u64;
    for e in &mut entries {
        if spent + e.cost_bits <= cfg.budget_bits {
            e.protected = true;
            spent += e.cost_bits;
        }
    }
    let total_pop: u64 = entries.iter().map(|e| e.population).sum();
    let weighted = |pred: fn(&LayerProtection) -> bool| -> f64 {
        entries
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.critical_rate * e.population as f64)
            .sum::<f64>()
            / total_pop.max(1) as f64
    };
    let baseline_rate = weighted(|_| true);
    let residual_rate = weighted(|e| !e.protected);
    Ok(ProtectionPlan { ranking: entries, spent_bits: spent, baseline_rate, residual_rate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::Campaign;
    use crate::plan::plan_layer_wise;
    use sfi_dataset::SynthCifarConfig;
    use sfi_faultsim::campaign::CampaignConfig;
    use sfi_faultsim::golden::GoldenReference;
    use sfi_nn::resnet::ResNetConfig;
    use sfi_stats::sample_size::SampleSpec;

    fn outcome_and_space() -> (SfiOutcome, FaultSpace, u64) {
        let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
            .build_seeded(3)
            .unwrap();
        let data = SynthCifarConfig::new().with_size(8).with_samples(3).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let spec = SampleSpec { error_margin: 0.08, ..SampleSpec::paper_default() };
        let plan = plan_layer_wise(&space, &spec);
        let outcome = Campaign::new(&model, &data, &golden, &plan, 3, &CampaignConfig::default())
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        (outcome, space, model.store().total_weights() as u64)
    }

    #[test]
    fn cost_model_secded() {
        let cfg = HardeningConfig::secded32(0);
        assert_eq!(cfg.layer_cost(100), 700);
        let wide = HardeningConfig { budget_bits: 0, word_bits: 64, overhead_bits: 8 };
        assert_eq!(wide.layer_cost(100), 50 * 8);
    }

    #[test]
    fn zero_budget_protects_nothing() {
        let (outcome, space, _) = outcome_and_space();
        let plan =
            plan_protection(&outcome, &space, &HardeningConfig::secded32(0), Confidence::C99)
                .unwrap();
        assert!(plan.protected_layers().is_empty());
        assert_eq!(plan.spent_bits, 0);
        assert!((plan.residual_rate - plan.baseline_rate).abs() < 1e-15);
        assert_eq!(plan.criticality_removed(), 0.0);
    }

    #[test]
    fn unlimited_budget_protects_everything() {
        let (outcome, space, weights) = outcome_and_space();
        let cfg = HardeningConfig::secded32(weights * 7);
        let plan = plan_protection(&outcome, &space, &cfg, Confidence::C99).unwrap();
        assert_eq!(plan.protected_layers().len(), space.layers());
        assert_eq!(plan.residual_rate, 0.0);
        assert!((plan.criticality_removed() - 1.0).abs() < 1e-12);
        assert_eq!(plan.spent_bits, weights * 7);
    }

    #[test]
    fn ranking_is_by_rate_and_budget_respected() {
        let (outcome, space, weights) = outcome_and_space();
        let cfg = HardeningConfig::secded32(weights * 7 / 3);
        let plan = plan_protection(&outcome, &space, &cfg, Confidence::C99).unwrap();
        for pair in plan.ranking.windows(2) {
            assert!(pair[0].critical_rate >= pair[1].critical_rate);
        }
        assert!(plan.spent_bits <= cfg.budget_bits);
        assert!(!plan.protected_layers().is_empty());
        assert!(plan.residual_rate < plan.baseline_rate);
    }

    #[test]
    fn partial_budget_monotonicity() {
        let (outcome, space, weights) = outcome_and_space();
        let mut prev_residual = f64::INFINITY;
        for frac in [0u64, 1, 2, 4, 7] {
            let cfg = HardeningConfig::secded32(weights * frac);
            let plan = plan_protection(&outcome, &space, &cfg, Confidence::C99).unwrap();
            assert!(
                plan.residual_rate <= prev_residual + 1e-15,
                "budget {frac}: residual must not increase"
            );
            prev_residual = plan.residual_rate;
        }
    }
}
