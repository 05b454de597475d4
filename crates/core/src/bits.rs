//! Bit-level vulnerability analysis — the paper's motivating use case.
//!
//! §II-A argues that the whole point of stratifying by `(layer, bit)` is to
//! answer questions a network-wise sample cannot: *which bit position is
//! the most critical? how does criticality distribute across the layer ×
//! bit grid?* This module pools the per-stratum outcomes of a data-unaware
//! or data-aware campaign into exactly those answers.

use serde::{Deserialize, Serialize};

use sfi_stats::confidence::Confidence;
use sfi_stats::estimate::{stratified_estimate, StratifiedEstimate, StratumResult};

use crate::execute::SfiOutcome;

/// Pooled vulnerability of one bit position across every layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitVulnerability {
    /// Bit position (0 = stored LSB).
    pub bit: u8,
    /// Stratified estimate over all layers' strata of this bit.
    pub estimate: StratifiedEstimate,
}

/// Per-bit vulnerability pooled across layers, most critical first.
///
/// Only outcomes of bit-stratified schemes (data-unaware / data-aware)
/// carry the strata this needs; other schemes yield an empty ranking.
///
/// # Example
///
/// ```
/// use sfi_core::bits::bit_ranking;
/// use sfi_core::execute::Campaign;
/// use sfi_core::plan::plan_data_unaware;
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
/// let spec = SampleSpec { error_margin: 0.25, ..SampleSpec::paper_default() };
/// let plan = plan_data_unaware(&space, &spec);
/// let cfg = CampaignConfig::default();
/// let outcome = Campaign::new(&model, &data, &golden, &plan, 3, &cfg).run()?.into_outcome()?;
/// let ranking = bit_ranking(&outcome, Confidence::C99);
/// // The exponent MSB tops the ranking on IEEE-754 weights.
/// assert_eq!(ranking[0].bit, 30);
/// # Ok(())
/// # }
/// ```
pub fn bit_ranking(outcome: &SfiOutcome, confidence: Confidence) -> Vec<BitVulnerability> {
    let mut per_bit: std::collections::BTreeMap<u8, Vec<StratumResult>> = Default::default();
    for s in outcome.strata() {
        if let Some(bit) = s.stratum.bit {
            per_bit.entry(bit).or_default().push(s.result);
        }
    }
    let mut ranking: Vec<BitVulnerability> = per_bit
        .into_iter()
        .filter_map(|(bit, results)| {
            stratified_estimate(&results, confidence)
                .ok()
                .map(|estimate| BitVulnerability { bit, estimate })
        })
        .collect();
    ranking.sort_by(|a, b| {
        b.estimate
            .proportion
            .partial_cmp(&a.estimate.proportion)
            .expect("proportions are finite")
            .then(a.bit.cmp(&b.bit))
    });
    ranking
}

/// The layer × bit criticality matrix: `matrix[layer][bit]`, `None` where
/// the outcome holds no stratum (e.g. non-bit-stratified schemes).
///
/// Rows are indexed by layer (0..max layer present), columns by bit
/// (0..max bit present).
pub fn layer_bit_matrix(
    outcome: &SfiOutcome,
    confidence: Confidence,
) -> Vec<Vec<Option<StratifiedEstimate>>> {
    let mut max_layer = 0usize;
    let mut max_bit = 0usize;
    let mut found = false;
    for s in outcome.strata() {
        if let (Some(l), Some(b)) = (s.stratum.layer, s.stratum.bit) {
            max_layer = max_layer.max(l);
            max_bit = max_bit.max(b as usize);
            found = true;
        }
    }
    if !found {
        return Vec::new();
    }
    let mut matrix = vec![vec![None; max_bit + 1]; max_layer + 1];
    for s in outcome.strata() {
        if let (Some(l), Some(b)) = (s.stratum.layer, s.stratum.bit) {
            matrix[l][b as usize] = stratified_estimate(&[s.result], confidence).ok();
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::Campaign;
    use crate::plan::{plan_data_unaware, plan_layer_wise};
    use sfi_dataset::SynthCifarConfig;
    use sfi_faultsim::campaign::CampaignConfig;
    use sfi_faultsim::golden::GoldenReference;
    use sfi_faultsim::population::FaultSpace;
    use sfi_nn::resnet::ResNetConfig;
    use sfi_stats::sample_size::SampleSpec;

    fn outcome(bitwise: bool) -> SfiOutcome {
        let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
            .build_seeded(6)
            .unwrap();
        let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
        let plan =
            if bitwise { plan_data_unaware(&space, &spec) } else { plan_layer_wise(&space, &spec) };
        Campaign::new(&model, &data, &golden, &plan, 8, &CampaignConfig::default())
            .run()
            .unwrap()
            .into_outcome()
            .unwrap()
    }

    #[test]
    fn exponent_msb_tops_the_ranking() {
        let ranking = bit_ranking(&outcome(true), Confidence::C99);
        assert_eq!(ranking.len(), 32);
        assert_eq!(ranking[0].bit, 30, "bit 30 is the most critical");
        // Mantissa LSBs are harmless.
        let lsb = ranking.iter().find(|b| b.bit == 0).unwrap();
        assert_eq!(lsb.estimate.successes, 0);
        // Ranking is sorted by criticality.
        for pair in ranking.windows(2) {
            assert!(pair[0].estimate.proportion >= pair[1].estimate.proportion);
        }
    }

    #[test]
    fn non_bitwise_outcomes_yield_empty_analyses() {
        let o = outcome(false);
        assert!(bit_ranking(&o, Confidence::C99).is_empty());
        assert!(layer_bit_matrix(&o, Confidence::C99).is_empty());
    }

    #[test]
    fn matrix_covers_every_stratum() {
        let o = outcome(true);
        let m = layer_bit_matrix(&o, Confidence::C99);
        assert_eq!(m.len(), 8, "8 weight layers");
        assert!(m.iter().all(|row| row.len() == 32));
        let filled = m.iter().flatten().filter(|c| c.is_some()).count();
        assert_eq!(filled, 8 * 32);
    }
}
