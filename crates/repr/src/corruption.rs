//! Campaign glue: quantising a model and corrupting encoded weights.

use sfi_faultsim::campaign::Corruption;
use sfi_faultsim::fault::Fault;
use sfi_nn::{ParamKind, ParameterStore};

use crate::format::Format;

/// Snaps every fault-injectable weight of `store` onto `format`'s
/// representable grid (biases and batch-norm statistics stay `f32`, as
/// inference engines typically keep them in higher precision).
///
/// After quantisation, `encode ∘ decode` round-trips exactly, so a
/// [`FormatCorruption`] campaign manipulates precisely the bits the
/// deployed weight memory would hold.
///
/// # Example
///
/// ```
/// use sfi_nn::resnet::ResNetConfig;
/// use sfi_repr::{quantize_weights, Format};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let format = Format::fixed(8, 6)?;
/// quantize_weights(model.store_mut(), format);
/// let w = model.store().layer_weights(0)?[0];
/// assert_eq!(format.quantize(w), w, "weights sit on the grid");
/// # Ok(())
/// # }
/// ```
pub fn quantize_weights(store: &mut ParameterStore, format: Format) {
    for param in store.iter_mut() {
        if matches!(param.kind, ParamKind::Weight { .. }) {
            for v in param.tensor.as_mut_slice() {
                *v = format.quantize(*v);
            }
        }
    }
}

/// A [`Corruption`] model that applies faults to the *encoded*
/// reduced-precision weight: `decode(apply_bits(encode(w)))`.
///
/// Pass it to [`Campaign::corruption`](sfi_core::execute::Campaign::corruption)
/// together with a `FaultSpace::with_bits(format.bits())` space, or to
/// [`sfi_faultsim::executor::with_executor`] for a raw fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatCorruption {
    format: Format,
}

impl FormatCorruption {
    /// Creates a corruption model for `format`.
    pub fn new(format: Format) -> Self {
        Self { format }
    }

    /// The wrapped format.
    pub fn format(&self) -> Format {
        self.format
    }
}

impl Corruption for FormatCorruption {
    fn corrupt(&self, fault: &Fault, original: f32) -> f32 {
        let enc = self.format.encode(original);
        let mask = 1u32 << fault.site.bit;
        let bits = self.format.bits();
        let faulty_enc = match fault.model {
            sfi_faultsim::fault::FaultModel::StuckAt0 => enc & !mask,
            sfi_faultsim::fault::FaultModel::StuckAt1 => enc | mask,
            sfi_faultsim::fault::FaultModel::BitFlip => enc ^ mask,
            sfi_faultsim::fault::FaultModel::AdjacentFlip => {
                // Adjacency is bounded by the format's own MSB.
                let pair =
                    if u32::from(fault.site.bit) + 1 < bits { mask | (mask << 1) } else { mask };
                enc ^ pair
            }
        };
        self.format.decode(faulty_enc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_faultsim::fault::{FaultModel, FaultSite};
    use sfi_nn::resnet::ResNetConfig;

    fn fault(bit: u8, model: FaultModel) -> Fault {
        Fault { site: FaultSite { layer: 0, weight: 0, bit }, model }
    }

    #[test]
    fn quantize_touches_only_weights() {
        let mut model = ResNetConfig::resnet20_micro().build_seeded(7).unwrap();
        let format = Format::fixed(8, 6).unwrap();
        let gamma_before: Vec<f32> = model
            .store()
            .iter()
            .filter(|p| p.kind == ParamKind::BnGamma)
            .flat_map(|p| p.tensor.as_slice().to_vec())
            .collect();
        quantize_weights(model.store_mut(), format);
        let gamma_after: Vec<f32> = model
            .store()
            .iter()
            .filter(|p| p.kind == ParamKind::BnGamma)
            .flat_map(|p| p.tensor.as_slice().to_vec())
            .collect();
        assert_eq!(gamma_before, gamma_after, "BN parameters untouched");
        for l in model.weight_layers() {
            for &w in model.store().layer_weights(l.layer).unwrap() {
                assert_eq!(format.quantize(w), w);
            }
        }
    }

    #[test]
    fn fixed_sign_bit_stuck_at_one_forces_negative() {
        let format = Format::fixed(8, 6).unwrap();
        let c = FormatCorruption::new(format);
        // 0.5 encodes to 32 (0b0010_0000); stuck-at-1 on bit 7 gives
        // 0b1010_0000 = -96 -> -1.5.
        let faulty = c.corrupt(&fault(7, FaultModel::StuckAt1), 0.5);
        assert_eq!(faulty, -1.5);
    }

    #[test]
    fn f16_exponent_msb_explodes_magnitude() {
        let c = FormatCorruption::new(Format::F16);
        let faulty = c.corrupt(&fault(14, FaultModel::StuckAt1), 0.01);
        assert!(faulty.abs() > 100.0, "faulty = {faulty}");
    }

    #[test]
    fn bit_flip_is_involution_on_grid() {
        let format = Format::fixed(8, 6).unwrap();
        let c = FormatCorruption::new(format);
        let w = format.quantize(0.3);
        let once = c.corrupt(&fault(3, FaultModel::BitFlip), w);
        let twice = c.corrupt(&fault(3, FaultModel::BitFlip), once);
        assert_eq!(twice, w);
    }

    #[test]
    fn masked_stuck_at_preserves_value() {
        let format = Format::fixed(8, 6).unwrap();
        let c = FormatCorruption::new(format);
        let w = format.quantize(0.5); // bit 3 of 32 is 0
        assert_eq!(c.corrupt(&fault(3, FaultModel::StuckAt0), w), w);
    }
}
