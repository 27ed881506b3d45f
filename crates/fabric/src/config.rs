//! Fabric configuration (the paper's Fig 5 organization knobs).

use crate::error::{FabricError, Result};
use cim_crossbar::dpe::DpeConfig;
use cim_sim::analytic::SimMode;

/// Configuration of a CIM device.
///
/// A device is a `mesh_width × mesh_height` mesh of tiles; each tile holds
/// `units_per_tile` micro-units (control + data + processing, Fig 5); each
/// micro-unit owns a dot-product engine built from `dpe` plus a small
/// digital ALU for non-matvec operators (rated by
/// [`cim_sim::calib::alu`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Tiles per mesh row.
    pub mesh_width: usize,
    /// Tiles per mesh column.
    pub mesh_height: usize,
    /// Micro-units per tile.
    pub units_per_tile: usize,
    /// Analog engine configuration for micro-unit matvec operators.
    pub dpe: DpeConfig,
    /// Whether packets between tiles are encrypted (§IV.A).
    pub encryption: bool,
    /// Simulation tier for the device's engines and NoC: detailed
    /// flow-level simulation (the calibration reference) or the analytic
    /// closed-form fast path cross-validated against it.
    pub sim_mode: SimMode,
    /// Root seed for all stochastic models in the device.
    pub seed: u64,
}

impl Default for FabricConfig {
    /// A 4×4-tile device with 4 micro-units per tile — 64 micro-units,
    /// enough for the example workloads while staying fast to simulate.
    fn default() -> Self {
        FabricConfig {
            mesh_width: 4,
            mesh_height: 4,
            units_per_tile: 4,
            dpe: DpeConfig::default(),
            encryption: false,
            sim_mode: SimMode::Detailed,
            seed: 0xC1A0_5EED,
        }
    }
}

impl FabricConfig {
    /// Total micro-units in the device.
    pub fn total_units(&self) -> usize {
        self.mesh_width * self.mesh_height * self.units_per_tile
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] for degenerate meshes, zero
    /// units or an invalid DPE configuration.
    pub fn validate(&self) -> Result<()> {
        if self.mesh_width == 0 || self.mesh_height == 0 {
            return Err(FabricError::InvalidConfig {
                reason: format!(
                    "mesh must be non-empty, got {}x{}",
                    self.mesh_width, self.mesh_height
                ),
            });
        }
        if self.mesh_width > u16::MAX as usize || self.mesh_height > u16::MAX as usize {
            return Err(FabricError::InvalidConfig {
                reason: "mesh dimensions exceed u16".to_owned(),
            });
        }
        if self.units_per_tile == 0 {
            return Err(FabricError::InvalidConfig {
                reason: "units_per_tile must be positive".to_owned(),
            });
        }
        self.dpe.validate().map_err(FabricError::from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = FabricConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_units(), 64);
    }

    #[test]
    fn rejects_degenerate_configs() {
        let c = FabricConfig {
            mesh_width: 0,
            ..FabricConfig::default()
        };
        assert!(c.validate().is_err());

        let c = FabricConfig {
            units_per_tile: 0,
            ..FabricConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = FabricConfig::default();
        c.dpe.adc_bits = 0;
        assert!(matches!(
            c.validate(),
            Err(FabricError::Crossbar(_)) | Err(FabricError::InvalidConfig { .. })
        ));
    }
}
