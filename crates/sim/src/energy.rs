//! Energy and technology constants (16 nm-class, matching the paper's
//! TSMC 16 nm FinFET implementation and LPDDR3 DRAM).
//!
//! Absolute joules are model inputs, not measurements; what the
//! experiments rely on is the published *ratio* structure — most
//! importantly DRAM ≈ 70× SRAM per bit (paper §VI, matching \[23\], \[61\]) —
//! and the relative magnitudes of GPU vs NPU compute energy.

/// Energy of one NPU MAC operation (16-bit, 16 nm), picojoules.
pub const NPU_MAC_PJ: f64 = 0.4;

/// Energy per byte of on-chip SRAM access (global buffer scale), pJ.
pub const SRAM_PJ_PER_BYTE: f64 = 1.0;

/// Energy per byte of a small heavily-banked SRAM (PFT/NIT buffers), pJ.
/// Smaller arrays cost less per access than the 1.5 MB global buffer.
pub const SMALL_SRAM_PJ_PER_BYTE: f64 = 0.5;

/// Energy per byte of LPDDR3 DRAM traffic, pJ — 70× the SRAM energy per
/// bit (paper §VI: "the DRAM energy per bit is about 70× of that of SRAM",
/// consistent with Micron's power calculators).
pub const DRAM_PJ_PER_BYTE: f64 = SRAM_PJ_PER_BYTE * 70.0;

/// Effective energy per GPU flop (mobile Pascal, system-level: datapath,
/// fetch/decode, register files), pJ.
pub const GPU_PJ_PER_FLOP: f64 = 12.0;

/// GPU static + idle power charged against kernel latency, watts.
pub const GPU_STATIC_W: f64 = 1.5;

/// NPU static power, watts.
pub const NPU_STATIC_W: f64 = 0.15;

/// LPDDR3-1600, 4 channels (paper §VI): peak bandwidth in GB/s.
pub const DRAM_BW_GBS: f64 = 25.6;

/// SRAM area per KB at 16 nm (single-ported, from the paper's own data:
/// the 64 KB PFT buffer occupies 0.031 mm² ⇒ ≈ 0.00048 mm²/KB).
pub const SRAM_MM2_PER_KB: f64 = 0.031 / 64.0;

/// Millijoules from picojoules.
pub fn pj_to_mj(pj: f64) -> f64 {
    pj * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_to_sram_ratio_is_70x() {
        assert!((DRAM_PJ_PER_BYTE / SRAM_PJ_PER_BYTE - 70.0).abs() < 1e-9);
    }

    #[test]
    fn pft_buffer_area_matches_paper() {
        // 64 KB → 0.031 mm² (§VII-A).
        let area = SRAM_MM2_PER_KB * 64.0;
        assert!((area - 0.031).abs() < 1e-6);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(pj_to_mj(1e9), 1.0);
    }

    #[test]
    fn gpu_flop_energy_exceeds_npu_mac_energy() {
        // The reason an NPU-enabled baseline is already 70 % lower energy
        // than the GPU (paper §VII-D). Read through locals so the ratio
        // under test stays visible in a failure message.
        let (gpu, npu) = (GPU_PJ_PER_FLOP, NPU_MAC_PJ);
        assert!(gpu > 10.0 * npu, "gpu {gpu} pJ/flop vs npu {npu} pJ/MAC");
    }
}
