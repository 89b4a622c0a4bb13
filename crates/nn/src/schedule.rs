//! Learning-rate schedules — the remaining training utility the paper's
//! recipes use (PointNet++ trains with step decay).

/// A learning-rate schedule mapping the epoch to a rate.
pub trait LrSchedule {
    /// Learning rate to use during `epoch`.
    fn lr_at(&self, epoch: usize) -> f32;
}

/// Constant rate.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLr(pub f32);

impl LrSchedule for ConstantLr {
    fn lr_at(&self, _epoch: usize) -> f32 {
        self.0
    }
}

/// Step decay: `base · gamma^(epoch / step)` with a floor — PointNet++'s
/// recipe (decay 0.7 every 20 epochs, floored at 1e-5).
#[derive(Debug, Clone, Copy)]
pub struct StepDecay {
    /// Initial rate.
    pub base: f32,
    /// Multiplier applied every `step` epochs.
    pub gamma: f32,
    /// Epochs between decays.
    pub step: usize,
    /// Lower bound on the rate.
    pub floor: f32,
}

impl StepDecay {
    /// PointNet++'s published schedule scaled to a `base` rate.
    pub fn pointnetpp(base: f32) -> Self {
        StepDecay { base, gamma: 0.7, step: 20, floor: 1e-5 }
    }
}

impl LrSchedule for StepDecay {
    fn lr_at(&self, epoch: usize) -> f32 {
        let decays = (epoch / self.step.max(1)) as i32;
        (self.base * self.gamma.powi(decays)).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_is_constant() {
        let s = ConstantLr(0.01);
        assert_eq!(s.lr_at(0), 0.01);
        assert_eq!(s.lr_at(1000), 0.01);
    }

    #[test]
    fn step_decay_follows_the_recipe() {
        let s = StepDecay::pointnetpp(1e-3);
        assert_eq!(s.lr_at(0), 1e-3);
        assert_eq!(s.lr_at(19), 1e-3);
        assert!((s.lr_at(20) - 7e-4).abs() < 1e-9);
        assert!((s.lr_at(40) - 4.9e-4).abs() < 1e-9);
        // Floors out eventually.
        assert_eq!(s.lr_at(100_000), 1e-5);
    }
}
