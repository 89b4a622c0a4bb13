//! Conventional CNN baselines for the MAC comparison of Fig. 7.
//!
//! The paper compares the feature-computation MAC counts of point-cloud
//! networks on a 130 K-point frame against three classic CNNs on inputs
//! with "nearly 130 K pixels" (a ≈ 360×360 frame). These are layer-table
//! models — no weights, just arithmetic — because only the MAC counts
//! enter the figure.

/// A convolutional layer description sufficient for MAC counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayer {
    /// Output height = width (square feature maps assumed).
    pub out_hw: usize,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// How many times this layer repeats (for ResNet blocks).
    pub repeat: usize,
}

impl ConvLayer {
    const fn new(out_hw: usize, c_in: usize, c_out: usize, kernel: usize, repeat: usize) -> Self {
        ConvLayer { out_hw, c_in, c_out, kernel, repeat }
    }

    /// MACs of this layer including repeats.
    pub fn macs(&self) -> u64 {
        conv2d_macs(self.out_hw, self.out_hw, self.c_in, self.c_out, self.kernel)
            * self.repeat as u64
    }
}

/// MAC count of a conventional convolution layer: `H·W · C_in·C_out · k²`
/// (stride folded into the output size).
fn conv2d_macs(out_h: usize, out_w: usize, c_in: usize, c_out: usize, kernel: usize) -> u64 {
    (out_h as u64) * (out_w as u64) * (c_in as u64) * (c_out as u64) * (kernel as u64).pow(2)
}

/// A CNN as a list of conv layers plus dense-layer MACs.
#[derive(Debug, Clone)]
pub struct CnnModel {
    /// Display name.
    pub name: &'static str,
    /// Convolutional layers.
    pub layers: Vec<ConvLayer>,
    /// Fully-connected MACs (AlexNet's classifier dominates its total).
    pub fc_macs: u64,
}

impl CnnModel {
    /// Total multiply-accumulate operations for one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(ConvLayer::macs).sum::<u64>() + self.fc_macs
    }
}

/// AlexNet at 227×227 (≈0.7 GMACs + 59 M dense MACs).
pub fn alexnet() -> CnnModel {
    CnnModel {
        name: "AlexNet",
        layers: vec![
            ConvLayer::new(55, 3, 96, 11, 1),
            // conv2/4/5 are 2-group convolutions: effective c_in is halved.
            ConvLayer::new(27, 48, 256, 5, 1),
            ConvLayer::new(13, 256, 384, 3, 1),
            ConvLayer::new(13, 192, 384, 3, 1),
            ConvLayer::new(13, 192, 256, 3, 1),
        ],
        fc_macs: 9216 * 4096 + 4096 * 4096 + 4096 * 1000,
    }
}

/// ResNet-50 at 224×224 (≈4.1 GMACs).
pub fn resnet50() -> CnnModel {
    // Bottleneck stages; each block is 1×1 → 3×3 → 1×1 (+ a projection on
    // the first block of each stage, folded into repeats of the 1×1s).
    CnnModel {
        name: "ResNet-50",
        layers: vec![
            ConvLayer::new(112, 3, 64, 7, 1),
            // conv2_x: 3 blocks at 56×56, 64-64-256.
            ConvLayer::new(56, 64, 64, 1, 3),
            ConvLayer::new(56, 64, 64, 3, 3),
            ConvLayer::new(56, 64, 256, 1, 3),
            ConvLayer::new(56, 256, 64, 1, 2), // input projections of blocks 2-3
            // conv3_x: 4 blocks at 28×28, 128-128-512.
            ConvLayer::new(28, 256, 128, 1, 1),
            ConvLayer::new(28, 512, 128, 1, 3),
            ConvLayer::new(28, 128, 128, 3, 4),
            ConvLayer::new(28, 128, 512, 1, 4),
            // conv4_x: 6 blocks at 14×14, 256-256-1024.
            ConvLayer::new(14, 512, 256, 1, 1),
            ConvLayer::new(14, 1024, 256, 1, 5),
            ConvLayer::new(14, 256, 256, 3, 6),
            ConvLayer::new(14, 256, 1024, 1, 6),
            // conv5_x: 3 blocks at 7×7, 512-512-2048.
            ConvLayer::new(7, 1024, 512, 1, 1),
            ConvLayer::new(7, 2048, 512, 1, 2),
            ConvLayer::new(7, 512, 512, 3, 3),
            ConvLayer::new(7, 512, 2048, 1, 3),
        ],
        fc_macs: 2048 * 1000,
    }
}

/// YOLOv2 at 416×416 (≈17 GMACs) — the largest of the three baselines.
pub fn yolov2() -> CnnModel {
    CnnModel {
        name: "YOLOv2",
        layers: vec![
            ConvLayer::new(416, 3, 32, 3, 1),
            ConvLayer::new(208, 32, 64, 3, 1),
            ConvLayer::new(104, 64, 128, 3, 1),
            ConvLayer::new(104, 128, 64, 1, 1),
            ConvLayer::new(104, 64, 128, 3, 1),
            ConvLayer::new(52, 128, 256, 3, 1),
            ConvLayer::new(52, 256, 128, 1, 1),
            ConvLayer::new(52, 128, 256, 3, 1),
            ConvLayer::new(26, 256, 512, 3, 1),
            ConvLayer::new(26, 512, 256, 1, 1),
            ConvLayer::new(26, 256, 512, 3, 1),
            ConvLayer::new(26, 512, 256, 1, 1),
            ConvLayer::new(26, 256, 512, 3, 1),
            ConvLayer::new(13, 512, 1024, 3, 1),
            ConvLayer::new(13, 1024, 512, 1, 1),
            ConvLayer::new(13, 512, 1024, 3, 1),
            ConvLayer::new(13, 1024, 512, 1, 1),
            ConvLayer::new(13, 512, 1024, 3, 1),
            ConvLayer::new(13, 1024, 1024, 3, 2),
            ConvLayer::new(13, 3072, 1024, 3, 1), // after passthrough concat
            ConvLayer::new(13, 1024, 425, 1, 1),
        ],
        fc_macs: 0,
    }
}

/// The three baselines of Fig. 7.
pub fn fig7_baselines() -> Vec<CnnModel> {
    vec![yolov2(), alexnet(), resnet50()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_macs_alexnet_conv1() {
        // AlexNet conv1: 96 filters of 11×11×3 over a 55×55 output.
        assert_eq!(conv2d_macs(55, 55, 3, 96, 11), 55 * 55 * 3 * 96 * 121);
    }

    #[test]
    fn alexnet_macs_in_published_range() {
        let g = alexnet().total_macs() as f64 / 1e9;
        assert!((0.6..0.9).contains(&g), "AlexNet ≈ 0.7 GMACs, got {g}");
    }

    #[test]
    fn resnet50_macs_in_published_range() {
        let g = resnet50().total_macs() as f64 / 1e9;
        assert!((3.5..4.5).contains(&g), "ResNet-50 ≈ 4.1 GMACs, got {g}");
    }

    #[test]
    fn yolov2_macs_in_published_range() {
        let g = yolov2().total_macs() as f64 / 1e9;
        assert!((14.0..22.0).contains(&g), "YOLOv2 ≈ 17 GMACs, got {g}");
    }

    #[test]
    fn ordering_matches_fig7() {
        // YOLOv2 > ResNet-50 > AlexNet.
        let y = yolov2().total_macs();
        let r = resnet50().total_macs();
        let a = alexnet().total_macs();
        assert!(y > r && r > a);
    }
}
