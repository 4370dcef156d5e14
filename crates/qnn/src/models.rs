//! Victim model zoo: scaled-down VGG-11 and ResNet-18/20/34 plus an MLP.
//!
//! The topologies match the paper's victims (VGG conv stacks, ResNet basic
//! blocks with identity/projection shortcuts); widths are divided by a
//! large factor so that CPU-only pure-Rust experiments finish (see the
//! substitution table in DESIGN.md). `base_width` scales every stage.

use rand::Rng;
use serde::{Deserialize, Serialize};

use dd_nn::layers::{ChannelNorm, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, Relu};
use dd_nn::model::{Network, ResidualBlock};
use dd_nn::ops::ConvGeometry;

/// Which victim architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// Two-layer MLP (sanity-check victim).
    Mlp,
    /// VGG-11-style conv stack (paper: CIFAR-10 victim, Fig 9a).
    Vgg11,
    /// ResNet-18-style residual net (paper: ImageNet victim, Fig 9b).
    ResNet18,
    /// ResNet-20-style residual net (paper: Table 3 victim).
    ResNet20,
    /// ResNet-34-style residual net (paper: Fig 1b / Fig 9c victim).
    ResNet34,
}

impl Architecture {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::Mlp => "mlp",
            Architecture::Vgg11 => "vgg11",
            Architecture::ResNet18 => "resnet18",
            Architecture::ResNet20 => "resnet20",
            Architecture::ResNet34 => "resnet34",
        }
    }
}

/// Model-construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Architecture to build.
    pub arch: Architecture,
    /// Input channels (3 for the synthetic image datasets).
    pub in_channels: usize,
    /// Input spatial side (16 for the synthetic datasets).
    pub image_side: usize,
    /// Output classes.
    pub classes: usize,
    /// Base channel width (stage widths are multiples of this).
    pub base_width: usize,
}

impl ModelConfig {
    /// Default config for an architecture on a given dataset shape.
    pub fn new(arch: Architecture, classes: usize) -> Self {
        ModelConfig {
            arch,
            in_channels: 3,
            image_side: 16,
            classes,
            base_width: 8,
        }
    }

    /// Override the base width (used by fast benches).
    pub fn with_base_width(mut self, w: usize) -> Self {
        self.base_width = w;
        self
    }
}

fn conv3(name: &str, ic: usize, oc: usize, stride: usize, rng: &mut impl Rng) -> Conv2d {
    let g = ConvGeometry {
        in_channels: ic,
        out_channels: oc,
        kernel: 3,
        stride,
        padding: 1,
    };
    Conv2d::kaiming(name, g, rng)
}

fn conv1(name: &str, ic: usize, oc: usize, stride: usize, rng: &mut impl Rng) -> Conv2d {
    let g = ConvGeometry {
        in_channels: ic,
        out_channels: oc,
        kernel: 1,
        stride,
        padding: 0,
    };
    Conv2d::kaiming(name, g, rng)
}

/// ResNet basic block `ic → oc` with the given stride.
fn basic_block(
    name: &str,
    ic: usize,
    oc: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> ResidualBlock {
    let main: Vec<Box<dyn Layer>> = vec![
        Box::new(conv3(&format!("{name}.conv1"), ic, oc, stride, rng)),
        Box::new(ChannelNorm::new(format!("{name}.bn1"), oc)),
        Box::new(Relu::new()),
        Box::new(conv3(&format!("{name}.conv2"), oc, oc, 1, rng)),
        Box::new(ChannelNorm::new(format!("{name}.bn2"), oc)),
    ];
    let shortcut: Vec<Box<dyn Layer>> = if stride != 1 || ic != oc {
        vec![
            Box::new(conv1(&format!("{name}.downsample"), ic, oc, stride, rng)),
            Box::new(ChannelNorm::new(format!("{name}.bn_ds"), oc)),
        ]
    } else {
        Vec::new()
    };
    ResidualBlock::new(name.to_string(), main, shortcut)
}

fn resnet(
    name: &str,
    config: &ModelConfig,
    stage_blocks: &[usize],
    stage_width_mults: &[usize],
    rng: &mut impl Rng,
) -> Network {
    let w = config.base_width;
    let mut net = Network::new(name);
    net.push_boxed(Box::new(conv3("stem.conv", config.in_channels, w, 1, rng)));
    net.push_boxed(Box::new(ChannelNorm::new("stem.bn", w)));
    net.push_boxed(Box::new(Relu::new()));
    let mut ic = w;
    for (s, (&blocks, &mult)) in stage_blocks.iter().zip(stage_width_mults).enumerate() {
        let oc = w * mult;
        for b in 0..blocks {
            let stride = if s > 0 && b == 0 { 2 } else { 1 };
            let bname = format!("layer{}.{}", s + 1, b);
            net.push_boxed(Box::new(basic_block(&bname, ic, oc, stride, rng)));
            ic = oc;
        }
    }
    net.push_boxed(Box::new(GlobalAvgPool::new()));
    net.push_boxed(Box::new(Linear::kaiming("fc", ic, config.classes, rng)));
    net
}

fn vgg11(config: &ModelConfig, rng: &mut impl Rng) -> Network {
    let w = config.base_width;
    let mut net = Network::new("vgg11");
    // Stage plan mirrors VGG-11: 8 convs in 5 stages + 3 FC layers,
    // pooling after stages 2–5 (16 → 8 → 4 → 2 → 1).
    let stages: &[(usize, usize)] = &[(1, w), (1, 2 * w), (2, 4 * w), (2, 8 * w), (2, 8 * w)];
    let mut ic = config.in_channels;
    let mut conv_idx = 0;
    for (s, &(convs, oc)) in stages.iter().enumerate() {
        for _ in 0..convs {
            conv_idx += 1;
            net.push_boxed(Box::new(conv3(&format!("conv{conv_idx}"), ic, oc, 1, rng)));
            net.push_boxed(Box::new(ChannelNorm::new(format!("bn{conv_idx}"), oc)));
            net.push_boxed(Box::new(Relu::new()));
            ic = oc;
        }
        if s > 0 {
            net.push_boxed(Box::new(dd_nn::layers::AvgPool2::new()));
        }
    }
    net.push_boxed(Box::new(Flatten::new()));
    net.push_boxed(Box::new(Linear::kaiming("fc1", ic, 8 * w, rng)));
    net.push_boxed(Box::new(Relu::new()));
    net.push_boxed(Box::new(Linear::kaiming("fc2", 8 * w, 8 * w, rng)));
    net.push_boxed(Box::new(Relu::new()));
    net.push_boxed(Box::new(Linear::kaiming("fc3", 8 * w, config.classes, rng)));
    net
}

fn mlp(config: &ModelConfig, rng: &mut impl Rng) -> Network {
    let input = config.in_channels * config.image_side * config.image_side;
    let hidden = 16 * config.base_width;
    Network::new("mlp")
        .push(Flatten::new())
        .push(Linear::kaiming("fc1", input, hidden, rng))
        .push(Relu::new())
        .push(Linear::kaiming("fc2", hidden, hidden / 2, rng))
        .push(Relu::new())
        .push(Linear::kaiming("fc3", hidden / 2, config.classes, rng))
}

/// Build an untrained victim network.
pub fn build_model(config: &ModelConfig, rng: &mut impl Rng) -> Network {
    match config.arch {
        Architecture::Mlp => mlp(config, rng),
        Architecture::Vgg11 => vgg11(config, rng),
        Architecture::ResNet18 => resnet("resnet18", config, &[2, 2, 2, 2], &[1, 2, 4, 8], rng),
        Architecture::ResNet20 => resnet("resnet20", config, &[3, 3, 3], &[1, 2, 4], rng),
        Architecture::ResNet34 => resnet("resnet34", config, &[3, 4, 6, 3], &[1, 2, 4, 8], rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_nn::init::seeded_rng;
    use dd_nn::Tensor;

    fn forward_shape(arch: Architecture) -> Vec<usize> {
        let mut rng = seeded_rng(1);
        let config = ModelConfig::new(arch, 10).with_base_width(4);
        let mut net = build_model(&config, &mut rng);
        net.forward(&Tensor::zeros(&[2, 3, 16, 16]), false)
            .shape()
            .to_vec()
    }

    #[test]
    fn all_architectures_produce_logits() {
        for arch in [
            Architecture::Mlp,
            Architecture::Vgg11,
            Architecture::ResNet18,
            Architecture::ResNet20,
            Architecture::ResNet34,
        ] {
            assert_eq!(forward_shape(arch), vec![2, 10], "{}", arch.name());
        }
    }

    /// Resuming the inference forward at any top-level layer from the
    /// recorded input equals the full forward bit for bit, on every zoo
    /// architecture (normalization statistics moved off their init by
    /// one training-mode pass).
    #[test]
    fn resuming_at_every_layer_matches_the_full_forward() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for arch in [
            Architecture::Mlp,
            Architecture::Vgg11,
            Architecture::ResNet18,
            Architecture::ResNet20,
            Architecture::ResNet34,
        ] {
            let mut rng = seeded_rng(6);
            let config = ModelConfig::new(arch, 10).with_base_width(2);
            let mut net = build_model(&config, &mut rng);
            let x = dd_nn::init::normal(&[3, 3, 16, 16], 1.0, &mut rng);
            net.forward(&x, true);
            let full = net.forward(&x, false);
            let (logits, inputs) = net.forward_recorded(&x);
            assert_eq!(bits(&logits), bits(&full), "{}", arch.name());
            assert_eq!(inputs.len(), net.depth());
            for (l, input) in inputs.iter().enumerate() {
                let resumed = net.forward_from(l, input);
                assert_eq!(bits(&resumed), bits(&full), "{} layer {l}", arch.name());
            }
        }
    }

    #[test]
    fn resnet34_is_deeper_than_resnet18() {
        let mut rng = seeded_rng(2);
        let c18 = ModelConfig::new(Architecture::ResNet18, 10).with_base_width(4);
        let c34 = ModelConfig::new(Architecture::ResNet34, 10).with_base_width(4);
        let mut n18 = build_model(&c18, &mut rng);
        let mut n34 = build_model(&c34, &mut rng);
        assert!(n34.param_count() > n18.param_count());
    }

    #[test]
    fn vgg11_has_eleven_weight_layers() {
        let mut rng = seeded_rng(3);
        let config = ModelConfig::new(Architecture::Vgg11, 10).with_base_width(4);
        let mut net = build_model(&config, &mut rng);
        let mut weight_layers = 0;
        net.visit_params(&mut |p| {
            if p.quantizable {
                weight_layers += 1;
            }
        });
        // 8 convs + 3 linears = the "11" of VGG-11.
        assert_eq!(weight_layers, 11);
    }

    #[test]
    fn backward_runs_on_resnet() {
        let mut rng = seeded_rng(4);
        let config = ModelConfig::new(Architecture::ResNet20, 10).with_base_width(4);
        let mut net = build_model(&config, &mut rng);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x, true);
        net.zero_grad();
        let gx = net.backward(&y);
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Architecture::Vgg11.name(), "vgg11");
        assert_eq!(Architecture::ResNet34.name(), "resnet34");
    }
}
