//! Network containers: a sequential [`Network`] plus the [`ResidualBlock`]
//! composite layer used by the ResNet family.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// A feed-forward stack of layers.
///
/// Parameters are visited layer by layer in push order — this ordering is
/// the contract the quantizer (`dd-qnn`) and the attack bit-addressing
/// build on.
#[derive(Debug, Default, Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    name: String,
}

impl Network {
    /// Empty network with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            layers: Vec::new(),
            name: name.into(),
        }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Full forward pass.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    /// Full inference forward pass that also returns the input of every
    /// top-level layer: `inputs[l]` is what layer `l` read.
    /// [`Network::forward_from`] resumes from these.
    pub fn forward_recorded(&mut self, x: &Tensor) -> (Tensor, Vec<Tensor>) {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &mut self.layers {
            let next = layer.forward(&cur, false);
            inputs.push(std::mem::replace(&mut cur, next));
        }
        (cur, inputs)
    }

    /// Inference forward pass from top-level layer `start` on, given that
    /// layer's input. Equals the full inference forward bit for bit when
    /// `input` is what layer `start` reads in it, so a change to a
    /// parameter of layer `start` or later needs only this suffix.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not below [`Network::depth`].
    pub fn forward_from(&mut self, start: usize, input: &Tensor) -> Tensor {
        let (first, rest) = self.layers[start..]
            .split_first_mut()
            .expect("resume layer out of range");
        let mut cur = first.forward(input, false);
        for layer in rest {
            cur = layer.forward(&cur, false);
        }
        cur
    }

    /// Top-level layer of every parameter, in [`Network::visit_params`]
    /// order. A parameter inside a [`ResidualBlock`] maps to the block.
    pub fn param_layers(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        for (l, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_params(&mut |_| out.push(l));
        }
        out
    }

    /// Full backward pass from the loss gradient at the output.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Visit every parameter in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Visit every layer's running statistics in a stable order.
    pub fn visit_running_stats(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in &self.layers {
            layer.visit_running_stats(f);
        }
    }

    /// Drop every layer's forward caches (see [`Layer::clear_cache`]).
    pub fn clear_caches(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// Zero every gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Number of scalar parameters subject to weight quantization.
    pub fn quantizable_param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if p.quantizable {
                n += p.value.len()
            }
        });
        n
    }

    /// Snapshot all parameter values (for restore-after-attack workflows).
    pub fn snapshot(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restore a snapshot taken with [`Network::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the parameter structure.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        let mut i = 0;
        self.visit_params(&mut |p| {
            p.value = snapshot[i].clone();
            i += 1;
        });
        assert_eq!(i, snapshot.len(), "snapshot length mismatch");
    }
}

/// A ResNet basic block: `y = relu(main(x) + shortcut(x))`.
///
/// `main` is typically conv–norm–relu–conv–norm; `shortcut` is empty
/// (identity) or a 1×1 strided projection.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    name: String,
    main: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Build from a main path and an (optionally empty = identity)
    /// shortcut path.
    pub fn new(
        name: impl Into<String>,
        main: Vec<Box<dyn Layer>>,
        shortcut: Vec<Box<dyn Layer>>,
    ) -> Self {
        ResidualBlock {
            name: name.into(),
            main,
            shortcut,
            relu_mask: None,
        }
    }

    fn run_path(path: &mut [Box<dyn Layer>], x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in path {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn back_path(path: &mut [Box<dyn Layer>], grad: &Tensor) -> Tensor {
        let mut cur = grad.clone();
        for layer in path.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let main_out = Self::run_path(&mut self.main, x, train);
        let short_out = if self.shortcut.is_empty() {
            x.clone()
        } else {
            Self::run_path(&mut self.shortcut, x, train)
        };
        let pre = main_out.add(&short_out);
        let mask: Vec<bool> = pre.as_slice().iter().map(|&v| v > 0.0).collect();
        let y = pre.map(|v| v.max(0.0));
        self.relu_mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.relu_mask.as_ref().expect("backward before forward");
        let gated = Tensor::from_vec(
            grad_out.shape(),
            grad_out
                .as_slice()
                .iter()
                .zip(mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        );
        let g_main = Self::back_path(&mut self.main, &gated);
        let g_short = if self.shortcut.is_empty() {
            gated
        } else {
            Self::back_path(&mut self.shortcut, &gated)
        };
        g_main.add(&g_short)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.main {
            layer.visit_params(f);
        }
        for layer in &mut self.shortcut {
            layer.visit_params(f);
        }
    }

    fn visit_running_stats(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in self.main.iter().chain(&self.shortcut) {
            layer.visit_running_stats(f);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn clear_cache(&mut self) {
        self.relu_mask = None;
        for layer in self.main.iter_mut().chain(&mut self.shortcut) {
            layer.clear_cache();
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};

    fn tiny_net() -> Network {
        let mut rng = crate::init::seeded_rng(11);
        Network::new("tiny")
            .push(Linear::kaiming("fc1", 4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::kaiming("fc2", 8, 3, &mut rng))
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny_net();
        let y = net.forward(&Tensor::zeros(&[5, 4]), false);
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(net.depth(), 3);
    }

    #[test]
    fn param_counts() {
        let mut net = tiny_net();
        // fc1: 4*8+8, fc2: 8*3+3
        assert_eq!(net.param_count(), 32 + 8 + 24 + 3);
        assert_eq!(net.quantizable_param_count(), 32 + 24);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut net = tiny_net();
        let snap = net.snapshot();
        net.visit_params(&mut |p| p.value.scale(0.0));
        let zeroed = net.forward(&Tensor::full(&[1, 4], 1.0), false);
        assert!(zeroed.as_slice().iter().all(|&v| v == 0.0));
        net.restore(&snap);
        let restored = net.snapshot();
        for (a, b) in snap.iter().zip(&restored) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn residual_identity_block_backward() {
        // Block whose main path is a zero linear layer: y = relu(x).
        let main: Vec<Box<dyn Layer>> = vec![Box::new(Linear::new(
            "z",
            Tensor::zeros(&[4, 4]),
            Tensor::zeros(&[4]),
        ))];
        let mut block = ResidualBlock::new("rb", main, vec![]);
        let x = Tensor::from_vec(&[1, 4], vec![1.0, -1.0, 2.0, -2.0]);
        let y = block.forward(&x, true);
        assert_eq!(y.as_slice(), &[1.0, 0.0, 2.0, 0.0]);
        let g = block.backward(&Tensor::full(&[1, 4], 1.0));
        // Identity shortcut grad + zero-weight main grad, gated by relu.
        assert_eq!(g.as_slice(), &[1.0, 0.0, 1.0, 0.0]);
    }

    /// Every parameter value and running statistic, as bit patterns.
    fn state_bits(net: &mut Network) -> Vec<Vec<u32>> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut out: Vec<Vec<u32>> = net.snapshot().iter().map(|t| bits(t.as_slice())).collect();
        net.visit_running_stats(&mut |s| out.push(bits(s)));
        out
    }

    #[test]
    fn cloned_network_trains_bit_identically() {
        use crate::data::{Dataset, SyntheticSpec};
        use crate::layers::{ChannelNorm, Conv2d, Flatten, GlobalAvgPool};
        use crate::ops::ConvGeometry;
        use crate::train::{train, TrainConfig};

        let geometry = |in_channels, out_channels| ConvGeometry {
            in_channels,
            out_channels,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut rng = crate::init::seeded_rng(21);
        let spec = SyntheticSpec {
            classes: 3,
            channels: 1,
            height: 6,
            width: 6,
            train_per_class: 8,
            test_per_class: 4,
            noise: 0.3,
            brightness_jitter: 0.1,
        };
        let dataset = Dataset::generate(spec, &mut rng);
        let main: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::kaiming("rb.conv", geometry(4, 4), &mut rng)),
            Box::new(ChannelNorm::new("rb.bn", 4)),
        ];
        let mut net = Network::new("cnn")
            .push(Conv2d::kaiming("stem", geometry(1, 4), &mut rng))
            .push(ChannelNorm::new("stem.bn", 4))
            .push(Relu::new())
            .push(ResidualBlock::new("rb", main, vec![]))
            .push(GlobalAvgPool::new())
            .push(Flatten::new())
            .push(Linear::kaiming("fc", 4, 3, &mut rng));
        let config = TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..TrainConfig::default()
        };
        train(&mut net, &dataset, config, &mut rng);

        net.clear_caches();
        let mut copy = net.clone();
        let mut stats = 0;
        copy.visit_running_stats(&mut |_| stats += 1);
        assert_eq!(stats, 4, "two norms, mean and var each");
        let mut rng_a = crate::init::seeded_rng(5);
        let mut rng_b = crate::init::seeded_rng(5);
        train(&mut net, &dataset, config, &mut rng_a);
        train(&mut copy, &dataset, config, &mut rng_b);
        assert_eq!(state_bits(&mut copy), state_bits(&mut net));
    }

    #[test]
    fn network_backward_runs_and_fills_grads() {
        let mut net = tiny_net();
        let x = Tensor::full(&[2, 4], 0.5);
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&y);
        let mut any_nonzero = false;
        net.visit_params(&mut |p| any_nonzero |= p.grad.max_abs() > 0.0);
        assert!(any_nonzero);
    }
}
