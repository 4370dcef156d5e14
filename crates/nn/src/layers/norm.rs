//! Per-channel normalization with learnable affine parameters.
//!
//! A batch-norm-style layer: activations are normalized per channel using
//! batch statistics in training mode (with the exact batch-norm backward,
//! which differentiates through the statistics) and running statistics in
//! inference mode (frozen-statistics backward). The inference-time
//! behaviour — the only thing BFA interacts with — is the standard affine
//! `y = γ·(x−μ)/σ + β`.
//!
//! Both passes walk the input as contiguous `(batch, channel)` planes, so
//! each per-channel sum adds its elements in (batch, position) order:
//! the order of a flat walk over the NCHW buffer.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// Per-channel normalization over NCHW or NC inputs.
#[derive(Debug, Clone)]
pub struct ChannelNorm {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cached_xhat: Option<Tensor>,
    cached_inv_std: Vec<f32>,
    cached_train: bool,
}

impl ChannelNorm {
    /// New layer over `channels` channels.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        let name = name.into();
        ChannelNorm {
            gamma: Param::new(
                format!("{name}.gamma"),
                Tensor::full(&[channels], 1.0),
                false,
            ),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            name,
            cached_xhat: None,
            cached_inv_std: Vec::new(),
            cached_train: false,
        }
    }

    fn channels(&self) -> usize {
        self.running_mean.len()
    }

    /// `(batch, plane)` of a 2-d `[n, c]` or 4-d `[n, c, h, w]` input: the
    /// input is `batch × c` contiguous per-channel planes of `plane`
    /// elements.
    fn planes(&self, shape: &[usize]) -> (usize, usize) {
        let (n, c, plane) = match *shape {
            [n, c] => (n, c, 1),
            [n, c, h, w] => (n, c, h * w),
            _ => panic!("channelnorm supports 2-d or 4-d inputs"),
        };
        assert_eq!(c, self.channels(), "channelnorm channel count mismatch");
        (n, plane)
    }
}

impl Layer for ChannelNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let c = self.channels();
        let (n, plane) = self.planes(x.shape());
        let count = n * plane;
        let (mean, var) = if train {
            // Batch statistics per channel, summed plane by plane.
            let mut sum = vec![0.0f64; c];
            let mut sumsq = vec![0.0f64; c];
            for image in x.as_slice().chunks_exact(c * plane) {
                for ((s, sq), xs) in sum
                    .iter_mut()
                    .zip(&mut sumsq)
                    .zip(image.chunks_exact(plane))
                {
                    for &v in xs {
                        *s += v as f64;
                        *sq += (v as f64) * (v as f64);
                    }
                }
            }
            let mean: Vec<f32> = sum
                .iter()
                .map(|s| (s / count.max(1) as f64) as f32)
                .collect();
            let var: Vec<f32> = sumsq
                .iter()
                .zip(&mean)
                .map(|(sq, &m)| ((sq / count.max(1) as f64) as f32 - m * m).max(0.0))
                .collect();
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let gv = self.gamma.value.as_slice();
        let bv = self.beta.value.as_slice();
        let mut xhat = vec![0.0f32; x.len()];
        let mut y = vec![0.0f32; x.len()];
        for ((image, himage), yimage) in x
            .as_slice()
            .chunks_exact(c * plane)
            .zip(xhat.chunks_exact_mut(c * plane))
            .zip(y.chunks_exact_mut(c * plane))
        {
            for (ch, ((xs, hs), ys)) in image
                .chunks_exact(plane)
                .zip(himage.chunks_exact_mut(plane))
                .zip(yimage.chunks_exact_mut(plane))
                .enumerate()
            {
                let (m, inv, ga, be) = (mean[ch], inv_std[ch], gv[ch], bv[ch]);
                for ((&v, h), y) in xs.iter().zip(hs).zip(ys) {
                    *h = (v - m) * inv;
                    *y = ga * *h + be;
                }
            }
        }
        self.cached_xhat = Some(Tensor::from_vec(x.shape(), xhat));
        self.cached_inv_std = inv_std;
        self.cached_train = train;
        Tensor::from_vec(x.shape(), y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self.cached_xhat.as_ref().expect("backward before forward");
        let c = self.channels();
        let (n, plane) = self.planes(grad_out.shape());
        let count = n * plane;
        let gv = self.gamma.value.as_slice();

        // Parameter gradients (same in both modes).
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gh = vec![0.0f32; c];
        for (gimage, himage) in grad_out
            .as_slice()
            .chunks_exact(c * plane)
            .zip(xhat.as_slice().chunks_exact(c * plane))
        {
            for ((sg, sgh), (gs, hs)) in sum_g
                .iter_mut()
                .zip(&mut sum_gh)
                .zip(gimage.chunks_exact(plane).zip(himage.chunks_exact(plane)))
            {
                for (&g, &h) in gs.iter().zip(hs) {
                    *sg += g;
                    *sgh += g * h;
                }
            }
        }
        for ch in 0..c {
            self.gamma.grad.as_mut_slice()[ch] += sum_gh[ch];
            self.beta.grad.as_mut_slice()[ch] += sum_g[ch];
        }

        let inv_std = &self.cached_inv_std;
        let mut gx = vec![0.0f32; grad_out.len()];
        let by_plane = grad_out
            .as_slice()
            .chunks_exact(plane)
            .zip(xhat.as_slice().chunks_exact(plane))
            .zip(gx.chunks_exact_mut(plane));
        if self.cached_train {
            // Exact batch-norm backward (statistics depend on the batch):
            // dx = γ·invstd·(g − mean(g) − x̂·mean(g·x̂)).
            let mean_g: Vec<f32> = sum_g.iter().map(|s| s / count.max(1) as f32).collect();
            let mean_gh: Vec<f32> = sum_gh.iter().map(|s| s / count.max(1) as f32).collect();
            for (i, ((gs, hs), dxs)) in by_plane.enumerate() {
                let ch = i % c;
                let (scale, mg, mgh) = (gv[ch] * inv_std[ch], mean_g[ch], mean_gh[ch]);
                for ((&g, &h), dx) in gs.iter().zip(hs).zip(dxs) {
                    *dx = scale * (g - mg - h * mgh);
                }
            }
        } else {
            // Frozen running statistics: plain affine backward.
            for (i, ((gs, _), dxs)) in by_plane.enumerate() {
                let ch = i % c;
                let (ga, inv) = (gv[ch], inv_std[ch]);
                for (&g, dx) in gs.iter().zip(dxs) {
                    *dx = g * ga * inv;
                }
            }
        }
        Tensor::from_vec(grad_out.shape(), gx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_running_stats(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn clear_cache(&mut self) {
        self.cached_xhat = None;
        self.cached_inv_std = Vec::new();
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod reference {
    //! The per-element `ChannelNorm` passes the plane-wise ones replaced,
    //! kept as the differential oracle: every element finds its channel
    //! with two integer divisions.

    use super::*;

    fn channel_of(idx: usize, shape: &[usize]) -> usize {
        match shape.len() {
            2 => idx % shape[1],
            4 => (idx / (shape[2] * shape[3])) % shape[1],
            _ => panic!("channelnorm supports 2-d or 4-d inputs"),
        }
    }

    pub fn forward(n: &mut ChannelNorm, x: &Tensor, train: bool) -> Tensor {
        let c = n.channels();
        let shape = x.shape().to_vec();
        let (mean, var) = if train {
            let mut sum = vec![0.0f64; c];
            let mut sumsq = vec![0.0f64; c];
            let mut count = vec![0usize; c];
            for (i, &v) in x.as_slice().iter().enumerate() {
                let ch = channel_of(i, &shape);
                sum[ch] += v as f64;
                sumsq[ch] += (v as f64) * (v as f64);
                count[ch] += 1;
            }
            let mean: Vec<f32> = sum
                .iter()
                .zip(&count)
                .map(|(s, &k)| (s / k.max(1) as f64) as f32)
                .collect();
            let var: Vec<f32> = sumsq
                .iter()
                .zip(&count)
                .zip(&mean)
                .map(|((sq, &k), &m)| ((sq / k.max(1) as f64) as f32 - m * m).max(0.0))
                .collect();
            for ch in 0..c {
                n.running_mean[ch] =
                    (1.0 - n.momentum) * n.running_mean[ch] + n.momentum * mean[ch];
                n.running_var[ch] = (1.0 - n.momentum) * n.running_var[ch] + n.momentum * var[ch];
            }
            (mean, var)
        } else {
            (n.running_mean.clone(), n.running_var.clone())
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + n.eps).sqrt()).collect();
        let gv = n.gamma.value.as_slice().to_vec();
        let bv = n.beta.value.as_slice().to_vec();
        let mut xhat = vec![0.0f32; x.len()];
        let mut y = vec![0.0f32; x.len()];
        for (i, &v) in x.as_slice().iter().enumerate() {
            let ch = channel_of(i, &shape);
            let h = (v - mean[ch]) * inv_std[ch];
            xhat[i] = h;
            y[i] = gv[ch] * h + bv[ch];
        }
        n.cached_xhat = Some(Tensor::from_vec(&shape, xhat));
        n.cached_inv_std = inv_std;
        n.cached_train = train;
        Tensor::from_vec(&shape, y)
    }

    pub fn backward(n: &mut ChannelNorm, grad_out: &Tensor) -> Tensor {
        let xhat = n.cached_xhat.as_ref().expect("backward before forward");
        let shape = grad_out.shape().to_vec();
        let c = n.channels();
        let gv = n.gamma.value.as_slice().to_vec();
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gh = vec![0.0f32; c];
        let mut count = vec![0usize; c];
        for (i, (&g, &h)) in grad_out.as_slice().iter().zip(xhat.as_slice()).enumerate() {
            let ch = channel_of(i, &shape);
            sum_g[ch] += g;
            sum_gh[ch] += g * h;
            count[ch] += 1;
        }
        for ch in 0..c {
            n.gamma.grad.as_mut_slice()[ch] += sum_gh[ch];
            n.beta.grad.as_mut_slice()[ch] += sum_g[ch];
        }
        let mut gx = vec![0.0f32; grad_out.len()];
        if n.cached_train {
            let mean_g: Vec<f32> = sum_g
                .iter()
                .zip(&count)
                .map(|(s, &k)| s / k.max(1) as f32)
                .collect();
            let mean_gh: Vec<f32> = sum_gh
                .iter()
                .zip(&count)
                .map(|(s, &k)| s / k.max(1) as f32)
                .collect();
            for (i, (&g, &h)) in grad_out.as_slice().iter().zip(xhat.as_slice()).enumerate() {
                let ch = channel_of(i, &shape);
                gx[i] = gv[ch] * n.cached_inv_std[ch] * (g - mean_g[ch] - h * mean_gh[ch]);
            }
        } else {
            for (i, &g) in grad_out.as_slice().iter().enumerate() {
                let ch = channel_of(i, &shape);
                gx[i] = g * gv[ch] * n.cached_inv_std[ch];
            }
        }
        Tensor::from_vec(&shape, gx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn sample(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0) * 2f32.powi(rng.gen_range(-6..7)),
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// Every observable of the layer, as bit patterns.
    fn state(n: &mut ChannelNorm) -> Vec<Vec<u32>> {
        vec![
            bits(&n.running_mean),
            bits(&n.running_var),
            bits(n.gamma.grad.as_slice()),
            bits(n.beta.grad.as_slice()),
            bits(&n.cached_inv_std),
            bits(n.cached_xhat.as_ref().map_or(&[][..], |t| t.as_slice())),
        ]
    }

    #[test]
    fn plane_wise_passes_match_per_element_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        for shape in [vec![6, 3], vec![1, 4], vec![3, 4, 5, 5], vec![2, 2, 1, 3]] {
            let c = shape[1];
            let mut fast = ChannelNorm::new("bn", c);
            fast.gamma.value = sample(&[c], &mut rng);
            fast.beta.value = sample(&[c], &mut rng);
            let mut slow = fast.clone();
            // Train twice (running statistics move), then evaluate.
            for train in [true, true, false] {
                let x = sample(&shape, &mut rng);
                let g = sample(&shape, &mut rng);
                let y = fast.forward(&x, train);
                let y_ref = reference::forward(&mut slow, &x, train);
                assert_eq!(
                    bits(y.as_slice()),
                    bits(y_ref.as_slice()),
                    "{shape:?} {train}"
                );
                let gx = fast.backward(&g);
                let gx_ref = reference::backward(&mut slow, &g);
                assert_eq!(
                    bits(gx.as_slice()),
                    bits(gx_ref.as_slice()),
                    "{shape:?} {train}"
                );
                assert_eq!(state(&mut fast), state(&mut slow), "{shape:?} {train}");
            }
        }
    }

    #[test]
    fn training_mode_normalizes_batch() {
        let mut n = ChannelNorm::new("bn", 1);
        let x = Tensor::from_vec(&[4, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let y = n.forward(&x, true);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        let var: f32 = y.as_slice().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut n = ChannelNorm::new("bn", 1);
        // Train on a fixed distribution for many steps.
        let x = Tensor::from_vec(&[4, 1], vec![10.0, 12.0, 8.0, 10.0]);
        for _ in 0..200 {
            n.forward(&x, true);
        }
        // Inference on the same data should be approximately normalized.
        let y = n.forward(&x, false);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 0.1, "running mean not learned: {mean}");
    }

    #[test]
    fn nchw_channels_are_independent() {
        let mut n = ChannelNorm::new("bn", 2);
        // Channel 0 all zeros, channel 1 large values.
        let x = Tensor::from_vec(&[1, 2, 1, 2], vec![0.0, 0.0, 100.0, 200.0]);
        let y = n.forward(&x, true);
        // Channel 0 stays 0, channel 1 normalizes to ±1.
        assert_eq!(&y.as_slice()[..2], &[0.0, 0.0]);
        assert!((y.as_slice()[2] + 1.0).abs() < 1e-3);
        assert!((y.as_slice()[3] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn backward_affine_grads() {
        let mut n = ChannelNorm::new("bn", 1);
        let x = Tensor::from_vec(&[2, 1], vec![1.0, 3.0]);
        let _ = n.forward(&x, true);
        let _ = n.backward(&Tensor::full(&[2, 1], 1.0));
        // dβ = sum of grads = 2; dγ = Σ g·x̂ = x̂₀+x̂₁ = 0 for symmetric batch.
        assert!((n.beta.grad.as_slice()[0] - 2.0).abs() < 1e-6);
        assert!(n.gamma.grad.as_slice()[0].abs() < 1e-5);
    }
}
