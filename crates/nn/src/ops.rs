//! Dense numeric kernels: matmul, im2col convolution, pooling.
//!
//! These free functions are shared between the float training path
//! (`dd-nn` layers) and the quantized inference path (`dd-qnn`), which
//! dequantizes weights and calls the same kernels.
//!
//! Convolution unfolds its input into *patch-major* columns
//! `[n, c·k·k, oh·ow]`: one row per (channel, tap), one entry per output
//! pixel. The forward pass is then a per-image `weight × cols` update of
//! whole output rows, written straight into NCHW, and the backward pass
//! reads the NCHW upstream gradient in place.
//!
//! Every output keeps one fixed f32 operation sequence: each sum starts at
//! `+0.0` and adds its terms in a documented order, with no reassociation
//! and no fused multiply-add. Training and attack results are therefore
//! bit-for-bit reproducible, and the tests check the convolution bit for
//! bit against a position-major reference (`[n·oh·ow, c·k·k]` columns) with
//! the same per-output order.

use std::ops::Range;

use crate::tensor::Tensor;

/// `C = A × B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul inner dimensions differ: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let brow = &bv[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// `C = Aᵀ × B` for `A: [k, m]`, `B: [k, n]` (used in weight-gradient
/// computation without materializing the transpose).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_tn inner dimensions differ: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for p in 0..k {
        let arow = &av[p * m..(p + 1) * m];
        let brow = &bv[p * n..(p + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// `C = A × Bᵀ` for `A: [m, k]`, `B: [n, k]`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_nt inner dimensions differ: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output spatial side for an input side `h`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_side(&self, h: usize) -> usize {
        let padded = h + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {padded}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Output positions `o < out` whose input coordinate `o·stride + k − padding`
/// (kernel offset `k`) lands inside `0..side`: the taps that read real
/// input rather than zero padding.
fn valid_outputs(k: usize, side: usize, out: usize, g: &ConvGeometry) -> Range<usize> {
    let lo = g.padding.saturating_sub(k).div_ceil(g.stride);
    let hi = if side + g.padding > k {
        ((side - 1 + g.padding - k) / g.stride + 1).min(out)
    } else {
        0
    };
    lo..hi.max(lo)
}

/// im2col: unfold `[n, c, h, w]` into patch-major columns
/// `[n, c·k·k, oh·ow]`. Row `(ch·k + ky)·k + kx` of an image holds, for
/// every output pixel, the input it sees through tap `(ky, kx)` of channel
/// `ch` (zero where the tap reads padding), so each row is filled by
/// copies over the tap's valid output range.
pub fn im2col(x: &Tensor, g: &ConvGeometry) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let (k, ohw) = (g.kernel, oh * ow);
    let patch = c * k * k;
    let mut out = vec![0.0f32; n * patch * ohw];
    let xv = x.as_slice();
    for (image, cols) in xv
        .chunks_exact(c * h * w)
        .zip(out.chunks_exact_mut(patch * ohw))
    {
        for (p, row) in cols.chunks_exact_mut(ohw).enumerate() {
            let (ch, ky, kx) = (p / (k * k), p / k % k, p % k);
            let (ys, xs) = (valid_outputs(ky, h, oh, g), valid_outputs(kx, w, ow, g));
            if ys.is_empty() || xs.is_empty() {
                continue;
            }
            let ix0 = xs.start * g.stride + kx - g.padding;
            let plane = &image[ch * h * w..(ch + 1) * h * w];
            if g.stride == 1 && ow == w {
                // The tap's rows are contiguous in both the input plane
                // and the column row: copy the whole span, then re-zero
                // the padding columns it ran across.
                let (d0, d1) = (ys.start * ow + xs.start, (ys.end - 1) * ow + xs.end);
                let s0 = (ys.start + ky - g.padding) * w + ix0;
                row[d0..d1].copy_from_slice(&plane[s0..s0 + d1 - d0]);
                for line in row[ys.start * ow..ys.end * ow].chunks_exact_mut(ow) {
                    line[..xs.start].fill(0.0);
                    line[xs.end..].fill(0.0);
                }
                continue;
            }
            for oy in ys {
                let src = &plane[(oy * g.stride + ky - g.padding) * w + ix0..];
                let dst = &mut row[oy * ow + xs.start..oy * ow + xs.end];
                for (d, &s) in dst.iter_mut().zip(src.iter().step_by(g.stride)) {
                    *d = s;
                }
            }
        }
    }
    Tensor::from_vec(&[n, patch, ohw], out)
}

/// col2im for one image: fold patch-major column gradients `[c·k·k, oh·ow]`
/// into the input gradient `dst: [c, h, w]`, accumulating overlaps.
///
/// Each input pixel receives its taps in descending `(ky, kx)` order, which
/// is ascending `(oy, ox)` order: the order in which a pos-major fold
/// visits the output pixels that read it.
fn col2im(cols: &[f32], g: &ConvGeometry, h: usize, w: usize, dst: &mut [f32]) {
    let k = g.kernel;
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let ohw = oh * ow;
    for (ch, plane) in dst.chunks_exact_mut(h * w).enumerate() {
        for ky in (0..k).rev() {
            let ys = valid_outputs(ky, h, oh, g);
            for kx in (0..k).rev() {
                let xs = valid_outputs(kx, w, ow, g);
                if xs.is_empty() {
                    continue;
                }
                let ix0 = xs.start * g.stride + kx - g.padding;
                let row = &cols[((ch * k + ky) * k + kx) * ohw..][..ohw];
                for oy in ys.clone() {
                    let out = &mut plane[(oy * g.stride + ky - g.padding) * w + ix0..];
                    let src = &row[oy * ow + xs.start..oy * ow + xs.end];
                    if g.stride == 1 {
                        for (d, &s) in out.iter_mut().zip(src) {
                            *d += s;
                        }
                    } else {
                        for (d, &s) in out.iter_mut().step_by(g.stride).zip(src) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }
}

/// Convolution forward. `x: [n, c, h, w]`, `weight: [oc, c*k*k]`,
/// `bias: [oc]` → `[n, oc, oh, ow]`. Also returns the im2col columns
/// `[n, c*k*k, oh*ow]` for reuse in the backward pass.
///
/// Each output is `(Σ_p w[o, p]·cols[p, q]) + bias[o]`, summed from `+0.0`
/// in ascending `p` over every tap (padding taps included), computed as a
/// per-image `weight × cols` row update that writes NCHW directly.
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
) -> (Tensor, Tensor) {
    let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let (oc, ohw) = (g.out_channels, oh * ow);
    let cols = im2col(x, g);
    let patch = cols.shape()[1];
    let (wv, bv) = (weight.as_slice(), bias.as_slice());
    let mut out = vec![0.0f32; n * oc * ohw];
    for (image, planes) in cols
        .as_slice()
        .chunks_exact(patch * ohw)
        .zip(out.chunks_exact_mut(oc * ohw))
    {
        for ((plane, wrow), &b) in planes
            .chunks_exact_mut(ohw)
            .zip(wv.chunks_exact(patch))
            .zip(bv)
        {
            for (&wt, crow) in wrow.iter().zip(image.chunks_exact(ohw)) {
                for (o, &cv) in plane.iter_mut().zip(crow) {
                    *o += cv * wt;
                }
            }
            for o in plane.iter_mut() {
                *o += b;
            }
        }
    }
    (Tensor::from_vec(&[n, oc, oh, ow], out), cols)
}

/// Output pixels per weight-gradient tile: a tile of an image's columns is
/// transposed to `[tile, c·k·k]`, so that each (pixel, output channel)
/// pair adds one contiguous row to the weight gradient.
const WGRAD_TILE: usize = 32;

/// Convolution backward.
///
/// Returns `(grad_input, grad_weight, grad_bias)` given the upstream
/// gradient `grad_out: [n, oc, oh, ow]`, the cached patch-major `cols`
/// from the forward pass and the weight matrix.
///
/// Every sum runs from `+0.0` over images and then output pixels in
/// ascending order (`grad_weight`, `grad_bias`) or over output channels in
/// ascending order (the column gradients); the weight and column gradients
/// leave out terms whose upstream gradient is zero.
pub fn conv2d_backward(
    grad_out: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    g: &ConvGeometry,
    in_h: usize,
    in_w: usize,
) -> (Tensor, Tensor, Tensor) {
    let (n, oc, oh, ow) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    let (ohw, patch, in_plane) = (oh * ow, cols.shape()[1], in_h * in_w);
    let wv = weight.as_slice();
    let mut grad_weight = vec![0.0f32; oc * patch];
    let mut grad_bias = vec![0.0f32; oc];
    let mut grad_input = vec![0.0f32; n * g.in_channels * in_plane];
    let mut tile = vec![0.0f32; WGRAD_TILE * patch];
    let mut grad_cols = vec![0.0f32; patch * ohw];
    for ((gimg, cimg), dst) in grad_out
        .as_slice()
        .chunks_exact(oc * ohw)
        .zip(cols.as_slice().chunks_exact(patch * ohw))
        .zip(grad_input.chunks_exact_mut(g.in_channels * in_plane))
    {
        for (gb, grow) in grad_bias.iter_mut().zip(gimg.chunks_exact(ohw)) {
            for &v in grow {
                *gb += v;
            }
        }
        for q0 in (0..ohw).step_by(WGRAD_TILE) {
            let len = WGRAD_TILE.min(ohw - q0);
            for (p, crow) in cimg.chunks_exact(ohw).enumerate() {
                for (i, &v) in crow[q0..q0 + len].iter().enumerate() {
                    tile[i * patch + p] = v;
                }
            }
            for (i, trow) in tile.chunks_exact(patch).take(len).enumerate() {
                for (gw, grow) in grad_weight
                    .chunks_exact_mut(patch)
                    .zip(gimg.chunks_exact(ohw))
                {
                    let gv = grow[q0 + i];
                    if gv == 0.0 {
                        continue;
                    }
                    for (a, &cv) in gw.iter_mut().zip(trow) {
                        *a += gv * cv;
                    }
                }
            }
        }
        for (p, row) in grad_cols.chunks_exact_mut(ohw).enumerate() {
            row.fill(0.0);
            for (o, grow) in gimg.chunks_exact(ohw).enumerate() {
                let wt = wv[o * patch + p];
                for (r, &gv) in row.iter_mut().zip(grow) {
                    // A zero upstream gradient adds +0.0, which leaves the
                    // sum unchanged (it starts at +0.0, so it is never
                    // −0.0): the same as skipping the term.
                    *r += if gv == 0.0 { 0.0 } else { gv * wt };
                }
            }
        }
        col2im(&grad_cols, g, in_h, in_w, dst);
    }
    (
        Tensor::from_vec(&[n, g.in_channels, in_h, in_w], grad_input),
        Tensor::from_vec(&[oc, patch], grad_weight),
        Tensor::from_vec(&[oc], grad_bias),
    )
}

/// 2×2 average pooling forward on `[n, c, h, w]` (h, w even).
pub fn avgpool2_forward(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert!(
        h % 2 == 0 && w % 2 == 0,
        "avgpool2 requires even spatial dims"
    );
    let (oh, ow) = (h / 2, w / 2);
    let xv = x.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for bc in 0..n * c {
        let src = &xv[bc * h * w..(bc + 1) * h * w];
        let dst = &mut out[bc * oh * ow..(bc + 1) * oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let i = 2 * oy * w + 2 * ox;
                dst[oy * ow + ox] = 0.25 * (src[i] + src[i + 1] + src[i + w] + src[i + w + 1]);
            }
        }
    }
    Tensor::from_vec(&[n, c, oh, ow], out)
}

/// 2×2 average pooling backward.
pub fn avgpool2_backward(grad_out: &Tensor, in_h: usize, in_w: usize) -> Tensor {
    let (n, c, oh, ow) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    let gv = grad_out.as_slice();
    let mut out = vec![0.0f32; n * c * in_h * in_w];
    for bc in 0..n * c {
        let src = &gv[bc * oh * ow..(bc + 1) * oh * ow];
        let dst = &mut out[bc * in_h * in_w..(bc + 1) * in_h * in_w];
        for oy in 0..oh {
            for ox in 0..ow {
                let g = 0.25 * src[oy * ow + ox];
                let i = 2 * oy * in_w + 2 * ox;
                dst[i] += g;
                dst[i + 1] += g;
                dst[i + in_w] += g;
                dst[i + in_w + 1] += g;
            }
        }
    }
    Tensor::from_vec(&[n, c, in_h, in_w], out)
}

/// Global average pooling `[n, c, h, w]` → `[n, c]`.
pub fn global_avgpool_forward(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let inv = 1.0 / (h * w) as f32;
    let xv = x.as_slice();
    let mut out = vec![0.0f32; n * c];
    for (bc, o) in out.iter_mut().enumerate() {
        *o = xv[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() * inv;
    }
    Tensor::from_vec(&[n, c], out)
}

/// Global average pooling backward.
pub fn global_avgpool_backward(grad_out: &Tensor, in_h: usize, in_w: usize) -> Tensor {
    let (n, c) = (grad_out.shape()[0], grad_out.shape()[1]);
    let inv = 1.0 / (in_h * in_w) as f32;
    let gv = grad_out.as_slice();
    let mut out = vec![0.0f32; n * c * in_h * in_w];
    for bc in 0..n * c {
        let g = gv[bc] * inv;
        out[bc * in_h * in_w..(bc + 1) * in_h * in_w]
            .iter_mut()
            .for_each(|x| *x = g);
    }
    Tensor::from_vec(&[n, c, in_h, in_w], out)
}

#[cfg(test)]
mod reference {
    //! The position-major convolution kernels the patch-major ones
    //! replaced, kept as the differential oracle: columns are
    //! `[n·oh·ow, c·k·k]`, the forward pass is a `cols × weightᵀ` product
    //! plus a transpose to NCHW, and the backward pass goes through dense
    //! matmuls on the reordered upstream gradient.

    use super::*;

    pub fn im2col(x: &Tensor, g: &ConvGeometry) -> Tensor {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (g.out_side(h), g.out_side(w));
        let patch = c * g.kernel * g.kernel;
        let mut out = vec![0.0f32; n * oh * ow * patch];
        let xv = x.as_slice();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row_base = ((b * oh + oy) * ow + ox) * patch;
                    for ch in 0..c {
                        for ky in 0..g.kernel {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let src_base = ((b * c + ch) * h + iy as usize) * w;
                            let dst_base = row_base + (ch * g.kernel + ky) * g.kernel;
                            for kx in 0..g.kernel {
                                let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                out[dst_base + kx] = xv[src_base + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[n * oh * ow, patch], out)
    }

    pub fn col2im(cols: &Tensor, g: &ConvGeometry, n: usize, h: usize, w: usize) -> Tensor {
        let c = g.in_channels;
        let (oh, ow) = (g.out_side(h), g.out_side(w));
        let patch = c * g.kernel * g.kernel;
        let mut out = vec![0.0f32; n * c * h * w];
        let cv = cols.as_slice();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row_base = ((b * oh + oy) * ow + ox) * patch;
                    for ch in 0..c {
                        for ky in 0..g.kernel {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let dst_base = ((b * c + ch) * h + iy as usize) * w;
                            let src_base = row_base + (ch * g.kernel + ky) * g.kernel;
                            for kx in 0..g.kernel {
                                let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                out[dst_base + ix as usize] += cv[src_base + kx];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[n, c, h, w], out)
    }

    pub fn conv2d_forward(
        x: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        g: &ConvGeometry,
    ) -> (Tensor, Tensor) {
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (g.out_side(h), g.out_side(w));
        let cols = im2col(x, g);
        let prod = matmul_nt(&cols, weight);
        let oc = g.out_channels;
        let pv = prod.as_slice();
        let bv = bias.as_slice();
        let mut out = vec![0.0f32; n * oc * oh * ow];
        for b in 0..n {
            for pos in 0..oh * ow {
                let src = (b * oh * ow + pos) * oc;
                for o in 0..oc {
                    out[(b * oc + o) * oh * ow + pos] = pv[src + o] + bv[o];
                }
            }
        }
        (Tensor::from_vec(&[n, oc, oh, ow], out), cols)
    }

    pub fn conv2d_backward(
        grad_out: &Tensor,
        cols: &Tensor,
        weight: &Tensor,
        g: &ConvGeometry,
        in_h: usize,
        in_w: usize,
    ) -> (Tensor, Tensor, Tensor) {
        let (n, oc, oh, ow) = (
            grad_out.shape()[0],
            grad_out.shape()[1],
            grad_out.shape()[2],
            grad_out.shape()[3],
        );
        let gv = grad_out.as_slice();
        let mut gmat = vec![0.0f32; n * oh * ow * oc];
        for b in 0..n {
            for o in 0..oc {
                for pos in 0..oh * ow {
                    gmat[(b * oh * ow + pos) * oc + o] = gv[(b * oc + o) * oh * ow + pos];
                }
            }
        }
        let gmat = Tensor::from_vec(&[n * oh * ow, oc], gmat);
        let grad_weight = matmul_tn(&gmat, cols);
        let mut grad_bias = vec![0.0f32; oc];
        for row in gmat.as_slice().chunks(oc) {
            for (gb, &v) in grad_bias.iter_mut().zip(row) {
                *gb += v;
            }
        }
        let grad_cols = matmul(&gmat, weight);
        let grad_input = col2im(&grad_cols, g, n, in_h, in_w);
        (grad_input, grad_weight, Tensor::from_vec(&[oc], grad_bias))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Values spread over 2^-8..2^8 in magnitude, so summation order shows
    /// in the rounding, with exact `0.0` and `−0.0` mixed in.
    fn sample(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0) * 2f32.powi(rng.gen_range(-8..9)),
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// Forward and all three gradients, bit for bit against the reference.
    fn assert_matches_reference(g: ConvGeometry, n: usize, h: usize, w: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let patch = g.in_channels * g.kernel * g.kernel;
        let x = sample(&[n, g.in_channels, h, w], &mut rng);
        let weight = sample(&[g.out_channels, patch], &mut rng);
        let bias = sample(&[g.out_channels], &mut rng);
        let grad_out = sample(&[n, g.out_channels, g.out_side(h), g.out_side(w)], &mut rng);
        assert_conv_matches(g, &x, &weight, &bias, &grad_out);
    }

    fn assert_conv_matches(
        g: ConvGeometry,
        x: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        grad_out: &Tensor,
    ) {
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let (y, cols) = conv2d_forward(x, weight, bias, &g);
        let (y_ref, cols_ref) = reference::conv2d_forward(x, weight, bias, &g);
        assert_eq!(y.shape(), y_ref.shape());
        assert_eq!(bits(&y), bits(&y_ref), "forward differs for {g:?}");
        let (gx, gw, gb) = conv2d_backward(grad_out, &cols, weight, &g, h, w);
        let (gx_ref, gw_ref, gb_ref) =
            reference::conv2d_backward(grad_out, &cols_ref, weight, &g, h, w);
        assert_eq!(bits(&gx), bits(&gx_ref), "grad_input differs for {g:?}");
        assert_eq!(bits(&gw), bits(&gw_ref), "grad_weight differs for {g:?}");
        assert_eq!(bits(&gb), bits(&gb_ref), "grad_bias differs for {g:?}");
    }

    fn geometry(
        ic: usize,
        oc: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> ConvGeometry {
        ConvGeometry {
            in_channels: ic,
            out_channels: oc,
            kernel,
            stride,
            padding,
        }
    }

    #[test]
    fn model_zoo_geometries_match_reference_bit_for_bit() {
        // Stem and block convs, strided block convs, strided 1×1 shortcuts,
        // at the synthetic datasets' 16×16 input and deeper stage sides.
        let cases = [
            (geometry(3, 4, 3, 1, 1), 16),
            (geometry(4, 4, 3, 1, 1), 8),
            (geometry(4, 8, 3, 2, 1), 16),
            (geometry(8, 16, 3, 2, 1), 4),
            (geometry(4, 8, 1, 2, 0), 16),
            (geometry(8, 16, 1, 2, 0), 4),
        ];
        for (i, &(g, side)) in cases.iter().enumerate() {
            assert_matches_reference(g, 3, side, side, i as u64);
        }
    }

    #[test]
    fn non_finite_inputs_and_zero_weights_match_reference() {
        // 0·inf is NaN: every tap is added, zero weights included, so
        // non-finite activations poison the same outputs as the reference.
        let g = geometry(2, 3, 3, 1, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut x = sample(&[2, 2, 5, 5], &mut rng);
        for (i, v) in [(3, f32::INFINITY), (31, f32::NEG_INFINITY), (57, f32::NAN)] {
            x.as_mut_slice()[i] = v;
        }
        let mut weight = sample(&[3, 18], &mut rng);
        for v in weight.as_mut_slice().iter_mut().step_by(4) {
            *v = 0.0;
        }
        let bias = sample(&[3], &mut rng);
        let grad_out = sample(&[2, 3, 5, 5], &mut rng);
        assert_conv_matches(g, &x, &weight, &bias, &grad_out);
        let (y, _) = conv2d_forward(&x, &weight, &bias, &g);
        assert!(y.as_slice().iter().any(|v| v.is_nan()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn conv_matches_reference_bit_for_bit(
            shape in (0usize..2, 1usize..3, 0usize..2, 1usize..6),
            sides in (0usize..5, 0usize..5),
            channels in (1usize..4, 1usize..4),
            seed in any::<u64>(),
        ) {
            let (k, stride, padding, n) = (2 * shape.0 + 1, shape.1, shape.2, shape.3);
            let (h, w) = (2 * sides.0 + 1, 2 * sides.1 + 1);
            prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
            let g = geometry(channels.0, channels.1, k, stride, padding);
            assert_matches_reference(g, n, h, w, seed);
        }
    }

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_variants_agree() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        // aᵀ stored as [3,2]: matmul_tn(aT, b) with aT = a viewed [3,2]... check
        // via explicit transposes instead.
        let at = Tensor::from_vec(&[3, 2], vec![1., 4., 2., 5., 3., 6.]);
        let c_tn = matmul_tn(&at, &b);
        assert_eq!(c.as_slice(), c_tn.as_slice());
        let bt = Tensor::from_vec(&[2, 3], vec![7., 9., 11., 8., 10., 12.]);
        let c_nt = matmul_nt(&a, &bt);
        assert_eq!(c.as_slice(), c_nt.as_slice());
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with weight 1 reproduces the input.
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1], vec![1.0]);
        let b = Tensor::zeros(&[1]);
        let (y, _) = conv2d_forward(&x, &w, &b, &g);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_3x3_sum_kernel_with_padding() {
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let w = Tensor::full(&[1, 9], 1.0);
        let b = Tensor::zeros(&[1]);
        let (y, _) = conv2d_forward(&x, &w, &b, &g);
        // Center sees 9 ones, edges 6, corners 4.
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.as_slice()[4], 9.0);
        assert_eq!(y.as_slice()[0], 4.0);
        assert_eq!(y.as_slice()[1], 6.0);
    }

    #[test]
    fn conv_backward_gradcheck() {
        // Numerical gradient check on a tiny conv.
        let g = ConvGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let n = 2;
        let (h, w) = (4, 4);
        let mut rng_state = 12345u64;
        let mut next = move || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let x = Tensor::from_vec(&[n, 2, h, w], (0..n * 2 * h * w).map(|_| next()).collect());
        let wt = Tensor::from_vec(&[3, 18], (0..54).map(|_| next()).collect());
        let b = Tensor::from_vec(&[3], (0..3).map(|_| next()).collect());

        let loss = |x: &Tensor, wt: &Tensor, b: &Tensor| -> f32 {
            let (y, _) = conv2d_forward(x, wt, b, &g);
            // Loss = sum of squares / 2.
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let (y, cols) = conv2d_forward(&x, &wt, &b, &g);
        let grad_out = y.clone(); // dL/dy = y for L = ||y||^2/2
        let (gx, gw, gb) = conv2d_backward(&grad_out, &cols, &wt, &g, h, w);

        let eps = 1e-2;
        // Check a few weight coordinates.
        for &idx in &[0usize, 7, 23, 53] {
            let mut wp = wt.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wt.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dW[{idx}]: num {num} vs ana {ana}"
            );
        }
        // Check an input coordinate and a bias coordinate.
        let mut xp = x.clone();
        xp.as_mut_slice()[5] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[5] -= eps;
        let num = (loss(&xp, &wt, &b) - loss(&xm, &wt, &b)) / (2.0 * eps);
        assert!((num - gx.as_slice()[5]).abs() < 0.05 * (1.0 + num.abs()));
        let mut bp = b.clone();
        bp.as_mut_slice()[1] += eps;
        let mut bm = b.clone();
        bm.as_mut_slice()[1] -= eps;
        let num = (loss(&x, &wt, &bp) - loss(&x, &wt, &bm)) / (2.0 * eps);
        assert!((num - gb.as_slice()[1]).abs() < 0.05 * (1.0 + num.abs()));
    }

    #[test]
    fn avgpool_roundtrip_shapes() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = avgpool2_forward(&x);
        assert_eq!(y.as_slice(), &[2.5]);
        let gx = avgpool2_backward(&y, 2, 2);
        assert_eq!(gx.as_slice(), &[0.625; 4]);
    }

    #[test]
    fn global_avgpool() {
        let x = Tensor::from_vec(&[1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = global_avgpool_forward(&x);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let g = global_avgpool_backward(&Tensor::from_vec(&[1, 2], vec![4.0, 8.0]), 2, 2);
        assert_eq!(&g.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&g.as_slice()[4..], &[2.0; 4]);
    }

    #[test]
    fn conv_out_side() {
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(g.out_side(16), 8);
        let g2 = ConvGeometry {
            kernel: 3,
            stride: 1,
            padding: 1,
            ..g
        };
        assert_eq!(g2.out_side(16), 16);
    }
}
