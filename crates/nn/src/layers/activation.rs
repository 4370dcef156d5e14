//! Activation layers.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// Rectified linear unit.
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let mask: Vec<bool> = x.as_slice().iter().map(|&v| v > 0.0).collect();
        let y = x.map(|v| v.max(0.0));
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward");
        let data = grad_out
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape(), data)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "relu"
    }

    fn clear_cache(&mut self) {
        self.mask = None;
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let g = r.backward(&Tensor::full(&[4], 1.0));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn relu_has_no_params() {
        let mut r = Relu::new();
        let mut count = 0;
        r.visit_params(&mut |_| count += 1);
        assert_eq!(count, 0);
    }
}
