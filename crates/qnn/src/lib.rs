//! # dd-qnn — 8-bit weight quantization and the victim model zoo
//!
//! Bridges the float training substrate (`dd-nn`) and the bit-level world
//! the RowHammer attacker lives in:
//!
//! * [`quant`] — symmetric 8-bit quantization and two's-complement bit
//!   primitives (`weight_bit`, `flip_weight_bit`, `flip_delta`);
//! * [`qtensor`] — a quantized parameter tensor with byte/DRAM views;
//! * [`qmodel`] — [`qmodel::QModel`]: a float network kept in exact sync
//!   with its `i8` weight store, plus [`qmodel::BitAddr`] bit addressing
//!   and gradient-based flip-gain estimation;
//! * [`models`] — scaled-down VGG-11 / ResNet-18/20/34 victim builders.
//!
//! ## Example
//!
//! ```
//! use dd_nn::init::seeded_rng;
//! use dd_nn::layers::{Flatten, Linear};
//! use dd_nn::model::Network;
//! use dd_qnn::{BitAddr, QModel};
//!
//! let mut rng = seeded_rng(1);
//! let net = Network::new("m")
//!     .push(Flatten::new())
//!     .push(Linear::kaiming("fc", 4, 2, &mut rng));
//! let mut qm = QModel::from_network(net);
//!
//! // Flip the sign bit of weight 0 and undo it.
//! let flip = qm.flip_bit(BitAddr { param: 0, index: 0, bit: 7 });
//! assert_ne!(flip.old, flip.new);
//! qm.unflip(flip);
//! ```

pub mod models;
pub mod qmodel;
pub mod qtensor;
pub mod quant;

pub use models::{build_model, Architecture, ModelConfig};
pub use qmodel::{BitAddr, BitFlip, ForwardRecord, QModel};
pub use qtensor::QTensor;
pub use quant::{
    flip_delta, flip_weight_bit, hamming_distance, weight_bit, QuantParams, WEIGHT_BITS,
};
