//! Shared setup of the golden-digest suites: a streaming FNV-1a-64 over
//! bit patterns, and the fixed SynthShapes images every digest is taken
//! on.

use snapea_suite::nn::data::{LabeledImage, SynthShapes};
use snapea_suite::nn::zoo::INPUT_SIZE;
use snapea_suite::tensor::Tensor4;

/// Streaming FNV-1a-64.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Shape, then every element's bit pattern. (Each test crate that
    /// includes this module uses only part of it.)
    #[allow(dead_code)]
    pub fn tensor(&mut self, t: &Tensor4) {
        let s = t.shape();
        for d in [s.n, s.c, s.h, s.w] {
            self.u64(d as u64);
        }
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// `n` images of the fixed SynthShapes set.
pub fn images(n: usize) -> Vec<LabeledImage> {
    SynthShapes::new(INPUT_SIZE, 10).generate(n, 0x60_1D)
}

/// The fixed batches: the first image alone, then the first three.
#[allow(dead_code)]
pub fn batches() -> [Tensor4; 2] {
    let data = images(3);
    [SynthShapes::batch(&data[..1]), SynthShapes::batch(&data)]
}
