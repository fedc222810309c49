//! SynthShapes: a deterministic procedural image-classification dataset.
//!
//! Stands in for ImageNet ILSVRC-2012 (unavailable offline; see DESIGN.md §1).
//! Each class is a parametric generator — shapes and textures with randomised
//! position, scale, colour and pixel noise — so that (a) networks must learn
//! genuinely spatial features, (b) classification accuracy is a real,
//! measurable quantity for the paper's accuracy-constrained optimizer, and
//! (c) zero/non-zero activation patterns vary spatially from image to image,
//! the phenomenon the paper's Figure 2 highlights.
//!
//! Pixel values lie in `[0, 1]`: convolution-layer inputs are non-negative
//! at every layer (the first layer included), which is the precondition for
//! SnaPEA's exact-mode reasoning ("performing MACs with the positive subset
//! of weights keeps the partial sum maximal").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapea_tensor::{Shape4, Tensor4};

/// Number of distinct class generators available.
pub const MAX_CLASSES: usize = 10;

/// One labelled image: a `[1, 3, size, size]` tensor plus its class id.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// The image, shape `[1, 3, size, size]`, values in `[0, 1]`.
    pub image: Tensor4,
    /// Ground-truth class index.
    pub label: usize,
}

/// Dataset generator configuration: image side length and number of classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthShapes {
    size: usize,
    classes: usize,
}

impl SynthShapes {
    /// Creates a generator for `size × size` RGB images over `classes`
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is 0 or exceeds [`MAX_CLASSES`], or `size < 8`.
    pub fn new(size: usize, classes: usize) -> Self {
        assert!(
            (1..=MAX_CLASSES).contains(&classes),
            "1..={MAX_CLASSES} classes"
        );
        assert!(size >= 8, "images must be at least 8x8");
        Self { size, classes }
    }

    /// Image side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Generates `count` images, classes balanced round-robin, deterministic
    /// in `seed`.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<LabeledImage> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| self.sample(i % self.classes, &mut rng))
            .collect()
    }

    /// Generates a single image of class `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.classes()`.
    pub fn sample(&self, label: usize, rng: &mut StdRng) -> LabeledImage {
        assert!(label < self.classes, "label out of range");
        let sz = self.size;
        let bg: f32 = rng.gen_range(0.0..0.25);
        let fg: [f32; 3] = [
            rng.gen_range(0.55..1.0),
            rng.gen_range(0.55..1.0),
            rng.gen_range(0.55..1.0),
        ];
        let cx = rng.gen_range(sz as f32 * 0.3..sz as f32 * 0.7);
        let cy = rng.gen_range(sz as f32 * 0.3..sz as f32 * 0.7);
        let r = rng.gen_range(sz as f32 * 0.18..sz as f32 * 0.38);
        let period = rng.gen_range(2..=4) as f32;
        let phase = rng.gen_range(0.0..period);

        let mut img = Tensor4::from_fn(Shape4::new(1, 3, sz, sz), |_, c, y, x| {
            let (xf, yf) = (x as f32, y as f32);
            let inside = match label {
                // 0: filled circle
                0 => ((xf - cx).powi(2) + (yf - cy).powi(2)).sqrt() <= r,
                // 1: filled square
                1 => (xf - cx).abs() <= r * 0.8 && (yf - cy).abs() <= r * 0.8,
                // 2: triangle (upward)
                2 => {
                    let dy = yf - (cy - r * 0.8);
                    dy >= 0.0 && dy <= 1.6 * r && (xf - cx).abs() <= dy * 0.55
                }
                // 3: horizontal stripes
                3 => ((yf + phase) / period).floor() as i64 % 2 == 0,
                // 4: vertical stripes
                4 => ((xf + phase) / period).floor() as i64 % 2 == 0,
                // 5: diagonal stripes
                5 => ((xf + yf + phase) / period).floor() as i64 % 2 == 0,
                // 6: checkerboard
                6 => {
                    (((xf + phase) / period).floor() as i64
                        + ((yf + phase) / period).floor() as i64)
                        % 2
                        == 0
                }
                // 7: radial gradient disc (soft circle)
                7 => {
                    let d = ((xf - cx).powi(2) + (yf - cy).powi(2)).sqrt();
                    d <= r * 1.3 && (d / (r * 1.3) * 2.0).fract() < 0.75
                }
                // 8: ring (annulus)
                8 => {
                    let d = ((xf - cx).powi(2) + (yf - cy).powi(2)).sqrt();
                    d <= r && d >= r * 0.55
                }
                // 9: plus / cross
                9 => {
                    ((xf - cx).abs() <= r * 0.3 && (yf - cy).abs() <= r)
                        || ((yf - cy).abs() <= r * 0.3 && (xf - cx).abs() <= r)
                }
                // lint:allow(P1) the constructor asserts label < NUM_CLASSES, covering every arm above
                _ => unreachable!("label validated above"),
            };
            if inside {
                fg[c]
            } else {
                bg
            }
        });
        // Additive pixel noise, clamped to [0, 1].
        for v in img.iter_mut() {
            *v = (*v + rng.gen_range(-0.06..0.06)).clamp(0.0, 1.0);
        }
        LabeledImage { image: img, label }
    }

    /// Stacks labelled images into one `[n, 3, size, size]` batch tensor.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or image shapes disagree.
    pub fn batch(items: &[LabeledImage]) -> Tensor4 {
        let refs: Vec<&LabeledImage> = items.iter().collect();
        Self::batch_refs(&refs)
    }

    /// Like [`SynthShapes::batch`] but over references.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or image shapes disagree.
    pub fn batch_refs(items: &[&LabeledImage]) -> Tensor4 {
        assert!(!items.is_empty(), "empty batch");
        let s = items[0].image.shape();
        let os = Shape4::new(items.len(), s.c, s.h, s.w);
        let mut out = Tensor4::zeros(os);
        for (n, item) in items.iter().enumerate() {
            assert_eq!(item.image.shape(), s, "inconsistent image shapes");
            out.item_mut(n).copy_from_slice(item.image.as_slice());
        }
        out
    }

    /// Labels of a slice of images, in order.
    pub fn labels(items: &[LabeledImage]) -> Vec<usize> {
        items.iter().map(|d| d.label).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = SynthShapes::new(16, 10);
        let a = g.generate(20, 7);
        let b = g.generate(20, 7);
        assert_eq!(a, b);
        let c = g.generate(20, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_balanced_round_robin() {
        let g = SynthShapes::new(16, 4);
        let d = g.generate(12, 0);
        for (i, item) in d.iter().enumerate() {
            assert_eq!(item.label, i % 4);
        }
    }

    #[test]
    fn pixels_in_unit_range() {
        let g = SynthShapes::new(16, 10);
        for item in g.generate(30, 3) {
            assert!(item.image.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert_eq!(item.image.shape(), Shape4::new(1, 3, 16, 16));
        }
    }

    #[test]
    fn classes_are_visually_distinct_on_average() {
        // Mean images of different classes should differ substantially.
        let g = SynthShapes::new(16, 3);
        let d = g.generate(60, 1);
        let mut means = vec![vec![0.0f32; 16 * 16 * 3]; 3];
        let mut counts = [0usize; 3];
        for item in &d {
            counts[item.label] += 1;
            for (m, &v) in means[item.label].iter_mut().zip(item.image.iter()) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(counts.iter()) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        assert!(dist(&means[0], &means[1]) > 0.5);
        assert!(dist(&means[1], &means[2]) > 0.5);
    }

    #[test]
    fn batch_stacks_in_order() {
        let g = SynthShapes::new(16, 2);
        let d = g.generate(3, 2);
        let b = SynthShapes::batch(&d);
        assert_eq!(b.shape(), Shape4::new(3, 3, 16, 16));
        assert_eq!(b.item(1), d[1].image.as_slice());
        assert_eq!(SynthShapes::labels(&d), vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn sample_rejects_bad_label() {
        let g = SynthShapes::new(16, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = g.sample(5, &mut rng);
    }
}
