//! Synthetic training data (the substitution for the paper's EM /
//! ImageNet volumes).
//!
//! Throughput experiments only need correctly-shaped samples; the
//! convergence tests and the boundary-detection example use
//! [`BlobsDataset`], a procedural stand-in for the neuronal boundary
//! detection task of the paper's own applications [13][23]: volumes
//! filled with soft spheres ("cell bodies") whose thresholded rims form
//! the target boundary map.

use znn_tensor::{ops, Image, Tensor3, Vec3};

/// A source of (inputs, targets) training pairs.
pub trait Dataset {
    /// The `round`-th sample: one image per network input node and one
    /// target per output node.
    fn sample(&mut self, round: u64) -> (Vec<Image>, Vec<Image>);
}

/// Pure random fields — shape-correct data for throughput benchmarks.
pub struct RandomDataset {
    /// Input patch shape.
    pub input_shape: Vec3,
    /// Output patch shape.
    pub output_shape: Vec3,
    /// Number of input nodes.
    pub inputs: usize,
    /// Number of output nodes.
    pub outputs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Dataset for RandomDataset {
    fn sample(&mut self, round: u64) -> (Vec<Image>, Vec<Image>) {
        let ins = (0..self.inputs)
            .map(|i| ops::random(self.input_shape, self.seed ^ round ^ (i as u64) << 32))
            .collect();
        let outs = (0..self.outputs)
            .map(|i| {
                ops::random(self.output_shape, !self.seed ^ round ^ (i as u64) << 32)
                    .map(|v| if v > 0.0 { 1.0 } else { 0.0 })
            })
            .collect();
        (ins, outs)
    }
}

/// Procedural "boundary detection" volumes.
///
/// Each sample scatters a few soft spheres in the input volume; the
/// input voxel value is the summed soft density plus noise, and the
/// target marks voxels near a sphere *surface* — a learnable local
/// edge-detection task with the flavour of the connectomics workloads
/// ZNN was built for.
pub struct BlobsDataset {
    /// Input patch shape.
    pub input_shape: Vec3,
    /// Output patch shape (centered crop of the full target volume).
    pub output_shape: Vec3,
    /// Number of spheres per volume.
    pub blobs: usize,
    /// Noise amplitude added to the input.
    pub noise: f32,
    /// Base seed.
    pub seed: u64,
}

impl BlobsDataset {
    fn build(&self, round: u64) -> (Image, Image) {
        let n = self.input_shape;
        let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
        // sphere centers and radii
        let centers: Vec<(f32, f32, f32, f32)> = (0..self.blobs)
            .map(|b| {
                let r = |j: u64| (ops::splitmix_f32(seed, b as u64 * 7 + j) + 1.0) * 0.5;
                (
                    r(0) * n[0] as f32,
                    r(1) * n[1] as f32,
                    r(2) * n[2] as f32,
                    2.0 + r(3) * 0.25 * n.0.iter().copied().min().unwrap_or(4) as f32,
                )
            })
            .collect();
        let mut input = Tensor3::<f32>::zeros(n);
        let mut boundary = Tensor3::<f32>::zeros(n);
        for at in n.iter() {
            let mut density = 0.0f32;
            let mut min_surface = f32::INFINITY;
            for &(cx, cy, cz, r) in &centers {
                let d = ((at[0] as f32 - cx).powi(2)
                    + (at[1] as f32 - cy).powi(2)
                    + (at[2] as f32 - cz).powi(2))
                .sqrt();
                density += (-((d / r).powi(2))).exp();
                min_surface = min_surface.min((d - r).abs());
            }
            let noise = self.noise * ops::splitmix_f32(seed ^ 0xBEEF, n.offset(at) as u64);
            input[at] = density + noise;
            boundary[at] = if min_surface < 1.0 { 1.0 } else { 0.0 };
        }
        (input, boundary)
    }
}

impl Dataset for BlobsDataset {
    fn sample(&mut self, round: u64) -> (Vec<Image>, Vec<Image>) {
        let (input, boundary) = self.build(round);
        // the target is the centered crop matching the output patch
        let n = self.input_shape;
        let o = self.output_shape;
        let at = Vec3::new((n[0] - o[0]) / 2, (n[1] - o[1]) / 2, (n[2] - o[2]) / 2);
        let target = znn_tensor::pad::crop(&boundary, at, o);
        (vec![input], vec![target])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_dataset_shapes_and_determinism() {
        let mut d = RandomDataset {
            input_shape: Vec3::cube(6),
            output_shape: Vec3::cube(2),
            inputs: 2,
            outputs: 1,
            seed: 5,
        };
        let (i1, o1) = d.sample(3);
        let (i2, o2) = d.sample(3);
        assert_eq!(i1.len(), 2);
        assert_eq!(o1.len(), 1);
        assert_eq!(i1[0].shape(), Vec3::cube(6));
        assert_eq!(o1[0].shape(), Vec3::cube(2));
        assert_eq!(i1[0], i2[0]);
        assert_eq!(o1[0], o2[0]);
        let (i3, _) = d.sample(4);
        assert_ne!(i1[0], i3[0], "different rounds differ");
    }

    #[test]
    fn random_targets_are_binary() {
        let mut d = RandomDataset {
            input_shape: Vec3::cube(4),
            output_shape: Vec3::cube(4),
            inputs: 1,
            outputs: 1,
            seed: 9,
        };
        let (_, o) = d.sample(0);
        assert!(o[0].as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn blobs_have_signal_and_boundaries() {
        let mut d = BlobsDataset {
            input_shape: Vec3::cube(12),
            output_shape: Vec3::cube(6),
            blobs: 3,
            noise: 0.05,
            seed: 11,
        };
        let (ins, outs) = d.sample(0);
        assert_eq!(ins[0].shape(), Vec3::cube(12));
        assert_eq!(outs[0].shape(), Vec3::cube(6));
        // the input has structure (nonconstant) and the target is binary
        // with at least some boundary voxels across a few samples
        assert!(ins[0].as_slice().iter().any(|&v| v > 0.5));
        let mut boundary_voxels = 0;
        for round in 0..4 {
            let (_, outs) = d.sample(round);
            assert!(outs[0].as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
            boundary_voxels += outs[0].as_slice().iter().filter(|&&v| v == 1.0).count();
        }
        assert!(boundary_voxels > 0, "no boundary voxels generated");
    }
}
