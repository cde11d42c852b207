//! Axis line extraction.
//!
//! 3D max-filtering is performed "by sequential 1D max-filtering of n²
//! arrays in each of the three directions" (paper §II). The 3D FFT is
//! likewise decomposed into 1D transforms along each axis. This module
//! provides the strided line walks both of them need.

use crate::{Tensor3, Vec3};

/// One of the three tensor axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Slowest-varying dimension.
    X = 0,
    /// Middle dimension.
    Y = 1,
    /// Fastest-varying (contiguous) dimension.
    Z = 2,
}

impl Axis {
    /// All three axes in `X, Y, Z` order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];
}

/// Description of the lines along `axis` in a tensor of shape `shape`:
/// how many lines there are, their length, the element stride within a
/// line, and where each line starts.
///
/// Lines are numbered with the slower of the two other axes outermost.
/// Start offsets are computed from the two outer strides on demand, so
/// building a `LineSpec` allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct LineSpec {
    /// Number of 1D lines along this axis (product of the other extents).
    pub count: usize,
    /// Number of elements per line (the extent along the axis).
    pub len: usize,
    /// Linear stride between consecutive elements of a line.
    pub stride: usize,
    /// Extent of the faster of the two other axes.
    inner: usize,
    /// Linear strides of the slower and the faster other axis.
    outer_strides: [usize; 2],
}

impl LineSpec {
    /// Computes the line decomposition of `shape` along `axis`.
    pub fn new(shape: Vec3, axis: Axis) -> Self {
        let strides = [shape[1] * shape[2], shape[2], 1];
        let a = axis as usize;
        let (o1, o2) = match axis {
            Axis::X => (1, 2),
            Axis::Y => (0, 2),
            Axis::Z => (0, 1),
        };
        LineSpec {
            count: shape[o1] * shape[o2],
            len: shape[a],
            stride: strides[a],
            inner: shape[o2],
            outer_strides: [strides[o1], strides[o2]],
        }
    }

    /// Linear offset of the first element of line `idx`.
    #[inline]
    pub fn start(&self, idx: usize) -> usize {
        debug_assert!(idx < self.count);
        (idx / self.inner) * self.outer_strides[0] + (idx % self.inner) * self.outer_strides[1]
    }

    /// Copies line `idx` of `src` into `buf` (which must have length
    /// [`LineSpec::len`]).
    pub fn read_line<T: Copy>(&self, src: &Tensor3<T>, idx: usize, buf: &mut [T]) {
        debug_assert_eq!(buf.len(), self.len);
        let data = src.as_slice();
        let mut p = self.start(idx);
        for b in buf.iter_mut() {
            *b = data[p];
            p += self.stride;
        }
    }

    /// Writes `buf` back as line `idx` of `dst`.
    pub fn write_line<T: Copy>(&self, dst: &mut Tensor3<T>, idx: usize, buf: &[T]) {
        debug_assert_eq!(buf.len(), self.len);
        let data = dst.as_mut_slice();
        let mut p = self.start(idx);
        for b in buf {
            data[p] = *b;
            p += self.stride;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: Vec3) -> Tensor3<f32> {
        Tensor3::from_fn(shape, |at| shape.offset(at) as f32)
    }

    #[test]
    fn z_lines_are_unit_stride() {
        let s = Vec3::new(2, 3, 4);
        let spec = LineSpec::new(s, Axis::Z);
        assert_eq!(spec.count, 6);
        assert_eq!(spec.len, 4);
        assert_eq!(spec.stride, 1);
    }

    #[test]
    fn x_lines_cross_slices() {
        let s = Vec3::new(3, 2, 2);
        let t = seq(s);
        let spec = LineSpec::new(s, Axis::X);
        assert_eq!(spec.count, 4);
        assert_eq!(spec.len, 3);
        assert_eq!(spec.stride, 4);
        let mut buf = vec![0.0; 3];
        spec.read_line(&t, 0, &mut buf);
        assert_eq!(buf, vec![t.at((0, 0, 0)), t.at((1, 0, 0)), t.at((2, 0, 0))]);
    }

    #[test]
    fn read_write_round_trip_every_axis() {
        let s = Vec3::new(3, 4, 5);
        let t = seq(s);
        for axis in Axis::ALL {
            let spec = LineSpec::new(s, axis);
            assert_eq!(spec.count * spec.len, s.len());
            let mut copy = Tensor3::<f32>::zeros(s);
            let mut buf = vec![0.0; spec.len];
            for i in 0..spec.count {
                spec.read_line(&t, i, &mut buf);
                spec.write_line(&mut copy, i, &buf);
            }
            assert_eq!(copy, t, "axis {axis:?}");
        }
    }

    #[test]
    fn lines_partition_the_tensor() {
        let s = Vec3::new(2, 3, 4);
        for axis in Axis::ALL {
            let spec = LineSpec::new(s, axis);
            let mut seen = vec![false; s.len()];
            for i in 0..spec.count {
                let mut p = spec.start(i);
                for _ in 0..spec.len {
                    assert!(!seen[p], "offset {p} visited twice on {axis:?}");
                    seen[p] = true;
                    p += spec.stride;
                }
            }
            assert!(seen.iter().all(|&v| v));
        }
    }
}
