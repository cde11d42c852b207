use crate::storage::{BufferSource, Storage};
use crate::Vec3;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// An owned, contiguous, row-major 3D tensor.
///
/// The element type is generic so the same container backs spatial images
/// (`Tensor3<f32>`) and frequency-domain images (`Tensor3<Complex32>`).
/// Layout is `[x][y][z]` with `z` fastest, matching [`Vec3::offset`].
///
/// The backing buffer may be **leased** from a [`BufferSource`] (see
/// [`Tensor3::leased`]): such a tensor behaves identically — same
/// layout, same ops, [`Clone`] stays pooled — but its storage returns
/// to the source when the tensor drops instead of being freed. That is
/// how the training engine keeps steady-state rounds allocation-free
/// (paper §VII-C).
#[derive(Clone, PartialEq)]
pub struct Tensor3<T> {
    shape: Vec3,
    data: Storage<T>,
}

impl<T: Copy + Default> Tensor3<T> {
    /// A tensor of the given shape filled with `T::default()` (zero for
    /// the numeric types used throughout ZNN).
    pub fn zeros(shape: impl Into<Vec3>) -> Self {
        let shape = shape.into();
        Tensor3 {
            shape,
            data: Storage::raw(vec![T::default(); shape.len()]),
        }
    }

    /// A zero-filled tensor whose buffer is leased from `home` and
    /// recycled there on drop. Pooling is invisible to every other
    /// API: a leased tensor is value-equal to its [`Tensor3::zeros`]
    /// twin, and clones lease fresh buffers from the same source.
    pub fn leased(shape: impl Into<Vec3>, home: Arc<dyn BufferSource<T>>) -> Self {
        let shape = shape.into();
        Tensor3 {
            shape,
            data: Storage::leased(home, shape.len()),
        }
    }
}

impl<T: Copy> Tensor3<T> {
    /// A tensor of the given shape with every voxel set to `value`.
    pub fn filled(shape: impl Into<Vec3>, value: T) -> Self {
        let shape = shape.into();
        Tensor3 {
            shape,
            data: Storage::raw(vec![value; shape.len()]),
        }
    }

    /// Wraps an existing buffer. `data.len()` must equal `shape.len()`.
    pub fn from_vec(shape: impl Into<Vec3>, data: Vec<T>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer of {} elements cannot have shape {shape}",
            data.len()
        );
        Tensor3 {
            shape,
            data: Storage::raw(data),
        }
    }

    /// The [`BufferSource`] this tensor's buffer returns to on drop, if
    /// it is pooled.
    pub fn home(&self) -> Option<&Arc<dyn BufferSource<T>>> {
        self.data.home()
    }

    /// Builds a tensor by evaluating `f` at every coordinate.
    pub fn from_fn(shape: impl Into<Vec3>, mut f: impl FnMut(Vec3) -> T) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.len());
        for at in shape.iter() {
            data.push(f(at));
        }
        Tensor3 {
            shape,
            data: Storage::raw(data),
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> Vec3 {
        self.shape
    }

    /// Number of voxels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no voxels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying buffer in layout order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Mutable access to the underlying buffer in layout order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// Consumes the tensor, returning its buffer. A pooled buffer
    /// leaves its source's custody (it will be freed normally).
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_vec()
    }

    /// Voxel at `at` without bounds checks beyond debug assertions.
    ///
    /// Hot loops should index the slice directly with precomputed strides;
    /// this accessor is for tests and cold paths.
    #[inline]
    pub fn at(&self, at: impl Into<Vec3>) -> T {
        let at = at.into();
        self.data.as_slice()[self.shape.offset(at)]
    }

    /// Sets the voxel at `at`.
    #[inline]
    pub fn set(&mut self, at: impl Into<Vec3>, v: T) {
        let at = at.into();
        let i = self.shape.offset(at);
        self.data.as_mut_slice()[i] = v;
    }

    /// The contiguous `z` line at `(x, y)` — the unit the separable
    /// max-filter and axis FFTs operate on.
    #[inline]
    pub fn z_line(&self, x: usize, y: usize) -> &[T] {
        let start = self.shape.offset(Vec3::new(x, y, 0));
        &self.data.as_slice()[start..start + self.shape[2]]
    }

    /// Mutable contiguous `z` line at `(x, y)`.
    #[inline]
    pub fn z_line_mut(&mut self, x: usize, y: usize) -> &mut [T] {
        let start = self.shape.offset(Vec3::new(x, y, 0));
        let len = self.shape[2];
        &mut self.data.as_mut_slice()[start..start + len]
    }

    /// Reinterprets the buffer under a new shape with the same voxel
    /// count (e.g. collapsing a unit axis). A pooled buffer keeps its
    /// lease.
    pub fn reshaped(self, shape: impl Into<Vec3>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} voxels to {shape}",
            self.data.len()
        );
        Tensor3 {
            shape,
            data: self.data,
        }
    }

    /// Applies `f` to every voxel, producing a new tensor of the same
    /// shape.
    pub fn map<U: Copy>(&self, f: impl FnMut(T) -> U) -> Tensor3<U> {
        Tensor3 {
            shape: self.shape,
            data: Storage::raw(self.data.as_slice().iter().copied().map(f).collect()),
        }
    }
}

impl<T: Copy> Index<Vec3> for Tensor3<T> {
    type Output = T;
    #[inline]
    fn index(&self, at: Vec3) -> &T {
        &self.data.as_slice()[self.shape.offset(at)]
    }
}

impl<T: Copy> IndexMut<Vec3> for Tensor3<T> {
    #[inline]
    fn index_mut(&mut self, at: Vec3) -> &mut T {
        let i = self.shape.offset(at);
        &mut self.data.as_mut_slice()[i]
    }
}

impl<T: fmt::Debug + Copy> fmt::Debug for Tensor3<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor3<{}> {{", std::any::type_name::<T>())?;
        for x in 0..self.shape[0] {
            writeln!(f, "  x={x}:")?;
            for y in 0..self.shape[1] {
                write!(f, "    ")?;
                for z in 0..self.shape[2] {
                    write!(f, "{:?} ", self.at(Vec3::new(x, y, z)))?;
                }
                writeln!(f)?;
            }
        }
        write!(f, "}}")
    }
}

impl Tensor3<f32> {
    /// Maximum absolute difference against another tensor of the same
    /// shape — the metric used by the equivalence and gradient tests.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .as_slice()
            .iter()
            .zip(other.data.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Sum of all voxels (used by the bias-gradient rule, §III-B).
    pub fn sum(&self) -> f32 {
        // Pairwise summation keeps the error O(log n) instead of O(n),
        // which matters for the large flat images in gradient tests.
        fn pairwise(s: &[f32]) -> f64 {
            if s.len() <= 32 {
                s.iter().map(|&v| v as f64).sum()
            } else {
                let (a, b) = s.split_at(s.len() / 2);
                pairwise(a) + pairwise(b)
            }
        }
        pairwise(self.data.as_slice()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let t = Tensor3::<f32>::zeros(Vec3::new(2, 3, 4));
        assert_eq!(t.len(), 24);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        let u = Tensor3::filled(Vec3::cube(2), 1.5f32);
        assert!(u.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn from_fn_matches_layout() {
        let s = Vec3::new(2, 3, 4);
        let t = Tensor3::from_fn(s, |at| s.offset(at) as f32);
        for (i, &v) in t.as_slice().iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }

    #[test]
    fn z_lines_are_contiguous() {
        let s = Vec3::new(2, 2, 5);
        let t = Tensor3::from_fn(s, |at| s.offset(at) as f32);
        assert_eq!(t.z_line(1, 0), &[10.0, 11.0, 12.0, 13.0, 14.0]);
        let mut u = t.clone();
        u.z_line_mut(0, 1)[2] = -1.0;
        assert_eq!(u.at((0, 1, 2)), -1.0);
    }

    #[test]
    fn index_and_set_round_trip() {
        let mut t = Tensor3::<f32>::zeros(Vec3::cube(3));
        t.set((1, 2, 0), 7.0);
        assert_eq!(t.at((1, 2, 0)), 7.0);
        assert_eq!(t[Vec3::new(1, 2, 0)], 7.0);
        t[Vec3::new(0, 0, 2)] = 3.0;
        assert_eq!(t.at((0, 0, 2)), 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_rejects_wrong_length() {
        let _ = Tensor3::from_vec(Vec3::cube(2), vec![0.0f32; 7]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor3::from_vec(Vec3::new(1, 2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let u = t.reshaped(Vec3::new(2, 3, 1));
        assert_eq!(u.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn sum_is_accurate_on_large_uniform_tensor() {
        let t = Tensor3::filled(Vec3::cube(32), 0.1f32);
        let expect = 32.0f64 * 32.0 * 32.0 * 0.1;
        assert!((t.sum() as f64 - expect).abs() < 1e-2);
    }

    #[test]
    fn max_abs_diff_detects_single_voxel_change() {
        let a = Tensor3::<f32>::zeros(Vec3::cube(4));
        let mut b = a.clone();
        b.set((3, 3, 3), 0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }
}
