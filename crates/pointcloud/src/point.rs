//! A point in 3-D Cartesian space.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

/// A point (or vector) in 3-D Cartesian space, the fundamental unit of a
/// point cloud (paper §II: "each point is uniquely identified by its
/// `<x, y, z>` coordinates").
///
/// `Point3` is used both as a position and as a displacement; the paper's
/// aggregation step computes displacements `p_k - p_i`, so the arithmetic
/// operators below are part of the algorithm, not mere convenience.
///
/// # Example
///
/// ```
/// use mesorasi_pointcloud::Point3;
///
/// let centroid = Point3::new(1.0, 0.0, 0.0);
/// let neighbor = Point3::new(1.0, 2.0, 0.0);
/// let offset = neighbor - centroid;
/// assert_eq!(offset, Point3::new(0.0, 2.0, 0.0));
/// assert_eq!(offset.norm(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// X coordinate.
    pub x: f32,
    /// Y coordinate.
    pub y: f32,
    /// Z coordinate.
    pub z: f32,
}

impl Point3 {
    /// The origin, `(0, 0, 0)`.
    pub const ORIGIN: Point3 = Point3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a point from its three coordinates.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Point3 { x, y, z }
    }

    /// Creates a point with all coordinates equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Point3 { x: v, y: v, z: v }
    }

    /// Returns the coordinates as a `[x, y, z]` array, the layout used when
    /// a cloud is flattened into an `N×3` feature matrix.
    #[inline]
    pub const fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Creates a point from a `[x, y, z]` array.
    #[inline]
    pub const fn from_array(a: [f32; 3]) -> Self {
        Point3 { x: a[0], y: a[1], z: a[2] }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Point3) -> f32 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Squared Euclidean norm. Neighbor search compares squared distances to
    /// avoid the square root on the hot path.
    #[inline]
    pub fn norm_squared(self) -> f32 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f32 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn distance_squared(self, other: Point3) -> f32 {
        (self - other).norm_squared()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point3) -> f32 {
        self.distance_squared(other).sqrt()
    }

    /// Component-wise minimum, used to grow bounding boxes.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3 { x: self.x.min(other.x), y: self.y.min(other.y), z: self.z.min(other.z) }
    }

    /// Component-wise maximum, used to grow bounding boxes.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3 { x: self.x.max(other.x), y: self.y.max(other.y), z: self.z.max(other.z) }
    }

    /// True if all coordinates are finite. Generators debug-assert this so a
    /// NaN never reaches neighbor search (where it would poison ordering).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        *self = *self + rhs;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Point3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Point3) {
        *self = *self - rhs;
    }
}

impl Mul<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, rhs: f32) -> Point3 {
        Point3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, rhs: f32) -> Point3 {
        Point3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Point3 {
    type Output = f32;

    /// Indexes the coordinates as `0 → x`, `1 → y`, `2 → z`, for code that
    /// loops over axes.
    ///
    /// # Panics
    ///
    /// Panics if `axis > 2`.
    #[inline]
    fn index(&self, axis: usize) -> &f32 {
        match axis {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Point3 axis out of range: {axis}"),
        }
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<[f32; 3]> for Point3 {
    fn from(a: [f32; 3]) -> Self {
        Point3::from_array(a)
    }
}

impl From<Point3> for [f32; 3] {
    fn from(p: Point3) -> Self {
        p.to_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_matches_componentwise_definition() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Point3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Point3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, -2.5, 3.0));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_product() {
        let x = Point3::new(1.0, 0.0, 0.0);
        let y = Point3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
    }

    #[test]
    fn distances() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(3.0, 4.0, 0.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point3::new(1.0, 5.0, -2.0);
        let b = Point3::new(2.0, 3.0, -1.0);
        assert_eq!(a.min(b), Point3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Point3::new(2.0, 5.0, -1.0));
    }

    #[test]
    fn index_by_axis() {
        let p = Point3::new(7.0, 8.0, 9.0);
        assert_eq!(p[0], 7.0);
        assert_eq!(p[1], 8.0);
        assert_eq!(p[2], 9.0);
    }

    #[test]
    #[should_panic(expected = "axis out of range")]
    fn index_out_of_range_panics() {
        let _ = Point3::ORIGIN[3];
    }

    #[test]
    fn array_round_trip() {
        let p = Point3::new(1.5, 2.5, 3.5);
        assert_eq!(Point3::from_array(p.to_array()), p);
        let arr: [f32; 3] = p.into();
        assert_eq!(Point3::from(arr), p);
    }
}
