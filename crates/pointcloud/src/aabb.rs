//! Axis-aligned bounding boxes.

use crate::Point3;

/// An axis-aligned bounding box, used to normalize clouds into the unit cube
/// (required by [`crate::morton`]) and to prune octree searches.
///
/// # Example
///
/// ```
/// use mesorasi_pointcloud::{Aabb, Point3};
///
/// let b = Aabb::from_points([Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 4.0, 6.0)])
///     .expect("non-empty");
/// assert_eq!(b.center(), Point3::new(1.0, 2.0, 3.0));
/// assert_eq!(b.extent(), Point3::new(2.0, 4.0, 6.0));
/// assert!(b.contains(Point3::new(1.0, 1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    min: Point3,
    max: Point3,
}

impl Aabb {
    /// Creates a box from its two extreme corners.
    ///
    /// # Panics
    ///
    /// Panics if any component of `min` exceeds the matching component of
    /// `max`.
    pub fn new(min: Point3, max: Point3) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb min {min} must not exceed max {max}"
        );
        Aabb { min, max }
    }

    /// The tightest box containing all `points`, or `None` when the iterator
    /// is empty.
    pub fn from_points<I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = Point3>,
    {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut min = first;
        let mut max = first;
        for p in it {
            min = min.min(p);
            max = max.max(p);
        }
        Some(Aabb { min, max })
    }

    /// Minimum corner.
    #[inline]
    pub fn min(&self) -> Point3 {
        self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max(&self) -> Point3 {
        self.max
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        (self.min + self.max) * 0.5
    }

    /// Side lengths of the box.
    #[inline]
    pub fn extent(&self) -> Point3 {
        self.max - self.min
    }

    /// True if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Squared distance from `p` to the box (zero when inside). The octree
    /// uses this bound to prune subtrees during KNN search.
    #[inline]
    pub fn distance_squared_to(&self, p: Point3) -> f32 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Maps `p` into `[0, 1]^3` relative to this box; degenerate axes map to
    /// `0.5`. Used to quantize coordinates for Morton encoding.
    pub fn normalize(&self, p: Point3) -> Point3 {
        let e = self.extent();
        let f = |v: f32, lo: f32, side: f32| if side > 0.0 { (v - lo) / side } else { 0.5 };
        Point3::new(
            f(p.x, self.min.x, e.x).clamp(0.0, 1.0),
            f(p.y, self.min.y, e.y).clamp(0.0, 1.0),
            f(p.z, self.min.z, e.z).clamp(0.0, 1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_is_tight() {
        let pts =
            [Point3::new(1.0, 2.0, 3.0), Point3::new(-1.0, 5.0, 0.0), Point3::new(0.0, 0.0, 9.0)];
        let b = Aabb::from_points(pts).unwrap();
        assert_eq!(b.min(), Point3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max(), Point3::new(1.0, 5.0, 9.0));
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(Aabb::from_points(std::iter::empty()).is_none());
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_corners_panic() {
        let _ = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::ORIGIN);
    }

    #[test]
    fn contains_boundary_and_interior() {
        let b = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        assert!(b.contains(Point3::ORIGIN));
        assert!(b.contains(Point3::splat(1.0)));
        assert!(b.contains(Point3::splat(0.5)));
        assert!(!b.contains(Point3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn distance_squared_inside_is_zero() {
        let b = Aabb::new(Point3::ORIGIN, Point3::splat(2.0));
        assert_eq!(b.distance_squared_to(Point3::splat(1.0)), 0.0);
        // 1 unit outside along x only.
        assert_eq!(b.distance_squared_to(Point3::new(3.0, 1.0, 1.0)), 1.0);
        // Corner distance: sqrt(3) away from (0,0,0).
        let d = b.distance_squared_to(Point3::new(-1.0, -1.0, -1.0));
        assert!((d - 3.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_maps_to_unit_cube() {
        let b = Aabb::new(Point3::new(-2.0, 0.0, 0.0), Point3::new(2.0, 4.0, 0.0));
        let n = b.normalize(Point3::new(0.0, 1.0, 0.0));
        assert_eq!(n, Point3::new(0.5, 0.25, 0.5)); // degenerate z maps to 0.5
    }
}
