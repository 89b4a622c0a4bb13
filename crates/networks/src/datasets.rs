//! Task datasets assembled from the synthetic generators: train/test splits
//! for classification (ModelNet40 stand-in), part segmentation (ShapeNet
//! stand-in) and frustum detection (KITTI stand-in).

use mesorasi_pointcloud::lidar::{self, LidarConfig};
use mesorasi_pointcloud::parts::{self, Category};
use mesorasi_pointcloud::sampling;
use mesorasi_pointcloud::shapes::{self, ShapeClass};
use mesorasi_pointcloud::{transform, PointCloud};

/// One labelled example.
#[derive(Debug, Clone)]
pub struct Example {
    /// The input cloud (per-point labels populated for segmentation and
    /// detection examples).
    pub cloud: PointCloud,
    /// Task label: class id for classification; category id for
    /// segmentation (per-point labels live on the cloud); object class for
    /// detection.
    pub label: u32,
}

/// A train/test split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Training examples.
    pub train: Vec<Example>,
    /// Held-out test examples.
    pub test: Vec<Example>,
}

impl Dataset {
    /// Applies light training augmentation (jitter + mild scaling) to a
    /// clone of training example `i` — fresh randomness per `epoch`.
    ///
    /// The paper's training uses full rotation augmentation over ~10⁵
    /// steps; the reduced-scale Fig. 16 experiment trains for minutes, so
    /// full rotations would leave the small models underfit (they collapse
    /// to uniform predictions). Light augmentation preserves the
    /// regularization role without that failure mode.
    pub fn augmented_train_cloud(&self, i: usize, epoch: u64) -> PointCloud {
        let mut cloud = self.train[i].cloud.clone();
        let seed = ((i as u64) * 1_000_003) ^ epoch;
        transform::random_scale(&mut cloud, 0.9, 1.1, seed.wrapping_mul(5));
        transform::jitter(&mut cloud, 0.01, 0.05, seed.wrapping_mul(7));
        cloud
    }
}

/// Classification dataset over the first `classes` shape classes, with
/// `per_class_train`/`per_class_test` instances of `points` points each.
///
/// # Panics
///
/// Panics if `classes` is zero or exceeds the 40-class label space.
pub fn classification(
    classes: usize,
    points: usize,
    per_class_train: usize,
    per_class_test: usize,
    seed: u64,
) -> Dataset {
    assert!(classes > 0 && classes <= ShapeClass::ALL.len(), "classes out of range");
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (c, &class) in ShapeClass::ALL.iter().take(classes).enumerate() {
        for i in 0..per_class_train {
            let s = seed ^ ((c as u64) << 32) ^ (i as u64);
            train.push(Example { cloud: shapes::sample_shape(class, points, s), label: c as u32 });
        }
        for i in 0..per_class_test {
            let s = seed ^ ((c as u64) << 32) ^ 0xdead_0000 ^ (i as u64);
            test.push(Example { cloud: shapes::sample_shape(class, points, s), label: c as u32 });
        }
    }
    Dataset { train, test }
}

/// Part-segmentation dataset over the synthetic categories (per-point part
/// labels on each cloud).
pub fn segmentation(
    categories_used: usize,
    points: usize,
    per_cat_train: usize,
    per_cat_test: usize,
    seed: u64,
) -> (Dataset, Vec<Category>, u32) {
    let cats = parts::categories();
    assert!(categories_used > 0 && categories_used <= cats.len(), "categories out of range");
    let used: Vec<Category> = cats.into_iter().take(categories_used).collect();
    let total_parts: u32 = used.iter().map(|c| c.part_offset + c.part_count).max().unwrap_or(0);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (c, cat) in used.iter().enumerate() {
        for i in 0..per_cat_train {
            let s = seed ^ ((c as u64) << 24) ^ (i as u64);
            train.push(Example { cloud: parts::sample_labelled(*cat, points, s), label: c as u32 });
        }
        for i in 0..per_cat_test {
            let s = seed ^ ((c as u64) << 24) ^ 0xbeef_0000 ^ (i as u64);
            test.push(Example { cloud: parts::sample_labelled(*cat, points, s), label: c as u32 });
        }
    }
    (Dataset { train, test }, used, total_parts)
}

/// A detection example: a frustum crop around one object, with per-point
/// object/background labels (collapsed to 0/1) and the ground-truth
/// birds-eye-view box.
#[derive(Debug, Clone)]
pub struct FrustumExample {
    /// The frustum cloud, labels collapsed to 1 = target object, 0 = rest.
    pub cloud: PointCloud,
    /// Object class (0 car, 1 pedestrian, 2 cyclist).
    pub class: u32,
    /// Ground-truth BEV box `(cx, cy, w, h)` in the frustum frame.
    pub bev_box: (f32, f32, f32, f32),
}

/// Fewest LiDAR returns the target object must have for its frustum to
/// become an example. Below this the ground-truth mask degenerates (the
/// crop centroid collapses to the whole-frustum centroid, metres away
/// from the object) and no detector — however trained — can anchor a
/// box; such frustums made the BEV IoU metric identically zero at small
/// scene scales.
const MIN_OBJECT_RETURNS: usize = 6;

/// Generates frustum detection examples by ray-casting scenes and cropping
/// a frustum per object with enough LiDAR returns
/// (`MIN_OBJECT_RETURNS`). Resampling to `points_per_frustum` is
/// stratified by label so the object's returns survive it.
pub fn frustums(scenes: usize, points_per_frustum: usize, seed: u64) -> Vec<FrustumExample> {
    let config = LidarConfig::small();
    let mut out = Vec::new();
    for s in 0..scenes {
        let scene = lidar::generate_scene(&config, 5, seed ^ (s as u64) << 8);
        let labels = scene.cloud.labels().expect("scene clouds are labelled");
        for (i, obj) in scene.objects.iter().enumerate() {
            let tag = i as u32 + 1;
            if !labels.contains(&tag) {
                continue; // occluded or out of range: no returns
            }
            let frustum = scene.frustum(i, 0.15);
            if frustum.len() < 8 {
                continue;
            }
            // Collapse labels to binary and recenter on the frustum median.
            let binary: Vec<u32> =
                frustum.labels().expect("labelled").iter().map(|&l| u32::from(l == tag)).collect();
            if binary.iter().filter(|&&l| l == 1).count() < MIN_OBJECT_RETURNS {
                continue; // too sparse to anchor a box
            }
            let mut cloud = PointCloud::from_labelled_points(frustum.points().to_vec(), binary);
            let centroid = cloud.centroid();
            for p in cloud.points_mut() {
                *p -= centroid;
            }
            let cloud = resample_stratified(&cloud, points_per_frustum, seed ^ (i as u64));
            let (hx, hy, _) = obj.class.half_extents();
            // Axis-aligned BEV footprint of the yawed box.
            let (sy, cy_) = obj.yaw.sin_cos();
            let w = 2.0 * (hx * cy_.abs() + hy * sy.abs());
            let h = 2.0 * (hx * sy.abs() + hy * cy_.abs());
            out.push(FrustumExample {
                cloud,
                class: obj.class.label(),
                bev_box: (obj.center.x - centroid.x, obj.center.y - centroid.y, w, h),
            });
        }
    }
    out
}

/// Resamples a binary-labelled frustum to `count` points, keeping
/// foreground and background in proportion but never fewer than
/// [`MIN_OBJECT_RETURNS`] foreground points (uniform resampling routinely
/// diluted a handful of object returns to zero, which is what made the
/// example's BEV IoU degenerate).
fn resample_stratified(cloud: &PointCloud, count: usize, seed: u64) -> PointCloud {
    let labels = cloud.labels().expect("frustum clouds are labelled");
    let fg: Vec<usize> = (0..cloud.len()).filter(|&i| labels[i] == 1).collect();
    let bg: Vec<usize> = (0..cloud.len()).filter(|&i| labels[i] == 0).collect();
    debug_assert!(!fg.is_empty());
    let proportional = (count * fg.len()).div_ceil(cloud.len());
    let fg_keep = proportional.max(MIN_OBJECT_RETURNS).min(count);
    let bg_keep = count - fg_keep;
    let fg_cloud = sampling::resample(&cloud.select(&fg), fg_keep, seed ^ 0xf9);
    if bg.is_empty() || bg_keep == 0 {
        return sampling::resample(&fg_cloud, count, seed ^ 0x81);
    }
    let bg_cloud = sampling::resample(&cloud.select(&bg), bg_keep, seed ^ 0xb9);
    let mut points = fg_cloud.points().to_vec();
    points.extend_from_slice(bg_cloud.points());
    let mut labels = fg_cloud.labels().expect("labelled").to_vec();
    labels.extend_from_slice(bg_cloud.labels().expect("labelled"));
    PointCloud::from_labelled_points(points, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_split_sizes() {
        let ds = classification(4, 64, 3, 2, 1);
        assert_eq!(ds.train.len(), 12);
        assert_eq!(ds.test.len(), 8);
        assert!(ds.train.iter().all(|e| e.cloud.len() == 64));
        assert!(ds.train.iter().all(|e| e.label < 4));
    }

    #[test]
    fn classification_train_and_test_differ() {
        let ds = classification(2, 64, 1, 1, 1);
        assert_ne!(ds.train[0].cloud, ds.test[0].cloud);
    }

    #[test]
    fn augmentation_changes_but_preserves_count() {
        let ds = classification(1, 64, 1, 0, 2);
        let aug = ds.augmented_train_cloud(0, 5);
        assert_eq!(aug.len(), 64);
        assert_ne!(aug, ds.train[0].cloud);
    }

    #[test]
    fn segmentation_labels_in_range() {
        let (ds, cats, total) = segmentation(3, 96, 2, 1, 3);
        assert_eq!(cats.len(), 3);
        for e in ds.train.iter().chain(&ds.test) {
            for &l in e.cloud.labels().expect("labelled") {
                assert!(l < total);
            }
        }
    }

    #[test]
    fn frustums_have_binary_labels_and_fixed_size() {
        let fr = frustums(2, 96, 7);
        assert!(!fr.is_empty(), "some objects must receive returns");
        for f in &fr {
            assert_eq!(f.cloud.len(), 96);
            assert!(f.cloud.labels().unwrap().iter().all(|&l| l <= 1));
            assert!(f.bev_box.2 > 0.0 && f.bev_box.3 > 0.0);
            assert!(f.class <= 2);
        }
        // At least one frustum should actually contain object points.
        assert!(fr.iter().any(|f| f.cloud.labels().unwrap().contains(&1)));
    }
}
