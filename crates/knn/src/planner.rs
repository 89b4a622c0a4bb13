//! Backend planning: which search structure should answer a module's query?
//!
//! PointAcc-style measurements show index construction and backend choice
//! dominate end-to-end latency for point-cloud workloads, and the best
//! backend depends on the workload shape: exhaustive scans win when
//! `N · Q` is small (no build cost, perfect locality), trees win for large
//! kNN batches, grids win for fixed-radius queries once clouds are dense.
//! The [`SearchPlanner`] encodes that choice as a deterministic cost model
//! over `(mode, N_in, queries, k)` — *never* affecting results, since every
//! backend in this crate is exact with identical index tie-breaking; only
//! where the time goes.
//!
//! The choice can be forced for experiments with [`SearchPlanner::forced`]
//! (what the session builder's override and the `MESORASI_SEARCH`
//! variable — `auto` | `kdtree` | `grid` | `bruteforce` | `octree`, read by
//! `mesorasi_core::EngineConfig::from_env` — resolve to). Forcing a
//! backend that cannot serve a query class (the grid answers radius
//! queries only, and needs a positive radius) falls back to the automatic
//! choice for that query rather than failing — the override is a
//! preference, not a correctness knob.

/// A selectable search backend. Feature-space kNN is not listed: feature
/// dimensions reach 64–512 where spatial structures degenerate, so those
/// searches always run the dense row scan (see [`crate::feature`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchBackend {
    /// Exhaustive scan — no index, best for small workloads.
    BruteForce,
    /// kd-tree — exact kNN and radius queries, `O(log n)` descents.
    KdTree,
    /// Uniform grid with `cell_size = radius` — radius queries only.
    Grid,
    /// Morton-bucket octree — exact kNN and radius queries on large
    /// clouds.
    Octree,
}

impl SearchBackend {
    /// Every backend, in discriminant order (`ALL[b as usize] == b`).
    pub const ALL: [SearchBackend; 4] = [
        SearchBackend::BruteForce,
        SearchBackend::KdTree,
        SearchBackend::Grid,
        SearchBackend::Octree,
    ];

    /// The name used in bench records and the `MESORASI_SEARCH` variable.
    pub fn name(self) -> &'static str {
        match self {
            SearchBackend::BruteForce => "bruteforce",
            SearchBackend::KdTree => "kdtree",
            SearchBackend::Grid => "grid",
            SearchBackend::Octree => "octree",
        }
    }
}

/// Cloud size where the kd-tree's pointer-chasing descents start paying a
/// locality penalty: beyond L2-resident clouds (~2^17 points), each
/// backtrack is a cache miss, while the octree's Morton leaves stay
/// contiguous. Doubles the kd-tree's per-query charge past this size.
const LOCALITY_N: usize = 1 << 17;

/// `2` once `n` spills the cache-resident regime, else `1` (see
/// [`LOCALITY_N`]).
fn kd_locality_penalty(n: usize) -> u64 {
    if n >= LOCALITY_N {
        2
    } else {
        1
    }
}

/// One planned search workload: `queries` centroids against `n` candidate
/// points with `k` results each.
#[derive(Debug, Clone, Copy)]
pub struct SearchLoad {
    /// Candidate point count (`N_in`).
    pub n: usize,
    /// Number of centroid queries.
    pub queries: usize,
    /// Neighbors per query.
    pub k: usize,
}

/// `⌈log₂ n⌉`-ish tree depth used by the cost terms.
fn depth(n: usize) -> u64 {
    (usize::BITS - n.max(2).leading_zeros()) as u64
}

/// Estimated cost, in distance-evaluation units, of answering `load` as a
/// kNN batch on `backend`, **including** index construction. The constants
/// are calibrated against the bench harness's measured ns/op on the
/// 1K–130K-point clouds this repo runs (brute-force ≈ `3·n·q` inner ops;
/// a kd-tree descent touches a few leaves plus backtracking); they decide
/// crossover points only — every backend returns identical tables.
pub fn knn_cost(backend: SearchBackend, load: &SearchLoad) -> u64 {
    let (n, q, k) = (load.n as u64, load.queries as u64, load.k as u64);
    match backend {
        SearchBackend::BruteForce => 3 * n * q,
        // Build: one median select per level over n items. Query: ~4 leaf
        // scans of LEAF_SIZE=16 points plus k maintenance per level.
        SearchBackend::KdTree => {
            n * depth(load.n) + kd_locality_penalty(load.n) * q * (64 + 3 * k) * depth(load.n)
        }
        SearchBackend::Grid => u64::MAX, // cannot answer kNN exactly
        // Build: a radix-like Morton sort, ~n·d/2 (cheaper than median
        // splits). Query: fatter leaves (32 points) cost a little more per
        // descent, but stay contiguous at any n.
        SearchBackend::Octree => n * depth(load.n) / 2 + q * (80 + 3 * k) * depth(load.n),
    }
}

/// Estimated cost of answering `load` as a padded radius batch on
/// `backend`, including index construction. Same units as [`knn_cost`].
pub fn ball_cost(backend: SearchBackend, load: &SearchLoad) -> u64 {
    let (n, q, k) = (load.n as u64, load.queries as u64, load.k as u64);
    match backend {
        SearchBackend::BruteForce => 3 * n * q,
        // Radius descents visit every in-range leaf; charge like kNN with
        // a sort tail proportional to k.
        SearchBackend::KdTree => {
            n * depth(load.n) + kd_locality_penalty(load.n) * q * (64 + 4 * k) * depth(load.n)
        }
        // Build: bin + sort. Query: a 3×3×3 cell scan of bounded occupancy
        // (cell edge = radius keeps occupancy near k for the paper's
        // workloads) — cheaper per query than a descent on large clouds.
        SearchBackend::Grid => 2 * n * depth(load.n) + q * 27 * (8 + k),
        // Half the kd build (Morton sort), contiguous in-range leaf scans.
        SearchBackend::Octree => n * depth(load.n) / 2 + q * (72 + 4 * k) * depth(load.n),
    }
}

/// Picks backends per query shape from the cost model, with an optional
/// forced override. Copyable and cheap: every engine worker owns one.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchPlanner {
    forced: Option<SearchBackend>,
}

impl SearchPlanner {
    /// The automatic cost-model planner.
    pub fn auto() -> SearchPlanner {
        SearchPlanner { forced: None }
    }

    /// A planner that prefers `backend` wherever it can serve the query.
    pub fn forced(backend: SearchBackend) -> SearchPlanner {
        SearchPlanner { forced: Some(backend) }
    }

    /// The forced backend, if any.
    pub fn forced_backend(&self) -> Option<SearchBackend> {
        self.forced
    }

    /// The backend that should answer a kNN batch. The grid cannot (it
    /// serves fixed-radius queries only), so a forced grid falls back to
    /// the automatic choice here.
    pub fn plan_knn(&self, load: &SearchLoad) -> SearchBackend {
        match self.forced {
            Some(SearchBackend::Grid) | None => pick_min(
                &[SearchBackend::BruteForce, SearchBackend::KdTree, SearchBackend::Octree],
                |b| knn_cost(b, load),
            ),
            Some(b) => b,
        }
    }

    /// The backend that should answer a padded radius batch. A
    /// non-positive radius excludes the grid (its cell edge must be
    /// positive), so degenerate `radius = 0` queries route to the kd-tree
    /// or brute force.
    pub fn plan_ball(&self, load: &SearchLoad, radius: f32) -> SearchBackend {
        let grid_ok = radius > 0.0 && radius.is_finite();
        match self.forced {
            Some(SearchBackend::Grid) if !grid_ok => {}
            Some(b) => return b,
            None => {}
        }
        // A fixed array, grid last: this runs on every warm frame, which
        // must not allocate.
        let candidates = [
            SearchBackend::BruteForce,
            SearchBackend::KdTree,
            SearchBackend::Octree,
            SearchBackend::Grid,
        ];
        let servable = if grid_ok { &candidates[..] } else { &candidates[..3] };
        pick_min(servable, |b| ball_cost(b, load))
    }
}

fn pick_min(candidates: &[SearchBackend], cost: impl Fn(SearchBackend) -> u64) -> SearchBackend {
    *candidates.iter().min_by_key(|&&b| cost(b)).expect("candidate list is never empty")
}

/// Error of [`parse_override`]: the value was none of
/// `auto|kdtree|grid|bruteforce|octree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSearchOverride;

impl std::fmt::Display for InvalidSearchOverride {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected one of auto|kdtree|grid|bruteforce|octree")
    }
}

impl std::error::Error for InvalidSearchOverride {}

/// Parses a `MESORASI_SEARCH` keyword (trimmed, ASCII-case-insensitive):
/// `Ok(None)` means auto, `Ok(Some(_))` a forced backend.
pub fn parse_override(raw: &str) -> Result<Option<SearchBackend>, InvalidSearchOverride> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(None),
        name => SearchBackend::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .map(Some)
            .ok_or(InvalidSearchOverride),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: SearchLoad = SearchLoad { n: 96, queries: 24, k: 8 };
    const LARGE: SearchLoad = SearchLoad { n: 4096, queries: 1024, k: 32 };

    #[test]
    fn parse_override_accepts_documented_values() {
        assert_eq!(parse_override("auto"), Ok(None));
        assert_eq!(parse_override(" KdTree "), Ok(Some(SearchBackend::KdTree)));
        assert_eq!(parse_override("grid"), Ok(Some(SearchBackend::Grid)));
        assert_eq!(parse_override("bruteforce"), Ok(Some(SearchBackend::BruteForce)));
        assert_eq!(parse_override("octree"), Ok(Some(SearchBackend::Octree)));
        assert_eq!(parse_override("oct-tree"), Err(InvalidSearchOverride));
    }

    #[test]
    fn auto_knn_prefers_brute_for_tiny_and_tree_for_large() {
        let p = SearchPlanner::auto();
        assert_eq!(p.plan_knn(&SMALL), SearchBackend::BruteForce);
        assert_eq!(p.plan_knn(&LARGE), SearchBackend::KdTree);
    }

    #[test]
    fn auto_ball_uses_grid_only_at_scale_and_with_positive_radius() {
        let p = SearchPlanner::auto();
        assert_eq!(p.plan_ball(&SMALL, 0.3), SearchBackend::BruteForce);
        assert_eq!(p.plan_ball(&LARGE, 0.3), SearchBackend::Grid);
        assert_ne!(p.plan_ball(&LARGE, 0.0), SearchBackend::Grid, "radius 0 excludes the grid");
        assert_ne!(
            p.plan_ball(&LARGE, f32::INFINITY),
            SearchBackend::Grid,
            "non-finite radius excludes the grid"
        );
    }

    #[test]
    fn forced_backends_are_honored_where_servable() {
        let brute = SearchPlanner::forced(SearchBackend::BruteForce);
        assert_eq!(brute.plan_knn(&LARGE), SearchBackend::BruteForce);
        assert_eq!(brute.plan_ball(&LARGE, 0.3), SearchBackend::BruteForce);
        let grid = SearchPlanner::forced(SearchBackend::Grid);
        assert_eq!(grid.plan_ball(&LARGE, 0.3), SearchBackend::Grid);
        // Grid cannot serve kNN or degenerate radii: automatic fallback.
        assert_ne!(grid.plan_knn(&LARGE), SearchBackend::Grid);
        assert_ne!(grid.plan_ball(&LARGE, 0.0), SearchBackend::Grid);
    }

    #[test]
    fn octree_crosses_over_at_out_of_core_scale() {
        let p = SearchPlanner::auto();
        // Paper-scale and mid-scale loads keep their historical picks …
        assert_eq!(p.plan_knn(&SMALL), SearchBackend::BruteForce);
        assert_eq!(p.plan_knn(&LARGE), SearchBackend::KdTree);
        assert_eq!(p.plan_ball(&LARGE, 0.3), SearchBackend::Grid);
        // … but once the cloud spills the cache-resident regime, kNN
        // crosses over to the octree's contiguous Morton leaves.
        let huge = SearchLoad { n: 1 << 17, queries: 1024, k: 32 };
        assert_eq!(p.plan_knn(&huge), SearchBackend::Octree);
        assert_eq!(
            p.plan_ball(&huge, 0.0),
            SearchBackend::Octree,
            "degenerate radii exclude the grid; the octree serves them at scale"
        );
        let forced = SearchPlanner::forced(SearchBackend::Octree);
        assert_eq!(forced.plan_knn(&SMALL), SearchBackend::Octree);
        assert_eq!(forced.plan_ball(&SMALL, 0.3), SearchBackend::Octree);
    }

    #[test]
    fn benchmark_module_shapes_pin_their_backends() {
        // The search shapes of the paper-scale modules the repo benchmark
        // runs (BENCHMARK.json workloads): which backends carry benchmark
        // traffic is a checked fact, not folklore.
        let p = SearchPlanner::auto();
        let ball = |n, queries, k, r| p.plan_ball(&SearchLoad { n, queries, k }, r);
        // PointNet++ (c) `pnpp_*` / `serve_mixed`: SA1 on the grid, SA2
        // small enough for the exhaustive scan.
        assert_eq!(ball(1024, 512, 32, 0.2), SearchBackend::Grid);
        assert_eq!(ball(512, 128, 64, 0.4), SearchBackend::BruteForce);
        // PointNet++ (s) `scene_32k`: the 32768-point SA1 on the grid.
        assert_eq!(ball(32768, 512, 32, 0.2), SearchBackend::Grid);
        // DGCNN (c) `dgcnn_delayed` plans nothing: every EdgeConv searches
        // feature space, which is always the dense row scan. So no
        // benchmark shape reaches the kd-tree or the octree.
    }

    #[test]
    fn knn_cost_is_monotone_in_workload() {
        let mid = SearchLoad { n: 1024, queries: 512, k: 16 };
        for backend in [SearchBackend::BruteForce, SearchBackend::KdTree] {
            assert!(knn_cost(backend, &SMALL) < knn_cost(backend, &mid));
            assert!(knn_cost(backend, &mid) < knn_cost(backend, &LARGE));
        }
        assert_eq!(knn_cost(SearchBackend::Grid, &mid), u64::MAX);
    }
}
