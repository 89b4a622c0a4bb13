//! Backend planning: should the exhaustive scan or the octree answer a
//! module's query?
//!
//! PointAcc-style measurements show index construction and backend choice
//! dominate end-to-end latency for point-cloud workloads, and the best
//! backend depends on the workload shape: the exhaustive scan wins when
//! `N · Q` is small (no build cost, perfect locality), the octree once its
//! build is amortised. The [`SearchPlanner`] encodes that choice as a
//! deterministic cost model over `(mode, N_in, queries, k)` — *never*
//! affecting results, since both backends are exact with identical index
//! tie-breaking; only where the time goes.
//!
//! The choice can be forced for experiments with [`SearchPlanner::forced`]
//! (what the session builder's override and the `MESORASI_SEARCH`
//! variable — `auto` | `bruteforce` | `octree`, read by
//! `mesorasi_core::EngineConfig::from_env` — resolve to). Both backends
//! serve every query class, so a forced backend answers everything.

/// A selectable search backend. Feature-space kNN is not listed: feature
/// dimensions reach 64–512 where spatial structures degenerate, so those
/// searches always run the dense row scan (see [`crate::feature`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchBackend {
    /// Exhaustive scan — no index, best for small workloads.
    BruteForce,
    /// Morton-bucket octree — exact kNN and radius queries, the one
    /// spatial index.
    Octree,
}

impl SearchBackend {
    /// Every backend, in discriminant order (`ALL[b as usize] == b`).
    pub const ALL: [SearchBackend; 2] = [SearchBackend::BruteForce, SearchBackend::Octree];

    /// The name used in bench records and the `MESORASI_SEARCH` variable.
    pub fn name(self) -> &'static str {
        match self {
            SearchBackend::BruteForce => "bruteforce",
            SearchBackend::Octree => "octree",
        }
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
pub(crate) fn depth(n: usize) -> u64 {
    (usize::BITS - n.max(2).leading_zeros()) as u64
}

/// The octree's build charge: a Morton sort plus one AABB pass per level.
fn octree_build_cost(load: &SearchLoad) -> u64 {
    5 * load.n as u64 * depth(load.n) / 4
}

/// Estimated cost, in distance-evaluation units (≈ 3 ns), of answering
/// `load` as a kNN batch on `backend`, **including** index construction.
/// The constants are fitted to a head-to-head `repro bench` run of both
/// backends on 32–4096-point clouds (build + one query batch, one thread):
/// the scan won at 32 points / 16 queries / `k` = 8 (6.5 vs 7.1 µs) and
/// lost from 64 / 24 / 8 up (15.4 vs 9.5 µs; 4.6 vs 1.3 ms at
/// 1024 / 512 / 32). They decide that crossover only — both backends
/// return identical tables. Feature propagation's point queries (a fine
/// level against a coarse one, `k` = 3) plan through it too.
pub fn knn_cost(backend: SearchBackend, load: &SearchLoad) -> u64 {
    let (n, q, k) = (load.n as u64, load.queries as u64, load.k as u64);
    match backend {
        SearchBackend::BruteForce => 3 * n * q,
        // Query: a best-first descent scans a few 32-point leaves per
        // level, dominated by `k`-bounded insertion.
        SearchBackend::Octree => octree_build_cost(load) + q * (4 + 2 * k) * depth(load.n),
    }
}

/// Estimated cost of answering `load` as a padded radius batch on
/// `backend`, including index construction. Same units and same
/// head-to-head run as [`knn_cost`]: below ≈ 128 points a ball covers most
/// leaves and the descent saves nothing (12.2 vs 14.0 µs at 128 points /
/// 48 queries / `k` = 8), from 256 / 64 / 16 up the octree wins (73 vs
/// 50 µs; 1.83 vs 1.22 ms at PointNet++ SA1's 1024 / 512 / 32).
///
/// The scan sorts every in-range point of a query; the octree stops at the
/// `k`-th bound and sorts at most a few `k`. That saving grows with the
/// ball's population and is not charged: re-measured with it (one thread,
/// build + one batch, median), the pinned shapes kept their sides — 15 vs
/// 19–22 µs at 128 / 48 / 8 and 129–138 vs 49–53 µs at 256 / 64 / 16,
/// radius 0.4 — so the crossover, and the constants, stand.
pub fn ball_cost(backend: SearchBackend, load: &SearchLoad) -> u64 {
    let (n, q, k) = (load.n as u64, load.queries as u64, load.k as u64);
    match backend {
        SearchBackend::BruteForce => 3 * n * q,
        // Query: box tests down to the in-range leaves the `k`-th bound
        // leaves open, then contiguous leaf scans.
        SearchBackend::Octree => octree_build_cost(load) + q * (40 + k) * depth(load.n),
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

    /// A planner that answers every query on `backend`.
    pub fn forced(backend: SearchBackend) -> SearchPlanner {
        SearchPlanner { forced: Some(backend) }
    }

    /// The forced backend, if any.
    pub fn forced_backend(&self) -> Option<SearchBackend> {
        self.forced
    }

    /// The backend that should answer a kNN batch.
    pub fn plan_knn(&self, load: &SearchLoad) -> SearchBackend {
        self.forced.unwrap_or_else(|| cheaper(|b| knn_cost(b, load)))
    }

    /// The backend that should answer a padded radius batch, at any radius.
    pub fn plan_ball(&self, load: &SearchLoad) -> SearchBackend {
        self.forced.unwrap_or_else(|| cheaper(|b| ball_cost(b, load)))
    }
}

/// The backend `cost` ranks lower; a tie stays on the scan.
fn cheaper(cost: impl Fn(SearchBackend) -> u64) -> SearchBackend {
    if cost(SearchBackend::Octree) < cost(SearchBackend::BruteForce) {
        SearchBackend::Octree
    } else {
        SearchBackend::BruteForce
    }
}

/// Error of [`parse_override`]: the value was none of
/// `auto|bruteforce|octree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSearchOverride;

impl std::fmt::Display for InvalidSearchOverride {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected one of auto|bruteforce|octree")
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

    const LARGE: SearchLoad = SearchLoad { n: 4096, queries: 1024, k: 32 };

    fn load(n: usize, queries: usize, k: usize) -> SearchLoad {
        SearchLoad { n, queries, k }
    }

    #[test]
    fn parse_override_accepts_documented_values() {
        assert_eq!(parse_override("auto"), Ok(None));
        assert_eq!(parse_override(" BruteForce "), Ok(Some(SearchBackend::BruteForce)));
        assert_eq!(parse_override("octree"), Ok(Some(SearchBackend::Octree)));
        for gone in ["oct-tree", "grid"] {
            assert_eq!(parse_override(gone), Err(InvalidSearchOverride), "{gone}");
        }
    }

    // The crossover tests pin the two measured shapes on either side of
    // each fitted crossover (see `knn_cost` / `ball_cost`).

    #[test]
    fn auto_knn_crosses_over_between_32_and_64_points() {
        let p = SearchPlanner::auto();
        assert_eq!(p.plan_knn(&load(32, 16, 8)), SearchBackend::BruteForce);
        assert_eq!(p.plan_knn(&load(64, 24, 8)), SearchBackend::Octree);
        assert_eq!(p.plan_knn(&LARGE), SearchBackend::Octree);
        // A build nobody amortises: a handful of queries on a huge cloud.
        assert_eq!(p.plan_knn(&load(1 << 20, 4, 16)), SearchBackend::BruteForce);
    }

    #[test]
    fn auto_ball_crosses_over_between_128_and_256_points() {
        let p = SearchPlanner::auto();
        assert_eq!(p.plan_ball(&load(128, 48, 8)), SearchBackend::BruteForce);
        assert_eq!(p.plan_ball(&load(256, 64, 16)), SearchBackend::Octree);
        assert_eq!(p.plan_ball(&LARGE), SearchBackend::Octree);
        assert_eq!(p.plan_ball(&load(1 << 17, 1024, 32)), SearchBackend::Octree);
    }

    #[test]
    fn forced_backends_are_honored_where_servable() {
        // Both backends serve both query classes: everywhere.
        for backend in SearchBackend::ALL {
            let forced = SearchPlanner::forced(backend);
            assert_eq!(forced.forced_backend(), Some(backend));
            for shape in [load(32, 16, 8), LARGE] {
                assert_eq!(forced.plan_knn(&shape), backend);
                assert_eq!(forced.plan_ball(&shape), backend);
            }
        }
    }

    #[test]
    fn benchmark_module_shapes_pin_their_backends() {
        // The search shapes of the paper-scale modules the repo benchmark
        // runs (BENCHMARK.json workloads): which backends carry benchmark
        // traffic is a checked fact, not folklore.
        let p = SearchPlanner::auto();
        // PointNet++ (c) `pnpp_*` / `serve_mixed`: SA1 and SA2, both past
        // the ball crossover.
        assert_eq!(p.plan_ball(&load(1024, 512, 32)), SearchBackend::Octree);
        assert_eq!(p.plan_ball(&load(512, 128, 64)), SearchBackend::Octree);
        // PointNet++ (s) `scene_32k`: the 32768-point SA1, and the two
        // interpolation stencils (every fine point against the coarse
        // level, `k` = 3).
        assert_eq!(p.plan_ball(&load(32768, 512, 32)), SearchBackend::Octree);
        assert_eq!(p.plan_knn(&load(128, 512, 3)), SearchBackend::Octree);
        assert_eq!(p.plan_knn(&load(512, 32768, 3)), SearchBackend::Octree);
        // DGCNN (c) `dgcnn_delayed` plans nothing: every EdgeConv searches
        // feature space, which is always the dense row scan.
    }

    #[test]
    fn knn_cost_is_monotone_in_workload() {
        let (small, mid) = (load(96, 24, 8), load(1024, 512, 16));
        for backend in SearchBackend::ALL {
            for cost in [knn_cost, ball_cost] {
                assert!(cost(backend, &small) < cost(backend, &mid));
                assert!(cost(backend, &mid) < cost(backend, &LARGE));
            }
        }
    }
}
