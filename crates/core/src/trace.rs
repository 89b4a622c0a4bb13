//! Workload traces: what a network *did*, for the hardware models.
//!
//! A [`NetworkTrace`] records every operator one network inference executes,
//! with full dimensions and — crucially — the *real* [`NeighborIndexTable`]
//! of every aggregation, because the Aggregation Unit's bank-conflict
//! behaviour (paper §V-B) depends on the actual index distribution, not
//! just on sizes. `mesorasi-sim` replays traces against its GPU/NPU/AU
//! models; this module only records and accounts.

use crate::strategy::Strategy;
use mesorasi_knn::NeighborIndexTable;

/// The execution-time categories of Fig. 5 / Fig. 11 / Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Neighbor search (`N`).
    NeighborSearch,
    /// Aggregation (`A`): gathers, normalization subtractions.
    Aggregation,
    /// Feature computation (`F`): MLP layers and their reductions.
    FeatureCompute,
    /// Everything else: interpolation, classification heads, reshapes.
    Other,
}

impl Stage {
    /// All stages in the paper's reporting order.
    pub const ALL: [Stage; 4] =
        [Stage::NeighborSearch, Stage::Aggregation, Stage::FeatureCompute, Stage::Other];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::NeighborSearch => "Neighbor Search",
            Stage::Aggregation => "Aggregation",
            Stage::FeatureCompute => "Feature Computation",
            Stage::Other => "Others",
        }
    }
}

/// One neighbor search: `queries` queries over `candidates` points of
/// dimension `dim`, returning `k` neighbors each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOp {
    /// Number of query (centroid) points.
    pub queries: usize,
    /// Number of candidate points searched.
    pub candidates: usize,
    /// Dimensionality of the search space (3 for coordinates; the feature
    /// width for DGCNN's dynamic graphs).
    pub dim: usize,
    /// Neighbors returned per query.
    pub k: usize,
    /// True for radius (ball) queries, which select by threshold scan
    /// instead of top-K sorting — much cheaper selection on a GPU, but
    /// implemented as a long chain of broadcast kernels in TF-style
    /// frameworks (the overhead the GPU model charges).
    pub radius_query: bool,
}

/// One MLP layer executed as a batched matrix product
/// (`rows × inner` · `inner × cols`), including its activation function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatMulOp {
    /// Batch rows.
    pub rows: usize,
    /// Inner (reduction) dimension.
    pub inner: usize,
    /// Output columns.
    pub cols: usize,
}

impl MatMulOp {
    /// Multiply-accumulate count.
    pub fn macs(&self) -> u64 {
        (self.rows as u64) * (self.inner as u64) * (self.cols as u64)
    }

    /// Output activation size in bytes (the Fig. 10 quantity).
    pub fn output_bytes(&self) -> u64 {
        4 * (self.rows as u64) * (self.cols as u64)
    }

    /// Input activation size in bytes.
    pub fn input_bytes(&self) -> u64 {
        4 * (self.rows as u64) * (self.inner as u64)
    }

    /// Weight size in bytes (shared across rows — small, per Fig. 3).
    pub fn weight_bytes(&self) -> u64 {
        4 * (self.inner as u64) * (self.cols as u64)
    }
}

/// One aggregation: for each NIT entry, gather `width`-wide rows from a
/// `table_rows × width` table and (for the delayed strategy) reduce and
/// subtract in the same pass.
#[derive(Debug, Clone)]
pub struct AggregateOp {
    /// The real neighbor indices — drives bank-conflict simulation.
    pub nit: NeighborIndexTable,
    /// Rows of the gathered-from table (`N_in`).
    pub table_rows: usize,
    /// Width of each gathered row: `M_in` for original order, `M_out` for
    /// delayed (the working-set blow-up of §IV-C).
    pub width: usize,
    /// Row gathers per NIT entry: `K + 1` for offset modules (K neighbors
    /// plus the centroid row), `2K` for edge modules (each edge reads the
    /// neighbor and the repeated centroid).
    pub rows_per_entry: usize,
    /// True when the max reduction and centroid subtraction are fused into
    /// the aggregation (delayed strategy; what the AU executes).
    pub fused_reduce: bool,
}

impl AggregateOp {
    /// Size of the gathered-from table in bytes — the gather working set
    /// (512 KB vs 12 KB in the paper's PointNet++ module-1 example).
    pub fn working_set_bytes(&self) -> u64 {
        4 * (self.table_rows as u64) * (self.width as u64)
    }

    /// Bytes gathered across all entries.
    pub fn bytes_gathered(&self) -> u64 {
        4 * (self.nit.len() as u64) * (self.rows_per_entry as u64) * (self.width as u64)
    }

    /// Subtraction count: one per output element for fused aggregation
    /// (max-before-subtract, §IV-A), one per gathered neighbor element
    /// otherwise.
    pub fn subtract_ops(&self) -> u64 {
        if self.fused_reduce {
            (self.nit.len() as u64) * (self.width as u64)
        } else {
            (self.nit.len() as u64) * (self.nit.k() as u64) * (self.width as u64)
        }
    }
}

/// A grouped max reduction (`groups × k × width` → `groups × width`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceOp {
    /// Number of groups (`N_out`).
    pub groups: usize,
    /// Rows reduced per group (`K`).
    pub k: usize,
    /// Feature width.
    pub width: usize,
}

impl ReduceOp {
    /// Comparison count.
    pub fn compare_ops(&self) -> u64 {
        (self.groups as u64) * (self.k.saturating_sub(1) as u64) * (self.width as u64)
    }
}

/// The trace of one module, with `F` split around the aggregation according
/// to the strategy:
///
/// * original: everything in `mlp_post` (runs after `A`),
/// * ltd: the first layer in `mlp_pre` (overlaps `N`), tail in `mlp_post`,
/// * delayed: everything in `mlp_pre`; `aggregate.fused_reduce == true`.
#[derive(Debug, Clone, Default)]
pub struct ModuleTrace {
    /// Module name (from the configuration).
    pub name: String,
    /// Neighbor search, absent for group-all modules and heads.
    pub search: Option<SearchOp>,
    /// MLP layers that may overlap with the search.
    pub mlp_pre: Vec<MatMulOp>,
    /// The aggregation, absent for group-all modules and heads.
    pub aggregate: Option<AggregateOp>,
    /// MLP layers that run after the aggregation.
    pub mlp_post: Vec<MatMulOp>,
    /// Standalone reduction (original/ltd); `None` when fused or global.
    pub reduce: Option<ReduceOp>,
    /// Unclassified extra work (interpolation weights, heads), in flops.
    pub other_flops: u64,
    /// Unclassified extra memory traffic, in bytes.
    pub other_bytes: u64,
}

impl ModuleTrace {
    /// MACs of all MLP layers in this module.
    pub fn mlp_macs(&self) -> u64 {
        self.mlp_pre.iter().chain(&self.mlp_post).map(MatMulOp::macs).sum()
    }

    /// Output activation sizes of every MLP layer, in bytes (Fig. 10).
    pub fn activation_sizes(&self) -> Vec<u64> {
        self.mlp_pre.iter().chain(&self.mlp_post).map(MatMulOp::output_bytes).collect()
    }
}

/// The complete trace of one network inference under one strategy.
#[derive(Debug, Clone)]
pub struct NetworkTrace {
    /// Network name (e.g. "PointNet++ (c)").
    pub name: String,
    /// The strategy the trace was generated under.
    pub strategy: Strategy,
    /// Per-module traces, in execution order.
    pub modules: Vec<ModuleTrace>,
}

impl NetworkTrace {
    /// Creates an empty trace.
    pub fn new(name: &str, strategy: Strategy) -> Self {
        NetworkTrace { name: name.to_owned(), strategy, modules: Vec::new() }
    }

    /// Total MLP MACs (the Fig. 9 quantity).
    pub fn mlp_macs(&self) -> u64 {
        self.modules.iter().map(ModuleTrace::mlp_macs).sum()
    }

    /// Every MLP layer's output size in bytes (the Fig. 10 distribution).
    pub fn activation_sizes(&self) -> Vec<u64> {
        self.modules.iter().flat_map(ModuleTrace::activation_sizes).collect()
    }

    /// Total bytes gathered by aggregations.
    pub fn aggregation_bytes(&self) -> u64 {
        self.modules
            .iter()
            .filter_map(|m| m.aggregate.as_ref())
            .map(AggregateOp::bytes_gathered)
            .sum()
    }

    /// All aggregation ops (used by the AU simulator).
    pub fn aggregations(&self) -> impl Iterator<Item = &AggregateOp> + '_ {
        self.modules.iter().filter_map(|m| m.aggregate.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nit_2x2() -> NeighborIndexTable {
        let mut nit = NeighborIndexTable::new(2);
        nit.push_entry(0, &[0, 1]);
        nit.push_entry(2, &[2, 3]);
        nit
    }

    #[test]
    fn matmul_accounting() {
        let op = MatMulOp { rows: 1024, inner: 3, cols: 64 };
        assert_eq!(op.macs(), 1024 * 3 * 64);
        assert_eq!(op.output_bytes(), 4 * 1024 * 64);
        assert_eq!(op.weight_bytes(), 4 * 3 * 64);
    }

    #[test]
    fn aggregate_working_set_grows_with_width() {
        // The §IV-C effect: delayed aggregation gathers from an N_in × M_out
        // table instead of N_in × M_in.
        let original = AggregateOp {
            nit: nit_2x2(),
            table_rows: 1024,
            width: 3,
            rows_per_entry: 3,
            fused_reduce: false,
        };
        let delayed = AggregateOp {
            nit: nit_2x2(),
            table_rows: 1024,
            width: 128,
            rows_per_entry: 3,
            fused_reduce: true,
        };
        assert_eq!(original.working_set_bytes(), 4 * 1024 * 3);
        assert_eq!(delayed.working_set_bytes(), 4 * 1024 * 128);
        assert!(delayed.working_set_bytes() > 40 * original.working_set_bytes());
    }

    #[test]
    fn fused_aggregation_subtracts_once_per_output() {
        let fused = AggregateOp {
            nit: nit_2x2(),
            table_rows: 8,
            width: 16,
            rows_per_entry: 3,
            fused_reduce: true,
        };
        let unfused = AggregateOp {
            nit: nit_2x2(),
            table_rows: 8,
            width: 16,
            rows_per_entry: 3,
            fused_reduce: false,
        };
        assert_eq!(fused.subtract_ops(), 2 * 16);
        assert_eq!(unfused.subtract_ops(), 2 * 2 * 16);
    }

    #[test]
    fn network_totals_sum_modules() {
        let mut trace = NetworkTrace::new("toy", Strategy::Delayed);
        trace.modules.push(ModuleTrace {
            name: "m1".into(),
            search: Some(SearchOp { queries: 4, candidates: 8, dim: 3, k: 2, radius_query: false }),
            mlp_pre: vec![MatMulOp { rows: 8, inner: 3, cols: 4 }],
            aggregate: Some(AggregateOp {
                nit: nit_2x2(),
                table_rows: 8,
                width: 4,
                rows_per_entry: 3,
                fused_reduce: true,
            }),
            mlp_post: vec![],
            reduce: None,
            other_flops: 0,
            other_bytes: 0,
        });
        trace.modules.push(ModuleTrace {
            name: "head".into(),
            mlp_post: vec![MatMulOp { rows: 1, inner: 4, cols: 10 }],
            ..ModuleTrace::default()
        });
        assert_eq!(trace.mlp_macs(), 8 * 3 * 4 + 4 * 10);
        assert_eq!(trace.activation_sizes(), vec![4 * 8 * 4, 4 * 10]);
        assert_eq!(trace.aggregations().count(), 1);
    }

    #[test]
    fn stage_labels_cover_paper_categories() {
        let labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["Neighbor Search", "Aggregation", "Feature Computation", "Others"]);
    }
}
