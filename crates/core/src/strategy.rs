//! Execution strategies for point-cloud modules.

use std::fmt;

/// How a module orders aggregation relative to feature computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The conventional order `F(A(N(p), p))`: search, aggregate neighbor
    /// offsets into an `N_out·K × M_in` matrix, run the MLP over it, reduce.
    /// `N → A → F` are fully serialized (paper §III).
    Original,
    /// Limited delayed-aggregation (the paper's Ltd-Mesorasi baseline,
    /// §VII-C), as in GCN/GraphSage-style GNN implementations: only the
    /// *first matrix-vector product* is hoisted before aggregation. Exact —
    /// matrix multiplication distributes over subtraction — but every later
    /// layer still runs on aggregated `N_out·K` rows, so only layer-1 MACs
    /// are saved and only layer 1 overlaps with neighbor search.
    LtdDelayed,
    /// Full delayed-aggregation `A(F(N(p)), F(p))` (paper Equ. 2): the whole
    /// MLP runs once per input point (the Point Feature Table), in parallel
    /// with neighbor search; aggregation follows, fused with the max
    /// reduction and the centroid subtraction (`max(p_k − p_i) =
    /// max(p_k) − p_i`, §IV-A). Approximate through ReLU; accuracy is
    /// recovered by training (Fig. 16).
    Delayed,
}

impl Strategy {
    /// All strategies, in baseline-to-proposed order.
    pub const ALL: [Strategy; 3] = [Strategy::Original, Strategy::LtdDelayed, Strategy::Delayed];

    /// Short name used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Original => "original",
            Strategy::LtdDelayed => "ltd-delayed",
            Strategy::Delayed => "delayed",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = Strategy::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }
}
