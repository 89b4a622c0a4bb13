//! Delayed-aggregation: the Mesorasi paper's algorithmic contribution.
//!
//! A point-cloud module computes each output point as
//! `p_o = F(A(N(p_i), p_i))` — neighbor search, aggregation, feature
//! computation (paper Equ. 1). Because `F` (a shared MLP) is approximately
//! distributive over the subtraction in `A`, the order can be swapped:
//! `p_o ≈ A(F(N(p_i)), F(p_i))` (Equ. 2). That *delayed aggregation*
//!
//! 1. lets `N` and `F` run in parallel (they were serialized), and
//! 2. runs `F` on the `N_in` input points instead of the `N_out × K`
//!    aggregated neighbor rows, cutting MACs and activation footprints.
//!
//! This crate implements the primitive in three layers:
//!
//! * [`module`] / [`strategy`] — module descriptions and the three
//!   execution strategies ([`Strategy::Original`], [`Strategy::LtdDelayed`]
//!   — the GNN-style precise-but-limited variant, [`Strategy::Delayed`]),
//! * [`executor`] / [`runner`] — functional (trainable, autograd-backed)
//!   executors for offset modules (PointNet++ family), edge modules
//!   (DGCNN family), global modules and feature propagation,
//! * [`trace`] — workload traces: per-module operator lists with real
//!   neighbor index tables, consumed by `mesorasi-sim`'s hardware models
//!   and counted for the MACs and footprints of Figs. 7, 9 and 10,
//! * [`distributivity`] — the Equ. 3 identity, exact for the linear part.
//!
//! # Example
//!
//! ```
//! use mesorasi_core::{module::{Module, ModuleConfig, NeighborMode}, runner, Strategy};
//! use mesorasi_nn::{Graph, layers::NormMode};
//! use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
//!
//! let mut rng = mesorasi_pointcloud::seeded_rng(0);
//! let config = ModuleConfig::offset("sa1", 32, 8, NeighborMode::CoordKnn, vec![3, 16, 32]);
//! let module = Module::new(config, NormMode::None, &mut rng);
//! let cloud = sample_shape(ShapeClass::Chair, 128, 1);
//!
//! let mut g = Graph::new();
//! let state = runner::ModuleState::from_cloud(&mut g, &cloud);
//! let out = runner::run_module(&mut g, &module, &state, Strategy::Delayed, 7);
//! assert_eq!(g.value(out.state.features).shape(), (32, 32));
//! ```

#![forbid(unsafe_code)]

pub mod distributivity;
pub mod engine;
pub mod executor;
pub mod module;
pub mod runner;
pub mod sample_cache;
pub mod strategy;
pub mod trace;

pub use sample_cache::{SampleCacheStats, SAMPLE_CACHE_CAP};
pub use strategy::Strategy;
pub use trace::{ModuleTrace, NetworkTrace, Stage};
