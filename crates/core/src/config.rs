//! The engine's configuration: one value, fixed for the engine's lifetime.
//!
//! Every knob a [`crate::engine::PlanEngine`] has lives in one
//! [`EngineConfig`]. Code that wants a different setting builds a different
//! config (and engine). The engine reads no environment variable; the
//! workspace's one `MESORASI_*` variable, `MESORASI_THREADS`, belongs to
//! `mesorasi-par`.

use crate::sample_cache::DEFAULT_SAMPLE_CACHE_CAP;

/// Everything configurable about a plan engine. None of it changes
/// results: the cache only skips re-derivation. Searches are not
/// configured: every coordinate search runs on the octree, and how a
/// frame's searches split across the worker pool is
/// `mesorasi_par::chunk_len`'s cost model's call.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Per-plan NIT sample-cache capacity; 0 disables caching (default
    /// [`DEFAULT_SAMPLE_CACHE_CAP`]).
    pub sample_cache_cap: usize,
}

impl Default for EngineConfig {
    /// The built-in defaults.
    fn default() -> EngineConfig {
        EngineConfig { sample_cache_cap: DEFAULT_SAMPLE_CACHE_CAP }
    }
}
