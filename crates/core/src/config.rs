//! The engine's configuration: one value, one environment reader.
//!
//! Every knob a [`crate::engine::PlanEngine`] has lives in one
//! [`EngineConfig`], fixed for the engine's lifetime. Code that wants a
//! different setting builds a different config (and engine); code that
//! wants the process environment's settings calls
//! [`EngineConfig::from_env`] — the only place besides `mesorasi-par`'s
//! `MESORASI_THREADS` where the workspace reads a `MESORASI_*` variable.
//! A config handed to an engine explicitly is never second-guessed from
//! the environment.

use crate::sample_cache::DEFAULT_SAMPLE_CACHE_CAP;
use mesorasi_knn::{planner, SearchPlanner};
use mesorasi_tensor::Dtype;

/// Everything configurable about a plan engine. None of it changes
/// results within a dtype: search backends are exact and the cache only
/// skips re-derivation. How a frame's searches split across the worker
/// pool is not configured: `mesorasi_par::chunk_len`'s cost model decides.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Chooses the backend of every coordinate search (default: the cost
    /// model; `MESORASI_SEARCH`).
    pub search: SearchPlanner,
    /// Per-plan NIT sample-cache capacity; 0 disables caching (default
    /// [`DEFAULT_SAMPLE_CACHE_CAP`]; no environment variable).
    pub sample_cache_cap: usize,
    /// Execution dtype (default [`Dtype::F32`]; `MESORASI_DTYPE`).
    pub dtype: Dtype,
}

impl Default for EngineConfig {
    /// The built-in defaults, ignoring the environment.
    fn default() -> EngineConfig {
        EngineConfig {
            search: SearchPlanner::auto(),
            sample_cache_cap: DEFAULT_SAMPLE_CACHE_CAP,
            dtype: Dtype::F32,
        }
    }
}

impl EngineConfig {
    /// The defaults overlaid with the process environment, read at the
    /// time of the call (nothing is cached):
    ///
    /// | variable | accepted values |
    /// |---|---|
    /// | `MESORASI_SEARCH` | `auto` \| `bruteforce` \| `octree` |
    /// | `MESORASI_DTYPE` | `f32` \| `f64` |
    ///
    /// One grammar for both: values are trimmed, keywords are ASCII
    /// case-insensitive, and an unset or blank variable keeps the default
    /// (CI can blank a job-level variable but not remove it).
    ///
    /// # Panics
    ///
    /// Panics with `invalid NAME='raw': accepted values are …` on anything
    /// else. A typo'd override silently falling back to the default would
    /// *look* like the requested configuration was measured — config
    /// errors must fail loudly, not skew experiments.
    pub fn from_env() -> EngineConfig {
        let mut config = EngineConfig::default();
        if let Some(search) = env_var("MESORASI_SEARCH", "auto|bruteforce|octree", |s| {
            planner::parse_override(s).ok()
        }) {
            config.search = search.map_or(SearchPlanner::auto(), SearchPlanner::forced);
        }
        if let Some(dtype) = env_var("MESORASI_DTYPE", "f32|f64", |s| s.parse().ok()) {
            config.dtype = dtype;
        }
        config
    }
}

/// The shared grammar: `None` for an unset or blank variable, else the
/// value `parse` makes of the trimmed, lower-cased keyword.
fn env_var<T>(name: &str, accepted: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    // Lossy, so a non-UTF-8 value fails loudly below instead of reading
    // as unset.
    let raw = std::env::var_os(name)?;
    let raw = raw.to_string_lossy();
    let keyword = raw.trim().to_ascii_lowercase();
    if keyword.is_empty() {
        return None;
    }
    Some(
        parse(&keyword)
            .unwrap_or_else(|| panic!("invalid {name}='{raw}': accepted values are {accepted}")),
    )
}
