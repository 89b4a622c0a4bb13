//! Invalid `MESORASI_*` environment overrides must fail loudly, naming the
//! accepted values — never be silently ignored (which would make a typo'd
//! override *look* honored and skew experiments).
//!
//! The parse results are cached in process-wide `OnceLock`s, so these
//! tests drive a subprocess (the `repro` binary) instead of mutating this
//! process' environment.

use std::process::Command;

fn repro_bench_with(var: &str, value: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--smoke"])
        .env(var, value)
        .output()
        .expect("spawn repro")
}

#[test]
fn invalid_mesorasi_threads_fails_loudly_with_accepted_values() {
    let out = repro_bench_with("MESORASI_THREADS", "lots");
    assert!(!out.status.success(), "invalid MESORASI_THREADS must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid MESORASI_THREADS='lots'"), "stderr: {err}");
    assert!(err.contains("positive integers 1..="), "must name accepted values: {err}");
}

#[test]
fn invalid_mesorasi_search_fails_loudly_with_accepted_values() {
    let out = repro_bench_with("MESORASI_SEARCH", "octtree");
    assert!(!out.status.success(), "invalid MESORASI_SEARCH must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid MESORASI_SEARCH='octtree'"), "stderr: {err}");
    assert!(err.contains("auto|kdtree|grid|bruteforce|octree"), "must name accepted values: {err}");
}

#[test]
fn invalid_mesorasi_pager_budget_fails_loudly_with_accepted_values() {
    let out = repro_bench_with("MESORASI_PAGER_BUDGET", "huge");
    assert!(!out.status.success(), "invalid MESORASI_PAGER_BUDGET must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid MESORASI_PAGER_BUDGET='huge'"), "stderr: {err}");
    assert!(err.contains("unbounded"), "must name accepted values: {err}");
}

#[test]
fn invalid_mesorasi_tile_budget_fails_loudly_with_accepted_values() {
    let out = repro_bench_with("MESORASI_TILE_BUDGET", "huge");
    assert!(!out.status.success(), "invalid MESORASI_TILE_BUDGET must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid MESORASI_TILE_BUDGET='huge'"), "stderr: {err}");
    assert!(err.contains("positive integers (points per tile) or \"off\""), "stderr: {err}");
}

#[test]
fn zero_mesorasi_tile_budget_fails_loudly() {
    // `0` parses as an integer but is not a legal budget — it must be
    // rejected by the same loud path, not fall through to a panic deep in
    // the tile splitter.
    let out = repro_bench_with("MESORASI_TILE_BUDGET", "0");
    assert!(!out.status.success(), "zero MESORASI_TILE_BUDGET must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid MESORASI_TILE_BUDGET='0'"), "stderr: {err}");
}

#[test]
fn invalid_mesorasi_dtype_fails_loudly_with_accepted_values() {
    let out = repro_bench_with("MESORASI_DTYPE", "f16");
    assert!(!out.status.success(), "invalid MESORASI_DTYPE must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid MESORASI_DTYPE='f16': accepted values are f32|f64"), "{err}");
}

#[test]
fn mesorasi_dtype_accepts_any_case_padding_and_empty() {
    // A session build parses MESORASI_DTYPE immediately before
    // MESORASI_TILE_BUDGET, so an invalid tile budget is a cheap sentinel:
    // reaching *its* loud failure proves the dtype value was accepted,
    // without sitting through a whole smoke bench. Empty means unset (CI
    // blanks variables that way), like MESORASI_PAGER_BUDGET.
    for dtype in ["F64", " f64 ", "f32", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["bench", "--smoke"])
            .env("MESORASI_DTYPE", dtype)
            .env("MESORASI_TILE_BUDGET", "huge")
            .output()
            .expect("spawn repro");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("MESORASI_DTYPE"), "'{dtype}' must be accepted: {err}");
        assert!(err.contains("invalid MESORASI_TILE_BUDGET='huge'"), "'{dtype}': {err}");
    }
}

#[test]
fn valid_overrides_still_accepted() {
    // `0`/negative are rejected; a plain valid pair must boot far enough
    // to start benching (we don't wait for completion — kill via timeout
    // is unavailable, so assert only on the loud-failure cases above and
    // on the cheap parse acceptance here).
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .env("MESORASI_THREADS", "2")
        .env("MESORASI_SEARCH", "kdtree")
        .env("MESORASI_TILE_BUDGET", "off")
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "valid overrides must not fail: {:?}", out);
}
