//! Invalid `MESORASI_*` environment overrides must fail loudly, naming the
//! accepted values — never be silently ignored (which would make a typo'd
//! override *look* honored and skew experiments).
//!
//! The environment is process-global and libtest runs tests on parallel
//! threads, so these tests drive subprocesses (this test binary re-running
//! one `#[ignore]`d child test, or the `repro` binary) instead of mutating
//! this process' environment.

use mesorasi_knn::SearchBackend;
use mesorasi_networks::{NetworkKind, SessionBuilder};
use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
use std::process::Command;

/// Child half of every test that sets variables: the two reads any
/// inference process makes — the pool size, then a session's engine
/// configuration. When the parent names one in `EXPECT_DTYPE`, the session
/// must have been built at that dtype.
#[test]
#[ignore = "run by the tests of this file under the environment each one sets"]
fn child_builds_a_session() {
    let _ = mesorasi_par::current_threads();
    let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
        .classes(3)
        .workers(1)
        .build();
    if let Ok(want) = std::env::var("EXPECT_DTYPE") {
        assert_eq!(session.dtype().to_string(), want);
    }
}

/// Runs [`child_builds_a_session`] under `vars`; returns whether it passed
/// and everything it printed (libtest reports a panic on stdout).
fn session_build_with(vars: &[(&str, &str)]) -> (bool, String) {
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--ignored", "--exact", "child_builds_a_session"])
        .envs(vars.iter().copied())
        .output()
        .expect("spawn self");
    let printed = [out.stdout, out.stderr].concat();
    (out.status.success(), String::from_utf8_lossy(&printed).into_owned())
}

/// Every variable rejects junk through the one loud-failure shape.
fn assert_rejected(var: &str, raw: &str, accepted: &str) {
    let (ok, err) = session_build_with(&[(var, raw)]);
    assert!(!ok, "invalid {var} must not be ignored");
    let want = format!("invalid {var}='{raw}': accepted values are {accepted}");
    assert!(err.contains(&want), "output: {err}");
}

#[test]
fn invalid_mesorasi_threads_fails_loudly_with_accepted_values() {
    assert_rejected("MESORASI_THREADS", "lots", "positive integers 1..=256");
}

#[test]
fn invalid_mesorasi_search_fails_loudly_with_accepted_values() {
    // A typo and a deleted backend alike: unknown values.
    for raw in ["octtree", "grid"] {
        assert_rejected("MESORASI_SEARCH", raw, "auto|bruteforce|octree");
    }
}

#[test]
fn invalid_mesorasi_dtype_fails_loudly_with_accepted_values() {
    assert_rejected("MESORASI_DTYPE", "f16", "f32|f64");
}

#[test]
fn mesorasi_dtype_accepts_any_case_padding_and_empty() {
    // Empty means unset (CI blanks variables that way).
    for (raw, want) in [("F64", "f64"), (" f64 ", "f64"), ("f32", "f32"), ("", "f32")] {
        let (ok, out) = session_build_with(&[("MESORASI_DTYPE", raw), ("EXPECT_DTYPE", want)]);
        assert!(ok && out.contains("1 passed"), "'{raw}' must build a {want} session: {out}");
    }
}

#[test]
fn every_variable_accepts_blank_and_mixed_case() {
    // Blank means unset (CI can blank a job-level variable, not remove
    // it); keywords are trimmed and ASCII case-insensitive. An invalid
    // `MESORASI_DTYPE` is parsed last, so reaching *its* loud failure
    // proves the two variables before it were accepted.
    for (search, threads) in [("", ""), (" ", " "), (" OcTree ", " 2 "), ("AUTO", "1")] {
        let (_, err) = session_build_with(&[
            ("MESORASI_THREADS", threads),
            ("MESORASI_SEARCH", search),
            ("MESORASI_DTYPE", "f16"),
        ]);
        let case = format!("('{search}', '{threads}'): {err}");
        assert!(err.contains("invalid MESORASI_DTYPE='f16'"), "{case}");
        assert_eq!(err.matches("invalid MESORASI_").count(), 1, "{case}");
    }
}

/// Child half of [`explicit_builder_settings_beat_the_environment`]: only
/// meaningful under the environment the parent sets.
#[test]
#[ignore = "run by explicit_builder_settings_beat_the_environment under a forced-octree environment"]
fn child_search_backend_follows_the_builder_not_the_environment() {
    let calls = |builder: SessionBuilder| {
        let session = builder.classes(3).workers(1).build();
        let n = session.network().input_points();
        let _ = session.infer(&sample_shape(ShapeClass::Chair, n, 1));
        let by_backend = session.arena_stats(n).expect("shape compiled").search.calls_by_backend;
        [SearchBackend::Octree, SearchBackend::BruteForce].map(|b| by_backend[b as usize] > 0)
    };
    let kind = NetworkKind::PointNetPPClassification;
    let ambient = calls(SessionBuilder::from_kind(kind));
    assert_eq!(ambient, [true, false], "the environment forces the octree");
    let explicit = calls(SessionBuilder::from_kind(kind).search_backend(SearchBackend::BruteForce));
    assert_eq!(explicit, [false, true], "an explicit brute-force setting must win");
}

#[test]
fn explicit_builder_settings_beat_the_environment() {
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--ignored",
            "--exact",
            "child_search_backend_follows_the_builder_not_the_environment",
        ])
        .env("MESORASI_SEARCH", "octree")
        .output()
        .expect("spawn self");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && stdout.contains("1 passed"), "{stdout}");
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
        .env("MESORASI_SEARCH", "octree")
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "valid overrides must not fail: {:?}", out);
}
