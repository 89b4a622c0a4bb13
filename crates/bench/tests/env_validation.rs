//! Invalid `MESORASI_*` environment overrides must fail loudly, naming the
//! accepted values — never be silently ignored (which would make a typo'd
//! override *look* honored and skew experiments).
//!
//! The environment is process-global and libtest runs tests on parallel
//! threads, so these tests drive subprocesses (this test binary re-running
//! one `#[ignore]`d child test, or the `repro` binary) instead of mutating
//! this process' environment.

use mesorasi_networks::{NetworkKind, SessionBuilder};
use std::process::Command;

/// Child half of every test that sets variables: what any inference
/// process does — size the pool, then build a session. When the parent
/// names a count in `EXPECT_THREADS`, the pool must have resolved to it.
#[test]
#[ignore = "run by the tests of this file under the environment each one sets"]
fn child_builds_a_session() {
    let threads = mesorasi_par::current_threads();
    let _ = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
        .classes(3)
        .workers(1)
        .build();
    if let Ok(want) = std::env::var("EXPECT_THREADS") {
        assert_eq!(threads.to_string(), want);
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
fn every_variable_accepts_blank_and_mixed_case() {
    // Blank means unset (CI can blank a job-level variable, not remove
    // it); values are trimmed.
    for (threads, want) in [("", None), (" ", None), (" 2 ", Some("2")), ("1", Some("1"))] {
        let mut vars = vec![("MESORASI_THREADS", threads)];
        vars.extend(want.map(|n| ("EXPECT_THREADS", n)));
        let (ok, out) = session_build_with(&vars);
        assert!(ok && out.contains("1 passed"), "'{threads}' must build a session: {out}");
    }
}

#[test]
fn valid_overrides_still_accepted() {
    // `0`/negative are rejected; a plain valid value must boot far enough
    // to start benching (we don't wait for completion — kill via timeout
    // is unavailable, so assert only on the loud-failure cases above and
    // on the cheap parse acceptance here).
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .env("MESORASI_THREADS", "2")
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "valid overrides must not fail: {:?}", out);
}
