//! Command-line input checks through the real binary: malformed values
//! exit nonzero with a typed error naming the flag and the token —
//! never a panic, never a silent default.

use std::process::Command;

/// Run `nqp-cli tpch 6 --sf <token>` and require a clean typed refusal.
fn assert_sf_rejected(token: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_nqp-cli"))
        .args(["tpch", "6", "--sf", token])
        .output()
        .expect("nqp-cli runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--sf {token}: want exit 1, stderr `{err}`"
    );
    assert!(err.contains("malformed --sf spec"), "--sf {token}: `{err}`");
    assert!(
        err.contains(&format!("`{token}`")),
        "--sf {token}: token not named in `{err}`"
    );
    assert!(!err.contains("panicked"), "--sf {token}: `{err}`");
}

#[test]
fn tpch_sf_zero_is_rejected() {
    assert_sf_rejected("0");
}

#[test]
fn tpch_sf_negative_is_rejected() {
    assert_sf_rejected("-1");
}

#[test]
fn tpch_sf_non_number_is_rejected() {
    assert_sf_rejected("abc");
}

/// Run `nqp-cli <args>` and require exit 1 with a typed BadSpec error
/// naming `flag` and `token` — not a run with the flag's default.
fn assert_number_rejected(args: &[&str], flag: &str, token: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_nqp-cli"))
        .args(args)
        .output()
        .expect("nqp-cli runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: want exit 1, stderr `{err}`");
    assert!(err.contains(&format!("malformed {flag} spec")), "{args:?}: `{err}`");
    assert!(err.contains(&format!("`{token}`")), "{args:?}: token not named in `{err}`");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn workload_threads_non_number_is_rejected() {
    assert_number_rejected(
        &["workload", "w1", "--machine", "B", "--n", "500", "--card", "50", "--threads", "abc"],
        "--threads",
        "abc",
    );
}

#[test]
fn malformed_sizes_and_seeds_are_rejected() {
    // W1 reads --n, --card and --seed; a token that is not an unsigned
    // integer in any of them refuses the run.
    for (flag, token) in [("--n", "1e3"), ("--card", "-5"), ("--seed", "x1")] {
        let mut args = vec!["workload", "w1", "--machine", "B", "--threads", "2"];
        args.extend([flag, token]);
        assert_number_rejected(&args, flag, token);
    }
}

#[test]
fn malformed_sweep_and_serve_counts_are_rejected() {
    assert_number_rejected(
        &["sweep", "w3", "--machine", "B", "--n", "500", "--trials", "two"],
        "--trials",
        "two",
    );
    assert_number_rejected(
        &["sweep", "w3", "--machine", "B", "--n", "500", "--max-cells", "1.5"],
        "--max-cells",
        "1.5",
    );
    assert_number_rejected(
        &["serve", "w1", "--machine", "B", "--duration", "10", "--max-cells", "many"],
        "--max-cells",
        "many",
    );
    assert_number_rejected(&["hotpath", "w1", "--reps", "3x"], "--reps", "3x");
}

#[test]
fn absent_numeric_flags_keep_their_defaults() {
    let out = Command::new(env!("CARGO_BIN_EXE_nqp-cli"))
        .args(["workload", "w3", "--machine", "B", "--n", "500"])
        .output()
        .expect("nqp-cli runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Machine B's default thread count is its hardware thread count.
    assert!(stdout.contains("threads"), "{stdout}");
}
