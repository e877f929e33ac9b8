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
