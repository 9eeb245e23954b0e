//! Command-line behaviour of the `experiments` binary.

use std::process::Command;

#[test]
fn unknown_table_name_fails_and_lists_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("bogus")
        .output()
        .expect("experiments binary runs");
    assert!(!out.status.success(), "status: {:?}", out.status);
    assert!(out.stdout.is_empty(), "no table may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bogus") && stderr.contains("all, e1, e2") && stderr.contains("e11"),
        "stderr must name the valid tables: {stderr}"
    );
}
