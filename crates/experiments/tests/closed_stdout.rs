//! The experiment binaries print tables for people and pipes; a reader
//! that stops early (`trace | head -1`) must not make them panic.

use std::process::{Command, Stdio};

#[test]
fn trace_ends_quietly_when_its_reader_goes_away() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace"))
        .arg("shinjuku")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("trace starts");
    // Close the only read end before trace prints its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("trace exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "trace panicked on a closed stdout:\n{stderr}"
    );
    assert!(
        out.status.success(),
        "trace exited {}:\n{stderr}",
        out.status
    );
}
