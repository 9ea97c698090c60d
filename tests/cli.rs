//! The `tincy` binary as the writer of a shell pipeline: a reader that
//! stopped reading (`tincy demo … | head -1`) ends the command with
//! success, not with a panic on the next line it prints.

use std::process::{Command, Stdio};

/// Runs `tincy` on `args` with its stdout a pipe whose read end is closed
/// before the process starts; returns the exit code and stderr.
fn run_into_a_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_tincy"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("tincy runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn a_closed_stdout_ends_the_command_cleanly() {
    for args in [&["demo", "2", "1", "32"][..], &["serve", "--help"]] {
        let (code, stderr) = run_into_a_closed_pipe(args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}
