//! End-to-end checks of the `dfl` binary's typed error handling: bad
//! input must produce a one-line `error:` diagnostic and a nonzero exit,
//! never a panic; good input must round-trip an exported trace.

use std::process::Command;

fn dfl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dfl"))
        .args(args)
        .output()
        .expect("spawn dfl")
}

#[test]
fn report_on_missing_file_fails_cleanly() {
    let out = dfl(&["report", "--from-jsonl", "/nonexistent/never/trace.jsonl"]);
    assert!(!out.status.success(), "missing file must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(
        stderr.contains("/nonexistent/never/trace.jsonl"),
        "stderr must name the path: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic on missing input: {stderr}"
    );
}

#[test]
fn report_on_corrupt_file_names_the_line() {
    let dir = std::env::temp_dir().join(format!("dfl-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.jsonl");
    std::fs::write(
        &path,
        "{\"type\":\"counter\",\"label\":\"ok\",\"value\":1}\nnot json\n",
    )
    .unwrap();

    let out = dfl(&["report", "--from-jsonl", path.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt file must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2"),
        "stderr must name the corrupt line: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_round_trips_an_exported_trace() {
    let dir = std::env::temp_dir().join(format!("dfl-cli-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");

    let export = dfl(&[
        "report",
        "--trainers",
        "4",
        "--partitions",
        "1",
        "--nodes",
        "2",
        "--rounds",
        "1",
        "--export-jsonl",
        path.to_str().unwrap(),
    ]);
    assert!(
        export.status.success(),
        "export run failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );

    let reread = dfl(&["report", "--from-jsonl", path.to_str().unwrap()]);
    assert!(
        reread.status.success(),
        "re-read failed: {}",
        String::from_utf8_lossy(&reread.stderr)
    );
    let stdout = String::from_utf8_lossy(&reread.stdout);
    assert!(stdout.contains("byte accounting:"), "stdout: {stdout}");
    assert!(stdout.contains("total sent"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flag_value_is_a_usage_error() {
    let out = dfl(&["report", "--trainers", "many"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trainers") && stderr.contains("many"),
        "stderr: {stderr}"
    );
}
