//! End-to-end checks of the `congames` binary's argument handling that
//! only show up across a whole process run.

use std::path::PathBuf;
use std::process::Command;

const TRACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/step_shock.trace");

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("congames-cli-{}-{name}", std::process::id()))
}

fn run_with_shock_csv(path: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_congames"))
        .args(["run", "--links", "1,2,4", "--players", "2000", "--rounds", "400"])
        .args(["--scenario", TRACE, "--shock-csv"])
        .arg(path)
        .output()
        .expect("the binary runs")
}

/// An unwritable `--shock-csv` path fails before the run starts: no
/// end-of-run line is printed. A writable one receives the summary.
#[test]
fn shock_csv_path_is_validated_before_the_run() {
    let missing_dir = scratch("missing-dir").join("shocks.csv");
    let out = run_with_shock_csv(&missing_dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "an unwritable path must fail the run");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(!stdout.contains("after "), "the run must not start:\n{stdout}");

    let csv = scratch("shocks.csv");
    let out = run_with_shock_csv(&csv);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&csv).expect("the summary was written");
    std::fs::remove_file(&csv).expect("remove the scratch file");
    assert!(written.lines().count() >= 2, "header plus one shock row:\n{written}");
}
