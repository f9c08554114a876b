//! The `uvllm` binary end to end: a tiny campaign run twice on the same
//! sink (the second run resumes every job), the paper rollups in its
//! report, and argument errors that must exit non-zero.

use std::path::PathBuf;
use std::process::{Command, Output};

fn uvllm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uvllm")).args(args).output().expect("spawn uvllm")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn fresh_sink(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uvllm-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn rerun_on_the_same_sink_resumes_every_job_and_reports_the_paper_rollups() {
    let sink = fresh_sink("resume.jsonl");
    let sink = sink.to_str().unwrap();
    let args = ["--size", "4", "--methods", "Strider,RTLrepair", "--workers", "2", "--out", sink];

    let first = uvllm(&args);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let first = stdout(&first);
    assert!(first.contains("8 jobs total, 8 evaluated now, 0 resumed"), "{first}");
    let rows = std::fs::read_to_string(sink).unwrap();
    assert_eq!(rows.lines().count(), 8);

    let second = uvllm(&args);
    assert!(second.status.success(), "{}", String::from_utf8_lossy(&second.stderr));
    let second = stdout(&second);
    assert!(second.contains("resuming: 8 completed rows"), "{second}");
    assert!(second.contains("8 jobs total, 0 evaluated now, 8 resumed"), "{second}");
    assert_eq!(std::fs::read_to_string(sink).unwrap(), rows, "a resumed run appends nothing");

    // The report covers the whole sink, resumed rows included.
    assert!(second.contains("campaign rows: 8"), "{second}");
    for heading in ["Table II", "Fig. 5", "Fig. 6", "Fig. 7", "Table III"] {
        assert!(second.contains(heading), "missing {heading}:\n{second}");
    }
}

#[test]
fn bad_arguments_exit_non_zero() {
    for args in [
        &["serve", "--lease-ms", "0"][..],
        &["serve", "--poll-ms", "0"],
        &["--no-such-flag"],
        &["serve", "--no-such-flag"],
        &["merge", "--no-such-flag"],
    ] {
        let out = uvllm(args);
        assert!(!out.status.success(), "uvllm {args:?} must fail");
        assert!(!out.stderr.is_empty(), "uvllm {args:?} must say why");
    }
}

#[test]
fn help_lists_every_subcommand() {
    let out = uvllm(&["--help"]);
    assert!(out.status.success());
    let help = stdout(&out);
    for word in [
        "uvllm merge",
        "uvllm metrics-check",
        "--emit-json",
        "--import-json",
        "uvllm serve",
        "uvllm worker",
        "uvllm submit",
        "uvllm status",
        "uvllm metrics ",
        "uvllm shutdown",
        "uvllm ping",
    ] {
        assert!(help.contains(word), "--help must mention '{word}':\n{help}");
    }
}
