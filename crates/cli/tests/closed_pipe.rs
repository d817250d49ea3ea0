//! The real `gnet` binary with stdout and stderr on a pipe whose read end
//! is already closed, as in `gnet … 2>&1 | head -1` once `head` has its
//! line: every write fails, and the process must still exit with its own
//! status — never 101, the status of a panic — and a command that
//! succeeds must still write its output files.

use std::path::PathBuf;
use std::process::Command;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnet-closed-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The exit status of `gnet args` writing into a closed pipe.
fn status_into_closed_pipe(args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_gnet"))
        .args(args)
        .stdout(writer.try_clone().expect("clone the write end"))
        .stderr(writer)
        .status()
        .expect("run gnet")
        .code()
}

#[test]
fn a_closed_pipe_ends_gnet_with_its_own_status() {
    let dir = tmpdir();
    let at = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (m, e) = (at("m.tsv"), at("e.tsv"));
    let generated = Command::new(env!("CARGO_BIN_EXE_gnet"))
        .args(["generate", "--genes", "6", "--samples", "30", "--out", &m])
        .output()
        .expect("run gnet generate");
    assert!(generated.status.success());
    for (args, expected) in [
        (vec!["help"], 0),
        (vec!["sideways"], 2),
        (vec![], 2),
        (vec!["infer", "--input", &m, "stray"], 2),
        (vec!["infer", "--input", &m], 1),
        // The report lines go nowhere, and the run still writes its result.
        (vec!["infer", "--input", &m, "--output", &e, "--q", "8"], 0),
    ] {
        assert_eq!(
            status_into_closed_pipe(&args),
            Some(expected),
            "gnet {args:?}"
        );
    }
    let open = at("e.open.tsv");
    let inferred = Command::new(env!("CARGO_BIN_EXE_gnet"))
        .args(["infer", "--input", &m, "--output", &open, "--q", "8"])
        .output()
        .expect("run gnet infer");
    assert!(inferred.status.success());
    let read = |path: &str| std::fs::read(path).expect("edge file written");
    assert_eq!(
        read(&e),
        read(&open),
        "a closed stdout changed the edge file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
