//! The checker's stack bound under `serve`: a `salloc` whose stack
//! would pass `MAX_STACK_CELLS` is one `error[typecheck]` reply, not an
//! aborted process, and the stream goes on serving.

use std::io::Write;
use std::process::{Command, Stdio};

use funtal_tal::check::MAX_STACK_CELLS;

#[test]
fn oversized_salloc_is_a_typecheck_error_and_serve_continues() {
    let jobs = concat!(
        r#"{"id":"bomb","cmd":"run","src":"FT[int](salloc 3000000000; mv r1, 7; sfree 3000000000; halt int, * {r1})"}"#,
        "\n",
        r#"{"id":"after","cmd":"run","src":"6 * 7"}"#,
        "\n",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_funtal"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning funtal serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(jobs.as_bytes())
        .expect("writing jobs");
    let out = child.wait_with_output().expect("running funtal serve");
    assert_eq!(out.status.code(), Some(0), "serve must exit normally");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one reply per job: {stdout}");
    assert!(
        lines[0].starts_with(r#"{"id":"bomb","cmd":"run","ok":false,"stage":"typecheck""#),
        "{}",
        lines[0]
    );
    assert_eq!(
        lines[0].matches("error[typecheck]").count(),
        1,
        "{}",
        lines[0]
    );
    assert!(
        lines[0].contains(&format!("implementation limit of {MAX_STACK_CELLS}")),
        "the error names the limit: {}",
        lines[0]
    );
    assert!(
        lines[1].starts_with(r#"{"id":"after","cmd":"run","ok":true"#)
            && lines[1].contains(r#""value":"42""#),
        "{}",
        lines[1]
    );
}

#[test]
fn the_limit_is_inclusive() {
    let pipeline = funtal_driver::Pipeline::new();
    let at_limit = format!(
        "FT[int](salloc {MAX_STACK_CELLS}; mv r1, 7; sst {}, r1; sfree {MAX_STACK_CELLS}; halt int, * {{r1}})",
        MAX_STACK_CELLS - 1
    );
    pipeline
        .check_source(&at_limit)
        .expect("a stack of exactly MAX_STACK_CELLS checks");
    let over = format!(
        "FT[int](salloc 1; salloc {MAX_STACK_CELLS}; mv r1, 7; sfree {}; halt int, * {{r1}})",
        MAX_STACK_CELLS + 1
    );
    let err = pipeline.check_source(&over).unwrap_err().to_string();
    assert!(
        err.contains(&format!(
            "grow the visible stack to {} cells",
            MAX_STACK_CELLS + 1
        )),
        "{err}"
    );
}
