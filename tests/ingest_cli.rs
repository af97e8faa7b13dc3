//! CLI-level tests for real-layout ingestion: format auto-detection,
//! `sadp convert` round-trips and pinned parse errors.

use std::path::{Path, PathBuf};
use std::process::Command;

fn sadp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sadp"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Stdout with the wall-clock line removed — the only
/// non-deterministic line a route prints.
fn strip_cpu(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter(|l| !l.starts_with("cpu "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Layout text minus `#` comment lines: convert prepends provenance
/// headers, which are not part of the parsed geometry.
fn strip_comments(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn convert_reaches_a_fixpoint_after_one_round_trip() {
    // parse -> convert emits canonical .layout text; converting that
    // text again must reproduce it exactly (modulo provenance headers).
    let dir = tmp_dir("sadp_ingest_fixpoint");
    for fixture in [
        "fixtures/imported/led-matrix.dsn",
        "fixtures/imported/macro-block.def",
        "fixtures/odd_cycle.layout",
    ] {
        let first = sadp()
            .args(["convert", fixture])
            .output()
            .expect("binary runs");
        assert!(
            first.status.success(),
            "{fixture}: {}",
            String::from_utf8_lossy(&first.stderr)
        );
        let once = String::from_utf8_lossy(&first.stdout).into_owned();

        let stem = Path::new(fixture).file_stem().unwrap().to_str().unwrap();
        let intermediate = dir.join(format!("{stem}.layout"));
        std::fs::write(&intermediate, &once).unwrap();
        let second = sadp()
            .args(["convert", intermediate.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(second.status.success());
        let twice = String::from_utf8_lossy(&second.stdout).into_owned();
        assert_eq!(
            strip_comments(&once),
            strip_comments(&twice),
            "{fixture}: convert is not a fixpoint"
        );
    }
}

#[test]
fn convert_records_provenance_and_honours_out() {
    let dir = tmp_dir("sadp_ingest_convert_out");
    let out_file = dir.join("board.layout");
    let out = sadp()
        .args([
            "convert",
            "fixtures/imported/led-matrix.dsn",
            "--out",
            out_file.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote "));
    let text = std::fs::read_to_string(&out_file).expect("file written");
    assert!(
        text.starts_with("# converted from led-matrix.dsn (dsn reader)\n"),
        "{text}"
    );
    assert!(text.contains("pitch 200 (grid wire)"), "{text}");
    // The emitted file routes as a native layout with no import line.
    let routed = sadp()
        .args(["route", out_file.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(routed.status.success());
    assert!(!String::from_utf8_lossy(&routed.stdout).contains("imported "));
}

#[test]
fn auto_detection_sniffs_content_before_trusting_the_extension() {
    // A native layout saved under a misleading `.dsn` name must still
    // be parsed as a layout — content wins, the extension is only a
    // hint for ambiguous content.
    let dir = tmp_dir("sadp_ingest_sniff");
    let native = std::fs::read_to_string("fixtures/odd_cycle.layout").unwrap();
    let disguised = dir.join("board.dsn");
    std::fs::write(&disguised, &native).unwrap();

    let direct = sadp()
        .args(["route", "fixtures/odd_cycle.layout"])
        .output()
        .expect("binary runs");
    let sniffed = sadp()
        .args(["route", disguised.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(sniffed.status.success());
    let stdout = String::from_utf8_lossy(&sniffed.stdout);
    assert!(
        !stdout.contains("imported "),
        "misdetected as an import: {stdout}"
    );
    assert_eq!(
        strip_cpu(&direct.stdout),
        strip_cpu(&sniffed.stdout),
        "the extension changed the result"
    );

    // And the reverse: DSN content under a `.layout` name is a DSN.
    let dsn = std::fs::read_to_string("fixtures/imported/led-matrix.dsn").unwrap();
    let disguised = dir.join("board.layout");
    std::fs::write(&disguised, &dsn).unwrap();
    let out = sadp()
        .args(["route", disguised.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("(dsn)"),
        "DSN content was not sniffed"
    );
}

#[test]
fn malformed_dsn_fails_with_code_3_and_a_position() {
    let dir = tmp_dir("sadp_ingest_bad_dsn");

    // Unclosed list: position of the opener.
    let bad = dir.join("trunc.dsn");
    std::fs::write(&bad, "(pcb x (unclosed\n").unwrap();
    let out = sadp()
        .args(["route", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dsn: line 1, col 8: unclosed `(`"),
        "{stderr}"
    );

    // Structurally valid s-expr, semantically outside the subset.
    let bad = dir.join("nolayers.dsn");
    std::fs::write(
        &bad,
        "(pcb demo\n  (structure (boundary (rect pcb 0 0 100 100)))\n)\n",
    )
    .unwrap();
    let out = sadp()
        .args(["route", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dsn: line 2, col 3: no (layer ...) declarations"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Hostile nesting (400 KB of brackets): a positioned parse error,
    // not a stack overflow.
    let bad = dir.join("deep.dsn");
    let depth = 200_000;
    std::fs::write(
        &bad,
        format!("(pcb x {}{})\n", "(".repeat(depth), ")".repeat(depth)),
    )
    .unwrap();
    let out = sadp()
        .args(["route", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("dsn: line 1, col "), "{stderr}");
    assert!(stderr.contains("lists nested deeper than"), "{stderr}");
}

#[test]
fn malformed_def_fails_with_code_3_and_a_position() {
    let dir = tmp_dir("sadp_ingest_bad_def");

    // No DIEAREA: nothing to snap onto.
    let bad = dir.join("nodie.def");
    std::fs::write(&bad, "DESIGN d ;\nEND DESIGN\n").unwrap();
    let out = sadp()
        .args(["route", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("def: "), "{stderr}");
    assert!(stderr.contains("missing DIEAREA"), "{stderr}");

    // A layer the subset cannot map names itself and the rule.
    let bad = dir.join("badlayer.def");
    std::fs::write(
        &bad,
        "DESIGN d ;\nDIEAREA ( 0 0 ) ( 64000 48000 ) ;\nPINS 1 ;\n\
         - p1 + LAYER poly ( 0 0 ) ( 1000 1000 ) + PLACED ( 100 100 ) N ;\n\
         END PINS\nEND DESIGN\n",
    )
    .unwrap();
    let out = sadp()
        .args(["route", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot infer a layer index from `poly`"),
        "{stderr}"
    );
    assert!(stderr.contains("line 4"), "{stderr}");
}

#[test]
fn def_with_components_needs_a_lef_and_says_so() {
    let dir = tmp_dir("sadp_ingest_no_lef");
    let def = std::fs::read_to_string("fixtures/imported/macro-block.def").unwrap();
    // Copied away from its sidecar, the DEF has no LEF to resolve
    // macros against.
    let orphan = dir.join("orphan.def");
    std::fs::write(&orphan, &def).unwrap();
    let out = sadp()
        .args(["route", orphan.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("LEF"), "{stderr}");

    // Pointing --lef back at the library fixes it.
    let out = sadp()
        .args([
            "route",
            orphan.to_str().unwrap(),
            "--lef",
            "fixtures/imported/macro-block.lef",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("imported "), "{stdout}");
}

#[test]
fn convert_without_an_input_is_a_usage_error() {
    let out = sadp().arg("convert").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
