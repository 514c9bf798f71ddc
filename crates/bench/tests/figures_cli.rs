//! The `figures` bin's command line: 2 on a bad one, and a named figure
//! printed byte for byte as pinned. (`figures check` runs every figure,
//! a few minutes; `scripts/ci.sh` runs it.)

use std::path::Path;
use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run the figures bin")
}

#[test]
fn a_bad_command_line_exits_2() {
    assert_eq!(figures(&[]).status.code(), Some(2));
    assert_eq!(figures(&["fig9_nonexistent"]).status.code(), Some(2));
    assert_eq!(figures(&["check", "extra"]).status.code(), Some(2));
}

#[test]
fn a_named_figure_reprints_its_pinned_file() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["fig4_params", "fig6_latency_largescale"] {
        let out = figures(&[name]);
        assert_eq!(out.status.code(), Some(0), "{name}");
        let pinned = std::fs::read(results.join(format!("{name}.txt"))).unwrap();
        assert!(out.stdout == pinned, "{name} moved from results/{name}.txt");
    }
}
