//! Exposition round-trip on a *real* node's output: the checked-in
//! `results/cluster_metrics.txt` is the `metrics.txt` a localnet node
//! wrote at exit, kept as a frozen fixture. Parsing it and
//! re-rendering the samples must reproduce the file byte for byte —
//! the exposition format's canonical-text promise, held against actual
//! node output rather than hand-built fixtures.

use algorand_obs::expose::{parse, render_samples};

#[test]
fn scraped_exposition_roundtrips_byte_identically() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/cluster_metrics.txt"
    );
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing scraped fixture {path} (see results/README.md): {e}"));
    assert!(!text.is_empty(), "scraped exposition is empty");
    let samples = parse(&text).expect("scraped exposition must parse");
    assert!(
        samples.iter().any(|s| s.name == "node.tip_round"),
        "scrape lacks node.tip_round — not a node exposition?"
    );
    assert_eq!(
        render_samples(&samples),
        text,
        "parse -> render must reproduce the scraped file byte-identically"
    );
}
