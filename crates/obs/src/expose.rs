//! Plain-text metrics exposition: byte-stable `name{labels} value` lines.
//!
//! The format is Prometheus-*style*, hand-rolled and dependency-free,
//! designed for two consumers that must agree byte-for-byte:
//!
//! 1. the node's `metrics.txt`, rewritten with exactly these bytes at
//!    every STATUS tick and at exit,
//! 2. the cluster-health reader, which parses them back with
//!    [`parse`] — a full round trip through this module.
//!
//! Grammar (one sample per line, `\n` terminated):
//!
//! ```text
//! line   := name ['{' label (',' label)* '}'] ' ' value
//! label  := key '="' escaped-value '"'
//! value  := '-'? [0-9]+
//! ```
//!
//! Determinism rules:
//!
//! * Samples are emitted in byte order of the registry key, so two
//!   renders of registries with equal contents are byte-identical.
//! * Label *values* are escaped (`\\`, `\"`, `\n`) and round-trip
//!   exactly, including unicode.
//! * Metric *names* and label *keys* are sanitized: any character
//!   outside `[A-Za-z0-9_:.]` becomes `_`. Sanitization is
//!   deterministic; hostile names cannot break the line orientation of
//!   the format. (Two hostile names may sanitize to the same line name —
//!   both lines are emitted and both parse.)
//! * Histograms expand into `<name>_count`, and — when non-empty —
//!   `<name>_sum`, `<name>_min`, `<name>_p50`, `<name>_p99`,
//!   `<name>_max` lines sharing the base name's labels.
//!
//! Registry keys produced by [`labeled`] carry their labels *inside the
//! key string* in canonical form, which is what makes labelled metrics
//! (`transport.frames_received{kind="gossip"}`) first-class registry
//! citizens with deterministic ordering for free.

use crate::registry::{MetricSnapshot, Registry};
use crate::trace::find_unquoted;

/// One parsed sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The (sanitized) metric name.
    pub name: String,
    /// Label pairs, in the order rendered (sorted by key).
    pub labels: Vec<(String, String)>,
    /// The sample value. Counters are non-negative; gauges may not be.
    pub value: i128,
}

impl Sample {
    /// The value of the label named `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The value of the unlabelled sample `name`, if `samples` holds one.
pub fn unlabelled(samples: &[Sample], name: &str) -> Option<i128> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

/// Builds a canonical labeled registry key: `base{k="v",...}` with
/// labels sorted by key and values escaped. Registering metrics under
/// keys built here guarantees [`render`] emits them verbatim.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = sanitize(base);
    push_labels(&mut out, sorted.iter().map(|(k, v)| (sanitize(k), *v)));
    out
}

/// Appends a `{k="v",...}` label block, values escaped.
fn push_labels<K: AsRef<str>, V: AsRef<str>>(
    out: &mut String,
    labels: impl Iterator<Item = (K, V)>,
) {
    out.push('{');
    for (i, (k, v)) in labels.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k.as_ref());
        out.push_str("=\"");
        escape_value_into(out, v.as_ref());
        out.push('"');
    }
    out.push('}');
}

/// Replaces every character outside `[A-Za-z0-9_:.]` with `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn escape_value_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Splits a registry key into `(base, labels)` if it is a well-formed
/// `labeled` key; otherwise the whole key is the base with no labels.
fn split_key(key: &str) -> (String, Vec<(String, String)>) {
    if let Some(open) = key.find('{') {
        if key.ends_with('}') {
            if let Some(labels) = parse_labels(&key[open + 1..key.len() - 1]) {
                return (sanitize(&key[..open]), labels);
            }
        }
    }
    (sanitize(key), Vec::new())
}

/// Parses a `k="v",k2="v2"` label block; `None` on any malformation.
fn parse_labels(block: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = &rest[..eq];
        if key.is_empty() || key.contains(['"', '{', '}', ',']) {
            return None;
        }
        rest = &rest[eq + 2..];
        // Scan the escaped value to its closing quote.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let close = loop {
            let (i, c) = chars.next()?;
            match c {
                '\\' => match chars.next()?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    _ => return None,
                },
                '"' => break i,
                c => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        rest = &rest[close + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(labels)
}

fn render_line(out: &mut String, base: &str, labels: &[(String, String)], value: i128) {
    out.push_str(base);
    if !labels.is_empty() {
        push_labels(out, labels.iter().map(|(k, v)| (k, v)));
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Renders every metric in `registry` as exposition text. Byte-stable:
/// registries with equal contents render identically, regardless of
/// registration order.
pub fn render(registry: &Registry) -> String {
    let mut out = String::new();
    for (key, snap) in registry.snapshot_all() {
        let (base, labels) = split_key(&key);
        match snap {
            MetricSnapshot::Counter(v) => render_line(&mut out, &base, &labels, v as i128),
            MetricSnapshot::Gauge(v) => render_line(&mut out, &base, &labels, v as i128),
            MetricSnapshot::Histogram(h) => {
                render_line(
                    &mut out,
                    &format!("{base}_count"),
                    &labels,
                    h.count() as i128,
                );
                if h.count() > 0 {
                    render_line(&mut out, &format!("{base}_sum"), &labels, h.sum() as i128);
                    for (suffix, v) in [
                        ("min", h.min()),
                        ("p50", h.p50()),
                        ("p99", h.p99()),
                        ("max", h.max()),
                    ] {
                        if let Some(v) = v {
                            render_line(&mut out, &format!("{base}_{suffix}"), &labels, v as i128);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Re-renders parsed samples into exposition text. For canonical text
/// (anything [`render`] produced), `render_samples(&parse(text)?)`
/// reproduces the input byte for byte — the exactness the round-trip
/// test on a real node's exposition pins down.
pub fn render_samples(samples: &[Sample]) -> String {
    let mut out = String::new();
    for s in samples {
        render_line(&mut out, &s.name, &s.labels, s.value);
    }
    out
}

/// Parses exposition text back into samples.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        // The name runs to the label block or the value separator.
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| err("missing value separator"))?;
        let name = line[..name_end].to_string();
        if name.is_empty() {
            return Err(err("empty metric name"));
        }
        let (labels, value_str) = if line.as_bytes()[name_end] == b'{' {
            let close = find_unquoted(&line[name_end..], &['}'])
                .ok_or_else(|| err("unterminated label block"))?
                + name_end;
            let labels = parse_labels(&line[name_end + 1..close])
                .ok_or_else(|| err("malformed label block"))?;
            let rest = line[close + 1..]
                .strip_prefix(' ')
                .ok_or_else(|| err("missing value separator"))?;
            (labels, rest)
        } else {
            (Vec::new(), &line[name_end + 1..])
        };
        let value: i128 = value_str.parse().map_err(|_| err("bad value"))?;
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_and_labeled_lines_roundtrip() {
        let reg = Registry::new();
        reg.counter("transport.frames_sent").add(41);
        reg.gauge("node.tip_round").set(-3);
        reg.counter(&labeled(
            "transport.send_drops",
            &[("peer", "127.0.0.1:9001")],
        ))
        .add(7);
        let text = render(&reg);
        let samples = parse(&text).unwrap();
        assert_eq!(samples.len(), 3);
        let drops = samples
            .iter()
            .find(|s| s.name == "transport.send_drops")
            .unwrap();
        assert_eq!(drops.label("peer"), Some("127.0.0.1:9001"));
        assert_eq!(drops.value, 7);
        let tip = samples.iter().find(|s| s.name == "node.tip_round").unwrap();
        assert_eq!(tip.value, -3);
    }

    #[test]
    fn labels_sort_by_key_and_escape_values() {
        let key = labeled("m", &[("z", "last"), ("a", "has \"quotes\"\nand\\slash")]);
        assert!(key.starts_with("m{a=\""));
        let reg = Registry::new();
        reg.counter(&key).inc();
        let samples = parse(&render(&reg)).unwrap();
        assert_eq!(samples[0].label("a"), Some("has \"quotes\"\nand\\slash"));
        assert_eq!(samples[0].label("z"), Some("last"));
    }

    #[test]
    fn histograms_expand_into_summary_lines() {
        let reg = Registry::new();
        let h = reg.histogram("wal.append_us");
        h.record(100);
        h.record(300);
        reg.histogram("blocksync.response_us"); // Empty: only _count.
        let text = render(&reg);
        let samples = parse(&text).unwrap();
        let get = |n: &str| samples.iter().find(|s| s.name == n).map(|s| s.value);
        assert_eq!(get("wal.append_us_count"), Some(2));
        assert_eq!(get("wal.append_us_sum"), Some(400));
        assert_eq!(get("wal.append_us_min"), Some(100));
        assert_eq!(get("wal.append_us_max"), Some(300));
        assert_eq!(get("blocksync.response_us_count"), Some(0));
        assert_eq!(get("blocksync.response_us_sum"), None);
    }

    #[test]
    fn render_is_byte_stable_across_registration_order() {
        let build = |flip: bool| {
            let reg = Registry::new();
            let names = ["b.two", "a.one", "c{x=\"1\"}"];
            let order: Vec<&str> = if flip {
                names.iter().rev().copied().collect()
            } else {
                names.to_vec()
            };
            for n in order {
                reg.counter(n).add(5);
            }
            render(&reg)
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn hostile_names_sanitize_deterministically_and_parse() {
        let reg = Registry::new();
        reg.counter("evil name\nwith{newline").add(1);
        reg.gauge("quo\"te").set(2);
        let text = render(&reg);
        // No line structure damage: exactly one line per metric.
        assert_eq!(text.lines().count(), 2);
        let samples = parse(&text).unwrap();
        assert!(samples.iter().any(|s| s.name == "evil_name_with_newline"));
        assert!(samples.iter().any(|s| s.name == "quo_te" && s.value == 2));
        // Sanitization is idempotent: re-render of a registry keyed by
        // the sanitized names produces identical bytes.
        let reg2 = Registry::new();
        reg2.counter("evil_name_with_newline").add(1);
        reg2.gauge("quo_te").set(2);
        assert_eq!(render(&reg2), text);
    }

    #[test]
    fn unicode_label_values_roundtrip() {
        let reg = Registry::new();
        reg.counter(&labeled("m", &[("peer", "🚀 λ-nœud")])).add(9);
        let samples = parse(&render(&reg)).unwrap();
        assert_eq!(samples[0].label("peer"), Some("🚀 λ-nœud"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("noval\n").is_err());
        assert!(parse("m{unterminated 3\n").is_err());
        assert!(parse("m{k=\"v\"} notanum\n").is_err());
        assert!(parse("m{k=v} 3\n").is_err());
        assert!(parse(" 3\n").is_err());
    }

    #[test]
    fn full_roundtrip_is_exact_for_canonical_keys() {
        let reg = Registry::new();
        reg.counter(&labeled("a", &[("k", "v1")])).add(1);
        reg.counter(&labeled("a", &[("k", "v2")])).add(2);
        let text = render(&reg);
        let samples = parse(&text).unwrap();
        // Re-render from parsed samples reproduces the bytes.
        assert_eq!(render_samples(&samples), text);
    }
}
