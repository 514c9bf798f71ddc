//! `BENCHMARK.json`, compiled in: the names, units, directions and bounds
//! this program reports under. The file is the single list of metric
//! names; the program computes values and looks them up by these names,
//! so a name added there without a value here fails loudly at run time.

use crate::json::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median an end-to-end metric may worsen by.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Vec<Metric> {
    let text = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks {k}"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// Parses the compiled-in file.
///
/// # Panics
///
/// Panics if the file is not the shape the builder contract fixes; the
/// crate's tests load it, so a malformed file cannot ship.
pub fn load() -> Contract {
    let doc = Json::parse(TEXT).expect("BENCHMARK.json parses");
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json: no workloads list")
        .iter()
        .map(|w| {
            let text = |k: &str| {
                w.get(k)
                    .and_then(Json::as_str)
                    .expect("BENCHMARK.json: workload lacks name or why")
                    .to_string()
            };
            (text("name"), text("why"))
        })
        .collect();
    Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json: no run_seconds") as u64,
        workloads,
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn file_meets_the_builder_contract() {
        let doc = Json::parse(TEXT).unwrap();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(TEXT.len() <= 64 << 10);
        let c = load();
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));

        let mut seen = HashSet::new();
        for (name, why) in &c.workloads {
            assert!(valid_name(name) && seen.insert(name.clone()), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(
                valid_name(&m.name) && seen.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for list in ["end_to_end", "per_layer"] {
            for m in doc.get(list).unwrap().as_array().unwrap() {
                let better = m.get("better").unwrap().as_str().unwrap();
                assert!(better == "lower" || better == "higher");
                let keys = m.members().unwrap().len();
                assert_eq!(keys, if list == "end_to_end" { 4 } else { 3 });
            }
        }
        for m in &c.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");

        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths, [Json::Str("benchmark".into())]);
        let command = doc.get("command").unwrap().as_array().unwrap();
        assert!(command.len() <= 32);
        for part in command {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
    }
}
