//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Held in memory while measuring and written as JSON lines when the
//! traced pass ends: `{name, start_us, end_us, parent, workload}`. Spans
//! inside the product are a later change; these are taken from outside.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its log; what a child names as its parent.
pub type SpanId = usize;

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<SpanId>,
}

/// The spans of one traced pass of one workload.
pub struct SpanLog {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span.
    pub fn scoped<T>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// How many spans have been opened.
    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line, in the order the spans were opened.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or(Json::Null, |p| Json::Str(self.spans[p].name.clone()));
            let line = Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("start_us", Json::Num(s.start_us as f64)),
                ("end_us", Json::Num(s.end_us as f64)),
                ("parent", parent),
                ("workload", Json::Str(self.workload.clone())),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// Writes the log to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize_one_object_per_line() {
        let mut log = SpanLog::new("steady");
        let root = log.open("probes", None);
        let x = log.scoped("crypto.sig_verify_us", Some(root), || 41 + 1);
        log.close(root);
        assert_eq!(x, 42);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = Json::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").unwrap().as_str(), Some("probes"));
        assert_eq!(child.get("workload").unwrap().as_str(), Some("steady"));
        let parent = Json::parse(lines[0]).unwrap();
        assert_eq!(parent.get("parent"), Some(&Json::Null));
        let t = |v: &Json, k: &str| v.get(k).unwrap().as_f64().unwrap();
        assert!(t(&parent, "start_us") <= t(&child, "start_us"));
        assert!(t(&child, "end_us") <= t(&parent, "end_us"));
    }
}
