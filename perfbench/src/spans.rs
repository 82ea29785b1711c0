//! Benchmark-level spans: one per call the benchmark makes into a layer
//! (`workload.gen`, `core.build`, `core.run`, `core.quiesce`,
//! `checker.verify`, `core.recover`, `storage.checkpoint`, `obs.export`),
//! nested under the
//! benchmark's own phases. Kept in memory and written out once, at the
//! end, as JSON lines a breakdown pass can read: a layer's self time is
//! its span minus the part its children cover.

use serde::json::{render, Value};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder with an implicit parent stack.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Names of the open spans, innermost last, readable from another
    /// thread: what a watchdog reports when a call never returns.
    open_names: Arc<Mutex<Vec<&'static str>>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            open_names: Arc::default(),
        }
    }

    /// A shared view of the open spans' names.
    pub fn open_names(&self) -> Arc<Mutex<Vec<&'static str>>> {
        self.open_names.clone()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the recorder so it can open child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        self.open_names.lock().expect("span names lock").push(name);
        let out = f(self);
        self.open_names.lock().expect("span names lock").pop();
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Seconds the most recently closed span named `name` lasted.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Write every span as one JSON object per line:
    /// `{"id", "name", "start_ns", "end_ns", "parent"}`, times in
    /// nanoseconds since the recorder was created. Spans still open (the
    /// run failed inside them) end at the time of writing.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let now = self.now_ns();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let end_ns = if self.open.contains(&id) {
                now
            } else {
                s.end_ns
            };
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(id as f64)),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::Num(s.start_ns as f64)),
                ("end_ns".into(), Value::Num(end_ns as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
            ]);
            out.push_str(&render(&line));
            out.push('\n');
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
