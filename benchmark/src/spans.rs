//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public API. A span's layer is its name up to the first `.`
//! (`sm.run_kernel` belongs to `sm`). Spans nest by a stack, so one
//! recorder serves one thread; the traced passes are serial by design,
//! which makes the layers' self times sum to the pass's wall time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use duplo_sim::json::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: String,
    /// Start, microseconds since the recorder's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request ID of a service request, or the label of a grid point.
    pub tag: Option<String>,
    /// Whether the span appears in the Chrome trace (a folded total of
    /// many calls counts toward self times only).
    pub exported: bool,
}

/// Span recorder with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` (children recorded by `f` nest
    /// under it).
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let start = Instant::now();
        let idx = self.push(name, start, start, None);
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_us = self.us(Instant::now()) - self.spans[idx].start_us;
        out
    }

    /// Records an already finished span as a child of the innermost open
    /// span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, tag: Option<String>) {
        self.push(name, start, end, tag);
    }

    /// Tags the innermost open span (a grid point's label).
    pub fn tag_open(&mut self, tag: &str) {
        if let Some(&i) = self.open.last() {
            self.spans[i].tag = Some(tag.to_string());
        }
    }

    /// Records finished calls as children of the innermost open span: the
    /// first `keep` as spans of their own, the rest folded into one total
    /// that counts toward self times but stays out of the Chrome trace.
    pub fn record_calls(&mut self, name: &str, calls: &[(Instant, Instant)], keep: usize) {
        let (shown, folded) = calls.split_at(keep.min(calls.len()));
        for &(a, b) in shown {
            self.push(name, a, b, None);
        }
        if let Some(&(first, _)) = folded.first() {
            let idx = self.push(name, first, first, None);
            let s = &mut self.spans[idx];
            s.dur_us = folded
                .iter()
                .map(|(a, b)| (*b - *a).as_secs_f64() * 1e6)
                .sum();
            s.exported = false;
        }
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant, tag: Option<String>) -> usize {
        let start_us = self.us(start);
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            dur_us: self.us(end) - start_us,
            parent: self.open.last().copied(),
            tag,
            exported: true,
        });
        self.spans.len() - 1
    }

    /// Self time per layer, in seconds: each span's duration minus its
    /// direct children's.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_us) {
            *by_layer.entry(layer_of(&s.name).to_string()).or_insert(0.0) +=
                (s.dur_us - kids) * 1e-6;
        }
        by_layer
    }

    /// Total duration of the root spans, in seconds.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us * 1e-6)
            .sum()
    }

    /// Chrome trace-event document (loads in Perfetto).
    pub fn to_chrome(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.exported)
            .map(|(i, s)| {
                let args = Json::obj()
                    .field("span", i as u64)
                    .field_opt("parent", s.parent.map(|p| p as u64))
                    .field_opt("tag", s.tag.clone())
                    .build();
                Json::obj()
                    .field("name", s.name.as_str())
                    .field("cat", layer_of(&s.name))
                    .field("ph", "X")
                    .field("ts", s.start_us)
                    .field("dur", s.dur_us)
                    .field("pid", 1u64)
                    .field("tid", 1u64)
                    .field("args", args)
                    .build()
            })
            .collect();
        Json::obj()
            .field("traceEvents", events)
            .field("displayTimeUnit", "ms")
            .build()
    }

    /// Writes `<dir>/<workload>.trace.json` and returns its path.
    pub fn write_chrome(&self, dir: &Path, workload: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, self.to_chrome().to_pretty())?;
        Ok(path)
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_partition_the_root() {
        let mut r = Recorder::new();
        r.scope("bench.pass", |r| {
            r.scope("sm.run", |r| {
                let t = Instant::now();
                std::thread::sleep(Duration::from_millis(2));
                r.record("kernels.cta", t, Instant::now(), None);
            });
            r.scope("cache.encode", |_| {
                std::thread::sleep(Duration::from_millis(1))
            });
        });
        let layers = r.self_seconds_by_layer();
        let total: f64 = layers.values().sum();
        assert!((total - r.root_seconds()).abs() < 1e-9);
        assert!(layers["kernels"] >= 0.002);
        assert!(layers["cache"] >= 0.001);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(1));
        let doc = r.to_chrome();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(4)
        );
    }

    #[test]
    fn folded_calls_count_but_are_not_exported() {
        let mut r = Recorder::new();
        r.scope("sm.run", |r| {
            let calls: Vec<(Instant, Instant)> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::thread::sleep(Duration::from_millis(1));
                    (t, Instant::now())
                })
                .collect();
            r.record_calls("kernels.cta", &calls, 2);
        });
        assert_eq!(r.spans.len(), 4);
        assert!(r.self_seconds_by_layer()["kernels"] >= 0.005);
        let doc = r.to_chrome();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
