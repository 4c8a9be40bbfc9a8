//! Zero-dependency process-wide telemetry registry.
//!
//! Every long-lived counter the stack exposes — cache hits per tier,
//! runner tasks, SM-loop profile totals, `duplo serve` request counts —
//! lives here as a named metric in a process-global registry:
//!
//! * **Counters** — monotonically increasing `u64` (`_total` names).
//! * **Gauges** — instantaneous `i64` values (queue depths, store sizes).
//! * **Histograms** — fixed-bucket distributions over `u64` observations
//!   (inclusive upper bounds, plus an implicit overflow bucket); used for
//!   wall-clock latencies in microseconds.
//!
//! The hot path is lock-free: handles are `Arc`s onto atomics, so
//! incrementing from simulation workers costs one relaxed atomic op. The
//! registry mutex is only taken at registration and snapshot time.
//!
//! **Determinism contract.** Metrics must never perturb simulation
//! results or byte-stable outputs. Two mechanisms enforce this:
//!
//! * Each metric carries a [`Stability`]: `Stable` metrics are pure
//!   functions of the work performed (identical at any `DUPLO_THREADS`),
//!   `Volatile` ones measure the host (wall-clock, pool occupancy).
//!   Snapshots taken under `DUPLO_JSON_STABLE=1` (or with
//!   `stable_only = true`) suppress volatile metrics, so the encoding is
//!   byte-reproducible.
//! * `DUPLO_METRICS=off` turns every mutation into a no-op. Nothing but
//!   telemetry reads the registry (per-run reports come from the run's
//!   [`crate::progress::ProgressHandle`]), so the kill switch freezes
//!   every family without changing any other output.
//!
//! Rendering: [`render_prometheus`] emits the Prometheus text exposition
//! format, [`snapshot_json`] a deterministic sorted-name JSON document
//! via the in-tree [`crate::json`] codec.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::json::Json;

// ---------------------------------------------------------------------------
// Enablement (DUPLO_METRICS kill switch)
// ---------------------------------------------------------------------------

/// Test-only scoped override; `usize::MAX` means "no override".
static ENABLED_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Serializes [`override_enabled`] scopes (same pattern as
/// [`crate::log::override_level`]).
static OVERRIDE_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

/// `DUPLO_METRICS` parsed once per process.
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

fn env_enabled() -> bool {
    *ENV_ENABLED.get_or_init(|| {
        !std::env::var("DUPLO_METRICS")
            .is_ok_and(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "none"))
    })
}

/// Whether metric mutations are currently recorded
/// (`DUPLO_METRICS=off` disables them; registration and rendering always
/// work).
pub fn enabled() -> bool {
    match ENABLED_OVERRIDE.load(Ordering::Acquire) {
        usize::MAX => env_enabled(),
        v => v != 0,
    }
}

/// RAII guard from [`override_enabled`]; restores the previous override
/// on drop.
pub struct EnabledOverrideGuard {
    prev: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for EnabledOverrideGuard {
    fn drop(&mut self) {
        ENABLED_OVERRIDE.store(self.prev, Ordering::Release);
    }
}

/// Forces the kill switch for the guard's lifetime (test aid). Guards
/// serialize on a global lock, so concurrent tests queue rather than
/// interleave.
pub fn override_enabled(on: bool) -> EnabledOverrideGuard {
    let lock = OVERRIDE_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let prev = ENABLED_OVERRIDE.swap(on as usize, Ordering::AcqRel);
    EnabledOverrideGuard { prev, _lock: lock }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Whether a metric's value is a pure function of the work performed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Stability {
    /// Identical at any thread count and on any host; survives the
    /// `DUPLO_JSON_STABLE=1` filter.
    Stable,
    /// Host-dependent (wall-clock, pool occupancy); suppressed from
    /// stable snapshots.
    Volatile,
}

enum Value {
    Counter(AtomicU64),
    Gauge(AtomicI64),
    Histogram(Histo),
}

struct Histo {
    /// Inclusive upper bounds, strictly increasing; an implicit overflow
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last one is the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

struct Metric {
    name: String,
    help: String,
    stability: Stability,
    value: Value,
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self.value {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<Metric>>>> = OnceLock::new();

fn registry() -> MutexGuard<'static, BTreeMap<String, Arc<Metric>>> {
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn get_or_insert(name: &str, make: impl FnOnce() -> Metric) -> Arc<Metric> {
    let mut map = registry();
    if let Some(m) = map.get(name) {
        return Arc::clone(m);
    }
    let m = Arc::new(make());
    map.insert(name.to_string(), Arc::clone(&m));
    m
}

/// Formats `base{k="v",...}` — the canonical labeled-metric name. Values
/// must not contain `"` or `\` (all call sites use fixed vocabularies).
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{base}{{{}}}", body.join(","))
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Handle to a registered monotonically-increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<Metric>);

impl Counter {
    /// Adds `n` (no-op when the kill switch is active).
    pub fn add(&self, n: u64) {
        if enabled() {
            match &self.0.value {
                Value::Counter(v) => {
                    v.fetch_add(n, Ordering::Relaxed);
                }
                _ => unreachable!("counter handle on non-counter"),
            }
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        match &self.0.value {
            Value::Counter(v) => v.load(Ordering::Relaxed),
            _ => unreachable!("counter handle on non-counter"),
        }
    }
}

/// Handle to a registered instantaneous gauge.
#[derive(Clone)]
pub struct Gauge(Arc<Metric>);

impl Gauge {
    fn cell(&self) -> &AtomicI64 {
        match &self.0.value {
            Value::Gauge(v) => v,
            _ => unreachable!("gauge handle on non-gauge"),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        if enabled() {
            self.cell().store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        if enabled() {
            self.cell().fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Subtracts `d`.
    pub fn sub(&self, d: i64) {
        self.add(-d);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell().load(Ordering::Relaxed)
    }
}

/// Handle to a registered fixed-bucket histogram.
#[derive(Clone)]
pub struct Histogram(Arc<Metric>);

impl Histogram {
    fn histo(&self) -> &Histo {
        match &self.0.value {
            Value::Histogram(h) => h,
            _ => unreachable!("histogram handle on non-histogram"),
        }
    }

    /// Records one observation: the first bucket whose inclusive upper
    /// bound is `>= v`, or the overflow bucket.
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        let h = self.histo();
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.histo().count.load(Ordering::Relaxed)
    }

    /// Non-cumulative per-bucket counts (`bounds.len() + 1` entries, the
    /// last being the overflow bucket). Test aid.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.histo()
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

fn register_counter(name: &str, help: &str, stability: Stability) -> Counter {
    let m = get_or_insert(name, || Metric {
        name: name.to_string(),
        help: help.to_string(),
        stability,
        value: Value::Counter(AtomicU64::new(0)),
    });
    assert!(
        matches!(m.value, Value::Counter(_)),
        "metric {name:?} re-registered as a counter but is a {}",
        m.kind()
    );
    Counter(m)
}

/// Registers (or fetches) a stable counter.
pub fn counter(name: &str, help: &str) -> Counter {
    register_counter(name, help, Stability::Stable)
}

/// Registers (or fetches) a volatile counter (host-dependent value).
pub fn volatile_counter(name: &str, help: &str) -> Counter {
    register_counter(name, help, Stability::Volatile)
}

fn register_gauge(name: &str, help: &str, stability: Stability) -> Gauge {
    let m = get_or_insert(name, || Metric {
        name: name.to_string(),
        help: help.to_string(),
        stability,
        value: Value::Gauge(AtomicI64::new(0)),
    });
    assert!(
        matches!(m.value, Value::Gauge(_)),
        "metric {name:?} re-registered as a gauge but is a {}",
        m.kind()
    );
    Gauge(m)
}

/// Registers (or fetches) a stable gauge.
pub fn gauge(name: &str, help: &str) -> Gauge {
    register_gauge(name, help, Stability::Stable)
}

/// Registers (or fetches) a volatile gauge (host-dependent value).
pub fn volatile_gauge(name: &str, help: &str) -> Gauge {
    register_gauge(name, help, Stability::Volatile)
}

/// Registers (or fetches) a histogram over the given inclusive upper
/// bounds (strictly increasing; an overflow bucket is added). Histograms
/// record host measurements (wall-clock), so they are always
/// [`Stability::Volatile`].
pub fn histogram(name: &str, help: &str, bounds: &[u64]) -> Histogram {
    assert!(!bounds.is_empty(), "histogram {name:?} needs bounds");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram {name:?} bounds must be strictly increasing"
    );
    let m = get_or_insert(name, || Metric {
        name: name.to_string(),
        help: help.to_string(),
        stability: Stability::Volatile,
        value: Value::Histogram(Histo {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }),
    });
    match &m.value {
        Value::Histogram(h) => assert_eq!(
            h.bounds, bounds,
            "metric {name:?} re-registered with different bounds"
        ),
        _ => panic!(
            "metric {name:?} re-registered as a histogram but is a {}",
            m.kind()
        ),
    }
    Histogram(m)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Splits a registered name into (base, label body): `a{b="c"}` ->
/// `("a", Some("b=\"c\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

fn snapshot_metrics(stable_only: bool) -> Vec<Arc<Metric>> {
    registry()
        .values()
        .filter(|m| !stable_only || m.stability == Stability::Stable)
        .cloned()
        .collect()
}

/// Renders the registry in the Prometheus text exposition format.
/// `stable_only` suppresses volatile metrics (callers pass the
/// `DUPLO_JSON_STABLE` setting through). Deterministic: sorted by full
/// metric name, `# HELP` / `# TYPE` once per base name.
pub fn render_prometheus(stable_only: bool) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for m in snapshot_metrics(stable_only) {
        let (base, labels) = split_labels(&m.name);
        if base != last_base {
            out.push_str(&format!("# HELP {base} {}\n", m.help));
            out.push_str(&format!("# TYPE {base} {}\n", m.kind()));
            last_base = base.to_string();
        }
        match &m.value {
            Value::Counter(v) => {
                out.push_str(&format!("{} {}\n", m.name, v.load(Ordering::Relaxed)));
            }
            Value::Gauge(v) => {
                out.push_str(&format!("{} {}\n", m.name, v.load(Ordering::Relaxed)));
            }
            Value::Histogram(h) => {
                let with_le = |le: &str| match labels {
                    Some(body) => format!("{base}_bucket{{{body},le=\"{le}\"}}"),
                    None => format!("{base}_bucket{{le=\"{le}\"}}"),
                };
                let mut cum = 0u64;
                for (i, bound) in h.bounds.iter().enumerate() {
                    cum += h.buckets[i].load(Ordering::Relaxed);
                    out.push_str(&format!("{} {cum}\n", with_le(&bound.to_string())));
                }
                cum += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
                out.push_str(&format!("{} {cum}\n", with_le("+Inf")));
                out.push_str(&format!(
                    "{base}_sum{} {}\n",
                    labels.map(|b| format!("{{{b}}}")).unwrap_or_default(),
                    h.sum.load(Ordering::Relaxed)
                ));
                out.push_str(&format!(
                    "{base}_count{} {}\n",
                    labels.map(|b| format!("{{{b}}}")).unwrap_or_default(),
                    h.count.load(Ordering::Relaxed)
                ));
            }
        }
    }
    out
}

/// Encodes the registry as a deterministic JSON document (sorted by full
/// metric name). `stable_only` suppresses volatile metrics, making the
/// encoding byte-reproducible at any thread count.
pub fn snapshot_json(stable_only: bool) -> Json {
    let mut metrics: Vec<Json> = Vec::new();
    for m in snapshot_metrics(stable_only) {
        let b = Json::obj()
            .field("name", m.name.as_str())
            .field("type", m.kind());
        let entry = match &m.value {
            Value::Counter(v) => b.field("value", v.load(Ordering::Relaxed)).build(),
            Value::Gauge(v) => b.field("value", v.load(Ordering::Relaxed)).build(),
            Value::Histogram(h) => {
                let mut buckets: Vec<Json> = Vec::new();
                for (i, bound) in h.bounds.iter().enumerate() {
                    buckets.push(
                        Json::obj()
                            .field("le", bound.to_string())
                            .field("count", h.buckets[i].load(Ordering::Relaxed))
                            .build(),
                    );
                }
                buckets.push(
                    Json::obj()
                        .field("le", "+Inf")
                        .field("count", h.buckets[h.bounds.len()].load(Ordering::Relaxed))
                        .build(),
                );
                b.field("sum", h.sum.load(Ordering::Relaxed))
                    .field("count", h.count.load(Ordering::Relaxed))
                    .field("buckets", buckets)
                    .build()
            }
        };
        metrics.push(entry);
    }
    Json::obj()
        .field("kind", "duplo_metrics")
        .field("schema", 1u64)
        .field("stable_only", stable_only)
        .field("metrics", metrics)
        .build()
}

/// Whether `DUPLO_JSON_STABLE` requests byte-stable output (shared
/// convention with the experiment harness).
pub fn json_stable() -> bool {
    std::env::var_os("DUPLO_JSON_STABLE").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_edges() {
        let _g = override_enabled(true);
        let h = histogram("test_hist_edges", "edge cases", &[10, 100, 1000]);
        h.observe(0); // zero lands in the first bucket
        h.observe(10); // inclusive boundary stays in the first bucket
        h.observe(11); // one past the boundary moves to the second
        h.observe(1000); // last finite bound
        h.observe(1001); // overflow bucket
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_prometheus_buckets_are_cumulative() {
        let _g = override_enabled(true);
        let h = histogram("test_hist_cum", "cumulative", &[1, 2]);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        let text = render_prometheus(false);
        assert!(
            text.contains("test_hist_cum_bucket{le=\"1\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("test_hist_cum_bucket{le=\"2\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("test_hist_cum_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("test_hist_cum_sum 6\n"), "{text}");
        assert!(text.contains("test_hist_cum_count 3\n"), "{text}");
    }

    #[test]
    fn kill_switch_freezes_every_metric() {
        let _g = override_enabled(false);
        let c = counter("test_kill_counter", "frozen when off");
        let g = gauge("test_kill_gauge", "frozen when off");
        let h = histogram("test_kill_hist", "frozen when off", &[1]);
        c.inc();
        g.set(3);
        h.observe(1);
        assert_eq!((c.get(), g.get(), h.count()), (0, 0, 0));
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let _g = override_enabled(true);
        counter("test_snap_b", "later").inc();
        counter("test_snap_a", "earlier").inc();
        volatile_gauge("test_snap_volatile", "suppressed when stable").set(7);
        let one = snapshot_json(true).to_pretty();
        let two = snapshot_json(true).to_pretty();
        assert_eq!(one, two, "snapshot encoding must be deterministic");
        let a = one.find("test_snap_a").expect("a present");
        let b = one.find("test_snap_b").expect("b present");
        assert!(a < b, "names must be sorted");
        assert!(
            !one.contains("test_snap_volatile"),
            "volatile metrics must be suppressed from stable snapshots"
        );
        assert!(
            snapshot_json(false)
                .to_pretty()
                .contains("test_snap_volatile")
        );
    }

    #[test]
    fn labeled_names_render_under_one_family() {
        let _g = override_enabled(true);
        let name = labeled(
            "test_family_total",
            &[("route", "/v1/x"), ("status", "200")],
        );
        assert_eq!(name, "test_family_total{route=\"/v1/x\",status=\"200\"}");
        counter(&name, "labeled family").add(4);
        let text = render_prometheus(false);
        assert!(
            text.contains("# TYPE test_family_total counter\n"),
            "{text}"
        );
        assert!(
            text.contains("test_family_total{route=\"/v1/x\",status=\"200\"} 4\n"),
            "{text}"
        );
    }

    #[test]
    fn reregistration_returns_the_same_cell() {
        let _g = override_enabled(true);
        counter("test_rereg", "one cell").add(2);
        assert_eq!(counter("test_rereg", "one cell").get(), 2);
    }
}
