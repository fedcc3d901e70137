//! The metric registry and its frozen [`Snapshot`] (Prometheus-style
//! text exposition plus `sc-json` serialization).

use std::sync::Mutex;

use crate::instrument::{bucket_floor, Counter, Gauge, Histogram, HistogramSnapshot};
use crate::journal::Journal;
use sc_json::{ToJson, Value};

/// What an instrument is; fixed at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    storage: Storage,
}

#[derive(Debug, Clone)]
enum Storage {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Storage {
    fn kind(&self) -> Kind {
        match self {
            Storage::Counter(_) => Kind::Counter,
            Storage::Gauge(_) => Kind::Gauge,
            Storage::Histogram(_) => Kind::Histogram,
        }
    }
}

/// A registry of named instruments plus an event [`Journal`].
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with`-labels
/// variants) is get-or-create on the `(name, labels)` pair: asking twice
/// returns handles to the same storage, so components can look up shared
/// instruments without coordinating. Asking for an existing name with a
/// *different* instrument kind returns a detached handle that records
/// nowhere — a registry never panics at runtime. (The `metrics` rule in
/// `tests/source_rules.rs` keeps that an un-hittable corner: each metric
/// name may appear at only one registration site in the workspace.)
#[derive(Debug)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    journal: Journal,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Survive a poisoned registry lock: metric registration never unwinds,
/// and a panicked writer leaves at worst a half-registered entry list.
fn lock(m: &Mutex<Vec<Entry>>) -> std::sync::MutexGuard<'_, Vec<Entry>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Registry {
    /// An empty registry with the default journal capacity (1024 events).
    pub fn new() -> Registry {
        Registry::with_journal_capacity(1024)
    }

    /// An empty registry whose journal keeps the last `cap` events.
    pub fn with_journal_capacity(cap: usize) -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
            journal: Journal::new(cap),
        }
    }

    /// The registry's event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], want: Kind) -> Storage {
        let mut entries = lock(&self.entries);
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && labels_eq(&e.labels, labels))
        {
            if e.storage.kind() == want {
                return e.storage.clone();
            }
            // Kind clash: hand back working-but-detached storage.
            return detached(want);
        }
        let storage = detached(want);
        entries.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            storage: storage.clone(),
        });
        storage
    }

    /// Get or create the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or create the counter `name` with the given label pairs.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, Kind::Counter) {
            Storage::Counter(c) => c,
            _ => Counter::new(),
        }
    }

    /// Get or create the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get or create the gauge `name` with the given label pairs.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, Kind::Gauge) {
            Storage::Gauge(g) => g,
            _ => Gauge::new(),
        }
    }

    /// Get or create the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Get or create the histogram `name` with the given label pairs.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, Kind::Histogram) {
            Storage::Histogram(h) => h,
            _ => Histogram::new(),
        }
    }

    /// Freeze every instrument into a [`Snapshot`] (registration order).
    pub fn snapshot(&self) -> Snapshot {
        let entries = lock(&self.entries);
        Snapshot {
            instruments: entries
                .iter()
                .map(|e| InstrumentSnapshot {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    value: match &e.storage {
                        Storage::Counter(c) => Observation::Counter(c.get()),
                        Storage::Gauge(g) => Observation::Gauge(g.get()),
                        Storage::Histogram(h) => Observation::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len() && have.iter().zip(want).all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

fn detached(kind: Kind) -> Storage {
    match kind {
        Kind::Counter => Storage::Counter(Counter::new()),
        Kind::Gauge => Storage::Gauge(Gauge::new()),
        Kind::Histogram => Storage::Histogram(Histogram::new()),
    }
}

/// One frozen instrument reading.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentSnapshot {
    /// Metric name, e.g. `sc_http_requests_total`.
    pub name: String,
    /// Label pairs, e.g. `[("peer", "2")]`; empty for global instruments.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: Observation,
}

/// A frozen instrument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading.
    Histogram(HistogramSnapshot),
}

/// A frozen view of a whole registry, in registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every registered instrument.
    pub instruments: Vec<InstrumentSnapshot>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&InstrumentSnapshot> {
        self.instruments
            .iter()
            .find(|i| i.name == name && labels_eq(&i.labels, labels))
    }

    /// Sum of counter `name` across every label set (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.instruments
            .iter()
            .filter(|i| i.name == name)
            .map(|i| match i.value {
                Observation::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Counter `name` with exactly these labels (0 if absent).
    pub fn counter_value_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels).map(|i| &i.value) {
            Some(&Observation::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Gauge `name` with exactly these labels (`None` if absent).
    pub fn gauge_value_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels).map(|i| &i.value) {
            Some(&Observation::Gauge(v)) => Some(v),
            _ => None,
        }
    }

    /// Histogram `name` merged across every label set (empty if absent).
    pub fn histogram_value(&self, name: &str) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::default();
        for i in self.instruments.iter().filter(|i| i.name == name) {
            if let Observation::Histogram(h) = &i.value {
                acc = acc.merged(h);
            }
        }
        acc
    }

    /// Render in the Prometheus text exposition format: one `# TYPE`
    /// line per metric name, histograms as cumulative `_bucket{le=...}`
    /// series plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for i in &self.instruments {
            let ty = match i.value {
                Observation::Counter(_) => "counter",
                Observation::Gauge(_) => "gauge",
                Observation::Histogram(_) => "histogram",
            };
            if !typed.contains(&i.name.as_str()) {
                typed.push(&i.name);
                out.push_str(&format!("# TYPE {} {}\n", i.name, ty));
            }
            match &i.value {
                Observation::Counter(v) => {
                    out.push_str(&format!("{}{} {}\n", i.name, label_block(&i.labels, &[]), v));
                }
                Observation::Gauge(v) => {
                    out.push_str(&format!("{}{} {}\n", i.name, label_block(&i.labels, &[]), v));
                }
                Observation::Histogram(h) => {
                    let mut acc = 0u64;
                    for (b, &c) in h.counts.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        acc += c;
                        // Bucket b covers [floor(b), floor(b+1)); report
                        // the exclusive ceiling as the le bound.
                        let le = bucket_floor(b + 1).to_string();
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            i.name,
                            label_block(&i.labels, &[("le", &le)]),
                            acc
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        i.name,
                        label_block(&i.labels, &[("le", "+Inf")]),
                        acc
                    ));
                    out.push_str(&format!("{}_sum{} {}\n", i.name, label_block(&i.labels, &[]), h.sum));
                    out.push_str(&format!("{}_count{} {}\n", i.name, label_block(&i.labels, &[]), acc));
                }
            }
        }
        out
    }
}

/// `{k="v",...}` with extra pairs appended; empty string for no labels.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))));
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

impl ToJson for InstrumentSnapshot {
    fn to_json(&self) -> Value {
        let labels = Value::Object(
            self.labels
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        );
        match &self.value {
            Observation::Counter(v) => sc_json::obj! {
                "name" => self.name, "kind" => "counter", "labels" => labels, "value" => *v
            },
            Observation::Gauge(v) => sc_json::obj! {
                "name" => self.name, "kind" => "gauge", "labels" => labels, "value" => *v
            },
            Observation::Histogram(h) => sc_json::obj! {
                "name" => self.name, "kind" => "histogram", "labels" => labels,
                "count" => h.samples(), "sum" => h.sum, "buckets" => h.counts
            },
        }
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Value {
        sc_json::obj! { "instruments" => self.instruments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.incr();
        b.incr();
        assert_eq!(r.snapshot().counter_value("x_total"), 2, "same storage");
        assert_eq!(r.snapshot().instruments.len(), 1);
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        r.counter_with("peer_q", &[("peer", "1")]).add(3);
        r.counter_with("peer_q", &[("peer", "2")]).add(4);
        let s = r.snapshot();
        assert_eq!(s.instruments.len(), 2);
        assert_eq!(s.counter_value("peer_q"), 7, "sum across label sets");
        assert_eq!(s.counter_value_with("peer_q", &[("peer", "2")]), 4);
        assert_eq!(s.counter_value_with("peer_q", &[("peer", "9")]), 0);
    }

    #[test]
    fn kind_clash_yields_detached_handle() {
        let r = Registry::new();
        r.counter("mixed").incr();
        let g = r.gauge("mixed");
        g.set(9.0);
        let s = r.snapshot();
        assert_eq!(s.counter_value("mixed"), 1, "original storage intact");
        assert_eq!(s.gauge_value_with("mixed", &[]), None, "clashing gauge not registered");
    }

    #[test]
    fn gauges_and_histograms_snapshot() {
        let r = Registry::new();
        r.gauge_with("staleness", &[("peer", "3")]).set(0.125);
        r.histogram("rtt_us").record(100);
        r.histogram("rtt_us").record(200);
        let s = r.snapshot();
        assert_eq!(s.gauge_value_with("staleness", &[("peer", "3")]), Some(0.125));
        let h = s.histogram_value("rtt_us");
        assert_eq!(h.samples(), 2);
        assert_eq!(h.sum, 300);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("req_total").add(5);
        r.gauge_with("stale", &[("peer", "1")]).set(0.5);
        r.histogram("lat_us").record(3);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE req_total counter\n"));
        assert!(text.contains("req_total 5\n"));
        assert!(text.contains("# TYPE stale gauge\n"));
        assert!(text.contains("stale{peer=\"1\"} 0.5\n"));
        assert!(text.contains("# TYPE lat_us histogram\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_us_sum 3\n"));
        assert!(text.contains("lat_us_count 1\n"));
        // The value 3 lands in a bucket whose inclusive ceiling is 3.
        assert!(text.contains("lat_us_bucket{le=\"3\"} 1\n"), "{text}");
    }

    #[test]
    fn snapshot_json_has_instruments() {
        let r = Registry::new();
        r.counter("a_total").incr();
        r.histogram("h_us").record(7);
        let v = r.snapshot().to_json();
        let list = v.get("instruments").and_then(|x| x.as_array()).expect("array");
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].get("kind").and_then(|k| k.as_str()), Some("counter"));
        assert_eq!(list[1].get("count").and_then(|c| c.as_u64()), Some(1));
    }
}
