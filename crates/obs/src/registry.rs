//! The metric registry and its frozen [`Snapshot`] (Prometheus-style
//! text exposition plus `sc-json` serialization).

use std::sync::Mutex;

use crate::instrument::{bucket_floor, Counter, Gauge, Histogram, HistogramSnapshot};
use crate::journal::Journal;
use sc_json::{ToJson, Value};

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    storage: Storage,
}

#[derive(Debug)]
enum Storage {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named instruments plus an event [`Journal`].
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with`-labels
/// variants) happens once per `(name, labels)` pair: the caller keeps the
/// returned handle, and a second registration of the same pair panics,
/// so no two call sites can silently share one series. The daemon's
/// `ProxyStats` is the one registrar; it registers each peer's series
/// under that peer's id, and `ConfigError::DuplicatePeerId` rejects a
/// configuration that would repeat one before the stats are built.
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

/// Survive a poisoned registry lock: the only panic under it is a
/// second registration, which fires before the entry list is touched.
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

    /// Add a series under `(name, labels)`; panics if it already exists.
    fn register(&self, name: &str, labels: &[(&str, &str)], storage: Storage) {
        let mut entries = lock(&self.entries);
        let taken = entries
            .iter()
            .any(|e| e.name == name && labels_eq(&e.labels, labels));
        assert!(!taken, "metric `{name}` {labels:?} registered twice");
        entries.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            storage,
        });
    }

    /// Register the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Register the counter `name` with the given label pairs.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.register(name, labels, Storage::Counter(c.clone()));
        c
    }

    /// Register the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Register the gauge `name` with the given label pairs.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::new();
        self.register(name, labels, Storage::Gauge(g.clone()));
        g
    }

    /// Register the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Register the histogram `name` with the given label pairs.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let h = Histogram::new();
        self.register(name, labels, Storage::Histogram(h.clone()));
        h
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

    /// One registration per `(name, labels)` pair: a second counter,
    /// gauge or labelled histogram on a taken pair panics, another label
    /// set or another registry is a new series, and the first series
    /// keeps its value.
    #[test]
    fn duplicate_metric_registration_flagged_at_both_sites() {
        let r = Registry::new();
        r.counter("dup_total").add(5);
        r.gauge("dup_gauge").set(1.5);
        r.histogram_with("dup_us", &[("peer", "1")]).record(7);
        let again = |f: &dyn Fn()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        };
        assert!(again(&|| drop(r.counter("dup_total"))), "second counter");
        assert!(again(&|| drop(r.gauge("dup_gauge"))), "second gauge");
        assert!(again(&|| drop(r.histogram_with("dup_us", &[("peer", "1")]))), "second histogram");
        r.histogram_with("dup_us", &[("peer", "2")]).record(9);
        Registry::new().counter("dup_total").incr();
        let s = r.snapshot();
        assert_eq!(s.instruments.len(), 4);
        assert_eq!(s.counter_value("dup_total"), 5, "first series intact");
        assert_eq!(s.gauge_value_with("dup_gauge", &[]), Some(1.5));
        assert_eq!(s.histogram_value("dup_us").samples(), 2);
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
    fn gauges_and_histograms_snapshot() {
        let r = Registry::new();
        r.gauge_with("staleness", &[("peer", "3")]).set(0.125);
        let rtt = r.histogram("rtt_us");
        rtt.record(100);
        rtt.record(200);
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
