//! The unified metrics registry: labeled counter/gauge/histogram families
//! with Prometheus-style text exposition and a serializable snapshot.
//!
//! Families are registered on first use and live for the registry's
//! lifetime; cells (one per distinct label-value combination) are created
//! lazily by [`CounterFamily::with`] and friends and hand back the plain
//! `vc-api` primitives, so hot paths pay one atomic op per update — the
//! registry adds cost only at registration and scrape time.
//!
//! ```
//! use vc_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let syncs = reg.counter("vc_syncs_total", "Completed syncs.", &["tenant"]);
//! syncs.with(&["tenant-1"]).inc();
//! let text = reg.render_text();
//! assert!(text.contains(r#"vc_syncs_total{tenant="tenant-1"} 1"#));
//! ```

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use vc_api::metrics::{Counter, Gauge, Histogram};

/// The three metric types the registry supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Level that can go up and down.
    Gauge,
    /// Sample distribution with fixed bucket bounds.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Cell {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    labels: Vec<String>,
    /// Upper bucket bounds for histograms (same unit as the samples).
    buckets: Vec<u64>,
    /// Sorted by label values, so a lookup can binary-search with the
    /// caller's borrowed `&[&str]` (a map keyed by `Vec<String>` would need
    /// an owned key per lookup) and expositions list cells in order.
    cells: Mutex<Vec<(Vec<String>, Cell)>>,
}

impl Family {
    /// Drops every cell whose value for `label` equals `value`. Returns
    /// the number of cells removed (0 when the family has no such label).
    fn remove_matching(&self, label: &str, value: &str) -> usize {
        let Some(idx) = self.labels.iter().position(|l| l == label) else { return 0 };
        let mut cells = self.cells.lock();
        let before = cells.len();
        cells.retain(|(values, _)| values[idx] != value);
        before - cells.len()
    }

    /// Where the cell for `label_values` is (`Ok`) or belongs (`Err`) in
    /// the sorted `cells`.
    fn find(&self, cells: &[(Vec<String>, Cell)], label_values: &[&str]) -> Result<usize, usize> {
        assert_eq!(
            label_values.len(),
            self.labels.len(),
            "metric family {} takes labels {:?}, got {} value(s)",
            self.name,
            self.labels,
            label_values.len()
        );
        cells.binary_search_by(|(values, _)| {
            values.iter().map(String::as_str).cmp(label_values.iter().copied())
        })
    }

    fn cell(&self, label_values: &[&str], make: impl FnOnce() -> Cell) -> Cell {
        let mut cells = self.cells.lock();
        let at = self.find(&cells, label_values).unwrap_or_else(|at| {
            let key = label_values.iter().map(|v| v.to_string()).collect();
            cells.insert(at, (key, make()));
            at
        });
        match &cells[at].1 {
            Cell::Counter(c) => Cell::Counter(c.clone()),
            Cell::Gauge(g) => Cell::Gauge(g.clone()),
            Cell::Histogram(h) => Cell::Histogram(h.clone()),
        }
    }

    /// Makes `cell` the cell for `label_values`, in place of any there.
    fn bind(&self, label_values: &[&str], cell: Cell) {
        let mut cells = self.cells.lock();
        match self.find(&cells, label_values) {
            Ok(at) => cells[at].1 = cell,
            Err(at) => {
                let key = label_values.iter().map(|v| v.to_string()).collect();
                cells.insert(at, (key, cell));
            }
        }
    }
}

/// Handle to a registered counter family.
#[derive(Debug, Clone)]
pub struct CounterFamily(Arc<Family>);

impl CounterFamily {
    /// The counter cell for the given label values (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the family's labels.
    pub fn with(&self, label_values: &[&str]) -> Arc<Counter> {
        match self.0.cell(label_values, || Cell::Counter(Arc::new(Counter::new()))) {
            Cell::Counter(c) => c,
            _ => unreachable!("counter family holds counter cells"),
        }
    }

    /// Exposes a counter that already exists — one owned by something
    /// that outlives, or is shared between, registries (the process-wide
    /// reflector pool) — as the cell for `label_values`. The registry
    /// reads the very cell its owner updates; nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the family's labels.
    pub fn bind(&self, label_values: &[&str], cell: Arc<Counter>) {
        self.0.bind(label_values, Cell::Counter(cell));
    }

    /// Drops every cell whose value for `label` equals `value` (e.g. all
    /// cells of a torn-down tenant). Returns the number removed. Handles
    /// returned by [`CounterFamily::with`] stay valid; the cells simply
    /// stop appearing in expositions and snapshots.
    pub fn remove_label_value(&self, label: &str, value: &str) -> usize {
        self.0.remove_matching(label, value)
    }
}

/// Handle to a registered gauge family.
#[derive(Debug, Clone)]
pub struct GaugeFamily(Arc<Family>);

impl GaugeFamily {
    /// The gauge cell for the given label values (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the family's labels.
    pub fn with(&self, label_values: &[&str]) -> Arc<Gauge> {
        match self.0.cell(label_values, || Cell::Gauge(Arc::new(Gauge::new()))) {
            Cell::Gauge(g) => g,
            _ => unreachable!("gauge family holds gauge cells"),
        }
    }

    /// Exposes a gauge that already exists as the cell for
    /// `label_values`; see [`CounterFamily::bind`].
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the family's labels.
    pub fn bind(&self, label_values: &[&str], cell: Arc<Gauge>) {
        self.0.bind(label_values, Cell::Gauge(cell));
    }

    /// Drops every cell whose value for `label` equals `value`. Returns
    /// the number removed; see [`CounterFamily::remove_label_value`].
    pub fn remove_label_value(&self, label: &str, value: &str) -> usize {
        self.0.remove_matching(label, value)
    }
}

/// Handle to a registered histogram family.
#[derive(Debug, Clone)]
pub struct HistogramFamily(Arc<Family>);

impl HistogramFamily {
    /// The histogram cell for the given label values (created on first
    /// use).
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the family's labels.
    pub fn with(&self, label_values: &[&str]) -> Arc<Histogram> {
        match self.0.cell(label_values, || Cell::Histogram(Arc::new(Histogram::new()))) {
            Cell::Histogram(h) => h,
            _ => unreachable!("histogram family holds histogram cells"),
        }
    }

    /// Drops every cell whose value for `label` equals `value`. Returns
    /// the number removed; see [`CounterFamily::remove_label_value`].
    pub fn remove_label_value(&self, label: &str, value: &str) -> usize {
        self.0.remove_matching(label, value)
    }
}

/// Point-in-time copy of one metric cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellSnapshot {
    /// Label values, in the family's label order.
    pub labels: Vec<String>,
    /// Counter or gauge value (0 for histograms).
    pub value: i64,
    /// Histogram sample count (0 for counters/gauges).
    pub count: u64,
    /// Histogram sample sum (0 for counters/gauges).
    pub sum: u64,
    /// Histogram exact p50 (0 for counters/gauges).
    pub p50: u64,
    /// Histogram exact p99 (0 for counters/gauges).
    pub p99: u64,
    /// Histogram maximum sample (0 for counters/gauges).
    pub max: u64,
}

/// Point-in-time copy of one metric family and all its cells.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilySnapshot {
    /// Family name.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Help text.
    pub help: String,
    /// Label names.
    pub labels: Vec<String>,
    /// Cells, sorted by label values.
    pub cells: Vec<CellSnapshot>,
}

/// Point-in-time copy of the whole registry, suitable for JSON reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Families, sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl RegistrySnapshot {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }
}

/// A named collection of labeled metric families.
///
/// `counter`/`gauge`/`histogram` are get-or-register: calling them again
/// with the same name returns the existing family (and panics if the kind
/// or label set differs — two call sites disagreeing about a family is a
/// bug worth failing loudly on).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Arc<Family>>>,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with("__")
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[&str],
        buckets: &[u64],
    ) -> Arc<Family> {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for label in labels {
            assert!(valid_label_name(label), "invalid label name {label:?} on {name}");
        }
        let mut families = self.families.lock();
        if let Some(existing) = families.get(name) {
            assert_eq!(existing.kind, kind, "metric {name} re-registered as a different kind");
            assert_eq!(
                existing.labels,
                labels.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
                "metric {name} re-registered with different labels"
            );
            return existing.clone();
        }
        let mut bounds: Vec<u64> = buckets.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let family = Arc::new(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            labels: labels.iter().map(|l| l.to_string()).collect(),
            buckets: bounds,
            cells: Mutex::new(Vec::new()),
        });
        families.insert(name.to_string(), family.clone());
        family
    }

    /// Gets or registers a counter family.
    pub fn counter(&self, name: &str, help: &str, labels: &[&str]) -> CounterFamily {
        CounterFamily(self.register(name, help, MetricKind::Counter, labels, &[]))
    }

    /// Gets or registers a gauge family.
    pub fn gauge(&self, name: &str, help: &str, labels: &[&str]) -> GaugeFamily {
        GaugeFamily(self.register(name, help, MetricKind::Gauge, labels, &[]))
    }

    /// Gets or registers a histogram family with the given upper bucket
    /// bounds (same unit as the observed samples; an implicit `+Inf`
    /// bucket is always rendered).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[&str],
        buckets: &[u64],
    ) -> HistogramFamily {
        HistogramFamily(self.register(name, help, MetricKind::Histogram, labels, buckets))
    }

    /// Drops every cell, in every family, whose value for `label` equals
    /// `value` — the tenant-teardown sweep: without it the label space
    /// grows monotonically under onboarding/teardown churn, because cells
    /// are created lazily but were never removed. Returns the total number
    /// of cells removed. Live handles previously returned by `with` stay
    /// usable; they just no longer appear in expositions or snapshots (a
    /// later `with` for the same labels starts a fresh cell).
    pub fn remove_label_value(&self, label: &str, value: &str) -> usize {
        let families: Vec<Arc<Family>> = self.families.lock().values().cloned().collect();
        families.iter().map(|f| f.remove_matching(label, value)).sum()
    }

    /// Total number of cells across every family — the registry's label
    /// space. Scale harnesses watch this across tenant churn to catch
    /// label-space leaks.
    pub fn cell_count(&self) -> usize {
        let families: Vec<Arc<Family>> = self.families.lock().values().cloned().collect();
        families.iter().map(|f| f.cells.lock().len()).sum()
    }

    /// Renders every family in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, one sample line per cell, histograms
    /// as cumulative `_bucket`/`_sum`/`_count` series).
    pub fn render_text(&self) -> String {
        let families: Vec<Arc<Family>> = self.families.lock().values().cloned().collect();
        let mut out = String::new();
        for family in families {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            let cells = family.cells.lock();
            for (values, cell) in cells.iter() {
                match cell {
                    Cell::Counter(c) => {
                        let labels = render_labels(&family.labels, values, None);
                        let _ = writeln!(out, "{}{} {}", family.name, labels, c.get());
                    }
                    Cell::Gauge(g) => {
                        let labels = render_labels(&family.labels, values, None);
                        let _ = writeln!(out, "{}{} {}", family.name, labels, g.get());
                    }
                    Cell::Histogram(h) => {
                        let samples = h.snapshot();
                        let count = samples.len() as u64;
                        let sum: u64 = samples.iter().sum();
                        for bound in &family.buckets {
                            let le = samples.iter().filter(|&&s| s <= *bound).count();
                            let labels = render_labels(
                                &family.labels,
                                values,
                                Some(("le", &bound.to_string())),
                            );
                            let _ = writeln!(out, "{}_bucket{} {}", family.name, labels, le);
                        }
                        let labels = render_labels(&family.labels, values, Some(("le", "+Inf")));
                        let _ = writeln!(out, "{}_bucket{} {}", family.name, labels, count);
                        let labels = render_labels(&family.labels, values, None);
                        let _ = writeln!(out, "{}_sum{} {}", family.name, labels, sum);
                        let _ = writeln!(out, "{}_count{} {}", family.name, labels, count);
                    }
                }
            }
        }
        out
    }

    /// Takes one coherent point-in-time snapshot of every family.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families: Vec<Arc<Family>> = self.families.lock().values().cloned().collect();
        let mut out = Vec::with_capacity(families.len());
        for family in families {
            let cells = family.cells.lock();
            let mut cell_snaps = Vec::with_capacity(cells.len());
            for (values, cell) in cells.iter() {
                let snap = match cell {
                    Cell::Counter(c) => CellSnapshot {
                        labels: values.clone(),
                        value: c.get() as i64,
                        count: 0,
                        sum: 0,
                        p50: 0,
                        p99: 0,
                        max: 0,
                    },
                    Cell::Gauge(g) => CellSnapshot {
                        labels: values.clone(),
                        value: g.get(),
                        count: 0,
                        sum: 0,
                        p50: 0,
                        p99: 0,
                        max: 0,
                    },
                    Cell::Histogram(h) => {
                        let samples = h.snapshot();
                        CellSnapshot {
                            labels: values.clone(),
                            value: 0,
                            count: samples.len() as u64,
                            sum: samples.iter().sum(),
                            p50: h.percentile(0.5),
                            p99: h.percentile(0.99),
                            max: h.max(),
                        }
                    }
                };
                cell_snaps.push(snap);
            }
            out.push(FamilySnapshot {
                name: family.name.clone(),
                kind: family.kind,
                help: family.help.clone(),
                labels: family.labels.clone(),
                cells: cell_snaps,
            });
        }
        RegistrySnapshot { families: out }
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(names: &[String], values: &[String], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = names
        .iter()
        .zip(values.iter())
        .map(|(n, v)| format!("{n}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((n, v)) = extra {
        pairs.push(format!("{n}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_cells_are_shared() {
        let reg = MetricsRegistry::new();
        let fam = reg.counter("requests_total", "Requests.", &["verb"]);
        fam.with(&["create"]).inc();
        fam.with(&["create"]).inc();
        fam.with(&["get"]).inc();
        assert_eq!(fam.with(&["create"]).get(), 2);
        assert_eq!(fam.with(&["get"]).get(), 1);
        // Re-registration returns the same family.
        let again = reg.counter("requests_total", "Requests.", &["verb"]);
        assert_eq!(again.with(&["create"]).get(), 2);
        // Cells stay sorted by label values whatever the insertion order,
        // so later lookups land on the cell they created.
        for verb in ["watch", "delete", "a", "list"] {
            fam.with(&[verb]).inc();
        }
        assert_eq!(fam.with(&["create"]).get(), 2);
        let snap = reg.snapshot();
        let verbs: Vec<&str> =
            snap.family("requests_total").unwrap().cells.iter().map(|c| &*c.labels[0]).collect();
        assert_eq!(verbs, ["a", "create", "delete", "get", "list", "watch"]);
    }

    #[test]
    fn bound_cells_alias_their_owner() {
        let owned = Arc::new(Counter::new());
        owned.add(3);
        let level = Arc::new(Gauge::new());
        for _ in 0..2 {
            // Two registries (two frameworks in one process) share a cell.
            let reg = MetricsRegistry::new();
            reg.counter("pool_events_total", "Events.", &[]).bind(&[], Arc::clone(&owned));
            reg.gauge("pool_threads", "Threads.", &[]).bind(&[], Arc::clone(&level));
            // Binding again replaces; it never duplicates the cell.
            reg.counter("pool_events_total", "Events.", &[]).bind(&[], Arc::clone(&owned));
            owned.inc();
            level.set(2);
            let text = reg.render_text();
            assert!(text.contains(&format!("pool_events_total {}", owned.get())), "{text}");
            assert!(text.contains("pool_threads 2"), "{text}");
            assert_eq!(reg.cell_count(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m_total", "h", &[]);
        reg.gauge("m_total", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "different labels")]
    fn label_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m_total", "h", &["a"]);
        reg.counter("m_total", "h", &["b"]);
    }

    #[test]
    #[should_panic(expected = "takes labels")]
    fn label_arity_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m_total", "h", &["a"]).with(&[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("9bad", "h", &[]);
    }

    #[test]
    fn text_exposition_counters_and_gauges() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "Count of things.", &["tenant"]).with(&["t-1"]).add(3);
        reg.gauge("depth", "Queue depth.", &[]).with(&[]).set(-2);
        let text = reg.render_text();
        assert!(text.contains("# HELP c_total Count of things."), "{text}");
        assert!(text.contains("# TYPE c_total counter"), "{text}");
        assert!(text.contains(r#"c_total{tenant="t-1"} 3"#), "{text}");
        assert!(text.contains("# TYPE depth gauge"), "{text}");
        assert!(text.contains("depth -2"), "{text}");
    }

    #[test]
    fn text_exposition_histogram_cumulative() {
        let reg = MetricsRegistry::new();
        let fam = reg.histogram("lat_us", "Latency (µs).", &["stage"], &[10, 100]);
        let h = fam.with(&["gate"]);
        for v in [5, 50, 500] {
            h.observe_ms(v);
        }
        let text = reg.render_text();
        assert!(text.contains(r#"lat_us_bucket{stage="gate",le="10"} 1"#), "{text}");
        assert!(text.contains(r#"lat_us_bucket{stage="gate",le="100"} 2"#), "{text}");
        assert!(text.contains(r#"lat_us_bucket{stage="gate",le="+Inf"} 3"#), "{text}");
        assert!(text.contains(r#"lat_us_sum{stage="gate"} 555"#), "{text}");
        assert!(text.contains(r#"lat_us_count{stage="gate"} 3"#), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "h", &["k"]).with(&["a\"b\\c\nd"]).inc();
        let text = reg.render_text();
        assert!(text.contains(r#"c_total{k="a\"b\\c\nd"} 1"#), "{text}");
    }

    #[test]
    fn remove_label_value_reclaims_cells() {
        let reg = MetricsRegistry::new();
        let reqs = reg.counter("reqs_total", "Requests.", &["server", "verb"]);
        reqs.with(&["t-1", "create"]).inc();
        reqs.with(&["t-1", "get"]).inc();
        reqs.with(&["t-2", "create"]).inc();
        let depth = reg.gauge("depth", "Depth.", &["tenant"]);
        depth.with(&["t-1"]).set(3);
        assert_eq!(reg.cell_count(), 4);

        // Registry-wide sweep by one label value.
        assert_eq!(reg.remove_label_value("server", "t-1"), 2);
        // Family-level sweep by a different label.
        assert_eq!(depth.remove_label_value("tenant", "t-1"), 1);
        assert_eq!(reg.cell_count(), 1);
        let text = reg.render_text();
        assert!(!text.contains(r#"server="t-1""#), "{text}");
        assert!(text.contains(r#"server="t-2""#), "{text}");
        // Unknown labels and values are no-ops.
        assert_eq!(reg.remove_label_value("no_such_label", "x"), 0);
        assert_eq!(reg.remove_label_value("server", "t-9"), 0);
        // A later `with` for removed labels starts a fresh cell.
        assert_eq!(reqs.with(&["t-1", "create"]).get(), 0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "Count.", &["tenant"]).with(&["t-1"]).add(7);
        reg.gauge("g", "Level.", &[]).with(&[]).set(4);
        let h = reg.histogram("h_us", "Hist.", &["stage"], &[100]);
        for v in [10, 20, 30] {
            h.with(&["s"]).observe_ms(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.families.len(), 3);
        let c = snap.family("c_total").unwrap();
        assert_eq!(c.cells[0].value, 7);
        let hs = snap.family("h_us").unwrap();
        assert_eq!(hs.cells[0].count, 3);
        assert_eq!(hs.cells[0].sum, 60);
        assert_eq!(hs.cells[0].p50, 20);
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.family("g").unwrap().cells[0].value, 4);
        assert_eq!(back.family("h_us").unwrap().kind, MetricKind::Histogram);
    }
}
