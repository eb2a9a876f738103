//! The boundary-span trace. All stamps are taken in the benchmark's own
//! threads: a generator stamps when it sends a create and when it receives
//! the pod's Ready event; observer threads sit on in-process `Pod` watches
//! (one on the super cluster, one per active tenant) and stamp the receipt
//! of each transition. Per pod the stamps give six spans that tile
//! create → Ready:
//!
//! ```text
//! send ─request─ tenant Added ─downward─ super Added ─schedule─ node bound
//!      ─kubelet─ super Ready ─upward─ tenant Ready ─deliver─ Ready received
//! ```
//!
//! Spans live in memory until the traced segment ends and are resolved
//! only after every observer has been joined.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;
use vc_client::Client;
use vc_store::RecvOutcome;

/// Span names in path order.
pub const SPANS: [&str; 6] = ["request", "downward", "schedule", "kubelet", "upward", "deliver"];

/// What a generator recorded for one pod.
#[derive(Debug, Clone)]
pub struct PodStamps {
    /// Pod name — unique per op, shared by the tenant and super copies.
    pub name: String,
    /// Create request sent.
    pub send: Instant,
    /// Create response received.
    pub ack: Instant,
    /// Ready event received by the creator.
    pub ready: Instant,
}

/// Transitions one observer saw for one pod.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    /// First event for the pod (its Added).
    pub added: Option<Instant>,
    /// First event with `spec.node_name` set.
    pub bound: Option<Instant>,
    /// First event with the Ready condition true.
    pub ready: Option<Instant>,
}

/// A thread draining one in-process `Pod` watch and stamping transitions.
pub struct Observer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<HashMap<String, Marks>>>,
}

impl Observer {
    /// Opens a `Pod` watch on `client` (all namespaces, from the store's
    /// current revision) and starts stamping.
    pub fn start(client: Client, label: &str) -> Result<Observer, String> {
        let (_, revision) = client
            .list(ResourceKind::Pod, None)
            .map_err(|e| format!("observer {label}: list failed: {e}"))?;
        let watch = client
            .watch(ResourceKind::Pod, None, revision)
            .map_err(|e| format!("observer {label}: watch failed: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("bench-observer-{label}"))
            .spawn(move || {
                let mut marks: HashMap<String, Marks> = HashMap::new();
                let mut idle_since_stop = 0;
                // After `stop`, keep draining until the stream has been
                // quiet for two polls, so trailing events are not lost.
                while idle_since_stop < 2 {
                    match watch.recv_deadline(Duration::from_millis(20)) {
                        RecvOutcome::Event(event) => {
                            let at = Instant::now();
                            idle_since_stop = 0;
                            let Some(pod) = event.object.as_pod() else { continue };
                            let entry = marks.entry(pod.meta.name.clone()).or_default();
                            entry.added.get_or_insert(at);
                            if pod.spec.is_bound() {
                                entry.bound.get_or_insert(at);
                            }
                            if pod.status.is_ready() {
                                entry.ready.get_or_insert(at);
                            }
                        }
                        RecvOutcome::Timeout => {
                            if flag.load(Ordering::Relaxed) {
                                idle_since_stop += 1;
                            }
                        }
                        RecvOutcome::Closed => break,
                    }
                }
                marks
            })
            .map_err(|e| format!("observer {label}: spawn failed: {e}"))?;
        Ok(Observer { stop, thread: Some(thread) })
    }

    /// Stops the observer once its stream is quiet and returns its marks.
    pub fn finish(mut self) -> HashMap<String, Marks> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.take().and_then(|t| t.join().ok()).unwrap_or_default()
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The observers of one traced window: one on the super cluster, one per
/// active tenant.
pub struct Observers {
    superc: Observer,
    tenants: Vec<Observer>,
}

impl Observers {
    /// Starts an observer on `superc` and on each of `tenants`
    /// (`(client, label)`).
    pub fn start(
        superc: Client,
        tenants: impl IntoIterator<Item = (Client, String)>,
    ) -> Result<Observers, String> {
        Ok(Observers {
            superc: Observer::start(superc, "super")?,
            tenants: tenants
                .into_iter()
                .map(|(client, label)| Observer::start(client, &label))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Joins every observer and resolves `pods` against their marks.
    pub fn resolve(self, pods: &[PodStamps]) -> Resolved {
        let super_marks = self.superc.finish();
        let mut tenant_marks = HashMap::new();
        for observer in self.tenants {
            // Pod names are unique across tenants, so the maps are disjoint.
            tenant_marks.extend(observer.finish());
        }
        resolve(pods, |pod| staged_bounds(pod, &tenant_marks, &super_marks))
    }
}

/// One pod's resolved boundaries: `bounds[0]` is the send, `bounds[6]` the
/// Ready receipt, and span `i` runs from `bounds[i]` to `bounds[i + 1]`.
#[derive(Debug, Clone)]
pub struct PodTrace {
    /// Pod name (the identifier shared by all of the pod's spans).
    pub name: String,
    /// The seven boundaries, non-decreasing.
    pub bounds: [Instant; 7],
    /// Create response received (not a tile boundary: over the wire the
    /// ack can arrive after the syncer has already pushed the pod down).
    pub ack: Instant,
}

/// The traced segment's pods, resolved.
#[derive(Debug, Default)]
pub struct Resolved {
    /// Pods with every boundary observed.
    pub pods: Vec<PodTrace>,
    /// Create → Ready of every traced pod, resolved or not, milliseconds.
    pub all_total_ms: Vec<f64>,
    /// Pods dropped because an observer missed one of their transitions.
    pub incomplete: u64,
    /// Boundaries moved to keep a pod's stamps in causal order (an
    /// observer woke later than the next stage's observer).
    pub clamped: u64,
}

/// The five inner boundaries of a pod that passed through the syncer:
/// tenant Added, super Added, node bound, super Ready, tenant Ready —
/// `None` if an observer missed one.
fn staged_bounds(
    pod: &PodStamps,
    tenant: &HashMap<String, Marks>,
    superc: &HashMap<String, Marks>,
) -> Option<[Instant; 5]> {
    let t = tenant.get(&pod.name)?;
    let s = superc.get(&pod.name)?;
    Some([t.added?, s.added?, s.bound?, s.ready?, t.ready?])
}

/// The inner boundaries of a request on a path without the syncer stages
/// (`wire_crud`): request = send → ack, deliver = ack → event. The four
/// stages in between do not exist there and read 0.
pub fn flat_bounds(pod: &PodStamps) -> Option<[Instant; 5]> {
    Some([pod.ack; 5])
}

/// Resolves each pod's seven boundaries: its send, the five `inner` finds
/// for it, and its Ready receipt. Boundaries out of causal order are
/// clamped; pods `inner` cannot place are counted as incomplete.
pub fn resolve(pods: &[PodStamps], inner: impl Fn(&PodStamps) -> Option<[Instant; 5]>) -> Resolved {
    let mut out = Resolved::default();
    for pod in pods {
        out.all_total_ms.push(pod.ready.duration_since(pod.send).as_secs_f64() * 1e3);
        let Some(inner) = inner(pod) else {
            out.incomplete += 1;
            continue;
        };
        let mut bounds = [pod.send; 7];
        bounds[1..6].copy_from_slice(&inner);
        bounds[6] = pod.ready;
        for i in 1..7 {
            let floor = bounds[i - 1];
            let ceiling = pod.ready.max(floor);
            let fixed = bounds[i].clamp(floor, ceiling);
            if fixed != bounds[i] {
                out.clamped += 1;
                bounds[i] = fixed;
            }
        }
        out.pods.push(PodTrace { name: pod.name.clone(), bounds, ack: pod.ack });
    }
    out
}

impl Resolved {
    /// Durations of span `index` across all resolved pods, milliseconds.
    pub fn span_ms(&self, index: usize) -> Vec<f64> {
        self.pods
            .iter()
            .map(|p| p.bounds[index + 1].duration_since(p.bounds[index]).as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes one JSON object per span: the pod's root span (`parent`
    /// null) and its six tiles, times in µs since `origin`.
    pub fn write_jsonl(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        for pod in &self.pods {
            writeln!(
                file,
                "{{\"trace\":\"{}\",\"span\":\"pod\",\"parent\":null,\"start_us\":{:.1},\"end_us\":{:.1},\"ack_us\":{:.1}}}",
                pod.name,
                us(pod.bounds[0]),
                us(pod.bounds[6]),
                us(pod.ack)
            )?;
            for (i, span) in SPANS.iter().enumerate() {
                writeln!(
                    file,
                    "{{\"trace\":\"{}\",\"span\":\"{span}\",\"parent\":\"pod\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                    pod.name,
                    us(pod.bounds[i]),
                    us(pod.bounds[i + 1])
                )?;
            }
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_sum_to_total_and_out_of_order_stamps_are_clamped() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let pods = vec![PodStamps { name: "p".into(), send: at(0), ack: at(1), ready: at(10) }];
        let mut tenant = HashMap::new();
        // Tenant observer woke late: its Added stamp lands after the super
        // Added stamp and must be pulled back into order.
        tenant
            .insert("p".to_string(), Marks { added: Some(at(4)), bound: None, ready: Some(at(9)) });
        let mut superc = HashMap::new();
        superc.insert(
            "p".to_string(),
            Marks { added: Some(at(3)), bound: Some(at(5)), ready: Some(at(7)) },
        );
        let resolved = resolve(&pods, |p| staged_bounds(p, &tenant, &superc));
        assert_eq!(resolved.pods.len(), 1);
        assert_eq!(resolved.clamped, 1);
        let sum: f64 = (0..6).map(|i| resolved.span_ms(i)[0]).sum();
        assert!((sum - resolved.all_total_ms[0]).abs() < 1e-9);
        assert_eq!(resolved.span_ms(1)[0], 0.0, "clamped downward tile");

        let missing = resolve(&pods, |p| staged_bounds(p, &HashMap::new(), &superc));
        assert_eq!((missing.pods.len(), missing.incomplete), (0, 1));

        let flat = resolve(&pods, flat_bounds);
        assert_eq!(flat.span_ms(0)[0], 1.0);
        assert_eq!(flat.span_ms(2)[0], 0.0, "a stage the path does not have");
        assert_eq!(flat.span_ms(5)[0], 9.0);
    }
}
