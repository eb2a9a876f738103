//! The four workloads. Each stresses different layers, so that for any
//! optimisation one workload exercises its mechanism and another bypasses
//! it (where the prediction is *no change*).

pub mod burst;
pub mod crud;
pub mod lifecycle;

use std::path::Path;
use std::time::{Duration, Instant};

use vc_client::WatchHandle;
use vc_store::{RecvOutcome, WatchEvent};

use crate::counters::Counters;
use crate::sys::Usage;
use crate::trace::{PodStamps, Resolved};

/// Deadline for a single op; a slower op counts as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(10);
/// Deadline for the super cluster to drain after the final delete wave.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process, one generator, one tenant: the unsaturated latency path.
    SyncSteady,
    /// In-process, two generators, twenty tenants, 2 000-pod rounds:
    /// saturated throughput.
    SyncBurst,
    /// Standalone apiserver behind a `WireServer`: the wire tier alone.
    WireCrud,
    /// Wire-attached tenants, idle neighbours, durable super store: every
    /// layer on the critical path.
    AttachDense,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] =
        [Kind::SyncSteady, Kind::SyncBurst, Kind::WireCrud, Kind::AttachDense];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SyncSteady => "sync_steady",
            Kind::SyncBurst => "sync_burst",
            Kind::WireCrud => "wire_crud",
            Kind::AttachDense => "attach_dense",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generator threads (the box has two cores).
    pub fn generators(self) -> usize {
        match self {
            Kind::SyncSteady => 1,
            _ => 2,
        }
    }
}

/// Sizes that differ between a full run and the smoke test's `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Idle tenants next to the active ones (`attach_dense`).
    pub idle_tenants: usize,
    /// Pods a greedy tenant submits per round (`sync_burst`).
    pub greedy_pods: usize,
    /// Pods a regular tenant submits per round (`sync_burst`).
    pub regular_pods: usize,
}

impl Sizes {
    /// Full size.
    pub const FULL: Sizes = Sizes { idle_tenants: 100, greedy_pods: 300, regular_pods: 50 };
    /// Smoke-test size.
    pub const QUICK: Sizes = Sizes { idle_tenants: 6, greedy_pods: 30, regular_pods: 5 };
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Segment {
    /// Wall time of the window.
    pub wall: Duration,
    /// Process resource use over the window, less the generators' own
    /// polling sleeps (`own_sleeps`).
    pub usage: Usage,
    /// Sleeps the generators took while polling (`sync_burst`); each is a
    /// voluntary context switch already subtracted from `usage`.
    pub own_sleeps: u64,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed, timed out or produced a wrong result.
    pub failed: u64,
    /// Ops completed and correct.
    pub ops: u64,
    /// Ops per second as the workload defines it.
    pub ops_per_s: f64,
    /// The workload's latency samples, ms.
    pub lat_ms: Vec<f64>,
    /// Create request → response, µs (one per create).
    pub create_ack_us: Vec<f64>,
    /// Deepest downward / upward syncer queue a generator saw.
    pub depth_max: (usize, usize),
    /// Mean greedy-tenant wave ÷ mean regular-tenant wave (`sync_burst`).
    pub greedy_vs_regular: f64,
    /// Output-check violations.
    pub violations: Vec<String>,
    /// The resolved trace of a traced window.
    pub trace: Option<Resolved>,
    /// Start of the window (origin of trace timestamps).
    pub started: Option<Instant>,
}

/// Most violations kept per generator and window; one broken invariant
/// tends to repeat on every op.
const VIOLATIONS_KEPT: usize = 8;

/// What one generator thread counted in one window.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops failed, timed out or incorrect.
    pub failed: u64,
    /// Ops completed and correct.
    pub ops: u64,
    /// Latency samples, ms.
    pub lat_ms: Vec<f64>,
    /// Create request → response, µs.
    pub create_ack_us: Vec<f64>,
    /// Deepest downward / upward syncer queue seen.
    pub depth_max: (usize, usize),
    /// Output-check violations.
    pub violations: Vec<String>,
    /// Per-pod stamps (traced windows only).
    pub stamps: Vec<PodStamps>,
}

impl Tally {
    /// Records a violation, keeping the first few.
    pub fn violation(&mut self, who: &str, what: impl std::fmt::Display) {
        if self.violations.len() < VIOLATIONS_KEPT {
            self.violations.push(format!("{who}: {what}"));
        }
    }
}

/// A generator's view of one watch: receives events and checks that their
/// revisions strictly increase.
pub struct CheckedWatch<W> {
    watch: W,
    last_revision: u64,
}

impl<W> CheckedWatch<W> {
    /// Wraps `watch`, opened from `revision`.
    pub fn new(watch: W, revision: u64) -> Self {
        CheckedWatch { watch, last_revision: revision }
    }

    /// The revision of the last event received.
    pub fn last_revision(&self) -> u64 {
        self.last_revision
    }

    /// Notes `event`'s revision, reporting a violation to `tally` if it did
    /// not increase.
    pub fn observe(&mut self, event: &WatchEvent, who: &str, tally: &mut Tally) {
        if event.revision <= self.last_revision {
            tally.violation(
                who,
                format_args!("watch revision {} after {}", event.revision, self.last_revision),
            );
        }
        self.last_revision = event.revision;
    }
}

impl CheckedWatch<Box<dyn WatchHandle>> {
    /// Blocks up to `timeout` for the next event.
    pub fn recv(&mut self, timeout: Duration, who: &str, tally: &mut Tally) -> RecvOutcome {
        let outcome = self.watch.recv_deadline(timeout);
        if let RecvOutcome::Event(event) = &outcome {
            self.observe(event, who, tally);
        }
        outcome
    }
}

impl CheckedWatch<vc_store::WatchStream> {
    /// The next event if one is already waiting.
    pub fn try_recv(&mut self, who: &str, tally: &mut Tally) -> Option<WatchEvent> {
        let event = self.watch.try_recv()?;
        self.observe(&event, who, tally);
        Some(event)
    }
}

/// Runs `run` on every generator in its own thread for one window and
/// folds the tallies into a [`Segment`] (ops per second = correct ops ÷
/// wall); the per-pod stamps come back separately for the trace.
pub fn drive<G: Send>(
    generators: &mut [G],
    run: impl Fn(&mut G) -> Tally + Sync,
) -> (Segment, Vec<PodStamps>) {
    let started = Instant::now();
    let before = Usage::now();
    let expected = generators.len();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = generators.iter_mut().map(|g| scope.spawn(move || run(g))).collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut segment = Segment {
        usage: Usage::now().since(&before),
        wall: started.elapsed(),
        started: Some(started),
        ..Segment::default()
    };
    if tallies.len() != expected {
        segment.violations.push("a generator thread panicked".into());
    }
    let mut stamps = Vec::new();
    for tally in tallies {
        segment.attempted += tally.attempted;
        segment.failed += tally.failed;
        segment.ops += tally.ops;
        segment.lat_ms.extend(tally.lat_ms);
        segment.create_ack_us.extend(tally.create_ack_us);
        segment.depth_max.0 = segment.depth_max.0.max(tally.depth_max.0);
        segment.depth_max.1 = segment.depth_max.1.max(tally.depth_max.1);
        segment.violations.extend(tally.violations);
        stamps.extend(tally.stamps);
    }
    segment.ops_per_s = segment.ops as f64 / segment.wall.as_secs_f64().max(1e-9);
    (segment, stamps)
}

/// How a window is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No observers, no per-pod stamps kept.
    Plain,
    /// Boundary observers on, stamps kept and resolved.
    Traced,
}

/// A set-up system plus its load generators.
pub trait Workload {
    /// Runs the generators, closed loop, for about `duration` and returns
    /// what they measured.
    fn run(&mut self, duration: Duration, mode: Mode) -> Segment;

    /// Cumulative layer counters.
    fn counters(&self) -> Counters;

    /// RSS growth per idle tenant seen during set-up, KiB.
    fn rss_kib_per_idle_tenant(&self) -> f64 {
        0.0
    }

    /// Share of the deployment's tenants the generators never touch.
    fn idle_tenant_share(&self) -> f64 {
        0.0
    }

    /// Final output checks, then tear-down; returns the violations.
    fn finish(self: Box<Self>) -> Vec<String>;
}

/// Sets up `kind`. `scratch` is a directory the workload may create files
/// in (the WAL); it is left as it was found.
pub fn setup(
    kind: Kind,
    seed: u64,
    sizes: Sizes,
    scratch: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::SyncSteady => Box::new(lifecycle::Lifecycle::steady(seed)?),
        Kind::AttachDense => Box::new(lifecycle::Lifecycle::dense(seed, sizes, scratch)?),
        Kind::SyncBurst => Box::new(burst::Burst::start(seed, sizes)?),
        Kind::WireCrud => Box::new(crud::Crud::start(seed)?),
    })
}
