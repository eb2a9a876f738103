//! `sync_burst`: saturated throughput. Twenty tenants submit 2 000 pods a
//! round — four greedy tenants × 300 first, then sixteen regular × 50 —
//! from two generators; a round ends when every pod is Ready in its
//! tenant, then a delete wave empties the super cluster before the next
//! round. An op is a pod; the latency sample is a *regular* tenant's wave
//! (its first create → its last Ready), which is what fair queuing is
//! meant to protect from the greedy tenants.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_api::object::ResourceKind;
use vc_client::Client;
use vc_core::mapping;
use vc_core::syncer::Syncer;
use vc_store::{EventType, WatchStream};

use super::{CheckedWatch, Mode, Segment, Sizes, Tally, Workload, DRAIN_DEADLINE, OP_DEADLINE};
use crate::counters::Counters;
use crate::env::{FrameworkEnv, FrameworkSpec};
use crate::pods::PodMix;
use crate::stats;
use crate::sys::Usage;
use crate::trace::PodStamps;
use crate::watchdog;

const NAMESPACE: &str = "default";
const GREEDY_TENANTS: usize = 4;
const REGULAR_TENANTS: usize = 16;
const GENERATORS: usize = 2;
/// How long a generator sleeps when none of its watches had an event. A
/// generator has ten watches and nothing to block on all of them at once,
/// so it polls; every sleep is counted and taken out of `ctxsw_per_op`.
const POLL: Duration = Duration::from_millis(1);

/// One tenant as a generator sees it.
struct Lane {
    tenant: String,
    greedy: bool,
    pods_per_round: usize,
    client: Client,
    watch: CheckedWatch<WatchStream>,
    mix: PodMix,
}

/// One lane's progress through a round.
#[derive(Default)]
struct Wave {
    /// Pod name → (create sent, create acked).
    sent: HashMap<String, (Instant, Instant)>,
    first_send: Option<Instant>,
    last_ready: Option<Instant>,
    /// Pods seen Ready, with the receipt time.
    ready: HashMap<String, Instant>,
    deleted: usize,
    create_errors: u64,
}

struct Generator {
    id: usize,
    lanes: Vec<Lane>,
    syncer: Arc<Syncer>,
}

/// A generator's share of one round: its lanes' waves (`greedy`, wave),
/// the violations and queue depths it saw, and how often it slept.
#[derive(Default)]
struct RoundTally {
    waves: Vec<(bool, Wave)>,
    seen: Tally,
    sleeps: u64,
}

impl Lane {
    /// Drains pending events into `wave`; returns whether any arrived.
    fn drain(&mut self, wave: &mut Wave, seen: &mut Tally) -> bool {
        let mut any = false;
        while let Some(event) = self.watch.try_recv(&self.tenant, seen) {
            let at = Instant::now();
            any = true;
            let Some(pod) = event.object.as_pod() else { continue };
            if event.event_type == EventType::Deleted {
                wave.deleted += 1;
            } else if pod.status.is_ready()
                && pod.spec.is_bound()
                && wave.sent.contains_key(&pod.meta.name)
                && !wave.ready.contains_key(&pod.meta.name)
            {
                wave.ready.insert(pod.meta.name.clone(), at);
                wave.last_ready = Some(at);
                watchdog::progress();
            }
        }
        any
    }
}

impl Generator {
    /// Submits this generator's share of the round (greedy lanes first)
    /// and waits until every pod is Ready.
    fn submit_and_await(&mut self, round: u64, sample_depth: bool) -> RoundTally {
        let mut tally = RoundTally::default();
        let mut waves: Vec<Wave> = self.lanes.iter().map(|_| Wave::default()).collect();
        for (lane, wave) in self.lanes.iter_mut().zip(&mut waves) {
            for i in 0..lane.pods_per_round {
                let name = format!("{}-r{round}-{i:04}", lane.tenant);
                let pod = lane.mix.next_pod(NAMESPACE, &name);
                let send = Instant::now();
                wave.first_send.get_or_insert(send);
                match lane.client.create(pod.into()) {
                    Ok(_) => {
                        wave.sent.insert(name, (send, Instant::now()));
                    }
                    Err(err) => {
                        wave.create_errors += 1;
                        tally.seen.violation(&lane.tenant, format_args!("create {name}: {err}"));
                    }
                }
            }
        }
        let deadline = Instant::now() + OP_DEADLINE;
        loop {
            let mut any = false;
            for (lane, wave) in self.lanes.iter_mut().zip(&mut waves) {
                any |= lane.drain(wave, &mut tally.seen);
            }
            if waves.iter().all(|w| w.ready.len() == w.sent.len()) || Instant::now() >= deadline {
                break;
            }
            if !any {
                if sample_depth {
                    let depth = &mut tally.seen.depth_max;
                    *depth = (
                        depth.0.max(self.syncer.downward_len()),
                        depth.1.max(self.syncer.upward_len()),
                    );
                }
                std::thread::sleep(POLL);
                tally.sleeps += 1;
            }
        }
        tally.waves = self.lanes.iter().map(|l| l.greedy).zip(waves).collect();
        tally
    }

    /// Deletes every pod of the round and waits for the Deleted events;
    /// returns the violations and how often it slept.
    fn delete_wave(&mut self, round: u64) -> (Vec<String>, u64) {
        let mut seen = Tally::default();
        let mut sleeps = 0;
        let mut waves: Vec<Wave> = self.lanes.iter().map(|_| Wave::default()).collect();
        let mut expected = vec![0usize; self.lanes.len()];
        for (lane, expect) in self.lanes.iter_mut().zip(&mut expected) {
            for i in 0..lane.pods_per_round {
                let name = format!("{}-r{round}-{i:04}", lane.tenant);
                if lane.client.delete(ResourceKind::Pod, NAMESPACE, &name).is_ok() {
                    *expect += 1;
                }
            }
        }
        let deadline = Instant::now() + OP_DEADLINE;
        loop {
            let mut any = false;
            for (lane, wave) in self.lanes.iter_mut().zip(&mut waves) {
                any |= lane.drain(wave, &mut seen);
            }
            if waves.iter().zip(&expected).all(|(w, e)| w.deleted >= *e) {
                break;
            }
            if Instant::now() >= deadline {
                seen.violation(&format!("generator {}", self.id), "delete events missing");
                break;
            }
            if !any {
                std::thread::sleep(POLL);
                sleeps += 1;
            }
        }
        (seen.violations, sleeps)
    }
}

/// The running system plus its generators.
pub struct Burst {
    env: FrameworkEnv,
    generators: Vec<Generator>,
    round: u64,
}

impl Burst {
    /// Starts the framework with twenty tenants and opens every watch.
    pub fn start(seed: u64, sizes: Sizes) -> Result<Burst, String> {
        let tenants = GREEDY_TENANTS + REGULAR_TENANTS;
        let env = FrameworkEnv::start(&FrameworkSpec {
            active_tenants: tenants,
            idle_tenants: 0,
            wire: false,
            wal_dir: None,
            isolation: false,
        })?;
        let mut generators: Vec<Generator> = (0..GENERATORS)
            .map(|id| Generator { id, lanes: Vec::new(), syncer: Arc::clone(&env.fw.syncer) })
            .collect();
        // Tenants 0..4 are greedy; alternate tenants between generators so
        // each owns two greedy and eight regular lanes, greedy first.
        for (index, handle) in env.active.iter().enumerate() {
            let greedy = index < GREEDY_TENANTS;
            let client = handle.system_client("bench");
            let (_, revision) = client
                .list(ResourceKind::Pod, Some(NAMESPACE))
                .map_err(|e| format!("{}: list: {e}", handle.name))?;
            let watch = client
                .watch(ResourceKind::Pod, Some(NAMESPACE), revision)
                .map_err(|e| format!("{}: watch: {e}", handle.name))?;
            generators[index % GENERATORS].lanes.push(Lane {
                tenant: handle.name.clone(),
                greedy,
                pods_per_round: if greedy { sizes.greedy_pods } else { sizes.regular_pods },
                client,
                watch: CheckedWatch::new(watch, revision),
                mix: PodMix::new(seed, index as u64),
            });
        }
        Ok(Burst { env, generators, round: 0 })
    }

    /// Every Ready tenant pod must have exactly one super copy owned by
    /// its tenant: the super cluster holds as many pods as are Ready, and
    /// each carries the owner annotation of the tenant its name encodes.
    fn check_super_copies(&self, ready: usize) -> Result<(), String> {
        let (pods, _) = self
            .env
            .super_client("bench-check")
            .list(ResourceKind::Pod, None)
            .map_err(|e| format!("list super pods: {e}"))?;
        if pods.len() != ready {
            return Err(format!("{} super pods for {ready} Ready tenant pods", pods.len()));
        }
        let stray = pods.iter().find(|p| {
            let owner = p.meta().name.split('-').next().unwrap_or_default();
            mapping::owner_cluster(p) != Some(owner)
        });
        match stray {
            Some(pod) => Err(format!("super pod {} lacks its owner annotation", pod.key())),
            None => Ok(()),
        }
    }
}

impl Workload for Burst {
    fn run(&mut self, duration: Duration, mode: Mode) -> Segment {
        let sample_depth = mode == Mode::Traced;
        let mut segment = Segment::default();
        let observers = match mode {
            Mode::Plain => None,
            Mode::Traced => self.env.observers().map_err(|e| segment.violations.push(e)).ok(),
        };

        let started = Instant::now();
        let before = Usage::now();
        let mut rates = Vec::new();
        let (mut greedy_ms, mut regular_ms) = (Vec::new(), Vec::new());
        let mut stamps = Vec::new();
        let mut own_sleeps = 0;
        loop {
            let round = self.round;
            self.round += 1;
            let round_started = Instant::now();
            let tallies: Vec<RoundTally> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .generators
                    .iter_mut()
                    .map(|g| scope.spawn(move || g.submit_and_await(round, sample_depth)))
                    .collect();
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            });
            let round_wall = round_started.elapsed();
            if tallies.len() != self.generators.len() {
                segment.violations.push("a generator thread panicked".into());
            }

            let mut ready = 0usize;
            for tally in tallies {
                own_sleeps += tally.sleeps;
                segment.violations.extend(tally.seen.violations);
                segment.depth_max.0 = segment.depth_max.0.max(tally.seen.depth_max.0);
                segment.depth_max.1 = segment.depth_max.1.max(tally.seen.depth_max.1);
                for (greedy, wave) in tally.waves {
                    segment.attempted += wave.sent.len() as u64 + wave.create_errors;
                    ready += wave.ready.len();
                    if let (Some(first), Some(last), true) =
                        (wave.first_send, wave.last_ready, wave.ready.len() == wave.sent.len())
                    {
                        let ms = last.duration_since(first).as_secs_f64() * 1e3;
                        if greedy { &mut greedy_ms } else { &mut regular_ms }.push(ms);
                    }
                    for (name, at) in wave.ready {
                        let Some((send, ack)) = wave.sent.get(&name).copied() else { continue };
                        segment.create_ack_us.push(ack.duration_since(send).as_secs_f64() * 1e6);
                        if mode == Mode::Traced {
                            stamps.push(PodStamps { name, send, ack, ready: at });
                        }
                    }
                }
            }
            match self.check_super_copies(ready) {
                Ok(()) => segment.ops += ready as u64,
                Err(violation) => segment.violations.push(violation),
            }
            rates.push(ready as f64 / round_wall.as_secs_f64().max(1e-9));

            let deleted: Vec<(Vec<String>, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .generators
                    .iter_mut()
                    .map(|g| scope.spawn(move || g.delete_wave(round)))
                    .collect();
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            });
            for (violations, sleeps) in deleted {
                segment.violations.extend(violations);
                own_sleeps += sleeps;
            }
            let (empty, sleeps) = self.env.wait_super_empty(DRAIN_DEADLINE);
            own_sleeps += sleeps;
            if !empty {
                segment.violations.push(format!(
                    "round {round}: {} super pods left after the delete wave",
                    self.env.super_pod_count()
                ));
            }
            watchdog::progress();
            if started.elapsed() >= duration {
                break;
            }
        }
        segment.usage = Usage::now().since(&before);
        // A sleep is one voluntary switch of the benchmark's own making, and
        // how many there are depends on how long the system took.
        segment.usage.voluntary_ctxsw = segment.usage.voluntary_ctxsw.saturating_sub(own_sleeps);
        segment.own_sleeps = own_sleeps;
        segment.wall = started.elapsed();
        segment.started = Some(started);
        segment.failed = segment.attempted - segment.ops.min(segment.attempted);
        segment.ops_per_s = stats::median(&mut rates);
        segment.greedy_vs_regular = stats::mean(&greedy_ms) / stats::mean(&regular_ms).max(1e-9);
        segment.lat_ms = regular_ms;
        segment.violations.truncate(16);

        segment.trace = observers.map(|o| o.resolve(&stamps));
        segment
    }

    fn counters(&self) -> Counters {
        self.env.counters()
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        drop(self.generators);
        self.env.drain_and_shutdown()
    }
}
