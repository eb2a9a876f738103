//! `wire_crud`: the wire tier alone. A standalone zero-latency apiserver
//! behind a `WireServer`; two generators, each with one vcbin unary
//! connection and one vcbin watch on its own namespace of 50 seeded pods.
//! Per ten ops, in seeded order: 5 get, 2 list, 1 create, 1 update,
//! 1 delete. An op is one request; the latency sample is a write sent →
//! its event received on the same client's watch. The syncer, scheduler
//! and kubelet do nothing here.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_api::namespace::Namespace;
use vc_api::object::{Object, ResourceKind};
use vc_apiserver::ApiServer;
use vc_client::{Client, ObjectApi, WatchHandle};
use vc_store::{EventType, RecvOutcome};
use vc_wire::{WireClient, WireServer, WireServerConfig};

use super::{drive, CheckedWatch, Mode, Segment, Tally, Workload, OP_DEADLINE};
use crate::counters::Counters;
use crate::env::{bare_apiserver, still_accepts, wire_client};
use crate::pods::PodMix;
use crate::rng::SplitMix64;
use crate::trace::{flat_bounds, resolve, PodStamps};
use crate::watchdog;

const GENERATORS: usize = 2;
/// Seeded pods per namespace: the get/list working set.
pub const SEED_PODS: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    List,
    Create,
    Update,
    Delete,
}

const MIX: [Op; 10] = [
    Op::Get,
    Op::Get,
    Op::Get,
    Op::Get,
    Op::Get,
    Op::List,
    Op::List,
    Op::Create,
    Op::Update,
    Op::Delete,
];

struct Generator {
    /// `g<id>`, for pod names and violations.
    who: String,
    namespace: String,
    api: WireClient,
    watch: CheckedWatch<Box<dyn WatchHandle>>,
    /// Latest stored version of each seeded pod (updates are CAS).
    seeds: Vec<Object>,
    /// Pods created by earlier ops and not yet deleted, oldest first.
    extras: VecDeque<String>,
    rng: SplitMix64,
    mix: PodMix,
    seq: u64,
}

impl Generator {
    /// Waits for the event a write just caused. The namespace has no other
    /// writer and the loop is closed, so it is the next event on the watch.
    fn await_event(
        &mut self,
        name: &str,
        expect: EventType,
        sent: Instant,
        tally: &mut Tally,
    ) -> Option<Instant> {
        let remaining = OP_DEADLINE.checked_sub(sent.elapsed())?;
        match self.watch.recv(remaining, &self.who, tally) {
            RecvOutcome::Event(event) => {
                let at = Instant::now();
                if event.object.meta().name != name || event.event_type != expect {
                    tally.violation(
                        &self.who,
                        format_args!(
                            "expected {expect:?} of {name}, watch delivered {:?} of {}",
                            event.event_type,
                            event.object.meta().name
                        ),
                    );
                    return None;
                }
                Some(at)
            }
            RecvOutcome::Timeout | RecvOutcome::Closed => {
                tally.violation(&self.who, format_args!("no event for the write to {name}"));
                None
            }
        }
    }

    /// Sends one write and waits for its event.
    fn write(&mut self, op: Op, mode: Mode, tally: &mut Tally) -> bool {
        let send = Instant::now();
        let (name, expect, result) = match op {
            Op::Create => {
                let name = format!("{}-{:07}", self.who, self.seq);
                self.seq += 1;
                let pod = self.mix.next_pod(&self.namespace, &name);
                let result = self.api.create(pod.into());
                if result.is_ok() {
                    self.extras.push_back(name.clone());
                }
                (name, EventType::Added, result)
            }
            Op::Update => {
                let index = self.rng.below(self.seeds.len() as u64) as usize;
                let mut next = self.seeds[index].clone();
                next.meta_mut().annotations.insert("bench/touched".into(), self.seq.to_string());
                self.seq += 1;
                let result = self.api.update(next);
                if let Ok(stored) = &result {
                    self.seeds[index] = (**stored).clone();
                }
                (self.seeds[index].meta().name.clone(), EventType::Modified, result)
            }
            _ => {
                // Deletes trail creates one for one; before the first
                // create there is nothing to delete, so create instead.
                let Some(name) = self.extras.pop_front() else {
                    return self.write(Op::Create, mode, tally);
                };
                let result = self.api.delete(ResourceKind::Pod, &self.namespace, &name);
                (name, EventType::Deleted, result)
            }
        };
        let ack = Instant::now();
        if let Err(err) = result {
            tally.violation(&self.who, format_args!("{op:?} {name}: {err}"));
            return false;
        }
        let Some(ready) = self.await_event(&name, expect, send, tally) else { return false };
        tally.lat_ms.push(ready.duration_since(send).as_secs_f64() * 1e3);
        if expect == EventType::Added {
            tally.create_ack_us.push(ack.duration_since(send).as_secs_f64() * 1e6);
        }
        if mode == Mode::Traced {
            tally.stamps.push(PodStamps {
                name: format!("{name}@{}", self.watch.last_revision()),
                send,
                ack,
                ready,
            });
        }
        true
    }

    fn one_op(&mut self, op: Op, mode: Mode, tally: &mut Tally) {
        tally.attempted += 1;
        let ok = match op {
            Op::Get => {
                let index = self.rng.below(self.seeds.len() as u64) as usize;
                let name = self.seeds[index].meta().name.clone();
                self.api
                    .get(ResourceKind::Pod, &self.namespace, &name)
                    .is_ok_and(|o| o.meta().name == name)
            }
            Op::List => match self.api.list(ResourceKind::Pod, Some(&self.namespace)) {
                Ok((items, _)) if items.len() >= SEED_PODS => true,
                Ok((items, _)) => {
                    tally.violation(
                        &self.who,
                        format_args!("list returned {} < {SEED_PODS}", items.len()),
                    );
                    false
                }
                Err(err) => {
                    tally.violation(&self.who, format_args!("list: {err}"));
                    false
                }
            },
            write => self.write(write, mode, tally),
        };
        if ok {
            tally.ops += 1;
        } else {
            tally.failed += 1;
        }
        watchdog::progress();
    }

    fn run(&mut self, until: Instant, mode: Mode) -> Tally {
        let mut tally = Tally::default();
        let mut mix = MIX;
        while Instant::now() < until {
            self.rng.shuffle(&mut mix);
            for op in mix {
                self.one_op(op, mode, &mut tally);
            }
        }
        tally
    }
}

/// The running server plus its generators.
pub struct Crud {
    api: Arc<ApiServer>,
    server: WireServer,
    generators: Vec<Generator>,
}

impl Crud {
    /// Starts the server, seeds the namespaces and opens the watches. The
    /// seeds go in through an in-process client: a hundred serial loopback
    /// round trips would make `setup_s` a measurement of the host's
    /// wake-up latency (24–27 % spread between runs).
    pub fn start(seed: u64) -> Result<Crud, String> {
        let api = bare_apiserver("wire-crud");
        let server = WireServer::start(Arc::clone(&api), WireServerConfig::default())
            .map_err(|e| format!("bind wire server: {e}"))?;
        let addr = server.local_addr().to_string();
        let seeder = Client::system(Arc::clone(&api), "bench-seed");
        let mut generators = Vec::new();
        for id in 0..GENERATORS {
            let namespace = format!("crud-{id}");
            let client = wire_client(&addr, &format!("bench-{id}"));
            let mut mix = PodMix::new(seed, id as u64);
            seeder
                .create(Namespace::new(&namespace).into())
                .map_err(|e| format!("seed namespace {namespace}: {e}"))?;
            let mut seeds = Vec::with_capacity(SEED_PODS);
            for p in 0..SEED_PODS {
                let pod = mix.next_pod(&namespace, &format!("seed-{p:02}"));
                let stored = seeder.create(pod.into()).map_err(|e| format!("seed pod {p}: {e}"))?;
                seeds.push((*stored).clone());
                watchdog::progress();
            }
            let (_, revision) = client
                .list(ResourceKind::Pod, Some(&namespace))
                .map_err(|e| format!("generator {id}: list: {e}"))?;
            let watch = client
                .watch(ResourceKind::Pod, Some(&namespace), revision)
                .map_err(|e| format!("generator {id}: watch: {e}"))?;
            generators.push(Generator {
                who: format!("g{id}"),
                namespace,
                api: client,
                watch: CheckedWatch::new(watch, revision),
                seeds,
                extras: VecDeque::new(),
                rng: SplitMix64::new(seed, 100 + id as u64),
                mix,
                seq: 0,
            });
        }
        Ok(Crud { api, server, generators })
    }
}

impl Workload for Crud {
    fn run(&mut self, duration: Duration, mode: Mode) -> Segment {
        let until = Instant::now() + duration;
        let (mut segment, stamps) = drive(&mut self.generators, |g| g.run(until, mode));
        if mode == Mode::Traced {
            segment.trace = Some(resolve(&stamps, flat_bounds));
        }
        segment
    }

    fn counters(&self) -> Counters {
        let m = &self.api.metrics;
        let mut c = Counters {
            tenant_writes: m.creates.get() + m.updates.get() + m.deletes.get(),
            ..Counters::default()
        };
        c.add_wire(&self.server);
        c
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        let mut violations = Vec::new();
        // Every namespace must still hold its seeded pods plus the
        // created-but-not-yet-deleted extras, and nothing else.
        for g in &self.generators {
            let expected = SEED_PODS + g.extras.len();
            match g.api.list(ResourceKind::Pod, Some(&g.namespace)) {
                Ok((items, _)) if items.len() == expected => {}
                Ok((items, _)) => violations.push(format!(
                    "{}: {} pods, expected {expected}",
                    g.namespace,
                    items.len()
                )),
                Err(err) => violations.push(format!("{}: final list: {err}", g.namespace)),
            }
        }
        let addr = self.server.local_addr();
        drop(self.generators);
        self.server.shutdown();
        violations.extend(still_accepts(addr));
        violations
    }
}
