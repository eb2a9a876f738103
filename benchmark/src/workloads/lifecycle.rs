//! `sync_steady` and `attach_dense`: each generator runs one pod
//! lifecycle at a time — create → Ready seen on its own watch → delete —
//! against its own tenant. The two workloads share this code through
//! `dyn ObjectApi`; they differ in transport (in-process `Client` vs
//! vcbin `WireClient`) and in what surrounds the path (`attach_dense`
//! adds idle tenants, a durable super store and the isolation policy).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_api::object::ResourceKind;
use vc_client::{Client, ObjectApi, WatchHandle};
use vc_core::mapping;
use vc_core::syncer::Syncer;
use vc_store::RecvOutcome;

use super::{drive, CheckedWatch, Mode, Segment, Sizes, Tally, Workload, OP_DEADLINE};
use crate::counters::Counters;
use crate::env::{wal_dir, wire_client, FrameworkEnv, FrameworkSpec};
use crate::pods::PodMix;
use crate::trace::PodStamps;
use crate::watchdog;

const NAMESPACE: &str = "default";

/// One closed-loop generator: a unary client, a watch it drains itself,
/// and an in-process super-cluster client for the per-op output check.
struct Generator {
    /// `g<id>`: prefix of its pod names and of its violations.
    who: String,
    tenant: String,
    super_ns: String,
    api: Box<dyn ObjectApi>,
    watch: CheckedWatch<Box<dyn WatchHandle>>,
    check: Client,
    syncer: Arc<Syncer>,
    mix: PodMix,
    seq: u64,
}

impl Generator {
    /// Waits for `name`'s Ready event; `None` on timeout or a dead watch.
    fn await_ready(&mut self, name: &str, sent: Instant, tally: &mut Tally) -> Option<Instant> {
        loop {
            let remaining = OP_DEADLINE.checked_sub(sent.elapsed())?;
            match self.watch.recv(remaining, &self.who, tally) {
                RecvOutcome::Event(event) => {
                    let at = Instant::now();
                    let Some(pod) = event.object.as_pod() else { continue };
                    if pod.meta.name == name && pod.status.is_ready() {
                        if !pod.spec.is_bound() {
                            tally.violation(&self.who, format_args!("{name} Ready without a node"));
                            return None;
                        }
                        return Some(at);
                    }
                }
                RecvOutcome::Timeout => return None,
                RecvOutcome::Closed => {
                    tally.violation(&self.who, "watch closed");
                    return None;
                }
            }
        }
    }

    /// The Ready tenant pod must map to exactly one super pod (keys are
    /// unique, so one `get`) that carries the tenant's owner annotation.
    fn super_copy_is_owned(&self, name: &str) -> bool {
        self.check
            .get(ResourceKind::Pod, &self.super_ns, name)
            .is_ok_and(|obj| mapping::owner_cluster(&obj) == Some(self.tenant.as_str()))
    }

    fn one_op(&mut self, mode: Mode, tally: &mut Tally) {
        let name = format!("{}-{:07}", self.who, self.seq);
        self.seq += 1;
        let pod = self.mix.next_pod(NAMESPACE, &name);
        tally.attempted += 1;
        let send = Instant::now();
        if let Err(err) = self.api.create(pod.into()) {
            tally.failed += 1;
            tally.violation(&self.who, format_args!("create {name}: {err}"));
            return;
        }
        let ack = Instant::now();
        // Depth sampling takes two queue locks per op; only traced windows pay.
        if mode == Mode::Traced {
            tally.depth_max.0 = tally.depth_max.0.max(self.syncer.downward_len());
            tally.depth_max.1 = tally.depth_max.1.max(self.syncer.upward_len());
        }
        let ready = self.await_ready(&name, send, tally);
        let owned = ready.is_some() && self.super_copy_is_owned(&name);
        if ready.is_some() && !owned {
            tally.violation(&self.who, format_args!("{name}: no owned super copy"));
        }
        let deleted = self.api.delete(ResourceKind::Pod, NAMESPACE, &name).is_ok();
        match ready {
            Some(ready) if owned && deleted => {
                tally.ops += 1;
                tally.lat_ms.push(ready.duration_since(send).as_secs_f64() * 1e3);
                tally.create_ack_us.push(ack.duration_since(send).as_secs_f64() * 1e6);
                if mode == Mode::Traced {
                    tally.stamps.push(PodStamps { name, send, ack, ready });
                }
            }
            _ => tally.failed += 1,
        }
        watchdog::progress();
    }

    fn run(&mut self, until: Instant, mode: Mode) -> Tally {
        let mut tally = Tally::default();
        while Instant::now() < until {
            self.one_op(mode, &mut tally);
        }
        tally
    }
}

/// The running system plus its generators.
pub struct Lifecycle {
    env: FrameworkEnv,
    generators: Vec<Generator>,
}

impl Lifecycle {
    /// `sync_steady`: one tenant, one in-process generator.
    pub fn steady(seed: u64) -> Result<Lifecycle, String> {
        let env = FrameworkEnv::start(&FrameworkSpec {
            active_tenants: 1,
            idle_tenants: 0,
            wire: false,
            wal_dir: None,
            isolation: false,
        })?;
        Lifecycle::attach(env, seed)
    }

    /// `attach_dense`: two wire-attached tenants among idle ones, durable
    /// super store, isolation policy on.
    pub fn dense(seed: u64, sizes: Sizes, scratch: &Path) -> Result<Lifecycle, String> {
        let env = FrameworkEnv::start(&FrameworkSpec {
            active_tenants: 2,
            idle_tenants: sizes.idle_tenants,
            wire: true,
            wal_dir: Some(wal_dir(scratch)),
            isolation: true,
        })?;
        Lifecycle::attach(env, seed)
    }

    fn attach(env: FrameworkEnv, seed: u64) -> Result<Lifecycle, String> {
        let mut generators = Vec::new();
        for (id, handle) in env.active.iter().enumerate() {
            let api: Box<dyn ObjectApi> = match env.servers.get(id) {
                Some(server) => Box::new(wire_client(&server.local_addr().to_string(), "bench")),
                None => Box::new(handle.system_client("bench")),
            };
            let (_, revision) = api
                .list(ResourceKind::Pod, Some(NAMESPACE))
                .map_err(|e| format!("generator {id}: list: {e}"))?;
            let watch = api
                .watch(ResourceKind::Pod, Some(NAMESPACE), revision)
                .map_err(|e| format!("generator {id}: watch: {e}"))?;
            generators.push(Generator {
                who: format!("g{id}"),
                tenant: handle.name.clone(),
                super_ns: mapping::tenant_ns_to_super(&handle.prefix, NAMESPACE),
                api,
                watch: CheckedWatch::new(watch, revision),
                check: env.super_client("bench-check"),
                syncer: Arc::clone(&env.fw.syncer),
                mix: PodMix::new(seed, id as u64),
                seq: 0,
            });
        }
        Ok(Lifecycle { env, generators })
    }
}

impl Workload for Lifecycle {
    fn run(&mut self, duration: Duration, mode: Mode) -> Segment {
        let mut violations = Vec::new();
        let observers = match mode {
            Mode::Plain => None,
            Mode::Traced => self.env.observers().map_err(|e| violations.push(e)).ok(),
        };
        let until = Instant::now() + duration;
        let (mut segment, stamps) = drive(&mut self.generators, |g| g.run(until, mode));
        segment.violations.extend(violations);
        segment.trace = observers.map(|o| o.resolve(&stamps));
        segment
    }

    fn counters(&self) -> Counters {
        self.env.counters()
    }

    fn rss_kib_per_idle_tenant(&self) -> f64 {
        self.env.rss_kib_per_idle_tenant
    }

    fn idle_tenant_share(&self) -> f64 {
        let tenants = self.env.fw.registry.list().len();
        tenants.saturating_sub(self.env.active.len()) as f64 / tenants.max(1) as f64
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        // Watches hold sockets; close them before the servers shut down.
        drop(self.generators);
        self.env.drain_and_shutdown()
    }
}
