//! §IV-E — The impact of the enhanced kubeproxy on latency.
//!
//! Thirty Kata pods on one worker node, one hundred pre-created cluster-IP
//! services: the enhanced kubeproxy injects one hundred routing rules into
//! each fresh guest OS before the workload starts. Paper: ~1 s extra
//! latency per pod for the injection (gRPC + iptables update), ~300 ms to
//! scan all thirty pods' rules in the periodic reconciliation.
//!
//! Run: `cargo run --release -p vc-bench -- kubeproxy_latency`

use crate::report::{heading, paper_vs_measured};
use std::sync::Arc;
use std::time::Duration;
use vc_api::pod::{Container, Pod, PodPhase};
use vc_api::service::{Service, ServicePort};
use vc_apiserver::{ApiServer, ApiServerConfig};
use vc_client::Client;
use vc_controllers::util::wait_until;
use vc_dataplane::enhanced::{self, EnhancedKubeProxyConfig};
use vc_runtime::cri::{ContainerRuntime, SandboxConfig};
use vc_runtime::{KataConfig, KataRuntime};

const SERVICES: usize = 100;
const PODS: usize = 30;

/// Runs the §IV-E measurement.
pub fn run() {
    println!("§IV-E — enhanced kubeproxy: {SERVICES} services, {PODS} kata pods on one node");

    let server = ApiServer::new(ApiServerConfig::default(), vc_api::time::RealClock::shared());
    let kata = KataRuntime::new(KataConfig::default(), Arc::clone(server.clock()));
    let admin = Client::system(Arc::clone(&server), "admin");

    // Pre-create the services with endpoints (paper: "created one hundred
    // artificial services beforehand").
    for i in 0..SERVICES {
        let mut svc =
            Service::new("default", format!("svc-{i}")).with_port(ServicePort::tcp(80, 8080));
        svc.spec.cluster_ip = format!("10.96.{}.{}", i / 250, i % 250 + 1);
        admin.create(svc.into()).unwrap();
        let mut eps = vc_api::service::Endpoints::new("default", format!("svc-{i}"));
        eps.ports = vec![ServicePort::tcp(80, 8080)];
        eps.addresses.push(vc_api::service::EndpointAddress {
            ip: format!("172.20.1.{}", i % 250 + 1),
            target_pod: format!("backend-{i}"),
            node_name: "node-1".into(),
        });
        admin.create(eps.into()).unwrap();
    }

    let mut config = EnhancedKubeProxyConfig::for_node("node-1");
    config.sync_interval = Duration::from_secs(3600); // scans measured manually below
    let (mut handle, metrics) = enhanced::start(
        Client::system(Arc::clone(&server), "enhanced-kubeproxy"),
        Arc::clone(&kata),
        config,
    );

    // Create the kata pods + sandboxes (what the kubelet does).
    heading("per-pod rule injection");
    for i in 0..PODS {
        let mut pod = Pod::new("default", format!("kp-{i}"))
            .with_container(Container::new("app", "img"))
            .with_kata_runtime();
        pod.spec.node_name = "node-1".into();
        pod.status.phase = PodPhase::Running;
        pod.status.pod_ip = format!("172.20.0.{}", i + 1);
        let created = admin.create(pod.into()).unwrap();
        kata.run_pod_sandbox(SandboxConfig::new(
            "default",
            format!("kp-{i}"),
            created.meta().uid.as_str().to_string(),
            format!("172.20.0.{}", i + 1),
        ))
        .unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(120), Duration::from_millis(100), || {
            metrics.pods_gated.get() as usize >= PODS
        }),
        "not all pods were gated: {}",
        metrics.pods_gated.get()
    );

    let inject_mean = metrics.inject_latency.mean();
    paper_vs_measured(
        &format!("inject {SERVICES} rules per new pod"),
        "~1s",
        &format!(
            "{:.2}s mean (p99 {:.2}s)",
            inject_mean / 1000.0,
            metrics.inject_latency.percentile(0.99) as f64 / 1000.0
        ),
    );
    // Verify every guest really has all rules.
    let sandboxes = kata.list_pod_sandboxes();
    let complete = sandboxes
        .iter()
        .filter(|s| kata.agent(&s.id).is_some_and(|a| a.rule_count() == SERVICES))
        .count();
    println!("  guests with all {SERVICES} rules installed: {complete}/{PODS}");
    assert_eq!(complete, PODS, "every guest must hold all {SERVICES} rules");

    heading("periodic reconciliation scan");
    // A dedicated short-interval proxy instance measures the scan path;
    // wait until it tracks all pods, then time fresh scan passes only.
    let mut scan_config = EnhancedKubeProxyConfig::for_node("node-1");
    scan_config.sync_interval = Duration::from_millis(500);
    let (mut scan_handle, scan_metrics) = enhanced::start(
        Client::system(Arc::clone(&server), "enhanced-kubeproxy-scan"),
        Arc::clone(&kata),
        scan_config,
    );
    assert!(wait_until(Duration::from_secs(180), Duration::from_millis(100), || {
        scan_metrics.pods_gated.get() as usize >= PODS
    }));
    scan_metrics.scan_duration.reset();
    let scans_before = scan_metrics.scans.get();
    assert!(wait_until(Duration::from_secs(120), Duration::from_millis(100), || {
        scan_metrics.scans.get() >= scans_before + 3 && scan_metrics.scan_duration.count() >= 3
    }));
    paper_vs_measured(
        &format!("scan all {PODS} pods' rules"),
        "~300ms",
        &format!(
            "{:.0}ms mean over {} scans",
            scan_metrics.scan_duration.mean(),
            scan_metrics.scan_duration.count()
        ),
    );
    println!("\npaper observation: 'the cost of supporting the cluster IP type of service in VirtualCluster is small.'");
    scan_handle.stop();
    handle.stop();
}
