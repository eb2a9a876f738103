//! Multiple super clusters (paper §V future work, implemented): tenants
//! are placed across independent super clusters to break through a single
//! cluster's capacity limit — without tenants ever knowing, unlike
//! Kubernetes federation.
//!
//! ```text
//! cargo run --release --example multi_super
//! ```

use std::time::Duration;
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::multi::{MultiSuperConfig, MultiSuperFramework, PlacementPolicy};
use virtualcluster::core::vc_object::VirtualClusterSpec;

fn main() {
    println!("== Multiple super clusters ==\n");
    // Each member is a complete Framework (super cluster, operator, syncer)
    // started from `config.framework`.
    let config = MultiSuperConfig {
        shards: 3,
        placement: PlacementPolicy::LeastTenants,
        ..Default::default()
    };
    let nodes = config.framework.mock_nodes as usize;
    let multi = MultiSuperFramework::start(config);
    println!(
        "started {} super clusters x {nodes} nodes = {} nodes of total capacity",
        multi.members().len(),
        multi.members().len() * nodes
    );

    // Provision six tenants; placement spreads them 2/2/2.
    for i in 1..=6 {
        multi.create_tenant(&format!("tenant-{i}"), VirtualClusterSpec::default()).unwrap();
    }
    println!("tenants per super cluster: {:?}", multi.tenants_per_shard());

    // Every tenant gets the identical experience, wherever it landed.
    for i in 1..=6 {
        let name = format!("tenant-{i}");
        let client = multi.tenant_client(&name, "user");
        client
            .create(Pod::new("default", "app").with_container(Container::new("c", "img")).into())
            .unwrap();
        assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            client
                .get(ResourceKind::Pod, "default", "app")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }));
        let pod = client.get(ResourceKind::Pod, "default", "app").unwrap();
        println!(
            "  {name} (shard {}): pod ready on vNode {}",
            multi.shard_of(&name).unwrap(),
            pod.as_pod().unwrap().spec.node_name
        );
    }

    // Each shard only carries its own tenants' pods.
    for (index, member) in multi.members().iter().enumerate() {
        let (pods, _) = member.super_client("observer").list(ResourceKind::Pod, None).unwrap();
        println!("super cluster {index} runs {} pods", pods.len());
    }
    println!("\ntenants never see shard boundaries — 'the users would not be aware of multiple super clusters' (paper §V).");
    multi.shutdown();
}
