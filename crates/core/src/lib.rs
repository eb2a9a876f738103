//! # vc-core — VirtualCluster: the paper's contribution
//!
//! A multi-tenant framework for Kubernetes-style container services
//! (Zheng, Zhuang, Guo — ICDCS 2021), reproduced on the simulated
//! Kubernetes substrate of this workspace:
//!
//! * [`vc_object`] — the `VirtualCluster` (VC) custom resource,
//! * [`operator`] — the tenant operator provisioning dedicated tenant
//!   control planes and storing their kubeconfig secrets,
//! * [`syncer`] — the centralized resource syncer: downward/upward
//!   per-resource reconcilers, per-tenant weighted-fair queuing, vNode
//!   management with heartbeat broadcast, per-pod trace spans for the
//!   paper's five latency phases, and the periodic mismatch scanner,
//! * [`vn_agent`] — the per-node kubelet-API proxy with certificate-hash
//!   tenant identification,
//! * [`framework`] — full-deployment assembly (super cluster + operator +
//!   syncer), the entry point for examples, tests and benches,
//! * [`multi`] — several such deployments behind one tenant-placement map
//!   (paper §V: multiple super clusters).
//!
//! # Examples
//!
//! ```no_run
//! use vc_core::framework::{Framework, FrameworkConfig};
//! use vc_api::pod::{Container, Pod};
//! use vc_api::object::ResourceKind;
//!
//! let framework = Framework::start(FrameworkConfig::minimal());
//! framework.create_tenant("tenant-a")?;
//! let tenant = framework.tenant_client("tenant-a", "alice");
//! tenant.create(Pod::new("default", "web").with_container(Container::new("app", "nginx")).into())?;
//! // The syncer populates the pod into the super cluster, the scheduler
//! // binds it, the kubelet runs it, and the status flows back up.
//! # framework.shutdown();
//! # Ok::<(), vc_api::ApiError>(())
//! ```

#![warn(missing_docs)]

pub mod framework;
pub mod mapping;
pub mod multi;
pub mod operator;
pub mod registry;
pub mod syncer;
pub mod vc_object;
pub mod vn_agent;

pub use framework::{Framework, FrameworkConfig};
pub use multi::{MultiSuperConfig, MultiSuperFramework, PlacementPolicy};
pub use registry::{TenantHandle, TenantRegistry};
pub use syncer::{Syncer, SyncerConfig};
pub use vc_object::{VirtualCluster, VirtualClusterSpec};
pub use vn_agent::VnAgent;
