//! # vc-api — Kubernetes object model for the VirtualCluster reproduction
//!
//! This crate is the foundation of the workspace: the typed object schema
//! (Pod, Node, Service, …), the dynamic [`object::Object`] layer the store
//! and informers operate on, label selectors, resource quantities, the
//! [`time::Clock`] abstraction, metrics primitives used by the experiment
//! harnesses, and a self-contained SHA-256 used by the vn-agent's tenant
//! identification.
//!
//! # Examples
//!
//! ```
//! use vc_api::labels::labels;
//! use vc_api::object::{Object, ResourceKind};
//! use vc_api::pod::{Container, Pod};
//!
//! let pod = Pod::new("default", "web-0")
//!     .with_container(Container::new("app", "nginx:1.19"))
//!     .with_labels(labels(&[("app", "web")]));
//! let obj: Object = pod.into();
//! assert_eq!(obj.kind(), ResourceKind::Pod);
//! assert_eq!(obj.key(), "default/web-0");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod crd;
pub mod error;
pub mod event;
pub mod labels;
pub mod meta;
pub mod metrics;
pub mod namespace;
pub mod node;
pub mod object;
pub mod pod;
pub mod policy;
pub mod quantity;
pub mod service;
pub mod sha256;
pub mod shared;
pub mod storage;
pub mod time;
pub mod workload;

pub use error::{ApiError, ApiResult};
pub use object::{Object, ResourceKind};
