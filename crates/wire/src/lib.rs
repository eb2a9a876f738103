//! # vc-wire — the networked apiserver tier
//!
//! Everything below this crate shares memory: the in-process
//! `vc_client::Client` hands `Arc<Object>`s straight out of the store, so
//! a "request" costs a mutex and a pointer bump. This crate makes the
//! control plane pay real distribution costs — serialization, framing,
//! socket writes, slow consumers — by serving the full CRUD +
//! list-with-resourceVersion + streaming-watch surface over HTTP/1.1 on
//! `std::net::TcpListener` (the build is offline: no tokio, no hyper).
//!
//! The perf mechanisms the wire tier is built around:
//!
//! 1. **Compact binary codec** ([`codec`]): the `vcbin` encoding
//!    (varints + streaming string dictionary) is negotiated per
//!    connection via `accept`/`content-type`; JSON stays the default so
//!    legacy clients keep working unchanged.
//! 2. **Serialize once per revision per codec** ([`EncodeCache`]):
//!    object revisions are globally unique, so their encodings are
//!    memoized and fanned out as shared [`bytes::Bytes`] buffers,
//!    bounded by total cached bytes.
//! 3. **Pipelined, vectored I/O**: responses leave in one vectored
//!    syscall (head + frame prefix + cached body), watch bursts batch
//!    into single chunks, and [`WireClient`] pipelines idempotent reads
//!    on its persistent connection.
//! 4. **One fair gate** ([`WireServer`]): every unary request executes
//!    on its connection thread once it holds one of four permits of the
//!    apiserver's own admission gate; when none is free it queues under
//!    its user, and permits pass to the waiting users by round-robin, so
//!    one noisy user waits behind itself, not in front of everyone.
//! 5. **Degrade-to-resync**: a watcher that cannot keep up is dropped
//!    (write timeout) or told to re-list (`RESYNC` terminal chunk) —
//!    fan-out to healthy watchers never blocks on the slowest socket.
//!
//! [`WireClient`] implements `vc_client::ObjectApi`, making in-process
//! and over-the-wire attachment interchangeable behind `dyn ObjectApi`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use vc_api::object::ResourceKind;
//! use vc_api::pod::Pod;
//! use vc_apiserver::ApiServer;
//! use vc_client::{ObjectApi, WatchHandle};
//! use vc_wire::{WireClient, WireServer, WireServerConfig};
//!
//! let api = ApiServer::new_default("wire-demo");
//! let server = WireServer::start(api, WireServerConfig::default()).unwrap();
//! let client = WireClient::new(server.local_addr().to_string(), "demo-user");
//!
//! client.create(Pod::new("default", "p0").into()).unwrap();
//! let (items, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();
//! assert_eq!(items.len(), 1);
//!
//! let watch = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();
//! client.create(Pod::new("default", "p1").into()).unwrap();
//! assert_eq!(watch.recv_timeout_ms(2000).unwrap().object.meta().name, "p1");
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod encode;
pub mod http;
pub mod server;

pub use client::{WireClient, WireWatch};
pub use codec::{JSON_CONTENT_TYPE, VCBIN_CONTENT_TYPE, VCBIN_VERSION};
pub use encode::{EncodeCache, DEFAULT_ENCODE_CACHE_BYTES};
pub use server::{WireMetrics, WireServer, WireServerConfig};
