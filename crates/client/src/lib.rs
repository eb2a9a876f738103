//! # vc-client — the client-go analog
//!
//! Everything a Kubernetes controller needs to talk to an apiserver, as
//! described by the paper's Fig 3:
//!
//! * [`client::Client`] — identity-carrying handle with client-side
//!   QPS/burst rate limiting,
//! * [`informer::SharedInformer`] — reflector + read-only cache + event
//!   handlers, run by
//! * [`reflector::Pool`] — the process-wide pool of one thread per core
//!   that multiplexes every informer and [`reflector::Timer`] and blocks
//!   while their watches and deadlines are quiet,
//! * [`workqueue::WorkQueue`] — deduplicating FIFO with client-go's
//!   dirty/processing protocol and delayed delivery
//!   ([`workqueue::WorkQueue::add_after`]), plus
//!   [`workqueue::RateLimitingQueue`]'s per-item exponential backoff,
//! * [`fairqueue::WeightedFairQueue`] — the paper's fair-queuing extension:
//!   per-tenant sub-queues dispatched by weighted round-robin (§III-C),
//! * [`faults::FaultInjector`] — deterministic request-level fault injection
//!   for chaos tests (brownouts, scripted outages).

#![warn(missing_docs)]

pub mod client;
mod coalesce;
pub mod fairqueue;
pub mod faults;
pub mod informer;
pub mod reflector;
pub mod surface;
pub mod workqueue;

pub use client::{Client, RateLimiter};
pub use fairqueue::WeightedFairQueue;
pub use faults::{FaultAction, FaultInjector, FaultPolicy, FaultRule};
pub use informer::{Cache, InformerConfig, InformerEvent, SharedInformer};
pub use surface::{Encoding, ObjectApi, WatchHandle};
pub use workqueue::{BackoffPolicy, RateLimitingQueue, WorkQueue};
