//! Cumulative readings of the layers' public counters. Read before and
//! after the measured window, so taking them costs the run nothing.

use vc_wire::WireServer;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// One reading; [`Counters::since`] gives a window's delta.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            /// The counts accumulated since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($name: self.$name.saturating_sub(earlier.$name),)* }
            }
        }
    };
}

counters! {
    /// Creates + updates + deletes served by tenant apiservers.
    tenant_writes,
    /// Creates + updates + deletes served by the super apiserver.
    super_writes,
    /// Objects the syncer created, updated or deleted in the super cluster.
    downward_ops,
    /// Status updates and deletions the syncer applied to tenants.
    upward_ops,
    /// Write conflicts the syncer hit.
    conflicts,
    /// Downward items re-queued with backoff.
    retries,
    /// Items dead-lettered (retry budget exhausted or policy-blocked).
    dead_letters,
    /// Busy time summed over downward workers, µs.
    downward_busy_us,
    /// Busy time summed over upward workers, µs.
    upward_busy_us,
    /// Pods the scheduler bound.
    scheduled,
    /// Requests served by the wire servers.
    wire_requests,
    /// Of those, dispatched inline on the connection thread.
    wire_inline,
    /// Bytes read plus bytes written by the wire servers.
    wire_bytes,
    /// `EncodeCache` hits.
    encode_hits,
    /// `EncodeCache` misses.
    encode_misses,
    /// WAL records appended.
    wal_appends,
    /// WAL fsyncs.
    wal_fsyncs,
    /// WAL bytes appended.
    wal_bytes,
}

impl Counters {
    /// Adds one wire server's counters.
    pub fn add_wire(&mut self, server: &WireServer) {
        let m = server.metrics();
        self.wire_requests += m.requests.get();
        self.wire_inline += m.inline_dispatches.get();
        self.wire_bytes += m.bytes_in.get() + m.bytes_out.get();
        self.encode_hits += server.encode_cache().hits.get();
        self.encode_misses += server.encode_cache().misses.get();
    }
}
