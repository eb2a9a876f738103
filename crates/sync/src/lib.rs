//! Synchronization facade for the concurrency-critical modules of
//! `vc-store` and `vc-client`.
//!
//! In normal builds the types here are thin wrappers over `parking_lot`
//! (and `std` atomics). Under `RUSTFLAGS="--cfg loom"` the same API is
//! backed by the `loom` model checker, so the *production* store shards
//! and work queues can be compiled unchanged into exhaustive
//! interleaving tests (the `loom_*` test targets in `vc-store` and
//! `vc-client`).
//!
//! The API is deliberately the parking_lot-flavored subset those modules
//! use: `lock()` without poisoning and condvars taking `&mut MutexGuard`.
//! The condvar has no timed wait: the store's and queues' waiters block
//! until notified.

#![warn(missing_docs)]

pub use std::sync::Arc;

#[cfg(not(loom))]
mod imp {
    /// Mutual-exclusion lock (parking_lot backend; never poisons).
    pub struct Mutex<T>(parking_lot::Mutex<T>);

    /// RAII guard returned by [`Mutex::lock`].
    pub struct MutexGuard<'a, T>(parking_lot::MutexGuard<'a, T>);

    impl<T> Mutex<T> {
        /// Creates a mutex protecting `value`.
        pub const fn new(value: T) -> Self {
            Mutex(parking_lot::Mutex::new(value))
        }

        /// Acquires the lock, blocking until it is available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(self.0.lock())
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    /// Condition variable usable with this module's [`Mutex`].
    pub struct Condvar(parking_lot::Condvar);

    impl Condvar {
        /// Creates a condition variable.
        pub const fn new() -> Self {
            Condvar(parking_lot::Condvar::new())
        }

        /// Blocks until notified, atomically releasing and re-acquiring
        /// the guard's lock.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            self.0.wait(&mut guard.0);
        }

        /// Wakes one blocked waiter.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wakes all blocked waiters.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// Atomic integer and boolean types (std backend).
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
    }
}

#[cfg(loom)]
mod imp {
    /// Mutual-exclusion lock (loom model-checking backend).
    pub struct Mutex<T>(loom::sync::Mutex<T>);

    /// RAII guard returned by [`Mutex::lock`].
    ///
    /// Wraps an `Option` so [`Condvar`] can hand the inner guard to loom
    /// (whose waits consume it) and restore it afterwards; the option is
    /// always `Some` outside condvar internals.
    pub struct MutexGuard<'a, T>(Option<loom::sync::MutexGuard<'a, T>>);

    impl<T> Mutex<T> {
        /// Creates a mutex protecting `value`.
        pub fn new(value: T) -> Self {
            Mutex(loom::sync::Mutex::new(value))
        }

        /// Acquires the lock, exploring contention interleavings.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(Some(self.0.lock().expect("loom mutex never poisons")))
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.0.as_ref().expect("guard present outside condvar wait")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.0.as_mut().expect("guard present outside condvar wait")
        }
    }

    /// Condition variable usable with this module's [`Mutex`].
    pub struct Condvar(loom::sync::Condvar);

    impl Condvar {
        /// Creates a condition variable.
        pub fn new() -> Self {
            Condvar(loom::sync::Condvar::new())
        }

        /// Blocks until notified (a lost wakeup deadlocks the model).
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.0.take().expect("guard present");
            guard.0 = Some(self.0.wait(inner).expect("loom condvar never poisons"));
        }

        /// Wakes one blocked waiter.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wakes all blocked waiters.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// Atomic integer and boolean types (loom-instrumented backend).
    pub mod atomic {
        pub use loom::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
    }
}

pub use imp::{atomic, Condvar, Mutex, MutexGuard};

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mutex { .. }")
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        *pair.0.lock() += 1;
        assert_eq!(*pair.0.lock(), 1);

        let waker = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            *waker.0.lock() += 1;
            waker.1.notify_all();
        });
        let mut g = pair.0.lock();
        while *g < 2 {
            pair.1.wait(&mut g);
        }
        assert_eq!(*g, 2);
        drop(g);
        handle.join().unwrap();
    }

    #[test]
    fn atomics_reexported() {
        use atomic::{AtomicU64, Ordering};
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 1);
        assert_eq!(a.load(Ordering::SeqCst), 2);
    }
}
