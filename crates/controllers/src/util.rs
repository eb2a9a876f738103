//! Shared controller plumbing: stop flags, thread handles, retry helper.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vc_api::error::{ApiError, ApiResult};
use vc_client::SharedInformer;

/// Cooperative stop signal shared by a controller's threads.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// Creates an unset flag.
    pub fn new() -> Self {
        StopFlag::default()
    }

    /// Sets the flag.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Returns `true` once triggered.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Owns a controller's threads and informers; stopping joins everything.
pub struct ControllerHandle {
    name: String,
    stop: StopFlag,
    threads: Vec<std::thread::JoinHandle<()>>,
    informers: Vec<Arc<SharedInformer>>,
    /// Queues to shut down on stop (releases blocked workers).
    on_stop: Vec<Box<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for ControllerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerHandle")
            .field("name", &self.name)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl ControllerHandle {
    /// Creates an empty handle.
    pub fn new(name: impl Into<String>) -> Self {
        ControllerHandle {
            name: name.into(),
            stop: StopFlag::new(),
            threads: Vec::new(),
            informers: Vec::new(),
            on_stop: Vec::new(),
        }
    }

    /// The shared stop flag.
    pub fn stop_flag(&self) -> StopFlag {
        self.stop.clone()
    }

    /// Controller name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a thread to join on stop.
    pub fn add_thread(&mut self, handle: std::thread::JoinHandle<()>) {
        self.threads.push(handle);
    }

    /// Registers an informer to stop.
    pub fn add_informer(&mut self, informer: Arc<SharedInformer>) {
        self.informers.push(informer);
    }

    /// Registers a callback run at stop time (e.g. queue shutdown).
    pub fn on_stop(&mut self, f: impl Fn() + Send + Sync + 'static) {
        self.on_stop.push(Box::new(f));
    }

    /// Waits until all registered informers report sync (with `timeout`).
    pub fn wait_for_informers(&self, timeout: std::time::Duration) -> bool {
        self.informers.iter().all(|i| i.wait_for_sync(timeout))
    }

    /// Stops everything: flag, queue callbacks, informers, threads.
    pub fn stop(&mut self) {
        self.stop.trigger();
        for f in &self.on_stop {
            f();
        }
        for informer in &self.informers {
            informer.stop();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Retries `f` on [`ApiError::Conflict`] up to `attempts` times; other
/// errors and exhaustion propagate.
///
/// # Errors
///
/// The final error after exhausting retries, or the first non-conflict
/// error.
pub fn retry_on_conflict<T>(attempts: usize, mut f: impl FnMut() -> ApiResult<T>) -> ApiResult<T> {
    let mut last = None;
    for _ in 0..attempts.max(1) {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_conflict() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| ApiError::internal("retry_on_conflict: no attempts")))
}

/// Polls `check` every `interval` until it returns `true` or `timeout`
/// elapses; returns the final check result. Test/example helper.
pub fn wait_until(
    timeout: std::time::Duration,
    interval: std::time::Duration,
    mut check: impl FnMut() -> bool,
) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if check() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return check();
        }
        std::thread::sleep(interval);
    }
}

/// Asserts that `counter` settles on exactly `expected`. Controllers bump
/// their counters *after* the write returns whose effect a test watches
/// through the apiserver, so a counter read right after polling the object
/// races the bump; this waits for it and only then compares. Test helper.
#[track_caller]
pub fn assert_count_reaches(counter: &vc_api::metrics::Counter, expected: u64) {
    use std::time::Duration;
    wait_until(Duration::from_secs(5), Duration::from_millis(1), || counter.get() >= expected);
    assert_eq!(counter.get(), expected);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_flag_shared() {
        let flag = StopFlag::new();
        let clone = flag.clone();
        assert!(!clone.is_set());
        flag.trigger();
        assert!(clone.is_set());
    }

    #[test]
    fn handle_joins_threads_and_runs_callbacks() {
        let mut handle = ControllerHandle::new("test");
        let stop = handle.stop_flag();
        handle.add_thread(std::thread::spawn(move || {
            while !stop.is_set() {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }));
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        handle.on_stop(move || fired2.store(true, Ordering::SeqCst));
        handle.stop();
        assert!(fired.load(Ordering::SeqCst));
        // Idempotent.
        handle.stop();
    }

    #[test]
    fn retry_on_conflict_retries_then_succeeds() {
        let mut calls = 0;
        let result = retry_on_conflict(5, || {
            calls += 1;
            if calls < 3 {
                Err(ApiError::conflict("Pod", "ns/p", "stale"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
    }

    #[test]
    fn retry_on_conflict_propagates_other_errors() {
        let result: ApiResult<()> =
            retry_on_conflict(5, || Err(ApiError::not_found("Pod", "ns/p")));
        assert!(result.unwrap_err().is_not_found());
    }

    #[test]
    fn retry_on_conflict_exhausts() {
        let result: ApiResult<()> =
            retry_on_conflict(2, || Err(ApiError::conflict("Pod", "ns/p", "stale")));
        assert!(result.unwrap_err().is_conflict());
    }

    #[test]
    fn wait_until_polls() {
        let mut n = 0;
        assert!(wait_until(
            std::time::Duration::from_secs(1),
            std::time::Duration::from_millis(1),
            || {
                n += 1;
                n >= 3
            }
        ));
        assert!(!wait_until(
            std::time::Duration::from_millis(20),
            std::time::Duration::from_millis(5),
            || false
        ));
    }
}
