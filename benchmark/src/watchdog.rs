//! Hang protection: a run that completes no op (and no set-up or
//! tear-down step) for `STALL_LIMIT` prints where it stood and exits
//! non-zero instead of blocking the caller forever.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest time without progress before the process gives up.
pub const STALL_LIMIT: Duration = Duration::from_secs(60);

static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
static PROGRESS: AtomicU64 = AtomicU64::new(0);
static PHASE: Mutex<&'static str> = Mutex::new("start");

/// Records one completed unit of work (an op, a round, a set-up step).
pub fn progress() {
    PROGRESS.fetch_add(1, Ordering::Relaxed);
}

/// Names the phase the run enters — printed to stderr with the time since
/// the first phase, and again if the run stalls — and counts the
/// transition as progress. Stdout carries the result line and is left
/// alone.
pub fn phase(name: &'static str) {
    if let Ok(mut current) = PHASE.lock() {
        *current = name;
    }
    eprintln!("[{:>8.3}s] {name}", START.get_or_init(Instant::now).elapsed().as_secs_f64());
    progress();
}

/// The watchdog thread; stops and joins on [`Watchdog::stop`] or drop.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts watching the global progress counter.
    pub fn start() -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || {
                let mut last = PROGRESS.load(Ordering::Relaxed);
                let mut since = Instant::now();
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    let now = PROGRESS.load(Ordering::Relaxed);
                    if now != last {
                        last = now;
                        since = Instant::now();
                    } else if since.elapsed() >= STALL_LIMIT {
                        let phase = PHASE.lock().map(|p| *p).unwrap_or("unknown");
                        eprintln!(
                            "vcbench: no progress for {}s in phase `{phase}` after {now} steps; giving up",
                            STALL_LIMIT.as_secs()
                        );
                        // A wedged run cannot be unwound from here; the
                        // process exit closes its sockets and the WAL dir
                        // is removed by the next run's set-up.
                        std::process::exit(3);
                    }
                }
            })
            .ok();
        Watchdog { stop, thread }
    }

    /// Stops and joins the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}
