//! Epoch-stall watchdog: a polling thread that flags a server as
//! unhealthy when it stops making progress while work is queued.
//!
//! The watched component publishes a monotone progress counter (epoch
//! heartbeats) plus a busy flag through a [`Probe`] closure. The
//! [`Watchdog`] polls it; if the probe stays busy with no progress for
//! longer than [`WatchdogConfig::deadline`], the shared [`HealthState`]
//! flips unhealthy/not-ready, a [`StallInfo`] postmortem is frozen, an
//! `on_stall` callback fires exactly once per episode (the serve layer
//! uses it to freeze a flight dump), and one log line is emitted. When
//! progress resumes the state re-arms and `/ready` recovers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Watchdog tuning: how long "busy with no progress" must last before a
/// stall is declared, and how often to check.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Busy-with-no-progress duration that constitutes a stall.
    pub deadline: Duration,
    /// Poll cadence (defaults to `deadline / 4`, at least 1 ms).
    pub poll_interval: Duration,
}

impl WatchdogConfig {
    /// Config with the given deadline and a `deadline / 4` poll cadence.
    pub fn new(deadline: Duration) -> Self {
        WatchdogConfig {
            deadline,
            poll_interval: (deadline / 4).max(Duration::from_millis(1)),
        }
    }
}

/// One observation of the watched component.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Monotone progress counter (e.g. the serve worker's epoch
    /// heartbeat). Any increase means the component is alive.
    pub progress: u64,
    /// Whether the component *should* be progressing (queued work, or a
    /// thread mid-phase). An idle server never stalls.
    pub busy: bool,
    /// Name of the phase the component is currently in (`"idle"`,
    /// `"wal"`, …) — recorded in the stall report.
    pub phase: &'static str,
    /// Requests currently queued.
    pub queued: u64,
}

/// Frozen description of a detected stall.
#[derive(Clone, Debug)]
pub struct StallInfo {
    /// Phase the component was stuck in when the stall was declared.
    pub phase: &'static str,
    /// Queue depth at declaration time.
    pub queued: u64,
    /// Progress counter value that stopped advancing.
    pub at_progress: u64,
    /// How long the component had been busy without progress.
    pub stalled_for: Duration,
}

/// Shared liveness state backing `/health` and `/ready`: flipped by the
/// watchdog on stall, re-armed on recovery, also consulted by the
/// failure path. All reads are relaxed atomics — cheap enough for the
/// serve hot path to ignore.
#[derive(Debug)]
pub struct HealthState {
    healthy: AtomicBool,
    ready: AtomicBool,
    stalls: AtomicU64,
    last_stall: Mutex<Option<StallInfo>>,
}

impl Default for HealthState {
    fn default() -> Self {
        HealthState {
            healthy: AtomicBool::new(true),
            ready: AtomicBool::new(true),
            stalls: AtomicU64::new(0),
            last_stall: Mutex::new(None),
        }
    }
}

impl HealthState {
    /// Currently healthy (no active stall or permanent failure).
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Currently ready to serve (healthy and not shut down).
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed)
    }

    /// Stalls declared since startup (recovered ones included).
    pub fn stall_count(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// The most recent stall report, if any stall was ever declared.
    pub fn last_stall(&self) -> Option<StallInfo> {
        self.last_stall
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Mark permanently failed (e.g. the worker died): unhealthy and
    /// not ready, with no re-arm.
    pub fn mark_failed(&self) {
        self.healthy.store(false, Ordering::Relaxed);
        self.ready.store(false, Ordering::Relaxed);
    }

    /// Declare a stall: flip unhealthy/not-ready and freeze the report.
    pub fn flag_stall(&self, info: StallInfo) {
        *self.last_stall.lock().unwrap_or_else(|e| e.into_inner()) = Some(info);
        self.stalls.fetch_add(1, Ordering::Relaxed);
        self.healthy.store(false, Ordering::Relaxed);
        self.ready.store(false, Ordering::Relaxed);
    }

    /// Progress resumed: restore healthy/ready (the stall count and
    /// last report are kept for postmortems).
    pub fn clear_stall(&self) {
        self.healthy.store(true, Ordering::Relaxed);
        self.ready.store(true, Ordering::Relaxed);
    }
}

/// The watchdog thread handle. Stops (and joins) on [`Watchdog::stop`]
/// or drop.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
    health: Arc<HealthState>,
}

impl Watchdog {
    /// Spawn the watchdog thread. `probe` is called every poll interval;
    /// `on_stall` fires once per stall episode, before `health` flips.
    pub fn spawn(
        cfg: WatchdogConfig,
        health: Arc<HealthState>,
        probe: impl Fn() -> Probe + Send + 'static,
        on_stall: impl Fn(&StallInfo) + Send + 'static,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let health2 = Arc::clone(&health);
        let thread = thread::Builder::new()
            .name("rc-obs-watchdog".into())
            .spawn(move || {
                let mut last_progress = probe().progress;
                let mut busy_since: Option<Instant> = None;
                let mut stalled = false;
                while !stop2.load(Ordering::Relaxed) {
                    thread::park_timeout(cfg.poll_interval);
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let p = probe();
                    if p.progress != last_progress || !p.busy {
                        last_progress = p.progress;
                        busy_since = None;
                        if stalled {
                            stalled = false;
                            health2.clear_stall();
                            eprintln!(
                                "[rc-obs] watchdog: progress resumed (progress={}), \
                                 marking healthy again",
                                p.progress
                            );
                        }
                        continue;
                    }
                    // Busy with no progress: start or continue the clock.
                    let since = *busy_since.get_or_insert_with(Instant::now);
                    if !stalled && since.elapsed() >= cfg.deadline {
                        stalled = true;
                        let info = StallInfo {
                            phase: p.phase,
                            queued: p.queued,
                            at_progress: p.progress,
                            stalled_for: since.elapsed(),
                        };
                        eprintln!(
                            "[rc-obs] watchdog: STALL — no progress for {:?} with work \
                             queued (phase={}, queued={}, progress={}); flipping /health \
                             and /ready unhealthy",
                            info.stalled_for, info.phase, info.queued, info.at_progress
                        );
                        on_stall(&info);
                        health2.flag_stall(info);
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            thread: Some(thread),
            health,
        }
    }

    /// The health state this watchdog drives.
    pub fn health(&self) -> &Arc<HealthState> {
        &self.health
    }

    /// Signal the thread and join it (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn flags_stall_on_busy_no_progress_and_recovers() {
        let progress = Arc::new(AtomicU64::new(0));
        let busy = Arc::new(AtomicBool::new(true));
        let health = Arc::new(HealthState::default());
        let fired = Arc::new(AtomicU64::new(0));
        let (p2, b2, f2) = (Arc::clone(&progress), Arc::clone(&busy), Arc::clone(&fired));
        let mut dog = Watchdog::spawn(
            WatchdogConfig::new(Duration::from_millis(30)),
            Arc::clone(&health),
            move || Probe {
                progress: p2.load(Ordering::Relaxed),
                busy: b2.load(Ordering::Relaxed),
                phase: "wal",
                queued: 3,
            },
            move |_| {
                f2.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(health.ready(), "healthy at start");

        // Busy, progress frozen: must flip within a few deadlines.
        let t0 = Instant::now();
        while health.ready() && t0.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(!health.ready(), "watchdog flipped /ready on the stall");
        assert!(!health.healthy());
        assert_eq!(health.stall_count(), 1);
        let info = health.last_stall().expect("stall report frozen");
        assert_eq!(info.phase, "wal");
        assert_eq!(info.queued, 3);
        assert!(info.stalled_for >= Duration::from_millis(30));

        // The callback fired exactly once while stalled.
        thread::sleep(Duration::from_millis(60));
        assert_eq!(fired.load(Ordering::Relaxed), 1, "one-shot per episode");

        // Progress resumes: health re-arms, report kept.
        progress.fetch_add(1, Ordering::Relaxed);
        let t1 = Instant::now();
        while !health.ready() && t1.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(health.ready(), "recovered after progress resumed");
        assert!(health.healthy());
        assert_eq!(health.stall_count(), 1);
        assert!(health.last_stall().is_some(), "postmortem report retained");
        dog.stop();
    }

    #[test]
    fn idle_component_never_stalls() {
        let health = Arc::new(HealthState::default());
        let _dog = Watchdog::spawn(
            WatchdogConfig::new(Duration::from_millis(10)),
            Arc::clone(&health),
            || Probe {
                progress: 0,
                busy: false,
                phase: "idle",
                queued: 0,
            },
            |_| panic!("idle must not stall"),
        );
        thread::sleep(Duration::from_millis(80));
        assert!(health.ready(), "idle server stays ready");
        assert_eq!(health.stall_count(), 0);
    }

    #[test]
    fn mark_failed_is_terminal() {
        let health = HealthState::default();
        health.mark_failed();
        assert!(!health.healthy());
        assert!(!health.ready());
        assert!(health.last_stall().is_none());
    }
}
