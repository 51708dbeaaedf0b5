//! Thread-count resolution.
//!
//! Priority, highest first: the thread-local override installed by
//! [`with_threads`] (used by tests and the bench harness so concurrent
//! callers don't race on a global), the process-wide value from
//! [`set_threads`] (the `--threads` CLI flag), the `CQA_THREADS`
//! environment variable, and the machine's available parallelism capped at
//! [`MAX_DEFAULT_THREADS`]. Worker threads spawned by the pool always
//! report 1 so nested parallel sites run inline.
//!
//! The two ambient tiers (`CQA_THREADS` and the machine's parallelism) are
//! resolved once per process, on first use: reading the CPU count reads
//! cgroup files on every call. [`with_threads`] and [`set_threads`] stay
//! dynamic and still take precedence.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cap on the *default* (auto-detected) thread count. An explicit
/// `--threads`/`CQA_THREADS`/[`with_threads`] request may exceed it.
pub const MAX_DEFAULT_THREADS: usize = 8;

/// 0 = unset (fall through to env / auto-detection).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// 0 = no override on this thread.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// True on worker threads spawned by this crate's pool.
    pub(crate) static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// 0 = no override, 1 = cache on, 2 = cache off (this thread only).
    static LOCAL_PLAN_CACHE: Cell<u8> = const { Cell::new(0) };
}

/// 0 = unset (fall through to env / default-on), 1 = on, 2 = off.
static GLOBAL_PLAN_CACHE: AtomicUsize = AtomicUsize::new(0);

/// Snapshot of the execution configuration, for display (the bench harness
/// prints one in its header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Effective worker count [`threads`] resolves to right now.
    pub threads: usize,
    /// Where the count came from.
    pub source: &'static str,
}

impl ExecConfig {
    /// Resolve the current configuration.
    pub fn current() -> Self {
        let (threads, source) = resolve();
        ExecConfig { threads, source }
    }
}

impl std::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.threads, self.source)
    }
}

fn resolve() -> (usize, &'static str) {
    let local = LOCAL_THREADS.with(Cell::get);
    if local != 0 {
        return (local, "override");
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global != 0 {
        return (global, "--threads");
    }
    ambient()
}

/// The ambient tier: `CQA_THREADS`, else the machine's available
/// parallelism capped at [`MAX_DEFAULT_THREADS`]. Resolved on the first
/// call and kept for the life of the process.
fn ambient() -> (usize, &'static str) {
    static AMBIENT: OnceLock<(usize, &'static str)> = OnceLock::new();
    *AMBIENT.get_or_init(|| {
        if let Ok(s) = std::env::var("CQA_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                if n != 0 {
                    return (n, "CQA_THREADS");
                }
            }
        }
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_DEFAULT_THREADS);
        (auto, "auto")
    })
}

/// Effective worker count for parallel combinators on the calling thread.
/// Always ≥ 1; always 1 on a pool worker thread (no nested spawning).
pub fn threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    resolve().0
}

/// Set the process-wide thread count (`0` clears it, falling back to
/// `CQA_THREADS` / auto-detection). Wired to `repairctl --threads N`.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Run `f` with the effective thread count pinned to `n` on this thread
/// (and on pools it spawns). Restores the previous override on exit, even
/// on panic; concurrent callers on other threads are unaffected, which is
/// what makes side-by-side sequential-vs-parallel comparisons race-free.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(|c| c.replace(n));
    let _restore = Restore(prev);
    f()
}

/// Is the `cqa-query` subplan cache enabled? Resolution mirrors
/// [`threads`], highest priority first: the thread-local override from
/// [`with_plan_cache`], the process-wide value from [`set_plan_cache`], the
/// `CQA_PLAN_CACHE` environment variable (`0`/`off`/`false` disable), and
/// the default **on**. This is the single sanctioned ambient read for the
/// cache — `cqa-query` itself never touches the environment (L005).
pub fn plan_cache_enabled() -> bool {
    let local = LOCAL_PLAN_CACHE.with(Cell::get);
    if local != 0 {
        return local == 1;
    }
    let global = GLOBAL_PLAN_CACHE.load(Ordering::Relaxed);
    if global != 0 {
        return global == 1;
    }
    if let Ok(s) = std::env::var("CQA_PLAN_CACHE") {
        let s = s.trim();
        if s == "0" || s.eq_ignore_ascii_case("off") || s.eq_ignore_ascii_case("false") {
            return false;
        }
    }
    true
}

/// Set the process-wide plan-cache switch (`None` clears it, falling back
/// to `CQA_PLAN_CACHE` / default-on). Wired to `repaird --no-plan-cache`
/// style flags.
pub fn set_plan_cache(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    GLOBAL_PLAN_CACHE.store(v, Ordering::Relaxed);
}

/// Run `f` with the plan cache pinned on/off on this thread. Restores the
/// previous override on exit, even on panic — the race-free way for tests
/// and the harness to compare sharing-on vs sharing-off side by side.
pub fn with_plan_cache<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_PLAN_CACHE.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_PLAN_CACHE.with(|c| c.replace(if on { 1 } else { 2 }));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_override_wins_and_restores() {
        with_plan_cache(false, || {
            assert!(!plan_cache_enabled());
            with_plan_cache(true, || assert!(plan_cache_enabled()));
            assert!(!plan_cache_enabled());
        });
        // Global switch applies when no local override is active.
        set_plan_cache(Some(false));
        assert!(!plan_cache_enabled());
        set_plan_cache(Some(true));
        assert!(plan_cache_enabled());
        set_plan_cache(None);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(5, || assert_eq!(threads(), 5));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = threads();
        let r = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(threads(), before);
    }

    #[test]
    fn overrides_win_over_the_cached_ambient_tier() {
        let ambient = ambient();
        // Repeated reads agree with each other and with the snapshot.
        assert_eq!(threads(), ambient.0);
        assert_eq!(threads(), ExecConfig::current().threads);
        assert_eq!(ExecConfig::current().source, ambient.1);
        // A thread-local override still wins once the tier is cached.
        let pinned = ambient.0 + 3;
        with_threads(pinned, || {
            assert_eq!(threads(), pinned);
            assert_eq!(
                ExecConfig::current(),
                ExecConfig {
                    threads: pinned,
                    source: "override",
                }
            );
        });
        assert_eq!(
            ExecConfig::current(),
            ExecConfig {
                threads: ambient.0,
                source: ambient.1,
            }
        );
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn config_displays() {
        let c = ExecConfig::current();
        assert!(c.threads >= 1);
        assert!(!format!("{c}").is_empty());
    }
}
