//! SIGUSR1 → on-demand state dumps.
//!
//! A long-running wall-clock workload that is *slow but not stalled* can be
//! inspected without killing it: `kill -USR1 <pid>` makes the run's
//! watchdog request `debug_stuck_state` from every node (on the TCP fabric
//! the children answer over their control streams) and print the collected
//! dump to stderr, also recording it in the run report's `dumps` section.
//! Every wall-clock run installs the handler when it starts.
//!
//! No `libc` crate exists in the offline vendor set, so the two calls this
//! needs (`signal`, `raise`) are declared directly; the handler only stores
//! an atomic flag, which is async-signal-safe. On non-Linux targets the
//! module compiles to inert stubs.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler, consumed by the run's watchdog.
static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(target_os = "linux")]
mod imp {
    use super::DUMP_REQUESTED;
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    /// SIGUSR1 on every Linux architecture this repo targets.
    const SIGUSR1: i32 = 10;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn raise(sig: i32) -> i32;
    }

    extern "C" fn on_sigusr1(_sig: i32) {
        DUMP_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| unsafe {
            signal(SIGUSR1, on_sigusr1 as extern "C" fn(i32) as usize);
        });
    }

    pub fn raise_dump_signal() {
        unsafe {
            raise(SIGUSR1);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn install() {}
    pub fn raise_dump_signal() {}
}

/// Install the SIGUSR1 handler (idempotent; no-op off Linux).
pub fn install() {
    imp::install();
}

/// Raise SIGUSR1 at this process — the test hook that exercises the same
/// handler an operator's `kill -USR1` would.
pub fn raise_dump_signal() {
    imp::raise_dump_signal();
}

/// Consume a pending dump request, if any.
pub(crate) fn take_dump_request() -> bool {
    DUMP_REQUESTED.swap(false, Ordering::SeqCst)
}
