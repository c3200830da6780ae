//! Process-wide graceful-shutdown flag.
//!
//! Long-running binaries (`vmlp serve`, the soak/zoo benches) install the
//! SIGINT/SIGTERM handler once at startup; the handler's only action is an
//! atomic store into the private `REQUESTED` flag, which is
//! async-signal-safe. Consumers poll [`requested`] at natural checkpoints
//! — the kernel's sampling tick, a bench's sweep-point boundary — and wind
//! down cleanly: drain in-flight work, flush partial BENCH results, exit.
//! A second ctrl-c therefore still hard-kills the process the usual way if
//! the drain itself hangs (the handler is installed without
//! `SA_RESETHAND`, but the drain paths are bounded, so this has never been
//! needed).
//!
//! The flag is process-global and latching: once set it stays set, which
//! is the right semantics for "stop everything and report what you have".

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown has been requested (signal received or
/// [`request`] called programmatically).
pub fn requested() -> bool {
    REQUESTED.load(Ordering::Relaxed)
}

/// Programmatic shutdown request (tests, embedding).
pub fn request() {
    REQUESTED.store(true, Ordering::Relaxed);
}

/// Resets the flag. Only for tests — real shutdowns are latching.
pub fn reset_for_test() {
    REQUESTED.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // The only async-signal-safe thing worth doing: set the flag.
    REQUESTED.store(true, Ordering::Relaxed);
}

/// Installs the SIGINT/SIGTERM handler. Idempotent; call once from main.
///
/// Uses raw `signal(2)` through the libc that std already links, keeping
/// the workspace dependency-free. On non-unix targets this is a no-op and
/// shutdown remains available programmatically via [`request`].
pub fn install_signal_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_latches_and_resets() {
        reset_for_test();
        assert!(!requested());
        request();
        assert!(requested());
        assert!(requested(), "latching");
        reset_for_test();
        assert!(!requested());
    }
}
