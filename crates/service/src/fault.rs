//! Fault injection hooks for the robustness harnesses.
//!
//! The serving layer promises that a poisoned compile fails one request,
//! never the process. That promise is only testable if a compile *can* be
//! poisoned on demand, so this module carries a single injection point:
//! an armed "panic token". While armed, any compile whose SQL contains
//! the token panics mid-pipeline — downstream machinery (each compile's
//! own `catch_unwind` in the service, the server's connection loop) must
//! then contain the blast radius.
//!
//! The hook is disarmed by default and costs one relaxed atomic load per
//! compile when disarmed. It is deliberately compiled into release builds:
//! the fault-injection suite (`faultgen`) drives a *release-mode* server
//! binary, which arms the hook from the `QUERYVIS_FAULT_COMPILE_PANIC`
//! environment variable at startup. Nothing arms it in production paths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable the server binary arms the hook from.
pub const COMPILE_PANIC_ENV: &str = "QUERYVIS_FAULT_COMPILE_PANIC";

static ARMED: AtomicBool = AtomicBool::new(false);
static TOKEN: Mutex<Option<String>> = Mutex::new(None);

/// Arm the compile-panic hook: any compile whose SQL contains `token`
/// panics. An empty token is ignored (never matches).
pub fn arm_compile_panic(token: &str) {
    if token.is_empty() {
        return;
    }
    *TOKEN.lock().unwrap_or_else(|e| e.into_inner()) = Some(token.to_string());
    ARMED.store(true, Ordering::Release);
}

/// Disarm the hook (tests restore the default between cases).
pub fn disarm_compile_panic() {
    ARMED.store(false, Ordering::Release);
    *TOKEN.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Arm the hook from [`COMPILE_PANIC_ENV`] when set (binary startup).
pub fn arm_from_env() {
    if let Ok(token) = std::env::var(COMPILE_PANIC_ENV) {
        arm_compile_panic(&token);
    }
}

/// The injection point: called at the top of every compile. One relaxed
/// load when disarmed.
#[inline]
pub(crate) fn maybe_panic_compile(sql: &str) {
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    let token = TOKEN.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(token) = token.as_deref() {
        if sql.contains(token) {
            panic!("injected compile panic (token {token:?})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hook_is_inert_and_armed_hook_fires() {
        disarm_compile_panic();
        maybe_panic_compile("SELECT T.a FROM T");
        arm_compile_panic("BOOM_TOKEN");
        maybe_panic_compile("SELECT T.a FROM T"); // no token, no panic
        let caught = std::panic::catch_unwind(|| maybe_panic_compile("SELECT /*BOOM_TOKEN*/ 1"));
        disarm_compile_panic();
        assert!(caught.is_err(), "armed token must panic the compile");
        maybe_panic_compile("SELECT /*BOOM_TOKEN*/ 1"); // disarmed again
    }
}
