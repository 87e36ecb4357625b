//! Register-once metric storage: append-only slots behind a name index.
//!
//! Registration (rare: a `StageDef`'s first record or snapshot) takes a
//! mutex and scans a small name vector; every later access is a single
//! atomic load — `OnceLock` slots are filled *before* their id is
//! published, so a handed-out id always points at initialized storage.
//! Hot-path mutation never touches the lock. The one registry in the
//! process holds the stage histograms.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hard cap per registry. Registration panics beyond it — the metric
/// vocabulary is a small, developer-controlled set, and a run-away
/// registration loop is a bug worth failing loudly on.
pub const MAX_METRICS: usize = 256;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's ordinal, assigned in order of first use; it labels
    /// the thread's trace records.
    static THREAD_ORDINAL: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small stable id for the current thread (trace labeling).
pub fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|t| *t)
}

/// Append-only named storage for one metric kind.
pub struct Registry<T> {
    names: Mutex<Vec<String>>,
    slots: [OnceLock<T>; MAX_METRICS],
}

impl<T> Default for Registry<T> {
    fn default() -> Registry<T> {
        Registry::new()
    }
}

impl<T> Registry<T> {
    pub const fn new() -> Registry<T> {
        Registry {
            names: Mutex::new(Vec::new()),
            slots: [const { OnceLock::new() }; MAX_METRICS],
        }
    }

    /// Register `name`, initializing its slot with `init` on first sight;
    /// idempotent — re-registering a name returns the original id.
    pub fn register(&self, name: &str, init: impl FnOnce() -> T) -> u32 {
        let mut names = self.names.lock().expect("registry name index poisoned");
        if let Some(i) = names.iter().position(|n| n == name) {
            return i as u32;
        }
        let idx = names.len();
        assert!(idx < MAX_METRICS, "telemetry registry full ({name})");
        if self.slots[idx].set(init()).is_err() {
            unreachable!("slot {idx} initialized before its id was published");
        }
        names.push(name.to_string());
        idx as u32
    }

    /// The slot behind a previously registered id. Lock-free.
    #[inline]
    pub fn get(&self, id: u32) -> &T {
        self.slots[id as usize]
            .get()
            .expect("metric id from a different registry")
    }

    /// `(name, &slot)` pairs in registration order.
    pub fn entries(&self) -> Vec<(String, &T)> {
        let names = self.names.lock().expect("registry name index poisoned");
        names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), self.slots[i].get().expect("registered slot")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn registration_is_idempotent_and_ordered() {
        let r: Registry<AtomicU64> = Registry::new();
        let a = r.register("a", AtomicU64::default);
        let b = r.register("b", AtomicU64::default);
        assert_ne!(a, b);
        assert_eq!(r.register("a", AtomicU64::default), a);
        r.get(a).fetch_add(2, Ordering::Relaxed);
        r.get(a).fetch_add(3, Ordering::Relaxed);
        assert_eq!(r.get(a).load(Ordering::Relaxed), 5);
        assert_eq!(r.get(b).load(Ordering::Relaxed), 0);
        let names: Vec<String> = r.entries().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
