//! Compiled-plan caching: one [`CompiledNetwork`] per distinct registration,
//! shared across sessions, bounded by a least-recently-used cap.
//!
//! A [`CompiledNetwork`] holds only the network *shape* (specs and strings)
//! and its lazily lowered `Plan`, so it is `Send + Sync` and can sit behind
//! an `Arc`; each session instantiates its own single-threaded
//! [`spex_core::PlanRun`] over the shared plan. The cache key is
//! [`spex_combine::canonical_key`] — sorted, deduplicated
//! `name=canonical-expression` lines — so two sessions registering the same
//! queries in a different order, with different whitespace, redundant
//! parentheses or any other spelling of the same canonical forms (`b|a` vs
//! `a|b`, `x*.x` vs `x+`) share one compiled plan. The plan itself is built
//! by [`spex_combine::combine`], which sorts and deduplicates registrations
//! the same way, so a cached plan's `ids()` are identical for every
//! registration order that maps to its key.
//!
//! The cache is capped (`ServerConfig::max_cached_plans`): a client
//! registering ever-varying query sets evicts the least-recently-used plan
//! instead of growing server memory without bound — the same refuse-don't-
//! grow admission philosophy as the session queue and `ResourceLimits`.
//! Evicted plans stay alive for the sessions already holding their `Arc`.

use spex_core::CompiledNetwork;
use spex_query::Rpeq;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default cap on distinct cached plans (`ServerConfig::max_cached_plans`).
pub const DEFAULT_PLAN_CAP: usize = 64;

/// One cached plan with its last-use stamp (updated under the read lock on
/// every hit, so hot paths never take the write lock).
#[derive(Debug)]
struct Entry {
    plan: Arc<CompiledNetwork>,
    last_used: AtomicU64,
}

/// A thread-safe, LRU-bounded cache of compiled query sets.
#[derive(Debug)]
pub struct Registry {
    cap: usize,
    tick: AtomicU64,
    plans: RwLock<HashMap<String, Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_cap(DEFAULT_PLAN_CAP)
    }
}

impl Registry {
    /// An empty registry with the default cap.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry caching at most `cap` plans; `0` disables caching
    /// (every registration compiles fresh and nothing is retained).
    pub fn with_cap(cap: usize) -> Self {
        Registry {
            cap,
            tick: AtomicU64::new(0),
            plans: RwLock::new(HashMap::new()),
        }
    }

    /// Fetch the compiled plan for `queries`, compiling on first sight.
    /// Returns the plan and whether it was a cache hit. Compilation errors
    /// (constructs outside the compilable fragment) are returned verbatim
    /// and nothing is cached. At the cap, the least-recently-used plan is
    /// evicted to make room.
    pub fn get_or_compile(
        &self,
        queries: &[(String, Rpeq)],
    ) -> Result<(Arc<CompiledNetwork>, bool), spex_core::CompileError> {
        let key = spex_combine::canonical_key(queries);
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(entry) = self.plans.read().expect("registry lock poisoned").get(&key) {
            entry.last_used.store(now, Ordering::Relaxed);
            return Ok((Arc::clone(&entry.plan), true));
        }
        let compiled = Arc::new(spex_combine::combine(queries)?.set);
        if self.cap == 0 {
            return Ok((compiled, false));
        }
        let mut plans = self.plans.write().expect("registry lock poisoned");
        // Another session may have compiled the same key while we did; keep
        // the incumbent so every session shares one plan.
        if let Some(entry) = plans.get(&key) {
            entry.last_used.store(now, Ordering::Relaxed);
            return Ok((Arc::clone(&entry.plan), false));
        }
        if plans.len() >= self.cap {
            // O(n) scan is fine: evictions are rare and caps are small.
            let victim = plans
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                plans.remove(&victim);
            }
        }
        plans.insert(
            key,
            Entry {
                plan: Arc::clone(&compiled),
                last_used: AtomicU64::new(now),
            },
        );
        Ok((compiled, false))
    }

    /// Number of distinct compiled plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.read().expect("registry lock poisoned").len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache cap this registry was built with.
    pub fn cap(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str, expr: &str) -> (String, Rpeq) {
        (name.to_string(), expr.parse().unwrap())
    }

    #[test]
    fn equal_registrations_share_one_plan() {
        let reg = Registry::new();
        let (a, hit_a) = reg.get_or_compile(&[q("x", "a.b"), q("y", "a.c")]).unwrap();
        assert!(!hit_a);
        // Redundant parentheses normalize away: same plan.
        let (b, hit_b) = reg
            .get_or_compile(&[q("x", "(a).(b)"), q("y", "a.(c)")])
            .unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
        // A different name is a different registration.
        let (_, hit_c) = reg.get_or_compile(&[q("z", "a.b"), q("y", "a.c")]).unwrap();
        assert!(!hit_c);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registration_order_and_spelling_share_one_plan() {
        // Regression: the cache key used to be the registration-order
        // pretty-printed list, so reordered or re-spelled registrations
        // compiled and cached separate plans.
        let reg = Registry::new();
        let (a, hit_a) = reg
            .get_or_compile(&[q("x", "a.(b|c)"), q("y", "d*.d")])
            .unwrap();
        assert!(!hit_a);
        let (b, hit_b) = reg
            .get_or_compile(&[q("y", "d+"), q("x", "a.(c|b)")])
            .unwrap();
        assert!(hit_b, "reordered registration missed the cache");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
        // The shared plan's id order is canonical, not registration order.
        assert_eq!(a.ids(), ["x", "y"]);
    }

    #[test]
    fn cap_evicts_the_least_recently_used_plan() {
        let reg = Registry::with_cap(2);
        reg.get_or_compile(&[q("a", "a.b")]).unwrap();
        reg.get_or_compile(&[q("b", "b.c")]).unwrap();
        assert_eq!(reg.len(), 2);
        // Touch `a` so `b` becomes the LRU victim.
        let (_, hit) = reg.get_or_compile(&[q("a", "a.b")]).unwrap();
        assert!(hit);
        reg.get_or_compile(&[q("c", "c.d")]).unwrap();
        assert_eq!(reg.len(), 2, "cap exceeded");
        let (_, hit_a) = reg.get_or_compile(&[q("a", "a.b")]).unwrap();
        assert!(hit_a, "recently used plan was evicted");
        // `b` was evicted: re-registering it is a miss (and evicts again).
        let (_, hit_b) = reg.get_or_compile(&[q("b", "b.c")]).unwrap();
        assert!(!hit_b, "LRU plan survived past the cap");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn zero_cap_compiles_without_caching() {
        let reg = Registry::with_cap(0);
        let (_, hit_a) = reg.get_or_compile(&[q("a", "a.b")]).unwrap();
        let (_, hit_b) = reg.get_or_compile(&[q("a", "a.b")]).unwrap();
        assert!(!hit_a && !hit_b);
        assert!(reg.is_empty());
    }
}
