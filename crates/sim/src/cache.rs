//! Content-addressed elaboration cache.
//!
//! Parsing + elaboration is pure — the resulting [`Design`] depends only
//! on the source text and the top-module name — so identical sources can
//! share one elaboration. Large verification campaigns hit the same
//! texts constantly: every job re-checks its candidate under both
//! metrics (HR and FR), all methods of one benchmark instance share the
//! mutated source, and successful repairs converge on the golden text
//! itself. The campaign engine pre-warms the cache with each design's
//! golden source so per-design elaboration happens exactly once per
//! worker set.
//!
//! An [`ElabCache`] is a value with its own map and counters. The free
//! functions ([`elaborate_source_cached`], [`elaborate_source_opt`],
//! [`stats`], [`reset`]) use one process-wide instance; that is the
//! cache the campaign, the metrics and the UVM environment share.
//!
//! Concurrency: the map lock is held only for bookkeeping; elaboration
//! itself runs outside it. A thread that begins elaborating a key
//! leaves an in-flight marker, and other threads wanting the same key
//! block on its condvar instead of elaborating again — "exactly once"
//! without serialising unrelated work across the worker pool.
//!
//! Entries are `Arc`-shared and the map is capacity-capped (wholesale
//! eviction of ready entries at [`ELAB_CACHE_CAPACITY`]) so unbounded
//! candidate streams cannot exhaust memory. Results (including parse/
//! elaboration failures) are cached; since elaboration is deterministic
//! the cache is invisible to callers except in speed.
//!
//! **Pass configuration.** The cache keys on the active [`OptProfile`]
//! label in addition to `(source, top)`: an optimized and an
//! unoptimized variant of the same text are distinct entries, so a
//! mixed-profile process can never hand one caller the other's design.
//! The profile's transform runs once per miss, right after elaboration,
//! and its label is the cache discriminator — profiles with the same
//! label **must** denote the same transform.

use crate::elab::{elaborate, Design};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Ready-entry cap; reaching it clears the ready entries (simple, and
/// far above the working set of a campaign round).
pub const ELAB_CACHE_CAPACITY: usize = 4096;

/// `(source, top, opt label)` — the content address of one design
/// variant. The empty label is the identity (no passes).
type Key = (String, String, String);
type CachedResult = Result<Arc<Design>, String>;

/// A design rewrite applied between elaboration and simulation.
pub type DesignTransform = Arc<dyn Fn(&mut Design) + Send + Sync>;

/// A named post-elaboration pass configuration.
///
/// The label keys every cache layer; the transform is what a cache miss
/// runs on the freshly elaborated design. [`OptProfile::none`] (the
/// default) is the identity with the empty label — exactly the
/// pre-pass-framework behaviour.
#[derive(Clone, Default)]
pub struct OptProfile {
    label: String,
    transform: Option<DesignTransform>,
}

impl OptProfile {
    /// The identity profile: no passes, empty cache label.
    pub fn none() -> OptProfile {
        OptProfile::default()
    }

    /// A named transform. The label becomes part of the cache key, so
    /// it must uniquely identify the transform's behaviour.
    ///
    /// # Panics
    ///
    /// Panics on an empty label — that is reserved for the identity.
    pub fn new(label: impl Into<String>, transform: DesignTransform) -> OptProfile {
        let label = label.into();
        assert!(!label.is_empty(), "optimization profile label must be non-empty");
        OptProfile { label, transform: Some(transform) }
    }

    /// The cache-key label (empty for the identity profile).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True for the identity profile.
    pub fn is_identity(&self) -> bool {
        self.transform.is_none()
    }

    /// Applies the transform (no-op for the identity profile).
    pub fn apply(&self, design: &mut Design) {
        if let Some(transform) = &self.transform {
            transform(design);
        }
    }
}

impl fmt::Debug for OptProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptProfile")
            .field("label", &self.label)
            .field("transform", &self.transform.as_ref().map(|_| "..."))
            .finish()
    }
}

fn default_opt() -> &'static Mutex<OptProfile> {
    static DEFAULT: OnceLock<Mutex<OptProfile>> = OnceLock::new();
    DEFAULT.get_or_init(|| Mutex::new(OptProfile::none()))
}

/// Sets the process-default pass configuration used by the label-less
/// entry point ([`elaborate_source_cached`]) — the lever the campaign CLI's `--opt-level` pulls
/// without threading a profile through every layer. Variants never
/// collide regardless: the label is part of every cache key.
pub fn set_default_opt_profile(profile: OptProfile) {
    *default_opt().lock().expect("default opt profile poisoned") = profile;
}

/// The current process-default pass configuration.
pub fn default_opt_profile() -> OptProfile {
    default_opt().lock().expect("default opt profile poisoned").clone()
}

/// A slot another thread is currently elaborating; waiters park on the
/// condvar until the result lands.
struct InFlight {
    slot: Mutex<Option<CachedResult>>,
    ready: Condvar,
}

enum Entry {
    Ready(CachedResult),
    Pending(Arc<InFlight>),
}

struct Inner {
    map: HashMap<Key, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Counters describing cache effectiveness (see [`ElabCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElabCacheStats {
    /// Lookups served from the cache (including waits on an elaboration
    /// already in flight on another thread).
    pub hits: u64,
    /// Lookups that elaborated fresh (equals the number of distinct
    /// (source, top) pairs seen, absent evictions).
    pub misses: u64,
    /// Wholesale evictions triggered by the capacity cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A content-addressed, capacity-capped elaboration memo with its own
/// counters (see the module docs).
pub struct ElabCache {
    inner: Mutex<Inner>,
}

impl Default for ElabCache {
    fn default() -> ElabCache {
        ElabCache::new()
    }
}

impl fmt::Debug for ElabCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElabCache").field("stats", &self.stats()).finish()
    }
}

impl ElabCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> ElabCache {
        ElabCache {
            inner: Mutex::new(Inner { map: HashMap::new(), hits: 0, misses: 0, evictions: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("elab cache poisoned")
    }

    /// Parses and elaborates `src` with `top` as root under `opt`,
    /// memoised in this cache: the profile's transform runs once on
    /// each miss and its label keys the entry, so variants of one text
    /// never alias.
    ///
    /// # Errors
    ///
    /// Returns the parse or elaboration error message (also memoised).
    pub fn elaborate(&self, src: &str, top: &str, opt: &OptProfile) -> CachedResult {
        let key = (src.to_string(), top.to_string(), opt.label().to_string());
        let flight: Arc<InFlight>;
        {
            let mut cache = self.lock();
            match cache.map.get(&key) {
                Some(Entry::Ready(result)) => {
                    let result = result.clone();
                    cache.hits += 1;
                    crate::metrics::cache().elab_hits.inc();
                    return result;
                }
                Some(Entry::Pending(in_flight)) => {
                    // Another thread is elaborating this exact key: wait
                    // for its result instead of duplicating the work.
                    let in_flight = Arc::clone(in_flight);
                    cache.hits += 1;
                    crate::metrics::cache().elab_hits.inc();
                    drop(cache);
                    let mut slot = in_flight.slot.lock().expect("in-flight slot poisoned");
                    while slot.is_none() {
                        slot = in_flight.ready.wait(slot).expect("in-flight slot poisoned");
                    }
                    return slot.clone().expect("checked above");
                }
                None => {
                    flight = Arc::new(InFlight { slot: Mutex::new(None), ready: Condvar::new() });
                    cache.misses += 1;
                    crate::metrics::cache().elab_misses.inc();
                    cache.map.insert(key.clone(), Entry::Pending(Arc::clone(&flight)));
                }
            }
        }

        // Elaborate outside the map lock: unrelated keys proceed in
        // parallel across the worker pool.
        let result: CachedResult = {
            let parsed = {
                let _span = uvllm_obs::Span::enter("parse");
                uvllm_verilog::parse(src).map_err(|e| e.to_string())
            };
            parsed
                .and_then(|file| {
                    let _span = uvllm_obs::Span::enter("elab");
                    elaborate(&file, top).map_err(|e| e.to_string())
                })
                .map(|mut design| {
                    if !opt.is_identity() {
                        let _span = uvllm_obs::Span::enter("optimize");
                        opt.apply(&mut design);
                    }
                    Arc::new(design)
                })
        };

        {
            let mut cache = self.lock();
            if cache.map.len() >= ELAB_CACHE_CAPACITY {
                // Evict ready entries only; in-flight markers must
                // survive or their waiters would hang.
                cache.map.retain(|_, entry| matches!(entry, Entry::Pending(_)));
                cache.evictions += 1;
                crate::metrics::cache().elab_evictions.inc();
            }
            cache.map.insert(key, Entry::Ready(result.clone()));
        }
        let mut slot = flight.slot.lock().expect("in-flight slot poisoned");
        *slot = Some(result.clone());
        flight.ready.notify_all();
        drop(slot);
        result
    }

    /// This cache's counters.
    pub fn stats(&self) -> ElabCacheStats {
        let cache = self.lock();
        ElabCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            entries: cache.map.len(),
        }
    }

    /// Empties the cache and zeroes its counters.
    ///
    /// Concurrent in-flight elaborations are left to finish on their
    /// own condvars; only the map and counters are reset.
    pub fn reset(&self) {
        let mut cache = self.lock();
        // Keep pending markers so their waiters cannot hang.
        cache.map.retain(|_, entry| matches!(entry, Entry::Pending(_)));
        cache.hits = 0;
        cache.misses = 0;
        cache.evictions = 0;
    }
}

/// The process-wide cache behind the free functions.
fn global() -> &'static ElabCache {
    static CACHE: OnceLock<ElabCache> = OnceLock::new();
    CACHE.get_or_init(ElabCache::new)
}

/// Parses and elaborates `src` with `top` as root, memoised process-wide,
/// under the process-default [`OptProfile`].
///
/// # Errors
///
/// Returns the parse or elaboration error message (also memoised).
pub fn elaborate_source_cached(src: &str, top: &str) -> CachedResult {
    elaborate_source_opt(src, top, &default_opt_profile())
}

/// [`elaborate_source_cached`] under an explicit pass configuration
/// ([`ElabCache::elaborate`] on the process-wide cache).
///
/// # Errors
///
/// Returns the parse or elaboration error message (also memoised).
pub fn elaborate_source_opt(src: &str, top: &str, opt: &OptProfile) -> CachedResult {
    global().elaborate(src, top, opt)
}

/// The process-wide cache's counters.
pub fn stats() -> ElabCacheStats {
    global().stats()
}

/// Empties the process-wide cache and zeroes its counters
/// ([`ElabCache::reset`]).
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: &str = "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
                       assign y = a + b;\nendmodule\n";

    /// Runs on a cache of its own, so sibling tests elaborating through
    /// the process-wide cache cannot move its counters.
    #[test]
    fn cache_memoises_hits_failures_and_tops() {
        let cache = ElabCache::new();
        let none = OptProfile::none();
        let before = cache.stats();
        let a = cache.elaborate(ADD, "add", &none).unwrap();
        let b = cache.elaborate(ADD, "add", &none).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "must share one elaboration");
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits > before.hits);

        // Failures are memoised too.
        let bad = "module broken(input a output y);\nendmodule\n";
        let e1 = cache.elaborate(bad, "broken", &none).unwrap_err();
        let e2 = cache.elaborate(bad, "broken", &none).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.stats().misses - after.misses, 1);

        // Distinct top modules over one source are distinct entries.
        let two = "module m1(input a, output y);\nassign y = a;\nendmodule\n\
                   module m2(input a, output y);\nassign y = ~a;\nendmodule\n";
        let d1 = cache.elaborate(two, "m1", &none).unwrap();
        let d2 = cache.elaborate(two, "m2", &none).unwrap();
        assert_eq!(d1.top, "m1");
        assert_eq!(d2.top, "m2");
        assert_eq!(cache.stats().entries, 4);

        // Hammer one key from many threads: still exactly one miss.
        cache.reset();
        let base = cache.stats();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.elaborate(ADD, "add", &none).unwrap();
                    }
                });
            }
        });
        let hammered = cache.stats();
        assert_eq!(hammered.misses - base.misses, 1, "one elaboration across 8 threads");
        assert_eq!(hammered.hits - base.hits, 399);
    }

    #[test]
    fn opt_profiles_key_separate_variants() {
        use crate::elab::{SignalInfo, SignalKind};
        // A transform whose effect is observable: it adds a marker signal.
        let marker: DesignTransform = Arc::new(|design: &mut Design| {
            design
                .add_signal(SignalInfo {
                    name: "__opt_marker".to_string(),
                    width: 1,
                    kind: SignalKind::Net,
                    words: 1,
                    lsb: 0,
                    array_lo: 0,
                    is_input: false,
                    is_output: false,
                })
                .unwrap();
        });
        let profile = OptProfile::new("marker", marker);
        let plain = elaborate_source_cached(ADD, "add").unwrap();
        let opt = elaborate_source_opt(ADD, "add", &profile).unwrap();
        assert!(!Arc::ptr_eq(&plain, &opt), "variants must not alias");
        assert!(opt.signal_id("__opt_marker").is_some(), "transform ran on the opt variant");
        assert!(plain.signal_id("__opt_marker").is_none(), "identity variant untouched");
        // Memoised per label: a second opt lookup shares the first.
        let opt2 = elaborate_source_opt(ADD, "add", &profile).unwrap();
        assert!(Arc::ptr_eq(&opt, &opt2));
    }
}
