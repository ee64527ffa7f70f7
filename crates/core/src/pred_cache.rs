//! A bounded memo cache of whole-plan hybrid predictions.
//!
//! Production workloads (plan caches, repeated template instantiations)
//! keep presenting the *same plans with the same optimizer estimates*, and
//! a hybrid prediction is a deterministic function of (model set, plan
//! structure, per-node views). [`PredictionCache`] memoizes that function
//! for [`crate::hybrid::HybridModel::predict_batch_cached`] and the hybrid
//! tier of [`crate::QppPredictor::predict_checked_batch_cached`]: each
//! query is one lookup, and a miss runs the one composition walk
//! ([`crate::hybrid`]'s `Walk::compose`) and inserts its latency. Keys
//! combine
//!
//! - a **model signature**
//!   ([`crate::hybrid::HybridModel::plan_model_signature`], FNV over the
//!   operator models' and every sub-plan model's fingerprint), so entries
//!   are never shared across model sets: a hot-swapped retrain, or a base
//!   model [`crate::online::extend`] added sub-plan models to;
//! - the root's **structure hash**, from the bottom-up pass the walk and
//!   [`crate::subplan::SubplanIndex`] use
//!   ([`crate::subplan::structure_hashes_into`]);
//! - a **views content hash** over the bit patterns of every
//!   [`NodeView`] in the plan, so two structurally identical plans with
//!   different cardinality estimates never collide.
//!
//! Determinism: a hit returns bit-identical values to the recomputation it
//! replaces, so batch predictions remain bit-identical to a cold serial
//! loop regardless of hit pattern or thread interleaving. Eviction is
//! wholesale: when the entry cap is reached, the map is cleared —
//! trivially correct (pure memoization has nothing to invalidate) and
//! cheap relative to model evaluation.

use crate::features::NodeView;
use std::collections::HashMap;
use std::sync::Mutex;

/// Default entry cap; at 32 bytes an entry (a 24-byte key and an `f64`)
/// in a map of 16 384 buckets, this bounds the cache to about 530 KiB.
pub(crate) const DEFAULT_PRED_CACHE_CAPACITY: usize = 8192;

/// Cache key for one plan's prediction; see the module docs for why all
/// three components are required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanPredKey {
    /// Signature of the model set producing the prediction.
    pub(crate) model: u64,
    /// Structure hash of the plan's root (agrees with
    /// [`crate::subplan::structure_key`]).
    pub(crate) structure: u64,
    /// Content hash over the plan's [`NodeView`]s.
    pub(crate) views: u64,
}

/// Hit/miss/eviction counters for diagnostics and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Entries dropped by wholesale clears.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Inner {
    map: HashMap<PlanPredKey, f64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe memo cache of hybrid plan latencies.
pub struct PredictionCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for PredictionCache {
    fn default() -> Self {
        PredictionCache::new(DEFAULT_PRED_CACHE_CAPACITY)
    }
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PredictionCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up a memoized latency.
    pub(crate) fn get(&self, key: &PlanPredKey) -> Option<f64> {
        let mut inner = self.inner.lock().unwrap();
        match inner.map.get(key).copied() {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Memoizes a latency, clearing the cache wholesale first if it is at
    /// capacity (and the key is not already resident).
    pub(crate) fn insert(&self, key: PlanPredKey, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            inner.evictions += inner.map.len() as u64;
            inner.map.clear();
        }
        inner.map.insert(key, value);
    }

    /// Drops every entry (counters are kept).
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        let n = inner.map.len() as u64;
        inner.evictions += n;
        inner.map.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> PredictionCacheStats {
        let inner = self.inner.lock().unwrap();
        PredictionCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }
}

/// FNV-1a's 64-bit offset basis and prime: the crate's one hash (these
/// functions, the snapshot checksum and `subplan`'s structure keys).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over the bit patterns of a plan's views. Bit-level hashing
/// means two plans cache-collide only when their estimates are *exactly*
/// equal — in which case the memoized prediction is exactly the one
/// recomputation would produce.
pub(crate) fn views_hash(views: &[NodeView]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |v: f64| {
        h = (h ^ v.to_bits()).wrapping_mul(FNV_PRIME);
    };
    for v in views {
        mix(v.rows);
        mix(v.width);
        mix(v.pages);
        mix(v.selectivity);
        mix(v.startup_cost);
        mix(v.total_cost);
    }
    h
}

/// FNV-1a over a byte string: a model's encoding
/// ([`crate::plan_model::FeatureModel::fingerprint`]) and a snapshot's
/// payload (the `QPPSNAP` header's checksum).
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a pre-sorted list of structure-key hashes; used to build
/// model signatures.
pub(crate) fn hash_u64s(values: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &v in values {
        h = (h ^ v).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> PlanPredKey {
        PlanPredKey {
            model: 1,
            structure: n,
            views: n.wrapping_mul(31),
        }
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let cache = PredictionCache::new(16);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), 2.5);
        assert_eq!(cache.get(&key(1)), Some(2.5));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_triggers_wholesale_clear() {
        let cache = PredictionCache::new(4);
        for i in 0..4 {
            cache.insert(key(i), i as f64);
        }
        assert_eq!(cache.stats().entries, 4);
        cache.insert(key(99), 9.0);
        let s = cache.stats();
        assert_eq!(s.entries, 1, "clear then insert");
        assert_eq!(s.evictions, 4);
        // Re-inserting a resident key at capacity does not clear.
        let cache = PredictionCache::new(1);
        cache.insert(key(7), 1.0);
        cache.insert(key(7), 1.0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn views_hash_separates_different_estimates() {
        let mut a = NodeView {
            rows: 10.0,
            width: 8.0,
            pages: 3.0,
            selectivity: 0.5,
            startup_cost: 0.0,
            total_cost: 100.0,
        };
        let b = a;
        assert_eq!(views_hash(&[a]), views_hash(&[b]));
        a.rows = 11.0;
        assert_ne!(views_hash(&[a]), views_hash(&[b]));
        // NaN estimates still hash consistently (bit pattern identity).
        a.rows = f64::NAN;
        assert_eq!(views_hash(&[a]), views_hash(&[a]));
    }
}
