//! The compiled-program cache.
//!
//! Keyed by [`hgp_circuit::Circuit::structural_key`] /
//! [`hgp_core::compile::HybridShape::structural_key`] (hybrid keys fold
//! in a leading domain tag, keeping them apart from the untagged
//! circuit encoding): one entry per program *shape*, shared
//! by every parameter binding of that shape. Circuit and hybrid
//! gate-pulse artifacts share one LRU budget — a serving host trades
//! them off against each other like any other shapes. Compilation is
//! deterministic, so a shape whose compile failed is cached too, as its
//! typed [`JobError`]: later jobs of it fail alike without compiling
//! again, and failures count against the same capacity. Entries hold
//! [`Arc`]s so in-flight jobs keep their program alive even if the
//! entry is evicted mid-run.

use std::collections::BTreeMap;
use std::sync::Arc;

use hgp_core::compile::{CompiledCircuit, CompiledProgram};

use crate::JobError;

/// A cached compiled artifact of either program family.
#[derive(Debug, Clone)]
pub enum CompiledArtifact {
    /// A transpiled circuit shape.
    Circuit(Arc<CompiledCircuit>),
    /// A compiled hybrid gate-pulse shape.
    Hybrid(Arc<CompiledProgram>),
}

impl CompiledArtifact {
    /// The structural cache key.
    pub fn key(&self) -> u64 {
        match self {
            CompiledArtifact::Circuit(c) => c.key(),
            CompiledArtifact::Hybrid(p) => p.key(),
        }
    }
}

impl From<Arc<CompiledCircuit>> for CompiledArtifact {
    fn from(c: Arc<CompiledCircuit>) -> Self {
        CompiledArtifact::Circuit(c)
    }
}

impl From<Arc<CompiledProgram>> for CompiledArtifact {
    fn from(p: Arc<CompiledProgram>) -> Self {
        CompiledArtifact::Hybrid(p)
    }
}

/// A least-recently-used cache of compile outcomes.
///
/// Recency is tracked with a logical clock bumped on every access;
/// eviction scans for the minimum — `O(len)` per eviction, which is
/// irrelevant at the capacities a serving host uses (tens to hundreds
/// of shapes). The map is a `BTreeMap` for determinism hygiene (rule
/// D1): eviction ties cannot occur (clock values are unique), but a
/// key-ordered scan makes the choice visibly independent of hasher
/// state rather than accidentally so.
#[derive(Debug)]
pub struct ProgramCache {
    capacity: usize,
    clock: u64,
    entries: BTreeMap<u64, (Result<CompiledArtifact, JobError>, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ProgramCache {
    /// A cache holding at most `capacity` shapes (artifacts and
    /// failures together).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            capacity,
            clock: 0,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a shape, refreshing its recency. A cached artifact
    /// counts a hit and an absent shape a miss; a cached failure counts
    /// neither (no artifact was served and no compile is owed).
    pub fn get(&mut self, key: u64) -> Option<Result<CompiledArtifact, JobError>> {
        self.clock += 1;
        match self.entries.get_mut(&key) {
            Some((outcome, used)) => {
                *used = self.clock;
                if outcome.is_ok() {
                    self.hits += 1;
                }
                Some(outcome.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly compiled shape, evicting the least recently
    /// used entry when full. Inserting an existing key refreshes it.
    pub fn insert(&mut self, compiled: impl Into<CompiledArtifact>) {
        let compiled = compiled.into();
        self.store(compiled.key(), Ok(compiled));
    }

    /// Caches the failed compile of shape `key`, like
    /// [`ProgramCache::insert`] caches an artifact.
    pub fn insert_failure(&mut self, key: u64, error: JobError) {
        self.store(key, Err(error));
    }

    fn store(&mut self, key: u64, outcome: Result<CompiledArtifact, JobError>) {
        self.clock += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&k, _)| k)
                .expect("non-empty at capacity");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
        self.entries.insert(key, (outcome, self.clock));
    }

    /// Whether a shape is cached (does not refresh recency or count).
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Cached shapes (artifacts and failures).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum shapes held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_circuit::Circuit;
    use hgp_core::compile::CircuitCompiler;
    use hgp_device::Backend;

    fn compiled(backend: &Backend, theta: f64) -> Arc<CompiledCircuit> {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rx(1, theta);
        Arc::new(
            CircuitCompiler::new(backend, vec![0, 1])
                .compile(&qc)
                .unwrap(),
        )
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let backend = Backend::ideal(2);
        let mut cache = ProgramCache::new(4);
        let c = compiled(&backend, 0.3);
        let key = c.key();
        assert!(cache.get(key).is_none());
        cache.insert(c);
        assert!(cache.get(key).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let backend = Backend::ideal(2);
        let mut cache = ProgramCache::new(2);
        let a = compiled(&backend, 0.1);
        let b = compiled(&backend, 0.2);
        let c = compiled(&backend, 0.3);
        let (ka, kb, kc) = (a.key(), b.key(), c.key());
        cache.insert(a);
        cache.insert(b);
        // Touch `a` so `b` is the LRU when `c` arrives.
        assert!(cache.get(ka).is_some());
        cache.insert(c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.contains(ka));
        assert!(!cache.contains(kb));
        assert!(cache.contains(kc));
    }

    #[test]
    fn failures_are_cached_and_evicted_like_artifacts() {
        let backend = Backend::ideal(2);
        let mut cache = ProgramCache::new(2);
        let a = compiled(&backend, 0.1);
        let ka = a.key();
        cache.insert(a);
        cache.insert_failure(7, JobError::compile("bad shape"));
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.get(7).expect("cached").map(|_| ()),
            Err(JobError::compile("bad shape"))
        );
        // A cached failure is neither a hit nor a miss.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // The failure was used last, so the artifact is evicted first.
        cache.insert(compiled(&backend, 0.2));
        assert!(!cache.contains(ka));
        assert!(cache.contains(7));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let backend = Backend::ideal(2);
        let mut cache = ProgramCache::new(1);
        let a = compiled(&backend, 0.1);
        let key = a.key();
        cache.insert(Arc::clone(&a));
        cache.insert(a);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.contains(key));
    }
}
