//! Multi-tenant model registry with hot reload.
//!
//! Each tenant owns a sequence of model versions. Sessions *pin* the
//! version that was current when they opened (a [`ModelLease`]), so a
//! reload never changes the detector under a live session — the
//! no-straddle invariant ("no verdict may straddle two model versions")
//! holds by construction rather than by locking:
//!
//! 1. `LOAD <tenant> <path>` reads and CRC-verifies the model off the
//!    event loop (a background thread via the gateway), then calls
//!    [`TenantEntry::swap`], which atomically replaces the tenant's
//!    `current` version.
//! 2. New sessions lease the *new* version from that point on.
//! 3. The old version's lease count drains to zero as its sessions
//!    finish; [`ModelVersion::live`] going to 0 *is* the drain — there is
//!    no separate drain step to get wrong.
//!
//! The registry itself is a small `Mutex<BTreeMap>`, and each tenant's
//! current version sits behind a `Mutex` of its own: a session open, a
//! `LOAD` and a tenant creation each hold one of them just long enough to
//! clone or replace an `Arc`, and no path holds one while taking the other.
//! Per-tenant ingest counters live in [`TenantMetrics`] so `STATS` can
//! report per-tenant breakdowns without walking shard state.

use crate::metrics::TenantMetrics;
use crate::store::{ModelStore, StoreError};
use anomaly::Detector;
use std::collections::BTreeMap;
use std::path::Path;
use sync::atomic::{AtomicU64, Ordering};
use sync::{Arc, Mutex};

/// One immutable model version. `live` counts the sessions currently
/// pinned to it (via [`ModelLease`]); the version is *drained* when the
/// count returns to zero.
pub struct ModelVersion {
    /// Monotonic per-tenant version number, starting at 1.
    pub version: u64,
    /// The frozen model.
    pub detector: Arc<Detector>,
    live: AtomicU64,
}

impl ModelVersion {
    fn new(version: u64, detector: Arc<Detector>) -> Arc<ModelVersion> {
        Arc::new(ModelVersion {
            version,
            detector,
            live: AtomicU64::new(0),
        })
    }

    /// Sessions currently pinned to this version.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Acquire)
    }
}

/// A session's pin on one model version. Holding a lease keeps the
/// version "live"; dropping it (session finished, evicted, or discarded
/// on a restore conflict) releases it. The lease is how the serving layer
/// guarantees every `feed` and the final `finish` of one session use the
/// same `Detector`.
pub struct ModelLease {
    version: Arc<ModelVersion>,
}

impl ModelLease {
    fn acquire(version: &Arc<ModelVersion>) -> ModelLease {
        version.live.fetch_add(1, Ordering::AcqRel);
        ModelLease {
            version: Arc::clone(version),
        }
    }

    /// The pinned detector.
    pub fn detector(&self) -> &Detector {
        &self.version.detector
    }

    /// The pinned version number.
    pub fn version(&self) -> u64 {
        self.version.version
    }
}

impl Drop for ModelLease {
    fn drop(&mut self) {
        self.version.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One tenant: its current model version and its serving counters.
pub struct TenantEntry {
    /// Tenant id (as used on the wire in `TENANT <id>`).
    pub name: String,
    current: Mutex<Arc<ModelVersion>>,
    reloads: AtomicU64,
    /// Per-tenant ingest/verdict counters (see `metrics.rs`).
    pub metrics: TenantMetrics,
}

impl TenantEntry {
    fn new(name: &str, detector: Arc<Detector>) -> Arc<TenantEntry> {
        Arc::new(TenantEntry {
            name: name.to_string(),
            current: Mutex::new(ModelVersion::new(1, detector)),
            reloads: AtomicU64::new(0),
            metrics: TenantMetrics::default(),
        })
    }

    /// The current model version (cheap: lock + Arc clone).
    pub fn current(&self) -> Arc<ModelVersion> {
        Arc::clone(&self.current.lock())
    }

    /// Lease the current version for a new session.
    pub fn open_session(&self) -> ModelLease {
        ModelLease::acquire(&self.current.lock())
    }

    /// Hot-swap in a new detector. Returns `(new_version, old_version,
    /// old_live)` — `old_live` is how many sessions are still pinned to
    /// the outgoing version at swap time (they keep it alive until they
    /// finish).
    pub fn swap(&self, detector: Arc<Detector>) -> (u64, u64, u64) {
        let mut cur = self.current.lock();
        let old = Arc::clone(&cur);
        let next = ModelVersion::new(old.version + 1, detector);
        let new_version = next.version;
        *cur = next;
        drop(cur);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        obs::inc!("gateway.reload.swaps");
        (new_version, old.version, old.live())
    }

    /// Completed reloads (swaps) for this tenant.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }
}

/// Outcome of a `LOAD`, reported back on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Tenant the model was loaded for.
    pub tenant: String,
    /// The now-current version number.
    pub version: u64,
    /// `true` if the tenant did not exist before this load.
    pub created: bool,
    /// Sessions still pinned to the previous version (0 for a new tenant).
    pub previous_live: u64,
    /// Intel Keys in the loaded model.
    pub keys: usize,
}

/// The tenant table. Keyed by tenant id; iteration order (for `STATS`) is
/// the id's lexicographic order, deterministically.
pub struct TenantRegistry {
    tenants: Mutex<BTreeMap<String, Arc<TenantEntry>>>,
}

impl Default for TenantRegistry {
    fn default() -> TenantRegistry {
        TenantRegistry::new()
    }
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> TenantRegistry {
        TenantRegistry {
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// Register a tenant with an in-memory model (startup path). If the
    /// tenant exists, this swaps the model like a reload.
    pub fn register(&self, name: &str, detector: Arc<Detector>) -> Arc<TenantEntry> {
        let mut tenants = self.tenants.lock();
        match tenants.get(name) {
            Some(entry) => {
                let entry = Arc::clone(entry);
                drop(tenants);
                entry.swap(detector);
                entry
            }
            None => {
                let entry = TenantEntry::new(name, detector);
                tenants.insert(name.to_string(), Arc::clone(&entry));
                obs::gauge_set!("gateway.tenants", tenants.len() as i64);
                entry
            }
        }
    }

    /// Look up a tenant.
    pub fn get(&self, name: &str) -> Option<Arc<TenantEntry>> {
        self.tenants.lock().get(name).cloned()
    }

    /// Load a model from the versioned CRC-checked store and make it the
    /// tenant's current version (creating the tenant if new). This does
    /// disk I/O and CRC verification — call it off the event loop.
    pub fn load_from_path(&self, name: &str, path: &Path) -> Result<LoadOutcome, StoreError> {
        let detector = Arc::new(ModelStore::load(path)?);
        let keys = detector.keys.len();
        let existing = self.get(name);
        match existing {
            Some(entry) => {
                let (version, _, previous_live) = entry.swap(detector);
                Ok(LoadOutcome {
                    tenant: name.to_string(),
                    version,
                    created: false,
                    previous_live,
                    keys,
                })
            }
            None => {
                self.register(name, detector);
                Ok(LoadOutcome {
                    tenant: name.to_string(),
                    version: 1,
                    created: true,
                    previous_live: 0,
                    keys,
                })
            }
        }
    }

    /// All tenants, in id order.
    pub fn entries(&self) -> Vec<Arc<TenantEntry>> {
        self.tenants.lock().values().cloned().collect()
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.lock().len()
    }

    /// `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly::Trainer;
    use spell::{Level, LogLine, Session};

    fn model(msg: &str) -> Arc<Detector> {
        let line = |m: &str| LogLine {
            ts_ms: 0,
            level: Level::Info,
            source: "X".into(),
            message: m.into(),
        };
        let mk = |id: &str| Session::new(id, vec![line(msg)]);
        Arc::new(Trainer::default().train(&[mk("a"), mk("b"), mk("c")]))
    }

    #[test]
    fn lease_pins_version_across_swap() {
        let reg = TenantRegistry::new();
        let t = reg.register("acme", model("alpha one two"));
        let lease = t.open_session();
        assert_eq!(lease.version(), 1);
        assert_eq!(t.current().live(), 1);

        let (new_v, old_v, old_live) = t.swap(model("beta one two"));
        assert_eq!((new_v, old_v, old_live), (2, 1, 1));
        // the lease still sees v1's detector; new sessions see v2
        assert_eq!(lease.version(), 1);
        let lease2 = t.open_session();
        assert_eq!(lease2.version(), 2);
        assert_eq!(t.reloads(), 1);

        // v1 drains when its last lease drops
        drop(lease);
        drop(lease2);
        assert_eq!(t.current().live(), 0);
    }

    #[test]
    fn load_from_path_roundtrip() {
        let dir = std::env::temp_dir().join("intellog-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("m-{}.ilm", std::process::id()));
        let det = model("gamma one two");
        ModelStore::save(&path, &det).unwrap();

        let reg = TenantRegistry::new();
        let out = reg.load_from_path("acme", &path).unwrap();
        assert!(out.created);
        assert_eq!(out.version, 1);
        let out2 = reg.load_from_path("acme", &path).unwrap();
        assert!(!out2.created);
        assert_eq!(out2.version, 2);
        assert_eq!(reg.get("acme").unwrap().reloads(), 1);
        assert!(reg
            .load_from_path("bad", Path::new("/nonexistent"))
            .is_err());
        assert_eq!(reg.len(), 1, "failed load must not create the tenant");
        std::fs::remove_file(&path).unwrap();
    }
}
