//! The versioned model registry: validated snapshots, hot swap, rollback,
//! and shadow retraining.
//!
//! [`crate::materialize`] defines *what* a model snapshot contains; this
//! module owns *how* snapshots live on disk and how the serving predictor
//! moves between them:
//!
//! - **Checksummed, atomic snapshots.** Every version is one file,
//!   `v{N}.qppsnap`, written temp-then-rename so a crash can never leave a
//!   half-written current version. The file starts with a header line
//!   `QPPSNAP v3 <fnv64> <len>` followed by the binary model payload of
//!   [`crate::materialize`]; loads verify format version, payload length,
//!   and FNV-1a checksum before the payload is even parsed, then run
//!   [`MaterializedModels::validate`]'s finite-weights/arity gates.
//!   Version 3 added the learned tiers' recorded errors; a v2 file is
//!   refused as an unsupported version, like any other.
//! - **Hot swap.** The serving predictor hangs under an `Arc`; promotion
//!   builds the replacement off to the side, validates it end-to-end
//!   (including a read-back of the just-written snapshot), and swaps the
//!   `Arc` under a write lock. In-flight readers keep their old reference.
//!   The promoted model carries its own recorded errors, so a drift
//!   monitor that resets on the swap judges it against its own record.
//!   The shared [`PredictionCache`] is cleared on every swap — the
//!   content-aware model-set signature already keeps stale entries from
//!   being *hits*, clearing also reclaims their space.
//! - **Rollback.** One step back to the previous validated snapshot, for
//!   when a promotion looks wrong in production after all.
//! - **Shadow retraining.** [`ModelRegistry::shadow_retrain`] trains a
//!   candidate on the recent window (reusing `ml::par` underneath),
//!   scores candidate and incumbent on a held-out slice neither saw, and
//!   promotes only when the candidate's mean relative error improves by a
//!   configurable margin — otherwise the incumbent stays and the report
//!   says why.

use crate::dataset::ExecutedQuery;
use crate::error::QppError;
use crate::hybrid::PlanOrdering;
use crate::materialize::MaterializedModels;
use crate::pred_cache::{hash_bytes, PredictionCache};
use crate::predictor::{Method, QppConfig, QppPredictor};
use ml::cv::holdout;
use ml::mean_relative_error;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Snapshot format magic + version accepted by this build.
const SNAPSHOT_MAGIC: &str = "QPPSNAP";
const SNAPSHOT_VERSION: &str = "v3";

/// Encodes a model set into the on-disk snapshot envelope:
/// `QPPSNAP v3 <fnv64-hex> <payload-len>\n<payload>`.
pub fn encode_snapshot(mat: &MaterializedModels) -> Vec<u8> {
    seal(&mat.encode())
}

/// Puts the header line in front of a payload.
pub(crate) fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} {:016x} {}\n",
        hash_bytes(payload),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Decodes and fully validates a snapshot envelope: header shape, format
/// version, payload length (catches truncation), FNV-1a checksum (catches
/// bit rot), then the payload's bounds-checked decode and the model-level
/// gates of `MaterializedModels::validate`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<MaterializedModels, QppError> {
    let invalid = QppError::InvalidSnapshot;
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| invalid("missing snapshot header".to_string()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| invalid("snapshot header is not UTF-8".to_string()))?;
    let mut parts = header.split(' ');
    let (magic, version, checksum, len) = match (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) {
        (Some(m), Some(v), Some(c), Some(l), None) => (m, v, c, l),
        _ => return Err(invalid(format!("malformed snapshot header {header:?}"))),
    };
    if magic != SNAPSHOT_MAGIC {
        return Err(invalid(format!("bad magic {magic:?}")));
    }
    if version != SNAPSHOT_VERSION {
        return Err(invalid(format!(
            "unsupported format version {version:?} (this build reads {SNAPSHOT_VERSION})"
        )));
    }
    let expected_sum = u64::from_str_radix(checksum, 16)
        .map_err(|_| invalid(format!("unparsable checksum {checksum:?}")))?;
    let expected_len: usize = len
        .parse()
        .map_err(|_| invalid(format!("unparsable payload length {len:?}")))?;
    let payload = &bytes[newline + 1..];
    if payload.len() != expected_len {
        return Err(invalid(format!(
            "truncated snapshot: header promises {expected_len} payload bytes, found {}",
            payload.len()
        )));
    }
    let actual_sum = hash_bytes(payload);
    if actual_sum != expected_sum {
        return Err(invalid(format!(
            "checksum mismatch: header says {expected_sum:016x}, payload hashes to {actual_sum:016x}"
        )));
    }
    MaterializedModels::decode(payload)
}

/// Fraction of the recent window [`ModelRegistry::shadow_retrain`] holds
/// out for scoring candidate vs incumbent (neither model trains on it).
const HOLDOUT_FRAC: f64 = 0.25;
/// Required relative improvement in held-out mean relative error before
/// the candidate is promoted: promote iff
/// `candidate <= incumbent * (1 - MIN_IMPROVEMENT)`.
const MIN_IMPROVEMENT: f64 = 0.05;
/// Seed for the holdout split.
const HOLDOUT_SEED: u64 = 0x5EED;

/// What a shadow-retrain round decided and why.
#[derive(Debug, Clone)]
pub struct PromotionReport {
    /// True when the candidate was promoted to serving.
    pub promoted: bool,
    /// Incumbent's mean relative error on the held-out slice.
    pub incumbent_error: f64,
    /// Candidate's mean relative error on the held-out slice.
    pub candidate_error: f64,
    /// The serving model version after the decision.
    pub version: u64,
    /// Human-readable explanation of the decision.
    pub reason: String,
}

struct Inner {
    current: Arc<QppPredictor>,
    /// Validated snapshot versions on disk, ascending; the last entry is
    /// the serving version.
    versions: Vec<u64>,
}

/// A directory of versioned, validated model snapshots plus the serving
/// predictor hot-swapped between them.
pub struct ModelRegistry {
    dir: PathBuf,
    config: QppConfig,
    inner: RwLock<Inner>,
    pred_cache: Arc<PredictionCache>,
    /// Bumped on every promote/rollback. Lets long-running readers (the
    /// serving layer, stress tests) detect that the serving predictor
    /// changed without taking the registry lock or comparing `Arc`s.
    generation: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry at `dir` (created if missing) and persists
    /// `initial` as version 1.
    pub fn create(
        dir: impl Into<PathBuf>,
        initial: QppPredictor,
        config: QppConfig,
    ) -> Result<ModelRegistry, QppError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| QppError::Io(e.to_string()))?;
        let registry = ModelRegistry {
            dir,
            config,
            inner: RwLock::new(Inner {
                current: Arc::new(initial),
                versions: Vec::new(),
            }),
            pred_cache: Arc::new(PredictionCache::default()),
            generation: AtomicU64::new(0),
        };
        {
            let mut inner = registry.lock_write();
            let mat = MaterializedModels::from_predictor(&inner.current);
            mat.validate()?;
            registry.write_snapshot(1, &mat)?;
            inner.versions.push(1);
        }
        Ok(registry)
    }

    /// Opens an existing registry directory, loading the latest snapshot
    /// as the serving predictor. A corrupted or truncated latest snapshot
    /// is a typed [`QppError::InvalidSnapshot`] — nothing is served off a
    /// file that fails its gates.
    pub fn open(dir: impl Into<PathBuf>, config: QppConfig) -> Result<ModelRegistry, QppError> {
        let dir = dir.into();
        let versions = list_versions(&dir)?;
        let &latest = versions
            .last()
            .ok_or_else(|| QppError::Io(format!("no snapshots in {}", dir.display())))?;
        let mat = load_version(&dir, latest)?;
        let current = Arc::new(QppPredictor::from_materialized(&mat));
        Ok(ModelRegistry {
            dir,
            config,
            inner: RwLock::new(Inner { current, versions }),
            pred_cache: Arc::new(PredictionCache::default()),
            generation: AtomicU64::new(0),
        })
    }

    /// The serving predictor. The returned `Arc` stays valid across
    /// subsequent promotions/rollbacks (it just stops being current).
    pub fn current(&self) -> Arc<QppPredictor> {
        self.lock_read().current.clone()
    }

    /// The serving snapshot version.
    pub fn version(&self) -> u64 {
        *self.lock_read().versions.last().expect("registry holds >= 1 version")
    }

    /// All validated snapshot versions on disk, ascending.
    #[cfg(test)]
    pub(crate) fn versions(&self) -> Vec<u64> {
        self.lock_read().versions.clone()
    }

    /// Number of hot swaps (promotions and rollbacks) this registry has
    /// performed since it was opened. Monotone; readers can poll it to
    /// learn that [`ModelRegistry::current`] would now return a different
    /// predictor, without taking the registry lock.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The shared hybrid plan-prediction cache, cleared on every model swap.
    /// Serve batched predictions through this cache (e.g.
    /// `registry.current().hybrid.predict_batch_cached(queries,
    /// &registry.pred_cache())`) to get swap-safe memoization.
    pub fn pred_cache(&self) -> &Arc<PredictionCache> {
        &self.pred_cache
    }

    /// Path of one version's snapshot file.
    pub(crate) fn snapshot_path(&self, version: u64) -> PathBuf {
        self.dir.join(format!("v{version}.qppsnap"))
    }

    /// Validates and persists `candidate` as the next version, then hot
    /// swaps it in. The snapshot is written atomically
    /// (temp-then-rename) and *read back* from disk before the swap, so
    /// the predictor that serves is provably reconstructible from the
    /// bytes that were persisted. Clears the shared prediction cache.
    pub fn promote(&self, candidate: QppPredictor) -> Result<u64, QppError> {
        let mat = MaterializedModels::from_predictor(&candidate);
        mat.validate()?;
        drop(candidate); // serve the disk-round-tripped predictor instead
        let mut inner = self.lock_write();
        let version = inner.versions.last().copied().unwrap_or(0) + 1;
        self.write_snapshot(version, &mat)?;
        let reloaded = load_version(&self.dir, version)?;
        inner.current = Arc::new(QppPredictor::from_materialized(&reloaded));
        inner.versions.push(version);
        self.pred_cache.clear();
        self.generation.fetch_add(1, Ordering::Release);
        Ok(version)
    }

    /// One-step rollback: reloads the previous validated snapshot, makes
    /// it current, and deletes the rolled-back version's file. Clears the
    /// shared prediction cache. Fails (typed) when there is no previous
    /// version or the previous snapshot no longer validates.
    pub fn rollback(&self) -> Result<u64, QppError> {
        let mut inner = self.lock_write();
        if inner.versions.len() < 2 {
            return Err(QppError::InvalidSnapshot(
                "no previous version to roll back to".to_string(),
            ));
        }
        let previous = inner.versions[inner.versions.len() - 2];
        let mat = load_version(&self.dir, previous)?;
        inner.current = Arc::new(QppPredictor::from_materialized(&mat));
        let dropped = inner.versions.pop().expect("len checked above");
        let _ = fs::remove_file(self.snapshot_path(dropped));
        self.pred_cache.clear();
        self.generation.fetch_add(1, Ordering::Release);
        Ok(previous)
    }

    /// Shadow retraining: fits a candidate on the recent window and
    /// promotes it only if it beats the incumbent on a held-out quarter
    /// by more than 5 %.
    ///
    /// The split is seeded and the candidate trains only on the training
    /// side, so incumbent and candidate are scored on data neither was
    /// fit to. Scoring runs through `predict_checked` (hybrid entry
    /// point): what is compared is the full degradation chain each model
    /// set would actually serve.
    pub fn shadow_retrain(&self, recent: &[&ExecutedQuery]) -> Result<PromotionReport, QppError> {
        if recent.len() < 4 {
            return Err(QppError::NoTrainingData);
        }
        let (train_idx, test_idx) = holdout(recent.len(), HOLDOUT_FRAC, HOLDOUT_SEED);
        let train: Vec<&ExecutedQuery> = train_idx.iter().map(|&i| recent[i]).collect();
        let test: Vec<&ExecutedQuery> = test_idx.iter().map(|&i| recent[i]).collect();

        let candidate = QppPredictor::train(&train, self.config.clone())?;
        let incumbent = self.current();
        let incumbent_error = score(&incumbent, &test);
        let candidate_error = score(&candidate, &test);

        if candidate_error <= incumbent_error * (1.0 - MIN_IMPROVEMENT) {
            let version = self.promote(candidate)?;
            Ok(PromotionReport {
                promoted: true,
                incumbent_error,
                candidate_error,
                version,
                reason: format!(
                    "candidate held-out MRE {candidate_error:.4} beats incumbent \
                     {incumbent_error:.4} by more than the {:.0}% margin",
                    MIN_IMPROVEMENT * 100.0
                ),
            })
        } else {
            Ok(PromotionReport {
                promoted: false,
                incumbent_error,
                candidate_error,
                version: self.version(),
                reason: format!(
                    "candidate held-out MRE {candidate_error:.4} does not beat incumbent \
                     {incumbent_error:.4} by the {:.0}% margin; keeping incumbent",
                    MIN_IMPROVEMENT * 100.0
                ),
            })
        }
    }

    /// Mean relative error of the *currently serving* predictor over
    /// `queries`, scored through the full degradation chain (the same
    /// metric [`ModelRegistry::shadow_retrain`] uses for its held-out
    /// comparison). NaN when `queries` is empty.
    ///
    /// This is the post-promotion validation hook: after a promotion,
    /// score the new current predictor against fresh traffic and call
    /// [`ModelRegistry::rollback`] if it regressed in production after
    /// all.
    pub fn score_current(&self, queries: &[&ExecutedQuery]) -> f64 {
        score(&self.current(), queries)
    }

    fn write_snapshot(&self, version: u64, mat: &MaterializedModels) -> Result<(), QppError> {
        let io = |e: std::io::Error| QppError::Io(e.to_string());
        let final_path = self.snapshot_path(version);
        let tmp_path = self.dir.join(format!("v{version}.qppsnap.tmp"));
        fs::write(&tmp_path, encode_snapshot(mat)).map_err(io)?;
        fs::rename(&tmp_path, &final_path).map_err(io)?;
        Ok(())
    }

    fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("registry lock poisoned")
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("registry lock poisoned")
    }
}

/// Held-out mean relative error of the full serving chain.
fn score(pred: &QppPredictor, queries: &[&ExecutedQuery]) -> f64 {
    let actual: Vec<f64> = queries.iter().map(|q| q.latency()).collect();
    let est: Vec<f64> = queries
        .iter()
        .map(|q| {
            pred.predict_checked(q, Method::Hybrid(PlanOrdering::ErrorBased))
                .value
        })
        .collect();
    mean_relative_error(&actual, &est)
}

/// Loads and fully validates one snapshot version from `dir`.
fn load_version(dir: &Path, version: u64) -> Result<MaterializedModels, QppError> {
    let path = dir.join(format!("v{version}.qppsnap"));
    let bytes = fs::read(&path).map_err(|e| QppError::Io(format!("{}: {e}", path.display())))?;
    decode_snapshot(&bytes)
        .map_err(|e| match e {
            QppError::InvalidSnapshot(msg) => {
                QppError::InvalidSnapshot(format!("{}: {msg}", path.display()))
            }
            other => other,
        })
}

/// Snapshot versions present in `dir`, ascending.
fn list_versions(dir: &Path) -> Result<Vec<u64>, QppError> {
    let entries = fs::read_dir(dir).map_err(|e| QppError::Io(format!("{}: {e}", dir.display())))?;
    let mut versions = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| QppError::Io(e.to_string()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(v) = name
            .strip_prefix('v')
            .and_then(|rest| rest.strip_suffix(".qppsnap"))
            .and_then(|num| num.parse::<u64>().ok())
        {
            versions.push(v);
        }
    }
    versions.sort_unstable();
    Ok(versions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::QueryDataset;
    use engine::{Catalog, Simulator};
    use tpch::Workload;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qpp-registry-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn trained() -> (QueryDataset, QppPredictor) {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 8, 0.1, 7);
        let sim = Simulator::with_config(engine::SimConfig {
            additive_noise_secs: 0.05,
            ..engine::SimConfig::default()
        });
        let ds = QueryDataset::execute(&catalog, &workload, &sim, 11, f64::INFINITY);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();
        (ds, qpp)
    }

    #[test]
    fn snapshot_envelope_roundtrips() {
        let (_, qpp) = trained();
        let mat = MaterializedModels::from_predictor(&qpp);
        let bytes = encode_snapshot(&mat);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.encode(), mat.encode());
    }

    #[test]
    fn envelope_rejects_corruption_truncation_and_bad_versions() {
        let (_, qpp) = trained();
        let bytes = encode_snapshot(&MaterializedModels::from_predictor(&qpp));

        // Bit flip in the payload: checksum mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        match decode_snapshot(&flipped) {
            Err(QppError::InvalidSnapshot(msg)) => {
                assert!(msg.contains("checksum"), "{msg}")
            }
            other => panic!("expected checksum error, got {other:?}"),
        }

        // Truncation: length check fires before the checksum.
        match decode_snapshot(&bytes[..bytes.len() - 10]) {
            Err(QppError::InvalidSnapshot(msg)) => {
                assert!(msg.contains("truncated"), "{msg}")
            }
            other => panic!("expected truncation error, got {other:?}"),
        }

        // A future format version, the JSON one, and the one without
        // recorded errors.
        assert!(bytes.starts_with(b"QPPSNAP v3 "));
        for digit in [b'9', b'1', b'2'] {
            let mut other_version = bytes.clone();
            other_version[9] = digit;
            match decode_snapshot(&other_version) {
                Err(QppError::InvalidSnapshot(msg)) => {
                    assert!(msg.contains("unsupported format version"), "{msg}")
                }
                other => panic!("expected version error, got {other:?}"),
            }
        }

        // Not a snapshot at all.
        assert!(matches!(
            decode_snapshot(b"hello world\nnot json"),
            Err(QppError::InvalidSnapshot(_))
        ));
        assert!(matches!(
            decode_snapshot(b""),
            Err(QppError::InvalidSnapshot(_))
        ));
    }

    #[test]
    fn create_promote_reopen_and_rollback() {
        let dir = temp_dir("lifecycle");
        let (ds, qpp) = trained();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let probe = refs[0];

        let registry = ModelRegistry::create(&dir, qpp, QppConfig::default()).unwrap();
        assert_eq!(registry.version(), 1);
        let v1_pred = registry
            .current()
            .predict_checked(probe, Method::Hybrid(PlanOrdering::ErrorBased))
            .value;

        // Promote a retrained candidate (trained on half the data so its
        // content — and predictions — differ from v1).
        let half: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
        let candidate = QppPredictor::train(&half, QppConfig::default()).unwrap();
        let v2 = registry.promote(candidate).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(registry.versions(), vec![1, 2]);
        assert!(registry.snapshot_path(2).exists());

        // Reopen from disk: the latest version serves.
        let reopened = ModelRegistry::open(&dir, QppConfig::default()).unwrap();
        assert_eq!(reopened.version(), 2);
        let a = registry
            .current()
            .predict_checked(probe, Method::Hybrid(PlanOrdering::ErrorBased))
            .value;
        let b = reopened
            .current()
            .predict_checked(probe, Method::Hybrid(PlanOrdering::ErrorBased))
            .value;
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");

        // Rollback restores version 1's predictions exactly.
        let back_to = registry.rollback().unwrap();
        assert_eq!(back_to, 1);
        assert_eq!(registry.versions(), vec![1]);
        assert!(!registry.snapshot_path(2).exists());
        let restored = registry
            .current()
            .predict_checked(probe, Method::Hybrid(PlanOrdering::ErrorBased))
            .value;
        assert!((restored - v1_pred).abs() < 1e-12);

        // No further rollback possible.
        assert!(matches!(
            registry.rollback(),
            Err(QppError::InvalidSnapshot(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_snapshot_on_disk_is_rejected_at_open() {
        let dir = temp_dir("corrupt-open");
        let (_, qpp) = trained();
        let registry = ModelRegistry::create(&dir, qpp, QppConfig::default()).unwrap();
        let path = registry.snapshot_path(1);
        // Torn write: chop the file.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match ModelRegistry::open(&dir, QppConfig::default()) {
            Err(QppError::InvalidSnapshot(msg)) => {
                assert!(msg.contains("truncated") || msg.contains("checksum"), "{msg}")
            }
            other => panic!("expected InvalidSnapshot, got {:?}", other.err()),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_swap_keeps_old_references_alive_and_clears_the_cache() {
        let dir = temp_dir("hot-swap");
        let (ds, qpp) = trained();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let registry = ModelRegistry::create(&dir, qpp, QppConfig::default()).unwrap();

        let before = registry.current();
        // Warm the shared cache through the serving model.
        let _ = before
            .hybrid
            .predict_batch_cached(&refs, registry.pred_cache());
        assert!(registry.pred_cache().stats().entries > 0);

        let half: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
        let candidate = QppPredictor::train(&half, QppConfig::default()).unwrap();
        registry.promote(candidate).unwrap();

        // The pre-swap Arc still answers; the shared cache was cleared.
        assert!(before
            .predict_checked(refs[0], Method::Hybrid(PlanOrdering::ErrorBased))
            .value
            .is_finite());
        assert_eq!(registry.pred_cache().stats().entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shadow_retrain_reports_and_respects_the_margin() {
        let dir = temp_dir("shadow");
        let (ds, qpp) = trained();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let registry = ModelRegistry::create(&dir, qpp, QppConfig::default()).unwrap();

        // The incumbent was trained on this very distribution: a shadow
        // retrain on the same window should not find the margin and must
        // keep the incumbent.
        let report = registry.shadow_retrain(&refs).unwrap();
        assert!(report.incumbent_error.is_finite());
        assert!(report.candidate_error.is_finite());
        if !report.promoted {
            assert_eq!(report.version, 1);
            assert!(report.reason.contains("keeping incumbent"), "{}", report.reason);
            assert_eq!(registry.version(), 1);
        } else {
            // Noise can hand the candidate a win; then the version moved.
            assert_eq!(report.version, 2);
            assert_eq!(registry.version(), 2);
        }

        // Too little data is a typed error.
        assert!(matches!(
            registry.shadow_retrain(&refs[..2]),
            Err(QppError::NoTrainingData)
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
