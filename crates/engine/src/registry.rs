//! The dataset and tenant registry: what is registered, under which budget,
//! owned by whom.
//!
//! The dataset map is an `RwLock<HashMap>` of immutable-after-registration
//! entries — serving takes a brief read lock to clone a handle, and only
//! registration writes. Per-dataset mutable state (the ε [`Ledgers`], the
//! RNG stream) sits behind its own short-critical-section mutexes, so
//! datasets never contend with each other. Every registration and quota
//! change is appended to the ledger log *before* it is applied, and with a
//! durable log, spend recovered from it re-attaches by dataset name
//! (`docs/DURABILITY.md` §6).

use crate::accountant::{EpsAccountant, TenantLedger};
use crate::reservation::Ledgers;
use crate::sync::{lock_recover, read_recover, write_recover};
use crate::telemetry::{DatasetMetrics, TenantMetrics};
use crate::wal::{RecoveredDataset, RecoveredState, Wal, WalRecord};
use hdmm_core::codec::checksum;
use hdmm_core::{Domain, EngineError, ShardedDataVector, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Registration-time dataset parameters beyond the domain and data.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Total ε budget granted to the dataset.
    pub total_eps: f64,
    /// Number of leading-axis slabs to partition the data vector into —
    /// the unit remote shard workers hold (clamped to `[1, n₁]`; 1 = dense).
    pub shards: usize,
    /// Owning tenant; spends are additionally charged against the tenant's
    /// quota when one is set via [`crate::Engine::set_tenant_quota`].
    pub tenant: Option<String>,
}

impl DatasetConfig {
    /// Dense, tenant-less registration with the given budget.
    pub fn new(total_eps: f64) -> Self {
        DatasetConfig {
            total_eps,
            shards: 1,
            tenant: None,
        }
    }

    /// Partitions the data vector into `shards` leading-axis slabs.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Charges this dataset's spends against `tenant`'s quota as well.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// One registered dataset. `domain` and `data` are immutable after
/// registration and read lock-free; only the ledgers and the RNG stream
/// mutate, each behind its own short-lived mutex.
pub(crate) struct DatasetState {
    /// Unique per registration in this engine: what the exact-answer cache
    /// keys a dataset's blocks by.
    pub(crate) id: u64,
    pub(crate) domain: Domain,
    pub(crate) data: ShardedDataVector,
    pub(crate) ledgers: Ledgers,
    /// Per-dataset seeded stream: one `u64` is drawn per request to seed a
    /// request-local RNG, so a dataset's answer sequence depends only on its
    /// own request order, never on what other datasets' threads are doing.
    pub(crate) rng: Mutex<StdRng>,
    /// Requests that resolved to this dataset (including failures).
    pub(crate) requests: AtomicU64,
    /// Requests that failed (typed error or panic) after resolving.
    pub(crate) failures: AtomicU64,
}

pub(crate) struct Registry {
    /// The engine's master seed; each dataset derives its stream from it.
    seed: u64,
    datasets: RwLock<HashMap<String, Arc<DatasetState>>>,
    /// The id of the next registration.
    next_id: AtomicU64,
    tenants: RwLock<HashMap<String, Arc<Mutex<TenantLedger>>>>,
    /// Spent-ε recovered from the WAL for datasets not yet re-registered;
    /// re-registration under the same name re-attaches (and removes) the
    /// entry, restoring the spend onto the fresh ledger.
    recovered: Mutex<HashMap<String, RecoveredDataset>>,
}

impl Registry {
    /// A registry over the ledger log's recovered state (empty unless a
    /// durable log was reopened): recovered tenant quotas are live
    /// immediately, recovered dataset spends wait for re-registration.
    pub(crate) fn new(seed: u64, recovered: &RecoveredState) -> Self {
        let mut tenants = HashMap::new();
        for (name, t) in &recovered.tenants {
            let mut ledger = TenantLedger::new(name.clone(), t.cap);
            ledger.restore_spent(t.spent);
            tenants.insert(name.clone(), Arc::new(Mutex::new(ledger)));
        }
        Registry {
            seed,
            datasets: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            tenants: RwLock::new(tenants),
            recovered: Mutex::new(recovered.datasets.clone().into_iter().collect()),
        }
    }

    /// Derives the dataset's RNG seed from the master seed and its name
    /// (FNV-1a, the codec's [`checksum`]), so streams are stable across runs
    /// and distinct per dataset.
    fn dataset_seed(&self, name: &str) -> u64 {
        checksum(name.as_bytes()) ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Validates and inserts a dataset.
    pub(crate) fn register(
        &self,
        name: String,
        domain: Domain,
        x: Vec<f64>,
        config: DatasetConfig,
        log: &Wal,
    ) -> Result<(), EngineError> {
        if x.len() != domain.size() {
            return Err(EngineError::DataVectorMismatch {
                expected: domain.size(),
                got: x.len(),
            });
        }
        if !(config.total_eps.is_finite() && config.total_eps > 0.0) {
            return Err(EngineError::InvalidEpsilon {
                eps: config.total_eps,
            });
        }
        let data = ShardedDataVector::partition(&domain, x, config.shards);
        let tenant = config.tenant.map(|t| {
            let ledger = self.tenant_ledger_or_default(&t);
            (t, ledger)
        });
        let seed = self.dataset_seed(&name);
        let mut datasets = write_recover(&self.datasets);
        if datasets.contains_key(&name) {
            return Err(EngineError::DatasetExists { name });
        }
        // Journal before apply (still under the write lock, so the log's
        // registration order matches the registry's): if the durable record
        // cannot be written, the registration fails and nothing was
        // inserted — no rollback path to get wrong.
        log.push(WalRecord::DatasetRegistered {
            name: name.clone(),
            total_eps: config.total_eps,
            tenant: tenant.as_ref().map(|(t, _)| t.clone()),
        })?;
        let mut ledger = EpsAccountant::new(name.clone(), config.total_eps);
        // A crash-recovered ledger under this name re-attaches here: the new
        // registration's grant and tenant win, the recovered spend is
        // restored (clamped to the grant — conservative, never negative).
        if let Some(prior) = lock_recover(&self.recovered).remove(&name) {
            ledger.restore_spent(prior.spent);
        }
        let state = DatasetState {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            domain,
            data,
            ledgers: Ledgers::new(ledger, tenant),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        };
        datasets.insert(name, Arc::new(state));
        Ok(())
    }

    /// The tenant's shared ledger, created unlimited if absent.
    fn tenant_ledger_or_default(&self, tenant: &str) -> Arc<Mutex<TenantLedger>> {
        if let Some(l) = read_recover(&self.tenants).get(tenant) {
            return Arc::clone(l);
        }
        let mut tenants = write_recover(&self.tenants);
        Arc::clone(
            tenants
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(TenantLedger::new(tenant, f64::INFINITY)))),
        )
    }

    pub(crate) fn set_tenant_quota(
        &self,
        tenant: &str,
        eps_cap: f64,
        log: &Wal,
    ) -> Result<(), EngineError> {
        if eps_cap.is_nan() || eps_cap <= 0.0 {
            return Err(EngineError::InvalidEpsilon { eps: eps_cap });
        }
        // Journal before apply: a quota that was acked must survive restart
        // (replaying a cap the crash forgot would *loosen* a tenant's limit).
        log.push(WalRecord::TenantQuotaSet {
            tenant: tenant.to_string(),
            cap: eps_cap,
        })?;
        let ledger = self.tenant_ledger_or_default(tenant);
        lock_recover(&ledger).set_cap(eps_cap);
        Ok(())
    }

    pub(crate) fn recovered_spent(&self, dataset: &str) -> Option<f64> {
        lock_recover(&self.recovered).get(dataset).map(|d| d.spent)
    }

    /// (cap, spent, remaining) ε for a tenant's quota.
    pub(crate) fn tenant_budget(&self, tenant: &str) -> Option<(f64, f64, f64)> {
        let ledger = Arc::clone(read_recover(&self.tenants).get(tenant)?);
        let l = lock_recover(&ledger);
        Some((l.cap(), l.spent(), l.remaining()))
    }

    pub(crate) fn get(&self, name: &str) -> Result<Arc<DatasetState>, EngineError> {
        read_recover(&self.datasets)
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownDataset {
                name: name.to_string(),
            })
    }

    /// Resolves a dataset handle, validating the workload domain against it
    /// (domains are immutable after registration, so one check suffices).
    pub(crate) fn resolve(
        &self,
        name: &str,
        workload: &Workload,
    ) -> Result<Arc<DatasetState>, EngineError> {
        let handle = self.get(name)?;
        if workload.domain() != &handle.domain {
            return Err(EngineError::DomainMismatch {
                expected: handle.domain.clone(),
                got: workload.domain().clone(),
            });
        }
        Ok(handle)
    }

    /// Per-dataset counters and ε gauges, sorted by name.
    pub(crate) fn dataset_metrics(&self) -> Vec<DatasetMetrics> {
        let mut datasets: Vec<DatasetMetrics> = read_recover(&self.datasets)
            .iter()
            .map(|(name, s)| {
                let (eps_total, eps_spent, eps_remaining) = s.ledgers.budget();
                DatasetMetrics {
                    name: name.clone(),
                    requests: s.requests.load(Ordering::Relaxed),
                    failures: s.failures.load(Ordering::Relaxed),
                    shards: s.data.shard_count(),
                    eps_total,
                    eps_spent,
                    eps_remaining,
                    tenant: s.ledgers.tenant_name().map(str::to_string),
                }
            })
            .collect();
        datasets.sort_by(|a, b| a.name.cmp(&b.name));
        datasets
    }

    /// Per-tenant quota gauges, sorted by tenant.
    pub(crate) fn tenant_metrics(&self) -> Vec<TenantMetrics> {
        let mut tenants: Vec<TenantMetrics> = read_recover(&self.tenants)
            .iter()
            .map(|(name, ledger)| {
                let l = lock_recover(ledger);
                TenantMetrics {
                    tenant: name.clone(),
                    eps_cap: l.cap(),
                    eps_spent: l.spent(),
                    eps_remaining: l.remaining(),
                }
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        tenants
    }
}
