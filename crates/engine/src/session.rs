//! Measure-once/answer-many sessions.
//!
//! A session captures the reconstructed estimate `x̄` from one noisy
//! measurement. By the post-processing property of differential privacy,
//! *any* function of `x̄` — in particular, answering arbitrary follow-up
//! workloads over the same domain — consumes zero additional privacy budget.

use crate::sync::{read_recover, write_recover};
use hdmm_core::{Domain, EngineError, SessionId, Workload};
use hdmm_mechanism::{ScopedExecutor, ScratchPool};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// One completed measurement: the reconstructed estimate plus its provenance.
#[derive(Debug, Clone)]
pub struct Session {
    id: SessionId,
    dataset: String,
    domain: Domain,
    x_hat: Vec<f64>,
    eps_spent: f64,
}

impl Session {
    pub(crate) fn new(
        id: SessionId,
        dataset: String,
        domain: Domain,
        x_hat: Vec<f64>,
        eps_spent: f64,
    ) -> Self {
        debug_assert_eq!(x_hat.len(), domain.size());
        Session {
            id,
            dataset,
            domain,
            x_hat,
            eps_spent,
        }
    }

    /// This session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The dataset the measurement was taken on.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The domain the measurement was taken over.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// ε consumed by the measurement backing this session.
    pub fn eps_spent(&self) -> f64 {
        self.eps_spent
    }

    /// The reconstructed data-vector estimate `x̄`.
    pub fn estimate(&self) -> &[f64] {
        &self.x_hat
    }

    /// The estimate's buffer, for the engine to reuse once the session is
    /// gone.
    pub(crate) fn into_estimate(self) -> Vec<f64> {
        self.x_hat
    }

    /// A follow-up must be over the session's domain and finite, as a
    /// served workload must.
    fn check(&self, workload: &Workload) -> Result<(), EngineError> {
        if workload.domain() != &self.domain {
            return Err(EngineError::DomainMismatch {
                expected: self.domain.clone(),
                got: workload.domain().clone(),
            });
        }
        if !workload.is_finite() {
            return Err(EngineError::NonFiniteWorkload);
        }
        Ok(())
    }

    /// Answers an arbitrary workload over the session's domain from the
    /// reconstructed estimate — pure post-processing, zero additional ε.
    pub fn answer(&self, workload: &Workload) -> Result<Vec<f64>, EngineError> {
        self.check(workload)?;
        Ok(workload.answer(&self.x_hat))
    }

    /// Answers a batch of follow-up workloads against this session's
    /// estimate, fanned over `exec`: each workload's `W·x̄` pass runs as an
    /// independent task in a scratch of `scratches`, so entry `i` is
    /// bitwise identical to `self.answer(workloads[i])` at any lane count,
    /// and like any post-processing of `x̄` the batch consumes zero
    /// additional privacy budget. The engine routes
    /// [`serve_batch_from_session`] here with its batch lanes and its
    /// request scratches.
    ///
    /// All-or-nothing: a domain mismatch or a non-finite entry in any
    /// workload fails the batch before anything is answered.
    ///
    /// [`serve_batch_from_session`]: crate::Engine::serve_batch_from_session
    pub fn answer_batch(
        &self,
        workloads: &[&Workload],
        exec: &ScopedExecutor,
        scratches: &ScratchPool,
    ) -> Result<Vec<Vec<f64>>, EngineError> {
        workloads.iter().try_for_each(|w| self.check(w))?;
        Ok(hdmm_mechanism::answer_many_from_parts(
            &self.x_hat,
            workloads,
            exec,
            scratches,
        ))
    }
}

/// Capacity-bounded session registry. The engine mints session ids in
/// increasing order, so the smallest key is the oldest session and eviction
/// drops it first.
pub(crate) struct SessionStore {
    sessions: RwLock<BTreeMap<SessionId, Arc<Session>>>,
    capacity: usize,
}

impl SessionStore {
    pub(crate) fn new(capacity: usize) -> Self {
        SessionStore {
            sessions: RwLock::new(BTreeMap::new()),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn get(&self, id: SessionId) -> Option<Arc<Session>> {
        read_recover(&self.sessions).get(&id).cloned()
    }

    /// Stores `session`, returning the oldest one when the store was full.
    pub(crate) fn insert(&self, session: Arc<Session>) -> Option<Arc<Session>> {
        let mut sessions = write_recover(&self.sessions);
        sessions.insert(session.id(), session);
        if sessions.len() > self.capacity {
            return sessions.pop_first().map(|(_, evicted)| evicted);
        }
        None
    }

    pub(crate) fn remove(&self, id: SessionId) -> Option<Arc<Session>> {
        write_recover(&self.sessions).remove(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::builders;

    fn session() -> Session {
        Session::new(
            SessionId(1),
            "d".into(),
            Domain::one_dim(4),
            vec![1.0, 2.0, 3.0, 4.0],
            0.5,
        )
    }

    #[test]
    fn answers_any_workload_over_the_domain() {
        let s = session();
        let prefix = builders::prefix_1d(4);
        assert_eq!(s.answer(&prefix).unwrap(), vec![1.0, 3.0, 6.0, 10.0]);
        // A different workload over the same domain works from the same x̄.
        let ranges = builders::all_range_1d(4);
        assert_eq!(s.answer(&ranges).unwrap().len(), ranges.query_count());
        assert!(
            (s.eps_spent() - 0.5).abs() < 1e-12,
            "answering spends nothing"
        );
    }

    #[test]
    fn rejects_mismatched_domains() {
        let s = session();
        let other = builders::prefix_1d(8);
        assert!(matches!(
            s.answer(&other),
            Err(EngineError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn batch_matches_individual_answers_bitwise_at_any_lane_count() {
        let s = session();
        let prefix = builders::prefix_1d(4);
        let ranges = builders::all_range_1d(4);
        let workloads: [&hdmm_core::Workload; 3] = [&prefix, &ranges, &prefix];
        let pool = ScratchPool::default();
        let serial = s
            .answer_batch(&workloads, &ScopedExecutor::new(1), &pool)
            .unwrap();
        for (got, w) in serial.iter().zip(workloads) {
            assert_eq!(got, &s.answer(w).unwrap());
        }
        for threads in [2, 4, 7] {
            let par = s
                .answer_batch(&workloads, &ScopedExecutor::new(threads), &pool)
                .unwrap();
            assert_eq!(serial, par, "lane count {threads} changed answers");
        }
    }

    fn open(store: &SessionStore, id: u64) {
        let mut s = session();
        s.id = SessionId(id);
        store.insert(Arc::new(s));
    }

    /// Sessions closed as soon as they open leave no trail: the store stays
    /// bounded, and eviction still drops the oldest live session first.
    #[test]
    fn closed_sessions_leave_the_store_bounded() {
        let store = SessionStore::new(4);
        for id in 0..10_000 {
            open(&store, id);
            assert!(store.remove(SessionId(id)).is_some());
            assert!(read_recover(&store.sessions).is_empty());
        }
        for id in 10_000..10_005 {
            open(&store, id);
        }
        assert_eq!(read_recover(&store.sessions).len(), 4);
        assert!(store.get(SessionId(10_000)).is_none(), "oldest evicted");
        assert!((10_001..10_005).all(|id| store.get(SessionId(id)).is_some()));
    }

    /// Sessions can land out of mint order (concurrent serves insert after
    /// minting); eviction follows the ids, not the insertion order.
    #[test]
    fn eviction_drops_the_earliest_minted_id() {
        let store = SessionStore::new(2);
        for id in [3, 1, 2] {
            open(&store, id);
        }
        assert!(store.get(SessionId(1)).is_none(), "smallest id evicted");
        assert!(store.get(SessionId(2)).is_some() && store.get(SessionId(3)).is_some());
    }

    #[test]
    fn batch_is_all_or_nothing_on_domain_mismatch() {
        let s = session();
        let good = builders::prefix_1d(4);
        let bad = builders::prefix_1d(8);
        assert!(matches!(
            s.answer_batch(
                &[&good, &bad],
                &ScopedExecutor::new(1),
                &ScratchPool::default()
            ),
            Err(EngineError::DomainMismatch { .. })
        ));
    }
}
