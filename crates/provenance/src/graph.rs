//! The provenance DAG: derivation edges, traversal and invalidation.
//!
//! Records form a DAG by construction (a record's parents must already
//! exist when it is inserted, so no cycle can be created). Invalidation
//! follows SciBlock \[28\]: invalidating a record marks it and every
//! *descendant whose timestamp is later than the invalidation point* —
//! results computed before the flaw was introduced stay valid.

use crate::model::{ProvenanceRecord, RecordId};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Graph mutation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A parent edge points at an unknown record.
    UnknownParent(RecordId),
    /// The record id is already present.
    DuplicateRecord(RecordId),
    /// Record not found.
    UnknownRecord(RecordId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownParent(id) => write!(f, "unknown parent {id}"),
            GraphError::DuplicateRecord(id) => write!(f, "duplicate record {id}"),
            GraphError::UnknownRecord(id) => write!(f, "unknown record {id}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// In-memory provenance DAG with derivation indexes.
#[derive(Debug, Default)]
pub struct ProvGraph {
    records: HashMap<RecordId, ProvenanceRecord>,
    /// parent → children.
    children: HashMap<RecordId, Vec<RecordId>>,
    /// Insertion order (stable iteration for queries).
    order: Vec<RecordId>,
    invalidated: BTreeSet<RecordId>,
}

impl ProvGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Insert a record; its parents must already be present (DAG invariant).
    pub fn insert(&mut self, record: ProvenanceRecord) -> Result<RecordId, GraphError> {
        let id = record.id();
        self.insert_with_id(id, record)?;
        Ok(id)
    }

    /// [`ProvGraph::insert`] for a caller that has already computed
    /// `record.id()` (hashing the record's encoding is most of an insert's
    /// cost). `id` must be that digest.
    pub fn insert_with_id(
        &mut self,
        id: RecordId,
        record: ProvenanceRecord,
    ) -> Result<(), GraphError> {
        debug_assert_eq!(id, record.id(), "precomputed id does not match the record");
        if self.records.contains_key(&id) {
            return Err(GraphError::DuplicateRecord(id));
        }
        for parent in &record.parents {
            if !self.records.contains_key(parent) {
                return Err(GraphError::UnknownParent(*parent));
            }
        }
        for parent in &record.parents {
            self.children.entry(*parent).or_default().push(id);
        }
        self.order.push(id);
        self.records.insert(id, record);
        Ok(())
    }

    /// Fetch a record.
    pub fn get(&self, id: &RecordId) -> Option<&ProvenanceRecord> {
        self.records.get(id)
    }

    /// Records in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&RecordId, &ProvenanceRecord)> {
        self.order.iter().map(move |id| (id, &self.records[id]))
    }

    /// Direct children of a record.
    pub fn children_of(&self, id: &RecordId) -> &[RecordId] {
        self.children.get(id).map_or(&[], Vec::as_slice)
    }

    /// All ancestors (transitive parents), breadth-first, nearest first.
    pub fn ancestors(&self, id: &RecordId) -> Result<Vec<RecordId>, GraphError> {
        if !self.records.contains_key(id) {
            return Err(GraphError::UnknownRecord(*id));
        }
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<RecordId> = self.records[id].parents.iter().copied().collect();
        while let Some(next) = queue.pop_front() {
            if !seen.insert(next) {
                continue;
            }
            out.push(next);
            queue.extend(self.records[&next].parents.iter().copied());
        }
        Ok(out)
    }

    /// All descendants (transitive children), breadth-first.
    pub fn descendants(&self, id: &RecordId) -> Result<Vec<RecordId>, GraphError> {
        if !self.records.contains_key(id) {
            return Err(GraphError::UnknownRecord(*id));
        }
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<RecordId> = self.children_of(id).iter().copied().collect();
        while let Some(next) = queue.pop_front() {
            if !seen.insert(next) {
                continue;
            }
            out.push(next);
            queue.extend(self.children_of(&next).iter().copied());
        }
        Ok(out)
    }

    /// Whether a record has been invalidated.
    pub fn is_invalidated(&self, id: &RecordId) -> bool {
        self.invalidated.contains(id)
    }

    /// Invalidate `id` and every descendant with `timestamp_ms >= cutoff_ms`
    /// (SciBlock's timestamp rule). Returns the ids invalidated, root first.
    pub fn invalidate_from(
        &mut self,
        id: &RecordId,
        cutoff_ms: u64,
    ) -> Result<Vec<RecordId>, GraphError> {
        let descendants = self.descendants(id)?;
        let mut hit = vec![*id];
        hit.extend(
            descendants
                .into_iter()
                .filter(|d| self.records[d].timestamp_ms >= cutoff_ms),
        );
        for h in &hit {
            self.invalidated.insert(*h);
        }
        Ok(hit)
    }

    /// Count of invalidated records.
    pub fn invalidated_count(&self) -> usize {
        self.invalidated.len()
    }

    /// Valid (non-invalidated) records in insertion order.
    pub fn valid_records(&self) -> impl Iterator<Item = (&RecordId, &ProvenanceRecord)> {
        self.iter()
            .filter(move |(id, _)| !self.invalidated.contains(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Action, Domain};
    use blockprov_ledger::tx::AccountId;

    fn rec(subject: &str, ts: u64, parents: Vec<RecordId>) -> ProvenanceRecord {
        let mut r = ProvenanceRecord::new(
            subject,
            AccountId::from_name("u"),
            Action::Update,
            ts,
            Domain::Generic,
        );
        r.parents = parents;
        r
    }

    /// Build:  a(10) → b(20) → d(40)
    ///              ↘ c(30) ↗
    fn diamond() -> (ProvGraph, [RecordId; 4]) {
        let mut g = ProvGraph::new();
        let a = g.insert(rec("a", 10, vec![])).unwrap();
        let b = g.insert(rec("b", 20, vec![a])).unwrap();
        let c = g.insert(rec("c", 30, vec![a])).unwrap();
        let d = g.insert(rec("d", 40, vec![b, c])).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn parents_must_exist() {
        let mut g = ProvGraph::new();
        let ghost = rec("x", 1, vec![]).id();
        assert_eq!(
            g.insert(rec("y", 2, vec![ghost])),
            Err(GraphError::UnknownParent(ghost))
        );
    }

    #[test]
    fn duplicates_rejected() {
        let mut g = ProvGraph::new();
        g.insert(rec("a", 1, vec![])).unwrap();
        assert!(matches!(
            g.insert(rec("a", 1, vec![])),
            Err(GraphError::DuplicateRecord(_))
        ));
    }

    #[test]
    fn ancestry_and_descent() {
        let (g, [a, b, c, d]) = diamond();
        let anc: BTreeSet<_> = g.ancestors(&d).unwrap().into_iter().collect();
        assert_eq!(anc, [a, b, c].into_iter().collect());
        let desc: BTreeSet<_> = g.descendants(&a).unwrap().into_iter().collect();
        assert_eq!(desc, [b, c, d].into_iter().collect());
        assert!(g.ancestors(&a).unwrap().is_empty());
        assert!(g.descendants(&d).unwrap().is_empty());
    }

    #[test]
    fn diamond_traversal_deduplicates() {
        let (g, [a, _, _, d]) = diamond();
        // `a` is reachable from `d` via two paths but appears once.
        let anc = g.ancestors(&d).unwrap();
        assert_eq!(anc.iter().filter(|x| **x == a).count(), 1);
    }

    #[test]
    fn invalidation_propagates_by_timestamp() {
        let (mut g, [_a, b, c, d]) = diamond();
        // Invalidate b (ts 20) with cutoff 35: d (40) falls, c (30) is not a
        // descendant of b so it stays valid regardless.
        let hit = g.invalidate_from(&b, 35).unwrap();
        assert_eq!(hit, vec![b, d]);
        assert!(g.is_invalidated(&b) && g.is_invalidated(&d));
        assert!(!g.is_invalidated(&c));
        assert_eq!(g.invalidated_count(), 2);
        assert_eq!(g.valid_records().count(), 2);
    }

    #[test]
    fn invalidation_cutoff_spares_earlier_descendants() {
        let mut g = ProvGraph::new();
        let a = g.insert(rec("a", 10, vec![])).unwrap();
        let b = g.insert(rec("b", 20, vec![a])).unwrap();
        let c = g.insert(rec("c", 90, vec![b])).unwrap();
        // Cutoff 50: b (20) is a descendant but predates the cutoff → valid.
        let hit = g.invalidate_from(&a, 50).unwrap();
        assert_eq!(hit, vec![a, c]);
        assert!(!g.is_invalidated(&b));
    }

    #[test]
    fn unknown_record_errors() {
        let g = ProvGraph::new();
        let ghost = rec("x", 1, vec![]).id();
        assert!(matches!(
            g.ancestors(&ghost),
            Err(GraphError::UnknownRecord(_))
        ));
        assert!(matches!(
            g.descendants(&ghost),
            Err(GraphError::UnknownRecord(_))
        ));
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let (g, [a, b, c, d]) = diamond();
        let ids: Vec<RecordId> = g.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![a, b, c, d]);
    }
}
