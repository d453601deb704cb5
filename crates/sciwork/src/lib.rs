//! Scientific workflow provenance — the SciLedger \[36\] / SciBlock \[28\]
//! reproduction.
//!
//! SciLedger stores scientific workflow provenance on a blockchain and adds
//! what earlier systems (BlockFlow \[22\], SmartProvenance \[63\]) lacked:
//! support for *multiple concurrent workflows*, *complex operations*
//! (branching and merging task graphs) and an *invalidation mechanism* so a
//! flawed task can be retracted together with every result derived from it
//! after the flaw — SciBlock's timestamp rule. Re-execution then rebuilds
//! the invalidated portion as new task versions.
//!
//! The workflow lifecycle (the paper's Figure 4, after Ludäscher et al.
//! \[50\]) is modeled by [`Lifecycle`]: compose → publish → execute → analyze
//! → (invalidate / re-execute) — experiment F4 walks it end to end.

pub mod bloxberg;
pub mod eo;

use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_crypto::sha256::hash_parts;
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use blockprov_provenance::query::ProvQuery;
use std::collections::BTreeMap;
use std::fmt;

/// Workflow identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkflowId(pub u64);

/// Task identifier (unique across workflows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// Task lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Declared but not yet run.
    Planned,
    /// Ran and produced output.
    Executed,
    /// Retracted by an invalidation.
    Invalidated,
}

/// A task node in a workflow DAG.
#[derive(Debug, Clone)]
pub struct Task {
    /// Identifier.
    pub id: TaskId,
    /// Owning workflow.
    pub workflow: WorkflowId,
    /// Human-readable operation name.
    pub name: String,
    /// Upstream dependencies.
    pub inputs: Vec<TaskId>,
    /// State.
    pub status: TaskStatus,
    /// Version (bumped by re-execution).
    pub version: u32,
    /// Record anchoring the execution, if executed.
    pub execution_record: Option<RecordId>,
    /// Executing agent, if executed.
    pub executed_by: Option<AccountId>,
}

/// Domain errors.
#[derive(Debug)]
pub enum SciError {
    /// Unknown workflow.
    UnknownWorkflow(WorkflowId),
    /// Unknown task.
    UnknownTask(TaskId),
    /// Dependency not satisfied (input task not executed / invalidated).
    InputNotReady(TaskId),
    /// Task is not in a state that permits the operation.
    BadStatus(TaskId, TaskStatus),
    /// Input task belongs to a different workflow and sharing is disabled.
    CrossWorkflowInput(TaskId),
    /// Ledger-level failure.
    Core(CoreError),
}

impl fmt::Display for SciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SciError::UnknownWorkflow(w) => write!(f, "unknown workflow {w:?}"),
            SciError::UnknownTask(t) => write!(f, "unknown task {t:?}"),
            SciError::InputNotReady(t) => write!(f, "input task {t:?} not executed"),
            SciError::BadStatus(t, s) => write!(f, "task {t:?} in state {s:?}"),
            SciError::CrossWorkflowInput(t) => write!(f, "input {t:?} from foreign workflow"),
            SciError::Core(e) => write!(f, "ledger: {e}"),
        }
    }
}

impl std::error::Error for SciError {}

impl From<CoreError> for SciError {
    fn from(e: CoreError) -> Self {
        SciError::Core(e)
    }
}

/// A workflow definition.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Identifier.
    pub id: WorkflowId,
    /// Name.
    pub name: String,
    /// Owner (intellectual-property holder — Table 2 row 1).
    pub owner: AccountId,
    /// Whether other workflows may consume this workflow's outputs.
    pub shareable: bool,
    /// Member tasks.
    pub tasks: Vec<TaskId>,
}

/// The multi-workflow provenance ledger.
pub struct SciLedger {
    ledger: ProvenanceLedger,
    workflows: BTreeMap<WorkflowId, Workflow>,
    tasks: BTreeMap<TaskId, Task>,
    next_workflow: u64,
    next_task: u64,
}

impl Default for SciLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl SciLedger {
    /// Open with a consortium configuration (SciLedger's deployment model).
    pub fn new() -> Self {
        let config = LedgerConfig::consortium(4).with_domain(Domain::ScientificCollaboration);
        Self {
            ledger: ProvenanceLedger::open(config),
            workflows: BTreeMap::new(),
            tasks: BTreeMap::new(),
            next_workflow: 0,
            next_task: 0,
        }
    }

    /// Register a researcher.
    pub fn register_researcher(&mut self, name: &str) -> Result<AccountId, SciError> {
        Ok(self.ledger.register_agent(name)?)
    }

    /// Create (compose + publish) a workflow.
    pub fn create_workflow(&mut self, owner: AccountId, name: &str, shareable: bool) -> WorkflowId {
        let id = WorkflowId(self.next_workflow);
        self.next_workflow += 1;
        self.workflows.insert(
            id,
            Workflow {
                id,
                name: name.to_string(),
                owner,
                shareable,
                tasks: Vec::new(),
            },
        );
        id
    }

    /// Declare a task with dependencies; branching = several tasks sharing
    /// an input, merging = one task with several inputs.
    pub fn add_task(
        &mut self,
        workflow: WorkflowId,
        name: &str,
        inputs: &[TaskId],
    ) -> Result<TaskId, SciError> {
        let wf = self
            .workflows
            .get(&workflow)
            .ok_or(SciError::UnknownWorkflow(workflow))?;
        for input in inputs {
            let task = self.tasks.get(input).ok_or(SciError::UnknownTask(*input))?;
            if task.workflow != workflow {
                let src = self
                    .workflows
                    .get(&task.workflow)
                    .ok_or(SciError::UnknownWorkflow(task.workflow))?;
                if !src.shareable {
                    return Err(SciError::CrossWorkflowInput(*input));
                }
            }
        }
        let _ = wf;
        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.tasks.insert(
            id,
            Task {
                id,
                workflow,
                name: name.to_string(),
                inputs: inputs.to_vec(),
                status: TaskStatus::Planned,
                version: 1,
                execution_record: None,
                executed_by: None,
            },
        );
        self.workflows
            .get_mut(&workflow)
            .expect("checked")
            .tasks
            .push(id);
        Ok(id)
    }

    /// Execute a task: all inputs must be executed and valid. Anchors an
    /// execution record carrying the Table 1 scientific-collaboration
    /// fields.
    pub fn execute_task(
        &mut self,
        task_id: TaskId,
        agent: AccountId,
        output: &[u8],
    ) -> Result<RecordId, SciError> {
        let task = self
            .tasks
            .get(&task_id)
            .ok_or(SciError::UnknownTask(task_id))?
            .clone();
        if task.status != TaskStatus::Planned {
            return Err(SciError::BadStatus(task_id, task.status));
        }
        let mut parent_records = Vec::new();
        for input in &task.inputs {
            let dep = self.tasks.get(input).ok_or(SciError::UnknownTask(*input))?;
            match (dep.status, dep.execution_record) {
                (TaskStatus::Executed, Some(rec)) => parent_records.push(rec),
                _ => return Err(SciError::InputNotReady(*input)),
            }
        }
        let ts = self.ledger.advance_clock();
        let input_digest = hash_parts(
            "sciwork-inputs",
            &task
                .inputs
                .iter()
                .map(|t| t.0.to_le_bytes())
                .collect::<Vec<_>>()
                .iter()
                .map(|b| b.as_slice())
                .collect::<Vec<_>>(),
        );
        let mut record = ProvenanceRecord::new(
            &format!("task-{}", task_id.0),
            agent,
            Action::Execute,
            ts,
            Domain::ScientificCollaboration,
        )
        .with_field("task_id", &task_id.0.to_string())
        .with_field("workflow_id", &task.workflow.0.to_string())
        .with_field("execution_time", &ts.to_string())
        .with_field("user_id", &agent.to_string())
        .with_field("input_data", &input_digest.short())
        .with_field(
            "output_data",
            &blockprov_crypto::sha256::sha256(output).short(),
        )
        .with_content(output);
        for parent in parent_records {
            record = record.with_parent(parent);
        }
        let rid = self.ledger.submit_record(record, output)?;
        let task = self.tasks.get_mut(&task_id).expect("exists");
        task.status = TaskStatus::Executed;
        task.execution_record = Some(rid);
        task.executed_by = Some(agent);
        Ok(rid)
    }

    /// Invalidate a task (SciBlock timestamp rule): the task and every
    /// downstream execution at or after `cutoff_ms` are retracted. Returns
    /// the retracted task ids.
    pub fn invalidate_task(
        &mut self,
        task_id: TaskId,
        cutoff_ms: u64,
        by: AccountId,
    ) -> Result<Vec<TaskId>, SciError> {
        let task = self
            .tasks
            .get(&task_id)
            .ok_or(SciError::UnknownTask(task_id))?;
        let Some(rec) = task.execution_record else {
            return Err(SciError::BadStatus(task_id, task.status));
        };
        let ts = self.ledger.advance_clock();
        // Anchor the invalidation itself as provenance.
        let inval_record = ProvenanceRecord::new(
            &format!("task-{}", task_id.0),
            by,
            Action::Invalidate,
            ts,
            Domain::ScientificCollaboration,
        )
        .with_field("task_id", &task_id.0.to_string())
        .with_field("workflow_id", &task.workflow.0.to_string())
        .with_field("invalidated_results", &rec.to_string())
        .with_parent(rec);
        self.ledger.submit_record(inval_record, &[])?;

        // Propagate through the provenance DAG, then map back to tasks.
        let hit_records = self
            .ledger_graph_invalidate(&rec, cutoff_ms)
            .map_err(SciError::Core)?;
        let mut retracted = Vec::new();
        for t in self.tasks.values_mut() {
            if let Some(r) = t.execution_record {
                if hit_records.contains(&r) && t.status == TaskStatus::Executed {
                    t.status = TaskStatus::Invalidated;
                    retracted.push(t.id);
                }
            }
        }
        Ok(retracted)
    }

    fn ledger_graph_invalidate(
        &mut self,
        rec: &RecordId,
        cutoff_ms: u64,
    ) -> Result<Vec<RecordId>, CoreError> {
        // ProvenanceLedger does not expose graph mutation; rebuild the hit
        // set here via descendants + timestamps, mirroring
        // `ProvGraph::invalidate_from` (which domain crates cannot call
        // through the shared reference).
        let graph = self.ledger.graph();
        let mut hit = vec![*rec];
        let descendants = graph.descendants(rec).map_err(CoreError::Graph)?;
        for d in descendants {
            if let Some(r) = graph.get(&d) {
                if r.timestamp_ms >= cutoff_ms {
                    hit.push(d);
                }
            }
        }
        Ok(hit)
    }

    /// Re-execute an invalidated task as a new version (Table 2:
    /// "flexibility for re-execution").
    pub fn reexecute_task(
        &mut self,
        task_id: TaskId,
        agent: AccountId,
        output: &[u8],
    ) -> Result<RecordId, SciError> {
        let task = self
            .tasks
            .get_mut(&task_id)
            .ok_or(SciError::UnknownTask(task_id))?;
        if task.status != TaskStatus::Invalidated {
            return Err(SciError::BadStatus(task_id, task.status));
        }
        task.status = TaskStatus::Planned;
        task.version += 1;
        task.execution_record = None;
        self.execute_task(task_id, agent, output)
    }

    /// Seal pending provenance into a block.
    pub fn seal(&mut self) -> Result<(), SciError> {
        self.ledger.seal_block()?;
        Ok(())
    }

    /// Task lookup.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(&id)
    }

    /// Workflow lookup.
    pub fn workflow(&self, id: WorkflowId) -> Option<&Workflow> {
        self.workflows.get(&id)
    }

    /// Lineage of a task's execution (ancestor records).
    pub fn task_lineage(&mut self, id: TaskId) -> Result<Vec<RecordId>, SciError> {
        let task = self.tasks.get(&id).ok_or(SciError::UnknownTask(id))?;
        let subject = format!("task-{}", task.id.0);
        Ok(self.ledger.query(&ProvQuery::Lineage(subject)).ids)
    }

    /// The underlying ledger (experiments).
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }
}

/// The Figure 4 lifecycle stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleStage {
    /// Design the workflow DAG.
    Compose,
    /// Share it with collaborators.
    Publish,
    /// Run the tasks.
    Execute,
    /// Inspect results.
    Analyze,
    /// Retract flawed results.
    Invalidate,
    /// Re-run retracted tasks.
    Reexecute,
}

/// A scripted walk through the Figure 4 lifecycle (experiment F4).
pub struct Lifecycle {
    /// Stages visited, in order.
    pub log: Vec<LifecycleStage>,
}

impl Lifecycle {
    /// Run the canonical lifecycle on a fresh ledger; returns the stage log
    /// and the ledger for inspection.
    pub fn run() -> Result<(Lifecycle, SciLedger), SciError> {
        let mut sci = SciLedger::new();
        let mut log = Vec::new();

        log.push(LifecycleStage::Compose);
        let alice = sci.register_researcher("alice")?;
        let bob = sci.register_researcher("bob")?;
        let wf = sci.create_workflow(alice, "genome-pipeline", true);
        let ingest = sci.add_task(wf, "ingest", &[])?;
        let clean = sci.add_task(wf, "clean", &[ingest])?;
        let align_a = sci.add_task(wf, "align-a", &[clean])?; // branch
        let align_b = sci.add_task(wf, "align-b", &[clean])?; // branch
        let merge = sci.add_task(wf, "merge", &[align_a, align_b])?; // merge

        log.push(LifecycleStage::Publish);
        // (Publication = the workflow exists on the shared ledger.)

        log.push(LifecycleStage::Execute);
        sci.execute_task(ingest, alice, b"raw reads")?;
        sci.execute_task(clean, alice, b"clean reads")?;
        sci.execute_task(align_a, bob, b"alignment A")?;
        sci.execute_task(align_b, bob, b"alignment B")?;
        sci.execute_task(merge, alice, b"consensus")?;
        sci.seal()?;

        log.push(LifecycleStage::Analyze);
        // Analysis finds the cleaning step was flawed.
        log.push(LifecycleStage::Invalidate);
        let retracted = sci.invalidate_task(clean, 0, alice)?;
        debug_assert!(retracted.len() >= 3, "clean + both alignments + merge");

        log.push(LifecycleStage::Reexecute);
        sci.reexecute_task(clean, alice, b"clean reads v2")?;
        sci.seal()?;

        Ok((Lifecycle { log }, sci))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SciLedger, AccountId, WorkflowId) {
        let mut sci = SciLedger::new();
        let alice = sci.register_researcher("alice").unwrap();
        let wf = sci.create_workflow(alice, "wf", true);
        (sci, alice, wf)
    }

    #[test]
    fn linear_workflow_executes_in_order() {
        let (mut sci, alice, wf) = setup();
        let t1 = sci.add_task(wf, "a", &[]).unwrap();
        let t2 = sci.add_task(wf, "b", &[t1]).unwrap();
        // Cannot execute t2 before t1.
        assert!(matches!(
            sci.execute_task(t2, alice, b"out"),
            Err(SciError::InputNotReady(_))
        ));
        sci.execute_task(t1, alice, b"out1").unwrap();
        sci.execute_task(t2, alice, b"out2").unwrap();
        assert_eq!(sci.task(t2).unwrap().status, TaskStatus::Executed);
    }

    #[test]
    fn double_execution_rejected() {
        let (mut sci, alice, wf) = setup();
        let t = sci.add_task(wf, "a", &[]).unwrap();
        sci.execute_task(t, alice, b"x").unwrap();
        assert!(matches!(
            sci.execute_task(t, alice, b"y"),
            Err(SciError::BadStatus(_, TaskStatus::Executed))
        ));
    }

    #[test]
    fn branch_and_merge_lineage() {
        let (mut sci, alice, wf) = setup();
        let root = sci.add_task(wf, "root", &[]).unwrap();
        let left = sci.add_task(wf, "left", &[root]).unwrap();
        let right = sci.add_task(wf, "right", &[root]).unwrap();
        let join = sci.add_task(wf, "join", &[left, right]).unwrap();
        sci.execute_task(root, alice, b"r").unwrap();
        sci.execute_task(left, alice, b"l").unwrap();
        sci.execute_task(right, alice, b"rr").unwrap();
        sci.execute_task(join, alice, b"j").unwrap();
        let lineage = sci.task_lineage(join).unwrap();
        // join's record + left + right + root.
        assert_eq!(lineage.len(), 4);
    }

    #[test]
    fn invalidation_cascades_to_descendants() {
        let (mut sci, alice, wf) = setup();
        let a = sci.add_task(wf, "a", &[]).unwrap();
        let b = sci.add_task(wf, "b", &[a]).unwrap();
        let c = sci.add_task(wf, "c", &[b]).unwrap();
        sci.execute_task(a, alice, b"1").unwrap();
        sci.execute_task(b, alice, b"2").unwrap();
        sci.execute_task(c, alice, b"3").unwrap();
        let retracted = sci.invalidate_task(b, 0, alice).unwrap();
        assert_eq!(retracted, vec![b, c]);
        assert_eq!(sci.task(a).unwrap().status, TaskStatus::Executed);
        assert_eq!(sci.task(c).unwrap().status, TaskStatus::Invalidated);
    }

    #[test]
    fn reexecution_bumps_version_and_requires_invalidated_state() {
        let (mut sci, alice, wf) = setup();
        let a = sci.add_task(wf, "a", &[]).unwrap();
        sci.execute_task(a, alice, b"1").unwrap();
        assert!(matches!(
            sci.reexecute_task(a, alice, b"2"),
            Err(SciError::BadStatus(..))
        ));
        sci.invalidate_task(a, 0, alice).unwrap();
        sci.reexecute_task(a, alice, b"2").unwrap();
        let task = sci.task(a).unwrap();
        assert_eq!(task.version, 2);
        assert_eq!(task.status, TaskStatus::Executed);
    }

    #[test]
    fn cross_workflow_sharing_respects_shareable_flag() {
        let mut sci = SciLedger::new();
        let alice = sci.register_researcher("alice").unwrap();
        let open_wf = sci.create_workflow(alice, "open", true);
        let closed_wf = sci.create_workflow(alice, "closed", false);
        let open_task = sci.add_task(open_wf, "src", &[]).unwrap();
        let closed_task = sci.add_task(closed_wf, "secret", &[]).unwrap();
        let consumer_wf = sci.create_workflow(alice, "consumer", true);
        // Consuming from the shareable workflow works…
        sci.add_task(consumer_wf, "ok", &[open_task]).unwrap();
        // …from the private one does not (IP protection, Table 2).
        assert!(matches!(
            sci.add_task(consumer_wf, "steal", &[closed_task]),
            Err(SciError::CrossWorkflowInput(_))
        ));
    }

    #[test]
    fn lifecycle_walks_all_figure4_stages() {
        let (lifecycle, sci) = Lifecycle::run().unwrap();
        assert_eq!(
            lifecycle.log,
            vec![
                LifecycleStage::Compose,
                LifecycleStage::Publish,
                LifecycleStage::Execute,
                LifecycleStage::Analyze,
                LifecycleStage::Invalidate,
                LifecycleStage::Reexecute,
            ]
        );
        sci.ledger().verify_chain().unwrap();
    }

    #[test]
    fn execution_records_carry_table1_fields() {
        let (mut sci, alice, wf) = setup();
        let t = sci.add_task(wf, "a", &[]).unwrap();
        let rid = sci.execute_task(t, alice, b"out").unwrap();
        let record = sci.ledger().record(&rid).unwrap();
        for field in [
            "task_id",
            "workflow_id",
            "execution_time",
            "user_id",
            "input_data",
            "output_data",
        ] {
            assert!(record.fields.contains_key(field), "missing {field}");
        }
    }
}
