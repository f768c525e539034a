//! The system (network + speeds + tasks) and the mutable assignment state.
//!
//! A *state* `x` in the paper is the distribution of tasks among processors
//! (§2): `W_i(x)` is the total weight on node `i`, `ℓ_i(x) = W_i(x)/s_i`
//! its load, and `e_i(x) = W_i(x) − w̄_i` its deviation from the balanced
//! work vector `w̄ = (m/S)·s`. [`TaskState`] tracks the per-task assignment
//! together with incrementally-maintained node aggregates; every protocol
//! round reads aggregates from the round-start snapshot and commits task
//! moves through [`TaskState::apply_moves`].

use crate::model::{SpeedVector, TaskId, TaskSet};
use slb_graphs::{Graph, NodeId};
use std::fmt;

/// Errors from assembling a [`System`] or a [`TaskState`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Speed vector length differed from the node count.
    SpeedCountMismatch {
        /// Number of nodes.
        nodes: usize,
        /// Number of speeds supplied.
        speeds: usize,
    },
    /// An initial assignment had the wrong length.
    AssignmentLengthMismatch {
        /// Number of tasks.
        tasks: usize,
        /// Length of the supplied assignment.
        assignment: usize,
    },
    /// An initial assignment placed a task on a node index `>= n`.
    AssignmentOutOfRange {
        /// The offending task.
        task: usize,
        /// The offending node index.
        node: usize,
        /// Number of nodes.
        nodes: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::SpeedCountMismatch { nodes, speeds } => {
                write!(
                    f,
                    "graph has {nodes} nodes but {speeds} speeds were supplied"
                )
            }
            ModelError::AssignmentLengthMismatch { tasks, assignment } => write!(
                f,
                "task set has {tasks} tasks but assignment has {assignment} entries"
            ),
            ModelError::AssignmentOutOfRange { task, node, nodes } => write!(
                f,
                "task {task} assigned to node {node}, but the graph has only {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// The immutable problem instance: network, speeds, and task population.
///
/// # Example
///
/// ```
/// use slb_core::model::{SpeedVector, System, TaskSet};
/// use slb_graphs::generators;
///
/// let system = System::new(
///     generators::ring(4),
///     SpeedVector::uniform(4),
///     TaskSet::uniform(40),
/// )?;
/// assert_eq!(system.average_load(), 10.0); // m/S = 40/4
/// # Ok::<(), slb_core::model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    graph: Graph,
    speeds: SpeedVector,
    tasks: TaskSet,
    balanced_work: Vec<f64>,
}

impl System {
    /// Assembles a system, checking that the speed vector matches the
    /// graph.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SpeedCountMismatch`] on length mismatch.
    pub fn new(graph: Graph, speeds: SpeedVector, tasks: TaskSet) -> Result<Self, ModelError> {
        if speeds.len() != graph.node_count() {
            return Err(ModelError::SpeedCountMismatch {
                nodes: graph.node_count(),
                speeds: speeds.len(),
            });
        }
        let balanced_work = speeds.balanced_work(tasks.total_weight());
        Ok(System {
            graph,
            speeds,
            tasks,
            balanced_work,
        })
    }

    /// The network.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The speed vector.
    #[inline]
    pub fn speeds(&self) -> &SpeedVector {
        &self.speeds
    }

    /// The task population.
    #[inline]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of tasks `m`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The average load `ℓ̄ = W/S` (equals `m/S` for uniform tasks).
    #[inline]
    pub fn average_load(&self) -> f64 {
        self.tasks.total_weight() / self.speeds.total()
    }

    /// The balanced work vector `w̄ = (W/S)·s` (§2).
    #[inline]
    pub fn balanced_work(&self) -> &[f64] {
        &self.balanced_work
    }
}

/// The mutable state `x`: per-task placement plus node aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskState {
    assignment: Vec<u32>,
    node_weight: Vec<f64>,
    node_task_count: Vec<u32>,
    moves_since_rebuild: usize,
}

/// A single committed migration: `task` moves to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The migrating task.
    pub task: TaskId,
    /// Destination node.
    pub to: NodeId,
}

/// Incremental-aggregate drift threshold: after this many task moves, the
/// node weights are recomputed from scratch to shed floating-point error.
const REBUILD_INTERVAL: usize = 1 << 22;

/// Node weights and task counts of an assignment, summed in task order.
fn aggregates(system: &System, assignment: &[u32]) -> Result<(Vec<f64>, Vec<u32>), ModelError> {
    let n = system.node_count();
    let mut node_weight = vec![0.0f64; n];
    let mut node_task_count = vec![0u32; n];
    for (task, &node) in assignment.iter().enumerate() {
        let node = node as usize;
        if node >= n {
            return Err(ModelError::AssignmentOutOfRange {
                task,
                node,
                nodes: n,
            });
        }
        node_weight[node] += system.tasks().weight(TaskId(task));
        node_task_count[node] += 1;
    }
    Ok((node_weight, node_task_count))
}

impl TaskState {
    /// Builds a state from an explicit assignment (`assignment[ℓ]` is the
    /// node of task `ℓ`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on length mismatch or out-of-range nodes.
    pub fn from_assignment(system: &System, assignment: &[usize]) -> Result<Self, ModelError> {
        let n = system.node_count();
        let compact = assignment
            .iter()
            .enumerate()
            .map(|(task, &node)| {
                if node < n {
                    // Lossless: `node < n`, and the compact assignment
                    // assumes fewer than 2³² nodes.
                    #[allow(clippy::cast_possible_truncation)]
                    Ok(node as u32)
                } else {
                    Err(ModelError::AssignmentOutOfRange {
                        task,
                        node,
                        nodes: n,
                    })
                }
            })
            .collect::<Result<Vec<u32>, _>>()?;
        Self::from_node_indices(system, compact)
    }

    /// Builds a state from an assignment already in the compact form the
    /// state stores (`assignment[ℓ]` is the node of task `ℓ`), taking the
    /// vector as it is: no per-task copy is made.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on length mismatch or out-of-range nodes.
    pub fn from_node_indices(system: &System, assignment: Vec<u32>) -> Result<Self, ModelError> {
        if assignment.len() != system.task_count() {
            return Err(ModelError::AssignmentLengthMismatch {
                tasks: system.task_count(),
                assignment: assignment.len(),
            });
        }
        let (node_weight, node_task_count) = aggregates(system, &assignment)?;
        Ok(TaskState {
            assignment,
            node_weight,
            node_task_count,
            moves_since_rebuild: 0,
        })
    }

    /// The adversarial initial state: every task on one node (the paper's
    /// worst case `Ψ₀(X₀) ≤ m²`, used in the proof of Lemma 3.15).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn all_on_node(system: &System, node: NodeId) -> Self {
        assert!(node.index() < system.node_count(), "node out of range");
        // Lossless: range-checked above, and the compact assignment
        // assumes fewer than 2³² nodes.
        #[allow(clippy::cast_possible_truncation)]
        let assignment = vec![node.index() as u32; system.task_count()];
        Self::from_node_indices(system, assignment).expect("constant assignment is valid")
    }

    /// The node currently hosting `task`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn task_node(&self, task: TaskId) -> NodeId {
        NodeId(self.assignment[task.0] as usize)
    }

    /// `W_i(x)`: total weight on node `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn node_weight(&self, node: NodeId) -> f64 {
        self.node_weight[node.index()]
    }

    /// Number of tasks on node `i` (`w_i(x)` for uniform tasks).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn node_task_count(&self, node: NodeId) -> usize {
        self.node_task_count[node.index()] as usize
    }

    /// The full node-weight vector `(W_1, …, W_n)`.
    #[inline]
    pub fn node_weights(&self) -> &[f64] {
        &self.node_weight
    }

    /// The load `ℓ_i(x) = W_i(x)/s_i`.
    #[inline]
    pub fn load(&self, system: &System, node: NodeId) -> f64 {
        self.node_weight[node.index()] / system.speeds().speed(node.index())
    }

    /// All loads as a vector.
    pub fn loads(&self, system: &System) -> Vec<f64> {
        self.node_weight
            .iter()
            .zip(system.speeds().as_slice())
            .map(|(w, s)| w / s)
            .collect()
    }

    /// The deviation vector `e(x) = w(x) − w̄` (§2); entries sum to 0.
    pub fn deviations(&self, system: &System) -> Vec<f64> {
        self.node_weight
            .iter()
            .zip(system.balanced_work())
            .map(|(w, b)| w - b)
            .collect()
    }

    /// Moves one task immediately (used by tests and best-response
    /// dynamics; protocol rounds use [`TaskState::apply_moves`]).
    ///
    /// # Panics
    ///
    /// Panics if the task or node is out of range.
    pub fn apply_move(&mut self, system: &System, task: TaskId, to: NodeId) {
        assert!(to.index() < system.node_count(), "destination out of range");
        let from = self.assignment[task.0] as usize;
        if from == to.index() {
            return;
        }
        let w = system.tasks().weight(task);
        self.node_weight[from] -= w;
        self.node_weight[to.index()] += w;
        self.node_task_count[from] -= 1;
        self.node_task_count[to.index()] += 1;
        // Lossless: `to.index()` round-trips a `NodeId`'s inner `u32`.
        #[allow(clippy::cast_possible_truncation)]
        {
            self.assignment[task.0] = to.index() as u32;
        }
        self.moves_since_rebuild += 1;
        if self.moves_since_rebuild >= REBUILD_INTERVAL {
            self.rebuild_aggregates(system);
        }
    }

    /// Commits a batch of migrations decided against the round-start
    /// snapshot (the synchronous-round semantics of Algorithms 1 and 2).
    pub fn apply_moves(&mut self, system: &System, moves: &[Move]) {
        for m in moves {
            self.apply_move(system, m.task, m.to);
        }
    }

    /// Recomputes node aggregates from the assignment, clearing
    /// floating-point drift from incremental updates.
    pub fn rebuild_aggregates(&mut self, system: &System) {
        let (node_weight, node_task_count) =
            aggregates(system, &self.assignment).expect("the assignment stays in range");
        self.node_weight = node_weight;
        self.node_task_count = node_task_count;
        self.moves_since_rebuild = 0;
    }

    /// Builds the per-node task index `x(i)` (§4) on demand, in O(m).
    pub fn tasks_by_node(&self, system: &System) -> Vec<Vec<TaskId>> {
        let mut by_node = vec![Vec::new(); system.node_count()];
        for (task, &node) in self.assignment.iter().enumerate() {
            by_node[node as usize].push(TaskId(task));
        }
        by_node
    }

    /// Verifies conservation invariants: aggregates match the assignment
    /// and total weight equals `W`. Returns a description of the first
    /// violation, if any.
    pub fn check_invariants(&self, system: &System) -> Result<(), String> {
        if self.assignment.len() != system.task_count() {
            return Err(format!(
                "assignment length {} != task count {}",
                self.assignment.len(),
                system.task_count()
            ));
        }
        let mut weight = vec![0.0f64; system.node_count()];
        let mut count = vec![0u32; system.node_count()];
        for (task, &node) in self.assignment.iter().enumerate() {
            let node = node as usize;
            if node >= system.node_count() {
                return Err(format!("task {task} on out-of-range node {node}"));
            }
            weight[node] += system.tasks().weight(TaskId(task));
            count[node] += 1;
        }
        for i in 0..system.node_count() {
            if count[i] != self.node_task_count[i] {
                return Err(format!(
                    "node {i}: cached count {} != actual {}",
                    self.node_task_count[i], count[i]
                ));
            }
            let tol = 1e-6 * weight[i].abs().max(1.0);
            if (weight[i] - self.node_weight[i]).abs() > tol {
                return Err(format!(
                    "node {i}: cached weight {} != actual {}",
                    self.node_weight[i], weight[i]
                ));
            }
        }
        let total: f64 = self.node_weight.iter().sum();
        let expected = system.tasks().total_weight();
        if (total - expected).abs() > 1e-6 * expected.max(1.0) {
            return Err(format!("total weight {total} != {expected}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_graphs::generators;

    fn small_system() -> System {
        System::new(
            generators::path(3),
            SpeedVector::new(vec![1.0, 2.0, 1.0]).unwrap(),
            TaskSet::uniform(8),
        )
        .unwrap()
    }

    #[test]
    fn system_accessors() {
        let s = small_system();
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.task_count(), 8);
        assert!((s.average_load() - 2.0).abs() < 1e-12);
        assert_eq!(s.balanced_work(), &[2.0, 4.0, 2.0]);
        assert_eq!(s.graph().edge_count(), 2);
        assert_eq!(s.speeds().max(), 2.0);
        assert_eq!(s.tasks().len(), 8);
    }

    #[test]
    fn speed_mismatch_rejected() {
        let err = System::new(
            generators::path(3),
            SpeedVector::uniform(2),
            TaskSet::uniform(1),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::SpeedCountMismatch {
                nodes: 3,
                speeds: 2
            }
        );
        assert!(err.to_string().contains("3 nodes"));
    }

    #[test]
    fn state_from_assignment() {
        let s = small_system();
        let st = TaskState::from_assignment(&s, &[0, 0, 0, 1, 1, 2, 2, 2]).unwrap();
        assert_eq!(st.node_weight(NodeId(0)), 3.0);
        assert_eq!(st.node_task_count(NodeId(1)), 2);
        assert_eq!(st.load(&s, NodeId(1)), 1.0);
        assert_eq!(st.task_node(TaskId(5)), NodeId(2));
        assert_eq!(st.loads(&s), vec![3.0, 1.0, 3.0]);
        let dev = st.deviations(&s);
        assert_eq!(dev, vec![1.0, -2.0, 1.0]);
        assert!((dev.iter().sum::<f64>()).abs() < 1e-12);
        st.check_invariants(&s).unwrap();
    }

    #[test]
    fn bad_assignments_rejected() {
        let s = small_system();
        assert!(matches!(
            TaskState::from_assignment(&s, &[0, 1]),
            Err(ModelError::AssignmentLengthMismatch { .. })
        ));
        assert!(matches!(
            TaskState::from_assignment(&s, &[0, 0, 0, 0, 0, 0, 0, 9]),
            Err(ModelError::AssignmentOutOfRange {
                task: 7,
                node: 9,
                ..
            })
        ));
        assert!(matches!(
            TaskState::from_node_indices(&s, vec![0, 1]),
            Err(ModelError::AssignmentLengthMismatch { .. })
        ));
        assert!(matches!(
            TaskState::from_node_indices(&s, vec![0, 0, 0, 0, 0, 3, 0, 0]),
            Err(ModelError::AssignmentOutOfRange {
                task: 5,
                node: 3,
                ..
            })
        ));
    }

    #[test]
    fn compact_assignment_builds_the_same_state() {
        let s = small_system();
        let wide = TaskState::from_assignment(&s, &[2, 0, 1, 1, 0, 2, 2, 0]).unwrap();
        let compact = TaskState::from_node_indices(&s, vec![2, 0, 1, 1, 0, 2, 2, 0]).unwrap();
        assert_eq!(wide, compact);
        let mut rebuilt = compact.clone();
        rebuilt.rebuild_aggregates(&s);
        assert_eq!(rebuilt, compact);
    }

    #[test]
    fn all_on_node_initial_state() {
        let s = small_system();
        let st = TaskState::all_on_node(&s, NodeId(1));
        assert_eq!(st.node_task_count(NodeId(1)), 8);
        assert_eq!(st.node_weight(NodeId(0)), 0.0);
        st.check_invariants(&s).unwrap();
    }

    #[test]
    fn moves_update_aggregates() {
        let s = small_system();
        let mut st = TaskState::all_on_node(&s, NodeId(0));
        st.apply_move(&s, TaskId(0), NodeId(1));
        st.apply_move(&s, TaskId(1), NodeId(1));
        st.apply_move(&s, TaskId(0), NodeId(2));
        assert_eq!(st.node_task_count(NodeId(0)), 6);
        assert_eq!(st.node_task_count(NodeId(1)), 1);
        assert_eq!(st.node_task_count(NodeId(2)), 1);
        assert_eq!(st.task_node(TaskId(0)), NodeId(2));
        st.check_invariants(&s).unwrap();
        // Self-move is a no-op.
        let before = st.clone();
        st.apply_move(&s, TaskId(3), NodeId(0));
        assert_eq!(st, before);
    }

    #[test]
    fn batch_moves() {
        let s = small_system();
        let mut st = TaskState::all_on_node(&s, NodeId(0));
        st.apply_moves(
            &s,
            &[
                Move {
                    task: TaskId(0),
                    to: NodeId(1),
                },
                Move {
                    task: TaskId(1),
                    to: NodeId(2),
                },
            ],
        );
        assert_eq!(st.node_task_count(NodeId(0)), 6);
        st.check_invariants(&s).unwrap();
    }

    #[test]
    fn tasks_by_node_index() {
        let s = small_system();
        let st = TaskState::from_assignment(&s, &[2, 2, 1, 0, 0, 0, 1, 2]).unwrap();
        let idx = st.tasks_by_node(&s);
        assert_eq!(idx[0], vec![TaskId(3), TaskId(4), TaskId(5)]);
        assert_eq!(idx[1], vec![TaskId(2), TaskId(6)]);
        assert_eq!(idx[2], vec![TaskId(0), TaskId(1), TaskId(7)]);
    }

    #[test]
    fn rebuild_clears_drift() {
        let s = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.1, 0.2, 0.3]).unwrap(),
        )
        .unwrap();
        let mut st = TaskState::from_assignment(&s, &[0, 0, 1]).unwrap();
        for _ in 0..100 {
            st.apply_move(&s, TaskId(0), NodeId(1));
            st.apply_move(&s, TaskId(0), NodeId(0));
        }
        st.rebuild_aggregates(&s);
        assert!((st.node_weight(NodeId(0)) - 0.3).abs() < 1e-12);
        assert!((st.node_weight(NodeId(1)) - 0.3).abs() < 1e-12);
        st.check_invariants(&s).unwrap();
    }

    #[test]
    fn weighted_state_loads() {
        let s = System::new(
            generators::path(2),
            SpeedVector::new(vec![1.0, 4.0]).unwrap(),
            TaskSet::weighted(vec![0.5, 1.0, 0.5]).unwrap(),
        )
        .unwrap();
        let st = TaskState::from_assignment(&s, &[0, 1, 1]).unwrap();
        assert_eq!(st.node_weight(NodeId(0)), 0.5);
        assert_eq!(st.node_weight(NodeId(1)), 1.5);
        assert!((st.load(&s, NodeId(1)) - 0.375).abs() < 1e-12);
        // W/S = 2/5.
        assert!((s.average_load() - 0.4).abs() < 1e-12);
    }
}
