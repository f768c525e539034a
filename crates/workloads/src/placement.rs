//! Initial task placements.
//!
//! The placement fixes the initial state `X₀` of a run. The paper's
//! convergence bounds hold from *any* start; experiments use the
//! adversarial single-node start for worst-case measurements (it maximizes
//! `Ψ₀(X₀)` up to the choice of node) and random starts for average-case
//! curves.

use rand::Rng;
use slb_core::model::{System, TaskState};
use slb_graphs::NodeId;

/// An initial-placement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Every task on one explicit node.
    AllOnNode(usize),
    /// Every task on the slowest node (ties → smallest index): the
    /// worst-case start for `Ψ₀` noted in the proof of Lemma 3.15.
    AllOnSlowest,
    /// Each task on an independent uniformly random node.
    UniformRandom,
    /// Each task on a random node chosen proportionally to speed — the
    /// "already roughly balanced" start (deviations are
    /// `O(√(m/n))`-scale).
    SpeedProportional,
    /// Deterministic round-robin over nodes in index order.
    RoundRobin,
}

impl Placement {
    /// Generates an assignment vector (`result[ℓ]` = node of task `ℓ`).
    ///
    /// # Panics
    ///
    /// Panics if `AllOnNode(v)` has `v` out of range.
    pub fn assign<R: Rng + ?Sized>(self, system: &System, rng: &mut R) -> Vec<usize> {
        let mut assignment = Vec::with_capacity(system.task_count());
        self.place(system, rng, |v| assignment.push(v));
        assignment
    }

    /// Generates the [`TaskState`] directly, building its compact
    /// assignment with no `usize` copy in between. Draws the same random
    /// numbers as [`Placement::assign`], so both give the same state.
    ///
    /// # Panics
    ///
    /// Panics as in [`Placement::assign`].
    pub fn state<R: Rng + ?Sized>(self, system: &System, rng: &mut R) -> TaskState {
        let mut assignment = Vec::with_capacity(system.task_count());
        // Lossless: every node is `< n`, and the compact assignment
        // assumes fewer than 2³² nodes.
        #[allow(clippy::cast_possible_truncation)]
        self.place(system, rng, |v| assignment.push(v as u32));
        TaskState::from_node_indices(system, assignment)
            .expect("generated assignments are always valid")
    }

    /// Hands the node of every task, in task order, to `put`.
    fn place<R: Rng + ?Sized>(self, system: &System, rng: &mut R, mut put: impl FnMut(usize)) {
        let n = system.node_count();
        let m = system.task_count();
        match self {
            Placement::AllOnNode(v) => {
                assert!(v < n, "placement node {v} out of range for {n} nodes");
                (0..m).for_each(|_| put(v));
            }
            Placement::AllOnSlowest => {
                let slowest = (0..n)
                    .min_by(|&a, &b| {
                        system
                            .speeds()
                            .speed(a)
                            .partial_cmp(&system.speeds().speed(b))
                            .expect("speeds are finite")
                    })
                    .expect("at least one node");
                (0..m).for_each(|_| put(slowest));
            }
            Placement::UniformRandom => (0..m).for_each(|_| put(rng.gen_range(0..n))),
            Placement::SpeedProportional => {
                let total = system.speeds().total();
                let mut draw = || {
                    let mut x = rng.gen_range(0.0..total);
                    for v in 0..n {
                        let s = system.speeds().speed(v);
                        if x < s {
                            return v;
                        }
                        x -= s;
                    }
                    n - 1
                };
                (0..m).for_each(|_| put(draw()));
            }
            Placement::RoundRobin => (0..m).for_each(|t| put(t % n)),
        }
    }

    /// A short label for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Placement::AllOnNode(_) => "all-on-node",
            Placement::AllOnSlowest => "all-on-slowest",
            Placement::UniformRandom => "uniform-random",
            Placement::SpeedProportional => "speed-proportional",
            Placement::RoundRobin => "round-robin",
        }
    }
}

/// Convenience: the adversarial hot-spot state on node 0.
pub fn hot_spot(system: &System) -> TaskState {
    TaskState::all_on_node(system, NodeId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slb_core::model::{SpeedVector, TaskSet};
    use slb_core::potential;
    use slb_graphs::generators;

    fn system(speeds: Vec<f64>, m: usize) -> System {
        System::new(
            generators::ring(speeds.len()),
            SpeedVector::new(speeds).unwrap(),
            TaskSet::uniform(m),
        )
        .unwrap()
    }

    #[test]
    fn all_on_node_places_everything() {
        let sys = system(vec![1.0; 5], 50);
        let mut rng = StdRng::seed_from_u64(1);
        let st = Placement::AllOnNode(3).state(&sys, &mut rng);
        assert_eq!(st.node_task_count(NodeId(3)), 50);
        st.check_invariants(&sys).unwrap();
    }

    #[test]
    fn all_on_slowest_finds_the_slow_node() {
        let sys = system(vec![2.0, 1.0, 4.0, 1.0, 3.0], 10);
        let mut rng = StdRng::seed_from_u64(2);
        let a = Placement::AllOnSlowest.assign(&sys, &mut rng);
        assert!(a.iter().all(|&v| v == 1), "ties break to smallest index");
    }

    #[test]
    fn uniform_random_covers_nodes() {
        let sys = system(vec![1.0; 8], 4000);
        let mut rng = StdRng::seed_from_u64(3);
        let st = Placement::UniformRandom.state(&sys, &mut rng);
        for v in 0..8 {
            let c = st.node_task_count(NodeId(v));
            assert!(c > 300, "node {v} got only {c} of ~500 expected");
        }
    }

    #[test]
    fn speed_proportional_tracks_speeds() {
        let sys = system(vec![1.0, 1.0, 8.0, 1.0, 1.0], 6000);
        let mut rng = StdRng::seed_from_u64(4);
        let st = Placement::SpeedProportional.state(&sys, &mut rng);
        // Node 2 has 8/12 of capacity → ~4000 tasks.
        let c = st.node_task_count(NodeId(2));
        assert!((3600..4400).contains(&c), "fast node got {c}");
        // The start is near balance: Ψ₀ far below the hot-spot start.
        let hot = potential::report(&sys, &hot_spot(&sys)).psi0;
        let prop = potential::report(&sys, &st).psi0;
        assert!(prop < hot / 100.0);
    }

    #[test]
    fn round_robin_is_deterministic_and_even() {
        let sys = system(vec![1.0; 4], 10);
        let mut rng = StdRng::seed_from_u64(5);
        let a = Placement::RoundRobin.assign(&sys, &mut rng);
        assert_eq!(a, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn state_equals_the_state_of_the_assignment() {
        let sys = System::new(
            generators::ring(6),
            SpeedVector::new(vec![2.0, 1.0, 4.0, 1.0, 3.0, 1.0]).unwrap(),
            TaskSet::weighted((1..=50).map(|i| f64::from(i) / 50.0).collect()).unwrap(),
        )
        .unwrap();
        for placement in [
            Placement::AllOnNode(4),
            Placement::AllOnSlowest,
            Placement::UniformRandom,
            Placement::SpeedProportional,
            Placement::RoundRobin,
        ] {
            let st = placement.state(&sys, &mut StdRng::seed_from_u64(7));
            let assignment = placement.assign(&sys, &mut StdRng::seed_from_u64(7));
            let expected = TaskState::from_assignment(&sys, &assignment).unwrap();
            assert_eq!(st, expected, "{placement:?}");
            let bits = |s: &TaskState| -> Vec<u64> {
                s.node_weights().iter().map(|w| w.to_bits()).collect()
            };
            assert_eq!(bits(&st), bits(&expected), "{placement:?}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Placement::AllOnNode(0).label(),
            Placement::AllOnSlowest.label(),
            Placement::UniformRandom.label(),
            Placement::SpeedProportional.label(),
            Placement::RoundRobin.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let sys = system(vec![1.0; 3], 3);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = Placement::AllOnNode(9).assign(&sys, &mut rng);
    }
}
