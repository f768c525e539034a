//! Weight-class quantization for the count-based weighted engine.
//!
//! The weight-class engine
//! ([`WeightedFastSim`](slb_core::engine::weighted_fast::WeightedFastSim))
//! represents state as per-(node, class) counts, so it needs a *small*
//! set of distinct weights. Every distribution in [`crate::weights`] is
//! either finite-support (unit, bimodal — mapped losslessly) or
//! continuous (uniform range, bounded power law), which [`WeightClasses`]
//! quantizes to a bounded number of equal-width bins, each represented by
//! its midpoint. Quantization is the documented approximation of the fast
//! weighted path: per-task weights move to the nearest class level, so
//! aggregate weight is preserved to within half a bin width per task
//! (`(hi − lo)/(2·max_classes)`), and the engine's `Ψ₀`/equilibrium
//! predicates are evaluated against the quantized weights.
//!
//! Class discovery is a single pass over the weights: it keeps a sorted
//! buffer of at most `max_classes + 1` distinct values plus the running
//! minimum and maximum. A buffer that never overflows is the lossless
//! class set; one that does means the quantized branch, whose bins need
//! only the extremes. Both results are exactly what sorting and
//! deduplicating the whole sample would give, without copying or sorting
//! it.
//!
//! [`class_state_of`] is the collapse the sweep and validate runners use:
//! discovery, then a second pass that counts every task straight into the
//! flat node-major vector a [`ClassCountState`] stores, so no per-task
//! array is built on the way.

use crate::BuiltScenario;
use slb_core::engine::weighted_fast::ClassCountState;
use slb_core::model::TaskSet;

/// A small, sorted set of weight classes with a total map from sampled
/// weights to class indices.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightClasses {
    /// Class weights, ascending and distinct, all in `(0, 1]`.
    weights: Vec<f64>,
    /// Whether the mapping is lossless (every sample equals its class).
    exact: bool,
    /// Bin range for the quantized case.
    lo: f64,
    hi: f64,
}

impl WeightClasses {
    /// Default class budget: enough for every finite-support distribution
    /// in [`crate::weights`] with room to spare, small enough that the
    /// engine's per-round `O(|E| + n·k)` work stays |E|-dominated.
    pub const DEFAULT_MAX_CLASSES: usize = 16;

    /// Builds classes from sampled task weights: lossless when the sample
    /// has at most `max_classes` distinct values, otherwise `max_classes`
    /// equal-width bins over the sample range (midpoint representatives).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `max_classes == 0`, or any sample
    /// lies outside `(0, 1]`.
    pub fn from_samples(samples: &[f64], max_classes: usize) -> Self {
        Self::discover(samples.iter().copied(), max_classes)
    }

    /// [`WeightClasses::from_samples`] over any stream of weights, in one
    /// pass and without a copy.
    fn discover(samples: impl IntoIterator<Item = f64>, max_classes: usize) -> Self {
        assert!(max_classes > 0, "need at least one class");
        // Ascending and distinct; one value past the budget is enough to
        // know the sample must be quantized.
        let mut distinct: Vec<f64> = Vec::with_capacity(max_classes + 1);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for w in samples {
            assert!(
                w > 0.0 && w <= 1.0 && w.is_finite(),
                "sampled weights must lie in (0, 1]"
            );
            lo = lo.min(w);
            hi = hi.max(w);
            if distinct.len() <= max_classes {
                if let Err(i) =
                    distinct.binary_search_by(|c| c.partial_cmp(&w).expect("finite weights"))
                {
                    distinct.insert(i, w);
                }
            }
        }
        assert!(!distinct.is_empty(), "need at least one sampled weight");
        if distinct.len() <= max_classes {
            return WeightClasses {
                weights: distinct,
                exact: true,
                lo,
                hi,
            };
        }
        let k = max_classes;
        let width = (hi - lo) / k as f64;
        let weights = (0..k)
            .map(|c| (lo + (c as f64 + 0.5) * width).min(1.0))
            .collect();
        WeightClasses {
            weights,
            exact: false,
            lo,
            hi,
        }
    }

    /// The class weights, ascending.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of classes `k`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the set is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Whether the sample→class map is lossless.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The class index of a weight: its exact position when lossless, its
    /// bin otherwise (out-of-range weights clamp to the outer bins).
    pub fn class_of(&self, w: f64) -> usize {
        if self.exact {
            // Nearest class (samples always match one exactly).
            return match self
                .weights
                .binary_search_by(|c| c.partial_cmp(&w).expect("finite weights"))
            {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) if i == self.weights.len() => i - 1,
                Err(i) => {
                    if w - self.weights[i - 1] <= self.weights[i] - w {
                        i - 1
                    } else {
                        i
                    }
                }
            };
        }
        let k = self.weights.len();
        let span = self.hi - self.lo;
        if span <= 0.0 {
            return 0;
        }
        (((w - self.lo) / span * k as f64).floor() as usize).min(k - 1)
    }

    /// The class-level weight a sampled weight maps to.
    pub fn quantize(&self, w: f64) -> f64 {
        self.weights[self.class_of(w)]
    }

    /// Per-(node, class) counts for tasks assigned to nodes — the initial
    /// state of the weight-class engine. `task_nodes[t]` is the hosting
    /// node of the task with weight `task_weights[t]`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or a node index is out of
    /// range.
    pub fn node_class_counts(
        &self,
        task_weights: &[f64],
        task_nodes: &[usize],
        nodes: usize,
    ) -> Vec<Vec<u64>> {
        assert_eq!(
            task_weights.len(),
            task_nodes.len(),
            "one node per task weight"
        );
        let tasks = task_weights.iter().copied().zip(task_nodes.iter().copied());
        self.count(tasks, nodes)
            .chunks(self.len())
            .map(<[u64]>::to_vec)
            .collect()
    }

    /// Flat node-major per-(node, class) counts (`counts[node * k + class]`)
    /// of `(weight, node)` pairs.
    fn count(&self, tasks: impl IntoIterator<Item = (f64, usize)>, nodes: usize) -> Vec<u64> {
        let k = self.len();
        let mut counts = vec![0u64; nodes * k];
        for (w, v) in tasks {
            assert!(v < nodes, "task node {v} out of range");
            counts[v * k + self.class_of(w)] += 1;
        }
        counts
    }

    /// Checks that flat counts hold all `tasks` tasks and, up to the
    /// quantization, their summed weight `total`: exactly `tasks` counts,
    /// and a class-level weight within floating-point rounding of `total`
    /// when lossless, within half a bin width per task (plus the same
    /// rounding slack) when quantized. `O(n·k)`.
    ///
    /// # Panics
    ///
    /// Panics if either is not conserved.
    fn assert_conserves(&self, counts: &[u64], tasks: usize, total: f64) {
        let k = self.len();
        let mut per_class = vec![0u64; k];
        for row in counts.chunks(k) {
            for (total, &c) in per_class.iter_mut().zip(row) {
                *total += c;
            }
        }
        let m: u64 = per_class.iter().sum();
        assert_eq!(m, tasks as u64, "the collapse must keep every task");
        let weight: f64 = per_class
            .iter()
            .zip(&self.weights)
            .map(|(&c, &w)| c as f64 * w)
            .sum();
        // `total` is a left-to-right sum of m weights, whose rounding error
        // grows to (m − 1)·ε/2·W: a weight repeated many times rounds the
        // same way at every step within a binade, so the errors do not
        // cancel. Σ c·w over k ≤ m classes adds at most about k·ε/2·W, so
        // 2·m·ε·W covers both and a fixed relative bound would not.
        let slack = 2.0 * m as f64 * f64::EPSILON * total;
        let bound = if self.exact {
            slack
        } else {
            m as f64 * (self.hi - self.lo) / (2 * k) as f64 + slack
        };
        assert!(
            (weight - total).abs() <= bound,
            "the collapse must keep the total weight: {weight} vs {total} (bound {bound})"
        );
    }

    /// The quantized per-task weights as a [`TaskSet`] — what the fast
    /// engine effectively simulates; useful for comparing against the
    /// per-task engines on the same (quantized) instance.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSet::weighted`] validation (cannot fail for
    /// classes built by [`WeightClasses::from_samples`]).
    pub fn quantized_task_set(
        &self,
        task_weights: &[f64],
    ) -> Result<TaskSet, slb_core::model::TaskError> {
        TaskSet::weighted(task_weights.iter().map(|&w| self.quantize(w)).collect())
    }
}

/// Collapses a built scenario's per-task weights and placement into the
/// weight-class count state of the count-based engines (lossless for
/// finite-support weight distributions, quantized to at most
/// [`WeightClasses::DEFAULT_MAX_CLASSES`] classes for continuous ones —
/// the engines' documented approximation).
///
/// Two streaming passes over the tasks: class discovery, then counting
/// straight into the node-major vector the state keeps. Task count and
/// total weight are checked before the state is returned, in every build.
///
/// # Panics
///
/// Panics if the collapse loses a task or, beyond the quantization
/// bound, any weight.
pub fn class_state_of(built: &BuiltScenario) -> ClassCountState {
    let system = &built.system;
    let tasks = system.tasks();
    let classes = WeightClasses::discover(
        tasks.iter().map(|(_, w)| w),
        WeightClasses::DEFAULT_MAX_CLASSES,
    );
    let placed = tasks
        .iter()
        .map(|(t, w)| (w, built.initial.task_node(t).index()));
    let counts = classes.count(placed, system.node_count());
    classes.assert_conserves(&counts, tasks.len(), tasks.total_weight());
    ClassCountState::from_node_major(classes.weights, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::scenario;
    use crate::speeds::SpeedDistribution;
    use crate::weights::WeightDistribution;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slb_graphs::generators;

    /// The class discovery this module used before the single pass: copy
    /// every sample, sort, deduplicate. Kept as the reference the
    /// streaming discovery must reproduce bit for bit.
    fn oracle_from_samples(samples: &[f64], max_classes: usize) -> WeightClasses {
        let mut distinct = samples.to_vec();
        distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite weights"));
        distinct.dedup();
        let (lo, hi) = (distinct[0], *distinct.last().expect("nonempty"));
        if distinct.len() <= max_classes {
            return WeightClasses {
                weights: distinct,
                exact: true,
                lo,
                hi,
            };
        }
        let k = max_classes;
        let width = (hi - lo) / k as f64;
        let weights = (0..k)
            .map(|c| (lo + (c as f64 + 0.5) * width).min(1.0))
            .collect();
        WeightClasses {
            weights,
            exact: false,
            lo,
            hi,
        }
    }

    /// The per-task scatter into one row per node this module used
    /// before the flat count, kept as a reference.
    fn oracle_node_class_counts(
        classes: &WeightClasses,
        task_weights: &[f64],
        task_nodes: &[usize],
        nodes: usize,
    ) -> Vec<Vec<u64>> {
        let mut counts = vec![vec![0u64; classes.len()]; nodes];
        for (&w, &v) in task_weights.iter().zip(task_nodes) {
            counts[v][classes.class_of(w)] += 1;
        }
        counts
    }

    /// Every field of a class set as bits, so equality is bitwise.
    fn bits(classes: &WeightClasses) -> (Vec<u64>, bool, u64, u64) {
        (
            classes.weights.iter().map(|w| w.to_bits()).collect(),
            classes.exact,
            classes.lo.to_bits(),
            classes.hi.to_bits(),
        )
    }

    /// A weight in `(0, 1]`.
    fn weight(rng: &mut StdRng) -> f64 {
        1.0 - rng.gen_range(0.0..1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Single-pass discovery equals sort + dedup on samples with 1 to
        /// 20 distinct values (so exactly `k` and `k + 1` distinct values
        /// for every budget `k`), at every budget in `1..=16`, and on
        /// continuous samples.
        #[test]
        fn discovery_matches_sort_and_dedup(seed in 0u64..u64::MAX, repeats in 0usize..60) {
            let mut rng = StdRng::seed_from_u64(seed);
            for distinct in 1..=20usize {
                let mut pool: Vec<f64> = Vec::new();
                while pool.len() < distinct {
                    // Coarse values half the time, so neighbours sit close.
                    let w = if rng.gen_bool(0.5) {
                        f64::from(rng.gen_range(1u32..=64)) / 64.0
                    } else {
                        weight(&mut rng)
                    };
                    if !pool.contains(&w) {
                        pool.push(w);
                    }
                }
                let mut samples = pool.clone();
                samples.extend((0..repeats).map(|_| pool[rng.gen_range(0..distinct)]));
                for i in (1..samples.len()).rev() {
                    samples.swap(i, rng.gen_range(0..=i));
                }
                for max_classes in 1..=16 {
                    let classes = WeightClasses::from_samples(&samples, max_classes);
                    prop_assert_eq!(bits(&classes), bits(&oracle_from_samples(&samples, max_classes)));
                    prop_assert_eq!(classes.is_exact(), distinct <= max_classes);
                }
            }
            let continuous: Vec<f64> = (0..1 + 4 * repeats).map(|_| weight(&mut rng)).collect();
            for max_classes in 1..=16 {
                prop_assert_eq!(
                    bits(&WeightClasses::discover(continuous.iter().copied(), max_classes)),
                    bits(&oracle_from_samples(&continuous, max_classes))
                );
            }
        }
    }

    /// The streaming collapse equals the old per-task path — sort + dedup
    /// classes, one row per node, then [`ClassCountState::new`] — for
    /// every weight distribution and placement.
    #[test]
    fn collapse_matches_per_task_path() {
        let weight_dists = [
            WeightDistribution::Unit,
            WeightDistribution::UniformRange { lo: 0.2, hi: 0.9 },
            WeightDistribution::BoundedPowerLaw {
                alpha: 1.2,
                min: 0.05,
            },
            WeightDistribution::Bimodal {
                light: 0.25,
                heavy: 1.0,
                heavy_fraction: 0.2,
            },
        ];
        let placements = [
            Placement::AllOnNode(3),
            Placement::AllOnSlowest,
            Placement::UniformRandom,
            Placement::SpeedProportional,
            Placement::RoundRobin,
        ];
        for (i, &weights) in weight_dists.iter().enumerate() {
            for (j, &placement) in placements.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64((10 * i + j) as u64);
                let speeds = SpeedDistribution::TwoClass {
                    fast: 4,
                    fast_fraction: 0.25,
                };
                let built = scenario::build(
                    generators::torus(4, 5),
                    speeds,
                    weights,
                    placement,
                    24,
                    &mut rng,
                )
                .unwrap();
                let system = &built.system;
                let task_weights: Vec<f64> = system.tasks().iter().map(|(_, w)| w).collect();
                let task_nodes: Vec<usize> = system
                    .tasks()
                    .iter()
                    .map(|(t, _)| built.initial.task_node(t).index())
                    .collect();
                let classes =
                    oracle_from_samples(&task_weights, WeightClasses::DEFAULT_MAX_CLASSES);
                let counts = oracle_node_class_counts(
                    &classes,
                    &task_weights,
                    &task_nodes,
                    system.node_count(),
                );
                let expected = ClassCountState::new(classes.weights().to_vec(), counts);
                let state = class_state_of(&built);
                assert_eq!(state, expected, "{weights:?} × {placement:?}");
                let class_bits = |s: &ClassCountState| -> Vec<u64> {
                    s.class_weights().iter().map(|w| w.to_bits()).collect()
                };
                assert_eq!(class_bits(&state), class_bits(&expected));
                // The public wrapper gives the same rows.
                assert_eq!(
                    WeightClasses::from_samples(&task_weights, WeightClasses::DEFAULT_MAX_CLASSES)
                        .node_class_counts(&task_weights, &task_nodes, system.node_count()),
                    oracle_node_class_counts(
                        &classes,
                        &task_weights,
                        &task_nodes,
                        system.node_count()
                    )
                );
            }
        }
    }

    #[test]
    fn conservation_holds_on_collapsed_counts() {
        let tasks = TaskSet::weighted(vec![0.25, 1.0, 0.25, 1.0]).unwrap();
        let classes = WeightClasses::from_samples(&[0.25, 1.0], 4);
        classes.assert_conserves(&[1, 1, 0, 1, 1, 0], tasks.len(), tasks.total_weight());
        // Quantized: each task may move half a bin width.
        let weights: Vec<f64> = (1..=20).map(|i| f64::from(i) / 20.0).collect();
        let tasks = TaskSet::weighted(weights.clone()).unwrap();
        let classes = WeightClasses::from_samples(&weights, 4);
        let counts = classes.count(weights.iter().map(|&w| (w, 0)), 1);
        classes.assert_conserves(&counts, tasks.len(), tasks.total_weight());
    }

    /// 2²⁶ tasks of weight 0.3 (`weights=bimodal:0.3:1:0` on a 2²⁰-node
    /// torus at 64 tasks per node): the left-to-right sum that
    /// [`TaskSet::total_weight`] reports drifts by more than 1e-9 relative,
    /// while Σ c·w is a single product. The check must still accept this
    /// lossless collapse.
    #[test]
    fn conservation_tolerates_summation_drift_of_many_equal_weights() {
        let m = 1usize << 26;
        let total = (0..m).fold(0.0f64, |sum, _| sum + 0.3);
        let exact = m as f64 * 0.3;
        assert!(
            (total - exact).abs() > 1e-9 * exact,
            "the running sum should drift here: {total} vs {exact}"
        );
        let classes = WeightClasses::from_samples(&[0.3], 4);
        classes.assert_conserves(&[m as u64], m, total);
    }

    #[test]
    #[should_panic(expected = "the collapse must keep every task")]
    fn conservation_catches_a_lost_task() {
        let tasks = TaskSet::weighted(vec![0.25, 1.0, 0.25, 1.0]).unwrap();
        let classes = WeightClasses::from_samples(&[0.25, 1.0], 4);
        classes.assert_conserves(&[1, 1, 0, 1, 0, 0], tasks.len(), tasks.total_weight());
    }

    #[test]
    #[should_panic(expected = "the collapse must keep the total weight")]
    fn conservation_catches_a_task_in_the_wrong_class() {
        let tasks = TaskSet::weighted(vec![0.25, 1.0, 0.25, 1.0]).unwrap();
        let classes = WeightClasses::from_samples(&[0.25, 1.0], 4);
        classes.assert_conserves(&[2, 0, 0, 1, 1, 0], tasks.len(), tasks.total_weight());
    }

    #[test]
    #[should_panic(expected = "need at least one sampled weight")]
    fn rejects_no_samples() {
        let _ = WeightClasses::discover(std::iter::empty(), 4);
    }

    #[test]
    fn finite_support_is_lossless() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples = WeightDistribution::Bimodal {
            light: 0.2,
            heavy: 1.0,
            heavy_fraction: 0.3,
        }
        .sample(500, &mut rng);
        let classes = WeightClasses::from_samples(&samples, WeightClasses::DEFAULT_MAX_CLASSES);
        assert!(classes.is_exact());
        assert!(!classes.is_empty());
        assert_eq!(classes.weights(), &[0.2, 1.0]);
        for &w in &samples {
            assert_eq!(classes.quantize(w), w);
        }
        // Unit weights collapse to one class.
        let unit = WeightClasses::from_samples(&[1.0; 10], 4);
        assert_eq!(unit.len(), 1);
        assert!(unit.is_exact());
        assert_eq!(unit.class_of(1.0), 0);
    }

    #[test]
    fn continuous_sample_quantizes_to_midpoints() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples = WeightDistribution::UniformRange { lo: 0.1, hi: 0.9 }.sample(2000, &mut rng);
        let classes = WeightClasses::from_samples(&samples, 8);
        assert!(!classes.is_exact());
        assert_eq!(classes.len(), 8);
        // Midpoints ascend, stay inside (0, 1], and every sample maps to
        // a class within half a bin width.
        let width = (samples.iter().cloned().fold(f64::MIN, f64::max)
            - samples.iter().cloned().fold(f64::MAX, f64::min))
            / 8.0;
        for pair in classes.weights().windows(2) {
            assert!(pair[0] < pair[1]);
        }
        for &w in &samples {
            let q = classes.quantize(w);
            assert!(q > 0.0 && q <= 1.0);
            assert!(
                (q - w).abs() <= width / 2.0 + 1e-12,
                "sample {w} maps to distant class {q}"
            );
        }
        // The quantized TaskSet is valid and close in total weight.
        let total: f64 = samples.iter().sum();
        let qset = classes.quantized_task_set(&samples).unwrap();
        assert!((qset.total_weight() - total).abs() <= samples.len() as f64 * width / 2.0);
    }

    #[test]
    fn power_law_sample_stays_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples = WeightDistribution::BoundedPowerLaw {
            alpha: 1.2,
            min: 0.05,
        }
        .sample(3000, &mut rng);
        let classes = WeightClasses::from_samples(&samples, WeightClasses::DEFAULT_MAX_CLASSES);
        assert_eq!(classes.len(), WeightClasses::DEFAULT_MAX_CLASSES);
        assert!(classes.weights().iter().all(|&w| w > 0.0 && w <= 1.0));
    }

    #[test]
    fn node_class_counts_shape() {
        let classes = WeightClasses::from_samples(&[0.25, 1.0, 0.25, 1.0], 4);
        let counts = classes.node_class_counts(&[0.25, 1.0, 0.25, 1.0], &[0, 0, 2, 1], 3);
        assert_eq!(counts, vec![vec![1, 1], vec![0, 1], vec![1, 0]]);
        let total: u64 = counts.iter().flatten().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn class_of_handles_between_and_out_of_range_queries() {
        let classes = WeightClasses::from_samples(&[0.2, 0.6, 1.0], 8);
        assert!(classes.is_exact());
        assert_eq!(classes.class_of(0.2), 0);
        assert_eq!(classes.class_of(0.35), 0); // nearer 0.2
        assert_eq!(classes.class_of(0.5), 1); // nearer 0.6
        assert_eq!(classes.class_of(0.05), 0);
        assert_eq!(classes.class_of(1.0), 2);
    }

    #[test]
    #[should_panic(expected = "sampled weights must lie in (0, 1]")]
    fn rejects_out_of_range_samples() {
        let _ = WeightClasses::from_samples(&[0.5, 1.5], 4);
    }

    #[test]
    #[should_panic(expected = "need at least one class")]
    fn rejects_zero_classes() {
        let _ = WeightClasses::from_samples(&[0.5], 0);
    }
}
