//! The correctness checks behind `attempted` / `failed`. Each takes an
//! outcome the program produced and counts the operations that broke a
//! property the program promises, so the self-tests below can feed a
//! doctored outcome and see the failure counted.

use slb_analysis::serve::ServeReport;
use slb_analysis::validate::ValidateOutcome;
use slb_core::engine::dynamic::DynamicStepReport;
use slb_core::engine::weighted_fast::ClassCountState;

/// Operations checked and operations that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// `converge`: one operation per ladder trial; a trial fails when it did
/// not reach its regime's target within the round budget.
pub fn ladder_trials(outcome: &ValidateOutcome) -> Tally {
    let mut tally = Tally::default();
    for point in outcome.rows.iter().flat_map(|r| &r.points) {
        let trials = point.rounds.count as u64;
        let reached = (point.reached_fraction * trials as f64).round() as u64;
        tally.attempted += trials;
        tally.failed += trials - reached.min(trials);
    }
    tally
}

/// The per-class task totals and the total weight of a class state: the
/// quantities a static round must conserve.
#[derive(Debug, Clone, PartialEq)]
pub struct Conserved {
    pub class_totals: Vec<u64>,
    pub weight: f64,
}

impl Conserved {
    /// Reads the conserved quantities of `state`.
    pub fn of(state: &ClassCountState) -> Self {
        Conserved {
            class_totals: (0..state.classes()).map(|c| state.class_total(c)).collect(),
            weight: state.total_weight(),
        }
    }

    /// `scale-1m`, one round: every class keeps its task total and the
    /// total weight holds to 1e-9 relative.
    pub fn holds(&self, now: &Conserved) -> bool {
        now.class_totals == self.class_totals
            && (now.weight - self.weight).abs() <= 1e-9 * self.weight.abs().max(1.0)
    }
}

/// `dynamic-64k`, one round: tasks after = before + arrived − completed,
/// and no dead node holds a task.
pub fn dynamic_round(
    before: u64,
    report: &DynamicStepReport,
    state: &ClassCountState,
    alive: &[bool],
) -> bool {
    let after: u64 = (0..state.nodes()).map(|v| state.node_task_count(v)).sum();
    let balanced = before + report.arrived == after + report.completed;
    let dead_empty = alive
        .iter()
        .enumerate()
        .all(|(v, &up)| up || state.node_task_count(v) == 0);
    balanced && dead_empty
}

/// `serve`, one operation per policy run: every offered job either
/// completed or failed (`offered = completed + failed`, with completions
/// read from the latency sample, which covers every completed job when
/// the measurement window is the whole horizon), and in the faults phase
/// every policy saw the same backend availability.
pub fn serve_runs(plain: &ServeReport, faults: &ServeReport) -> Tally {
    let mut tally = Tally::default();
    for (report, faulty) in [(plain, false), (faults, true)] {
        assert_eq!(
            report.spec.shift, 0.0,
            "the check needs the whole-horizon window"
        );
        let availability = report.rows.first().map(|r| r.availability);
        for row in &report.rows {
            let resolved = row.latency.count as u64 + row.failed_jobs;
            let ok =
                row.jobs_offered == resolved && (!faulty || Some(row.availability) == availability);
            tally.record(ok);
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{serve_spec, SERVE_FAULTS, SERVE_PLAIN};
    use slb_analysis::serve::run_serve;
    use slb_analysis::validate::{run_validate, ValidateConfig};
    use slb_workloads::ValidateSpec;

    fn failed_frac(t: Tally) -> f64 {
        t.failed as f64 / t.attempted as f64
    }

    #[test]
    fn ladder_check_counts_unreached_trials() {
        let mut spec = ValidateSpec::parse(&["family=ring", "n=8,16", "load=4"]).unwrap();
        spec.trials = 2;
        let mut outcome = run_validate(&spec, ValidateConfig::sequential(7)).unwrap();
        assert_eq!(
            ladder_trials(&outcome),
            Tally {
                attempted: 4,
                failed: 0
            }
        );
        outcome.rows[0].points[1].reached_fraction = 0.5;
        assert!(failed_frac(ladder_trials(&outcome)) > 0.0);
    }

    #[test]
    fn conservation_check_catches_a_lost_task_and_a_reweighted_class() {
        let state = ClassCountState::new(vec![0.25, 1.0], vec![vec![3, 1], vec![0, 2]]);
        let conserved = Conserved::of(&state);
        assert!(conserved.holds(&Conserved::of(&state)));
        let moved = ClassCountState::new(vec![0.25, 1.0], vec![vec![4, 0], vec![0, 2]]);
        assert!(
            !conserved.holds(&Conserved::of(&moved)),
            "class totals changed"
        );
        let lost = ClassCountState::new(vec![0.25, 1.0], vec![vec![3, 1], vec![0, 1]]);
        assert!(!conserved.holds(&Conserved::of(&lost)));
        let heavier = ClassCountState::new(vec![0.5, 1.0], vec![vec![3, 1], vec![0, 2]]);
        assert!(
            !conserved.holds(&Conserved::of(&heavier)),
            "total weight changed"
        );
    }

    #[test]
    fn dynamic_check_catches_unbalanced_rounds_and_tasks_on_dead_nodes() {
        let state = ClassCountState::new(vec![1.0], vec![vec![4], vec![0]]);
        let report = DynamicStepReport {
            arrived: 2,
            completed: 1,
            ..DynamicStepReport::default()
        };
        assert!(dynamic_round(3, &report, &state, &[true, false]));
        assert!(!dynamic_round(4, &report, &state, &[true, false]));
        let on_dead = ClassCountState::new(vec![1.0], vec![vec![3], vec![1]]);
        assert!(!dynamic_round(3, &report, &on_dead, &[true, false]));
    }

    #[test]
    fn serve_check_catches_lost_jobs_and_diverging_availability() {
        let mut plain_spec = serve_spec(SERVE_PLAIN);
        let mut faults_spec = serve_spec(&[SERVE_PLAIN, SERVE_FAULTS].concat());
        plain_spec.horizon = 5;
        faults_spec.horizon = 5;
        let plain = run_serve(&plain_spec, 3, 1);
        let faults = run_serve(&faults_spec, 3, 1);
        assert_eq!(
            serve_runs(&plain, &faults),
            Tally {
                attempted: 12,
                failed: 0
            }
        );

        let mut lost = plain.clone();
        lost.rows[2].jobs_offered += 1;
        assert!(failed_frac(serve_runs(&lost, &faults)) > 0.0);

        let mut diverged = faults.clone();
        diverged.rows[4].availability *= 0.5;
        assert!(failed_frac(serve_runs(&plain, &diverged)) > 0.0);
    }
}
