//! The four benchmark workloads.
//!
//! One repetition of a workload runs it once through the entry point the
//! `slb` CLI uses (`run_validate`, `SweepSpec::parse` → `run_sweep`,
//! `run_serve`), timed from outside, and checks the outcome. Set-up time
//! cannot be read from inside those calls, so each repetition times one
//! pass of the same public set-up functions the runners call, next to
//! the call:
//!
//! * `scale-1m` and `dynamic-64k` re-drive their trial through the
//!   public engine API after the call. The re-drive times its set-up,
//!   checks every round (conservation) and must reproduce the artifact's
//!   round and migration counts.
//! * `converge` and `serve` set their instances up once before the call,
//!   in the fresh process, since their checks read the outcome directly.
//!
//! A traced repetition re-drives every workload with spans on
//! ([`Tracer`]) and derives the per-layer metrics from them.
//!
//! Every engine runs with one worker thread, except the explicit
//! two-thread fan-out probes at the end of a traced repetition.

use crate::checks::{self, Conserved, Tally};
use crate::trace::{percentile, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slb_analysis::serve::{run_serve, ServeReport, ServeSpec};
use slb_analysis::stats::Summary;
use slb_analysis::sweep::{run_sweep, SweepConfig};
use slb_analysis::theory::{self, Instance};
use slb_analysis::validate::{run_validate, ValidateConfig};
use slb_core::engine::dynamic::{DynamicRule, DynamicSim};
use slb_core::engine::speed_fast::{SpeedFastRule, SpeedFastSim};
use slb_core::engine::uniform_fast::{CountState, UniformFastSim};
use slb_core::engine::weighted_fast::{ClassCountState, WeightedFastSim};
use slb_core::equilibrium::Threshold;
use slb_core::model::{System, TaskId};
use slb_core::protocol::Alpha;
use slb_core::rng::{derive_seed, rng_for, streams};
use slb_graphs::NodeId;
use slb_serve::{PolicyKind, ServeConfig, TICKS_PER_UNIT};
use slb_workloads::faults::{parse_faults, parse_retry, parse_signal};
use slb_workloads::scenario;
use slb_workloads::sweep::{parse_family, parse_speeds, parse_weights};
use slb_workloads::traffic::{parse_closed, parse_traffic};
use slb_workloads::validate::{Regime, RowSpec};
use slb_workloads::weight_classes::WeightClasses;
use slb_workloads::{BuiltScenario, CellSpec, ProtocolKind, StopRule, SweepSpec, ValidateSpec};
use slb_workloads::{SignalSpec, TrafficSpec};
use std::time::Instant;

/// `slb validate` ladder of `converge`: many tiny rounds, working set in
/// L1/L2.
pub const CONVERGE: &[&str] = &[
    "family=ring,hypercube",
    "n=16..256:x2",
    "load=16",
    "protocol=alg1,alg2,bhs",
    "regime=approx,exact",
    "speeds=alternating:2",
];
const CONVERGE_TRIALS: usize = 1;

/// `slb sweep` grid of `scale-1m`: one trial on 2²⁰ nodes.
pub const SCALE_1M: &[&str] = &[
    "graph=torus:1024x1024",
    "tasks-per-node=16",
    "speeds=two-class:4:0.25",
    "weights=bimodal:0.25:1:0.2",
    "placement=random",
    "protocol=alg2",
    "until=nash",
];
const SCALE_ROUNDS: u64 = 4;

/// `slb sweep` grid of `dynamic-64k`: the event layer on 2¹⁶ nodes.
pub const DYNAMIC_64K: &[&str] = &[
    "graph=torus:256x256",
    "tasks-per-node=16",
    "speeds=two-class:4:0.25",
    "weights=bimodal:0.25:1:0.2",
    "placement=random",
    "protocol=alg1",
    "arrivals=poisson:2",
    "completions=rate:0.125",
    "churn=rate:0.001",
    "speed-dyn=drift:0.05",
];
const DYNAMIC_ROUNDS: u64 = 20;

/// `slb serve` spec of `serve`'s fault-free phase (all six policies).
pub const SERVE_PLAIN: &[&str] = &[
    "graph=ring:64",
    "speeds=two-class:4:0.25",
    "weights=bimodal:0.25:1:0.2",
    "traffic=poisson:160",
    "closed=16:0.5",
    "horizon=500",
];
/// What `serve`'s degraded phase adds to [`SERVE_PLAIN`].
pub const SERVE_FAULTS: &[&str] = &[
    "faults=crash:20:2",
    "signal=stale:0.5+loss:0.1",
    "retry=max:3:base:0.25",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Converge,
    Scale1m,
    Dynamic64k,
    Serve,
}

impl Workload {
    /// Every workload with its command-line name.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("converge", Workload::Converge),
        ("scale-1m", Workload::Scale1m),
        ("dynamic-64k", Workload::Dynamic64k),
        ("serve", Workload::Serve),
    ];

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Entry point call, from parsing the spec to the rendered artifact.
    pub wall_s: f64,
    /// One set-up pass of the workload's instances (everything before
    /// the first round or event).
    pub setup_s: f64,
    /// The round phase: `scale-1m` and `dynamic-64k` time their
    /// re-drive's round loop (steps and stop checks, not the benchmark's
    /// own checks); `converge` and `serve` take `wall_s` − `setup_s`.
    pub phase_s: f64,
    /// CPU time (user + system) of the entry point call.
    pub cpu_s: f64,
    /// Peak resident set of the process after the entry point call.
    pub peak_rss_mb: f64,
    /// Kernel rounds; on `serve`, units of virtual time over all runs.
    pub rounds: u64,
    /// Task-rounds (tasks present in each round); on `serve`, jobs
    /// resolved (completed + failed).
    pub jobs: u64,
    /// Correctness checks.
    pub tally: Tally,
    /// The rendered artifact.
    pub artifact: String,
    /// Where a re-drive disagreed with the artifact it must reproduce.
    pub mismatches: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(String, f64)>,
}

/// Runs one repetition of `workload` on `seed`, traced or not (a traced
/// repetition ends with the two-thread fan-out probe).
pub fn run(workload: Workload, seed: u64, tracer: &mut Tracer) -> Rep {
    match workload {
        Workload::Converge => converge(seed, tracer),
        Workload::Scale1m => scale_1m(seed, tracer),
        Workload::Dynamic64k => dynamic_64k(seed, tracer),
        Workload::Serve => serve(seed, tracer),
    }
}

// ---------------------------------------------------------------------
// Process readings and timing helpers.

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long` counters this benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time (user + system) this process and its threads, exited ones
/// included, have spent so far, in seconds with microsecond resolution
/// (`getrusage(RUSAGE_SELF)`). The runners do their work on a worker
/// thread, so the main thread's own counters would miss it.
fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) failed");
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    seconds(usage.utime) + seconds(usage.stime)
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM in kB");
    kb / 1024.0
}

/// Runs an entry point call and fills the repetition's wall, CPU and
/// memory readings.
fn entry<T>(rep: &mut Rep, f: impl FnOnce() -> T) -> T {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let value = f();
    rep.wall_s = start.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu;
    rep.peak_rss_mb = peak_rss_mb();
    value
}

/// Step time with two workers over step time with one, on twin engines
/// that start from the same warm state (their trajectories are
/// identical, since results do not depend on the thread count).
fn fanout_ratio<'a>(make: impl Fn(usize) -> CountSim<'a>, warm: usize, samples: usize) -> f64 {
    let (mut one, mut two) = (make(1), make(2));
    for _ in 0..warm {
        one.step();
        two.step();
    }
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        for (sim, times) in [(&mut one, &mut t1), (&mut two, &mut t2)] {
            let start = Instant::now();
            std::hint::black_box(sim.step());
            times.push(start.elapsed().as_secs_f64());
        }
    }
    percentile(&t2, 0.5) / percentile(&t1, 0.5)
}

/// Bytes one count-kernel round touches, computed from the array sizes
/// (not measured): per-(node, class) counts read and written, node
/// weights, loads, speeds and the CSR offsets and adjacency, all 8-byte
/// words.
fn round_bytes(n: usize, edges: usize, classes: usize) -> f64 {
    8.0 * (2 * n * classes + 3 * n + (n + 1) + 2 * edges) as f64
}

// ---------------------------------------------------------------------
// The count engines behind one interface.

/// The static count engine the sweep and validate runners dispatch a
/// protocol to.
enum CountSim<'a> {
    Uniform(UniformFastSim<'a>),
    Weighted(WeightedFastSim<'a>),
    Speed(SpeedFastSim<'a>),
}

impl<'a> CountSim<'a> {
    /// The engine for `protocol` on `built`, as the runners build it:
    /// counts straight from the placement for Algorithm 1 on unit tasks,
    /// otherwise the weight-class collapse of the per-task scenario.
    fn new(
        protocol: ProtocolKind,
        unit_tasks: bool,
        built: &'a BuiltScenario,
        sim_seed: u64,
        t: &mut Tracer,
    ) -> Self {
        let system = &built.system;
        if protocol == ProtocolKind::Alg1 && unit_tasks {
            let counts: Vec<u64> = (0..system.node_count())
                .map(|v| built.initial.node_task_count(NodeId(v)) as u64)
                .collect();
            return t.span("engine.new", |_| {
                CountSim::Uniform(
                    UniformFastSim::new(
                        system,
                        Alpha::Approximate,
                        CountState::new(counts),
                        sim_seed,
                    )
                    .with_threads(1),
                )
            });
        }
        let state = t.span("workloads.classes", |_| class_state_of(built));
        t.span("engine.new", |_| {
            CountSim::from_classes(protocol, system, state, sim_seed, 1)
        })
    }

    fn from_classes(
        protocol: ProtocolKind,
        system: &'a System,
        state: ClassCountState,
        sim_seed: u64,
        threads: usize,
    ) -> Self {
        let rule = match protocol {
            ProtocolKind::Alg1 => {
                return CountSim::Weighted(
                    WeightedFastSim::new(system, Alpha::Approximate, state, sim_seed)
                        .with_threads(threads),
                )
            }
            ProtocolKind::Alg2 => SpeedFastRule::Alg2,
            ProtocolKind::Bhs => SpeedFastRule::Bhs,
            other => panic!("`{}` has no count engine", other.grid_label()),
        };
        CountSim::Speed(
            SpeedFastSim::new(system, rule, Alpha::Approximate, state, sim_seed)
                .with_threads(threads),
        )
    }

    /// A fresh engine of the same kind starting from this one's state.
    fn twin(&self, system: &'a System, sim_seed: u64, threads: usize) -> CountSim<'a> {
        match self {
            CountSim::Uniform(s) => CountSim::Uniform(
                UniformFastSim::new(system, Alpha::Approximate, s.state().clone(), sim_seed)
                    .with_threads(threads),
            ),
            CountSim::Weighted(s) => CountSim::from_classes(
                ProtocolKind::Alg1,
                system,
                s.state().clone(),
                sim_seed,
                threads,
            ),
            CountSim::Speed(s) => CountSim::Speed(
                SpeedFastSim::new(
                    system,
                    s.rule(),
                    Alpha::Approximate,
                    s.state().clone(),
                    sim_seed,
                )
                .with_threads(threads),
            ),
        }
    }

    /// One round; returns the migrations.
    fn step(&mut self) -> u64 {
        match self {
            CountSim::Uniform(s) => s.step(),
            CountSim::Weighted(s) => s.step().migrations,
            CountSim::Speed(s) => s.step().migrations,
        }
    }

    fn psi0(&self) -> f64 {
        match self {
            CountSim::Uniform(s) => s.psi0(),
            CountSim::Weighted(s) => s.psi0(),
            CountSim::Speed(s) => s.psi0(),
        }
    }

    fn is_nash(&self, threshold: Threshold) -> bool {
        match self {
            CountSim::Uniform(s) => s.is_nash(),
            CountSim::Weighted(s) => s.is_nash(threshold),
            CountSim::Speed(s) => s.is_nash(threshold),
        }
    }

    fn nash_gap(&self, threshold: Threshold) -> f64 {
        match self {
            CountSim::Uniform(s) => s.nash_gap(),
            CountSim::Weighted(s) => s.nash_gap(threshold),
            CountSim::Speed(s) => s.nash_gap(threshold),
        }
    }

    /// Weight classes of the state (1 for the uniform engine).
    fn classes(&self) -> usize {
        match self {
            CountSim::Uniform(_) => 1,
            CountSim::Weighted(s) => s.state().classes(),
            CountSim::Speed(s) => s.state().classes(),
        }
    }

    fn conserved(&self) -> Conserved {
        match self {
            CountSim::Uniform(s) => Conserved {
                class_totals: vec![s.state().total()],
                weight: s.state().total() as f64,
            },
            CountSim::Weighted(s) => Conserved::of(s.state()),
            CountSim::Speed(s) => Conserved::of(s.state()),
        }
    }
}

/// The weight-class count state of a built scenario, collapsed from its
/// per-task weights and placement the way the runners do it.
fn class_state_of(built: &BuiltScenario) -> ClassCountState {
    let system = &built.system;
    let task_weights: Vec<f64> = system.tasks().iter().map(|(_, w)| w).collect();
    let task_nodes: Vec<usize> = (0..system.task_count())
        .map(|t| built.initial.task_node(TaskId(t)).index())
        .collect();
    let classes = WeightClasses::from_samples(&task_weights, WeightClasses::DEFAULT_MAX_CLASSES);
    let counts = classes.node_class_counts(&task_weights, &task_nodes, system.node_count());
    ClassCountState::new(classes.weights().to_vec(), counts)
}

/// Runs one round, sampled as the cold first step or a warm one.
fn timed_step(sim: &mut CountSim, first: bool, t: &mut Tracer) -> u64 {
    let name = if first {
        "engine.first_step"
    } else {
        "engine.step"
    };
    t.sample(name, || sim.step())
}

/// Adds one run's round counters: rounds, migrations, task-rounds and
/// computed bytes.
fn count_rounds(t: &mut Tracer, rounds: u64, migrations: u64, tasks: u64, bytes_per_round: f64) {
    t.count("engine.rounds", rounds as f64);
    t.count("engine.migrations", migrations as f64);
    t.count("engine.task_rounds", (rounds * tasks) as f64);
    t.count("engine.bytes", rounds as f64 * bytes_per_round);
}

// ---------------------------------------------------------------------
// converge: the `slb validate` ladder.

fn converge_spec() -> ValidateSpec {
    let mut spec = ValidateSpec::parse(CONVERGE).expect("the converge ladder parses");
    spec.trials = CONVERGE_TRIALS;
    spec
}

/// A set-up ladder trial: the built scenario and its stop rule inputs.
struct LadderTrial {
    built: BuiltScenario,
    unit_tasks: bool,
    threshold: Threshold,
    psi_bound: f64,
    sim_seed: u64,
}

/// Sets one ladder trial up exactly as `run_validate` does.
fn ladder_trial(
    row: &RowSpec,
    spec: &ValidateSpec,
    n: usize,
    seed: u64,
    t: &mut Tracer,
) -> LadderTrial {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0, streams::trial::SCENARIO));
    let family = row.family.resolve(n).expect("the ladder resolves");
    let graph = t.span("graphs.build", |_| family.build());
    let built = t.span("workloads.scenario", |_| {
        scenario::build(
            graph,
            spec.speeds,
            spec.weights,
            spec.placement,
            row.load.tasks_per_node(n),
            &mut rng,
        )
        .expect("the ladder builds")
    });
    let unit_tasks = spec.weights == slb_workloads::weights::WeightDistribution::Unit;
    let system = &built.system;
    let speeds = system.speeds();
    let inst = Instance {
        n: system.node_count(),
        total_work: system.tasks().total_weight(),
        max_degree: system.graph().max_degree(),
        lambda2: slb_spectral::closed_form::lambda2_family(family),
        s_min: speeds.min(),
        s_max: speeds.max(),
        s_total: speeds.total(),
        granularity: speeds.granularity(),
    };
    let psi_c = if unit_tasks {
        theory::psi_c(&inst)
    } else {
        theory::psi_c_weighted(&inst)
    };
    LadderTrial {
        unit_tasks,
        threshold: if unit_tasks {
            Threshold::UnitWeight
        } else {
            Threshold::LightestTask
        },
        psi_bound: 4.0 * psi_c,
        sim_seed: derive_seed(seed, 0, streams::trial::SIM),
        built,
    }
}

/// Every ladder trial in `run_validate`'s order: row, ladder point,
/// trial, with the seed `run_validate` hands it.
fn ladder_trials(spec: &ValidateSpec, base_seed: u64) -> Vec<(usize, RowSpec, usize, u64)> {
    let points = spec.sizes.len();
    let mut out = Vec::new();
    for (r, row) in spec.rows().into_iter().enumerate() {
        for (p, &n) in spec.sizes.iter().enumerate() {
            for trial in 0..spec.trials {
                let key = (r * points + p) as u64;
                out.push((
                    r * points + p,
                    row,
                    n,
                    derive_seed(base_seed, key, trial as u64),
                ));
            }
        }
    }
    out
}

fn converge(seed: u64, t: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let spec = converge_spec();
    let trials = ladder_trials(&spec, seed);
    // Set-up: every ladder trial's graph, scenario and engine, built and
    // dropped in turn.
    let start = Instant::now();
    let mut off = Tracer::new(false);
    for (_, row, n, trial_seed) in &trials {
        let trial = ladder_trial(row, &spec, *n, *trial_seed, &mut off);
        let sim = CountSim::new(
            row.protocol,
            trial.unit_tasks,
            &trial.built,
            trial.sim_seed,
            &mut off,
        );
        std::hint::black_box(&sim);
    }
    rep.setup_s = start.elapsed().as_secs_f64();

    let (outcome, artifact) = entry(&mut rep, || {
        let spec = converge_spec();
        let config = ValidateConfig {
            base_seed: seed,
            threads: 1,
        };
        let outcome = run_validate(&spec, config).expect("the converge ladder builds");
        let artifact = outcome.to_csv();
        (outcome, artifact)
    });
    rep.phase_s = rep.wall_s - rep.setup_s;
    rep.tally = checks::ladder_trials(&outcome);
    let points: Vec<_> = outcome.rows.iter().flat_map(|r| &r.points).collect();
    // Censored trials count the whole budget, as the report does.
    let point_rounds: Vec<u64> = points
        .iter()
        .map(|p| (p.rounds.mean * p.rounds.count as f64).round() as u64)
        .collect();
    let point_reached: Vec<u64> = points
        .iter()
        .map(|p| (p.reached_fraction * p.rounds.count as f64).round() as u64)
        .collect();
    rep.rounds = point_rounds.iter().sum();
    rep.jobs = points
        .iter()
        .zip(&point_rounds)
        .map(|(p, r)| p.m as u64 * r)
        .sum();
    rep.artifact = artifact;
    if !t.enabled() {
        return rep;
    }

    let start = Instant::now();
    let mut rounds = vec![0u64; points.len()];
    let mut reached = vec![0u64; points.len()];
    t.span("converge", |t| {
        for (point, row, n, trial_seed) in &trials {
            t.span("trial", |t| {
                let trial = t.span("setup", |t| ladder_trial(row, &spec, *n, *trial_seed, t));
                let mut sim = t.span("setup", |t| {
                    CountSim::new(
                        row.protocol,
                        trial.unit_tasks,
                        &trial.built,
                        trial.sim_seed,
                        t,
                    )
                });
                let met = |sim: &CountSim| match row.regime {
                    Regime::Approx => sim.psi0() <= trial.psi_bound,
                    Regime::Eps => unreachable!("the ladder runs the approx and exact regimes"),
                    Regime::Exact => sim.is_nash(trial.threshold),
                };
                let (done, hit, migrations) = t.span("engine.rounds", |t| {
                    let mut migrations = 0;
                    let mut outcome = None;
                    for executed in 0..spec.max_rounds {
                        if t.sample("equilibrium.check", || met(&sim)) {
                            outcome = Some((executed, true));
                            break;
                        }
                        migrations += timed_step(&mut sim, executed == 0, t);
                    }
                    let (done, hit) = outcome.unwrap_or_else(|| {
                        (spec.max_rounds, t.sample("equilibrium.check", || met(&sim)))
                    });
                    t.sample("equilibrium.check", || sim.nash_gap(trial.threshold));
                    (done, hit, migrations)
                });
                let system = &trial.built.system;
                let bytes = round_bytes(
                    system.node_count(),
                    system.graph().edge_count(),
                    sim.classes(),
                );
                count_rounds(t, done, migrations, system.task_count() as u64, bytes);
                rounds[*point] += done;
                reached[*point] += u64::from(hit);
            });
        }
    });
    let traced_s = start.elapsed().as_secs_f64();
    for (p, point) in points.iter().enumerate() {
        if rounds[p] != point_rounds[p] || reached[p] != point_reached[p] {
            rep.mismatches.push(format!(
                "ladder point {p} (n = {}): re-drive {} rounds / {} reached, artifact {} / {}",
                point.n, rounds[p], reached[p], point_rounds[p], point_reached[p]
            ));
        }
    }
    // The fan-out probe, on the initial state of the first n = 64 trial.
    let (_, row, n, trial_seed) = trials
        .iter()
        .find(|(_, _, n, _)| *n == 64)
        .expect("the ladder has n = 64");
    let trial = ladder_trial(row, &spec, *n, *trial_seed, &mut off);
    let base = CountSim::new(
        row.protocol,
        trial.unit_tasks,
        &trial.built,
        trial.sim_seed,
        &mut off,
    );
    let system = &trial.built.system;
    let ratio = fanout_ratio(
        |threads| base.twin(system, trial.sim_seed, threads),
        20,
        400,
    );
    rep.layers.push(("engine.fanout_ratio.n64".into(), ratio));
    rep.layers.extend(engine_layers(t, traced_s - rep.wall_s));
    rep
}

// ---------------------------------------------------------------------
// scale-1m and dynamic-64k: `slb sweep` cells.

fn sweep_cell(tokens: &[&str], rounds: u64) -> (SweepSpec, CellSpec) {
    let mut spec = SweepSpec::parse(tokens).expect("the sweep grid parses");
    spec.trials = 1;
    spec.max_rounds = rounds;
    let cells = spec.cells();
    assert_eq!(cells.len(), 1, "a sweep workload is one cell");
    (spec, cells[0])
}

/// Runs the sweep through the CLI's entry point; returns the artifact
/// and the cell's rounds and migrations.
fn sweep_entry(rep: &mut Rep, tokens: &[&str], rounds: u64, seed: u64) -> (u64, u64) {
    let (rounds, migrations, artifact) = entry(rep, || {
        let (spec, _) = sweep_cell(tokens, rounds);
        let outcome =
            run_sweep(&spec, SweepConfig::sequential(seed)).expect("the sweep cell builds");
        let artifact = outcome.to_csv();
        let stats = outcome.cells[0].stats.expect("the cell executed");
        (
            stats.rounds.mean as u64,
            stats.migrations.mean as u64,
            artifact,
        )
    });
    rep.artifact = artifact;
    (rounds, migrations)
}

/// Sets the single trial of a sweep cell up exactly as `run_sweep` does
/// (cell 0, trial 0).
fn sweep_setup(cell: &CellSpec, seed: u64, t: &mut Tracer) -> (BuiltScenario, u64) {
    // `run_cell_trials`' seed for trial 0 of cell 0.
    let (cell_key, trial) = (0, 0);
    let trial_seed = derive_seed(seed, cell_key, trial);
    let mut rng = StdRng::seed_from_u64(derive_seed(trial_seed, 0, streams::trial::SCENARIO));
    let graph = t.span("graphs.build", |_| cell.graph.build());
    let built = t.span("workloads.scenario", |_| {
        scenario::build(
            graph,
            cell.speeds,
            cell.weights,
            cell.placement,
            cell.tasks_per_node,
            &mut rng,
        )
        .expect("the sweep cell builds")
    });
    (built, derive_seed(trial_seed, 0, streams::trial::SIM))
}

fn threshold_of(system: &System) -> Threshold {
    if system.tasks().is_uniform() {
        Threshold::UnitWeight
    } else {
        Threshold::LightestTask
    }
}

fn compare_counts(rep: &mut Rep, what: &str, redrive: (u64, u64), artifact: (u64, u64)) {
    if redrive != artifact {
        rep.mismatches.push(format!(
            "{what}: re-drive {} rounds / {} migrations, artifact {} / {}",
            redrive.0, redrive.1, artifact.0, artifact.1
        ));
    }
}

/// The benchmark's own per-round checks in a re-drive: their tally and
/// the time they take, which the round phase leaves out.
#[derive(Default)]
struct Verify {
    tally: Tally,
    seconds: f64,
}

impl Verify {
    fn run(&mut self, t: &mut Tracer, check: impl FnOnce() -> bool) {
        let start = Instant::now();
        self.tally.record(t.sample("bench.verify", check));
        self.seconds += start.elapsed().as_secs_f64();
    }
}

fn scale_1m(seed: u64, t: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let artifact = sweep_entry(&mut rep, SCALE_1M, SCALE_ROUNDS, seed);
    let (_, cell) = sweep_cell(SCALE_1M, SCALE_ROUNDS);

    let start = Instant::now();
    let (built, sim_seed) = t.span("setup", |t| sweep_setup(&cell, seed, t));
    let mut sim = t.span("setup", |t| {
        CountSim::new(cell.protocol, cell.is_uniform_tasks(), &built, sim_seed, t)
    });
    rep.setup_s = start.elapsed().as_secs_f64();
    let system = &built.system;
    let threshold = threshold_of(system);
    let conserved = sim.conserved();
    // `run_sweep`'s stop-rule driver for `until=nash`: the rule is checked
    // before every round and once more when the budget runs out.
    assert_eq!(
        cell.stop,
        StopRule::Nash,
        "scale-1m runs until a Nash equilibrium"
    );
    let phase = Instant::now();
    let mut verify = Verify::default();
    let (rounds, migrations) = t.span("engine.rounds", |t| {
        let mut migrations = 0;
        let mut rounds = SCALE_ROUNDS;
        for executed in 0..=SCALE_ROUNDS {
            if t.sample("equilibrium.check", || sim.is_nash(threshold)) {
                rounds = executed;
                break;
            }
            if executed == SCALE_ROUNDS {
                break;
            }
            migrations += timed_step(&mut sim, executed == 0, t);
            verify.run(t, || conserved.holds(&sim.conserved()));
        }
        t.sample("equilibrium.check", || sim.psi0());
        (rounds, migrations)
    });
    rep.phase_s = phase.elapsed().as_secs_f64() - verify.seconds;
    let traced_s = start.elapsed().as_secs_f64() - verify.seconds;
    let tally = verify.tally;
    rep.tally = tally;
    rep.rounds = rounds;
    rep.jobs = rounds * system.task_count() as u64;
    compare_counts(&mut rep, "scale-1m", (rounds, migrations), artifact);
    if t.enabled() {
        let bytes = round_bytes(
            system.node_count(),
            system.graph().edge_count(),
            sim.classes(),
        );
        count_rounds(t, rounds, migrations, system.task_count() as u64, bytes);
        let ratio = fanout_ratio(|threads| sim.twin(system, sim_seed, threads), 1, 4);
        rep.layers
            .push(("engine.fanout_ratio.n1048576".into(), ratio));
        rep.layers.extend(engine_layers(t, traced_s - rep.wall_s));
    }
    rep
}

fn dynamic_64k(seed: u64, t: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let artifact = sweep_entry(&mut rep, DYNAMIC_64K, DYNAMIC_ROUNDS, seed);
    let (_, cell) = sweep_cell(DYNAMIC_64K, DYNAMIC_ROUNDS);

    let start = Instant::now();
    let (built, sim_seed) = t.span("setup", |t| sweep_setup(&cell, seed, t));
    let system = &built.system;
    let initial = t.span("setup", |t| {
        t.span("workloads.classes", |_| class_state_of(&built))
    });
    let rule = match cell.protocol {
        ProtocolKind::Alg1 | ProtocolKind::Alg2 => DynamicRule::Relaxed,
        _ => DynamicRule::OwnWeight,
    };
    let mut sim = t.span("setup", |t| {
        t.span("engine.new", |_| {
            DynamicSim::new(
                system,
                rule,
                Alpha::Approximate,
                initial,
                cell.dynamic_config(),
                sim_seed,
            )
            .with_threads(1)
        })
    });
    rep.setup_s = start.elapsed().as_secs_f64();
    let threshold = threshold_of(system);
    let phase = Instant::now();
    let mut verify = Verify::default();
    // `run_sweep`'s dynamic driver: a fixed horizon, the Nash gap read
    // after every round.
    let migrations = t.span("engine.rounds", |t| {
        let mut migrations = 0u64;
        for round in 0..DYNAMIC_ROUNDS {
            let before = sim.total_tasks();
            let name = if round == 0 {
                "engine.first_step"
            } else {
                "dynamic.step"
            };
            let report = t.sample(name, || sim.step());
            t.sample("equilibrium.check", || sim.nash_gap(threshold));
            verify.run(t, || {
                checks::dynamic_round(before, &report, sim.state(), sim.alive())
            });
            let tasks = sim.total_tasks();
            rep.jobs += tasks;
            migrations += report.migrations;
            let bytes = round_bytes(
                system.node_count(),
                sim.graph().edge_count(),
                sim.state().classes(),
            );
            count_rounds(t, 1, report.migrations, tasks, bytes);
            t.count("dynamic.arrived", report.arrived as f64);
            t.count("dynamic.completed", report.completed as f64);
            t.count("dynamic.left", report.left as f64);
            t.count("dynamic.joined", report.joined as f64);
        }
        t.sample("equilibrium.check", || sim.psi0());
        migrations
    });
    rep.phase_s = phase.elapsed().as_secs_f64() - verify.seconds;
    let traced_s = start.elapsed().as_secs_f64() - verify.seconds;
    rep.tally = verify.tally;
    rep.rounds = DYNAMIC_ROUNDS;
    compare_counts(
        &mut rep,
        "dynamic-64k",
        (DYNAMIC_ROUNDS, migrations),
        artifact,
    );
    if t.enabled() {
        // The static Algorithm 1 engine on the same 2¹⁶-node scenario.
        let state = class_state_of(&built);
        let base = CountSim::from_classes(ProtocolKind::Alg1, system, state, sim_seed, 1);
        let ratio = fanout_ratio(|threads| base.twin(system, sim_seed, threads), 2, 10);
        rep.layers
            .push(("engine.fanout_ratio.n65536".into(), ratio));
        rep.layers.extend(engine_layers(t, traced_s - rep.wall_s));
        let steps = t.samples("dynamic.step");
        rep.layers
            .push(("dynamic.step_ms_p50".into(), percentile(steps, 0.5) * 1e3));
        rep.layers
            .push(("dynamic.step_ms_p99".into(), percentile(steps, 0.99) * 1e3));
        for event in ["arrived", "completed", "left", "joined"] {
            let name = format!("dynamic.{event}");
            rep.layers.push((name.clone(), t.counter(&name)));
        }
    }
    rep
}

/// Per-layer metrics shared by the round-based workloads.
fn engine_layers(t: &Tracer, overhead_s: f64) -> Vec<(String, f64)> {
    let warm = t.samples("engine.step");
    let first = t.samples("engine.first_step");
    let step_s: f64 = [warm, first, t.samples("dynamic.step")]
        .iter()
        .map(|s| s.iter().sum::<f64>())
        .sum();
    let checks = t.samples("equilibrium.check");
    let rounds = t.counter("engine.rounds");
    let migrations = t.counter("engine.migrations");
    vec![
        ("graphs.build_s".into(), t.span_total("graphs.build")),
        (
            "workloads.scenario_s".into(),
            t.span_total("workloads.scenario"),
        ),
        (
            "workloads.classes_s".into(),
            t.span_total("workloads.classes"),
        ),
        ("engine.rounds".into(), rounds),
        ("engine.step_s".into(), step_s),
        ("engine.step_us_p50".into(), percentile(warm, 0.5) * 1e6),
        ("engine.step_us_p99".into(), percentile(warm, 0.99) * 1e6),
        ("engine.step_samples".into(), warm.len() as f64),
        ("engine.first_step_us".into(), percentile(first, 0.5) * 1e6),
        ("engine.migrations".into(), migrations),
        (
            "engine.migrated_frac".into(),
            migrations / t.counter("engine.task_rounds"),
        ),
        (
            "engine.bytes_per_round".into(),
            t.counter("engine.bytes") / rounds,
        ),
        ("equilibrium.check_s".into(), checks.iter().sum()),
        ("equilibrium.checks".into(), checks.len() as f64),
        ("trace.round_phase_s".into(), t.span_total("engine.rounds")),
        ("trace.overhead_s".into(), overhead_s),
    ]
}

// ---------------------------------------------------------------------
// serve: `slb serve`, fault-free then degraded.

/// Builds a serve spec from `key=value` tokens with the parsers `slb
/// serve` uses (defaults as the CLI's: `ring:8`, all six policies,
/// uniform speeds, unit weights, `poisson:4`, horizon 100).
pub fn serve_spec(tokens: &[&str]) -> ServeSpec {
    let mut spec = ServeSpec {
        family: slb_graphs::generators::Family::Ring { n: 8 },
        policies: PolicyKind::ALL.to_vec(),
        speeds: slb_workloads::speeds::SpeedDistribution::Uniform,
        weights: slb_workloads::weights::WeightDistribution::Unit,
        traffic: TrafficSpec {
            open: parse_traffic("poisson:4").expect("default traffic parses"),
            closed: None,
        },
        faults: None,
        signal: SignalSpec::default(),
        retry: None,
        horizon: 100,
        shift: 0.0,
    };
    for token in tokens {
        let (key, value) = token.split_once('=').expect("serve tokens are key=value");
        fn ok<T>(token: &str, parsed: Result<T, slb_workloads::SweepParseError>) -> T {
            parsed.unwrap_or_else(|e| panic!("serve token `{token}`: {e}"))
        }
        match key {
            "graph" => spec.family = ok(token, parse_family(value)),
            "speeds" => spec.speeds = ok(token, parse_speeds(value)),
            "weights" => spec.weights = ok(token, parse_weights(value)),
            "traffic" => spec.traffic.open = ok(token, parse_traffic(value)),
            "closed" => spec.traffic.closed = ok(token, parse_closed(value)),
            "faults" => spec.faults = ok(token, parse_faults(value)),
            "signal" => spec.signal = ok(token, parse_signal(value)),
            "retry" => spec.retry = ok(token, parse_retry(value)),
            "horizon" => spec.horizon = value.parse().expect("horizon is a whole number"),
            other => panic!("unknown serve key `{other}`"),
        }
    }
    spec
}

/// The two phases: name and spec tokens.
fn serve_phases() -> [(&'static str, Vec<&'static str>); 2] {
    [
        ("plain", SERVE_PLAIN.to_vec()),
        ("faults", [SERVE_PLAIN, SERVE_FAULTS].concat()),
    ]
}

fn serve(seed: u64, t: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    // Everything `run_serve` does before the first event: the spec, the
    // graph and the sampled speeds.
    let setup = |tokens: &[&str], t: &mut Tracer| {
        let spec = serve_spec(tokens);
        let graph = t.span("graphs.build", |_| spec.family.build());
        let speeds = t.span("workloads.scenario", |_| {
            let mut rng = rng_for(seed, 0, streams::trial::SCENARIO);
            spec.speeds.sample(graph.node_count(), &mut rng)
        });
        (spec, graph, speeds)
    };
    let start = Instant::now();
    let mut off = Tracer::new(false);
    for (_, tokens) in &serve_phases() {
        std::hint::black_box(setup(tokens, &mut off));
    }
    rep.setup_s = start.elapsed().as_secs_f64();

    let (reports, artifact) = entry(&mut rep, || {
        let reports: Vec<ServeReport> = serve_phases()
            .iter()
            .map(|(_, tokens)| run_serve(&serve_spec(tokens), seed, 1))
            .collect();
        let artifact: String = reports.iter().map(ServeReport::to_csv).collect();
        (reports, artifact)
    });
    rep.artifact = artifact;
    rep.phase_s = rep.wall_s - rep.setup_s;
    rep.tally = checks::serve_runs(&reports[0], &reports[1]);
    for report in &reports {
        rep.rounds += report.spec.horizon * report.rows.len() as u64;
        rep.jobs += report
            .rows
            .iter()
            .map(|r| r.latency.count as u64 + r.failed_jobs)
            .sum::<u64>();
    }
    if !t.enabled() {
        return rep;
    }

    let start = Instant::now();
    for ((phase, tokens), report) in serve_phases().iter().zip(&reports) {
        let (spec, graph, speeds) = t.span("setup", |t| setup(tokens, t));
        for (pos, (&policy, row)) in spec.policies.iter().zip(&report.rows).enumerate() {
            let config = ServeConfig {
                graph: &graph,
                speeds: &speeds,
                traffic: spec.traffic,
                weights: spec.weights,
                faults: spec.faults,
                signal: spec.signal,
                retry: spec.retry,
                horizon: spec.horizon,
                scenario_seed: derive_seed(seed, 0, streams::trial::SCENARIO),
                policy_seed: derive_seed(seed, pos as u64, streams::trial::SIM),
            };
            let name = format!("serve.run.{phase}.{}", policy.label());
            let outcome = t.span(&name, |_| slb_serve::run(&config, policy));
            // What `run_serve` does with a run's jobs: the latency sample
            // of the (whole-horizon) window and its quantiles.
            t.span("serve.report", |_| {
                let latencies: Vec<f64> = outcome
                    .jobs
                    .iter()
                    .map(|j| (j.finish - j.arrival) as f64 / TICKS_PER_UNIT as f64)
                    .collect();
                std::hint::black_box(Summary::of(&latencies));
            });
            let completed = outcome.jobs.len() as u64;
            let counts = (outcome.jobs_offered, completed, outcome.failed_jobs);
            let artifact = (row.jobs_offered, row.latency.count as u64, row.failed_jobs);
            if counts != artifact {
                rep.mismatches.push(format!(
                    "{name}: re-run offered/completed/failed {counts:?}, artifact {artifact:?}"
                ));
            }
            let label = format!("{phase}.{}", policy.label());
            rep.layers
                .push((format!("serve.run_s.{label}"), t.span_total(&name)));
            rep.layers
                .push((format!("serve.jobs.{label}"), completed as f64));
            if *phase == "faults" {
                rep.layers.push((
                    format!("serve.failed_jobs.{label}"),
                    outcome.failed_jobs as f64,
                ));
                rep.layers.push((
                    format!("serve.retries.{label}"),
                    outcome.retries_total as f64,
                ));
            }
        }
    }
    let traced_s = start.elapsed().as_secs_f64();
    rep.layers.extend([
        ("graphs.build_s".into(), t.span_total("graphs.build")),
        (
            "workloads.scenario_s".into(),
            t.span_total("workloads.scenario"),
        ),
        ("serve.report_s".into(), t.span_total("serve.report")),
        ("trace.overhead_s".into(), traced_s - rep.wall_s),
    ]);
    rep
}
