//! `slb-perfbench` — one repetition of one benchmark workload.
//!
//! ```console
//! slb-perfbench <converge|scale-1m|dynamic-64k|serve> --seed N \
//!               [--trace] [--sidecar PATH]
//! ```
//!
//! Prints one JSON line: the repetition's timings, its round and job
//! counts, the correctness tally, the host-speed reference time, the
//! rendered artifact, any disagreement between a re-drive and the
//! artifact, and (with `--trace`) the per-layer metrics. With
//! `--sidecar`, a traced repetition also writes its spans there.
//! `perfbench/run.py` runs repetitions for a stated time and aggregates
//! them; see README.md.

mod checks;
mod reference;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Rep, Workload};

const USAGE: &str = "usage: slb-perfbench <converge|scale-1m|dynamic-64k|serve> --seed N \
                     [--trace] [--sidecar PATH]";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    trace: bool,
    sidecar: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let name = args.next().ok_or("missing workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut parsed = Args {
        workload,
        name,
        seed: 42,
        trace: false,
        sidecar: None,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => {
                let raw = args.next().ok_or("--seed needs a value")?;
                parsed.seed = raw.parse().map_err(|_| format!("invalid seed `{raw}`"))?;
            }
            "--trace" => parsed.trace = true,
            "--sidecar" => parsed.sidecar = Some(args.next().ok_or("--sidecar needs a path")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

/// A JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which JSON lacks, become null).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn to_json(name: &str, rep: &Rep, reference_s: f64) -> String {
    let mismatches: Vec<String> = rep.mismatches.iter().map(|m| quoted(m)).collect();
    let layers: Vec<String> = rep
        .layers
        .iter()
        .map(|(k, v)| format!("{}: {}", quoted(k), number(*v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"wall_s\": {}, \"setup_s\": {}, \"phase_s\": {}, \"cpu_s\": {}, \
         \"peak_rss_mb\": {}, \"rounds\": {}, \"jobs\": {}, \"attempted\": {}, \"failed\": {}, \
         \"reference_s\": {}, \"mismatches\": [{}], \"layers\": {{{}}}, \"artifact\": {}}}",
        quoted(name),
        number(rep.wall_s),
        number(rep.setup_s),
        number(rep.phase_s),
        number(rep.cpu_s),
        number(rep.peak_rss_mb),
        rep.rounds,
        rep.jobs,
        rep.tally.attempted,
        rep.tally.failed,
        number(reference_s),
        mismatches.join(", "),
        layers.join(", "),
        quoted(&rep.artifact)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    // The host-speed reference brackets the workload: the mean of one
    // kernel run just before it and one just after.
    let before = reference::seconds();
    let rep = workloads::run(args.workload, args.seed, &mut tracer);
    let reference_s = (before + reference::seconds()) / 2.0;
    if let Some(path) = &args.sidecar {
        let header = [
            ("workload", quoted(&args.name)),
            ("seed", args.seed.to_string()),
        ];
        if let Err(e) = tracer.write_sidecar(path, &header) {
            eprintln!("error: cannot write the trace sidecar `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", to_json(&args.name, &rep, reference_s));
    ExitCode::SUCCESS
}
