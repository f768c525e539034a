//! The host-speed reference: a fixed kernel whose time measures how fast
//! the host runs at the moment, so that `run.py` can take the host's
//! drift out of the end-to-end times (README.md, Steadiness).
//!
//! The kernel is a toy round loop of the kind the workloads run: 64
//! nodes on a ring, 16 tasks each, every task draws a random neighbour
//! and moves with probability 1/4 when the neighbour holds at least two
//! fewer tasks. It is branchy, works in L1 and uses none of the
//! workspace's code, so a change to the program never changes it. Its
//! work and its code are frozen with the benchmark: changing either
//! changes the unit every normalised figure is given in.

use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 64;
const TASKS_PER_NODE: u64 = 16;
/// 0.10–0.16 s on the 2-vCPU Xeon guest the benchmark was tuned on.
const ROUNDS: usize = 12_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs the kernel once; returns its wall time in seconds.
pub fn seconds() -> f64 {
    let start = Instant::now();
    let mut rng = black_box(0x2545_F491_4F6C_DD1D_u64);
    let mut load = vec![TASKS_PER_NODE; NODES];
    let mut delta = vec![0i64; NODES];
    for _ in 0..ROUNDS {
        delta.fill(0);
        for v in 0..NODES {
            for _ in 0..load[v] {
                let r = xorshift(&mut rng);
                let u = if r & 1 == 0 {
                    (v + 1) % NODES
                } else {
                    (v + NODES - 1) % NODES
                };
                if load[u] + 1 < load[v] && (r >> 8).is_multiple_of(4) {
                    delta[v] -= 1;
                    delta[u] += 1;
                }
            }
        }
        for (l, d) in load.iter_mut().zip(&delta) {
            *l = (*l as i64 + d) as u64;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        black_box(&load).iter().sum::<u64>(),
        NODES as u64 * TASKS_PER_NODE,
        "the reference kernel conserves its tasks"
    );
    elapsed
}
