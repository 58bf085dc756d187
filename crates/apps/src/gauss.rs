//! Gaussian elimination — one of the paper's "well understood numeric
//! problems that distribute the data to separate threads and access shared
//! memory in predictable patterns".
//!
//! Rows are distributed cyclically; each row is written only by its owner
//! and read by everyone exactly when it becomes the pivot: a textbook
//! **producer-consumer** object. Because consumer sets are learned at read
//! time, the many pre-pivot updates a row receives cost only one diff to its
//! home per synchronization — no broadcast until someone actually consumes.
//!
//! (No pivoting: the generated system is made diagonally dominant, which the
//! original study programs also relied on for benchmark stability.)

use crate::{output_cell, OutputCell};
use munin_api::{Par, ParTyped, ProgramBuilder, SharedArray};
use munin_types::SharingType;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct GaussCfg {
    /// System dimension (n × n).
    pub n: u32,
    /// Nodes; one worker thread per node.
    pub nodes: usize,
    pub seed: u64,
}

impl Default for GaussCfg {
    fn default() -> Self {
        GaussCfg { n: 32, nodes: 4, seed: 1 }
    }
}

/// Diagonally dominant random matrix (elimination needs no pivoting).
fn input_matrix(cfg: &GaussCfg) -> Vec<f64> {
    let n = cfg.n as usize;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for i in 0..n {
        a[i * n + i] = n as f64 + rng.gen_range(0.0..1.0);
    }
    a
}

/// Sequential forward elimination; returns the upper-triangular factor.
pub fn reference(cfg: &GaussCfg) -> Vec<f64> {
    let n = cfg.n as usize;
    let mut a = input_matrix(cfg);
    for k in 0..n {
        for i in k + 1..n {
            let f = a[i * n + k] / a[k * n + k];
            for j in k..n {
                a[i * n + j] -= f * a[k * n + j];
            }
            a[i * n + k] = 0.0;
        }
    }
    a
}

/// Build the parallel program. The output cell receives the U factor.
pub fn build(cfg: &GaussCfg) -> (ProgramBuilder, OutputCell<Vec<f64>>) {
    let n = cfg.n as usize;
    let nodes = cfg.nodes;
    let mut p = ProgramBuilder::new(nodes);
    // One producer-consumer object per row, homed on its owner's node.
    let rows: Vec<SharedArray<f64>> = (0..n)
        .map(|i| {
            p.array::<f64>(&format!("row{i}"), n as u32, SharingType::ProducerConsumer, i % nodes)
        })
        .collect();
    let bar = p.barrier(0, nodes as u32);
    let result = p.array::<f64>("U", (n * n) as u32, SharingType::Result, 0);
    let a0 = input_matrix(cfg);
    let out = output_cell();

    for t in 0..nodes {
        let rows = rows.clone();
        let out = out.clone();
        let mine: Vec<(usize, Vec<f64>)> = (0..n)
            .filter(|i| i % nodes == t)
            .map(|i| (i, a0[i * n..(i + 1) * n].to_vec()))
            .collect();
        p.thread(t, move |par: &mut dyn Par| {
            let me = par.self_id();
            let threads = par.n_threads();
            // Initialize owned rows; keep working copies thread-local.
            let mut my_rows: Vec<(usize, Vec<f64>)> = mine.clone();
            for (i, vals) in &my_rows {
                par.write_from(&rows[*i], 0, vals);
            }
            par.barrier(bar);

            for k in 0..n {
                // Fetch the pivot row (local if we own it; producer-consumer
                // refresh keeps consumers current after the first fault).
                let pivot: Vec<f64> = if k % threads == me {
                    my_rows.iter().find(|(i, _)| *i == k).expect("own pivot").1.clone()
                } else {
                    par.read_all(&rows[k])
                };
                // Eliminate column k from our rows below the pivot.
                let mut dirtied = 0u32;
                for (i, row) in my_rows.iter_mut() {
                    if *i <= k {
                        continue;
                    }
                    let f = row[k] / pivot[k];
                    for j in k..n {
                        row[j] -= f * pivot[j];
                    }
                    row[k] = 0.0;
                    dirtied += 1;
                }
                // Publish the next pivot row (its elimination state is now
                // final — row i's last update happens at step i-1); the
                // flush at the barrier carries it to the home, and consumers
                // refresh from there.
                for (i, row) in &my_rows {
                    if *i == k + 1 {
                        par.write_from(&rows[*i], 0, row);
                    }
                }
                par.compute((dirtied as u64) * (n as u64 - k as u64) / 4);
                par.barrier(bar);
            }

            // Deposit owned rows into the result matrix.
            for (i, row) in &my_rows {
                par.write_from(&result, (*i * n) as u32, row);
            }
            par.barrier(bar);
            if me == 0 {
                let u = par.read_all(&result);
                *out.lock().unwrap() = Some(u);
            }
        });
    }
    (p, out)
}

/// Assert the computed U factor matches the reference within tolerance.
pub fn check(out: &OutputCell<Vec<f64>>, want: &[f64]) {
    let got = out.lock().unwrap().take().expect("gauss produced no output");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() < 1e-6, "U[{i}] = {g}, want {w}");
    }
}

/// Hand-coded message passing: each pivot row is broadcast once to the
/// other worker nodes.
pub fn ideal_messages(cfg: &GaussCfg) -> u64 {
    cfg.n as u64 * (cfg.nodes as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_api::Backend;
    use munin_types::MuninConfig;

    #[test]
    fn reference_produces_upper_triangular() {
        let cfg = GaussCfg { n: 8, nodes: 2, seed: 3 };
        let u = reference(&cfg);
        let n = 8;
        for i in 0..n {
            for j in 0..i {
                assert_eq!(u[i * n + j], 0.0, "below-diagonal ({i},{j})");
            }
            assert!(u[i * n + i].abs() > 1.0, "dominant diagonal survives");
        }
    }

    #[test]
    fn parallel_matches_reference_on_munin() {
        let cfg = GaussCfg { n: 12, nodes: 3, seed: 8 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn parallel_matches_reference_on_native() {
        let cfg = GaussCfg { n: 12, nodes: 3, seed: 8 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::Native).assert_clean();
        check(&out, &want);
    }
}
