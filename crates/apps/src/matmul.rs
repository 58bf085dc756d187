//! Matrix multiply: C = A × B.
//!
//! The paper's running example for delayed updates: "with strict memory
//! coherence, the result matrix (or cached portions thereof) travels between
//! different machines. With delayed updates, the results are propagated once
//! to their final destination."
//!
//! Annotations: A and B are **write-once** (initialized by thread 0, then
//! only read); C is a **result** object (each worker writes disjoint rows,
//! only the collector reads).

use crate::{output_cell, OutputCell};
use munin_api::{Par, ParTyped, ProgramBuilder};
use munin_types::SharingType;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct MatmulCfg {
    /// Matrix dimension (n × n, f64).
    pub n: u32,
    /// Nodes; one worker thread per node (thread 0 also initializes and
    /// collects).
    pub nodes: usize,
    pub seed: u64,
}

impl Default for MatmulCfg {
    fn default() -> Self {
        MatmulCfg { n: 32, nodes: 4, seed: 1 }
    }
}

fn input_matrices(cfg: &MatmulCfg) -> (Vec<f64>, Vec<f64>) {
    let n = cfg.n as usize;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let a: Vec<f64> = (0..n * n).map(|_| (rng.gen_range(-4i32..=4)) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|_| (rng.gen_range(-4i32..=4)) as f64).collect();
    (a, b)
}

/// Sequential reference product.
pub fn reference(cfg: &MatmulCfg) -> Vec<f64> {
    let n = cfg.n as usize;
    let (a, b) = input_matrices(cfg);
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Build the parallel program. The output cell receives the collected C.
pub fn build(cfg: &MatmulCfg) -> (ProgramBuilder, OutputCell<Vec<f64>>) {
    let n = cfg.n;
    let nodes = cfg.nodes;
    let mut p = ProgramBuilder::new(nodes);
    let a = p.array::<f64>("A", n * n, SharingType::WriteOnce, 0);
    let b = p.array::<f64>("B", n * n, SharingType::WriteOnce, 0);
    let c = p.array::<f64>("C", n * n, SharingType::Result, 0);
    let bar = p.barrier(0, nodes as u32);

    let out = output_cell();
    let (a_init, b_init) = input_matrices(cfg);

    for t in 0..nodes {
        let out = out.clone();
        let (a_init, b_init) =
            if t == 0 { (a_init.clone(), b_init.clone()) } else { (vec![], vec![]) };
        p.thread(t, move |par: &mut dyn Par| {
            let n = n as usize;
            if par.self_id() == 0 {
                // Initialization phase: fill A and B, publish, meet everyone.
                par.write_from(&a, 0, &a_init);
                par.write_from(&b, 0, &b_init);
                par.phase(1);
            }
            par.barrier(bar);

            // Fault B in whole (write-once replication), then row-stripe C.
            let bm = par.read_all(&b);
            let threads = par.n_threads();
            let lo = par.self_id() * n / threads;
            let hi = (par.self_id() + 1) * n / threads;
            let mut arow = vec![0.0f64; n];
            let mut crow = vec![0.0f64; n];
            for i in lo..hi {
                par.read_into(&a, (i * n) as u32, &mut arow);
                crow.fill(0.0);
                for k in 0..n {
                    let aik = arow[k];
                    if aik != 0.0 {
                        for j in 0..n {
                            crow[j] += aik * bm[k * n + j];
                        }
                    }
                }
                // Model the row's flop cost, then write the row once.
                par.compute((n * n / 16) as u64);
                par.write_from(&c, (i * n) as u32, &crow);
            }
            par.barrier(bar);

            if par.self_id() == 0 {
                // Collector: read the merged result at its home.
                let cm = par.read_all(&c);
                *out.lock().unwrap() = Some(cm);
            }
        });
    }
    (p, out)
}

/// Assert the collected output matches the reference.
pub fn check(out: &OutputCell<Vec<f64>>, want: &[f64]) {
    let got = out.lock().unwrap().take().expect("matmul produced no output");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() < 1e-9, "C[{i}] = {g}, want {w}");
    }
}

/// Lower bound on messages for a hand-coded message-passing implementation:
/// broadcast A and B to every worker node, collect each worker's C rows
/// once. (Used by experiment E5 as the paper's efficiency yardstick.)
pub fn ideal_messages(cfg: &MatmulCfg) -> u64 {
    // A + B to each worker, one result message back from each worker
    // (node 0 already has the data).
    let workers = cfg.nodes as u64 - 1;
    2 * workers + workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_api::Backend;
    use munin_types::MuninConfig;

    #[test]
    fn reference_is_correct_on_identity() {
        // A × I = A for a config we construct by hand. (`black_box` keeps
        // the constant-bound loop nest from being fully const-propagated,
        // which crashes this toolchain's LLVM at opt-level 3.)
        let n = std::hint::black_box(4usize);
        let a: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let mut b = [0.0; 16];
        for i in 0..n {
            b[i * n + i] = 1.0;
        }
        let mut c = vec![0.0; 16];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        assert_eq!(c, a);
    }

    #[test]
    fn parallel_matches_reference_on_munin() {
        let cfg = MatmulCfg { n: 16, nodes: 3, seed: 42 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn parallel_matches_reference_on_native() {
        let cfg = MatmulCfg { n: 16, nodes: 3, seed: 42 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::Native).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn ideal_messages_scales_with_workers() {
        assert_eq!(ideal_messages(&MatmulCfg { n: 8, nodes: 4, seed: 0 }), 9);
    }
}
