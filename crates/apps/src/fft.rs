//! Fast Fourier Transform — iterative radix-2 decimation-in-time over a
//! shared complex vector.
//!
//! The data vector is a **write-many** object: at every stage each thread
//! updates a disjoint set of butterfly blocks, but across stages the blocks
//! interleave, so the object as a whole is write-shared between
//! synchronization points — exactly the pattern the delayed update queue
//! merges. One barrier separates stages.

use crate::{output_cell, OutputCell};
use munin_api::{Par, ParTyped, ProgramBuilder};
use munin_types::SharingType;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

#[derive(Debug, Clone)]
pub struct FftCfg {
    /// Transform size (power of two).
    pub n: u32,
    /// Nodes; one worker thread per node.
    pub nodes: usize,
    pub seed: u64,
}

impl Default for FftCfg {
    fn default() -> Self {
        FftCfg { n: 256, nodes: 4, seed: 1 }
    }
}

fn input_signal(cfg: &FftCfg) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let re: Vec<f64> = (0..cfg.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let im: Vec<f64> = (0..cfg.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (re, im)
}

/// Naive O(n²) DFT as the verification reference.
pub fn reference(cfg: &FftCfg) -> (Vec<f64>, Vec<f64>) {
    let n = cfg.n as usize;
    let (re, im) = input_signal(cfg);
    let mut or = vec![0.0; n];
    let mut oi = vec![0.0; n];
    for (k, (orr, oii)) in or.iter_mut().zip(oi.iter_mut()).enumerate() {
        for j in 0..n {
            let ang = -2.0 * PI * (k * j) as f64 / n as f64;
            let (s, c) = ang.sin_cos();
            *orr += re[j] * c - im[j] * s;
            *oii += re[j] * s + im[j] * c;
        }
    }
    (or, oi)
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Build the parallel program. The output cell receives (re, im).
pub fn build(cfg: &FftCfg) -> (ProgramBuilder, OutputCell<(Vec<f64>, Vec<f64>)>) {
    let n = cfg.n as usize;
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    let bits = n.trailing_zeros();
    let nodes = cfg.nodes;
    let mut p = ProgramBuilder::new(nodes);
    let re = p.array::<f64>("re", n as u32, SharingType::WriteMany, 0);
    let im = p.array::<f64>("im", n as u32, SharingType::WriteMany, 0);
    let bar = p.barrier(0, nodes as u32);
    let (sig_re, sig_im) = input_signal(cfg);
    let out = output_cell();

    for t in 0..nodes {
        let out = out.clone();
        let (sig_re, sig_im) =
            if t == 0 { (sig_re.clone(), sig_im.clone()) } else { (vec![], vec![]) };
        p.thread(t, move |par: &mut dyn Par| {
            let me = par.self_id();
            let threads = par.n_threads();
            if me == 0 {
                // Load the input in bit-reversed order.
                let mut br_re = vec![0.0; n];
                let mut br_im = vec![0.0; n];
                for i in 0..n {
                    let r = bit_reverse(i, bits);
                    br_re[r] = sig_re[i];
                    br_im[r] = sig_im[i];
                }
                par.write_from(&re, 0, &br_re);
                par.write_from(&im, 0, &br_im);
            }
            par.barrier(bar);

            // Butterfly scratch, reused across every block and stage: bulk
            // typed reads fill these in place, so the stage loop allocates
            // nothing.
            let mut xr = vec![0.0f64; n];
            let mut xi = vec![0.0f64; n];
            for s in 0..bits {
                let m = 1usize << (s + 1); // butterfly block size
                let blocks = n / m;
                // Contiguous block partition per thread.
                let lo = me * blocks / threads;
                let hi = (me + 1) * blocks / threads;
                for blk in lo..hi {
                    let base = blk * m;
                    let (xr, xi) = (&mut xr[..m], &mut xi[..m]);
                    par.read_into(&re, base as u32, xr);
                    par.read_into(&im, base as u32, xi);
                    let half = m / 2;
                    for t_idx in 0..half {
                        let ang = -2.0 * PI * t_idx as f64 / m as f64;
                        let (ws, wc) = ang.sin_cos();
                        let (ur, ui) = (xr[t_idx], xi[t_idx]);
                        let (vr, vi) = (
                            xr[t_idx + half] * wc - xi[t_idx + half] * ws,
                            xr[t_idx + half] * ws + xi[t_idx + half] * wc,
                        );
                        xr[t_idx] = ur + vr;
                        xi[t_idx] = ui + vi;
                        xr[t_idx + half] = ur - vr;
                        xi[t_idx + half] = ui - vi;
                    }
                    par.write_from(&re, base as u32, xr);
                    par.write_from(&im, base as u32, xi);
                }
                par.compute(((hi - lo).max(1) * m / 4) as u64);
                par.barrier(bar);
            }

            if me == 0 {
                let fr = par.read_all(&re);
                let fi = par.read_all(&im);
                *out.lock().unwrap() = Some((fr, fi));
            }
        });
    }
    (p, out)
}

/// Assert the transform matches the DFT reference.
pub fn check(out: &OutputCell<(Vec<f64>, Vec<f64>)>, want: &(Vec<f64>, Vec<f64>)) {
    let (gr, gi) = out.lock().unwrap().take().expect("fft produced no output");
    let tol = 1e-6 * want.0.len() as f64;
    for i in 0..want.0.len() {
        assert!((gr[i] - want.0[i]).abs() < tol, "re[{i}] = {}, want {}", gr[i], want.0[i]);
        assert!((gi[i] - want.1[i]).abs() < tol, "im[{i}] = {}, want {}", gi[i], want.1[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_api::Backend;
    use munin_types::MuninConfig;

    #[test]
    fn bit_reverse_is_involution() {
        for bits in 1..10u32 {
            for x in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
            }
        }
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        // x = [1, 0, 0, 0] → X[k] = 1 for all k.
        let n = 4usize;
        let re = [1.0, 0.0, 0.0, 0.0];
        for k in 0..n {
            let mut acc = 0.0;
            for (j, r) in re.iter().enumerate() {
                acc += r * (-2.0 * PI * (k * j) as f64 / n as f64).cos();
            }
            assert!((acc - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_reference_on_munin() {
        let cfg = FftCfg { n: 64, nodes: 3, seed: 2 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn parallel_matches_reference_on_native() {
        let cfg = FftCfg { n: 64, nodes: 3, seed: 2 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::Native).assert_clean();
        check(&out, &want);
    }
}
