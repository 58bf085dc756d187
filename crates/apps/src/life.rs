//! Conway's Game of Life — the paper's "representative nearest-neighbors
//! problem in which data is shared amongst neighboring processes".
//!
//! The grid is split into horizontal blocks, one per thread. Interior rows
//! are **private** objects (only the owner touches them); the top and bottom
//! rows of each block are **producer-consumer** objects, declared *eager*:
//! each generation's boundary values are pushed to the neighbours as soon as
//! they are produced, so (in the best case) "the new values are always
//! available before they are needed, and threads never wait."
//!
//! Boundaries are double-buffered (even/odd generation) so eager pushes for
//! generation g+1 can never clobber a neighbour still reading generation g —
//! one barrier per generation suffices.

use crate::{output_cell, OutputCell};
use munin_api::{Par, ParTyped, ProgramBuilder, SharedArray};
use munin_types::{ObjectDecl, SharingType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct LifeCfg {
    pub width: u32,
    pub height: u32,
    pub generations: u32,
    /// Nodes; one thread (block) per node.
    pub nodes: usize,
    pub seed: u64,
}

impl Default for LifeCfg {
    fn default() -> Self {
        LifeCfg { width: 64, height: 64, generations: 8, nodes: 4, seed: 1 }
    }
}

fn initial_grid(cfg: &LifeCfg) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.width as usize * cfg.height as usize).map(|_| u8::from(rng.gen_bool(0.35))).collect()
}

fn step(grid: &[u8], w: usize, h: usize) -> Vec<u8> {
    let mut next = vec![0u8; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut live = 0u8;
            for dy in [-1i64, 0, 1] {
                for dx in [-1i64, 0, 1] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let ny = y as i64 + dy;
                    let nx = x as i64 + dx;
                    if ny >= 0 && ny < h as i64 && nx >= 0 && nx < w as i64 {
                        live += grid[ny as usize * w + nx as usize];
                    }
                }
            }
            let alive = grid[y * w + x] == 1;
            next[y * w + x] = u8::from(matches!((alive, live), (true, 2) | (true, 3) | (false, 3)));
        }
    }
    next
}

/// Sequential reference: the grid after `generations` steps.
pub fn reference(cfg: &LifeCfg) -> Vec<u8> {
    let (w, h) = (cfg.width as usize, cfg.height as usize);
    let mut g = initial_grid(cfg);
    for _ in 0..cfg.generations {
        g = step(&g, w, h);
    }
    g
}

/// Block row-range of thread `t` of `n`: `[lo, hi)`.
fn block(t: usize, n: usize, h: usize) -> (usize, usize) {
    (t * h / n, (t + 1) * h / n)
}

/// Build the parallel program. The output cell receives the final grid.
pub fn build(cfg: &LifeCfg) -> (ProgramBuilder, OutputCell<Vec<u8>>) {
    let nodes = cfg.nodes;
    let (w, h) = (cfg.width as usize, cfg.height as usize);
    assert!(h >= 2 * nodes, "each block needs at least two rows");
    let mut p = ProgramBuilder::new(nodes);

    // Per thread: the private interior block (full block, double buffered in
    // thread-local fashion inside one object), plus 4 boundary objects:
    // (top, bottom) × (even, odd generation parity).
    let mut interiors: Vec<SharedArray<u8>> = Vec::new();
    let mut top: Vec<[SharedArray<u8>; 2]> = Vec::new(); // [parity]
    let mut bot: Vec<[SharedArray<u8>; 2]> = Vec::new();
    for t in 0..nodes {
        let (lo, hi) = block(t, nodes, h);
        let rows = hi - lo;
        interiors.push(p.array::<u8>(
            &format!("block{t}"),
            (rows * w) as u32,
            SharingType::Private,
            t,
        ));
        let mk = |p: &mut ProgramBuilder, name: String| {
            p.array_decl::<u8>(
                ObjectDecl::template(name, SharingType::ProducerConsumer).with_eager(true),
                w as u32,
                t,
            )
        };
        top.push([mk(&mut p, format!("top{t}_even")), mk(&mut p, format!("top{t}_odd"))]);
        bot.push([mk(&mut p, format!("bot{t}_even")), mk(&mut p, format!("bot{t}_odd"))]);
    }
    let bar = p.barrier(0, nodes as u32);
    let grid0 = initial_grid(cfg);
    let out = output_cell();
    let generations = cfg.generations;
    let result = p.array::<u8>("final", (w * h) as u32, SharingType::Result, 0);

    for t in 0..nodes {
        let out = out.clone();
        let interiors = interiors.clone();
        let top = top.clone();
        let bot = bot.clone();
        let (lo, hi) = block(t, nodes, h);
        let my_rows: Vec<u8> = grid0[lo * w..hi * w].to_vec();
        p.thread(t, move |par: &mut dyn Par| {
            let me = par.self_id();
            let n = par.n_threads();
            let rows = hi - lo;
            // The block's persistent state lives in the (private) shared
            // object, exactly as it did on the paper's shared-memory host.
            par.write_from(&interiors[me], 0, &my_rows);
            // Publish generation-0 boundaries (parity 0).
            par.write_from(&top[me][0], 0, &my_rows[0..w]);
            par.write_from(&bot[me][0], 0, &my_rows[(rows - 1) * w..rows * w]);
            par.barrier(bar);

            // Halo-extended grid (halo + block + halo), filled in place each
            // generation: the typed bulk reads land directly in this buffer,
            // so the generation loop performs no per-access allocation.
            let mut ext = vec![0u8; (rows + 2) * w];
            for gen in 0..generations {
                let parity = (gen % 2) as usize;
                // Neighbour halo rows for this generation, then our block.
                if me > 0 {
                    par.read_into(&bot[me - 1][parity], 0, &mut ext[..w]);
                } else {
                    ext[..w].fill(0);
                }
                if me + 1 < n {
                    par.read_into(&top[me + 1][parity], 0, &mut ext[(rows + 1) * w..]);
                } else {
                    ext[(rows + 1) * w..].fill(0);
                }
                par.read_into(&interiors[me], 0, &mut ext[w..(rows + 1) * w]);
                // Compute the next generation over the extended grid.
                let stepped = step(&ext, w, rows + 2);
                let next = &stepped[w..(rows + 1) * w];
                par.compute((rows * w / 8) as u64);

                // Publish next generation's boundaries (opposite parity) —
                // under Munin these are pushed eagerly to the neighbours.
                let np = 1 - parity;
                par.write_from(&top[me][np], 0, &next[0..w]);
                par.write_from(&bot[me][np], 0, &next[(rows - 1) * w..rows * w]);
                // Persist the private block.
                par.write_from(&interiors[me], 0, next);
                par.barrier(bar);
            }

            // Deposit the final block into the result object.
            let final_block = par.read_all(&interiors[me]);
            par.write_from(&result, (lo * w) as u32, &final_block);
            par.barrier(bar);
            if me == 0 {
                let full = par.read_all(&result);
                *out.lock().unwrap() = Some(full);
            }
        });
    }
    (p, out)
}

/// Assert the final grid matches the sequential reference.
pub fn check(out: &OutputCell<Vec<u8>>, want: &[u8]) {
    let got = out.lock().unwrap().take().expect("life produced no output");
    assert_eq!(got, want, "final grid mismatch");
}

/// Hand-coded message-passing bound: per generation each interior block
/// edge exchanges two boundary rows (one each way).
pub fn ideal_messages(cfg: &LifeCfg) -> u64 {
    let edges = cfg.nodes.saturating_sub(1) as u64;
    2 * edges * cfg.generations as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_api::Backend;
    use munin_types::MuninConfig;

    #[test]
    fn blinker_oscillates() {
        // Vertical blinker in a 5x5 grid flips to horizontal.
        let w = 5;
        let mut g = vec![0u8; 25];
        g[5 + 2] = 1;
        g[2 * 5 + 2] = 1;
        g[3 * 5 + 2] = 1;
        let s = step(&g, w, 5);
        assert_eq!(s[2 * 5 + 1], 1);
        assert_eq!(s[2 * 5 + 2], 1);
        assert_eq!(s[2 * 5 + 3], 1);
        assert_eq!(s.iter().map(|x| *x as u32).sum::<u32>(), 3);
        assert_eq!(step(&s, w, 5), g, "period 2");
    }

    #[test]
    fn parallel_matches_reference_on_munin() {
        let cfg = LifeCfg { width: 24, height: 24, generations: 4, nodes: 3, seed: 9 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn parallel_matches_reference_on_native() {
        let cfg = LifeCfg { width: 24, height: 24, generations: 4, nodes: 3, seed: 9 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::Native).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn block_partition_covers_grid() {
        let h = 37;
        let n = 5;
        let mut covered = 0;
        for t in 0..n {
            let (lo, hi) = block(t, n, h);
            covered += hi - lo;
            assert!(hi > lo);
        }
        assert_eq!(covered, h);
    }
}
