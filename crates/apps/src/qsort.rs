//! Quicksort — "a representative sorting problem that uses
//! divide-and-conquer to dynamically subdivide the problem".
//!
//! The array is a **write-many** object (workers sort disjoint segments in
//! place). The task stack is a **migratory** object associated with its
//! lock: it rides the `LockPass` message between workers, so every
//! stack operation after the lock acquisition is a local hit — the paper's
//! "integrating [migratory object] movement with that of the lock".

use crate::{output_cell, OutputCell};
use munin_api::{Par, ParTyped, ProgramBuilder, SharedArray};
use munin_types::{ObjectDecl, SharingType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct QsortCfg {
    /// Elements to sort.
    pub n: u32,
    /// Nodes; one worker thread per node.
    pub nodes: usize,
    pub seed: u64,
    /// Segments at or below this length are sorted locally without further
    /// subdivision.
    pub cutoff: u32,
}

impl Default for QsortCfg {
    fn default() -> Self {
        QsortCfg { n: 512, nodes: 4, seed: 1, cutoff: 32 }
    }
}

fn input_array(cfg: &QsortCfg) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.n).map(|_| rng.gen_range(-1_000_000..1_000_000)).collect()
}

pub fn reference(cfg: &QsortCfg) -> Vec<i64> {
    let mut v = input_array(cfg);
    v.sort_unstable();
    v
}

// Task-stack layout (i64 slots): [0]=top, [1]=active, then (lo, hi) pairs.
const STACK_HDR: u32 = 2;

fn push_task(par: &mut dyn Par, stack: &SharedArray<i64>, lo: i64, hi: i64) {
    let top = par.get(stack, 0);
    par.write_from(stack, STACK_HDR + (top as u32) * 2, &[lo, hi]);
    par.set(stack, 0, top + 1);
}

/// Build the parallel program. The output cell receives the sorted array.
pub fn build(cfg: &QsortCfg) -> (ProgramBuilder, OutputCell<Vec<i64>>) {
    let n = cfg.n;
    let nodes = cfg.nodes;
    let cutoff = cfg.cutoff.max(2);
    let mut p = ProgramBuilder::new(nodes);
    let arr = p.array::<i64>("array", n, SharingType::WriteMany, 0);
    let qlock = p.lock(0);
    // Stack capacity: every partition produces ≤ 2 tasks and segments halve,
    // so n tasks is a generous bound.
    let stack_slots = STACK_HDR + 2 * n;
    let stack = p.array_decl::<i64>(
        ObjectDecl::template("task stack", SharingType::Migratory).with_lock(qlock),
        stack_slots,
        0,
    );
    let bar = p.barrier(0, nodes as u32);
    let input = input_array(cfg);
    let out = output_cell();

    for t in 0..nodes {
        let out = out.clone();
        let input = if t == 0 { input.clone() } else { vec![] };
        p.thread(t, move |par: &mut dyn Par| {
            let me = par.self_id();
            if me == 0 {
                par.write_from(&arr, 0, &input);
                // Seed the stack: one task covering the whole array.
                par.lock(qlock);
                push_task(par, &stack, 0, n as i64);
                par.unlock(qlock);
            }
            par.barrier(bar);

            loop {
                // Try to pop a task.
                par.lock(qlock);
                let top = par.get(&stack, 0);
                let active = par.get(&stack, 1);
                if top == 0 {
                    par.unlock(qlock);
                    if active == 0 {
                        break; // No work anywhere: done.
                    }
                    par.compute(500); // Someone is still partitioning; retry.
                    continue;
                }
                let mut task = [0i64; 2];
                par.read_into(&stack, STACK_HDR + (top as u32 - 1) * 2, &mut task);
                par.set(&stack, 0, top - 1);
                par.set(&stack, 1, active + 1);
                par.unlock(qlock);
                let (lo, hi) = (task[0] as u32, task[1] as u32);
                let len = hi - lo;

                // Sort or partition the thread's segment through a scoped
                // region view: one fetch, local edits, one write-back.
                let mut seg = par.region(&arr, lo..hi);
                let children = if len <= cutoff {
                    seg.as_mut_slice().sort_unstable();
                    drop(seg);
                    None
                } else {
                    // Median-of-three pivot, Hoare-style split via sort-free
                    // partition.
                    let pivot = {
                        let mut probe = [seg[0], seg[len as usize / 2], seg[len as usize - 1]];
                        probe.sort_unstable();
                        probe[1]
                    };
                    let (mut left, mut right): (Vec<i64>, Vec<i64>) = (vec![], vec![]);
                    let mut mid = Vec::new();
                    for v in seg.as_slice() {
                        match v.cmp(&pivot) {
                            std::cmp::Ordering::Less => left.push(*v),
                            std::cmp::Ordering::Equal => mid.push(*v),
                            std::cmp::Ordering::Greater => right.push(*v),
                        }
                    }
                    let l_len = left.len() as u32;
                    let m_len = mid.len() as u32;
                    let rebuilt = seg.as_mut_slice();
                    rebuilt[..left.len()].copy_from_slice(&left);
                    rebuilt[left.len()..left.len() + mid.len()].copy_from_slice(&mid);
                    rebuilt[left.len() + mid.len()..].copy_from_slice(&right);
                    drop(seg);
                    Some(((lo, lo + l_len), (lo + l_len + m_len, hi)))
                };
                par.compute((len as u64).max(8));

                // Report completion (and push children) under the lock.
                par.lock(qlock);
                if let Some(((l1, h1), (l2, h2))) = children {
                    if h1 > l1 + 1 {
                        push_task(par, &stack, l1 as i64, h1 as i64);
                    }
                    if h2 > l2 + 1 {
                        push_task(par, &stack, l2 as i64, h2 as i64);
                    }
                }
                let active = par.get(&stack, 1);
                par.set(&stack, 1, active - 1);
                par.unlock(qlock);
            }

            par.barrier(bar);
            if me == 0 {
                let sorted = par.read_all(&arr);
                *out.lock().unwrap() = Some(sorted);
            }
        });
    }
    (p, out)
}

/// Assert the array is sorted and is a permutation of the input.
pub fn check(out: &OutputCell<Vec<i64>>, want: &[i64]) {
    let got = out.lock().unwrap().take().expect("qsort produced no output");
    assert_eq!(got, want, "sorted output mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_api::Backend;
    use munin_types::MuninConfig;

    #[test]
    fn reference_sorts() {
        let cfg = QsortCfg { n: 100, nodes: 2, seed: 4, cutoff: 8 };
        let r = reference(&cfg);
        assert!(r.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn parallel_matches_reference_on_munin() {
        let cfg = QsortCfg { n: 128, nodes: 3, seed: 21, cutoff: 16 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn parallel_matches_reference_on_native() {
        let cfg = QsortCfg { n: 128, nodes: 3, seed: 21, cutoff: 16 };
        let want = reference(&cfg);
        let (p, out) = build(&cfg);
        p.run(Backend::Native).assert_clean();
        check(&out, &want);
    }

    #[test]
    fn degenerate_inputs_sort() {
        // Already sorted, reversed, all-equal.
        for seed in [0u64, 1, 2] {
            let cfg = QsortCfg { n: 64, nodes: 2, seed, cutoff: 4 };
            let want = reference(&cfg);
            let (p, out) = build(&cfg);
            p.run(Backend::sim(MuninConfig::default())).assert_clean();
            check(&out, &want);
        }
    }
}
