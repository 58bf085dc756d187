//! End-to-end coherence validation: random barrier-structured programs run
//! on the Munin runtime, every read's observed value is recorded, and the
//! resulting history is checked against the paper's *loose coherence*
//! definition with the vector-clock checker.
//!
//! Each write deposits a globally unique label, so a read's value identifies
//! exactly which write it observed. The program structure (rounds separated
//! by global barriers) is known a priori, so the happens-before history can
//! be reconstructed faithfully after the run.

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_check::{check_loose, Event, History};
use munin_types::{IvyConfig, MuninConfig, ObjectId, SharingType, ThreadId, UpdatePolicy};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// One scripted op for one thread in one round.
#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    /// Write cell `obj_idx` (the label is assigned globally).
    Write { obj_idx: usize, label: u32 },
    /// Read cell `obj_idx`.
    Read { obj_idx: usize },
}

/// Generate a random barrier-structured program script.
fn gen_script(seed: u64, threads: usize, objects: usize, rounds: usize) -> Vec<Vec<Vec<ScriptOp>>> {
    // script[round][thread] = ops
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_label = 1u32;
    (0..rounds)
        .map(|_| {
            (0..threads)
                .map(|_| {
                    let n_ops = rng.gen_range(0..4);
                    (0..n_ops)
                        .map(|_| {
                            let obj_idx = rng.gen_range(0..objects);
                            if rng.gen_bool(0.45) {
                                let label = next_label;
                                next_label += 1;
                                ScriptOp::Write { obj_idx, label }
                            } else {
                                ScriptOp::Read { obj_idx }
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Run the script on Munin, recording what every read observed; rebuild the
/// history; return the checker verdicts.
fn run_and_check(seed: u64, threads: usize, objects: usize, rounds: usize, policy: UpdatePolicy) {
    let mut cfg = MuninConfig::default();
    cfg.write_many_policy = policy;
    run_and_check_on(seed, threads, objects, rounds, Backend::sim(cfg));
}

/// Backend-generic variant: strict backends (Ivy) must of course also pass
/// the loose checker — strict coherence implies loose coherence.
fn run_and_check_on(seed: u64, threads: usize, objects: usize, rounds: usize, backend: Backend) {
    let script = gen_script(seed, threads, objects, rounds);
    let mut p = ProgramBuilder::new(threads);
    let objs: Vec<munin_types::SharedScalar<i64>> = (0..objects)
        .map(|i| p.scalar::<i64>(&format!("cell{i}"), SharingType::WriteMany, i % threads))
        .collect();
    let bar = p.barrier(0, threads as u32);

    // observations[thread] = per-op observed labels (for reads).
    let observations: Vec<Arc<Mutex<Vec<u32>>>> =
        (0..threads).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();

    for t in 0..threads {
        let obs = observations[t].clone();
        let objs = objs.clone();
        let script = script.clone();
        p.thread(t, move |par: &mut dyn Par| {
            for round in script.iter() {
                for op in &round[par.self_id()] {
                    match op {
                        ScriptOp::Write { obj_idx, label } => {
                            par.store(&objs[*obj_idx], *label as i64);
                        }
                        ScriptOp::Read { obj_idx } => {
                            let v = par.load(&objs[*obj_idx]);
                            obs.lock().unwrap().push(v as u32);
                        }
                    }
                }
                par.barrier(bar);
            }
        });
    }
    let o = p.run(backend);
    o.assert_clean();

    // Rebuild the history: rounds bracketed by barrier episodes.
    let mut events = Vec::new();
    let mut read_cursors = vec![0usize; threads];
    for round in &script {
        for (t, ops) in round.iter().enumerate() {
            for op in ops {
                match op {
                    ScriptOp::Write { obj_idx, label } => events.push(Event::Write {
                        thread: ThreadId(t as u32),
                        obj: ObjectId(*obj_idx as u64),
                        label: *label,
                    }),
                    ScriptOp::Read { obj_idx } => {
                        let observed = observations[t].lock().unwrap()[read_cursors[t]];
                        read_cursors[t] += 1;
                        events.push(Event::Read {
                            thread: ThreadId(t as u32),
                            obj: ObjectId(*obj_idx as u64),
                            observed,
                        });
                    }
                }
            }
        }
        events.push(Event::Barrier { threads: (0..threads as u32).map(ThreadId).collect() });
    }
    let h = History { n_threads: threads, events };
    let violations = check_loose(&h);
    assert!(violations.is_empty(), "loose-coherence violations (seed {seed}): {violations:#?}");
}

#[test]
fn ivy_satisfies_loose_coherence_too() {
    // Strict coherence implies loose coherence; the Ivy baseline must pass
    // the same checker (central locks: the script uses barriers only).
    for seed in [1u64, 42] {
        run_and_check_on(seed, 3, 2, 4, Backend::sim(IvyConfig::default().with_central_locks()));
    }
}

#[test]
fn munin_satisfies_loose_coherence_on_fixed_seeds() {
    for seed in [1u64, 7, 42, 1001] {
        run_and_check(seed, 3, 2, 5, UpdatePolicy::Refresh);
    }
}

#[test]
fn munin_satisfies_loose_coherence_under_invalidate_policy() {
    for seed in [3u64, 99] {
        run_and_check(seed, 3, 2, 5, UpdatePolicy::Invalidate);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Property: every Munin execution of a random barrier-structured
    /// program is loosely coherent.
    #[test]
    fn munin_is_loosely_coherent(seed in 0u64..10_000) {
        run_and_check(seed, 3, 2, 4, UpdatePolicy::Refresh);
    }

    /// And with more threads/objects, under the adaptive policy.
    #[test]
    fn munin_is_loosely_coherent_adaptive(seed in 0u64..10_000) {
        run_and_check(seed, 4, 3, 3, UpdatePolicy::Adaptive);
    }
}
