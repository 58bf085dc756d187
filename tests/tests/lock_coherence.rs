//! Loose-coherence validation across *lock* edges.
//!
//! The barrier-structured validation (`coherence_validation.rs`) exercises
//! barrier-induced happens-before. Here every thread also executes
//! lock-protected critical sections; inside each it increments a counter
//! cell and records the ticket it observed, which reveals the *global order
//! of critical sections* — enough to reconstruct the release→acquire edges
//! faithfully in the checked history.
//!
//! The key property: a read inside a critical section must see every write
//! made in earlier critical sections of the same lock (the paper's "a
//! synchronization event in a program requires that the delayed updates be
//! propagated first").

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_check::{check_loose, Event, History};
use munin_types::{MuninConfig, ObjectDecl, ObjectId, SharingType, ThreadId, UpdatePolicy};
use std::sync::{Arc, Mutex};

/// Per-thread record of one critical section: (ticket observed, value
/// written to the data cell, value observed in the data cell).
#[derive(Debug, Clone, Copy)]
struct CsRecord {
    ticket: i64,
    wrote: u32,
    observed: u32,
}

fn run_lock_validation(threads: usize, rounds: usize, policy: UpdatePolicy) {
    let mut p = ProgramBuilder::new(threads);
    let l = p.lock(0);
    // The protected state: [ticket counter, data cell] — migratory,
    // riding the lock.
    let cell = p.array_decl::<i64>(
        ObjectDecl::template("protected", SharingType::Migratory).with_lock(l),
        2,
        0,
    );
    let bar = p.barrier(0, threads as u32);

    let logs: Vec<Arc<Mutex<Vec<CsRecord>>>> =
        (0..threads).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();

    for t in 0..threads {
        let log = logs[t].clone();
        p.thread(t, move |par: &mut dyn Par| {
            for r in 0..rounds {
                par.lock(l);
                let ticket = par.get(&cell, 0);
                let observed = par.get(&cell, 1) as u32;
                // Unique label: thread in high bits, round+1 in low bits.
                let wrote = ((par.self_id() as u32) << 16) | (r as u32 + 1);
                par.set(&cell, 0, ticket + 1);
                par.set(&cell, 1, wrote as i64);
                par.unlock(l);
                log.lock().unwrap().push(CsRecord { ticket, wrote, observed });
            }
            par.barrier(bar);
        });
    }
    let mut cfg = MuninConfig::default();
    cfg.write_many_policy = policy;
    let o = p.run(Backend::sim(cfg));
    o.assert_clean();

    // Reconstruct the global critical-section order from the tickets.
    let mut sections: Vec<(i64, ThreadId, CsRecord)> = Vec::new();
    for (t, log) in logs.iter().enumerate() {
        for rec in log.lock().unwrap().iter() {
            sections.push((rec.ticket, ThreadId(t as u32), *rec));
        }
    }
    sections.sort_by_key(|(ticket, _, _)| *ticket);
    // Tickets must be exactly 0..n — mutual exclusion and lost-update check.
    for (i, (ticket, _, _)) in sections.iter().enumerate() {
        assert_eq!(*ticket, i as i64, "ticket sequence has a gap or duplicate");
    }

    // Build the history: each section is acquire, read, write, release on
    // one object (the data cell), in ticket order.
    let data_obj = ObjectId(0);
    let mut events = Vec::new();
    for (_, thread, rec) in &sections {
        events.push(Event::Acquire { thread: *thread, lock: munin_types::LockId(0) });
        events.push(Event::Read { thread: *thread, obj: data_obj, observed: rec.observed });
        events.push(Event::Write { thread: *thread, obj: data_obj, label: rec.wrote });
        events.push(Event::Release { thread: *thread, lock: munin_types::LockId(0) });
    }
    let h = History { n_threads: threads, events };
    let violations = check_loose(&h);
    assert!(violations.is_empty(), "lock-edge coherence violations: {violations:#?}");

    // Stronger, direct check: each section must observe exactly the value
    // written by the immediately preceding section (serialized by the
    // lock, updates flushed at the release).
    for w in sections.windows(2) {
        let (_, _, prev) = w[0];
        let (_, _, cur) = w[1];
        assert_eq!(
            cur.observed, prev.wrote,
            "critical section saw a stale protected value across a lock handoff"
        );
    }
}

#[test]
fn lock_protected_state_is_coherent_refresh() {
    run_lock_validation(3, 6, UpdatePolicy::Refresh);
}

#[test]
fn lock_protected_state_is_coherent_invalidate() {
    run_lock_validation(4, 5, UpdatePolicy::Invalidate);
}

#[test]
fn lock_protected_state_is_coherent_many_rounds() {
    run_lock_validation(4, 25, UpdatePolicy::Refresh);
}

/// The same discipline with the protected state declared write-many (not
/// migratory): flush-on-release plus fetch-on-acquire must still deliver
/// exactly the previous section's value.
#[test]
fn lock_protected_write_many_is_coherent() {
    let threads = 3;
    let rounds = 6;
    let mut p = ProgramBuilder::new(threads);
    let l = p.lock(0);
    let cell = p.array::<i64>("protected", 2, SharingType::WriteMany, 0);
    let bar = p.barrier(0, threads as u32);
    let logs: Vec<Arc<Mutex<Vec<CsRecord>>>> =
        (0..threads).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    for t in 0..threads {
        let log = logs[t].clone();
        p.thread(t, move |par: &mut dyn Par| {
            for r in 0..rounds {
                par.lock(l);
                let ticket = par.get(&cell, 0);
                let observed = par.get(&cell, 1) as u32;
                let wrote = ((par.self_id() as u32) << 16) | (r as u32 + 1);
                par.set(&cell, 0, ticket + 1);
                par.set(&cell, 1, wrote as i64);
                par.unlock(l);
                log.lock().unwrap().push(CsRecord { ticket, wrote, observed });
            }
            par.barrier(bar);
        });
    }
    p.run(Backend::sim(MuninConfig::default())).assert_clean();

    let mut sections: Vec<(i64, CsRecord)> = Vec::new();
    for log in &logs {
        for rec in log.lock().unwrap().iter() {
            sections.push((rec.ticket, *rec));
        }
    }
    sections.sort_by_key(|(t, _)| *t);
    for (i, (ticket, _)) in sections.iter().enumerate() {
        assert_eq!(*ticket, i as i64);
    }
    for w in sections.windows(2) {
        assert_eq!(w[1].1.observed, w[0].1.wrote);
    }
}
