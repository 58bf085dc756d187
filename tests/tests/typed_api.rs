//! The typed handle API, end to end: one program written purely against
//! `SharedArray` / `SharedScalar` handles must produce bit-identical results
//! on Munin, Ivy and native threads; and misuse (out-of-bounds access,
//! type-confused casts) must fail at the API layer with a clear message.

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_types::{IvyConfig, MuninConfig, SharingType};
use std::sync::{Arc, Mutex};

type SinkOutput = (Vec<f64>, Vec<i64>, Vec<u8>, i64, u64);

/// A small program exercising every element type and every typed accessor:
/// f64 bulk access, i64 region edits, u8 byte stripes, an atomic i64
/// counter and a lock-protected u64 cell. Returns what thread 0 collected.
fn typed_kitchen_sink(nodes: usize, backend: Backend) -> SinkOutput {
    let mut p = ProgramBuilder::new(nodes);
    let floats = p.array::<f64>("floats", 64, SharingType::WriteMany, 0);
    let ints = p.array::<i64>("ints", 64, SharingType::WriteMany, 0);
    let bytes = p.array::<u8>("bytes", 64, SharingType::WriteMany, 0);
    let hits = p.scalar::<i64>("hits", SharingType::GeneralReadWrite, 0);
    let stamp = p.scalar::<u64>("stamp", SharingType::GeneralReadWrite, 0);
    let l = p.lock(0);
    let bar = p.barrier(0, nodes as u32);
    let out = Arc::new(Mutex::new(None));

    for t in 0..nodes {
        let out = out.clone();
        p.thread(t, move |par: &mut dyn Par| {
            let me = par.self_id() as u32;
            let n = par.n_threads() as u32;
            let chunk = floats.len() / n;
            let (lo, hi) = (me * chunk, (me + 1) * chunk);

            // Stripe of f64s via bulk write from a local buffer.
            let vals: Vec<f64> = (lo..hi).map(|i| (i as f64) * 1.5 - 3.0).collect();
            par.write_from(&floats, lo, &vals);

            // Stripe of i64s via a region view (read, edit locally, write
            // back once on drop).
            {
                let mut r = par.region(&ints, lo..hi);
                for (off, slot) in r.as_mut_slice().iter_mut().enumerate() {
                    *slot = (lo as i64 + off as i64) * -7;
                }
            }

            // Stripe of bytes via single-element set.
            for i in lo..hi {
                par.set(&bytes, i, (i % 251) as u8);
            }

            // Shared counter via fetch-add, u64 stamp via lock + max.
            par.fetch_add_scalar(&hits, 1 + me as i64);
            par.lock(l);
            let cur = par.load(&stamp);
            par.store(&stamp, cur.max(0x1_0000 + me as u64));
            par.unlock(l);

            par.barrier(bar);
            if me == 0 {
                let f = par.read_all(&floats);
                let i = par.read_all(&ints);
                let b = par.read_all(&bytes);
                let h = par.load(&hits);
                let s = par.load(&stamp);
                *out.lock().unwrap() = Some((f, i, b, h, s));
            }
        });
    }
    p.run(backend).assert_clean();
    let got = out.lock().unwrap().take().expect("program produced output");
    got
}

#[test]
fn typed_program_bit_identical_across_backends() {
    let nodes = 4;
    let munin = typed_kitchen_sink(nodes, Backend::sim(MuninConfig::default()));
    let ivy = typed_kitchen_sink(nodes, Backend::sim(IvyConfig::default()));
    let native = typed_kitchen_sink(nodes, Backend::Native);
    // Bit-identical: compare the f64 stripes through their bit patterns.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&munin.0), bits(&ivy.0), "Munin vs Ivy f64 stripes");
    assert_eq!(bits(&munin.0), bits(&native.0), "Munin vs Native f64 stripes");
    assert_eq!(munin, ivy, "Munin vs Ivy");
    assert_eq!(munin, native, "Munin vs Native");
    // And against the closed-form expectation: thread `me` adds 1 + me.
    assert_eq!(munin.3, (0..4).map(|me| 1 + me).sum::<i64>(), "hit counter");
    assert_eq!(munin.4, 0x1_0000 + 3, "stamp max");
    assert_eq!(munin.1[5], -35);
    assert_eq!(munin.2[60], 60);
}

/// Run a one-thread body on the Munin simulator and return the run errors
/// it produced (a panicking simulated thread is reported, not propagated).
fn munin_run_errors(body: impl FnOnce(&mut dyn Par) + Send + 'static) -> Vec<String> {
    let mut p = ProgramBuilder::new(1);
    p.thread(0, body);
    let o = p.run(Backend::sim(MuninConfig::default()));
    o.report().errors.clone()
}

#[test]
fn out_of_bounds_get_fails_at_api_layer_on_munin() {
    let mut p = ProgramBuilder::new(1);
    let arr = p.array::<f64>("arr", 8, SharingType::WriteMany, 0);
    p.thread(0, move |par: &mut dyn Par| {
        let _ = par.get(&arr, 8); // one past the end
    });
    let o = p.run(Backend::sim(MuninConfig::default()));
    let errors = o.report().errors.clone();
    assert!(!errors.is_empty(), "out-of-bounds get must be reported");
    let msg = &errors[0];
    assert!(msg.contains("index out of bounds"), "got: {msg}");
    assert!(msg.contains("f64"), "message names the element type: {msg}");
    assert!(msg.contains("[8]"), "message names the declared length: {msg}");
}

#[test]
fn out_of_bounds_bulk_write_fails_at_api_layer_on_munin() {
    let mut p = ProgramBuilder::new(1);
    let arr = p.array::<i64>("arr", 4, SharingType::WriteMany, 0);
    p.thread(0, move |par: &mut dyn Par| {
        par.write_from(&arr, 2, &[1, 2, 3]); // elements 2..5 of 4
    });
    let o = p.run(Backend::sim(MuninConfig::default()));
    let errors = o.report().errors.clone();
    assert!(
        errors.iter().any(|e| e.contains("index out of bounds: elements 2..5")),
        "got: {errors:?}"
    );
}

#[test]
fn out_of_bounds_region_fails_at_api_layer_on_munin() {
    let errors = munin_run_errors(|par| {
        let arr = munin_types::SharedArray::<f64>::from_raw(
            munin_types::ObjectId(99),
            8,
            SharingType::WriteMany,
        );
        let _ = par.region(&arr, 4..9); // past the declared length
    });
    assert!(errors.iter().any(|e| e.contains("index out of bounds")), "got: {errors:?}");
}

#[test]
fn out_of_bounds_fails_on_native_too() {
    // The bounds check fires in the application thread, before any backend
    // access; on the native backend that surfaces as the thread panic the
    // harness reports at join.
    let mut p = ProgramBuilder::new(1);
    let arr = p.array::<i64>("arr", 4, SharingType::WriteMany, 0);
    p.thread(0, move |par: &mut dyn Par| {
        par.write_from(&arr, 0, &[1, 2, 3, 4, 5]);
    });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        p.run(Backend::Native);
    }))
    .expect_err("out-of-bounds write must fail the native run");
    let msg = munin_sim::panic_message(&*err);
    assert!(msg.contains("panicked"), "got: {msg}");
}

#[test]
fn type_size_mismatch_fails_at_cast() {
    // 7 bytes can never be a whole number of u64s: the failure happens on
    // the handle itself, before any backend is involved.
    let mut p = ProgramBuilder::new(1);
    let odd = p.array::<u8>("odd", 7, SharingType::WriteMany, 0);
    let err = std::panic::catch_unwind(move || {
        let _ = odd.cast::<u64>();
    })
    .expect_err("7 u8s cannot cast to u64s");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("type-confused cast"), "got: {msg}");
    assert!(msg.contains("u64"), "got: {msg}");
}

#[test]
fn cast_roundtrip_preserves_bytes_across_backends() {
    // Write through a u8 view, read through a u64 view: the little-endian
    // wire layout is part of the API contract, on every backend.
    for backend in
        [Backend::sim(MuninConfig::default()), Backend::sim(IvyConfig::default()), Backend::Native]
    {
        let mut p = ProgramBuilder::new(1);
        let words = p.array::<u64>("words", 2, SharingType::WriteMany, 0);
        let seen = Arc::new(Mutex::new(0u64));
        let s = seen.clone();
        p.thread(0, move |par: &mut dyn Par| {
            let bytes = words.cast::<u8>();
            par.write_from(&bytes, 0, &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]);
            *s.lock().unwrap() = par.get(&words, 0);
        });
        let name = backend.name();
        p.run(backend).assert_clean();
        assert_eq!(*seen.lock().unwrap(), 0x8877_6655_4433_2211, "on {name}");
    }
}
