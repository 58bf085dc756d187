//! # munin-api
//!
//! The portable DSM programming interface — the role Presto plays in the
//! paper ("programmers write their programs using a shared memory model,
//! inserting declarations to provide object-specific information to the
//! Munin runtime system").
//!
//! Applications declare **typed shared objects** — [`munin_types::SharedArray`]
//! and [`munin_types::SharedScalar`] handles that carry the element type, the
//! length and the [`munin_types::SharingType`] annotation — and access them
//! through the [`ParTyped`] methods (`read_into` / `write_from` / `get` /
//! `set` / `load` / `store` / [`ParTyped::region`]). Out-of-bounds or
//! type-confused accesses fail right at the call site with a precise message;
//! bulk access into caller-owned buffers is zero-copy down to the backend.
//!
//! Programs are written once against the object-safe [`Par`] contract and run
//! unmodified on any [`Backend`]: a protocol on a fabric, or native threads.
//!
//! * The protocol ([`harness::Proto`]): **Munin**, the type-specific
//!   coherence runtime (`munin-core`); **Ivy**, the page-based
//!   strictly-coherent baseline (`munin-ivy`); or **Tardis**, timestamp-lease
//!   coherence (`munin-tardis`).
//! * The fabric ([`harness::Fabric`]): the deterministic virtual-time
//!   simulator (`munin-sim`), the in-process real-time kernel (`munin-rt`),
//!   or one OS process per node over loopback TCP (`munin-tcp`).
//! * **Native**: real OS threads against true shared memory (the "Sequent
//!   Symmetry" reference), used to validate results and compare behaviour.
//!
//! The [`harness`] builds the world, places objects and threads, runs the
//! program, and returns the traffic/timing report experiments consume.
//!
//! ```
//! use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
//! use munin_types::{MuninConfig, SharingType};
//!
//! let mut p = ProgramBuilder::new(2);
//! let table = p.array::<f64>("table", 8, SharingType::WriteOnce, 0);
//! let sums = p.array::<f64>("sums", 2, SharingType::Result, 0);
//! let bar = p.barrier(0, 2);
//! for t in 0..2 {
//!     p.thread(t, move |par: &mut dyn Par| {
//!         if par.self_id() == 0 {
//!             par.write_from(&table, 0, &[2.0; 8]);
//!             par.phase(1); // publish the write-once table
//!         }
//!         par.barrier(bar);
//!         let v = par.get(&table, par.self_id() as u32); // replicated read
//!         par.set(&sums, par.self_id() as u32, v * 10.0); // delayed update
//!         par.barrier(bar);
//!         if par.self_id() == 0 {
//!             assert_eq!(par.read_all(&sums), vec![20.0, 20.0]);
//!         }
//!     });
//! }
//! let outcome = p.run(Backend::sim(MuninConfig::default()));
//! outcome.assert_clean();
//! assert!(outcome.report().stats.messages > 0); // real coherence traffic
//! ```

pub mod harness;
pub mod monitor;
pub mod native;
pub mod par;

/// The protocol registry linked into the `munin-node` binary: every
/// protocol a distributed run may ask a child process to speak. This crate
/// is the one place that names all protocols — the TCP fabric dispatches
/// children purely by [`munin_proto::Protocol::TAG`], so adding a protocol
/// to the fabric means adding one `node_entry` line here.
pub fn node_protos() -> Vec<(u8, munin_tcp::node::NodeRunFn)> {
    use munin_tcp::node::node_entry;
    let protos = vec![
        node_entry::<munin_core::MuninProto>(),
        node_entry::<munin_ivy::IvyProto>(),
        node_entry::<munin_tardis::TardisProto>(),
    ];
    for (i, (a, _)) in protos.iter().enumerate() {
        assert!(protos.iter().skip(i + 1).all(|(b, _)| a != b), "duplicate protocol wire tag {a}");
    }
    protos
}

pub use harness::{Backend, Fabric, Outcome, ProgramBuilder, Proto};
pub use monitor::Monitor;
pub use munin_obs::{MetricsSnapshot, OpClass, OpSpan};
pub use munin_rt::{sig, ComputeMode, RtTuning};
pub use munin_tcp::tcp_support;
pub use munin_types::{
    Element, OpToken, SharedArray, SharedScalar, Telemetry, TokenState, TokenValue,
};
pub use par::{Par, ParTyped, Region};
