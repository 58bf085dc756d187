//! # munin-campaign
//!
//! A deterministic, seed-replayable fault-campaign harness over the
//! simulator and the TCP fabric.
//!
//! One u64 seed expands into an [`InteractionPlan`] — a schedule of
//! application-level operations (reads, writes, locked read-modify-writes,
//! atomic counter bumps, modelled compute) across N nodes, interleaved
//! with injected faults (message loss, delivery jitter, a serialized
//! medium, partition and isolation windows, clock skew, and process-level
//! node kills / half-closed streams on the real TCP fabric). Executing the
//! plan records an observation log that [`munin_check::check_campaign`]
//! validates against the coherence contract: no lost updates, lock
//! exclusion, release-consistency visibility.
//!
//! The contract of the harness:
//!
//! * **Determinism** — the same seed always yields a byte-identical
//!   serialized plan, and on the simulator an identical verdict.
//! * **Replayability** — every failure prints a one-line repro
//!   (`munin-campaign --seed N`), and failing plans auto-shrink to a
//!   locally minimal plan that still fails ([`shrink()`]).
//! * **Portability** — a campaign runs on a [`munin_api::Backend`]: plans
//!   run on the virtual-time simulator for every fault class, and the
//!   process-fault subset re-runs on the real multi-process TCP fabric.
//!   Every protocol of the harness's matrix is a campaign backend on both
//!   fabrics ([`exec::campaign_backends`], `--list-targets`).
//!
//! Plans serialize to a small TOML subset (first-party codec in
//! [`toml`] — the workspace's vendored `serde` is a no-op stub), and
//! curated scenarios with expectations live in [`scenario`].
//!
//! **Explore mode** ([`explore()`]) replaces blind generation with a
//! coverage-guided corpus loop: every run records the protocol-state
//! transitions it fired ([`munin_obs::CoverageMap`], fed through the
//! kernel seam by all three protocol crates), plans that discover new
//! transitions are kept and mutated, and per-protocol must-reach
//! manifests ([`manifest`]) turn missing coverage into a red exit code.

pub mod exec;
pub mod explore;
pub mod fault;
pub mod gen;
pub mod manifest;
pub mod plan;
pub mod scenario;
pub mod shrink;
pub mod toml;

pub use exec::{campaign_backends, execute, parse_backend, CampaignOutcome, ExecOptions};
pub use explore::{decay_sweep_plans, explore, uniform_baseline, ExploreConfig, ExploreReport};
pub use gen::{generate, generate_with, GenConfig};
pub use manifest::{Goal, MustReach};
pub use plan::{CellType, FaultSpec, InteractionPlan, PlanOp, Round};
pub use scenario::{Expect, Scenario};
pub use shrink::{shrink, shrink_failing};
