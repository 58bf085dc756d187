//! # munin-types
//!
//! Shared vocabulary for the Munin distributed-shared-memory reproduction.
//!
//! This crate deliberately has no dependencies on the rest of the workspace:
//! every other crate (network substrate, simulation kernel, the Munin runtime
//! itself, the Ivy baseline, the applications and the evaluation harness)
//! speaks in terms of the identifiers, annotations and cost model defined
//! here.
//!
//! The central type is [`SharingType`], the per-object annotation from the
//! paper: *"Each shared data object is supported by a memory coherence
//! mechanism appropriate to the manner in which the object is accessed."*
//! (Bennett, Carter, Zwaenepoel, PPoPP 1990.)

pub mod config;
pub mod cost;
pub mod element;
pub mod error;
pub mod handle;
pub mod idhash;
pub mod ids;
pub mod range;
pub mod sharing;
pub mod syncdecl;
pub mod time;
pub mod token;

pub use config::{
    AllocPolicy, IvyConfig, MuninConfig, ReadMostlyMode, SyncStrategy, TardisConfig, Telemetry,
    UpdatePolicy,
};
pub use cost::CostModel;
pub use element::Element;
pub use error::{DsmError, DsmResult};
pub use handle::{SharedArray, SharedScalar};
pub use idhash::IdMap;
pub use ids::{BarrierId, CondId, LockId, NodeId, ObjectId, ThreadId};
pub use range::ByteRange;
pub use sharing::{ObjectDecl, SharingType};
pub use syncdecl::{BarrierDecl, CondDecl, LockDecl, SyncDecls};
pub use time::VirtualTime;
pub use token::{OpToken, TokenState, TokenValue};
