//! The world description: one program, as every fabric runs it.
//!
//! A [`WorldDesc`] holds what a run is made of before any fabric is
//! chosen: the node count, the objects declared before the run (ids dense
//! from 0, homes inside the world), the application threads with their
//! placement, and the optional coverage recorder. The simulator
//! ([`crate::World::new`]), the wall-clock run skeleton (`munin_rt::run_on`,
//! under both the in-process and the TCP fabric) and the native backend
//! each consume one, taking only their own settings beside it. Every
//! backend therefore runs the same thread bodies with the same thread ids
//! against the same declarations.

use crate::op::DsmThread;
use munin_obs::CoverageMap;
use munin_types::{NodeId, ObjectDecl, ObjectId, ThreadId};
use std::sync::Arc;

/// An application thread's body. It sees only the [`DsmThread`] surface,
/// so one body runs on any fabric's thread context.
pub type ThreadBody = Box<dyn FnOnce(&mut dyn DsmThread) + Send + 'static>;

/// A program before it runs: nodes, declarations, threads, coverage.
pub struct WorldDesc {
    n_nodes: usize,
    decls: Vec<ObjectDecl>,
    threads: Vec<(NodeId, ThreadBody)>,
    coverage: Option<Arc<CoverageMap>>,
}

impl WorldDesc {
    /// An empty world of `n_nodes` nodes (node ids are `u16`).
    #[track_caller]
    pub fn new(n_nodes: usize) -> Self {
        assert!(
            (1..=u16::MAX as usize).contains(&n_nodes),
            "a program has 1 to {} nodes, not {n_nodes}",
            u16::MAX
        );
        WorldDesc { n_nodes, decls: Vec::new(), threads: Vec::new(), coverage: None }
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Threads spawned so far.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// The declarations, indexed by object id.
    pub fn decls(&self) -> &[ObjectDecl] {
        &self.decls
    }

    /// The declarations, for rewriting annotations before the run (the
    /// ablations retype objects); ids and homes are the description's.
    pub fn decls_mut(&mut self) -> &mut [ObjectDecl] {
        &mut self.decls
    }

    /// The protocol-state coverage recorder, if one is attached.
    pub fn coverage(&self) -> Option<&Arc<CoverageMap>> {
        self.coverage.as_ref()
    }

    /// Attach a protocol-state coverage recorder: servers note transitions
    /// into it through [`crate::KernelApi::coverage`], on every fabric.
    pub fn set_coverage(&mut self, map: Arc<CoverageMap>) {
        self.coverage = Some(map);
    }

    /// Declare a shared object homed on `home` before the run starts (the
    /// paper's programs declare shared data with annotations processed at
    /// compile time). Returns the assigned id: ids are dense, in
    /// declaration order.
    #[track_caller]
    pub fn declare(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        assert!(
            home.index() < self.n_nodes,
            "object `{}` homed on node {}, but the program has {} node(s)",
            decl.name,
            home.index(),
            self.n_nodes
        );
        let id = ObjectId(self.decls.len() as u64);
        decl.id = id;
        decl.home = home;
        self.decls.push(decl);
        id
    }

    /// Spawn an application thread on `node`. Thread ids are dense, in
    /// spawn order.
    #[track_caller]
    pub fn spawn(
        &mut self,
        node: NodeId,
        body: impl FnOnce(&mut dyn DsmThread) + Send + 'static,
    ) -> ThreadId {
        assert!(
            node.index() < self.n_nodes,
            "thread placed on node {}, but the program has {} node(s)",
            node.index(),
            self.n_nodes
        );
        self.threads.push((node, Box::new(body)));
        ThreadId(self.threads.len() as u32 - 1)
    }

    /// The threads in spawn order, each with its id and node: what a
    /// fabric launches once it has read the rest of the description.
    pub fn into_threads(self) -> impl Iterator<Item = (ThreadId, NodeId, ThreadBody)> {
        self.threads
            .into_iter()
            .enumerate()
            .map(|(i, (node, body))| (ThreadId(i as u32), node, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::SharingType;

    #[test]
    fn ids_are_dense_and_homes_recorded() {
        let mut d = WorldDesc::new(2);
        let decl = ObjectDecl::template("a", SharingType::WriteMany);
        assert_eq!(d.declare(decl.clone(), NodeId(1)), ObjectId(0));
        assert_eq!(d.declare(decl, NodeId(0)), ObjectId(1));
        assert_eq!(d.decls()[0].home, NodeId(1));
        assert_eq!(d.spawn(NodeId(1), |_| {}), ThreadId(0));
        assert_eq!(d.spawn(NodeId(0), |_| {}), ThreadId(1));
        let placed: Vec<_> = d.into_threads().map(|(t, n, _)| (t, n)).collect();
        assert_eq!(placed, [(ThreadId(0), NodeId(1)), (ThreadId(1), NodeId(0))]);
    }

    #[test]
    #[should_panic(expected = "thread placed on node 2, but the program has 2 node(s)")]
    fn a_thread_off_the_world_panics() {
        WorldDesc::new(2).spawn(NodeId(2), |_| {});
    }

    #[test]
    #[should_panic(expected = "object `x` homed on node 3, but the program has 3 node(s)")]
    fn an_object_off_the_world_panics() {
        WorldDesc::new(3).declare(ObjectDecl::template("x", SharingType::WriteMany), NodeId(3));
    }
}
