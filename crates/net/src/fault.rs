//! Link-level fault windows: partitions and node isolation.
//!
//! A [`LinkFault`] cuts a set of links for a window of virtual time. The
//! simulator's transport consults [`LinkSchedule::cut`] at each retry
//! instant of every transmission: a cut never drops a message, it holds it
//! until the first retry instant at which the link is whole again, so
//! traffic crosses a healed partition late but in order.

use munin_types::NodeId;

/// Which links a fault severs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// Split the nodes into `group` vs the rest: messages cross the cut in
    /// neither direction. Within each side traffic is unaffected.
    Partition { group: Vec<NodeId> },
    /// Sever every link touching one node (crash-like from the outside: the
    /// node keeps computing but nothing it sends or is sent arrives).
    Isolate { node: NodeId },
}

/// One fault window over virtual time `[from_us, until_us)`.
///
/// `until_us == u64::MAX` means the fault never heals (a permanent partition;
/// the transport gives up a message held past its retry budget and the run
/// reports it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFault {
    pub from_us: u64,
    pub until_us: u64,
    pub kind: LinkFaultKind,
}

impl LinkFault {
    pub fn partition(group: Vec<NodeId>, from_us: u64, until_us: u64) -> Self {
        LinkFault { from_us, until_us, kind: LinkFaultKind::Partition { group } }
    }

    pub fn isolate(node: NodeId, from_us: u64, until_us: u64) -> Self {
        LinkFault { from_us, until_us, kind: LinkFaultKind::Isolate { node } }
    }

    /// Does this fault sever `src -> dst` at virtual time `now_us`?
    pub fn cuts(&self, src: NodeId, dst: NodeId, now_us: u64) -> bool {
        if now_us < self.from_us || now_us >= self.until_us || src == dst {
            return false;
        }
        match &self.kind {
            LinkFaultKind::Partition { group } => group.contains(&src) != group.contains(&dst),
            LinkFaultKind::Isolate { node } => src == *node || dst == *node,
        }
    }
}

/// An ordered set of fault windows, consulted per transmission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkSchedule {
    pub faults: Vec<LinkFault>,
}

impl LinkSchedule {
    pub fn new(faults: Vec<LinkFault>) -> Self {
        LinkSchedule { faults }
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True if any window severs `src -> dst` at `now_us`.
    pub fn cut(&self, src: NodeId, dst: NodeId, now_us: u64) -> bool {
        self.faults.iter().any(|f| f.cuts(src, dst, now_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_cuts_across_the_group_boundary_only() {
        let f = LinkFault::partition(vec![NodeId(0), NodeId(1)], 100, 200);
        assert!(f.cuts(NodeId(0), NodeId(2), 150), "inside window, across cut");
        assert!(f.cuts(NodeId(2), NodeId(1), 150), "cut is bidirectional");
        assert!(!f.cuts(NodeId(0), NodeId(1), 150), "same side unaffected");
        assert!(!f.cuts(NodeId(2), NodeId(3), 150), "other side unaffected");
        assert!(!f.cuts(NodeId(0), NodeId(2), 99), "before window");
        assert!(!f.cuts(NodeId(0), NodeId(2), 200), "window end is exclusive");
    }

    #[test]
    fn isolate_severs_every_link_of_one_node() {
        let f = LinkFault::isolate(NodeId(1), 0, u64::MAX);
        assert!(f.cuts(NodeId(1), NodeId(0), 5));
        assert!(f.cuts(NodeId(2), NodeId(1), 5));
        assert!(!f.cuts(NodeId(0), NodeId(2), 5));
        assert!(!f.cuts(NodeId(1), NodeId(1), 5), "self-delivery never crosses the wire");
    }

    #[test]
    fn schedule_is_the_union_of_windows() {
        let s = LinkSchedule::new(vec![
            LinkFault::partition(vec![NodeId(0)], 0, 100),
            LinkFault::isolate(NodeId(2), 50, 150),
        ]);
        assert!(s.cut(NodeId(0), NodeId(1), 10), "first window");
        assert!(s.cut(NodeId(2), NodeId(1), 120), "second window");
        assert!(!s.cut(NodeId(0), NodeId(1), 120), "first healed");
        assert!(!s.cut(NodeId(1), NodeId(3), 70), "untouched link");
        assert!(LinkSchedule::default().is_empty());
    }
}
