//! The campaign plan model: a deterministic, serializable schedule of
//! application-level operations interleaved with injected faults.
//!
//! A plan is pure data — executing it (see [`crate::exec`]) builds a
//! [`munin_api::ProgramBuilder`] program from it, and serializing it (see
//! [`InteractionPlan::to_toml`]) produces a canonical byte-stable TOML
//! text, so "same seed, byte-identical plan" is checkable with `==` on
//! strings.
//!
//! ## Shape
//!
//! * `n_threads` threads run on `n_nodes` nodes (thread `t` on node
//!   `t % n_nodes`).
//! * Three kinds of shared cells, with dense [`munin_types::ObjectId`]s in
//!   declaration order: `free_cells` write-many scalars accessed by plain
//!   reads/writes (at most one writer per cell per round, true to the
//!   write-many contract), then `locked_cells` migratory scalars accessed
//!   only under their associated lock (lock *i* guards locked cell *i*),
//!   then `counters` touched only by atomic fetch-adds with positive
//!   deltas.
//! * Execution proceeds in rounds; every round ends at a global barrier, so
//!   cross-round visibility is governed by release consistency exactly as
//!   the checker assumes.
//! * Faults are schedule-level: wire-level (loss, jitter, shared medium,
//!   partition/isolation windows), time-level (clock skew as injected
//!   compute), and process-level (node kill, half-closed stream) for the
//!   TCP fabric.

use crate::toml::{parse, Doc, Table, Value};

/// One operation a thread performs inside a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Store `label` into free cell `cell` (labels are unique per cell).
    Write { cell: usize, label: u32 },
    /// Load free cell `cell` and record the observed label.
    Read { cell: usize },
    /// Lock `lcell`'s lock, read the cell, write `label`, unlock — one
    /// migratory critical section.
    LockedRmw { lcell: usize, label: u32 },
    /// Atomic fetch-add of `delta` (> 0) on counter `counter`.
    FetchAdd { counter: usize, delta: i64 },
    /// Pipelined store of `label` into free cell `cell`: issued without
    /// blocking; the completion token is redeemed before the round's
    /// barrier. Counts as a write for the one-writer-per-round rule and
    /// the plan-wide label set.
    AsyncWrite { cell: usize, label: u32 },
    /// Pipelined fetch-add of `delta` (> 0) on counter `counter`: the
    /// observed previous value only materializes at the token wait.
    AsyncAdd { counter: usize, delta: i64 },
    /// `us` microseconds of modelled local computation.
    Compute { us: u64 },
}

impl PlanOp {
    /// Compact op string for TOML (`"w 0 5"`, `"r 1"`, `"rmw 0 7"`,
    /// `"add 0 3"`, `"aw 0 5"`, `"aadd 0 3"`, `"c 500"`).
    pub fn encode(&self) -> String {
        match self {
            PlanOp::Write { cell, label } => format!("w {cell} {label}"),
            PlanOp::Read { cell } => format!("r {cell}"),
            PlanOp::LockedRmw { lcell, label } => format!("rmw {lcell} {label}"),
            PlanOp::FetchAdd { counter, delta } => format!("add {counter} {delta}"),
            PlanOp::AsyncWrite { cell, label } => format!("aw {cell} {label}"),
            PlanOp::AsyncAdd { counter, delta } => format!("aadd {counter} {delta}"),
            PlanOp::Compute { us } => format!("c {us}"),
        }
    }

    pub fn decode(s: &str) -> Result<PlanOp, String> {
        let mut parts = s.split_whitespace();
        let kind = parts.next().ok_or("empty op string")?;
        let mut num = |what: &str| -> Result<i64, String> {
            parts
                .next()
                .ok_or_else(|| format!("op `{s}`: missing {what}"))?
                .parse::<i64>()
                .map_err(|_| format!("op `{s}`: bad {what}"))
        };
        let op = match kind {
            "w" => PlanOp::Write { cell: num("cell")? as usize, label: num("label")? as u32 },
            "r" => PlanOp::Read { cell: num("cell")? as usize },
            "rmw" => {
                PlanOp::LockedRmw { lcell: num("lcell")? as usize, label: num("label")? as u32 }
            }
            "add" => PlanOp::FetchAdd { counter: num("counter")? as usize, delta: num("delta")? },
            "aw" => PlanOp::AsyncWrite { cell: num("cell")? as usize, label: num("label")? as u32 },
            "aadd" => PlanOp::AsyncAdd { counter: num("counter")? as usize, delta: num("delta")? },
            "c" => PlanOp::Compute { us: num("us")? as u64 },
            other => return Err(format!("unknown op kind `{other}` in `{s}`")),
        };
        if parts.next().is_some() {
            return Err(format!("op `{s}`: trailing tokens"));
        }
        Ok(op)
    }
}

/// Sharing annotation for a free cell. Write-many is the historical
/// default; the explore mode's retype mutation moves cells onto the other
/// loose-coherence protocols (all of them sound under the plan's
/// one-writer-per-round, barrier-separated access shape), steering runs
/// into protocol paths the uniform generator never exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellType {
    #[default]
    WriteMany,
    ReadMostly,
    ProducerConsumer,
}

impl CellType {
    pub fn encode(&self) -> &'static str {
        match self {
            CellType::WriteMany => "write-many",
            CellType::ReadMostly => "read-mostly",
            CellType::ProducerConsumer => "producer-consumer",
        }
    }

    pub fn decode(s: &str) -> Result<CellType, String> {
        match s {
            "write-many" => Ok(CellType::WriteMany),
            "read-mostly" => Ok(CellType::ReadMostly),
            "producer-consumer" => Ok(CellType::ProducerConsumer),
            other => Err(format!("unknown cell type `{other}`")),
        }
    }
}

/// One round: `ops[t]` is thread `t`'s operation sequence; a global
/// barrier separates rounds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Round {
    pub ops: Vec<Vec<PlanOp>>,
}

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Lose each transmission attempt with probability `per_mille`/1000
    /// (the simulator holds the message until an attempt gets through).
    Loss { per_mille: u32 },
    /// Per-message delivery jitter up to `max_us` — reorders the wire, and
    /// the transport must still deliver each pair in send order.
    Jitter { max_us: u64 },
    /// Model the network as a shared half-duplex medium.
    SerializeMedium,
    /// Cut links between `group` and its complement during
    /// `[from_us, until_us)` virtual µs. `until_us == u64::MAX` never
    /// heals.
    Partition { group: Vec<u16>, from_us: u64, until_us: u64 },
    /// Cut all of one node's links during the window; with
    /// `until_us == u64::MAX` this is the simulator's "node kill".
    Isolate { node: u16, from_us: u64, until_us: u64 },
    /// Thread `thread`'s clock runs behind: `us` extra compute at the top
    /// of every round (perturbs interleavings and watchdog margins).
    ClockSkew { thread: usize, us: u64 },
    /// TCP fabric only: kill node `node`'s process after `after_ms`.
    TcpKill { node: u16, after_ms: u64 },
    /// TCP fabric only: half-close the `node`→`peer` stream after
    /// `after_ms`.
    TcpHalfClose { node: u16, peer: u16, after_ms: u64 },
}

impl FaultSpec {
    /// Does the run recover from this fault (a loss or a healing window only
    /// delays delivery), so a clean report and full visibility are still
    /// required?
    pub fn recoverable(&self) -> bool {
        match self {
            FaultSpec::Loss { .. }
            | FaultSpec::Jitter { .. }
            | FaultSpec::SerializeMedium
            | FaultSpec::ClockSkew { .. } => true,
            FaultSpec::Partition { until_us, .. } | FaultSpec::Isolate { until_us, .. } => {
                *until_us != u64::MAX
            }
            FaultSpec::TcpKill { .. } | FaultSpec::TcpHalfClose { .. } => false,
        }
    }

    /// Is this a process-level fault the real TCP fabric can inject?
    pub fn process_level(&self) -> bool {
        matches!(self, FaultSpec::TcpKill { .. } | FaultSpec::TcpHalfClose { .. })
    }
}

/// A full campaign plan. See the module docs for the shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionPlan {
    /// The seed this plan was generated from (0 for hand-written plans);
    /// also seeds the transport's random streams during execution.
    pub seed: u64,
    pub n_nodes: usize,
    pub n_threads: usize,
    pub free_cells: usize,
    /// Per-cell sharing annotations. Either empty (every free cell is
    /// write-many, the historical default — and the canonical TOML is
    /// unchanged) or exactly `free_cells` long.
    pub cell_types: Vec<CellType>,
    pub locked_cells: usize,
    pub counters: usize,
    /// Tardis lease length override (logical timestamps). `None` keeps the
    /// backend default; ignored by non-Tardis targets. Optional so the
    /// canonical TOML of plans that never touch it is unchanged.
    pub tardis_lease: Option<u64>,
    /// Tardis decay-sweep period override (virtual µs between lease-decay
    /// sweeps at each home). The explore mode's decay soak sweep drives
    /// this knob; `None` keeps the backend default.
    pub tardis_decay_us: Option<u64>,
    pub faults: Vec<FaultSpec>,
    pub rounds: Vec<Round>,
}

impl InteractionPlan {
    /// An empty plan skeleton (no rounds, no faults).
    pub fn skeleton(n_nodes: usize, n_threads: usize) -> Self {
        InteractionPlan {
            seed: 0,
            n_nodes,
            n_threads,
            free_cells: 0,
            cell_types: Vec::new(),
            locked_cells: 0,
            counters: 0,
            tardis_lease: None,
            tardis_decay_us: None,
            faults: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// The sharing annotation of free cell `i` (write-many when the plan
    /// carries no explicit annotations).
    pub fn cell_type(&self, i: usize) -> CellType {
        self.cell_types.get(i).copied().unwrap_or_default()
    }

    /// Every fault heals, so the run must end clean with full visibility.
    pub fn expects_clean(&self) -> bool {
        self.faults.iter().all(|f| f.recoverable())
    }

    /// Expected final value of each counter: the sum of every fetch-add
    /// delta in the plan (meaningful only when the run is expected clean).
    pub fn expected_counter_totals(&self) -> Vec<i64> {
        let mut totals = vec![0i64; self.counters];
        for round in &self.rounds {
            for ops in &round.ops {
                for op in ops {
                    if let PlanOp::FetchAdd { counter, delta }
                    | PlanOp::AsyncAdd { counter, delta } = op
                    {
                        totals[*counter] += delta;
                    }
                }
            }
        }
        totals
    }

    /// Structural validation: indices in range, labels unique per cell,
    /// deltas positive, one writer per free cell per round.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes == 0 || self.n_nodes > u16::MAX as usize {
            return Err(format!("n_nodes {} out of range", self.n_nodes));
        }
        if self.n_threads == 0 {
            return Err("plan has no threads".into());
        }
        if !self.cell_types.is_empty() && self.cell_types.len() != self.free_cells {
            return Err(format!(
                "cell_types has {} entries for {} free cells (empty means all write-many)",
                self.cell_types.len(),
                self.free_cells
            ));
        }
        if self.tardis_lease == Some(0) {
            return Err("tardis_lease must be positive".into());
        }
        if self.tardis_decay_us == Some(0) {
            return Err("tardis_decay_us must be positive".into());
        }
        // The loose-coherence checker identifies writes by label alone, so
        // labels are unique across the whole plan, not just per cell.
        let mut all_labels: Vec<u32> = Vec::new();
        for (r, round) in self.rounds.iter().enumerate() {
            if round.ops.len() != self.n_threads {
                return Err(format!(
                    "round {r}: {} op lists for {} threads",
                    round.ops.len(),
                    self.n_threads
                ));
            }
            let mut writer_of: Vec<Option<usize>> = vec![None; self.free_cells];
            for (t, ops) in round.ops.iter().enumerate() {
                for op in ops {
                    match op {
                        PlanOp::Write { cell, label } | PlanOp::AsyncWrite { cell, label } => {
                            if *cell >= self.free_cells {
                                return Err(format!("round {r} t{t}: free cell {cell} undeclared"));
                            }
                            match writer_of[*cell] {
                                Some(w) if w != t => {
                                    return Err(format!(
                                        "round {r}: free cell {cell} written by both t{w} and \
                                         t{t} (write-many cells allow one writer per round)"
                                    ));
                                }
                                _ => writer_of[*cell] = Some(t),
                            }
                            all_labels.push(*label);
                        }
                        PlanOp::Read { cell } => {
                            if *cell >= self.free_cells {
                                return Err(format!("round {r} t{t}: free cell {cell} undeclared"));
                            }
                        }
                        PlanOp::LockedRmw { lcell, label } => {
                            if *lcell >= self.locked_cells {
                                return Err(format!(
                                    "round {r} t{t}: locked cell {lcell} undeclared"
                                ));
                            }
                            all_labels.push(*label);
                        }
                        PlanOp::FetchAdd { counter, delta }
                        | PlanOp::AsyncAdd { counter, delta } => {
                            if *counter >= self.counters {
                                return Err(format!(
                                    "round {r} t{t}: counter {counter} undeclared"
                                ));
                            }
                            if *delta <= 0 {
                                return Err(format!(
                                    "round {r} t{t}: fetch-add delta must be positive, got {delta}"
                                ));
                            }
                        }
                        PlanOp::Compute { .. } => {}
                    }
                }
            }
        }
        let mut sorted = all_labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != all_labels.len() {
            return Err("duplicate write labels (labels are unique plan-wide)".into());
        }
        if sorted.first() == Some(&0) {
            return Err("label 0 is reserved for the initial value".into());
        }
        for f in &self.faults {
            let node_ok = |n: u16| (n as usize) < self.n_nodes;
            match f {
                FaultSpec::Partition { group, from_us, until_us } => {
                    if group.is_empty() || group.len() >= self.n_nodes {
                        return Err("partition group must be a nonempty proper subset".into());
                    }
                    if group.iter().any(|n| !node_ok(*n)) || from_us >= until_us {
                        return Err(format!("bad partition spec {f:?}"));
                    }
                }
                FaultSpec::Isolate { node, from_us, until_us } => {
                    if !node_ok(*node) || from_us >= until_us {
                        return Err(format!("bad isolate spec {f:?}"));
                    }
                }
                FaultSpec::Loss { per_mille } => {
                    if *per_mille == 0 || *per_mille >= 1000 {
                        return Err(format!("loss per-mille {per_mille} out of (0, 1000)"));
                    }
                }
                FaultSpec::ClockSkew { thread, .. } => {
                    if *thread >= self.n_threads {
                        return Err(format!("clock skew on unknown thread {thread}"));
                    }
                }
                FaultSpec::TcpKill { node, .. } => {
                    if !node_ok(*node) {
                        return Err(format!("tcp kill on unknown node {node}"));
                    }
                }
                FaultSpec::TcpHalfClose { node, peer, .. } => {
                    if !node_ok(*node) || !node_ok(*peer) || node == peer {
                        return Err(format!("bad half-close spec {f:?}"));
                    }
                }
                FaultSpec::Jitter { .. } | FaultSpec::SerializeMedium => {}
            }
        }
        Ok(())
    }

    /// Canonical TOML serialization (byte-stable: equal plans produce equal
    /// bytes).
    pub fn to_toml(&self) -> String {
        let mut doc = Doc::default();
        let mut p = Table::default();
        p.set("seed", Value::Int(self.seed as i64));
        p.set("n_nodes", Value::Int(self.n_nodes as i64));
        p.set("n_threads", Value::Int(self.n_threads as i64));
        p.set("free_cells", Value::Int(self.free_cells as i64));
        p.set("locked_cells", Value::Int(self.locked_cells as i64));
        p.set("counters", Value::Int(self.counters as i64));
        if !self.cell_types.is_empty() {
            p.set(
                "cell_types",
                Value::List(
                    self.cell_types.iter().map(|t| Value::Str(t.encode().into())).collect(),
                ),
            );
        }
        if let Some(l) = self.tardis_lease {
            p.set("tardis_lease", Value::Int(l as i64));
        }
        if let Some(d) = self.tardis_decay_us {
            p.set("tardis_decay_us", Value::Int(d as i64));
        }
        doc.push("plan", p);
        for f in &self.faults {
            let mut t = Table::default();
            match f {
                FaultSpec::Loss { per_mille } => {
                    t.set("kind", Value::Str("loss".into()));
                    t.set("per_mille", Value::Int(*per_mille as i64));
                }
                FaultSpec::Jitter { max_us } => {
                    t.set("kind", Value::Str("jitter".into()));
                    t.set("max_us", Value::Int(*max_us as i64));
                }
                FaultSpec::SerializeMedium => {
                    t.set("kind", Value::Str("serialize_medium".into()));
                }
                FaultSpec::Partition { group, from_us, until_us } => {
                    t.set("kind", Value::Str("partition".into()));
                    t.set(
                        "group",
                        Value::List(group.iter().map(|n| Value::Int(*n as i64)).collect()),
                    );
                    t.set("from_us", Value::Int(*from_us as i64));
                    t.set("until_us", Value::Int(encode_forever(*until_us)));
                }
                FaultSpec::Isolate { node, from_us, until_us } => {
                    t.set("kind", Value::Str("isolate".into()));
                    t.set("node", Value::Int(*node as i64));
                    t.set("from_us", Value::Int(*from_us as i64));
                    t.set("until_us", Value::Int(encode_forever(*until_us)));
                }
                FaultSpec::ClockSkew { thread, us } => {
                    t.set("kind", Value::Str("clock_skew".into()));
                    t.set("thread", Value::Int(*thread as i64));
                    t.set("us", Value::Int(*us as i64));
                }
                FaultSpec::TcpKill { node, after_ms } => {
                    t.set("kind", Value::Str("tcp_kill".into()));
                    t.set("node", Value::Int(*node as i64));
                    t.set("after_ms", Value::Int(*after_ms as i64));
                }
                FaultSpec::TcpHalfClose { node, peer, after_ms } => {
                    t.set("kind", Value::Str("tcp_half_close".into()));
                    t.set("node", Value::Int(*node as i64));
                    t.set("peer", Value::Int(*peer as i64));
                    t.set("after_ms", Value::Int(*after_ms as i64));
                }
            }
            doc.push("fault", t);
        }
        for round in &self.rounds {
            let mut t = Table::default();
            for (i, ops) in round.ops.iter().enumerate() {
                t.set(
                    &format!("t{i}"),
                    Value::List(ops.iter().map(|op| Value::Str(op.encode())).collect()),
                );
            }
            doc.push("round", t);
        }
        doc.to_toml()
    }

    /// Parse and validate a plan from TOML text.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let p = doc.table("plan").ok_or("missing [plan] table")?;
        let mut plan = InteractionPlan {
            // Bijective i64 cast: seeds above i64::MAX (derived substream
            // seeds use the full u64 range) serialize negative and read
            // back exactly.
            seed: p.require("seed")?.as_int()? as u64,
            n_nodes: p.require("n_nodes")?.as_usize()?,
            n_threads: p.require("n_threads")?.as_usize()?,
            free_cells: p.require("free_cells")?.as_usize()?,
            locked_cells: p.require("locked_cells")?.as_usize()?,
            counters: p.require("counters")?.as_usize()?,
            cell_types: match p.get("cell_types") {
                Some(v) => v
                    .as_list()?
                    .iter()
                    .map(|t| t.as_str().and_then(CellType::decode))
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            },
            tardis_lease: p.get("tardis_lease").map(|v| v.as_u64()).transpose()?,
            tardis_decay_us: p.get("tardis_decay_us").map(|v| v.as_u64()).transpose()?,
            faults: Vec::new(),
            rounds: Vec::new(),
        };
        for t in doc.tables("fault") {
            let kind = t.require("kind")?.as_str()?;
            let fault = match kind {
                "loss" => FaultSpec::Loss { per_mille: t.require("per_mille")?.as_u64()? as u32 },
                "jitter" => FaultSpec::Jitter { max_us: t.require("max_us")?.as_u64()? },
                "serialize_medium" => FaultSpec::SerializeMedium,
                "partition" => FaultSpec::Partition {
                    group: t
                        .require("group")?
                        .as_list()?
                        .iter()
                        .map(|v| v.as_u64().map(|n| n as u16))
                        .collect::<Result<_, _>>()?,
                    from_us: t.require("from_us")?.as_u64()?,
                    until_us: t.require("until_us")?.as_u64()?,
                },
                "isolate" => FaultSpec::Isolate {
                    node: t.require("node")?.as_u64()? as u16,
                    from_us: t.require("from_us")?.as_u64()?,
                    until_us: t.require("until_us")?.as_u64()?,
                },
                "clock_skew" => FaultSpec::ClockSkew {
                    thread: t.require("thread")?.as_usize()?,
                    us: t.require("us")?.as_u64()?,
                },
                "tcp_kill" => FaultSpec::TcpKill {
                    node: t.require("node")?.as_u64()? as u16,
                    after_ms: t.require("after_ms")?.as_u64()?,
                },
                "tcp_half_close" => FaultSpec::TcpHalfClose {
                    node: t.require("node")?.as_u64()? as u16,
                    peer: t.require("peer")?.as_u64()? as u16,
                    after_ms: t.require("after_ms")?.as_u64()?,
                },
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            plan.faults.push(fault);
        }
        for t in doc.tables("round") {
            let mut round = Round { ops: vec![Vec::new(); plan.n_threads] };
            for (key, value) in &t.entries {
                let idx: usize = key
                    .strip_prefix('t')
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("round key `{key}` is not t<N>"))?;
                if idx >= plan.n_threads {
                    return Err(format!("round names thread {idx}, plan has {}", plan.n_threads));
                }
                round.ops[idx] = value
                    .as_list()?
                    .iter()
                    .map(|v| v.as_str().and_then(PlanOp::decode))
                    .collect::<Result<_, _>>()?;
            }
            plan.rounds.push(round);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// The single-line reproduction command for this plan's seed.
    pub fn repro_line(&self) -> String {
        format!("munin-campaign --seed {}", self.seed)
    }
}

/// `u64::MAX` serializes as -1 ("forever"); see [`Value::as_u64`].
fn encode_forever(v: u64) -> i64 {
    if v == u64::MAX {
        -1
    } else {
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> InteractionPlan {
        let mut plan = InteractionPlan::skeleton(2, 2);
        plan.seed = 99;
        plan.free_cells = 1;
        plan.locked_cells = 1;
        plan.counters = 1;
        plan.faults = vec![
            FaultSpec::Loss { per_mille: 50 },
            FaultSpec::Partition { group: vec![0], from_us: 10_000, until_us: 60_000 },
            FaultSpec::Isolate { node: 1, from_us: 0, until_us: u64::MAX },
        ];
        plan.rounds = vec![
            Round {
                ops: vec![
                    vec![PlanOp::Write { cell: 0, label: 1 }, PlanOp::Compute { us: 100 }],
                    vec![PlanOp::LockedRmw { lcell: 0, label: 2 }],
                ],
            },
            Round {
                ops: vec![
                    vec![PlanOp::Read { cell: 0 }],
                    vec![PlanOp::FetchAdd { counter: 0, delta: 3 }],
                ],
            },
        ];
        plan
    }

    #[test]
    fn toml_round_trip_is_identity() {
        let plan = tiny_plan();
        let text = plan.to_toml();
        let back = InteractionPlan::from_toml(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_toml(), text, "serialization must be canonical");
    }

    #[test]
    fn tardis_overrides_round_trip_and_stay_optional() {
        let mut plan = tiny_plan();
        let base = plan.to_toml();
        assert!(!base.contains("tardis_"), "unset overrides must not appear in canonical TOML");
        plan.tardis_lease = Some(16);
        plan.tardis_decay_us = Some(500);
        let text = plan.to_toml();
        let back = InteractionPlan::from_toml(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_toml(), text, "serialization must stay canonical with overrides");
        plan.tardis_decay_us = Some(0);
        assert!(plan.validate().is_err(), "a zero decay period is rejected");
    }

    #[test]
    fn op_codec_round_trips() {
        for op in [
            PlanOp::Write { cell: 3, label: 17 },
            PlanOp::Read { cell: 0 },
            PlanOp::LockedRmw { lcell: 1, label: 9 },
            PlanOp::FetchAdd { counter: 2, delta: 41 },
            PlanOp::AsyncWrite { cell: 2, label: 23 },
            PlanOp::AsyncAdd { counter: 1, delta: 7 },
            PlanOp::Compute { us: 1234 },
        ] {
            assert_eq!(PlanOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(PlanOp::decode("frob 1 2").is_err());
        assert!(PlanOp::decode("w 1").is_err());
    }

    #[test]
    fn expectations_reflect_fault_permanence() {
        let mut plan = tiny_plan();
        assert!(!plan.expects_clean(), "permanent isolation never heals");
        plan.faults.pop();
        assert!(plan.expects_clean(), "loss and a healed partition recover");
        assert_eq!(plan.expected_counter_totals(), vec![3]);
    }

    #[test]
    fn validation_rejects_two_writers_per_round() {
        let mut plan = InteractionPlan::skeleton(2, 2);
        plan.free_cells = 1;
        plan.rounds = vec![Round {
            ops: vec![
                vec![PlanOp::Write { cell: 0, label: 1 }],
                vec![PlanOp::Write { cell: 0, label: 2 }],
            ],
        }];
        let err = plan.validate().unwrap_err();
        assert!(err.contains("one writer per round"), "{err}");
    }

    #[test]
    fn async_ops_share_the_sync_rules() {
        // An async write and a sync write from different threads to the
        // same free cell in one round still violate the one-writer rule.
        let mut plan = InteractionPlan::skeleton(2, 2);
        plan.free_cells = 1;
        plan.rounds = vec![Round {
            ops: vec![
                vec![PlanOp::Write { cell: 0, label: 1 }],
                vec![PlanOp::AsyncWrite { cell: 0, label: 2 }],
            ],
        }];
        assert!(plan.validate().unwrap_err().contains("one writer per round"));

        // Async adds count toward the expected counter totals.
        let mut plan = InteractionPlan::skeleton(2, 1);
        plan.counters = 1;
        plan.rounds = vec![Round {
            ops: vec![vec![
                PlanOp::FetchAdd { counter: 0, delta: 2 },
                PlanOp::AsyncAdd { counter: 0, delta: 5 },
            ]],
        }];
        plan.validate().unwrap();
        assert_eq!(plan.expected_counter_totals(), vec![7]);

        // Non-positive async deltas are rejected like sync ones.
        let mut plan = InteractionPlan::skeleton(2, 1);
        plan.counters = 1;
        plan.rounds = vec![Round { ops: vec![vec![PlanOp::AsyncAdd { counter: 0, delta: 0 }]] }];
        assert!(plan.validate().unwrap_err().contains("positive"));
    }

    #[test]
    fn validation_rejects_duplicate_labels_and_bad_deltas() {
        let mut plan = InteractionPlan::skeleton(2, 1);
        plan.free_cells = 1;
        plan.rounds = vec![
            Round { ops: vec![vec![PlanOp::Write { cell: 0, label: 1 }]] },
            Round { ops: vec![vec![PlanOp::Write { cell: 0, label: 1 }]] },
        ];
        assert!(plan.validate().unwrap_err().contains("duplicate write labels"));

        let mut plan = InteractionPlan::skeleton(2, 1);
        plan.counters = 1;
        plan.rounds = vec![Round { ops: vec![vec![PlanOp::FetchAdd { counter: 0, delta: 0 }]] }];
        assert!(plan.validate().unwrap_err().contains("positive"));
    }
}
