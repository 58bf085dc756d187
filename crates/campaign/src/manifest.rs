//! Must-reach transition manifests: the curated coverage goals a protocol's
//! explore run is expected to hit.
//!
//! Each protocol ships a TOML manifest (embedded at compile time, next to
//! the curated scenarios) listing `proto/object/state/event` transition
//! keys that a healthy exploration must reach — the protocol's load-bearing
//! paths: fault handling, copyset distribution, lock token passing, lease
//! renewal and decay. `munin-campaign explore` exits nonzero when any goal
//! stays unreached, which turns "the campaign generator stopped exercising
//! the twin path" from a silent coverage regression into a red CI job.
//!
//! A goal key may use `*` for any axis segment: `munin/*/copyset/*` matches
//! every copyset distribution decision regardless of sharing type.

use crate::toml::parse;
use munin_obs::CoverageSnapshot;

/// One must-reach transition goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goal {
    /// `proto/object/state/event`, each segment a literal or `*`.
    pub key: String,
    /// Why this transition matters (shown when it goes unreached).
    pub about: String,
}

impl Goal {
    /// Segment-wise match of a concrete transition key against this goal.
    pub fn matches(&self, key: &str) -> bool {
        let want: Vec<&str> = self.key.split('/').collect();
        let got: Vec<&str> = key.split('/').collect();
        want.len() == got.len() && want.iter().zip(&got).all(|(w, g)| *w == "*" || w == g)
    }

    /// Is this goal reached by any transition in the snapshot?
    pub fn reached(&self, snap: &CoverageSnapshot) -> bool {
        snap.rows.iter().any(|r| self.matches(&r.key()))
    }
}

/// A protocol's must-reach manifest.
#[derive(Debug, Clone)]
pub struct MustReach {
    /// Protocol short name (`"munin"`, `"ivy"`, `"tardis"`).
    pub proto: &'static str,
    pub goals: Vec<Goal>,
}

/// Every protocol's embedded manifest, keyed by its `Protocol::NAME`.
const MANIFESTS: [(&str, &str); 3] = [
    ("munin", include_str!("manifests/munin.toml")),
    ("ivy", include_str!("manifests/ivy.toml")),
    ("tardis", include_str!("manifests/tardis.toml")),
];

impl MustReach {
    /// Parse a manifest from TOML text: one `[[goal]]` table per goal with
    /// `key` and `about` strings. Keys must have four `/`-separated
    /// segments and name `proto` in the first.
    pub fn parse_toml(proto: &'static str, text: &str) -> Result<MustReach, String> {
        let doc = parse(text)?;
        let mut goals = Vec::new();
        for t in doc.tables("goal") {
            let key = t.require("key")?.as_str()?.to_string();
            let about = t.require("about")?.as_str()?.to_string();
            let segs: Vec<&str> = key.split('/').collect();
            if segs.len() != 4 {
                return Err(format!("goal `{key}`: want proto/object/state/event"));
            }
            if segs[0] != proto {
                return Err(format!("goal `{key}` in the {proto} manifest names another protocol"));
            }
            goals.push(Goal { key, about });
        }
        if goals.is_empty() {
            return Err(format!("the {proto} manifest declares no goals"));
        }
        Ok(MustReach { proto, goals })
    }

    /// The embedded manifest for the protocol named `proto`.
    pub fn for_proto(proto: &str) -> MustReach {
        let (name, text) = MANIFESTS
            .iter()
            .find(|(name, _)| *name == proto)
            .unwrap_or_else(|| panic!("no must-reach manifest for protocol `{proto}`"));
        MustReach::parse_toml(name, text).expect("embedded manifest parses")
    }

    /// Goals the snapshot does not reach.
    pub fn unreached<'a>(&'a self, snap: &CoverageSnapshot) -> Vec<&'a Goal> {
        self.goals.iter().filter(|g| !g.reached(snap)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_obs::CovRow;

    fn snap(keys: &[&str]) -> CoverageSnapshot {
        let rows = keys
            .iter()
            .map(|k| {
                let s: Vec<&str> = k.split('/').collect();
                CovRow {
                    proto: s[0].into(),
                    object: s[1].into(),
                    state: s[2].into(),
                    event: s[3].into(),
                    count: 1,
                }
            })
            .collect();
        CoverageSnapshot { rows }
    }

    #[test]
    fn wildcard_segments_match_any_value() {
        let g = Goal { key: "munin/*/copyset/*".into(), about: String::new() };
        assert!(g.matches("munin/write-many/copyset/invalidate"));
        assert!(g.matches("munin/read-mostly/copyset/refresh"));
        assert!(!g.matches("ivy/page/copyset/invalidate"));
        assert!(!g.matches("munin/write-many/copyset"));
    }

    #[test]
    fn unreached_lists_only_missing_goals() {
        let m = MustReach {
            proto: "tardis",
            goals: vec![
                Goal { key: "tardis/object/lease/decay-evict".into(), about: String::new() },
                Goal { key: "tardis/object/home/write".into(), about: String::new() },
            ],
        };
        let s = snap(&["tardis/object/home/write"]);
        let missing = m.unreached(&s);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].key, "tardis/object/lease/decay-evict");
    }

    #[test]
    fn embedded_manifests_parse_for_every_target() {
        for b in crate::exec::campaign_backends() {
            let m = MustReach::for_proto(b.proto().expect("a protocol backend").name());
            assert!(!m.goals.is_empty(), "{}", b.name());
        }
    }

    #[test]
    fn tardis_manifest_includes_a_lease_expiry_goal() {
        let m = MustReach::for_proto("tardis");
        assert!(
            m.goals
                .iter()
                .any(|g| g.key.contains("lease/decay-evict")
                    || g.key.contains("lease/expired-renew")),
            "the Tardis manifest must pin a lease-expiry transition"
        );
    }

    #[test]
    fn bad_manifests_are_rejected() {
        assert!(
            MustReach::parse_toml("munin", "[[goal]]\nkey = \"a/b/c\"\nabout = \"\"\n").is_err()
        );
        assert!(MustReach::parse_toml(
            "munin",
            "[[goal]]\nkey = \"ivy/page/invalid/read-fault\"\nabout = \"\"\n"
        )
        .is_err());
        assert!(MustReach::parse_toml("munin", "# empty\n").is_err());
    }
}
