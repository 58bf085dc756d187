//! The read-heavy workload (`munin_bench::read_heavy`) on the deterministic
//! simulator, one run per protocol: the lease-based protocol must finish it
//! with *zero* invalidation messages, while the write-invalidate baseline
//! visibly pays them.

use munin_api::Backend;
use munin_bench::read_heavy::{inval_msgs, read_heavy_stats, RH_ROUNDS};
use munin_net::NetStats;

/// `NetStats` of the read-heavy workload on the simulator backend named
/// `name` in `Backend::matrix()`.
fn sim_stats(name: &str) -> NetStats {
    let backend = Backend::matrix()
        .into_iter()
        .find(|b| !b.is_realtime() && b.name() == name)
        .unwrap_or_else(|| panic!("no simulator backend named {name}"));
    read_heavy_stats(backend)
}

#[test]
fn tardis_read_heavy_sends_no_invalidations() {
    let tardis = sim_stats("Tardis");
    assert_eq!(
        inval_msgs(&tardis),
        0,
        "Tardis must complete the read-heavy workload with zero invalidation messages \
         (and therefore zero invalidation multicasts)"
    );
    // The only multicasts Tardis ever performs are barrier releases (two
    // per round here); a write is one timestamp bump at the home, never a
    // fan-out.
    assert!(
        tardis.multicasts <= (2 * RH_ROUNDS) as u64,
        "Tardis multicast count {} exceeds the barrier-release budget — a write fanned out",
        tardis.multicasts
    );
}

#[test]
fn ivy_read_heavy_pays_invalidations() {
    assert!(
        inval_msgs(&sim_stats("Ivy")) > 0,
        "the write-invalidate baseline must pay invalidations on this workload, \
         or the Tardis comparison is vacuous"
    );
}
