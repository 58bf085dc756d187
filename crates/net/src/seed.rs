//! Campaign seed plumbing.
//!
//! Every randomized model in this crate (loss, latency jitter) and every
//! campaign generator derives its RNG stream from *one* u64 campaign seed via
//! [`derive()`], so a single number replays an entire run. [`SeedGuard`] makes
//! red runs replayable: constructed at the top of a seeded test, it prints the
//! seed when the thread unwinds, so the log of any failure carries the one
//! value needed to reproduce it.

/// Derive an independent substream seed from a campaign seed and a role tag.
///
/// FNV-1a over the tag folds the role into a 64-bit value, then a SplitMix64
/// finalizer mixes it with the campaign seed so `derive(s, "loss")` and
/// `derive(s, "latency")` are decorrelated while each remains a pure function
/// of `(seed, tag)`.
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in tag.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut z = seed ^ h;
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Prints the governing seed if the owning scope panics.
///
/// ```text
/// let _guard = SeedGuard::new("reliability", seed);
/// ... seeded assertions ...
/// ```
///
/// On a clean exit the guard is silent; on an assertion failure the drop
/// handler runs during unwind and emits `SEED ... (replay with ...)` to
/// stderr, which the test harness surfaces with the failure output.
pub struct SeedGuard {
    what: &'static str,
    seed: u64,
}

impl SeedGuard {
    pub fn new(what: &'static str, seed: u64) -> Self {
        SeedGuard { what, seed }
    }
}

impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("SEED {} failed with seed {} — replay with that seed", self.what, self.seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_a_pure_function() {
        assert_eq!(derive(42, "loss"), derive(42, "loss"));
        assert_eq!(derive(7, "latency"), derive(7, "latency"));
    }

    #[test]
    fn tags_decorrelate_substreams() {
        assert_ne!(derive(42, "loss"), derive(42, "latency"));
        assert_ne!(derive(42, "loss"), derive(43, "loss"));
        assert_ne!(derive(0, "gen"), derive(0, "plan"));
    }

    #[test]
    fn silent_guard_on_clean_exit() {
        let _g = SeedGuard::new("unit", 1);
        // Dropping without a panic must not print (can't assert stderr here,
        // but the path is exercised for coverage and must not itself panic).
    }
}
