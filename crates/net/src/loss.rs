//! Tests of the seeded loss roll, [`crate::LatencyModel::lost_attempts`]:
//! each transmission attempt is lost with a clamped probability drawn from
//! the model's own stream, and a lost attempt only delays the transmission.

#[cfg(test)]
mod tests {
    use crate::LatencyModel;
    use munin_types::CostModel;

    fn lossy(drop_prob: f64, seed: u64) -> LatencyModel {
        LatencyModel::new(CostModel::ethernet_1990()).with_loss(drop_prob, seed)
    }

    /// One roll per attempt: `true` when the first attempt is lost.
    fn rolls(m: &mut LatencyModel, n: usize) -> Vec<bool> {
        (0..n).map(|_| m.lost_attempts(1) == 1).collect()
    }

    #[test]
    fn lossless_never_drops() {
        let mut m = lossy(0.0, 1);
        assert!((0..1000).all(|_| m.lost_attempts(40) == 0));
        let mut plain = LatencyModel::new(CostModel::ethernet_1990());
        assert_eq!(plain.lost_attempts(40), 0, "a model without loss never loses");
    }

    #[test]
    fn seeded_stream_is_deterministic() {
        let stream = || {
            let mut m = lossy(0.3, 42);
            (0..200).map(|_| m.lost_attempts(3)).collect::<Vec<u32>>()
        };
        let va = stream();
        assert_eq!(va, stream());
        assert!(va.iter().any(|&k| k > 0), "p=0.3 over 200 transmissions loses something");
        assert!(va.iter().all(|&k| k <= 3), "never past the bound");
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(rolls(&mut lossy(0.5, 1), 64), rolls(&mut lossy(0.5, 2), 64));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let lost = rolls(&mut lossy(0.25, 7), 10_000).iter().filter(|&&d| d).count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn probability_is_clamped() {
        // Clamped to 0.999: a certain loss would hold every transmission
        // until it is given up.
        let all = rolls(&mut lossy(5.0, 3), 20_000);
        assert!(all.iter().any(|d| !d));
    }
}
