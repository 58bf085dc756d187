//! Virtual-time delivery latency.

use munin_types::{CostModel, VirtualTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Computes when a message sent now arrives at its destination.
///
/// The model is intentionally simple — fixed per-message cost plus a per-KiB
/// cost — because the paper's comparisons depend on message *counts* and
/// *sizes*, not on queueing microstructure. A `serialize` flag adds a shared
/// half-duplex medium approximation (each concurrent sender's message is
/// pushed back behind the previous one), which matters only for the stall-time
/// experiments (E7) and is off by default.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    cost: CostModel,
    /// If true, model the Ethernet as a shared medium: deliveries are spaced
    /// so the wire carries one message at a time.
    serialize_medium: bool,
    /// Virtual time at which the shared medium becomes free.
    wire_free_at: VirtualTime,
    /// Seeded per-message jitter in `[0, max_us]`; `None` keeps latency a
    /// pure function of payload size. Jitter makes later sends overtake
    /// earlier ones on the wire.
    jitter: Option<(u64, SmallRng)>,
    /// Seeded loss: each transmission attempt is lost with this
    /// probability. `None` never consults a stream.
    loss: Option<(f64, SmallRng)>,
}

impl LatencyModel {
    pub fn new(cost: CostModel) -> Self {
        LatencyModel {
            cost,
            serialize_medium: false,
            wire_free_at: VirtualTime::ZERO,
            jitter: None,
            loss: None,
        }
    }

    pub fn with_serialized_medium(mut self, on: bool) -> Self {
        self.serialize_medium = on;
        self
    }

    /// Add deterministic delivery jitter of up to `max_us` virtual
    /// microseconds per message, drawn from the seeded stream. A `max_us` of
    /// zero leaves the model untouched (the RNG is never consulted).
    pub fn with_jitter(mut self, max_us: u64, seed: u64) -> Self {
        self.jitter =
            if max_us == 0 { None } else { Some((max_us, SmallRng::seed_from_u64(seed))) };
        self
    }

    /// Lose each transmission attempt with probability `drop_prob`
    /// (clamped to at most 0.999), drawn from the seeded stream. Zero leaves
    /// the model lossless (the RNG is never consulted).
    pub fn with_loss(mut self, drop_prob: f64, seed: u64) -> Self {
        self.loss =
            (drop_prob > 0.0).then(|| (drop_prob.min(0.999), SmallRng::seed_from_u64(seed)));
        self
    }

    /// Roll the loss stream once per attempt until one gets through: the
    /// number of attempts lost, at most `max`.
    pub fn lost_attempts(&mut self, max: u32) -> u32 {
        let Some((p, rng)) = &mut self.loss else { return 0 };
        let mut lost = 0;
        while lost < max && rng.gen_bool(*p) {
            lost += 1;
        }
        lost
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Delivery time of a message with `payload_bytes` handed to the
    /// transport at `now`.
    pub fn delivery_time(&mut self, now: VirtualTime, payload_bytes: usize) -> VirtualTime {
        let mut latency = self.cost.msg_latency_us(payload_bytes);
        if let Some((max_us, rng)) = &mut self.jitter {
            latency += rng.gen_range(0..=*max_us);
        }
        if self.serialize_medium {
            // Occupy the wire for the transmission part of the latency.
            let start = now.max(self.wire_free_at);
            let arrive = start + latency;
            self.wire_free_at = arrive;
            arrive
        } else {
            now + latency
        }
    }

    /// Number of sender-side transmissions a multicast to `fanout`
    /// destinations costs under this model's hardware assumptions.
    pub fn multicast_sends(&self, fanout: usize) -> usize {
        self.cost.multicast_sends(fanout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unserialized_medium_delivers_in_parallel() {
        let mut m = LatencyModel::new(CostModel::ethernet_1990());
        let t0 = VirtualTime::ZERO;
        let a = m.delivery_time(t0, 0);
        let b = m.delivery_time(t0, 0);
        assert_eq!(a, b, "two control messages sent at t0 both arrive at t0+fixed");
        assert_eq!(a.as_micros(), 1_000);
    }

    #[test]
    fn serialized_medium_spaces_messages() {
        let mut m = LatencyModel::new(CostModel::ethernet_1990()).with_serialized_medium(true);
        let t0 = VirtualTime::ZERO;
        let a = m.delivery_time(t0, 0);
        let b = m.delivery_time(t0, 0);
        assert_eq!(a.as_micros(), 1_000);
        assert_eq!(b.as_micros(), 2_000, "second message queues behind the first");
        // After the wire goes idle, latency resets to base.
        let c = m.delivery_time(VirtualTime::micros(10_000), 0);
        assert_eq!(c.as_micros(), 11_000);
    }

    #[test]
    fn jitter_is_seeded_bounded_and_reordering() {
        let base = LatencyModel::new(CostModel::ethernet_1990())
            .delivery_time(VirtualTime::ZERO, 0)
            .as_micros();
        let run = |seed: u64| -> Vec<u64> {
            let mut m = LatencyModel::new(CostModel::ethernet_1990()).with_jitter(5_000, seed);
            (0..64).map(|_| m.delivery_time(VirtualTime::ZERO, 0).as_micros()).collect()
        };
        let a = run(9);
        assert_eq!(a, run(9), "same seed, same jitter stream");
        assert_ne!(a, run(10));
        assert!(a.iter().all(|t| (base..=base + 5_000).contains(t)), "jitter bounded");
        assert!(a.windows(2).any(|w| w[0] > w[1]), "jitter must be able to reorder deliveries");
        // max_us = 0 degenerates to the pure model.
        let mut z = LatencyModel::new(CostModel::ethernet_1990()).with_jitter(0, 9);
        assert_eq!(z.delivery_time(VirtualTime::ZERO, 0).as_micros(), base);
    }

    #[test]
    fn payload_bytes_increase_latency() {
        let mut m = LatencyModel::new(CostModel::ethernet_1990());
        let small = m.delivery_time(VirtualTime::ZERO, 16);
        let large = m.delivery_time(VirtualTime::ZERO, 8192);
        assert!(large > small);
    }
}
