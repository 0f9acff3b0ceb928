//! Link models: latency, jitter and loss between node pairs.

use crate::time::Dur;
use rand::Rng;

/// Parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way latency.
    pub latency: Dur,
    /// Additional uniformly distributed latency in `[0, jitter]`.
    pub jitter: Dur,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
}

impl LinkSpec {
    /// A LAN-ish default: 0.5 ms ± 0.2 ms, lossless.
    pub fn lan() -> Self {
        LinkSpec {
            latency: Dur::micros(500),
            jitter: Dur::micros(200),
            loss: 0.0,
        }
    }

    /// A WAN-ish profile: 40 ms ± 20 ms with light loss — the
    /// "internet-scale P2P" setting used in the discovery experiments.
    pub fn wan() -> Self {
        LinkSpec {
            latency: Dur::millis(40),
            jitter: Dur::millis(20),
            loss: 0.01,
        }
    }

    /// Set the loss probability. Out-of-range values (including NaN) are
    /// clamped into `[0, 1]` so release builds behave like debug builds
    /// instead of silently dropping everything (loss > 1) or nothing
    /// (loss < 0 paired with a `<` comparison).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = if loss.is_nan() {
            0.0
        } else {
            loss.clamp(0.0, 1.0)
        };
        self
    }

    pub fn with_latency(mut self, latency: Dur) -> Self {
        self.latency = latency;
        self
    }

    pub fn with_jitter(mut self, jitter: Dur) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sample a delivery delay, or `None` if the message is lost.
    ///
    /// A fully lossy link (`loss >= 1`, e.g. a blackout window scheduled
    /// by a [`crate::FaultPlan`]) drops without consuming randomness, so
    /// a blackout does not perturb the seeded delay sequence of traffic
    /// on other links.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<Dur> {
        if self.loss >= 1.0 {
            return None;
        }
        if self.loss > 0.0 && rng.random::<f64>() < self.loss {
            return None;
        }
        let jitter = if self.jitter.as_micros() == 0 {
            Dur::ZERO
        } else {
            self.jitter.mul_f64(rng.random::<f64>())
        };
        Some(self.latency + jitter)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lossless_link_always_delivers() {
        let mut rng = StdRng::seed_from_u64(7);
        let link = LinkSpec::lan();
        for _ in 0..100 {
            assert!(link.sample(&mut rng).is_some());
        }
    }

    #[test]
    fn delay_within_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let link = LinkSpec {
            latency: Dur::millis(10),
            jitter: Dur::millis(5),
            loss: 0.0,
        };
        for _ in 0..100 {
            let d = link.sample(&mut rng).unwrap();
            assert!(d >= Dur::millis(10) && d <= Dur::millis(15), "{d}");
        }
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut rng = StdRng::seed_from_u64(42);
        let link = LinkSpec::lan().with_loss(0.3);
        let lost = (0..10_000)
            .filter(|_| link.sample(&mut rng).is_none())
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let link = LinkSpec::lan().with_loss(1.0);
        assert!(link.sample(&mut rng).is_none());
    }

    #[test]
    fn total_loss_consumes_no_randomness() {
        // A blackout link must not perturb the seeded RNG stream: the
        // delay sequence sampled afterwards is identical whether or not
        // blacked-out traffic was sampled in between.
        let blackout = LinkSpec::lan().with_loss(1.0);
        let probe = LinkSpec::wan();
        let mut with = StdRng::seed_from_u64(9);
        let mut without = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert!(blackout.sample(&mut with).is_none());
        }
        for _ in 0..50 {
            assert_eq!(probe.sample(&mut with), probe.sample(&mut without));
        }
    }

    #[test]
    fn out_of_range_loss_is_clamped() {
        assert_eq!(LinkSpec::lan().with_loss(1.5).loss, 1.0);
        assert_eq!(LinkSpec::lan().with_loss(-0.5).loss, 0.0);
        assert_eq!(LinkSpec::lan().with_loss(f64::NAN).loss, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(LinkSpec::lan().with_loss(7.0).sample(&mut rng).is_none());
        assert!(LinkSpec::lan().with_loss(-7.0).sample(&mut rng).is_some());
    }

    #[test]
    fn loss_just_below_one_still_samples() {
        // 0.999… loss goes through the RNG path; over many samples at
        // least one message should still get through.
        let mut rng = StdRng::seed_from_u64(3);
        let link = LinkSpec::lan().with_loss(0.99);
        let delivered = (0..10_000)
            .filter(|_| link.sample(&mut rng).is_some())
            .count();
        assert!(delivered > 0, "0.99 loss is not a blackout");
    }

    #[test]
    fn deterministic_given_seed() {
        let link = LinkSpec::wan();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            assert_eq!(link.sample(&mut a), link.sample(&mut b));
        }
    }
}
