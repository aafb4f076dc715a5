//! Typed retry policies with exponential backoff and deterministic jitter.
//!
//! The resilient client (see [`crate::session`]) consults a [`Backoff`]
//! whenever a send fails or a connection dies: each attempt waits
//! `base · multiplier^n`, capped at `max_delay`, with a seeded jitter factor
//! so replayed chaos schedules reproduce the exact same timing decisions.

use std::time::Duration;

use crate::fault::SplitMix64;

/// When and how often to retry a failed transport operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts after the first failure before giving up (0 = fail fast).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Exponential growth factor between consecutive delays.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a uniform factor
    /// in `[1 - jitter, 1 + jitter]`, decorrelating a fleet of clients that
    /// all lost the same uplink.
    pub jitter: f64,
}

impl RetryPolicy {
    /// Production-flavoured defaults for a mobile uplink: 8 retries,
    /// 50 ms → 5 s exponential, 30% jitter.
    pub fn mobile_uplink() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(5),
            multiplier: 2.0,
            jitter: 0.3,
        }
    }

    /// Millisecond-scale delays for tests and chaos sweeps: plenty of
    /// retries, near-zero wall-clock cost.
    pub fn fast_test() -> RetryPolicy {
        RetryPolicy {
            max_retries: 12,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
            multiplier: 2.0,
            jitter: 0.25,
        }
    }

    /// Never retry: surface the first failure.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            multiplier: 1.0,
            jitter: 0.0,
        }
    }
}

/// Stateful backoff over a [`RetryPolicy`], with deterministic jitter.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// A fresh backoff; `seed` drives the jitter sequence.
    pub fn new(policy: RetryPolicy, seed: u64) -> Backoff {
        Backoff { policy, attempt: 0, rng: SplitMix64(seed ^ 0xBAC0_FF00_0000_0001) }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The policy driving this backoff.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Budget another attempt: `Some(delay)` to wait before retrying, `None`
    /// when the retry budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.max_retries {
            return None;
        }
        let exp = self.policy.multiplier.max(1.0).powi(self.attempt as i32);
        let raw = self.policy.base_delay.as_secs_f64() * exp;
        let capped = raw.min(self.policy.max_delay.as_secs_f64());
        let jitter = self.policy.jitter.clamp(0.0, 1.0);
        let unit = (self.rng.next() >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let factor = 1.0 - jitter + 2.0 * jitter * unit;
        self.attempt += 1;
        Some(Duration::from_secs_f64((capped * factor).max(0.0)))
    }

    /// Sleep out the next delay; `false` when the budget is exhausted.
    pub fn wait(&mut self) -> bool {
        match self.next_delay() {
            Some(d) => {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                true
            }
            None => false,
        }
    }

    /// Progress was made: reset the attempt counter so a long-lived session
    /// gets its full budget against each *new* failure burst.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let mut p = RetryPolicy::mobile_uplink();
        p.jitter = 0.0;
        let mut b = Backoff::new(p, 1);
        let d: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(d.len(), 8);
        assert_eq!(d[0], Duration::from_millis(50));
        assert_eq!(d[1], Duration::from_millis(100));
        assert_eq!(d[7], Duration::from_secs(5), "capped at max_delay");
        assert!(b.next_delay().is_none(), "budget exhausted");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let p = RetryPolicy::mobile_uplink();
        let a: Vec<_> = {
            let mut b = Backoff::new(p, 7);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        let b: Vec<_> = {
            let mut b = Backoff::new(p, 7);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        assert_eq!(a, b, "same seed, same delays");
        let c: Vec<_> = {
            let mut b = Backoff::new(p, 8);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        assert_ne!(a, c, "different seed, different jitter");
        for (i, d) in a.iter().enumerate() {
            let nominal = 0.05 * 2f64.powi(i as i32);
            let nominal = nominal.min(5.0);
            let s = d.as_secs_f64();
            assert!(s >= nominal * 0.69 && s <= nominal * 1.31, "delay {i} = {s}s off-band");
        }
    }

    #[test]
    fn reset_restores_budget() {
        let mut b = Backoff::new(RetryPolicy::fast_test(), 3);
        while b.next_delay().is_some() {}
        assert!(b.next_delay().is_none());
        b.reset();
        assert!(b.next_delay().is_some());
    }

    #[test]
    fn none_policy_fails_fast() {
        let mut b = Backoff::new(RetryPolicy::none(), 1);
        assert!(b.next_delay().is_none());
    }
}
