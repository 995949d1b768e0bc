//! Per-device circuit breaker.
//!
//! The failover path makes a single device loss cheap, but a device
//! that fails *every other quantum* (flaky link, marginal board) would
//! keep soaking up dispatches, failing them, and forcing restores. The
//! breaker watches a sliding window of per-quantum outcomes and takes
//! the device out of rotation once the failure rate crosses a
//! threshold. After a cooldown it admits exactly one probe quantum
//! (half-open); a clean probe closes the breaker, a failed probe
//! re-opens it with a doubled cooldown.
//!
//! All decisions are pure functions of the recorded outcome sequence
//! and the simulated clock — no wall-clock anywhere.

use gpsim::SimTime;

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Sliding window length, in recorded quanta.
    pub window: usize,
    /// Open when `failures / window >= threshold` with a full window.
    pub threshold: f64,
    /// Initial cooldown before the first half-open probe; doubles on
    /// every failed probe.
    pub cooldown: SimTime,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            threshold: 0.5,
            cooldown: SimTime::from_ms(2),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Healthy: all dispatches admitted.
    Closed,
    /// Tripped: no dispatches until the cooldown passes; the first
    /// dispatch after it is the half-open probe.
    Open { until: SimTime },
    /// A probe quantum is in flight; its outcome decides.
    HalfOpen,
}

/// The breaker for one device.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: State,
    /// Ring buffer of recent outcomes (true = quantum failed).
    recent: Vec<bool>,
    next_slot: usize,
    filled: usize,
    /// Current cooldown (doubles per consecutive failed probe).
    backoff: SimTime,
    /// Times the breaker has opened (reported).
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with `cfg`.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        assert!(cfg.window > 0, "breaker window must be non-empty");
        assert!(
            cfg.threshold > 0.0 && cfg.threshold <= 1.0,
            "breaker threshold must be in (0, 1]"
        );
        CircuitBreaker {
            cfg,
            state: State::Closed,
            recent: vec![false; cfg.window],
            next_slot: 0,
            filled: 0,
            backoff: cfg.cooldown,
            trips: 0,
        }
    }

    /// Whether a dispatch to this device is admitted at `now`. An
    /// expired `Open` admits (that dispatch becomes the half-open
    /// probe); this is a pure query — state moves in [`record`].
    ///
    /// [`record`]: CircuitBreaker::record
    pub fn admits(&self, now: SimTime) -> bool {
        match self.state {
            State::Closed | State::HalfOpen => true,
            State::Open { until } => now >= until,
        }
    }

    /// Earliest time a dispatch could be admitted, if currently open.
    pub fn retry_at(&self) -> Option<SimTime> {
        match self.state {
            State::Open { until } => Some(until),
            _ => None,
        }
    }

    /// Record the outcome of a dispatched quantum ending at `now`
    /// (`ok = false` for a device loss, hang escalation or any fault
    /// that killed the quantum).
    pub fn record(&mut self, now: SimTime, ok: bool) {
        // A dispatch that went out while Open (past its cooldown) was
        // the half-open probe, even if nobody called a transition.
        let probing = matches!(self.state, State::HalfOpen)
            || matches!(self.state, State::Open { until } if now >= until);
        self.recent[self.next_slot] = !ok;
        self.next_slot = (self.next_slot + 1) % self.cfg.window;
        self.filled = (self.filled + 1).min(self.cfg.window);
        if probing {
            if ok {
                // Healthy again: close and forget the failure history.
                self.state = State::Closed;
                self.backoff = self.cfg.cooldown;
                self.recent.fill(false);
                self.filled = 0;
            } else {
                self.trips += 1;
                self.state = State::Open {
                    until: now + self.backoff,
                };
                self.backoff = self.backoff + self.backoff;
            }
            return;
        }
        if !ok && self.filled == self.cfg.window {
            let failures = self.recent.iter().filter(|&&f| f).count();
            if failures as f64 >= self.cfg.threshold * self.cfg.window as f64 {
                self.trips += 1;
                self.state = State::Open {
                    until: now + self.backoff,
                };
                self.backoff = self.backoff + self.backoff;
            }
        }
    }

    /// Mark the in-flight dispatch as the half-open probe (call when
    /// dispatching to a device whose cooldown just expired).
    pub fn begin_probe(&mut self) {
        if matches!(self.state, State::Open { .. }) {
            self.state = State::HalfOpen;
        }
    }

    /// Whether the breaker currently blocks dispatch (open, cooldown
    /// not yet expired is still "open" until a probe succeeds).
    pub fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. })
    }

    /// Times this breaker has opened.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            threshold: 0.5,
            cooldown: SimTime::from_ms(1),
        }
    }

    #[test]
    fn opens_at_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        let t = SimTime::from_us(10);
        // 2 failures in a window of 4 hits the 0.5 threshold.
        b.record(t, true);
        b.record(t, false);
        b.record(t, true);
        assert!(b.admits(t), "below threshold stays closed");
        b.record(t, false);
        assert!(b.is_open());
        assert!(!b.admits(t), "cooldown blocks dispatch");
        assert_eq!(b.trips(), 1);
        let later = t + SimTime::from_ms(1);
        assert!(b.admits(later), "expired cooldown admits the probe");
    }

    #[test]
    fn clean_probe_closes_failed_probe_doubles_backoff() {
        let mut b = CircuitBreaker::new(cfg());
        let t = SimTime::ZERO;
        for _ in 0..4 {
            b.record(t, false);
        }
        assert!(b.is_open());
        // Failed probe: re-open with doubled cooldown.
        let p1 = t + SimTime::from_ms(1);
        b.begin_probe();
        b.record(p1, false);
        assert!(b.is_open());
        assert!(
            !b.admits(p1 + SimTime::from_ms(1)),
            "backoff doubled to 2ms"
        );
        assert!(b.admits(p1 + SimTime::from_ms(2)));
        assert_eq!(b.trips(), 2);
        // Clean probe: fully closed, history cleared.
        let p2 = p1 + SimTime::from_ms(2);
        b.begin_probe();
        b.record(p2, true);
        assert!(!b.is_open());
        // One fresh failure must not instantly re-open (window reset).
        b.record(p2, false);
        assert!(!b.is_open());
    }

    #[test]
    fn probe_outcome_applies_even_without_begin_probe() {
        // The serial server may dispatch straight off an expired Open
        // without an explicit transition call; record() must still
        // treat that outcome as the probe's.
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..4 {
            b.record(SimTime::ZERO, false);
        }
        let after = SimTime::from_ms(1);
        assert!(b.admits(after));
        b.record(after, true);
        assert!(!b.is_open(), "clean probe closes");
    }
}
