//! Per-worker request-window state: the static `streamRequestSize` of
//! DDFCFS/DDWRR or the DQAA-adapted window of ODDS (paper Section 5.3.1),
//! plus the outstanding-request accounting that keeps a worker's demand at
//! its target.

use anthill_simkit::{SimDuration, SimTime};

use crate::dqaa::Dqaa;
use crate::policy::Policy;

/// Upper bound on any worker's request window, on every backend: DQAA's
/// target never grows past it and no worker keeps more requests in flight.
pub(crate) const MAX_WINDOW: usize = 256;

/// One worker's outstanding-request window.
///
/// The *target* is how many requests the worker keeps in flight: a fixed
/// `streamRequestSize` for static policies, or the [`Dqaa`] window plus a
/// batch reserve for dynamic ones (a batched GPU manager must hold the
/// in-service batch *and* the latency-hiding window).
#[derive(Debug, Clone)]
pub(crate) struct RequestWindow {
    dqaa: Dqaa,
    static_target: usize,
    dynamic: bool,
    batch_reserve: usize,
    outstanding: usize,
    starved: bool,
    /// In-flight requests by request id, in no order. There are at most
    /// [`MAX_WINDOW`] of them, so a scan beats hashing the id.
    sent: Vec<(u64, SentRequest)>,
}

/// Book-keeping for one in-flight request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SentRequest {
    /// Send time (feeds DQAA's latency estimate on settle).
    pub at: SimTime,
    /// Retry attempt: 0 for the first send, incremented per timeout resend.
    pub attempt: u32,
}

/// The exponential-backoff timeout for retry `attempt`: `base << attempt`,
/// saturating, capped at `cap`. Saturating shift/multiply keeps the
/// schedule well-defined at any attempt count and any virtual time — a
/// deadline computed from it can at worst pin to `SimTime::MAX` ("never"),
/// it can never wrap to the past.
pub(crate) fn backoff_timeout(base: SimDuration, attempt: u32, cap: SimDuration) -> SimDuration {
    let scaled = if attempt >= 64 {
        SimDuration(u64::MAX)
    } else {
        SimDuration(base.as_nanos().saturating_mul(1u64 << attempt))
    };
    scaled.min(cap)
}

impl RequestWindow {
    /// A fresh window for one worker under `policy`, with the DQAA target
    /// bounded by [`MAX_WINDOW`].
    pub(crate) fn new(policy: &Policy) -> RequestWindow {
        RequestWindow {
            dqaa: Dqaa::new(MAX_WINDOW),
            static_target: policy.request_size,
            dynamic: policy.kind.dynamic_requests(),
            batch_reserve: 0,
            outstanding: 0,
            starved: false,
            sent: Vec::new(),
        }
    }

    /// Current target window.
    pub(crate) fn target(&self) -> usize {
        if self.dynamic {
            self.dqaa.target() + self.batch_reserve
        } else {
            self.static_target
        }
    }

    /// Requests in flight (sent but not yet settled).
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// True when the worker found no reader with data and is waiting for a
    /// wake-up.
    pub(crate) fn is_starved(&self) -> bool {
        self.starved
    }

    /// Extra target slots covering an in-service batch (an async GPU
    /// manager's current stream count); ignored by static policies.
    pub(crate) fn set_batch_reserve(&mut self, slots: usize) {
        self.batch_reserve = slots;
    }

    pub(crate) fn set_starved(&mut self) {
        self.starved = true;
    }

    /// Account a request leaving at `now`.
    pub(crate) fn note_sent(&mut self, req_id: u64, now: SimTime) {
        self.outstanding += 1;
        self.starved = false;
        let first = SentRequest {
            at: now,
            attempt: 0,
        };
        self.sent.push((req_id, first));
    }

    /// Account a retry of a timed-out request under a fresh id. The window
    /// slot is still held by the original send, so `outstanding` does not
    /// move; the attempt count carries over the retry chain.
    pub(crate) fn note_resent(&mut self, req_id: u64, now: SimTime, attempt: u32) {
        self.sent.push((req_id, SentRequest { at: now, attempt }));
    }

    /// Remove and return an in-flight request without settling it (the
    /// timeout path: its round trip is *not* fed to DQAA, which must learn
    /// healthy latencies, not timeout spans). `None` when the reply won
    /// the race and already settled.
    pub(crate) fn take_sent(&mut self, req_id: u64) -> Option<SentRequest> {
        let i = self.sent.iter().position(|&(id, _)| id == req_id)?;
        Some(self.sent.swap_remove(i).1)
    }

    /// Settle the round-trip of `req_id` at `now`, feeding DQAA's latency
    /// estimate. `None` for unknown ids (e.g. the drivers' kick events).
    pub(crate) fn settle_latency(&mut self, req_id: u64, now: SimTime) -> Option<SimDuration> {
        let lat = now.since(self.take_sent(req_id)?.at);
        self.dqaa.observe_latency(lat);
        Some(lat)
    }

    /// Release one outstanding slot (its buffer was consumed or the reply
    /// was empty).
    pub(crate) fn release_slot(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Feed one processed-buffer duration into DQAA; returns the new DQAA
    /// target.
    pub(crate) fn observe_processing(&mut self, dt: SimDuration) -> usize {
        self.dqaa.observe_processing(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn static_policies_keep_a_fixed_target() {
        let mut w = RequestWindow::new(&Policy::ddwrr(7));
        assert_eq!(w.target(), 7);
        w.note_sent(0, SimTime::ZERO);
        w.settle_latency(0, SimTime(ms(10).as_nanos()));
        w.observe_processing(ms(1));
        assert_eq!(w.target(), 7, "DQAA must not move a static window");
        w.set_batch_reserve(4);
        assert_eq!(
            w.target(),
            7,
            "batch reserve only applies to dynamic windows"
        );
    }

    #[test]
    fn dynamic_window_adapts_and_adds_the_batch_reserve() {
        let mut w = RequestWindow::new(&Policy::odds());
        assert_eq!(w.target(), 1);
        for id in 0..10 {
            w.note_sent(id, SimTime::ZERO);
            w.settle_latency(id, SimTime(ms(10).as_nanos()));
            w.observe_processing(ms(2));
        }
        assert_eq!(w.target(), 5, "latency/processing ratio of 5");
        w.set_batch_reserve(3);
        assert_eq!(w.target(), 8);
    }

    #[test]
    fn outstanding_accounting_round_trips() {
        let mut w = RequestWindow::new(&Policy::ddfcfs(2));
        w.note_sent(11, SimTime(5));
        assert_eq!(w.outstanding(), 1);
        assert!(w.settle_latency(11, SimTime(9)).is_some());
        assert!(
            w.settle_latency(u64::MAX, SimTime(9)).is_none(),
            "unknown ids (kicks) settle nothing"
        );
        w.release_slot();
        assert_eq!(w.outstanding(), 0);
        w.release_slot();
        assert_eq!(w.outstanding(), 0, "release saturates at zero");
    }

    #[test]
    fn backoff_doubles_until_the_cap() {
        let base = ms(500);
        let cap = SimDuration::from_secs(8);
        assert_eq!(backoff_timeout(base, 0, cap), ms(500));
        assert_eq!(backoff_timeout(base, 1, cap), ms(1_000));
        assert_eq!(backoff_timeout(base, 2, cap), ms(2_000));
        assert_eq!(backoff_timeout(base, 4, cap), ms(8_000));
        assert_eq!(backoff_timeout(base, 5, cap), cap, "capped");
        assert_eq!(backoff_timeout(base, 63, cap), cap, "still capped");
    }

    #[test]
    fn backoff_saturates_at_extreme_attempts_and_times() {
        // Shift counts past u64 width and near-MAX bases must saturate,
        // never wrap: a deadline computed from the result can only pin to
        // SimTime::MAX ("never"), not land in the past.
        let huge = SimDuration(u64::MAX);
        assert_eq!(backoff_timeout(ms(500), 64, huge), huge);
        assert_eq!(backoff_timeout(ms(500), u32::MAX, huge), huge);
        assert_eq!(backoff_timeout(huge, 3, huge), huge);
        assert_eq!(backoff_timeout(SimDuration::ZERO, 70, huge), huge);
        let deadline = SimTime::MAX + backoff_timeout(ms(500), 9, huge);
        assert_eq!(deadline, SimTime::MAX, "deadline addition saturates");
    }

    #[test]
    fn resend_keeps_the_slot_and_carries_the_attempt() {
        let mut w = RequestWindow::new(&Policy::ddfcfs(4));
        w.note_sent(1, SimTime(10));
        assert_eq!(w.outstanding(), 1);
        let first = w.take_sent(1).expect("in flight");
        assert_eq!(first.attempt, 0);
        assert_eq!(w.outstanding(), 1, "timeout takeover keeps the slot");
        w.note_resent(2, SimTime(20), first.attempt + 1);
        assert_eq!(w.outstanding(), 1, "a resend does not grow the window");
        assert_eq!(w.take_sent(2).expect("resent").attempt, 1);
        assert!(w.take_sent(1).is_none(), "old id is gone");
        assert!(w.take_sent(2).is_none(), "taking twice settles nothing");
    }

    #[test]
    fn a_full_window_settles_in_any_order() {
        let mut w = RequestWindow::new(&Policy::odds());
        for id in 0..MAX_WINDOW as u64 {
            w.note_sent(id, SimTime(id));
        }
        assert_eq!(w.outstanding(), MAX_WINDOW);
        for id in (0..MAX_WINDOW as u64).rev() {
            let lat = w.settle_latency(id, SimTime(1_000)).expect("in flight");
            assert_eq!(lat, SimDuration(1_000 - id), "each id keeps its send time");
            assert!(w.take_sent(id).is_none(), "settled once");
            w.release_slot();
        }
        assert_eq!(w.outstanding(), 0);
        assert!(w.sent.is_empty());
    }

    #[test]
    fn settled_requests_win_the_race_against_their_timeout() {
        let mut w = RequestWindow::new(&Policy::ddfcfs(4));
        w.note_sent(5, SimTime(0));
        assert!(w.settle_latency(5, SimTime(100)).is_some());
        assert!(
            w.take_sent(5).is_none(),
            "a late timeout for a settled request must be a no-op"
        );
    }

    #[test]
    fn starvation_clears_on_send() {
        let mut w = RequestWindow::new(&Policy::odds());
        w.set_starved();
        assert!(w.is_starved());
        w.note_sent(0, SimTime::ZERO);
        assert!(!w.is_starved());
    }
}
