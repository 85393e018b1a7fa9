//! Time sources for the scheduling engine.
//!
//! The engine stamps every decision — request send times, trace events,
//! utilization transitions — through a [`Clock`] supplied by the driver.
//! The DES driver advances a `VirtualClock` to each event's virtual
//! time; the sequential reference driver ticks it once per message; the
//! TCP wall-clock coordinator sets it to the time its shell read for each
//! input.

use std::cell::Cell;
use std::rc::Rc;

use anthill_simkit::SimTime;

/// A monotonic time source the engine reads whenever it needs "now".
pub trait Clock {
    /// The current time.
    fn now(&self) -> SimTime;
}

/// A clock set explicitly by the driver. Cloning shares the underlying
/// cell, so the driver keeps one handle and the engine another.
#[derive(Debug, Clone)]
pub(crate) struct VirtualClock(Rc<Cell<SimTime>>);

impl VirtualClock {
    /// A virtual clock starting at time zero.
    pub(crate) fn new() -> VirtualClock {
        VirtualClock(Rc::new(Cell::new(SimTime::ZERO)))
    }

    /// Move the clock to `t` (the virtual time of the event being handled).
    pub(crate) fn set(&self, t: SimTime) {
        self.0.set(t);
    }
}

impl Default for VirtualClock {
    fn default() -> VirtualClock {
        VirtualClock::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_shared_between_clones() {
        let a = VirtualClock::new();
        let b = a.clone();
        assert_eq!(b.now(), SimTime::ZERO);
        a.set(SimTime(42));
        assert_eq!(b.now(), SimTime(42));
    }

    #[test]
    fn timeout_deadlines_saturate_at_extreme_virtual_times() {
        // The engine computes timeout fire times as `clock.now() + span`.
        // Near the end of representable virtual time the deadline must pin
        // to SimTime::MAX ("never") rather than wrap into the past, which
        // would fire a timeout retroactively and retry a healthy request.
        use anthill_simkit::SimDuration;
        let clock = VirtualClock::new();
        clock.set(SimTime(u64::MAX - 10));
        let deadline = clock.now() + SimDuration::from_millis(500);
        assert_eq!(deadline, SimTime::MAX);
        assert!(deadline >= clock.now(), "deadline never precedes now");
        clock.set(SimTime::MAX);
        assert_eq!(clock.now() + SimDuration(u64::MAX), SimTime::MAX);
        assert_eq!(
            clock.now().since(SimTime::MAX),
            SimDuration::ZERO,
            "elapsed time saturates at zero, never underflows"
        );
    }
}
