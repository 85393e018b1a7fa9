//! Offline shim for the `parking_lot` crate: the API subset this workspace
//! uses (`Mutex`, `Condvar`), implemented over `std::sync`.
//!
//! Differences from std are papered over to match parking_lot semantics:
//! no lock poisoning (a poisoned std lock is recovered transparently) and
//! `Condvar::wait` takes the guard by `&mut` instead of by value.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion lock (parking_lot-style: `lock()` returns the guard
/// directly, never a poison error).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard holds the lock")
    }
}

/// Outcome of a [`Condvar::wait_for`] call (parking_lot-compatible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`] (parking_lot-style
/// `wait(&mut guard)` signature).
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Block until notified; the guard is released while waiting and
    /// re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard holds the lock");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Block until notified or the timeout elapses; the guard is released
    /// while waiting and re-acquired before returning. Returns a result
    /// whose [`WaitTimeoutResult::timed_out`] reports which happened.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard holds the lock");
        let (inner, result) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r)
            }
        };
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_coordinate_threads() {
        let m = Arc::new(Mutex::new(0u32));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            while *g == 0 {
                cv2.wait(&mut g);
            }
            *g
        });
        *m.lock() = 7;
        cv.notify_all();
        assert_eq!(h.join().unwrap(), 7);
    }
}
