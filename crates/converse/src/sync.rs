//! Termination for message-driven applications: a completion latch that
//! chares count down and the driver waits on.

use parking_lot::{Condvar, Mutex};

/// Counts down from `n`; `wait` blocks until zero. Chares call
/// `count_down` when they finish their last iteration, the driver waits.
pub struct CompletionLatch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl CompletionLatch {
    /// A latch expecting `n` completions.
    pub fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    /// Record one completion.
    pub fn count_down(&self) {
        let mut r = self.remaining.lock();
        assert!(*r > 0, "latch counted down past zero");
        *r -= 1;
        if *r == 0 {
            self.cv.notify_all();
        }
    }

    /// Remaining count.
    pub fn remaining(&self) -> usize {
        *self.remaining.lock()
    }

    /// Block until the count reaches zero.
    pub fn wait(&self) {
        let mut r = self.remaining.lock();
        while *r > 0 {
            self.cv.wait(&mut r);
        }
    }

    /// Block until zero or `timeout_ms` elapses; true if completed.
    pub fn wait_timeout_ms(&self, timeout_ms: u64) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
        let mut r = self.remaining.lock();
        while *r > 0 {
            if self.cv.wait_until(&mut r, deadline).timed_out() {
                return *r == 0;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn latch_counts_to_zero() {
        let l = CompletionLatch::new(2);
        assert_eq!(l.remaining(), 2);
        l.count_down();
        l.count_down();
        l.wait(); // returns immediately
        assert_eq!(l.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "past zero")]
    fn latch_overflow_panics() {
        let l = CompletionLatch::new(0);
        l.count_down();
    }

    #[test]
    fn latch_wakes_waiter() {
        let l = Arc::new(CompletionLatch::new(1));
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || l2.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        l.count_down();
        h.join().unwrap();
    }

    #[test]
    fn latch_timeout_reports_false() {
        let l = CompletionLatch::new(1);
        assert!(!l.wait_timeout_ms(20));
        l.count_down();
        assert!(l.wait_timeout_ms(20));
    }
}
