//! The simulator's event queue.

use crate::pipe::VTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A queue of events that pop in `(time, push order)`.
///
/// Events due at the current time wait in a FIFO; later ones in a heap
/// keyed by `(time, push sequence)`. When the FIFO runs dry the queue
/// advances to the heap's earliest time and moves every heap entry due
/// then into the FIFO, in sequence order. Events pushed at the current
/// time after that join the FIFO behind them, which is where a single
/// `(time, sequence)` heap would pop them too: they were pushed later
/// than anything already queued for that time.
///
/// So a push at the current time and every pop of a due event cost
/// O(1); only events for a later time pay the heap's O(log n).
pub(crate) struct EventQueue<E> {
    now: VTime,
    due: VecDeque<E>,
    /// `(time, sequence, event)`; sequence numbers are unique, so the
    /// event itself never takes part in the order.
    later: BinaryHeap<Reverse<(VTime, u64, E)>>,
    seq: u64,
}

impl<E: Ord> EventQueue<E> {
    /// An empty queue at time 0.
    pub(crate) fn new() -> Self {
        Self {
            now: 0,
            due: VecDeque::new(),
            later: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Queue `ev` at `t`, which must not be in the past.
    pub(crate) fn push(&mut self, t: VTime, ev: E) {
        debug_assert!(
            t >= self.now,
            "event pushed at {t} while handling {}",
            self.now
        );
        if t == self.now {
            self.due.push_back(ev);
        } else {
            self.seq += 1;
            self.later.push(Reverse((t, self.seq, ev)));
        }
    }

    /// The next event and its time, advancing the clock if needed.
    pub(crate) fn pop(&mut self) -> Option<(VTime, E)> {
        if let Some(ev) = self.due.pop_front() {
            return Some((self.now, ev));
        }
        let Reverse((t, _, ev)) = self.later.pop()?;
        self.now = t;
        while self.later.peek().is_some_and(|Reverse(e)| e.0 == t) {
            let Reverse((_, _, next)) = self.later.pop().expect("peeked");
            self.due.push_back(next);
        }
        Some((t, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(VTime, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        for ev in [3, 1, 2] {
            q.push(0, ev);
        }
        for ev in [9, 7, 8] {
            q.push(5, ev);
        }
        assert_eq!(
            drain(&mut q),
            [(0, 3), (0, 1), (0, 2), (5, 9), (5, 7), (5, 8)]
        );
    }

    #[test]
    fn future_events_pop_in_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(30, 1);
        q.push(10, 2);
        q.push(20, 3);
        q.push(10, 4);
        q.push(30, 5);
        q.push(20, 6);
        assert_eq!(
            drain(&mut q),
            [(10, 2), (10, 4), (20, 3), (20, 6), (30, 1), (30, 5)]
        );
    }

    #[test]
    fn entries_due_at_t_pop_before_events_pushed_while_handling_t() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(10, 2);
        q.push(20, 9);
        // Handling the first event at 10 pushes two more at 10 and one
        // between 10 and 20.
        assert_eq!(q.pop(), Some((10, 1)));
        q.push(10, 3);
        q.push(15, 5);
        q.push(10, 4);
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop(), Some((10, 3)));
        // Pushed at 10 while handling 10: still after the entries that
        // were due at 10 before it.
        q.push(10, 6);
        assert_eq!(drain(&mut q), [(10, 4), (10, 6), (15, 5), (20, 9)]);
    }

    #[test]
    fn matches_a_single_time_sequence_heap() {
        // A fixed pseudo-random script of pops and pushes at or after
        // the current time, replayed against the reference order of
        // one heap keyed by (time, global push sequence).
        let mut q = EventQueue::new();
        let mut reference = std::collections::BTreeSet::new();
        let (mut seq, mut x, mut now) = (0u32, 12_345u64, 0u64);
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..2000 {
            let pushes = step() % 3;
            for _ in 0..pushes {
                let t = now + [0, 0, 1, 2, 5][(step() % 5) as usize];
                seq += 1;
                q.push(t, seq);
                reference.insert((t, seq));
            }
            if round % 3 != 0 {
                let want = reference.pop_first();
                assert_eq!(q.pop(), want);
                if let Some((t, _)) = want {
                    now = t;
                }
            }
        }
        assert_eq!(drain(&mut q), Vec::from_iter(reference));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event pushed at 4 while handling 5")]
    fn pushing_into_the_past_is_caught() {
        let mut q = EventQueue::new();
        q.push(5, 0);
        q.pop();
        q.push(4, 1);
    }
}
