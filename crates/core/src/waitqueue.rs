//! Wait queues: tasks whose data is not yet in HBM.
//!
//! "We use two queues types: wait queues and run queues. ... The wait
//! queue contains tasks that need data to be prefetched and the run
//! queue contains tasks that are ready to be scheduled by the Converse
//! scheduler." (§IV-B). The run queues live in `converse`; this module
//! is the wait side, in both the paper's per-PE layout and the
//! single-shared-queue layout it argues against (kept as ablation A1).

use crate::config::WaitQueueTopology;
use crate::task::OocTask;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// A set of FIFO wait queues plus the condition variable IO threads
/// sleep on.
pub struct WaitQueues {
    topology: WaitQueueTopology,
    queues: Vec<Mutex<VecDeque<OocTask>>>,
    /// One condvar per IO-thread signal group; signalled on enqueue and
    /// on eviction (both can unblock an IO thread).
    signals: Vec<(Mutex<u64>, Condvar)>,
    shutdown: std::sync::atomic::AtomicBool,
}

impl WaitQueues {
    /// Build queues for `pes` PEs and `signal_groups` IO threads.
    pub fn new(topology: WaitQueueTopology, pes: usize, signal_groups: usize) -> Self {
        let nqueues = match topology {
            WaitQueueTopology::PerPe => pes,
            WaitQueueTopology::SharedSingle => 1,
        };
        Self {
            topology,
            queues: (0..nqueues).map(|_| Mutex::new(VecDeque::new())).collect(),
            signals: (0..signal_groups.max(1))
                .map(|_| (Mutex::new(0), Condvar::new()))
                .collect(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Number of wait queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The queue index a task for `pe` belongs to.
    pub fn queue_for_pe(&self, pe: usize) -> usize {
        match self.topology {
            WaitQueueTopology::PerPe => pe,
            WaitQueueTopology::SharedSingle => 0,
        }
    }

    /// Enqueue a task at the back of its PE's wait queue.
    pub fn push(&self, task: OocTask) {
        let q = self.queue_for_pe(task.pe);
        self.queues[q].lock().push_back(task);
    }

    /// Put a task back at the front (its fetch found no space; it keeps
    /// its FIFO position).
    pub fn push_front(&self, task: OocTask) {
        let q = self.queue_for_pe(task.pe);
        self.queues[q].lock().push_front(task);
    }

    /// Pop the head of queue `q`.
    pub fn pop(&self, q: usize) -> Option<OocTask> {
        self.queues[q].lock().pop_front()
    }

    /// Tasks currently waiting across all queues.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.lock().len()).sum()
    }

    /// True if no tasks are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wake the IO thread responsible for signal group `group`.
    pub fn signal(&self, group: usize) {
        let (lock, cv) = &self.signals[group % self.signals.len()];
        let mut gen = lock.lock();
        *gen += 1;
        drop(gen);
        cv.notify_all();
    }

    /// Wake every IO thread.
    pub fn signal_all(&self) {
        for g in 0..self.signals.len() {
            self.signal(g);
        }
    }

    /// Sleep until the group's signal generation moves past `seen`,
    /// shutdown, or `timeout_ms` passes. Returns the generation then.
    /// The timeout is a liveness backstop: even if a wake-up signal is
    /// lost to a race, IO threads re-examine their queues periodically.
    pub fn wait_signal_timeout(&self, group: usize, seen: u64, timeout_ms: u64) -> u64 {
        let (lock, cv) = &self.signals[group % self.signals.len()];
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
        let mut gen = lock.lock();
        while *gen == seen && !self.is_shutdown() {
            if cv.wait_until(&mut gen, deadline).timed_out() {
                break;
            }
        }
        *gen
    }

    /// Current signal generation for `group`.
    pub fn signal_generation(&self, group: usize) -> u64 {
        *self.signals[group % self.signals.len()].0.lock()
    }

    /// Tell IO threads to exit.
    pub fn shutdown(&self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.signal_all();
    }

    /// True once shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converse::{ArrayId, EntryId, Envelope};

    fn task(pe: usize, tag: usize) -> OocTask {
        OocTask {
            env: Envelope::new(ArrayId(0), tag, EntryId(0), Box::new(())),
            deps: vec![],
            pe,
            enqueued_at: 0,
        }
    }

    #[test]
    fn per_pe_topology_separates_queues() {
        let wq = WaitQueues::new(WaitQueueTopology::PerPe, 4, 4);
        assert_eq!(wq.queue_count(), 4);
        wq.push(task(0, 1));
        wq.push(task(2, 2));
        assert_eq!(wq.len(), 2);
        assert!(wq.pop(1).is_none() && wq.pop(3).is_none());
        assert_eq!(wq.pop(0).unwrap().env.index, 1);
        assert!(wq.pop(0).is_none());
        assert_eq!(wq.pop(2).unwrap().env.index, 2);
    }

    #[test]
    fn shared_topology_uses_one_queue() {
        let wq = WaitQueues::new(WaitQueueTopology::SharedSingle, 4, 1);
        assert_eq!(wq.queue_count(), 1);
        for pe in 0..4 {
            wq.push(task(pe, pe));
        }
        assert_eq!(wq.len(), 4);
        assert_eq!(wq.queue_for_pe(3), 0);
        // FIFO across all PEs.
        let order: Vec<usize> = (0..4).map(|_| wq.pop(0).unwrap().pe).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn push_front_preserves_head_position() {
        let wq = WaitQueues::new(WaitQueueTopology::PerPe, 1, 1);
        wq.push(task(0, 1));
        wq.push(task(0, 2));
        let head = wq.pop(0).unwrap();
        wq.push_front(head);
        assert_eq!(wq.pop(0).unwrap().env.index, 1);
    }

    #[test]
    fn signals_wake_waiters() {
        let wq = std::sync::Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 2, 2));
        let seen = wq.signal_generation(1);
        let wq2 = std::sync::Arc::clone(&wq);
        let h = std::thread::spawn(move || wq2.wait_signal_timeout(1, seen, 60_000));
        std::thread::sleep(std::time::Duration::from_millis(10));
        wq.signal(1);
        assert_eq!(h.join().unwrap(), seen + 1);
    }

    #[test]
    fn shutdown_unblocks_waiters() {
        let wq = std::sync::Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 1, 1));
        let seen = wq.signal_generation(0);
        let wq2 = std::sync::Arc::clone(&wq);
        let h = std::thread::spawn(move || {
            wq2.wait_signal_timeout(0, seen, 60_000);
            wq2.is_shutdown()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        wq.shutdown();
        assert!(h.join().unwrap());
    }
}
