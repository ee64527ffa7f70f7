//! Bounded MPMC work queue with rejecting push.
//!
//! The TCP door's backlog of accepted connections ([`crate::net`]): the
//! queue never grows past its capacity, so a burst cannot convert into
//! unbounded memory and unbounded latency. Producers that find it full
//! are *rejected synchronously* (backpressure) rather than blocked — the
//! caller turns that into [`qpp::QppError::Overloaded`] and the client
//! backs off. Consumers block efficiently on a condvar and drain in FIFO
//! order. (Prediction requests queue per tenant, in
//! [`crate::tenant::WeightedFairQueue`].)

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue was at capacity; the item is handed back along with the
    /// depth observed at rejection.
    Full(T, usize),
    /// The queue was closed for shutdown; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push: enqueues and returns the depth after the push,
    /// or rejects when full/closed. Never waits — admission latency stays
    /// flat even under overload.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            let depth = inner.items.len();
            return Err(PushError::Full(item, depth));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocking pop: waits until an item is available or the queue is
    /// closed *and* drained, in which case `None` signals shutdown.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Closes the queue: subsequent pushes are rejected, blocked
    /// consumers drain what is left and then observe shutdown.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity_rejection() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.try_push(3).unwrap(), 3);
        match q.try_push(4) {
            Err(PushError::Full(item, depth)) => {
                assert_eq!(item, 4);
                assert_eq!(depth, 3);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(2));
        // Space freed: push succeeds again.
        assert_eq!(q.try_push(5).unwrap(), 2);
        assert_eq!(q.pop_blocking(), Some(3));
        assert_eq!(q.pop_blocking(), Some(5));
    }

    #[test]
    fn close_wakes_blocked_consumers_and_rejects_producers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_blocking())
        };
        // Give the consumer a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        match q.try_push(9) {
            Err(PushError::Closed(9)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_remaining_items_before_shutdown() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(2));
        assert_eq!(q.pop_blocking(), None);
    }
}
