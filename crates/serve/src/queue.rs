//! Bounded MPMC request queue.
//!
//! The event loop pushes one item per parsed request, and a worker
//! blocks on [`BatchQueue::pop_wait`] for the next one and answers it
//! whole. The queue is bounded: a full queue refuses the push and hands
//! the item back (the server answers it with HTTP 503) instead of
//! buffering unboundedly.

use std::collections::VecDeque;
use std::sync::Condvar;

use explainti_sync::{classes, OrderedMutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer FIFO queue.
pub struct BatchQueue<T> {
    inner: OrderedMutex<Inner<T>>,
    available: Condvar,
    cap: usize,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: OrderedMutex::new(
                &classes::SERVE_QUEUE_BATCH,
                Inner { items: VecDeque::new(), closed: false },
            ),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues one item, waking a waiting consumer. Fails fast (no
    /// blocking) when the queue is full or closed, handing the item back.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock();
        if inner.closed || inner.items.len() >= self.cap {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (or the queue closes) and takes
    /// the oldest. Returns `None` only when the queue is closed *and*
    /// fully drained — the consumer's signal to exit.
    pub fn pop_wait(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = inner.wait(&self.available);
        }
    }

    /// Closes the queue: pushes fail from now on, and consumers drain
    /// what remains before [`Self::pop_wait`] returns `None`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_fifo_order() {
        let q = BatchQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop_wait(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_push() {
        let q = BatchQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        // Draining frees capacity again.
        q.pop_wait().unwrap();
        q.try_push(3).unwrap();
    }

    #[test]
    fn closed_queue_rejects_push_and_drains() {
        let q = BatchQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(8));
        assert_eq!(q.pop_wait(), Some(7));
        assert!(q.pop_wait().is_none());
    }

    #[test]
    fn pop_blocks_until_producer_arrives() {
        let q = Arc::new(BatchQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        std::thread::sleep(Duration::from_millis(30));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn concurrent_producers_and_consumers_see_every_item() {
        let q = Arc::new(BatchQueue::new(64));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop_wait() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let mut v = p * 100 + i;
                        while let Err(back) = q.try_push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expected: Vec<u32> =
            (0..4).flat_map(|p| (0..25).map(move |i| p * 100 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
