//! Bounded MPMC queue, used as the server's pool of forward permits.
//!
//! The server fills a `BatchQueue<()>` with one item per `--workers`
//! permit. A connection thread blocks on [`BatchQueue::pop_wait`] for a
//! permit before it runs a forward and pushes the permit back after, so
//! at most `workers` forwards run at once while cache hits, GETs and
//! errors never wait. The queue is bounded: a full queue refuses the
//! push and hands the item back instead of buffering unboundedly.

use std::collections::VecDeque;
use std::sync::Condvar;

use explainti_sync::{classes, OrderedMutex};

/// A bounded multi-producer/multi-consumer FIFO queue.
pub struct BatchQueue<T> {
    items: OrderedMutex<VecDeque<T>>,
    available: Condvar,
    cap: usize,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self {
            items: OrderedMutex::new(&classes::SERVE_QUEUE_BATCH, VecDeque::new()),
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
        self.items.lock().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues one item, waking a waiting consumer. Fails fast (no
    /// blocking) when the queue is full, handing the item back.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut items = self.items.lock();
        if items.len() >= self.cap {
            return Err(item);
        }
        items.push_back(item);
        drop(items);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and takes the oldest.
    pub fn pop_wait(&self) -> T {
        let mut items = self.items.lock();
        loop {
            if let Some(item) = items.pop_front() {
                return item;
            }
            items = items.wait(&self.available);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_fifo_order() {
        let q = BatchQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop_wait(), i);
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
        q.pop_wait();
        q.try_push(3).unwrap();
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
        assert_eq!(consumer.join().unwrap(), 42);
    }

    #[test]
    fn concurrent_producers_and_consumers_see_every_item() {
        let q = Arc::new(BatchQueue::new(64));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || (0..25).map(|_| q.pop_wait()).collect::<Vec<u32>>())
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
        let mut all: Vec<u32> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expected: Vec<u32> =
            (0..4).flat_map(|p| (0..25).map(move |i| p * 100 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn a_permit_pool_bounds_concurrent_holders() {
        const PERMITS: usize = 2;
        let pool = Arc::new(BatchQueue::new(PERMITS));
        for _ in 0..PERMITS {
            pool.try_push(()).unwrap();
        }
        let holding = Arc::new(AtomicUsize::new(0));
        let most = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let (pool, holding, most) =
                    (Arc::clone(&pool), Arc::clone(&holding), Arc::clone(&most));
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        pool.pop_wait();
                        let now = holding.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        holding.fetch_sub(1, Ordering::SeqCst);
                        pool.try_push(()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(most.load(Ordering::SeqCst) <= PERMITS, "more holders than permits");
        assert_eq!(pool.len(), PERMITS, "every permit came back");
    }
}
