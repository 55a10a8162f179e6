//! The server's one queue: a bounded per-tenant fair queue.
//!
//! `std::sync::mpsc` has no bounded non-blocking push and no way to
//! pull *matching* entries out of the middle, so the server uses this
//! small `Mutex` + `Condvar` queue instead:
//!
//! * [`try_push`](FairQueue::try_push) never blocks — a full lane hands
//!   the item back so the caller can answer `overloaded` (backpressure
//!   is a *response*, not a stalled connection);
//! * [`drain_matching`](FairQueue::drain_matching) lets a worker
//!   coalesce same-channel `set_delay` requests into one solve;
//! * [`close`](FairQueue::close) + `pop → None` gives the graceful
//!   drain: workers finish everything queued, then exit.
//!
//! Items are segregated into per-key *lanes* (one per tenant) drained
//! round robin, so one hot tenant fills only its own slice of the shared
//! capacity budget and cannot starve the others (DESIGN.md §14).

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// A bounded fair queue: items are segregated into per-key lanes (the
/// server keys lanes by tenant hash) and drained round robin, one item
/// per lane per turn.
///
/// Capacity is **per lane** — that is each tenant's whole slice, so a
/// hot tenant draws `overloaded` from its own full lane while everyone
/// else still has room. All methods are `&self`; share behind an `Arc`.
#[derive(Debug)]
pub struct FairQueue<T> {
    inner: Mutex<FairInner<T>>,
    ready: Condvar,
    lane_capacity: usize,
}

#[derive(Debug)]
struct FairInner<T> {
    lanes: HashMap<u64, VecDeque<T>>,
    /// Rotation order over non-empty lanes. Invariant: `active` holds
    /// exactly the keys of `lanes`, each once, and every lane in
    /// `lanes` is non-empty.
    active: VecDeque<u64>,
    total: usize,
    closed: bool,
}

impl<T> FairQueue<T> {
    /// A fair queue whose lanes each hold at most `lane_capacity` items
    /// (clamped to ≥ 1).
    pub fn new(lane_capacity: usize) -> Self {
        FairQueue {
            inner: Mutex::new(FairInner {
                lanes: HashMap::new(),
                active: VecDeque::new(),
                total: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            lane_capacity: lane_capacity.max(1),
        }
    }

    /// The per-lane capacity the queue was built with.
    pub fn lane_capacity(&self) -> usize {
        self.lane_capacity
    }

    /// Items currently queued across every lane.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).total
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push into `key`'s lane. Returns the item back when
    /// that lane is full or the queue is closed, so the producer can
    /// answer `overloaded` — other tenants' lanes are unaffected.
    pub fn try_push(&self, key: u64, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(item);
        }
        let lane = inner.lanes.entry(key).or_default();
        if lane.len() >= self.lane_capacity {
            return Err(item);
        }
        let was_empty = lane.is_empty();
        lane.push_back(item);
        inner.total += 1;
        if was_empty {
            inner.active.push_back(key);
        }
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking round-robin pop: one item from the head lane, which then
    /// rotates to the back (or leaves the rotation once empty). Returns
    /// `None` only once the queue is closed *and* every lane is empty.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(&key) = inner.active.front() {
                let lane = inner.lanes.get_mut(&key).expect("active lane exists");
                let item = lane.pop_front().expect("active lane is non-empty");
                let lane_empty = lane.is_empty();
                inner.total -= 1;
                if lane_empty {
                    inner.lanes.remove(&key);
                    inner.active.pop_front();
                } else {
                    inner.active.rotate_left(1);
                }
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Removes and returns every item in `key`'s lane matching `pred`,
    /// preserving arrival order. Batching stays lane-local: a worker
    /// coalescing one tenant's same-channel solves never steals another
    /// tenant's queued work.
    pub fn drain_matching(&self, key: u64, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(lane) = inner.lanes.get_mut(&key) else {
            return Vec::new();
        };
        let mut kept = VecDeque::with_capacity(lane.len());
        let mut taken = Vec::new();
        for item in lane.drain(..) {
            if pred(&item) {
                taken.push(item);
            } else {
                kept.push_back(item);
            }
        }
        *lane = kept;
        let lane_empty = lane.is_empty();
        inner.total -= taken.len();
        if lane_empty {
            inner.lanes.remove(&key);
            inner.active.retain(|&k| k != key);
        }
        taken
    }

    /// Closes the queue: further pushes fail, pops drain the remainder
    /// then return `None`. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fair_queue_interleaves_a_hot_lane_with_a_quiet_one() {
        let q = FairQueue::new(16);
        // Tenant 1 bursts eight jobs before tenant 2 queues two.
        for i in 0..8 {
            q.try_push(1, (1, i)).unwrap();
        }
        for i in 0..2 {
            q.try_push(2, (2, i)).unwrap();
        }
        // Round robin alternates lanes; the quiet tenant's two jobs come
        // out in positions 2 and 4, not 9 and 10 as FIFO would place them.
        let order: Vec<_> = (0..10).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order[1], (2, 0));
        assert_eq!(order[3], (2, 1));
        let lane1: Vec<_> = order.iter().filter(|(t, _)| *t == 1).collect();
        assert_eq!(lane1.len(), 8, "per-lane FIFO order survives");
        assert!(lane1.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn fair_queue_capacity_is_per_lane() {
        let q = FairQueue::new(2);
        assert!(q.try_push(1, "a").is_ok());
        assert!(q.try_push(1, "b").is_ok());
        // Lane 1 is full — but lane 2 still has its own slice.
        assert_eq!(q.try_push(1, "c"), Err("c"));
        assert!(q.try_push(2, "d").is_ok());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn fair_queue_drain_matching_is_lane_local() {
        let q = FairQueue::new(8);
        q.try_push(1, 10).unwrap();
        q.try_push(1, 11).unwrap();
        q.try_push(2, 12).unwrap();
        // Draining lane 1's even items must not touch lane 2's 12.
        assert_eq!(q.drain_matching(1, |&v| v % 2 == 0), vec![10]);
        assert_eq!(q.len(), 2);
        let rest: Vec<_> = (0..2).map(|_| q.pop().unwrap()).collect();
        assert!(rest.contains(&11) && rest.contains(&12));
    }

    #[test]
    fn drain_matching_preserves_order_of_both_halves() {
        // Several matches in one lane: both halves keep arrival order,
        // which batching's last-write-wins depends on.
        let q = FairQueue::new(8);
        for i in 0..6 {
            q.try_push(3, i).unwrap();
        }
        assert_eq!(q.drain_matching(3, |&i| i % 2 == 0), vec![0, 2, 4]);
        let kept: Vec<_> = (0..3).map(|_| q.pop().unwrap()).collect();
        assert_eq!(kept, vec![1, 3, 5]);
    }

    #[test]
    fn fair_queue_close_drains_every_lane_then_ends() {
        let q = Arc::new(FairQueue::new(4));
        q.try_push(7, 1).unwrap();
        q.try_push(8, 2).unwrap();
        q.close();
        assert_eq!(q.try_push(9, 3), Err(3));
        let mut drained = vec![q.pop().unwrap(), q.pop().unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(q.pop(), None);

        let q2 = Arc::new(FairQueue::<u32>::new(4));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
