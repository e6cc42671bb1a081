//! A bounded MPMC queue with non-blocking backpressure and cooperative
//! shutdown.
//!
//! This is the request queue of the serving front-end: producers observe
//! fullness immediately ([`BoundedQueue::try_push`], the backpressure path —
//! a server answers *reject with retry-after* instead of stalling its reader
//! threads), and consumers block until work arrives or the queue is closed
//! and drained. Closing never discards items: everything enqueued before
//! [`BoundedQueue::close`] is still handed out, which is what makes graceful
//! drain-then-join shutdown possible.
//!
//! [`BoundedQueue::prepend`] puts follow-on work of an already admitted item
//! at the head, outside the bound: a consumer that split one item into
//! several hands the rest to idle siblings without ever being refused.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back (backpressure).
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Deepest the queue has ever been — a backpressure gauge for the
    /// metrics plane, updated under the same lock as the push itself so it
    /// is exact, not sampled.
    high_water: usize,
    /// How many items at the head came from [`BoundedQueue::prepend`].
    /// Prepending pushes at the front and pops take the front, so those
    /// items are always a prefix of `items`.
    prepended: usize,
}

impl<T> State<T> {
    /// Items counted against the capacity (prepended ones are not).
    fn bounded(&self) -> usize {
        self.items.len() - self.prepended
    }

    fn pop_front(&mut self) -> Option<T> {
        let item = self.items.pop_front()?;
        self.prepended = self.prepended.saturating_sub(1);
        Some(item)
    }
}

/// A bounded multi-producer/multi-consumer FIFO on `Mutex` + `Condvar`.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>, // lock-order: 55
    capacity: usize,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue cannot accept work");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
                prepended: 0,
            }),
            capacity,
            not_empty: Condvar::new(),
        }
    }

    /// Number of items currently queued against the capacity (items from
    /// [`Self::prepend`] are not counted).
    pub fn depth(&self) -> usize {
        self.lock().bounded()
    }

    /// The deepest the queue has ever been (exact: tracked under the queue
    /// lock at every successful push). Never resets.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Enqueues without blocking, or reports fullness/closure immediately —
    /// the backpressure path.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.bounded() == self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.bounded());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Inserts `items` at the head, in iteration order, ahead of everything
    /// queued. They are outside the bound: never refused (not even after
    /// [`Self::close`]; consumers still drain them before observing
    /// `None`), and never counted by [`Self::depth`] or
    /// [`Self::high_water`].
    pub fn prepend<I>(&self, items: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut state = self.lock();
        let before = state.items.len();
        for item in items.into_iter().rev() {
            state.items.push_front(item);
        }
        let added = state.items.len() - before;
        state.prepended += added;
        drop(state);
        match added {
            0 => {}
            1 => self.not_empty.notify_one(),
            _ => self.not_empty.notify_all(),
        }
    }

    /// Dequeues, blocking until an item arrives. Returns `None` only when
    /// the queue is closed **and** drained, so no enqueued item is lost to
    /// shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeues without blocking (`None` when nothing is queued right now —
    /// callers that must distinguish emptiness from closure use [`Self::pop`]).
    pub fn try_pop(&self) -> Option<T> {
        self.lock().pop_front()
    }

    /// Closes the queue: later pushes fail, and consumers drain what is
    /// already queued before observing `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// The queue state is plain data; recover from poisoning instead of
    /// cascading a producer's panic into every consumer.
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_reports_fullness_with_the_item() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn high_water_tracks_deepest_occupancy_and_never_resets() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.high_water(), 0);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.high_water(), 3);
        // Draining does not lower the mark...
        while q.try_pop().is_some() {}
        assert_eq!(q.high_water(), 3);
        // ...and a rejected push does not raise it.
        q.try_push(1).unwrap();
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn prepended_items_come_first_outside_the_bound() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.prepend([10, 11, 12]);
        // Outside the bound: a full queue still takes them, and neither
        // the length nor the high-water mark counts them.
        assert_eq!(q.depth(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        // Draining a prepended item frees no bounded slot...
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        // ...and closing refuses pushes but neither prepends nor the drain.
        q.close();
        q.prepend([20]);
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, [20, 11, 12, 1, 2]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_waits_for_an_item_pushed_later() {
        let q = Arc::new(BoundedQueue::new(1));
        std::thread::scope(|s| {
            let consumer = {
                let q = Arc::clone(&q);
                s.spawn(move || q.pop())
            };
            q.try_push(1u32).unwrap();
            assert_eq!(consumer.join().unwrap(), Some(1));
        });
    }

    #[test]
    fn close_unblocks_waiting_consumers() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        std::thread::scope(|s| {
            let consumer = {
                let q = Arc::clone(&q);
                s.spawn(move || q.pop())
            };
            q.close();
            assert_eq!(consumer.join().unwrap(), None);
        });
    }
}
