//! Time-ordered event queue with stable tie-breaking and lazy cancellation.
//!
//! Implemented as a 4-ary implicit min-heap over small `Copy` entries plus
//! a slot pool holding the payloads. A 4-ary heap halves the tree depth of
//! a binary heap and keeps the children of a node in one or two cache
//! lines, which matters on the DES hot path where every packet hop is a
//! push/pop pair. Payload slots are recycled through a free list, so a
//! steady-state simulation stops allocating once the queue reaches its
//! high-water mark.
//!
//! An entry orders by its `(time, seq)` key packed into one `u128`. Keys
//! are unique (`seq` counts schedules), so the heap has no ties and any
//! correct heap pops the same sequence. A pop is bottom-up: the root's
//! hole sinks to a leaf along the smallest of each node's children,
//! chosen without branches and without comparing against the entry that
//! will fill it; the heap's last entry then rises from that leaf. The
//! last entry almost always belongs near the bottom, so this does about
//! one comparison per level less than a top-down sift, and the
//! comparisons it keeps are data-independent selects rather than
//! mispredicted branches.

use crate::SimTime;

/// A handle identifying a scheduled event, usable to cancel it.
///
/// Handles are unique per [`EventQueue`] for the lifetime of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// A position in a queue's scheduling order, taken by
/// [`EventQueue::mark`]: events scheduled before it sort before a batch
/// merged at it on equal timestamps, events scheduled after it sort
/// after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(u64);

/// One event delivered by [`EventQueue::pop_merged_before`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merged<E> {
    /// The heap's earliest event, removed from the queue.
    Queued(SimTime, E),
    /// The batch's next event, due at this time; the caller moves its
    /// cursor past it.
    Batch(SimTime),
}

/// Heap entry: the ordering key plus the index of the payload slot.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    /// The `(time, seq)` order as one integer: time in the high word.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// Payload storage. `seq` disambiguates recycled slots so stale handles
/// can never cancel an unrelated event; `payload` is `None` once the
/// event fired or was cancelled (lazy cancellation leaves the heap entry
/// in place until it reaches the head).
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

const ARITY: usize = 4;

/// A discrete-event queue: events are delivered in nondecreasing time
/// order, and events scheduled for the same instant are delivered in the
/// order they were scheduled (FIFO).
///
/// Cancellation is *lazy*: [`EventQueue::cancel`] empties the payload slot
/// and the heap entry is discarded when it reaches the head, giving
/// O(log n) amortized cost for all operations.
///
/// # How a pop works
///
/// Entries order by `(time, seq)`, packed into one `u128` key. A pop
/// takes the root, lets its hole sink to a leaf along the smallest of
/// each node's four children (picked by branch-free selects), moves the
/// heap's last entry into that leaf and sifts it up, usually by zero or
/// one level. Keys are unique, so this pops exactly what a top-down
/// sift would.
///
/// # Merging a batch held outside the heap
///
/// A time-sorted batch the caller holds (a service epoch's arrivals) can
/// be delivered without scheduling it: take a [`Mark`] with
/// [`EventQueue::mark`], then draw events through
/// [`EventQueue::pop_merged_before`], which takes whichever comes first,
/// the heap's head or the batch's next event. The merge pops exactly the
/// sequence the queue would pop had the whole batch been scheduled, in
/// its order, at the mark. That is the FIFO rule extended to the batch:
/// on equal timestamps a batch event loses to the events queued before
/// the mark and beats the events queued after it, including those its
/// own handlers schedule. The heap then holds only what is scheduled,
/// not the batch.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let h = q.schedule(SimTime::from_nanos(10), "drop me");
/// q.schedule(SimTime::from_nanos(20), "keep me");
/// q.cancel(h);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("keep me"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    /// Slot indices whose heap entry has been discarded, free for reuse.
    free: Vec<u32>,
    /// Number of scheduled-but-neither-fired-nor-cancelled events.
    live: usize,
    next_seq: u64,
    /// Time of the last popped event; pops are monotone.
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event ([`SimTime::ZERO`]
    /// before the first pop). Schedules in the past are rejected against
    /// this clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for delivery at `time` and returns a handle
    /// that can cancel it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`EventQueue::now`] — scheduling
    /// into the past is always a model bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        assert!(
            time >= self.now,
            "scheduled event at {time} before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.seq = seq;
                s.payload = Some(payload);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("event queue slot overflow");
                self.slots.push(Slot {
                    seq,
                    payload: Some(payload),
                });
                i
            }
        };
        self.heap.push(HeapEntry { time, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.live += 1;
        EventHandle { slot, seq }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending, `false` if it had already fired or been
    /// cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(slot) if slot.seq == handle.seq && slot.payload.is_some() => {
                slot.payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = self.live_head()?;
        self.now = head.time;
        Some((head.time, self.take_head(head)))
    }

    /// Drains every pending event sharing the earliest timestamp into
    /// `batch` (cleared first), preserving schedule order within the
    /// tick, and returns that timestamp. Events scheduled *while the
    /// batch is processed* — even at the same timestamp — land in a
    /// later batch, which matches the order `pop` would have produced:
    /// their sequence numbers are higher than every event already
    /// queued at that tick.
    ///
    /// ```
    /// use simcore::{EventQueue, SimTime, SimDuration};
    /// let mut q = EventQueue::new();
    /// let t = SimTime::ZERO + SimDuration::from_secs(1);
    /// q.schedule(t, "a");
    /// q.schedule(t + SimDuration::from_secs(1), "later");
    /// q.schedule(t, "b");
    /// let mut batch = Vec::new();
    /// assert_eq!(q.pop_batch(&mut batch), Some(t));
    /// assert_eq!(batch, vec!["a", "b"]);
    /// assert_eq!(q.len(), 1, "the later tick stays queued");
    /// ```
    pub fn pop_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        batch.clear();
        let t = self.peek_time()?;
        self.now = t;
        while let Some(&head) = self.heap.first() {
            if head.time != t {
                break;
            }
            self.remove_head();
            self.free.push(head.slot);
            if let Some(p) = self.slots[head.slot as usize].payload.take() {
                self.live -= 1;
                batch.push(p);
            }
        }
        Some(t)
    }

    /// The queue's current position in scheduling order, to merge a
    /// batch at. Take it before scheduling anything that must lose ties
    /// to the batch.
    #[must_use]
    pub fn mark(&self) -> Mark {
        Mark(self.next_seq)
    }

    /// Removes and returns the earliest event strictly before `end` from
    /// the merge of the heap with a time-sorted batch whose next event is
    /// due at `batch` (`None` once the batch is exhausted). The merge
    /// pops what the heap would pop had the batch been scheduled at
    /// `mark` (see the type docs): a batch event goes first iff it is
    /// earlier than the head, or equally early and the head was queued
    /// at or after `mark`. Delivering a batch event advances
    /// [`EventQueue::now`] to its time. Returns `None`, consuming
    /// nothing, when both are at or past `end`.
    ///
    /// ```
    /// use simcore::{EventQueue, Merged, SimTime};
    /// let t = |ns| SimTime::from_nanos(ns);
    /// let mut q = EventQueue::new();
    /// q.schedule(t(5), "queued before the mark");
    /// let mark = q.mark();
    /// q.schedule(t(5), "queued after the mark");
    /// let batch = [t(5)];
    /// let mut next = 0;
    /// let mut order = Vec::new();
    /// while let Some(m) = q.pop_merged_before(t(9), batch.get(next).copied(), mark) {
    ///     match m {
    ///         Merged::Queued(_, e) => order.push(e),
    ///         Merged::Batch(_) => {
    ///             order.push("batch");
    ///             next += 1;
    ///         }
    ///     }
    /// }
    /// assert_eq!(order, ["queued before the mark", "batch", "queued after the mark"]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the batch event is earlier than [`EventQueue::now`]: an
    /// unsorted batch, or one merged after the clock passed it.
    pub fn pop_merged_before(
        &mut self,
        end: SimTime,
        batch: Option<SimTime>,
        mark: Mark,
    ) -> Option<Merged<E>> {
        let head = self.live_head();
        if let Some(t) = batch {
            let first = head.is_none_or(|h| t < h.time || (t == h.time && h.seq >= mark.0));
            if first {
                if t >= end {
                    return None;
                }
                assert!(
                    t >= self.now,
                    "batch event at {t} before current time {}",
                    self.now
                );
                self.now = t;
                return Some(Merged::Batch(t));
            }
        }
        let head = head?;
        if head.time >= end {
            return None;
        }
        self.now = head.time;
        Some(Merged::Queued(head.time, self.take_head(head)))
    }

    /// The time of the earliest pending event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.live_head().map(|h| h.time)
    }

    /// The earliest live heap entry, after discarding cancelled heads.
    fn live_head(&mut self) -> Option<HeapEntry> {
        while let Some(&head) = self.heap.first() {
            if self.slots[head.slot as usize].payload.is_some() {
                return Some(head);
            }
            self.remove_head();
            self.free.push(head.slot);
        }
        None
    }

    /// Removes `head`, the live root [`EventQueue::live_head`] just
    /// returned, and hands back its payload.
    fn take_head(&mut self, head: HeapEntry) -> E {
        self.remove_head();
        self.free.push(head.slot);
        self.live -= 1;
        self.slots[head.slot as usize]
            .payload
            .take()
            .expect("the live head holds a payload")
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live (scheduled, not fired, not cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Discards the heap root: its hole sinks to a leaf along the
    /// smallest children, then the last entry fills it and sifts up.
    fn remove_head(&mut self) {
        let last = self.heap.pop().expect("remove_head on empty heap");
        let len = self.heap.len();
        if len == 0 {
            return;
        }
        let heap = &mut self.heap[..];
        let mut hole = 0;
        loop {
            let first = hole * ARITY + 1;
            let min = match heap.get(first..first + ARITY) {
                Some(kids) => first + min_of_four(kids),
                // The one node with fewer than four children, or a leaf.
                None => match (first..len).min_by_key(|&c| heap[c].key()) {
                    Some(c) => c,
                    None => break,
                },
            };
            heap[hole] = heap[min];
            hole = min;
        }
        heap[hole] = last;
        self.sift_up(hole);
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let key = entry.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() < key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }
}

/// The position of the smallest key among four siblings, by a
/// tournament of selects the compiler lowers without branches.
#[inline]
fn min_of_four(kids: &[HeapEntry]) -> usize {
    let k = |i: usize| kids[i].key();
    let (a, ka) = if k(1) < k(0) { (1, k(1)) } else { (0, k(0)) };
    let (b, kb) = if k(3) < k(2) { (3, k(3)) } else { (2, k(2)) };
    if kb < ka {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_nanos(1), "a");
        let h2 = q.schedule(SimTime::from_nanos(2), "b");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), "b")));
        assert!(!q.cancel(h2), "cancel after fire reports false");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut other = EventQueue::new();
        let foreign = other.schedule(SimTime::from_nanos(1), ());
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(foreign));
    }

    #[test]
    fn stale_handle_cannot_cancel_a_recycled_slot() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_nanos(1), "first");
        q.pop();
        // The slot is recycled for a new event; the old handle must not
        // reach it.
        q.schedule(SimTime::from_nanos(2), "second");
        assert!(!q.cancel(h));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), "second")));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_nanos(1), "x");
        q.schedule(SimTime::from_nanos(9), "y");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    /// `pop_batch` must yield the exact event sequence `pop` yields,
    /// chunked by timestamp, with cancellations honoured.
    #[test]
    fn batch_dispatch_matches_pop_order() {
        let build = || {
            let mut q = EventQueue::new();
            let mut handles = Vec::new();
            let mut rng = crate::SimRng::seed_from(99);
            for id in 0..500u32 {
                // Deliberately few distinct ticks so batches coalesce.
                let t = SimTime::from_nanos(rng.index(40) as u64 * 10);
                handles.push(q.schedule(t, id));
            }
            // Cancel every seventh event, including some whole ticks.
            for (i, h) in handles.iter().enumerate() {
                if i % 7 == 0 {
                    q.cancel(*h);
                }
            }
            q
        };
        let mut by_pop = Vec::new();
        let mut q = build();
        while let Some((t, id)) = q.pop() {
            by_pop.push((t, id));
        }
        let mut by_batch = Vec::new();
        let mut q = build();
        let mut batch = Vec::new();
        while let Some(t) = q.pop_batch(&mut batch) {
            assert!(!batch.is_empty(), "batch at {t} is empty");
            by_batch.extend(batch.iter().map(|&id| (t, id)));
        }
        assert_eq!(by_pop, by_batch);
        assert!(q.is_empty());
    }

    /// Events scheduled during a batch — even at the batch's own
    /// timestamp — must surface in a later batch, exactly as `pop`
    /// would order them.
    #[test]
    fn batch_dispatch_defers_same_tick_reschedules() {
        let t = SimTime::from_nanos(100);
        let mut q = EventQueue::new();
        q.schedule(t, 0u32);
        q.schedule(t, 1);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(t));
        assert_eq!(batch, vec![0, 1]);
        // A handler reacting to the batch schedules more work at `now`.
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop_batch(&mut batch), Some(t));
        assert_eq!(batch, vec![2, 3]);
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    /// One delivered event of the merge differential: a scheduled event
    /// by id, or batch event `i` of epoch `e`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Item {
        Queued(u32),
        Batch(u32, usize),
    }

    /// Two queues fed the same schedules and cancellations: the
    /// reference gets each batch scheduled into its heap at the mark, the
    /// merged one gets the batch through `pop_merged_before`.
    struct Twin {
        reference: EventQueue<Item>,
        merged: EventQueue<u32>,
        handles: Vec<(EventHandle, EventHandle)>,
    }

    impl Twin {
        fn schedule(&mut self, t: u64) {
            let id = self.handles.len() as u32;
            let t = SimTime::from_nanos(t);
            let r = self.reference.schedule(t, Item::Queued(id));
            let m = self.merged.schedule(t, id);
            self.handles.push((r, m));
        }

        /// Cancels one of the last few scheduled events: those sit near
        /// the head, so their cancellation leaves dead heads.
        fn cancel_recent(&mut self, rng: &mut crate::SimRng) {
            if self.handles.is_empty() {
                return;
            }
            let back = rng.index(self.handles.len().min(6));
            let (r, m) = self.handles[self.handles.len() - 1 - back];
            assert_eq!(self.reference.cancel(r), self.merged.cancel(m));
        }
    }

    /// The merged pop delivers exactly the `(time, payload)` sequence of
    /// the heap with the batch scheduled at the mark, on tie-heavy
    /// inputs: a handful of distinct nanoseconds per epoch, events queued
    /// before the mark, batches of equal timestamps, events queued after
    /// the mark before the first pop (a sharded inbox), handlers that
    /// schedule at `now` and `now + 1`, and cancelled heads.
    #[test]
    fn merged_batch_pops_as_if_scheduled_at_the_mark() {
        const WIDTH: u64 = 6;
        let (mut batch_first, mut head_first) = (0, 0);
        for seed in 0..300 {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut tw = Twin {
                reference: EventQueue::new(),
                merged: EventQueue::new(),
                handles: Vec::new(),
            };
            for epoch in 0..6u32 {
                let start = u64::from(epoch) * WIDTH;
                let end = SimTime::from_nanos(start + WIDTH);
                for _ in 0..rng.index(5) {
                    tw.schedule(start + rng.index(2 * WIDTH as usize) as u64);
                }
                if rng.index(2) == 0 {
                    tw.cancel_recent(&mut rng);
                }
                let mut batch: Vec<u64> = (0..rng.index(10))
                    .map(|_| start + rng.index(WIDTH as usize) as u64)
                    .collect();
                batch.sort_unstable();
                if rng.index(4) == 0 {
                    let t = batch.first().copied().unwrap_or(start);
                    batch.fill(t);
                }
                let mark = tw.merged.mark();
                for (i, &t) in batch.iter().enumerate() {
                    tw.reference
                        .schedule(SimTime::from_nanos(t), Item::Batch(epoch, i));
                }
                for _ in 0..rng.index(3) {
                    tw.schedule(start + rng.index(WIDTH as usize + 2) as u64);
                }
                let mut next = 0;
                let mut last: Option<(SimTime, Item)> = None;
                loop {
                    let want = match tw.reference.peek_time() {
                        Some(t) if t < end => tw.reference.pop(),
                        _ => None,
                    };
                    let at = batch.get(next).map(|&t| SimTime::from_nanos(t));
                    let got = match tw.merged.pop_merged_before(end, at, mark) {
                        Some(Merged::Queued(t, id)) => Some((t, Item::Queued(id))),
                        Some(Merged::Batch(t)) => {
                            next += 1;
                            Some((t, Item::Batch(epoch, next - 1)))
                        }
                        None => None,
                    };
                    assert_eq!(got, want, "seed {seed} epoch {epoch}");
                    let Some((now, item)) = got else { break };
                    assert_eq!(tw.merged.now(), now);
                    assert_eq!(tw.merged.len(), tw.reference.len() - (batch.len() - next));
                    // Count the ties the merge resolved, both ways.
                    match (last, item) {
                        (Some((t, Item::Batch(..))), Item::Queued(_)) if t == now => {
                            batch_first += 1;
                        }
                        (Some((t, Item::Queued(_))), Item::Batch(..)) if t == now => {
                            head_first += 1;
                        }
                        _ => {}
                    }
                    last = Some((now, item));
                    match rng.index(6) {
                        0 => tw.schedule(now.as_nanos()),
                        1 => tw.schedule(now.as_nanos() + 1),
                        2 => tw.cancel_recent(&mut rng),
                        _ => {}
                    }
                }
                assert_eq!(next, batch.len(), "seed {seed} epoch {epoch}");
            }
            loop {
                let want = tw.reference.pop();
                let got = tw.merged.pop().map(|(t, id)| (t, Item::Queued(id)));
                assert_eq!(got, want, "seed {seed} tail");
                if got.is_none() {
                    break;
                }
            }
        }
        assert!(
            batch_first > 100 && head_first > 100,
            "{batch_first} / {head_first}"
        );
    }

    /// The queue's contract in its plainest form: pending `(time, seq,
    /// id)` entries in a list, each pop a scan for the least `(time,
    /// seq)`.
    #[derive(Default)]
    struct Plain {
        pending: Vec<(u64, u64, u32)>,
        next_seq: u64,
    }

    impl Plain {
        fn schedule(&mut self, t: u64, id: u32) {
            self.pending.push((t, self.next_seq, id));
            self.next_seq += 1;
        }

        fn cancel(&mut self, id: u32) -> bool {
            let i = self.pending.iter().position(|e| e.2 == id);
            i.map(|i| self.pending.swap_remove(i)).is_some()
        }

        fn head(&self) -> Option<(u64, u64, u32)> {
            self.pending.iter().copied().min_by_key(|e| (e.0, e.1))
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let (t, _, id) = self.head()?;
            self.cancel(id);
            Some((t, id))
        }
    }

    /// Batch event ids of the differential below carry this bit.
    const BATCH: u32 = 1 << 31;

    /// Thousands of seeded sequences mixing `schedule`, `cancel`, `pop`,
    /// `pop_batch` and `pop_merged_before` with marks, on few distinct
    /// timestamps, deliver exactly what [`Plain`] delivers. A merged
    /// batch goes into [`Plain`] at its mark. The pops meet every heap
    /// length mod 4, so the last parent has one to four children.
    #[test]
    fn every_pop_matches_the_plain_reference() {
        let mut residues = [0u32; ARITY];
        let mut ties = 0u32;
        for seed in 0..3_000 {
            let mut rng = crate::SimRng::seed_from(seed);
            let width = [1, 2, 8, 200][rng.index(4)];
            let mut q = EventQueue::new();
            let mut plain = Plain::default();
            let mut handles = Vec::new();
            let schedule = |q: &mut EventQueue<u32>,
                            plain: &mut Plain,
                            handles: &mut Vec<EventHandle>,
                            t: u64| {
                let id = handles.len() as u32;
                handles.push(q.schedule(SimTime::from_nanos(t), id));
                plain.schedule(t, id);
            };
            for _ in 0..rng.index(80) {
                let t = rng.index(width) as u64;
                schedule(&mut q, &mut plain, &mut handles, t);
            }
            for _ in 0..200 {
                let now = q.now().as_nanos();
                if q.heap.len() > ARITY + 1 {
                    residues[q.heap.len() % ARITY] += 1;
                }
                match rng.index(12) {
                    0..=4 => {
                        let t = now + rng.index(width) as u64;
                        schedule(&mut q, &mut plain, &mut handles, t);
                    }
                    5 | 6 if !handles.is_empty() => {
                        let id = rng.index(handles.len());
                        assert_eq!(q.cancel(handles[id]), plain.cancel(id as u32));
                    }
                    7 | 8 => {
                        let got = q.pop().map(|(t, id)| (t.as_nanos(), id));
                        assert_eq!(got, plain.pop(), "seed {seed}");
                    }
                    9 | 10 => {
                        let mut batch = Vec::new();
                        let got = q.pop_batch(&mut batch).map(SimTime::as_nanos);
                        let t = plain.head().map(|h| h.0);
                        assert_eq!(got, t, "seed {seed}");
                        let mut want = Vec::new();
                        while plain.head().is_some_and(|h| Some(h.0) == t) {
                            want.push(plain.pop().expect("head").1);
                        }
                        ties += u32::from(want.len() > 1);
                        assert_eq!(batch, want, "seed {seed}");
                    }
                    _ => {
                        let mut batch: Vec<u64> = (0..rng.index(6))
                            .map(|_| now + rng.index(width) as u64)
                            .collect();
                        batch.sort_unstable();
                        let mark = q.mark();
                        for (i, &t) in batch.iter().enumerate() {
                            plain.schedule(t, BATCH | i as u32);
                        }
                        // Past the batch's last event, so the merge drains it.
                        let end = (now + 1 + rng.index(2 * width) as u64)
                            .max(batch.last().map_or(0, |&t| t + 1));
                        let end_at = SimTime::from_nanos(end);
                        let mut next = 0;
                        loop {
                            let want = match plain.head() {
                                Some(h) if h.0 < end => plain.pop(),
                                _ => None,
                            };
                            let at = batch.get(next).map(|&t| SimTime::from_nanos(t));
                            let got = match q.pop_merged_before(end_at, at, mark) {
                                Some(Merged::Queued(t, id)) => Some((t.as_nanos(), id)),
                                Some(Merged::Batch(t)) => {
                                    next += 1;
                                    Some((t.as_nanos(), BATCH | (next - 1) as u32))
                                }
                                None => None,
                            };
                            assert_eq!(got, want, "seed {seed}");
                            let Some((t, _)) = got else { break };
                            assert_eq!(q.now().as_nanos(), t);
                            if rng.index(3) == 0 {
                                let t = t + rng.index(2) as u64;
                                schedule(&mut q, &mut plain, &mut handles, t);
                            }
                        }
                        assert_eq!(next, batch.len(), "seed {seed}");
                    }
                }
                assert_eq!(q.len(), plain.pending.len(), "seed {seed}");
            }
            loop {
                let got = q.pop().map(|(t, id)| (t.as_nanos(), id));
                assert_eq!(got, plain.pop(), "seed {seed} tail");
                if got.is_none() {
                    break;
                }
            }
        }
        assert!(residues.iter().all(|&n| n > 10_000), "{residues:?}");
        assert!(ties > 1_000, "{ties} same-tick batches");
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn an_unsorted_batch_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mark = q.mark();
        let end = SimTime::from_nanos(100);
        q.pop_merged_before(end, Some(SimTime::from_nanos(7)), mark);
        q.pop_merged_before(end, Some(SimTime::from_nanos(3)), mark);
    }
}
