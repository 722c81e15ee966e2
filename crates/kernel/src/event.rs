//! The event queue.
//!
//! The kernel is driven by a priority queue of events keyed by
//! `(time, delta, seq)`:
//!
//! * `time` — the simulated tick the event fires at;
//! * `delta` — the delta cycle within that tick (SystemC-style evaluate /
//!   update micro-steps that consume no simulated time);
//! * `seq` — a monotonically increasing sequence number that makes ordering
//!   of simultaneous events *stable*: events scheduled first fire first.
//!
//! The stable ordering is what makes whole simulations bit-reproducible.
//!
//! [`EventQueue`] is a plain binary heap, the kernel's only queue. It
//! holds few events: periodic clock toggles live in the simulator's
//! *clock calendar* and subscriber wakes are carried between deltas, so
//! the queue sees only component timers, `Start` events and the current
//! delta cascade. The kernel's determinism tests (`tests/determinism.rs`)
//! and the unit tests below pin the ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::component::ComponentId;
use crate::time::SimTime;

/// What an event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// First wake of a component, at time zero.
    Start(ComponentId),
    /// Wake a component; the payload is an opaque tag the component chose
    /// when it scheduled the wake (see [`Ctx::schedule_in`]).
    ///
    /// [`Ctx::schedule_in`]: crate::Ctx::schedule_in
    Wake(ComponentId, u64),
    /// Wake a component because a signal it subscribed to changed.
    SignalWake(ComponentId, crate::signal::SignalId),
    /// Toggle kernel-managed clock number `usize`.
    ClockToggle(usize),
}

/// A scheduled event with its full ordering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated tick the event fires at.
    pub time: SimTime,
    /// Delta cycle within the tick.
    pub delta: u32,
    /// Stable tie-breaker: scheduling order.
    pub seq: u64,
    /// The action to perform.
    pub kind: EventKind,
}

impl Event {
    #[inline]
    fn key(&self) -> (SimTime, u32, u64) {
        (self.time, self.delta, self.seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-queue of events ordered by `(time, delta, seq)`, as a plain
/// binary heap (see the module docs).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event, assigning it the next sequence number.
    #[inline]
    pub fn push(&mut self, time: SimTime, delta: u32, kind: EventKind) {
        let seq = self.alloc_seq();
        self.heap.push(Event {
            time,
            delta,
            seq,
            kind,
        });
    }

    /// Re-inserts an event that already carries its sequence number (an
    /// event put back after a budget stop, a parked clock toggle, a
    /// restored snapshot); never changes the pop order.
    pub fn push_event(&mut self, ev: Event) {
        self.heap.push(ev);
    }

    /// Consumes the next sequence number *without* inserting an event.
    ///
    /// This is how the simulator's clock calendar stays order-compatible
    /// with the queue: a calendar toggle claims its sequence number at
    /// exactly the point the queued path would have pushed a
    /// `ClockToggle`, so merging the calendar head against the queue
    /// head by the full `(time, delta, seq)` key reproduces the queued
    /// dispatch order bit for bit (and
    /// [`scheduled_total`](Self::scheduled_total) counts both kinds of
    /// scheduling).
    #[inline]
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The `(time, delta)` of the earliest pending event, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u32)> {
        self.heap.peek().map(|e| (e.time, e.delta))
    }

    /// The full `(time, delta, seq)` key of the earliest pending event
    /// (what the run loop compares the clock calendar's head against).
    #[inline]
    pub fn peek_full_key(&self) -> Option<(SimTime, u32, u64)> {
        self.heap.peek().map(|e| e.key())
    }

    /// Pops the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Total number of sequence numbers ever claimed (pushed events and
    /// calendar toggles): the counter a snapshot saves.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Restores the sequence counter (snapshot restore).
    pub fn set_next_seq(&mut self, next_seq: u64) {
        self.next_seq = next_seq;
    }

    /// Moves every pending event out, earliest first, with its original
    /// key; put them back with [`push_event`](Self::push_event).
    pub fn drain_ordered(&mut self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.heap.len());
        while let Some(ev) = self.heap.pop() {
            events.push(ev);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(c: usize) -> EventKind {
        EventKind::Wake(ComponentId::from_raw(c), 0)
    }

    #[test]
    fn orders_by_time_then_delta_then_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), 0, wake(0));
        q.push(SimTime::from_ticks(1), 2, wake(1));
        q.push(SimTime::from_ticks(1), 0, wake(2));
        q.push(SimTime::from_ticks(1), 0, wake(3));

        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order.len(), 4);
        // t=1,d=0 events first, in scheduling order (seq 2 then 3).
        assert_eq!(order[0].kind, wake(2));
        assert_eq!(order[1].kind, wake(3));
        assert_eq!(order[2].kind, wake(1)); // t=1, d=2
        assert_eq!(order[3].kind, wake(0)); // t=5
    }

    #[test]
    fn counters_track_usage() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_ticks(i), 0, wake(i as usize));
        }
        assert_eq!(q.alloc_seq(), 10, "a claimed seq follows the pushes");
        assert_eq!(q.scheduled_total(), 11);
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_total(), 11, "pops never rewind the counter");
        q.push(SimTime::from_ticks(20), 0, wake(0));
        assert_eq!(q.pop().unwrap().seq, 11);
    }

    #[test]
    fn peek_key_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        q.push(SimTime::from_ticks(9), 3, wake(0));
        q.push(SimTime::from_ticks(2), 1, wake(1));
        assert_eq!(q.peek_key(), Some((SimTime::from_ticks(2), 1)));
        assert_eq!(q.peek_full_key(), Some((SimTime::from_ticks(2), 1, 1)));
    }

    #[test]
    fn heap_drain_ordered_is_sorted_and_preserves_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(9), 0, wake(0));
        q.push(SimTime::from_ticks(2), 1, wake(1));
        q.push(SimTime::from_ticks(2), 0, wake(2));
        let drained = q.drain_ordered();
        let keys: Vec<_> = drained.iter().map(|e| e.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].kind, wake(2));
        assert_eq!(drained[0].seq, 2, "original seq preserved");
        assert!(q.pop().is_none(), "drained");
        // Re-inserted events pop in their original order, and the
        // counter was untouched.
        for ev in drained.iter().rev() {
            q.push_event(*ev);
        }
        assert_eq!(std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(), drained);
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn migration_between_queues_preserves_order() {
        // Move a half-consumed queue into a fresh one with the restore
        // recipe (drain, re-insert, hand over the counter) and keep
        // popping: the combined sequence must equal the unmoved one.
        let mut reference = EventQueue::new();
        let mut source = EventQueue::new();
        for i in 0..100usize {
            let t = (i as u64 * 13) % 40;
            let d = (i % 3) as u32;
            reference.push(SimTime::from_ticks(t), d, wake(i));
            source.push(SimTime::from_ticks(t), d, wake(i));
        }
        let mut popped: Vec<_> = (0..30).map(|_| source.pop().unwrap()).collect();
        let mut target = EventQueue::new();
        for ev in source.drain_ordered() {
            target.push_event(ev);
        }
        target.set_next_seq(source.scheduled_total());
        popped.extend(std::iter::from_fn(|| target.pop()));
        let expect: Vec<_> = std::iter::from_fn(|| reference.pop()).collect();
        assert_eq!(popped, expect);
        // Seq continuity after the move.
        target.push(SimTime::from_ticks(1000), 0, wake(7));
        assert_eq!(target.pop().unwrap().seq, 100);
    }
}
