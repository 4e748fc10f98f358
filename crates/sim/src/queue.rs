//! The engine's event queue: a calendar queue that pops events in exactly
//! the order of a binary heap keyed on `(tick, seq)`, where `seq` is the
//! push order.
//!
//! Events within [`RING`] ticks of the current one sit in a ring of per-tick
//! FIFO buckets. The buckets are intrusive singly linked lists over one
//! reusable node pool, so pushing allocates nothing once the pool has grown
//! to the peak number of queued events, and an occupancy bitmap lets a pop
//! jump over empty ticks a word at a time. Events further ahead go to an
//! overflow binary heap and move into their bucket, in `(tick, seq)` order,
//! as soon as the ring's window reaches their tick.
//!
//! # Why the order is exact
//!
//! The queue pops `(tick, seq)`-ascending because three things hold
//! (DESIGN.md §13):
//!
//! * **No past events.** Every push is at or after the tick of the last
//!   pop (checked by a debug assertion), so all queued events lie in
//!   `[now, ∞)`, the ring's events in `[now, now + RING)`, and scanning the
//!   buckets circularly from `now` visits ticks in ascending order.
//! * **`seq` is push order.** The queue assigns it on every push, so
//!   within one tick `(tick, seq)` order is push order, which is exactly
//!   what a FIFO bucket yields.
//! * **Overflow migration precedes every direct push.** An event goes to
//!   the overflow heap only while its tick is at least `RING` ahead. The
//!   moment the window advances far enough to cover that tick, before any
//!   further push, it is appended to its bucket, and the heap hands over
//!   same-tick events in `seq` order. Any event pushed straight into that
//!   bucket later was pushed later, so it belongs behind them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ticks covered by the bucket ring (a power of two). Past this horizon,
/// events wait in the overflow heap. Every event of the STREAM benchmark
/// workloads lands less than 1024 ticks ahead, and a 4096-tick ring
/// measured slower on a one-thread triad, whose pops sweep it every 55
/// events: its 32 KiB of buckets do not stay in L1.
const RING: usize = 1024;
const MASK: u64 = RING as u64 - 1;
/// Words in the occupancy bitmap.
const WORDS: usize = RING / 64;
/// The end of a bucket list / of the free list.
const NIL: u32 = u32::MAX;

/// One queued event in the node pool.
#[derive(Clone, Copy)]
struct Node<E> {
    ev: E,
    /// Next node in the same bucket, or in the free list.
    next: u32,
}

/// One tick's FIFO: the first and last node, [`NIL`] when empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A calendar queue of events `E`, ordered by `(tick, push order)`.
pub(crate) struct EventQueue<E> {
    /// Tick of the last pop: no queued event is earlier.
    now: u64,
    buckets: Vec<Bucket>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    nodes: Vec<Node<E>>,
    /// Head of the list of recycled nodes.
    free: u32,
    /// Events in the ring (not in `overflow`).
    in_ring: usize,
    /// Events at least [`RING`] ticks past `now`, keyed by `(tick, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, E)>>,
    /// Pushes so far: the tie-breaker for `overflow`.
    seq: u64,
}

impl<E: Copy + Ord> EventQueue<E> {
    /// An empty queue at tick 0.
    pub(crate) fn new() -> Self {
        EventQueue {
            now: 0,
            buckets: vec![
                Bucket {
                    head: NIL,
                    tail: NIL,
                };
                RING
            ],
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            in_ring: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `ev` at `tick`, behind every event already queued there.
    ///
    /// `tick` must not precede the tick of the last [`EventQueue::pop`]:
    /// the engine never schedules into the past, and the exact-order
    /// argument in the module docs depends on it.
    #[inline]
    pub(crate) fn push(&mut self, tick: u64, ev: E) {
        debug_assert!(
            tick >= self.now,
            "event scheduled at tick {tick}, before the current tick {}",
            self.now
        );
        self.seq += 1;
        if tick - self.now < RING as u64 {
            self.append(tick, ev);
        } else {
            self.overflow.push(Reverse((tick, self.seq, ev)));
        }
    }

    /// Removes and returns the earliest event with its tick; among events
    /// at one tick, the first pushed.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        if self.in_ring == 0 {
            // Jump across the empty ring straight to the overflow minimum.
            let &Reverse((tick, _, _)) = self.overflow.peek()?;
            self.advance(tick);
        }
        let b = self.next_occupied();
        let tick = self.now + ((b as u64).wrapping_sub(self.now) & MASK);
        if tick != self.now {
            self.advance(tick);
        }
        let idx = self.buckets[b].head;
        let Node { ev, next } = self.nodes[idx as usize];
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.in_ring -= 1;
        Some((tick, ev))
    }

    /// Appends `ev` to the bucket of `tick`, which must lie in the window.
    #[inline]
    fn append(&mut self, tick: u64, ev: E) {
        let node = Node { ev, next: NIL };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event queue holds fewer than 2^32 - 1 events");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        let b = (tick & MASK) as usize;
        let tail = self.buckets[b].tail;
        if tail == NIL {
            self.buckets[b].head = idx;
            self.occupied[b / 64] |= 1u64 << (b % 64);
        } else {
            self.nodes[tail as usize].next = idx;
        }
        self.buckets[b].tail = idx;
        self.in_ring += 1;
    }

    /// Moves the window to start at `tick` and migrates the overflow events
    /// it now covers into their buckets, in `(tick, seq)` order. Callers
    /// guarantee that no ring event precedes `tick`, so the buckets the
    /// window gains are empty.
    fn advance(&mut self, tick: u64) {
        self.now = tick;
        let horizon = tick + RING as u64;
        while let Some(&Reverse((t, _, ev))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            self.append(t, ev);
        }
    }

    /// The first non-empty bucket at or circularly after `now`'s. The ring
    /// must hold at least one event.
    #[inline]
    fn next_occupied(&self) -> usize {
        debug_assert!(self.in_ring > 0);
        let start = (self.now & MASK) as usize;
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0u64 << (start % 64));
        loop {
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
            w = (w + 1) % WORDS;
            bits = self.occupied[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A binary heap keyed on `(tick, seq)`: the order oracle.
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, tick: u64, ev: u32) {
            self.seq += 1;
            self.heap.push(Reverse((tick, self.seq, ev)));
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            self.heap.pop().map(|Reverse((t, _, ev))| (t, ev))
        }
    }

    /// How far ahead of the current tick a push lands.
    fn delta() -> impl Strategy<Value = u64> {
        let ring = RING as u64;
        prop_oneof![
            // Same tick, also while that tick is draining.
            Just(0u64),
            1u64..8,
            0..ring,
            // Either side of the horizon.
            ring - 2..ring + 2,
            ring..4 * ring,
            // Far past it: pops must jump across an empty ring.
            16 * ring..64 * ring,
        ]
    }

    proptest! {
        /// Any interleaving of pushes and pops yields exactly the binary
        /// heap's `(tick, seq)` order.
        #[test]
        fn pops_in_binary_heap_order(
            steps in proptest::collection::vec((0u32..8, delta()), 1..600),
        ) {
            let mut q = EventQueue::new();
            let mut r = Reference { heap: BinaryHeap::new(), seq: 0 };
            let mut now = 0u64;
            for (i, &(kind, d)) in steps.iter().enumerate() {
                if kind < 5 {
                    q.push(now + d, i as u32);
                    r.push(now + d, i as u32);
                } else {
                    let want = r.pop();
                    prop_assert_eq!(q.pop(), want, "pop after step {}", i);
                    if let Some((t, _)) = want {
                        now = t;
                    }
                }
            }
            loop {
                let want = r.pop();
                prop_assert_eq!(q.pop(), want, "draining");
                if want.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn same_tick_events_pop_in_push_order_across_the_horizon() {
        let far = 3 * RING as u64 + 5;
        let mut q = EventQueue::new();
        // Pushed from tick 0: `far` is beyond the ring, so these overflow.
        q.push(far, 0u32);
        q.push(far, 1);
        q.push(far - 1, 2);
        // Popping `far - 1` jumps the empty ring and migrates both ticks;
        // a push at `far` made now must land behind the migrated events.
        assert_eq!(q.pop(), Some((far - 1, 2)));
        q.push(far, 3);
        q.push(far - 1, 4);
        assert_eq!(q.pop(), Some((far - 1, 4)));
        assert_eq!(q.pop(), Some((far, 0)));
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.pop(), Some((far, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_wraps_and_recycles_nodes() {
        let mut q = EventQueue::new();
        let mut now = 0;
        for round in 0..40u64 {
            // Four consecutive ticks across the horizon: two land in the
            // ring, two overflow and migrate. The window moves one bucket
            // per round, so the first rounds also straddle the end of the
            // bucket array.
            let first = now + RING as u64 - 2;
            for k in 0..4 {
                q.push(first + k, (round * 4 + k) as u32);
            }
            for k in 0..4 {
                assert_eq!(q.pop(), Some((first + k, (round * 4 + k) as u32)));
            }
            now = first + 3;
        }
        assert_eq!(q.pop(), None);
        // Four events were live at a time, so four nodes serve all 160.
        assert_eq!(q.nodes.len(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the current tick")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, 0u32);
        assert_eq!(q.pop(), Some((10, 0)));
        q.push(9, 1);
    }
}
