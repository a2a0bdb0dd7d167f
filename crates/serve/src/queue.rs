//! Bounded per-shard message queues whose producers wait for room.
//!
//! A small Mutex+Condvar MPSC queue with one behaviour when full: the
//! producer waits until the consumer's next drain makes room. That is what
//! keeps serving lossless — every line is processed, or held back (in the
//! gateway: in its connection, by TCP flow control) until its shard has
//! room — and so online verdicts equal offline detection. A message carries
//! a weight — the log lines in it: a line batch weighs its length — and
//! capacity, length and the drop counter are all in lines, so batching
//! changes how often the lock is taken, not what the bounds mean. Control
//! messages (end, drain, shutdown) weigh nothing and always bypass the
//! capacity check — a drain request that waited for room behind the load
//! would deadlock the very mechanism meant to relieve it.

use std::collections::VecDeque;
use std::time::Duration;
use sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sync::{Condvar, Mutex};

/// What a full shard queue does: block the producer until room frees up.
/// The only behaviour, kept as a type because `benchmark/` names
/// `Backpressure::Block`.
#[derive(Debug, Clone, Copy, Default)]
pub enum Backpressure {
    /// Block the producer (the connection handler) until space frees up —
    /// lossless; TCP flow control pushes back on the client.
    #[default]
    Block,
}

struct Inner<T> {
    q: VecDeque<T>,
    /// Lines queued — the sum of the queued data messages' weights — which
    /// is what capacity bounds.
    lines: usize,
    /// Control messages queued; they weigh nothing.
    control_len: usize,
    closed: bool,
}

impl<T> Inner<T> {
    /// Whether `lines` more fit. A message heavier than the whole capacity
    /// is admitted into a queue holding no lines (it could never fit
    /// otherwise); producers are expected to cap batches at the capacity.
    fn admits(&self, lines: usize, capacity: usize) -> bool {
        self.lines == 0 || self.lines + lines <= capacity
    }

    fn push_back(&mut self, msg: T, weight: usize) {
        self.q.push_back(msg);
        self.lines += weight;
        if weight == 0 {
            self.control_len += 1;
        }
    }

    /// Hand everything queued to `out` (which arrives empty).
    fn swap_out(&mut self, out: &mut VecDeque<T>) {
        std::mem::swap(&mut self.q, out);
        self.lines = 0;
        self.control_len = 0;
    }
}

/// A bounded MPSC queue between connection handlers and one shard worker.
/// Capacity, [`ShardQueue::len`] and [`ShardQueue::dropped`] count log
/// *lines*, whatever the size of the messages that carry them.
pub struct ShardQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    dropped: AtomicU64,
    /// The producer found no room and will not look again unasked (see
    /// [`ShardQueue::want_room`]).
    room_wanted: AtomicBool,
}

impl<T> ShardQueue<T> {
    /// A queue holding at most `capacity` lines of data messages. The
    /// second argument is ignored — blocking is the only behaviour — and
    /// stays because `benchmark/` passes it.
    pub fn new(capacity: usize, _: Backpressure) -> ShardQueue<T> {
        ShardQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(capacity.min(4096)),
                lines: 0,
                control_len: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            room_wanted: AtomicBool::new(false),
        }
    }

    /// Enqueue a one-line data message; see [`ShardQueue::push_weighted`].
    pub fn push(&self, msg: T) -> bool {
        self.push_weighted(msg, 1)
    }

    /// Enqueue a data message carrying `lines` log lines (a line batch),
    /// waiting until the whole message fits. `false` only for a closed
    /// queue: the message is not queued and its lines are counted in
    /// [`ShardQueue::dropped`]. One wake-up per push, whatever its weight.
    pub fn push_weighted(&self, msg: T, lines: usize) -> bool {
        let mut inner = self.inner.lock();
        while !inner.closed && !inner.admits(lines, self.capacity) {
            inner = self.not_full.wait(inner);
        }
        if inner.closed {
            // Late lines racing a shutdown are shed, not processed.
            self.dropped.fetch_add(lines as u64, Ordering::Relaxed);
            return false;
        }
        inner.push_back(msg, lines);
        drop(inner);
        // Mutant hook for the model-check self-test: compiling with
        // `--cfg intellog_mutant_lost_wakeup` (on top of intellog_check)
        // deletes this notify, and tests/model_check.rs proves the checker
        // flags the resulting lost wakeup as a forced timeout.
        #[cfg(not(all(intellog_check, intellog_mutant_lost_wakeup)))]
        self.not_empty.notify_one();
        true
    }

    /// Lines a producer may push right now without waiting: the capacity
    /// less the lines queued. A consumer can only raise it, so a queue's
    /// *sole* producer that sizes its pushes by `room()` never waits in
    /// [`ShardQueue::push_weighted`] — how the gateway's event loop feeds
    /// its shards without ever parking on them: when there is no room it
    /// stops parsing that connection, the socket fills, and TCP flow
    /// control does the blocking.
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.inner.lock().lines)
    }

    /// Ask to be told when room frees up: the consumer that next drains the
    /// queue finds the mark ([`ShardQueue::take_room_wanted`]) and wakes the
    /// producer. For a producer that found `room() == 0` and is about to
    /// sleep somewhere this queue cannot reach — the gateway's event loop,
    /// asleep in `poll(2)` with the starved connection left out of its read
    /// set. The order is the protocol: read [`ShardQueue::room`], mark,
    /// **read `room()` again**, and only then give up. A drain that slipped
    /// in between the first read and the mark saw no mark and wakes nobody;
    /// the second read is what catches it (`room()` and the drain take the
    /// same lock, so either the drain comes first and the re-read sees its
    /// room, or the re-read comes first and the drain sees the mark —
    /// `tests/model_check.rs` runs both orders, and the variant without the
    /// re-read, which hangs).
    pub fn want_room(&self) {
        self.room_wanted.store(true, Ordering::SeqCst);
    }

    /// Consumer side of [`ShardQueue::want_room`]: test and clear the mark,
    /// *after* the drain that freed the room. `true`: wake the producer.
    pub fn take_room_wanted(&self) -> bool {
        self.room_wanted.swap(false, Ordering::SeqCst)
    }

    /// Enqueue a control message, ignoring capacity. Control messages keep
    /// FIFO order with data (an End must not overtake its session's lines)
    /// but are invisible to the capacity check, so they never wait.
    pub fn push_control(&self, msg: T) {
        let mut inner = self.inner.lock();
        inner.push_back(msg, 0);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Dequeue *everything* currently queued in one lock round-trip,
    /// waiting up to `timeout` for the first message. The internal deque is
    /// swapped with `out` (which must arrive empty), so the consumer
    /// processes the batch lock-free while producers refill the fresh
    /// (previously drained) buffer — steady state allocates nothing.
    /// Returns the number of messages drained (0 on timeout).
    pub fn drain_timeout(&self, timeout: Duration, out: &mut VecDeque<T>) -> usize {
        debug_assert!(out.is_empty(), "drain target must be empty");
        let mut inner = self.inner.lock();
        loop {
            if !inner.q.is_empty() {
                inner.swap_out(out);
                drop(inner);
                // The whole capacity just freed: wake every blocked producer.
                self.not_full.notify_all();
                return out.len();
            }
            let (next, res) = self.not_empty.wait_timeout(inner, timeout);
            inner = next;
            if res.timed_out() {
                // Take whatever raced in with the timeout, if anything.
                inner.swap_out(out);
                drop(inner);
                if !out.is_empty() {
                    self.not_full.notify_all();
                }
                return out.len();
            }
        }
    }

    /// Close the queue: blocked producers wake and shed their messages, as
    /// does every later push. Already-queued messages stay drainable.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Lines currently queued (a control message counts as one).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.lines + inner.control_len
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines shed so far: those pushed after [`ShardQueue::close`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sync::Arc;

    /// Everything queued, in order, through the consumer's one door.
    fn drain<T>(q: &ShardQueue<T>) -> Vec<T> {
        let mut batch = VecDeque::new();
        q.drain_timeout(Duration::from_millis(1), &mut batch);
        batch.into()
    }

    #[test]
    fn room_is_what_a_sole_producer_may_push_without_waiting() {
        let q = ShardQueue::new(4, Backpressure::Block);
        assert_eq!(q.room(), 4);
        assert!(q.push_weighted("abc", 3));
        assert_eq!(q.room(), 1);
        q.push_control("ctl");
        assert_eq!(q.room(), 1, "control messages take no room");
        assert!(q.push("d"));
        assert_eq!(q.room(), 0, "full: the producer must hold its lines back");
        assert_eq!(q.len(), 5, "four lines and one control message");
        assert_eq!(drain(&q), ["abc", "ctl", "d"]);
        assert_eq!(q.room(), 4, "a drain frees every batch's lines at once");
    }

    /// Capacity 4, batches of 1–6 lines pushed the way the gateway pushes
    /// them — never more than `room()` allows: every line is delivered,
    /// nothing is shed, and control messages keep their place.
    #[test]
    fn weighted_pushes_deliver_every_line() {
        const END: usize = 0; // a control message; data messages are their own weight
        let q = ShardQueue::new(4, Backpressure::Block);
        let (mut sent, mut got, mut controls) = (0, 0, 0);
        let mut batch = VecDeque::new();
        for _round in 0..5 {
            for w in 1..=6usize {
                if q.room() < w.min(4) {
                    // what the gateway does instead of waiting: leave
                    // the lines unsent until the consumer has drained
                    q.drain_timeout(Duration::ZERO, &mut batch);
                    controls += batch.iter().filter(|&&m| m == END).count();
                    got += batch.drain(..).sum::<usize>();
                }
                sent += w;
                assert!(q.push_weighted(w, w));
            }
            q.push_control(END);
        }
        q.drain_timeout(Duration::ZERO, &mut batch);
        controls += batch.iter().filter(|&&m| m == END).count();
        got += batch.drain(..).sum::<usize>();
        assert_eq!(got, sent);
        assert_eq!(controls, 5);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn a_room_request_is_handed_over_once() {
        let q = ShardQueue::new(2, Backpressure::Block);
        assert!(!q.take_room_wanted(), "nobody asked");
        q.push_weighted("ab", 2);
        assert_eq!(q.room(), 0);
        q.want_room();
        q.want_room(); // coalesces
        assert_eq!(q.room(), 0, "the re-read: still full, the producer sleeps");
        let mut batch = VecDeque::new();
        assert_eq!(q.drain_timeout(Duration::ZERO, &mut batch), 1);
        assert!(
            q.take_room_wanted(),
            "the drain after the mark hands it over"
        );
        assert!(!q.take_room_wanted(), "once");
        assert_eq!(q.room(), 2);
    }

    #[test]
    fn close_mid_push_counts_the_whole_batch() {
        let q = Arc::new(ShardQueue::new(4, Backpressure::Block));
        q.push_weighted("abc", 3);
        let q2 = Arc::clone(&q);
        let producer = sync::thread::spawn(move || q2.push_weighted("de", 2));
        sync::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 3, "producer must be blocked: 3 + 2 > 4");
        q.close();
        assert!(!producer.join().unwrap());
        assert_eq!(q.dropped(), 2, "both lines of the late batch are shed");
        assert!(!q.push_weighted("fgh", 3));
        assert_eq!(q.dropped(), 5);
    }

    #[test]
    fn control_bypasses_capacity() {
        let q = ShardQueue::new(1, Backpressure::Block);
        q.push(1);
        q.push_control(99);
        assert_eq!(q.len(), 2);
        assert_eq!(q.room(), 0);
        assert_eq!(drain(&q), [1, 99]);
    }

    #[test]
    fn queued_control_never_blocks_data_and_keeps_its_place() {
        // Capacity counts data only: a backlog of control messages must
        // not take room from a producer (stalling its connection).
        let q = ShardQueue::new(2, Backpressure::Block);
        q.push_control(90);
        q.push_control(91);
        assert_eq!(q.room(), 2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.room(), 0, "data capacity is still enforced");
        q.push_control(92);
        assert_eq!(drain(&q), [90, 91, 1, 2, 92]);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn a_batch_heavier_than_the_capacity_waits_for_an_empty_queue() {
        let q = Arc::new(ShardQueue::new(4, Backpressure::Block));
        q.push("x");
        q.push_control("end");
        let q2 = Arc::clone(&q);
        let producer = sync::thread::spawn(move || q2.push_weighted("123456", 6));
        sync::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2, "producer must be blocked: a line is queued");
        assert_eq!(drain(&q), ["x", "end"]);
        assert!(producer.join().unwrap());
        assert_eq!((q.len(), q.room()), (6, 0), "admitted whole");
        assert_eq!(drain(&q), ["123456"]);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn drain_takes_everything_in_order() {
        let q = ShardQueue::new(8, Backpressure::Block);
        for i in 0..5 {
            q.push(i);
        }
        let mut batch = VecDeque::new();
        assert_eq!(q.drain_timeout(Duration::from_millis(1), &mut batch), 5);
        assert_eq!(
            batch.iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(q.is_empty());
        batch.clear();
        assert_eq!(q.drain_timeout(Duration::from_millis(1), &mut batch), 0);
    }

    #[test]
    fn drain_unblocks_full_producers() {
        let q = Arc::new(ShardQueue::new(1, Backpressure::Block));
        q.push(1);
        let q2 = Arc::clone(&q);
        let producer = sync::thread::spawn(move || q2.push(2));
        sync::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer must be blocked");
        let mut batch = VecDeque::new();
        assert_eq!(q.drain_timeout(Duration::from_millis(500), &mut batch), 1);
        assert!(producer.join().unwrap());
        batch.clear();
        assert_eq!(q.drain_timeout(Duration::from_millis(500), &mut batch), 1);
        assert_eq!(batch.pop_front(), Some(2));
        assert_eq!(q.dropped(), 0, "block never sheds");
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q = Arc::new(ShardQueue::new(1, Backpressure::Block));
        q.push(1);
        let q2 = Arc::clone(&q);
        let producer = sync::thread::spawn(move || q2.push(2));
        sync::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(!producer.join().unwrap());
        // queued data remains drainable after close
        assert_eq!(drain(&q), [1]);
    }
}
