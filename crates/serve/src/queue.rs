//! Bounded per-shard message queues with pluggable backpressure.
//!
//! std's `sync_channel` only blocks when full; a serving front end also
//! needs load-shedding, so this is a small Mutex+Condvar MPSC queue with
//! three policies ([`Backpressure`]). A message carries a weight — the log
//! lines in it: a line batch weighs its length — and capacity, length and
//! the drop counter are all in lines, so batching changes how often the
//! lock is taken, not what the bounds mean. Control messages (drain,
//! shutdown) weigh nothing and always bypass the capacity check —
//! shedding a drain request under load would deadlock the very mechanism
//! meant to relieve the load.

use std::collections::VecDeque;
use std::str::FromStr;
use std::time::Duration;
use sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sync::{Condvar, Mutex};

/// What to do when a shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the producer (the connection handler) until space frees up —
    /// lossless; TCP flow control pushes back on the client.
    #[default]
    Block,
    /// Drop the incoming line (tail drop) — newest data is sacrificed.
    DropNewest,
    /// Drop the oldest queued line to admit the new one (head drop) —
    /// keeps the stream fresh at the cost of history.
    DropOldest,
}

impl Backpressure {
    /// Canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Backpressure::Block => "block",
            Backpressure::DropNewest => "drop-newest",
            Backpressure::DropOldest => "drop-oldest",
        }
    }
}

impl FromStr for Backpressure {
    type Err = String;

    fn from_str(s: &str) -> Result<Backpressure, String> {
        match s {
            "block" => Ok(Backpressure::Block),
            "drop-newest" => Ok(Backpressure::DropNewest),
            "drop-oldest" => Ok(Backpressure::DropOldest),
            other => Err(format!(
                "unknown backpressure policy '{other}' (use block, drop-newest or drop-oldest)"
            )),
        }
    }
}

/// Outcome of a push, for callers that count drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The message was enqueued.
    Enqueued,
    /// The message itself was shed (drop-newest, or a closed queue).
    DroppedNew,
    /// Older queued messages were shed to admit this one (drop-oldest).
    DroppedOld,
}

struct Inner<T> {
    q: VecDeque<T>,
    /// Lockstep with `q`: how many log lines each message carries (a line
    /// batch weighs its length, `push` weighs 1); 0 marks a control
    /// message. Kept separate so `T` stays opaque; the weights let the
    /// capacity check and drop-oldest eviction see *data* only — evicting
    /// a queued End / Drain / Shutdown to admit log lines would lose
    /// protocol state (or hang whoever waits on that message's ack).
    weights: VecDeque<usize>,
    /// Sum of `weights`: the lines queued, which is what capacity bounds.
    lines: usize,
    /// Count of zero entries in `weights`.
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
        self.weights.push_back(weight);
        self.lines += weight;
        if weight == 0 {
            self.control_len += 1;
        }
    }

    /// Remove the oldest *data* message (drop-oldest eviction) and return
    /// how many lines went with it; 0 only if no data is queued. Control
    /// messages rarely queue up, so the scan is short in practice.
    fn evict_oldest_data(&mut self) -> usize {
        let Some(i) = self.weights.iter().position(|&w| w > 0) else {
            return 0;
        };
        self.q.remove(i);
        let shed = self.weights.remove(i).unwrap_or(0);
        self.lines -= shed;
        shed
    }

    /// Hand everything queued to `out` (which arrives empty).
    fn swap_out(&mut self, out: &mut VecDeque<T>) {
        std::mem::swap(&mut self.q, out);
        self.weights.clear();
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
    policy: Backpressure,
    dropped: AtomicU64,
    /// The producer found no room and will not look again unasked (see
    /// [`ShardQueue::want_room`]).
    room_wanted: AtomicBool,
}

impl<T> ShardQueue<T> {
    /// A queue holding at most `capacity` lines of data messages.
    pub fn new(capacity: usize, policy: Backpressure) -> ShardQueue<T> {
        ShardQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(capacity.min(4096)),
                weights: VecDeque::with_capacity(capacity.min(4096)),
                lines: 0,
                control_len: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            dropped: AtomicU64::new(0),
            room_wanted: AtomicBool::new(false),
        }
    }

    /// Enqueue a one-line data message under the configured policy.
    pub fn push(&self, msg: T) -> PushOutcome {
        self.push_weighted(msg, 1)
    }

    /// Enqueue a data message carrying `lines` log lines (a line batch)
    /// under the configured policy, at message granularity: `block` waits
    /// until the whole message fits, `drop-newest` sheds the whole message
    /// when it does not, `drop-oldest` sheds queued data messages, oldest
    /// first, until it does — every shed line is counted. One wake-up per
    /// push, whatever its weight.
    pub fn push_weighted(&self, msg: T, lines: usize) -> PushOutcome {
        let mut inner = self.inner.lock();
        let mut outcome = PushOutcome::Enqueued;
        if !inner.closed {
            match self.policy {
                Backpressure::Block => {
                    while !inner.closed && !inner.admits(lines, self.capacity) {
                        inner = self.not_full.wait(inner);
                    }
                }
                Backpressure::DropNewest => {
                    if !inner.admits(lines, self.capacity) {
                        outcome = PushOutcome::DroppedNew;
                    }
                }
                Backpressure::DropOldest => {
                    while !inner.admits(lines, self.capacity) {
                        let shed = inner.evict_oldest_data();
                        self.dropped.fetch_add(shed as u64, Ordering::Relaxed);
                        outcome = PushOutcome::DroppedOld;
                    }
                }
            }
        }
        if inner.closed || outcome == PushOutcome::DroppedNew {
            // Late lines racing a shutdown are shed, not processed.
            self.dropped.fetch_add(lines as u64, Ordering::Relaxed);
            return PushOutcome::DroppedNew;
        }
        inner.push_back(msg, lines);
        drop(inner);
        // Mutant hook for the model-check self-test: compiling with
        // `--cfg intellog_mutant_lost_wakeup` (on top of intellog_check)
        // deletes this notify, and tests/model_check.rs proves the checker
        // flags the resulting lost wakeup as a forced timeout.
        #[cfg(not(all(intellog_check, intellog_mutant_lost_wakeup)))]
        self.not_empty.notify_one();
        outcome
    }

    /// Lines a producer may push right now without waiting: the free
    /// capacity under [`Backpressure::Block`], the whole capacity under
    /// the drop policies (they shed instead of waiting). A consumer can
    /// only raise it, so a queue's *sole* producer that sizes its pushes
    /// by `room()` never blocks in [`ShardQueue::push_weighted`] — how the
    /// gateway's event loop feeds its shards without ever parking on
    /// them: when there is no room it stops parsing that connection, the
    /// socket fills, and TCP flow control does the blocking.
    pub fn room(&self) -> usize {
        match self.policy {
            Backpressure::Block => self.capacity.saturating_sub(self.inner.lock().lines),
            Backpressure::DropNewest | Backpressure::DropOldest => self.capacity,
        }
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

    /// Enqueue a control message, ignoring capacity and policy. Control
    /// messages keep FIFO order with data (an End must not overtake its
    /// session's lines) but are invisible to the capacity check and
    /// immune to drop-oldest eviction.
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

    /// Close the queue: blocked producers wake and shed their messages.
    /// Already-queued messages stay drainable.
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

    /// Lines shed so far.
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
    fn policy_parsing() {
        assert_eq!("block".parse(), Ok(Backpressure::Block));
        assert_eq!("drop-newest".parse(), Ok(Backpressure::DropNewest));
        assert_eq!("drop-oldest".parse(), Ok(Backpressure::DropOldest));
        assert!("fifo".parse::<Backpressure>().is_err());
        assert_eq!(Backpressure::DropOldest.name(), "drop-oldest");
    }

    #[test]
    fn room_is_what_a_sole_producer_may_push_without_waiting() {
        let q = ShardQueue::new(4, Backpressure::Block);
        assert_eq!(q.room(), 4);
        assert_eq!(q.push_weighted("abc", 3), PushOutcome::Enqueued);
        assert_eq!(q.room(), 1);
        q.push_control("ctl");
        assert_eq!(q.room(), 1, "control messages take no room");
        assert_eq!(q.push("d"), PushOutcome::Enqueued);
        assert_eq!(q.room(), 0, "full: the producer must hold its lines back");
        assert_eq!(q.len(), 5, "four lines and one control message");
        assert_eq!(drain(&q), ["abc", "ctl", "d"]);
        assert_eq!(q.room(), 4, "a drain frees every batch's lines at once");
        // the drop policies never make a producer wait: they shed instead
        for policy in [Backpressure::DropNewest, Backpressure::DropOldest] {
            let q = ShardQueue::new(4, policy);
            q.push_weighted(0, 4);
            assert_eq!(q.room(), 4);
        }
    }

    /// Capacity 4, batches of 1–6 lines, every policy: each line is either
    /// delivered or counted as shed, control messages are never shed and
    /// keep their place, and nothing is shed under `block`.
    #[test]
    fn weighted_pushes_account_for_every_line_under_every_policy() {
        const END: usize = 0; // a control message; data messages are their own weight
        for policy in [
            Backpressure::Block,
            Backpressure::DropNewest,
            Backpressure::DropOldest,
        ] {
            let q = ShardQueue::new(4, policy);
            let (mut sent, mut got, mut controls) = (0, 0, 0);
            let mut batch = VecDeque::new();
            for _round in 0..5 {
                for w in 1..=6usize {
                    if policy == Backpressure::Block && q.room() < w.min(4) {
                        // what the gateway does instead of waiting: leave
                        // the lines unsent until the consumer has drained
                        q.drain_timeout(Duration::ZERO, &mut batch);
                        controls += batch.iter().filter(|&&m| m == END).count();
                        got += batch.drain(..).sum::<usize>();
                    }
                    sent += w;
                    q.push_weighted(w, w);
                }
                q.push_control(END);
            }
            q.drain_timeout(Duration::ZERO, &mut batch);
            controls += batch.iter().filter(|&&m| m == END).count();
            got += batch.drain(..).sum::<usize>();
            assert_eq!(got as u64 + q.dropped(), sent as u64, "{policy:?}");
            assert_eq!(controls, 5, "{policy:?}: control messages are never shed");
            if policy == Backpressure::Block {
                assert_eq!(q.dropped(), 0, "block never sheds");
            } else {
                assert!(q.dropped() > 0, "{policy:?} must have shed something");
            }
        }
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
    fn drop_policies_shed_whole_batches() {
        let q = ShardQueue::new(4, Backpressure::DropNewest);
        assert_eq!(q.push_weighted("ab", 2), PushOutcome::Enqueued);
        assert_eq!(q.push_weighted("cde", 3), PushOutcome::DroppedNew);
        assert_eq!(q.dropped(), 3, "the whole refused batch is counted");
        assert_eq!(q.push_weighted("fg", 2), PushOutcome::Enqueued);
        assert_eq!(q.len(), 4);

        let q = ShardQueue::new(4, Backpressure::DropOldest);
        q.push_weighted("ab", 2);
        q.push_control("end");
        q.push("c");
        // needs 3 of 4 with 3 queued: the oldest batch goes, whole; the
        // control message in front of "c" is not touched
        assert_eq!(q.push_weighted("def", 3), PushOutcome::DroppedOld);
        assert_eq!(q.dropped(), 2);
        assert_eq!(drain(&q), ["end", "c", "def"]);
        // heavier than the capacity: admitted only once no line is queued
        q.push("x");
        assert_eq!(q.push_weighted("123456", 6), PushOutcome::DroppedOld);
        assert_eq!(q.dropped(), 3);
        assert_eq!(q.len(), 6);
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
        assert_eq!(producer.join().unwrap(), PushOutcome::DroppedNew);
        assert_eq!(q.dropped(), 2, "both lines of the late batch are shed");
        assert_eq!(q.push_weighted("fgh", 3), PushOutcome::DroppedNew);
        assert_eq!(q.dropped(), 5);
    }

    #[test]
    fn drop_newest_sheds_incoming() {
        let q = ShardQueue::new(2, Backpressure::DropNewest);
        assert_eq!(q.push(1), PushOutcome::Enqueued);
        assert_eq!(q.push(2), PushOutcome::Enqueued);
        assert_eq!(q.push(3), PushOutcome::DroppedNew);
        assert_eq!(q.dropped(), 1);
        assert_eq!(drain(&q), [1, 2]);
    }

    #[test]
    fn drop_oldest_sheds_queued() {
        let q = ShardQueue::new(2, Backpressure::DropOldest);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), PushOutcome::DroppedOld);
        assert_eq!(q.dropped(), 1);
        assert_eq!(drain(&q), [2, 3]);
    }

    #[test]
    fn control_bypasses_capacity() {
        let q = ShardQueue::new(1, Backpressure::DropNewest);
        q.push(1);
        q.push_control(99);
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&q), [1, 99]);
    }

    #[test]
    fn drop_oldest_never_evicts_control() {
        // Regression: eviction used to pop_front blindly, so a queued
        // control message (End / Drain ack / Shutdown) in front of the
        // data could be shed — losing protocol state and counting a
        // non-line as a dropped line.
        let q = ShardQueue::new(2, Backpressure::DropOldest);
        q.push_control(90); // oldest entry is control
        q.push(1);
        q.push(2); // data full (control doesn't count toward capacity)
        assert_eq!(q.push(3), PushOutcome::DroppedOld);
        assert_eq!(q.dropped(), 1, "only the data line counts as shed");
        // control survived in its original FIFO position; line 1 is gone
        assert_eq!(drain(&q), [90, 2, 3]);
    }

    #[test]
    fn queued_control_never_blocks_or_sheds_data() {
        // Capacity counts data only: a backlog of control messages must
        // not take room from a Block producer (stalling its connection)
        // or make DropNewest shed incoming lines.
        let q = ShardQueue::new(2, Backpressure::Block);
        q.push_control(90);
        q.push_control(91);
        assert_eq!(q.room(), 2);
        assert_eq!(q.push(1), PushOutcome::Enqueued);
        assert_eq!(q.push(2), PushOutcome::Enqueued);
        assert_eq!(q.room(), 0, "data capacity is still enforced");
        let q = ShardQueue::new(1, Backpressure::DropNewest);
        q.push_control(90);
        assert_eq!(q.push(1), PushOutcome::Enqueued);
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
        assert_eq!(producer.join().unwrap(), PushOutcome::Enqueued);
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
        assert_eq!(producer.join().unwrap(), PushOutcome::DroppedNew);
        // queued data remains drainable after close
        assert_eq!(drain(&q), [1]);
    }
}
