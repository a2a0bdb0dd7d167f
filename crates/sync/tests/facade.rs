//! Behavioral tests for the facade in its normal (std-passthrough) mode.
//! These also run under `--cfg intellog_check` outside any exploration,
//! where every primitive must fall back to std semantics.

use std::collections::VecDeque;
use std::time::Duration;
use sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sync::{mpsc, thread, Arc, Condvar, Mutex, RwLock};

#[test]
fn mutex_basic() {
    let m = Mutex::new(1);
    {
        let mut g = m.lock();
        *g += 1;
    }
    assert_eq!(*m.lock(), 2);
    assert!(m.try_lock().is_some());
    {
        let _g = m.lock();
        assert!(m.try_lock().is_none());
    }
    assert_eq!(m.into_inner(), 2);
}

#[test]
fn mutex_survives_poison() {
    let m = Arc::new(Mutex::new(5));
    let m2 = Arc::clone(&m);
    let res = thread::spawn(move || {
        let _g = m2.lock();
        panic!("poison the lock");
    })
    .join();
    assert!(res.is_err());
    // The facade swallows poison instead of cascading panics.
    assert_eq!(*m.lock(), 5);
}

#[test]
fn condvar_notify_and_timeout() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));

    // Timeout path.
    let (lock, cv) = (&pair.0, &pair.1);
    let g = lock.lock();
    let (g, res) = cv.wait_timeout(g, Duration::from_millis(5));
    assert!(res.timed_out());
    drop(g);

    // Notify path.
    let pair2 = Arc::clone(&pair);
    let waiter = thread::spawn(move || {
        let (lock, cv) = (&pair2.0, &pair2.1);
        let mut ready = lock.lock();
        while !*ready {
            ready = cv.wait(ready);
        }
    });
    {
        let (lock, cv) = (&pair.0, &pair.1);
        *lock.lock() = true;
        cv.notify_one();
    }
    waiter.join().expect("waiter exits after notify");
}

#[test]
fn rwlock_readers_and_writer() {
    let l = Arc::new(RwLock::new(vec![1, 2, 3]));
    {
        // Concurrent readers share the lock (one guard per thread — the
        // debug-build order detector flags re-entrant reads on a single
        // thread, which can deadlock against a queued writer).
        let l2 = Arc::clone(&l);
        let reader = thread::spawn(move || l2.read().len());
        let here = l.read().len();
        assert_eq!(here + reader.join().expect("reader exits"), 6);
    }
    {
        let mut w = l.write();
        w.push(4);
    }
    assert_eq!(l.read().len(), 4);
}

#[test]
fn atomics_roundtrip() {
    let b = AtomicBool::new(false);
    b.store(true, Ordering::SeqCst);
    assert!(b.load(Ordering::SeqCst));
    let n = AtomicU64::new(3);
    assert_eq!(n.fetch_add(4, Ordering::Relaxed), 3);
    assert_eq!(n.load(Ordering::Relaxed), 7);
    assert_eq!(
        n.compare_exchange(7, 9, Ordering::SeqCst, Ordering::SeqCst),
        Ok(7)
    );
}

#[test]
fn mpsc_channel_roundtrip() {
    let (tx, rx) = mpsc::channel();
    let tx2 = tx.clone();
    let producer = thread::spawn(move || {
        for i in 0..10 {
            tx2.send(i).expect("receiver alive");
        }
    });
    for i in 0..10 {
        assert_eq!(rx.recv(), Ok(i));
    }
    producer.join().expect("producer exits");
    drop(tx);
    assert!(rx.recv().is_err(), "all senders gone");
}

#[test]
fn facade_types_compose_into_a_queue() {
    // A miniature producer/consumer over facade primitives only, as the
    // serve ShardQueue does at full scale.
    struct Q {
        inner: Mutex<VecDeque<u32>>,
        ready: Condvar,
    }
    let q = Arc::new(Q {
        inner: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    });
    let q2 = Arc::clone(&q);
    let producer = thread::spawn(move || {
        for i in 0..100 {
            q2.inner.lock().push_back(i);
            q2.ready.notify_one();
        }
    });
    let mut got = 0;
    while got < 100 {
        let mut g = q.inner.lock();
        while g.is_empty() {
            let (next, _) = q.ready.wait_timeout(g, Duration::from_millis(50));
            g = next;
        }
        while g.pop_front().is_some() {
            got += 1;
        }
    }
    producer.join().expect("producer exits");
    assert_eq!(got, 100);
}
