//! Request coalescing: concurrent identical requests share one
//! computation instead of stampeding the worker pool.
//!
//! The first caller for a key becomes the *leader* and runs the closure;
//! every caller that arrives while the leader is computing becomes a
//! *follower* and blocks on a condvar until the leader publishes the
//! result. Pipeline runs are deterministic, so handing every follower
//! the leader's bytes is not an approximation — it is exactly the
//! response they would have computed.
//!
//! A leader that panics does not strand its followers: a drop guard
//! releases the key and wakes them, and each retries, one of them as the
//! new leader.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Where an in-flight call stands.
#[derive(Debug, Default)]
enum State {
    /// The leader is still computing.
    #[default]
    Pending,
    /// The leader published its value.
    Done(String),
    /// The leader panicked before publishing.
    Abandoned,
}

#[derive(Debug, Default)]
struct Call {
    state: Mutex<State>,
    ready: Condvar,
}

/// Locks `m`, recovering from poisoning: no code panics while holding
/// these locks, so their data is always consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a [`SingleFlight::run`] call obtained its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// This caller ran the computation.
    Led(String),
    /// This caller waited on an identical in-flight computation.
    Coalesced(String),
}

impl Outcome {
    /// The computed value, however it was obtained.
    pub fn into_value(self) -> String {
        match self {
            Outcome::Led(v) | Outcome::Coalesced(v) => v,
        }
    }
}

/// The coalescing map.
#[derive(Debug, Default)]
pub struct SingleFlight {
    calls: Mutex<HashMap<String, Arc<Call>>>,
}

/// The leader's drop guard: whether the leader returns or unwinds, it
/// releases the key and wakes every follower with the value, or with
/// [`State::Abandoned`] if there is none.
struct Leader<'a> {
    flights: &'a SingleFlight,
    key: &'a str,
    call: &'a Call,
    value: Option<String>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        lock(&self.flights.calls).remove(self.key);
        *lock(&self.call.state) = match self.value.take() {
            Some(value) => State::Done(value),
            None => State::Abandoned,
        };
        self.call.ready.notify_all();
    }
}

impl SingleFlight {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `compute` for `key`, unless an identical call is already in
    /// flight — then blocks until that call finishes and returns its
    /// value. If that call's leader panics, this caller retries, and
    /// leads if no other caller got there first.
    pub fn run(&self, key: &str, compute: impl FnOnce() -> String) -> Outcome {
        loop {
            let (call, leader) = {
                let mut calls = lock(&self.calls);
                match calls.get(key) {
                    Some(call) => (Arc::clone(call), false),
                    None => {
                        let call = Arc::new(Call::default());
                        calls.insert(key.to_string(), Arc::clone(&call));
                        (call, true)
                    }
                }
            };

            if leader {
                let mut guard = Leader {
                    flights: self,
                    key,
                    call: &call,
                    value: None,
                };
                let value = compute();
                guard.value = Some(value.clone());
                return Outcome::Led(value);
            }
            let state = call
                .ready
                .wait_while(lock(&call.state), |state| matches!(state, State::Pending))
                .unwrap_or_else(PoisonError::into_inner);
            if let State::Done(value) = &*state {
                return Outcome::Coalesced(value.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn solo_caller_leads() {
        let sf = SingleFlight::new();
        let out = sf.run("k", || "v".to_string());
        assert_eq!(out, Outcome::Led("v".to_string()));
        // The key is released afterwards: the next caller leads again.
        let out = sf.run("k", || "v2".to_string());
        assert_eq!(out, Outcome::Led("v2".to_string()));
    }

    #[test]
    fn concurrent_callers_share_one_computation() {
        const CALLERS: usize = 8;
        let sf = Arc::new(SingleFlight::new());
        let computations = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(CALLERS));
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let computations = Arc::clone(&computations);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    sf.run("k", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the other
                        // callers to pile in.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        "shared".to_string()
                    })
                })
            })
            .collect();
        let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let leaders = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Led(_)))
            .count();
        // Every caller that overlapped the leader coalesced; stragglers
        // that arrived after completion lead their own (fast) flight.
        assert!(leaders >= 1);
        assert_eq!(
            leaders as u64,
            computations.load(Ordering::SeqCst),
            "exactly one computation per leader"
        );
        for o in &outcomes {
            assert_eq!(o.clone().into_value(), "shared");
        }
    }

    #[test]
    fn panicking_leader_hands_the_key_to_a_follower() {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        let sf = Arc::new(SingleFlight::new());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sf.run("k", || {
                    entered_tx.send(()).unwrap();
                    let _ = fail_rx.recv();
                    panic!("leader failed");
                })
            })
        };
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let follower = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || done_tx.send(sf.run("k", || "retried".to_string())))
        };
        // The follower has joined the flight once it holds the third
        // reference to the call (after the map's and the leader's).
        let deadline = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&sf.calls.lock().unwrap()["k"]) < 3 {
            assert!(
                Instant::now() < deadline,
                "follower never joined the flight"
            );
            std::thread::yield_now();
        }
        fail_tx.send(()).unwrap();
        assert!(leader.join().is_err(), "the leader panicked");
        let out = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the follower must not block on a panicked leader");
        assert_eq!(out, Outcome::Led("retried".to_string()));
        follower.join().unwrap().unwrap();
        assert!(sf.calls.lock().unwrap().is_empty(), "the key is released");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = SingleFlight::new();
        assert_eq!(sf.run("a", || "1".into()), Outcome::Led("1".into()));
        assert_eq!(sf.run("b", || "2".into()), Outcome::Led("2".into()));
    }
}
