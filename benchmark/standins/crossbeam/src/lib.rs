//! Offline stand-in for the part of `crossbeam` 0.8 that the UniAsk
//! crates call: `scope` (over `std::thread::scope`) and a bounded MPMC
//! `channel` (a mutex-guarded ring with two condition variables).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A scope in which threads may borrow from the caller's stack.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

/// Handle to a thread spawned in a [`Scope`].
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<T> ScopedJoinHandle<'_, T> {
    pub fn join(self) -> std::thread::Result<T> {
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        ScopedJoinHandle {
            inner: inner.spawn(move || f(&Scope { inner })),
        }
    }
}

/// Run `f`, join every thread it spawned, and report a panic in any of
/// them as `Err` (crossbeam's contract; `std::thread::scope` re-panics).
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

pub mod thread {
    pub use super::{scope, Scope, ScopedJoinHandle};
}

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // A panic while the lock is held cannot leave the queue in a
            // torn state (every update is a single VecDeque call).
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// A channel holding at most `capacity` messages (at least one: the
    /// zero-capacity rendezvous channel is not provided).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.min(1024)),
                senders: 1,
                receivers: 1,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, message: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(message));
                }
                if state.queue.len() < self.shared.capacity {
                    state.queue.push_back(message);
                    drop(state);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                state = self
                    .shared
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn try_send(&self, message: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(message));
            }
            if state.queue.len() >= self.shared.capacity {
                return Err(TrySendError::Full(message));
            }
            state.queue.push_back(message);
            drop(state);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(message) = state.queue.pop_front() {
                    drop(state);
                    self.shared.not_full.notify_one();
                    return Ok(message);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.lock();
            match state.queue.pop_front() {
                Some(message) => {
                    drop(state);
                    self.shared.not_full.notify_one();
                    Ok(message)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator that ends when the channel is empty and
        /// every sender is gone.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { receiver: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}
