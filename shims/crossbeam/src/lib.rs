//! Offline shim for the subset of `crossbeam` used by this workspace.
//!
//! The build environment has no network access to a crates.io mirror, so the
//! workspace vendors the tiny API slice it actually needs on top of `std`:
//! bounded MPSC channels (`crossbeam::channel`) and `CachePadded`
//! (`crossbeam::utils`). Semantics match the real crate for this slice: a
//! receiver may be shared between threads, as the real one may, though
//! receivers sharing one queue take turns (the pool owns every receiver
//! of its channels and each has one reader).

pub mod channel {
    //! Bounded channels over `std::sync::mpsc::sync_channel`.

    use std::sync::{mpsc, Mutex, PoisonError};

    /// Sending half of a bounded channel.
    pub struct Sender<T>(mpsc::SyncSender<T>);

    /// Receiving half of a bounded channel. The lock makes it `Sync`, like
    /// the real crate's; uncontended, it costs one atomic exchange a
    /// receive and allocates nothing.
    pub struct Receiver<T>(Mutex<mpsc::Receiver<T>>);

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> core::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks until there is room in the channel, then sends `msg`.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender has disconnected.
        pub fn recv(&self) -> Result<T, RecvError> {
            let rx = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv().map_err(|_| RecvError)
        }
    }

    /// Creates a bounded channel of the given capacity (0 = rendezvous).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(Mutex::new(rx)))
    }
}

pub mod utils {
    //! `CachePadded`: aligns a value to (at least) one cache line so that
    //! adjacent values in a collection never share a line (false sharing).

    /// Pads and aligns `T` to 128 bytes (two 64-byte lines, matching the
    /// real crate's choice on x86_64 where the spatial prefetcher pulls
    /// pairs of lines).
    #[derive(Default, Debug, Clone, Copy)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value`.
        pub const fn new(value: T) -> Self {
            Self { value }
        }

        /// Consumes the wrapper, returning the value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> core::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> core::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;
    use super::utils::CachePadded;

    #[test]
    fn channel_roundtrip() {
        let (tx, rx) = bounded(2);
        tx.send(1u32).unwrap();
        let tx2 = tx.clone();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop((tx, tx2));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn cache_padded_is_aligned() {
        let v = [CachePadded::new(0u8), CachePadded::new(1u8)];
        let a = &v[0] as *const _ as usize;
        let b = &v[1] as *const _ as usize;
        assert!(b - a >= 128);
        assert_eq!(a % 128, 0);
        assert_eq!(*v[1], 1);
    }
}
