//! RCU-style published pointer: readers dereference an immutable snapshot
//! under an epoch pin; writers replace the snapshot wholesale and retire
//! the old one through the epoch collector.

use crate::epoch::{self, Guard};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A published pointer to an immutable `T`.
///
/// * `load` is wait-free: one atomic load, no lock. The returned reference
///   is valid for the lifetime of the caller's pin guard.
/// * `publish` swaps in a new snapshot and defers dropping the old one
///   until every reader pinned before the swap has unpinned. Concurrent
///   publishers must be serialized externally (in DENOVA every `RcuCell`
///   is written under an existing mutex — the inode map's shard lock).
pub struct RcuCell<T: Send + Sync + 'static> {
    ptr: AtomicPtr<T>,
}

impl<T: Send + Sync + 'static> RcuCell<T> {
    /// An empty cell (readers see `None`).
    pub fn empty() -> RcuCell<T> {
        RcuCell {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }

    pub fn new(value: T) -> RcuCell<T> {
        RcuCell {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// Read the current snapshot. The reference lives as long as the pin.
    #[inline]
    pub fn load<'g>(&self, _guard: &'g Guard) -> Option<&'g T> {
        let p = self.ptr.load(Ordering::Acquire);
        // SAFETY: a non-null pointer was published by `publish`/`new` and,
        // if since replaced, is retired through the epoch collector — it
        // cannot be freed while the caller's pin (which began before this
        // load) is live.
        unsafe { p.as_ref() }
    }

    /// Publish a new snapshot; the previous one is dropped after a grace
    /// period. Callers must serialize publishes externally.
    pub fn publish(&self, value: T) {
        let new = Box::into_raw(Box::new(value));
        let old = self.ptr.swap(new, Ordering::AcqRel);
        if !old.is_null() {
            let old = RawBox(old);
            epoch::defer(move || {
                let b = old;
                drop(unsafe { Box::from_raw(b.0) });
            });
        }
    }
}

impl<T: Send + Sync + 'static> Drop for RcuCell<T> {
    fn drop(&mut self) {
        // `&mut self` proves no reader borrowed through `&self` is live,
        // but a reader on another thread may still hold the reference via
        // an earlier pin if the owner dropped the containing structure
        // while shared — retire through the collector to stay safe.
        let p = self.ptr.swap(ptr::null_mut(), Ordering::AcqRel);
        if !p.is_null() {
            let p = RawBox(p);
            epoch::defer(move || {
                let b = p;
                drop(unsafe { Box::from_raw(b.0) });
            });
        }
    }
}

impl<T: Send + Sync + 'static> Default for RcuCell<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T: Send + Sync + std::fmt::Debug + 'static> std::fmt::Debug for RcuCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = epoch::pin();
        f.debug_tuple("RcuCell").field(&self.load(&g)).finish()
    }
}

/// Send wrapper for a raw pointer captured by a deferred free closure.
struct RawBox<T>(*mut T);
// SAFETY: the pointee is `Send` (T: Send) and the wrapper only moves the
// pointer into the collector thread that runs the deferred drop.
unsafe impl<T: Send> Send for RawBox<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_then_load_round_trips() {
        let cell = RcuCell::new(vec![1, 2, 3]);
        let g = epoch::pin();
        assert_eq!(cell.load(&g).unwrap(), &vec![1, 2, 3]);
        cell.publish(vec![4]);
        assert_eq!(cell.load(&g).unwrap(), &vec![4]);
    }

    #[test]
    fn concurrent_readers_always_see_a_complete_snapshot() {
        // Snapshots are (n, n * 2) pairs; a torn or freed snapshot would
        // fail the invariant or crash under ASan/TSan.
        let cell = Arc::new(RcuCell::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let g = epoch::pin();
                        let (a, b) = *cell.load(&g).unwrap();
                        assert_eq!(b, a * 2);
                    }
                })
            })
            .collect();
        for i in 1..=5_000u64 {
            cell.publish((i, i * 2));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        epoch::try_collect();
    }
}
