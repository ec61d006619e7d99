//! The one lock every obs store sits behind.
//!
//! A registry is single-writer by construction — each run owns one, and a
//! parallel run gives every worker a private one — so its locks are never
//! contended and what a lock costs is its atomic read-modify-writes. A
//! futex mutex pays two per critical section (the acquiring
//! compare-exchange and the releasing swap); [`Lock`] pays one: acquire is a
//! `swap(true)`, release a plain `store(false)`.
//!
//! Under contention a waiter spins on a plain load, so the line stays shared
//! until the holder's release, and yields its time slice once the spin
//! runs out. There is no poisoning: the guard releases on unwind too, and
//! every obs store already ignored poisoning, so a panic inside a locked
//! section leaves the lock free for the next caller.
//!
//! All of the crate's `unsafe` is in this file.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// Loads a waiter spins through before it yields.
const SPINS: u32 = 64;

/// Mutual exclusion over a `T` for one atomic swap per critical section.
pub(crate) struct Lock<T> {
    held: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: `value` is reached only through a `LockGuard`, and a guard exists
// only while `held` is true — set by the `swap` that returned false in
// `lock`, cleared by the guard's drop — so at most one thread holds a `&T`
// or `&mut T` at a time. The `Acquire` swap pairs with the `Release` store
// of the previous holder, so each holder sees every write its predecessor
// made. Handing `T` between threads that way needs only `T: Send`, as for
// the standard library's mutex.
unsafe impl<T: Send> Sync for Lock<T> {}

// A panic inside a critical section can leave `T` half-updated for the next
// holder, as a poisoned mutex whose poison was ignored did; the obs stores
// accept that, so a `&Lock` crosses `catch_unwind` as a reference to the
// standard library's mutex does.
impl<T> std::panic::RefUnwindSafe for Lock<T> {}

impl<T> Lock<T> {
    /// An unlocked lock around `value`.
    pub(crate) fn new(value: T) -> Lock<T> {
        Lock {
            held: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Blocks until the lock is free, then holds it until the guard drops.
    /// Not reentrant: locking a lock this thread holds never returns.
    #[inline]
    pub(crate) fn lock(&self) -> LockGuard<'_, T> {
        loop {
            if let Some(guard) = self.try_lock() {
                return guard;
            }
            self.wait();
        }
    }

    /// The guard if the lock was free; `None`, having waited for nothing,
    /// if it was held.
    #[inline]
    fn try_lock(&self) -> Option<LockGuard<'_, T>> {
        // Lazily: a guard built for a held lock would release it on drop.
        (!self.held.swap(true, Ordering::Acquire)).then(|| LockGuard {
            lock: self,
            _value: PhantomData,
        })
    }

    /// Waits, without writing the lock's line, until it looks free.
    #[cold]
    fn wait(&self) {
        let mut spins = 0;
        while self.held.load(Ordering::Relaxed) {
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Lock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Lock");
        // Never wait here: a `Debug` of a held lock (a panic message built
        // inside its critical section, say) would never return.
        match self.try_lock() {
            Some(guard) => d.field("value", &*guard),
            None => d.field("value", &format_args!("<locked>")),
        };
        d.finish()
    }
}

/// Exclusive access to a [`Lock`]'s value; dropping it releases the lock.
pub(crate) struct LockGuard<'a, T> {
    lock: &'a Lock<T>,
    /// Makes the guard `Send` and `Sync` exactly when `&mut T` is.
    _value: PhantomData<&'a mut T>,
}

impl<T> Deref for LockGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the lock (see the `Sync` impl), and the
        // borrow cannot outlive it.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for LockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`; `&mut self` makes the borrow unique.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for LockGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.held.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Exclusion and release on unwind are tested through the registry, in
    // `tests/contention.rs`.

    #[test]
    fn debug_does_not_wait_for_a_held_lock() {
        let lock = Lock::new(7);
        assert_eq!(format!("{lock:?}"), "Lock { value: 7 }");
        let g = lock.lock();
        assert_eq!(format!("{lock:?}"), "Lock { value: <locked> }");
        assert!(
            lock.try_lock().is_none(),
            "a failed attempt released the lock"
        );
        drop(g);
        assert_eq!(format!("{lock:?}"), "Lock { value: 7 }");
    }
}
