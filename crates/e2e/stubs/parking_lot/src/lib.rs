//! Offline stand-in for the `parking_lot` surface this workspace uses: a
//! `Mutex` whose `lock` returns the guard directly. Backed by
//! `std::sync::Mutex`; a poisoned lock is recovered because `parking_lot`
//! has no poisoning. See `../rand` for why the stubs exist.

use std::sync::{self, MutexGuard};

/// Mutual exclusion without lock poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }
}
