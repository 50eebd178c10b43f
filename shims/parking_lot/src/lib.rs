//! Offline stand-in for `parking_lot`.
//!
//! The build environment has no crates.io access, so the workspace patches
//! `parking_lot` to this crate. Only the API surface the workspace actually
//! calls is provided, with parking_lot's one semantic difference from std
//! that the workspace relies on: locks do not poison. [`Mutex`] and
//! [`RwLock`] wrap `std::sync`'s and swallow poison, so a panic while
//! holding one (an injected thread crash) leaves it usable by survivors.
//!
//! std's locks on Linux are futex locks that spin briefly before they
//! sleep. std's `RwLock` holds new `read`s back while a `write` sleeps,
//! but lets them in again while it wakes that writer, so a writer facing a
//! stream of readers can be overtaken many times; a caller that must not
//! be (the heap's stop-the-world request) queues in front of the lock.
//! There is no recursive read: a thread that re-reads a lock it already
//! reads may deadlock behind a waiting writer, so callers count nested
//! entries instead of re-locking.

use std::ops::{Deref, DerefMut};
use std::sync;

#[derive(Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[derive(Debug)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);

pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard(e.into_inner())),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn rwlock_try_paths() {
        let l = RwLock::new(5u32);
        let r = l.read();
        assert!(l.try_write().is_none(), "writer blocked by reader");
        drop(r);
        let w = l.try_write().expect("free for writer");
        assert!(l.try_write().is_none(), "second writer blocked");
        drop(w);
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn a_panic_under_a_guard_does_not_poison() {
        let l = Arc::new(RwLock::new(0u32));
        let m = Arc::new(Mutex::new(0u32));
        let (l2, m2) = (Arc::clone(&l), Arc::clone(&m));
        std::thread::spawn(move || {
            let _m = m2.lock();
            *l2.write() = 1;
            let _w = l2.write();
            panic!("killed while writing");
        })
        .join()
        .expect_err("the writer panicked");
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || {
            let _r = l2.read();
            panic!("killed while reading");
        })
        .join()
        .expect_err("the reader panicked");
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        *l.try_write().expect("free for writer") += 1;
        assert_eq!(*l.read(), 3);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
