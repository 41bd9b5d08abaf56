//! Shared-slice helpers for disjoint parallel writes.
//!
//! PRAM-style algorithms constantly scatter to distinct indices of a shared
//! array from many threads. Rust's safe APIs cannot express "these writes
//! are disjoint", so we provide one carefully audited escape hatch, plus an
//! allocator for uninitialized `Copy` buffers that are fully overwritten.

use std::cell::UnsafeCell;

/// A slice wrapper allowing concurrent writes to *disjoint* indices.
///
/// # Safety contract
/// Callers must guarantee that no index is written by two threads in the
/// same parallel phase and that reads of an index do not race with a write
/// to the same index. Debug builds do not check this; algorithms using it
/// must be structured so disjointness is evident (e.g. scatter by unique
/// destination from a prefix sum).
pub struct ParSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

unsafe impl<T: Send + Sync> Sync for ParSlice<'_, T> {}
unsafe impl<T: Send + Sync> Send for ParSlice<'_, T> {}

impl<'a, T> ParSlice<'a, T> {
    /// Wrap a mutable slice for phase-disjoint parallel access.
    pub fn new(data: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` guarantees exclusive access; `UnsafeCell<T>`
        // has the same layout as `T`.
        let data = unsafe { &*(data as *mut [T] as *const [UnsafeCell<T>]) };
        Self { data }
    }

    /// Write `value` at `i`.
    ///
    /// # Safety
    /// No other thread may access index `i` during this parallel phase.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        unsafe { *self.data[i].get() = value }
    }

    /// Read the value at `i`.
    ///
    /// # Safety
    /// No other thread may be writing index `i` during this parallel phase.
    #[inline]
    pub(crate) unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        unsafe { *self.data[i].get() }
    }

    /// Get a mutable reference to element `i`.
    ///
    /// # Safety
    /// Same disjointness contract as [`ParSlice::write`].
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        unsafe { &mut *self.data[i].get() }
    }
}

/// Allocate a `Vec<T>` of length `n` whose contents are unspecified bit
/// patterns. Only valid for `T: Copy` (no drop obligations) and only sound
/// to *read* after every index has been written.
///
/// This is the standard "result buffer for a scatter" allocation; using
/// `vec![T::default(); n]` instead would add an O(n) initialization pass,
/// which shows up in scan/pack benchmarks.
pub(crate) fn uninit_copy_vec<T: Copy>(n: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    // SAFETY: capacity reserved above; `T: Copy` means no drop is run on
    // the uninitialized contents, and callers must overwrite before reading.
    #[allow(clippy::uninit_vec)]
    unsafe {
        v.set_len(n);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_for;

    #[test]
    fn disjoint_parallel_writes() {
        let mut buf = vec![0u64; 100_000];
        {
            let ps = ParSlice::new(&mut buf);
            parallel_for(100_000, |i| unsafe { ps.write(i, i as u64 * 3) });
        }
        assert!(buf.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn uninit_vec_has_len() {
        let mut v: Vec<u32> = uninit_copy_vec(1000);
        assert_eq!(v.len(), 1000);
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = i as u32;
        }
        assert_eq!(v[999], 999);
    }

    #[test]
    fn par_slice_read_after_phase() {
        let mut buf = vec![1u32; 64];
        let ps = ParSlice::new(&mut buf);
        unsafe {
            ps.write(3, 7);
            assert_eq!(ps.read(3), 7);
            *ps.get_mut(4) = 9;
            assert_eq!(ps.read(4), 9);
        }
    }
}
