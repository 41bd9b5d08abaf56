//! Fixed-capacity inline vectors for `Copy` types.
//!
//! RC-tree level records hold at most 3 adjacency entries (bounded-degree
//! forests) and clusters hold at most 3 children. Heap-allocating a `Vec`
//! per record would dominate memory traffic, so we use a tiny inline
//! array + length, the moral equivalent of `arrayvec` specialized to
//! `Copy` payloads (kept dependency-free on purpose).

/// A stack-allocated vector of at most `N` `Copy` elements.
#[derive(Clone, Copy, Debug)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    items: [T; N],
    len: u8,
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self {
            items: [T::default(); N],
            len: 0,
        }
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append an element; panics when full (capacity `N`).
    #[inline]
    pub fn push(&mut self, x: T) {
        assert!((self.len as usize) < N, "InlineVec overflow (capacity {N})");
        self.items[self.len as usize] = x;
        self.len += 1;
    }

    /// Remove the element at `i` (order *not* preserved: swap-remove).
    #[inline]
    fn swap_remove(&mut self, i: usize) -> T {
        let n = self.len();
        assert!(i < n);
        let out = self.items[i];
        self.items[i] = self.items[n - 1];
        self.len -= 1;
        out
    }

    /// Remove the first occurrence of an element matching `pred`;
    /// returns it if found (order not preserved).
    pub fn remove_first<F: FnMut(&T) -> bool>(&mut self, mut pred: F) -> Option<T> {
        (0..self.len())
            .find(|&i| pred(&self.items[i]))
            .map(|i| self.swap_remove(i))
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    /// View as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }

    /// Iterate over elements by value.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.as_slice().iter().copied()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Index<usize> for InlineVec<T, N> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }
}

impl<T: Copy + Default, const N: usize> std::ops::IndexMut<usize> for InlineVec<T, N> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.as_mut_slice()[i]
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    type V3 = InlineVec<u32, 3>;

    fn v3(xs: &[u32]) -> V3 {
        let mut v = V3::new();
        for &x in xs {
            v.push(x);
        }
        v
    }

    #[test]
    fn push_remove_len() {
        let mut v = V3::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.remove_first(|&x| x == 2), Some(2));
        assert_eq!(v.remove_first(|&x| x == 1), Some(1));
        assert!(v.is_empty());
        assert_eq!(v.remove_first(|_| true), None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut v = V3::new();
        for i in 0..4 {
            v.push(i);
        }
    }

    #[test]
    fn swap_remove_semantics() {
        let mut v = v3(&[10, 20, 30]);
        assert_eq!(v.swap_remove(0), 10);
        assert_eq!(v.as_slice(), &[30, 20]);
    }

    #[test]
    fn remove_first_finds_and_removes() {
        let mut v = v3(&[5, 7, 9]);
        assert_eq!(v.remove_first(|&x| x == 7), Some(7));
        assert_eq!(v.len(), 2);
        assert_eq!(v.remove_first(|&x| x == 7), None);
    }

    #[test]
    fn equality_ignores_slack() {
        let mut a = v3(&[1, 2, 3]);
        a.remove_first(|&x| x == 3);
        let b = v3(&[1, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn indexing() {
        let mut v = v3(&[4, 5]);
        v[1] = 6;
        assert_eq!(v[0], 4);
        assert_eq!(v[1], 6);
    }
}
