//! The inline list [`super::LocalView::successor_list`] returns.

use autobal_id::Id;

/// Entries a [`SuccList`] holds in place before it spills to the heap.
const SUCC_INLINE: usize = 16;

/// A short list stored inline: up to `SUCC_INLINE` (16) entries live in the
/// value itself, so building one allocates nothing; a longer list moves
/// to the heap once. Dereferences to a slice.
#[derive(Clone)]
pub struct SuccList<T: Copy + Default = Id> {
    len: usize,
    inline: [T; SUCC_INLINE],
    /// Every entry once `len` exceeds `SUCC_INLINE`; empty before.
    spill: Vec<T>,
}

impl<T: Copy + Default> SuccList<T> {
    pub fn new() -> SuccList<T> {
        SuccList {
            len: 0,
            inline: [T::default(); SUCC_INLINE],
            spill: Vec::new(),
        }
    }

    pub fn push(&mut self, v: T) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = v,
            None => {
                if self.spill.is_empty() {
                    self.spill.extend_from_slice(&self.inline);
                }
                self.spill.push(v);
            }
        }
        self.len += 1;
    }

    /// Empties the list, keeping any heap capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl<T: Copy + Default> Default for SuccList<T> {
    fn default() -> SuccList<T> {
        SuccList::new()
    }
}

impl<T: Copy + Default> std::ops::Deref for SuccList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len > SUCC_INLINE {
            &self.spill
        } else {
            self.inline.get(..self.len).unwrap_or_default()
        }
    }
}

impl<T: Copy + Default + std::fmt::Debug> std::fmt::Debug for SuccList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for SuccList<T> {
    fn eq(&self, other: &SuccList<T>) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default> FromIterator<T> for SuccList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SuccList<T> {
        let mut list = SuccList::new();
        for v in iter {
            list.push(v);
        }
        list
    }
}

impl<'a, T: Copy + Default> IntoIterator for &'a SuccList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_then_spills_in_order() {
        let mut list: SuccList<u64> = (0..SUCC_INLINE as u64).collect();
        assert_eq!(list.len(), SUCC_INLINE);
        assert!(list.spill.is_empty(), "a full inline list has not spilled");
        list.push(99);
        let want: Vec<u64> = (0..SUCC_INLINE as u64).chain([99]).collect();
        assert_eq!(&*list, want.as_slice());
        list.clear();
        assert!(list.is_empty());
        list.push(7);
        assert_eq!(&*list, &[7]);
        assert_eq!(list, [7u64].into_iter().collect());
    }
}
