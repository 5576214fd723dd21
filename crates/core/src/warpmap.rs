//! A map keyed by `(warp, register)`, stored as a dense table.
//!
//! The OSU tag store, the compressor's value table and the register
//! backing store are all looked up by `(warp, register)` on every preload,
//! writeback and eviction. Warp and register ids are small and dense, so a
//! row per warp indexed by register id answers each lookup with two array
//! reads instead of a hash.

use regless_isa::Reg;

/// A `(warp, register) → V` map. Rows grow on first insert, so the table
/// only covers the warps and registers that were ever stored.
#[derive(Clone, Debug)]
pub(crate) struct WarpRegMap<V> {
    rows: Vec<Vec<Option<V>>>,
    len: usize,
}

impl<V> Default for WarpRegMap<V> {
    fn default() -> Self {
        WarpRegMap {
            rows: Vec::new(),
            len: 0,
        }
    }
}

impl<V> WarpRegMap<V> {
    /// An empty map.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn slot(&self, warp: usize, reg: Reg) -> Option<&Option<V>> {
        self.rows.get(warp)?.get(reg.index())
    }

    fn slot_mut(&mut self, warp: usize, reg: Reg) -> Option<&mut Option<V>> {
        self.rows.get_mut(warp)?.get_mut(reg.index())
    }

    /// The value stored for `(warp, reg)`.
    pub(crate) fn get(&self, warp: usize, reg: Reg) -> Option<&V> {
        self.slot(warp, reg)?.as_ref()
    }

    /// Whether `(warp, reg)` has a value.
    pub(crate) fn contains(&self, warp: usize, reg: Reg) -> bool {
        self.get(warp, reg).is_some()
    }

    /// Store `value` for `(warp, reg)`; returns the value it replaced.
    pub(crate) fn insert(&mut self, warp: usize, reg: Reg, value: V) -> Option<V> {
        if self.rows.len() <= warp {
            self.rows.resize_with(warp + 1, Vec::new);
        }
        let row = &mut self.rows[warp];
        if row.len() <= reg.index() {
            row.resize_with(reg.index() + 1, || None);
        }
        let old = row[reg.index()].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove and return the value stored for `(warp, reg)`.
    pub(crate) fn remove(&mut self, warp: usize, reg: Reg) -> Option<V> {
        let old = self.slot_mut(warp, reg)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Number of stored values.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(usize, u16, u32),
        Remove(usize, u16),
        Get(usize, u16),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0usize..6, 0u16..10, any::<u32>(), 0u8..3).prop_map(|(w, r, v, k)| match k {
            0 => Op::Insert(w, r, v),
            1 => Op::Remove(w, r),
            _ => Op::Get(w, r),
        })
    }

    proptest! {
        /// The dense map answers every operation exactly as the hashed
        /// map it replaced, on random insert/get/remove sequences.
        #[test]
        fn matches_a_hash_map(ops in proptest::collection::vec(arb_op(), 1..300)) {
            let mut dense = WarpRegMap::new();
            let mut reference: HashMap<(usize, Reg), u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(w, r, v) => {
                        prop_assert_eq!(dense.insert(w, Reg(r), v), reference.insert((w, Reg(r)), v));
                    }
                    Op::Remove(w, r) => {
                        prop_assert_eq!(dense.remove(w, Reg(r)), reference.remove(&(w, Reg(r))));
                    }
                    Op::Get(w, r) => {
                        prop_assert_eq!(dense.get(w, Reg(r)), reference.get(&(w, Reg(r))));
                        prop_assert_eq!(dense.contains(w, Reg(r)), reference.contains_key(&(w, Reg(r))));
                    }
                }
                prop_assert_eq!(dense.len(), reference.len());
            }
        }
    }
}
