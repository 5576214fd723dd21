//! Dominator and postdominator analysis.

use regless_isa::{BlockId, Kernel, Opcode};

/// Dominator or postdominator sets for every block of a kernel, computed by
/// iterative bit-set dataflow.
///
/// A block *a* dominates *b* if every path from the entry to *b* passes
/// through *a*; it postdominates *b* if every path from *b* to an exit
/// passes through *a*. Both relations are reflexive here, matching the
/// paper's use of "strict" variants where self is explicitly excluded
/// (Algorithm 2 lines 3 and 5).
///
/// Blocks unreachable from the entry have empty dominator sets; blocks that
/// cannot reach an exit have empty postdominator sets.
#[derive(Clone, Debug)]
pub struct DomInfo {
    /// `doms[b]` = bitmap of blocks dominating `b` (including `b`).
    doms: Vec<Vec<u64>>,
    /// `pdoms[b]` = bitmap of blocks postdominating `b` (including `b`).
    pdoms: Vec<Vec<u64>>,
    /// `ipdom[b]` = immediate postdominator of `b`, computed once because
    /// the simulator asks at every divergent branch.
    ipdom: Vec<Option<BlockId>>,
    num_blocks: usize,
}

fn full(n: usize) -> Vec<u64> {
    let mut v = vec![u64::MAX; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        *v.last_mut().expect("non-empty") = (1u64 << (n % 64)) - 1;
    }
    v
}

fn only(n: usize, b: usize) -> Vec<u64> {
    let mut v = vec![0u64; n.div_ceil(64)];
    v[b / 64] |= 1 << (b % 64);
    v
}

fn has(set: &[u64], b: usize) -> bool {
    set[b / 64] & (1 << (b % 64)) != 0
}

/// Solves `out[b] = {b} ∪ ⋂_{p ∈ ins(b)} out[p]` with `out[root] = {root}`,
/// the classic iterative dominance formulation.
fn solve(num_blocks: usize, roots: &[usize], ins: &[Vec<usize>], order: &[usize]) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = (0..num_blocks).map(|_| full(num_blocks)).collect();
    for &r in roots {
        out[r] = only(num_blocks, r);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order {
            if roots.contains(&b) {
                continue;
            }
            let mut next = if ins[b].is_empty() {
                // Unreachable in this direction: no block relates to it.
                vec![0; num_blocks.div_ceil(64)]
            } else {
                let mut acc = out[ins[b][0]].clone();
                for &p in &ins[b][1..] {
                    for (a, q) in acc.iter_mut().zip(&out[p]) {
                        *a &= q;
                    }
                }
                acc
            };
            let bit = &mut next[b / 64];
            *bit |= 1 << (b % 64);
            if next != out[b] {
                out[b] = next;
                changed = true;
            }
        }
    }
    out
}

impl DomInfo {
    /// Compute dominators and postdominators for `kernel`.
    ///
    /// Postdominators treat every block containing an `Exit` terminator as a
    /// root of the reversed CFG.
    pub fn compute(kernel: &Kernel) -> Self {
        let n = kernel.num_blocks();
        let preds: Vec<Vec<usize>> = kernel
            .predecessors()
            .into_iter()
            .map(|ps| ps.into_iter().map(BlockId::index).collect())
            .collect();
        let succs: Vec<Vec<usize>> = kernel
            .blocks()
            .iter()
            .map(|b| b.successors().into_iter().map(BlockId::index).collect())
            .collect();

        let forward_order: Vec<usize> = (0..n).collect();
        let backward_order: Vec<usize> = (0..n).rev().collect();

        let exits: Vec<usize> = kernel
            .blocks()
            .iter()
            .filter(|b| matches!(b.terminator().op(), Opcode::Exit))
            .map(|b| b.id().index())
            .collect();

        let doms = solve(n, &[kernel.entry().index()], &preds, &forward_order);
        let pdoms = solve(n, &exits, &succs, &backward_order);
        let mut info = DomInfo {
            doms,
            pdoms,
            ipdom: Vec::new(),
            num_blocks: n,
        };
        info.ipdom = (0..n)
            .map(|b| info.find_immediate_postdominator(BlockId(b as u32)))
            .collect();
        info
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        has(&self.doms[b.index()], a.index())
    }

    /// Whether `a` postdominates `b` (reflexively).
    pub fn postdominates(&self, a: BlockId, b: BlockId) -> bool {
        has(&self.pdoms[b.index()], a.index())
    }

    /// All blocks dominating `b`, including `b` itself.
    pub fn dominators(&self, b: BlockId) -> Vec<BlockId> {
        (0..self.num_blocks)
            .filter(|&a| has(&self.doms[b.index()], a))
            .map(|a| BlockId(a as u32))
            .collect()
    }

    /// All blocks postdominating `b`, including `b` itself.
    pub fn postdominators(&self, b: BlockId) -> Vec<BlockId> {
        (0..self.num_blocks)
            .filter(|&a| has(&self.pdoms[b.index()], a))
            .map(|a| BlockId(a as u32))
            .collect()
    }

    /// The immediate postdominator of `b`: the unique strict postdominator
    /// postdominated by every other strict postdominator of `b`. `None` for
    /// exit blocks and blocks that reach no exit.
    ///
    /// The simulator uses this as the SIMT reconvergence point of divergent
    /// branches.
    pub fn immediate_postdominator(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom[b.index()]
    }

    /// Search the postdominator sets for `b`'s immediate postdominator.
    fn find_immediate_postdominator(&self, b: BlockId) -> Option<BlockId> {
        let strict: Vec<BlockId> = self
            .postdominators(b)
            .into_iter()
            .filter(|&p| p != b)
            .collect();
        strict
            .iter()
            .copied()
            .find(|&cand| strict.iter().all(|&other| self.postdominates(other, cand)))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use regless_isa::{Kernel, KernelBuilder};

    /// Naive dominance: a dominates b iff removing a disconnects b from the
    /// entry (checked by reachability with a excluded).
    fn naive_dominates(kernel: &Kernel, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        // BFS from entry avoiding `a`.
        let mut seen = vec![false; kernel.num_blocks()];
        let mut queue = vec![kernel.entry().index()];
        while let Some(n) = queue.pop() {
            if n == a || seen[n] {
                continue;
            }
            seen[n] = true;
            for s in kernel.block(BlockId(n as u32)).successors() {
                queue.push(s.index());
            }
        }
        // b unreachable without a, but reachable at all.
        let reachable_with_a = {
            let mut seen2 = vec![false; kernel.num_blocks()];
            let mut q = vec![kernel.entry().index()];
            while let Some(n) = q.pop() {
                if seen2[n] {
                    continue;
                }
                seen2[n] = true;
                for s in kernel.block(BlockId(n as u32)).successors() {
                    q.push(s.index());
                }
            }
            seen2[b]
        };
        reachable_with_a && !seen[b]
    }

    /// Random structured CFGs: nested diamonds and chains.
    fn arb_cfg() -> impl Strategy<Value = Kernel> {
        proptest::collection::vec(any::<bool>(), 1..6).prop_map(|shape| {
            let mut b = KernelBuilder::new("cfg");
            let c = b.movi(1);
            for diamond in shape {
                if diamond {
                    let t = b.new_block();
                    let e = b.new_block();
                    let j = b.new_block();
                    b.bra(c, t, e);
                    b.select(t);
                    b.jmp(j);
                    b.select(e);
                    b.jmp(j);
                    b.select(j);
                } else {
                    let n = b.new_block();
                    b.jmp(n);
                    b.select(n);
                }
            }
            b.exit();
            b.finish().unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The iterative dominator solution matches the path-based
        /// definition on every block pair.
        #[test]
        fn dominators_match_naive(kernel in arb_cfg()) {
            let d = DomInfo::compute(&kernel);
            let n = kernel.num_blocks();
            for a in 0..n {
                for b in 0..n {
                    let fast = d.dominates(BlockId(a as u32), BlockId(b as u32));
                    let naive = naive_dominates(&kernel, a, b);
                    prop_assert_eq!(fast, naive, "dominates({}, {})", a, b);
                }
            }
        }

        /// Postdominance is dominance on the reversed CFG: verified via the
        /// reflexivity/transitivity axioms and the exit property.
        #[test]
        fn postdominator_axioms(kernel in arb_cfg()) {
            let d = DomInfo::compute(&kernel);
            let n = kernel.num_blocks() as u32;
            let exit = BlockId(n - 1);
            for b in 0..n {
                let b = BlockId(b);
                prop_assert!(d.postdominates(b, b), "reflexive");
                prop_assert!(d.postdominates(exit, b), "exit postdominates all");
                // The precomputed immediate postdominator is the nearest
                // strict postdominator: every other one postdominates it.
                let strict: Vec<BlockId> =
                    d.postdominators(b).into_iter().filter(|&p| p != b).collect();
                match d.immediate_postdominator(b) {
                    Some(ip) => {
                        prop_assert!(strict.contains(&ip), "ipdom strictly postdominates");
                        for &o in &strict {
                            prop_assert!(d.postdominates(o, ip), "ipdom is nearest");
                        }
                    }
                    None => prop_assert!(strict.is_empty(), "only exits lack an ipdom"),
                }
            }
            for a in 0..n {
                for b in 0..n {
                    for c in 0..n {
                        let (a, b, c) = (BlockId(a), BlockId(b), BlockId(c));
                        if d.postdominates(a, b) && d.postdominates(b, c) {
                            prop_assert!(d.postdominates(a, c), "transitive");
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_isa::KernelBuilder;

    /// bb0 -> (bb1 | bb2) -> bb3(exit)
    fn diamond() -> Kernel {
        let mut b = KernelBuilder::new("diamond");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.movi(1);
        b.bra(c, t, e);
        b.select(t);
        b.jmp(j);
        b.select(e);
        b.jmp(j);
        b.select(j);
        b.exit();
        b.finish().unwrap()
    }

    /// bb0 -> bb1 (loop on itself) -> bb2(exit)
    fn looped() -> Kernel {
        let mut b = KernelBuilder::new("loop");
        let body = b.new_block();
        let done = b.new_block();
        let c = b.movi(1);
        b.jmp(body);
        b.select(body);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        b.finish().unwrap()
    }

    #[test]
    fn diamond_dominators() {
        let k = diamond();
        let d = DomInfo::compute(&k);
        let bb = |i| BlockId(i);
        assert!(d.dominates(bb(0), bb(3)));
        assert!(!d.dominates(bb(1), bb(3)));
        assert!(d.dominates(bb(0), bb(0)));
        assert_eq!(d.dominators(bb(1)), vec![bb(0), bb(1)]);
    }

    #[test]
    fn diamond_postdominators() {
        let k = diamond();
        let d = DomInfo::compute(&k);
        let bb = |i| BlockId(i);
        assert!(d.postdominates(bb(3), bb(0)));
        assert!(d.postdominates(bb(3), bb(1)));
        assert!(!d.postdominates(bb(1), bb(0)));
        assert_eq!(d.immediate_postdominator(bb(0)), Some(bb(3)));
        assert_eq!(d.immediate_postdominator(bb(3)), None);
    }

    #[test]
    fn loop_dominators() {
        let k = looped();
        let d = DomInfo::compute(&k);
        let bb = |i| BlockId(i);
        assert!(d.dominates(bb(0), bb(1)));
        assert!(d.dominates(bb(1), bb(2)));
        assert!(d.postdominates(bb(2), bb(1)));
        assert_eq!(d.immediate_postdominator(bb(1)), Some(bb(2)));
    }

    #[test]
    fn straight_line_chain() {
        let mut b = KernelBuilder::new("chain");
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jmp(b1);
        b.select(b1);
        b.jmp(b2);
        b.select(b2);
        b.exit();
        let k = b.finish().unwrap();
        let d = DomInfo::compute(&k);
        assert_eq!(d.immediate_postdominator(BlockId(0)), Some(BlockId(1)));
        assert!(d.dominates(BlockId(1), BlockId(2)));
        assert!(d.postdominates(BlockId(2), BlockId(0)));
    }
}
