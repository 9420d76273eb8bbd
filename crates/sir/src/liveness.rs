//! Block-level liveness analysis.
//!
//! Liveness respects SIR/SMIR speculative-region semantics: every block of a
//! region has an implicit edge to the region's handler (equation 2 of
//! §3.1.3), so anything live into a handler stays live throughout its region.
//! φ-node operands are treated as uses at the end of the corresponding
//! predecessor, in the usual SSA fashion; only the leading φs of a block
//! contribute.
//!
//! Every per-block set is a row of word-packed `u64` bitsets indexed by
//! [`ValueId`], the same representation the backend allocator uses for its
//! own block liveness. One pass over the function fills the gen
//! (upward-exposed uses), kill (definitions) and φ-out rows; successor and
//! predecessor lists over [`Function::spec_succs`] are built once. The
//! backward fixpoint then runs from a worklist seeded with every block in
//! postorder over those edges (successors before predecessors), so most
//! blocks settle on their first visit; a block whose live-in grows
//! re-queues only its predecessors. Starting from empty rows, the worklist
//! reaches the same least fixpoint as any other iteration order.

use crate::func::Function;
use crate::inst::Inst;
use crate::types::{BlockId, ValueId};
use std::collections::VecDeque;

/// Per-block live-in/live-out sets, as bitset rows of `words` `u64`s each.
#[derive(Debug, Clone)]
pub struct Liveness {
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

/// A read-only view of one block's live set.
#[derive(Debug, Clone, Copy)]
pub struct LiveSet<'a> {
    words: &'a [u64],
}

impl<'a> LiveSet<'a> {
    /// Whether `v` is in the set.
    pub fn contains(&self, v: ValueId) -> bool {
        self.words
            .get(v.index() >> 6)
            .is_some_and(|w| w >> (v.index() & 63) & 1 != 0)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The values in the set, in ascending [`ValueId`] order.
    pub fn iter(&self) -> impl Iterator<Item = ValueId> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    ValueId((wi * 64 + bit) as u32)
                })
            })
        })
    }
}

fn set(row: &mut [u64], i: usize) {
    row[i >> 6] |= 1u64 << (i & 63);
}

fn get(row: &[u64], i: usize) -> bool {
    row[i >> 6] >> (i & 63) & 1 != 0
}

impl Liveness {
    /// Computes liveness for `f` by a backward worklist dataflow to a
    /// fixpoint over branch + misspeculation edges.
    pub fn compute(f: &Function) -> Liveness {
        let n = f.blocks.len();
        let nw = f.insts.len().div_ceil(64);
        let row = |b: usize| b * nw..(b + 1) * nw;
        // Per-block upward-exposed uses (excluding φ operands), defs, and
        // φ contributions: value v flowing along edge p→b is live-out of p.
        let mut gen = vec![0u64; n * nw];
        let mut kill = vec![0u64; n * nw];
        let mut phi_out = vec![0u64; n * nw];
        for (bi, blk) in f.blocks.iter().enumerate() {
            let (g, k) = (&mut gen[row(bi)], &mut kill[row(bi)]);
            let mut leading = true;
            for &v in &blk.insts {
                let inst = f.inst(v);
                if let Inst::Phi { incomings, .. } = inst {
                    if leading {
                        for (p, val) in incomings {
                            set(&mut phi_out[row(p.index())], val.index());
                        }
                    }
                } else {
                    leading = false;
                    inst.for_each_operand(|op| {
                        if !get(k, op.index()) {
                            set(g, op.index());
                        }
                    });
                }
                if inst.result_width().is_some() {
                    set(k, v.index());
                }
            }
            for op in blk.term.operands() {
                if !get(k, op.index()) {
                    set(g, op.index());
                }
            }
        }
        // Successor and predecessor lists over spec edges, built once.
        let succs: Vec<Vec<BlockId>> = f.block_ids().map(|b| f.spec_succs(b)).collect();
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (b, ss) in f.block_ids().zip(&succs) {
            for s in ss {
                preds[s.index()].push(b);
            }
        }
        // Seed the worklist in postorder from the entry; blocks it does not
        // reach follow, each unvisited one rooting its own DFS in index order.
        let mut work: VecDeque<usize> = VecDeque::with_capacity(n);
        let mut queued = vec![false; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in std::iter::once(f.entry.index()).chain(0..n) {
            if queued[root] {
                continue;
            }
            queued[root] = true;
            stack.push((root, 0));
            while let Some(top) = stack.last_mut() {
                let u = top.0;
                if let Some(s) = succs[u].get(top.1) {
                    top.1 += 1;
                    if !queued[s.index()] {
                        queued[s.index()] = true;
                        stack.push((s.index(), 0));
                    }
                } else {
                    stack.pop();
                    work.push_back(u);
                }
            }
        }
        let mut live_in = vec![0u64; n * nw];
        let mut live_out = phi_out;
        while let Some(bi) = work.pop_front() {
            queued[bi] = false;
            let out = &mut live_out[row(bi)];
            for s in &succs[bi] {
                for (o, w) in out.iter_mut().zip(&live_in[row(s.index())]) {
                    *o |= w;
                }
            }
            let mut changed = false;
            let (g, k) = (&gen[row(bi)], &kill[row(bi)]);
            for (wi, inn) in live_in[row(bi)].iter_mut().enumerate() {
                let new = g[wi] | (out[wi] & !k[wi]);
                changed |= new != *inn;
                *inn = new;
            }
            if changed {
                for p in &preds[bi] {
                    if !queued[p.index()] {
                        queued[p.index()] = true;
                        work.push_back(p.index());
                    }
                }
            }
        }
        Liveness {
            words: nw,
            live_in,
            live_out,
        }
    }

    /// Values live on entry to `b`.
    pub fn live_in_of(&self, b: BlockId) -> LiveSet<'_> {
        LiveSet {
            words: &self.live_in[b.index() * self.words..][..self.words],
        }
    }

    /// Values live on exit from `b`.
    pub fn live_out_of(&self, b: BlockId) -> LiveSet<'_> {
        LiveSet {
            words: &self.live_out[b.index() * self.words..][..self.words],
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Cc, Terminator};
    use crate::types::Width;

    #[test]
    fn straightline_liveness() {
        let mut b = FunctionBuilder::new("f", vec![Width::W32, Width::W32], Some(Width::W32));
        let x = b.param(0);
        let y = b.param(1);
        let s = b.bin(BinOp::Add, Width::W32, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let lv = Liveness::compute(&f);
        // Params are defined in entry, so nothing is live-in.
        assert!(lv.live_in_of(f.entry).is_empty());
        assert!(lv.live_out_of(f.entry).is_empty());
    }

    #[test]
    fn loop_carries_liveness() {
        // entry -> body(phi x) -> body | exit; exit returns x.
        let mut b = FunctionBuilder::new("f", vec![Width::W32], Some(Width::W32));
        let n = b.param(0);
        let zero = b.iconst(Width::W32, 0);
        let body = b.new_block();
        let exit = b.new_block();
        b.br(body);
        b.switch_to(body);
        let x = b.phi(Width::W32, vec![]);
        let one = b.iconst(Width::W32, 1);
        let x1 = b.bin(BinOp::Add, Width::W32, x, one);
        let c = b.icmp(Cc::Ult, Width::W32, x1, n);
        b.cond_br(c, body, exit);
        let entry = b.func().entry;
        b.set_phi_incomings(x, vec![(entry, zero), (body, x1)]);
        b.switch_to(exit);
        b.ret(Some(x1));
        let f = b.finish();
        let lv = Liveness::compute(&f);
        // n is live into the loop body (used by the compare every iteration).
        assert!(lv.live_in_of(body).contains(n));
        // x1 is live out of body (φ use on backedge + use in exit).
        assert!(lv.live_out_of(body).contains(x1));
        // zero flows into body's φ, so it is live out of entry…
        assert!(lv.live_out_of(entry).contains(zero));
        // …but not live into body (φ semantics).
        assert!(!lv.live_in_of(body).contains(zero));
    }

    #[test]
    fn handler_uses_keep_values_live_through_region() {
        // entry defines k; region block r uses nothing; handler uses k.
        // k must be live-out of r because of the misspeculation edge.
        let mut f = crate::func::Function::new("f", vec![Width::W32], Some(Width::W32));
        let k = f.param_value(0);
        let r = f.add_block();
        let h = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Br(r);
        f.block_mut(r).term = Terminator::Br(exit);
        f.block_mut(h).term = Terminator::Ret(Some(k));
        let zero = f.append_inst(
            exit,
            crate::inst::Inst::Const {
                width: Width::W32,
                value: 0,
            },
        );
        f.block_mut(exit).term = Terminator::Ret(Some(zero));
        f.add_region(vec![r], h);
        let lv = Liveness::compute(&f);
        assert!(lv.live_in_of(r).contains(k));
        assert!(lv.live_in_of(h).contains(k));
    }
}
