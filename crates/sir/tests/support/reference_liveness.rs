//! Reference block liveness: the original `HashSet` round-robin fixpoint
//! that `sir::liveness::Liveness` replaced, kept as a test oracle.
//!
//! Included by path from the tests that compare the bitset worklist
//! against it (`crates/sir/tests/props.rs`, `tests/liveness_oracle.rs`).

use sir::func::Function;
use sir::inst::Inst;
use sir::liveness::Liveness;
use sir::types::{BlockId, ValueId};
use std::collections::HashSet;

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone)]
pub struct ReferenceLiveness {
    pub live_in: Vec<HashSet<ValueId>>,
    pub live_out: Vec<HashSet<ValueId>>,
}

impl ReferenceLiveness {
    /// Computes liveness for `f` by iterating a backward dataflow to a
    /// fixpoint over branch + misspeculation edges.
    pub fn compute(f: &Function) -> ReferenceLiveness {
        let n = f.blocks.len();
        // Per-block upward-exposed uses (excluding φ operands) and defs.
        let mut uevar: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
        let mut defs: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
        for b in f.block_ids() {
            let bi = b.index();
            for &v in &f.block(b).insts {
                let inst = f.inst(v);
                if !inst.is_phi() {
                    for op in inst.operands() {
                        if !defs[bi].contains(&op) {
                            uevar[bi].insert(op);
                        }
                    }
                }
                if inst.result_width().is_some() {
                    defs[bi].insert(v);
                }
            }
            for op in f.block(b).term.operands() {
                if !defs[bi].contains(&op) {
                    uevar[bi].insert(op);
                }
            }
        }
        // φ contributions: value v flowing along edge p→b is live-out of p.
        let mut phi_uses_out: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
        for b in f.block_ids() {
            for &v in &f.block(b).insts {
                if let Inst::Phi { incomings, .. } = f.inst(v) {
                    for (p, val) in incomings {
                        phi_uses_out[p.index()].insert(*val);
                    }
                } else {
                    break;
                }
            }
        }
        let mut live_in: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
        let mut live_out: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                let b = BlockId(bi as u32);
                let mut out: HashSet<ValueId> = phi_uses_out[bi].clone();
                for s in f.spec_succs(b) {
                    for &v in &live_in[s.index()] {
                        out.insert(v);
                    }
                }
                let mut inn: HashSet<ValueId> = uevar[bi].clone();
                for &v in &out {
                    if !defs[bi].contains(&v) {
                        inn.insert(v);
                    }
                }
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if inn != live_in[bi] {
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        ReferenceLiveness { live_in, live_out }
    }
}

/// Asserts that `Liveness::compute(f)` equals the reference as sets on
/// every block, that each view iterates in strictly ascending order, and
/// that `contains` and `is_empty` agree with the reference.
pub fn assert_matches_reference(f: &Function, context: &str) {
    let lv = Liveness::compute(f);
    let reference = ReferenceLiveness::compute(f);
    for b in f.block_ids() {
        let sides = [
            ("live-in", lv.live_in_of(b), &reference.live_in[b.index()]),
            (
                "live-out",
                lv.live_out_of(b),
                &reference.live_out[b.index()],
            ),
        ];
        for (side, view, expect) in sides {
            let got: Vec<ValueId> = view.iter().collect();
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "{context}: {}: {side} of {b} not ascending: {got:?}",
                f.name
            );
            let got_set: HashSet<ValueId> = got.iter().copied().collect();
            assert_eq!(
                &got_set, expect,
                "{context}: {}: {side} of {b} differs from the reference",
                f.name
            );
            assert_eq!(view.is_empty(), expect.is_empty());
            assert!(expect.iter().all(|&v| view.contains(v)));
        }
    }
}
