//! Deterministic property tests of the IR's core data structures and
//! analyses: the former proptest strategies are replaced by fixed
//! adversarial value sets and exhaustive small-pattern enumeration so the
//! suite runs offline with no external dependencies.

use sir::builder::FunctionBuilder;
use sir::dom::DomTree;
use sir::liveness::Liveness;
use sir::types::required_bits;
use sir::{BinOp, BlockId, Cc, Function, Inst, Terminator, ValueId, Width};

#[path = "support/reference_liveness.rs"]
mod reference_liveness;
use reference_liveness::assert_matches_reference;

/// Boundary-heavy 64-bit values: powers of two and their neighbours, plus
/// mixed bit patterns — the cases where bit-length and sign logic break.
fn interesting_u64() -> Vec<u64> {
    let mut vs = vec![0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555];
    for b in 0..64 {
        let p = 1u64 << b;
        vs.push(p);
        vs.push(p.wrapping_sub(1));
        vs.push(p.wrapping_add(1));
        vs.push(p.wrapping_mul(0x9E37_79B9));
    }
    vs
}

/// `required_bits` is the inverse of a bit-length bound.
#[test]
fn required_bits_bounds_value() {
    for v in interesting_u64() {
        let b = required_bits(v);
        assert!((1..=64).contains(&b), "v={v:#x} b={b}");
        if b < 64 {
            assert!(v < (1u64 << b), "v={v:#x} b={b}");
        }
        if v > 0 {
            assert!(v >= (1u64 << (b - 1)), "v={v:#x} b={b}");
        }
    }
}

/// Truncation is idempotent and masks exactly.
#[test]
fn width_truncate_idempotent() {
    for v in interesting_u64() {
        for w in Width::ALL {
            let t = w.truncate(v);
            assert_eq!(w.truncate(t), t);
            assert_eq!(t, v & w.mask());
        }
    }
}

/// Sign extension of a truncated value round-trips.
#[test]
fn sext_roundtrip() {
    for v in interesting_u64() {
        for w in Width::ALL {
            let t = w.truncate(v);
            let s = w.sext_to_64(t);
            assert_eq!(w.truncate(s as u64), t, "width {w} v {v:#x}");
        }
    }
}

/// Negation, swapping and evaluation of condition codes agree on all
/// operand pairs drawn from the boundary set, at all widths.
#[test]
fn cc_laws() {
    let ccs = [
        Cc::Eq,
        Cc::Ne,
        Cc::Ult,
        Cc::Ule,
        Cc::Ugt,
        Cc::Uge,
        Cc::Slt,
        Cc::Sle,
        Cc::Sgt,
        Cc::Sge,
    ];
    let vs = [
        0u64,
        1,
        0x7F,
        0x80,
        0xFF,
        0x7FFF,
        0x8000,
        0xFFFF,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF,
        0x7FFF_FFFF_FFFF_FFFF,
        0x8000_0000_0000_0000,
        u64::MAX,
        0x1234_5678_9ABC_DEF0,
    ];
    for a in vs {
        for b in vs {
            for w in Width::ALL {
                for cc in ccs {
                    assert_eq!(cc.eval(w, a, b), !cc.negated().eval(w, a, b));
                    assert_eq!(cc.eval(w, a, b), cc.swapped().eval(w, b, a));
                }
            }
        }
    }
}

/// On every branching-chain shape up to 7 splits (each split either a
/// straight edge or a two-way diamond): the entry dominates every reachable
/// block, dominance is reflexive, and liveness live-in of the entry is
/// empty for a function whose values are all locally defined.
#[test]
fn dominator_and_liveness_sanity() {
    for len in 1usize..8 {
        for pattern in 0u32..(1 << len) {
            let splits: Vec<bool> = (0..len).map(|i| pattern & (1 << i) != 0).collect();
            let mut fb = FunctionBuilder::new("p", vec![Width::W32], Some(Width::W32));
            let x = fb.param(0);
            let mut acc = fb.iconst(Width::W32, 1);
            let mut blocks = vec![fb.current_block()];
            for (i, two_way) in splits.iter().enumerate() {
                let nxt = fb.new_block();
                if *two_way {
                    let alt = fb.new_block();
                    let c = fb.icmp(Cc::Ult, Width::W32, acc, x);
                    fb.cond_br(c, nxt, alt);
                    fb.switch_to(alt);
                    fb.br(nxt);
                    blocks.push(alt);
                } else {
                    fb.br(nxt);
                }
                fb.switch_to(nxt);
                blocks.push(nxt);
                let k = fb.iconst(Width::W32, i as u64 + 1);
                acc = fb.bin(BinOp::Add, Width::W32, k, k);
            }
            fb.ret(Some(acc));
            let f = fb.finish();
            sir::verify::verify_function(&f).unwrap();
            let dt = DomTree::compute(&f);
            for b in f.block_ids() {
                if dt.is_reachable(b) {
                    assert!(dt.dominates(f.entry, b));
                    assert!(dt.dominates(b, b));
                }
            }
            let lv = Liveness::compute(&f);
            assert!(lv.live_in_of(f.entry).is_empty());
            assert_matches_reference(&f, &format!("chain pattern {pattern:0len$b}"));
        }
    }
}

/// SplitMix64: a tiny seeded generator for the random CFGs below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// A random function over `nb` branch blocks with cross-block uses, loops,
/// leading and non-leading φs, stores (uses without a def), one or two
/// speculative regions with their handlers (reached only on the
/// misspeculation edge), and one block no edge reaches. Values are SSA
/// only in the sense that each has one definition: uses need not be
/// dominated, which liveness must handle all the same.
fn random_cfg(seed: u64) -> Function {
    let mut rng = Rng(seed);
    let mut f = Function::new("rand", vec![Width::W32, Width::W32], Some(Width::W32));
    let nb = 2 + rng.below(11);
    let branch_blocks: Vec<BlockId> = std::iter::once(f.entry)
        .chain((1..nb).map(|_| f.add_block()))
        .collect();
    let unreachable = f.add_block();
    let mut vals: Vec<ValueId> = vec![f.param_value(0), f.param_value(1)];
    let mut phis: Vec<ValueId> = Vec::new();
    let phi = |f: &mut Function, b: BlockId| {
        f.append_inst(
            b,
            Inst::Phi {
                width: Width::W32,
                incomings: vec![],
            },
        )
    };
    for b in branch_blocks.iter().copied().chain([unreachable]) {
        for _ in 0..rng.below(3) {
            let p = phi(&mut f, b);
            phis.push(p);
            vals.push(p);
        }
        for _ in 0..1 + rng.below(5) {
            match rng.below(6) {
                0 => vals.push(f.append_inst(
                    b,
                    Inst::Const {
                        width: Width::W32,
                        value: rng.next() & 0xFF,
                    },
                )),
                1 => {
                    let (addr, value) = (rng.pick(&vals), rng.pick(&vals));
                    f.append_inst(
                        b,
                        Inst::Store {
                            width: Width::W32,
                            addr,
                            value,
                            volatile: false,
                        },
                    );
                }
                2 => {
                    // A φ after a non-φ instruction: it defines a value,
                    // but its operands are neither uses nor φ-out flow.
                    let c = f.append_inst(
                        b,
                        Inst::Const {
                            width: Width::W32,
                            value: 0,
                        },
                    );
                    vals.push(c);
                    let p = phi(&mut f, b);
                    phis.push(p);
                    vals.push(p);
                }
                _ => {
                    let (lhs, rhs) = (rng.pick(&vals), rng.pick(&vals));
                    vals.push(f.append_inst(
                        b,
                        Inst::Bin {
                            op: BinOp::Add,
                            width: Width::W32,
                            lhs,
                            rhs,
                            speculative: rng.below(2) == 0,
                        },
                    ));
                }
            }
        }
        f.block_mut(b).term = match rng.below(6) {
            0 => Terminator::Ret(Some(rng.pick(&vals))),
            1 | 2 => Terminator::Br(rng.pick(&branch_blocks)),
            _ => Terminator::CondBr {
                cond: rng.pick(&vals),
                if_true: rng.pick(&branch_blocks),
                if_false: rng.pick(&branch_blocks),
            },
        };
    }
    // One or two disjoint regions of non-entry blocks, each with a handler
    // that re-widens a few values and resumes at a branch block.
    let mut members: Vec<BlockId> = branch_blocks[1..].to_vec();
    for _ in 0..1 + rng.below(2) {
        if members.is_empty() {
            break;
        }
        let take = 1 + rng.below(members.len().min(3));
        let blocks: Vec<BlockId> = members.drain(..take).collect();
        let h = f.add_block();
        for _ in 0..rng.below(4) {
            let arg = rng.pick(&vals);
            vals.push(f.append_inst(
                h,
                Inst::Zext {
                    to: Width::W32,
                    arg,
                },
            ));
        }
        f.block_mut(h).term = Terminator::Br(rng.pick(&branch_blocks));
        f.add_region(blocks, h);
    }
    let all_blocks: Vec<BlockId> = f.block_ids().collect();
    for p in phis {
        let incomings = (0..1 + rng.below(3))
            .map(|_| (rng.pick(&all_blocks), rng.pick(&vals)))
            .collect();
        if let Inst::Phi { incomings: inc, .. } = f.inst_mut(p) {
            *inc = incomings;
        }
    }
    f
}

/// The bitset worklist liveness equals the reference fixpoint as sets on
/// every block of 2000 random CFGs with regions, handlers, an unreachable
/// block and non-leading φs.
#[test]
fn liveness_matches_reference_on_random_cfgs() {
    let mut with_handler_live_in = 0;
    for seed in 0..2000u64 {
        let f = random_cfg(seed);
        assert_matches_reference(&f, &format!("seed {seed}"));
        let lv = Liveness::compute(&f);
        with_handler_live_in += f
            .regions
            .iter()
            .filter(|r| !lv.live_in_of(r.handler).is_empty())
            .count();
    }
    // The handlers' live state must actually flow back through regions.
    assert!(with_handler_live_in > 500, "{with_handler_live_in}");
}
