//! Deterministic property tests of the simulator substrates: cache
//! accounting, memory round-trips, and ALU/flag semantics against a
//! reference model. Former proptest strategies are replaced by seeded
//! SplitMix64 streams so the suite runs offline.

use sim::cache::{Cache, Hierarchy};

/// Minimal SplitMix64 stream for address/value synthesis.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Cache accounting conserves: hits + misses == accesses, and a
/// just-accessed line always hits immediately after.
#[test]
fn cache_conservation() {
    for seed in 0u64..16 {
        let mut rng = Rng(seed);
        let n = rng.range(1, 200) as usize;
        let addrs: Vec<u32> = (0..n).map(|_| rng.range(0, 1_000_000) as u32).collect();
        let writes: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
        let mut c = Cache::new(8 << 10, 4, 32);
        for (a, w) in addrs.iter().zip(&writes) {
            c.access(*a, *w);
            assert_eq!(c.access(*a, false), sim::cache::Outcome::Hit);
        }
        assert_eq!(c.accesses(), 2 * addrs.len() as u64);
        assert!(c.misses <= addrs.len() as u64);
        assert!(c.writebacks <= c.misses);
    }
}

/// Hierarchy latencies are bounded and warm accesses are free.
#[test]
fn hierarchy_latency_bounds() {
    for seed in 0u64..8 {
        let mut rng = Rng(seed);
        let n = rng.range(1, 100) as usize;
        let mut h = Hierarchy::default();
        let max = h.l2_latency + h.dram_latency;
        for _ in 0..n {
            let a = rng.range(0, 1_000_000) as u32;
            let stall = h.data(a, false);
            assert!(stall == 0 || stall == h.l2_latency || stall == max);
            assert_eq!(h.data(a, false), 0, "warm access must hit");
        }
    }
}

/// Memory round-trips arbitrary values at every width/alignment.
#[test]
fn memory_roundtrip() {
    let mut rng = Rng(0xC0FFEE);
    let mut m = interp::Memory::new(1 << 16);
    for _ in 0..64 {
        let addr = rng.range(0x100, 0xF000) as u32;
        let v = rng.next_u64();
        for w in [
            sir::Width::W8,
            sir::Width::W16,
            sir::Width::W32,
            sir::Width::W64,
        ] {
            m.store(addr, w, v).unwrap();
            assert_eq!(m.load(addr, w).unwrap(), w.truncate(v));
        }
    }
}

/// Both simulator engines agree on small synthetic kernels, chosen to hit
/// turbo's distinct execution shapes: pure straight-line blocks, tight
/// taken-branch loops, calls/returns, and misspeculation redirects that
/// enter skeleton code mid-block — with DTS off and on.
#[test]
fn engines_agree_on_synthetic_kernels() {
    use bitspec::{build, simulate_with, BuildConfig, Engine, SimConfig, Workload};
    let kernels: &[(&str, &str)] = &[
        (
            "straightline",
            "void main() { u32 a = 3; u32 b = a * 7; u32 c = b - a; out(a + b + c); }",
        ),
        (
            "looped",
            "void main() { u32 s = 0; for (u32 i = 0; i < 300; i++) { s += i & 31; } out(s); }",
        ),
        (
            "calls",
            "u32 f(u32 x) { return x * 3 + 1; }
             void main() { u32 s = 0; for (u32 i = 0; i < 50; i++) { s += f(i); } out(s); }",
        ),
        (
            // Trains small, evaluates past 255: the squeezed adds must
            // misspeculate and recover through the Δ-skeleton.
            "misspec",
            "global u32 n[1];
             void main() { u32 s = 0; for (u32 i = 0; i < n[0]; i++) { s = s + 1; } out(s); }",
        ),
    ];
    for &(name, src) in kernels {
        let mut w = Workload::from_source(name, src);
        if name == "misspec" {
            w = w
                .with_input("n", 600u32.to_le_bytes().to_vec())
                .with_train_input("n", 40u32.to_le_bytes().to_vec());
        }
        for cfg in [BuildConfig::baseline(), BuildConfig::bitspec()] {
            let c = build(&w, &cfg).expect("build");
            for dts in [false, true] {
                let [refr, turbo] = [Engine::Reference, Engine::Turbo].map(|engine| {
                    let sc = SimConfig {
                        dts,
                        engine,
                        ..SimConfig::default()
                    };
                    simulate_with(&c, &w, &sc).expect("sim")
                });
                assert_agree(&format!("{name}/dts={dts}"), &refr, &turbo);
            }
        }
    }
}

/// Integer state bit-identical, total energy within summation tolerance.
fn assert_agree(tag: &str, refr: &sim::SimResult, turbo: &sim::SimResult) {
    assert_eq!(turbo.outputs, refr.outputs, "{tag}: outputs");
    assert_eq!(turbo.cycles, refr.cycles, "{tag}: cycles");
    assert_eq!(turbo.counts, refr.counts, "{tag}: counts");
    assert_eq!(turbo.activity, refr.activity, "{tag}: activity");
    let (a, b) = (turbo.total_energy(), refr.total_energy());
    assert!(
        (a - b).abs() <= 1e-6 * a.abs().max(b.abs()),
        "{tag}: energy {a} vs {b}"
    );
}

/// A hand-linked program for the shapes compiled code rarely produces:
/// a `Ret` into the middle of a block, and a loop whose speculative slice
/// add misspeculates on every iteration past the second, redirecting into
/// a mid-block skeleton instruction. Both enter turbo's per-instruction
/// fallback, which must carry load-use interlocks, conditional writes and
/// taken branches across the block/fallback boundary.
fn redirect_kernel() -> backend::Program {
    use isa::inst::SAluOp;
    use isa::{AluOp, Cond, MInst as M, MemWidth, Operand, Reg, Slice, SliceOperand, LR};
    let (r0, r1, r2, r3, r4, r5, r6) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
    let add_imm = |rd: Reg, imm: u32| M::Alu {
        op: AluOp::Add,
        rd,
        rn: rd,
        src2: Operand::Imm(imm),
    };
    let mut insts = vec![
        /* 0 */ M::MovImm { rd: r0, imm: 0 },
        /* 1 */ M::MovImm { rd: r2, imm: 0x200 },
        /* 2 */ M::MovImm { rd: r1, imm: 3 },
        /* 3 */ M::MovImm { rd: LR, imm: 7 },
        /* 4 */ M::Ret, // → 7, mid-block
        /* 5 */ M::MovImm { rd: r4, imm: 1 },
        /* 6 */
        // Never runs: it gives 7 a static interlock the Ret entry must drop.
        M::Load {
            rd: r1,
            rn: r2,
            offset: 0,
            width: MemWidth::W,
            spill: false,
        },
        /* 7 */
        M::Store {
            rs: r1,
            rn: r2,
            offset: 0,
            width: MemWidth::W,
            spill: false,
        },
        /* 8 */
        M::Load {
            rd: r3,
            rn: r2,
            offset: 0,
            width: MemWidth::W,
            spill: false,
        },
        /* 9 */
        M::Alu {
            op: AluOp::Add,
            rd: r0,
            rn: r0,
            src2: Operand::Reg(r3),
        },
        /* 10 */ M::SetDelta { bytes: 0 }, // patched below: 11 → 13
        /* 11 */
        M::SAlu {
            op: SAluOp::Add,
            bd: Slice::new(r5, 0),
            bn: Slice::new(r5, 0),
            src2: SliceOperand::Imm(100),
            speculative: true,
        },
        /* 12 */ M::Cmp {
            rn: r0,
            src2: Operand::Imm(150),
        },
        /* 13 */ add_imm(r1, 1), // misspeculation target, mid-block
        /* 14 */
        M::MovCc {
            rd: r6,
            rm: r1,
            cond: Cond::Lo,
        },
        /* 15 */ M::Cmp {
            rn: r0,
            src2: Operand::Imm(200),
        },
        /* 16 */ M::Bc {
            cond: Cond::Lo,
            target: 8,
        },
        /* 17 */ M::Out { rn: r0 },
        /* 18 */ M::Out { rn: r6 },
        /* 19 */ M::Halt,
    ];
    let addrs_of = |insts: &[M]| {
        let mut a = 0x1000u32;
        insts
            .iter()
            .map(|i| {
                let here = a;
                a += i.size(false);
                here
            })
            .collect::<Vec<u32>>()
    };
    let addrs = addrs_of(&insts);
    insts[10] = M::SetDelta {
        bytes: addrs[13] - addrs[11],
    };
    let addrs = addrs_of(&insts);
    backend::Program {
        pre: insts
            .iter()
            .map(|i| backend::PreInst::of(i, false))
            .collect(),
        addr_index: addrs.iter().enumerate().map(|(i, &a)| (a, i)).collect(),
        addrs,
        entry: 0,
        halt: 19,
        func_entries: vec![0],
        func_names: vec!["main".into()],
        global_inits: Vec::new(),
        mem_size: 1 << 16,
        compact: false,
        spec_targets: Vec::new(),
        insts,
    }
}

/// Seeded fuel sweep over [`redirect_kernel`] with DTS off and on: every
/// budget that completes must match the reference bit for bit, and every
/// budget that does not must stop with `OutOfFuel` in both engines — at the
/// exact boundary the reference engine sets. The budget is checked before
/// `Halt` as well, so a run of n instructions needs fuel n + 1.
#[test]
fn fallback_paths_and_fuel_agree_under_dts() {
    use sim::{Engine, SimConfig, SimError};
    let p = redirect_kernel();
    let sim = |dts: bool, fuel: u64, engine: Engine| {
        let cfg = SimConfig {
            dts,
            fuel,
            engine,
            ..SimConfig::default()
        };
        sim::run_program(&p, &cfg, &[])
    };
    for dts in [false, true] {
        let refr = sim(dts, u64::MAX, Engine::Reference).expect("reference run");
        assert!(refr.counts.misspecs > 10, "kernel must keep misspeculating");
        let n = refr.counts.dyn_insts;
        let mut rng = Rng(0xF0E1 + u64::from(dts));
        let mut fuels = vec![n, n + 1, n - 1, 1, 0];
        fuels.extend((0..24).map(|_| rng.range(1, n + 8)));
        for fuel in fuels {
            let tag = format!("dts={dts} fuel={fuel}");
            match (
                sim(dts, fuel, Engine::Reference),
                sim(dts, fuel, Engine::Turbo),
            ) {
                (Ok(r), Ok(t)) => assert_agree(&tag, &r, &t),
                (Err(r), Err(t)) => {
                    assert_eq!(r, SimError::OutOfFuel, "{tag}");
                    assert_eq!(t, r, "{tag}");
                }
                (r, t) => panic!("{tag}: reference {r:?} vs turbo {t:?}"),
            }
            assert_eq!(fuel > n, sim(dts, fuel, Engine::Turbo).is_ok(), "{tag}");
        }
    }
}

/// Batch mode returns bit-identical results to N sequential single runs —
/// the shared predecoded image must hold no per-run state.
#[test]
fn batch_matches_sequential_runs() {
    use bitspec::{build, BuildConfig, Workload};
    let src = "global u8 data[256];
        void main() {
            u32 s = 0;
            for (u32 i = 0; i < 256; i++) { s = (s + data[i]) & 0xFFFF; }
            out(s);
        }";
    let w = Workload::from_source("batch", src).with_input("data", vec![1; 256]);
    let c = build(&w, &BuildConfig::bitspec()).expect("build");
    // Resolve the global's address once via a probe set.
    let layout = interp::Layout::new(&c.module);
    let gi = c
        .module
        .globals
        .iter()
        .position(|g| g.name == "data")
        .expect("global");
    let addr = layout.addr(sir::GlobalId(gi as u32));
    let mut rng = Rng(0xBA7C4);
    let sets: Vec<Vec<(u32, Vec<u8>)>> = (0..8)
        .map(|_| {
            let data: Vec<u8> = (0..256).map(|_| rng.next_u64() as u8).collect();
            vec![(addr, data)]
        })
        .collect();
    let cfg = sim::SimConfig::default();
    let batched = sim::run_batch(&c.program, &cfg, &sets);
    assert_eq!(batched.len(), sets.len());
    for (i, (b, set)) in batched.iter().zip(&sets).enumerate() {
        let single = sim::run_program(&c.program, &cfg, set).expect("single run");
        let b = b.as_ref().expect("batched run");
        assert_eq!(b.outputs, single.outputs, "set {i}: outputs");
        assert_eq!(b.cycles, single.cycles, "set {i}: cycles");
        assert_eq!(b.counts, single.counts, "set {i}: counts");
        assert_eq!(b.activity, single.activity, "set {i}: activity");
        assert_eq!(
            b.energy.alu.to_bits(),
            single.energy.alu.to_bits(),
            "set {i}: energy bits"
        );
    }
    // Distinct inputs must actually produce distinct outputs (the runs are
    // independent, not aliased onto one simulator state).
    let outs: Vec<_> = batched
        .iter()
        .map(|r| r.as_ref().unwrap().outputs.clone())
        .collect();
    assert!(outs.windows(2).any(|w| w[0] != w[1]), "inputs too uniform");
}

/// Differential ALU check: machine-level slice arithmetic agrees with the
/// IR interpreter's speculative evaluation for every op/operand pair.
#[test]
fn slice_alu_matches_interpreter_semantics() {
    use interp::exec::spec_bin;
    use sir::BinOp;
    for a in 0u64..=255 {
        for b in [0u64, 1, 7, 8, 9, 127, 128, 200, 255] {
            for op in [
                BinOp::Add,
                BinOp::Sub,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Shl,
                BinOp::Lshr,
                BinOp::Ashr,
            ] {
                // The IR model: None = misspeculation.
                let ir = spec_bin(op, a, b);
                // The machine model mirror (from machine.rs semantics).
                let machine: Option<u64> = match op {
                    BinOp::Add => {
                        let r = a + b;
                        if r > 0xFF {
                            None
                        } else {
                            Some(r)
                        }
                    }
                    BinOp::Sub => {
                        if a < b {
                            None
                        } else {
                            Some(a - b)
                        }
                    }
                    BinOp::Shl => {
                        if b >= 8 {
                            if a == 0 {
                                Some(0)
                            } else {
                                None
                            }
                        } else {
                            let r = a << b;
                            if r > 0xFF {
                                None
                            } else {
                                Some(r)
                            }
                        }
                    }
                    BinOp::Lshr => Some(if b >= 8 { 0 } else { a >> b }),
                    BinOp::Ashr => {
                        let sa = (a as u8 as i8) >> b.min(7);
                        Some((sa as u8) as u64)
                    }
                    BinOp::And => Some(a & b),
                    BinOp::Or => Some(a | b),
                    BinOp::Xor => Some(a ^ b),
                    _ => unreachable!(),
                };
                assert_eq!(ir, machine, "op={op:?} a={a} b={b}");
            }
        }
    }
}
