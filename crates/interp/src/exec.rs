//! The SIR interpreter.
//!
//! Executes a module starting from a chosen function, modelling the
//! misspeculation semantics of Table 1: a speculative instruction whose
//! result exceeds its 8-bit slice squashes the result and transfers control
//! to the enclosing speculative region's handler.
//!
//! Two engines share this state: the predecoded fast path in
//! [`crate::fast`] (the default) and the tree-walking reference engine in
//! this module (selected with [`Interpreter::set_reference`]). Both produce
//! bit-identical results, outputs, statistics and profiles.

use crate::fast::{FastEngine, FastModule};
use crate::layout::Layout;
use crate::memory::{AccessError, Memory};
use crate::profile::Profile;
use sir::{BinOp, BlockId, FuncId, Inst, Module, Terminator, ValueId, Width};
use std::error::Error;
use std::fmt;

/// Default memory image size (8 MiB).
pub const DEFAULT_MEM_SIZE: u32 = 8 << 20;

/// Default dynamic-instruction budget.
pub const DEFAULT_FUEL: u64 = 2_000_000_000;

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Integer division by zero.
    DivByZero { func: String },
    /// Memory access fault.
    Memory { func: String, err: AccessError },
    /// The dynamic instruction budget was exhausted (runaway loop).
    OutOfFuel,
    /// An `unreachable` terminator was executed.
    Unreachable { func: String },
    /// Stack overflow (allocas exhausted the stack area).
    StackOverflow { func: String },
    /// `main`-style entry not found.
    NoSuchFunction { name: String },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DivByZero { func } => write!(f, "division by zero in `{func}`"),
            ExecError::Memory { func, err } => write!(f, "in `{func}`: {err}"),
            ExecError::OutOfFuel => write!(f, "dynamic instruction budget exhausted"),
            ExecError::Unreachable { func } => {
                write!(f, "executed `unreachable` in `{func}`")
            }
            ExecError::StackOverflow { func } => write!(f, "stack overflow in `{func}`"),
            ExecError::NoSuchFunction { name } => write!(f, "no function named `{name}`"),
        }
    }
}

impl Error for ExecError {}

/// Dynamic execution statistics (feeds Figures 1, 3, 5 and Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Executed IR instructions (φs excluded, terminators included).
    pub dyn_insts: u64,
    /// Integer-assignment counts bucketed by *declared* width 8/16/32/64.
    pub by_declared: [u64; 4],
    /// Integer-assignment counts bucketed by *required* bits 8/16/32/64.
    pub by_required: [u64; 4],
    pub loads: u64,
    pub stores: u64,
    pub calls: u64,
    pub branches: u64,
    /// Misspeculation events (Table 2).
    pub misspecs: u64,
}

/// The result of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Return value of the entry function, if any.
    pub ret: Option<u64>,
    /// The observable output stream (from `out(...)`).
    pub outputs: Vec<u32>,
    pub stats: Stats,
}

/// The interpreter: owns the memory image and accumulates statistics.
pub struct Interpreter<'m> {
    pub(crate) module: &'m Module,
    pub(crate) layout: Layout,
    /// The flat memory image (public so harnesses can install inputs).
    pub mem: Memory,
    pub(crate) sp: u32,
    pub(crate) stack_limit: u32,
    pub(crate) outputs: Vec<u32>,
    pub(crate) stats: Stats,
    pub(crate) fuel: u64,
    pub(crate) profile: Option<Profile>,
    /// Use the tree-walking reference engine instead of the fast path.
    reference: bool,
    /// Lazily built predecoded module for the fast path.
    fast: Option<FastModule>,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with default memory/fuel and installed global
    /// initializers.
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Self::with_memory(module, DEFAULT_MEM_SIZE)
    }

    /// Creates an interpreter with a custom memory size.
    ///
    /// # Panics
    /// Panics if the globals do not fit in `mem_size`.
    pub fn with_memory(module: &'m Module, mem_size: u32) -> Interpreter<'m> {
        let layout = Layout::new(module);
        assert!(
            layout.end() < mem_size / 2,
            "globals do not fit in the memory image"
        );
        let mut mem = Memory::new(mem_size);
        for (i, g) in module.globals.iter().enumerate() {
            if !g.init.is_empty() {
                mem.write_bytes(layout.addr(sir::GlobalId(i as u32)), &g.init);
            }
        }
        Interpreter {
            module,
            layout,
            mem,
            sp: mem_size,
            stack_limit: mem_size / 2,
            outputs: Vec::new(),
            stats: Stats::default(),
            fuel: DEFAULT_FUEL,
            profile: None,
            reference: false,
            fast: None,
        }
    }

    /// Selects the execution engine: `true` runs the tree-walking reference
    /// interpreter, `false` (the default) the predecoded fast path. Both
    /// are bit-identical in outputs, statistics and profiles.
    pub fn set_reference(&mut self, reference: bool) {
        self.reference = reference;
    }

    /// Sets the dynamic instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Enables bitwidth profiling; retrieve the result with
    /// [`Interpreter::take_profile`].
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Profile::new(self.module));
    }

    /// Takes the collected profile (if profiling was enabled).
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.profile.take()
    }

    /// The memory layout in use (for installing inputs at global addresses).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Installs `data` into global `name`'s storage.
    ///
    /// # Panics
    /// Panics if the global does not exist or `data` exceeds its size.
    pub fn install_global(&mut self, name: &str, data: &[u8]) {
        let gid = self
            .module
            .globals
            .iter()
            .position(|g| g.name == name)
            .unwrap_or_else(|| panic!("no global named `{name}`"));
        let g = &self.module.globals[gid];
        assert!(
            data.len() <= g.size as usize,
            "data larger than global `{name}`"
        );
        self.mem
            .write_bytes(self.layout.addr(sir::GlobalId(gid as u32)), data);
    }

    /// Reads back the contents of global `name` (host-side inspection).
    /// Returns a slice borrowing the memory image directly.
    ///
    /// # Panics
    /// Panics if the global does not exist.
    pub fn read_global(&self, name: &str) -> &[u8] {
        let gid = self
            .module
            .globals
            .iter()
            .position(|g| g.name == name)
            .unwrap_or_else(|| panic!("no global named `{name}`"));
        let g = &self.module.globals[gid];
        self.mem
            .read_bytes(self.layout.addr(sir::GlobalId(gid as u32)), g.size)
    }

    /// Runs function `name` with `args`, consuming accumulated outputs and
    /// statistics into the returned [`RunResult`].
    ///
    /// # Errors
    /// Propagates any [`ExecError`] raised during execution.
    pub fn run(&mut self, name: &str, args: &[u64]) -> Result<RunResult, ExecError> {
        let fid = self
            .module
            .func_by_name(name)
            .ok_or_else(|| ExecError::NoSuchFunction {
                name: name.to_string(),
            })?;
        let ret = if self.reference {
            self.call(fid, args)?
        } else {
            self.run_predecoded(fid, args)?
        };
        Ok(RunResult {
            ret,
            outputs: std::mem::take(&mut self.outputs),
            stats: std::mem::take(&mut self.stats),
        })
    }

    fn run_predecoded(&mut self, fid: FuncId, args: &[u64]) -> Result<Option<u64>, ExecError> {
        if self.fast.is_none() {
            self.fast = Some(FastModule::build(self.module, &self.layout));
        }
        let mut eng = FastEngine {
            fm: self.fast.as_ref().expect("fast module just built"),
            module: self.module,
            mem: &mut self.mem,
            sp: &mut self.sp,
            stack_limit: self.stack_limit,
            outputs: &mut self.outputs,
            stats: &mut self.stats,
            fuel: self.fuel,
            profile: self.profile.as_mut(),
            arena: Vec::new(),
            scratch: Vec::new(),
        };
        eng.run(fid, args)
    }

    fn call(&mut self, fid: FuncId, args: &[u64]) -> Result<Option<u64>, ExecError> {
        let f = self.module.func(fid);
        debug_assert_eq!(args.len(), f.params.len(), "call arity mismatch");
        let saved_sp = self.sp;
        let mut vals: Vec<u64> = vec![0; f.insts.len()];
        let mut cur = f.entry;
        let mut prev: Option<BlockId> = None;
        // Parameters.
        for (i, a) in args.iter().enumerate() {
            let v = f.param_value(i);
            vals[v.index()] = f.params[i].truncate(*a);
        }
        'blocks: loop {
            let blk = f.block(cur);
            // φ-nodes execute simultaneously against the incoming edge.
            let nphis = f.phi_count(cur);
            if nphis > 0 {
                let pb = prev.expect("φ in entry block");
                let mut staged = Vec::with_capacity(nphis);
                for &v in blk.insts.iter().take(nphis) {
                    if let Inst::Phi { incomings, width } = f.inst(v) {
                        let (_, inc) = incomings
                            .iter()
                            .find(|(b, _)| *b == pb)
                            .expect("φ missing incoming edge");
                        staged.push((v, width.truncate(vals[inc.index()])));
                    }
                }
                for (v, x) in staged {
                    vals[v.index()] = x;
                    if let Some(p) = &mut self.profile {
                        p.record(fid, v, x);
                    }
                }
            }
            // Straight-line body.
            let insts_start = if cur == f.entry {
                f.params.len()
            } else {
                nphis
            };
            for idx in insts_start..blk.insts.len() {
                let v = blk.insts[idx];
                let inst = f.inst(v);
                if matches!(inst, Inst::Param { .. }) {
                    continue;
                }
                self.stats.dyn_insts += 1;
                if self.stats.dyn_insts > self.fuel {
                    return Err(ExecError::OutOfFuel);
                }
                match self.step(f, fid, inst, &mut vals, v)? {
                    StepOutcome::Normal => {}
                    StepOutcome::Misspec => {
                        self.stats.misspecs += 1;
                        let region = blk.region.expect("speculative instruction outside region");
                        let handler = f.regions[region.index()].handler;
                        prev = Some(cur);
                        cur = handler;
                        continue 'blocks;
                    }
                }
            }
            // Terminator.
            self.stats.dyn_insts += 1;
            match &blk.term {
                Terminator::Br(t) => {
                    self.stats.branches += 1;
                    prev = Some(cur);
                    cur = *t;
                }
                Terminator::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    self.stats.branches += 1;
                    prev = Some(cur);
                    cur = if vals[cond.index()] & 1 == 1 {
                        *if_true
                    } else {
                        *if_false
                    };
                }
                Terminator::Ret(v) => {
                    self.sp = saved_sp;
                    return Ok(v.map(|v| vals[v.index()]));
                }
                Terminator::Unreachable => {
                    return Err(ExecError::Unreachable {
                        func: f.name.clone(),
                    })
                }
            }
        }
    }

    fn step(
        &mut self,
        f: &sir::Function,
        fid: FuncId,
        inst: &Inst,
        vals: &mut [u64],
        v: ValueId,
    ) -> Result<StepOutcome, ExecError> {
        macro_rules! get {
            ($x:expr) => {
                vals[$x.index()]
            };
        }
        macro_rules! record {
            ($self:ident, $v:expr, $x:expr) => {{
                let x = $x;
                vals[$v.index()] = x;
                if let Some(p) = &mut $self.profile {
                    p.record(fid, $v, x);
                }
            }};
        }
        match inst {
            Inst::Const { width, value } => {
                record!(self, v, width.truncate(*value));
            }
            Inst::GlobalAddr { global } => {
                let a = u64::from(self.layout.addr(*global));
                record!(self, v, a);
            }
            Inst::Alloca { size } => {
                let size = (*size).max(1);
                let aligned = (size + 3) & !3;
                if self.sp < self.stack_limit + aligned {
                    return Err(ExecError::StackOverflow {
                        func: f.name.clone(),
                    });
                }
                self.sp -= aligned;
                record!(self, v, u64::from(self.sp));
            }
            Inst::Bin {
                op,
                width,
                lhs,
                rhs,
                speculative,
            } => {
                let (a, b) = (get!(*lhs), get!(*rhs));
                if *speculative {
                    debug_assert_eq!(*width, Width::W8, "speculation uses 8-bit slices");
                    match spec_bin(*op, a, b) {
                        Some(r) => record!(self, v, r),
                        None => return Ok(StepOutcome::Misspec),
                    }
                } else {
                    let r = eval_bin(*op, *width, a, b).ok_or_else(|| ExecError::DivByZero {
                        func: f.name.clone(),
                    })?;
                    record!(self, v, r);
                }
                self.bucket_assignment(*width, vals[v.index()]);
            }
            Inst::Icmp {
                cc,
                width,
                lhs,
                rhs,
            } => {
                let r = u64::from(cc.eval(*width, get!(*lhs), get!(*rhs)));
                record!(self, v, r);
            }
            Inst::Zext { to, arg } => {
                let r = to.truncate(get!(*arg));
                record!(self, v, r);
                self.bucket_assignment(*to, r);
            }
            Inst::Sext { to, arg } => {
                let from = f.value_width(*arg).expect("sext of non-value");
                let r = to.truncate(from.sext_to_64(get!(*arg)) as u64);
                record!(self, v, r);
                self.bucket_assignment(*to, r);
            }
            Inst::Trunc {
                to,
                arg,
                speculative,
            } => {
                let a = get!(*arg);
                if *speculative && a > to.mask() {
                    return Ok(StepOutcome::Misspec);
                }
                let r = to.truncate(a);
                record!(self, v, r);
                self.bucket_assignment(*to, r);
            }
            Inst::Load {
                width,
                addr,
                speculative,
                ..
            } => {
                self.stats.loads += 1;
                let a = get!(*addr) as u32;
                let x = self.mem.load(a, *width).map_err(|err| ExecError::Memory {
                    func: f.name.clone(),
                    err,
                })?;
                if *speculative {
                    if x > 0xFF {
                        return Ok(StepOutcome::Misspec);
                    }
                    record!(self, v, x);
                    self.bucket_assignment(Width::W8, x);
                } else {
                    record!(self, v, x);
                    self.bucket_assignment(*width, x);
                }
            }
            Inst::Store {
                width, addr, value, ..
            } => {
                self.stats.stores += 1;
                let a = get!(*addr) as u32;
                self.mem
                    .store(a, *width, get!(*value))
                    .map_err(|err| ExecError::Memory {
                        func: f.name.clone(),
                        err,
                    })?;
            }
            Inst::Select {
                width,
                cond,
                tval,
                fval,
            } => {
                let r = if get!(*cond) & 1 == 1 {
                    get!(*tval)
                } else {
                    get!(*fval)
                };
                let r = width.truncate(r);
                record!(self, v, r);
                self.bucket_assignment(*width, r);
            }
            Inst::Call { callee, args, ret } => {
                self.stats.calls += 1;
                let argv: Vec<u64> = args.iter().map(|a| get!(*a)).collect();
                let r = self.call(*callee, &argv)?;
                if let (Some(r), Some(w)) = (r, ret) {
                    record!(self, v, w.truncate(r));
                    self.bucket_assignment(*w, w.truncate(r));
                }
            }
            Inst::Phi { .. } => unreachable!("φ handled at block entry"),
            Inst::Param { .. } => unreachable!("params handled at call entry"),
            Inst::Output { value } => {
                let x = get!(*value) as u32;
                self.outputs.push(x);
            }
        }
        Ok(StepOutcome::Normal)
    }

    fn bucket_assignment(&mut self, declared: Width, value: u64) {
        bucket_assignment(&mut self.stats, declared, value);
    }
}

/// Buckets one dynamic assignment by declared and required width (shared
/// by the reference and fast engines so their statistics are identical).
#[inline]
pub(crate) fn bucket_assignment(stats: &mut Stats, declared: Width, value: u64) {
    if declared == Width::W1 {
        return;
    }
    stats.by_declared[crate::profile::bucket_of(declared)] += 1;
    let req = Width::for_bits(sir::types::required_bits(value)).unwrap_or(Width::W64);
    stats.by_required[crate::profile::bucket_of(req.max(Width::W8))] += 1;
}

enum StepOutcome {
    Normal,
    Misspec,
}

/// Evaluates a non-speculative binary op at `w`; `None` on division by zero.
pub fn eval_bin(op: BinOp, w: Width, a: u64, b: u64) -> Option<u64> {
    let (a, b) = (w.truncate(a), w.truncate(b));
    let bits = w.bits();
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Udiv => {
            if b == 0 {
                return None;
            }
            a / b
        }
        BinOp::Urem => {
            if b == 0 {
                return None;
            }
            a % b
        }
        BinOp::Sdiv => {
            if b == 0 {
                return None;
            }
            let (sa, sb) = (w.sext_to_64(a), w.sext_to_64(b));
            sa.wrapping_div(sb) as u64
        }
        BinOp::Srem => {
            if b == 0 {
                return None;
            }
            let (sa, sb) = (w.sext_to_64(a), w.sext_to_64(b));
            sa.wrapping_rem(sb) as u64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= u64::from(bits) {
                0
            } else {
                a << b
            }
        }
        BinOp::Lshr => {
            if b >= u64::from(bits) {
                0
            } else {
                a >> b
            }
        }
        BinOp::Ashr => {
            let sa = w.sext_to_64(a);
            let sh = b.min(u64::from(bits - 1)) as u32;
            (sa >> sh) as u64
        }
    };
    Some(w.truncate(r))
}

/// Evaluates a *speculative* 8-bit op; `None` signals misspeculation
/// (Table 1: add overflows, sub underflows, shl overflows; logic never).
pub fn spec_bin(op: BinOp, a: u64, b: u64) -> Option<u64> {
    let (a, b) = (a & 0xFF, b & 0xFF);
    match op {
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
            // A shift ≥ 8 pushes every nonzero bit out of the slice: the
            // wide result would need more than 8 bits whenever a != 0.
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
        BinOp::And => Some(a & b),
        BinOp::Or => Some(a | b),
        BinOp::Xor => Some(a ^ b),
        BinOp::Lshr => Some(if b >= 8 { 0 } else { a >> b }),
        BinOp::Ashr => {
            let sa = Width::W8.sext_to_64(a);
            let sh = b.min(7) as u32;
            Some(Width::W8.truncate((sa >> sh) as u64))
        }
        BinOp::Mul | BinOp::Udiv | BinOp::Urem | BinOp::Sdiv | BinOp::Srem => {
            unreachable!("no speculative form for {op:?}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str) -> RunResult {
        let m = lang::compile("t", src).unwrap();
        let mut i = Interpreter::new(&m);
        i.run("main", &[]).unwrap()
    }

    #[test]
    fn arithmetic_and_output() {
        let r = run_src("void main() { out(2 + 3 * 4); }");
        assert_eq!(r.outputs, vec![14]);
    }

    #[test]
    fn loops_accumulate() {
        let r =
            run_src("void main() { u32 s = 0; for (u32 i = 1; i <= 10; i++) { s += i; } out(s); }");
        assert_eq!(r.outputs, vec![55]);
    }

    #[test]
    fn memory_and_globals() {
        let r = run_src(
            "global u32 t[4] = {10, 20, 30, 40};
             void main() { u32 s = 0; for (u32 i = 0; i < 4; i++) { s += t[i]; } out(s); }",
        );
        assert_eq!(r.outputs, vec![100]);
    }

    #[test]
    fn local_arrays() {
        let r = run_src(
            "void main() {
                u8 b[4];
                for (u32 i = 0; i < 4; i++) { b[i] = (u8)(i * i); }
                out(b[3]);
             }",
        );
        assert_eq!(r.outputs, vec![9]);
    }

    #[test]
    fn function_calls_and_recursion() {
        let r = run_src(
            "u32 fib(u32 n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             void main() { out(fib(10)); }",
        );
        assert_eq!(r.outputs, vec![55]);
    }

    #[test]
    fn signed_semantics() {
        let r = run_src(
            "void main() {
                i32 a = 0 - 7;
                out((u32)(a / 2));   // -3
                out((u32)(a % 2));   // -1
                out((u32)(a >> 1));  // -4 (arithmetic)
             }",
        );
        assert_eq!(
            r.outputs,
            vec![(-3i32) as u32, (-1i32) as u32, (-4i32) as u32]
        );
    }

    #[test]
    fn u8_wraparound_via_assignment() {
        let r = run_src("void main() { u8 x = 250; x = x + 10; out(x); }");
        assert_eq!(r.outputs, vec![4]);
    }

    #[test]
    fn u64_arithmetic() {
        let r = run_src(
            "void main() {
                u64 big = 0xFFFFFFFF;
                big = big + 2;
                out(big);   // lo, hi
             }",
        );
        assert_eq!(r.outputs, vec![1, 1]);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let m = lang::compile("t", "void main() { u32 a = 1; u32 b = 0; out(a / b); }").unwrap();
        let mut i = Interpreter::new(&m);
        assert!(matches!(
            i.run("main", &[]),
            Err(ExecError::DivByZero { .. })
        ));
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let m = lang::compile("t", "void main() { while (true) { } }").unwrap();
        let mut i = Interpreter::new(&m);
        i.set_fuel(10_000);
        assert_eq!(i.run("main", &[]), Err(ExecError::OutOfFuel));
    }

    #[test]
    fn stats_count_instructions() {
        let r =
            run_src("void main() { u32 s = 0; for (u32 i = 0; i < 8; i++) { s += i; } out(s); }");
        assert!(r.stats.dyn_insts > 20);
        assert!(r.stats.branches > 8);
        // All arithmetic is 32-bit declared.
        assert!(r.stats.by_declared[2] > 0);
        // …but required bits are all ≤ 8.
        assert_eq!(r.stats.by_required[2], 0);
    }

    #[test]
    fn profiling_records_required_bits() {
        let m = lang::compile(
            "t",
            "void main() { u32 s = 0; for (u32 i = 0; i < 300; i++) { s = s + 1; } out(s); }",
        )
        .unwrap();
        let mut i = Interpreter::new(&m);
        i.enable_profiling();
        i.run("main", &[]).unwrap();
        let p = i.take_profile().unwrap();
        let f = m.func_by_name("main").unwrap();
        // Find the add instruction and check its profile spans 1..=9 bits.
        let func = m.func(f);
        let add = (0..func.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(func.inst(*v), Inst::Bin { op: BinOp::Add, .. }))
            .unwrap();
        let s = p.stats(f, add);
        assert_eq!(s.count, 300);
        assert_eq!(s.max_bits, 9); // 300 needs 9 bits
        assert_eq!(p.target(f, add, crate::Heuristic::Max), Some(Width::W16));
    }

    #[test]
    fn spec_bin_misspeculation_conditions() {
        assert_eq!(spec_bin(BinOp::Add, 200, 55), Some(255));
        assert_eq!(spec_bin(BinOp::Add, 200, 56), None);
        assert_eq!(spec_bin(BinOp::Sub, 5, 5), Some(0));
        assert_eq!(spec_bin(BinOp::Sub, 4, 5), None);
        assert_eq!(spec_bin(BinOp::Shl, 0x40, 1), Some(0x80));
        assert_eq!(spec_bin(BinOp::Shl, 0x80, 1), None);
        assert_eq!(spec_bin(BinOp::Xor, 0xF0, 0x0F), Some(0xFF));
    }

    #[test]
    fn install_and_read_global() {
        let m = lang::compile(
            "t",
            "global u8 buf[4];
             void main() { buf[0] = buf[1] + buf[2]; }",
        )
        .unwrap();
        let mut i = Interpreter::new(&m);
        i.install_global("buf", &[0, 7, 8, 0]);
        i.run("main", &[]).unwrap();
        assert_eq!(i.read_global("buf")[0], 15);
    }

    #[test]
    fn volatile_load_reads_memory() {
        let r = run_src(
            "global u8 port[1] = {42};
             void main() { out(volatile_load(&port[0])); }",
        );
        assert_eq!(r.outputs, vec![42]);
    }
}
