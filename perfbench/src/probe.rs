//! Host-speed probe: a fixed CPU kernel on its own buffer.
//!
//! The probe runs between ops, outside op timings. Its median time over a
//! run measures how fast this host ran during that run; every host-time
//! metric is scaled by `probe_ref / median probe time`, so a run on a
//! host slowed by its neighbours reports in reference-host units.

use std::hint::black_box;
use std::time::Instant;

/// Entries in the probe buffer (1 MiB of `u64`): far larger than L1,
/// so the kernel feels the memory system the way the compiler's pointer
/// walks and the simulator's tables do.
const BUF_LEN: usize = 1 << 17;

/// Memory-kernel steps per probe (about 1.5 ms on the reference host).
const MEMORY_STEPS: u32 = 300_000;

/// Dispatch-kernel steps per probe (about 3 ms on the reference host).
const DISPATCH_STEPS: u32 = 250_000;

/// Words of the buffer the dispatch kernel's loads and stores touch.
const DISPATCH_WORDS: usize = 1 << 13;

/// The probe kernel and its preallocated buffer.
pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let buf = (0..BUF_LEN)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Probe { buf }
    }

    /// Runs the probe once and returns its wall time in nanoseconds:
    /// the memory kernel, then the dispatch kernel. Every call does the
    /// same number of steps; the buffer it updates keeps its statistics.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        black_box(self.memory_kernel());
        black_box(self.dispatch_kernel());
        t.elapsed().as_nanos() as u64
    }

    /// Xorshift-indexed reads and writes over the whole buffer, with a
    /// data-dependent branch the predictor cannot learn.
    fn memory_kernel(&mut self) -> u64 {
        let mask = BUF_LEN - 1;
        let mut x = 0x1319_8A2E_0370_7344u64;
        let mut acc = 0u64;
        for _ in 0..MEMORY_STEPS {
            x = xorshift(x);
            let j = (x as usize) & mask;
            let v = self.buf[j];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v >> 3);
            } else {
                acc ^= v.rotate_left(11);
            }
            self.buf[j] = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ acc;
        }
        acc
    }

    /// An interpreter-style loop: function-pointer dispatch of a random
    /// op stream over 16 registers and a 64 KiB slice of the buffer, the
    /// shape of the simulator's handler dispatch.
    fn dispatch_kernel(&mut self) -> u64 {
        let mut regs = [1u64; 16];
        let mem = &mut self.buf[..DISPATCH_WORDS];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut acc = 0u64;
        for _ in 0..DISPATCH_STEPS {
            x = xorshift(x);
            let op = OPS[(x & 15) as usize];
            let v = op(
                &mut regs,
                mem,
                ((x >> 8) & 15) as usize,
                ((x >> 12) & 15) as usize,
            );
            if v & 3 == 0 {
                acc = acc.wrapping_add(v);
            }
        }
        acc
    }
}

/// One dispatch-kernel op: registers, memory, two register indices.
type Op = fn(&mut [u64; 16], &mut [u64], usize, usize) -> u64;

#[inline(never)]
fn op_add(r: &mut [u64; 16], _: &mut [u64], a: usize, b: usize) -> u64 {
    r[a] = r[a].wrapping_add(r[b]);
    r[a]
}
#[inline(never)]
fn op_xor(r: &mut [u64; 16], _: &mut [u64], a: usize, b: usize) -> u64 {
    r[a] ^= r[b].rotate_left(5);
    r[a]
}
#[inline(never)]
fn op_mul(r: &mut [u64; 16], _: &mut [u64], a: usize, b: usize) -> u64 {
    r[a] = r[a].wrapping_mul(r[b] | 1);
    r[a]
}
#[inline(never)]
fn op_load(r: &mut [u64; 16], m: &mut [u64], a: usize, b: usize) -> u64 {
    r[a] = m[(r[b] as usize) & (m.len() - 1)];
    r[a]
}
#[inline(never)]
fn op_store(r: &mut [u64; 16], m: &mut [u64], a: usize, b: usize) -> u64 {
    let i = (r[b] as usize) & (m.len() - 1);
    m[i] = r[a];
    r[a]
}
#[inline(never)]
fn op_shift(r: &mut [u64; 16], _: &mut [u64], a: usize, b: usize) -> u64 {
    r[a] = r[a] >> (r[b] & 7) | 1;
    r[a]
}
#[inline(never)]
fn op_cmp(r: &mut [u64; 16], _: &mut [u64], a: usize, b: usize) -> u64 {
    r[a] = u64::from(r[a] < r[b]) + r[a] / 2;
    r[a]
}
#[inline(never)]
fn op_sub(r: &mut [u64; 16], _: &mut [u64], a: usize, b: usize) -> u64 {
    r[a] = r[a].wrapping_sub(r[b] >> 1);
    r[a]
}

const OPS: [Op; 16] = [
    op_add, op_xor, op_mul, op_load, op_store, op_shift, op_cmp, op_sub, op_add, op_load, op_xor,
    op_store, op_add, op_cmp, op_load, op_sub,
];

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Factor converting raw host nanoseconds into reference-host
/// nanoseconds: `probe_ref / median probe time`.
pub fn scale(probe_ref_ns: f64, probe_median_ns: f64) -> f64 {
    if probe_median_ns > 0.0 {
        probe_ref_ns / probe_median_ns
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down() {
        // The probe took twice the reference time, so the host ran at half
        // speed: a 10 ms op is 5 ms on the reference host.
        let s = scale(2.0e6, 4.0e6);
        assert!((s - 0.5).abs() < 1e-12);
        assert!((10.0 * s - 5.0).abs() < 1e-12);
        // At reference speed nothing changes, and a faster host scales up.
        assert_eq!(scale(3.0e6, 3.0e6), 1.0);
        assert!((scale(3.0e6, 2.0e6) - 1.5).abs() < 1e-12);
        // Throughput scales by the inverse factor.
        let ops_per_s_raw = 100.0;
        assert!((ops_per_s_raw / s - 200.0).abs() < 1e-9);
    }

    #[test]
    fn probe_does_fixed_nonzero_work() {
        let mut p = Probe::new();
        assert!(p.run() > 0);
        assert!(p.run() > 0);
    }
}
