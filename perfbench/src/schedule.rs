//! The seeded, stratified op generator.
//!
//! Every op sequence is a pure function of the `--seed` argument. Ops
//! come in rounds, and every round holds the same program × config × mode
//! mix, so runs with different seeds measure comparable work: a new seed
//! changes only the generated inputs and the order.

use mibench::rng::Rng;

/// Programs in the suite ([`mibench::names`]).
pub const PROGRAMS: usize = 14;

/// Configs in [`bench::suite_configs`].
pub const CONFIGS: usize = 8;

/// Index of BASELINE in [`bench::suite_configs`].
pub const BASELINE: usize = 0;

/// Index of BITSPEC in [`bench::suite_configs`].
pub const BITSPEC: usize = 1;

/// A sub-seed for one point of the schedule: a SplitMix64 step over the
/// seed mixed with `parts`.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x6A09_E667_F3BC_C908;
    for &p in parts {
        h = Rng::new(h ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    h
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.range(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// One `sweep-cold` row: every config of one program on one fresh input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub program: usize,
    /// The `mibench::Input::Seeded` value of the row's input.
    pub input: u64,
}

/// Round `round` of `sweep-cold`: one row per program, in seeded order.
pub fn sweep_round(seed: u64, round: u64) -> Vec<Row> {
    let mut rows: Vec<Row> = (0..PROGRAMS)
        .map(|p| Row {
            program: p,
            input: mix(seed, &[1, round, p as u64]),
        })
        .collect();
    shuffle(&mut rows, &mut Rng::new(mix(seed, &[2, round])));
    rows
}

/// How a `sim-inputs` draw is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `bitspec::simulate_with` on the default (turbo) engine.
    Turbo,
    /// `SimConfig { dts: true, .. }`.
    Dts,
    /// `bitspec::simulate_batch` over [`BATCH`] inputs.
    Batch,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Turbo => "turbo",
            Mode::Dts => "dts",
            Mode::Batch => "batch",
        }
    }
}

/// Inputs per batch draw.
pub const BATCH: usize = 8;

/// One `sim-inputs` draw: a program, a mode and fresh inputs, run under
/// both the baseline and the bitspec build (two ops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Draw {
    pub program: usize,
    pub mode: Mode,
    /// `mibench::Input::Seeded` values: one, or [`BATCH`] for a batch.
    pub inputs: Vec<u64>,
}

/// Round `round` of `sim-inputs`: per program two turbo draws, one DTS
/// draw and one batch draw (½, ¼, ¼ of the draws), in seeded order.
pub fn sim_round(seed: u64, round: u64) -> Vec<Draw> {
    let mut draws = Vec::new();
    for p in 0..PROGRAMS {
        for (k, mode) in [Mode::Turbo, Mode::Turbo, Mode::Dts, Mode::Batch]
            .into_iter()
            .enumerate()
        {
            let n = if mode == Mode::Batch { BATCH } else { 1 };
            let inputs = (0..n)
                .map(|i| mix(seed, &[3, round, p as u64, k as u64, i as u64]))
                .collect();
            draws.push(Draw {
                program: p,
                mode,
                inputs,
            });
        }
    }
    shuffle(&mut draws, &mut Rng::new(mix(seed, &[4, round])));
    draws
}

/// A suite cell: `program * CONFIGS + config`.
pub type CellId = usize;

/// One request line of a `serve-disk` batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    pub cell: CellId,
    /// `sim` (true) or `build` (false).
    pub sim: bool,
}

/// One `serve-disk` batch. A cold batch starts with cleared memory
/// caches; a warm one re-serves the previous batch's lines, shuffled,
/// with the caches kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub lines: Vec<Line>,
    pub warm: bool,
}

/// Unique cells per batch.
pub const UNIQUE: usize = 12;

/// Duplicate lines per batch (¼ of the [`UNIQUE`] + `DUPS` = 16 lines).
pub const DUPS: usize = 4;

/// Passes over the 112-cell suite per `serve-disk` round.
pub const PASSES: usize = 3;

/// Round `round` of `serve-disk`: [`PASSES`] shuffled passes over the
/// suite, cut into cold batches of [`UNIQUE`] distinct cells (28 per
/// round), with a warm batch after every third cold one (9 per round).
pub fn serve_round(seed: u64, round: u64) -> Vec<Batch> {
    let mut rng = Rng::new(mix(seed, &[5, round]));
    let mut cells: Vec<CellId> = Vec::new();
    for _ in 0..PASSES {
        let mut pass: Vec<CellId> = (0..PROGRAMS * CONFIGS).collect();
        shuffle(&mut pass, &mut rng);
        cells.extend(pass);
    }
    // A batch that straddles two passes could draw one cell twice; swap
    // such a repeat with the next later cell the batch lacks.
    for start in (0..cells.len()).step_by(UNIQUE) {
        for i in start..start + UNIQUE {
            if cells[start..i].contains(&cells[i]) {
                let j = (i + 1..cells.len())
                    .find(|&j| !cells[start..i].contains(&cells[j]))
                    .expect("a later pass holds every cell");
                cells.swap(i, j);
            }
        }
    }
    let mut batches = Vec::new();
    for (b, chunk) in cells.chunks(UNIQUE).enumerate() {
        let mut verbs: Vec<bool> = (0..UNIQUE).map(|i| i < UNIQUE / 2).collect();
        shuffle(&mut verbs, &mut rng);
        let mut lines: Vec<Line> = chunk
            .iter()
            .zip(verbs)
            .map(|(&cell, sim)| Line { cell, sim })
            .collect();
        let mut picks: Vec<usize> = (0..UNIQUE).collect();
        shuffle(&mut picks, &mut rng);
        for &k in &picks[..DUPS] {
            lines.push(Line {
                cell: chunk[k],
                sim: rng.chance(0.5),
            });
        }
        shuffle(&mut lines, &mut rng);
        batches.push(Batch {
            lines: lines.clone(),
            warm: false,
        });
        if b % 3 == 2 {
            shuffle(&mut lines, &mut rng);
            batches.push(Batch { lines, warm: true });
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        for round in 0..3 {
            assert_eq!(sweep_round(7, round), sweep_round(7, round));
            assert_eq!(sim_round(7, round), sim_round(7, round));
            assert_eq!(serve_round(7, round), serve_round(7, round));
        }
        assert_ne!(sweep_round(7, 0), sweep_round(8, 0));
        assert_ne!(sim_round(7, 0), sim_round(8, 0));
        assert_ne!(serve_round(7, 0), serve_round(8, 0));
        assert_ne!(sweep_round(7, 0), sweep_round(7, 1));
    }

    #[test]
    fn every_seed_gets_the_same_mix() {
        for seed in [0, 1, 42, u64::MAX] {
            let mut programs: Vec<usize> = sweep_round(seed, 0).iter().map(|r| r.program).collect();
            programs.sort_unstable();
            assert_eq!(programs, (0..PROGRAMS).collect::<Vec<_>>());

            let mut counts: BTreeMap<(usize, &str, usize), usize> = BTreeMap::new();
            for d in sim_round(seed, 0) {
                *counts
                    .entry((d.program, d.mode.label(), d.inputs.len()))
                    .or_default() += 1;
            }
            for p in 0..PROGRAMS {
                assert_eq!(counts[&(p, "turbo", 1)], 2);
                assert_eq!(counts[&(p, "dts", 1)], 1);
                assert_eq!(counts[&(p, "batch", BATCH)], 1);
            }
        }
    }

    #[test]
    fn serve_batches_have_the_stated_shape() {
        for seed in [0, 3, 99] {
            let batches = serve_round(seed, 0);
            let cold: Vec<&Batch> = batches.iter().filter(|b| !b.warm).collect();
            assert_eq!(cold.len(), PASSES * PROGRAMS * CONFIGS / UNIQUE);
            assert_eq!(batches.len() - cold.len(), cold.len() / 3);
            let mut seen = vec![0usize; PROGRAMS * CONFIGS];
            for b in &cold {
                assert_eq!(b.lines.len(), UNIQUE + DUPS);
                let mut uniq: Vec<CellId> = b.lines.iter().map(|l| l.cell).collect();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), UNIQUE);
                for c in uniq {
                    seen[c] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == PASSES));
            for w in batches.windows(2) {
                if w[1].warm {
                    let mut a = w[0].lines.clone();
                    let mut b = w[1].lines.clone();
                    a.sort_by_key(|l| (l.cell, l.sim));
                    b.sort_by_key(|l| (l.cell, l.sim));
                    assert_eq!(a, b, "a warm batch re-serves the previous batch");
                }
            }
        }
    }
}
