//! `sim-inputs`: input sweeps over fixed binaries (fig15, fig16, RQ6).
//!
//! Set-up builds the baseline and bitspec program of all 14 suite
//! programs. An op simulates one prebuilt program on fresh seeded inputs;
//! every draw runs under both programs. Half the draws run plain turbo
//! (`bitspec::simulate_with`), a quarter DTS (`SimConfig { dts: true }`),
//! a quarter an 8-input `bitspec::simulate_batch`. The simulator does
//! nearly all the work and the compiler none.

use crate::oracle::Oracle;
use crate::report::Report;
use crate::run::Run;
use crate::schedule::{self, Mode};
use crate::stats::geomean;
use bitspec::{BuildConfig, Compiled, SimConfig, SimResult, Workload};
use std::collections::BTreeMap;

pub const NAME: &str = "sim-inputs";

/// Rounds every run holds, over which the modelled ratios are taken.
const RATIO_ROUNDS: u64 = 4;

fn span_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Turbo => "sim.turbo",
        Mode::Dts => "sim.dts",
        Mode::Batch => "sim.batch",
    }
}

/// Builds the baseline and bitspec program of every suite program on
/// its evaluation input, from cold stage caches.
fn build_all() -> Result<Vec<[Compiled; 2]>, String> {
    bitspec::stages::clear();
    mibench::names()
        .into_iter()
        .map(|name| {
            let w = mibench::workload(name, mibench::Input::Large);
            let build = |cfg: &BuildConfig| {
                bitspec::build(&w, cfg).map_err(|e| format!("{name}: build failed: {e}"))
            };
            Ok([
                build(&BuildConfig::baseline())?,
                build(&BuildConfig::bitspec())?,
            ])
        })
        .collect()
}

pub fn run(run: &mut Run) -> Result<Report, String> {
    bitspec::store::configure(None, None);
    let (mut oracle, programs) = run.setup(3, |_| Ok((Oracle::new()?, build_all()?)))?;
    let names = mibench::names();
    let mut report = Report::new(NAME);

    let mut energy = Vec::new();
    let mut cycles = Vec::new();
    let mut round0 = BTreeMap::<&str, f64>::new();
    // Simulated instructions of traced ops, per mode.
    let mut traced_insts = BTreeMap::<&str, u64>::new();

    let mut round = 0;
    while run.another_round(round, RATIO_ROUNDS) {
        for draw in schedule::sim_round(run.opts.seed, round) {
            let name = names[draw.program];
            let sets: Vec<Vec<(String, Vec<u8>)>> = draw
                .inputs
                .iter()
                .map(|&s| mibench::inputs_for(name, mibench::Input::Seeded(s)))
                .collect();
            let workloads: Vec<Workload> = sets
                .iter()
                .map(|set| {
                    let mut w = Workload::from_source(name, mibench::source_of(name));
                    w.inputs = set.clone();
                    w
                })
                .collect();
            let expect: Vec<Result<Vec<u32>, String>> = workloads
                .iter()
                .map(|w| oracle.outputs(w).map(<[u32]>::to_vec))
                .collect();
            // Half the programs of a round are traced, the other half
            // the next round, so traced and untraced ops share one mix.
            let traced = run.opts.trace && (draw.program as u64 + round) % 2 == 1;
            let span = span_name(draw.mode);
            let mut pair: [Option<Vec<SimResult>>; 2] = [None, None];
            for (arch, c) in programs[draw.program].iter().enumerate() {
                let results = run.op(traced, |sp| {
                    sp.span(span, || simulate(c, draw.mode, &workloads, &sets))
                });
                let Some(results) = results else { continue };
                for (i, r) in results.iter().enumerate() {
                    match &expect[i] {
                        Ok(e) if *e == r.outputs => {}
                        Ok(e) => run.fail_op(&format!(
                            "{name} {} arch {arch} input {i}: outputs {:?} != reference {e:?}",
                            draw.mode.label(),
                            r.outputs
                        )),
                        Err(e) => run.fail_op(e),
                    }
                }
                let insts: u64 = results.iter().map(|r| r.counts.dyn_insts).sum();
                if traced {
                    *traced_insts.entry(span).or_default() += insts;
                }
                if round == 0 {
                    *round0.entry("sim.dyn_insts").or_default() += insts as f64;
                    *round0.entry("sim.misspecs").or_default() += results
                        .iter()
                        .map(|r| r.counts.misspecs as f64)
                        .sum::<f64>();
                }
                if round < RATIO_ROUNDS {
                    pair[arch] = Some(results);
                }
            }
            if let [Some(base), Some(bs)] = &pair {
                for (b, s) in base.iter().zip(bs) {
                    energy.push(s.total_energy() / b.total_energy());
                    cycles.push(s.cycles as f64 / b.cycles as f64);
                }
            }
        }
        round += 1;
    }

    let code: Vec<f64> = programs
        .iter()
        .map(|[b, s]| f64::from(s.program.code_bytes()) / f64::from(b.program.code_bytes()))
        .collect();
    report.set("energy_vs_baseline", geomean(&energy));
    report.set("cycles_vs_baseline", geomean(&cycles));
    report.set("code_bytes_vs_baseline", geomean(&code));
    for (name, v) in round0 {
        report.set(name, v);
    }
    if run.opts.trace {
        for (mode, ms, ns_per_inst) in [
            (Mode::Turbo, "sim.turbo_ms", "sim.turbo_ns_per_inst"),
            (Mode::Dts, "sim.dts_ms", "sim.dts_ns_per_inst"),
            (Mode::Batch, "sim.batch_ms", "sim.batch_ns_per_inst"),
        ] {
            let span = span_name(mode);
            let (calls, ns) = run.spans.total(span);
            report.set(ms, run.ms(ns as f64) / calls.max(1) as f64);
            let insts = traced_insts.get(span).copied().unwrap_or(0);
            report.set(ns_per_inst, run.ms(ns as f64) * 1e6 / insts.max(1) as f64);
        }
        run.dump_spans(NAME);
    }
    report.note(format!(
        "{NAME}: {round} rounds of {} draws x 2 programs; modelled ratios over rounds 0-{} ({} pairs)",
        4 * schedule::PROGRAMS,
        RATIO_ROUNDS - 1,
        energy.len()
    ));
    run.finish(&mut report);
    Ok(report)
}

/// One op: simulates `c` on the draw's inputs in `mode`.
fn simulate(
    c: &Compiled,
    mode: Mode,
    workloads: &[Workload],
    sets: &[Vec<(String, Vec<u8>)>],
) -> Result<Vec<SimResult>, String> {
    let name = &workloads[0].name;
    let err = |e: &dyn std::fmt::Display| format!("{name}: simulation failed: {e}");
    match mode {
        Mode::Turbo => bitspec::simulate_with(c, &workloads[0], &SimConfig::default())
            .map(|r| vec![r])
            .map_err(|e| err(&e)),
        Mode::Dts => {
            let cfg = SimConfig {
                dts: true,
                ..SimConfig::default()
            };
            bitspec::simulate_with(c, &workloads[0], &cfg)
                .map(|r| vec![r])
                .map_err(|e| err(&e))
        }
        Mode::Batch => bitspec::simulate_batch(c, &SimConfig::default(), sets)
            .into_iter()
            .map(|r| r.map_err(|e| err(&e)))
            .collect(),
    }
}
