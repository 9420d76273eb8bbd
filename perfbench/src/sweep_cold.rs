//! `sweep-cold`: regenerating the evaluation, one cold row at a time.
//!
//! An op is one cell, `bench::run_cached_traced` of one program under one
//! of the 8 `bench::suite_configs()` on a fresh seeded input. A row is all
//! 8 configs of one (program, input) pair. At each row boundary, outside
//! timing, the stage and cell caches are cleared and the scratch store is
//! wiped, so the row's first cell pays front, expand and profile and the
//! other seven hit the memory stage cache. Every computed artifact is
//! encoded and published to the store.
//!
//! A traced op calls the public pieces `run_cached_traced` is made of,
//! in the same order, with a span around each: the store lookup, the
//! three memoized stages, `bitspec::build` (stages warm), the simulation,
//! the cell encoding and the store publish.

use crate::oracle::Oracle;
use crate::report::Report;
use crate::run::Run;
use crate::schedule::{self, BASELINE, BITSPEC};
use crate::stats::geomean;
use crate::trace::Spans;
use bitspec::pipeline::{policy, Tracer};
use bitspec::store::Store;
use bitspec::{BuildConfig, SimConfig, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;

pub const NAME: &str = "sweep-cold";

/// Rounds every run holds, over which the modelled ratios are taken.
const RATIO_ROUNDS: u64 = 7;

/// Set-up reps: the set-up takes milliseconds, so a median of many.
const SETUP_REPS: usize = 9;

/// Pass walls read from `Compiled::trace`, by metric. Gate-reference
/// legs (`gate-ref.` prefix) count toward the same metric.
const PASS_METRICS: &[(&str, &[&str])] = &[
    ("opt.squeeze_ms", &["squeeze"]),
    ("sir.bitlint_ms", &["bitlint"]),
    ("sir.verify_ms", &["verify"]),
    ("backend.isel_ms", &["isel"]),
    ("backend.regalloc_ms", &["regalloc"]),
    ("backend.emit_ms", &["emit"]),
    (
        "backend.verify_ms",
        &["mir-verify", "regalloc-verify", "emit-verify"],
    ),
    ("core.gate_sim_ms", &["gate.sim", "sim"]),
];

/// Span name → metric, for the spans a traced cell opens.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("store.get", "store.get_ms"),
    ("lang.front", "lang.front_ms"),
    ("opt.expand", "opt.expand_ms"),
    ("interp.profile", "interp.profile_ms"),
    ("core.build", "core.build_ms"),
    ("sim.eval", "sim.eval_ms"),
    ("wire.encode", "wire.encode_ms"),
    ("store.put", "store.put_ms"),
];

fn pass_metric(pass: &str) -> Option<&'static str> {
    let (gate_ref, name) = match pass.strip_prefix("gate-ref.") {
        Some(rest) => (true, rest),
        None => (false, pass),
    };
    PASS_METRICS.iter().find_map(|(metric, names)| {
        let hit = names.iter().any(|n| {
            // A bare `sim` entry exists only on the gate-reference leg.
            *n == name && (*n != "sim" || gate_ref)
        });
        hit.then_some(*metric)
    })
}

/// The traced form of one `run_cached_traced` miss.
fn traced_cell(
    sp: &mut Spans,
    store: &Store,
    w: &Workload,
    cfg: &BuildConfig,
) -> Result<bench::Cell, String> {
    let key = bitspec::fingerprint::cell_key(w, cfg);
    if sp.span("store.get", || store.get("cell", key)).is_some() {
        return Err("cell found in a store wiped at the row boundary".into());
    }
    let mut tr = Tracer::new(policy(cfg.verify_each));
    let err = |e: bitspec::BuildError| format!("{}: build failed: {e}", w.name);
    sp.span("lang.front", || bitspec::stages::front(w, &mut tr))
        .map_err(err)?;
    sp.span("opt.expand", || {
        bitspec::stages::expand(w, &cfg.expander, &mut tr)
    })
    .map_err(err)?;
    sp.span("interp.profile", || {
        bitspec::stages::profile(w, &cfg.expander, cfg.reference_profiler, &mut tr)
    })
    .map_err(err)?;
    let c = sp
        .span("core.build", || bitspec::build(w, cfg))
        .map_err(err)?;
    let r = sp
        .span("sim.eval", || {
            bitspec::simulate_with(&c, w, &SimConfig::default())
        })
        .map_err(|e| format!("{}: simulation failed: {e}", w.name))?;
    let bytes = sp.span("wire.encode", || bitspec::wire::encode_cell(&c, &r));
    sp.span("store.put", || store.put("cell", key, &bytes));
    Ok(Arc::new((c, r)))
}

pub fn run(run: &mut Run) -> Result<Report, String> {
    let dir = std::path::Path::new(crate::run::OUT_DIR)
        .join(format!("store-{NAME}-{}", std::process::id()));
    let (mut oracle, store) = run.setup(SETUP_REPS, |_| {
        let oracle = Oracle::new()?;
        bitspec::store::configure(Some(&dir), None);
        let store = bitspec::store::active().ok_or("scratch store did not open")?;
        store.wipe();
        Ok((oracle, store))
    })?;
    let names = mibench::names();
    let cfgs = bench::suite_configs();
    let mut report = Report::new(NAME);

    // Per-seed quantities come from the first rounds, which every run
    // holds: the modelled ratios from [`RATIO_ROUNDS`], counts from one.
    let mut energy = Vec::new();
    let mut cycles = Vec::new();
    let mut code = Vec::new();
    let mut round0 = BTreeMap::<&str, f64>::new();
    // Hit ratios: stage lookups of untraced cells only, since a traced
    // cell's separate stage calls add lookups; function and gate counts
    // of every cell.
    let (mut stage_hits, mut stage_lookups) = (0u64, 0u64);
    let (mut fn_hits, mut fn_total) = (0u64, 0u64);
    let (mut gate_kept, mut gated) = (0u64, 0u64);
    // Pass walls of traced builds.
    let mut pass_ns = BTreeMap::<&str, u64>::new();
    let mut traced_builds = 0u64;

    let mut round = 0;
    while run.another_round(round, RATIO_ROUNDS) {
        for row in schedule::sweep_round(run.opts.seed, round) {
            bitspec::stages::clear();
            bench::clear_cache();
            store.wipe();
            let w = mibench::workload(names[row.program], mibench::Input::Seeded(row.input));
            let expect = oracle.outputs(&w).map(<[u32]>::to_vec);
            // Half the programs of a round are traced, the other half
            // the next round, so traced and untraced ops share one mix.
            let traced = run.opts.trace && (row.program as u64 + round) % 2 == 1;
            let mut pair = [None, None];
            for (ci, cfg) in cfgs.iter().enumerate() {
                let stages0 = bitspec::stages::stats();
                let store0 = bitspec::store::stats();
                let cell = run.op(traced, |sp| {
                    if traced {
                        traced_cell(sp, &store, &w, cfg)
                    } else {
                        Ok(bench::run_cached_traced(&w, cfg).0)
                    }
                });
                let stages1 = bitspec::stages::stats();
                let store1 = bitspec::store::stats();
                let Some(cell) = cell else { continue };
                let (c, r) = (&cell.0, &cell.1);
                match &expect {
                    Ok(e) if *e == r.outputs => {}
                    Ok(e) => run.fail_op(&format!(
                        "{} config {ci}: outputs {:?} != reference {e:?}",
                        w.name, r.outputs
                    )),
                    Err(e) => run.fail_op(e),
                }
                if !traced {
                    let hits = (stages1.front_hits - stages0.front_hits)
                        + (stages1.expand_hits - stages0.expand_hits)
                        + (stages1.profile_hits - stages0.profile_hits)
                        + (stages1.gate_hits - stages0.gate_hits);
                    let misses = (stages1.front_misses - stages0.front_misses)
                        + (stages1.expand_misses - stages0.expand_misses)
                        + (stages1.profile_misses - stages0.profile_misses)
                        + (stages1.gate_misses - stages0.gate_misses);
                    stage_hits += hits;
                    stage_lookups += hits + misses;
                }
                fn_hits += u64::from(c.stage_hits.fn_hits);
                fn_total += u64::from(c.stage_hits.fn_total);
                if c.config.empirical_gate && c.squeeze.narrowed > 0 {
                    gated += 1;
                    gate_kept += u64::from(c.used_squeezed);
                }
                if traced {
                    traced_builds += 1;
                    for p in c.trace.passes.iter().filter(|p| !p.cached) {
                        if let Some(m) = pass_metric(&p.name) {
                            *pass_ns.entry(m).or_default() += p.wall_ns;
                        }
                    }
                }
                if round == 0 {
                    *round0.entry("store.puts").or_default() += (store1.puts - store0.puts) as f64;
                    *round0.entry("sim.dyn_insts").or_default() += r.counts.dyn_insts as f64;
                    *round0.entry("sim.misspecs").or_default() += r.counts.misspecs as f64;
                    if ci == 0 {
                        let expand = c.trace.get("expand").map_or(0, |p| p.after.insts);
                        *round0.entry("opt.expand_insts").or_default() += expand as f64;
                        *round0.entry("interp.profile_dyn_insts").or_default() +=
                            c.profile_dyn_insts as f64;
                    }
                }
                if round < RATIO_ROUNDS && (ci == BASELINE || ci == BITSPEC) {
                    pair[ci] = Some(Arc::clone(&cell));
                }
            }
            if round == 0 {
                *round0.entry("store.put_bytes").or_default() += store.total_bytes() as f64;
            }
            if let [Some(base), Some(bs)] = &pair {
                energy.push(bs.1.total_energy() / base.1.total_energy());
                cycles.push(bs.1.cycles as f64 / base.1.cycles as f64);
                code.push(
                    f64::from(bs.0.program.code_bytes()) / f64::from(base.0.program.code_bytes()),
                );
            }
        }
        round += 1;
    }
    store.wipe();
    bitspec::store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);

    report.set("energy_vs_baseline", geomean(&energy));
    report.set("cycles_vs_baseline", geomean(&cycles));
    // Every program has one row per round, so the geomean over rows is
    // the geomean over programs of each program's geomean: the empirical
    // gate keeps or drops a program's squeezed code by input.
    report.set("code_bytes_vs_baseline", geomean(&code));
    for (name, v) in round0 {
        report.set(name, v);
    }
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    report.set("core.stage_hit_ratio", ratio(stage_hits, stage_lookups));
    report.set("core.fn_hit_ratio", ratio(fn_hits, fn_total));
    report.set("core.gate_kept_ratio", ratio(gate_kept, gated));
    if run.opts.trace {
        for (span, metric) in SPAN_METRICS {
            let (calls, ns) = run.spans.total(span);
            report.set(metric, run.ms(ns as f64) / calls.max(1) as f64);
        }
        for (metric, ns) in pass_ns {
            report.set(metric, run.ms(ns as f64) / traced_builds.max(1) as f64);
        }
        run.dump_spans(NAME);
    }
    report.note(format!(
        "{NAME}: {round} rounds of {} rows x {} configs; modelled ratios over rounds 0-{} ({} pairs)",
        schedule::PROGRAMS,
        schedule::CONFIGS,
        RATIO_ROUNDS - 1,
        energy.len()
    ));
    run.finish(&mut report);
    Ok(report)
}
