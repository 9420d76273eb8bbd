//! `serve-disk`: `bitspecd` re-serving from a warm store.
//!
//! Set-up serves the 112-cell `experiment suite` once into a scratch
//! store (the cold populate). An op is one batch of 16 request lines
//! drawn from the suite, about a quarter of them duplicates, mixing
//! `build` and `sim` verbs, run through `serve::parse_requests` and
//! `serve::serve_batch` with one job, ordered. Three batches in four
//! start with cleared memory caches, like a fresh process, so every
//! unique cell comes off disk; the fourth re-serves the previous batch's
//! lines, shuffled, with the caches kept, like a long-lived daemon.
//!
//! Every line must match the populate run: the same program fingerprint
//! and, for `sim` lines, the same `outputs_fnv` and cycles. No batch may
//! compute a cell, and each batch's `suite_fp` must equal the one the
//! populate records predict.
//!
//! `Store::get` and `wire::decode_cell` run inside `serve_batch`, where
//! no benchmark span can reach. A traced cold batch is therefore
//! followed, outside its op, by the same reads of its unique cells, each
//! timed on its own: they time the store and codec work the batch did.

use crate::oracle::Oracle;
use crate::report::Report;
use crate::run::Run;
use crate::schedule::{self, Batch, CellId, BASELINE, BITSPEC, CONFIGS};
use crate::stats::geomean;
use crate::trace::Spans;
use bitspec::fingerprint::{cell_key, Fnv};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

pub const NAME: &str = "serve-disk";

/// Rounds every run holds: 111 batches, so `op_p90_ms` has at least ten
/// samples beyond it.
const MIN_ROUNDS: u64 = 3;

/// Request-line options selecting each of `bench::suite_configs()`, in
/// order (set-up checks that each parses to its suite config).
const CONFIG_ARGS: [&str; CONFIGS] = [
    "config=baseline",
    "config=bitspec",
    "config=bitspec gate=0",
    "config=bitspec-avg gate=0",
    "config=bitspec-min gate=0",
    "config=bitspec compare_elim=0",
    "config=bitspec bitmask=0",
    "config=nospec",
];

/// What the populate run served for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Served {
    build_fp: String,
    outputs_fnv: String,
    cycles: String,
}

/// The value of `"name": ...` in a JSONL result line, unquoted.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{name}\": "))? + name.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

fn request_line(cell: CellId, sim: bool) -> String {
    let name = mibench::names()[cell / CONFIGS];
    let verb = if sim { "sim" } else { "build" };
    format!("{verb} {name} {}", CONFIG_ARGS[cell % CONFIGS])
}

/// FNV-1a over an output stream, as the serve layer reports it in
/// `outputs_fnv`.
fn outputs_fnv(outputs: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for &o in outputs {
        h.u32(o);
    }
    h.finish()
}

/// Serves one batch with one job, ordered, collecting its result lines.
fn serve(sp: &mut Spans, text: &str) -> Result<(serve::ServeStats, Vec<String>), String> {
    let reqs = sp
        .span("serve.parse", || serve::parse_requests(text))
        .map_err(|e| e.to_string())?;
    let lines = Mutex::new(Vec::new());
    let stats = sp.span("serve.batch", || {
        serve::serve_batch(&reqs, 1, true, &|l| {
            lines.lock().expect("line sink").push(l.to_string())
        })
    });
    Ok((stats, lines.into_inner().expect("line sink")))
}

/// The cold populate: the whole suite into a freshly wiped store.
fn populate(
    sp: &mut Spans,
    store: &bitspec::store::Store,
) -> Result<HashMap<String, Served>, String> {
    bitspec::stages::clear();
    bench::clear_cache();
    store.wipe();
    let (stats, lines) = serve(sp, "experiment suite")?;
    if stats.computed != stats.cells {
        return Err(format!(
            "populate computed {} of {} cells",
            stats.computed, stats.cells
        ));
    }
    lines
        .iter()
        .map(|l| {
            let get = |f| {
                field(l, f)
                    .map(str::to_string)
                    .ok_or(format!("no `{f}` in {l}"))
            };
            Ok((
                get("key")?,
                Served {
                    build_fp: get("build_fp")?,
                    outputs_fnv: get("outputs_fnv")?,
                    cycles: get("cycles")?,
                },
            ))
        })
        .collect()
}

/// Set-up checks: each request form names its suite cell, and the
/// populate's outputs match the reference interpreter.
fn check_populate(
    run: &mut Run,
    oracle: &mut Oracle,
    served: &HashMap<String, Served>,
    keys: &[u64],
) {
    let cfgs = bench::suite_configs();
    for (p, name) in mibench::names().into_iter().enumerate() {
        let w = mibench::workload(name, mibench::Input::Large);
        let expect = oracle
            .outputs(&w)
            .map(|o| format!("{:016x}", outputs_fnv(o)));
        for (ci, cfg) in cfgs.iter().enumerate() {
            let cell = p * CONFIGS + ci;
            let parsed = serve::parse_requests(&request_line(cell, true)).ok();
            let parsed_key = parsed.and_then(|r| r.first().map(|r| cell_key(&r.workload, &r.cfg)));
            if parsed_key != Some(cell_key(&w, cfg)) {
                run.setup_failure(&format!(
                    "`{}` is not suite cell {cell}",
                    request_line(cell, true)
                ));
            }
            match (&expect, served.get(&format!("{:016x}", keys[cell]))) {
                (Ok(e), Some(s)) if *e == s.outputs_fnv => {}
                (Err(e), _) => run.setup_failure(e),
                _ => run.setup_failure(&format!(
                    "{name} config {ci}: populate output differs from the reference"
                )),
            }
        }
    }
}

/// Checks one batch's lines against the populate records.
fn check_batch(
    batch: &Batch,
    stats: &serve::ServeStats,
    lines: &[String],
    served: &HashMap<String, Served>,
    keys: &[u64],
) -> Result<(), String> {
    if stats.computed != 0 {
        return Err(format!(
            "a warm-store batch computed {} cells",
            stats.computed
        ));
    }
    let (expect_tier, got) = if batch.warm {
        ("memory", stats.memory_hits)
    } else {
        ("disk", stats.disk_hits)
    };
    if got != stats.cells {
        return Err(format!("{got} of {} cells from {expect_tier}", stats.cells));
    }
    if lines.len() != batch.lines.len() {
        return Err(format!(
            "{} result lines for {} requests",
            lines.len(),
            batch.lines.len()
        ));
    }
    let mut fp = Fnv::new();
    let mut seen = Vec::new();
    for (req, line) in batch.lines.iter().zip(lines) {
        let key = format!("{:016x}", keys[req.cell]);
        let want = &served[&key];
        if field(line, "key") != Some(&key) || field(line, "build_fp") != Some(&want.build_fp) {
            return Err(format!("line differs from the populate run: {line}"));
        }
        if req.sim
            && (field(line, "outputs_fnv") != Some(&want.outputs_fnv)
                || field(line, "cycles") != Some(&want.cycles))
        {
            return Err(format!("sim line differs from the populate run: {line}"));
        }
        if !seen.contains(&req.cell) {
            seen.push(req.cell);
            let hex = |s: &str| u64::from_str_radix(s, 16).unwrap_or(0);
            fp.u64(keys[req.cell]);
            fp.u64(hex(&want.build_fp));
            fp.u64(hex(&want.outputs_fnv));
            fp.u64(want.cycles.parse().unwrap_or(0));
        }
    }
    if fp.finish() != stats.suite_fp {
        return Err(format!(
            "suite_fp {:016x} != {:016x} predicted by the populate run",
            stats.suite_fp,
            fp.finish()
        ));
    }
    Ok(())
}

pub fn run(run: &mut Run) -> Result<Report, String> {
    let dir = std::path::Path::new(crate::run::OUT_DIR)
        .join(format!("store-{NAME}-{}", std::process::id()));
    bitspec::store::configure(Some(&dir), None);
    let store = bitspec::store::active().ok_or("scratch store did not open")?;
    let cfgs = bench::suite_configs();
    let workloads: Vec<bitspec::Workload> = mibench::names()
        .into_iter()
        .map(|n| mibench::workload(n, mibench::Input::Large))
        .collect();
    let keys: Vec<u64> = (0..schedule::PROGRAMS * CONFIGS)
        .map(|c| cell_key(&workloads[c / CONFIGS], &cfgs[c % CONFIGS]))
        .collect();

    let mut puts = 0u64;
    let (mut oracle, served) = run.setup(3, |run| {
        let oracle = Oracle::new()?;
        let puts0 = bitspec::store::stats().puts;
        let served = populate(&mut run.spans, &store)?;
        puts = bitspec::store::stats().puts - puts0;
        Ok((oracle, served))
    })?;
    check_populate(run, &mut oracle, &served, &keys);
    let mut report = Report::new(NAME);
    report.set("store.puts", puts as f64);
    report.set("store.put_bytes", store.total_bytes() as f64);

    // The modelled ratios of the served suite, off the memory tier.
    let (mut energy, mut cycles, mut code) = (Vec::new(), Vec::new(), Vec::new());
    for w in &workloads {
        let base = bench::run_cached(w, &cfgs[BASELINE]);
        let bs = bench::run_cached(w, &cfgs[BITSPEC]);
        energy.push(bs.1.total_energy() / base.1.total_energy());
        cycles.push(bs.1.cycles as f64 / base.1.cycles as f64);
        code.push(f64::from(bs.0.program.code_bytes()) / f64::from(base.0.program.code_bytes()));
    }
    report.set("energy_vs_baseline", geomean(&energy));
    report.set("cycles_vs_baseline", geomean(&cycles));
    report.set("code_bytes_vs_baseline", geomean(&code));

    let mut round0 = BTreeMap::<&str, f64>::new();
    let (mut deduped, mut requests) = (0usize, 0usize);
    let mut shadow = BTreeMap::<&str, (u64, u64)>::new();
    let mut round = 0;
    while run.another_round(round, MIN_ROUNDS) {
        for (k, batch) in schedule::serve_round(run.opts.seed, round)
            .into_iter()
            .enumerate()
        {
            if !batch.warm {
                bitspec::stages::clear();
                bench::clear_cache();
            }
            let text: String = batch
                .lines
                .iter()
                .map(|l| request_line(l.cell, l.sim) + "\n")
                .collect();
            // Alternate batches are traced, shifted by one each round, so
            // traced and untraced batches share one mix over a round pair.
            let traced = run.opts.trace && (k as u64 + round) % 2 == 1;
            let store0 = bitspec::store::stats();
            let out = run.op(traced, |sp| serve(sp, &text));
            let store1 = bitspec::store::stats();
            let Some((stats, lines)) = out else { continue };
            if let Err(e) = check_batch(&batch, &stats, &lines, &served, &keys) {
                run.fail_op(&e);
            }
            deduped += stats.deduped;
            requests += stats.requests;
            if round == 0 {
                *round0.entry("serve.disk_hits").or_default() += stats.disk_hits as f64;
                *round0.entry("serve.memory_hits").or_default() += stats.memory_hits as f64;
                *round0.entry("serve.computed").or_default() += stats.computed as f64;
                *round0.entry("store.hits").or_default() += (store1.hits - store0.hits) as f64;
                *round0.entry("store.misses").or_default() +=
                    (store1.misses - store0.misses) as f64;
            }
            if traced && !batch.warm {
                let mut uniq: Vec<CellId> = batch.lines.iter().map(|l| l.cell).collect();
                uniq.sort_unstable();
                uniq.dedup();
                for cell in uniq {
                    let t = Instant::now();
                    let bytes = store.get("cell", keys[cell]);
                    let got = t.elapsed().as_nanos() as u64;
                    let e = shadow.entry("store.get_ms").or_default();
                    *e = (e.0 + 1, e.1 + got);
                    let Some(bytes) = bytes else {
                        run.fail_op(&format!("cell {cell} missing from the store"));
                        continue;
                    };
                    let t = Instant::now();
                    let ok = bitspec::wire::decode_cell(&bytes).is_ok();
                    let took = t.elapsed().as_nanos() as u64;
                    let e = shadow.entry("wire.decode_ms").or_default();
                    *e = (e.0 + 1, e.1 + took);
                    if !ok {
                        run.fail_op(&format!("cell {cell} does not decode"));
                    }
                }
            }
        }
        round += 1;
    }
    store.wipe();
    bitspec::store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);

    report.set("serve.dedup_ratio", deduped as f64 / requests.max(1) as f64);
    for (name, v) in round0 {
        report.set(name, v);
    }
    if run.opts.trace {
        for (span, metric) in [
            ("serve.parse", "serve.parse_ms"),
            ("serve.batch", "serve.batch_ms"),
        ] {
            let (calls, ns) = run.spans.total(span);
            report.set(metric, run.ms(ns as f64) / calls.max(1) as f64);
        }
        for (metric, (calls, ns)) in shadow {
            report.set(metric, run.ms(ns as f64) / calls.max(1) as f64);
        }
        run.dump_spans(NAME);
    }
    let shape = schedule::serve_round(run.opts.seed, 0);
    let warm = shape.iter().filter(|b| b.warm).count();
    report.note(format!(
        "{NAME}: {round} rounds of {} batches ({} cold, {warm} warm) of {} lines",
        shape.len(),
        shape.len() - warm,
        schedule::UNIQUE + schedule::DUPS,
    ));
    run.finish(&mut report);
    Ok(report)
}
