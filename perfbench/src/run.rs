//! One benchmark run: set-up reps, the closed op loop, host probes,
//! failure accounting and the metrics every workload shares.
//!
//! The loop is closed with one client: the next op starts only after the
//! previous one returned. Each op is timed from its own call start. Host
//! probes run between ops, outside op timing.

use crate::probe::{self, Probe};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Spans;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall time between host probes.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Probes run after each set-up rep.
const SETUP_PROBES: usize = 3;

/// Failure messages echoed to stderr per run.
const MAX_ECHOED: usize = 5;

/// Directory, under the working directory, for the scratch stores and
/// the span dumps.
pub const OUT_DIR: &str = ".bench_out";

/// Command-line settings of a run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The reference host's median probe time, in ns.
    pub probe_ref_ns: f64,
}

pub struct Run {
    pub opts: Opts,
    started: Instant,
    probe: Probe,
    probe_ns: Vec<u64>,
    last_probe: Instant,
    setup_ns: Vec<u64>,
    measure_start: Instant,
    pub spans: Spans,
    next_op: u64,
    /// Raw latencies of untraced and traced ops that returned.
    untraced: Vec<u64>,
    traced: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// The op most recently counted failed: an op fails at most once.
    last_failed: Option<u64>,
    /// Set-up checks that failed (the run is then not correct).
    setup_failures: u64,
}

impl Run {
    pub fn new(opts: Opts, started: Instant) -> Run {
        Run {
            opts,
            started,
            probe: Probe::new(),
            probe_ns: Vec::new(),
            last_probe: started,
            setup_ns: Vec::new(),
            measure_start: started,
            spans: Spans::new(started),
            next_op: 0,
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            last_failed: None,
            setup_failures: 0,
        }
    }

    fn probe_once(&mut self) {
        self.probe_ns.push(self.probe.run());
        self.last_probe = Instant::now();
    }

    /// Runs a host probe if [`PROBE_EVERY`] has passed since the last.
    pub fn maybe_probe(&mut self) {
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.probe_once();
        }
    }

    /// Runs the set-up `reps` times, each bracketed by host probes, and
    /// keeps the last rep's state. The first rep is timed from process
    /// start; `setup_s` is the median rep.
    ///
    /// # Errors
    /// The first failing rep's error: the workload cannot run.
    pub fn setup<T>(
        &mut self,
        reps: usize,
        mut f: impl FnMut(&mut Run) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut state = None;
        for rep in 0..reps {
            let t = if rep == 0 {
                self.started
            } else {
                Instant::now()
            };
            let s = f(self)?;
            self.setup_ns.push(t.elapsed().as_nanos() as u64);
            // Probes between reps: after each rep, and so before the next.
            for _ in 0..SETUP_PROBES {
                self.probe_once();
            }
            state = Some(s);
        }
        self.measure_start = Instant::now();
        state.ok_or_else(|| "set-up ran no reps".to_string())
    }

    /// Records a failed set-up check: the run goes on, reported as not
    /// correct.
    pub fn setup_failure(&mut self, msg: &str) {
        self.setup_failures += 1;
        eprintln!("perfbench: set-up check failed: {msg}");
    }

    /// Whether to start round `round` (0-based): always until
    /// `min_rounds` are done, then while the run is short of `--seconds`
    /// by more than half an average round. A traced run holds an even
    /// number of rounds: workloads trace alternate halves of each round,
    /// so traced and untraced ops share one mix over every round pair.
    pub fn another_round(&self, round: u64, min_rounds: u64) -> bool {
        if round < min_rounds || (self.opts.trace && round % 2 == 1) {
            return true;
        }
        let elapsed = self.measure_start.elapsed().as_secs_f64();
        elapsed + elapsed / round as f64 / 2.0 < self.opts.seconds
    }

    /// Runs one op: probes first if one is due, then times `f` from its
    /// call start. An `Err` or a panic counts the op failed; one bad op
    /// never aborts the run. When `traced`, the op and the layer spans
    /// `f` opens are recorded.
    pub fn op<T>(
        &mut self,
        traced: bool,
        f: impl FnOnce(&mut Spans) -> Result<T, String>,
    ) -> Option<T> {
        self.maybe_probe();
        self.attempted += 1;
        let id = self.next_op;
        self.next_op += 1;
        if traced {
            self.spans.begin_op(id);
        }
        let spans = &mut self.spans;
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| f(spans)));
        let ns = t.elapsed().as_nanos() as u64;
        if traced {
            self.spans.end_op();
        }
        match r {
            Ok(Ok(v)) => {
                if traced {
                    self.traced.push(ns);
                } else {
                    self.untraced.push(ns);
                }
                Some(v)
            }
            Ok(Err(e)) => {
                self.fail_op(&e);
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.fail_op(&format!("op panicked: {msg}"));
                None
            }
        }
    }

    /// Counts the last op failed: it returned an error, panicked, or its
    /// output did not match the reference.
    pub fn fail_op(&mut self, msg: &str) {
        let op = self.next_op - 1;
        if self.last_failed != Some(op) {
            self.last_failed = Some(op);
            self.failed += 1;
        }
        if self.failed as usize <= MAX_ECHOED {
            eprintln!("perfbench: op {op} failed: {msg}");
        }
    }

    /// `probe_ref / median probe time`: raw host time × this factor is
    /// reference-host time.
    pub fn scale(&self) -> f64 {
        let probes: Vec<f64> = self.probe_ns.iter().map(|&n| n as f64).collect();
        probe::scale(self.opts.probe_ref_ns, median(&probes))
    }

    /// Raw ns → reference-host ms.
    pub fn ms(&self, raw_ns: f64) -> f64 {
        raw_ns * self.scale() / 1e6
    }

    /// Fills the metrics every workload shares and closes the report.
    pub fn finish(&self, report: &mut Report) {
        let s = self.scale();
        let lat: Vec<f64> = self.untraced.iter().map(|&n| n as f64).collect();
        let total_ns: f64 = lat.iter().sum();
        let n = lat.len();
        let p50 = percentile(&lat, 50.0);
        let p90 = percentile(&lat, 90.0);
        let probes: Vec<f64> = self.probe_ns.iter().map(|&n| n as f64).collect();
        let setup: Vec<f64> = self.setup_ns.iter().map(|&n| n as f64).collect();
        let wall_ops_per_s = if total_ns > 0.0 {
            n as f64 / (total_ns / 1e9)
        } else {
            0.0
        };

        report.set("ops_per_s", wall_ops_per_s / s);
        report.set("op_p50_ms", p50.map_or(0.0, |p| p.value * s / 1e6));
        report.set("op_p90_ms", p90.map_or(0.0, |p| p.value * s / 1e6));
        report.set(
            "ok_ratio",
            (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
        );
        report.set("setup_s", median(&setup) * s / 1e9);
        report.set("peak_rss_mb", peak_rss_mib());

        report.set("host.probe_ms", median(&probes) / 1e6);
        report.set("host.wall_ops_per_s", wall_ops_per_s);
        report.set("host.wall_op_p50_ms", p50.map_or(0.0, |p| p.value / 1e6));
        report.set("host.wall_op_p90_ms", p90.map_or(0.0, |p| p.value / 1e6));
        report.set("host.wall_setup_s", median(&setup) / 1e9);
        report.set("ops", n as f64);

        report.attempted = self.attempted;
        report.failed = self.failed;
        report.correct = self.failed == 0 && self.setup_failures == 0 && self.attempted > 0;

        report.note(format!(
            "{} seed {}: {} ops timed, {} attempted, {} failed; {} probes, median {:.3} ms \
             (scale {:.4} to the {:.3} ms reference)",
            report.workload,
            self.opts.seed,
            n,
            self.attempted,
            self.failed,
            probes.len(),
            median(&probes) / 1e6,
            s,
            self.opts.probe_ref_ns / 1e6,
        ));
        if let (Some(p50), Some(p90)) = (p50, p90) {
            report.note(format!(
                "op_p50_ms {:.4} ({} samples, {} beyond); op_p90_ms {:.4} ({} samples, {} beyond){}",
                p50.value * s / 1e6,
                p50.samples,
                p50.beyond,
                p90.value * s / 1e6,
                p90.samples,
                p90.beyond,
                if p90.beyond < 10 {
                    "  WARNING: fewer than 10 samples beyond p90"
                } else {
                    ""
                },
            ));
        }
        report.note(format!(
            "setup reps (reference-host s): {}",
            setup
                .iter()
                .map(|ns| format!("{:.4}", ns * s / 1e9))
                .collect::<Vec<_>>()
                .join(" ")
        ));

        if self.opts.trace {
            let traced_ns: f64 = self.traced.iter().map(|&n| n as f64).sum();
            let traced_ops_per_s = if traced_ns > 0.0 {
                self.traced.len() as f64 / (traced_ns / 1e9)
            } else {
                0.0
            };
            let overhead = if wall_ops_per_s > 0.0 {
                traced_ops_per_s / wall_ops_per_s
            } else {
                0.0
            };
            report.set("host.trace_overhead", overhead);
            let (rows, total) = crate::trace::self_times(self.spans.spans());
            for line in crate::trace::table(&rows, total, self.traced.len(), s) {
                report.note(line);
            }
            report.note(format!(
                "tracing overhead: traced {traced_ops_per_s:.3} ops/s / untraced \
                 {wall_ops_per_s:.3} ops/s = {overhead:.4} (host time; {} traced, {n} untraced ops)",
                self.traced.len()
            ));
        }
    }

    /// Writes the recorded spans under the output directory.
    pub fn dump_spans(&self, workload: &str) {
        let path =
            Path::new(OUT_DIR).join(format!("spans-{workload}-seed{}.jsonl", self.opts.seed));
        if let Err(e) = self.spans.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_count_once_and_never_abort_the_run() {
        let opts = Opts {
            seed: 0,
            seconds: 1.0,
            trace: false,
            probe_ref_ns: 1e6,
        };
        let mut run = Run::new(opts, Instant::now());
        assert_eq!(run.op(false, |_| Ok(1)), Some(1));
        assert_eq!(
            run.op(false, |_| -> Result<u32, String> {
                panic!("planted panic")
            }),
            None
        );
        assert_eq!(
            run.op(false, |_| -> Result<u32, String> { Err("planted".into()) }),
            None
        );
        assert_eq!(run.op(false, |_| Ok(2)), Some(2));
        // Two mismatches in one op's output fail that op once.
        run.fail_op("first mismatch");
        run.fail_op("second mismatch");
        assert_eq!((run.attempted, run.failed), (4, 3));
        let mut report = Report::new("t");
        run.finish(&mut report);
        assert!(!report.correct);
        assert_eq!((report.attempted, report.failed), (4, 3));
    }
}
