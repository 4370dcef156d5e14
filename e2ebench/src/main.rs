//! End-to-end benchmark of the DNN-Defender reproduction.
//!
//! `run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload from the checkout root and prints every metric by name,
//! then one JSON result line. See README.md for the workloads, metrics
//! and how to read the output.

mod layers;
mod matrix;
mod refs;
mod replay;
mod serve;
mod stats;
mod sys;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Layers, PER_LAYER};
use stats::{median, tail_percentile, Tally};
use workload::{Pass, Scratch, Workload};

/// Set-ups timed per run before the first pass: at least the first
/// count, and more (up to the second) while the repetitions have taken
/// less than [`SETUP_BUDGET`]. setup_s is their median.
const SETUP_REPS: (usize, usize) = (5, 50);
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Requests a run needs before its p95 has ten samples above it.
const MIN_REQUESTS: usize = 200;

/// The end-to-end metrics, with units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cells_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// How many passes and requests a run needs at least, whatever its
/// length: `paper_matrix` takes most of a run in one pass.
fn minimums(workload: &str) -> (usize, usize) {
    if workload == "paper_matrix" {
        (1, 0)
    } else {
        (2, MIN_REQUESTS)
    }
}

fn build(name: &str, root: &Path, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_matrix" => Box::new(matrix::MatrixWorkload::paper(root, seed)?),
        "load_matrix" => Box::new(matrix::MatrixWorkload::load(root, seed)?),
        "serve_mix" => Box::new(serve::ServeWorkload::new(root, seed)?),
        "replay_sweep" => Box::new(replay::ReplayWorkload::new(root, seed)?),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// One measured pass.
struct Measured {
    pass: Pass,
    cpu_s: f64,
    peak_rss_mb: f64,
    layers: Option<Layers>,
}

fn measure(w: &mut dyn Workload, traced: bool) -> Measured {
    if !sys::reset_peak_rss() {
        eprintln!("warning: cannot reset the peak-RSS mark; peak_rss_mb is the process peak");
    }
    let cpu_before = sys::process_cpu();
    let session = traced.then(dd_obs::session);
    let pass = w.pass(traced);
    let snapshot = session.map(dd_obs::ObsSession::finish);
    let cpu_s = (sys::process_cpu() - cpu_before).as_secs_f64();
    let peak_rss_mb = sys::peak_rss_mb();
    let layers = snapshot.map(|snap| {
        let mut layers = w.layers(&pass, &snap);
        let rate = layers["dram.commands"] / pass.wall.as_secs_f64();
        layers.insert("dram.sim_cmds_per_s", rate);
        layers
    });
    Measured {
        pass,
        cpu_s,
        peak_rss_mb,
        layers,
    }
}

struct Run {
    setups: Vec<Duration>,
    untraced: Vec<Measured>,
    traced: Vec<Measured>,
    errors: Vec<String>,
    notes: Vec<String>,
}

fn run(args: &Args, root: &Path) -> Result<Run, String> {
    let mut scratch = Scratch::new(root)?;
    let mut setups = Vec::new();
    let reps_started = Instant::now();
    let mut w = loop {
        let started = Instant::now();
        let mut w = build(&args.workload, root, args.seed)?;
        w.cold_start(&mut scratch)?;
        setups.push(started.elapsed());
        let more = setups.len() < SETUP_REPS.0
            || (setups.len() < SETUP_REPS.1 && reps_started.elapsed() < SETUP_BUDGET);
        if !more {
            break w;
        }
        w.teardown();
    };

    let (min_passes, min_requests) = minimums(&args.workload);
    let started = Instant::now();
    let mut untraced: Vec<Measured> = Vec::new();
    let mut traced: Vec<Measured> = Vec::new();
    let mut fresh = false;
    loop {
        // A trace run alternates untraced and traced passes.
        for trace_this in [false, true] {
            if trace_this && !args.trace {
                continue;
            }
            if fresh {
                w.cold_start(&mut scratch)?;
            }
            fresh = true;
            let m = measure(w.as_mut(), trace_this);
            w.teardown();
            if trace_this {
                traced.push(m);
            } else {
                untraced.push(m);
            }
        }
        let requests: usize = untraced.iter().map(|m| m.pass.latencies_ms.len()).sum();
        let passes = if args.trace { 1 } else { min_passes };
        if started.elapsed().as_secs_f64() >= args.seconds
            && untraced.len() >= passes
            && (args.trace || requests >= min_requests)
        {
            break;
        }
    }

    let passes: Vec<&Pass> = untraced.iter().chain(&traced).map(|m| &m.pass).collect();
    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    errors.extend(w.finish(&passes));
    let notes = w.describe(&passes);
    Ok(Run {
        setups,
        untraced,
        traced,
        errors,
        notes,
    })
}

/// A metric value with its unit and sample count, for the printed lines.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    note: &'static str,
}

fn end_to_end(run: &Run, tally: &Tally) -> Vec<Metric> {
    let passes = &run.untraced;
    let of = |f: &dyn Fn(&Measured) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|m| m.pass.latencies_ms.iter().copied())
        .collect();
    let setups: Vec<f64> = run.setups.iter().map(Duration::as_secs_f64).collect();
    let (p95, p95_note) = match tail_percentile(&latencies, 95.0) {
        Some(v) => (v, ""),
        // Too few requests for a p95 with ten samples above it: the
        // slowest request stands in, and the line says so.
        None => (
            latencies.iter().copied().fold(0.0, f64::max),
            "max: too few samples for p95",
        ),
    };
    let values = [
        (median(&setups), setups.len(), ""),
        (of(&|m| m.pass.wall.as_secs_f64()), passes.len(), ""),
        (of(&|m| m.cpu_s), passes.len(), ""),
        (
            of(&|m| m.pass.cells as f64 / m.pass.wall.as_secs_f64()),
            passes.len(),
            "",
        ),
        (median(&latencies), latencies.len(), ""),
        (p95, latencies.len(), p95_note),
        (1.0 - tally.fail_ratio(), tally.attempted as usize, ""),
        (of(&|m| m.peak_rss_mb), passes.len(), ""),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples, note))| Metric {
            name,
            unit,
            value,
            samples,
            note,
        })
        .collect()
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let traced: Vec<&Layers> = run
        .traced
        .iter()
        .filter_map(|m| m.layers.as_ref())
        .collect();
    let walls = |ms: &[Measured]| {
        median(
            &ms.iter()
                .map(|m| m.pass.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let untraced_wall = walls(&run.untraced);
    let overhead = if untraced_wall > 0.0 {
        100.0 * (walls(&run.traced) / untraced_wall - 1.0)
    } else {
        0.0
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = if name == "trace.overhead_pct" {
                overhead
            } else {
                median(&traced.iter().map(|l| l[name]).collect::<Vec<_>>())
            };
            Metric {
                name,
                unit,
                value,
                samples: traced.len(),
                note: "",
            }
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args, &root) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut tally = Tally::default();
    for m in run.untraced.iter().chain(&run.traced) {
        let mut t = m.pass.tally.clone();
        if !m.pass.errors.is_empty() {
            t.fail_done(m.pass.cells);
        }
        tally.merge(&t);
    }
    let correct = run.errors.is_empty();
    if !correct && tally.failed == 0 {
        // A cross-pass check failed: no pass's output can be trusted.
        tally.fail_done(tally.attempted);
    }

    println!(
        "workload {} seed {} trace {} ({} untraced, {} traced passes, {} set-ups)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.untraced.len(),
        run.traced.len(),
        run.setups.len()
    );
    for note in &run.notes {
        println!("  {note}");
    }
    for e in &run.errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "  checks: {} ({} attempted, {} failed, fail_ratio {}{})",
        if correct { "pass" } else { "FAIL" },
        tally.attempted,
        tally.failed,
        tally.fail_ratio(),
        tally
            .by_kind
            .iter()
            .map(|(k, n)| format!(", {k}={n}"))
            .collect::<String>()
    );
    let e2e = end_to_end(&run, &tally);
    let layer = args.trace.then(|| per_layer(&run));
    for (section, metrics) in [
        ("end-to-end (untraced passes)", Some(&e2e)),
        ("per-layer (traced passes)", layer.as_ref()),
    ] {
        let Some(metrics) = metrics else { continue };
        println!("  {section}:");
        for m in metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" [{}]", m.note)
            };
            println!(
                "    {:<26} {:>16.6} {:<6} n={}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let reported = layer.as_ref().unwrap_or(&e2e);
    let metrics = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
