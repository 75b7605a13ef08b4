//! Shared fixtures for the benchmark harness: each paper experiment as a
//! ready-to-run bundle of (machine, observed signal, property suite,
//! options).
//!
//! The binaries (`table2`, `figures`) and the criterion benches all pull
//! from here so the workloads stay identical across harnesses.

pub mod corebench;
pub mod oldcore;
pub mod oracle;

use covest_bdd::BddManager;
use covest_circuits::{circular_queue, counter, pipeline, priority_buffer};
use covest_core::{CoverageAnalysis, CoverageEstimator, CoverageOptions};
use covest_ctl::Formula;
use covest_smv::CompiledModel;

// The report bins measure wall-clock through the telemetry stopwatch,
// not hand-rolled `Instant::now()` pairs — CI greps the workspace to
// keep raw `Instant` confined to `covest-telemetry` (and this harness).
pub use covest_telemetry::Stopwatch;

/// Milliseconds elapsed on `sw`, in the form the report bins' `*_ms`
/// JSON fields use. Wall-clock by definition — never parity-checked.
pub fn elapsed_ms(sw: &Stopwatch) -> f64 {
    sw.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` on a fresh [`Stopwatch`], returning its result together
/// with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let value = f();
    let ms = elapsed_ms(&sw);
    (value, ms)
}

/// Appends `SPEC` lines for `specs` to a deck source.
pub fn with_specs(mut deck: String, specs: &[Formula]) -> String {
    use std::fmt::Write as _;
    for spec in specs {
        writeln!(deck, "SPEC {spec};").expect("write to string");
    }
    deck
}

/// The **bundled fleet**: every bundled circuit (generated deck +
/// Table-2 suite) plus every checked-in `models/*.smv` deck, in a fixed
/// order. Shared by the `parallel_report` and `profile_report` bins so
/// their gates run over identical work.
pub fn bundled_fleet() -> Vec<covest_par::DeckJob> {
    use covest_par::DeckJob;

    let mut queue_suite = circular_queue::wrap_suite_initial();
    queue_suite.extend(circular_queue::full_suite());
    queue_suite.extend(circular_queue::empty_suite());
    let mut buffer_suite = priority_buffer::lo_suite_initial(4);
    buffer_suite.push(priority_buffer::lo_missing_case());
    buffer_suite.extend(priority_buffer::hi_suite(4));
    let mut pipeline_suite = pipeline::out_suite_initial(4);
    pipeline_suite.extend(pipeline::out_suite_hold());

    let mut decks = vec![
        DeckJob::new(
            "circuit:circular_queue",
            with_specs(circular_queue::deck(4), &queue_suite),
        ),
        DeckJob::new(
            "circuit:priority_buffer",
            with_specs(priority_buffer::deck(4, false), &buffer_suite),
        ),
        DeckJob::new(
            "circuit:counter",
            with_specs(counter::deck(), &counter::increment_properties()),
        ),
        DeckJob::new(
            "circuit:pipeline",
            with_specs(pipeline::deck(4), &pipeline_suite),
        ),
    ];

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut model_decks: Vec<DeckJob> = std::fs::read_dir(&dir)
        .expect("models directory")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "smv") {
                let name = format!("models/{}", path.file_name().unwrap().to_string_lossy());
                Some(DeckJob::new(
                    name,
                    std::fs::read_to_string(&path).expect("readable deck"),
                ))
            } else {
                None
            }
        })
        .collect();
    model_decks.sort_by(|a, b| a.name.cmp(&b.name));
    decks.extend(model_decks);
    decks
}

/// One Table-2 row workload: a circuit, an observed signal and its suite.
pub struct Workload {
    /// Circuit display name (Table 2's first column).
    pub circuit: &'static str,
    /// Observed signal.
    pub signal: &'static str,
    /// Property suite.
    pub properties: Vec<Formula>,
    /// Analysis options (fairness for the pipeline).
    pub options: CoverageOptions,
    /// Expected coverage percentage from the paper, for the report.
    pub paper_percent: f64,
    /// Builder for the circuit model.
    pub build: fn(&BddManager) -> CompiledModel,
}

fn build_buffer(bdd: &BddManager) -> CompiledModel {
    priority_buffer::build(bdd, 4, false).expect("compiles")
}

fn build_queue(bdd: &BddManager) -> CompiledModel {
    circular_queue::build(bdd, 4).expect("compiles")
}

fn build_pipeline(bdd: &BddManager) -> CompiledModel {
    pipeline::build(bdd, 4).expect("compiles")
}

fn build_counter(bdd: &BddManager) -> CompiledModel {
    counter::build(bdd).expect("compiles")
}

/// The six observed-signal workloads of the paper's Table 2, plus the
/// introduction's counter as a seventh row.
pub fn table2_workloads() -> Vec<Workload> {
    let default = CoverageOptions::default;
    let fair_opts = || CoverageOptions {
        fairness: vec![pipeline::fairness()],
        ..Default::default()
    };
    let mut lo_full = priority_buffer::lo_suite_initial(4);
    lo_full.push(priority_buffer::lo_missing_case());
    let mut wrap_initial = circular_queue::wrap_suite_initial();
    let _ = &mut wrap_initial;
    vec![
        Workload {
            circuit: "Circuit 1 (priority buffer)",
            signal: "hi_cnt",
            properties: priority_buffer::hi_suite(4),
            options: default(),
            paper_percent: 100.00,
            build: build_buffer,
        },
        Workload {
            circuit: "Circuit 1 (priority buffer)",
            signal: "lo_cnt",
            properties: priority_buffer::lo_suite_initial(4),
            options: default(),
            paper_percent: 99.98,
            build: build_buffer,
        },
        Workload {
            circuit: "Circuit 2 (circular queue)",
            signal: "wrap",
            properties: circular_queue::wrap_suite_initial(),
            options: default(),
            paper_percent: 60.08,
            build: build_queue,
        },
        Workload {
            circuit: "Circuit 2 (circular queue)",
            signal: "full",
            properties: circular_queue::full_suite(),
            options: default(),
            paper_percent: 100.00,
            build: build_queue,
        },
        Workload {
            circuit: "Circuit 2 (circular queue)",
            signal: "empty",
            properties: circular_queue::empty_suite(),
            options: default(),
            paper_percent: 100.00,
            build: build_queue,
        },
        Workload {
            circuit: "Circuit 3 (pipeline)",
            signal: "out",
            properties: pipeline::out_suite_initial(4),
            options: fair_opts(),
            paper_percent: 74.36,
            build: build_pipeline,
        },
        Workload {
            circuit: "Intro (modulo-5 counter)",
            signal: "count",
            properties: counter::increment_properties(),
            options: default(),
            paper_percent: f64::NAN, // illustrative only in the paper
            build: build_counter,
        },
    ]
}

/// Runs one workload end to end on a fresh manager.
pub fn run_workload(w: &Workload) -> CoverageAnalysis {
    let bdd = BddManager::new();
    let model = (w.build)(&bdd);
    let estimator = CoverageEstimator::new(&model.fsm);
    estimator
        .analyze(w.signal, &w.properties, &w.options)
        .expect("workload analyzes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_run_and_match_paper_shape() {
        for w in table2_workloads() {
            let a = run_workload(&w);
            assert!(a.all_hold(), "{}/{} suite verifies", w.circuit, w.signal);
            if w.paper_percent.is_nan() {
                continue;
            }
            if (w.paper_percent - 100.0).abs() < f64::EPSILON {
                assert_eq!(
                    a.percent(),
                    100.0,
                    "{}/{} fully covered in the paper",
                    w.circuit,
                    w.signal
                );
            } else {
                assert!(
                    a.percent() < 100.0,
                    "{}/{} has a hole in the paper",
                    w.circuit,
                    w.signal
                );
            }
        }
    }
}
