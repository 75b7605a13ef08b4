//! The sequential coverage estimator, kept as the test-only oracle for
//! the shard pool.
//!
//! The estimator in its plainest form: one manager per deck, one
//! full-deck compile, one reachability fixpoint shared by all of the
//! deck's signals, the signals in declaration order, no planning, no
//! cone reduction, no threads. No production path runs it. The parity suite uses it as
//! ground truth, and `parallel_report` as the wall-clock baseline of its
//! overhead and speedup gates. Percentages, verdicts and uncovered sets
//! must be bit-identical to [`covest_par::WorkPlan::run`]'s; node counts
//! and timings differ by construction (one whole-deck manager against
//! per-shard cone-reduced managers).

use std::time::Duration;

use covest_bdd::{BddManager, ReorderConfig, ReorderMode};
use covest_core::{CoverageEstimator, CoverageOptions, PropertyVerdict, ReportRow};
use covest_mc::ModelChecker;
use covest_par::{
    BatchReport, DeckJob, DeckReport, ParConfig, ParError, SchedStats, SignalOutcome,
};

/// Analyzes `jobs` sequentially on the calling thread, one fresh manager
/// per deck. Honors `config`'s image, reorder and sample-limit settings;
/// `jobs`, `coi`, `profile`, `progress` and `clock` have no meaning here
/// (the oracle always compiles the full deck and records nothing).
///
/// # Errors
///
/// [`ParError::Plan`] if a deck fails to parse or compile;
/// [`ParError::Task`] for the first failing verification or signal.
pub fn run_sequential(jobs: &[DeckJob], config: &ParConfig) -> Result<BatchReport, ParError> {
    let mut reports = Vec::with_capacity(jobs.len());
    for job in jobs {
        let plan_err = |message: String| ParError::Plan {
            deck: job.name.clone(),
            message,
        };
        let task_err = |signal: Option<&String>, message: String| ParError::Task {
            deck: job.name.clone(),
            signal: signal.cloned(),
            message,
        };
        let bdd = BddManager::new();
        bdd.set_reorder_config(ReorderConfig {
            mode: config.reorder,
            ..Default::default()
        });
        let model = covest_smv::compile_with(&bdd, &job.source, config.image)
            .map_err(|e| plan_err(e.to_string()))?;
        if config.reorder == ReorderMode::Sift {
            bdd.reduce_heap();
        }
        let signals = if job.observed.is_empty() {
            model.observed.clone()
        } else {
            job.observed.clone()
        };
        let mut report = DeckReport {
            name: job.name.clone(),
            num_properties: model.specs.len(),
            verdicts: Vec::new(),
            signals: Vec::new(),
            plan_time: Duration::ZERO,
            profiles: Vec::new(),
        };
        if signals.is_empty() {
            let mut mc = ModelChecker::new(&model.fsm);
            for fair in &model.fairness {
                mc.add_fairness(fair)
                    .map_err(|e| task_err(None, e.to_string()))?;
            }
            if config.image.simplify != covest_smv::SimplifyConfig::Off {
                mc.set_care(model.fsm.install_reachable_care());
            }
            for spec in &model.specs {
                let verdict = mc
                    .check(&spec.clone().into())
                    .map_err(|e| task_err(None, e.to_string()))?;
                report.verdicts.push(PropertyVerdict {
                    formula: spec.to_string(),
                    holds: verdict.holds(),
                    vacuous: false,
                });
            }
        } else {
            let estimator = CoverageEstimator::new(&model.fsm);
            // The oracle never compiles reduced decks, but the coverage
            // universe is still the per-signal cone — deck semantics, not
            // a COI-mode artifact — so it stays bit-comparable with the
            // pool under either `coi` setting.
            let module =
                covest_smv::parse_module(&job.source).map_err(|e| plan_err(e.to_string()))?;
            let graph = covest_analyze::DepGraph::new(&module);
            for signal in &signals {
                let cone = covest_analyze::task_cone(&module, &graph, signal)
                    .map_err(|message| task_err(Some(signal), message))?;
                let options = CoverageOptions {
                    fairness: model.fairness.clone(),
                    cone: Some(covest_analyze::cone_bit_names(&module, &cone)),
                    ..Default::default()
                };
                let analysis = estimator
                    .analyze(signal, &model.specs, &options)
                    .map_err(|e| task_err(Some(signal), e.to_string()))?;
                let universe = estimator.universe(options.cone.as_deref());
                let sample = estimator.sample_states_over(
                    &analysis.uncovered(),
                    &universe,
                    config.uncovered_limit,
                );
                let uncovered = analysis
                    .uncovered()
                    .export_bdd()
                    .map_err(|e| task_err(Some(signal), e.to_string()))?;
                let row =
                    ReportRow::from_analysis(&job.name, &analysis).with_uncovered_sample(sample);
                if report.verdicts.is_empty() {
                    report.verdicts = row.verdicts.clone();
                }
                report.signals.push(SignalOutcome {
                    deck: job.name.clone(),
                    signal: signal.clone(),
                    row,
                    uncovered,
                });
            }
        }
        reports.push(report);
    }
    Ok(BatchReport {
        decks: reports,
        sched: SchedStats::default(),
    })
}
