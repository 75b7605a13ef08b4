//! The traced run: one workload invocation replayed in process, calling
//! the public layer functions `covest-cli` calls, in the CLI's order and
//! with its default flags, and timing each call with a span kept in
//! memory. The spans are written to `DIR/replay_spans.jsonl` when the
//! replay ends, and the per-layer metrics are derived from them.
//!
//! The program's own recorder (`covest_telemetry`, what `--stats`
//! installs) is installed on the replay thread too: it supplies the
//! counts that only exist inside the layers (BFS steps, image calls,
//! EU/EG iterations) and the phase spans of code the replay cannot wrap
//! from outside (the estimator's verify phase, reachability inside an
//! analysis). Pool shards run on worker threads; for those the replay
//! sets `ParConfig::profile`, as `--stats` does, and reads the returned
//! `ShardProfile`s.
//!
//! Layer times are inclusive: a layer's time contains the layers it
//! calls (`core.coverage_s` contains the verification phase that
//! `mc.verify_s` also counts).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use covest_analyze::{cone_bit_names, task_cone, DepGraph};
use covest_bdd::{BddManager, ReorderConfig, ReorderMode, ReorderStats};
use covest_core::{json_string, CoverageEstimator, CoverageOptions, ReportRow};
use covest_mc::ModelChecker;
use covest_par::{BatchReport, DeckJob, ParConfig, WorkPlan};
use covest_smv::{decl_bit_names, ImageConfig, Module, SimplifyConfig};
use covest_telemetry::{self as telemetry, RecordKind, SpanRecord, Telemetry};

use crate::decks;

/// The CLI's uncovered-state sample size (`UNCOVERED_SAMPLE_LIMIT`).
const UNCOVERED_SAMPLE_LIMIT: usize = 10;

struct Span {
    layer: &'static str,
    start: Duration,
    end: Duration,
}

/// In-memory span log on one timeline.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    fn close(&mut self, layer: &'static str, start: Duration) {
        let end = self.now();
        self.spans.push(Span { layer, start, end });
    }

    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.close(layer, start);
        out
    }

    fn total(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Seconds of `[from, to]` covered by at least one span.
    fn covered(&self, from: Duration, to: Duration) -> f64 {
        let mut iv: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .map(|s| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort();
        let mut total = Duration::ZERO;
        let mut cur: Option<(Duration, Duration)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total.as_secs_f64()
    }
}

/// What the replay computed, for comparison with the CLI's output.
#[derive(Default)]
struct DeckResult {
    name: String,
    verdicts: Vec<(String, bool)>,
    /// `(signal, percent, covered states, space states)`.
    signals: Vec<(String, f64, f64, f64)>,
}

impl DeckResult {
    fn push_row(&mut self, r: &ReportRow) {
        self.signals.push((
            r.signal.clone(),
            r.percent,
            r.covered_states,
            r.space_states,
        ));
    }
}

/// Everything one replay accumulates besides its spans.
#[derive(Default)]
struct Tally {
    counts: BTreeMap<String, u64>,
    peak_live: u64,
    reorder_before: u64,
    reorder_after: u64,
    signal_times: Vec<f64>,
    /// Layer seconds read from program spans and shard profiles.
    inner: BTreeMap<&'static str, f64>,
    /// Cone and full-deck state bits over every coverage task.
    cone_bits: (u64, u64),
    traces: usize,
    results: Vec<DeckResult>,
    shards: usize,
    steals: usize,
    workers: usize,
    routed_sequential: bool,
    queue_wait_max: f64,
    busy: f64,
    stage: Option<(Duration, Duration)>,
    first_work: Option<Duration>,
}

impl Tally {
    fn add(&mut self, name: &str, value: u64) {
        if name == "bdd_peak_live_nodes" {
            self.peak_live = self.peak_live.max(value);
        } else {
            *self.counts.entry(name.to_owned()).or_default() += value;
        }
    }

    fn manager(&mut self, bdd: &BddManager) {
        for (name, value) in bdd.stats().pairs() {
            // Reorder sizes come from the sifting passes themselves.
            if !name.starts_with("bdd_reorder_size") {
                self.add(name, value);
            }
        }
    }

    fn reorder(&mut self, stats: &ReorderStats) {
        self.reorder_before += stats.before as u64;
        self.reorder_after += stats.after as u64;
    }

    fn inner(&mut self, layer: &'static str, secs: f64) {
        *self.inner.entry(layer).or_default() += secs;
    }

    fn cone(&mut self, module: &Module, cone: &BTreeSet<String>) {
        for d in module.vars.iter().filter(|d| !d.input) {
            let bits = decl_bit_names(d).len() as u64;
            self.cone_bits.1 += bits;
            if cone.contains(&d.name) {
                self.cone_bits.0 += bits;
            }
        }
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The CLI's default engine configuration (`--reorder sift --image part
/// --simplify restrict --coi on`).
fn image_config() -> ImageConfig {
    ImageConfig::default()
}

fn par_config(jobs: usize, profile: bool) -> ParConfig {
    ParConfig {
        jobs,
        image: image_config(),
        reorder: ReorderMode::Sift,
        uncovered_limit: UNCOVERED_SAMPLE_LIMIT,
        profile,
        progress: false,
        clock: None,
        coi: true,
    }
}

fn new_manager() -> BddManager {
    let bdd = BddManager::new();
    bdd.set_reorder_config(ReorderConfig {
        mode: ReorderMode::Sift,
        ..Default::default()
    });
    bdd
}

/// Replays `workload` on the decks `covbench gen` wrote into `dir` and
/// returns the metrics, counts and results as one JSON object.
pub fn run(workload: &str, dir: &Path) -> Result<String, String> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let files: Vec<String> = read("jobs.txt")?.lines().map(str::to_owned).collect();
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut tally = Tally::default();
    telemetry::install(Telemetry::new());
    let inv = decks::invocation(workload)?;
    let outcome = if inv.batch {
        batch(&mut tr, &mut tally, &files, &read, inv.jobs)
    } else {
        check(&mut tr, &mut tally, &files[0], &read, inv.jobs, inv.traces)
    };
    let (records, counters) = telemetry::uninstall().unwrap_or_default().into_parts();
    outcome?;
    let wall = tr.now();
    fold_records(&mut tally, &records, None);
    for (name, value) in counters.iter() {
        tally.add(name, value);
    }

    // Probes outside the replayed wall: layers the CLI runs inside
    // `WorkPlan::plan` (parse, cones) or not at all on this workload
    // (planning, on the sequential path) are timed by calling the same
    // functions on the same decks.
    let sources: Vec<String> = files.iter().map(|f| read(f)).collect::<Result<_, _>>()?;
    let pooled = !tally.routed_sequential && tally.shards > 0;
    let mut probe = Tracer {
        t0: tr.t0,
        spans: Vec::new(),
    };
    if pooled {
        for src in &sources {
            let module = probe.time("smv.parse", || covest_smv::parse_module(src));
            let module = module.map_err(err)?;
            let cones = probe.time("analyze.cone", || -> Result<Vec<_>, String> {
                let graph = DepGraph::new(&module);
                module
                    .observed
                    .iter()
                    .map(|o| task_cone(&module, &graph, &o.name))
                    .collect()
            })?;
            for cone in &cones {
                tally.cone(&module, cone);
            }
        }
    }
    if tally.shards == 0 {
        let jobs: Vec<DeckJob> = files
            .iter()
            .zip(&sources)
            .map(|(f, s)| DeckJob::new(f.as_str(), s.as_str()))
            .collect();
        let plan = probe.time("par.plan", || WorkPlan::plan(&jobs, &par_config(1, false)));
        tally.shards = plan.map_err(err)?.num_shards();
        tally.routed_sequential = true;
        tally.workers = 1;
    }

    write_spans(dir, &tr, &probe)?;
    Ok(metrics_json(&tr, &probe, &tally, wall, pooled))
}

/// `covest check DECK --coverage [--jobs J] [--traces N]`, as
/// `run_check` runs it.
fn check(
    tr: &mut Tracer,
    tally: &mut Tally,
    file: &str,
    read: &dyn Fn(&str) -> Result<String, String>,
    jobs: usize,
    traces: usize,
) -> Result<(), String> {
    let src = tr.time("cli.io", || read(file))?;
    let bdd = new_manager();
    let module = tr
        .time("smv.parse", || covest_smv::parse_module(&src))
        .map_err(err)?;
    let model = tr
        .time("smv.compile", || {
            covest_smv::compile_module_with(&bdd, &module, image_config())
        })
        .map_err(err)?;
    let stats = tr.time("bdd.reorder", || bdd.reduce_heap());
    tally.reorder(&stats);

    let mut deck = DeckResult {
        name: file.to_owned(),
        ..Default::default()
    };
    let mut mc = ModelChecker::new(&model.fsm);
    for fair in &model.fairness {
        mc.add_fairness(fair).map_err(err)?;
    }
    if image_config().simplify != SimplifyConfig::Off {
        let reach = tr.time("fsm.reach", || model.fsm.install_reachable_care());
        mc.set_care(reach);
    }
    for spec in &model.specs {
        let verdict = tr
            .time("mc.verify", || mc.check(&spec.clone().into()))
            .map_err(err)?;
        deck.verdicts.push((spec.to_string(), verdict.holds()));
    }

    let signals = model.observed.clone();
    let estimator = CoverageEstimator::new(&model.fsm);
    let graph = tr.time("analyze.cone", || DepGraph::new(&module));
    let stage_start = tr.now();
    if signals.is_empty() || jobs == 1 || signals.len() <= 1 {
        tally.first_work = Some(tr.now());
        for signal in &signals {
            let cone = tr
                .time("analyze.cone", || task_cone(&module, &graph, signal))
                .map_err(err)?;
            tally.cone(&module, &cone);
            let options = CoverageOptions {
                fairness: model.fairness.clone(),
                cone: Some(cone_bit_names(&module, &cone)),
                ..Default::default()
            };
            let start = tr.now();
            let analysis = estimator
                .analyze(signal, &model.specs, &options)
                .map_err(err)?;
            tr.close("core.coverage", start);
            tally.signal_times.push((tr.now() - start).as_secs_f64());
            let row = tr.time("core.traces", || {
                let universe = estimator.universe(options.cone.as_deref());
                let sample = estimator.sample_states_over(
                    &analysis.uncovered(),
                    &universe,
                    UNCOVERED_SAMPLE_LIMIT,
                );
                let row = ReportRow::from_analysis(file, &analysis).with_uncovered_sample(sample);
                if row.percent < 100.0 {
                    tally.traces += estimator
                        .traces_to_states_over(&analysis.uncovered(), &universe, traces)
                        .len();
                }
                row
            });
            deck.push_row(&row);
        }
        tally.stage = Some((stage_start, tr.now()));
        tally.busy = tr.busy_since(stage_start);
        tally.workers = 1;
    } else {
        let job = vec![DeckJob::new(file, src.as_str())];
        let report = run_batch(tr, tally, &job, jobs)?;
        for outcome in report.outcomes() {
            if outcome.row.percent < 100.0 && traces > 0 {
                let found = tr.time("core.traces", || -> Result<usize, String> {
                    let uncovered = bdd.import_bdd(&outcome.uncovered).map_err(err)?;
                    let cone = task_cone(&module, &graph, &outcome.row.signal)?;
                    let universe = estimator.universe(Some(&cone_bit_names(&module, &cone)));
                    Ok(estimator
                        .traces_to_states_over(&uncovered, &universe, traces)
                        .len())
                })?;
                tally.traces += found;
            }
            deck.push_row(&outcome.row);
        }
    }
    tally.manager(&bdd);
    tally.results.push(deck);
    Ok(())
}

/// `covest batch JOBLIST --jobs J`, as `run_batch_cmd` runs it.
fn batch(
    tr: &mut Tracer,
    tally: &mut Tally,
    files: &[String],
    read: &dyn Fn(&str) -> Result<String, String>,
    jobs: usize,
) -> Result<(), String> {
    let job_list = tr.time("cli.io", || -> Result<Vec<DeckJob>, String> {
        files
            .iter()
            .map(|f| Ok(DeckJob::new(f.as_str(), read(f)?)))
            .collect()
    })?;
    let report = run_batch(tr, tally, &job_list, jobs)?;
    for deck in &report.decks {
        let mut result = DeckResult {
            name: deck.name.clone(),
            verdicts: deck
                .verdicts
                .iter()
                .map(|v| (v.formula.clone(), v.holds))
                .collect(),
            ..Default::default()
        };
        for o in &deck.signals {
            result.push_row(&o.row);
        }
        tally.results.push(result);
    }
    Ok(())
}

/// `covest_par::run_batch`: plan, then route. The worthiness rule routes
/// a single-shard plan to the sequential estimator (`run_sequential`);
/// its other input, a fleet under 16 state bits, cannot occur on these
/// workloads. The sequential route is replayed call by call; the pool
/// runs with `profile` on so its shards report where their time went.
fn run_batch(
    tr: &mut Tracer,
    tally: &mut Tally,
    jobs: &[DeckJob],
    workers: usize,
) -> Result<BatchReport, String> {
    let plan = tr
        .time("par.plan", || {
            WorkPlan::plan(jobs, &par_config(workers, false))
        })
        .map_err(err)?;
    tally.shards = plan.num_shards();
    let start = tr.now();
    if plan.num_shards() <= 1 {
        tally.routed_sequential = true;
        tally.workers = 1;
        let report = run_sequential(tr, tally, jobs)?;
        tr.close("par.run", start);
        tally.stage = Some((start, tr.now()));
        tally.busy = tr.busy_since(start);
        return Ok(report);
    }
    tally.first_work = Some(start);
    let report = plan.run(&par_config(workers, true)).map_err(err)?;
    tr.close("par.run", start);
    tally.stage = Some((start, tr.now()));
    tally.steals = report.sched.steals;
    tally.workers = report.sched.workers;
    for p in report.decks.iter().flat_map(|d| d.profiles.iter()) {
        tally.queue_wait_max = tally.queue_wait_max.max(p.queue_wait.as_secs_f64());
        tally.busy += (p.compile + p.reach + p.solve).as_secs_f64();
        for (name, value) in p.counters.iter() {
            tally.add(name, value);
        }
        let (before, after) = p.reorder_sizes();
        tally.reorder_before += before;
        tally.reorder_after += after;
        let compile = fold_records(tally, &p.spans, Some(p));
        tally.inner(
            "bdd.reorder",
            (p.compile.saturating_sub(compile)).as_secs_f64(),
        );
    }
    Ok(report)
}

/// The body of `covest_par::run_sequential`, call by call.
fn run_sequential(
    tr: &mut Tracer,
    tally: &mut Tally,
    jobs: &[DeckJob],
) -> Result<BatchReport, String> {
    use covest_par::{DeckReport, SignalOutcome};
    let mut decks = Vec::new();
    for job in jobs {
        if tally.first_work.is_none() {
            tally.first_work = Some(tr.now());
        }
        let bdd = new_manager();
        let module = tr
            .time("smv.parse", || covest_smv::parse_module(&job.source))
            .map_err(err)?;
        let model = tr
            .time("smv.compile", || {
                covest_smv::compile_module_with(&bdd, &module, image_config())
            })
            .map_err(err)?;
        let stats = tr.time("bdd.reorder", || bdd.reduce_heap());
        tally.reorder(&stats);
        let mut report = DeckReport {
            name: job.name.clone(),
            num_properties: model.specs.len(),
            verdicts: Vec::new(),
            signals: Vec::new(),
            plan_time: Duration::ZERO,
            profiles: Vec::new(),
        };
        let estimator = CoverageEstimator::new(&model.fsm);
        let module = tr
            .time("smv.parse", || covest_smv::parse_module(&job.source))
            .map_err(err)?;
        let graph = tr.time("analyze.cone", || DepGraph::new(&module));
        // Every generated deck observes signals, so the verify-only
        // branch of `run_sequential` never runs here.
        let signals = if job.observed.is_empty() {
            &model.observed
        } else {
            &job.observed
        };
        for signal in signals {
            let cone = tr
                .time("analyze.cone", || task_cone(&module, &graph, signal))
                .map_err(err)?;
            tally.cone(&module, &cone);
            let options = CoverageOptions {
                fairness: model.fairness.clone(),
                cone: Some(cone_bit_names(&module, &cone)),
                ..Default::default()
            };
            let start = tr.now();
            let analysis = estimator
                .analyze(signal, &model.specs, &options)
                .map_err(err)?;
            tr.close("core.coverage", start);
            tally.signal_times.push((tr.now() - start).as_secs_f64());
            let outcome = tr.time("core.traces", || -> Result<SignalOutcome, String> {
                let universe = estimator.universe(options.cone.as_deref());
                let sample = estimator.sample_states_over(
                    &analysis.uncovered(),
                    &universe,
                    UNCOVERED_SAMPLE_LIMIT,
                );
                let uncovered = analysis.uncovered().export_bdd().map_err(err)?;
                let row =
                    ReportRow::from_analysis(&job.name, &analysis).with_uncovered_sample(sample);
                Ok(SignalOutcome {
                    deck: job.name.clone(),
                    signal: signal.clone(),
                    row,
                    uncovered,
                })
            })?;
            if report.verdicts.is_empty() {
                report.verdicts = outcome.row.verdicts.clone();
            }
            report.signals.push(outcome);
        }
        tally.manager(&bdd);
        decks.push(report);
    }
    Ok(BatchReport {
        decks,
        sched: Default::default(),
    })
}

impl Tracer {
    /// Seconds of layer work (spans other than `par.*`) that started at
    /// or after `from`: the busy time of a sequential coverage stage.
    fn busy_since(&self, from: Duration) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.start >= from && !s.layer.starts_with("par."))
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }
}

/// Folds a program span forest into the layer tallies: the estimator's
/// `verify` phases into `mc.verify`, the outermost `reachability` /
/// `care_install` spans (machine reachability, and the forward passes
/// inside coverage fixpoints) into `fsm.reach`, and, for a shard, its
/// `compile` span and `signal:*` analyses into `smv.compile` and
/// `core.coverage`. Returns the shard's `compile` span time.
fn fold_records(
    tally: &mut Tally,
    records: &[SpanRecord],
    shard: Option<&covest_par::ShardProfile>,
) -> Duration {
    let dur = |r: &SpanRecord| r.end.map_or(Duration::ZERO, |e| e.saturating_sub(r.start));
    let has_ancestor = |mut i: usize, pred: &dyn Fn(&str) -> bool| {
        while let Some(p) = records[i].parent {
            if pred(&records[p].name) {
                return true;
            }
            i = p;
        }
        false
    };
    let is_reach = |n: &str| n == "reachability" || n == "care_install";
    let mut compile = Duration::ZERO;
    let mut signals = Duration::ZERO;
    for (i, r) in records.iter().enumerate() {
        if r.kind != RecordKind::Span {
            continue;
        }
        match r.name.as_str() {
            "verify" => tally.inner("mc.verify", dur(r).as_secs_f64()),
            "compile" if shard.is_some() => {
                tally.inner("smv.compile", dur(r).as_secs_f64());
                compile += dur(r);
            }
            n if is_reach(n) && !has_ancestor(i, &is_reach) => {
                tally.inner("fsm.reach", dur(r).as_secs_f64());
            }
            n if n.starts_with("signal:") && shard.is_some() => {
                tally.inner("core.coverage", dur(r).as_secs_f64());
                tally.signal_times.push(dur(r).as_secs_f64());
                signals += dur(r);
            }
            _ => {}
        }
    }
    if let Some(p) = shard {
        // Sampling and export of the uncovered set run after each
        // analysis inside the shard's solve phase, unspanned.
        tally.inner("core.traces", p.solve.saturating_sub(signals).as_secs_f64());
    }
    compile
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn metrics_json(tr: &Tracer, probe: &Tracer, t: &Tally, wall: Duration, pooled: bool) -> String {
    let layer =
        |name: &str| tr.total(name) + probe.total(name) + t.inner.get(name).copied().unwrap_or(0.0);
    let (stage_start, stage_end) = t.stage.unwrap_or((wall, wall));
    let stage = (stage_end - stage_start).as_secs_f64();
    let queue_wait = if pooled {
        t.queue_wait_max
    } else {
        t.first_work
            .map_or(0.0, |w| w.saturating_sub(stage_start).as_secs_f64())
    };
    let pair_lookups = t.count("bdd_pair_hits") + t.count("bdd_pair_misses");
    let mut times = t.signal_times.clone();
    let max_signal = times.iter().copied().fold(0.0, f64::max);
    let metrics: Vec<(&str, f64)> = vec![
        ("smv.parse_s", layer("smv.parse")),
        ("smv.compile_s", layer("smv.compile")),
        ("analyze.cone_s", layer("analyze.cone")),
        (
            "analyze.cone_bits_ratio",
            ratio(t.cone_bits.0, t.cone_bits.1),
        ),
        ("par.plan_s", layer("par.plan")),
        ("par.run_s", stage),
        ("par.shards", t.shards as f64),
        ("par.steals", t.steals as f64),
        (
            "par.routed_sequential",
            f64::from(u8::from(t.routed_sequential)),
        ),
        ("par.queue_wait_max_s", queue_wait),
        (
            "par.busy_ratio",
            if stage > 0.0 {
                t.busy / (t.workers.max(1) as f64 * stage)
            } else {
                0.0
            },
        ),
        ("bdd.reorder_s", layer("bdd.reorder")),
        ("bdd.reorder_swaps", t.count("bdd_reorder_swaps") as f64),
        (
            "bdd.reorder_shrink_ratio",
            ratio(t.reorder_after, t.reorder_before),
        ),
        ("bdd.pair_lookups", pair_lookups as f64),
        (
            "bdd.pair_hit_ratio",
            ratio(t.count("bdd_pair_hits"), pair_lookups),
        ),
        (
            "bdd.quant_hit_ratio",
            ratio(
                t.count("bdd_quant_hits"),
                t.count("bdd_quant_hits") + t.count("bdd_quant_misses"),
            ),
        ),
        (
            "bdd.ite_hit_ratio",
            ratio(
                t.count("bdd_ite_hits"),
                t.count("bdd_ite_hits") + t.count("bdd_ite_misses"),
            ),
        ),
        ("bdd.unique_misses", t.count("bdd_unique_misses") as f64),
        ("bdd.peak_live_nodes", t.peak_live as f64),
        ("bdd.gc_runs", t.count("bdd_gc_runs") as f64),
        ("bdd.gc_reclaimed", t.count("bdd_gc_nodes_reclaimed") as f64),
        // The replay's own `fsm.reach` span only attributes wall time;
        // the program's reachability spans also see the passes inside
        // each analysis.
        (
            "fsm.reach_s",
            t.inner.get("fsm.reach").copied().unwrap_or(0.0),
        ),
        ("fsm.bfs_steps", t.count("bfs_steps") as f64),
        ("fsm.image_calls", t.count("image_calls") as f64),
        ("fsm.preimage_calls", t.count("preimage_calls") as f64),
        ("mc.verify_s", layer("mc.verify")),
        ("mc.eu_iterations", t.count("eu_iterations") as f64),
        (
            "mc.eg_iterations",
            (t.count("eg_iterations") + t.count("eg_fair_iterations")) as f64,
        ),
        ("core.coverage_s", layer("core.coverage")),
        ("core.coverage_median_s", median(&mut times)),
        ("core.coverage_max_s", max_signal),
        ("core.traces_s", layer("core.traces")),
    ];
    let wall_s = wall.as_secs_f64();
    let unattributed = 1.0 - tr.covered(Duration::ZERO, wall) / wall_s;
    let mut out = String::from("{\"metrics\": {");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {value}", if i > 0 { ", " } else { "" });
    }
    let _ = write!(
        out,
        "}}, \"wall_s\": {wall_s}, \"unattributed_ratio\": {unattributed}, \"traces\": {}, \
         \"results\": [",
        t.traces
    );
    for (i, d) in t.results.iter().enumerate() {
        let verdicts: Vec<String> = d
            .verdicts
            .iter()
            .map(|(f, h)| format!("[{}, {h}]", json_string(f)))
            .collect();
        let signals: Vec<String> = d
            .signals
            .iter()
            .map(|(s, p, c, n)| format!("[{}, {p}, {c}, {n}]", json_string(s)))
            .collect();
        let _ = write!(
            out,
            "{}{{\"name\": {}, \"verdicts\": [{}], \"signals\": [{}]}}",
            if i > 0 { ", " } else { "" },
            json_string(&d.name),
            verdicts.join(", "),
            signals.join(", ")
        );
    }
    out.push_str("]}");
    out
}

/// Writes both span logs (the replay's, then the probes') as JSONL.
fn write_spans(dir: &Path, tr: &Tracer, probe: &Tracer) -> Result<(), String> {
    let mut out = String::new();
    for (kind, t) in [("replay", tr), ("probe", probe)] {
        for s in &t.spans {
            let _ = writeln!(
                out,
                "{{\"kind\": \"{kind}\", \"layer\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.layer,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
    }
    std::fs::write(dir.join("replay_spans.jsonl"), out).map_err(err)
}
