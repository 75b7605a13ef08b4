//! The user-facing coverage estimator: multi-property analysis,
//! don't-cares, fairness, uncovered-state reporting and traces.
//!
//! This is the workflow of the paper's Section 4: verify a property
//! suite, compute the covered set per property, union them, relate the
//! result to the coverage space (reachable states, restricted to fair
//! paths and excluding user don't-cares), and help the user inspect the
//! holes.

use std::time::Duration;

use covest_bdd::{Func, VarId};
use covest_ctl::{Formula, PropExpr};
use covest_fsm::{SymbolicFsm, Trace};
use covest_mc::ModelChecker;
use covest_telemetry::{self as telemetry, Stopwatch};

use crate::covered::CoveredSets;
use crate::error::CoverageError;

/// Per-property outcome within an analysis.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// The property.
    pub formula: Formula,
    /// Whether the model satisfies it.
    pub holds: bool,
    /// Whether the property passes *vacuously*: some implication inside
    /// it never triggers, so it constrains nothing (and covers nothing
    /// there). Usually a specification bug.
    pub vacuous: bool,
    /// Covered set contributed by this property (empty if it fails).
    /// An owned handle: the set stays valid for as long as the result is
    /// held, across any GC or reordering.
    pub covered: Func,
}

/// The result of a coverage analysis for one observed signal.
///
/// The state sets are owned [`Func`] handles, so a finished analysis can
/// be held across further analyses on the same manager — automatic
/// reordering checkpoints inside those later runs cannot invalidate it.
#[derive(Debug, Clone)]
pub struct CoverageAnalysis {
    /// Observed signal name.
    pub observed: String,
    /// Per-property results, in input order.
    pub properties: Vec<PropertyResult>,
    /// Union of covered sets (intersected with the coverage space).
    pub covered: Func,
    /// The coverage space: reachable (fair) states minus don't-cares.
    pub space: Func,
    /// Number of states in `covered`.
    pub covered_count: f64,
    /// Number of states in `space`.
    pub space_count: f64,
    /// Wall-clock time spent verifying the properties.
    pub verify_time: Duration,
    /// BDD table size after verification (paper's "BDDs" column).
    pub verify_nodes: usize,
    /// Wall-clock time spent computing covered sets + the space.
    pub coverage_time: Duration,
    /// BDD table size after coverage estimation.
    pub coverage_nodes: usize,
}

impl CoverageAnalysis {
    /// Coverage percentage per Definition 4.
    ///
    /// An empty coverage space yields 100% (nothing to cover).
    pub fn percent(&self) -> f64 {
        if self.space_count == 0.0 {
            100.0
        } else {
            100.0 * self.covered_count / self.space_count
        }
    }

    /// The uncovered portion of the coverage space.
    pub fn uncovered(&self) -> Func {
        self.space.diff(&self.covered)
    }

    /// `true` if every property in the suite holds.
    pub fn all_hold(&self) -> bool {
        self.properties.iter().all(|p| p.holds)
    }

    /// Properties that pass only vacuously (see
    /// [`PropertyResult::vacuous`]).
    pub fn vacuous_properties(&self) -> Vec<&Formula> {
        self.properties
            .iter()
            .filter(|p| p.vacuous)
            .map(|p| &p.formula)
            .collect()
    }
}

/// Options controlling an analysis.
#[derive(Debug, Clone, Default)]
pub struct CoverageOptions {
    /// Propositional don't-care predicate: states where the observed
    /// signal's value is irrelevant, excluded from the coverage space
    /// (Section 4.2).
    pub dont_cares: Option<PropExpr>,
    /// Fairness constraints (Section 4.3); coverage is then computed over
    /// states reachable along fair paths.
    pub fairness: Vec<PropExpr>,
    /// If `true`, failing properties abort the analysis with
    /// [`CoverageError::PropertyFails`]; if `false` (default), failing
    /// properties contribute no coverage but are reported.
    pub strict: bool,
    /// Cone-of-influence restriction: the state-bit *names* (declaration
    /// order) that span the coverage universe. When set, the covered set
    /// and the space are projected onto these bits (existentially
    /// quantifying everything else) after they are intersected, and
    /// counting/sampling runs over exactly these bits. Projection at that
    /// point is exact — see DESIGN.md "Static deck analysis &
    /// cone-of-influence" for the argument. `None` (default) keeps the
    /// full state-bit universe.
    pub cone: Option<Vec<String>>,
}

/// The signal-independent state of the analyses on one machine, built
/// by [`CoverageEstimator::prepare`] and passed to every
/// [`CoverageEstimator::analyze_prepared`] call: the reachable set, one
/// covered-set engine over one model checker (fairness and care
/// installed, satisfaction sets and fair states memoized across
/// signals), and the verified suite's verdicts and vacuity flags.
#[derive(Debug)]
pub struct AnalysisContext<'m> {
    reach: Func,
    engine: CoveredSets<'m>,
    suite: Option<SuiteResults>,
}

/// A verified suite: per-property verdicts, plus the vacuity flags once
/// a coverage phase has computed them.
#[derive(Debug)]
struct SuiteResults {
    properties: Vec<Formula>,
    holds: Vec<bool>,
    vacuous: Option<Vec<bool>>,
}

/// The coverage estimator for one machine.
///
/// # Examples
///
/// ```
/// use covest_bdd::BddManager;
/// use covest_fsm::Stg;
/// use covest_core::{CoverageEstimator, CoverageOptions};
/// use covest_ctl::parse_formula;
///
/// let mut stg = Stg::new("chain");
/// stg.add_states(4);
/// stg.add_path(&[0, 1, 2, 3]);
/// stg.add_edge(3, 3);
/// stg.mark_initial(0);
/// stg.label(0, "p1");
/// stg.label(1, "p1");
/// stg.label(2, "p1");
/// stg.label(3, "q");
/// let mgr = BddManager::new();
/// let fsm = stg.compile(&mgr)?;
/// let estimator = CoverageEstimator::new(&fsm);
/// let props = vec![parse_formula("A[p1 U q]").unwrap()];
/// let analysis = estimator.analyze("q", &props, &CoverageOptions::default())?;
/// assert!(analysis.all_hold());
/// assert_eq!(analysis.percent(), 25.0); // only the first q-state covered
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CoverageEstimator<'m> {
    fsm: &'m SymbolicFsm,
}

impl<'m> CoverageEstimator<'m> {
    /// Creates an estimator for `fsm`.
    pub fn new(fsm: &'m SymbolicFsm) -> Self {
        CoverageEstimator { fsm }
    }

    /// Runs the full analysis for `observed` over a property suite:
    /// [`CoverageEstimator::prepare`] followed by
    /// [`CoverageEstimator::analyze_prepared`] on the fresh context, so
    /// every call verifies the suite itself.
    ///
    /// Every reachability and CTL fixpoint underneath runs on the
    /// machine's image engine, so the default partitioned method (and
    /// any [`covest_fsm::ImageConfig`] installed with
    /// [`covest_fsm::SymbolicFsm::set_image_config`]) applies to the
    /// whole analysis.
    ///
    /// With [`covest_bdd::ReorderMode::Auto`] configured on the manager,
    /// this method sifts at its phase boundaries via the zero-argument
    /// [`covest_bdd::BddManager::maybe_reduce_heap`]. Every live handle —
    /// this machine, its checker state, and anything else the caller
    /// holds on the same manager — survives automatically; there is no
    /// root set to enumerate and nothing to protect.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError`] for unknown/non-boolean observed signals,
    /// lowering failures, or (in strict mode) failing properties.
    pub fn analyze(
        &self,
        observed: &str,
        properties: &[Formula],
        options: &CoverageOptions,
    ) -> Result<CoverageAnalysis, CoverageError> {
        let mut ctx = self.prepare(options)?;
        self.analyze_prepared(&mut ctx, observed, properties, options)
    }

    /// The machine-wide (signal-independent) part of an analysis, done
    /// once for all the signals analyzed on this machine. It computes the
    /// reachable states and installs them as the care set, then builds
    /// the one model checker every signal shares, with `options.fairness`
    /// and the care set installed.
    ///
    /// Reachability comes first: the reachable set is both the
    /// coverage-space denominator and the don't-care boundary. Per the
    /// configured [`covest_fsm::SimplifyConfig`] it is installed as the
    /// image engine's care set (transition clusters simplified, forward
    /// schedules re-derived) and as the checker's iterate-simplification
    /// boundary, so verification and coverage both fixpoint over
    /// don't-care-simplified BDDs.
    ///
    /// The returned context also keeps the suite's verdicts and vacuity
    /// flags once the first [`CoverageEstimator::analyze_prepared`] call
    /// has computed them. Neither depends on the observed signal.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] if a fairness constraint mentions
    /// an unknown signal.
    pub fn prepare(&self, options: &CoverageOptions) -> Result<AnalysisContext<'m>, CoverageError> {
        let reach = self.fsm.install_reachable_care();
        let mut mc = ModelChecker::new(self.fsm);
        for fair in &options.fairness {
            mc.add_fairness(fair)?;
        }
        mc.set_care(reach.clone());
        Ok(AnalysisContext {
            reach,
            engine: CoveredSets::unobserved(mc),
            suite: None,
        })
    }

    /// Runs one signal's analysis on a context from
    /// [`CoverageEstimator::prepare`] on this machine. Only the
    /// signal-dependent part runs per call: `depend` and the covered-set
    /// union. The first call verifies `properties` and the coverage
    /// phase computes their vacuity flags; both are kept in `ctx`, and
    /// later calls with the same suite reuse them. So the first signal's
    /// row carries the verification time, and the others report a
    /// verification time near zero. `options.fairness` is read by
    /// `prepare` only.
    ///
    /// # Errors
    ///
    /// See [`CoverageEstimator::analyze`].
    pub fn analyze_prepared(
        &self,
        ctx: &mut AnalysisContext<'m>,
        observed: &str,
        properties: &[Formula],
        options: &CoverageOptions,
    ) -> Result<CoverageAnalysis, CoverageError> {
        let _span = telemetry::span(format!("signal:{observed}"));
        let mgr = self.fsm.manager().clone();
        let reach = ctx.reach.clone();
        let cs = &mut ctx.engine;
        cs.observe(observed)?;

        // Phase 1: verification, once per context and suite.
        let t0 = Stopwatch::start();
        let suite = match &mut ctx.suite {
            Some(suite) if suite.properties == properties => suite,
            slot => {
                let verify_span = telemetry::span("verify");
                let mut holds = Vec::with_capacity(properties.len());
                for p in properties {
                    let h = cs.verify(p)?;
                    if options.strict && !h {
                        return Err(CoverageError::PropertyFails(p.to_string()));
                    }
                    holds.push(h);
                }
                telemetry::span_field("properties", properties.len() as u64);
                drop(verify_span);
                slot.insert(SuiteResults {
                    properties: properties.to_vec(),
                    holds,
                    vacuous: None,
                })
            }
        };
        if options.strict {
            if let Some(i) = suite.holds.iter().position(|&h| !h) {
                return Err(CoverageError::PropertyFails(properties[i].to_string()));
            }
        }
        let verify_time = t0.elapsed();
        let verify_nodes = mgr.table_size();

        // Safe point between the verification and coverage phases: in
        // auto-reorder mode, sift against the live working set — which is
        // exactly the handles still alive (the machine, the covered-set
        // engine with its memoized satisfaction sets, and the caller's).
        mgr.maybe_reduce_heap();

        // Phase 2: covered sets + coverage space.
        let t1 = Stopwatch::start();
        let coverage_span = telemetry::span("coverage");
        let mut property_results = Vec::with_capacity(properties.len());
        let mut covered = mgr.constant(false);
        for (i, (p, &holds)) in properties.iter().zip(&suite.holds).enumerate() {
            let c = if holds {
                cs.covered_from_init(p)?
            } else {
                mgr.constant(false)
            };
            let vacuous = match &suite.vacuous {
                Some(flags) => flags[i],
                None => holds && cs.vacuous(p)?,
            };
            covered = covered.or(&c);
            property_results.push(PropertyResult {
                formula: p.clone(),
                holds,
                vacuous,
                covered: c,
            });
        }
        suite.vacuous = Some(property_results.iter().map(|r| r.vacuous).collect());

        let fair = cs.checker_mut().fair_states();
        let mut space = reach.and(&fair);
        if let Some(dc) = &options.dont_cares {
            let dcf = self.fsm.signals().lower(&mgr, dc)?;
            space = space.diff(&dcf);
        }
        let covered = covered.and(&space);
        // Cone-of-influence restriction: project *after* intersecting the
        // covered set with the space — `covered` is then a cone predicate
        // conjoined with `space`, which makes ∃-projection exact (the
        // uncovered set derived from the projected pair equals the
        // projection of the full uncovered set; DESIGN.md).
        let (covered, space) = if let Some(bits) = &options.cone {
            let keep: std::collections::HashSet<&str> = bits.iter().map(String::as_str).collect();
            let outside: Vec<VarId> = self
                .fsm
                .state_bits()
                .iter()
                .filter(|b| !keep.contains(b.name.as_str()))
                .map(|b| b.current)
                .collect();
            (covered.exists(&outside), space.exists(&outside))
        } else {
            (covered, space)
        };
        // Deterministic coverage-span payload: BDD sizes of the two
        // result sets, pure functions of (deck source, config) like the
        // counters — gathered only under a recorder, since node_count is
        // a traversal.
        if telemetry::is_active() {
            telemetry::span_field("covered_nodes", covered.node_count() as u64);
            telemetry::span_field("space_nodes", space.node_count() as u64);
        }
        drop(coverage_span);
        let coverage_time = t1.elapsed();
        let coverage_nodes = mgr.table_size();

        mgr.maybe_reduce_heap();

        let vars = self.state_universe(&covered, &space, options.cone.as_deref());
        let covered_count = covered.sat_count_over(&vars);
        let space_count = space.sat_count_over(&vars);

        Ok(CoverageAnalysis {
            observed: observed.to_owned(),
            properties: property_results,
            covered,
            space,
            covered_count,
            space_count,
            verify_time,
            verify_nodes,
            coverage_time,
            coverage_nodes,
        })
    }

    /// Analyzes one property suite against **several observed signals at
    /// once**, returning a single analysis whose covered set is the union
    /// of the per-signal covered sets — the paper's Section 2 semantics
    /// for properties with multiple observable signals.
    ///
    /// # Errors
    ///
    /// See [`CoverageEstimator::analyze`].
    pub fn analyze_union(
        &self,
        observed: &[&str],
        properties: &[Formula],
        options: &CoverageOptions,
    ) -> Result<CoverageAnalysis, CoverageError> {
        assert!(!observed.is_empty(), "need at least one observed signal");
        let suites: Vec<(&str, Vec<Formula>)> = observed
            .iter()
            .map(|&sig| (sig, properties.to_vec()))
            .collect();
        let mut analyses = self.analyze_signals(&suites, options)?;
        // The analyses hold their sets as owned handles, so merging after
        // any number of intervening reorder checkpoints is sound.
        let mut merged = analyses.pop().expect("nonempty");
        for a in &analyses {
            merged.covered = merged.covered.or(&a.covered);
            for (mine, theirs) in merged.properties.iter_mut().zip(&a.properties) {
                mine.covered = mine.covered.or(&theirs.covered);
                mine.holds &= theirs.holds;
            }
        }
        let vars = self.state_universe(&merged.covered, &merged.space, options.cone.as_deref());
        merged.covered_count = merged.covered.sat_count_over(&vars);
        merged.observed = observed.join("+");
        Ok(merged)
    }

    /// Analyzes several observed signals over their own property suites
    /// and returns the per-signal analyses in input order. The signals
    /// share one [`AnalysisContext`], so consecutive signals with the same
    /// suite verify it once.
    ///
    /// Completed analyses survive the later calls' automatic-reorder
    /// collection points by ownership alone — the old protect/unprotect
    /// bracketing around this loop is gone with the roots contract.
    ///
    /// # Errors
    ///
    /// See [`CoverageEstimator::analyze`].
    pub fn analyze_signals(
        &self,
        suites: &[(&str, Vec<Formula>)],
        options: &CoverageOptions,
    ) -> Result<Vec<CoverageAnalysis>, CoverageError> {
        let mut ctx = self.prepare(options)?;
        let mut analyses = Vec::with_capacity(suites.len());
        for (sig, props) in suites {
            analyses.push(self.analyze_prepared(&mut ctx, sig, props, options)?);
        }
        Ok(analyses)
    }

    /// Samples up to `limit` states of `set` as *canonical* minterms
    /// over an explicit variable universe (a cone-restricted analysis
    /// samples over the cone bits only): the lexicographically smallest
    /// assignments with respect to `vars`' order — for state sets, the
    /// machine's **declaration order** (false before true) — extracted
    /// by a cofactor walk and returned in ascending order.
    ///
    /// The sample is a pure function of the state set and the universe
    /// order — independent of the manager's variable order, reordering
    /// history, or which manager the set was computed on — so sequential
    /// and parallel runs print byte-identical reports.
    fn canonical_minterms_over(
        &self,
        set: &Func,
        vars: &[VarId],
        limit: usize,
    ) -> Vec<Vec<(VarId, bool)>> {
        let mgr = self.fsm.manager();
        // When the caller wants the whole set, lazy enumeration plus a
        // sort beats the one-BDD-diff-per-state walk below (which would
        // be quadratic in the set size) and yields the same canonical
        // declaration-order listing.
        if limit as f64 >= set.sat_count_over(vars) {
            let mut all: Vec<Vec<(VarId, bool)>> = set.minterms_over(vars).collect();
            all.sort_by(|a, b| {
                let key = |m: &[(VarId, bool)]| m.iter().map(|&(_, v)| v).collect::<Vec<_>>();
                key(a).cmp(&key(b))
            });
            return all;
        }
        let mut rest = set.clone();
        let mut out = Vec::new();
        while out.len() < limit && !rest.is_false() {
            let mut cube_f = mgr.constant(true);
            let mut cube = Vec::with_capacity(vars.len());
            let mut cur = rest.clone();
            for &v in vars {
                let lo = cur.cofactor(v, false);
                let (val, next) = if lo.is_false() {
                    (true, cur.cofactor(v, true))
                } else {
                    (false, lo)
                };
                cube.push((v, val));
                cube_f = cube_f.and(&mgr.literal(v, val));
                cur = next;
            }
            rest = rest.diff(&cube_f);
            out.push(cube);
        }
        out
    }

    /// Lists up to `limit` states of an arbitrary state set (over current
    /// variables) as named bit assignments, in the canonical
    /// declaration-order lexicographic order (see
    /// [`CoverageEstimator::uncovered_states`] for the determinism
    /// contract). This is the entry point the parallel front-end uses
    /// after importing an uncovered set from a worker.
    pub fn sample_states(&self, set: &Func, limit: usize) -> Vec<Vec<(String, bool)>> {
        self.sample_states_over(set, &self.fsm.current_vars(), limit)
    }

    /// [`CoverageEstimator::sample_states`] over an explicit variable
    /// universe (see [`CoverageEstimator::universe`]); a cone-restricted
    /// analysis samples its sets over the cone bits only.
    pub fn sample_states_over(
        &self,
        set: &Func,
        vars: &[VarId],
        limit: usize,
    ) -> Vec<Vec<(String, bool)>> {
        self.canonical_minterms_over(set, vars, limit)
            .into_iter()
            .map(|m| {
                m.into_iter()
                    .map(|(v, val)| (self.bit_name(v).to_owned(), val))
                    .collect()
            })
            .collect()
    }

    /// The counting/sampling universe selected by an optional cone of
    /// state-bit names: the matching current-state [`VarId`]s in
    /// declaration order, or every state bit for `None`.
    ///
    /// # Panics
    ///
    /// Panics if a cone name does not name a state bit of this machine.
    pub fn universe(&self, cone: Option<&[String]>) -> Vec<VarId> {
        match cone {
            None => self.fsm.current_vars(),
            Some(bits) => {
                let vars: Vec<VarId> = self
                    .fsm
                    .state_bits()
                    .iter()
                    .filter(|b| bits.contains(&b.name))
                    .map(|b| b.current)
                    .collect();
                assert_eq!(
                    vars.len(),
                    bits.len(),
                    "every cone entry must name a distinct state bit"
                );
                vars
            }
        }
    }

    /// Lists up to `limit` uncovered states as named bit assignments.
    ///
    /// The sample is deterministic: states come out sorted by their bit
    /// values in declaration order (false < true), regardless of the
    /// current variable order or any reordering history — so two runs
    /// that agree on the uncovered *set* (e.g. a sequential and a
    /// parallel analysis) produce diff-identical listings.
    pub fn uncovered_states(
        &self,
        analysis: &CoverageAnalysis,
        limit: usize,
    ) -> Vec<Vec<(String, bool)>> {
        self.sample_states(&analysis.uncovered(), limit)
    }

    /// Generates shortest traces from the initial states to up to
    /// `limit` states of `set`, targeting the same canonical state
    /// sample as [`CoverageEstimator::sample_states`].
    pub fn traces_to_states(&self, set: &Func, limit: usize) -> Vec<Trace> {
        self.traces_to_states_over(set, &self.fsm.current_vars(), limit)
    }

    /// [`CoverageEstimator::traces_to_states`] over an explicit variable
    /// universe: traces target the canonical sample over `vars` (for a
    /// cone-restricted set, any reachable completion of the cone cube).
    pub fn traces_to_states_over(&self, set: &Func, vars: &[VarId], limit: usize) -> Vec<Trace> {
        let mgr = self.fsm.manager();
        let mut traces = Vec::new();
        for t in self.canonical_minterms_over(set, vars, limit) {
            let mut cube = mgr.constant(true);
            for (v, val) in t {
                cube = cube.and(&mgr.literal(v, val));
            }
            if let Some(trace) = self.fsm.trace_to(&cube) {
                traces.push(trace);
            }
        }
        traces
    }

    /// Generates shortest traces from the initial states to up to `limit`
    /// uncovered states (Section 3's aid for strengthening properties).
    pub fn traces_to_uncovered(&self, analysis: &CoverageAnalysis, limit: usize) -> Vec<Trace> {
        self.traces_to_states(&analysis.uncovered(), limit)
    }

    fn bit_name(&self, v: VarId) -> &str {
        self.fsm
            .state_bits()
            .iter()
            .find(|b| b.current == v)
            .map(|b| b.name.as_str())
            .unwrap_or("?")
    }

    fn state_universe(&self, covered: &Func, space: &Func, cone: Option<&[String]>) -> Vec<VarId> {
        // Counting universe: the state bits (or the cone bits). Signals
        // over inputs can leak input variables into covered sets; guard
        // against that in debug.
        let vars = self.universe(cone);
        debug_assert!(
            {
                let set: std::collections::HashSet<VarId> = vars.iter().copied().collect();
                covered.support().iter().all(|v| set.contains(v))
                    && space.support().iter().all(|v| set.contains(v))
            },
            "covered/space must be state predicates"
        );
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covest_bdd::BddManager;
    use covest_ctl::parse_formula;
    use covest_fsm::Stg;

    fn f(s: &str) -> Formula {
        parse_formula(s).expect(s)
    }

    fn figure2(mgr: &BddManager) -> (Stg, SymbolicFsm) {
        let mut stg = Stg::new("figure2");
        stg.add_states(6);
        stg.add_path(&[0, 1, 2, 3, 4, 5]);
        stg.add_edge(5, 5);
        stg.mark_initial(0);
        for s in 0..4 {
            stg.label(s, "p1");
        }
        stg.label(4, "q");
        stg.label(5, "q");
        (stg.clone(), stg.compile(mgr).expect("compiles"))
    }

    #[test]
    fn analysis_reports_percent_and_holes() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let analysis = est
            .analyze("q", &[f("A[p1 U q]")], &CoverageOptions::default())
            .expect("analyzes");
        assert!(analysis.all_hold());
        assert_eq!(analysis.space_count, 6.0);
        assert_eq!(analysis.covered_count, 1.0);
        assert!((analysis.percent() - 100.0 / 6.0).abs() < 1e-9);
        let holes = est.uncovered_states(&analysis, 10);
        assert_eq!(holes.len(), 5);
    }

    #[test]
    fn additional_property_closes_holes() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        // Add a property checking q persists: AG(q -> AX q) covers state 5
        // (successor of q states); plus one checking ¬q on the prefix.
        let props = vec![f("A[p1 U q]"), f("AG (q -> AX q)"), f("AG (p1 -> !q)")];
        let analysis = est
            .analyze("q", &props, &CoverageOptions::default())
            .expect("analyzes");
        assert!(analysis.all_hold());
        assert_eq!(analysis.percent(), 100.0);
    }

    #[test]
    fn failing_property_contributes_nothing_by_default() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let analysis = est
            .analyze("q", &[f("AG q")], &CoverageOptions::default())
            .expect("analyzes");
        assert!(!analysis.all_hold());
        assert_eq!(analysis.covered_count, 0.0);
    }

    /// One context serves several signals and suites: every analysis
    /// equals the one a fresh context gives, a changed suite is verified
    /// anew, and strict mode still rejects a cached failing verdict.
    #[test]
    fn shared_context_matches_fresh_analyses() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let opts = CoverageOptions::default();
        let suite_a = vec![
            f("A[p1 U q]"),
            f("AG (q -> AX q)"),
            f("AG ((q & p1) -> AX q)"),
            f("AG q"),
        ];
        let suite_b = vec![f("AG (p1 -> !q)")];
        let mut ctx = est.prepare(&opts).expect("prepares");
        let mut check = |sig: &str, suite: &[Formula]| {
            let shared = est
                .analyze_prepared(&mut ctx, sig, suite, &opts)
                .expect("analyzes");
            let fresh = est.analyze(sig, suite, &opts).expect("analyzes");
            assert_eq!(shared.covered, fresh.covered, "{sig}");
            assert_eq!(shared.space, fresh.space, "{sig}");
            let flags = |a: &CoverageAnalysis| -> Vec<(bool, bool)> {
                a.properties.iter().map(|p| (p.holds, p.vacuous)).collect()
            };
            assert_eq!(flags(&shared), flags(&fresh), "{sig}");
        };
        check("q", &suite_a);
        check("p1", &suite_a);
        check("q", &suite_b);
        check("p1", &suite_a);
        let vacuous: Vec<bool> = est
            .analyze_prepared(&mut ctx, "q", &suite_a, &opts)
            .expect("analyzes")
            .properties
            .iter()
            .map(|p| p.vacuous)
            .collect();
        assert_eq!(vacuous, [false, false, true, false]);
        // The context now holds suite A's verdicts, `AG q` failing.
        let strict = CoverageOptions {
            strict: true,
            ..Default::default()
        };
        let err = est
            .analyze_prepared(&mut ctx, "q", &suite_a, &strict)
            .unwrap_err();
        assert_eq!(err, CoverageError::PropertyFails("AG q".to_owned()));
    }

    #[test]
    fn strict_mode_rejects_failing_properties() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let err = est
            .analyze(
                "q",
                &[f("AG q")],
                &CoverageOptions {
                    strict: true,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, CoverageError::PropertyFails(_)));
    }

    #[test]
    fn dont_cares_shrink_the_space() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        // Declare the p1-prefix as don't-care for q.
        let analysis = est
            .analyze(
                "q",
                &[f("A[p1 U q]"), f("AG (q -> AX q)")],
                &CoverageOptions {
                    dont_cares: Some(PropExpr::atom("p1")),
                    ..Default::default()
                },
            )
            .expect("analyzes");
        assert_eq!(analysis.space_count, 2.0); // states 4 and 5
        assert_eq!(analysis.percent(), 100.0);
    }

    #[test]
    fn traces_lead_to_uncovered_states() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let analysis = est
            .analyze("q", &[f("A[p1 U q]")], &CoverageOptions::default())
            .expect("analyzes");
        let traces = est.traces_to_uncovered(&analysis, 3);
        assert_eq!(traces.len(), 3);
        for t in &traces {
            assert!(!t.steps.is_empty());
        }
    }

    /// Regression: `analyze_union`/`analyze_signals` hold results from
    /// earlier `analyze` calls across later ones; with aggressive
    /// automatic reordering those later calls collect internally, and the
    /// accumulated sets must survive. Under the RAII API this holds by
    /// ownership — the old explicit protect/unprotect bracketing is gone.
    #[test]
    fn union_is_stable_under_aggressive_auto_reordering() {
        use covest_bdd::{ReorderConfig, ReorderMode};

        let run = |mode: ReorderMode| -> (f64, f64) {
            let mgr = BddManager::new();
            mgr.set_reorder_config(ReorderConfig {
                mode,
                auto_threshold: 8, // fire at every checkpoint
                ..Default::default()
            });
            let (_, fsm) = figure2(&mgr);
            let est = CoverageEstimator::new(&fsm);
            let union = est
                .analyze_union(&["q", "p1"], &[f("A[p1 U q]")], &CoverageOptions::default())
                .expect("analyzes");
            let signals = est
                .analyze_signals(
                    &[("q", vec![f("A[p1 U q]")]), ("p1", vec![f("A[p1 U q]")])],
                    &CoverageOptions::default(),
                )
                .expect("analyzes");
            let first_again = signals[0].covered_count;
            (union.covered_count, first_again)
        };

        let (union_off, first_off) = run(ReorderMode::Off);
        let (union_auto, first_auto) = run(ReorderMode::Auto);
        assert_eq!(union_off.to_bits(), union_auto.to_bits());
        assert_eq!(first_off.to_bits(), first_auto.to_bits());
    }

    /// The uncovered-state sample must be canonical: sorted by bit
    /// values in declaration order and invariant under reordering
    /// history — the property that makes sequential and parallel runs
    /// print diff-identical reports.
    #[test]
    fn uncovered_states_are_canonical_across_reorder_histories() {
        use covest_bdd::{ReorderConfig, ReorderMode};

        let run = |mode: ReorderMode| -> Vec<Vec<(String, bool)>> {
            let mgr = BddManager::new();
            mgr.set_reorder_config(ReorderConfig {
                mode,
                auto_threshold: 8,
                ..Default::default()
            });
            let (_, fsm) = figure2(&mgr);
            let est = CoverageEstimator::new(&fsm);
            let analysis = est
                .analyze("q", &[f("A[p1 U q]")], &CoverageOptions::default())
                .expect("analyzes");
            est.uncovered_states(&analysis, 10)
        };

        let off = run(ReorderMode::Off);
        assert_eq!(off.len(), 5);
        // Sorted ascending by declaration-order bit values (false < true).
        let keys: Vec<Vec<bool>> = off
            .iter()
            .map(|s| s.iter().map(|&(_, v)| v).collect())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "sample must come out sorted");
        // Identical under a different (aggressive) reordering history.
        assert_eq!(off, run(ReorderMode::Auto));
    }

    #[test]
    fn multi_signal_analysis() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let suites = vec![("q", vec![f("A[p1 U q]")]), ("p1", vec![f("A[p1 U q]")])];
        let results = est
            .analyze_signals(&suites, &CoverageOptions::default())
            .expect("analyzes");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].covered_count, 1.0); // first q state
        assert_eq!(results[1].covered_count, 4.0); // p1 prefix
    }
}
