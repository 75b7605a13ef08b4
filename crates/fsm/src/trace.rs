//! Trace generation: shortest input sequences witnessing reachability.
//!
//! The paper (Section 3) reports *traces to uncovered states*: a breadth
//! first reachability analysis finds the shortest path from the initial
//! states to a target state, and an input sequence is extracted along the
//! path (following Cho/Hachtel/Somenzi's implicit enumeration technique,
//! the paper's reference [8]).

use std::collections::HashMap;

use covest_bdd::{BddManager, Func, VarId};

use crate::fsm::SymbolicFsm;

/// One step of a concrete trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Values of all state bits, in declaration order.
    pub state: Vec<(String, bool)>,
    /// Values of the inputs consumed to move to the *next* step
    /// (empty for the final step).
    pub inputs: Vec<(String, bool)>,
}

/// A concrete execution from an initial state to a target state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The steps, starting at an initial state and ending in the target.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Number of transitions in the trace.
    pub fn len(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }

    /// `true` if the trace is a single (initial) state.
    pub fn is_empty(&self) -> bool {
        self.steps.len() <= 1
    }
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            write!(f, "step {i}: ")?;
            for (name, v) in &step.state {
                write!(f, "{name}={} ", u8::from(*v))?;
            }
            if !step.inputs.is_empty() {
                write!(f, "/ inputs: ")?;
                for (name, v) in &step.inputs {
                    write!(f, "{name}={} ", u8::from(*v))?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl SymbolicFsm {
    /// Finds a shortest trace from the initial states to any state in
    /// `target`, or `None` if `target` is unreachable.
    pub fn trace_to(&self, target: &Func) -> Option<Trace> {
        let init = self.init().clone();
        self.trace_from_to(&init, target)
    }

    /// Finds a shortest trace from a state in `from` to a state in
    /// `target`.
    pub fn trace_from_to(&self, from: &Func, target: &Func) -> Option<Trace> {
        // Forward BFS until the target is hit.
        let mut rings = vec![from.clone()];
        let mut reached = from.clone();
        let mut hit_ring = None;
        if !from.and(target).is_false() {
            hit_ring = Some(0);
        }
        while hit_ring.is_none() {
            let frontier = rings.last().expect("nonempty").clone();
            let img = self.image(&frontier);
            let fresh = img.diff(&reached);
            if fresh.is_false() {
                return None; // target unreachable
            }
            reached = reached.or(&fresh);
            rings.push(fresh.clone());
            if !fresh.and(target).is_false() {
                hit_ring = Some(rings.len() - 1);
            }
        }
        let k = hit_ring.expect("set above");

        // Pick the final state, then walk backwards through the rings,
        // at each step choosing a predecessor and an input justifying
        // the transition.
        let mgr = self.manager().clone();
        let cur_vars = self.current_vars();
        let in_vars = self.input_vars();
        let hit = rings[k].and(target);
        let mut state_cube = minterm_to_cube(&mgr, &hit, &cur_vars);
        let mut rev_states = vec![state_cube.clone()];
        let mut rev_inputs: Vec<Vec<(VarId, bool)>> = Vec::new();
        for ring in rings[..k].iter().rev() {
            // Predecessors of `state_cube` within `ring`, with the inputs
            // justifying the transition: ∃next. T ∧ next(state), computed
            // through the image engine so replay never forces the
            // monolithic T to exist, then restricted to the ring.
            let state_next = state_cube.rename_with(&self.to_next);
            let preds = self.engine.backward_with_inputs(&state_next);
            let step = preds.and(ring);
            // Choose one (state, input) pair.
            let mut pick_vars = cur_vars.clone();
            pick_vars.extend(in_vars.iter().copied());
            let choice = step
                .pick_minterm(&pick_vars)
                .expect("ring guarantees a predecessor");
            let (st, inp) = split_choice(&choice, &cur_vars, &in_vars);
            state_cube = cube_of(&mgr, &st);
            rev_states.push(state_cube.clone());
            rev_inputs.push(inp);
        }

        // Assemble forward.
        rev_states.reverse();
        rev_inputs.reverse();
        let mut steps = Vec::with_capacity(rev_states.len());
        for (i, scube) in rev_states.iter().enumerate() {
            let sm = scube.pick_minterm(&cur_vars).expect("state cube nonempty");
            let state = sm
                .iter()
                .map(|&(v, val)| (self.bit_name(v).to_owned(), val))
                .collect();
            let inputs = if i < rev_inputs.len() {
                rev_inputs[i]
                    .iter()
                    .map(|&(v, val)| (self.input_name(v).to_owned(), val))
                    .collect()
            } else {
                Vec::new()
            };
            steps.push(TraceStep { state, inputs });
        }
        Some(Trace { steps })
    }

    fn bit_name(&self, v: VarId) -> &str {
        self.state_bits
            .iter()
            .find(|b| b.current == v)
            .map(|b| b.name.as_str())
            .unwrap_or("?")
    }

    fn input_name(&self, v: VarId) -> &str {
        self.input_bits
            .iter()
            .find(|b| b.var == v)
            .map(|b| b.name.as_str())
            .unwrap_or("?")
    }
}

fn minterm_to_cube(mgr: &BddManager, set: &Func, vars: &[VarId]) -> Func {
    let m = set.pick_minterm(vars).expect("nonempty set");
    cube_of(mgr, &m)
}

fn cube_of(mgr: &BddManager, literals: &[(VarId, bool)]) -> Func {
    let mut cube = mgr.constant(true);
    for &(v, val) in literals {
        cube = cube.and(&mgr.literal(v, val));
    }
    cube
}

/// A partial assignment as `(variable, value)` pairs.
type Assignment = Vec<(VarId, bool)>;

fn split_choice(
    choice: &[(VarId, bool)],
    cur_vars: &[VarId],
    in_vars: &[VarId],
) -> (Assignment, Assignment) {
    let lookup: HashMap<VarId, bool> = choice.iter().copied().collect();
    let st = cur_vars
        .iter()
        .map(|&v| (v, lookup.get(&v).copied().unwrap_or(false)))
        .collect();
    let inp = in_vars
        .iter()
        .map(|&v| (v, lookup.get(&v).copied().unwrap_or(false)))
        .collect();
    (st, inp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::FsmBuilder;

    /// Counter with stall input (see fsm.rs tests).
    fn counter2(mgr: &BddManager) -> SymbolicFsm {
        let mut b = FsmBuilder::new(mgr, "counter2");
        let b0 = b.add_state_bit("b0");
        let b1 = b.add_state_bit("b1");
        let stall = b.add_input_bit("stall");
        let f0 = mgr.var(b0.current);
        let f1 = mgr.var(b1.current);
        let fs = mgr.var(stall.var);
        b.set_next("b0", fs.ite(&f0, &f0.not()));
        b.set_next("b1", fs.ite(&f1, &f1.xor(&f0)));
        b.set_init(mgr.nvar(b0.current).and(&mgr.nvar(b1.current)));
        b.build().expect("valid machine")
    }

    fn simulate(fsm: &SymbolicFsm, trace: &Trace) -> bool {
        // Check every consecutive pair is a real transition.
        for w in trace.steps.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let mut t = fsm.trans();
            for (name, val) in &a.state {
                let bit = fsm
                    .state_bits()
                    .iter()
                    .find(|s| &s.name == name)
                    .expect("bit");
                t = t.cofactor(bit.current, *val);
            }
            for (name, val) in &a.inputs {
                let bit = fsm
                    .input_bits()
                    .iter()
                    .find(|s| &s.name == name)
                    .expect("input");
                t = t.cofactor(bit.var, *val);
            }
            for (name, val) in &b.state {
                let bit = fsm
                    .state_bits()
                    .iter()
                    .find(|s| &s.name == name)
                    .expect("bit");
                t = t.cofactor(bit.next, *val);
            }
            if t.is_false() {
                return false;
            }
        }
        true
    }

    #[test]
    fn trace_reaches_target_via_valid_transitions() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        let target = fsm.state_cube(&[("b0", true), ("b1", true)]);
        let trace = fsm.trace_to(&target).expect("reachable");
        assert_eq!(trace.len(), 3); // shortest: 00 → 01 → 10 → 11
        assert!(simulate(&fsm, &trace));
        let last = trace.steps.last().expect("nonempty");
        assert_eq!(
            last.state,
            vec![("b0".to_owned(), true), ("b1".to_owned(), true)]
        );
    }

    #[test]
    fn trace_to_initial_state_is_trivial() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        let trace = fsm.trace_to(fsm.init()).expect("trivial");
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
    }

    #[test]
    fn unreachable_target_yields_none() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        assert!(fsm.trace_to(&mgr.constant(false)).is_none());
    }

    #[test]
    fn trace_display_mentions_inputs() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        let target = fsm.state_cube(&[("b0", true)]);
        let trace = fsm.trace_to(&target).expect("reachable");
        let s = trace.to_string();
        assert!(s.contains("step 0"));
        assert!(s.contains("stall"), "{s}");
    }
}
