//! Property tests pinned to the packed-arena core's table machinery:
//! unique-table rehash and GC rebuild must preserve hash-consing
//! canonicity (the *same* `Ref`, not just a logically equal function),
//! and the lossy direct-mapped compute caches must never change results
//! — checked against a `HashMap`-memoized truth-table oracle and via
//! cache-clear cross-runs, which also exercise the caches'
//! lazy-allocation and drop-on-clear paths. The quantification and
//! renaming memos keep their entries across calls (keyed on a
//! registered variable set or map), so the programs draw those from
//! small pools and run more than once, with collections and
//! reorderings in between; a fixed case checks that a collection drops
//! them before the freed slots are recycled.

use std::collections::HashMap;

use covest_bdd::{BddManager, Func, QuantSchedule, VarId, VarMap};
use proptest::prelude::*;

const NVARS: usize = 5;

/// The quantified variable sets programs draw from (indices into the
/// manager's variables); a small pool, so sets repeat across calls.
const SETS: [&[usize]; 4] = [&[0], &[1, 3], &[0, 2, 4], &[1, 2, 3, 4]];

/// The renamings programs draw from: simultaneous `from → to` maps.
const MAPS: [&[(usize, usize)]; 3] = [&[(0, 1), (1, 0)], &[(0, 1), (1, 2), (2, 0)], &[(3, 4)]];

/// A tiny expression language used to generate random Boolean programs.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `∃ SETS[k]. e`
    Exists(usize, Box<Expr>),
    /// `∀ SETS[k]. e`
    Forall(usize, Box<Expr>),
    /// `∃ SETS[k]. (a ∧ b)`
    AndExists(usize, Box<Expr>, Box<Expr>),
    /// `e` renamed through `MAPS[k]`
    Rename(usize, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..NVARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
            (0..SETS.len(), inner.clone()).prop_map(|(k, e)| Expr::Exists(k, Box::new(e))),
            (0..SETS.len(), inner.clone()).prop_map(|(k, e)| Expr::Forall(k, Box::new(e))),
            (0..SETS.len(), inner.clone(), inner.clone()).prop_map(|(k, a, b)| Expr::AndExists(
                k,
                Box::new(a),
                Box::new(b)
            )),
            (0..MAPS.len(), inner).prop_map(|(k, e)| Expr::Rename(k, Box::new(e))),
        ]
    })
}

/// A manager plus the registered sets and maps programs run against.
struct Engine {
    mgr: BddManager,
    vars: Vec<VarId>,
    /// Per pool set, a schedule over no operands: replaying it is
    /// `∃ set` through the set registered when the schedule was built.
    exists_in: Vec<QuantSchedule>,
    /// One-operand schedules, registered on first use of each
    /// `(operand, pool set)`.
    and_exists_in: HashMap<(Func, usize), QuantSchedule>,
    maps: Vec<VarMap>,
    /// Drop every cache after every operation.
    cold: bool,
}

impl Engine {
    fn new(cold: bool) -> Engine {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let exists_in = (0..SETS.len())
            .map(|k| mgr.quant_schedule(&[], &set_vars(&vars, k)))
            .collect();
        let maps = MAPS
            .iter()
            .map(|m| {
                let pairs: Vec<(VarId, VarId)> =
                    m.iter().map(|&(a, b)| (vars[a], vars[b])).collect();
                mgr.var_map(&pairs)
            })
            .collect();
        Engine {
            mgr,
            vars,
            exists_in,
            and_exists_in: HashMap::new(),
            maps,
            cold,
        }
    }

    /// Builds `e`. A registered quantification or renaming is run with
    /// every set or map of its pool on the same operands, each checked
    /// against the ad-hoc call on the same manager, which keys its memo
    /// entries on the call alone.
    fn build(&mut self, e: &Expr) -> Func {
        let r = match e {
            Expr::Const(c) => self.mgr.constant(*c),
            Expr::Var(i) => self.mgr.var(self.vars[*i]),
            Expr::Not(a) => self.build(a).not(),
            Expr::And(a, b) => self.build(a).and(&self.build(b)),
            Expr::Or(a, b) => self.build(a).or(&self.build(b)),
            Expr::Xor(a, b) => self.build(a).xor(&self.build(b)),
            Expr::Ite(a, b, c) => {
                let (a, b, c) = (self.build(a), self.build(b), self.build(c));
                a.ite(&b, &c)
            }
            Expr::Exists(k, a) => {
                let f = self.build(a);
                self.each_in_pool(*k, SETS.len(), |eng, j| {
                    let r = eng.mgr.and_exists_schedule(&f, &[], &eng.exists_in[j]);
                    assert_eq!(r, f.exists(&set_vars(&eng.vars, j)), "∃ set {j}");
                    r
                })
            }
            Expr::Forall(k, a) => self.build(a).forall(&set_vars(&self.vars, *k)),
            Expr::AndExists(k, a, b) => {
                let (f, g) = (self.build(a), self.build(b));
                self.each_in_pool(*k, SETS.len(), |eng, j| {
                    let vars = set_vars(&eng.vars, j);
                    let mgr = &eng.mgr;
                    let schedule = eng
                        .and_exists_in
                        .entry((g.clone(), j))
                        .or_insert_with(|| mgr.quant_schedule(std::slice::from_ref(&g), &vars));
                    let r = mgr.and_exists_schedule(&f, std::slice::from_ref(&g), schedule);
                    assert_eq!(r, f.and_exists(&g, &vars), "∃ set {j}. (f ∧ g)");
                    r
                })
            }
            Expr::Rename(k, a) => {
                let f = self.build(a);
                self.each_in_pool(*k, MAPS.len(), |eng, j| {
                    let r = f.rename_with(&eng.maps[j]);
                    let pairs: Vec<(VarId, VarId)> = MAPS[j]
                        .iter()
                        .map(|&(a, b)| (eng.vars[a], eng.vars[b]))
                        .collect();
                    assert_eq!(r, f.rename(&pairs), "rename by map {j}");
                    r
                })
            }
        };
        if self.cold {
            self.mgr.clear_caches();
        }
        r
    }
}

impl Engine {
    /// Runs `op` on every member of a pool of `n`, ending with `k`, and
    /// returns the result for `k`: the same operands then meet every
    /// set or map in turn, each checked by `op` against the ad-hoc call.
    fn each_in_pool(
        &mut self,
        k: usize,
        n: usize,
        mut op: impl FnMut(&mut Engine, usize) -> Func,
    ) -> Func {
        let mut r = None;
        for d in 1..=n {
            r = Some(op(self, (k + d) % n));
        }
        r.expect("pools are nonempty")
    }
}

fn set_vars(vars: &[VarId], k: usize) -> Vec<VarId> {
    SETS[k].iter().map(|&i| vars[i]).collect()
}

/// The function's full truth table: bit `i` is its value under the
/// assignment whose variable `v` reads bit `v` of `i`.
fn truth_table(f: &Func, vars: &[VarId]) -> u32 {
    let mut tt = 0u32;
    for bits in 0..(1u32 << NVARS) {
        let lookup = |v: VarId| {
            let pos = vars.iter().position(|&w| w == v).expect("known var");
            bits >> pos & 1 == 1
        };
        if f.eval(&lookup) {
            tt |= 1 << bits;
        }
    }
    tt
}

/// `HashMap`-memoized reference semantics: the truth table of every
/// distinct subexpression is computed exactly once and never evicted —
/// the behaviour the lossy direct-mapped caches must be indistinguishable
/// from.
fn oracle_tt(e: &Expr, memo: &mut HashMap<*const Expr, u32>) -> u32 {
    let key = e as *const Expr;
    if let Some(&tt) = memo.get(&key) {
        return tt;
    }
    let tt = match e {
        Expr::Const(c) => {
            if *c {
                u32::MAX
            } else {
                0
            }
        }
        Expr::Var(i) => {
            let mut tt = 0u32;
            for bits in 0..(1u32 << NVARS) {
                if bits >> *i & 1 == 1 {
                    tt |= 1 << bits;
                }
            }
            tt
        }
        Expr::Not(a) => !oracle_tt(a, memo),
        Expr::And(a, b) => oracle_tt(a, memo) & oracle_tt(b, memo),
        Expr::Or(a, b) => oracle_tt(a, memo) | oracle_tt(b, memo),
        Expr::Xor(a, b) => oracle_tt(a, memo) ^ oracle_tt(b, memo),
        Expr::Ite(a, b, c) => {
            let s = oracle_tt(a, memo);
            s & oracle_tt(b, memo) | !s & oracle_tt(c, memo)
        }
        Expr::Exists(k, a) => quantified_tt(oracle_tt(a, memo), SETS[*k], true),
        Expr::Forall(k, a) => quantified_tt(oracle_tt(a, memo), SETS[*k], false),
        Expr::AndExists(k, a, b) => {
            let conj = oracle_tt(a, memo) & oracle_tt(b, memo);
            quantified_tt(conj, SETS[*k], true)
        }
        Expr::Rename(k, a) => renamed_tt(oracle_tt(a, memo), MAPS[*k]),
    };
    memo.insert(key, tt);
    tt
}

/// Truth table of `f` renamed through `map` from `f`'s: a simultaneous
/// substitution, so variable `from` reads `to`.
fn renamed_tt(t: u32, map: &[(usize, usize)]) -> u32 {
    let mut tt = 0u32;
    for bits in 0..(1u32 << NVARS) {
        let mut src = bits;
        for &(from, to) in map {
            src = src & !(1 << from) | (bits >> to & 1) << from;
        }
        tt |= (t >> src & 1) << bits;
    }
    tt
}

/// The function whose truth table (as [`truth_table`] reads it) is `tt`.
fn from_truth_table(mgr: &BddManager, vars: &[VarId], tt: u32) -> Func {
    let mut f = mgr.constant(false);
    for bits in (0..(1u32 << NVARS)).filter(|bits| tt >> bits & 1 == 1) {
        let mut cube = mgr.constant(true);
        for (i, &v) in vars.iter().enumerate() {
            cube = cube.and(&mgr.literal(v, bits >> i & 1 == 1));
        }
        f = f.or(&cube);
    }
    f
}

/// Truth table of `∃ set. f` (`exists`) or `∀ set. f` from `f`'s.
fn quantified_tt(t: u32, set: &[usize], exists: bool) -> u32 {
    let mask: u32 = set.iter().map(|&i| 1 << i).sum();
    let mut tt = 0u32;
    for bits in 0..(1u32 << NVARS) {
        // Every assignment to the set's variables, by subset walk.
        let (mut any, mut all) = (false, true);
        let mut sub = mask;
        loop {
            let value = t >> (bits & !mask | sub) & 1 == 1;
            any |= value;
            all &= value;
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & mask;
        }
        if if exists { any } else { all } {
            tt |= 1 << bits;
        }
    }
    tt
}

/// Grows the manager's per-level unique tables well past their initial
/// capacity by hash-consing many distinct functions over the same
/// variables, forcing at least one rehash at every level `junk` minterms
/// touch. Returns the junk so callers control when it is dropped.
fn force_rehash(mgr: &BddManager, vars: &[VarId], salt: u32) -> Vec<Func> {
    let mut junk = Vec::new();
    for bits in 0..(1u32 << NVARS) {
        let mut cube = mgr.constant(true);
        for (i, &v) in vars.iter().enumerate() {
            let phase = (bits ^ salt) >> i & 1 == 1;
            cube = cube.and(&mgr.literal(v, phase));
        }
        // Accumulated disjunction prefixes create interior nodes at
        // every level, not just cube chains.
        let prev = junk.last().cloned().unwrap_or_else(|| mgr.constant(false));
        junk.push(prev.or(&cube));
    }
    junk
}

proptest! {
    /// Rebuilding an expression after the unique tables have been grown
    /// (rehashed) yields the *identical* node — hash-consing survives
    /// slot migration — and its semantics still match the memo oracle.
    #[test]
    fn rehash_preserves_canonicity(e in arb_expr()) {
        let mut eng = Engine::new(false);
        let before = eng.build(&e);
        let junk = force_rehash(&eng.mgr, &eng.vars, 0b10110);
        let after = eng.build(&e);
        prop_assert!(before == after, "rehash broke hash-consing");
        drop(junk);
        let mut memo = HashMap::new();
        prop_assert_eq!(truth_table(&after, &eng.vars), oracle_tt(&e, &mut memo));
    }

    /// A garbage collection (which rebuilds every unique table from the
    /// mark bits and clears all caches) preserves canonicity for
    /// surviving functions: the rebuilt expression is pointer-identical
    /// and semantically unchanged.
    #[test]
    fn gc_rebuild_preserves_canonicity(e in arb_expr()) {
        let mut eng = Engine::new(false);
        let f = eng.build(&e);
        let tt_before = truth_table(&f, &eng.vars);
        drop(force_rehash(&eng.mgr, &eng.vars, 0b01101));
        eng.mgr.gc();
        let rebuilt = eng.build(&e);
        prop_assert!(f == rebuilt, "GC rebuild broke hash-consing");
        prop_assert_eq!(truth_table(&f, &eng.vars), tt_before);
    }

    /// The direct-mapped caches are lossy (an insert may evict an
    /// unrelated live entry), so two managers running the same program —
    /// one clearing every cache every `k` operations, one never — must
    /// still agree with each other and with the never-evicting
    /// `HashMap`-memo oracle on every subexpression.
    #[test]
    fn cache_eviction_never_changes_results(
        exprs in proptest::collection::vec(arb_expr(), 1..6),
        k in 1usize..5,
    ) {
        let mut plain = Engine::new(false);
        let mut churned = Engine::new(false);
        let mut memo = HashMap::new();
        for (i, e) in exprs.iter().enumerate() {
            let expect = oracle_tt(e, &mut memo);
            let p = plain.build(e);
            if i % k == k - 1 {
                churned.mgr.clear_caches();
            }
            let c = churned.build(e);
            prop_assert_eq!(truth_table(&p, &plain.vars), expect);
            prop_assert_eq!(truth_table(&c, &churned.vars), expect);
        }
    }

    /// Memo entries that outlive their call (registered quantification
    /// sets, renaming maps) must answer only for the same operands and
    /// set or map, and must not survive a collection or reordering. A
    /// program over pooled sets and maps runs three times on one warm
    /// manager — as drawn, with every set and map swapped for the next
    /// in its pool (same operands, other set), and as drawn again — with
    /// `gc` and `reduce_heap` between operations, and on one that clears
    /// every cache after every operation; both must match the oracle on
    /// every expression.
    #[test]
    fn cross_call_memos_match_oracle_and_cold_caches(
        exprs in proptest::collection::vec(arb_expr(), 1..6),
        upkeep in proptest::collection::vec(0u8..3, 6..7),
    ) {
        let mut warm = Engine::new(false);
        let mut cold = Engine::new(true);
        for by in [0, 1, 0] {
            let program: Vec<Expr> = exprs.iter().map(|e| rotate_pools(e, by)).collect();
            let mut memo = HashMap::new();
            for (e, step) in program.iter().zip(&upkeep) {
                let expect = oracle_tt(e, &mut memo);
                let w = warm.build(e);
                let c = cold.build(e);
                prop_assert_eq!(truth_table(&w, &warm.vars), expect);
                prop_assert_eq!(truth_table(&c, &cold.vars), expect);
                match step {
                    1 => {
                        warm.mgr.gc();
                    }
                    2 => {
                        warm.mgr.reduce_heap();
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Memo entries keyed on a registered set or map outlive their call, so
/// a collection must drop them: the next functions built recycle the
/// freed slots, and a surviving entry would answer for the dead operands
/// that held them. Each round builds fresh pseudo-random functions, runs
/// them through registered schedules and a map (checked against the
/// oracle), drops every operand and result, and collects.
#[test]
fn collection_drops_memo_entries_of_recycled_slots() {
    const SET: usize = 2;
    const MAP: usize = 1;
    let mgr = BddManager::new();
    let vars = mgr.new_vars(NVARS);
    let set = set_vars(&vars, SET);
    let exists = mgr.quant_schedule(&[], &set);
    // An operand over every variable takes the whole set at its step, so
    // the schedule is sound for any operand replayed through it.
    let every_var = mgr.and_many(&vars.iter().map(|&v| mgr.var(v)).collect::<Vec<_>>());
    let and_exists = mgr.quant_schedule(std::slice::from_ref(&every_var), &set);
    drop(every_var);
    let pairs: Vec<(VarId, VarId)> = MAPS[MAP].iter().map(|&(a, b)| (vars[a], vars[b])).collect();
    let map = mgr.var_map(&pairs);
    let mut state = 0x2545_f491u32;
    for round in 0..8 {
        let tts: Vec<u32> = (0..24)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                state
            })
            .collect();
        let funcs: Vec<Func> = tts
            .iter()
            .map(|&t| from_truth_table(&mgr, &vars, t))
            .collect();
        for i in 0..funcs.len() {
            let j = (i + 1) % funcs.len();
            let (f, g, tf, tg) = (&funcs[i], &funcs[j], tts[i], tts[j]);
            let e = mgr.and_exists_schedule(f, &[], &exists);
            let expect = quantified_tt(tf, SETS[SET], true);
            assert_eq!(truth_table(&e, &vars), expect, "round {round}: ∃ set. f");
            let ae = mgr.and_exists_schedule(f, std::slice::from_ref(g), &and_exists);
            let expect = quantified_tt(tf & tg, SETS[SET], true);
            assert_eq!(
                truth_table(&ae, &vars),
                expect,
                "round {round}: ∃ set. (f ∧ g)"
            );
            let r = f.rename_with(&map);
            let expect = renamed_tt(tf, MAPS[MAP]);
            assert_eq!(truth_table(&r, &vars), expect, "round {round}: f renamed");
        }
        drop(funcs);
        assert!(mgr.gc() > 0, "the round's functions must be collected");
    }
}

/// `e` with every pooled set and map index advanced by `by` (cyclically).
fn rotate_pools(e: &Expr, by: usize) -> Expr {
    let r = |a: &Expr| Box::new(rotate_pools(a, by));
    match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Not(a) => Expr::Not(r(a)),
        Expr::And(a, b) => Expr::And(r(a), r(b)),
        Expr::Or(a, b) => Expr::Or(r(a), r(b)),
        Expr::Xor(a, b) => Expr::Xor(r(a), r(b)),
        Expr::Ite(a, b, c) => Expr::Ite(r(a), r(b), r(c)),
        Expr::Exists(k, a) => Expr::Exists((k + by) % SETS.len(), r(a)),
        Expr::Forall(k, a) => Expr::Forall((k + by) % SETS.len(), r(a)),
        Expr::AndExists(k, a, b) => Expr::AndExists((k + by) % SETS.len(), r(a), r(b)),
        Expr::Rename(k, a) => Expr::Rename((k + by) % MAPS.len(), r(a)),
    }
}
