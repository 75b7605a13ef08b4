//! Substitution: functional composition and variable renaming.
//!
//! The substitution map is a manager-owned scratch vector indexed by
//! variable (`NIL_REF` = identity), and the memo is the shared unary
//! cache — no allocation, no hashing of boxed keys, one array read per
//! node visit. Memo entries are scoped to the call by a generation,
//! except a renaming through a [`crate::VarMap`]: keyed on the map's id,
//! its entries serve every later call with the same map.

use crate::manager::Inner;
use crate::node::{Ref, VarId};
use crate::quant::OP_SUBST;

/// Identity marker in the substitution scratch vector. Never a valid
/// node: the arena allocator keeps slots below `FREE_VAR < u32::MAX`.
const NIL_REF: Ref = Ref(u32::MAX);

impl Inner {
    /// Functional composition: `f` with `var` replaced by the function `g`.
    ///
    /// # Examples
    ///
    /// ```
    /// use covest_bdd::BddManager;
    /// let mgr = BddManager::new();
    /// let x = mgr.new_var();
    /// let y = mgr.new_var();
    /// let ny = mgr.var(y).not();
    /// // x composed with ¬y is ¬y
    /// assert_eq!(mgr.var(x).compose(x, &ny), ny);
    /// ```
    pub fn compose(&mut self, f: Ref, var: VarId, g: Ref) -> Ref {
        self.vector_compose(f, &[(var, g)])
    }

    /// Simultaneous functional composition: every variable in `map` is
    /// replaced by the associated function, all at once.
    ///
    /// Simultaneity matters: `vector_compose(f, {x ↦ y, y ↦ x})` swaps the
    /// two variables, whereas two sequential [`Inner::compose`] calls would
    /// collapse them.
    pub fn vector_compose(&mut self, f: Ref, map: &[(VarId, Ref)]) -> Ref {
        let generation = self.quant_cache.begin();
        self.vector_compose_keyed(f, map, generation)
    }

    /// [`Inner::vector_compose`] memoized under `key`: a
    /// [`crate::VarMap`]'s id, or a call's generation.
    fn vector_compose_keyed(&mut self, f: Ref, map: &[(VarId, Ref)], key: u32) -> Ref {
        // Move the scratch vector out so the recursion can borrow `self`
        // mutably; hand it back afterwards to keep its capacity.
        let mut subst = std::mem::take(&mut self.subst_scratch);
        subst.clear();
        subst.resize(self.num_vars(), NIL_REF);
        for &(v, g) in map {
            subst[v.index()] = g;
        }
        let r = self.compose_rec(f, &subst, key);
        self.subst_scratch = subst;
        r
    }

    fn compose_rec(&mut self, f: Ref, subst: &[Ref], key: u32) -> Ref {
        if f.is_const() {
            return f;
        }
        if let Some(r) = self.quant_cache.lookup(f.0, key, OP_SUBST) {
            return r;
        }
        let n = self.node(f);
        let lo = self.compose_rec(n.lo, subst, key);
        let hi = self.compose_rec(n.hi, subst, key);
        let selector = match subst[n.var as usize] {
            NIL_REF => self.var(VarId(n.var)),
            g => g,
        };
        // ITE keeps the result canonical even when the substituted
        // function's support lies above the current level.
        let r = self.ite(selector, hi, lo);
        self.quant_cache.insert(f.0, key, OP_SUBST, r);
        r
    }

    /// Renames variables according to `pairs`, interpreted as a
    /// simultaneous swap-free mapping `from → to`.
    ///
    /// Used to move a function between the current-state and next-state
    /// variable ranks of a transition system.
    pub fn rename(&mut self, f: Ref, pairs: &[(VarId, VarId)]) -> Ref {
        let generation = self.quant_cache.begin();
        self.rename_with(f, pairs, generation)
    }

    /// [`Inner::rename`] memoized under `key`: a [`crate::VarMap`]'s id,
    /// or a call's generation.
    pub(crate) fn rename_with(&mut self, f: Ref, pairs: &[(VarId, VarId)], key: u32) -> Ref {
        let map: Vec<(VarId, Ref)> = pairs
            .iter()
            .map(|&(from, to)| {
                let tref = self.var(to);
                (from, tref)
            })
            .collect();
        self.vector_compose_keyed(f, &map, key)
    }

    /// Swaps each pair of variables in both directions simultaneously
    /// (`a ↔ b` for every `(a, b)` in `pairs`).
    pub fn swap(&mut self, f: Ref, pairs: &[(VarId, VarId)]) -> Ref {
        let mut map: Vec<(VarId, Ref)> = Vec::with_capacity(pairs.len() * 2);
        for &(a, bv) in pairs {
            let fa = self.var(a);
            let fb = self.var(bv);
            map.push((a, fb));
            map.push((bv, fa));
        }
        self.vector_compose(f, &map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_with_constant_is_cofactor() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.and(fx, fy);
        let via_compose = b.compose(f, x, Ref::TRUE);
        let via_cofactor = b.cofactor(f, x, true);
        assert_eq!(via_compose, via_cofactor);
        assert_eq!(via_compose, fy);
    }

    #[test]
    fn vector_compose_is_simultaneous() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let nx = b.not(fx);
        let f = b.and(fx, fy); // x ∧ y
        let g = b.vector_compose(f, &[(x, fy), (y, nx)]);
        // Simultaneous: y ∧ ¬x.
        let expect = {
            let t = b.not(fx);
            b.and(fy, t)
        };
        assert_eq!(g, expect);
    }

    #[test]
    fn rename_moves_support() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let z = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.and(fx, fy);
        let g = b.rename(f, &[(x, z)]);
        let support = b.support(g);
        assert_eq!(support, vec![y, z]);
    }

    #[test]
    fn swap_is_involution() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let z = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let fz = b.var(z);
        let fxy = b.xor(fx, fy);
        let f = b.or(fxy, fz);
        let g = b.swap(f, &[(x, y)]);
        let h = b.swap(g, &[(x, y)]);
        assert_eq!(f, h);
    }

    #[test]
    fn rename_against_reversed_order() {
        // Renaming to a variable *above* the source in the order must
        // still produce a canonical result.
        let mut b = Inner::new();
        let a = b.new_var(); // level 0
        let c = b.new_var(); // level 1
        let fc = b.var(c);
        let fa = b.var(a);
        let renamed = b.rename(fc, &[(c, a)]);
        assert_eq!(renamed, fa);
    }
}
