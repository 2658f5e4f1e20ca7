//! The BDD manager: hash-consed node storage and logical operations.

use std::collections::HashMap;

/// Index of a boolean variable in the manager's ordering.
///
/// For provenance use, each variable corresponds to a base tuple (or the
/// principal that asserted it); the engine assigns variable ids in the order
/// base tuples are first encountered.
pub type VarId = u32;

/// A reference to a BDD node owned by a [`BddManager`].
///
/// `BddRef`s are only meaningful with respect to the manager that produced
/// them.  Because the manager hash-conses nodes, two references are equal if
/// and only if they denote the same boolean function — this is what makes
/// condensation (`a + a*b == a`) a simple equality check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant FALSE function.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant TRUE function.
    pub const TRUE: BddRef = BddRef(1);

    /// Raw index (stable within one manager); used for serialisation.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// An internal decision node: `if var then high else low`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Node {
    var: VarId,
    low: BddRef,
    high: BddRef,
}

/// Binary operations supported by [`BddManager::apply`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum BinOp {
    And,
    Or,
    Xor,
}

/// A manager owning a forest of reduced, ordered BDDs.
///
/// Variable ordering is the natural order of [`VarId`]s.  All operations are
/// memoised; the caches can be cleared with [`BddManager::clear_caches`] if
/// memory is a concern (provenance expressions in the simulator never need
/// it).
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, BddRef>,
    apply_cache: HashMap<(BinOp, BddRef, BddRef), BddRef>,
    not_cache: HashMap<BddRef, BddRef>,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the terminal nodes.
    pub fn new() -> Self {
        // Index 0 = FALSE terminal, index 1 = TRUE terminal.  Terminals are
        // encoded as pseudo-nodes with `var = VarId::MAX` so that every real
        // variable orders before them.
        let terminal = |_which: bool| Node {
            var: VarId::MAX,
            low: BddRef(0),
            high: BddRef(1),
        };
        BddManager {
            nodes: vec![terminal(false), terminal(true)],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            not_cache: HashMap::new(),
        }
    }

    /// Total number of nodes allocated (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The constant FALSE.
    pub fn false_ref(&self) -> BddRef {
        BddRef::FALSE
    }

    /// The constant TRUE.
    pub fn true_ref(&self) -> BddRef {
        BddRef::TRUE
    }

    /// Returns the BDD for a single variable.
    pub fn var(&mut self, var: VarId) -> BddRef {
        self.mk_node(var, BddRef::FALSE, BddRef::TRUE)
    }

    fn is_terminal(r: BddRef) -> bool {
        r == BddRef::FALSE || r == BddRef::TRUE
    }

    fn node(&self, r: BddRef) -> Node {
        self.nodes[r.0 as usize]
    }

    fn var_of(&self, r: BddRef) -> VarId {
        self.node(r).var
    }

    /// Creates (or finds) the reduced node `(var, low, high)`.
    fn mk_node(&mut self, var: VarId, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        if let Some(&existing) = self.unique.get(&node) {
            return existing;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        let r = BddRef(idx);
        self.unique.insert(node, r);
        r
    }

    /// Logical AND (the provenance `*` / join operation).
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.apply(BinOp::And, a, b)
    }

    /// Logical OR (the provenance `+` / union operation).
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.apply(BinOp::Or, a, b)
    }

    /// Logical XOR.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.apply(BinOp::Xor, a, b)
    }

    /// Logical NOT.
    pub fn not(&mut self, a: BddRef) -> BddRef {
        if let Some(&cached) = self.not_cache.get(&a) {
            return cached;
        }
        let result = match a {
            BddRef::FALSE => BddRef::TRUE,
            BddRef::TRUE => BddRef::FALSE,
            _ => {
                let n = self.node(a);
                let low = self.not(n.low);
                let high = self.not(n.high);
                self.mk_node(n.var, low, high)
            }
        };
        self.not_cache.insert(a, result);
        result
    }

    /// If-then-else: `cond ? then_b : else_b`.
    pub fn ite(&mut self, cond: BddRef, then_b: BddRef, else_b: BddRef) -> BddRef {
        // ite(c, t, e) = (c AND t) OR (NOT c AND e)
        let ct = self.and(cond, then_b);
        let nc = self.not(cond);
        let nce = self.and(nc, else_b);
        self.or(ct, nce)
    }

    fn apply(&mut self, op: BinOp, a: BddRef, b: BddRef) -> BddRef {
        // Terminal short-cuts.
        match op {
            BinOp::And => {
                if a == BddRef::FALSE || b == BddRef::FALSE {
                    return BddRef::FALSE;
                }
                if a == BddRef::TRUE {
                    return b;
                }
                if b == BddRef::TRUE {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            BinOp::Or => {
                if a == BddRef::TRUE || b == BddRef::TRUE {
                    return BddRef::TRUE;
                }
                if a == BddRef::FALSE {
                    return b;
                }
                if b == BddRef::FALSE {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            BinOp::Xor => {
                if a == b {
                    return BddRef::FALSE;
                }
                if a == BddRef::FALSE {
                    return b;
                }
                if b == BddRef::FALSE {
                    return a;
                }
            }
        }
        // Canonicalise the commutative key so (a,b) and (b,a) share a slot.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&cached) = self.apply_cache.get(&key) {
            return cached;
        }

        let va = self.var_of(a);
        let vb = self.var_of(b);
        let top = va.min(vb);
        let (a_low, a_high) = if va == top {
            let n = self.node(a);
            (n.low, n.high)
        } else {
            (a, a)
        };
        let (b_low, b_high) = if vb == top {
            let n = self.node(b);
            (n.low, n.high)
        } else {
            (b, b)
        };
        let low = self.apply(op, a_low, b_low);
        let high = self.apply(op, a_high, b_high);
        let result = self.mk_node(top, low, high);
        self.apply_cache.insert(key, result);
        result
    }

    /// Restricts variable `var` to `value` (cofactor).
    pub fn restrict(&mut self, f: BddRef, var: VarId, value: bool) -> BddRef {
        if Self::is_terminal(f) {
            return f;
        }
        let n = self.node(f);
        if n.var > var {
            return f;
        }
        if n.var == var {
            return if value { n.high } else { n.low };
        }
        let low = self.restrict(n.low, var, value);
        let high = self.restrict(n.high, var, value);
        self.mk_node(n.var, low, high)
    }

    /// Existential quantification over `var`: `f[var:=0] OR f[var:=1]`.
    pub fn exists(&mut self, f: BddRef, var: VarId) -> BddRef {
        let lo = self.restrict(f, var, false);
        let hi = self.restrict(f, var, true);
        self.or(lo, hi)
    }

    /// Universal quantification over `var`: `f[var:=0] AND f[var:=1]`.
    pub fn forall(&mut self, f: BddRef, var: VarId) -> BddRef {
        let lo = self.restrict(f, var, false);
        let hi = self.restrict(f, var, true);
        self.and(lo, hi)
    }

    /// Evaluates `f` under a (total) assignment: `assignment(v)` gives the
    /// value of variable `v`.
    pub fn evaluate<F: Fn(VarId) -> bool>(&self, f: BddRef, assignment: F) -> bool {
        let mut cur = f;
        loop {
            match cur {
                BddRef::FALSE => return false,
                BddRef::TRUE => return true,
                _ => {
                    let n = self.node(cur);
                    cur = if assignment(n.var) { n.high } else { n.low };
                }
            }
        }
    }

    /// Set of variables the function actually depends on (its *support*).
    ///
    /// For condensed provenance this is the set of base tuples / principals
    /// that matter for trust decisions — `a + a*b` has support `{a}`.
    pub fn support(&self, f: BddRef) -> Vec<VarId> {
        let mut vars = Vec::new();
        let mut stack = vec![f];
        let mut seen = std::collections::HashSet::new();
        while let Some(r) = stack.pop() {
            if Self::is_terminal(r) || !seen.insert(r) {
                continue;
            }
            let n = self.node(r);
            if !vars.contains(&n.var) {
                vars.push(n.var);
            }
            stack.push(n.low);
            stack.push(n.high);
        }
        vars.sort_unstable();
        vars
    }

    /// Number of distinct decision nodes reachable from `f` (a size measure
    /// for storage-overhead experiments).
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0usize;
        while let Some(r) = stack.pop() {
            if Self::is_terminal(r) || !seen.insert(r) {
                continue;
            }
            count += 1;
            let n = self.node(r);
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }

    /// Number of satisfying assignments over the given variable universe
    /// (`num_vars` must be at least the largest variable in `f`'s support
    /// plus one).  Returns `None` on overflow.
    pub fn sat_count(&self, f: BddRef, num_vars: u32) -> Option<u128> {
        fn rec(
            mgr: &BddManager,
            f: BddRef,
            num_vars: u32,
            memo: &mut HashMap<BddRef, u128>,
        ) -> Option<u128> {
            match f {
                BddRef::FALSE => Some(0),
                BddRef::TRUE => 1u128.checked_shl(num_vars),
                _ => {
                    if let Some(&v) = memo.get(&f) {
                        return Some(v);
                    }
                    let n = mgr.node(f);
                    // Count over the remaining variables below this node's level,
                    // then scale by the variables skipped above it.  We compute
                    // counts as if the node were at level 0 of the remaining
                    // space and divide evenly: simpler is to count satisfying
                    // assignments over all `num_vars` variables directly by
                    // treating skipped levels as free.
                    let low = rec(mgr, n.low, num_vars, memo)?;
                    let high = rec(mgr, n.high, num_vars, memo)?;
                    // Each branch fixes one variable, halving the free space.
                    let v = low.checked_add(high)?.checked_div(2)?;
                    memo.insert(f, v);
                    Some(v)
                }
            }
        }
        if num_vars >= 128 {
            return None;
        }
        let support = self.support(f);
        if let Some(&max_var) = support.iter().max() {
            assert!(
                max_var < num_vars,
                "num_vars={num_vars} does not cover variable {max_var}"
            );
        }
        rec(self, f, num_vars, &mut HashMap::new())
    }

    /// Returns one satisfying assignment as `(var, value)` pairs for the
    /// variables on the chosen path (other variables are "don't care"), or
    /// `None` if `f` is unsatisfiable.
    pub fn any_sat(&self, f: BddRef) -> Option<Vec<(VarId, bool)>> {
        if f == BddRef::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !Self::is_terminal(cur) {
            let n = self.node(cur);
            if n.high != BddRef::FALSE {
                path.push((n.var, true));
                cur = n.high;
            } else {
                path.push((n.var, false));
                cur = n.low;
            }
        }
        debug_assert_eq!(cur, BddRef::TRUE);
        Some(path)
    }

    /// Enumerates all prime-implicant-style cubes of `f` as sorted variable
    /// lists (positive literals only appear on `true` branches, negative on
    /// `false`).  Used to render condensed provenance back into a `+`/`*`
    /// expression for display; bounded by `limit` cubes.
    pub fn cubes(&self, f: BddRef, limit: usize) -> Vec<Vec<(VarId, bool)>> {
        let mut out = Vec::new();
        let mut stack: Vec<(BddRef, Vec<(VarId, bool)>)> = vec![(f, Vec::new())];
        while let Some((r, prefix)) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            match r {
                BddRef::FALSE => {}
                BddRef::TRUE => out.push(prefix),
                _ => {
                    let n = self.node(r);
                    let mut low_prefix = prefix.clone();
                    low_prefix.push((n.var, false));
                    let mut high_prefix = prefix;
                    high_prefix.push((n.var, true));
                    stack.push((n.low, low_prefix));
                    stack.push((n.high, high_prefix));
                }
            }
        }
        out
    }

    /// Folds `f` bottom-up: the constants map to `on_false` / `on_true`, a
    /// decision node to `node(var, low, high)` of its children's values.
    /// Each node is evaluated once, so the walk is linear in `f`'s size
    /// where enumerating its paths ([`BddManager::cubes`]) is exponential.
    pub fn fold<T>(
        &self,
        f: BddRef,
        on_false: T,
        on_true: T,
        mut node: impl FnMut(VarId, &T, &T) -> T,
    ) -> T {
        let mut done = HashMap::from([(BddRef::FALSE, on_false), (BddRef::TRUE, on_true)]);
        let mut stack = vec![f];
        while let Some(&r) = stack.last() {
            let n = self.node(r);
            match (done.get(&n.low), done.get(&n.high)) {
                // Only a constant root is folded before it is visited.
                _ if done.contains_key(&r) => drop(stack.pop()),
                (Some(low), Some(high)) => {
                    let value = node(n.var, low, high);
                    done.insert(r, value);
                    stack.pop();
                }
                (low, _) => stack.push(if low.is_none() { n.low } else { n.high }),
            }
        }
        done.remove(&f).expect("the root is folded last")
    }

    /// Drops the operation caches (node storage is retained so existing
    /// references stay valid).
    pub fn clear_caches(&mut self) {
        self.apply_cache.clear();
        self.not_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut m = BddManager::new();
        assert_eq!(m.node_count(), 2);
        let a = m.var(0);
        assert_ne!(a, BddRef::FALSE);
        assert_ne!(a, BddRef::TRUE);
        // Hash-consing: asking again returns the same node.
        assert_eq!(m.var(0), a);
        assert_eq!(m.node_count(), 3);
    }

    #[test]
    fn basic_identities() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let t = m.true_ref();
        let f = m.false_ref();

        assert_eq!(m.and(a, t), a);
        assert_eq!(m.and(a, f), f);
        assert_eq!(m.or(a, f), a);
        assert_eq!(m.or(a, t), t);
        assert_eq!(m.and(a, a), a);
        assert_eq!(m.or(a, a), a);
        assert_eq!(m.xor(a, a), f);
        assert_eq!(m.xor(a, f), a);

        let not_a = m.not(a);
        assert_eq!(m.and(a, not_a), f);
        assert_eq!(m.or(a, not_a), t);
        assert_eq!(m.not(not_a), a);

        // Commutativity through hash-consing.
        assert_eq!(m.and(a, b), m.and(b, a));
        assert_eq!(m.or(a, b), m.or(b, a));
    }

    #[test]
    fn absorption_condenses_provenance_expression() {
        // The paper's Figure 2 example: <a + a*b> condenses to <a>.
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let expr = m.or(a, ab);
        assert_eq!(expr, a);
        assert_eq!(m.support(expr), vec![0]);
    }

    #[test]
    fn distributivity_and_de_morgan() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);

        let bc = m.or(b, c);
        let lhs = m.and(a, bc);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let rhs = m.or(ab, ac);
        assert_eq!(lhs, rhs);

        let ab_or = m.or(a, b);
        let lhs = m.not(ab_or);
        let na = m.not(a);
        let nb = m.not(b);
        let rhs = m.and(na, nb);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_matches_definition() {
        let mut m = BddManager::new();
        let c = m.var(0);
        let t = m.var(1);
        let e = m.var(2);
        let ite = m.ite(c, t, e);
        for mask in 0..8u32 {
            let assignment = |v: VarId| (mask >> v) & 1 == 1;
            let expected = if assignment(0) {
                assignment(1)
            } else {
                assignment(2)
            };
            assert_eq!(m.evaluate(ite, assignment), expected, "mask {mask}");
        }
    }

    #[test]
    fn restrict_and_quantification() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);

        assert_eq!(m.restrict(f, 0, true), b);
        assert_eq!(m.restrict(f, 0, false), BddRef::FALSE);
        assert_eq!(
            m.restrict(f, 5, true),
            f,
            "restricting an absent variable is a no-op"
        );

        // exists a. (a AND b) == b ; forall a. (a AND b) == false
        assert_eq!(m.exists(f, 0), b);
        assert_eq!(m.forall(f, 0), BddRef::FALSE);

        let g = m.or(a, b);
        assert_eq!(m.forall(g, 0), b);
        assert_eq!(m.exists(g, 0), BddRef::TRUE);
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.sat_count(f, 2), Some(1));
        let g = m.or(a, b);
        assert_eq!(m.sat_count(g, 2), Some(3));
        assert_eq!(m.sat_count(BddRef::TRUE, 3), Some(8));
        assert_eq!(m.sat_count(BddRef::FALSE, 3), Some(0));
        // Extra don't-care variables double the count.
        assert_eq!(m.sat_count(f, 3), Some(2));
    }

    #[test]
    fn any_sat_returns_a_model() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let nb = m.not(b);
        let f = m.and(a, nb);
        let model = m.any_sat(f).unwrap();
        let assignment = |v: VarId| {
            model
                .iter()
                .find(|(mv, _)| *mv == v)
                .map(|(_, val)| *val)
                .unwrap_or(false)
        };
        assert!(m.evaluate(f, assignment));
        assert!(m.any_sat(BddRef::FALSE).is_none());
        assert_eq!(m.any_sat(BddRef::TRUE), Some(vec![]));
    }

    #[test]
    fn support_and_size() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let c = m.var(2);
        let f = m.xor(a, c);
        assert_eq!(m.support(f), vec![0, 2]);
        assert!(m.size(f) >= 2);
        assert_eq!(m.size(BddRef::TRUE), 0);
        assert_eq!(m.support(BddRef::FALSE), Vec::<VarId>::new());
    }

    #[test]
    fn cubes_enumerate_dnf() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let cubes = m.cubes(f, 10);
        // Every cube must satisfy f.
        for cube in &cubes {
            let assignment = |v: VarId| {
                cube.iter()
                    .find(|(cv, _)| *cv == v)
                    .map(|(_, val)| *val)
                    .unwrap_or(false)
            };
            assert!(m.evaluate(f, assignment));
        }
        assert!(!cubes.is_empty());
        // Limit is respected.
        assert_eq!(m.cubes(f, 1).len(), 1);
    }

    #[test]
    fn fold_visits_each_node_once_and_counts_every_path() {
        // (x0 | x1) & (x2 | x3) & ... & (x18 | x19): 2^10 paths to TRUE
        // over 20 shared decision nodes.
        let mut m = BddManager::new();
        let mut f = BddRef::TRUE;
        for i in 0..10 {
            let (a, b) = (m.var(2 * i), m.var(2 * i + 1));
            let clause = m.or(a, b);
            f = m.and(f, clause);
        }
        let mut visits = 0;
        let paths = m.fold(f, 0u64, 1, |_, low, high| {
            visits += 1;
            low + high
        });
        assert_eq!(paths, 1 << 10);
        assert_eq!(paths as usize, m.cubes(f, usize::MAX).len());
        assert_eq!(visits, m.size(f));
        assert_eq!(m.fold(BddRef::FALSE, 0, 1, |_, l, h| l + h), 0);
    }

    #[test]
    fn evaluate_agrees_with_truth_table_for_random_formulas() {
        // Build a moderately complex formula and cross-check against direct
        // boolean evaluation.
        let mut m = BddManager::new();
        let vars: Vec<BddRef> = (0..4).map(|i| m.var(i)).collect();
        // f = (x0 & x1) | (x2 ^ x3) & ~x0
        let x01 = m.and(vars[0], vars[1]);
        let x23 = m.xor(vars[2], vars[3]);
        let n0 = m.not(vars[0]);
        let right = m.and(x23, n0);
        let f = m.or(x01, right);
        for mask in 0..16u32 {
            let a = |v: VarId| (mask >> v) & 1 == 1;
            let expected = (a(0) && a(1)) || ((a(2) ^ a(3)) && !a(0));
            assert_eq!(m.evaluate(f, a), expected, "mask {mask}");
        }
    }

    #[test]
    fn clear_caches_preserves_semantics() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f1 = m.and(a, b);
        m.clear_caches();
        let f2 = m.and(a, b);
        assert_eq!(f1, f2);
    }
}
