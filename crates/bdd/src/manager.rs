//! The BDD manager: hash-consed node storage and logical operations.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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
}

/// The tables' hasher.  Their keys are node and reference ids this manager
/// minted, so SipHash's collision resistance buys nothing: each word folds
/// as `h = (rotl(h, 5) ^ word) * K`, the high half folded over the low half
/// because the table reads both ends of the hash.  A hash only decides where
/// an entry sits, never the order nodes are created in.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u64(byte.into()));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A manager owning a forest of reduced, ordered BDDs.
///
/// Variable ordering is the natural order of [`VarId`]s.  `and` / `or` are
/// memoised in one cache that lives as long as the manager.
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: IdMap<Node, BddRef>,
    apply_cache: IdMap<(BinOp, BddRef, BddRef), BddRef>,
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
            unique: IdMap::default(),
            apply_cache: IdMap::default(),
        }
    }

    /// Total number of nodes allocated (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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

    /// Creates (or finds) the reduced node `(var, low, high)`.
    fn mk_node(&mut self, var: VarId, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        let next = BddRef(self.nodes.len() as u32);
        *self.unique.entry(node).or_insert_with(|| {
            self.nodes.push(node);
            next
        })
    }

    /// Logical AND (the provenance `*` / join operation).
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.apply(BinOp::And, a, b)
    }

    /// Logical OR (the provenance `+` / union operation).
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.apply(BinOp::Or, a, b)
    }

    fn apply(&mut self, op: BinOp, a: BddRef, b: BddRef) -> BddRef {
        // Terminal short-cuts: the absorbing constant, the identity, `a op a`.
        let (absorbing, identity) = match op {
            BinOp::And => (BddRef::FALSE, BddRef::TRUE),
            BinOp::Or => (BddRef::TRUE, BddRef::FALSE),
        };
        if a == absorbing || b == absorbing {
            return absorbing;
        }
        if a == identity || a == b {
            return b;
        }
        if b == identity {
            return a;
        }
        // Canonicalise the commutative key so (a,b) and (b,a) share a slot.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&cached) = self.apply_cache.get(&key) {
            return cached;
        }

        let (va, vb) = (self.node(a).var, self.node(b).var);
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
        let mut seen = HashSet::<_, BuildHasherDefault<IdHasher>>::default();
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

    /// Enumerates `f`'s paths to TRUE, at most `limit` of them, each as the
    /// `(var, branch)` decisions it takes in variable order (`true` for a
    /// positive literal).  Condensed provenance reads its products off
    /// these; the count is exponential in the worst case, see
    /// [`BddManager::fold`].
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
        let mut done = IdMap::from_iter([(BddRef::FALSE, on_false), (BddRef::TRUE, on_true)]);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let (t, f) = (BddRef::TRUE, BddRef::FALSE);

        assert_eq!(m.and(a, t), a);
        assert_eq!(m.and(a, f), f);
        assert_eq!(m.or(a, f), a);
        assert_eq!(m.or(a, t), t);
        assert_eq!(m.and(a, a), a);
        assert_eq!(m.or(a, a), a);

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
        assert_eq!(m.support(BddRef::FALSE), Vec::<VarId>::new());
    }

    /// Node creation order is the recursion's, never the tables': a hasher
    /// swap must leave every index and the node count where they were.
    #[test]
    fn node_indexes_and_counts_are_pinned() {
        // Figure 2: a + a*b.
        let mut m = BddManager::new();
        let (a, b) = (m.var(0), m.var(1));
        let ab = m.and(a, b);
        let expr = m.or(a, ab);
        let indexes = [a, b, ab, expr].map(BddRef::index);
        assert_eq!((indexes, m.node_count()), ([2, 3, 4, 2], 5));

        // (a0 + b0) * (a1 + b1) * ... * (a12 + b12), built as `tag.rs`
        // builds it: clause c's variables land at (c+1)^2 + 1 and + 2, its
        // sum one past them, and the running product at (c+2)^2.
        let mut m = BddManager::new();
        let mut product = BddRef::TRUE;
        for c in 0..13 {
            let (a, b) = (m.var(2 * c), m.var(2 * c + 1));
            let clause = m.or(a, b);
            product = m.and(product, clause);
            let at = (c + 1) * (c + 1);
            let indexes = [a, b, clause, product].map(BddRef::index);
            assert_eq!(indexes, [at + 1, at + 2, at + 3, (c + 2) * (c + 2)]);
        }
        assert_eq!(m.node_count(), 197);
    }

    #[test]
    fn distributivity() {
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
        // over 20 shared decision nodes, two per clause.
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
        assert_eq!(visits, 20);
        assert_eq!(m.fold(BddRef::FALSE, 0, 1, |_, l, h| l + h), 0);
    }

    /// A formula over the manager's two operations and six variables.
    #[derive(Clone, Debug)]
    enum Formula {
        Const(bool),
        Var(VarId),
        And(Vec<Formula>),
        Or(Vec<Formula>),
    }

    impl Formula {
        fn eval(&self, mask: u32) -> bool {
            match self {
                Formula::Const(c) => *c,
                Formula::Var(v) => mask >> v & 1 == 1,
                Formula::And(fs) => fs.iter().all(|f| f.eval(mask)),
                Formula::Or(fs) => fs.iter().any(|f| f.eval(mask)),
            }
        }

        fn build(&self, m: &mut BddManager) -> BddRef {
            match self {
                Formula::Const(c) => [BddRef::FALSE, BddRef::TRUE][*c as usize],
                Formula::Var(v) => m.var(*v),
                Formula::And(fs) => fs.iter().fold(BddRef::TRUE, |acc, f| {
                    let g = f.build(m);
                    m.and(acc, g)
                }),
                Formula::Or(fs) => fs.iter().fold(BddRef::FALSE, |acc, f| {
                    let g = f.build(m);
                    m.or(acc, g)
                }),
            }
        }
    }

    fn arb_formula() -> impl Strategy<Value = Formula> {
        let leaf = prop_oneof![
            any::<bool>().prop_map(Formula::Const),
            (0u32..6).prop_map(Formula::Var),
        ];
        leaf.prop_recursive(4, 64, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::And),
                proptest::collection::vec(inner, 1..4).prop_map(Formula::Or),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_bdd_agrees_with_direct_evaluation(e in arb_formula()) {
            let mut m = BddManager::new();
            let bdd = e.build(&mut m);
            for mask in 0..64u32 {
                prop_assert_eq!(m.evaluate(bdd, |v| mask >> v & 1 == 1), e.eval(mask));
            }
            // Equal functions share one reference: the same function built
            // again as the sum of its minimal true points (a monotone
            // function's prime implicants) is the same node.
            let truth: Vec<u32> = (0..64).filter(|&mask| e.eval(mask)).collect();
            let minimal = truth.iter().filter(|&&mask| {
                !truth.iter().any(|&other| other != mask && other & mask == other)
            });
            let points = minimal.map(|&mask| {
                let vars = (0..6).filter(|v| mask >> v & 1 == 1).map(Formula::Var);
                Formula::And(vars.collect())
            });
            prop_assert_eq!(Formula::Or(points.collect()).build(&mut m), bdd);
        }
    }
}
