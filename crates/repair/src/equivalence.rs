//! Equivalence classes of `(tuple, attribute)` cells (§4.1).
//!
//! `BATCHREPAIR` separates *which cells must be equal* from *what value
//! they take*: each cell belongs to an equivalence class with a target
//! value that is `'_'` (free), a constant, or `null`, and targets may only
//! be **upgraded** along `'_' → constant → null` — never downgraded and
//! never changed between constants. Together with class merging, this
//! monotonicity is what Theorem 4.2's termination argument counts: every
//! repair step either reduces the number of classes `N` or increases the
//! total rank `H` (free = 0, constant = 1, null = 2), and both are bounded.
//!
//! The structure is a union–find with union-by-size, path compression, and
//! per-root member lists + weight sums (needed by `PICKNEXT`'s `Cost` and
//! by case 1.2's minimal-weight fallback). Only a cell that a merge or a
//! target upgrade reached has a node; any other is a free singleton,
//! weighed on demand. So building the classes allocates nothing per cell,
//! and they grow with the cells a repair touches, not with `|D| · arity`.
//! A node never merged keeps an empty member list, which stands for the
//! cell alone; the first merge writes out both sides in eager-list order.

use cfd_model::hash::FixedMap;
use cfd_model::{AttrId, TupleId, ValueId};

/// A cell: one attribute of one tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// The owning tuple.
    pub tuple: TupleId,
    /// The attribute within the tuple.
    pub attr: AttrId,
}

impl Cell {
    /// Construct a cell id.
    pub fn new(tuple: TupleId, attr: AttrId) -> Self {
        Cell { tuple, attr }
    }
}

/// Target value of an equivalence class. Constants are interned ids —
/// target comparison, merging, and the monotone upgrade checks are all
/// integer operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// `'_'`: not yet fixed.
    Free,
    /// A concrete constant, interned.
    Const(ValueId),
    /// `null`: uncertain due to conflict; terminal.
    Null,
}

impl Target {
    /// Rank in the upgrade lattice: free 0, constant 1, null 2.
    pub fn rank(&self) -> u8 {
        match self {
            Target::Free => 0,
            Target::Const(_) => 1,
            Target::Null => 2,
        }
    }
}

/// Errors from illegal class operations — these indicate algorithmic bugs,
/// so the repair loop treats them as fatal.
#[derive(Debug, PartialEq)]
pub enum EqError {
    /// Attempted downgrade or constant-to-different-constant change.
    IllegalUpgrade {
        /// Rank of the current target.
        from_rank: u8,
        /// Rank of the attempted target.
        to_rank: u8,
    },
    /// Attempted merge of classes with conflicting constant targets.
    ConflictingMerge,
}

impl std::fmt::Display for EqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EqError::IllegalUpgrade { from_rank, to_rank } => {
                write!(f, "illegal target change: rank {from_rank} -> {to_rank}")
            }
            EqError::ConflictingMerge => write!(f, "merge of classes with distinct constants"),
        }
    }
}

impl std::error::Error for EqError {}

/// Sparse union–find over the cell grid of one relation.
pub struct EqClasses<'w> {
    /// Cells in the grid (`n_tuples × arity`), reached or not.
    cells: u64,
    /// Weight of a cell, read when it has no node or gets one.
    weight_of: Box<dyn Fn(TupleId, AttrId) -> f64 + 'w>,
    /// Node index of each reached cell.
    index: FixedMap<Cell, u32>,
    nodes: Vec<Node>,
    /// Count of classes (N of the termination argument).
    class_count: usize,
    /// Σ rank over classes (H' of the termination argument).
    total_rank: u64,
}

/// A reached cell. The class fields are valid only at roots.
struct Node {
    cell: Cell,
    parent: u32,
    size: u32,
    target: Target,
    /// Member list; empty means the singleton `[cell]`.
    members: Vec<Cell>,
    weight_sum: f64,
}

impl<'w> EqClasses<'w> {
    /// Singleton classes for `n_tuples × arity` cells, all free. Weights
    /// are read per cell through `weight_of` (usually `Tuple::weight`).
    pub fn new(
        n_tuples: usize,
        arity: usize,
        weight_of: impl Fn(TupleId, AttrId) -> f64 + 'w,
    ) -> Self {
        let cells = (n_tuples * arity) as u64;
        EqClasses {
            cells,
            weight_of: Box::new(weight_of),
            index: FixedMap::default(),
            nodes: Vec::new(),
            class_count: cells as usize,
            total_rank: 0,
        }
    }

    /// `c`'s node, made a free singleton on first reach.
    fn node(&mut self, c: Cell) -> usize {
        let (nodes, weight_of) = (&mut self.nodes, &self.weight_of);
        *self.index.entry(c).or_insert_with(|| {
            nodes.push(Node {
                cell: c,
                parent: nodes.len() as u32,
                size: 1,
                target: Target::Free,
                members: Vec::new(),
                weight_sum: weight_of(c.tuple, c.attr),
            });
            nodes.len() as u32 - 1
        }) as usize
    }

    /// The root node of `c`'s class, compressing the path to it.
    fn find_node(&mut self, c: Cell) -> usize {
        let mut i = self.node(c);
        while self.nodes[i].parent as usize != i {
            let gp = self.nodes[self.nodes[i].parent as usize].parent;
            self.nodes[i].parent = gp;
            i = gp as usize;
        }
        i
    }

    /// Non-compressing root lookup (`None`: `c` has no node). Union-by-size
    /// keeps chains `O(log n)`, and a `&self` walk lets `PICKNEXT` planning
    /// read classes while it borrows the rest of the repair state mutably:
    /// every read accessor goes through this.
    fn root(&self, c: Cell) -> Option<&Node> {
        let mut i = *self.index.get(&c)? as usize;
        while self.nodes[i].parent as usize != i {
            i = self.nodes[i].parent as usize;
        }
        Some(&self.nodes[i])
    }

    /// Root cell of `c`'s class.
    pub fn find(&self, c: Cell) -> Cell {
        self.root(c).map_or(c, |root| root.cell)
    }

    /// Are two cells in the same class?
    pub fn same_class(&self, a: Cell, b: Cell) -> bool {
        self.find(a) == self.find(b)
    }

    /// The class's current target.
    pub fn target(&self, c: Cell) -> &Target {
        self.root(c).map_or(&Target::Free, |root| &root.target)
    }

    /// All members of `c`'s class, in merge order. A class never merged
    /// is the singleton `[c]`, returned from the borrowed argument.
    pub fn members<'s>(&'s self, c: &'s Cell) -> &'s [Cell] {
        match self.root(*c).map(|root| root.members.as_slice()) {
            None | Some([]) => std::slice::from_ref(c),
            Some(members) => members,
        }
    }

    /// Sum of member weights of `c`'s class.
    pub fn weight_sum(&self, c: Cell) -> f64 {
        self.root(c)
            .map_or_else(|| (self.weight_of)(c.tuple, c.attr), |r| r.weight_sum)
    }

    /// Number of classes (`N`).
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Total target rank (`H'`): strictly increases on upgrades.
    pub fn total_rank(&self) -> u64 {
        self.total_rank
    }

    /// Number of cells a merge or a target upgrade reached (the nodes).
    pub fn class_cells(&self) -> usize {
        self.nodes.len()
    }

    /// Progress measure for termination: `2 · (cells − N) + H'`, strictly
    /// increasing with every legal operation and bounded by `4 · cells`.
    pub fn progress(&self) -> u64 {
        2 * (self.cells - self.class_count as u64) + self.total_rank
    }

    /// Upgrade the target of `c`'s class. Legal transitions: free→const,
    /// free→null, const→null, and no-op re-assignment of the same constant.
    pub fn set_target(&mut self, c: Cell, new: Target) -> Result<(), EqError> {
        let old = *self.target(c);
        match (&old, &new) {
            (Target::Free, Target::Free) | (Target::Null, Target::Null) => Ok(()),
            (Target::Const(a), Target::Const(b)) if a == b => Ok(()),
            _ if new.rank() > old.rank() => {
                self.total_rank += u64::from(new.rank() - old.rank());
                let root = self.find_node(c);
                self.nodes[root].target = new;
                Ok(())
            }
            _ => Err(EqError::IllegalUpgrade {
                from_rank: old.rank(),
                to_rank: new.rank(),
            }),
        }
    }

    /// Merge the classes of `a` and `b` (case 2.1 of §4.1). Target
    /// combination: free+free = free; free+const = const; const+const
    /// (equal) = that constant; null absorbs everything. Two *distinct*
    /// constants refuse to merge — that situation is case 2.2 and must be
    /// resolved through an LHS change instead.
    ///
    /// Returns `true` if a merge happened (`false` when already together).
    pub fn merge(&mut self, a: Cell, b: Cell) -> Result<bool, EqError> {
        if a == b {
            return Ok(false);
        }
        let (mut ra, mut rb) = (self.find_node(a), self.find_node(b));
        if ra == rb {
            return Ok(false);
        }
        let (ta, tb) = (self.nodes[ra].target, self.nodes[rb].target);
        let combined = match (ta, tb) {
            (Target::Const(x), Target::Const(y)) if x != y => {
                return Err(EqError::ConflictingMerge)
            }
            (Target::Null, _) | (_, Target::Null) => Target::Null,
            (Target::Const(x), _) | (_, Target::Const(x)) => Target::Const(x),
            (Target::Free, Target::Free) => Target::Free,
        };
        // total_rank: the two old ranks are replaced by the combined one.
        let old_ranks = u64::from(ta.rank()) + u64::from(tb.rank());
        if self.nodes[ra].size < self.nodes[rb].size {
            std::mem::swap(&mut ra, &mut rb);
        }
        // rb merges into ra. Write out implicit singletons so the list
        // reads as an eager one would: ra's members, then rb's.
        let loser = &mut self.nodes[rb];
        loser.parent = ra as u32;
        let (size, weight) = (loser.size, std::mem::take(&mut loser.weight_sum));
        let moved = match std::mem::take(&mut loser.members) {
            members if members.is_empty() => vec![loser.cell],
            members => members,
        };
        let root = &mut self.nodes[ra];
        root.size += size;
        if root.members.is_empty() {
            root.members.push(root.cell);
        }
        root.members.extend(moved);
        root.weight_sum += weight;
        root.target = combined;
        self.total_rank = self.total_rank - old_ranks + u64::from(combined.rank());
        self.class_count -= 1;
        Ok(true)
    }

    /// All class roots (cells) with free targets and more than one member
    /// — the classes the instantiation phase (lines 10–12 of Fig. 4) must
    /// assign — in ascending cell order.
    pub fn free_multi_member_roots(&self) -> Vec<Cell> {
        let mut roots: Vec<Cell> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| n.parent as usize == i && n.target == Target::Free && n.size > 1)
            .map(|(_, n)| n.cell)
            .collect();
        roots.sort_unstable();
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinct constant id per name; the classes never resolve ids.
    fn cid(s: &str) -> ValueId {
        const NAMES: [&str; 7] = ["NYC", "PHI", "X", "deep", "v", "w", "x"];
        ValueId(1 + NAMES.iter().position(|n| *n == s).expect("known name") as u32)
    }

    fn cells() -> EqClasses<'static> {
        EqClasses::new(3, 2, |_, _| 1.0)
    }

    fn c(t: u32, a: u16) -> Cell {
        Cell::new(TupleId(t), AttrId(a))
    }

    #[test]
    fn starts_as_singletons() {
        let eq = cells();
        assert_eq!(eq.class_count(), 6);
        assert_eq!(eq.total_rank(), 0);
        assert_eq!(eq.members(&c(0, 0)), &[c(0, 0)]);
        assert_eq!(*eq.target(c(1, 1)), Target::Free);
        assert_eq!(eq.weight_sum(c(2, 0)), 1.0);
    }

    #[test]
    fn merge_combines_members_and_weights() {
        let mut eq = EqClasses::new(3, 2, |t, _| if t.0 == 0 { 0.5 } else { 1.0 });
        assert!(eq.merge(c(0, 0), c(1, 0)).unwrap());
        assert_eq!(eq.class_count(), 5);
        assert!(eq.same_class(c(0, 0), c(1, 0)));
        let mut members = eq.members(&c(0, 0)).to_vec();
        members.sort();
        assert_eq!(members, vec![c(0, 0), c(1, 0)]);
        assert_eq!(eq.weight_sum(c(1, 0)), 1.5);
        // re-merge is a no-op
        assert!(!eq.merge(c(1, 0), c(0, 0)).unwrap());
        assert_eq!(eq.class_count(), 5);
    }

    #[test]
    fn target_upgrades_follow_lattice() {
        let mut eq = cells();
        let cell = c(0, 0);
        eq.set_target(cell, Target::Const(cid("NYC"))).unwrap();
        assert_eq!(*eq.target(cell), Target::Const(cid("NYC")));
        // same constant: ok
        eq.set_target(cell, Target::Const(cid("NYC"))).unwrap();
        // different constant: refused
        let err = eq.set_target(cell, Target::Const(cid("PHI"))).unwrap_err();
        assert_eq!(
            err,
            EqError::IllegalUpgrade {
                from_rank: 1,
                to_rank: 1
            }
        );
        // null: allowed
        eq.set_target(cell, Target::Null).unwrap();
        assert_eq!(*eq.target(cell), Target::Null);
        // downgrade: refused
        assert!(eq.set_target(cell, Target::Free).is_err());
        assert!(eq.set_target(cell, Target::Const(cid("X"))).is_err());
    }

    #[test]
    fn merge_target_combination() {
        let mut eq = cells();
        eq.set_target(c(0, 0), Target::Const(cid("v"))).unwrap();
        // const + free = const
        eq.merge(c(0, 0), c(1, 0)).unwrap();
        assert_eq!(*eq.target(c(1, 0)), Target::Const(cid("v")));
        // const + conflicting const = error
        eq.set_target(c(2, 0), Target::Const(cid("w"))).unwrap();
        assert_eq!(
            eq.merge(c(1, 0), c(2, 0)).unwrap_err(),
            EqError::ConflictingMerge
        );
        // null absorbs const
        eq.set_target(c(2, 0), Target::Null).unwrap();
        eq.merge(c(1, 0), c(2, 0)).unwrap();
        assert_eq!(*eq.target(c(0, 0)), Target::Null);
    }

    #[test]
    fn progress_strictly_increases() {
        let mut eq = cells();
        let p0 = eq.progress();
        eq.merge(c(0, 0), c(1, 0)).unwrap();
        let p1 = eq.progress();
        assert!(p1 > p0);
        eq.set_target(c(0, 0), Target::Const(cid("x"))).unwrap();
        let p2 = eq.progress();
        assert!(p2 > p1);
        eq.set_target(c(0, 0), Target::Null).unwrap();
        let p3 = eq.progress();
        assert!(p3 > p2);
        // bounded by 4 · cells
        assert!(p3 <= 4 * 6);
    }

    #[test]
    fn merge_rank_accounting() {
        let mut eq = cells();
        eq.set_target(c(0, 0), Target::Const(cid("x"))).unwrap();
        eq.set_target(c(1, 0), Target::Const(cid("x"))).unwrap();
        assert_eq!(eq.total_rank(), 2);
        // merging two rank-1 classes yields one rank-1 class
        eq.merge(c(0, 0), c(1, 0)).unwrap();
        assert_eq!(eq.total_rank(), 1);
        assert_eq!(eq.class_count(), 5);
    }

    #[test]
    fn free_multi_member_roots_lists_only_merged_free_classes() {
        let mut eq = cells();
        eq.merge(c(0, 0), c(1, 0)).unwrap(); // free, 2 members
        eq.merge(c(0, 1), c(1, 1)).unwrap();
        eq.set_target(c(0, 1), Target::Const(cid("v"))).unwrap(); // now const
        let roots = eq.free_multi_member_roots();
        assert_eq!(roots.len(), 1);
        assert!(eq.same_class(roots[0], c(0, 0)));
    }

    #[test]
    fn read_only_lookups_need_no_mut() {
        // Planning reads EqClasses through `&`: every read accessor must
        // answer correctly on deep, uncompressed chains.
        let mut eq = EqClasses::new(6, 1, |_, _| 1.0);
        for t in 1..6 {
            eq.merge(c(t - 1, 0), c(t, 0)).unwrap();
        }
        eq.set_target(c(0, 0), Target::Const(cid("deep"))).unwrap();
        let view: &EqClasses = &eq;
        let root = view.find(c(5, 0));
        assert!(view.same_class(root, c(0, 0)));
        assert_eq!(*view.target(c(5, 0)), Target::Const(cid("deep")));
        assert_eq!(view.members(&c(5, 0)).len(), 6);
        assert_eq!(view.weight_sum(c(3, 0)), 6.0);
        // Reads through `&` are repeatable: nothing was compressed away.
        assert_eq!(view.find(c(5, 0)), root);
    }

    /// An eager reference of the class grid: every cell keeps its root
    /// up to date, and every root holds its member list from the start.
    /// Roots, union-by-size, member order and weight sums follow the rules
    /// [`EqClasses`] implements.
    struct Eager {
        arity: usize,
        root: Vec<usize>,
        members: Vec<Vec<Cell>>,
        weight_sum: Vec<f64>,
        target: Vec<Target>,
    }

    impl Eager {
        fn new(n_tuples: usize, arity: usize, weight_of: impl Fn(TupleId, AttrId) -> f64) -> Self {
            let n = n_tuples * arity;
            let cell = |i: usize| c((i / arity) as u32, (i % arity) as u16);
            Eager {
                arity,
                root: (0..n).collect(),
                members: (0..n).map(|i| vec![cell(i)]).collect(),
                weight_sum: (0..n)
                    .map(|i| weight_of(cell(i).tuple, cell(i).attr))
                    .collect(),
                target: vec![Target::Free; n],
            }
        }

        fn root_of(&self, x: Cell) -> usize {
            self.root[x.tuple.index() * self.arity + x.attr.index()]
        }

        fn set_target(&mut self, x: Cell, new: Target) -> bool {
            let r = self.root_of(x);
            let old = self.target[r];
            let legal = old == new || new.rank() > old.rank();
            if legal {
                self.target[r] = new;
            }
            legal
        }

        fn merge(&mut self, a: Cell, b: Cell) -> Result<bool, EqError> {
            let (mut ra, mut rb) = (self.root_of(a), self.root_of(b));
            if ra == rb {
                return Ok(false);
            }
            let combined = match (self.target[ra], self.target[rb]) {
                (Target::Const(x), Target::Const(y)) if x != y => {
                    return Err(EqError::ConflictingMerge)
                }
                (Target::Null, _) | (_, Target::Null) => Target::Null,
                (Target::Const(x), _) | (_, Target::Const(x)) => Target::Const(x),
                (Target::Free, Target::Free) => Target::Free,
            };
            if self.members[ra].len() < self.members[rb].len() {
                std::mem::swap(&mut ra, &mut rb);
            }
            let moved = std::mem::take(&mut self.members[rb]);
            for m in &moved {
                self.root[m.tuple.index() * self.arity + m.attr.index()] = ra;
            }
            self.members[ra].extend(moved);
            self.weight_sum[ra] += self.weight_sum[rb];
            self.target[ra] = combined;
            Ok(true)
        }

        fn roots(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.root.len()).filter(|&i| self.root[i] == i)
        }

        fn class_count(&self) -> usize {
            self.roots().count()
        }

        fn total_rank(&self) -> u64 {
            self.roots().map(|r| u64::from(self.target[r].rank())).sum()
        }

        fn progress(&self) -> u64 {
            2 * (self.root.len() - self.class_count()) as u64 + self.total_rank()
        }

        fn free_multi_member_roots(&self) -> Vec<Cell> {
            self.roots()
                .filter(|&r| self.target[r] == Target::Free && self.members[r].len() > 1)
                .map(|r| c((r / self.arity) as u32, (r % self.arity) as u16))
                .collect()
        }
    }

    /// Random merges and target writes, checked against the eager grid
    /// after every operation: each cell's root, class, target, members and
    /// weight-sum bits, the class count, total rank and progress, the
    /// instantiation roots in order, and the number of reached cells. Half
    /// the trials play on small grids where every cell takes operations;
    /// the rest on larger grids where a few hot cells take most of them
    /// and most cells stay untouched, with target writes on untouched
    /// cells among the rest.
    #[test]
    fn lazy_singletons_match_an_eager_grid() {
        use cfd_prng::{trials, Rng};
        use std::collections::BTreeSet;
        let ids: Vec<ValueId> = ["v", "w", "x"].map(cid).to_vec();
        trials(300, 0x0e9c_1a55, |rng| {
            let sparse = rng.gen_bool(0.5);
            let (n_tuples, arity) = if sparse {
                (rng.gen_range(8..48usize), rng.gen_range(2..6usize))
            } else {
                (rng.gen_range(1..8usize), rng.gen_range(1..4usize))
            };
            let weights: Vec<f64> = (0..n_tuples * arity)
                .map(|_| [0.1, 0.3, 0.7, 1.0][rng.gen_range(0..4usize)])
                .collect();
            let weight_of = |t: TupleId, a: AttrId| weights[t.index() * arity + a.index()];
            let mut eq = EqClasses::new(n_tuples, arity, weight_of);
            let mut eager = Eager::new(n_tuples, arity, weight_of);
            let cells: Vec<Cell> = (0..n_tuples as u32)
                .flat_map(|t| (0..arity as u16).map(move |a| c(t, a)))
                .collect();
            let hot: Vec<Cell> = if sparse {
                (0..rng.gen_range(2..8usize))
                    .map(|_| cells[rng.gen_range(0..cells.len())])
                    .collect()
            } else {
                cells.clone()
            };
            let pick = |rng: &mut _| {
                let from = if Rng::gen_bool(rng, 0.1) {
                    &cells
                } else {
                    &hot
                };
                from[Rng::gen_range(rng, 0..from.len())]
            };
            let mut reached = BTreeSet::new();
            for _ in 0..rng.gen_range(0..40usize) {
                let x = pick(rng);
                if rng.gen_bool(0.6) {
                    let y = pick(rng);
                    assert_eq!(eq.merge(x, y), eager.merge(x, y));
                    if x != y {
                        reached.extend([x, y]);
                    }
                } else {
                    let t = match rng.gen_range(0..5u32) {
                        0 => Target::Free,
                        1 => Target::Null,
                        i => Target::Const(ids[i as usize - 2]),
                    };
                    let before = eager.target[eager.root_of(x)];
                    assert_eq!(eq.set_target(x, t).is_ok(), eager.set_target(x, t));
                    if eager.target[eager.root_of(x)] != before {
                        reached.insert(x);
                    }
                }
                let probe = cells[rng.gen_range(0..cells.len())];
                for &x in &cells {
                    let r = eager.root_of(x);
                    assert_eq!(eq.find(x), c((r / arity) as u32, (r % arity) as u16));
                    assert_eq!(eq.same_class(x, probe), r == eager.root_of(probe));
                    assert_eq!(eq.members(&x), eager.members[r].as_slice());
                    assert_eq!(eq.weight_sum(x).to_bits(), eager.weight_sum[r].to_bits());
                    assert_eq!(*eq.target(x), eager.target[r]);
                }
                assert_eq!(eq.class_count(), eager.class_count());
                assert_eq!(eq.total_rank(), eager.total_rank());
                assert_eq!(eq.progress(), eager.progress());
                assert_eq!(
                    eq.free_multi_member_roots(),
                    eager.free_multi_member_roots()
                );
                assert_eq!(eq.class_cells(), reached.len());
            }
        });
    }

    #[test]
    fn path_compression_preserves_lookups() {
        let mut eq = EqClasses::new(8, 1, |_, _| 1.0);
        for t in 1..8 {
            eq.merge(c(t - 1, 0), c(t, 0)).unwrap();
        }
        assert_eq!(eq.class_count(), 1);
        assert_eq!(eq.members(&c(3, 0)).len(), 8);
        assert_eq!(eq.weight_sum(c(7, 0)), 8.0);
        for t in 0..8 {
            assert!(eq.same_class(c(0, 0), c(t, 0)));
        }
    }
}
