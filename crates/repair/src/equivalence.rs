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
//! by case 1.2's minimal-weight fallback). A class that was never merged
//! keeps an empty member list, which stands for the root alone: building
//! the grid allocates nothing per cell, and the first merge writes out
//! both sides in the order an eager list would hold them.

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

/// Union–find over the dense cell grid of one relation.
#[derive(Clone, Debug)]
pub struct EqClasses {
    arity: usize,
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Root-indexed: target of the class (valid only at roots).
    target: Vec<Target>,
    /// Root-indexed member lists. Empty means the singleton `[root]`
    /// (see [`EqClasses::members`]).
    members: Vec<Vec<Cell>>,
    /// Root-indexed sum of member weights.
    weight_sum: Vec<f64>,
    /// Count of classes (N of the termination argument).
    class_count: usize,
    /// Σ rank over classes (H' of the termination argument).
    total_rank: u64,
}

impl EqClasses {
    /// Singleton classes for `n_tuples × arity` cells, all free. Weights
    /// are supplied per cell through `weight_of` (usually `Tuple::weight`).
    pub fn new(
        n_tuples: usize,
        arity: usize,
        mut weight_of: impl FnMut(TupleId, AttrId) -> f64,
    ) -> Self {
        let n = n_tuples * arity;
        let mut weight_sum = Vec::with_capacity(n);
        for t in 0..n_tuples {
            for a in 0..arity {
                weight_sum.push(weight_of(TupleId(t as u32), AttrId(a as u16)));
            }
        }
        EqClasses {
            arity,
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            target: vec![Target::Free; n],
            members: vec![Vec::new(); n],
            weight_sum,
            class_count: n,
            total_rank: 0,
        }
    }

    #[inline]
    fn index(&self, c: Cell) -> usize {
        c.tuple.index() * self.arity + c.attr.index()
    }

    #[inline]
    fn cell_at(&self, i: usize) -> Cell {
        Cell::new(
            TupleId((i / self.arity) as u32),
            AttrId((i % self.arity) as u16),
        )
    }

    fn find_idx(&mut self, mut i: usize) -> usize {
        while self.parent[i] as usize != i {
            let gp = self.parent[self.parent[i] as usize];
            self.parent[i] = gp;
            i = gp as usize;
        }
        i
    }

    /// Non-compressing root lookup. Union-by-size keeps chains `O(log n)`
    /// without compression, and a `&self` walk is what lets `PICKNEXT`
    /// planning read classes through a shared reference while it
    /// borrows the rest of the repair state mutably — every read accessor
    /// below goes through this. (Compression still happens inside the
    /// mutating ops, which walk via `find_idx`.)
    fn find_idx_ro(&self, mut i: usize) -> usize {
        while self.parent[i] as usize != i {
            i = self.parent[i] as usize;
        }
        i
    }

    /// Root cell of `c`'s class.
    pub fn find(&self, c: Cell) -> Cell {
        let i = self.index(c);
        self.cell_at(self.find_idx_ro(i))
    }

    /// Are two cells in the same class?
    pub fn same_class(&self, a: Cell, b: Cell) -> bool {
        let (ia, ib) = (self.index(a), self.index(b));
        self.find_idx_ro(ia) == self.find_idx_ro(ib)
    }

    /// The class's current target.
    pub fn target(&self, c: Cell) -> &Target {
        let i = self.index(c);
        let root = self.find_idx_ro(i);
        &self.target[root]
    }

    /// All members of `c`'s class, in merge order. A class that was
    /// never merged stores an empty member list, which means the
    /// singleton: its only member is `c` itself, returned from the
    /// borrowed argument.
    pub fn members<'s>(&'s self, c: &'s Cell) -> &'s [Cell] {
        let root = self.find_idx_ro(self.index(*c));
        match self.members[root].as_slice() {
            [] => std::slice::from_ref(c),
            members => members,
        }
    }

    /// Sum of member weights of `c`'s class.
    pub fn weight_sum(&self, c: Cell) -> f64 {
        let i = self.index(c);
        let root = self.find_idx_ro(i);
        self.weight_sum[root]
    }

    /// Number of classes (`N`).
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Total target rank (`H'`): strictly increases on upgrades.
    pub fn total_rank(&self) -> u64 {
        self.total_rank
    }

    /// Progress measure for termination: `3·cells − (2·N_reduction + H')`…
    /// concretely we expose `2 * (cells − N) + H'`, which strictly
    /// increases with every legal operation and is bounded by `4 · cells`.
    pub fn progress(&self) -> u64 {
        let cells = self.parent.len() as u64;
        2 * (cells - self.class_count as u64) + self.total_rank
    }

    /// Upgrade the target of `c`'s class. Legal transitions: free→const,
    /// free→null, const→null, and no-op re-assignment of the same constant.
    pub fn set_target(&mut self, c: Cell, new: Target) -> Result<(), EqError> {
        let i = self.index(c);
        let root = self.find_idx(i);
        let old = &self.target[root];
        match (old, &new) {
            (Target::Free, Target::Free) | (Target::Null, Target::Null) => Ok(()),
            (Target::Const(a), Target::Const(b)) if a == b => Ok(()),
            _ if new.rank() > old.rank() => {
                self.total_rank += u64::from(new.rank() - old.rank());
                self.target[root] = new;
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
        let (ia, ib) = (self.index(a), self.index(b));
        let (mut ra, mut rb) = (self.find_idx(ia), self.find_idx(ib));
        if ra == rb {
            return Ok(false);
        }
        let combined = match (&self.target[ra], &self.target[rb]) {
            (Target::Const(x), Target::Const(y)) if x != y => {
                return Err(EqError::ConflictingMerge)
            }
            (Target::Null, _) | (_, Target::Null) => Target::Null,
            (Target::Const(x), _) => Target::Const(*x),
            (_, Target::Const(y)) => Target::Const(*y),
            (Target::Free, Target::Free) => Target::Free,
        };
        // Rank accounting: the two old ranks are replaced by one combined
        // rank. total_rank tracks the sum over classes.
        let old_ranks = u64::from(self.target[ra].rank()) + u64::from(self.target[rb].rank());
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        // rb merges into ra.
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        // Write out implicit singletons so the list reads as an eager
        // one would: ra's members, then rb's.
        let moved = std::mem::take(&mut self.members[rb]);
        if self.members[ra].is_empty() {
            let root = self.cell_at(ra);
            self.members[ra].push(root);
        }
        if moved.is_empty() {
            let cell = self.cell_at(rb);
            self.members[ra].push(cell);
        } else {
            self.members[ra].extend(moved);
        }
        self.weight_sum[ra] += self.weight_sum[rb];
        self.weight_sum[rb] = 0.0;
        self.target[ra] = combined;
        self.total_rank = self.total_rank - old_ranks + u64::from(self.target[ra].rank());
        self.class_count -= 1;
        Ok(true)
    }

    /// Iterate over all class roots (cells) with free targets and more than
    /// one member — the classes the instantiation phase (lines 10–12 of
    /// Fig. 4) must assign.
    pub fn free_multi_member_roots(&self) -> Vec<Cell> {
        let n = self.parent.len();
        let mut roots = Vec::new();
        for i in 0..n {
            if self.parent[i] as usize == i && self.target[i] == Target::Free && self.size[i] > 1 {
                roots.push(self.cell_at(i));
            }
        }
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::Value;

    fn cid(s: &str) -> ValueId {
        ValueId::of(&Value::str(s))
    }

    fn cells() -> EqClasses {
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

        fn progress(&self) -> u64 {
            let (mut classes, mut rank) = (0u64, 0u64);
            for r in self.roots() {
                classes += 1;
                rank += u64::from(self.target[r].rank());
            }
            2 * (self.root.len() as u64 - classes) + rank
        }

        fn free_multi_member_roots(&self) -> Vec<Cell> {
            self.roots()
                .filter(|&r| self.target[r] == Target::Free && self.members[r].len() > 1)
                .map(|r| c((r / self.arity) as u32, (r % self.arity) as u16))
                .collect()
        }
    }

    #[test]
    fn lazy_singletons_match_an_eager_grid() {
        use cfd_prng::{trials, Rng};
        let ids: Vec<ValueId> = (0..3).map(|i| cid(&format!("eq-const-{i}"))).collect();
        trials(300, 0x0e9c_1a55, |rng| {
            let (n_tuples, arity) = (rng.gen_range(1..8usize), rng.gen_range(1..4usize));
            let weights: Vec<f64> = (0..n_tuples * arity)
                .map(|_| [0.1, 0.3, 0.7, 1.0][rng.gen_range(0..4usize)])
                .collect();
            let weight_of = |t: TupleId, a: AttrId| weights[t.index() * arity + a.index()];
            let mut eq = EqClasses::new(n_tuples, arity, weight_of);
            let mut eager = Eager::new(n_tuples, arity, weight_of);
            let cells: Vec<Cell> = (0..n_tuples as u32)
                .flat_map(|t| (0..arity as u16).map(move |a| c(t, a)))
                .collect();
            for _ in 0..rng.gen_range(0..30usize) {
                let x = cells[rng.gen_range(0..cells.len())];
                if rng.gen_bool(0.6) {
                    let y = cells[rng.gen_range(0..cells.len())];
                    assert_eq!(eq.merge(x, y), eager.merge(x, y));
                } else {
                    let t = match rng.gen_range(0..5u32) {
                        0 => Target::Free,
                        1 => Target::Null,
                        i => Target::Const(ids[i as usize - 2]),
                    };
                    assert_eq!(eq.set_target(x, t).is_ok(), eager.set_target(x, t));
                }
                for &x in &cells {
                    let r = eager.root_of(x);
                    assert_eq!(eq.members(&x), eager.members[r].as_slice());
                    assert_eq!(eq.weight_sum(x).to_bits(), eager.weight_sum[r].to_bits());
                    assert_eq!(*eq.target(x), eager.target[r]);
                }
                assert_eq!(
                    eq.free_multi_member_roots(),
                    eager.free_multi_member_roots()
                );
                assert_eq!(eq.progress(), eager.progress());
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
