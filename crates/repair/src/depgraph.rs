//! The CFD dependency graph behind `PICKNEXT`'s optimization (§7.2).
//!
//! The paper reports that the unoptimized `BATCHREPAIR` "runs very slow"
//! and that the authors "applied some additional optimizations based on the
//! dependency graph of the CFDs, which help PICKNEXT to select the next CFD
//! to repair". We realize that as: draw an edge `φ → ψ` whenever repairing
//! φ can re-dirty ψ (the RHS attribute of φ occurs among ψ's attributes),
//! condense strongly connected components (the experiment Σ deliberately
//! contains *cyclic* CFDs), topologically order the condensation, and have
//! the optimized picker drain violations CFD-by-CFD in that order —
//! upstream CFDs first, so downstream work is not repeatedly invalidated.

use cfd_cfd::{CfdId, Sigma};

/// Dependency-derived processing order over the normal CFDs of a Σ.
#[derive(Clone, Debug)]
pub struct DepGraph {
    order: Vec<CfdId>,
    /// Component index per CFD, in topological order of components.
    component: Vec<usize>,
}

impl DepGraph {
    /// Build the graph and its processing order for `sigma`.
    pub fn build(sigma: &Sigma) -> Self {
        let n = sigma.len();
        // adjacency: φ → ψ if RHS(φ) ∈ attrs(ψ)
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for phi in sigma.iter() {
            let out = sigma.mentioning(phi.rhs_attr());
            for psi in out {
                if psi.index() != phi.id().index() {
                    adj[phi.id().index()].push(psi.index());
                }
            }
        }
        let comp = tarjan_scc(&adj);
        // tarjan_scc returns components in *reverse* topological order
        // (a Tarjan property); component ids are renumbered so ascending id
        // = topological order.
        let n_comps = comp.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        let component: Vec<usize> = comp.iter().map(|c| n_comps - 1 - c).collect();
        let mut order: Vec<CfdId> = (0..n as u32).map(CfdId).collect();
        order.sort_by_key(|id| (component[id.index()], id.index()));
        DepGraph { order, component }
    }

    /// Normal CFD ids, upstream components first.
    pub fn order(&self) -> &[CfdId] {
        &self.order
    }

    /// Topological component index of a CFD (0 = most upstream).
    pub fn component(&self, id: CfdId) -> usize {
        self.component[id.index()]
    }
}

/// Tarjan's strongly-connected-components algorithm (iterative).
/// Returns a component id per node; ids are assigned in reverse
/// topological order.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![UNSET; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    // Explicit DFS stack: (node, next child position).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        call.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("scc stack underflow");
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_cfd::Cfd;
    use cfd_model::{Schema, ValuePool};

    fn fd(s: &Schema, name: &str, from: &str, to: &str) -> Cfd {
        Cfd::standard_fd(name, vec![s.attr(from).unwrap()], vec![s.attr(to).unwrap()])
    }

    #[test]
    fn chain_orders_upstream_first() {
        let s = Schema::new("r", &["a", "b", "c"]).unwrap();
        // a→b then b→c: repairing a→b (writes b) dirties b→c (reads b), so
        // a→b must come first.
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![fd(&s, "ab", "a", "b"), fd(&s, "bc", "b", "c")],
            &ValuePool::new(),
        )
        .unwrap();
        let g = DepGraph::build(&sigma);
        assert_eq!(g.order(), &[CfdId(0), CfdId(1)]);
        assert!(g.component(CfdId(0)) < g.component(CfdId(1)));
    }

    #[test]
    fn cycle_collapses_to_one_component() {
        let s = Schema::new("r", &["a", "b"]).unwrap();
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![fd(&s, "ab", "a", "b"), fd(&s, "ba", "b", "a")],
            &ValuePool::new(),
        )
        .unwrap();
        let g = DepGraph::build(&sigma);
        assert_eq!(g.component(CfdId(0)), g.component(CfdId(1)));
        assert_eq!(g.order().len(), 2);
    }

    #[test]
    fn independent_cfds_keep_id_order() {
        let s = Schema::new("r", &["a", "b", "c", "d"]).unwrap();
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![fd(&s, "ab", "a", "b"), fd(&s, "cd", "c", "d")],
            &ValuePool::new(),
        )
        .unwrap();
        let g = DepGraph::build(&sigma);
        assert_eq!(g.order().len(), 2);
        // no dependency: both CFDs appear exactly once, in any order
        assert!(g.order().contains(&CfdId(0)));
        assert!(g.order().contains(&CfdId(1)));
    }

    #[test]
    fn diamond_topology() {
        let s = Schema::new("r", &["a", "b", "c", "d"]).unwrap();
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![
                fd(&s, "ab", "a", "b"),
                fd(&s, "bc", "b", "c"),
                fd(&s, "bd", "b", "d"),
            ],
            &ValuePool::new(),
        )
        .unwrap();
        let g = DepGraph::build(&sigma);
        let pos = |i: u32| g.order().iter().position(|x| *x == CfdId(i)).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
    }

    #[test]
    fn empty_sigma() {
        let s = Schema::new("r", &["a"]).unwrap();
        let sigma = Sigma::normalize_in(s, vec![], &ValuePool::new()).unwrap();
        let g = DepGraph::build(&sigma);
        assert!(g.order().is_empty());
    }
}
