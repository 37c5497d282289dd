//! Execution-order generation (Algorithm 2, lines 18–29).
//!
//! Given an enumeration order `π`, the execution order `σ` is a sequence of
//! operations: `COMP(u)` computes `C_φ(u)`; `MAT(u)` binds `u` to each
//! candidate in turn. Lazy materialization falls out of the ordering rule:
//! `MAT(u')` is emitted only right before the first `COMP(u)` that has `u'`
//! as a backward neighbor — vertices nobody depends on are materialized at
//! the very end (lines 27–28), where they amount to a Cartesian product over
//! cached candidate sets (Example IV.1).

use light_pattern::{PatternGraph, PatternVertex};

/// One step of the execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOp {
    /// Compute the candidate set of the vertex.
    Comp(PatternVertex),
    /// Materialize the vertex: extend φ with each candidate.
    Mat(PatternVertex),
}

impl ExecOp {
    /// The pattern vertex this operation applies to.
    pub fn vertex(self) -> PatternVertex {
        match self {
            ExecOp::Comp(u) | ExecOp::Mat(u) => u,
        }
    }

    /// Whether this is a MAT (materialization) operation.
    pub fn is_mat(self) -> bool {
        matches!(self, ExecOp::Mat(_))
    }
}

/// An execution order σ together with the enumeration order π it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionOrder {
    pi: Vec<PatternVertex>,
    sigma: Vec<ExecOp>,
}

impl ExecutionOrder {
    /// Algorithm 2, `GenerateExecutionOrder(π, P)`.
    ///
    /// Panics if `π` is not a connected enumeration order of `P` (planning
    /// bugs, not data errors).
    pub fn generate(p: &PatternGraph, pi: &[PatternVertex]) -> Self {
        assert!(
            p.is_connected_order(pi),
            "π must be a connected enumeration order"
        );
        let n = p.num_vertices();
        let mut visited = vec![false; n];
        let mut sigma = Vec::with_capacity(2 * n - 1);

        // π[1] (index 0) has candidate set V(G); only later vertices get a
        // COMP. MAT of a backward neighbor is emitted the first time some
        // COMP needs it.
        for i in 1..n {
            let u = pi[i];
            // Backward neighbors in π order (lines 22-25).
            for &w in &pi[..i] {
                if p.has_edge(u, w) && !visited[w as usize] {
                    visited[w as usize] = true;
                    sigma.push(ExecOp::Mat(w));
                }
            }
            sigma.push(ExecOp::Comp(u));
        }
        // Remaining vertices materialize at the end (lines 27-28).
        for &u in pi {
            if !visited[u as usize] {
                visited[u as usize] = true;
                sigma.push(ExecOp::Mat(u));
            }
        }
        ExecutionOrder {
            pi: pi.to_vec(),
            sigma,
        }
    }

    /// The eager execution order used by SE: `MAT(u)` immediately after
    /// `COMP(u)` (and `MAT(π[1])` first). Running the LIGHT executor over
    /// this σ reproduces Algorithm 1 exactly.
    pub fn eager(p: &PatternGraph, pi: &[PatternVertex]) -> Self {
        assert!(
            p.is_connected_order(pi),
            "π must be a connected enumeration order"
        );
        let mut sigma = Vec::with_capacity(2 * pi.len() - 1);
        sigma.push(ExecOp::Mat(pi[0]));
        for &u in &pi[1..] {
            sigma.push(ExecOp::Comp(u));
            sigma.push(ExecOp::Mat(u));
        }
        ExecutionOrder {
            pi: pi.to_vec(),
            sigma,
        }
    }

    /// The enumeration order this execution order was derived from.
    pub fn pi(&self) -> &[PatternVertex] {
        &self.pi
    }

    /// The operation sequence.
    pub fn sigma(&self) -> &[ExecOp] {
        &self.sigma
    }

    /// σ positions of each vertex's MAT and of its COMP, indexed by pattern
    /// vertex (`usize::MAX` for the root's absent COMP). Vertices are those
    /// of π.
    pub fn slots(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.pi.len();
        let mut mat = vec![usize::MAX; n];
        let mut comp = vec![usize::MAX; n];
        for (i, op) in self.sigma.iter().enumerate() {
            match *op {
                ExecOp::Mat(u) => mat[u as usize] = i,
                ExecOp::Comp(u) => comp[u as usize] = i,
            }
        }
        (mat, comp)
    }

    /// The materialization order π′: pattern vertices in the order of their
    /// MAT operations (used by the cost model's materialization term, §VI).
    pub fn mat_order(&self) -> Vec<PatternVertex> {
        self.sigma
            .iter()
            .filter(|op| op.is_mat())
            .map(|op| op.vertex())
            .collect()
    }

    /// Validate the structural invariants of σ:
    /// * every vertex has exactly one MAT; every vertex except `π[1]` has
    ///   exactly one COMP, positioned before its MAT;
    /// * every backward neighbor of `u` is materialized before `COMP(u)`.
    pub fn validate(&self, p: &PatternGraph) -> Result<(), String> {
        let n = p.num_vertices();
        let mut mat_pos = vec![None; n];
        let mut comp_pos = vec![None; n];
        for (idx, op) in self.sigma.iter().enumerate() {
            let v = op.vertex() as usize;
            let slot = if op.is_mat() {
                &mut mat_pos[v]
            } else {
                &mut comp_pos[v]
            };
            if slot.is_some() {
                return Err(format!("duplicate op for vertex {v}"));
            }
            *slot = Some(idx);
        }
        for (v, mp) in mat_pos.iter().enumerate() {
            if mp.is_none() {
                return Err(format!("vertex {v} never materialized"));
            }
        }
        if comp_pos[self.pi[0] as usize].is_some() {
            return Err("first vertex must not have a COMP".into());
        }
        for (i, &u) in self.pi.iter().enumerate().skip(1) {
            let cp = comp_pos[u as usize].ok_or(format!("vertex {u} has no COMP"))?;
            if mat_pos[u as usize].unwrap() < cp {
                return Err(format!("vertex {u} materialized before its COMP"));
            }
            for &w in &self.pi[..i] {
                if p.has_edge(u, w) && mat_pos[w as usize].unwrap() > cp {
                    return Err(format!(
                        "backward neighbor {w} of {u} not materialized before COMP"
                    ));
                }
            }
        }
        // COMP operations must respect π order (LIGHT computes candidate
        // sets in π order so that K2 operands are available).
        let comps: Vec<PatternVertex> = self
            .sigma
            .iter()
            .filter(|op| !op.is_mat())
            .map(|op| op.vertex())
            .collect();
        if comps != self.pi[1..] {
            return Err("COMP operations out of π order".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_pattern::Query;

    #[test]
    fn diamond_matches_example_iv1() {
        // Example IV.1: P = diamond, π = (u0, u2, u1, u3) gives σ =
        // (MAT u0, COMP u2, MAT u2, COMP u1, COMP u3, MAT u1, MAT u3).
        let p = Query::P2.pattern();
        let eo = ExecutionOrder::generate(&p, &[0, 2, 1, 3]);
        assert_eq!(
            eo.sigma(),
            &[
                ExecOp::Mat(0),
                ExecOp::Comp(2),
                ExecOp::Mat(2),
                ExecOp::Comp(1),
                ExecOp::Comp(3),
                ExecOp::Mat(1),
                ExecOp::Mat(3),
            ]
        );
        eo.validate(&p).unwrap();
        assert_eq!(eo.mat_order(), vec![0, 2, 1, 3]);
    }

    #[test]
    fn eager_order_is_se() {
        let p = Query::P2.pattern();
        let eo = ExecutionOrder::eager(&p, &[0, 2, 1, 3]);
        assert_eq!(
            eo.sigma(),
            &[
                ExecOp::Mat(0),
                ExecOp::Comp(2),
                ExecOp::Mat(2),
                ExecOp::Comp(1),
                ExecOp::Mat(1),
                ExecOp::Comp(3),
                ExecOp::Mat(3),
            ]
        );
        eo.validate(&p).unwrap();
    }

    #[test]
    fn all_catalog_orders_validate() {
        for q in Query::ALL {
            let p = q.pattern();
            // Natural order 0..n is connected for all catalog patterns.
            let pi: Vec<u8> = (0..p.num_vertices() as u8).collect();
            if !p.is_connected_order(&pi) {
                continue;
            }
            let lazy = ExecutionOrder::generate(&p, &pi);
            lazy.validate(&p).unwrap();
            let eager = ExecutionOrder::eager(&p, &pi);
            eager.validate(&p).unwrap();
            assert_eq!(lazy.sigma().len(), 2 * p.num_vertices() - 1);
        }
    }

    #[test]
    fn clique_has_no_laziness() {
        // In a clique every vertex is a backward neighbor of the next, so
        // lazy σ degenerates to the eager σ.
        let p = Query::P3.pattern();
        let pi = [0, 1, 2, 3];
        assert_eq!(
            ExecutionOrder::generate(&p, &pi).sigma(),
            ExecutionOrder::eager(&p, &pi).sigma()
        );
    }

    #[test]
    fn star_defers_all_leaves() {
        // Star pattern: center 0, leaves 1..3; π = (0, 1, 2, 3).
        // Leaves never anchor anything -> all MATs deferred to the end.
        let p = light_pattern::PatternGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let eo = ExecutionOrder::generate(&p, &[0, 1, 2, 3]);
        assert_eq!(
            eo.sigma(),
            &[
                ExecOp::Mat(0),
                ExecOp::Comp(1),
                ExecOp::Comp(2),
                ExecOp::Comp(3),
                ExecOp::Mat(1),
                ExecOp::Mat(2),
                ExecOp::Mat(3),
            ]
        );
        eo.validate(&p).unwrap();
    }

    #[test]
    #[should_panic(expected = "connected enumeration order")]
    fn rejects_disconnected_order() {
        let p = light_pattern::PatternGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        ExecutionOrder::generate(&p, &[0, 3, 1, 2]);
    }
}
