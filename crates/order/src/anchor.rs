//! Anchor and free vertices (Definition IV.1).
//!
//! For a pattern vertex `u`, among the vertices positioned before `u` in
//! `π`, the **anchors** `A(u)` are those whose MAT precedes `COMP(u)` in σ
//! (they are bound to concrete data vertices when `C_φ(u)` is computed); the
//! **free** vertices `F(u)` are the rest (they have candidate sets but no
//! binding yet). Proposition IV.1: `A(u)` is a connected vertex cover of the
//! partial pattern `P_i^π`, which is what makes `|Φ_u|` in LIGHT at most
//! `|R(P[A(u)])|` instead of `|R(P_i^π)|`.

use light_pattern::PatternGraph;

use crate::exec_order::ExecutionOrder;

/// Anchor/free masks for every pattern vertex under a given (π, σ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorInfo {
    /// `anchors[u]` = bitmask of `A^π(u)`.
    pub anchors: Vec<u16>,
    /// `free[u]` = bitmask of `F^π(u)`.
    pub free: Vec<u16>,
}

/// Compute anchor and free vertex masks from an execution order.
pub fn anchor_info(p: &PatternGraph, eo: &ExecutionOrder) -> AnchorInfo {
    let n = p.num_vertices();
    let mut anchors = vec![0u16; n];
    let mut free = vec![0u16; n];

    let (mat_pos, comp_pos) = eo.slots();

    let pi = eo.pi();
    for (i, &u) in pi.iter().enumerate().skip(1) {
        let cp = comp_pos[u as usize];
        for &w in &pi[..i] {
            if mat_pos[w as usize] < cp {
                anchors[u as usize] |= 1 << w;
            } else {
                free[u as usize] |= 1 << w;
            }
        }
    }
    AnchorInfo { anchors, free }
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_pattern::Query;

    #[test]
    fn diamond_example_iv2() {
        // Example IV.2: π = (u0, u2, u1, u3); A(u3) = {u0, u2}, F(u3) = {u1}.
        let p = Query::P2.pattern();
        let eo = ExecutionOrder::generate(&p, &[0, 2, 1, 3]);
        let ai = anchor_info(&p, &eo);
        assert_eq!(ai.anchors[3], 0b0101);
        assert_eq!(ai.free[3], 0b0010);
        // u1: anchors {u0, u2}, free empty.
        assert_eq!(ai.anchors[1], 0b0101);
        assert_eq!(ai.free[1], 0);
        // u2: anchors {u0}.
        assert_eq!(ai.anchors[2], 0b0001);
    }

    #[test]
    fn eager_order_has_no_free_vertices() {
        for q in Query::ALL {
            let p = q.pattern();
            let pi: Vec<u8> = (0..p.num_vertices() as u8).collect();
            if !p.is_connected_order(&pi) {
                continue;
            }
            let eo = ExecutionOrder::eager(&p, &pi);
            let ai = anchor_info(&p, &eo);
            for u in 0..p.num_vertices() {
                assert_eq!(ai.free[u], 0, "{} vertex {u}", q.name());
            }
        }
    }

    #[test]
    fn proposition_iv1_holds_on_catalog() {
        // A(u) must be a vertex cover of P_i^π and induce a connected
        // subgraph, for every pattern and connected π.
        for q in Query::ALL {
            let p = q.pattern();
            let pi: Vec<u8> = (0..p.num_vertices() as u8).collect();
            if !p.is_connected_order(&pi) {
                continue;
            }
            let eo = ExecutionOrder::generate(&p, &pi);
            let ai = anchor_info(&p, &eo);
            for (i, &u) in pi.iter().enumerate().skip(1) {
                let partial: u16 = pi[..i].iter().fold(0, |m, &w| m | (1 << w));
                let a = ai.anchors[u as usize];
                assert!(
                    p.is_vertex_cover_of_induced(a, partial),
                    "{}: A({u}) not a vertex cover of P_{i}",
                    q.name()
                );
                assert!(
                    p.is_connected_induced(a),
                    "{}: A({u}) not connected",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn anchors_and_free_partition_predecessors() {
        let p = Query::P5.pattern();
        let pi: Vec<u8> = (0..6).collect();
        let eo = ExecutionOrder::generate(&p, &pi);
        let ai = anchor_info(&p, &eo);
        for (i, &u) in pi.iter().enumerate().skip(1) {
            let before: u16 = pi[..i].iter().fold(0, |m, &w| m | (1 << w));
            assert_eq!(ai.anchors[u as usize] | ai.free[u as usize], before);
            assert_eq!(ai.anchors[u as usize] & ai.free[u as usize], 0);
        }
    }
}
