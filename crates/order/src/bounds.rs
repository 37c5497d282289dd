//! Symmetry-breaking slice bounds: the id range the partial order allows at
//! each COMP and MAT of σ.
//!
//! The partial order (§II-A) keeps a match only if `φ(a) < φ(b)` for every
//! pair `(a, b)`; on the degree-ordered data graph that is an integer
//! compare. Once some constrained vertices are bound, the ids a later
//! vertex can take form one contiguous range of every sorted candidate
//! list, so the engine can cut each list with two binary searches instead
//! of intersecting whole lists and filtering afterwards.
//!
//! * **MAT bounds** of `u`: every constraint endpoint `w` of `u` whose
//!   `MAT(w)` precedes `MAT(u)`. They replace the per-candidate constraint
//!   check: `MAT(u)` loops only over `(max φ(lower), min φ(upper))`.
//! * **COMP bounds** of `u` (only for COMPs that really intersect — a
//!   single-operand COMP stays an alias): the vertices `w` materialized
//!   before `COMP(u)` that the transitive closure of the partial order puts
//!   below (or above) `u` *and* every vertex whose candidates derive from
//!   `C(u)` — a vertex reading `C(u)` as a K2 operand, directly, through an
//!   alias, or through another reader's set. A cut `C(u)` then loses only
//!   ids that no reader could bind in a reported match.
//!
//! A cut set depends on φ of its bound vertices, which neither the
//! auxiliary cache key (one data vertex) nor the shared store key (the
//! operand tuple) covers, so bounded COMPs take part in neither (see
//! [`crate::auxplan`]).

use std::ops::Range;

use light_graph::{VertexId, INVALID_VERTEX};
use light_pattern::small_graph::bits;
use light_pattern::{PartialOrder, PatternGraph};

use crate::exec_order::ExecutionOrder;
use crate::setcover::Operands;

/// Bound vertices of one COMP or MAT, as pattern-vertex masks: the id kept
/// must exceed `φ(w)` for every `w` in `lower` and stay below `φ(w)` for
/// every `w` in `upper`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceBounds {
    /// Vertices whose image every kept id must exceed.
    pub lower: u16,
    /// Vertices whose image every kept id must stay below.
    pub upper: u16,
}

impl SliceBounds {
    /// No bounds: the whole list is kept.
    pub const NONE: SliceBounds = SliceBounds { lower: 0, upper: 0 };

    /// Whether neither side has a bound vertex.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.lower | self.upper == 0
    }

    /// The half-open id range `[start, end)` allowed under `phi`. Every
    /// bound vertex must already be mapped.
    #[inline]
    pub fn id_range(self, phi: &[VertexId]) -> (VertexId, VertexId) {
        let mut start = 0;
        for w in bits(self.lower) {
            debug_assert_ne!(phi[w as usize], INVALID_VERTEX);
            start = start.max(phi[w as usize] + 1);
        }
        let mut end = INVALID_VERTEX;
        for w in bits(self.upper) {
            debug_assert_ne!(phi[w as usize], INVALID_VERTEX);
            end = end.min(phi[w as usize]);
        }
        (start, end)
    }
}

/// Positions of the ids of the sorted list `s` that lie in `[start, end)`.
/// An open side (`0` or [`INVALID_VERTEX`]) costs no search.
#[inline]
pub fn clip(s: &[VertexId], (start, end): (VertexId, VertexId)) -> Range<usize> {
    let a = if start == 0 {
        0
    } else {
        s.partition_point(|&x| x < start)
    };
    let b = if end == INVALID_VERTEX {
        s.len()
    } else {
        a + s[a..].partition_point(|&x| x < end)
    };
    a..b
}

/// `less[a]`: the vertices `b` with `a < b` in the transitive closure of
/// the partial order.
fn closure(po: &PartialOrder, n: usize) -> Vec<u16> {
    let mut less = vec![0u16; n];
    for &(a, b) in po.pairs() {
        less[a as usize] |= 1 << b;
    }
    for k in 0..n {
        for a in 0..n {
            if less[a] & (1 << k) != 0 {
                less[a] |= less[k];
            }
        }
    }
    less
}

/// COMP bounds per pattern vertex (see the module docs). Empty for the
/// root, for single-operand COMPs and under an empty partial order.
pub fn comp_bounds(
    p: &PatternGraph,
    exec: &ExecutionOrder,
    operands: &[Operands],
    po: &PartialOrder,
) -> Vec<SliceBounds> {
    let n = p.num_vertices();
    let mut out = vec![SliceBounds::NONE; n];
    if po.is_empty() {
        return out;
    }
    let less = closure(po, n);
    let (mat_slot, comp_slot) = exec.slots();
    // read_by[y]: the vertices whose COMP reads C(y) as a K2 operand.
    let mut read_by = vec![0u16; n];
    for (x, ops) in operands.iter().enumerate() {
        for &y in &ops.k2 {
            read_by[y as usize] |= 1 << x;
        }
    }
    for u in p.vertices() {
        if operands[u as usize].num_operands() < 2 {
            continue;
        }
        // Every vertex whose candidates derive from C(u), u included.
        let mut readers = 1u16 << u;
        loop {
            let next = bits(readers).fold(readers, |m, x| m | read_by[x as usize]);
            if next == readers {
                break;
            }
            readers = next;
        }
        let c = comp_slot[u as usize];
        let mut lower = 0u16;
        let mut upper = 0u16;
        for w in p.vertices().filter(|&w| mat_slot[w as usize] < c) {
            if bits(readers).all(|x| less[w as usize] & (1 << x) != 0) {
                lower |= 1 << w;
            }
            if bits(readers).all(|x| less[x as usize] & (1 << w) != 0) {
                upper |= 1 << w;
            }
        }
        out[u as usize] = SliceBounds { lower, upper };
    }
    out
}

/// MAT bounds per pattern vertex: the constraint endpoints already bound
/// when `MAT(u)` runs.
pub fn mat_bounds(p: &PatternGraph, exec: &ExecutionOrder, po: &PartialOrder) -> Vec<SliceBounds> {
    let (mat_slot, _) = exec.slots();
    let mut out = vec![SliceBounds::NONE; p.num_vertices()];
    for &(a, b) in po.pairs() {
        let (a, b) = (a as usize, b as usize);
        if mat_slot[a] < mat_slot[b] {
            out[b].lower |= 1 << a;
        } else {
            out[a].upper |= 1 << b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setcover::generate_operands;
    use light_pattern::Query;

    #[test]
    fn clip_keeps_the_open_interval() {
        let s = [1, 3, 5, 7, 9];
        assert_eq!(clip(&s, (0, INVALID_VERTEX)), 0..5);
        assert_eq!(clip(&s, (4, 9)), 2..4);
        assert_eq!(clip(&s, (6, 6)), 3..3);
        // An empty range (start past end) yields an empty, in-bounds slice.
        assert_eq!(clip(&s, (8, 2)), 4..4);
        assert_eq!(clip(&[], (1, 2)), 0..0);
    }

    #[test]
    fn id_range_takes_the_tightest_bound() {
        let b = SliceBounds {
            lower: 0b011,
            upper: 0b100,
        };
        assert_eq!(b.id_range(&[4, 9, 20, INVALID_VERTEX]), (10, 20));
        assert_eq!(SliceBounds::NONE.id_range(&[]), (0, INVALID_VERTEX));
    }

    #[test]
    fn closure_is_transitive() {
        let po = PartialOrder::from_pairs(vec![(0, 1), (1, 2)]);
        let less = closure(&po, 3);
        assert_eq!(less, vec![0b110, 0b100, 0]);
    }

    #[test]
    fn triangle_bounds() {
        let p = Query::Triangle.pattern();
        let pi = [0u8, 1, 2];
        let exec = ExecutionOrder::generate(&p, &pi);
        let ops = generate_operands(&p, &pi);
        let po = Query::Triangle.partial_order();
        let comp = comp_bounds(&p, &exec, &ops, &po);
        // C(u1) is an alias of N(φ(u0)); C(u2) is cut above φ(u0), φ(u1).
        assert_eq!(comp[1], SliceBounds::NONE);
        assert_eq!(comp[2].lower, 0b011);
        assert_eq!(comp[2].upper, 0);
        let mat = mat_bounds(&p, &exec, &po);
        assert_eq!(mat[0], SliceBounds::NONE);
        assert_eq!(mat[1].lower, 0b001);
        assert_eq!(mat[2].lower, 0b011);
        // Without a partial order there is nothing to cut.
        let none = PartialOrder::none();
        assert!(comp_bounds(&p, &exec, &ops, &none)
            .iter()
            .all(|b| b.is_empty()));
        assert!(mat_bounds(&p, &exec, &none).iter().all(|b| b.is_empty()));
    }

    #[test]
    fn later_bound_smaller_vertex_is_an_upper_bound() {
        // Triangle bound in the order u2, u1, u0 under 0 < 1 < 2: every
        // bound vertex sits above the one being computed.
        let p = Query::Triangle.pattern();
        let pi = [2u8, 1, 0];
        let exec = ExecutionOrder::generate(&p, &pi);
        let ops = generate_operands(&p, &pi);
        let po = Query::Triangle.partial_order();
        let comp = comp_bounds(&p, &exec, &ops, &po);
        assert_eq!(comp[0].lower, 0);
        assert_eq!(comp[0].upper, 0b110);
        let mat = mat_bounds(&p, &exec, &po);
        assert_eq!(mat[1].upper, 0b100);
        assert_eq!(mat[0].upper, 0b110);
    }
}
