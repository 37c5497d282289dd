//! Lazy match iteration — a pull-based engine.
//!
//! [`crate::engine::Enumerator`] is push-based (visitor callbacks), which
//! is the fastest shape for counting, but many consumers want a standard
//! `Iterator` they can `take`, `filter`, or feed into channels without
//! inverting control. [`MatchIter`] reimplements the σ interpreter as an
//! explicit-stack state machine with identical semantics: same plan, same
//! candidate aliasing, same injectivity and symmetry constraints (checked
//! per candidate here; the recursive engine cuts id ranges instead), and
//! the exact same match order as the recursive engine (verified by tests).

use light_graph::{CsrGraph, VertexId, INVALID_VERTEX};
use light_order::exec_order::ExecOp;
use light_order::QueryPlan;
use light_setops::{intersect_many, IntersectStats, Intersector};

use crate::config::EngineConfig;

/// Where a pattern vertex's candidate set currently lives (mirror of the
/// recursive engine's aliasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandRef {
    Owned,
    AliasCand(u8),
    AliasNbr(VertexId),
}

/// One open MAT operation: its position in σ and the next candidate index
/// to try.
#[derive(Debug, Clone, Copy)]
struct MatFrame {
    sigma_idx: usize,
    next_cand: usize,
}

/// A pull-based subgraph-match iterator. Yields `φ` as a `Vec<VertexId>`
/// indexed by pattern vertex.
pub struct MatchIter<'a> {
    plan: &'a QueryPlan,
    g: &'a CsrGraph,
    isec: Intersector,
    symmetry: bool,
    bind_filter: Option<crate::config::BindFilter>,

    phi: Vec<VertexId>,
    cands: Vec<Vec<VertexId>>,
    cand_ref: Vec<CandRef>,
    scratch: Vec<VertexId>,
    stats: IntersectStats,

    /// Stack of open MAT frames; frames[0] is the root vertex loop.
    frames: Vec<MatFrame>,
    root_range: (VertexId, VertexId),
    started: bool,
    done: bool,
}

impl<'a> MatchIter<'a> {
    /// Iterate all matches of `plan` over `g`.
    pub fn new(plan: &'a QueryPlan, g: &'a CsrGraph, config: &EngineConfig) -> Self {
        Self::with_root_range(plan, g, config, 0, g.num_vertices() as VertexId)
    }

    /// Iterate matches whose root vertex (`π[1]`) lies in `[lo, hi)`.
    pub fn with_root_range(
        plan: &'a QueryPlan,
        g: &'a CsrGraph,
        config: &EngineConfig,
        lo: VertexId,
        hi: VertexId,
    ) -> Self {
        let n = plan.pattern().num_vertices();
        MatchIter {
            plan,
            g,
            isec: Intersector::with_delta(config.intersect, config.delta),
            symmetry: config.symmetry_breaking,
            bind_filter: config.bind_filter.clone(),
            phi: vec![INVALID_VERTEX; n],
            cands: vec![Vec::new(); n],
            cand_ref: vec![CandRef::Owned; n],
            scratch: Vec::new(),
            stats: IntersectStats::default(),
            frames: Vec::with_capacity(n),
            root_range: (lo, hi),
            started: false,
            done: false,
        }
    }

    /// Intersection statistics accumulated so far.
    pub fn stats(&self) -> &IntersectStats {
        &self.stats
    }

    #[inline]
    fn cand_slice(&self, mut u: u8) -> &[VertexId] {
        loop {
            match self.cand_ref[u as usize] {
                CandRef::Owned => return &self.cands[u as usize],
                CandRef::AliasCand(w) => u = w,
                CandRef::AliasNbr(v) => return self.g.neighbors(v),
            }
        }
    }

    /// Candidate list length for the MAT at σ[idx]; the root MAT draws from
    /// the root range instead of a candidate buffer.
    fn mat_len(&self, sigma_idx: usize) -> usize {
        if sigma_idx == 0 {
            (self.root_range.1 - self.root_range.0) as usize
        } else {
            let u = self.plan.sigma()[sigma_idx].vertex();
            self.cand_slice(u).len()
        }
    }

    fn mat_candidate(&self, sigma_idx: usize, i: usize) -> VertexId {
        if sigma_idx == 0 {
            self.root_range.0 + i as VertexId
        } else {
            let u = self.plan.sigma()[sigma_idx].vertex();
            self.cand_slice(u)[i]
        }
    }

    /// Check injectivity + symmetry constraints for binding `v` to the MAT
    /// vertex at σ[idx].
    fn binding_ok(&self, sigma_idx: usize, v: VertexId) -> bool {
        if self.phi.contains(&v) {
            return false;
        }
        let u = self.plan.sigma()[sigma_idx].vertex();
        if let Some(f) = &self.bind_filter {
            if !f(u, v) {
                return false;
            }
        }
        if !self.symmetry {
            return true;
        }
        let c = &self.plan.constraints()[u as usize];
        c.must_be_larger_than
            .iter()
            .all(|&w| self.phi[w as usize] == INVALID_VERTEX || self.phi[w as usize] < v)
            && c.must_be_smaller_than
                .iter()
                .all(|&w| self.phi[w as usize] == INVALID_VERTEX || v < self.phi[w as usize])
    }

    /// Execute COMP ops from σ[start] forward until the next MAT or the end
    /// of σ. Returns `Some(next_mat_or_end)` if all candidate sets are
    /// non-empty, `None` if some COMP produced an empty set.
    fn run_comps(&mut self, start: usize) -> Option<usize> {
        let sigma = self.plan.sigma();
        let mut i = start;
        while i < sigma.len() {
            match sigma[i] {
                ExecOp::Mat(_) => return Some(i),
                ExecOp::Comp(u) => {
                    self.do_comp(u);
                    if self.cand_slice(u).is_empty() {
                        return None;
                    }
                    i += 1;
                }
            }
        }
        Some(i)
    }

    fn do_comp(&mut self, u: u8) {
        let ops = &self.plan.operands()[u as usize];
        self.cand_ref[u as usize] = CandRef::Owned;
        if ops.num_operands() == 1 {
            let new_ref = if let Some(&w) = ops.k1.first() {
                CandRef::AliasNbr(self.phi[w as usize])
            } else {
                CandRef::AliasCand(ops.k2[0])
            };
            self.cand_ref[u as usize] = new_ref;
        } else {
            let mut out = std::mem::take(&mut self.cands[u as usize]);
            let mut scratch = std::mem::take(&mut self.scratch);
            let mut istats = self.stats;
            {
                let mut sets: Vec<&[VertexId]> = Vec::with_capacity(ops.num_operands());
                for &w in &ops.k1 {
                    sets.push(self.g.neighbors(self.phi[w as usize]));
                }
                for &w in &ops.k2 {
                    sets.push(self.cand_slice(w));
                }
                intersect_many(&self.isec, &sets, &mut out, &mut scratch, &mut istats);
            }
            self.stats = istats;
            self.scratch = scratch;
            self.cands[u as usize] = out;
        }
    }

    /// Advance the machine to the next match; `false` when exhausted.
    fn advance(&mut self) -> bool {
        let sigma_len = self.plan.sigma().len();
        if self.done {
            return false;
        }
        if !self.started {
            self.started = true;
            // Open the root frame (σ[0] is always MAT(π[1])).
            self.frames.push(MatFrame {
                sigma_idx: 0,
                next_cand: 0,
            });
        } else {
            // Resume: the previous match was emitted with all frames bound;
            // continue from the deepest frame.
        }

        'outer: loop {
            let Some(frame) = self.frames.last().copied() else {
                self.done = true;
                return false;
            };
            // Unbind this frame's vertex from any previous iteration.
            let u = self.plan.sigma()[frame.sigma_idx].vertex();
            self.phi[u as usize] = INVALID_VERTEX;

            let len = self.mat_len(frame.sigma_idx);
            let mut idx = frame.next_cand;
            while idx < len {
                let v = self.mat_candidate(frame.sigma_idx, idx);
                idx += 1;
                if !self.binding_ok(frame.sigma_idx, v) {
                    continue;
                }
                // Bind and remember where to resume.
                self.frames.last_mut().unwrap().next_cand = idx;
                self.phi[u as usize] = v;
                match self.run_comps(frame.sigma_idx + 1) {
                    None => {
                        // Dead end: try the next candidate of this frame.
                        self.phi[u as usize] = INVALID_VERTEX;
                        continue;
                    }
                    Some(next) if next == sigma_len => {
                        // All ops done: φ is a match.
                        return true;
                    }
                    Some(next_mat) => {
                        self.frames.push(MatFrame {
                            sigma_idx: next_mat,
                            next_cand: 0,
                        });
                        continue 'outer;
                    }
                }
            }
            // Frame exhausted: pop and resume the parent.
            self.frames.pop();
        }
    }
}

impl Iterator for MatchIter<'_> {
    type Item = Vec<VertexId>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.advance() {
            Some(self.phi.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visitor::CollectVisitor;
    use crate::{engine, EngineConfig};
    use light_graph::generators;
    use light_pattern::Query;

    fn collect_recursive(plan: &QueryPlan, g: &CsrGraph, cfg: &EngineConfig) -> Vec<Vec<VertexId>> {
        let mut v = CollectVisitor::default();
        engine::run_plan(plan, g, cfg, &mut v);
        v.into_matches()
    }

    #[test]
    fn iterator_matches_recursive_engine_exactly() {
        let g = generators::barabasi_albert(150, 4, 77);
        for q in [Query::Triangle, Query::P1, Query::P2, Query::P4, Query::P6] {
            let cfg = EngineConfig::light();
            let plan = cfg.plan(&q.pattern(), &g);
            let expect = collect_recursive(&plan, &g, &cfg);
            let got: Vec<_> = MatchIter::new(&plan, &g, &cfg).collect();
            assert_eq!(got, expect, "{} (order-sensitive comparison)", q.name());
        }
    }

    #[test]
    fn take_is_lazy() {
        // Pulling 3 matches from K50 must not enumerate the full
        // C(50,3) = 19600 triangles: the intersection count stays small.
        let g = generators::complete(50);
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&Query::Triangle.pattern(), &g);
        let mut it = MatchIter::new(&plan, &g, &cfg);
        let three: Vec<_> = it.by_ref().take(3).collect();
        assert_eq!(three.len(), 3);
        assert!(
            it.stats().total < 100,
            "did too much work: {}",
            it.stats().total
        );
    }

    #[test]
    fn root_range_partitions() {
        let g = generators::barabasi_albert(120, 3, 9);
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&Query::P2.pattern(), &g);
        let full = MatchIter::new(&plan, &g, &cfg).count();
        let n = g.num_vertices() as VertexId;
        let split: usize = [(0, n / 2), (n / 2, n)]
            .iter()
            .map(|&(lo, hi)| MatchIter::with_root_range(&plan, &g, &cfg, lo, hi).count())
            .sum();
        assert_eq!(split, full);
    }

    #[test]
    fn empty_result_iterators() {
        let g = generators::star(10); // triangle-free
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&Query::Triangle.pattern(), &g);
        assert_eq!(MatchIter::new(&plan, &g, &cfg).count(), 0);
    }

    #[test]
    fn all_variants_agree_via_iterator() {
        let g = generators::erdos_renyi(60, 150, 3);
        let q = Query::P2;
        let counts: Vec<usize> = crate::EngineVariant::ALL
            .iter()
            .map(|&v| {
                let cfg = EngineConfig::with_variant(v);
                let plan = cfg.plan(&q.pattern(), &g);
                MatchIter::new(&plan, &g, &cfg).count()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn iterator_is_fused_after_exhaustion() {
        let g = generators::complete(5);
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&Query::Triangle.pattern(), &g);
        let mut it = MatchIter::new(&plan, &g, &cfg);
        let all: Vec<_> = it.by_ref().collect();
        assert_eq!(all.len(), 10);
        assert!(it.next().is_none());
        assert!(it.next().is_none());
    }
}
