//! Scalar reference counters, written independently of the engine.
//!
//! `triangles` is the floor the engine is measured against: a plain
//! oriented merge loop with no SIMD, no planning and no scheduler. Both
//! counters also check the engine's answers. They take the adjacency as a
//! closure so they run on a `CsrGraph` and on the churn workload's shadow
//! adjacency alike. Neighbour lists must be sorted and duplicate-free.

/// Triangles: for every edge `u < v`, merge the parts of `N(u)` and `N(v)`
/// above `v`, so each triangle `a < b < c` is counted once, at `(a, b)`.
pub fn triangles<'g>(n: usize, adj: impl Fn(u32) -> &'g [u32]) -> u64 {
    let mut count = 0;
    for u in 0..n as u32 {
        let nu = adj(u);
        let up = &nu[nu.partition_point(|&x| x <= u)..];
        for &v in up {
            let nv = adj(v);
            count += common(up, &nv[nv.partition_point(|&x| x <= v)..]);
        }
    }
    count
}

/// Diamonds (pattern P2, a 4-cycle with one chord): each diamond has one
/// chord `uv` and two common neighbours of `u` and `v`, so the count is
/// the sum over edges of `C(|N(u) ∩ N(v)|, 2)`.
pub fn diamonds<'g>(n: usize, adj: impl Fn(u32) -> &'g [u32]) -> u64 {
    let mut count = 0;
    for u in 0..n as u32 {
        let nu = adj(u);
        for &v in &nu[nu.partition_point(|&x| x <= u)..] {
            let c = common(nu, adj(v));
            count += c * c.saturating_sub(1) / 2;
        }
    }
    count
}

/// Size of the intersection of two sorted, duplicate-free lists.
pub fn common(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use light::core::{run_query, EngineConfig};
    use light::graph::{generators, stats::count_triangles, CsrGraph};
    use light::pattern::Query;

    fn graphs() -> Vec<CsrGraph> {
        vec![
            generators::barabasi_albert(400, 3, 1),
            generators::barabasi_albert(300, 6, 2),
            generators::erdos_renyi(200, 1500, 3),
            generators::complete(7),
            generators::grid(6, 7),
        ]
    }

    #[test]
    fn floor_matches_count_triangles() {
        for g in graphs() {
            let floor = triangles(g.num_vertices(), |v| g.neighbors(v));
            assert_eq!(floor, count_triangles(&g));
        }
        let k7 = generators::complete(7);
        assert_eq!(triangles(7, |v| k7.neighbors(v)), 35);
    }

    #[test]
    fn diamonds_match_engine_p2() {
        for g in graphs() {
            let engine = run_query(&Query::P2.pattern(), &g, &EngineConfig::light()).matches;
            assert_eq!(diamonds(g.num_vertices(), |v| g.neighbors(v)), engine);
        }
    }
}
