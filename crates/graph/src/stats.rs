//! Graph statistics used by the cardinality estimator (`light-order`) and by
//! dataset validation.
//!
//! The SEED-style expand-factor estimator needs cheap global statistics:
//! average degree, second moment of the degree distribution (how skewed the
//! graph is), and the global clustering coefficient (how likely an added
//! pattern edge is to close). [`compute_stats`] is `O(|V| + samples)` on
//! large graphs: the clustering coefficient is exact (`3·triangles /
//! wedges`, from [`count_triangles`]) up to [`EXACT_WEDGE_LIMIT`] wedges and
//! the closed fraction of [`WEDGE_SAMPLES`] fixed-seed uniform wedges above
//! it. Reporters that need exact numbers call [`count_triangles`] and
//! [`clustering_coefficient`] themselves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Graphs with at most this many wedges get an exact clustering
/// coefficient (one triangle count); larger ones are sampled.
pub const EXACT_WEDGE_LIMIT: u64 = 1 << 22;

/// Wedges sampled for the clustering coefficient above
/// [`EXACT_WEDGE_LIMIT`].
pub const WEDGE_SAMPLES: usize = 1 << 16;

/// Seed of the wedge sample, fixed so that statistics (and therefore
/// plans) are a function of the graph alone.
const WEDGE_SEED: u64 = 0x5eed_c105_ed00_0001;

/// Summary statistics of a data graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `N`.
    pub num_vertices: usize,
    /// Number of undirected edges `M`.
    pub num_edges: usize,
    /// Maximum degree `d_max`.
    pub max_degree: usize,
    /// Average degree `2M / N`.
    pub avg_degree: f64,
    /// Second moment of the degree distribution, `E[d^2]`.
    pub degree_second_moment: f64,
    /// Number of wedges (paths of length 2), `Σ_v C(d(v), 2)`.
    pub wedges: u64,
    /// Global clustering coefficient, the fraction of wedges that close:
    /// exact at most [`EXACT_WEDGE_LIMIT`] wedges, sampled above (0 if
    /// there are no wedges).
    pub clustering: f64,
}

/// Compute all statistics: one degree pass, then either an exact triangle
/// count (at most [`EXACT_WEDGE_LIMIT`] wedges) or a [`WEDGE_SAMPLES`]-wedge
/// sample for the clustering coefficient.
pub fn compute_stats(g: &CsrGraph) -> GraphStats {
    let n = g.num_vertices();
    let mut sum_d2 = 0.0f64;
    let mut wedges = 0u64;
    let mut max_degree = 0;
    for v in g.vertices() {
        let d = g.degree(v);
        max_degree = max_degree.max(d);
        sum_d2 += (d as u64 * d as u64) as f64;
        wedges += pairs(d);
    }
    let clustering = if wedges <= EXACT_WEDGE_LIMIT {
        clustering_coefficient(count_triangles(g), wedges)
    } else {
        sampled_clustering(g, wedges)
    };
    GraphStats {
        num_vertices: n,
        num_edges: g.num_edges(),
        max_degree,
        avg_degree: g.avg_degree(),
        degree_second_moment: if n == 0 { 0.0 } else { sum_d2 / n as f64 },
        wedges,
        clustering,
    }
}

/// Global clustering coefficient `3·triangles / wedges` (0 if no wedges).
pub fn clustering_coefficient(triangles: u64, wedges: u64) -> f64 {
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

/// Wedges centred on a vertex of degree `d`: `C(d, 2)`.
fn pairs(d: usize) -> u64 {
    let d = d as u64;
    d * d.saturating_sub(1) / 2
}

/// Closed fraction of [`WEDGE_SAMPLES`] wedges drawn uniformly (with
/// replacement) from all `wedges` of `g`. Wedges are numbered centre by
/// centre; the sample is a sorted list of wedge ranks, assigned to their
/// centres in one degree sweep, so no per-vertex array is built.
fn sampled_clustering(g: &CsrGraph, wedges: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(WEDGE_SEED);
    let mut ranks: Vec<u64> = (0..WEDGE_SAMPLES)
        .map(|_| rng.random_range(0..wedges))
        .collect();
    ranks.sort_unstable();
    let (mut next, mut first, mut closed) = (0, 0u64, 0u64);
    for v in g.vertices() {
        if next == ranks.len() {
            break;
        }
        let end = first + pairs(g.degree(v));
        let nv = g.neighbors(v);
        while next < ranks.len() && ranks[next] < end {
            let (i, j) = pair_at(ranks[next] - first);
            closed += g.contains_edge(nv[i], nv[j]) as u64;
            next += 1;
        }
        first = end;
    }
    closed as f64 / ranks.len() as f64
}

/// The `k`-th pair `(i, j)`, `i < j`, in the order `(0,1), (0,2), (1,2),
/// (0,3), …`, i.e. `k = j(j-1)/2 + i`.
fn pair_at(k: u64) -> (usize, usize) {
    let mut j = ((1.0 + (1.0 + 8.0 * k as f64).sqrt()) / 2.0) as u64;
    while j * (j - 1) / 2 > k {
        j -= 1;
    }
    while (j + 1) * j / 2 <= k {
        j += 1;
    }
    ((k - j * (j - 1) / 2) as usize, j as usize)
}

/// Exact triangle count by forward neighbor intersection: for each forward
/// edge `(u, v)`, `u < v`, merge the part of `N(u)` above `v` with the part
/// of `N(v)` above `v`. Every triangle `{a < b < c}` is counted exactly once,
/// at edge `(a, b)`.
pub fn count_triangles(g: &CsrGraph) -> u64 {
    let mut count = 0u64;
    for u in g.vertices() {
        let nu = g.neighbors(u);
        // Neighbors above u (forward edges).
        let fwd_u = &nu[nu.partition_point(|&x| x <= u)..];
        for (i, &v) in fwd_u.iter().enumerate() {
            let nv = g.neighbors(v);
            let sv = nv.partition_point(|&x| x <= v);
            count += sorted_intersection_count(&fwd_u[i + 1..], &nv[sv..]);
        }
    }
    count
}

/// Count common elements of two sorted, duplicate-free slices by merging.
fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
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

/// Histogram of degrees, `hist[d] = #vertices with degree d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.vertices() {
        hist[g.degree(v)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn triangles_in_complete_graph() {
        // K_n has C(n,3) triangles.
        for n in [3usize, 4, 5, 6, 8] {
            let g = generators::complete(n);
            let expect = (n * (n - 1) * (n - 2) / 6) as u64;
            assert_eq!(count_triangles(&g), expect, "K_{n}");
        }
    }

    #[test]
    fn triangles_in_triangle_free_graphs() {
        assert_eq!(count_triangles(&generators::cycle(8)), 0);
        assert_eq!(count_triangles(&generators::star(10)), 0);
        assert_eq!(count_triangles(&generators::grid(4, 4)), 0);
    }

    #[test]
    fn stats_on_k4() {
        let g = generators::complete(4);
        let s = compute_stats(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 6);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.wedges, 4 * 3); // each vertex: C(3,2)=3 wedges
        assert!((s.clustering - 1.0).abs() < 1e-9);
        assert!((s.degree_second_moment - 9.0).abs() < 1e-9);
    }

    #[test]
    fn pair_at_enumerates_pairs_in_order() {
        let mut k = 0;
        for j in 1..60 {
            for i in 0..j {
                assert_eq!(pair_at(k), (i, j), "k = {k}");
                k += 1;
            }
        }
        // Far past where the f64 square root could round the wrong way.
        let j = 3_000_000u64;
        assert_eq!(
            pair_at(j * (j - 1) / 2 - 1),
            (j as usize - 2, j as usize - 1)
        );
        assert_eq!(pair_at(j * (j - 1) / 2), (0, j as usize));
    }

    #[test]
    fn count_triangles_matches_brute_force() {
        let g = generators::barabasi_albert(400, 5, 3);
        let mut brute = 0u64;
        for (a, b) in g.edges() {
            for &c in g.neighbors(b) {
                if c > b && g.contains_edge(a, c) {
                    brute += 1;
                }
            }
        }
        assert_eq!(count_triangles(&g), brute);
    }

    #[test]
    fn sampled_clustering_is_close_and_deterministic() {
        // BA(50k, 4): ~5.2M wedges, above the exact limit.
        let g = generators::barabasi_albert(50_000, 4, 1);
        let s = compute_stats(&g);
        assert!(s.wedges > EXACT_WEDGE_LIMIT, "{} wedges", s.wedges);
        let exact = clustering_coefficient(count_triangles(&g), s.wedges);
        assert!(
            (s.clustering - exact).abs() <= 0.25 * exact,
            "sampled {} vs exact {exact}",
            s.clustering
        );
        assert_eq!(compute_stats(&g), s, "two calls, one answer");

        // The sample depends on the graph alone, not on its storage.
        let dir = std::env::temp_dir().join(format!("light_stats_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ba.v2");
        crate::io::save_snapshot_v2(&g, &path).unwrap();
        for prefer_mmap in [true, false] {
            let (h, _) = crate::io::open_any(&path, prefer_mmap).unwrap();
            assert_eq!(compute_stats(&h), s, "prefer_mmap = {prefer_mmap}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degree_histogram_star() {
        let g = generators::star(5);
        let h = degree_histogram(&g);
        assert_eq!(h[1], 5);
        assert_eq!(h[5], 1);
    }

    #[test]
    fn clustering_zero_without_wedges() {
        let g = crate::builder::from_edges([(0, 1)]);
        let s = compute_stats(&g);
        assert_eq!(s.wedges, 0);
        assert_eq!(s.clustering, 0.0);
    }
}
