//! Link-sequence quality metrics: α, link histograms, window statistics and
//! the *degree* of a sequence (paper Definitions 2–3).
//!
//! Deep pipelining cares about α (the busiest link over the whole
//! sequence); shallow pipelining cares about *windows*: every stage of the
//! pipelined CC-cube communicates through the links of one length-`Q`
//! window of `D_e`, so the cost is governed by how many distinct links a
//! window contains and how many of its elements share the busiest link.

/// Histogram of link usage: `result[l]` = occurrences of link `l`.
/// Sized by `e` (which must exceed every link id in the sequence).
pub fn link_histogram(seq: &[usize], e: usize) -> Vec<usize> {
    let mut counts = vec![0usize; e];
    for &l in seq {
        assert!(l < e, "link {l} out of range for e={e}");
        counts[l] += 1;
    }
    counts
}

/// α: maximum number of repetitions of any one link.
pub fn alpha(seq: &[usize], e: usize) -> usize {
    link_histogram(seq, e).into_iter().max().unwrap_or(0)
}

/// The number of distinct links in each length-`q` window of `seq`, the
/// window starting at `i` at index `i`, by one O(len) sliding pass
/// (1 ≤ q ≤ seq.len()).
fn distinct_per_window(seq: &[usize], e: usize, q: usize) -> Vec<usize> {
    assert!(q >= 1 && q <= seq.len());
    let mut counts = vec![0usize; e];
    let mut distinct = 0;
    let mut out = Vec::with_capacity(seq.len() - q + 1);
    for (i, &l) in seq.iter().enumerate() {
        if counts[l] == 0 {
            distinct += 1;
        }
        counts[l] += 1;
        if i >= q {
            let gone = seq[i - q];
            counts[gone] -= 1;
            if counts[gone] == 0 {
                distinct -= 1;
            }
        }
        if i + 1 >= q {
            out.push(distinct);
        }
    }
    out
}

/// Fraction of length-`q` windows whose elements are pairwise distinct.
pub fn distinct_window_fraction(seq: &[usize], e: usize, q: usize) -> f64 {
    if q > seq.len() {
        return 0.0;
    }
    let distinct = distinct_per_window(seq, e, q);
    let all = distinct.len() as f64;
    let good = distinct.iter().filter(|&&d| d == q).count() as f64;
    good / all
}

/// The *degree* of a sequence (paper Definition 2): the `n` such that the
/// majority of length-`n` windows have all-distinct elements while the
/// majority of length-`n+1` windows do not. Returns 0 for degenerate
/// sequences (no `n ≥ 1` qualifies — cannot happen for nonempty sequences
/// since every length-1 window is distinct).
pub fn sequence_degree(seq: &[usize], e: usize) -> usize {
    let mut degree = 0;
    for n in 1..=seq.len().min(e) {
        if distinct_window_fraction(seq, e, n) > 0.5 {
            degree = n;
        } else {
            break;
        }
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br::br_sequence;
    use crate::d4::d4_sequence;
    use crate::pbr::pbr_sequence;

    #[test]
    fn histogram_and_alpha() {
        let seq = [0, 1, 0, 2, 0, 1, 0];
        assert_eq!(link_histogram(&seq, 3), vec![4, 2, 1]);
        assert_eq!(alpha(&seq, 3), 4); // BR e=3
        assert_eq!(alpha(&[0, 1, 0, 2, 1, 0, 1], 3), 3); // min-α e=3
        assert_eq!(alpha(&[], 3), 0);
    }

    #[test]
    fn window_stats_match_naive() {
        let seq = br_sequence(6);
        for q in [1, 2, 3, 5, 8, 13, 31, 63] {
            let fast = distinct_per_window(&seq, 6, q);
            assert_eq!(fast.len(), seq.len() - q + 1, "q={q}");
            for (i, w) in seq.windows(q).enumerate() {
                let mut counts = [0usize; 6];
                for &l in w {
                    counts[l] += 1;
                }
                let distinct = counts.iter().filter(|&&c| c > 0).count();
                assert_eq!(fast[i], distinct, "q={q} i={i}");
            }
        }
    }

    #[test]
    fn br_has_degree_2() {
        // Paper Definition 2: "DeBR has degree 2 for any e".
        for e in 3..=10 {
            assert_eq!(sequence_degree(&br_sequence(e), e), 2, "e={e}");
        }
    }

    #[test]
    fn d4_has_degree_4() {
        for e in 5..=12 {
            assert_eq!(sequence_degree(&d4_sequence(e), e), 4, "e={e}");
        }
    }

    #[test]
    fn pbr_windows_are_zero_heavy_like_br() {
        // §3.3: "the sequence Dep-BR … when considering small subsequences
        // of links, nearly half of the elements are equal". Its degree
        // should stay small (like BR) despite the balanced histogram.
        for e in 6..=10 {
            assert!(sequence_degree(&pbr_sequence(e), e) <= 3, "e={e}");
        }
    }

    #[test]
    fn imbalance_ordering() {
        // Imbalance α / ⌈len/e⌉ (1 = perfectly balanced link usage):
        // BR ≫ pBR ≥ 1; degree-4 sits in between.
        let e = 10;
        let imbalance = |seq: &[usize]| alpha(seq, e) as f64 / (seq.len() as f64 / e as f64).ceil();
        let br = imbalance(&br_sequence(e));
        let pbr = imbalance(&pbr_sequence(e));
        let d4 = imbalance(&d4_sequence(e));
        assert!(br > d4 && d4 > pbr, "br={br} d4={d4} pbr={pbr}");
        assert!(pbr >= 1.0);
    }

    #[test]
    fn distinct_fraction_boundaries() {
        let seq = [0, 1, 2, 3];
        assert_eq!(distinct_window_fraction(&seq, 4, 1), 1.0);
        assert_eq!(distinct_window_fraction(&seq, 4, 4), 1.0);
        assert_eq!(distinct_window_fraction(&seq, 4, 5), 0.0);
        let rep = [0, 0, 0];
        assert_eq!(distinct_window_fraction(&rep, 1, 2), 0.0);
    }

    #[test]
    fn degree_of_constant_sequence_is_one() {
        assert_eq!(sequence_degree(&[0, 0, 0, 0], 1), 1);
    }
}
