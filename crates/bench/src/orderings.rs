//! The orderings themselves: Table 1, Figures 1 and 3, the minimum-α
//! sequences of §3.1 and a dump of every family's link sequences.

use crate::Report;
use mph_core::{
    alpha, alpha_lower_bound, d4_sequence, e_sequence, pbr_sequence, pbr_sequence_with,
    pbr_transformations, published_min_alpha_sequence, OrderingFamily, PbrConvention,
};
use mph_hypercube::{
    is_link_sequence_hamiltonian, link_sequence_to_path, search_hamiltonian_with_budget,
    validate_e_sequence,
};

const PAPER_ALPHA: [(usize, usize); 8] =
    [(7, 23), (8, 43), (9, 67), (10, 131), (11, 289), (12, 577), (13, 776), (14, 1543)];

/// **Table 1**: α of the permuted-BR sequences for `e ∈ [7, 14]` against
/// the lower bound `⌈(2^e − 1)/e⌉` and the paper's published values, then
/// how close each generalization convention comes to those values. Ours
/// sit one above the paper's wherever a convention could not absorb the
/// difference — at e = 9 (68 against 67, bound 57) none can — which the
/// note closing the tracked `paper/table1/stdout.txt` explains.
pub fn table1(_: &[String]) -> Report {
    let mut r = Report::default();
    r.banner("Table 1 — α of the permuted-BR ordering vs lower bound");
    say!(r, "  e   α (ours)   α (paper)  lower bound    ours/bound    paper/bound");
    let mut rows = Vec::new();
    for &(e, paper) in &PAPER_ALPHA {
        let ours = alpha(&pbr_sequence_with(e, PbrConvention::DEFAULT), e);
        let lb = alpha_lower_bound(e);
        let (ours_ratio, paper_ratio) = (ours as f64 / lb as f64, paper as f64 / lb as f64);
        say!(r, "{e:>3} {ours:>10} {paper:>11} {lb:>12} {ours_ratio:>13.2} {paper_ratio:>14.2}");
        rows.push(format!("{e},{ours},{paper},{lb},{ours_ratio:.4},{paper_ratio:.4}"));
    }
    r.csv("table1.csv", "e,alpha_ours,alpha_paper,lower_bound,ratio_ours,ratio_paper", &rows);

    r.banner("generalization conventions (e−1 not a power of two)");
    for conv in PbrConvention::ALL {
        let got = PAPER_ALPHA.map(|(e, paper)| (alpha(&pbr_sequence_with(e, conv), e), paper));
        let exact = got.iter().filter(|(g, p)| g == p).count();
        let within_one = got.iter().filter(|(g, p)| g.abs_diff(*p) <= 1).count();
        say!(
            r,
            "  span={:5} count={:5}: exact {exact}/8, within ±1 {within_one}/8",
            if conv.ceil_span { "ceil" } else { "floor" },
            if conv.ceil_count { "ceil" } else { "floor" },
        );
    }
    say!(
        r,
        "\nNote: the ±1 residue persists at e = 9 where e−1 = 2^3 leaves no convention\n\
         freedom, while the generator reproduces the paper's worked D5 example and its\n\
         Figure-3 transposition tables exactly — Table 1 appears to be derived from the\n\
         appendix's closed-form bookkeeping rather than measured on generated sequences."
    );
    r
}

/// **Figure 1** as text: the structure of the degree-4 path
/// `D_{e+1}^D4 = <E_{e-1}, e, D_e^D4, e, E_{e-1}>` and the Lemma-1
/// invariant (the walk's endpoints are dimension-1 neighbors).
pub fn figure1_path(_: &[String]) -> Report {
    let mut r = Report::default();
    r.banner("Figure 1 — structure of D_{e+1}^D4 (degree-4 ordering path)");
    for e in 4..=8usize {
        let seq = d4_sequence(e);
        let path = link_sequence_to_path(&seq, 0);
        let (first, last) = (path[0], path[path.len() - 1]);
        // Subcube occupancy: which half (bit e−1) each visited node is in.
        let crossings = seq.iter().filter(|&&l| l == e - 1).count();
        say!(
            r,
            "e={e}: |D_e^D4| = {:5}; start {first:>4b}ᵇ → end {last:>4b}ᵇ; \
             start⊕end = {:#b} (dim-1 neighbors: {}); dim-{} crossings: {crossings}",
            seq.len(),
            first ^ last,
            first ^ last == 0b10,
            e - 1
        );
    }
    say!(r);
    say!(r, "Recursive decomposition for e = 5 (paper's <E_{{e-1}}, 1, E_{{e-1}}> form):");
    let (e3, e4, d4, d5) = (e_sequence(3), e_sequence(4), d4_sequence(4), d4_sequence(5));
    let digits = |s: &[usize]| s.iter().map(|x| x.to_string()).collect::<String>();
    say!(r, "  E_4      = {}", digits(&e4));
    say!(r, "  D_5^D4   = {}", digits(&d5));
    say!(r, "           = <E_4, 1, E_4>");
    // The inner rewrite of the Lemma-1 proof: <E_{e-1}, e, E_{e-1}, 1, …>
    // = <E_{e-2}, e-1, D_{e-1}^D4, e-1, E_{e-2}> at the (e+1) level.
    say!(r, "  E_4      = <E_3, 4, E_3> with E_3 = {}", digits(&e3));
    say!(r, "  D_5^D4   = <E_3, 4, D_4^D4, 4, E_3> (Lemma-1 rewriting), D_4^D4 = {}", digits(&d4));
    let rewritten = [&e3[..], &[4], &d4[..], &[4], &e3[..]].concat();
    assert_eq!(rewritten, d5, "Lemma-1 decomposition must reproduce D_5^D4");
    say!(r, "  (rewriting verified: both sides identical)");
    r
}

/// **Figure 3**: the transpositions of the four transformations that turn
/// `D_17^BR` into `D_17^{p-BR}` (e = 17 ⇒ e−1 = 2^4 ⇒ 4 transformations),
/// in the paper's layout.
pub fn figure3_transforms(_: &[String]) -> Report {
    let e = 17usize;
    let mut r = Report::default();
    r.banner("Figure 3 — transformations generating D_17^{p-BR}");
    let ordinal = |n: usize| match n % 10 {
        1 if n % 100 != 11 => format!("{n}st"),
        2 if n % 100 != 12 => format!("{n}nd"),
        3 if n % 100 != 13 => format!("{n}rd"),
        _ => format!("{n}th"),
    };
    for (k, transform) in pbr_transformations(e, PbrConvention::DEFAULT).iter().enumerate() {
        say!(r, "\n{} transformation:", ordinal(k + 1));
        for ap in transform {
            let sub_size = e - k - 1;
            say!(
                r,
                "  {} {sub_size}-subsequence: {}",
                ordinal(ap.subsequence_index),
                ap.permutation
            );
        }
    }
    let seq = pbr_sequence(e);
    assert!(is_link_sequence_hamiltonian(&seq, e));
    say!(
        r,
        "\nResulting D_17^{{p-BR}}: {} elements, α = {} (lower bound {}, Theorem-2 bound {:.0})",
        seq.len(),
        alpha(&seq, e),
        alpha_lower_bound(e),
        mph_core::pbr::theorem2_alpha_bound(e)
    );
    r
}

/// The minimum-α results of §3.1: the published sequences for
/// `e ∈ [2, 6]`, validated and measured, and the α a branch-and-bound
/// search re-derives for each.
pub fn minalpha_report(_: &[String]) -> Report {
    let mut r = Report::default();
    r.banner("minimum-α ordering (paper §3.1)");
    say!(r, "  e  α published  lower bound     valid? search (re-derive)");
    let mut rows = Vec::new();
    for e in 2..=6usize {
        let seq = published_min_alpha_sequence(e).expect("published for e ≤ 6");
        let a = alpha(&seq, e);
        let lb = alpha_lower_bound(e);
        let valid = validate_e_sequence(&seq, e).is_ok();
        let search = match search_hamiltonian_with_budget(e, lb, 500_000_000) {
            Some(s) => format!("α={}", alpha(&s, e)),
            None => "not found".into(),
        };
        say!(r, "{e:>3} {a:>12} {lb:>12} {valid:>10} {search:>16}");
        rows.push(format!("{e},{a},{lb},{valid}"));
    }
    r.csv("minalpha.csv", "e,alpha,lower_bound,published_valid", &rows);
    say!(
        r,
        "\nAll published sequences are Hamiltonian and attain the lower bound\n\
         ⌈(2^e−1)/e⌉ exactly — minimum-α is optimal for e ≤ 6 but undefined beyond\n\
         (the search is NP-hard), which motivates the constructive permuted-BR."
    );
    r
}

/// Every ordering family's link sequences `D_e`, `e = 1..=max_e` (argument
/// 1, default 14): one file per family, one line per `e` — the data a
/// downstream implementer of these orderings needs.
pub fn sequences_dump(args: &[String]) -> Report {
    let max_e = args.first().and_then(|s| s.parse::<usize>().ok()).unwrap_or(14);
    let mut r = Report::default();
    r.banner(&format!("dumping D_e for e = 1..{max_e}, all families"));
    for family in OrderingFamily::ALL {
        let mut body = format!(
            "# D_e link sequences of the {} ordering\n\
             # format: e alpha lower_bound sequence(space-separated links)\n",
            family.name()
        );
        for e in 1..=max_e {
            let seq = family.sequence(e);
            let digits: Vec<String> = seq.iter().map(|l| l.to_string()).collect();
            body +=
                &format!("{e} {} {} {}\n", alpha(&seq, e), alpha_lower_bound(e), digits.join(" "));
        }
        r.files.push((format!("{}.txt", family.name().replace('-', "_")), body));
    }
    say!(r, "\nEach line is machine-checkable: walking the links from any start node");
    say!(r, "visits all 2^e nodes of the e-cube exactly once.");
    r
}
