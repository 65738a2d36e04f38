//! The public surface is what something reaches (ROADMAP item 10).
//!
//! Every `pub fn` (or `pub async fn`) of the ten library crates
//! (`crates/*` but `mph-bench`) must be reached: its name appears, outside `use` declarations, in the
//! non-test code of a *root* — `crates/bench/src` (the paper's experiments
//! and the `mph-bench` CLI that runs them), `examples/`, `benchmark/src/`
//! (the frozen names the repository benchmark calls) or
//! `tests/paper_claims.rs` — or of library code that is itself reached.
//! Library code outside a `pub fn` (private functions, trait impls,
//! constants) reaches what it names; rustc's dead-code lint keeps that
//! honest. A `pub fn` that only tests reach is deleted with its tests; one
//! reached only from its own file is made private or `pub(crate)`. The
//! exceptions are [`KEEP`]'s, each naming the test that needs it.
//!
//! The scanner is lexical and plain `std`: comments and literals are not
//! tokens, each `#[cfg(test)]` item is cut, and neither a `fn`'s own name
//! nor a module's (`mod name`, `name::`) is a use of a function of that
//! name. A `pub fn` is *keyed* by its `impl` block's self type —
//! `Type::name` for a method, `name` for a free function. `Type::name`
//! reaches the one function of that key, `.name(` every method of the
//! name but a kept one, `.name` alone (a field) nothing, and a bare name
//! the free functions of it; so a method only ever called where the
//! receiver's type is not written counts as reached if another method of
//! its name is (ROADMAP item 10), and a method kept for a test is reached
//! only where its type is written. A keep-list entry must key exactly one
//! function, so an exception covers one item.

mod tree;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::path::Path;

/// `(pub fn key, test)`: a reference implementation, fixture or probe that
/// the named test holds a reached item to. The only place an exception to
/// the rule may be written; an entry that keys no function or more than
/// one, whose test is gone, or whose function something reaches anyway,
/// fails the audit.
const KEEP: &[(&str, &str)] = &[
    // References a reached item is compared against.
    ("at_b", "u_stays_orthogonal"),
    ("matmul", "pairing_preserves_the_invariant_a_equals_a0_u"),
    ("off_diagonal_frobenius", "the_deferred_sweep_is_bitwise_the_eager_one"),
    ("column_ordering", "paper_step_count_identity"),
    ("d4_link_count", "link_counts_closed_form_matches"),
    ("gray_link_sequence", "br_equals_gray_code_link_sequence"),
    ("CommPlan::messages_with_tail", "the_sweep_program_obeys_its_laws"),
    ("pair_across_blocks", "tiled_serial_kernel_is_bitwise_the_untiled_reference"),
    ("pair_within_block", "tiled_serial_kernel_is_bitwise_the_untiled_reference"),
    ("pbr_sequence_literal", "fast_and_literal_generators_agree"),
    ("Scenario::factors", "busy_vtime_reconciles_with_the_meter"),
    ("Machine::stage_cost_from_mults", "fast_cost_equals_naive_cost"),
    ("strict_stage_lower_bound", "strict_bound_is_below_ideal_window_cost"),
    ("svd_block_threaded", "svd_block_threaded_equals_logical_svd_block_bitwise"),
    ("validate_column_ordering", "column_ordering_is_valid_for_arbitrary_m"),
    ("validate_sweep_coverage", "coverage_holds_for_every_sweep_rotation"),
    // Fixtures: the inputs and schedules those tests are built from.
    ("diagonal", "already_diagonal_input_stops_at_once_a_threaded_solve_after_one_sweep"),
    ("frank_matrix", "frank_matrix_spectrum_is_positive"),
    ("BlockLayout::from_slots", "e1_covers_from_swapped_slots_too"),
    ("CommPlan::lower", "the_sweep_program_obeys_its_laws"),
    ("CommSchedule::new", "an_spmd_stage_prices_like_its_per_node_spelling"),
    ("CommSchedule::push_per_node", "an_spmd_stage_prices_like_its_per_node_spelling"),
    ("CommSchedule::push_spmd", "an_spmd_stage_prices_like_its_per_node_spelling"),
    ("Job::eigen", "stagger_keys_class_jobs_by_family_and_size"),
    ("Job::svd", "stagger_keys_class_jobs_by_family_and_size"),
    ("Machine::one_port", "busy_vtime_reconciles_with_the_meter"),
    ("ServicePlan::fifo", "mid_flight_admission_keeps_every_job_bitwise_solo"),
    ("SweepSchedule::from_transitions", "corrupted_sweep_with_repeated_link_is_rejected"),
    ("measure_channel_fabric", "channel_fabric_calibration_is_finite_positive_and_stable"),
    ("wilkinson_matrix", "wilkinson_pairs_resolved"),
    // Probes: the one observable of a contract a test holds a solve to.
    ("host_tiers", "every_tier_the_host_reports_reproduces_both_tables"),
    ("with_tier", "every_tier_the_host_reports_reproduces_both_tables"),
    ("BatchOrder::jobs", "shortest_plan_first_minimizes_mean_completion"),
    ("CommPlan::final_layout", "final_layout_chains_sweeps"),
    ("CommSchedule::volume_by_dim", "metered_traffic_equals_simulated_and_predicted"),
    ("fused_triple", "every_tier_of_dot_and_fused_triple_meets_the_reduction_contract"),
    ("JobResult::eigen", "interleaved_mixed_batch_is_bitwise_solo_per_job"),
    ("JobResult::svd", "interleaved_mixed_batch_is_bitwise_solo_per_job"),
    ("SinkHandle::is_enabled", "free_fabric_reports_zero_makespan"),
    ("TrafficMeter::shipments", "a_pipelined_solve_ships_whole_block_messages_and_charges_packets"),
];

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Library,
    Root,
    Test,
}

/// What a file is to the audit, by its path from the repository root.
fn role(path: &str) -> Role {
    let parts: Vec<&str> = path.split('/').collect();
    match parts[..] {
        ["crates", "bench", "src", ..] => Role::Root,
        ["crates", _, "src", ..] => Role::Library,
        ["examples", ..] | ["benchmark", "src", ..] | ["tests", "paper_claims.rs"] => Role::Root,
        _ => Role::Test,
    }
}

/// `(line, text)` of each identifier and punctuation character of `src`;
/// comments and literals yield none.
fn tokens(src: &str) -> Vec<(usize, String)> {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or(' ');
    let word = |ch: char| ch.is_alphanumeric() || ch == '_';
    let (mut out, mut line, mut i) = (Vec::new(), 1, 0);
    while i < c.len() {
        let start = i;
        if c[i] == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < c.len() {
                match (c[i], at(i + 1)) {
                    ('/', '*') => depth += 1,
                    ('*', '/') => depth -= 1,
                    _ => {
                        i += 1;
                        continue;
                    }
                }
                i += 2;
                if depth == 0 {
                    break;
                }
            }
        } else if c[i] == 'r' && c[i + 1..].iter().find(|&&h| h != '#') == Some(&'"') {
            // A raw string `r#"…"#` ends at `"` and as many hashes.
            let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
            let close: Vec<char> = std::iter::once('"').chain(vec!['#'; hashes]).collect();
            i += hashes + 2;
            while i < c.len() && !c[i..].starts_with(&close) {
                i += 1;
            }
            i += close.len();
        } else if c[i] == '"' {
            i += 1;
            while i < c.len() && c[i] != '"' {
                i += if c[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
        } else if c[i] == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal, not a lifetime: `'x'`, `'\''`, `'\u{1F600}'`.
            i += if at(i + 1) == '\\' { 3 } else { 2 };
            while i < c.len() && c[i] != '\'' {
                i += 1;
            }
            i += 1;
        } else if word(c[i]) {
            while i < c.len() && word(c[i]) {
                i += 1;
            }
            out.push((line, c[start..i].iter().collect()));
        } else {
            if !c[i].is_whitespace() {
                out.push((line, c[i].to_string()));
            }
            i += 1;
        }
        line += c[start..i.min(c.len())].iter().filter(|&&ch| ch == '\n').count();
    }
    out
}

/// One past the last token of the item starting at token `from`: its first
/// `;` outside brackets, or the `}` closing its first `{`.
fn item_end(t: &[(usize, String)], from: usize) -> usize {
    let mut depth = 0;
    for (k, (_, s)) in t.iter().enumerate().skip(from) {
        match s.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" if depth == 1 => return k + 1,
            "}" => depth -= 1,
            ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    t.len()
}

/// Whether `t[k..]` starts with the tokens of `s`.
fn starts(t: &[(usize, String)], k: usize, s: &[&str]) -> bool {
    t.len() >= k + s.len() && t[k..k + s.len()].iter().zip(s).all(|((_, a), b)| a == b)
}

/// The self type and token span of each `impl` block of `t`: the last
/// name outside angle brackets before its body, so past `impl<…>` and a
/// trait's `… for`.
fn impl_blocks(t: &[(usize, String)]) -> Vec<(String, Range<usize>)> {
    let mut out = Vec::new();
    // `-> impl Trait` and `x: impl Trait` are types, not items.
    let item = |k: usize| k == 0 || matches!(t[k - 1].1.as_str(), "}" | ";" | "]" | "{" | "unsafe");
    for k in (0..t.len()).filter(|&k| t[k].1 == "impl" && item(k)) {
        let (end, mut depth, mut ty) = (item_end(t, k), 0, "");
        for (_, s) in &t[k + 1..end] {
            match s.as_str() {
                "{" | "where" if depth == 0 => break,
                "<" => depth += 1,
                ">" => depth -= 1,
                s if depth == 0 && s.starts_with(|c: char| c.is_alphabetic() || c == '_') => ty = s,
                _ => {}
            }
        }
        out.push((ty.to_string(), k..end));
    }
    out
}

/// The tokens of a source's non-test code: without its `#[cfg(test)]`
/// items and its `use` declarations.
fn non_test_code(src: &str) -> Vec<(usize, String)> {
    let t = tokens(src);
    let cfg_test = ["#", "[", "cfg", "(", "test", ")", "]"];
    let (mut out, mut k) = (Vec::new(), 0);
    while k < t.len() {
        if starts(&t, k, &cfg_test) {
            k = item_end(&t, k + cfg_test.len());
        } else if t[k].1 == "use" {
            k = item_end(&t, k);
        } else {
            out.push(t[k].clone());
            k += 1;
        }
    }
    out
}

/// The names of every `#[test]` function in `sources`.
fn test_names(sources: &[(String, String)]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (_, text) in sources {
        let t = tokens(text);
        for k in (0..t.len()).filter(|&k| starts(&t, k, &["#", "[", "test", "]"])) {
            if let Some(f) = (k..t.len() - 1).find(|&f| t[f].1 == "fn") {
                names.insert(t[f + 1].1.clone());
            }
        }
    }
    names
}

/// What the audit reports; `at` is a `pub fn`'s `path:line`, `key` its
/// `Type::name` or, for a free function, its name.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Finding {
    Unreached { at: String, key: String },
    OwnFileOnly { at: String, key: String },
    KeptButReached(String),
    KeptFnMissing(String),
    KeptAmbiguous(String),
    KeptTestMissing { key: String, test: String },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entry = "keep-list entry";
        match self {
            Finding::Unreached { at, key } => {
                write!(f, "{at}: `{key}` is reached by no root: delete it with its tests")
            }
            Finding::OwnFileOnly { at, key } => {
                write!(f, "{at}: `{key}` is reached only from its own file: make it private")
            }
            Finding::KeptButReached(key) => {
                write!(f, "{entry} `{key}` is reached anyway: remove it")
            }
            Finding::KeptFnMissing(key) => write!(f, "{entry} `{key}` keys no `pub fn`: remove it"),
            Finding::KeptAmbiguous(key) => write!(f, "{entry} `{key}` keys several: qualify it"),
            Finding::KeptTestMissing { key, test } => {
                write!(f, "{entry} `{key}` names test `{test}`, which does not exist")
            }
        }
    }
}

/// A library `pub fn`: its file, name, key, line and token span.
struct Def {
    file: usize,
    name: String,
    key: String,
    line: usize,
    span: Range<usize>,
}

/// Audits `(path, text)` sources against a keep-list.
fn audit(sources: &[(String, String)], keep: &[(&str, &str)]) -> BTreeSet<Finding> {
    let code: Vec<Vec<(usize, String)>> = sources.iter().map(|(_, s)| non_test_code(s)).collect();
    let roles: Vec<Role> = sources.iter().map(|(path, _)| role(path)).collect();
    let mut defs = Vec::new();
    for file in (0..sources.len()).filter(|&f| roles[f] == Role::Library) {
        let t = &code[file];
        let impls = impl_blocks(t);
        for k in 0..t.len() {
            let at = if starts(t, k, &["pub", "fn"]) {
                k + 2
            } else if starts(t, k, &["pub", "async", "fn"]) {
                k + 3
            } else {
                continue;
            };
            let Some((_, name)) = t.get(at) else { continue };
            let name = name.clone();
            let key = match impls.iter().find(|(_, span)| span.contains(&k)) {
                Some((ty, _)) => format!("{ty}::{name}"),
                None => name.clone(),
            };
            defs.push(Def { file, name, key, line: t[k].0, span: k..item_end(t, k) });
        }
    }
    // Which defs each use reaches, by the tokens around the name:
    // `Type::` (or `Self::`) the one keyed `Type::name`, `module::` the
    // free functions, `.name(` the methods but the kept ones, `.name` alone
    // (a field) nothing, a bare name the free functions. A trait's, a
    // generic parameter's or an alias's `T::name` reaches nothing: trait
    // items are never `pub fn`s, and an alias hides its type (write the
    // type). A kept method is an exception written for one method the
    // receiver's type of a `.name(` call cannot be told from.
    let kept = |d: &Def| keep.iter().any(|&(k, _)| k == d.key);
    let mut reach: Vec<Vec<(usize, usize)>> = vec![Vec::new(); defs.len()];
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }
    let free = |i: usize| defs[i].key == defs[i].name;
    for f in (0..sources.len()).filter(|&f| roles[f] != Role::Test) {
        let (t, impls) = (&code[f], impl_blocks(&code[f]));
        let at = |k: usize| if k < t.len() { t[k].1.as_str() } else { "" };
        for (k, (_, id)) in t.iter().enumerate() {
            let before = at(k.wrapping_sub(1));
            // A path segment (`name::`, not `name::<T>`) or `mod name` is a
            // module, and the name after `fn` declares.
            let segment = at(k + 1) == ":" && at(k + 2) == ":" && at(k + 3) != "<";
            let declared = matches!(before, "fn" | "mod");
            let Some(named) = by_name.get(id.as_str()).filter(|_| !declared && !segment) else {
                continue;
            };
            let path = before == ":" && at(k.wrapping_sub(2)) == ":";
            let mut q = if path { at(k.wrapping_sub(3)) } else { "" };
            if q == "Self" {
                q = impls.iter().find(|(_, span)| span.contains(&k)).map_or("", |(ty, _)| ty);
            }
            let reaches = |i: usize| match q.chars().next() {
                Some(c) if c.is_uppercase() => defs[i].key == format!("{q}::{id}"),
                _ if before == "." => matches!(at(k + 1), "(" | ":") && !free(i) && !kept(&defs[i]),
                _ => free(i),
            };
            for &i in named.iter().filter(|&&i| reaches(i)) {
                reach[i].push((f, k));
            }
        }
    }
    // The files that name def `i` outside its own item and the items of
    // dead defs. A def no file names is dead; repeat, so what only dead
    // code reaches dies too.
    let users = |i: usize, dead: &[bool]| -> BTreeSet<usize> {
        let muted = |f: usize, k: usize| {
            (0..defs.len())
                .any(|o| (o == i || dead[o]) && defs[o].file == f && defs[o].span.contains(&k))
        };
        reach[i].iter().filter(|&&(f, k)| !muted(f, k)).map(|&(f, _)| f).collect()
    };
    let mut dead = vec![false; defs.len()];
    loop {
        let newly: Vec<usize> = (0..defs.len())
            .filter(|&i| !dead[i] && !kept(&defs[i]) && users(i, &dead).is_empty())
            .collect();
        if newly.is_empty() {
            break;
        }
        newly.into_iter().for_each(|i| dead[i] = true);
    }

    let mut findings = BTreeSet::new();
    for (i, d) in defs.iter().enumerate() {
        let (at, key) = (format!("{}:{}", sources[d.file].0, d.line), d.key.clone());
        let own_file_only = users(i, &dead).iter().all(|&u| u == d.file);
        if kept(d) && !own_file_only {
            findings.insert(Finding::KeptButReached(key));
        } else if dead[i] {
            findings.insert(Finding::Unreached { at, key });
        } else if own_file_only && !kept(d) {
            findings.insert(Finding::OwnFileOnly { at, key });
        }
    }
    let tests = test_names(sources);
    for &(key, test) in keep {
        match defs.iter().filter(|d| d.key == key).count() {
            0 => findings.insert(Finding::KeptFnMissing(key.to_string())),
            1 => false,
            _ => findings.insert(Finding::KeptAmbiguous(key.to_string())),
        };
        if !tests.contains(test) {
            let (key, test) = (key.to_string(), test.to_string());
            findings.insert(Finding::KeptTestMissing { key, test });
        }
    }
    findings
}

#[test]
fn the_public_surface_is_what_something_reaches() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "examples", "benchmark/src", "tests"] {
        tree::collect(root, &root.join(dir), &mut sources);
    }
    sources.retain(|(path, _)| path.ends_with(".rs"));
    assert!(
        sources.iter().filter(|(p, _)| role(p) == Role::Library).count() > 50,
        "library sources missing"
    );
    let findings: Vec<String> = audit(&sources, KEEP).iter().map(Finding::to_string).collect();
    assert!(findings.is_empty(), "{} findings:\n{}", findings.len(), findings.join("\n"));
}

// The scanner on in-memory sources, one rule a test.

fn file(path: &str, text: &str) -> (String, String) {
    (path.to_string(), text.to_string())
}

fn unreached(at: &str, key: &str) -> Finding {
    Finding::Unreached { at: at.to_string(), key: key.to_string() }
}

fn own(at: &str, key: &str) -> Finding {
    Finding::OwnFileOnly { at: at.to_string(), key: key.to_string() }
}

#[test]
fn a_pub_fn_named_only_in_test_code_is_reported_with_what_only_it_reaches() {
    let lib = file(
        "crates/core/src/a.rs",
        "pub fn probe() -> u8 { helper() }\npub fn helper() -> u8 { 1 }\n\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::probe(), 1); }\n}\n",
    );
    let integration = file("crates/core/tests/t.rs", "#[test]\nfn t() { mph_core::probe(); }\n");
    assert_eq!(
        audit(&[lib, integration], &[]),
        BTreeSet::from([
            unreached("crates/core/src/a.rs:1", "probe"),
            unreached("crates/core/src/a.rs:2", "helper"),
        ])
    );
}

#[test]
fn a_pub_async_fn_is_audited_like_a_pub_fn() {
    let lib = file(
        "crates/runtime/src/a.rs",
        "impl Ctx {\n    pub async fn recv(&self) {}\n\n    pub async fn barrier(&self) {}\n}\n",
    );
    let example = file("examples/demo.rs", "async fn main() {\n    ctx.recv().await;\n}\n");
    assert_eq!(
        audit(&[lib, example], &[]),
        BTreeSet::from([unreached("crates/runtime/src/a.rs:4", "Ctx::barrier")])
    );
}

#[test]
fn a_pub_fn_named_only_in_a_pub_use_its_module_path_a_comment_or_a_literal_is_reported() {
    let lib = file("crates/core/src/probe.rs", "pub fn probe() {}\n");
    let reexport = file("crates/core/src/lib.rs", "pub mod probe;\npub use probe::probe;\n");
    let example = file(
        "examples/demo.rs",
        "use mph_core::probe;\n\n/* probe() */\nfn main() {\n    // probe()\n    \
         println!(\"probe()\");\n    let _ = r#\"probe()\"#;\n    mph_core::probe::other();\n}\n",
    );
    assert_eq!(
        audit(&[lib, reexport, example], &[]),
        BTreeSet::from([unreached("crates/core/src/probe.rs:1", "probe")])
    );
}

#[test]
fn a_pub_fn_named_only_in_its_own_file_is_to_be_made_private() {
    let lib =
        file("crates/core/src/a.rs", "pub fn outer() {\n    inner()\n}\n\npub fn inner() {}\n");
    let example = file("examples/demo.rs", "fn main() {\n    mph_core::outer();\n}\n");
    assert_eq!(
        audit(&[lib, example], &[]),
        BTreeSet::from([own("crates/core/src/a.rs:5", "inner")])
    );
}

#[test]
fn a_pub_fn_reached_from_a_root_is_not_reported_and_from_a_test_it_is() {
    let lib = file("crates/core/src/a.rs", "pub fn probe() {}\n");
    for root in ["examples/demo.rs", "benchmark/src/api.rs", "tests/paper_claims.rs"] {
        let caller = file(root, "fn main() {\n    mph_core::probe();\n}\n");
        assert_eq!(audit(&[lib.clone(), caller], &[]), BTreeSet::new(), "{root}");
    }
    let caller = file("tests/end_to_end.rs", "fn main() {\n    mph_core::probe();\n}\n");
    assert_eq!(
        audit(&[lib, caller], &[]),
        BTreeSet::from([unreached("crates/core/src/a.rs:1", "probe")])
    );
}

#[test]
fn a_keep_list_entry_fails_once_its_function_or_test_is_gone_or_a_root_reaches_it() {
    let lib = file("crates/core/src/a.rs", "pub fn oracle() {}\n");
    let test =
        file("crates/core/tests/t.rs", "#[test]\nfn holds() {\n    mph_core::oracle();\n}\n");
    let keep = [("oracle", "holds")];
    assert_eq!(audit(&[lib.clone(), test.clone()], &keep), BTreeSet::new());

    let renamed = file("crates/core/src/a.rs", "pub fn fresh() {}\n");
    let findings = audit(&[renamed, test.clone()], &keep);
    assert!(findings.contains(&Finding::KeptFnMissing("oracle".into())), "{findings:?}");

    let untested = file("crates/core/tests/t.rs", "fn holds() {}\n");
    let want = Finding::KeptTestMissing { key: "oracle".into(), test: "holds".into() };
    assert_eq!(audit(&[lib.clone(), untested], &keep), BTreeSet::from([want]));

    let example = file("examples/demo.rs", "fn main() {\n    mph_core::oracle();\n}\n");
    assert_eq!(
        audit(&[lib, test, example], &keep),
        BTreeSet::from([Finding::KeptButReached("oracle".into())])
    );
}

#[test]
fn a_keep_list_entry_covers_the_one_function_its_key_names() {
    // A method is keyed by its `impl` block's self type, whatever the
    // block's generics, and `-> impl Fn()` opens no block; a free function
    // is keyed by its name. No declaration reaches another of its name,
    // and `Tile::rotate()` reaches `Tile::rotate` alone, so keeping
    // `Pair::rotate` leaves the other two to the rule.
    let lib = file(
        "crates/linalg/src/a.rs",
        "pub fn rotate() {}\n\nimpl<'a, const N: usize> Pair<'a, N> {\n    pub fn rotate(&self) {}\n}\n\n\
         impl<T> From<T> for Tile<T> {\n    fn from(_: T) -> Self {\n        Tile::rotate()\n    }\n}\n\n\
         impl Tile<u8> {\n    pub fn rotate() -> impl Fn() {\n        || {}\n    }\n}\n",
    );
    let test = file("crates/linalg/tests/t.rs", "#[test]\nfn holds() {}\n");
    assert_eq!(
        audit(&[lib, test.clone()], &[("Pair::rotate", "holds")]),
        BTreeSet::from([
            unreached("crates/linalg/src/a.rs:1", "rotate"),
            own("crates/linalg/src/a.rs:14", "Tile::rotate"),
        ])
    );
    // A key that two functions share fails: an exception is one item.
    let a = file("crates/core/src/a.rs", "pub fn oracle() {}\n");
    let b = file("crates/linalg/src/b.rs", "pub fn oracle() {}\n");
    assert_eq!(
        audit(&[a, b, test], &[("oracle", "holds")]),
        BTreeSet::from([Finding::KeptAmbiguous("oracle".into())])
    );
}

#[test]
fn a_method_is_reached_by_a_call_not_by_a_field_or_a_generic_path() {
    // `T::epochs()` calls a trait item, which is never a `pub fn`.
    let lib = file(
        "crates/runtime/src/a.rs",
        "pub struct S {\n    pub epochs: usize,\n}\n\nimpl S {\n    \
         pub fn epochs(&self) -> usize {\n        self.epochs\n    }\n\n    \
         pub fn len(&self) -> usize {\n        Self::width()\n    }\n\n    \
         pub fn width() -> usize {\n        1\n    }\n}\n",
    );
    let example = file(
        "examples/demo.rs",
        "fn main<T: Tr>() {\n    let s = S { epochs: 1 };\n    s.epochs + s.len() + T::epochs();\n}\n",
    );
    assert_eq!(
        audit(&[lib, example], &[]),
        BTreeSet::from([
            unreached("crates/runtime/src/a.rs:6", "S::epochs"),
            own("crates/runtime/src/a.rs:14", "S::width"),
        ])
    );
}

#[test]
fn a_kept_method_is_reached_only_where_its_type_is_written() {
    // `.volume(` may be any type's method, so it does not overturn a kept
    // one; `S::volume` does.
    let lib = file("crates/simnet/src/a.rs", "impl S {\n    pub fn volume(&self) {}\n}\n");
    let test = file("crates/simnet/tests/t.rs", "#[test]\nfn holds() {}\n");
    let keep = [("S::volume", "holds")];
    let call = file("examples/demo.rs", "fn main() {\n    s.volume();\n}\n");
    assert_eq!(audit(&[lib.clone(), test.clone(), call], &keep), BTreeSet::new());
    let typed = file("examples/demo.rs", "fn main() {\n    S::volume(&s);\n}\n");
    assert_eq!(
        audit(&[lib, test, typed], &keep),
        BTreeSet::from([Finding::KeptButReached("S::volume".into())])
    );
}
