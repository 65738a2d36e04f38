//! The design's structural invariants (ROADMAP "One of each"), one test
//! each, read off the source tree the way `grep` reads it:
//! `cargo test -q --test structure`.
//!
//! A check scans every file under `crates`, `src`, `examples` and `tests`,
//! and `README.md`, line by line: not only `.rs` files, and not this file,
//! which spells every name the checks forbid. It takes a path scope, a
//! pattern and an allow-list of paths, and says what may match: no line,
//! at most so many, or exactly the lines or files it names. A scope or
//! allow entry is a path from the root, a directory covering everything
//! under it; a `*` segment stands for any one segment, `*.rs` for any
//! ending in `.rs`. A pattern is literals separated by `|`, where a `\b`
//! at either end of a literal asks for a word boundary there, or one of
//! the few predicates below that each spell one regular expression. Where
//! a check reads non-test code, a file is cut after its first line that
//! starts with `#[cfg(test)]`.

mod tree;

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

/// A file of the tree: its path from the root and its text.
type Source = (String, String);

/// Every crate's library source.
const LIBRARY: &[&str] = &["crates/*/src"];
/// Everything a check may read but `README.md`.
const EVERYWHERE: &[&str] = &["crates", "src", "examples", "tests"];
const VECOPS: &str = "crates/linalg/src/vecops";
const LANES: &str = "crates/linalg/src/vecops/lanes.rs";
const WALK: &str = "crates/linalg/src/vecops/walk.rs";

/// The tree the invariants are read off, walked once per test binary.
fn sources() -> &'static [Source] {
    static TREE: OnceLock<Vec<Source>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        for dir in EVERYWHERE {
            tree::collect(root, &root.join(dir), &mut files);
        }
        files.retain(|(path, _)| path != "tests/structure.rs");
        let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
        files.push(("README.md".to_string(), readme));
        assert!(files.len() > 100, "sources missing");
        files
    })
}

/// What a line must contain for a check to see it.
#[derive(Clone, Copy)]
enum Pat {
    /// Literals separated by `|`; a `\b` at either end of one asks for a
    /// word boundary there.
    Any(&'static str),
    /// A regular expression no literal alternation spells, as a predicate.
    Re(&'static str, fn(&str) -> bool),
}

use Pat::{Any, Re};

impl Pat {
    fn matches(&self, line: &str) -> bool {
        match *self {
            Any(alternatives) => alternatives.split('|').any(|lit| contains(line, lit)),
            Re(_, matches) => matches(line),
        }
    }
}

impl fmt::Display for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Any(text) | Re(text, _) => f.write_str(text),
        }
    }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `\b` at byte `i` of `line`: a word character on one side only.
fn boundary(line: &str, i: usize) -> bool {
    let before = line[..i].chars().next_back().is_some_and(is_word);
    before != line[i..].chars().next().is_some_and(is_word)
}

/// Whether `line` contains the literal `lit`, with a word boundary where
/// `lit` starts or ends with `\b`.
fn contains(line: &str, lit: &str) -> bool {
    let (front, lit) = lit.strip_prefix(r"\b").map_or((false, lit), |l| (true, l));
    let (back, lit) = lit.strip_suffix(r"\b").map_or((false, lit), |l| (true, l));
    let mut from = 0;
    while let Some(k) = line[from..].find(lit) {
        let i = from + k;
        if (!front || boundary(line, i)) && (!back || boundary(line, i + lit.len())) {
            return true;
        }
        from = i + line[i..].chars().next().map_or(1, char::len_utf8);
    }
    false
}

/// Whether `scope` names `path` or a directory above it.
fn covers(scope: &str, path: &str) -> bool {
    let mut segments = path.split('/');
    scope.trim_end_matches('/').split('/').all(|s| {
        segments.next().is_some_and(|p| match s.strip_prefix('*') {
            Some(tail) => p.ends_with(tail),
            None => p == s,
        })
    })
}

/// A matching line, shown as `grep -n` shows it.
struct Hit<'t> {
    path: &'t str,
    line: usize,
    text: &'t str,
}

impl fmt::Display for Hit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.path, self.line, self.text)
    }
}

/// `grep -rn`: the lines of the files under `scope` that match `pat`, but
/// those of files under an `allow` path.
fn grep<'t>(tree: &'t [Source], scope: &[&str], pat: Pat, allow: &[&str]) -> Vec<Hit<'t>> {
    let mut hits = Vec::new();
    for (path, text) in tree {
        let seen = |s: &&str| covers(s, path);
        if !scope.iter().any(seen) || allow.iter().any(seen) {
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            if pat.matches(line) {
                hits.push(Hit { path, line: n + 1, text: line });
            }
        }
    }
    hits
}

fn listed(hits: &[Hit]) -> String {
    hits.iter().map(|h| format!("\n  {h}")).collect()
}

/// `if grep … | grep -v '^allow'; then exit 1; fi`: no line matches.
fn forbid(tree: &[Source], scope: &[&str], pat: Pat, allow: &[&str]) -> Result<(), String> {
    let hits = grep(tree, scope, pat, allow);
    if hits.is_empty() {
        return Ok(());
    }
    Err(format!("`{pat}` in {scope:?}, where no line may match:{}", listed(&hits)))
}

/// `test "$(grep … | grep -c …)" -le n`: at most `n` lines match.
fn at_most(tree: &[Source], scope: &[&str], pat: Pat, n: usize) -> Result<(), String> {
    let hits = grep(tree, scope, pat, &[]);
    if hits.len() <= n {
        return Ok(());
    }
    Err(format!("`{pat}` in {scope:?}, where at most {n} may match:{}", listed(&hits)))
}

/// `test "$(grep -rn … | cut -d: -f1)" = …`: the lines that match are
/// exactly `want`'s, one path for each.
fn lines_in(tree: &[Source], scope: &[&str], pat: Pat, want: &[&str]) -> Result<(), String> {
    let hits = grep(tree, scope, pat, &[]);
    if hits.iter().map(|h| h.path).eq(want.iter().copied()) {
        return Ok(());
    }
    Err(format!("`{pat}` in {scope:?}, where only {want:?} may match:{}", listed(&hits)))
}

/// `test "$(grep -rl … | sort)" = …`: the files with a line that matches
/// are exactly `want`.
fn files_with(tree: &[Source], scope: &[&str], pat: Pat, want: &[&str]) -> Result<(), String> {
    let hits = grep(tree, scope, pat, &[]);
    let mut files: Vec<&str> = hits.iter().map(|h| h.path).collect();
    files.dedup();
    if files == want {
        return Ok(());
    }
    Err(format!("`{pat}` in {scope:?}, where only {want:?} may match:{}", listed(&hits)))
}

/// `sed '/^#\[cfg(test)\]/q'` on every file: each cut after its first line
/// that starts with `#[cfg(test)]`.
fn non_test(tree: &[Source]) -> Vec<Source> {
    let cut = |text: &str| {
        let line = (text.starts_with("#[cfg(test)]").then_some(0))
            .or_else(|| text.find("\n#[cfg(test)]").map(|i| i + 1));
        line.map_or(text.len(), |i| text[i..].find('\n').map_or(text.len(), |j| i + j + 1))
    };
    tree.iter().map(|(path, text)| (path.clone(), text[..cut(text)].to_string())).collect()
}

/// Fails with every check's complaint.
fn holds<const N: usize>(checks: [Result<(), String>; N]) {
    let failed: Vec<String> = checks.into_iter().filter_map(Result::err).collect();
    assert!(failed.is_empty(), "{} failed:\n{}", failed.len(), failed.join("\n"));
}

// The regular expressions no literal alternation spells.

/// `_mm(256|512)?_[a-z]`: an x86 intrinsic's name.
fn intrinsic(line: &str) -> bool {
    let named = |r: &str| {
        r.strip_prefix('_').is_some_and(|r| r.starts_with(|c: char| c.is_ascii_lowercase()))
    };
    line.match_indices("_mm").any(|(i, _)| {
        let rest = &line[i + 3..];
        named(rest) || ["256", "512"].iter().any(|w| rest.strip_prefix(w).is_some_and(named))
    })
}

/// `_mm(256|512)_(sub|add)_pd\(_mm(256|512)_mul_pd\(v[cs]`: a lane
/// rotator's unfused turn, a multiply then an add or a subtract.
fn unfused_turn(line: &str) -> bool {
    let widths = ["256", "512"];
    widths.iter().any(|a| {
        ["sub", "add"].iter().any(|op| {
            widths.iter().any(|b| {
                ['c', 's']
                    .iter()
                    .any(|v| line.contains(&format!("_mm{a}_{op}_pd(_mm{b}_mul_pd(v{v}")))
            })
        })
    })
}

/// `pub fn [a-z_0-9]+_(traced|metered|adaptive|planned[a-z_]*|fabric_jobs[a-z_]*)\b`:
/// an entry point whose name carries a capability.
fn suffixed_entry_point(line: &str) -> bool {
    let lower = |s: &str, digits: bool| {
        s.bytes().all(|b| b.is_ascii_lowercase() || b == b'_' || (digits && b.is_ascii_digit()))
    };
    line.match_indices("pub fn ").any(|(i, _)| {
        let rest = &line[i + 7..];
        let name = &rest[..rest.find(|c: char| !is_word(c)).unwrap_or(rest.len())];
        name.match_indices('_').any(|(j, _)| {
            let (stem, suffix) = (&name[..j], &name[j + 1..]);
            let open = |p: &str| suffix.strip_prefix(p).is_some_and(|tail| lower(tail, false));
            !stem.is_empty()
                && lower(stem, true)
                && (matches!(suffix, "traced" | "metered" | "adaptive")
                    || open("planned")
                    || open("fabric_jobs"))
        })
    })
}

/// `PortModel::[A-Za-z]+(\([^)]*\))? =>`: a match arm on a port model.
fn port_model_arm(line: &str) -> bool {
    line.match_indices("PortModel::").any(|(i, _)| {
        let rest = &line[i + 11..];
        let tail = rest.trim_start_matches(|c: char| c.is_ascii_alphabetic());
        let fields = tail.strip_prefix('(').and_then(|t| t.find(')').map(|j| &t[j + 1..]));
        tail.len() < rest.len()
            && (tail.starts_with(" =>") || fields.is_some_and(|t| t.starts_with(" =>")))
    })
}

/// `sends.*windows\(2\)`: a `windows(2)` test over a phase's sends.
fn sends_windows(line: &str) -> bool {
    line.find("sends").is_some_and(|i| line[i + 5..].contains("windows(2)"))
}

/// `(EigenResult|SvdResult) \{` on a line without
/// `(->|struct|impl) (EigenResult|SvdResult) \{`: a result literal.
fn result_literal(line: &str) -> bool {
    let results = ["EigenResult {", "SvdResult {"];
    let declared =
        |r: &&str| ["-> ", "struct ", "impl "].iter().any(|k| line.contains(&format!("{k}{r}")));
    results.iter().any(|r| line.contains(r)) && !results.iter().any(declared)
}

/// `grep -o '([A-Za-z0-9_.-]+/)*[A-Z_]+\.md'`: the documents a line names,
/// leftmost-longest.
fn named_documents(line: &str) -> Vec<&str> {
    let b = line.as_bytes();
    let segment = |c: &u8| c.is_ascii_alphanumeric() || b"_.-".contains(c);
    let stem = |c: &u8| c.is_ascii_uppercase() || *c == b'_';
    let (mut named, mut s) = (Vec::new(), 0);
    while s < b.len() {
        // The segments from `s` chain one way only, and a later stem ends
        // further on: the last stem that is a name is the longest match.
        let (mut j, mut end) = (s, None);
        loop {
            let k = j + b[j..].iter().take_while(|c| stem(c)).count();
            if k > j && b[k..].starts_with(b".md") {
                end = Some(k + 3);
            }
            let k = j + b[j..].iter().take_while(|c| segment(c)).count();
            if k == j || b.get(k) != Some(&b'/') {
                break;
            }
            j = k + 1;
        }
        if let Some(e) = end {
            named.push(&line[s..e]);
            s = e;
        } else {
            s += 1;
        }
    }
    named
}

// The invariants, one test per ROADMAP "One of each" guard.

/// Documents that resolve: every named `*.md` exists. A source comment
/// or README that cites a document — `DESIGN.md`, `benchmark/README.md` —
/// must cite one in the tree; the decisions such documents were to hold
/// are pinned by named tests and tracked outputs instead.
#[test]
fn documents_that_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for (path, text) in sources()
        .iter()
        .filter(|(p, _)| ["crates", "src", "README.md"].iter().any(|s| covers(s, p)))
    {
        for (n, line) in text.lines().enumerate().filter(|(_, l)| l.contains(".md")) {
            for name in named_documents(line) {
                if !root.join(name).exists() {
                    missing.push(format!("{name}, named at {path}:{}", n + 1));
                }
            }
        }
    }
    assert!(missing.is_empty(), "named but not in the tree:\n{}", missing.join("\n"));
}

/// SIMD and `unsafe` live in vecops. Every lane kernel, its cpuid dispatch
/// and its `unsafe` intrinsics are in `mph_linalg::vecops`, whose tests
/// call each tier directly and pin it to the portable bits. An intrinsic
/// or a `target_feature` anywhere else in the library crates would be a
/// kernel no such test holds, and an `unsafe` block, fn or impl anywhere
/// else a soundness argument no such test exercises — the sweep kernel
/// lends its blocks to the walk, whose column addresses stay in vecops.
/// There is one inner product, `dot`, and every reduction tier ends in the
/// tree it writes out once; a sweep step is one step of the rectangle
/// walk, whose pass rotates a step's pairings and reduces the next step's
/// blocks: a deleted second bit family, an intrinsic's own reduction
/// order, or a reduction pass of its own per step (`pair_view2`,
/// `fused_triple_x2`, `dot_x2`) growing back fails here, as does a reader
/// of the inert `JacobiOptions::kernel` / `KernelPath::Lanes` (kept only
/// for `benchmark/src`) outside the two files that declare them. There is
/// one rotation, a multiply and a fused multiply-add per entry on every
/// tier: the old vector form (a multiply, a multiply and an add) growing
/// back in a lane rotator fails here, as does the AVX2-without-FMA tier,
/// which every kernel's fused multiply-adds left with no kernel of its
/// own. The reduction, the step pass and the lane rotator are written
/// once, over the eight-lane group each tier instantiates in its one
/// function (`vecops/lanes.rs`): a second copy per vector width
/// (`dots_avx2`, `step_rest`, `pair_rotate_avx512` and the rest of the
/// names below) growing back fails here. The rotators are kernels too,
/// their scalar loops included, so the only `#[target_feature` lines are
/// the two tier functions in `vecops/lanes.rs` (`x86::on_avx512`,
/// `x86::on_avx2`): a third, or a per-tier rotator wrapper
/// (`pair_rotate_fma`, `rotate_top_pivot_portable` and the rest of the
/// names below) growing back fails here. The two-sided oracle's top-pivot
/// sequence is written over the same group, so the only files naming an
/// `_mm` intrinsic are `vecops/lanes.rs` and `vecops/walk.rs`, whose
/// two-lane SSE2 angle measured faster than both same-bits replacements: a
/// third file, or the oracle's own four-column intrinsics
/// (`rotate_top_pivot_avx2`, `gather4` and the rest of the names below) or
/// the AVX-512 short-prefix rule growing back, fails here. The exclusion
/// is the vecops directory (`mod`, `lanes`, `walk`, `rotate`).
#[test]
fn simd_and_unsafe_live_in_vecops() {
    let t = sources();
    holds([
        forbid(t, LIBRARY, Any("std::arch|core::arch|target_feature"), &[VECOPS]),
        lines_in(t, LIBRARY, Any("#[target_feature"), &[LANES, LANES]),
        files_with(t, LIBRARY, Re("_mm(256|512)?_[a-z]", intrinsic), &[LANES, WALK]),
        forbid(t, LIBRARY, Any("unsafe {|unsafe fn|unsafe impl"), &[VECOPS]),
        forbid(
            t,
            EVERYWHERE,
            Any("fused_triple_exact|dot_lanes|dot_tree256|hsum256|fused_triple_portable|_mm512_reduce_add_pd"),
            &[],
        ),
        forbid(
            t,
            EVERYWHERE,
            Any("dots_avx2|dots_portable|reduce_avx512|fma_avx512|spill_avx512|step_rest|turn8|pair_rotate_avx2|pair_rotate_avx512"),
            &[],
        ),
        forbid(
            t,
            EVERYWHERE,
            Any("pair_rotate_portable|pivot_rows_portable|rotate_top_pivot_portable|pair_rotate_fma|pivot_rows_fma|top_pivot_column_fma|rotate_top_pivot_fma"),
            &[],
        ),
        forbid(
            t,
            EVERYWHERE,
            Any("rotate_top_pivot_avx2|top_pivot_groups|gather4|scatter4|turn4|AVX512_MIN_ROTATE"),
            &[],
        ),
        forbid(t, EVERYWHERE, Any("pair_view2|fused_triple_x2|dot_x2|TripleStreams"), &[]),
        forbid(
            t,
            &[VECOPS],
            Re(r"_mm(256|512)_(sub|add)_pd\(_mm(256|512)_mul_pd\(v[cs]", unfused_turn),
            &[],
        ),
        forbid(t, EVERYWHERE, Any(r"LaneTier::Avx2\b"), &[]),
        forbid(
            t,
            EVERYWHERE,
            Any("opts.kernel|KernelPath::Lanes"),
            &["crates/eigen/src/options.rs", VECOPS],
        ),
    ]);
}

/// One thread scheduler (a parallel solve is the engine on a free fabric).
/// The runtime steps the 2^d node programs on min(2^d, CPUs) workers, and
/// no solver spawns a thread of its own: a logical solve runs on the
/// calling thread in one pairing order, and a parallel one is
/// `block_jacobi_threaded` on `FabricModel::Free`. A helper pool, a second
/// pairing order or a read of the ignored `JacobiOptions::workers` (kept
/// only for `benchmark/src`) growing back fails here.
#[test]
fn one_thread_scheduler() {
    let t = sources();
    holds([
        forbid(
            t,
            &["crates/eigen/src"],
            Any("PairingPool|Tournament|LANE_GRAIN|run_tournament|push_within_round|push_across_round|mph-pairing|Condvar"),
            &[],
        ),
        forbid(
            t,
            &["crates/eigen", "crates/batch", "crates/serve", "src", "tests", "examples"],
            Any("opts.workers|workers:"),
            &["crates/eigen/src/options.rs"],
        ),
    ]);
}

/// One front door per capability (no suffixed entry point grows back).
/// Fabric, job count, trace sink and adaptation are fields of an options
/// struct or a named result, not function suffixes. The one exception is
/// frozen from outside: `block_jacobi_threaded_fabric`, which
/// `benchmark/src/api.rs` names — defined, re-exported, and called by
/// nothing in the workspace.
#[test]
fn one_front_door_per_capability() {
    let t = sources();
    let shim = Any(r"\bblock_jacobi_threaded_fabric\b");
    holds([
        forbid(
            t,
            LIBRARY,
            Re(
                r"pub fn [a-z_0-9]+_(traced|metered|adaptive|planned[a-z_]*|fabric_jobs[a-z_]*)\b",
                suffixed_entry_point,
            ),
            &[],
        ),
        files_with(
            t,
            EVERYWHERE,
            shim,
            &["crates/eigen/src/lib.rs", "crates/eigen/src/threaded.rs"],
        ),
    ]);
}

/// The schedule is one program (no frame is expanded into ops outside
/// mph-core). A sweep's micro-op order is `CommPlan::op_after`; the engine
/// and the schedule clock interpret it. Matching on how a phase is framed
/// anywhere else is a second writing of the order growing back.
#[test]
fn the_schedule_is_one_program() {
    let t = sources();
    holds([
        forbid(t, EVERYWHERE, Any("Frame::Whole|Frame::Packets"), &["crates/core/src/commplan.rs"]),
        forbid(t, EVERYWHERE, Any(r"enum Pos\b|struct OpStream\b"), &[]),
    ]);
}

/// The paper's model, once (one stage window, one degree grid, one
/// simulator). The §2.4 window is written in `pipelining.rs` (the stage
/// builder reads `pipelined_schedule`), the ×1.25 candidate grid in
/// `optimum.rs` (`search_degree`, which every degree search runs), and the
/// simulator is `simulate_synchronized`, which replays each stage on
/// `NodeClock` — the one recurrence of the `Ts`/`Tw`/port machine, which
/// the fabric and `executed_cost` drive too. A schedule keeps every
/// stage's sends in one store: a stage is a range of it, one range its 2^d
/// nodes share for an SPMD stage, one range per node for a per-node stage,
/// written by the one stage builder (`StageWriter::phase_stages`) through
/// one reused window buffer, and the simulator replays each stored range
/// once. A second writing of any of them growing back in the model crates
/// fails here; a match arm on `PortModel` in the simulator is a second
/// port recurrence. Stages issue largest first, so the witness holds every
/// port model to one equality: a `PortModel` arm in simnet's tests is the
/// k-port special case growing back.
///
/// A phase's small degrees are priced by one batch pricer, the walk
/// (`PhaseCostModel::shallow_prices`, which the degree search reads); a
/// given degree, or a grid degree above 64, by the one-degree cost the
/// walk is held to bit for bit.
///
/// Figure 2's lower bound is one more sequence for `PhaseCostModel`
/// (`ideal_phase`): a closed form of an ideal phase's cost is a second
/// stage-cost model. A sweep is composed once, by `plancost` on a lowered
/// plan — Figure 2's five series, the solver's schedule and `execution.rs`
/// all read it: a continuous `Workload` with its own pipelined or
/// unpipelined sweep price is a second composition growing back (the one
/// closed form kept, a test oracle, is named `closed_form_sweep`). A
/// plan's sizes are written once, by `CommPlan::lower`, which records each
/// phase's largest message and uniformity: a uniform phase is one size per
/// transition, and lowering moves the layout once per exchange phase.
/// Readers take a node's size through `PlanPhase::send(t, n)`; a flatten
/// of the sends or a `windows(2)` test over their rows is a per-node
/// rescan growing back, and a `.sends(` call is the row-slice reader
/// coming back.
#[test]
fn the_papers_model_once() {
    let t = sources();
    let model = &["crates/ccpipe/src", "crates/simnet/src"];
    let readers = &["crates/ccpipe/src", "crates/simnet/src", "crates/eigen/src"];
    holds([
        forbid(t, model, Any("simulate_async"), &[]),
        forbid(t, EVERYWHERE, Any("LowerBoundModel|sum_min_w_e|sum_ceil_w_e"), &[]),
        forbid(
            t,
            EVERYWHERE,
            Any("pipelined_sweep_cost|unpipelined_sweep_cost|struct Workload"),
            &[],
        ),
        forbid(
            t,
            &["crates/simnet"],
            Re(r"PortModel::[A-Za-z]+(\([^)]*\))? =>", port_model_arm),
            &[],
        ),
        forbid(t, EVERYWHERE, Any("node_stage_completion"), &[]),
        lines_in(t, model, Any("*= 1.25"), &["crates/ccpipe/src/optimum.rs"]),
        lines_in(t, model, Any("saturating_sub(q - 1)"), &["crates/ccpipe/src/pipelining.rs"]),
        forbid(t, readers, Any("sends.iter().flatten()"), &[]),
        forbid(t, readers, Re(r"sends.*windows\(2\)", sends_windows), &[]),
        forbid(t, readers, Any(".sends("), &[]),
    ]);
}

/// A node owns its books (nothing on the send path is shared). A node's
/// `NodeCtx` lives on its worker: the meter, the link clock and the trace
/// lane are plain data behind `&mut self`. What crosses workers — the
/// links' queues, the barrier, the park books — is
/// `crates/runtime/src/sched.rs`'s, the one runtime file with locks and
/// atomics besides the ring the run hands its lanes to at join
/// (`trace.rs`). One in `spmd.rs`, `fabric.rs` or `meter.rs` means a
/// node's book is being lent again; a sink trait or a sink handle held on
/// the send path means events are recorded through shared state again.
#[test]
fn a_node_owns_its_books() {
    let t = sources();
    let runtime = &["crates/runtime/src"];
    let books = &[
        "crates/runtime/src/meter.rs",
        "crates/runtime/src/spmd.rs",
        "crates/runtime/src/fabric.rs",
    ];
    holds([
        forbid(t, books, Any("Atomic|Mutex"), &[]),
        forbid(t, runtime, Any("mod collectives|lock_state"), &[]),
        forbid(t, runtime, Any("TraceSink|NopSink|sink: SinkHandle"), &[]),
    ]);
}

/// The engine steps (no node parks). A node program is an `async` closure
/// that yields at `.await` — on `NodeCtx::recv` or `NodeCtx::barrier`,
/// nothing else — and the runtime polls it with a no-op waker and parks a
/// worker only on its own books. A `std::sync::Barrier`, a blocking
/// channel receive or a blocking exchange growing back in the runtime or
/// the engine would park a node's worker — and every node it steps. A
/// resume cursor kept by hand, a `Poll` in the engine, or a waker outside
/// the one poll loop in `spmd.rs` means a wait is being written twice
/// again.
#[test]
fn the_engine_steps() {
    let t = sources();
    let engine = "crates/eigen/src/multidrive.rs";
    holds([
        forbid(
            t,
            &["crates/runtime/src", engine],
            Any(r"sync::Barrier|Barrier::new|.recv()|recv_timeout|recv_stamped|fn exchange\b"),
            &[],
        ),
        forbid(
            t,
            &[engine],
            Any("struct Reduce|enum Stage|struct Via|fn resume(|fn relay(|Poll::Pending|ready!"),
            &[],
        ),
        forbid(t, &["crates/runtime/src"], Any("at_barrier|fn try_recv|leave_barrier"), &[]),
        forbid(t, LIBRARY, Any("Waker|Context::from_waker"), &["crates/runtime/src/spmd.rs"]),
    ]);
}

/// Jobs ride their own links (no stash above the link). Every link keeps
/// one FIFO queue per job, and a receive names the job it takes
/// (`NodeCtx::recv(dim, job)`). A demultiplexer that takes other jobs'
/// messages off the link and stashes them would bring back the stash-order
/// races that design removed.
#[test]
fn jobs_ride_their_own_links() {
    holds([forbid(sources(), LIBRARY, Any("JobMux|stash|try_recv_for"), &[])]);
}

/// One answer assembly (every driver reads its answer off its blocks
/// alike). `blockjacobi::eigenpairs` and `svd::extract_usv_blocks` build
/// every eigen and SVD answer, logical or engine. A column stored or
/// normalised anywhere else in the crate is a second assembly. The logical
/// drivers are one call each into `solve_logical`, which stops on
/// `JobKind`'s rule and answers through the engine's `eigen_answer` /
/// `svd_answer`: a result literal in their non-test code, or the sweep
/// budget written twice, is a second stop rule.
#[test]
fn one_answer_assembly() {
    let t = sources();
    let drivers = [
        "crates/eigen/src/blockjacobi.rs",
        "crates/eigen/src/onesided.rs",
        "crates/eigen/src/svd.rs",
    ];
    let code = non_test(t);
    holds([
        forbid(t, &["crates/eigen/src"], Any("sigma_and_u_col(|store_u_into("), &drivers),
        forbid(&code, &drivers, Re(r"(EigenResult|SvdResult) \{", result_literal), &[]),
        at_most(&code, &["crates/eigen/src/*.rs"], Any("force_sweeps.unwrap_or"), 1),
    ]);
}

/// Deaths ride the one engine (no door refuses a death). Every door's one
/// setup, `Run::new`, cuts each node's relay scripts once from the
/// fabric's death schedule, keyed by fabric epoch, so a batch and a
/// service relay around dead links as a solo solve does. A refusal growing
/// back — a typed "unsupported" error, a shared-fabric check, a has-deaths
/// probe — would fork the death path by door again; a per-door setup or a
/// route derived on the node (a second `surviving_route` call) would
/// rebuild run data inside the state machine.
#[test]
fn deaths_ride_the_one_engine() {
    let t = sources();
    holds([
        forbid(
            t,
            &["crates/*/src", "src", "tests", "examples"],
            Any("DeadLinksUnsupported|check_shared_fabric|has_deaths"),
            &[],
        ),
        forbid(
            t,
            &["crates/eigen/src"],
            Any("RelayEntry|relay_script|RunShared|JobShared|job_shared|assert_square_eigen_jobs"),
            &[],
        ),
        at_most(&non_test(t), &["crates/eigen/src/*.rs"], Any("surviving_route("), 1),
    ]);
}

// The scanner on in-memory trees, one rule a test.

fn file(path: &str, text: &str) -> Source {
    (path.to_string(), text.to_string())
}

#[test]
fn a_forbidden_literal_is_reported_as_path_and_line() {
    let tree = [
        file("crates/eigen/src/a.rs", "fn a() {}\nlet pool = PairingPool::new();\n"),
        file("crates/eigen/Cargo.toml", "[dependencies]\nmph-pairing = \"1\"\n"),
        file("crates/core/src/b.rs", "let pool = PairingPool::new();\n"),
    ];
    let scope = &["crates/eigen"];
    let hits: Vec<String> = grep(&tree, scope, Any("PairingPool|mph-pairing"), &[])
        .iter()
        .map(|h| h.to_string())
        .collect();
    assert_eq!(
        hits,
        [
            "crates/eigen/src/a.rs:2:let pool = PairingPool::new();",
            "crates/eigen/Cargo.toml:2:mph-pairing = \"1\"",
        ]
    );
    let err = forbid(&tree, scope, Any("PairingPool"), &[]).unwrap_err();
    assert!(err.contains("crates/eigen/src/a.rs:2:"), "{err}");
    assert_eq!(forbid(&tree, scope, Any("Condvar"), &[]), Ok(()));
}

#[test]
fn code_below_the_first_cfg_test_line_is_cut() {
    let text = "surviving_route(a);\n    #[cfg(test)]\nsurviving_route(b);\n#[cfg(test)]\n\
                mod tests {\n    surviving_route(c);\n}\n#[cfg(test)]\nsurviving_route(d);\n";
    let tree = [file("crates/eigen/src/threaded.rs", text)];
    let code = non_test(&tree);
    assert_eq!(
        code[0].1,
        "surviving_route(a);\n    #[cfg(test)]\nsurviving_route(b);\n#[cfg(test)]\n"
    );
    let scope = &["crates/eigen/src/*.rs"];
    assert!(at_most(&code, scope, Any("surviving_route("), 1).is_err());
    let cut_early = [file("crates/eigen/src/threaded.rs", &text.replacen("    #[cfg", "#[cfg", 1))];
    assert_eq!(at_most(&non_test(&cut_early), scope, Any("surviving_route("), 1), Ok(()));
    // `*.rs` is one directory: a nested file is not read.
    let nested = [file("crates/eigen/src/sub/a.rs", "surviving_route(a);\nsurviving_route(b);\n")];
    assert_eq!(at_most(&non_test(&nested), scope, Any("surviving_route("), 1), Ok(()));
}

#[test]
fn a_word_boundary_pattern_ignores_a_longer_identifier() {
    let tree = [file(
        "crates/linalg/src/vecops/mod.rs",
        "LaneTier::Avx2Fma => 1,\nmy_block_jacobi_threaded_fabric();\nblock_jacobi_threaded_fabric_x();\n",
    )];
    let scope = EVERYWHERE;
    assert_eq!(forbid(&tree, scope, Any(r"LaneTier::Avx2\b"), &[]), Ok(()));
    assert_eq!(forbid(&tree, scope, Any(r"\bblock_jacobi_threaded_fabric\b"), &[]), Ok(()));
    for line in ["LaneTier::Avx2 => 1,", "x(LaneTier::Avx2)", "LaneTier::Avx2"] {
        let tree = [file("crates/linalg/src/vecops/mod.rs", line)];
        assert!(forbid(&tree, scope, Any(r"LaneTier::Avx2\b"), &[]).is_err(), "{line}");
    }
    // Only the ends asked for are bounded.
    assert!(contains("xLaneTier::Avx2;", r"LaneTier::Avx2\b"));
    assert!(contains("the (block_jacobi_threaded_fabric)", r"\bblock_jacobi_threaded_fabric\b"));
    assert!(contains("enum Pos {", r"enum Pos\b") && !contains("enum Position {", r"enum Pos\b"));
}

#[test]
fn an_allow_listed_path_is_skipped() {
    let tree = [
        file("crates/linalg/src/vecops/lanes.rs", "unsafe { load(p) }\n"),
        file("crates/eigen/src/options.rs", "opts.workers\n"),
    ];
    assert_eq!(forbid(&tree, LIBRARY, Any("unsafe {"), &[VECOPS]), Ok(()));
    assert!(forbid(&tree, LIBRARY, Any("unsafe {"), &["crates/linalg/src/vec"]).is_err());
    assert_eq!(
        forbid(&tree, EVERYWHERE, Any("opts.workers"), &["crates/eigen/src/options.rs"]),
        Ok(())
    );
    let moved = [file("crates/eigen/src/kernel.rs", "unsafe { load(p) }\n")];
    let err = forbid(&moved, LIBRARY, Any("unsafe {"), &[VECOPS]).unwrap_err();
    assert!(err.contains("crates/eigen/src/kernel.rs:1:"), "{err}");
}

#[test]
fn a_count_bound_fails_one_line_over() {
    let two = "#[target_feature(enable = \"avx512f\")]\n#[target_feature(enable = \"avx2\")]\n";
    let tree = [file(LANES, two)];
    assert_eq!(lines_in(&tree, LIBRARY, Any("#[target_feature"), &[LANES, LANES]), Ok(()));
    assert_eq!(at_most(&tree, LIBRARY, Any("#[target_feature"), 2), Ok(()));
    let three = [file(LANES, &format!("{two}#[target_feature(enable = \"sse2\")]\n"))];
    assert!(lines_in(&three, LIBRARY, Any("#[target_feature"), &[LANES, LANES]).is_err());
    assert!(at_most(&three, LIBRARY, Any("#[target_feature"), 2).is_err());
    let elsewhere =
        [file(LANES, two), file("crates/eigen/src/a.rs", "let x = _mm256_add_pd(a, b);\n")];
    let mm = Re("_mm(256|512)?_[a-z]", intrinsic);
    assert_eq!(
        files_with(
            &[file(LANES, "_mm_set1_pd"), file(WALK, "_mm_mul_pd")],
            LIBRARY,
            mm,
            &[LANES, WALK]
        ),
        Ok(())
    );
    assert!(files_with(&elsewhere, LIBRARY, mm, &[LANES]).is_err());
}

#[test]
fn each_predicate_is_its_regular_expression() {
    assert!(intrinsic("_mm256_fmadd_pd(a, b, c)") && intrinsic("_mm_set1_pd(x)"));
    assert!(intrinsic("_mm512_x") && !intrinsic("_mm256x_add") && !intrinsic("_mm_Add"));
    assert!(!intrinsic("_mm128_add_pd") && !intrinsic("__m256d"));
    assert!(unfused_turn("_mm512_sub_pd(_mm256_mul_pd(vc, x), y)"));
    assert!(!unfused_turn("_mm512_sub_pd(_mm512_mul_pd(x, vc), y)"));
    assert!(suffixed_entry_point("pub fn block_jacobi_traced(x: u8) {"));
    assert!(suffixed_entry_point("    pub fn solve_planned_with_q(&self) {"));
    assert!(suffixed_entry_point("pub fn run_fabric_jobs<T>() {"));
    assert!(
        !suffixed_entry_point("pub fn traced() {")
            && !suffixed_entry_point("pub fn run_tracedx() {")
    );
    assert!(
        !suffixed_entry_point("pub fn Run_traced() {")
            && !suffixed_entry_point("pub fn run_planned2() {")
    );
    assert!(
        !suffixed_entry_point("pub(crate) fn run_traced() {")
            && !suffixed_entry_point("fn run_traced() {")
    );
    assert!(port_model_arm("PortModel::AllPort =>") && port_model_arm("PortModel::KPort(k) => k,"));
    assert!(port_model_arm("Some(PortModel::KPort(2)) | PortModel::OnePort => 1"));
    assert!(
        !port_model_arm("PortModel::KPort(k) if k > 1 =>")
            && !port_model_arm("PortModel::AllPort,")
    );
    assert!(
        sends_windows("phase.sends[t].windows(2)")
            && !sends_windows("x.windows(2).all(|w| w[0] == sends)")
    );
    assert!(
        result_literal("    EigenResult { values, vectors }") && result_literal("Ok(SvdResult {")
    );
    assert!(!result_literal("fn f() -> EigenResult {") && !result_literal("impl SvdResult {"));
    let named =
        named_documents("see `DESIGN.md`, benchmark/README.md and ../x-y/NOTES_A.md (README.mdx)");
    assert_eq!(named, ["DESIGN.md", "benchmark/README.md", "../x-y/NOTES_A.md", "README.md"]);
    assert_eq!(
        named_documents("a/B.md/C.md, lib_ROADMAP.md, Cargo.md"),
        ["a/B.md/C.md", "_ROADMAP.md"]
    );
}
