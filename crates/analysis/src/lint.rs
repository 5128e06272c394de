//! Workspace invariant linter, token-stream edition.
//!
//! Enforcement of repo-specific rules that `clippy` cannot express (run
//! with `cargo run -p analysis --bin lint`). Matching runs on the real
//! token stream from [`crate::lex`] — comments and string/char literal
//! contents never reach the rule matchers, nested block comments and
//! raw strings lex correctly, and `cfg(test)` exemption covers exactly
//! the attributed item (brace-matched), not "first `cfg(test)` to
//! end-of-file".
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `atomic-ordering` | `crates/queues/src` | every `Ordering::<X>` literal carries a justification at the call site: `// relaxed-ok: <why>` for `Relaxed`, `// ordering-ok: <why>` for any ordering — the queues' publish/consume edges are exactly what the model checker proves, so an unexplained ordering choice is a red flag |
//! | `atomic-facade` | `crates/queues/src` (except `sync.rs`) | every `Atomic*` type must be a `queues::sync` facade export (so the mini-loom model shadows it), and `std::sync::atomic::Atomic*` may not be named directly — only through the facade |
//! | `no-panic` | `crates/core/src`, `crates/nvmf/src` | no `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `.unwrap()` / `.expect(` in non-test code: malformed wire input must become a counted protocol error, not a crash (internal invariants may waive) |
//! | `no-threading` | all crates except `simkit`, `analysis`, and the bench `shims` | no `static mut`, `thread_local!`, or `thread::spawn` outside the sanctioned homes: the deterministic kernel owns all parallelism, and ad-hoc threads/globals are exactly the bugs the model checker cannot see (scoped `std::thread::scope` spawns in experiment drivers stay legal) |
//! | `wall-clock` | all crates except `simkit` and the bench `shims` | no `Instant` / `SystemTime`: simulations must be deterministic; real time enters only through `simkit` (e.g. its `Stopwatch`) |
//! | `hashmap-iter` | all crates | no iteration over `HashMap`s declared in the same file: iteration order is randomized per process and leaks nondeterminism into metrics, snapshots, and reports — use `BTreeMap`, sort first, or waive with a reason |
//! | `safety-comment` | all code incl. tests | every `unsafe` token is paired, by token span, with a `// SAFETY:` (or `# Safety` doc) comment: same line, or walking the token stream backwards through comments/attributes/signature tokens until the previous statement boundary (`;`, `{`, `}`) |
//! | `foreign-rand` | all crates except `simkit` and the `shims` | no `rand`-crate APIs (`thread_rng`, `StdRng`, …) or ad-hoc LCG multiplier constants: every random draw must flow from `simkit::rng` (seeded, forkable) or simulations stop being bit-reproducible |
//! | `no-payload-to_vec` | data-plane crates (`core`, `nvmf`, `nvme`, `fabric`, `queues`, `faults`) and `workload`, which issues every request | no `.to_vec()` in non-test code: payloads travel as refcounted `Bytes` handles allocated once at issue (DESIGN.md §12), and a stray copy silently re-introduces per-request allocation |
//!
//! Waivers: `// lint: allow(<rule>) <reason>` — anchored, not
//! substring-matched: the waiver text must *start* a comment line
//! (after the `//`/`/*`/leading-`*` furniture), on the offending line
//! or in the contiguous run of comment-only lines directly above it. A
//! waiver mentioned mid-sentence, or inside a string literal, does not
//! count. `atomic-ordering` also accepts its dedicated `relaxed-ok:` /
//! `ordering-ok:` markers, and `hashmap-iter` accepts
//! `hashmap-iter-ok:`.

use crate::lex::{lex, test_spans, Tok, TokKind};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One rule violation (or, with `waived` set, a justified exception —
/// reported by the audit API for `--json` consumers, filtered out of
/// the blocking lint).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier (e.g. `no-panic`).
    pub rule: &'static str,
    /// File, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub detail: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// True if an anchored waiver comment covers this finding.
    pub waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.rule,
            self.detail,
            self.excerpt
        )
    }
}

/// Per-file lint context: token stream plus line-indexed views of it.
struct Ctx<'s> {
    src: &'s str,
    rel: &'s Path,
    rel_str: String,
    toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens.
    code: Vec<usize>,
    /// 1-indexed by line (index 0 unused): line carries any code token.
    line_has_code: Vec<bool>,
    /// 1-indexed by line: stripped comment content lines on that line.
    comments: Vec<Vec<String>>,
    /// Byte spans of `#[cfg(test)]`-attributed items.
    tspans: Vec<Range<usize>>,
    in_test_file: bool,
    raw_lines: Vec<&'s str>,
}

/// Strip comment furniture: `//`(`/`|`!`), `/*`(`*`|`!`) … `*/`, and a
/// leading `*` on block-comment continuation lines. Returns one content
/// string per source line the comment token spans.
fn comment_content_lines(text: &str, kind: TokKind) -> Vec<String> {
    match kind {
        TokKind::LineComment => {
            let t = text.trim_start_matches('/');
            let t = t.strip_prefix('!').unwrap_or(t);
            vec![t.trim().to_string()]
        }
        TokKind::BlockComment => {
            let inner = text.strip_prefix("/*").unwrap_or(text);
            let inner = inner.strip_suffix("*/").unwrap_or(inner);
            let inner = inner.strip_prefix('*').unwrap_or(inner);
            let inner = inner.strip_prefix('!').unwrap_or(inner);
            inner
                .split('\n')
                .map(|l| l.trim().trim_start_matches('*').trim().to_string())
                .collect()
        }
        _ => Vec::new(),
    }
}

impl<'s> Ctx<'s> {
    fn new(rel: &'s Path, src: &'s str) -> Self {
        let toks = lex(src);
        let tspans = test_spans(src, &toks);
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| !toks[i].kind.is_comment())
            .collect();
        let nlines = src.lines().count() + 2;
        let mut line_has_code = vec![false; nlines + 1];
        let mut comments = vec![Vec::new(); nlines + 1];
        for tok in &toks {
            let text = tok.text(src);
            if tok.kind.is_comment() {
                for (k, content) in comment_content_lines(text, tok.kind)
                    .into_iter()
                    .enumerate()
                {
                    if let Some(slot) = comments.get_mut(tok.line + k) {
                        slot.push(content);
                    }
                }
            } else {
                let spanned = text.matches('\n').count();
                for l in tok.line..=tok.line + spanned {
                    if let Some(slot) = line_has_code.get_mut(l) {
                        *slot = true;
                    }
                }
            }
        }
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let in_test_file = rel_str.contains("/tests/")
            || rel_str.contains("/benches/")
            || rel_str.contains("/examples/");
        Ctx {
            src,
            rel,
            rel_str,
            toks,
            code,
            line_has_code,
            comments,
            tspans,
            in_test_file,
            raw_lines: src.lines().collect(),
        }
    }

    /// Text of the `ci`-th code token ("" past the end).
    fn t(&self, ci: usize) -> &str {
        self.code
            .get(ci)
            .map(|&i| self.toks[i].text(self.src))
            .unwrap_or("")
    }

    fn kind(&self, ci: usize) -> Option<TokKind> {
        self.code.get(ci).map(|&i| self.toks[i].kind)
    }

    fn line_of(&self, ci: usize) -> usize {
        self.code.get(ci).map(|&i| self.toks[i].line).unwrap_or(1)
    }

    /// Do the code tokens starting at `ci` match `pats` exactly?
    fn seq(&self, ci: usize, pats: &[&str]) -> bool {
        pats.iter().enumerate().all(|(k, p)| self.t(ci + k) == *p)
    }

    /// Is the `ci`-th code token inside test code?
    fn is_test(&self, ci: usize) -> bool {
        if self.in_test_file {
            return true;
        }
        let Some(&i) = self.code.get(ci) else {
            return false;
        };
        let at = self.toks[i].span.start;
        self.tspans.iter().any(|s| s.contains(&at))
    }

    /// Anchored waiver check: a comment content line starting with
    /// `lint: allow(<rule>)` or one of `markers`, on `line` itself or in
    /// the contiguous run of comment-only lines directly above.
    fn waived(&self, line: usize, rule: &str, markers: &[&str]) -> bool {
        let allow = format!("lint: allow({rule})");
        let hit = |l: usize| {
            self.comments.get(l).is_some_and(|cs| {
                cs.iter()
                    .any(|c| c.starts_with(&allow) || markers.iter().any(|m| c.starts_with(m)))
            })
        };
        if hit(line) {
            return true;
        }
        let mut l = line;
        while l > 1
            && !self.line_has_code[l - 1]
            && self.comments.get(l - 1).is_some_and(|c| !c.is_empty())
        {
            l -= 1;
            if hit(l) {
                return true;
            }
        }
        false
    }

    fn push(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        line: usize,
        detail: String,
        waived: bool,
    ) {
        out.push(Finding {
            rule,
            file: self.rel.to_path_buf(),
            line,
            detail,
            excerpt: self
                .raw_lines
                .get(line.saturating_sub(1))
                .unwrap_or(&"")
                .trim()
                .to_string(),
            waived,
        });
    }
}

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// `atomic-ordering`: every `Ordering::<X>` in queue code justified at
/// the call site.
fn rule_atomic_ordering(ctx: &Ctx, out: &mut Vec<Finding>) {
    if !ctx.rel_str.contains("crates/queues/src") {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.t(ci) != "Ordering" || !ctx.seq(ci + 1, &[":", ":"]) {
            continue;
        }
        let ord = ctx.t(ci + 3).to_string();
        if !ORDERINGS.contains(&ord.as_str()) || ctx.is_test(ci) {
            continue;
        }
        let line = ctx.line_of(ci);
        let markers: &[&str] = if ord == "Relaxed" {
            &["relaxed-ok:", "ordering-ok:"]
        } else {
            &["ordering-ok:"]
        };
        let waived = ctx.waived(line, "atomic-ordering", markers);
        ctx.push(
            out,
            "atomic-ordering",
            line,
            format!(
                "Ordering::{ord} on a queue path without a justification — add \
                 `// ordering-ok: <why>` (or `// relaxed-ok: <why>` for Relaxed) \
                 at the call site"
            ),
            waived,
        );
    }
}

/// `atomic-facade`: queue code may only name `Atomic*` types exported by
/// the `queues::sync` facade, and never via `std::sync::atomic` paths.
fn rule_atomic_facade(ctx: &Ctx, out: &mut Vec<Finding>, facade: Option<&BTreeSet<String>>) {
    if !ctx.rel_str.contains("crates/queues/src") || ctx.rel_str.ends_with("sync.rs") {
        return;
    }
    let is_atomic = |t: &str| t.starts_with("Atomic") && t.len() > "Atomic".len();
    for ci in 0..ctx.code.len() {
        // Direct std path: `std :: sync :: atomic :: …` reaching an
        // Atomic type (either immediately or inside a `{…}` use-group).
        if ctx.seq(ci, &["std", ":", ":", "sync", ":", ":", "atomic", ":", ":"]) && !ctx.is_test(ci)
        {
            let mut hits: Vec<usize> = Vec::new();
            if is_atomic(ctx.t(ci + 9)) {
                hits.push(ci + 9);
            } else if ctx.t(ci + 9) == "{" {
                let mut j = ci + 10;
                while j < ctx.code.len() && ctx.t(j) != "}" {
                    if is_atomic(ctx.t(j)) {
                        hits.push(j);
                    }
                    j += 1;
                }
            }
            for h in hits {
                let line = ctx.line_of(h);
                let waived = ctx.waived(line, "atomic-facade", &[]);
                let name = ctx.t(h).to_string();
                ctx.push(
                    out,
                    "atomic-facade",
                    line,
                    format!(
                        "std::sync::atomic::{name} named directly — queue code must go \
                         through the crate::sync facade so the model checker shadows it"
                    ),
                    waived,
                );
            }
        }
        // Facade-membership: any Atomic* identifier must be an export of
        // queues::sync (checked only when the facade set is available).
        if let Some(facade) = facade {
            if ctx.kind(ci) == Some(TokKind::Ident)
                && is_atomic(ctx.t(ci))
                && !facade.contains(ctx.t(ci))
                && !ctx.is_test(ci)
            {
                let line = ctx.line_of(ci);
                let waived = ctx.waived(line, "atomic-facade", &[]);
                let name = ctx.t(ci).to_string();
                ctx.push(
                    out,
                    "atomic-facade",
                    line,
                    format!(
                        "{name} has no loom-facade twin in queues::sync — add it to both \
                         facade branches so the mini-loom model can shadow it"
                    ),
                    waived,
                );
            }
        }
    }
}

/// `no-panic`: protocol code must return typed errors, not crash.
fn rule_no_panic(ctx: &Ctx, out: &mut Vec<Finding>) {
    if !ctx.rel_str.contains("crates/core/src") && !ctx.rel_str.contains("crates/nvmf/src") {
        return;
    }
    for ci in 0..ctx.code.len() {
        let what = if matches!(
            ctx.t(ci),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && ctx.t(ci + 1) == "!"
        {
            Some(format!("{}!", ctx.t(ci)))
        } else if ctx.t(ci) == "." && matches!(ctx.t(ci + 1), "unwrap" | "expect") {
            Some(format!(".{}()", ctx.t(ci + 1)))
        } else {
            None
        };
        let Some(what) = what else { continue };
        if ctx.is_test(ci) {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "no-panic", &[]);
        ctx.push(
            out,
            "no-panic",
            line,
            format!(
                "{what} in protocol code — malformed input must be a counted \
                 protocol error, not a crash (waive for internal invariants)"
            ),
            waived,
        );
    }
}

/// `no-threading`: no ad-hoc parallelism or mutable globals outside the
/// sanctioned homes — the deterministic kernel owns all concurrency.
fn rule_no_threading(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.rel_str.contains("crates/simkit/")
        || ctx.rel_str.contains("crates/analysis/")
        || ctx.rel_str.contains("crates/shims/")
    {
        return;
    }
    for ci in 0..ctx.code.len() {
        let what = if ctx.seq(ci, &["static", "mut"]) {
            Some("static mut")
        } else if ctx.seq(ci, &["thread_local", "!"]) {
            Some("thread_local!")
        } else if ctx.seq(ci, &["thread", ":", ":", "spawn"]) {
            Some("thread::spawn")
        } else {
            None
        };
        let Some(what) = what else { continue };
        if ctx.is_test(ci) {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "no-threading", &[]);
        ctx.push(
            out,
            "no-threading",
            line,
            format!(
                "{what} outside simkit/analysis: the deterministic kernel owns all \
                 parallelism — free threads and mutable globals break reproducibility \
                 and evade the model checker"
            ),
            waived,
        );
    }
}

/// `wall-clock`: real time only enters through simkit.
fn rule_wall_clock(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.rel_str.contains("crates/simkit/") || ctx.rel_str.contains("crates/shims/") {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.kind(ci) != Some(TokKind::Ident)
            || !matches!(ctx.t(ci), "Instant" | "SystemTime")
            || ctx.is_test(ci)
        {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "wall-clock", &[]);
        let name = ctx.t(ci).to_string();
        ctx.push(
            out,
            "wall-clock",
            line,
            format!("{name}: wall-clock time outside simkit breaks determinism"),
            waived,
        );
    }
}

/// `foreign-rand`: all randomness flows from simkit::rng.
fn rule_foreign_rand(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.rel_str.contains("crates/simkit/") || ctx.rel_str.contains("crates/shims/") {
        return;
    }
    const LCG: &[&str] = &["6364136223846793005", "1103515245"];
    let mut lines = BTreeSet::new();
    for ci in 0..ctx.code.len() {
        let hit = (ctx.t(ci) == "rand" && ctx.seq(ci + 1, &[":", ":"]))
            || (ctx.kind(ci) == Some(TokKind::Ident)
                && matches!(
                    ctx.t(ci),
                    "thread_rng" | "from_entropy" | "StdRng" | "SmallRng" | "OsRng"
                ))
            || (ctx.kind(ci) == Some(TokKind::NumLit) && {
                let digits: String = ctx.t(ci).chars().filter(|&c| c != '_').collect();
                LCG.iter().any(|l| digits.contains(l))
            });
        if hit && !ctx.is_test(ci) {
            lines.insert(ctx.line_of(ci));
        }
    }
    for line in lines {
        let waived = ctx.waived(line, "foreign-rand", &[]);
        ctx.push(
            out,
            "foreign-rand",
            line,
            "randomness outside simkit::rng — use Kernel::rng() / Pcg32::fork so \
             runs stay seeded and bit-reproducible"
                .to_string(),
            waived,
        );
    }
}

/// `no-payload-to_vec`: the data plane moves `Bytes` handles, not copies.
fn rule_no_to_vec(ctx: &Ctx, out: &mut Vec<Finding>) {
    let in_scope = [
        "crates/core/src",
        "crates/nvmf/src",
        "crates/nvme/src",
        "crates/fabric/src",
        "crates/queues/src",
        "crates/faults/src",
        "crates/workload/src",
    ]
    .iter()
    .any(|s| ctx.rel_str.contains(s));
    if !in_scope {
        return;
    }
    for ci in 0..ctx.code.len() {
        if !ctx.seq(ci, &[".", "to_vec", "("]) || ctx.is_test(ci) {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "no-payload-to_vec", &[]);
        ctx.push(
            out,
            "no-payload-to_vec",
            line,
            ".to_vec() on the data plane: payloads are shared `Bytes` handles — \
             copying re-introduces per-request allocation (DESIGN.md §12)"
                .to_string(),
            waived,
        );
    }
}

/// `hashmap-iter`: no iteration over `HashMap`s declared in this file.
fn rule_hashmap_iter(ctx: &Ctx, out: &mut Vec<Finding>) {
    // Pass 1: identifiers declared as HashMap — `name: [path::]HashMap`
    // fields/bindings and `name = [path::]HashMap` initializations.
    let mut idents: BTreeSet<String> = BTreeSet::new();
    for ci in 0..ctx.code.len() {
        if ctx.t(ci) != "HashMap" {
            continue;
        }
        // Walk back over a `seg :: seg :: HashMap` path to its start.
        let mut s = ci;
        while s >= 3
            && ctx.t(s - 1) == ":"
            && ctx.t(s - 2) == ":"
            && ctx.kind(s - 3) == Some(TokKind::Ident)
        {
            s -= 3;
        }
        if s < 2 {
            continue;
        }
        let before = ctx.t(s - 1);
        let single_colon = before == ":" && (s < 2 || ctx.t(s.wrapping_sub(2)) != ":");
        if (single_colon || before == "=") && ctx.kind(s - 2) == Some(TokKind::Ident) {
            let name = ctx.t(s - 2);
            if name != "mut" && !name.chars().next().is_some_and(|c| c.is_numeric()) {
                idents.insert(name.to_string());
            }
        }
    }
    if idents.is_empty() {
        return;
    }
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_iter",
        "into_keys",
        "into_values",
        "retain",
    ];
    // Pass 2: iteration sites — one finding per line.
    let mut hits: Vec<(usize, String)> = Vec::new();
    for ci in 0..ctx.code.len() {
        // `map.keys()` method form.
        if ctx.kind(ci) == Some(TokKind::Ident)
            && idents.contains(ctx.t(ci))
            && ctx.t(ci + 1) == "."
            && ITER_METHODS.contains(&ctx.t(ci + 2))
            && ctx.t(ci + 3) == "("
            && !ctx.is_test(ci)
        {
            hits.push((ctx.line_of(ci), ctx.t(ci).to_string()));
        }
        // `for … in [&][mut ][self.]map` form (a trailing `.` or `(`
        // means a method call or fn result, handled above / not ours).
        if ctx.t(ci) == "in" {
            let mut j = ci + 1;
            while ctx.t(j) == "&" {
                j += 1;
            }
            if ctx.t(j) == "mut" {
                j += 1;
            }
            if ctx.t(j) == "self" && ctx.t(j + 1) == "." {
                j += 2;
            }
            if ctx.kind(j) == Some(TokKind::Ident)
                && idents.contains(ctx.t(j))
                && ctx.t(j + 1) != "."
                && ctx.t(j + 1) != "("
                && !ctx.is_test(j)
            {
                hits.push((ctx.line_of(j), ctx.t(j).to_string()));
            }
        }
    }
    let mut seen_lines = BTreeSet::new();
    for (line, ident) in hits {
        if !seen_lines.insert(line) {
            continue;
        }
        let waived = ctx.waived(line, "hashmap-iter", &["hashmap-iter-ok:"]);
        ctx.push(
            out,
            "hashmap-iter",
            line,
            format!(
                "iteration over HashMap `{ident}`: order is nondeterministic — \
                 use BTreeMap, sort, or waive with a reason"
            ),
            waived,
        );
    }
}

/// `safety-comment`: pair every `unsafe` with a SAFETY comment by token
/// span — same line, or backwards through comments/attributes/signature
/// tokens until the previous statement boundary.
fn rule_safety_comment(ctx: &Ctx, out: &mut Vec<Finding>) {
    let safety = |t: &Tok| {
        let text = t.text(ctx.src);
        text.contains("SAFETY") || text.contains("# Safety")
    };
    for ti in 0..ctx.toks.len() {
        let tok = &ctx.toks[ti];
        if tok.kind != TokKind::Ident || tok.text(ctx.src) != "unsafe" {
            continue;
        }
        // Same-line comment (before or after the unsafe token).
        let mut ok = ctx
            .toks
            .iter()
            .any(|t| t.kind.is_comment() && t.line == tok.line && safety(t));
        // Token-span walk backwards: comments and attribute/signature
        // tokens are transparent; `;` / `{` / `}` end the search at the
        // previous statement boundary.
        let mut j = ti;
        while !ok && j > 0 {
            j -= 1;
            let prev = &ctx.toks[j];
            if prev.kind.is_comment() {
                if safety(prev) {
                    ok = true;
                }
                continue;
            }
            if matches!(prev.text(ctx.src), ";" | "{" | "}") {
                break;
            }
        }
        if ok {
            continue;
        }
        let line = tok.line;
        let waived = ctx.waived(line, "safety-comment", &[]);
        ctx.push(
            out,
            "safety-comment",
            line,
            "`unsafe` without a paired `// SAFETY:` (or `# Safety` doc) comment".to_string(),
            waived,
        );
    }
}

/// Parse the `Atomic*` exports of a `queues::sync` facade source: every
/// `Atomic`-prefixed identifier that appears in it (both cfg branches
/// re-export the same names, so a plain scan is exact).
pub fn facade_atomics(src: &str) -> BTreeSet<String> {
    let toks = lex(src);
    toks.iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text(src))
        .filter(|t| t.starts_with("Atomic") && t.len() > "Atomic".len())
        .map(str::to_string)
        .collect()
}

/// Audit one file: every finding, including waived ones. `facade` is the
/// `queues::sync` Atomic export set for the `atomic-facade` rule (None
/// skips the membership check; the direct-std-path check always runs).
pub fn audit_source_with(rel: &Path, src: &str, facade: Option<&BTreeSet<String>>) -> Vec<Finding> {
    let ctx = Ctx::new(rel, src);
    let mut out = Vec::new();
    rule_atomic_ordering(&ctx, &mut out);
    rule_atomic_facade(&ctx, &mut out, facade);
    rule_no_panic(&ctx, &mut out);
    rule_no_threading(&ctx, &mut out);
    rule_wall_clock(&ctx, &mut out);
    rule_foreign_rand(&ctx, &mut out);
    rule_no_to_vec(&ctx, &mut out);
    rule_safety_comment(&ctx, &mut out);
    rule_hashmap_iter(&ctx, &mut out);
    out.sort_by_key(|f| f.line);
    out
}

/// Lint one file: unwaived violations only.
pub fn lint_source_with(rel: &Path, src: &str, facade: Option<&BTreeSet<String>>) -> Vec<Finding> {
    audit_source_with(rel, src, facade)
        .into_iter()
        .filter(|f| !f.waived)
        .collect()
}

/// Lint one file with no facade context (unit-test convenience).
pub fn lint_source(rel: &Path, src: &str) -> Vec<Finding> {
    lint_source_with(rel, src, None)
}

/// True when `dir` holds the manifest of a Cargo workspace of its own (a
/// `[workspace]` table). Such a tree builds under its own rules, not this
/// workspace's: the `perfbench/` benchmark, for one, must read the host
/// clock to time the simulator.
fn is_own_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Recursively collect `.rs` files under `dir`, skipping build output,
/// VCS metadata and nested Cargo workspaces.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || is_own_workspace(&path) {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Audit every `.rs` file under `root`: all findings, waived included,
/// sorted by path and line. The `queues::sync` facade export set is
/// parsed from the checkout itself.
pub fn audit_workspace(root: &Path) -> Vec<Finding> {
    let facade = std::fs::read_to_string(root.join("crates/queues/src/sync.rs"))
        .map(|src| facade_atomics(&src))
        .ok();
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    let mut findings = Vec::new();
    for path in files {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        findings.extend(audit_source_with(rel, &src, facade.as_ref()));
    }
    findings
}

/// Lint every `.rs` file under `root` (the workspace checkout). Findings
/// are sorted by path and line; empty means the workspace is clean.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    audit_workspace(root)
        .into_iter()
        .filter(|f| !f.waived)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(Path::new(rel), src)
    }

    #[test]
    fn ordering_needs_justification() {
        let src = "use std::sync::atomic::Ordering;\nfn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n";
        let f = lint("crates/queues/src/x.rs", src);
        assert!(f.iter().any(|x| x.rule == "atomic-ordering" && x.line == 2));

        let ok = "fn f(a: &AtomicUsize) {\n    // relaxed-ok: producer-owned index\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(lint("crates/queues/src/x.rs", ok).is_empty());
        // Acquire/Release need a justification too — relaxed-ok does not
        // cover them, ordering-ok does.
        let acq = "fn f(a: &AtomicUsize) {\n    // relaxed-ok: wrong marker\n    a.load(Ordering::Acquire);\n}\n";
        assert_eq!(lint("crates/queues/src/x.rs", acq).len(), 1);
        let acq_ok = "fn f(a: &AtomicUsize) {\n    // ordering-ok: pairs with the Release in push\n    a.load(Ordering::Acquire);\n}\n";
        assert!(lint("crates/queues/src/x.rs", acq_ok).is_empty());
        // Out of scope: other crates may pick orderings freely.
        assert!(lint("crates/core/src/x.rs", src)
            .iter()
            .all(|x| x.rule != "atomic-ordering"));
    }

    #[test]
    fn atomic_facade_membership_and_std_path() {
        let facade: BTreeSet<String> = ["AtomicUsize".to_string(), "AtomicPtr".to_string()].into();
        // An Atomic type with no facade twin.
        let src = "use crate::sync::AtomicUsize;\nfn f(x: &AtomicU64) { let _ = x; }\n";
        let f = lint_source_with(Path::new("crates/queues/src/x.rs"), src, Some(&facade));
        assert!(
            f.iter()
                .any(|x| x.rule == "atomic-facade" && x.detail.contains("AtomicU64")),
            "{f:?}"
        );
        // Facade members are fine.
        let ok = "use crate::sync::{AtomicUsize, AtomicPtr};\nfn f(a: &AtomicUsize, p: &AtomicPtr<u8>) { let _ = (a, p); }\n";
        assert!(
            lint_source_with(Path::new("crates/queues/src/x.rs"), ok, Some(&facade)).is_empty()
        );
        // Direct std path is flagged even for facade members…
        let std_path = "use std::sync::atomic::AtomicUsize;\n";
        let f = lint_source_with(Path::new("crates/queues/src/x.rs"), std_path, Some(&facade));
        assert!(f.iter().any(|x| x.rule == "atomic-facade"), "{f:?}");
        // …including inside a use-group, while `Ordering` alone is fine.
        let group = "use std::sync::atomic::{AtomicUsize, Ordering};\n";
        let f = lint_source_with(Path::new("crates/queues/src/x.rs"), group, Some(&facade));
        assert_eq!(f.iter().filter(|x| x.rule == "atomic-facade").count(), 1);
        assert!(lint_source_with(
            Path::new("crates/queues/src/x.rs"),
            "use std::sync::atomic::Ordering;\n",
            Some(&facade)
        )
        .is_empty());
        // sync.rs itself and non-queues crates are out of scope.
        assert!(
            lint_source_with(Path::new("crates/queues/src/sync.rs"), src, Some(&facade)).is_empty()
        );
        assert!(lint_source_with(Path::new("crates/core/src/x.rs"), src, Some(&facade)).is_empty());
    }

    #[test]
    fn no_panic_rule_and_waiver() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic");

        let waived =
            "// lint: allow(no-panic) internal invariant: set two lines up\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        assert!(lint("crates/nvmf/src/x.rs", waived).is_empty());
        // unwrap_or_else must not match.
        assert!(lint(
            "crates/core/src/x.rs",
            "fn f(o: Option<u8>) -> u8 { o.unwrap_or_else(|| 0) }\n"
        )
        .is_empty());
        // The new ports: unreachable!/todo!/unimplemented! are crashes too.
        for bad in ["unreachable!(\"x\")", "todo!()", "unimplemented!()"] {
            let src = format!("fn f() {{ {bad} }}\n");
            let f = lint("crates/nvmf/src/x.rs", &src);
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!(f[0].rule, "no-panic");
        }
        // Out of scope crate.
        assert!(lint("crates/workload/src/x.rs", src).is_empty());
    }

    #[test]
    fn waiver_in_string_does_not_waive() {
        // The waiver text inside a string literal is data, not a waiver.
        let src = "fn f(o: Option<u8>) -> u8 {\n    let _msg = \"lint: allow(no-panic) not a real waiver\";\n    o.unwrap()\n}\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn waiver_mentioned_mid_comment_does_not_waive() {
        // A comment that merely *mentions* the waiver syntax must not
        // waive — the old substring engine honored this.
        let src = "// see lint: allow(no-panic) in target.rs for the pattern\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        // Anchored at comment start still works, including block form.
        let ok = "/* lint: allow(no-panic) internal invariant */\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        assert!(lint("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn audit_reports_waived_findings() {
        let src = "// lint: allow(no-panic) internal invariant\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let all = audit_source_with(Path::new("crates/core/src/x.rs"), src, None);
        assert_eq!(all.len(), 1);
        assert!(all[0].waived);
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_region_is_exempt_and_precisely_scoped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
        let in_tests_dir = "fn t() { let _x: Option<Instant> = None; }\n";
        assert!(lint("crates/core/tests/x.rs", in_tests_dir).is_empty());
        // Precision: code *after* a cfg(test) module is production again
        // (the old first-cfg(test)-to-EOF heuristic exempted it).
        let after = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let f = lint("crates/core/src/x.rs", after);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn no_threading_rule() {
        for (bad, name) in [
            ("static mut COUNTER: u64 = 0;\n", "static mut"),
            ("thread_local! { static X: u8 = 0; }\n", "thread_local!"),
            ("fn f() { std::thread::spawn(|| {}); }\n", "thread::spawn"),
        ] {
            let f = lint("crates/core/src/x.rs", bad);
            assert!(
                f.iter().any(|x| x.rule == "no-threading"),
                "{name} must be flagged: {f:?}"
            );
        }
        // Scoped spawns (experiment drivers) are legal: `s.spawn` has no
        // `thread::` path.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(lint("crates/experiments/src/x.rs", scoped)
            .iter()
            .all(|x| x.rule != "no-threading"));
        // Sanctioned homes.
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert!(lint("crates/simkit/src/x.rs", spawn).is_empty());
        assert!(lint("crates/analysis/src/x.rs", spawn).is_empty());
        // The threaded conservative-lookahead engine (DESIGN.md §17)
        // lives inside the simkit sanction: scoped lane workers pass.
        let engine =
            "pub fn run() { std::thread::scope(|s| { for _ in 0..4 { s.spawn(|| {}); } }); }\n";
        assert!(lint("crates/simkit/src/parallel.rs", engine).is_empty());
        // Test code is exempt (stress tests drive real threads).
        assert!(lint("crates/queues/tests/x.rs", spawn).is_empty());
    }

    #[test]
    fn wall_clock_outside_simkit() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        let f = lint("crates/experiments/src/bin/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert!(lint("crates/simkit/src/time.rs", src).is_empty());
        // `Instant` in a string or comment does not trip the token rule.
        assert!(lint(
            "crates/experiments/src/x.rs",
            "// Instant is banned here\nfn f() { let _ = \"Instant\"; }\n"
        )
        .is_empty());
    }

    #[test]
    fn hashmap_iteration_flagged() {
        let src = "use std::collections::HashMap;\nstruct S { conns: HashMap<u16, u8> }\nimpl S {\n    fn metrics(&self) -> Vec<u16> { self.conns.keys().copied().collect() }\n}\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hashmap-iter");
        assert_eq!(f[0].line, 4);

        // for-loop form on a local.
        let src2 =
            "fn f() {\n    let m = HashMap::new;\n    let m = HashMap::new();\n    for (k, v) in &m { let _ = (k, v); }\n}\n";
        let f2 = lint("crates/core/src/x.rs", src2);
        assert_eq!(f2.len(), 1, "{f2:?}");

        // Lookup (no iteration) is fine.
        let src3 = "struct S { conns: HashMap<u16, u8> }\nimpl S {\n    fn get(&self, k: u16) -> Option<&u8> { self.conns.get(&k) }\n}\n";
        assert!(lint("crates/core/src/x.rs", src3).is_empty());

        // Waived.
        let src4 = "struct S { conns: HashMap<u16, u8> }\nimpl S {\n    fn all(&self) -> Vec<u16> {\n        // hashmap-iter-ok: sorted below\n        let mut v: Vec<u16> = self.conns.keys().copied().collect();\n        v.sort_unstable(); v\n    }\n}\n";
        assert!(
            lint("crates/core/src/x.rs", src4).is_empty(),
            "{:?}",
            lint("crates/core/src/x.rs", src4)
        );
    }

    #[test]
    fn foreign_rand_flagged() {
        let src = "fn f() -> u32 { rand::thread_rng().gen() }\n";
        let f = lint("crates/workload/src/x.rs", src);
        assert!(
            f.iter().any(|x| x.rule == "foreign-rand"),
            "rand:: path use must be flagged: {f:?}"
        );

        // Ad-hoc LCG with digit-group underscores.
        let lcg =
            "fn f(s: u64) -> u64 { s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) }\n";
        assert_eq!(lint("crates/workload/src/x.rs", lcg).len(), 1);
        let posix = "fn f(s: u32) -> u32 { s.wrapping_mul(1103515245).wrapping_add(12345) }\n";
        assert_eq!(lint("crates/nvme/src/x.rs", posix).len(), 1);

        // Sanctioned homes: simkit's own PCG and the deterministic
        // proptest shim.
        assert!(lint("crates/simkit/src/rng.rs", lcg).is_empty());
        assert!(lint("crates/shims/proptest/src/lib.rs", lcg).is_empty());

        // Test code is exempt; waivers work; comments/strings don't trip;
        // identifiers merely ending in "rand" don't trip.
        assert!(lint("crates/workload/tests/x.rs", src).is_empty());
        let waived = "// lint: allow(foreign-rand) vendored reference constant\nfn f(s: u32) -> u32 { s.wrapping_mul(1103515245) }\n";
        assert!(lint("crates/workload/src/x.rs", waived).is_empty());
        assert!(lint(
            "crates/workload/src/x.rs",
            "// rand::thread_rng is banned here\nfn f() { let _ = \"StdRng\"; }\n"
        )
        .is_empty());
        assert!(lint("crates/workload/src/x.rs", "fn f() { operand::eval(); }\n").is_empty());
    }

    #[test]
    fn payload_to_vec_flagged_on_data_plane() {
        let src = "fn f(b: &Bytes) -> Vec<u8> { b.to_vec() }\n";
        for scope in [
            "crates/core/src/x.rs",
            "crates/nvmf/src/x.rs",
            "crates/nvme/src/x.rs",
            "crates/fabric/src/x.rs",
            "crates/queues/src/x.rs",
            "crates/faults/src/x.rs",
        ] {
            let f = lint(scope, src);
            assert!(
                f.iter().any(|x| x.rule == "no-payload-to_vec"),
                "{scope}: {f:?}"
            );
        }
        // `workload` issues every request, so it is in scope.
        assert!(lint("crates/workload/src/x.rs", src)
            .iter()
            .any(|x| x.rule == "no-payload-to_vec"));
        // Off the data plane (reports, experiments) copies are fine.
        assert!(lint("crates/experiments/src/x.rs", src).is_empty());
        // Test code is exempt.
        assert!(lint(
            "crates/nvmf/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(b: &Bytes) -> Vec<u8> { b.to_vec() }\n}\n"
        )
        .is_empty());
        // The single sanctioned site is waived with a reason.
        let waived = "// lint: allow(no-payload-to_vec) copy-on-write: corrupt must not\n// mutate the shared buffer\nfn f(b: &Bytes) -> Vec<u8> { b.to_vec() }\n";
        assert!(lint("crates/faults/src/x.rs", waived).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let f = lint("crates/queues/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");

        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees validity\n    unsafe { *p }\n}\n";
        assert!(lint("crates/queues/src/x.rs", ok).is_empty());

        // Applies inside test code too.
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        assert_eq!(lint("crates/queues/src/x.rs", in_test).len(), 1);

        // `unsafe impl` with the comment directly above, through an
        // attribute.
        let imp =
            "// SAFETY: T is Send\n#[allow(dead_code)]\nunsafe impl<T: Send> Send for X<T> {}\n";
        assert!(lint("crates/queues/src/x.rs", imp).is_empty());

        // Token-span pairing: a SAFETY comment separated from the
        // `unsafe` by a complete statement does not cover it.
        let stale = "fn f(p: *const u8) -> u8 {\n    // SAFETY: covers something else\n    let _x = 1;\n    unsafe { *p }\n}\n";
        let f = lint("crates/queues/src/x.rs", stale);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);

        // Doc-comment `# Safety` on an unsafe fn counts.
        let doc = "/// # Safety\n/// `p` must be valid for reads.\npub unsafe fn read(p: *const u8) -> u8 { *p }\n";
        assert!(lint("crates/queues/src/x.rs", doc)
            .iter()
            .all(|x| x.rule != "safety-comment"));
    }

    #[test]
    fn facade_atomics_parses_exports() {
        let src =
            "pub use std::sync::atomic::{AtomicPtr, AtomicUsize};\npub struct UnsafeCell<T>(T);\n";
        let set = facade_atomics(src);
        assert!(set.contains("AtomicUsize") && set.contains("AtomicPtr"));
        assert_eq!(set.len(), 2);
    }
}
