//! The `netan-lint` rule registry: what each rule checks, where it
//! applies, and the token patterns that implement it.
//!
//! Every rule is grounded in a bug class this workspace has actually
//! shipped and fixed (see `crates/devtools/RULES.md` for the full
//! reference table):
//!
//! * [`LOSSY_CAST`] — the `plan_measurement` bare-`as`-`u32` saturation,
//! * [`NONDET_COLLECTION`] — hash-order nondeterminism vs the
//!   byte-identity contract every engine promises,
//! * [`WALLCLOCK_AND_ENTROPY`] — wall-clock time and ambient randomness
//!   anywhere in the workspace but this tool,
//! * [`UNSAFE_NEEDS_SAFETY`] — the AVX2 `unsafe` blocks added for the
//!   batched noise path,
//! * [`PANIC_IN_LIB`] — `unwrap`/`expect`/`panic!` in `netan` and
//!   `netan-serve` library paths, banned outright.

use crate::lexer::{Lexed, Tok};
use crate::{Diagnostic, FileCtx, FileKind};

/// Bare `as` numeric narrowing / float→int casts in library crates.
pub const LOSSY_CAST: &str = "lossy-cast";
/// `HashMap`/`HashSet` in the crates that promise bit-identical results.
pub const NONDET_COLLECTION: &str = "nondeterministic-collection";
/// `Instant::now` / `SystemTime` / `rand` outside devtools.
pub const WALLCLOCK_AND_ENTROPY: &str = "wallclock-and-entropy";
/// `unsafe` blocks need `// SAFETY:`, `unsafe fn`s need `# Safety` docs.
pub const UNSAFE_NEEDS_SAFETY: &str = "unsafe-needs-safety";
/// `unwrap`/`expect`/`panic!` in non-test `netan`/`netan-serve` library
/// paths.
pub const PANIC_IN_LIB: &str = "panic-in-lib";
/// A suppression directive whose target line has no matching finding.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";
/// A suppression directive naming a rule that does not exist.
pub const UNKNOWN_RULE: &str = "unknown-rule";
/// A suppression directive without a written justification.
pub const MISSING_JUSTIFICATION: &str = "missing-justification";

/// The suppressible rules, i.e. valid arguments to an `allow(...)`
/// directive.
pub const SUPPRESSIBLE: &[&str] = &[
    LOSSY_CAST,
    NONDET_COLLECTION,
    WALLCLOCK_AND_ENTROPY,
    UNSAFE_NEEDS_SAFETY,
    PANIC_IN_LIB,
];

/// Library crates whose shipped code paths must not silently narrow
/// numbers. The harness and tooling crates (`bench`, `proptest`,
/// `devtools`) are exempt.
const LOSSY_CAST_CRATES: &[&str] = &[
    "core", "mixsig", "dsp", "sigen", "dut", "sdeval", "ate", "serve",
];

/// Crates whose engines promise byte-identical serial/parallel/sharded
/// results; hash-order iteration is banned anywhere inside them.
const DETERMINISTIC_CRATES: &[&str] = &["core", "mixsig", "sdeval", "serve"];

/// Crates allowed to read wall-clock time and ambient entropy: only this
/// tool. Everything else — the figure harnesses in `bench` included —
/// derives timing from simulated clocks and randomness from seeded
/// streams. (Wall-clock measurement lives in `perfbench`, outside the
/// workspace.)
const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["devtools"];

/// Cast targets that can truncate, wrap, or saturate. `as f64` is exempt:
/// every integer the workspace feeds it is far below 2⁵³, and flagging it
/// would bury the dangerous casts under hundreds of benign widenings.
const NARROWING_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
];

/// Identifiers that read ambient entropy.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "getrandom", "OsRng"];

/// Whether `rule` governs files of this context. This is the per-crate
/// scoping table; `RULES.md` renders it in prose.
pub fn rule_applies(rule: &str, ctx: &FileCtx) -> bool {
    match rule {
        LOSSY_CAST => {
            ctx.kind == FileKind::Lib && LOSSY_CAST_CRATES.contains(&ctx.crate_name.as_str())
        }
        NONDET_COLLECTION => DETERMINISTIC_CRATES.contains(&ctx.crate_name.as_str()),
        WALLCLOCK_AND_ENTROPY => {
            !ctx.crate_name.is_empty()
                && !WALLCLOCK_EXEMPT_CRATES.contains(&ctx.crate_name.as_str())
        }
        PANIC_IN_LIB => {
            matches!(ctx.crate_name.as_str(), "core" | "serve") && ctx.kind == FileKind::Lib
        }
        // The unsafe-hygiene rule and all directive hygiene apply
        // everywhere, tests included.
        _ => true,
    }
}

/// `as` followed by a numeric type that can lose information.
pub fn lossy_cast(lexed: &Lexed) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if !matches!(&t.tok, Tok::Ident(s) if s == "as") {
            continue;
        }
        if let Some(next) = lexed.tokens.get(i + 1) {
            if let Tok::Ident(target) = &next.tok {
                if NARROWING_TARGETS.contains(&target.as_str()) {
                    out.push((
                        t.line,
                        format!(
                            "bare `as {target}` can truncate, wrap, or saturate; use \
                             `From`/`TryFrom` or justify the cast"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// `HashMap`/`HashSet`/`RandomState` anywhere (hash order is randomized
/// per process, so any observable iteration breaks bit-identity).
pub fn nondet_collection(lexed: &Lexed) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for t in &lexed.tokens {
        if let Tok::Ident(s) = &t.tok {
            if s == "HashMap" || s == "HashSet" || s == "RandomState" {
                out.push((
                    t.line,
                    format!(
                        "`{s}` iterates in randomized hash order; use `BTreeMap`/`BTreeSet` \
                         or a sorted `Vec` so results stay bit-identical"
                    ),
                ));
            }
        }
    }
    out
}

/// Wall-clock time and ambient entropy reads.
pub fn wallclock_and_entropy(lexed: &Lexed) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        let Tok::Ident(s) = &t.tok else { continue };
        let flagged = if s == "Instant" || s == "SystemTime" || ENTROPY_IDENTS.contains(&s.as_str())
        {
            true
        } else if s == "rand" {
            // Only as a path root (`rand::…`, `use rand`) — a local named
            // `rand` on its own is not an entropy source.
            (lexed.is_punct(i + 1, ':') && lexed.is_punct(i + 2, ':'))
                || (i > 0 && lexed.is_ident(i - 1, "use"))
        } else {
            false
        };
        if flagged {
            out.push((
                t.line,
                format!(
                    "`{s}` breaks run-to-run bit-identity; derive timing from simulated \
                     clocks and randomness from seeded noise streams"
                ),
            ));
        }
    }
    out
}

/// `unsafe` blocks/impls need an adjacent `// SAFETY:` comment; `unsafe
/// fn`s need a `# Safety` section in their doc comment.
pub fn unsafe_needs_safety(lexed: &Lexed, lines: &[&str]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(s) if s == "unsafe") {
            continue;
        }
        let line = t.line;
        match lexed.tokens.get(i + 1).map(|n| &n.tok) {
            Some(Tok::Ident(k)) if k == "fn" => {
                if !has_safety_doc_above(lines, line) {
                    out.push((
                        line,
                        "`unsafe fn` without a `# Safety` section in its doc comment \
                         stating the caller's obligations"
                            .to_string(),
                    ));
                }
            }
            _ => {
                // Block, `unsafe impl`, `unsafe trait`: require a SAFETY
                // comment on the same line or immediately above.
                if !has_safety_comment(lexed, lines, line) {
                    out.push((
                        line,
                        "`unsafe` without a `// SAFETY:` comment on the same or the \
                         immediately preceding line(s) justifying why the contract holds"
                            .to_string(),
                    ));
                }
            }
        }
    }
    out
}

/// A `// SAFETY:` comment on `line` itself or on the comment-only (or
/// attribute-only) lines immediately above it.
fn has_safety_comment(lexed: &Lexed, lines: &[&str], line: u32) -> bool {
    if lexed
        .comments
        .iter()
        .any(|c| c.line <= line && line <= c.end_line && c.text.contains("SAFETY:"))
    {
        return true;
    }
    let mut idx = line as usize - 1; // 0-based index of `line`
    while idx > 0 {
        idx -= 1;
        let t = lines.get(idx).map_or("", |l| l.trim());
        if t.starts_with("#[") || t.starts_with("#![") {
            continue;
        }
        if t.starts_with("//") || t.starts_with("/*") || t.starts_with('*') {
            if t.contains("SAFETY:") {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

/// A `///` doc block containing `# Safety` immediately above the
/// declaration at `line` (attribute lines in between are skipped).
fn has_safety_doc_above(lines: &[&str], line: u32) -> bool {
    let mut idx = line as usize - 1; // 0-based index of `line`
                                     // Skip attributes between the docs and the declaration.
    while idx > 0 {
        let t = lines[idx - 1].trim();
        if t.starts_with("#[") {
            idx -= 1;
        } else {
            break;
        }
    }
    while idx > 0 {
        let t = lines[idx - 1].trim();
        if t.starts_with("///") || t.starts_with("//!") {
            if t.contains("# Safety") {
                return true;
            }
            idx -= 1;
        } else {
            return false;
        }
    }
    false
}

/// `.unwrap(` / `.expect(` / `panic!` sites outside test code, in source
/// order.
pub fn panic_in_lib(lexed: &Lexed) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Tok::Ident(s) = &t.tok else { continue };
        let construct = if (s == "unwrap" || s == "expect")
            && i > 0
            && lexed.is_punct(i - 1, '.')
            && lexed.is_punct(i + 1, '(')
        {
            format!(".{s}()")
        } else if s == "panic" && lexed.is_punct(i + 1, '!') {
            "panic!".to_string()
        } else {
            continue;
        };
        out.push((
            t.line,
            format!("`{construct}` can panic in a library path; return a typed error instead"),
        ));
    }
    out
}

/// Runs every scoped rule over one lexed file, returning raw findings
/// (suppression directives are applied by the caller).
pub fn run_rules(ctx: &FileCtx, lexed: &Lexed, lines: &[&str], path: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |rule: &'static str, findings: Vec<(u32, String)>| {
        out.extend(findings.into_iter().map(|(line, message)| Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
        }));
    };
    if rule_applies(LOSSY_CAST, ctx) {
        push(LOSSY_CAST, lossy_cast(lexed));
    }
    if rule_applies(NONDET_COLLECTION, ctx) {
        push(NONDET_COLLECTION, nondet_collection(lexed));
    }
    if rule_applies(WALLCLOCK_AND_ENTROPY, ctx) {
        push(WALLCLOCK_AND_ENTROPY, wallclock_and_entropy(lexed));
    }
    if rule_applies(UNSAFE_NEEDS_SAFETY, ctx) {
        push(UNSAFE_NEEDS_SAFETY, unsafe_needs_safety(lexed, lines));
    }
    if rule_applies(PANIC_IN_LIB, ctx) {
        push(PANIC_IN_LIB, panic_in_lib(lexed));
    }
    out
}
