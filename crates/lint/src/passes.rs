//! The lint passes. Each works over [`SourceFile`] token streams and emits
//! [`Finding`]s with stable diagnostic codes:
//!
//! | code | pass | meaning |
//! |------|------|---------|
//! | L101 | determinism | wall-clock or ambient RNG in sim-governed code |
//! | L201 | lock discipline | lock guard held across a journal/fsync boundary |
//! | L202 | lock discipline | overlapping lock guards (nested locking) |
//! | L301 | policy purity | interior mutability inside a `SelectionPolicy` impl |
//! | L302 | policy purity | clock or RNG inside a `SelectionPolicy` impl |
//! | L303 | policy purity | I/O inside a `SelectionPolicy` impl |
//! | L401 | codec integrity | duplicate event tag byte |
//! | L402 | codec integrity | `Event` variant missing an encode or decode arm |
//! | L403 | codec integrity | encode and decode arms disagree on a tag |
//! | W501 | hygiene | `#[allow(...)]` attribute without a justifying comment |
//!
//! L1/L2 honor `// cg-lint: allow(<kind>): <reason>` escape hatches on the
//! finding's line or the line above (`wall-clock`, `lock-across-io`,
//! `nested-lock`). L3 and L4 are invariants with no escape hatch. W501 is
//! satisfied by any plain `//` comment on the attribute's line or the line
//! above (doc comments belong to the item, not the allow, and don't count).

use crate::scan::{int_value, SourceFile, Tok, TokKind};
use cg_jdl::{Diagnostic, Pos, Severity};
use std::collections::HashMap;

/// One lint finding: a diagnostic anchored to a file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, as scanned.
    pub path: String,
    /// The diagnostic (code, position, message, optional help).
    pub diag: Diagnostic,
}

fn finding(
    path: &str,
    severity: Severity,
    code: &'static str,
    pos: Pos,
    message: String,
    help: Option<String>,
) -> Finding {
    Finding {
        path: path.to_string(),
        diag: Diagnostic {
            severity,
            code,
            pos,
            message,
            help,
        },
    }
}

/// Runs every pass over `files` and returns the findings sorted by
/// (path, line, col, code) so output is deterministic.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !exempt_from_determinism(&f.path) {
            determinism(f, &mut out);
        }
        lock_discipline(f, &mut out);
        policy_purity(f, &mut out);
        allow_hygiene(f, &mut out);
    }
    codec_integrity(files, &mut out);
    out.sort_by(|a, b| {
        (
            a.path.as_str(),
            a.diag.pos.line,
            a.diag.pos.col,
            a.diag.code,
        )
            .cmp(&(
                b.path.as_str(),
                b.diag.pos.line,
                b.diag.pos.col,
                b.diag.code,
            ))
    });
    out
}

/// The bench harness measures real elapsed time on purpose; it is the one
/// place wall clocks are the point.
fn exempt_from_determinism(path: &str) -> bool {
    path.split(['/', '\\']).any(|c| c == "bench")
}

// ── L1: determinism ─────────────────────────────────────────────────────

fn determinism(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for i in 0..toks.len() {
        let hit: Option<(&str, Pos)> = if toks[i].kind == TokKind::Ident
            && (toks[i].text == "Instant" || toks[i].text == "SystemTime")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct("::"))
            && matches!(toks.get(i + 2), Some(t) if t.is_ident("now"))
        {
            Some((
                if toks[i].text == "Instant" {
                    "Instant::now"
                } else {
                    "SystemTime::now"
                },
                toks[i].pos,
            ))
        } else if toks[i].is_ident("thread_rng")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct("("))
        {
            Some(("thread_rng", toks[i].pos))
        } else {
            None
        };
        if let Some((what, pos)) = hit {
            if f.has_allow(pos.line, "wall-clock") {
                continue;
            }
            out.push(finding(
                &f.path,
                Severity::Error,
                "L101",
                pos,
                format!(
                    "`{what}` in sim-governed code: outcomes must be deterministic and replayable"
                ),
                Some(
                    "route time through the sim clock (`SimTime`) or RNG through a seeded \
                     per-job generator; if this genuinely needs real time, annotate with \
                     `// cg-lint: allow(wall-clock): <reason>`"
                        .to_string(),
                ),
            ));
        }
    }
}

// ── L2: lock discipline ─────────────────────────────────────────────────

/// Calls that cross a durable-I/O boundary: holding a lock guard across one
/// serializes unrelated work behind the disk.
const IO_BOUNDARY: &[&str] = &["sync_all", "sync_data", "fsync", "record_many"];

#[derive(Debug)]
struct Guard {
    name: String,
    depth: u32,
    pos: Pos,
}

/// Token-level guard tracking: a `let`-binding whose initializer calls
/// `.lock()` or `.shard(` creates a guard; the guard lives until its block
/// closes or it is `drop(..)`ed. While at least one guard is live, an
/// [`IO_BOUNDARY`] call is L201 and a second overlapping guard is L202.
fn lock_discipline(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    let mut depth: u32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("drop") && matches!(toks.get(i + 1), Some(n) if n.is_punct("(")) {
            // drop(name) or drop((a, b)): release every named guard.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(")") && !toks[j].is_punct(";") {
                if toks[j].kind == TokKind::Ident {
                    let name = toks[j].text.clone();
                    guards.retain(|g| g.name != name);
                }
                j += 1;
            }
        } else if t.is_ident("let")
            && !(i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while")))
        {
            if let Some((names, init_start, init_end)) = let_binding(toks, i) {
                let init = &toks[init_start..init_end];
                if calls_lock(init) {
                    let pos = toks[i].pos;
                    if let Some(prev) = guards.last() {
                        if !f.has_allow(pos.line, "nested-lock") {
                            out.push(finding(
                                &f.path,
                                Severity::Error,
                                "L202",
                                pos,
                                format!(
                                    "lock guard acquired while guard `{}` (line {}) is still held",
                                    prev.name, prev.pos.line
                                ),
                                Some(
                                    "overlapping guards risk lock-order deadlock; release the \
                                     outer guard first, or annotate the documented order with \
                                     `// cg-lint: allow(nested-lock): <reason>`"
                                        .to_string(),
                                ),
                            ));
                        }
                    }
                    for name in names {
                        guards.push(Guard { name, depth, pos });
                    }
                    // Fall through token-by-token so the outer brace depth
                    // stays consistent even when the initializer contains
                    // blocks.
                }
            }
        } else if !guards.is_empty()
            && t.kind == TokKind::Ident
            && IO_BOUNDARY.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
            && i > 0
            && toks[i - 1].is_punct(".")
        {
            let g = guards.last().expect("non-empty");
            if !f.has_allow(t.pos.line, "lock-across-io") {
                out.push(finding(
                    &f.path,
                    Severity::Error,
                    "L201",
                    t.pos,
                    format!(
                        "`{}` called while lock guard `{}` (line {}) is held",
                        t.text, g.name, g.pos.line
                    ),
                    Some(
                        "holding a lock across a durable-I/O boundary serializes every other \
                         holder behind the disk; move the I/O outside the critical section, or \
                         annotate a deliberate single-writer design with \
                         `// cg-lint: allow(lock-across-io): <reason>`"
                            .to_string(),
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// Parses `let <pattern> = <init>;` starting at the `let` token. Returns the
/// bound names (pattern idents, wrappers like `Ok`/`Some`/`mut` excluded)
/// and the token range of the initializer (up to but excluding the closing
/// `;`/`else` at the binding's paren/brace level).
fn let_binding(toks: &[Tok], let_idx: usize) -> Option<(Vec<String>, usize, usize)> {
    let mut names = Vec::new();
    let mut i = let_idx + 1;
    let mut depth = 0i32;
    // Pattern: until `=` at depth 0 (skip `==`… not possible in a pattern).
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct("=") && depth <= 0 {
            break;
        } else if t.is_punct(";") {
            return None;
        } else if t.kind == TokKind::Ident
            && !matches!(
                t.text.as_str(),
                "mut" | "ref" | "Ok" | "Err" | "Some" | "None" | "box"
            )
            // A type ascription ident (after `:`) is not a binding.
            && !(i > let_idx + 1 && toks[i - 1].is_punct(":"))
        {
            names.push(t.text.clone());
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let init_start = i + 1;
    let mut j = init_start;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if (t.is_punct(";") || t.is_ident("else")) && depth <= 0 {
            break;
        }
        j += 1;
    }
    Some((names, init_start, j))
}

/// True when the initializer calls `.lock()` or `.shard(` at its top level.
/// Calls nested inside parens/braces (closure bodies, match arms, function
/// arguments) belong to some other expression, not to this binding — a
/// `thread::spawn(move || { … lock() … })` handle is not a guard.
fn calls_lock(toks: &[Tok]) -> bool {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if depth == 0
            && t.is_punct(".")
            && matches!(toks.get(k + 1), Some(a) if a.is_ident("lock") || a.is_ident("shard"))
            && matches!(toks.get(k + 2), Some(b) if b.is_punct("("))
        {
            return true;
        }
    }
    false
}

// ── L3: policy purity ───────────────────────────────────────────────────

const INTERIOR_MUT: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "Mutex",
    "RwLock",
    "AtomicBool",
    "AtomicUsize",
    "AtomicU8",
    "AtomicU32",
    "AtomicU64",
    "AtomicI64",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "compare_exchange",
];
const CLOCK_RNG: &[&str] = &["Instant", "SystemTime", "thread_rng", "random", "rand"];
const IO_MARKERS: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpStream",
    "UdpSocket",
    "stdin",
    "stdout",
    "stderr",
    "println",
    "eprintln",
    "write_all",
    "read_to_string",
    "read_to_end",
];

/// Scans every `impl … SelectionPolicy for …` block: the scoring path must
/// be a pure function of its arguments (DESIGN §7f), so interior
/// mutability, clocks/RNG, and I/O are all structural errors — no escape
/// hatch.
fn policy_purity(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("SelectionPolicy")
            && toks[..i].iter().rev().take(8).any(|t| t.is_ident("impl"))
            && matches!(toks.get(i + 1), Some(t) if t.is_ident("for"))
        {
            // Find the impl block's braces.
            let open = toks[i..].iter().position(|t| t.is_punct("{"));
            let Some(open) = open.map(|o| i + o) else {
                i += 1;
                continue;
            };
            let close = matching_brace(toks, open);
            for t in &toks[open + 1..close] {
                if t.kind != TokKind::Ident {
                    continue;
                }
                let (code, what) = if INTERIOR_MUT.contains(&t.text.as_str()) {
                    ("L301", "interior mutability")
                } else if CLOCK_RNG.contains(&t.text.as_str()) {
                    ("L302", "a clock or RNG")
                } else if IO_MARKERS.contains(&t.text.as_str()) {
                    ("L303", "I/O")
                } else {
                    continue;
                };
                out.push(finding(
                    &f.path,
                    Severity::Error,
                    code,
                    t.pos,
                    format!(
                        "`{}` inside a `SelectionPolicy` impl: scoring uses {what}, breaking \
                         the pure-function contract",
                        t.text
                    ),
                    Some(
                        "policies must be pure functions of (Candidate, SiteSignals); \
                         precompute state outside the policy and pass it in via SiteSignals"
                            .to_string(),
                    ),
                ));
            }
            i = close;
        }
        i += 1;
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

// ── L4: codec integrity ─────────────────────────────────────────────────

/// Cross-checks the `Event` enum against its hand-written binary codec:
/// every variant must carry exactly one tag byte, tags must be unique, and
/// the encode and decode arms must agree. Runs only when the scanned set
/// contains both an `enum Event` and an `fn encode_event` (the workspace
/// run always does; fixture runs opt in by providing both files).
fn codec_integrity(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(enum_file) = files.iter().find(|f| has_enum_event(f)) else {
        return;
    };
    let Some(codec_file) = files.iter().find(|f| {
        f.toks
            .windows(2)
            .any(|w| w[0].is_ident("fn") && w[1].is_ident("encode_event"))
    }) else {
        return;
    };
    let variants = enum_variants(enum_file);
    let encode = encode_arms(codec_file);
    let decode = decode_arms(codec_file);

    // Duplicate tags, in either direction.
    let mut by_tag: HashMap<u64, &str> = HashMap::new();
    for (name, (tag, pos)) in &encode {
        if let Some(first) = by_tag.insert(*tag, name) {
            out.push(finding(
                &codec_file.path,
                Severity::Error,
                "L401",
                *pos,
                format!("encode arm for `{name}` reuses tag {tag}, already assigned to `{first}`"),
                Some("every Event variant needs a unique tag byte".to_string()),
            ));
        }
    }
    let mut by_tag: HashMap<u64, &str> = HashMap::new();
    for (name, (tag, pos)) in &decode {
        if let Some(first) = by_tag.insert(*tag, name) {
            out.push(finding(
                &codec_file.path,
                Severity::Error,
                "L401",
                *pos,
                format!("decode arm for `{name}` reuses tag {tag}, already matched to `{first}`"),
                Some("every Event variant needs a unique tag byte".to_string()),
            ));
        }
    }

    for (name, pos) in &variants {
        match (encode.get(name.as_str()), decode.get(name.as_str())) {
            (None, _) => out.push(finding(
                &enum_file.path,
                Severity::Error,
                "L402",
                *pos,
                format!("Event variant `{name}` has no encode arm in the codec"),
                Some("add the variant to encode_event with a fresh tag byte".to_string()),
            )),
            (_, None) => out.push(finding(
                &enum_file.path,
                Severity::Error,
                "L402",
                *pos,
                format!("Event variant `{name}` has no decode arm in the codec"),
                Some("add the variant's tag to decode_event".to_string()),
            )),
            (Some((enc_tag, enc_pos)), Some((dec_tag, _))) if enc_tag != dec_tag => {
                out.push(finding(
                    &codec_file.path,
                    Severity::Error,
                    "L403",
                    *enc_pos,
                    format!("`{name}` encodes as tag {enc_tag} but decodes from tag {dec_tag}"),
                    Some("encode and decode must agree on the tag byte".to_string()),
                ));
            }
            _ => {}
        }
    }
    // A decode arm for a name that is not a variant at all (rename drift).
    for (name, (_, pos)) in &decode {
        if !variants.iter().any(|(v, _)| v == name) {
            out.push(finding(
                &codec_file.path,
                Severity::Error,
                "L402",
                *pos,
                format!("decode arm constructs `Event::{name}`, which is not a variant"),
                None,
            ));
        }
    }
}

fn has_enum_event(f: &SourceFile) -> bool {
    f.toks
        .windows(2)
        .any(|w| w[0].is_ident("enum") && w[1].is_ident("Event"))
}

/// Variant names (with positions) of the `Event` enum: idents at brace
/// depth 1 that start a variant (first token, or right after a `,`),
/// skipping `#[...]` attribute groups and the variants' own field blocks.
fn enum_variants(f: &SourceFile) -> Vec<(String, Pos)> {
    let toks = &f.toks;
    let start = toks
        .windows(2)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident("Event"))
        .expect("checked by has_enum_event");
    let open = start
        + toks[start..]
            .iter()
            .position(|t| t.is_punct("{"))
            .expect("enum body");
    let close = matching_brace(toks, open);
    let mut variants = Vec::new();
    let mut expecting = true;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct("#") {
            // Skip the attribute: `#[ ... ]`.
            if let Some(j) = toks[i..close].iter().position(|t| t.is_punct("]")) {
                i += j + 1;
                continue;
            }
        } else if t.is_punct("{") || t.is_punct("(") {
            // Skip the variant's fields.
            let (openp, closep) = if t.is_punct("{") {
                ("{", "}")
            } else {
                ("(", ")")
            };
            let mut depth = 0i32;
            while i < close {
                if toks[i].is_punct(openp) {
                    depth += 1;
                } else if toks[i].is_punct(closep) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i += 1;
            }
        } else if t.is_punct(",") {
            expecting = true;
        } else if expecting && t.kind == TokKind::Ident {
            variants.push((t.text.clone(), t.pos));
            expecting = false;
        }
        i += 1;
    }
    variants
}

/// Encode arms: each `Event::Name` inside `fn encode_event`, mapped to the
/// integer of the first `put_u8(out, N)` before the next arm (the tag byte
/// is always written first).
fn encode_arms(f: &SourceFile) -> HashMap<String, (u64, Pos)> {
    let toks = &f.toks;
    let Some((start, end)) = fn_body(toks, "encode_event") else {
        return HashMap::new();
    };
    let mut arms = HashMap::new();
    let mut i = start;
    while i < end {
        if toks[i].is_ident("Event")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct("::"))
            && matches!(toks.get(i + 2), Some(t) if t.kind == TokKind::Ident)
        {
            let name = toks[i + 2].text.clone();
            let pos = toks[i].pos;
            // Scan forward for put_u8(out, N), stopping at the next arm.
            let mut j = i + 3;
            while j < end {
                if toks[j].is_ident("Event")
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct("::"))
                {
                    break;
                }
                if toks[j].is_ident("put_u8")
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct("("))
                    && matches!(toks.get(j + 4), Some(t) if t.kind == TokKind::Int)
                {
                    if let Some(tag) = int_value(&toks[j + 4].text) {
                        arms.insert(name.clone(), (tag, pos));
                    }
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    arms
}

/// Decode arms: each `N => … Event::Name` inside `fn decode_event`.
fn decode_arms(f: &SourceFile) -> HashMap<String, (u64, Pos)> {
    let toks = &f.toks;
    let Some((start, end)) = fn_body(toks, "decode_event") else {
        return HashMap::new();
    };
    let mut arms = HashMap::new();
    let mut i = start;
    while i < end {
        if toks[i].kind == TokKind::Int && matches!(toks.get(i + 1), Some(t) if t.is_punct("=>")) {
            let tag = int_value(&toks[i].text);
            let pos = toks[i].pos;
            // The variant is the next `Event::Name` before the next `N =>`.
            let mut j = i + 2;
            while j < end {
                if toks[j].kind == TokKind::Int
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct("=>"))
                {
                    break;
                }
                if toks[j].is_ident("Event")
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct("::"))
                    && matches!(toks.get(j + 2), Some(t) if t.kind == TokKind::Ident)
                {
                    if let Some(tag) = tag {
                        arms.insert(toks[j + 2].text.clone(), (tag, pos));
                    }
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    arms
}

/// Token range of the body of `fn <name>`.
fn fn_body(toks: &[Tok], name: &str) -> Option<(usize, usize)> {
    let at = toks
        .windows(2)
        .position(|w| w[0].is_ident("fn") && w[1].is_ident(name))?;
    let open = at + toks[at..].iter().position(|t| t.is_punct("{"))?;
    Some((open + 1, matching_brace(toks, open)))
}

// ── W501: allow hygiene ─────────────────────────────────────────────────

/// Flags `#[allow(...)]` / `#![allow(...)]` attributes with no plain
/// comment on the attribute's line or the line above. The pedantic-clippy
/// baseline (PR 2) stays tight only if every exception says why it exists.
fn allow_hygiene(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for i in 0..toks.len() {
        if !toks[i].is_punct("#") {
            continue;
        }
        let mut j = i + 1;
        let inner = matches!(toks.get(j), Some(t) if t.is_punct("!"));
        if inner {
            j += 1;
        }
        if !(matches!(toks.get(j), Some(t) if t.is_punct("["))
            && matches!(toks.get(j + 1), Some(t) if t.is_ident("allow")))
        {
            continue;
        }
        let pos = toks[i].pos;
        // Outer attributes need a plain `//` reason (the `///` above them
        // documents the item, not the waiver); inner `#![allow]` may be
        // justified by the module's own `//!` docs.
        let justified = if inner {
            f.comments
                .iter()
                .any(|c| !c.text.is_empty() && (c.line == pos.line || c.line + 1 == pos.line))
        } else {
            f.has_plain_comment_near(pos.line)
        };
        if justified {
            continue;
        }
        out.push(finding(
            &f.path,
            Severity::Warning,
            "W501",
            pos,
            "unjustified `#[allow(...)]`: no comment explains why the lint is waived".to_string(),
            Some(
                "add a `// <reason>` comment on the attribute's line or the line above, \
                 or fix the code and drop the allow"
                    .to_string(),
            ),
        ));
    }
}
