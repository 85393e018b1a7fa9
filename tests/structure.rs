//! Structural rules of the workspace, checked on its source text.
//!
//! Each rule keeps a removed design from coming back. The sources are read
//! with comments and string, raw-string and char literals blanked out
//! (lifetimes stay), and with whitespace squeezed to at most one space
//! between two identifier characters, so a rule fires on code only: a doc
//! comment that says why a design is gone does not trip it, and a rule
//! spread over two lines does not slip past it.
//!
//! The caller audit at the end holds every `pub` item in `crates/*/src` to
//! having a caller: `unreachable_pub` passes an item that sits behind a
//! `pub mod` even when nothing calls it. The audit matches names, not
//! paths, so two items that share a name vouch for each other: it can miss
//! an item nothing calls, but flags none that code outside its file calls.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

// ------------------------------------------------------------- the reader

/// One source file, relative to the workspace root, read as code only.
struct Source {
    path: String,
    /// The text with comments and literals blanked; same line count.
    code: String,
    /// `code` squeezed (see the module docs), with the line of each byte.
    squeezed: String,
    lines: Vec<u32>,
}

impl Source {
    fn new(path: String, text: &str) -> Source {
        let code = if path.ends_with(".rs") {
            strip(text)
        } else {
            strip_toml(text)
        };
        let (squeezed, lines) = squeeze(&code);
        Source {
            path,
            code,
            squeezed,
            lines,
        }
    }

    fn under(&self, prefixes: &[&str]) -> bool {
        prefixes.iter().any(|p| self.path.starts_with(p))
    }

    /// Lines of every occurrence of `pattern` (squeezed like the code).
    fn find(&self, pattern: &str) -> Vec<u32> {
        let (pattern, _) = squeeze(pattern);
        self.squeezed
            .match_indices(pattern.as_str())
            .map(|(at, _)| self.lines[at])
            .collect()
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Blank comments (nested block comments too), string, byte-string,
/// raw-string and char literals, keeping delimiters and newlines. A `'`
/// opens a char literal only when it closes two characters on (or holds an
/// escape), so lifetimes and loop labels stay code.
fn strip(src: &str) -> String {
    let s: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        let next = s.get(i + 1).copied();
        let prev_ident = i > 0 && is_ident(s[i - 1]);
        if c == '/' && next == Some('/') {
            while i < s.len() && s[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && s.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if s[i] == '*' && s.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, s[i]);
                    i += 1;
                }
            }
        } else if c == '"' {
            out.push('"');
            i += 1;
            while i < s.len() && s[i] != '"' {
                if s[i] == '\\' && i + 1 < s.len() {
                    blank(&mut out, s[i]);
                    i += 1;
                }
                blank(&mut out, s[i]);
                i += 1;
            }
            if i < s.len() {
                out.push('"');
                i += 1;
            }
        } else if c == 'r'
            && (!prev_ident || (s[i - 1] == 'b' && (i < 2 || !is_ident(s[i - 2]))))
            && raw_string_hashes(&s[i + 1..]).is_some()
        {
            let hashes = raw_string_hashes(&s[i + 1..]).unwrap_or(0);
            let close: Vec<char> = std::iter::once('"')
                .chain(std::iter::repeat_n('#', hashes))
                .collect();
            out.push('r');
            out.extend(&close[1..]);
            out.push('"');
            i += 2 + hashes;
            while i < s.len() && !s[i..].starts_with(&close) {
                blank(&mut out, s[i]);
                i += 1;
            }
            if i < s.len() {
                out.extend(&close);
                i += close.len();
            }
        } else if c == '\'' && (next == Some('\\') || s.get(i + 2) == Some(&'\'')) {
            out.push('\'');
            i += 1;
            while i < s.len() && s[i] != '\'' {
                if s[i] == '\\' && i + 1 < s.len() {
                    out.push(' ');
                    i += 1;
                }
                blank(&mut out, s[i]);
                i += 1;
            }
            if i < s.len() {
                out.push('\'');
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// `Some(n)` when `rest` (the text after an `r`) opens a raw string with
/// `n` hashes.
fn raw_string_hashes(rest: &[char]) -> Option<usize> {
    let hashes = rest.iter().take_while(|&&c| c == '#').count();
    (rest.get(hashes) == Some(&'"')).then_some(hashes)
}

/// Drop `#` comments from a manifest (a `#` inside a quoted value stays).
fn strip_toml(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        let mut quoted = false;
        for c in line.chars() {
            if c == '"' {
                quoted = !quoted;
            }
            if c == '#' && !quoted {
                break;
            }
            out.push(c);
        }
        out.push('\n');
    }
    out
}

/// Squeeze whitespace: a run between two identifier characters becomes one
/// space, any other run goes. Returns the text and each byte's line.
fn squeeze(code: &str) -> (String, Vec<u32>) {
    let mut out = String::with_capacity(code.len());
    let mut lines = Vec::with_capacity(code.len());
    let mut line = 1;
    let mut gap = false;
    for c in code.chars() {
        if c.is_whitespace() {
            gap = true;
            if c == '\n' {
                line += 1;
            }
            continue;
        }
        if gap && is_ident(c) && out.chars().next_back().is_some_and(is_ident) {
            out.push(' ');
            lines.push(line);
        }
        gap = false;
        out.push(c);
        lines.extend(std::iter::repeat_n(line, c.len_utf8()));
    }
    (out, lines)
}

/// Every `.rs` file under `crates`, `shims`, `src`, `tests`, `examples`
/// and `benchmark/src`, and every `Cargo.toml` of the workspace.
fn sources() -> &'static [Source] {
    static SOURCES: OnceLock<Vec<Source>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        for dir in [
            "crates",
            "shims",
            "src",
            "tests",
            "examples",
            "benchmark/src",
        ] {
            walk(&root.join(dir), &mut files);
        }
        files.push(root.join("Cargo.toml"));
        files.sort();
        files
            .into_iter()
            .map(|file| {
                let text = fs::read_to_string(&file).expect("read a workspace source");
                let path = file.strip_prefix(root).expect("under the root");
                Source::new(path.to_string_lossy().replace('\\', "/"), &text)
            })
            .collect()
    })
}

fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                walk(&path, files);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            files.push(path);
        }
    }
}

/// `path:line: pattern` for every occurrence of a pattern in the sources
/// under one of `prefixes`.
fn occurrences<'a>(
    sources: impl IntoIterator<Item = &'a Source>,
    prefixes: &[&str],
    patterns: &[&str],
) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources.into_iter().filter(|s| s.under(prefixes)) {
        for pattern in patterns {
            for line in src.find(pattern) {
                found.push(format!("{}:{line}: {pattern}", src.path));
            }
        }
    }
    found
}

/// Fail on any occurrence of `patterns` in the workspace under `prefixes`.
fn forbid(prefixes: &[&str], patterns: &[&str]) {
    let found = occurrences(sources(), prefixes, patterns);
    assert!(
        found.is_empty(),
        "banned code is back:\n{}",
        found.join("\n")
    );
}

// ------------------------------------------------------------------ rules

const CODE: &[&str] = &["crates", "tests", "src", "examples"];

/// One delivery frame on the wire, three Transport + Executor pairs
/// (lockstep ticks, DES virtual time, wall clock).
///
/// A second Deliver/Complete pair or a fourth driver is a fork of something
/// that exists: a connection already knows its filter, and the TCP
/// lockstep coordinator is `engine/sequential.rs`'s loop.
#[test]
fn one_delivery_frame_and_three_transports() {
    forbid(CODE, &["DeliverAt", "CompleteAt"]);
    let impls: Vec<String> = sources()
        .iter()
        .filter(|s| s.under(&["crates/core/src/"]))
        .flat_map(|s| {
            words(&s.squeezed, "impl").filter_map(move |at| {
                let header = &s.squeezed[at..];
                let header = &header[..header.find(['{', ';']).unwrap_or(header.len())];
                header
                    .contains("Transport for")
                    .then(|| format!("{}:{}", s.path, s.lines[at]))
            })
        })
        .collect();
    assert_eq!(impls.len(), 3, "impl Transport for: {impls:#?}");
}

/// The wall-clock coordinator decides without sockets or a clock.
///
/// `net/coord.rs` is a function of (time, input): the shell in
/// `net/driver.rs` owns the reactor, the sockets and `Instant`.
#[test]
fn the_coordinator_reads_no_clock_and_owns_no_socket() {
    forbid(
        &["crates/core/src/net/coord.rs"],
        &[
            "Instant",
            "TcpStream",
            "TcpListener",
            "Reactor",
            "std::net",
            "io::Read",
        ],
    );
}

/// A slot has one lifecycle, the engine's.
///
/// The membership registry, its phase errors and the engine's `WallClock`
/// had no user left. They are checked as type definitions: any other use
/// of the names fails to compile without one, and a field or variant may
/// still carry the name.
#[test]
fn no_membership_registry_or_engine_wall_clock() {
    let mut found = Vec::new();
    for name in ["Membership", "PhaseError", "WallClock"] {
        for keyword in ["struct", "enum", "union", "trait", "type"] {
            for src in sources().iter().filter(|s| s.under(CODE)) {
                let definition = format!("{keyword} {name}");
                for at in words(&src.squeezed, &definition) {
                    found.push(format!("{}:{}: {definition}", src.path, src.lines[at]));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "a removed type is back:\n{}",
        found.join("\n")
    );
}

/// Bookkeeping that decides nothing stays cheap: no hashing in the DES
/// heap or the request window, no clock read for a stamp nobody keeps.
///
/// The event heap orders keys over a slab and cancels nothing; a window's
/// in-flight ids are a scanned `Vec`; every trace stamp in the engine goes
/// through `stamp()`, which leaves the clock alone when the recorder is off.
#[test]
fn the_des_heap_and_the_window_hash_nothing() {
    forbid(
        &[
            "crates/simkit/src/engine.rs",
            "crates/core/src/engine/window.rs",
        ],
        &["HashMap", "HashSet", "fn cancel"],
    );
    forbid(
        &["crates/core/src/engine/core.rs"],
        &["rec.record(self.clock.now"],
    );
}

/// A simulated task pays for its model: 16-byte heap keys, no libm
/// rounding in virtual time, no histogram nobody reads.
///
/// The heap sifts one packed `u128` per event; `from_secs_f64` rounds with
/// a cast (bit-identical, tested against the `f64::round` formula in
/// `crates/simkit/tests/from_secs_f64.rs`); the per-worker service-time
/// histogram had no reader.
#[test]
fn a_simulated_task_pays_only_for_its_model() {
    forbid(&["crates", "tests"], &["service_hist", "service_quantile"]);
    forbid(&["crates/simkit/src/time.rs"], &[".round()"]);
    forbid(&["crates/simkit/src/engine.rs"], &["struct Key"]);
}

/// An NBIA tile pays per colour, not per pixel: no per-pixel coordinate
/// divide in the generator.
///
/// Stroma-rich coordinates are computed once per column and once per row;
/// the per-pixel body is the oracle in
/// `crates/kernels/tests/generator_oracle.rs`, not beside the new code.
#[test]
fn the_tile_generator_divides_per_row_and_column() {
    forbid(&["crates/kernels/src/tiles.rs"], &["% side) as f64"]);
}

/// Tile synthesis has one row path: each Box-Muller approximation is
/// computed at one site, and each noisy tile class draws its rows at one.
///
/// `SimRng::gaussian_row` fills a `NormalRow` through one loop whatever
/// the row's length or a carried spare, and `TileGenerator::generate`
/// calls it once for background and once for stroma-rich tiles. A second
/// row path, kept for odd rows or a pending spare, is a second site.
#[test]
fn tile_synthesis_has_one_row_path() {
    let mut found = Vec::new();
    for (path, name, sites) in [
        ("crates/simkit/src/rng.rs", "approx_ln", 1),
        ("crates/simkit/src/rng.rs", "approx_sincos", 1),
        ("crates/kernels/src/tiles.rs", "gaussian_row", 2),
    ] {
        let src = sources().iter().find(|s| s.path == path).expect(path);
        let regions = test_regions(&src.code);
        let mut previous = "";
        let mut uses = Vec::new();
        for (at, token) in identifiers(&src.code, &regions) {
            if token == name && !DEFINING.contains(&previous) {
                uses.push(src.code[..at].matches('\n').count() + 1);
            }
            previous = token;
        }
        if uses.len() != sites {
            found.push(format!(
                "{path}: {name} at lines {uses:?}, not {sites} site(s)"
            ));
        }
    }
    assert!(found.is_empty(), "a second row path:\n{}", found.join("\n"));
}

/// The native hand-off pays only for work something consumes: no output
/// channel in the threaded runtime.
///
/// Each worker keeps its terminal outputs and returns them through its
/// join handle; a channel send per task bought nothing `run` promises.
#[test]
fn the_threaded_runtime_has_no_output_channel() {
    forbid(&["crates/core/src/local/mod.rs"], &["mpsc"]);
}

/// A TCP task pays for its frames, not for bookkeeping: dispatched buffers
/// are held by value.
///
/// A `DataBuffer` carries no tile bytes and its clone is a refcount bump
/// on its parameters: wrapping each dispatched buffer in an `Arc` cost an
/// allocation per task and bought nothing.
#[test]
fn tcp_dispatch_holds_buffers_by_value() {
    forbid(
        &["crates/core/src/net/"],
        &["Arc<DataBuffer>", "Arc::try_unwrap"],
    );
}

/// Applications emit through `Emitter` and the payload host routes: no
/// `GraphEmission` in `crates/apps/src`.
///
/// A buffer-level backend runs an application's filters through
/// `Pipeline::hosted`, so an application never builds the engine's
/// emission itself; one that does keeps a second copy of its filters
/// beside the ones the threaded runtime runs.
#[test]
fn applications_emit_through_the_filter_host() {
    forbid(&["crates/apps/src"], &["GraphEmission"]);
}

/// Locks are `std::sync`: the `parking_lot` shim stays gone from the
/// manifests and the sources.
#[test]
fn locks_are_std_sync() {
    forbid(
        &["Cargo.toml", "crates", "shims", "src", "tests", "examples"],
        &["parking_lot"],
    );
}

/// Each shared rule lives once: open-loop intake is built in the engine,
/// NBIA's per-tile rules sit in the one private `Nbia` core, and
/// Box-Muller has one exact definition.
///
/// Every backend's open-loop driver is a shell around `engine::OpenLoop`,
/// which owns the admission controller; every NBIA deployment calls the
/// same core for tile synthesis, training and the hypothesis test; every
/// normal deviate's exact value, whether drawn one at a time or a row at a
/// time, is `simkit/src/rng.rs`'s `box_muller`, so a second `u1.ln()` …
/// `.sqrt()` radius in non-test crate code is a fork of it.
#[test]
fn each_shared_rule_lives_once() {
    let outside: Vec<String> = occurrences(
        sources().iter().filter(|s| s.path.ends_with(".rs")),
        &["crates", "src", "examples"],
        &["AdmissionController::new"],
    )
    .into_iter()
    .filter(|at| !at.starts_with("crates/core/src/engine/"))
    .collect();
    assert!(
        outside.is_empty(),
        "an admission controller is built outside engine/:\n{}",
        outside.join("\n")
    );
    for rule in ["TileClassifier::train", "TileGenerator::new", ".accept("] {
        let at = occurrences(sources(), &["crates/apps/src/nbia.rs"], &[rule]);
        assert_eq!(at.len(), 1, "{rule} in nbia.rs: {at:#?}");
    }
    let mut radii = Vec::new();
    for src in sources().iter().filter(|s| is_crate_source(&s.path)) {
        let regions = test_regions(&src.code);
        for (at, _) in src.code.match_indices("u1.ln()") {
            let statement = src.code[at..].split(';').next().unwrap_or_default();
            if !in_regions(&regions, at) && statement.contains(".sqrt()") {
                let line = src.code[..at].matches('\n').count() + 1;
                radii.push(format!("{}:{line}", src.path));
            }
        }
    }
    assert_eq!(radii.len(), 1, "Box-Muller radii: {radii:#?}");
}

/// Knobs that only ever held one value stay constants.
///
/// The request-window cap is `engine/window.rs`'s `MAX_WINDOW`, the backoff
/// cap and the health rates are constants in `engine/core.rs`, and
/// `LearnedWeights::new(kind, base, seed)` takes only the seed.
#[test]
fn single_valued_knobs_stay_constants() {
    forbid(
        CODE,
        &[
            "max_window:",
            "max_request_window",
            "backoff_cap",
            "health_decay",
            "health_recovery",
            "LearnedConfig",
            "with_online",
            "history_cap",
        ],
    );
}

/// Byte offsets of `word` in `text` where it stands as whole words.
fn words<'a>(text: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    text.match_indices(word).filter_map(move |(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        (!before.is_some_and(is_ident) && !after.is_some_and(is_ident)).then_some(at)
    })
}

// ----------------------------------------------------------- caller audit

/// Public items that no non-test code outside their file names, kept
/// because a figure, an example or an integration test needs them.
/// Entries are `(file, item, who needs it)`.
const ALLOWLIST: &[(&str, &str, &str)] = &[
    // Entry points that only integration tests and examples call.
    ("crates/apps/src/nbia.rs", "run_local", "examples/nbia_pipeline.rs, tests/cross_backend.rs"),
    ("crates/apps/src/nbia.rs", "run_local_deterministic", "tests/observability.rs"),
    ("crates/apps/src/nbia.rs", "run_local_traced", "tests/observability.rs"),
    ("crates/apps/src/nbia.rs", "run_sim", "tests/policy_parity.rs::graph_des_nbia_run_is_pinned"),
    ("crates/core/src/local/mod.rs", "run_load", "tests/load.rs, tests/dispatch_exactness.rs"),
    ("crates/core/src/local/mod.rs", "with_faults", "tests/chaos.rs::native_conserves_tasks_under_random_faults"),
    ("crates/core/src/local/mod.rs", "with_request_window", "tests/policy_parity.rs, tests/policies.rs"),
    ("crates/core/src/faults/mod.rs", "standard", "the recovery settings of tests/chaos.rs, membership.rs and load.rs"),
    ("crates/core/src/membership.rs", "standard", "tests/membership.rs::autoscaler_grows_a_saturated_tcp_run_within_its_bounds"),
    ("crates/core/src/graph.rs", "diamond", "tests/policy_parity.rs's diamond runs, through tests/common"),
    ("crates/core/src/engine/open_loop.rs", "next_arrival", "tests/common's run_des_load, pinned by tests/load.rs::des_replay_decisions_are_pinned"),
    ("crates/apps/src/lib.rs", "vm", "the Virtual Microscope app: examples/virtual_microscope.rs, tests/extensions.rs"),
    ("crates/estimator/src/lib.rs", "persist", "the paper's Fig. 3 phase-one profile store: examples/estimator_tour.rs, tests/extensions.rs"),
    ("crates/apps/src/vm.rs", "run_queries", "examples/virtual_microscope.rs, tests/extensions.rs"),
    ("crates/apps/src/vm.rs", "tile_count", "examples/virtual_microscope.rs"),
    ("crates/apps/src/bench_suite.rs", "execute_cpu", "examples/estimator_tour.rs"),
    ("crates/estimator/src/persist.rs", "to_text", "the paper's Fig. 3 phase-one profile store: examples/estimator_tour.rs, tests/extensions.rs"),
    ("crates/estimator/src/persist.rs", "from_text", "the paper's Fig. 3 phase-one profile store: examples/estimator_tour.rs, tests/extensions.rs"),
    // Read back by pins and properties.
    ("crates/kernels/src/texture.rs", "contrast", "tests/paper_shapes.rs::nbia_feature_bits_are_pinned"),
    ("crates/kernels/src/texture.rs", "homogeneity", "tests/paper_shapes.rs::nbia_feature_bits_are_pinned"),
    ("crates/kernels/src/texture.rs", "entropy", "tests/paper_shapes.rs::nbia_feature_bits_are_pinned"),
    ("crates/kernels/src/texture.rs", "correlation", "tests/paper_shapes.rs::nbia_feature_bits_are_pinned"),
    ("crates/kernels/src/texture.rs", "sum_average", "tests/paper_shapes.rs::nbia_feature_bits_are_pinned"),
    ("crates/kernels/src/texture.rs", "sum_entropy", "tests/paper_shapes.rs::nbia_feature_bits_are_pinned"),
    ("crates/kernels/src/texture.rs", "difference_entropy", "tests/paper_shapes.rs::nbia_feature_bits_are_pinned"),
    ("crates/simkit/src/stats.rs", "bucket_counts", "tests/paper_shapes.rs::des_cluster_report_is_pinned, tests/properties.rs"),
    ("crates/core/src/queue.rs", "best_weight", "tests/properties.rs::shared_queue_matches_a_scan_for_max_model"),
    ("crates/estimator/src/param.rs", "shares_storage", "tests/net_codec.rs::repeated_and_near_repeated_params_round_trip, tests/dispatch_exactness.rs"),
    ("crates/core/src/net/frame.rs", "MAGIC", "tests/net_codec.rs::corrupt_headers_are_rejected"),
    ("crates/core/src/net/frame.rs", "MAX_FRAME", "tests/net_codec.rs::corrupt_headers_are_rejected"),
    ("crates/core/src/obs/jsonl.rs", "parse_jsonl", "the JSONL round trip of tests/common, run by tests/observability.rs and four other suites"),
    ("crates/core/src/obs/json.rs", "as_arr", "the unit tests of benchmark/src/report.rs and spans.rs"),
    // Unit tests of another crate.
    ("crates/simkit/src/rng.rs", "uniform", "the primitive draw; net/coord.rs's replay tests draw Poisson gaps from it"),
    ("crates/simkit/src/rng.rs", "normal", "crates/kernels/tests/generator_oracle.rs: the tile generator's per-pixel oracle draws its noise with it"),
    ("crates/simkit/src/resource.rs", "messages", "hetsim's network unit tests count uplink messages with it"),
];

/// Keywords after which a name is being defined, not used.
const DEFINING: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "mod", "union", "static",
];

/// A `pub` item of `crates/*/src`.
#[derive(Debug)]
struct Item {
    path: String,
    name: String,
    /// What a caller of the item must be able to name: a function's
    /// signature, a struct's public fields, an enum's or a trait's body,
    /// an alias's or a constant's type.
    surface: String,
}

/// Byte ranges of `#[cfg(test)]` items in a stripped file.
fn test_regions(code: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for (start, attr) in code.match_indices("#[cfg(test)]") {
        let rest = &code[start + attr.len()..];
        let Some(open) = rest.find(['{', ';']) else {
            continue;
        };
        let end = if rest.as_bytes()[open] == b'{' {
            matching(rest, open)
        } else {
            open + 1
        };
        regions.push((start, start + attr.len() + end));
    }
    regions
}

/// The byte after the bracket that closes the one at `open`.
fn matching(text: &str, open: usize) -> usize {
    let mut depth = 0i32;
    for (i, b) in text.bytes().enumerate().skip(open) {
        match b {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    text.len()
}

fn in_regions(regions: &[(usize, usize)], at: usize) -> bool {
    regions.iter().any(|&(s, e)| (s..e).contains(&at))
}

/// Identifier tokens of `code` outside `regions`, each with its offset.
fn identifiers<'a: 'r, 'r>(
    code: &'a str,
    regions: &'r [(usize, usize)],
) -> impl Iterator<Item = (usize, &'a str)> + 'r {
    let mut at = 0;
    std::iter::from_fn(move || loop {
        let rest = &code[at..];
        let start = at + rest.find(is_ident)?;
        let len = code[start..]
            .find(|c: char| !is_ident(c))
            .unwrap_or(code.len() - start);
        at = start + len;
        if !in_regions(regions, start) && !code[start..].starts_with(|c: char| c.is_numeric()) {
            return Some((start, &code[start..at]));
        }
    })
}

/// Every bare-`pub` fn, struct, enum, trait, type, const and mod in
/// `crates/*/src`, outside `#[cfg(test)]` items.
fn public_items() -> Vec<Item> {
    let mut items = Vec::new();
    for src in sources().iter().filter(|s| is_crate_source(&s.path)) {
        let code = &src.code;
        let regions = test_regions(code);
        let tokens: Vec<(usize, &str)> = identifiers(code, &regions).collect();
        for (k, &(at, token)) in tokens.iter().enumerate() {
            if token != "pub" || code[at + 3..].trim_start().starts_with('(') {
                continue;
            }
            let mut next = k + 1;
            while tokens
                .get(next)
                .is_some_and(|(_, t)| ["const", "unsafe", "async", "extern"].contains(t))
                && tokens
                    .get(next + 1)
                    .is_some_and(|(_, t)| DEFINING.contains(t))
            {
                next += 1;
            }
            let (Some(&(_, keyword)), Some(&(name_at, name))) =
                (tokens.get(next), tokens.get(next + 1))
            else {
                continue;
            };
            if !["fn", "struct", "enum", "trait", "type", "const", "mod"].contains(&keyword)
                || code[..name_at].ends_with('$')
            {
                continue;
            }
            let surface = surface(&code[name_at + name.len()..], keyword);
            items.push(Item {
                path: src.path.clone(),
                name: name.to_string(),
                surface,
            });
        }
    }
    items
}

fn is_crate_source(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// The part of an item, after its name, that a caller must be able to name.
fn surface(rest: &str, keyword: &str) -> String {
    let open = rest.find(['{', ';', '(']).unwrap_or(rest.len());
    match keyword {
        "fn" | "type" | "const" => rest[..rest.find(['{', ';']).unwrap_or(rest.len())].to_string(),
        "struct" if open < rest.len() && rest.as_bytes()[open] != b';' => {
            let body = &rest[open + 1..matching(rest, open) - 1];
            let mut fields = rest[..open].to_string();
            for field in split_top_level(body) {
                let field = field.trim_start();
                if field.starts_with("pub") && !field[3..].trim_start().starts_with('(') {
                    fields.push_str(field);
                    fields.push(' ');
                }
            }
            fields
        }
        "enum" | "trait" => match rest.find(['{', ';']) {
            Some(body) if rest.as_bytes()[body] == b'{' => rest[..matching(rest, body)].to_string(),
            _ => rest[..open].to_string(),
        },
        _ => rest[..open].to_string(),
    }
}

/// `text` split at the commas that no bracket encloses.
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let (mut depth, mut from) = (0i32, 0);
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' | b'(' | b'[' | b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'}' | b')' | b']' | b'>' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(&text[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[from..]);
    parts
}

/// For each name, the files whose non-test code uses it (a definition of
/// the name is not a use). Callers are `crates/*/src`, the facade's
/// `src/` and `benchmark/src`.
fn callers() -> BTreeMap<&'static str, BTreeSet<&'static str>> {
    let mut used: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for src in sources()
        .iter()
        .filter(|s| is_crate_source(&s.path) || s.under(&["src/", "benchmark/src/"]))
        .filter(|s| s.path.ends_with(".rs"))
    {
        let regions = test_regions(&src.code);
        let mut previous = "";
        for (_, token) in identifiers(&src.code, &regions) {
            if !DEFINING.contains(&previous) {
                used.entry(token).or_default().insert(&src.path);
            }
            previous = token;
        }
    }
    used
}

/// The items that fail the audit: not named by non-test code outside their
/// file, not in the surface of an item that passes, not allowlisted.
fn uncalled(
    items: &[Item],
    used: &BTreeMap<&str, BTreeSet<&str>>,
    allowlist: &[(&str, &str, &str)],
) -> Vec<String> {
    let mut passed: Vec<bool> = items
        .iter()
        .map(|item| {
            used.get(item.name.as_str())
                .is_some_and(|files| files.iter().any(|&f| f != item.path))
                || allowlist
                    .iter()
                    .any(|&(path, name, _)| path == item.path && name == item.name)
        })
        .collect();
    loop {
        let mut surfaces = String::new();
        for (item, _) in items.iter().zip(&passed).filter(|(_, &p)| p) {
            surfaces.push_str(&item.surface);
            surfaces.push(' ');
        }
        let named: BTreeSet<&str> = identifiers(&surfaces, &[]).map(|(_, t)| t).collect();
        let mut grew = false;
        for (item, pass) in items.iter().zip(passed.iter_mut()) {
            if !*pass && named.contains(item.name.as_str()) {
                *pass = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let failing: BTreeSet<String> = items
        .iter()
        .zip(&passed)
        .filter(|(_, &p)| !p)
        .map(|(item, _)| format!("{}: {}", item.path, item.name))
        .collect();
    failing.into_iter().collect()
}

/// Every public item in `crates/*/src` has a caller outside its file, or
/// sits in the public surface of an item that has one, or is allowlisted
/// with the figure, example or test that needs it. Otherwise it is
/// deleted, made `pub(crate)` or moved into the test module that uses it.
#[test]
fn every_public_item_has_a_caller() {
    let items = public_items();
    assert!(items.len() > 300, "found only {} public items", items.len());
    let used = callers();
    let failing = uncalled(&items, &used, ALLOWLIST);
    assert!(
        failing.is_empty(),
        "public items with no caller outside their file:\n{}",
        failing.join("\n")
    );
    let unlisted = uncalled(&items, &used, &[]);
    for &(path, name, reason) in ALLOWLIST {
        assert!(!reason.trim().is_empty(), "{path}: {name} needs a reason");
        assert!(
            unlisted.contains(&format!("{path}: {name}")),
            "{path}: {name} is allowlisted but has a caller or no longer exists"
        );
    }
}

// ---------------------------------------------------------- the stripper

fn banned_in(text: &str) -> Vec<u32> {
    Source::new("t.rs".to_string(), text).find("mpsc")
}

#[test]
fn a_name_in_a_comment_or_literal_is_not_code() {
    for text in [
        "let a = 1; // mpsc\n",
        "/* outer /* mpsc */ still a comment: mpsc */ let a = 1;",
        "let s = \"a \\\" mpsc\";",
        "let s = r#\"a \" mpsc\"#;",
        "let s = br##\"mpsc\"#\"##;",
        "let q = '\"'; let s = \"mpsc\";",
        "let q = '\\''; let s = \"mpsc\";",
        "fn f<'a>(x: &'a str) -> &'a str { \"mpsc\" }",
    ] {
        assert_eq!(banned_in(text), Vec::<u32>::new(), "{text}");
    }
}

#[test]
fn the_same_name_in_code_is_found() {
    for text in [
        "// a comment\nuse std::sync::mpsc;",
        "/* /* nested */ */ use std::sync::mpsc;",
        "let s = \"mpsc\"; use std::sync::mpsc;",
        "let s = r#\"\"#; use std::sync::mpsc;",
        "let q = '\"'; use std::sync::mpsc;",
        "fn f<'a>(x: &'a str) { mpsc::channel::<&'a str>() }",
        "'outer: loop { break 'outer; } let _ = mpsc::channel::<u8>();",
    ] {
        assert_eq!(banned_in(text).len(), 1, "{text}");
    }
    assert_eq!(banned_in("let x = 1;\n\n/* */ let y =\n  mpsc;"), vec![4]);
}

#[test]
fn a_pattern_matches_across_whitespace_but_not_inside_a_word() {
    let src = Source::new("t.rs".to_string(), "rec.record(\n    self.clock.now())");
    assert_eq!(src.find("rec.record(self.clock.now"), vec![1]);
    let src = Source::new("t.rs".to_string(), "fn  cancelled() {} let fncancel = 0;");
    assert_eq!(src.find("fn cancel"), vec![1]);
}

#[test]
fn test_items_are_not_callers() {
    let code = strip(
        "pub fn lonely() {}\n#[cfg(test)]\nmod tests { fn t() { lonely(); } }\n\
         #[cfg(test)]\nfn helper() { lonely(); }\nfn real() {}",
    );
    let regions = test_regions(&code);
    let names: Vec<&str> = identifiers(&code, &regions).map(|(_, t)| t).collect();
    assert_eq!(names, ["pub", "fn", "lonely", "fn", "real"]);
}
