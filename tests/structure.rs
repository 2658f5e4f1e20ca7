//! Structural fences: what the tree must keep true of its own code, checked
//! by reading the source.  Each test is one architectural decision or
//! ratchet (a count that only goes down); the comment on each says what it
//! protects.  Patterns are matched line by line as `grep` matches them.
//!
//! "Non-test code" ([`non_test`]) is a file up to its `#[cfg(test)]` line
//! that is followed directly by `mod tests {`, and none of a file that its
//! parent module declares as `#[cfg(test)] mod name;` (a test module kept in
//! a file of its own, such as the engine's `runtime/tests.rs`).
//!
//! Scans skip build output (`target/` directories) and this file, which
//! spells the patterns it forbids.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const THIS_FILE: &str = "tests/structure.rs";

fn read(path: &Path) -> String {
    let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every file under `roots` (a root may itself be a file), recursively and
/// in path order, except inside a directory named `skip_dir`.
fn files_under(roots: &[&str], skip_dir: Option<&str>) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut pending: Vec<PathBuf> = roots.iter().map(PathBuf::from).collect();
    while let Some(path) = pending.pop() {
        let kind = fs::symlink_metadata(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .file_type();
        if kind.is_file() && path != Path::new(THIS_FILE) {
            found.push(path);
        } else if kind.is_dir() {
            let name = path.file_name().and_then(|name| name.to_str());
            if name == Some("target") || (name.is_some() && name == skip_dir) {
                continue;
            }
            let entries = fs::read_dir(&path).expect("readable directory");
            pending.extend(entries.map(|entry| entry.expect("directory entry").path()));
        }
    }
    found.sort();
    found
}

/// The `.rs` files directly inside `dir`: a shell's `dir/*.rs`.
fn rust_files_in(dir: &str) -> Vec<PathBuf> {
    let mut found = files_under(&[dir], None);
    found.retain(|path| {
        path.parent() == Some(Path::new(dir)) && path.extension().is_some_and(|e| e == "rs")
    });
    found
}

/// Whether the parent module of `path` declares it as `#[cfg(test)] mod
/// name;`: a test module kept in a file of its own.
fn is_test_module_file(path: &Path) -> bool {
    let (Some(dir), Some(stem)) = (path.parent(), path.file_stem()) else {
        return false;
    };
    let declaration = format!("mod {};", stem.to_string_lossy());
    let mut parents: Vec<PathBuf> = ["mod.rs", "lib.rs", "main.rs"]
        .iter()
        .map(|name| dir.join(name))
        .collect();
    parents.push(dir.with_extension("rs"));
    parents
        .iter()
        .filter(|parent| parent.as_path() != path && parent.is_file())
        .any(|parent| {
            let text = read(parent);
            let lines: Vec<&str> = text.lines().map(str::trim).collect();
            lines
                .windows(2)
                .any(|pair| pair == ["#[cfg(test)]", declaration.as_str()])
        })
}

/// The non-test code of the file at `path`: nothing of a test module file,
/// and otherwise everything before a `#[cfg(test)]` line that is followed
/// directly by `mod tests {`.
fn non_test<'a>(path: &Path, text: &'a str) -> &'a str {
    if is_test_module_file(path) {
        return "";
    }
    let mut end = 0;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        let opens_tests = lines
            .peek()
            .is_some_and(|next| next.starts_with("mod tests {"));
        if line.trim() == "#[cfg(test)]" && opens_tests {
            break;
        }
        end += line.len();
    }
    &text[..end]
}

fn whole<'a>(_: &Path, text: &'a str) -> &'a str {
    text
}

/// `wc -l`.
fn line_count(text: &str) -> usize {
    text.matches('\n').count()
}

/// Which part of a file a scan reads: [`non_test`] or [`whole`].
type Part = for<'a> fn(&Path, &'a str) -> &'a str;

/// `grep -n`: each `path:line: text` of `files`, cut by `part`, that
/// `matches`.
fn hits(files: &[PathBuf], part: Part, matches: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for path in files {
        let text = read(path);
        for (at, line) in part(path, &text).lines().enumerate() {
            if matches(line) {
                found.push(format!("{}:{}: {line}", path.display(), at + 1));
            }
        }
    }
    found
}

/// Whether `line` contains any of `needles` (a `grep -E` alternation of
/// literals).
fn any_of<'a>(needles: &'a [&'a str]) -> impl Fn(&str) -> bool + 'a {
    move |line| needles.iter().any(|needle| line.contains(needle))
}

/// Whether `needle` occurs in `line` followed by a non-word character or
/// the line's end (`needle\b`) and, if `whole_word`, also preceded by one
/// (`grep -w`).
fn bounded(line: &str, needle: &str, whole_word: bool) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(needle).any(|(at, _)| {
        let after = line[at + needle.len()..].chars().next();
        let before = line[..at].chars().next_back();
        !(word(after) || whole_word && word(before))
    })
}

fn assert_none(found: Vec<String>, why: &str) {
    assert!(found.is_empty(), "{why}:\n{}", found.join("\n"));
}

/// How many lines of the `part` of `files` `matches` (`grep -c`).
fn count(files: &[PathBuf], part: Part, matches: impl Fn(&str) -> bool) -> usize {
    hits(files, part, matches).len()
}

/// Non-test lines across `files`.
fn non_test_lines(files: &[PathBuf]) -> usize {
    files
        .iter()
        .map(|path| line_count(non_test(path, &read(path))))
        .sum()
}

fn paths(files: &[&str]) -> Vec<PathBuf> {
    files.iter().map(PathBuf::from).collect()
}

/// The string items of the one-line array `key = [...]` in `manifest`.
fn manifest_array<'a>(manifest: &'a str, key: &str) -> Vec<&'a str> {
    let prefix = format!("{key} = [");
    let line = manifest
        .lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()));
    let items = line.and_then(|line| line.strip_suffix(']'));
    let items = items.unwrap_or_else(|| panic!("Cargo.toml has no one-line `{key}`"));
    items
        .split(',')
        .map(|item| item.trim().trim_matches('"'))
        .collect()
}

#[test]
fn the_gate_tests_every_workspace_member() {
    // `cargo test` from the root runs the default members; a crate that a
    // `members` glob picks up must be one of them.
    let manifest = read(Path::new("Cargo.toml"));
    let members = manifest_array(&manifest, "members");
    let defaults = manifest_array(&manifest, "default-members");
    assert_eq!(
        defaults[0], ".",
        "the root package leads the default members"
    );
    assert_eq!(
        defaults[1..],
        members,
        "default members are `.` plus the members"
    );
}

#[test]
fn engine_source_files_stay_under_1500_lines() {
    let files = files_under(&["crates/engine/src"], None);
    let files = files
        .iter()
        .filter(|path| path.extension().is_some_and(|e| e == "rs"));
    let long: Vec<String> = files
        .map(|path| (path, line_count(&read(path))))
        .filter(|&(_, lines)| lines > 1500)
        .map(|(path, lines)| format!("{}: {lines} lines", path.display()))
        .collect();
    assert_none(long, "engine source files over 1,500 lines");
}

#[test]
fn the_evaluator_reads_compiled_plans_only() {
    // Outside their tests, the two evaluation files speak in slots and
    // ids: no AST type, no variable-name table.
    let files = paths(&[
        "crates/engine/src/eval.rs",
        "crates/engine/src/runtime/eval.rs",
    ]);
    let words = ["Term", "Expr", "Atom", "BodyLiteral", "Rule", "VarSlots"];
    let found = hits(&files, non_test, |line| {
        words.iter().any(|word| bounded(line, word, true))
    });
    assert_none(found, "AST types in the evaluator");
}

#[test]
fn one_row_table_one_probe_path() {
    // A relation's rows live in its slot list and its indexes in a `Vec`
    // (no seq- or column-vector-keyed map), and the evaluator asks the
    // store one question (`NodeStore::candidates`).
    let files = paths(&["crates/engine/src/store.rs"]);
    let found = hits(
        &files,
        whole,
        any_of(&["HashMap<u64,", "HashMap<Vec<usize>,"]),
    );
    assert_none(found, "a seq- or column-keyed map in the store");
}

#[test]
fn the_store_is_an_arena() {
    // A relation's dedup map and indexes are chains threaded through its
    // slot list, keyed by a 64-bit key hash: no seq `Vec` per index key and
    // no map keyed by a copy of the row or key.
    let files = paths(&["crates/engine/src/store.rs"]);
    let found = hits(&files, whole, any_of(&["Vec<u64>>", "FastMap<RowKey"]));
    assert_none(found, "a seq vector or row-keyed map in the store");
}

#[test]
fn one_hasher() {
    // Every engine-internal map is a `FastMap`/`FastSet` over the fixed
    // in-crate hasher (`pasn_engine::hash`), the pointer stores, archive
    // index, provenance walks and the variable table key on digests (the
    // crate-private `key::DigestMap`), and the BDD manager's tables are
    // keyed by the ids it minted (its private multiply-rotate hasher):
    // outside test modules, none of these files constructs a std-hashed map.
    let roots = [
        "crates/engine/src",
        "crates/bdd/src",
        "crates/provenance/src/store.rs",
        "crates/provenance/src/moonwalk.rs",
        "crates/provenance/src/tag.rs",
    ];
    let mut files = files_under(&roots, None);
    files.retain(|path| path.extension().is_some_and(|e| e == "rs"));
    let std_hashed = any_of(&["HashMap::new()", "HashSet::new()", "RandomState"]);
    assert_none(hits(&files, non_test, std_hashed), "a std-hashed map");
}

#[test]
fn provenance_queries_build_no_store_map() {
    // `forensics::investigate` and `diagnostics::diagnose` walk the
    // engine's stores through its name directory
    // (`DistributedEngine::traceback`).  The `distributed_stores()` snapshot
    // is for callers that own the traversal; outside tests the facade crate
    // calls it once, in the forwarder that hands it out.
    let files = rust_files_in("crates/core/src");
    let calls = count(&files, non_test, |line| {
        line.contains("distributed_stores()")
    });
    assert!(
        calls <= 1,
        "{calls} non-test `distributed_stores()` lines in pasn"
    );
}

#[test]
fn the_engine_accounts_traffic_it_does_not_queue_it() {
    // Delivery is the work queue's job: a `NetworkSim` inside the engine
    // would park every message ever sent (`send` without `deliver_next`).
    let files = files_under(&["crates/engine/src"], None);
    assert_none(
        hits(&files, whole, any_of(&["NetworkSim"])),
        "the engine queues traffic",
    );
}

#[test]
fn one_evaluation_path() {
    // The engine starts no threads: `EngineConfig::workers` sizes a
    // *modeled* pool (`parallel_wall` and the other Layout rows), kept as
    // accounting on the sequential loop.  And no environment variable picks
    // a pool size or a fault seed: presets and plans are pure values.
    // (hostbench scrubs the names from its children's environment; nothing
    // reads them.)
    let engine = files_under(&["crates/engine/src"], None);
    assert_none(
        hits(&engine, whole, any_of(&["thread::"])),
        "threads in the engine",
    );
    let workers = concat!("PASN_W", "ORKERS");
    let fault_seed = concat!("PASN_F", "AULT_SEED");
    let roots = ["crates", "tests", "examples", ".github"];
    let files = files_under(&roots, Some("hostbench"));
    let found = hits(&files, whole, any_of(&[workers, fault_seed]));
    assert_none(
        found,
        "an environment override of the pool size or fault seed",
    );
}

#[test]
fn runtime_invariants_live_in_types() {
    // Ratchets that only go down: what the runtime's types rule out needs no
    // `unreachable!` arm and no `expect` (1 and 11 left in the six non-test
    // runtime files), and every link key inside the runtime is a `NodeId`
    // pair: raw `u32`s appear only where `pasn-crypto`, `FaultPlan` and
    // `TraceEventKind` are called.
    let runtime = |names: &[&str]| -> Vec<PathBuf> {
        let dir = Path::new("crates/engine/src/runtime");
        names.iter().map(|name| dir.join(name)).collect()
    };
    let six = runtime(&[
        "mod.rs",
        "queue.rs",
        "eval.rs",
        "ship.rs",
        "transport.rs",
        "deletion.rs",
    ]);
    let unreachable = count(&six, whole, |line| line.contains("unreachable!"));
    assert!(
        unreachable <= 1,
        "{unreachable} `unreachable!` lines in the runtime"
    );
    let expects = count(&six, whole, |line| line.contains(".expect("));
    assert!(expects <= 11, "{expects} `.expect(` lines in the runtime");
    let five = runtime(&[
        "mod.rs",
        "queue.rs",
        "ship.rs",
        "transport.rs",
        "deletion.rs",
    ]);
    let raw_link = any_of(&["(u32, u32)", "src: u32", "dst: u32"]);
    assert_none(
        hits(&five, whole, raw_link),
        "a raw `u32` link key in the runtime",
    );
}

#[test]
fn the_deletion_ledger_is_arenas() {
    // Each node's ledger is one firing arena plus one antecedent-occurrence
    // arena, and both indexes are chains threaded through them, so
    // recording a firing allocates nothing of its own: no `Vec` of
    // antecedents per firing, no `Vec` of firing ids per index key.
    // `dynamics.rs` also pins `size_of` the firing record and the support
    // entry at compile time.
    //
    // `FastMap<[^>]*, Vec<u32>>`: a `FastMap<` whose text up to its first
    // `>` is followed by `, Vec<u32>>`.
    let vec_valued_map = |line: &str| {
        line.match_indices("FastMap<").any(|(at, open)| {
            let rest = &line[at + open.len()..];
            let key_end = rest.find('>').unwrap_or(rest.len());
            (0..=key_end).any(|q| {
                rest.get(q..)
                    .is_some_and(|tail| tail.starts_with(", Vec<u32>>"))
            })
        })
    };
    let files = paths(&["crates/engine/src/dynamics.rs"]);
    let found = hits(&files, whole, |line| {
        vec_valued_map(line) || line.contains("antecedents: Vec<u64>")
    });
    assert_none(found, "a `Vec` per firing or per index key in the ledger");
}

#[test]
fn the_overlay_specifies_the_engine_runs() {
    // Ratchets that only go down: DNSSEC and Chord are
    // `pasn::programs::{DNSSEC, CHORD}` on the engine, so nothing in the
    // overlay crate builds a signer, key authority, assertion or derivation
    // graph by hand; and its non-test code stays under 900 lines.
    let files = rust_files_in("crates/overlay/src");
    let lines = non_test_lines(&files);
    assert!(lines <= 900, "{lines} non-test lines in pasn-overlay");
    let by_hand = any_of(&[
        "Authenticator",
        "KeyAuthority",
        "SaysAssertion",
        "DerivationGraph",
        "NewDerivation",
    ]);
    assert_none(
        hits(&files, whole, by_hand),
        "hand-built provenance in the overlay",
    );
}

#[test]
fn local_provenance_is_pointer_records() {
    // Both graph modes keep `DistributedStore` pointer records; a Local
    // node merges the bundle each shipped row carries and forgets a dead
    // tuple, so the string-keyed derivation graph and its types stay
    // deleted.
    let files = files_under(&["crates", "examples", "tests"], None);
    let deleted = any_of(&[
        "DerivationGraph",
        "NewDerivation",
        "TupleNode",
        "ProvNodeId",
        "purge_expired",
        "shipped_graph",
        "local_prov",
    ]);
    assert_none(hits(&files, whole, deleted), "the deleted derivation graph");
}

#[test]
fn one_montgomery_kernel() {
    // Ratchets that only go down: every RSA exponentiation runs on one
    // fixed-limb multiply (a square is that multiply on (a, a); the
    // dedicated squaring kernel measured slower and stays deleted until a
    // `crypto_says` row says otherwise), the kernels take arrays, so the
    // non-test code of `bigint.rs` has no limb-count `expect` left (the 2
    // that remain are the subtraction underflow and Algorithm D's
    // divisor), and `unsafe` stays where it was, in the SHA-NI compression.
    let crypto = files_under(&["crates/crypto/src"], None);
    assert_none(
        hits(&crypto, whole, any_of(&["mont_sqr"])),
        "a squaring kernel",
    );
    let bigint = paths(&["crates/crypto/src/bigint.rs"]);
    let panics = count(&bigint, non_test, any_of(&[".expect(", ".unwrap("]));
    assert!(
        panics <= 2,
        "{panics} non-test `expect`/`unwrap` lines in bigint.rs"
    );
    let unsafe_code = any_of(&["unsafe fn", "unsafe impl", "unsafe {", "allow(unsafe_code)"]);
    let with_unsafe = crypto
        .into_iter()
        .filter(|path| read(path).lines().any(&unsafe_code));
    let with_unsafe: Vec<PathBuf> = with_unsafe.collect();
    assert_eq!(with_unsafe, paths(&["crates/crypto/src/sha256.rs"]));
}

#[test]
fn claims_are_tests_not_timings() {
    // Ratchets that only go down: the provenance knobs (condensation,
    // granularity, local vs distributed graphs, maintenance, sampling,
    // `says` levels) are pinned counter claims in tests/optimizations.rs,
    // so the only Criterion bench is the `says` primitives one; and the
    // authenticated-provenance stub nothing filled stays deleted.
    let entries = fs::read_dir("crates/bench/benches").expect("bench directory");
    let mut benches: Vec<String> = entries
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| !name.starts_with('.'))
        .collect();
    benches.sort();
    assert_eq!(benches, ["crypto_says.rs"]);
    let files = files_under(&["crates"], None);
    let stub = any_of(&["verify_assertions", "derivation_payload"]);
    assert_none(
        hits(&files, whole, stub),
        "the authenticated-provenance stub",
    );
}

#[test]
fn the_route_monitor_is_rules() {
    // Ratchets that only go down: under dynamics every aggregate is an
    // election over its live candidates, so the Section 3 sliding window is
    // `ROUTE_MONITOR` over facts that each live `T`: the imperative monitor
    // and the min/max-only election type stay deleted, and diagnostics
    // keeps to the provenance lookup.
    let files = files_under(&["crates", "examples", "tests"], None);
    let monitor = any_of(&["FlapMonitor", "FlapAlarm", "update_counts", "Extremum"]);
    assert_none(hits(&files, whole, monitor), "the imperative route monitor");
    let lines = non_test_lines(&paths(&["crates/core/src/diagnostics.rs"]));
    assert!(lines <= 70, "{lines} non-test lines in diagnostics.rs");
}

#[test]
fn condensed_provenance_is_read_off_its_bdd() {
    // Ratchets that only go down: a condensed tag's text and wire size are
    // its minimal positive products, read straight off the diagram's paths,
    // so there is no second boolean-expression representation and no BDD
    // operation that only its own tests call; and a moonwalk over a map of
    // stores passes `moonwalk_with` a resolver, like the engine's does.
    let files = files_under(&["crates", "examples", "tests"], None);
    let deleted_ops = [
        "xor",
        "ite",
        "restrict",
        "exists",
        "forall",
        "sat_count",
        "any_sat",
        "clear_caches",
    ];
    let found = hits(&files, whole, |line| {
        any_of(&["BoolExpr", "monotone_from_bdd", "pub fn moonwalk<"])(line)
            || deleted_ops
                .iter()
                .any(|op| bounded(line, &format!("fn {op}"), false))
    });
    assert_none(
        found,
        "a second boolean representation or a deleted BDD operation",
    );
    let lines = non_test_lines(&rust_files_in("crates/bdd/src"));
    assert!(lines <= 340, "{lines} non-test lines in pasn-bdd");
    let constants = any_of(&["false_ref", "true_ref"]);
    assert_none(
        hits(&files, whole, constants),
        "the old BDD constant accessors",
    );
}

#[test]
fn provenance_records_share_their_strings() {
    // A pointer record and an archive entry hold the key, node name, rule
    // label and annotation the engine rendered once (`Arc<str>`), so
    // recording or cloning one copies no bytes; and a store keeps no copy
    // of its own node's name, which its owner already holds.
    let files = paths(&["crates/provenance/src/store.rs"]);
    let owned = any_of(&[
        "rule: String",
        "key: String",
        "location: String",
        "annotation: String",
        "Local(String)",
        "node: String",
    ]);
    assert_none(
        hits(&files, whole, owned),
        "an owned string in a provenance record",
    );
}

#[test]
fn security_levels_live_in_the_engine_config() {
    // The evaluator reads `EngineConfig::security_levels`, and so does
    // everything else: principals and the key authority keep no copy, so
    // the crypto crate never names a level, and no level accessor or
    // builder exists beside the config's own.
    let crypto = files_under(&["crates/crypto/src"], None);
    let levels = hits(&crypto, whole, any_of(&["security_level"]));
    assert_none(levels, "a security level in pasn-crypto");
    let mut files = files_under(&["crates"], None);
    files.retain(|path| path != Path::new("crates/engine/src/config.rs"));
    let copies = any_of(&["security_level_of", "with_security_level"]);
    assert_none(
        hits(&files, whole, copies),
        "a second copy of a security level",
    );
}

/// The twenty fields of `EngineConfig`.
const CONFIG_FIELDS: [&str; 20] = [
    "says_level",
    "provenance",
    "graph_mode",
    "maintenance",
    "sampling",
    "granularity",
    "archive_offline",
    "default_ttl_us",
    "cost_model",
    "rsa_modulus_bits",
    "key_seed",
    "security_levels",
    "use_secondary_indexes",
    "batch_window_us",
    "max_batch_tuples",
    "channel_rebind_frames",
    "dynamics",
    "fault_plan",
    "workers",
    "trace",
];

#[test]
fn one_place_decides_what_a_configuration_means() {
    // `EngineConfig::validate` applies the one implication and the one
    // table of refusals in `crates/engine/src/config.rs`, and the builders
    // are plain setters.  So no other non-test code names a `ConfigError` variant (a
    // refusal is built there, or nowhere), and no runtime file assigns to
    // a configuration field or clamps one off zero (`field.max(1)`).
    let mut sources = files_under(&["crates", "examples", "src"], None);
    sources.retain(|path| {
        let in_src = path.starts_with("examples")
            || path.starts_with("src")
            || path
                .components()
                .nth(2)
                .is_some_and(|dir| dir.as_os_str() == "src");
        let rust = path.extension().is_some_and(|e| e == "rs");
        in_src && rust && path != Path::new("crates/engine/src/config.rs")
    });
    let refusals = hits(&sources, non_test, any_of(&["ConfigError::"]));
    assert_none(refusals, "a configuration refused outside `config.rs`");
    let runtime = files_under(&["crates/engine/src/runtime"], None);
    let rewrites = hits(&runtime, non_test, |line| {
        CONFIG_FIELDS.iter().any(|field| {
            let written = ["=", "|=", "&=", "+=", "-="].iter().any(|op| {
                let assignment = format!("config.{field} {op}");
                line.match_indices(&assignment)
                    .any(|(at, _)| !line[at + assignment.len()..].starts_with('='))
            });
            written || line.contains(&format!("{field}.max(1)"))
        })
    });
    assert_none(rewrites, "a configuration field rewritten in `runtime/`");
}

#[test]
fn one_place_decides_what_a_program_means() {
    // Each well-formedness rule of the front end is made in one module and
    // run once: `compile_program` validates once, before localization;
    // whether a rule binds what it reads is the planner's binding walk
    // alone; and every refusal is a `PlanError`.
    let rust = |path: &PathBuf| path.extension().is_some_and(|e| e == "rs");
    let mut crates = files_under(&["crates"], None);
    crates.retain(rust);
    let calls = hits(&crates, non_test, |line| {
        line.contains("validate_program(") && !line.contains("fn validate_program(")
    });
    assert_eq!(
        calls.len(),
        1,
        "`validate_program` runs once per compile:\n{}",
        calls.join("\n")
    );
    let mut front_end = files_under(&["crates/datalog/src"], None);
    front_end.retain(|path| rust(path) && path != Path::new("crates/datalog/src/plan.rs"));
    let phrases = [
        "never bound",
        "not bound",
        "unbound",
        "unsafe rule",
        "bound by",
        "bound_variables",
    ];
    let binding = hits(&front_end, non_test, |line| {
        phrases.iter().any(|phrase| bounded(line, phrase, true))
    });
    assert_none(binding, "a variable-binding refusal outside `plan.rs`");
    let mut sources = files_under(&["crates", "src", "tests", "examples"], None);
    sources.retain(rust);
    let types = hits(&sources, whole, |line| {
        ["ValidationError", "LocalizeError"]
            .iter()
            .any(|name| bounded(line, name, true))
    });
    assert_none(types, "a second front-end error type");
}

#[test]
fn a_read_shares_the_stored_row() {
    // A `Tuple` holds the interned predicate name and the stored row's
    // `Arc`s, so `query`, `query_all` and `expire` hand out refcount bumps,
    // not copies.  (Both files keep their tests in separate files, so all of
    // either is non-test code.)
    let tuple = paths(&["crates/engine/src/tuple.rs"]);
    let owned = any_of(&["pub predicate: String", "pub values: Vec<Value>"]);
    assert_none(hits(&tuple, whole, owned), "an owned `Tuple`");
    let readers = paths(&[
        "crates/engine/src/store.rs",
        "crates/engine/src/runtime/mod.rs",
    ]);
    let copies = hits(&readers, whole, any_of(&["values.to_vec()"]));
    assert_none(copies, "a row copied on read");
}

#[test]
fn one_probe_path_one_query() {
    let files = files_under(&["crates/engine/src", "crates/core/src"], None);
    let deleted = any_of(&["scan_cache", "probe_seq_id", "query_ordered"]);
    assert_none(hits(&files, whole, deleted), "a second probe path or query");
}

#[test]
fn no_argument_list_overflow_anywhere() {
    let files = files_under(&["crates", "shims", "tests", "examples"], None);
    let allowed = hits(&files, whole, any_of(&["too_many_arguments"]));
    assert_none(allowed, "a `too_many_arguments` allowance");
}

/// The `pub fn`s that no non-test code calls, each keyed by its owner
/// (`Type::name`, or `module::name` for a free function), and why each
/// stays.  An entry leaves the list when its function is deleted or gains a
/// caller (`the_uncalled_allowlist_is_current`).
const UNCALLED_PUB_FNS: [(&str, &str); 43] = [
    // Wire encoders, decoders and length-prefix helpers: ROADMAP item 14
    // puts them on a receive path or deletes them.
    (
        "wire::put_len_prefixed",
        "wire helper; item 14 calls or deletes it",
    ),
    (
        "wire::get_len_prefixed",
        "wire helper; item 14 calls or deletes it",
    ),
    (
        "wire::len_prefixed_size",
        "wire helper; item 14 calls or deletes it",
    ),
    (
        "SaysProof::to_bytes",
        "the proof encoding `SaysAssertion::wire_len` charges; item 14 ships it",
    ),
    (
        "SaysProof::from_bytes",
        "`SaysProof` decoder; item 14 calls or deletes it",
    ),
    (
        "Tuple::decode",
        "`Tuple` decoder beside `SaysProof::from_bytes`; item 14 calls or deletes it",
    ),
    // `NetworkSim` goes once hostbench stops timing it (ROADMAP item 2).
    ("NetworkSim::cost_model", "item 2 deletes `NetworkSim`"),
    ("NetworkSim::horizon", "item 2 deletes `NetworkSim`"),
    ("NetworkSim::is_idle", "item 2 deletes `NetworkSim`"),
    ("NetworkSim::pending", "item 2 deletes `NetworkSim`"),
    ("NetworkSim::stats", "item 2 deletes `NetworkSim`"),
    // Checkers, references and fixtures that tests hold the engine against.
    (
        "NodeStore::check_index_consistency",
        "the store's index invariant check",
    ),
    (
        "Topology::shortest_path_costs",
        "the Dijkstra oracle for Best-Path costs",
    ),
    (
        "baseline::bellman_ford",
        "the Bellman-Ford oracle for distance-vector costs",
    ),
    (
        "Topology::is_strongly_connected",
        "the topology generators' connectivity check",
    ),
    (
        "DistributedStore::entry_count",
        "the pointer store's size, read by the store tests",
    ),
    (
        "Topology::ring",
        "a topology fixture eight test files build on",
    ),
    (
        "Topology::line",
        "a topology fixture eight test files build on",
    ),
    // Public API whose callers are tests: builders and reads a user of the
    // engine calls.
    ("FaultPlan::crash_node", "`FaultPlan` builder"),
    ("FaultPlan::cut_link", "`FaultPlan` builder"),
    ("FaultPlan::lossless", "`FaultPlan` builder"),
    ("FaultPlan::with_drop_per_mille", "`FaultPlan` builder"),
    ("ChurnScript::node_fail", "`ChurnEvent` builder"),
    ("ChurnScript::node_rejoin", "`ChurnEvent` builder"),
    (
        "EngineConfig::with_channel_rebind_frames",
        "`EngineConfig` builder",
    ),
    (
        "EngineConfig::with_max_batch_tuples",
        "`EngineConfig` builder",
    ),
    ("TraceConfig::with_ring", "`TraceConfig` builder"),
    (
        "DistributedEngine::retract_fact_at",
        "engine API: retract a base fact at a time",
    ),
    (
        "DistributedEngine::materialize_provenance",
        "engine API: snapshot provenance stores",
    ),
    (
        "DistributedEngine::metrics",
        "engine API: the counters of the runs so far",
    ),
    (
        "DistributedEngine::moonwalk",
        "engine API: sample a tuple's origins (Section 4.2)",
    ),
    ("parser::parse_rule", "datalog API: parse one rule"),
    ("programs::distance_vector", "built-in program parser"),
    ("programs::path_vector", "built-in program parser"),
    ("programs::reachability_sendlog", "built-in program parser"),
    ("RatePlan::flat", "billing rate-plan constructor"),
    ("RatePlan::tiered", "billing rate-plan constructor"),
    (
        "BillingRun::compute",
        "billing API: price an accountability report",
    ),
    ("MoonwalkResult::suspected_origin", "moonwalk result query"),
    ("MoonwalkResult::hit_rate", "moonwalk result query"),
    ("Granularity::uniform_as", "granularity constructor"),
    (
        "ZoneTree::anchor_at",
        "DNSSEC deployment API: anchor a zone's key",
    ),
    (
        "TraceRecorder::dropped_events",
        "flight recorder API: ring evictions so far",
    ),
];

/// `text` with its `//` comments and its `use` declarations (however many
/// lines each spans) blanked, line for line.
fn code_without_uses(text: &str) -> Vec<&str> {
    let mut in_use = false;
    let mut lines = Vec::new();
    for line in text.lines() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        let trimmed = code.trim_start();
        let opens_use = ["use ", "pub use ", "pub(crate) use "]
            .iter()
            .any(|start| trimmed.starts_with(start));
        if in_use || opens_use {
            in_use = !code.contains(';');
            lines.push("");
        } else {
            lines.push(code);
        }
    }
    lines
}

/// `text` with every `//` comment blanked to spaces, and every string or
/// character literal but its two delimiters, newlines kept: what the
/// compiler reads as code, line for line.  Lifetimes (`'a`) are code.  (The
/// tree has no block comments.)
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < chars.len() {
        let (c, next) = (chars[i], chars.get(i + 1).copied());
        let after_word = i > 0 && word(chars[i - 1]);
        // The end (exclusive) of a comment or literal starting at `i`.
        let end = if c == '/' && next == Some('/') {
            (i..chars.len())
                .find(|&j| chars[j] == '\n')
                .unwrap_or(chars.len())
        } else if c == 'r' && !after_word && matches!(next, Some('"' | '#')) {
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            let open = i + 1 + hashes;
            if chars.get(open) != Some(&'"') {
                out.push(c);
                i += 1;
                continue;
            }
            let close = (open + 1..chars.len()).find(|&j| {
                chars[j] == '"'
                    && chars[j + 1..].iter().take_while(|&&h| h == '#').count() >= hashes
            });
            close.map_or(chars.len(), |j| j + 1 + hashes)
        } else if c == '"' {
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '"' {
                j += if chars[j] == '\\' { 2 } else { 1 };
            }
            j + 1
        } else if c == '\'' && next == Some('\\') {
            (i + 3..chars.len())
                .find(|&j| chars[j] == '\'')
                .map_or(chars.len(), |j| j + 1)
        } else if c == '\'' && chars.get(i + 2) == Some(&'\'') {
            i + 3
        } else {
            out.push(c);
            i += 1;
            continue;
        };
        let end = end.min(chars.len());
        let literal = chars[i] != '/';
        for (at, &c) in chars.iter().enumerate().take(end).skip(i) {
            match literal && (at == i || at + 1 == end) {
                true => out.push(c),
                false => blank(&mut out, c),
            }
        }
        i = end;
    }
    out
}

/// The tokens of `code` (see [`code_only`]): each word (an identifier,
/// keyword or number, a lifetime with its quote) and each other character
/// on its own, with its 1-based line.
fn tokens(code: &str) -> Vec<(usize, &str)> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut found = Vec::new();
    let mut line = 1;
    let mut rest = code.char_indices().peekable();
    while let Some((at, c)) = rest.next() {
        if c == '\n' {
            line += 1;
        } else if word(c) || c == '\'' && rest.peek().is_some_and(|&(_, n)| word(n)) {
            let mut end = at + c.len_utf8();
            while let Some(&(next, n)) = rest.peek() {
                if !word(n) {
                    break;
                }
                end = next + n.len_utf8();
                rest.next();
            }
            found.push((line, &code[at..end]));
        } else if !c.is_whitespace() {
            found.push((line, &code[at..at + c.len_utf8()]));
        }
    }
    found
}

/// The index just past the `<...>` group opening at `open` (an arrow's
/// `>` does not close it).
fn past_angles(toks: &[(usize, &str)], open: usize) -> usize {
    let mut depth = 0;
    for at in open..toks.len() {
        match toks[at].1 {
            "<" => depth += 1,
            ">" if toks[at - 1].1 != "-" => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return at + 1;
        }
    }
    toks.len()
}

/// How many arguments the list opening at `open` (a `(`) holds: its
/// top-level commas, past nested brackets and, in a signature (`types`),
/// generic arguments; a closure's `|…|` parameters are skipped.
fn arguments(toks: &[(usize, &str)], open: usize, types: bool) -> usize {
    let (mut depth, mut count, mut fresh, mut at) = (0, 0, true, open + 1);
    while at < toks.len() {
        match toks[at].1 {
            ")" if depth == 0 => break,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" if types => depth += 1,
            ">" if types && toks[at - 1].1 != "-" => depth -= 1,
            "," if depth == 0 => {
                count += 1;
                fresh = true;
                at += 1;
                continue;
            }
            "move" => {
                at += 1;
                continue;
            }
            "|" if depth == 0 && fresh => {
                at += 1;
                while at < toks.len() && toks[at].1 != "|" {
                    at += 1;
                }
            }
            _ => {}
        }
        fresh = false;
        at += 1;
    }
    count + usize::from(!fresh)
}

/// The type an `impl` header starting at `at` implements for: the last
/// path segment of the self type (after `for`, if any) before its generics.
fn impl_owner(toks: &[(usize, &str)], at: usize) -> String {
    let mut from = at + 1;
    if toks.get(from).is_some_and(|t| t.1 == "<") {
        from = past_angles(toks, from);
    }
    let header = &toks[from..];
    let end = header.iter().position(|t| t.1 == "{" || t.1 == "where");
    let header = &header[..end.unwrap_or(header.len())];
    let self_type = match header.iter().position(|t| t.1 == "for") {
        Some(after) => &header[after + 1..],
        None => header,
    };
    let path = self_type.iter().take_while(|t| t.1 != "<");
    let segments = path.filter(|t| t.1.chars().all(|c| c.is_alphanumeric() || c == '_'));
    segments.last().map_or(String::new(), |t| t.1.to_string())
}

/// How a `pub fn` is called: a method (it takes `self`) in call position,
/// `.name(`, or by its owner's path; an associated function by its owner's
/// path; a free function by a bare call or a path.
#[derive(Clone, Copy)]
enum Kind {
    Method,
    Associated,
    Free,
}

/// A `pub fn` of the library crates: how it is called, how many arguments
/// a call passes (`self` aside) and where it is defined.
struct PubFn {
    kind: Kind,
    arity: usize,
    sites: Vec<String>,
}

/// What the non-test callers name: methods in call position (`.name(`),
/// with the number of arguments passed, `Owner::name` paths (`Self::name`
/// resolved to its `impl`), and bare calls (`name(`).
#[derive(Default)]
struct Uses {
    methods: BTreeSet<(String, usize)>,
    paths: BTreeSet<(String, String)>,
    calls: BTreeSet<String>,
}

/// The module a free function of `path` belongs to: the file's stem, the
/// directory of a `mod.rs`, the crate directory of a `lib.rs`.
fn module_of(path: &Path) -> String {
    let stem = path
        .file_stem()
        .map_or(String::new(), |s| s.to_string_lossy().into());
    let dir = |up: usize| {
        let dir = path.ancestors().nth(up).and_then(|d| d.file_name());
        dir.map_or(String::new(), |d| d.to_string_lossy().into())
    };
    match stem.as_str() {
        "mod" => dir(1),
        "lib" => dir(2),
        _ => stem,
    }
}

/// Reads the non-test code of `path`: records every `pub fn` it defines
/// into `defined` (keyed `Owner::name`), when given, and every use into
/// `uses`.  `use` declarations name nothing.
fn scan(path: &Path, mut defined: Option<&mut BTreeMap<String, PubFn>>, uses: &mut Uses) {
    let text = read(path);
    let code = code_only(non_test(path, &text));
    let toks = tokens(&code);
    let name_at = |at: usize| toks.get(at).map_or("", |t| t.1);
    let mut depth = 0;
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut at = 0;
    while at < toks.len() {
        let (line, tok) = toks[at];
        let owner = impls.last().map(|(_, owner)| owner.as_str());
        match tok {
            "use" => {
                while at < toks.len() && toks[at].1 != ";" {
                    at += 1;
                }
            }
            "impl" => pending = Some(impl_owner(&toks, at)),
            "{" => {
                depth += 1;
                if let Some(owner) = pending.take() {
                    impls.push((depth, owner));
                }
            }
            "}" => {
                if impls.last().is_some_and(|(body, _)| *body == depth) {
                    impls.pop();
                }
                depth -= 1;
            }
            "pub"
                if name_at(at + 1) == "fn"
                    || name_at(at + 1) == "const" && name_at(at + 2) == "fn" =>
            {
                let name_at_fn = at + if name_at(at + 1) == "fn" { 2 } else { 3 };
                let name = name_at(name_at_fn);
                let mut params = name_at_fn + 1;
                if name_at(params) == "<" {
                    params = past_angles(&toks, params);
                }
                let receiver = toks[params + 1..]
                    .iter()
                    .map(|t| t.1)
                    .find(|t| !(*t == "&" || *t == "mut" || t.starts_with('\'')));
                let arity = arguments(&toks, params, true) - usize::from(receiver == Some("self"));
                let (scope, kind) = match impls.last().filter(|(body, _)| *body == depth) {
                    Some((_, owner)) if receiver == Some("self") => (owner.clone(), Kind::Method),
                    Some((_, owner)) => (owner.clone(), Kind::Associated),
                    None => (module_of(path), Kind::Free),
                };
                if let Some(defined) = defined.as_deref_mut() {
                    let sites = Vec::new();
                    let entry = defined.entry(format!("{scope}::{name}"));
                    let entry = entry.or_insert(PubFn { kind, arity, sites });
                    entry.sites.push(format!("{}:{line}", path.display()));
                }
                at = name_at_fn;
            }
            "." if name_at(at + 2) == "(" || name_at(at + 2) == ":" && name_at(at + 4) == "<" => {
                let open = match name_at(at + 2) {
                    "(" => at + 2,
                    _ => past_angles(&toks, at + 4),
                };
                let call = (name_at(at + 1).to_string(), arguments(&toks, open, false));
                uses.methods.insert(call);
            }
            _ if name_at(at + 1) == ":" && name_at(at + 2) == ":" => {
                let prefix = match tok {
                    "Self" => owner.unwrap_or("Self"),
                    _ => tok,
                };
                let path = (prefix.to_string(), name_at(at + 3).to_string());
                uses.paths.insert(path);
            }
            _ if name_at(at + 1) == "(" && at > 0 && !matches!(toks[at - 1].1, "." | "fn") => {
                uses.calls.insert(tok.to_string());
            }
            _ => {}
        }
        at += 1;
    }
}

/// Every `pub fn` in the non-test code of the library crates (not
/// hostbench), keyed by owner, and what non-test code under `crates/`
/// (hostbench included; not `crates/*/tests/`), `examples/` and `src/`
/// names.
fn pub_fns_and_uses() -> (BTreeMap<String, PubFn>, Uses) {
    let rust = |path: &PathBuf| path.extension().is_some_and(|e| e == "rs");
    let in_dir = |path: &PathBuf, dir: &str| {
        let component = path.components().nth(2);
        component.is_some_and(|c| c.as_os_str() == dir)
    };
    let (mut defined, mut uses) = (BTreeMap::new(), Uses::default());
    for path in files_under(&["crates", "examples", "src"], None) {
        let library =
            in_dir(&path, "src") && !path.components().any(|c| c.as_os_str() == "hostbench");
        let defines = (path.starts_with("crates") && library).then_some(&mut defined);
        if rust(&path) && !in_dir(&path, "tests") {
            scan(&path, defines, &mut uses);
        }
    }
    (defined, uses)
}

/// Whether non-test code calls the `pub fn` keyed `key` (see [`Kind`]): a
/// method call counts only with as many arguments as the method takes.
fn is_called(key: &str, pub_fn: &PubFn, defined: &BTreeMap<String, PubFn>, uses: &Uses) -> bool {
    let (owner, name) = key.rsplit_once("::").expect("keys are `Owner::name`");
    let by_path = uses.paths.contains(&(owner.to_string(), name.to_string()));
    match pub_fn.kind {
        // Clippy's `len_without_is_empty` asks for `is_empty` beside a
        // `pub fn len`, called or not.
        Kind::Method if name == "is_empty" && defined.contains_key(&format!("{owner}::len")) => {
            true
        }
        Kind::Method => by_path || uses.methods.contains(&(name.to_string(), pub_fn.arity)),
        Kind::Associated => by_path,
        Kind::Free => uses.calls.contains(name) || uses.paths.iter().any(|(_, n)| n == name),
    }
}

#[test]
fn every_pub_fn_has_a_caller() {
    // A `pub fn` that only tests call is code kept for its own tests: delete
    // it, or make it `pub(crate)` and let the dead-code lint decide.  The
    // few that stay are listed in `UNCALLED_PUB_FNS`, each with its reason;
    // no other may join them.  A name counts as called only where the
    // compiler could resolve it to its owner: a method in call position with
    // as many arguments as it takes, an associated function by its type's
    // path.  A macro of the same word, a field or a variable does not count.
    // What the fence cannot resolve is the receiver's type: a method passes
    // when any type's method of that name and arity is called (so do
    // `TraceRecorder::events` and `TrafficStats::megabytes`, through
    // `ChurnScript::events` and `RunMetrics::megabytes`); the compiler audit
    // in ROADMAP's "The gate" finds those.
    let (defined, uses) = pub_fns_and_uses();
    let listed: BTreeSet<&str> = UNCALLED_PUB_FNS.iter().map(|&(key, _)| key).collect();
    let uncalled: Vec<String> = defined
        .iter()
        .filter(|(key, pub_fn)| {
            !listed.contains(key.as_str()) && !is_called(key, pub_fn, &defined, &uses)
        })
        .map(|(key, pub_fn)| format!("{key}: {}", pub_fn.sites.join(", ")))
        .collect();
    assert_none(uncalled, "a `pub fn` that no non-test code calls");
}

#[test]
fn the_uncalled_allowlist_is_current() {
    // Each `UNCALLED_PUB_FNS` entry still names a `pub fn`, and one that
    // non-test code still does not call; a listed function that was deleted
    // or gained a caller leaves the list, so the list only shrinks.
    let (defined, uses) = pub_fns_and_uses();
    let stale: Vec<String> = UNCALLED_PUB_FNS
        .iter()
        .filter_map(|&(key, _)| match defined.get(key) {
            None => Some(format!("{key}: no longer a `pub fn`")),
            Some(pub_fn) if is_called(key, pub_fn, &defined, &uses) => {
                Some(format!("{key}: now has a non-test caller"))
            }
            Some(_) => None,
        })
        .collect();
    assert_none(stale, "a stale `UNCALLED_PUB_FNS` entry");
}

/// The engine forwarders `SecureNetwork` keeps because `hostbench` calls
/// them; every other caller uses the engine's own names.  The benchmark's
/// next revision (ROADMAP item 2) moves `hostbench` to the engine, and the
/// list only shrinks (`the_forwarder_list_is_current`).
const HOSTBENCH_FORWARDERS: [&str; 8] = [
    "distributed_stores",
    "query",
    "query_all",
    "render_provenance",
    "run",
    "run_streaming",
    "trace",
    "var_table",
];

/// Every `pub fn` in the non-test code of `crates/core/src` whose body is
/// one expression (no `;`) calling a method of `self.engine`, with where it
/// is defined.
fn engine_forwarders() -> BTreeMap<String, String> {
    let mut found = BTreeMap::new();
    for path in files_under(&["crates/core/src"], None) {
        let text = read(&path);
        let lines = code_without_uses(non_test(&path, &text));
        for (at, line) in lines.iter().enumerate() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name = rest
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next();
            let name = name.unwrap_or_default();
            // The body: from the first `{` of the definition to its match.
            let mut body = String::new();
            let mut depth = 0usize;
            let chars = lines[at..].iter().flat_map(|line| line.chars());
            for c in chars.skip_while(|&c| c != '{') {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
                body.push(c);
                if depth == 0 {
                    break;
                }
            }
            if body.contains("self.engine.") && !body.contains(';') {
                let site = format!("{}:{}", path.display(), at + 1);
                found.insert(name.to_string(), site);
            }
        }
    }
    found
}

#[test]
fn the_facade_forwards_nothing() {
    // `SecureNetwork` builds an engine and steps aside: a caller reaches the
    // engine's operations through `engine()` / `engine_mut()`, so no `pub
    // fn` in the facade crate restates one, except the few `hostbench`
    // still calls.
    let listed: BTreeSet<&str> = HOSTBENCH_FORWARDERS.into_iter().collect();
    let forwarders: Vec<String> = engine_forwarders()
        .into_iter()
        .filter(|(name, _)| !listed.contains(name.as_str()))
        .map(|(name, site)| format!("{name}: {site}"))
        .collect();
    assert_none(forwarders, "a `pub fn` that only forwards to the engine");
}

#[test]
fn the_forwarder_list_is_current() {
    // Each `HOSTBENCH_FORWARDERS` entry still names a forwarder; one that was
    // deleted or grew into more than a forwarder leaves the list.
    let forwarders = engine_forwarders();
    let stale: Vec<String> = HOSTBENCH_FORWARDERS
        .iter()
        .filter(|name| !forwarders.contains_key(**name))
        .map(|name| format!("{name}: no longer an engine forwarder"))
        .collect();
    assert_none(stale, "a stale `HOSTBENCH_FORWARDERS` entry");
}
