//! End-to-end tests of the `cfdclean` command surface, driven through
//! `dispatch` with a capture buffer — the same code path as the binary,
//! minus process spawning.

use std::path::PathBuf;

use cfd_cli::dispatch;

/// A scratch directory unique to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cfdclean-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(argv: &[&str]) -> Result<String, String> {
    let mut buf = Vec::new();
    match dispatch(argv, &mut buf) {
        Ok(()) => Ok(String::from_utf8(buf).unwrap()),
        Err(e) => Err(e.to_string()),
    }
}

fn generate_workload(s: &Scratch, tuples: usize) {
    let out = run(&[
        "generate",
        "--out-dir",
        &s.path(""),
        "--tuples",
        &tuples.to_string(),
        "--noise",
        "0.05",
    ])
    .unwrap();
    assert!(out.contains("generated"), "{out}");
}

#[test]
fn generate_then_detect_reports_violations() {
    let s = Scratch::new("detect");
    generate_workload(&s, 600);
    let out = run(&[
        "detect",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
    ])
    .unwrap();
    assert!(out.contains("dirty:"), "{out}");
    // the clean file really is clean
    let out = run(&[
        "detect",
        "--data",
        &s.path("dopt.csv"),
        "--rules",
        &s.path("rules.cfd"),
    ])
    .unwrap();
    assert!(out.contains("clean"), "{out}");
}

#[test]
fn repair_produces_a_clean_file() {
    let s = Scratch::new("repair");
    generate_workload(&s, 600);
    let out = run(&[
        "repair",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--weights",
        &s.path("dirty_weights.csv"),
        "--out",
        &s.path("repaired.csv"),
        "--stats",
    ])
    .unwrap();
    assert!(out.contains("repaired 600 tuples"), "{out}");
    assert!(
        out.contains("steps"),
        "--stats should print counters: {out}"
    );
    let out = run(&[
        "detect",
        "--data",
        &s.path("repaired.csv"),
        "--rules",
        &s.path("rules.cfd"),
    ])
    .unwrap();
    assert!(out.contains("clean"), "{out}");
}

#[test]
fn speculate_flag_is_rejected_as_unknown() {
    // BATCHREPAIR has one serial resolution loop and each kernel one
    // implementation: none of `--speculate`, `--threads` and `--no-simd`
    // is a flag of `repair`, `client repair` or `detect`, and no help
    // text lists them.
    let s = Scratch::new("speculate-unknown");
    generate_workload(&s, 200);
    for flag in ["speculate", "threads", "no-simd"] {
        let retired = format!("--{flag}");
        let repair = [
            "repair",
            "--data",
            &s.path("dirty.csv"),
            "--rules",
            &s.path("rules.cfd"),
            "--out",
            &s.path("repaired.csv"),
            &retired,
            "4",
        ];
        // Rejected before any connection is attempted.
        let client = [
            "client",
            "repair",
            "--unix",
            &s.path("no-daemon.sock"),
            "--name",
            "d",
            "--out",
            &s.path("client.csv"),
            &retired,
            "4",
        ];
        let detect = [
            "detect",
            "--data",
            &s.path("dirty.csv"),
            "--rules",
            &s.path("rules.cfd"),
            &retired,
            "4",
        ];
        let expected = format!("unknown flag {retired}");
        for argv in [&repair[..], &client[..], &detect[..]] {
            let err = run(argv).unwrap_err();
            assert!(err.contains(&expected), "{err}");
            let status = std::process::Command::new(env!("CARGO_BIN_EXE_cfdclean"))
                .args(argv)
                .output()
                .unwrap();
            assert!(!status.status.success(), "{argv:?} must exit non-zero");
            let stderr = String::from_utf8_lossy(&status.stderr);
            assert!(stderr.contains(&expected), "{stderr}");
        }
        for command in ["repair", "client", "detect"] {
            let usage = run(&[command]).unwrap_err();
            assert!(!usage.contains(flag), "{command} help: {usage}");
        }
    }
    assert!(!std::path::Path::new(&s.path("repaired.csv")).exists());
}

#[test]
fn pick_flag_is_rejected_as_unknown() {
    // BATCHREPAIR has one PICKNEXT: `--pick global` is an unknown flag of
    // `repair` and `client repair`, exits 1 without panicking, and
    // neither help text lists it.
    let s = Scratch::new("pick-unknown");
    generate_workload(&s, 200);
    let repair = [
        "repair",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--out",
        &s.path("repaired.csv"),
        "--pick",
        "global",
    ];
    // Rejected before any connection is attempted.
    let client = [
        "client",
        "repair",
        "--unix",
        &s.path("no-daemon.sock"),
        "--name",
        "d",
        "--out",
        &s.path("client.csv"),
        "--pick",
        "global",
    ];
    for argv in [&repair[..], &client[..]] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_cfdclean"))
            .args(argv)
            .output()
            .unwrap();
        assert_eq!(status.status.code(), Some(1), "{argv:?}");
        let stderr = String::from_utf8_lossy(&status.stderr);
        assert!(stderr.contains("unknown flag --pick"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    for command in ["repair", "client"] {
        let usage = run(&[command]).unwrap_err();
        assert!(!usage.contains("--pick"), "{command} help: {usage}");
    }
    assert!(!std::path::Path::new(&s.path("repaired.csv")).exists());
}

#[test]
fn repair_incremental_algorithms_also_clean() {
    let s = Scratch::new("repair-inc");
    generate_workload(&s, 400);
    for algo in ["v-inc", "w-inc", "l-inc"] {
        let out = run(&[
            "repair",
            "--data",
            &s.path("dirty.csv"),
            "--rules",
            &s.path("rules.cfd"),
            "--out",
            &s.path("repaired.csv"),
            "--algorithm",
            algo,
        ])
        .unwrap();
        assert!(out.contains(algo), "{out}");
        let out = run(&[
            "detect",
            "--data",
            &s.path("repaired.csv"),
            "--rules",
            &s.path("rules.cfd"),
        ])
        .unwrap();
        assert!(out.contains("clean"), "{algo}: {out}");
    }
}

#[test]
fn insert_repairs_updates_and_refuses_dirty_base() {
    let s = Scratch::new("insert");
    generate_workload(&s, 600);
    // take a few dirty rows as "new" tuples
    let dirty = std::fs::read_to_string(s.path("dirty.csv")).unwrap();
    let mut lines = dirty.lines();
    let header = lines.next().unwrap();
    let updates: Vec<&str> = lines.take(5).collect();
    std::fs::write(
        s.path("new.csv"),
        format!("{header}\n{}\n", updates.join("\n")),
    )
    .unwrap();
    let out = run(&[
        "insert",
        "--base",
        &s.path("dopt.csv"),
        "--updates",
        &s.path("new.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--out",
        &s.path("merged.csv"),
    ])
    .unwrap();
    assert!(out.contains("inserted 5 tuple(s)"), "{out}");
    let out = run(&[
        "detect",
        "--data",
        &s.path("merged.csv"),
        "--rules",
        &s.path("rules.cfd"),
    ])
    .unwrap();
    assert!(out.contains("clean"), "{out}");
    // a dirty base is rejected up front
    let err = run(&[
        "insert",
        "--base",
        &s.path("dirty.csv"),
        "--updates",
        &s.path("new.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--out",
        &s.path("merged.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("base is not clean"), "{err}");
}

#[test]
fn stream_replays_an_event_log_into_window_edit_logs() {
    let s = Scratch::new("stream");
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    let base = format!("{fixtures}/cust_repaired.csv");
    let rules = format!("{fixtures}/cust_rules.txt");
    let events = s.path("events.txt");
    // Two dirty arrivals, one per tumbling window: AC 212 pins NYC/NY,
    // zip 19014 pins PHI/PA.
    std::fs::write(
        &events,
        "# window 0\n\
         i 1 c7,Quinn,9.99,212,5550001,Fifth,PHI,PA,10012\n\
         # window 1\n\
         i 12 c8,Ray,5.00,215,5550002,Walnut,NYC,NY,19014\n",
    )
    .unwrap();
    let out = run(&[
        "stream",
        "--base",
        &base,
        "--rules",
        &rules,
        "--events",
        &events,
        "--out-dir",
        &s.path("windows"),
        "--window",
        "10",
        "--final",
        &s.path("final.csv"),
    ])
    .unwrap();
    assert!(out.contains("accepted 2 event(s)"), "{out}");
    assert!(out.contains("stream closed"), "{out}");
    for w in ["window-0.cfde", "window-1.cfde"] {
        let log = std::fs::read(s.path(&format!("windows/{w}"))).expect(w);
        assert!(!log.is_empty(), "{w} must hold the window's edits");
    }
    // Both arrivals were repaired on the way in: the final relation is
    // clean under the same rules.
    let detect = run(&["detect", "--data", &s.path("final.csv"), "--rules", &rules]).unwrap();
    assert!(detect.contains("clean"), "{detect}");
    let final_csv = std::fs::read_to_string(s.path("final.csv")).unwrap();
    assert!(final_csv.contains("c7,Quinn"), "{final_csv}");
    assert_eq!(
        final_csv.lines().count(),
        1 + 4 + 2,
        "header + base + arrivals"
    );

    // Bad geometry answers the usage error, not a panic.
    let err = run(&[
        "stream",
        "--base",
        &base,
        "--rules",
        &rules,
        "--events",
        &events,
        "--out-dir",
        &s.path("w2"),
        "--window",
        "5",
        "--slide",
        "9",
    ])
    .unwrap_err();
    assert!(err.contains("slide"), "{err}");
}

#[test]
fn certify_accepts_good_repair_and_rejects_the_dirty_input() {
    let s = Scratch::new("certify");
    generate_workload(&s, 800);
    run(&[
        "repair",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--weights",
        &s.path("dirty_weights.csv"),
        "--out",
        &s.path("repaired.csv"),
    ])
    .unwrap();
    let out = run(&[
        "certify",
        "--repair",
        &s.path("repaired.csv"),
        "--dirty",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--truth",
        &s.path("dopt.csv"),
        "--epsilon",
        "0.05",
    ])
    .unwrap();
    assert!(out.contains("ACCEPTED"), "{out}");
    // certifying the dirty file against the truth must fail: 5% of its
    // tuples are inaccurate and epsilon is far below that
    let out = run(&[
        "certify",
        "--repair",
        &s.path("dirty.csv"),
        "--dirty",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--truth",
        &s.path("dopt.csv"),
        "--epsilon",
        "0.001",
    ])
    .unwrap();
    assert!(out.contains("REJECTED"), "{out}");
}

#[test]
fn help_and_error_paths() {
    let out = run(&["help"]).unwrap();
    assert!(out.contains("usage"), "{out}");
    let out = run(&["help", "rules"]).unwrap();
    assert!(out.contains("wildcard"), "{out}");
    for command in ["frobnicate", "discover"] {
        let err = run(&[command]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }
    // a bare command prints its usage as the error
    let err = run(&["repair"]).unwrap_err();
    assert!(err.contains("--data"), "{err}");
    // unknown flags are hard errors
    let s = Scratch::new("badflag");
    generate_workload(&s, 200);
    let err = run(&[
        "detect",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--typo",
        "1",
    ])
    .unwrap_err();
    assert!(err.contains("unknown flag --typo"), "{err}");
}

#[test]
fn snapshot_save_load_info_round_trip() {
    let s = Scratch::new("snapshot");
    generate_workload(&s, 400);
    let out = run(&[
        "snapshot",
        "save",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "dirty-v1",
        "--data",
        &s.path("dirty.csv"),
        "--weights",
        &s.path("dirty_weights.csv"),
        "--rules",
        &s.path("rules.cfd"),
    ])
    .unwrap();
    assert!(out.contains("saved 400 tuple(s)"), "{out}");
    // info describes the dataset; bare info lists the catalog
    let out = run(&[
        "snapshot",
        "info",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "dirty-v1",
    ])
    .unwrap();
    assert!(out.contains("400 live"), "{out}");
    assert!(out.contains("embedded"), "{out}");
    let out = run(&["snapshot", "info", "--catalog", &s.path("catalog")]).unwrap();
    assert!(out.contains("dirty-v1"), "{out}");
    // load materializes CSV + weights + rules byte-compatible with the
    // originals
    let out = run(&[
        "snapshot",
        "load",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "dirty-v1",
        "--out",
        &s.path("restored.csv"),
        "--weights-out",
        &s.path("restored_weights.csv"),
        "--rules-out",
        &s.path("restored.cfd"),
    ])
    .unwrap();
    assert!(out.contains("loaded dataset"), "{out}");
    assert_eq!(
        std::fs::read(s.path("dirty.csv")).unwrap(),
        std::fs::read(s.path("restored.csv")).unwrap(),
        "snapshot load must reproduce the CSV byte for byte"
    );
    assert_eq!(
        std::fs::read_to_string(s.path("rules.cfd")).unwrap(),
        std::fs::read_to_string(s.path("restored.cfd")).unwrap()
    );
}

#[test]
fn repair_from_snapshot_matches_repair_from_csv() {
    // The acceptance contract, end to end through the CLI: repairing the
    // snapshot (with its embedded rules) writes the same bytes as
    // repairing the CSV it was saved from.
    let s = Scratch::new("snapshot-repair");
    generate_workload(&s, 400);
    run(&[
        "snapshot",
        "save",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "dirty",
        "--data",
        &s.path("dirty.csv"),
        "--weights",
        &s.path("dirty_weights.csv"),
        "--rules",
        &s.path("rules.cfd"),
    ])
    .unwrap();
    let out = run(&[
        "repair",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--weights",
        &s.path("dirty_weights.csv"),
        "--out",
        &s.path("repaired_csv.csv"),
    ])
    .unwrap();
    assert!(out.contains("repaired 400 tuples"), "{out}");
    let out = run(&[
        "repair",
        "--snapshot",
        "dirty",
        "--catalog",
        &s.path("catalog"),
        "--out",
        &s.path("repaired_snap.csv"),
    ])
    .unwrap();
    assert!(out.contains("repaired 400 tuples"), "{out}");
    assert_eq!(
        std::fs::read(s.path("repaired_csv.csv")).unwrap(),
        std::fs::read(s.path("repaired_snap.csv")).unwrap(),
        "snapshot-load repair diverged from CSV-load repair"
    );
}

#[test]
fn repair_emit_and_apply_edits_round_trip() {
    let s = Scratch::new("edits");
    generate_workload(&s, 400);
    let out = run(&[
        "repair",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--weights",
        &s.path("dirty_weights.csv"),
        "--out",
        &s.path("repaired.csv"),
        "--emit-edits",
        &s.path("repair.cfde"),
    ])
    .unwrap();
    assert!(out.contains("edit log ->"), "{out}");
    // replaying the log onto the same dirty input reproduces the repair
    // byte for byte, without running the repair algorithm
    let out = run(&[
        "repair",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--apply-edits",
        &s.path("repair.cfde"),
        "--out",
        &s.path("replayed.csv"),
    ])
    .unwrap();
    assert!(out.contains("replayed"), "{out}");
    assert_eq!(
        std::fs::read(s.path("repaired.csv")).unwrap(),
        std::fs::read(s.path("replayed.csv")).unwrap(),
        "edit-log replay diverged from the repair"
    );
    // replaying onto the wrong base (the already repaired file) fails
    // cleanly — unless the repair made no changes, which the workload's
    // noise makes impossible
    let err = run(&[
        "repair",
        "--data",
        &s.path("repaired.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--apply-edits",
        &s.path("repair.cfde"),
        "--out",
        &s.path("bad.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("cannot replay"), "{err}");
    // emit + apply together is rejected
    let err = run(&[
        "repair",
        "--data",
        &s.path("dirty.csv"),
        "--rules",
        &s.path("rules.cfd"),
        "--emit-edits",
        &s.path("x.cfde"),
        "--apply-edits",
        &s.path("repair.cfde"),
        "--out",
        &s.path("bad.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn corrupt_and_unreadable_inputs_error_cleanly() {
    let s = Scratch::new("robustness");
    // corrupt CSV: unterminated quote
    std::fs::write(s.path("bad.csv"), "a,b\n\"oops,1\n").unwrap();
    std::fs::write(s.path("r.cfd"), "phi: [a] -> [b]\n").unwrap();
    let err = run(&[
        "detect",
        "--data",
        &s.path("bad.csv"),
        "--rules",
        &s.path("r.cfd"),
    ])
    .unwrap_err();
    assert!(err.contains("cannot parse"), "{err}");
    // a directory where a file is expected
    let err = run(&["detect", "--data", &s.path(""), "--rules", &s.path("r.cfd")]).unwrap_err();
    assert!(err.contains("cannot"), "{err}");
    // snapshot: a mistyped catalog path errors instead of silently
    // creating an empty directory
    let err = run(&[
        "snapshot",
        "load",
        "--catalog",
        &s.path("catalogg"),
        "--name",
        "nope",
        "--out",
        &s.path("x.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("does not exist"), "{err}");
    assert!(
        !std::path::Path::new(&s.path("catalogg")).exists(),
        "read path must not create the catalog directory"
    );
    // snapshot: missing catalog entry
    std::fs::create_dir_all(s.path("catalog")).unwrap();
    let err = run(&[
        "snapshot",
        "load",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "nope",
        "--out",
        &s.path("x.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("no snapshot named"), "{err}");
    // snapshot: invalid dataset name
    std::fs::write(s.path("ok.csv"), "a,b\n1,2\n").unwrap();
    let err = run(&[
        "snapshot",
        "save",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "../evil",
        "--data",
        &s.path("ok.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("invalid dataset name"), "{err}");
    // corrupt snapshot bytes in the catalog
    std::fs::create_dir_all(s.path("catalog")).unwrap();
    std::fs::write(s.path("catalog/junk.cfds"), b"CFDSNAP1garbagegarbage").unwrap();
    let err = run(&[
        "snapshot",
        "load",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "junk",
        "--out",
        &s.path("x.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("cannot load snapshot"), "{err}");
    // load --rules-out against a rules-less snapshot fails before
    // writing any output file
    run(&[
        "snapshot",
        "save",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "plain",
        "--data",
        &s.path("ok.csv"),
    ])
    .unwrap();
    let err = run(&[
        "snapshot",
        "load",
        "--catalog",
        &s.path("catalog"),
        "--name",
        "plain",
        "--out",
        &s.path("partial.csv"),
        "--rules-out",
        &s.path("partial.cfd"),
    ])
    .unwrap_err();
    assert!(err.contains("no embedded rules"), "{err}");
    assert!(
        !std::path::Path::new(&s.path("partial.csv")).exists(),
        "failed load must leave no partial outputs"
    );
    // a CSV handed to --apply-edits is not an edit log
    let err = run(&[
        "repair",
        "--data",
        &s.path("ok.csv"),
        "--rules",
        &s.path("r.cfd"),
        "--apply-edits",
        &s.path("ok.csv"),
        "--out",
        &s.path("x.csv"),
    ])
    .unwrap_err();
    assert!(err.contains("not an edit-log file"), "{err}");
    // unknown snapshot action
    let err = run(&["snapshot", "frobnicate", "--catalog", &s.path("catalog")]).unwrap_err();
    assert!(err.contains("unknown snapshot action"), "{err}");
}

#[test]
fn missing_files_name_the_path() {
    let err = run(&[
        "detect",
        "--data",
        "/nonexistent/nope.csv",
        "--rules",
        "/nonexistent/r.cfd",
    ])
    .unwrap_err();
    assert!(err.contains("nope.csv"), "{err}");
}
