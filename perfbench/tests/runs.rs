//! Whole-run tests of the benchmark binary at a small scale: concurrent
//! runs keep to their own directories and ports, every metric the
//! benchmark declares is printed, and no output carries a victim name.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use yv_perfbench::corpus::Corpus;

const RECORDS: usize = 1_500;

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn bench(dir: &Path, seed: u64, trace: u8) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_yv-perfbench"));
    cmd.current_dir(dir).args([
        "--workload",
        "archive-20k",
        "--seed",
        &seed.to_string(),
        "--seconds",
        "2",
        "--trace",
        &trace.to_string(),
        "--records",
        &RECORDS.to_string(),
    ]);
    cmd
}

fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

/// Metric names of one section of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quote")].to_owned())
        .collect()
}

/// JSON keys of the result line's metrics object, in order.
fn printed(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("\"value\"")
        .filter_map(|chunk| {
            let end = chunk.rfind("\": {")?;
            let start = chunk[..end].rfind('"')? + 1;
            Some(chunk[start..end].to_owned())
        })
        .collect()
}

#[test]
fn concurrent_runs_use_their_own_directories_and_ports() {
    let dir = workdir("concurrent");
    let piped = |mut cmd: Command| cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn();
    let a = piped(bench(&dir, 3, 0)).expect("spawn a");
    let b = piped(bench(&dir, 4, 0)).expect("spawn b");
    for child in [a, b] {
        let out = child.wait_with_output().expect("wait");
        assert!(result_line(&out).starts_with("{\"correct\": true"));
    }
    let runs = std::fs::read_dir(dir.join(".perfbench").join("runs")).expect("runs dir");
    assert_eq!(runs.count(), 0, "a run left its store directory behind");
}

#[test]
fn every_declared_metric_is_printed() {
    let dir = workdir("declared");
    let plain = result_line(&bench(&dir, 5, 0).output().expect("run"));
    assert_eq!(printed(&plain), declared("end_to_end"));
    let traced = result_line(&bench(&dir, 5, 1).output().expect("traced run"));
    assert_eq!(printed(&traced), declared("per_layer"));
}

fn words(text: &str) -> HashSet<String> {
    text.split(|c: char| !c.is_alphabetic())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect()
}

/// Corpus name words found in `text`, other than words of its JSON keys
/// and of the benchmark's own labels (a name that is also a label word,
/// like "max", cannot be told apart and is not reported).
fn leaked(text: &str, names: &[String]) -> Vec<String> {
    let mut allowed = HashSet::new();
    for key in text.split("\":").filter_map(|s| s.rsplit('"').next()) {
        allowed.extend(words(key));
    }
    for label in yv_perfbench::vocabulary() {
        allowed.extend(words(label));
    }
    let found = words(text);
    names
        .iter()
        .filter(|n| found.contains(*n) && !allowed.contains(*n))
        .cloned()
        .collect()
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn outputs_carry_no_victim_names() {
    let seed = 6;
    let dir = workdir("privacy");
    let out = bench(&dir, seed, 1).output().expect("traced run");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    let mut files = Vec::new();
    files_under(&dir.join(".perfbench"), &mut files);
    assert!(!files.is_empty(), "the traced run wrote no spans");
    for file in &files {
        text.push_str(&std::fs::read_to_string(file).expect("read output"));
    }
    let held_out =
        (RECORDS / 11).max(yv_perfbench::phases::BATCH + yv_perfbench::plan::REPLAY_ADDS);
    let mut names: Vec<String> =
        Corpus::generate(RECORDS, held_out, yv_perfbench::ARCHIVE_SEED, seed)
            .names()
            .iter()
            .flat_map(|n| words(n))
            .filter(|w| w.chars().count() >= 3)
            .collect();
    names.sort_unstable();
    names.dedup();
    assert!(names.len() > 50);
    // The scan does find a name that is there.
    let planted = format!("{{\"note\": \"{}\"}}", names[names.len() / 2]);
    assert_eq!(
        leaked(&planted, &names),
        vec![names[names.len() / 2].clone()]
    );
    assert_eq!(leaked(&text, &names), Vec::<String>::new());
}
