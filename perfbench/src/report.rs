//! Metric lists, provenance, and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Append `name` if `value` was measured.
pub fn push(out: &mut Vec<Metric>, name: &'static str, unit: &'static str, value: Option<f64>) {
    if let Some(value) = value {
        out.push(Metric { name, value, unit });
    }
}

/// A JSON number: finite values with all their digits, else `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escape a string for JSON (the benchmark writes only its own labels).
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of a run's standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Ordered key/value provenance, rendered as one JSON object.
#[derive(Debug, Default)]
pub struct Provenance(Vec<(String, String)>);

impl Provenance {
    pub fn text(&mut self, key: &str, value: &str) {
        self.0.push((key.to_owned(), quote(value)));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.0.push((key.to_owned(), number(value)));
    }

    pub fn list(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| number(*v)).collect();
        self.0
            .push((key.to_owned(), format!("[{}]", items.join(", "))));
    }

    #[must_use]
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", body.join(", "))
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The filesystem type mounted under `dir` (longest mount-point prefix).
#[must_use]
pub fn filesystem(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, t)| t)
}

/// The commit checked out in `root`, read from `.git` without running
/// git; "unknown" outside a git checkout.
#[must_use]
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".to_owned()),
    }
}
