//! What one run reports: metrics with units, operation counts, exact
//! counters, answer digests, and the host it ran on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Worker threads of every service the benchmark builds: with the
/// generator thread that makes two busy threads, the cores the
/// benchmark host has.
pub const SERVICE_WORKERS: usize = 1;

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Operations that failed, were refused unexpectedly, or returned an
    /// answer that failed a check or differed from the reference.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Set when the run cannot be trusted (e.g. the open-loop generator
    /// fell behind); such a run is not reported.
    pub invalid: Option<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Exact work counters: equal between two runs of one commit on one
    /// seed.
    pub counters: BTreeMap<String, f64>,
    pub digests: BTreeMap<String, String>,
    /// Context for the reader: sample counts, phase figures, checks.
    pub notes: BTreeMap<String, String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn counter(&mut self, name: impl Into<String>, value: f64) {
        self.counters.insert(name.into(), value);
    }

    pub fn note(&mut self, name: impl Into<String>, value: impl ToString) {
        self.notes.insert(name.into(), value.to_string());
    }

    /// Records a failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_none() && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The full record written next to the result: host metadata, run
    /// parameters, the result, counters, digests and notes.
    pub fn record_json(&self, host: &[(&str, String)], run: &[(&str, String)]) -> String {
        let obj = |pairs: Vec<(String, String)>| {
            let body: Vec<String> = pairs
                .into_iter()
                .map(|(k, v)| format!("{}: {v}", json_str(&k)))
                .collect();
            format!("{{{}}}", body.join(", "))
        };
        let strs = |pairs: &[(&str, String)]| {
            obj(pairs
                .iter()
                .map(|(k, v)| (k.to_string(), json_str(v)))
                .collect())
        };
        let counters = obj(self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), json_num(*v)))
            .collect());
        let digests = obj(self
            .digests
            .iter()
            .map(|(k, v)| (k.clone(), json_str(v)))
            .collect());
        let notes = obj(self
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), json_str(v)))
            .collect());
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"host\": {}, \"run\": {}, \"result\": {}, \"counters\": {counters}, \"digests\": {digests}, \"notes\": {notes}, \"errors\": [{}], \"invalid\": {}}}\n",
            strs(host),
            strs(run),
            self.result_json(),
            errors.join(", "),
            self.invalid.as_deref().map_or("null".to_string(), json_str)
        )
    }

    /// A human-readable table of the metrics.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<44} {value:>16.4} {unit}");
        }
        out
    }
}

pub fn json_str(s: &str) -> String {
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

/// A JSON number with every digit Rust prints for the `f64`; non-finite
/// values (never produced by a correct run) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
