//! What one phase process reports: end-to-end and per-layer metrics as
//! samples per repetition, correctness checks, and an output digest, as
//! one JSON line on stdout.

use std::path::PathBuf;

/// Settings every phase receives.
pub struct Cfg {
    pub seed: u64,
    /// Measuring budget of this phase.
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads and client connections: `nproc`, the cores this
    /// process may run on.
    pub threads: usize,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
}

/// One metric as this process measured it: one value per repetition
/// (`run.py` pools them over the processes of a run and takes the median
/// and quartiles), and the number of raw samples behind them. A rate also
/// carries each repetition's work and CPU seconds, and `run.py` reports
/// it as total work / total seconds.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub n: usize,
    /// `(work, seconds)` per repetition, for a rate.
    pub parts: Vec<(f64, f64)>,
}

impl Metric {
    /// One value per repetition (pass, sweep, set-up).
    pub fn repeated(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            samples: values.to_vec(),
            n: values.len(),
            parts: Vec::new(),
        }
    }

    /// Work per second, from `(work, seconds)` per repetition.
    pub fn rate(name: &'static str, unit: &'static str, parts: &[(f64, f64)]) -> Metric {
        Metric {
            parts: parts.to_vec(),
            ..Metric::repeated(
                name,
                unit,
                &parts.iter().map(|p| p.0 / p.1).collect::<Vec<_>>(),
            )
        }
    }

    /// A value computed once from `n` raw samples (exact, or a quantile of
    /// samples already taken by the caller).
    pub fn once(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name,
            unit,
            samples: vec![value],
            n,
            parts: Vec::new(),
        }
    }

    fn to_json(&self) -> String {
        let samples: Vec<String> = self.samples.iter().map(|&v| num(v)).collect();
        let parts: Vec<String> = self
            .parts
            .iter()
            .map(|&(w, s)| format!("[{},{}]", num(w), num(s)))
            .collect();
        format!(
            "{{\"unit\":\"{}\",\"samples\":[{}],\"parts\":[{}],\"n\":{}}}",
            self.unit,
            samples.join(","),
            parts.join(","),
            self.n
        )
    }
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct PhaseOut {
    /// CPU seconds of each set-up repetition.
    pub setup: Vec<f64>,
    pub metrics: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations issued (blocks, requests, sweep points) and how many
    /// of them failed (errors, `overloaded` replies).
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the phase's normalised output.
    pub digest: u64,
    /// Peak RSS up to the end of the timed section, before the
    /// correctness checks add their own allocations.
    pub peak_rss_mb: f64,
    /// Layer shares of wall × workers (traced corpus only).
    pub composition: Vec<(&'static str, f64)>,
    /// Free-form facts about the inputs.
    pub inputs: Vec<(&'static str, String)>,
}

impl PhaseOut {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn to_json(&self, phase: &str, nproc: usize) -> String {
        let metrics = |ms: &[Metric]| {
            let body: Vec<String> = ms
                .iter()
                .map(|m| format!("\"{}\":{}", m.name, m.to_json()))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"ok\":{},\"detail\":{}}}",
                    c.name,
                    c.ok,
                    quote(&c.detail)
                )
            })
            .collect();
        let composition: Vec<String> = self
            .composition
            .iter()
            .map(|(k, v)| format!("[\"{k}\",{}]", num(*v)))
            .collect();
        let inputs: Vec<String> = self
            .inputs
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", quote(v)))
            .collect();
        let setup = Metric::repeated("setup_s", "s", &self.setup);
        format!(
            "{{\"phase\":\"{phase}\",\"nproc\":{},\"setup_s\":{},\"peak_rss_mb\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\"metrics\":{},\"layers\":{},\"checks\":[{}],\"composition\":[{}],\"inputs\":{{{}}}}}",
            nproc,
            setup.to_json(),
            num(self.peak_rss_mb),
            self.attempted,
            self.failed,
            self.digest,
            metrics(&self.metrics),
            metrics(&self.layers),
            checks.join(","),
            composition.join(","),
            inputs.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// carries; `null` for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}
