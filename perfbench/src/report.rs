//! The one-line JSON report an engine process prints for the orchestrator,
//! and the small JSON writer behind it and the final result line.

use std::collections::BTreeMap;

use pins_trace::hist::BUCKETS;
use pins_trace::json::Json;
use pins_trace::HistSnapshot;

/// What one engine process measured and decided.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Whether the verdict oracle accepted the run.
    pub ok: bool,
    /// The verdict in words.
    pub verdict: String,
    /// When `Pins::run_with` started, in seconds since the Unix epoch.
    pub start_unix_s: f64,
    /// Wall-clock seconds of `Pins::run_with`; the orchestrator takes out
    /// the time it held the process stopped for calibration.
    pub run_s: f64,
    /// User + sys CPU seconds of `Pins::run_with`.
    pub cpu_s: f64,
    /// Peak resident memory of the process, MiB.
    pub peak_rss_mib: f64,
    /// The configuration the run used, rendered as `key=value` pairs.
    pub config: String,
    /// Counts of the run; `Workload::exact_counts` names those that two
    /// runs of the same code must repeat exactly.
    pub counts: BTreeMap<String, u64>,
    /// Additive per-layer sums (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Query latency histograms by session, `engine` and `feas` (traced
    /// runs only).
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl EngineReport {
    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let counts = object(self.counts.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        let layers = object(self.layers.iter().map(|(k, v)| (k.as_str(), num(*v))));
        let hists = object(self.hists.iter().map(|(k, h)| {
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            (k.as_str(), format!("[{}]", buckets.join(",")))
        }));
        object([
            ("ok", self.ok.to_string()),
            ("verdict", string(&self.verdict)),
            ("start_unix_s", num(self.start_unix_s)),
            ("run_s", num(self.run_s)),
            ("cpu_s", num(self.cpu_s)),
            ("peak_rss_mib", num(self.peak_rss_mib)),
            ("config", string(&self.config)),
            ("counts", counts),
            ("layers", layers),
            ("hists", hists),
        ])
    }

    /// Reads a report printed by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<EngineReport, String> {
        let json = pins_trace::json::parse(text)?;
        let field = |key: &str| json.get(key).ok_or(format!("report lacks `{key}`"));
        let number = |key: &str| {
            field(key)?
                .as_num()
                .ok_or(format!("report field `{key}` is not a number"))
        };
        let text = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("report field `{key}` is not a string"))
        };
        let map = |key: &str| match field(key)? {
            Json::Obj(m) => Ok(m),
            _ => Err(format!("report field `{key}` is not an object")),
        };
        let numbers = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            map(key)?
                .iter()
                .map(|(k, v)| {
                    v.as_num()
                        .map(|n| (k.clone(), n))
                        .ok_or(format!("`{key}.{k}` is not a number"))
                })
                .collect()
        };
        let hists = map("hists")?
            .iter()
            .map(|(k, v)| {
                let Json::Arr(items) = v else {
                    return Err(format!("histogram `{k}` is not an array"));
                };
                if items.len() != BUCKETS {
                    return Err(format!("histogram `{k}` has {} buckets", items.len()));
                }
                let mut h = HistSnapshot::empty();
                for (slot, item) in h.buckets.iter_mut().zip(items) {
                    *slot = item.as_num().ok_or("histogram bucket is not a number")? as u64;
                }
                Ok((k.clone(), h))
            })
            .collect::<Result<_, String>>()?;
        Ok(EngineReport {
            ok: matches!(field("ok")?, Json::Bool(true)),
            verdict: text("verdict")?,
            start_unix_s: number("start_unix_s")?,
            run_s: number("run_s")?,
            cpu_s: number("cpu_s")?,
            peak_rss_mib: number("peak_rss_mib")?,
            config: text("config")?,
            counts: numbers("counts")?
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect(),
            layers: numbers("layers")?,
            hists,
        })
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values, which JSON cannot hold, become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from keys and already-rendered values, in the given order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut h = HistSnapshot::empty();
        h.buckets[3] = 7;
        let report = EngineReport {
            ok: true,
            verdict: "converged, \"2\" of 4".to_string(),
            start_unix_s: 1_790_000_000.125,
            run_s: 0.125,
            cpu_s: 0.13,
            peak_rss_mib: 13.5,
            config: "workers=1 seed=0x9142".to_string(),
            counts: [("paths".to_string(), 8)].into(),
            layers: [("smt.check.count".to_string(), 1520.0)].into(),
            hists: [("engine".to_string(), h)].into(),
        };
        assert_eq!(EngineReport::from_json(&report.to_json()), Ok(report));
    }
}
