//! `BENCHMARK.json` at the root of the checkout is the one place that names
//! the workloads and metrics, their units, directions and bounds. The code
//! measures values by name and checks here that both sides agree.

use crate::harness::RunOut;
use crate::json::Json;
use crate::stats::Stat;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub paths: Vec<String>,
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing `{key}`"))
}

fn metrics(root: &Json, key: &str) -> Result<Vec<Metric>, String> {
    root.get(key)
        .ok_or(format!("missing `{key}`"))?
        .as_arr()
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match text(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better: `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Read `BENCHMARK.json` from the current directory (the checkout root;
    /// `run.sh` changes into it).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Spec::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    pub fn parse(json: &str) -> Result<Spec, String> {
        let root = Json::parse(json)?;
        let strings = |key: &str| -> Vec<String> {
            root.get(key)
                .map(|v| v.as_arr().iter().filter_map(Json::as_str).map(str::to_string).collect())
                .unwrap_or_default()
        };
        let spec = Spec {
            paths: strings("paths"),
            run_seconds: root.get("run_seconds").and_then(Json::as_f64).ok_or("run_seconds")?,
            workloads: root
                .get("workloads")
                .ok_or("missing `workloads`")?
                .as_arr()
                .iter()
                .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        };
        if spec.paths.is_empty() {
            return Err("missing `paths`".into());
        }
        Ok(spec)
    }

    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Make `out` hold exactly the declared metrics of its pass, in declared
    /// order. A per-layer metric the workload has no such quantity for reads
    /// 0; an end-to-end metric must have been measured.
    pub fn complete(&self, out: &mut RunOut, trace: bool) -> Result<(), String> {
        let declared = self.metrics(trace);
        if let Some((stray, _)) =
            out.metrics.iter().find(|(n, _)| !declared.iter().any(|m| &m.name == n))
        {
            return Err(format!("measured `{stray}`, which BENCHMARK.json does not declare"));
        }
        let mut ordered = Vec::with_capacity(declared.len());
        for m in declared {
            match out.metrics.iter().find(|(n, _)| n == &m.name) {
                Some(found) => ordered.push(found.clone()),
                None if trace => ordered.push((m.name.clone(), Stat::single(0.0))),
                None => return Err(format!("end-to-end metric `{}` was not measured", m.name)),
            }
        }
        out.metrics = ordered;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 10,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                     {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
      "per_layer": [{"name": "api.x_us", "unit": "us", "better": "lower"},
                    {"name": "mem.y", "unit": "MiB/s", "better": "higher"}]
    }"#;

    #[test]
    fn parses_the_contract_keys() {
        let s = Spec::parse(SPEC).unwrap();
        assert_eq!((s.paths.len(), s.run_seconds, s.workloads.len()), (1, 10.0, 2));
        assert!(s.end_to_end[0].higher_is_better && !s.end_to_end[1].higher_is_better);
        assert_eq!(s.end_to_end[1].bound, Some(0.25));
        assert_eq!(s.per_layer[1].bound, None);
        assert!(Spec::parse("{}").is_err());
    }

    #[test]
    fn complete_orders_fills_and_rejects() {
        let s = Spec::parse(SPEC).unwrap();
        let mut traced = RunOut::default();
        traced.num("mem.y", 3.0);
        s.complete(&mut traced, true).unwrap();
        let names: Vec<_> = traced.metrics.iter().map(|(n, st)| (n.as_str(), st.value)).collect();
        assert_eq!(names, [("api.x_us", 0.0), ("mem.y", 3.0)]);

        let mut partial = RunOut::default();
        partial.num("ops_per_s", 1.0);
        assert!(s.complete(&mut partial, false).unwrap_err().contains("setup_s"));

        let mut stray = RunOut::default();
        stray.num("nonsense", 1.0);
        assert!(s.complete(&mut stray, true).unwrap_err().contains("nonsense"));
    }
}
