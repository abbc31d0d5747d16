//! The names the benchmark emits: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` lists exactly
//! these (a self-test holds the two together); README.md says which
//! end-to-end metric each layer metric should move, and where.

use std::fmt::Write as _;

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative: better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "resident_lfu",
        why: "Resident 10k-user trace, serial lfu: the paper's default strategy on the precomputed hot path; decode and merge do nothing.",
    },
    Workload {
        name: "stream_serial",
        why: "30k users streamed from a time-major .cvtc, serial lfu: supply merge, watermark feed, idle sweep and bounded memory do the work.",
    },
    Workload {
        name: "stream_sharded",
        why: "Same records neighbourhood-major on 2 threads: decode-once fast path, shard plant and outcome merge; bypasses the serial merge path.",
    },
    Workload {
        name: "grid_zoo",
        why: "Resilient 9-strategy x 2-size grid with a journal: how a researcher spends host time; its no-cache cells bypass the strategy layer.",
    },
    Workload {
        name: "serve_socket",
        why: "One client on a Unix socket, lru: framing, ingress queue, batching and reply flush at fixed open-loop rates, then closed loop; bypasses LFU.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "norm_sessions_per_s",
        unit: "sessions/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "answer_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes that repeats exactly for a given seed:
    /// `compare` gates it with equality instead of a band.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn gauge(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The strategy series of `grid_zoo.scn`, in file order; each has a
/// `sim.cell_ms.<series>` row.
pub const GRID_SERIES: [&str; 9] = [
    "no-cache",
    "lru",
    "lfu",
    "global-lfu",
    "oracle",
    "arc",
    "tlru",
    "prior-storing",
    "delayed-lfu",
];

/// The open-loop request rates of `serve_socket`, ascending.
pub const SERVE_RATES: [u32; 3] = [1_000, 50_000, 100_000];

use Better::{Higher, Lower};

/// Layer = crate. A metric reads 0 on a workload whose path does not
/// touch that layer (nothing was measured, not "it was free").
pub const PER_LAYER: &[Layer] = &[
    // trace
    timing("trace.synth_ns_per_session", "ns"),
    timing("trace.open_ms", "ms"),
    timing("trace.rechunk_ns_per_record", "ns"),
    timing("trace.decode_ns_per_record", "ns"),
    exact("trace.decode_chunks", "count", Lower),
    exact("trace.decode_bytes", "bytes", Lower),
    // sim
    timing("sim.lifecycle_ns_per_session", "ns"),
    timing("sim.supply_merge_ns_per_session", "ns"),
    timing("sim.shard_overhead_ns_per_session", "ns"),
    timing("sim.cell_ms.no-cache", "ms"),
    timing("sim.cell_ms.lru", "ms"),
    timing("sim.cell_ms.lfu", "ms"),
    timing("sim.cell_ms.global-lfu", "ms"),
    timing("sim.cell_ms.oracle", "ms"),
    timing("sim.cell_ms.arc", "ms"),
    timing("sim.cell_ms.tlru", "ms"),
    timing("sim.cell_ms.prior-storing", "ms"),
    timing("sim.cell_ms.delayed-lfu", "ms"),
    timing("sim.grid_overhead_pct", "%"),
    timing("sim.journal_append_us_per_cell", "us"),
    timing("sim.report_json_us", "us"),
    timing("sim.online_ns_per_session", "ns"),
    exact("sim.sessions", "count", Higher),
    exact("sim.segment_requests", "count", Higher),
    exact("sim.viewer_overcommits", "count", Lower),
    exact("sim.cells_completed", "count", Higher),
    // cache
    timing("cache.strategy_ns_per_session", "ns"),
    timing("cache.lfu_on_access_ns", "ns"),
    exact("cache.hits", "count", Higher),
    exact("cache.misses", "count", Lower),
    exact("cache.admissions", "count", Lower),
    exact("cache.evictions", "count", Lower),
    exact("cache.capture_fills", "count", Lower),
    exact("cache.delayed_hits", "count", Lower),
    exact("cache.inflight_misses", "count", Lower),
    exact("cache.evictions_per_admission", "ratio", Lower),
    // hfc
    timing("hfc.meter_record_ns", "ns"),
    timing("hfc.topology_build_ms", "ms"),
    exact("hfc.server_peak_mean_mbps", "Mbps", Lower),
    exact("hfc.server_savings_pct", "%", Higher),
    exact("hfc.coax_peak_mean_mbps", "Mbps", Lower),
    // serve
    gauge("serve.norm_req_per_s_max", "req/s", Higher),
    timing("serve.socket_ns_per_request", "ns"),
    timing("serve.decision_ns_mean", "ns"),
    timing("serve.lookup_ns_mean", "ns"),
    gauge("serve.cache_hit_share", "ratio", Higher),
    timing("serve.queue_offer_pop_ns", "ns"),
    timing("serve.response_cache_get_ns", "ns"),
    timing("serve.hist_record_ns", "ns"),
    timing("serve.idle_floor_us", "us"),
    timing("serve.latency_p90_us.r50000", "us"),
    timing("serve.latency_p99w_us.r50000", "us"),
    timing("serve.latency_p50_us.r100000", "us"),
    timing("serve.latency_p99w_us.r100000", "us"),
    gauge("serve.max_rate_ok", "req/s", Higher),
    timing("serve.drain_ms", "ms"),
    gauge("serve.admitted", "count", Higher),
    gauge("serve.shed", "count", Lower),
    gauge("serve.lookups", "count", Higher),
    gauge("serve.epoch", "count", Higher),
    // host: the harness itself
    timing("host.calib_ms_p50", "ms"),
    timing("host.calib_ms_iqr", "ms"),
    gauge("host.raw_sessions_per_s", "sessions/s", Higher),
    gauge("host.raw_req_per_s_max", "req/s", Higher),
    gauge("host.iterations", "count", Higher),
    timing("host.generator_late_ms_max", "ms"),
    timing("host.trace_overhead_pct", "%"),
    exact("host.allocs_per_session", "count", Lower),
    exact("host.alloc_bytes_per_session", "bytes", Lower),
];

/// The values of one run, keyed by the names of one of the tables
/// above. Every name is present from the start, so a run prints every
/// metric whether or not its workload moved it.
pub struct Ledger {
    names: Vec<&'static str>,
    units: Vec<&'static str>,
    values: Vec<f64>,
}

impl Ledger {
    pub fn end_to_end() -> Self {
        Ledger {
            names: END_TO_END.iter().map(|m| m.name).collect(),
            units: END_TO_END.iter().map(|m| m.unit).collect(),
            values: vec![0.0; END_TO_END.len()],
        }
    }

    pub fn per_layer() -> Self {
        Ledger {
            names: PER_LAYER.iter().map(|m| m.name).collect(),
            units: PER_LAYER.iter().map(|m| m.unit).collect(),
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    /// # Panics
    ///
    /// On a name the table does not list: emitting an undeclared metric
    /// is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.values[i] = value;
    }

    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        (0..self.names.len()).map(|i| (self.names[i], self.units[i], self.values[i]))
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, value)) in self.rows().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, from the tables above (the `manifest` subcommand
/// prints it; a self-test holds the committed file to it).
pub fn manifest_json() -> String {
    let quoted: Vec<String> = COMMAND.iter().map(|c| json::quote(c)).collect();
    let mut out = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n",
        quoted.join(", "),
        crate::RUN_SECONDS
    );
    let mut section = |key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(
            out,
            "  \"{key}\": [\n    {}\n  ]{}",
            rows.join(",\n    "),
            if last { "" } else { "," }
        );
    };
    section(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json::quote(w.name),
                    json::quote(w.why)
                )
            })
            .collect(),
        false,
    );
    section(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
        false,
    );
    section(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// A finite JSON number with all its digits (a non-finite value would
/// be a harness bug; it prints as 0 so the line still parses and the
/// zero shows).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for series in GRID_SERIES {
            let name = format!("sim.cell_ms.{series}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_emits() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate BENCHMARK.json with the `manifest` subcommand"
        );
        assert!(committed.len() <= 64 * 1024);
        let doc = json::parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for part in COMMAND {
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
    }

    #[test]
    fn ledger_prints_every_declared_name() {
        let mut ledger = Ledger::end_to_end();
        ledger.set("setup_s", 0.25);
        let doc = json::parse(&ledger.to_json()).unwrap();
        assert_eq!(doc.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(
            doc.get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.25)
        );
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn ledger_refuses_undeclared_names() {
        Ledger::per_layer().set("sim.made_up", 1.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
