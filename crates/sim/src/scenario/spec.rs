//! The `.scn` spec-file codec: [`Scenario::to_spec_string`] /
//! [`Scenario::from_spec_str`] and the section renderers and parsers
//! behind them (format documented in the [module docs](super)). Config
//! keys are not spelled here: both `[config]` and axis entries go
//! through [`ConfigPatch`]'s key table.

use std::fmt::Write as _;
use std::path::Path;

use cablevod_cache::StrategySpec;
use cablevod_hfc::coax::CoaxSpec;
use cablevod_hfc::fault::{FaultEvent, FaultKind, FaultPlan};
use cablevod_hfc::ids::NeighborhoodId;
use cablevod_hfc::units::{BitRate, SimDuration, SimTime};
use cablevod_trace::columnar::DEFAULT_CHUNK_SIZE;
use cablevod_trace::synth::SynthConfig;

use super::{config_err, AxisPoint, ConfigPatch, Scenario, SourceSpec, StrategyRef};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::simulation::ThreadPolicy;

/// A named synth-preset constructor.
type SynthPreset = (&'static str, fn() -> SynthConfig);

/// The synth presets the spec format can name.
const SYNTH_PRESETS: [SynthPreset; 3] = [
    ("powerinfo", SynthConfig::powerinfo),
    ("experiment_default", SynthConfig::experiment_default),
    ("smoke_test", SynthConfig::smoke_test),
];

/// Rejects names/labels the line-based format cannot carry faithfully:
/// `#` starts a comment, the first `=` ends an axis label, `|` separates
/// an axis entry's source override, a leading `[` reads as a section
/// header, and surrounding whitespace would be trimmed away on load.
/// Erroring here keeps the "parses back to an equal value" contract
/// loud instead of silently corrupting on round-trip.
fn check_label(what: &str, text: &str) -> Result<(), SimError> {
    if text.is_empty()
        || text != text.trim()
        || text.starts_with('[')
        || text.contains(['#', '=', '|', '\n'])
    {
        return Err(config_err(format!(
            "{what} {text:?} is not expressible in the spec format \
             (no #, =, |, newlines, leading [, or surrounding whitespace)"
        )));
    }
    Ok(())
}

fn strategy_ref_string(strategy: &StrategyRef) -> String {
    match strategy {
        StrategyRef::Spec(spec) => spec.compact(),
        StrategyRef::Named(name) => format!("@{name}"),
    }
}

fn parse_strategy_ref(text: &str) -> Result<StrategyRef, SimError> {
    if let Some(name) = text.strip_prefix('@') {
        return Ok(StrategyRef::Named(name.into()));
    }
    Ok(StrategyRef::Spec(StrategySpec::parse(text)?))
}

/// Writes a synth config as `preset=<name>` plus the overridden fields,
/// or errors when no preset + supported overrides reproduce it.
fn synth_kv(config: &SynthConfig, out: &mut Vec<(String, String)>) -> Result<(), SimError> {
    for (name, preset) in SYNTH_PRESETS {
        let candidate = SynthConfig {
            users: config.users,
            programs: config.programs,
            days: config.days,
            seed: config.seed,
            sessions_per_user_day: config.sessions_per_user_day,
            ..preset()
        };
        if &candidate == config {
            let base = preset();
            out.push(("preset".into(), name.into()));
            if config.users != base.users {
                out.push(("users".into(), config.users.to_string()));
            }
            if config.programs != base.programs {
                out.push(("programs".into(), config.programs.to_string()));
            }
            if config.days != base.days {
                out.push(("days".into(), config.days.to_string()));
            }
            if config.seed != base.seed {
                out.push(("seed".into(), config.seed.to_string()));
            }
            if config.sessions_per_user_day != base.sessions_per_user_day {
                out.push((
                    "sessions_per_user_day".into(),
                    config.sessions_per_user_day.to_string(),
                ));
            }
            return Ok(());
        }
    }
    Err(config_err(
        "synthetic source differs from every preset beyond the spec format's \
         users/programs/days/seed/sessions_per_user_day overrides — keep it programmatic"
            .into(),
    ))
}

fn parse_synth(pairs: &[(String, String)]) -> Result<SynthConfig, SimError> {
    let mut config = None;
    for (key, value) in pairs {
        if key == "preset" {
            let preset = SYNTH_PRESETS
                .iter()
                .find(|(name, _)| name == value)
                .ok_or_else(|| config_err(format!("unknown synth preset {value:?}")))?;
            config = Some(preset.1());
        }
    }
    let mut config = config.ok_or_else(|| config_err("synth source needs a preset".into()))?;
    for (key, value) in pairs {
        let bad = || config_err(format!("bad synth field {key} = {value:?}"));
        match key.as_str() {
            "preset" | "kind" | "chunk_records" | "rechunk" => {}
            "users" => config.users = value.parse().map_err(|_| bad())?,
            "programs" => config.programs = value.parse().map_err(|_| bad())?,
            "days" => config.days = value.parse().map_err(|_| bad())?,
            "seed" => config.seed = value.parse().map_err(|_| bad())?,
            "sessions_per_user_day" => {
                config.sessions_per_user_day = value.parse().map_err(|_| bad())?
            }
            _ => return Err(bad()),
        }
    }
    Ok(config)
}

/// Serializes a source spec as `kind=... key=value ...` pairs.
fn source_kv(source: &SourceSpec) -> Result<Vec<(String, String)>, SimError> {
    let mut out = Vec::new();
    match source {
        SourceSpec::Provided => out.push(("kind".into(), "provided".into())),
        SourceSpec::Synth(config) => {
            out.push(("kind".into(), "synth".into()));
            synth_kv(config, &mut out)?;
        }
        SourceSpec::SynthDisk {
            synth,
            chunk_records,
            rechunk,
        } => {
            out.push(("kind".into(), "synth-disk".into()));
            synth_kv(synth, &mut out)?;
            out.push(("chunk_records".into(), chunk_records.to_string()));
            if !rechunk.is_empty() {
                out.push(("rechunk".into(), rechunk_value(rechunk)));
            }
        }
        SourceSpec::Columnar { path, rechunk } => {
            out.push(("kind".into(), "columnar".into()));
            out.push(("path".into(), path.clone()));
            if !rechunk.is_empty() {
                out.push(("rechunk".into(), rechunk_value(rechunk)));
            }
        }
        SourceSpec::Csv { records, catalog } => {
            out.push(("kind".into(), "csv".into()));
            out.push(("records".into(), records.clone()));
            out.push(("catalog".into(), catalog.clone()));
        }
        SourceSpec::Scaled {
            population,
            catalog,
            seed,
        } => {
            out.push(("kind".into(), "scaled".into()));
            out.push(("population".into(), population.to_string()));
            out.push(("catalog".into(), catalog.to_string()));
            out.push(("seed".into(), seed.to_string()));
        }
    }
    Ok(out)
}

/// Joins rechunk sizes into the spec form `60,100` — a single size
/// serializes exactly as the old scalar field did, so pre-multi-index
/// spec files and their fingerprints are unchanged.
fn rechunk_value(sizes: &[u32]) -> String {
    sizes
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses `60` or `60,100` into a rechunk size list.
fn parse_rechunk(value: &str) -> Result<Vec<u32>, SimError> {
    value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| config_err(format!("bad rechunk size {v:?}")))
        })
        .collect()
}

/// The value of `key` among parsed `key=value` pairs.
fn lookup<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn parse_source(pairs: &[(String, String)]) -> Result<SourceSpec, SimError> {
    let get = |key: &str| lookup(pairs, key);
    let rechunk = || get("rechunk").map(parse_rechunk).transpose();
    let require = |key: &str| {
        get(key).ok_or_else(|| config_err(format!("source is missing the {key} field")))
    };
    let parse_u32 = |key: &str| -> Result<u32, SimError> {
        require(key)?
            .parse()
            .map_err(|_| config_err(format!("bad source field {key}")))
    };
    match require("kind")? {
        "provided" => Ok(SourceSpec::Provided),
        "synth" => Ok(SourceSpec::Synth(parse_synth(pairs)?)),
        "synth-disk" => Ok(SourceSpec::SynthDisk {
            synth: parse_synth(pairs)?,
            chunk_records: match get("chunk_records") {
                Some(v) => v
                    .parse()
                    .map_err(|_| config_err("bad chunk_records".into()))?,
                None => DEFAULT_CHUNK_SIZE,
            },
            rechunk: rechunk()?.unwrap_or_default(),
        }),
        "columnar" => Ok(SourceSpec::Columnar {
            path: require("path")?.to_string(),
            rechunk: rechunk()?.unwrap_or_default(),
        }),
        "csv" => Ok(SourceSpec::Csv {
            records: require("records")?.to_string(),
            catalog: require("catalog")?.to_string(),
        }),
        "scaled" => Ok(SourceSpec::Scaled {
            population: parse_u32("population")?,
            catalog: parse_u32("catalog")?,
            seed: require("seed")?
                .parse()
                .map_err(|_| config_err("bad scaled seed".into()))?,
        }),
        other => Err(config_err(format!("unknown source kind {other:?}"))),
    }
}

/// Splits `k=v k=v ...` into pairs (whitespace-separated, values may not
/// contain spaces).
fn parse_kv_pairs(text: &str) -> Result<Vec<(String, String)>, SimError> {
    text.split_whitespace()
        .map(|pair| {
            pair.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| config_err(format!("expected key=value, got {pair:?}")))
        })
        .collect()
}

fn kv_pairs_string(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Serializes an axis entry's right-hand side:
/// `key=value ... [@ source key=value ...]`.
fn axis_rhs(point: &AxisPoint) -> Result<String, SimError> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    if let Some(strategy) = &point.strategy {
        pairs.push(("strategy".into(), strategy_ref_string(strategy)));
    }
    pairs.extend(point.patch.pairs(false));
    let mut rhs = kv_pairs_string(&pairs);
    if let Some(source) = &point.source {
        let source_pairs = source_kv(source)?;
        if !rhs.is_empty() {
            rhs.push(' ');
        }
        let _ = write!(rhs, "| {}", kv_pairs_string(&source_pairs));
    }
    Ok(rhs)
}

fn parse_axis_entry(label: &str, rhs: &str) -> Result<AxisPoint, SimError> {
    let (patch_text, source_text) = match rhs.split_once('|') {
        Some((left, right)) => (left.trim(), Some(right.trim())),
        None => (rhs.trim(), None),
    };
    let mut point = AxisPoint::new(label);
    for (key, value) in parse_kv_pairs(patch_text)? {
        match key.as_str() {
            "strategy" => point.strategy = Some(parse_strategy_ref(&value)?),
            _ => point.patch.set_key(&key, &value)?,
        }
    }
    if let Some(text) = source_text {
        point.source = Some(parse_source(&parse_kv_pairs(text)?)?);
    }
    Ok(point)
}

/// Renders one fault event as a `[faults]` line (sans trailing newline).
fn fault_event_line(event: &FaultEvent) -> String {
    let mut line = match event.kind {
        FaultKind::Outage => format!(
            "outage = start={} end={}",
            event.start.as_secs(),
            event.end.as_secs()
        ),
        FaultKind::Derate { permille } => format!(
            "derate = start={} end={} permille={permille}",
            event.start.as_secs(),
            event.end.as_secs()
        ),
    };
    if let Some(nbhd) = event.scope {
        let _ = write!(line, " nbhd={}", nbhd.value());
    }
    line
}

/// Parses one `[faults]` line into explicit events (a `seeded` entry
/// expands eagerly, so parsed plans are always plain timed events).
fn parse_fault_entry(key: &str, value: &str) -> Result<Vec<FaultEvent>, SimError> {
    let pairs = parse_kv_pairs(value)?;
    let get = |name: &str| lookup(&pairs, name);
    let num = |name: &str| -> Result<u64, SimError> {
        get(name)
            .ok_or_else(|| config_err(format!("fault entry missing {name}=")))?
            .parse()
            .map_err(|_| config_err(format!("bad fault field {name}")))
    };
    match key {
        "outage" | "derate" => {
            let kind = if key == "outage" {
                FaultKind::Outage
            } else {
                FaultKind::Derate {
                    permille: num("permille")?
                        .try_into()
                        .map_err(|_| config_err("bad fault field permille".into()))?,
                }
            };
            Ok(vec![FaultEvent {
                scope: get("nbhd")
                    .map(|v| {
                        v.parse()
                            .map(NeighborhoodId::new)
                            .map_err(|_| config_err("bad fault field nbhd".into()))
                    })
                    .transpose()?,
                start: SimTime::from_secs(num("start")?),
                end: SimTime::from_secs(num("end")?),
                kind,
            }])
        }
        "seeded" => {
            let neighborhoods = u32::try_from(num("neighborhoods")?)
                .map_err(|_| config_err("bad fault field neighborhoods".into()))?;
            let plan = FaultPlan::seeded(
                num("seed")?,
                neighborhoods,
                SimDuration::from_days(num("horizon_days")?),
                num("outages")? as u32,
                num("derates")? as u32,
            );
            Ok(plan.events().to_vec())
        }
        other => Err(config_err(format!("unknown fault entry {other:?}"))),
    }
}

fn threads_string(threads: ThreadPolicy) -> String {
    match threads {
        ThreadPolicy::Serial => "serial".into(),
        ThreadPolicy::Auto => "auto".into(),
        ThreadPolicy::Fixed(n) => format!("engine:{n}"),
    }
}

fn parse_threads(text: &str) -> Result<ThreadPolicy, SimError> {
    if let Some(n) = text.strip_prefix("engine:") {
        let n = n
            .parse()
            .map_err(|_| config_err(format!("bad engine worker count {n:?}")))?;
        return Ok(ThreadPolicy::Fixed(n));
    }
    match text {
        "serial" => Ok(ThreadPolicy::Serial),
        "auto" => Ok(ThreadPolicy::Auto),
        other => Err(config_err(format!("unknown thread policy {other:?}"))),
    }
}

impl Scenario {
    /// Renders the scenario in the spec-file format (see the module
    /// docs). [`Scenario::from_spec_str`] parses it back to an equal
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the scenario uses knobs the
    /// format cannot express (custom coax envelope, custom stream rate,
    /// exotic synth parameters).
    pub fn to_spec_string(&self) -> Result<String, SimError> {
        if *self.base.coax_spec() != CoaxSpec::paper_default() {
            return Err(config_err(
                "spec format cannot express a custom coax envelope".into(),
            ));
        }
        if self.base.stream_rate() != BitRate::STREAM_MPEG2_SD {
            return Err(config_err(
                "spec format cannot express a custom stream rate".into(),
            ));
        }
        check_label("scenario name", &self.name)?;
        for point in self.series.iter().chain(&self.points) {
            check_label("axis label", &point.label)?;
        }
        let mut out = String::new();
        let _ = writeln!(out, "# cablevod scenario spec (cablevod_sim::scenario)");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "threads = {}", threads_string(self.threads));
        if let Some(width) = self.sweep_width {
            let _ = writeln!(out, "sweep_width = {width}");
        }
        let _ = writeln!(out, "\n[source]");
        for (key, value) in source_kv(&self.source)? {
            let _ = writeln!(out, "{key} = {value}");
        }
        let _ = writeln!(out, "\n[config]");
        let c = &self.base;
        let _ = writeln!(out, "strategy = {}", c.strategy().compact());
        for (key, value) in ConfigPatch::of(c).pairs(true) {
            let _ = writeln!(out, "{key} = {value}");
        }
        if !c.faults().is_empty() {
            let _ = writeln!(out, "\n[faults]");
            for event in c.faults().events() {
                let _ = writeln!(out, "{}", fault_event_line(event));
            }
        }
        for (header, axis) in [("series", &self.series), ("points", &self.points)] {
            if axis.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n[{header}]");
            for point in axis {
                let _ = writeln!(out, "{} = {}", point.label, axis_rhs(point)?);
            }
        }
        Ok(out)
    }

    /// Parses the spec-file format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] with the offending line for any
    /// malformed input.
    pub fn from_spec_str(text: &str) -> Result<Scenario, SimError> {
        let mut scenario = Scenario::new("", SourceSpec::Provided, SimConfig::paper_default());
        let mut section = String::new();
        let mut source_pairs: Vec<(String, String)> = Vec::new();
        let mut config = ConfigPatch::default();
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            // Every parse failure names the offending line — number AND
            // text — so a typo deep in a fault plan or an axis override
            // is a one-glance fix.
            let err = |reason: String| {
                config_err(format!(
                    "spec line {}: {reason} (line: {:?})",
                    lineno + 1,
                    raw.trim()
                ))
            };
            let at_line = |e: SimError| {
                err(match e {
                    SimError::Config { reason } => reason,
                    other => other.to_string(),
                })
            };
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if !["source", "config", "faults", "series", "points"].contains(&section.as_str()) {
                    return Err(err(format!("unknown section [{section}]")));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| err("expected key = value".into()))?;
            match section.as_str() {
                "" => match key {
                    "name" => scenario.name = value.to_string(),
                    "threads" => scenario.threads = parse_threads(value).map_err(at_line)?,
                    "sweep_width" => {
                        scenario.sweep_width = Some(
                            value
                                .parse::<usize>()
                                .ok()
                                .filter(|&w| w >= 1)
                                .ok_or_else(|| err(format!("bad sweep width {value:?}")))?,
                        )
                    }
                    other => return Err(err(format!("unknown top-level key {other:?}"))),
                },
                "source" => source_pairs.push((key.to_string(), value.to_string())),
                "config" => match key {
                    "strategy" => {
                        scenario.base = scenario.base.with_strategy(
                            StrategySpec::parse(value).map_err(|e| at_line(e.into()))?,
                        )
                    }
                    _ => config.set_key(key, value).map_err(at_line)?,
                },
                "faults" => fault_events.extend(parse_fault_entry(key, value).map_err(at_line)?),
                "series" => scenario
                    .series
                    .push(parse_axis_entry(key, value).map_err(at_line)?),
                "points" => scenario
                    .points
                    .push(parse_axis_entry(key, value).map_err(at_line)?),
                _ => unreachable!("sections are validated on entry"),
            }
        }
        scenario.base = config.apply(scenario.base);
        if !fault_events.is_empty() {
            scenario.base = scenario.base.with_faults(FaultPlan::new(fault_events)?);
        }
        if !source_pairs.is_empty() {
            scenario.source = parse_source(&source_pairs)?;
        }
        if scenario.name.is_empty() {
            return Err(config_err("spec is missing `name = ...`".into()));
        }
        Ok(scenario)
    }

    /// Reads a scenario from a spec file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, SimError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| config_err(format!("cannot read scenario {}: {e}", path.display())))?;
        Scenario::from_spec_str(&text)
    }

    /// Writes the scenario to a spec file.
    ///
    /// # Errors
    ///
    /// Propagates formatting ([`Scenario::to_spec_string`]) and I/O
    /// failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SimError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_spec_string()?)
            .map_err(|e| config_err(format!("cannot write scenario {}: {e}", path.display())))
    }
}
