//! The committed correctness references: the CRC-32 of
//! `report_to_json_string` for every offline workload and every
//! `grid_zoo` cell at seed 2007. At any other seed the run's own
//! reference (an independent path over the same records) stands alone.

use cablevod_cache::StrategyRegistry;
use cablevod_sim::SimConfig;
use cablevod_trace::synth::generate;

use crate::json;
use crate::offline::{base_config, report_crc, synth};

pub const GOLDEN_SEED: u64 = 2007;
const GOLDEN: &str = include_str!("../golden.json");

/// The golden CRC of `label` in `workload`, when `seed` is the golden
/// seed and the file has the entry.
pub fn lookup(seed: u64, workload: &str, label: &str) -> Option<u32> {
    if seed != GOLDEN_SEED {
        return None;
    }
    let doc = json::parse(GOLDEN).expect("golden.json is committed well-formed");
    doc.get(workload)?
        .get(label)?
        .as_f64()
        .map(|crc| crc as u32)
}

/// Recomputes `golden.json` from the reference paths (the `golden`
/// subcommand prints it; commit the output when a science change is
/// meant).
pub fn regenerate() -> Result<String, String> {
    let crc_of = |users: u32, config: &SimConfig| {
        cablevod_sim::run(&generate(&synth(users, GOLDEN_SEED)), config)
            .map(|report| report_crc(&report))
            .map_err(|e| format!("reference run: {e}"))
    };
    let config = base_config();
    let resident = crc_of(crate::offline::RESIDENT_USERS, &config)?;
    let stream = crc_of(crate::offline::STREAM_USERS, &config)?;
    let scenario = crate::grid::scenario(GOLDEN_SEED)?;
    let cells = scenario
        .execute_with(&StrategyRegistry::with_plugins())
        .map_err(|e| format!("reference grid: {e}"))?;
    let mut out = format!(
        "{{\n  \"seed\": {GOLDEN_SEED},\n  \"resident_lfu\": {{\"report\": {resident}}},\n  \
         \"stream_serial\": {{\"report\": {stream}}},\n  \"stream_sharded\": {{\"report\": {stream}}},\n  \
         \"grid_zoo\": {{\n"
    );
    let labels = crate::grid::cell_labels(&scenario);
    for (i, (label, cell)) in labels.iter().zip(&cells).enumerate() {
        let comma = if i + 1 < labels.len() { "," } else { "" };
        out.push_str(&format!(
            "    {}: {}{comma}\n",
            json::quote(label),
            report_crc(cell.report())
        ));
    }
    out.push_str("  }\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn golden_file_covers_every_offline_workload_and_grid_cell() {
        let doc = json::parse(GOLDEN).unwrap();
        assert_eq!(
            doc.get("seed").and_then(Value::as_f64),
            Some(GOLDEN_SEED as f64)
        );
        for workload in ["resident_lfu", "stream_serial", "stream_sharded"] {
            assert!(
                lookup(GOLDEN_SEED, workload, "report").is_some(),
                "{workload}"
            );
        }
        // The sharded replay must reproduce the serial one's report.
        assert_eq!(
            lookup(GOLDEN_SEED, "stream_sharded", "report"),
            lookup(GOLDEN_SEED, "stream_serial", "report")
        );
        let scenario = crate::grid::scenario(GOLDEN_SEED).unwrap();
        let labels = crate::grid::cell_labels(&scenario);
        assert_eq!(labels.len(), 18);
        for label in &labels {
            assert!(lookup(GOLDEN_SEED, "grid_zoo", label).is_some(), "{label}");
        }
        assert_eq!(
            doc.get("grid_zoo").and_then(Value::as_obj).unwrap().len(),
            18
        );
        assert_eq!(lookup(GOLDEN_SEED + 1, "resident_lfu", "report"), None);
    }

    #[test]
    fn the_spec_series_are_the_cell_metric_names() {
        let scenario = crate::grid::scenario(1).unwrap();
        let series: Vec<&str> = scenario.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(series, crate::metrics::GRID_SERIES);
        assert_eq!(scenario.sweep_width, Some(2));
        match &scenario.source {
            cablevod_sim::SourceSpec::Synth(synth) => assert_eq!(synth.seed, 1),
            other => panic!("unexpected source {other:?}"),
        }
    }
}
