//! The paper's sweeps, from their committed specs (`scenarios/paper/`).
//!
//! Each case loads one spec, runs it on a smoke-scale synthetic trace in
//! place of its `[source]` (with `warmup_days` at that trace's
//! [`default_warmup`]) and asserts a shape the paper reports: larger
//! caches never lose, the Oracle never loses to LFU, coax traffic grows
//! with the neighborhood, load grows linearly with population, and so
//! on. The thresholds tolerate smoke-scale noise; the full-scale numbers
//! come from `cablevod-scenario scenarios/paper/<spec>.scn`.

use cablevod::experiments::default_warmup;
use cablevod_sim::{Scenario, ScenarioOutcome, SimReport, SourceSpec};
use cablevod_trace::synth::{generate, SynthConfig};

/// A six-day smoke trace of `users` over `programs`.
fn smoke(users: u32, programs: u32) -> SynthConfig {
    SynthConfig {
        users,
        programs,
        days: 6,
        ..SynthConfig::smoke_test()
    }
}

/// `scenarios/paper/<file>`.
fn paper_spec(file: &str) -> Scenario {
    Scenario::load(format!("scenarios/paper/{file}")).expect("paper spec loads")
}

/// The cells of `scenario` run on the trace `synth` generates.
struct Grid(Vec<ScenarioOutcome>);

impl Grid {
    fn run(mut scenario: Scenario, synth: &SynthConfig) -> Grid {
        let trace = generate(synth);
        scenario.base = scenario.base.with_warmup_days(default_warmup(&trace));
        Grid(scenario.execute_on(&trace).expect("spec runs"))
    }

    fn report(&self, series: &str, point: &str) -> &SimReport {
        self.0
            .iter()
            .find(|o| o.series == series && o.point == point)
            .unwrap_or_else(|| panic!("no cell {series} x {point}"))
            .report()
    }

    /// Peak-hour server rate, Gb/s.
    fn server(&self, series: &str, point: &str) -> f64 {
        self.report(series, point).server_peak.mean.as_gbps()
    }

    /// Peak-hour coax rate, Mb/s.
    fn coax(&self, series: &str, point: &str) -> f64 {
        self.report(series, point).coax_peak.mean.as_mbps()
    }

    /// Busy-peer misses as a share of all cache requests, in percent.
    fn busy_miss_pct(&self, series: &str, point: &str) -> f64 {
        let cache = &self.report(series, point).cache;
        100.0 * cache.miss_peer_busy as f64 / cache.requests().max(1) as f64
    }
}

/// Every paper spec runs at one scale: the full population over 21 days,
/// measured after a 10-day warm-up, under the paper's fill accounting
/// (A1 alone leaves fill to its series). Each round-trips through the
/// canonical rendering.
#[test]
fn paper_specs_share_one_scale_and_round_trip() {
    let scale = SourceSpec::Synth(SynthConfig {
        days: 21,
        ..SynthConfig::experiment_default()
    });
    let mut specs: Vec<_> = std::fs::read_dir("scenarios/paper")
        .expect("scenarios/paper exists")
        .map(|entry| entry.expect("readable entry").path())
        .collect();
    specs.sort();
    assert_eq!(specs.len(), 15, "{specs:?}");
    for path in specs {
        let scenario = Scenario::load(&path).expect("spec loads");
        let what = path.display();
        assert_eq!(scenario.source, scale, "{what}");
        assert_eq!(scenario.base.warmup_days(), 10, "{what}");
        let fill = scenario.base.fill_override();
        if scenario.name == "a1-fill" {
            assert_eq!(fill, None, "{what}");
        } else {
            assert_eq!(fill, Some(cablevod_cache::FillPolicy::Prefetch), "{what}");
        }
        let text = scenario.to_spec_string().expect("renders");
        assert_eq!(
            Scenario::from_spec_str(&text).expect("parses"),
            scenario,
            "{what}"
        );
    }
}

#[test]
fn fig08_cache_size_monotone_and_strategies_ordered() {
    let grid = Grid::run(paper_spec("fig08.scn"), &smoke(900, 250));
    // Larger caches never do worse for the same strategy (tiny noise
    // from slot contention is tolerated at smoke scale).
    for series in ["Oracle", "LFU", "LRU"] {
        let small = grid.server(series, "1 TB");
        let large = grid.server(series, "10 TB");
        assert!(large <= small * 1.05 + 0.02, "{series}: {small} -> {large}");
    }
    // The Oracle never loses to LFU at equal size.
    for tb in ["1 TB", "10 TB"] {
        let oracle = grid.server("Oracle", tb);
        let lfu = grid.server("LFU", tb);
        assert!(oracle <= lfu + 0.15, "{tb}: oracle {oracle} vs lfu {lfu}");
    }
}

#[test]
fn fig11_has_13_history_points() {
    let grid = Grid::run(paper_spec("fig11.scn"), &smoke(900, 250));
    assert_eq!(grid.0.len(), 13);
    // History 0 equals the LRU strategy by construction; long histories
    // should not be catastrophically worse than history 0.
    let h0 = grid.server("LFU", "0");
    let h7 = grid.server("LFU", "7");
    assert!(h7 <= h0 * 1.35 + 0.2, "h0 {h0} vs h7 {h7}");
}

#[test]
fn fig13_has_16_cells() {
    let grid = Grid::run(paper_spec("fig13.scn"), &smoke(900, 250));
    assert_eq!(grid.0.len(), 16);
    let global = grid.server("Global", "10 GB");
    let local = grid.server("Local", "10 GB");
    // Global data should not hurt much; allow smoke-scale noise.
    assert!(
        global <= local * 1.4 + 0.2,
        "global {global} vs local {local}"
    );
}

#[test]
fn fill_mode_push_never_loses() {
    let grid = Grid::run(paper_spec("a1_fill.scn"), &smoke(800, 200));
    for gb in ["1 GB", "10 GB"] {
        let capture = grid.server("capture-on-broadcast", gb);
        let push = grid.server("proactive push", gb);
        assert!(
            push <= capture + 1e-9,
            "{gb}: push {push} vs capture {capture}"
        );
    }
}

#[test]
fn more_slots_cannot_hurt() {
    let grid = Grid::run(paper_spec("a2_slots.scn"), &smoke(800, 200));
    let one = grid.server("LFU", "1");
    let unlimited = grid.server("LFU", "unlimited");
    assert!(
        unlimited <= one + 1e-9,
        "1 slot {one} vs unlimited {unlimited}"
    );
    assert_eq!(grid.busy_miss_pct("LFU", "unlimited"), 0.0);
}

#[test]
fn first_fit_has_more_busy_misses_than_balanced() {
    let grid = Grid::run(paper_spec("a4_placement.scn"), &smoke(800, 200));
    let balanced = grid.busy_miss_pct("LFU", "balanced (paper)");
    let first_fit = grid.busy_miss_pct("LFU", "first-fit");
    assert!(
        first_fit >= balanced,
        "balanced {balanced}% vs first-fit {first_fit}%"
    );
}

#[test]
fn coax_traffic_grows_with_neighborhood_size() {
    let grid = Grid::run(paper_spec("fig14.scn"), &smoke(2_000, 250));
    let small = grid.coax("LFU", "200");
    let large = grid.coax("LFU", "1000");
    assert!(
        large > 2.0 * small,
        "200 peers {small} Mb/s vs 1000 peers {large} Mb/s"
    );
}

#[test]
fn grid_is_monotone_in_population() {
    let mut scenario = paper_spec("fig16b.scn");
    scenario.points.truncate(3);
    let grid = Grid::run(scenario, &smoke(500, 150));
    let cells: Vec<f64> = ["x1", "x2", "x3"]
        .iter()
        .map(|x| grid.server("LFU", x))
        .collect();
    assert!(cells[1] > cells[0] * 1.5, "{cells:?}");
    assert!(cells[2] > cells[1], "{cells:?}");
}

#[test]
fn grid_is_monotone_in_catalog_when_cache_is_scarce() {
    // Catalog scaling has two opposite effects: it dilutes the cache
    // (more load) and splits hot programs over copies, relieving the
    // 2-slot contention (less load). The paper's regime is cache ≪
    // catalog, where dilution dominates — reproduce that regime.
    let mut scenario = paper_spec("fig15.scn");
    scenario.series.retain(|s| s.label == "LFU");
    scenario
        .points
        .retain(|p| p.label == "x1/x1" || p.label == "x1/x3");
    let grid = Grid::run(scenario, &smoke(400, 1_500));
    let (x1, x3) = (grid.server("LFU", "x1/x1"), grid.server("LFU", "x1/x3"));
    assert!(
        x3 >= x1,
        "with a scarce cache, catalog dilution must not reduce load: {x1} -> {x3}"
    );
}

#[test]
fn fig16b_is_roughly_linear() {
    // Linearity requires constant per-neighborhood session density:
    // use a population that is a whole number of neighborhoods, as at
    // full scale (41,698 users ≈ 42 x 1,000).
    let grid = Grid::run(paper_spec("fig16b.scn"), &smoke(1_000, 300));
    // Assert linearity on the per-step increments rather than the
    // x4/x1 ratio: the x1 base point is a near-fully-absorbed cache
    // whose tiny residual load is workload-stream noise (it shifted
    // when the vendored `rand` replaced upstream's StdRng), while the
    // slope of the scaled points is the paper's actual claim.
    let values: Vec<f64> = ["x1", "x2", "x3", "x4", "x5", "x6"]
        .iter()
        .map(|x| grid.server("LFU", x))
        .collect();
    let steps: Vec<f64> = values.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        steps.iter().all(|&s| s > 0.0),
        "load must grow with population: {values:?}"
    );
    // Tail steps (x2 onward) stay within 2x of each other — linear
    // growth, neither saturating nor blowing up.
    let tail = &steps[1..];
    let min = tail.iter().copied().fold(f64::INFINITY, f64::min);
    let max = tail.iter().copied().fold(0.0_f64, f64::max);
    assert!(max <= min * 2.0, "non-linear tail: steps {steps:?}");
}

#[test]
fn headend_never_loses() {
    let grid = Grid::run(paper_spec("headend.scn"), &smoke(800, 200));
    let peer = grid.server("LFU", "peer-to-peer (2 slots/STB)");
    let headend = grid.server("LFU", "headend cache (no slot limit)");
    assert!(headend <= peer + 1e-9, "peer {peer} vs headend {headend}");
}

/// The scaling experiment driven from disk: each population factor is a
/// point with its own `synth-disk` source, generated straight to a
/// temporary columnar file inside its job (never resident) and replayed
/// through the streaming engine, one file at a time (`sweep_width = 1`).
#[test]
fn out_of_core_scaling_replays_growing_populations() {
    let scenario = Scenario::from_spec_str(
        "name = out-of-core-scaling\n\
         sweep_width = 1\n\
         \n\
         [config]\n\
         neighborhood_size = 150\n\
         warmup_days = 1\n\
         \n\
         [points]\n\
         x1 = | kind=synth-disk preset=smoke_test users=300 programs=80 days=4\n\
         x3 = | kind=synth-disk preset=smoke_test users=900 programs=80 days=4\n",
    )
    .expect("spec parses");
    let cells = scenario.execute().expect("disk-driven scaling runs");
    assert_eq!(cells.len(), 2);
    assert_eq!(
        (cells[0].point.as_str(), cells[1].point.as_str()),
        ("x1", "x3")
    );
    // Triple the population, roughly triple the sessions and the load.
    let (one, three) = (cells[0].report(), cells[1].report());
    assert!(three.sessions > one.sessions * 2);
    let peak = |r: &SimReport| r.server_peak.mean.as_gbps();
    assert!(
        peak(three) > peak(one) * 1.5,
        "{} vs {}",
        peak(one),
        peak(three)
    );
    assert!(
        cells.iter().all(|c| c.outcome.sessions_per_sec() > 0.0),
        "replay rates recorded"
    );
}
