//! The synthetic trace generator.
//!
//! Produces a [`Trace`] with the statistical fingerprint of the PowerInfo
//! workload: Zipf-plus-decay program popularity, the Fig 7 diurnal shape,
//! short attention-span sessions with a completion atom, heterogeneous user
//! activity and a mild weekend boost. Everything is driven by a single seed
//! so identical configs produce identical traces.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::catalog::{ProgramCatalog, ProgramInfo};
use crate::columnar::ColumnarWriter;
use crate::dist::{log_normal, poisson, DeferredDraws, WeightedIndex};
use crate::error::TraceError;
use crate::record::{SessionRecord, Trace};
use crate::synth::config::SynthConfig;
use crate::synth::popularity::PopularityModel;
use crate::synth::sessions::SessionLengthModel;

/// Length classes of the synthetic catalog, mirroring a broadcast mix of
/// sitcoms, dramas, hour-long programs and movies.
const LENGTH_CLASSES: &[(f64, u64, u64)] = &[
    // (probability, min minutes, max minutes)
    (0.25, 20, 25),
    (0.30, 40, 50),
    (0.25, 55, 65),
    (0.20, 90, 120),
];

/// Builds the synthetic catalog: lengths from the class mixture,
/// introduction days uniform over `[-backfill_days, days)`.
pub fn build_catalog<R: Rng + ?Sized>(config: &SynthConfig, rng: &mut R) -> ProgramCatalog {
    let mut catalog = ProgramCatalog::new();
    for _ in 0..config.programs {
        let mut pick: f64 = rng.random();
        let mut class = LENGTH_CLASSES[LENGTH_CLASSES.len() - 1];
        for &(p, lo, hi) in LENGTH_CLASSES {
            if pick < p {
                class = (p, lo, hi);
                break;
            }
            pick -= p;
        }
        let minutes = rng.random_range(class.1..=class.2);
        let introduced_day = rng.random_range(-(config.backfill_days as i64)..config.days as i64);
        catalog.push(ProgramInfo {
            length: SimDuration::from_minutes(minutes),
            introduced_day,
        });
    }
    catalog
}

/// Seconds in an hour: the buckets of [`HourOrder`]'s counting sort.
const HOUR_SECS: usize = 3_600;

/// Puts one hour's records in `(start, user, program)` order, stably —
/// the key and the tie rule `Trace::new` sorts a whole record vector by —
/// in O(n): a counting sort by start second, which keeps generation order
/// within a second, then a stable sort of each second's few records by
/// `(user, program)`. It orders indexes, not records, and reuses its
/// buffers hour after hour.
struct HourOrder {
    /// After [`HourOrder::sort`]'s scatter, `ends[s]` is where second
    /// `s`'s records end in `order`.
    ends: Vec<usize>,
    order: Vec<u32>,
}

impl HourOrder {
    fn new() -> Self {
        HourOrder {
            ends: vec![0; HOUR_SECS + 1],
            order: Vec::new(),
        }
    }

    /// Indexes into `batch` in trace order. Every record of `batch` starts
    /// in `[hour_start, hour_start + 3600)` seconds.
    fn sort(&mut self, batch: &[SessionRecord], hour_start: u64) -> &[u32] {
        let second = |r: &SessionRecord| (r.start.as_secs() - hour_start) as usize;
        // Count into `ends[s + 1]`; the prefix sum turns `ends[s]` into
        // second `s`'s first slot, and the scatter advances it to its end.
        self.ends.fill(0);
        for r in batch {
            self.ends[second(r) + 1] += 1;
        }
        for s in 1..=HOUR_SECS {
            self.ends[s] += self.ends[s - 1];
        }
        self.order.clear();
        self.order.resize(batch.len(), 0);
        for (i, r) in batch.iter().enumerate() {
            let slot = &mut self.ends[second(r)];
            self.order[*slot] = u32::try_from(i).expect("an hour counts records with u32");
            *slot += 1;
        }
        let mut begin = 0;
        for &end in &self.ends[..HOUR_SECS] {
            if end - begin > 1 {
                self.order[begin..end].sort_by_key(|&i| {
                    let r = &batch[i as usize];
                    (r.user, r.program)
                });
            }
            begin = end;
        }
        &self.order
    }
}

/// Drives the generative model, handing every record to `emit` in
/// `(start, user, program)` order, ties in generation order.
///
/// This is the shared core of [`generate`] (`emit` appends to a `Vec`)
/// and [`generate_to_disk`] (`emit` appends to a [`ColumnarWriter`]):
/// hour batches partition the start-time axis, so ordering each hour
/// gives the trace's one global stable order — the two paths emit
/// byte-identical record sequences while the streaming one never holds
/// more than an hour of records.
fn generate_hours<E>(
    config: &SynthConfig,
    catalog: &ProgramCatalog,
    rng: &mut StdRng,
    mut emit: impl FnMut(&SessionRecord) -> Result<(), E>,
) -> Result<(), E> {
    let popularity = PopularityModel::new(
        catalog,
        config.zipf_exponent,
        config.decay_floor,
        config.decay_day7_fraction,
        config.seed,
    );
    let sessions = SessionLengthModel::new(
        config.complete_view_prob,
        config.partial_alpha,
        config.partial_beta,
        config.min_session_secs,
    );

    // Per-user activity weights, normalized to mean 1 so the configured
    // sessions/user/day is preserved in expectation.
    let sigma = config.user_activity_sigma;
    let mu = -0.5 * sigma * sigma; // E[LogNormal(mu, sigma)] = 1
    let user_weights: Vec<f64> = (0..config.users)
        .map(|_| log_normal(rng, mu, sigma))
        .collect();
    let user_table =
        WeightedIndex::new(user_weights.iter().copied()).expect("log-normal weights are positive");

    // Weekend boost, renormalized so the weekly mean stays at 1.
    let mean_boost = (5.0 + 2.0 * config.weekend_boost) / 7.0;
    let weekday_factor = 1.0 / mean_boost;
    let weekend_factor = config.weekend_boost / mean_boost;

    let mut batch: Vec<SessionRecord> = Vec::new();
    // An hour's user draws are taken in place and resolved together: no
    // other draw depends on the user, and a batch sweeps the user table.
    let mut users = DeferredDraws::default();
    let mut hour_order = HourOrder::new();
    for day in 0..config.days {
        let Some(program_table) = popularity.day_table(day) else {
            continue; // no program introduced yet
        };
        let dow = SimTime::from_days_hours(day, 0).day_of_week();
        let day_factor = if dow == 5 || dow == 6 {
            weekend_factor
        } else {
            weekday_factor
        };
        let daily_rate = config.users as f64 * config.sessions_per_user_day * day_factor;
        for hour in 0..24u64 {
            let lambda = daily_rate * config.diurnal.share(hour);
            let n = poisson(rng, lambda);
            let hour_start = day * 86_400 + hour * 3_600;
            batch.clear();
            batch.reserve(n as usize);
            users.clear();
            for _ in 0..n {
                let start = SimTime::from_secs(hour_start + rng.random_range(0..3_600));
                users.draw(&user_table, rng);
                let program = ProgramId::new(program_table.sample(rng) as u32);
                let length = catalog.length(program).expect("program from table exists");
                // Fast-forward jumps land on segment boundaries (§IV-B.1):
                // a seeking session starts at a random interior boundary
                // and watches a sampled fraction of the remainder.
                let offset = if config.seek_prob > 0.0 && rng.random::<f64>() < config.seek_prob {
                    let boundaries = length.as_secs() / config.seek_boundary_secs;
                    if boundaries >= 2 {
                        SimDuration::from_secs(
                            rng.random_range(1..boundaries) * config.seek_boundary_secs,
                        )
                    } else {
                        SimDuration::ZERO
                    }
                } else {
                    SimDuration::ZERO
                };
                let remaining = SimDuration::from_secs(length.as_secs() - offset.as_secs());
                let duration = sessions.sample(rng, remaining);
                batch.push(SessionRecord {
                    user: UserId::new(0), // resolved with the hour's other draws
                    program,
                    start,
                    duration,
                    offset,
                });
            }
            users.resolve(&user_table, |draw, user| {
                batch[draw].user = UserId::new(user as u32);
            });
            for &i in hour_order.sort(&batch, hour_start) {
                emit(&batch[i as usize])?;
            }
        }
    }
    Ok(())
}

/// Generates a complete trace from `config`.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SynthConfig::validate`]).
///
/// # Examples
///
/// ```
/// use cablevod_trace::synth::{generate, SynthConfig};
///
/// let trace = generate(&SynthConfig::smoke_test());
/// let expected = SynthConfig::smoke_test().expected_sessions();
/// assert!((trace.len() as f64) > 0.8 * expected);
/// assert!((trace.len() as f64) < 1.2 * expected);
/// ```
pub fn generate(config: &SynthConfig) -> Trace {
    config.validate();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let catalog = build_catalog(config, &mut rng);

    let mut records = Vec::with_capacity((config.expected_sessions() * 1.05) as usize);
    generate_hours(config, &catalog, &mut rng, |record| {
        records.push(*record);
        Ok::<(), std::convert::Infallible>(())
    })
    .expect("infallible sink");

    Trace::from_sorted(records, catalog, config.users, config.days)
        .expect("generator emits only valid references")
}

/// Generates the same trace [`generate`] would, **directly to disk** in
/// the columnar chunked format, without ever materializing the record
/// vector: resident memory is one hour of records plus one column chunk.
///
/// The on-disk file replayed through
/// [`ColumnarReader`](crate::columnar::ColumnarReader) is record-for-record
/// identical to `generate(config)` — a unit test enforces it — so in-core
/// and out-of-core experiments share one workload definition.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SynthConfig::validate`]).
///
/// # Errors
///
/// Propagates columnar-writer failures (I/O, column overflow).
pub fn generate_to_disk(
    config: &SynthConfig,
    path: impl AsRef<std::path::Path>,
    chunk_size: u32,
) -> Result<(), TraceError> {
    config.validate();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let catalog = build_catalog(config, &mut rng);

    let mut writer = ColumnarWriter::create(path, &catalog, config.users, config.days, chunk_size)?;
    generate_hours(config, &catalog, &mut rng, |record| writer.push(record))?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_hfc::meter::{PEAK_END_HOUR, PEAK_START_HOUR};

    fn smoke() -> Trace {
        generate(&SynthConfig::smoke_test())
    }

    #[test]
    fn volume_matches_expectation() {
        let cfg = SynthConfig::smoke_test();
        let trace = generate(&cfg);
        let ratio = trace.len() as f64 / cfg.expected_sessions();
        assert!((0.9..1.1).contains(&ratio), "session volume ratio {ratio}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = smoke();
        let b = smoke();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records()[..50], b.records()[..50]);
        let c = generate(&SynthConfig {
            seed: 1,
            ..SynthConfig::smoke_test()
        });
        assert_ne!(a.records()[..50], c.records()[..50]);
    }

    #[test]
    fn records_are_sorted_and_reference_valid_entities() {
        let t = smoke();
        assert!(t.is_sorted());
        for r in t.iter().take(5_000) {
            assert!(r.program.index() < t.catalog().len());
            assert!(r.user.value() < t.user_count());
            let len = t.catalog().length(r.program).expect("valid program");
            assert!(r.duration <= len, "session longer than program");
        }
    }

    #[test]
    fn no_program_watched_before_introduction() {
        let t = smoke();
        for r in t.iter() {
            let intro = t
                .catalog()
                .introduced_day(r.program)
                .expect("valid program");
            assert!(
                (r.start.day() as i64) >= intro,
                "{} watched on day {} but introduced day {intro}",
                r.program,
                r.start.day()
            );
        }
    }

    #[test]
    fn evening_hours_dominate() {
        let t = smoke();
        let mut by_hour = [0u64; 24];
        for r in t.iter() {
            by_hour[r.start.hour_of_day() as usize] += 1;
        }
        let peak: u64 = (PEAK_START_HOUR..PEAK_END_HOUR)
            .map(|h| by_hour[h as usize])
            .sum();
        let trough: u64 = (2..6).map(|h| by_hour[h as usize]).sum();
        assert!(peak > 8 * trough, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn popular_head_is_heavy() {
        let t = smoke();
        let mut counts = vec![0u64; t.catalog().len()];
        for r in t.iter() {
            counts[r.program.index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let head: u64 = counts[..t.catalog().len() / 20].iter().sum(); // top 5%
        let share = head as f64 / total as f64;
        assert!(share > 0.3, "top-5% share {share}");
    }

    #[test]
    fn seeks_land_on_boundaries_within_program() {
        let t = generate(&SynthConfig {
            seek_prob: 0.4,
            ..SynthConfig::smoke_test()
        });
        let seeking = t.iter().filter(|r| r.offset.as_secs() > 0).count();
        assert!(
            seeking > t.len() / 10,
            "expected many seeking sessions, got {seeking}"
        );
        for r in t.iter() {
            let len = t.catalog().length(r.program).expect("valid");
            assert_eq!(
                r.offset.as_secs() % 300,
                0,
                "jump points are segment boundaries"
            );
            assert!(r.offset < len, "offset inside the program");
            assert!(r.end_position() <= len, "playback cannot pass the end");
        }
    }

    #[test]
    fn disk_generator_is_record_identical_to_in_memory() {
        use crate::columnar::ColumnarReader;

        let cfg = SynthConfig {
            users: 300,
            programs: 80,
            days: 4,
            seek_prob: 0.2,
            ..SynthConfig::smoke_test()
        };
        let in_memory = generate(&cfg);
        let mut path = std::env::temp_dir();
        path.push(format!("cvtc_synth_{}.cvtc", std::process::id()));
        for chunk_size in [128u32, 1 << 20] {
            generate_to_disk(&cfg, &path, chunk_size).expect("writes");
            let restored = ColumnarReader::open(&path)
                .expect("opens")
                .read_trace()
                .expect("reads");
            assert_eq!(restored, in_memory, "chunk size {chunk_size}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn catalog_length_mixture_is_respected() {
        let cfg = SynthConfig::smoke_test();
        let mut rng = StdRng::seed_from_u64(9);
        let catalog = build_catalog(&cfg, &mut rng);
        let movies = catalog
            .iter()
            .filter(|(_, p)| p.length >= SimDuration::from_minutes(90))
            .count() as f64
            / catalog.len() as f64;
        assert!((0.12..0.28).contains(&movies), "movie fraction {movies}");
        let mean = catalog.mean_length().as_minutes();
        assert!((45.0..65.0).contains(&mean), "mean length {mean} min");
    }
}
