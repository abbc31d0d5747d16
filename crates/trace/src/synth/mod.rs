//! Synthetic PowerInfo-like workload generation.
//!
//! The PowerInfo trace itself is proprietary; this module generates traces
//! with the same schema and the same statistical fingerprint: every
//! quantitative property of PowerInfo the paper publishes is a calibration
//! target, named in the doc of the [`SynthConfig`] field that sets it.
//! Entry point: [`generate`] with a [`SynthConfig`].

mod config;
mod diurnal;
mod generator;
mod popularity;
mod sessions;

pub use config::SynthConfig;
pub use diurnal::DiurnalProfile;
pub use generator::{build_catalog, generate, generate_to_disk};
pub use popularity::PopularityModel;
pub use sessions::SessionLengthModel;
