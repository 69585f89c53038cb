//! Privacy-preserving **persistent traffic measurement** for intelligent
//! vehicular networks.
//!
//! This crate implements the primary contribution of *"Persistent Traffic
//! Measurement Through Vehicle-to-Infrastructure Communications"* (Huang,
//! Sun, Chen, Xu, Zhou — IEEE ICDCS 2017):
//!
//! * **Traffic records** ([`record`]): per-RSU, per-period bitmaps in which
//!   each passing vehicle sets a single pseudo-random bit, sized to a power
//!   of two from the expected traffic volume and a load factor `f`
//!   ([`params`]).
//! * **Vehicle encoding** ([`encoding`]): the paper's privacy-preserving
//!   hash `h_v = H(v ⊕ K_v ⊕ C[H(L ⊕ v) mod s]) mod m` that mixes vehicles
//!   into shared bits and varies a vehicle's bit across locations.
//! * **Point persistent estimator** ([`point`]): estimates how many vehicles
//!   passed one location in *every* one of `t` measurement periods, from the
//!   AND-join of the records (Sec. III, Eq. 12).
//! * **Point-to-point persistent estimator** ([`p2p`]): estimates how many
//!   vehicles passed *two* locations in every period, from a two-level
//!   AND/OR join (Sec. IV, Eq. 21).
//! * **Privacy analysis** ([`privacy`]): the probabilistic
//!   noise-to-information ratio that quantifies how much doubt the records
//!   leave a would-be tracker (Sec. V, Eqs. 22–24).
//!
//! # Quick start
//!
//! ```
//! use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
//! use ptm_core::params::SystemParams;
//! use ptm_core::point::PointEstimator;
//! use ptm_core::record::{PeriodId, TrafficRecord};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ptm_core::EstimateError> {
//! let params = SystemParams::paper_default(); // f = 2, s = 3
//! let scheme = EncodingScheme::new(0xC0FFEE, params.num_representatives());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let location = LocationId::new(7);
//!
//! // 400 vehicles that show up every day, plus fresh transient traffic.
//! let commons: Vec<_> = (0..400)
//!     .map(|_| VehicleSecrets::generate(&mut rng, params.num_representatives()))
//!     .collect();
//! let m = params.bitmap_size(2_000.0);
//! let mut records = Vec::new();
//! for day in 0..5u32 {
//!     let mut record = TrafficRecord::new(location, PeriodId::new(day), m);
//!     for v in &commons {
//!         record.encode(&scheme, v);
//!     }
//!     for _ in 0..1_600 {
//!         let t = VehicleSecrets::generate(&mut rng, params.num_representatives());
//!         record.encode(&scheme, &t);
//!     }
//!     records.push(record);
//! }
//!
//! let estimate = PointEstimator::new().estimate(&records)?;
//! assert!((estimate - 400.0).abs() / 400.0 < 0.25);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod encoding;
pub mod error;
pub mod join;
pub mod kway;
pub mod lpc;
pub mod p2p;
pub mod params;
pub mod point;
pub mod privacy;
pub mod record;
#[cfg(test)]
mod reference;

pub use bitmap::Bitmap;
pub use encoding::{EncodingScheme, LocationId, VehicleId, VehicleSecrets};
pub use error::EstimateError;
pub use p2p::PointToPointEstimator;
pub use params::{BitmapSize, SystemParams};
pub use point::{NaiveAndEstimator, PointEstimator};
pub use record::{PeriodId, TrafficRecord};
