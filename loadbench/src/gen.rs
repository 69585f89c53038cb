//! Seeded inputs: traffic records shaped like the paper's Sec. V traffic,
//! and skewed query mixes over them.
//!
//! Every location sees a shared persistent core of vehicles in every
//! period plus transient traffic, so the point (Eq. 12) and
//! point-to-point (Eq. 21) estimates are never degenerate. Volumes are
//! uniform in (2000, 10000] and each record is sized by Eq. 2 at f = 2,
//! i.e. 4096 to 32768 bits (512 B to 4 KiB), so joins across periods
//! need replication-expansion.
//!
//! Generation is cheap by construction: the core's per-location hashes
//! are computed once through the real encoding scheme, transient vehicles
//! set uniform random bits, and each location encodes a small pool of
//! bitmaps once; records for fresh periods are pool entries restamped
//! with the new period id.

use ptm_core::encoding::{EncodingScheme, VehicleId, VehicleSecrets};
use ptm_core::params::BitmapSize;
use ptm_core::{LocationId, PeriodId, TrafficRecord};
use std::collections::HashMap;

/// Locations (RSUs) in every workload.
pub const LOCATIONS: u64 = 64;
/// Vehicles that pass every location in every period.
const CORE_VEHICLES: u64 = 1000;
/// Distinct bitmaps encoded per location; periods cycle through them.
const POOL: u64 = 16;
/// Eq. 2 load factor.
const LOAD_FACTOR: f64 = 2.0;

/// SplitMix64: small, seedable and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream derived from this generator's seed.
    pub fn fork(&self, stream: u64) -> Self {
        let mut child = Self(self.0 ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded traffic of one run: a per-location pool of encoded bitmaps.
pub struct Traffic {
    pool: Vec<Vec<TrafficRecord>>,
}

impl Traffic {
    /// Encodes every location's pool. `s` must match the daemon's
    /// representative-bit count.
    pub fn generate(seed: u64, s: u32) -> Self {
        let root = Rng::new(seed);
        let mut keys = root.fork(1);
        let scheme = EncodingScheme::new(keys.next_u64(), s);
        let core: Vec<VehicleSecrets> = (0..CORE_VEHICLES)
            .map(|id| {
                let constants = (0..s).map(|_| keys.next_u64()).collect();
                VehicleSecrets::from_parts(VehicleId::new(id), keys.next_u64(), constants)
            })
            .collect();
        let pool = (1..=LOCATIONS)
            .map(|loc| {
                let location = LocationId::new(loc);
                let core_hashes: Vec<u64> =
                    core.iter().map(|v| scheme.encode(v, location)).collect();
                let mut rng = root.fork(1000 + loc);
                (0..POOL)
                    .map(|_| {
                        let volume = 2001 + rng.below(8000);
                        let size = BitmapSize::for_expected_volume(volume as f64, LOAD_FACTOR);
                        let m = size.get() as u64;
                        let mut record = TrafficRecord::new(location, PeriodId::new(0), size);
                        for h in &core_hashes {
                            record.set_reported_index((h % m) as usize);
                        }
                        for _ in CORE_VEHICLES..volume {
                            record.set_reported_index(rng.below(m) as usize);
                        }
                        record
                    })
                    .collect()
            })
            .collect();
        Self { pool }
    }

    /// The record location `loc` (1-based) uploads for `period`.
    fn record(&self, loc: u64, period: u32) -> TrafficRecord {
        let slot = &self.pool[(loc - 1) as usize];
        slot[period as usize % slot.len()]
            .clone()
            .restamped(PeriodId::new(period))
    }

    /// Every location's records for `periods`, period-major: one period's
    /// records for all locations, then the next period's.
    pub fn records(&self, periods: std::ops::Range<u32>) -> Vec<TrafficRecord> {
        periods
            .flat_map(|p| (1..=LOCATIONS).map(move |loc| (loc, p)))
            .map(|(loc, p)| self.record(loc, p))
            .collect()
    }
}

/// The three query kinds the daemon answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Point persistent traffic, Eq. 12.
    Point,
    /// Point-to-point persistent traffic, Eq. 21.
    P2p,
    /// One period's volume at one location.
    Volume,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Point, Kind::P2p, Kind::Volume];
}

/// A query as the benchmark issues it and checks it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Query {
    Volume {
        location: u64,
        period: u32,
    },
    Point {
        location: u64,
        first: u32,
        len: u32,
    },
    P2p {
        a: u64,
        b: u64,
        first: u32,
        len: u32,
    },
}

impl Query {
    pub fn periods(first: u32, len: u32) -> Vec<PeriodId> {
        (first..first + len).map(PeriodId::new).collect()
    }

    pub fn kind(&self) -> Kind {
        match self {
            Query::Point { .. } => Kind::Point,
            Query::P2p { .. } => Kind::P2p,
            Query::Volume { .. } => Kind::Volume,
        }
    }
}

/// A query drawn before the run, placed on concrete periods only when it
/// is issued: `age` picks how far back from the newest available period
/// its window ends, so the same draw works on a fixed archive and on one
/// that grows while the queries run.
#[derive(Debug, Clone, Copy)]
pub struct QueryDraw {
    kind: Kind,
    a: u64,
    b: u64,
    len: u32,
    age: f64,
}

// The query traffic below is assumed, not measured: neither the paper nor
// this repository has a log of analysts' queries. Each choice states its
// reason; `README.md` ("Query traffic") gives the distinct-key share and
// cache hit ratio they produce and how `query_p50_ms` moves when they
// change.

/// Shares of point, point-to-point and volume queries. The two persistent
/// estimators are the paper's subject, so they take four fifths of the
/// traffic in near-equal parts; volume queries, a single-record read with
/// no join, take the rest so that path is exercised too.
const KIND_SHARES: [(Kind, f64); 3] =
    [(Kind::Point, 0.45), (Kind::P2p, 0.35), (Kind::Volume, 0.20)];

/// Longest point / point-to-point window, in periods. The paper evaluates
/// windows of t = 5 and t = 10 periods (Fig. 4); 20 allows twice the
/// longest.
const MAX_WINDOW: u32 = 20;

/// Skew exponents. A skewed draw is `u^k` for `u` uniform in [0, 1): `k = 1`
/// is uniform, and a larger `k` piles the draws near 0, which is the
/// lowest-numbered location, the shortest window and the newest periods.
/// The exponents set how often keys repeat. They were chosen so that
/// more than a third of a `query` round's calls repeat an earlier key,
/// which gives the cache work to do, while the round's distinct keys
/// still outnumber the daemon's 1024-entry `QueryCache` several times
/// over, so it also evicts.
///
/// Location, `k = 4`: a few busy RSUs draw most questions. Half the
/// queries name one of 4 of the 64 locations ((4/64)^(1/4) = 0.5).
const LOCATION_SKEW: i32 = 4;
/// Window length, `k = 3`: short windows are the common question. The
/// median window is 4 periods, and one in four is 10 or longer.
const WINDOW_SKEW: i32 = 3;
/// Window age, `k = 4`: recent periods are asked about most. Half the
/// windows end within the newest sixteenth (0.5^4) of the periods they
/// could end in.
const AGE_SKEW: i32 = 4;

impl QueryDraw {
    /// Draws `n` queries with the assumed mix and skew above.
    pub fn draw(rng: &mut Rng, n: usize) -> Vec<QueryDraw> {
        let skewed = |rng: &mut Rng, k: i32| rng.unit().powi(k);
        let location = |rng: &mut Rng| 1 + (LOCATIONS as f64 * skewed(rng, LOCATION_SKEW)) as u64;
        (0..n)
            .map(|_| {
                let mut roll = rng.unit();
                let mut kind = Kind::Volume;
                for (k, share) in KIND_SHARES {
                    if roll < share {
                        kind = k;
                        break;
                    }
                    roll -= share;
                }
                let a = location(rng);
                let mut b = location(rng);
                while b == a {
                    b = 1 + rng.below(LOCATIONS);
                }
                let len = 2 + ((MAX_WINDOW - 1) as f64 * skewed(rng, WINDOW_SKEW)) as u32;
                let age = skewed(rng, AGE_SKEW);
                QueryDraw {
                    kind,
                    a,
                    b,
                    len,
                    age,
                }
            })
            .collect()
    }

    /// Places the draw on periods `0..available` (`available` ≥ the
    /// longest window).
    pub fn place(&self, available: u32) -> Query {
        let len = self.len.min(available);
        let slack = available - len;
        let first = slack - (f64::from(slack) * self.age) as u32;
        match self.kind {
            Kind::Point => Query::Point {
                location: self.a,
                first,
                len,
            },
            Kind::P2p => Query::P2p {
                a: self.a,
                b: self.b,
                first,
                len,
            },
            Kind::Volume => Query::Volume {
                location: self.a,
                period: first + len - 1,
            },
        }
    }
}

/// How a round's queries spread over kinds and keys: a measured summary
/// of the assumed traffic, printed with every run.
pub fn describe(lists: &[Vec<Query>]) -> String {
    let mut kinds = [0usize; 3];
    let mut seen: HashMap<&Query, u32> = HashMap::new();
    for query in lists.iter().flatten() {
        kinds[query.kind() as usize] += 1;
        *seen.entry(query).or_default() += 1;
    }
    let total: usize = kinds.iter().sum();
    let repeated = seen.values().filter(|&&n| n > 1).count();
    format!(
        "{total} queries per round ({} point, {} p2p, {} volume) on {} distinct keys ({:.1}%); \
         {repeated} keys are asked more than once, and {} calls ({:.1}%) repeat an earlier key",
        kinds[0],
        kinds[1],
        kinds[2],
        seen.len(),
        100.0 * seen.len() as f64 / total.max(1) as f64,
        total - seen.len(),
        100.0 * (total - seen.len()) as f64 / total.max(1) as f64,
    )
}
