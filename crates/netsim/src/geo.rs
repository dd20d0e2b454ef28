//! Geography: coordinates, great-circle distances, continental regions, and
//! the city catalog used to place vantage points and resolver sites.
//!
//! This module plays the role MaxMind GeoLite2 played in the paper: it maps
//! each endpoint to a location and region so results can be grouped by
//! continent.

use std::fmt;

use crate::math;

/// A point on the Earth's surface in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude, −90..90.
    pub lat: f64,
    /// Longitude, −180..180.
    pub lon: f64,
}

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// Propagation speed of light in optical fiber, km per millisecond
/// (≈ 2/3 of c).
pub const FIBER_KM_PER_MS: f64 = 200.0;

/// Multiplier applied to great-circle distance to account for real routes
/// not following geodesics (peering detours, terrestrial/submarine paths).
/// Used when the endpoints' continents cannot be classified; see
/// [`route_inflation`] for the per-continent-pair factors.
pub const DEFAULT_PATH_INFLATION: f64 = 1.5;

/// Rough continent classification by coordinate boxes — enough to pick the
/// right route-inflation factor for the city catalog below.
fn rough_continent(p: &GeoPoint) -> Region {
    if p.lon >= -170.0 && p.lon <= -50.0 {
        Region::NorthAmerica
    } else if p.lon > -30.0 && p.lon <= 45.0 && p.lat > 33.0 {
        Region::Europe
    } else if p.lon > 45.0 && p.lat < -8.0 {
        Region::Oceania
    } else if p.lon > 45.0 {
        Region::Asia
    } else {
        Region::Unknown
    }
}

/// Route inflation between two points, reflecting how far real Internet
/// paths deviate from great circles. Asia–Europe traffic famously detours
/// (via North America or around the Indian Ocean), so it gets the largest
/// factor; the Atlantic is densely cabled. Calibration points: Chicago–
/// Frankfurt RTT ≈ 95 ms, Ohio–Seoul ≈ 165 ms, Seoul–Frankfurt ≈ 210 ms.
pub fn route_inflation(a: &GeoPoint, b: &GeoPoint) -> f64 {
    use Region::*;
    let (ca, cb) = (rough_continent(a), rough_continent(b));
    let pair = if ca <= cb { (ca, cb) } else { (cb, ca) };
    match pair {
        (NorthAmerica, NorthAmerica) | (Europe, Europe) => 1.40,
        (Asia, Asia) => 1.55,
        (NorthAmerica, Europe) => 1.35,
        (NorthAmerica, Asia) => 1.55,
        (Europe, Asia) => 2.40,
        (Oceania, Oceania) => 1.45,
        (NorthAmerica, Oceania) => 1.50,
        (Europe, Oceania) => 1.80,
        (Asia, Oceania) => 1.60,
        _ => DEFAULT_PATH_INFLATION,
    }
}

impl GeoPoint {
    /// Constructs a point, clamping to valid ranges.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint {
            lat: lat.clamp(-90.0, 90.0),
            lon: ((lon + 180.0).rem_euclid(360.0)) - 180.0,
        }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = math::sin(dlat / 2.0).powi(2)
            + math::cos(lat1) * math::cos(lat2) * math::sin(dlon / 2.0).powi(2);
        2.0 * EARTH_RADIUS_KM * math::asin(a.sqrt())
    }

    /// One-way light-in-fiber propagation delay to `other`, in milliseconds,
    /// including the continent-pair route-inflation factor.
    pub fn propagation_ms(&self, other: &GeoPoint) -> f64 {
        self.distance_km(other) * route_inflation(self, other) / FIBER_KM_PER_MS
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.lat, self.lon)
    }
}

/// Continental region, the grouping unit of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// North America (18 measured resolvers).
    NorthAmerica,
    /// Europe (33 measured resolvers).
    Europe,
    /// Asia (13 measured resolvers).
    Asia,
    /// Oceania.
    Oceania,
    /// Resolver failed to geolocate (6 in the paper).
    Unknown,
}

impl Region {
    /// All concrete regions (excluding `Unknown`).
    pub fn all() -> [Region; 4] {
        [
            Region::NorthAmerica,
            Region::Europe,
            Region::Asia,
            Region::Oceania,
        ]
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::NorthAmerica => write!(f, "North America"),
            Region::Europe => write!(f, "Europe"),
            Region::Asia => write!(f, "Asia"),
            Region::Oceania => write!(f, "Oceania"),
            Region::Unknown => write!(f, "Unknown"),
        }
    }
}

/// A named location with coordinates and region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// City name.
    pub name: &'static str,
    /// Coordinates.
    pub point: GeoPoint,
    /// Continental region.
    pub region: Region,
}

macro_rules! cities {
    ($( $ident:ident : $name:literal, $lat:literal, $lon:literal, $region:ident; )+) => {
        /// Well-known cities used to place vantage points and resolver sites.
        pub mod cities {
            use super::{City, GeoPoint, Region};
            $(
                /// City constant.
                pub const $ident: City = City {
                    name: $name,
                    point: GeoPoint { lat: $lat, lon: $lon },
                    region: Region::$region,
                };
            )+

            /// Every city in the catalog.
            pub const ALL: &[City] = &[$($ident),+];
        }
    };
}

cities! {
    CHICAGO: "Chicago", 41.88, -87.63, NorthAmerica;
    COLUMBUS_OH: "Columbus (Ohio)", 39.96, -83.00, NorthAmerica;
    ASHBURN_VA: "Ashburn", 39.04, -77.49, NorthAmerica;
    NEW_YORK: "New York", 40.71, -74.01, NorthAmerica;
    FREMONT_CA: "Fremont", 37.55, -121.99, NorthAmerica;
    LOS_ANGELES: "Los Angeles", 34.05, -118.24, NorthAmerica;
    SEATTLE: "Seattle", 47.61, -122.33, NorthAmerica;
    DALLAS: "Dallas", 32.78, -96.80, NorthAmerica;
    MIAMI: "Miami", 25.76, -80.19, NorthAmerica;
    TORONTO: "Toronto", 43.65, -79.38, NorthAmerica;
    FRANKFURT: "Frankfurt", 50.11, 8.68, Europe;
    AMSTERDAM: "Amsterdam", 52.37, 4.90, Europe;
    LONDON: "London", 51.51, -0.13, Europe;
    PARIS: "Paris", 48.86, 2.35, Europe;
    ZURICH: "Zurich", 47.38, 8.54, Europe;
    MUNICH: "Munich", 48.14, 11.58, Europe;
    BERLIN: "Berlin", 52.52, 13.41, Europe;
    STOCKHOLM: "Stockholm", 59.33, 18.07, Europe;
    MALMO: "Malmo", 55.60, 13.00, Europe;
    COPENHAGEN: "Copenhagen", 55.68, 12.57, Europe;
    HELSINKI: "Helsinki", 60.17, 24.94, Europe;
    VIENNA: "Vienna", 48.21, 16.37, Europe;
    WARSAW: "Warsaw", 52.23, 21.01, Europe;
    MILAN: "Milan", 45.46, 9.19, Europe;
    MADRID: "Madrid", 40.42, -3.70, Europe;
    LUXEMBOURG: "Luxembourg", 49.61, 6.13, Europe;
    ATHENS: "Athens", 37.98, 23.73, Europe;
    BUCHAREST: "Bucharest", 44.43, 26.10, Europe;
    MOSCOW: "Moscow", 55.76, 37.62, Europe;
    REYKJAVIK: "Reykjavik", 64.15, -21.94, Europe;
    SEOUL: "Seoul", 37.57, 126.98, Asia;
    TOKYO: "Tokyo", 35.68, 139.69, Asia;
    OSAKA: "Osaka", 34.69, 135.50, Asia;
    BEIJING: "Beijing", 39.90, 116.41, Asia;
    SHANGHAI: "Shanghai", 31.23, 121.47, Asia;
    HANGZHOU: "Hangzhou", 30.27, 120.16, Asia;
    HONG_KONG: "Hong Kong", 22.32, 114.17, Asia;
    TAIPEI: "Taipei", 25.03, 121.57, Asia;
    SINGAPORE: "Singapore", 1.35, 103.82, Asia;
    JAKARTA: "Jakarta", -6.21, 106.85, Asia;
    BANDUNG: "Bandung", -6.92, 107.61, Asia;
    MUMBAI: "Mumbai", 19.08, 72.88, Asia;
    SYDNEY: "Sydney", -33.87, 151.21, Oceania;
    PERTH: "Perth", -31.95, 115.86, Oceania;
    ADELAIDE: "Adelaide", -34.93, 138.60, Oceania;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        // Chicago–Frankfurt ≈ 6,960 km.
        let d = cities::CHICAGO.point.distance_km(&cities::FRANKFURT.point);
        assert!((6800.0..7200.0).contains(&d), "Chicago-Frankfurt {d} km");
        // Seoul–Tokyo ≈ 1,160 km.
        let d = cities::SEOUL.point.distance_km(&cities::TOKYO.point);
        assert!((1050.0..1250.0).contains(&d), "Seoul-Tokyo {d} km");
    }

    #[test]
    fn distance_is_symmetric_and_zero_to_self() {
        let a = cities::LONDON.point;
        let b = cities::SINGAPORE.point;
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-6);
        assert!(a.distance_km(&a) < 1e-9);
    }

    #[test]
    fn propagation_delay_realistic() {
        // Chicago–Frankfurt one-way with inflation ≈ 52 ms (RTT ~105 ms).
        let ms = cities::CHICAGO
            .point
            .propagation_ms(&cities::FRANKFURT.point);
        assert!((45.0..60.0).contains(&ms), "one-way {ms} ms");
        // Ohio–Seoul one-way ≈ 80 ms (RTT ~160 ms).
        let ms = cities::COLUMBUS_OH
            .point
            .propagation_ms(&cities::SEOUL.point);
        assert!((70.0..95.0).contains(&ms), "one-way {ms} ms");
    }

    #[test]
    fn new_clamps_and_wraps() {
        let p = GeoPoint::new(95.0, 200.0);
        assert_eq!(p.lat, 90.0);
        assert!((-180.0..180.0).contains(&p.lon));
        assert!((p.lon - (-160.0)).abs() < 1e-9);
    }

    #[test]
    fn regions_of_catalog_cities() {
        assert_eq!(cities::CHICAGO.region, Region::NorthAmerica);
        assert_eq!(cities::FRANKFURT.region, Region::Europe);
        assert_eq!(cities::SEOUL.region, Region::Asia);
        assert_eq!(cities::SYDNEY.region, Region::Oceania);
        assert!(cities::ALL.len() >= 40);
    }

    #[test]
    fn route_inflation_is_symmetric_and_largest_for_eu_asia() {
        let pairs = [
            (cities::CHICAGO.point, cities::FRANKFURT.point),
            (cities::SEOUL.point, cities::FRANKFURT.point),
            (cities::CHICAGO.point, cities::SEOUL.point),
            (cities::SYDNEY.point, cities::LONDON.point),
        ];
        for (a, b) in pairs {
            assert_eq!(route_inflation(&a, &b), route_inflation(&b, &a));
        }
        let eu_asia = route_inflation(&cities::SEOUL.point, &cities::FRANKFURT.point);
        let na_eu = route_inflation(&cities::CHICAGO.point, &cities::FRANKFURT.point);
        assert!(eu_asia > na_eu);
    }

    #[test]
    fn calibrated_rtts_match_known_paths() {
        // Round trip = 2 × one-way propagation; compare against transit
        // RTTs observed on the real Internet (generous bands).
        let rtt = |a: City, b: City| 2.0 * a.point.propagation_ms(&b.point);
        let cf = rtt(cities::CHICAGO, cities::FRANKFURT);
        assert!((80.0..115.0).contains(&cf), "Chicago-Frankfurt RTT {cf}");
        let os = rtt(cities::COLUMBUS_OH, cities::SEOUL);
        assert!((140.0..190.0).contains(&os), "Ohio-Seoul RTT {os}");
        let sf = rtt(cities::SEOUL, cities::FRANKFURT);
        assert!((180.0..260.0).contains(&sf), "Seoul-Frankfurt RTT {sf}");
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0);
    }

    #[test]
    fn region_display_and_all() {
        assert_eq!(Region::NorthAmerica.to_string(), "North America");
        assert_eq!(Region::all().len(), 4);
        assert!(!Region::all().contains(&Region::Unknown));
    }
}
