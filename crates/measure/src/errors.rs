//! The measurement tool's error taxonomy.
//!
//! The paper reports 311,351 errors against 5,098,281 successes and notes
//! "the most common errors we received ... were related to a failure to
//! establish a connection". This module maps transport- and
//! application-level failures into the categories the tool logs, and
//! [`Tally`] counts them per cell.

use std::fmt;

use edns_stats::Availability;
use transport::{TransportError, TransportErrorKind};

/// Why a probe failed, as recorded in the results JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProbeErrorKind {
    /// Could not establish a TCP/QUIC connection (timeout).
    ConnectTimeout,
    /// The connection was actively refused.
    ConnectionRefused,
    /// TLS negotiation failed.
    TlsFailure,
    /// The presented certificate did not validate.
    CertificateError,
    /// The HTTP layer returned a non-2xx status.
    HttpStatus,
    /// The HTTP layer rejected the request with a 429 (rate limiting).
    RateLimited,
    /// The connection established but the query timed out.
    QueryTimeout,
    /// The DNS payload was malformed or the rcode was a server failure.
    DnsError,
}

impl ProbeErrorKind {
    /// Every kind in label order: the order a [`Tally`] lists its errors
    /// in, as a label-keyed map would.
    pub const BY_LABEL: [ProbeErrorKind; 8] = [
        ProbeErrorKind::CertificateError,
        ProbeErrorKind::ConnectTimeout,
        ProbeErrorKind::ConnectionRefused,
        ProbeErrorKind::DnsError,
        ProbeErrorKind::HttpStatus,
        ProbeErrorKind::QueryTimeout,
        ProbeErrorKind::RateLimited,
        ProbeErrorKind::TlsFailure,
    ];

    /// True for the "failure to establish a connection" class the paper
    /// identifies as dominant.
    pub fn is_connection_failure(self) -> bool {
        matches!(
            self,
            ProbeErrorKind::ConnectTimeout
                | ProbeErrorKind::ConnectionRefused
                | ProbeErrorKind::TlsFailure
                | ProbeErrorKind::CertificateError
        )
    }

    /// Stable machine-readable label used in JSON output.
    pub fn label(self) -> &'static str {
        crate::json::unquote(self.token())
    }

    /// The label as the JSON string token a record line holds.
    pub(crate) fn token(self) -> &'static str {
        match self {
            ProbeErrorKind::ConnectTimeout => r#""connect_timeout""#,
            ProbeErrorKind::ConnectionRefused => r#""connection_refused""#,
            ProbeErrorKind::TlsFailure => r#""tls_failure""#,
            ProbeErrorKind::CertificateError => r#""certificate_error""#,
            ProbeErrorKind::HttpStatus => r#""http_status""#,
            ProbeErrorKind::RateLimited => r#""rate_limited""#,
            ProbeErrorKind::QueryTimeout => r#""query_timeout""#,
            ProbeErrorKind::DnsError => r#""dns_error""#,
        }
    }

    /// Parses a label back (inverse of [`label`](Self::label)).
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "connect_timeout" => ProbeErrorKind::ConnectTimeout,
            "connection_refused" => ProbeErrorKind::ConnectionRefused,
            "tls_failure" => ProbeErrorKind::TlsFailure,
            "certificate_error" => ProbeErrorKind::CertificateError,
            "http_status" => ProbeErrorKind::HttpStatus,
            "rate_limited" => ProbeErrorKind::RateLimited,
            "query_timeout" => ProbeErrorKind::QueryTimeout,
            "dns_error" => ProbeErrorKind::DnsError,
            _ => return None,
        })
    }

    /// All variants (for aggregation tables).
    pub fn all() -> [ProbeErrorKind; 8] {
        [
            ProbeErrorKind::ConnectTimeout,
            ProbeErrorKind::ConnectionRefused,
            ProbeErrorKind::TlsFailure,
            ProbeErrorKind::CertificateError,
            ProbeErrorKind::HttpStatus,
            ProbeErrorKind::RateLimited,
            ProbeErrorKind::QueryTimeout,
            ProbeErrorKind::DnsError,
        ]
    }

    /// The probe phase this failure surfaces in — used to attribute retry
    /// counters per phase in the metrics registry.
    pub fn phase(self) -> obs::Phase {
        match self {
            ProbeErrorKind::ConnectTimeout | ProbeErrorKind::ConnectionRefused => {
                obs::Phase::Connect
            }
            ProbeErrorKind::TlsFailure | ProbeErrorKind::CertificateError => {
                obs::Phase::TlsHandshake
            }
            ProbeErrorKind::HttpStatus
            | ProbeErrorKind::RateLimited
            | ProbeErrorKind::QueryTimeout => obs::Phase::HttpExchange,
            ProbeErrorKind::DnsError => obs::Phase::ServerProcessing,
        }
    }
}

/// Success and error tallies of one cell: the successes and one counter
/// per [`ProbeErrorKind`], with no heap behind them. Errors list in label
/// order, so every rendering of a tally has the bytes of the label-keyed
/// [`Availability`] it stands in for, and [`dominant_error`](Self::dominant_error)
/// breaks ties as that map's `max_by_key` does: the last maximum in
/// label order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Successful probes.
    pub successes: u64,
    /// Failed probes, indexed by the kind's discriminant.
    errors: [u64; 8],
}

impl Tally {
    /// Records a success.
    pub fn success(&mut self) {
        self.successes += 1;
    }

    /// Records a failure of `kind`.
    pub fn error(&mut self, kind: ProbeErrorKind) {
        self.errors[kind as usize] += 1;
    }

    /// Sets the failures of `kind` to `n` (checkpoint decode).
    pub fn set_errors(&mut self, kind: ProbeErrorKind, n: u64) {
        self.errors[kind as usize] = n;
    }

    /// The kinds that failed at least once, with their counts, in label
    /// order.
    pub fn errors(&self) -> impl Iterator<Item = (ProbeErrorKind, u64)> + '_ {
        let counts = ProbeErrorKind::BY_LABEL.map(|k| (k, self.errors[k as usize]));
        counts.into_iter().filter(|&(_, n)| n > 0)
    }

    /// Total failed probes.
    pub fn error_count(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Total probes.
    pub fn total(&self) -> u64 {
        self.successes + self.error_count()
    }

    /// Fraction of probes that succeeded (1.0 when no probes ran).
    pub fn availability(&self) -> f64 {
        match self.total() {
            0 => 1.0,
            t => self.successes as f64 / t as f64,
        }
    }

    /// The most common error label, if any errors occurred.
    pub fn dominant_error(&self) -> Option<&'static str> {
        let (kind, _) = self.errors().max_by_key(|&(_, n)| n)?;
        Some(kind.label())
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.successes += other.successes;
        for (mine, theirs) in self.errors.iter_mut().zip(other.errors) {
            *mine += theirs;
        }
    }

    /// The label-keyed ledger with the same counts.
    pub fn to_availability(&self) -> Availability {
        Availability {
            successes: self.successes,
            errors: self
                .errors()
                .map(|(k, n)| (k.label().to_string(), n))
                .collect(),
        }
    }
}

impl fmt::Display for ProbeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl From<TransportError> for ProbeErrorKind {
    fn from(e: TransportError) -> Self {
        match e.kind {
            TransportErrorKind::ConnectTimeout => ProbeErrorKind::ConnectTimeout,
            TransportErrorKind::ConnectionRefused => ProbeErrorKind::ConnectionRefused,
            TransportErrorKind::TlsHandshakeFailure => ProbeErrorKind::TlsFailure,
            TransportErrorKind::CertificateInvalid => ProbeErrorKind::CertificateError,
            TransportErrorKind::RequestTimeout => ProbeErrorKind::QueryTimeout,
            TransportErrorKind::ProtocolError => ProbeErrorKind::HttpStatus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    #[test]
    fn labels_round_trip() {
        for k in ProbeErrorKind::all() {
            assert_eq!(ProbeErrorKind::from_label(k.label()), Some(k));
        }
        assert_eq!(ProbeErrorKind::from_label("nonsense"), None);
    }

    #[test]
    fn by_label_lists_every_kind_in_label_order() {
        let labels = ProbeErrorKind::BY_LABEL.map(ProbeErrorKind::label);
        assert!(labels.windows(2).all(|w| w[0] < w[1]), "{labels:?}");
        let mut kinds = ProbeErrorKind::BY_LABEL;
        kinds.sort();
        assert_eq!(kinds, ProbeErrorKind::all());
    }

    #[test]
    fn connection_failure_class() {
        assert!(ProbeErrorKind::ConnectTimeout.is_connection_failure());
        assert!(ProbeErrorKind::TlsFailure.is_connection_failure());
        assert!(!ProbeErrorKind::QueryTimeout.is_connection_failure());
        assert!(!ProbeErrorKind::DnsError.is_connection_failure());
        assert!(!ProbeErrorKind::RateLimited.is_connection_failure());
    }

    #[test]
    fn every_kind_has_a_phase() {
        for k in ProbeErrorKind::all() {
            let _ = k.phase();
        }
        assert_eq!(
            ProbeErrorKind::RateLimited.phase(),
            obs::Phase::HttpExchange
        );
        assert_eq!(ProbeErrorKind::ConnectTimeout.phase(), obs::Phase::Connect);
    }

    #[test]
    fn transport_errors_map() {
        let e = TransportError::new(
            TransportErrorKind::ConnectTimeout,
            SimDuration::from_secs(15),
        );
        assert_eq!(ProbeErrorKind::from(e), ProbeErrorKind::ConnectTimeout);
        let e = TransportError::new(TransportErrorKind::ProtocolError, SimDuration::ZERO);
        assert_eq!(ProbeErrorKind::from(e), ProbeErrorKind::HttpStatus);
    }
}
