//! The canonical probe phase taxonomy.

/// One phase of an encrypted-DNS probe, in wall-clock order.
///
/// Every probe decomposes into these six disjoint phases; their durations
/// sum to the probe's total response time. The names are the stable wire
/// labels used in JSON records, histograms and span traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Building and encoding the DNS query message.
    DnsEncode,
    /// Transport connection establishment (TCP handshake, or the combined
    /// QUIC handshake for DoQ).
    Connect,
    /// TLS session establishment on top of an established connection.
    TlsHandshake,
    /// The query/response exchange on the wire, excluding the resolver's
    /// own processing time (HTTP for DoH/ODoH, raw TLS record for DoT,
    /// UDP datagram pair for Do53).
    HttpExchange,
    /// Time spent inside the resolver (cache lookup or recursive
    /// resolution; for ODoH, the relay→target leg).
    ServerProcessing,
    /// Decoding and validating the DNS response message.
    DnsDecode,
}

impl Phase {
    /// All phases, in wall-clock order.
    pub const ALL: [Phase; 6] = [
        Phase::DnsEncode,
        Phase::Connect,
        Phase::TlsHandshake,
        Phase::HttpExchange,
        Phase::ServerProcessing,
        Phase::DnsDecode,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable wire label for this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::DnsEncode => "dns_encode",
            Phase::Connect => "connect",
            Phase::TlsHandshake => "tls_handshake",
            Phase::HttpExchange => "http_exchange",
            Phase::ServerProcessing => "server_processing",
            Phase::DnsDecode => "dns_decode",
        }
    }

    /// Dense index of this phase in [`Phase::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
