//! Table 1 of the paper: which encrypted-DNS providers each major browser
//! offers as built-in choices. The providers appearing in any browser's
//! list define the paper's *mainstream* set.

use std::fmt;

/// A major web browser with built-in DoH support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Browser {
    /// Google Chrome.
    Chrome,
    /// Mozilla Firefox.
    Firefox,
    /// Microsoft Edge.
    Edge,
    /// Opera.
    Opera,
    /// Brave.
    Brave,
}

impl Browser {
    /// All browsers in Table 1's row order.
    pub fn all() -> [Browser; 5] {
        [
            Browser::Chrome,
            Browser::Firefox,
            Browser::Edge,
            Browser::Opera,
            Browser::Brave,
        ]
    }
}

impl fmt::Display for Browser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Browser::Chrome => "Chrome",
            Browser::Firefox => "Firefox",
            Browser::Edge => "Edge",
            Browser::Opera => "Opera",
            Browser::Brave => "Brave",
        };
        write!(f, "{s}")
    }
}

/// A DoH provider offered by at least one browser (Table 1's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Provider {
    /// Cloudflare (1.1.1.1).
    Cloudflare,
    /// Google Public DNS.
    Google,
    /// Quad9.
    Quad9,
    /// NextDNS.
    NextDns,
    /// CleanBrowsing.
    CleanBrowsing,
    /// Cisco OpenDNS.
    OpenDns,
}

impl Provider {
    /// All providers in Table 1's column order.
    pub fn all() -> [Provider; 6] {
        [
            Provider::Cloudflare,
            Provider::Google,
            Provider::Quad9,
            Provider::NextDns,
            Provider::CleanBrowsing,
            Provider::OpenDns,
        ]
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Provider::Cloudflare => "Cloudflare",
            Provider::Google => "Google",
            Provider::Quad9 => "Quad9",
            Provider::NextDns => "NextDNS",
            Provider::CleanBrowsing => "CleanBrowsing",
            Provider::OpenDns => "OpenDNS",
        };
        write!(f, "{s}")
    }
}

/// Table 1 as data: whether `browser` offers `provider` built in
/// (as of the paper's May 9, 2024 snapshot).
pub fn offers(browser: Browser, provider: Provider) -> bool {
    use Browser::*;
    use Provider::*;
    match browser {
        Chrome => matches!(
            provider,
            Cloudflare | Google | Quad9 | CleanBrowsing | OpenDns
        ),
        Firefox => matches!(provider, Cloudflare | NextDns),
        Edge => true, // Edge lists all six
        Opera => matches!(provider, Cloudflare | Google),
        Brave => true, // Brave lists all six
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number of distinct resolver choices a user of `browser` has.
    fn choice_count(browser: Browser) -> usize {
        let offered = |p: &Provider| offers(browser, *p);
        Provider::all().into_iter().filter(offered).count()
    }

    #[test]
    fn table1_row_counts() {
        // Checkmark counts straight from Table 1.
        assert_eq!(choice_count(Browser::Chrome), 5);
        assert_eq!(choice_count(Browser::Firefox), 2);
        assert_eq!(choice_count(Browser::Edge), 6);
        assert_eq!(choice_count(Browser::Opera), 2);
        assert_eq!(choice_count(Browser::Brave), 6);
    }

    #[test]
    fn cloudflare_is_universal() {
        for b in Browser::all() {
            assert!(
                offers(b, Provider::Cloudflare),
                "{b} should offer Cloudflare"
            );
        }
    }

    #[test]
    fn chrome_lacks_nextdns() {
        assert!(!offers(Browser::Chrome, Provider::NextDns));
        assert!(offers(Browser::Firefox, Provider::NextDns));
    }

    #[test]
    fn the_point_of_the_paper_few_choices() {
        // No browser offers more than 6 resolvers, versus the 70+ public
        // DoH deployments the paper measures.
        for b in Browser::all() {
            assert!(choice_count(b) <= 6);
        }
        let population = crate::resolvers::all().len();
        assert!(population > 10 * 6);
    }

    #[test]
    fn display_names() {
        assert_eq!(Browser::Firefox.to_string(), "Firefox");
        assert_eq!(Provider::NextDns.to_string(), "NextDNS");
    }
}
