//! Locality extraction (paper §3.1).
//!
//! The paper defines patterns for the locality information commonly found in
//! distributed-system logs: 1) host names, 2) IP addresses and ports,
//! 3) local directory paths, 4) distributed-file-system paths. The patterns
//! are fixed: training, streaming detection and ad hoc extraction all match
//! with the same ones, so a key and an unexpected line agree on what is a
//! locality.

use lognlp::token::{classify, TokenShape};
use serde::{Deserialize, Serialize};

/// Which locality pattern a token matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocalityKind {
    /// A bare host name (`host1`, `node3.dc.example.com`).
    HostName,
    /// `host:port` or `ip:port`.
    HostPort,
    /// A bare IPv4 address.
    IpAddr,
    /// A local filesystem path (`/tmp/spill0.out`).
    LocalPath,
    /// A distributed-filesystem path (`hdfs://…`, `s3://…`).
    DfsPath,
}

/// Host-name word prefixes recognised by the built-in host pattern
/// (`host1`, `worker12`, `nm4`, …).
const HOST_PREFIXES: &[&str] = &[
    "host", "node", "worker", "slave", "server", "machine", "nm", "dn", "vm",
];

/// The locality matcher: the built-in patterns above.
#[derive(Debug, Clone, Default)]
pub struct LocalityMatcher;

impl LocalityMatcher {
    /// The matcher.
    pub fn new() -> LocalityMatcher {
        LocalityMatcher
    }

    /// Classify a token as locality information, if it matches any pattern.
    pub fn classify(&self, text: &str) -> Option<LocalityKind> {
        match classify(text) {
            TokenShape::HostPort => return Some(LocalityKind::HostPort),
            TokenShape::Ip => return Some(LocalityKind::IpAddr),
            TokenShape::Path => {
                return Some(
                    if text.starts_with("hdfs://") || text.starts_with("s3://") {
                        LocalityKind::DfsPath
                    } else {
                        LocalityKind::LocalPath
                    },
                );
            }
            _ => {}
        }
        if is_dotted_hostname(text) {
            return Some(LocalityKind::HostName);
        }
        let lower = text.to_ascii_lowercase();
        if looks_like_numbered_host(&lower, HOST_PREFIXES) || is_ec2_host_name(text) {
            return Some(LocalityKind::HostName);
        }
        None
    }

    /// `true` if the token is locality information of any kind.
    pub fn is_locality(&self, text: &str) -> bool {
        self.classify(text).is_some()
    }
}

/// `prefixNN` host names: an allow-listed prefix followed by digits only.
fn looks_like_numbered_host(lower: &str, prefixes: &[&str]) -> bool {
    for p in prefixes {
        if let Some(rest) = lower.strip_prefix(p) {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                return true;
            }
        }
    }
    false
}

/// The octets of an EC2-style host name, which spells out its private
/// address: `ip-` and four dash-separated runs of one to three digits
/// (`ip-10-0-0-1`).
fn ec2_octets(text: &str) -> Option<Vec<&str>> {
    let prefix = text.get(..3).filter(|p| p.eq_ignore_ascii_case("ip-"))?;
    let octets: Vec<&str> = text[prefix.len()..].split('-').collect();
    let digits = |o: &&str| (1..=3).contains(&o.len()) && o.bytes().all(|b| b.is_ascii_digit());
    (octets.len() == 4 && octets.iter().all(digits)).then_some(octets)
}

/// An EC2-style host name whose octets are each 0–255.
fn is_ec2_host_name(text: &str) -> bool {
    ec2_octets(text).is_some_and(|o| o.iter().all(|o| o.parse::<u8>().is_ok()))
}

/// `true` if whether `token` is a locality depends on which digits it
/// holds, not only on where: an EC2-style name with a three-digit octet
/// (`ip-10-0-0-255` is a host name, `ip-10-0-0-256` is not).
pub(crate) fn reads_digit_values(token: &str) -> bool {
    ec2_octets(token).is_some_and(|o| o.iter().any(|o| o.len() == 3))
}

/// Normalise a locality to its host part (`host1:13562` → `host1`), so that
/// GroupBy-locality groups all ports of one machine together — exactly what
/// case study 1 needs to converge on 'host A'. Paths stay whole.
pub fn host_of(locality: &str) -> String {
    if locality.starts_with('/') || locality.contains("://") {
        return locality.to_string();
    }
    match locality.rsplit_once(':') {
        Some((host, port)) if port.chars().all(|c| c.is_ascii_digit()) => host.to_string(),
        _ => locality.to_string(),
    }
}

/// `a.b.c`-style dotted names where every label starts with a letter.
fn is_dotted_hostname(text: &str) -> bool {
    let labels: Vec<&str> = text.split('.').collect();
    labels.len() >= 2
        && labels.iter().all(|l| {
            !l.is_empty()
                && l.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                && l.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_patterns() {
        let m = LocalityMatcher::new();
        assert_eq!(m.classify("host1:13562"), Some(LocalityKind::HostPort));
        assert_eq!(m.classify("10.0.0.3"), Some(LocalityKind::IpAddr));
        assert_eq!(m.classify("10.0.0.3:50010"), Some(LocalityKind::HostPort));
        assert_eq!(
            m.classify("/tmp/hadoop/spill0.out"),
            Some(LocalityKind::LocalPath)
        );
        assert_eq!(
            m.classify("hdfs://nn:8020/user/x"),
            Some(LocalityKind::DfsPath)
        );
        assert_eq!(m.classify("host7"), Some(LocalityKind::HostName));
        assert_eq!(m.classify("worker12"), Some(LocalityKind::HostName));
        assert_eq!(m.classify("ip-10-0-0-1"), Some(LocalityKind::HostName));
        assert_eq!(m.classify("ip-10-0-0"), None);
        assert_eq!(m.classify("ip-10-0-0-256"), None);
        assert_eq!(
            m.classify("node3.dc1.example.com"),
            Some(LocalityKind::HostName)
        );
    }

    #[test]
    fn identifiers_are_not_hosts() {
        let m = LocalityMatcher::new();
        assert_eq!(m.classify("attempt_01"), None);
        assert_eq!(m.classify("container_1_0001"), None);
        assert_eq!(m.classify("broadcast_0"), None);
        assert_eq!(m.classify("task"), None);
        assert_eq!(m.classify("4ms"), None);
    }

    #[test]
    fn host_normalisation() {
        assert_eq!(host_of("host1:13562"), "host1");
        assert_eq!(host_of("10.0.0.3:50010"), "10.0.0.3");
        assert_eq!(host_of("host1"), "host1");
        assert_eq!(host_of("/tmp/x:y"), "/tmp/x:y");
        assert_eq!(host_of("hdfs://nn:8020/x"), "hdfs://nn:8020/x");
    }

    #[test]
    fn version_numbers_are_not_hostnames() {
        let m = LocalityMatcher::new();
        assert_eq!(m.classify("2.9.1"), None); // digits-led labels
        assert_eq!(m.classify("spark-2.1.0"), None);
    }
}
