//! Shared formatting helpers for the table-reproduction binaries.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

/// Formats an integer with thousands separators, as the paper prints its
/// operation counts (e.g. `149,520,384`).
pub fn with_commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Formats an op count in the paper's Table II style (`4385.9 M`).
pub fn in_millions(n: u64) -> String {
    format!("{:.1} M", n as f64 / 1e6)
}

/// A `✓` / `✗` marker for exact-match columns.
pub fn check(matches: bool) -> &'static str {
    if matches {
        "ok"
    } else {
        "MISMATCH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comma_grouping() {
        assert_eq!(with_commas(0), "0");
        assert_eq!(with_commas(999), "999");
        assert_eq!(with_commas(1000), "1,000");
        assert_eq!(with_commas(149_520_384), "149,520,384");
        assert_eq!(with_commas(6_971_272_984), "6,971,272,984");
    }

    #[test]
    fn millions() {
        assert_eq!(in_millions(4_385_931_264), "4385.9 M");
        assert_eq!(in_millions(5_820_416), "5.8 M");
    }
}
