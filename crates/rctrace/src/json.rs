//! Deterministic JSON-fragment formatting shared by the exporters and
//! by `rcbench`'s artifacts and reports.
//!
//! The exporters derive all numeric output from integers so that two
//! runs of the same simulation produce byte-identical documents:
//! durations are formatted by splitting the nanosecond count, never by
//! dividing floats. Other floats are either fixed at six digits (`f6`)
//! or written as their shortest round-trip decimal ([`f64_string`]).

/// Escapes `s` into a JSON string literal, including the surrounding
/// quotes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a nanosecond count as a decimal microsecond value with three
/// fractional digits — the unit of the Chrome trace `ts` and `dur` fields.
pub(crate) fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Formats a nanosecond count as a decimal millisecond value with six
/// fractional digits (counter-track values).
pub(crate) fn millis6(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

/// Formats an `f64` (shares, rates) with six fractional digits.
pub(crate) fn f6(v: f64) -> String {
    format!("{v:.6}")
}

/// Formats an `f64` as Rust's shortest round-trip decimal, or as `null`
/// for NaN and infinities, which JSON cannot represent.
///
/// # Examples
///
/// ```
/// assert_eq!(rctrace::json::f64_string(1.25), "1.25");
/// assert_eq!(rctrace::json::f64_string(f64::NAN), "null");
/// ```
pub fn f64_string(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn duration_formats_are_integer_derived() {
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(42), "0.042");
        assert_eq!(millis6(1_234_567), "1.234567");
        assert_eq!(millis6(7), "0.000007");
    }
}
