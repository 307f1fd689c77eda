//! Hand-rolled JSON output (the offline image has no serde).

/// `s` as a quoted JSON string (the repository's own escaper).
pub use gamma_prof::export::json_str as string;

/// `v` with every digit it was measured with (Rust's shortest round-trip
/// form); a non-finite value, which JSON cannot carry, becomes 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"k": v, ...}` from already-rendered values, in the given order.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_numbers_keep_their_digits() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(
            object(&[("a", number(1.5)), ("b", string("x"))]),
            r#"{"a": 1.5, "b": "x"}"#
        );
    }
}
