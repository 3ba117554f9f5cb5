//! The little JSON this crate needs: escaping and numbers for what it
//! writes, and a reader for the one thing it reads back, a metric's value
//! on a result line of its own.

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: every digit Rust prints, `null` if not finite.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The value of metric `name` on a result line this program printed
/// (`"name": {"value": 1.5, "unit": "ms"}`).
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", escape(name));
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn a_printed_value_reads_back_with_all_its_digits() {
        let v = 0.1f64 + 0.2;
        let line = format!(
            "{{\"correct\": true, \"metrics\": {{\"sz.ratio\": {{\"value\": 2, \"unit\": \"x\"}}, \
             \"ratio\": {{\"value\": {}, \"unit\": \"x\"}}}}}}",
            number(v)
        );
        assert_eq!(metric_value(&line, "ratio").map(f64::to_bits), Some(v.to_bits()));
        assert_eq!(metric_value(&line, "sz.ratio"), Some(2.0));
        assert_eq!(metric_value(&line, "p50_ms"), None);
        assert_eq!(number(f64::NAN), "null");
    }
}
