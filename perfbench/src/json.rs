//! Just enough JSON output for the report (the workspace has no serde).

/// A finite number with all its digits (`null` when not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A quoted, escaped string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object built field by field, in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a field whose value is already rendered JSON.
    pub fn field(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_objects() {
        let mut o = Obj::new();
        o.field("a\"b", num(1.5)).field("c", string("x\ny"));
        assert_eq!(o.render(), r#"{"a\"b": 1.5, "c": "x\ny"}"#);
        assert_eq!(num(f64::NAN), "null");
    }
}
